//! Batch-executor equivalence: a batch run through [`execute_batch_in`]
//! must be bit-identical to the per-query reference (a loop of
//! `execute_on` on `Target::Single`) — same neighbor ids, same distance
//! bits, and the same **per-query node accesses** — at every batch split.
//! The executor runs a batch's members one after another in submission
//! order, and its overlay only counts distinct pages; the logical
//! traversal of each query is untouched, which is what makes the NA metric
//! schedule-independent.
//!
//! Sharded comparisons against the *unsharded* reference inherit the
//! k-th-boundary-tie caveat of `sharded_equivalence.rs`: exact aggregate
//! distances are a pure function of (point, group), so distance bits are
//! always compared, ids only when the reference's `k+1` probe shows no tie
//! at the k-th slot. Batch-vs-per-query on the SAME target needs no guard
//! — the executor runs the identical code path per query.

mod common;

use gnn::core::QueryScratch;
use gnn::datasets::{hotspot_query_workload, HotspotSpec, QuerySpec};
use gnn::prelude::*;
use proptest::prelude::*;

fn tree_of(pts: &[Point]) -> RTree {
    RTree::bulk_load(
        RTreeParams::with_capacity(8),
        pts.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
}

fn uniform_points(n: usize, seed: u64) -> Vec<Point> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0))
        .collect()
}

/// A skewed (hotspot) workload — overlapping traffic is the batch
/// executor's target regime, and overlapping heaps are where traversal
/// bugs would show.
fn hotspot_groups(workspace: Rect, count: usize, seed: u64) -> Vec<QueryGroup> {
    let spec = HotspotSpec {
        query: QuerySpec {
            n: 6,
            area_fraction: 0.02,
        },
        hotspots: 4,
        sigma: 0.03,
        background: 0.2,
    };
    hotspot_query_workload(workspace, spec, count, seed)
        .into_iter()
        .map(|pts| QueryGroup::sum(pts).expect("workload query"))
        .collect()
}

/// Per-query fingerprint: ids + distance bits + logical NA.
type Fingerprint = (Vec<(u64, u64)>, u64, Choice);

fn fingerprint(neighbors: &[Neighbor], na: u64, choice: Choice) -> Fingerprint {
    (
        neighbors
            .iter()
            .map(|n| (n.id.0, n.dist.to_bits()))
            .collect(),
        na,
        choice,
    )
}

fn requests_of(groups: &[QueryGroup], k: usize) -> Vec<QueryRequest> {
    groups
        .iter()
        .map(|g| QueryRequest::new(g.clone(), k))
        .collect()
}

/// The sequential reference's per-query fingerprints, in submission order.
fn reference(snapshot: &PackedRTree, requests: &[QueryRequest]) -> Vec<Fingerprint> {
    let mut out = Vec::with_capacity(requests.len());
    common::execute_in_order(
        snapshot,
        requests,
        &mut QueryScratch::new(),
        |choice, ns, stats| {
            out.push(fingerprint(ns, stats.data_tree.logical, choice));
        },
    );
    out
}

/// Runs `requests` through the batch executor in chunks of `batch_size`
/// and returns the per-query fingerprints in submission order.
fn run_batched(
    planner: &Planner,
    target: &Target<'_, '_>,
    requests: &[QueryRequest],
    batch_size: usize,
) -> Vec<Fingerprint> {
    let mut scratch = QueryScratch::new();
    let mut out: Vec<Option<Fingerprint>> = vec![None; requests.len()];
    for (chunk_idx, chunk) in requests.chunks(batch_size).enumerate() {
        let base = chunk_idx * batch_size;
        let accounting = execute_batch_in(
            planner,
            target,
            chunk,
            &mut scratch,
            |i, choice, ns, stats, _| {
                out[base + i] = Some(fingerprint(ns, stats.data_tree.logical, choice));
            },
        );
        assert_eq!(accounting.queries, chunk.len());
        assert!(accounting.unique_pages <= accounting.sequential_pages);
    }
    out.into_iter()
        .map(|f| f.expect("every query sank"))
        .collect()
}

#[test]
fn unsharded_batches_are_bit_identical_to_a_loop_of_execute_on() {
    let pts = uniform_points(6_000, 21);
    let tree = tree_of(&pts);
    let packed = tree.freeze();
    let groups = hotspot_groups(tree.root_mbr(), 64, 0xBA7C_0001);
    let requests = requests_of(&groups, 4);
    let reference = reference(&packed, &requests);

    let planner = Planner::new();
    for batch_size in [1usize, 7, 64] {
        let cursor = packed.cursor();
        let target = Target::Single(&cursor);
        let got = run_batched(&planner, &target, &requests, batch_size);
        assert_eq!(got, reference, "batch size {batch_size}");
    }
}

#[test]
fn sharded_batches_match_per_query_execution_and_the_unsharded_reference() {
    let pts = uniform_points(6_000, 22);
    let tree = tree_of(&pts);
    let packed = tree.freeze();
    let groups = hotspot_groups(tree.root_mbr(), 64, 0xBA7C_0002);
    let k = 4;
    let planner = Planner::new();
    let requests = requests_of(&groups, k);

    // Unsharded reference + per-query boundary-tie probes.
    let reference = reference(&packed, &requests);
    let boundary_tie: Vec<bool> = groups
        .iter()
        .map(|group| {
            let probe = Mbm::best_first().k_gnn(&packed.cursor(), group, k + 1);
            probe.neighbors.len() > k
                && probe.neighbors[k - 1].dist.to_bits() == probe.neighbors[k].dist.to_bits()
        })
        .collect();

    for shards in [1usize, 3] {
        let sharded = packed.partition(shards);
        let cursors: Vec<TreeCursor<'_>> = sharded.shards().iter().map(|s| s.cursor()).collect();
        let target = Target::Sharded {
            snapshot: &sharded,
            cursors: &cursors,
        };

        // Per-query execution on the SAME sharded target: the executor's
        // schedule-independence anchor — full fingerprint including NA.
        let mut scratch = QueryScratch::new();
        let per_query: Vec<Fingerprint> = requests
            .iter()
            .map(|r| {
                let (choice, ns, stats, _) = r.execute_on(&planner, &target, &mut scratch);
                fingerprint(ns, stats.data_tree.logical, choice)
            })
            .collect();
        for batch_size in [1usize, 7, 64] {
            let got = run_batched(&planner, &target, &requests, batch_size);
            assert_eq!(
                got, per_query,
                "{shards} shards, batch size {batch_size}: batch vs per-query"
            );
        }

        // Against the unsharded reference: distance bits always, ids only
        // outside boundary ties, NA only where the tree is the same one.
        for (i, (got, want)) in per_query.iter().zip(&reference).enumerate() {
            let got_bits: Vec<u64> = got.0.iter().map(|&(_, bits)| bits).collect();
            let want_bits: Vec<u64> = want.0.iter().map(|&(_, bits)| bits).collect();
            assert_eq!(got_bits, want_bits, "{shards} shards, query {i}: distances");
            if !boundary_tie[i] {
                assert_eq!(got.0, want.0, "{shards} shards, query {i}: ids");
            }
            if shards == 1 {
                assert_eq!(got.1, want.1, "single shard, query {i}: NA");
            }
        }
    }
}

/// Page counts are deterministic (distinct pages under the batch
/// executor's overlay vs the sum of per-query NA), so the saving a shared
/// traversal would make is gated as a count, not a time — on the
/// executor's own accounting, over a hotspot workload.
#[test]
fn batched_execution_reads_a_fifth_fewer_distinct_pages() {
    let pts = uniform_points(6_000, 23);
    let tree = tree_of(&pts);
    let packed = tree.freeze();
    let groups = hotspot_groups(tree.root_mbr(), 64, 0xBA7C_0003);
    let requests = requests_of(&groups, 4);

    let planner = Planner::new();
    let cursor = packed.cursor();
    let mut scratch = QueryScratch::new();
    for batch_size in [16usize, 64] {
        let target = Target::Single(&cursor);
        let (mut unique, mut sequential) = (0u64, 0u64);
        for chunk in requests.chunks(batch_size) {
            let accounting =
                execute_batch_in(&planner, &target, chunk, &mut scratch, |_, _, _, _, _| {});
            unique += accounting.unique_pages;
            sequential += accounting.sequential_pages;
        }
        let savings = 1.0 - unique as f64 / sequential as f64;
        assert!(
            savings >= 0.20,
            "batch size {batch_size}: saved only {savings:.3} of page reads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn arbitrary_workloads_batch_identically(
        data_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
        k in 1usize..5,
    ) {
        // Property form of the deterministic suites above: random data and
        // workload seeds, unsharded full equality plus a 3-shard
        // distance-bits check.
        let pts = uniform_points(1_500, data_seed);
        let tree = tree_of(&pts);
        let packed = tree.freeze();
        let groups = hotspot_groups(tree.root_mbr(), 12, workload_seed);
        let planner = Planner::new();
        let requests = requests_of(&groups, k);
        let reference = reference(&packed, &requests);

        for batch_size in [1usize, 5, 12] {
            let cursor = packed.cursor();
            let target = Target::Single(&cursor);
            let got = run_batched(&planner, &target, &requests, batch_size);
            prop_assert_eq!(&got, &reference, "batch size {}", batch_size);
        }

        let sharded = packed.partition(3);
        let cursors: Vec<TreeCursor<'_>> =
            sharded.shards().iter().map(|s| s.cursor()).collect();
        let target = Target::Sharded { snapshot: &sharded, cursors: &cursors };
        let got = run_batched(&planner, &target, &requests, 5);
        for (i, (g, want)) in got.iter().zip(&reference).enumerate() {
            let got_bits: Vec<u64> = g.0.iter().map(|&(_, bits)| bits).collect();
            let want_bits: Vec<u64> = want.0.iter().map(|&(_, bits)| bits).collect();
            prop_assert_eq!(got_bits, want_bits, "query {} sharded distances", i);
        }
    }
}
