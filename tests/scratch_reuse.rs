//! Zero-allocation steady state: once a [`QueryScratch`] has served a
//! warm-up pass over a workload, running the same workload again must not
//! grow any internal buffer — [`QueryScratch::capacity_profile`] has to be
//! byte-for-byte stable. Since every per-query allocation in the hot path
//! lives in the scratch (the bounded loop's node heap, the stream heap, best
//! lists, key and distance buffers, sort pools), a stable profile means
//! steady-state queries perform no heap allocations at all.

mod common;

use gnn::core::{MbmScratch, QueryScratch};
use gnn::network::{NetworkIer, NetworkScratch, NetworkSnapshot, NetworkTa, RoadNetwork, VertexId};
use gnn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                lo + rng.gen::<f64>() * (hi - lo),
                lo + rng.gen::<f64>() * (hi - lo),
            )
        })
        .collect()
}

fn tree_of(pts: &[Point]) -> PackedRTree {
    RTree::bulk_load(
        RTreeParams::default(),
        pts.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze()
}

fn groups(count: usize, n: usize, seed: u64) -> Vec<QueryGroup> {
    (0..count)
        .map(|i| QueryGroup::sum(random_points(n, seed + i as u64, 20.0, 80.0)).unwrap())
        .collect()
}

/// A reusable scratch that can list its buffer capacities.
trait Profiled {
    fn capacity_profile(&self) -> Vec<usize>;
}

impl Profiled for QueryScratch {
    fn capacity_profile(&self) -> Vec<usize> {
        QueryScratch::capacity_profile(self)
    }
}

impl Profiled for NetworkScratch {
    fn capacity_profile(&self) -> Vec<usize> {
        NetworkScratch::capacity_profile(self)
    }
}

/// Runs `work` once to warm the scratch, snapshots the capacity profile,
/// then re-runs the same workload asserting the profile never changes.
fn assert_steady_state<S: Profiled>(scratch: &mut S, mut work: impl FnMut(&mut S), what: &str) {
    // Two warm-up passes: the first sizes the buffers, the second settles
    // amortised growth (hash-set capacities round up on the way).
    work(scratch);
    work(scratch);
    let profile = scratch.capacity_profile();
    for round in 0..3 {
        work(scratch);
        assert_eq!(
            profile,
            scratch.capacity_profile(),
            "{what}: a scratch buffer regrew in steady state (round {round})"
        );
    }
}

#[test]
fn memory_algorithms_are_allocation_free_in_steady_state() {
    let data = random_points(4000, 1, 0.0, 100.0);
    let packed = tree_of(&data);
    let workload = groups(24, 16, 500);

    let cursor = packed.cursor();
    let algos: Vec<(&str, Box<dyn MemoryGnnAlgorithm>)> = vec![
        ("MQM", Box::new(Mqm::new())),
        ("SPM", Box::new(Spm::best_first())),
        ("MBM", Box::new(Mbm::best_first())),
    ];
    for (name, algo) in algos {
        let mut scratch = QueryScratch::new();
        assert_steady_state(
            &mut scratch,
            |s| {
                for g in &workload {
                    let (neighbors, _) = algo.k_gnn_in(&cursor, g, 8, s);
                    assert_eq!(neighbors.len(), 8);
                }
            },
            name,
        );
    }
}

#[test]
fn planner_run_many_is_allocation_free_in_steady_state() {
    let data = random_points(3000, 2, 0.0, 100.0);
    let packed = tree_of(&data);
    let requests: Vec<QueryRequest> = groups(16, 8, 900)
        .into_iter()
        .map(|g| QueryRequest::new(g, 4))
        .collect();
    let mut scratch = QueryScratch::new();
    let mut answered = 0usize;
    assert_steady_state(
        &mut scratch,
        |s| {
            common::execute_in_order(&packed, &requests, s, |_, neighbors, stats| {
                assert_eq!(neighbors.len(), 4);
                assert!(stats.data_tree.logical > 0);
                answered += 1;
            });
        },
        "planner-routed execute_on loop",
    );
    assert_eq!(answered, 16 * 5);
}

#[test]
fn file_algorithms_scratch_capacities_stabilize() {
    // The file algorithms still allocate their per-query `QueryGroup`
    // materialisations (charged to the metered group loads), but all search
    // state — stream heaps, thresholds, candidate masks, leaf matrices —
    // lives in the scratch and must stop growing once warmed up.
    let data = random_points(2000, 3, 0.0, 100.0);
    let packed = tree_of(&data);
    let cursor = packed.cursor();
    let qpts = random_points(96, 4, 10.0, 90.0);
    let qf = GroupedQueryFile::build_with(qpts, 16, 24);

    let algos: Vec<(&str, Box<dyn FileGnnAlgorithm>)> = vec![
        ("F-MQM", Box::new(Fmqm::new())),
        ("F-MBM", Box::new(Fmbm::best_first())),
    ];
    for (name, algo) in algos {
        let mut scratch = QueryScratch::new();
        assert_steady_state(
            &mut scratch,
            |s| {
                let fc = FileCursor::new(qf.file());
                let (neighbors, _) = algo.k_gnn_in(&cursor, &qf, &fc, 3, Aggregate::Sum, s);
                assert_eq!(neighbors.len(), 3);
            },
            name,
        );
    }
}

#[test]
fn scratch_shrinks_nothing_when_k_varies() {
    // Alternating k must reuse the same buffers (KBestList keeps its
    // capacity across resets).
    let data = random_points(2000, 5, 0.0, 100.0);
    let packed = tree_of(&data);
    let cursor = packed.cursor();
    let workload = groups(8, 8, 700);
    let mbm = Mbm::best_first();
    let mut scratch = QueryScratch::new();
    assert_steady_state(
        &mut scratch,
        |s| {
            for (i, g) in workload.iter().enumerate() {
                let k = 1 + (i % 16);
                let (neighbors, _) = mbm.k_gnn_in(&cursor, g, k, s);
                assert_eq!(neighbors.len(), k);
            }
        },
        "MBM with varying k",
    );
}

#[test]
fn bounded_mbm_stays_allocation_free_as_k_swings() {
    // The bounded top-k loop on a packed cursor, k going 1 → 64 → 1 on
    // every group: the node heap, the MBRs its children's supporting
    // planes are read from (4-member SUM groups check the plane), the best
    // list and the page-scoring buffers sized by the k = 64 pass must
    // serve the k = 1 passes around it, and the other way round nothing
    // may shrink.
    let data = random_points(4000, 6, 0.0, 100.0);
    let packed = tree_of(&data);
    let cursor = packed.cursor();
    let workload = groups(12, 4, 1100);
    let mbm = Mbm::best_first();
    let mut scratch = QueryScratch::new();
    assert_steady_state(
        &mut scratch,
        |s| {
            for g in &workload {
                for k in [1usize, 64, 1] {
                    let (neighbors, _) = mbm.k_gnn_in(&cursor, g, k, s);
                    assert_eq!(neighbors.len(), k);
                }
            }
        },
        "bounded MBM with k 1 → 64 → 1",
    );
}

#[test]
fn lazy_keying_buffers_grow_once_as_group_sizes_swing() {
    // Group sizes 4 → 256 → 4 → 256 through `execute_on`: the 256-member
    // groups key heuristic 3 lazily (pending heap, rect slots, centroid-key
    // buffer) and filter leaves through the block bound first (its block
    // arrays, the survivor indices, the first leaf's witnesses and, on
    // AVX2, the survivors' gathered lanes for the `f32` bound); the
    // 4-member ones key eagerly and filter through `f32` alone or not at
    // all. Those buffers are in the profile — at least six of them still
    // empty after the 4-member pass, filled by the first 256 pass — and
    // once both sizes have run, nothing grows again.
    let data = random_points(4000, 8, 0.0, 100.0);
    let packed = tree_of(&data);
    let requests = |n: usize, seed: u64| -> Vec<QueryRequest> {
        groups(6, n, seed)
            .into_iter()
            .map(|g| QueryRequest::new(g, 8))
            .collect()
    };
    let (small, large) = (requests(4, 1500), requests(256, 1600));
    let run = |s: &mut QueryScratch, requests: &[QueryRequest]| {
        common::execute_in_order(&packed, requests, s, |_, neighbors, _| {
            assert_eq!(neighbors.len(), 8);
        });
    };
    let mut scratch = QueryScratch::new();
    run(&mut scratch, &small);
    let empty = |s: &QueryScratch| s.capacity_profile().iter().filter(|&&c| c == 0).count();
    let after_small = empty(&scratch);
    run(&mut scratch, &large);
    assert!(
        empty(&scratch) + 6 <= after_small,
        "the lazy keying and cascade buffers are part of the profile"
    );
    assert_steady_state(
        &mut scratch,
        |s| {
            for requests in [&small, &large, &small, &large] {
                run(s, requests);
            }
        },
        "execute_on with n 4 → 256 → 4 → 256",
    );
}

#[test]
fn suspended_streams_resume_without_allocating() {
    // F-MQM's usage: a stream seeded with `new_in`, dropped, and continued
    // through `resume_in` one neighbor at a time. Once one full pass has
    // sized the scratch, replaying the pass must not grow any buffer.
    let data = random_points(3000, 7, 0.0, 100.0);
    let packed = tree_of(&data);
    let workload = groups(6, 8, 1300);
    let cursor = packed.cursor();
    let mut scratch = MbmScratch::default();
    let pass = |scratch: &mut MbmScratch| {
        for g in &workload {
            let first = MbmStream::new_in(&cursor, g, scratch).next();
            let mut last = first.expect("non-empty tree").dist;
            for _ in 0..40 {
                let n = MbmStream::resume_in(&cursor, g, scratch).next();
                let dist = n.expect("3000 points").dist;
                assert!(dist >= last, "stream went backwards");
                last = dist;
            }
        }
    };
    pass(&mut scratch);
    let profile: Vec<usize> = scratch.capacity_profile().collect();
    for round in 0..3 {
        pass(&mut scratch);
        assert_eq!(
            profile,
            scratch.capacity_profile().collect::<Vec<_>>(),
            "a stream buffer regrew on resume (round {round})"
        );
    }
}

#[test]
fn network_refinement_stays_allocation_free_as_groups_swing() {
    // Packed IER and TA through one `NetworkScratch`, the group going
    // 1 → 8 → 1 sources: the Dijkstra states, the per-stream bound buffer
    // and TA's candidate queue sized by the n = 8 pass must serve the n = 1
    // passes around it, and nothing may shrink.
    let g = RoadNetwork::grid(24, 24, 0.25, 3);
    let data: Vec<VertexId> = (0..g.vertex_count() as u32)
        .step_by(7)
        .map(VertexId)
        .collect();
    let snapshot = NetworkSnapshot::new(g.freeze(), data.clone());
    let (packed, tree) = (snapshot.graph(), snapshot.data_tree());
    let sources: Vec<VertexId> = [5u32, 570, 23, 301, 552, 98, 417, 260]
        .into_iter()
        .map(VertexId)
        .collect();
    assert_steady_state(
        &mut NetworkScratch::new(),
        |s| {
            for n in [1usize, 8, 1] {
                for aggregate in [Aggregate::Sum, Aggregate::Max] {
                    let (ier, _) =
                        NetworkIer.k_gnn_in(packed, tree, &sources[..n], 4, aggregate, s);
                    assert_eq!(ier.len(), 4);
                    let (ta, _) = NetworkTa.k_gnn_in(packed, &data, &sources[..n], 4, aggregate, s);
                    assert_eq!(ta.len(), 4);
                }
            }
        },
        "network IER + TA with n 1 → 8 → 1",
    );
}
