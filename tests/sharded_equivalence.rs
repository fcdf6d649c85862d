//! Sharded-vs-unsharded equivalence: cross-shard k-GNN through a
//! [`ShardedSnapshot`] must return the same neighbors — same ids, same
//! distance bits — as the same algorithm on the unsharded [`PackedRTree`],
//! for every algorithm and shard count, and its node-access accounting must
//! equal exactly what the consulted shard cursors metered.
//!
//! This is the contract that makes spatial sharding a pure serving-scale
//! lever: the Hilbert partition, the refined routing directory and the
//! best-first merge change *where* the work happens, never the answer.
//! Exact aggregate distances are a pure function of (point, group), so the
//! only legitimate divergence is which of several points **tying at the
//! k-th distance** is retained — single-tree algorithms themselves resolve
//! such ties by traversal order (`GnnResult::distances` documents this).
//! The suite detects a boundary tie from the reference's `k+1` distance
//! multiset and compares distances-only in that (measure-zero) case, ids +
//! distance bits otherwise.

use gnn::core::baseline::linear_scan_points;
use gnn::core::sharded::sharded_k_gnn_in;
use gnn::core::QueryScratch;
use gnn::prelude::*;
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![-100.0..100.0f64, 0.0..10_000.0f64,]
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point(), 1..max)
}

fn tree_of(pts: &[Point]) -> RTree {
    RTree::bulk_load(
        RTreeParams::with_capacity(8),
        pts.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
}

/// The memory algorithms (planner-auto resolves to MBM and is
/// covered by the service suites; SPM is SUM-only).
fn algorithms(aggregate: Aggregate) -> Vec<(&'static str, Box<dyn MemoryGnnAlgorithm>)> {
    if aggregate == Aggregate::Sum {
        vec![
            ("MQM", Box::new(Mqm::new())),
            ("SPM", Box::new(Spm::best_first())),
            ("MBM", Box::new(Mbm::best_first())),
        ]
    } else {
        vec![
            ("MQM", Box::new(Mqm::new())),
            ("MBM", Box::new(Mbm::best_first())),
        ]
    }
}

fn fingerprint(neighbors: &[Neighbor]) -> Vec<(u64, u64)> {
    neighbors
        .iter()
        .map(|n| (n.id.0, n.dist.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_merge_identical_on_all_algorithms_and_shard_counts(
        data in points(400),
        query in points(10),
        k in 1usize..6,
    ) {
        let tree = tree_of(&data);
        let packed = tree.freeze();
        for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            let group = QueryGroup::with_aggregate(query.clone(), agg).unwrap();
            // Boundary-tie probe: the k+1 smallest aggregate distances are
            // algorithm-independent; a tie between positions k-1 and k
            // means the k-th slot has interchangeable occupants.
            let probe = Mbm::best_first().k_gnn(&packed.cursor(), &group, k + 1);
            let boundary_tie = probe.neighbors.len() > k
                && probe.neighbors[k - 1].dist.to_bits() == probe.neighbors[k].dist.to_bits();
            for (name, algo) in algorithms(agg) {
                let reference = {
                    let cursor = packed.cursor();
                    let r = algo.k_gnn(&cursor, &group, k);
                    (fingerprint(&r.neighbors), r)
                };
                for shards in [1usize, 2, 4, 7] {
                    let sharded = packed.partition(shards);
                    prop_assert_eq!(sharded.shard_count(), shards);
                    let cursors: Vec<TreeCursor<'_>> =
                        sharded.shards().iter().map(|s| s.cursor()).collect();
                    let mut scratch = QueryScratch::new();
                    let (got, stats, routing) = sharded_k_gnn_in(
                        algo.as_ref(),
                        &sharded,
                        &cursors,
                        &group,
                        k,
                        &mut scratch,
                    );
                    // Distance bits always match, bit for bit.
                    prop_assert_eq!(
                        got.iter().map(|n| n.dist.to_bits()).collect::<Vec<_>>(),
                        reference
                            .1
                            .neighbors
                            .iter()
                            .map(|n| n.dist.to_bits())
                            .collect::<Vec<_>>(),
                        "{} @ {} shards: distance bits",
                        name,
                        shards
                    );
                    // Ids too, except in the boundary-tie case.
                    if !boundary_tie {
                        prop_assert_eq!(
                            fingerprint(got),
                            reference.0.clone(),
                            "{} @ {} shards: ids + distance bits",
                            name,
                            shards
                        );
                    }
                    // Aggregate NA accounting: the reported stats equal
                    // exactly what the shard cursors metered, and only
                    // consulted shards were touched.
                    let metered: u64 = cursors.iter().map(|c| c.stats().logical).sum();
                    prop_assert_eq!(
                        stats.data_tree.logical,
                        metered,
                        "{} @ {} shards: NA accounting",
                        name,
                        shards
                    );
                    prop_assert!(
                        routing.consulted >= 1 && routing.consulted as usize <= shards,
                        "{} @ {} shards: consulted {}",
                        name,
                        shards,
                        routing.consulted
                    );
                    prop_assert!((routing.primary as usize) < shards);
                }
            }
        }
    }

    #[test]
    fn single_shard_partition_preserves_na_of_its_own_tree(
        data in points(300),
        query in points(8),
        k in 1usize..5,
    ) {
        // `ShardedSnapshot::single` wraps a snapshot without rebuilding:
        // the sharded path must equal the plain path *including* node
        // accesses (this is what keeps the unsharded service bit-identical
        // to its sequential reference through the sharded engine).
        let tree = tree_of(&data);
        let packed = std::sync::Arc::new(tree.freeze());
        let single = ShardedSnapshot::single(std::sync::Arc::clone(&packed));
        let group = QueryGroup::sum(query).unwrap();
        let algo = Mbm::best_first();
        let want = algo.k_gnn(&packed.cursor(), &group, k);
        let cursors = vec![single.shard(0).cursor()];
        let mut scratch = QueryScratch::new();
        let (got, stats, routing) =
            sharded_k_gnn_in(&algo, &single, &cursors, &group, k, &mut scratch);
        prop_assert_eq!(fingerprint(got), fingerprint(&want.neighbors));
        prop_assert_eq!(stats.data_tree.logical, want.stats.data_tree.logical);
        prop_assert_eq!(routing, ShardRouting::default());
    }

    #[test]
    fn partition_constructors_agree(
        data in points(300),
        shards in 1usize..8,
    ) {
        // `RTree::freeze_sharded` and `PackedRTree::partition` are the same
        // canonical partition: structurally identical shard snapshots.
        let tree = tree_of(&data);
        let packed = tree.freeze();
        let a = tree.freeze_sharded(shards);
        let b = packed.partition(shards);
        prop_assert_eq!(a.shard_count(), b.shard_count());
        for s in 0..shards {
            prop_assert_eq!(a.shard(s).as_ref(), b.shard(s).as_ref(), "shard {}", s);
        }
        prop_assert_eq!(a.directory(), b.directory());
        let total: usize = a.shards().iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, data.len());
    }
}

/// Side of the tie lattice; every node is stored [`COPIES`] times.
const SIDE: usize = 24;
const COPIES: usize = 3;

/// A `SIDE × SIDE` integer lattice with every node stored `COPIES` times
/// (ids are positions in the returned vector).
fn tie_lattice() -> Vec<Point> {
    (0..COPIES * SIDE * SIDE)
        .map(|i| {
            let node = i % (SIDE * SIDE);
            Point::new((node % SIDE) as f64, (node / SIDE) as f64)
        })
        .collect()
}

/// Groups on lattice nodes and between them: every distance ties with at
/// least two other copies, and most with whole rings of nodes.
fn tie_groups() -> Vec<Vec<Point>> {
    vec![
        vec![Point::new(11.0, 11.0)],
        vec![Point::new(11.5, 11.5)],
        vec![Point::new(4.0, 4.0), Point::new(8.0, 4.0)],
        vec![
            Point::new(5.5, 5.5),
            Point::new(5.5, 17.5),
            Point::new(17.5, 5.5),
            Point::new(17.5, 17.5),
        ],
    ]
}

const TIE_KS: [usize; 9] = [1, 2, 3, 4, 7, 13, 50, 1_728, 1_729];

/// Distance bits at every rank equal the oracle's, and the answer holds
/// `min(k, N)` distinct stored points.
fn assert_tie_answer(data: &[Point], got: &[Neighbor], want: &[Neighbor], k: usize, what: &str) {
    assert_eq!(got.len(), k.min(data.len()), "{what}: count");
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.dist.to_bits(),
            w.dist.to_bits(),
            "{what}: distance at rank {rank}"
        );
        let stored = data.get(g.id.0 as usize);
        assert_eq!(stored, Some(&g.point), "{what}: rank {rank} id {:?}", g.id);
    }
    let mut ids: Vec<u64> = got.iter().map(|n| n.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), got.len(), "{what}: an id reported twice");
}

/// Ties at the k-th boundary, across shards: the proptest above skips its
/// id check on a boundary tie, and random floats almost never tie. Here
/// nearly every rank ties, on a lattice whose copies land in different
/// shards.
#[test]
fn boundary_ties_across_shards_keep_the_oracle_bits_and_distinct_ids() {
    let data = tie_lattice();
    let packed = tree_of(&data).freeze();
    let partitions: Vec<ShardedSnapshot> = [1usize, 2, 3, 4, 7, 8]
        .into_iter()
        .map(|shards| packed.partition(shards))
        .collect();
    let direct: [(&str, &dyn MemoryGnnAlgorithm); 3] = [
        ("MBM", &Mbm::best_first()),
        ("SPM", &Spm::best_first()),
        ("MQM", &Mqm::new()),
    ];
    let mut scratch = QueryScratch::new();
    for members in tie_groups() {
        for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            let group = QueryGroup::with_aggregate(members.clone(), agg).unwrap();
            for k in TIE_KS {
                let want = linear_scan_points(&data, &group, k).neighbors;
                for (name, algo) in direct {
                    if name == "SPM" && agg != Aggregate::Sum {
                        continue;
                    }
                    for sharded in &partitions {
                        let cursors: Vec<TreeCursor<'_>> =
                            sharded.shards().iter().map(|s| s.cursor()).collect();
                        let (got, ..) =
                            sharded_k_gnn_in(algo, sharded, &cursors, &group, k, &mut scratch);
                        let what = format!(
                            "{name} {agg} {members:?} k={k} @ {} shards",
                            sharded.shard_count()
                        );
                        assert_tie_answer(&data, got, &want, k, &what);
                    }
                }
            }
        }
    }
}

/// The same draws through a two-shard service: every handle resolves with
/// the oracle's bits and distinct ids, and no worker panics.
#[test]
fn boundary_ties_through_a_sharded_service_keep_the_oracle_bits() {
    let data = tie_lattice();
    let service = Service::start_sharded(
        std::sync::Arc::new(tree_of(&data).freeze_sharded(2)),
        ServiceConfig::with_workers(2),
    );
    let algos = [Algo::Auto, Algo::Mbm, Algo::Spm, Algo::Mqm];
    for members in tie_groups() {
        for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            let group = QueryGroup::with_aggregate(members.clone(), agg).unwrap();
            let draws: Vec<(usize, Algo)> = TIE_KS
                .into_iter()
                .flat_map(|k| algos.map(|algo| (k, algo)))
                .collect();
            let handles: Vec<_> = draws
                .iter()
                .map(|&(k, algo)| {
                    service
                        .submit(QueryRequest::with_algo(group.clone(), k, algo))
                        .expect("submitted")
                })
                .collect();
            for (&(k, algo), handle) in draws.iter().zip(handles) {
                let reply = handle.wait().expect("a tie is answered, not failed");
                let want = linear_scan_points(&data, &group, k).neighbors;
                let what = format!("service {algo:?} {agg} {members:?} k={k}");
                assert_tie_answer(&data, &reply.neighbors, &want, k, &what);
            }
        }
    }
    assert_eq!(service.stats().faults.panics, 0);
    service.shutdown();
}
