//! Packed-vs-arena equivalence: every algorithm must return identical
//! results — same ids, same distances — and perform the **same node
//! accesses** on a [`PackedRTree`] snapshot as on the arena [`RTree`] it
//! was frozen from.
//!
//! This is the contract that makes `freeze()` a pure performance lever. For
//! best-first MBM the two sides are genuinely different mechanisms: the
//! packed cursor runs the `best_dist`-bounded top-k loop (a heap of nodes
//! only, children pruned at push time, leaves scored whole by one fused
//! kernel call), the arena cursor pulls `k` items from the seed's reference
//! stream (every child and every entry on one heap, lazily converted
//! `mindist(p, M)` filter keys). Both read a node iff fewer than `k` exact
//! distances `<=` its key have been seen, so the search trace is the same;
//! exact distances are computed by the same (association-fixed) kernel on
//! both paths, so even the float values are bit-identical. The point-NN
//! engine under SPM and MQM is one best-first loop on both page layouts.

use gnn::core::QueryScratch;
use gnn::prelude::*;
use gnn::rtree::PackedRTree;
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

fn assert_same(
    name: &str,
    arena: &GnnResult,
    arena_na: u64,
    packed: &GnnResult,
    packed_na: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        arena.neighbors.len(),
        packed.neighbors.len(),
        "{}: result count",
        name
    );
    for (a, p) in arena.neighbors.iter().zip(&packed.neighbors) {
        prop_assert_eq!(a.id, p.id, "{}: id", name);
        prop_assert_eq!(a.dist, p.dist, "{}: distance", name);
    }
    prop_assert_eq!(arena_na, packed_na, "{}: node accesses", name);
    Ok(())
}

fn aggregates() -> [Aggregate; 3] {
    [Aggregate::Sum, Aggregate::Max, Aggregate::Min]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memory_algorithms_identical_on_packed(
        data in points(500),
        query in points(12),
        k in 1usize..7,
    ) {
        let tree = tree_of(&data);
        let packed: PackedRTree = tree.freeze();
        for agg in aggregates() {
            let group = QueryGroup::with_aggregate(query.clone(), agg).unwrap();
            let algos: Vec<(&str, Box<dyn MemoryGnnAlgorithm>)> = if agg == Aggregate::Sum {
                vec![
                    ("MQM", Box::new(Mqm::new())),
                    ("SPM", Box::new(Spm::best_first())),
                    ("SPM-df", Box::new(Spm::depth_first())),
                    ("MBM", Box::new(Mbm::best_first())),
                    ("MBM-df", Box::new(Mbm::depth_first())),
                ]
            } else {
                vec![
                    ("MQM", Box::new(Mqm::new())),
                    ("MBM", Box::new(Mbm::best_first())),
                    ("MBM-df", Box::new(Mbm::depth_first())),
                ]
            };
            for (name, algo) in algos {
                let ac = TreeCursor::unbuffered(&tree);
                let a = algo.k_gnn(&ac, &group, k);
                let pc = TreeCursor::packed(&packed);
                let p = algo.k_gnn(&pc, &group, k);
                assert_same(
                    name,
                    &a,
                    ac.stats().logical,
                    &p,
                    pc.stats().logical,
                )?;
            }
        }
    }

    #[test]
    fn file_algorithms_identical_on_packed(
        data in points(300),
        query in points(80),
        k in 1usize..5,
    ) {
        let tree = tree_of(&data);
        let packed: PackedRTree = tree.freeze();
        let qf = GroupedQueryFile::build_with(query, 8, 20);
        for agg in aggregates() {
            let algos: Vec<(&str, Box<dyn FileGnnAlgorithm>)> = vec![
                ("F-MQM", Box::new(Fmqm::new())),
                ("F-MBM", Box::new(Fmbm::best_first())),
                ("F-MBM-df", Box::new(Fmbm::depth_first())),
            ];
            for (name, algo) in algos {
                let ac = TreeCursor::unbuffered(&tree);
                let afc = FileCursor::new(qf.file());
                let a = algo.k_gnn(&ac, &qf, &afc, k, agg);
                let pc = TreeCursor::packed(&packed);
                let pfc = FileCursor::new(qf.file());
                let p = algo.k_gnn(&pc, &qf, &pfc, k, agg);
                assert_same(
                    name,
                    &a,
                    ac.stats().logical,
                    &p,
                    pc.stats().logical,
                )?;
                prop_assert_eq!(
                    afc.page_reads(),
                    pfc.page_reads(),
                    "{}: query-file pages", name
                );
            }
        }
    }

    #[test]
    fn lane_boundary_sizes_stay_identical(
        jitter in 0usize..3,
        query in points(9),
        k in 1usize..4,
    ) {
        // Padding-focused sweep: dataset sizes straddling the 8-lane
        // padding quantum of the packed arenas (exact multiples and both
        // neighbors), with capacity-8 pages so leaf pages and branch spans
        // land ragged against the vector width. The first points sit at
        // the arena sentinel coordinate (0, 0) — a legitimate location
        // that must keep behaving like data, not like padding.
        for base in [8usize, 16, 64, 128, 256] {
            let n = base - 1 + jitter; // base-1, base, base+1
            // Low-discrepancy coordinates: unique, well-spread, and —
            // unlike a grid — free of exact node-mindist ties (tie pop
            // order is the one thing freeze() does not preserve).
            let data: Vec<Point> = (0..n)
                .map(|i| {
                    if i == 0 {
                        Point::new(0.0, 0.0)
                    } else {
                        Point::new(
                            (i as f64 * 0.754_877_666_2).fract() * 100.0,
                            (i as f64 * 0.569_840_290_9).fract() * 100.0,
                        )
                    }
                })
                .collect();
            let tree = tree_of(&data);
            let packed: PackedRTree = tree.freeze();
            for agg in aggregates() {
                let group = QueryGroup::with_aggregate(query.clone(), agg).unwrap();
                let ac = TreeCursor::unbuffered(&tree);
                let a = Mbm::best_first().k_gnn(&ac, &group, k);
                let pc = TreeCursor::packed(&packed);
                let p = Mbm::best_first().k_gnn(&pc, &group, k);
                assert_same(
                    "MBM@boundary",
                    &a,
                    ac.stats().logical,
                    &p,
                    pc.stats().logical,
                )?;
            }
        }
    }

    #[test]
    fn scratch_and_convenience_entries_agree(
        data in points(400),
        query in points(10),
        k in 1usize..6,
    ) {
        // The allocating wrapper and the scratch-reusing entry point must
        // be the same computation.
        let tree = tree_of(&data);
        let packed = tree.freeze();
        let group = QueryGroup::sum(query).unwrap();
        let mut scratch = QueryScratch::new();
        for cursor in [TreeCursor::unbuffered(&tree), TreeCursor::packed(&packed)] {
            let fresh = Mbm::best_first().k_gnn(&cursor, &group, k);
            let (neighbors, _) = Mbm::best_first().k_gnn_in(&cursor, &group, k, &mut scratch);
            prop_assert_eq!(&fresh.neighbors[..], neighbors);
        }
    }
}
