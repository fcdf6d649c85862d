//! The bounded best-first MBM loop against the seed's reference stream
//! (`tests/common/mbm_reference.rs`), and every algorithm against the
//! answers that oracle gives, on packed snapshots — the one page layout
//! queries read.
//!
//! The two MBM sides are genuinely different mechanisms over the same
//! pages: the bounded loop is a heap of nodes only, children pruned at push
//! time, leaves scored whole by one fused kernel call (and, for SUM
//! groups, filtered through rounded-down bounds first); the reference keeps
//! every child and every entry on one heap, with scalar heuristic-3 keys
//! and lazily converted `mindist(p, M)` filter keys. Both read a node iff
//! fewer than `k` exact distances `<=` its key have been seen, so the
//! search trace is the same — ids, distance bits and node accesses must
//! match. Exact distances are computed by the same (association-fixed)
//! kernel on both paths, so even the float values are bit-identical.
//!
//! The other memory algorithms (MQM, SPM and the depth-first MBM) must
//! return the reference's ids and distance bits; the file algorithms
//! (F-MQM, F-MBM), which fold a distance group by group, its ids and its
//! distances to within rounding.

use gnn::core::QueryScratch;
use gnn::prelude::*;
use gnn::rtree::PackedRTree;
use proptest::prelude::*;

#[path = "common/mbm_reference.rs"]
mod mbm_reference;
use mbm_reference::reference_k_gnn;

fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![-100.0..100.0f64, 0.0..10_000.0f64,]
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point(), 1..max)
}

fn tree_of(pts: &[Point]) -> PackedRTree {
    RTree::bulk_load(
        RTreeParams::with_capacity(8),
        pts.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze()
}

/// `got` carries the reference's ids and distance bits, rank by rank.
fn assert_same(name: &str, reference: &[Neighbor], got: &[Neighbor]) -> Result<(), TestCaseError> {
    prop_assert_eq!(reference.len(), got.len(), "{}: result count", name);
    for (r, g) in reference.iter().zip(got) {
        prop_assert_eq!(r.id, g.id, "{}: id", name);
        prop_assert_eq!(r.dist.to_bits(), g.dist.to_bits(), "{}: distance", name);
    }
    Ok(())
}

/// The bounded loop against the reference: ids, distance bits and node
/// accesses.
fn assert_mbm_matches_reference(
    name: &str,
    tree: &PackedRTree,
    group: &QueryGroup,
    k: usize,
) -> Result<(), TestCaseError> {
    let rc = tree.cursor();
    let reference = reference_k_gnn(&rc, group, k);
    let bc = tree.cursor();
    let bounded = Mbm::best_first().k_gnn(&bc, group, k);
    assert_same(name, &reference, &bounded.neighbors)?;
    prop_assert_eq!(
        rc.stats().logical,
        bc.stats().logical,
        "{}: node accesses",
        name
    );
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
        for agg in aggregates() {
            let group = QueryGroup::with_aggregate(query.clone(), agg).unwrap();
            assert_mbm_matches_reference("MBM", &tree, &group, k)?;
            let reference = reference_k_gnn(&tree.cursor(), &group, k);
            let algos: Vec<(&str, Box<dyn MemoryGnnAlgorithm>)> = if agg == Aggregate::Sum {
                vec![
                    ("MQM", Box::new(Mqm::new())),
                    ("SPM", Box::new(Spm::best_first())),
                ]
            } else {
                vec![("MQM", Box::new(Mqm::new()))]
            };
            for (name, algo) in algos {
                let got = algo.k_gnn(&tree.cursor(), &group, k);
                assert_same(name, &reference, &got.neighbors)?;
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
        let qf = GroupedQueryFile::build_with(query.clone(), 8, 20);
        for agg in aggregates() {
            let group = QueryGroup::with_aggregate(query.clone(), agg).unwrap();
            let reference = reference_k_gnn(&tree.cursor(), &group, k);
            let algos: Vec<(&str, Box<dyn FileGnnAlgorithm>)> = vec![
                ("F-MQM", Box::new(Fmqm::new())),
                ("F-MBM", Box::new(Fmbm::best_first())),
            ];
            for (name, algo) in algos {
                let fc = FileCursor::new(qf.file());
                let got = algo.k_gnn(&tree.cursor(), &qf, &fc, k, agg).neighbors;
                prop_assert_eq!(reference.len(), got.len(), "{}: result count", name);
                for (r, g) in reference.iter().zip(&got) {
                    prop_assert_eq!(r.id, g.id, "{}: id", name);
                    prop_assert!(
                        (r.dist - g.dist).abs() <= 1e-12 * r.dist.abs(),
                        "{}: distance {} vs {}", name, g.dist, r.dist
                    );
                }
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
            // unlike a grid — free of exact node-mindist ties.
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
            for agg in aggregates() {
                let group = QueryGroup::with_aggregate(query.clone(), agg).unwrap();
                assert_mbm_matches_reference("MBM@boundary", &tree, &group, k)?;
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
        let group = QueryGroup::sum(query).unwrap();
        let mut scratch = QueryScratch::new();
        let cursor = tree.cursor();
        let fresh = Mbm::best_first().k_gnn(&cursor, &group, k);
        let (neighbors, _) = Mbm::best_first().k_gnn_in(&cursor, &group, k, &mut scratch);
        prop_assert_eq!(&fresh.neighbors[..], neighbors);
    }
}
