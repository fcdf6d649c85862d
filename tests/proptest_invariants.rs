//! Property-based tests over the core invariants:
//!
//! * every algorithm equals the linear-scan oracle on arbitrary inputs,
//! * the exact SUM distance is the seed's sequential fold, bit for bit,
//! * the paper's lemma and heuristics are genuine lower bounds,
//! * the R*-tree keeps its structural invariants under arbitrary updates,
//! * the Hilbert curve is a bijection with unit steps.

use gnn::core::baseline::linear_scan_entries;
use gnn::core::centroid::{gradient_descent_centroid, weiszfeld_centroid};
use gnn::core::MbmScratch;
use gnn::geom::hilbert;
use gnn::prelude::*;
use gnn::rtree::validate::check_invariants;
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    // Finite coordinates over a few orders of magnitude, including negatives.
    prop_oneof![-100.0..100.0f64, -1.0..1.0f64, 0.0..10_000.0f64,]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_algorithms_equal_oracle(
        data in points(200),
        query in points(12),
        k in 1usize..6,
    ) {
        let tree = tree_of(&data);
        let group = QueryGroup::sum(query).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, k);
        let cursor = tree.cursor();
        for (name, got) in [
            ("MQM", Mqm::new().k_gnn(&cursor, &group, k)),
            ("SPM", Spm::best_first().k_gnn(&cursor, &group, k)),
            ("MBM", Mbm::best_first().k_gnn(&cursor, &group, k)),
        ] {
            let g = got.distances();
            let w = want.distances();
            prop_assert_eq!(g.len(), w.len(), "{}", name);
            for (a, b) in g.iter().zip(&w) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{}: {} vs {}", name, a, b);
            }
        }
    }

    #[test]
    fn file_algorithms_equal_oracle(
        data in points(150),
        query in points(60),
        k in 1usize..4,
    ) {
        let tree = tree_of(&data);
        let group = QueryGroup::sum(query.clone()).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, k);
        let qf = GroupedQueryFile::build_with(query, 8, 16);
        let cursor = tree.cursor();
        let fc = FileCursor::new(qf.file());
        for (name, got) in [
            ("F-MQM", Fmqm::new().k_gnn(&cursor, &qf, &fc, k, Aggregate::Sum)),
            ("F-MBM", Fmbm::best_first().k_gnn(&cursor, &qf, &fc, k, Aggregate::Sum)),
        ] {
            let g = got.distances();
            let w = want.distances();
            prop_assert_eq!(g.len(), w.len(), "{}", name);
            for (a, b) in g.iter().zip(&w) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{}: {} vs {}", name, a, b);
            }
        }
    }

    #[test]
    fn sum_distance_is_the_seeds_sequential_fold(
        query in points(300),
        p in point(),
    ) {
        // `QueryGroup::dist` runs the dispatched kernel; the seed ran this
        // loop. Same bits, weighted or not, at every group size the draw
        // reaches (past the four-lane blocks and the benchmark's 256).
        let weights: Vec<f64> = query.iter().map(|q| 0.25 + q.x.abs().fract() * 4.0).collect();
        for (g, w) in [
            (QueryGroup::sum(query.clone()).unwrap(), vec![1.0; query.len()]),
            (QueryGroup::weighted_sum(query.clone(), weights.clone()).unwrap(), weights),
        ] {
            let mut acc = 0.0;
            for (q, wi) in query.iter().zip(&w) {
                let dx = q.x - p.x;
                let dy = q.y - p.y;
                acc += wi * (dx * dx + dy * dy).sqrt();
            }
            prop_assert_eq!(
                g.dist(p).to_bits(),
                acc.to_bits(),
                "n={} weighted={}", query.len(), g.is_weighted()
            );
        }
    }

    #[test]
    fn lemma_1_holds_for_any_anchor(
        query in points(10),
        p in point(),
        anchor in point(),
    ) {
        // dist(p,Q) >= n*|p anchor| - dist(anchor,Q) for ANY anchor point.
        let group = QueryGroup::sum(query).unwrap();
        let n = group.len() as f64;
        let lhs = group.dist(p);
        let rhs = n * p.dist(anchor) - group.dist(anchor);
        prop_assert!(lhs >= rhs - 1e-7 * (1.0 + lhs.abs()));
    }

    #[test]
    fn pruning_bounds_are_lower_bounds(
        query in points(10),
        rect in (point(), point()).prop_map(|(a, b)| {
            Rect::from_corners(a.x, a.y, b.x, b.y)
        }),
        inside in (0.0..1.0f64, 0.0..1.0f64),
    ) {
        // The seed's sequential fold and the batched kernel are the same
        // function, bit for bit, for every aggregate (the weights of the
        // weighted SUM are read off the draw's own coordinates).
        let weights: Vec<f64> = query.iter().map(|q| 0.25 + q.y.abs().fract() * 4.0).collect();
        for g in [
            QueryGroup::sum(query.clone()).unwrap(),
            QueryGroup::weighted_sum(query.clone(), weights).unwrap(),
            QueryGroup::with_aggregate(query.clone(), Aggregate::Max).unwrap(),
            QueryGroup::with_aggregate(query.clone(), Aggregate::Min).unwrap(),
        ] {
            prop_assert_eq!(
                g.tight_bound_rect(&rect).to_bits(),
                g.tight_bound_rect_reference(&rect).to_bits(),
                "{} weighted={}: batched vs reference heuristic 3",
                g.aggregate(),
                g.is_weighted()
            );
        }
        // For a point inside the rectangle, cheap <= tight <= exact.
        let group = QueryGroup::sum(query).unwrap();
        let p = Point::new(
            rect.lo.x + inside.0 * rect.width(),
            rect.lo.y + inside.1 * rect.height(),
        );
        let exact = group.dist(p);
        let cheap = group.cheap_bound_rect(&rect);
        let tight = group.tight_bound_rect(&rect);
        prop_assert!(cheap <= tight + 1e-9 * (1.0 + tight.abs()));
        prop_assert!(tight <= exact + 1e-7 * (1.0 + exact.abs()));
        // And the point-level filter bound is also a lower bound.
        prop_assert!(group.cheap_bound_point(p) <= exact + 1e-7 * (1.0 + exact.abs()));
    }

    #[test]
    fn rtree_invariants_hold_under_updates(
        initial in points(120),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..60),
        additions in points(60),
    ) {
        let mut tree = RTree::new(RTreeParams::with_capacity(6));
        let mut live: Vec<LeafEntry> = Vec::new();
        for (i, &p) in initial.iter().enumerate() {
            let e = LeafEntry::new(PointId(i as u64), p);
            tree.insert(e);
            live.push(e);
        }
        for idx in removals {
            if live.is_empty() { break; }
            let e = live.swap_remove(idx.index(live.len()));
            prop_assert!(tree.remove(e.id, e.point));
        }
        for (i, &p) in additions.iter().enumerate() {
            let e = LeafEntry::new(PointId(10_000 + i as u64), p);
            tree.insert(e);
            live.push(e);
        }
        check_invariants(&tree);
        prop_assert_eq!(tree.len(), live.len());
    }

    #[test]
    fn hilbert_roundtrip_and_locality(order in 1u32..12, d in 0u64..4096) {
        let n = 1u64 << order;
        let d = d % (n * n);
        let (x, y) = hilbert::d_to_xy(order, d);
        prop_assert_eq!(hilbert::xy_to_d(order, x, y), d);
        if d + 1 < n * n {
            let (x2, y2) = hilbert::d_to_xy(order, d + 1);
            let manhattan = (i64::from(x2) - i64::from(x)).abs()
                + (i64::from(y2) - i64::from(y)).abs();
            prop_assert_eq!(manhattan, 1);
        }
    }

    #[test]
    fn centroid_solvers_never_beat_the_optimum_claim(
        query in points(20),
    ) {
        // Both solvers produce anchors whose objective is no worse than the
        // arithmetic mean's, and close to each other.
        let group = QueryGroup::sum(query.clone()).unwrap();
        let gd = gradient_descent_centroid(&query, None);
        let wz = weiszfeld_centroid(&query, None);
        let o_gd = group.dist(gd);
        let o_wz = group.dist(wz);
        let scale = o_gd.max(o_wz).max(1e-9);
        prop_assert!((o_gd - o_wz).abs() / scale < 0.05,
            "solvers diverge: gd={} wz={}", o_gd, o_wz);
    }

    #[test]
    fn knn_stream_is_monotone(data in points(150), q in point()) {
        let tree = tree_of(&data);
        let cursor = tree.cursor();
        let mut scratch = gnn::rtree::NnScratch::default();
        let dists: Vec<f64> = gnn::rtree::NearestNeighbors::new_in(&cursor, q, &mut scratch)
            .map(|r| r.dist)
            .collect();
        prop_assert_eq!(dists.len(), data.len());
        for w in dists.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn mbm_stream_is_monotone_and_exact(
        data in points(120),
        query in points(8),
    ) {
        let tree = tree_of(&data);
        let group = QueryGroup::sum(query).unwrap();
        let cursor = tree.cursor();
        let mut scratch = MbmScratch::default();
        let out: Vec<Neighbor> = MbmStream::new_in(&cursor, &group, &mut scratch).collect();
        prop_assert_eq!(out.len(), data.len());
        for w in out.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
        }
        for n in &out {
            prop_assert!((n.dist - group.dist(n.point)).abs() < 1e-9 * (1.0 + n.dist));
        }
    }

    #[test]
    fn closest_pairs_match_brute_force(
        a in points(40),
        b in points(40),
    ) {
        let ta = tree_of(&a);
        let tb = tree_of(&b);
        let ca = ta.cursor();
        let cb = tb.cursor();
        let mut cp = gnn::rtree::ClosestPairs::new(&ca, &cb);
        let mut got = Vec::new();
        while let Some(pair) = cp.next() {
            got.push(pair.dist);
        }
        let mut want: Vec<f64> = a
            .iter()
            .flat_map(|&pa| b.iter().map(move |&pb| pa.dist(pb)))
            .collect();
        want.sort_by(f64::total_cmp);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9 * (1.0 + w.abs()));
        }
    }
}
