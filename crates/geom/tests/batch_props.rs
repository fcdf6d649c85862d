//! Property tests pinning the batched SoA kernels to their scalar oracles.
//!
//! The scalar methods on [`Rect`] / [`Point`] are the reference semantics;
//! every batched kernel must agree **exactly** where it performs the same
//! operations (mindist², dist², folds, sequential weighted sums) —
//! bit-identical agreement is the contract that lets the two query engines
//! compute the same keys. The elementwise and multi-point kernels only have
//! lane-padded entry points, so every input here is padded with poisoned
//! sentinel lanes that must never reach a result.
//!
//! The bounds that promise an inequality instead of bits
//! (`gnn_geom::bound`) have their own harness, `tests/bounds.rs`.

use gnn_geom::batch::{scalar, BatchKernels};
use gnn_geom::{Point, Rect, SimdLevel};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![-100.0..100.0f64, -1.0..1.0f64, 0.0..10_000.0f64,]
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (point(), point()).prop_map(|(a, b)| Rect::from_corners(a.x, a.y, b.x, b.y))
}

fn rects(max: usize) -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(rect(), 1..max)
}

fn points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point(), 1..max)
}

fn soa(rs: &[Rect]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    (
        rs.iter().map(|r| r.lo.x).collect(),
        rs.iter().map(|r| r.lo.y).collect(),
        rs.iter().map(|r| r.hi.x).collect(),
        rs.iter().map(|r| r.hi.y).collect(),
    )
}

fn xy(ps: &[Point]) -> (Vec<f64>, Vec<f64>) {
    (
        ps.iter().map(|p| p.x).collect(),
        ps.iter().map(|p| p.y).collect(),
    )
}

/// Copies `src` and extends it to [`pad_len`](gnn_geom::simd::pad_len)
/// lanes of `poison` — the padded kernel entry points must never let a
/// padding lane influence a real result, whatever bits it holds.
fn poisoned(src: &[f64], poison: f64) -> Vec<f64> {
    let mut v = src.to_vec();
    v.resize(gnn_geom::simd::pad_len(src.len()), poison);
    v
}

/// Padding poison for the properties that pin the dispatched kernels to the
/// [`Rect`] / [`Point`] oracles.
const POISON: f64 = 1e300;

fn bits(out: &[f64]) -> Vec<u64> {
    out.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tentpole contract in one property: every SIMD level the host
    /// can run produces the same bits as the scalar module on every
    /// kernel, with the lane-padded entry points reading inputs whose
    /// padding lanes are poisoned by huge magnitudes or NaN.
    #[test]
    fn every_level_is_bit_identical_and_padding_neutral(
        rs in rects(80),
        ps in points(90),
        qs in points(33),
        m in rect(),
        q in point(),
        poison_idx in 0..2usize,
    ) {
        let poison = [1e300, f64::NAN][poison_idx];
        let (lx, ly, hx, hy) = soa(&rs);
        let (xs, ys) = xy(&ps);
        let (qx, qy) = xy(&qs);
        let w: Vec<f64> = (0..qs.len()).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
        let [lxp, lyp, hxp, hyp] = [&lx, &ly, &hx, &hy].map(|v| poisoned(v, poison));
        let (xsp, ysp) = (poisoned(&xs, poison), poisoned(&ys, poison));
        let nr = rs.len();
        let np = ps.len();

        let mut want = Vec::new();
        let mut got = Vec::new();
        for level in SimdLevel::available_levels() {
            let k = BatchKernels::for_level(level).expect("available");
            let label = level.label();

            scalar::rects_mindist_sq_point(&lx, &ly, &hx, &hy, q, &mut want);
            k.rects_mindist_sq_point_padded(&lxp, &lyp, &hxp, &hyp, nr, q, &mut got);
            prop_assert_eq!(bits(&want), bits(&got), "rects/point {}", label);

            scalar::rects_mindist_sq_rect(&lx, &ly, &hx, &hy, &m, &mut want);
            k.rects_mindist_sq_rect_padded(&lxp, &lyp, &hxp, &hyp, nr, &m, &mut got);
            prop_assert_eq!(bits(&want), bits(&got), "rects/rect {}", label);

            scalar::points_dist_sq(&xs, &ys, q, &mut want);
            k.points_dist_sq_padded(&xsp, &ysp, np, q, &mut got);
            prop_assert_eq!(bits(&want), bits(&got), "points/point {}", label);

            scalar::points_mindist_sq_rect(&xs, &ys, &m, &mut want);
            k.points_mindist_sq_rect_padded(&xsp, &ysp, np, &m, &mut got);
            prop_assert_eq!(bits(&want), bits(&got), "points/rect {}", label);

            scalar::points_weighted_dist_sum_multi(&xs, &ys, &qx, &qy, &w, &mut want);
            k.points_weighted_dist_sum_multi_padded(&xsp, &ysp, np, &qx, &qy, &w, &mut got);
            prop_assert_eq!(bits(&want), bits(&got), "wsum {}", label);

            scalar::points_dist_sq_max_multi(&xs, &ys, &qx, &qy, &mut want);
            k.points_dist_sq_max_multi_padded(&xsp, &ysp, np, &qx, &qy, &mut got);
            prop_assert_eq!(bits(&want), bits(&got), "max {}", label);

            scalar::points_dist_sq_min_multi(&xs, &ys, &qx, &qy, &mut want);
            k.points_dist_sq_min_multi_padded(&xsp, &ysp, np, &qx, &qy, &mut got);
            prop_assert_eq!(bits(&want), bits(&got), "min {}", label);

            // Single-MBR / single-point folds have no padded variant (the
            // fold dimension must stay exact); pin the levels anyway.
            prop_assert_eq!(
                k.rect_weighted_mindist_sum(&m, &qx, &qy, &w).to_bits(),
                scalar::rect_weighted_mindist_sum(&m, &qx, &qy, &w).to_bits(),
                "rect wsum {}", label
            );
            prop_assert_eq!(
                k.rect_mindist_sq_max(&m, &qx, &qy).to_bits(),
                scalar::rect_mindist_sq_max(&m, &qx, &qy).to_bits(),
                "rect max {}", label
            );
            prop_assert_eq!(
                k.rect_mindist_sq_min(&m, &qx, &qy).to_bits(),
                scalar::rect_mindist_sq_min(&m, &qx, &qy).to_bits(),
                "rect min {}", label
            );
            prop_assert_eq!(
                k.point_dist_sq_max(q, &qx, &qy).to_bits(),
                scalar::point_dist_sq_max(q, &qx, &qy).to_bits(),
                "point max {}", label
            );
            prop_assert_eq!(
                k.point_dist_sq_min(q, &qx, &qy).to_bits(),
                scalar::point_dist_sq_min(q, &qx, &qy).to_bits(),
                "point min {}", label
            );
        }
    }

    #[test]
    fn rects_mindist_sq_point_matches_scalar(rs in rects(80), q in point()) {
        let (lx, ly, hx, hy) = soa(&rs);
        let [lx, ly, hx, hy] = [lx, ly, hx, hy].map(|v| poisoned(&v, POISON));
        let mut out = Vec::new();
        BatchKernels::auto().rects_mindist_sq_point_padded(&lx, &ly, &hx, &hy, rs.len(), q, &mut out);
        prop_assert_eq!(out.len(), rs.len());
        for (r, got) in rs.iter().zip(&out) {
            prop_assert_eq!(*got, r.mindist_point_sq(q), "rect {} q {}", r, q);
        }
    }

    #[test]
    fn rects_mindist_sq_rect_matches_scalar(rs in rects(80), m in rect()) {
        let (lx, ly, hx, hy) = soa(&rs);
        let [lx, ly, hx, hy] = [lx, ly, hx, hy].map(|v| poisoned(&v, POISON));
        let mut out = Vec::new();
        BatchKernels::auto().rects_mindist_sq_rect_padded(&lx, &ly, &hx, &hy, rs.len(), &m, &mut out);
        prop_assert_eq!(out.len(), rs.len());
        for (r, got) in rs.iter().zip(&out) {
            prop_assert_eq!(*got, r.mindist_rect_sq(&m), "rect {} m {}", r, m);
        }
    }

    #[test]
    fn points_dist_sq_matches_scalar(ps in points(120), q in point()) {
        let (xs, ys) = xy(&ps);
        let (xs, ys) = (poisoned(&xs, POISON), poisoned(&ys, POISON));
        let mut out = Vec::new();
        BatchKernels::auto().points_dist_sq_padded(&xs, &ys, ps.len(), q, &mut out);
        prop_assert_eq!(out.len(), ps.len());
        for (p, got) in ps.iter().zip(&out) {
            prop_assert_eq!(*got, p.dist_sq(q));
        }
    }

    #[test]
    fn points_mindist_sq_rect_matches_scalar(ps in points(120), m in rect()) {
        let (xs, ys) = xy(&ps);
        let (xs, ys) = (poisoned(&xs, POISON), poisoned(&ys, POISON));
        let mut out = Vec::new();
        BatchKernels::auto().points_mindist_sq_rect_padded(&xs, &ys, ps.len(), &m, &mut out);
        prop_assert_eq!(out.len(), ps.len());
        for (p, got) in ps.iter().zip(&out) {
            prop_assert_eq!(*got, m.mindist_point_sq(*p));
        }
    }

    #[test]
    fn weighted_mindist_sum_is_bit_identical_to_sequential(qs in points(70), m in rect()) {
        let (qx, qy) = xy(&qs);
        let w: Vec<f64> = (0..qs.len()).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
        let want: f64 = qs
            .iter()
            .zip(&w)
            .map(|(q, wi)| wi * m.mindist_point(*q))
            .sum();
        let got = BatchKernels::auto().rect_weighted_mindist_sum(&m, &qx, &qy, &w);
        prop_assert_eq!(got, want, "sequential fold must be bit-identical");
    }

    #[test]
    fn fold_kernels_match_scalar_folds(qs in points(70), m in rect(), p in point()) {
        let (qx, qy) = xy(&qs);
        let k = BatchKernels::auto();
        let rect_d2: Vec<f64> = qs.iter().map(|q| m.mindist_point_sq(*q)).collect();
        let pt_d2: Vec<f64> = qs.iter().map(|q| p.dist_sq(*q)).collect();
        prop_assert_eq!(
            k.rect_mindist_sq_max(&m, &qx, &qy),
            rect_d2.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        prop_assert_eq!(
            k.rect_mindist_sq_min(&m, &qx, &qy),
            rect_d2.iter().copied().fold(f64::INFINITY, f64::min)
        );
        prop_assert_eq!(
            k.point_dist_sq_max(p, &qx, &qy),
            pt_d2.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        prop_assert_eq!(
            k.point_dist_sq_min(p, &qx, &qy),
            pt_d2.iter().copied().fold(f64::INFINITY, f64::min)
        );
    }

    #[test]
    fn multi_point_kernels_are_bit_identical_to_sequential(
        ps in points(40),
        qs in points(40),
    ) {
        // The conversion kernels must match the one-point-at-a-time
        // sequential fold EXACTLY (not just within tolerance): the packed
        // engine's results must be indistinguishable from the reference
        // engine's.
        let (xs, ys) = xy(&ps);
        let (xs, ys) = (poisoned(&xs, POISON), poisoned(&ys, POISON));
        let (qx, qy) = xy(&qs);
        let w: Vec<f64> = (0..qs.len()).map(|i| 0.5 + (i % 5) as f64).collect();
        let k = BatchKernels::auto();
        let mut out = Vec::new();
        k.points_weighted_dist_sum_multi_padded(&xs, &ys, ps.len(), &qx, &qy, &w, &mut out);
        prop_assert_eq!(out.len(), ps.len());
        for (j, p) in ps.iter().enumerate() {
            let mut acc = 0.0;
            for i in 0..qs.len() {
                let dx = qx[i] - p.x;
                let dy = qy[i] - p.y;
                acc += w[i] * (dx * dx + dy * dy).sqrt();
            }
            prop_assert_eq!(out[j], acc, "sum j={}", j);
        }
        k.points_dist_sq_max_multi_padded(&xs, &ys, ps.len(), &qx, &qy, &mut out);
        for (j, p) in ps.iter().enumerate() {
            let want = qs
                .iter()
                .map(|q| p.dist_sq(*q))
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(out[j], want, "max j={}", j);
        }
        k.points_dist_sq_min_multi_padded(&xs, &ys, ps.len(), &qx, &qy, &mut out);
        for (j, p) in ps.iter().enumerate() {
            let want = qs
                .iter()
                .map(|q| p.dist_sq(*q))
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(out[j], want, "min j={}", j);
        }
    }
}
