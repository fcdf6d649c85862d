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
//! Beside the random-size properties, one deterministic sweep runs every
//! kernel at each ragged size around the lane blocks, a second runs the
//! exact SUM distance of one point across magnitudes, weights and
//! non-finite coordinates, and one `#[should_panic]` test per padded entry
//! pins the length check that guards its `unsafe` kernel: a slice one lane
//! short of `pad_len(n)` is refused before any lane is read (and a short
//! `qy` or `w` before the exact SUM's).
//!
//! The bounds that promise an inequality instead of bits
//! (`gnn_geom::bound`) have their own harness, `tests/bounds.rs`.

use gnn_geom::batch::{scalar, BatchKernels};
use gnn_geom::simd::{pad_len, LANE_COUNT};
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

/// Copies `src` and extends it to [`pad_len`] lanes of `poison` — the
/// padded kernel entry points must never let a padding lane influence a
/// real result, whatever bits it holds.
fn poisoned(src: &[f64], poison: f64) -> Vec<f64> {
    let mut v = src.to_vec();
    v.resize(pad_len(src.len()), poison);
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
                k.point_weighted_dist_sum(q, &qx, &qy, &w).to_bits(),
                scalar::point_weighted_dist_sum(q, &qx, &qy, &w).to_bits(),
                "point wsum {}", label
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

/// Every kernel on every level the host can run, at every ragged size
/// around the lane blocks (`0..=2 * LANE_COUNT + 1`) and one well past
/// them, with padding lanes poisoned by a huge magnitude and by NaN: the
/// output holds the scalar module's bits.
#[test]
fn every_available_level_matches_the_scalar_oracle_bitwise() {
    for n in (0..=2 * LANE_COUNT + 1).chain([33]) {
        let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 50.0).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).cos() * 50.0).collect();
        let qn = 5;
        let qx: Vec<f64> = (0..qn).map(|i| i as f64 * 3.3 - 6.0).collect();
        let qy: Vec<f64> = (0..qn).map(|i| 4.0 - i as f64 * 2.1).collect();
        let w: Vec<f64> = (0..qn).map(|i| 0.25 + i as f64 * 0.5).collect();
        let q = Point::new(1.5, -2.5);
        let m = Rect::from_corners(-3.0, -3.0, 3.0, 3.0);
        let (mut want, mut got) = (Vec::new(), Vec::new());

        for poison in [1e300, f64::NAN] {
            let (xp, yp) = (poisoned(&xs, poison), poisoned(&ys, -poison));
            for level in SimdLevel::available_levels() {
                let k = BatchKernels::for_level(level).expect("available");
                let at = format!("n={n} poison={poison} level={}", level.label());

                scalar::points_dist_sq(&xs, &ys, q, &mut want);
                k.points_dist_sq_padded(&xp, &yp, n, q, &mut got);
                assert_eq!(bits(&want), bits(&got), "points_dist_sq {at}");

                scalar::rects_mindist_sq_point(&xs, &ys, &xs, &ys, q, &mut want);
                k.rects_mindist_sq_point_padded(&xp, &yp, &xp, &yp, n, q, &mut got);
                assert_eq!(bits(&want), bits(&got), "rects_mindist_sq_point {at}");

                scalar::rects_mindist_sq_rect(&xs, &ys, &xs, &ys, &m, &mut want);
                k.rects_mindist_sq_rect_padded(&xp, &yp, &xp, &yp, n, &m, &mut got);
                assert_eq!(bits(&want), bits(&got), "rects_mindist_sq_rect {at}");

                scalar::points_weighted_dist_sum_multi(&xs, &ys, &qx, &qy, &w, &mut want);
                k.points_weighted_dist_sum_multi_padded(&xp, &yp, n, &qx, &qy, &w, &mut got);
                assert_eq!(bits(&want), bits(&got), "wsum_multi {at}");

                scalar::points_dist_sq_max_multi(&xs, &ys, &qx, &qy, &mut want);
                k.points_dist_sq_max_multi_padded(&xp, &yp, n, &qx, &qy, &mut got);
                assert_eq!(bits(&want), bits(&got), "max_multi {at}");

                scalar::points_dist_sq_min_multi(&xs, &ys, &qx, &qy, &mut want);
                k.points_dist_sq_min_multi_padded(&xp, &yp, n, &qx, &qy, &mut got);
                assert_eq!(bits(&want), bits(&got), "min_multi {at}");

                // The group-dimension folds take exact slices: `xs`/`ys`
                // double as a ragged query group here.
                if n > 0 {
                    assert_eq!(
                        scalar::rect_weighted_mindist_sum(&m, &xs, &ys, &xs).to_bits(),
                        k.rect_weighted_mindist_sum(&m, &xs, &ys, &xs).to_bits(),
                        "rect_wsum {at}"
                    );
                }
                assert_eq!(
                    scalar::rect_mindist_sq_max(&m, &xs, &ys).to_bits(),
                    k.rect_mindist_sq_max(&m, &xs, &ys).to_bits(),
                    "rect_max {at}"
                );
                assert_eq!(
                    scalar::rect_mindist_sq_min(&m, &xs, &ys).to_bits(),
                    k.rect_mindist_sq_min(&m, &xs, &ys).to_bits(),
                    "rect_min {at}"
                );
                assert_eq!(
                    scalar::point_dist_sq_max(q, &xs, &ys).to_bits(),
                    k.point_dist_sq_max(q, &xs, &ys).to_bits(),
                    "point_max {at}"
                );
                assert_eq!(
                    scalar::point_dist_sq_min(q, &xs, &ys).to_bits(),
                    k.point_dist_sq_min(q, &xs, &ys).to_bits(),
                    "point_min {at}"
                );
            }
        }
    }
}

/// The exact SUM distance of one point on every level the host can run, at
/// every ragged size around the four-lane blocks (0..=17), at 33 and at the
/// benchmark's 256 members; with zero, unit and `10^±300` weights; with
/// coordinates at `2^{0, ±80, ±500}` and with a NaN or an infinity among
/// them: the result holds the scalar fold's bits.
#[test]
fn point_weighted_dist_sum_matches_the_scalar_fold_bitwise() {
    let mut checked = 0;
    for n in (0..=17).chain([33, 256]) {
        for e in [0, 80, -80, 500, -500] {
            let s = 2f64.powi(e);
            for poison in [None, Some(f64::NAN), Some(f64::INFINITY)] {
                let mut qx: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin() * 50.0 * s).collect();
                let qy: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() * 50.0 * s).collect();
                if let (Some(v), true) = (poison, n > 0) {
                    qx[n / 2] = v;
                }
                let p = Point::new(3.25 * s, -1.5 * s);
                for weighting in ["zero", "unit", "10^±300"] {
                    let w: Vec<f64> = (0..n)
                        .map(|i| match weighting {
                            "zero" => 0.0,
                            "unit" => 1.0,
                            _ => 10f64.powi(if i % 2 == 0 { 300 } else { -300 }),
                        })
                        .collect();
                    let want = scalar::point_weighted_dist_sum(p, &qx, &qy, &w);
                    for level in SimdLevel::available_levels() {
                        let k = BatchKernels::for_level(level).expect("available");
                        let got = k.point_weighted_dist_sum(p, &qx, &qy, &w);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "n={n} 2^{e} poison={poison:?} weights {weighting} level={}: \
                             {got:e} vs {want:e}",
                            level.label()
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked >= 20 * 5 * 3 * 3, "the sweep shrank: {checked}");
}

/// The short-slice tests below: `SHORT_N` logical elements with one lane
/// fewer than `pad_len(SHORT_N)`. The slice still covers `SHORT_N`, so only
/// the padding check can refuse it — on the best level the host runs,
/// whose kernel would otherwise read past the slice.
const SHORT_N: usize = LANE_COUNT + 1;

fn best_level() -> BatchKernels {
    let level = *SimdLevel::available_levels().last().expect("scalar");
    BatchKernels::for_level(level).expect("available")
}

fn short() -> Vec<f64> {
    vec![0.0; pad_len(SHORT_N) - 1]
}

fn full() -> Vec<f64> {
    vec![0.0; pad_len(SHORT_N)]
}

#[test]
#[should_panic(expected = "len() >= p")]
fn rects_mindist_sq_point_padded_refuses_a_short_slice() {
    let (f, s) = (full(), short());
    best_level().rects_mindist_sq_point_padded(
        &f,
        &f,
        &f,
        &s,
        SHORT_N,
        Point::ORIGIN,
        &mut Vec::new(),
    );
}

#[test]
#[should_panic(expected = "len() >= p")]
fn rects_mindist_sq_rect_padded_refuses_a_short_slice() {
    let (f, s) = (full(), short());
    let m = Rect::from_corners(0.0, 0.0, 1.0, 1.0);
    best_level().rects_mindist_sq_rect_padded(&s, &f, &f, &f, SHORT_N, &m, &mut Vec::new());
}

#[test]
#[should_panic(expected = "len() >= p")]
fn points_dist_sq_padded_refuses_a_short_slice() {
    let (f, s) = (full(), short());
    best_level().points_dist_sq_padded(&f, &s, SHORT_N, Point::ORIGIN, &mut Vec::new());
}

#[test]
#[should_panic(expected = "len() >= p")]
fn points_weighted_dist_sum_multi_padded_refuses_a_short_slice() {
    let (f, s) = (full(), short());
    let q = [1.0; 3];
    best_level().points_weighted_dist_sum_multi_padded(
        &s,
        &f,
        SHORT_N,
        &q,
        &q,
        &q,
        &mut Vec::new(),
    );
}

#[test]
#[should_panic(expected = "len() >= p")]
fn points_dist_sq_max_multi_padded_refuses_a_short_slice() {
    let (f, s) = (full(), short());
    let q = [1.0; 3];
    best_level().points_dist_sq_max_multi_padded(&f, &s, SHORT_N, &q, &q, &mut Vec::new());
}

#[test]
#[should_panic(expected = "len() >= p")]
fn points_dist_sq_min_multi_padded_refuses_a_short_slice() {
    let (f, s) = (full(), short());
    let q = [1.0; 3];
    best_level().points_dist_sq_min_multi_padded(&s, &f, SHORT_N, &q, &q, &mut Vec::new());
}

#[test]
#[should_panic(expected = "w.len() == n")]
fn point_weighted_dist_sum_refuses_a_short_y_slice() {
    let (f, s) = (full(), short());
    best_level().point_weighted_dist_sum(Point::ORIGIN, &f, &s, &f);
}

#[test]
#[should_panic(expected = "w.len() == n")]
fn point_weighted_dist_sum_refuses_a_short_weight_slice() {
    let (f, s) = (full(), short());
    best_level().point_weighted_dist_sum(Point::ORIGIN, &f, &f, &s);
}
