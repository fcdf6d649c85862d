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
//! One kernel promises an inequality instead of bits — the rounded-down
//! `f32` lower bound of the weighted SUM — and its contract is swept at the
//! end of this file: sound at every magnitude, tight where `f32` is normal.

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

/// `w` narrowed to `f32` toward zero — what a caller holding `f64` weights
/// feeds the lower-bound kernel, whose contract is stated against
/// `f64::from` of the weights it is given.
fn narrow_down(w: f64) -> f32 {
    let f = w as f32;
    if f64::from(f) > w {
        f32::from_bits(f.to_bits() - 1)
    } else {
        f
    }
}

/// Splitmix-style generator: the sweep below is a fixed list of cases, not
/// a search, and must not depend on the proptest stand-in's stream.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The contract of `points_weighted_dist_sum_lower_padded`, element by
/// element: `lower <= exact` or `lower` is not finite (soundness, at every
/// magnitude `f64` holds), `lower >= exact·(1 − 2ρ) − α` where `f32` neither
/// overflows nor goes subnormal (tightness — a margin grown until it
/// filters nothing must fail here), padding lanes inert, and no kernel at
/// all below AVX2.
#[test]
fn f32_lower_bound_is_sound_at_every_scale_and_tight_on_the_normal_range() {
    let group_sizes = (1..=17).chain([33, 256, 1000]);
    let entry_counts: Vec<usize> = (0..=17).chain([33, 56]).collect();
    let scales = [0, 40, -40, 80, -80, 127, -127, 200, -200, 500, -500];
    let mut rng = Lcg(22);
    let mut checked = 0u64;
    let mut filtered_nothing = 0u64;
    for n in group_sizes {
        // One clustered group per size, and three weightings of it: none,
        // everyday, and sixty-odd orders of magnitude either side of one
        // (most of which leave `f32` — downwards to zero, upwards to MAX).
        let qs: Vec<(f64, f64)> = (0..n)
            .map(|_| (20.0 + rng.unit() * 30.0, -10.0 + rng.unit() * 30.0))
            .collect();
        let weightings: [Vec<f64>; 3] = [
            vec![1.0; n],
            (0..n).map(|_| 0.1 + rng.unit() * 9.9).collect(),
            (0..n)
                .map(|_| 10f64.powf(-300.0 + rng.unit() * 600.0))
                .collect(),
        ];
        for &m in &entry_counts {
            // Entries over and around the group; entry 0 sits on a query
            // point, so one pair is exactly zero.
            let mut ps: Vec<(f64, f64)> = (0..m)
                .map(|_| (-100.0 + rng.unit() * 200.0, -100.0 + rng.unit() * 200.0))
                .collect();
            if let Some(first) = ps.first_mut() {
                *first = qs[n / 2];
            }
            for &e in &scales {
                let scale = 2f64.powi(e);
                let (qx, qy): (Vec<f64>, Vec<f64>) =
                    qs.iter().map(|&(x, y)| (x * scale, y * scale)).unzip();
                let (xs, ys): (Vec<f64>, Vec<f64>) =
                    ps.iter().map(|&(x, y)| (x * scale, y * scale)).unzip();
                for (which, w) in weightings.iter().enumerate() {
                    let wf: Vec<f32> = w.iter().map(|&v| narrow_down(v)).collect();
                    let mut exact = Vec::new();
                    scalar::points_weighted_dist_sum_multi(&xs, &ys, &qx, &qy, w, &mut exact);

                    for level in SimdLevel::available_levels() {
                        let k = BatchKernels::for_level(level).unwrap();
                        let mut lower = vec![f64::NAN; 3];
                        let ran = k.points_weighted_dist_sum_lower_padded(
                            &poisoned(&xs, POISON),
                            &poisoned(&ys, -POISON),
                            m,
                            &qx,
                            &qy,
                            &wf,
                            &mut lower,
                        );
                        assert_eq!(ran, level == SimdLevel::Avx2Fma, "{level:?}");
                        if !ran {
                            assert!(lower.is_empty(), "{level:?} wrote without a kernel");
                            continue;
                        }
                        assert_eq!(lower.len(), m);
                        let what = format!("n={n} m={m} 2^{e} weighting {which}");

                        // Padding lanes are inert, whatever they hold.
                        for poison in [0.0, f64::NAN, f64::INFINITY] {
                            let mut again = Vec::new();
                            k.points_weighted_dist_sum_lower_padded(
                                &poisoned(&xs, poison),
                                &poisoned(&ys, poison),
                                m,
                                &qx,
                                &qy,
                                &wf,
                                &mut again,
                            );
                            assert_eq!(bits(&lower), bits(&again), "{what}: padding {poison}");
                        }

                        let wsum: f64 = wf.iter().map(|&v| f64::from(v)).sum();
                        let rho = (n as f64 + 16.0) * 2f64.powi(-23);
                        let alpha = wsum * 2f64.powi(-73) + n as f64 * 2f64.powi(-149);
                        for j in 0..m {
                            checked += 1;
                            assert!(
                                !lower[j].is_finite() || lower[j] <= exact[j],
                                "{what} j={j}: lower {:e} above exact {:e}",
                                lower[j],
                                exact[j]
                            );
                            // `f32` holds every difference, square and
                            // product of these cases in its normal range.
                            if which < 2 && e.abs() <= 40 {
                                assert!(
                                    lower[j] >= exact[j] * (1.0 - 2.0 * rho) - alpha,
                                    "{what} j={j}: lower {:e} too far below exact {:e}",
                                    lower[j],
                                    exact[j]
                                );
                            } else if lower[j] <= 0.0 || !lower[j].is_finite() {
                                filtered_nothing += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    if SimdLevel::Avx2Fma.is_available() {
        assert!(checked > 150_000, "the sweep shrank: {checked}");
        assert!(
            filtered_nothing > checked / 4,
            "the extreme scales never left f32's range: {filtered_nothing} of {checked}"
        );
    }
}
