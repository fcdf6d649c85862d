//! One soundness harness for the rounded-down bounds of `gnn_geom::bound`.
//!
//! Every bound there must never exceed the value it stands for. Both run
//! over one grid of query groups — scales `2^{0, ±40, ±80, ±127, ±200,
//! ±500}`, sizes 1–17, 32, 33, 256 and 1000, six weightings from unit to
//! `10^±300`, and three layouts (spread, coincident, far from the origin) —
//! on every [`SimdLevel`] the host can run:
//!
//! * [`CentroidBound`] against the tight heuristic-3 sum of the same level,
//!   over rects around, through and far from each group, down to points
//!   and segments: `0 <= key <= tight`.
//! * [`LeafBound`] against the exact `f64` sum over pages of `m ∈ 0..=17`,
//!   33 and 56 entries whose padding lanes are poisoned: `lower <= exact`
//!   or `lower` not finite (soundness at every magnitude), `lower >=
//!   exact·(1 − 2ρ) − α` where `f32` neither overflows nor goes subnormal
//!   (tightness — a margin grown until it filters nothing fails here),
//!   padding lanes inert, and no bound at all below AVX2. The page sizes
//!   are the lane-boundary sweep of the one `unsafe` call behind it.
//!
//! Hand mutations of the margins, each alone in a scratch copy, and the
//! case each fails first (AVX2 host; optimised build):
//!
//! * centroid `ρ = 0`: "2^0 n=2 weights 1e-300 Coincident: across";
//! * centroid `e` without its `μ` term: "2^0 n=1 weights 1e±300
//!   Coincident: at c_w", and with the two `c_w` families skipped, "2^0
//!   n=1 weights 1e±300 Far: affine" (by 4·10⁻⁴ of the key);
//! * centroid `t = 0`: "2^-80 n=2 weights 1e-300 Spread: point rect";
//! * leaf `ρ = 0`: "2^0 n=1 weights unit Spread: page m=2" (soundness);
//! * leaf `α = 0`: "2^-80 n=1 weights unit Spread: page m=2" (soundness);
//! * leaf `ρ` doubled: "2^0 n=1 weights unit Spread: page m=3"
//!   (tightness).

use gnn_geom::batch::{scalar, BatchKernels};
use gnn_geom::bound::{CentroidBound, LeafBound};
use gnn_geom::simd::pad_len;
use gnn_geom::{Point, Rect, SimdLevel};

/// Splitmix-style generator: the grid is a fixed list of cases, not a
/// search, and must not depend on the proptest stand-in's stream.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

const SCALES: [i32; 11] = [0, 40, -40, 80, -80, 127, -127, 200, -200, 500, -500];
const GROUP_SIZES: [usize; 21] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 33, 256, 1000,
];
const PAGE_SIZES: [usize; 20] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33, 56,
];
/// Unit, everyday, and five to six hundred orders of magnitude either side
/// of one (most of which leave `f32` — downwards to zero, upwards to MAX).
const WEIGHTINGS: [&str; 6] = ["unit", "0.1–10", "1e-300", "1e300", "1e±300", "10^±300"];

fn weights(label: &str, n: usize, rng: &mut Lcg) -> Vec<f64> {
    (0..n)
        .map(|i| match label {
            "unit" => 1.0,
            "0.1–10" => rng.range(0.1, 10.0),
            "1e-300" => rng.range(1e-300, 2e-300),
            "1e300" => rng.range(1e300, 2e300),
            "1e±300" if i % 2 == 0 => 1e-300,
            "1e±300" => 1e300,
            _ => 10f64.powf(rng.range(-300.0, 300.0)),
        })
        .collect()
}

/// Where a group's members sit, at scale `s`.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Members anywhere in `[-5, 5]²·s`.
    Spread,
    /// Every member on one point: Jensen holds with equality across `x`.
    Coincident,
    /// `2⁴⁰·s` out along `x`: the rounded centroid is off by ulps of
    /// `2⁴⁰·s`, an absolute error far above the key's relative one.
    Far,
}

/// One query group of the grid, as the bounds take it.
struct Group {
    what: String,
    /// The scale's exponent.
    e: i32,
    weighting: &'static str,
    layout: Layout,
    qx: Vec<f64>,
    qy: Vec<f64>,
    w: Vec<f64>,
    total: f64,
    mbr: Rect,
}

impl Group {
    fn new(e: i32, weighting: &'static str, layout: Layout, pts: Vec<Point>, w: Vec<f64>) -> Self {
        Group {
            what: format!("2^{e} n={} weights {weighting} {layout:?}", pts.len()),
            e,
            weighting,
            layout,
            qx: pts.iter().map(|p| p.x).collect(),
            qy: pts.iter().map(|p| p.y).collect(),
            total: w.iter().sum(),
            mbr: Rect::bounding(pts.iter().copied()).expect("non-empty"),
            w,
        }
    }

    fn centroid(&self) -> CentroidBound {
        CentroidBound::new(&self.qx, &self.qy, &self.w, self.total, &self.mbr)
            .expect("every grid weighting sums to a normal total")
    }
}

/// Calls `visit` on every group of the grid, in one fixed order.
fn grid(mut visit: impl FnMut(&Group)) {
    let mut rng = Lcg(1309_1807);
    for e in SCALES {
        let s = 2f64.powi(e);
        for n in GROUP_SIZES {
            for label in WEIGHTINGS {
                for layout in [Layout::Spread, Layout::Coincident, Layout::Far] {
                    let pts: Vec<Point> = match layout {
                        Layout::Spread => (0..n)
                            .map(|_| Point::new(rng.range(-5.0, 5.0) * s, rng.range(-5.0, 5.0) * s))
                            .collect(),
                        Layout::Coincident => {
                            let q = Point::new(rng.range(-5.0, 5.0) * s, rng.range(-5.0, 5.0) * s);
                            vec![q; n]
                        }
                        Layout::Far => (0..n)
                            .map(|_| {
                                Point::new(
                                    (2f64.powi(40) + rng.unit()) * s,
                                    rng.range(-1.0, 1.0) * s,
                                )
                            })
                            .collect(),
                    };
                    let w = weights(label, n, &mut rng);
                    visit(&Group::new(e, label, layout, pts, w));
                }
            }
        }
    }
}

/// The rects a centroid key is checked on, named: around a spread group,
/// through its centroid, down to points and segments; straight across a
/// coincident group (only ρ separates the one-term key from an `n`-term sum
/// that rounded down); a hair beyond a far group (`mindist` affine over the
/// group, only `e`'s μ term covers the centroid's absolute error).
fn rects(g: &Group, rng: &mut Lcg) -> Vec<(Rect, &'static str)> {
    let s = 2f64.powi(g.e);
    let mut out = Vec::new();
    match g.layout {
        Layout::Spread => {
            let c = g.centroid().centre();
            out.push((
                Rect::from_corners(c.x - s, c.y - s, c.x + s, c.y + s),
                "holds c_w",
            ));
            for _ in 0..8 {
                let (x, y) = (rng.range(-40.0, 40.0) * s, rng.range(-40.0, 40.0) * s);
                let (w, h) = (rng.range(0.0, 8.0) * s, rng.range(0.0, 8.0) * s);
                out.push((Rect::from_corners(x, y, x + w, y + h), "random rect"));
                out.push((Rect::from_corners(x, y, x, y), "point rect"));
                out.push((Rect::from_corners(x, y, x + w, y), "segment rect"));
                out.push((Rect::from_corners(x, y, x, y + h), "segment rect"));
            }
        }
        Layout::Coincident => {
            let (qx, qy) = (g.qx[0], g.qy[0]);
            for _ in 0..8 {
                let x = qx + rng.range(0.5, 1e3) * s;
                out.push((Rect::from_corners(x, qy - s, x + s, qy + s), "across"));
            }
            out.push((Rect::from_corners(qx, qy, qx, qy), "at c_w"));
        }
        Layout::Far => {
            for _ in 0..8 {
                let x = (2f64.powi(40) + 1.0 + rng.range(0.0, 1e-3)) * s;
                out.push((Rect::from_corners(x, -4.0 * s, x + s, 4.0 * s), "affine"));
            }
        }
    }
    out
}

/// `m` page entries around the group; entry 0 sits on a member, so one
/// pair is exactly zero.
fn page(g: &Group, m: usize, rng: &mut Lcg) -> (Vec<f64>, Vec<f64>) {
    let s = 2f64.powi(g.e);
    (0..m)
        .map(|j| match (j, g.layout) {
            (0, _) => (g.qx[g.qx.len() / 2], g.qy[g.qy.len() / 2]),
            (_, Layout::Far) => (
                (2f64.powi(40) + rng.range(-2.0, 3.0)) * s,
                rng.range(-4.0, 4.0) * s,
            ),
            _ => (
                g.qx[0] + rng.range(-40.0, 40.0) * s,
                g.qy[0] + rng.range(-40.0, 40.0) * s,
            ),
        })
        .unzip()
}

/// Copies `src` and extends it to [`pad_len`] lanes of `poison`.
fn poisoned(src: &[f64], poison: f64) -> Vec<f64> {
    let mut v = src.to_vec();
    v.resize(pad_len(src.len()), poison);
    v
}

fn bits(out: &[f64]) -> Vec<u64> {
    out.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn centroid_key_never_exceeds_the_tight_bound_on_the_grid() {
    let levels = SimdLevel::available_levels();
    let mut rng = Lcg(28);
    let (mut keys, mut positive) = (0u64, 0u64);
    grid(|g| {
        // The key through each level's batched `mindist²` (as the search
        // computes it) against the tight sum through that level's fold.
        let cb = g.centroid();
        for (rect, family) in rects(g, &mut rng) {
            for &level in &levels {
                let k = BatchKernels::for_level(level).unwrap();
                let pad = pad_len(1);
                let (lx, ly) = (vec![rect.lo.x; pad], vec![rect.lo.y; pad]);
                let (hx, hy) = (vec![rect.hi.x; pad], vec![rect.hi.y; pad]);
                let mut sq = Vec::new();
                k.rects_mindist_sq_point_padded(&lx, &ly, &hx, &hy, 1, cb.centre(), &mut sq);
                let key = cb.key_from_sq(sq[0]);
                let tight = k.rect_weighted_mindist_sum(&rect, &g.qx, &g.qy, &g.w);
                assert!(
                    key >= 0.0 && key <= tight,
                    "{}: {family} on {level:?}: centroid key {key:e} above tight {tight:e} \
                     (rect {rect:?})",
                    g.what
                );
                keys += 1;
                positive += u64::from(key > 0.0);
            }
        }
    });
    // Most keys are real bounds, not the clamp at zero.
    assert!(positive * 2 > keys, "{positive} positive keys of {keys}");
}

#[test]
fn leaf_bound_is_sound_on_the_grid_and_tight_on_f32s_normal_range() {
    let levels = SimdLevel::available_levels();
    let mut rng = Lcg(22);
    let (mut lanes, mut filtered_nothing) = (0u64, 0u64);
    grid(|g| {
        let n = g.qx.len();
        for &level in &levels {
            let k = BatchKernels::for_level(level).unwrap();
            let mut buf = vec![7.0f32];
            let Some(bound) = LeafBound::new(k, &g.qx, &g.qy, &g.w, &mut buf) else {
                assert_ne!(level, SimdLevel::Avx2Fma, "no leaf bound at AVX2");
                assert_eq!(buf, [7.0], "{level:?} touched the buffer without a bound");
                continue;
            };
            assert_eq!(level, SimdLevel::Avx2Fma, "a leaf bound below AVX2");
            let wf = bound.weights();
            assert_eq!(wf.len(), n);
            for (&f, &w) in wf.iter().zip(&g.w) {
                assert!(
                    f.is_finite() && f64::from(f) <= w,
                    "{}: {f:e} vs {w:e}",
                    g.what
                );
            }
            let wsum: f64 = wf.iter().map(|&v| f64::from(v)).sum();
            let rho = (n as f64 + 16.0) * 2f64.powi(-23);
            let alpha = wsum * 2f64.powi(-73) + n as f64 * 2f64.powi(-149);
            // `f32` holds every difference, square and product of these
            // cases in its normal range.
            let normal = matches!(g.weighting, "unit" | "0.1–10") && g.e.abs() <= 40;
            // The whole lane-boundary sweep beside a spread group; the
            // other layouts probe the arithmetic, not the lanes.
            let sizes: &[usize] = match g.layout {
                Layout::Spread => &PAGE_SIZES,
                Layout::Coincident | Layout::Far => &[0, 1, 8, 9, 17, 33],
            };
            for &m in sizes {
                let what = format!("{}: page m={m}", g.what);
                let (xs, ys) = page(g, m, &mut rng);
                let mut exact = Vec::new();
                scalar::points_weighted_dist_sum_multi(&xs, &ys, &g.qx, &g.qy, &g.w, &mut exact);
                let mut lower = vec![f64::NAN; 3];
                bound.lower_padded(&poisoned(&xs, 1e300), &poisoned(&ys, -1e300), m, &mut lower);
                assert_eq!(lower.len(), m);
                // Padding lanes are inert, whatever they hold.
                for poison in [0.0, f64::NAN, f64::INFINITY] {
                    let mut again = Vec::new();
                    bound.lower_padded(
                        &poisoned(&xs, poison),
                        &poisoned(&ys, poison),
                        m,
                        &mut again,
                    );
                    assert_eq!(bits(&lower), bits(&again), "{what}: padding {poison}");
                }
                for j in 0..m {
                    lanes += 1;
                    assert!(
                        !lower[j].is_finite() || lower[j] <= exact[j],
                        "{what} j={j}: lower {:e} above exact {:e}",
                        lower[j],
                        exact[j]
                    );
                    if normal {
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
    });
    if SimdLevel::Avx2Fma.is_available() {
        assert!(lanes > 150_000, "the sweep shrank: {lanes}");
        assert!(
            filtered_nothing > lanes / 4,
            "the extreme scales never left f32's range: {filtered_nothing} of {lanes}"
        );
    }
}

#[test]
fn leaf_bound_narrows_every_weight_toward_zero() {
    let w = [1.0, 0.1, 1e-300, 1e300, 3.5e38, 1e-45, 16_777_217.0];
    let q = [0.0; 7];
    for level in SimdLevel::available_levels() {
        let k = BatchKernels::for_level(level).unwrap();
        let mut buf = Vec::new();
        let Some(bound) = LeafBound::new(k, &q, &q, &w, &mut buf) else {
            assert_eq!(level, SimdLevel::Scalar);
            continue;
        };
        let narrow = bound.weights();
        assert_eq!(narrow.len(), w.len());
        for (&f, &w) in narrow.iter().zip(&w) {
            // Toward zero, and by less than one f32 step where f32 holds
            // the weight at all.
            assert!(f.is_finite() && f64::from(f) <= w, "{f:e} vs {w:e}");
            if (1e-37..1e38).contains(&w) {
                assert!(f64::from(f) >= w * (1.0 - 2f64.powi(-23)), "{f:e} vs {w:e}");
            }
        }
        assert_eq!(narrow[0], 1.0);
        assert_eq!(narrow[2], 0.0);
        assert_eq!(narrow[3], f32::MAX);
        assert_eq!(narrow[6], 16_777_216.0);
    }
}

#[test]
fn no_centroid_bound_without_a_normal_total_weight() {
    let (q, w) = ([1.0, 2.0], [1.0, 1.0]);
    let m = Rect::from_corners(1.0, 1.0, 2.0, 2.0);
    assert!(CentroidBound::new(&q, &q, &w, 2.0, &m).is_some());
    for total in [0.0, 1e-310, f64::INFINITY, f64::NAN, 1.7e308] {
        assert!(
            CentroidBound::new(&q, &q, &w, total, &m).is_none(),
            "{total:e}"
        );
    }
}
