//! One soundness harness for the rounded-down bounds of `gnn_geom::bound`.
//!
//! Every bound there must never exceed the value it stands for. The four
//! SUM bounds run over one grid of query groups — scales `2^{0, ±40, ±80,
//! ±127, ±200, ±500}`, sizes 1–17, 32, 33, 256 and 1000, six weightings
//! from unit to `10^±300`, and three layouts (spread, coincident, far from
//! the origin) — on every [`SimdLevel`] the host can run:
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
//!   are the lane-boundary sweep of its safe AVX2 kernel, which CI also
//!   runs here under AddressSanitizer.
//! * [`BlockBound`] against the exact `f64` sum over the same pages, on
//!   every level, at both widths: `lower <= exact` or `lower` not finite,
//!   padding lanes inert, at most `⌈n^¼⌉²` blocks, and the `f32` width
//!   exactly on AVX2 inside the scale rule (`μ` and `W` in `[2⁻⁴⁸, 2⁴⁸]`);
//!   on a coincident group (one block, Jensen with equality) `lower >=
//!   exact·(1 − 1.5ρ) − 1.5·F` wherever the exact sum is finite at the
//!   `f64` width — on Scalar and on AVX2's blind-scale fallback — and
//!   `lower >= exact·(1 − 1.5ρ)(1 − 2ρ₃₂) − 1.5·F − α` at the `f32` width
//!   inside `f32`'s normal range (tightness; the `f64` form fails there by
//!   design, by `ρ₃₂ = 17·2⁻²³` at one block); positive off the member on
//!   spread pages in `f64`'s normal range; and sound on a hair page of
//!   entries `2⁻⁶⁰…2⁻⁸³` off a coincident group's member, where `f32`'s
//!   squares go subnormal.
//! * [`PlaneBound`] against the computed `dist(p, Q)` of each level's
//!   one-point fold (what `QueryGroup::dist` runs) at the corners, the
//!   centre and random points of rects around, through and far from each
//!   group, down to points and segments, and of rects centred on a member
//!   (skipped members): `lower <= exact` or `lower = −∞`. On a rect of
//!   `2⁻³⁰` of its distance from a group in `f64`'s normal range the plane
//!   is tight to second order, and `lower` is within `1.5` margins and that
//!   order of the lowest corner (tightness). Beside it, segment rects on
//!   the line through a coincident group `2⁴⁰·s` out along `x`, where the
//!   sum is affine along the rect and the computed centre sits up to
//!   `2⁻¹³·s` off the true middle: the plane is exact at the near end, so
//!   only a reach measured from the computed centre holds.
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
//!   (tightness);
//! * block `ρ = 0`: "2^0 n=5 weights 1e300 Coincident: block page
//!   m=17 on Avx2Fma" (soundness);
//! * block `F` without its `μ` term, or `F = 0`: "2^0 n=1 weights 0.1–10
//!   Spread: block page m=1 on Scalar" (soundness);
//! * block `F` without its `(2n + 4)·2⁻¹⁰⁷⁴`: "2^-40 n=2 weights 1e-300
//!   Coincident: block page m=8 on Scalar" (soundness);
//! * block `ρ` doubled: "2^0 n=1 weights unit Coincident: block page m=8
//!   on Scalar" (tightness);
//! * block `F` doubled: "2^0 n=1 weights unit Coincident: block page m=1
//!   on Scalar" (tightness);
//! * block `f32` width's `ρ₃₂ = 0`: "2^0 n=1 weights unit Spread: block
//!   page m=2 on Avx2Fma" (soundness);
//! * block `f32` width's `α = 0`: "2^-40 n=1 weights unit Coincident:
//!   block hair page on Avx2Fma" (soundness);
//! * block `f32` width without `F`: "2^0 n=1 weights 0.1–10 Spread: block
//!   page m=1 on Avx2Fma" (soundness);
//! * plane `ρ = 0` (`t` kept), or the whole margin removed: "2^0 n=1
//!   weights 0.1–10 Spread: far tiny on Scalar" and "remote segment 2^0
//!   n=2 weights 0.1–10 Coincident on Scalar" (soundness);
//! * plane reach taken as half the width, `(hi − lo)/2`, not measured from
//!   the computed centre: "remote segment 2^0 n=1 weights unit Coincident
//!   on Scalar" (soundness);
//! * plane reach not rounded up (`next_up` removed alone): passes, and no
//!   case can fail it — one ulp of a reach costs at most `2u·W·hw`, which
//!   `ρ`'s `Ŵ′·(hw + hh)` term holds `8(n + 8)` times over;
//! * plane gradient term added, not subtracted: "2^0 n=1 weights unit
//!   Spread: random rect on Scalar" and "remote segment 2^0 n=1 weights
//!   unit Coincident on Scalar" (soundness);
//! * plane `ρ` doubled: "2^0 n=1 weights unit Spread: far tiny"
//!   (tightness);
//! * landmark entries narrowed to nearest: "2^0 1 edges 0.1–10";
//! * landmark `c = 0`: "fold-order path".
//!
//! [`LandmarkBound`] runs on path graphs instead, where every label is the
//! fold along the one path: at scales `2^{0, ±40, ±80, ±127, ±140, ±200}`
//! (`f32` subnormal and overflowing entries), over weights from unit to
//! twenty orders of magnitude apart, `0 <= bound <= label` for every pair
//! and every direction, and within two entry gaps and four margins of the
//! label where a landmark starts the path (tightness). Its soundness on
//! whole networks is `gnn-network`'s harness (`packed.rs`' tests).

use gnn_geom::batch::{scalar, BatchKernels};
use gnn_geom::bound::{BlockBound, CentroidBound, LandmarkBound, LeafBound, PlaneBound};
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
    /// Group members anywhere in `[-5, 5]²·s`.
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
fn block_bound_is_sound_on_the_grid_and_tight_on_coincident_groups() {
    let levels = SimdLevel::available_levels();
    let mut rng = Lcg(36);
    let (mut lanes, mut tight, mut positive, mut spread) = (0u64, 0u64, 0u64, 0u64);
    let (mut narrow_lanes, mut narrow_tight, mut hair) = (0u64, 0u64, 0u64);
    let u = f64::EPSILON / 2.0;
    grid(|g| {
        let n = g.qx.len();
        let side = (1usize..).find(|s| s.pow(4) >= n).unwrap();
        let rho = (6.0 * n as f64 + 32.0) * u;
        // One block on a coincident group: `F` is that block's centroid
        // slack (its `Ŵ` is the group's, summed in the same order) plus the
        // underflow allowance.
        let mu = [g.mbr.lo.x, g.mbr.lo.y, g.mbr.hi.x, g.mbr.hi.y]
            .into_iter()
            .fold(0.0f64, |a, c| a.max(c.abs()));
        let floor = g.total * ((6.0 * n as f64 + 16.0) * u * mu + 2f64.powi(-530))
            + (2.0 * n as f64 + 4.0) * f64::from_bits(1);
        let sizes: &[usize] = match g.layout {
            Layout::Spread => &PAGE_SIZES,
            Layout::Coincident | Layout::Far => &[0, 1, 8, 9, 17, 33],
        };
        // Every product and sum of these cases stays in `f64`'s normal
        // range, and in `f32`'s where the `f32` path runs at `|e| <= 40`.
        let normal = matches!(g.weighting, "unit" | "0.1–10") && g.e.abs() <= 200;
        let normal32 = matches!(g.weighting, "unit" | "0.1–10") && g.e.abs() <= 40;
        // The scale rule, from the group's MBR and total weight.
        let sees = |v: f64| (2f64.powi(-48)..=2f64.powi(48)).contains(&v);
        let (mut buf, mut narrow) = (vec![7.0], vec![7.0f32]);
        for &level in &levels {
            let k = BatchKernels::for_level(level).unwrap();
            let bound = BlockBound::new(k, &g.qx, &g.qy, &g.w, &g.mbr, &mut buf, &mut narrow)
                .expect("every grid weighting sums to normal block weights");
            let blocks = bound.blocks();
            assert!(
                (1..=side * side).contains(&blocks),
                "{}: {blocks} blocks",
                g.what,
            );
            if let Layout::Coincident = g.layout {
                assert_eq!(blocks, 1, "{}: a coincident group", g.what);
            }
            // The `f32` path runs exactly on AVX2 inside the scale rule; its
            // composed margin is the leaf bound's over `m` terms, then `ρ`
            // and `F`.
            let narrowed = bound.narrowed_weights();
            assert_eq!(
                narrowed.is_some(),
                level == SimdLevel::Avx2Fma && sees(mu) && sees(g.total),
                "{}: the f32 path on {level:?}",
                g.what
            );
            let (rho32, alpha) = match narrowed {
                Some(wf) => {
                    assert_eq!(wf.len(), blocks);
                    let wsum: f64 = wf.iter().map(|&v| f64::from(v)).sum();
                    let m = blocks as f64;
                    (
                        (m + 16.0) * 2f64.powi(-23),
                        wsum * 2f64.powi(-73) + m * 2f64.powi(-149),
                    )
                }
                None => (0.0, 0.0),
            };
            for &m in sizes {
                let what = format!("{}: block page m={m} on {level:?}", g.what);
                let (xs, ys) = page(g, m, &mut rng);
                let mut exact = Vec::new();
                scalar::points_weighted_dist_sum_multi(&xs, &ys, &g.qx, &g.qy, &g.w, &mut exact);
                let mut lower = vec![f64::NAN; 3];
                bound.lower_padded(&poisoned(&xs, 1e300), &poisoned(&ys, -1e300), m, &mut lower);
                assert_eq!(lower.len(), m);
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
                    if narrowed.is_some() {
                        narrow_lanes += 1;
                    }
                    match g.layout {
                        // The `f32` path gives up the leaf bound's `ρ₃₂` and
                        // `α` on top of the `f64` path's margin.
                        Layout::Coincident if narrowed.is_some() && normal32 => {
                            narrow_tight += 1;
                            let want = exact[j] * (1.0 - 1.5 * rho) * (1.0 - 2.0 * rho32)
                                - 1.5 * floor
                                - alpha;
                            assert!(
                                lower[j] >= want,
                                "{what} j={j}: lower {:e} too far below exact {:e} (f32 path)",
                                lower[j],
                                exact[j]
                            );
                        }
                        Layout::Coincident
                            if narrowed.is_none() && (exact[j] + floor).is_finite() =>
                        {
                            tight += 1;
                            assert!(
                                lower[j] >= exact[j] * (1.0 - 1.5 * rho) - 1.5 * floor,
                                "{what} j={j}: lower {:e} too far below exact {:e}",
                                lower[j],
                                exact[j]
                            );
                        }
                        Layout::Spread if j > 0 && normal => {
                            spread += 1;
                            positive += u64::from(lower[j] > 0.0);
                        }
                        _ => {}
                    }
                }
            }
            // A hair page beside a coincident group: entries `2⁻⁶⁰` down to
            // `2⁻⁸³` off the member along `x`, where `f32`'s squares go
            // subnormal inside the scale rule (soundness only: no margin
            // keeps a bound tight there).
            if let Layout::Coincident = g.layout {
                let (q, y) = (g.qx[0], g.qy[0]);
                let xs: Vec<f64> = (60..84).map(|e| q + 1.375 * 2f64.powi(-e)).collect();
                let ys = vec![y; xs.len()];
                let m = xs.len();
                let mut exact = Vec::new();
                scalar::points_weighted_dist_sum_multi(&xs, &ys, &g.qx, &g.qy, &g.w, &mut exact);
                let mut lower = Vec::new();
                bound.lower_padded(&poisoned(&xs, 1e300), &poisoned(&ys, -1e300), m, &mut lower);
                for j in 0..m {
                    hair += 1;
                    assert!(
                        !lower[j].is_finite() || lower[j] <= exact[j],
                        "{}: block hair page on {level:?} j={j}: lower {:e} above exact {:e}",
                        g.what,
                        lower[j],
                        exact[j]
                    );
                }
            }
        }
    });
    assert!(lanes > 1_000_000, "the sweep shrank: {lanes}");
    assert!(hair > 60_000, "the hair pages shrank: {hair}");
    assert!(tight > lanes / 10, "{tight} tightness checks of {lanes}");
    if SimdLevel::Avx2Fma.is_available() {
        assert!(
            narrow_lanes > 40_000 && narrow_tight > 5_000,
            "the f32 path ran on {narrow_lanes} lanes, {narrow_tight} of them tight checks"
        );
    }
    // Away from the member entry 0 sits on, a spread page's entries are
    // bounded by a real value, not the margin.
    assert_eq!(positive, spread, "positive bounds on spread pages");
}

/// The rects a plane is checked on, named: the centroid key's families,
/// a rect centred on a member (so the computed centre may sit on it and
/// skip it), and a far tiny rect, `2⁻³⁰` of its distance across, where the
/// plane is tight to second order.
fn plane_rects(g: &Group, rng: &mut Lcg) -> Vec<(Rect, &'static str)> {
    let s = 2f64.powi(g.e);
    let mut out = rects(g, rng);
    let (qx, qy) = (g.qx[0], g.qy[0]);
    out.push((
        Rect::from_corners(qx - s, qy - s, qx + s, qy + s),
        "centred on a member",
    ));
    let angle = rng.range(0.0, std::f64::consts::TAU);
    let (x, y) = (qx + 40.0 * s * angle.cos(), qy + 40.0 * s * angle.sin());
    let side = 40.0 * s * 2f64.powi(-30);
    out.push((Rect::from_corners(x, y, x + side, y + side), "far tiny"));
    out
}

/// Points of `rect` a plane is checked at: its corners, its centre and
/// four random points inside.
fn points_in(rect: &Rect, rng: &mut Lcg) -> Vec<Point> {
    let (lo, hi) = (rect.lo, rect.hi);
    let mut out = vec![
        lo,
        hi,
        Point::new(lo.x, hi.y),
        Point::new(hi.x, lo.y),
        Point::new(0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y)),
    ];
    for _ in 0..4 {
        let x = (lo.x + rng.unit() * (hi.x - lo.x)).clamp(lo.x, hi.x);
        let y = (lo.y + rng.unit() * (hi.y - lo.y)).clamp(lo.y, hi.y);
        out.push(Point::new(x, y));
    }
    out
}

/// The kernels of every level this host runs.
fn all_kernels() -> Vec<BatchKernels> {
    SimdLevel::available_levels()
        .into_iter()
        .map(|l| BatchKernels::for_level(l).unwrap())
        .collect()
}

/// `lower` against each level's one-point fold at `p`: at most the computed
/// sum, or `−∞`. Returns the lowest computed sum.
fn assert_plane_below(
    g: &Group,
    lower: f64,
    p: Point,
    kernels: &[BatchKernels],
    what: &str,
) -> f64 {
    let mut lowest = f64::INFINITY;
    for k in kernels {
        let exact = k.point_weighted_dist_sum(p, &g.qx, &g.qy, &g.w);
        assert!(
            lower == f64::NEG_INFINITY || lower <= exact,
            "{what} on {:?}: plane {lower:e} above exact {exact:e} at {p:?}",
            k.level()
        );
        lowest = lowest.min(exact);
    }
    lowest
}

#[test]
fn plane_never_exceeds_the_computed_sum_on_the_grid() {
    let kernels = all_kernels();
    let mut rng = Lcg(45);
    let u = f64::EPSILON / 2.0;
    let (mut checks, mut planes, mut finite, mut tight) = (0u64, 0u64, 0u64, 0u64);
    grid(|g| {
        let n = g.qx.len() as f64;
        let bound = PlaneBound::new(&g.qx, &g.qy, &g.w);
        // Every product and sum of these cases stays in `f64`'s normal
        // range.
        let normal = matches!(g.weighting, "unit" | "0.1–10") && g.e.abs() <= 200;
        for (rect, family) in plane_rects(g, &mut rng) {
            let what = format!("{}: {family}", g.what);
            let lower = bound.lower(&rect);
            let mut corner = f64::INFINITY;
            for (i, p) in points_in(&rect, &mut rng).into_iter().enumerate() {
                checks += 1;
                let exact = assert_plane_below(g, lower, p, &kernels, &what);
                if i < 4 {
                    corner = corner.min(exact);
                }
            }
            planes += 1;
            finite += u64::from(lower.is_finite());
            if family == "far tiny" && normal {
                // The plane at its lowest corner is within the curvature
                // term `W·(hw² + hh²)/(2·r)` of the sum there, `r` the
                // nearest member's distance to the centre.
                let (cx, cy) = (0.5 * (rect.lo.x + rect.hi.x), 0.5 * (rect.lo.y + rect.hi.y));
                let (hw, hh) = (rect.hi.x - cx, rect.hi.y - cy);
                let r =
                    g.qx.iter()
                        .zip(&g.qy)
                        .map(|(&x, &y)| (cx - x).hypot(cy - y))
                        .fold(f64::INFINITY, f64::min);
                let curvature = g.total * (hw * hw + hh * hh) / (2.0 * r);
                let f = assert_plane_below(g, lower, Point::new(cx, cy), &kernels, &what);
                let margin = 16.0 * (n + 8.0) * u * (f + g.total * (hw + hh));
                assert!(
                    lower >= corner - 1.5 * margin - 2.0 * curvature,
                    "{what}: plane {lower:e} too far below the corner's {corner:e}"
                );
                tight += 1;
            }
        }
    });
    assert!(checks > 600_000, "the sweep shrank: {checks}");
    // Overflow is the only way to `−∞`.
    assert!(finite * 2 > planes, "{finite} finite planes of {planes}");
    assert!(tight > 500, "{tight} tightness checks");
}

#[test]
fn plane_reaches_are_measured_from_the_computed_centre() {
    let kernels = all_kernels();
    let mut rng = Lcg(46);
    let mut checks = 0u64;
    for e in SCALES {
        let s = 2f64.powi(e);
        for n in [1usize, 2, 5, 16] {
            for weighting in ["unit", "0.1–10"] {
                let q = Point::new((2f64.powi(40) + rng.unit()) * s, rng.range(-5.0, 5.0) * s);
                let w = weights(weighting, n, &mut rng);
                let g = Group::new(e, weighting, Layout::Coincident, vec![q; n], w);
                let what = format!("remote segment {}", g.what);
                let bound = PlaneBound::new(&g.qx, &g.qy, &g.w);
                for _ in 0..16 {
                    let a = rng.range(0.25, 3.0);
                    let b = a + rng.range(0.0, 2.0);
                    let rect = Rect::from_corners(q.x + a * s, q.y, q.x + b * s, q.y);
                    let lower = bound.lower(&rect);
                    for p in points_in(&rect, &mut rng) {
                        assert_plane_below(&g, lower, p, &kernels, &what);
                        checks += 1;
                    }
                }
            }
        }
    }
    assert!(checks > 5_000, "{checks} checks");
}

#[test]
fn no_block_bound_without_normal_block_weights() {
    let (q, m) = ([1.0, 2.0], Rect::from_corners(1.0, 1.0, 2.0, 2.0));
    let k = BatchKernels::auto();
    let mut buf = Vec::new();
    let mut narrow = Vec::new();
    let bound =
        BlockBound::new(k, &q, &q, &[1.0, 1.0], &m, &mut buf, &mut narrow).expect("normal weights");
    assert_eq!(bound.blocks(), 2, "two members on a 2 × 2 grid's diagonal");
    for w in [[1e-310, 1.0], [1.0, 1e-310], [1e308, 1.0]] {
        assert!(
            BlockBound::new(k, &q, &q, &w, &m, &mut buf, &mut narrow).is_none(),
            "{w:?}"
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

/// Labels along a path graph, as an expansion from `from` settles them:
/// each vertex's label is the left fold of the weights between (`w[i]`
/// joins vertices `i` and `i + 1`).
fn path_labels(w: &[f64], from: usize) -> Vec<f64> {
    let mut label = vec![0.0; w.len() + 1];
    for i in from + 1..label.len() {
        label[i] = label[i - 1] + w[i - 1];
    }
    for i in (0..from).rev() {
        label[i] = label[i + 1] + w[i];
    }
    label
}

#[test]
fn landmark_bound_is_sound_and_tight_on_path_graphs() {
    // Path graphs at every scale, `f32`'s subnormal and overflowing ranges
    // included, with weights from unit to twenty orders of magnitude apart
    // (so folds round, and round differently in the two directions), and
    // one path whose folds differ by direction exactly where `f32` holds
    // the larger: 2⁻⁵⁵, 2⁻⁵⁵, 1 − 2⁻⁵³ folds to 1 from one end and to
    // 1 − 2⁻⁵³ from the other.
    let mut rng = Lcg(39);
    let mut paths: Vec<(String, Vec<f64>)> = vec![(
        "fold-order path".into(),
        vec![2f64.powi(-55), 2f64.powi(-55), 1.0 - 2f64.powi(-53)],
    )];
    for e in [0, 40, -40, 80, -80, 127, -127, 140, -140, 200, -200] {
        for len in [1usize, 2, 16, 63] {
            for weighting in ["unit", "0.1–10", "10^±10"] {
                let w = (0..len)
                    .map(|_| match weighting {
                        "unit" => 1.0,
                        "0.1–10" => rng.range(0.1, 10.0),
                        _ => 10f64.powf(rng.range(-10.0, 10.0)),
                    })
                    .map(|w| w * 2f64.powi(e))
                    .collect();
                paths.push((format!("2^{e} {len} edges {weighting}"), w));
            }
        }
    }
    let (mut pairs, mut tight) = (0u64, 0u64);
    for (what, w) in &paths {
        let n = w.len() + 1;
        let bound = LandmarkBound::new(n);
        // Landmarks at both ends, the middle and next to the start; row `v`
        // holds `v`'s entry for each.
        let landmarks = [0, n - 1, n / 2, 1];
        let columns: Vec<Vec<f64>> = landmarks.iter().map(|&l| path_labels(w, l)).collect();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|v| columns.iter().map(|c| LandmarkBound::entry(c[v])).collect())
            .collect();
        for a in 0..n {
            let settled = path_labels(w, a);
            for b in 0..n {
                let lower = bound.lower(&rows[a], &rows[b]);
                assert!(
                    lower >= 0.0 && lower <= settled[b],
                    "{what}: bound(v{a}, v{b}) = {lower:e} above settled {:e}",
                    settled[b]
                );
                pairs += 1;
                // The first landmark starts the path, so its difference is
                // the distance itself: the bound gives up only the two
                // entries' rounding and a few margins.
                let (ea, eb) = (rows[a][0], rows[b][0]);
                let gaps = f64::from(ea.next_up() - ea) + f64::from(eb.next_up() - eb);
                let s = f64::from(ea) + f64::from(eb);
                if a < b && gaps.is_finite() {
                    let margin = 4.0 * (n as f64 + 2.0) * f64::EPSILON;
                    let slack = 2.0 * gaps + 4.0 * margin * s;
                    assert!(
                        lower >= settled[b] - slack,
                        "{what}: bound(v{a}, v{b}) = {lower:e} far below {:e}",
                        settled[b]
                    );
                    tight += 1;
                }
            }
        }
    }
    assert!(
        tight * 3 > pairs,
        "{tight} tightness checks of {pairs} pairs"
    );
}

#[test]
fn landmark_entries_round_down_to_f32() {
    let labels = [
        0.0,
        1.0,
        0.1,
        1e-50,
        3.5e38,
        1e300,
        16_777_217.0,
        f64::INFINITY,
    ];
    let entries = labels.map(LandmarkBound::entry);
    for (&e, &l) in entries.iter().zip(&labels) {
        assert!(f64::from(e) <= l, "{e:e} vs {l:e}");
        if l < f64::INFINITY {
            assert!(
                f64::from(e.next_up()) > l,
                "{e:e} is not the largest below {l:e}"
            );
        }
    }
    assert_eq!(entries[3], 0.0);
    assert_eq!(entries[4], f32::MAX);
    assert_eq!(entries[6], 16_777_216.0);
    assert_eq!(entries[7], f32::INFINITY);
}
