//! Batched, branch-free distance kernels over coordinate slices.
//!
//! The packed R-tree snapshot (`gnn-rtree`'s `PackedRTree`) stores the
//! rectangles of each internal page as four parallel `f64` arrays (SoA), and
//! query groups cache their points the same way. These kernels consume such
//! slices directly so a node scan is one linear pass.
//!
//! Two implementations exist per kernel. The [`scalar`] module holds the
//! original branch-free scalar loops — the **bit-identity oracle** and the
//! fallback on hosts without AVX2+FMA. [`crate::simd`] holds hand-written
//! AVX2 kernels that produce bit-identical results (see that module's
//! contract). [`BatchKernels`] picks between them: call
//! [`BatchKernels::auto`] for the process-wide [`crate::simd::dispatch_level`]
//! choice, or [`BatchKernels::for_level`] to pin a specific level (how the
//! property suite compares levels in one process).
//!
//! One kernel has a scalar body only: the exact multi-point weighted SUM
//! ([`BatchKernels::points_weighted_dist_sum_multi_padded`]) runs
//! [`scalar::points_weighted_dist_sum_multi`] at both levels. It is bound by
//! `sqrtpd`, whose throughput per element is the same at 128 and 256 bits,
//! and the compiler already emits the 128-bit form for the scalar fold — a
//! hand-written body measured at or below parity on every tier
//! (EXPERIMENTS.md). What does beat it is not computing it: the `f32` lower
//! bound ([`BatchKernels::points_weighted_dist_sum_lower_padded`]) decides
//! which entries pay for the exact fold at all.
//!
//! The elementwise and multi-point kernels exist only as `*_padded` methods
//! over **lane-padded** inputs: the caller passes the logical element count
//! `n` while the coordinate slices hold at least
//! [`crate::simd::pad_len`]`(n)` readable lanes (packed-arena page spans are
//! stored this way). Full vectors then cover the whole range with no scalar
//! tail; exactly `n` results come back, so the sentinel values in the
//! padding lanes never influence an output. The five group-dimension folds
//! take the query group's exact (unpadded) arrays.
//!
//! All kernels work in **squared** distance. Squared values order exactly
//! like true distances, so callers compare in squared space where possible
//! and pay the `sqrt` only for values that survive pruning. The aggregate
//! kernels ([`scalar::rect_weighted_mindist_sum`],
//! [`scalar::points_weighted_dist_sum_multi`] and the max/min folds) bridge
//! back to the paper's metric space.
//!
//! Scalar oracles for every kernel live in [`crate::Rect`] /
//! [`crate::Point`]; the property suite (`crates/geom/tests/batch_props.rs`)
//! pins all implementations together bit-for-bit.

// The only `unsafe` in this module is calling the `#[target_feature]` AVX2
// entry points, sound because `BatchKernels` holds `Avx2Fma` only after
// runtime detection (see each SAFETY comment).
#![allow(unsafe_code)]

use crate::simd::{self, pad_len, SimdLevel};
use crate::{Point, Rect};

pub mod scalar {
    //! The original scalar kernels, verbatim — the bit-identity reference
    //! for every SIMD backend and the only implementation on targets
    //! without one.

    use crate::{Point, Rect};

    /// Distance from `v` to the interval `[lo, hi]`, branch-free (0 inside).
    #[inline(always)]
    fn interval_excess(v: f64, lo: f64, hi: f64) -> f64 {
        (lo - v).max(v - hi).max(0.0)
    }

    /// Gap between the intervals `[a_lo, a_hi]` and `[b_lo, b_hi]`,
    /// branch-free (0 when they overlap).
    #[inline(always)]
    fn interval_gap(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> f64 {
        (b_lo - a_hi).max(a_lo - b_hi).max(0.0)
    }

    /// `out[i] = mindist²(rect_i, q)` for rectangles given as four parallel
    /// coordinate slices. `out` is cleared and refilled (capacity is
    /// reused).
    ///
    /// # Panics
    ///
    /// Panics when the slices disagree in length.
    pub fn rects_mindist_sq_point(
        lo_x: &[f64],
        lo_y: &[f64],
        hi_x: &[f64],
        hi_y: &[f64],
        q: Point,
        out: &mut Vec<f64>,
    ) {
        let n = lo_x.len();
        assert!(lo_y.len() == n && hi_x.len() == n && hi_y.len() == n);
        out.clear();
        out.reserve(n);
        for i in 0..n {
            let dx = interval_excess(q.x, lo_x[i], hi_x[i]);
            let dy = interval_excess(q.y, lo_y[i], hi_y[i]);
            out.push(dx * dx + dy * dy);
        }
    }

    /// `out[i] = mindist²(rect_i, m)` for rectangles given as four parallel
    /// coordinate slices against one fixed rectangle `m`. `out` is cleared
    /// and refilled.
    ///
    /// # Panics
    ///
    /// Panics when the slices disagree in length.
    pub fn rects_mindist_sq_rect(
        lo_x: &[f64],
        lo_y: &[f64],
        hi_x: &[f64],
        hi_y: &[f64],
        m: &Rect,
        out: &mut Vec<f64>,
    ) {
        let n = lo_x.len();
        assert!(lo_y.len() == n && hi_x.len() == n && hi_y.len() == n);
        out.clear();
        out.reserve(n);
        for i in 0..n {
            let dx = interval_gap(lo_x[i], hi_x[i], m.lo.x, m.hi.x);
            let dy = interval_gap(lo_y[i], hi_y[i], m.lo.y, m.hi.y);
            out.push(dx * dx + dy * dy);
        }
    }

    /// `out[i] = |p_i q|²` for points given as two parallel coordinate
    /// slices. `out` is cleared and refilled.
    ///
    /// # Panics
    ///
    /// Panics when `xs` and `ys` disagree in length.
    pub fn points_dist_sq(xs: &[f64], ys: &[f64], q: Point, out: &mut Vec<f64>) {
        let n = xs.len();
        assert_eq!(ys.len(), n);
        out.clear();
        out.reserve(n);
        for i in 0..n {
            let dx = xs[i] - q.x;
            let dy = ys[i] - q.y;
            out.push(dx * dx + dy * dy);
        }
    }

    /// `out[i] = mindist²(p_i, m)` for points given as two parallel
    /// coordinate slices against one rectangle. `out` is cleared and
    /// refilled.
    ///
    /// # Panics
    ///
    /// Panics when `xs` and `ys` disagree in length.
    pub fn points_mindist_sq_rect(xs: &[f64], ys: &[f64], m: &Rect, out: &mut Vec<f64>) {
        let n = xs.len();
        assert_eq!(ys.len(), n);
        out.clear();
        out.reserve(n);
        for i in 0..n {
            let dx = interval_excess(xs[i], m.lo.x, m.hi.x);
            let dy = interval_excess(ys[i], m.lo.y, m.hi.y);
            out.push(dx * dx + dy * dy);
        }
    }

    /// `Σ_i w_i · √(mindist²(m, q_i))` over query points in SoA form — the
    /// SUM aggregate's tight node bound (heuristic 3) in one fused
    /// branch-free pass.
    ///
    /// The fold is deliberately **sequential**, making the result
    /// bit-identical to the scalar reference
    /// (`Σ w_i · Rect::mindist_point(q_i)` evaluated in order). Node keys
    /// computed through this kernel therefore match the reference engine's
    /// exactly, which is what lets the property suite pin packed-vs-arena
    /// node accesses with strict equality.
    ///
    /// # Panics
    ///
    /// Panics when the slices disagree in length.
    pub fn rect_weighted_mindist_sum(m: &Rect, qx: &[f64], qy: &[f64], w: &[f64]) -> f64 {
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        let mut acc = 0.0f64;
        for j in 0..n {
            let dx = interval_excess(qx[j], m.lo.x, m.hi.x);
            let dy = interval_excess(qy[j], m.lo.y, m.hi.y);
            acc += w[j] * (dx * dx + dy * dy).sqrt();
        }
        acc
    }

    /// Multi-point weighted distance sums: `out[j] = Σ_i w_i · |p_j q_i|`
    /// for a batch of points `p_j` (SoA) against query points `q_i` (SoA).
    ///
    /// The accumulation runs query-point-major, so each `out[j]` is the
    /// plain sequential fold over `i` — **bit-identical** to evaluating the
    /// points one at a time with the same sequential fold — while the inner
    /// loop vectorizes over the point batch `j`. This is the leaf-scoring
    /// kernel of the packed query engine (a whole leaf page's points are
    /// evaluated in one call instead of one by one).
    ///
    /// # Panics
    ///
    /// Panics when the paired slices disagree in length.
    pub fn points_weighted_dist_sum_multi(
        xs: &[f64],
        ys: &[f64],
        qx: &[f64],
        qy: &[f64],
        w: &[f64],
        out: &mut Vec<f64>,
    ) {
        let m = xs.len();
        assert_eq!(ys.len(), m);
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        out.clear();
        out.resize(m, 0.0);
        for i in 0..n {
            let (qxi, qyi, wi) = (qx[i], qy[i], w[i]);
            for (j, o) in out.iter_mut().enumerate() {
                let dx = xs[j] - qxi;
                let dy = ys[j] - qyi;
                *o += wi * (dx * dx + dy * dy).sqrt();
            }
        }
    }

    /// Multi-point MAX fold: `out[j] = max_i |p_j q_i|²` (sequential fold
    /// over `i`, vectorized over `j`; see
    /// [`points_weighted_dist_sum_multi`]).
    pub fn points_dist_sq_max_multi(
        xs: &[f64],
        ys: &[f64],
        qx: &[f64],
        qy: &[f64],
        out: &mut Vec<f64>,
    ) {
        points_dist_sq_fold_multi(xs, ys, qx, qy, f64::NEG_INFINITY, f64::max, out)
    }

    /// Multi-point MIN fold: `out[j] = min_i |p_j q_i|²`.
    pub fn points_dist_sq_min_multi(
        xs: &[f64],
        ys: &[f64],
        qx: &[f64],
        qy: &[f64],
        out: &mut Vec<f64>,
    ) {
        points_dist_sq_fold_multi(xs, ys, qx, qy, f64::INFINITY, f64::min, out)
    }

    #[inline(always)]
    fn points_dist_sq_fold_multi(
        xs: &[f64],
        ys: &[f64],
        qx: &[f64],
        qy: &[f64],
        identity: f64,
        fold: impl Fn(f64, f64) -> f64,
        out: &mut Vec<f64>,
    ) {
        let m = xs.len();
        assert_eq!(ys.len(), m);
        let n = qx.len();
        assert_eq!(qy.len(), n);
        out.clear();
        out.resize(m, identity);
        for i in 0..n {
            let (qxi, qyi) = (qx[i], qy[i]);
            for (j, o) in out.iter_mut().enumerate() {
                let dx = xs[j] - qxi;
                let dy = ys[j] - qyi;
                *o = fold(*o, dx * dx + dy * dy);
            }
        }
    }

    /// Maximum of `mindist²(m, q_i)` over query points in SoA form.
    /// Combined with one final `sqrt` this is the MAX aggregate's tight
    /// node bound (`max √x = √(max x)`).
    pub fn rect_mindist_sq_max(m: &Rect, qx: &[f64], qy: &[f64]) -> f64 {
        fold_rect_mindist_sq(m, qx, qy, f64::NEG_INFINITY, f64::max)
    }

    /// Minimum of `mindist²(m, q_i)` over query points in SoA form (the
    /// MIN aggregate's tight node bound before the final `sqrt`).
    pub fn rect_mindist_sq_min(m: &Rect, qx: &[f64], qy: &[f64]) -> f64 {
        fold_rect_mindist_sq(m, qx, qy, f64::INFINITY, f64::min)
    }

    /// Maximum of `|p q_i|²` over query points in SoA form.
    pub fn point_dist_sq_max(p: Point, qx: &[f64], qy: &[f64]) -> f64 {
        fold_point_dist_sq(p, qx, qy, f64::NEG_INFINITY, f64::max)
    }

    /// Minimum of `|p q_i|²` over query points in SoA form.
    pub fn point_dist_sq_min(p: Point, qx: &[f64], qy: &[f64]) -> f64 {
        fold_point_dist_sq(p, qx, qy, f64::INFINITY, f64::min)
    }

    #[inline(always)]
    fn fold_rect_mindist_sq(
        m: &Rect,
        qx: &[f64],
        qy: &[f64],
        identity: f64,
        fold: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        let n = qx.len();
        assert_eq!(qy.len(), n);
        let mut acc = identity;
        for i in 0..n {
            let dx = interval_excess(qx[i], m.lo.x, m.hi.x);
            let dy = interval_excess(qy[i], m.lo.y, m.hi.y);
            acc = fold(acc, dx * dx + dy * dy);
        }
        acc
    }

    #[inline(always)]
    fn fold_point_dist_sq(
        p: Point,
        qx: &[f64],
        qy: &[f64],
        identity: f64,
        fold: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        let n = qx.len();
        assert_eq!(qy.len(), n);
        let mut acc = identity;
        for i in 0..n {
            let dx = qx[i] - p.x;
            let dy = qy[i] - p.y;
            acc = fold(acc, dx * dx + dy * dy);
        }
        acc
    }
}

/// `(1 − ρ, α)` of [`BatchKernels::points_weighted_dist_sum_lower_padded`]
/// for the `f32` weights `w`: the factor and the subtrahend that turn the
/// `f32` sum into a lower bound on the `f64` one.
#[cfg(target_arch = "x86_64")]
fn lower_bound_margin(w: &[f32]) -> (f64, f64) {
    /// `2^e`, `e` in `f64`'s normal exponent range.
    const fn exp2(e: i64) -> f64 {
        f64::from_bits(((1023 + e) as u64) << 52)
    }
    let n = w.len() as f64;
    // Four running sums: the total is only a margin, so its association is
    // free, and one chain of `n` dependent adds would cost a visible share
    // of a 50-entry page.
    let mut sums = [0.0f64; 4];
    for chunk in w.chunks(4) {
        for (s, &v) in sums.iter_mut().zip(chunk) {
            *s += f64::from(v);
        }
    }
    let total = (sums[0] + sums[1]) + (sums[2] + sums[3]);
    (
        1.0 - (n + 16.0) * exp2(-23),
        total * exp2(-73) + n * exp2(-149),
    )
}

/// Level-pinned handle over the batch kernels.
///
/// All methods produce **bit-identical** results regardless of the level
/// (the SIMD contract in [`crate::simd`]); the level only changes how fast
/// they get there — save [`Self::points_weighted_dist_sum_lower_padded`],
/// which promises an inequality and exists at AVX2 only. Construct with
/// [`BatchKernels::auto`] in production code; [`BatchKernels::for_level`]
/// exists so tests can compare levels within one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchKernels {
    level: SimdLevel,
}

impl BatchKernels {
    /// Kernels at the process-wide [`simd::dispatch_level`].
    #[inline]
    pub fn auto() -> Self {
        BatchKernels {
            level: simd::dispatch_level(),
        }
    }

    /// Kernels pinned to `level`, or `None` when the host can't run it.
    pub fn for_level(level: SimdLevel) -> Option<Self> {
        level.is_available().then_some(BatchKernels { level })
    }

    /// The pinned dispatch level.
    #[inline]
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Lane-padded [`scalar::rects_mindist_sq_point`]: `n` logical
    /// rectangles whose coordinate slices hold at least [`pad_len`]`(n)`
    /// readable lanes. Exactly `n` results are written.
    ///
    /// # Panics
    ///
    /// Panics when a slice is shorter than `pad_len(n)`.
    #[allow(clippy::too_many_arguments)]
    pub fn rects_mindist_sq_point_padded(
        &self,
        lo_x: &[f64],
        lo_y: &[f64],
        hi_x: &[f64],
        hi_y: &[f64],
        n: usize,
        q: Point,
        out: &mut Vec<f64>,
    ) {
        let p = pad_len(n);
        assert!(lo_x.len() >= p && lo_y.len() >= p && hi_x.len() >= p && hi_y.len() >= p);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `BatchKernels` holds `Avx2Fma` only when runtime
            // detection confirmed avx2+fma (auto/for_level check
            // `is_available`); the assert above proves every slice holds
            // the `pad_len(n)` lanes the kernel reads.
            SimdLevel::Avx2Fma => unsafe {
                simd::x86::rects_mindist_sq_point_avx2(lo_x, lo_y, hi_x, hi_y, n, q, out)
            },
            _ => scalar::rects_mindist_sq_point(
                &lo_x[..n],
                &lo_y[..n],
                &hi_x[..n],
                &hi_y[..n],
                q,
                out,
            ),
        }
    }

    /// Lane-padded [`scalar::rects_mindist_sq_rect`] (contract as
    /// [`Self::rects_mindist_sq_point_padded`]).
    ///
    /// # Panics
    ///
    /// Panics when a slice is shorter than `pad_len(n)`.
    #[allow(clippy::too_many_arguments)]
    pub fn rects_mindist_sq_rect_padded(
        &self,
        lo_x: &[f64],
        lo_y: &[f64],
        hi_x: &[f64],
        hi_y: &[f64],
        n: usize,
        m: &Rect,
        out: &mut Vec<f64>,
    ) {
        let p = pad_len(n);
        assert!(lo_x.len() >= p && lo_y.len() >= p && hi_x.len() >= p && hi_y.len() >= p);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `rects_mindist_sq_point_padded`.
            SimdLevel::Avx2Fma => unsafe {
                simd::x86::rects_mindist_sq_rect_avx2(lo_x, lo_y, hi_x, hi_y, n, m, out)
            },
            _ => scalar::rects_mindist_sq_rect(
                &lo_x[..n],
                &lo_y[..n],
                &hi_x[..n],
                &hi_y[..n],
                m,
                out,
            ),
        }
    }

    /// Lane-padded [`scalar::points_dist_sq`]: `n` logical points whose
    /// coordinate slices hold at least [`pad_len`]`(n)` readable lanes.
    ///
    /// # Panics
    ///
    /// Panics when a slice is shorter than `pad_len(n)`.
    pub fn points_dist_sq_padded(
        &self,
        xs: &[f64],
        ys: &[f64],
        n: usize,
        q: Point,
        out: &mut Vec<f64>,
    ) {
        let p = pad_len(n);
        assert!(xs.len() >= p && ys.len() >= p);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `rects_mindist_sq_point_padded`.
            SimdLevel::Avx2Fma => unsafe { simd::x86::points_dist_sq_avx2(xs, ys, n, q, out) },
            _ => scalar::points_dist_sq(&xs[..n], &ys[..n], q, out),
        }
    }

    /// Lane-padded [`scalar::points_mindist_sq_rect`] (contract as
    /// [`Self::points_dist_sq_padded`]).
    ///
    /// # Panics
    ///
    /// Panics when a slice is shorter than `pad_len(n)`.
    pub fn points_mindist_sq_rect_padded(
        &self,
        xs: &[f64],
        ys: &[f64],
        n: usize,
        m: &Rect,
        out: &mut Vec<f64>,
    ) {
        let p = pad_len(n);
        assert!(xs.len() >= p && ys.len() >= p);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `rects_mindist_sq_point_padded`.
            SimdLevel::Avx2Fma => unsafe {
                simd::x86::points_mindist_sq_rect_avx2(xs, ys, n, m, out)
            },
            _ => scalar::points_mindist_sq_rect(&xs[..n], &ys[..n], m, out),
        }
    }

    /// Lane-padded [`scalar::points_weighted_dist_sum_multi`]: `m` logical
    /// points whose coordinate slices hold at least [`pad_len`]`(m)`
    /// readable lanes. The query-point slices `qx`/`qy`/`w` are never padded
    /// (the fold dimension must be exact — that is what keeps the sequential
    /// SUM bit-identical).
    ///
    /// Both levels run the scalar fold (module docs: why it has no SIMD
    /// body).
    ///
    /// # Panics
    ///
    /// Panics when a point slice is shorter than `pad_len(m)` or the query
    /// slices disagree in length.
    #[allow(clippy::too_many_arguments)]
    pub fn points_weighted_dist_sum_multi_padded(
        &self,
        xs: &[f64],
        ys: &[f64],
        m: usize,
        qx: &[f64],
        qy: &[f64],
        w: &[f64],
        out: &mut Vec<f64>,
    ) {
        let p = pad_len(m);
        assert!(xs.len() >= p && ys.len() >= p);
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        scalar::points_weighted_dist_sum_multi(&xs[..m], &ys[..m], qx, qy, w, out);
    }

    /// A **lower bound** on [`Self::points_weighted_dist_sum_multi_padded`],
    /// computed in `f32` at twice the lanes and under half the `sqrt` cost:
    /// every finite `out[j]` satisfies `out[j] <= Σ_i w_i·|p_j q_i|`, the
    /// right-hand side being the exact `f64` kernel's value for weights
    /// `f64::from(w[i])` — hence also for any larger `f64` weights, every
    /// term being non-negative and every `f64` rounding monotone. A
    /// non-finite `out[j]` (an overflowed `f32`, NaN data) promises nothing:
    /// the caller must treat that entry as not ruled out. Filter, then
    /// verify — the bound decides who pays for the exact kernel, it never
    /// stands in for a distance.
    ///
    /// Returns `false`, with `out` left empty, at [`SimdLevel::Scalar`]:
    /// there is no such kernel there and callers score exactly instead.
    ///
    /// # The margin
    ///
    /// Per pair the kernel takes `dx`, `dy` in `f64` (the operands the exact
    /// kernel squares), narrows them to `f32`, and runs `s = fma(dx, dx,
    /// dy·dy)`, `r = √s`, `acc = fma(w, r, acc)`; the result is
    /// `acc·(1 − ρ) − α` evaluated in `f64`, with `u = 2⁻²⁴`:
    ///
    /// * *Relative,* `ρ = (n + 16)·2⁻²³ = 2(n + 16)·u`. Narrowing inflates a
    ///   difference by at most `(1+u)`, so `dx²` by `(1+u)²`; `dy·dy` rounds
    ///   once more and the `fma` once again: `s <= d²·(1+u)⁴`. The root
    ///   halves that and rounds: `r <= d·(1+u)³`. Each of the `n`
    ///   accumulating `fma`s rounds the running sum of non-negative terms
    ///   once, so term `i` carries at most `(1+u)ⁿ` more. In all `acc <=
    ///   T·(1+u)ⁿ⁺⁴` for the real-arithmetic sum `T` over the same `f64`
    ///   differences, and the exact `f64` fold is within `(n+4)·2⁻⁵³` of
    ///   `T`. `ρ` is twice what that needs; the slack pays for partial sums
    ///   that were subnormal (`n·2⁻¹⁵⁰` against a final `acc >= 2⁻¹²⁶`) and
    ///   for the `f64` roundings of the last line.
    /// * *Absolute,* `α = W·2⁻⁷³ + n·2⁻¹⁴⁹`, `W = Σ w_i`. A square that
    ///   lands in `f32`'s subnormal range is off by up to `2⁻¹⁴⁹` in all
    ///   (`dy·dy` and the `fma`, half a subnormal ulp each), and `√` turns
    ///   that into up to `2⁻⁷⁴·⁵` on `r` — a 29 % relative error at the
    ///   bottom of the range, which no `ρ` covers. Weighted, carried through
    ///   the accumulation (`(1+u)ⁿ⁺¹ < 2·√2` for every `n` that leaves
    ///   `ρ < 1`) and summed, that is at most `W·2⁻⁷³`. The second term is
    ///   the `n` accumulator roundings when the final sum is itself
    ///   subnormal. From `ρ >= 1` on the bound is `<= 0` and filters
    ///   nothing, soundly.
    /// * Overflow cannot hide: an infinite difference, square, product or sum
    ///   stays infinite (or turns NaN against a zero weight) to the end, and
    ///   `∞·(1 − ρ) − α` is not finite.
    ///
    /// The property suite pins soundness (`lower <= exact` or non-finite)
    /// and tightness (`lower >= exact·(1 − 2ρ) − α` on `f32`'s normal
    /// range — a margin that silently stops filtering fails a test too).
    ///
    /// # Panics
    ///
    /// Panics when a point slice is shorter than `pad_len(m)` or the query
    /// slices disagree in length.
    #[allow(clippy::too_many_arguments)]
    pub fn points_weighted_dist_sum_lower_padded(
        &self,
        xs: &[f64],
        ys: &[f64],
        m: usize,
        qx: &[f64],
        qy: &[f64],
        w: &[f32],
        out: &mut Vec<f64>,
    ) -> bool {
        let p = pad_len(m);
        assert!(xs.len() >= p && ys.len() >= p);
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => {
                let (scale, abs) = lower_bound_margin(w);
                // SAFETY: `BatchKernels` holds `Avx2Fma` only when runtime
                // detection confirmed avx2+fma; the asserts above prove the
                // point slices hold the `pad_len(m)` lanes the kernel reads
                // and that it may index `qy` and `w` by `qx`'s length.
                unsafe {
                    simd::x86::points_weighted_dist_sum_lower_avx2(
                        xs, ys, m, qx, qy, w, scale, abs, out,
                    );
                }
                true
            }
            _ => {
                out.clear();
                false
            }
        }
    }

    /// Lane-padded [`scalar::points_dist_sq_max_multi`] (contract as
    /// [`Self::points_weighted_dist_sum_multi_padded`]).
    ///
    /// # Panics
    ///
    /// Panics when a point slice is shorter than `pad_len(m)`.
    pub fn points_dist_sq_max_multi_padded(
        &self,
        xs: &[f64],
        ys: &[f64],
        m: usize,
        qx: &[f64],
        qy: &[f64],
        out: &mut Vec<f64>,
    ) {
        self.fold_multi_padded::<true>(xs, ys, m, qx, qy, out);
    }

    /// Lane-padded [`scalar::points_dist_sq_min_multi`] (contract as
    /// [`Self::points_weighted_dist_sum_multi_padded`]).
    ///
    /// # Panics
    ///
    /// Panics when a point slice is shorter than `pad_len(m)`.
    pub fn points_dist_sq_min_multi_padded(
        &self,
        xs: &[f64],
        ys: &[f64],
        m: usize,
        qx: &[f64],
        qy: &[f64],
        out: &mut Vec<f64>,
    ) {
        self.fold_multi_padded::<false>(xs, ys, m, qx, qy, out);
    }

    #[inline]
    fn fold_multi_padded<const MAX: bool>(
        &self,
        xs: &[f64],
        ys: &[f64],
        m: usize,
        qx: &[f64],
        qy: &[f64],
        out: &mut Vec<f64>,
    ) {
        let p = pad_len(m);
        assert!(xs.len() >= p && ys.len() >= p);
        assert_eq!(qy.len(), qx.len());
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `rects_mindist_sq_point_padded`.
            SimdLevel::Avx2Fma => unsafe {
                simd::x86::points_dist_sq_fold_multi_avx2::<MAX>(xs, ys, m, qx, qy, out)
            },
            _ if MAX => scalar::points_dist_sq_max_multi(&xs[..m], &ys[..m], qx, qy, out),
            _ => scalar::points_dist_sq_min_multi(&xs[..m], &ys[..m], qx, qy, out),
        }
    }

    /// See [`scalar::rect_weighted_mindist_sum`]. The accumulation order is
    /// the scalar one on both levels (sequential in `i`), so the result is
    /// bit-identical across levels.
    pub fn rect_weighted_mindist_sum(&self, m: &Rect, qx: &[f64], qy: &[f64], w: &[f64]) -> f64 {
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: level as in `rects_mindist_sq_point_padded`; the kernel
            // reads the `n` lanes of the exact slices asserted above.
            SimdLevel::Avx2Fma => unsafe {
                simd::x86::rect_weighted_mindist_sum_avx2(m, qx, qy, w)
            },
            _ => scalar::rect_weighted_mindist_sum(m, qx, qy, w),
        }
    }

    /// See [`scalar::rect_mindist_sq_max`].
    pub fn rect_mindist_sq_max(&self, m: &Rect, qx: &[f64], qy: &[f64]) -> f64 {
        self.rect_fold::<true>(m, qx, qy)
    }

    /// See [`scalar::rect_mindist_sq_min`].
    pub fn rect_mindist_sq_min(&self, m: &Rect, qx: &[f64], qy: &[f64]) -> f64 {
        self.rect_fold::<false>(m, qx, qy)
    }

    #[inline]
    fn rect_fold<const MAX: bool>(&self, m: &Rect, qx: &[f64], qy: &[f64]) -> f64 {
        assert_eq!(qy.len(), qx.len());
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: level as in `rects_mindist_sq_point_padded`; the kernel
            // reads the `qx.len()` lanes of the exact slices asserted above.
            SimdLevel::Avx2Fma => unsafe { simd::x86::rect_mindist_sq_fold_avx2::<MAX>(m, qx, qy) },
            _ if MAX => scalar::rect_mindist_sq_max(m, qx, qy),
            _ => scalar::rect_mindist_sq_min(m, qx, qy),
        }
    }

    /// See [`scalar::point_dist_sq_max`].
    pub fn point_dist_sq_max(&self, p: Point, qx: &[f64], qy: &[f64]) -> f64 {
        self.point_fold::<true>(p, qx, qy)
    }

    /// See [`scalar::point_dist_sq_min`].
    pub fn point_dist_sq_min(&self, p: Point, qx: &[f64], qy: &[f64]) -> f64 {
        self.point_fold::<false>(p, qx, qy)
    }

    #[inline]
    fn point_fold<const MAX: bool>(&self, p: Point, qx: &[f64], qy: &[f64]) -> f64 {
        assert_eq!(qy.len(), qx.len());
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `rect_fold`.
            SimdLevel::Avx2Fma => unsafe { simd::x86::point_dist_sq_fold_avx2::<MAX>(p, qx, qy) },
            _ if MAX => scalar::point_dist_sq_max(p, qx, qy),
            _ => scalar::point_dist_sq_min(p, qx, qy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soa(rects: &[Rect]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            rects.iter().map(|r| r.lo.x).collect(),
            rects.iter().map(|r| r.lo.y).collect(),
            rects.iter().map(|r| r.hi.x).collect(),
            rects.iter().map(|r| r.hi.y).collect(),
        )
    }

    #[test]
    fn rect_point_batch_matches_scalar() {
        let rects = [
            Rect::from_corners(0.0, 0.0, 1.0, 1.0),
            Rect::from_corners(-3.0, 2.0, -1.0, 5.0),
            Rect::from_corners(4.0, -2.0, 9.0, 0.0),
        ];
        let (lx, ly, hx, hy) = soa(&rects);
        let q = Point::new(2.0, 3.0);
        let mut out = Vec::new();
        scalar::rects_mindist_sq_point(&lx, &ly, &hx, &hy, q, &mut out);
        for (r, got) in rects.iter().zip(&out) {
            assert_eq!(*got, r.mindist_point_sq(q));
        }
    }

    #[test]
    fn rect_rect_batch_matches_scalar() {
        let rects = [
            Rect::from_corners(0.0, 0.0, 1.0, 1.0),
            Rect::from_corners(5.0, 5.0, 6.0, 8.0),
        ];
        let (lx, ly, hx, hy) = soa(&rects);
        let m = Rect::from_corners(2.0, 2.0, 3.0, 3.0);
        let mut out = Vec::new();
        scalar::rects_mindist_sq_rect(&lx, &ly, &hx, &hy, &m, &mut out);
        for (r, got) in rects.iter().zip(&out) {
            assert_eq!(*got, r.mindist_rect_sq(&m));
        }
    }

    #[test]
    fn point_batches_match_scalar() {
        let pts = [Point::new(1.0, 2.0), Point::new(-4.0, 0.5)];
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let q = Point::new(0.25, -1.0);
        let mut out = Vec::new();
        scalar::points_dist_sq(&xs, &ys, q, &mut out);
        for (p, got) in pts.iter().zip(&out) {
            assert_eq!(*got, p.dist_sq(q));
        }
        let m = Rect::from_corners(0.0, 0.0, 1.0, 1.0);
        scalar::points_mindist_sq_rect(&xs, &ys, &m, &mut out);
        for (p, got) in pts.iter().zip(&out) {
            assert_eq!(*got, m.mindist_point_sq(*p));
        }
    }

    #[test]
    fn weighted_sum_matches_sequential_exactly() {
        let qx: Vec<f64> = (0..13).map(|i| i as f64 * 0.7).collect();
        let qy: Vec<f64> = (0..13).map(|i| 9.0 - i as f64).collect();
        let w: Vec<f64> = (0..13).map(|i| 0.5 + i as f64 * 0.1).collect();
        let m = Rect::from_corners(2.0, 2.0, 4.0, 4.0);
        let want: f64 = (0..13)
            .map(|i| w[i] * m.mindist_point(Point::new(qx[i], qy[i])))
            .sum();
        let got = BatchKernels::auto().rect_weighted_mindist_sum(&m, &qx, &qy, &w);
        assert_eq!(got, want, "sequential fold must be bit-identical");
    }

    #[test]
    fn max_min_folds_match_scalar() {
        let qx = [0.0, 5.0, -2.0];
        let qy = [0.0, 1.0, 7.0];
        let m = Rect::from_corners(1.0, 1.0, 2.0, 2.0);
        let k = BatchKernels::auto();
        let d2: Vec<f64> = (0..3)
            .map(|i| m.mindist_point_sq(Point::new(qx[i], qy[i])))
            .collect();
        assert_eq!(
            k.rect_mindist_sq_max(&m, &qx, &qy),
            d2.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        assert_eq!(
            k.rect_mindist_sq_min(&m, &qx, &qy),
            d2.iter().copied().fold(f64::INFINITY, f64::min)
        );
        let p = Point::new(3.0, 3.0);
        let e2: Vec<f64> = (0..3)
            .map(|i| p.dist_sq(Point::new(qx[i], qy[i])))
            .collect();
        assert_eq!(
            k.point_dist_sq_max(p, &qx, &qy),
            e2.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        assert_eq!(
            k.point_dist_sq_min(p, &qx, &qy),
            e2.iter().copied().fold(f64::INFINITY, f64::min)
        );
    }

    // The lower-bound kernel's SAFETY contract, pinned at its safe boundary
    // on every level (the checks run before the dispatch).
    #[test]
    #[should_panic]
    fn lower_bound_refuses_point_slices_short_of_their_padding() {
        let (xs, q, w) = ([0.0; 9], [0.0; 2], [1.0f32; 2]);
        // 9 logical points need 16 readable lanes.
        BatchKernels::auto().points_weighted_dist_sum_lower_padded(
            &xs,
            &xs,
            9,
            &q,
            &q,
            &w,
            &mut Vec::new(),
        );
    }

    #[test]
    #[should_panic]
    fn lower_bound_refuses_query_slices_of_unequal_length() {
        let (xs, q, w) = ([0.0; 8], [0.0; 3], [1.0f32; 2]);
        BatchKernels::auto().points_weighted_dist_sum_lower_padded(
            &xs,
            &xs,
            8,
            &q,
            &q,
            &w,
            &mut Vec::new(),
        );
    }

    #[test]
    fn every_available_level_matches_the_scalar_oracle_bitwise() {
        use crate::simd::LANE_COUNT;
        // Every ragged length around the lane-block boundaries, plus one
        // well past them.
        for n in (0..=2 * LANE_COUNT + 1).chain([33]) {
            let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 50.0).collect();
            let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).cos() * 50.0).collect();
            // Poison the padding with values that would corrupt any result
            // that read them (the arena uses 0.0; the contract is stronger:
            // padding is *never read into a result*).
            let (mut xp, mut yp) = (xs.clone(), ys.clone());
            xp.resize(pad_len(n), 1e300);
            yp.resize(pad_len(n), -1e300);
            let qn = 5;
            let qx: Vec<f64> = (0..qn).map(|i| i as f64 * 3.3 - 6.0).collect();
            let qy: Vec<f64> = (0..qn).map(|i| 4.0 - i as f64 * 2.1).collect();
            let w: Vec<f64> = (0..qn).map(|i| 0.25 + i as f64 * 0.5).collect();
            let q = Point::new(1.5, -2.5);
            let m = Rect::from_corners(-3.0, -3.0, 3.0, 3.0);

            for level in SimdLevel::available_levels() {
                let k = BatchKernels::for_level(level).unwrap();
                let (mut a, mut b) = (Vec::new(), Vec::new());

                scalar::points_dist_sq(&xs, &ys, q, &mut a);
                k.points_dist_sq_padded(&xp, &yp, n, q, &mut b);
                assert_eq!(a, b, "points_dist_sq n={n} level={level:?}");

                scalar::points_mindist_sq_rect(&xs, &ys, &m, &mut a);
                k.points_mindist_sq_rect_padded(&xp, &yp, n, &m, &mut b);
                assert_eq!(a, b, "points_mindist_sq_rect n={n} level={level:?}");

                scalar::rects_mindist_sq_point(&xs, &ys, &xs, &ys, q, &mut a);
                k.rects_mindist_sq_point_padded(&xp, &yp, &xp, &yp, n, q, &mut b);
                assert_eq!(a, b, "rects_mindist_sq_point n={n} level={level:?}");

                scalar::rects_mindist_sq_rect(&xs, &ys, &xs, &ys, &m, &mut a);
                k.rects_mindist_sq_rect_padded(&xp, &yp, &xp, &yp, n, &m, &mut b);
                assert_eq!(a, b, "rects_mindist_sq_rect n={n} level={level:?}");

                scalar::points_weighted_dist_sum_multi(&xs, &ys, &qx, &qy, &w, &mut a);
                k.points_weighted_dist_sum_multi_padded(&xp, &yp, n, &qx, &qy, &w, &mut b);
                assert_eq!(a, b, "wsum_multi n={n} level={level:?}");

                scalar::points_dist_sq_max_multi(&xs, &ys, &qx, &qy, &mut a);
                k.points_dist_sq_max_multi_padded(&xp, &yp, n, &qx, &qy, &mut b);
                assert_eq!(a, b, "max_multi n={n} level={level:?}");

                scalar::points_dist_sq_min_multi(&xs, &ys, &qx, &qy, &mut a);
                k.points_dist_sq_min_multi_padded(&xp, &yp, n, &qx, &qy, &mut b);
                assert_eq!(a, b, "min_multi n={n} level={level:?}");

                // The group-dimension folds take exact slices: `xs`/`ys`
                // double as a ragged query group here.
                if n > 0 {
                    assert_eq!(
                        scalar::rect_weighted_mindist_sum(&m, &xs, &ys, &xs),
                        k.rect_weighted_mindist_sum(&m, &xs, &ys, &xs),
                        "rect_wsum n={n} level={level:?}"
                    );
                }
                assert_eq!(
                    scalar::rect_mindist_sq_max(&m, &xs, &ys),
                    k.rect_mindist_sq_max(&m, &xs, &ys),
                    "rect_max n={n} level={level:?}"
                );
                assert_eq!(
                    scalar::rect_mindist_sq_min(&m, &xs, &ys),
                    k.rect_mindist_sq_min(&m, &xs, &ys),
                    "rect_min n={n} level={level:?}"
                );
                assert_eq!(
                    scalar::point_dist_sq_max(q, &xs, &ys),
                    k.point_dist_sq_max(q, &xs, &ys),
                    "point_max n={n} level={level:?}"
                );
                assert_eq!(
                    scalar::point_dist_sq_min(q, &xs, &ys),
                    k.point_dist_sq_min(q, &xs, &ys),
                    "point_min n={n} level={level:?}"
                );
            }
        }
    }
}
