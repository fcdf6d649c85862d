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
//! bound ([`crate::bound::LeafBound`]) decides which entries pay for the
//! exact fold at all.
//!
//! The elementwise and multi-point kernels exist only as `*_padded` methods
//! over **lane-padded** inputs: the caller passes the logical element count
//! `n` while the coordinate slices hold at least
//! [`crate::simd::pad_len`]`(n)` readable lanes (packed-arena page spans are
//! stored this way). Full vectors then cover the whole range with no scalar
//! tail; exactly `n` results come back, so the sentinel values in the
//! padding lanes never influence an output. The six group-dimension folds
//! take the query group's exact (unpadded) arrays.
//!
//! One of them is the exact SUM distance of a single point
//! ([`BatchKernels::point_weighted_dist_sum`], what `gnn-core`'s
//! `QueryGroup::dist` runs for every entry the leaf bounds could not rule
//! out). Its AVX2 body computes the terms four lanes at a time in the
//! scalar rounding order and adds them one by one in index order, as the
//! tight node bound's does: the fold's dependency chain stays, the scalar
//! `sqrtsd` a pair goes. [`scalar::point_weighted_dist_sum`], the seed's
//! loop, is its oracle.
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

// The only `unsafe` in this module is one call per dispatch arm into a safe
// `#[target_feature]` AVX2 kernel, which checks its own slice lengths: the
// call is sound because `BatchKernels` holds `Avx2Fma` only after runtime
// detection (see each SAFETY comment).
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

    /// `Σ_i w_i · √(mindist²(m, q_i))` over query points in SoA form — the
    /// SUM aggregate's tight node bound (heuristic 3) in one fused
    /// branch-free pass.
    ///
    /// The fold is deliberately **sequential**, making the result
    /// bit-identical to the scalar reference
    /// (`Σ w_i · Rect::mindist_point(q_i)` evaluated in order). Node keys
    /// computed through this kernel therefore match the seed's reference
    /// stream's exactly, which is what lets the test oracle pin the bounded
    /// MBM loop's node accesses with strict equality.
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

    /// `Σ_i w_i · |p q_i|` over query points in SoA form — the exact
    /// weighted SUM of one point, folded sequentially in index order. This
    /// is the seed's `QueryGroup::dist` loop, verbatim: every exact SUM
    /// distance a query reports is this fold's bits.
    ///
    /// # Panics
    ///
    /// Panics when the slices disagree in length.
    pub fn point_weighted_dist_sum(p: Point, qx: &[f64], qy: &[f64], w: &[f64]) -> f64 {
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        let mut acc = 0.0f64;
        for i in 0..n {
            let dx = qx[i] - p.x;
            let dy = qy[i] - p.y;
            acc += w[i] * (dx * dx + dy * dy).sqrt();
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

/// Level-pinned handle over the batch kernels.
///
/// All methods produce **bit-identical** results regardless of the level
/// (the SIMD contract in [`crate::simd`]); the level only changes how fast
/// they get there. Construct with [`BatchKernels::auto`] in production
/// code; [`BatchKernels::for_level`] exists so tests can compare levels
/// within one process. The one kernel that promises an inequality instead,
/// [`crate::bound::LeafBound`], is built from a handle and exists at AVX2
/// only.
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
            // `is_available`).
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
            // SAFETY: as in `rects_mindist_sq_point_padded`.
            SimdLevel::Avx2Fma => unsafe {
                simd::x86::rect_weighted_mindist_sum_avx2(m, qx, qy, w)
            },
            _ => scalar::rect_weighted_mindist_sum(m, qx, qy, w),
        }
    }

    /// See [`scalar::point_weighted_dist_sum`]: the exact SUM distance of
    /// one point. The AVX2 body computes four terms at a time in the scalar
    /// rounding order (`sub`, `mul`, `mul`, `add`, `sqrt`, `mul`) and adds
    /// them one by one in index order, so the result is bit-identical
    /// across levels.
    ///
    /// # Panics
    ///
    /// Panics when the slices disagree in length.
    pub fn point_weighted_dist_sum(&self, p: Point, qx: &[f64], qy: &[f64], w: &[f64]) -> f64 {
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        match self.level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `rects_mindist_sq_point_padded`.
            SimdLevel::Avx2Fma => unsafe { simd::x86::point_weighted_dist_sum_avx2(p, qx, qy, w) },
            _ => scalar::point_weighted_dist_sum(p, qx, qy, w),
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
            // SAFETY: as in `rects_mindist_sq_point_padded`.
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
            // SAFETY: as in `rects_mindist_sq_point_padded`.
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
}
