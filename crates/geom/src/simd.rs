//! Explicit SIMD backends for the [`crate::batch`] kernels.
//!
//! Two dispatch levels, selected **once** per process at first use:
//!
//! * [`SimdLevel::Avx2Fma`] — 256-bit, 4 `f64` lanes. Taken on `x86_64`
//!   when runtime detection reports both `avx2` and `fma`. (FMA gates the
//!   level and names it, but the bit-identical kernels never emit
//!   contracted multiply-adds: `fma(a,b,c)` rounds once where the scalar
//!   reference rounds twice, which would break bit-identity. Only the
//!   rounded-down `f32` lower bound — which promises an inequality, not
//!   bits — uses it.)
//! * [`SimdLevel::Scalar`] — the original scalar kernels
//!   ([`crate::batch::scalar`]), verbatim. The level on every other host,
//!   and forced everywhere by the `GNN_FORCE_SCALAR` environment variable
//!   (set to anything but `0`; see [`dispatch_level`]).
//!
//! No 128-bit level sits between them: AVX2 times at or below SSE2 on every
//! kernel, so SSE2 would serve only `x86_64` hosts without AVX2+FMA, and no
//! CI runner, benchmark or reference host is one (EXPERIMENTS.md).
//!
//! # Bit-identity contract
//!
//! Every SIMD kernel returns **bit-identical** results to its scalar
//! reference for finite inputs, because each one falls into (or composes)
//! two shapes that vectorize without changing any rounding:
//!
//! * **Elementwise maps** (`mindist²` / `dist²` per rectangle or point):
//!   each output lane runs the exact scalar operation sequence — IEEE
//!   sub/mul/add/sqrt round identically lane-wise, and the trailing
//!   `max(·, 0.0)` clamp makes the `maxpd`-vs-`f64::max` signed-zero
//!   difference unobservable (everything ≤ 0 collapses to `+0.0` on both
//!   paths).
//! * **Sequential folds stay sequential.** The weighted SUM aggregates
//!   never reassociate: vectors only compute the per-element terms, and
//!   the accumulation still happens one lane at a time in index order
//!   (or lane-parallel over *independent* accumulators, one per output).
//!   MAX/MIN folds may reduce in any order — on finite, non-NaN squared
//!   distances (always `≥ +0.0`) the maximum/minimum of a set is a single
//!   well-defined bit pattern.
//!
//! The property suite (`crates/geom/tests/batch_props.rs`) pins every
//! level to the scalar oracle bit-for-bit, including ragged and padded
//! lane counts.
//!
//! The exact multi-point weighted SUM has no body here: `sqrtpd` retires
//! the same elements per cycle at 128 and 256 bits and the compiler already
//! vectorizes the scalar fold at 128, so both levels dispatch
//! [`crate::batch::scalar::points_weighted_dist_sum_multi`].
//!
//! One kernel stands outside the contract on purpose:
//! [`crate::bound::LeafBound`] (AVX2 only) computes the weighted SUM in
//! `f32` and rounds it *down* by a stated margin — over the group's
//! members, and inside [`crate::bound::BlockBound`]'s `f32` width over its
//! blocks. It never produces a result — only the verdict that an entry's
//! exact SUM cannot be below a bound — and `crates/geom/tests/bounds.rs`
//! pins `lower <= exact` instead of equality.

#![allow(unsafe_code)] // core::arch intrinsics + raw-pointer kernel loops

use std::sync::OnceLock;

/// Lane quantum used for arena padding: `f64`s per 64-byte chunk. Page
/// spans in packed arenas are padded to a multiple of this: two 4-lane
/// `f64` vectors, or one 8-lane `f32` vector of the lower bound.
pub const LANE_COUNT: usize = 8;

/// `n` rounded up to a multiple of [`LANE_COUNT`] — the stride a padded
/// span of `n` entries occupies in a packed arena.
#[inline]
pub const fn pad_len(n: usize) -> usize {
    n.div_ceil(LANE_COUNT) * LANE_COUNT
}

/// A kernel dispatch level. Order is ascending capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Scalar reference kernels ([`crate::batch::scalar`]).
    Scalar,
    /// 256-bit AVX2 kernels (FMA detected; used by the `f32` lower bound
    /// only, never by a bit-identical kernel).
    Avx2Fma,
}

impl SimdLevel {
    /// Stable human/telemetry label: `"scalar"`, `"avx2+fma"`.
    pub const fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2+fma",
        }
    }

    /// Whether this level can run on the current host (ignores the
    /// `GNN_FORCE_SCALAR` override — scalar is always available).
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2Fma => false,
        }
    }

    /// Every level the current host can run, ascending (scalar first).
    pub fn available_levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2Fma]
            .into_iter()
            .filter(|l| l.is_available())
            .collect()
    }
}

/// The level the process-wide kernel dispatch uses, decided once at first
/// call and cached: [`SimdLevel::Avx2Fma`] when it is available and the
/// `GNN_FORCE_SCALAR` environment variable does not force scalar (set to
/// anything other than `""` or `"0"` — the escape hatch that keeps the
/// fallback path exercised in CI), otherwise [`SimdLevel::Scalar`].
// `#[inline]`: every kernel dispatch in the other crates starts here, and
// the cached path is one load — not worth a cross-crate call per bound.
#[inline]
pub fn dispatch_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if !force_scalar_requested() && SimdLevel::Avx2Fma.is_available() {
            SimdLevel::Avx2Fma
        } else {
            SimdLevel::Scalar
        }
    })
}

/// Whether `GNN_FORCE_SCALAR` asks for the scalar path (set, non-empty,
/// not `"0"`). Read directly — only [`dispatch_level`] caches.
pub fn force_scalar_requested() -> bool {
    match std::env::var("GNN_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! The AVX2 kernel bodies. The elementwise maps and the multi-point
    //! aggregates take `n` logical elements over lane-padded slices and run
    //! full vectors across all `pad_len(n)` lanes (sentinel lanes are
    //! computed into spare capacity and never exposed). The group-dimension
    //! reductions take exact slices: their leading multiple of four lanes
    //! runs as full vectors, the remainder runs the scalar reference code.
    //!
    //! Every kernel is an `unsafe` `#[target_feature(enable = "avx2,fma")]`
    //! function whose one call site — the dispatcher in `crate::batch`, or
    //! for the `f32` lower bound `crate::bound::LeafBound` — holds
    //! `Avx2Fma` only after runtime detection and asserts the slice lengths
    //! each kernel's `# Safety` section names. A map or multi-point
    //! kernel clears `out` and refills it with exactly `n` results.

    use super::{pad_len, LANE_COUNT};
    use crate::{Point, Rect};
    use core::arch::x86_64::*;

    /// Four `f64` lanes. Every method is `unsafe`: the intrinsics need the
    /// AVX2 the kernels below enable, and loads/stores trust the pointer
    /// range.
    #[derive(Clone, Copy)]
    struct V4(__m256d);

    impl V4 {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn loadu(p: *const f64) -> Self {
            V4(_mm256_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn storeu(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            V4(_mm256_set1_pd(v))
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            V4(_mm256_add_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            V4(_mm256_sub_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            V4(_mm256_mul_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn vmax(self, o: Self) -> Self {
            V4(_mm256_max_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn vmin(self, o: Self) -> Self {
            V4(_mm256_min_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn vsqrt(self) -> Self {
            V4(_mm256_sqrt_pd(self.0))
        }
    }

    /// Clears `out`, guarantees capacity for `pad_len(n)` lanes (so full
    /// vectors may store past `n` into spare capacity) and returns the
    /// write pointer with that padded lane count — the span the kernel's
    /// vector loop covers. Callers must `set_len(n)` after filling it.
    #[inline(always)]
    fn prep_out(out: &mut Vec<f64>, n: usize) -> (*mut f64, usize) {
        let padded = pad_len(n);
        out.clear();
        out.reserve(padded);
        (out.as_mut_ptr(), padded)
    }

    /// `dx = max(max(a - v, v - b), 0.0)` — the branch-free
    /// interval-excess with the clamp LAST, so any signed-zero difference
    /// between `maxpd` and `f64::max` collapses to `+0.0` on both paths.
    #[inline(always)]
    unsafe fn excess(v: V4, lo: V4, hi: V4, zero: V4) -> V4 {
        lo.sub(v).vmax(v.sub(hi)).vmax(zero)
    }

    /// `dx² + dy²` with the scalar's rounding order (mul, mul, add).
    #[inline(always)]
    unsafe fn hypot_sq(dx: V4, dy: V4) -> V4 {
        dx.mul(dx).add(dy.mul(dy))
    }

    // ---- elementwise maps -------------------------------------------

    /// `out[i] = mindist²(rect_i, q)`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, and every coordinate slice holds
    /// `pad_len(n)` readable lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn rects_mindist_sq_point_avx2(
        lo_x: &[f64],
        lo_y: &[f64],
        hi_x: &[f64],
        hi_y: &[f64],
        n: usize,
        q: Point,
        out: &mut Vec<f64>,
    ) {
        let (po, vec_n) = prep_out(out, n);
        let (plx, ply, phx, phy) = (lo_x.as_ptr(), lo_y.as_ptr(), hi_x.as_ptr(), hi_y.as_ptr());
        let qx = V4::splat(q.x);
        let qy = V4::splat(q.y);
        let zero = V4::splat(0.0);
        let mut i = 0;
        while i < vec_n {
            let dx = excess(qx, V4::loadu(plx.add(i)), V4::loadu(phx.add(i)), zero);
            let dy = excess(qy, V4::loadu(ply.add(i)), V4::loadu(phy.add(i)), zero);
            hypot_sq(dx, dy).storeu(po.add(i));
            i += V4::LANES;
        }
        out.set_len(n);
    }

    /// `out[i] = mindist²(rect_i, m)`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, and every coordinate slice holds
    /// `pad_len(n)` readable lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn rects_mindist_sq_rect_avx2(
        lo_x: &[f64],
        lo_y: &[f64],
        hi_x: &[f64],
        hi_y: &[f64],
        n: usize,
        m: &Rect,
        out: &mut Vec<f64>,
    ) {
        let (po, vec_n) = prep_out(out, n);
        let (plx, ply, phx, phy) = (lo_x.as_ptr(), lo_y.as_ptr(), hi_x.as_ptr(), hi_y.as_ptr());
        let (mlx, mly, mhx, mhy) = (
            V4::splat(m.lo.x),
            V4::splat(m.lo.y),
            V4::splat(m.hi.x),
            V4::splat(m.hi.y),
        );
        let zero = V4::splat(0.0);
        let mut i = 0;
        while i < vec_n {
            // gap = max(max(b_lo - a_hi, a_lo - b_hi), 0.0), clamp last.
            let dx = mlx
                .sub(V4::loadu(phx.add(i)))
                .vmax(V4::loadu(plx.add(i)).sub(mhx))
                .vmax(zero);
            let dy = mly
                .sub(V4::loadu(phy.add(i)))
                .vmax(V4::loadu(ply.add(i)).sub(mhy))
                .vmax(zero);
            hypot_sq(dx, dy).storeu(po.add(i));
            i += V4::LANES;
        }
        out.set_len(n);
    }

    /// `out[i] = |p_i q|²`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, and every coordinate slice holds
    /// `pad_len(n)` readable lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn points_dist_sq_avx2(
        xs: &[f64],
        ys: &[f64],
        n: usize,
        q: Point,
        out: &mut Vec<f64>,
    ) {
        let (po, vec_n) = prep_out(out, n);
        let (px, py) = (xs.as_ptr(), ys.as_ptr());
        let qx = V4::splat(q.x);
        let qy = V4::splat(q.y);
        let mut i = 0;
        while i < vec_n {
            let dx = V4::loadu(px.add(i)).sub(qx);
            let dy = V4::loadu(py.add(i)).sub(qy);
            hypot_sq(dx, dy).storeu(po.add(i));
            i += V4::LANES;
        }
        out.set_len(n);
    }

    // ---- fused multi-point aggregates -------------------------------
    //
    // `out[j]` folds over the query points `i`; lanes are independent
    // output accumulators, so vectorizing over `j` keeps every fold
    // sequential in `i` — bit-identical to the scalar kernels. The body
    // is unrolled ×2 (two vectors of accumulators) to overlap the fold
    // dependency chains. MAX and MIN only: the exact weighted SUM runs the
    // scalar fold at both levels (module docs).

    /// `out[j] = max_i |p_j q_i|²` (`MAX`) or `min_i |p_j q_i|²`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, `xs` and `ys` hold `pad_len(m)` readable
    /// lanes, and `qy` at least `qx.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn points_dist_sq_fold_multi_avx2<const MAX: bool>(
        xs: &[f64],
        ys: &[f64],
        m: usize,
        qx: &[f64],
        qy: &[f64],
        out: &mut Vec<f64>,
    ) {
        let identity = if MAX {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        let (po, vec_m) = prep_out(out, m);
        let (px, py) = (xs.as_ptr(), ys.as_ptr());
        let n = qx.len();
        #[inline(always)]
        unsafe fn fold1<const MAX: bool>(acc: V4, d2: V4) -> V4 {
            if MAX {
                acc.vmax(d2)
            } else {
                acc.vmin(d2)
            }
        }
        let mut j = 0;
        while j + 2 * V4::LANES <= vec_m {
            let x0 = V4::loadu(px.add(j));
            let y0 = V4::loadu(py.add(j));
            let x1 = V4::loadu(px.add(j + V4::LANES));
            let y1 = V4::loadu(py.add(j + V4::LANES));
            let mut a0 = V4::splat(identity);
            let mut a1 = V4::splat(identity);
            for i in 0..n {
                let qxi = V4::splat(qx[i]);
                let qyi = V4::splat(qy[i]);
                a0 = fold1::<MAX>(a0, hypot_sq(x0.sub(qxi), y0.sub(qyi)));
                a1 = fold1::<MAX>(a1, hypot_sq(x1.sub(qxi), y1.sub(qyi)));
            }
            a0.storeu(po.add(j));
            a1.storeu(po.add(j + V4::LANES));
            j += 2 * V4::LANES;
        }
        // `pad_len`'s quantum is 8 lanes, a whole number of unrolled steps
        // (2 × 4): there is no remainder.
        debug_assert!(vec_m % (2 * V4::LANES) == 0);
        out.set_len(m);
    }

    // ---- rounded-down f32 lower bound of the weighted SUM -----------
    //
    // The one kernel here that is *not* bit-identical to anything: it
    // answers "is this entry's SUM certainly at or above the bound?" at
    // `vsqrtps` speed (8 lanes a vector), so that only the entries it
    // cannot rule out pay the exact `sqrtpd` fold. Error model and
    // margin: the `crate::bound` module docs.

    /// Eight consecutive `f64` coordinates as two vectors.
    type Coords8 = (__m256d, __m256d);

    #[inline(always)]
    unsafe fn load8(p: *const f64) -> Coords8 {
        (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)))
    }

    /// `(v - q)` over 8 entries, each difference taken in `f64` and then
    /// narrowed to `f32` (round to nearest): narrowing the *coordinates*
    /// first would cancel catastrophically wherever the data sits far
    /// from the origin.
    #[inline(always)]
    unsafe fn diff_narrow8(v: Coords8, q: __m256d) -> __m256 {
        let lo = _mm256_cvtpd_ps(_mm256_sub_pd(v.0, q));
        let hi = _mm256_cvtpd_ps(_mm256_sub_pd(v.1, q));
        _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
    }

    /// `|p_j q|` in `f32` for 8 entries `(x, y)` against one query point:
    /// `√(fma(dx, dx, dy·dy))`.
    #[inline(always)]
    unsafe fn dist8(x: Coords8, y: Coords8, qx: __m256d, qy: __m256d) -> __m256 {
        let (dx, dy) = (diff_narrow8(x, qx), diff_narrow8(y, qy));
        _mm256_sqrt_ps(_mm256_fmadd_ps(dx, dx, _mm256_mul_ps(dy, dy)))
    }

    /// `acc * scale - abs` in `f64`, 8 lanes, into `po[0..8]`.
    #[inline(always)]
    unsafe fn store_lower8(acc: __m256, scale: __m256d, abs: __m256d, po: *mut f64) {
        let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(acc));
        let hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(acc));
        _mm256_storeu_pd(po, _mm256_sub_pd(_mm256_mul_pd(lo, scale), abs));
        _mm256_storeu_pd(po.add(4), _mm256_sub_pd(_mm256_mul_pd(hi, scale), abs));
    }

    /// `out[j] = (Σ_i w_i · |p_j q_i|, in f32) · scale − abs` for `m`
    /// logical points over `pad_len(m)` lanes; `out` is cleared and
    /// refilled with exactly `m` values. Unrolled ×2 like the multi-point
    /// folds.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, `xs` and `ys` hold `pad_len(m)` readable
    /// lanes, and `qx`, `qy`, `w` agree in length.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn points_weighted_dist_sum_lower_avx2(
        xs: &[f64],
        ys: &[f64],
        m: usize,
        qx: &[f64],
        qy: &[f64],
        w: &[f32],
        scale: f64,
        abs: f64,
        out: &mut Vec<f64>,
    ) {
        // `LANE_COUNT` f32 lanes fill one 256-bit vector exactly, so the
        // padded span is a whole number of vectors.
        const LANES: usize = LANE_COUNT;
        let (po, vec_m) = prep_out(out, m);
        let (px, py) = (xs.as_ptr(), ys.as_ptr());
        let n = qx.len();
        let (scale, abs) = (_mm256_set1_pd(scale), _mm256_set1_pd(abs));
        let mut j = 0;
        while j + 2 * LANES <= vec_m {
            let (x0, y0) = (load8(px.add(j)), load8(py.add(j)));
            let (x1, y1) = (load8(px.add(j + LANES)), load8(py.add(j + LANES)));
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            for i in 0..n {
                let qxi = _mm256_set1_pd(qx[i]);
                let qyi = _mm256_set1_pd(qy[i]);
                let wi = _mm256_set1_ps(w[i]);
                a0 = _mm256_fmadd_ps(wi, dist8(x0, y0, qxi, qyi), a0);
                a1 = _mm256_fmadd_ps(wi, dist8(x1, y1, qxi, qyi), a1);
            }
            store_lower8(a0, scale, abs, po.add(j));
            store_lower8(a1, scale, abs, po.add(j + LANES));
            j += 2 * LANES;
        }
        if j < vec_m {
            let (x0, y0) = (load8(px.add(j)), load8(py.add(j)));
            let mut a0 = _mm256_setzero_ps();
            for i in 0..n {
                let d = dist8(x0, y0, _mm256_set1_pd(qx[i]), _mm256_set1_pd(qy[i]));
                a0 = _mm256_fmadd_ps(_mm256_set1_ps(w[i]), d, a0);
            }
            store_lower8(a0, scale, abs, po.add(j));
        }
        out.set_len(m);
    }

    // ---- group-dimension reductions ---------------------------------
    //
    // These fold over the query points themselves. The weighted SUMs (of a
    // rectangle's and of a point's distances) keep their accumulation
    // strictly sequential (vectors only produce the per-element terms,
    // added back in index order); MAX/MIN reduce vector-first, which is
    // order-safe on squared distances (no NaN, no -0.0 — see module docs).

    /// `Σ_i w_i · √(mindist²(m, q_i))`, accumulated in index order.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, and `qy` and `w` hold at least
    /// `qx.len()` lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn rect_weighted_mindist_sum_avx2(
        m: &Rect,
        qx: &[f64],
        qy: &[f64],
        w: &[f64],
    ) -> f64 {
        let n = qx.len();
        let vec_n = n - n % V4::LANES;
        let (px, py, pw) = (qx.as_ptr(), qy.as_ptr(), w.as_ptr());
        let (mlx, mly, mhx, mhy) = (
            V4::splat(m.lo.x),
            V4::splat(m.lo.y),
            V4::splat(m.hi.x),
            V4::splat(m.hi.y),
        );
        let zero = V4::splat(0.0);
        let mut buf = [0.0f64; V4::LANES];
        let mut acc = 0.0f64;
        let mut i = 0;
        while i < vec_n {
            let dx = excess(V4::loadu(px.add(i)), mlx, mhx, zero);
            let dy = excess(V4::loadu(py.add(i)), mly, mhy, zero);
            let t = V4::loadu(pw.add(i)).mul(hypot_sq(dx, dy).vsqrt());
            t.storeu(buf.as_mut_ptr());
            // Strictly sequential accumulation in index order — the SUM
            // bound must match the scalar fold bit-for-bit.
            for &b in &buf {
                acc += b;
            }
            i += V4::LANES;
        }
        for i in vec_n..n {
            let dx = (m.lo.x - qx[i]).max(qx[i] - m.hi.x).max(0.0);
            let dy = (m.lo.y - qy[i]).max(qy[i] - m.hi.y).max(0.0);
            acc += w[i] * (dx * dx + dy * dy).sqrt();
        }
        acc
    }

    /// `Σ_i w_i · |p q_i|`, accumulated in index order: the terms four
    /// lanes at a time, their sum one lane at a time.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, and `qy` and `w` hold at least
    /// `qx.len()` lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn point_weighted_dist_sum_avx2(p: Point, qx: &[f64], qy: &[f64], w: &[f64]) -> f64 {
        let n = qx.len();
        let vec_n = n - n % V4::LANES;
        let (pqx, pqy, pw) = (qx.as_ptr(), qy.as_ptr(), w.as_ptr());
        let (vx, vy) = (V4::splat(p.x), V4::splat(p.y));
        let mut buf = [0.0f64; V4::LANES];
        let mut acc = 0.0f64;
        let mut i = 0;
        while i < vec_n {
            let dx = V4::loadu(pqx.add(i)).sub(vx);
            let dy = V4::loadu(pqy.add(i)).sub(vy);
            let t = V4::loadu(pw.add(i)).mul(hypot_sq(dx, dy).vsqrt());
            t.storeu(buf.as_mut_ptr());
            // Sequential, as in `rect_weighted_mindist_sum_avx2`.
            for &b in &buf {
                acc += b;
            }
            i += V4::LANES;
        }
        for i in vec_n..n {
            let dx = qx[i] - p.x;
            let dy = qy[i] - p.y;
            acc += w[i] * (dx * dx + dy * dy).sqrt();
        }
        acc
    }

    /// `max_i mindist²(m, q_i)` (`MAX`) or `min_i`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, and `qy` holds at least `qx.len()` lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn rect_mindist_sq_fold_avx2<const MAX: bool>(
        m: &Rect,
        qx: &[f64],
        qy: &[f64],
    ) -> f64 {
        let identity = if MAX {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        let n = qx.len();
        let vec_n = n - n % V4::LANES;
        let (px, py) = (qx.as_ptr(), qy.as_ptr());
        let (mlx, mly, mhx, mhy) = (
            V4::splat(m.lo.x),
            V4::splat(m.lo.y),
            V4::splat(m.hi.x),
            V4::splat(m.hi.y),
        );
        let zero = V4::splat(0.0);
        let mut vacc = V4::splat(identity);
        let mut i = 0;
        while i < vec_n {
            let dx = excess(V4::loadu(px.add(i)), mlx, mhx, zero);
            let dy = excess(V4::loadu(py.add(i)), mly, mhy, zero);
            let d2 = hypot_sq(dx, dy);
            vacc = if MAX { vacc.vmax(d2) } else { vacc.vmin(d2) };
            i += V4::LANES;
        }
        let mut buf = [0.0f64; V4::LANES];
        vacc.storeu(buf.as_mut_ptr());
        let mut acc = identity;
        for &b in &buf {
            acc = if MAX { acc.max(b) } else { acc.min(b) };
        }
        for i in vec_n..n {
            let dx = (m.lo.x - qx[i]).max(qx[i] - m.hi.x).max(0.0);
            let dy = (m.lo.y - qy[i]).max(qy[i] - m.hi.y).max(0.0);
            let d2 = dx * dx + dy * dy;
            acc = if MAX { acc.max(d2) } else { acc.min(d2) };
        }
        acc
    }

    /// `max_i |p q_i|²` (`MAX`) or `min_i`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, and `qy` holds at least `qx.len()` lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn point_dist_sq_fold_avx2<const MAX: bool>(
        p: Point,
        qx: &[f64],
        qy: &[f64],
    ) -> f64 {
        let identity = if MAX {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        let n = qx.len();
        let vec_n = n - n % V4::LANES;
        let (pqx, pqy) = (qx.as_ptr(), qy.as_ptr());
        let vx = V4::splat(p.x);
        let vy = V4::splat(p.y);
        let mut vacc = V4::splat(identity);
        let mut i = 0;
        while i < vec_n {
            let dx = V4::loadu(pqx.add(i)).sub(vx);
            let dy = V4::loadu(pqy.add(i)).sub(vy);
            let d2 = hypot_sq(dx, dy);
            vacc = if MAX { vacc.vmax(d2) } else { vacc.vmin(d2) };
            i += V4::LANES;
        }
        let mut buf = [0.0f64; V4::LANES];
        vacc.storeu(buf.as_mut_ptr());
        let mut acc = identity;
        for &b in &buf {
            acc = if MAX { acc.max(b) } else { acc.min(b) };
        }
        for i in vec_n..n {
            let dx = qx[i] - p.x;
            let dy = qy[i] - p.y;
            let d2 = dx * dx + dy * dy;
            acc = if MAX { acc.max(d2) } else { acc.min(d2) };
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_len_rounds_to_lane_quanta() {
        assert_eq!(pad_len(0), 0);
        assert_eq!(pad_len(1), 8);
        assert_eq!(pad_len(8), 8);
        assert_eq!(pad_len(9), 16);
        assert_eq!(pad_len(16), 16);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Avx2Fma.label(), "avx2+fma");
    }

    #[test]
    fn available_levels_are_scalar_then_avx2_when_detected() {
        assert!(SimdLevel::Scalar.is_available());
        let levels = SimdLevel::available_levels();
        let avx2 = SimdLevel::Avx2Fma.is_available();
        let want: &[SimdLevel] = match avx2 {
            true => &[SimdLevel::Scalar, SimdLevel::Avx2Fma],
            false => &[SimdLevel::Scalar],
        };
        assert_eq!(levels, want);
    }

    #[test]
    fn dispatch_level_is_avx2_exactly_when_available_and_not_forced() {
        let first = dispatch_level();
        assert_eq!(dispatch_level(), first, "cached");
        let avx2 = SimdLevel::Avx2Fma.is_available() && !force_scalar_requested();
        assert_eq!(first == SimdLevel::Avx2Fma, avx2);
    }
}
