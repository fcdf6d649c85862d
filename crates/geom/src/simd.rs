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

#![allow(unsafe_code)] // `x86`'s lane load/store helpers and `fill_padded`'s `set_len`

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
    //! Every kernel is a safe `#[target_feature(enable = "avx2,fma")]`
    //! function over slices. It cuts each input to the lanes it reads
    //! (`&xs[..pad_len(n)]`, or the group's `qx.len()`), so a short slice
    //! panics instead of being read past, and walks those lanes as zipped
    //! fixed-size arrays (`as_chunks`): no lane is indexed and no pointer is
    //! offset. Four helpers keep an `unsafe` block, each over exactly the
    //! lanes of the array it is given: `V4::load`, `V4::store`,
    //! `V4::store_uninit` and the `set_len` of `fill_padded`. What a
    //! caller still proves is the CPU: the dispatcher in `crate::batch`, or
    //! for the `f32` lower bound `crate::bound::LeafBound`, calls a kernel
    //! only at `Avx2Fma`, which it holds only after runtime detection. A
    //! map or multi-point kernel clears `out` and refills it with exactly
    //! `n` results.

    use super::pad_len;
    use crate::{Point, Rect};
    use core::arch::x86_64::*;
    use core::mem::MaybeUninit;

    /// Four `f64` lanes. The arithmetic is safe wherever AVX2 is enabled;
    /// the load and the stores take arrays of exactly four lanes.
    #[derive(Clone, Copy)]
    struct V4(__m256d);

    impl V4 {
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn load(a: &[f64; 4]) -> Self {
            // SAFETY: `a` is four readable `f64`s; the load is unaligned.
            V4(unsafe { _mm256_loadu_pd(a.as_ptr()) })
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn store(self, a: &mut [f64; 4]) {
            // SAFETY: `a` is four writable `f64`s; the store is unaligned.
            unsafe { _mm256_storeu_pd(a.as_mut_ptr(), self.0) }
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn store_uninit(self, a: &mut [MaybeUninit<f64>; 4]) {
            // SAFETY: `a` is four writable lanes with `f64`'s layout; the store is unaligned.
            unsafe { _mm256_storeu_pd(a.as_mut_ptr().cast(), self.0) }
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn splat(v: f64) -> Self {
            V4(_mm256_set1_pd(v))
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn add(self, o: Self) -> Self {
            V4(_mm256_add_pd(self.0, o.0))
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn sub(self, o: Self) -> Self {
            V4(_mm256_sub_pd(self.0, o.0))
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn mul(self, o: Self) -> Self {
            V4(_mm256_mul_pd(self.0, o.0))
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn vmax(self, o: Self) -> Self {
            V4(_mm256_max_pd(self.0, o.0))
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn vmin(self, o: Self) -> Self {
            V4(_mm256_min_pd(self.0, o.0))
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn vsqrt(self) -> Self {
            V4(_mm256_sqrt_pd(self.0))
        }
        /// `max` (`MAX`) or `min` of two vectors, lane by lane.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn fold<const MAX: bool>(self, o: Self) -> Self {
            if MAX {
                self.vmax(o)
            } else {
                self.vmin(o)
            }
        }
    }

    /// The identity of the `MAX` (`−∞`) or `MIN` (`+∞`) fold.
    const fn identity<const MAX: bool>() -> f64 {
        if MAX {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        }
    }

    /// `max` (`MAX`) or `min` of two scalars, as the scalar folds take it.
    #[inline]
    fn fold<const MAX: bool>(a: f64, b: f64) -> f64 {
        if MAX {
            a.max(b)
        } else {
            a.min(b)
        }
    }

    /// The `pad_len(n)` lanes of a padded span as 4-lane arrays.
    ///
    /// # Panics
    ///
    /// When `xs` is shorter than `pad_len(n)`.
    #[inline]
    fn lanes4(xs: &[f64], n: usize) -> &[[f64; 4]] {
        xs[..pad_len(n)].as_chunks().0
    }

    /// [`lanes4`] in steps of eight lanes, two vectors each (`pad_len`'s
    /// quantum is eight lanes, so no lane is left over).
    #[inline]
    fn lanes8(xs: &[f64], n: usize) -> &[[[f64; 4]; 2]] {
        lanes4(xs, n).as_chunks().0
    }

    /// Clears `out`, stores `steps` into its spare capacity — `S` vectors a
    /// step, over the `pad_len(n)` lanes rounded up to whole steps — and
    /// exposes the first `n`.
    ///
    /// # Panics
    ///
    /// When `steps` ends before those lanes do.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn fill_padded<const S: usize>(
        out: &mut Vec<f64>,
        n: usize,
        steps: impl Iterator<Item = [V4; S]>,
    ) {
        let span = pad_len(n).next_multiple_of(4 * S);
        out.clear();
        out.reserve(span);
        let (lanes, rest) = out.spare_capacity_mut()[..span].as_chunks_mut::<4>();
        let (spans, span_rest) = lanes.as_chunks_mut::<S>();
        let mut filled = 0;
        for (span, vs) in spans.iter_mut().zip(steps) {
            for (lane, v) in span.iter_mut().zip(vs) {
                v.store_uninit(lane);
            }
            filled += 1;
        }
        assert!(rest.is_empty() && span_rest.is_empty() && filled == spans.len());
        // SAFETY: the loop stored a vector into every lane of `spans`, which cover `span >= n` lanes.
        unsafe { out.set_len(n) }
    }

    /// `dx = max(max(a - v, v - b), 0.0)` — the branch-free
    /// interval-excess with the clamp LAST, so any signed-zero difference
    /// between `maxpd` and `f64::max` collapses to `+0.0` on both paths.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn excess(v: V4, lo: V4, hi: V4, zero: V4) -> V4 {
        lo.sub(v).vmax(v.sub(hi)).vmax(zero)
    }

    /// `dx² + dy²` with the scalar's rounding order (mul, mul, add).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn hypot_sq(dx: V4, dy: V4) -> V4 {
        dx.mul(dx).add(dy.mul(dy))
    }

    /// A rectangle's four corner coordinates, each in every lane.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn splat_rect(m: &Rect) -> [V4; 4] {
        let (lo, hi) = (m.lo, m.hi);
        [
            V4::splat(lo.x),
            V4::splat(lo.y),
            V4::splat(hi.x),
            V4::splat(hi.y),
        ]
    }

    // ---- elementwise maps -------------------------------------------

    /// `out[i] = mindist²(rect_i, q)`.
    #[target_feature(enable = "avx2,fma")]
    pub fn rects_mindist_sq_point_avx2(
        lo_x: &[f64],
        lo_y: &[f64],
        hi_x: &[f64],
        hi_y: &[f64],
        n: usize,
        q: Point,
        out: &mut Vec<f64>,
    ) {
        let (qx, qy, zero) = (V4::splat(q.x), V4::splat(q.y), V4::splat(0.0));
        let (lo, hi) = (
            lanes4(lo_x, n).iter().zip(lanes4(lo_y, n)),
            lanes4(hi_x, n).iter().zip(lanes4(hi_y, n)),
        );
        let steps = lo.zip(hi).map(|((lx, ly), (hx, hy))| {
            let dx = excess(qx, V4::load(lx), V4::load(hx), zero);
            let dy = excess(qy, V4::load(ly), V4::load(hy), zero);
            [hypot_sq(dx, dy)]
        });
        fill_padded(out, n, steps);
    }

    /// `out[i] = mindist²(rect_i, m)`.
    #[target_feature(enable = "avx2,fma")]
    pub fn rects_mindist_sq_rect_avx2(
        lo_x: &[f64],
        lo_y: &[f64],
        hi_x: &[f64],
        hi_y: &[f64],
        n: usize,
        m: &Rect,
        out: &mut Vec<f64>,
    ) {
        let [mlx, mly, mhx, mhy] = splat_rect(m);
        let zero = V4::splat(0.0);
        let (lo, hi) = (
            lanes4(lo_x, n).iter().zip(lanes4(lo_y, n)),
            lanes4(hi_x, n).iter().zip(lanes4(hi_y, n)),
        );
        let steps = lo.zip(hi).map(|((lx, ly), (hx, hy))| {
            // gap = max(max(b_lo - a_hi, a_lo - b_hi), 0.0), clamp last.
            let dx = mlx.sub(V4::load(hx)).vmax(V4::load(lx).sub(mhx)).vmax(zero);
            let dy = mly.sub(V4::load(hy)).vmax(V4::load(ly).sub(mhy)).vmax(zero);
            [hypot_sq(dx, dy)]
        });
        fill_padded(out, n, steps);
    }

    /// `out[i] = |p_i q|²`.
    #[target_feature(enable = "avx2,fma")]
    pub fn points_dist_sq_avx2(xs: &[f64], ys: &[f64], n: usize, q: Point, out: &mut Vec<f64>) {
        let (qx, qy) = (V4::splat(q.x), V4::splat(q.y));
        let steps = lanes4(xs, n)
            .iter()
            .zip(lanes4(ys, n))
            .map(|(x, y)| [hypot_sq(V4::load(x).sub(qx), V4::load(y).sub(qy))]);
        fill_padded(out, n, steps);
    }

    // ---- fused multi-point aggregates -------------------------------
    //
    // `out[j]` folds over the query points `i`; lanes are independent
    // output accumulators, so vectorizing over `j` keeps every fold
    // sequential in `i` — bit-identical to the scalar kernels. A step
    // holds two vectors of accumulators, to overlap the fold dependency
    // chains. MAX and MIN only: the exact weighted SUM runs the scalar fold
    // at both levels (module docs).

    /// `out[j] = max_i |p_j q_i|²` (`MAX`) or `min_i |p_j q_i|²`.
    #[target_feature(enable = "avx2,fma")]
    pub fn points_dist_sq_fold_multi_avx2<const MAX: bool>(
        xs: &[f64],
        ys: &[f64],
        m: usize,
        qx: &[f64],
        qy: &[f64],
        out: &mut Vec<f64>,
    ) {
        let qy = &qy[..qx.len()];
        let steps = lanes8(xs, m)
            .iter()
            .zip(lanes8(ys, m))
            .map(|([x0, x1], [y0, y1])| {
                let (x0, x1, y0, y1) = (V4::load(x0), V4::load(x1), V4::load(y0), V4::load(y1));
                let (mut a0, mut a1) = (V4::splat(identity::<MAX>()), V4::splat(identity::<MAX>()));
                for (&qxi, &qyi) in qx.iter().zip(qy) {
                    let (qxi, qyi) = (V4::splat(qxi), V4::splat(qyi));
                    a0 = a0.fold::<MAX>(hypot_sq(x0.sub(qxi), y0.sub(qyi)));
                    a1 = a1.fold::<MAX>(hypot_sq(x1.sub(qxi), y1.sub(qyi)));
                }
                [a0, a1]
            });
        fill_padded(out, m, steps);
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

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn load8([lo, hi]: &[[f64; 4]; 2]) -> Coords8 {
        (V4::load(lo).0, V4::load(hi).0)
    }

    /// `(v - q)` over 8 entries, each difference taken in `f64` and then
    /// narrowed to `f32` (round to nearest): narrowing the *coordinates*
    /// first would cancel catastrophically wherever the data sits far
    /// from the origin.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn diff_narrow8(v: Coords8, q: __m256d) -> __m256 {
        let lo = _mm256_cvtpd_ps(_mm256_sub_pd(v.0, q));
        let hi = _mm256_cvtpd_ps(_mm256_sub_pd(v.1, q));
        _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
    }

    /// `|p_j q|` in `f32` for 8 entries `(x, y)` against one query point:
    /// `√(fma(dx, dx, dy·dy))`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn dist8(x: Coords8, y: Coords8, qx: __m256d, qy: __m256d) -> __m256 {
        let (dx, dy) = (diff_narrow8(x, qx), diff_narrow8(y, qy));
        _mm256_sqrt_ps(_mm256_fmadd_ps(dx, dx, _mm256_mul_ps(dy, dy)))
    }

    /// `Σ_i w_i · |p_j q_i|` in `f32` over `K` runs of 8 entries, the runs'
    /// folds interleaved in one pass over the group so their dependency
    /// chains overlap.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn wsum8<const K: usize>(
        x: [&[[f64; 4]; 2]; K],
        y: [&[[f64; 4]; 2]; K],
        (qx, qy, w): (&[f64], &[f64], &[f32]),
    ) -> [__m256; K] {
        let zero = _mm256_setzero_pd();
        let mut runs = [((zero, zero), (zero, zero)); K];
        for (run, (x, y)) in runs.iter_mut().zip(x.into_iter().zip(y)) {
            *run = (load8(x), load8(y));
        }
        let mut acc = [_mm256_setzero_ps(); K];
        for ((&qxi, &qyi), &wi) in qx.iter().zip(qy).zip(w) {
            let (qxi, qyi, wi) = (_mm256_set1_pd(qxi), _mm256_set1_pd(qyi), _mm256_set1_ps(wi));
            for (a, &(x, y)) in acc.iter_mut().zip(&runs) {
                *a = _mm256_fmadd_ps(wi, dist8(x, y, qxi, qyi), *a);
            }
        }
        acc
    }

    /// `acc * scale - abs` in `f64`, 8 lanes as two vectors.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn lower8(acc: __m256, scale: __m256d, abs: __m256d) -> [V4; 2] {
        let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(acc));
        let hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(acc));
        let lower = |v| V4(_mm256_sub_pd(_mm256_mul_pd(v, scale), abs));
        [lower(lo), lower(hi)]
    }

    /// `out[j] = (Σ_i w_i · |p_j q_i|, in f32) · scale − abs` for `m`
    /// logical points over `pad_len(m)` lanes; `out` is cleared and
    /// refilled with exactly `m` values. Two runs of 8 entries a step, and
    /// one more where 8 are left.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub fn points_weighted_dist_sum_lower_avx2(
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
        let group = (qx, &qy[..qx.len()], &w[..qx.len()]);
        let (scale, abs) = (_mm256_set1_pd(scale), _mm256_set1_pd(abs));
        let ((x16, x8), (y16, y8)) = (lanes8(xs, m).as_chunks(), lanes8(ys, m).as_chunks());
        let pairs = x16.iter().zip(y16).map(|([x0, x1], [y0, y1])| {
            let [a, b] = wsum8([x0, x1], [y0, y1], group);
            let ([a0, a1], [b0, b1]) = (lower8(a, scale, abs), lower8(b, scale, abs));
            [a0, a1, b0, b1]
        });
        // A page of `16k + 8` lanes ends in one run of 8, whose step repeats
        // its two vectors into the spare lanes past `pad_len(m)`.
        let tail = x8.iter().zip(y8).map(|(x, y)| {
            let [a] = wsum8([x], [y], group);
            let [a0, a1] = lower8(a, scale, abs);
            [a0, a1, a0, a1]
        });
        fill_padded(out, m, pairs.chain(tail));
    }

    // ---- group-dimension reductions ---------------------------------
    //
    // These fold over the query points themselves. The weighted SUMs (of a
    // rectangle's and of a point's distances) keep their accumulation
    // strictly sequential (vectors only produce the per-element terms,
    // added back in index order); MAX/MIN reduce vector-first, which is
    // order-safe on squared distances (no NaN, no -0.0 — see module docs).

    /// `Σ_i w_i · √(mindist²(m, q_i))`, accumulated in index order.
    #[target_feature(enable = "avx2,fma")]
    pub fn rect_weighted_mindist_sum_avx2(m: &Rect, qx: &[f64], qy: &[f64], w: &[f64]) -> f64 {
        let n = qx.len();
        let ((x4, x1), (y4, y1), (w4, w1)) = (
            qx.as_chunks::<4>(),
            qy[..n].as_chunks::<4>(),
            w[..n].as_chunks::<4>(),
        );
        let [mlx, mly, mhx, mhy] = splat_rect(m);
        let zero = V4::splat(0.0);
        let mut buf = [0.0f64; 4];
        let mut acc = 0.0f64;
        for ((x, y), w) in x4.iter().zip(y4).zip(w4) {
            let dx = excess(V4::load(x), mlx, mhx, zero);
            let dy = excess(V4::load(y), mly, mhy, zero);
            V4::load(w).mul(hypot_sq(dx, dy).vsqrt()).store(&mut buf);
            // Strictly sequential accumulation in index order — the SUM
            // bound must match the scalar fold bit-for-bit.
            for b in buf {
                acc += b;
            }
        }
        for ((&x, &y), &w) in x1.iter().zip(y1).zip(w1) {
            let dx = (m.lo.x - x).max(x - m.hi.x).max(0.0);
            let dy = (m.lo.y - y).max(y - m.hi.y).max(0.0);
            acc += w * (dx * dx + dy * dy).sqrt();
        }
        acc
    }

    /// `Σ_i w_i · |p q_i|`, accumulated in index order: the terms four
    /// lanes at a time, their sum one lane at a time.
    #[target_feature(enable = "avx2,fma")]
    pub fn point_weighted_dist_sum_avx2(p: Point, qx: &[f64], qy: &[f64], w: &[f64]) -> f64 {
        let n = qx.len();
        let ((x4, x1), (y4, y1), (w4, w1)) = (
            qx.as_chunks::<4>(),
            qy[..n].as_chunks::<4>(),
            w[..n].as_chunks::<4>(),
        );
        let (vx, vy) = (V4::splat(p.x), V4::splat(p.y));
        let mut buf = [0.0f64; 4];
        let mut acc = 0.0f64;
        for ((x, y), w) in x4.iter().zip(y4).zip(w4) {
            let (dx, dy) = (V4::load(x).sub(vx), V4::load(y).sub(vy));
            V4::load(w).mul(hypot_sq(dx, dy).vsqrt()).store(&mut buf);
            // Sequential, as in `rect_weighted_mindist_sum_avx2`.
            for b in buf {
                acc += b;
            }
        }
        for ((&x, &y), &w) in x1.iter().zip(y1).zip(w1) {
            let (dx, dy) = (x - p.x, y - p.y);
            acc += w * (dx * dx + dy * dy).sqrt();
        }
        acc
    }

    /// `max_i mindist²(m, q_i)` (`MAX`) or `min_i`.
    #[target_feature(enable = "avx2,fma")]
    pub fn rect_mindist_sq_fold_avx2<const MAX: bool>(m: &Rect, qx: &[f64], qy: &[f64]) -> f64 {
        let ((x4, x1), (y4, y1)) = (qx.as_chunks::<4>(), qy[..qx.len()].as_chunks::<4>());
        let [mlx, mly, mhx, mhy] = splat_rect(m);
        let zero = V4::splat(0.0);
        let mut vacc = V4::splat(identity::<MAX>());
        for (x, y) in x4.iter().zip(y4) {
            let dx = excess(V4::load(x), mlx, mhx, zero);
            let dy = excess(V4::load(y), mly, mhy, zero);
            vacc = vacc.fold::<MAX>(hypot_sq(dx, dy));
        }
        let mut buf = [0.0f64; 4];
        vacc.store(&mut buf);
        let mut acc = buf.into_iter().fold(identity::<MAX>(), fold::<MAX>);
        for (&x, &y) in x1.iter().zip(y1) {
            let dx = (m.lo.x - x).max(x - m.hi.x).max(0.0);
            let dy = (m.lo.y - y).max(y - m.hi.y).max(0.0);
            acc = fold::<MAX>(acc, dx * dx + dy * dy);
        }
        acc
    }

    /// `max_i |p q_i|²` (`MAX`) or `min_i`.
    #[target_feature(enable = "avx2,fma")]
    pub fn point_dist_sq_fold_avx2<const MAX: bool>(p: Point, qx: &[f64], qy: &[f64]) -> f64 {
        let ((x4, x1), (y4, y1)) = (qx.as_chunks::<4>(), qy[..qx.len()].as_chunks::<4>());
        let (vx, vy) = (V4::splat(p.x), V4::splat(p.y));
        let mut vacc = V4::splat(identity::<MAX>());
        for (x, y) in x4.iter().zip(y4) {
            vacc = vacc.fold::<MAX>(hypot_sq(V4::load(x).sub(vx), V4::load(y).sub(vy)));
        }
        let mut buf = [0.0f64; 4];
        vacc.store(&mut buf);
        let mut acc = buf.into_iter().fold(identity::<MAX>(), fold::<MAX>);
        for (&x, &y) in x1.iter().zip(y1) {
            let (dx, dy) = (x - p.x, y - p.y);
            acc = fold::<MAX>(acc, dx * dx + dy * dy);
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
