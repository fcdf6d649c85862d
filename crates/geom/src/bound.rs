//! Rounded-down lower bounds on the weighted SUM aggregate
//! `dist(p, Q) = Σ wᵢ·|p qᵢ|`: values built **once per query** that let a
//! search rule a leaf entry or a node out without paying the exact `n`-term
//! `f64` sum, and that never exceed the value they stand for.
//!
//! * [`LeafBound`] — the whole group's sum over a lane-padded leaf, in
//!   `f32` at twice the lanes of the exact kernel, rounded down by a
//!   relative and an absolute margin. AVX2 only.
//! * [`CentroidBound`] — one term for a node: `W·mindist(N, c)` at the
//!   group's weighted centroid `c`, rounded down below the computed
//!   heuristic-3 sum `Σ wᵢ·mindist(N, qᵢ)`.
//!
//! Neither ever stands in for a distance: a caller drops an entry or parks
//! a node only where the bound already reaches its threshold, and computes
//! the exact value otherwise. Both margins are derived below in one form —
//! what is rounded, the bound on each error, the subnormal allowance, the
//! non-finite fallback. `crates/geom/tests/bounds.rs` sweeps both over one
//! grid of scales, weights and degenerate shapes on every [`SimdLevel`],
//! and names the case each hand mutation of a margin fails.
//!
//! # The `f32` leaf bound
//!
//! Per query the weights are narrowed to `f32` **toward zero** (a nearest
//! narrowing may land above the weight, and the bound must not). Per pair
//! the kernel takes `dx`, `dy` in `f64` (the operands the exact kernel
//! squares), narrows them to `f32`, and runs `s = fma(dx, dx, dy·dy)`,
//! `r = √s`, `acc = fma(w, r, acc)`; the result is `acc·(1 − ρ) − α`
//! evaluated in `f64`, with `u = 2⁻²⁴`.
//!
//! * *Rounded:* the two narrowed differences, `dy·dy`, the `fma` of the
//!   square, the root, and each of the `n` accumulating `fma`s; then the
//!   `f64` product and difference of the last line.
//! * *Error bounds, `ρ = (n + 16)·2⁻²³ = 2(n + 16)·u`.* Narrowing inflates a
//!   difference by at most `(1+u)`, so `dx²` by `(1+u)²`; `dy·dy` rounds
//!   once more and the `fma` once again: `s <= d²·(1+u)⁴`. The root halves
//!   that and rounds: `r <= d·(1+u)³`. Each accumulating `fma` rounds the
//!   running sum of non-negative terms once, so term `i` carries at most
//!   `(1+u)ⁿ` more. In all `acc <= T·(1+u)ⁿ⁺⁴` for the real-arithmetic sum
//!   `T` over the same `f64` differences, and the exact `f64` fold is
//!   within `(n+4)·2⁻⁵³` of `T`. `ρ` is twice what that needs; the slack
//!   pays for partial sums that were subnormal (`n·2⁻¹⁵⁰` against a final
//!   `acc >= 2⁻¹²⁶`) and for the `f64` roundings of the last line. The
//!   weights, rounded toward zero, only lower the sum.
//! * *Subnormal allowance, `α = W·2⁻⁷³ + n·2⁻¹⁴⁹`,* `W = Σ wᵢ` over the
//!   narrowed weights. A square that lands in `f32`'s subnormal range is
//!   off by up to `2⁻¹⁴⁹` in all (`dy·dy` and the `fma`, half a subnormal
//!   ulp each), and `√` turns that into up to `2⁻⁷⁴·⁵` on `r` — a 29 %
//!   relative error at the bottom of the range, which no `ρ` covers.
//!   Weighted, carried through the accumulation (`(1+u)ⁿ⁺¹ < 2·√2` for
//!   every `n` that leaves `ρ < 1`) and summed, that is at most `W·2⁻⁷³`.
//!   The second term is the `n` accumulator roundings when the final sum is
//!   itself subnormal. From `ρ >= 1` on the bound is `<= 0` and filters
//!   nothing, soundly.
//! * *Non-finite fallback.* An infinite difference, square, product or sum
//!   stays infinite (or turns NaN against a zero weight) to the end, and
//!   `∞·(1 − ρ) − α` is not finite: a non-finite bound promises nothing
//!   and the caller scores that entry exactly. A weight beyond `f32::MAX`
//!   narrows to `f32::MAX`, one below the smallest subnormal to `0`.
//!
//! The margin is a function of the narrowed weights alone, so it is
//! computed once per query, with four running sums: the total is only a
//! margin, so its association is free.
//!
//! # The centroid key
//!
//! `mindist(N, ·)` is a distance to a convex set, hence convex, so by
//! Jensen `W·mindist(N, c) ≤ Σ wᵢ·mindist(N, qᵢ)` at the weighted centroid
//! `c = Σ wᵢqᵢ / W` (arXiv 1309.1807's convexity argument). The key turns
//! the computed `mindist²(N, ĉ)` into `(Ŵ·(d̂ − e))·(1 − ρ) − t`, clamped to
//! `[0, ∞)`, and that is `<=` the **computed** tight sum — on every SIMD
//! level, in any summation order. Here `u = 2⁻⁵³`, `γₘ = mu/(1 − mu)` and
//! `μ = maxᵢ max(|xᵢ|, |yᵢ|)`, read off the group's MBR.
//!
//! * *Rounded:* the centroid `ĉ = Σ (wᵢ·fl(1/Ŵ))·qᵢ`, the total weight
//!   `Ŵ`, the key's `mindist²` and its root `d̂`, the key's three
//!   operations; and on the other side every term and addition of the
//!   tight sum.
//! * *Error bounds.* `ĉ` lies within `√2·γ₂ₙ₊₂·μ` of `c` (each weight share
//!   carries `Ŵ`'s `γₙ₋₁`, the reciprocal's and the product's rounding;
//!   the dot product `γₙ` relative to `Σ vᵢ|xᵢ| <= μ`), and `mindist(N, ·)`
//!   is 1-Lipschitz. This error is **absolute** — it scales with `μ`, not
//!   with the key — which is why `e = (6n + 16)·u·μ + 2⁻⁵³⁰` and not a
//!   relative term: a group far from the origin keying a child near its
//!   centroid needs all of it. `d̂` is at most `(1 + u)³` above the exact
//!   `mindist(N, ĉ)` (subtraction, squares and add, `sqrt`), `Ŵ` within
//!   `γₙ₋₁` of `W`, and the computed tight sum of `n` non-negative terms of
//!   five roundings each at least `(1 − γₙ₊₄)·Σ` — whatever the order of
//!   the additions, so the AVX2 and scalar folds are both covered. With
//!   the key's own three roundings that is under `(2n + 12)·u` relative;
//!   `ρ = (4n + 32)·u`.
//! * *Subnormal allowance.* A squared term below `f64`'s normal range
//!   carries an absolute error of up to `2⁻¹⁰⁷⁵`, i.e. `2⁻⁵³⁷` after the
//!   square root, on either side; an underflowed weight quotient or
//!   centroid product `2⁻¹⁰⁷⁵`. The `2⁻⁵³⁰` in `e` covers all of them for
//!   any `n < 2⁵⁰⁰`. An underflowed product `wᵢ·√·` in the tight sum, or in
//!   the key itself, loses up to `2⁻¹⁰⁷⁵` however small `W` is: the key
//!   drops `t = (n + 2)·2⁻¹⁰⁷⁴` for those.
//! * *Non-finite fallback.* No key at all where `Ŵ` or `1/Ŵ` is not a
//!   normal number (the reciprocal would lose its relative error). An
//!   overflowed `ĉ`, `Ŵ` or product makes the key `∞` or NaN; it is then
//!   `0`, and a caller's `max` with a cheaper bound keeps that one alone.

// The only `unsafe` here is the one call into the AVX2 body of the `f32`
// leaf bound, sound because a `LeafBound` exists only at `Avx2Fma` (see its
// SAFETY comment).
#![allow(unsafe_code)]

use crate::batch::BatchKernels;
#[cfg(target_arch = "x86_64")]
use crate::simd;
use crate::simd::{pad_len, SimdLevel};
use crate::{Point, Rect};

/// The rounded-down `f32` lower bound on a weighted SUM group's distance to
/// every entry of a lane-padded leaf (margin: module docs). It exists only
/// where its AVX2 kernel does: [`LeafBound::new`] is `None` below
/// [`SimdLevel::Avx2Fma`], so holding one is the proof that it may run.
#[derive(Debug, Clone, Copy)]
pub struct LeafBound<'a> {
    qx: &'a [f64],
    qy: &'a [f64],
    /// The weights narrowed toward zero.
    weights: &'a [f32],
    /// `1 − ρ`.
    factor: f64,
    /// `α`.
    floor: f64,
}

impl<'a> LeafBound<'a> {
    /// The bound for the group `(qx, qy)` with `f64` weights `w`, pinned to
    /// `kernels`' level; `buf` is refilled with the narrowed weights (so a
    /// reused buffer allocates nothing once warm). `None`, with `buf`
    /// untouched, below AVX2. The buffer is the caller's scratch, not a copy
    /// kept beside the group: a resident `f32` copy cost a 6 000-group pool
    /// 9 % of its peak RSS.
    ///
    /// # Panics
    ///
    /// Panics when `qx`, `qy` and `w` disagree in length.
    pub fn new(
        kernels: BatchKernels,
        qx: &'a [f64],
        qy: &'a [f64],
        w: &[f64],
        buf: &'a mut Vec<f32>,
    ) -> Option<Self> {
        let n = qx.len();
        assert!(qy.len() == n && w.len() == n);
        if kernels.level() != SimdLevel::Avx2Fma {
            return None;
        }
        buf.clear();
        buf.extend(w.iter().map(|&w| match w as f32 {
            // Positive and above a positive weight, so not zero: the next
            // float down is one bit pattern below (and `f32::MAX` below an
            // overflowed `+∞`).
            f if f64::from(f) > w => f32::from_bits(f.to_bits() - 1),
            f => f,
        }));
        // Four running sums, weight `i` into lane `i % 4`: the margin's bits
        // depend on this association, so it stays fixed.
        let mut sums = [0.0f64; 4];
        for (i, &v) in buf.iter().enumerate() {
            sums[i % 4] += f64::from(v);
        }
        let total = (sums[0] + sums[1]) + (sums[2] + sums[3]);
        let n = n as f64;
        Some(LeafBound {
            qx,
            qy,
            weights: buf,
            // Powers of two, exact: `f64` holds 2⁻¹⁴⁹ as a normal number.
            factor: 1.0 - (n + 16.0) * 2f64.powi(-23),
            floor: total * 2f64.powi(-73) + n * 2f64.powi(-149),
        })
    }

    /// The weights narrowed toward zero: each `f64::from(weights()[i])` is
    /// `<=` the `i`-th `f64` weight.
    pub fn weights(&self) -> &[f32] {
        self.weights
    }

    /// Lower bounds on the exact weighted sums of `m` logical points whose
    /// coordinate slices hold at least [`pad_len`]`(m)` readable lanes:
    /// `out` is cleared and refilled with `m` values, and every finite
    /// `out[j]` is `<=` [`BatchKernels::points_weighted_dist_sum_multi_padded`]'s
    /// `j`-th value for the `f64` weights the bound was built from. A
    /// non-finite `out[j]` promises nothing.
    ///
    /// # Panics
    ///
    /// Panics when a point slice is shorter than `pad_len(m)`.
    pub fn lower_padded(&self, xs: &[f64], ys: &[f64], m: usize, out: &mut Vec<f64>) {
        assert!(xs.len() >= pad_len(m) && ys.len() >= pad_len(m));
        let LeafBound {
            qx,
            qy,
            weights: w,
            factor,
            floor,
        } = *self;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `LeafBound` is built only from kernels pinned at
        // `Avx2Fma`, which `BatchKernels` holds only after runtime detection
        // confirmed avx2+fma; `new` asserted that `qx`, `qy` and the weights
        // agree in length, and the assert above proves the point slices hold
        // the `pad_len(m)` lanes the kernel reads.
        unsafe {
            simd::x86::points_weighted_dist_sum_lower_avx2(
                xs, ys, m, qx, qy, w, factor, floor, out,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("a LeafBound exists only at SimdLevel::Avx2Fma");
    }
}

/// A SUM group's weighted centroid with the margin that makes
/// `W·mindist(N, ĉ)` a sound lower bound on the computed tight bound
/// `Σ wᵢ·mindist(N, qᵢ)` (derivation: module docs).
#[derive(Debug, Clone, Copy)]
pub struct CentroidBound {
    /// The computed weighted centroid `ĉ`.
    centre: Point,
    /// `Ŵ`.
    total_weight: f64,
    /// `e`: how far `ĉ` may sit from the exact centroid, plus the
    /// subnormal allowance.
    slack: f64,
    /// `1 − ρ`.
    factor: f64,
    /// `t`, the allowance for underflowed products.
    floor: f64,
}

impl CentroidBound {
    /// The bound for the group `(qx, qy)` with weights `w`, total weight
    /// `total_weight` and MBR `mbr`; `None` where `Ŵ` or `1/Ŵ` is not a
    /// normal number.
    ///
    /// # Panics
    ///
    /// Panics when `qx`, `qy` and `w` disagree in length.
    pub fn new(qx: &[f64], qy: &[f64], w: &[f64], total_weight: f64, mbr: &Rect) -> Option<Self> {
        let len = qx.len();
        assert!(qy.len() == len && w.len() == len);
        let inv = 1.0 / total_weight;
        if !(total_weight.is_normal() && inv.is_normal()) {
            return None; // `1/Ŵ` would not hold its relative error
        }
        // Four lanes of running sums, so the loop vectorises: the error
        // bound holds for any summation order. A short tail is padded with
        // weight-0, coordinate-0 members, which add nothing.
        let (mut sx, mut sy) = ([0.0f64; 4], [0.0f64; 4]);
        let mut add = |x: &[f64], y: &[f64], wt: &[f64]| {
            for l in 0..4 {
                let v = wt[l] * inv;
                sx[l] += v * x[l];
                sy[l] += v * y[l];
            }
        };
        let body = len - len % 4;
        for i in (0..body).step_by(4) {
            add(&qx[i..i + 4], &qy[i..i + 4], &w[i..i + 4]);
        }
        let pad = |s: &[f64]| {
            let mut lanes = [0.0f64; 4];
            lanes[..s.len() - body].copy_from_slice(&s[body..]);
            lanes
        };
        add(&pad(qx), &pad(qy), &pad(w));
        let n = len as f64;
        // μ: the MBR's corners hold every coordinate's extremes.
        let mu = [mbr.lo.x, mbr.lo.y, mbr.hi.x, mbr.hi.y]
            .into_iter()
            .fold(0.0f64, |a, c| a.max(c.abs()));
        Some(CentroidBound {
            centre: Point::new(
                (sx[0] + sx[1]) + (sx[2] + sx[3]),
                (sy[0] + sy[1]) + (sy[2] + sy[3]),
            ),
            total_weight,
            slack: (6.0 * n + 16.0) * f64::EPSILON / 2.0 * mu + 2f64.powi(-530),
            factor: 1.0 - (4.0 * n + 32.0) * f64::EPSILON / 2.0,
            // (n + 2)·2⁻¹⁰⁷⁴, exactly: the smallest subnormal's multiple.
            floor: (n + 2.0) * f64::from_bits(1),
        })
    }

    /// The computed weighted centroid `ĉ`, the point a caller measures
    /// `mindist²(N, ĉ)` from.
    #[inline]
    pub fn centre(&self) -> Point {
        self.centre
    }

    /// The bound for a node given `mindist²(N, ĉ)`; `0` where the margin
    /// swallows it or the arithmetic left the finite range.
    #[inline]
    pub fn key_from_sq(&self, mindist_sq: f64) -> f64 {
        let key = self.total_weight * (mindist_sq.sqrt() - self.slack) * self.factor - self.floor;
        if key > 0.0 && key < f64::INFINITY {
            key
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // The leaf kernel's SAFETY contract, pinned at its safe boundary: the
    // length checks run before any lane is read.
    #[test]
    #[should_panic]
    fn leaf_bound_refuses_query_slices_of_unequal_length() {
        let (q, w) = ([0.0; 3], [1.0; 2]);
        // Checked before the level: it panics on every host.
        LeafBound::new(BatchKernels::auto(), &q, &q, &w, &mut Vec::new());
    }

    #[test]
    fn leaf_bound_refuses_point_slices_short_of_their_padding() {
        let (xs, q, w) = ([0.0; 9], [0.0; 2], [1.0; 2]);
        let Some(kernels) = BatchKernels::for_level(SimdLevel::Avx2Fma) else {
            return; // no kernel on this host, nothing to refuse
        };
        let mut buf = Vec::new();
        let bound = LeafBound::new(kernels, &q, &q, &w, &mut buf).expect("AVX2");
        // 9 logical points need 16 readable lanes.
        let short = catch_unwind(AssertUnwindSafe(|| {
            bound.lower_padded(&xs, &xs, 9, &mut Vec::new())
        }));
        assert!(short.is_err(), "read past a 9-lane slice");
    }
}
