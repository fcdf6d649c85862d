//! Query groups: the `Q` of a GNN query, with every distance bound the
//! algorithms prune with.

use crate::Aggregate;
use gnn_geom::{Point, Rect};
use std::fmt;

/// Errors building a [`QueryGroup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryGroupError {
    /// A group must contain at least one query point.
    Empty,
    /// Points (and weights) must be finite.
    NonFinite,
    /// `weights.len()` must equal `points.len()`.
    WeightCountMismatch,
    /// Weights must be strictly positive.
    NonPositiveWeight,
    /// Weights are only defined for the SUM aggregate.
    WeightsRequireSum,
}

impl fmt::Display for QueryGroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            QueryGroupError::Empty => "query group must contain at least one point",
            QueryGroupError::NonFinite => "query points and weights must be finite",
            QueryGroupError::WeightCountMismatch => "one weight per query point required",
            QueryGroupError::NonPositiveWeight => "weights must be strictly positive",
            QueryGroupError::WeightsRequireSum => "weighted queries require the SUM aggregate",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for QueryGroupError {}

/// A group of query points `Q = {q1..qn}` with an aggregate distance
/// function (Table 3.1 of the paper).
///
/// The group caches its MBR `M` and total weight `W` (= `n` when
/// unweighted), the two resident values every pruning heuristic consumes —
/// plus an SoA mirror of its coordinates and weights, so the per-point
/// bounds (`dist`, heuristic 3) run through the branch-free batched kernels
/// of [`gnn_geom::batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGroup {
    points: Vec<Point>,
    /// One positive weight per point (SUM only); `None` = all ones.
    weights: Option<Vec<f64>>,
    aggregate: Aggregate,
    mbr: Rect,
    total_weight: f64,
    /// SoA mirror of `points` (x coordinates).
    qx: Vec<f64>,
    /// SoA mirror of `points` (y coordinates).
    qy: Vec<f64>,
    /// Effective weights: `weights` or all ones. Kernel input.
    wts: Vec<f64>,
}

impl QueryGroup {
    /// A SUM-aggregate group (the paper's `dist(p,Q) = Σ |p q_i|`).
    pub fn sum(points: Vec<Point>) -> Result<Self, QueryGroupError> {
        Self::with_aggregate(points, Aggregate::Sum)
    }

    /// A group with the given aggregate.
    pub fn with_aggregate(
        points: Vec<Point>,
        aggregate: Aggregate,
    ) -> Result<Self, QueryGroupError> {
        Self::build(points, None, aggregate)
    }

    /// A weighted SUM group: `dist(p,Q) = Σ w_i |p q_i|` — e.g. `q_i` is a
    /// meeting point for `w_i` co-located users.
    pub fn weighted_sum(points: Vec<Point>, weights: Vec<f64>) -> Result<Self, QueryGroupError> {
        Self::build(points, Some(weights), Aggregate::Sum)
    }

    fn build(
        points: Vec<Point>,
        weights: Option<Vec<f64>>,
        aggregate: Aggregate,
    ) -> Result<Self, QueryGroupError> {
        if points.is_empty() {
            return Err(QueryGroupError::Empty);
        }
        if !points.iter().all(Point::is_finite) {
            return Err(QueryGroupError::NonFinite);
        }
        if let Some(w) = &weights {
            if aggregate != Aggregate::Sum {
                return Err(QueryGroupError::WeightsRequireSum);
            }
            if w.len() != points.len() {
                return Err(QueryGroupError::WeightCountMismatch);
            }
            if !w.iter().all(|x| x.is_finite()) {
                return Err(QueryGroupError::NonFinite);
            }
            if !w.iter().all(|x| *x > 0.0) {
                return Err(QueryGroupError::NonPositiveWeight);
            }
        }
        let mbr = Rect::bounding(points.iter().copied()).expect("non-empty");
        let total_weight = match &weights {
            Some(w) => w.iter().sum(),
            None => points.len() as f64,
        };
        let qx: Vec<f64> = points.iter().map(|p| p.x).collect();
        let qy: Vec<f64> = points.iter().map(|p| p.y).collect();
        let wts = match &weights {
            Some(w) => w.clone(),
            None => vec![1.0; points.len()],
        };
        Ok(QueryGroup {
            points,
            weights,
            aggregate,
            mbr,
            total_weight,
            qx,
            qy,
            wts,
        })
    }

    /// The query points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of query points `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: empty groups cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Weight of query point `i` (1 when unweighted).
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        match &self.weights {
            Some(w) => w[i],
            None => 1.0,
        }
    }

    /// Whether the group carries explicit weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The aggregate function.
    #[inline]
    pub fn aggregate(&self) -> Aggregate {
        self.aggregate
    }

    /// The MBR `M` of the query points.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Total weight `W` (= `n` for unweighted groups). The divisor in
    /// heuristics 1 and 2.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Explicit weights, if the group carries any (SUM only).
    #[inline]
    pub fn explicit_weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// The exact aggregate distance `dist(p, Q)`.
    ///
    /// The SUM fold is sequential over the cached SoA mirror, which makes
    /// every result **bit-identical** to the multi-point conversion kernel
    /// ([`QueryGroup::dist_many_padded`]) — so results never depend on
    /// which engine computed them.
    pub fn dist(&self, p: Point) -> f64 {
        use gnn_geom::batch::BatchKernels;
        match self.aggregate {
            Aggregate::Sum => {
                let mut acc = 0.0;
                for i in 0..self.qx.len() {
                    let dx = self.qx[i] - p.x;
                    let dy = self.qy[i] - p.y;
                    acc += self.wts[i] * (dx * dx + dy * dy).sqrt();
                }
                acc
            }
            Aggregate::Max => BatchKernels::auto()
                .point_dist_sq_max(p, &self.qx, &self.qy)
                .sqrt(),
            Aggregate::Min => BatchKernels::auto()
                .point_dist_sq_min(p, &self.qx, &self.qy)
                .sqrt(),
        }
    }

    /// Exact aggregate distances for a batch of points in lane-padded SoA
    /// form: `out[j] = dist(p_j, Q)` for `j < n`, bit-identical per element
    /// to [`QueryGroup::dist`] but vectorized across the batch. The
    /// coordinate slices hold at least `pad_len(n)` readable lanes (the
    /// layout of a packed leaf page's own coordinates — MBM scores a whole
    /// leaf with one call), so the SIMD kernels run full vectors with no
    /// scalar tail; exactly `n` results are written.
    ///
    /// For SUM this is the `vsqrtpd`-bound kernel (~1 ns a pair on every
    /// tier). The bounded MBM loop therefore calls it only while
    /// `best_dist` is still infinite; once it is finite, a rounded-down
    /// `f32` bound over the same lanes picks the few entries that pay
    /// [`QueryGroup::dist`] — the same bits, one entry at a time.
    pub fn dist_many_padded(&self, xs: &[f64], ys: &[f64], n: usize, out: &mut Vec<f64>) {
        let k = gnn_geom::batch::BatchKernels::auto();
        match self.aggregate {
            Aggregate::Sum => {
                k.points_weighted_dist_sum_multi_padded(
                    xs, ys, n, &self.qx, &self.qy, &self.wts, out,
                );
            }
            Aggregate::Max => {
                k.points_dist_sq_max_multi_padded(xs, ys, n, &self.qx, &self.qy, out);
                out.iter_mut().for_each(|v| *v = v.sqrt());
            }
            Aggregate::Min => {
                k.points_dist_sq_min_multi_padded(xs, ys, n, &self.qx, &self.qy, out);
                out.iter_mut().for_each(|v| *v = v.sqrt());
            }
        }
    }

    /// Arms the rounded-down `f32` leaf filter for this group: `out` is
    /// refilled with the weights narrowed to `f32` **toward zero** — a
    /// nearest narrowing may land above the weight, and the bound must not —
    /// and `true` comes back. `false`, with `out` emptied, when there is no
    /// such filter: the aggregate is not SUM, or the process dispatches
    /// below AVX2 (`GNN_FORCE_SCALAR=1` included), where
    /// [`gnn_geom::batch::BatchKernels::points_weighted_dist_sum_lower_padded`]
    /// has no kernel. Narrowed per query into caller scratch rather than
    /// mirrored in the group: a resident `f32` copy cost a 6 000-group pool
    /// 9 % of its peak RSS.
    pub(crate) fn lower_bound_weights(&self, out: &mut Vec<f32>) -> bool {
        out.clear();
        let available = self.aggregate == Aggregate::Sum
            && gnn_geom::simd::dispatch_level() == gnn_geom::SimdLevel::Avx2Fma;
        if available {
            out.extend(self.wts.iter().map(|&w| {
                let f = w as f32;
                if f64::from(f) > w {
                    // Positive and above a positive weight, so not zero:
                    // the next float down is one bit pattern below (and
                    // `f32::MAX` below an overflowed `+∞`).
                    f32::from_bits(f.to_bits() - 1)
                } else {
                    f
                }
            }));
        }
        available
    }

    /// Lower bounds on [`QueryGroup::dist_many_padded`] for a SUM group,
    /// `weights` being what [`QueryGroup::lower_bound_weights`] armed:
    /// every finite `out[j]` is `<=` the exact `dist(p_j, Q)` (the kernel's
    /// contract, with its error derivation, is on
    /// [`gnn_geom::batch::BatchKernels::points_weighted_dist_sum_lower_padded`]);
    /// a non-finite one says nothing. At `vsqrtps` speed — this is what
    /// decides which leaf entries pay for the exact fold.
    pub(crate) fn dist_lower_many_padded(
        &self,
        xs: &[f64],
        ys: &[f64],
        n: usize,
        weights: &[f32],
        out: &mut Vec<f64>,
    ) {
        let ran = gnn_geom::batch::BatchKernels::auto()
            .points_weighted_dist_sum_lower_padded(xs, ys, n, &self.qx, &self.qy, weights, out);
        debug_assert!(ran, "armed only where the kernel exists");
    }

    /// **Cheap node bound** (heuristic 2 shape): a lower bound on
    /// `dist(p, Q)` for every point `p` inside `rect`, using only
    /// `mindist(rect, M)` — one rectangle distance, no per-query-point work.
    ///
    /// SUM: `W · mindist(N, M)`; MAX/MIN: `mindist(N, M)`.
    pub fn cheap_bound_rect(&self, rect: &Rect) -> f64 {
        self.cheap_bound_from_sq(rect.mindist_rect_sq(&self.mbr))
    }

    /// The cheap bound given a precomputed **squared** `mindist` to the
    /// query MBR `M` — the bridge from the batched `mindist²` kernels back
    /// to the paper's metric space (one `sqrt`, one multiply).
    #[inline]
    pub fn cheap_bound_from_sq(&self, mindist_sq: f64) -> f64 {
        let d = mindist_sq.sqrt();
        match self.aggregate {
            Aggregate::Sum => self.total_weight * d,
            Aggregate::Max | Aggregate::Min => d,
        }
    }

    /// **Cheap point bound**: same shape for a concrete point, using
    /// `mindist(p, M)` (the leaf-entry filter of MBM, §3.3).
    pub fn cheap_bound_point(&self, p: Point) -> f64 {
        self.cheap_bound_from_sq(self.mbr.mindist_point_sq(p))
    }

    /// **Tight node bound** (heuristic 3 shape): aggregates
    /// `mindist(rect, q_i)` over every query point — `n` rectangle distances
    /// but much stronger than the cheap bound. Runs through the fused SoA
    /// kernels; for MAX/MIN the fold happens in squared space and pays a
    /// single `sqrt`.
    pub fn tight_bound_rect(&self, rect: &Rect) -> f64 {
        let k = gnn_geom::batch::BatchKernels::auto();
        match self.aggregate {
            Aggregate::Sum => k.rect_weighted_mindist_sum(rect, &self.qx, &self.qy, &self.wts),
            Aggregate::Max => k.rect_mindist_sq_max(rect, &self.qx, &self.qy).sqrt(),
            Aggregate::Min => k.rect_mindist_sq_min(rect, &self.qx, &self.qy).sqrt(),
        }
    }

    /// A one-term lower bound on the SUM tight bound, for keying a node
    /// before (or instead of) paying its `n` terms; `None` for MAX and MIN
    /// (and for a total weight beyond `2^±1022`).
    ///
    /// `mindist(N, ·)` is a distance to a convex set, hence convex, so by
    /// Jensen `W·mindist(N, c) ≤ Σ wᵢ·mindist(N, qᵢ)` at the weighted
    /// centroid `c = Σ wᵢqᵢ / W` (arXiv 1309.1807's convexity argument).
    /// [`CentroidBound::key_from_sq`] turns the computed `mindist²(N, ĉ)`
    /// into `(Ŵ·(d̂ − e))·(1 − ρ) − t`, clamped to `[0, ∞)`, and that is `<=`
    /// the **computed** [`QueryGroup::tight_bound_rect`] — on every SIMD
    /// level, in any summation order — for these reasons (`u = 2⁻⁵³`,
    /// `γₘ = mu/(1 − mu)`, `μ = maxᵢ max(|xᵢ|, |yᵢ|)`):
    ///
    /// * **The rounded centroid.** `ĉ = Σ (wᵢ·fl(1/Ŵ))·qᵢ` lies within
    ///   `√2·γ₂ₙ₊₂·μ` of `c` (each weight share carries `Ŵ`'s `γₙ₋₁`, the
    ///   reciprocal's and the product's rounding; the dot product `γₙ`
    ///   relative to `Σ vᵢ|xᵢ| <= μ`) — `None` where `Ŵ` or `1/Ŵ` is not a
    ///   normal number and the reciprocal would lose that,
    ///   and `mindist(N, ·)` is 1-Lipschitz. This error is **absolute** — it
    ///   scales with `μ`, not with the key — which is why
    ///   `e = (6n + 16)·u·μ + 2⁻⁵³⁰` and not a relative term: a group far
    ///   from the origin keying a child near its centroid needs all of it.
    /// * **`sqrt`, `·W` and the sum.** `d̂` is at most `(1 + u)³` above the
    ///   exact `mindist(N, ĉ)` (subtraction, squares and add, `sqrt`), `Ŵ`
    ///   within `γₙ₋₁` of `W`, and the computed tight sum of `n`
    ///   non-negative terms of five roundings each at least
    ///   `(1 − γₙ₊₄)·Σ` — whatever the order of the additions, so the AVX2
    ///   and scalar folds are both covered. With the key's own three
    ///   roundings that is under `(2n + 12)·u` relative;
    ///   `ρ = (4n + 32)·u`.
    /// * **Subnormals.** A squared term below `f64`'s normal range carries
    ///   an absolute error of up to `2⁻¹⁰⁷⁵`, i.e. `2⁻⁵³⁷` after the square
    ///   root, on either side; an underflowed weight quotient or centroid
    ///   product `2⁻¹⁰⁷⁵`. The `2⁻⁵³⁰` in `e` covers all of them for any
    ///   `n < 2⁵⁰⁰`. An underflowed product `wᵢ·√·` in the tight sum, or in
    ///   the key itself, loses up to `2⁻¹⁰⁷⁵` however small `W` is: the key
    ///   drops `t = (n + 2)·2⁻¹⁰⁷⁴` for those.
    /// * **Non-finite.** An overflowed `ĉ`, `Ŵ` or product makes the key
    ///   `∞` or NaN; it is then `0`, and the caller's `max` with the cheap
    ///   bound falls back to heuristic 2 alone.
    ///
    /// `centroid_bound_never_exceeds_the_tight_bound` pins this on distance
    /// bits; it fails with a zero `ρ` or without `e`'s `μ` term.
    pub(crate) fn centroid_bound(&self) -> Option<CentroidBound> {
        if self.aggregate != Aggregate::Sum {
            return None;
        }
        let w = self.total_weight;
        let inv = 1.0 / w;
        if !(w.is_normal() && inv.is_normal()) {
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
        let body = self.len() - self.len() % 4;
        for i in (0..body).step_by(4) {
            add(&self.qx[i..i + 4], &self.qy[i..i + 4], &self.wts[i..i + 4]);
        }
        let pad = |s: &[f64]| {
            let mut lanes = [0.0f64; 4];
            lanes[..s.len() - body].copy_from_slice(&s[body..]);
            lanes
        };
        add(&pad(&self.qx), &pad(&self.qy), &pad(&self.wts));
        let n = self.len() as f64;
        // μ: the MBR's corners hold every coordinate's extremes.
        let m = self.mbr;
        let mu = [m.lo.x, m.lo.y, m.hi.x, m.hi.y]
            .into_iter()
            .fold(0.0f64, |a, c| a.max(c.abs()));
        Some(CentroidBound {
            centre: Point::new(
                (sx[0] + sx[1]) + (sx[2] + sx[3]),
                (sy[0] + sy[1]) + (sy[2] + sy[3]),
            ),
            total_weight: w,
            slack: (6.0 * n + 16.0) * f64::EPSILON / 2.0 * mu + 2f64.powi(-530),
            factor: 1.0 - (4.0 * n + 32.0) * f64::EPSILON / 2.0,
            // (n + 2)·2⁻¹⁰⁷⁴, exactly: the smallest subnormal's multiple.
            floor: (n + 2.0) * f64::from_bits(1),
        })
    }

    /// The seed's sequential-fold implementation of
    /// [`QueryGroup::tight_bound_rect`], kept bit-for-bit as the reference:
    /// the arena query engine prunes with it, and the property suite uses it
    /// as the oracle for the batched kernel (which reassociates the
    /// floating-point sum and may differ in the last ulps).
    pub fn tight_bound_rect_reference(&self, rect: &Rect) -> f64 {
        let mut acc = self.aggregate.identity();
        for (i, q) in self.points.iter().enumerate() {
            acc = self
                .aggregate
                .fold(acc, self.weight(i) * rect.mindist_point(*q));
        }
        acc
    }

    /// Combines per-query-point thresholds `t_i` (current NN distance of
    /// query `q_i`) into MQM's global threshold `T`: a lower bound on the
    /// aggregate distance of every point not yet seen by any NN stream.
    pub fn threshold(&self, ts: &[f64]) -> f64 {
        debug_assert_eq!(ts.len(), self.points.len());
        let mut acc = self.aggregate.identity();
        for (i, t) in ts.iter().enumerate() {
            acc = self.aggregate.fold(acc, self.weight(i) * t);
        }
        acc
    }
}

/// A SUM group's weighted centroid with the margin that makes
/// `W·mindist(N, ĉ)` a sound lower bound on the computed tight bound
/// (derivation on [`QueryGroup::centroid_bound`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CentroidBound {
    /// The computed weighted centroid `ĉ`.
    pub(crate) centre: Point,
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
    /// The bound for a node given `mindist²(N, ĉ)`; `0` where the margin
    /// swallows it or the arithmetic left the finite range.
    #[inline]
    pub(crate) fn key_from_sq(&self, mindist_sq: f64) -> f64 {
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

    fn pts() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 3.0),
        ]
    }

    #[test]
    fn construction_validates() {
        assert_eq!(QueryGroup::sum(vec![]).unwrap_err(), QueryGroupError::Empty);
        assert_eq!(
            QueryGroup::sum(vec![Point::new(f64::NAN, 0.0)]).unwrap_err(),
            QueryGroupError::NonFinite
        );
        assert_eq!(
            QueryGroup::weighted_sum(pts(), vec![1.0]).unwrap_err(),
            QueryGroupError::WeightCountMismatch
        );
        assert_eq!(
            QueryGroup::weighted_sum(pts(), vec![1.0, -1.0, 2.0]).unwrap_err(),
            QueryGroupError::NonPositiveWeight
        );
        assert!(QueryGroup::sum(pts()).is_ok());
    }

    #[test]
    fn sum_distance_matches_manual() {
        let g = QueryGroup::sum(pts()).unwrap();
        let p = Point::new(2.0, 0.0);
        let manual = 2.0 + 2.0 + 3.0;
        assert_eq!(g.dist(p), manual);
        assert_eq!(g.total_weight(), 3.0);
    }

    #[test]
    fn weighted_sum_distance() {
        let g = QueryGroup::weighted_sum(pts(), vec![2.0, 1.0, 0.5]).unwrap();
        let p = Point::new(2.0, 0.0);
        assert_eq!(g.dist(p), 2.0 * 2.0 + 2.0 + 0.5 * 3.0);
        assert_eq!(g.total_weight(), 3.5);
        assert!(g.is_weighted());
    }

    #[test]
    fn max_and_min_distances() {
        let gmax = QueryGroup::with_aggregate(pts(), Aggregate::Max).unwrap();
        let gmin = QueryGroup::with_aggregate(pts(), Aggregate::Min).unwrap();
        let p = Point::new(0.0, 0.0);
        assert_eq!(gmax.dist(p), 4.0); // farthest query point
        assert_eq!(gmin.dist(p), 0.0); // p coincides with q1
    }

    #[test]
    fn mbr_covers_points() {
        let g = QueryGroup::sum(pts()).unwrap();
        assert_eq!(g.mbr(), Rect::from_corners(0.0, 0.0, 4.0, 3.0));
    }

    #[test]
    fn cheap_bound_is_a_true_lower_bound() {
        let g = QueryGroup::sum(pts()).unwrap();
        let rect = Rect::from_corners(10.0, 10.0, 12.0, 12.0);
        let bound = g.cheap_bound_rect(&rect);
        // For several points inside the rect, actual >= bound.
        for p in [
            Point::new(10.0, 10.0),
            Point::new(11.0, 11.5),
            Point::new(12.0, 12.0),
        ] {
            assert!(g.dist(p) >= bound);
        }
    }

    #[test]
    fn tight_bound_dominates_cheap_bound() {
        // Heuristic 3 is always at least as strong as heuristic 2 (the paper
        // applies H3 only to nodes that pass H2 purely to save CPU).
        let g = QueryGroup::sum(pts()).unwrap();
        for rect in [
            Rect::from_corners(10.0, 0.0, 12.0, 2.0),
            Rect::from_corners(-5.0, -5.0, -1.0, -1.0),
            Rect::from_corners(1.0, 1.0, 3.0, 2.0), // overlaps M
        ] {
            assert!(g.tight_bound_rect(&rect) >= g.cheap_bound_rect(&rect) - 1e-12);
        }
    }

    #[test]
    fn paper_heuristic2_example() {
        // Figure 3.5: n=2, best_dist=5, mindist(N1,M)=3 > 5/2 ⇒ prune.
        // Recast: cheap_bound_rect = n·mindist = 6 ≥ best_dist = 5.
        let q1 = Point::new(0.0, 0.0);
        let q2 = Point::new(2.0, 1.0);
        let g = QueryGroup::sum(vec![q1, q2]).unwrap();
        // A node 3 away from M.
        let node = Rect::from_corners(5.0, 0.0, 6.0, 1.0);
        assert_eq!(node.mindist_rect(&g.mbr()), 3.0);
        assert!(g.cheap_bound_rect(&node) >= 5.0);
    }

    #[test]
    fn thresholds_combine_per_aggregate() {
        let ts = [1.0, 2.0, 3.0];
        let gsum = QueryGroup::sum(pts()).unwrap();
        let gmax = QueryGroup::with_aggregate(pts(), Aggregate::Max).unwrap();
        let gmin = QueryGroup::with_aggregate(pts(), Aggregate::Min).unwrap();
        assert_eq!(gsum.threshold(&ts), 6.0);
        assert_eq!(gmax.threshold(&ts), 3.0);
        assert_eq!(gmin.threshold(&ts), 1.0);
    }

    #[test]
    fn lower_bound_weights_never_exceed_the_weights() {
        let w = vec![1.0, 0.1, 1e-300, 1e300, 3.5e38, 1e-45, 16_777_217.0];
        let pts = vec![Point::new(1.0, 2.0); w.len()];
        let mut narrow = vec![7.0f32];
        let max = QueryGroup::with_aggregate(pts.clone(), Aggregate::Max).unwrap();
        assert!(!max.lower_bound_weights(&mut narrow), "SUM only");
        assert!(narrow.is_empty());

        let sum = QueryGroup::weighted_sum(pts, w.clone()).unwrap();
        let armed = sum.lower_bound_weights(&mut narrow);
        assert_eq!(
            armed,
            gnn_geom::simd::dispatch_level() == gnn_geom::SimdLevel::Avx2Fma
        );
        if armed {
            assert_eq!(narrow.len(), w.len());
            for (&f, &w) in narrow.iter().zip(&w) {
                // Toward zero, and by less than one f32 step where f32
                // holds the weight at all.
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
    fn centroid_bound_never_exceeds_the_tight_bound() {
        use gnn_geom::batch::BatchKernels;
        use gnn_geom::simd::{pad_len, SimdLevel};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Mutation-checked by hand, each alone: ρ = 0 first fails at
        // "2^0 n=3 weights 1e-300: coincident"; `e` without its μ term at
        // "2^0 n=1 weights 0.1–10: coincident, at c_w" and, with both c_w
        // cases removed, at "2^0 n=1 weights 1e±300: far, affine" (by
        // 6·10⁻⁴ of the key);
        // t = 0 at "2^-80 n=3 weights 1e-300: point rect".
        assert!(QueryGroup::with_aggregate(pts(), Aggregate::Max)
            .unwrap()
            .centroid_bound()
            .is_none());
        let mut rng = StdRng::seed_from_u64(1309_1807);
        let mut checked = 0usize;
        let mut positive = 0usize;
        for level in SimdLevel::available_levels() {
            let kernels = BatchKernels::for_level(level).unwrap();
            // The key through `level`'s batched `mindist²` (as the loop
            // computes it) against the tight bound through `level`'s fold.
            let mut check = |g: &QueryGroup, rect: Rect, what: &str| {
                let cb = g.centroid_bound().unwrap();
                let pad = pad_len(1);
                let (lx, ly) = (vec![rect.lo.x; pad], vec![rect.lo.y; pad]);
                let (hx, hy) = (vec![rect.hi.x; pad], vec![rect.hi.y; pad]);
                let mut sq = Vec::new();
                kernels.rects_mindist_sq_point_padded(&lx, &ly, &hx, &hy, 1, cb.centre, &mut sq);
                let key = cb.key_from_sq(sq[0]);
                let tight = kernels.rect_weighted_mindist_sum(&rect, &g.qx, &g.qy, &g.wts);
                assert!(
                    key >= 0.0 && key <= tight,
                    "{what} on {level:?}: centroid key {key:e} above tight {tight:e} \
                     (rect {rect:?})"
                );
                checked += 1;
                positive += usize::from(key > 0.0);
            };
            for exp in [0, 40, -40, 80, -80, 200, -200] {
                let s = 2f64.powi(exp);
                for n in [1usize, 3, 5, 32, 256] {
                    for (label, weights) in [
                        ("unit", None),
                        ("0.1–10", Some((0.1, 10.0))),
                        ("1e-300", Some((1e-300, 2e-300))),
                        ("1e300", Some((1e300, 2e300))),
                        ("1e±300", Some((1e-300, 1e300))),
                    ] {
                        let make = |pts: Vec<Point>, rng: &mut StdRng| match weights {
                            None => QueryGroup::sum(pts).unwrap(),
                            Some((lo, hi)) => {
                                let w = (0..pts.len())
                                    .map(|i| match (label, i % 2) {
                                        ("1e±300", 0) => lo,
                                        ("1e±300", _) => hi,
                                        _ => rng.gen_range(lo..hi),
                                    })
                                    .collect();
                                QueryGroup::weighted_sum(pts, w).unwrap()
                            }
                        };
                        let what = format!("2^{exp} n={n} weights {label}");
                        // Spread group, rects anywhere around it: overlapping
                        // it, holding its centroid, far off, and degenerate
                        // (a point, a horizontal and a vertical segment).
                        let spread: Vec<Point> = (0..n)
                            .map(|_| {
                                Point::new(
                                    rng.gen_range(-5.0..5.0) * s,
                                    rng.gen_range(-5.0..5.0) * s,
                                )
                            })
                            .collect();
                        let g = make(spread, &mut rng);
                        let c = g.centroid_bound().unwrap().centre;
                        check(
                            &g,
                            Rect::from_corners(c.x - s, c.y - s, c.x + s, c.y + s),
                            &format!("{what}: holds c_w"),
                        );
                        for _ in 0..8 {
                            let (x, y) = (
                                rng.gen_range(-40.0..40.0) * s,
                                rng.gen_range(-40.0..40.0) * s,
                            );
                            let (w, h) = (rng.gen_range(0.0..8.0) * s, rng.gen_range(0.0..8.0) * s);
                            check(
                                &g,
                                Rect::from_corners(x, y, x + w, y + h),
                                &format!("{what}: random rect"),
                            );
                            check(
                                &g,
                                Rect::from_corners(x, y, x, y),
                                &format!("{what}: point rect"),
                            );
                            check(
                                &g,
                                Rect::from_corners(x, y, x + w, y),
                                &format!("{what}: segment rect"),
                            );
                            check(
                                &g,
                                Rect::from_corners(x, y, x, y + h),
                                &format!("{what}: segment rect"),
                            );
                        }
                        // Coincident members, a rect straight across the x
                        // axis: Jensen holds with equality, so only the
                        // relative margin ρ separates the one-term key from
                        // an n-term sum that rounded down. Fails with ρ = 0.
                        let q =
                            Point::new(rng.gen_range(-5.0..5.0) * s, rng.gen_range(-5.0..5.0) * s);
                        let g = make(vec![q; n], &mut rng);
                        for _ in 0..8 {
                            let x = q.x + rng.gen_range(0.5..1e3) * s;
                            check(
                                &g,
                                Rect::from_corners(x, q.y - s, x + s, q.y + s),
                                &format!("{what}: coincident"),
                            );
                        }
                        check(
                            &g,
                            Rect::from_corners(q.x, q.y, q.x, q.y),
                            &format!("{what}: coincident, at c_w"),
                        );
                        // Far from the origin, a spread group beside a tall
                        // rect a hair away: `mindist` is affine over the
                        // group (Jensen again holds with equality) and the
                        // rounded centroid is off by ulps of 2⁴⁰·s — an
                        // absolute error far above ρ·d. Fails without e's
                        // μ term.
                        let far: Vec<Point> = (0..n)
                            .map(|_| {
                                Point::new(
                                    (2f64.powi(40) + rng.gen_range(0.0..1.0)) * s,
                                    rng.gen_range(-1.0..1.0) * s,
                                )
                            })
                            .collect();
                        let g = make(far, &mut rng);
                        for _ in 0..8 {
                            let x = (2f64.powi(40) + 1.0 + rng.gen_range(0.0..1e-3)) * s;
                            check(
                                &g,
                                Rect::from_corners(x, -4.0 * s, x + s, 4.0 * s),
                                &format!("{what}: far, affine"),
                            );
                        }
                    }
                }
            }
        }
        // Most of the cases are real bounds, not the clamp at zero.
        assert!(
            positive * 2 > checked,
            "{positive} positive keys of {checked}"
        );
    }

    #[test]
    fn weights_rejected_for_non_sum() {
        let err = QueryGroup::build(pts(), Some(vec![1.0, 1.0, 1.0]), Aggregate::Max).unwrap_err();
        assert_eq!(err, QueryGroupError::WeightsRequireSum);
    }
}
