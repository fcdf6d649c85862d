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
    /// The SUM fold is sequential in index order over the cached SoA mirror
    /// ([`BatchKernels::point_weighted_dist_sum`](gnn_geom::batch::BatchKernels::point_weighted_dist_sum):
    /// on AVX2 the terms four lanes at a time, their sum one at a time),
    /// which makes every result **bit-identical** to the seed's scalar loop
    /// and to the multi-point conversion kernel
    /// ([`QueryGroup::dist_many_padded`]) — so results never depend on
    /// which engine computed them.
    pub fn dist(&self, p: Point) -> f64 {
        use gnn_geom::batch::BatchKernels;
        match self.aggregate {
            Aggregate::Sum => {
                BatchKernels::auto().point_weighted_dist_sum(p, &self.qx, &self.qy, &self.wts)
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
    /// tier). The bounded MBM loop therefore calls it only on a first leaf
    /// it has no bound for; everywhere else rounded-down bounds over the
    /// same lanes pick the few entries that pay [`QueryGroup::dist`] — the
    /// same bits, one entry at a time: from 48 members a block bound (one
    /// weighted centroid per block of the group, a few terms an entry on
    /// every tier: `f32` on AVX2 where the group's scale allows, this
    /// kernel's `f64` fold otherwise), then on AVX2 an `f32` bound over the
    /// entries left. They drop against `best_dist` once it is finite and,
    /// on the first leaf of a group of 48 or more with more than `k`
    /// entries, against the largest exact distance of the `k` entries
    /// with the smallest block bounds.
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

    /// A SUM group's SoA arrays `(x, y, weights)` — weights all ones when
    /// unweighted — as the bounds of [`gnn_geom::bound`] take them; `None`
    /// for MAX and MIN, which have no such bounds.
    pub(crate) fn sum_arrays(&self) -> Option<(&[f64], &[f64], &[f64])> {
        (self.aggregate == Aggregate::Sum).then_some((&self.qx, &self.qy, &self.wts))
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

    /// The seed's sequential-fold implementation of
    /// [`QueryGroup::tight_bound_rect`], kept as a test oracle: the
    /// reference MBM stream the bounded loop is checked against keys its
    /// children with it, and `proptest_invariants` pins it bit-identical to
    /// the batched kernels for SUM, weighted SUM, MAX and MIN (they fold in
    /// the same order; MAX/MIN take one `sqrt` of the folded square, which
    /// `sqrt`'s monotone correct rounding makes exact). No query prunes
    /// with it.
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
    fn only_sum_groups_have_arrays_for_the_bounds() {
        for agg in [Aggregate::Max, Aggregate::Min] {
            let g = QueryGroup::with_aggregate(pts(), agg).unwrap();
            assert!(g.sum_arrays().is_none(), "{agg}");
        }
        let g = QueryGroup::weighted_sum(pts(), vec![3.0, 1.0, 0.5]).unwrap();
        let (qx, qy, w) = g.sum_arrays().unwrap();
        assert_eq!(
            (qx, qy, w),
            (
                &[0.0, 4.0, 2.0][..],
                &[0.0, 0.0, 3.0][..],
                &[3.0, 1.0, 0.5][..]
            )
        );
        let unit = QueryGroup::sum(pts()).unwrap();
        assert_eq!(
            unit.sum_arrays().unwrap().2,
            [1.0; 3],
            "unweighted: all ones"
        );
    }

    #[test]
    fn weights_rejected_for_non_sum() {
        let err = QueryGroup::build(pts(), Some(vec![1.0, 1.0, 1.0]), Aggregate::Max).unwrap_err();
        assert_eq!(err, QueryGroupError::WeightsRequireSum);
    }
}
