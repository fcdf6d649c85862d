//! SPM — the single point method (paper §3.2, Figure 3.4).
//!
//! SPM answers the GNN query with a *single* traversal anchored at the
//! (approximate) centroid `q` of `Q`. Lemma 1 — `dist(p,Q) ≥ W·|pq| −
//! dist(q,Q)` for **any** anchor `q`, by the triangle inequality — turns the
//! plain point-NN order around `q` into a valid GNN pruning order:
//!
//! * *Heuristic 1*: a node `N` can be pruned when
//!   `mindist(N,q) ≥ (best_dist + dist(q,Q)) / W`.
//!
//! The lemma sums triangle inequalities, so SPM is inherently a
//! SUM-aggregate algorithm (weighted sums work: each inequality is scaled by
//! `w_i` before summing). MAX/MIN queries are rejected.
//!
//! The traversal is best-first, as in the paper's experiments (§5): an
//! incremental point-NN stream around the anchor. Figure 3.4's depth-first
//! walk-through is not implemented.

use crate::centroid::gradient_descent_centroid;
use crate::query::QueryGroup;
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::{Aggregate, MemoryGnnAlgorithm};
use gnn_rtree::{NearestNeighbors, NnScratch, TreeCursor};

/// The single point method: best-first, anchored at the gradient-descent
/// centroid.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spm;

impl Spm {
    /// SPM as the paper runs it (§5): best-first, around the paper's
    /// gradient-descent centroid.
    pub const fn best_first() -> Self {
        Spm
    }
}

impl MemoryGnnAlgorithm for Spm {
    /// # Panics
    ///
    /// Panics for MAX/MIN aggregates (Lemma 1 does not apply).
    fn k_gnn_in<'s>(
        &self,
        cursor: &TreeCursor<'_>,
        group: &QueryGroup,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Neighbor], QueryStats) {
        assert_eq!(
            group.aggregate(),
            Aggregate::Sum,
            "SPM supports only the SUM aggregate (Lemma 1 is a sum of triangle inequalities)"
        );
        let before = cursor.stats();
        let q = gradient_descent_centroid(group.points(), group.explicit_weights());
        let dq = group.dist(q); // dist(q, Q)
        let w = group.total_weight();
        let mut dist_computations = group.len() as u64;
        let QueryScratch {
            best, out, nn_pool, ..
        } = scratch;
        best.reset(k);
        // Incremental NN around the anchor; Lemma 1 converts the ascending
        // |pq| order into a stopping rule (heuristic 1).
        if nn_pool.is_empty() {
            nn_pool.push(NnScratch::default());
        }
        for pn in NearestNeighbors::new_in(cursor, q, &mut nn_pool[0]) {
            if w * pn.dist - dq >= best.bound() {
                break;
            }
            let dist = group.dist(pn.entry.point);
            dist_computations += group.len() as u64;
            best.offer(Neighbor {
                id: pn.entry.id,
                point: pn.entry.point,
                dist,
            });
        }
        let stats = QueryStats {
            data_tree: cursor.stats().since(before),
            dist_computations,
            ..QueryStats::default()
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::linear_scan_entries;
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{LeafEntry, PackedRTree, RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> PackedRTree {
        let mut rng = StdRng::seed_from_u64(seed);
        RTree::bulk_load(
            RTreeParams::with_capacity(8),
            (0..n).map(|i| {
                LeafEntry::new(
                    PointId(i as u64),
                    Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
                )
            }),
        )
        .freeze()
    }

    fn random_group(n: usize, seed: u64) -> QueryGroup {
        let mut rng = StdRng::seed_from_u64(seed);
        QueryGroup::sum(
            (0..n)
                .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn matches_oracle() {
        let tree = random_tree(600, 1);
        let cursor = tree.cursor();
        for seed in 0..8 {
            for &k in &[1usize, 5] {
                let group = random_group(7, seed);
                let want = linear_scan_entries(tree.iter(), &group, k);
                let got = Spm::best_first().k_gnn(&cursor, &group, k);
                assert_eq!(got.distances(), want.distances(), "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn weighted_group_is_exact() {
        let tree = random_tree(400, 4);
        let cursor = tree.cursor();
        let mut rng = StdRng::seed_from_u64(11);
        let pts: Vec<Point> = (0..6)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let w: Vec<f64> = (0..6).map(|_| 0.5 + rng.gen::<f64>() * 4.0).collect();
        let group = QueryGroup::weighted_sum(pts, w).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, 2);
        let got = Spm::best_first().k_gnn(&cursor, &group, 2);
        for (a, b) in got.distances().iter().zip(want.distances()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "SUM aggregate")]
    fn rejects_max_aggregate() {
        let tree = random_tree(10, 5);
        let cursor = tree.cursor();
        let group = QueryGroup::with_aggregate(vec![Point::new(0.0, 0.0)], Aggregate::Max).unwrap();
        Spm::best_first().k_gnn(&cursor, &group, 1);
    }

    #[test]
    fn prunes_far_regions() {
        // Query clustered in a corner: SPM should access far fewer nodes
        // than a full scan.
        let tree = random_tree(5000, 6);
        let cursor = tree.cursor();
        let mut rng = StdRng::seed_from_u64(12);
        let group = QueryGroup::sum(
            (0..8)
                .map(|_| Point::new(rng.gen::<f64>() * 5.0, rng.gen::<f64>() * 5.0))
                .collect(),
        )
        .unwrap();
        let r = Spm::best_first().k_gnn(&cursor, &group, 1);
        assert!(
            (r.stats.data_tree.logical as usize) < tree.node_count() / 4,
            "accessed {} of {} nodes",
            r.stats.data_tree.logical,
            tree.node_count()
        );
    }

    #[test]
    fn empty_tree() {
        let tree = RTree::new(RTreeParams::default()).freeze();
        let cursor = tree.cursor();
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0)]).unwrap();
        assert!(Spm::best_first()
            .k_gnn(&cursor, &group, 2)
            .neighbors
            .is_empty());
    }

    #[test]
    fn figure_3_3_pruning_example() {
        // Paper example: best_dist = 9, dist(q,Q) = 3, n = 2 ⇒ prune bound
        // (9+3)/2 = 6: any node with mindist(N,q) >= 6 is pruned. We verify
        // via Lemma 1 directly: a point at distance 6 from q has
        // dist(p,Q) >= 2*6-3 = 9 >= best_dist.
        let q = Point::new(0.0, 0.0);
        let q1 = Point::new(-1.0, 0.0);
        let q2 = Point::new(2.0, 0.0);
        let group = QueryGroup::sum(vec![q1, q2]).unwrap();
        let dq = group.dist(q);
        assert_eq!(dq, 3.0);
        let p = Point::new(6.0, 0.0);
        assert!(group.dist(p) >= 2.0 * p.dist(q) - dq);
    }
}
