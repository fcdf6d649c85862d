//! MQM — the multiple query method (paper §3.1, Figure 3.2).
//!
//! MQM adapts the threshold algorithm \[FLN01\] to GNN search: it runs one
//! *incremental* point-NN query per query point `q_i` (best-first search,
//! §2) and combines the streams round-robin. Each stream's last reported
//! distance is its threshold `t_i`; any point not yet seen by stream `i` is
//! at least `t_i` from `q_i`, so every unseen point has aggregate distance
//! at least `T = Σ_i w_i t_i` (or `max`/`min` for those aggregates). The
//! search stops as soon as `T ≥ best_dist`.
//!
//! Query points are visited in Hilbert order "to achieve locality of the
//! node accesses for individual queries" — consecutive streams then touch
//! nearby R-tree nodes and the shared LRU buffer absorbs the repeats.

use crate::query::QueryGroup;
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::MemoryGnnAlgorithm;
use gnn_geom::hilbert::HilbertMapper;
use gnn_rtree::{NearestNeighbors, NnScratch, TreeCursor};

/// The multiple query method.
///
/// Supports every aggregate (SUM / MAX / MIN) and weighted SUM: the
/// per-stream thresholds compose through [`QueryGroup::threshold`]. Query
/// points are always visited in Hilbert order, as in the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mqm;

impl Mqm {
    /// MQM with the paper's configuration.
    pub const fn new() -> Self {
        Mqm
    }
}

impl MemoryGnnAlgorithm for Mqm {
    /// The per-stream NN heaps live in the scratch's pool and are
    /// suspended/resumed between round-robin turns, so a warmed-up scratch
    /// performs no per-query heap allocations.
    fn k_gnn_in<'s>(
        &self,
        cursor: &TreeCursor<'_>,
        group: &QueryGroup,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Neighbor], QueryStats) {
        let before = cursor.stats();
        let n = group.len();
        let QueryScratch {
            best,
            out,
            nn_pool,
            order,
            ts,
            evaluated,
            ..
        } = scratch;
        best.reset(k);
        evaluated.clear();

        // Order query points by Hilbert value over the data workspace.
        order.clear();
        order.extend(0..n);
        if n > 1 {
            let workspace = {
                let mut ws = cursor.root_mbr();
                if ws.is_empty() {
                    ws = group.mbr();
                } else {
                    ws.expand_rect(&group.mbr());
                }
                ws
            };
            let mapper = HilbertMapper::new(workspace);
            order.sort_unstable_by_key(|&i| mapper.key(group.points()[i]));
        }

        // One incremental best-first NN stream per query point, all sharing
        // `cursor` (and therefore its LRU buffer). Stream state lives in the
        // scratch pool; `new_in` seeds it, `resume_in` picks it up on each
        // round-robin turn.
        if nn_pool.len() < n {
            nn_pool.resize_with(n, NnScratch::default);
        }
        for (slot, &qi) in order.iter().enumerate() {
            NearestNeighbors::new_in(cursor, group.points()[qi], &mut nn_pool[slot]);
        }

        ts.clear();
        ts.resize(n, 0.0);
        let mut dist_computations = 0u64;
        let mut items_pulled = 0u64;
        let mut exhausted = false;

        'outer: loop {
            for (slot, &qi) in order.iter().enumerate() {
                if group.threshold(ts) >= best.bound() {
                    break 'outer;
                }
                let q = group.points()[qi];
                let next = NearestNeighbors::resume_in(cursor, q, &mut nn_pool[slot]).next();
                match next {
                    Some(pn) => {
                        items_pulled += 1;
                        ts[qi] = pn.dist;
                        if evaluated.insert(pn.entry.id.0) {
                            let dist = group.dist(pn.entry.point);
                            dist_computations += n as u64;
                            best.offer(Neighbor {
                                id: pn.entry.id,
                                point: pn.entry.point,
                                dist,
                            });
                        }
                    }
                    None => {
                        // This stream has enumerated all of P: every point
                        // has been evaluated exactly, so the result is final.
                        exhausted = true;
                        break 'outer;
                    }
                }
            }
        }
        let _ = exhausted;

        let stats = QueryStats {
            data_tree: cursor.stats().since(before),
            dist_computations,
            items_pulled,
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
    use crate::Aggregate;
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

    fn random_group(n: usize, seed: u64, agg: Aggregate) -> QueryGroup {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| {
                Point::new(
                    20.0 + rng.gen::<f64>() * 30.0,
                    20.0 + rng.gen::<f64>() * 30.0,
                )
            })
            .collect();
        QueryGroup::with_aggregate(pts, agg).unwrap()
    }

    #[test]
    fn paper_figure_3_1_example() {
        // Q = {q1, q2}; data points placed so that p11 minimises the sum, as
        // in the worked example (distances 3+3=6 vs p10's 2+5=7).
        let q1 = Point::new(0.0, 0.0);
        let q2 = Point::new(6.0, 0.0);
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(4),
            [
                LeafEntry::new(PointId(10), Point::new(-2.0, 0.0)), // p10: 2 from q1, 8 from q2
                LeafEntry::new(PointId(11), Point::new(3.0, 0.0)),  // p11: 3 + 3 = 6
                LeafEntry::new(PointId(12), Point::new(9.0, 0.0)),  // 9 + 3 = 12
            ],
        )
        .freeze();
        let cursor = tree.cursor();
        let group = QueryGroup::sum(vec![q1, q2]).unwrap();
        let r = Mqm::new().k_gnn(&cursor, &group, 1);
        assert_eq!(r.best().unwrap().id, PointId(11));
        assert_eq!(r.best().unwrap().dist, 6.0);
    }

    #[test]
    fn matches_oracle_on_random_inputs() {
        let tree = random_tree(400, 1);
        let cursor = tree.cursor();
        for seed in 0..8 {
            for &k in &[1usize, 4] {
                let group = random_group(6, seed, Aggregate::Sum);
                let got = Mqm::new().k_gnn(&cursor, &group, k);
                let want = linear_scan_entries(tree.iter(), &group, k);
                assert_eq!(got.distances(), want.distances(), "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn supports_max_and_min_aggregates() {
        let tree = random_tree(300, 2);
        let cursor = tree.cursor();
        for agg in [Aggregate::Max, Aggregate::Min] {
            for seed in 0..5 {
                let group = random_group(5, 100 + seed, agg);
                let got = Mqm::new().k_gnn(&cursor, &group, 3);
                let want = linear_scan_entries(tree.iter(), &group, 3);
                let g = got.distances();
                let w = want.distances();
                assert_eq!(g.len(), w.len(), "{agg} seed={seed}");
                for (a, b) in g.iter().zip(&w) {
                    assert!((a - b).abs() < 1e-9, "{agg} seed={seed}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn weighted_sum_agrees_with_oracle() {
        let tree = random_tree(300, 3);
        let cursor = tree.cursor();
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<Point> = (0..5)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let ws: Vec<f64> = (0..5).map(|_| rng.gen::<f64>() * 3.0 + 0.1).collect();
        let group = QueryGroup::weighted_sum(pts, ws).unwrap();
        let got = Mqm::new().k_gnn(&cursor, &group, 4);
        let want = linear_scan_entries(tree.iter(), &group, 4);
        for (a, b) in got.distances().iter().zip(want.distances()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn single_query_point_degenerates_to_point_nn() {
        let tree = random_tree(200, 4);
        let cursor = tree.cursor();
        let group = QueryGroup::sum(vec![Point::new(50.0, 50.0)]).unwrap();
        let got = Mqm::new().k_gnn(&cursor, &group, 5);
        let want = linear_scan_entries(tree.iter(), &group, 5);
        assert_eq!(got.distances(), want.distances());
    }

    #[test]
    fn terminates_without_scanning_everything() {
        // On a big tree with a small query MBR, MQM must not evaluate every
        // data point.
        let tree = random_tree(5000, 5);
        let cursor = tree.cursor();
        let group = random_group(4, 6, Aggregate::Sum);
        let r = Mqm::new().k_gnn(&cursor, &group, 1);
        assert!(
            r.stats.items_pulled < 5000,
            "pulled {} items",
            r.stats.items_pulled
        );
        assert!(r.best().is_some());
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let tree = RTree::new(RTreeParams::default()).freeze();
        let cursor = tree.cursor();
        let group = QueryGroup::sum(vec![Point::new(1.0, 1.0)]).unwrap();
        let r = Mqm::new().k_gnn(&cursor, &group, 3);
        assert!(r.neighbors.is_empty());
    }

    #[test]
    fn duplicate_query_points_are_fine() {
        let tree = random_tree(200, 9);
        let cursor = tree.cursor();
        let p = Point::new(42.0, 43.0);
        let group = QueryGroup::sum(vec![p, p, p]).unwrap();
        let got = Mqm::new().k_gnn(&cursor, &group, 2);
        let want = linear_scan_entries(tree.iter(), &group, 2);
        assert_eq!(got.distances(), want.distances());
    }
}
