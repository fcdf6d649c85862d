//! GCP — the group closest-pairs method (paper §4.1, Figure 4.2).
//!
//! When `Q` is disk-resident **and indexed by an R-tree**, GCP consumes an
//! incremental closest-pair stream over the two trees (`gnn_rtree::ClosestPairs`).
//! For every data point `p_i` it accumulates `counter(p_i)` (pairs seen) and
//! `curr_dist(p_i)` (summed distance); when the counter reaches `n = |Q|`
//! the global distance is complete.
//!
//! * *Heuristic 4*: after a complete neighbor exists, discard any `p` with
//!   `(n − counter(p)) · dist(p_i, q_j) + curr_dist(p) ≥ best_dist` —
//!   `p` cannot win even if all its missing distances equal the current
//!   pair distance (pairs only grow).
//! * *Thresholds*: `t_p = (best_dist − curr_dist(p)) / (n − counter(p))`;
//!   the global threshold `T = max_p t_p` is the largest pair distance that
//!   can still improve on the best. GCP stops when a complete neighbor
//!   exists and the pair distance reaches `T` (or the qualifying list
//!   empties).
//!
//! The accumulated-sum bookkeeping is inherently SUM-aggregate; GCP rejects
//! MAX/MIN (use [`crate::Fmqm`] / [`crate::Fmbm`] for those).
//!
//! The paper observes GCP "does not terminate at all due to the huge heap
//! requirements" once the query workspace exceeds ~8 % of the data
//! workspace; the closest-pair heap limit reproduces that regime by
//! aborting and flagging [`crate::QueryStats::aborted`].

use crate::best_list::KBestList;
use crate::result::{GnnResult, Neighbor, QueryStats};
use gnn_geom::Point;
use gnn_rtree::{ClosestPairs, TreeCursor};
use std::collections::HashMap;

/// Default bound on the closest-pair heap: ~64 M pending pairs (about 3 GB
/// of heap items) — generous for the paper-scale workloads, small enough to
/// fail fast in the blow-up regime.
pub const GCP_DEFAULT_HEAP_LIMIT: usize = 64_000_000;

/// The group closest-pairs method.
#[derive(Debug, Clone, Copy)]
pub struct Gcp {
    /// Abort (with `stats.aborted = true`) when the closest-pair heap
    /// exceeds this many entries. `usize::MAX` disables the bound.
    pub heap_limit: usize,
    /// Abort after consuming this many closest pairs (a query budget: the
    /// paper's low-pruning regimes consume a large fraction of `|P| × |Q|`
    /// pairs before terminating). `u64::MAX` disables the bound.
    pub pair_limit: u64,
}

impl Default for Gcp {
    fn default() -> Self {
        Gcp {
            heap_limit: GCP_DEFAULT_HEAP_LIMIT,
            pair_limit: u64::MAX,
        }
    }
}

/// Qualifying-list entry: `<p_i, counter(p_i), curr_dist(p_i)>`.
struct QualEntry {
    point: Point,
    counter: usize,
    curr_dist: f64,
}

impl Gcp {
    /// GCP with the default heap limit.
    pub fn new() -> Self {
        Gcp::default()
    }

    /// GCP with no heap or pair bound (exact or bust).
    pub fn unbounded() -> Self {
        Gcp {
            heap_limit: usize::MAX,
            pair_limit: u64::MAX,
        }
    }

    /// Retrieves the `k` group nearest neighbors of the point set indexed by
    /// `query` from the point set indexed by `data` (SUM aggregate).
    ///
    /// When the heap limit is hit, the returned neighbors are best-effort
    /// and `stats.aborted` is set.
    pub fn k_gnn(&self, data: &TreeCursor<'_>, query: &TreeCursor<'_>, k: usize) -> GnnResult {
        let data_before = data.stats();
        let query_before = query.stats();
        let n = query.len();
        let mut best = KBestList::new(k);
        let mut list: HashMap<u64, QualEntry> = HashMap::new();
        let mut threshold = 0.0f64; // the global threshold T
        let mut pairs_consumed = 0u64;
        let mut dist_computations = 0u64;
        let mut aborted = false;

        if n > 0 && !data.is_empty() {
            let mut cp = ClosestPairs::with_heap_limit(data, query, self.heap_limit);
            loop {
                let Some(pair) = cp.next() else {
                    aborted = cp.overflowed();
                    break;
                };
                pairs_consumed += 1;
                dist_computations += 1;
                if pairs_consumed > self.pair_limit {
                    aborted = true;
                    break;
                }
                let d = pair.dist;
                let id = pair.p.id;

                match list.entry(id.0) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        // New point: once k complete neighbors exist it cannot
                        // beat them (all its n distances are >= d, and every
                        // complete neighbor's distances were all <= d).
                        if !best.is_full() {
                            if n == 1 {
                                // Degenerate single-query-point case: the
                                // first pair already completes the neighbor.
                                best.offer(Neighbor {
                                    id,
                                    point: pair.p.point,
                                    dist: d,
                                });
                            } else {
                                v.insert(QualEntry {
                                    point: pair.p.point,
                                    counter: 1,
                                    curr_dist: d,
                                });
                            }
                        }
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        let e = o.get_mut();
                        e.counter += 1;
                        e.curr_dist += d;
                        if e.counter == n {
                            let (curr, point) = (e.curr_dist, e.point);
                            o.remove();
                            if curr < best.bound() {
                                best.offer(Neighbor {
                                    id,
                                    point,
                                    dist: curr,
                                });
                                // Re-scan the qualifying list: apply
                                // heuristic 4 against the new best_dist and
                                // rebuild the threshold T.
                                let bound = best.bound();
                                threshold = 0.0;
                                list.retain(|_, e| {
                                    let missing = (n - e.counter) as f64;
                                    if missing * d + e.curr_dist >= bound {
                                        false
                                    } else {
                                        let t = (bound - e.curr_dist) / missing;
                                        if t > threshold {
                                            threshold = t;
                                        }
                                        true
                                    }
                                });
                            }
                        } else if best.is_full() {
                            // Heuristic 4 on the point of the current pair.
                            let missing = (n - e.counter) as f64;
                            if missing * d + e.curr_dist >= best.bound() {
                                o.remove();
                            } else {
                                let t = (best.bound() - e.curr_dist) / missing;
                                if t > threshold {
                                    threshold = t;
                                }
                            }
                        }
                    }
                }

                // Figure 4.2 termination: a best exists and either the pair
                // distance reached the threshold or no candidate remains.
                if best.is_full() && (d >= threshold || list.is_empty()) {
                    break;
                }
            }
            let stats = QueryStats {
                data_tree: data.stats().since(data_before),
                query_tree: query.stats().since(query_before),
                dist_computations,
                items_pulled: pairs_consumed,
                heap_watermark: cp.heap_watermark(),
                aborted,
                ..QueryStats::default()
            };
            return GnnResult {
                neighbors: best.into_sorted(),
                stats,
            };
        }

        GnnResult {
            neighbors: Vec::new(),
            stats: QueryStats {
                ..QueryStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::linear_scan_entries;
    use crate::QueryGroup;
    use gnn_geom::PointId;
    use gnn_rtree::{LeafEntry, PackedRTree, RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tree_of(points: &[Point], id_base: u64, cap: usize) -> PackedRTree {
        RTree::bulk_load(
            RTreeParams::with_capacity(cap),
            points
                .iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(id_base + i as u64), p)),
        )
        .freeze()
    }

    fn random_points(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    lo + rng.gen::<f64>() * (hi - lo),
                    lo + rng.gen::<f64>() * (hi - lo),
                )
            })
            .collect()
    }

    #[test]
    fn matches_oracle_small() {
        for seed in 0..6 {
            let data = random_points(150, seed, 0.0, 100.0);
            let queries = random_points(12, 1000 + seed, 30.0, 70.0);
            let dt = tree_of(&data, 0, 8);
            let qt = tree_of(&queries, 0, 8);
            let dc = dt.cursor();
            let qc = qt.cursor();
            let group = QueryGroup::sum(queries.clone()).unwrap();
            for &k in &[1usize, 5] {
                let got = Gcp::new().k_gnn(&dc, &qc, k);
                assert!(!got.stats.aborted);
                let want = linear_scan_entries(dt.iter(), &group, k);
                let g = got.distances();
                let w = want.distances();
                assert_eq!(g.len(), w.len(), "seed={seed} k={k}");
                for (a, b) in g.iter().zip(&w) {
                    assert!((a - b).abs() < 1e-9, "seed={seed} k={k}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn paper_figure_4_1_walkthrough() {
        // Distances engineered so p2 completes first with global distance
        // 11 and p1 later wins with ~10.3, mirroring the example's dynamics
        // (exact coordinates differ; the structural behavior is the test).
        let q = vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(4.0, 6.0),
        ];
        let data = vec![
            Point::new(4.0, 2.0),   // central: small sum
            Point::new(4.0, 1.0),   // also central
            Point::new(20.0, 20.0), // far: pruned by heuristic 4
        ];
        let dt = tree_of(&data, 0, 4);
        let qt = tree_of(&q, 0, 4);
        let dc = dt.cursor();
        let qc = qt.cursor();
        let got = Gcp::new().k_gnn(&dc, &qc, 1);
        let group = QueryGroup::sum(q).unwrap();
        let want = linear_scan_entries(dt.iter(), &group, 1);
        assert_eq!(got.best().unwrap().id, want.best().unwrap().id);
        assert!((got.best().unwrap().dist - want.best().unwrap().dist).abs() < 1e-9);
    }

    #[test]
    fn early_termination_beats_full_cartesian_product() {
        // Query concentrated inside the data workspace (the paper's "high
        // pruning" case, Figure 4.3a): GCP must terminate long before
        // |P| x |Q| pairs.
        let data = random_points(2000, 1, 0.0, 100.0);
        let queries = random_points(50, 2, 45.0, 55.0);
        let dt = tree_of(&data, 0, 16);
        let qt = tree_of(&queries, 0, 16);
        let dc = dt.cursor();
        let qc = qt.cursor();
        let got = Gcp::new().k_gnn(&dc, &qc, 1);
        assert!(!got.stats.aborted);
        assert!(
            got.stats.items_pulled < (2000 * 50) / 4,
            "consumed {} pairs",
            got.stats.items_pulled
        );
        let group = QueryGroup::sum(queries).unwrap();
        let want = linear_scan_entries(dt.iter(), &group, 1);
        assert!((got.best().unwrap().dist - want.best().unwrap().dist).abs() < 1e-9);
    }

    #[test]
    fn heap_limit_aborts_gracefully() {
        let data = random_points(500, 3, 0.0, 100.0);
        let queries = random_points(500, 4, 200.0, 300.0); // disjoint: low pruning
        let dt = tree_of(&data, 0, 8);
        let qt = tree_of(&queries, 0, 8);
        let dc = dt.cursor();
        let qc = qt.cursor();
        let got = Gcp {
            heap_limit: 256,
            ..Gcp::default()
        }
        .k_gnn(&dc, &qc, 1);
        assert!(got.stats.aborted);
        assert!(got.stats.heap_watermark <= 256);
    }

    #[test]
    fn pair_limit_aborts_gracefully() {
        let data = random_points(300, 30, 0.0, 100.0);
        let queries = random_points(50, 31, 0.0, 100.0);
        let dt = tree_of(&data, 0, 8);
        let qt = tree_of(&queries, 0, 8);
        let dc = dt.cursor();
        let qc = qt.cursor();
        let got = Gcp {
            pair_limit: 100,
            ..Gcp::default()
        }
        .k_gnn(&dc, &qc, 1);
        assert!(got.stats.aborted);
        assert!(got.stats.items_pulled <= 101);
    }

    #[test]
    fn empty_inputs() {
        let data = tree_of(&[], 0, 4);
        let queries = tree_of(&random_points(5, 5, 0.0, 1.0), 0, 4);
        let dc = data.cursor();
        let qc = queries.cursor();
        assert!(Gcp::new().k_gnn(&dc, &qc, 1).neighbors.is_empty());
        // Empty query side.
        let dt = tree_of(&random_points(5, 6, 0.0, 1.0), 0, 4);
        let qe = tree_of(&[], 0, 4);
        let dc2 = dt.cursor();
        let qc2 = qe.cursor();
        assert!(Gcp::new().k_gnn(&dc2, &qc2, 2).neighbors.is_empty());
    }

    #[test]
    fn k_equals_dataset_size() {
        let data = random_points(20, 7, 0.0, 10.0);
        let queries = random_points(4, 8, 2.0, 8.0);
        let dt = tree_of(&data, 0, 4);
        let qt = tree_of(&queries, 0, 4);
        let dc = dt.cursor();
        let qc = qt.cursor();
        let got = Gcp::new().k_gnn(&dc, &qc, 20);
        let group = QueryGroup::sum(queries).unwrap();
        let want = linear_scan_entries(dt.iter(), &group, 20);
        assert_eq!(got.neighbors.len(), 20);
        for (a, b) in got.distances().iter().zip(want.distances()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn watermark_reported() {
        let data = random_points(300, 9, 0.0, 50.0);
        let queries = random_points(30, 10, 10.0, 40.0);
        let dt = tree_of(&data, 0, 8);
        let qt = tree_of(&queries, 0, 8);
        let dc = dt.cursor();
        let qc = qt.cursor();
        let got = Gcp::new().k_gnn(&dc, &qc, 3);
        assert!(got.stats.heap_watermark > 0);
        assert!(got.stats.query_tree.logical > 0);
    }
}
