//! F-MBM — the file minimum bounding method (paper §4.3, Figure 4.7).
//!
//! F-MBM keeps only the MBR `M_i` and cardinality `n_i` of every query
//! group resident in memory and descends the data R-tree once:
//!
//! * *Heuristic 5*: a node `N` is pruned when its **weighted mindist**
//!   `Σ_i n_i · mindist(N, M_i)` reaches `best_dist` (aggregate-generalised
//!   to `max_i` / `min_i mindist(N, M_i)` for MAX/MIN).
//! * At a leaf, groups are loaded from disk in **descending**
//!   `mindist(N, M_i)` order — far groups first, because they prune points
//!   fastest — and each point accumulates its distance group by group.
//! * *Heuristic 6*: a point `p` whose accumulated distance plus
//!   `Σ_{l≥i} n_l · mindist(p, M_l)` (its best conceivable remainder)
//!   reaches `best_dist` is dropped before any further distance
//!   computation.
//!
//! The traversal is best-first, as in the paper's experiments (§5);
//! Figure 4.7's depth-first walk-through is not implemented. All per-query
//! state — the traversal heap, the leaf-processing matrices, the group load
//! buffer — lives in [`FmbmScratch`] inside [`crate::QueryScratch`].

use crate::best_list::KBestList;
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::{Aggregate, FileGnnAlgorithm};
use gnn_geom::{OrderedF64, Point, Rect};
use gnn_qfile::{FileCursor, GroupSpec, GroupedQueryFile};
use gnn_rtree::{LeafEntry, LeafRef, PageId, PageRef, TreeCursor};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The file minimum bounding method: best-first, with heuristics 5 and 6.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fmbm;

/// One live point of a leaf being processed: its entry, the accumulated
/// aggregate over the groups loaded so far, and the row of its heuristic-6
/// suffix table inside [`FmbmScratch::suffix`].
#[derive(Debug, Clone, Copy)]
struct AliveSlot {
    entry: LeafEntry,
    acc: f64,
    row: u32,
}

/// Reusable storage of one F-MBM query.
#[derive(Debug, Default)]
pub(crate) struct FmbmScratch {
    /// Best-first traversal heap (heuristic-5 keys).
    heap: BinaryHeap<Reverse<(OrderedF64, PageId, Rect2)>>,
    /// Group processing order per leaf (descending node mindist).
    order: Vec<usize>,
    /// Per-group sort keys for `order`.
    keys: Vec<f64>,
    /// Live points of the leaf being processed.
    alive: Vec<AliveSlot>,
    /// Heuristic-6 suffix table, row-major with stride `m + 1`.
    suffix: Vec<f64>,
    /// Group load buffer (reused across `load_group_into` calls).
    group_pts: Vec<Point>,
}

impl FmbmScratch {
    pub(crate) fn capacity_profile(&self) -> impl Iterator<Item = usize> + '_ {
        [
            self.heap.capacity(),
            self.order.capacity(),
            self.keys.capacity(),
            self.alive.capacity(),
            self.suffix.capacity(),
            self.group_pts.capacity(),
        ]
        .into_iter()
    }
}

impl Fmbm {
    /// F-MBM as the paper runs it (§5): best-first.
    pub const fn best_first() -> Self {
        Fmbm
    }
}

impl FileGnnAlgorithm for Fmbm {
    fn k_gnn_in<'s>(
        &self,
        data: &TreeCursor<'_>,
        query: &GroupedQueryFile,
        query_cursor: &FileCursor<'_>,
        k: usize,
        aggregate: Aggregate,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Neighbor], QueryStats) {
        let data_before = data.stats();
        let qpages_before = query_cursor.page_reads();
        let QueryScratch {
            best, out, fmbm, ..
        } = scratch;
        if query.group_count() == 0 || data.is_empty() {
            out.clear();
            return (&*out, QueryStats::default());
        }
        best.reset(k);

        let mut ctx = SearchCtx {
            query,
            query_cursor,
            aggregate,
            best,
            dist_computations: 0,
            scratch: fmbm,
        };

        // Min-heap of nodes keyed by weighted mindist (heuristic 5 is the
        // termination rule: once the key reaches best_dist, nothing below
        // any pending node can win).
        let root_key = ctx.weighted_mindist_rect(&data.root_mbr());
        ctx.scratch.heap.clear();
        ctx.scratch.heap.push(Reverse((
            OrderedF64(root_key),
            data.root(),
            Rect2(data.root_mbr()),
        )));
        while let Some(Reverse((key, id, mbr))) = ctx.scratch.heap.pop() {
            if key.get() >= ctx.best.bound() {
                break;
            }
            match data.read(id) {
                PageRef::Leaf(es) => ctx.process_leaf(&es, &mbr.0),
                PageRef::Internal(view) => {
                    for i in 0..view.len() {
                        let child_mbr = view.mbr(i);
                        let child_key = ctx.weighted_mindist_rect(&child_mbr);
                        if child_key < ctx.best.bound() {
                            ctx.scratch.heap.push(Reverse((
                                OrderedF64(child_key),
                                view.child(i),
                                Rect2(child_mbr),
                            )));
                        }
                    }
                }
            }
        }

        let stats = QueryStats {
            data_tree: data.stats().since(data_before),
            query_file_pages: query_cursor.page_reads() - qpages_before,
            dist_computations: ctx.dist_computations,
            ..QueryStats::default()
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }
}

/// Shared state of one F-MBM search.
struct SearchCtx<'q, 'f, 'c, 's> {
    query: &'q GroupedQueryFile,
    query_cursor: &'c FileCursor<'f>,
    aggregate: Aggregate,
    best: &'s mut KBestList,
    dist_computations: u64,
    scratch: &'s mut FmbmScratch,
}

impl SearchCtx<'_, '_, '_, '_> {
    /// Heuristic 5's weighted mindist of a rectangle w.r.t. all query
    /// groups: `Σ n_i · mindist(R, M_i)` (SUM), or the max/min of the plain
    /// mindists.
    fn weighted_mindist_rect(&mut self, r: &Rect) -> f64 {
        let specs = self.query.groups();
        self.dist_computations += specs.len() as u64;
        weighted_mindist(specs, self.aggregate, |spec| r.mindist_rect(&spec.mbr))
    }

    /// Processes one leaf: load groups in descending `mindist(N, M_i)`
    /// order, accumulating distances and shedding points via heuristic 6.
    fn process_leaf(&mut self, leaf: &LeafRef<'_>, node_mbr: &Rect) {
        let specs = self.query.groups();
        let m = specs.len();
        let s = &mut *self.scratch;

        // Group processing order: descending mindist from this node ("groups
        // that are far from the node are likely to prune numerous data
        // points", §4.3).
        s.keys.clear();
        s.keys
            .extend(specs.iter().map(|spec| node_mbr.mindist_rect(&spec.mbr)));
        self.dist_computations += m as u64;
        s.order.clear();
        s.order.extend(0..m);
        let keys = &s.keys;
        s.order
            .sort_unstable_by(|&a, &b| keys[b].total_cmp(&keys[a]));

        // Per point: mindists to every group MBR (in processing order) and
        // the suffix aggregation of their weighted values — heuristic 6's
        // "best conceivable remainder" in O(1) per step.
        let stride = m + 1;
        s.suffix.clear();
        s.suffix
            .resize(leaf.len() * stride, self.aggregate.identity());
        for j in (0..m).rev() {
            let spec = &specs[s.order[j]];
            self.dist_computations += leaf.len() as u64;
            for (e, entry) in leaf.entries().enumerate() {
                let d = spec.mbr.mindist_point_sq(entry.point).sqrt();
                let weighted = match self.aggregate {
                    Aggregate::Sum => spec.count as f64 * d,
                    Aggregate::Max | Aggregate::Min => d,
                };
                s.suffix[e * stride + j] =
                    self.aggregate.fold(s.suffix[e * stride + j + 1], weighted);
            }
        }
        s.alive.clear();
        s.alive
            .extend(leaf.entries().enumerate().map(|(e, entry)| AliveSlot {
                entry,
                acc: self.aggregate.identity(),
                row: e as u32,
            }));

        for j in 0..m {
            let gi = s.order[j];
            // Heuristic 6 (at j = 0 this is the pure weighted-mindist filter
            // of Figure 4.7's point pre-pass). For MIN the accumulator only
            // shrinks, so the prune key combines accumulated and remainder
            // exactly the same way.
            let bound = self.best.bound();
            let aggregate = self.aggregate;
            let suffix = &s.suffix;
            s.alive
                .retain(|a| aggregate.combine(a.acc, suffix[a.row as usize * stride + j]) < bound);
            if s.alive.is_empty() {
                return;
            }
            // Load group `gi` (paying its pages) and accumulate.
            self.query
                .load_group_into(self.query_cursor, gi, &mut s.group_pts);
            let spec = &specs[gi];
            for a in s.alive.iter_mut() {
                let d = group_distance(&s.group_pts, a.entry.point, aggregate);
                self.dist_computations += spec.count as u64;
                a.acc = aggregate.combine(a.acc, d);
            }
        }

        for a in s.alive.drain(..) {
            self.best.offer(Neighbor {
                id: a.entry.id,
                point: a.entry.point,
                dist: a.acc,
            });
        }
    }
}

/// Aggregates a per-group metric over all group specs with the SUM variant
/// weighted by group cardinality (the `Σ n_i · mindist` of heuristic 5).
fn weighted_mindist(
    specs: &[GroupSpec],
    aggregate: Aggregate,
    metric: impl Fn(&GroupSpec) -> f64,
) -> f64 {
    let mut acc = aggregate.identity();
    for spec in specs {
        let d = metric(spec);
        let weighted = match aggregate {
            Aggregate::Sum => spec.count as f64 * d,
            Aggregate::Max | Aggregate::Min => d,
        };
        acc = aggregate.fold(acc, weighted);
    }
    acc
}

/// Aggregate distance from `p` to one loaded group.
fn group_distance(group_points: &[Point], p: Point, aggregate: Aggregate) -> f64 {
    let mut acc = aggregate.identity();
    for q in group_points {
        acc = aggregate.fold(acc, p.dist(*q));
    }
    acc
}

/// `Rect` with the total order needed to sit inside the traversal heap's
/// tuple (never meaningfully compared: the key and page id disambiguate
/// first).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rect2(Rect);

impl Eq for Rect2 {}
impl PartialOrd for Rect2 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Rect2 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |r: &Rect| {
            (
                r.lo.x.to_bits(),
                r.lo.y.to_bits(),
                r.hi.x.to_bits(),
                r.hi.y.to_bits(),
            )
        };
        key(&self.0).cmp(&key(&other.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::linear_scan_entries;
    use crate::QueryGroup;
    use gnn_geom::PointId;
    use gnn_rtree::{PackedRTree, RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn data_tree(points: &[Point]) -> PackedRTree {
        RTree::bulk_load(
            RTreeParams::with_capacity(8),
            points
                .iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        )
        .freeze()
    }

    fn check_against_oracle(
        data_pts: &[Point],
        query_pts: Vec<Point>,
        group_capacity: usize,
        k: usize,
        aggregate: Aggregate,
    ) {
        let tree = data_tree(data_pts);
        let cursor = tree.cursor();
        let qf = GroupedQueryFile::build_with(query_pts.clone(), 16, group_capacity);
        let fc = FileCursor::new(qf.file());
        let got = Fmbm::best_first().k_gnn(&cursor, &qf, &fc, k, aggregate);
        let group = QueryGroup::with_aggregate(query_pts, aggregate).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, k);
        let g = got.distances();
        let w = want.distances();
        assert_eq!(g.len(), w.len(), "agg={aggregate} k={k}");
        for (a, b) in g.iter().zip(&w) {
            assert!(
                (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                "agg={aggregate} k={k}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn matches_oracle() {
        for seed in 0..5 {
            let data = random_points(300, seed, 0.0, 100.0);
            let queries = random_points(120, 700 + seed, 20.0, 80.0);
            check_against_oracle(&data, queries, 32, 1, Aggregate::Sum);
        }
    }

    #[test]
    fn k_greater_than_one() {
        let data = random_points(400, 31, 0.0, 100.0);
        let queries = random_points(100, 32, 10.0, 90.0);
        check_against_oracle(&data, queries, 40, 8, Aggregate::Sum);
    }

    #[test]
    fn max_and_min_aggregates() {
        let data = random_points(250, 33, 0.0, 100.0);
        let queries = random_points(80, 34, 30.0, 70.0);
        for agg in [Aggregate::Max, Aggregate::Min] {
            check_against_oracle(&data, queries.clone(), 30, 3, agg);
        }
    }

    #[test]
    fn disjoint_and_overlapping_workspaces() {
        let data = random_points(300, 35, 0.0, 50.0);
        let far = random_points(60, 36, 200.0, 260.0);
        check_against_oracle(&data, far, 20, 2, Aggregate::Sum);
        let within = random_points(60, 37, 10.0, 40.0);
        check_against_oracle(&data, within, 20, 2, Aggregate::Sum);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let data = random_points(300, 50, 0.0, 100.0);
        let tree = data_tree(&data);
        let cursor = tree.cursor();
        let mut scratch = QueryScratch::new();
        for seed in 0..4 {
            let queries = random_points(80, 900 + seed, 10.0, 90.0);
            let qf = GroupedQueryFile::build_with(queries.clone(), 16, 25);
            let fc = FileCursor::new(qf.file());
            let fresh = Fmbm::best_first().k_gnn(&cursor, &qf, &fc, 3, Aggregate::Sum);
            let (reused, _) =
                Fmbm::best_first().k_gnn_in(&cursor, &qf, &fc, 3, Aggregate::Sum, &mut scratch);
            let got: Vec<f64> = reused.iter().map(|n| n.dist).collect();
            assert_eq!(got, fresh.distances(), "seed={seed}");
        }
    }

    #[test]
    fn heuristic5_prunes_nodes() {
        // Clustered query far from most of the data: F-MBM must not read the
        // whole tree.
        let data = random_points(5000, 38, 0.0, 100.0);
        let tree = data_tree(&data);
        let cursor = tree.cursor();
        let queries = random_points(200, 39, 0.0, 10.0);
        let qf = GroupedQueryFile::build_with(queries, 16, 64);
        let fc = FileCursor::new(qf.file());
        let r = Fmbm::best_first().k_gnn(&cursor, &qf, &fc, 1, Aggregate::Sum);
        assert!(
            (r.stats.data_tree.logical as usize) < tree.node_count() / 3,
            "read {} of {} nodes",
            r.stats.data_tree.logical,
            tree.node_count()
        );
        assert!(r.best().is_some());
    }

    #[test]
    fn group_loads_are_charged() {
        let data = random_points(200, 40, 0.0, 100.0);
        let tree = data_tree(&data);
        let cursor = tree.cursor();
        let queries = random_points(64, 41, 40.0, 60.0);
        let qf = GroupedQueryFile::build_with(queries, 16, 32);
        let fc = FileCursor::new(qf.file());
        let r = Fmbm::best_first().k_gnn(&cursor, &qf, &fc, 1, Aggregate::Sum);
        assert!(r.stats.query_file_pages > 0);
    }

    #[test]
    fn empty_query_file() {
        let data = random_points(50, 42, 0.0, 10.0);
        let tree = data_tree(&data);
        let cursor = tree.cursor();
        let qf = GroupedQueryFile::build_with(vec![], 16, 32);
        let fc = FileCursor::new(qf.file());
        let r = Fmbm::best_first().k_gnn(&cursor, &qf, &fc, 3, Aggregate::Sum);
        assert!(r.neighbors.is_empty());
    }

    #[test]
    fn k_larger_than_dataset() {
        let data = random_points(12, 43, 0.0, 10.0);
        let queries = random_points(50, 44, 0.0, 10.0);
        check_against_oracle(&data, queries, 20, 40, Aggregate::Sum);
    }

    #[test]
    fn single_point_groups() {
        // group_capacity == page_capacity: every group is one page.
        let data = random_points(100, 45, 0.0, 20.0);
        let queries = random_points(48, 46, 5.0, 15.0);
        check_against_oracle(&data, queries, 16, 2, Aggregate::Sum);
    }
}
