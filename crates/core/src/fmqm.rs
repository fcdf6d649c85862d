//! F-MQM — the file multiple query method (paper §4.2, Figure 4.4).
//!
//! Plain MQM on a disk-resident `Q` would run one incremental NN query per
//! query point — hundreds of thousands of streams. F-MQM instead splits the
//! Hilbert-sorted file into memory-sized groups `Q1..Qm` and treats each
//! *group* like MQM treats a single query point:
//!
//! * each group runs an incremental **group** NN stream (MBM, the best
//!   main-memory algorithm per §5.1);
//! * the groups are served round-robin; each turn re-reads the group's
//!   pages (one group fits in memory at a time) and advances its stream;
//! * a retrieved neighbor's global distance is completed *lazily*: every
//!   other group adds its part when its own turn comes;
//! * the group thresholds `t_j = dist(p_j, Q_j)` combine into the global
//!   threshold `T` (sum/max/min per the aggregate); when `T ≥ best_dist` no
//!   unseen point can win.
//!
//! Two details the paper's pseudocode leaves implicit are handled
//! explicitly (see `DESIGN.md` §6):
//!
//! 1. **Flush** — at termination, candidates whose lazy accumulation is
//!    still in flight get their missing group distances computed (charging
//!    the group loads), so the result is exact rather than
//!    almost-always-exact.
//! 2. **Duplicate suppression** — the same data point surfacing through two
//!    groups' streams must not occupy two slots of a `k > 1` result list,
//!    so completed/live point ids are tracked and repeats skipped. This
//!    subsumes the paper's optional "keep each NN in memory" memoization.
//!
//! The per-group stream heaps, thresholds and candidate bookkeeping live in
//! [`FmqmScratch`] inside [`crate::QueryScratch`]; the streams are
//! suspended/resumed via [`MbmStream::resume_in`] between round-robin
//! turns, and candidate `got` masks are recycled through a pool. The only
//! per-query allocations left are the materialised [`QueryGroup`]s, whose
//! construction the paper charges to the (metered) group page reads.

use crate::mbm::{MbmScratch, MbmStream};
use crate::query::QueryGroup;
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::{Aggregate, FileGnnAlgorithm};
use gnn_geom::PointId;
use gnn_qfile::{FileCursor, GroupedQueryFile};
use gnn_rtree::TreeCursor;
use std::collections::HashSet;

/// The file multiple query method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fmqm;

/// A data point whose global distance is being accumulated lazily.
#[derive(Debug)]
struct Candidate {
    id: PointId,
    point: gnn_geom::Point,
    /// Aggregate over the groups that have contributed so far.
    acc: f64,
    /// `got[i]`: group `i` has contributed. Recycled through the pool.
    got: Vec<bool>,
    missing: usize,
}

/// Reusable storage of one F-MQM query.
#[derive(Debug, Default)]
pub(crate) struct FmqmScratch {
    /// Per-group incremental MBM stream states.
    streams: Vec<MbmScratch>,
    /// Per-group thresholds `t_j` (NaN = group not pulled yet).
    thresholds: Vec<f64>,
    /// Streams that have enumerated all of `P`.
    stream_done: Vec<bool>,
    /// Candidates whose lazy accumulation is in flight.
    live: Vec<Candidate>,
    /// Ids of `live` candidates.
    live_ids: HashSet<u64>,
    /// Ids already offered to (or dropped from) the best list.
    finished: HashSet<u64>,
    /// Recycled `got` masks for candidates.
    got_pool: Vec<Vec<bool>>,
}

impl FmqmScratch {
    pub(crate) fn capacity_profile(&self) -> impl Iterator<Item = usize> + '_ {
        [
            self.streams.capacity(),
            self.thresholds.capacity(),
            self.stream_done.capacity(),
            self.live.capacity(),
            self.live_ids.capacity(),
            self.finished.capacity(),
            self.got_pool.capacity(),
        ]
        .into_iter()
        .chain(self.streams.iter().flat_map(MbmScratch::capacity_profile))
        .chain(self.got_pool.iter().map(Vec::capacity))
        .chain(self.live.iter().map(|c| c.got.capacity()))
    }

    fn take_mask(&mut self, m: usize) -> Vec<bool> {
        let mut mask = self.got_pool.pop().unwrap_or_default();
        mask.clear();
        mask.resize(m, false);
        mask
    }
}

impl Fmqm {
    /// F-MQM with the paper's configuration.
    pub fn new() -> Self {
        Fmqm
    }
}

impl FileGnnAlgorithm for Fmqm {
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
        let m = query.group_count();
        let QueryScratch {
            best, out, fmqm, ..
        } = scratch;
        if m == 0 || data.is_empty() {
            out.clear();
            return (&*out, QueryStats::default());
        }
        best.reset(k);

        // Materialise the per-group QueryGroups once. Building them here is
        // un-metered: every turn below pays the page reads for (re)loading
        // its group, which is where the paper's cost model charges them.
        let groups: Vec<QueryGroup> = (0..m)
            .map(|gi| {
                let pts: Vec<gnn_geom::Point> = query.groups()[gi]
                    .pages
                    .clone()
                    .flat_map(|p| query.file().page(p).iter().copied())
                    .collect();
                QueryGroup::with_aggregate(pts, aggregate).expect("groups are non-empty")
            })
            .collect();

        // One incremental MBM stream per group, all sharing the data cursor.
        // Seeding through `new_in` resets each scratch; every round-robin
        // turn below re-attaches with `resume_in`.
        if fmqm.streams.len() < m {
            fmqm.streams.resize_with(m, MbmScratch::default);
        }
        for (gi, group) in groups.iter().enumerate() {
            MbmStream::new_in(data, group, &mut fmqm.streams[gi]);
        }
        fmqm.stream_done.clear();
        fmqm.stream_done.resize(m, false);
        fmqm.thresholds.clear();
        fmqm.thresholds.resize(m, f64::NAN); // NaN = group not pulled yet
        for c in fmqm.live.drain(..) {
            fmqm.got_pool.push(c.got);
        }
        fmqm.live_ids.clear();
        fmqm.finished.clear();

        let mut dist_computations = 0u64;
        let mut items_pulled = 0u64;

        'outer: loop {
            let mut any_stream_alive = false;
            for gi in 0..m {
                if combine_thresholds(&fmqm.thresholds, aggregate) >= best.bound() {
                    break 'outer;
                }
                // "read next group Qj": one group resides in memory at a
                // time, so each turn re-reads its pages.
                for p in query.groups()[gi].pages.clone() {
                    query_cursor.read_page(p);
                }

                // Advance this group's incremental GNN stream.
                if !fmqm.stream_done[gi] {
                    let next =
                        MbmStream::resume_in(data, &groups[gi], &mut fmqm.streams[gi]).next();
                    match next {
                        Some(nb) => {
                            any_stream_alive = true;
                            items_pulled += 1;
                            fmqm.thresholds[gi] = nb.dist;
                            if !fmqm.finished.contains(&nb.id.0)
                                && !fmqm.live_ids.contains(&nb.id.0)
                            {
                                let mut got = fmqm.take_mask(m);
                                got[gi] = true;
                                fmqm.live.push(Candidate {
                                    id: nb.id,
                                    point: nb.point,
                                    acc: nb.dist,
                                    got,
                                    missing: m - 1,
                                });
                                fmqm.live_ids.insert(nb.id.0);
                            }
                        }
                        None => {
                            // The stream enumerated all of P: no unseen
                            // point remains for this group, so its
                            // threshold is infinite.
                            fmqm.stream_done[gi] = true;
                            fmqm.thresholds[gi] = f64::INFINITY;
                        }
                    }
                }

                // Lazy accumulation: this group contributes to every live
                // candidate that does not have it yet.
                let group = &groups[gi];
                let mut i = 0;
                while i < fmqm.live.len() {
                    if !fmqm.live[i].got[gi] {
                        let c = &mut fmqm.live[i];
                        c.got[gi] = true;
                        c.acc = aggregate.combine(c.acc, group.dist(c.point));
                        dist_computations += group.len() as u64;
                        c.missing -= 1;
                        // Partial sums/maxima only grow: drop hopeless
                        // candidates early (not valid for MIN, which only
                        // shrinks).
                        if aggregate != Aggregate::Min && c.missing > 0 && c.acc >= best.bound() {
                            let c = fmqm.live.swap_remove(i);
                            fmqm.live_ids.remove(&c.id.0);
                            fmqm.finished.insert(c.id.0);
                            fmqm.got_pool.push(c.got);
                            continue;
                        }
                    }
                    if fmqm.live[i].missing == 0 {
                        let c = fmqm.live.swap_remove(i);
                        fmqm.live_ids.remove(&c.id.0);
                        fmqm.finished.insert(c.id.0);
                        best.offer(Neighbor {
                            id: c.id,
                            point: c.point,
                            dist: c.acc,
                        });
                        fmqm.got_pool.push(c.got);
                        continue;
                    }
                    i += 1;
                }
            }
            if !any_stream_alive && fmqm.live.is_empty() {
                break;
            }
        }

        // Flush: finish the pending candidates so the answer is exact. Work
        // group-major to pay each group load at most once.
        if !fmqm.live.is_empty() {
            for (gi, group) in groups.iter().enumerate() {
                if aggregate != Aggregate::Min {
                    let bound = best.bound();
                    let live_ids = &mut fmqm.live_ids;
                    let got_pool = &mut fmqm.got_pool;
                    fmqm.live.retain_mut(|c| {
                        let keep = c.acc < bound || c.missing == 0;
                        if !keep {
                            live_ids.remove(&c.id.0);
                            got_pool.push(std::mem::take(&mut c.got));
                        }
                        keep
                    });
                }
                if fmqm.live.iter().all(|c| c.got[gi]) {
                    continue;
                }
                for p in query.groups()[gi].pages.clone() {
                    query_cursor.read_page(p);
                }
                for c in fmqm.live.iter_mut() {
                    if !c.got[gi] {
                        c.got[gi] = true;
                        c.acc = aggregate.combine(c.acc, group.dist(c.point));
                        dist_computations += group.len() as u64;
                        c.missing -= 1;
                    }
                }
            }
            for c in fmqm.live.drain(..) {
                debug_assert_eq!(c.missing, 0);
                best.offer(Neighbor {
                    id: c.id,
                    point: c.point,
                    dist: c.acc,
                });
                fmqm.got_pool.push(c.got);
            }
            fmqm.live_ids.clear();
        }

        let stream_dist: u64 = fmqm.streams[..m]
            .iter()
            .map(MbmScratch::dist_computations)
            .sum();
        let stats = QueryStats {
            data_tree: data.stats().since(data_before),
            query_file_pages: query_cursor.page_reads() - qpages_before,
            dist_computations: dist_computations + stream_dist,
            items_pulled,
            ..QueryStats::default()
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }
}

/// Combines the per-group thresholds into the global threshold `T`: a lower
/// bound on the aggregate distance of every point no stream has yielded.
/// Unpulled groups contribute "no information", degrading the bound to a
/// safe floor.
fn combine_thresholds(ts: &[f64], agg: Aggregate) -> f64 {
    match agg {
        Aggregate::Sum => ts.iter().map(|t| if t.is_nan() { 0.0 } else { *t }).sum(),
        Aggregate::Max => ts
            .iter()
            .map(|t| if t.is_nan() { 0.0 } else { *t })
            .fold(0.0f64, f64::max),
        Aggregate::Min => {
            if ts.iter().any(|t| t.is_nan()) {
                0.0
            } else {
                ts.iter().copied().fold(f64::INFINITY, f64::min)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::linear_scan_entries;
    use gnn_geom::Point;
    use gnn_rtree::{LeafEntry, PackedRTree, RTree, RTreeParams};
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
        let got = Fmqm::new().k_gnn(&cursor, &qf, &fc, k, aggregate);
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
        // No duplicate ids in a k > 1 result.
        let mut ids: Vec<u64> = got.neighbors.iter().map(|n| n.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), got.neighbors.len(), "duplicate ids in result");
    }

    #[test]
    fn matches_oracle_multiple_groups() {
        for seed in 0..5 {
            let data = random_points(300, seed, 0.0, 100.0);
            let queries = random_points(120, 500 + seed, 20.0, 80.0);
            // 120 points / 32-per-group -> 4 groups.
            check_against_oracle(&data, queries, 32, 1, Aggregate::Sum);
        }
    }

    #[test]
    fn matches_oracle_k_greater_than_one() {
        let data = random_points(400, 11, 0.0, 100.0);
        let queries = random_points(90, 12, 10.0, 90.0);
        check_against_oracle(&data, queries, 32, 7, Aggregate::Sum);
    }

    #[test]
    fn single_group_degenerates_to_mbm() {
        let data = random_points(300, 13, 0.0, 100.0);
        let queries = random_points(40, 14, 30.0, 60.0);
        check_against_oracle(&data, queries, 64, 3, Aggregate::Sum);
    }

    #[test]
    fn overlapping_workspaces_with_duplicates() {
        let data = random_points(250, 15, 0.0, 50.0);
        let queries = random_points(100, 16, 0.0, 50.0);
        check_against_oracle(&data, queries, 25, 4, Aggregate::Sum);
    }

    #[test]
    fn max_and_min_aggregates() {
        let data = random_points(200, 17, 0.0, 100.0);
        let queries = random_points(60, 18, 20.0, 70.0);
        check_against_oracle(&data, queries.clone(), 20, 3, Aggregate::Max);
        check_against_oracle(&data, queries, 20, 3, Aggregate::Min);
    }

    #[test]
    fn disjoint_workspaces() {
        // Query entirely outside the data workspace (paper Figure 4.3b
        // regime).
        let data = random_points(200, 19, 0.0, 50.0);
        let queries = random_points(70, 20, 100.0, 150.0);
        check_against_oracle(&data, queries, 24, 2, Aggregate::Sum);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let data = random_points(300, 60, 0.0, 100.0);
        let tree = data_tree(&data);
        let cursor = tree.cursor();
        let mut scratch = QueryScratch::new();
        for seed in 0..4 {
            let queries = random_points(96, 800 + seed, 15.0, 85.0);
            let qf = GroupedQueryFile::build_with(queries, 16, 32);
            let fc = FileCursor::new(qf.file());
            let fresh = Fmqm::new().k_gnn(&cursor, &qf, &fc, 4, Aggregate::Sum);
            let (reused, _) =
                Fmqm::new().k_gnn_in(&cursor, &qf, &fc, 4, Aggregate::Sum, &mut scratch);
            let got: Vec<f64> = reused.iter().map(|n| n.dist).collect();
            assert_eq!(got, fresh.distances(), "seed={seed}");
        }
    }

    #[test]
    fn charges_query_file_io_per_round() {
        let data = random_points(500, 21, 0.0, 100.0);
        let tree = data_tree(&data);
        let cursor = tree.cursor();
        let queries = random_points(128, 22, 40.0, 60.0);
        let qf = GroupedQueryFile::build_with(queries, 16, 32); // 4 groups, 2 pages each
        let fc = FileCursor::new(qf.file());
        let r = Fmqm::new().k_gnn(&cursor, &qf, &fc, 1, Aggregate::Sum);
        // At least one full cycle of group loads must have been charged.
        assert!(
            r.stats.query_file_pages >= qf.file().page_count() as u64,
            "only {} query pages charged",
            r.stats.query_file_pages
        );
        assert!(r.stats.items_pulled >= 1);
    }

    #[test]
    fn empty_query_file() {
        let data = random_points(50, 23, 0.0, 10.0);
        let tree = data_tree(&data);
        let cursor = tree.cursor();
        let qf = GroupedQueryFile::build_with(vec![], 16, 32);
        let fc = FileCursor::new(qf.file());
        let r = Fmqm::new().k_gnn(&cursor, &qf, &fc, 3, Aggregate::Sum);
        assert!(r.neighbors.is_empty());
    }

    #[test]
    fn k_larger_than_dataset() {
        let data = random_points(15, 24, 0.0, 10.0);
        let queries = random_points(40, 25, 0.0, 10.0);
        check_against_oracle(&data, queries, 16, 30, Aggregate::Sum);
    }

    #[test]
    fn clustered_query_blocks() {
        // Hilbert grouping should produce spatially tight groups out of two
        // clusters; results must still be exact.
        let mut queries = random_points(50, 26, 0.0, 10.0);
        queries.extend(random_points(50, 27, 90.0, 100.0));
        let data = random_points(300, 28, 0.0, 100.0);
        check_against_oracle(&data, queries, 25, 3, Aggregate::Sum);
    }
}
