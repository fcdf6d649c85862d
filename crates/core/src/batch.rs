//! Batch executor with a distinct-page ledger: a measuring instrument for
//! correlated (hotspot) query traffic, not a serving path.
//!
//! Hotspot workloads arrive in bursts of queries whose group MBRs overlap
//! heavily — trip/meet-up traffic is the canonical case. This module runs
//! such a burst and counts what it touches:
//!
//! 1. Each query runs, in **submission order**, through
//!    [`QueryRequest::execute_on`], so per-query results and node accesses
//!    are those of running it alone, at any batch split.
//! 2. A **distinct-page overlay** ([`gnn_rtree::TreeCursor::begin_page_tracking`])
//!    counts every page once no matter how many queries of the batch touch
//!    it. That count is what one shared traversal *would* pay; nothing here
//!    shares reads — every query still descends from the root. The
//!    batch-level [`BatchAccounting`] sets it beside the per-query sum.
//!
//! Run order changes neither count: each query's page set is a pure
//! function of the target and the request, `unique_pages` is their union
//! and `sequential_pages` their sum. A Hilbert order of the group MBRs ran
//! here until it measured at parity with submission order from 2×10⁵ to
//! 10⁷ points (EXPERIMENTS.md). The serving layer has no batch
//! submission: each request there is its own job. What remains here is
//! what the repo benchmark's `core.batch_us_per_query` and
//! `core.batch_page_savings` probes call; retiring it, with
//! [`gnn_rtree::TreeCursor::begin_page_tracking`], is a later
//! benchmark-typed change.

use crate::engine::{Choice, Planner};
use crate::request::{QueryRequest, Target};
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::sharded::ShardRouting;

/// The batch ledger: the distinct pages the batch touched (`unique_pages`,
/// what one shared traversal would pay) next to what its queries did pay,
/// each descending alone (`sequential_pages`). Per-query [`QueryStats`] are
/// reported separately through the sink, unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchAccounting {
    /// Number of queries executed.
    pub queries: usize,
    /// Distinct pages touched across the whole batch.
    pub unique_pages: u64,
    /// Sum of per-query logical node accesses — every query descends from
    /// the root on its own.
    pub sequential_pages: u64,
}

/// Executes `requests` in order against `target`, invoking
/// `sink(index, choice, neighbors, stats, routing)` once per request, where
/// `index` is the request's position in `requests`.
///
/// Results, per-query stats, and routing are bit-identical to executing
/// each request alone through [`QueryRequest::execute_on`]: the page
/// overlay changes accounting only, never traversal logic.
///
/// Allocation-free in steady state: the page-tracking bitsets stay
/// allocated on the target's cursors between batches.
pub fn execute_batch_in(
    planner: &Planner,
    target: &Target<'_, '_>,
    requests: &[QueryRequest],
    scratch: &mut QueryScratch,
    mut sink: impl FnMut(usize, Choice, &[Neighbor], &QueryStats, ShardRouting),
) -> BatchAccounting {
    for cursor in target.cursors() {
        cursor.begin_page_tracking();
    }
    let mut accounting = BatchAccounting {
        queries: requests.len(),
        ..BatchAccounting::default()
    };
    for (index, request) in requests.iter().enumerate() {
        let (choice, neighbors, stats, routing) = request.execute_on(planner, target, scratch);
        accounting.sequential_pages += stats.data_tree.logical;
        sink(index, choice, neighbors, &stats, routing);
    }
    accounting.unique_pages = target.cursors().map(|c| c.finish_page_tracking()).sum();
    accounting
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryGroup;
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{LeafEntry, RTree, RTreeParams, TreeCursor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect()
    }

    fn tree_of(pts: &[Point]) -> RTree {
        RTree::bulk_load(
            RTreeParams::with_capacity(8),
            pts.iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        )
    }

    /// Per-query fingerprint: choice + (id, distance-bits) pairs + NA.
    type Fingerprint = (Choice, Vec<(u64, u64)>, u64);

    fn hotspot_requests(count: usize, seed: u64) -> Vec<QueryRequest> {
        // Tight clusters around two hotspots: heavy page overlap.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let (cx, cy) = if i % 2 == 0 {
                    (20.0, 20.0)
                } else {
                    (75.0, 60.0)
                };
                let pts: Vec<Point> = (0..4)
                    .map(|_| Point::new(cx + rng.gen::<f64>() * 3.0, cy + rng.gen::<f64>() * 3.0))
                    .collect();
                QueryRequest::new(QueryGroup::sum(pts).unwrap(), 4)
            })
            .collect()
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_reference() {
        let data = random_points(800, 7);
        let tree = tree_of(&data);
        let packed = tree.freeze();
        let requests = hotspot_requests(24, 8);
        let planner = Planner::new();

        // Sequential reference: each request alone, fresh cursor per query
        // so accounting is exactly per-query.
        let mut reference = Vec::new();
        for req in &requests {
            let cursor = packed.cursor();
            let mut scratch = QueryScratch::new();
            let (choice, neighbors, stats, _) =
                req.execute_on(&planner, &Target::Single(&cursor), &mut scratch);
            let fp: Vec<(u64, u64)> = neighbors
                .iter()
                .map(|n| (n.id.0, n.dist.to_bits()))
                .collect();
            reference.push((choice, fp, stats.data_tree.logical));
        }

        let cursor = packed.cursor();
        let mut scratch = QueryScratch::new();
        let mut got: Vec<Option<Fingerprint>> = vec![None; requests.len()];
        let accounting = execute_batch_in(
            &planner,
            &Target::Single(&cursor),
            &requests,
            &mut scratch,
            |i, choice, neighbors, stats, _routing| {
                let fp = neighbors
                    .iter()
                    .map(|n| (n.id.0, n.dist.to_bits()))
                    .collect();
                got[i] = Some((choice, fp, stats.data_tree.logical));
            },
        );
        assert_eq!(accounting.queries, requests.len());
        for (i, want) in reference.iter().enumerate() {
            let got = got[i].as_ref().expect("sink called for every request");
            assert_eq!(got, want, "request {i}");
        }
        // The batch-level ledger: sequential = sum of per-query NA, and the
        // hotspot batch shares pages (strictly fewer unique reads).
        let na_sum: u64 = reference.iter().map(|r| r.2).sum();
        assert_eq!(accounting.sequential_pages, na_sum);
        assert!(
            accounting.unique_pages < accounting.sequential_pages,
            "hotspot batch must share pages: {} unique vs {} sequential",
            accounting.unique_pages,
            accounting.sequential_pages
        );
    }

    #[test]
    fn ledger_does_not_depend_on_run_order() {
        let data = random_points(800, 14);
        let tree = tree_of(&data);
        let packed = tree.freeze();
        let planner = Planner::new();
        let forward = hotspot_requests(20, 15);
        let mut reversed = forward.clone();
        reversed.reverse();

        let run = |requests: &[QueryRequest]| {
            let cursor = packed.cursor();
            let mut seen = Vec::new();
            let accounting = execute_batch_in(
                &planner,
                &Target::Single(&cursor),
                requests,
                &mut QueryScratch::new(),
                |i, _, _, _, _| seen.push(i),
            );
            assert_eq!(seen, (0..requests.len()).collect::<Vec<_>>());
            accounting
        };
        let (a, b) = (run(&forward), run(&reversed));
        assert_eq!(a, b);
        assert!(a.unique_pages < a.sequential_pages);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let data = random_points(100, 9);
        let tree = tree_of(&data);
        let packed = tree.freeze();
        let cursor = packed.cursor();
        let mut scratch = QueryScratch::new();
        let accounting = execute_batch_in(
            &Planner::new(),
            &Target::Single(&cursor),
            &[],
            &mut scratch,
            |_, _, _, _, _| panic!("no queries, no sink calls"),
        );
        assert_eq!(accounting, BatchAccounting::default());
        assert_eq!(cursor.stats(), gnn_rtree::AccessStats::default());
    }

    #[test]
    fn steady_state_batches_do_not_allocate() {
        let data = random_points(600, 10);
        let tree = tree_of(&data);
        let packed = tree.freeze();
        let cursor = packed.cursor();
        let mut scratch = QueryScratch::new();
        let planner = Planner::new();
        let requests = hotspot_requests(16, 11);
        // Warm-up batch grows every buffer to steady state...
        execute_batch_in(
            &planner,
            &Target::Single(&cursor),
            &requests,
            &mut scratch,
            |_, _, _, _, _| {},
        );
        let profile = scratch.capacity_profile();
        // ...after which identical batches leave every capacity untouched.
        for _ in 0..3 {
            execute_batch_in(
                &planner,
                &Target::Single(&cursor),
                &requests,
                &mut scratch,
                |_, _, _, _, _| {},
            );
            assert_eq!(scratch.capacity_profile(), profile);
        }
    }

    #[test]
    fn sharded_target_matches_unsharded_batch() {
        let data = random_points(700, 12);
        let tree = tree_of(&data);
        let packed = tree.freeze();
        let requests = hotspot_requests(12, 13);
        let planner = Planner::new();

        let cursor = packed.cursor();
        let mut scratch = QueryScratch::new();
        let mut plain: Vec<Vec<(u64, u64)>> = vec![Vec::new(); requests.len()];
        execute_batch_in(
            &planner,
            &Target::Single(&cursor),
            &requests,
            &mut scratch,
            |i, _, neighbors, _, _| {
                plain[i] = neighbors
                    .iter()
                    .map(|n| (n.id.0, n.dist.to_bits()))
                    .collect();
            },
        );

        for shards in [1usize, 3] {
            let sharded = packed.partition(shards);
            let cursors: Vec<TreeCursor<'_>> =
                sharded.shards().iter().map(|s| s.cursor()).collect();
            let mut scratch = QueryScratch::new();
            let mut got: Vec<Vec<u64>> = vec![Vec::new(); requests.len()];
            let accounting = execute_batch_in(
                &planner,
                &Target::Sharded {
                    snapshot: &sharded,
                    cursors: &cursors,
                },
                &requests,
                &mut scratch,
                |i, _, neighbors, _, routing| {
                    got[i] = neighbors.iter().map(|n| n.dist.to_bits()).collect();
                    assert!((routing.primary as usize) < shards);
                },
            );
            assert_eq!(accounting.queries, requests.len());
            // Distance bits are shard-count independent (ids can swap only
            // on k-th boundary ties, covered by the property suite).
            for (i, want) in plain.iter().enumerate() {
                let bits: Vec<u64> = want.iter().map(|&(_, d)| d).collect();
                assert_eq!(got[i], bits, "{shards} shards, request {i}");
            }
        }
    }
}
