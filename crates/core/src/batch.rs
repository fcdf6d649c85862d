//! Hilbert-ordered batch executor with a distinct-page ledger, for
//! correlated (hotspot) query traffic.
//!
//! Hotspot workloads arrive in bursts of queries whose group MBRs overlap
//! heavily — trip/meet-up traffic is the canonical case. This module gives
//! such a burst an order to run in and a count of what it touches:
//!
//! 1. The batch is sorted by the **Hilbert key of each group's MBR center**
//!    (over the target's root MBR), so spatially adjacent queries run
//!    back-to-back, while the pages they share are still warm in cache.
//! 2. A **distinct-page overlay** ([`gnn_rtree::TreeCursor::begin_page_tracking`])
//!    counts every page once no matter how many queries of the batch touch
//!    it. That count is what one shared traversal *would* pay; nothing here
//!    shares reads — every query still descends from the root.
//! 3. Each query runs the **unchanged per-query algorithm** through
//!    [`QueryRequest::execute_on`], so per-query node accesses are charged
//!    *as-if-sequential* (bit-identical to
//!    [`crate::Planner::run_many_collect`] on the same requests, on any
//!    worker count or batch split), and the batch-level
//!    [`BatchAccounting`] sets the distinct-page count beside their sum.
//!
//! The executor works against any [`Target`]. The serving layer does not
//! call it and keeps no such ledger: a worker runs its one per-query step
//! over a batch job's members in submission order, because the Hilbert
//! order measured at parity with it from 2×10⁵ to 10⁷ points and the
//! distinct-page count describes a shared pass nobody runs (EXPERIMENTS.md).
//! What remains here is what the repo benchmark's `core.batch_us_per_query`
//! and `core.batch_page_savings` probes call; retiring it, with
//! [`gnn_rtree::TreeCursor::begin_page_tracking`], is a later
//! benchmark-typed change.

use crate::engine::{Choice, Planner};
use crate::request::{QueryRequest, Target};
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::sharded::ShardRouting;
use gnn_geom::hilbert::HilbertMapper;

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

/// Fills `order` with one `(Hilbert key, position)` pair per request,
/// sorted: the order a batch runs in. Keys come from each group's MBR over
/// `target`'s root MBR, ties break by position, so the order is a pure
/// function of the target and the requests.
fn hilbert_order(target: &Target<'_, '_>, requests: &[QueryRequest], order: &mut Vec<(u64, u32)>) {
    let mapper = HilbertMapper::new(target.root_mbr());
    order.clear();
    order.extend(
        requests
            .iter()
            .enumerate()
            .map(|(i, r)| (mapper.key_rect(r.group.mbr()), i as u32)),
    );
    order.sort_unstable();
}

/// Executes `requests` in Hilbert order of their group MBRs against
/// `target`, invoking
/// `sink(index, choice, neighbors, stats, routing)` once per request; the
/// `index` argument is the request's position in `requests`, so callers
/// reorder freely.
///
/// Results, per-query stats, and routing are bit-identical to executing
/// each request alone through [`QueryRequest::execute_on`] (and hence to
/// [`crate::Planner::run_many_collect`] for `Algo::Auto` requests): the
/// order and the page overlay change accounting only, never traversal
/// logic.
///
/// Allocation-free in steady state: the order buffer lives in `scratch`
/// ([`QueryScratch::capacity_profile`] covers it) and the page-tracking
/// bitsets stay allocated on the target's cursors between batches.
pub fn execute_batch_in(
    planner: &Planner,
    target: &Target<'_, '_>,
    requests: &[QueryRequest],
    scratch: &mut QueryScratch,
    mut sink: impl FnMut(usize, Choice, &[Neighbor], &QueryStats, ShardRouting),
) -> BatchAccounting {
    // The order buffer is moved out of the scratch while the per-query
    // executions borrow it mutably, then moved back (keeping its capacity).
    let mut order = std::mem::take(&mut scratch.batch_order);
    hilbert_order(target, requests, &mut order);

    for cursor in target.cursors() {
        cursor.begin_page_tracking();
    }
    let mut accounting = BatchAccounting {
        queries: requests.len(),
        ..BatchAccounting::default()
    };
    for &(_key, index) in &order {
        let request = &requests[index as usize];
        let (choice, neighbors, stats, routing) = request.execute_on(planner, target, scratch);
        accounting.sequential_pages += stats.data_tree.logical;
        sink(index as usize, choice, neighbors, &stats, routing);
    }
    accounting.unique_pages = target.cursors().map(|c| c.finish_page_tracking()).sum();

    scratch.batch_order = order;
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
