//! Cross-shard k-GNN: a best-first merge over shard mindist bounds.
//!
//! A [`ShardedSnapshot`] splits the dataset into
//! spatially coherent shards; this module answers a k-GNN query over all of
//! them while consulting as few as the bounds allow. The snapshot's refined
//! routing directory (each shard's root-level branch MBRs) gives a true
//! lower bound on the aggregate distance of every point inside a shard
//! ([`QueryGroup::tight_bound_rect`] — heuristic 3 lifted from node MBRs to
//! the shard directory, minimized over the shard's branch rectangles), so
//! the merge:
//!
//! 1. orders the non-empty shards by ascending bound,
//! 2. runs the full single-tree algorithm on the best shard,
//! 3. keeps consulting shards while their bound still beats the current
//!    k-th best aggregate distance (the paper's `best_dist` pruning, `>=`
//!    prunes — a candidate tying the k-th distance cannot improve the
//!    result), and
//! 4. merges every consulted shard's neighbors through one global
//!    [`KBestList`](crate::KBestList).
//!
//! Exact aggregate distances are a pure function of a point and the group
//! (the association-fixed kernels of [`QueryGroup::dist`]), so merged
//! results are **bit-identical** to the unsharded reference whenever the
//! k-th aggregate distance is unique — ties at the k-th boundary may
//! legitimately retain a different tying point, exactly as two single-tree
//! algorithms may (`GnnResult::distances` documents the same caveat). The
//! workspace `sharded_equivalence` suite pins this across all algorithms
//! and shard counts.
//!
//! Node accesses are accounted per shard cursor and summed: the reported
//! [`QueryStats`] equals what the consulted shards' cursors metered, which
//! keeps the paper's NA metric additive across the shard directory.

use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::{MemoryGnnAlgorithm, QueryGroup};
use gnn_rtree::{ShardedSnapshot, TreeCursor};

/// Shard-routing metadata: which shard led the cross-shard merge and how
/// many shards it actually executed on. Attached to every
/// [`crate::QueryResponse`]; the single-shard-hit fraction of a workload —
/// the routing quality metric — is the fraction of responses with
/// `consulted == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouting {
    /// The shard with the smallest aggregate-distance lower bound for the
    /// query (the one the merge read first; 0 when every shard is empty).
    pub primary: u32,
    /// Number of shards the merge ran the algorithm on (1 = a
    /// single-shard hit).
    pub consulted: u32,
}

impl Default for ShardRouting {
    /// The unsharded sentinel: shard 0, one shard consulted.
    fn default() -> Self {
        ShardRouting {
            primary: 0,
            consulted: 1,
        }
    }
}

/// A true lower bound on the aggregate distance of every point in shard
/// `s`: the minimum of the heuristic-3 bound over the shard's refined
/// routing directory (each shard point lies in at least one of those
/// rectangles). `∞` for an empty shard — it can never be selected.
fn shard_bound(group: &QueryGroup, snapshot: &ShardedSnapshot, s: usize) -> f64 {
    snapshot
        .shard_bounds(s)
        .iter()
        .map(|r| group.tight_bound_rect(r))
        .fold(f64::INFINITY, f64::min)
}

/// Runs `algo` as a cross-shard k-GNN over `cursors` (one per shard, in
/// directory order of `snapshot`, which supplies the routing bounds) and
/// merges into the global best-k. `cursors[s]` must read shard `s` of
/// `snapshot` (workers build them per generation via
/// [`PackedRTree::cursor`](gnn_rtree::PackedRTree::cursor)).
///
/// Returns the merged neighbors (staged in `scratch`, valid until its next
/// use), the summed per-shard cost counters, and the [`ShardRouting`].
/// With a warmed scratch this path performs zero heap allocations, like the
/// single-tree entry points.
///
/// # Panics
///
/// Panics if `cursors` does not hold one cursor per shard of `snapshot`.
pub fn sharded_k_gnn_in<'s>(
    algo: &dyn MemoryGnnAlgorithm,
    snapshot: &ShardedSnapshot,
    cursors: &[TreeCursor<'_>],
    group: &QueryGroup,
    k: usize,
    scratch: &'s mut QueryScratch,
) -> (&'s [Neighbor], QueryStats, ShardRouting) {
    assert_eq!(
        cursors.len(),
        snapshot.shard_count(),
        "one cursor per shard"
    );
    assert!(!cursors.is_empty(), "need at least one shard");
    // Single shard: the merge degenerates to the plain single-tree call —
    // bit-identical results *and* node accesses, which is what lets an
    // unsharded serving engine run through this one code path.
    if cursors.len() == 1 {
        let (neighbors, stats) = algo.k_gnn_in(&cursors[0], group, k, scratch);
        return (
            neighbors,
            stats,
            ShardRouting {
                primary: 0,
                consulted: 1,
            },
        );
    }

    // Visit order: non-empty shards by ascending lower bound, ties by index.
    scratch.shard_order.clear();
    for s in 0..snapshot.shard_count() {
        if !snapshot.shard(s).is_empty() {
            scratch
                .shard_order
                .push((shard_bound(group, snapshot, s), s as u32));
        }
    }
    scratch
        .shard_order
        .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    if scratch.shard_order.is_empty() {
        // Every shard is empty: answer on shard 0 so the empty-tree
        // accounting (one root access) matches the unsharded engine.
        let (neighbors, stats) = algo.k_gnn_in(&cursors[0], group, k, scratch);
        return (
            neighbors,
            stats,
            ShardRouting {
                primary: 0,
                consulted: 1,
            },
        );
    }

    let primary = scratch.shard_order[0].1;
    scratch.merge_best.reset(k);
    let mut total = QueryStats::default();
    let mut consulted = 0u32;
    for i in 0..scratch.shard_order.len() {
        let (bound, s) = scratch.shard_order[i];
        // `>=` prunes: a shard whose bound ties the current k-th distance
        // cannot contribute a strictly better neighbor. Shards are visited
        // in bound order, so the first prune ends the whole merge.
        if scratch.merge_best.is_full() && bound >= scratch.merge_best.bound() {
            break;
        }
        let (_, stats) = algo.k_gnn_in(&cursors[s as usize], group, k, &mut *scratch);
        accumulate(&mut total, &stats);
        consulted += 1;
        // Split borrow: offer the shard's staged results (`out`) into the
        // global list without copying through a temporary.
        let QueryScratch {
            out, merge_best, ..
        } = &mut *scratch;
        for n in out.iter() {
            merge_best.offer(*n);
        }
    }
    let QueryScratch {
        merge_best,
        merge_out,
        ..
    } = &mut *scratch;
    merge_best.drain_sorted_into(merge_out);
    (
        &scratch.merge_out,
        total,
        ShardRouting { primary, consulted },
    )
}

/// Field-wise accumulation of per-shard cost counters.
fn accumulate(total: &mut QueryStats, shard: &QueryStats) {
    total.data_tree = total.data_tree.merged(shard.data_tree);
    total.query_tree = total.query_tree.merged(shard.query_tree);
    total.query_file_pages += shard.query_file_pages;
    total.dist_computations += shard.dist_computations;
    total.lower_bound_pruned += shard.lower_bound_pruned;
    total.items_pulled += shard.items_pulled;
    total.heap_watermark = total.heap_watermark.max(shard.heap_watermark);
    total.aborted |= shard.aborted;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mbm, Mqm, QueryGroup};
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{LeafEntry, RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tree(n: usize, seed: u64) -> RTree {
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
    }

    fn group(seed: u64) -> QueryGroup {
        let mut rng = StdRng::seed_from_u64(seed);
        QueryGroup::sum(
            (0..5)
                .map(|_| {
                    Point::new(
                        10.0 + rng.gen::<f64>() * 20.0,
                        10.0 + rng.gen::<f64>() * 20.0,
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn merge_matches_unsharded_reference() {
        let t = tree(1500, 1);
        let packed = t.freeze();
        let sharded = packed.partition(4);
        let g = group(2);
        let want = Mbm::best_first().k_gnn(&packed.cursor(), &g, 6);
        let cursors: Vec<_> = sharded.shards().iter().map(|s| s.cursor()).collect();
        let mut scratch = QueryScratch::new();
        let (got, stats, outcome) =
            sharded_k_gnn_in(&Mbm::best_first(), &sharded, &cursors, &g, 6, &mut scratch);
        assert_eq!(got, &want.neighbors[..]);
        assert!(outcome.consulted >= 1 && outcome.consulted <= 4);
        // NA accounting: the summed stats equal what the shard cursors
        // actually metered.
        let metered: u64 = cursors.iter().map(|c| c.stats().logical).sum();
        assert_eq!(stats.data_tree.logical, metered);
    }

    #[test]
    fn local_query_hits_a_single_shard() {
        // A tight group deep inside one shard's region: the second-best
        // shard bound must exceed the k-th distance immediately.
        let t = tree(4000, 3);
        let sharded = t.freeze_sharded(4);
        // Pick a query at the center of shard 2's MBR.
        let c = sharded.directory()[2].center();
        let g = QueryGroup::sum(vec![c, Point::new(c.x + 0.1, c.y + 0.1)]).unwrap();
        let cursors: Vec<_> = sharded.shards().iter().map(|s| s.cursor()).collect();
        let mut scratch = QueryScratch::new();
        let (_, _, outcome) =
            sharded_k_gnn_in(&Mbm::best_first(), &sharded, &cursors, &g, 2, &mut scratch);
        assert_eq!(outcome.consulted, 1, "local query consulted {outcome:?}");
    }

    #[test]
    fn single_shard_path_is_the_plain_algorithm() {
        let t = tree(600, 4);
        let packed = std::sync::Arc::new(t.freeze());
        let sharded = gnn_rtree::ShardedSnapshot::single(std::sync::Arc::clone(&packed));
        let g = group(5);
        let want = Mqm::new().k_gnn(&packed.cursor(), &g, 3);
        let cursors = vec![sharded.shard(0).cursor()];
        let mut scratch = QueryScratch::new();
        let (got, stats, outcome) =
            sharded_k_gnn_in(&Mqm::new(), &sharded, &cursors, &g, 3, &mut scratch);
        assert_eq!(got, &want.neighbors[..]);
        assert_eq!(stats.data_tree.logical, want.stats.data_tree.logical);
        assert_eq!(outcome.consulted, 1);
    }

    #[test]
    fn empty_shards_are_skipped() {
        // 80 points in 7 shards: some shards may be sparse but non-empty;
        // force emptiness by partitioning 3 points into 7 shards.
        let t = tree(3, 6);
        let sharded = t.freeze_sharded(7);
        assert!(sharded.shards().iter().any(|s| s.is_empty()));
        let g = group(7);
        let cursors: Vec<_> = sharded.shards().iter().map(|s| s.cursor()).collect();
        let mut scratch = QueryScratch::new();
        let (got, _, _) =
            sharded_k_gnn_in(&Mbm::best_first(), &sharded, &cursors, &g, 3, &mut scratch);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn all_empty_shards_answer_empty() {
        let t = RTree::new(RTreeParams::default());
        let sharded = t.freeze_sharded(3);
        let g = group(8);
        let cursors: Vec<_> = sharded.shards().iter().map(|s| s.cursor()).collect();
        let mut scratch = QueryScratch::new();
        let (got, _, outcome) =
            sharded_k_gnn_in(&Mbm::best_first(), &sharded, &cursors, &g, 2, &mut scratch);
        assert!(got.is_empty());
        assert_eq!(outcome.primary, 0);
    }

    #[test]
    fn merge_is_allocation_free_in_steady_state() {
        let t = tree(2000, 9);
        let sharded = t.freeze_sharded(4);
        let cursors: Vec<_> = sharded.shards().iter().map(|s| s.cursor()).collect();
        let mut scratch = QueryScratch::new();
        // Warm pass over the whole workload, then replay it: capacities
        // must have reached steady state on the first pass.
        for i in 0..20 {
            sharded_k_gnn_in(
                &Mbm::best_first(),
                &sharded,
                &cursors,
                &group(200 + i),
                8,
                &mut scratch,
            );
        }
        let profile = scratch.capacity_profile();
        for i in 0..20 {
            sharded_k_gnn_in(
                &Mbm::best_first(),
                &sharded,
                &cursors,
                &group(200 + i),
                8,
                &mut scratch,
            );
            assert_eq!(scratch.capacity_profile(), profile, "query {i} allocated");
        }
    }
}
