//! Spatial sharding: Hilbert-range partitioned snapshots and the mutable
//! sharded tree that refreshes them.
//!
//! One [`PackedRTree`] serves one core set well; scaling serving further
//! means splitting the point set into `k` spatially coherent shards so a
//! query whose aggregate MBR lies inside one region touches one small index
//! instead of one big one. The partitioner sorts the points by Hilbert key
//! ([`gnn_geom::hilbert`]) and cuts the key sequence into `k` near-even
//! ranges ([`gnn_geom::hilbert::balanced_cuts`]); each range is bulk-loaded
//! and frozen as an independent [`PackedRTree`]. Shard membership is a pure
//! function of a point's Hilbert key, so a mutable [`ShardedTree`] can route
//! inserts and deletes to the owning shard deterministically and refresh
//! each shard's snapshot independently ([`ShardedTree::refreeze_all`] reuses
//! the `Arc` of every untouched shard and runs the page-level copy-on-write
//! [`RTree::refreeze`] on the dirty ones).
//!
//! A [`ShardedSnapshot`] is the read side: the shard snapshots plus their
//! MBR directory. Cross-shard k-GNN (a best-first merge over shard mindist
//! bounds) lives in `gnn-core`, which owns the query algorithms; the
//! workspace-level `sharded_equivalence` suite pins the merged results
//! bit-identical to the unsharded reference.

use crate::node::{LeafEntry, PageRef};
use crate::packed::PackedRTree;
use crate::tree::RTree;
use crate::RTreeParams;
use gnn_geom::hilbert::{balanced_cuts, cut_range, HilbertMapper};
use gnn_geom::{Point, PointId, Rect};
use std::sync::Arc;

/// A read-only set of spatially partitioned [`PackedRTree`] shards plus
/// their MBR directory.
///
/// Built by [`RTree::freeze_sharded`], [`PackedRTree::partition`] or a
/// [`ShardedTree`] freeze; shared behind an `Arc` by serving engines. Shards
/// are held behind individual `Arc`s so an incremental refresh
/// ([`ShardedTree::refreeze_all`]) can republish a new snapshot that shares
/// every untouched shard with its predecessor.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    shards: Vec<Arc<PackedRTree>>,
    mbrs: Vec<Rect>,
    /// Refined routing directory: the MBRs of each shard's root-level
    /// branches (the whole root MBR when the root is a leaf). Hilbert-range
    /// regions of clustered data are jagged, so their single bounding box
    /// over-approximates badly (boxes of neighboring shards overlap); the
    /// root branches hug the actual point blobs, giving routers and the
    /// cross-shard merge a much tighter — still true — lower bound: every
    /// shard point lies in one of these rectangles.
    bounds: Vec<Vec<Rect>>,
    len: usize,
}

impl ShardedSnapshot {
    fn from_shards(shards: Vec<Arc<PackedRTree>>) -> Self {
        assert!(!shards.is_empty(), "a snapshot needs at least one shard");
        let mbrs: Vec<Rect> = shards.iter().map(|s| s.root_mbr()).collect();
        let len = shards.iter().map(|s| s.len()).sum();
        let bounds = shards
            .iter()
            .map(|shard| {
                if shard.is_empty() {
                    return Vec::new();
                }
                match shard.page(shard.root()) {
                    PageRef::Internal(v) => (0..v.len()).map(|i| v.mbr(i)).collect(),
                    PageRef::Leaf(_) => vec![shard.root_mbr()],
                }
            })
            .collect();
        ShardedSnapshot {
            shards,
            mbrs,
            bounds,
            len,
        }
    }

    /// Wraps one existing snapshot as a single-shard `ShardedSnapshot`
    /// **without rebuilding it** — queries against the wrapper perform the
    /// exact node accesses of the wrapped snapshot, which is what keeps an
    /// unsharded serving engine bit-identical (results *and* NA) to the
    /// sequential reference.
    pub fn single(snapshot: Arc<PackedRTree>) -> Self {
        Self::from_shards(vec![snapshot])
    }

    /// Number of shards (≥ 1).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    pub fn shard(&self, s: usize) -> &Arc<PackedRTree> {
        &self.shards[s]
    }

    /// All shards, in partition order.
    #[inline]
    pub fn shards(&self) -> &[Arc<PackedRTree>] {
        &self.shards
    }

    /// The shard MBR directory: `directory()[s]` bounds every point of
    /// shard `s` (the empty rect for an empty shard).
    #[inline]
    pub fn directory(&self) -> &[Rect] {
        &self.mbrs
    }

    /// The refined routing directory of shard `s`: its root-level branch
    /// MBRs (empty for an empty shard). Every point of the shard lies in
    /// at least one of these rectangles, so the minimum of a per-rectangle
    /// lower bound over them is a true per-shard lower bound — and a much
    /// tighter one than the single shard MBR when the shard's Hilbert
    /// region is jagged. This is what routers and the cross-shard merge
    /// prune with.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    pub fn shard_bounds(&self, s: usize) -> &[Rect] {
        &self.bounds[s]
    }

    /// Total points across all shards.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether every shard is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// MBR of the whole dataset (union over the shard directory).
    pub fn root_mbr(&self) -> Rect {
        let mut out = Rect::empty();
        for (s, mbr) in self.mbrs.iter().enumerate() {
            if !self.shards[s].is_empty() {
                out.expand_rect(mbr);
            }
        }
        out
    }
}

impl RTree {
    /// Freezes this tree into `shards` spatially coherent read-only shards:
    /// the points are Hilbert-sorted, cut into near-even key ranges, and
    /// each range is STR-bulk-loaded and frozen independently. See
    /// [`ShardedTree`] for the mutable counterpart that keeps refreshing
    /// such snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn freeze_sharded(&self, shards: usize) -> ShardedSnapshot {
        ShardedTree::build(*self.params(), self.iter(), shards).freeze_all()
    }
}

impl PackedRTree {
    /// Re-partitions this snapshot's points into `shards` spatially
    /// coherent shards (see [`RTree::freeze_sharded`]; same canonical
    /// partition — both sort by (Hilbert key, id), so the two constructors
    /// produce structurally identical snapshots from the same point set).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn partition(&self, shards: usize) -> ShardedSnapshot {
        ShardedTree::build(*self.params(), self.iter(), shards).freeze_all()
    }
}

/// A mutable, spatially sharded R*-tree: `k` independent [`RTree`] shards
/// with deterministic Hilbert-key routing for inserts and deletes, plus
/// per-shard incremental snapshot refresh.
///
/// The shard boundaries are fixed at build time (Hilbert key ranges over
/// the build-time workspace); points inserted outside the workspace clamp
/// onto its boundary key-wise, so routing stays total and deterministic.
/// Because membership is a pure function of the point, a delete routes to
/// the exact shard its insert went to — no cross-shard search.
#[derive(Debug)]
pub struct ShardedTree {
    mapper: HilbertMapper,
    /// Hilbert-key range boundaries (`shard_count - 1` entries).
    cuts: Vec<u64>,
    shards: Vec<RTree>,
}

impl ShardedTree {
    /// Partitions `entries` into `shards` Hilbert ranges and bulk-loads one
    /// R*-tree per range. An empty entry set yields empty shards over a
    /// unit workspace.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build<I>(params: RTreeParams, entries: I, shards: usize) -> Self
    where
        I: IntoIterator<Item = LeafEntry>,
    {
        assert!(shards > 0, "need at least one shard");
        let entries: Vec<LeafEntry> = entries.into_iter().collect();
        let workspace = Rect::bounding(entries.iter().map(|e| e.point))
            .unwrap_or_else(|| Rect::from_corners(0.0, 0.0, 1.0, 1.0));
        let mapper = HilbertMapper::new(workspace);
        // Canonical order: (Hilbert key, id). The id tiebreak makes the
        // partition a pure function of the point *set*, independent of the
        // iteration order of whatever container supplied it. Each key is
        // computed once and sorted with its entry's index — a key per
        // comparison was ~7 M Hilbert mappings for 195 k points — and the
        // index, last, keeps equal (key, id) pairs in supply order.
        let mut order: Vec<(u64, u64, usize)> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (mapper.key(e.point), e.id.0, i))
            .collect();
        order.sort_unstable();
        let keys: Vec<u64> = order.iter().map(|&(key, _, _)| key).collect();
        let cuts = balanced_cuts(&keys, shards);
        let mut buckets: Vec<Vec<LeafEntry>> = (0..shards).map(|_| Vec::new()).collect();
        for &(key, _, i) in &order {
            buckets[cut_range(&cuts, key)].push(entries[i]);
        }
        ShardedTree {
            mapper,
            cuts,
            shards: buckets
                .into_iter()
                .map(|b| RTree::bulk_load(params, b))
                .collect(),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total points across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(RTree::len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    pub fn shard(&self, s: usize) -> &RTree {
        &self.shards[s]
    }

    /// The shard that owns `p` — a pure function of the point, stable for
    /// the lifetime of the sharded tree.
    #[inline]
    pub fn route(&self, p: Point) -> usize {
        cut_range(&self.cuts, self.mapper.key(p))
    }

    /// Inserts an entry into its owning shard; returns the shard index.
    pub fn insert(&mut self, entry: LeafEntry) -> usize {
        let s = self.route(entry.point);
        self.shards[s].insert(entry);
        s
    }

    /// Removes an entry from its owning shard. Returns whether it was
    /// present.
    pub fn remove(&mut self, id: PointId, point: Point) -> bool {
        let s = self.route(point);
        self.shards[s].remove(id, point)
    }

    /// Freezes every shard from scratch.
    pub fn freeze_all(&self) -> ShardedSnapshot {
        ShardedSnapshot::from_shards(self.shards.iter().map(|t| Arc::new(t.freeze())).collect())
    }

    /// Incrementally refreshes a previous snapshot of this sharded tree:
    /// untouched shards share their `Arc` with `prev` (zero copying), dirty
    /// shards rebuild through the page-level copy-on-write
    /// [`RTree::refreeze`]. Falls back to a full [`ShardedTree::freeze_all`]
    /// when `prev` has a different shard count (it cannot be a snapshot of
    /// this tree).
    pub fn refreeze_all(&self, prev: &ShardedSnapshot) -> ShardedSnapshot {
        if prev.shard_count() != self.shard_count() {
            return self.freeze_all();
        }
        ShardedSnapshot::from_shards(
            self.shards
                .iter()
                .zip(prev.shards())
                .map(|(tree, snap)| {
                    if snap.is_snapshot_of(tree) && tree.dirty_page_count(snap) == 0 {
                        Arc::clone(snap)
                    } else {
                        Arc::new(tree.refreeze(snap))
                    }
                })
                .collect(),
        )
    }

    /// Fraction of shard `s`'s pages dirtied since `prev` (1.0 when `prev`
    /// is not a snapshot of that shard). The refresh-policy signal.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or `prev` has a different shard count.
    pub fn dirty_fraction(&self, s: usize, prev: &ShardedSnapshot) -> f64 {
        assert_eq!(
            prev.shard_count(),
            self.shard_count(),
            "snapshot shard count mismatch"
        );
        let tree = &self.shards[s];
        tree.dirty_page_count(prev.shard(s)) as f64 / tree.node_count().max(1) as f64
    }

    /// The largest per-shard dirty fraction (see
    /// [`ShardedTree::dirty_fraction`]).
    pub fn max_dirty_fraction(&self, prev: &ShardedSnapshot) -> f64 {
        (0..self.shard_count())
            .map(|s| self.dirty_fraction(s, prev))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_entries(n: usize, seed: u64) -> Vec<LeafEntry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                LeafEntry::new(
                    PointId(i as u64),
                    Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
                )
            })
            .collect()
    }

    fn ids_sorted(snapshot: &ShardedSnapshot) -> Vec<u64> {
        let mut v: Vec<u64> = snapshot
            .shards()
            .iter()
            .flat_map(|s| s.iter().map(|e| e.id.0))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn partition_covers_every_point_exactly_once() {
        for shards in [1usize, 2, 4, 7] {
            let entries = random_entries(700, 3);
            let tree = RTree::bulk_load(RTreeParams::with_capacity(8), entries);
            let snap = tree.freeze_sharded(shards);
            assert_eq!(snap.shard_count(), shards);
            assert_eq!(snap.len(), 700);
            assert_eq!(ids_sorted(&snap), (0..700u64).collect::<Vec<_>>());
            assert_eq!(snap.directory().len(), shards);
            for s in 0..shards {
                let shard = snap.shard(s);
                assert!(shard
                    .iter()
                    .all(|e| snap.directory()[s].contains_point(e.point)));
            }
        }
    }

    #[test]
    fn partition_and_freeze_sharded_are_the_same_partition() {
        let entries = random_entries(500, 9);
        let tree = RTree::bulk_load(RTreeParams::with_capacity(8), entries);
        let packed = tree.freeze();
        let a = tree.freeze_sharded(4);
        let b = packed.partition(4);
        assert_eq!(a.shard_count(), b.shard_count());
        for s in 0..4 {
            assert_eq!(a.shard(s).as_ref(), b.shard(s).as_ref(), "shard {s}");
        }
        assert_eq!(a.directory(), b.directory());
    }

    #[test]
    fn shard_bounds_cover_every_shard_point() {
        let entries = random_entries(3000, 21);
        let tree = RTree::bulk_load(RTreeParams::with_capacity(8), entries);
        let snap = tree.freeze_sharded(4);
        for s in 0..4 {
            let bounds = snap.shard_bounds(s);
            assert!(!bounds.is_empty());
            for e in snap.shard(s).iter() {
                assert!(
                    bounds.iter().any(|r| r.contains_point(e.point)),
                    "shard {s}: {:?} escapes the routing directory",
                    e.id
                );
            }
            // The refined directory is contained in the shard MBR.
            for r in bounds {
                assert!(snap.directory()[s].contains_rect(r), "shard {s}");
            }
        }
        // Empty shards expose an empty bounds list.
        let empty = RTree::new(RTreeParams::default()).freeze_sharded(2);
        assert!(empty.shard_bounds(0).is_empty());
    }

    #[test]
    fn shards_are_spatially_coherent() {
        // Hilbert-range shards of uniform data should have near-disjoint
        // MBRs: total shard area well below shard_count × workspace area.
        let entries = random_entries(4000, 5);
        let tree = RTree::bulk_load(RTreeParams::default(), entries);
        let snap = tree.freeze_sharded(8);
        let workspace_area = tree.root_mbr().area();
        let total: f64 = snap.directory().iter().map(Rect::area).sum();
        assert!(
            total < 3.0 * workspace_area,
            "shards overlap too much: {total} vs workspace {workspace_area}"
        );
    }

    #[test]
    fn single_wraps_without_rebuilding() {
        let entries = random_entries(300, 7);
        let tree = RTree::bulk_load(RTreeParams::with_capacity(8), entries);
        let packed = Arc::new(tree.freeze());
        let snap = ShardedSnapshot::single(Arc::clone(&packed));
        assert_eq!(snap.shard_count(), 1);
        assert!(Arc::ptr_eq(snap.shard(0), &packed));
        assert_eq!(snap.root_mbr(), packed.root_mbr());
        assert_eq!(snap.len(), packed.len());
    }

    #[test]
    fn routing_is_consistent_with_build_partition() {
        let entries = random_entries(900, 11);
        let st = ShardedTree::build(RTreeParams::with_capacity(8), entries.clone(), 5);
        for e in &entries {
            let s = st.route(e.point);
            assert!(
                st.shard(s).iter().any(|x| x.id == e.id),
                "entry {:?} not in its routed shard {s}",
                e.id
            );
        }
    }

    #[test]
    fn insert_delete_roundtrip_through_routing() {
        let entries = random_entries(600, 13);
        let mut st = ShardedTree::build(RTreeParams::with_capacity(8), entries.clone(), 4);
        assert_eq!(st.len(), 600);
        // Delete half, insert new ones (some outside the workspace).
        for e in &entries[..300] {
            assert!(st.remove(e.id, e.point), "{:?}", e.id);
        }
        assert!(!st.remove(PointId(0), entries[0].point), "double delete");
        for i in 0..50u64 {
            st.insert(LeafEntry::new(
                PointId(10_000 + i),
                Point::new(150.0 + i as f64, -20.0),
            ));
        }
        assert_eq!(st.len(), 350);
        // Out-of-workspace points still delete through routing.
        assert!(st.remove(PointId(10_000), Point::new(150.0, -20.0)));
        assert_eq!(st.len(), 349);
    }

    #[test]
    fn refreeze_all_reuses_clean_shards_and_matches_full_freeze() {
        let entries = random_entries(2000, 17);
        let mut st = ShardedTree::build(RTreeParams::with_capacity(8), entries.clone(), 4);
        let prev = st.freeze_all();
        // Touch only the shard owning entries[0].
        let touched = st.route(entries[0].point);
        assert!(st.remove(entries[0].id, entries[0].point));
        assert!(st.max_dirty_fraction(&prev) > 0.0);
        let next = st.refreeze_all(&prev);
        let full = st.freeze_all();
        for s in 0..4 {
            assert_eq!(next.shard(s).as_ref(), full.shard(s).as_ref(), "shard {s}");
            if s != touched {
                assert!(
                    Arc::ptr_eq(next.shard(s), prev.shard(s)),
                    "clean shard {s} must share its Arc"
                );
                assert_eq!(st.dirty_fraction(s, &prev), 0.0);
            } else {
                assert!(!Arc::ptr_eq(next.shard(s), prev.shard(s)));
            }
        }
        assert_eq!(next.len(), 1999);
    }

    #[test]
    fn refreeze_all_with_mismatched_shard_count_falls_back() {
        let entries = random_entries(400, 19);
        let st = ShardedTree::build(RTreeParams::with_capacity(8), entries.clone(), 3);
        let foreign = ShardedTree::build(RTreeParams::with_capacity(8), entries, 2).freeze_all();
        let next = st.refreeze_all(&foreign);
        assert_eq!(next.shard_count(), 3);
        assert_eq!(next.len(), 400);
    }

    #[test]
    fn empty_build_yields_empty_shards() {
        let st = ShardedTree::build(RTreeParams::default(), Vec::new(), 3);
        assert!(st.is_empty());
        let snap = st.freeze_all();
        assert_eq!(snap.shard_count(), 3);
        assert!(snap.is_empty());
        assert!(snap.root_mbr().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedTree::build(RTreeParams::default(), Vec::new(), 0);
    }
}
