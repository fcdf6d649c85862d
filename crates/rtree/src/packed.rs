//! A read-optimized, packed snapshot of an [`RTree`].
//!
//! [`RTree::freeze`] lays every page of the arena tree out in two
//! contiguous arenas:
//!
//! * internal pages become spans over four parallel rectangle-coordinate
//!   arrays plus a child-id array (SoA), so a node scan is one linear,
//!   branch-predictable pass for the batched `gnn_geom::batch` kernels;
//! * leaf pages become spans over an id array beside two coordinate
//!   arrays (SoA), the only copy of each point: the batched point kernels
//!   run over the coordinates, and [`LeafRef::entries`] pairs them with the
//!   ids.
//!
//! Every page span is **lane-padded**: all parallel arrays of a page occupy
//! `pad_len(len)` slots (a multiple of [`gnn_geom::simd::LANE_COUNT`]), so
//! the explicit SIMD kernels cover it with full vectors and no scalar tail.
//! The six `f64` arenas are plain `Vec`s, each sized once per pack (so it
//! never reallocates) and entered at a leading offset that puts lane 0 of
//! every span on a 64-byte boundary: SIMD loads never split a cache line.
//! The offset affects speed only; a clone re-aligns its copy. Padding lanes
//! hold fixed sentinels (`0.0` coordinates, [`PAD_CHILD`] and [`PAD_ID`]
//! ids) that the padded kernels compute on but never emit: outputs are
//! truncated at the page's true `len`, so results, distance bits and
//! node-access counts stay bit-identical to the unpadded layout. The
//! sentinels are deterministic, which keeps `PartialEq` (and the
//! refreeze-equals-freeze invariant) exact.
//!
//! Page ids are renumbered densely in BFS order (the root is page 0), which
//! keeps sibling pages adjacent in memory and lets the LRU buffer use a
//! direct-mapped slot table instead of a hash map.
//!
//! The snapshot preserves the page *structure* of the source tree exactly —
//! same pages, same entries per page, same branch order within a page
//! (`packed_pages_mirror_arena_pages` pins this); only page ids and the
//! memory layout change: no `Option<Node>` indirection, no per-page heap
//! allocations, no pointer chasing. Queries read nothing else: the arena
//! tree is the builder, and a [`crate::TreeCursor`] opens only snapshots.

use crate::node::{BranchesRef, LeafEntry, LeafRef, Node, PageId, PageRef};
use crate::tree::RTree;
use crate::RTreeParams;
use gnn_geom::simd::{pad_len, LANE_COUNT};
use gnn_geom::{PointId, Rect};

/// Child-id sentinel filling the padding lanes of internal spans. Never a
/// valid page (the id space is dense and bounded by `node_count`), and never
/// read by queries: child iteration stops at the span's true `len`.
const PAD_CHILD: PageId = PageId(u32::MAX);

/// Point-id sentinel filling the padding lanes of leaf spans. Reserved (no
/// dataset uses `u64::MAX`), and never read by queries: a leaf's ids stop at
/// the span's true `len`.
const PAD_ID: PointId = PointId(u64::MAX);

/// One `f64` arena: a plain `Vec` entered `head` lanes in, where its lane 0
/// sits on a 64-byte boundary. It is sized once, for every lane it will
/// hold, so it never reallocates and the boundary holds for its lifetime.
/// `head` affects speed only: a misaligned arena reads the same values.
#[derive(Debug)]
struct Lanes {
    buf: Vec<f64>,
    head: usize,
}

impl Lanes {
    /// An empty arena with room for `lanes` lanes after its offset.
    fn with_capacity(lanes: usize) -> Self {
        let mut buf: Vec<f64> = Vec::with_capacity(lanes + LANE_COUNT - 1);
        // `align_offset` may decline (usize::MAX); then start unaligned.
        let head = match buf.as_ptr().align_offset(64) {
            head if head < LANE_COUNT => head,
            _ => 0,
        };
        buf.resize(head, 0.0);
        Lanes { buf, head }
    }

    /// Appends every lane of `src`.
    #[inline]
    fn extend_from_slice(&mut self, src: &[f64]) {
        self.buf.extend_from_slice(src);
    }

    /// Appends one lane.
    #[inline]
    fn push(&mut self, v: f64) {
        self.buf.push(v);
    }
}

impl std::ops::Deref for Lanes {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        &self.buf[self.head..]
    }
}

impl Clone for Lanes {
    /// A copy on a fresh allocation, aligned for itself.
    fn clone(&self) -> Self {
        let mut copy = Lanes::with_capacity(self.len());
        copy.extend_from_slice(self);
        copy
    }
}

impl PartialEq for Lanes {
    /// The lanes, not the allocations.
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Location of one page inside the packed arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageSpan {
    /// Offset into the branch arenas (internal) or the leaf arenas (leaf).
    /// Always a multiple of the lane quantum (spans are lane-padded).
    offset: u32,
    /// Number of **real** entries in the page; the span occupies
    /// `pad_len(len)` arena slots.
    len: u32,
    /// Whether the span indexes the leaf arenas.
    leaf: bool,
}

/// A read-only, contiguously packed R*-tree snapshot.
///
/// Built with [`RTree::freeze`] (full rebuild) or [`RTree::refreeze`]
/// (page-level copy-on-write reuse of a previous snapshot); queried through
/// [`PackedRTree::cursor`] or [`crate::TreeCursor::with_buffer`] — the one
/// page layout every query reads. Mutations go to the source [`RTree`];
/// re-freeze (or refreeze) to refresh the snapshot.
///
/// `PartialEq` compares the *structural* content — parameters, page spans,
/// the five branch arenas, the three leaf arenas (ids and coordinate
/// lanes, padding included, not their allocations), root MBR, height and
/// cardinality — i.e. everything a query can observe. Two equal snapshots
/// produce bit-identical results and node accesses for every algorithm.
#[derive(Debug, Clone)]
pub struct PackedRTree {
    params: RTreeParams,
    spans: Vec<PageSpan>,
    // Internal-page arena, SoA: child MBR coordinates and child ids,
    // lane-padded per span.
    br_lo_x: Lanes,
    br_lo_y: Lanes,
    br_hi_x: Lanes,
    br_hi_y: Lanes,
    br_child: Vec<PageId>,
    // Leaf-page arena, SoA: point ids and coordinates, lane-padded per
    // span (`PAD_ID` and `0.0` sentinels), so one offset indexes all three.
    leaf_ids: Vec<PointId>,
    leaf_xs: Lanes,
    leaf_ys: Lanes,
    root_mbr: Rect,
    height: usize,
    len: usize,
    // --- refreeze provenance (not part of PartialEq) ---
    /// `arena_of[new_id] = arena page id` at freeze time: the inverse of the
    /// dense renumbering, kept so a later refreeze can find each arena
    /// page's span inside this snapshot.
    arena_of: Vec<PageId>,
    /// Identity token of the source tree instance.
    tree_id: u64,
    /// The source tree's mutation clock at freeze time.
    version: u64,
}

impl PartialEq for PackedRTree {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
            && self.spans == other.spans
            && self.br_lo_x == other.br_lo_x
            && self.br_lo_y == other.br_lo_y
            && self.br_hi_x == other.br_hi_x
            && self.br_hi_y == other.br_hi_y
            && self.br_child == other.br_child
            && self.leaf_ids == other.leaf_ids
            && self.leaf_xs == other.leaf_xs
            && self.leaf_ys == other.leaf_ys
            && self.root_mbr == other.root_mbr
            && self.height == other.height
            && self.len == other.len
    }
}

impl PackedRTree {
    /// Packs `tree` from scratch (see [`RTree::freeze`]).
    pub(crate) fn freeze(tree: &RTree) -> Self {
        Self::pack(tree, None)
    }

    /// Packs `tree` reusing the untouched page spans of `prev` (see
    /// [`RTree::refreeze`]). Falls back to a full pack when `prev` is not a
    /// snapshot of this tree instance (or was taken under other params).
    pub(crate) fn refreeze(tree: &RTree, prev: &PackedRTree) -> Self {
        if prev.is_snapshot_of(tree) {
            Self::pack(tree, Some(prev))
        } else {
            Self::pack(tree, None)
        }
    }

    /// Whether this snapshot was frozen from `tree` (same instance, same
    /// parameters), i.e. whether per-page version comparison against it is
    /// meaningful.
    pub fn is_snapshot_of(&self, tree: &RTree) -> bool {
        self.tree_id == tree.tree_id() && self.params == *tree.params()
    }

    /// The source tree's mutation clock at freeze time.
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    fn pack(tree: &RTree, prev: Option<&PackedRTree>) -> Self {
        // `prev_of[arena_id] = page id inside prev`, for span reuse. Arena
        // ids only grow, so `prev`'s ids all fit below `tree.arena_len()`.
        let prev_of: Option<Vec<u32>> = prev.map(|p| {
            let mut m = vec![u32::MAX; tree.arena_len()];
            for (packed_id, arena_id) in p.arena_of.iter().enumerate() {
                m[arena_id.index()] = u32::try_from(packed_id).expect("page arena overflow");
            }
            m
        });
        // A page is *clean* when it existed in `prev` and has not been
        // touched since `prev` was frozen: its content (and, for internal
        // pages, its children's arena ids) is bit-identical to what `prev`
        // recorded, so both BFS passes can run off the previous snapshot's
        // contiguous arenas without dereferencing the arena node at all.
        // Returns the page's id inside `prev`, or `u32::MAX` when dirty.
        let clean_prev_id = |arena_id: PageId| -> u32 {
            match (prev, prev_of.as_deref()) {
                (Some(p), Some(prev_of)) if tree.page_version(arena_id) <= p.version => {
                    prev_of[arena_id.index()]
                }
                _ => u32::MAX,
            }
        };

        // BFS pass 1: dense renumbering. `order[new_id] = old_id`;
        // `reuse[new_id]` = the page's id in `prev` (u32::MAX when dirty).
        let mut order: Vec<PageId> = Vec::with_capacity(tree.node_count());
        let mut reuse: Vec<u32> = Vec::with_capacity(tree.node_count());
        order.push(tree.root());
        reuse.push(clean_prev_id(tree.root()));
        // The padded lanes of every page are summed on the way, so each
        // arena below is allocated once, at its final size.
        let (mut leaf_lanes, mut branch_lanes) = (0, 0);
        let mut head = 0;
        while head < order.len() {
            let prev_id = reuse[head];
            if prev_id != u32::MAX {
                let p = prev.expect("reuse implies prev");
                let span = p.spans[prev_id as usize];
                if span.leaf {
                    leaf_lanes += pad_len(span.len as usize);
                } else {
                    branch_lanes += pad_len(span.len as usize);
                    let lo = span.offset as usize;
                    let hi = lo + span.len as usize;
                    for c in &p.br_child[lo..hi] {
                        let arena_child = p.arena_of[c.index()];
                        order.push(arena_child);
                        reuse.push(clean_prev_id(arena_child));
                    }
                }
            } else {
                match tree.node(order[head]) {
                    Node::Leaf(es) => leaf_lanes += pad_len(es.len()),
                    Node::Internal(bs) => {
                        branch_lanes += pad_len(bs.len());
                        for b in bs {
                            order.push(b.child);
                            reuse.push(clean_prev_id(b.child));
                        }
                    }
                }
            }
            head += 1;
        }
        let mut new_of = vec![u32::MAX; tree.arena_len()];
        for (new_id, old_id) in order.iter().enumerate() {
            new_of[old_id.index()] = u32::try_from(new_id).expect("page arena overflow");
        }

        // Pass 2: write spans and arenas in new-id order.
        let mut packed = PackedRTree {
            params: *tree.params(),
            spans: Vec::with_capacity(order.len()),
            br_lo_x: Lanes::with_capacity(branch_lanes),
            br_lo_y: Lanes::with_capacity(branch_lanes),
            br_hi_x: Lanes::with_capacity(branch_lanes),
            br_hi_y: Lanes::with_capacity(branch_lanes),
            br_child: Vec::with_capacity(branch_lanes),
            leaf_ids: Vec::with_capacity(leaf_lanes),
            leaf_xs: Lanes::with_capacity(leaf_lanes),
            leaf_ys: Lanes::with_capacity(leaf_lanes),
            root_mbr: tree.root_mbr(),
            height: tree.height(),
            len: tree.len(),
            arena_of: Vec::new(),
            tree_id: tree.tree_id(),
            version: tree.version(),
        };
        // Clean leaf pages that were adjacent in `prev` usually stay
        // adjacent in the new order, so instead of one copy per page the
        // pending contiguous range of `prev`'s leaf arenas is carried in
        // `run` and flushed as a single three-arena memcpy when it breaks.
        // Ranges are in *padded* arena slots: each span occupies
        // `pad_len(len)` of them, so merged runs copy the sentinels along
        // with the data and land on lane boundaries again (aligned source,
        // aligned destination).
        let mut run = 0usize..0usize;
        let flush_run = |packed: &mut PackedRTree, run: &mut std::ops::Range<usize>| {
            if run.start < run.end {
                let p = prev.expect("leaf run implies prev");
                packed.leaf_ids.extend_from_slice(&p.leaf_ids[run.clone()]);
                packed.leaf_xs.extend_from_slice(&p.leaf_xs[run.clone()]);
                packed.leaf_ys.extend_from_slice(&p.leaf_ys[run.clone()]);
            }
            *run = 0..0;
        };
        for (new_id, old_id) in order.iter().enumerate() {
            let prev_id = reuse[new_id];
            // Copy-on-write fast path: a clean page's span is copied
            // wholesale out of the previous snapshot's arenas. Only child
            // ids must be remapped (dense BFS ids are global, so a
            // structural change anywhere renumbers).
            if prev_id != u32::MAX {
                let p = prev.expect("reuse implies prev");
                let span = p.spans[prev_id as usize];
                let lo = span.offset as usize;
                let real_hi = lo + span.len as usize;
                let pad_hi = lo + pad_len(span.len as usize);
                if span.leaf {
                    let pending = run.end - run.start;
                    packed.spans.push(PageSpan {
                        offset: u32::try_from(packed.leaf_ids.len() + pending)
                            .expect("leaf arena overflow"),
                        len: span.len,
                        leaf: true,
                    });
                    if run.end == lo {
                        run.end = pad_hi; // extends the pending contiguous range
                    } else {
                        flush_run(&mut packed, &mut run);
                        run = lo..pad_hi;
                    }
                } else {
                    flush_run(&mut packed, &mut run);
                    packed.spans.push(PageSpan {
                        offset: u32::try_from(packed.br_child.len())
                            .expect("branch arena overflow"),
                        len: span.len,
                        leaf: false,
                    });
                    // Coordinate copies carry the padded range wholesale —
                    // the 0.0 sentinels come along for free.
                    packed.br_lo_x.extend_from_slice(&p.br_lo_x[lo..pad_hi]);
                    packed.br_lo_y.extend_from_slice(&p.br_lo_y[lo..pad_hi]);
                    packed.br_hi_x.extend_from_slice(&p.br_hi_x[lo..pad_hi]);
                    packed.br_hi_y.extend_from_slice(&p.br_hi_y[lo..pad_hi]);
                    // The page is clean, so its children's arena ids are
                    // unchanged: prev packed id → arena id → new id. Only
                    // the real lanes are remapped (sentinels aren't pages).
                    for c in &p.br_child[lo..real_hi] {
                        let arena_child = p.arena_of[c.index()];
                        packed.br_child.push(PageId(new_of[arena_child.index()]));
                    }
                    for _ in real_hi..pad_hi {
                        packed.br_child.push(PAD_CHILD);
                    }
                }
                continue;
            }
            flush_run(&mut packed, &mut run);
            match tree.node(*old_id) {
                Node::Leaf(es) => {
                    packed.spans.push(PageSpan {
                        offset: u32::try_from(packed.leaf_ids.len()).expect("leaf arena overflow"),
                        len: u32::try_from(es.len()).expect("page overflow"),
                        leaf: true,
                    });
                    for e in es {
                        packed.leaf_ids.push(e.id);
                        packed.leaf_xs.push(e.point.x);
                        packed.leaf_ys.push(e.point.y);
                    }
                    for _ in es.len()..pad_len(es.len()) {
                        packed.leaf_ids.push(PAD_ID);
                        packed.leaf_xs.push(0.0);
                        packed.leaf_ys.push(0.0);
                    }
                }
                Node::Internal(bs) => {
                    packed.spans.push(PageSpan {
                        offset: u32::try_from(packed.br_child.len())
                            .expect("branch arena overflow"),
                        len: u32::try_from(bs.len()).expect("page overflow"),
                        leaf: false,
                    });
                    for b in bs {
                        packed.br_lo_x.push(b.mbr.lo.x);
                        packed.br_lo_y.push(b.mbr.lo.y);
                        packed.br_hi_x.push(b.mbr.hi.x);
                        packed.br_hi_y.push(b.mbr.hi.y);
                        packed.br_child.push(PageId(new_of[b.child.index()]));
                    }
                    for _ in bs.len()..pad_len(bs.len()) {
                        packed.br_lo_x.push(0.0);
                        packed.br_lo_y.push(0.0);
                        packed.br_hi_x.push(0.0);
                        packed.br_hi_y.push(0.0);
                        packed.br_child.push(PAD_CHILD);
                    }
                }
            }
        }
        flush_run(&mut packed, &mut run);
        debug_assert_eq!(packed.leaf_ids.len(), leaf_lanes);
        debug_assert_eq!(packed.br_child.len(), branch_lanes);
        packed.arena_of = order;
        packed
    }

    /// The tree parameters of the source tree.
    #[inline]
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// Number of data points stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot stores no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 = the root is a leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Root page id — always page 0 after BFS renumbering.
    #[inline]
    pub fn root(&self) -> PageId {
        PageId(0)
    }

    /// MBR of the whole dataset (captured at freeze time).
    #[inline]
    pub fn root_mbr(&self) -> Rect {
        self.root_mbr
    }

    /// Number of pages. Ids `0..node_count()` are all valid — the packed id
    /// space is dense, which is what makes the direct-mapped buffer-pool
    /// slot table compact.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.spans.len()
    }

    /// Borrows a page as a [`PageRef`] view.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn page(&self, id: PageId) -> PageRef<'_> {
        self.span_page(self.spans[id.index()])
    }

    /// The page a span locates.
    #[inline]
    fn span_page(&self, span: PageSpan) -> PageRef<'_> {
        let lo = span.offset as usize;
        let hi = lo + span.len as usize;
        // Coordinate slices expose the full lane-padded span so the SIMD
        // kernels can run full vectors over it; id/child slices stop at
        // the true length, which is what bounds every loop and output.
        let pad_hi = lo + pad_len(span.len as usize);
        if span.leaf {
            PageRef::Leaf(LeafRef::new(
                &self.leaf_ids[lo..hi],
                &self.leaf_xs[lo..pad_hi],
                &self.leaf_ys[lo..pad_hi],
            ))
        } else {
            PageRef::Internal(BranchesRef {
                lo_x: &self.br_lo_x[lo..pad_hi],
                lo_y: &self.br_lo_y[lo..pad_hi],
                hi_x: &self.br_hi_x[lo..pad_hi],
                hi_y: &self.br_hi_y[lo..pad_hi],
                children: &self.br_child[lo..hi],
            })
        }
    }

    /// Iterates over every stored point (arbitrary order, no accounting).
    /// Skips the lane-padding sentinels by walking leaf spans.
    pub fn iter(&self) -> impl Iterator<Item = LeafEntry> + '_ {
        self.spans
            .iter()
            .filter_map(move |&span| match self.span_page(span) {
                PageRef::Leaf(leaf) => Some(leaf.entries()),
                PageRef::Internal(_) => None,
            })
            .flatten()
    }

    /// A fresh unbuffered [`crate::TreeCursor`] over this snapshot (every
    /// logical access is an I/O; [`crate::TreeCursor::with_buffer`] opens
    /// a buffered one) — the cheap per-thread constructor concurrent
    /// engines use. The snapshot itself is `Send + Sync` (share it behind
    /// an `Arc`); each worker thread owns its own cursor, because cursors
    /// carry per-thread access counters in a `RefCell` and are
    /// intentionally `!Sync`.
    pub fn cursor(&self) -> crate::TreeCursor<'_> {
        crate::TreeCursor::open(self, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PageRef;
    use gnn_geom::{Point, PointId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> RTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = RTree::new(RTreeParams::with_capacity(8));
        for i in 0..n {
            t.insert(LeafEntry::new(
                PointId(i as u64),
                Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
            ));
        }
        t
    }

    #[test]
    fn freeze_preserves_shape_and_contents() {
        let tree = random_tree(777, 1);
        let packed = tree.freeze();
        assert_eq!(packed.len(), tree.len());
        assert_eq!(packed.height(), tree.height());
        assert_eq!(packed.node_count(), tree.node_count());
        assert_eq!(packed.root_mbr(), tree.root_mbr());
        let mut got: Vec<u64> = packed.iter().map(|e| e.id.0).collect();
        let mut want: Vec<u64> = tree.iter().map(|e| e.id.0).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn packed_pages_mirror_arena_pages() {
        // Walk both trees in lockstep from the root: every page must hold
        // the same entries (and branch MBRs) in the same order.
        let tree = random_tree(500, 2);
        let packed = tree.freeze();
        let mut stack = vec![(tree.root(), packed.root())];
        while let Some((old_id, new_id)) = stack.pop() {
            match (tree.node(old_id), packed.page(new_id)) {
                (Node::Leaf(es), PageRef::Leaf(l)) => {
                    let bits = |e: LeafEntry| (e.id, e.point.x.to_bits(), e.point.y.to_bits());
                    let got: Vec<_> = l.entries().map(bits).collect();
                    let want: Vec<_> = es.iter().copied().map(bits).collect();
                    assert_eq!(got, want);
                }
                (Node::Internal(bs), PageRef::Internal(v)) => {
                    assert_eq!(bs.len(), v.len());
                    for (i, b) in bs.iter().enumerate() {
                        assert_eq!(b.mbr, v.mbr(i));
                        stack.push((b.child, v.child(i)));
                    }
                }
                _ => panic!("page kind mismatch"),
            }
        }
    }

    #[test]
    fn page_ids_are_dense_bfs() {
        let tree = random_tree(300, 3);
        let packed = tree.freeze();
        assert_eq!(packed.root(), PageId(0));
        // Every id in 0..node_count is readable, and children of page i all
        // have ids greater than i (BFS order).
        for id in 0..packed.node_count() {
            if let PageRef::Internal(v) = packed.page(PageId(id as u32)) {
                for i in 0..v.len() {
                    assert!(v.child(i).index() > id);
                }
            }
        }
    }

    #[test]
    fn empty_tree_freezes() {
        let tree = RTree::new(RTreeParams::default());
        let packed = tree.freeze();
        assert!(packed.is_empty());
        assert_eq!(packed.node_count(), 1);
        assert!(matches!(packed.page(packed.root()), PageRef::Leaf(_)));
    }

    /// The storage invariants of one snapshot: every `f64` arena starts on
    /// a 64-byte boundary, every arena is exactly its spans' padded lanes,
    /// and every padding lane holds its sentinel.
    fn assert_lane_storage(packed: &PackedRTree, what: &str) {
        use gnn_geom::simd::{pad_len, LANE_COUNT};
        for (name, lanes) in [
            ("br_lo_x", &packed.br_lo_x),
            ("br_lo_y", &packed.br_lo_y),
            ("br_hi_x", &packed.br_hi_x),
            ("br_hi_y", &packed.br_hi_y),
            ("leaf_xs", &packed.leaf_xs),
            ("leaf_ys", &packed.leaf_ys),
        ] {
            assert_eq!(lanes.as_ptr() as usize % 64, 0, "{what}: {name} misaligned");
        }
        for span in &packed.spans {
            assert_eq!(span.offset as usize % LANE_COUNT, 0, "{what}");
        }
        let padded = |leaf: bool| -> usize {
            let spans = packed.spans.iter().filter(|s| s.leaf == leaf);
            spans.map(|s| pad_len(s.len as usize)).sum()
        };
        let leaf_total = padded(true);
        assert_eq!(packed.leaf_ids.len(), leaf_total, "{what}");
        assert_eq!(packed.leaf_xs.len(), leaf_total, "{what}");
        assert_eq!(packed.leaf_ys.len(), leaf_total, "{what}");
        let br_total = padded(false);
        assert_eq!(packed.br_child.len(), br_total, "{what}");
        for lanes in [
            &packed.br_lo_x,
            &packed.br_lo_y,
            &packed.br_hi_x,
            &packed.br_hi_y,
        ] {
            assert_eq!(lanes.len(), br_total, "{what}");
        }
        // Padding lanes hold the fixed sentinels (determinism: equal trees
        // freeze to bitwise-equal arenas, padding included).
        let zero = |v: f64| v.to_bits() == 0;
        for s in &packed.spans {
            let lo = s.offset as usize;
            for i in lo + s.len as usize..lo + pad_len(s.len as usize) {
                if s.leaf {
                    assert_eq!(packed.leaf_ids[i], PAD_ID, "{what}");
                    assert!(zero(packed.leaf_xs[i]) && zero(packed.leaf_ys[i]), "{what}");
                } else {
                    assert_eq!(packed.br_child[i], PAD_CHILD, "{what}");
                    let br = [
                        &packed.br_lo_x,
                        &packed.br_lo_y,
                        &packed.br_hi_x,
                        &packed.br_hi_y,
                    ];
                    assert!(br.iter().all(|lanes| zero(lanes[i])), "{what}");
                }
            }
        }
        // iter() skips every sentinel.
        assert_eq!(packed.iter().count(), packed.len(), "{what}");
        assert!(packed.iter().all(|e| e.id != PAD_ID), "{what}");
    }

    #[test]
    fn arenas_are_lane_padded_aligned_and_sentinel_filled() {
        let mut tree = random_tree(700, 21);
        let packed = tree.freeze();
        assert_lane_storage(&packed, "freeze");
        assert_lane_storage(&packed.clone(), "clone");
        assert_eq!(packed.clone(), packed);
        for (s, shard) in packed.partition(3).shards().iter().enumerate() {
            assert_lane_storage(shard, &format!("shard {s}"));
        }
        // A refreeze that copies clean spans and repacks dirty ones.
        for i in 0..5u64 {
            let at = Point::new(10.0 + 15.0 * i as f64, 90.0 - 15.0 * i as f64);
            tree.insert(LeafEntry::new(PointId(1_000 + i), at));
        }
        let dirty = tree.dirty_page_count(&packed);
        assert!(dirty > 0 && dirty < tree.node_count() / 2, "dirty={dirty}");
        let refrozen = tree.refreeze(&packed);
        assert_lane_storage(&refrozen, "refreeze");
        assert_eq!(refrozen, tree.freeze());
    }

    #[test]
    fn refreeze_equals_full_freeze_after_mixed_updates() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut tree = random_tree(1200, 9);
        let mut snapshot = tree.freeze();
        let mut live: Vec<LeafEntry> = tree.iter().collect();
        let mut next_id = 10_000u64;
        for round in 0..6 {
            for _ in 0..40 {
                if rng.gen_bool(0.5) && !live.is_empty() {
                    let e = live.swap_remove(rng.gen_range(0..live.len()));
                    assert!(tree.remove(e.id, e.point));
                } else {
                    let e = LeafEntry::new(
                        PointId(next_id),
                        Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
                    );
                    next_id += 1;
                    tree.insert(e);
                    live.push(e);
                }
            }
            let full = tree.freeze();
            let incremental = tree.refreeze(&snapshot);
            assert_eq!(full, incremental, "round {round}");
            // The refrozen snapshot chains: next round reuses it.
            snapshot = incremental;
        }
    }

    #[test]
    fn refreeze_with_no_updates_is_identity() {
        let tree = random_tree(400, 12);
        let snap = tree.freeze();
        let again = tree.refreeze(&snap);
        assert_eq!(snap, again);
        assert_eq!(tree.dirty_page_count(&snap), 0);
    }

    #[test]
    fn refreeze_against_foreign_snapshot_falls_back_to_full_freeze() {
        let tree = random_tree(300, 4);
        let clone = tree.clone();
        let foreign = clone.freeze();
        assert!(!foreign.is_snapshot_of(&tree));
        assert_eq!(tree.dirty_page_count(&foreign), tree.node_count());
        // Still correct — just not incremental.
        assert_eq!(tree.refreeze(&foreign), tree.freeze());
    }

    #[test]
    fn dirty_page_count_tracks_update_paths() {
        let mut tree = random_tree(1000, 5);
        let snap = tree.freeze();
        assert_eq!(tree.dirty_page_count(&snap), 0);
        tree.insert(LeafEntry::new(PointId(99_999), Point::new(50.0, 50.0)));
        let dirty = tree.dirty_page_count(&snap);
        // At least the root-to-leaf path changed, but nowhere near the
        // whole tree.
        assert!(dirty >= tree.height(), "dirty={dirty}");
        assert!(dirty < tree.node_count() / 2, "dirty={dirty}");
    }

    #[test]
    fn snapshot_mbr_shrinks_after_hull_delete() {
        // Regression: the snapshot's dataset MBR must be recomputed from
        // the condensed tree at (re)freeze time, not carried over from
        // pre-delete bounds.
        let mut tree = random_tree(500, 6);
        let hull = LeafEntry::new(PointId(500), Point::new(1e4, 1e4));
        tree.insert(hull);
        let before = tree.freeze();
        assert_eq!(before.root_mbr().hi, Point::new(1e4, 1e4));
        assert!(tree.remove(hull.id, hull.point));
        let full = tree.freeze();
        let incremental = tree.refreeze(&before);
        assert_eq!(full, incremental);
        assert_eq!(incremental.root_mbr(), tree.root_mbr());
        assert!(incremental.root_mbr().hi.x < 1e3);
        assert!(
            incremental.root_mbr().area() < before.root_mbr().area(),
            "MBR did not shrink: {} vs {}",
            incremental.root_mbr(),
            before.root_mbr()
        );
    }
}
