//! Disk simulation: page-access accounting and an LRU buffer pool.
//!
//! The paper's primary cost metric is the number of *node accesses* (NA).
//! Algorithms never touch [`crate::PackedRTree`] pages directly; they read
//! them through a [`TreeCursor`], which counts every logical access and —
//! when a buffer pool is attached — every buffer miss (the simulated I/O).
//! The paper notes that MQM "benefits from the existence of an LRU buffer"
//! (§5.1); giving every algorithm the same buffered cursor keeps the
//! comparison fair.
//!
//! A cursor reads a packed snapshot, the one page layout queries see. There
//! are two ways to open one: [`crate::PackedRTree::cursor`] (unbuffered)
//! and [`TreeCursor::with_buffer`] (an LRU pool of a given number of
//! pages). The mutable [`crate::RTree`] is the builder; freeze it first.

use crate::node::{PageId, PageRef};
use crate::packed::PackedRTree;
use gnn_geom::Rect;
use std::cell::RefCell;

/// Counters accumulated by a [`TreeCursor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Every page read requested by an algorithm.
    pub logical: u64,
    /// Page reads that missed the buffer pool (simulated disk I/O). Equal to
    /// `logical` for unbuffered cursors.
    pub io: u64,
}

impl AccessStats {
    /// Component-wise sum of two counter sets.
    pub fn merged(self, other: AccessStats) -> AccessStats {
        AccessStats {
            logical: self.logical + other.logical,
            io: self.io + other.io,
        }
    }

    /// Counters accumulated since an earlier snapshot of the same cursor
    /// (`self` is the later snapshot).
    pub fn since(self, earlier: AccessStats) -> AccessStats {
        AccessStats {
            logical: self.logical.saturating_sub(earlier.logical),
            io: self.io.saturating_sub(earlier.io),
        }
    }
}

/// A fixed-capacity LRU set of page ids with O(1) touch/insert/evict: an
/// intrusive doubly-linked list kept in a slab, reached through a
/// **direct-mapped slot table** indexed by page id.
///
/// A packed snapshot numbers its pages densely (BFS positions), so the
/// table stays proportional to the tree size and the simulated-I/O path
/// performs no hashing at all — `access` is two array reads plus list
/// splicing.
#[derive(Debug)]
pub struct LruBuffer {
    capacity: usize,
    /// `slot_of[page] = slab index`, `NIL` when the page is not resident.
    /// Grown lazily to the highest page id seen.
    slot_of: Vec<usize>,
    slots: Vec<LruSlot>,
    len: usize,
    head: usize, // most recently used; NIL when empty
    tail: usize, // least recently used
    free: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct LruSlot {
    page: u32,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl LruBuffer {
    /// Creates a buffer holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero (use an unbuffered cursor instead).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU buffer capacity must be positive");
        LruBuffer {
            capacity,
            slot_of: Vec::new(),
            slots: Vec::with_capacity(capacity),
            len: 0,
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of pages currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records an access to `page`. Returns `true` on a buffer hit; on a
    /// miss the page is admitted, evicting the least-recently-used page if
    /// the buffer is full.
    pub fn access(&mut self, page: u32) -> bool {
        let idx = page as usize;
        if idx >= self.slot_of.len() {
            self.slot_of.resize(idx + 1, NIL);
        }
        let slot = self.slot_of[idx];
        if slot != NIL {
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        if self.len == self.capacity {
            let lru = self.tail;
            let evicted = self.slots[lru].page;
            self.unlink(lru);
            self.slot_of[evicted as usize] = NIL;
            self.len -= 1;
            self.free.push(lru);
        }
        let slot = if let Some(s) = self.free.pop() {
            self.slots[s].page = page;
            s
        } else {
            self.slots.push(LruSlot {
                page,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.push_front(slot);
        self.slot_of[idx] = slot;
        self.len += 1;
        false
    }

    /// Forgets every cached page (e.g. between workload queries when cold
    /// caches are wanted). Keeps the slot table's capacity.
    ///
    /// Costs O(resident pages), not O(slot table): only the live entries of
    /// the direct-mapped table are un-mapped (walking the LRU list), so
    /// clearing a small buffer over a huge tree stays cheap.
    pub fn clear(&mut self) {
        let mut cur = self.head;
        while cur != NIL {
            self.slot_of[self.slots[cur].page as usize] = NIL;
            cur = self.slots[cur].next;
        }
        self.slots.clear();
        self.free.clear();
        self.len = 0;
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, slot: usize) {
        let LruSlot { prev, next, .. } = self.slots[slot];
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// A distinct-page set for batch-scoped physical-read accounting: a dense
/// bitset over the snapshot's (dense) page ids plus a count.
///
/// A batch executor runs many queries through one cursor; every query's
/// *logical* accesses stay metered per query in [`AccessStats`] (the paper's
/// NA metric, deterministic per query), while the tracker answers the
/// batch-level question "how many **distinct** pages did the whole batch
/// touch?" — the physical reads a shared traversal actually pays, since the
/// first query to need a page fetches it and the rest of the batch hits it
/// in memory. Marking is two array ops; inactive tracking is one `Option`
/// check on the read path.
#[derive(Debug, Default)]
struct PageTracker {
    words: Vec<u64>,
    unique: u64,
    active: bool,
}

impl PageTracker {
    fn begin(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.unique = 0;
        self.active = true;
    }

    fn touch(&mut self, page: u32) {
        let word = (page / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (page % 64);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.unique += 1;
        }
    }

    fn finish(&mut self) -> u64 {
        self.active = false;
        self.unique
    }
}

/// A metered read handle over a packed R-tree snapshot.
///
/// Cheap to create; hold one per experiment (or per algorithm run) and call
/// [`TreeCursor::take_stats`] between queries.
///
/// # Thread safety
///
/// A cursor is `Send` but **intentionally `!Sync`**: the access counters
/// and optional LRU buffer live in a `RefCell`, so `read` works through
/// `&self` with no locking on the hot path — at the price of confining each
/// cursor to one thread. Concurrent engines share the snapshot itself
/// (`Send + Sync`) behind an `Arc` and give every worker its own cursor via
/// [`PackedRTree::cursor`]; that also keeps the per-query node-access
/// accounting exact, which a shared cursor would scramble.
///
/// ```compile_fail
/// fn needs_sync<T: Sync>() {}
/// needs_sync::<gnn_rtree::TreeCursor<'static>>();
/// ```
pub struct TreeCursor<'t> {
    tree: &'t PackedRTree,
    state: RefCell<CursorState>,
}

#[derive(Debug)]
struct CursorState {
    stats: AccessStats,
    buffer: Option<LruBuffer>,
    /// Batch-scoped distinct-page set; `None` until the first
    /// [`TreeCursor::begin_page_tracking`], then kept allocated (inactive)
    /// between batches so steady-state batches don't reallocate it.
    tracker: Option<PageTracker>,
}

impl<'t> TreeCursor<'t> {
    /// A cursor over `tree`, buffered when `buffer` is given. Public
    /// callers open one with [`PackedRTree::cursor`] or
    /// [`TreeCursor::with_buffer`].
    pub(crate) fn open(tree: &'t PackedRTree, buffer: Option<LruBuffer>) -> Self {
        TreeCursor {
            tree,
            state: RefCell::new(CursorState {
                stats: AccessStats::default(),
                buffer,
                tracker: None,
            }),
        }
    }

    /// A cursor backed by an LRU buffer pool of `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics when `pages` is zero (use [`PackedRTree::cursor`] instead).
    pub fn with_buffer(tree: &'t PackedRTree, pages: usize) -> Self {
        Self::open(tree, Some(LruBuffer::new(pages)))
    }

    /// Reads a page, recording the access.
    #[inline]
    pub fn read(&self, id: PageId) -> PageRef<'t> {
        {
            let mut state = self.state.borrow_mut();
            state.stats.logical += 1;
            let hit = match state.buffer.as_mut() {
                Some(buf) => buf.access(id.raw()),
                None => false,
            };
            if !hit {
                state.stats.io += 1;
            }
            if let Some(tracker) = state.tracker.as_mut() {
                if tracker.active {
                    tracker.touch(id.raw());
                }
            }
        }
        self.tree.page(id)
    }

    /// Root page id (reading the root later still counts as an access).
    #[inline]
    pub fn root(&self) -> PageId {
        self.tree.root()
    }

    /// Dataset MBR; metadata, not a counted page access.
    #[inline]
    pub fn root_mbr(&self) -> Rect {
        self.tree.root_mbr()
    }

    /// Number of data points in the tree behind the cursor.
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the tree behind the cursor stores no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of levels (1 = the root is a leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Starts (or restarts) batch-scoped distinct-page tracking: every page
    /// read from here until [`TreeCursor::finish_page_tracking`] is recorded
    /// in a dense bitset, and the number of **distinct** pages touched is
    /// returned by `finish_page_tracking`.
    ///
    /// Tracking is an accounting overlay only: it never alters
    /// [`AccessStats`] — per-query logical/IO counters stay exactly what a
    /// sequential run of each query would report, which is the determinism
    /// contract batch executors rely on. The bitset is kept allocated
    /// (inactive) across batches, so steady-state batches don't reallocate.
    pub fn begin_page_tracking(&self) {
        self.state
            .borrow_mut()
            .tracker
            .get_or_insert_with(PageTracker::default)
            .begin();
    }

    /// Stops batch-scoped page tracking and returns the number of distinct
    /// pages read since the matching [`TreeCursor::begin_page_tracking`]
    /// (`0` when tracking was never started).
    pub fn finish_page_tracking(&self) -> u64 {
        self.state
            .borrow_mut()
            .tracker
            .as_mut()
            .map_or(
                0,
                |tracker| {
                    if tracker.active {
                        tracker.finish()
                    } else {
                        0
                    }
                },
            )
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> AccessStats {
        self.state.borrow().stats
    }

    /// Returns the counters and resets them (the buffer pool keeps its
    /// contents, mirroring a warm cache across a workload).
    pub fn take_stats(&self) -> AccessStats {
        let mut state = self.state.borrow_mut();
        std::mem::take(&mut state.stats)
    }

    /// Clears both the counters and the buffer pool (cold start).
    pub fn reset(&self) {
        let mut state = self.state.borrow_mut();
        state.stats = AccessStats::default();
        if let Some(buf) = state.buffer.as_mut() {
            buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafEntry;
    use crate::{RTree, RTreeParams};
    use gnn_geom::{Point, PointId};

    #[test]
    fn lru_hits_and_misses() {
        let mut lru = LruBuffer::new(2);
        assert!(!lru.access(1)); // miss
        assert!(!lru.access(2)); // miss
        assert!(lru.access(1)); // hit
        assert!(!lru.access(3)); // miss, evicts 2 (LRU)
        assert!(lru.access(1)); // hit — 1 was refreshed
        assert!(!lru.access(2)); // miss — 2 was evicted
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_single_slot() {
        let mut lru = LruBuffer::new(1);
        assert!(!lru.access(9));
        assert!(lru.access(9));
        assert!(!lru.access(8));
        assert!(!lru.access(9));
    }

    #[test]
    fn lru_eviction_order_is_least_recent() {
        let mut lru = LruBuffer::new(3);
        for p in [1, 2, 3] {
            lru.access(p);
        }
        lru.access(1); // order now (MRU) 1,3,2
        lru.access(4); // evicts 2
        assert!(lru.access(1));
        assert!(lru.access(3));
        assert!(lru.access(4));
        assert!(!lru.access(2));
    }

    #[test]
    fn lru_clear() {
        let mut lru = LruBuffer::new(2);
        lru.access(1);
        lru.clear();
        assert!(lru.is_empty());
        assert!(!lru.access(1));
    }

    #[test]
    fn lru_stress_against_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let cap = 8;
        let mut lru = LruBuffer::new(cap);
        let mut reference: Vec<u32> = Vec::new(); // front = MRU
        for _ in 0..10_000 {
            let page = rng.gen_range(0..32u32);
            let expect_hit = reference.contains(&page);
            assert_eq!(lru.access(page), expect_hit);
            reference.retain(|&p| p != page);
            reference.insert(0, page);
            reference.truncate(cap);
        }
    }

    #[test]
    fn lru_sparse_page_ids() {
        // The slot table grows to the largest id; correctness must not
        // depend on density.
        let mut lru = LruBuffer::new(2);
        assert!(!lru.access(1_000_000));
        assert!(!lru.access(3));
        assert!(lru.access(1_000_000));
        assert!(!lru.access(70_000)); // evicts 3
        assert!(!lru.access(3));
        assert_eq!(lru.len(), 2);
    }

    fn snapshot(n: u64) -> PackedRTree {
        let mut tree = RTree::new(RTreeParams::with_capacity(4));
        for i in 0..n {
            tree.insert(LeafEntry::new(PointId(i), Point::new(i as f64, 0.0)));
        }
        tree.freeze()
    }

    #[test]
    fn cursor_counts_accesses() {
        let packed = snapshot(20);
        let cursor = packed.cursor();
        cursor.read(cursor.root());
        cursor.read(cursor.root());
        assert_eq!(cursor.stats(), AccessStats { logical: 2, io: 2 });
        let taken = cursor.take_stats();
        assert_eq!(taken.logical, 2);
        assert_eq!(cursor.stats(), AccessStats::default());
    }

    #[test]
    fn buffered_cursor_absorbs_repeats() {
        let packed = snapshot(50);
        let cursor = TreeCursor::with_buffer(&packed, 16);
        assert_eq!(cursor.len(), 50);
        assert_eq!(cursor.height(), packed.height());
        assert_eq!(cursor.root_mbr(), packed.root_mbr());
        for _ in 0..5 {
            cursor.read(cursor.root());
        }
        let s = cursor.stats();
        assert_eq!(s.logical, 5);
        assert_eq!(s.io, 1);
        cursor.reset();
        cursor.read(cursor.root());
        assert_eq!(cursor.stats().io, 1, "reset cleared the buffer");
    }

    #[test]
    fn page_tracking_counts_distinct_pages_without_touching_stats() {
        let packed = snapshot(50);
        let cursor = packed.cursor();
        // Inactive tracker: finish with no begin reports zero.
        assert_eq!(cursor.finish_page_tracking(), 0);
        cursor.begin_page_tracking();
        let root = cursor.root();
        let first_child = match cursor.read(root) {
            PageRef::Internal(branches) => branches.child(0),
            PageRef::Leaf(_) => root,
        };
        cursor.read(root);
        cursor.read(root);
        cursor.read(first_child);
        let distinct = cursor.finish_page_tracking();
        let expected = if first_child == root { 1 } else { 2 };
        assert_eq!(distinct, expected, "repeats collapse to distinct pages");
        // The overlay never perturbs the per-query access counters.
        assert_eq!(cursor.stats(), AccessStats { logical: 4, io: 4 });
        // A second begin resets the bitset: only new reads count.
        cursor.begin_page_tracking();
        cursor.read(root);
        assert_eq!(cursor.finish_page_tracking(), 1);
        // And finish is idempotent once tracking stopped.
        assert_eq!(cursor.finish_page_tracking(), 0);
    }

    #[test]
    fn stats_merge() {
        let a = AccessStats { logical: 3, io: 2 };
        let b = AccessStats { logical: 5, io: 4 };
        assert_eq!(a.merged(b), AccessStats { logical: 8, io: 6 });
    }
}
