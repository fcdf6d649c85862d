//! MBM — the minimum bounding method (paper §3.3, Figures 3.5–3.7).
//!
//! MBM traverses the data R-tree once, pruning with the MBR `M` of the
//! query group:
//!
//! * *Heuristic 2* (cheap, one rectangle distance): prune `N` when
//!   `mindist(N, M) ≥ best_dist / n` — generalised here to
//!   `W·mindist(N,M) ≥ best_dist` (SUM) and `mindist(N,M) ≥ best_dist`
//!   (MAX/MIN) via [`QueryGroup::cheap_bound_rect`].
//! * *Heuristic 3* (tight, `n` distances): prune `N` when
//!   `Σ_i mindist(N, q_i) ≥ best_dist` (aggregate-generalised via
//!   [`QueryGroup::tight_bound_rect`]). Applied only to nodes that pass
//!   heuristic 2, exactly as the paper recommends (footnote 3: H2 exists to
//!   save CPU, H3 to save I/O) — and, for SUM groups of at least
//!   `LAZY_MIN` points in the bounded loop, only where the heap gets there:
//!   such a child waits under a one-term centroid key (Jensen:
//!   `W·mindist(N, c_w) ≤ Σ wᵢ·mindist(N, qᵢ)`) and pays its `n` terms
//!   when it reaches the top.
//!
//! On packed snapshots two best-first drivers share two page-scoring steps.
//! The steps: `score_branches` keys every child of an internal page
//! (batched `mindist²` to `M`, then H3 for the children that pass H2), and
//! `score_leaf` computes the exact aggregate distance of a whole leaf in
//! one fused kernel call straight over the page's lane-padded coordinates.
//! The drivers:
//!
//! * **bounded top-k** (MBM's [`MemoryGnnAlgorithm::k_gnn_in`], the paper's
//!   Figure 3.6): a heap
//!   of *nodes only*; a child is pushed only while its key is below
//!   `best_dist`, a leaf's distances go straight to the [`KBestList`], and
//!   the loop ends when the popped key reaches `best_dist`. From `LAZY_MIN`
//!   SUM members up, children that pass H2 wait in a second heap of
//!   unresolved keys and enter the node heap under exactly their eager key
//!   when they resolve, so pages are read in the same order. Once
//!   `best_dist` is finite a SUM leaf is scored in two steps
//!   (`filter_leaf`): a rounded-down `f32` bound over the whole page, then
//!   the exact distance for the entries it could not rule out — the
//!   paper's reason for keeping heuristic 2 beside heuristic 3, applied to
//!   leaf entries;
//! * **incremental** ([`MbmStream`]): yields neighbors in ascending
//!   `dist(p, Q)` with `k` unknown in advance, so it keeps every child and
//!   every scored point on its heap — the building block of F-MQM (§4.2)
//!   and of network IER.
//!
//! A node is read iff fewer than `k` exact distances `<=` its key have been
//! seen, under either driver, so both read exactly the same pages. Arena
//! cursors keep the seed's reference stream (scalar bounds, one lazily
//! converted `mindist(p, M)` filter key per entry); `packed_equivalence`
//! pins the bounded loop against it — ids, distance bits, node accesses.
//!
//! The hot path is allocation-free in steady state: all per-query storage —
//! the heaps, the key and distance buffers, the result list — lives in a
//! reusable [`MbmScratch`] / [`crate::QueryScratch`].

use crate::best_list::KBestList;
use crate::query::QueryGroup;
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::{Aggregate, MemoryGnnAlgorithm, Traversal};
use gnn_geom::batch::BatchKernels;
use gnn_geom::bound::{CentroidBound, LeafBound};
use gnn_geom::{OrderedF64, Rect};
use gnn_rtree::{BranchesRef, LeafEntry, LeafRef, PageId, PageRef, ScratchRef, TreeCursor};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Default pre-sizing of the incremental stream's priority queue; covers the
/// paper-scale workloads without a single regrowth.
const STREAM_HEAP_CAPACITY: usize = 256;

/// Smallest SUM group the bounded loop keys heuristic 3 lazily for: the
/// smallest size measured ahead in 9 of 10 pairs. Below it an `n`-term
/// tight key costs less than the pending heap's traffic — 0.78× at n = 8,
/// parity at 32 (EXPERIMENTS.md, "Audit: eager heuristic-3 keys").
const LAZY_MIN: usize = 48;

/// The minimum bounding method.
#[derive(Debug, Clone, Copy)]
pub struct Mbm {
    /// Best-first (paper's experimental default) or depth-first traversal.
    pub traversal: Traversal,
    /// Apply heuristic 2 (cheap MBR bound). Disabling it is an ablation: the
    /// paper keeps it "because it reduces the CPU time requirements".
    pub use_h2: bool,
    /// Apply heuristic 3 (tight per-query-point bound). Disabling it leaves
    /// H2 only — the configuration the paper found inferior even to SPM.
    pub use_h3: bool,
}

impl Default for Mbm {
    fn default() -> Self {
        Mbm::best_first()
    }
}

impl Mbm {
    /// MBM with best-first traversal and both heuristics (paper default).
    pub const fn best_first() -> Self {
        Mbm {
            traversal: Traversal::BestFirst,
            use_h2: true,
            use_h3: true,
        }
    }

    /// MBM with depth-first traversal (Figure 3.7's walkthrough).
    pub fn depth_first() -> Self {
        Mbm {
            traversal: Traversal::DepthFirst,
            ..Mbm::default()
        }
    }

    /// The paper's best-first MBM (Figure 3.6) over a packed cursor: a heap
    /// of nodes only, children pushed only while their key is below
    /// `best_dist`, leaves scored whole into `best`, and the loop over as
    /// soon as the smallest pending key reaches `best_dist`.
    ///
    /// A leaf read while `best_dist` is still infinite (the first of a
    /// query) is scored exactly, every entry — there is nothing to compare
    /// a bound with. From then on, where the group has a rounded-down `f32`
    /// bound ([`LeafBound`]: SUM on the AVX2 tier), `filter_leaf` lets it
    /// pick the entries that pay for an exact distance; what it drops is
    /// exactly what [`KBestList::offer`] would have refused, so neighbors,
    /// distance bits and page reads are those of the all-exact loop, which
    /// every other aggregate and tier still runs.
    ///
    /// Heuristic 3 is applied only where H2 fails and, above `LAZY_MIN`,
    /// only where the heap gets there: a SUM group of at least `LAZY_MIN`
    /// points parks each child that passes H2 in `pending` under
    /// `max(cheap, centroid key)` ([`CentroidBound`]), and a
    /// child pays its `n`-term tight key only when that key reaches the top
    /// of the node heap. Every other group keys children eagerly, as
    /// before.
    ///
    /// Returns the exact distance evaluations performed and the leaf
    /// entries the `f32` bound dropped.
    fn bounded_top_k(
        &self,
        cursor: &TreeCursor<'_>,
        group: &QueryGroup,
        best: &mut KBestList,
        s: &mut MbmScratch,
    ) -> (u64, u64) {
        let mut evals = 0u64;
        let mut dropped = 0u64;
        // Taken out for the query, so the bound may borrow it while the
        // loop works on the rest of the scratch.
        let mut leaf_weights = std::mem::take(&mut s.leaf_weights);
        // The group's rounded-down SUM bounds, where it has them: the `f32`
        // leaf filter on the AVX2 tier, the centroid key from `LAZY_MIN`.
        let sum = group.sum_arrays();
        let filter = sum.and_then(|(qx, qy, w)| {
            LeafBound::new(BatchKernels::auto(), qx, qy, w, &mut leaf_weights)
        });
        let lazy = match sum {
            Some((qx, qy, w)) if self.use_h3 && group.len() >= LAZY_MIN => {
                CentroidBound::new(qx, qy, w, group.total_weight(), &group.mbr())
            }
            _ => None,
        };
        s.nodes.clear();
        s.pending.clear();
        s.slots.clear();
        if !cursor.is_empty() {
            // The root must always be expanded.
            s.nodes.push(Reverse((OrderedF64(0.0), cursor.root())));
        }
        // Why lazy keying reads the same pages in the same order as eager
        // keying, ties included. (i) Every pending key is `<=` the key the
        // child resolves to: `cheap` exactly, the centroid bound by Jensen
        // plus its rounding margin (`debug_assert`ed at each resolve).
        // (ii) A `nodes` entry is popped only once every pending key is
        // strictly above it — `resolve_pending` runs until then — so every
        // unresolved child's resolved key is strictly above it too, and
        // `nodes` pops in the eager loop's `(key, PageId)` order;
        // `best.bound()` moves only at leaves, so it evolves identically.
        // (iii) Eager keying pushes a child whose tight key is below the
        // bound at push time; the lazy loop drops it if that key is no
        // longer below the bound when the child resolves. The bound only
        // falls, and every node popped before that resolve was keyed below
        // the child, so the eager loop would meet the child no earlier and
        // stop at it: neither loop reads it.
        loop {
            evals += s.resolve_pending(group, best.bound());
            let Some(Reverse((key, id))) = s.nodes.pop() else {
                break;
            };
            if key.get() >= best.bound() {
                break; // every pending node is at least this far
            }
            match cursor.read(id) {
                PageRef::Internal(view) => {
                    evals += match &lazy {
                        Some(centroid) => s.defer_children(&view, group, centroid, best.bound()),
                        None => s.push_children(&view, group, self.use_h3, best.bound()),
                    };
                }
                PageRef::Leaf(leaf) => match &filter {
                    Some(bound) if best.bound() < f64::INFINITY => {
                        let kept = filter_leaf(&leaf, group, bound, &mut s.dists, best);
                        evals += kept * group.len() as u64;
                        dropped += leaf.len() as u64 - kept;
                    }
                    _ => {
                        evals += score_leaf(&leaf, group, &mut s.dists);
                        for (e, &dist) in leaf.entries().iter().zip(&s.dists) {
                            best.offer(Neighbor {
                                id: e.id,
                                point: e.point,
                                dist,
                            });
                        }
                    }
                },
            }
        }
        s.leaf_weights = leaf_weights;
        (evals, dropped)
    }

    /// Opens the incremental best-first stream (always uses heuristic-3
    /// bounds when this `Mbm` does).
    pub fn stream<'t, 'c, 'g>(
        &self,
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
    ) -> MbmStream<'t, 'c, 'g, 'static> {
        MbmStream::with_heuristics(cursor, group, self.use_h3)
    }

    /// Figure 3.7's depth-first recursion. Per-level sort buffers come from
    /// the scratch pool, so the recursion allocates nothing in steady state.
    #[allow(clippy::too_many_arguments)]
    fn df_visit(
        &self,
        cursor: &TreeCursor<'_>,
        id: PageId,
        group: &QueryGroup,
        best: &mut KBestList,
        dist_computations: &mut u64,
        pool: &mut Vec<Vec<(f64, u32)>>,
        depth: usize,
    ) {
        if pool.len() <= depth {
            pool.resize_with(depth + 1, Vec::new);
        }
        let mut order = std::mem::take(&mut pool[depth]);
        order.clear();
        match cursor.read(id) {
            PageRef::Internal(view) => {
                // Children sorted by mindist² to M (same order as mindist).
                let m = group.mbr();
                order.extend((0..view.len()).map(|i| (view.mbr(i).mindist_rect_sq(&m), i as u32)));
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                for &(d2, i) in &order {
                    if self.use_h2 && group.cheap_bound_from_sq(d2) >= best.bound() {
                        break; // sorted by the same metric: the rest fail too
                    }
                    if self.use_h3 {
                        *dist_computations += group.len() as u64;
                        if group.tight_bound_rect(&view.mbr(i as usize)) >= best.bound() {
                            continue;
                        }
                    }
                    self.df_visit(
                        cursor,
                        view.child(i as usize),
                        group,
                        best,
                        dist_computations,
                        pool,
                        depth + 1,
                    );
                }
            }
            PageRef::Leaf(es) => {
                let m = group.mbr();
                order.extend(
                    es.entries()
                        .iter()
                        .enumerate()
                        .map(|(i, e)| (m.mindist_point_sq(e.point), i as u32)),
                );
                *dist_computations += es.len() as u64;
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                for &(d2, i) in &order {
                    if group.cheap_bound_from_sq(d2) >= best.bound() {
                        break;
                    }
                    let e = es.entries()[i as usize];
                    let dist = group.dist(e.point);
                    *dist_computations += group.len() as u64;
                    best.offer(Neighbor {
                        id: e.id,
                        point: e.point,
                        dist,
                    });
                }
            }
        }
        pool[depth] = order;
    }
}

impl MemoryGnnAlgorithm for Mbm {
    fn name(&self) -> &'static str {
        "MBM"
    }

    fn supports(&self, _aggregate: Aggregate, _weighted: bool) -> bool {
        true
    }

    fn k_gnn_in<'s>(
        &self,
        cursor: &TreeCursor<'_>,
        group: &QueryGroup,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Neighbor], QueryStats) {
        assert!(
            self.use_h2 || self.use_h3,
            "MBM needs at least one pruning heuristic enabled"
        );
        let t0 = Instant::now();
        let before = cursor.stats();
        let QueryScratch {
            best,
            out,
            mbm,
            df_pool,
            ..
        } = scratch;
        best.reset(k);
        let mut dist_computations = 0u64;
        let mut lower_bound_pruned = 0u64;

        match self.traversal {
            Traversal::BestFirst if cursor.is_packed() => {
                (dist_computations, lower_bound_pruned) =
                    self.bounded_top_k(cursor, group, best, mbm);
            }
            Traversal::BestFirst => {
                // Arena reference: the stream ascends, so its first k items
                // are exactly the k-GNN; pulling a (k+1)-th would only waste
                // node accesses.
                let mut stream = MbmStream::with_heuristics_in(cursor, group, self.use_h3, mbm);
                while best.len() < k {
                    let Some(n) = stream.next() else { break };
                    best.offer(n);
                }
                dist_computations += stream.dist_computations();
            }
            Traversal::DepthFirst => {
                if !cursor.is_empty() {
                    self.df_visit(
                        cursor,
                        cursor.root(),
                        group,
                        best,
                        &mut dist_computations,
                        df_pool,
                        0,
                    );
                }
            }
        }

        let stats = QueryStats {
            data_tree: cursor.stats().since(before),
            dist_computations,
            lower_bound_pruned,
            elapsed: t0.elapsed(),
            ..QueryStats::default()
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }
}

/// Keys every child of a packed internal page into `keys` (cleared and
/// refilled): batched `mindist²(N, M)` over the whole page, then — for the
/// children that pass heuristic 2 against `bound`, when `use_tight` — the
/// tight bound through the fused SoA kernel (footnote 3: H3 only where H2
/// fails to prune). A child at or beyond `bound` keeps its cheap key, which
/// is already enough to discard it. Returns the distance evaluations
/// performed.
fn score_branches(
    view: &BranchesRef<'_>,
    group: &QueryGroup,
    use_tight: bool,
    bound: f64,
    keys: &mut Vec<f64>,
) -> u64 {
    view.mindist_sq_rect_into(&group.mbr(), keys);
    let mut evals = view.len() as u64;
    for (i, key) in keys.iter_mut().enumerate() {
        let cheap = group.cheap_bound_from_sq(*key);
        *key = if use_tight && cheap < bound {
            evals += group.len() as u64;
            cheap.max(group.tight_bound_rect(&view.mbr(i)))
        } else {
            cheap
        };
    }
    evals
}

/// Exact aggregate distances of a whole packed leaf into `dists` (cleared
/// and refilled): one fused kernel call straight over the page's own
/// lane-padded coordinates. Returns the distance evaluations performed.
fn score_leaf(leaf: &LeafRef<'_>, group: &QueryGroup, dists: &mut Vec<f64>) -> u64 {
    let (xs, ys) = leaf
        .coords()
        .expect("pages of a packed cursor carry their SoA coordinates");
    group.dist_many_padded(xs, ys, leaf.len(), dists);
    (leaf.len() * group.len()) as u64
}

/// Filter, then verify: scores a packed SUM leaf against a finite
/// `best_dist`. One `f32` kernel call over the page's own lane-padded
/// coordinates leaves a lower bound on every entry's `dist(p, Q)` in
/// `lower`; an entry whose bound already reaches `best.bound()` is dropped
/// unseen, the others — a non-finite bound (overflowed `f32`, NaN data)
/// rules nothing out — pay the exact [`QueryGroup::dist`] and are offered in
/// entry order. `offer` refuses `dist >= bound`, so nothing dropped here
/// could have entered `best`. Returns how many entries were scored exactly.
fn filter_leaf(
    leaf: &LeafRef<'_>,
    group: &QueryGroup,
    bound: &LeafBound<'_>,
    lower: &mut Vec<f64>,
    best: &mut KBestList,
) -> u64 {
    let (xs, ys) = leaf
        .coords()
        .expect("pages of a packed cursor carry their SoA coordinates");
    bound.lower_padded(xs, ys, leaf.len(), lower);
    let mut kept = 0u64;
    for (e, &at_least) in leaf.entries().iter().zip(&*lower) {
        if at_least.is_finite() && at_least >= best.bound() {
            // Debug builds re-score every dropped entry: the whole suite
            // doubles as the bound's soundness test.
            debug_assert!(
                group.dist(e.point) >= best.bound(),
                "f32 bound {at_least:e} dropped {e:?} under best_dist {:e}",
                best.bound()
            );
            continue;
        }
        kept += 1;
        best.offer(Neighbor {
            id: e.id,
            point: e.point,
            dist: group.dist(e.point),
        });
    }
    kept
}

/// Heap element of the incremental stream. Every key is a lower bound on the
/// aggregate distance of whatever the element may still produce, so popping
/// in key order yields neighbors in exact ascending order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StreamItem {
    key: OrderedF64,
    /// Exact points pop before approximations and nodes on ties, surfacing
    /// results as early as possible.
    kind: StreamKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StreamKind {
    Node(PageId),
    /// Reference (arena) engine only: a data point keyed by its cheap bound;
    /// its exact distance is computed lazily if and when it reaches the top
    /// (the paper's `mindist(p, M)` filter: points pruned before that never
    /// pay the `n`-distance computation).
    PointApprox(LeafEntry),
    /// A data point keyed by its exact aggregate distance.
    PointExact(LeafEntry),
}

impl Eq for StreamItem {}
impl PartialOrd for StreamItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for StreamItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(k: &StreamKind) -> (u8, u64) {
            match k {
                StreamKind::PointExact(e) => (0, e.id.0),
                StreamKind::PointApprox(e) => (1, e.id.0),
                StreamKind::Node(p) => (2, u64::from(p.raw())),
            }
        }
        self.key
            .cmp(&other.key)
            .then_with(|| rank(&self.kind).cmp(&rank(&other.kind)))
    }
}

/// Reusable storage of the MBM drivers: the bounded loop's node heap, the
/// incremental stream's priority queue and distance-computation counter
/// (which must survive suspend/resume cycles — F-MQM serves its group
/// streams round-robin through [`MbmStream::resume_in`]), the two
/// page-scoring buffers both drivers share, and the bounded loop's `f32`
/// weights.
#[derive(Debug, Default)]
pub struct MbmScratch {
    /// Bounded top-k: pending nodes by `(key, page id)` — the order nodes
    /// leave the stream's heap in, too.
    nodes: BinaryHeap<Reverse<(OrderedF64, PageId)>>,
    /// Bounded top-k, lazy keying: children waiting for their tight key,
    /// by `(max(cheap, centroid key), slot in slots)`.
    pending: BinaryHeap<Reverse<(OrderedF64, u32)>>,
    /// What a pending child resolves from: its MBR, page and cheap key.
    slots: Vec<(Rect, PageId, f64)>,
    heap: BinaryHeap<Reverse<StreamItem>>,
    /// Child keys of the internal page being scored.
    keys: Vec<f64>,
    /// Lazy keying: `mindist²` of the page's children to the centroid.
    centroid_keys: Vec<f64>,
    /// Exact distances of the leaf being scored — or, where the bounded
    /// loop filters first, the `f32` lower bounds on them.
    dists: Vec<f64>,
    /// Bounded top-k: the [`LeafBound`]'s narrowed weights, refilled per
    /// query (empty where there is none).
    leaf_weights: Vec<f32>,
    dist_computations: u64,
}

impl MbmScratch {
    /// Scratch pre-sized for a heap of `capacity` pending items.
    pub fn with_capacity(capacity: usize) -> Self {
        MbmScratch {
            nodes: BinaryHeap::with_capacity(capacity),
            pending: BinaryHeap::new(),
            slots: Vec::new(),
            heap: BinaryHeap::with_capacity(capacity),
            keys: Vec::with_capacity(64),
            centroid_keys: Vec::new(),
            dists: Vec::with_capacity(64),
            leaf_weights: Vec::new(),
            dist_computations: 0,
        }
    }

    /// Every internal buffer capacity (for the no-regrowth tests — any
    /// buffer omitted here could silently reintroduce steady-state
    /// allocations). Public so scratches that embed an `MbmScratch` (e.g.
    /// `gnn-network`'s) can fold it into their own profiles.
    pub fn capacity_profile(&self) -> impl Iterator<Item = usize> + '_ {
        [
            self.nodes.capacity(),
            self.pending.capacity(),
            self.slots.capacity(),
            self.heap.capacity(),
            self.keys.capacity(),
            self.centroid_keys.capacity(),
            self.dists.capacity(),
            self.leaf_weights.capacity(),
        ]
        .into_iter()
    }

    /// Point-distance evaluations performed by the stream backed by this
    /// scratch since it was last (re)seeded.
    pub fn dist_computations(&self) -> u64 {
        self.dist_computations
    }

    /// The bounded loop's internal-page step: scores the page and pushes the
    /// children whose key is below `bound` (a child *at* `bound` cannot hold
    /// a strictly better neighbor). Returns the distance evaluations.
    fn push_children(
        &mut self,
        view: &BranchesRef<'_>,
        group: &QueryGroup,
        use_tight: bool,
        bound: f64,
    ) -> u64 {
        let evals = score_branches(view, group, use_tight, bound, &mut self.keys);
        for (i, &key) in self.keys.iter().enumerate() {
            if key < bound {
                self.nodes.push(Reverse((OrderedF64(key), view.child(i))));
            }
        }
        evals
    }

    /// [`MbmScratch::push_children`] under lazy keying: scores the page
    /// with H2 and one batched `mindist²` to the centroid, and parks in
    /// `pending` every child whose `max(cheap, centroid key)` is below
    /// `bound` — no tight key yet. Returns the distance evaluations.
    fn defer_children(
        &mut self,
        view: &BranchesRef<'_>,
        group: &QueryGroup,
        centroid: &CentroidBound,
        bound: f64,
    ) -> u64 {
        view.mindist_sq_rect_into(&group.mbr(), &mut self.keys);
        view.mindist_sq_point_into(centroid.centre(), &mut self.centroid_keys);
        for (i, (&m_sq, &c_sq)) in self.keys.iter().zip(&self.centroid_keys).enumerate() {
            let cheap = group.cheap_bound_from_sq(m_sq);
            let key = cheap.max(centroid.key_from_sq(c_sq));
            if key < bound {
                self.pending
                    .push(Reverse((OrderedF64(key), self.slots.len() as u32)));
                self.slots.push((view.mbr(i), view.child(i), cheap));
            }
        }
        2 * view.len() as u64
    }

    /// Resolves pending children while their key is `<=` the top of
    /// `nodes` (or `nodes` is empty) and below `bound`: each pays
    /// `cheap.max(tight)` — exactly the eager key — and enters `nodes` if
    /// that is below `bound`, or is dropped. One `peek` when nothing is
    /// pending. Returns the distance evaluations.
    #[inline]
    fn resolve_pending(&mut self, group: &QueryGroup, bound: f64) -> u64 {
        let mut evals = 0;
        while let Some(&Reverse((pending_key, slot))) = self.pending.peek() {
            if matches!(self.nodes.peek(), Some(&Reverse((top, _))) if pending_key > top)
                || pending_key.get() >= bound
            {
                break;
            }
            self.pending.pop();
            let (rect, child, cheap) = self.slots[slot as usize];
            let key = cheap.max(group.tight_bound_rect(&rect));
            debug_assert!(
                key >= pending_key.get(),
                "pending key {:e} above resolved key {key:e} for {rect:?}",
                pending_key.get()
            );
            evals += group.len() as u64;
            if key < bound {
                self.nodes.push(Reverse((OrderedF64(key), child)));
            }
        }
        evals
    }

    /// Queues a stream item.
    fn push(&mut self, key: f64, kind: StreamKind) {
        self.heap.push(Reverse(StreamItem {
            key: OrderedF64(key),
            kind,
        }));
    }

    fn reset(&mut self) {
        self.heap.clear();
        self.dist_computations = 0;
    }
}

/// Incremental best-first MBM: yields group nearest neighbors in ascending
/// aggregate distance, reading R-tree nodes lazily.
pub struct MbmStream<'t, 'c, 'g, 's> {
    cursor: &'c TreeCursor<'t>,
    group: &'g QueryGroup,
    use_tight: bool,
    scratch: ScratchRef<'s, MbmScratch>,
}

impl<'t, 'c, 'g, 's> MbmStream<'t, 'c, 'g, 's> {
    /// Opens a stream with heuristic-3 (tight) node bounds and its own
    /// (pre-sized) storage.
    pub fn new(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
    ) -> MbmStream<'t, 'c, 'g, 'static> {
        Self::with_heuristics(cursor, group, true)
    }

    /// Opens a stream choosing between tight (H3) and cheap (H2-only) node
    /// bounds, with its own (pre-sized) storage.
    pub fn with_heuristics(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        use_tight: bool,
    ) -> MbmStream<'t, 'c, 'g, 'static> {
        MbmStream::<'t, 'c, 'g, 'static>::open(
            cursor,
            group,
            use_tight,
            ScratchRef::Owned(Box::new(MbmScratch::with_capacity(STREAM_HEAP_CAPACITY))),
        )
    }

    /// Opens a stream reusing `scratch` (cleared and re-seeded first).
    pub fn new_in(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        scratch: &'s mut MbmScratch,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        Self::with_heuristics_in(cursor, group, true, scratch)
    }

    /// Opens a stream with explicit heuristics, reusing `scratch`.
    pub fn with_heuristics_in(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        use_tight: bool,
        scratch: &'s mut MbmScratch,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        Self::open(cursor, group, use_tight, ScratchRef::Borrowed(scratch))
    }

    /// Re-attaches to a suspended stream whose state lives in `scratch`
    /// (seeded earlier by [`MbmStream::new_in`]): nothing is cleared, the
    /// stream continues exactly where it stopped. This is how F-MQM serves
    /// many group streams round-robin without keeping borrow-holding stream
    /// objects alive.
    pub fn resume_in(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        use_tight: bool,
        scratch: &'s mut MbmScratch,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        MbmStream {
            cursor,
            group,
            use_tight,
            scratch: ScratchRef::Borrowed(scratch),
        }
    }

    fn open(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        use_tight: bool,
        mut scratch: ScratchRef<'s, MbmScratch>,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        let s = scratch.get();
        s.reset();
        if !cursor.is_empty() {
            // The root must always be expanded.
            s.push(0.0, StreamKind::Node(cursor.root()));
        }
        MbmStream {
            cursor,
            group,
            use_tight,
            scratch,
        }
    }

    /// Point-distance evaluations performed so far (CPU proxy).
    pub fn dist_computations(&self) -> u64 {
        self.scratch.peek().dist_computations
    }

    /// Lower bound on the aggregate distance of every not-yet-yielded data
    /// point (`None` when the stream is exhausted).
    pub fn peek_bound(&self) -> Option<f64> {
        self.scratch
            .peek()
            .heap
            .peek()
            .map(|Reverse(i)| i.key.get())
    }
}

impl Iterator for MbmStream<'_, '_, '_, '_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        let group = self.group;
        let cursor = self.cursor;
        let use_tight = self.use_tight;
        // Packed pages go through the two shared scoring steps; arena pages
        // keep the seed's reference mechanics. Neither steers node
        // expansion — a node is read iff its own key beats the k-th result
        // distance — so node accesses are identical on both backends.
        let packed = cursor.is_packed();
        let s = self.scratch.get();
        while let Some(Reverse(item)) = s.heap.pop() {
            match item.kind {
                StreamKind::PointExact(e) => {
                    return Some(Neighbor {
                        id: e.id,
                        point: e.point,
                        dist: item.key.get(),
                    });
                }
                StreamKind::PointApprox(e) => {
                    let dist = group.dist(e.point);
                    s.dist_computations += group.len() as u64;
                    s.push(dist, StreamKind::PointExact(e));
                }
                StreamKind::Node(id) => match cursor.read(id) {
                    PageRef::Leaf(leaf) if packed => {
                        // `k` is unknown, so every scored point is kept.
                        s.dist_computations += score_leaf(&leaf, group, &mut s.dists);
                        for (i, &e) in leaf.entries().iter().enumerate() {
                            s.push(s.dists[i], StreamKind::PointExact(e));
                        }
                    }
                    PageRef::Leaf(leaf) => {
                        // Reference (arena) engine: the seed's flow — one
                        // `mindist(p, M)` filter key per entry, pushed
                        // individually.
                        for &e in leaf.entries() {
                            s.dist_computations += 1;
                            s.push(group.cheap_bound_point(e.point), StreamKind::PointApprox(e));
                        }
                    }
                    PageRef::Internal(view) if packed => {
                        // No `best_dist` to prune with: every child is kept.
                        s.dist_computations +=
                            score_branches(&view, group, use_tight, f64::INFINITY, &mut s.keys);
                        for i in 0..view.len() {
                            s.push(s.keys[i], StreamKind::Node(view.child(i)));
                        }
                    }
                    PageRef::Internal(view) => {
                        // Reference engine: the seed's scalar per-branch
                        // bounds.
                        for (mbr, child) in view.iter() {
                            let cheap = group.cheap_bound_rect(&mbr);
                            s.dist_computations += 1;
                            let key = if use_tight {
                                s.dist_computations += group.len() as u64;
                                cheap.max(group.tight_bound_rect_reference(&mbr))
                            } else {
                                cheap
                            };
                            s.push(key, StreamKind::Node(child));
                        }
                    }
                },
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::linear_scan_entries;
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> RTree {
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

    fn random_group(n: usize, seed: u64, agg: Aggregate) -> QueryGroup {
        let mut rng = StdRng::seed_from_u64(seed);
        QueryGroup::with_aggregate(
            (0..n)
                .map(|_| {
                    Point::new(
                        10.0 + rng.gen::<f64>() * 40.0,
                        10.0 + rng.gen::<f64>() * 40.0,
                    )
                })
                .collect(),
            agg,
        )
        .unwrap()
    }

    #[test]
    fn all_variants_match_oracle() {
        let tree = random_tree(700, 1);
        let packed = tree.freeze();
        let cursors = [TreeCursor::unbuffered(&tree), TreeCursor::packed(&packed)];
        let variants = [
            Mbm::best_first(),
            Mbm::depth_first(),
            Mbm {
                traversal: Traversal::BestFirst,
                use_h2: true,
                use_h3: false,
            },
            Mbm {
                traversal: Traversal::DepthFirst,
                use_h2: true,
                use_h3: false,
            },
            Mbm {
                traversal: Traversal::DepthFirst,
                use_h2: false,
                use_h3: true,
            },
        ];
        for seed in 0..6 {
            for &k in &[1usize, 8] {
                let group = random_group(6, seed, Aggregate::Sum);
                let want = linear_scan_entries(tree.iter(), &group, k);
                for mbm in variants {
                    for cursor in &cursors {
                        let got = mbm.k_gnn(cursor, &group, k);
                        assert_eq!(
                            got.distances(),
                            want.distances(),
                            "{mbm:?} seed={seed} k={k} packed={}",
                            cursor.is_packed()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let tree = random_tree(600, 9);
        let cursor = TreeCursor::unbuffered(&tree);
        let mut scratch = QueryScratch::new();
        for seed in 0..8 {
            let group = random_group(5, 60 + seed, Aggregate::Sum);
            let want = linear_scan_entries(tree.iter(), &group, 4);
            let (neighbors, _) = Mbm::best_first().k_gnn_in(&cursor, &group, 4, &mut scratch);
            let got: Vec<f64> = neighbors.iter().map(|n| n.dist).collect();
            assert_eq!(got, want.distances(), "seed={seed}");
        }
    }

    #[test]
    fn packed_backend_identical_results_and_accesses() {
        let tree = random_tree(900, 10);
        let packed = tree.freeze();
        let ac = TreeCursor::unbuffered(&tree);
        let pc = TreeCursor::packed(&packed);
        for seed in 0..5 {
            let group = random_group(6, 80 + seed, Aggregate::Sum);
            let a = Mbm::best_first().k_gnn(&ac, &group, 5);
            let p = Mbm::best_first().k_gnn(&pc, &group, 5);
            assert_eq!(a.distances(), p.distances(), "seed={seed}");
            assert_eq!(
                a.stats.data_tree.logical, p.stats.data_tree.logical,
                "node accesses diverged (seed={seed})"
            );
        }
    }

    #[test]
    fn max_and_min_aggregates_match_oracle() {
        let tree = random_tree(500, 2);
        let packed = tree.freeze();
        for cursor in [TreeCursor::unbuffered(&tree), TreeCursor::packed(&packed)] {
            for agg in [Aggregate::Max, Aggregate::Min] {
                for seed in 0..5 {
                    let group = random_group(5, 50 + seed, agg);
                    let want = linear_scan_entries(tree.iter(), &group, 4);
                    for mbm in [Mbm::best_first(), Mbm::depth_first()] {
                        let got = mbm.k_gnn(&cursor, &group, 4);
                        for (a, b) in got.distances().iter().zip(want.distances()) {
                            assert!((a - b).abs() < 1e-9, "{agg} seed={seed}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stream_yields_ascending_and_complete() {
        let tree = random_tree(300, 3);
        let packed = tree.freeze();
        let group = random_group(4, 9, Aggregate::Sum);
        for cursor in [TreeCursor::unbuffered(&tree), TreeCursor::packed(&packed)] {
            let all: Vec<Neighbor> = MbmStream::new(&cursor, &group).collect();
            assert_eq!(all.len(), 300);
            for w in all.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
            // Exact distances, whichever engine scored the page.
            for n in &all {
                assert_eq!(n.dist, group.dist(n.point));
            }
        }
    }

    #[test]
    fn stream_prefix_equals_k_gnn() {
        let tree = random_tree(400, 4);
        let cursor = TreeCursor::unbuffered(&tree);
        let group = random_group(8, 10, Aggregate::Sum);
        let by_stream: Vec<f64> = MbmStream::new(&cursor, &group)
            .take(6)
            .map(|n| n.dist)
            .collect();
        let by_query = Mbm::best_first().k_gnn(&cursor, &group, 6);
        assert_eq!(by_stream, by_query.distances());
    }

    #[test]
    fn suspended_stream_resumes_where_it_stopped() {
        let tree = random_tree(400, 12);
        let packed = tree.freeze();
        let group = random_group(4, 13, Aggregate::Sum);
        for cursor in [TreeCursor::unbuffered(&tree), TreeCursor::packed(&packed)] {
            let want: Vec<f64> = MbmStream::new(&cursor, &group)
                .take(10)
                .map(|n| n.dist)
                .collect();
            let mut scratch = MbmScratch::default();
            let mut got = Vec::new();
            {
                let mut s = MbmStream::new_in(&cursor, &group, &mut scratch);
                got.extend(s.by_ref().take(4).map(|n| n.dist));
            }
            for _ in 0..6 {
                let mut s = MbmStream::resume_in(&cursor, &group, true, &mut scratch);
                got.push(s.next().unwrap().dist);
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn peek_bound_is_valid() {
        let tree = random_tree(200, 5);
        let cursor = TreeCursor::unbuffered(&tree);
        let group = random_group(3, 11, Aggregate::Sum);
        let mut stream = MbmStream::new(&cursor, &group);
        while let Some(bound) = stream.peek_bound() {
            let Some(n) = stream.next() else { break };
            assert!(
                n.dist >= bound - 1e-9,
                "yielded {} below bound {bound}",
                n.dist
            );
        }
    }

    #[test]
    fn weighted_sum_matches_oracle() {
        let tree = random_tree(300, 6);
        let packed = tree.freeze();
        let mut rng = StdRng::seed_from_u64(13);
        let pts: Vec<Point> = (0..5)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let w: Vec<f64> = (0..5).map(|_| 0.1 + rng.gen::<f64>() * 2.0).collect();
        let group = QueryGroup::weighted_sum(pts, w).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, 3);
        for cursor in [TreeCursor::unbuffered(&tree), TreeCursor::packed(&packed)] {
            let got = Mbm::best_first().k_gnn(&cursor, &group, 3);
            for (a, b) in got.distances().iter().zip(want.distances()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Two leaves under one root, one query point at the origin: leaf A
    /// holds distances {1, √13, 5}, leaf B's MBR starts at distance exactly
    /// 5 (and holds a point there).
    fn tie_tree() -> RTree {
        let pts = [
            (1.0, 0.0),
            (2.0, 3.0),
            (3.0, 4.0),
            (5.0, 0.0),
            (6.0, 0.0),
            (7.0, 1.0),
        ];
        RTree::bulk_load(
            RTreeParams::with_capacity(4),
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| LeafEntry::new(PointId(i as u64), Point::new(x, y))),
        )
    }

    #[test]
    fn child_at_best_dist_is_neither_pushed_nor_read() {
        let packed = tie_tree().freeze();
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0)]).unwrap();
        let probe = TreeCursor::packed(&packed);
        let PageRef::Internal(root) = probe.read(probe.root()) else {
            panic!("scenario needs an internal root");
        };
        let mut keys = Vec::new();
        score_branches(&root, &group, true, f64::INFINITY, &mut keys);
        assert_eq!(keys, [1.0, 5.0], "scenario: child keys");

        // Pop time: after leaf A the 3-best bound is exactly 5 == key(B), so
        // B is never read — and the tying point inside it is not needed.
        let cursor = TreeCursor::packed(&packed);
        let got = Mbm::best_first().k_gnn(&cursor, &group, 3);
        assert_eq!(got.distances(), [1.0, 13f64.sqrt(), 5.0]);
        assert_eq!(got.neighbors[2].id, PointId(2));
        assert_eq!(cursor.stats().logical, 2, "root + leaf A only");

        // Push time: at bound == key(B) only A is queued, and B — failing
        // heuristic 2 — does not even pay for its tight bound; one ulp above,
        // both are queued and both pay.
        let pending = |bound: f64| {
            let mut s = MbmScratch::default();
            let evals = s.push_children(&root, &group, true, bound);
            let mut keys: Vec<f64> = s.nodes.drain().map(|Reverse((k, _))| k.get()).collect();
            keys.sort_by(f64::total_cmp);
            (keys, evals)
        };
        assert_eq!(pending(5.0), (vec![1.0], 2 + 1));
        assert_eq!(
            pending(f64::from_bits(5f64.to_bits() + 1)),
            (vec![1.0, 5.0], 2 + 2)
        );
    }

    /// The centroid key the bounded loop keys a SUM group's children with.
    fn centroid_of(group: &QueryGroup) -> CentroidBound {
        let (qx, qy, w) = group.sum_arrays().unwrap();
        CentroidBound::new(qx, qy, w, group.total_weight(), &group.mbr()).unwrap()
    }

    /// `LAZY_MIN` (even) members, half at `(0, -h)`, half at `(0, h)`:
    /// centroid the origin, `M` the segment between them. Every key below
    /// is an integer multiple of `LAZY_MIN`, so every sum is exact.
    fn split_group(h: f64) -> QueryGroup {
        let mut pts = vec![Point::new(0.0, -h); LAZY_MIN / 2];
        pts.resize(LAZY_MIN, Point::new(0.0, h));
        QueryGroup::sum(pts).unwrap()
    }

    fn tree_of(pts: &[(f64, f64)]) -> RTree {
        RTree::bulk_load(
            RTreeParams::with_capacity(4),
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| LeafEntry::new(PointId(i as u64), Point::new(x, y))),
        )
    }

    #[test]
    fn lazy_child_at_best_dist_is_resolved_and_dropped_not_read() {
        // The lazy twin of `child_at_best_dist_is_neither_pushed_nor_read`,
        // with m = LAZY_MIN members at (0, ±3). Leaf A = {(0,0), (0,1),
        // (-4,0)} at distances 3m, 3m, 5m. Leaf B = {(4,0), (5,0),
        // (4.5,0)} is a segment: its H2 key 4m and centroid key (just under
        // 4m) are below 5m, its tight key is exactly 5m.
        let packed = tree_of(&[
            (0.0, 0.0),
            (0.0, 1.0),
            (-4.0, 0.0),
            (4.0, 0.0),
            (5.0, 0.0),
            (4.5, 0.0),
        ])
        .freeze();
        let group = split_group(3.0);
        let m = LAZY_MIN as f64;
        let probe = TreeCursor::packed(&packed);
        let PageRef::Internal(root) = probe.read(probe.root()) else {
            panic!("scenario needs an internal root");
        };
        let mut keys = Vec::new();
        score_branches(&root, &group, true, f64::INFINITY, &mut keys);
        assert_eq!(keys, [2.5 * m, 5.0 * m], "scenario: eager child keys");
        let mut s = MbmScratch::default();
        let centroid = centroid_of(&group);
        assert_eq!(
            s.defer_children(&root, &group, &centroid, f64::INFINITY),
            2 * 2
        );
        let mut pending: Vec<f64> = s.pending.iter().map(|Reverse((k, _))| k.get()).collect();
        pending.sort_by(f64::total_cmp);
        assert_eq!(pending, [0.0, 4.0 * m], "scenario: pending keys");

        // After A the 3-best bound is 5m: B's pending key 4m is below it,
        // so B resolves — one tight key — to 5m and is dropped unread.
        let cursor = TreeCursor::packed(&packed);
        let got = Mbm::best_first().k_gnn(&cursor, &group, 3);
        assert_eq!(got.distances(), [3.0 * m, 3.0 * m, 5.0 * m]);
        assert_eq!(
            got.neighbors[2].id,
            PointId(2),
            "the tie inside B is not needed"
        );
        assert_eq!(cursor.stats().logical, 2, "root + leaf A only");
        // Root: two H2 and two centroid keys; A and B: one tight key each;
        // leaf A: three exact distances.
        let n = LAZY_MIN as u64;
        assert_eq!(got.stats.dist_computations, 4 + 2 * n + 3 * n);
    }

    #[test]
    fn pending_key_tied_with_a_resolved_key_keeps_the_eager_order() {
        // m = LAZY_MIN members at (0, ±6). Y = [-11,-10]×[-6,6] waits under
        // its H2 key 10m and resolves to exactly that; X = [-9,-8]×{0}
        // waits under 8m and resolves to 10m too. So Y's *pending* key
        // equals X's *resolved* key, and the eager loop pops Y first (same
        // key, lower page id): Y must be resolved before X is popped, not
        // after.
        let packed = tree_of(&[
            (-11.0, -6.0),
            (-10.0, 6.0),
            (-10.5, 0.0),
            (-9.0, 0.0),
            (-8.0, 0.0),
            (-8.5, 0.0),
        ])
        .freeze();
        let group = split_group(6.0);
        let m = LAZY_MIN as f64;
        let cursor = TreeCursor::packed(&packed);
        let PageRef::Internal(root) = cursor.read(cursor.root()) else {
            panic!("scenario needs an internal root");
        };
        let (y, x) = (root.child(0), root.child(1));
        assert!(y < x, "scenario: Y has the lower page id");
        assert_eq!(root.mbr(0), Rect::from_corners(-11.0, -6.0, -10.0, 6.0));
        assert_eq!(root.mbr(1), Rect::from_corners(-9.0, 0.0, -8.0, 0.0));

        let pop_order = |lazy: bool| {
            let mut s = MbmScratch::default();
            if lazy {
                let centroid = centroid_of(&group);
                s.defer_children(&root, &group, &centroid, f64::INFINITY);
                let mut pending: Vec<f64> =
                    s.pending.iter().map(|Reverse((k, _))| k.get()).collect();
                pending.sort_by(f64::total_cmp);
                assert_eq!(pending, [8.0 * m, 10.0 * m], "scenario: pending keys");
            } else {
                s.push_children(&root, &group, true, f64::INFINITY);
            }
            let mut order = Vec::new();
            loop {
                s.resolve_pending(&group, f64::INFINITY);
                let Some(Reverse((key, id))) = s.nodes.pop() else {
                    break;
                };
                order.push((key.get(), id));
            }
            order
        };
        assert_eq!(pop_order(false), [(10.0 * m, y), (10.0 * m, x)]);
        assert_eq!(pop_order(true), pop_order(false));

        // And through the whole loop: the stream pops the same way.
        for k in [1, 2, 4] {
            let bc = TreeCursor::packed(&packed);
            let bounded = Mbm::best_first().k_gnn(&bc, &group, k);
            let sc = TreeCursor::packed(&packed);
            let streamed: Vec<Neighbor> = MbmStream::new(&sc, &group).take(k).collect();
            assert_eq!(bounded.neighbors, streamed, "k={k}");
            assert_eq!(bc.stats(), sc.stats(), "k={k}: node accesses");
        }
    }

    #[test]
    fn bounded_loop_reads_the_pages_the_stream_reads() {
        let tree = random_tree(3000, 21);
        let packed = tree.freeze();
        for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            for (seed, k) in [(0u64, 1usize), (1, 8), (2, 64), (3, 3000), (4, 3001)] {
                let group = random_group(4, 300 + seed, agg);
                let bc = TreeCursor::packed(&packed);
                let bounded = Mbm::best_first().k_gnn(&bc, &group, k);
                let sc = TreeCursor::packed(&packed);
                let streamed: Vec<Neighbor> = MbmStream::new(&sc, &group).take(k).collect();
                assert_eq!(bounded.neighbors, streamed, "{agg} k={k}");
                assert_eq!(bc.stats(), sc.stats(), "{agg} k={k}: node accesses");
            }
        }
    }

    #[test]
    fn h3_heuristic_saves_node_accesses() {
        // On clustered queries, H2+H3 must access no more nodes than H2
        // alone (the paper's footnote-3 ablation).
        let tree = random_tree(5000, 7);
        let group = random_group(16, 14, Aggregate::Sum);
        let c_full = TreeCursor::unbuffered(&tree);
        Mbm::best_first().k_gnn(&c_full, &group, 8);
        let c_h2 = TreeCursor::unbuffered(&tree);
        Mbm {
            traversal: Traversal::BestFirst,
            use_h2: true,
            use_h3: false,
        }
        .k_gnn(&c_h2, &group, 8);
        assert!(
            c_full.stats().logical <= c_h2.stats().logical,
            "H3 {} vs H2-only {}",
            c_full.stats().logical,
            c_h2.stats().logical
        );
    }

    #[test]
    fn figure_3_5_heuristic_2() {
        // n=2, best_dist=5: node N1 with mindist(N1,M)=3 is pruned since
        // 2*3 >= 5; node N2 with mindist(N2,M)=2 passes H2 but its tight
        // bound 6 >= 5 prunes it (heuristic 3).
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)]).unwrap();
        let n1 = gnn_geom::Rect::from_corners(0.0, 3.0, 4.0, 4.0); // 3 above M
        assert_eq!(n1.mindist_rect(&group.mbr()), 3.0);
        assert!(group.cheap_bound_rect(&n1) >= 5.0);
        let n2 = gnn_geom::Rect::from_corners(-3.0, 2.0, -2.0, 3.0);
        assert!(group.cheap_bound_rect(&n2) < 6.0);
        assert!(group.tight_bound_rect(&n2) > 5.0);
    }

    #[test]
    fn empty_tree() {
        let tree = RTree::new(RTreeParams::default());
        let cursor = TreeCursor::unbuffered(&tree);
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0)]).unwrap();
        assert!(Mbm::best_first()
            .k_gnn(&cursor, &group, 1)
            .neighbors
            .is_empty());
        assert!(MbmStream::new(&cursor, &group).next().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one pruning heuristic")]
    fn rejects_no_heuristics() {
        let tree = random_tree(10, 8);
        let cursor = TreeCursor::unbuffered(&tree);
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0)]).unwrap();
        Mbm {
            traversal: Traversal::BestFirst,
            use_h2: false,
            use_h3: false,
        }
        .k_gnn(&cursor, &group, 1);
    }
}
