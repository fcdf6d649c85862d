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
//! * *The supporting plane* (SUM, 2 to `LAZY_MIN − 1` members, bounded
//!   loop only): heuristic 3 lets each member take its own nearest point
//!   of `N`. `dist(·, Q)` is convex, so the plane tangent to it at `N`'s
//!   centre is a lower bound too, at `N`'s lowest corner
//!   ([`PlaneBound`]) — much tighter near the group's optimum, where
//!   best-first spends its reads. A node that reaches the top of the heap
//!   below `best_dist` is dropped unread where its plane is not.
//!
//! Every cursor reads a packed snapshot, so two best-first drivers share
//! two page-scoring steps over its SoA pages. The steps: `score_branches`
//! keys every child of an internal page (batched `mindist²` to `M`, then
//! H3 for the children that pass H2), and `score_leaf` computes the exact
//! aggregate distance of a whole leaf in one fused kernel call straight
//! over the page's lane-padded coordinates. The drivers:
//!
//! * **bounded top-k** (MBM's [`MemoryGnnAlgorithm::k_gnn_in`], the paper's
//!   Figure 3.6): a heap of *nodes only*; a child is pushed only while its
//!   key is below `best_dist`, a leaf's distances go straight to the
//!   [`KBestList`], and the loop ends when the popped key reaches
//!   `best_dist`; below `LAZY_MIN` SUM members, from two, a popped node
//!   is dropped unread where its supporting plane reaches `best_dist`.
//!   From `LAZY_MIN` SUM members up, children that pass H2
//!   wait in a second heap of unresolved keys and enter the node heap
//!   under exactly their eager key when they resolve, so pages are read in
//!   the same order. Once
//!   `best_dist` is finite a SUM leaf is scored through a cascade
//!   (`filter_leaf`): from `LAZY_MIN` members a rounded-down block bound
//!   (one term per block of Q — eight `f32` lanes a vector on AVX2 where
//!   the group's scale lets `f32` see it, `f64` otherwise) over the whole
//!   page, then on AVX2 a rounded-down `f32` bound over the entries left,
//!   then the exact distance for the entries neither could rule out (on
//!   AVX2 its terms four lanes at a time, added in index order) — the
//!   paper's reason for keeping heuristic 2 beside heuristic 3, applied to
//!   leaf entries. From `LAZY_MIN` members the first leaf, read while
//!   `best_dist` is still `∞`, goes through the same cascade when it holds
//!   more than `k` entries: the `k` with the smallest block bounds pay
//!   their exact distance first, and the largest of those sums is a
//!   ceiling the stages drop against;
//! * **incremental** ([`MbmStream`]): yields neighbors in ascending
//!   `dist(p, Q)` with `k` unknown in advance, so it keeps every child and
//!   every scored point on its heap — the building block of F-MQM (§4.2)
//!   and of network IER.
//!
//! Both apply heuristics 2 and 3. Figure 3.7's depth-first walk-through is
//! not implemented: the paper's experiments are best-first throughout
//! (§5).
//!
//! Without the plane a node is read iff fewer than `k` exact distances `<=`
//! its key have been seen, under either driver, so both read exactly the
//! same pages; with it the bounded loop reads those pages less the ones
//! under a node the plane drops, and its answer does not change. The
//! seed's reference stream (scalar bounds, one lazily converted
//! `mindist(p, M)` filter key per entry) lives on as a test oracle over the
//! same snapshot pages, with a `k`-aware entry that drops a node as the
//! plane does: `packed_equivalence` and `mbm_bounded` pin the bounded loop
//! against it — ids, distance bits, node accesses — and `mbm_bounded` the
//! incremental stream against the plain reference.
//!
//! The hot path is allocation-free in steady state: all per-query storage —
//! the heaps, the key and distance buffers, the result list — lives in a
//! reusable [`MbmScratch`] / [`crate::QueryScratch`].

use crate::best_list::KBestList;
use crate::query::QueryGroup;
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::MemoryGnnAlgorithm;
use gnn_geom::batch::BatchKernels;
use gnn_geom::bound::{BlockBound, CentroidBound, LeafBound, PlaneBound};
use gnn_geom::simd::pad_len;
use gnn_geom::{OrderedF64, Rect};
use gnn_rtree::{BranchesRef, LeafEntry, LeafRef, PageId, PageRef, TreeCursor};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Smallest SUM group the bounded loop keys heuristic 3 lazily for: the
/// smallest size measured ahead in 9 of 10 pairs. Below it an `n`-term
/// tight key costs less than the pending heap's traffic — 0.78× at n = 8,
/// parity at 32 (EXPERIMENTS.md, "Audit: eager heuristic-3 keys").
const LAZY_MIN: usize = 48;

/// Where a node heap entry's MBR is kept when it has none in
/// [`MbmScratch`]'s `rects`: the root, and children keyed lazily.
const NO_RECT: u32 = u32::MAX;

/// The minimum bounding method: best-first, with heuristics 2 and 3.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mbm;

impl Mbm {
    /// MBM as the paper runs it (§5): best-first, both heuristics.
    pub const fn best_first() -> Self {
        Mbm
    }

    /// The paper's best-first MBM (Figure 3.6): a heap of nodes only,
    /// children pushed only while their key is below `best_dist`, leaves
    /// scored whole into `best`, and the loop over as soon as the smallest
    /// pending key reaches `best_dist`.
    ///
    /// Where the group has rounded-down leaf bounds, `filter_leaf` lets
    /// them pick the entries that pay for an exact distance: the block
    /// bound ([`BlockBound`]) on a SUM group of at least `LAZY_MIN` points,
    /// on every tier (its terms in `f32` on the AVX2 tier where the group's
    /// scale allows, in `f64` otherwise); the `f32` bound ([`LeafBound`])
    /// on any SUM group on the AVX2 tier. Each stage drops against
    /// `best_dist`, which is finite from the second leaf on. The first
    /// leaf, read while `best_dist` is still `∞`, is filtered only where
    /// the group has a block bound and the leaf holds more than `k`
    /// entries: the `k` entries with the smallest block bounds are its
    /// witnesses and pay their exact distance first, and the stages drop
    /// what lies strictly above the largest of those sums. Any other first
    /// leaf is scored exactly, every entry. What the stages drop cannot be
    /// in the list once the leaf is done (the argument is at the loop), so
    /// neighbors, distance bits and page reads are those of the all-exact
    /// loop, which MAX, MIN and small SUM groups below AVX2 still run.
    ///
    /// Heuristic 3 is applied only where H2 fails and, above `LAZY_MIN`,
    /// only where the heap gets there: a SUM group of at least `LAZY_MIN`
    /// points parks each child that passes H2 in `pending` under
    /// `max(cheap, centroid key)` ([`CentroidBound`]), and a
    /// child pays its `n`-term tight key only when that key reaches the top
    /// of the node heap. Every other group keys children eagerly, as
    /// before.
    ///
    /// A SUM group of 2 to `LAZY_MIN − 1` points checks one more bound on
    /// a node that reaches the top of the heap below `best_dist`: the plane
    /// tangent to `dist(·, Q)` at the centre of its MBR ([`PlaneBound`]).
    /// Where that is `>= best_dist` the node is dropped unread. The heap
    /// stays keyed and ordered by heuristic 3, so nothing is re-pushed.
    ///
    /// Returns the exact distance evaluations performed and the leaf
    /// entries either bound dropped.
    fn bounded_top_k(
        cursor: &TreeCursor<'_>,
        group: &QueryGroup,
        best: &mut KBestList,
        s: &mut MbmScratch,
    ) -> (u64, u64) {
        let mut evals = 0u64;
        let mut dropped = 0u64;
        // Taken out for the query, so the bounds may borrow them while the
        // loop works on the rest of the scratch.
        let mut leaf_weights = std::mem::take(&mut s.leaf_weights);
        let mut block_lanes = std::mem::take(&mut s.block_lanes);
        let mut block_weights = std::mem::take(&mut s.block_weights);
        // The group's rounded-down SUM bounds, where it has them: the `f32`
        // leaf bound on the AVX2 tier; from `LAZY_MIN`, the centroid key and
        // the block bound on every tier.
        let sum = group.sum_arrays();
        let kernels = BatchKernels::auto();
        let lanes =
            sum.and_then(|(qx, qy, w)| LeafBound::new(kernels, qx, qy, w, &mut leaf_weights));
        let (lazy, blocks) = match sum {
            Some((qx, qy, w)) if group.len() >= LAZY_MIN => (
                CentroidBound::new(qx, qy, w, group.total_weight(), &group.mbr()),
                BlockBound::new(
                    kernels,
                    qx,
                    qy,
                    w,
                    &group.mbr(),
                    &mut block_lanes,
                    &mut block_weights,
                ),
            ),
            _ => (None, None),
        };
        let filter = (blocks.is_some() || lanes.is_some()).then_some(LeafFilter { blocks, lanes });
        // One member's heuristic 3 is already the exact minimum over a rect.
        let plane = match sum {
            Some((qx, qy, w)) if (2..LAZY_MIN).contains(&group.len()) => {
                Some(PlaneBound::new(qx, qy, w))
            }
            _ => None,
        };
        s.nodes.clear();
        s.pending.clear();
        s.slots.clear();
        s.rects.clear();
        if !cursor.is_empty() {
            // The root must always be expanded: `best_dist` is `∞`, so its
            // plane is never asked for.
            s.nodes
                .push(Reverse((OrderedF64(0.0), cursor.root(), NO_RECT)));
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
        //
        // Why the first leaf's ceiling leaves the list as the all-exact loop
        // leaves it, ties included, whichever k entries are the witnesses.
        // Let V be the largest of the witnesses' sums and B the bound once
        // the all-exact loop has offered the leaf. (i) B <= V: every witness
        // is offered; if all k remain, they are the list; otherwise one was
        // refused (then at dist >= bound) or evicted (the new bound was <=
        // its dist), and a full list's bound never rises. (ii) Until k
        // entries at dist <= B have been offered, a full list holds one
        // above B, so the bound is above B and every entry at dist <= B
        // offered so far is taken and kept: when the k-th is offered the
        // list is exactly those k, and from then on the bound is <= B and
        // an entry above B is refused. This holds in any run that offers
        // the same entries at dist <= B in the same order, whatever it
        // offers above B. (iii) A dropped entry's bound is finite and
        // strictly above V, so its computed sum is above V >= B; the stages
        // drop only such entries and ones `offer` would refuse then, so the
        // cascade offers the leaf's entries at dist <= B in entry order and
        // ends with the all-exact loop's list. Hence `best_dist` after the
        // leaf, and every page read after it, are the all-exact loop's.
        // Later leaves run under the ceiling `∞`.
        //
        // Why a node the plane drops leaves the list as reading it would.
        // Every point under it lies in its MBR, so its computed distance is
        // at least the plane bound, at least `best_dist` now and later
        // (`best_dist` only falls): reading it, or any page under it, would
        // offer only entries `offer` refuses. So `best_dist` moves at the
        // same leaves by the same steps as without the plane, every other
        // node is pushed and popped as it would be, and the list ends the
        // same, ties included; only the pages under the dropped node go
        // unread.
        loop {
            evals += s.resolve_pending(group, best.bound());
            let Some(Reverse((key, id, at))) = s.nodes.pop() else {
                break;
            };
            let bound = best.bound();
            if key.get() >= bound {
                break; // every pending node is at least this far
            }
            if let Some(plane) = plane.as_ref().filter(|_| bound < f64::INFINITY) {
                evals += group.len() as u64;
                if plane.lower(&s.rects[at as usize]) >= bound {
                    continue; // nothing under it beats `best_dist`
                }
            }
            match cursor.read(id) {
                PageRef::Internal(view) => {
                    evals += match &lazy {
                        Some(centroid) => s.defer_children(&view, group, centroid, best.bound()),
                        None => s.push_children(&view, group, best.bound()),
                    };
                }
                PageRef::Leaf(leaf) => match &filter {
                    Some(filter)
                        if best.bound() < f64::INFINITY
                            || filter.blocks.is_some()
                                && best.is_empty()
                                && leaf.len() > best.k() =>
                    {
                        let kept = filter_leaf(&leaf, group, filter, s, best);
                        evals += kept * group.len() as u64;
                        dropped += leaf.len() as u64 - kept;
                    }
                    _ => {
                        evals += score_leaf(&leaf, group, &mut s.dists);
                        for (e, &dist) in leaf.entries().zip(&s.dists) {
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
        s.block_lanes = block_lanes;
        s.block_weights = block_weights;
        (evals, dropped)
    }
}

impl MemoryGnnAlgorithm for Mbm {
    fn k_gnn_in<'s>(
        &self,
        cursor: &TreeCursor<'_>,
        group: &QueryGroup,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Neighbor], QueryStats) {
        let before = cursor.stats();
        let QueryScratch { best, out, mbm, .. } = scratch;
        best.reset(k);
        let (dist_computations, lower_bound_pruned) = Mbm::bounded_top_k(cursor, group, best, mbm);
        let stats = QueryStats {
            data_tree: cursor.stats().since(before),
            dist_computations,
            lower_bound_pruned,
            ..QueryStats::default()
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }
}

/// Keys every child of an internal page into `keys` (cleared and
/// refilled): batched `mindist²(N, M)` over the whole page, then — for the
/// children that pass heuristic 2 against `bound` — the tight bound
/// through the fused SoA kernel (footnote 3: H3 only where H2 fails to
/// prune). A child at or beyond `bound` keeps its cheap key, which is
/// already enough to discard it. Returns the distance evaluations
/// performed.
fn score_branches(
    view: &BranchesRef<'_>,
    group: &QueryGroup,
    bound: f64,
    keys: &mut Vec<f64>,
) -> u64 {
    view.mindist_sq_rect_into(&group.mbr(), keys);
    let mut evals = view.len() as u64;
    for (i, key) in keys.iter_mut().enumerate() {
        let cheap = group.cheap_bound_from_sq(*key);
        *key = if cheap < bound {
            evals += group.len() as u64;
            cheap.max(group.tight_bound_rect(&view.mbr(i)))
        } else {
            cheap
        };
    }
    evals
}

/// Exact aggregate distances of a whole leaf into `dists` (cleared and
/// refilled): one fused kernel call straight over the page's own
/// lane-padded coordinates. Returns the distance evaluations performed.
fn score_leaf(leaf: &LeafRef<'_>, group: &QueryGroup, dists: &mut Vec<f64>) -> u64 {
    let (xs, ys) = leaf.coords();
    group.dist_many_padded(xs, ys, leaf.len(), dists);
    (leaf.len() * group.len()) as u64
}

/// The rounded-down bounds a SUM leaf is filtered through, cheapest first;
/// at least one is armed.
struct LeafFilter<'a> {
    /// `m` terms an entry, `f32` or `f64` (the block bound's scale rule):
    /// SUM, `LAZY_MIN` members and up.
    blocks: Option<BlockBound<'a>>,
    /// `n` `f32` lanes an entry: SUM on the AVX2 tier.
    lanes: Option<LeafBound<'a>>,
}

/// Where a leaf's rounded-down bounds are cut: at `best_dist` (`offer`
/// refuses a tie with it) or at the first value strictly above the
/// ceiling (an entry tying the witnesses' largest sum may still be taken),
/// whichever is lower. A NaN ceiling cuts nothing: `min` passes over it.
#[inline]
fn cut_at(bound: f64, ceiling: f64) -> f64 {
    bound.min(ceiling.next_up())
}

/// Whether a rounded-down bound rules an entry out at `cut`. A non-finite
/// one (overflow, NaN data) promises nothing.
#[inline]
fn rules_out(at_least: f64, cut: f64) -> bool {
    at_least.is_finite() && at_least >= cut
}

/// `src[j]` for each `j` in `at`, zero-padded to [`pad_len`] lanes.
fn gather_padded(src: &[f64], at: &[u32], out: &mut Vec<f64>) {
    out.clear();
    out.extend(at.iter().map(|&j| src[j as usize]));
    out.resize(pad_len(at.len()), 0.0);
}

/// Filter, then verify: scores a SUM leaf through a cascade. The block
/// bound, where armed, scores the whole page over its own lane-padded
/// coordinates as the leaf starts; on the first leaf (`best_dist` still
/// `∞`) [`witness_ceiling`] then scores its `k` witnesses exactly. The
/// other entries the block stage leaves are gathered into lane-padded
/// scratch for the `f32` bound, where armed (without blocks the `f32`
/// bound scores the page itself); then [`verify`], between the witnesses,
/// so that the leaf is offered in entry order. A stage drops an entry only
/// when its bound is finite and `>= best.bound()` (`offer` refuses
/// `dist >= bound`) or strictly above the ceiling (the argument at the
/// loop). Returns how many entries were scored exactly, witnesses
/// included.
fn filter_leaf(
    leaf: &LeafRef<'_>,
    group: &QueryGroup,
    filter: &LeafFilter<'_>,
    s: &mut MbmScratch,
    best: &mut KBestList,
) -> u64 {
    let (xs, ys) = leaf.coords();
    let Some(blocks) = &filter.blocks else {
        let lanes = filter.lanes.as_ref().expect("a leaf filter arms a stage");
        lanes.lower_padded(xs, ys, leaf.len(), &mut s.lower);
        return verify(group, best, f64::INFINITY, leaf.entries().zip(&s.lower));
    };
    blocks.lower_padded(xs, ys, leaf.len(), &mut s.dists);
    let bound = best.bound();
    let ceiling = if bound == f64::INFINITY {
        witness_ceiling(group, leaf, &s.dists, best.k(), &mut s.witnesses)
    } else {
        s.witnesses.clear();
        f64::INFINITY
    };
    let cut = cut_at(bound, ceiling);
    s.survivors.clear();
    for (j, (e, &at_least)) in leaf.entries().zip(&s.dists).enumerate() {
        if rules_out(at_least, cut) {
            check_drop(group, e, at_least, cut, "block");
        } else {
            s.survivors.push(j as u32);
        }
    }
    if !s.witnesses.is_empty() {
        // Scored already, so the `f32` stage skips them. Every witness is
        // left: its bound is at most its sum, at most the ceiling.
        let mut witnesses = s.witnesses.iter().map(|&(w, _)| w).peekable();
        s.survivors.retain(|&j| witnesses.next_if_eq(&j).is_none());
        debug_assert!(witnesses.next().is_none(), "a witness was dropped");
    }
    match &filter.lanes {
        Some(lanes) => {
            gather_padded(xs, &s.survivors, &mut s.lanes_x);
            gather_padded(ys, &s.survivors, &mut s.lanes_y);
            lanes.lower_padded(&s.lanes_x, &s.lanes_y, s.survivors.len(), &mut s.lower);
        }
        // No `f32` stage: bounds that promise nothing.
        None => {
            s.lower.clear();
            s.lower.resize(s.survivors.len(), f64::NAN);
        }
    }
    offer_in_entry_order(group, best, leaf, ceiling, s)
}

/// The first leaf's ceiling: the `k` entries with the smallest block
/// bounds (`bounds`, in entry order; ties to the lower index) are its
/// witnesses, left in `witnesses` as `(index, exact distance)` in entry
/// order, and the ceiling is the largest of their distances — NaN, which
/// rules nothing out, if any is NaN. Runs at most once a query, so it stays
/// out of the per-leaf loop.
#[inline(never)]
fn witness_ceiling(
    group: &QueryGroup,
    leaf: &LeafRef<'_>,
    bounds: &[f64],
    k: usize,
    witnesses: &mut Vec<(u32, f64)>,
) -> f64 {
    witnesses.clear();
    witnesses.extend(bounds.iter().enumerate().map(|(j, &b)| (j as u32, b)));
    if k < witnesses.len() {
        witnesses.select_nth_unstable_by(k, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        witnesses.truncate(k);
    }
    witnesses.sort_unstable_by_key(|&(j, _)| j);
    let mut ceiling = f64::NEG_INFINITY;
    for (j, dist) in witnesses.iter_mut() {
        *dist = group.dist(leaf.entry(*j as usize).point);
        // A NaN sticks: nothing is strictly above it.
        if dist.is_nan() || *dist > ceiling {
            ceiling = *dist;
        }
    }
    ceiling
}

/// The cascade's offers, in entry order: each of `s.witnesses` at the
/// distance it was scored at and, around them, `s.survivors` through
/// [`verify`] (`s.lower[i]` is `s.survivors[i]`'s `f32` bound). Returns
/// how many were scored exactly, witnesses included.
fn offer_in_entry_order(
    group: &QueryGroup,
    best: &mut KBestList,
    leaf: &LeafRef<'_>,
    ceiling: f64,
    s: &MbmScratch,
) -> u64 {
    let segment = |from: usize, to: usize| {
        let at = s.survivors[from..to]
            .iter()
            .map(|&j| leaf.entry(j as usize));
        at.zip(&s.lower[from..to])
    };
    let mut kept = s.witnesses.len() as u64;
    let mut from = 0;
    for &(w, dist) in &s.witnesses {
        let to = from + s.survivors[from..].partition_point(|&j| j < w);
        kept += verify(group, best, ceiling, segment(from, to));
        let e = leaf.entry(w as usize);
        best.offer(Neighbor {
            id: e.id,
            point: e.point,
            dist,
        });
        from = to;
    }
    kept + verify(group, best, ceiling, segment(from, s.survivors.len()))
}

/// The cascade's last step, over entries the earlier stages left, in
/// entry order, each with its `f32` bound (NaN where there is none): one
/// whose bound reaches the cut of its turn is dropped, every other pays
/// the exact [`QueryGroup::dist`] and is offered. Returns how many were
/// scored exactly.
fn verify<'e>(
    group: &QueryGroup,
    best: &mut KBestList,
    ceiling: f64,
    entries: impl Iterator<Item = (LeafEntry, &'e f64)>,
) -> u64 {
    let mut kept = 0u64;
    for (e, &at_least) in entries {
        let cut = cut_at(best.bound(), ceiling);
        if rules_out(at_least, cut) {
            check_drop(group, e, at_least, cut, "f32");
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

/// Debug builds re-score every entry a stage drops: the whole suite doubles
/// as the bounds' soundness test.
#[inline]
fn check_drop(group: &QueryGroup, e: LeafEntry, at_least: f64, cut: f64, stage: &str) {
    debug_assert!(
        group.dist(e.point) >= cut,
        "{stage} bound {at_least:e} dropped {e:?} at the cut {cut:e}"
    );
}

/// Heap element of the incremental stream. Every key is a lower bound on the
/// aggregate distance of whatever the element may still produce, so popping
/// in key order yields neighbors in exact ascending order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StreamItem {
    key: OrderedF64,
    /// Points pop before nodes on ties, surfacing results as early as
    /// possible.
    kind: StreamKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StreamKind {
    Node(PageId),
    /// A data point keyed by its exact aggregate distance.
    Point(LeafEntry),
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
                StreamKind::Point(e) => (0, e.id.0),
                StreamKind::Node(p) => (1, u64::from(p.raw())),
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
/// page-scoring buffers both drivers share, and the bounded loop's leaf
/// bounds (the blocks, the `f32` weights) with the cascade's buffers and
/// the first leaf's witnesses.
#[derive(Debug, Default)]
pub struct MbmScratch {
    /// Bounded top-k: pending nodes by `(key, page id)` — the order nodes
    /// leave the stream's heap in, too — each with where its MBR is in
    /// `rects` ([`NO_RECT`] where it has none there).
    nodes: BinaryHeap<Reverse<(OrderedF64, PageId, u32)>>,
    /// Bounded top-k, eager keying: the MBR of every child pushed this
    /// query, for its supporting plane.
    rects: Vec<Rect>,
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
    /// loop filters through blocks first, the block bounds on them.
    dists: Vec<f64>,
    /// Bounded top-k: the [`LeafBound`]'s narrowed weights, refilled per
    /// query (empty where there is none).
    leaf_weights: Vec<f32>,
    /// Bounded top-k: the [`BlockBound`]'s blocks, refilled per query
    /// (empty where there is none).
    block_lanes: Vec<f64>,
    /// Bounded top-k: the blocks' narrowed weights, refilled per query
    /// where the block bound runs in `f32` (empty where it never has).
    block_weights: Vec<f32>,
    /// The cascade: indices of the leaf entries the block bound left.
    survivors: Vec<u32>,
    /// The cascade: those entries' coordinates, gathered lane-padded for
    /// the `f32` bound.
    lanes_x: Vec<f64>,
    lanes_y: Vec<f64>,
    /// The `f32` bounds on the entries the block stage left (on every
    /// entry of the page where there is no block stage).
    lower: Vec<f64>,
    /// The first leaf's witnesses: entry index and exact distance, in
    /// entry order (empty on every other leaf).
    witnesses: Vec<(u32, f64)>,
    dist_computations: u64,
}

impl MbmScratch {
    /// Scratch pre-sized for a heap of `capacity` pending items.
    pub fn with_capacity(capacity: usize) -> Self {
        MbmScratch {
            nodes: BinaryHeap::with_capacity(capacity),
            rects: Vec::with_capacity(capacity),
            pending: BinaryHeap::new(),
            slots: Vec::new(),
            heap: BinaryHeap::with_capacity(capacity),
            keys: Vec::with_capacity(64),
            centroid_keys: Vec::new(),
            dists: Vec::with_capacity(64),
            leaf_weights: Vec::new(),
            block_lanes: Vec::new(),
            block_weights: Vec::new(),
            survivors: Vec::new(),
            lanes_x: Vec::new(),
            lanes_y: Vec::new(),
            lower: Vec::new(),
            witnesses: Vec::new(),
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
            self.rects.capacity(),
            self.pending.capacity(),
            self.slots.capacity(),
            self.heap.capacity(),
            self.keys.capacity(),
            self.centroid_keys.capacity(),
            self.dists.capacity(),
            self.leaf_weights.capacity(),
            self.block_lanes.capacity(),
            self.block_weights.capacity(),
            self.survivors.capacity(),
            self.lanes_x.capacity(),
            self.lanes_y.capacity(),
            self.lower.capacity(),
            self.witnesses.capacity(),
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
    /// a strictly better neighbor), each with its MBR kept in `rects`.
    /// Returns the distance evaluations.
    fn push_children(&mut self, view: &BranchesRef<'_>, group: &QueryGroup, bound: f64) -> u64 {
        let evals = score_branches(view, group, bound, &mut self.keys);
        for (i, &key) in self.keys.iter().enumerate() {
            if key < bound {
                let at = self.rects.len() as u32;
                self.rects.push(view.mbr(i));
                self.nodes
                    .push(Reverse((OrderedF64(key), view.child(i), at)));
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
            if matches!(self.nodes.peek(), Some(&Reverse((top, ..))) if pending_key > top)
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
                self.nodes.push(Reverse((OrderedF64(key), child, NO_RECT)));
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
    scratch: &'s mut MbmScratch,
}

impl<'t, 'c, 'g, 's> MbmStream<'t, 'c, 'g, 's> {
    /// Opens a stream in `scratch` (cleared and re-seeded first).
    pub fn new_in(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        scratch: &'s mut MbmScratch,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        scratch.reset();
        if !cursor.is_empty() {
            // The root must always be expanded.
            scratch.push(0.0, StreamKind::Node(cursor.root()));
        }
        MbmStream {
            cursor,
            group,
            scratch,
        }
    }

    /// Re-attaches to a suspended stream whose state lives in `scratch`
    /// (seeded earlier by [`MbmStream::new_in`]): nothing is cleared, the
    /// stream continues exactly where it stopped. This is how F-MQM serves
    /// many group streams round-robin without keeping borrow-holding stream
    /// objects alive.
    pub fn resume_in(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        scratch: &'s mut MbmScratch,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        MbmStream {
            cursor,
            group,
            scratch,
        }
    }
}

impl Iterator for MbmStream<'_, '_, '_, '_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        let group = self.group;
        let cursor = self.cursor;
        let s = &mut *self.scratch;
        while let Some(Reverse(item)) = s.heap.pop() {
            match item.kind {
                StreamKind::Point(e) => {
                    return Some(Neighbor {
                        id: e.id,
                        point: e.point,
                        dist: item.key.get(),
                    });
                }
                StreamKind::Node(id) => match cursor.read(id) {
                    PageRef::Leaf(leaf) => {
                        // `k` is unknown, so every scored point is kept.
                        s.dist_computations += score_leaf(&leaf, group, &mut s.dists);
                        for (i, e) in leaf.entries().enumerate() {
                            s.push(s.dists[i], StreamKind::Point(e));
                        }
                    }
                    PageRef::Internal(view) => {
                        // No `best_dist` to prune with: every child is kept.
                        s.dist_computations +=
                            score_branches(&view, group, f64::INFINITY, &mut s.keys);
                        for i in 0..view.len() {
                            s.push(s.keys[i], StreamKind::Node(view.child(i)));
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
    use crate::Aggregate;
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{PackedRTree, RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> PackedRTree {
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
        .freeze()
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

    /// The first `k` items of a fresh stream.
    fn stream_prefix(cursor: &TreeCursor<'_>, group: &QueryGroup, k: usize) -> Vec<Neighbor> {
        let mut scratch = MbmScratch::default();
        MbmStream::new_in(cursor, group, &mut scratch)
            .take(k)
            .collect()
    }

    #[test]
    fn matches_oracle() {
        let tree = random_tree(700, 1);
        let cursor = tree.cursor();
        for seed in 0..6 {
            for &k in &[1usize, 8] {
                let group = random_group(6, seed, Aggregate::Sum);
                let want = linear_scan_entries(tree.iter(), &group, k);
                let got = Mbm::best_first().k_gnn(&cursor, &group, k);
                assert_eq!(got.distances(), want.distances(), "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let tree = random_tree(600, 9);
        let cursor = tree.cursor();
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
    fn max_and_min_aggregates_match_oracle() {
        let tree = random_tree(500, 2);
        let cursor = tree.cursor();
        for agg in [Aggregate::Max, Aggregate::Min] {
            for seed in 0..5 {
                let group = random_group(5, 50 + seed, agg);
                let want = linear_scan_entries(tree.iter(), &group, 4);
                let got = Mbm::best_first().k_gnn(&cursor, &group, 4);
                for (a, b) in got.distances().iter().zip(want.distances()) {
                    assert!((a - b).abs() < 1e-9, "{agg} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn stream_yields_ascending_and_complete() {
        let tree = random_tree(300, 3);
        let group = random_group(4, 9, Aggregate::Sum);
        let all = stream_prefix(&tree.cursor(), &group, usize::MAX);
        assert_eq!(all.len(), 300);
        for w in all.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // Exact distances: the fused leaf kernel is bit-identical to `dist`.
        for n in &all {
            assert_eq!(n.dist, group.dist(n.point));
        }
    }

    #[test]
    fn stream_prefix_equals_k_gnn() {
        let tree = random_tree(400, 4);
        let cursor = tree.cursor();
        let group = random_group(8, 10, Aggregate::Sum);
        let by_stream: Vec<f64> = stream_prefix(&cursor, &group, 6)
            .iter()
            .map(|n| n.dist)
            .collect();
        let by_query = Mbm::best_first().k_gnn(&cursor, &group, 6);
        assert_eq!(by_stream, by_query.distances());
    }

    #[test]
    fn suspended_stream_resumes_where_it_stopped() {
        let tree = random_tree(400, 12);
        let group = random_group(4, 13, Aggregate::Sum);
        let cursor = tree.cursor();
        let want: Vec<f64> = stream_prefix(&cursor, &group, 10)
            .iter()
            .map(|n| n.dist)
            .collect();
        let mut scratch = MbmScratch::default();
        let mut got = Vec::new();
        {
            let mut s = MbmStream::new_in(&cursor, &group, &mut scratch);
            got.extend(s.by_ref().take(4).map(|n| n.dist));
        }
        for _ in 0..6 {
            let mut s = MbmStream::resume_in(&cursor, &group, &mut scratch);
            got.push(s.next().unwrap().dist);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn weighted_sum_matches_oracle() {
        let tree = random_tree(300, 6);
        let mut rng = StdRng::seed_from_u64(13);
        let pts: Vec<Point> = (0..5)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let w: Vec<f64> = (0..5).map(|_| 0.1 + rng.gen::<f64>() * 2.0).collect();
        let group = QueryGroup::weighted_sum(pts, w).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, 3);
        let got = Mbm::best_first().k_gnn(&tree.cursor(), &group, 3);
        for (a, b) in got.distances().iter().zip(want.distances()) {
            assert!((a - b).abs() < 1e-9);
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
        let probe = packed.cursor();
        let PageRef::Internal(root) = probe.read(probe.root()) else {
            panic!("scenario needs an internal root");
        };
        let mut keys = Vec::new();
        score_branches(&root, &group, f64::INFINITY, &mut keys);
        assert_eq!(keys, [1.0, 5.0], "scenario: child keys");

        // Pop time: after leaf A the 3-best bound is exactly 5 == key(B), so
        // B is never read — and the tying point inside it is not needed.
        let cursor = packed.cursor();
        let got = Mbm::best_first().k_gnn(&cursor, &group, 3);
        assert_eq!(got.distances(), [1.0, 13f64.sqrt(), 5.0]);
        assert_eq!(got.neighbors[2].id, PointId(2));
        assert_eq!(cursor.stats().logical, 2, "root + leaf A only");

        // Push time: at bound == key(B) only A is queued, and B — failing
        // heuristic 2 — does not even pay for its tight bound; one ulp above,
        // both are queued and both pay.
        let pending = |bound: f64| {
            let mut s = MbmScratch::default();
            let evals = s.push_children(&root, &group, bound);
            let mut keys: Vec<f64> = s.nodes.drain().map(|Reverse((k, ..))| k.get()).collect();
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

    /// A snapshot whose root is one leaf holding `entries` in their order.
    fn one_leaf(entries: &[LeafEntry]) -> PackedRTree {
        let mut tree = RTree::new(RTreeParams::with_capacity(64));
        for &e in entries {
            tree.insert(e);
        }
        let packed = tree.freeze();
        let ids = packed.iter().map(|e| e.id);
        assert!(ids.eq(entries.iter().map(|e| e.id)), "one leaf, in order");
        packed
    }

    fn root_leaf(packed: &PackedRTree) -> LeafRef<'_> {
        let PageRef::Leaf(leaf) = packed.page(packed.root()) else {
            panic!("the root is a leaf");
        };
        leaf
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
        let probe = packed.cursor();
        let PageRef::Internal(root) = probe.read(probe.root()) else {
            panic!("scenario needs an internal root");
        };
        let mut keys = Vec::new();
        score_branches(&root, &group, f64::INFINITY, &mut keys);
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
        let cursor = packed.cursor();
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
        let cursor = packed.cursor();
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
                s.push_children(&root, &group, f64::INFINITY);
            }
            let mut order = Vec::new();
            loop {
                s.resolve_pending(&group, f64::INFINITY);
                let Some(Reverse((key, id, _))) = s.nodes.pop() else {
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
            let bc = packed.cursor();
            let bounded = Mbm::best_first().k_gnn(&bc, &group, k);
            let sc = packed.cursor();
            let streamed = stream_prefix(&sc, &group, k);
            assert_eq!(bounded.neighbors, streamed, "k={k}");
            assert_eq!(bc.stats(), sc.stats(), "k={k}: node accesses");
        }
    }

    #[test]
    fn bounded_loop_reads_the_stream_pages_less_what_the_plane_drops() {
        // Without a plane (MAX, MIN, one member) the bounded loop reads
        // exactly the stream's pages; a SUM group of 4 reads fewer, as many
        // as `tests/mbm_bounded.rs`' `k`-aware reference.
        let packed = random_tree(3000, 21);
        let (mut bounded_reads, mut stream_reads) = (0, 0);
        for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            for n in [1, 4] {
                for (seed, k) in [(0u64, 1usize), (1, 8), (2, 64), (3, 3000), (4, 3001)] {
                    let group = random_group(n, 300 + seed, agg);
                    let bc = packed.cursor();
                    let bounded = Mbm::best_first().k_gnn(&bc, &group, k);
                    let sc = packed.cursor();
                    let streamed = stream_prefix(&sc, &group, k);
                    assert_eq!(bounded.neighbors, streamed, "{agg} n={n} k={k}");
                    let (b, s) = (bc.stats().logical, sc.stats().logical);
                    if agg == Aggregate::Sum && n > 1 {
                        assert!(b <= s, "{agg} n={n} k={k}: {b} pages, the stream {s}");
                        bounded_reads += b;
                        stream_reads += s;
                    } else {
                        assert_eq!(b, s, "{agg} n={n} k={k}: node accesses");
                    }
                }
            }
        }
        assert!(
            bounded_reads < stream_reads,
            "the plane dropped nothing: {bounded_reads} pages"
        );
    }

    #[test]
    fn first_leaf_ceiling_leaves_the_all_exact_list() {
        // One leaf of 40 entries over 13 positions, so bit-equal distances
        // sit at most k-th boundaries and span witnesses and non-witnesses.
        // For every k below the leaf's length the cascade's list after the
        // leaf is the one offering every exact distance in entry order
        // leaves: ids, points and distance bits, rank by rank.
        let mut rng = StdRng::seed_from_u64(31);
        let cells: Vec<(f64, f64)> = (0..13)
            .map(|_| (rng.gen::<f64>() * 60.0, rng.gen::<f64>() * 60.0))
            .collect();
        let pts: Vec<(f64, f64)> = (0..40).map(|i| cells[(i * 7) % 13]).collect();
        let packed = RTree::bulk_load(
            RTreeParams::with_capacity(64),
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| LeafEntry::new(PointId(i as u64), Point::new(x, y))),
        )
        .freeze();
        let cursor = packed.cursor();
        let PageRef::Leaf(leaf) = cursor.read(cursor.root()) else {
            panic!("scenario needs a leaf root");
        };
        let key = |n: &Neighbor| (n.id, n.point, n.dist.to_bits());
        for n in [LAZY_MIN, 256] {
            let group = random_group(n, 40 + n as u64, Aggregate::Sum);
            // The leaf filter as `bounded_top_k` arms it.
            let (qx, qy, w) = group.sum_arrays().unwrap();
            let kernels = BatchKernels::auto();
            let (mut leaf_weights, mut block_lanes, mut block_weights) = Default::default();
            let mbr = group.mbr();
            let filter = LeafFilter {
                blocks: BlockBound::new(
                    kernels,
                    qx,
                    qy,
                    w,
                    &mbr,
                    &mut block_lanes,
                    &mut block_weights,
                ),
                lanes: LeafBound::new(kernels, qx, qy, w, &mut leaf_weights),
            };
            assert!(filter.blocks.is_some(), "scenario: a block bound");
            let mut s = MbmScratch::default();
            let (mut want, mut got) = (Vec::new(), Vec::new());
            let mut dropped = 0;
            for k in 1..leaf.len() {
                let mut exact = KBestList::new(k);
                score_leaf(&leaf, &group, &mut s.dists);
                for (e, &dist) in leaf.entries().zip(&s.dists) {
                    exact.offer(Neighbor {
                        id: e.id,
                        point: e.point,
                        dist,
                    });
                }
                let mut filtered = KBestList::new(k);
                let kept = filter_leaf(&leaf, &group, &filter, &mut s, &mut filtered);
                assert!(kept >= k as u64, "n={n} k={k}: the witnesses are scored");
                assert_eq!(s.witnesses.len(), k, "n={n} k={k}");
                dropped += leaf.len() as u64 - kept;
                exact.drain_sorted_into(&mut want);
                filtered.drain_sorted_into(&mut got);
                let want: Vec<_> = want.iter().map(key).collect();
                let got: Vec<_> = got.iter().map(key).collect();
                assert_eq!(got, want, "n={n} k={k}");
            }
            assert!(dropped > 0, "n={n}: the ceiling dropped nothing");
        }
    }

    #[test]
    fn a_tie_ahead_of_a_witness_keeps_its_place() {
        // Entries 0 and 1 are one point, and entry 1 is the witness (as if
        // its block bound were the smaller). At k = 1 the all-exact loop
        // keeps entry 0: offered first, it makes the witness a tie that
        // `offer` refuses. The cascade must keep it too.
        let group = random_group(LAZY_MIN, 5, Aggregate::Sum);
        let p = Point::new(30.0, 30.0);
        let entries = [
            LeafEntry::new(PointId(0), p),
            LeafEntry::new(PointId(1), p),
            LeafEntry::new(PointId(2), Point::new(90.0, 90.0)),
        ];
        let d = group.dist(p);
        let s = MbmScratch {
            witnesses: vec![(1, d)],
            survivors: vec![0, 2],
            lower: vec![f64::NAN; 2],
            ..MbmScratch::default()
        };
        let packed = one_leaf(&entries);
        let mut best = KBestList::new(1);
        let kept = offer_in_entry_order(&group, &mut best, &root_leaf(&packed), d, &s);
        assert_eq!(kept, 3, "no bound: both survivors are scored");
        let mut out = Vec::new();
        best.drain_sorted_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, PointId(0), "entry order decides the tie");
    }

    #[test]
    fn the_ceiling_drops_only_strictly_above_it() {
        let v = 12.5f64;
        // An entry whose bound, or sum, equals V may still be taken.
        assert!(!rules_out(v, cut_at(f64::INFINITY, v)));
        assert!(rules_out(v.next_up(), cut_at(f64::INFINITY, v)));
        // `best_dist` keeps its `>=`: `offer` refuses a tie with it.
        assert!(rules_out(v, cut_at(v, f64::INFINITY)));
        assert!(rules_out(v, cut_at(v, v)));
        // A NaN or infinite ceiling, or a non-finite bound, drops nothing.
        for ceiling in [f64::NAN, f64::INFINITY] {
            assert!(!rules_out(f64::MAX, cut_at(f64::INFINITY, ceiling)));
        }
        for at_least in [f64::NAN, f64::INFINITY] {
            assert!(!rules_out(at_least, cut_at(f64::INFINITY, v)));
        }
    }

    #[test]
    fn witnesses_are_the_k_smallest_bounds_in_entry_order() {
        let group = random_group(LAZY_MIN, 7, Aggregate::Sum);
        let entries: Vec<LeafEntry> = (0..6u32)
            .map(|i| LeafEntry::new(PointId(u64::from(i)), Point::new(f64::from(i), 1.0)))
            .collect();
        let packed = one_leaf(&entries);
        let leaf = root_leaf(&packed);
        let bounds = [3.0, 1.0, f64::NAN, 1.0, 0.5, 2.0];
        let mut w = Vec::new();
        for (k, want) in [
            (1, &[4][..]),
            (2, &[1, 4]),
            (3, &[1, 3, 4]),
            (6, &[0, 1, 2, 3, 4, 5]),
        ] {
            let ceiling = witness_ceiling(&group, &leaf, &bounds, k, &mut w);
            let at: Vec<u32> = w.iter().map(|&(j, _)| j).collect();
            assert_eq!(at, want, "k={k}: ties to the lower index, NaN last");
            for &(j, dist) in &w {
                assert_eq!(
                    dist.to_bits(),
                    group.dist(entries[j as usize].point).to_bits()
                );
            }
            let largest = w.iter().map(|&(_, d)| d).fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(ceiling.to_bits(), largest.to_bits(), "k={k}");
        }
    }

    #[test]
    fn a_node_the_plane_clears_is_dropped_unread() {
        // Members (0, ±1). Leaf A = {(0,0), (1,0), (2.9,0)} at distances
        // 2, 2√2 and 2·√9.41 ≈ 6.135; leaf B's MBR is [3,4]×[-1,1]. B's
        // heuristic-3 key is 3 + 3 = 6, but its members pull apart: the
        // plane at its centre (3.5, 0) is 2·√13.25 − 0.5·7/√13.25 ≈ 6.318,
        // and B's nearest point sits at 6.606.
        let packed = tree_of(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (2.9, 0.0),
            (3.0, -1.0),
            (4.0, 1.0),
            (3.5, 0.0),
        ])
        .freeze();
        let group = QueryGroup::sum(vec![Point::new(0.0, -1.0), Point::new(0.0, 1.0)]).unwrap();
        let probe = packed.cursor();
        let PageRef::Internal(root) = probe.read(probe.root()) else {
            panic!("scenario needs an internal root");
        };
        let b = Rect::from_corners(3.0, -1.0, 4.0, 1.0);
        assert_eq!(root.mbr(1), b, "scenario: leaf B");
        let mut keys = Vec::new();
        score_branches(&root, &group, f64::INFINITY, &mut keys);
        assert_eq!(keys[1], 6.0, "scenario: B's key");
        let (qx, qy, w) = group.sum_arrays().unwrap();
        let plane = PlaneBound::new(qx, qy, w).lower(&b);
        let kth = group.dist(Point::new(2.9, 0.0));
        assert!(
            6.0 < kth && kth <= plane,
            "scenario: {kth} vs plane {plane}"
        );

        // After A the 3-best bound is that k-th distance: B's key is below
        // it, its plane is not, and B is dropped unread; the stream, which
        // has no bound, reads it.
        let cursor = packed.cursor();
        let got = Mbm::best_first().k_gnn(&cursor, &group, 3);
        assert_eq!(got.distances(), [2.0, 8f64.sqrt(), kth]);
        assert_eq!(cursor.stats().logical, 2, "root + leaf A only");
        let sc = packed.cursor();
        assert_eq!(stream_prefix(&sc, &group, 3), got.neighbors);
        assert_eq!(sc.stats().logical, 3);
        // Root: two H2 and two H3 keys; B: one plane; A: three exact sums.
        assert_eq!(got.stats.dist_computations, 2 + 2 * 2 + 2 + 3 * 2);
    }

    #[test]
    fn the_planes_rects_are_in_the_capacity_profile() {
        let mut s = MbmScratch::default();
        s.rects.reserve_exact(13);
        let rects = s.rects.capacity();
        assert!(s.capacity_profile().any(|c| c == rects));
        // And a SUM query of four members fills them.
        let tree = random_tree(500, 5);
        let mut scratch = QueryScratch::new();
        let group = random_group(4, 77, Aggregate::Sum);
        Mbm::best_first().k_gnn_in(&tree.cursor(), &group, 4, &mut scratch);
        assert!(!scratch.mbm.rects.is_empty());
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
        let tree = RTree::new(RTreeParams::default()).freeze();
        let cursor = tree.cursor();
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0)]).unwrap();
        assert!(Mbm::best_first()
            .k_gnn(&cursor, &group, 1)
            .neighbors
            .is_empty());
        assert!(stream_prefix(&cursor, &group, 1).is_empty());
    }
}
