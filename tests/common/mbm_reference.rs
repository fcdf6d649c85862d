//! The seed's incremental MBM stream, kept as the oracle the bounded
//! best-first loop (`Mbm::best_first`) and the library's `MbmStream` are
//! held to.
//!
//! It shares no heap, no key and no scoring code with the engine: it reads
//! snapshot pages through the public page API only, keys every child by
//! `max(cheap_bound_rect, tight_bound_rect_reference)` (the sequential
//! scalar fold of heuristic 3) and every leaf entry by its `mindist(p, M)`
//! filter key, `cheap_bound_point`, which is converted to the exact
//! aggregate distance only if and when it reaches the top of the one heap.
//! Items pop by key, then exact points before filter keys before nodes,
//! then by id. A node is read iff fewer than `k` exact distances `<=` its
//! key have been yielded, so pulling `k` items reads exactly the pages the
//! library's `MbmStream` reads ([`reference_stream_prefix`]).
//!
//! The bounded loop also drops, unread, a SUM node of a group of 2 to
//! `LAZY_MIN − 1` members whose supporting plane (`PlaneBound`, whose
//! soundness `crates/geom/tests/bounds.rs` pins) reaches `best_dist`. The
//! `k`-aware entry [`reference_k_gnn`] learns the same rule from its own
//! state: it keeps the `k` smallest exact distances over the entries of
//! every leaf it has read, and drops a popped node whose plane is at or
//! above the largest of them.

use gnn::geom::bound::PlaneBound;
use gnn::geom::OrderedF64;
use gnn::prelude::*;
use gnn::rtree::{PageId, PageRef};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A data point keyed by its exact aggregate distance.
    Exact(LeafEntry),
    /// A data point keyed by its filter bound, not yet converted.
    Filtered(LeafEntry),
    /// A page with its MBR (none for the root).
    Node(PageId, Option<Rect>),
}

#[derive(Debug, Clone, Copy)]
struct Item {
    key: OrderedF64,
    kind: Kind,
}

impl Item {
    fn rank(&self) -> (u8, u64) {
        match self.kind {
            Kind::Exact(e) => (0, e.id.0),
            Kind::Filtered(e) => (1, e.id.0),
            Kind::Node(page, _) => (2, u64::from(page.raw())),
        }
    }
}

impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.rank().cmp(&other.rank()))
    }
}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Item {}

/// The smallest SUM group the bounded loop keys lazily (a private constant
/// of `gnn-core`'s `mbm.rs`); below it, from two members, it checks the
/// supporting plane.
pub const LAZY_MIN: usize = 48;

/// The `k`-aware drop rule: the group's plane, and the `k` smallest exact
/// distances over the entries of the leaves read so far.
struct PlaneRule {
    qx: Vec<f64>,
    qy: Vec<f64>,
    w: Vec<f64>,
    k: usize,
    seen: BinaryHeap<OrderedF64>,
}

impl PlaneRule {
    /// `best_dist` as the bounded loop holds it: the `k`-th smallest exact
    /// distance read, `∞` before `k` have been.
    fn best_dist(&self) -> f64 {
        match self.seen.peek() {
            Some(top) if self.seen.len() == self.k => top.get(),
            _ if self.k == 0 => f64::NEG_INFINITY,
            _ => f64::INFINITY,
        }
    }

    fn read(&mut self, dist: f64) {
        self.seen.push(OrderedF64(dist));
        if self.seen.len() > self.k {
            self.seen.pop();
        }
    }

    fn drops(&self, rect: &Rect) -> bool {
        PlaneBound::new(&self.qx, &self.qy, &self.w).lower(rect) >= self.best_dist()
    }
}

/// The reference stream over one cursor: yields neighbors in ascending
/// `dist(p, Q)`, reading pages lazily.
pub struct ReferenceStream<'c, 't, 'g> {
    cursor: &'c TreeCursor<'t>,
    group: &'g QueryGroup,
    heap: BinaryHeap<Reverse<Item>>,
    /// The bounded loop's plane rule, where the stream is `k`-aware and
    /// the group has a plane.
    plane: Option<PlaneRule>,
}

impl<'c, 't, 'g> ReferenceStream<'c, 't, 'g> {
    pub fn new(cursor: &'c TreeCursor<'t>, group: &'g QueryGroup) -> Self {
        let mut stream = ReferenceStream {
            cursor,
            group,
            heap: BinaryHeap::new(),
            plane: None,
        };
        if !cursor.is_empty() {
            // The root must always be expanded.
            stream.push(0.0, Kind::Node(cursor.root(), None));
        }
        stream
    }

    /// The stream that reads what the bounded loop reads for `k`
    /// neighbors: it drops a node as that loop's plane would.
    pub fn bounded(cursor: &'c TreeCursor<'t>, group: &'g QueryGroup, k: usize) -> Self {
        let mut stream = Self::new(cursor, group);
        let n = group.len();
        if group.aggregate() == Aggregate::Sum && (2..LAZY_MIN).contains(&n) {
            stream.plane = Some(PlaneRule {
                qx: group.points().iter().map(|p| p.x).collect(),
                qy: group.points().iter().map(|p| p.y).collect(),
                w: (0..n).map(|i| group.weight(i)).collect(),
                k,
                seen: BinaryHeap::new(),
            });
        }
        stream
    }

    fn push(&mut self, key: f64, kind: Kind) {
        self.heap.push(Reverse(Item {
            key: OrderedF64(key),
            kind,
        }));
    }
}

impl Iterator for ReferenceStream<'_, '_, '_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        let group = self.group;
        while let Some(Reverse(item)) = self.heap.pop() {
            match item.kind {
                Kind::Exact(e) => {
                    return Some(Neighbor {
                        id: e.id,
                        point: e.point,
                        dist: item.key.get(),
                    });
                }
                Kind::Filtered(e) => self.push(group.dist(e.point), Kind::Exact(e)),
                Kind::Node(page, rect) => {
                    if let (Some(rule), Some(rect)) = (&self.plane, rect) {
                        if rule.drops(&rect) {
                            continue;
                        }
                    }
                    match self.cursor.read(page) {
                        PageRef::Leaf(leaf) => {
                            for e in leaf.entries() {
                                if let Some(rule) = &mut self.plane {
                                    rule.read(group.dist(e.point));
                                }
                                self.push(group.cheap_bound_point(e.point), Kind::Filtered(e));
                            }
                        }
                        PageRef::Internal(branches) => {
                            for (mbr, child) in branches.iter() {
                                let cheap = group.cheap_bound_rect(&mbr);
                                let tight = group.tight_bound_rect_reference(&mbr);
                                self.push(cheap.max(tight), Kind::Node(child, Some(mbr)));
                            }
                        }
                    }
                }
            }
        }
        None
    }
}

/// The reference k-GNN: the `k`-aware stream's first `k` items (pulling a
/// `(k+1)`-th would only read pages the bounded loop never needs).
pub fn reference_k_gnn(cursor: &TreeCursor<'_>, group: &QueryGroup, k: usize) -> Vec<Neighbor> {
    ReferenceStream::bounded(cursor, group, k).take(k).collect()
}

/// The stream's first `k` items without the plane: the pages the library's
/// `MbmStream`, which has no `k` and no `best_dist`, reads for them.
#[allow(dead_code)] // `packed_equivalence` holds only the bounded loop
pub fn reference_stream_prefix(
    cursor: &TreeCursor<'_>,
    group: &QueryGroup,
    k: usize,
) -> Vec<Neighbor> {
    ReferenceStream::new(cursor, group).take(k).collect()
}
