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
//! bounded loop reads.

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
    Node(PageId),
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
            Kind::Node(page) => (2, u64::from(page.raw())),
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

/// The reference stream over one cursor: yields neighbors in ascending
/// `dist(p, Q)`, reading pages lazily.
pub struct ReferenceStream<'c, 't, 'g> {
    cursor: &'c TreeCursor<'t>,
    group: &'g QueryGroup,
    heap: BinaryHeap<Reverse<Item>>,
}

impl<'c, 't, 'g> ReferenceStream<'c, 't, 'g> {
    pub fn new(cursor: &'c TreeCursor<'t>, group: &'g QueryGroup) -> Self {
        let mut stream = ReferenceStream {
            cursor,
            group,
            heap: BinaryHeap::new(),
        };
        if !cursor.is_empty() {
            // The root must always be expanded.
            stream.push(0.0, Kind::Node(cursor.root()));
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
                Kind::Node(page) => match self.cursor.read(page) {
                    PageRef::Leaf(leaf) => {
                        for &e in leaf.entries() {
                            self.push(group.cheap_bound_point(e.point), Kind::Filtered(e));
                        }
                    }
                    PageRef::Internal(branches) => {
                        for (mbr, child) in branches.iter() {
                            let cheap = group.cheap_bound_rect(&mbr);
                            let tight = group.tight_bound_rect_reference(&mbr);
                            self.push(cheap.max(tight), Kind::Node(child));
                        }
                    }
                },
            }
        }
        None
    }
}

/// The reference k-GNN: the stream's first `k` items (pulling a `(k+1)`-th
/// would only read pages the bounded loop never needs).
pub fn reference_k_gnn(cursor: &TreeCursor<'_>, group: &QueryGroup, k: usize) -> Vec<Neighbor> {
    ReferenceStream::new(cursor, group).take(k).collect()
}
