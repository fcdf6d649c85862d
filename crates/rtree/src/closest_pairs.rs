//! Incremental closest-pair enumeration between two R-trees.
//!
//! The substrate of the paper's GCP algorithm (§4.1): an adaptation of the
//! best-first distance-join of Hjaltason & Samet \[HS98\] / Corral et al.
//! \[CMTV00\] that reports point pairs `(p ∈ P, q ∈ Q)` in ascending order
//! of `|pq|`, reading both trees lazily.
//!
//! The priority queue can grow towards `|P| × |Q|` in the worst case — the
//! paper observes that GCP "does not terminate at all due to the huge heap
//! requirements" for large query workspaces. [`ClosestPairs::with_heap_limit`]
//! reproduces that failure mode deterministically: when the heap exceeds the
//! limit the stream stops and reports [`ClosestPairs::overflowed`]. The high
//! watermark is always tracked so experiments can report heap pressure.

use crate::cursor::TreeCursor;
use crate::node::{LeafEntry, PageId, PageRef};
use gnn_geom::{OrderedF64, Rect};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A closest pair: one point from each tree and their distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairResult {
    /// Entry from the first tree (`P` in the paper).
    pub p: LeafEntry,
    /// Entry from the second tree (`Q` in the paper).
    pub q: LeafEntry,
    /// Euclidean distance `|pq|`.
    pub dist: f64,
}

/// One side of a pending pair.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Side {
    Node { id: PageId, mbr: Rect },
    Point(LeafEntry),
}

impl Side {
    fn mindist(&self, other: &Side) -> f64 {
        match (self, other) {
            (Side::Node { mbr: a, .. }, Side::Node { mbr: b, .. }) => a.mindist_rect(b),
            (Side::Node { mbr, .. }, Side::Point(e)) | (Side::Point(e), Side::Node { mbr, .. }) => {
                mbr.mindist_point(e.point)
            }
            (Side::Point(a), Side::Point(b)) => a.point.dist(b.point),
        }
    }

    fn sort_key(&self) -> (u8, u64) {
        match self {
            Side::Point(e) => (0, e.id.0),
            Side::Node { id, .. } => (1, u64::from(id.raw())),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct CpItem {
    dist: OrderedF64,
    a: Side,
    b: Side,
}

impl Eq for CpItem {}
impl PartialOrd for CpItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CpItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Distance first; point-point pairs pop before node pairs at equal
        // distance so results surface as early as possible; remaining
        // components only break ties for a total order.
        self.dist
            .cmp(&other.dist)
            .then_with(|| self.a.sort_key().cmp(&other.a.sort_key()))
            .then_with(|| self.b.sort_key().cmp(&other.b.sort_key()))
    }
}

/// Best-first incremental closest-pair stream over two trees.
pub struct ClosestPairs<'p, 'q> {
    p: &'p TreeCursor<'p>,
    q: &'q TreeCursor<'q>,
    heap: BinaryHeap<Reverse<CpItem>>,
    heap_limit: usize,
    watermark: usize,
    overflowed: bool,
}

impl<'p, 'q> ClosestPairs<'p, 'q> {
    /// Starts the stream with no heap bound.
    pub fn new(p: &'p TreeCursor<'p>, q: &'q TreeCursor<'q>) -> Self {
        Self::with_heap_limit(p, q, usize::MAX)
    }

    /// Starts the stream; when the priority queue would exceed `limit`
    /// entries the stream stops and [`ClosestPairs::overflowed`] turns true
    /// (the paper's "GCP does not terminate" regime).
    pub fn with_heap_limit(p: &'p TreeCursor<'p>, q: &'q TreeCursor<'q>, limit: usize) -> Self {
        let mut heap = BinaryHeap::new();
        if !p.is_empty() && !q.is_empty() {
            let a = Side::Node {
                id: p.root(),
                mbr: p.root_mbr(),
            };
            let b = Side::Node {
                id: q.root(),
                mbr: q.root_mbr(),
            };
            heap.push(Reverse(CpItem {
                dist: OrderedF64(a.mindist(&b)),
                a,
                b,
            }));
        }
        ClosestPairs {
            p,
            q,
            heap: heap.into_iter().collect(),
            heap_limit: limit,
            watermark: 1,
            overflowed: false,
        }
    }

    /// Largest size the priority queue has reached.
    pub fn heap_watermark(&self) -> usize {
        self.watermark
    }

    /// Whether the stream stopped because the heap limit was hit.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Next closest pair in ascending distance, or `None` when the stream is
    /// exhausted **or** the heap limit was exceeded (check
    /// [`ClosestPairs::overflowed`] to tell the cases apart).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<PairResult> {
        if self.overflowed {
            return None;
        }
        while let Some(Reverse(item)) = self.heap.pop() {
            match (item.a, item.b) {
                (Side::Point(p), Side::Point(q)) => {
                    return Some(PairResult {
                        p,
                        q,
                        dist: item.dist.get(),
                    });
                }
                (a, b) => {
                    self.expand(a, b);
                    if self.overflowed {
                        return None;
                    }
                }
            }
        }
        None
    }

    /// Expands the "larger" node side, pairing each of its children with the
    /// other side.
    fn expand(&mut self, a: Side, b: Side) {
        let expand_a = match (&a, &b) {
            (Side::Node { mbr: ma, .. }, Side::Node { mbr: mb, .. }) => ma.area() >= mb.area(),
            (Side::Node { .. }, Side::Point(_)) => true,
            (Side::Point(_), Side::Node { .. }) => false,
            (Side::Point(_), Side::Point(_)) => {
                unreachable!("point pairs are yielded, not expanded")
            }
        };
        let (expanded_sides, fixed, expanded_is_a) = if expand_a {
            let Side::Node { id, .. } = a else {
                unreachable!()
            };
            (self.children(self.p, id), b, true)
        } else {
            let Side::Node { id, .. } = b else {
                unreachable!()
            };
            (self.children(self.q, id), a, false)
        };
        for side in expanded_sides {
            let (na, nb) = if expanded_is_a {
                (side, fixed)
            } else {
                (fixed, side)
            };
            let item = CpItem {
                dist: OrderedF64(na.mindist(&nb)),
                a: na,
                b: nb,
            };
            if self.heap.len() >= self.heap_limit {
                self.overflowed = true;
                return;
            }
            self.heap.push(Reverse(item));
        }
        self.watermark = self.watermark.max(self.heap.len());
    }

    fn children(&self, cursor: &TreeCursor<'_>, id: PageId) -> Vec<Side> {
        match cursor.read(id) {
            PageRef::Leaf(leaf) => leaf.entries().map(Side::Point).collect(),
            PageRef::Internal(view) => view
                .iter()
                .map(|(mbr, child)| Side::Node { id: child, mbr })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafEntry;
    use crate::{PackedRTree, RTree, RTreeParams};
    use gnn_geom::{Point, PointId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tree_from(points: &[(f64, f64)], id_base: u64) -> PackedRTree {
        RTree::bulk_load(
            RTreeParams::with_capacity(4),
            points
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| LeafEntry::new(PointId(id_base + i as u64), Point::new(x, y))),
        )
        .freeze()
    }

    fn all_pairs_sorted(ps: &[(f64, f64)], qs: &[(f64, f64)]) -> Vec<f64> {
        let mut d: Vec<f64> = ps
            .iter()
            .flat_map(|&(px, py)| {
                qs.iter()
                    .map(move |&(qx, qy)| Point::new(px, py).dist(Point::new(qx, qy)))
            })
            .collect();
        d.sort_by(f64::total_cmp);
        d
    }

    #[test]
    fn pairs_come_out_sorted_and_complete() {
        let mut rng = StdRng::seed_from_u64(77);
        let ps: Vec<(f64, f64)> = (0..40)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let qs: Vec<(f64, f64)> = (0..25)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let tp = tree_from(&ps, 0);
        let tq = tree_from(&qs, 1000);
        let cp_p = tp.cursor();
        let cp_q = tq.cursor();
        let mut cp = ClosestPairs::new(&cp_p, &cp_q);
        let mut got = Vec::new();
        while let Some(pair) = cp.next() {
            assert_eq!(pair.dist, pair.p.point.dist(pair.q.point));
            got.push(pair.dist);
        }
        assert!(!cp.overflowed());
        let want = all_pairs_sorted(&ps, &qs);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn first_pair_is_the_global_closest() {
        let ps = [(0.0, 0.0), (10.0, 10.0), (5.0, 5.0)];
        let qs = [(5.1, 5.1), (20.0, 20.0)];
        let tp = tree_from(&ps, 0);
        let tq = tree_from(&qs, 100);
        let cp_p = tp.cursor();
        let cp_q = tq.cursor();
        let mut cp = ClosestPairs::new(&cp_p, &cp_q);
        let first = cp.next().unwrap();
        assert_eq!(first.p.id, PointId(2));
        assert_eq!(first.q.id, PointId(100));
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let tp = tree_from(&[(0.0, 0.0)], 0);
        let tq = RTree::new(RTreeParams::default()).freeze();
        let cp_p = tp.cursor();
        let cp_q = tq.cursor();
        let mut cp = ClosestPairs::new(&cp_p, &cp_q);
        assert!(cp.next().is_none());
        assert!(!cp.overflowed());
    }

    #[test]
    fn heap_limit_stops_the_stream() {
        let mut rng = StdRng::seed_from_u64(5);
        let ps: Vec<(f64, f64)> = (0..200)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let qs: Vec<(f64, f64)> = (0..200)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let tp = tree_from(&ps, 0);
        let tq = tree_from(&qs, 10_000);
        let cp_p = tp.cursor();
        let cp_q = tq.cursor();
        let mut cp = ClosestPairs::with_heap_limit(&cp_p, &cp_q, 64);
        let mut count = 0;
        while cp.next().is_some() {
            count += 1;
        }
        assert!(cp.overflowed());
        assert!(count < 200 * 200);
        assert!(cp.heap_watermark() <= 64);
    }

    #[test]
    fn watermark_tracks_heap_growth() {
        let mut rng = StdRng::seed_from_u64(6);
        let ps: Vec<(f64, f64)> = (0..100)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let qs: Vec<(f64, f64)> = (0..100)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let tp = tree_from(&ps, 0);
        let tq = tree_from(&qs, 10_000);
        let cp_p = tp.cursor();
        let cp_q = tq.cursor();
        let mut cp = ClosestPairs::new(&cp_p, &cp_q);
        for _ in 0..50 {
            cp.next();
        }
        assert!(cp.heap_watermark() > 1);
    }

    #[test]
    fn self_join_closest_pair_is_duplicate_distance_zero() {
        // Joining a tree with itself: the closest pair is any point with its
        // own copy at distance 0.
        let ps = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0), (5.0, 5.0)];
        let tp = tree_from(&ps, 0);
        let tq = tree_from(&ps, 100);
        let cp_p = tp.cursor();
        let cp_q = tq.cursor();
        let mut cp = ClosestPairs::new(&cp_p, &cp_q);
        let first = cp.next().unwrap();
        assert_eq!(first.dist, 0.0);
        assert_eq!(first.p.id.0 + 100, first.q.id.0);
    }
}
