//! Point nearest-neighbor search over the R\*-tree.
//!
//! [`NearestNeighbors`] is the best-first (BF) algorithm of Hjaltason &
//! Samet \[HS99\] (paper §2): I/O-optimal and *incremental*, reporting
//! neighbors in ascending distance without knowing `k` in advance. MQM and
//! SPM are built on this iterator.
//!
//! The best-first heap is keyed by **squared** distance — squared values
//! order identically, so the `sqrt` is paid only when an item is actually
//! yielded — and node/leaf expansions run through the batched `mindist²`
//! kernels, straight over the snapshot's lane-padded SoA pages; every leaf
//! entry is one heap item. A search borrows its heap and bound buffer from
//! a [`NnScratch`], so steady-state searches through a warmed-up scratch
//! are allocation-free.

use crate::cursor::TreeCursor;
use crate::node::{LeafEntry, PageId, PageRef};
use gnn_geom::{OrderedF64, Point};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A neighbor produced by NN search: the entry and its distance to the
/// query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointNeighbor {
    /// The data entry.
    pub entry: LeafEntry,
    /// Euclidean distance `|entry.point, q|`.
    pub dist: f64,
}

/// Heap element of the best-first search: a pending node or data point keyed
/// by its minimum possible **squared** distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct BfItem {
    dist_sq: OrderedF64,
    /// Points (rank 0) pop before nodes (rank 1) at equal distance so that
    /// results are emitted as early as possible.
    rank: u8,
    kind: BfKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BfKind {
    Node(PageId),
    Point(LeafEntry),
}

// BinaryHeap needs a total order; distances and ranks decide, the payload is
// ordered arbitrarily (by page id / point id) just to satisfy `Ord`.
impl Eq for BfKind {}
impl PartialOrd for BfKind {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BfKind {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn key(k: &BfKind) -> (u8, u64) {
            match k {
                BfKind::Node(p) => (1, u64::from(p.raw())),
                BfKind::Point(e) => (0, e.id.0),
            }
        }
        key(self).cmp(&key(other))
    }
}

/// Reusable storage of one best-first NN search: the priority queue and the
/// batched-kernel output buffer. Hold one per concurrent stream (MQM keeps a
/// pool, one per query point) and the warmed-up capacities make steady-state
/// searches allocation-free.
#[derive(Debug, Default)]
pub struct NnScratch {
    heap: BinaryHeap<Reverse<BfItem>>,
    bounds: Vec<f64>,
}

impl NnScratch {
    /// Every internal buffer capacity (for the no-regrowth tests — any
    /// buffer omitted here could silently reintroduce steady-state
    /// allocations).
    pub fn capacity_profile(&self) -> impl Iterator<Item = usize> + '_ {
        [self.heap.capacity(), self.bounds.capacity()].into_iter()
    }

    fn reset(&mut self) {
        self.heap.clear();
        self.bounds.clear();
    }
}

/// Incremental best-first nearest-neighbor iterator \[HS99\].
///
/// Yields data points in ascending distance from `query`; pull as many as
/// needed. The traversal reads only the nodes whose MBR intersects the
/// vicinity circle of the last reported neighbor — the I/O-optimal behavior
/// the paper relies on for MQM's threshold algorithm.
///
/// ```
/// use gnn_geom::{Point, PointId};
/// use gnn_rtree::{LeafEntry, NearestNeighbors, NnScratch, RTree, RTreeParams};
///
/// let mut tree = RTree::new(RTreeParams::default());
/// for (i, xy) in [(0.0, 0.0), (5.0, 5.0), (1.0, 1.0)].iter().enumerate() {
///     tree.insert(LeafEntry::new(PointId(i as u64), Point::new(xy.0, xy.1)));
/// }
/// let snapshot = tree.freeze();
/// let cursor = snapshot.cursor();
/// let mut scratch = NnScratch::default();
/// let mut nn = NearestNeighbors::new_in(&cursor, Point::new(0.9, 0.9), &mut scratch);
/// assert_eq!(nn.next().unwrap().entry.id, PointId(2));
/// assert_eq!(nn.next().unwrap().entry.id, PointId(0));
/// assert_eq!(nn.next().unwrap().entry.id, PointId(1));
/// assert!(nn.next().is_none());
/// ```
pub struct NearestNeighbors<'t, 'c, 's> {
    cursor: &'c TreeCursor<'t>,
    query: Point,
    scratch: &'s mut NnScratch,
}

impl<'t, 'c, 's> NearestNeighbors<'t, 'c, 's> {
    /// Starts an incremental NN search at `query` in `scratch` (cleared
    /// first). Steady-state searches through a warmed-up scratch do not
    /// allocate.
    pub fn new_in(
        cursor: &'c TreeCursor<'t>,
        query: Point,
        scratch: &'s mut NnScratch,
    ) -> NearestNeighbors<'t, 'c, 's> {
        scratch.reset();
        if !cursor.is_empty() {
            scratch.heap.push(Reverse(BfItem {
                dist_sq: OrderedF64(cursor.root_mbr().mindist_point_sq(query)),
                rank: 1,
                kind: BfKind::Node(cursor.root()),
            }));
        }
        NearestNeighbors {
            cursor,
            query,
            scratch,
        }
    }

    /// Re-attaches to a suspended search whose state lives in `scratch`
    /// (seeded earlier by [`NearestNeighbors::new_in`] with the same cursor
    /// and query): nothing is cleared, the search continues where it
    /// stopped. MQM's round-robin turns are served this way — the borrow
    /// lives only for one pull, so a pool of scratches can back any number
    /// of interleaved streams.
    pub fn resume_in(
        cursor: &'c TreeCursor<'t>,
        query: Point,
        scratch: &'s mut NnScratch,
    ) -> NearestNeighbors<'t, 'c, 's> {
        NearestNeighbors {
            cursor,
            query,
            scratch,
        }
    }
}

impl Iterator for NearestNeighbors<'_, '_, '_> {
    type Item = PointNeighbor;

    fn next(&mut self) -> Option<PointNeighbor> {
        let query = self.query;
        let cursor = self.cursor;
        let scratch = &mut *self.scratch;
        while let Some(Reverse(item)) = scratch.heap.pop() {
            match item.kind {
                BfKind::Point(entry) => {
                    return Some(PointNeighbor {
                        entry,
                        dist: item.dist_sq.get().sqrt(),
                    });
                }
                BfKind::Node(id) => match cursor.read(id) {
                    PageRef::Leaf(leaf) => {
                        leaf.dist_sq_into(query, &mut scratch.bounds);
                        for (e, &d2) in leaf.entries().zip(&scratch.bounds) {
                            scratch.heap.push(Reverse(BfItem {
                                dist_sq: OrderedF64(d2),
                                rank: 0,
                                kind: BfKind::Point(e),
                            }));
                        }
                    }
                    PageRef::Internal(view) => {
                        view.mindist_sq_point_into(query, &mut scratch.bounds);
                        for (i, &d2) in scratch.bounds.iter().enumerate() {
                            scratch.heap.push(Reverse(BfItem {
                                dist_sq: OrderedF64(d2),
                                rank: 1,
                                kind: BfKind::Node(view.child(i)),
                            }));
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
    use crate::node::LeafEntry;
    use crate::{PackedRTree, RTree, RTreeParams};
    use gnn_geom::PointId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> (PackedRTree, Vec<LeafEntry>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RTree::new(RTreeParams::with_capacity(8));
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let e = LeafEntry::new(
                PointId(i as u64),
                Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
            );
            tree.insert(e);
            entries.push(e);
        }
        (tree.freeze(), entries)
    }

    fn brute_force_knn(entries: &[LeafEntry], q: Point, k: usize) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = entries.iter().map(|e| (e.id.0, e.point.dist(q))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// The first `k` neighbors of a fresh search.
    fn k_nearest(cursor: &TreeCursor<'_>, q: Point, k: usize) -> Vec<PointNeighbor> {
        let mut scratch = NnScratch::default();
        NearestNeighbors::new_in(cursor, q, &mut scratch)
            .take(k)
            .collect()
    }

    #[test]
    fn incremental_nn_is_sorted_and_complete() {
        let (tree, entries) = random_tree(500, 1);
        let cursor = tree.cursor();
        let q = Point::new(42.0, 17.0);
        let results = k_nearest(&cursor, q, usize::MAX);
        assert_eq!(results.len(), entries.len());
        for w in results.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // Distances must match a direct computation (up to the sqrt of the
        // squared-key representation, which is exact for exact squares).
        for r in &results {
            assert!((r.dist - r.entry.point.dist(q)).abs() < 1e-12);
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let (tree, entries) = random_tree(800, 2);
        let cursor = tree.cursor();
        for &k in &[1usize, 5, 32] {
            for seed in 0..10u64 {
                let mut rng = StdRng::seed_from_u64(seed + 100);
                let q = Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0);
                let got: Vec<f64> = k_nearest(&cursor, q, k).iter().map(|r| r.dist).collect();
                let want: Vec<f64> = brute_force_knn(&entries, q, k)
                    .iter()
                    .map(|&(_, d)| d)
                    .collect();
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-12, "k={k} seed={seed}");
                }
                assert_eq!(got.len(), want.len());
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_brute_force_and_does_not_regrow() {
        let (tree, entries) = random_tree(800, 11);
        let cursor = tree.cursor();
        let mut scratch = NnScratch::default();
        let mut rng = StdRng::seed_from_u64(77);
        let queries: Vec<Point> = (0..20)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        // Warm-up pass.
        for &q in &queries {
            let _ = NearestNeighbors::new_in(&cursor, q, &mut scratch)
                .take(5)
                .count();
        }
        let profile: Vec<usize> = scratch.capacity_profile().collect();
        // Steady state: capacities must not regrow, answers must match.
        for &q in &queries {
            let got: Vec<f64> = NearestNeighbors::new_in(&cursor, q, &mut scratch)
                .take(5)
                .map(|r| r.dist)
                .collect();
            let want: Vec<f64> = brute_force_knn(&entries, q, 5)
                .iter()
                .map(|&(_, d)| d)
                .collect();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12);
            }
            assert!(
                scratch.capacity_profile().eq(profile.iter().copied()),
                "scratch regrew"
            );
        }
    }

    #[test]
    fn knn_with_k_larger_than_dataset() {
        let (tree, entries) = random_tree(10, 5);
        let cursor = tree.cursor();
        for k in [50, usize::MAX] {
            let got = k_nearest(&cursor, Point::new(0.0, 0.0), k);
            assert_eq!(got.len(), entries.len());
        }
    }

    #[test]
    fn knn_on_empty_tree() {
        let tree = RTree::new(RTreeParams::default()).freeze();
        let cursor = tree.cursor();
        assert!(k_nearest(&cursor, Point::ORIGIN, 3).is_empty());
    }

    #[test]
    fn duplicate_points_all_reported() {
        let mut tree = RTree::new(RTreeParams::with_capacity(4));
        for i in 0..25 {
            tree.insert(LeafEntry::new(PointId(i), Point::new(1.0, 1.0)));
        }
        let packed = tree.freeze();
        let cursor = packed.cursor();
        let res = k_nearest(&cursor, Point::new(0.0, 0.0), usize::MAX);
        assert_eq!(res.len(), 25);
        assert!(res.iter().all(|r| (r.dist - 2f64.sqrt()).abs() < 1e-12));
    }

    #[test]
    fn cross_leaf_distance_ties_emit_in_point_id_order() {
        // Regression: equal distances tie-break by point id, whatever leaf
        // the points came from. (6,8) and (8,6) are both at d²=100 from the
        // origin but live in different leaves (each padded with neighbors
        // so both leaves are expanded before the tie pops); a tie-break by
        // leaf-expansion order once returned a different 5th neighbor.
        let mut tree = RTree::new(RTreeParams::with_capacity(4));
        let mut entries = Vec::new();
        for (id, x, y) in [
            (20u64, 6.0, 8.0),
            (21, 6.0, 7.5),
            (22, 6.1, 7.6),
            (23, 5.9, 7.7),
            (3, 8.0, 6.0),
            (4, 8.0, 5.9),
            (5, 8.1, 6.1),
            (6, 7.9, 6.2),
        ] {
            let e = LeafEntry::new(PointId(id), Point::new(x, y));
            tree.insert(e);
            entries.push(e);
        }
        let packed = tree.freeze();
        let q = Point::ORIGIN;
        let got: Vec<u64> = k_nearest(&packed.cursor(), q, usize::MAX)
            .iter()
            .map(|r| r.entry.id.0)
            .collect();
        entries.sort_by(|a, b| {
            a.point
                .dist_sq(q)
                .total_cmp(&b.point.dist_sq(q))
                .then(a.id.cmp(&b.id))
        });
        let want: Vec<u64> = entries.iter().map(|e| e.id.0).collect();
        assert_eq!(got, want, "ties must emit in point-id order");
        let at = |id: u64| got.iter().position(|&g| g == id).unwrap();
        assert!(at(3) < at(20), "scenario: the tie at d² = 100");
    }

    #[test]
    fn duplicate_points_do_not_inflate_node_accesses() {
        // Regression: point heap items must carry point rank (0). With node
        // rank they lose every distance tie to pending nodes, so a tree of
        // duplicate points made the engine expand *every* tied leaf before
        // emitting anything. One internal level (8 points, capacity 4, k
        // smaller than any leaf) isolates the point-vs-node tie: the search
        // must read exactly root + one leaf.
        let mut tree = RTree::new(RTreeParams::with_capacity(4));
        for i in 0..8 {
            tree.insert(LeafEntry::new(PointId(i), Point::new(1.0, 1.0)));
        }
        assert_eq!(tree.height(), 2, "one internal level wanted");
        let packed = tree.freeze();
        let cursor = packed.cursor();
        let got = k_nearest(&cursor, Point::new(0.0, 0.0), 2);
        assert_eq!(got.len(), 2);
        assert_eq!(cursor.stats().logical, 2, "root + one leaf");
    }
}
