//! The bounded best-k list every algorithm maintains.

use crate::result::Neighbor;
use gnn_geom::OrderedF64;
use std::collections::BinaryHeap;

/// A max-heap of the `k` best (smallest-distance) neighbors found so far.
///
/// `bound()` is the paper's `best_dist`: the distance of the current k-th
/// neighbor, or `∞` while fewer than `k` neighbors are known. Every pruning
/// heuristic compares a lower bound against it with `>=` — a candidate tying
/// the k-th distance cannot improve the result, so pruning on equality is
/// safe. A `k = 0` list is full while empty and its bound is `−∞`: every
/// such prune fires at once and [`KBestList::offer`] refuses everything.
#[derive(Debug, Clone)]
pub struct KBestList {
    k: usize,
    // Max-heap keyed by (dist, id): the worst retained neighbor on top.
    heap: BinaryHeap<(OrderedF64, HeapNeighbor)>,
}

/// `Neighbor` without the float in `Ord` position (heap key carries it);
/// ordered by id first, so the heap's key is `(dist, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapNeighbor {
    id: u64,
    x_bits: u64,
    y_bits: u64,
}

impl PartialOrd for HeapNeighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNeighbor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.id, self.x_bits, self.y_bits).cmp(&(other.id, other.x_bits, other.y_bits))
    }
}

impl Default for KBestList {
    /// An empty `k = 1` list — callers that embed a list in reusable scratch
    /// re-arm it per query with [`KBestList::reset`] anyway.
    fn default() -> Self {
        KBestList::new(1)
    }
}

/// Largest `k` [`KBestList::new`] sizes its heap for up front. Beyond it the
/// heap grows as neighbors arrive: `k` may exceed the data size by any
/// amount (`usize::MAX` included) and costs only what is retained.
const PRESIZE_LIMIT: usize = 256;

impl KBestList {
    /// A list retaining the best `k` neighbors.
    pub fn new(k: usize) -> Self {
        KBestList {
            k,
            heap: BinaryHeap::with_capacity(k.min(PRESIZE_LIMIT) + 1),
        }
    }

    /// The capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Allocated heap capacity (diagnostics for the no-regrowth tests).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Number of neighbors currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no neighbor has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `k` neighbors have been found (the paper's `best_dist < ∞`).
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The pruning bound `best_dist`: distance of the k-th best neighbor, or
    /// `∞` while the list is not yet full (`−∞` when `k = 0`).
    pub fn bound(&self) -> f64 {
        if self.is_full() {
            self.heap
                .peek()
                .map_or(f64::NEG_INFINITY, |top| top.0.get())
        } else {
            f64::INFINITY
        }
    }

    /// Offers a neighbor; it enters iff it beats the current bound. Returns
    /// whether it was retained.
    ///
    /// The caller is responsible for not offering the same data point twice
    /// (algorithms deduplicate by id where repeats are possible).
    pub fn offer(&mut self, n: Neighbor) -> bool {
        if n.dist >= self.bound() {
            return false;
        }
        self.heap.push((
            OrderedF64(n.dist),
            HeapNeighbor {
                id: n.id.0,
                x_bits: n.point.x.to_bits(),
                y_bits: n.point.y.to_bits(),
            },
        ));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
        true
    }

    /// Empties the list and re-arms it for a new query retaining `k`
    /// neighbors. The heap's capacity is kept, so a warmed-up list never
    /// reallocates in steady state.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Drains the retained neighbors into `out` (cleared first), sorted by
    /// ascending distance (ties by id). Leaves the list empty but keeps its
    /// capacity — the allocation-free sibling of [`KBestList::into_sorted`].
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Neighbor>) {
        out.clear();
        out.extend(self.heap.drain().map(|(d, h)| Neighbor {
            id: gnn_geom::PointId(h.id),
            point: gnn_geom::Point::new(f64::from_bits(h.x_bits), f64::from_bits(h.y_bits)),
            dist: d.get(),
        }));
        out.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    }

    /// Extracts the retained neighbors sorted by ascending distance (ties by
    /// id).
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        let mut v = Vec::with_capacity(self.heap.len());
        self.drain_sorted_into(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_geom::{Point, PointId};

    fn nb(id: u64, dist: f64) -> Neighbor {
        Neighbor {
            id: PointId(id),
            point: Point::new(id as f64, 0.0),
            dist,
        }
    }

    #[test]
    fn keeps_k_smallest() {
        let mut list = KBestList::new(3);
        for (id, d) in [(1, 5.0), (2, 1.0), (3, 4.0), (4, 2.0), (5, 9.0)] {
            list.offer(nb(id, d));
        }
        let out = list.into_sorted();
        let dists: Vec<f64> = out.iter().map(|n| n.dist).collect();
        assert_eq!(dists, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn bound_transitions_from_infinity() {
        let mut list = KBestList::new(2);
        assert_eq!(list.bound(), f64::INFINITY);
        list.offer(nb(1, 3.0));
        assert_eq!(list.bound(), f64::INFINITY, "not full yet");
        list.offer(nb(2, 5.0));
        assert_eq!(list.bound(), 5.0);
        list.offer(nb(3, 1.0));
        assert_eq!(list.bound(), 3.0);
    }

    #[test]
    fn equal_distance_does_not_enter_a_full_list() {
        let mut list = KBestList::new(1);
        assert!(list.offer(nb(1, 2.0)));
        assert!(!list.offer(nb(2, 2.0)), "tie must not displace");
        assert_eq!(list.into_sorted()[0].id, PointId(1));
    }

    #[test]
    fn rejects_worse_offers() {
        let mut list = KBestList::new(1);
        list.offer(nb(1, 2.0));
        assert!(!list.offer(nb(2, 7.0)));
        assert!(list.offer(nb(3, 1.0)));
        assert_eq!(list.len(), 1);
        assert_eq!(list.into_sorted()[0].id, PointId(3));
    }

    #[test]
    fn preserves_point_coordinates() {
        let mut list = KBestList::new(1);
        let n = Neighbor {
            id: PointId(9),
            point: Point::new(-1.25, 3.5),
            dist: 0.5,
        };
        list.offer(n);
        assert_eq!(list.into_sorted()[0], n);
    }

    #[test]
    fn zero_k_prunes_everything_and_refuses_every_offer() {
        let mut list = KBestList::new(0);
        assert!(list.is_full());
        assert_eq!(list.bound(), f64::NEG_INFINITY);
        assert!(!list.offer(nb(1, 0.0)));
        assert!(!list.offer(nb(2, f64::NEG_INFINITY)));
        list.reset(0);
        assert!(list.into_sorted().is_empty());
    }

    #[test]
    fn a_k_beyond_any_data_allocates_only_what_it_retains() {
        let mut list = KBestList::new(usize::MAX);
        assert!(list.capacity() <= PRESIZE_LIMIT + 1);
        for id in 0..3 {
            assert!(list.offer(nb(id, id as f64)));
        }
        assert!(!list.is_full());
        assert_eq!(list.bound(), f64::INFINITY);
        assert_eq!(list.into_sorted().len(), 3);
    }
}
