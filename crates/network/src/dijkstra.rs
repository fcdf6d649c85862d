//! Incremental network expansion (lazy Dijkstra).

use crate::graph::{RoadNetwork, VertexId};
use gnn_geom::OrderedF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An incremental Dijkstra iterator: yields `(vertex, network distance)` in
/// ascending distance from the source — the network analog of the
/// best-first NN stream (`gnn_rtree::NearestNeighbors`). Pull only as much
/// of the network as the query needs.
///
/// ```
/// use gnn_geom::Point;
/// use gnn_network::{DijkstraStream, RoadNetwork, VertexId};
///
/// let g = RoadNetwork::grid(3, 3, 0.0, 0);
/// let mut stream = DijkstraStream::new(&g, VertexId(0));
/// let (first, d0) = stream.next().unwrap();
/// assert_eq!(first, VertexId(0));
/// assert_eq!(d0, 0.0);
/// // Grid neighbors follow at distance 1.
/// let (_, d1) = stream.next().unwrap();
/// assert!((d1 - 1.0).abs() < 1e-12);
/// ```
pub struct DijkstraStream<'g> {
    graph: &'g RoadNetwork,
    dist: Vec<f64>,
    settled: Vec<bool>,
    heap: BinaryHeap<Reverse<(OrderedF64, u32)>>,
    settled_count: usize,
    relaxed_edges: u64,
}

impl<'g> DijkstraStream<'g> {
    /// Starts an expansion at `source`.
    pub fn new(graph: &'g RoadNetwork, source: VertexId) -> Self {
        let n = graph.vertex_count();
        assert!(source.index() < n, "unknown source vertex");
        let mut dist = vec![f64::INFINITY; n];
        dist[source.index()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((OrderedF64(0.0), source.0)));
        DijkstraStream {
            graph,
            dist,
            settled: vec![false; n],
            heap,
            settled_count: 0,
            relaxed_edges: 0,
        }
    }

    /// The settled distance of `v`, if it has already been produced.
    pub fn settled_distance(&self, v: VertexId) -> Option<f64> {
        self.settled[v.index()].then(|| self.dist[v.index()])
    }

    /// Vertices settled so far.
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Edge relaxations performed (the CPU metric of network expansion).
    pub fn relaxed_edges(&self) -> u64 {
        self.relaxed_edges
    }

    /// Runs the expansion until `target` settles, returning its distance
    /// (`None` if unreachable).
    pub fn distance_to(&mut self, target: VertexId) -> Option<f64> {
        if let Some(d) = self.settled_distance(target) {
            return Some(d);
        }
        for (v, d) in self.by_ref() {
            if v == target {
                return Some(d);
            }
        }
        None
    }
}

impl Iterator for DijkstraStream<'_> {
    type Item = (VertexId, f64);

    fn next(&mut self) -> Option<(VertexId, f64)> {
        while let Some(Reverse((d, v))) = self.heap.pop() {
            let vi = v as usize;
            if self.settled[vi] {
                continue; // stale heap entry
            }
            self.settled[vi] = true;
            self.settled_count += 1;
            let d = d.get();
            for (u, w) in self.graph.neighbors(VertexId(v)) {
                self.relaxed_edges += 1;
                let nd = d + w;
                if nd < self.dist[u.index()] {
                    self.dist[u.index()] = nd;
                    self.heap.push(Reverse((OrderedF64(nd), u.0)));
                }
            }
            return Some((VertexId(v), d));
        }
        None
    }
}

/// One-shot single-source shortest distances (full Dijkstra); the oracle's
/// building block.
pub fn single_source_distances(graph: &RoadNetwork, source: VertexId) -> Vec<f64> {
    let mut stream = DijkstraStream::new(graph, source);
    for _ in stream.by_ref() {}
    stream.dist
}

/// The shortest path from `source` to `target` as a vertex sequence
/// (inclusive of both endpoints) with its network length, or `None` if
/// unreachable. Parent-tracking Dijkstra with early exit at `target` — the
/// building block of the trip-based workloads (`gnn_datasets::trip_workload`
/// samples query positions along these routes).
///
/// Ties between equal-length paths resolve deterministically: the expansion
/// relaxes edges in adjacency order with strict `<` improvement, so the
/// first-discovered predecessor wins.
pub fn shortest_path(
    graph: &RoadNetwork,
    source: VertexId,
    target: VertexId,
) -> Option<(Vec<VertexId>, f64)> {
    let n = graph.vertex_count();
    assert!(source.index() < n, "unknown source vertex");
    assert!(target.index() < n, "unknown target vertex");
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<u32> = vec![u32::MAX; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(Reverse((OrderedF64(0.0), source.0)));
    while let Some(Reverse((d, v))) = heap.pop() {
        let vi = v as usize;
        if settled[vi] {
            continue;
        }
        settled[vi] = true;
        let d = d.get();
        if VertexId(v) == target {
            let mut path = vec![target];
            let mut cur = target;
            while cur != source {
                cur = VertexId(parent[cur.index()]);
                path.push(cur);
            }
            path.reverse();
            return Some((path, d));
        }
        for (u, w) in graph.neighbors(VertexId(v)) {
            let nd = d + w;
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                parent[u.index()] = v;
                heap.push(Reverse((OrderedF64(nd), u.0)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_geom::Point;

    fn path_graph(n: usize) -> RoadNetwork {
        let mut g = RoadNetwork::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|i| g.add_vertex(Point::new(i as f64, 0.0)))
            .collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    #[test]
    fn stream_is_sorted_and_complete() {
        let g = RoadNetwork::grid(5, 5, 0.2, 3);
        let mut last = 0.0;
        let mut count = 0;
        for (_, d) in DijkstraStream::new(&g, VertexId(12)) {
            assert!(d >= last);
            last = d;
            count += 1;
        }
        assert_eq!(count, 25);
    }

    #[test]
    fn path_graph_distances_are_cumulative() {
        let g = path_graph(6);
        let dists = single_source_distances(&g, VertexId(0));
        for (i, d) in dists.iter().enumerate() {
            assert!((*d - i as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let mut g = path_graph(3);
        let lonely = g.add_vertex(Point::new(100.0, 100.0));
        let other = g.add_vertex(Point::new(101.0, 100.0));
        g.add_edge(lonely, other);
        let dists = single_source_distances(&g, VertexId(0));
        assert!(dists[lonely.index()].is_infinite());
        let mut stream = DijkstraStream::new(&g, VertexId(0));
        assert!(stream.distance_to(lonely).is_none());
    }

    #[test]
    fn distance_to_is_idempotent() {
        let g = RoadNetwork::grid(4, 4, 0.0, 4);
        let mut s = DijkstraStream::new(&g, VertexId(0));
        let d1 = s.distance_to(VertexId(15)).unwrap();
        let d2 = s.distance_to(VertexId(15)).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(d1, 6.0); // manhattan path on unit grid
    }

    #[test]
    fn network_distance_dominates_euclidean() {
        let g = RoadNetwork::grid(6, 6, 0.3, 5);
        let src = VertexId(0);
        let dists = single_source_distances(&g, src);
        let p0 = g.position(src);
        for (i, d) in dists.iter().enumerate() {
            let euclid = p0.dist(g.position(VertexId(i as u32)));
            assert!(
                *d >= euclid - 1e-9,
                "vertex {i}: network {d} < euclid {euclid}"
            );
        }
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = RoadNetwork::grid(5, 4, 0.25, 8);
        let (path, len) = shortest_path(&g, VertexId(0), VertexId(19)).unwrap();
        assert_eq!(path.first(), Some(&VertexId(0)));
        assert_eq!(path.last(), Some(&VertexId(19)));
        // Path edges must exist and sum to the reported length.
        let mut total = 0.0;
        for w in path.windows(2) {
            let weight = g
                .neighbors(w[0])
                .find(|&(u, _)| u == w[1])
                .map(|(_, weight)| weight)
                .expect("consecutive path vertices must be adjacent");
            total += weight;
        }
        assert!((total - len).abs() < 1e-9);
        // And the length must match the plain stream.
        let d = DijkstraStream::new(&g, VertexId(0))
            .distance_to(VertexId(19))
            .unwrap();
        assert_eq!(len, d);
    }

    #[test]
    fn shortest_path_to_unreachable_is_none() {
        let mut g = path_graph(3);
        let lonely = g.add_vertex(Point::new(50.0, 50.0));
        let other = g.add_vertex(Point::new(51.0, 50.0));
        g.add_edge(lonely, other);
        assert!(shortest_path(&g, VertexId(0), lonely).is_none());
    }

    #[test]
    fn shortest_path_to_self_is_trivial() {
        let g = path_graph(3);
        let (path, len) = shortest_path(&g, VertexId(1), VertexId(1)).unwrap();
        assert_eq!(path, vec![VertexId(1)]);
        assert_eq!(len, 0.0);
    }
}
