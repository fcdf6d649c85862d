//! CSR-packed immutable graph snapshots — the `PackedRTree` treatment
//! applied to the road network.
//!
//! [`RoadNetwork`] is built for construction: per-vertex adjacency `Vec`s,
//! pointer-chased and reallocating. [`PackedGraph`] is built for serving:
//! one [`RoadNetwork::freeze`] call lays every adjacency list into three
//! contiguous arenas (CSR offsets / neighbor ids / weights), mirrors vertex
//! positions into SoA coordinate arrays, and freezes a vertex R\*-tree so
//! snapping query locations is a packed NN descent rather than any kind of
//! scan. The snapshot is immutable and `Sync` — serving workers share one
//! `Arc` and keep all per-query state in
//! [`NetworkScratch`](crate::NetworkScratch).
//!
//! Adjacency order is preserved exactly, so the packed Dijkstra expansion
//! relaxes edges in the same order as the arena
//! [`DijkstraStream`](crate::DijkstraStream) and settles the same vertices
//! at the same distances in the same order — which is what lets the
//! equivalence tests pin packed distances **bit-identical** to the arena
//! reference, with expansion counters that never exceed its (the packed
//! algorithms stop an expansion early, they never reorder one).

use crate::graph::{RoadNetwork, VertexId};
use gnn_geom::{Point, PointId, Rect};
use gnn_rtree::{LeafEntry, NearestNeighbors, NnScratch, PackedRTree, RTree, RTreeParams};

/// An immutable, contiguous snapshot of a [`RoadNetwork`].
///
/// Created by [`RoadNetwork::freeze`]. Vertex ids are shared with the
/// source network (freezing never renumbers), so [`VertexId`]s, data-vertex
/// lists, and query groups move between representations unchanged.
#[derive(Debug, Clone)]
pub struct PackedGraph {
    /// CSR row offsets: the half-edges of vertex `v` occupy
    /// `targets[offsets[v] .. offsets[v + 1]]` (same for `weights`).
    offsets: Vec<u32>,
    /// Half-edge target vertices, adjacency order preserved.
    targets: Vec<u32>,
    /// Half-edge weights, parallel to `targets`.
    weights: Vec<f64>,
    /// Vertex x coordinates (SoA mirror of the positions).
    xs: Vec<f64>,
    /// Vertex y coordinates.
    ys: Vec<f64>,
    /// Number of undirected edges.
    edge_count: usize,
    /// Frozen vertex R\*-tree (leaf ids = vertex ids) backing
    /// [`PackedGraph::snap`].
    vertex_tree: PackedRTree,
}

impl RoadNetwork {
    /// Freezes this network into a [`PackedGraph`] serving snapshot.
    ///
    /// # Panics
    ///
    /// Panics on an empty network — there is nothing to serve.
    pub fn freeze(&self) -> PackedGraph {
        PackedGraph::freeze(self)
    }
}

impl PackedGraph {
    /// Builds the snapshot (see [`RoadNetwork::freeze`]).
    pub fn freeze(graph: &RoadNetwork) -> PackedGraph {
        let n = graph.vertex_count();
        assert!(n > 0, "cannot freeze an empty network");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        offsets.push(0);
        for i in 0..n {
            let v = VertexId(i as u32);
            for (u, w) in graph.neighbors(v) {
                targets.push(u.0);
                weights.push(w);
            }
            offsets.push(u32::try_from(targets.len()).expect("half-edge count overflow"));
            let p = graph.position(v);
            xs.push(p.x);
            ys.push(p.y);
        }
        let vertex_tree = RTree::bulk_load(
            RTreeParams::default(),
            (0..n).map(|i| LeafEntry::new(PointId(i as u64), graph.position(VertexId(i as u32)))),
        )
        .freeze();
        PackedGraph {
            offsets,
            targets,
            weights,
            xs,
            ys,
            edge_count: graph.edge_count(),
            vertex_tree,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.xs.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Position of a vertex.
    #[inline]
    pub fn position(&self, v: VertexId) -> Point {
        Point::new(self.xs[v.index()], self.ys[v.index()])
    }

    /// Neighbors of `v` with edge weights, in the source network's
    /// adjacency order (the bit-identity anchor of the packed expansion).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .map(|(&t, &w)| (VertexId(t), w))
    }

    /// Bounding box of all vertices.
    pub fn bounding_box(&self) -> Rect {
        self.vertex_tree.root_mbr()
    }

    /// The vertex closest (in Euclidean distance) to `p`; ties break by
    /// lowest vertex id — the same contract as [`RoadNetwork::snap`], as a
    /// packed NN descent in a scratch of its own.
    pub fn snap(&self, p: Point) -> Option<VertexId> {
        self.snap_in(p, &mut NnScratch::default())
    }

    /// [`PackedGraph::snap`] through caller-provided scratch —
    /// allocation-free in steady state (serving workers snap every group
    /// member this way).
    pub fn snap_in(&self, p: Point, scratch: &mut NnScratch) -> Option<VertexId> {
        let cursor = self.vertex_tree.cursor();
        NearestNeighbors::new_in(&cursor, p, scratch)
            .next()
            .map(|n| VertexId(n.entry.id.0 as u32))
    }
}

impl PartialEq for PackedGraph {
    /// Structural equality of the graph arenas (offsets, targets, weights,
    /// positions) and the frozen vertex tree — the refreeze/equivalence
    /// tests' notion of "same snapshot".
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.targets == other.targets
            && self.weights == other.weights
            && self.xs == other.xs
            && self.ys == other.ys
            && self.edge_count == other.edge_count
            && self.vertex_tree == other.vertex_tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn freeze_preserves_structure() {
        let g = RoadNetwork::grid(7, 5, 0.2, 3);
        let p = g.freeze();
        assert_eq!(p.vertex_count(), g.vertex_count());
        assert_eq!(p.edge_count(), g.edge_count());
        for i in 0..g.vertex_count() {
            let v = VertexId(i as u32);
            assert_eq!(p.position(v), g.position(v));
            let arena: Vec<(VertexId, f64)> = g.neighbors(v).collect();
            let packed: Vec<(VertexId, f64)> = p.neighbors(v).collect();
            assert_eq!(arena, packed, "adjacency of v{i} must match in order");
        }
        assert_eq!(p.bounding_box(), g.bounding_box().unwrap());
    }

    #[test]
    fn packed_snap_matches_linear_oracle() {
        let g = RoadNetwork::grid(9, 9, 0.3, 11);
        let p = g.freeze();
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = NnScratch::default();
        for _ in 0..200 {
            let q = Point::new(rng.gen::<f64>() * 9.0 - 0.5, rng.gen::<f64>() * 9.0 - 0.5);
            let want = g.snap_linear(q);
            assert_eq!(p.snap(q), want);
            assert_eq!(p.snap_in(q, &mut scratch), want);
            assert_eq!(g.snap(q), want, "RoadNetwork::snap vs linear oracle");
        }
    }

    #[test]
    fn freeze_is_deterministic() {
        let g = RoadNetwork::random_geometric(80, Rect::from_corners(0.0, 0.0, 10.0, 10.0), 1.5, 9);
        assert_eq!(g.freeze(), g.freeze());
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn freezing_empty_network_panics() {
        RoadNetwork::new().freeze();
    }
}
