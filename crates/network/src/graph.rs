//! The spatial network substrate: an undirected weighted graph whose
//! vertices are embedded in the plane.

use gnn_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of a network vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Array index of this vertex.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an undirected edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub u32);

#[derive(Debug, Clone, Copy)]
struct HalfEdge {
    to: u32,
    weight: f64,
}

/// An undirected spatial network: embedded vertices joined by weighted
/// edges. Edge weights must be positive; [`RoadNetwork::add_edge`] defaults
/// them to the Euclidean length of the segment, so network distances always
/// dominate Euclidean distances — the property
/// [`crate::NetworkIer`] prunes with.
#[derive(Debug, Clone, Default)]
pub struct RoadNetwork {
    positions: Vec<Point>,
    adjacency: Vec<Vec<HalfEdge>>,
    edge_count: usize,
}

impl RoadNetwork {
    /// An empty network.
    pub fn new() -> Self {
        RoadNetwork::default()
    }

    /// Adds a vertex at `p`, returning its id.
    pub fn add_vertex(&mut self, p: Point) -> VertexId {
        assert!(p.is_finite(), "vertex coordinates must be finite");
        let id = VertexId(u32::try_from(self.positions.len()).expect("vertex id overflow"));
        self.positions.push(p);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected edge weighted by the Euclidean length of the
    /// segment (the usual road-network setting).
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) -> EdgeId {
        let w = self.positions[a.index()].dist(self.positions[b.index()]);
        self.add_edge_weighted(a, b, w)
    }

    /// Adds an undirected edge with an explicit weight (e.g. travel time).
    ///
    /// # Panics
    ///
    /// Panics if the weight is not positive-finite, if either endpoint is
    /// unknown, or if `a == b`. Weights below the computed Euclidean
    /// distance of the endpoints — by any amount: [`crate::NetworkIer`]
    /// takes that distance as a lower bound on the network distance — are
    /// rejected too. [`RoadNetwork::add_edge`] passes exactly that
    /// distance.
    pub fn add_edge_weighted(&mut self, a: VertexId, b: VertexId, weight: f64) -> EdgeId {
        assert!(a != b, "self-loops are not allowed");
        assert!(
            weight.is_finite() && weight > 0.0,
            "edge weight must be positive-finite, got {weight}"
        );
        let euclid = self.positions[a.index()].dist(self.positions[b.index()]);
        assert!(
            weight >= euclid,
            "edge weight {weight} below Euclidean length {euclid}: network distance \
             would not dominate Euclidean distance"
        );
        self.adjacency[a.index()].push(HalfEdge { to: b.0, weight });
        self.adjacency[b.index()].push(HalfEdge { to: a.0, weight });
        let id = EdgeId(u32::try_from(self.edge_count).expect("edge id overflow"));
        self.edge_count += 1;
        id
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Position of a vertex.
    #[inline]
    pub fn position(&self, v: VertexId) -> Point {
        self.positions[v.index()]
    }

    /// Neighbors of `v` with edge weights.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.adjacency[v.index()]
            .iter()
            .map(|h| (VertexId(h.to), h.weight))
    }

    /// The vertex closest (in Euclidean distance) to `p` by a linear scan;
    /// ties break by lowest vertex id (`min_by` keeps the first of equal
    /// minima). O(n): the oracle the tests pin
    /// [`PackedGraph::snap`](crate::PackedGraph::snap) against, which is
    /// what serving snaps with (`RoadNetwork::freeze` builds its vertex
    /// tree).
    pub fn snap_linear(&self, p: Point) -> Option<VertexId> {
        (0..self.positions.len())
            .min_by(|&a, &b| {
                self.positions[a]
                    .dist_sq(p)
                    .total_cmp(&self.positions[b].dist_sq(p))
            })
            .map(|i| VertexId(i as u32))
    }

    /// Bounding box of all vertices.
    pub fn bounding_box(&self) -> Option<Rect> {
        Rect::bounding(self.positions.iter().copied())
    }

    /// A `w x h` grid road network with unit spacing and `perturb`-jittered
    /// vertex positions (jitter < 0.5 keeps edge weights valid). The classic
    /// synthetic stand-in for a city street grid.
    pub fn grid(w: usize, h: usize, perturb: f64, seed: u64) -> Self {
        assert!(w >= 2 && h >= 2, "grid needs at least 2x2 vertices");
        assert!(
            (0.0..0.5).contains(&perturb),
            "perturbation must be in [0, 0.5)"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = RoadNetwork::new();
        for y in 0..h {
            for x in 0..w {
                let jx = (rng.gen::<f64>() - 0.5) * 2.0 * perturb;
                let jy = (rng.gen::<f64>() - 0.5) * 2.0 * perturb;
                net.add_vertex(Point::new(x as f64 + jx, y as f64 + jy));
            }
        }
        let vid = |x: usize, y: usize| VertexId((y * w + x) as u32);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    net.add_edge(vid(x, y), vid(x + 1, y));
                }
                if y + 1 < h {
                    net.add_edge(vid(x, y), vid(x, y + 1));
                }
            }
        }
        net
    }

    /// A random geometric graph: `n` uniform vertices in `workspace`, every
    /// pair within `radius` connected. Vertices left isolated are connected
    /// to their Euclidean nearest neighbor so the network is usable.
    pub fn random_geometric(n: usize, workspace: Rect, radius: f64, seed: u64) -> Self {
        assert!(n >= 2, "need at least two vertices");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = RoadNetwork::new();
        for _ in 0..n {
            net.add_vertex(Point::new(
                workspace.lo.x + rng.gen::<f64>() * workspace.width(),
                workspace.lo.y + rng.gen::<f64>() * workspace.height(),
            ));
        }
        // O(n^2) connect: fine for the generator's intended scale.
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (VertexId(i as u32), VertexId(j as u32));
                if net.position(a).dist(net.position(b)) <= radius {
                    net.add_edge(a, b);
                }
            }
        }
        for i in 0..n {
            if net.adjacency[i].is_empty() {
                let a = VertexId(i as u32);
                let nearest = (0..n)
                    .filter(|&j| j != i)
                    .min_by(|&x, &y| {
                        net.positions[x]
                            .dist_sq(net.positions[i])
                            .total_cmp(&net.positions[y].dist_sq(net.positions[i]))
                    })
                    .expect("n >= 2");
                net.add_edge(a, VertexId(nearest as u32));
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_a_triangle() {
        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        let b = net.add_vertex(Point::new(3.0, 0.0));
        let c = net.add_vertex(Point::new(0.0, 4.0));
        net.add_edge(a, b);
        net.add_edge(b, c);
        net.add_edge(a, c);
        assert_eq!(net.vertex_count(), 3);
        assert_eq!(net.edge_count(), 3);
        let bc: Vec<(VertexId, f64)> = net.neighbors(b).collect();
        assert_eq!(bc.len(), 2);
        assert!(bc.iter().any(|&(v, w)| v == c && (w - 5.0).abs() < 1e-12));
    }

    #[test]
    fn grid_has_expected_shape() {
        let g = RoadNetwork::grid(4, 3, 0.0, 1);
        assert_eq!(g.vertex_count(), 12);
        // 3 horizontal edges per row x 3 rows + 4 columns x 2 = 9 + 8.
        assert_eq!(g.edge_count(), 17);
        // Interior vertex has 4 neighbors.
        let interior = VertexId(5);
        assert_eq!(g.neighbors(interior).count(), 4);
    }

    #[test]
    fn random_geometric_has_no_isolated_vertices() {
        let ws = Rect::from_corners(0.0, 0.0, 10.0, 10.0);
        let g = RoadNetwork::random_geometric(100, ws, 0.8, 7);
        for i in 0..g.vertex_count() {
            assert!(
                g.neighbors(VertexId(i as u32)).count() > 0,
                "vertex {i} isolated"
            );
        }
    }

    #[test]
    #[should_panic(expected = "below Euclidean length")]
    fn rejects_subeuclidean_weights() {
        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        let b = net.add_vertex(Point::new(10.0, 0.0));
        net.add_edge_weighted(a, b, 1.0);
    }

    #[test]
    #[should_panic(expected = "below Euclidean length")]
    fn rejects_weights_a_hair_below_euclidean() {
        // A hair short of the length: NET-IER would take 1 as a lower bound
        // on a network distance of 1 − 0.5e-9.
        let mut net = RoadNetwork::new();
        let q = net.add_vertex(Point::new(0.0, 0.0));
        let a = net.add_vertex(Point::new(1.0, 0.0));
        net.add_edge_weighted(q, a, 1.0 - 0.5e-9);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loops() {
        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        net.add_edge(a, a);
    }

    #[test]
    fn travel_time_weights_above_euclidean_are_fine() {
        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        let b = net.add_vertex(Point::new(1.0, 0.0));
        net.add_edge_weighted(a, b, 2.5); // slow road
        assert_eq!(net.edge_count(), 1);
    }
}
