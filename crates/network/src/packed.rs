//! CSR-packed immutable graph snapshots — the `PackedRTree` treatment
//! applied to the road network.
//!
//! [`RoadNetwork`] is built for construction: per-vertex adjacency `Vec`s,
//! pointer-chased and reallocating. [`PackedGraph`] is built for serving:
//! one [`RoadNetwork::freeze`] call lays every adjacency list into three
//! contiguous arenas (CSR offsets / neighbor ids / weights), mirrors vertex
//! positions into SoA coordinate arrays, and freezes a vertex R\*-tree so
//! snapping query locations is a packed NN descent rather than any kind of
//! scan. A fourth arena holds landmark distances: up to 16 landmarks, picked
//! farthest-first, each vertex's row of rounded-down `f32` labels side by
//! side, from which `refine` reads a lower bound on any source's distance
//! to a candidate ([`LandmarkBound`]). The snapshot is immutable and
//! `Sync` — serving workers share one `Arc` and keep all per-query state in
//! [`NetworkScratch`](crate::NetworkScratch).
//!
//! Adjacency order is preserved exactly, so the packed Dijkstra expansion
//! relaxes edges in the same order as the arena
//! [`DijkstraStream`](crate::DijkstraStream) and settles the same vertices
//! at the same distances in the same order — which is what lets the
//! equivalence tests pin packed distances **bit-identical** to the arena
//! reference, with expansion counters that never exceed its (the packed
//! algorithms stop an expansion early, they never reorder one). The
//! landmark bound only lets them stop sooner.

use crate::graph::{RoadNetwork, VertexId};
use crate::scratch::DijkstraState;
use gnn_geom::bound::LandmarkBound;
use gnn_geom::{Point, PointId, Rect};
use gnn_rtree::{LeafEntry, NearestNeighbors, NnScratch, PackedRTree, RTree, RTreeParams};

/// The most landmarks a snapshot keeps distances from (`min(16, V)`).
const LANDMARKS: usize = 16;

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
    /// The landmark vertices, in the order they were picked.
    landmarks: Vec<u32>,
    /// Vertex-major landmark distances: vertex `v`'s row is
    /// `landmark_rows[v·L .. (v + 1)·L]` for `L = landmarks.len()`, one
    /// [`LandmarkBound::entry`] a landmark.
    landmark_rows: Vec<f32>,
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
        let mut packed = PackedGraph {
            offsets,
            targets,
            weights,
            xs,
            ys,
            edge_count: graph.edge_count(),
            vertex_tree,
            landmarks: Vec::new(),
            landmark_rows: Vec::new(),
        };
        packed.place_landmarks();
        debug_assert_eq!(packed.validate(), Ok(()));
        packed
    }

    /// Picks `min(16, V)` landmarks farthest-first and writes each one's
    /// expansion straight into the vertex-major rows. The first is the
    /// vertex farthest from vertex 0, each next the one farthest from all
    /// picked so far; a vertex none of them reaches counts as farthest (so
    /// every island gets landmarks of its own), and ties go to the lowest
    /// id. Labels are `0` only at a landmark, so no vertex is picked twice.
    fn place_landmarks(&mut self) {
        let n = self.vertex_count();
        let count = LANDMARKS.min(n);
        let mut rows = vec![f32::INFINITY; n * count];
        // Each vertex's least label from the landmarks so far (before the
        // first, from vertex 0); `∞` where none reaches it.
        let mut nearest = vec![f64::INFINITY; n];
        let mut state = DijkstraState::default();
        state.begin(self, VertexId(0));
        while let Some((u, d)) = state.step(self) {
            nearest[u.index()] = d;
        }
        let mut landmarks = Vec::with_capacity(count);
        for l in 0..count {
            let far = (0..n).fold(0, |far, v| if nearest[v] > nearest[far] { v } else { far });
            if l == 0 {
                nearest.fill(f64::INFINITY);
            }
            landmarks.push(far as u32);
            state.begin(self, VertexId(far as u32));
            while let Some((u, d)) = state.step(self) {
                rows[u.index() * count + l] = LandmarkBound::entry(d);
                nearest[u.index()] = nearest[u.index()].min(d);
            }
        }
        self.landmarks = landmarks;
        self.landmark_rows = rows;
    }

    /// A lower bound on the label an expansion from `a` settles `b` at,
    /// read off the two vertices' landmark rows (`0` where no landmark
    /// tells them apart).
    #[inline]
    pub(crate) fn landmark_bound(&self, a: VertexId, b: VertexId) -> f64 {
        let l = self.landmarks.len();
        let row = |v: VertexId| &self.landmark_rows[v.index() * l..][..l];
        LandmarkBound::new(self.vertex_count()).lower(row(a), row(b))
    }

    /// Checks the snapshot's invariants and names the first one broken:
    /// CSR offsets monotone from `0` to the half-edge count, every target a
    /// vertex, every weight one [`RoadNetwork::add_edge_weighted`] accepts
    /// (positive-finite, at least the Euclidean length), every half-edge
    /// mirrored by one of the same weight (the landmark bound needs an
    /// undirected graph), and a landmark table of `min(16, V)` distinct
    /// landmarks × `V` entries, each `>= 0` or `+∞` and `0` at the
    /// landmark's own vertex. [`PackedGraph::freeze`] runs it under
    /// `debug_assert!`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.vertex_count();
        let (offsets, targets) = (&self.offsets, &self.targets);
        if self.ys.len() != n || offsets.len() != n + 1 || offsets[0] != 0 {
            return Err(format!(
                "{n} vertices but {} offsets and {} y coordinates",
                offsets.len(),
                self.ys.len()
            ));
        }
        if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offsets fall at vertex {v}"));
        }
        let half_edges = targets.len();
        if offsets[n] as usize != half_edges || self.weights.len() != half_edges {
            return Err(format!(
                "offsets end at {} for {half_edges} targets and {} weights",
                offsets[n],
                self.weights.len()
            ));
        }
        if half_edges != 2 * self.edge_count {
            return Err(format!(
                "{half_edges} half-edges for {} edges",
                self.edge_count
            ));
        }
        for v in (0..n).map(|v| VertexId(v as u32)) {
            for (u, w) in self.neighbors(v) {
                if u.index() >= n {
                    return Err(format!("v{} has a half-edge to v{} of {n}", v.0, u.0));
                }
                let euclid = self.position(v).dist(self.position(u));
                if !(w.is_finite() && w > 0.0 && w >= euclid) || u == v {
                    return Err(format!(
                        "v{} -> v{} weighs {w}, Euclidean length {euclid}",
                        v.0, u.0
                    ));
                }
            }
        }
        for v in (0..n).map(|v| VertexId(v as u32)) {
            for (u, w) in self.neighbors(v) {
                let count = |from: VertexId, to: VertexId| {
                    self.neighbors(from).filter(|&e| e == (to, w)).count()
                };
                if count(v, u) != count(u, v) {
                    return Err(format!("v{} -> v{} ({w}) is not mirrored", v.0, u.0));
                }
            }
        }
        let count = LANDMARKS.min(n);
        if self.landmarks.len() != count || self.landmark_rows.len() != n * count {
            return Err(format!(
                "{} landmarks and {} entries for {n} vertices",
                self.landmarks.len(),
                self.landmark_rows.len()
            ));
        }
        if let Some(i) = self
            .landmark_rows
            .iter()
            .position(|&e| e.is_nan() || e < 0.0)
        {
            return Err(format!(
                "landmark entry {} of v{} is {}",
                i % count,
                i / count,
                self.landmark_rows[i]
            ));
        }
        for (l, &v) in self.landmarks.iter().enumerate() {
            if self.landmarks[..l].contains(&v) {
                return Err(format!("landmark {l} (v{v}) is picked twice"));
            }
            if v as usize >= n || self.landmark_rows[v as usize * count + l] != 0.0 {
                return Err(format!(
                    "landmark {l} (v{v}) is not at distance 0 from itself"
                ));
            }
        }
        Ok(())
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

    /// The vertex closest (in Euclidean distance) to `p`, used to snap
    /// query locations onto the network; ties break by lowest vertex id —
    /// the contract of [`RoadNetwork::snap_linear`], as a packed NN descent
    /// in a scratch of its own.
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
    /// positions), the frozen vertex tree and the landmark table — the
    /// refreeze/equivalence tests' notion of "same snapshot".
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.targets == other.targets
            && self.weights == other.weights
            && self.xs == other.xs
            && self.ys == other.ys
            && self.edge_count == other.edge_count
            && self.vertex_tree == other.vertex_tree
            && self.landmarks == other.landmarks
            && self.landmark_rows == other.landmark_rows
    }
}

#[cfg(test)]
mod tests {
    //! Besides the structure tests, the soundness harness of the landmark
    //! bound: for every pair of vertices, `landmark_bound(a, b)` is `<=`
    //! the label a full expansion from `a` settles `b` at, compared as
    //! `f64` (a NaN bound fails). It runs on tie lattices (`grid(…, 0.0,
    //! …)`, every label an integer), perturbed grids and random geometric
    //! graphs, each at scales 1, 2⁻⁴⁰ and 2⁴⁰, each with an island, a
    //! stranded vertex and two coincident vertices joined by an edge of
    //! the least positive weight (`add_edge_weighted` refuses `0`, and
    //! `2⁻¹⁰⁷⁴` vanishes in every fold past it); on graphs of 2 to 15
    //! vertices, where every vertex is a landmark; and on a path whose
    //! folds differ by direction. Every vertex must be reached by some
    //! landmark, and a landmark's bound to a vertex `2⁻¹⁰⁰` or more away
    //! must be positive.
    //!
    //! Hand mutations, each alone in a scratch copy, and the cases that
    //! fail (optimised build):
    //!
    //! * drop the round-down (`entry` narrows to nearest): "n=2 seed=3",
    //!   and every perturbed grid and random geometric graph the proptest
    //!   draws, at every scale (a tie lattice's integer labels narrow
    //!   exactly);
    //! * drop the margin (`c = 0`): the fold-order path, whose label from
    //!   one end is `1` and from the other `1 − 2⁻⁵³` (and
    //!   `algorithms::tests`' detour, whose bound reaches `3`);
    //! * pick landmarks from vertex 0's component only (an unreached
    //!   vertex counting as nearest): "n=4 seed=0", a landmark picked
    //!   twice, and every proptest case ("no landmark reaches" the island);
    //! * drop the `∞` skip: survives. The term of a pair with an infinite
    //!   entry is then `∞ − ∞`, NaN, which the fold's `>` never takes; the
    //!   skip says so where the fold would otherwise rely on it.

    use super::*;
    use proptest::prelude::*;
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
        }
    }

    #[test]
    fn snap_finds_nearest_vertex() {
        let g = RoadNetwork::grid(3, 3, 0.0, 2).freeze();
        let v = g.snap(Point::new(1.1, 0.9)).unwrap();
        assert_eq!(g.position(v), Point::new(1.0, 1.0));
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

    #[test]
    fn validate_names_each_broken_invariant() {
        let good = RoadNetwork::grid(5, 4, 0.2, 1).freeze();
        assert_eq!(good.validate(), Ok(()));
        let check = |want: &str, corrupt: fn(&mut PackedGraph)| {
            let mut p = good.clone();
            corrupt(&mut p);
            let got = p.validate().expect_err(want);
            assert!(got.contains(want), "{want:?} not in {got:?}");
        };
        check("offsets fall", |p| p.offsets.swap(3, 4));
        check("offsets end", |p| *p.offsets.last_mut().unwrap() -= 1);
        check("half-edge to v99", |p| p.targets[0] = 99);
        check("weighs", |p| p.weights[0] *= 0.5);
        check("not mirrored", |p| p.weights[0] *= 2.0);
        check("landmarks and", |p| {
            p.landmark_rows.pop();
        });
        check("is -1", |p| p.landmark_rows[7] = -1.0);
        check("is NaN", |p| p.landmark_rows[7] = f32::NAN);
        check("picked twice", |p| p.landmarks[1] = p.landmarks[0]);
        check("not at distance 0", |p| p.landmarks.swap(0, 1));
    }

    /// `labels[a][b]`: the label a full expansion from `a` settles `b` at,
    /// `∞` where it never does.
    fn settled_labels(p: &PackedGraph) -> Vec<Vec<f64>> {
        let mut state = DijkstraState::default();
        (0..p.vertex_count())
            .map(|a| {
                let mut labels = vec![f64::INFINITY; p.vertex_count()];
                state.begin(p, VertexId(a as u32));
                while let Some((v, d)) = state.step(p) {
                    labels[v.index()] = d;
                }
                labels
            })
            .collect()
    }

    /// The harness's checks on one graph (module docs).
    fn assert_landmark_bound_sound(g: &RoadNetwork, what: &str) {
        let p = g.freeze();
        assert_eq!(p.validate(), Ok(()), "{what}");
        let n = p.vertex_count();
        let labels = settled_labels(&p);
        for (a, from_a) in labels.iter().enumerate() {
            for (b, &settled) in from_a.iter().enumerate() {
                let bound = p.landmark_bound(VertexId(a as u32), VertexId(b as u32));
                assert!(
                    bound <= settled,
                    "{what}: bound(v{a}, v{b}) = {bound:e} above settled {settled:e}"
                );
            }
        }
        // A component is named by its lowest vertex; up to 16 of them,
        // each has a landmark.
        let mut components: Vec<usize> = (0..n)
            .map(|a| labels[a].iter().position(|d| d.is_finite()).unwrap())
            .collect();
        components.sort_unstable();
        components.dedup();
        if components.len() <= LANDMARKS {
            let l = p.landmarks.len();
            for v in 0..n {
                let row = &p.landmark_rows[v * l..][..l];
                assert!(
                    row.iter().any(|e| e.is_finite()),
                    "{what}: no landmark reaches v{v}"
                );
            }
        }
        for &lm in &p.landmarks {
            for (b, &d) in labels[lm as usize].iter().enumerate() {
                if d >= 2f64.powi(-100) && d < f64::INFINITY {
                    let bound = p.landmark_bound(VertexId(lm), VertexId(b as u32));
                    assert!(
                        bound > 0.0,
                        "{what}: landmark v{lm} bounds v{b} ({d:e}) by 0"
                    );
                }
            }
        }
    }

    /// `g` with every coordinate and weight scaled by `s`, a power of two.
    fn scaled(g: &RoadNetwork, s: f64) -> RoadNetwork {
        let mut out = RoadNetwork::new();
        for v in 0..g.vertex_count() {
            let p = g.position(VertexId(v as u32));
            out.add_vertex(Point::new(p.x * s, p.y * s));
        }
        for v in (0..g.vertex_count()).map(|v| VertexId(v as u32)) {
            for (u, w) in g.neighbors(v).filter(|&(u, _)| v < u) {
                out.add_edge_weighted(v, u, w * s);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn landmark_bound_never_exceeds_a_settled_label(
            seed in 0u64..10_000,
            shape in 0usize..3,
            scale in 0usize..3,
        ) {
            let base = match shape {
                0 => RoadNetwork::grid(9, 9, 0.0, seed),
                1 => RoadNetwork::grid(9, 9, 0.25, seed),
                _ => RoadNetwork::random_geometric(
                    70,
                    Rect::from_corners(0.0, 0.0, 10.0, 10.0),
                    1.6,
                    seed,
                ),
            };
            let s = [1.0, 2f64.powi(-40), 2f64.powi(40)][scale];
            let mut g = scaled(&base, s);
            let island = [
                g.add_vertex(Point::new(50.0 * s, 50.0 * s)),
                g.add_vertex(Point::new(51.0 * s, 50.0 * s)),
            ];
            g.add_edge(island[0], island[1]);
            g.add_vertex(Point::new(-50.0 * s, 50.0 * s)); // stranded
            let v = VertexId((seed % base.vertex_count() as u64) as u32);
            let twin = g.add_vertex(g.position(v));
            g.add_edge_weighted(v, twin, f64::from_bits(1));
            assert_landmark_bound_sound(&g, &format!("shape={shape} seed={seed} scale={s:e}"));
        }
    }

    #[test]
    fn landmark_bound_holds_below_sixteen_vertices_and_on_fold_order() {
        let ws = Rect::from_corners(0.0, 0.0, 4.0, 4.0);
        for n in 2..16 {
            for seed in 0..4 {
                let g = RoadNetwork::random_geometric(n, ws, 1.5, seed);
                assert_landmark_bound_sound(&g, &format!("n={n} seed={seed}"));
            }
        }
        // Four coincident vertices on a path of 2⁻⁵⁵, 2⁻⁵⁵, 1 − 2⁻⁵³: the
        // fold from its start ties at 1 − 2⁻⁵⁴ and rounds to the `f32` 1,
        // the fold from its end stays at 1 − 2⁻⁵³.
        let mut g = RoadNetwork::new();
        let vs: Vec<VertexId> = (0..4).map(|_| g.add_vertex(Point::ORIGIN)).collect();
        for (i, w) in [2f64.powi(-55), 2f64.powi(-55), 1.0 - 2f64.powi(-53)]
            .into_iter()
            .enumerate()
        {
            g.add_edge_weighted(vs[i], vs[i + 1], w);
        }
        assert_landmark_bound_sound(&g, "fold-order path");
    }
}
