//! Exact network-distance GNN algorithms.
//!
//! Setting: data objects sit on network vertices; the query group is a set
//! of vertices; `dist_N(p, Q)` aggregates *shortest-path* distances. Both
//! algorithms are exact and are tested against [`network_oracle`].
//!
//! Each comes twice. The arena `k_gnn` entry points refine every candidate
//! to completion and are the reference; the packed `k_gnn_in` ones share a
//! `best_dist`-bounded refinement (`refine`) that stops expanding for a
//! candidate once it provably cannot enter the result — same answers bit
//! for bit, never more expansion.

use crate::dijkstra::{single_source_distances, DijkstraStream};
use crate::graph::{RoadNetwork, VertexId};
use crate::packed::PackedGraph;
use crate::scratch::{DijkstraState, NetworkScratch};
use gnn_core::{Aggregate, KBestList, MbmScratch, MbmStream, Neighbor, QueryGroup};
use gnn_geom::PointId;
use gnn_rtree::{LeafEntry, PackedRTree, RTree, RTreeParams};

/// One network group nearest neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkNeighbor {
    /// The data vertex.
    pub vertex: VertexId,
    /// Aggregate network distance to the query group.
    pub dist: f64,
}

/// Cost counters of one network GNN query — shared by the arena results
/// ([`NetworkGnnResult::stats`]) and the packed `k_gnn_in` entry points,
/// and the quantities the service-level bit-identity gates compare.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkGnnStats {
    /// Vertices settled across all Dijkstra expansions (the I/O proxy of
    /// network search \[PZMT03\]).
    pub settled_vertices: u64,
    /// Edge relaxations across all expansions (CPU proxy).
    pub relaxed_edges: u64,
    /// Candidates pulled from the Euclidean stream (IER only).
    pub euclidean_candidates: u64,
    /// R-tree node accesses of the Euclidean filter (IER only).
    pub rtree_accesses: u64,
    /// Refinements the `best_dist` bound cut short: candidates discarded
    /// (IER) / probes abandoned (TA) before every source had settled them.
    /// Always `0` on the arena entry points, which refine to completion.
    pub bound_pruned: u64,
}

/// Result and cost counters of a network GNN query (arena entry points;
/// the packed variants return borrowed neighbors + [`NetworkGnnStats`]).
#[derive(Debug, Clone, Default)]
pub struct NetworkGnnResult {
    /// Up to `k` neighbors in ascending aggregate network distance.
    pub neighbors: Vec<NetworkNeighbor>,
    /// Cost counters.
    pub stats: NetworkGnnStats,
}

fn neighbors_from(best: KBestList) -> Vec<NetworkNeighbor> {
    best.into_sorted()
        .into_iter()
        .map(|n| NetworkNeighbor {
            vertex: VertexId(n.id.0 as u32),
            dist: n.dist,
        })
        .collect()
}

fn aggregate_over_queries(
    streams: &mut [DijkstraStream<'_>],
    v: VertexId,
    aggregate: Aggregate,
) -> f64 {
    let mut acc = aggregate.identity();
    for s in streams.iter_mut() {
        let d = s.distance_to(v).unwrap_or(f64::INFINITY);
        acc = aggregate.fold(acc, d);
        if acc.is_infinite() && aggregate != Aggregate::Min {
            // Unreachable from some query point: Sum/Max can never recover.
            return f64::INFINITY;
        }
    }
    acc
}

/// Runs stream `si` until `v` settles, keeping the bookkeeping coherent:
/// every vertex the probe settles updates the stream's threshold, and data
/// vertices it sweeps past are queued for evaluation (otherwise they would
/// silently escape the search — the subtle bug of naive TA-over-networks).
#[allow(clippy::too_many_arguments)]
fn probe(
    streams: &mut [DijkstraStream<'_>],
    si: usize,
    v: VertexId,
    thresholds: &mut [f64],
    live: &mut [bool],
    is_data: &[bool],
    pending: &mut Vec<VertexId>,
) -> Option<f64> {
    if let Some(d) = streams[si].settled_distance(v) {
        return Some(d);
    }
    loop {
        match streams[si].next() {
            None => {
                thresholds[si] = f64::INFINITY;
                live[si] = false;
                return None;
            }
            Some((u, d)) => {
                thresholds[si] = d;
                if is_data[u.index()] {
                    pending.push(u);
                }
                if u == v {
                    return Some(d);
                }
            }
        }
    }
}

/// The packed path's one refinement routine, shared by IER and TA: settles
/// the exact aggregate of candidate `v` and offers it to `best` — unless a
/// lower bound on it reaches `best.bound()` first, in which case expansion
/// stops there and `true` ("pruned") is returned. `lb[i]` is `d_i(v)` where
/// stream `i` has settled `v`, else `max(|q_i v|, frontier_i, landmark_i(v))`
/// (the last from the graph's landmark table, `PackedGraph::landmark_bound`);
/// unsettled streams are stepped in index order, each settled distance
/// raising `lb[i]`. The landmark bound prunes, it never steers: the
/// expansions run as before, and stop sooner.
/// Every `lb[i] <= d_i(v)` and the fold below is the one that computes the
/// aggregate (same order, monotone rounding), so a pruned candidate is one
/// `KBestList::offer` would have rejected, and an offered one carries the
/// arena reference's distance bits. `swept` sees every vertex settled on
/// the way (TA queues the data vertices among them).
#[allow(clippy::too_many_arguments)]
fn refine(
    graph: &PackedGraph,
    states: &mut [DijkstraState],
    query: &[VertexId],
    lb: &mut [f64],
    v: VertexId,
    aggregate: Aggregate,
    best: &mut KBestList,
    mut swept: impl FnMut(VertexId),
) -> bool {
    let point = graph.position(v);
    for ((l, s), &q) in lb.iter_mut().zip(states.iter()).zip(query) {
        *l = s.settled_distance(v).unwrap_or_else(|| {
            s.frontier()
                .max(point.dist(graph.position(q)))
                .max(graph.landmark_bound(q, v))
        });
    }
    let fold = |lb: &[f64]| aggregate.aggregate(lb.iter().copied());
    let bound = best.bound();
    for i in 0..states.len() {
        // Exact already: settled, or exhausted short of `v` (`lb[i]` = ∞).
        if lb[i].is_infinite() || states[i].settled_distance(v).is_some() {
            continue;
        }
        // Step stream `i` until it settles `v`, re-testing the bound
        // whenever its frontier raises `lb[i]`.
        'stream: loop {
            if fold(lb) >= bound {
                return true;
            }
            loop {
                match states[i].step(graph) {
                    None => {
                        lb[i] = f64::INFINITY;
                        break 'stream;
                    }
                    Some((u, d)) => {
                        swept(u);
                        if u == v {
                            lb[i] = d;
                            break 'stream;
                        }
                        if d > lb[i] {
                            lb[i] = d;
                            break;
                        }
                    }
                }
            }
        }
    }
    // Every bound is exact: the fold is the aggregate. Unreachable
    // candidates (infinite aggregate) are excluded.
    let dist = fold(lb);
    if dist.is_finite() {
        let id = PointId(u64::from(v.0));
        best.offer(Neighbor { id, point, dist });
    }
    false
}

/// Brute-force oracle: one full Dijkstra per query vertex, then an argmin
/// scan over the data vertices. `O(n · (E log V) + |P|·n)`.
pub fn network_oracle(
    graph: &RoadNetwork,
    data: &[VertexId],
    query: &[VertexId],
    k: usize,
    aggregate: Aggregate,
) -> Vec<NetworkNeighbor> {
    assert!(!query.is_empty(), "query group must be non-empty");
    let tables: Vec<Vec<f64>> = query
        .iter()
        .map(|&q| single_source_distances(graph, q))
        .collect();
    let mut best = KBestList::new(k);
    for &v in data {
        let agg = aggregate.aggregate(tables.iter().map(|t| t[v.index()]));
        if agg.is_finite() {
            best.offer(Neighbor {
                id: PointId(u64::from(v.0)),
                point: graph.position(v),
                dist: agg,
            });
        }
    }
    neighbors_from(best)
}

/// Threshold-algorithm / concurrent-expansion network GNN (the network
/// analog of MQM): one incremental Dijkstra per query vertex, advanced
/// round-robin. A data vertex settled by any stream becomes a candidate and
/// is probed for its exact aggregate distance; the per-stream frontier
/// distances combine into the global termination threshold exactly like
/// MQM's `T`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkTa;

impl NetworkTa {
    /// Runs the query. Data vertices unreachable from any query vertex are
    /// excluded (their SUM/MAX aggregate is infinite).
    pub fn k_gnn(
        &self,
        graph: &RoadNetwork,
        data: &[VertexId],
        query: &[VertexId],
        k: usize,
        aggregate: Aggregate,
    ) -> NetworkGnnResult {
        assert!(!query.is_empty(), "query group must be non-empty");
        let mut is_data = vec![false; graph.vertex_count()];
        for &v in data {
            is_data[v.index()] = true;
        }
        let mut streams: Vec<DijkstraStream<'_>> = query
            .iter()
            .map(|&q| DijkstraStream::new(graph, q))
            .collect();
        let mut evaluated = vec![false; graph.vertex_count()];
        let mut thresholds = vec![0.0f64; query.len()];
        let mut best = KBestList::new(k);
        let mut live = vec![true; query.len()];
        let mut pending: Vec<VertexId> = Vec::new();

        'outer: loop {
            let mut progressed = false;
            for si in 0..streams.len() {
                // Drain candidates discovered so far (including those swept
                // up by probes) before judging the termination threshold.
                while let Some(v) = pending.pop() {
                    if evaluated[v.index()] {
                        continue;
                    }
                    evaluated[v.index()] = true;
                    let mut acc = aggregate.identity();
                    let mut reachable = true;
                    for pi in 0..streams.len() {
                        match probe(
                            &mut streams,
                            pi,
                            v,
                            &mut thresholds,
                            &mut live,
                            &is_data,
                            &mut pending,
                        ) {
                            Some(d) => acc = aggregate.fold(acc, d),
                            None => {
                                if aggregate != Aggregate::Min {
                                    reachable = false;
                                    break;
                                }
                            }
                        }
                    }
                    if reachable && acc.is_finite() {
                        best.offer(Neighbor {
                            id: PointId(u64::from(v.0)),
                            point: graph.position(v),
                            dist: acc,
                        });
                    }
                }
                let t = aggregate.aggregate(thresholds.iter().copied());
                if t >= best.bound() {
                    break 'outer;
                }
                if !live[si] {
                    continue;
                }
                // Advance stream si by one settled vertex.
                match streams[si].next() {
                    None => {
                        // Stream exhausted: every reachable vertex settled.
                        // No unseen vertex can appear through this stream.
                        thresholds[si] = f64::INFINITY;
                        live[si] = false;
                    }
                    Some((v, d)) => {
                        progressed = true;
                        thresholds[si] = d;
                        if is_data[v.index()] && !evaluated[v.index()] {
                            pending.push(v);
                        }
                    }
                }
            }
            if !progressed && pending.is_empty() {
                break;
            }
        }

        NetworkGnnResult {
            neighbors: neighbors_from(best),
            stats: NetworkGnnStats {
                settled_vertices: streams.iter().map(|s| s.settled_count() as u64).sum(),
                relaxed_edges: streams.iter().map(|s| s.relaxed_edges()).sum(),
                euclidean_candidates: 0,
                rtree_accesses: 0,
                bound_pruned: 0,
            },
        }
    }

    /// The packed, scratch-threaded variant: same mechanics as
    /// [`NetworkTa::k_gnn`] against a [`PackedGraph`] snapshot, reusing
    /// `scratch` (no `V`-sized allocations in steady state), except that a
    /// probe stops once the candidate's lower bound reaches `best_dist`.
    /// Distances are **bit-identical** to the arena entry point on the same
    /// graph and expansion never exceeds it (which id survives an exact tie
    /// at the k-th distance may differ) — the equivalence proptests pin that.
    pub fn k_gnn_in<'s>(
        &self,
        graph: &PackedGraph,
        data: &[VertexId],
        query: &[VertexId],
        k: usize,
        aggregate: Aggregate,
        scratch: &'s mut NetworkScratch,
    ) -> (&'s [Neighbor], NetworkGnnStats) {
        assert!(!query.is_empty(), "query group must be non-empty");
        scratch.begin(graph.vertex_count(), query.len(), k);
        let NetworkScratch {
            states,
            lb,
            pending,
            data_epoch,
            evaluated_epoch,
            epoch,
            best,
            out,
            ..
        } = scratch;
        let epoch = *epoch;
        let states = &mut states[..query.len()];
        for (s, &q) in states.iter_mut().zip(query) {
            s.begin(graph, q);
        }
        for &v in data {
            data_epoch[v.index()] = epoch;
        }
        let mut bound_pruned = 0u64;

        'outer: loop {
            let mut progressed = false;
            for si in 0..states.len() {
                // Drain candidates discovered so far (including those swept
                // up by refinement) before judging the termination threshold.
                while let Some(v) = pending.pop() {
                    if evaluated_epoch[v.index()] == epoch {
                        continue;
                    }
                    evaluated_epoch[v.index()] = epoch;
                    let pruned = refine(graph, states, query, lb, v, aggregate, best, |u| {
                        if data_epoch[u.index()] == epoch {
                            pending.push(u);
                        }
                    });
                    bound_pruned += u64::from(pruned);
                }
                // The per-stream thresholds `t_i` are the frontiers (∞ once
                // a stream is exhausted: nothing unseen can appear there).
                let t = aggregate.aggregate(states.iter().map(|s| s.frontier()));
                if t >= best.bound() {
                    break 'outer;
                }
                // Advance stream si by one settled vertex.
                if let Some((v, _)) = states[si].step(graph) {
                    progressed = true;
                    if data_epoch[v.index()] == epoch && evaluated_epoch[v.index()] != epoch {
                        pending.push(v);
                    }
                }
            }
            if !progressed && pending.is_empty() {
                break;
            }
        }

        let stats = NetworkGnnStats {
            settled_vertices: states.iter().map(|s| s.settled_count() as u64).sum(),
            relaxed_edges: states.iter().map(|s| s.relaxed_edges()).sum(),
            euclidean_candidates: 0,
            rtree_accesses: 0,
            bound_pruned,
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }
}

/// Incremental Euclidean restriction (IER) network GNN: data vertices are
/// indexed by an R\*-tree; the Euclidean MBM stream yields candidates in
/// ascending *Euclidean* aggregate distance, which lower-bounds the network
/// aggregate (shortest paths dominate straight lines — enforced by
/// [`RoadNetwork::add_edge_weighted`]). Each candidate is refined with exact
/// network distances; the search stops when the Euclidean bound reaches the
/// k-th best network distance.
///
/// This is the paper's own machinery (MBM!) recycled as the filter step of
/// the network extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkIer;

impl NetworkIer {
    /// Runs the query.
    pub fn k_gnn(
        &self,
        graph: &RoadNetwork,
        data: &[VertexId],
        query: &[VertexId],
        k: usize,
        aggregate: Aggregate,
    ) -> NetworkGnnResult {
        assert!(!query.is_empty(), "query group must be non-empty");
        // Euclidean index over the data vertices (ids = vertex ids).
        let tree = RTree::bulk_load(
            RTreeParams::default(),
            data.iter()
                .map(|&v| LeafEntry::new(PointId(u64::from(v.0)), graph.position(v))),
        )
        .freeze();
        let cursor = tree.cursor();
        let group = QueryGroup::with_aggregate(
            query.iter().map(|&q| graph.position(q)).collect(),
            aggregate,
        )
        .expect("non-empty query group");

        let mut streams: Vec<DijkstraStream<'_>> = query
            .iter()
            .map(|&q| DijkstraStream::new(graph, q))
            .collect();
        let mut best = KBestList::new(k);
        let mut stream_scratch = MbmScratch::default();
        let mut euclid_stream = MbmStream::new_in(&cursor, &group, &mut stream_scratch);
        let mut candidates = 0u64;
        for cand in euclid_stream.by_ref() {
            // cand.dist is the Euclidean aggregate = a network lower bound.
            if cand.dist >= best.bound() {
                break;
            }
            candidates += 1;
            let v = VertexId(cand.id.0 as u32);
            let agg = aggregate_over_queries(&mut streams, v, aggregate);
            if agg.is_finite() {
                best.offer(Neighbor {
                    id: cand.id,
                    point: cand.point,
                    dist: agg,
                });
            }
        }

        NetworkGnnResult {
            neighbors: neighbors_from(best),
            stats: NetworkGnnStats {
                settled_vertices: streams.iter().map(|s| s.settled_count() as u64).sum(),
                relaxed_edges: streams.iter().map(|s| s.relaxed_edges()).sum(),
                euclidean_candidates: candidates,
                rtree_accesses: cursor.stats().logical,
                bound_pruned: 0,
            },
        }
    }

    /// The packed, scratch-threaded variant: the Euclidean filter runs over
    /// a **prebuilt** frozen R\*-tree of the data vertices (`data_tree`,
    /// ids = vertex ids — see `NetworkSnapshot`, which builds it once at
    /// freeze time instead of per query), the MBM stream reuses the
    /// scratch's `MbmScratch`, and refinement runs epoch-stamped packed
    /// Dijkstra states only as far as `best_dist` allows. Results and the
    /// Euclidean-filter counters are bit-identical to [`NetworkIer::k_gnn`]
    /// when `data_tree` is the snapshot that entry point freezes (same
    /// bulk load, same order); the Dijkstra counters never exceed its.
    pub fn k_gnn_in<'s>(
        &self,
        graph: &PackedGraph,
        data_tree: &PackedRTree,
        query: &[VertexId],
        k: usize,
        aggregate: Aggregate,
        scratch: &'s mut NetworkScratch,
    ) -> (&'s [Neighbor], NetworkGnnStats) {
        assert!(!query.is_empty(), "query group must be non-empty");
        scratch.begin(graph.vertex_count(), query.len(), k);
        let cursor = data_tree.cursor();
        let group = QueryGroup::with_aggregate(
            query.iter().map(|&q| graph.position(q)).collect(),
            aggregate,
        )
        .expect("non-empty query group");
        let NetworkScratch {
            states,
            lb,
            mbm,
            best,
            out,
            ..
        } = scratch;
        let states = &mut states[..query.len()];
        for (s, &q) in states.iter_mut().zip(query) {
            s.begin(graph, q);
        }
        let mut euclid_stream = MbmStream::new_in(&cursor, &group, mbm);
        let mut candidates = 0u64;
        let mut bound_pruned = 0u64;
        for cand in euclid_stream.by_ref() {
            // cand.dist is the Euclidean aggregate = a network lower bound.
            if cand.dist >= best.bound() {
                break;
            }
            candidates += 1;
            let v = VertexId(cand.id.0 as u32);
            let pruned = refine(graph, states, query, lb, v, aggregate, best, |_| {});
            bound_pruned += u64::from(pruned);
        }

        let stats = NetworkGnnStats {
            settled_vertices: states.iter().map(|s| s.settled_count() as u64).sum(),
            relaxed_edges: states.iter().map(|s| s.relaxed_edges()).sum(),
            euclidean_candidates: candidates,
            rtree_accesses: cursor.stats().logical,
            bound_pruned,
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::NetworkSnapshot;
    use gnn_geom::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_vertices(graph: &RoadNetwork, count: usize, seed: u64) -> Vec<VertexId> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut picked: Vec<u32> = (0..graph.vertex_count() as u32).collect();
        // Partial Fisher-Yates.
        for i in 0..count.min(picked.len()) {
            let j = rng.gen_range(i..picked.len());
            picked.swap(i, j);
        }
        picked.truncate(count);
        picked.into_iter().map(VertexId).collect()
    }

    fn check_matches_oracle(
        graph: &RoadNetwork,
        data: &[VertexId],
        query: &[VertexId],
        k: usize,
        aggregate: Aggregate,
    ) {
        let want = network_oracle(graph, data, query, k, aggregate);
        let ta = NetworkTa.k_gnn(graph, data, query, k, aggregate);
        let ier = NetworkIer.k_gnn(graph, data, query, k, aggregate);
        for (name, got) in [("TA", &ta.neighbors), ("IER", &ier.neighbors)] {
            assert_eq!(got.len(), want.len(), "{name} {aggregate}");
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.dist - w.dist).abs() < 1e-9 * (1.0 + w.dist),
                    "{name} {aggregate}: {} vs {}",
                    g.dist,
                    w.dist
                );
            }
        }
    }

    #[test]
    fn grid_network_all_aggregates() {
        let g = RoadNetwork::grid(12, 12, 0.2, 1);
        let data = sample_vertices(&g, 40, 2);
        let query = sample_vertices(&g, 5, 3);
        for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            check_matches_oracle(&g, &data, &query, 3, agg);
        }
    }

    #[test]
    fn random_geometric_networks() {
        let ws = Rect::from_corners(0.0, 0.0, 10.0, 10.0);
        for seed in 0..4 {
            let g = RoadNetwork::random_geometric(150, ws, 1.4, seed);
            let data = sample_vertices(&g, 50, seed + 10);
            let query = sample_vertices(&g, 4, seed + 20);
            check_matches_oracle(&g, &data, &query, 4, Aggregate::Sum);
        }
    }

    #[test]
    fn k_one_on_path_graph() {
        // Path 0-1-2-3-4 with unit edges; Q = {0, 4}; SUM distance of every
        // vertex is 4 (the path length) -> all tie; MAX is minimised at the
        // middle vertex 2.
        let mut g = RoadNetwork::new();
        let vs: Vec<VertexId> = (0..5)
            .map(|i| g.add_vertex(Point::new(i as f64, 0.0)))
            .collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let query = vec![vs[0], vs[4]];
        let r = NetworkTa.k_gnn(&g, &vs, &query, 1, Aggregate::Max);
        assert_eq!(r.neighbors[0].vertex, vs[2]);
        assert_eq!(r.neighbors[0].dist, 2.0);
        let r_sum = NetworkIer.k_gnn(&g, &vs, &query, 1, Aggregate::Sum);
        assert_eq!(r_sum.neighbors[0].dist, 4.0);
    }

    #[test]
    fn detour_networks_separate_euclidean_from_network() {
        // Two parallel roads connected only at the far ends: the Euclidean
        // nearest data vertex is across the gap, but its network distance is
        // long. IER must keep refining and return the network-correct answer.
        let mut g = RoadNetwork::new();
        let mut south = Vec::new();
        let mut north = Vec::new();
        for i in 0..11 {
            south.push(g.add_vertex(Point::new(i as f64, 0.0)));
            north.push(g.add_vertex(Point::new(i as f64, 1.0)));
        }
        for w in south.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        for w in north.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        // Only the ends connect the two roads.
        g.add_edge(south[0], north[0]);
        g.add_edge(south[10], north[10]);

        // Query on the south road, data on both roads.
        let query = vec![south[4], south[6]];
        let data = vec![north[5], south[9]];
        let want = network_oracle(&g, &data, &query, 1, Aggregate::Sum);
        // north[5] is Euclidean-closest (1 unit away) but 11+ by network.
        assert_eq!(want[0].vertex, south[9]);
        check_matches_oracle(&g, &data, &query, 1, Aggregate::Sum);
    }

    #[test]
    fn disconnected_data_is_excluded() {
        let mut g = RoadNetwork::grid(4, 4, 0.0, 4);
        let island_a = g.add_vertex(Point::new(100.0, 100.0));
        let island_b = g.add_vertex(Point::new(101.0, 100.0));
        g.add_edge(island_a, island_b);
        let data = vec![VertexId(0), island_a];
        let query = vec![VertexId(5), VertexId(10)];
        for algo_result in [
            NetworkTa.k_gnn(&g, &data, &query, 2, Aggregate::Sum),
            NetworkIer.k_gnn(&g, &data, &query, 2, Aggregate::Sum),
        ] {
            assert_eq!(algo_result.neighbors.len(), 1, "island must be excluded");
            assert_eq!(algo_result.neighbors[0].vertex, VertexId(0));
        }
    }

    #[test]
    fn ier_prunes_candidates() {
        // With spread-out data and a tight query, IER should refine only a
        // few of the many data vertices.
        let g = RoadNetwork::grid(20, 20, 0.2, 5);
        let data = sample_vertices(&g, 200, 6);
        let query = vec![VertexId(210), VertexId(211), VertexId(230)];
        let r = NetworkIer.k_gnn(&g, &data, &query, 1, Aggregate::Sum);
        assert!(
            r.stats.euclidean_candidates < 60,
            "refined {} of 200 candidates",
            r.stats.euclidean_candidates
        );
        // And it still matches TA.
        let ta = NetworkTa.k_gnn(&g, &data, &query, 1, Aggregate::Sum);
        assert!((r.neighbors[0].dist - ta.neighbors[0].dist).abs() < 1e-9);
        // A spread-out group loosens the Euclidean bound: the arena
        // reference refines every candidate it pulls to completion, the
        // packed path discards some on `best_dist`, for the same answer.
        let query = vec![VertexId(0), VertexId(19), VertexId(399)];
        let r = NetworkIer.k_gnn(&g, &data, &query, 1, Aggregate::Sum);
        let ta = NetworkTa.k_gnn(&g, &data, &query, 1, Aggregate::Sum);
        assert_eq!((r.stats.bound_pruned, ta.stats.bound_pruned), (0, 0));
        let snapshot = NetworkSnapshot::new(g.freeze(), data.clone());
        let (packed, tree) = (snapshot.graph(), snapshot.data_tree());
        let mut scratch = NetworkScratch::new();
        let (out, stats) =
            NetworkIer.k_gnn_in(packed, tree, &query, 1, Aggregate::Sum, &mut scratch);
        assert_eq!(out[0].dist.to_bits(), r.neighbors[0].dist.to_bits());
        assert_eq!(stats.euclidean_candidates, r.stats.euclidean_candidates);
        assert!(stats.bound_pruned > 0, "the bound never bit: {stats:?}");
        assert!(stats.settled_vertices < r.stats.settled_vertices);
        let (out, stats) =
            NetworkTa.k_gnn_in(packed, &data, &query, 1, Aggregate::Sum, &mut scratch);
        assert_eq!(out[0].dist.to_bits(), r.neighbors[0].dist.to_bits());
        assert!(stats.bound_pruned > 0, "the bound never bit: {stats:?}");
        assert!(stats.settled_vertices < ta.stats.settled_vertices);
    }

    #[test]
    fn bound_equal_to_best_dist_settles_nothing_further() {
        // Path 0-1-2-3-4, unit edges, one source at vertex 0 that has not
        // expanded yet: a candidate's bounds are Euclidean and landmark
        // ones. With best_dist = 3, vertex 3 (Euclidean bound exactly 3)
        // must be discarded before any vertex settles — pruning is `>=`,
        // as everywhere. `spur` hangs off the far end: 0.71 away as the
        // crow flies, 7.5 by road. `detour` hangs off vertex 2: 2.06 away
        // as the crow flies, 3 + 1e-7 by road.
        let mut g = RoadNetwork::new();
        let vs: Vec<VertexId> = (0..5)
            .map(|i| g.add_vertex(Point::new(i as f64, 0.0)))
            .collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let spur = g.add_vertex(Point::new(0.5, 0.5));
        g.add_edge(vs[4], spur);
        let detour = g.add_vertex(Point::new(2.0, 0.5));
        g.add_edge_weighted(vs[2], detour, 1.0 + 1e-7);
        // Seven vertices, so every one is a landmark, the source too.
        let packed = g.freeze();
        let query = [vs[0]];
        let mut states = [DijkstraState::default()];
        states[0].begin(&packed, vs[0]);
        let mut best = KBestList::new(1);
        best.offer(Neighbor {
            id: PointId(99),
            point: Point::new(0.0, 3.0),
            dist: 3.0,
        });
        let mut lb = [0.0];
        let mut refine_one =
            |v, best: &mut KBestList, states: &mut [DijkstraState]| -> (bool, usize) {
                let pruned = refine(
                    &packed,
                    states,
                    &query,
                    &mut lb,
                    v,
                    Aggregate::Sum,
                    best,
                    |_| {},
                );
                (pruned, states[0].settled_count())
            };
        assert_eq!(refine_one(vs[3], &mut best, &mut states), (true, 0));
        assert_eq!(refine_one(vs[4], &mut best, &mut states), (true, 0));
        // The source is a landmark, and its column puts the spur ~7.5
        // away: discarded with nothing settled, though 0.71 by air.
        assert_eq!(refine_one(spur, &mut best, &mut states), (true, 0));
        // The detour's label, 3 + 1e-7, narrows to the `f32` 3.0, so its
        // landmark bound stays a hair below best_dist: it is expanded for
        // until the frontier itself — vertex 3 settling at distance 3 —
        // equals best_dist, and no further.
        let (q, d) = (query[0], detour);
        assert!(packed.landmark_bound(q, d) < 3.0 && packed.landmark_bound(q, d) > 2.99);
        assert_eq!(refine_one(detour, &mut best, &mut states), (true, 4));
        // Vertex 2 settled on the way: exact at once, offered, kept.
        assert_eq!(refine_one(vs[2], &mut best, &mut states), (false, 4));
        assert_eq!(best.bound(), 2.0);
    }

    #[test]
    fn queries_across_the_epoch_wrap_equal_a_fresh_scratch() {
        let g = RoadNetwork::grid(9, 9, 0.2, 11);
        let packed = g.freeze();
        // Warm-up on one data set leaves stale stamps 1 and 2 behind; the
        // queries across the wrap use a disjoint one, so a stamp surviving
        // the wrap would pass a non-data vertex off as data.
        let all = sample_vertices(&g, 40, 12);
        let (warm_data, data) = all.split_at(20);
        let warm = NetworkSnapshot::new(packed.clone(), warm_data.to_vec());
        let live = NetworkSnapshot::new(packed.clone(), data.to_vec());
        let (warm_tree, tree) = (warm.data_tree(), live.data_tree());
        let query = sample_vertices(&g, 3, 13);
        let mut scratch = NetworkScratch::new();
        NetworkTa.k_gnn_in(&packed, warm_data, &query, 2, Aggregate::Sum, &mut scratch);
        NetworkIer.k_gnn_in(&packed, warm_tree, &query, 2, Aggregate::Sum, &mut scratch);
        scratch.force_epochs(u32::MAX - 1);
        for (round, aggregate) in [Aggregate::Sum, Aggregate::Max, Aggregate::Min]
            .into_iter()
            .enumerate()
        {
            let mut fresh = NetworkScratch::new();
            let (want, want_stats) =
                NetworkTa.k_gnn_in(&packed, data, &query, 3, aggregate, &mut fresh);
            let (got, got_stats) =
                NetworkTa.k_gnn_in(&packed, data, &query, 3, aggregate, &mut scratch);
            assert_eq!(got, want, "TA round {round}");
            assert_eq!(got_stats.settled_vertices, want_stats.settled_vertices);
            let want = NetworkIer.k_gnn(&g, data, &query, 3, aggregate);
            let (got, got_stats) =
                NetworkIer.k_gnn_in(&packed, tree, &query, 3, aggregate, &mut scratch);
            assert_eq!(got.len(), want.neighbors.len(), "IER round {round}");
            for (g, w) in got.iter().zip(&want.neighbors) {
                assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "IER round {round}");
            }
            assert_eq!(
                got_stats.euclidean_candidates,
                want.stats.euclidean_candidates
            );
        }
        // Six queries from MAX - 1: MAX, then the wrap's hard reset to 1.
        assert_eq!(scratch.epoch, 5);
    }

    #[test]
    fn cost_counters_are_populated() {
        let g = RoadNetwork::grid(8, 8, 0.1, 7);
        let data = sample_vertices(&g, 20, 8);
        let query = sample_vertices(&g, 3, 9);
        let ta = NetworkTa.k_gnn(&g, &data, &query, 2, Aggregate::Sum);
        assert!(ta.stats.settled_vertices > 0);
        assert!(ta.stats.relaxed_edges > 0);
        let ier = NetworkIer.k_gnn(&g, &data, &query, 2, Aggregate::Sum);
        assert!(ier.stats.rtree_accesses > 0);
        assert!(ier.stats.euclidean_candidates > 0);
    }
}
