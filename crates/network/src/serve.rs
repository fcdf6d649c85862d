//! The serving adapter: a packed network snapshot behind
//! [`gnn_core::NetworkBackend`].
//!
//! [`NetworkSnapshot`] bundles everything a serving worker needs to answer
//! network GNN queries — the [`PackedGraph`], the data-vertex list, and a
//! frozen Euclidean R\*-tree over the data vertices (IER's filter index,
//! built **once** here instead of per query) — and implements the
//! backend-generic execution trait, so `gnn-core`'s `Target::Network` and
//! `gnn-service`'s workers serve it through the exact same
//! `QueryRequest::execute_on` path as Euclidean snapshots. Determinism is
//! inherited by construction: the sequential reference and every service
//! worker funnel through [`NetworkSnapshot::execute`].

use crate::algorithms::{NetworkGnnStats, NetworkIer, NetworkTa};
use crate::graph::VertexId;
use crate::packed::PackedGraph;
use crate::scratch::NetworkScratch;
use gnn_core::Neighbor;
use gnn_core::{Choice, NetworkBackend, Planner, QueryRequest, QueryScratch, QueryStats};
use gnn_geom::PointId;
use gnn_rtree::{AccessStats, LeafEntry, PackedRTree, RTree, RTreeParams};

/// An immutable, shareable serving snapshot of a road network with data
/// objects on its vertices. Workers share one `Arc<NetworkSnapshot>`; all
/// per-query state lives in each worker's [`NetworkScratch`] (stored
/// type-erased inside its `QueryScratch`).
#[derive(Debug)]
pub struct NetworkSnapshot {
    graph: PackedGraph,
    data: Vec<VertexId>,
    /// Frozen Euclidean index over the data vertices (ids = vertex ids),
    /// identical to the per-query snapshot the arena IER freezes (same
    /// bulk load over the same entry order) — the anchor of the
    /// packed-vs-arena equivalence on the Euclidean-filter counters.
    data_tree: PackedRTree,
}

impl NetworkSnapshot {
    /// Builds a snapshot over `graph` with data objects on `data` vertices.
    ///
    /// # Panics
    ///
    /// Panics if a data vertex is out of range for the graph.
    pub fn new(graph: PackedGraph, data: Vec<VertexId>) -> NetworkSnapshot {
        for &v in &data {
            assert!(
                v.index() < graph.vertex_count(),
                "unknown data vertex {v:?}"
            );
        }
        let data_tree = RTree::bulk_load(
            RTreeParams::default(),
            data.iter()
                .map(|&v| LeafEntry::new(PointId(u64::from(v.0)), graph.position(v))),
        )
        .freeze();
        NetworkSnapshot {
            graph,
            data,
            data_tree,
        }
    }

    /// The packed graph.
    pub fn graph(&self) -> &PackedGraph {
        &self.graph
    }

    /// The frozen Euclidean index over the data vertices.
    pub fn data_tree(&self) -> &PackedRTree {
        &self.data_tree
    }

    /// Resolves which network algorithm answers `request` (the network
    /// analog of the request's Euclidean `resolve`): explicit
    /// `Algo::NetworkTa` / `Algo::NetworkIer` pins win; anything else —
    /// including Euclidean pins, which are meaningless here — defers to
    /// [`Planner::choose_network`].
    fn resolve(&self, request: &QueryRequest, planner: &Planner) -> Choice {
        match request.algo {
            gnn_core::Algo::NetworkTa => Choice::NetworkTa,
            gnn_core::Algo::NetworkIer => Choice::NetworkIer,
            _ => planner.choose_network(&request.group),
        }
    }

    /// Resolves the request's source vertices into `sources`: the explicit
    /// [`gnn_core::NetworkQuery::sources`] when pinned (length-checked
    /// against the group), otherwise each group point snapped to its
    /// nearest vertex.
    fn resolve_sources(
        &self,
        request: &QueryRequest,
        net: &mut NetworkScratch,
        sources: &mut Vec<VertexId>,
    ) {
        sources.clear();
        let pinned = request
            .network
            .as_ref()
            .map(|n| n.sources.as_slice())
            .unwrap_or(&[]);
        if pinned.is_empty() {
            for &p in request.group.points() {
                let v = self
                    .graph
                    .snap_in(p, &mut net.nn)
                    .expect("frozen graphs are never empty");
                sources.push(v);
            }
        } else {
            assert_eq!(
                pinned.len(),
                request.group.len(),
                "explicit network sources must be parallel to the group"
            );
            for &s in pinned {
                let v = VertexId(s);
                assert!(
                    v.index() < self.graph.vertex_count(),
                    "unknown source vertex {s}"
                );
                sources.push(v);
            }
        }
    }

    /// Executes `request` against this snapshot through a caller-provided
    /// [`NetworkScratch`] — the sequential reference path the service
    /// bit-identity tests compare against (workers run exactly this via
    /// [`NetworkBackend::execute_network`]).
    pub fn execute(
        &self,
        request: &QueryRequest,
        planner: &Planner,
        net: &mut NetworkScratch,
    ) -> (Choice, NetworkGnnStats) {
        let choice = self.resolve(request, planner);
        if request.k == 0 {
            // Nothing to retrieve: answer before snapping or expanding.
            net.out.clear();
            return (choice, NetworkGnnStats::default());
        }
        let mut sources = std::mem::take(&mut net.sources);
        self.resolve_sources(request, net, &mut sources);
        let aggregate = request.group.aggregate();
        let (_, stats) = match choice {
            Choice::NetworkTa => {
                NetworkTa.k_gnn_in(&self.graph, &self.data, &sources, request.k, aggregate, net)
            }
            _ => NetworkIer.k_gnn_in(
                &self.graph,
                &self.data_tree,
                &sources,
                request.k,
                aggregate,
                net,
            ),
        };
        net.sources = sources;
        (choice, stats)
    }

    /// Maps the network counters into the engine-wide [`QueryStats`] shape:
    /// R-tree accesses of the Euclidean filter land in `data_tree` (logical
    /// = io — the packed filter has no buffer pool), refined candidates in
    /// `items_pulled`, and the Dijkstra counters in their dedicated fields.
    fn query_stats(stats: NetworkGnnStats) -> QueryStats {
        QueryStats {
            data_tree: AccessStats {
                logical: stats.rtree_accesses,
                io: stats.rtree_accesses,
            },
            items_pulled: stats.euclidean_candidates,
            settled_vertices: stats.settled_vertices,
            relaxed_edges: stats.relaxed_edges,
            ..QueryStats::default()
        }
    }

    /// Takes this backend's [`NetworkScratch`] out of a worker's
    /// `QueryScratch` (creating it on first use or after a foreign backend
    /// occupied the slot).
    fn take_scratch(scratch: &mut QueryScratch) -> Box<NetworkScratch> {
        scratch
            .take_backend_state()
            .and_then(|b| b.downcast::<NetworkScratch>().ok())
            .unwrap_or_default()
    }
}

impl NetworkBackend for NetworkSnapshot {
    fn execute_network<'s>(
        &self,
        request: &QueryRequest,
        planner: &Planner,
        scratch: &'s mut QueryScratch,
    ) -> (Choice, &'s [Neighbor], QueryStats) {
        // Take the network state out of the scratch so both are borrowable;
        // stage the neighbors back into the scratch (the engine-wide `*_in`
        // convention) and return the box for the next query.
        let mut net = Self::take_scratch(scratch);
        let (choice, stats) = self.execute(request, planner, &mut net);
        scratch.stage_neighbors(net.neighbors());
        scratch.put_backend_state(net);
        (choice, scratch.neighbors(), Self::query_stats(stats))
    }

    fn warm(&self, scratch: &mut QueryScratch) {
        // Pre-size the per-worker state: one snap warms the NN scratch, one
        // 1-vertex IER query warms the Dijkstra arrays, MBM filter state,
        // and the best list. Group sizes beyond 1 still grow their extra
        // streams on first contact — same contract as the Euclidean warm-up
        // query, which also warms for group size 1.
        let mut net = Self::take_scratch(scratch);
        let center = self.graph.bounding_box().center();
        let v = self
            .graph
            .snap_in(center, &mut net.nn)
            .expect("frozen graphs are never empty");
        let _ = NetworkIer.k_gnn_in(
            &self.graph,
            &self.data_tree,
            &[v],
            1,
            gnn_core::Aggregate::Sum,
            &mut net,
        );
        net.out.clear();
        scratch.put_backend_state(net);
    }
}
