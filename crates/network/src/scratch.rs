//! Reusable per-query storage for packed network GNN — the network analog
//! of `gnn_core::QueryScratch`.
//!
//! The arena algorithms allocate two `V`-sized arrays **per Dijkstra
//! stream per query** (distances + settled flags) plus candidate
//! bookkeeping. [`NetworkScratch`] hoists all of it into one reusable
//! bundle: distance/settled arrays are *epoch-stamped* (a query bumps one
//! counter instead of clearing `O(V)` memory), heaps and candidate buffers
//! keep their capacity, and the Euclidean filter state (`MbmScratch`,
//! `NnScratch`) rides along for IER and snapping, as does the per-stream
//! lower-bound buffer of the bounded refinement. After a warm-up query at
//! a given graph size and group size, steady-state queries through the
//! packed `k_gnn_in` entry points perform no `V`-sized allocations.
//!
//! One scratch serves one query at a time; serving workers keep one each
//! (inside their `QueryScratch`, see `gnn_core::backend`).

use crate::graph::VertexId;
use crate::packed::PackedGraph;
use gnn_core::{KBestList, MbmScratch, Neighbor};
use gnn_geom::OrderedF64;
use gnn_rtree::NnScratch;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Epoch-stamped incremental Dijkstra state over a [`PackedGraph`] — the
/// packed, reusable counterpart of [`crate::DijkstraStream`]. Identical
/// expansion mechanics (same heap keys, same relaxation order via the
/// preserved adjacency order), so the settled sequence and its distances
/// are bit-identical to the arena stream's, step for step. The packed
/// algorithms take fewer steps, never different ones.
#[derive(Debug, Default)]
pub(crate) struct DijkstraState {
    /// Tentative distances; valid only where `dist_epoch` matches `epoch`
    /// (everything else is implicitly `+inf`).
    dist: Vec<f64>,
    dist_epoch: Vec<u32>,
    settled_epoch: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<(OrderedF64, u32)>>,
    /// Distance of the last vertex settled (`0` before the first, `∞` once
    /// the expansion is exhausted).
    frontier: f64,
    settled_count: usize,
    relaxed_edges: u64,
}

impl DijkstraState {
    /// Re-arms the state for a fresh expansion from `source` (O(1) amortized
    /// — a stamped reset, not an `O(V)` clear).
    pub(crate) fn begin(&mut self, graph: &PackedGraph, source: VertexId) {
        let n = graph.vertex_count();
        assert!(source.index() < n, "unknown source vertex");
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.dist_epoch.resize(n, 0);
            self.settled_epoch.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap (once per 2^32 queries): hard-reset the stamps.
                self.dist_epoch.fill(0);
                self.settled_epoch.fill(0);
                1
            }
        };
        self.heap.clear();
        self.frontier = 0.0;
        self.settled_count = 0;
        self.relaxed_edges = 0;
        self.dist[source.index()] = 0.0;
        self.dist_epoch[source.index()] = self.epoch;
        self.heap.push(Reverse((OrderedF64(0.0), source.0)));
    }

    /// The settled distance of `v`, if this query's expansion has produced
    /// it already.
    pub(crate) fn settled_distance(&self, v: VertexId) -> Option<f64> {
        (self.settled_epoch[v.index()] == self.epoch).then(|| self.dist[v.index()])
    }

    /// A lower bound on the distance of every vertex this expansion has not
    /// settled: the distance of the last one it did, `∞` once exhausted.
    pub(crate) fn frontier(&self) -> f64 {
        self.frontier
    }

    /// Settles and yields the next vertex in ascending distance (`None`
    /// when every reachable vertex has settled) — [`Iterator::next`] of the
    /// arena stream, with the graph passed explicitly so many states can
    /// live side by side in one scratch.
    pub(crate) fn step(&mut self, graph: &PackedGraph) -> Option<(VertexId, f64)> {
        while let Some(Reverse((d, v))) = self.heap.pop() {
            let vi = v as usize;
            if self.settled_epoch[vi] == self.epoch {
                continue; // stale heap entry
            }
            self.settled_epoch[vi] = self.epoch;
            self.settled_count += 1;
            let d = d.get();
            self.frontier = d;
            for (u, w) in graph.neighbors(VertexId(v)) {
                self.relaxed_edges += 1;
                let nd = d + w;
                let ui = u.index();
                let cur = if self.dist_epoch[ui] == self.epoch {
                    self.dist[ui]
                } else {
                    f64::INFINITY
                };
                if nd < cur {
                    self.dist[ui] = nd;
                    self.dist_epoch[ui] = self.epoch;
                    self.heap.push(Reverse((OrderedF64(nd), u.0)));
                }
            }
            return Some((VertexId(v), d));
        }
        self.frontier = f64::INFINITY;
        None
    }

    /// Vertices settled by the current query's expansion.
    pub(crate) fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Edge relaxations performed by the current query's expansion.
    pub(crate) fn relaxed_edges(&self) -> u64 {
        self.relaxed_edges
    }

    fn capacity_profile(&self) -> impl Iterator<Item = usize> + '_ {
        [
            self.dist.capacity(),
            self.dist_epoch.capacity(),
            self.settled_epoch.capacity(),
            self.heap.capacity(),
        ]
        .into_iter()
    }
}

/// Reusable storage for packed network GNN queries. Create once, thread
/// through [`crate::NetworkTa::k_gnn_in`] / [`crate::NetworkIer::k_gnn_in`],
/// and steady-state queries stop allocating.
#[derive(Debug, Default)]
pub struct NetworkScratch {
    /// One Dijkstra state per query vertex (grown to the largest group
    /// seen; states keep their arrays across queries).
    pub(crate) states: Vec<DijkstraState>,
    /// The candidate under refinement's per-stream lower bounds `lb_i`.
    pub(crate) lb: Vec<f64>,
    /// TA's LIFO queue of discovered-but-unevaluated data vertices.
    pub(crate) pending: Vec<VertexId>,
    /// Epoch-stamped "is a data vertex" set (stamp equality = member).
    pub(crate) data_epoch: Vec<u32>,
    /// Epoch-stamped "already evaluated" set.
    pub(crate) evaluated_epoch: Vec<u32>,
    /// The stamp the two sets above are valid for; bumped per query.
    pub(crate) epoch: u32,
    /// The bounded best-k list.
    pub(crate) best: KBestList,
    /// Result staging: the packed `k_gnn_in` entry points return a slice of
    /// this.
    pub(crate) out: Vec<Neighbor>,
    /// Euclidean MBM filter state (IER).
    pub(crate) mbm: MbmScratch,
    /// Vertex-snap NN state ([`PackedGraph::snap_in`]).
    pub(crate) nn: NnScratch,
    /// Resolved source vertices of the current request (serving layer).
    pub(crate) sources: Vec<VertexId>,
}

impl NetworkScratch {
    /// A fresh scratch; buffers grow to steady state on the first query.
    pub fn new() -> Self {
        NetworkScratch::default()
    }

    /// Re-arms the scratch for a query over `vertex_count` vertices with
    /// `streams` query vertices and a best-`k` list: bumps the mark epoch,
    /// sizes the per-stream buffers, and clears the candidate queue.
    pub(crate) fn begin(&mut self, vertex_count: usize, streams: usize, k: usize) {
        if self.data_epoch.len() < vertex_count {
            self.data_epoch.resize(vertex_count, 0);
            self.evaluated_epoch.resize(vertex_count, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.data_epoch.fill(0);
                self.evaluated_epoch.fill(0);
                1
            }
        };
        if self.states.len() < streams {
            self.states.resize_with(streams, DijkstraState::default);
        }
        self.lb.clear();
        self.lb.resize(streams, 0.0);
        self.pending.clear();
        self.best.reset(k);
        self.out.clear();
    }

    /// Jumps every epoch counter (test hook for the wrap at `u32::MAX`).
    #[cfg(test)]
    pub(crate) fn force_epochs(&mut self, epoch: u32) {
        self.epoch = epoch;
        for s in &mut self.states {
            s.epoch = epoch;
        }
    }

    /// The neighbors of the most recent packed query (valid until the next
    /// query through this scratch).
    pub fn neighbors(&self) -> &[Neighbor] {
        &self.out
    }

    /// A snapshot of every internal buffer capacity, in a fixed order — the
    /// zero-allocation tests assert it stays constant across a steady-state
    /// workload.
    pub fn capacity_profile(&self) -> Vec<usize> {
        let mut prof = vec![
            self.states.capacity(),
            self.lb.capacity(),
            self.pending.capacity(),
            self.data_epoch.capacity(),
            self.evaluated_epoch.capacity(),
            self.best.capacity(),
            self.out.capacity(),
            self.sources.capacity(),
        ];
        for s in &self.states {
            prof.extend(s.capacity_profile());
        }
        prof.extend(self.mbm.capacity_profile());
        prof.extend(self.nn.capacity_profile());
        prof
    }
}
