//! # gnn-network — group nearest neighbors under network distance
//!
//! The ICDE 2004 paper closes with: *"it would be interesting to study other
//! distance metrics (e.g., network distance) that necessitate alternative
//! pruning heuristics and algorithms"*. This crate implements that
//! extension, following the approach the same group later published for
//! aggregate NN queries in road networks:
//!
//! * [`RoadNetwork`] — an undirected weighted graph with embedded vertices
//!   (a spatial network à la \[PZMT03\]), plus seeded generators (grid road
//!   network, random geometric graph);
//! * [`DijkstraStream`] — *incremental* network expansion: vertices emerge
//!   in ascending network distance from a source, the network analog of the
//!   best-first NN stream;
//! * two exact network-GNN algorithms over data points placed on vertices:
//!   * [`NetworkTa`] — threshold algorithm / concurrent expansion: one
//!     Dijkstra stream per query point, thresholds combine exactly like
//!     MQM's;
//!   * [`NetworkIer`] — *incremental Euclidean restriction*: candidates are
//!     pulled from the Euclidean [`gnn_core::MbmStream`] over an R-tree of
//!     the data points (Euclidean aggregate distance lower-bounds network
//!     aggregate distance because shortest paths are at least as long as
//!     straight lines), then refined with exact network distances.
//!
//! Both are verified against a brute-force multi-source Dijkstra oracle.
//!
//! ## Serving layer
//!
//! The arena types above are built for construction and experimentation;
//! serving goes through packed snapshots:
//!
//! * [`PackedGraph`] — [`RoadNetwork::freeze`] lays the adjacency lists
//!   into contiguous CSR arenas, mirrors positions into SoA arrays,
//!   freezes a vertex R\*-tree for packed NN snapping, and keeps a table
//!   of landmark distances the refinement reads lower bounds from;
//! * [`NetworkScratch`] — reusable epoch-stamped per-query state threaded
//!   through [`NetworkTa::k_gnn_in`] / [`NetworkIer::k_gnn_in`], making
//!   steady-state queries allocation-free. Those two refine a candidate only
//!   as far as `best_dist` allows: against the arena `k_gnn` reference,
//!   the same answers bit for bit, never more expansion;
//! * [`NetworkSnapshot`] — graph + data vertices + frozen Euclidean filter
//!   index behind [`gnn_core::NetworkBackend`], so `gnn-service`'s workers
//!   serve network GNN through the same submission surface as Euclidean
//!   queries, bit-identical to the sequential reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithms;
mod dijkstra;
mod graph;
mod packed;
mod scratch;
mod serve;

pub use algorithms::{
    network_oracle, NetworkGnnResult, NetworkGnnStats, NetworkIer, NetworkNeighbor, NetworkTa,
};
pub use dijkstra::{shortest_path, DijkstraStream};
pub use graph::{EdgeId, RoadNetwork, VertexId};
pub use packed::PackedGraph;
pub use scratch::NetworkScratch;
pub use serve::NetworkSnapshot;
