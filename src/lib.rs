//! # gnn — Group Nearest Neighbor queries over R\*-trees
//!
//! An umbrella crate re-exporting the whole GNN workspace: a faithful,
//! from-scratch Rust reproduction of
//!
//! > D. Papadias, Q. Shen, Y. Tao, K. Mouratidis.
//! > *Group Nearest Neighbor Queries.* ICDE 2004.
//!
//! Given a dataset `P` indexed by an R\*-tree and a group of query points
//! `Q = {q1..qn}`, a GNN query returns the `k` points of `P` minimising the
//! aggregate distance `dist(p, Q) = Σ_i |p qi|`.
//!
//! ## Quick start
//!
//! ```
//! use gnn::prelude::*;
//!
//! // Three users looking for a meeting point among candidate restaurants.
//! let restaurants = vec![
//!     Point::new(1.0, 1.0),
//!     Point::new(4.0, 5.0),
//!     Point::new(9.0, 2.0),
//! ];
//! let tree = RTree::bulk_load(
//!     RTreeParams::default(),
//!     restaurants
//!         .iter()
//!         .enumerate()
//!         .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
//! )
//! .freeze(); // queries read the packed snapshot
//! let users = QueryGroup::sum(vec![
//!     Point::new(2.0, 2.0),
//!     Point::new(3.0, 6.0),
//!     Point::new(5.0, 3.0),
//! ])
//! .unwrap();
//!
//! let cursor = tree.cursor();
//! let found = Mbm::best_first().k_gnn(&cursor, &users, 1);
//! assert_eq!(found.neighbors[0].id, PointId(1)); // the restaurant at (4, 5)
//! ```
//!
//! ## Workspace layout
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`geom`] | `gnn-geom` | points, rectangles, `mindist`, Hilbert curve |
//! | [`rtree`] | `gnn-rtree` | R\*-tree, buffer pool, NN & closest-pair search |
//! | [`qfile`] | `gnn-qfile` | paged disk-resident query files |
//! | [`datasets`] | `gnn-datasets` | PP/TS dataset substitutes, workloads |
//! | [`core`] | `gnn-core` | MQM, SPM, MBM, GCP, F-MQM, F-MBM |
//! | [`telemetry`] | `gnn-telemetry` | latency histograms, stage decomposition, flight recorder |
//! | [`service`] | `gnn-service` | sharded multi-threaded query serving |
//! | [`network`] | `gnn-network` | the future-work extension: GNN under network distance, with packed serving snapshots |

#![forbid(unsafe_code)]

pub use gnn_core as core;
pub use gnn_datasets as datasets;
pub use gnn_geom as geom;
pub use gnn_network as network;
pub use gnn_qfile as qfile;
pub use gnn_rtree as rtree;
pub use gnn_service as service;
pub use gnn_telemetry as telemetry;

/// One-stop imports for typical GNN usage.
pub mod prelude {
    pub use gnn_core::{
        execute_batch_in, Aggregate, Algo, BatchAccounting, Choice, FileGnnAlgorithm, Fmbm, Fmqm,
        Gcp, GnnResult, Mbm, MbmStream, MemoryGnnAlgorithm, Mqm, Neighbor, NetworkBackend,
        NetworkQuery, Planner, QueryGroup, QueryRequest, QueryResponse, QueryScratch, QueryStats,
        QueryTrace, ShardRouting, Spm, Target,
    };
    pub use gnn_geom::{Point, PointId, Rect};
    pub use gnn_network::{
        NetworkIer, NetworkScratch, NetworkSnapshot, NetworkTa, PackedGraph, RoadNetwork, VertexId,
    };
    pub use gnn_qfile::{FileCursor, GroupedQueryFile, PointFile};
    pub use gnn_rtree::{
        LeafEntry, PackedRTree, RTree, RTreeParams, ShardedSnapshot, ShardedTree, TreeCursor,
    };
    pub use gnn_service::{
        DriverError, FaultLedger, FaultPlan, PublishRecord, QueryError, RefreshDriver,
        RefreshPolicy, ResponseHandle, Service, ServiceConfig, ServiceStats, Submission,
        SubmitError, Update,
    };
    pub use gnn_telemetry::{
        FlightEvent, FlightEventKind, FlightLog, LatencySnapshot, StageSnapshot,
    };
}
