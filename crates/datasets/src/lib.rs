//! # gnn-datasets — dataset substitutes and query workloads
//!
//! The paper evaluates on two real datasets whose distribution sites are no
//! longer reachable:
//!
//! * **PP** — 24 493 populated places in North America (`[Web1]`),
//! * **TS** — 194 971 centroids of MBRs of streams (poly-lines) in Iowa,
//!   Kansas, Missouri and Nebraska (`[Web2]`).
//!
//! Per the substitution policy in `DESIGN.md`, [`pp_synthetic`] and
//! [`ts_synthetic`] generate seeded synthetic datasets with the same
//! cardinalities and qualitatively matching distributions (clustered
//! settlements, dense line-shaped hydrography). The GNN algorithms' relative
//! behavior depends on cardinality, skew and workspace geometry — all
//! preserved — not on exact coordinates.
//!
//! The crate also generates the paper's query workloads (§5.1): batches of
//! queries, each with `n` points uniformly distributed in a random MBR
//! covering an `M`-fraction of the data workspace, plus the workspace
//! scaling/shifting transforms used by the disk-resident experiments (§5.2).
//! For the road-network extension, [`trip_workload`] generates fixed-seed
//! trip-based group queries: each member is sampled partway along its own
//! shortest-path trip, so query positions follow the network's geometry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod mixed;
mod synthetic;
mod trips;
mod workload;

pub use arrivals::{open_loop_arrivals, Arrival};
pub use mixed::{mixed_traffic, MixedEvent, MixedOp, MixedSpec};
pub use synthetic::{
    gaussian_clusters, pp_synthetic, ts_synthetic, uniform_points, ClusterSpec, PP_CARDINALITY,
    TS_CARDINALITY,
};
pub use trips::{trip_workload, TripQuery, TripSpec};
pub use workload::{
    centered_subrect, hotspot_query_workload, overlap_shifted_rect, query_workload,
    scale_points_to_rect, HotspotSpec, QuerySpec,
};
