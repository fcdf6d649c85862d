//! # gnn-telemetry — observability primitives for the GNN serving stack
//!
//! A std-only crate holding the pieces the serving layers (`gnn-service`,
//! its refresh driver, and the benches) use to *see* themselves:
//!
//! * [`LatencyHistogram`] / [`LatencySnapshot`] — the lock-free 976-bucket
//!   log-linear latency histogram (≤ 6.25% relative quantile error,
//!   7.6 KiB per instance, no allocation or locking on the record path);
//! * [`StageHistograms`] / [`StageSnapshot`] — per-stage decomposition of
//!   the end-to-end latency (queue wait / execution / reply, plus the
//!   shed-wait distribution of dropped requests);
//! * [`FlightRecorder`] / [`FlightLog`] — fixed-capacity rings of
//!   structured serving events ([`FlightEventKind`]), each a `VecDeque`
//!   behind one `Mutex`, with monotonic timestamps and exact drop counters,
//!   merged into a time-ordered postmortem view.
//!
//! Everything here is deliberately mechanism, not policy: this crate knows
//! nothing about queries, shards, or snapshots — it provides the recording
//! primitives, and `gnn-service` decides what to record where. The one
//! shared convention is the **epoch**: rings whose events will be merged
//! must be constructed with the same epoch `Instant`, so their timestamps
//! share an origin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod recorder;
mod stages;

pub use histogram::{LatencyHistogram, LatencySnapshot, BUCKETS};
pub use recorder::{
    FlightEvent, FlightEventKind, FlightLog, FlightRecorder, RingSnapshot, SOURCE_CONTROL,
    SOURCE_DRIVER,
};
pub use stages::{StageHistograms, StageSnapshot};
