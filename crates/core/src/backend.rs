//! Backend-generic execution over non-Euclidean distance domains.
//!
//! The engine's execution surface ([`crate::Target`] →
//! [`crate::QueryRequest::execute_on`]) was built for Euclidean GNN over
//! R\*-tree snapshots. Road networks — the paper's own future-work metric —
//! need the same serving machinery (planner, scratch reuse, batch executor,
//! one worker queue) but a completely different index and algorithm family.
//!
//! [`NetworkBackend`] is the seam: an object-safe trait a distance-domain
//! implementation (today: `gnn-network`'s packed graph snapshot) plugs into
//! `Target::Network`, so every layer above `execute_on` — batching,
//! sharding-era services, telemetry — works unchanged. `gnn-core` stays
//! free of graph code (no dependency cycle); the backend crate depends on
//! core, not the other way around.

use crate::engine::{Choice, Planner};
use crate::request::QueryRequest;
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;

/// A query's network-domain payload: how its group members map onto the
/// backend's vertices.
///
/// The group of a [`QueryRequest`] always carries member *positions* (and
/// the aggregate). On a network target the backend additionally needs the
/// member **vertices**. `sources` pins them explicitly; when empty, the
/// backend snaps each group point to its Euclidean-nearest vertex (ties
/// broken by lowest vertex id).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkQuery {
    /// Explicit source vertex ids, parallel to the group's points. Empty
    /// means "snap every group point". When non-empty, the length must
    /// equal the group length (the backend panics otherwise — a malformed
    /// request, not a data condition).
    pub sources: Vec<u32>,
}

impl NetworkQuery {
    /// A payload with explicit source vertices (parallel to the group).
    pub fn at_vertices(sources: Vec<u32>) -> Self {
        NetworkQuery { sources }
    }
}

/// An execution backend for a non-Euclidean distance domain.
///
/// Implementations answer a [`QueryRequest`] end to end: resolve the
/// requested algorithm (honoring [`crate::Algo::NetworkTa`] /
/// [`crate::Algo::NetworkIer`], consulting [`Planner::choose_network`] for
/// `Auto`), run it reusing the caller's [`QueryScratch`], stage the
/// neighbors there, and report [`QueryStats`] with the domain's own cost
/// counters filled in ([`QueryStats::settled_vertices`],
/// [`QueryStats::relaxed_edges`]).
///
/// The determinism contract is the same as everywhere else in the engine:
/// the same request against the same backend returns bit-identical
/// neighbors and counters regardless of thread, batch placement, or worker
/// count. [`crate::QueryRequest::execute_on`] is the only caller of
/// [`NetworkBackend::execute_network`]; serving engines call
/// [`NetworkBackend::warm`] once per worker.
pub trait NetworkBackend: Send + Sync {
    /// Executes `request` against this backend, staging results in
    /// `scratch` (via [`QueryScratch::stage_neighbors`]) so the returned
    /// slice follows the engine-wide `*_in` calling convention.
    fn execute_network<'s>(
        &self,
        request: &QueryRequest,
        planner: &Planner,
        scratch: &'s mut QueryScratch,
    ) -> (Choice, &'s [Neighbor], QueryStats);

    /// Pre-sizes the backend's per-worker state inside `scratch` (serving
    /// engines call this once per worker before taking traffic, mirroring
    /// their Euclidean warm-up query). The default does nothing.
    fn warm(&self, scratch: &mut QueryScratch) {
        let _ = scratch;
    }
}
