//! # gnn-core — Group Nearest Neighbor query processing
//!
//! A faithful reproduction of
//!
//! > D. Papadias, Q. Shen, Y. Tao, K. Mouratidis.
//! > *Group Nearest Neighbor Queries.* ICDE 2004, pp. 301–312.
//!
//! Given a dataset `P` indexed by an R\*-tree and a query group
//! `Q = {q1..qn}`, a GNN query returns the `k` points of `P` minimising the
//! aggregate distance `dist(p, Q) = Σ_i |p q_i|`.
//!
//! ## Algorithms
//!
//! Memory-resident `Q` (paper §3), all implementing
//! [`MemoryGnnAlgorithm`]:
//!
//! | algorithm | idea | paper |
//! |-----------|------|-------|
//! | [`Mqm`] | threshold algorithm over per-query-point incremental NN streams | §3.1 |
//! | [`Spm`] | single traversal anchored at the group centroid; Lemma 1 pruning | §3.2 |
//! | [`Mbm`] | single traversal pruned by the query MBR (heuristics 2 + 3) | §3.3 |
//!
//! Disk-resident `Q` (paper §4):
//!
//! | algorithm | requirement on `Q` | paper |
//! |-----------|--------------------|-------|
//! | [`Gcp`] | R-tree on `Q` (incremental closest pairs + heuristic 4) | §4.1 |
//! | [`Fmqm`] | Hilbert-sorted flat file in memory-sized groups | §4.2 |
//! | [`Fmbm`] | same file; groups pruned by heuristics 5 + 6 | §4.3 |
//!
//! ## Running a query
//!
//! Each algorithm has one entry point, its trait's `k_gnn_in` (the trait's
//! `k_gnn` wraps it with a fresh [`QueryScratch`]). A memory-resident
//! query in served form runs through one path:
//! [`QueryRequest::execute_on`] resolves the [`Planner`]'s §5 choice (or
//! the request's pinned [`Algo`]) and calls that entry point on a
//! [`Target`]. [`Planner::k_gnn_file`] plans and runs a disk-resident
//! query, and [`execute_batch_in`] is a loop of `execute_on` in submission
//! order.
//!
//! Every tree traversal is best-first, as in the paper's experiments
//! ("All implementations are based on the best-first traversal", §5). The
//! depth-first forms of SPM, MBM and F-MBM (Figures 3.4, 3.7 and 4.7) are
//! the paper's printed walk-throughs and are not implemented, and each
//! algorithm applies all of its pruning heuristics.
//!
//! ## Symbol glossary (paper Table 3.1)
//!
//! | symbol | meaning | here |
//! |--------|---------|------|
//! | `Q` | set of query points | [`QueryGroup`] |
//! | `Q_i` | a group of queries that fits in memory | `gnn_qfile::GroupSpec` |
//! | `n`, `n_i` | number of queries in `Q` (`Q_i`) | `QueryGroup::len`, `GroupSpec::count` |
//! | `M`, `M_i` | MBR of `Q` (`Q_i`) | `QueryGroup::mbr`, `GroupSpec::mbr` |
//! | `q` | centroid of `Q` | [`centroid`] module |
//! | `dist(p, Q)` | aggregate distance of `p` to `Q` | `QueryGroup::dist` |
//! | `mindist(N, q)` | min distance between node MBR and centroid | `Rect::mindist_point` |
//! | `mindist(p, M)` | min distance between point and query MBR | `Rect::mindist_point` |
//! | `Σ n_i · mindist(N, M_i)` | weighted mindist over query groups | [`Fmbm`] internals |
//!
//! ## Beyond the paper
//!
//! * MAX / MIN aggregates (the conclusion's "future work"; MQM, MBM, F-MQM
//!   and F-MBM support them — see [`Aggregate`]),
//! * weighted SUM queries (all three memory algorithms),
//! * exact baselines ([`baseline`]) used as test oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
pub mod backend;
pub mod baseline;
pub mod batch;
mod best_list;
pub mod centroid;
mod engine;
mod fmbm;
mod fmqm;
mod gcp;
mod mbm;
mod mqm;
mod query;
mod request;
mod result;
mod scratch;
pub mod sharded;
mod spm;

pub use aggregate::Aggregate;
pub use backend::{NetworkBackend, NetworkQuery};
pub use batch::{execute_batch_in, BatchAccounting};
pub use best_list::KBestList;
pub use engine::{Choice, Planner};
pub use fmbm::Fmbm;
pub use fmqm::Fmqm;
pub use gcp::{Gcp, GCP_DEFAULT_HEAP_LIMIT};
pub use mbm::{Mbm, MbmScratch, MbmStream};
pub use mqm::Mqm;
pub use query::{QueryGroup, QueryGroupError};
pub use request::{Algo, QueryRequest, QueryResponse, QueryTrace, Target};
pub use result::{GnnResult, Neighbor, QueryStats};
pub use scratch::QueryScratch;
pub use sharded::ShardRouting;
pub use spm::Spm;

use gnn_qfile::{FileCursor, GroupedQueryFile};
use gnn_rtree::TreeCursor;

/// A GNN algorithm for memory-resident query groups (paper §3). Each
/// algorithm's one entry point is its [`MemoryGnnAlgorithm::k_gnn_in`];
/// served queries reach it through [`QueryRequest::execute_on`].
pub trait MemoryGnnAlgorithm {
    /// Retrieves the `k` group nearest neighbors of `group` through a fresh
    /// [`QueryScratch`] (the seed behavior: one new set of heaps and lists
    /// per query).
    fn k_gnn(&self, cursor: &TreeCursor<'_>, group: &QueryGroup, k: usize) -> GnnResult {
        let mut scratch = QueryScratch::new();
        let (neighbors, stats) = self.k_gnn_in(cursor, group, k, &mut scratch);
        GnnResult {
            neighbors: neighbors.to_vec(),
            stats,
        }
    }

    /// Retrieves the `k` group nearest neighbors reusing caller-provided
    /// scratch storage. With a warmed-up [`QueryScratch`], steady-state
    /// queries perform zero heap allocations.
    fn k_gnn_in<'s>(
        &self,
        cursor: &TreeCursor<'_>,
        group: &QueryGroup,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Neighbor], QueryStats);
}

/// A GNN algorithm for disk-resident, non-indexed query files (paper
/// §4.2–4.3).
pub trait FileGnnAlgorithm {
    /// Retrieves the `k` group nearest neighbors of the (Hilbert-sorted,
    /// grouped) query file through a fresh [`QueryScratch`].
    fn k_gnn(
        &self,
        data: &TreeCursor<'_>,
        query: &GroupedQueryFile,
        query_cursor: &FileCursor<'_>,
        k: usize,
        aggregate: Aggregate,
    ) -> GnnResult {
        let mut scratch = QueryScratch::new();
        let (neighbors, stats) =
            self.k_gnn_in(data, query, query_cursor, k, aggregate, &mut scratch);
        GnnResult {
            neighbors: neighbors.to_vec(),
            stats,
        }
    }

    /// Retrieves the `k` group nearest neighbors reusing caller-provided
    /// scratch storage (see [`QueryScratch`]).
    fn k_gnn_in<'s>(
        &self,
        data: &TreeCursor<'_>,
        query: &GroupedQueryFile,
        query_cursor: &FileCursor<'_>,
        k: usize,
        aggregate: Aggregate,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Neighbor], QueryStats);
}
