//! The unified submission surface: one entry point, one error enum.
//!
//! Everything a caller can hand to [`Service::submit`](crate::Service::submit)
//! is (convertible into) a [`Submission`]: one prepared [`QueryRequest`]
//! ([`Submission::request`]). It accepts `.blocking(false)` to turn
//! backpressure into a [`SubmitError::QueueFull`] instead of blocking — the
//! open-loop load-generator contract — and every failure mode comes back
//! through the single exhaustive [`SubmitError`].
//!
//! ```
//! use gnn_core::{QueryGroup, QueryRequest};
//! use gnn_geom::Point;
//! use gnn_service::Submission;
//!
//! // The group, its aggregate and k: the whole query (paper §2).
//! let group = QueryGroup::sum(vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]).unwrap();
//! let single = Submission::request(QueryRequest::new(group, 4)).blocking(false);
//! # let _ = single;
//! ```

use gnn_core::QueryRequest;
use std::fmt;

/// A typed per-query failure delivered **through a [`ResponseHandle`]**:
/// the request was accepted, but no result was produced for it. Other
/// requests are unaffected; a query error is a response, never a lost
/// reply.
///
/// [`ResponseHandle`]: crate::ResponseHandle
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The worker panicked while executing this query. It answers the
    /// in-flight request with this error, rebuilds its state (fresh cursors
    /// and scratch), and keeps serving. Counted in
    /// [`FaultLedger::panics`](crate::FaultLedger).
    WorkerPanicked,
    /// The request's [`deadline`](QueryRequest::deadline) had already
    /// expired when a worker dequeued it, so it was shed instead of
    /// executed — the bounded-staleness contract under overload. Counted
    /// in [`FaultLedger::shed`](crate::FaultLedger).
    DeadlineExceeded,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::WorkerPanicked => f.write_str("worker panicked while executing the query"),
            QueryError::DeadlineExceeded => f.write_str("request deadline expired in queue; shed"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Why a submission (or a wait on its handle) failed. The single error
/// surface of the serving API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// A non-blocking submission found the service's bounded queue full —
    /// the backpressure signal an open-loop load generator counts as a
    /// drop. Retry, shed, or submit blocking.
    QueueFull,
    /// A worker disappeared before answering: the queue had no worker
    /// thread left to take the job, or the reply channel died without a
    /// reply — a job dropped during teardown, not a panic (that comes back
    /// as [`SubmitError::Query`]`(`[`QueryError::WorkerPanicked`]`)`).
    WorkerDied,
    /// The request was accepted but answered with a typed per-query error
    /// (panic or deadline shed) instead of a result.
    Query(QueryError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("request queue is full"),
            SubmitError::WorkerDied => f.write_str("worker terminated without responding"),
            SubmitError::Query(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One unit of work for [`Service::submit`](crate::Service::submit): a
/// prepared request and whether its submission blocks on backpressure.
///
/// Constructed through [`Submission::request`] or `From<QueryRequest>` —
/// and [`Service::submit`](crate::Service::submit) takes
/// `impl Into<Submission>`, so plain requests are passed directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    pub(crate) request: QueryRequest,
    pub(crate) blocking: bool,
}

impl Submission {
    /// A submission of one prepared [`QueryRequest`], blocking on
    /// backpressure (equivalent to the `From<QueryRequest>` impl; chain
    /// [`Submission::blocking`] to change that).
    pub fn request(request: QueryRequest) -> Submission {
        Submission {
            request,
            blocking: true,
        }
    }

    /// Sets whether the submission blocks on a full queue (`true`, the
    /// default) or fails fast with [`SubmitError::QueueFull`] (`false`).
    pub fn blocking(mut self, blocking: bool) -> Submission {
        self.blocking = blocking;
        self
    }
}

impl From<QueryRequest> for Submission {
    fn from(request: QueryRequest) -> Self {
        Submission::request(request)
    }
}
