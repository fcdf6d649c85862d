//! The unified submission surface: one entry point, one error enum.
//!
//! Everything a caller can hand to [`Service::submit`](crate::Service::submit)
//! is (convertible into) a [`Submission`]: a prepared [`QueryRequest`], a
//! builder-described group query ([`Submission::group`]), or a batch
//! ([`Submission::batch`]). Each builder accepts
//! `.blocking(false)` to turn backpressure into a
//! [`SubmitError::QueueFull`] instead of blocking — the open-loop
//! load-generator contract — and every failure mode comes back through the
//! single exhaustive [`SubmitError`].
//!
//! ```
//! use gnn_geom::Point;
//! use gnn_service::Submission;
//!
//! // A group query with explicit k; unset fields use the service defaults.
//! let single = Submission::group(vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]).k(4);
//! # let _ = single;
//! ```

use gnn_core::{
    Aggregate, Algo, NetworkQuery, QueryGroup, QueryGroupError, QueryRequest, QueryResponse,
};
use gnn_geom::Point;
use std::fmt;
use std::time::Duration;

/// A typed per-query failure delivered **through a [`ResponseHandle`]**:
/// the request was accepted, but no result was produced for it. Other
/// requests — including the rest of the same batch — are unaffected; a
/// query error is a response, never a lost reply.
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
    /// A non-blocking submission found the routed shard's bounded queue
    /// full — the backpressure signal an open-loop load generator counts
    /// as a drop. Retry, shed, or submit blocking.
    QueueFull,
    /// The service refused the submission because
    /// [`initiate_shutdown`](crate::Service::initiate_shutdown) /
    /// [`shutdown`](crate::Service::shutdown) already closed the queues —
    /// the orderly-drain signal. Requests accepted before the close are
    /// still answered.
    Shutdown,
    /// A worker disappeared before answering: the reply channel died with
    /// responses still owed — a job dropped during teardown, not a panic
    /// (that comes back as
    /// [`SubmitError::Query`]`(`[`QueryError::WorkerPanicked`]`)`).
    WorkerDied,
    /// The submission's point set does not form a valid query group
    /// (e.g. empty).
    BadGroup(QueryGroupError),
    /// The request was accepted but answered with a typed per-query error
    /// (panic or deadline shed) instead of a result.
    Query(QueryError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("request queue is full"),
            SubmitError::Shutdown => f.write_str("service is shutting down"),
            SubmitError::WorkerDied => f.write_str("worker terminated without responding"),
            SubmitError::BadGroup(e) => write!(f, "invalid query group: {e}"),
            SubmitError::Query(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<QueryGroupError> for SubmitError {
    fn from(e: QueryGroupError) -> Self {
        SubmitError::BadGroup(e)
    }
}

/// A batch wait that could not complete — but did not lose what it had.
/// Returned by [`ResponseHandle::wait_all`](crate::ResponseHandle::wait_all)
/// when any request of the batch resolved to a typed [`QueryError`] or the
/// reply channel died. `error` is the **first** failure in submission
/// order; a `None` slot in `received` belongs to a request that failed or
/// was never answered.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitError {
    /// Successful responses collected before/around the failure, indexed
    /// by submission position (`received[i]` answers request `i`).
    pub received: Vec<Option<QueryResponse>>,
    /// The first failure, in submission order: a typed per-query error
    /// ([`SubmitError::Query`]) or [`SubmitError::WorkerDied`].
    pub error: SubmitError,
}

impl fmt::Display for WaitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let got = self.received.iter().filter(|s| s.is_some()).count();
        write!(
            f,
            "batch wait failed ({got}/{} responses received): {}",
            self.received.len(),
            self.error
        )
    }
}

impl std::error::Error for WaitError {}

/// One unit of work for [`Service::submit`](crate::Service::submit): a
/// single request, a group query, or a batch.
///
/// Constructed through [`Submission::request`], the [`Submission::group`] /
/// [`Submission::batch`] builders, or `From<QueryRequest>` — and
/// [`Service::submit`](crate::Service::submit) takes `impl Into<Submission>`,
/// so builders and plain requests are passed directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    pub(crate) kind: SubmissionKind,
    pub(crate) blocking: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SubmissionKind {
    /// A fully prepared request.
    Request(QueryRequest),
    /// A group query resolved against the service defaults at submit time.
    Group(GroupSubmission),
    /// A batch: routed into per-shard sub-batches, each one job whose
    /// members run in submission order.
    Batch(Vec<QueryRequest>),
}

impl Submission {
    /// A submission of one prepared [`QueryRequest`], blocking on
    /// backpressure (equivalent to the `From<QueryRequest>` impl; chain
    /// [`Submission::blocking`] to change that).
    pub fn request(request: QueryRequest) -> Submission {
        Submission {
            kind: SubmissionKind::Request(request),
            blocking: true,
        }
    }

    /// Starts a group-query submission from raw points. `k`, aggregate,
    /// algorithm, and shard hint are optional — unset fields fall back to
    /// the service's configured defaults at submission time; an invalid
    /// point set fails with [`SubmitError::BadGroup`].
    pub fn group(points: Vec<Point>) -> GroupSubmission {
        GroupSubmission {
            points,
            k: None,
            aggregate: None,
            algo: Algo::Auto,
            shard_hint: None,
            deadline: None,
            trace: false,
            network: None,
            blocking: true,
        }
    }

    /// Starts a batch submission: the requests are routed to their shards,
    /// each shard's sub-batch is **one job** — one queue slot and one
    /// wake-up however many members it has — served in submission order
    /// (every member descends from the root on its own), and the returned
    /// handle yields every response, indexed by submission order
    /// ([`ResponseHandle::wait_all`](crate::ResponseHandle::wait_all)).
    pub fn batch(requests: impl IntoIterator<Item = QueryRequest>) -> BatchSubmission {
        BatchSubmission {
            requests: requests.into_iter().collect(),
            blocking: true,
        }
    }

    /// Sets whether the submission blocks on a full queue (`true`, the
    /// default) or fails fast with [`SubmitError::QueueFull`] (`false`).
    pub fn blocking(mut self, blocking: bool) -> Submission {
        self.blocking = blocking;
        self
    }

    /// Sets a queue-wait deadline on every request of this submission (see
    /// [`QueryRequest::deadline`]): a request still queued when the budget
    /// expires is shed with [`QueryError::DeadlineExceeded`] instead of
    /// executed.
    pub fn deadline(mut self, deadline: Duration) -> Submission {
        match &mut self.kind {
            SubmissionKind::Request(request) => request.deadline = Some(deadline),
            SubmissionKind::Group(group) => group.deadline = Some(deadline),
            SubmissionKind::Batch(requests) => {
                for request in requests {
                    request.deadline = Some(deadline);
                }
            }
        }
        self
    }
}

impl From<QueryRequest> for Submission {
    fn from(request: QueryRequest) -> Self {
        Submission::request(request)
    }
}

/// Builder for a group-query [`Submission`] (see [`Submission::group`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSubmission {
    points: Vec<Point>,
    k: Option<usize>,
    aggregate: Option<Aggregate>,
    algo: Algo,
    shard_hint: Option<u32>,
    deadline: Option<Duration>,
    trace: bool,
    network: Option<NetworkQuery>,
    blocking: bool,
}

impl GroupSubmission {
    /// Sets `k` (defaults to the service's `default_k`).
    pub fn k(mut self, k: usize) -> GroupSubmission {
        self.k = Some(k);
        self
    }

    /// Sets the aggregate function (defaults to the service's
    /// `default_aggregate`).
    pub fn aggregate(mut self, aggregate: Aggregate) -> GroupSubmission {
        self.aggregate = Some(aggregate);
        self
    }

    /// Pins the algorithm instead of planner routing.
    pub fn algo(mut self, algo: Algo) -> GroupSubmission {
        self.algo = algo;
        self
    }

    /// Sets a shard-routing hint (see [`QueryRequest::shard_hint`]).
    pub fn shard_hint(mut self, shard: u32) -> GroupSubmission {
        self.shard_hint = Some(shard);
        self
    }

    /// Sets a queue-wait deadline (see [`QueryRequest::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> GroupSubmission {
        self.deadline = Some(deadline);
        self
    }

    /// Requests a per-query trace on the response (see
    /// [`QueryRequest::trace`]).
    pub fn trace(mut self) -> GroupSubmission {
        self.trace = true;
        self
    }

    /// Attaches a network-domain payload so a network-backed service
    /// answers under shortest-path distance (see [`QueryRequest::network`]).
    /// [`NetworkQuery::snapped`] snaps the group's points onto the graph;
    /// [`NetworkQuery::at_vertices`] pins explicit source vertices.
    pub fn network(mut self, network: NetworkQuery) -> GroupSubmission {
        self.network = Some(network);
        self
    }

    /// Sets whether the submission blocks on a full queue (`true`, the
    /// default) or fails fast with [`SubmitError::QueueFull`] (`false`).
    pub fn blocking(mut self, blocking: bool) -> GroupSubmission {
        self.blocking = blocking;
        self
    }

    /// Resolves the builder into a prepared request, filling unset fields
    /// from the service defaults.
    pub(crate) fn resolve(
        self,
        default_k: usize,
        default_aggregate: Aggregate,
    ) -> Result<QueryRequest, QueryGroupError> {
        let group =
            QueryGroup::with_aggregate(self.points, self.aggregate.unwrap_or(default_aggregate))?;
        Ok(QueryRequest {
            group,
            k: self.k.unwrap_or(default_k),
            algo: self.algo,
            shard_hint: self.shard_hint,
            deadline: self.deadline,
            trace: self.trace,
            network: self.network,
        })
    }
}

/// Builder for a batch [`Submission`] (see [`Submission::batch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSubmission {
    requests: Vec<QueryRequest>,
    blocking: bool,
}

impl BatchSubmission {
    /// Sets whether the submission blocks on a full queue (`true`, the
    /// default) or fails fast with [`SubmitError::QueueFull`] (`false`).
    ///
    /// Sub-batches already queued when a later one hits a full queue still
    /// execute, their responses discarded with the failed handle: treat a
    /// non-blocking batch rejection as dropping the whole batch.
    pub fn blocking(mut self, blocking: bool) -> BatchSubmission {
        self.blocking = blocking;
        self
    }

    /// Sets a queue-wait deadline on every request of the batch (see
    /// [`QueryRequest::deadline`]). Sheds apply per request: expired
    /// members are answered with [`QueryError::DeadlineExceeded`] while
    /// the rest of the sub-batch still executes.
    pub fn deadline(mut self, deadline: Duration) -> BatchSubmission {
        for request in &mut self.requests {
            request.deadline = Some(deadline);
        }
        self
    }
}

impl From<GroupSubmission> for Submission {
    fn from(group: GroupSubmission) -> Self {
        // Carried whole: the service fills unset fields at submit time.
        Submission {
            blocking: group.blocking,
            kind: SubmissionKind::Group(group),
        }
    }
}

impl From<BatchSubmission> for Submission {
    fn from(batch: BatchSubmission) -> Self {
        Submission {
            blocking: batch.blocking,
            kind: SubmissionKind::Batch(batch.requests),
        }
    }
}
