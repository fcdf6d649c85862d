//! # gnn-service — spatially sharded, multi-threaded GNN query serving
//!
//! The paper's algorithms answer one query at a time; the north star is a
//! system that serves sustained multi-user traffic. This crate turns a
//! frozen snapshot — one [`PackedRTree`] or a spatially partitioned
//! [`ShardedSnapshot`] — into an embeddable query-serving engine:
//!
//! * the snapshot is **immutable and shared** (`Arc` — the storage layer is
//!   `Send + Sync` by construction, statically asserted in `gnn-rtree`) and
//!   lives in a **hot-swap slot**: [`Service::publish`] /
//!   [`Service::publish_sharded`] atomically install a new snapshot
//!   (typically a cheap per-shard [`gnn_rtree::ShardedTree::refreeze_all`])
//!   while queries keep flowing — workers pick the new generation up
//!   between queries with a single atomic check, in-flight queries finish
//!   on the snapshot they started on, and nobody ever blocks on the swap;
//! * requests are **routed by their query group's aggregate-MBR bound** to
//!   the pool of the shard that can serve them cheapest ([`Service::route`]),
//!   one bounded queue and a fixed set of worker threads per shard — so a
//!   pool's workers keep their own shard's arenas hot in cache under
//!   spatially skewed traffic;
//! * every worker owns its own per-shard [`TreeCursor`]s, [`QueryScratch`]
//!   and [`Planner`], so the zero-allocation single-thread hot path of the
//!   packed engine becomes a zero-allocation **per-core** hot path — no
//!   shared mutable state is touched while a query runs. A query whose
//!   bound admits several shards is answered *exactly* by the worker
//!   itself through the cross-shard best-first merge
//!   ([`gnn_core::sharded`]); the response's
//!   [`ShardRouting`] tag records the primary
//!   shard and how many shards were consulted;
//! * per-worker counters, per-shard routing counters (routed / served /
//!   single-shard hits) and a fixed-bucket response-latency histogram
//!   aggregate on demand into a [`ServiceStats`] snapshot, so the paper's
//!   node-access cost metric survives concurrency exactly.
//!
//! Determinism is the correctness anchor: a query's node accesses and
//! results depend only on the snapshot and the request (per-worker cursors
//! are unbuffered, so no cross-query cache state exists), which means the
//! same workload submitted through the service and run sequentially
//! produces identical ids, distances, and total node accesses — on any
//! worker count, in any completion order, sharded or not. The
//! workspace-level `service_determinism` and `sharded_equivalence` tests
//! pin this. Under live updates the anchor holds **per generation**: every
//! [`QueryResponse`] is tagged with the generation of the snapshot that
//! served it (pinned by the workspace-level `hot_swap` and
//! `refresh_driver` tests).
//!
//! For continuous refresh, [`RefreshDriver`] runs the full mutate →
//! per-shard refreeze → publish lifecycle on a background thread driven by
//! a dirty-fraction policy; see its docs.
//!
//! Submission goes through **one entry point**, [`Service::submit`], which
//! accepts anything convertible into a [`Submission`]: a prepared
//! [`QueryRequest`], the [`Submission::group`]
//! builder (defaults filled from the [`ServiceConfig`]), or a
//! [`Submission::batch`] — a burst of correlated queries executed as
//! **shared-traversal passes**: each shard's sub-batch is sorted by
//! group-MBR Hilbert key and its upper-level pages are read once for the
//! whole sub-batch ([`gnn_core::batch`]), while results and per-query node
//! accesses stay bit-identical to single submissions. The batch ledger
//! (sub-batches executed, mean batch size, shared-read savings) surfaces
//! in [`ServiceStats`].
//!
//! ```
//! use gnn_core::{QueryGroup, QueryRequest};
//! use gnn_geom::{Point, PointId};
//! use gnn_rtree::{LeafEntry, RTree, RTreeParams};
//! use gnn_service::{Service, ServiceConfig, Submission};
//! use std::sync::Arc;
//!
//! let mut tree = RTree::new(RTreeParams::default());
//! for i in 0..100 {
//!     tree.insert(LeafEntry::new(PointId(i), Point::new(i as f64, 0.0)));
//! }
//! let snapshot = Arc::new(tree.freeze());
//! let service = Service::start(snapshot, ServiceConfig::with_workers(2));
//!
//! // One query: a plain request converts into a Submission.
//! let group = QueryGroup::sum(vec![Point::new(3.9, 0.0), Point::new(4.1, 0.0)]).unwrap();
//! let handle = service.submit(QueryRequest::new(group, 1)).unwrap();
//! assert_eq!(handle.wait().unwrap().neighbors[0].id, PointId(4));
//!
//! // A hotspot burst: one shared-traversal batch, responses in
//! // submission order.
//! let burst: Vec<QueryRequest> = (0..4)
//!     .map(|i| {
//!         let q = vec![Point::new(40.0 + i as f64, 0.0)];
//!         QueryRequest::new(QueryGroup::sum(q).unwrap(), 2)
//!     })
//!     .collect();
//! let responses = service.submit(Submission::batch(burst)).unwrap().wait_all().unwrap();
//! assert_eq!(responses.len(), 4);
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.queries_served, 5);
//! assert_eq!(stats.batches, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod fault;
mod refresh;
mod submission;

pub use export::StatsLogger;
pub use fault::{silence_injected_panics, FaultLedger, FaultPlan};
pub use refresh::{
    DriverError, PublishRecord, RefreshDriver, RefreshOutcome, RefreshPolicy, RefreshStats, Update,
};
pub use submission::{
    BatchSubmission, GroupSubmission, QueryError, Submission, SubmitError, WaitError,
};
// The latency histogram moved into `gnn-telemetry` (it is mechanism, not
// serving policy); these re-exports keep every pre-existing
// `gnn_service::{LatencyHistogram, ...}` import compiling unchanged. The
// flight-recorder and stage types surface here too, since `ServiceStats`
// embeds them.
pub use gnn_telemetry::{
    FlightEvent, FlightEventKind, FlightLog, FlightRecorder, LatencyHistogram, LatencySnapshot,
    RingSnapshot, StageSnapshot, BUCKETS, SOURCE_CONTROL, SOURCE_DRIVER,
};

use gnn_core::batch::{execute_batch_hooked, BatchAccounting};
use gnn_core::sharded::primary_shard;
use gnn_core::{
    Aggregate, NetworkBackend, Planner, QueryGroup, QueryRequest, QueryResponse, Target,
};
use gnn_core::{QueryScratch, QueryStats, QueryTrace, ShardRouting};
use gnn_rtree::{PackedRTree, RTree, RTreeParams, ShardedSnapshot, TreeCursor};
use gnn_telemetry::StageHistograms;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use submission::SubmissionKind;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (≥ 1). A single-shard service puts all of them in
    /// one pool; [`Service::start_sharded`] distributes them near-evenly
    /// across the per-shard pools in shard order, giving every pool at
    /// least one worker (so the effective total is
    /// `max(workers, shard_count)`).
    pub workers: usize,
    /// Bounded per-pool request-queue depth (≥ 1): a blocking
    /// [`Service::submit`] waits and a non-blocking one fails with
    /// [`SubmitError::QueueFull`] once this many requests are pending on
    /// the routed shard's queue.
    pub queue_depth: usize,
    /// `k` used by [`Submission::group`] submissions that don't set one.
    pub default_k: usize,
    /// Aggregate used by [`Submission::group`] submissions that don't set
    /// one.
    pub default_aggregate: Aggregate,
    /// The planner each worker routes [`gnn_core::Algo::Auto`] requests
    /// through.
    pub planner: Planner,
    /// Deterministic fault injection for tests and resilience benchmarks
    /// (see [`FaultPlan`]). The default injects nothing and costs one
    /// emptiness check per query.
    pub fault_plan: FaultPlan,
    /// Flight-recorder ring capacity **per worker** (plus one control ring
    /// for publish events and one for the refresh driver). Each retained
    /// event costs 24 bytes; recording is a handful of atomic stores on
    /// the worker's own ring. `0` disables the flight recorder entirely
    /// (recording reduces to one branch) — stage histograms and the
    /// latency histogram stay on regardless, they are the service's basic
    /// metrics surface.
    pub flight_recorder: usize,
}

impl Default for ServiceConfig {
    /// One worker per available core, queue depth 1024, `k = 8`, SUM.
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            queue_depth: 1024,
            default_k: 8,
            default_aggregate: Aggregate::Sum,
            planner: Planner::new(),
            fault_plan: FaultPlan::default(),
            flight_recorder: 256,
        }
    }
}

impl ServiceConfig {
    /// The default configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }
    }
}

/// A pending submission's responses: one per submitted request.
///
/// A single-request submission is redeemed with [`ResponseHandle::wait`];
/// a batch with [`ResponseHandle::wait_all`] (responses **in submission
/// order** no matter which pools, workers, or shared passes executed them)
/// or [`ResponseHandle::wait_each`] (per-request outcomes, so one faulted
/// query does not hide the rest). [`ResponseHandle::poll`] and
/// [`ResponseHandle::wait_timeout`] / [`ResponseHandle::wait_deadline`]
/// are the non-blocking / bounded-blocking variants.
///
/// Every accepted request resolves to exactly one outcome — a response or
/// a typed [`QueryError`] (panic, deadline shed) — so redeeming a handle
/// never hangs on a fault.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: Receiver<(u32, Result<QueryResponse, QueryError>)>,
    /// Outcomes received so far, indexed by submission position.
    slots: Vec<Option<Result<QueryResponse, QueryError>>>,
    received: usize,
}

impl ResponseHandle {
    fn new(
        rx: Receiver<(u32, Result<QueryResponse, QueryError>)>,
        expected: usize,
    ) -> ResponseHandle {
        ResponseHandle {
            rx,
            slots: (0..expected).map(|_| None).collect(),
            received: 0,
        }
    }

    /// Number of responses this handle will yield (1 for single
    /// submissions, the batch length for batches, 0 for an empty batch).
    pub fn expected(&self) -> usize {
        self.slots.len()
    }

    fn store(&mut self, index: u32, outcome: Result<QueryResponse, QueryError>) {
        let slot = &mut self.slots[index as usize];
        debug_assert!(slot.is_none(), "duplicate response for index {index}");
        if slot.is_none() {
            self.received += 1;
        }
        *slot = Some(outcome);
    }

    /// The first typed per-query error in submission order, or
    /// [`SubmitError::WorkerDied`] when there is none (a reply channel
    /// that died still owing responses).
    fn first_failure(&self) -> SubmitError {
        self.slots
            .iter()
            .find_map(|slot| match slot {
                Some(Err(e)) => Some(SubmitError::Query(*e)),
                _ => None,
            })
            .unwrap_or(SubmitError::WorkerDied)
    }

    /// Takes the first-submitted request's outcome once every expected
    /// response has arrived.
    fn take_first(&mut self) -> Result<QueryResponse, SubmitError> {
        match self.slots.first_mut().and_then(Option::take) {
            Some(Ok(response)) => Ok(response),
            Some(Err(e)) => Err(SubmitError::Query(e)),
            None => Err(SubmitError::WorkerDied),
        }
    }

    /// Blocks until the **first-submitted** request completes and returns
    /// its response. The natural redemption for single-request submissions;
    /// for batches it discards all other responses — use
    /// [`ResponseHandle::wait_all`] there. Fails with
    /// [`SubmitError::Query`] when the request was answered with a typed
    /// per-query error (panic, deadline shed), or
    /// [`SubmitError::WorkerDied`] when the serving worker disappeared
    /// before answering (or the handle expects no responses at all).
    pub fn wait(mut self) -> Result<QueryResponse, SubmitError> {
        if self.slots.is_empty() {
            return Err(SubmitError::WorkerDied);
        }
        while self.slots[0].is_none() {
            let (index, outcome) = self.rx.recv().map_err(|_| SubmitError::WorkerDied)?;
            self.store(index, outcome);
        }
        match self.slots.swap_remove(0).expect("slot 0 filled") {
            Ok(response) => Ok(response),
            Err(e) => Err(SubmitError::Query(e)),
        }
    }

    /// Blocks until every submitted request resolves and returns the
    /// responses in submission order (`out[i]` answers request `i`). An
    /// empty batch yields an empty vec.
    ///
    /// If **any** request failed — a typed [`QueryError`] or a dead reply
    /// channel — the successful responses are **not** discarded: the
    /// [`WaitError`] hands them back in `received` (indexed by submission
    /// order) alongside the first failure. Use
    /// [`ResponseHandle::wait_each`] to get each request's own outcome
    /// instead.
    pub fn wait_all(mut self) -> Result<Vec<QueryResponse>, WaitError> {
        let mut channel_died = false;
        while self.received < self.slots.len() {
            match self.rx.recv() {
                Ok((index, outcome)) => self.store(index, outcome),
                Err(_) => {
                    channel_died = true;
                    break;
                }
            }
        }
        let typed = self.slots.iter().find_map(|slot| match slot {
            Some(Err(e)) => Some(SubmitError::Query(*e)),
            _ => None,
        });
        let error = match typed {
            Some(e) => Some(e),
            None if channel_died => Some(SubmitError::WorkerDied),
            None => None,
        };
        match error {
            None => Ok(self
                .slots
                .into_iter()
                .map(|slot| match slot.expect("all slots filled") {
                    Ok(response) => response,
                    Err(_) => unreachable!("typed errors handled above"),
                })
                .collect()),
            Some(error) => Err(WaitError {
                received: self
                    .slots
                    .into_iter()
                    .map(|slot| slot.and_then(Result::ok))
                    .collect(),
                error,
            }),
        }
    }

    /// Blocks until every submitted request resolves and returns **each**
    /// request's outcome in submission order: `Ok(response)`,
    /// [`SubmitError::Query`] for a typed per-query error, or
    /// [`SubmitError::WorkerDied`] for a request whose reply channel died
    /// unanswered. The redemption to use when partial results are the
    /// point — one panicked or shed query never hides the others.
    pub fn wait_each(mut self) -> Vec<Result<QueryResponse, SubmitError>> {
        while self.received < self.slots.len() {
            match self.rx.recv() {
                Ok((index, outcome)) => self.store(index, outcome),
                Err(_) => break,
            }
        }
        self.slots
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(response)) => Ok(response),
                Some(Err(e)) => Err(SubmitError::Query(e)),
                None => Err(SubmitError::WorkerDied),
            })
            .collect()
    }

    /// Bounded-blocking wait: like [`ResponseHandle::poll`], but blocks up
    /// to `timeout` for the outstanding responses. `None` when the timeout
    /// expires first — the handle stays usable and everything that did
    /// arrive stays buffered, so callers can keep extending the wait.
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Option<Result<QueryResponse, SubmitError>> {
        let deadline = Instant::now()
            .checked_add(timeout)
            // A timeout beyond the representable range is an unbounded
            // wait for any practical purpose; clamp to a year out.
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(31_536_000));
        self.wait_deadline(deadline)
    }

    /// Bounded-blocking wait against an absolute deadline: `Some` with the
    /// first-submitted request's outcome once **all** expected responses
    /// have resolved, `None` when `deadline` passes first (arrived
    /// responses stay buffered; the handle stays usable),
    /// `Some(Err(..))` when the reply channel died. The caller-side
    /// companion of [`QueryRequest::deadline`]: the worker bounds queue
    /// staleness, this bounds the caller's wait.
    pub fn wait_deadline(
        &mut self,
        deadline: Instant,
    ) -> Option<Result<QueryResponse, SubmitError>> {
        loop {
            if self.received == self.slots.len() {
                return Some(self.take_first());
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            match self.rx.recv_timeout(remaining) {
                Ok((index, outcome)) => self.store(index, outcome),
                Err(mpsc::RecvTimeoutError::Timeout) => return None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Some(Err(self.first_failure()))
                }
            }
        }
    }

    /// Non-blocking poll: `Some(Ok(..))` with the first-submitted request's
    /// response once **all** expected responses have resolved, `None` while
    /// any is still in flight, `Some(Err(..))` on a typed per-query error
    /// or a dead worker. Arrived responses are buffered across calls.
    pub fn poll(&mut self) -> Option<Result<QueryResponse, SubmitError>> {
        loop {
            if self.received == self.slots.len() {
                return Some(self.take_first());
            }
            match self.rx.try_recv() {
                Ok((index, outcome)) => self.store(index, outcome),
                Err(mpsc::TryRecvError::Empty) => return None,
                Err(mpsc::TryRecvError::Disconnected) => return Some(Err(self.first_failure())),
            }
        }
    }
}

/// Locks a mutex, recovering from poisoning: a worker that panicked inside
/// a query may have died holding a lock, but every structure guarded here
/// (the snapshot slot, a dequeue end, the sender table) stays sound — the
/// panic cannot have left it mid-mutation. One policy, one place.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The hot-swap publication slot: the current sharded snapshot plus its
/// generation.
///
/// Hand-rolled `ArcSwap` equivalent with no dependencies: publishers
/// replace the `Arc` under a mutex and bump the generation; workers watch
/// the generation with one atomic load between queries (the hot path never
/// locks) and reload the `Arc` — briefly taking the uncontended lock — only
/// when it changed. Readers of an old generation keep their `Arc` alive, so
/// in-flight queries always finish on the snapshot they started on and old
/// snapshots are freed exactly when the last worker moves off them. An
/// incremental refresh shares the `Arc` of every untouched *shard* between
/// consecutive generations, so a publish costs memory only for the shards
/// that actually changed.
struct SnapshotSlot {
    current: Mutex<Arc<ShardedSnapshot>>,
    generation: AtomicU64,
}

impl SnapshotSlot {
    /// Wraps the initial snapshot as generation 1.
    fn new(initial: Arc<ShardedSnapshot>) -> Self {
        SnapshotSlot {
            current: Mutex::new(initial),
            generation: AtomicU64::new(1),
        }
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current `(snapshot, generation)` pair, read consistently (the
    /// generation is only ever bumped under the same lock).
    fn load(&self) -> (Arc<ShardedSnapshot>, u64) {
        let guard = lock_unpoisoned(&self.current);
        let generation = self.generation.load(Ordering::Acquire);
        (Arc::clone(&guard), generation)
    }

    fn publish(&self, snapshot: Arc<ShardedSnapshot>) -> u64 {
        let mut guard = lock_unpoisoned(&self.current);
        *guard = snapshot;
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// One unit of work on a shard queue: a single request, or one shard's
/// sub-batch of a batch submission. Either occupies **one** queue slot
/// (`queue_depth` counts jobs, not queries).
enum Work {
    /// One query, answered with index 0.
    Single(QueryRequest),
    /// A shard-local sub-batch, executed as one shared-traversal pass
    /// ([`gnn_core::batch::execute_batch_in`]). `indices[i]` is the
    /// submission-order position request `i` answers to on the reply
    /// channel.
    Batch {
        requests: Vec<QueryRequest>,
        indices: Vec<u32>,
    },
}

/// A queued job plus its reply channel.
struct Job {
    work: Work,
    reply: mpsc::Sender<(u32, Result<QueryResponse, QueryError>)>,
    /// When the request entered the queue; response latency is measured
    /// from here, so time spent waiting behind other requests is visible
    /// in the histogram (the open-loop contract).
    submitted: Instant,
}

/// Shared per-worker counters (written lock-free by the worker, read by
/// [`Service::stats`]).
#[derive(Debug)]
struct WorkerCounters {
    queries: AtomicU64,
    node_accesses: AtomicU64,
    io: AtomicU64,
    dist_computations: AtomicU64,
    busy_nanos: AtomicU64,
    single_shard_hits: AtomicU64,
    shards_consulted: AtomicU64,
    batches: AtomicU64,
    batch_queries: AtomicU64,
    batch_unique_pages: AtomicU64,
    batch_sequential_pages: AtomicU64,
    panics: AtomicU64,
    respawns: AtomicU64,
    shed: AtomicU64,
    deadline_missed: AtomicU64,
    latency: LatencyHistogram,
    /// Per-stage decomposition of the end-to-end latency (queue wait /
    /// execution / reply, plus the shed-wait distribution).
    stages: StageHistograms,
    /// This worker's flight-recorder ring (the worker is the single
    /// producer; [`Service::stats`] snapshots it).
    flight: FlightRecorder,
}

impl WorkerCounters {
    fn new(worker: usize, flight_capacity: usize, epoch: Instant) -> Self {
        WorkerCounters {
            queries: AtomicU64::new(0),
            node_accesses: AtomicU64::new(0),
            io: AtomicU64::new(0),
            dist_computations: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            single_shard_hits: AtomicU64::new(0),
            shards_consulted: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_queries: AtomicU64::new(0),
            batch_unique_pages: AtomicU64::new(0),
            batch_sequential_pages: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            stages: StageHistograms::new(),
            flight: FlightRecorder::new(worker as u32, flight_capacity, epoch),
        }
    }

    fn fault_ledger(&self) -> FaultLedger {
        FaultLedger {
            panics: self.panics.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
        }
    }

    /// Records the batch-level ledger of one executed sub-batch (per-query
    /// counters go through [`WorkerCounters::record`] as usual — batch
    /// execution never changes per-query accounting).
    fn record_batch(&self, accounting: &BatchAccounting) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_queries
            .fetch_add(accounting.queries as u64, Ordering::Relaxed);
        self.batch_unique_pages
            .fetch_add(accounting.unique_pages, Ordering::Relaxed);
        self.batch_sequential_pages
            .fetch_add(accounting.sequential_pages, Ordering::Relaxed);
    }

    /// Records one served query: cost counters, the end-to-end latency
    /// sample, and its queue-wait / execution stage samples (the reply
    /// stage is recorded separately, around the actual send).
    fn record(
        &self,
        stats: &QueryStats,
        routing: ShardRouting,
        queue_wait: Duration,
        execution: Duration,
        response: Duration,
    ) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.node_accesses
            .fetch_add(stats.data_tree.logical, Ordering::Relaxed);
        self.io.fetch_add(stats.data_tree.io, Ordering::Relaxed);
        self.dist_computations
            .fetch_add(stats.dist_computations, Ordering::Relaxed);
        self.busy_nanos.fetch_add(
            u64::try_from(execution.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        if routing.consulted <= 1 {
            self.single_shard_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.shards_consulted
            .fetch_add(u64::from(routing.consulted), Ordering::Relaxed);
        self.latency.record(response);
        self.stages.queue_wait.record(queue_wait);
        self.stages.execution.record(execution);
    }

    /// Records a shed request: the fault counter plus its shed-wait
    /// stage sample and flight-recorder event.
    fn record_shed(&self, waited: Duration) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.stages.shed_wait.record(waited);
        self.flight
            .record(FlightEventKind::Shed, duration_nanos(waited));
    }

    fn snapshot(&self, worker: usize, shard: usize) -> WorkerSnapshot {
        WorkerSnapshot {
            worker,
            shard,
            queries: self.queries.load(Ordering::Relaxed),
            node_accesses: self.node_accesses.load(Ordering::Relaxed),
            io: self.io.load(Ordering::Relaxed),
            dist_computations: self.dist_computations.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time counters of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker index (0-based, global across pools).
    pub worker: usize,
    /// The shard pool this worker serves.
    pub shard: usize,
    /// Queries served by this worker.
    pub queries: u64,
    /// Logical node accesses performed (the paper's NA metric).
    pub node_accesses: u64,
    /// Simulated I/O (equals `node_accesses` — worker cursors are
    /// unbuffered so per-query accounting stays deterministic).
    pub io: u64,
    /// Distance evaluations (CPU proxy).
    pub dist_computations: u64,
    /// Total wall time spent inside query execution (queue wait excluded —
    /// that shows up in the latency histogram instead).
    pub busy: Duration,
}

/// Point-in-time routing/serving counters of one shard pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Requests the router queued on this pool.
    pub routed: u64,
    /// Queries served by this pool's workers.
    pub queries: u64,
    /// Served queries that consulted only this pool's own shard (the
    /// routing-hit metric: higher is better for spatially local traffic).
    pub single_shard_hits: u64,
    /// Total shards consulted across this pool's served queries
    /// (`/ queries` = average fan-out of the cross-shard merge).
    pub shards_consulted: u64,
    /// Response-latency histogram of this pool alone (submit → response,
    /// same contract as [`ServiceStats::latency`]) — per-shard tail
    /// percentiles expose a hot shard the merged histogram averages away.
    pub latency: LatencySnapshot,
}

/// Aggregated service counters: per-worker and per-shard snapshots, their
/// totals, and the merged latency histogram.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// The snapshot generation currently published (1 for the snapshot the
    /// service started on; each publish bumps it). Individual responses
    /// carry the generation that actually served them in
    /// [`QueryResponse::generation`], which is how determinism stays
    /// pinnable per generation under hot swaps.
    pub generation: u64,
    /// Total queries served.
    pub queries_served: u64,
    /// Total logical node accesses — comparable 1:1 with a sequential run
    /// of the same workload on the same snapshot.
    pub node_accesses: u64,
    /// Total simulated I/O.
    pub io: u64,
    /// Total distance evaluations.
    pub dist_computations: u64,
    /// Served queries that needed only their primary shard.
    pub single_shard_hits: u64,
    /// Shared-traversal sub-batches executed (each per-shard sub-batch of
    /// a batch submission counts once).
    pub batches: u64,
    /// Queries served through batch execution (`/ batches` = mean batch
    /// size; also in [`ServiceStats::mean_batch_size`]).
    pub batch_queries: u64,
    /// Distinct pages touched across all executed batches — the physical
    /// reads the shared traversals paid.
    pub batch_unique_pages: u64,
    /// Sum of per-query node accesses across all batched queries — what
    /// those same queries cost executed one by one. The gap to
    /// `batch_unique_pages` is the shared-read saving
    /// ([`ServiceStats::shared_read_savings`]).
    pub batch_sequential_pages: u64,
    /// Fault ledger: panics, respawns, shed requests, and missed deadlines
    /// across all workers (see [`FaultLedger`]). `faults.panics` counts
    /// queries answered with [`QueryError::WorkerPanicked`] — they are
    /// **not** in `queries_served`.
    pub faults: FaultLedger,
    /// Per-worker breakdown (length = total workers across pools).
    pub per_worker: Vec<WorkerSnapshot>,
    /// Per-shard routing/serving breakdown (length = shard count).
    pub per_shard: Vec<ShardStats>,
    /// Merged response-latency histogram (`p50()`/`p95()`/`p99()`).
    /// Samples measure **submit → response** — queueing plus execution —
    /// so an overloaded service shows its backlog in the tail percentiles
    /// (the open-loop measurement contract).
    pub latency: LatencySnapshot,
    /// Stage decomposition of the same served traffic: queue-wait,
    /// execution, and reply histograms (their counts all equal
    /// `queries_served`), plus the shed-wait histogram of requests
    /// answered [`QueryError::DeadlineExceeded`] at dequeue.
    pub stages: StageSnapshot,
    /// Merged flight-recorder timeline: every worker's ring plus the
    /// control ring (publishes) and the refresh driver's ring, sorted by
    /// timestamp, with the exact count of events dropped to ring overflow.
    pub flight: FlightLog,
    /// The SIMD dispatch level the distance kernels ran at, as a static
    /// label: `"avx2+fma"`, `"sse2"` or `"scalar"`
    /// ([`gnn_geom::SimdLevel::label`]). Process-wide and constant for the
    /// service's lifetime; recorded so exported metrics and bench JSON
    /// identify the ISA a number was measured on, next to
    /// `host_parallelism`.
    pub simd_level: &'static str,
}

impl ServiceStats {
    /// Fraction of served queries answered by a single shard (1.0 for an
    /// unsharded service; `None` before any query completed).
    pub fn single_shard_fraction(&self) -> Option<f64> {
        (self.queries_served > 0)
            .then(|| self.single_shard_hits as f64 / self.queries_served as f64)
    }

    /// Mean queries per executed sub-batch (`None` before any batch ran).
    pub fn mean_batch_size(&self) -> Option<f64> {
        (self.batches > 0).then(|| self.batch_queries as f64 / self.batches as f64)
    }

    /// Fraction of page reads the shared traversals saved over per-query
    /// execution: `1 - unique / sequential` across all batches (`None`
    /// before any batched query ran).
    pub fn shared_read_savings(&self) -> Option<f64> {
        (self.batch_sequential_pages > 0)
            .then(|| 1.0 - self.batch_unique_pages as f64 / self.batch_sequential_pages as f64)
    }
}

/// One shard's worker pool: its queue is entry `shard` of the service-wide
/// sender table; workers share the matching receiver.
struct Pool {
    workers: Vec<JoinHandle<()>>,
    counters: Vec<Arc<WorkerCounters>>,
    /// Requests the router queued on this pool.
    routed: AtomicU64,
}

/// The serving engine: a hot-swappable sharded snapshot slot, one bounded
/// queue + worker pool per shard, and an aggregate-MBR router. See the
/// crate docs for the design.
pub struct Service {
    /// Per-shard senders; `None` once shutdown has been initiated — behind
    /// one mutex so [`Service::initiate_shutdown`] can close every queue
    /// atomically from `&self` (and so a publish can be serialized against
    /// the close, see [`Service::try_publish_sharded`]).
    senders: Mutex<Option<Vec<SyncSender<Job>>>>,
    slot: Arc<SnapshotSlot>,
    pools: Vec<Pool>,
    config: ServiceConfig,
    /// Zero point of every flight-recorder timestamp (shared by all rings,
    /// so the merged timeline is directly comparable across workers).
    epoch: Instant,
    /// Control-plane flight ring: [`FlightEventKind::Published`] events
    /// from the publish entry points (payload = new generation).
    control: FlightRecorder,
    /// Refresh-driver flight ring (`RefreezeStart` / `RefreezeEnd`),
    /// written by the driver thread through [`Service::driver_flight`].
    driver_flight: FlightRecorder,
    /// When present, this service serves **network-distance** GNN: every
    /// request (single or batch) executes on [`Target::Network`] against
    /// this backend instead of the Euclidean snapshot slot. Set by
    /// [`Service::start_network`]; `None` for Euclidean services.
    network: Option<Arc<dyn NetworkBackend>>,
}

impl Service {
    /// Spins up an **unsharded** service: one pool of `config.workers`
    /// workers over one snapshot (wrapped as a single-shard
    /// [`ShardedSnapshot`] without rebuilding — node accesses are exactly
    /// those of the snapshot itself).
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` or `config.queue_depth` is zero.
    pub fn start(snapshot: Arc<PackedRTree>, config: ServiceConfig) -> Service {
        Self::start_sharded(Arc::new(ShardedSnapshot::single(snapshot)), config)
    }

    /// Spins up a **sharded** service: one bounded queue and worker pool
    /// per shard, requests routed by query aggregate-MBR bound.
    /// `config.workers` threads are distributed near-evenly across the
    /// pools in shard order (the first `workers % shards` pools get one
    /// extra); every pool gets at least one.
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` or `config.queue_depth` is zero.
    pub fn start_sharded(snapshot: Arc<ShardedSnapshot>, config: ServiceConfig) -> Service {
        Self::start_inner(snapshot, config, None)
    }

    /// Spins up a **network-distance** service: one pool of
    /// `config.workers` workers serving GNN queries on a road-network
    /// backend (typically a `gnn_network::NetworkSnapshot` wrapped via its
    /// `into_backend()`). Every request — single or batch — executes on
    /// [`Target::Network`], through the exact same submission surface,
    /// worker supervision, deadline shedding, and telemetry as the
    /// Euclidean services; each worker keeps the backend's reusable state
    /// (e.g. `NetworkScratch`) inside its own [`QueryScratch`], warmed at
    /// spawn via [`NetworkBackend::warm`]. Results are bit-identical to a
    /// sequential run of the same workload against the same backend, on
    /// any worker count.
    ///
    /// The Euclidean snapshot slot holds an empty placeholder: `publish`
    /// and the [`RefreshDriver`] are Euclidean-refresh machinery and do not
    /// apply to a network service.
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` or `config.queue_depth` is zero.
    pub fn start_network(backend: Arc<dyn NetworkBackend>, config: ServiceConfig) -> Service {
        let placeholder = Arc::new(ShardedSnapshot::single(Arc::new(
            RTree::new(RTreeParams::default()).freeze(),
        )));
        Self::start_inner(placeholder, config, Some(backend))
    }

    fn start_inner(
        snapshot: Arc<ShardedSnapshot>,
        config: ServiceConfig,
        network: Option<Arc<dyn NetworkBackend>>,
    ) -> Service {
        assert!(config.workers > 0, "service needs at least one worker");
        assert!(config.queue_depth > 0, "queue depth must be positive");
        let shards = snapshot.shard_count();
        let slot = Arc::new(SnapshotSlot::new(snapshot));
        // One epoch for every flight ring: merged timelines compare
        // timestamps from different workers directly.
        let epoch = Instant::now();
        let mut senders = Vec::with_capacity(shards);
        let mut pools = Vec::with_capacity(shards);
        let mut worker_id = 0usize;
        for shard in 0..shards {
            let (tx, rx) = sync_channel::<Job>(config.queue_depth);
            senders.push(tx);
            // std's Receiver is single-consumer; the pool shares it behind
            // a mutex. The lock is held only for the dequeue itself, never
            // while a query runs.
            let rx = Arc::new(Mutex::new(rx));
            let pool_workers =
                (config.workers / shards + usize::from(shard < config.workers % shards)).max(1);
            let mut workers = Vec::with_capacity(pool_workers);
            let mut counters = Vec::with_capacity(pool_workers);
            for _ in 0..pool_workers {
                let counter = Arc::new(WorkerCounters::new(
                    worker_id,
                    config.flight_recorder,
                    epoch,
                ));
                counters.push(Arc::clone(&counter));
                let slot = Arc::clone(&slot);
                let rx = Arc::clone(&rx);
                let planner = config.planner;
                let fault = config.fault_plan.clone();
                let network = network.clone();
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("gnn-worker-{shard}-{worker_id}"))
                        .spawn(move || {
                            worker_loop(
                                &slot,
                                &rx,
                                planner,
                                &counter,
                                worker_id,
                                &fault,
                                network.as_deref(),
                            )
                        })
                        .expect("spawn worker thread"),
                );
                worker_id += 1;
            }
            pools.push(Pool {
                workers,
                counters,
                routed: AtomicU64::new(0),
            });
        }
        let control = FlightRecorder::new(SOURCE_CONTROL, config.flight_recorder, epoch);
        let driver_flight = FlightRecorder::new(SOURCE_DRIVER, config.flight_recorder, epoch);
        Service {
            senders: Mutex::new(Some(senders)),
            slot,
            pools,
            config,
            epoch,
            control,
            driver_flight,
            network,
        }
    }

    /// Atomically publishes a new snapshot on a **single-shard** service
    /// and returns its generation.
    ///
    /// Workers pick the new snapshot up **between** queries: the in-flight
    /// query of every worker finishes on the snapshot it started on, no
    /// worker ever blocks on the swap (the hot path checks one atomic), and
    /// any request dequeued after `publish` returns is served on the new
    /// generation. Old snapshots are dropped when the last worker moves off
    /// them. Pairs with [`gnn_rtree::RTree::refreeze`] for cheap refreshes.
    ///
    /// # Panics
    ///
    /// Panics on a sharded service — publish a matching
    /// [`ShardedSnapshot`] through [`Service::publish_sharded`] instead.
    pub fn publish(&self, snapshot: Arc<PackedRTree>) -> u64 {
        assert_eq!(
            self.pools.len(),
            1,
            "publish() is the single-shard entry; use publish_sharded()"
        );
        let generation = self
            .slot
            .publish(Arc::new(ShardedSnapshot::single(snapshot)));
        self.control.record(FlightEventKind::Published, generation);
        generation
    }

    /// Atomically publishes a new sharded snapshot (same swap semantics as
    /// [`Service::publish`]) and returns its generation. An incremental
    /// refresh ([`gnn_rtree::ShardedTree::refreeze_all`]) shares the `Arc`
    /// of every untouched shard with the previous generation, so the swap
    /// costs memory only for the shards that changed.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's shard count differs from the service's
    /// pool count (the router's shard↔pool mapping is fixed at start).
    pub fn publish_sharded(&self, snapshot: Arc<ShardedSnapshot>) -> u64 {
        assert_eq!(
            snapshot.shard_count(),
            self.pools.len(),
            "published snapshot must keep the shard count"
        );
        let generation = self.slot.publish(snapshot);
        self.control.record(FlightEventKind::Published, generation);
        generation
    }

    /// Like [`Service::publish_sharded`], but refuses (returns `None`)
    /// once [`Service::initiate_shutdown`] has closed the queues — the
    /// check and the publish are serialized against the close, so after
    /// `initiate_shutdown` returns, the generation can never advance
    /// again. This is the entry the [`RefreshDriver`] uses: a refresh that
    /// races shutdown is dropped instead of published into a draining
    /// service.
    pub fn try_publish_sharded(&self, snapshot: Arc<ShardedSnapshot>) -> Option<u64> {
        assert_eq!(
            snapshot.shard_count(),
            self.pools.len(),
            "published snapshot must keep the shard count"
        );
        let guard = lock_unpoisoned(&self.senders);
        guard.as_ref()?;
        let generation = self.slot.publish(snapshot);
        self.control.record(FlightEventKind::Published, generation);
        Some(generation)
    }

    /// The instant every flight-recorder timestamp is measured from
    /// ([`FlightEvent::ts_nanos`] is nanoseconds since this epoch).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The refresh driver's flight ring (the driver thread is its single
    /// producer; it shares the service epoch and shows up in the merged
    /// [`ServiceStats::flight`] timeline as [`SOURCE_DRIVER`]).
    pub(crate) fn driver_flight(&self) -> &FlightRecorder {
        &self.driver_flight
    }

    /// Generation of the currently published snapshot (starts at 1).
    pub fn generation(&self) -> u64 {
        self.slot.generation()
    }

    /// The currently published snapshot of a **single-shard** service.
    ///
    /// # Panics
    ///
    /// Panics on a sharded service — use [`Service::sharded_snapshot`].
    pub fn snapshot(&self) -> Arc<PackedRTree> {
        assert_eq!(
            self.pools.len(),
            1,
            "snapshot() is the single-shard entry; use sharded_snapshot()"
        );
        Arc::clone(self.slot.load().0.shard(0))
    }

    /// The currently published sharded snapshot.
    pub fn sharded_snapshot(&self) -> Arc<ShardedSnapshot> {
        self.slot.load().0
    }

    /// Number of shard pools (fixed at start).
    pub fn shard_count(&self) -> usize {
        self.pools.len()
    }

    /// The network backend this service executes on, when started through
    /// [`Service::start_network`] (`None` for Euclidean services). Handy
    /// for running the sequential reference of a served workload against
    /// the exact same backend.
    pub fn network_backend(&self) -> Option<&Arc<dyn NetworkBackend>> {
        self.network.as_ref()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The pool this request would be queued on: its
    /// [`QueryRequest::shard_hint`] when valid, otherwise the shard with
    /// the smallest aggregate-MBR lower bound for the group (exposed for
    /// tests and load generators).
    pub fn route(&self, request: &QueryRequest) -> usize {
        if self.pools.len() == 1 {
            return 0;
        }
        if let Some(hint) = request.shard_hint {
            if (hint as usize) < self.pools.len() {
                return hint as usize;
            }
        }
        // Known trade-off: routing loads the slot (a brief, usually
        // uncontended mutex — the same pattern the sender table already
        // pays per submit) and the worker recomputes the full shard order
        // for the merge anyway. A lock-free routing-directory cache keyed
        // on the generation atomic would shave both; measure first —
        // callers that care today pre-route with `shard_hint`.
        primary_shard(&request.group, &self.slot.load().0) as usize
    }

    /// The one submission entry point: accepts anything convertible into a
    /// [`Submission`] — a plain [`QueryRequest`], the
    /// [`Submission::group`] builder, or the [`Submission::batch`] builder
    /// — and returns one [`ResponseHandle`] or one [`SubmitError`].
    ///
    /// * A **request / group** submission enqueues one job on its routed
    ///   shard's queue; redeem the handle with [`ResponseHandle::wait`].
    /// * A **batch** submission routes every request, then enqueues one
    ///   shared-traversal job per involved shard (each sub-batch is
    ///   Hilbert-ordered and reads upper-level pages once — see
    ///   [`gnn_core::batch`]); redeem with [`ResponseHandle::wait_all`],
    ///   which restores submission order. Results and per-query stats are
    ///   bit-identical to submitting each request alone.
    /// * Blocking submissions (the default) wait out backpressure;
    ///   `.blocking(false)` fails fast with [`SubmitError::QueueFull`].
    ///
    /// Errors: [`SubmitError::QueueFull`] (non-blocking, routed queue
    /// full), [`SubmitError::Shutdown`] (shutdown already initiated),
    /// [`SubmitError::BadGroup`] (a group submission's points don't form a
    /// valid query group). Per-query failures — a worker panic, a deadline
    /// shed — are **not** submission errors: they come back through the
    /// handle as typed [`QueryError`] outcomes.
    pub fn submit(&self, submission: impl Into<Submission>) -> Result<ResponseHandle, SubmitError> {
        let submission = submission.into();
        let blocking = submission.blocking;
        match submission.kind {
            SubmissionKind::Request(request) => self.enqueue_single(request, blocking),
            SubmissionKind::Group(group) => {
                let request =
                    group.resolve(self.config.default_k, self.config.default_aggregate)?;
                self.enqueue_single(request, blocking)
            }
            SubmissionKind::Batch(requests) => self.enqueue_batch(requests, blocking),
        }
    }

    /// Enqueues one request as a single job.
    fn enqueue_single(
        &self,
        request: QueryRequest,
        blocking: bool,
    ) -> Result<ResponseHandle, SubmitError> {
        let shard = self.route(&request);
        let Some(sender) = self.sender(shard) else {
            return Err(SubmitError::Shutdown);
        };
        let (reply, rx) = mpsc::channel();
        let job = Job {
            work: Work::Single(request),
            reply,
            submitted: Instant::now(),
        };
        if blocking {
            // A blocking `send` fails only when the shared receiver is
            // gone: shutdown closed the table between `sender()` and here
            // and the pool drained out (supervised workers never abandon
            // the receiver on a panic).
            if sender.send(job).is_err() {
                return Err(SubmitError::Shutdown);
            }
        } else {
            match sender.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => return Err(SubmitError::QueueFull),
                Err(TrySendError::Disconnected(_)) => return Err(SubmitError::Shutdown),
            }
        }
        self.pools[shard].routed.fetch_add(1, Ordering::Relaxed);
        Ok(ResponseHandle::new(rx, 1))
    }

    /// Routes a batch into per-shard sub-batches (one slot-load, submission
    /// order preserved inside each shard) and enqueues one shared-traversal
    /// job per involved shard.
    fn enqueue_batch(
        &self,
        requests: Vec<QueryRequest>,
        blocking: bool,
    ) -> Result<ResponseHandle, SubmitError> {
        let expected = requests.len();
        let (reply, rx) = mpsc::channel();
        if expected == 0 {
            return Ok(ResponseHandle::new(rx, 0));
        }
        // One routing snapshot for the whole batch: every request of the
        // batch is routed against the same generation.
        let snapshot = (self.pools.len() > 1).then(|| self.slot.load().0);
        let mut per_shard: Vec<(Vec<QueryRequest>, Vec<u32>)> =
            (0..self.pools.len()).map(|_| Default::default()).collect();
        for (i, request) in requests.into_iter().enumerate() {
            let shard = match &snapshot {
                None => 0,
                Some(snap) => request
                    .shard_hint
                    .filter(|&h| (h as usize) < self.pools.len())
                    .map_or_else(
                        || primary_shard(&request.group, snap) as usize,
                        |h| h as usize,
                    ),
            };
            per_shard[shard].0.push(request);
            per_shard[shard].1.push(i as u32);
        }
        // The whole sender table is cloned under one lock acquisition, so
        // a racing shutdown either rejects the entire batch or lets every
        // sub-batch in (sends can still lose to a close that lands
        // mid-loop, which maps to `Shutdown` like the up-front check).
        let senders = lock_unpoisoned(&self.senders)
            .as_ref()
            .ok_or(SubmitError::Shutdown)?
            .clone();
        let submitted = Instant::now();
        for (shard, (sub_requests, indices)) in per_shard.into_iter().enumerate() {
            if sub_requests.is_empty() {
                continue;
            }
            let queries = sub_requests.len() as u64;
            let job = Job {
                work: Work::Batch {
                    requests: sub_requests,
                    indices,
                },
                reply: reply.clone(),
                submitted,
            };
            if blocking {
                if senders[shard].send(job).is_err() {
                    return Err(SubmitError::Shutdown);
                }
            } else {
                match senders[shard].try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => return Err(SubmitError::QueueFull),
                    Err(TrySendError::Disconnected(_)) => return Err(SubmitError::Shutdown),
                }
            }
            self.pools[shard]
                .routed
                .fetch_add(queries, Ordering::Relaxed);
        }
        Ok(ResponseHandle::new(rx, expected))
    }

    /// Aggregated counters so far (cheap: atomic loads plus lock-free ring
    /// snapshots — safe to poll from a metrics scraper while traffic
    /// runs). The flight timeline is a point-in-time merge of every ring;
    /// workers keep recording while it is read.
    pub fn stats(&self) -> ServiceStats {
        let mut per_worker = Vec::new();
        let mut per_shard = Vec::with_capacity(self.pools.len());
        let mut latency = LatencySnapshot::empty();
        let mut stages = StageSnapshot::empty();
        let mut rings = Vec::new();
        let mut worker_id = 0usize;
        let (mut batches, mut batch_queries) = (0u64, 0u64);
        let (mut batch_unique_pages, mut batch_sequential_pages) = (0u64, 0u64);
        let mut faults = FaultLedger::default();
        for (shard, pool) in self.pools.iter().enumerate() {
            let mut stats = ShardStats {
                shard,
                routed: pool.routed.load(Ordering::Relaxed),
                queries: 0,
                single_shard_hits: 0,
                shards_consulted: 0,
                latency: LatencySnapshot::empty(),
            };
            for c in &pool.counters {
                per_worker.push(c.snapshot(worker_id, shard));
                worker_id += 1;
                stats.queries += c.queries.load(Ordering::Relaxed);
                stats.single_shard_hits += c.single_shard_hits.load(Ordering::Relaxed);
                stats.shards_consulted += c.shards_consulted.load(Ordering::Relaxed);
                batches += c.batches.load(Ordering::Relaxed);
                batch_queries += c.batch_queries.load(Ordering::Relaxed);
                batch_unique_pages += c.batch_unique_pages.load(Ordering::Relaxed);
                batch_sequential_pages += c.batch_sequential_pages.load(Ordering::Relaxed);
                faults = faults.merged(c.fault_ledger());
                stats.latency.merge(&c.latency.snapshot());
                stages.merge(&c.stages.snapshot());
                rings.push(c.flight.snapshot());
            }
            latency.merge(&stats.latency);
            per_shard.push(stats);
        }
        rings.push(self.control.snapshot());
        rings.push(self.driver_flight.snapshot());
        let flight = FlightLog::merge(rings);
        ServiceStats {
            generation: self.slot.generation(),
            queries_served: per_worker.iter().map(|w| w.queries).sum(),
            node_accesses: per_worker.iter().map(|w| w.node_accesses).sum(),
            io: per_worker.iter().map(|w| w.io).sum(),
            dist_computations: per_worker.iter().map(|w| w.dist_computations).sum(),
            single_shard_hits: per_shard.iter().map(|s| s.single_shard_hits).sum(),
            batches,
            batch_queries,
            batch_unique_pages,
            batch_sequential_pages,
            faults,
            per_worker,
            per_shard,
            latency,
            stages,
            flight,
            simd_level: gnn_geom::simd::dispatch_level().label(),
        }
    }

    /// Graceful shutdown: stops accepting new requests, lets the workers
    /// drain every queued request (their responses stay redeemable), joins
    /// the pools, and returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop_and_join();
        self.stats()
    }

    /// Closes every shard queue from `&self` without joining the workers:
    /// submissions from this point on fail cleanly
    /// ([`SubmitError::Shutdown`]), while
    /// every request accepted **before** the close is still drained and
    /// answered exactly once — and no snapshot can be published past the
    /// close ([`Service::try_publish_sharded`]). Callable from any thread —
    /// this is what lets a shutdown race in-flight submissions and
    /// a running [`RefreshDriver`] deterministically. Follow with
    /// [`Service::shutdown`] to join the pools and collect the final
    /// counters.
    pub fn initiate_shutdown(&self) {
        // Dropping the senders makes every worker's `recv` fail once its
        // queue is drained — the shutdown signal.
        drop(lock_unpoisoned(&self.senders).take());
    }

    fn sender(&self, shard: usize) -> Option<SyncSender<Job>> {
        // Clone-and-release: the bounded `send` may block on backpressure,
        // and holding the lock there would stall `initiate_shutdown` and
        // every other submitter.
        lock_unpoisoned(&self.senders)
            .as_ref()
            .map(|s| s[shard].clone())
    }

    fn stop_and_join(&mut self) {
        self.initiate_shutdown();
        for pool in &mut self.pools {
            for handle in pool.workers.drain(..) {
                // Supervised workers answer the in-flight request before
                // rebuilding their state, so a panic never leaves a handle
                // hanging; joining must not poison shutdown regardless.
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let running = lock_unpoisoned(&self.senders).is_some();
        f.debug_struct("Service")
            .field("shards", &self.pools.len())
            .field("workers", &self.config.workers)
            .field("queue_depth", &self.config.queue_depth)
            .field("generation", &self.slot.generation())
            .field("running", &running)
            .finish()
    }
}

/// Applies the fault plan at the execution point of a worker's `nth`
/// attempt (1-based): the injected per-query latency, then the injected
/// panic. Runs **inside** the supervision `catch_unwind`, before the
/// algorithm — a non-faulted query's execution is untouched.
fn inject_fault(fault: &FaultPlan, worker: usize, nth: u64) {
    if fault.is_empty() {
        return;
    }
    // A panicking query crashes *instead of* executing, so it fires before
    // the injected latency — the latency models execution cost, which a
    // crashed query never completes.
    if fault.should_panic(worker, nth) {
        panic!("injected fault: worker {worker} query {nth}");
    }
    if let Some(latency) = fault.injected_latency() {
        std::thread::sleep(latency);
    }
}

/// Whether a dequeued request's deadline has already expired. If so, the
/// worker answers [`QueryError::DeadlineExceeded`] instead of executing —
/// load shedding at the dequeue point, where queue staleness is known.
fn expired(deadline: Option<Duration>, submitted: Instant) -> bool {
    deadline.is_some_and(|d| submitted.elapsed() >= d)
}

/// Saturating nanosecond count of a duration — the flight-recorder payload
/// encoding for stage timings.
pub(crate) fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The worker body: per-shard cursors + one scratch + planner per thread.
/// The scratch is reused for the thread's whole lifetime — steady-state
/// queries allocate only their response vectors — while the cursors are
/// rebuilt (cheap constructors) whenever a newer snapshot generation is
/// picked up between queries. Queries run through
/// [`QueryRequest::execute_sharded_in`]: a single-shard snapshot follows
/// the exact single-tree path, a partitioned one the best-first cross-shard
/// merge.
///
/// **Supervision:** every query executes inside `catch_unwind`. A panic —
/// injected by the [`FaultPlan`] or real — rebuilds the worker's serving
/// state (fresh scratch + cursors: nothing a panic may have left
/// mid-mutation survives), bumps the fault ledger, answers the in-flight
/// request with [`QueryError::WorkerPanicked`], and keeps serving on
/// the same thread. Pool capacity and per-shard availability are invariant
/// under panics, and no `wait()` ever hangs on one. Panics unwind out of
/// the algorithm only; the snapshot itself is immutable and shared, so no
/// tree state can be corrupted.
fn worker_loop(
    slot: &SnapshotSlot,
    rx: &Mutex<Receiver<Job>>,
    planner: Planner,
    counters: &WorkerCounters,
    worker_id: usize,
    fault: &FaultPlan,
    network: Option<&dyn NetworkBackend>,
) {
    let mut scratch = QueryScratch::new();
    let (mut snap, mut generation) = slot.load();
    // A job dequeued under a stale generation: carried across the reload so
    // it executes on the snapshot current at its dequeue, never dropped.
    let mut pending: Option<Job> = None;
    let mut warmed = false;
    // Execution attempts by this worker, 1-based: the fault plan's query
    // coordinate. Counts every execution start, including ones that panic.
    let mut attempts = 0u64;
    loop {
        let mut cursors: Vec<TreeCursor<'_>> = snap.shards().iter().map(|s| s.cursor()).collect();
        // Self-warm before serving: one canned query sizes the scratch's
        // core buffers, so a worker's very first real request does not pay
        // the cold-start allocations inside a caller's latency measurement.
        // The per-pool queues give no per-worker routing, so no submitted
        // warm-up batch could guarantee reaching every worker — only the
        // worker itself can. Uncounted: it is not traffic. Once is enough:
        // the scratch survives snapshot swaps.
        if !warmed {
            warmed = true;
            if let Some(backend) = network {
                // Network services self-warm through the backend: it sizes
                // the per-worker network state the same way the canned
                // Euclidean query sizes the core scratch.
                backend.warm(&mut scratch);
            } else if !snap.is_empty() {
                if let Ok(group) = QueryGroup::sum(vec![snap.root_mbr().center()]) {
                    let warm = QueryRequest::new(group, 1);
                    let _ = warm.execute_sharded_in(&planner, &snap, &cursors, &mut scratch);
                    for c in &cursors {
                        c.reset();
                    }
                }
            }
        }
        // Serve on this snapshot until a newer generation is published.
        let handoff = loop {
            let job = match pending.take() {
                Some(job) => job,
                None => {
                    let received = {
                        let guard = lock_unpoisoned(rx);
                        guard.recv()
                    };
                    match received {
                        Ok(job) => job,
                        // Sender dropped and queue drained: shutdown.
                        Err(_) => return,
                    }
                }
            };
            // Swap check between queries only: one atomic load on the hot
            // path, never a lock; an in-flight query is never interrupted.
            // Checked after the dequeue, so every request runs on the
            // generation current when a worker picked it up — once
            // `publish` returns, no later-dequeued request sees the old
            // snapshot.
            if slot.generation() != generation {
                break Some(job);
            }
            let Job {
                work,
                reply,
                submitted,
            } = job;
            match work {
                Work::Single(request) => {
                    // Queue wait ends here: the request is now being
                    // processed. The `Enqueued` event is back-stamped with
                    // the submit instant so the merged timeline shows the
                    // wait, while the ring stays single-producer.
                    let queue_wait = submitted.elapsed();
                    counters
                        .flight
                        .record_at(submitted, FlightEventKind::Enqueued, 1);
                    counters
                        .flight
                        .record(FlightEventKind::Dequeued, duration_nanos(queue_wait));
                    // Shed at dequeue: a request whose deadline expired in
                    // queue is answered typed instead of executed.
                    if expired(request.deadline, submitted) {
                        counters.record_shed(queue_wait);
                        let _ = reply.send((0, Err(QueryError::DeadlineExceeded)));
                        continue;
                    }
                    let deadline = request.deadline;
                    attempts += 1;
                    counters.flight.record(FlightEventKind::ExecStart, 1);
                    let exec0 = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        inject_fault(fault, worker_id, attempts);
                        // A network service executes every request on the
                        // backend; Euclidean services follow the sharded
                        // path (single-shard snapshots take the exact
                        // single-tree route inside).
                        let target = match network {
                            Some(backend) => Target::Network(backend),
                            None => Target::Sharded {
                                snapshot: &snap,
                                cursors: &cursors,
                            },
                        };
                        let (choice, neighbors, stats, routing) =
                            request.execute_on(&planner, &target, &mut scratch);
                        let response = QueryResponse {
                            choice,
                            neighbors: neighbors.to_vec(),
                            stats,
                            generation,
                            routing,
                            // Opt-in trace: a `Copy` struct filled inline —
                            // no allocation whether requested or not, and
                            // nothing about execution depended on the flag.
                            trace: request.trace.then(|| QueryTrace {
                                queue_wait,
                                execution: exec0.elapsed(),
                                node_accesses: stats.data_tree.logical,
                                pages: stats.data_tree.io,
                                dist_computations: stats.dist_computations,
                            }),
                        };
                        (response, stats, routing)
                    }));
                    match outcome {
                        Ok((response, stats, routing)) => {
                            let execution = exec0.elapsed();
                            counters
                                .flight
                                .record(FlightEventKind::ExecEnd, duration_nanos(execution));
                            // `busy` counts execution only; the latency
                            // histogram measures submit → response, so
                            // queue wait under overload is visible.
                            counters.record(
                                &stats,
                                routing,
                                queue_wait,
                                execution,
                                submitted.elapsed(),
                            );
                            if deadline.is_some_and(|d| submitted.elapsed() > d) {
                                counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
                            }
                            // The caller may have dropped its handle; that
                            // is not an error.
                            let sent0 = Instant::now();
                            let _ = reply.send((0, Ok(response)));
                            counters.stages.reply.record(sent0.elapsed());
                        }
                        Err(_) => {
                            counters.panics.fetch_add(1, Ordering::Relaxed);
                            counters.flight.record(FlightEventKind::Panicked, attempts);
                            // Respawn in place BEFORE releasing the reply:
                            // nothing the panic may have left mid-mutation
                            // survives into the next query, and the caller
                            // cannot enqueue follow-up work (whose Enqueued
                            // event back-stamps to submit time) until the
                            // Respawned event is on the ring — the flight
                            // timeline stays a strict per-query transcript.
                            scratch = QueryScratch::new();
                            cursors = snap.shards().iter().map(|s| s.cursor()).collect();
                            counters.respawns.fetch_add(1, Ordering::Relaxed);
                            counters.flight.record(FlightEventKind::Respawned, 0);
                            let _ = reply.send((0, Err(QueryError::WorkerPanicked)));
                        }
                    }
                }
                Work::Batch {
                    requests,
                    indices: all_indices,
                } => {
                    // Job-level queue wait: every member waited behind the
                    // same queue slot. One Enqueued/Dequeued event pair per
                    // job (payload = member count / wait nanos).
                    let queue_wait = submitted.elapsed();
                    counters.flight.record_at(
                        submitted,
                        FlightEventKind::Enqueued,
                        requests.len() as u64,
                    );
                    counters
                        .flight
                        .record(FlightEventKind::Dequeued, duration_nanos(queue_wait));
                    // Shed expired members up front (typed, per request);
                    // the survivors run as shared-traversal passes.
                    let mut batch_requests = Vec::with_capacity(requests.len());
                    let mut indices = Vec::with_capacity(all_indices.len());
                    for (request, index) in requests.into_iter().zip(all_indices) {
                        if expired(request.deadline, submitted) {
                            counters.record_shed(queue_wait);
                            let _ = reply.send((index, Err(QueryError::DeadlineExceeded)));
                        } else {
                            batch_requests.push(request);
                            indices.push(index);
                        }
                    }
                    // One shared-traversal pass over the sub-batch. Every
                    // query still runs the unchanged per-query algorithm,
                    // so results and per-query stats (sequential-mode NA)
                    // are bit-identical to single submissions; only the
                    // batch ledger (unique vs sequential pages) is new.
                    //
                    // Panic-resume: a pass that panics answers the
                    // in-flight query with a typed error, rebuilds the
                    // worker state, and re-runs the unanswered remainder
                    // as a fresh shared pass — every other query of the
                    // batch is answered exactly once. An aborted pass
                    // contributes nothing to the batch ledger (its page
                    // overlay died with the cursors); the resumed
                    // remainder accounts as the pass that completed.
                    while !batch_requests.is_empty() {
                        let mut answered = vec![false; batch_requests.len()];
                        let mut current: Option<usize> = None;
                        let mut pass_attempts = attempts;
                        // Ledger-before-last-reply: the pass's final
                        // response is stashed here instead of sent from the
                        // sink, and only flushed **after** `record_batch`.
                        // Once a caller's `wait_all` returns, the batch
                        // ledger is therefore already visible to `stats()`
                        // — no eventual-consistency window. The held query
                        // is left unanswered on the `answered` map, so a
                        // (hypothetical) panic after its sink call re-runs
                        // it in the resumed pass and it is still answered
                        // exactly once.
                        type Held = (usize, QueryResponse, QueryStats, ShardRouting, Duration);
                        let mut held: Option<Held> = None;
                        let mut sent = 0usize;
                        let total = batch_requests.len();
                        counters
                            .flight
                            .record(FlightEventKind::ExecStart, total as u64);
                        let pass0 = Instant::now();
                        let mut last = pass0;
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            // Same target rule as the single path. The
                            // batch executor is target-generic: on a
                            // network target the Hilbert pass still orders
                            // the sub-batch by group MBR (deterministic,
                            // good source-vertex locality), while page
                            // tracking sees no cursors and reports zero
                            // unique pages — fixed up after the pass, since
                            // network refinement shares no page reads.
                            let target = match network {
                                Some(backend) => Target::Network(backend),
                                None => Target::Sharded {
                                    snapshot: &snap,
                                    cursors: &cursors,
                                },
                            };
                            execute_batch_hooked(
                                &planner,
                                &target,
                                &batch_requests,
                                &mut scratch,
                                |i| {
                                    current = Some(i);
                                    pass_attempts += 1;
                                    inject_fault(fault, worker_id, pass_attempts);
                                },
                                |i, choice, neighbors, stats, routing| {
                                    let now = Instant::now();
                                    let execution = now - last;
                                    last = now;
                                    let response = QueryResponse {
                                        choice,
                                        neighbors: neighbors.to_vec(),
                                        stats: *stats,
                                        generation,
                                        routing,
                                        trace: batch_requests[i].trace.then_some(QueryTrace {
                                            queue_wait,
                                            execution,
                                            node_accesses: stats.data_tree.logical,
                                            pages: stats.data_tree.io,
                                            dist_computations: stats.dist_computations,
                                        }),
                                    };
                                    sent += 1;
                                    if sent == total {
                                        held = Some((i, response, *stats, routing, execution));
                                        return;
                                    }
                                    counters.record(
                                        stats,
                                        routing,
                                        queue_wait,
                                        execution,
                                        submitted.elapsed(),
                                    );
                                    if batch_requests[i]
                                        .deadline
                                        .is_some_and(|d| submitted.elapsed() > d)
                                    {
                                        counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
                                    }
                                    answered[i] = true;
                                    let sent0 = Instant::now();
                                    let _ = reply.send((indices[i], Ok(response)));
                                    counters.stages.reply.record(sent0.elapsed());
                                },
                            )
                        }));
                        attempts = pass_attempts;
                        match outcome {
                            Ok(mut accounting) => {
                                if network.is_some() {
                                    // No shared traversal under network
                                    // distance: every query pays its own
                                    // R-tree filter reads, so the honest
                                    // ledger is unique == sequential
                                    // (savings 0), not the untracked 0.
                                    accounting.unique_pages = accounting.sequential_pages;
                                }
                                counters.record_batch(&accounting);
                                counters.flight.record(
                                    FlightEventKind::ExecEnd,
                                    duration_nanos(pass0.elapsed()),
                                );
                                if let Some((i, response, stats, routing, execution)) = held.take()
                                {
                                    counters.record(
                                        &stats,
                                        routing,
                                        queue_wait,
                                        execution,
                                        submitted.elapsed(),
                                    );
                                    if batch_requests[i]
                                        .deadline
                                        .is_some_and(|d| submitted.elapsed() > d)
                                    {
                                        counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
                                    }
                                    let sent0 = Instant::now();
                                    let _ = reply.send((indices[i], Ok(response)));
                                    counters.stages.reply.record(sent0.elapsed());
                                }
                                break;
                            }
                            Err(_) => {
                                counters.panics.fetch_add(1, Ordering::Relaxed);
                                counters
                                    .flight
                                    .record(FlightEventKind::Panicked, pass_attempts);
                                // Respawn before releasing the victim's
                                // reply (same transcript discipline as the
                                // single-query path).
                                scratch = QueryScratch::new();
                                cursors = snap.shards().iter().map(|s| s.cursor()).collect();
                                counters.respawns.fetch_add(1, Ordering::Relaxed);
                                counters.flight.record(FlightEventKind::Respawned, 0);
                                // The in-flight query (per the before-hook)
                                // is the victim; if the pass died before
                                // any hook fired, charge the first
                                // unanswered query so the loop always
                                // makes progress. A stashed-but-unflushed
                                // reply (`held`) is dropped with the pass:
                                // its query was never marked answered, so
                                // the resumed pass re-runs it.
                                let victim = current
                                    .filter(|&i| !answered[i])
                                    .or_else(|| answered.iter().position(|&a| !a));
                                if let Some(v) = victim {
                                    answered[v] = true;
                                    let _ =
                                        reply.send((indices[v], Err(QueryError::WorkerPanicked)));
                                }
                                let mut keep = answered.iter().map(|&a| !a);
                                batch_requests.retain(|_| keep.next().unwrap());
                                let mut keep = answered.iter().map(|&a| !a);
                                indices.retain(|_| keep.next().unwrap());
                            }
                        }
                    }
                }
            }
        };
        pending = handoff;
        drop(cursors);
        let (next_snap, next_generation) = slot.load();
        snap = next_snap;
        generation = next_generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_core::{Algo, Mbm, Neighbor};
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{LeafEntry, RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn snapshot(n: usize, seed: u64) -> Arc<PackedRTree> {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            (0..n).map(|i| {
                LeafEntry::new(
                    PointId(i as u64),
                    Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
                )
            }),
        );
        Arc::new(tree.freeze())
    }

    fn random_group(n: usize, seed: u64) -> QueryGroup {
        let mut rng = StdRng::seed_from_u64(seed);
        QueryGroup::sum(
            (0..n)
                .map(|_| {
                    Point::new(
                        20.0 + rng.gen::<f64>() * 40.0,
                        20.0 + rng.gen::<f64>() * 40.0,
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn single_query_matches_direct_mbm() {
        let snap = snapshot(800, 1);
        let service = Service::start(Arc::clone(&snap), ServiceConfig::with_workers(2));
        let group = random_group(5, 2);
        let response = service
            .submit(QueryRequest::new(group.clone(), 4))
            .unwrap()
            .wait()
            .unwrap();
        let want = Mbm::best_first().k_gnn(&snap.cursor(), &group, 4);
        assert_eq!(response.neighbors, want.neighbors);
        assert_eq!(
            response.stats.data_tree.logical,
            want.stats.data_tree.logical
        );
        assert_eq!(response.routing, ShardRouting::default());
    }

    #[test]
    fn batch_responses_come_back_in_submission_order() {
        let snap = snapshot(600, 3);
        let service = Service::start(snap, ServiceConfig::with_workers(4));
        let requests: Vec<QueryRequest> = (0..24)
            .map(|i| QueryRequest::new(random_group(4, 100 + i), 1 + (i as usize % 3)))
            .collect();
        let responses = service
            .submit(Submission::batch(requests.clone()))
            .unwrap()
            .wait_all()
            .unwrap();
        assert_eq!(responses.len(), 24);
        for (req, r) in requests.iter().zip(&responses) {
            assert_eq!(r.neighbors.len(), req.k);
        }
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 24);
        assert_eq!(stats.latency.count(), 24);
        assert!(stats.node_accesses > 0);
        assert_eq!(stats.per_worker.len(), 4);
        let sum: u64 = stats.per_worker.iter().map(|w| w.queries).sum();
        assert_eq!(sum, 24);
        assert_eq!(stats.per_shard.len(), 1);
        assert_eq!(stats.per_shard[0].routed, 24);
        assert_eq!(stats.single_shard_fraction(), Some(1.0));
        // Unsharded: the whole batch is one shared-traversal sub-batch.
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_queries, 24);
        assert_eq!(stats.mean_batch_size(), Some(24.0));
        assert!(stats.batch_unique_pages <= stats.batch_sequential_pages);
    }

    #[test]
    fn batched_responses_match_single_submissions_bit_for_bit() {
        let snap = snapshot(900, 90);
        let requests: Vec<QueryRequest> = (0..16)
            .map(|i| QueryRequest::new(random_group(4, 900 + i), 3))
            .collect();
        let service = Service::start(Arc::clone(&snap), ServiceConfig::with_workers(2));
        let singles: Vec<QueryResponse> = requests
            .iter()
            .map(|r| service.submit(r.clone()).unwrap().wait().unwrap())
            .collect();
        let batched = service
            .submit(Submission::batch(requests))
            .unwrap()
            .wait_all()
            .unwrap();
        for (i, (single, batch)) in singles.iter().zip(&batched).enumerate() {
            assert_eq!(single.neighbors, batch.neighbors, "query {i}");
            assert_eq!(
                single.stats.data_tree.logical, batch.stats.data_tree.logical,
                "query {i}: sequential-mode NA"
            );
            assert_eq!(single.choice, batch.choice, "query {i}");
            assert_eq!(single.routing, batch.routing, "query {i}");
        }
        let stats = service.shutdown();
        // Batch ledger covers only the batched half of the traffic.
        assert_eq!(stats.batch_queries, 16);
        assert_eq!(stats.queries_served, 32);
        assert!(stats.shared_read_savings().is_some());
    }

    #[test]
    fn empty_batch_yields_empty_responses() {
        let snap = snapshot(200, 91);
        let service = Service::start(snap, ServiceConfig::with_workers(1));
        let handle = service.submit(Submission::batch(Vec::new())).unwrap();
        assert_eq!(handle.expected(), 0);
        assert_eq!(handle.wait_all().unwrap(), Vec::new());
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.mean_batch_size(), None);
        assert_eq!(stats.shared_read_savings(), None);
    }

    #[test]
    fn group_submission_resolves_service_defaults() {
        let snap = snapshot(500, 92);
        let service = Service::start(
            snap,
            ServiceConfig {
                workers: 1,
                default_k: 5,
                default_aggregate: Aggregate::Max,
                ..ServiceConfig::default()
            },
        );
        // Defaults: configured k and aggregate.
        let pts = random_group(4, 93).points().to_vec();
        let r = service
            .submit(Submission::group(pts.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.neighbors.len(), 5);
        // Overrides win, and a pinned algorithm is honored.
        let r = service
            .submit(
                Submission::group(pts)
                    .k(2)
                    .aggregate(Aggregate::Sum)
                    .algo(Algo::Mqm),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.neighbors.len(), 2);
        assert_eq!(r.choice, gnn_core::Choice::Mqm);
        // Invalid groups fail at submission, not on the handle.
        match service.submit(Submission::group(Vec::new())) {
            Err(SubmitError::BadGroup(_)) => {}
            other => panic!("expected BadGroup, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let snap = snapshot(500, 4);
        let service = Service::start(
            snap,
            ServiceConfig {
                workers: 1,
                queue_depth: 64,
                ..ServiceConfig::default()
            },
        );
        let handle = service
            .submit(Submission::batch(
                (0..32).map(|i| QueryRequest::new(random_group(4, i), 2)),
            ))
            .unwrap();
        // Shut down immediately: every already-queued request must still be
        // answered.
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 32);
        for r in handle.wait_all().unwrap() {
            assert_eq!(r.neighbors.len(), 2);
        }
    }

    #[test]
    fn explicit_algo_requests_report_their_choice() {
        let snap = snapshot(500, 6);
        let service = Service::start(snap, ServiceConfig::with_workers(2));
        for (algo, want) in [
            (Algo::Mqm, gnn_core::Choice::Mqm),
            (Algo::Spm, gnn_core::Choice::Spm),
            (Algo::Mbm, gnn_core::Choice::Mbm),
            (Algo::Auto, gnn_core::Choice::Mbm),
        ] {
            let r = service
                .submit(QueryRequest::with_algo(random_group(4, 7), 2, algo))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(r.choice, want, "{algo:?}");
        }
    }

    #[test]
    fn poll_eventually_returns() {
        let snap = snapshot(300, 7);
        let service = Service::start(snap, ServiceConfig::with_workers(1));
        let mut handle = service
            .submit(QueryRequest::new(random_group(3, 8), 1))
            .unwrap();
        let mut spins = 0u64;
        let r = loop {
            if let Some(r) = handle.poll() {
                break r;
            }
            spins += 1;
            std::thread::yield_now();
            assert!(spins < 100_000_000, "query never completed");
        };
        assert_eq!(r.unwrap().neighbors.len(), 1);
    }

    #[test]
    fn empty_snapshot_serves_empty_results() {
        let snap = Arc::new(RTree::new(RTreeParams::default()).freeze());
        let service = Service::start(snap, ServiceConfig::with_workers(2));
        let r = service
            .submit(QueryRequest::new(random_group(3, 9), 5))
            .unwrap()
            .wait()
            .unwrap();
        assert!(r.neighbors.is_empty());
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 1);
    }

    #[test]
    fn publish_swaps_snapshots_between_queries() {
        let first = snapshot(500, 21);
        let second = snapshot(900, 22);
        let service = Service::start(Arc::clone(&first), ServiceConfig::with_workers(2));
        assert_eq!(service.generation(), 1);
        let group = random_group(5, 23);

        let r1 = service
            .submit(QueryRequest::new(group.clone(), 3))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r1.generation, 1);
        let want1 = Mbm::best_first().k_gnn(&first.cursor(), &group, 3);
        assert_eq!(r1.neighbors, want1.neighbors);

        let generation = service.publish(Arc::clone(&second));
        assert_eq!(generation, 2);
        assert_eq!(service.generation(), 2);
        assert!(Arc::ptr_eq(&service.snapshot(), &second));

        // Published before this submission: the request must be served on
        // the new snapshot and tagged with its generation.
        let r2 = service
            .submit(QueryRequest::new(group.clone(), 3))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r2.generation, 2);
        let want2 = Mbm::best_first().k_gnn(&second.cursor(), &group, 3);
        assert_eq!(r2.neighbors, want2.neighbors);

        let stats = service.shutdown();
        assert_eq!(stats.generation, 2);
        assert_eq!(stats.queries_served, 2);
    }

    #[test]
    fn repeated_publishes_serve_the_latest_snapshot() {
        let snaps: Vec<_> = (0..5)
            .map(|i| snapshot(300 + 50 * i, 30 + i as u64))
            .collect();
        let service = Service::start(Arc::clone(&snaps[0]), ServiceConfig::with_workers(3));
        let group = random_group(4, 31);
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            assert_eq!(service.publish(Arc::clone(snap)), i as u64 + 1);
            let r = service
                .submit(QueryRequest::new(group.clone(), 2))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(r.generation, i as u64 + 1, "publish {i}");
            let want = Mbm::best_first().k_gnn(&snap.cursor(), &group, 2);
            assert_eq!(r.neighbors, want.neighbors, "publish {i}");
        }
        let stats = service.shutdown();
        assert_eq!(stats.generation, 5);
    }

    #[test]
    fn initiate_shutdown_rejects_new_submissions_but_drains_accepted() {
        let snap = snapshot(400, 40);
        let service = Service::start(
            snap,
            ServiceConfig {
                workers: 1,
                queue_depth: 64,
                ..ServiceConfig::default()
            },
        );
        let accepted = service
            .submit(Submission::batch(
                (0..16).map(|i| QueryRequest::new(random_group(4, 50 + i), 2)),
            ))
            .unwrap();
        service.initiate_shutdown();
        // Post-close submissions fail cleanly, blocking or not.
        assert_eq!(
            service
                .submit(QueryRequest::new(random_group(4, 99), 1))
                .err(),
            Some(SubmitError::Shutdown)
        );
        assert_eq!(
            service
                .submit(
                    Submission::request(QueryRequest::new(random_group(4, 98), 1)).blocking(false)
                )
                .err(),
            Some(SubmitError::Shutdown)
        );
        assert_eq!(
            service
                .submit(Submission::batch([QueryRequest::new(
                    random_group(4, 97),
                    1
                )]))
                .err(),
            Some(SubmitError::Shutdown)
        );
        // Everything accepted before the close is answered exactly once.
        for r in accepted.wait_all().unwrap() {
            assert_eq!(r.neighbors.len(), 2);
        }
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 16);
    }

    #[test]
    fn shutdown_racing_submit_batch_drains_deterministically() {
        // Several threads pour batches in through the bounded queue while
        // another thread closes it at an arbitrary point. The invariant
        // that must hold for every interleaving: each submitted request
        // resolves to exactly one outcome — a response (iff it was accepted
        // before the close; the count must equal the workers' served
        // counter) or a clean `Shutdown` error. Nothing hangs, nothing
        // is answered twice, nothing is silently dropped.
        let snap = snapshot(600, 60);
        let service = Service::start(
            snap,
            ServiceConfig {
                workers: 2,
                queue_depth: 8, // far smaller than the load: submits block
                ..ServiceConfig::default()
            },
        );
        let outcomes: Vec<Result<QueryResponse, SubmitError>> = std::thread::scope(|s| {
            let mut submitters = Vec::new();
            for t in 0..3u64 {
                let service = &service;
                submitters.push(s.spawn(move || {
                    (0..40)
                        .map(|i| {
                            let request = QueryRequest::new(random_group(4, 1000 + t * 100 + i), 1);
                            service.submit(request).and_then(ResponseHandle::wait)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            s.spawn(|| {
                // No sleep: yielding lands the close at a scheduler-chosen
                // point inside the submission storm.
                for _ in 0..50 {
                    std::thread::yield_now();
                }
                service.initiate_shutdown();
            });
            submitters
                .into_iter()
                .flat_map(|j| j.join().expect("submitter panicked"))
                .collect()
        });
        let stats = service.shutdown();
        assert_eq!(outcomes.len(), 120);
        let ok = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        assert_eq!(
            ok, stats.queries_served,
            "answered responses must equal requests the workers served"
        );
        assert_eq!(stats.latency.count(), stats.queries_served);
        for o in &outcomes {
            match o {
                Ok(r) => assert_eq!(r.neighbors.len(), 1),
                Err(e) => assert_eq!(*e, SubmitError::Shutdown),
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let snap = Arc::new(RTree::new(RTreeParams::default()).freeze());
        Service::start(
            snap,
            ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        );
    }

    // --- sharded serving ---

    fn sharded_snapshot(n: usize, shards: usize, seed: u64) -> Arc<ShardedSnapshot> {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            (0..n).map(|i| {
                LeafEntry::new(
                    PointId(i as u64),
                    Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
                )
            }),
        );
        Arc::new(tree.freeze_sharded(shards))
    }

    #[test]
    fn sharded_service_matches_sequential_merge() {
        let snap = sharded_snapshot(2000, 4, 70);
        let service = Service::start_sharded(Arc::clone(&snap), ServiceConfig::with_workers(4));
        let planner = Planner::new();
        let mut scratch = QueryScratch::new();
        let cursors: Vec<_> = snap.shards().iter().map(|s| s.cursor()).collect();
        for i in 0..24u64 {
            let request = QueryRequest::new(random_group(4, 300 + i), 3);
            let (choice, want, stats, routing) =
                request.execute_sharded_in(&planner, &snap, &cursors, &mut scratch);
            let want = want.to_vec();
            let r = service.submit(request).unwrap().wait().unwrap();
            assert_eq!(r.choice, choice, "query {i}");
            assert_eq!(r.neighbors, want, "query {i}");
            assert_eq!(
                r.stats.data_tree.logical, stats.data_tree.logical,
                "query {i}"
            );
            assert_eq!(r.routing, routing, "query {i}");
        }
        let stats = service.shutdown();
        assert_eq!(stats.per_shard.len(), 4);
        assert_eq!(
            stats.per_shard.iter().map(|s| s.routed).sum::<u64>(),
            24,
            "every request routed to exactly one pool"
        );
        assert_eq!(stats.queries_served, 24);
    }

    #[test]
    fn sharded_batch_splits_into_per_shard_sub_batches() {
        let snap = sharded_snapshot(3000, 4, 85);
        let service = Service::start_sharded(Arc::clone(&snap), ServiceConfig::with_workers(4));
        // Queries centered in every shard, interleaved, so the batch
        // fans out into one sub-batch per shard.
        let mut requests = Vec::new();
        for round in 0..3 {
            for mbr in snap.directory() {
                let c = mbr.center();
                let g = QueryGroup::sum(vec![
                    c,
                    Point::new(c.x + 0.3 + round as f64 * 0.1, c.y + 0.2),
                ])
                .unwrap();
                requests.push(QueryRequest::new(g, 2));
            }
        }
        // Reference: each request alone through the sequential merge.
        let planner = Planner::new();
        let mut scratch = QueryScratch::new();
        let cursors: Vec<_> = snap.shards().iter().map(|s| s.cursor()).collect();
        let reference: Vec<(Vec<Neighbor>, u64)> = requests
            .iter()
            .map(|r| {
                let (_, n, stats, _) =
                    r.execute_sharded_in(&planner, &snap, &cursors, &mut scratch);
                (n.to_vec(), stats.data_tree.logical)
            })
            .collect();
        let responses = service
            .submit(Submission::batch(requests.clone()))
            .unwrap()
            .wait_all()
            .unwrap();
        for (i, ((want, want_na), got)) in reference.iter().zip(&responses).enumerate() {
            assert_eq!(&got.neighbors, want, "query {i}");
            assert_eq!(got.stats.data_tree.logical, *want_na, "query {i}: NA");
        }
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 12);
        assert_eq!(stats.batch_queries, 12);
        assert_eq!(stats.batches, 4, "one sub-batch per shard");
        assert_eq!(stats.mean_batch_size(), Some(3.0));
        for s in &stats.per_shard {
            assert_eq!(s.routed, 3, "shard {}", s.shard);
        }
    }

    #[test]
    fn workers_distribute_across_pools_with_a_floor_of_one() {
        let snap = sharded_snapshot(500, 4, 71);
        // 6 workers over 4 shards: pools get 2,2,1,1.
        let service = Service::start_sharded(Arc::clone(&snap), ServiceConfig::with_workers(6));
        let stats = service.stats();
        assert_eq!(stats.per_worker.len(), 6);
        let mut per_pool = [0usize; 4];
        for w in &stats.per_worker {
            per_pool[w.shard] += 1;
        }
        assert_eq!(per_pool, [2, 2, 1, 1]);
        drop(service);
        // 2 workers over 4 shards: every pool still gets one.
        let service = Service::start_sharded(snap, ServiceConfig::with_workers(2));
        assert_eq!(service.stats().per_worker.len(), 4);
        drop(service);
    }

    #[test]
    fn router_honors_valid_shard_hints_only() {
        let snap = sharded_snapshot(1000, 3, 72);
        let service = Service::start_sharded(Arc::clone(&snap), ServiceConfig::with_workers(3));
        let group = random_group(3, 73);
        let natural = service.route(&QueryRequest::new(group.clone(), 1));
        let hinted = QueryRequest::new(group.clone(), 1).with_shard_hint(2);
        assert_eq!(service.route(&hinted), 2);
        let out_of_range = QueryRequest::new(group, 1).with_shard_hint(99);
        assert_eq!(service.route(&out_of_range), natural);
        // A hinted submission still returns the exact answer (the merge
        // consults whatever shards the bounds demand).
        let r = service.submit(hinted).unwrap().wait().unwrap();
        assert!(!r.neighbors.is_empty());
        let stats = service.shutdown();
        assert_eq!(stats.per_shard[2].routed, 1);
    }

    #[test]
    fn local_traffic_routes_to_distinct_pools() {
        // Queries centered in each shard's MBR must route to that shard
        // and (for tight groups) be answered by it alone.
        let snap = sharded_snapshot(4000, 4, 74);
        let service = Service::start_sharded(Arc::clone(&snap), ServiceConfig::with_workers(4));
        for (s, mbr) in snap.directory().iter().enumerate() {
            let c = mbr.center();
            let g = QueryGroup::sum(vec![c, Point::new(c.x + 0.2, c.y + 0.2)]).unwrap();
            let req = QueryRequest::new(g, 1);
            assert_eq!(service.route(&req), s, "shard {s}");
            let r = service.submit(req).unwrap().wait().unwrap();
            assert_eq!(r.routing.primary as usize, s);
        }
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 4);
        for s in &stats.per_shard {
            assert_eq!(s.routed, 1, "shard {}", s.shard);
        }
        assert!(stats.single_shard_hits >= 3, "{stats:?}");
    }

    #[test]
    fn publish_sharded_swaps_generations() {
        let first = sharded_snapshot(800, 2, 75);
        let second = sharded_snapshot(1200, 2, 76);
        let service = Service::start_sharded(Arc::clone(&first), ServiceConfig::with_workers(2));
        assert_eq!(service.generation(), 1);
        assert_eq!(service.publish_sharded(Arc::clone(&second)), 2);
        assert!(Arc::ptr_eq(&service.sharded_snapshot(), &second));
        let r = service
            .submit(QueryRequest::new(random_group(4, 77), 2))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.generation, 2);
        service.shutdown();
    }

    #[test]
    #[should_panic(expected = "keep the shard count")]
    fn publish_sharded_rejects_shard_count_changes() {
        let service =
            Service::start_sharded(sharded_snapshot(500, 2, 78), ServiceConfig::with_workers(2));
        service.publish_sharded(sharded_snapshot(500, 3, 79));
    }

    #[test]
    fn try_publish_fails_after_shutdown_initiated() {
        let snap = sharded_snapshot(500, 2, 80);
        let service = Service::start_sharded(Arc::clone(&snap), ServiceConfig::with_workers(2));
        assert_eq!(
            service.try_publish_sharded(Arc::clone(&snap)),
            Some(2),
            "publish before close must succeed"
        );
        service.initiate_shutdown();
        let generation = service.generation();
        assert_eq!(service.try_publish_sharded(Arc::clone(&snap)), None);
        assert_eq!(service.generation(), generation, "generation advanced");
        service.shutdown();
    }
}
