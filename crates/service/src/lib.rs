//! # gnn-service — multi-threaded GNN query serving over sharded snapshots
//!
//! The paper's algorithms answer one query at a time; the north star is a
//! system that serves sustained multi-user traffic. This crate turns a
//! frozen snapshot — one [`PackedRTree`] or a spatially partitioned
//! [`ShardedSnapshot`] — into an embeddable query-serving engine:
//!
//! * the snapshot is **immutable and shared** (`Arc`) and lives in a
//!   **hot-swap slot**: [`Service::publish`] / [`Service::publish_sharded`]
//!   atomically install a new snapshot (typically a cheap per-shard
//!   [`gnn_rtree::ShardedTree::refreeze_all`], with any shard count) while
//!   queries keep flowing — workers pick the new generation up between
//!   queries, in-flight queries finish on the snapshot they started on,
//!   and nobody ever blocks on the swap;
//! * requests go through **one bounded queue** to a fixed set of
//!   `config.workers` threads. Shards are a layout of the snapshot, not
//!   of the threads: every worker answers any query on every shard;
//! * every worker owns its per-shard cursors, scratch and
//!   [`gnn_core::Planner`], so the zero-allocation hot path of the packed
//!   engine holds **per core** — no shared mutable state is touched while
//!   a query runs. A query whose
//!   bound admits several shards is answered *exactly* by the worker itself
//!   through the cross-shard best-first merge ([`gnn_core::sharded`]); the
//!   response's routing tag records the primary shard and how many shards
//!   were consulted;
//! * per-worker counters and fixed-bucket latency histograms aggregate on
//!   demand into a [`ServiceStats`] snapshot, so the paper's node-access
//!   cost metric survives concurrency exactly. Each fact is recorded once:
//!   the served and shed counts are the stage histograms' counts;
//! * the service closes only through [`Service::shutdown`] or `Drop`, both
//!   by value, so no submission or publish can race a close; a service
//!   shared with a [`RefreshDriver`] closes when its last owner lets go.
//!
//! Determinism is the correctness anchor: a query's node accesses and
//! results depend only on the snapshot and the request (per-worker cursors
//! are unbuffered, so no cross-query cache state exists), so the same
//! workload submitted through the service and run sequentially produces
//! identical ids, distances, and total node accesses — on any worker
//! count, in any completion order, sharded or not (pinned by the workspace
//! `service_determinism` and `sharded_equivalence` tests). Under live
//! updates the anchor holds **per generation**: every response is tagged
//! with the generation of the snapshot that served it (`hot_swap`,
//! `refresh_driver`), and generations never go backwards in dequeue
//! order: a job dequeued later is never served on an older generation
//! than one dequeued earlier.
//!
//! For continuous refresh, [`RefreshDriver`] runs the full mutate →
//! per-shard refreeze → publish lifecycle on a background thread driven by
//! a dirty-fraction policy; see its docs.
//!
//! Submission goes through **one entry point**, [`Service::submit`], which
//! accepts anything convertible into a [`Submission`]: one prepared
//! [`QueryRequest`](gnn_core::QueryRequest) — the group `Q`, its aggregate
//! and `k`, the whole query of paper §2. A submission is one job on the
//! queue, and its [`ResponseHandle`] yields one reply.
//!
//! ```
//! use gnn_core::{QueryGroup, QueryRequest};
//! use gnn_geom::{Point, PointId};
//! use gnn_rtree::{LeafEntry, RTree, RTreeParams};
//! use gnn_service::{Service, ServiceConfig, Submission, SubmitError};
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
//! // Open-loop callers submit without blocking and count a full queue as
//! // a drop.
//! let group = QueryGroup::sum(vec![Point::new(40.0, 0.0)]).unwrap();
//! let submission = Submission::request(QueryRequest::new(group, 2)).blocking(false);
//! match service.submit(submission) {
//!     Ok(handle) => assert_eq!(handle.wait().unwrap().neighbors.len(), 2),
//!     Err(SubmitError::QueueFull) => {} // dropped
//!     Err(e) => panic!("{e}"),
//! }
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.faults.panics, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod handle;
mod refresh;
mod stats;
mod submission;
mod worker;

pub use fault::{silence_injected_panics, FaultLedger, FaultPlan};
pub use handle::ResponseHandle;
pub use refresh::{
    DriverError, PublishRecord, RefreshDriver, RefreshOutcome, RefreshPolicy, RefreshStats, Update,
};
pub use stats::{ServiceStats, WorkerSnapshot};
pub use submission::{QueryError, Submission, SubmitError};
// The telemetry types `ServiceStats` embeds, re-exported so callers need
// not depend on `gnn-telemetry` themselves.
pub use gnn_telemetry::{
    FlightEvent, FlightEventKind, FlightLog, FlightRecorder, LatencyHistogram, LatencySnapshot,
    RingSnapshot, StageSnapshot, BUCKETS, SOURCE_CONTROL, SOURCE_DRIVER,
};

use gnn_core::NetworkBackend;
use gnn_rtree::{PackedRTree, ShardedSnapshot};
use stats::WorkerCounters;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use worker::{Job, Lease, WorkerCtx};

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (≥ 1), all serving the one queue. Every worker
    /// answers queries on every shard, so a sharded service spawns exactly
    /// this many threads too.
    pub workers: usize,
    /// Bounded request-queue depth (≥ 1): once this many jobs are pending
    /// a blocking [`Service::submit`] waits and a non-blocking one fails
    /// with [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Deterministic fault injection for tests and resilience benchmarks
    /// (see [`FaultPlan`]). The default injects nothing.
    pub fault_plan: FaultPlan,
    /// Flight-recorder ring capacity **per worker** (plus one control ring
    /// for publish events and one for the refresh driver), 24 bytes per
    /// retained event. `0` disables the flight recorder (recording reduces
    /// to one branch); the stage and latency histograms stay on regardless.
    pub flight_recorder: usize,
}

impl Default for ServiceConfig {
    /// One worker per available core, queue depth 1024, no faults, a
    /// 256-event flight ring per worker.
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            queue_depth: 1024,
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

/// Locks a mutex, recovering from poisoning: every structure guarded here
/// (the snapshot slot, the dequeue end, the driver's counters) stays sound
/// under a panic — none can be left mid-mutation. One policy, one place.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The hot-swap publication slot: the current sharded snapshot plus its
/// generation — a hand-rolled `ArcSwap`. Publishers replace the `Arc` under
/// a mutex and bump the generation; a worker reads the generation with one
/// atomic load at each dequeue (a query never locks the slot) and reloads
/// the `Arc` only when it changed. Readers of an old generation keep their
/// `Arc` alive, so old snapshots are freed exactly when the last worker
/// moves off them.
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

/// What a service serves on: the hot-swap slot of a Euclidean service, or
/// the fixed backend of a network one. A network backend has no snapshot to
/// swap and stays at generation 1 for good.
pub(crate) enum Backend {
    Euclidean(SnapshotSlot),
    Network(Arc<dyn NetworkBackend>),
}

impl Backend {
    fn generation(&self) -> u64 {
        match self {
            Backend::Euclidean(slot) => slot.generation(),
            Backend::Network(_) => 1,
        }
    }

    /// What a worker serves on until the generation moves.
    fn load(&self) -> (Lease, u64) {
        match self {
            Backend::Euclidean(slot) => {
                let (snapshot, generation) = slot.load();
                (Lease::Euclidean(snapshot), generation)
            }
            Backend::Network(backend) => (Lease::Network(Arc::clone(backend)), 1),
        }
    }

    /// The snapshot slot of a Euclidean service; panics on a network one,
    /// which has no Euclidean snapshot to read, publish or refresh.
    fn slot(&self) -> &SnapshotSlot {
        match self {
            Backend::Euclidean(slot) => slot,
            Backend::Network(_) => panic!("a network service has no Euclidean snapshot"),
        }
    }
}

/// The serving engine: a hot-swappable sharded snapshot slot, one bounded
/// queue and one worker pool. See the crate docs for the design.
///
/// Only [`Service::shutdown`] and `Drop` close the queue, and both take the
/// service by value: no `submit` or publish can race a close.
pub struct Service {
    /// The queue's sending end; `None` only inside the close.
    sender: Option<SyncSender<Job>>,
    backend: Arc<Backend>,
    workers: Vec<JoinHandle<()>>,
    counters: Vec<Arc<WorkerCounters>>,
    config: ServiceConfig,
    /// Control-plane flight ring: [`FlightEventKind::Published`] events
    /// from the publish entry points (payload = new generation).
    control: FlightRecorder,
    /// Refresh-driver flight ring (`RefreezeStart` / `RefreezeEnd`): the
    /// driver thread is its single producer, [`SOURCE_DRIVER`] in the
    /// merged timeline.
    driver_flight: FlightRecorder,
}

impl Service {
    /// Spins up an **unsharded** service: `config.workers` workers over
    /// one snapshot (wrapped, not rebuilt, as a single-shard
    /// [`ShardedSnapshot`]: node accesses are those of the snapshot itself).
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` or `config.queue_depth` is zero.
    pub fn start(snapshot: Arc<PackedRTree>, config: ServiceConfig) -> Service {
        Self::start_sharded(Arc::new(ShardedSnapshot::single(snapshot)), config)
    }

    /// Spins up a **sharded** service: one bounded queue and
    /// `config.workers` workers, each answering every query through the
    /// cross-shard merge over its own per-shard cursors.
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` or `config.queue_depth` is zero.
    pub fn start_sharded(snapshot: Arc<ShardedSnapshot>, config: ServiceConfig) -> Service {
        Self::start_on(Backend::Euclidean(SnapshotSlot::new(snapshot)), config)
    }

    /// Spins up a **network-distance** service: `config.workers` workers
    /// serving GNN queries on a road-network
    /// backend (typically an `Arc` of a `gnn_network::NetworkSnapshot`).
    /// Every request executes on
    /// [`gnn_core::Target::Network`], through the same submission surface,
    /// supervision, shedding and telemetry as a Euclidean service; each
    /// worker keeps the backend's reusable state inside its own scratch,
    /// warmed at spawn via [`NetworkBackend::warm`]. Results are
    /// bit-identical to a sequential run against the same backend.
    ///
    /// There is no Euclidean snapshot behind a network service: it stays at
    /// generation 1, and `publish*`, `snapshot*` and the [`RefreshDriver`]
    /// refuse it with a panic.
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` or `config.queue_depth` is zero.
    pub fn start_network(backend: Arc<dyn NetworkBackend>, config: ServiceConfig) -> Service {
        Self::start_on(Backend::Network(backend), config)
    }

    fn start_on(backend: Backend, config: ServiceConfig) -> Service {
        assert!(config.workers > 0, "service needs at least one worker");
        assert!(config.queue_depth > 0, "queue depth must be positive");
        let backend = Arc::new(backend);
        // One epoch for every flight ring: merged timelines compare
        // timestamps from different workers directly.
        let epoch = Instant::now();
        let (tx, rx) = sync_channel::<Job>(config.queue_depth);
        // std's Receiver is single-consumer: the workers share it locked.
        let rx = Arc::new(Mutex::new(rx));
        let counters: Vec<_> = (0..config.workers)
            .map(|id| Arc::new(WorkerCounters::new(id, config.flight_recorder, epoch)))
            .collect();
        let workers = counters
            .iter()
            .enumerate()
            .map(|(id, counter)| {
                let ctx = WorkerCtx::new(id, &backend, &rx, &config, Arc::clone(counter));
                std::thread::Builder::new()
                    .name(format!("gnn-worker-{id}"))
                    .spawn(move || ctx.run())
                    .expect("spawn worker thread")
            })
            .collect();
        let control = FlightRecorder::new(SOURCE_CONTROL, config.flight_recorder, epoch);
        let driver_flight = FlightRecorder::new(SOURCE_DRIVER, config.flight_recorder, epoch);
        Service {
            sender: Some(tx),
            backend,
            workers,
            counters,
            config,
            control,
            driver_flight,
        }
    }

    /// Atomically publishes a new single-shard snapshot and returns its
    /// generation.
    ///
    /// Workers pick the new snapshot up **between** queries: an in-flight
    /// query finishes on the snapshot it started on, no worker ever blocks
    /// on the swap, and any request dequeued after `publish` returns is
    /// served on the new generation. Pairs with
    /// [`gnn_rtree::RTree::refreeze`] for cheap refreshes.
    ///
    /// # Panics
    ///
    /// Panics on a network service.
    pub fn publish(&self, snapshot: Arc<PackedRTree>) -> u64 {
        self.publish_sharded(Arc::new(ShardedSnapshot::single(snapshot)))
    }

    /// Atomically publishes a new sharded snapshot (same swap semantics as
    /// [`Service::publish`]) and returns its generation. An incremental
    /// refresh ([`gnn_rtree::ShardedTree::refreeze_all`]) shares the `Arc`
    /// of every untouched shard with the previous generation, so the swap
    /// costs memory only for the shards that changed. The shard count may
    /// change: workers rebuild their cursors for every generation.
    ///
    /// # Panics
    ///
    /// Panics on a network service.
    pub fn publish_sharded(&self, snapshot: Arc<ShardedSnapshot>) -> u64 {
        let generation = self.backend.slot().publish(snapshot);
        self.control.record(FlightEventKind::Published, generation);
        generation
    }

    /// Generation of the currently published snapshot (starts at 1, and
    /// stays there on a network service).
    pub fn generation(&self) -> u64 {
        self.backend.generation()
    }

    /// The currently published snapshot when it has a single shard.
    ///
    /// # Panics
    ///
    /// Panics when it has several — use [`Service::sharded_snapshot`] —
    /// and on a network service.
    pub fn snapshot(&self) -> Arc<PackedRTree> {
        let snapshot = self.sharded_snapshot();
        assert_eq!(
            snapshot.shard_count(),
            1,
            "snapshot() is the single-shard entry; use sharded_snapshot()"
        );
        Arc::clone(snapshot.shard(0))
    }

    /// The currently published sharded snapshot.
    ///
    /// # Panics
    ///
    /// Panics on a network service.
    pub fn sharded_snapshot(&self) -> Arc<ShardedSnapshot> {
        self.backend.slot().load().0
    }

    /// The network backend this service executes on, when started through
    /// [`Service::start_network`] (`None` for Euclidean services).
    pub fn network_backend(&self) -> Option<&Arc<dyn NetworkBackend>> {
        match &*self.backend {
            Backend::Euclidean(_) => None,
            Backend::Network(backend) => Some(backend),
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The one submission entry point: accepts anything convertible into a
    /// [`Submission`] — a plain [`gnn_core::QueryRequest`] converts —
    /// enqueues one job, and returns one [`ResponseHandle`] (redeem it
    /// with [`ResponseHandle::wait`]) or one [`SubmitError`].
    /// Blocking submissions (the default) wait out backpressure;
    /// `.blocking(false)` fails fast with [`SubmitError::QueueFull`].
    ///
    /// Per-query failures — a worker panic, a deadline shed — are **not**
    /// submission errors: they come back through the handle as typed
    /// [`QueryError`] outcomes.
    pub fn submit(&self, submission: impl Into<Submission>) -> Result<ResponseHandle, SubmitError> {
        let Submission { request, blocking } = submission.into();
        let (reply, rx) = mpsc::channel();
        let job = Job::new(request, reply, Instant::now());
        let sender = self
            .sender
            .as_ref()
            .expect("only a close by value takes the sender");
        // A send fails only when the receiver is gone, that is, when every
        // worker thread is.
        if blocking {
            sender.send(job).map_err(|_| SubmitError::WorkerDied)?;
        } else {
            sender.try_send(job).map_err(|e| match e {
                TrySendError::Full(_) => SubmitError::QueueFull,
                TrySendError::Disconnected(_) => SubmitError::WorkerDied,
            })?;
        }
        Ok(ResponseHandle::new(rx))
    }

    /// Aggregated counters so far (atomic loads plus a copy of every
    /// flight ring — safe to poll while traffic runs). The flight timeline
    /// is a point-in-time merge: each ring's copy holds that ring's lock
    /// for at most `flight_recorder` events, and a worker recording at that
    /// moment waits it out.
    pub fn stats(&self) -> ServiceStats {
        let rings = vec![self.control.snapshot(), self.driver_flight.snapshot()];
        stats::collect(self.generation(), &self.counters, rings)
    }

    /// Graceful shutdown: closes the queue, lets the workers drain every
    /// queued request (their responses stay redeemable), joins them, and
    /// returns the final counters. Dropping the service does the same and
    /// discards the counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        // Every worker's `recv` fails once the queue is drained.
        self.sender.take();
        for handle in self.workers.drain(..) {
            // A worker answers a panicked request itself, so no handle
            // hangs; joining must not poison shutdown regardless.
            let _ = handle.join();
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
        f.debug_struct("Service")
            .field("workers", &self.config.workers)
            .field("queue_depth", &self.config.queue_depth)
            .field("generation", &self.generation())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_core::{
        Algo, Mbm, MemoryGnnAlgorithm, Planner, QueryGroup, QueryRequest, QueryScratch,
        ShardRouting, Target,
    };
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{LeafEntry, RTree, RTreeParams, TreeCursor};
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
    fn requests_in_flight_together_are_each_answered_and_counted() {
        let snap = snapshot(600, 3);
        let service = Service::start(snap, ServiceConfig::with_workers(4));
        let requests: Vec<QueryRequest> = (0..24)
            .map(|i| QueryRequest::new(random_group(4, 100 + i), 1 + (i as usize % 3)))
            .collect();
        let handles: Vec<ResponseHandle> = requests
            .iter()
            .map(|r| service.submit(r.clone()).unwrap())
            .collect();
        for (req, handle) in requests.iter().zip(handles) {
            assert_eq!(handle.wait().unwrap().neighbors.len(), req.k);
        }
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 24);
        assert_eq!(stats.latency.count(), 24);
        assert!(stats.node_accesses > 0);
        assert_eq!(stats.per_worker.len(), 4);
        let sum: u64 = stats.per_worker.iter().map(|w| w.queries).sum();
        assert_eq!(sum, 24);
        assert_eq!(stats.single_shard_fraction(), Some(1.0));
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
        let handles: Vec<ResponseHandle> = (0..32)
            .map(|i| {
                let request = QueryRequest::new(random_group(4, i), 2);
                service.submit(request).unwrap()
            })
            .collect();
        // Shut down immediately: every already-queued request must still be
        // answered.
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 32);
        for handle in handles {
            assert_eq!(handle.wait().unwrap().neighbors.len(), 2);
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

    fn sharded_target<'a, 't>(
        snapshot: &'a ShardedSnapshot,
        cursors: &'a [TreeCursor<'t>],
    ) -> Target<'a, 't> {
        Target::Sharded { snapshot, cursors }
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
                request.execute_on(&planner, &sharded_target(&snap, &cursors), &mut scratch);
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
        assert_eq!(stats.queries_served, 24);
    }

    #[test]
    fn a_sharded_service_spawns_exactly_the_configured_workers() {
        let snap = sharded_snapshot(500, 4, 71);
        for workers in [1, 2, 6] {
            let service =
                Service::start_sharded(Arc::clone(&snap), ServiceConfig::with_workers(workers));
            assert_eq!(service.stats().per_worker.len(), workers);
        }
    }

    #[test]
    fn local_traffic_is_answered_by_its_own_shard() {
        // Tight groups centered in each shard's MBR lead with that shard
        // and are answered by it alone.
        let snap = sharded_snapshot(4000, 4, 74);
        let service = Service::start_sharded(Arc::clone(&snap), ServiceConfig::with_workers(4));
        for (s, mbr) in snap.directory().iter().enumerate() {
            let c = mbr.center();
            let g = QueryGroup::sum(vec![c, Point::new(c.x + 0.2, c.y + 0.2)]).unwrap();
            let r = service
                .submit(QueryRequest::new(g, 1))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(r.routing.primary as usize, s);
        }
        let r = service
            .submit(QueryRequest::new(random_group(3, 73), 1))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!r.neighbors.is_empty());
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, 5);
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
    fn publishing_a_new_shard_count_serves_the_new_generation_exactly() {
        let service =
            Service::start_sharded(sharded_snapshot(800, 2, 78), ServiceConfig::with_workers(3));
        let next = sharded_snapshot(1500, 3, 79);
        assert_eq!(service.publish_sharded(Arc::clone(&next)), 2);
        let planner = Planner::new();
        let mut scratch = QueryScratch::new();
        let cursors: Vec<_> = next.shards().iter().map(|s| s.cursor()).collect();
        let requests: Vec<_> = (0..16u64)
            .map(|i| QueryRequest::new(random_group(4, 400 + i), 3))
            .collect();
        let handles: Vec<_> = requests
            .iter()
            .map(|r| service.submit(r.clone()).unwrap())
            .collect();
        for (i, (request, handle)) in requests.iter().zip(handles).enumerate() {
            let (choice, want, stats, routing) =
                request.execute_on(&planner, &sharded_target(&next, &cursors), &mut scratch);
            let r = handle.wait().unwrap();
            assert_eq!(r.generation, 2, "query {i}");
            assert_eq!(r.choice, choice, "query {i}");
            assert_eq!(r.neighbors, want, "query {i}");
            assert_eq!(r.stats, stats, "query {i}");
            assert_eq!(r.routing, routing, "query {i}");
        }
        service.shutdown();
    }
}
