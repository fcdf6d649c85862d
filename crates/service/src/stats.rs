//! What the service counts: the per-worker counters a worker writes
//! lock-free, and the [`ServiceStats`] snapshot [`Service::stats`]
//! aggregates them into.
//!
//! [`Service::stats`]: crate::Service::stats

use crate::fault::FaultLedger;
use gnn_core::QueryResponse;
use gnn_telemetry::{
    FlightEventKind, FlightLog, FlightRecorder, LatencyHistogram, LatencySnapshot, RingSnapshot,
    StageHistograms, StageSnapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Saturating nanosecond count: the flight-recorder payload of a timing.
pub(crate) fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Shared per-worker counters (written lock-free by the worker, read by
/// [`collect`]).
#[derive(Debug)]
pub(crate) struct WorkerCounters {
    pub(crate) node_accesses: AtomicU64,
    pub(crate) dist_computations: AtomicU64,
    pub(crate) busy_nanos: AtomicU64,
    pub(crate) single_shard_hits: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) deadline_missed: AtomicU64,
    pub(crate) latency: LatencyHistogram,
    /// Queue wait / execution / reply stages of `latency`, plus shed waits.
    /// The execution and shed-wait counts are the served and shed counts.
    pub(crate) stages: StageHistograms,
    /// This worker's flight ring (the worker is its single producer).
    pub(crate) flight: FlightRecorder,
}

impl WorkerCounters {
    pub(crate) fn new(worker: usize, flight_capacity: usize, epoch: Instant) -> Self {
        WorkerCounters {
            node_accesses: AtomicU64::new(0),
            dist_computations: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            single_shard_hits: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            stages: StageHistograms::new(),
            flight: FlightRecorder::new(worker as u32, flight_capacity, epoch),
        }
    }

    /// Records one served query: cost counters, the end-to-end latency
    /// sample, and its queue-wait / execution stage samples (the reply
    /// stage is recorded separately, once the send returned).
    pub(crate) fn record(
        &self,
        served: &QueryResponse,
        queue_wait: Duration,
        execution: Duration,
        latency: Duration,
    ) {
        let stats = &served.stats;
        self.node_accesses
            .fetch_add(stats.data_tree.logical, Ordering::Relaxed);
        self.dist_computations
            .fetch_add(stats.dist_computations, Ordering::Relaxed);
        self.busy_nanos.fetch_add(
            u64::try_from(execution.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        if served.routing.consulted <= 1 {
            self.single_shard_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency);
        self.stages.queue_wait.record(queue_wait);
        self.stages.execution.record(execution);
    }

    /// Records a request shed at the dequeue stamp `at`: its shed-wait
    /// stage sample and flight-recorder event.
    pub(crate) fn record_shed(&self, at: Instant, waited: Duration) {
        self.stages.shed_wait.record(waited);
        self.flight
            .record_at(at, FlightEventKind::Shed, duration_nanos(waited));
    }

    fn snapshot(&self, worker: usize, stages: &StageSnapshot) -> WorkerSnapshot {
        WorkerSnapshot {
            worker,
            queries: stages.execution.count(),
            node_accesses: self.node_accesses.load(Ordering::Relaxed),
            dist_computations: self.dist_computations.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time counters of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker index (0-based).
    pub worker: usize,
    /// Queries served by this worker.
    pub queries: u64,
    /// Logical node accesses performed (the paper's NA metric; worker
    /// cursors are unbuffered, so every access is a page read too).
    pub node_accesses: u64,
    /// Distance evaluations (CPU proxy).
    pub dist_computations: u64,
    /// Total wall time spent executing queries (queue wait excluded).
    pub busy: Duration,
}

/// Aggregated service counters: per-worker snapshots, their totals, and
/// the merged latency histogram.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// The snapshot generation currently published (1 at start; each
    /// publish bumps it). A response carries the generation that served it
    /// in [`gnn_core::QueryResponse::generation`].
    pub generation: u64,
    /// Total queries served.
    pub queries_served: u64,
    /// Total logical node accesses — comparable 1:1 with a sequential run
    /// of the same workload on the same snapshot.
    pub node_accesses: u64,
    /// Total distance evaluations.
    pub dist_computations: u64,
    /// Served queries that needed only their primary shard.
    pub single_shard_hits: u64,
    /// Panics, shed requests, and missed deadlines across all workers.
    /// Panicked queries are **not** in `queries_served`.
    pub faults: FaultLedger,
    /// Per-worker breakdown (length = `ServiceConfig::workers`).
    pub per_worker: Vec<WorkerSnapshot>,
    /// Merged response-latency histogram. Samples measure **submit →
    /// response** — queueing plus execution — so an overloaded service
    /// shows its backlog in the tail (the open-loop contract).
    pub latency: LatencySnapshot,
    /// Queue-wait, execution, and reply histograms of the served traffic
    /// (each counts `queries_served`), plus the shed-wait histogram of
    /// requests shed at dequeue (it counts `faults.shed`).
    pub stages: StageSnapshot,
    /// Merged flight-recorder timeline: every worker's ring plus the
    /// control (publishes) and refresh-driver rings, sorted by timestamp,
    /// with the count of events dropped to ring overflow.
    pub flight: FlightLog,
    /// The SIMD dispatch level the distance kernels ran at: `"avx2+fma"`
    /// or `"scalar"` ([`gnn_geom::SimdLevel::label`]) — so
    /// reported metrics name the ISA they were measured on.
    pub simd_level: &'static str,
}

impl ServiceStats {
    /// Fraction of served queries answered by a single shard (1.0 for an
    /// unsharded service; `None` before any query completed).
    pub fn single_shard_fraction(&self) -> Option<f64> {
        (self.queries_served > 0)
            .then(|| self.single_shard_hits as f64 / self.queries_served as f64)
    }
}

/// Aggregates every worker's counters plus the non-worker flight `rings`
/// (control, driver) into one [`ServiceStats`].
pub(crate) fn collect(
    generation: u64,
    workers: &[Arc<WorkerCounters>],
    mut rings: Vec<RingSnapshot>,
) -> ServiceStats {
    let mut stats = ServiceStats {
        generation,
        queries_served: 0,
        node_accesses: 0,
        dist_computations: 0,
        single_shard_hits: 0,
        faults: FaultLedger::default(),
        per_worker: Vec::with_capacity(workers.len()),
        latency: LatencySnapshot::empty(),
        stages: StageSnapshot::empty(),
        flight: FlightLog::empty(),
        simd_level: gnn_geom::simd::dispatch_level().label(),
    };
    for (id, c) in workers.iter().enumerate() {
        let stages = c.stages.snapshot();
        let worker = c.snapshot(id, &stages);
        stats.node_accesses += worker.node_accesses;
        stats.dist_computations += worker.dist_computations;
        stats.per_worker.push(worker);
        stats.single_shard_hits += c.single_shard_hits.load(Ordering::Relaxed);
        stats.faults.panics += c.panics.load(Ordering::Relaxed);
        stats.faults.deadline_missed += c.deadline_missed.load(Ordering::Relaxed);
        stats.latency.merge(&c.latency.snapshot());
        stats.stages.merge(&stages);
        rings.push(c.flight.snapshot());
    }
    stats.queries_served = stats.stages.execution.count();
    stats.faults.shed = stats.stages.shed_wait.count();
    stats.flight = FlightLog::merge(rings);
    stats
}
