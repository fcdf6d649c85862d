//! The worker: one step, `next_job → admit → execute → reply`.
//!
//! A job is one request: [`WorkerCtx::admit`] stamps the dequeue and sheds
//! it if it already expired, [`WorkerCtx::execute`] runs it through
//! [`QueryRequest::execute_on`] under an unwind guard, and
//! [`WorkerCtx::reply`] records and sends.
//!
//! **Generations:** the worker reads the generation while it still holds
//! the dequeue lock, and when it moved it loads the new lease under that
//! same lock. So a job dequeued later is never served on an older
//! generation than a job dequeued earlier, whichever worker takes it.
//!
//! **Clock:** each stage boundary reads the clock once — `dequeued`,
//! `executed`, `replied` — and the flight events, queue wait, deadline
//! check, trace, histograms and `busy` are all computed from those stamps.
//!
//! **Supervision:** a query that panics — injected by the [`FaultPlan`] or
//! real — is replied [`QueryError::WorkerPanicked`] after
//! [`WorkerCtx::respawn`] rebuilt everything the panic may have left
//! mid-mutation (scratch, cursors; the snapshot is immutable); the worker
//! then serves its next job on the same thread. Pool capacity is invariant
//! under panics and no `wait()` ever hangs on one.

use crate::fault::FaultPlan;
use crate::stats::{duration_nanos, WorkerCounters};
use crate::submission::QueryError;
use crate::{lock_unpoisoned, Backend, ServiceConfig};
use gnn_core::{
    NetworkBackend, Planner, QueryGroup, QueryRequest, QueryResponse, QueryScratch, QueryTrace,
    Target,
};
use gnn_rtree::{ShardedSnapshot, TreeCursor};
use gnn_telemetry::FlightEventKind as Event;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What travels back on a reply channel.
pub(crate) type Outcome = Result<QueryResponse, QueryError>;

/// A queued request plus its reply channel: one queue slot.
pub(crate) struct Job {
    request: QueryRequest,
    reply: Sender<Outcome>,
    /// When the job entered the queue: response latency is measured from
    /// here, so queueing is visible in it (the open-loop contract).
    submitted: Instant,
}

impl Job {
    pub(crate) fn new(request: QueryRequest, reply: Sender<Outcome>, submitted: Instant) -> Job {
        Job {
            request,
            reply,
            submitted,
        }
    }
}

/// What [`Backend::load`] hands a worker to serve on until the generation
/// moves.
pub(crate) enum Lease {
    Euclidean(Arc<ShardedSnapshot>),
    Network(Arc<dyn NetworkBackend>),
}

/// One generation's serving state: the lease, one cursor per shard (none on
/// a network backend) and the generation tag. The cursors borrow the lease,
/// which is why this lives beside [`WorkerCtx`], not in it.
struct Serving<'s> {
    lease: &'s Lease,
    cursors: Vec<TreeCursor<'s>>,
    generation: u64,
}

impl<'s> Serving<'s> {
    fn new(lease: &'s Lease, generation: u64) -> Self {
        let mut serving = Serving {
            lease,
            cursors: Vec::new(),
            generation,
        };
        serving.rebuild_cursors();
        serving
    }

    fn rebuild_cursors(&mut self) {
        if let Lease::Euclidean(snapshot) = self.lease {
            self.cursors = snapshot.shards().iter().map(|s| s.cursor()).collect();
        }
    }

    /// Where every query executes. A single-shard snapshot takes the exact
    /// single-tree route inside `execute_on`.
    fn target(&self) -> Target<'_, 's> {
        match self.lease {
            Lease::Euclidean(snapshot) => Target::Sharded {
                snapshot,
                cursors: &self.cursors,
            },
            Lease::Network(backend) => Target::Network(&**backend),
        }
    }
}

/// What [`WorkerCtx::next_job`] hands the worker.
enum Dequeued {
    /// A job to serve on the worker's current generation.
    Current(Job),
    /// A job dequeued after a publish, with the lease and generation
    /// loaded under the same dequeue lock: the job is served on them.
    Moved(Job, Lease, u64),
}

/// A query that executed: its response and the `executed` stamp.
type Served = (QueryResponse, Instant);

/// One worker thread's state: what it was spawned with, plus the scratch
/// (reused for the thread's lifetime: steady-state queries allocate only
/// their response vectors) and the attempt counter.
pub(crate) struct WorkerCtx {
    id: usize,
    backend: Arc<Backend>,
    rx: Arc<Mutex<Receiver<Job>>>,
    planner: Planner,
    counters: Arc<WorkerCounters>,
    fault: FaultPlan,
    scratch: QueryScratch,
    /// Execution attempts by this worker, 1-based: the fault plan's query
    /// coordinate. Counts every execution start, including ones that panic.
    attempts: u64,
}

impl WorkerCtx {
    pub(crate) fn new(
        id: usize,
        backend: &Arc<Backend>,
        rx: &Arc<Mutex<Receiver<Job>>>,
        config: &ServiceConfig,
        counters: Arc<WorkerCounters>,
    ) -> WorkerCtx {
        WorkerCtx {
            id,
            backend: Arc::clone(backend),
            rx: Arc::clone(rx),
            planner: Planner::new(),
            counters,
            fault: config.fault_plan.clone(),
            scratch: QueryScratch::new(),
            attempts: 0,
        }
    }

    /// The thread body: serve on one generation until a job is dequeued
    /// after a publish, serve that job on the lease loaded with it, repeat;
    /// return at shutdown.
    pub(crate) fn run(mut self) {
        let (mut lease, mut generation) = self.backend.load();
        self.warm(&lease);
        let mut carried = None;
        loop {
            let mut serving = Serving::new(&lease, generation);
            if let Some(job) = carried.take() {
                self.serve(&mut serving, &job);
            }
            loop {
                match self.next_job(generation) {
                    Some(Dequeued::Current(job)) => self.serve(&mut serving, &job),
                    Some(Dequeued::Moved(job, next, at)) => {
                        drop(serving);
                        (lease, generation, carried) = (next, at, Some(job));
                        break;
                    }
                    None => return, // sender dropped and queue drained: shutdown
                }
            }
        }
    }

    /// Self-warm before serving: one canned query (or the backend's own
    /// warm-up) sizes the scratch, so a worker's first real request does
    /// not pay the cold-start allocations inside a caller's latency. Only
    /// the worker can do this — a shared queue gives no per-worker routing.
    /// Uncounted (it is not traffic; its cursors are thrown away), and
    /// once: the scratch survives swaps.
    fn warm(&mut self, lease: &Lease) {
        match lease {
            Lease::Network(backend) => backend.warm(&mut self.scratch),
            Lease::Euclidean(snapshot) if !snapshot.is_empty() => {
                if let Ok(group) = QueryGroup::sum(vec![snapshot.root_mbr().center()]) {
                    let serving = Serving::new(lease, 0);
                    let warm = QueryRequest::new(group, 1);
                    let _ = warm.execute_on(&self.planner, &serving.target(), &mut self.scratch);
                }
            }
            Lease::Euclidean(_) => {}
        }
    }

    /// Dequeue + generation hand-off: the next job, to serve on
    /// `generation` or on the lease loaded with it when a newer generation
    /// was published; `None` at shutdown. The swap check costs one atomic
    /// load and both it and the reload run under the dequeue lock, so no
    /// later-dequeued job, on any worker, reads an older generation, and
    /// once `publish` returns no later-dequeued job sees the old snapshot.
    fn next_job(&self, generation: u64) -> Option<Dequeued> {
        let rx = lock_unpoisoned(&self.rx);
        let job = rx.recv().ok()?;
        if self.backend.generation() == generation {
            return Some(Dequeued::Current(job));
        }
        let (lease, generation) = self.backend.load();
        Some(Dequeued::Moved(job, lease, generation))
    }

    /// The step: admit, then execute and reply. After a panic the worker
    /// rebuilds its state ([`WorkerCtx::respawn`]) before the reply is sent.
    fn serve(&mut self, serving: &mut Serving<'_>, job: &Job) {
        let dequeued = Instant::now();
        let Some(queue_wait) = self.admit(job, dequeued) else {
            return;
        };
        let outcome = self.execute(serving, &job.request, dequeued, queue_wait);
        if outcome.is_none() {
            self.respawn(serving);
        }
        let outcome = outcome.ok_or(QueryError::WorkerPanicked);
        self.reply(job, dequeued, queue_wait, outcome);
    }

    /// The dequeue stamp: logs the queue wait and sheds the job — typed,
    /// before anything executes — when its deadline had expired **at that
    /// stamp** (below or equal to the wait). Returns the queue wait of an
    /// admitted job, the same one the shed decision used.
    fn admit(&self, job: &Job, dequeued: Instant) -> Option<Duration> {
        let queue_wait = dequeued.saturating_duration_since(job.submitted);
        // `Enqueued` is back-stamped with the submit instant so the merged
        // timeline shows the wait, while the ring stays single-producer.
        let flight = &self.counters.flight;
        flight.record_at(job.submitted, Event::Enqueued, 1);
        flight.record_at(dequeued, Event::Dequeued, duration_nanos(queue_wait));
        if job.request.deadline.is_some_and(|d| queue_wait >= d) {
            self.counters.record_shed(dequeued, queue_wait);
            let outcome = Err(QueryError::DeadlineExceeded);
            self.reply(job, dequeued, queue_wait, outcome);
            return None;
        }
        Some(queue_wait)
    }

    /// One query under its unwind guard: fault hook → `execute_on` →
    /// response; `None` when it panicked. The fault hook runs before the
    /// algorithm, so a non-faulted query's execution is untouched.
    fn execute(
        &mut self,
        serving: &Serving<'_>,
        request: &QueryRequest,
        started: Instant,
        queue_wait: Duration,
    ) -> Option<Served> {
        self.attempts += 1;
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            inject_fault(&self.fault, self.id, self.attempts);
            let (choice, neighbors, stats, routing) =
                request.execute_on(&self.planner, &serving.target(), &mut self.scratch);
            let neighbors = neighbors.to_vec();
            let executed = Instant::now();
            let response = QueryResponse {
                choice,
                neighbors,
                stats,
                generation: serving.generation,
                routing,
                // Opt-in, `Copy`, filled inline: nothing allocates and
                // nothing about execution depended on the flag.
                trace: request.trace.then(|| QueryTrace {
                    queue_wait,
                    execution: executed - started,
                }),
            };
            (response, executed)
        }))
        .ok()
    }

    /// Respawn in place after a panic, **before** the victim's reply is
    /// released: nothing the panic may have left mid-mutation survives.
    /// `Panicked` is recorded once the rebuild is done, so the caller cannot
    /// enqueue follow-up work (whose `Enqueued` event back-stamps to submit
    /// time) until it is on the ring — the flight timeline stays a strict
    /// per-query transcript.
    fn respawn(&mut self, serving: &mut Serving<'_>) {
        self.scratch = QueryScratch::new();
        serving.rebuild_cursors();
        let counters = &self.counters;
        counters.panics.fetch_add(1, Ordering::Relaxed);
        counters.flight.record(Event::Panicked, self.attempts);
    }

    /// Records a served query and sends the job's outcome (the one send
    /// site: served, shed or panicked). `busy` counts execution only; the
    /// latency histogram measures submit → `executed`, so queue wait under
    /// overload is visible; the reply stage runs `executed` → `replied`.
    fn reply(
        &self,
        job: &Job,
        started: Instant,
        queue_wait: Duration,
        outcome: Result<Served, QueryError>,
    ) {
        let counters = &self.counters;
        let (outcome, executed) = match outcome {
            Ok((response, executed)) => {
                let execution = executed - started;
                let latency = executed.saturating_duration_since(job.submitted);
                let payload = duration_nanos(execution);
                counters.flight.record_at(executed, Event::ExecEnd, payload);
                counters.record(&response, queue_wait, execution, latency);
                if job.request.deadline.is_some_and(|d| latency > d) {
                    counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
                }
                (Ok(response), Some(executed))
            }
            Err(error) => (Err(error), None),
        };
        // The caller may have dropped its handle; that is not an error.
        let _ = job.reply.send(outcome);
        if let Some(executed) = executed {
            counters.stages.reply.record(Instant::now() - executed);
        }
    }
}

/// Applies the fault plan at the execution point of a worker's `nth`
/// attempt (1-based): the injected panic, else the injected latency.
fn inject_fault(fault: &FaultPlan, worker: usize, nth: u64) {
    if fault.is_empty() {
        return;
    }
    // A panicking query crashes *instead of* executing: no latency (it
    // models execution cost, which a crashed query never completes).
    if fault.should_panic(worker, nth) {
        panic!("injected fault: worker {worker} query {nth}");
    }
    if let Some(latency) = fault.injected_latency() {
        std::thread::sleep(latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SnapshotSlot;
    use gnn_core::{Mbm, MemoryGnnAlgorithm};
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{LeafEntry, RTree, RTreeParams};
    use std::sync::mpsc::{channel, sync_channel, SyncSender};

    /// A worker context over a 20 x 20 lattice that no thread runs: the
    /// tests call its steps themselves.
    struct Rig {
        ctx: WorkerCtx,
        backend: Arc<Backend>,
        counters: Arc<WorkerCounters>,
        queue: SyncSender<Job>,
        rx: Arc<Mutex<Receiver<Job>>>,
        config: ServiceConfig,
    }

    impl Rig {
        /// One more worker context over the rig's queue and backend.
        fn worker(&self, id: usize) -> WorkerCtx {
            let counters = Arc::new(WorkerCounters::new(id, 64, Instant::now()));
            WorkerCtx::new(id, &self.backend, &self.rx, &self.config, counters)
        }

        fn publish(&self, snapshot: Arc<ShardedSnapshot>) -> u64 {
            let Backend::Euclidean(slot) = &*self.backend else {
                unreachable!("the rig is Euclidean")
            };
            slot.publish(snapshot)
        }
    }

    fn lattice(side: usize) -> Arc<ShardedSnapshot> {
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            (0..side * side).map(|i| {
                LeafEntry::new(
                    PointId(i as u64),
                    Point::new((i % side) as f64, (i / side) as f64),
                )
            }),
        );
        Arc::new(ShardedSnapshot::single(Arc::new(tree.freeze())))
    }

    fn rig(fault_plan: FaultPlan) -> Rig {
        let backend = Arc::new(Backend::Euclidean(SnapshotSlot::new(lattice(20))));
        let (queue, rx) = sync_channel(4);
        let config = ServiceConfig {
            fault_plan,
            ..ServiceConfig::with_workers(1)
        };
        let counters = Arc::new(WorkerCounters::new(0, 64, Instant::now()));
        let rx = Arc::new(Mutex::new(rx));
        let ctx = WorkerCtx::new(0, &backend, &rx, &config, Arc::clone(&counters));
        Rig {
            ctx,
            backend,
            counters,
            queue,
            rx,
            config,
        }
    }

    fn request(x: f64, y: f64) -> QueryRequest {
        let group = QueryGroup::sum(vec![Point::new(x, y), Point::new(x + 1.5, y + 0.5)]);
        QueryRequest::new(group.unwrap(), 3).with_trace()
    }

    fn kinds(counters: &WorkerCounters) -> Vec<Event> {
        let ring = counters.flight.snapshot();
        ring.events.iter().map(|e| e.kind).collect()
    }

    fn job(request: QueryRequest, submitted: Instant) -> (Job, Receiver<Outcome>) {
        let (reply, replies) = channel();
        (Job::new(request, reply, submitted), replies)
    }

    #[test]
    fn admit_sheds_what_expired_at_the_dequeue_stamp_and_records_that_wait() {
        let rig = rig(FaultPlan::none());
        let wait = Duration::from_millis(5);
        let submitted = Instant::now();
        // Deadlines around the wait: below and equal are expired, above and
        // unset are not.
        let deadlines = [None, Some(4), Some(5), Some(6), Some(0)];
        let admitted: Vec<bool> = deadlines
            .iter()
            .enumerate()
            .map(|(i, ms)| {
                let mut request = request(3.0 + i as f64, 4.0);
                request.deadline = ms.map(Duration::from_millis);
                let (job, replies) = job(request, submitted);
                let admitted = rig.ctx.admit(&job, submitted + wait);
                match replies.try_recv() {
                    Ok(outcome) => assert_eq!(outcome, Err(QueryError::DeadlineExceeded)),
                    Err(_) => assert_eq!(admitted, Some(wait), "job {i}"),
                }
                admitted.is_some()
            })
            .collect();
        assert_eq!(admitted, [true, false, false, true, false]);

        // The ledger and the ring carry the same wait the decision used.
        assert_eq!(rig.counters.stages.snapshot().shed_wait.count(), 3);
        let ring = rig.counters.flight.snapshot();
        let events: Vec<(Event, u64)> = ring.events.iter().map(|e| (e.kind, e.payload)).collect();
        let nanos = duration_nanos(wait);
        let (enqueued, dequeued) = ((Event::Enqueued, 1), (Event::Dequeued, nanos));
        let shed = (Event::Shed, nanos);
        assert_eq!(
            events,
            [
                [enqueued, dequeued].as_slice(),
                &[enqueued, dequeued, shed],
                &[enqueued, dequeued, shed],
                &[enqueued, dequeued],
                &[enqueued, dequeued, shed],
            ]
            .concat()
        );
        let dequeue_stamp = ring.events[1].ts_nanos;
        let mut shed_stamps = ring.events.iter().filter(|e| e.kind == Event::Shed);
        assert!(shed_stamps.all(|e| e.ts_nanos == dequeue_stamp));
    }

    #[test]
    fn a_served_job_replies_once_with_its_trace_and_transcript() {
        let mut rig = rig(FaultPlan::none());
        let (lease, generation) = rig.backend.load();
        let mut serving = Serving::new(&lease, generation);
        let (job, replies) = job(request(7.0, 7.0), Instant::now());
        rig.ctx.serve(&mut serving, &job);
        let response = replies.try_recv().expect("one reply").expect("served");
        assert!(replies.try_recv().is_err(), "exactly one reply");

        assert_eq!(response.neighbors.len(), 3);
        assert!(response.trace.is_some(), "traced");
        assert_eq!(rig.counters.stages.snapshot().execution.count(), 1);
        assert_eq!(
            kinds(&rig.counters),
            [Event::Enqueued, Event::Dequeued, Event::ExecEnd]
        );
    }

    #[test]
    fn a_panicking_job_is_replied_typed_and_the_next_one_is_served_respawned() {
        crate::silence_injected_panics();
        let mut rig = rig(FaultPlan::none().panic_on(0, 2));
        let (lease, generation) = rig.backend.load();
        let mut serving = Serving::new(&lease, generation);
        // The worker's 2nd attempt panics; the 1st and 3rd are served.
        let outcomes: Vec<Outcome> = [(17.0, 16.0), (1.0, 2.0), (9.0, 9.0)]
            .into_iter()
            .map(|(x, y)| {
                let (job, replies) = job(request(x, y), Instant::now());
                rig.ctx.serve(&mut serving, &job);
                let outcome = replies.try_recv().expect("one reply");
                assert!(replies.try_recv().is_err(), "exactly one reply");
                outcome
            })
            .collect();
        assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
        assert_eq!(outcomes[1], Err(QueryError::WorkerPanicked));
        assert_eq!(rig.ctx.attempts, 3);
        let c = &rig.counters;
        assert_eq!(c.panics.load(Ordering::Relaxed), 1);
        assert_eq!(c.stages.snapshot().execution.count(), 2);
        assert_eq!(
            kinds(c)[3..],
            [
                Event::Enqueued,
                Event::Dequeued,
                Event::Panicked,
                Event::Enqueued,
                Event::Dequeued,
                Event::ExecEnd
            ]
        );
    }

    fn moved(dequeued: Option<Dequeued>) -> (Job, Lease, u64) {
        match dequeued {
            Some(Dequeued::Moved(job, lease, generation)) => (job, lease, generation),
            _ => panic!("expected a job past a publish"),
        }
    }

    #[test]
    fn no_later_dequeued_job_reads_an_older_generation() {
        // Two workers over one queue, both serving generation 1, and four
        // queued jobs; publishes land between the dequeues.
        let mut rig = rig(FaultPlan::none());
        let other = rig.worker(1);
        let mut replies = Vec::new();
        for i in 0..4 {
            let (job, reply) = job(request(1.0 + i as f64, 2.0), Instant::now());
            assert!(rig.queue.send(job).is_ok());
            replies.push(reply);
        }
        let first = rig.ctx.next_job(1);
        assert!(matches!(first, Some(Dequeued::Current(_))));
        let mut dequeued = vec![1];

        // Job 1 is dequeued past a publish: it carries the lease loaded
        // under the dequeue lock, and runs on it even though a second
        // publish lands before it does.
        let second = lattice(12);
        assert_eq!(rig.publish(Arc::clone(&second)), 2);
        let (job1, lease, generation) = moved(rig.ctx.next_job(1));
        let Lease::Euclidean(leased) = &lease else {
            unreachable!("the rig is Euclidean")
        };
        assert!(Arc::ptr_eq(leased, &second));
        assert_eq!(generation, 2);
        dequeued.push(generation);
        assert_eq!(rig.publish(lattice(15)), 3);
        let mut serving = Serving::new(&lease, generation);
        rig.ctx.serve(&mut serving, &job1);
        let response = replies[1].try_recv().expect("one reply").expect("served");
        assert_eq!(response.generation, 2);
        let want = Mbm::best_first().k_gnn(&second.shard(0).cursor(), &request(2.0, 2.0).group, 3);
        assert_eq!(response.neighbors, want.neighbors);

        // Both workers dequeue the rest on the newest generation: the one
        // still on generation 1 and the one on generation 2.
        let (_, _, generation) = moved(other.next_job(1));
        dequeued.push(generation);
        let (_, _, generation) = moved(rig.ctx.next_job(2));
        dequeued.push(generation);
        assert_eq!(dequeued, [1, 2, 3, 3]);

        // Sender gone and queue drained: `None`.
        drop(rig.queue);
        assert!(rig.ctx.next_job(3).is_none());
        assert!(other.next_job(3).is_none());
    }
}
