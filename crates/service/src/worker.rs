//! The worker: one step, `next_job → admit → execute → reply`.
//!
//! A job is a slice of `(index, request)` members — one for a single
//! submission, a shard's sub-batch for a batch — and every member takes the
//! same path: [`WorkerCtx::admit`] stamps the dequeue and sheds what already
//! expired, [`WorkerCtx::execute`] runs one member through
//! [`QueryRequest::execute_on`] under its own unwind guard, and
//! [`WorkerCtx::reply`] records and sends. A batch is the same step over
//! several members, in submission order: what it buys is one queue slot and
//! one wake-up for many queries, not shared page reads.
//!
//! **Clock:** each stage boundary reads the clock once — `dequeued`,
//! `executed`, `replied` — and the flight events, queue wait, deadline
//! check, trace, histograms and `busy` are all computed from those stamps
//! (a member's execution runs from the previous boundary to `executed`).
//!
//! **Supervision:** a member that panics — injected by the [`FaultPlan`] or
//! real — is replied [`QueryError::WorkerPanicked`] after
//! [`WorkerCtx::respawn`] rebuilt everything the panic may have left
//! mid-mutation (scratch, cursors; the snapshot is immutable); the job then
//! continues with its next member on the same thread. Pool capacity is
//! invariant under panics and no `wait()` ever hangs on one.

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

/// What travels back on a reply channel: submission index and outcome.
pub(crate) type Reply = (u32, Outcome);
pub(crate) type Outcome = Result<QueryResponse, QueryError>;

/// One `(submission index, request)` member of a job.
pub(crate) type Member = (u32, QueryRequest);

/// A job's members. Either kind occupies **one** queue slot (`queue_depth`
/// counts jobs, not queries). A single rides inline: boxing it would buy a
/// smaller queue slot with an allocation per request.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Members {
    /// A single submission; answers index 0.
    One(Member),
    /// A batch submission's members routed to this shard: served like
    /// singles, one after another in submission order.
    Batch(Vec<Member>),
}

/// A queued job plus its reply channel.
pub(crate) struct Job {
    members: Members,
    reply: Sender<Reply>,
    /// When the job entered the queue: response latency is measured from
    /// here, so queueing is visible in it (the open-loop contract).
    submitted: Instant,
}

impl Job {
    pub(crate) fn new(members: Members, reply: Sender<Reply>, submitted: Instant) -> Job {
        Job {
            members,
            reply,
            submitted,
        }
    }

    pub(crate) fn members(&self) -> &[Member] {
        match &self.members {
            Members::One(member) => std::slice::from_ref(member),
            Members::Batch(members) => members,
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

    /// Where every member executes. A single-shard snapshot takes the exact
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

/// A member that executed: its response and the `executed` stamp.
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

    /// The thread body: serve on one generation until a newer one is
    /// published, reload, repeat; return at shutdown.
    pub(crate) fn run(mut self) {
        let mut carried = None;
        let mut warmed = false;
        loop {
            let (lease, generation) = self.backend.load();
            let mut serving = Serving::new(&lease, generation);
            if !warmed {
                warmed = true;
                self.warm(&serving);
            }
            while let Some(job) = self.next_job(generation, &mut carried) {
                self.serve(&mut serving, &job);
            }
            if carried.is_none() {
                return; // senders dropped and queue drained: shutdown
            }
        }
    }

    /// Self-warm before serving: one canned query (or the backend's own
    /// warm-up) sizes the scratch, so a worker's first real request does
    /// not pay the cold-start allocations inside a caller's latency. Only
    /// the worker can do this — a shared queue gives no per-worker routing.
    /// Uncounted (it is not traffic), and once: the scratch survives swaps.
    fn warm(&mut self, serving: &Serving<'_>) {
        match serving.lease {
            Lease::Network(backend) => backend.warm(&mut self.scratch),
            Lease::Euclidean(snapshot) if !snapshot.is_empty() => {
                if let Ok(group) = QueryGroup::sum(vec![snapshot.root_mbr().center()]) {
                    let warm = QueryRequest::new(group, 1);
                    let _ = warm.execute_on(&self.planner, &serving.target(), &mut self.scratch);
                    serving.cursors.iter().for_each(TreeCursor::reset);
                }
            }
            Lease::Euclidean(_) => {}
        }
    }

    /// Dequeue + generation hand-off: the next job to serve on `generation`,
    /// or `None` — at shutdown, or with a job left in `carried` because a
    /// newer generation was published (reload, then serve it: a job is
    /// never dropped). The swap check costs one atomic load and comes after
    /// the dequeue, so once `publish` returns no later-dequeued job sees
    /// the old snapshot. The queue is locked for the dequeue only.
    fn next_job(&self, generation: u64, carried: &mut Option<Job>) -> Option<Job> {
        let job = carried
            .take()
            .or_else(|| lock_unpoisoned(&self.rx).recv().ok())?;
        if self.backend.generation() == generation {
            return Some(job);
        }
        *carried = Some(job);
        None
    }

    /// The step, run over a job's members: admit, then execute and reply
    /// one member after another, in member order. A batch job is counted
    /// **before** its last member's reply, so once a caller's `wait_all`
    /// returns, `stats()` already shows it.
    fn serve(&mut self, serving: &mut Serving<'_>, job: &Job) {
        let dequeued = Instant::now();
        let queue_wait = self.admit(job, dequeued);
        let batch = matches!(job.members, Members::Batch(_));
        let admitted = job.members().iter();
        let mut admitted = admitted.filter(|m| !expired(m, queue_wait)).peekable();
        let mut served = 0;
        let mut started = dequeued;
        while let Some(member) = admitted.next() {
            let outcome = self.execute(serving, &member.1, started, queue_wait);
            match outcome {
                Some(_) => served += 1,
                None => self.respawn(serving),
            }
            if batch && admitted.peek().is_none() {
                self.counters.record_batch(served);
            }
            let outcome = outcome.ok_or(QueryError::WorkerPanicked);
            started = self.reply(job, member, started, queue_wait, outcome);
        }
    }

    /// One dequeue stamp for the whole job: logs the queue wait and sheds —
    /// typed, per member, before anything executes — every member whose
    /// deadline had expired **at that stamp** ([`expired`]). Returns the
    /// queue wait, the same one the shed decision used.
    fn admit(&self, job: &Job, dequeued: Instant) -> Duration {
        let members = job.members();
        let queue_wait = dequeued.saturating_duration_since(job.submitted);
        // `Enqueued` is back-stamped with the submit instant so the merged
        // timeline shows the wait, while the ring stays single-producer.
        let flight = &self.counters.flight;
        flight.record_at(job.submitted, Event::Enqueued, members.len() as u64);
        flight.record_at(dequeued, Event::Dequeued, duration_nanos(queue_wait));
        for member in members.iter().filter(|m| expired(m, queue_wait)) {
            self.counters.record_shed(dequeued, queue_wait);
            let outcome = Err(QueryError::DeadlineExceeded);
            self.reply(job, member, dequeued, queue_wait, outcome);
        }
        queue_wait
    }

    /// One member under its own unwind guard: fault hook → `execute_on` →
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
        let flight = &self.counters.flight;
        flight.record_at(started, Event::ExecStart, 1);
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
                    node_accesses: stats.data_tree.logical,
                    pages: stats.data_tree.io,
                    dist_computations: stats.dist_computations,
                }),
            };
            (response, executed)
        }))
        .ok()
    }

    /// Respawn in place after a panic, **before** the victim's reply is
    /// released: nothing the panic may have left mid-mutation survives, and
    /// the caller cannot enqueue follow-up work (whose `Enqueued` event
    /// back-stamps to submit time) until `Respawned` is on the ring — the
    /// flight timeline stays a strict per-query transcript.
    fn respawn(&mut self, serving: &mut Serving<'_>) {
        let counters = &self.counters;
        counters.panics.fetch_add(1, Ordering::Relaxed);
        counters.flight.record(Event::Panicked, self.attempts);
        self.scratch = QueryScratch::new();
        serving.rebuild_cursors();
        counters.respawns.fetch_add(1, Ordering::Relaxed);
        counters.flight.record(Event::Respawned, 0);
    }

    /// Records a served member, sends the member's outcome (the one send
    /// site: served, shed or panicked), and returns the `replied` stamp the
    /// next member's execution starts from. `busy` counts execution only;
    /// the latency histogram measures submit → `executed`, so queue wait
    /// under overload is visible; the reply stage runs `executed` →
    /// `replied`.
    fn reply(
        &self,
        job: &Job,
        member: &Member,
        started: Instant,
        queue_wait: Duration,
        outcome: Result<Served, QueryError>,
    ) -> Instant {
        let counters = &self.counters;
        let (outcome, executed) = match outcome {
            Ok((response, executed)) => {
                let execution = executed - started;
                let latency = executed.saturating_duration_since(job.submitted);
                let payload = duration_nanos(execution);
                counters.flight.record_at(executed, Event::ExecEnd, payload);
                counters.record(&response, queue_wait, execution, latency);
                if member.1.deadline.is_some_and(|d| latency > d) {
                    counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
                }
                (Ok(response), Some(executed))
            }
            Err(error) => (Err(error), None),
        };
        // The caller may have dropped its handle; that is not an error.
        let _ = job.reply.send((member.0, outcome));
        let replied = Instant::now();
        if let Some(executed) = executed {
            counters.stages.reply.record(replied - executed);
        }
        replied
    }
}

/// Whether a member's queue-wait deadline had run out by the job's dequeue
/// stamp: the one shed decision, shared by `admit` (which replies to those
/// members) and `serve` (which runs the others).
fn expired(member: &Member, queue_wait: Duration) -> bool {
    member.1.deadline.is_some_and(|d| queue_wait >= d)
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

    #[test]
    fn admit_sheds_what_expired_at_the_dequeue_stamp_and_records_that_wait() {
        let rig = rig(FaultPlan::none());
        let wait = Duration::from_millis(5);
        // Deadlines around the wait: below and equal are expired, above and
        // unset are not.
        let deadlines = [None, Some(4), Some(5), Some(6), Some(0)];
        let members = deadlines.iter().enumerate().map(|(i, ms)| {
            let mut request = request(3.0 + i as f64, 4.0);
            request.deadline = ms.map(Duration::from_millis);
            (i as u32, request)
        });
        let (reply, replies) = channel();
        let submitted = Instant::now();
        let job = Job::new(Members::Batch(members.collect()), reply, submitted);
        let waited = rig.ctx.admit(&job, submitted + wait);
        assert_eq!(waited, wait);

        let admitted = job.members().iter().filter(|m| !expired(m, waited));
        let admitted: Vec<u32> = admitted.map(|member| member.0).collect();
        assert_eq!(admitted, [0, 3]);
        let shed: Vec<u32> = replies
            .try_iter()
            .map(|(index, outcome)| {
                assert_eq!(outcome, Err(QueryError::DeadlineExceeded));
                index
            })
            .collect();
        assert_eq!(shed, [1, 2, 4]);

        // The ledger and the ring carry the same wait the decision used.
        assert_eq!(rig.counters.shed.load(Ordering::Relaxed), 3);
        assert_eq!(rig.counters.stages.snapshot().shed_wait.count(), 3);
        let ring = rig.counters.flight.snapshot();
        let events: Vec<(Event, u64)> = ring.events.iter().map(|e| (e.kind, e.payload)).collect();
        let nanos = duration_nanos(wait);
        let shed_event = (Event::Shed, nanos);
        assert_eq!(
            events,
            [
                (Event::Enqueued, 5),
                (Event::Dequeued, nanos),
                shed_event,
                shed_event,
                shed_event
            ]
        );
        let dequeue_stamp = ring.events[1].ts_nanos;
        assert!(ring.events[2..].iter().all(|e| e.ts_nanos == dequeue_stamp));
    }

    #[test]
    fn a_single_and_a_one_member_batch_differ_only_in_the_batch_counts() {
        let serve = |members: Members| {
            let mut rig = rig(FaultPlan::none());
            let (lease, generation) = rig.backend.load();
            let mut serving = Serving::new(&lease, generation);
            let (reply, replies) = channel();
            let job = Job::new(members, reply, Instant::now());
            rig.ctx.serve(&mut serving, &job);
            let (index, outcome) = replies.try_recv().expect("one reply");
            assert_eq!(index, 0);
            assert!(replies.try_recv().is_err(), "exactly one reply");
            let c = &rig.counters;
            let counts =
                [&c.batches, &c.batch_queries].map(|counter| counter.load(Ordering::Relaxed));
            (outcome.expect("served"), kinds(c), counts)
        };
        let (single, single_kinds, single_counts) = serve(Members::One((0, request(7.0, 7.0))));
        let (batched, batch_kinds, batch_counts) =
            serve(Members::Batch(vec![(0, request(7.0, 7.0))]));

        let bits = |r: &QueryResponse| -> Vec<(u64, u64)> {
            let fingerprint = |n: &gnn_core::Neighbor| (n.id.0, n.dist.to_bits());
            r.neighbors.iter().map(fingerprint).collect()
        };
        assert_eq!(bits(&single), bits(&batched));
        assert_eq!(single.neighbors.len(), 3);
        let na = single.stats.data_tree.logical;
        assert_eq!(na, batched.stats.data_tree.logical);
        let counted = |r: &QueryResponse| {
            let trace = r.trace.expect("traced");
            (trace.node_accesses, trace.pages, trace.dist_computations)
        };
        assert_eq!(counted(&single), counted(&batched));
        assert_eq!(
            (single.choice, single.routing),
            (batched.choice, batched.routing)
        );
        let transcript = [
            Event::Enqueued,
            Event::Dequeued,
            Event::ExecStart,
            Event::ExecEnd,
        ];
        assert_eq!(single_kinds, transcript);
        assert_eq!(batch_kinds, transcript);
        assert_eq!(single_counts, [0, 0]);
        assert_eq!(batch_counts, [1, 1]);
    }

    #[test]
    fn a_panicking_member_is_replied_typed_and_the_job_carries_on_respawned() {
        crate::silence_injected_panics();
        let mut rig = rig(FaultPlan::none().panic_on(0, 2));
        let (lease, generation) = rig.backend.load();
        let mut serving = Serving::new(&lease, generation);
        // Far corner, near corner, middle: any spatial order of the three
        // differs from the order they were submitted in.
        let members = [(17.0, 16.0), (1.0, 2.0), (9.0, 9.0)];
        let members = (0..).zip(members.map(|(x, y)| request(x, y)));
        let (reply, replies) = channel();
        let job = Job::new(Members::Batch(members.collect()), reply, Instant::now());
        rig.ctx.serve(&mut serving, &job);

        // Members execute in member order: the worker's 2nd attempt is
        // member index 1, and the replies come back 0, 1, 2.
        let (indices, outcomes): (Vec<_>, Vec<_>) = replies.try_iter().unzip();
        assert_eq!(indices, [0, 1, 2]);
        assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
        assert_eq!(outcomes[1], Err(QueryError::WorkerPanicked));
        assert_eq!(rig.ctx.attempts, 3);
        let count = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed);
        let c = &rig.counters;
        assert_eq!((count(&c.panics), count(&c.respawns)), (1, 1));
        assert_eq!(count(&c.queries), 2);
        assert_eq!((count(&c.batches), count(&c.batch_queries)), (1, 2));
        assert_eq!(
            kinds(c)[4..],
            [
                Event::ExecStart,
                Event::Panicked,
                Event::Respawned,
                Event::ExecStart,
                Event::ExecEnd
            ]
        );
    }

    #[test]
    fn next_job_hands_a_job_dequeued_under_a_stale_generation_to_the_reload() {
        let rig = rig(FaultPlan::none());
        let (_, generation) = rig.backend.load();
        let job = || {
            Job::new(
                Members::One((0, request(1.0, 1.0))),
                channel().0,
                Instant::now(),
            )
        };
        let mut carried = None;
        assert!(rig.queue.send(job()).is_ok());
        assert!(rig.ctx.next_job(generation, &mut carried).is_some());
        assert!(carried.is_none());

        // A publish between two dequeues: the second job is carried, not
        // served on the old generation and not dropped.
        assert!(rig.queue.send(job()).is_ok());
        let Backend::Euclidean(slot) = &*rig.backend else {
            unreachable!("the rig is Euclidean")
        };
        assert_eq!(slot.publish(lattice(10)), generation + 1);
        assert!(rig.ctx.next_job(generation, &mut carried).is_none());
        assert!(carried.is_some());
        assert!(rig.ctx.next_job(generation + 1, &mut carried).is_some());
        assert!(carried.is_none());

        // Senders gone and queue drained: `None` with nothing carried.
        drop(rig.queue);
        assert!(rig.ctx.next_job(generation + 1, &mut carried).is_none());
        assert!(carried.is_none());
    }
}
