//! Fault-tolerance contracts under deterministic fault injection: a worker
//! panic is a **typed response** ([`QueryError::WorkerPanicked`]) for
//! exactly the query that was in flight, never a hung wait or a lost
//! reply; the supervisor rebuilds the worker's serving state so pool
//! capacity is invariant; expired requests are shed at dequeue with
//! [`QueryError::DeadlineExceeded`]; and every query a fault did *not*
//! touch stays bit-identical to the sequential reference — on any worker
//! count, sharded or not, whichever attempt panics.

use gnn::core::QueryScratch;
use gnn::datasets::{query_workload, QuerySpec};
use gnn::prelude::*;
use gnn::service::QueryError;
use std::sync::Arc;
use std::time::Duration;

fn fingerprint(neighbors: &[Neighbor]) -> Vec<(u64, u64)> {
    neighbors
        .iter()
        .map(|n| (n.id.0, n.dist.to_bits()))
        .collect()
}

fn base_points(n: usize, seed: u64) -> Vec<Point> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0))
        .collect()
}

fn tree_of(pts: &[Point]) -> RTree {
    RTree::bulk_load(
        RTreeParams::default(),
        pts.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
}

fn workload(workspace: Rect, count: usize, seed: u64) -> Vec<QueryRequest> {
    let spec = QuerySpec {
        n: 8,
        area_fraction: 0.06,
    };
    query_workload(workspace, spec, count, seed)
        .into_iter()
        .map(|pts| QueryRequest::new(QueryGroup::sum(pts).unwrap(), 4))
        .collect()
}

/// Sequential per-request reference on the service's own sharded target —
/// the exact code path a worker runs, minus threads and faults.
fn references(snapshot: &ShardedSnapshot, requests: &[QueryRequest]) -> Vec<Vec<(u64, u64)>> {
    let planner = Planner::new();
    let cursors: Vec<TreeCursor<'_>> = snapshot.shards().iter().map(|s| s.cursor()).collect();
    let target = Target::Sharded {
        snapshot,
        cursors: &cursors,
    };
    let mut scratch = QueryScratch::new();
    requests
        .iter()
        .map(|r| {
            let (_, neighbors, _, _) = r.execute_on(&planner, &target, &mut scratch);
            fingerprint(neighbors)
        })
        .collect()
}

fn sharded_snapshot(tree: &RTree, shards: usize) -> Arc<ShardedSnapshot> {
    if shards == 1 {
        Arc::new(ShardedSnapshot::single(Arc::new(tree.freeze())))
    } else {
        Arc::new(tree.freeze().partition(shards))
    }
}

/// The tentpole matrix: every worker panics on its 2nd executed query, on
/// 1/2/8 workers x {unsharded, 4 shards}. Every handle resolves to exactly
/// one outcome (no hangs, no lost replies), every normal response is
/// bit-identical to the sequential reference, the ledger agrees with the
/// per-handle tally, and a second full round proves respawned workers kept
/// the pool at full capacity.
#[test]
fn worker_panics_are_typed_and_respawn_restores_capacity() {
    gnn::service::silence_injected_panics();
    let pts = base_points(8_000, 21);
    let tree = tree_of(&pts);
    let count = 48usize;

    for shards in [1usize, 4] {
        let snapshot = sharded_snapshot(&tree, shards);
        let requests = workload(tree.root_mbr(), count, 900 + shards as u64);
        let reference = references(&snapshot, &requests);

        for workers in [1usize, 2, 8] {
            // One panic point per worker.
            let mut plan = FaultPlan::none();
            for w in 0..workers {
                plan = plan.panic_on(w, 2);
            }
            let service = Service::start_sharded(
                Arc::clone(&snapshot),
                ServiceConfig {
                    workers,
                    fault_plan: plan,
                    ..ServiceConfig::default()
                },
            );

            let mut ok = 0u64;
            let mut panicked = 0u64;
            for round in 0..2 {
                let handles: Vec<_> = requests
                    .iter()
                    .map(|r| service.submit(r.clone()).expect("submit"))
                    .collect();
                for (i, h) in handles.into_iter().enumerate() {
                    match h.wait() {
                        Ok(r) => {
                            ok += 1;
                            assert_eq!(
                                fingerprint(&r.neighbors),
                                reference[i],
                                "query {i} diverged (round {round}, {workers} workers, \
                                 {shards} shards)"
                            );
                        }
                        Err(SubmitError::Query(QueryError::WorkerPanicked)) => panicked += 1,
                        Err(e) => panic!("unexpected outcome for query {i}: {e:?}"),
                    }
                }
            }

            let stats = service.shutdown();
            // Exactly one outcome per submitted query, across both rounds.
            assert_eq!(
                ok + panicked,
                2 * count as u64,
                "lost or duplicated replies"
            );
            // 96 queries over at most 8 workers: some worker must reach
            // its 2nd execution, and each point fires at most once.
            assert!(panicked >= 1, "no injected panic fired");
            assert!(panicked <= workers as u64, "a panic point fired twice");
            assert_eq!(stats.faults.panics, panicked, "ledger vs handle tally");
            assert_eq!(stats.queries_served, ok, "served count excludes panics");
        }
    }
}

/// A panic on the K-th attempt — the 1st, the 3rd or the 8th — is one
/// typed reply, and every other request of a workload submitted before
/// any wait is answered exactly once,
/// bit-identical to the reference: the worker rebuilds its state in place
/// and serves on. Every worker carries the panic point and the workload is
/// large enough that on 1, 2 and 8 workers at least one reaches it.
#[test]
fn panic_on_the_kth_attempt_answers_every_other_request_exactly_once() {
    gnn::service::silence_injected_panics();
    let pts = base_points(6_000, 33);
    let tree = tree_of(&pts);
    let snapshot = sharded_snapshot(&tree, 1);
    let count = 64usize;
    let requests = workload(tree.root_mbr(), count, 1234);
    let reference = references(&snapshot, &requests);

    for workers in [1usize, 2, 8] {
        for nth in [1u64, 3, 8] {
            let plan = (0..workers).fold(FaultPlan::none(), |plan, w| plan.panic_on(w, nth));
            let service = Service::start_sharded(
                Arc::clone(&snapshot),
                ServiceConfig {
                    workers,
                    fault_plan: plan,
                    ..ServiceConfig::default()
                },
            );
            let handles: Vec<_> = requests
                .iter()
                .map(|r| service.submit(r.clone()).expect("submit"))
                .collect();
            let (mut served, mut panicked) = (0u64, 0u64);
            for (i, handle) in handles.into_iter().enumerate() {
                match handle.wait() {
                    Ok(r) => {
                        served += 1;
                        assert_eq!(
                            fingerprint(&r.neighbors),
                            reference[i],
                            "query {i} diverged ({workers} workers, panic on attempt {nth})"
                        );
                    }
                    Err(SubmitError::Query(QueryError::WorkerPanicked)) => panicked += 1,
                    Err(e) => panic!("unexpected outcome for query {i}: {e:?}"),
                }
            }
            let what = format!("{workers} workers, panic on attempt {nth}");
            assert_eq!(served + panicked, count as u64, "{what}");
            // 64 requests over at most 8 workers: some worker reaches its
            // 8th attempt; one worker reaches every attempt.
            assert!(panicked >= 1, "{what}: no injected panic fired");
            if workers == 1 {
                assert_eq!(panicked, 1, "{what}");
            }
            assert!(
                panicked <= workers as u64,
                "{what}: a panic point fired twice"
            );
            // Counted before the reply was sent: visible once `wait` returned.
            let at_reply = service.stats();
            assert_eq!(at_reply.faults.panics, panicked, "{what}");
            assert_eq!(at_reply.queries_served, served, "{what}");
            service.shutdown();
        }
    }
}

/// Deadlines shed expired requests at dequeue with a typed error: behind a
/// slow worker (injected latency far past the deadline), everything that
/// waited in the queue is shed, and every request still gets exactly one
/// outcome.
#[test]
fn expired_requests_are_shed_with_typed_error() {
    let pts = base_points(4_000, 88);
    let tree = tree_of(&pts);
    let snapshot = sharded_snapshot(&tree, 1);
    let requests = workload(tree.root_mbr(), 4, 5);

    let service = Service::start_sharded(
        Arc::clone(&snapshot),
        ServiceConfig {
            workers: 1,
            fault_plan: FaultPlan::none().with_query_latency(Duration::from_millis(20)),
            ..ServiceConfig::default()
        },
    );
    let handles: Vec<_> = requests
        .iter()
        .map(|r| {
            service
                .submit(r.clone().with_deadline(Duration::from_millis(1)))
                .expect("submit")
        })
        .collect();
    let mut served = 0u64;
    let mut shed = 0u64;
    for h in handles {
        match h.wait() {
            Ok(_) => served += 1,
            Err(SubmitError::Query(QueryError::DeadlineExceeded)) => shed += 1,
            Err(e) => panic!("unexpected outcome: {e:?}"),
        }
    }
    assert_eq!(served + shed, 4, "every request resolves exactly once");
    // The 20ms execution ahead of them expires everything that queued;
    // only a request dequeued before its 1ms budget elapsed can be served.
    assert!(shed >= 3, "queue-expired requests must be shed, got {shed}");

    let stats = service.shutdown();
    assert_eq!(stats.faults.shed, shed);
    // Anything served was dequeued in time but finished ~20ms late: the
    // SLO-miss counter sees it, the error path does not.
    assert_eq!(stats.faults.deadline_missed, served);
    assert_eq!(stats.queries_served, served);
}

/// Overload and faults at once: bursts against a queue too small to hold
/// them, a per-request deadline shorter than the injected execution
/// latency, and a seeded 1% panic rate, in one run. Whatever the full
/// queue refuses was never accepted; everything it accepted resolves to
/// exactly one response, `DeadlineExceeded` or `WorkerPanicked`; and every
/// served response is bit-identical to the sequential reference — replies
/// may be shed or failed, never lost, duplicated, or wrong. Only counts
/// are asserted: how many requests land in each class depends on the
/// scheduler, that the classes partition the run does not.
#[test]
fn full_queue_deadlines_and_seeded_panics_lose_and_corrupt_nothing() {
    gnn::service::silence_injected_panics();
    let pts = base_points(6_000, 61);
    let tree = tree_of(&pts);
    let snapshot = sharded_snapshot(&tree, 1);
    let (rounds, burst) = (40usize, 16usize);
    let requests = workload(tree.root_mbr(), rounds * burst, 4242);
    let reference = references(&snapshot, &requests);

    let latency = Duration::from_millis(4);
    // Seed chosen so the 1% schedule fires on worker 0's very first
    // executed query: the panic class is populated however few queries
    // the shedding lets through.
    let plan = FaultPlan::none()
        .with_query_latency(latency)
        .seeded_panics(0.01, 316);
    assert!(plan.should_panic(0, 1));
    let service = Service::start_sharded(
        Arc::clone(&snapshot),
        ServiceConfig {
            workers: 2,
            queue_depth: 8,
            fault_plan: plan,
            ..ServiceConfig::default()
        },
    );

    // Each burst outruns the two sleeping workers: the queue fills, the
    // rest of the burst is refused, and what queued behind an execution
    // outlives its 1ms budget.
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for (round, chunk) in requests.chunks(burst).enumerate() {
        for (j, request) in chunk.iter().enumerate() {
            let request = request.clone().with_deadline(Duration::from_millis(1));
            match service.submit(Submission::request(request).blocking(false)) {
                Ok(handle) => accepted.push((round * burst + j, handle)),
                Err(SubmitError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e:?}"),
            }
        }
        std::thread::sleep(latency);
    }
    assert!(rejected > 0, "the queue never filled");
    assert_eq!(accepted.len() + rejected, requests.len());

    let (mut served, mut shed, mut panicked) = (0u64, 0u64, 0u64);
    let answered = accepted.len() as u64;
    for (i, handle) in accepted {
        match handle.wait() {
            Ok(r) => {
                served += 1;
                assert_eq!(
                    fingerprint(&r.neighbors),
                    reference[i],
                    "query {i} diverged under overload"
                );
            }
            Err(SubmitError::Query(QueryError::DeadlineExceeded)) => shed += 1,
            Err(SubmitError::Query(QueryError::WorkerPanicked)) => panicked += 1,
            Err(e) => panic!("unexpected outcome for query {i}: {e:?}"),
        }
    }
    assert_eq!(served + shed + panicked, answered, "accepted != answered");
    assert!(panicked >= 1, "the seeded panic never fired");

    let stats = service.shutdown();
    assert!(stats.faults.shed > 0, "nothing was shed");
    assert_eq!(stats.faults.shed, shed, "ledger vs handle tally");
    assert_eq!(stats.faults.panics, panicked, "ledger vs handle tally");
    assert_eq!(stats.queries_served, served);
}

/// `wait_timeout` returns `None` while the response is still pending and
/// delivers the same response on a later call — a timeout never consumes
/// or corrupts the reply. A timeout past what `Instant` can represent
/// (`Duration::MAX`) is clamped, not a panic, and still delivers.
#[test]
fn wait_timeout_times_out_then_delivers() {
    let pts = base_points(4_000, 99);
    let tree = tree_of(&pts);
    let snapshot = sharded_snapshot(&tree, 1);
    let requests = workload(tree.root_mbr(), 1, 6);
    let reference = references(&snapshot, &requests);

    let service = Service::start_sharded(
        Arc::clone(&snapshot),
        ServiceConfig {
            workers: 1,
            fault_plan: FaultPlan::none().with_query_latency(Duration::from_millis(60)),
            ..ServiceConfig::default()
        },
    );
    for long in [Duration::from_secs(30), Duration::MAX] {
        let mut handle = service.submit(requests[0].clone()).expect("submit");
        assert!(
            handle.wait_timeout(Duration::from_millis(5)).is_none(),
            "a 5ms wait cannot outlast a 60ms execution"
        );
        let r = handle
            .wait_timeout(long)
            .expect("response arrives")
            .expect("query served");
        assert_eq!(fingerprint(&r.neighbors), reference[0], "{long:?}");
    }
    service.shutdown();
}

/// Satellite (a): an injected refreeze failure stops the driver, and
/// `join` reports it as a typed [`DriverError`] instead of panicking.
#[test]
fn refresh_driver_join_reports_refreeze_failure() {
    let entries: Vec<LeafEntry> = base_points(3_000, 44)
        .into_iter()
        .enumerate()
        .map(|(i, p)| LeafEntry::new(PointId(i as u64), p))
        .collect();
    let sharded_tree = ShardedTree::build(RTreeParams::with_capacity(16), entries, 2);
    let initial = Arc::new(sharded_tree.freeze_all());
    let service = Arc::new(Service::start_sharded(
        Arc::clone(&initial),
        ServiceConfig {
            workers: 2,
            fault_plan: FaultPlan::none().fail_refreeze(1),
            ..ServiceConfig::default()
        },
    ));
    let driver = RefreshDriver::start(
        sharded_tree,
        Arc::clone(&service),
        gnn::service::RefreshPolicy::default(),
    );
    // One accepted update forces a refreeze (at the latest, the join-time
    // flush) — which the plan fails on cycle 1.
    assert!(driver.apply(Update::Insert(LeafEntry::new(
        PointId(999_999),
        Point::new(1.0, 2.0),
    ))));
    let err = driver.join().expect_err("refreeze failure must surface");
    assert_eq!(err, gnn::service::DriverError::RefreezeFailed { cycle: 1 });
    // The serving side is unaffected: the failed refreeze published
    // nothing and the service still answers.
    let requests = workload(Rect::from_corners(0.0, 0.0, 1000.0, 1000.0), 1, 7);
    let r = service
        .submit(requests[0].clone())
        .expect("submit after driver failure")
        .wait()
        .expect("query served");
    assert!(!r.neighbors.is_empty());
    Arc::try_unwrap(service)
        .expect("driver released its service handle")
        .shutdown();
}
