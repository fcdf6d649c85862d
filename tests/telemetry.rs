//! Telemetry contracts: observability must be a pure read-side — traces,
//! stage histograms, and the flight recorder never change results, node
//! accesses, or reply accounting.
//!
//! * The flight recorder's merged timeline reconstructs the **exact**
//!   served/panicked/shed event sequence of a seeded [`FaultPlan`] run,
//!   time-ordered, with zero drops when the rings are large enough.
//! * `stats()` observed right after a handle resolves already counts that
//!   query — the worker records before it sends the reply.
//! * [`QueryRequest::with_trace`] returns a per-query trace (its stage
//!   timings) and changes nothing else; an untraced request carries `None`.
//! * Stage histogram counts reconcile exactly with the serving ledger, and
//!   the trace flag adds no scratch growth on the execution hot path.

use gnn::core::QueryScratch;
use gnn::datasets::{query_workload, QuerySpec};
use gnn::prelude::*;
use gnn::service::QueryError;
use std::sync::Arc;
use std::time::Duration;

fn base_points(n: usize, seed: u64) -> Vec<Point> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0))
        .collect()
}

fn snapshot_of(n: usize, seed: u64) -> Arc<ShardedSnapshot> {
    let pts = base_points(n, seed);
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        pts.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    );
    Arc::new(ShardedSnapshot::single(Arc::new(tree.freeze())))
}

fn workload(snapshot: &ShardedSnapshot, count: usize, seed: u64) -> Vec<QueryRequest> {
    let spec = QuerySpec {
        n: 8,
        area_fraction: 0.06,
    };
    query_workload(snapshot.shard(0).root_mbr(), spec, count, seed)
        .into_iter()
        .map(|pts| QueryRequest::new(QueryGroup::sum(pts).unwrap(), 4))
        .collect()
}

/// The flight-recorder postmortem contract: one worker under a seeded
/// panic plan serves queries one at a time, and the merged timeline
/// reconstructs the exact per-query event sequence the observed outcomes
/// imply — `Enqueued, Dequeued, ExecEnd` for a served query,
/// `Enqueued, Dequeued, Panicked` for a faulted one, and
/// `Enqueued, Dequeued, Shed` for the final expired request.
#[test]
fn postmortem_reconstructs_the_fault_sequence() {
    gnn::service::silence_injected_panics();
    let snapshot = snapshot_of(6_000, 7);
    let requests = workload(&snapshot, 40, 11);
    let service = Service::start_sharded(
        Arc::clone(&snapshot),
        ServiceConfig {
            workers: 1,
            fault_plan: FaultPlan::none().seeded_panics(0.3, 0xFEED),
            flight_recorder: 1024,
            ..ServiceConfig::default()
        },
    );

    use FlightEventKind::{Dequeued, Enqueued, ExecEnd, Panicked, Shed};
    let mut expected: Vec<FlightEventKind> = Vec::new();
    let mut panicked = 0u64;
    // One at a time: with a single worker the ring is a strict transcript.
    for r in &requests {
        let outcome = service.submit(r.clone()).expect("submit").wait();
        expected.extend([Enqueued, Dequeued]);
        match outcome {
            Ok(_) => expected.push(ExecEnd),
            Err(SubmitError::Query(QueryError::WorkerPanicked)) => {
                panicked += 1;
                expected.push(Panicked);
            }
            Err(e) => panic!("unexpected outcome: {e:?}"),
        }
    }
    assert!(panicked >= 3, "seeded plan never fired ({panicked} panics)");
    // A zero deadline is expired by the time the worker dequeues it: a
    // guaranteed shed tail for the transcript.
    let shed = service
        .submit(requests[0].clone().with_deadline(Duration::ZERO))
        .expect("submit")
        .wait();
    assert!(matches!(
        shed,
        Err(SubmitError::Query(QueryError::DeadlineExceeded))
    ));
    expected.extend([Enqueued, Dequeued, Shed]);

    let stats = service.shutdown();
    assert_eq!(stats.faults.panics, panicked);
    assert_eq!(stats.faults.shed, 1);
    assert_eq!(stats.queries_served, requests.len() as u64 - panicked);

    assert_eq!(stats.flight.dropped, 0, "ring was sized for the run");
    let got: Vec<FlightEventKind> = stats
        .flight
        .events
        .iter()
        .filter(|e| e.source == 0)
        .map(|e| e.kind)
        .collect();
    assert_eq!(got, expected, "timeline is not the observed fault sequence");
    // Merged view is time-ordered even with the control ring mixed in.
    for pair in stats.flight.events.windows(2) {
        assert!(pair[0].ts_nanos <= pair[1].ts_nanos);
    }
    // The renderer shows the tail of exactly these events.
    let rendered = stats.flight.render();
    assert!(rendered.contains("worker-0"));
    assert!(rendered.contains("shed"));
}

/// The worker records a served query before it sends the reply: `stats()`
/// taken immediately after `wait` returns already counts the query, its
/// latency sample and its stage samples — no warm-up dance, no retry loop.
#[test]
fn ledger_is_visible_once_wait_returns() {
    let snapshot = snapshot_of(5_000, 13);
    let requests = workload(&snapshot, 8, 17);
    let service = Service::start_sharded(
        Arc::clone(&snapshot),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let mut served = 0u64;
    for round in 1..=10u64 {
        for request in &requests {
            let response = service
                .submit(request.clone())
                .expect("submit")
                .wait()
                .expect("served");
            assert_eq!(response.neighbors.len(), 4);
            served += 1;
            let stats = service.stats();
            assert_eq!(
                stats.queries_served, served,
                "ledger lagged the reply on round {round}"
            );
            assert_eq!(stats.latency.count(), served);
            assert_eq!(stats.stages.execution.count(), served);
        }
    }
    service.shutdown();
}

/// Trace opt-in: every traced request carries a [`QueryTrace`], every
/// untraced one `None`, and the answers are bit-identical either way, with
/// the flight recorder on or off.
#[test]
fn traces_are_opt_in_consistent_and_result_neutral() {
    let snapshot = snapshot_of(5_000, 23);
    let requests = workload(&snapshot, 12, 29);
    let service = Service::start_sharded(
        Arc::clone(&snapshot),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );

    let plain: Vec<QueryResponse> = requests
        .iter()
        .map(|r| service.submit(r.clone()).unwrap().wait().unwrap())
        .collect();
    let traced: Vec<QueryResponse> = requests
        .iter()
        .map(|r| {
            service
                .submit(r.clone().with_trace())
                .unwrap()
                .wait()
                .unwrap()
        })
        .collect();

    for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
        assert!(p.trace.is_none(), "untraced response {i} carried a trace");
        assert!(t.trace.is_some(), "response {i} lost its trace");
        // Result-neutral: everything but the trace is bit-identical.
        assert_eq!(p.neighbors, t.neighbors, "query {i}");
        assert_eq!(p.stats, t.stats, "query {i}");
    }
    let stats = service.shutdown();
    assert!(!stats.flight.events.is_empty(), "default recorder is on");

    // The other switch: a disabled flight recorder logs nothing and
    // changes no answer either.
    let silent = Service::start_sharded(
        Arc::clone(&snapshot),
        ServiceConfig {
            workers: 2,
            flight_recorder: 0,
            ..ServiceConfig::default()
        },
    );
    for (i, (r, p)) in requests.iter().zip(&plain).enumerate() {
        let q = silent.submit(r.clone()).unwrap().wait().unwrap();
        assert_eq!(p.neighbors, q.neighbors, "recorder-off query {i}");
        assert_eq!(p.stats, q.stats, "query {i}");
    }
    let stats = silent.shutdown();
    assert!(stats.flight.events.is_empty(), "disabled recorder logged");
}

/// Stage histogram reconciliation: queue-wait, execution, and reply all
/// count exactly the served queries; shed-wait counts exactly the shed
/// requests (their queue time feeds shed-wait, not queue-wait).
#[test]
fn stage_counts_reconcile_with_the_ledger() {
    let snapshot = snapshot_of(4_000, 31);
    let requests = workload(&snapshot, 6, 37);
    let service = Service::start_sharded(
        Arc::clone(&snapshot),
        ServiceConfig {
            workers: 1,
            fault_plan: FaultPlan::none().with_query_latency(Duration::from_millis(10)),
            ..ServiceConfig::default()
        },
    );
    // A slow head + tight deadlines: everything queued behind the first
    // dequeue expires and is shed.
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
    assert!(shed >= 1, "nothing was shed");

    let stats = service.shutdown();
    assert_eq!(stats.queries_served, served);
    assert_eq!(stats.faults.shed, shed);
    assert_eq!(stats.stages.queue_wait.count(), served);
    assert_eq!(stats.stages.execution.count(), served);
    assert_eq!(stats.stages.reply.count(), served);
    assert_eq!(stats.stages.shed_wait.count(), shed);
    // The stage decomposition nests inside the end-to-end histogram:
    // identical sample counts.
    assert_eq!(stats.latency.count(), served);
}

/// Scratch-reuse-style pin for the trace flag: requesting a trace must not
/// change the execution hot path — same scratch capacity profile, same
/// results, whether or not the flag is set. (The trace itself is a `Copy`
/// struct the worker fills inline; the flag only gates that copy.)
#[test]
fn trace_flag_adds_no_scratch_growth() {
    let snapshot = snapshot_of(4_000, 41);
    let requests = workload(&snapshot, 10, 43);
    let planner = Planner::new();
    let cursors: Vec<TreeCursor<'_>> = snapshot.shards().iter().map(|s| s.cursor()).collect();
    let target = Target::Sharded {
        snapshot: &snapshot,
        cursors: &cursors,
    };
    let mut scratch = QueryScratch::new();

    // Warm on untraced requests, twice (amortised growth settles).
    for _ in 0..2 {
        for r in &requests {
            r.execute_on(&planner, &target, &mut scratch);
        }
    }
    let profile = scratch.capacity_profile();
    let reference: Vec<Vec<(u64, u64)>> = requests
        .iter()
        .map(|r| {
            let (_, neighbors, _, _) = r.execute_on(&planner, &target, &mut scratch);
            neighbors
                .iter()
                .map(|n| (n.id.0, n.dist.to_bits()))
                .collect()
        })
        .collect();

    for (i, r) in requests.iter().enumerate() {
        let traced = r.clone().with_trace();
        assert!(traced.trace);
        let (_, neighbors, _, _) = traced.execute_on(&planner, &target, &mut scratch);
        let got: Vec<(u64, u64)> = neighbors
            .iter()
            .map(|n| (n.id.0, n.dist.to_bits()))
            .collect();
        assert_eq!(got, reference[i], "trace flag changed results");
        assert_eq!(
            profile,
            scratch.capacity_profile(),
            "trace flag grew a scratch buffer (query {i})"
        );
    }
}
