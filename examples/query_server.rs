//! A miniature GNN query server: freeze a snapshot, start a 4-worker
//! service, and stream an open-loop §5.1 workload through it, reporting
//! throughput, tail latency, and the paper's node-access metric — then
//! replay a hotspot workload in bursts of concurrent requests.
//!
//! ```text
//! cargo run --release --example query_server
//! ```
//!
//! The workload generator is *open-loop*: queries are scheduled on a
//! fixed-seed Poisson arrival process (here 2 000 q/s) and submitted at
//! their scheduled instants whether or not earlier queries have finished —
//! the honest way to measure a server's latency percentiles. If the server
//! falls behind, arrivals queue up (bounded by the service's queue depth)
//! and the tail percentiles show it. The burst phase draws skewed queries
//! from [`gnn::datasets::hotspot_query_workload`] and submits each burst's
//! requests one by one before waiting on any of them, so the four workers
//! share the burst.
//!
//! A final overload probe sheds a burst of zero-deadline queries, then the
//! report prints the telemetry the service kept while serving: per-stage
//! latency decomposition (queue-wait / execution / reply / shed-wait) and
//! the tail of the flight recorder's merged postmortem timeline.

use gnn::datasets::{
    hotspot_query_workload, open_loop_arrivals, pp_synthetic, HotspotSpec, QuerySpec,
};
use gnn::prelude::*;
use gnn::service::QueryError;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // 1. Build the dataset index and freeze a read-optimized snapshot.
    let points: Vec<Point> = pp_synthetic(20_040_301).into_iter().step_by(10).collect();
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    );
    let snapshot = Arc::new(tree.freeze());
    println!(
        "dataset: {} points, {} pages, height {}",
        snapshot.len(),
        snapshot.node_count(),
        snapshot.height()
    );

    // 2. Start the service: 4 workers, each with its own cursor + scratch.
    let config = ServiceConfig {
        workers: 4,
        queue_depth: 512,
        ..ServiceConfig::default()
    };
    let service = Service::start(Arc::clone(&snapshot), config);
    println!("service: 4 workers, queue depth 512");

    // 3. A §5.1 workload on a Poisson arrival process: 200 queries of 64
    //    points in 8%-area MBRs, at a mean rate of 2 000 queries/sec.
    let spec = QuerySpec {
        n: 64,
        area_fraction: 0.08,
    };
    let arrivals = open_loop_arrivals(snapshot.root_mbr(), spec, 200, 2_000.0, 0xCAFE);

    let started = Instant::now();
    let mut handles = Vec::with_capacity(arrivals.len());
    for arrival in arrivals {
        let due = Duration::from_nanos(arrival.offset_nanos);
        if let Some(wait) = due.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        } // else: behind schedule — open loop, submit immediately
        let group = QueryGroup::sum(arrival.points).expect("workload query");
        handles.push(
            service
                .submit(QueryRequest::new(group, 8))
                .expect("query submitted"),
        );
    }
    let mut answered = 0usize;
    let mut total_na = 0u64;
    for handle in handles {
        let response = handle.wait().expect("query served");
        answered += response.neighbors.len().min(1);
        total_na += response.stats.data_tree.logical;
    }
    let wall = started.elapsed();

    // 4. A hotspot burst phase: 192 skewed queries in bursts of 16, each
    //    burst in flight at once, every request its own submission.
    let hotspot = HotspotSpec {
        query: QuerySpec {
            n: 64,
            area_fraction: 0.01,
        },
        hotspots: 8,
        sigma: 0.02,
        background: 0.2,
    };
    let hot = hotspot_query_workload(snapshot.root_mbr(), hotspot, 192, 0xCAFE);
    let mut burst_answered = 0usize;
    for burst in hot.chunks(16) {
        let burst_handles: Vec<_> = burst
            .iter()
            .map(|points| {
                let group = QueryGroup::sum(points.clone()).expect("workload query");
                service
                    .submit(QueryRequest::new(group, 8))
                    .expect("query submitted")
            })
            .collect();
        for handle in burst_handles {
            let response = handle.wait().expect("query served");
            assert_eq!(response.neighbors.len(), 8, "every burst query is answered");
            burst_answered += 1;
        }
    }

    // 5. An overload probe: a burst of zero-deadline queries. Each is
    //    already expired by the time a worker dequeues it, so the service
    //    sheds the whole burst — feeding the shed-wait histogram and
    //    writing a `shed` tail into the flight recorder.
    let probe = open_loop_arrivals(snapshot.root_mbr(), spec, 32, 1.0e9, 0xBEEF);
    let probe_handles: Vec<_> = probe
        .into_iter()
        .map(|arrival| {
            let group = QueryGroup::sum(arrival.points).expect("workload query");
            service
                .submit(QueryRequest::new(group, 8).with_deadline(Duration::ZERO))
                .expect("query submitted")
        })
        .collect();
    let mut shed = 0usize;
    for handle in probe_handles {
        match handle.wait() {
            Err(SubmitError::Query(QueryError::DeadlineExceeded)) => shed += 1,
            Ok(_) => {}
            Err(e) => panic!("unexpected probe outcome: {e:?}"),
        }
    }

    // 6. Report.
    let stats = service.shutdown();
    let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e6);
    println!(
        "served {} queries ({} one-by-one in {:.3}s -> {:.0} queries/sec)",
        stats.queries_served,
        answered,
        wall.as_secs_f64(),
        answered as f64 / wall.as_secs_f64()
    );
    println!(
        "latency: p50 {:.0}µs  p95 {:.0}µs  p99 {:.0}µs",
        us(stats.latency.p50()),
        us(stats.latency.p95()),
        us(stats.latency.p99())
    );
    println!(
        "cost: {:.1} node accesses / query ({} total, one-by-one phase)",
        total_na as f64 / answered as f64,
        total_na
    );
    println!("hotspot bursts: {burst_answered}/192 queries answered");
    for w in &stats.per_worker {
        println!(
            "  worker {}: {} queries, {} NA, busy {:.1}ms",
            w.worker,
            w.queries,
            w.node_accesses,
            w.busy.as_secs_f64() * 1e3
        );
    }
    println!("overload probe: {shed}/32 zero-deadline queries shed");
    println!("stage decomposition:");
    for (name, s) in stats.stages.named() {
        println!(
            "  {:<10} p50 {:>7.0}µs  p95 {:>7.0}µs  p99 {:>7.0}µs  (n={})",
            name,
            us(s.p50()),
            us(s.p95()),
            us(s.p99()),
            s.count()
        );
    }
    println!(
        "flight recorder tail ({} events kept, {} dropped):",
        stats.flight.events.len(),
        stats.flight.dropped
    );
    let tail = FlightLog {
        events: stats.flight.tail(12).to_vec(),
        dropped: 0,
    };
    print!("{}", tail.render());

    assert_eq!(answered, 200, "every query must return results");
    assert_eq!(burst_answered, 192, "every burst query must return results");
    assert_eq!(shed, 32, "every zero-deadline probe query must be shed");
    assert_eq!(stats.stages.shed_wait.count(), 32);
}
