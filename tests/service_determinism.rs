//! Concurrent determinism: the serving layer must be a pure scheduling
//! wrapper. An interleaved MQM/SPM/MBM workload submitted through the
//! service on 1, 2 and 8 workers has to produce — per query — the same
//! neighbor ids, bit-identical distances, and the same node accesses as the
//! sequential reference, and the aggregate node-access totals (the paper's
//! cost metric) must survive concurrency exactly.

mod common;

use gnn::datasets::query_workload;
use gnn::datasets::QuerySpec;
use gnn::prelude::*;
use std::sync::Arc;

fn build_snapshot(n: usize, seed: u64) -> (RTree, Arc<PackedRTree>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        (0..n).map(|i| {
            LeafEntry::new(
                PointId(i as u64),
                Point::new(rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0),
            )
        }),
    );
    let packed = Arc::new(tree.freeze());
    (tree, packed)
}

/// An interleaved workload cycling through the three memory algorithms,
/// group sizes, and k values.
fn interleaved_requests(workspace: Rect, count: usize, seed: u64) -> Vec<QueryRequest> {
    let algos = [Algo::Mqm, Algo::Spm, Algo::Mbm, Algo::Auto];
    let spec = QuerySpec {
        n: 8,
        area_fraction: 0.08,
    };
    query_workload(workspace, spec, count, seed)
        .into_iter()
        .enumerate()
        .map(|(i, pts)| {
            let group = QueryGroup::sum(pts).expect("workload query");
            QueryRequest::with_algo(group, 1 + i % 7, algos[i % algos.len()])
        })
        .collect()
}

/// Per-query fingerprint: ids, distance bits, node accesses, choice.
type Fingerprint = (Vec<u64>, Vec<u64>, u64, Choice);

fn fingerprint(neighbors: &[Neighbor], na: u64, choice: Choice) -> Fingerprint {
    (
        neighbors.iter().map(|n| n.id.0).collect(),
        neighbors.iter().map(|n| n.dist.to_bits()).collect(),
        na,
        choice,
    )
}

#[test]
fn interleaved_workload_is_identical_on_1_2_and_8_workers() {
    let (_tree, snapshot) = build_snapshot(20_000, 42);
    let requests = interleaved_requests(snapshot.root_mbr(), 96, 7);

    // Sequential reference: the exact same execution path (one packed
    // cursor, one scratch, one planner), no threads.
    let planner = Planner::new();
    let cursor = snapshot.cursor();
    let mut scratch = QueryScratch::new();
    let mut reference: Vec<Fingerprint> = Vec::with_capacity(requests.len());
    let mut reference_na_total = 0u64;
    for req in &requests {
        let (choice, neighbors, stats, _) =
            req.execute_on(&planner, &Target::Single(&cursor), &mut scratch);
        reference_na_total += stats.data_tree.logical;
        reference.push(fingerprint(neighbors, stats.data_tree.logical, choice));
    }
    assert!(reference_na_total > 0);

    for workers in [1usize, 2, 8] {
        let service = Service::start(
            Arc::clone(&snapshot),
            ServiceConfig {
                workers,
                queue_depth: 32, // smaller than the batch: exercises backpressure
                ..ServiceConfig::default()
            },
        );
        let handles: Vec<_> = requests
            .iter()
            .map(|r| service.submit(r.clone()).expect("query submitted"))
            .collect();
        let mut na_total = 0u64;
        for (i, handle) in handles.into_iter().enumerate() {
            let r = handle.wait().expect("query served");
            na_total += r.stats.data_tree.logical;
            let got = fingerprint(&r.neighbors, r.stats.data_tree.logical, r.choice);
            assert_eq!(
                got, reference[i],
                "query {i} diverged on {workers} workers (algo {:?})",
                requests[i].algo
            );
        }
        assert_eq!(
            na_total, reference_na_total,
            "aggregate node accesses diverged on {workers} workers"
        );
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, requests.len() as u64);
        assert_eq!(
            stats.node_accesses, reference_na_total,
            "worker-counter NA total diverged on {workers} workers"
        );
        assert_eq!(stats.latency.count(), requests.len() as u64);
    }
}

#[test]
fn service_agrees_with_the_sequential_execute_on_loop() {
    // The determinism anchor: the same planner-routed workload through the
    // service and through the sequential `execute_on` loop gives identical
    // choices, ids, distances, and total node accesses.
    let (_tree, snapshot) = build_snapshot(10_000, 9);
    let spec = QuerySpec {
        n: 16,
        area_fraction: 0.08,
    };
    let requests: Vec<QueryRequest> = query_workload(snapshot.root_mbr(), spec, 64, 3)
        .into_iter()
        .map(|pts| QueryRequest::new(QueryGroup::sum(pts).unwrap(), 5))
        .collect();

    let mut sequential: Vec<(Choice, Vec<Neighbor>)> = Vec::with_capacity(requests.len());
    let mut sequential_na = 0u64;
    common::execute_in_order(
        &snapshot,
        &requests,
        &mut QueryScratch::new(),
        |choice, neighbors, stats| {
            sequential.push((choice, neighbors.to_vec()));
            sequential_na += stats.data_tree.logical;
        },
    );

    let service = Service::start(Arc::clone(&snapshot), ServiceConfig::with_workers(8));
    let handles: Vec<_> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("query submitted"))
        .collect();
    let mut service_na = 0u64;
    for (handle, (choice, want)) in handles.into_iter().zip(&sequential) {
        let r = handle.wait().unwrap();
        assert_eq!(r.choice, *choice);
        service_na += r.stats.data_tree.logical;
        assert_eq!(
            r.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            want.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        // Bit-identical distances: both paths run the same kernels.
        assert_eq!(
            r.neighbors
                .iter()
                .map(|n| n.dist.to_bits())
                .collect::<Vec<_>>(),
            want.iter().map(|n| n.dist.to_bits()).collect::<Vec<_>>()
        );
    }
    assert_eq!(service_na, sequential_na);
    service.shutdown();
}

#[test]
fn eight_worker_throughput_scales_when_cores_allow() {
    // The acceptance target: 8-worker queries/sec >= 4x the single-thread
    // packed baseline. Thread scaling is physically bounded by the host's
    // cores, so the assertion arms only where it can hold.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 8 {
        eprintln!("skipping throughput-scaling assertion: only {cores} core(s) available");
        return;
    }
    let (_tree, snapshot) = build_snapshot(50_000, 11);
    let spec = QuerySpec {
        n: 64,
        area_fraction: 0.08,
    };
    let requests: Vec<QueryRequest> = query_workload(snapshot.root_mbr(), spec, 256, 5)
        .into_iter()
        .map(|pts| QueryRequest::new(QueryGroup::sum(pts).unwrap(), 8))
        .collect();

    // Sequential baseline (warmed).
    let mut scratch = QueryScratch::new();
    common::execute_in_order(&snapshot, &requests, &mut scratch, |_, _, _| {});
    let t0 = std::time::Instant::now();
    common::execute_in_order(&snapshot, &requests, &mut scratch, |_, _, _| {});
    let seq_qps = requests.len() as f64 / t0.elapsed().as_secs_f64();

    // 8-worker service (warmed the same way). Per-request submissions:
    // this measures worker scaling, which a shared-traversal batch would
    // serialize onto one worker.
    let service = Service::start(Arc::clone(&snapshot), ServiceConfig::with_workers(8));
    let submit_all = || -> Vec<_> {
        requests
            .iter()
            .map(|r| service.submit(r.clone()).expect("query submitted"))
            .collect()
    };
    for h in submit_all() {
        h.wait().unwrap();
    }
    let t0 = std::time::Instant::now();
    for h in submit_all() {
        h.wait().unwrap();
    }
    let svc_qps = requests.len() as f64 / t0.elapsed().as_secs_f64();
    service.shutdown();

    assert!(
        svc_qps >= 4.0 * seq_qps,
        "8-worker service reached only {svc_qps:.0} q/s vs sequential {seq_qps:.0} q/s on {cores} cores"
    );
}
