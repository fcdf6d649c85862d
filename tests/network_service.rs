//! Serving-layer determinism for road-network GNN: the trip workload
//! submitted through `Service::start_network` must produce — per query —
//! the same choice, neighbor ids, bit-identical distances, and the same
//! expansion counters as the sequential packed reference
//! (`Target::Network` + `execute_on` on one scratch), on every worker
//! count.

use gnn::datasets::{trip_workload, TripSpec};
use gnn::network::{NetworkSnapshot, RoadNetwork, VertexId};
use gnn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn build_backend(seed: u64) -> (RoadNetwork, Arc<NetworkSnapshot>) {
    let network = RoadNetwork::grid(16, 16, 0.25, seed);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let data: Vec<VertexId> = (0..network.vertex_count() as u32)
        .filter(|_| rng.gen::<f64>() < 0.12)
        .map(VertexId)
        .collect();
    let snapshot = Arc::new(NetworkSnapshot::new(network.freeze(), data));
    (network, snapshot)
}

/// A mixed trip workload: pinned sources and snapped groups, all three
/// aggregates, explicit NET-TA / NET-IER pins and planner-chosen `Auto`,
/// k cycling 1..=6.
fn mixed_requests(network: &RoadNetwork, count: usize, seed: u64) -> Vec<QueryRequest> {
    let spec = TripSpec {
        group_size: 4,
        max_retries: 8,
    };
    let algos = [Algo::NetworkTa, Algo::NetworkIer, Algo::Auto];
    trip_workload(network, spec, count, seed)
        .into_iter()
        .enumerate()
        .map(|(i, trip)| {
            let group = match i % 3 {
                0 => QueryGroup::sum(trip.points.clone()),
                1 => QueryGroup::with_aggregate(trip.points.clone(), Aggregate::Max),
                _ => QueryGroup::with_aggregate(trip.points.clone(), Aggregate::Min),
            }
            .expect("trip group");
            let mut req = QueryRequest::with_algo(group, 1 + i % 6, algos[i % algos.len()]);
            // Alternate pinned trip sources with snap-at-serve groups: both
            // resolution paths must be deterministic under concurrency.
            if i % 2 == 0 {
                req = req.with_network(NetworkQuery::at_vertices(
                    trip.sources.iter().map(|v| v.0).collect(),
                ));
            }
            req
        })
        .collect()
}

/// Per-query fingerprint: choice, ids, distance bits, Dijkstra counters,
/// Euclidean-filter accesses.
type Fingerprint = (Choice, Vec<(u64, u64)>, u64, u64, u64);

fn fingerprint(choice: Choice, neighbors: &[Neighbor], stats: &QueryStats) -> Fingerprint {
    (
        choice,
        neighbors
            .iter()
            .map(|n| (n.id.0, n.dist.to_bits()))
            .collect(),
        stats.settled_vertices,
        stats.relaxed_edges,
        stats.data_tree.logical,
    )
}

fn sequential_reference(backend: &NetworkSnapshot, requests: &[QueryRequest]) -> Vec<Fingerprint> {
    let planner = Planner::new();
    let target = Target::Network(backend);
    let mut scratch = QueryScratch::new();
    requests
        .iter()
        .map(|r| {
            let (choice, neighbors, stats, _) = r.execute_on(&planner, &target, &mut scratch);
            fingerprint(choice, neighbors, &stats)
        })
        .collect()
}

#[test]
fn trip_workload_is_identical_on_1_2_and_8_workers() {
    let (network, backend) = build_backend(21);
    let requests = mixed_requests(&network, 72, 0xCAFE);
    let reference = sequential_reference(&backend, &requests);
    // The workload must actually exercise both network algorithms.
    assert!(reference.iter().any(|f| f.0 == Choice::NetworkTa));
    assert!(reference.iter().any(|f| f.0 == Choice::NetworkIer));

    for workers in [1usize, 2, 8] {
        let service = Service::start_network(
            Arc::clone(&backend) as Arc<dyn NetworkBackend>,
            ServiceConfig {
                workers,
                queue_depth: 24, // smaller than the workload: exercises backpressure
                ..ServiceConfig::default()
            },
        );
        let handles: Vec<_> = requests
            .iter()
            .map(|r| service.submit(r.clone()).expect("network submit"))
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let r = handle.wait().expect("network query served");
            let got = fingerprint(r.choice, &r.neighbors, &r.stats);
            assert_eq!(
                got, reference[i],
                "query {i} diverged on {workers} workers (algo {:?})",
                requests[i].algo
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.queries_served, requests.len() as u64);
        assert_eq!(stats.latency.count(), requests.len() as u64);
    }
}

#[test]
fn network_queries_carry_stage_traces() {
    let (network, backend) = build_backend(5);
    let requests = mixed_requests(&network, 8, 0xBEE);

    let service = Service::start_network(
        Arc::clone(&backend) as Arc<dyn NetworkBackend>,
        ServiceConfig::with_workers(1),
    );
    for req in requests {
        let r = service
            .submit(req.with_trace())
            .expect("network submit")
            .wait()
            .expect("network query served");
        let trace = r.trace.expect("opted-in trace present");
        assert!(trace.execution > std::time::Duration::ZERO);
    }
    service.shutdown();
}

/// A network service has no Euclidean snapshot: every publish entry, the
/// snapshot getters and the refresh driver refuse it (the way they refuse a
/// shard-count change), and its generation — hence every response's tag —
/// stays 1.
#[test]
fn publish_and_refresh_refuse_a_network_service() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (network, backend) = build_backend(9);
    let service = Arc::new(Service::start_network(
        Arc::clone(&backend) as Arc<dyn NetworkBackend>,
        ServiceConfig::with_workers(1),
    ));
    let entries: Vec<LeafEntry> = (0..32)
        .map(|i| LeafEntry::new(PointId(i), Point::new(i as f64, 1.0)))
        .collect();
    let tree = ShardedTree::build(RTreeParams::default(), entries, 1);
    let sharded = Arc::new(tree.freeze_all());
    let single = Arc::clone(sharded.shard(0));

    let refused = |entry: &dyn Fn()| catch_unwind(AssertUnwindSafe(entry)).is_err();
    assert!(refused(&|| {
        service.publish(Arc::clone(&single));
    }));
    assert!(refused(&|| {
        service.publish_sharded(Arc::clone(&sharded));
    }));
    assert!(refused(&|| drop(service.snapshot())));
    assert!(refused(&|| drop(service.sharded_snapshot())));
    let policy = gnn::service::RefreshPolicy::default();
    assert!(catch_unwind(AssertUnwindSafe(|| {
        RefreshDriver::start(tree, Arc::clone(&service), policy)
    }))
    .is_err());

    assert_eq!(service.generation(), 1, "a refused publish bumped it");
    for request in mixed_requests(&network, 6, 0xD1CE) {
        let r = service.submit(request).unwrap().wait().unwrap();
        assert_eq!(r.generation, 1);
    }
    let stats = Arc::try_unwrap(service)
        .expect("no driver holds the service")
        .shutdown();
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.queries_served, 6);
}
