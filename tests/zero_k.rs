//! `k = 0` is a malformed but harmless request: every execution surface must
//! answer it with an empty neighbor list and zero cost counters **before any
//! page is read** — never by panicking (under the service that used to be a
//! caught worker panic and a respawn). Every direct algorithm entry point
//! answers it empty too (it may read the few pages its first prune test
//! needs). The other end of the range, `k = N + 1` and `k = 2⁴⁰`, is
//! answered with all `N` points through every service surface — the second
//! one without sizing anything by `k` (that used to be a failed allocation
//! and a process abort, which no unwind guard catches).

use gnn::core::baseline::{full_scan_tree, linear_scan_points};
use gnn::core::sharded::sharded_k_gnn_in;
use gnn::network::{NetworkIer, NetworkScratch, NetworkSnapshot, RoadNetwork, VertexId};
use gnn::prelude::*;
use std::sync::Arc;

fn lattice_tree(side: usize) -> RTree {
    RTree::bulk_load(
        RTreeParams::with_capacity(4),
        (0..side * side).map(|i| {
            LeafEntry::new(
                PointId(i as u64),
                Point::new((i % side) as f64, (i / side) as f64),
            )
        }),
    )
}

fn group(agg: Aggregate) -> QueryGroup {
    QueryGroup::with_aggregate(vec![Point::new(2.5, 3.0), Point::new(4.0, 1.5)], agg).unwrap()
}

const ALGOS: [Algo; 4] = [Algo::Auto, Algo::Mqm, Algo::Spm, Algo::Mbm];

/// A `k` far beyond any data set here, and beyond any allocation.
const HUGE_K: usize = 1 << 40;

#[test]
fn execute_on_answers_k_zero_without_reading_a_page() {
    let tree = lattice_tree(12);
    let packed = tree.freeze();
    let sharded = tree.freeze_sharded(3);
    let planner = Planner::new();
    let mut scratch = QueryScratch::new();

    for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
        for algo in ALGOS {
            let req = QueryRequest::with_algo(group(agg), 0, algo);
            // Same choice a k = 1 request would report.
            let (want_choice, ..) = QueryRequest::with_algo(group(agg), 1, algo).execute_on(
                &planner,
                &Target::Single(&packed.cursor()),
                &mut scratch,
            );

            let cursor = packed.cursor();
            let (choice, neighbors, stats, routing) =
                req.execute_on(&planner, &Target::Single(&cursor), &mut scratch);
            assert_eq!(choice, want_choice, "{algo:?} {agg}");
            assert!(neighbors.is_empty(), "{algo:?} {agg}");
            assert_eq!(stats, QueryStats::default(), "{algo:?} {agg}");
            assert_eq!(routing, ShardRouting::default());
            assert_eq!(cursor.stats().logical, 0, "{algo:?} {agg}: a page was read");

            let cursors: Vec<_> = sharded.shards().iter().map(|s| s.cursor()).collect();
            let target = Target::Sharded {
                snapshot: &sharded,
                cursors: &cursors,
            };
            let (_, neighbors, stats, _) = req.execute_on(&planner, &target, &mut scratch);
            assert!(neighbors.is_empty(), "sharded {algo:?} {agg}");
            assert_eq!(stats, QueryStats::default(), "sharded {algo:?} {agg}");
            assert!(cursors.iter().all(|c| c.stats().logical == 0));
        }
    }

    // The scratch keeps serving ordinary requests afterwards.
    let (_, neighbors, ..) = QueryRequest::new(group(Aggregate::Sum), 3).execute_on(
        &planner,
        &Target::Single(&packed.cursor()),
        &mut scratch,
    );
    assert_eq!(neighbors.len(), 3);
}

#[test]
fn network_backend_answers_k_zero() {
    let network = RoadNetwork::grid(8, 8, 0.25, 3);
    let data: Vec<VertexId> = (0..network.vertex_count() as u32)
        .step_by(5)
        .map(VertexId)
        .collect();
    let backend = NetworkSnapshot::new(network.freeze(), data);
    let mut scratch = QueryScratch::new();
    for algo in [Algo::Auto, Algo::NetworkTa, Algo::NetworkIer] {
        let req = QueryRequest::with_algo(group(Aggregate::Sum), 0, algo);
        let (_, neighbors, stats, _) =
            req.execute_on(&Planner::new(), &Target::Network(&backend), &mut scratch);
        assert!(neighbors.is_empty(), "{algo:?}");
        assert_eq!(stats, QueryStats::default(), "{algo:?}");
    }
}

#[test]
fn every_direct_entry_point_answers_k_zero_empty() {
    let tree = lattice_tree(12);
    let packed = tree.freeze();
    let sum = group(Aggregate::Sum);
    let mut scratch = QueryScratch::new();

    let cursor = packed.cursor();
    for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
        let algos: Vec<(&str, Box<dyn MemoryGnnAlgorithm>)> = vec![
            ("MBM", Box::new(Mbm::best_first())),
            ("SPM", Box::new(Spm::best_first())),
            ("MQM", Box::new(Mqm::new())),
        ];
        for (name, algo) in algos {
            if name == "SPM" && agg != Aggregate::Sum {
                continue;
            }
            let g = group(agg);
            assert!(
                algo.k_gnn(&cursor, &g, 0).neighbors.is_empty(),
                "{name} {agg}"
            );
            let (neighbors, _) = algo.k_gnn_in(&cursor, &g, 0, &mut scratch);
            assert!(neighbors.is_empty(), "{name} {agg} through scratch");
        }
    }
    assert!(full_scan_tree(&cursor, &sum, 0).neighbors.is_empty());
    let points: Vec<Point> = tree.iter().map(|e| e.point).collect();
    assert!(linear_scan_points(&points, &sum, 0).neighbors.is_empty());

    let sharded = tree.freeze_sharded(3);
    let cursors: Vec<_> = sharded.shards().iter().map(|s| s.cursor()).collect();
    let (neighbors, ..) = sharded_k_gnn_in(
        &Mbm::best_first(),
        &sharded,
        &cursors,
        &sum,
        0,
        &mut scratch,
    );
    assert!(neighbors.is_empty(), "sharded");

    // The disk-resident algorithms, directly and as the planner runs them.
    let query_tree = RTree::bulk_load(
        RTreeParams::with_capacity(4),
        sum.points()
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();
    let data = packed.cursor();
    let gcp = Gcp::new().k_gnn(&data, &query_tree.cursor(), 0);
    assert!(gcp.neighbors.is_empty(), "GCP");
    let qf = GroupedQueryFile::build_with(sum.points().to_vec(), 16, 32);
    let fc = FileCursor::new(qf.file());
    let file_algos: [(&str, &dyn FileGnnAlgorithm); 2] =
        [("F-MQM", &Fmqm::new()), ("F-MBM", &Fmbm::best_first())];
    for (name, algo) in file_algos {
        let got = algo.k_gnn(&data, &qf, &fc, 0, Aggregate::Sum);
        assert!(got.neighbors.is_empty(), "{name}");
    }
    let (_, planned) = Planner::new().k_gnn_file(&data, &qf, &fc, 0, Aggregate::Sum);
    assert!(planned.neighbors.is_empty(), "planned file query");

    // The network algorithms, arena and packed.
    let network = RoadNetwork::grid(8, 8, 0.25, 3);
    let vertices: Vec<VertexId> = (0..network.vertex_count() as u32)
        .step_by(5)
        .map(VertexId)
        .collect();
    let query = [VertexId(9), VertexId(30)];
    let arena_ta = NetworkTa.k_gnn(&network, &vertices, &query, 0, Aggregate::Sum);
    assert!(arena_ta.neighbors.is_empty(), "arena NET-TA");
    let arena_ier = NetworkIer.k_gnn(&network, &vertices, &query, 0, Aggregate::Sum);
    assert!(arena_ier.neighbors.is_empty(), "arena NET-IER");
    let snapshot = NetworkSnapshot::new(network.freeze(), vertices.clone());
    let mut net = NetworkScratch::new();
    let (ta, _) = NetworkTa.k_gnn_in(
        snapshot.graph(),
        &vertices,
        &query,
        0,
        Aggregate::Sum,
        &mut net,
    );
    assert!(ta.is_empty(), "packed NET-TA");
    let (ier, _) = NetworkIer.k_gnn_in(
        snapshot.graph(),
        snapshot.data_tree(),
        &query,
        0,
        Aggregate::Sum,
        &mut net,
    );
    assert!(ier.is_empty(), "packed NET-IER");
}

#[test]
fn service_replies_ok_to_k_zero_without_a_worker_panic() {
    let tree = lattice_tree(12);
    for service in [
        Service::start(Arc::new(tree.freeze()), ServiceConfig::with_workers(1)),
        Service::start_sharded(
            Arc::new(tree.freeze_sharded(3)),
            ServiceConfig::with_workers(3),
        ),
    ] {
        for algo in ALGOS {
            let reply = service
                .submit(QueryRequest::with_algo(group(Aggregate::Sum), 0, algo))
                .expect("submitted")
                .wait()
                .expect("k = 0 is answered, not failed");
            assert!(reply.neighbors.is_empty(), "{algo:?}");
            assert_eq!(reply.stats.data_tree.logical, 0, "{algo:?}");
        }
        // k = 0 in flight beside ordinary requests.
        let handles: Vec<ResponseHandle> = [0usize, 2, 0, 5]
            .iter()
            .map(|&k| {
                let request = QueryRequest::new(group(Aggregate::Sum), k);
                service.submit(request).expect("submitted")
            })
            .collect();
        let counts: Vec<usize> = handles
            .into_iter()
            .map(|h| h.wait().expect("served").neighbors.len())
            .collect();
        assert_eq!(counts, [0, 2, 0, 5]);

        let stats = service.shutdown();
        assert_eq!(stats.faults.panics, 0);
        assert_eq!(stats.queries_served, ALGOS.len() as u64 + 4);
    }
}

fn dist_bits(neighbors: &[Neighbor]) -> Vec<u64> {
    neighbors.iter().map(|n| n.dist.to_bits()).collect()
}

fn sorted_ids(neighbors: &[Neighbor]) -> Vec<u64> {
    let mut ids: Vec<u64> = neighbors.iter().map(|n| n.id.0).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn service_answers_k_beyond_the_data_with_every_point() {
    let side = 6;
    let tree = lattice_tree(side);
    let n = side * side;
    let points: Vec<Point> = (0..n)
        .map(|i| Point::new((i % side) as f64, (i / side) as f64))
        .collect();
    let everyone: Vec<u64> = (0..n as u64).collect();

    for service in [
        Service::start(Arc::new(tree.freeze()), ServiceConfig::with_workers(1)),
        Service::start_sharded(
            Arc::new(tree.freeze_sharded(2)),
            ServiceConfig::with_workers(2),
        ),
    ] {
        let mut served = 0u64;
        for (agg, k) in [Aggregate::Sum, Aggregate::Max, Aggregate::Min]
            .into_iter()
            .flat_map(|agg| [(agg, n + 1), (agg, HUGE_K)])
        {
            // The lattice is full of ties: ranks compare by distance bits,
            // the answer as a whole by its id set.
            let want = linear_scan_points(&points, &group(agg), k).neighbors;
            assert_eq!(want.len(), n);
            for algo in ALGOS {
                let reply = service
                    .submit(QueryRequest::with_algo(group(agg), k, algo))
                    .expect("submitted")
                    .wait()
                    .expect("k beyond the data is answered, not failed");
                assert_eq!(
                    dist_bits(&reply.neighbors),
                    dist_bits(&want),
                    "{algo:?} {agg} k={k}"
                );
                assert_eq!(sorted_ids(&reply.neighbors), everyone, "{algo:?} {agg}");
                served += 1;
            }
            // The same in flight beside an ordinary request.
            let replies: [QueryResponse; 2] = [k, 2]
                .map(|k| {
                    let request = QueryRequest::new(group(agg), k);
                    service.submit(request).expect("submitted")
                })
                .map(|h| h.wait().expect("served"));
            assert_eq!(dist_bits(&replies[0].neighbors), dist_bits(&want), "{agg}");
            assert_eq!(dist_bits(&replies[1].neighbors), dist_bits(&want[..2]));
            served += 2;
        }
        let stats = service.shutdown();
        assert_eq!(stats.faults.panics, 0);
        assert_eq!(stats.queries_served, served);
    }
}

#[test]
fn network_service_answers_k_beyond_the_data_with_every_data_vertex() {
    let network = RoadNetwork::grid(8, 8, 0.25, 3);
    let data: Vec<VertexId> = (0..network.vertex_count() as u32)
        .step_by(5)
        .map(VertexId)
        .collect();
    let query = [VertexId(9), VertexId(30), VertexId(52)];
    let positions: Vec<Point> = query.iter().map(|&v| network.position(v)).collect();
    let backend = Arc::new(NetworkSnapshot::new(network.freeze(), data.clone()));
    let service = Service::start_network(
        backend as Arc<dyn NetworkBackend>,
        ServiceConfig::with_workers(1),
    );
    let mut served = 0u64;
    for (agg, k) in [Aggregate::Sum, Aggregate::Max, Aggregate::Min]
        .into_iter()
        .flat_map(|agg| [(agg, data.len() + 1), (agg, HUGE_K)])
    {
        // The arena IER refines to completion: the reference ranking.
        let want = NetworkIer.k_gnn(&network, &data, &query, k, agg).neighbors;
        assert_eq!(want.len(), data.len(), "the grid is connected");
        let want_bits: Vec<u64> = want.iter().map(|n| n.dist.to_bits()).collect();
        for algo in [Algo::Auto, Algo::NetworkTa, Algo::NetworkIer] {
            let group = QueryGroup::with_aggregate(positions.clone(), agg).unwrap();
            let sources = NetworkQuery::at_vertices(query.iter().map(|v| v.0).collect());
            let reply = service
                .submit(QueryRequest::with_algo(group, k, algo).with_network(sources))
                .expect("submitted")
                .wait()
                .expect("k beyond the data is answered, not failed");
            assert_eq!(
                dist_bits(&reply.neighbors),
                want_bits,
                "{algo:?} {agg} k={k}"
            );
            let mut vertices: Vec<u64> = data.iter().map(|v| u64::from(v.0)).collect();
            vertices.sort_unstable();
            assert_eq!(sorted_ids(&reply.neighbors), vertices, "{algo:?} {agg}");
            served += 1;
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.faults.panics, 0);
    assert_eq!(stats.queries_served, served);
}
