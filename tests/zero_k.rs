//! `k = 0` is a malformed but harmless request: every execution surface must
//! answer it with an empty neighbor list and zero cost counters **before any
//! page is read** — never by panicking (under the service that used to be a
//! caught worker panic and a respawn).

use gnn::network::{NetworkSnapshot, RoadNetwork, VertexId};
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

            for cursor in [TreeCursor::unbuffered(&tree), packed.cursor()] {
                let (choice, neighbors, stats, routing) =
                    req.execute_on(&planner, &Target::Single(&cursor), &mut scratch);
                assert_eq!(choice, want_choice, "{algo:?} {agg}");
                assert!(neighbors.is_empty(), "{algo:?} {agg}");
                assert_eq!(stats, QueryStats::default(), "{algo:?} {agg}");
                assert_eq!(routing, ShardRouting::default());
                assert_eq!(cursor.stats().logical, 0, "{algo:?} {agg}: a page was read");
            }

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
    let (_, neighbors, _) = QueryRequest::new(group(Aggregate::Sum), 3).execute_in(
        &planner,
        &packed.cursor(),
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
        // A batch mixing k = 0 with ordinary members.
        let batch: Vec<QueryRequest> = [0usize, 2, 0, 5]
            .iter()
            .map(|&k| QueryRequest::new(group(Aggregate::Sum), k))
            .collect();
        let replies = service
            .submit(Submission::batch(batch))
            .expect("batch submitted")
            .wait_all()
            .expect("batch served");
        let counts: Vec<usize> = replies.iter().map(|r| r.neighbors.len()).collect();
        assert_eq!(counts, [0, 2, 0, 5]);

        let stats = service.shutdown();
        assert_eq!(stats.faults.panics, 0);
        assert_eq!(stats.faults.respawns, 0);
        assert_eq!(stats.queries_served, ALGOS.len() as u64 + 4);
    }
}
