//! RefreshDriver lifecycle determinism: a sharded service whose snapshot is
//! continuously refreshed by the background driver (apply updates →
//! per-shard refreeze → publish on the dirty-fraction policy) must stay
//! pinnable **per generation** — every response's generation tag maps to a
//! publish record saying how many updates that generation contains, and the
//! response is bit-identical to the sequential cross-shard reference on the
//! test's own copy of the starting tree with that prefix replayed (the
//! driver keeps no snapshot history to check against).
//! Plus the ownership contract: the driver holds its `Arc<Service>` until
//! it is joined, so a caller may let go of its own handle first — the
//! driver thread is then the service's last owner, publishes its final
//! flush, and drains every accepted request as it ends. Also: updates with
//! a non-finite coordinate are refused, and inserted data is served once
//! its refresh publishes.

use gnn::datasets::{mixed_traffic, query_workload, MixedOp, MixedSpec, QuerySpec};
use gnn::prelude::*;
use std::sync::Arc;

fn fingerprint(neighbors: &[Neighbor]) -> Vec<(u64, u64)> {
    neighbors
        .iter()
        .map(|n| (n.id.0, n.dist.to_bits()))
        .collect()
}

/// Sequential cross-shard reference of one request on one snapshot.
fn reference(snapshot: &ShardedSnapshot, request: &QueryRequest) -> Vec<(u64, u64)> {
    let planner = Planner::new();
    let cursors: Vec<TreeCursor<'_>> = snapshot.shards().iter().map(|s| s.cursor()).collect();
    let mut scratch = QueryScratch::new();
    let target = Target::Sharded {
        snapshot,
        cursors: &cursors,
    };
    let (_, neighbors, _, _) = request.execute_on(&planner, &target, &mut scratch);
    fingerprint(neighbors)
}

fn base_entries(n: usize, seed: u64) -> Vec<LeafEntry> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            LeafEntry::new(
                PointId(i as u64),
                Point::new(rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0),
            )
        })
        .collect()
}

#[test]
fn continuous_refresh_stays_pinnable_per_generation() {
    let entries = base_entries(6_000, 77);
    let base_points: Vec<Point> = entries.iter().map(|e| e.point).collect();
    // The test's own copy of the starting tree: generations are rebuilt on
    // it by replaying the update stream.
    let mut replay_tree = ShardedTree::build(RTreeParams::with_capacity(16), entries.clone(), 4);
    let sharded_tree = ShardedTree::build(RTreeParams::with_capacity(16), entries, 4);
    let workspace = gnn::geom::Rect::bounding(base_points.iter().copied()).unwrap();
    let initial = Arc::new(sharded_tree.freeze_all());
    let service = Arc::new(Service::start_sharded(
        Arc::clone(&initial),
        ServiceConfig::with_workers(4),
    ));
    // Aggressive policy: small bursts of updates trigger publishes, so the
    // run spans several generations.
    let driver = RefreshDriver::start(
        sharded_tree,
        Arc::clone(&service),
        gnn::service::RefreshPolicy {
            dirty_fraction: 0.002,
            ..Default::default()
        },
    );

    // Fixed-seed mixed schedule: the update stream and the query stream
    // come from the same deterministic recipe the mixed-traffic experiment
    // uses.
    let spec = MixedSpec {
        query: QuerySpec {
            n: 8,
            area_fraction: 0.05,
        },
        queries: 60,
        query_rate_qps: 10_000.0,
        updates: 900,
        update_rate_ups: 50_000.0,
        insert_fraction: 0.5,
    };
    let events = mixed_traffic(workspace, spec, &base_points, 4040);
    let mut requests: Vec<QueryRequest> = Vec::new();
    let mut pending: Vec<(QueryRequest, gnn::service::ResponseHandle)> = Vec::new();
    let mut applied_since_wait = 0usize;
    let mut updates: Vec<Update> = Vec::new();
    for e in &events {
        let update = match &e.op {
            MixedOp::Query { points } => {
                let request = QueryRequest::new(QueryGroup::sum(points.clone()).unwrap(), 4);
                pending.push((
                    request.clone(),
                    service.submit(request.clone()).expect("query submitted"),
                ));
                requests.push(request);
                continue;
            }
            MixedOp::Insert { id, point } => Update::Insert(LeafEntry::new(PointId(*id), *point)),
            MixedOp::Delete { id, point } => Update::Remove {
                id: PointId(*id),
                point: *point,
            },
        };
        assert!(driver.apply(update));
        updates.push(update);
        applied_since_wait += 1;
        // Every ~300 updates, wait for the driver to fully drain what was
        // sent. The driver publishes within the same loop iteration that
        // applies a burst (its dirty threshold is far below one burst's
        // dirt) and only then advances its visible counters — so once
        // `applied == sent`, the burst's publish has happened and the run
        // deterministically spans several generations, with queries
        // landing on each.
        if applied_since_wait >= 300 {
            applied_since_wait = 0;
            let mut spins = 0u64;
            while driver.stats().applied < updates.len() as u64 {
                std::thread::yield_now();
                spins += 1;
                assert!(spins < 100_000_000, "driver never drained");
            }
        }
    }
    let responses: Vec<QueryResponse> = pending
        .into_iter()
        .map(|(_, h)| h.wait().expect("query served"))
        .collect();
    // One submitter and one queue: submission order is dequeue order, and
    // no job dequeued later is served on an older generation.
    assert!(
        responses
            .windows(2)
            .all(|w| w[0].generation <= w[1].generation),
        "a generation went backwards in dequeue order"
    );

    let outcome = driver.join().expect("driver run failed");
    assert_eq!(outcome.stats.applied, 900);
    assert_eq!(outcome.stats.missed_removes, 0, "replay desync");
    assert!(
        outcome.stats.published >= 2,
        "policy never fired: {:?}",
        outcome.stats
    );
    // The driver was the only publisher: cycle c produced generation c + 1,
    // and the last one reflects every accepted update.
    assert_eq!(outcome.publishes.len() as u64 + 1, service.generation());
    assert_eq!(outcome.publishes.last().unwrap().applied, 900);
    assert_eq!(service.sharded_snapshot().len(), outcome.tree.len());

    // Per-generation determinism: rebuild each generation in turn — the
    // starting tree with the first `applied` updates replayed, frozen from
    // scratch (refreeze ≡ freeze is pinned by `refreeze_equivalence`) — and
    // match every response tagged with it against the sequential
    // cross-shard reference on the rebuild.
    let mut checked = 0;
    let mut replayed = 0usize;
    for g in 1..=service.generation() {
        let snapshot = if g == 1 {
            Arc::clone(&initial)
        } else {
            let record = outcome.publishes[g as usize - 2];
            assert_eq!(record.generation, g);
            for update in &updates[replayed..record.applied as usize] {
                match *update {
                    Update::Insert(entry) => {
                        replay_tree.insert(entry);
                    }
                    Update::Remove { id, point } => assert!(replay_tree.remove(id, point)),
                }
            }
            replayed = record.applied as usize;
            Arc::new(replay_tree.freeze_all())
        };
        for (i, r) in responses.iter().enumerate() {
            if r.generation != g {
                continue;
            }
            assert_eq!(
                fingerprint(&r.neighbors),
                reference(&snapshot, &requests[i]),
                "query {i}: diverged from the reference of generation {g}"
            );
            assert!((r.routing.primary as usize) < 4);
            assert!(r.routing.consulted >= 1 && r.routing.consulted <= 4);
            checked += 1;
        }
    }
    assert_eq!(checked, responses.len(), "a generation tag out of range");

    let stats = Arc::try_unwrap(service)
        .expect("driver released its service handle")
        .shutdown();
    assert_eq!(stats.queries_served, 60, "{stats:?}");
}

#[test]
fn a_driver_left_as_the_last_owner_publishes_its_flush_and_drains_the_service() {
    // The caller submits, lets go of its own `Arc<Service>` and keeps
    // feeding updates: the driver thread is then the service's only owner.
    // Joining it publishes the final flush and drops the service there,
    // which drains every request accepted before.
    let entries = base_entries(2_000, 88);
    let sharded_tree = ShardedTree::build(RTreeParams::with_capacity(16), entries, 2);
    let service = Arc::new(Service::start_sharded(
        Arc::new(sharded_tree.freeze_all()),
        ServiceConfig::with_workers(2),
    ));
    let driver = RefreshDriver::start(
        sharded_tree,
        Arc::clone(&service),
        gnn::service::RefreshPolicy {
            dirty_fraction: 0.99, // never fires: only the final flush publishes
            max_pending: 1_000_000,
        },
    );
    let spec = QuerySpec {
        n: 4,
        area_fraction: 0.05,
    };
    let workspace = gnn::geom::Rect::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
    let handles: Vec<gnn::service::ResponseHandle> = query_workload(workspace, spec, 200, 8)
        .into_iter()
        .map(|points| {
            let request = QueryRequest::new(QueryGroup::sum(points).unwrap(), 3);
            service.submit(request).expect("query submitted")
        })
        .collect();

    let owner = Arc::downgrade(&service);
    drop(service);
    for i in 0..500u64 {
        assert!(driver.apply(Update::Insert(LeafEntry::new(
            PointId(100_000 + i),
            Point::new((i % 997) as f64, (i % 991) as f64),
        ))));
    }
    assert_eq!(owner.strong_count(), 1, "the driver is the only owner");
    let outcome = driver.join().expect("driver run failed");
    assert_eq!(
        owner.strong_count(),
        0,
        "the driver thread dropped the service"
    );

    // The final flush is the one cycle, and it was published.
    assert_eq!(outcome.stats.applied, 500);
    assert_eq!(outcome.tree.len(), 2_500);
    let flush = *outcome.publishes.last().expect("the final flush");
    assert_eq!((flush.cycle, flush.applied), (1, 500));
    assert_eq!(outcome.stats.published, flush.generation - 1);

    // Every handle answers, and generations never fall in submission
    // (hence dequeue) order.
    let generations: Vec<u64> = handles
        .into_iter()
        .map(|h| {
            let r = h.wait().expect("query served");
            assert_eq!(r.neighbors.len(), 3);
            r.generation
        })
        .collect();
    assert!(generations.windows(2).all(|w| w[0] <= w[1]));
    assert!(generations.iter().all(|&g| g <= flush.generation));
}

#[test]
fn refreshed_data_becomes_queryable() {
    // End-to-end freshness: an inserted point is served once its refresh
    // publishes — the full mutate → refreeze → publish → query loop.
    let entries = base_entries(1_500, 99);
    let sharded_tree = ShardedTree::build(RTreeParams::with_capacity(16), entries, 3);
    let service = Arc::new(Service::start_sharded(
        Arc::new(sharded_tree.freeze_all()),
        ServiceConfig::with_workers(3),
    ));
    let driver = RefreshDriver::start(
        sharded_tree,
        Arc::clone(&service),
        gnn::service::RefreshPolicy {
            dirty_fraction: 1e-9,
            ..Default::default()
        },
    );
    // A point far outside the data's [0,1000]² workspace: once visible, it
    // is unambiguously the 1-NN of a group sitting on top of it.
    let target = Point::new(5_000.0, 5_000.0);
    assert!(driver.apply(Update::Insert(LeafEntry::new(PointId(424_242), target))));
    let group = QueryGroup::sum(vec![target]).unwrap();
    let mut spins = 0u64;
    loop {
        let r = service
            .submit(QueryRequest::new(group.clone(), 1))
            .expect("query submitted")
            .wait()
            .expect("query served");
        if r.neighbors.first().map(|n| n.id) == Some(PointId(424_242)) {
            assert_eq!(r.neighbors[0].dist.to_bits(), 0f64.to_bits());
            break;
        }
        spins += 1;
        std::thread::yield_now();
        assert!(spins < 10_000_000, "inserted point never became queryable");
    }
    driver.join().expect("driver run failed");
    Arc::try_unwrap(service)
        .expect("driver released its service handle")
        .shutdown();
}

#[test]
fn non_finite_updates_are_refused_and_never_served() {
    // ROADMAP 7(2): a NaN or ±∞ coordinate must not enter the tree — once
    // published, every query that reaches the point is answered with a NaN
    // distance. `apply` refuses such updates, insert and remove alike.
    use gnn::core::baseline::linear_scan_points;
    let n = 300;
    let entries = base_entries(n, 5);
    let mut points: Vec<Point> = entries.iter().map(|e| e.point).collect();
    let sharded_tree = ShardedTree::build(RTreeParams::with_capacity(16), entries, 2);
    let service = Arc::new(Service::start_sharded(
        Arc::new(sharded_tree.freeze_all()),
        ServiceConfig::with_workers(2),
    ));
    let generation_at_start = service.generation();
    let driver = RefreshDriver::start(
        sharded_tree,
        Arc::clone(&service),
        gnn::service::RefreshPolicy {
            dirty_fraction: 1e-9,
            ..Default::default()
        },
    );
    let hostile = [
        Point::new(f64::NAN, 500.0),
        Point::new(500.0, f64::INFINITY),
        Point::new(f64::NEG_INFINITY, f64::NAN),
    ];
    for (i, &point) in hostile.iter().enumerate() {
        let id = PointId(900_000 + i as u64);
        assert!(
            !driver.apply(Update::Insert(LeafEntry::new(id, point))),
            "{point:?} was accepted"
        );
    }
    assert!(!driver.apply(Update::Remove {
        id: PointId(0),
        point: Point::new(f64::NAN, 0.0),
    }));
    assert_eq!(driver.stats().rejected, 4);

    // A finite update behind them is applied and published as usual; the
    // refused ones moved neither the counters nor the generation.
    let fresh = Point::new(512.0, 488.0);
    assert!(driver.apply(Update::Insert(LeafEntry::new(PointId(n as u64), fresh))));
    points.push(fresh);
    let outcome = driver.join().expect("driver run failed");
    assert_eq!((outcome.stats.applied, outcome.stats.rejected), (1, 4));
    assert_eq!(outcome.tree.len(), n + 1);
    assert_eq!(service.generation(), generation_at_start + 1);

    // k = N + 1 reaches every point there is: all distances finite, and
    // the answer is the linear scan's.
    let group = QueryGroup::sum(vec![Point::new(500.0, 500.0), Point::new(530.0, 470.0)]).unwrap();
    let want = linear_scan_points(&points, &group, points.len() + 1).neighbors;
    let got = service
        .submit(QueryRequest::new(group, points.len() + 1))
        .expect("query submitted")
        .wait()
        .expect("query served")
        .neighbors;
    assert_eq!(got.len(), n + 1);
    assert!(got.iter().all(|neighbor| neighbor.dist.is_finite()));
    assert_eq!(fingerprint(&got), fingerprint(&want));
    Arc::try_unwrap(service)
        .expect("driver released its service handle")
        .shutdown();
}
