//! Snapshot hot-swap determinism: a service whose snapshot is republished
//! mid-run (the refreeze → publish lifecycle) must stay pinnable **per
//! generation** — every response is tagged with the generation that served
//! it, and all responses of one generation are bit-identical to the
//! sequential reference on that generation's snapshot. Workers pick swaps
//! up between queries, so every request submitted after `publish` returns
//! is served on the new generation.

mod common;

use gnn::datasets::{mixed_traffic, MixedOp, MixedSpec, QuerySpec};
use gnn::prelude::*;
use std::sync::Arc;

fn fingerprint(neighbors: &[Neighbor]) -> Vec<(u64, u64)> {
    neighbors
        .iter()
        .map(|n| (n.id.0, n.dist.to_bits()))
        .collect()
}

/// Sequential reference of `groups` on one snapshot.
fn reference(snapshot: &PackedRTree, groups: &[QueryGroup], k: usize) -> Vec<Vec<(u64, u64)>> {
    let requests: Vec<QueryRequest> = groups
        .iter()
        .map(|g| QueryRequest::new(g.clone(), k))
        .collect();
    let mut out = Vec::with_capacity(groups.len());
    common::execute_in_order(
        snapshot,
        &requests,
        &mut QueryScratch::new(),
        |_, neighbors, _| out.push(fingerprint(neighbors)),
    );
    out
}

#[test]
fn every_generation_matches_its_sequential_reference() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Base dataset + a fixed-seed mixed schedule: the updates between
    // generations and the queries of each phase all come from the same
    // deterministic recipe the mixed-traffic experiment uses.
    let mut rng = StdRng::seed_from_u64(4242);
    let base: Vec<Point> = (0..8_000)
        .map(|_| Point::new(rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0))
        .collect();
    let mut tree = RTree::bulk_load(
        RTreeParams::with_capacity(16),
        base.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    );
    let workspace = tree.root_mbr();
    let spec = MixedSpec {
        query: QuerySpec {
            n: 8,
            area_fraction: 0.08,
        },
        queries: 48,
        query_rate_qps: 10_000.0,
        updates: 600,
        update_rate_ups: 50_000.0,
        insert_fraction: 0.5,
    };
    let events = mixed_traffic(workspace, spec, &base, 99);
    let groups: Vec<QueryGroup> = events
        .iter()
        .filter_map(|e| match &e.op {
            MixedOp::Query { points } => Some(QueryGroup::sum(points.clone()).unwrap()),
            _ => None,
        })
        .collect();
    let updates: Vec<&MixedOp> = events
        .iter()
        .filter_map(|e| match &e.op {
            MixedOp::Query { .. } => None,
            op => Some(op),
        })
        .collect();
    assert_eq!(groups.len(), 48);
    assert_eq!(updates.len(), 600);
    let k = 4;

    let mut snapshot = Arc::new(tree.freeze());
    let service = Service::start(Arc::clone(&snapshot), ServiceConfig::with_workers(3));

    // Three generations: serve a slice of queries, apply a slice of
    // updates, refreeze + publish, repeat. Every phase is pinned against
    // the sequential reference on the snapshot its generation serves.
    for (phase, (query_chunk, update_chunk)) in
        groups.chunks(16).zip(updates.chunks(200)).enumerate()
    {
        let generation = phase as u64 + 1;
        assert_eq!(service.generation(), generation);
        let want = reference(&snapshot, query_chunk, k);
        // Every request of the phase is submitted after the previous
        // phase's publish returned, so each is served on this generation.
        let handles: Vec<ResponseHandle> = query_chunk
            .iter()
            .map(|g| {
                let request = QueryRequest::new(g.clone(), k);
                service.submit(request).expect("submitted")
            })
            .collect();
        let responses: Vec<QueryResponse> = handles
            .into_iter()
            .map(|h| h.wait().expect("served"))
            .collect();
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(
                r.generation, generation,
                "phase {phase} query {i}: wrong generation tag"
            );
            assert_eq!(
                fingerprint(&r.neighbors),
                want[i],
                "phase {phase} query {i}: diverged from generation reference"
            );
        }

        // Mutate the live tree and publish a refrozen snapshot — identical
        // to a full freeze by construction (the refreeze property suite
        // pins this; assert it once more on real mixed traffic).
        for op in update_chunk {
            match op {
                MixedOp::Insert { id, point } => tree.insert(LeafEntry::new(PointId(*id), *point)),
                MixedOp::Delete { id, point } => {
                    assert!(tree.remove(PointId(*id), *point), "schedule replay desync")
                }
                MixedOp::Query { .. } => unreachable!(),
            }
        }
        let refrozen = tree.refreeze(&snapshot);
        assert_eq!(refrozen, tree.freeze());
        snapshot = Arc::new(refrozen);
        assert_eq!(service.publish(Arc::clone(&snapshot)), generation + 1);
    }

    let stats = service.shutdown();
    assert_eq!(stats.generation, 4); // three publishes on top of gen 1
    assert_eq!(stats.queries_served, 48);
    assert_eq!(stats.latency.count(), 48);
}

#[test]
fn in_flight_queries_complete_across_continuous_publishing() {
    // Churn test: queries flow while snapshots are republished as fast as
    // refreeze allows. Every response must carry a valid generation and
    // match the reference of the snapshot that generation published —
    // regardless of where the swaps land relative to the dequeues.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(7);
    let mut tree = RTree::bulk_load(
        RTreeParams::with_capacity(16),
        (0..4_000).map(|i| {
            LeafEntry::new(
                PointId(i as u64),
                Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
            )
        }),
    );
    let k = 3;
    let group = QueryGroup::sum(vec![Point::new(50.0, 50.0), Point::new(52.0, 48.0)]).unwrap();

    // Pre-compute the snapshot chain and each generation's reference.
    let mut snapshots: Vec<Arc<PackedRTree>> = vec![Arc::new(tree.freeze())];
    let mut next_id = 10_000u64;
    for _ in 0..8 {
        for _ in 0..50 {
            tree.insert(LeafEntry::new(
                PointId(next_id),
                Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
            ));
            next_id += 1;
        }
        let prev = snapshots.last().unwrap();
        snapshots.push(Arc::new(tree.refreeze(prev)));
    }
    let references: Vec<Vec<(u64, u64)>> = snapshots
        .iter()
        .map(|s| {
            let r = Mbm::best_first().k_gnn(&s.cursor(), &group, k);
            fingerprint(&r.neighbors)
        })
        .collect();

    let service = Service::start(Arc::clone(&snapshots[0]), ServiceConfig::with_workers(2));
    let responses: Vec<QueryResponse> = std::thread::scope(|s| {
        let svc = &service;
        let submitter = s.spawn(move || {
            (0..200)
                .map(|_| {
                    svc.submit(QueryRequest::new(group.clone(), k))
                        .expect("query submitted")
                        .wait()
                        .expect("query served")
                })
                .collect::<Vec<_>>()
        });
        for snap in &snapshots[1..] {
            service.publish(Arc::clone(snap));
            std::thread::yield_now();
        }
        submitter.join().expect("submitter panicked")
    });
    for (i, r) in responses.iter().enumerate() {
        let gen = r.generation;
        assert!(
            (1..=snapshots.len() as u64).contains(&gen),
            "query {i}: generation {gen} out of range"
        );
        assert_eq!(
            fingerprint(&r.neighbors),
            references[gen as usize - 1],
            "query {i}: diverged from the reference of generation {gen}"
        );
    }
    service.shutdown();
}
