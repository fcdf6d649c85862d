//! Refreeze ≡ full freeze: after any interleaved insert/delete workload,
//! [`RTree::refreeze`] against the previous snapshot must produce a
//! snapshot **identical** to a from-scratch [`RTree::freeze`] — same pages,
//! same dense BFS ids, same SoA arenas, leaf ids and lanes (pinned by
//! `PackedRTree`'s structural `PartialEq`) — and therefore bit-identical
//! results and node accesses for all six algorithms (MQM, SPM, MBM, F-MQM,
//! F-MBM, GCP). This is the contract that makes refreeze a pure build-cost
//! lever: serving a refrozen snapshot is indistinguishable from serving a
//! full rebuild.

use gnn::core::Gcp;
use gnn::prelude::*;
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![-100.0..100.0f64, 0.0..10_000.0f64,]
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point(), 1..max)
}

/// An update op: `sel < 6` inserts `pt`; otherwise deletes the live entry
/// picked by `victim` (or inserts when nothing is live). The 60/40 mix
/// keeps trees growing while exercising condensation heavily.
type Op = (u64, prop::sample::Index, Point);

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u64..10, any::<prop::sample::Index>(), point()), 1..max)
}

/// Applies `ops`, returning how many were applied as deletions.
fn apply(tree: &mut RTree, live: &mut Vec<LeafEntry>, next_id: &mut u64, ops: &[Op]) -> usize {
    let mut deletes = 0;
    for (sel, victim, pt) in ops {
        if *sel < 6 || live.is_empty() {
            let e = LeafEntry::new(PointId(*next_id), *pt);
            *next_id += 1;
            tree.insert(e);
            live.push(e);
        } else {
            let e = live.swap_remove(victim.index(live.len()));
            assert!(tree.remove(e.id, e.point));
            deletes += 1;
        }
    }
    deletes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The snapshot chain: freeze, mutate, refreeze, mutate, refreeze …
    /// with every link compared structurally against a full freeze of the
    /// same tree state.
    #[test]
    fn refreeze_chain_is_structurally_identical_to_full_freeze(
        base in points(400),
        batches in prop::collection::vec(ops(60), 1..5),
    ) {
        let mut tree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            base.iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        );
        let mut live: Vec<LeafEntry> = tree.iter().collect();
        let mut next_id = base.len() as u64;
        let mut snapshot = tree.freeze();
        prop_assert_eq!(&snapshot, &tree.freeze());
        for batch in &batches {
            apply(&mut tree, &mut live, &mut next_id, batch);
            let incremental = tree.refreeze(&snapshot);
            let full = tree.freeze();
            prop_assert_eq!(&incremental, &full);
            prop_assert_eq!(incremental.len(), live.len());
            prop_assert_eq!(incremental.root_mbr(), tree.root_mbr());
            snapshot = incremental; // chain: next batch reuses this one
        }
    }

    /// All six algorithms agree — results and node accesses — between a
    /// full freeze and a refrozen snapshot of the same mutated tree.
    #[test]
    fn six_algorithms_identical_on_refrozen_snapshot(
        base in points(300),
        updates in ops(120),
        query in points(10),
        k in 1usize..5,
    ) {
        let mut tree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            base.iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        );
        let snapshot = tree.freeze();
        let mut live: Vec<LeafEntry> = tree.iter().collect();
        let mut next_id = base.len() as u64;
        apply(&mut tree, &mut live, &mut next_id, &updates);
        prop_assert!(!tree.is_empty());
        let full = tree.freeze();
        let refrozen = tree.refreeze(&snapshot);
        prop_assert_eq!(&full, &refrozen);

        // Memory algorithms: MQM, SPM, MBM.
        let group = QueryGroup::sum(query.clone()).unwrap();
        let memory: Vec<(&str, Box<dyn MemoryGnnAlgorithm>)> = vec![
            ("MQM", Box::new(Mqm::new())),
            ("SPM", Box::new(Spm::best_first())),
            ("MBM", Box::new(Mbm::best_first())),
        ];
        for (name, algo) in memory {
            let fc = full.cursor();
            let a = algo.k_gnn(&fc, &group, k);
            let rc = refrozen.cursor();
            let b = algo.k_gnn(&rc, &group, k);
            prop_assert_eq!(&a.neighbors, &b.neighbors, "{}: neighbors", name);
            prop_assert_eq!(
                fc.stats().logical,
                rc.stats().logical,
                "{}: node accesses",
                name
            );
        }

        // File algorithms: F-MQM, F-MBM.
        let qf = GroupedQueryFile::build_with(query.clone(), 8, 16);
        let file: Vec<(&str, Box<dyn FileGnnAlgorithm>)> = vec![
            ("F-MQM", Box::new(Fmqm::new())),
            ("F-MBM", Box::new(Fmbm::best_first())),
        ];
        for (name, algo) in file {
            let fc = full.cursor();
            let a = algo.k_gnn(&fc, &qf, &FileCursor::new(qf.file()), k, Aggregate::Sum);
            let rc = refrozen.cursor();
            let b = algo.k_gnn(&rc, &qf, &FileCursor::new(qf.file()), k, Aggregate::Sum);
            prop_assert_eq!(&a.neighbors, &b.neighbors, "{}: neighbors", name);
            prop_assert_eq!(
                fc.stats().logical,
                rc.stats().logical,
                "{}: node accesses",
                name
            );
        }

        // GCP: the query set gets its own tree; the data side runs on the
        // two snapshots.
        let qtree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            query
                .iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        )
        .freeze();
        let gcp = Gcp::default();
        let fc = full.cursor();
        let a = gcp.k_gnn(&fc, &qtree.cursor(), k);
        let rc = refrozen.cursor();
        let b = gcp.k_gnn(&rc, &qtree.cursor(), k);
        prop_assert_eq!(&a.neighbors, &b.neighbors, "GCP: neighbors");
        prop_assert_eq!(fc.stats().logical, rc.stats().logical, "GCP: node accesses");
    }
}
