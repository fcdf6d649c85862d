//! Cross-algorithm agreement: every GNN algorithm in the workspace is exact,
//! so on identical inputs they must all return the same distance multiset —
//! including the naive oracle.

use gnn::core::baseline::linear_scan_entries;
use gnn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                lo + rng.gen::<f64>() * (hi - lo),
                lo + rng.gen::<f64>() * (hi - lo),
            )
        })
        .collect()
}

fn build_tree(points: &[Point], capacity: usize) -> PackedRTree {
    RTree::bulk_load(
        RTreeParams::with_capacity(capacity),
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze()
}

fn assert_distances_match(name: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{name}: wrong result count");
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g - w).abs() < 1e-6 * (1.0 + w.abs()),
            "{name}: {g} vs oracle {w}"
        );
    }
}

#[test]
fn memory_algorithms_agree_across_many_scenarios() {
    let data = random_points(1500, 1, 0.0, 1000.0);
    let tree = build_tree(&data, 16);
    let scenarios: Vec<(usize, f64, f64, usize)> = vec![
        // (n, span_lo, span_hi, k)
        (1, 0.0, 1000.0, 1),
        (4, 400.0, 600.0, 8),
        (64, 0.0, 250.0, 3),
        (256, 100.0, 900.0, 16),
    ];
    for (si, &(n, lo, hi, k)) in scenarios.iter().enumerate() {
        let q = random_points(n, 100 + si as u64, lo, hi);
        let group = QueryGroup::sum(q).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, k);
        let algos: Vec<(&str, Box<dyn MemoryGnnAlgorithm>)> = vec![
            ("MQM", Box::new(Mqm::new())),
            ("SPM-bf", Box::new(Spm::best_first())),
            ("MBM-bf", Box::new(Mbm::best_first())),
        ];
        for (name, algo) in algos {
            let cursor = tree.cursor();
            let got = algo.k_gnn(&cursor, &group, k);
            assert_distances_match(
                &format!("{name} scenario {si}"),
                &got.distances(),
                &want.distances(),
            );
        }
    }
}

#[test]
fn disk_algorithms_agree_with_memory_algorithms() {
    let data = random_points(800, 2, 0.0, 100.0);
    let tree = build_tree(&data, 16);
    for (si, (qn, qlo, qhi)) in [(60usize, 20.0, 80.0), (150, 0.0, 30.0), (90, 150.0, 200.0)]
        .into_iter()
        .enumerate()
    {
        let qpts = random_points(qn, 300 + si as u64, qlo, qhi);
        let k = 5;
        let group = QueryGroup::sum(qpts.clone()).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, k);

        // F-MQM and F-MBM over a grouped file.
        let qf = GroupedQueryFile::build_with(qpts.clone(), 16, 48);
        assert!(qf.group_count() >= 2, "want multiple groups");
        for (name, algo) in [
            ("F-MQM", Box::new(Fmqm::new()) as Box<dyn FileGnnAlgorithm>),
            ("F-MBM bf", Box::new(Fmbm::best_first())),
        ] {
            let cursor = tree.cursor();
            let fc = FileCursor::new(qf.file());
            let got = algo.k_gnn(&cursor, &qf, &fc, k, Aggregate::Sum);
            assert_distances_match(
                &format!("{name} scenario {si}"),
                &got.distances(),
                &want.distances(),
            );
        }

        // GCP over an R-tree on Q.
        let qtree = build_tree(&qpts, 8);
        let dc = tree.cursor();
        let qc = qtree.cursor();
        let got = Gcp::new().k_gnn(&dc, &qc, k);
        assert!(!got.stats.aborted, "GCP aborted on a small scenario");
        assert_distances_match(
            &format!("GCP scenario {si}"),
            &got.distances(),
            &want.distances(),
        );
    }
}

#[test]
fn aggregates_agree_between_memory_and_file_algorithms() {
    let data = random_points(600, 3, 0.0, 50.0);
    let tree = build_tree(&data, 8);
    let qpts = random_points(70, 4, 10.0, 40.0);
    for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
        let group = QueryGroup::with_aggregate(qpts.clone(), agg).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, 4);

        let cursor = tree.cursor();
        let mqm = Mqm::new().k_gnn(&cursor, &group, 4);
        assert_distances_match(&format!("MQM {agg}"), &mqm.distances(), &want.distances());
        let mbm = Mbm::best_first().k_gnn(&cursor, &group, 4);
        assert_distances_match(&format!("MBM {agg}"), &mbm.distances(), &want.distances());

        let qf = GroupedQueryFile::build_with(qpts.clone(), 16, 32);
        let fc = FileCursor::new(qf.file());
        let fmqm = Fmqm::new().k_gnn(&cursor, &qf, &fc, 4, agg);
        assert_distances_match(
            &format!("F-MQM {agg}"),
            &fmqm.distances(),
            &want.distances(),
        );
        let fmbm = Fmbm::best_first().k_gnn(&cursor, &qf, &fc, 4, agg);
        assert_distances_match(
            &format!("F-MBM {agg}"),
            &fmbm.distances(),
            &want.distances(),
        );
    }
}

#[test]
fn agreement_on_clustered_data_with_ties_and_duplicates() {
    // A dataset full of duplicate coordinates: distance ties everywhere.
    let mut data = Vec::new();
    for i in 0..50u64 {
        let p = Point::new((i % 5) as f64, (i % 7) as f64);
        data.push(p);
        data.push(p); // exact duplicate with a different id
    }
    let tree = build_tree(&data, 4);
    let group = QueryGroup::sum(vec![Point::new(2.0, 3.0), Point::new(3.0, 2.0)]).unwrap();
    let want = linear_scan_entries(tree.iter(), &group, 10);
    for (name, algo) in [
        ("MQM", Box::new(Mqm::new()) as Box<dyn MemoryGnnAlgorithm>),
        ("SPM", Box::new(Spm::best_first())),
        ("MBM", Box::new(Mbm::best_first())),
    ] {
        let cursor = tree.cursor();
        let got = algo.k_gnn(&cursor, &group, 10);
        assert_distances_match(name, &got.distances(), &want.distances());
    }
}

#[test]
fn buffered_and_unbuffered_cursors_give_identical_results() {
    let data = random_points(1000, 5, 0.0, 10.0);
    let tree = build_tree(&data, 16);
    let group = QueryGroup::sum(random_points(16, 6, 2.0, 8.0)).unwrap();
    for (name, algo) in [
        ("MQM", Box::new(Mqm::new()) as Box<dyn MemoryGnnAlgorithm>),
        ("SPM", Box::new(Spm::best_first())),
        ("MBM", Box::new(Mbm::best_first())),
    ] {
        let unbuffered = tree.cursor();
        let buffered = TreeCursor::with_buffer(&tree, 64);
        let a = algo.k_gnn(&unbuffered, &group, 6);
        let b = algo.k_gnn(&buffered, &group, 6);
        assert_eq!(a.distances(), b.distances(), "{name}");
        // Logical accesses identical; buffer can only reduce I/O.
        assert_eq!(
            a.stats.data_tree.logical, b.stats.data_tree.logical,
            "{name}: traversal changed under buffering"
        );
        assert!(b.stats.data_tree.io <= a.stats.data_tree.io, "{name}");
    }
}

#[test]
fn incremental_trees_and_bulk_loaded_trees_agree() {
    let data = random_points(700, 7, 0.0, 100.0);
    let mut incremental = RTree::new(RTreeParams::with_capacity(10));
    for (i, &p) in data.iter().enumerate() {
        incremental.insert(LeafEntry::new(PointId(i as u64), p));
    }
    let bulk = build_tree(&data, 10);
    let group = QueryGroup::sum(random_points(8, 8, 20.0, 70.0)).unwrap();
    let incremental = incremental.freeze();
    let ci = incremental.cursor();
    let cb = bulk.cursor();
    let a = Mbm::best_first().k_gnn(&ci, &group, 5);
    let b = Mbm::best_first().k_gnn(&cb, &group, 5);
    assert_eq!(a.distances(), b.distances());
}
