//! Accounting sanity: the simulated-I/O counters every experiment relies on
//! must be consistent — logical >= post-buffer I/O, deltas well-formed,
//! query-file charges matching group loads.

use gnn::datasets::uniform_points;
use gnn::prelude::*;

fn setup(n: usize, seed: u64) -> (Vec<Point>, PackedRTree) {
    let ws = Rect::from_corners(0.0, 0.0, 100.0, 100.0);
    let pts = uniform_points(n, ws, seed);
    let tree = RTree::bulk_load(
        RTreeParams::with_capacity(16),
        pts.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();
    (pts, tree)
}

#[test]
fn logical_accesses_dominate_io() {
    let (_, tree) = setup(3000, 1);
    let group = QueryGroup::sum(uniform_points(
        32,
        Rect::from_corners(40.0, 40.0, 60.0, 60.0),
        2,
    ))
    .unwrap();
    for cap in [1usize, 8, 64, 1024] {
        let cursor = TreeCursor::with_buffer(&tree, cap);
        let r = Mqm::new().k_gnn(&cursor, &group, 4);
        assert!(
            r.stats.data_tree.io <= r.stats.data_tree.logical,
            "cap={cap}: io {} > logical {}",
            r.stats.data_tree.io,
            r.stats.data_tree.logical
        );
    }
}

#[test]
fn larger_buffers_never_increase_io() {
    let (_, tree) = setup(3000, 3);
    let group = QueryGroup::sum(uniform_points(
        64,
        Rect::from_corners(20.0, 20.0, 50.0, 50.0),
        4,
    ))
    .unwrap();
    let mut last_io = u64::MAX;
    for cap in [1usize, 16, 128, 4096] {
        let cursor = TreeCursor::with_buffer(&tree, cap);
        let r = Mqm::new().k_gnn(&cursor, &group, 8);
        assert!(
            r.stats.data_tree.io <= last_io,
            "cap={cap} increased IO: {} > {last_io}",
            r.stats.data_tree.io
        );
        last_io = r.stats.data_tree.io;
    }
}

#[test]
fn mqm_gains_most_from_the_buffer() {
    // The paper notes MQM specifically "benefits from the existence of an
    // LRU buffer" because its per-query-point streams revisit shared paths.
    let (_, tree) = setup(5000, 5);
    let group = QueryGroup::sum(uniform_points(
        64,
        Rect::from_corners(30.0, 30.0, 55.0, 55.0),
        6,
    ))
    .unwrap();

    let unbuffered = tree.cursor();
    let r_cold = Mqm::new().k_gnn(&unbuffered, &group, 8);
    let buffered = TreeCursor::with_buffer(&tree, 256);
    let r_warm = Mqm::new().k_gnn(&buffered, &group, 8);
    assert!(
        r_warm.stats.data_tree.io * 2 <= r_cold.stats.data_tree.io,
        "buffer should at least halve MQM I/O: {} vs {}",
        r_warm.stats.data_tree.io,
        r_cold.stats.data_tree.io
    );
}

#[test]
fn take_stats_resets_counters_but_not_the_buffer() {
    let (_, tree) = setup(500, 7);
    let cursor = TreeCursor::with_buffer(&tree, 64);
    cursor.read(cursor.root());
    let first = cursor.take_stats();
    assert_eq!(first.logical, 1);
    assert_eq!(first.io, 1);
    // Same page again: counter restarted, but the page is still cached.
    cursor.read(cursor.root());
    let second = cursor.take_stats();
    assert_eq!(second.logical, 1);
    assert_eq!(second.io, 0, "buffer survived take_stats");
    // reset() clears the buffer too.
    cursor.reset();
    cursor.read(cursor.root());
    assert_eq!(cursor.stats().io, 1);
}

#[test]
fn query_file_charges_match_group_loads() {
    let qpts = uniform_points(320, Rect::from_corners(0.0, 0.0, 10.0, 10.0), 8);
    let qf = GroupedQueryFile::build_with(qpts, 32, 64); // 5 groups, 2 pages each
    let fc = FileCursor::new(qf.file());
    let mut expected = 0u64;
    for gi in 0..qf.group_count() {
        let pts = qf.load_group(&fc, gi);
        expected += qf.groups()[gi].pages.len() as u64;
        assert_eq!(pts.len(), qf.groups()[gi].count);
    }
    assert_eq!(fc.page_reads(), expected);
    assert_eq!(expected, qf.file().page_count() as u64);
}

#[test]
fn disk_algorithm_stats_are_complete() {
    let (data, tree) = setup(2000, 9);
    let _ = data;
    let qpts = uniform_points(200, Rect::from_corners(30.0, 30.0, 70.0, 70.0), 10);
    let qf = GroupedQueryFile::build_with(qpts.clone(), 16, 50);
    let cursor = TreeCursor::with_buffer(&tree, 128);
    let fc = FileCursor::new(qf.file());
    let r = Fmqm::new().k_gnn(&cursor, &qf, &fc, 4, Aggregate::Sum);
    assert!(r.stats.data_tree.logical > 0, "tree accesses recorded");
    assert!(r.stats.query_file_pages > 0, "query pages recorded");
    assert!(r.stats.dist_computations > 0, "distance work recorded");
    assert!(r.stats.total_io() >= r.stats.data_tree.io + r.stats.query_file_pages);

    let r2 = Fmbm::best_first().k_gnn(&cursor, &qf, &fc, 4, Aggregate::Sum);
    assert!(r2.stats.query_file_pages > 0);

    // GCP reports query-tree accesses instead of file pages.
    let qtree = RTree::bulk_load(
        RTreeParams::with_capacity(16),
        qpts.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();
    let dc = tree.cursor();
    let qc = qtree.cursor();
    let r3 = Gcp::new().k_gnn(&dc, &qc, 4);
    assert!(r3.stats.query_tree.logical > 0);
    assert_eq!(r3.stats.query_file_pages, 0);
    assert!(r3.stats.heap_watermark > 0);
}

#[test]
fn stats_deltas_are_isolated_per_query() {
    // Two consecutive queries through one cursor must each report only their
    // own accesses.
    let (_, tree) = setup(2000, 11);
    let cursor = TreeCursor::with_buffer(&tree, 128);
    let g1 = QueryGroup::sum(uniform_points(
        8,
        Rect::from_corners(10.0, 10.0, 20.0, 20.0),
        12,
    ))
    .unwrap();
    let g2 = QueryGroup::sum(uniform_points(
        8,
        Rect::from_corners(80.0, 80.0, 90.0, 90.0),
        13,
    ))
    .unwrap();
    let r1 = Mbm::best_first().k_gnn(&cursor, &g1, 2);
    let r2 = Mbm::best_first().k_gnn(&cursor, &g2, 2);
    let total = cursor.stats();
    assert_eq!(
        r1.stats.data_tree.logical + r2.stats.data_tree.logical,
        total.logical,
        "per-query deltas must sum to cursor total"
    );
}
