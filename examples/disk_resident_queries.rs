//! Disk-resident query sets: GCP vs F-MQM vs F-MBM (paper §4).
//!
//! When `Q` is too large for memory it lives in a paged file (F-MQM /
//! F-MBM) or in its own R-tree (GCP). This example scales a 3 000-point
//! query set into a sub-workspace of a 12 000-point dataset — a miniature
//! of the paper's §5.2 setup (kept small: GCP's cost explodes with scale,
//! exactly as §5.2 reports) — and prints each algorithm's I/O breakdown.
//!
//! ```text
//! cargo run --release --example disk_resident_queries
//! ```

use gnn::datasets::{centered_subrect, scale_points_to_rect, uniform_points};
use gnn::prelude::*;
use std::time::Instant;

fn main() {
    let ws = Rect::from_corners(0.0, 0.0, 1.0, 1.0);
    let data = uniform_points(12_000, ws, 11);
    let raw_query = uniform_points(3_000, ws, 12);
    // Query workspace: 8% of the data workspace, shared center (§5.2).
    let query = scale_points_to_rect(&raw_query, centered_subrect(ws, 0.08));

    println!(
        "P: {} points; Q: {} points in an 8% sub-workspace.\n",
        data.len(),
        query.len()
    );

    let data_tree = RTree::bulk_load(
        RTreeParams::default(),
        data.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();

    // --- F-MQM / F-MBM consume a Hilbert-sorted paged file of Q, split in
    //     memory-sized groups (here 1 000 points per group).
    let qfile = GroupedQueryFile::build_with(query.clone(), 64, 1_000);
    println!(
        "Query file: {} pages, {} groups of <= 1000 points.",
        qfile.file().page_count(),
        qfile.group_count()
    );

    let k = 8;
    println!(
        "\n{:<7} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "algo", "tree I/O", "Q I/O", "dist comps", "time (ms)", "best dist"
    );

    let mut results: Vec<(String, f64)> = Vec::new();
    for (name, algo) in [
        ("F-MQM", Box::new(Fmqm::new()) as Box<dyn FileGnnAlgorithm>),
        ("F-MBM", Box::new(Fmbm::best_first())),
    ] {
        let cursor = TreeCursor::with_buffer(&data_tree, 128);
        let fc = FileCursor::new(qfile.file());
        let t0 = Instant::now();
        let r = algo.k_gnn(&cursor, &qfile, &fc, k, Aggregate::Sum);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let best = r.best().expect("non-empty");
        println!(
            "{:<7} {:>10} {:>12} {:>12} {:>12.1} {:>12.4}",
            name,
            r.stats.data_tree.io,
            r.stats.query_file_pages,
            r.stats.dist_computations,
            ms,
            best.dist
        );
        results.push((name.to_string(), best.dist));
    }

    // --- GCP needs Q indexed by its own R-tree.
    let query_tree = RTree::bulk_load(
        RTreeParams::default(),
        query
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();
    let dc = TreeCursor::with_buffer(&data_tree, 128);
    let qc = TreeCursor::with_buffer(&query_tree, 128);
    let t0 = Instant::now();
    let r = Gcp::new().k_gnn(&dc, &qc, k);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let best = r.best().expect("non-empty");
    println!(
        "{:<7} {:>10} {:>12} {:>12} {:>12.1} {:>12.4}   (heap watermark {}{})",
        "GCP",
        r.stats.data_tree.io,
        r.stats.query_tree.io,
        r.stats.dist_computations,
        ms,
        best.dist,
        r.stats.heap_watermark,
        if r.stats.aborted { ", ABORTED" } else { "" },
    );
    results.push(("GCP".into(), best.dist));

    // All exact algorithms must agree on the optimum.
    let reference = results[0].1;
    assert!(
        results.iter().all(|(_, d)| (d - reference).abs() < 1e-6),
        "algorithms disagree: {results:?}"
    );
    println!("\nAll three algorithms agree on the optimal meeting point.");
}
