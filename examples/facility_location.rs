//! Facility location over a realistic city: compare MQM, SPM and MBM on the
//! same queries and see the cost differences the paper's §5.1 reports.
//!
//! The data set is the synthetic PP substitute (24 493 clustered "populated
//! places"); each query is a group of user locations inside a neighborhood
//! MBR, exactly like the paper's workloads.
//!
//! ```text
//! cargo run --release --example facility_location
//! ```

use gnn::datasets::{pp_synthetic, query_workload, QuerySpec};
use gnn::prelude::*;
use std::time::Instant;

fn main() {
    println!("Building the PP-substitute dataset (24 493 places)...");
    let places = pp_synthetic(42);
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        places
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();
    println!(
        "R*-tree: {} points, {} nodes, height {}.\n",
        tree.len(),
        tree.node_count(),
        tree.height()
    );

    // A workload of 20 queries: n = 16 users inside a random MBR covering
    // 8 % of the city.
    let workspace = tree.root_mbr();
    let queries = query_workload(
        workspace,
        QuerySpec {
            n: 16,
            area_fraction: 0.08,
        },
        20,
        7,
    );

    let algorithms: Vec<(&str, Box<dyn MemoryGnnAlgorithm>)> = vec![
        ("MQM", Box::new(Mqm::new())),
        ("SPM", Box::new(Spm::best_first())),
        ("MBM", Box::new(Mbm::best_first())),
    ];

    println!(
        "{:<6} {:>14} {:>16} {:>14}",
        "algo", "avg node acc", "avg dist comps", "avg time (us)"
    );
    let mut reference: Option<Vec<f64>> = None;
    for (name, algo) in &algorithms {
        let mut na = 0u64;
        let mut dc = 0u64;
        let mut us = 0u128;
        for q in &queries {
            let group = QueryGroup::sum(q.clone()).expect("valid group");
            let cursor = TreeCursor::with_buffer(&tree, 128);
            let t0 = Instant::now();
            let r = algo.k_gnn(&cursor, &group, 4);
            us += t0.elapsed().as_micros();
            na += r.stats.data_tree.io;
            dc += r.stats.dist_computations;
            // All three algorithms are exact: they must agree.
            if reference.is_none() {
                reference = Some(r.distances());
            }
        }
        let q = queries.len() as u64;
        println!(
            "{:<6} {:>14.1} {:>16.1} {:>14.1}",
            name,
            na as f64 / q as f64,
            dc as f64 / q as f64,
            us as f64 / q as f64
        );
    }

    // Show one concrete answer with a weighted variant: the third user is a
    // group of 4 people sharing a car.
    let group_pts = queries[0].clone();
    let mut weights = vec![1.0; group_pts.len()];
    weights[2] = 4.0;
    let weighted = QueryGroup::weighted_sum(group_pts.clone(), weights).expect("valid");
    let plain = QueryGroup::sum(group_pts).expect("valid");
    let cursor = tree.cursor();
    let w_best = Mbm::best_first().k_gnn(&cursor, &weighted, 1);
    let p_best = Mbm::best_first().k_gnn(&cursor, &plain, 1);
    println!(
        "\nWeighted demo: plain best = {} (sum {:.4}), with user #3 counting x4 the best = {} (weighted sum {:.4}).",
        p_best.best().unwrap().id,
        p_best.best().unwrap().dist,
        w_best.best().unwrap().id,
        w_best.best().unwrap().dist,
    );
}
