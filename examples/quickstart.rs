//! Quickstart: three users pick the restaurant minimising their total
//! travel distance — the motivating example from the paper's abstract.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gnn::prelude::*;

fn main() {
    // The static dataset P: candidate restaurants, indexed by an R*-tree
    // and frozen into the packed snapshot every query reads.
    let restaurants = [
        ("Noodle Bar", Point::new(1.0, 1.0)),
        ("Trattoria", Point::new(4.0, 5.0)),
        ("Dumpling House", Point::new(9.0, 2.0)),
        ("Taqueria", Point::new(5.0, 4.0)),
        ("Bistro", Point::new(2.0, 8.0)),
    ];
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        restaurants
            .iter()
            .enumerate()
            .map(|(i, &(_, p))| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();

    // The query group Q: three users at their current locations.
    let users = QueryGroup::sum(vec![
        Point::new(2.0, 2.0),
        Point::new(3.0, 6.0),
        Point::new(5.0, 3.0),
    ])
    .expect("valid query group");

    // Ask for the 2 best meeting points with MBM (the paper's best
    // memory-resident algorithm).
    let cursor = tree.cursor();
    let result = Mbm::best_first().k_gnn(&cursor, &users, 2);

    println!("Best meeting restaurants for the group:");
    for (rank, n) in result.neighbors.iter().enumerate() {
        let (name, _) = restaurants[n.id.0 as usize];
        println!(
            "  {}. {:<15} at {}  (total travel distance {:.3})",
            rank + 1,
            name,
            n.point,
            n.dist
        );
    }
    println!(
        "\nCost: {} R-tree node accesses, {} distance computations.",
        result.stats.data_tree.logical, result.stats.dist_computations
    );
}
