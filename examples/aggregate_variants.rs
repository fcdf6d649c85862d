//! Aggregate variants: SUM vs MAX vs MIN group nearest neighbors.
//!
//! The paper defines GNN over the SUM of distances and names other
//! aggregates as future work; this example shows the extension on a
//! delivery-dispatch scenario:
//!
//! * SUM  — minimise the fleet's total travel (fuel),
//! * MAX  — minimise the worst courier's travel (fairness / latency),
//! * MIN  — any courier close by (first responder).
//!
//! ```text
//! cargo run --example aggregate_variants
//! ```

use gnn::datasets::uniform_points;
use gnn::prelude::*;

fn main() {
    // P: 10 000 candidate depot locations.
    let ws = Rect::from_corners(0.0, 0.0, 100.0, 100.0);
    let depots = uniform_points(10_000, ws, 3);
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        depots
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();

    // Q: five couriers, one far out east.
    let couriers = vec![
        Point::new(20.0, 30.0),
        Point::new(25.0, 35.0),
        Point::new(22.0, 28.0),
        Point::new(30.0, 40.0),
        Point::new(90.0, 80.0), // the outlier
    ];

    println!("Couriers: {couriers:?}\n");
    println!(
        "{:<4} {:>12} {:>26} {:>14}",
        "agg", "depot", "location", "aggregate dist"
    );
    for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
        let group = QueryGroup::with_aggregate(couriers.clone(), agg).expect("valid query group");
        let cursor = tree.cursor();
        // MBM supports all aggregates; SPM would reject MAX/MIN.
        let r = Mbm::best_first().k_gnn(&cursor, &group, 1);
        let best = r.best().expect("non-empty dataset");
        println!(
            "{:<4} {:>12} {:>26} {:>14.3}",
            agg.to_string(),
            best.id.to_string(),
            best.point.to_string(),
            best.dist
        );
    }

    println!();
    // The incremental stream: walk candidates in ascending SUM distance
    // until one satisfies a side constraint (here: inside the west half).
    let group = QueryGroup::sum(couriers).expect("valid");
    let cursor = tree.cursor();
    let mut scratch = gnn::core::MbmScratch::default();
    let mut stream = MbmStream::new_in(&cursor, &group, &mut scratch);
    let mut inspected = 0usize;
    let chosen = stream.by_ref().find(|n| {
        inspected += 1;
        n.point.x < 50.0
    });
    match chosen {
        Some(n) => println!(
            "First depot in the west half (by ascending total distance): {} at {} after inspecting {} candidates.",
            n.id, n.point, inspected
        ),
        None => println!("No depot in the west half."),
    }
}
