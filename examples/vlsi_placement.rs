//! VLSI wire-length check — the circuit-design motivation from the paper's
//! introduction ("the operability and speed of very large circuits depends
//! on the relative distance between the various components").
//!
//! Given the pads of a net (the query group) and the free slots on the die
//! (the dataset), a GNN query returns the slot minimising total wire length
//! to all pads; the k-GNN list gives fallback slots for the placer.
//!
//! ```text
//! cargo run --example vlsi_placement
//! ```

use gnn::datasets::uniform_points;
use gnn::prelude::*;

fn main() {
    // The die: a 10mm x 10mm grid with 40 000 legal slots (perturbed grid).
    let die = Rect::from_corners(0.0, 0.0, 10_000.0, 10_000.0);
    let slots = uniform_points(40_000, die, 21);
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        slots
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();

    // A 6-pad net that must connect to one new buffer.
    let net = vec![
        Point::new(2_100.0, 3_400.0),
        Point::new(2_800.0, 3_100.0),
        Point::new(2_500.0, 4_000.0),
        Point::new(3_200.0, 3_700.0),
        Point::new(2_900.0, 4_400.0),
        Point::new(2_300.0, 3_900.0),
    ];

    let group = QueryGroup::sum(net.clone()).expect("valid net");
    let cursor = tree.cursor();

    // Compare all three memory algorithms: identical answers, different I/O.
    println!(
        "{:<6} {:>8} {:>14} {:>16}",
        "algo", "k=5", "node accesses", "dist comps"
    );
    for (name, r) in [
        ("MQM", Mqm::new().k_gnn(&cursor, &group, 5)),
        ("SPM", Spm::best_first().k_gnn(&cursor, &group, 5)),
        ("MBM", Mbm::best_first().k_gnn(&cursor, &group, 5)),
    ] {
        println!(
            "{:<6} {:>8.1} {:>14} {:>16}",
            name,
            r.best().unwrap().dist,
            r.stats.data_tree.logical,
            r.stats.dist_computations
        );
    }

    let r = Mbm::best_first().k_gnn(&cursor, &group, 5);
    println!("\nBest 5 buffer slots by total wire length (um):");
    for n in &r.neighbors {
        println!(
            "  slot {:<8} at {:<24} wire length {:>10.1}",
            n.id,
            n.point.to_string(),
            n.dist
        );
    }

    // A MAX-aggregate query bounds the longest single wire instead (timing
    // closure rather than total routing cost).
    let timing_group = QueryGroup::with_aggregate(net, Aggregate::Max).expect("valid");
    let t = Mbm::best_first().k_gnn(&cursor, &timing_group, 1);
    let best = t.best().unwrap();
    println!(
        "\nTiming-driven (MAX) choice: slot {} at {} with worst wire {:.1} um.",
        best.id, best.point, best.dist
    );
}
