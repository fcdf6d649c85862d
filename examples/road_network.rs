//! Network-distance GNN — the paper's future-work extension.
//!
//! Three friends in a city street grid pick the café minimising their total
//! *walking* distance (shortest paths along streets), not the straight-line
//! distance. The detour-heavy topology makes the Euclidean and network
//! answers differ, and shows why the IER algorithm must keep refining past
//! the Euclidean optimum.
//!
//! ```text
//! cargo run --example road_network
//! ```

use gnn::network::{NetworkIer, NetworkTa, RoadNetwork, VertexId};
use gnn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A 30x30 perturbed street grid (900 intersections).
    let city = RoadNetwork::grid(30, 30, 0.25, 7);
    println!(
        "City grid: {} intersections, {} street segments.",
        city.vertex_count(),
        city.edge_count()
    );

    // 60 cafés on random intersections.
    let mut rng = StdRng::seed_from_u64(11);
    let cafes: Vec<VertexId> = (0..60)
        .map(|_| VertexId(rng.gen_range(0..city.vertex_count() as u32)))
        .collect();

    // Three friends at street corners, snapped onto the network through
    // its frozen snapshot's vertex R-tree.
    let frozen = city.freeze();
    let friends: Vec<VertexId> = [
        Point::new(5.0, 5.0),
        Point::new(12.0, 8.0),
        Point::new(7.0, 14.0),
    ]
    .iter()
    .map(|&p| frozen.snap(p).expect("non-empty city"))
    .collect();

    for agg in [Aggregate::Sum, Aggregate::Max] {
        let ta = NetworkTa.k_gnn(&city, &cafes, &friends, 1, agg);
        let ier = NetworkIer.k_gnn(&city, &cafes, &friends, 1, agg);
        let best = &ta.neighbors[0];
        assert!((best.dist - ier.neighbors[0].dist).abs() < 1e-9);
        println!(
            "\n[{agg}] meet at intersection v{} {} (walking aggregate {:.2})",
            best.vertex.0,
            city.position(best.vertex),
            best.dist
        );
        println!(
            "  TA : settled {} vertices, relaxed {} edges",
            ta.stats.settled_vertices, ta.stats.relaxed_edges
        );
        println!(
            "  IER: settled {} vertices, refined {} Euclidean candidates, {} R-tree accesses",
            ier.stats.settled_vertices, ier.stats.euclidean_candidates, ier.stats.rtree_accesses
        );
    }

    // Contrast with the Euclidean answer on the same configuration.
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        cafes
            .iter()
            .map(|&v| LeafEntry::new(PointId(u64::from(v.0)), city.position(v))),
    )
    .freeze();
    let group = QueryGroup::sum(friends.iter().map(|&v| city.position(v)).collect()).unwrap();
    let cursor = tree.cursor();
    let euclid = Mbm::best_first().k_gnn(&cursor, &group, 1);
    let e_best = euclid.best().unwrap();
    let n_best = NetworkTa.k_gnn(&city, &cafes, &friends, 1, Aggregate::Sum);
    println!(
        "\nEuclidean optimum: v{} (straight-line sum {:.2}); network optimum: v{} (walking sum {:.2}).",
        e_best.id.0,
        e_best.dist,
        n_best.neighbors[0].vertex.0,
        n_best.neighbors[0].dist
    );
    println!(
        "The straight-line sum always lower-bounds the walking sum — that is IER's pruning bound."
    );
}
