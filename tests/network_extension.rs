//! Cross-crate properties of the network-distance extension: the Euclidean
//! machinery must lower-bound the network results, and the two network
//! algorithms must agree with each other and the oracle on arbitrary
//! topologies.

use gnn::core::baseline::linear_scan_entries;
use gnn::network::{network_oracle, NetworkIer, NetworkTa, RoadNetwork, VertexId};
use gnn::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_vertices(g: &RoadNetwork, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<u32> = (0..g.vertex_count() as u32).collect();
    for i in 0..count.min(picked.len()) {
        let j = rng.gen_range(i..picked.len());
        picked.swap(i, j);
    }
    picked.truncate(count);
    picked.into_iter().map(VertexId).collect()
}

#[test]
fn euclidean_gnn_lower_bounds_network_gnn() {
    // On the same data/query vertices, the Euclidean k-GNN distance is a
    // lower bound of the network k-GNN distance (paths dominate lines).
    for seed in 0..5u64 {
        let g = RoadNetwork::grid(15, 15, 0.25, seed);
        let data = sample_vertices(&g, 60, seed + 100);
        let query = sample_vertices(&g, 4, seed + 200);

        let net = NetworkTa.k_gnn(&g, &data, &query, 1, Aggregate::Sum);
        let tree = RTree::bulk_load(
            RTreeParams::default(),
            data.iter()
                .map(|&v| LeafEntry::new(PointId(u64::from(v.0)), g.position(v))),
        )
        .freeze();
        let group = QueryGroup::sum(query.iter().map(|&v| g.position(v)).collect()).unwrap();
        let cursor = tree.cursor();
        let euclid = Mbm::best_first().k_gnn(&cursor, &group, 1);
        assert!(
            euclid.best().unwrap().dist <= net.neighbors[0].dist + 1e-9,
            "seed {seed}: euclid {} > network {}",
            euclid.best().unwrap().dist,
            net.neighbors[0].dist
        );
    }
}

#[test]
fn network_gnn_on_vertices_degenerates_to_euclidean_on_complete_graphs() {
    // A complete graph with Euclidean weights has network distance ==
    // Euclidean distance, so network GNN == Euclidean GNN over the same
    // vertex set.
    let mut rng = StdRng::seed_from_u64(9);
    let mut g = RoadNetwork::new();
    let vs: Vec<VertexId> = (0..40)
        .map(|_| g.add_vertex(Point::new(rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0)))
        .collect();
    for i in 0..vs.len() {
        for j in (i + 1)..vs.len() {
            g.add_edge(vs[i], vs[j]);
        }
    }
    let data: Vec<VertexId> = vs[..25].to_vec();
    let query: Vec<VertexId> = vs[25..30].to_vec();
    let net = NetworkTa.k_gnn(&g, &data, &query, 3, Aggregate::Sum);

    let group = QueryGroup::sum(query.iter().map(|&v| g.position(v)).collect()).unwrap();
    let entries = data
        .iter()
        .map(|&v| LeafEntry::new(PointId(u64::from(v.0)), g.position(v)));
    let euclid = linear_scan_entries(entries, &group, 3);
    for (n, e) in net.neighbors.iter().zip(euclid.distances()) {
        assert!((n.dist - e).abs() < 1e-9, "{} vs {e}", n.dist);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ta_and_ier_agree_with_oracle_on_random_networks(
        seed in 0u64..10_000,
        n_data in 5usize..40,
        n_query in 1usize..6,
        k in 1usize..4,
    ) {
        let g = RoadNetwork::random_geometric(
            80,
            Rect::from_corners(0.0, 0.0, 10.0, 10.0),
            1.6,
            seed,
        );
        let data = sample_vertices(&g, n_data, seed + 1);
        let query = sample_vertices(&g, n_query, seed + 2);
        let want = network_oracle(&g, &data, &query, k, Aggregate::Sum);
        let ta = NetworkTa.k_gnn(&g, &data, &query, k, Aggregate::Sum);
        let ier = NetworkIer.k_gnn(&g, &data, &query, k, Aggregate::Sum);
        prop_assert_eq!(ta.neighbors.len(), want.len());
        prop_assert_eq!(ier.neighbors.len(), want.len());
        for ((t, i), w) in ta.neighbors.iter().zip(&ier.neighbors).zip(&want) {
            prop_assert!((t.dist - w.dist).abs() < 1e-9 * (1.0 + w.dist));
            prop_assert!((i.dist - w.dist).abs() < 1e-9 * (1.0 + w.dist));
        }
    }
}
