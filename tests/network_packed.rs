//! The packed (CSR snapshot + reusable scratch) network algorithms against
//! the arena reference, and agreement of both with the Dijkstra oracle: same
//! answers bit for bit, never more expansion. The arena entry points refine
//! every candidate to completion; the packed ones stop a refinement once its
//! lower bound reaches `best_dist`. Compared per query: result cardinality,
//! distance **bits** rank by rank, neighbor ids wherever the distance is not
//! an exact tie (which id survives a tie is the algorithm's choice, as
//! between any two algorithms here), `settled_vertices` / `relaxed_edges`
//! packed `<=` arena, and `euclidean_candidates` / `rtree_accesses` equal
//! (the Euclidean stream is consumed identically). Every snapshot passes
//! `PackedGraph::validate` first.

use gnn::network::{
    network_oracle, NetworkGnnResult, NetworkGnnStats, NetworkIer, NetworkScratch, NetworkTa,
    RoadNetwork, VertexId,
};
use gnn::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

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

/// The Euclidean filter index over the data vertices, built exactly as both
/// the arena IER (per query) and `NetworkSnapshot::new` (once) build it.
fn data_tree(g: &RoadNetwork, data: &[VertexId]) -> PackedRTree {
    RTree::bulk_load(
        RTreeParams::default(),
        data.iter()
            .map(|&v| LeafEntry::new(PointId(u64::from(v.0)), g.position(v))),
    )
    .freeze()
}

/// Dijkstra work summed over queries, `[settled_vertices, relaxed_edges]`
/// per side, for the "strictly less expansion overall" assertion.
#[derive(Default)]
struct Expansion {
    arena: [u64; 2],
    packed: [u64; 2],
}

impl Expansion {
    fn add(&mut self, arena: &NetworkGnnStats, packed: &NetworkGnnStats) {
        self.arena[0] += arena.settled_vertices;
        self.arena[1] += arena.relaxed_edges;
        self.packed[0] += packed.settled_vertices;
        self.packed[1] += packed.relaxed_edges;
    }
}

/// Asserts the packed result carries the arena result's answers (ids compared
/// outside `tied`, the distance bits shared by several data vertices) and did
/// no more expansion; adds both sides' Dijkstra counters to `total`.
fn assert_same_answers_no_more_work(
    label: &str,
    arena: &NetworkGnnResult,
    packed: &[Neighbor],
    packed_stats: &NetworkGnnStats,
    tied: &HashSet<u64>,
    total: &mut Expansion,
) {
    assert_eq!(
        arena.neighbors.len(),
        packed.len(),
        "{label}: result cardinality"
    );
    for (a, p) in arena.neighbors.iter().zip(packed) {
        assert_eq!(
            a.dist.to_bits(),
            p.dist.to_bits(),
            "{label}: distance bits ({} vs {})",
            a.dist,
            p.dist
        );
        if !tied.contains(&a.dist.to_bits()) {
            assert_eq!(u64::from(a.vertex.0), p.id.0, "{label}: neighbor id");
        }
    }
    assert!(
        packed_stats.settled_vertices <= arena.stats.settled_vertices,
        "{label}: settled_vertices {} > arena {}",
        packed_stats.settled_vertices,
        arena.stats.settled_vertices
    );
    assert!(
        packed_stats.relaxed_edges <= arena.stats.relaxed_edges,
        "{label}: relaxed_edges {} > arena {}",
        packed_stats.relaxed_edges,
        arena.stats.relaxed_edges
    );
    assert_eq!(
        arena.stats.euclidean_candidates, packed_stats.euclidean_candidates,
        "{label}: euclidean_candidates"
    );
    assert_eq!(
        arena.stats.rtree_accesses, packed_stats.rtree_accesses,
        "{label}: rtree_accesses"
    );
    assert_eq!(arena.stats.bound_pruned, 0, "{label}: arena never prunes");
    total.add(&arena.stats, packed_stats);
}

/// Asserts a result's distances agree with the oracle's (same floating-point
/// expressions evaluated in a different order, so tolerance not bits).
fn assert_matches_oracle(label: &str, got: &[Neighbor], want: &[gnn::network::NetworkNeighbor]) {
    assert_eq!(got.len(), want.len(), "{label}: oracle cardinality");
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g.dist - w.dist).abs() < 1e-9 * (1.0 + w.dist),
            "{label}: {} vs oracle {}",
            g.dist,
            w.dist
        );
    }
}

/// One full comparison on one network: TA and IER, arena vs packed vs
/// oracle, across all three aggregates and k ∈ {1, 4}, reusing a single
/// scratch so epoch-stamped reset is exercised too. Adds the Dijkstra work
/// both sides spent to `total`.
fn check_network(
    g: &RoadNetwork,
    data: &[VertexId],
    query: &[VertexId],
    label: &str,
    total: &mut Expansion,
) {
    let packed = g.freeze();
    assert_eq!(packed.validate(), Ok(()), "{label}");
    let tree = data_tree(g, data);
    let mut scratch = NetworkScratch::new();
    for aggregate in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
        // Distance bits more than one data vertex has: the exact ties.
        let mut seen = HashSet::new();
        let tied: HashSet<u64> = NetworkIer
            .k_gnn(g, data, query, data.len(), aggregate)
            .neighbors
            .iter()
            .map(|n| n.dist.to_bits())
            .filter(|&bits| !seen.insert(bits))
            .collect();
        for k in [1usize, 4] {
            let tag = format!("{label} {aggregate:?} k={k}");
            let want = network_oracle(g, data, query, k, aggregate);

            let arena_ta = NetworkTa.k_gnn(g, data, query, k, aggregate);
            let (out, stats) = NetworkTa.k_gnn_in(&packed, data, query, k, aggregate, &mut scratch);
            let (out, stats) = (out.to_vec(), stats);
            let tag_ta = format!("{tag} TA");
            assert_same_answers_no_more_work(&tag_ta, &arena_ta, &out, &stats, &tied, total);
            assert_matches_oracle(&tag_ta, &out, &want);

            let arena_ier = NetworkIer.k_gnn(g, data, query, k, aggregate);
            let (out, stats) =
                NetworkIer.k_gnn_in(&packed, &tree, query, k, aggregate, &mut scratch);
            let (out, stats) = (out.to_vec(), stats);
            let tag_ier = format!("{tag} IER");
            assert_same_answers_no_more_work(&tag_ier, &arena_ier, &out, &stats, &tied, total);
            assert_matches_oracle(&tag_ier, &out, &want);
        }
    }
}

#[test]
fn packed_matches_arena_on_perturbed_grids() {
    let mut total = Expansion::default();
    for seed in 0..4u64 {
        let g = RoadNetwork::grid(12, 12, 0.25, seed);
        let data = sample_vertices(&g, 50, seed + 100);
        let query = sample_vertices(&g, 1 + (seed as usize % 5), seed + 200);
        check_network(&g, &data, &query, &format!("grid seed={seed}"), &mut total);
    }
    // Equality everywhere would mean the bound never bit.
    assert!(
        total.packed[0] < total.arena[0] && total.packed[1] < total.arena[1],
        "packed [settled, relaxed] {:?} vs arena {:?}",
        total.packed,
        total.arena
    );
}

#[test]
fn ier_takes_euclidean_distance_as_an_exact_lower_bound() {
    // q = (0, 0); a = (1, 0) and b = (0, 1 − 0.3e-9), each one edge of
    // exactly its Euclidean length from q, so b is nearer by 0.3e-9. An edge
    // to a even 0.5e-9 short of its length would put a nearer, while
    // NET-IER, pruning with Euclidean distance, would still answer b:
    // `add_edge_weighted` refuses such an edge.
    let mut g = RoadNetwork::new();
    let q = g.add_vertex(Point::new(0.0, 0.0));
    let a = g.add_vertex(Point::new(1.0, 0.0));
    let b = g.add_vertex(Point::new(0.0, 1.0 - 0.3e-9));
    g.add_edge_weighted(q, a, 1.0);
    g.add_edge(q, b);
    let (data, query) = ([a, b], [q]);
    let want = network_oracle(&g, &data, &query, 1, Aggregate::Sum);
    assert_eq!(want.len(), 1);
    assert_eq!((want[0].vertex, want[0].dist), (b, 1.0 - 0.3e-9));

    let packed = g.freeze();
    let tree = data_tree(&g, &data);
    let mut scratch = NetworkScratch::new();
    let arena = NetworkIer.k_gnn(&g, &data, &query, 1, Aggregate::Sum);
    assert_eq!(arena.neighbors.len(), 1);
    assert_eq!(
        (arena.neighbors[0].vertex, arena.neighbors[0].dist.to_bits()),
        (b, want[0].dist.to_bits()),
        "arena IER"
    );
    let (got, _) = NetworkIer.k_gnn_in(&packed, &tree, &query, 1, Aggregate::Sum, &mut scratch);
    assert_eq!(got.len(), 1);
    assert_eq!(
        (got[0].id, got[0].dist.to_bits()),
        (PointId(u64::from(b.0)), want[0].dist.to_bits()),
        "packed IER"
    );
}

#[test]
fn packed_snap_matches_linear_scan_oracle() {
    // The frozen vertex R-tree snap must pick the same vertex as the O(V)
    // scan it replaced (both tie-break toward the lowest vertex id).
    for seed in 0..3u64 {
        let g = RoadNetwork::grid(10, 10, 0.3, seed);
        let packed = g.freeze();
        let mut rng = StdRng::seed_from_u64(seed + 900);
        for _ in 0..200 {
            let p = Point::new(rng.gen::<f64>() * 11.0 - 1.0, rng.gen::<f64>() * 11.0 - 1.0);
            assert_eq!(packed.snap(p), g.snap_linear(p), "seed {seed} point {p:?}");
        }
    }
}

/// Distance bits of a packed result, rank by rank.
fn bits(neighbors: &[Neighbor]) -> Vec<u64> {
    neighbors.iter().map(|n| n.dist.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The inputs the bounded refinement could get wrong: unit grids (every
    /// bound ties with many others), an island no mainland source reaches,
    /// a duplicated source, a source sitting on a data vertex, and k up to
    /// and past |data|. Packed IER ≡ packed TA ≡ arena IER on distance bits.
    #[test]
    fn bounded_refinement_survives_ties_islands_and_duplicate_sources(
        seed in 0u64..10_000,
        shape in 0usize..3,
        n_data in 4usize..30,
        n_query in 1usize..5,
    ) {
        let mut g = match shape {
            0 => RoadNetwork::grid(9, 9, 0.0, seed),
            1 => RoadNetwork::grid(9, 9, 0.25, seed),
            _ => RoadNetwork::random_geometric(
                70,
                Rect::from_corners(0.0, 0.0, 10.0, 10.0),
                1.6,
                seed,
            ),
        };
        let mut data = sample_vertices(&g, n_data, seed + 1);
        let mut query = sample_vertices(&g, n_query, seed + 2);
        let island = [
            g.add_vertex(Point::new(50.0, 50.0)),
            g.add_vertex(Point::new(51.0, 50.0)),
        ];
        g.add_edge(island[0], island[1]);
        data.push(island[0]);
        query.push(query[0]);
        query.push(data[0]);
        // One case in four strands a source on the island: under SUM/MAX
        // nothing at all is reachable from every source.
        let stranded = seed % 4 == 0;
        if stranded {
            query.push(island[1]);
        }

        let packed = g.freeze();
        prop_assert_eq!(packed.validate(), Ok(()));
        let tree = data_tree(&g, &data);
        let mut scratch = NetworkScratch::new();
        for aggregate in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            for k in [1, 4, data.len(), data.len() + 1] {
                let tag = format!("shape={shape} seed={seed} {aggregate:?} k={k}");
                let arena = NetworkIer.k_gnn(&g, &data, &query, k, aggregate);
                let want: Vec<u64> = arena.neighbors.iter().map(|n| n.dist.to_bits()).collect();
                let oracle = network_oracle(&g, &data, &query, k, aggregate);
                let (ier, stats) =
                    NetworkIer.k_gnn_in(&packed, &tree, &query, k, aggregate, &mut scratch);
                prop_assert_eq!(bits(ier), want.clone(), "{} IER", tag);
                assert_matches_oracle(&format!("{tag} IER"), ier, &oracle);
                prop_assert!(stats.settled_vertices <= arena.stats.settled_vertices);
                let (ta, _) = NetworkTa.k_gnn_in(&packed, &data, &query, k, aggregate, &mut scratch);
                prop_assert_eq!(bits(ta), want, "{} TA", tag);
                assert_matches_oracle(&format!("{tag} TA"), ta, &oracle);
                if aggregate != Aggregate::Min {
                    // Unreachable from some source: never an answer.
                    prop_assert!(ta.iter().all(|n| n.dist.is_finite()));
                    if stranded {
                        prop_assert!(ta.is_empty(), "{}: nothing is reachable", tag);
                    } else {
                        let island_id = u64::from(island[0].0);
                        prop_assert!(ta.iter().all(|n| n.id.0 != island_id));
                    }
                }
            }
        }
    }

    #[test]
    fn packed_matches_arena_on_random_geometric_networks(
        seed in 0u64..10_000,
        n_data in 5usize..40,
        n_query in 1usize..6,
    ) {
        let g = RoadNetwork::random_geometric(
            80,
            Rect::from_corners(0.0, 0.0, 10.0, 10.0),
            1.6,
            seed,
        );
        let data = sample_vertices(&g, n_data, seed + 1);
        let query = sample_vertices(&g, n_query, seed + 2);
        let mut total = Expansion::default();
        check_network(&g, &data, &query, &format!("rg seed={seed}"), &mut total);
    }
}
