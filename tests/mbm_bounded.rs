//! Ties and boundaries of the bounded best-first MBM loop.
//!
//! On a packed cursor `Mbm::k_gnn_in` runs the paper's `best_dist`-bounded
//! loop (a heap of nodes only, whole-leaf scoring); on an arena cursor it
//! pulls `k` items from the seed's reference stream. The two mechanisms
//! share no heap, no key and no conversion code, so agreement between them —
//! and with the index-free oracle — on data built to collide is the
//! strongest equivalence the engine has: lattice coordinates with duplicate
//! points make exact-distance ties, node keys equal to `best_dist` and
//! `k` at and beyond the dataset size the common case instead of the
//! measure-zero one.
//!
//! Node accesses are pinned *bounded loop ≡ incremental stream on the same
//! packed tree*: both pop nodes by `(key, page id)`, so they must read the
//! same pages however many keys tie. They are deliberately not compared
//! with the arena's count here: `freeze()` renumbers pages, so which of two
//! nodes with *equal* keys is read first — and whether the second is still
//! needed — differs between the two trees on lattice data (it did before
//! the bounded loop existed). `packed_equivalence` holds packed ≡ arena
//! node accesses on tie-free data.

use gnn::core::baseline::linear_scan_points;
use gnn::prelude::*;
use proptest::prelude::*;

/// Small-integer lattice points, duplicates welcome.
fn lattice(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0u32..6, 0u32..6), 1..max).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(x, y)| Point::new(f64::from(x), f64::from(y)))
            .collect()
    })
}

/// Query points on the half-integer lattice over (and just around) the data.
fn queries() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0u32..15, 0u32..15), 4..5).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(x, y)| Point::new(f64::from(x) * 0.5 - 1.0, f64::from(y) * 0.5 - 1.0))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bounded_loop_equals_reference_stream_and_oracle_on_ties(
        data in lattice(40),
        query in queries(),
    ) {
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(4),
            data.iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        );
        let packed = tree.freeze();
        let len = data.len();

        for n in [1usize, 2, 4] {
            for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
                let group = QueryGroup::with_aggregate(query[..n].to_vec(), agg).unwrap();
                // The full ranking tells which ranks sit inside a tie.
                let full = linear_scan_points(&data, &group, len).neighbors;
                let tied = |i: usize| {
                    (i > 0 && full[i - 1].dist == full[i].dist)
                        || (i + 1 < len && full[i + 1].dist == full[i].dist)
                };

                for k in [1, len - 1, len, len + 1] {
                    if k == 0 {
                        continue;
                    }
                    let what = format!("n={n} {agg} k={k} N={len}");
                    let oracle = linear_scan_points(&data, &group, k).neighbors;
                    let ac = TreeCursor::unbuffered(&tree);
                    let arena = Mbm::best_first().k_gnn(&ac, &group, k).neighbors;
                    let pc = packed.cursor();
                    let bounded = Mbm::best_first().k_gnn(&pc, &group, k).neighbors;
                    let sc = packed.cursor();
                    let streamed: Vec<Neighbor> = MbmStream::new(&sc, &group).take(k).collect();

                    prop_assert_eq!(oracle.len(), k.min(len), "{}: oracle count", what);
                    prop_assert_eq!(arena.len(), oracle.len(), "{}: arena count", what);
                    prop_assert_eq!(bounded.len(), oracle.len(), "{}: bounded count", what);
                    prop_assert_eq!(streamed.len(), oracle.len(), "{}: stream count", what);
                    for (i, want) in oracle.iter().enumerate() {
                        for (name, got) in [
                            ("arena", &arena[i]),
                            ("bounded", &bounded[i]),
                            ("packed stream", &streamed[i]),
                        ] {
                            prop_assert_eq!(
                                got.dist.to_bits(), want.dist.to_bits(),
                                "{}: {} distance at rank {}", what, name, i
                            );
                            // Whatever id a tie retained, it is a real data
                            // point at exactly that distance.
                            prop_assert_eq!(got.point, data[got.id.0 as usize]);
                            prop_assert_eq!(
                                group.dist(got.point).to_bits(), got.dist.to_bits(),
                                "{}: {} reports a wrong distance at rank {}", what, name, i
                            );
                            if !tied(i) {
                                prop_assert_eq!(
                                    got.id, want.id,
                                    "{}: {} id at untied rank {}", what, name, i
                                );
                            }
                        }
                    }
                    // No point is reported twice, ties or not.
                    let mut ids: Vec<u64> = bounded.iter().map(|nb| nb.id.0).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    prop_assert_eq!(ids.len(), bounded.len(), "{}: duplicate id", what);

                    prop_assert_eq!(
                        pc.stats().logical, sc.stats().logical,
                        "{}: node accesses, bounded loop vs incremental stream", what
                    );
                }
            }
        }
    }
}
