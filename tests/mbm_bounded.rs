//! Ties and boundaries of the bounded best-first MBM loop.
//!
//! `Mbm::k_gnn_in` runs the paper's `best_dist`-bounded loop (a heap of
//! nodes only, whole-leaf scoring). The seed's reference stream
//! (`tests/common/mbm_reference.rs`) reads the same snapshot pages with
//! one heap of children and lazily converted entries. The two mechanisms
//! share no heap, no key and no conversion code, so agreement between them —
//! and with the index-free oracle — on data built to collide is the
//! strongest equivalence the engine has: lattice coordinates with duplicate
//! points make exact-distance ties, node keys equal to `best_dist` and
//! `k` at and beyond the dataset size the common case instead of the
//! measure-zero one.
//!
//! All three pop nodes by `(key, page id)` on the same snapshot, so their
//! node accesses are pinned however many keys tie: *the library's
//! incremental `MbmStream` ≡ the reference stream*, and *bounded loop ≡
//! the reference's `k`-aware entry*, which drops a node where the bounded
//! loop's supporting plane does (SUM, 2 to `LAZY_MIN − 1` members). So the
//! bounded loop reads at most what the stream reads, and exactly as much
//! wherever there is no plane. Ids are pinned at every rank the oracle's
//! ranking leaves untied; inside a tie each side may keep a different copy,
//! but it must be a real data point at exactly that distance.

use gnn::core::baseline::linear_scan_points;
use gnn::core::MbmScratch;
use gnn::prelude::*;
use proptest::prelude::*;

#[path = "common/mbm_reference.rs"]
mod mbm_reference;
use mbm_reference::{reference_k_gnn, reference_stream_prefix, LAZY_MIN};

/// Whether the bounded loop checks `group`'s supporting plane: SUM, 2 to
/// `LAZY_MIN − 1` members.
fn has_plane(group: &QueryGroup) -> bool {
    group.aggregate() == Aggregate::Sum && (2..LAZY_MIN).contains(&group.len())
}

/// Node accesses of the bounded loop (`bounded`), the library's stream
/// (`streamed`) and the reference's two entries, read on cursors that ran
/// the same query for `k` neighbors.
fn assert_node_accesses(
    bounded: u64,
    streamed: u64,
    group: &QueryGroup,
    k: usize,
    packed: &PackedRTree,
    what: &str,
) {
    let rc = packed.cursor();
    reference_k_gnn(&rc, group, k);
    let uc = packed.cursor();
    reference_stream_prefix(&uc, group, k);
    assert_eq!(
        bounded,
        rc.stats().logical,
        "{what}: node accesses, bounded loop vs reference with the plane"
    );
    assert_eq!(
        streamed,
        uc.stats().logical,
        "{what}: node accesses, incremental stream vs reference without it"
    );
    assert!(
        bounded <= streamed,
        "{what}: the bounded loop read {bounded} pages, the stream {streamed}"
    );
    if !has_plane(group) {
        assert_eq!(bounded, streamed, "{what}: no plane, the same pages");
    }
}

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
        let packed = index(&data, 4);
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
                    let reference = reference_k_gnn(&packed.cursor(), &group, k);
                    let pc = packed.cursor();
                    let bounded = Mbm::best_first().k_gnn(&pc, &group, k).neighbors;
                    let sc = packed.cursor();
                    let mut ms = MbmScratch::default();
                    let streamed: Vec<Neighbor> =
                        MbmStream::new_in(&sc, &group, &mut ms).take(k).collect();

                    prop_assert_eq!(oracle.len(), k.min(len), "{}: oracle count", what);
                    prop_assert_eq!(reference.len(), oracle.len(), "{}: reference count", what);
                    prop_assert_eq!(bounded.len(), oracle.len(), "{}: bounded count", what);
                    prop_assert_eq!(streamed.len(), oracle.len(), "{}: stream count", what);
                    for (i, want) in oracle.iter().enumerate() {
                        for (name, got) in [
                            ("reference", &reference[i]),
                            ("bounded", &bounded[i]),
                            ("incremental stream", &streamed[i]),
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

                    assert_node_accesses(
                        pc.stats().logical, sc.stats().logical, &group, k, &packed, &what,
                    );
                }
            }
        }
    }
}

// ---- the rounded-down f32 leaf filter --------------------------------------
//
// Once `best_dist` is finite the bounded loop scores a SUM leaf in two steps
// on the AVX2 tier: an `f32` lower bound per entry, then the exact distance
// for the entries the bound could not rule out. Nothing about an answer may
// depend on it, so each case below holds the bounded loop to the library's
// incremental stream (which never filters: it runs under bound = ∞), to the
// reference stream and to the index-free oracle — distance bits at every
// rank, ids wherever the rank is untied, node accesses against both streams —
// on data chosen to sit where an `f32` bound is weakest. Under
// `GNN_FORCE_SCALAR=1` (and below AVX2) the same cases run without the `f32`
// stage: groups below `LAZY_MIN` run the all-exact loop and must drop
// nothing, larger ones drop through the block stage alone.

/// Whether this process filters SUM leaves through the `f32` bound.
fn filters() -> bool {
    gnn::geom::simd::dispatch_level() == gnn::geom::SimdLevel::Avx2Fma
}

/// Whether the bounded loop may drop leaf entries of `group`'s query: the
/// `f32` stage on the AVX2 tier, the block stage from `LAZY_MIN` members
/// on every tier; SUM only.
fn may_drop(group: &QueryGroup) -> bool {
    group.aggregate() == Aggregate::Sum && (filters() || group.len() >= LAZY_MIN)
}

/// One query, four engines; returns the bounded loop's counters.
fn assert_equivalent(
    packed: &PackedRTree,
    data: &[Point],
    group: &QueryGroup,
    k: usize,
    what: &str,
) -> QueryStats {
    let len = data.len();
    let full = linear_scan_points(data, group, len).neighbors;
    let tied = |i: usize| {
        (i > 0 && full[i - 1].dist == full[i].dist)
            || (i + 1 < len && full[i + 1].dist == full[i].dist)
    };
    let reference = reference_k_gnn(&packed.cursor(), group, k);
    let pc = packed.cursor();
    let bounded = Mbm::best_first().k_gnn(&pc, group, k);
    let sc = packed.cursor();
    let mut ms = MbmScratch::default();
    let streamed: Vec<Neighbor> = MbmStream::new_in(&sc, group, &mut ms).take(k).collect();

    for (name, got) in [
        ("reference", &reference),
        ("bounded", &bounded.neighbors),
        ("incremental stream", &streamed),
    ] {
        assert_eq!(got.len(), k.min(len), "{what}: {name} count");
        for (i, (g, want)) in got.iter().zip(&full).enumerate() {
            assert_eq!(
                g.dist.to_bits(),
                want.dist.to_bits(),
                "{what}: {name} distance at rank {i}"
            );
            assert_eq!(g.point, data[g.id.0 as usize], "{what}: {name} rank {i}");
            assert_eq!(
                group.dist(g.point).to_bits(),
                g.dist.to_bits(),
                "{what}: {name} reports a wrong distance at rank {i}"
            );
            if !tied(i) {
                assert_eq!(g.id, want.id, "{what}: {name} id at untied rank {i}");
            }
        }
    }
    assert_node_accesses(
        pc.stats().logical,
        sc.stats().logical,
        group,
        k,
        packed,
        what,
    );
    if !may_drop(group) {
        assert_eq!(
            bounded.stats.lower_bound_pruned, 0,
            "{what}: no filter here"
        );
    }
    bounded.stats
}

/// A 12 × 12 integer lattice with every point stored three times — every
/// exact distance occurs at least thrice, bit for bit — scaled by `2^exp`.
fn tripled_lattice(exp: i32) -> Vec<Point> {
    tripled_cells(12, 12, exp)
}

/// A `w × h` integer lattice, every point stored three times, scaled by
/// `2^exp`.
fn tripled_cells(w: u32, h: u32, exp: i32) -> Vec<Point> {
    lattice_copies(w, h, 3, exp)
}

/// A `w × h` integer lattice, every point stored `copies` times, scaled by
/// `2^exp`.
fn lattice_copies(w: u32, h: u32, copies: usize, exp: i32) -> Vec<Point> {
    let s = 2f64.powi(exp);
    (0..w)
        .flat_map(|x| (0..h).map(move |y| (x, y)))
        .flat_map(|cell| vec![cell; copies])
        .map(|(x, y)| Point::new(f64::from(x) * s, f64::from(y) * s))
        .collect()
}

fn index(data: &[Point], capacity: usize) -> PackedRTree {
    RTree::bulk_load(
        RTreeParams::with_capacity(capacity),
        data.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze()
}

/// Off-lattice query points around the middle of the (scaled) lattice.
fn lattice_group(n: usize, exp: i32, weights: Option<Vec<f64>>) -> QueryGroup {
    let s = 2f64.powi(exp);
    let pts: Vec<Point> = [
        (5.5, 5.5),
        (4.25, 6.5),
        (7.0, 3.75),
        (2.5, 8.25),
        (6.5, 6.0),
        (9.0, 5.5),
    ][..n]
        .iter()
        .map(|&(x, y)| Point::new(x * s, y * s))
        .collect();
    match weights {
        Some(w) => QueryGroup::weighted_sum(pts, w).unwrap(),
        None => QueryGroup::sum(pts).unwrap(),
    }
}

#[test]
fn ties_at_the_kth_distance_survive_the_leaf_filter() {
    // k not a multiple of three cuts a run of bit-equal distances: a copy
    // left outside the answer has an exact distance *equal* to `best_dist`.
    // Its rounded-down bound is strictly below that, so the filter passes it
    // on and `offer` refuses it — the answer cannot tell which of the two
    // said no, and the entries further out are the filter's to drop.
    let data = tripled_lattice(0);
    let packed = index(&data, 16);
    let mut dropped = 0;
    for n in [1usize, 4, 6] {
        let group = lattice_group(n, 0, None);
        let full = linear_scan_points(&data, &group, data.len()).neighbors;
        for k in [1usize, 2, 4, 5, 8, 31] {
            assert_eq!(
                full[k - 1].dist.to_bits(),
                full[k].dist.to_bits(),
                "scenario: rank {k} must tie with the k-th distance (n={n})"
            );
            let what = format!("tie lattice n={n} k={k}");
            dropped += assert_equivalent(&packed, &data, &group, k, &what).lower_bound_pruned;
        }
    }
    assert_eq!(
        dropped > 0,
        filters(),
        "the filter bites exactly where it exists"
    );
}

#[test]
fn scales_beyond_f32_fall_back_to_exact_scoring() {
    // 2⁻⁸⁰: every squared difference is below f32's smallest subnormal, the
    // bound is <= 0 and rules nothing out. 2¹⁰⁰: every square overflows, the
    // bound is not finite and rules nothing out. Same answers as the oracle,
    // bit for bit, with nothing dropped.
    for exp in [-80, 100] {
        let data = tripled_lattice(exp);
        let packed = index(&data, 16);
        for n in [1usize, 4, 6] {
            let group = lattice_group(n, exp, None);
            for k in [1usize, 5, 8] {
                let what = format!("lattice·2^{exp} n={n} k={k}");
                let stats = assert_equivalent(&packed, &data, &group, k, &what);
                assert_eq!(
                    stats.lower_bound_pruned, 0,
                    "{what}: f32 cannot see this scale"
                );
            }
        }
    }
}

#[test]
fn weights_sixty_orders_apart_keep_the_filter_sound() {
    // 10⁻³⁰ … 10³⁰ all fit f32, but the sum is one heavy term plus dust the
    // f32 accumulator cannot hold; the far end of the second weighting
    // leaves f32 altogether (narrowed toward zero: 0 below, MAX above).
    let data = tripled_lattice(0);
    let packed = index(&data, 16);
    let mut dropped = 0;
    for (label, w) in [
        ("1e±30", vec![1e-30, 1e30, 1e-18, 1e12, 1.0, 1e-6]),
        ("1e±300", vec![1e-300, 1e20, 3e38, 1e-45, 1e300, 2.5]),
    ] {
        let group = lattice_group(6, 0, Some(w));
        for k in [1usize, 5, 8, 31] {
            let what = format!("weights {label} k={k}");
            dropped += assert_equivalent(&packed, &data, &group, k, &what).lower_bound_pruned;
        }
    }
    assert_eq!(dropped > 0, filters());
}

#[test]
fn large_groups_on_clustered_data_drop_most_entries_and_change_nothing() {
    use gnn::datasets::{gaussian_clusters, ClusterSpec};
    let workspace = Rect::from_corners(0.0, 0.0, 10_000.0, 10_000.0);
    let spec = ClusterSpec {
        clusters: 16,
        sigma: 0.02,
        background: 0.1,
    };
    let data = gaussian_clusters(12_000, workspace, spec, 22);
    let packed = index(&data, 50);
    let (mut dropped, mut exact_pairs) = (0, 0);
    for seed in 0..4u64 {
        // 256 members around one of the data's own points.
        let centre = data[(seed as usize * 2_741) % data.len()];
        let members = gaussian_clusters(
            256,
            Rect::from_corners(
                centre.x - 400.0,
                centre.y - 400.0,
                centre.x + 400.0,
                centre.y + 400.0,
            ),
            ClusterSpec {
                clusters: 3,
                sigma: 0.1,
                background: 0.2,
            },
            100 + seed,
        );
        let group = QueryGroup::sum(members).unwrap();
        let what = format!("gaussian n=256 k=8 seed={seed}");
        let stats = assert_equivalent(&packed, &data, &group, 8, &what);
        dropped += stats.lower_bound_pruned;
        exact_pairs += stats.dist_computations;
    }
    // Every entry the cascade looked at, the first leaf's included, was
    // dropped or paid 256 exact pairs (as did heuristic 3's keys): most are
    // dropped, on every tier — the block stage runs on all of them.
    assert!(
        dropped * 256 > exact_pairs,
        "dropped {dropped} entries against {exact_pairs} exact pairs"
    );
}

// ---- lazy heuristic-3 keys and the block stage -----------------------------
//
// From `LAZY_MIN` = 48 members up, the bounded loop parks a SUM child under
// a one-term centroid key and pays its n-term tight key only when the child
// reaches the top of the heap. Pages must be read in the eager loop's order
// all the same, so the sizes on either side of the threshold and the
// benchmark's 256 hold the bounded loop to both streams (which key
// eagerly) and the oracle on the tie lattice, where equal keys are the
// common case. From the same size up the leaf cascade scores an entry
// against one weighted centroid per block of the group first, on every
// tier: in `f32` on AVX2 where the group's scale lets `f32` see it (the
// lattice at 2⁰), in `f64` otherwise. At 2⁻⁸⁰ and 2¹⁰⁰ `f32` is blind
// (every square under- or overflows it), so the block stage keeps its
// `f64` width there, the `f32` stage drops nothing, and whatever the loop
// drops, the `f64` blocks dropped — and the answers must not notice.

/// `n` distinct off-lattice members over the middle of the (scaled)
/// lattice, on a quarter-cell grid offset by an eighth.
fn spread_group(n: usize, exp: i32) -> QueryGroup {
    let s = 2f64.powi(exp);
    let pts = (0..n)
        .map(|i| {
            let x = 1.125 + ((i * 37) % 41) as f64 * 0.25;
            let y = 1.0625 + ((i * 53) % 43) as f64 * 0.25;
            Point::new(x * s, y * s)
        })
        .collect();
    QueryGroup::sum(pts).unwrap()
}

#[test]
fn lazy_keys_read_the_eager_pages_at_and_around_the_threshold() {
    for exp in [0, -80, 100] {
        let data = tripled_lattice(exp);
        let packed = index(&data, 16);
        for n in [47usize, 48, 256] {
            let group = spread_group(n, exp);
            let mut dropped = 0;
            for k in [1usize, 5, 8, 31] {
                let what = format!("lattice·2^{exp} n={n} k={k}");
                dropped += assert_equivalent(&packed, &data, &group, k, &what).lower_bound_pruned;
            }
            if exp != 0 {
                assert_eq!(
                    dropped > 0,
                    n >= LAZY_MIN,
                    "lattice·2^{exp} n={n}: {dropped} dropped where f32 is blind"
                );
            } else if n >= LAZY_MIN {
                assert!(
                    dropped > 0,
                    "lattice n={n}: the block stage dropped nothing"
                );
            }
        }
    }
}

// ---- the first leaf's ceiling ----------------------------------------------
//
// The first leaf is read while `best_dist` is still ∞. From `LAZY_MIN`
// members up, where it holds more than k entries, the k entries with the
// smallest block bounds (ties to the lower entry index) pay their exact
// sum first, and the stages drop what lies strictly above the largest of
// those sums, V. The list after the leaf must be the all-exact loop's,
// ties included, so these cases pin ids at *every* rank to the reference
// stream's — on lattices where the k-th distance is shared by a witness
// and a non-witness — besides everything `assert_equivalent` pins. On the
// scalar tier the block stage is the ceiling's only stage; at 2⁻⁸⁰ and
// 2¹⁰⁰ it keeps its `f64` width on AVX2 too.

/// `assert_equivalent`, plus the bounded loop's ids at every rank, tied
/// or not, against the reference stream's.
fn assert_reference_ids(
    packed: &PackedRTree,
    data: &[Point],
    group: &QueryGroup,
    k: usize,
    what: &str,
) -> QueryStats {
    let stats = assert_equivalent(packed, data, group, k, what);
    let reference = reference_k_gnn(&packed.cursor(), group, k);
    let bounded = Mbm::best_first()
        .k_gnn(&packed.cursor(), group, k)
        .neighbors;
    let ids = |ns: &[Neighbor]| ns.iter().map(|nb| nb.id).collect::<Vec<_>>();
    assert_eq!(ids(&bounded), ids(&reference), "{what}: ids at tied ranks");
    stats
}

/// [`tripled_cells`] in one leaf page: the root is the leaf the loop reads
/// first.
fn one_leaf_lattice(w: u32, h: u32, exp: i32) -> (Vec<Point>, PackedRTree) {
    let data = tripled_cells(w, h, exp);
    let packed = index(&data, data.len());
    let cursor = packed.cursor();
    assert!(
        matches!(cursor.read(cursor.root()), gnn::rtree::PageRef::Leaf(_)),
        "scenario: one leaf page"
    );
    (data, packed)
}

/// The block bounds of the one-leaf tree's entries, as the loop computes
/// them for an unweighted `group`, in entry order with their ids.
fn block_bounds(packed: &PackedRTree, group: &QueryGroup) -> (Vec<PointId>, Vec<f64>, bool) {
    use gnn::geom::batch::BatchKernels;
    use gnn::geom::bound::BlockBound;
    let (qx, qy): (Vec<f64>, Vec<f64>) = group.points().iter().map(|p| (p.x, p.y)).unzip();
    let ones = vec![1.0; qx.len()];
    let (mut buf, mut narrow) = (Vec::new(), Vec::new());
    let mbr = group.mbr();
    let blocks = BlockBound::new(
        BatchKernels::auto(),
        &qx,
        &qy,
        &ones,
        &mbr,
        &mut buf,
        &mut narrow,
    )
    .expect("scenario: the group has a block bound");
    let cursor = packed.cursor();
    let gnn::rtree::PageRef::Leaf(leaf) = cursor.read(cursor.root()) else {
        unreachable!("one leaf page")
    };
    let (xs, ys) = leaf.coords();
    let mut bounds = Vec::new();
    blocks.lower_padded(xs, ys, leaf.len(), &mut bounds);
    let ids = leaf.ids().to_vec();
    (ids, bounds, blocks.narrowed_weights().is_some())
}

/// The first leaf's witnesses as the loop picks them: the k smallest block
/// bounds, ties to the lower entry index.
fn witnesses(packed: &PackedRTree, group: &QueryGroup, k: usize) -> Vec<PointId> {
    let (ids, bounds, _) = block_bounds(packed, group);
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
    order[..k].iter().map(|&j| ids[j]).collect()
}

#[test]
fn first_leaf_ties_across_witnesses_keep_the_reference_ids() {
    // 8 × 6 cells, three copies each: 144 entries in one leaf. A k that is
    // not a multiple of three cuts a run of bit-equal distances, and the
    // witnesses take the lower-index copies of that run: the k-th distance
    // is shared by a witness and a non-witness, and which of them the list
    // keeps is decided by entry order alone.
    let (data, packed) = one_leaf_lattice(8, 6, 0);
    for n in [LAZY_MIN, 256] {
        let group = spread_group(n, 0);
        let full = linear_scan_points(&data, &group, data.len()).neighbors;
        let (mut split, mut dropped) = (0, 0);
        for k in [1usize, 2, 4, 5, 7, 8, 13, 31] {
            let what = format!("one-leaf lattice n={n} k={k}");
            let kth = full[k - 1].dist;
            let chosen = witnesses(&packed, &group, k);
            let (inside, outside): (Vec<&Neighbor>, Vec<&Neighbor>) = full
                .iter()
                .filter(|nb| nb.dist == kth)
                .partition(|nb| chosen.contains(&nb.id));
            split += usize::from(!inside.is_empty() && !outside.is_empty());
            dropped += assert_reference_ids(&packed, &data, &group, k, &what).lower_bound_pruned;
        }
        assert!(
            split >= 4,
            "n={n}: the k-th tie spans witnesses {split} times"
        );
        assert!(dropped > 0, "n={n}: the ceiling dropped nothing");
    }
    // And across many leaves: the first one the loop reads is ceilinged,
    // the rest run under `best_dist`.
    let data = tripled_lattice(0);
    let packed = index(&data, 16);
    for n in [LAZY_MIN, 256] {
        let group = spread_group(n, 0);
        for k in [1usize, 2, 4, 5, 8, 13] {
            let what = format!("tie lattice n={n} k={k}");
            assert_reference_ids(&packed, &data, &group, k, &what);
        }
    }
}

#[test]
fn an_entry_at_exactly_the_ceiling_is_offered() {
    // Every entry has two bit-equal copies, so the copy after the witness
    // with the largest sum has an exact sum equal to V. It must be offered
    // (only a bound *strictly* above V drops). Each k below 15 that is not
    // a multiple of three cuts one of the first five runs.
    let (data, packed) = one_leaf_lattice(8, 6, 0);
    let group = spread_group(LAZY_MIN, 0);
    let len = data.len() as u64;
    for k in (1..15usize).filter(|k| k % 3 != 0) {
        let chosen = witnesses(&packed, &group, k);
        let ceiling = chosen
            .iter()
            .map(|id| group.dist(data[id.0 as usize]))
            .fold(f64::NEG_INFINITY, f64::max);
        let at_ceiling = data
            .iter()
            .enumerate()
            .filter(|&(i, p)| !chosen.contains(&PointId(i as u64)) && group.dist(*p) == ceiling)
            .count() as u64;
        assert!(at_ceiling > 0, "scenario k={k}: a non-witness ties V");
        let what = format!("at the ceiling k={k}");
        let stats = assert_reference_ids(&packed, &data, &group, k, &what);
        // The root is the leaf: every exact pair is a leaf entry's.
        let exact = stats.dist_computations / LAZY_MIN as u64;
        assert_eq!(
            exact + stats.lower_bound_pruned,
            len,
            "{what}: every entry accounted"
        );
        // Without an `f32` stage (which may drop an entry at V against a
        // `best_dist` already below it) every entry at V is scored.
        if !filters() {
            assert!(
                exact >= k as u64 + at_ceiling,
                "{what}: {exact} exact, {at_ceiling} at V besides {k} witnesses"
            );
        }
    }
}

#[test]
fn first_leaves_of_k_entries_or_fewer_run_no_ceiling() {
    // 5 × 3 cells, three copies each: 45 entries in one leaf. At k = 45
    // and beyond the leaf is scored exactly, every entry; at k = 44 and
    // k = 1 the ceiling runs.
    let (data, packed) = one_leaf_lattice(5, 3, 0);
    let len = data.len();
    for n in [LAZY_MIN, 256] {
        let group = spread_group(n, 0);
        for k in [len, len + 1, 2 * len] {
            let what = format!("one-leaf n={n} k={k}");
            let stats = assert_reference_ids(&packed, &data, &group, k, &what);
            assert_eq!(stats.lower_bound_pruned, 0, "{what}: no ceiling");
            assert_eq!(
                stats.dist_computations,
                (len * n) as u64,
                "{what}: all exact"
            );
        }
        let mut dropped = 0;
        for k in [1, len - 1] {
            let what = format!("one-leaf n={n} k={k}");
            let stats = assert_reference_ids(&packed, &data, &group, k, &what);
            assert_eq!(
                stats.dist_computations / n as u64 + stats.lower_bound_pruned,
                len as u64,
                "{what}: every entry accounted"
            );
            dropped += stats.lower_bound_pruned;
        }
        assert!(dropped > 0, "n={n}: the ceiling dropped nothing at k = 1");
    }
}

#[test]
fn the_ceiling_holds_where_the_block_stage_keeps_its_f64_width() {
    // At 2⁻⁸⁰ and 2¹⁰⁰ `f32` cannot see the group: the block stage runs in
    // `f64` on every tier and the `f32` stage drops nothing, so whatever the
    // first leaf drops, the `f64` blocks dropped against V.
    for exp in [-80, 100] {
        let (data, packed) = one_leaf_lattice(8, 6, exp);
        for n in [LAZY_MIN, 256] {
            let group = spread_group(n, exp);
            let (_, _, narrowed) = block_bounds(&packed, &group);
            assert!(!narrowed, "lattice·2^{exp} n={n}: the blocks keep f64");
            let mut dropped = 0;
            for k in [1usize, 5, 8, 31] {
                let what = format!("one-leaf lattice·2^{exp} n={n} k={k}");
                dropped +=
                    assert_reference_ids(&packed, &data, &group, k, &what).lower_bound_pruned;
            }
            assert!(
                dropped > 0,
                "lattice·2^{exp} n={n}: the ceiling dropped nothing"
            );
        }
        let data = tripled_lattice(exp);
        let packed = index(&data, 16);
        for k in [1usize, 5, 8] {
            let group = spread_group(256, exp);
            let what = format!("lattice·2^{exp} n=256 k={k}");
            assert_reference_ids(&packed, &data, &group, k, &what);
        }
    }
}

// ---- the supporting plane --------------------------------------------------
//
// A SUM group of 2 to `LAZY_MIN − 1` members drops, unread, a node whose
// supporting plane reaches `best_dist`. The answer must not notice: each
// case holds the bounded loop to the oracle (distance bits, untied ids),
// to the reference's `k`-aware entry (every page it reads, exactly) and
// to the stream (at most its pages), on shapes where the plane is at its
// tightest or its rounding is: members on one line (the plane is flat
// along the segment between them), members on one point (heuristic 3 is
// then the exact minimum over a rect, and the plane drops nothing), leaves
// whose MBR is a point, ties at the k-th rank, scales 2⁻⁸⁰ and 2¹⁰⁰, and
// weights sixty and six hundred orders of magnitude apart. One member has
// no plane: the bounded loop reads the stream's pages.

/// The plane cases' groups at scale `2^exp`, named, with whether the plane
/// must drop a node for them (`Some(true)`), must not (`Some(false)`), or
/// either: one weight of `10³⁰` or more makes the group nearly one member,
/// whose heuristic 3 the plane rarely beats.
fn plane_groups(exp: i32) -> Vec<(&'static str, QueryGroup, Option<bool>)> {
    let s = 2f64.powi(exp);
    let at = |x: f64, y: f64| Point::new(x * s, y * s);
    let sum = |pts: Vec<Point>| QueryGroup::sum(pts).unwrap();
    let mut groups = vec![
        ("one member", sum(vec![at(5.5, 5.5)]), Some(false)),
        (
            "collinear n=2",
            sum(vec![at(2.25, 5.5), at(9.75, 5.5)]),
            Some(true),
        ),
        (
            "collinear n=3 diagonal",
            sum(vec![at(2.5, 2.5), at(6.5, 6.5), at(9.5, 9.5)]),
            Some(true),
        ),
        ("coincident n=5", sum(vec![at(5.25, 6.75); 5]), Some(false)),
        ("spread n=6", lattice_group(6, exp, None), Some(true)),
        ("spread n=47", spread_group(LAZY_MIN - 1, exp), Some(true)),
    ];
    if exp == 0 {
        for (label, w) in [
            ("weights 1e±30", vec![1e-30, 1e30, 1e-18, 1e12, 1.0, 1e-6]),
            (
                "weights 1e±300",
                vec![1e-300, 1e20, 3e38, 1e-45, 1e300, 2.5],
            ),
        ] {
            groups.push((label, lattice_group(6, 0, Some(w)), None));
        }
    }
    groups
}

#[test]
fn the_plane_drops_pages_and_changes_no_answer() {
    for exp in [0, -80, 100] {
        // Ties at the k-th rank: three copies of every lattice point, and
        // k not a multiple of three cuts a run of bit-equal distances.
        // Point rects: four copies of every point, four to a leaf.
        let tripled = tripled_lattice(exp);
        let quadrupled = lattice_copies(12, 12, 4, exp);
        for (data, capacity, label) in [
            (&tripled, 16, "tie lattice"),
            (&quadrupled, 4, "point leaves"),
        ] {
            let packed = index(data, capacity);
            for (name, group, drops) in plane_groups(exp) {
                let (mut bounded, mut streamed) = (0, 0);
                for k in [1usize, 2, 4, 5, 8, 31] {
                    let what = format!("{label}·2^{exp} {name} k={k}");
                    let stats = assert_equivalent(&packed, data, &group, k, &what);
                    bounded += stats.data_tree.logical;
                    let sc = packed.cursor();
                    let mut ms = MbmScratch::default();
                    MbmStream::new_in(&sc, &group, &mut ms)
                        .take(k)
                        .for_each(drop);
                    streamed += sc.stats().logical;
                }
                let what = format!("{label}·2^{exp} {name}");
                match drops {
                    Some(true) => assert!(
                        bounded < streamed,
                        "{what}: the plane dropped nothing ({bounded} pages)"
                    ),
                    Some(false) => assert_eq!(bounded, streamed, "{what}: no plane drops here"),
                    None => {}
                }
            }
        }
    }
}

#[test]
fn point_leaves_are_point_rects() {
    // The scenario of the plane's point-rect case: four copies of every
    // lattice point, four to a page, give many leaves a point for an MBR.
    let packed = index(&lattice_copies(12, 12, 4, 0), 4);
    let cursor = packed.cursor();
    let mut stack = vec![cursor.root()];
    let (mut leaves, mut points) = (0, 0);
    while let Some(page) = stack.pop() {
        match cursor.read(page) {
            gnn::rtree::PageRef::Internal(branches) => {
                stack.extend(branches.iter().map(|(_, child)| child));
            }
            gnn::rtree::PageRef::Leaf(leaf) => {
                leaves += 1;
                let first = leaf.entry(0).point;
                points += usize::from(leaf.entries().all(|e| e.point == first));
            }
        }
    }
    assert!(points * 3 >= leaves, "{points} point leaves of {leaves}");
}
