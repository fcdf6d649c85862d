//! Bulk loading: sort-tile-recursive (STR) and Hilbert packing.
//!
//! The experiments build trees over hundreds of thousands of points;
//! packing them bottom-up is both faster and produces the well-clustered
//! nodes the paper's R*-trees have. STR (Leutenegger et al.) is the default;
//! Hilbert packing (Kamel & Faloutsos) is provided as an alternative with
//! slightly different node shapes.

use crate::node::{Branch, LeafEntry, Node, PageId};
use crate::tree::RTree;
use crate::RTreeParams;
use gnn_geom::hilbert::HilbertMapper;
use gnn_geom::{Point, Rect};

/// Default node fill factor for bulk loading (70 %, the steady-state
/// utilisation of an R*-tree built by insertion, so bulk-loaded and
/// incrementally-built trees have comparable node counts).
pub const DEFAULT_BULK_FILL: f64 = 0.7;

impl RTree {
    /// Bulk loads with STR at the [`DEFAULT_BULK_FILL`] fill factor.
    ///
    /// # Panics
    ///
    /// As [`RTree::bulk_load_str`].
    pub fn bulk_load<I>(params: RTreeParams, entries: I) -> RTree
    where
        I: IntoIterator<Item = LeafEntry>,
    {
        Self::bulk_load_str(params, entries, DEFAULT_BULK_FILL)
    }

    /// Bulk loads with sort-tile-recursive packing at the given fill factor
    /// (fraction of `max_entries` targeted per node, clamped to
    /// `[min_entries, max_entries]`).
    ///
    /// # Panics
    ///
    /// Panics if any point is not finite.
    pub fn bulk_load_str<I>(params: RTreeParams, entries: I, fill: f64) -> RTree
    where
        I: IntoIterator<Item = LeafEntry>,
    {
        let entries: Vec<LeafEntry> = entries.into_iter().collect();
        assert_finite(&entries);
        let cap = effective_capacity(&params, fill);
        let len = entries.len();
        if len <= params.max_entries {
            return single_leaf_tree(params, entries);
        }
        let leaf_groups = str_partition(entries, |e| e.point, cap, &params);
        let leaves: Vec<Node> = leaf_groups.into_iter().map(Node::Leaf).collect();
        build_upper_levels(params, leaves, len, cap, PackOrder::Str)
    }

    /// Bulk loads by Hilbert-sorting the points and packing consecutive runs
    /// into leaves.
    ///
    /// # Panics
    ///
    /// Panics if any point is not finite.
    pub fn bulk_load_hilbert<I>(params: RTreeParams, entries: I, fill: f64) -> RTree
    where
        I: IntoIterator<Item = LeafEntry>,
    {
        let mut entries: Vec<LeafEntry> = entries.into_iter().collect();
        assert_finite(&entries);
        let cap = effective_capacity(&params, fill);
        let len = entries.len();
        if len <= params.max_entries {
            return single_leaf_tree(params, entries);
        }
        let workspace =
            Rect::bounding(entries.iter().map(|e| e.point)).expect("non-empty entry list");
        let mapper = HilbertMapper::new(workspace);
        entries.sort_by_key(|e| mapper.key(e.point));
        let leaves: Vec<Node> = chunk_balanced(entries, cap, &params)
            .into_iter()
            .map(Node::Leaf)
            .collect();
        build_upper_levels(params, leaves, len, cap, PackOrder::Sequential)
    }
}

/// How upper levels group the branches of the level below.
enum PackOrder {
    /// Re-run STR on branch centers at every level.
    Str,
    /// Keep the order of the level below (valid for Hilbert-sorted input).
    Sequential,
}

fn effective_capacity(params: &RTreeParams, fill: f64) -> usize {
    assert!(
        fill > 0.0 && fill <= 1.0,
        "bulk fill factor must be in (0, 1], got {fill}"
    );
    ((params.max_entries as f64 * fill).round() as usize)
        .clamp(params.min_entries.max(2), params.max_entries)
}

/// The bulk loaders' half of [`RTree::insert`]'s finiteness check.
fn assert_finite(entries: &[LeafEntry]) {
    if let Some(e) = entries.iter().find(|e| !e.point.is_finite()) {
        panic!("non-finite point inserted: {:?}", e.point);
    }
}

fn single_leaf_tree(params: RTreeParams, entries: Vec<LeafEntry>) -> RTree {
    let len = entries.len();
    RTree::from_raw(params, vec![Some(Node::Leaf(entries))], PageId(0), 1, len)
}

fn build_upper_levels(
    params: RTreeParams,
    leaves: Vec<Node>,
    len: usize,
    cap: usize,
    order: PackOrder,
) -> RTree {
    let mut nodes: Vec<Option<Node>> = Vec::with_capacity(leaves.len() * 2);
    let mut level: Vec<Branch> = leaves
        .into_iter()
        .map(|n| {
            let mbr = n.mbr();
            let id = PageId(u32::try_from(nodes.len()).expect("page arena overflow"));
            nodes.push(Some(n));
            Branch { mbr, child: id }
        })
        .collect();
    let mut height = 1usize;
    while level.len() > 1 {
        let groups: Vec<Vec<Branch>> = if level.len() <= params.max_entries {
            vec![level]
        } else {
            match order {
                PackOrder::Str => str_partition(level, |b| b.mbr.center(), cap, &params),
                PackOrder::Sequential => chunk_balanced(level, cap, &params),
            }
        };
        level = groups
            .into_iter()
            .map(|g| {
                let n = Node::Internal(g);
                let mbr = n.mbr();
                let id = PageId(u32::try_from(nodes.len()).expect("page arena overflow"));
                nodes.push(Some(n));
                Branch { mbr, child: id }
            })
            .collect();
        height += 1;
    }
    let root = level[0].child;
    RTree::from_raw(params, nodes, root, height, len)
}

/// Sort-tile-recursive partition: sort by x, cut into vertical slabs, sort
/// each slab by y, and chunk. Every produced group has between
/// `min_entries` and `max_entries` items.
fn str_partition<T>(
    mut items: Vec<T>,
    key: impl Fn(&T) -> Point,
    cap: usize,
    params: &RTreeParams,
) -> Vec<Vec<T>> {
    let n = items.len();
    debug_assert!(n > params.max_entries);
    let pages = n.div_ceil(cap);
    let slabs = (pages as f64).sqrt().ceil() as usize;
    items.sort_by(|a, b| key(a).x.total_cmp(&key(b).x));
    let mut out = Vec::with_capacity(pages);
    for mut slab in split_even(items, slabs) {
        slab.sort_by(|a, b| key(a).y.total_cmp(&key(b).y));
        out.extend(chunk_balanced(slab, cap, params));
    }
    out
}

/// Splits `items` into at most `parts` consecutive runs of near-equal size.
fn split_even<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut it = items.into_iter();
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        out.push(it.by_ref().take(take).collect());
    }
    out
}

/// Chunks consecutive items into groups of roughly `cap` items while
/// guaranteeing every group holds at least `min_entries` and at most
/// `max_entries` items (so packed nodes satisfy the tree invariants).
fn chunk_balanced<T>(items: Vec<T>, cap: usize, params: &RTreeParams) -> Vec<Vec<T>> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let mut parts = n.div_ceil(cap).max(1);
    // A trailing underfull group would violate the min-fill invariant;
    // spreading the items over one fewer group always fits below
    // `max_entries` because `min_entries <= max_entries / 2`.
    while parts > 1 && n / parts < params.min_entries && n.div_ceil(parts - 1) <= params.max_entries
    {
        parts -= 1;
    }
    split_even(items, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_invariants;
    use gnn_geom::PointId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_entries(n: usize, seed: u64) -> Vec<LeafEntry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                LeafEntry::new(
                    PointId(i as u64),
                    Point::new(rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0),
                )
            })
            .collect()
    }

    fn ids_sorted(tree: &RTree) -> Vec<u64> {
        let mut v: Vec<u64> = tree.iter().map(|e| e.id.0).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn str_loads_all_sizes() {
        for &n in &[0usize, 1, 3, 49, 50, 51, 99, 250, 1000, 5000] {
            let entries = random_entries(n, n as u64);
            let tree = RTree::bulk_load(RTreeParams::default(), entries);
            assert_eq!(tree.len(), n, "n={n}");
            check_invariants(&tree);
            assert_eq!(ids_sorted(&tree), (0..n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "non-finite point inserted")]
    fn bulk_load_refuses_a_non_finite_point() {
        let mut entries = random_entries(200, 7);
        entries[120].point = Point::new(f64::NAN, 3.0);
        RTree::bulk_load(RTreeParams::default(), entries);
    }

    #[test]
    fn hilbert_loads_all_sizes() {
        for &n in &[0usize, 1, 50, 51, 777, 3000] {
            let entries = random_entries(n, 1000 + n as u64);
            let tree = RTree::bulk_load_hilbert(RTreeParams::default(), entries, 0.7);
            assert_eq!(tree.len(), n, "n={n}");
            check_invariants(&tree);
            assert_eq!(ids_sorted(&tree), (0..n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn small_capacities_and_awkward_sizes() {
        for cap in [4usize, 5, 7, 10] {
            let params = RTreeParams::with_capacity(cap);
            for n in 0..200 {
                let entries = random_entries(n, (cap * 1000 + n) as u64);
                let tree = RTree::bulk_load(params, entries);
                check_invariants(&tree);
                assert_eq!(tree.len(), n, "cap={cap} n={n}");
            }
        }
    }

    #[test]
    fn full_fill_factor() {
        let entries = random_entries(1000, 9);
        let tree = RTree::bulk_load_str(RTreeParams::default(), entries, 1.0);
        check_invariants(&tree);
        // 100% fill => about 1000/50 = 20 leaves + root.
        assert!(tree.node_count() <= 22, "nodes = {}", tree.node_count());
    }

    #[test]
    fn str_tree_is_reasonably_compact() {
        let entries = random_entries(10_000, 12);
        let tree = RTree::bulk_load(RTreeParams::default(), entries);
        check_invariants(&tree);
        // 70% fill: ~286 leaves, ~9 internal, 1 root.
        assert!(tree.node_count() < 320, "nodes = {}", tree.node_count());
        assert_eq!(tree.height(), 3);
    }

    #[test]
    fn bulk_loaded_tree_supports_updates() {
        let entries = random_entries(500, 21);
        let mut tree = RTree::bulk_load(RTreeParams::with_capacity(8), entries.clone());
        for e in &entries[..100] {
            assert!(tree.remove(e.id, e.point));
        }
        for i in 0..50u64 {
            tree.insert(LeafEntry::new(
                PointId(10_000 + i),
                Point::new(i as f64, i as f64),
            ));
        }
        check_invariants(&tree);
        assert_eq!(tree.len(), 450);
    }

    #[test]
    fn duplicate_heavy_input() {
        let mut entries = Vec::new();
        for i in 0..500u64 {
            entries.push(LeafEntry::new(PointId(i), Point::new(3.0, 3.0)));
        }
        let tree = RTree::bulk_load(RTreeParams::default(), entries);
        check_invariants(&tree);
        assert_eq!(tree.len(), 500);
    }

    #[test]
    #[should_panic(expected = "fill factor")]
    fn rejects_zero_fill() {
        RTree::bulk_load_str(RTreeParams::default(), random_entries(100, 2), 0.0);
    }
}
