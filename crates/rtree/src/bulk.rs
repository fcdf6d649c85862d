//! Bulk loading: sort-tile-recursive (STR) packing.
//!
//! The experiments build trees over hundreds of thousands of points;
//! packing them bottom-up is both faster and produces the well-clustered
//! nodes the paper's R*-trees have. STR (Leutenegger et al.) packs every
//! level.

use crate::node::{Branch, LeafEntry, Node, PageId};
use crate::tree::RTree;
use crate::RTreeParams;
use gnn_geom::Point;

/// Node fill factor of bulk loading (70 %, the steady-state utilisation of
/// an R*-tree built by insertion, so bulk-loaded and incrementally-built
/// trees have comparable node counts).
pub const DEFAULT_BULK_FILL: f64 = 0.7;

impl RTree {
    /// Bulk loads with sort-tile-recursive packing at the
    /// [`DEFAULT_BULK_FILL`] fill factor (of `max_entries`, clamped to
    /// `[min_entries, max_entries]`).
    ///
    /// # Panics
    ///
    /// Panics if any point is not finite.
    pub fn bulk_load<I>(params: RTreeParams, entries: I) -> RTree
    where
        I: IntoIterator<Item = LeafEntry>,
    {
        str_load(params, entries.into_iter().collect())
    }
}

/// [`RTree::bulk_load`] past the collect. Not generic, so the packing code
/// is compiled once, in this crate, instead of in every caller's crate.
fn str_load(params: RTreeParams, entries: Vec<LeafEntry>) -> RTree {
    assert_finite(&entries);
    let cap = ((params.max_entries as f64 * DEFAULT_BULK_FILL).round() as usize)
        .clamp(params.min_entries.max(2), params.max_entries);
    let len = entries.len();
    if len <= params.max_entries {
        return single_leaf_tree(params, entries);
    }
    let leaf_groups = str_partition(entries, |e| e.point, cap, &params);
    let leaves: Vec<Node> = leaf_groups.into_iter().map(Node::Leaf).collect();
    build_upper_levels(params, leaves, len, cap)
}

/// The bulk loader's half of [`RTree::insert`]'s finiteness check.
fn assert_finite(entries: &[LeafEntry]) {
    if let Some(e) = entries.iter().find(|e| !e.point.is_finite()) {
        panic!("non-finite point inserted: {:?}", e.point);
    }
}

fn single_leaf_tree(params: RTreeParams, entries: Vec<LeafEntry>) -> RTree {
    let len = entries.len();
    RTree::from_raw(params, vec![Some(Node::Leaf(entries))], PageId(0), 1, len)
}

/// Packs each level by re-running STR on the branch centers of the level
/// below, until one root remains.
fn build_upper_levels(params: RTreeParams, leaves: Vec<Node>, len: usize, cap: usize) -> RTree {
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
            str_partition(level, |b| b.mbr.center(), cap, &params)
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
/// each slab by y, and chunk it into runs of roughly `cap` items. Every
/// produced group has between `min_entries` and `max_entries` items.
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
        // Every slab is non-empty: there are at most `pages <= n` of them.
        let m = slab.len();
        let mut parts = m.div_ceil(cap);
        // A trailing underfull group would violate the min-fill invariant;
        // spreading the items over one fewer group always fits below
        // `max_entries` because `min_entries <= max_entries / 2`.
        while parts > 1
            && m / parts < params.min_entries
            && m.div_ceil(parts - 1) <= params.max_entries
        {
            parts -= 1;
        }
        out.extend(split_even(slab, parts));
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
}
