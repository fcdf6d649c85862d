//! Naive baselines: exact oracles the test suites compare every algorithm
//! against, and a lower line for the benchmark plots.

use crate::best_list::KBestList;
use crate::query::QueryGroup;
use crate::result::{GnnResult, Neighbor, QueryStats};
use gnn_geom::Point;
use gnn_rtree::{LeafEntry, TreeCursor};

/// Exact k-GNN by scanning an explicit entry list: `O(|P| · n)` distance
/// computations, no index. The ground truth for correctness tests.
pub fn linear_scan_entries<I>(entries: I, group: &QueryGroup, k: usize) -> GnnResult
where
    I: IntoIterator<Item = LeafEntry>,
{
    let mut best = KBestList::new(k);
    let mut dist_computations = 0u64;
    for e in entries {
        let dist = group.dist(e.point);
        dist_computations += group.len() as u64;
        best.offer(Neighbor {
            id: e.id,
            point: e.point,
            dist,
        });
    }
    GnnResult {
        neighbors: best.into_sorted(),
        stats: QueryStats {
            dist_computations,
            ..QueryStats::default()
        },
    }
}

/// Exact k-GNN by scanning every leaf of the data R-tree **through the
/// cursor** — i.e. a full sequential scan paying one access per page. The
/// "no cleverness" upper bound on node accesses.
pub fn full_scan_tree(cursor: &TreeCursor<'_>, group: &QueryGroup, k: usize) -> GnnResult {
    let before = cursor.stats();
    let mut best = KBestList::new(k);
    let mut dist_computations = 0u64;
    let mut stack = vec![cursor.root()];
    while let Some(id) = stack.pop() {
        match cursor.read(id) {
            gnn_rtree::PageRef::Leaf(leaf) => {
                for e in leaf.entries() {
                    let dist = group.dist(e.point);
                    dist_computations += group.len() as u64;
                    best.offer(Neighbor {
                        id: e.id,
                        point: e.point,
                        dist,
                    });
                }
            }
            gnn_rtree::PageRef::Internal(view) => stack.extend(view.iter().map(|(_, child)| child)),
        }
    }
    GnnResult {
        neighbors: best.into_sorted(),
        stats: QueryStats {
            data_tree: cursor.stats().since(before),
            dist_computations,
            ..QueryStats::default()
        },
    }
}

/// Exact k-GNN over a plain point slice (ids are slice positions) — used by
/// the disk-resident tests where `Q` is the big side and `P` is a list.
pub fn linear_scan_points(points: &[Point], group: &QueryGroup, k: usize) -> GnnResult {
    linear_scan_entries(
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(gnn_geom::PointId(i as u64), p)),
        group,
        k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_geom::PointId;
    use gnn_rtree::{RTree, RTreeParams};

    fn entries() -> Vec<LeafEntry> {
        vec![
            LeafEntry::new(PointId(0), Point::new(0.0, 0.0)),
            LeafEntry::new(PointId(1), Point::new(5.0, 5.0)),
            LeafEntry::new(PointId(2), Point::new(2.0, 2.0)),
            LeafEntry::new(PointId(3), Point::new(9.0, 1.0)),
        ]
    }

    #[test]
    fn scan_finds_the_minimum_sum_point() {
        let group = QueryGroup::sum(vec![Point::new(1.0, 1.0), Point::new(3.0, 3.0)]).unwrap();
        let r = linear_scan_entries(entries(), &group, 1);
        assert_eq!(r.best().unwrap().id, PointId(2)); // (2,2) sits between
    }

    #[test]
    fn scan_returns_sorted_k() {
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0)]).unwrap();
        let r = linear_scan_entries(entries(), &group, 3);
        let d = r.distances();
        assert_eq!(d.len(), 3);
        assert!(d[0] <= d[1] && d[1] <= d[2]);
        assert_eq!(r.best().unwrap().id, PointId(0));
    }

    #[test]
    fn k_larger_than_dataset() {
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0)]).unwrap();
        let r = linear_scan_entries(entries(), &group, 10);
        assert_eq!(r.neighbors.len(), 4);
    }

    #[test]
    fn full_scan_reads_every_page_once() {
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(4),
            (0..100).map(|i| LeafEntry::new(PointId(i), Point::new(i as f64, (i % 7) as f64))),
        )
        .freeze();
        let cursor = tree.cursor();
        let group = QueryGroup::sum(vec![Point::new(3.0, 3.0)]).unwrap();
        let r = full_scan_tree(&cursor, &group, 2);
        assert_eq!(r.stats.data_tree.logical as usize, tree.node_count());
        // Agreement with the entry-list oracle.
        let oracle = linear_scan_entries(tree.iter(), &group, 2);
        assert_eq!(r.distances(), oracle.distances());
    }
}
