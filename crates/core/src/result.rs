//! Result and statistics types shared by every GNN algorithm.

use gnn_geom::{Point, PointId};
use gnn_rtree::AccessStats;

/// One group nearest neighbor: a data point and its aggregate distance to
/// the query group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Identifier of the data point in `P`.
    pub id: PointId,
    /// Its coordinates.
    pub point: Point,
    /// `dist(p, Q)` under the query group's aggregate.
    pub dist: f64,
}

/// Cost counters of one GNN query — the quantities reported in the paper's
/// evaluation (§5) plus internals useful for ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Accesses to the R-tree of the data set `P`.
    pub data_tree: AccessStats,
    /// Accesses to the R-tree of `Q` (GCP only).
    pub query_tree: AccessStats,
    /// Page reads from the disk-resident query file (F-MQM / F-MBM only).
    pub query_file_pages: u64,
    /// Point-to-point / point-to-rectangle distance evaluations (CPU proxy).
    /// Counts the evaluations the engine actually **performed**, so —
    /// unlike node accesses — it depends on the mechanism: the bounded MBM
    /// loop scores whole pages where the seed's reference stream (now a
    /// test oracle) filters and converts entry by entry, and the two count
    /// differently for the same query. **Exact** evaluations only: the
    /// terms the bounded MBM loop's rounded-down leaf bounds (block and
    /// `f32`) compute are not counted here (what they drop is counted in
    /// [`QueryStats::lower_bound_pruned`]), so on large SUM groups this
    /// reads several times lower than the all-exact loop's count for the same
    /// pages. Heuristic 3 counts `n` per tight key **actually
    /// computed**: on SUM groups of 48 points and more the bounded loop keys
    /// children lazily, under one centroid distance each, and pays the `n`
    /// terms only for the children that reach the top of its heap (~40 of
    /// ~134 a query on 256-point groups), so it reads about half the eager
    /// loop's count there.
    pub dist_computations: u64,
    /// Leaf entries the bounded MBM loop dropped on a rounded-down lower
    /// bound of `dist(p, Q)`, without computing their exact distance,
    /// counted over both stages of its leaf cascade: the block bound (SUM
    /// queries of 48 members and more, every tier; its terms in `f32` on
    /// the AVX2 tier where the group's scale allows, in `f64` otherwise)
    /// and the `f32` bound (SUM queries on the AVX2 tier); `0` everywhere
    /// else. Each lies at or above `best_dist` or, on the first leaf of a
    /// group of 48 members and more, strictly above the exact sums of `k`
    /// other entries of that leaf, so none could be in the answer.
    pub lower_bound_pruned: u64,
    /// Individual nearest neighbors pulled from NN streams (MQM, F-MQM) or
    /// closest pairs consumed (GCP).
    pub items_pulled: u64,
    /// Peak size of the closest-pair priority queue (GCP only).
    pub heap_watermark: usize,
    /// Vertices settled by Dijkstra expansion (network-distance backends
    /// only — the network analog of node accesses, see `gnn-network`).
    pub settled_vertices: u64,
    /// Edge relaxations performed by Dijkstra expansion (network-distance
    /// backends only; CPU proxy of network search).
    pub relaxed_edges: u64,
    /// True when GCP hit its heap limit and gave up (the paper's "does not
    /// terminate" regime). The reported neighbors are then best-effort, not
    /// exact.
    pub aborted: bool,
}

impl QueryStats {
    /// Total simulated I/O: node accesses on both trees after the buffer
    /// pool, plus query-file page reads. The paper's "number of node
    /// accesses" for the disk-resident experiments.
    pub fn total_io(&self) -> u64 {
        self.data_tree.io + self.query_tree.io + self.query_file_pages
    }
}

/// The outcome of a GNN query: up to `k` neighbors in ascending aggregate
/// distance, and the cost counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GnnResult {
    /// Neighbors sorted by ascending `dist` (ties broken by id).
    pub neighbors: Vec<Neighbor>,
    /// Cost counters.
    pub stats: QueryStats,
}

impl GnnResult {
    /// The single best neighbor, if any.
    pub fn best(&self) -> Option<&Neighbor> {
        self.neighbors.first()
    }

    /// Distances only — convenient for comparing algorithms, whose tie
    ///-breaking on equal distances may legitimately differ.
    pub fn distances(&self) -> Vec<f64> {
        self.neighbors.iter().map(|n| n.dist).collect()
    }
}

impl Default for Neighbor {
    fn default() -> Self {
        Neighbor {
            id: PointId(0),
            point: Point::ORIGIN,
            dist: f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_io_sums_components() {
        let stats = QueryStats {
            data_tree: AccessStats { logical: 10, io: 7 },
            query_tree: AccessStats { logical: 4, io: 3 },
            query_file_pages: 5,
            ..QueryStats::default()
        };
        assert_eq!(stats.total_io(), 15);
    }

    #[test]
    fn result_accessors() {
        let r = GnnResult {
            neighbors: vec![
                Neighbor {
                    id: PointId(1),
                    point: Point::new(1.0, 1.0),
                    dist: 2.0,
                },
                Neighbor {
                    id: PointId(2),
                    point: Point::new(2.0, 2.0),
                    dist: 3.0,
                },
            ],
            stats: QueryStats::default(),
        };
        assert_eq!(r.best().unwrap().id, PointId(1));
        assert_eq!(r.distances(), vec![2.0, 3.0]);
        assert!(GnnResult::default().best().is_none());
    }
}
