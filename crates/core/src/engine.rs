//! Automatic algorithm selection — the paper's §5 conclusions as a planner.
//!
//! The experimental study closes with a decision rule: MBM dominates for
//! memory-resident groups; for disk-resident files "F-MQM is usually
//! preferable when the query dataset is partitioned in a small number of
//! groups; otherwise, F-MBM is better. GCP has very poor performance in all
//! cases." [`Planner`] encodes exactly that, so applications get the right
//! algorithm without re-reading the paper.
//!
//! The planner only chooses. A memory-resident query runs through
//! [`crate::QueryRequest::execute_on`], which asks
//! [`Planner::choose_memory`]; a network query asks
//! [`Planner::choose_network`] inside its backend. The one query the
//! planner runs itself is a disk-resident one ([`Planner::k_gnn_file`]),
//! which has no request form.

use crate::query::QueryGroup;
use crate::result::GnnResult;
use crate::{Aggregate, FileGnnAlgorithm, Fmbm, Fmqm};
use gnn_qfile::{FileCursor, GroupedQueryFile};
use gnn_rtree::TreeCursor;

/// Which algorithm the planner selected (returned alongside results so the
/// choice is observable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Minimum bounding method (memory, default).
    Mbm,
    /// Single point method (memory; only when MBM cannot serve).
    Spm,
    /// Multiple query method (memory; never planner-selected — reported by
    /// [`crate::QueryRequest`]s that pin MQM explicitly).
    Mqm,
    /// File multiple query method (disk, few groups).
    Fmqm,
    /// File minimum bounding method (disk, many groups).
    Fmbm,
    /// Network threshold algorithm (network targets; concurrent Dijkstra
    /// expansion, one stream per query vertex).
    NetworkTa,
    /// Network incremental Euclidean restriction (network targets;
    /// Euclidean MBM filter over the data vertices + exact refinement).
    NetworkIer,
}

impl std::fmt::Display for Choice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Choice::Mbm => "MBM",
            Choice::Spm => "SPM",
            Choice::Mqm => "MQM",
            Choice::Fmqm => "F-MQM",
            Choice::Fmbm => "F-MBM",
            Choice::NetworkTa => "NET-TA",
            Choice::NetworkIer => "NET-IER",
        };
        f.write_str(s)
    }
}

/// Use F-MQM while the query file has at most this many groups: "a small
/// number" in §5 (the paper's winning F-MQM case had 3 groups, the losing
/// one 20; the threshold sits between).
const FMQM_GROUP_LIMIT: usize = 6;

/// The §5 decision rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// The planner.
    pub fn new() -> Self {
        Planner
    }

    /// The choice for a memory-resident group: MBM (the §5.1 winner) — it
    /// supports every aggregate this crate offers, so SPM is currently never
    /// selected; it remains in [`Choice`] for planners with other policies.
    pub fn choose_memory(&self, _group: &QueryGroup) -> Choice {
        Choice::Mbm
    }

    /// The choice for a disk-resident file: F-MQM for few groups, F-MBM
    /// otherwise (§5.2 summary). GCP is never chosen ("very poor
    /// performance in all cases").
    pub fn choose_file(&self, query: &GroupedQueryFile) -> Choice {
        if query.group_count() <= FMQM_GROUP_LIMIT {
            Choice::Fmqm
        } else {
            Choice::Fmbm
        }
    }

    /// The choice for a network-distance query: IER. Its Euclidean filter
    /// is not tight — on the benchmark's `network_trips` shape (groups of 4
    /// spread over a 96 × 96 grid, 921 data vertices) it hands ~100
    /// candidates per query to refinement, ~80 of which the `best_dist`
    /// bound then discards part-way — but TA has to discover candidates by
    /// expanding, and settles ~25 000 vertices per query there against
    /// IER's ~11 500 (the benchmark's `network.ier_us_per_query` against
    /// `network.ta_us_per_query`: ~0.8 ms against ~1.8 ms). No measured
    /// workload favours TA; it remains requestable explicitly via
    /// [`crate::Algo::NetworkTa`].
    pub fn choose_network(&self, _group: &QueryGroup) -> Choice {
        Choice::NetworkIer
    }

    /// Plans and runs a disk-resident k-GNN query.
    pub fn k_gnn_file(
        &self,
        data: &TreeCursor<'_>,
        query: &GroupedQueryFile,
        query_cursor: &FileCursor<'_>,
        k: usize,
        aggregate: Aggregate,
    ) -> (Choice, GnnResult) {
        match self.choose_file(query) {
            Choice::Fmqm => (
                Choice::Fmqm,
                Fmqm::new().k_gnn(data, query, query_cursor, k, aggregate),
            ),
            _ => (
                Choice::Fmbm,
                Fmbm::best_first().k_gnn(data, query, query_cursor, k, aggregate),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryRequest, QueryScratch, Target};
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{LeafEntry, RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0))
            .collect()
    }

    #[test]
    fn memory_choice_is_mbm() {
        let g = QueryGroup::sum(random_points(5, 1)).unwrap();
        assert_eq!(Planner::new().choose_memory(&g), Choice::Mbm);
    }

    #[test]
    fn file_choice_follows_group_count() {
        let planner = Planner::new();
        let few = GroupedQueryFile::build_with(random_points(60, 2), 16, 32); // 2 groups
        assert_eq!(planner.choose_file(&few), Choice::Fmqm);
        let many = GroupedQueryFile::build_with(random_points(300, 3), 16, 16); // ~19 groups
        assert!(many.group_count() > 6);
        assert_eq!(planner.choose_file(&many), Choice::Fmbm);
    }

    #[test]
    fn planned_queries_run_and_report_choice() {
        let data = random_points(300, 4);
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            data.iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        )
        .freeze();
        let cursor = tree.cursor();
        let group = QueryGroup::sum(random_points(6, 5)).unwrap();
        let mut scratch = QueryScratch::new();
        let (choice, neighbors, ..) = QueryRequest::new(group, 3).execute_on(
            &Planner::new(),
            &Target::Single(&cursor),
            &mut scratch,
        );
        assert_eq!(choice, Choice::Mbm);
        assert_eq!(neighbors.len(), 3);

        let qpts = random_points(60, 6);
        let qf = GroupedQueryFile::build_with(qpts, 16, 32);
        let fc = FileCursor::new(qf.file());
        let (choice, result) = Planner::new().k_gnn_file(&cursor, &qf, &fc, 2, Aggregate::Sum);
        assert_eq!(choice, Choice::Fmqm);
        assert_eq!(result.neighbors.len(), 2);
        assert_eq!(choice.to_string(), "F-MQM");
    }
}
