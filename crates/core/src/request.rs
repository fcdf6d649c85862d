//! Request / response types for query-serving engines.
//!
//! A [`QueryRequest`] is one memory-resident k-GNN query in transportable
//! form: the query group, `k`, and an [`Algo`] selector. Its
//! [`QueryRequest::execute_on`] method is the *single* execution path: the
//! sequential reference, the batch executor and the multi-threaded
//! `gnn-service` workers all call it with a [`Target`], which is what makes
//! "the service returns bit-identical results and node accesses to the
//! sequential reference" true by construction rather than by testing luck.

use crate::backend::{NetworkBackend, NetworkQuery};
use crate::engine::{Choice, Planner};
use crate::result::{Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::sharded::{sharded_k_gnn_in, ShardRouting};
use crate::{Aggregate, Mbm, MemoryGnnAlgorithm, Mqm, QueryGroup, Spm};
use gnn_rtree::{ShardedSnapshot, TreeCursor};
use std::time::Duration;

/// The paper-default configurations a Euclidean request resolves to.
static MBM: Mbm = Mbm::best_first();
static SPM: Spm = Spm::best_first();
static MQM: Mqm = Mqm::new();

/// Where a [`QueryRequest`] (or a batch of them) executes: a single tree
/// behind one cursor, a [`ShardedSnapshot`] behind one cursor per shard, or
/// a network backend. The single-shard sharded case degenerates exactly to
/// the single-tree case (same results, same node accesses).
pub enum Target<'a, 't> {
    /// One packed snapshot behind one metering cursor.
    Single(&'a TreeCursor<'t>),
    /// A spatially partitioned snapshot with one cursor per shard, answered
    /// by the cross-shard best-first merge of [`crate::sharded`].
    Sharded {
        /// The partitioned snapshot (shard MBR directory + shard trees).
        snapshot: &'a ShardedSnapshot,
        /// Exactly one cursor per shard, in shard order.
        cursors: &'a [TreeCursor<'t>],
    },
    /// A non-Euclidean distance domain (e.g. `gnn-network`'s packed road
    /// graph snapshot). The backend answers requests end to end through
    /// [`NetworkBackend::execute_network`]; requests may pin their source
    /// vertices with [`QueryRequest::with_network`], otherwise the backend
    /// snaps the group's points onto the domain.
    Network(&'a dyn NetworkBackend),
}

impl<'a, 't> Target<'a, 't> {
    /// Every cursor this target reads through (one for single-tree targets,
    /// one per shard; network backends meter their own index accesses, so
    /// none here).
    pub fn cursors(&self) -> impl Iterator<Item = &'a TreeCursor<'t>> {
        let (single, many) = match self {
            Target::Single(cursor) => (Some(*cursor), [].as_slice()),
            Target::Sharded { cursors, .. } => (None, *cursors),
            Target::Network(_) => (None, [].as_slice()),
        };
        single.into_iter().chain(many.iter())
    }
}

/// Which algorithm a [`QueryRequest`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algo {
    /// Let the [`Planner`] decide (the §5 rule — MBM for memory groups).
    #[default]
    Auto,
    /// Force MQM (threshold algorithm over per-point NN streams).
    Mqm,
    /// Force SPM (centroid-anchored single traversal). SUM only: requests
    /// carrying a MAX/MIN group fall back to MBM, which the returned
    /// [`Choice`] makes observable.
    Spm,
    /// Force MBM (query-MBR pruned single traversal).
    Mbm,
    /// Force the network threshold algorithm (concurrent Dijkstra
    /// expansion). Only meaningful on [`Target::Network`]; Euclidean
    /// targets fall back to MBM.
    NetworkTa,
    /// Force network incremental Euclidean restriction (Euclidean MBM
    /// filter + exact network refinement). Only meaningful on
    /// [`Target::Network`]; Euclidean targets fall back to MBM.
    NetworkIer,
}

/// One memory-resident k-GNN query in transportable form.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query group `Q` (points + aggregate + weights).
    pub group: QueryGroup,
    /// Number of neighbors to retrieve.
    pub k: usize,
    /// Algorithm selector.
    pub algo: Algo,
    /// Optional service-relative deadline: the budget from submission until
    /// the request **starts executing**. A serving engine checks it at
    /// dequeue and sheds an already-expired request with a typed error
    /// instead of executing it — overload becomes bounded, observable
    /// shedding. `None` (the default) means "execute no matter how stale".
    /// Execution itself is never interrupted, so results of non-shed
    /// queries are unaffected. Ignored by direct execution
    /// ([`QueryRequest::execute_on`]), which has no queue.
    pub deadline: Option<Duration>,
    /// Opt-in per-query trace: when set, a serving engine fills
    /// [`QueryResponse::trace`] with the request's stage timings — a small
    /// `Copy` struct inline in the response, so nothing allocates either
    /// way, and results, node accesses and reply accounting never change.
    /// Ignored by direct execution, which has no queue or stages.
    pub trace: bool,
    /// The network-domain payload: present exactly when this request is
    /// meant for a [`Target::Network`] backend (it pins or snaps the
    /// group's source vertices there). Euclidean targets ignore it — the
    /// group's points and aggregate already say everything they need.
    pub network: Option<NetworkQuery>,
}

impl QueryRequest {
    /// A planner-routed request.
    pub fn new(group: QueryGroup, k: usize) -> Self {
        Self::with_algo(group, k, Algo::Auto)
    }

    /// A request pinned to a specific algorithm.
    pub fn with_algo(group: QueryGroup, k: usize, algo: Algo) -> Self {
        QueryRequest {
            group,
            k,
            algo,
            deadline: None,
            trace: false,
            network: None,
        }
    }

    /// Attaches a network-domain payload (see [`QueryRequest::network`]).
    pub fn with_network(mut self, network: NetworkQuery) -> Self {
        self.network = Some(network);
        self
    }

    /// Sets a queue-wait deadline (see [`QueryRequest::deadline`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Requests a per-query trace (see [`QueryRequest::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Executes the request against a [`Target`], reusing `scratch`
    /// (allocation-free in steady state). This is the single execution
    /// entry point; the batch executor and the service workers call it per
    /// query. Deterministic: the same request against the same target
    /// performs the same node accesses and returns the same neighbors
    /// regardless of which thread runs it. Single-tree targets report the
    /// default [`ShardRouting`]; a single-shard [`Target::Sharded`]
    /// degenerates to the single-tree case exactly.
    pub fn execute_on<'s>(
        &self,
        planner: &Planner,
        target: &Target<'_, '_>,
        scratch: &'s mut QueryScratch,
    ) -> (Choice, &'s [Neighbor], QueryStats, ShardRouting) {
        // Network backends resolve their own algorithm family (TA/IER via
        // `Planner::choose_network`) — the Euclidean resolution below would
        // be meaningless for them.
        if let Target::Network(backend) = target {
            let (choice, neighbors, stats) = backend.execute_network(self, planner, scratch);
            return (choice, neighbors, stats, ShardRouting::default());
        }
        let (choice, algo) = self.resolve(planner);
        if self.k == 0 {
            // Nothing to retrieve: answer before any page is read (a direct
            // `k_gnn_in` call with k = 0 also answers empty, but may read
            // the pages its first prune test needs).
            scratch.stage_neighbors(&[]);
            let none = scratch.neighbors();
            return (choice, none, QueryStats::default(), ShardRouting::default());
        }
        match target {
            Target::Single(cursor) => {
                let (neighbors, stats) = algo.k_gnn_in(cursor, &self.group, self.k, scratch);
                (choice, neighbors, stats, ShardRouting::default())
            }
            Target::Sharded { snapshot, cursors } => {
                let (neighbors, stats, routing) =
                    sharded_k_gnn_in(algo, snapshot, cursors, &self.group, self.k, scratch);
                (choice, neighbors, stats, routing)
            }
            Target::Network(_) => unreachable!("handled above"),
        }
    }

    /// The concrete algorithm (and the [`Choice`] it reports) this request
    /// resolves to on a Euclidean target.
    fn resolve(&self, planner: &Planner) -> (Choice, &'static dyn MemoryGnnAlgorithm) {
        match self.algo {
            Algo::Auto => match planner.choose_memory(&self.group) {
                Choice::Spm => (Choice::Spm, &SPM),
                _ => (Choice::Mbm, &MBM),
            },
            Algo::Mqm => (Choice::Mqm, &MQM),
            Algo::Spm if self.group.aggregate() == Aggregate::Sum => (Choice::Spm, &SPM),
            // SPM is SUM-only (Lemma 1); MAX/MIN requests degrade to MBM.
            // Network selectors are meaningless on a Euclidean target and
            // degrade the same way (the Choice makes the fallback visible).
            Algo::Spm | Algo::Mbm | Algo::NetworkTa | Algo::NetworkIer => (Choice::Mbm, &MBM),
        }
    }
}

/// The answer to one [`QueryRequest`]: which algorithm ran, the neighbors,
/// and the per-query cost counters (node accesses, distance computations,
/// wall time) — the paper's metrics, preserved through the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The algorithm that served the request.
    pub choice: Choice,
    /// Up to `k` neighbors in ascending aggregate distance.
    pub neighbors: Vec<Neighbor>,
    /// Cost counters of this query.
    pub stats: QueryStats,
    /// Generation of the snapshot the query actually ran on: a serving
    /// engine with snapshot hot-swap (`gnn-service`) tags every response, so
    /// results stay pinnable per generation while snapshots are republished.
    pub generation: u64,
    /// How the sharded engine answered this request (primary shard +
    /// shards consulted). Unsharded contexts use the default (shard 0,
    /// 1 consulted).
    pub routing: ShardRouting,
    /// The per-query trace, present exactly when the request opted in with
    /// [`QueryRequest::with_trace`] and a serving engine (with a queue and
    /// stages to time) answered it.
    pub trace: Option<QueryTrace>,
}

/// The opt-in per-query trace a serving engine attaches to a
/// [`QueryResponse`]: the request's own stage timings, in one `Copy`
/// struct. Its cost counters are [`QueryResponse::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryTrace {
    /// Submission → dequeue by the serving worker.
    pub queue_wait: Duration,
    /// Execution wall time (includes any injected latency).
    pub execution: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{LeafEntry, RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect()
    }

    #[test]
    fn every_selector_matches_the_direct_algorithm() {
        let data = random_points(600, 1);
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            data.iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        )
        .freeze();
        let cursor = tree.cursor();
        let planner = Planner::new();
        let mut scratch = QueryScratch::new();
        let group = QueryGroup::sum(random_points(6, 2)).unwrap();
        for (algo, want_choice) in [
            (Algo::Auto, Choice::Mbm),
            (Algo::Mqm, Choice::Mqm),
            (Algo::Spm, Choice::Spm),
            (Algo::Mbm, Choice::Mbm),
        ] {
            let req = QueryRequest::with_algo(group.clone(), 4, algo);
            let (choice, neighbors, ..) =
                req.execute_on(&planner, &Target::Single(&cursor), &mut scratch);
            assert_eq!(choice, want_choice, "{algo:?}");
            let want = Mbm::best_first().k_gnn(&cursor, &group, 4);
            assert_eq!(
                neighbors.iter().map(|n| n.dist).collect::<Vec<_>>(),
                want.distances(),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn spm_request_on_max_group_falls_back_to_mbm() {
        let data = random_points(300, 3);
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            data.iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        )
        .freeze();
        let cursor = tree.cursor();
        let group = QueryGroup::with_aggregate(random_points(5, 4), Aggregate::Max).unwrap();
        let req = QueryRequest::with_algo(group, 3, Algo::Spm);
        let mut scratch = QueryScratch::new();
        let (choice, neighbors, ..) =
            req.execute_on(&Planner::new(), &Target::Single(&cursor), &mut scratch);
        assert_eq!(choice, Choice::Mbm);
        assert_eq!(neighbors.len(), 3);
    }
}
