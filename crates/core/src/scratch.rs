//! Reusable per-query storage — the zero-allocation hot path.
//!
//! Every GNN algorithm needs the same kinds of transient state: a best-first
//! priority queue, a [`KBestList`], per-query-point threshold buffers and
//! candidate bookkeeping for the file algorithms. The seed implementation
//! allocated all of it afresh on every query; [`QueryScratch`] hoists it
//! into one reusable bundle that an engine keeps per worker thread.
//!
//! After a warm-up query, the buffers have reached their steady-state
//! capacities and every further query through
//! [`crate::QueryRequest::execute_on`] or an algorithm's `k_gnn_in`
//! ([`crate::MemoryGnnAlgorithm::k_gnn_in`],
//! [`crate::FileGnnAlgorithm::k_gnn_in`]) performs **zero heap
//! allocations**. The `scratch_reuse` integration test pins this by
//! asserting that [`QueryScratch::capacity_profile`] never changes across a
//! steady-state workload.

use crate::best_list::KBestList;
use crate::fmbm::FmbmScratch;
use crate::fmqm::FmqmScratch;
use crate::mbm::MbmScratch;
use crate::result::Neighbor;
use gnn_rtree::NnScratch;
use std::any::Any;
use std::collections::HashSet;
use std::fmt;

/// Reusable storage for GNN queries. Create once, thread through the
/// `*_in` query entry points, and steady-state queries stop allocating.
///
/// One scratch serves one query at a time (the algorithms borrow it
/// mutably); keep one per worker for concurrent engines.
#[derive(Debug)]
pub struct QueryScratch {
    /// The bounded best-k list (every algorithm).
    pub(crate) best: KBestList,
    /// Result staging: `*_in` entry points return a slice of this.
    pub(crate) out: Vec<Neighbor>,
    /// MBM state: the bounded top-k loop's node heap, the primary
    /// incremental stream's heap, and the page-scoring buffers they share.
    pub(crate) mbm: MbmScratch,
    /// Best-first point-NN scratches, one per MQM stream (SPM uses slot 0).
    pub(crate) nn_pool: Vec<NnScratch>,
    /// MQM's Hilbert-ordered visiting order.
    pub(crate) order: Vec<usize>,
    /// MQM's per-query-point thresholds `t_i`.
    pub(crate) ts: Vec<f64>,
    /// MQM's evaluated-point id set.
    pub(crate) evaluated: HashSet<u64>,
    /// F-MQM state (per-group streams, thresholds, candidate pool).
    pub(crate) fmqm: FmqmScratch,
    /// F-MBM state (traversal heap, leaf processing buffers).
    pub(crate) fmbm: FmbmScratch,
    /// Cross-shard merge: the global best-k list candidates from every
    /// consulted shard are offered into (see [`crate::sharded`]).
    pub(crate) merge_best: KBestList,
    /// Cross-shard merge: the merged result staging buffer (`merge_best`
    /// cannot drain into `out`, which holds the last shard's results).
    pub(crate) merge_out: Vec<Neighbor>,
    /// Cross-shard merge: `(lower bound, shard)` visit order.
    pub(crate) shard_order: Vec<(f64, u32)>,
    /// Opaque per-worker state of a [`crate::NetworkBackend`] (e.g.
    /// `gnn-network`'s `NetworkScratch`). Core cannot name the concrete
    /// type (the backend crate depends on core, not vice versa), so the
    /// slot is type-erased; backends reclaim it with
    /// [`QueryScratch::take_backend_state`] and downcast.
    backend_state: BackendState,
}

/// Type-erased backend scratch slot. A newtype so [`QueryScratch`] keeps
/// its `Debug` derive (`dyn Any` is not `Debug`).
#[derive(Default)]
struct BackendState(Option<Box<dyn Any + Send>>);

impl fmt::Debug for BackendState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("BackendState(occupied)"),
            None => f.write_str("BackendState(empty)"),
        }
    }
}

impl QueryScratch {
    /// A fresh scratch with modest pre-sized buffers.
    pub fn new() -> Self {
        QueryScratch {
            best: KBestList::new(1),
            out: Vec::with_capacity(16),
            mbm: MbmScratch::with_capacity(256),
            nn_pool: Vec::new(),
            order: Vec::new(),
            ts: Vec::new(),
            evaluated: HashSet::new(),
            fmqm: FmqmScratch::default(),
            fmbm: FmbmScratch::default(),
            merge_best: KBestList::new(1),
            merge_out: Vec::new(),
            shard_order: Vec::new(),
            backend_state: BackendState::default(),
        }
    }

    /// Takes the backend's type-erased per-worker state out of the scratch
    /// (`None` on the first query through this scratch, or if a different
    /// backend left an incompatible value — downcast and rebuild then).
    /// Backends take the box out, run with both the state and the scratch
    /// borrowable, and put it back with
    /// [`QueryScratch::put_backend_state`] — the take/put dance is what
    /// lets the state live *inside* the scratch without aliasing it.
    pub fn take_backend_state(&mut self) -> Option<Box<dyn Any + Send>> {
        self.backend_state.0.take()
    }

    /// Returns the backend state taken by
    /// [`QueryScratch::take_backend_state`] so the next query on this
    /// scratch reuses its warmed-up buffers.
    pub fn put_backend_state(&mut self, state: Box<dyn Any + Send>) {
        self.backend_state.0 = Some(state);
    }

    /// Stages externally computed neighbors as this scratch's current
    /// result, so [`QueryScratch::neighbors`] and the `*_in` calling
    /// convention (return a slice borrowed from the scratch) work for
    /// backend-executed queries too. Deliberately returns nothing: the
    /// caller re-borrows through [`QueryScratch::neighbors`] *after*
    /// putting its own state back.
    pub fn stage_neighbors(&mut self, neighbors: &[Neighbor]) {
        self.out.clear();
        self.out.extend_from_slice(neighbors);
    }

    /// The neighbors of the most recent `*_in` query (valid until the next
    /// query through this scratch).
    pub fn neighbors(&self) -> &[Neighbor] {
        &self.out
    }

    /// A snapshot of every internal buffer capacity, in a fixed order.
    ///
    /// In steady state (same workload shape) the profile must not change
    /// between queries: any growth would mean the hot path still allocates.
    /// The zero-allocation acceptance test asserts exactly that.
    pub fn capacity_profile(&self) -> Vec<usize> {
        let mut prof = vec![
            self.best.capacity(),
            self.out.capacity(),
            self.nn_pool.capacity(),
            self.order.capacity(),
            self.ts.capacity(),
            self.evaluated.capacity(),
        ];
        prof.extend(self.mbm.capacity_profile());
        for nn in &self.nn_pool {
            prof.extend(nn.capacity_profile());
        }
        prof.extend(self.fmqm.capacity_profile());
        prof.extend(self.fmbm.capacity_profile());
        prof.push(self.merge_best.capacity());
        prof.push(self.merge_out.capacity());
        prof.push(self.shard_order.capacity());
        prof
    }
}

impl Default for QueryScratch {
    fn default() -> Self {
        QueryScratch::new()
    }
}
