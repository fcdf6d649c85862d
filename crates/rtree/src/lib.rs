//! # gnn-rtree — an R\*-tree disk simulation for GNN query processing
//!
//! The substrate the ICDE 2004 GNN paper assumes: the dataset `P` (and, for
//! GCP, the query set `Q`) is indexed by an R\*-tree \[BKSS90\] with 1 KByte
//! pages holding 50 entries. This crate provides, from scratch:
//!
//! * [`RTree`] — the builder: paged R\*-tree with `ChooseSubtree`, forced
//!   reinsertion and the topological split; deletion with tree
//!   condensation; STR bulk loading;
//! * [`PackedRTree`] — the read-optimized snapshot ([`RTree::freeze`]) every
//!   query reads: contiguous page arenas, SoA rectangle coordinates and
//!   dense BFS page ids, so query scans are linear passes over packed
//!   memory; under mixed update/query traffic, [`RTree::refreeze`] rebuilds
//!   the next snapshot incrementally by copying the spans of every page
//!   untouched since the previous one (page-level copy-on-write, pinned
//!   identical to a full freeze);
//! * [`TreeCursor`] / [`AccessStats`] / [`LruBuffer`] — the disk simulation:
//!   every page read is metered, optionally through an LRU buffer pool, and
//!   reported as the paper's *node accesses* (NA) metric;
//! * [`NearestNeighbors`] — incremental best-first NN search \[HS99\] (the
//!   engine under MQM and SPM), run in a reusable [`NnScratch`];
//! * [`ClosestPairs`] — incremental distance-join between two trees
//!   \[HS98, CMTV00\] (the engine under GCP), with heap-watermark tracking
//!   and an optional heap limit reproducing the paper's GCP blow-up;
//! * [`validate::check_invariants`] — structural checker used by the tests.
//!
//! ```
//! use gnn_geom::{Point, PointId};
//! use gnn_rtree::{LeafEntry, NearestNeighbors, NnScratch, RTree, RTreeParams, TreeCursor};
//!
//! let tree = RTree::bulk_load(
//!     RTreeParams::default(),
//!     (0..1000).map(|i| {
//!         let f = i as f64;
//!         LeafEntry::new(PointId(i), Point::new(f % 31.0, f % 17.0))
//!     }),
//! )
//! .freeze();
//! let cursor = TreeCursor::with_buffer(&tree, 128);
//! let mut scratch = NnScratch::default();
//! let nearest: Vec<_> = NearestNeighbors::new_in(&cursor, Point::new(5.2, 4.9), &mut scratch)
//!     .take(3)
//!     .collect();
//! assert_eq!(nearest.len(), 3);
//! assert!(cursor.stats().io > 0); // page reads were metered
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulk;
mod closest_pairs;
mod cursor;
mod nn;
mod node;
mod packed;
mod params;
mod sharded;
mod split;
mod tree;
pub mod validate;

pub use bulk::DEFAULT_BULK_FILL;
pub use closest_pairs::{ClosestPairs, PairResult};
pub use cursor::{AccessStats, LruBuffer, TreeCursor};
pub use nn::{NearestNeighbors, NnScratch, PointNeighbor};
pub use node::{BranchesRef, LeafEntry, LeafRef, PageId, PageRef};
pub use packed::PackedRTree;
pub use params::RTreeParams;
pub use sharded::{ShardedSnapshot, ShardedTree};
pub use tree::RTree;

/// Compile-time thread-safety contract of the storage layer.
///
/// * [`RTree`] and [`PackedRTree`] are plain owned data (`Vec` arenas, no
///   interior mutability), so they are `Send + Sync`: a frozen snapshot can
///   be shared across worker threads behind an `Arc` and queried
///   concurrently through per-thread cursors.
/// * [`TreeCursor`] is `Send` but **intentionally `!Sync`**: it meters
///   every page read into a `RefCell` (access counters + optional LRU
///   buffer state), which makes `read` callable through `&self` on the
///   single thread that owns the cursor without any locking on the hot
///   path. Sharing one cursor across threads would serialise every page
///   read behind a lock *and* scramble the per-query access accounting —
///   the intended pattern is one cursor (plus one `QueryScratch`) per
///   worker, all reading the same `Arc<PackedRTree>`.
///
/// The assertions below fail to compile if a future change (e.g. an `Rc`
/// or a raw pointer in a node type) silently removes an auto trait.
#[allow(dead_code)]
mod thread_safety_assertions {
    use super::*;

    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}

    const _: () = assert_send_sync::<RTree>();
    const _: () = assert_send_sync::<PackedRTree>();
    const _: () = assert_send_sync::<ShardedSnapshot>();
    const _: () = assert_send_sync::<ShardedTree>();
    const _: () = assert_send_sync::<AccessStats>();
    const _: () = assert_send_sync::<LeafEntry>();
    const _: () = assert_send_sync::<NnScratch>();
    // `TreeCursor` must move freely into a worker thread; its `!Sync` half
    // of the contract is pinned by a `compile_fail` doc-test on the type.
    const _: () = assert_send::<TreeCursor<'static>>();
}
