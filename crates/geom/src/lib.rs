//! # gnn-geom — geometry kernel for group nearest neighbor search
//!
//! Self-contained 2-D geometric primitives shared by every crate in the GNN
//! workspace:
//!
//! * [`Point`] / [`PointId`] — Euclidean points and stable identifiers,
//! * [`Rect`] — axis-aligned rectangles (MBRs) with the `mindist` /
//!   `minmaxdist` metrics used by every R-tree pruning bound,
//! * [`OrderedF64`] — a totally-ordered `f64` wrapper so distances can key
//!   binary heaps,
//! * [`batch`] — branch-free batched distance kernels over SoA coordinate
//!   slices (the packed R-tree's scan primitives), with scalar and explicit
//!   SIMD backends behind one dispatch ([`batch::BatchKernels`]),
//! * [`bound`] — the rounded-down lower bounds on the weighted SUM
//!   ([`bound::LeafBound`], [`bound::CentroidBound`],
//!   [`bound::BlockBound`]), built once per query, and on a network
//!   distance ([`bound::LandmarkBound`]), with their margin derivations,
//! * [`simd`] — the AVX2 kernel bodies, runtime dispatch level
//!   ([`SimdLevel`]) and the lane-padding helpers,
//! * [`hilbert`] — the 2-D Hilbert space-filling curve used to sort query
//!   points for access locality (paper §3.1, §4.2, §4.3).
//!
//! All computations are `f64` (save the `f32` leaf bound and landmark
//! entries); the crate has no dependencies. `unsafe` is denied everywhere
//! except [`simd`]'s lane load and store helpers (its AVX2 kernels are safe
//! `#[target_feature]` functions over slices) and the one call per dispatch
//! arm into them from [`batch`] and [`bound`]. Every `unsafe` block carries a `SAFETY:` comment (clippy's
//! `undocumented_unsafe_blocks` is denied), and CI runs the crate's tests
//! under AddressSanitizer on nightly.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod batch;
pub mod bound;
pub mod hilbert;
mod ordered;
mod point;
mod rect;
pub mod simd;

pub use ordered::OrderedF64;
pub use point::{Point, PointId};
pub use rect::Rect;
pub use simd::SimdLevel;
