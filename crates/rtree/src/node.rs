//! Page and entry types of the paged R*-tree.
//!
//! Two layouts, one job each. The builder [`crate::RTree`] mutates
//! crate-private arena pages ([`Node`], [`Branch`]); every query reads a
//! [`crate::PackedRTree`] snapshot through the borrowed views [`PageRef`],
//! [`LeafRef`] and [`BranchesRef`], which hold that snapshot's lane-padded
//! SoA slices. A snapshot keeps one copy of each point: a leaf is its ids
//! beside its coordinate lanes, and [`LeafRef::entries`] assembles
//! [`LeafEntry`] values from them on the fly.

use gnn_geom::{Point, PointId, Rect};

/// Identifier of a page (node).
///
/// In the builder's arena an id is stable for the lifetime of the node, and
/// deleting a node recycles its id through a free list; a packed snapshot
/// renumbers its pages densely in BFS order (the root is page 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub(crate) u32);

impl PageId {
    /// The page's position: its slot in the builder's arena, its BFS
    /// position in a snapshot.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw numeric id (useful for buffer pools keyed by page number).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A data entry stored in a leaf: an identified point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    /// Stable identifier of the data point.
    pub id: PointId,
    /// Its location.
    pub point: Point,
}

impl LeafEntry {
    /// Creates a leaf entry.
    #[inline]
    pub const fn new(id: PointId, point: Point) -> Self {
        LeafEntry { id, point }
    }
}

/// An entry of an internal node: the MBR of a child subtree and its page id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Branch {
    /// Minimum bounding rectangle of everything below `child`.
    pub mbr: Rect,
    /// Page id of the child node.
    pub child: PageId,
}

/// A page of the tree: either a leaf holding data points or an internal node
/// holding child branches.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    /// Leaf node with data entries.
    Leaf(Vec<LeafEntry>),
    /// Internal node with child branches.
    Internal(Vec<Branch>),
}

impl Node {
    /// Number of entries stored in the page.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Internal(bs) => bs.len(),
        }
    }

    /// The minimum bounding rectangle of the page's contents
    /// ([`Rect::empty`] for an empty page).
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        match self {
            Node::Leaf(es) => {
                for e in es {
                    r.expand_point(e.point);
                }
            }
            Node::Internal(bs) => {
                for b in bs {
                    r.expand_rect(&b.mbr);
                }
            }
        }
        r
    }

    /// Child branches; panics when called on a leaf.
    #[inline]
    pub fn branches(&self) -> &[Branch] {
        match self {
            Node::Internal(bs) => bs,
            Node::Leaf(_) => panic!("branches() on leaf node"),
        }
    }
}

/// A borrowed view of one page of a [`crate::PackedRTree`] snapshot, as
/// produced by [`crate::TreeCursor::read`].
#[derive(Debug, Clone, Copy)]
pub enum PageRef<'t> {
    /// A leaf page of data entries.
    Leaf(LeafRef<'t>),
    /// An internal page of child branches.
    Internal(BranchesRef<'t>),
}

impl<'t> PageRef<'t> {
    /// Number of entries stored in the page.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            PageRef::Leaf(l) => l.len(),
            PageRef::Internal(b) => b.len(),
        }
    }

    /// Whether the page holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A borrowed leaf page: its entries' ids plus their SoA coordinate lanes,
/// the only copy of the coordinates (the batched point kernels run straight
/// over them). The lanes are **lane-padded**: each holds at least
/// `pad_len(len())` readable lanes (`0.0` past the entries), which is what
/// lets the SIMD kernels run full vectors with no scalar tail. `ids` stops
/// at the page's true length, and exactly `len()` results ever come out of
/// the batched methods.
#[derive(Debug, Clone, Copy)]
pub struct LeafRef<'t> {
    ids: &'t [PointId],
    /// x/y coordinates of the entries, parallel to `ids` and lane-padded.
    xs: &'t [f64],
    ys: &'t [f64],
}

impl<'t> LeafRef<'t> {
    /// A view over a packed leaf's ids and lane-padded coordinates.
    #[inline]
    pub(crate) fn new(ids: &'t [PointId], xs: &'t [f64], ys: &'t [f64]) -> Self {
        let pad = gnn_geom::simd::pad_len(ids.len());
        debug_assert!(xs.len() >= pad && ys.len() >= pad);
        LeafRef { ids, xs, ys }
    }

    /// Number of entries in the page.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the page holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The entries' ids, in page order.
    #[inline]
    pub fn ids(&self) -> &'t [PointId] {
        self.ids
    }

    /// The lane-padded SoA coordinates `(xs, ys)` of the entries. Both
    /// slices hold at least `pad_len(len())` readable lanes, so a padded
    /// kernel can run over the page's own storage with no staging copy.
    #[inline]
    pub fn coords(&self) -> (&'t [f64], &'t [f64]) {
        (self.xs, self.ys)
    }

    /// Entry `j` of the page.
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    #[inline]
    pub fn entry(&self, j: usize) -> LeafEntry {
        LeafEntry::new(self.ids[j], Point::new(self.xs[j], self.ys[j]))
    }

    /// The entries of the page, in page order.
    #[inline]
    pub fn entries(&self) -> impl ExactSizeIterator<Item = LeafEntry> + 't {
        let n = self.ids.len();
        self.ids
            .iter()
            .zip(&self.xs[..n])
            .zip(&self.ys[..n])
            .map(|((&id, &x), &y)| LeafEntry::new(id, Point::new(x, y)))
    }

    /// `out[i] = |entry(i).point, q|²`, batched over the SoA lanes.
    /// `out` is cleared and refilled (capacity reused).
    pub fn dist_sq_into(&self, q: Point, out: &mut Vec<f64>) {
        gnn_geom::batch::BatchKernels::auto().points_dist_sq_padded(
            self.xs,
            self.ys,
            self.ids.len(),
            q,
            out,
        );
    }
}

/// A borrowed internal page: four parallel rectangle-coordinate slices plus
/// the child ids (SoA), so a node scan runs through the branch-free batched
/// kernels.
///
/// The coordinate slices are **lane-padded**: they hold at least
/// `pad_len(children.len())` readable lanes, the tail filled with `0.0`
/// sentinels. `children` stops at the page's true length and is what bounds
/// every loop; the batched methods emit exactly `children.len()` results.
#[derive(Debug, Clone, Copy)]
pub struct BranchesRef<'t> {
    /// `lo.x` of every child MBR (lane-padded).
    pub(crate) lo_x: &'t [f64],
    /// `lo.y` of every child MBR (lane-padded).
    pub(crate) lo_y: &'t [f64],
    /// `hi.x` of every child MBR (lane-padded).
    pub(crate) hi_x: &'t [f64],
    /// `hi.y` of every child MBR (lane-padded).
    pub(crate) hi_y: &'t [f64],
    /// Child page ids — exactly the page's true length (no padding).
    pub(crate) children: &'t [PageId],
}

impl<'t> BranchesRef<'t> {
    /// Number of branches in the page.
    #[inline]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the page holds no branches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Child page id of branch `i`.
    #[inline]
    pub fn child(&self, i: usize) -> PageId {
        self.children[i]
    }

    /// MBR of branch `i`.
    #[inline]
    pub fn mbr(&self, i: usize) -> Rect {
        Rect::new(
            Point::new(self.lo_x[i], self.lo_y[i]),
            Point::new(self.hi_x[i], self.hi_y[i]),
        )
    }

    /// `out[i] = mindist²(branch_i.mbr, q)`, batched over the SoA slices.
    /// `out` is cleared and refilled (capacity reused).
    pub fn mindist_sq_point_into(&self, q: Point, out: &mut Vec<f64>) {
        gnn_geom::batch::BatchKernels::auto().rects_mindist_sq_point_padded(
            self.lo_x,
            self.lo_y,
            self.hi_x,
            self.hi_y,
            self.children.len(),
            q,
            out,
        );
    }

    /// `out[i] = mindist²(branch_i.mbr, m)`, batched over the SoA slices.
    /// `out` is cleared and refilled.
    pub fn mindist_sq_rect_into(&self, m: &Rect, out: &mut Vec<f64>) {
        gnn_geom::batch::BatchKernels::auto().rects_mindist_sq_rect_padded(
            self.lo_x,
            self.lo_y,
            self.hi_x,
            self.hi_y,
            self.children.len(),
            m,
            out,
        );
    }

    /// Iterates the branches as `(mbr, child)` pairs, in page order.
    pub fn iter(&self) -> impl Iterator<Item = (Rect, PageId)> + '_ {
        (0..self.len()).map(move |i| (self.mbr(i), self.child(i)))
    }
}

/// Either kind of entry; used by insertion/reinsertion code paths that treat
/// leaf entries and branches uniformly.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AnyEntry {
    Leaf(LeafEntry),
    Branch(Branch),
}

impl AnyEntry {
    #[inline]
    pub(crate) fn mbr(&self) -> Rect {
        match self {
            AnyEntry::Leaf(e) => Rect::from_point(e.point),
            AnyEntry::Branch(b) => b.mbr,
        }
    }
}

/// Anything with a bounding rectangle; lets the R* split run on both entry
/// kinds with one implementation.
pub(crate) trait HasMbr {
    fn entry_mbr(&self) -> Rect;
}

impl HasMbr for LeafEntry {
    #[inline]
    fn entry_mbr(&self) -> Rect {
        Rect::from_point(self.point)
    }
}

impl HasMbr for Branch {
    #[inline]
    fn entry_mbr(&self) -> Rect {
        self.mbr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_mbr_bounds_points() {
        let node = Node::Leaf(vec![
            LeafEntry::new(PointId(1), Point::new(0.0, 5.0)),
            LeafEntry::new(PointId(2), Point::new(3.0, 1.0)),
        ]);
        assert_eq!(node.mbr(), Rect::from_corners(0.0, 1.0, 3.0, 5.0));
        assert_eq!(node.len(), 2);
    }

    #[test]
    fn internal_mbr_bounds_branches() {
        let node = Node::Internal(vec![
            Branch {
                mbr: Rect::from_corners(0.0, 0.0, 1.0, 1.0),
                child: PageId(7),
            },
            Branch {
                mbr: Rect::from_corners(2.0, -1.0, 3.0, 0.5),
                child: PageId(9),
            },
        ]);
        assert_eq!(node.mbr(), Rect::from_corners(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn empty_node_mbr_is_empty() {
        assert!(Node::Leaf(vec![]).mbr().is_empty());
    }

    #[test]
    #[should_panic(expected = "branches() on leaf")]
    fn branches_on_leaf_panics() {
        let _ = Node::Leaf(vec![]).branches();
    }
}
