//! Axis-aligned rectangles (minimum bounding rectangles).

use crate::Point;
use std::fmt;

/// An axis-aligned rectangle, used as a minimum bounding rectangle (MBR).
///
/// `lo` and `hi` are the lower-left and upper-right corners; an MBR with
/// `lo == hi` is a degenerate (point) rectangle and is valid. The struct is
/// the carrier of every pruning metric in the paper:
///
/// * `mindist(N, q)` — heuristic 1 (SPM) and best-first NN ordering,
/// * `mindist(N, M)` — heuristic 2 (MBM) and heuristic 5 (F-MBM),
/// * `mindist(p, M)` — leaf-level filtering in MBM and heuristic 6 (F-MBM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner (minimum coordinates).
    pub lo: Point,
    /// Upper-right corner (maximum coordinates).
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from its corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo` exceeds `hi` on any axis.
    #[inline]
    pub fn new(lo: Point, hi: Point) -> Self {
        debug_assert!(
            lo.x <= hi.x && lo.y <= hi.y,
            "invalid rect: lo={lo} hi={hi}"
        );
        Rect { lo, hi }
    }

    /// Creates a rectangle from the four coordinates `(x1, y1, x2, y2)`.
    #[inline]
    pub fn from_corners(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Rect::new(
            Point::new(x1.min(x2), y1.min(y2)),
            Point::new(x1.max(x2), y1.max(y2)),
        )
    }

    /// The degenerate rectangle containing exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { lo: p, hi: p }
    }

    /// The smallest rectangle containing every point of the iterator, or
    /// `None` for an empty iterator.
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::from_point(first);
        for p in it {
            r.expand_point(p);
        }
        Some(r)
    }

    /// An "inverted" rectangle useful as the identity for unions: any
    /// `expand_*` call replaces it.
    pub fn empty() -> Self {
        Rect {
            lo: Point::new(f64::INFINITY, f64::INFINITY),
            hi: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Whether this rectangle is the [`Rect::empty`] identity.
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y
    }

    /// Width along the x axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Height along the y axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area of the rectangle (0 for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half-perimeter (the R*-tree "margin" measure).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Geometric center.
    #[inline]
    pub fn center(&self) -> Point {
        self.lo.midpoint(self.hi)
    }

    /// Whether the point lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        self.lo.x <= p.x && p.x <= self.hi.x && self.lo.y <= p.y && p.y <= self.hi.y
    }

    /// Whether `other` lies entirely inside or on the boundary of `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && other.hi.x <= self.hi.x
            && other.hi.y <= self.hi.y
    }

    /// Whether the two rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// The intersection of two rectangles, or `None` if disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect::new(
            Point::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            Point::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        ))
    }

    /// Area of the intersection (0 if disjoint).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = (self.hi.x.min(other.hi.x) - self.lo.x.max(other.lo.x)).max(0.0);
        let h = (self.hi.y.min(other.hi.y) - self.lo.y.max(other.lo.y)).max(0.0);
        w * h
    }

    /// The smallest rectangle containing both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Grows the rectangle in place to cover `p`.
    #[inline]
    pub fn expand_point(&mut self, p: Point) {
        self.lo.x = self.lo.x.min(p.x);
        self.lo.y = self.lo.y.min(p.y);
        self.hi.x = self.hi.x.max(p.x);
        self.hi.y = self.hi.y.max(p.y);
    }

    /// Grows the rectangle in place to cover `other`.
    #[inline]
    pub fn expand_rect(&mut self, other: &Rect) {
        self.lo.x = self.lo.x.min(other.lo.x);
        self.lo.y = self.lo.y.min(other.lo.y);
        self.hi.x = self.hi.x.max(other.hi.x);
        self.hi.y = self.hi.y.max(other.hi.y);
    }

    /// How much `area` would grow if this rectangle were expanded to cover
    /// `other` (the classic R-tree insertion measure).
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// `mindist(N, q)`: minimum distance between any point of the rectangle
    /// and `q`. Zero when `q` lies inside.
    ///
    /// This is the lower bound used by best-first NN search \[HS99\] and by
    /// heuristics 1–3 and 5–6 of the paper.
    #[inline]
    pub fn mindist_point(&self, q: Point) -> f64 {
        self.mindist_point_sq(q).sqrt()
    }

    /// Squared [`Rect::mindist_point`].
    #[inline]
    pub fn mindist_point_sq(&self, q: Point) -> f64 {
        let dx = clamp_excess(q.x, self.lo.x, self.hi.x);
        let dy = clamp_excess(q.y, self.lo.y, self.hi.y);
        dx * dx + dy * dy
    }

    /// `mindist(N1, N2)`: minimum distance between any two points drawn from
    /// the two rectangles. Zero when they intersect. Used by the closest-pair
    /// algorithm (GCP substrate) and heuristics 2 and 5.
    #[inline]
    pub fn mindist_rect(&self, other: &Rect) -> f64 {
        self.mindist_rect_sq(other).sqrt()
    }

    /// Squared [`Rect::mindist_rect`].
    #[inline]
    pub fn mindist_rect_sq(&self, other: &Rect) -> f64 {
        let dx = axis_gap(self.lo.x, self.hi.x, other.lo.x, other.hi.x);
        let dy = axis_gap(self.lo.y, self.hi.y, other.lo.y, other.hi.y);
        dx * dx + dy * dy
    }
}

/// Distance from `v` to the interval `[lo, hi]` (0 inside).
#[inline]
fn clamp_excess(v: f64, lo: f64, hi: f64) -> f64 {
    if v < lo {
        lo - v
    } else if v > hi {
        v - hi
    } else {
        0.0
    }
}

/// Gap between the intervals `[a_lo, a_hi]` and `[b_lo, b_hi]` (0 if they
/// overlap).
#[inline]
fn axis_gap(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> f64 {
    if a_hi < b_lo {
        b_lo - a_hi
    } else if b_hi < a_lo {
        a_lo - b_hi
    } else {
        0.0
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::from_corners(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn area_margin_center() {
        let r = Rect::from_corners(1.0, 2.0, 4.0, 6.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.margin(), 7.0);
        assert_eq!(r.center(), Point::new(2.5, 4.0));
    }

    #[test]
    fn from_corners_normalizes() {
        let r = Rect::from_corners(4.0, 6.0, 1.0, 2.0);
        assert_eq!(r.lo, Point::new(1.0, 2.0));
        assert_eq!(r.hi, Point::new(4.0, 6.0));
    }

    #[test]
    fn containment() {
        let r = unit();
        assert!(r.contains_point(Point::new(0.5, 0.5)));
        assert!(r.contains_point(Point::new(0.0, 1.0))); // boundary counts
        assert!(!r.contains_point(Point::new(1.5, 0.5)));
        assert!(r.contains_rect(&Rect::from_corners(0.2, 0.2, 0.8, 0.8)));
        assert!(!r.contains_rect(&Rect::from_corners(0.5, 0.5, 1.5, 0.9)));
    }

    #[test]
    fn intersection_and_union() {
        let a = unit();
        let b = Rect::from_corners(0.5, 0.5, 2.0, 2.0);
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::from_corners(0.5, 0.5, 1.0, 1.0));
        assert_eq!(a.overlap_area(&b), 0.25);
        let u = a.union(&b);
        assert_eq!(u, Rect::from_corners(0.0, 0.0, 2.0, 2.0));

        let c = Rect::from_corners(3.0, 3.0, 4.0, 4.0);
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_none());
        assert_eq!(a.overlap_area(&c), 0.0);
    }

    #[test]
    fn touching_rects_intersect() {
        let a = unit();
        let b = Rect::from_corners(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
        assert_eq!(a.mindist_rect(&b), 0.0);
    }

    #[test]
    fn mindist_point_inside_is_zero() {
        assert_eq!(unit().mindist_point(Point::new(0.3, 0.9)), 0.0);
    }

    #[test]
    fn mindist_point_outside() {
        let r = unit();
        // Straight out along x.
        assert_eq!(r.mindist_point(Point::new(3.0, 0.5)), 2.0);
        // Diagonal from a corner: 3-4-5 triangle.
        assert_eq!(r.mindist_point(Point::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn mindist_rect_cases() {
        let a = unit();
        // Overlapping rects: 0.
        assert_eq!(a.mindist_rect(&Rect::from_corners(0.5, 0.5, 2.0, 2.0)), 0.0);
        // Separated along one axis.
        let b = Rect::from_corners(3.0, 0.0, 4.0, 1.0);
        assert_eq!(a.mindist_rect(&b), 2.0);
        // Separated diagonally (3-4-5).
        let c = Rect::from_corners(4.0, 5.0, 6.0, 7.0);
        assert_eq!(a.mindist_rect(&c), 5.0);
        // Symmetry.
        assert_eq!(c.mindist_rect(&a), 5.0);
    }

    #[test]
    fn empty_rect_behaves_as_identity() {
        let mut e = Rect::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.margin(), 0.0);
        e.expand_point(Point::new(2.0, 3.0));
        assert!(!e.is_empty());
        assert_eq!(e, Rect::from_point(Point::new(2.0, 3.0)));
    }

    #[test]
    fn bounding_of_points() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r, Rect::from_corners(-2.0, -1.0, 4.0, 5.0));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn enlargement() {
        let a = unit();
        let b = Rect::from_corners(2.0, 0.0, 3.0, 1.0);
        // Union is 3x1 = 3, minus original 1 => 2.
        assert_eq!(a.enlargement(&b), 2.0);
        assert_eq!(a.enlargement(&Rect::from_corners(0.2, 0.2, 0.4, 0.4)), 0.0);
    }

    #[test]
    fn expand_rect_grows() {
        let mut a = unit();
        a.expand_rect(&Rect::from_corners(-1.0, 0.5, 0.5, 2.0));
        assert_eq!(a, Rect::from_corners(-1.0, 0.0, 1.0, 2.0));
    }
}
