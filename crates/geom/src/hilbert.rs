//! The 2-D Hilbert space-filling curve.
//!
//! The paper sorts query points by Hilbert value so that consecutive
//! incremental NN queries (MQM, §3.1) touch nearby R-tree nodes, and so that
//! disk-resident query files can be split into spatially coherent groups
//! (F-MQM §4.2, F-MBM §4.3).
//!
//! The implementation is the classic iterative bit-interleaving conversion
//! (Hamilton's / Wikipedia's `xy2d`–`d2xy` pair) on a `2^order × 2^order`
//! grid; [`HilbertMapper`] scales real-world coordinates into that grid.

use crate::{Point, Rect};

/// Default curve order: a 2^16 × 2^16 grid, giving 32-bit Hilbert keys —
/// plenty of resolution for datasets of a few hundred thousand points.
pub const DEFAULT_ORDER: u32 = 16;

/// Converts grid coordinates `(x, y)` to the distance `d` along the Hilbert
/// curve of the given `order` (grid side `2^order`).
///
/// # Panics
///
/// Panics if `order` is 0 or greater than 31, or if a coordinate lies
/// outside the grid.
pub fn xy_to_d(order: u32, mut x: u32, mut y: u32) -> u64 {
    assert!(
        (1..=31).contains(&order),
        "hilbert order must be in 1..=31, got {order}"
    );
    let n: u32 = 1 << order;
    assert!(x < n && y < n, "({x}, {y}) outside 2^{order} grid");
    let mut d: u64 = 0;
    let mut s = n >> 1;
    while s > 0 {
        let rx = u32::from(x & s > 0);
        let ry = u32::from(y & s > 0);
        d += u64::from(s) * u64::from(s) * u64::from((3 * rx) ^ ry);
        rotate(n, &mut x, &mut y, rx, ry);
        s >>= 1;
    }
    d
}

/// Converts a distance `d` along the Hilbert curve back to grid coordinates.
///
/// Inverse of [`xy_to_d`].
///
/// # Panics
///
/// Panics if `order` is out of range or `d >= 4^order`.
pub fn d_to_xy(order: u32, d: u64) -> (u32, u32) {
    assert!(
        (1..=31).contains(&order),
        "hilbert order must be in 1..=31, got {order}"
    );
    let n: u32 = 1 << order;
    assert!(
        d < (u64::from(n) * u64::from(n)),
        "d={d} outside curve of order {order}"
    );
    let (mut x, mut y) = (0u32, 0u32);
    let mut t = d;
    let mut s: u32 = 1;
    while s < n {
        let rx = (1 & (t / 2)) as u32;
        let ry = (1 & (t ^ u64::from(rx))) as u32;
        rotate(s, &mut x, &mut y, rx, ry);
        x += s * rx;
        y += s * ry;
        t /= 4;
        s <<= 1;
    }
    (x, y)
}

/// Quadrant rotation/reflection step shared by both conversions.
#[inline]
fn rotate(n: u32, x: &mut u32, y: &mut u32, rx: u32, ry: u32) {
    if ry == 0 {
        if rx == 1 {
            *x = n - 1 - *x;
            *y = n - 1 - *y;
        }
        std::mem::swap(x, y);
    }
}

/// Maps real-valued points inside a workspace rectangle onto Hilbert keys.
///
/// ```
/// use gnn_geom::hilbert::HilbertMapper;
/// use gnn_geom::{Point, Rect};
///
/// let ws = Rect::from_corners(0.0, 0.0, 100.0, 100.0);
/// let mapper = HilbertMapper::new(ws);
/// let a = mapper.key(Point::new(1.0, 1.0));
/// let b = mapper.key(Point::new(1.5, 1.0));
/// let c = mapper.key(Point::new(99.0, 99.0));
/// // Nearby points receive closer keys than far-apart ones.
/// assert!(a.abs_diff(b) < a.abs_diff(c));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HilbertMapper {
    workspace: Rect,
    order: u32,
    scale_x: f64,
    scale_y: f64,
}

impl HilbertMapper {
    /// A mapper over `workspace` with the [`DEFAULT_ORDER`] grid.
    pub fn new(workspace: Rect) -> Self {
        Self::with_order(workspace, DEFAULT_ORDER)
    }

    /// A mapper over `workspace` with a custom grid order.
    ///
    /// Degenerate workspaces (zero width or height) are handled by mapping
    /// the flat axis to grid cell 0.
    pub fn with_order(workspace: Rect, order: u32) -> Self {
        assert!(
            (1..=31).contains(&order),
            "hilbert order must be in 1..=31, got {order}"
        );
        let cells = (1u64 << order) as f64;
        let sx = workspace.width();
        let sy = workspace.height();
        HilbertMapper {
            workspace,
            order,
            scale_x: if sx > 0.0 { cells / sx } else { 0.0 },
            scale_y: if sy > 0.0 { cells / sy } else { 0.0 },
        }
    }

    /// The Hilbert key of `p`. Points outside the workspace are clamped to
    /// its boundary (they still receive locality-preserving keys).
    pub fn key(&self, p: Point) -> u64 {
        let max_cell = (1u32 << self.order) - 1;
        let gx = ((p.x - self.workspace.lo.x) * self.scale_x) as i64;
        let gy = ((p.y - self.workspace.lo.y) * self.scale_y) as i64;
        let gx = gx.clamp(0, i64::from(max_cell)) as u32;
        let gy = gy.clamp(0, i64::from(max_cell)) as u32;
        xy_to_d(self.order, gx, gy)
    }
}

/// Splits a **sorted** key sequence into `parts` near-even consecutive
/// ranges, returning the `parts - 1` range boundaries: range `s` covers keys
/// in `[cuts[s-1], cuts[s])` (with `-∞` / `+∞` at the ends).
///
/// Boundaries never split a run of equal keys — points sharing a Hilbert
/// cell always land in the same range, which is what makes range membership
/// a pure function of the key (the property spatial shard routing relies
/// on). When equal-key runs force it, later ranges may come out empty; a
/// repeated cut value marks such a range (nothing routes into it).
///
/// # Panics
///
/// Panics if `parts` is zero or `keys` is not sorted ascending.
pub fn balanced_cuts(keys: &[u64], parts: usize) -> Vec<u64> {
    assert!(parts > 0, "need at least one range");
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
    let n = keys.len();
    let mut cuts = Vec::with_capacity(parts - 1);
    let mut prev_b = 0usize;
    for s in 1..parts {
        let mut b = (s * n / parts).max(prev_b);
        // Advance past an equal-key run so the cut lands on a key change.
        while b > 0 && b < n && keys[b] == keys[b - 1] {
            b += 1;
        }
        cuts.push(if b >= n { u64::MAX } else { keys[b] });
        prev_b = b;
    }
    cuts
}

/// The range index a key routes to under [`balanced_cuts`] boundaries.
#[inline]
pub fn cut_range(cuts: &[u64], key: u64) -> usize {
    cuts.partition_point(|&c| c <= key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_one_curve_is_the_u_shape() {
        // 2x2 grid: the curve visits (0,0), (0,1), (1,1), (1,0).
        let visits: Vec<(u32, u32)> = (0..4).map(|d| d_to_xy(1, d)).collect();
        assert_eq!(visits, vec![(0, 0), (0, 1), (1, 1), (1, 0)]);
    }

    #[test]
    fn roundtrip_small_orders() {
        for order in 1..=6 {
            let n = 1u64 << order;
            for d in 0..n * n {
                let (x, y) = d_to_xy(order, d);
                assert_eq!(xy_to_d(order, x, y), d, "order={order} d={d}");
            }
        }
    }

    #[test]
    fn consecutive_cells_are_grid_neighbors() {
        // The defining property of the Hilbert curve: successive curve
        // positions are at Manhattan distance exactly 1.
        for order in 1..=6 {
            let n = 1u64 << order;
            let mut prev = d_to_xy(order, 0);
            for d in 1..n * n {
                let cur = d_to_xy(order, d);
                let manhattan = (i64::from(cur.0) - i64::from(prev.0)).abs()
                    + (i64::from(cur.1) - i64::from(prev.1)).abs();
                assert_eq!(manhattan, 1, "order={order} d={d}");
                prev = cur;
            }
        }
    }

    #[test]
    fn covers_every_cell_exactly_once() {
        let order = 4;
        let n = 1u32 << order;
        let mut seen = vec![false; (n * n) as usize];
        for d in 0..u64::from(n) * u64::from(n) {
            let (x, y) = d_to_xy(order, d);
            let idx = (y * n + x) as usize;
            assert!(!seen[idx], "cell visited twice");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mapper_clamps_out_of_workspace_points() {
        let ws = Rect::from_corners(0.0, 0.0, 1.0, 1.0);
        let m = HilbertMapper::new(ws);
        // Should not panic, and should equal the key of the clamped point.
        assert_eq!(m.key(Point::new(-5.0, 0.5)), m.key(Point::new(0.0, 0.5)));
        assert_eq!(m.key(Point::new(2.0, 2.0)), m.key(Point::new(1.0, 1.0)));
    }

    #[test]
    fn mapper_handles_degenerate_workspace() {
        let ws = Rect::from_corners(3.0, 0.0, 3.0, 10.0); // zero width
        let m = HilbertMapper::new(ws);
        let k1 = m.key(Point::new(3.0, 1.0));
        let k2 = m.key(Point::new(3.0, 9.0));
        assert_ne!(k1, k2); // y still differentiates
    }

    #[test]
    fn balanced_cuts_split_evenly_on_distinct_keys() {
        let keys: Vec<u64> = (0..100).collect();
        let cuts = balanced_cuts(&keys, 4);
        assert_eq!(cuts, vec![25, 50, 75]);
        let mut counts = [0usize; 4];
        for &k in &keys {
            counts[cut_range(&cuts, k)] += 1;
        }
        assert_eq!(counts, [25, 25, 25, 25]);
    }

    #[test]
    fn balanced_cuts_never_split_equal_key_runs() {
        // A huge run of one key straddling every even boundary.
        let mut keys = vec![7u64; 90];
        keys.extend([8, 9, 10]);
        let cuts = balanced_cuts(&keys, 4);
        // All the 7s route together.
        let shard_of_7 = cut_range(&cuts, 7);
        assert_eq!(shard_of_7, 0);
        for w in cuts.windows(2) {
            assert!(w[0] <= w[1], "cuts must be non-decreasing: {cuts:?}");
        }
        // Routing partitions: every key lands in exactly one range.
        for &k in &keys {
            assert!(cut_range(&cuts, k) < 4);
        }
    }

    #[test]
    fn balanced_cuts_handle_degenerate_inputs() {
        assert_eq!(balanced_cuts(&[], 3), vec![u64::MAX, u64::MAX]);
        assert_eq!(balanced_cuts(&[5], 1), Vec::<u64>::new());
        // More parts than keys: later ranges stay empty.
        let cuts = balanced_cuts(&[1, 2], 5);
        assert_eq!(cuts.len(), 4);
        assert!(cut_range(&cuts, 1) <= cut_range(&cuts, 2));
        assert!(cut_range(&cuts, 2) < 5);
    }

    #[test]
    #[should_panic(expected = "must be sorted")]
    fn balanced_cuts_reject_unsorted_keys() {
        balanced_cuts(&[3, 1], 2);
    }

    #[test]
    #[should_panic(expected = "outside 2^")]
    fn xy_out_of_grid_panics() {
        xy_to_d(2, 4, 0);
    }

    #[test]
    #[should_panic(expected = "outside curve")]
    fn d_out_of_curve_panics() {
        d_to_xy(2, 16);
    }
}
