//! The R*-tree topological split \[BKSS90\].
//!
//! `ChooseSplitAxis` picks the axis with the minimum total margin over all
//! legal distributions (considering both the lower- and upper-coordinate
//! sorts); `ChooseSplitIndex` then picks the distribution with minimum
//! overlap between the two group MBRs, breaking ties by minimum combined
//! area.

use crate::node::HasMbr;
use crate::RTreeParams;
use gnn_geom::Rect;

/// Splits an overflowing entry list into two groups per the R* algorithm.
///
/// `entries.len()` must be `max_entries + 1`; both returned groups satisfy
/// the `min_entries` bound.
pub(crate) fn rstar_split<E: HasMbr + Clone>(
    params: &RTreeParams,
    mut entries: Vec<E>,
) -> (Vec<E>, Vec<E>) {
    debug_assert!(entries.len() > params.max_entries);
    let m = params.min_entries;
    let total = entries.len();
    debug_assert!(total >= 2 * m, "cannot split {total} entries with min {m}");

    // --- ChooseSplitAxis: evaluate margin sums for both axes and sorts. ---
    let mut best_axis = Axis::X;
    let mut best_margin = f64::INFINITY;
    for axis in [Axis::X, Axis::Y] {
        for sort in [SortBy::Lower, SortBy::Upper] {
            sort_entries(&mut entries, axis, sort);
            let margin: f64 = distributions(total, m)
                .map(|split_at| {
                    let (l, r) = group_mbrs(&entries, split_at);
                    l.margin() + r.margin()
                })
                .sum();
            if margin < best_margin {
                best_margin = margin;
                best_axis = axis;
            }
        }
    }

    // --- ChooseSplitIndex on the winning axis. ---
    let mut best: Option<(SortBy, usize, f64, f64)> = None; // (sort, idx, overlap, area)
    for sort in [SortBy::Lower, SortBy::Upper] {
        sort_entries(&mut entries, best_axis, sort);
        for split_at in distributions(total, m) {
            let (l, r) = group_mbrs(&entries, split_at);
            let overlap = l.overlap_area(&r);
            let area = l.area() + r.area();
            let better = match best {
                None => true,
                Some((_, _, bo, ba)) => overlap < bo || (overlap == bo && area < ba),
            };
            if better {
                best = Some((sort, split_at, overlap, area));
            }
        }
    }
    let (sort, split_at, _, _) = best.expect("at least one distribution exists");
    sort_entries(&mut entries, best_axis, sort);
    let right = entries.split_off(split_at);
    (entries, right)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SortBy {
    Lower,
    Upper,
}

fn sort_entries<E: HasMbr>(entries: &mut [E], axis: Axis, sort: SortBy) {
    entries.sort_by(|a, b| {
        let (ka, kb) = match (axis, sort) {
            (Axis::X, SortBy::Lower) => (a.entry_mbr().lo.x, b.entry_mbr().lo.x),
            (Axis::X, SortBy::Upper) => (a.entry_mbr().hi.x, b.entry_mbr().hi.x),
            (Axis::Y, SortBy::Lower) => (a.entry_mbr().lo.y, b.entry_mbr().lo.y),
            (Axis::Y, SortBy::Upper) => (a.entry_mbr().hi.y, b.entry_mbr().hi.y),
        };
        ka.total_cmp(&kb)
    });
}

/// The legal split positions: the first group takes `m-1+k` entries for
/// `k = 1 ..= total - 2m + 2`... expressed directly as `m ..= total - m`.
fn distributions(total: usize, m: usize) -> impl Iterator<Item = usize> {
    m..=(total - m)
}

fn group_mbrs<E: HasMbr>(entries: &[E], split_at: usize) -> (Rect, Rect) {
    let mut left = Rect::empty();
    for e in &entries[..split_at] {
        left.expand_rect(&e.entry_mbr());
    }
    let mut right = Rect::empty();
    for e in &entries[split_at..] {
        right.expand_rect(&e.entry_mbr());
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafEntry;
    use gnn_geom::{Point, PointId};

    fn params4() -> RTreeParams {
        RTreeParams::with_capacity(4)
    }

    fn entries(points: &[(f64, f64)]) -> Vec<LeafEntry> {
        points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| LeafEntry::new(PointId(i as u64), Point::new(x, y)))
            .collect()
    }

    #[test]
    fn split_separates_two_obvious_clusters() {
        // Two clusters far apart on x; the split must not mix them.
        let es = entries(&[
            (0.0, 0.0),
            (0.1, 0.1),
            (10.0, 0.0),
            (10.1, 0.1),
            (0.05, 0.05),
        ]);
        let (l, r) = rstar_split(&params4(), es);
        let (small, large): (Vec<_>, Vec<_>) = (l, r);
        let lx: Vec<f64> = small.iter().map(|e| e.point.x).collect();
        let rx: Vec<f64> = large.iter().map(|e| e.point.x).collect();
        let left_is_near_zero = lx.iter().all(|&x| x < 1.0);
        let right_is_near_ten = rx.iter().all(|&x| x > 9.0);
        let flipped = lx.iter().all(|&x| x > 9.0) && rx.iter().all(|&x| x < 1.0);
        assert!(
            (left_is_near_zero && right_is_near_ten) || flipped,
            "clusters were mixed: {lx:?} vs {rx:?}"
        );
    }

    #[test]
    fn split_respects_min_entries() {
        let es = entries(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]);
        let (l, r) = rstar_split(&params4(), es);
        assert!(l.len() >= 2 && r.len() >= 2);
        assert_eq!(l.len() + r.len(), 5);
    }

    #[test]
    fn split_handles_duplicate_points() {
        let es = entries(&[(1.0, 1.0); 5]);
        let (l, r) = rstar_split(&params4(), es);
        assert_eq!(l.len() + r.len(), 5);
        assert!(l.len() >= 2 && r.len() >= 2);
    }

    #[test]
    fn split_prefers_y_axis_when_spread_is_vertical() {
        let es = entries(&[
            (0.0, 0.0),
            (0.1, 10.0),
            (0.05, 20.0),
            (0.02, 30.0),
            (0.07, 40.0),
        ]);
        let (l, r) = rstar_split(&params4(), es);
        // Groups must be contiguous in y.
        let max_l = l.iter().map(|e| e.point.y).fold(f64::MIN, f64::max);
        let min_r = r.iter().map(|e| e.point.y).fold(f64::MAX, f64::min);
        let max_r = r.iter().map(|e| e.point.y).fold(f64::MIN, f64::max);
        let min_l = l.iter().map(|e| e.point.y).fold(f64::MAX, f64::min);
        assert!(max_l <= min_r || max_r <= min_l);
    }
}
