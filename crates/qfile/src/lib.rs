//! # gnn-qfile — paged, disk-resident query point files
//!
//! Section 4 of the paper drops the assumption that the query set `Q` fits
//! in memory: `Q` lives on disk as a flat file of points. F-MQM and F-MBM
//! first sort the file by Hilbert value ("the cost of sorting ... is not
//! taken into account", §5.2) and split it into *groups* `Q1..Qm` of
//! consecutive pages, each small enough for main memory (the experiments use
//! 10 000-point groups).
//!
//! This crate simulates that file:
//!
//! * [`PointFile`] — an immutable paged sequence of points,
//! * [`FileCursor`] — a read handle metering page reads (the query-side
//!   component of the paper's node-access metric),
//! * [`GroupedQueryFile`] — the Hilbert-sorted, grouped view: per group the
//!   MBR `M_i` and cardinality `n_i` stay resident in memory (that is all
//!   F-MBM's heuristic 5 needs), while the member points must be loaded —
//!   and paid for — page by page.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gnn_geom::hilbert::HilbertMapper;
use gnn_geom::{Point, Rect};
use std::cell::Cell;
use std::ops::Range;

/// Points per simulated 1 KByte page: a bare 2-D point is two `f64`s
/// (16 bytes), so 64 points fit where the R-tree (whose entries also carry
/// an id and thus occupy 20 bytes) fits 50.
pub const DEFAULT_PAGE_CAPACITY: usize = 64;

/// Points per memory-resident group, following the paper's experimental
/// setup ("split into blocks of 10000 points, that fit in memory", §5.2).
const DEFAULT_GROUP_CAPACITY: usize = 10_000;

/// An immutable paged file of points.
#[derive(Debug, Clone)]
pub struct PointFile {
    pages: Vec<Vec<Point>>,
    len: usize,
    mbr: Rect,
}

impl PointFile {
    /// Paginates `points` in the given order (no sorting) into pages of
    /// `page_capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `page_capacity` is zero or any point is non-finite.
    pub fn new(points: Vec<Point>, page_capacity: usize) -> Self {
        assert!(page_capacity > 0, "page capacity must be positive");
        assert!(
            points.iter().all(Point::is_finite),
            "query files must contain finite points"
        );
        let len = points.len();
        let mbr = Rect::bounding(points.iter().copied()).unwrap_or_else(Rect::empty);
        let mut pages = Vec::with_capacity(len.div_ceil(page_capacity));
        let mut it = points.into_iter();
        loop {
            let page: Vec<Point> = it.by_ref().take(page_capacity).collect();
            if page.is_empty() {
                break;
            }
            pages.push(page);
        }
        PointFile { pages, len, mbr }
    }

    /// Total number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// MBR of the whole file.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Direct (un-metered) page borrow — for tests and tools; algorithms go
    /// through a [`FileCursor`].
    #[inline]
    pub fn page(&self, idx: usize) -> &[Point] {
        &self.pages[idx]
    }

    /// Iterates every point in file order (un-metered).
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        self.pages.iter().flatten().copied()
    }
}

/// A metered read handle over a [`PointFile`].
#[derive(Debug)]
pub struct FileCursor<'f> {
    file: &'f PointFile,
    page_reads: Cell<u64>,
}

impl<'f> FileCursor<'f> {
    /// Creates a cursor with zeroed counters.
    pub fn new(file: &'f PointFile) -> Self {
        FileCursor {
            file,
            page_reads: Cell::new(0),
        }
    }

    /// Reads one page, counting the access.
    #[inline]
    pub fn read_page(&self, idx: usize) -> &'f [Point] {
        self.page_reads.set(self.page_reads.get() + 1);
        &self.file.pages[idx]
    }

    /// Page reads performed so far.
    #[inline]
    pub fn page_reads(&self) -> u64 {
        self.page_reads.get()
    }
}

/// Resident metadata of one query group `Q_i`: everything F-MBM keeps in
/// memory about the group without touching the disk.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// MBR `M_i` of the group's points.
    pub mbr: Rect,
    /// Cardinality `n_i`.
    pub count: usize,
    /// The file pages storing the group's points.
    pub pages: Range<usize>,
}

/// A Hilbert-sorted point file split into memory-sized groups.
#[derive(Debug, Clone)]
pub struct GroupedQueryFile {
    file: PointFile,
    groups: Vec<GroupSpec>,
}

impl GroupedQueryFile {
    /// Builds the grouped file with the paper's defaults
    /// ([`DEFAULT_PAGE_CAPACITY`] points a page, 10 000 points a group).
    pub fn build(points: Vec<Point>) -> Self {
        Self::build_with(points, DEFAULT_PAGE_CAPACITY, DEFAULT_GROUP_CAPACITY)
    }

    /// Builds the grouped file: externally sorts the points by Hilbert value
    /// (uncounted, per the paper), paginates them, and cuts the page
    /// sequence into groups of at most `group_capacity` points. Groups are
    /// page-aligned so loading a group reads exactly its own pages.
    ///
    /// # Panics
    ///
    /// Panics if `group_capacity < page_capacity` or either is zero.
    pub fn build_with(mut points: Vec<Point>, page_capacity: usize, group_capacity: usize) -> Self {
        assert!(
            group_capacity >= page_capacity && page_capacity > 0,
            "group capacity {group_capacity} must be at least one page ({page_capacity})"
        );
        if let Some(ws) = Rect::bounding(points.iter().copied()) {
            let mapper = HilbertMapper::new(ws);
            points.sort_by_key(|&p| mapper.key(p));
        }
        let file = PointFile::new(points, page_capacity);
        let pages_per_group = group_capacity / page_capacity;
        let mut groups = Vec::new();
        let mut start = 0usize;
        while start < file.page_count() {
            let end = (start + pages_per_group).min(file.page_count());
            let mut mbr = Rect::empty();
            let mut count = 0usize;
            for p in start..end {
                for &pt in file.page(p) {
                    mbr.expand_point(pt);
                }
                count += file.page(p).len();
            }
            groups.push(GroupSpec {
                mbr,
                count,
                pages: start..end,
            });
            start = end;
        }
        GroupedQueryFile { file, groups }
    }

    /// The backing file.
    #[inline]
    pub fn file(&self) -> &PointFile {
        &self.file
    }

    /// Resident group metadata, in Hilbert order.
    #[inline]
    pub fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }

    /// Number of groups `m`.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Loads group `gi` into memory through `cursor`, paying one page read
    /// per page of the group.
    pub fn load_group(&self, cursor: &FileCursor<'_>, gi: usize) -> Vec<Point> {
        let mut out = Vec::new();
        self.load_group_into(cursor, gi, &mut out);
        out
    }

    /// Like [`GroupedQueryFile::load_group`] but reuses `out` (cleared
    /// first), so repeated group loads do not allocate once the buffer has
    /// reached the largest group size.
    pub fn load_group_into(&self, cursor: &FileCursor<'_>, gi: usize, out: &mut Vec<Point>) {
        let spec = &self.groups[gi];
        out.clear();
        out.reserve(spec.count);
        for p in spec.pages.clone() {
            out.extend_from_slice(cursor.read_page(p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect()
    }

    #[test]
    fn pagination_preserves_order_and_count() {
        let pts = random_points(130, 1);
        let file = PointFile::new(pts.clone(), 50);
        assert_eq!(file.len(), 130);
        assert_eq!(file.page_count(), 3);
        assert_eq!(file.page(0).len(), 50);
        assert_eq!(file.page(2).len(), 30);
        let collected: Vec<Point> = file.iter().collect();
        assert_eq!(collected, pts);
    }

    #[test]
    fn empty_file() {
        let file = PointFile::new(vec![], 10);
        assert!(file.is_empty());
        assert_eq!(file.page_count(), 0);
        assert!(file.mbr().is_empty());
        let grouped = GroupedQueryFile::build_with(vec![], 10, 100);
        assert_eq!(grouped.group_count(), 0);
    }

    #[test]
    fn cursor_counts_page_reads() {
        let file = PointFile::new(random_points(100, 2), 25);
        let cursor = FileCursor::new(&file);
        cursor.read_page(0);
        cursor.read_page(0);
        cursor.read_page(3);
        assert_eq!(cursor.page_reads(), 3);
    }

    #[test]
    fn grouping_matches_paper_cardinalities() {
        // 24_493 points with 10_000-point groups -> 3 groups, like PP in §5.2.
        let grouped = GroupedQueryFile::build_with(random_points(24_493, 3), 64, 10_000);
        assert_eq!(grouped.group_count(), 3);
        let total: usize = grouped.groups().iter().map(|g| g.count).sum();
        assert_eq!(total, 24_493);
    }

    #[test]
    fn groups_are_page_aligned_and_disjoint() {
        let grouped = GroupedQueryFile::build_with(random_points(1000, 4), 30, 120);
        let mut expected_start = 0usize;
        for g in grouped.groups() {
            assert_eq!(g.pages.start, expected_start);
            expected_start = g.pages.end;
            // Each group holds at most 120 points = 4 pages.
            assert!(g.pages.len() <= 4);
            assert!(g.count <= 120);
        }
        assert_eq!(expected_start, grouped.file().page_count());
    }

    #[test]
    fn group_mbr_and_count_match_loaded_points() {
        let grouped = GroupedQueryFile::build_with(random_points(500, 5), 16, 64);
        let cursor = FileCursor::new(grouped.file());
        for (gi, spec) in grouped.groups().iter().enumerate() {
            let pts = grouped.load_group(&cursor, gi);
            assert_eq!(pts.len(), spec.count);
            let mbr = Rect::bounding(pts.iter().copied()).unwrap();
            assert_eq!(mbr, spec.mbr);
            for p in pts {
                assert!(spec.mbr.contains_point(p));
            }
        }
        // Loading every group reads every page exactly once.
        assert_eq!(cursor.page_reads(), grouped.file().page_count() as u64);
    }

    #[test]
    fn hilbert_sorting_makes_groups_spatially_tight() {
        // Two well-separated clusters; after Hilbert sorting, groups should
        // not straddle both clusters (their MBRs stay small).
        let mut pts = Vec::new();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..500 {
            pts.push(Point::new(rng.gen::<f64>(), rng.gen::<f64>()));
        }
        for _ in 0..500 {
            pts.push(Point::new(90.0 + rng.gen::<f64>(), 90.0 + rng.gen::<f64>()));
        }
        let grouped = GroupedQueryFile::build_with(pts, 50, 500);
        assert_eq!(grouped.group_count(), 2);
        for g in grouped.groups() {
            assert!(
                g.mbr.width() < 50.0 && g.mbr.height() < 50.0,
                "group MBR straddles clusters: {}",
                g.mbr
            );
        }
    }

    #[test]
    fn sorting_keeps_the_multiset_of_points() {
        let pts = random_points(777, 7);
        let grouped = GroupedQueryFile::build(pts.clone());
        let mut original: Vec<(u64, u64)> =
            pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
        let mut stored: Vec<(u64, u64)> = grouped
            .file()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        original.sort_unstable();
        stored.sort_unstable();
        assert_eq!(original, stored);
    }

    #[test]
    #[should_panic(expected = "group capacity")]
    fn rejects_group_smaller_than_page() {
        GroupedQueryFile::build_with(random_points(10, 8), 50, 10);
    }
}
