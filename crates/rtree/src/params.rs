//! R*-tree tuning parameters.

/// Structural parameters of an [`crate::RTree`], derived from one setting:
/// the page capacity ([`RTreeParams::with_capacity`]).
///
/// The defaults reproduce the paper's setup (§5): a 1 KByte page holds 50
/// entries, the R*-tree minimum fill is 40 % of capacity, and the forced
/// reinsertion fraction is the 30 % recommended by Beckmann et al.
/// \[BKSS90\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum number of entries per node (page capacity). Paper: 50.
    pub(crate) max_entries: usize,
    /// Minimum number of entries per non-root node. R*: 40 % of capacity.
    pub(crate) min_entries: usize,
    /// Number of entries removed and reinserted on the first overflow of a
    /// level per insertion (R* forced reinsert).
    pub(crate) reinsert_count: usize,
}

impl Default for RTreeParams {
    fn default() -> Self {
        RTreeParams::with_capacity(50)
    }
}

impl RTreeParams {
    /// Derives the standard R* parameters from a page capacity:
    /// `min = 40 %` (at least 2) and `reinsert = 30 %` of `max_entries`,
    /// so `2 <= min <= max / 2` and `reinsert <= max - min` hold by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries < 4` (the R* split needs at least two entries
    /// per side with a non-trivial choice).
    pub fn with_capacity(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R*-tree capacity must be >= 4");
        let min_entries = ((max_entries as f64 * 0.4) as usize).max(2);
        let reinsert_count = ((max_entries as f64 * 0.3) as usize).min(max_entries - 2);
        RTreeParams {
            max_entries,
            min_entries,
            reinsert_count,
        }
    }

    /// Maximum number of entries per node (page capacity).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The invariants the tree's split, reinsert and condense rely on.
    fn check(p: RTreeParams) {
        assert!(p.min_entries >= 2 && p.min_entries <= p.max_entries / 2);
        assert!(p.reinsert_count <= p.max_entries - p.min_entries);
    }

    #[test]
    fn paper_defaults() {
        let p = RTreeParams::default();
        assert_eq!(p.max_entries(), 50);
        assert_eq!(p.min_entries, 20);
        assert_eq!(p.reinsert_count, 15);
        check(p);
    }

    #[test]
    fn small_capacity() {
        let p = RTreeParams::with_capacity(4);
        assert_eq!(p.min_entries, 2);
        assert!(p.reinsert_count <= 2);
        check(p);
    }

    #[test]
    fn every_capacity_keeps_the_invariants() {
        (4..=300).map(RTreeParams::with_capacity).for_each(check);
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 4")]
    fn rejects_tiny_capacity() {
        RTreeParams::with_capacity(3);
    }
}
