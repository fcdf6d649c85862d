//! Fixed-bucket latency histogram with lock-free recording.
//!
//! Workers record every query's wall time concurrently, so the histogram is
//! an array of atomic counters over **log-linear** buckets: values 0–15 ns
//! map to their own buckets, and every further power of two is split into
//! sixteen sub-buckets, giving a worst-case relative quantile error of
//! 6.25% across the full `u64` nanosecond range with a fixed 976-slot
//! footprint (7.6 KiB per histogram). No allocation, no locking, no
//! floating point on the record path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// log2 of the sub-buckets per power of two.
const SUB_BITS: usize = 4;
/// Sub-buckets per power of two (16 → ≤ 6.25% relative error).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count; covers every `u64` nanosecond value exactly: the
/// largest reachable index is `16·(63−4+1)+15 = 975`.
pub const BUCKETS: usize = SUB as usize * (64 - SUB_BITS + 1);

/// Bucket index of a nanosecond value.
fn bucket_of(nanos: u64) -> usize {
    if nanos < SUB {
        return nanos as usize;
    }
    let msb = 63 - nanos.leading_zeros() as usize; // SUB_BITS..=63
    let sub = ((nanos >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
    SUB as usize * (msb - SUB_BITS + 1) + sub
}

/// Inclusive upper bound (in nanoseconds) of bucket `idx` — what quantiles
/// report, so they never understate a latency.
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let msb = idx / SUB as usize + SUB_BITS - 1;
    let sub = (idx % SUB as usize) as u128;
    // Start of the next sub-bucket, minus one (in u128: the top bucket's
    // next start is 2^64).
    let upper = ((SUB as u128 + sub + 1) << (msb - SUB_BITS)) - 1;
    u64::try_from(upper).unwrap_or(u64::MAX)
}

/// A concurrent fixed-bucket latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: Vec<AtomicU64>,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one latency sample. Lock-free; callable from any thread.
    pub fn record(&self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// An owned snapshot of a [`LatencyHistogram`] (possibly merged across
/// workers) with quantile accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    counts: Vec<u64>,
}

impl LatencySnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty() -> Self {
        LatencySnapshot {
            counts: vec![0; BUCKETS],
        }
    }

    /// Component-wise sum with another snapshot (cross-worker aggregation).
    pub fn merge(&mut self, other: &LatencySnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile (`0 < q <= 1`) as a conservative upper bound: the
    /// inclusive upper edge of the bucket containing the `ceil(q·count)`-th
    /// smallest sample.
    ///
    /// The empty histogram has **no** quantiles: every accessor returns the
    /// defined sentinel `None` (never a garbage bucket bound), which is
    /// what lets callers distinguish "no traffic yet" from "all samples in
    /// bucket zero" (a recorded 0 ns sample legitimately yields
    /// `Some(Duration::ZERO)`). When every sample landed in one bucket,
    /// every quantile is that bucket's upper bound.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        assert!((0.0..=1.0).contains(&q) && q > 0.0, "quantile q in (0, 1]");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Duration::from_nanos(bucket_upper(idx)));
            }
        }
        unreachable!("counts summed to total")
    }

    /// Median latency (upper-bounded, see [`LatencySnapshot::quantile`]).
    pub fn p50(&self) -> Option<Duration> {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Option<Duration> {
        self.quantile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        // Every boundary maps into the bucket whose upper bound admits it,
        // and bucket indices are monotone in the value.
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            15,
            16,
            100,
            1_000,
            1_000_000,
            1_000_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_of(v);
            assert!(idx >= last, "bucket index not monotone at {v}");
            assert!(
                idx == BUCKETS - 1 || v <= bucket_upper(idx),
                "value {v} above its bucket's upper bound {}",
                bucket_upper(idx)
            );
            last = idx;
        }
    }

    /// Every value in a bucket lies within its width of the bucket's upper
    /// bound, so this bounds the quantile error by 1/16 of the value.
    #[test]
    fn buckets_above_the_unit_range_are_at_most_a_sixteenth_of_their_lower_edge_wide() {
        assert_eq!(BUCKETS, 976);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        for idx in 0..SUB as usize {
            assert_eq!(
                (bucket_of(idx as u64), bucket_upper(idx)),
                (idx, idx as u64)
            );
        }
        for idx in SUB as usize..BUCKETS {
            let lower = bucket_upper(idx - 1) + 1;
            let upper = bucket_upper(idx);
            assert_eq!(bucket_of(lower), idx, "lower edge of bucket {idx}");
            assert_eq!(bucket_of(upper), idx, "upper edge of bucket {idx}");
            let width = u128::from(upper - lower) + 1;
            assert!(
                width * 16 <= u128::from(lower),
                "bucket {idx}: [{lower}, {upper}] is wider than a sixteenth"
            );
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = LatencyHistogram::new();
        // 99 samples at ~1µs, one at ~1ms.
        for _ in 0..99 {
            h.record(Duration::from_micros(1));
        }
        h.record(Duration::from_millis(1));
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        let p50 = s.p50().unwrap();
        assert!(p50 >= Duration::from_micros(1) && p50 < Duration::from_micros(2));
        let p99 = s.p99().unwrap();
        assert!(p99 < Duration::from_micros(2), "p99 is the 99th of 100");
        let p100 = s.quantile(1.0).unwrap();
        assert!(p100 >= Duration::from_millis(1));
    }

    #[test]
    fn merge_adds_counts() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(Duration::from_nanos(10));
        b.record(Duration::from_nanos(10));
        b.record(Duration::from_secs(1));
        let mut m = LatencySnapshot::empty();
        m.merge(&a.snapshot());
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert!(m.quantile(1.0).unwrap() >= Duration::from_secs(1));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        // Zero recorded samples: every percentile accessor must return the
        // defined `None` sentinel — never a bucket bound of an empty
        // distribution.
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert!(s.p50().is_none());
        assert!(s.p95().is_none());
        assert!(s.p99().is_none());
        assert!(s.quantile(1.0).is_none());
        assert!(s.quantile(f64::MIN_POSITIVE).is_none());
        // Merging empties stays empty.
        let mut m = LatencySnapshot::empty();
        m.merge(&s);
        assert!(m.p99().is_none());
    }

    #[test]
    fn single_bucket_distribution_pins_every_quantile() {
        // All samples in one bucket: p50 = p95 = p99 = that bucket's upper
        // bound, including the degenerate zero-latency bucket.
        for nanos in [0u64, 3, 1_000] {
            let h = LatencyHistogram::new();
            for _ in 0..17 {
                h.record(Duration::from_nanos(nanos));
            }
            let s = h.snapshot();
            let want = Duration::from_nanos(bucket_upper(bucket_of(nanos)));
            for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(s.quantile(q), Some(want), "q={q} nanos={nanos}");
            }
            assert!(s.quantile(1.0).unwrap() >= Duration::from_nanos(nanos));
        }
    }

    #[test]
    fn single_sample_distribution() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(7));
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.p50(), s.p99());
        assert!(s.p50().unwrap() >= Duration::from_micros(7));
    }

    use proptest::prelude::*;

    /// Nanosecond values spanning every bucket regime: the sixteen unit
    /// buckets and the first octaves above them, the log-linear middle, and
    /// the saturating top (`u64::MAX` itself is covered by the unit tests
    /// above — the vendored range strategy is half-open).
    fn nanos() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..64, 64u64..1_000_000, 1_000_000u64..u64::MAX,]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Bucket round-trip: every value's bucket upper bound admits the
        /// value, and re-bucketing the bound lands in the same bucket
        /// (`bucket_index(value) → bucket_bound` is a closure).
        #[test]
        fn bucket_round_trip(v in nanos()) {
            let idx = bucket_of(v);
            prop_assert!(idx < BUCKETS);
            let upper = bucket_upper(idx);
            prop_assert!(upper >= v, "value {} above bound {}", v, upper);
            prop_assert_eq!(bucket_of(upper), idx, "bound re-buckets elsewhere");
            // Conservative error bound: ≤ 6.25% relative (+1 for the tiny
            // buckets).
            prop_assert!((upper - v) as f64 <= v as f64 / 16.0 + 1.0);
        }

        /// Bucket indices and upper bounds are monotone in the value, so
        /// quantiles can scan buckets without reordering anomalies.
        #[test]
        fn bucket_monotonicity(a in nanos(), b in nanos()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_of(lo) <= bucket_of(hi));
            prop_assert!(bucket_upper(bucket_of(lo)) <= bucket_upper(bucket_of(hi)));
        }

        /// A quantile is the bound of a bucket that actually holds samples,
        /// and at least `ceil(q·n)` samples sit at or below it — i.e. it
        /// never understates the true percentile.
        #[test]
        fn quantile_is_a_real_bucket_bound(
            samples in prop::collection::vec(0u64..1_000_000, 1..200),
            q in 0.01f64..1.0,
        ) {
            let h = LatencyHistogram::new();
            for &s in &samples {
                h.record(Duration::from_nanos(s));
            }
            let snap = h.snapshot();
            let got = snap.quantile(q).expect("non-empty").as_nanos() as u64;
            prop_assert!(snap.counts[bucket_of(got)] > 0);
            // Rank guarantee: at least ceil(q*n) samples are <= the result.
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let below = samples.iter().filter(|&&s| s <= got).count();
            prop_assert!(below >= rank, "only {} of {} samples <= {}", below, samples.len(), got);
        }
    }
}
