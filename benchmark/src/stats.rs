//! Order statistics: nearest-rank percentiles within a segment, and the
//! median and quartiles over segments that every reported timing uses.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q · len` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `len` samples.
fn rank(len: usize, q: f64) -> usize {
    assert!(len > 0, "percentile of an empty sample");
    ((q * len as f64).ceil() as usize).clamp(1, len)
}

/// How many of `len` samples lie strictly beyond the nearest-rank position
/// of quantile `q`. A percentile is only reported as an end-to-end metric
/// when enough samples lie beyond it in every segment (see
/// [`MIN_BEYOND_GATING`]).
pub fn samples_beyond(len: usize, q: f64) -> usize {
    len - rank(len, q)
}

/// The rule for gating percentiles: at least this many samples beyond the
/// percentile in every segment (ten is the floor the metrics guide asks
/// for; the issue raises it to one hundred for p90).
pub const MIN_BEYOND_GATING: usize = 100;

/// Median, quartiles and count of one metric's per-segment values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Median and quartiles of `values`, quartiles computed like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so the figures
/// printed here are the ones the driver will compute. Fewer than two values
/// collapse the quartiles onto the median.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn spread(values: &[f64]) -> Spread {
    assert!(!values.is_empty(), "spread of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n < 2 {
        return Spread {
            median,
            q1: median,
            q3: median,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Spread {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// Median of `values` (see [`spread`]).
pub fn median(values: &[f64]) -> f64 {
    spread(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 5);
        assert_eq!(percentile_sorted(&v, 0.9), 9);
        assert_eq!(percentile_sorted(&v, 0.91), 10);
        assert_eq!(percentile_sorted(&v, 1.0), 10);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn samples_beyond_rule() {
        // p90 of 1000 samples sits at rank 900: exactly 100 beyond.
        assert_eq!(samples_beyond(1000, 0.9), 100);
        assert!(samples_beyond(1000, 0.9) >= MIN_BEYOND_GATING);
        // p99 of the same sample has 10 beyond: diagnostic only.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(samples_beyond(1000, 0.99) < MIN_BEYOND_GATING);
        assert_eq!(samples_beyond(999, 0.9), 99);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn median_and_quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = spread(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([10,20,30,40], n=4) == [12.5, 25.0, 37.5]
        let s = spread(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = spread(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = spread(&[3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (3.0, 3.0, 3.0, 1));
    }
}
