//! Open-loop arrival processes for query-serving experiments.
//!
//! A closed-loop load generator (submit, wait, submit) measures the server
//! at its own pace and hides queueing delay; an **open-loop** generator
//! fires queries at externally scheduled instants whether or not earlier
//! ones have finished, which is how latency percentiles under load are
//! honestly measured. [`open_loop_arrivals`] layers a fixed-seed Poisson
//! arrival process over the §5.1 query workload: the same seed always
//! produces the same queries at the same offsets, so serving experiments
//! are reproducible and their results can be checked against a sequential
//! reference run.

use crate::workload::{query_workload, QuerySpec};
use gnn_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled query of an open-loop workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Submission instant, in nanoseconds from the start of the run.
    pub offset_nanos: u64,
    /// The query's points (one §5.1 group).
    pub points: Vec<Point>,
}

/// Generates `count` queries per the §5.1 recipe (`query_workload`) and
/// schedules them on a Poisson arrival process with mean rate `rate_qps`
/// queries/second: inter-arrival gaps are exponential draws from a second,
/// seed-derived RNG, so the queries themselves are identical to
/// `query_workload(workspace, spec, count, seed)` and only the timing is
/// added. Offsets are strictly non-decreasing. Deterministic in `seed`.
///
/// Degenerate rates stay defined instead of dividing by zero or spinning:
/// a rate of exactly `0.0` means "no traffic" and yields an **empty**
/// schedule; a positive rate small enough that offsets overflow the `u64`
/// nanosecond range saturates them at `u64::MAX` (the schedule stays
/// finite, non-decreasing, and `count` entries long).
///
/// # Panics
///
/// Panics if `rate_qps` is negative, NaN or infinite, or on the
/// `query_workload` preconditions (`n > 0`, `area_fraction` in `(0, 1]`).
pub fn open_loop_arrivals(
    workspace: Rect,
    spec: QuerySpec,
    count: usize,
    rate_qps: f64,
    seed: u64,
) -> Vec<Arrival> {
    assert!(
        rate_qps.is_finite() && rate_qps >= 0.0,
        "arrival rate must be finite and non-negative, got {rate_qps}"
    );
    if rate_qps == 0.0 {
        // Rate zero: no query ever arrives. An empty schedule (not a
        // division-by-zero inf-offset list) is the only sound reading.
        return Vec::new();
    }
    let queries = query_workload(workspace, spec, count, seed);
    // Independent stream for the gaps: timing never perturbs the queries.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut t = 0.0f64; // seconds
    queries
        .into_iter()
        .map(|points| {
            // Inverse-CDF exponential; 1-u keeps the argument in (0, 1].
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_qps;
            Arrival {
                // The float→int cast saturates: near-zero rates produce
                // u64::MAX offsets, never garbage or a panic.
                offset_nanos: (t * 1e9) as u64,
                points,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::from_corners(0.0, 0.0, 1.0, 1.0)
    }

    fn spec() -> QuerySpec {
        QuerySpec {
            n: 8,
            area_fraction: 0.08,
        }
    }

    #[test]
    fn deterministic_and_query_preserving() {
        let a = open_loop_arrivals(unit(), spec(), 50, 1000.0, 7);
        let b = open_loop_arrivals(unit(), spec(), 50, 1000.0, 7);
        assert_eq!(a, b);
        // The queries are exactly the fixed-seed workload.
        let wl = query_workload(unit(), spec(), 50, 7);
        let pts: Vec<Vec<Point>> = a.iter().map(|x| x.points.clone()).collect();
        assert_eq!(pts, wl);
    }

    #[test]
    fn offsets_are_nondecreasing_and_rate_is_respected() {
        let rate = 5_000.0;
        let n = 4_000;
        let arr = open_loop_arrivals(unit(), spec(), n, rate, 3);
        assert_eq!(arr.len(), n);
        for w in arr.windows(2) {
            assert!(w[0].offset_nanos <= w[1].offset_nanos);
        }
        // Mean inter-arrival of an Exp(rate) process is 1/rate; with 4k
        // draws the sample mean lands within ±10%.
        let span_s = arr.last().unwrap().offset_nanos as f64 / 1e9;
        let mean = span_s / n as f64;
        let want = 1.0 / rate;
        assert!(
            (mean - want).abs() < want * 0.1,
            "mean gap {mean} vs expected {want}"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = open_loop_arrivals(unit(), spec(), 10, 100.0, 1);
        let b = open_loop_arrivals(unit(), spec(), 10, 100.0, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_rate_yields_empty_schedule() {
        // Regression: rate 0 used to be rejected/divide by zero; "no
        // traffic" is a legitimate open-loop configuration.
        assert!(open_loop_arrivals(unit(), spec(), 100, 0.0, 0).is_empty());
    }

    #[test]
    fn near_zero_rate_saturates_offsets_finitely() {
        // Mean gap of 1e12 s ≈ 1e21 ns overflows u64; offsets must
        // saturate (stay finite and non-decreasing), not wrap or panic.
        let arr = open_loop_arrivals(unit(), spec(), 10, 1e-12, 5);
        assert_eq!(arr.len(), 10);
        for w in arr.windows(2) {
            assert!(w[0].offset_nanos <= w[1].offset_nanos);
        }
        assert_eq!(arr.last().unwrap().offset_nanos, u64::MAX);
        // The queries themselves are unaffected by the degenerate timing.
        let wl = query_workload(unit(), spec(), 10, 5);
        let pts: Vec<Vec<Point>> = arr.iter().map(|x| x.points.clone()).collect();
        assert_eq!(pts, wl);
    }

    #[test]
    fn huge_rate_keeps_offsets_sane() {
        let arr = open_loop_arrivals(unit(), spec(), 1000, 1e12, 6);
        assert_eq!(arr.len(), 1000);
        for w in arr.windows(2) {
            assert!(w[0].offset_nanos <= w[1].offset_nanos);
        }
        // 1000 arrivals at ~1e12 q/s span about a nanosecond; generously
        // bound well below a millisecond.
        assert!(arr.last().unwrap().offset_nanos < 1_000_000);
    }

    #[test]
    fn degenerate_rates_are_deterministic() {
        for rate in [0.0, 1e-12, 1e12] {
            let a = open_loop_arrivals(unit(), spec(), 20, rate, 9);
            let b = open_loop_arrivals(unit(), spec(), 20, rate, 9);
            assert_eq!(a, b, "rate {rate}");
        }
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn rejects_negative_rate() {
        open_loop_arrivals(unit(), spec(), 1, -1.0, 0);
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn rejects_infinite_rate() {
        open_loop_arrivals(unit(), spec(), 1, f64::INFINITY, 0);
    }
}
