//! What every workload reports and how a run is cut into segments.
//!
//! A workload warms up, then runs [`SEGMENTS`] **segments of a fixed
//! operation count** over one request pool, so every segment of every run
//! with the same seed and `--seconds` does byte-identical work. Every
//! timing statistic is computed per segment; the reported value is the
//! **median over segments**, with the quartiles over segments beside it.

use crate::stats::{percentile_sorted, samples_beyond, MIN_BEYOND_GATING};
use crate::trace::Tracer;

/// Segments of an untraced run.
pub const SEGMENTS: usize = 7;

/// Untraced/traced segment pairs of a traced run.
pub const TRACED_PAIRS: usize = 2;

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Fewest requests in a latency phase: the 1 000 that leave
/// [`MIN_BEYOND_GATING`] samples beyond p90.
pub const MIN_LATENCY_SAMPLES: usize = 1_000;

/// Requests in one segment of a workload that completes `per_second`
/// requests a second on the 2-core reference host, sized so that
/// [`SEGMENTS`] segments take about `seconds`. A constant times the time
/// budget — never a clock — so both sides of a comparison do the same work
/// however fast they are.
pub fn segment_size(per_second: f64, seconds: f64) -> usize {
    ((per_second * seconds / SEGMENTS as f64).round() as usize).max(MIN_LATENCY_SAMPLES)
}

/// One segment's measurements. A segment has a *latency phase* (every
/// request's latency, in submission order) and a *throughput phase* (its
/// wall time and the queries it completed); on the direct workloads both
/// are the same loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    pub traced: bool,
    /// Latency of request `i` of the latency phase, nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Wall time of the throughput phase, nanoseconds.
    pub wall_ns: u64,
    /// Queries the throughput phase completed.
    pub ops: u64,
    /// Mean `QueryStats.data_tree.logical` over the segment's queries.
    pub na_per_query: f64,
    /// p99 of how late the generator entered `submit` (paced phases only).
    pub late_p99_ns: u64,
}

impl Segment {
    /// Nearest-rank percentile of this segment's latencies.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let mut sorted = self.latency_ns.clone();
        sorted.sort_unstable();
        percentile_sorted(&sorted, q)
    }

    /// Queries per second over this segment's throughput phase.
    pub fn throughput_qps(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns as f64
    }
}

/// Per-query observations of the traced segments, for the per-layer split.
#[derive(Debug, Default)]
pub struct TracedTotals {
    /// Time inside `execute_on` per query (direct: the span around the
    /// call; served: the service's own `QueryTrace.execution`).
    pub execution_ns: Vec<u64>,
    pub queries: u64,
    pub dist_evals: u64,
    pub pages: u64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub segments: Vec<Segment>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a fingerprints of the generated inputs, by name.
    pub fingerprints: Vec<(&'static str, u64)>,
    /// The paper's NA over a fixed set of the workload's queries — a count
    /// that repeats exactly (which set: see each workload).
    pub na_per_query: f64,
    /// `VmHWM` when the last segment ended.
    pub peak_rss_mib: f64,
    pub traced: TracedTotals,
    /// Layer metrics only this workload's own run can observe.
    pub layer: Vec<(&'static str, f64)>,
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `segment(traced)` per the segment plan: [`SEGMENTS`] untraced
/// segments, or — traced — [`TRACED_PAIRS`] times an untraced segment and a
/// traced one, so `trace.overhead_ratio` compares neighbours in time.
///
/// # Panics
///
/// Panics when a latency phase is too small to leave
/// [`MIN_BEYOND_GATING`] samples beyond p90.
pub fn run_segments(trace: bool, mut segment: impl FnMut(bool) -> Segment) -> Vec<Segment> {
    let plan: Vec<bool> = if trace {
        [false, true].repeat(TRACED_PAIRS)
    } else {
        vec![false; SEGMENTS]
    };
    plan.into_iter()
        .map(|traced| {
            let s = segment(traced);
            assert!(
                samples_beyond(s.latency_ns.len(), 0.9) >= MIN_BEYOND_GATING,
                "a latency phase of {} requests cannot support p90",
                s.latency_ns.len()
            );
            s
        })
        .collect()
}

/// Repeats `setup` [`SETUP_REPS`] times, dropping each state before the
/// next is built, and returns the last state with every repetition's time.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = std::time::Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one repetition"), times)
}

/// Shared helper: folds a tracer span's worth of counters into the totals.
pub fn note_traced(
    totals: &mut TracedTotals,
    tracer: &mut Tracer,
    span: crate::trace::SpanId,
    execution_ns: u64,
    counts: crate::sut::Counts,
) {
    totals.execution_ns.push(execution_ns);
    totals.queries += 1;
    totals.dist_evals += counts.dist_evals;
    totals.pages += counts.pages;
    tracer.count(span, "node_accesses", counts.node_accesses);
    tracer.count(span, "dist_evals", counts.dist_evals);
    if counts.settled > 0 {
        tracer.count(span, "settled", counts.settled);
        tracer.count(span, "relaxed", counts.relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(latency_ns: Vec<u64>) -> Segment {
        Segment {
            traced: false,
            latency_ns,
            wall_ns: 5_000_000,
            ops: 2_000,
            na_per_query: 1.0,
            late_p99_ns: 0,
        }
    }

    #[test]
    fn a_segment_reports_its_own_loop() {
        let s = segment((1..=1_000).collect());
        // 2 000 queries in 5 ms of wall time, whatever the latencies sum to.
        assert!((s.throughput_qps() - 400_000.0).abs() < 1e-6);
        assert_eq!((s.percentile_ns(0.5), s.percentile_ns(0.9)), (500, 900));
    }

    #[test]
    fn segment_size_follows_the_time_budget_not_a_clock() {
        assert_eq!(segment_size(10_500.0, 10.0), 15_000);
        assert_eq!(segment_size(10_500.0, 20.0), 30_000);
        // Never fewer than p90 needs.
        assert_eq!(segment_size(830.0, 1.0), MIN_LATENCY_SAMPLES);
    }

    #[test]
    #[should_panic(expected = "cannot support p90")]
    fn a_latency_phase_too_small_for_p90_is_refused() {
        run_segments(false, |_| segment(vec![1; 999]));
    }

    #[test]
    fn segment_plan_is_fixed_and_alternates_when_traced() {
        let mut calls = Vec::new();
        let segments = run_segments(false, |traced| {
            calls.push(traced);
            segment(vec![1; 1_000])
        });
        assert_eq!(
            (segments.len(), calls.iter().any(|&t| t)),
            (SEGMENTS, false)
        );
        let mut calls = Vec::new();
        run_segments(true, |traced| {
            calls.push(traced);
            segment(vec![1; 1_000])
        });
        assert_eq!(calls, [false, true, false, true]);
        let (last, times) = repeat_setup(|| 7);
        assert_eq!((last, times.len()), (7, SETUP_REPS));
    }
}
