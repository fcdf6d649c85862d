//! The metric registry and the result a run prints and writes.
//!
//! The registry is the benchmark's half of `../BENCHMARK.json`: the same
//! names, units, directions and bounds (a unit test keeps the two in
//! step), plus the per-workload bounds `selfcheck` judges two runs of the
//! same code and seed by.

use crate::json::Value;
use crate::measure::{Outcome, Segment};
use crate::stats::{percentile_sorted, spread, Spread};
use crate::sut;

/// The five workloads, in the order a full set runs them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "embed_small_groups",
        "library path on TS with n=4: cursor reads, branch scoring, heap and best list dominate",
    ),
    (
        "embed_large_groups",
        "library path on PP with n=256: the distance kernels over the group dominate",
    ),
    (
        "serve_paced_small",
        "one-worker service on PP with small groups: queue, wake-up, reply and telemetry dominate",
    ),
    (
        "serve_live_updates",
        "two-shard service on TS beside a refresh driver: insert, refreeze, publish beside reads",
    ),
    (
        "network_trips",
        "road-network backend: Dijkstra expansion over the packed graph, the R-tree does little",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The bound `BENCHMARK.json` states (one per metric, all workloads).
    pub bound: f64,
}

/// The bound on the timing metrics and on set-up, one per metric for all
/// five workloads. The driver of `BENCHMARK.json` refuses a benchmark whose
/// single runs, ten seeds apart, spread (IQR ÷ median) beyond the bound,
/// asks for spreads under a third of it, and later rejects a PR whose
/// median is worse than its parent's by more.
/// This shared 2-core VM changes speed by the minute: ten-run spreads read
/// 1–5 % on a calm host and 5–17 % on a busy one, on every workload
/// including the single-threaded ones, and two back-to-back sets of the
/// same code have differed by 9–12 % (README, "Run-to-run spread"). The
/// issue's 5 % / 10 % / 20 % are what `selfcheck` holds two neighbouring
/// runs to, and what ten alternating pairs resolve.
const TIMING_BOUND: f64 = 0.20;

/// `VmHWM` moves by ±0.3 MiB between identical runs (how much of the binary
/// the page cache maps in, where the heap starts). That is under 1.5 % of
/// every workload but `network_trips`, whose whole process is 7.7 MiB: up
/// to 8 % there, so the shared bound is 15 % and `selfcheck` keeps 10 %.
const RSS_BOUND: f64 = 0.15;

/// `node_accesses_per_query` is a count over fixed queries and repeats
/// exactly, whatever the seed; `selfcheck` demands equality. `BENCHMARK.json`
/// carries the smallest bound that cannot be read as "none": a tenth of a
/// percent, a twentieth of a page on the workload that reads the most.
const NA_BOUND: f64 = 0.001;

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "node_accesses_per_query",
        unit: "pages",
        better: Better::Lower,
        bound: NA_BOUND,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: RSS_BOUND,
    },
];

/// The bound `selfcheck` holds two runs of the same code and seed to — the
/// issue's: 5 % on the direct workloads' throughput and median latency,
/// 10 % on the served ones and on p90 and memory, 20 % on set-up, and exact
/// node accesses.
pub fn selfcheck_bound(workload: &str, metric: &EndToEnd) -> f64 {
    let direct = !workload.starts_with("serve_");
    match metric.name {
        "setup_s" => 0.20,
        "throughput_qps" | "latency_p50_us" if direct => 0.05,
        "node_accesses_per_query" => 0.0,
        _ => 0.10,
    }
}

/// `(name, unit, better)` of every per-layer metric a traced run prints.
pub const PER_LAYER: [(&str, &str, Better); 61] = {
    use Better::{Higher, Lower};
    [
        ("geom.rects_mindist_rect_ns_per_elem", "ns", Lower),
        ("geom.points_dist_sq_ns_per_elem", "ns", Lower),
        ("geom.points_wsum_multi_ns_per_elem", "ns", Lower),
        ("geom.points_max_multi_ns_per_elem", "ns", Lower),
        ("rtree.page_read_ns", "ns", Lower),
        ("rtree.bulk_load_ms", "ms", Lower),
        ("rtree.freeze_ms", "ms", Lower),
        ("rtree.partition_ms", "ms", Lower),
        ("rtree.insert_us_per_op", "us", Lower),
        ("rtree.remove_us_per_op", "us", Lower),
        ("rtree.refreeze_ms", "ms", Lower),
        ("rtree.dirty_fraction_at_publish", "ratio", Lower),
        ("core.execute_on_us_p50", "us", Lower),
        ("core.dist_computations_per_query", "count", Lower),
        ("core.pages_per_query", "pages", Lower),
        ("core.kernel_share_est", "ratio", Lower),
        ("core.self_us_est", "us", Lower),
        ("core.mbm_us_per_query", "us", Lower),
        ("core.spm_us_per_query", "us", Lower),
        ("core.mqm_us_per_query", "us", Lower),
        ("core.mbm_na_per_query", "pages", Lower),
        ("core.spm_na_per_query", "pages", Lower),
        ("core.mqm_na_per_query", "pages", Lower),
        ("core.max_us_per_query", "us", Lower),
        ("core.min_us_per_query", "us", Lower),
        ("core.sharded_execute_us_p50", "us", Lower),
        ("core.shards_consulted_per_query", "count", Lower),
        ("core.single_shard_fraction", "ratio", Higher),
        ("core.batch_us_per_query", "us", Lower),
        ("core.batch_page_savings", "ratio", Higher),
        ("network.ier_us_per_query", "us", Lower),
        ("network.ta_us_per_query", "us", Lower),
        ("network.settled_per_query", "count", Lower),
        ("network.relaxed_per_query", "count", Lower),
        ("network.rtree_accesses_per_query", "pages", Lower),
        ("network.freeze_ms", "ms", Lower),
        ("service.submit_us_p50", "us", Lower),
        ("service.queue_wait_us_p50", "us", Lower),
        ("service.execution_us_p50", "us", Lower),
        ("service.reply_us_p50", "us", Lower),
        ("service.overhead_us_p50", "us", Lower),
        ("service.round_trip_us_p50", "us", Lower),
        ("service.ladder_gap_ratio", "ratio", Lower),
        ("service.worker_busy_fraction", "ratio", Lower),
        ("service.generator_late_us_p99", "us", Lower),
        ("service.latency_p99_us", "us", Lower),
        ("service.latency_p999_us", "us", Lower),
        ("service.sustained_rate_qps", "1/s", Higher),
        ("service.live_throughput_qps", "1/s", Higher),
        ("service.live_latency_p50_us", "us", Lower),
        ("service.live_latency_p90_us", "us", Lower),
        ("service.publish_us_p50", "us", Lower),
        ("service.refreeze_live_ms_p50", "ms", Lower),
        ("service.publishes", "count", Higher),
        ("service.shed", "count", Lower),
        ("service.panics", "count", Lower),
        ("telemetry.histogram_record_ns", "ns", Lower),
        ("telemetry.recorder_record_ns", "ns", Lower),
        ("telemetry.flight_dropped", "count", Lower),
        ("telemetry.overhead_ratio", "ratio", Lower),
        ("trace.overhead_ratio", "ratio", Higher),
    ]
};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Dispersion over segments (or set-up repetitions), where the metric
    /// has a per-segment form.
    pub over_segments: Option<Spread>,
}

fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("registered end-to-end metric")
}

/// The six end-to-end metrics of an untraced run: each timing is the
/// median over segments of the per-segment statistic.
pub fn end_to_end_metrics(outcome: &Outcome) -> Vec<Metric> {
    let over_segments =
        |f: &dyn Fn(&Segment) -> f64| spread(&outcome.segments.iter().map(f).collect::<Vec<_>>());
    let setup = spread(&outcome.setup_s);
    let throughput = over_segments(&Segment::throughput_qps);
    let p50 = over_segments(&|s| s.percentile_ns(0.5) as f64 / 1e3);
    let p90 = over_segments(&|s| s.percentile_ns(0.9) as f64 / 1e3);
    let values = [
        ("setup_s", setup.median, Some(setup)),
        ("throughput_qps", throughput.median, Some(throughput)),
        ("latency_p50_us", p50.median, Some(p50)),
        ("latency_p90_us", p90.median, Some(p90)),
        ("node_accesses_per_query", outcome.na_per_query, None),
        ("peak_rss_mib", outcome.peak_rss_mib, None),
    ];
    values
        .into_iter()
        .map(|(name, value, over_segments)| {
            let spec = end_to_end(name);
            Metric {
                name: spec.name,
                unit: spec.unit,
                better: spec.better,
                value,
                over_segments,
            }
        })
        .collect()
}

/// The per-layer metrics of a traced run: what the workload's own traced
/// segments show, then every probe's, in registry order.
pub fn per_layer_metrics(outcome: &Outcome, probes: &[(&'static str, f64)]) -> Vec<Metric> {
    let traced = &outcome.traced;
    let mut execution = traced.execution_ns.clone();
    execution.sort_unstable();
    let queries = traced.queries.max(1) as f64;
    let mean_execution_us = execution.iter().sum::<u64>() as f64 / queries / 1e3;
    let evals_per_query = traced.dist_evals as f64 / queries;
    // One distance evaluation costs about one pair of the SUM group kernel.
    let kernel_ns = probes
        .iter()
        .find(|p| p.0 == "geom.points_wsum_multi_ns_per_elem")
        .map_or(0.0, |p| p.1);
    let kernel_us = evals_per_query * kernel_ns / 1e3;
    let throughput = |traced: bool| {
        let segments = outcome.segments.iter().filter(|s| s.traced == traced);
        crate::stats::median(&segments.map(Segment::throughput_qps).collect::<Vec<_>>())
    };
    let own = [
        (
            "core.execute_on_us_p50",
            percentile_sorted(&execution, 0.5) as f64 / 1e3,
        ),
        ("core.dist_computations_per_query", evals_per_query),
        ("core.pages_per_query", traced.pages as f64 / queries),
        ("core.kernel_share_est", kernel_us / mean_execution_us),
        ("core.self_us_est", mean_execution_us - kernel_us),
        ("trace.overhead_ratio", throughput(true) / throughput(false)),
    ];
    // The workload's own observation of a layer metric wins over the
    // probe's (the live workload reports its own publishing figures).
    let lookup = |name: &str| {
        own.iter()
            .chain(&outcome.layer)
            .chain(probes)
            .find(|m| m.0 == name)
            .map(|m| m.1)
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, better)| Metric {
            name,
            unit,
            better,
            value: lookup(name).unwrap_or_else(|| panic!("no probe reported {name}")),
            over_segments: None,
        })
        .collect()
}

/// Where and how a result was measured.
pub fn environment() -> Value {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Value::obj([
        ("git_revision", Value::Str(git_revision())),
        ("rustc", Value::Str(rustc)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("simd_level", Value::Str(sut::simd_level().into())),
        ("force_scalar", Value::Bool(sut::force_scalar())),
    ])
}

/// `HEAD` of the repository the benchmark sits in, read from `.git`
/// directly (`"unknown"` outside a git checkout).
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split_whitespace().next()?.to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What one workload run produced, ready to print and write.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Layer figures an untraced run observed on the side (they never
    /// gate; the contract line leaves them out).
    pub diagnostics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Value::obj([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .render()
    }

    /// The full result file: environment, inputs' fingerprints, every
    /// metric with its dispersion, and the raw per-segment values.
    pub fn envelope(&self, outcome: &Outcome) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.into())),
                ("better", Value::Str(m.better.label().into())),
            ];
            if let Some(spec) = END_TO_END.iter().find(|spec| spec.name == m.name) {
                fields.push(("bound", Value::Num(spec.bound)));
            }
            if let Some(s) = m.over_segments {
                fields.push(("segment_q1", Value::Num(s.q1)));
                fields.push(("segment_q3", Value::Num(s.q3)));
                fields.push(("segments", Value::Num(s.n as f64)));
            }
            (m.name, Value::obj(fields))
        });
        let segments = outcome.segments.iter().map(|s| {
            Value::obj([
                ("traced", Value::Bool(s.traced)),
                ("throughput_qps", Value::Num(s.throughput_qps())),
                (
                    "latency_p50_us",
                    Value::Num(s.percentile_ns(0.5) as f64 / 1e3),
                ),
                (
                    "latency_p90_us",
                    Value::Num(s.percentile_ns(0.9) as f64 / 1e3),
                ),
                (
                    "latency_p99_us",
                    Value::Num(s.percentile_ns(0.99) as f64 / 1e3),
                ),
                (
                    "latency_p999_us",
                    Value::Num(s.percentile_ns(0.999) as f64 / 1e3),
                ),
                ("latency_samples", Value::Num(s.latency_ns.len() as f64)),
                ("throughput_queries", Value::Num(s.ops as f64)),
                ("node_accesses_per_query", Value::Num(s.na_per_query)),
                (
                    "generator_late_us_p99",
                    Value::Num(s.late_p99_ns as f64 / 1e3),
                ),
            ])
        });
        let fingerprints = outcome
            .fingerprints
            .iter()
            .map(|&(name, fp)| (name, Value::Str(format!("{fp:016x}"))));
        Value::obj([
            ("schema", Value::Str("gnn-benchmark/1".into())),
            ("workload", Value::Str(self.workload.into())),
            (
                "mode",
                Value::Str(if self.trace { "trace" } else { "run" }.into()),
            ),
            ("seed", Value::Str(self.seed.to_string())),
            ("seconds", Value::Num(self.seconds)),
            ("environment", environment()),
            ("fingerprints", Value::obj(fingerprints)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
            (
                "diagnostics",
                Value::obj(self.diagnostics.iter().map(|&(n, v)| (n, Value::Num(v)))),
            ),
            ("setup_s", Value::nums(outcome.setup_s.iter().copied())),
            ("segments", Value::Arr(segments.collect())),
        ])
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} ({}, seed {}): {} attempted, {} failed{}",
            self.workload,
            if self.trace { "trace" } else { "run" },
            self.seed,
            self.attempted,
            self.failed,
            if self.correct {
                ""
            } else {
                "  ** INCORRECT **"
            },
        );
        for m in &self.metrics {
            let _ = write!(out, "  {:<40} {:>14.4} {:<6}", m.name, m.value, m.unit);
            if let Some(s) = m.over_segments {
                let _ = write!(out, " quartiles [{:.4}, {:.4}] over {}", s.q1, s.q3, s.n);
            }
            out.push('\n');
        }
        for (name, value) in &self.diagnostics {
            let _ = writeln!(out, "  {name:<40} {value:>14.4} (diagnostic)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn rows(doc: &Value, key: &str) -> Vec<Value> {
        match doc.get(key) {
            Some(Value::Arr(rows)) => rows.clone(),
            other => panic!("{key}: {other:?}"),
        }
    }

    fn text<'a>(row: &'a Value, key: &str) -> &'a str {
        row.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} in {row:?}"))
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let doc = benchmark_json();
        let workloads: Vec<String> = rows(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
        for (row, (_, why)) in rows(&doc, "workloads").iter().zip(WORKLOADS) {
            assert_eq!(text(row, "why"), why);
        }

        let listed = rows(&doc, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (row, spec) in listed.iter().zip(END_TO_END) {
            assert_eq!(text(row, "name"), spec.name);
            assert_eq!(text(row, "unit"), spec.unit);
            assert_eq!(text(row, "better"), spec.better.label());
            assert_eq!(row.get("bound").and_then(Value::as_f64), Some(spec.bound));
            assert!(spec.bound <= 0.25);
        }
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(end_to_end("setup_s").bound, largest);

        let per_layer = rows(&doc, "per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (row, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text(row, "name"), name);
            assert_eq!(text(row, "unit"), unit);
            assert_eq!(text(row, "better"), better.label());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "count")));
        for (name, unit) in all {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn selfcheck_bounds_are_the_issues() {
        let p50 = end_to_end("latency_p50_us");
        assert_eq!(selfcheck_bound("embed_small_groups", p50), 0.05);
        assert_eq!(selfcheck_bound("serve_paced_small", p50), 0.10);
        let p90 = end_to_end("latency_p90_us");
        assert_eq!(selfcheck_bound("embed_small_groups", p90), 0.10);
        let na = end_to_end("node_accesses_per_query");
        assert_eq!(selfcheck_bound("network_trips", na), 0.0);
        assert_eq!(selfcheck_bound("serve_live_updates", na), 0.0);
        assert_eq!(
            selfcheck_bound("embed_large_groups", end_to_end("setup_s")),
            0.20
        );
    }

    #[test]
    fn timings_are_medians_over_segments_with_quartiles() {
        // Seven segments of 1 000 requests; segment `i` is (i + 1) × slower.
        let segments = (1..=7u64).map(|scale| Segment {
            traced: false,
            latency_ns: (1..=1_000).map(|ns| ns * scale * 1_000).collect(),
            wall_ns: scale * 1_000_000_000,
            ops: 1_000,
            na_per_query: 3.0,
            late_p99_ns: 0,
        });
        let outcome = Outcome {
            setup_s: vec![0.5, 0.1, 0.3],
            segments: segments.collect(),
            na_per_query: 44.25,
            peak_rss_mib: 30.0,
            ..Outcome::default()
        };
        let metrics = end_to_end_metrics(&outcome);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!(get("setup_s").value, 0.3);
        // The fourth segment: 1 000 queries in 4 s, p50 = 500 × 4 µs.
        assert_eq!(get("throughput_qps").value, 250.0);
        assert_eq!(get("latency_p50_us").value, 2_000.0);
        assert_eq!(get("latency_p90_us").value, 3_600.0);
        let s = get("latency_p50_us").over_segments.unwrap();
        assert_eq!((s.q1, s.q3, s.n), (1_000.0, 3_000.0, 7));
        assert_eq!(get("node_accesses_per_query").value, 44.25);
        assert_eq!(get("peak_rss_mib").value, 30.0);
    }

    #[test]
    fn a_wrong_answer_makes_the_contract_line_incorrect() {
        let report = Report {
            workload: "embed_small_groups",
            trace: false,
            seed: 1,
            seconds: 1.0,
            correct: false,
            attempted: 10,
            failed: 1,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                better: Better::Lower,
                value: 0.25,
                over_segments: None,
            }],
            diagnostics: vec![("service.live_latency_p50_us", 300.0)],
        };
        let line = Value::parse(&report.contract_line()).unwrap();
        assert_eq!(line.entries().len(), 4);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(1.0));
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert!(line
            .get("metrics")
            .unwrap()
            .get("service.live_latency_p50_us")
            .is_none());
        assert!(report.table().contains("INCORRECT"));
        assert!(report.table().contains("(diagnostic)"));
    }
}
