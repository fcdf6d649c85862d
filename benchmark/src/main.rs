//! The repo-wide benchmark: five workloads, six end-to-end metrics, and a
//! per-layer ladder traced from outside. See `README.md`.
//!
//! ```text
//! gnn-benchmark run       [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! gnn-benchmark selfcheck [--seed N] [--seconds S]
//! ```
//!
//! With `--workload` the process runs that workload itself and prints, as
//! its last line, the JSON object `BENCHMARK.json`'s driver reads. Without
//! it, every workload runs in a child process of its own, so `setup_s` and
//! `peak_rss_mib` belong to one workload each.

mod direct;
mod json;
mod loadgen;
mod measure;
mod probes;
mod report;
mod rng;
mod served;
mod stats;
mod sut;
mod trace;

use json::Value;
use report::{Report, END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 20_040_301;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Selfcheck,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: Command,
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: Command::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
    };
    let mut rest = args.iter();
    match args.first().map(String::as_str) {
        Some("run") => drop(rest.next()),
        Some("selfcheck") => {
            parsed.command = Command::Selfcheck;
            rest.next();
        }
        Some(flag) if flag.starts_with("--") => {}
        Some(other) => return Err(format!("unknown command {other:?}")),
        None => {}
    }
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| w.0 == value);
                parsed.workload = Some(
                    known
                        .ok_or_else(|| format!("unknown workload {value:?}"))?
                        .0,
                );
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--json" => parsed.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

/// `out/` beside the benchmark's manifest.
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn write_file(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// Runs one workload in this process and reports it.
fn run_workload(workload: &'static str, args: &Args) -> Report {
    let mut tracer = trace::Tracer::new();
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut outcome = match workload {
        "embed_small_groups" => direct::run(direct::EMBED_SMALL, seed, seconds, trace, &mut tracer),
        "embed_large_groups" => direct::run(direct::EMBED_LARGE, seed, seconds, trace, &mut tracer),
        "network_trips" => direct::run(direct::NETWORK_TRIPS, seed, seconds, trace, &mut tracer),
        "serve_paced_small" => served::run_paced_small(seed, seconds, trace, &mut tracer),
        "serve_live_updates" => served::run_live_updates(seed, seconds, trace, &mut tracer),
        _ => unreachable!("workload names are checked when parsed"),
    };
    let metrics = if trace {
        let (probes, ladder) = probes::run(&mut tracer, workload != "serve_live_updates");
        outcome.attempted += 1;
        if let Err(mismatch) = ladder {
            outcome.failed += 1;
            eprintln!(
                "served ladder does not reconcile: the service's queue wait + execution \
                 exceeds the observed round trip on {:.2} % of requests (limit {:.0} %)",
                mismatch.overshooting * 100.0,
                probes::LADDER_OVERSHOOT_LIMIT * 100.0
            );
        }
        write_file(
            &out_dir().join(format!("trace-{workload}.jsonl")),
            &tracer.to_jsonl(),
        );
        report::per_layer_metrics(&outcome, &probes)
    } else {
        report::end_to_end_metrics(&outcome)
    };
    let report = Report {
        workload,
        trace,
        seed,
        seconds,
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        diagnostics: if trace {
            Vec::new()
        } else {
            outcome.layer.clone()
        },
    };
    let envelope = report.envelope(&outcome).render();
    write_file(&result_path(workload, trace), &envelope);
    if let Some(path) = &args.json {
        write_file(path, &envelope);
    }
    report
}

/// The result file a workload run leaves in `out/`.
fn result_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}{}.json",
        if trace { "-trace" } else { "" }
    ))
}

/// What one child run left behind: its result file (`None` when it failed
/// before writing one) and whether it exited with success.
type ChildRun = (&'static str, Option<Value>, bool);

/// Runs `workload` in a child process of its own.
fn run_child(workload: &'static str, args: &Args) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let json = result_path(workload, args.trace);
    let _ = std::fs::remove_file(&json);
    let status = std::process::Command::new(&exe)
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .status();
    let succeeded = status.is_ok_and(|s| s.success());
    let result = std::fs::read_to_string(&json)
        .ok()
        .and_then(|text| Value::parse(&text).ok());
    (workload, result, succeeded)
}

/// Runs every workload in a child process each.
fn run_set(args: &Args) -> Vec<ChildRun> {
    WORKLOADS.iter().map(|w| run_child(w.0, args)).collect()
}

fn metric_value(result: &Value, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Every workload, one child each; prints one combined last line whose
/// metrics are named `<workload>/<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let set = run_set(args);
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    let mut combined = Vec::new();
    for (workload, result, succeeded) in &set {
        correct &= *succeeded;
        let Some(result) = result else { continue };
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let metrics = result.get("metrics").map_or(&[][..], Value::entries);
        for (name, metric) in metrics {
            let fields =
                ["value", "unit"].map(|f| (f, metric.get(f).cloned().unwrap_or(Value::Null)));
            combined.push((format!("{workload}/{name}"), Value::obj(fields)));
        }
    }
    if let Some(path) = &args.json {
        let all = set
            .iter()
            .map(|(w, r, _)| (*w, r.clone().unwrap_or(Value::Null)));
        write_file(path, &Value::obj(all).render());
    }
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
            ("metrics", Value::Obj(combined)),
        ])
        .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One comparison of `selfcheck`.
#[derive(Debug, Clone, PartialEq)]
struct Comparison {
    workload: &'static str,
    metric: &'static str,
    first: f64,
    second: f64,
    bound: f64,
}

impl Comparison {
    fn difference(&self) -> f64 {
        if self.first == self.second {
            0.0
        } else {
            (self.second - self.first).abs() / self.first.abs().min(self.second.abs())
        }
    }

    fn holds(&self) -> bool {
        self.difference() <= self.bound
    }
}

/// Two full sets with the same seed, compared against the benchmark's own
/// bounds; inputs must be byte-identical and no operation may fail. The
/// sets are taken a workload at a time, so the two runs of a comparison are
/// neighbours in time on a host whose speed drifts.
fn selfcheck(args: &Args) -> ExitCode {
    let (first, second): (Vec<ChildRun>, Vec<ChildRun>) = WORKLOADS
        .iter()
        .map(|w| (run_child(w.0, args), run_child(w.0, args)))
        .unzip();
    let mut comparisons = Vec::new();
    let mut problems = Vec::new();
    for ((workload, a, ok_a), (_, b, ok_b)) in first.iter().zip(&second) {
        let (Some(a), Some(b), true, true) = (a, b, ok_a, ok_b) else {
            problems.push(format!("{workload}: a run failed"));
            continue;
        };
        if a.get("fingerprints") != b.get("fingerprints") {
            problems.push(format!(
                "{workload}: the two runs generated different inputs"
            ));
        }
        for spec in &END_TO_END {
            let values = (metric_value(a, spec.name), metric_value(b, spec.name));
            let (Some(first), Some(second)) = values else {
                problems.push(format!("{workload}: {} is missing", spec.name));
                continue;
            };
            comparisons.push(Comparison {
                workload,
                metric: spec.name,
                first,
                second,
                bound: report::selfcheck_bound(workload, spec),
            });
        }
    }
    println!(
        "\n{:<20} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for c in &comparisons {
        println!(
            "{:<20} {:<26} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
            c.workload,
            c.metric,
            c.first,
            c.second,
            c.difference() * 100.0,
            c.bound * 100.0,
            if c.holds() { "" } else { "  ** EXCEEDED **" }
        );
    }
    problems.extend(comparisons.iter().filter(|c| !c.holds()).map(|c| {
        format!(
            "{} {}: {:.2} % apart, bound {:.0} %",
            c.workload,
            c.metric,
            c.difference() * 100.0,
            c.bound * 100.0
        )
    }));
    for problem in &problems {
        println!("selfcheck: {problem}");
    }
    let rows = comparisons.iter().map(|c| {
        Value::obj([
            ("workload", Value::Str(c.workload.into())),
            ("metric", Value::Str(c.metric.into())),
            ("first", Value::Num(c.first)),
            ("second", Value::Num(c.second)),
            ("difference", Value::Num(c.difference())),
            ("bound", Value::Num(c.bound)),
            ("holds", Value::Bool(c.holds())),
        ])
    });
    let result = Value::obj([
        ("schema", Value::Str("gnn-benchmark-selfcheck/1".into())),
        ("seed", Value::Str(args.seed.to_string())),
        ("environment", report::environment()),
        ("passed", Value::Bool(problems.is_empty())),
        (
            "problems",
            Value::Arr(problems.iter().cloned().map(Value::Str).collect()),
        ),
        ("comparisons", Value::Arr(rows.collect())),
    ]);
    write_file(&out_dir().join("selfcheck.json"), &result.render());
    println!(
        "selfcheck {}",
        if problems.is_empty() {
            "passed"
        } else {
            "FAILED"
        }
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\nusage: gnn-benchmark [run|selfcheck] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]");
            return ExitCode::from(2);
        }
    };
    match (args.command, args.workload) {
        (Command::Selfcheck, _) => selfcheck(&args),
        (Command::Run, None) => run_all(&args),
        (Command::Run, Some(workload)) => {
            let report = run_workload(workload, &args);
            print!("{}", report.table());
            println!("{}", report.contract_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = args(&[
            "run",
            "--workload",
            "network_trips",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some("network_trips"), 7, 10.0, true)
        );
        assert_eq!(args(&[]).unwrap().seed, DEFAULT_SEED);
        assert!(args(&["trace"]).is_err());
        assert_eq!(args(&["selfcheck"]).unwrap().command, Command::Selfcheck);
        assert!(args(&["--workload", "embed_small_groups"])
            .unwrap()
            .workload
            .is_some());
        for bad in [
            &["quick"][..],
            &["run", "--workload", "nope"],
            &["run", "--seconds", "0"],
            &["run", "--trace", "2"],
            &["run", "--seed"],
            &["run", "--size", "3"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn selfcheck_differences_are_relative_and_exact_where_asked() {
        let mut c = Comparison {
            workload: "embed_small_groups",
            metric: "latency_p50_us",
            first: 100.0,
            second: 104.0,
            bound: 0.05,
        };
        assert!((c.difference() - 0.04).abs() < 1e-12 && c.holds());
        c.second = 106.0;
        assert!(!c.holds());
        let exact = Comparison {
            metric: "node_accesses_per_query",
            first: 45.241,
            second: 45.241,
            bound: 0.0,
            ..c.clone()
        };
        assert!(exact.holds());
        assert!(!Comparison {
            second: 45.242,
            ..exact
        }
        .holds());
    }
}
