//! Regenerates every figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run -p gnn-bench --release --bin figures -- all
//! cargo run -p gnn-bench --release --bin figures -- fig5_1 fig5_2
//! cargo run -p gnn-bench --release --bin figures -- --quick all
//! cargo run -p gnn-bench --release --bin figures -- ablations
//! ```
//!
//! Flags:
//! * `--quick`        10x smaller datasets, fewer queries (smoke run)
//! * `--queries N`    queries per workload cell (default 100, paper's value)
//! * `--csv DIR`      also write one CSV per experiment into DIR
//! * `--json PATH`    write every table as one machine-readable JSON
//!   document
//!
//! Experiments: the paper figures (`fig5_1`..`fig5_7`) and the `ablations`.
//!
//! Absolute numbers will not match a 2004 Pentium with real disks; the
//! *shapes* (who wins, growth trends, blow-ups) are the reproduction target.
//! See EXPERIMENTS.md for the recorded paper-vs-measured comparison.

use gnn_bench::defaults;
use gnn_bench::{
    build_tree, disk_query_file, file_algorithms, memory_algorithms, overlap_target, run_file_cell,
    run_gcp_cell, run_memory_cell, scaled_query_points, varying_m_target, Cost, Dataset,
    SeriesTable,
};
use gnn_geom::Point;
use gnn_rtree::PackedRTree;
use std::collections::BTreeSet;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Options {
    quick: bool,
    queries: usize,
    csv_dir: Option<String>,
    json_path: Option<String>,
    experiments: BTreeSet<String>,
}

/// Tables accumulated for `--json`.
#[derive(Default)]
struct Report {
    tables: Vec<SeriesTable>,
}

impl Report {
    fn to_json(&self, opts: &Options) -> String {
        let tables: Vec<String> = self.tables.iter().map(SeriesTable::to_json).collect();
        format!(
            "{{\n\"schema\":\"gnn-bench-report/2\",\n\"quick\":{},\n\"queries\":{},\n\
             \"tables\":[\n{}\n]\n}}\n",
            opts.quick,
            opts.queries,
            tables.join(",\n"),
        )
    }
}

const MEMORY_FIGS: [&str; 3] = ["fig5_1", "fig5_2", "fig5_3"];
const DISK_FIGS: [&str; 4] = ["fig5_4", "fig5_5", "fig5_6", "fig5_7"];
const ABLATIONS: [&str; 1] = ["ablation_buffer"];

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        queries: defaults::WORKLOAD_QUERIES,
        csv_dir: None,
        json_path: None,
        experiments: BTreeSet::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--queries" => {
                let v = args.next().expect("--queries needs a value");
                opts.queries = v.parse().expect("--queries must be a number");
            }
            "--csv" => {
                opts.csv_dir = Some(args.next().expect("--csv needs a directory"));
            }
            "--json" => {
                let path = args.next().expect("--json needs a file path");
                // Fail fast on an unwritable path — a full-scale run takes
                // minutes and its report must not be lost at the very end.
                std::fs::write(&path, "{}\n")
                    .unwrap_or_else(|e| panic!("--json path {path} is not writable: {e}"));
                opts.json_path = Some(path);
            }
            "all" => {
                for f in MEMORY_FIGS.iter().chain(&DISK_FIGS) {
                    opts.experiments.insert((*f).into());
                }
            }
            "ablations" => {
                for f in &ABLATIONS {
                    opts.experiments.insert((*f).into());
                }
            }
            other
                if MEMORY_FIGS.contains(&other)
                    || DISK_FIGS.contains(&other)
                    || ABLATIONS.contains(&other) =>
            {
                opts.experiments.insert(other.into());
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "experiments: {} | all | ablations",
                    MEMORY_FIGS
                        .iter()
                        .chain(&DISK_FIGS)
                        .chain(&ABLATIONS)
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    if opts.experiments.is_empty() {
        for f in MEMORY_FIGS.iter().chain(&DISK_FIGS) {
            opts.experiments.insert((*f).into());
        }
    }
    if opts.quick && opts.queries == defaults::WORKLOAD_QUERIES {
        opts.queries = 10;
    }
    opts
}

fn emit(opts: &Options, report: &mut Report, table: SeriesTable) {
    println!("{}", table.render());
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let slug: String = table
            .title
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_");
        let file = format!("{dir}/{slug}.csv");
        std::fs::write(&file, table.to_csv()).expect("write csv");
        println!("[csv] {file}\n");
    }
    report.tables.push(table);
}

/// Figures 5.1–5.3: memory-resident queries on both datasets.
fn memory_figure(
    opts: &Options,
    fig: &str,
    dataset: Dataset,
    tree: &PackedRTree,
    sweep: &[(String, usize, f64, usize)], // (x label, n, M, k)
) -> SeriesTable {
    let algos = memory_algorithms();
    let mut cells = vec![Vec::new(); algos.len()];
    for (xi, (xl, n, m, k)) in sweep.iter().enumerate() {
        let wl = gnn_bench::workload_for(tree, *n, *m, opts.queries, 0xC0FFEE + xi as u64);
        for (ai, (_, algo)) in algos.iter().enumerate() {
            let cost = run_memory_cell(tree, &wl, algo.as_ref(), *k, defaults::BUFFER_PAGES);
            cells[ai].push(cost);
            eprintln!(
                "  [{fig}/{}] {} x={xl}: NA={:.1} cpu={:.4}s",
                dataset.name(),
                algos[ai].0,
                cost.na,
                cost.cpu_s
            );
        }
    }
    SeriesTable {
        title: format!("{fig} ({})", dataset.name()),
        x_label: fig_x_label(fig).into(),
        x_values: sweep.iter().map(|s| s.0.clone()).collect(),
        algorithms: algos.into_iter().map(|(n, _)| n).collect(),
        cells,
    }
}

fn fig_x_label(fig: &str) -> &'static str {
    match fig {
        "fig5_1" => "n",
        "fig5_2" => "M",
        "fig5_3" => "k",
        "fig5_4" | "fig5_5" => "M",
        "fig5_6" | "fig5_7" => "overlap",
        _ => "x",
    }
}

fn run_memory_figures(opts: &Options, report: &mut Report) {
    let needed: Vec<&str> = MEMORY_FIGS
        .iter()
        .filter(|f| opts.experiments.contains(**f))
        .copied()
        .collect();
    if needed.is_empty() {
        return;
    }
    for dataset in [Dataset::Pp, Dataset::Ts] {
        eprintln!("[build] {} dataset + R*-tree...", dataset.name());
        let pts = dataset.points(opts.quick);
        let tree = build_tree(&pts);
        eprintln!(
            "[build] {}: {} points, {} nodes, height {}",
            dataset.name(),
            tree.len(),
            tree.node_count(),
            tree.height()
        );
        for fig in &needed {
            let sweep: Vec<(String, usize, f64, usize)> = match *fig {
                // Figure 5.1: cost vs cardinality n of Q (M=8%, k=8).
                "fig5_1" => [4usize, 16, 64, 256, 1024]
                    .iter()
                    .map(|&n| (n.to_string(), n, 0.08, defaults::K))
                    .collect(),
                // Figure 5.2: cost vs size of the MBR of Q (n=64, k=8).
                "fig5_2" => [0.02f64, 0.04, 0.08, 0.16, 0.32]
                    .iter()
                    .map(|&m| (format!("{}%", (m * 100.0) as u32), 64, m, defaults::K))
                    .collect(),
                // Figure 5.3: cost vs number of neighbors k (n=64, M=8%).
                "fig5_3" => [1usize, 2, 8, 16, 32]
                    .iter()
                    .map(|&k| (k.to_string(), 64, 0.08, k))
                    .collect(),
                _ => unreachable!(),
            };
            emit(
                opts,
                report,
                memory_figure(opts, fig, dataset, &tree, &sweep),
            );
        }
    }
}

/// Figures 5.4–5.7: disk-resident queries.
fn run_disk_figures(opts: &Options, report: &mut Report) {
    let needed: Vec<&str> = DISK_FIGS
        .iter()
        .filter(|f| opts.experiments.contains(**f))
        .copied()
        .collect();
    if needed.is_empty() {
        return;
    }
    let pp = Dataset::Pp.points(opts.quick);
    let ts = Dataset::Ts.points(opts.quick);
    let pp_tree = build_tree(&pp);
    let ts_tree = build_tree(&ts);
    eprintln!(
        "[build] PP tree {} nodes, TS tree {} nodes",
        pp_tree.node_count(),
        ts_tree.node_count()
    );

    for fig in needed {
        let (data_tree, qpoints, with_gcp, sweep): (
            &PackedRTree,
            &[Point],
            bool,
            Vec<(String, f64)>,
        ) = match fig {
            // Fig 5.4: P=TS, Q=PP, M 2..32% centered. GCP included.
            "fig5_4" => (
                &ts_tree,
                &pp,
                true,
                [0.02f64, 0.04, 0.08, 0.16, 0.32]
                    .iter()
                    .map(|&m| (format!("{}%", (m * 100.0) as u32), m))
                    .collect(),
            ),
            // Fig 5.5: P=PP, Q=TS. GCP omitted (paper: excessive cost).
            "fig5_5" => (
                &pp_tree,
                &ts,
                false,
                [0.02f64, 0.04, 0.08, 0.16, 0.32]
                    .iter()
                    .map(|&m| (format!("{}%", (m * 100.0) as u32), m))
                    .collect(),
            ),
            // Fig 5.6: P=TS, Q=PP, equal workspaces, overlap 0..100%.
            "fig5_6" => (
                &ts_tree,
                &pp,
                true,
                [0.0f64, 0.25, 0.5, 0.75, 1.0]
                    .iter()
                    .map(|&o| (format!("{}%", (o * 100.0) as u32), o))
                    .collect(),
            ),
            // Fig 5.7: P=PP, Q=TS, overlap sweep. GCP omitted.
            "fig5_7" => (
                &pp_tree,
                &ts,
                false,
                [0.0f64, 0.25, 0.5, 0.75, 1.0]
                    .iter()
                    .map(|&o| (format!("{}%", (o * 100.0) as u32), o))
                    .collect(),
            ),
            _ => unreachable!(),
        };
        let is_overlap = fig == "fig5_6" || fig == "fig5_7";

        let mut algo_names: Vec<String> = Vec::new();
        let mut cells: Vec<Vec<Cost>> = Vec::new();
        if with_gcp {
            algo_names.push("GCP".into());
            cells.push(Vec::new());
        }
        for (n, _) in file_algorithms() {
            algo_names.push(n);
            cells.push(Vec::new());
        }

        for (xl, x) in &sweep {
            let target = if is_overlap {
                overlap_target(data_tree, *x)
            } else {
                varying_m_target(data_tree, *x)
            };
            let mut ai = 0;
            if with_gcp {
                let qpts = scaled_query_points(qpoints, target);
                let t0 = Instant::now();
                let cost = run_gcp_cell(data_tree, &qpts, defaults::K, defaults::BUFFER_PAGES);
                eprintln!(
                    "  [{fig}] GCP x={xl}: NA={:.0} cpu={:.2}s{} (wall {:.1}s)",
                    cost.na,
                    cost.cpu_s,
                    if cost.dnf { " DNF" } else { "" },
                    t0.elapsed().as_secs_f64()
                );
                cells[ai].push(cost);
                ai += 1;
            }
            let qf = disk_query_file(qpoints, target, opts.quick);
            for (name, algo) in file_algorithms() {
                let cost = run_file_cell(
                    data_tree,
                    &qf,
                    algo.as_ref(),
                    defaults::K,
                    defaults::BUFFER_PAGES,
                );
                eprintln!(
                    "  [{fig}] {name} x={xl}: NA={:.0} cpu={:.2}s",
                    cost.na, cost.cpu_s
                );
                cells[ai].push(cost);
                ai += 1;
            }
        }

        emit(
            opts,
            report,
            SeriesTable {
                title: format!(
                    "{fig} (P={}, Q={})",
                    if std::ptr::eq(data_tree, &ts_tree) {
                        "TS"
                    } else {
                        "PP"
                    },
                    if std::ptr::eq(data_tree, &ts_tree) {
                        "PP"
                    } else {
                        "TS"
                    },
                ),
                x_label: fig_x_label(fig).into(),
                x_values: sweep.iter().map(|s| s.0.clone()).collect(),
                algorithms: algo_names,
                cells,
            },
        );
    }
}

/// The ablation: the LRU buffer sweep.
fn run_ablations(opts: &Options, report: &mut Report) {
    if !opts.experiments.contains("ablation_buffer") {
        return;
    }
    eprintln!("[build] PP dataset for ablations...");
    let pts = Dataset::Pp.points(opts.quick);
    let tree = build_tree(&pts);
    let wl = gnn_bench::workload_for(&tree, 64, 0.08, opts.queries, 0xAB1A7E);
    let sweeps = [1usize, 16, 64, 128, 512, 2048];
    let algos = memory_algorithms();
    let mut cells = vec![Vec::new(); algos.len()];
    for &pages in &sweeps {
        for (ai, (_, algo)) in algos.iter().enumerate() {
            cells[ai].push(run_memory_cell(
                &tree,
                &wl,
                algo.as_ref(),
                defaults::K,
                pages,
            ));
        }
    }
    emit(
        opts,
        report,
        SeriesTable {
            title: "ablation_buffer (LRU pages, PP, n=64 M=8% k=8)".into(),
            x_label: "pages".into(),
            x_values: sweeps.iter().map(|p| p.to_string()).collect(),
            algorithms: algos.into_iter().map(|(n, _)| n).collect(),
            cells,
        },
    );
}

fn main() {
    let opts = parse_args();
    let t0 = Instant::now();
    eprintln!(
        "[figures] experiments: {:?} (quick={}, queries={})",
        opts.experiments, opts.quick, opts.queries
    );
    let mut report = Report::default();
    run_memory_figures(&opts, &mut report);
    run_disk_figures(&opts, &mut report);
    run_ablations(&opts, &mut report);
    if let Some(path) = &opts.json_path {
        std::fs::write(path, report.to_json(&opts)).expect("write json report");
        eprintln!("[json] {path}");
    }
    eprintln!("[figures] done in {:.1}s", t0.elapsed().as_secs_f64());
}
