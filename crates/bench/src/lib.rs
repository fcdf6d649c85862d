//! # gnn-bench — the experiment harness regenerating the paper's evaluation
//!
//! Every figure of the paper's §5 has a runner here; the `figures` binary
//! (`cargo run -p gnn-bench --release --bin figures -- all`) prints the same
//! series the paper plots (average node accesses and CPU time per query,
//! one row per x-value, one column pair per algorithm) and writes CSVs.
//!
//! Timing at the micro level — geometry kernels, R-tree operations,
//! per-algorithm query latency — is the repo benchmark's (`benchmark/`,
//! `--trace 1`: `geom.*`, `rtree.*`, `core.*_us_per_query`).

#![forbid(unsafe_code)]

use gnn_core::{Aggregate, FileGnnAlgorithm, Fmbm, Fmqm, Gcp, MemoryGnnAlgorithm, QueryGroup};
use gnn_datasets::{
    centered_subrect, overlap_shifted_rect, pp_synthetic, query_workload, scale_points_to_rect,
    ts_synthetic, QuerySpec,
};
use gnn_geom::{Point, PointId, Rect};
use gnn_qfile::{FileCursor, GroupedQueryFile};
use gnn_rtree::{LeafEntry, PackedRTree, RTree, RTreeParams, TreeCursor};
use std::fmt::Write as _;
use std::time::Instant;

/// Experiment-wide constants (the paper's setup, §5).
pub mod defaults {
    /// Queries per workload (the paper averages over 100).
    pub const WORKLOAD_QUERIES: usize = 100;
    /// LRU buffer pool size in pages (the paper does not state its size;
    /// swept by `ablation_buffer`).
    pub const BUFFER_PAGES: usize = 128;
    /// Neighbors retrieved unless the experiment sweeps `k`.
    pub const K: usize = 8;
    /// Query-file group size (paper: 10 000-point blocks).
    pub const GROUP_CAPACITY: usize = 10_000;
    /// GCP abort thresholds for the full-scale runs: the paper reports GCP
    /// "does not terminate" in low-pruning regimes; these bound the blow-up
    /// so a full harness run finishes. Cells that hit them are printed as
    /// `DNF`. 8M pending pairs is roughly the paper's "1 GByte memory"
    /// machine; the pair budget additionally caps a cell's wall time.
    pub const GCP_HEAP_LIMIT: usize = 8_000_000;
    /// See [`GCP_HEAP_LIMIT`].
    pub const GCP_PAIR_LIMIT: u64 = 20_000_000;
}

/// Which of the two paper datasets (or their scaled-down quick variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// 24 493 clustered "populated places" (substitute for PP).
    Pp,
    /// 194 971 stream centroids (substitute for TS).
    Ts,
}

impl Dataset {
    /// Dataset display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Pp => "PP",
            Dataset::Ts => "TS",
        }
    }

    /// Generates the dataset's points (seeded; `quick` shrinks cardinality
    /// 10x for smoke runs).
    pub fn points(self, quick: bool) -> Vec<Point> {
        let full = match self {
            Dataset::Pp => pp_synthetic(20_040_301),
            Dataset::Ts => ts_synthetic(20_040_302),
        };
        if quick {
            full.into_iter().step_by(10).collect()
        } else {
            full
        }
    }
}

/// Builds the R*-tree over a point set with the paper's page parameters and
/// freezes it: every cell queries the packed snapshot.
pub fn build_tree(points: &[Point]) -> PackedRTree {
    RTree::bulk_load(
        RTreeParams::default(),
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze()
}

/// Average cost of one workload cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Node accesses (post-buffer I/O on every structure involved).
    pub na: f64,
    /// CPU (wall) time in seconds.
    pub cpu_s: f64,
    /// Whether any query in the cell aborted (GCP blow-up).
    pub dnf: bool,
}

/// One experiment's output: `cells[algo][x]`.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    /// Table title (figure id + fixed parameters).
    pub title: String,
    /// Name of the sweep variable.
    pub x_label: String,
    /// Sweep values, printed per row.
    pub x_values: Vec<String>,
    /// Algorithm names, one column pair each.
    pub algorithms: Vec<String>,
    /// `cells[a][x]`.
    pub cells: Vec<Vec<Cost>>,
}

impl SeriesTable {
    /// Renders the table like the paper's figures: one NA block, one CPU
    /// block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        for (metric, label) in [(0usize, "node accesses"), (1, "CPU time (s)")] {
            let _ = writeln!(out, "-- {label} --");
            let _ = write!(out, "{:>10}", self.x_label);
            for a in &self.algorithms {
                let _ = write!(out, " {a:>12}");
            }
            let _ = writeln!(out);
            for (xi, x) in self.x_values.iter().enumerate() {
                let _ = write!(out, "{x:>10}");
                for cells in &self.cells {
                    let c = cells[xi];
                    if c.dnf {
                        let _ = write!(out, " {:>12}", "DNF");
                    } else if metric == 0 {
                        let _ = write!(out, " {:>12.1}", c.na);
                    } else {
                        let _ = write!(out, " {:>12.4}", c.cpu_s);
                    }
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// CSV form: `x,algo,na,cpu_s,dnf` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,algorithm,node_accesses,cpu_seconds,dnf\n");
        for (xi, x) in self.x_values.iter().enumerate() {
            for (ai, a) in self.algorithms.iter().enumerate() {
                let c = self.cells[ai][xi];
                let _ = writeln!(out, "{x},{a},{:.3},{:.6},{}", c.na, c.cpu_s, c.dnf);
            }
        }
        out
    }

    /// JSON object form (machine-readable counterpart of [`render`]).
    ///
    /// [`render`]: SeriesTable::render
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"title\":{},\"x_label\":{},\"x_values\":[{}],\"algorithms\":[{}],\"cells\":[",
            json_str(&self.title),
            json_str(&self.x_label),
            self.x_values
                .iter()
                .map(|x| json_str(x))
                .collect::<Vec<_>>()
                .join(","),
            self.algorithms
                .iter()
                .map(|a| json_str(a))
                .collect::<Vec<_>>()
                .join(","),
        );
        for (ai, cells) in self.cells.iter().enumerate() {
            if ai > 0 {
                out.push(',');
            }
            out.push('[');
            for (xi, c) in cells.iter().enumerate() {
                if xi > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"na\":{:.3},\"cpu_s\":{:.6},\"dnf\":{}}}",
                    c.na, c.cpu_s, c.dnf
                );
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Memory-resident algorithms compared in §5.1.
pub fn memory_algorithms() -> Vec<(String, Box<dyn MemoryGnnAlgorithm>)> {
    vec![
        ("MQM".into(), Box::new(gnn_core::Mqm::new())),
        ("SPM".into(), Box::new(gnn_core::Spm::best_first())),
        ("MBM".into(), Box::new(gnn_core::Mbm::best_first())),
    ]
}

/// Runs one memory-resident workload cell: `queries` query groups against
/// `tree`, averaging post-buffer node accesses and wall time.
pub fn run_memory_cell(
    tree: &PackedRTree,
    queries: &[Vec<Point>],
    algo: &dyn MemoryGnnAlgorithm,
    k: usize,
    buffer_pages: usize,
) -> Cost {
    let mut na = 0u64;
    let mut cpu = 0.0f64;
    for q in queries {
        let group = QueryGroup::sum(q.clone()).expect("valid workload query");
        let cursor = TreeCursor::with_buffer(tree, buffer_pages);
        let t0 = Instant::now();
        let r = algo.k_gnn(&cursor, &group, k);
        cpu += t0.elapsed().as_secs_f64();
        na += r.stats.data_tree.io;
    }
    Cost {
        na: na as f64 / queries.len() as f64,
        cpu_s: cpu / queries.len() as f64,
        dnf: false,
    }
}

/// Generates the §5.1 workload for a dataset tree.
pub fn workload_for(
    tree: &PackedRTree,
    n: usize,
    area: f64,
    count: usize,
    seed: u64,
) -> Vec<Vec<Point>> {
    query_workload(
        tree.root_mbr(),
        QuerySpec {
            n,
            area_fraction: area,
        },
        count,
        seed,
    )
}

/// The disk-resident algorithms of §5.2 running over a grouped query file.
pub fn run_file_cell(
    tree: &PackedRTree,
    qfile: &GroupedQueryFile,
    algo: &dyn FileGnnAlgorithm,
    k: usize,
    buffer_pages: usize,
) -> Cost {
    let cursor = TreeCursor::with_buffer(tree, buffer_pages);
    let fc = FileCursor::new(qfile.file());
    let t0 = Instant::now();
    let r = algo.k_gnn(&cursor, qfile, &fc, k, Aggregate::Sum);
    let cpu = t0.elapsed().as_secs_f64();
    Cost {
        na: r.stats.total_io() as f64,
        cpu_s: cpu,
        dnf: false,
    }
}

/// GCP over two trees (builds the query-side tree internally).
pub fn run_gcp_cell(
    tree: &PackedRTree,
    query_points: &[Point],
    k: usize,
    buffer_pages: usize,
) -> Cost {
    let qtree = build_tree(query_points);
    let dc = TreeCursor::with_buffer(tree, buffer_pages);
    let qc = TreeCursor::with_buffer(&qtree, buffer_pages);
    let gcp = Gcp {
        heap_limit: defaults::GCP_HEAP_LIMIT,
        pair_limit: defaults::GCP_PAIR_LIMIT,
    };
    let t0 = Instant::now();
    let r = gcp.k_gnn(&dc, &qc, k);
    let cpu = t0.elapsed().as_secs_f64();
    Cost {
        na: r.stats.total_io() as f64,
        cpu_s: cpu,
        dnf: r.stats.aborted,
    }
}

/// Builds the §5.2 query file: dataset points scaled into `target`, grouped
/// in 10 000-point blocks (or smaller in quick mode).
pub fn disk_query_file(points: &[Point], target: Rect, quick: bool) -> GroupedQueryFile {
    let scaled = scale_points_to_rect(points, target);
    let group_capacity = if quick {
        defaults::GROUP_CAPACITY / 10
    } else {
        defaults::GROUP_CAPACITY
    };
    GroupedQueryFile::build_with(scaled, gnn_qfile::DEFAULT_PAGE_CAPACITY, group_capacity)
}

/// §5.2 varying-M geometry: a centered sub-rectangle of the data workspace.
pub fn varying_m_target(tree: &PackedRTree, area: f64) -> Rect {
    centered_subrect(tree.root_mbr(), area)
}

/// §5.2 varying-overlap geometry: an equal-size workspace shifted to the
/// requested overlap fraction.
pub fn overlap_target(tree: &PackedRTree, overlap: f64) -> Rect {
    overlap_shifted_rect(tree.root_mbr(), overlap)
}

/// Points of a scaled query dataset for GCP (same geometry as
/// [`disk_query_file`] without the paging).
pub fn scaled_query_points(points: &[Point], target: Rect) -> Vec<Point> {
    scale_points_to_rect(points, target)
}

/// The file algorithms of §5.2.
pub fn file_algorithms() -> Vec<(String, Box<dyn FileGnnAlgorithm>)> {
    vec![
        ("F-MQM".into(), Box::new(Fmqm::new())),
        ("F-MBM".into(), Box::new(Fmbm::best_first())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_datasets_have_expected_sizes() {
        let pp = Dataset::Pp.points(true);
        assert_eq!(pp.len(), 2450);
        assert_eq!(
            Dataset::Pp.points(false).len(),
            gnn_datasets::PP_CARDINALITY
        );
    }

    #[test]
    fn memory_cell_runs() {
        let pts = Dataset::Pp.points(true);
        let tree = build_tree(&pts);
        let wl = workload_for(&tree, 4, 0.08, 3, 1);
        for (name, algo) in memory_algorithms() {
            let c = run_memory_cell(&tree, &wl, algo.as_ref(), 2, 64);
            assert!(c.na > 0.0, "{name}");
            assert!(!c.dnf);
        }
    }

    #[test]
    fn file_cell_runs() {
        let pts = Dataset::Pp.points(true);
        let tree = build_tree(&pts);
        let qpts = Dataset::Pp.points(true);
        let qf = disk_query_file(&qpts, varying_m_target(&tree, 0.08), true);
        assert!(qf.group_count() >= 2);
        for (name, algo) in file_algorithms() {
            let c = run_file_cell(&tree, &qf, algo.as_ref(), 2, 64);
            assert!(c.na > 0.0, "{name}");
        }
    }

    #[test]
    fn gcp_cell_runs() {
        let pts = Dataset::Pp.points(true);
        let tree = build_tree(&pts);
        let q = scaled_query_points(&pts[..500], varying_m_target(&tree, 0.02));
        let c = run_gcp_cell(&tree, &q, 2, 64);
        assert!(c.na > 0.0);
    }

    #[test]
    fn series_table_renders_and_exports() {
        let t = SeriesTable {
            title: "demo".into(),
            x_label: "n".into(),
            x_values: vec!["4".into(), "16".into()],
            algorithms: vec!["A".into(), "B".into()],
            cells: vec![
                vec![
                    Cost {
                        na: 10.0,
                        cpu_s: 0.5,
                        dnf: false,
                    },
                    Cost {
                        na: 20.0,
                        cpu_s: 1.0,
                        dnf: false,
                    },
                ],
                vec![
                    Cost {
                        na: 5.0,
                        cpu_s: 0.1,
                        dnf: false,
                    },
                    Cost {
                        na: 1.0,
                        cpu_s: 0.2,
                        dnf: true,
                    },
                ],
            ],
        };
        let rendered = t.render();
        assert!(rendered.contains("node accesses"));
        assert!(rendered.contains("DNF"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.contains("16,B,1.000,0.200000,true"));
    }
}
