//! Scaled-down versions of the paper's experimental claims (§5): on the
//! synthetic PP/TS substitutes the *relative* cost orderings the paper
//! reports must hold. These are shape tests — the full reproduction lives in
//! `cargo run -p gnn-bench --release --bin figures`.

use gnn::datasets::{
    gaussian_clusters, overlap_shifted_rect, query_workload, scale_points_to_rect, ClusterSpec,
    QuerySpec,
};
use gnn::prelude::*;

/// A small PP-like clustered dataset (scaled down for test runtime).
fn mini_pp(n: usize, seed: u64) -> Vec<Point> {
    gaussian_clusters(
        n,
        Rect::from_corners(0.0, 0.0, 1.0, 1.0),
        ClusterSpec {
            clusters: 40,
            sigma: 0.015,
            background: 0.15,
        },
        seed,
    )
}

fn build_tree(points: &[Point]) -> PackedRTree {
    RTree::bulk_load(
        RTreeParams::default(),
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze()
}

/// Average logical node accesses of a memory algorithm over a workload.
///
/// Shape tests use the pre-buffer (logical) counts: the test trees are small
/// enough that a realistic buffer pool would cache most of the hot region
/// and flatten the trends the assertions look for. The full-scale harness
/// (`gnn-bench`) reports both.
fn avg_na(
    tree: &PackedRTree,
    workload: &[Vec<Point>],
    algo: &dyn MemoryGnnAlgorithm,
    k: usize,
) -> f64 {
    let mut total = 0u64;
    for q in workload {
        let cursor = TreeCursor::with_buffer(tree, 128);
        let group = QueryGroup::sum(q.clone()).unwrap();
        let r = algo.k_gnn(&cursor, &group, k);
        total += r.stats.data_tree.logical;
    }
    total as f64 / workload.len() as f64
}

#[test]
fn figure_5_1_shape_mqm_degrades_with_n_while_mbm_stays_flat() {
    // Paper §5.1: "MQM is, in general, the worst method and its cost
    // increases fast with the query cardinality ... the cardinality of Q has
    // little effect on the node accesses of SPM and MBM".
    let data = mini_pp(8000, 1);
    let tree = build_tree(&data);
    let ws = tree.root_mbr();

    let mut mqm_series = Vec::new();
    let mut mbm_series = Vec::new();
    for n in [4usize, 16, 64] {
        let wl = query_workload(
            ws,
            QuerySpec {
                n,
                area_fraction: 0.08,
            },
            12,
            42,
        );
        mqm_series.push(avg_na(&tree, &wl, &Mqm::new(), 8));
        mbm_series.push(avg_na(&tree, &wl, &Mbm::best_first(), 8));
    }
    // MQM cost grows substantially from n=4 to n=64.
    assert!(
        mqm_series[2] > mqm_series[0] * 2.0,
        "MQM should degrade with n: {mqm_series:?}"
    );
    // MBM stays within a small factor.
    assert!(
        mbm_series[2] < mbm_series[0] * 3.0 + 10.0,
        "MBM should be insensitive to n: {mbm_series:?}"
    );
    // And MBM beats MQM everywhere.
    for (m, b) in mqm_series.iter().zip(&mbm_series) {
        assert!(b <= m, "MBM ({b}) worse than MQM ({m})");
    }
}

#[test]
fn figure_5_1_shape_mbm_beats_spm_beats_mqm() {
    // The paper's §5.1 ordering at n=64, M=8%, k=8.
    let data = mini_pp(8000, 2);
    let tree = build_tree(&data);
    let wl = query_workload(
        tree.root_mbr(),
        QuerySpec {
            n: 64,
            area_fraction: 0.08,
        },
        15,
        7,
    );
    let mqm = avg_na(&tree, &wl, &Mqm::new(), 8);
    let spm = avg_na(&tree, &wl, &Spm::best_first(), 8);
    let mbm = avg_na(&tree, &wl, &Mbm::best_first(), 8);
    assert!(mbm <= spm, "MBM {mbm} should beat SPM {spm}");
    assert!(spm <= mqm, "SPM {spm} should beat MQM {mqm}");
}

#[test]
fn figure_5_2_shape_cost_grows_with_query_mbr() {
    // Paper §5.1: "the cost of all algorithms increases with the query MBR".
    let data = mini_pp(8000, 3);
    let tree = build_tree(&data);
    let ws = tree.root_mbr();
    for (name, algo) in [
        (
            "MBM",
            Box::new(Mbm::best_first()) as Box<dyn MemoryGnnAlgorithm>,
        ),
        ("SPM", Box::new(Spm::best_first())),
    ] {
        let small = avg_na(
            &tree,
            &query_workload(
                ws,
                QuerySpec {
                    n: 64,
                    area_fraction: 0.02,
                },
                15,
                9,
            ),
            algo.as_ref(),
            8,
        );
        let large = avg_na(
            &tree,
            &query_workload(
                ws,
                QuerySpec {
                    n: 64,
                    area_fraction: 0.32,
                },
                15,
                9,
            ),
            algo.as_ref(),
            8,
        );
        assert!(
            large > small,
            "{name}: cost must grow with M ({small} -> {large})"
        );
    }
}

#[test]
fn figure_5_3_shape_k_has_minor_effect() {
    // Paper §5.1: "The value of k does not influence the cost of any method
    // significantly".
    let data = mini_pp(8000, 4);
    let tree = build_tree(&data);
    let wl = query_workload(
        tree.root_mbr(),
        QuerySpec {
            n: 64,
            area_fraction: 0.08,
        },
        15,
        11,
    );
    let k1 = avg_na(&tree, &wl, &Mbm::best_first(), 1);
    let k32 = avg_na(&tree, &wl, &Mbm::best_first(), 32);
    assert!(
        k32 < k1 * 2.5 + 5.0,
        "k=32 ({k32}) should not cost much more than k=1 ({k1})"
    );
}

#[test]
fn figure_5_4_shape_gcp_heap_explodes_when_workspaces_match() {
    // Paper §4.1/§5.2: GCP thrives when Q's workspace is tiny and centered
    // (high pruning), and its heap explodes as the workspaces approach each
    // other (low pruning).
    let ws = Rect::from_corners(0.0, 0.0, 1.0, 1.0);
    let data = mini_pp(4000, 5);
    let tree = build_tree(&data);
    let query_raw = mini_pp(800, 6);

    // Small centered query workspace: cheap.
    let tiny = scale_points_to_rect(&query_raw, Rect::from_corners(0.48, 0.48, 0.52, 0.52));
    let tiny_tree = build_tree(&tiny);
    let dc = tree.cursor();
    let qc = tiny_tree.cursor();
    let small_run = Gcp::unbounded().k_gnn(&dc, &qc, 8);
    assert!(!small_run.stats.aborted);

    // Full-workspace query set: heap pressure must be much larger.
    let big = scale_points_to_rect(&query_raw, ws);
    let big_tree = build_tree(&big);
    let dc2 = tree.cursor();
    let qc2 = big_tree.cursor();
    let big_run = Gcp::unbounded().k_gnn(&dc2, &qc2, 8);
    assert!(
        big_run.stats.heap_watermark > small_run.stats.heap_watermark * 5,
        "heap watermark should explode: {} vs {}",
        big_run.stats.heap_watermark,
        small_run.stats.heap_watermark
    );
}

#[test]
fn figure_5_6_shape_disk_costs_grow_with_workspace_overlap() {
    // Paper §5.2: "The cost of all algorithms grows fast with the overlap
    // area".
    let data = mini_pp(6000, 7);
    let tree = build_tree(&data);
    let ws = tree.root_mbr();
    let query_raw = mini_pp(600, 8);

    let mut io_by_overlap = Vec::new();
    for overlap in [0.0, 1.0] {
        let target = overlap_shifted_rect(ws, overlap);
        let qpts = scale_points_to_rect(&query_raw, target);
        let qf = GroupedQueryFile::build_with(qpts, 64, 200);
        let cursor = TreeCursor::with_buffer(&tree, 128);
        let fc = FileCursor::new(qf.file());
        let r = Fmbm::best_first().k_gnn(&cursor, &qf, &fc, 8, Aggregate::Sum);
        io_by_overlap.push(r.stats.total_io());
    }
    assert!(
        io_by_overlap[1] > io_by_overlap[0],
        "full overlap should cost more: {io_by_overlap:?}"
    );
}

#[test]
fn group_counts_match_paper_setup() {
    // §5.2: PP (24 493) -> 3 groups, TS (194 971) -> 20 groups at
    // 10 000-point blocks. Verified on the real cardinalities without
    // building the heavy datasets.
    for (cardinality, expect) in [(24_493usize, 3usize), (194_971, 20)] {
        let groups = cardinality.div_ceil(10_000);
        assert_eq!(groups, expect);
    }
}
