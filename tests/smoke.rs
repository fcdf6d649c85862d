//! Tier-1 smoke suite: one fixed-seed scenario, answered by every main-memory
//! algorithm, checked against the linear-scan oracle. Runs in well under a
//! second, so CI catches algorithm regressions immediately without waiting
//! for the full property-based suites.

use gnn::core::baseline::linear_scan_entries;
use gnn::datasets::uniform_points;
use gnn::prelude::*;

const SEED: u64 = 0x5EED_0001;

fn workspace() -> Rect {
    Rect::from_corners(0.0, 0.0, 1.0, 1.0)
}

#[test]
fn mqm_spm_mbm_agree_on_1k_uniform_points() {
    let data = uniform_points(1000, workspace(), SEED);
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        data.iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    )
    .freeze();
    let cursor = tree.cursor();

    // A few group shapes: clustered, spread, and degenerate (single point).
    let groups = [
        vec![
            Point::new(0.5, 0.5),
            Point::new(0.52, 0.48),
            Point::new(0.47, 0.53),
        ],
        vec![
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.2),
            Point::new(0.4, 0.95),
            Point::new(0.8, 0.8),
        ],
        vec![Point::new(0.25, 0.75)],
    ];

    for (gi, pts) in groups.into_iter().enumerate() {
        let group = QueryGroup::sum(pts).unwrap();
        for k in [1, 4, 10] {
            let oracle = linear_scan_entries(tree.iter(), &group, k);
            let want = oracle.distances();
            for (name, got) in [
                ("MQM", Mqm::new().k_gnn(&cursor, &group, k)),
                ("SPM", Spm::best_first().k_gnn(&cursor, &group, k)),
                ("MBM", Mbm::best_first().k_gnn(&cursor, &group, k)),
            ] {
                let g = got.distances();
                assert_eq!(g.len(), want.len(), "{name} group {gi} k={k}: wrong count");
                for (a, b) in g.iter().zip(&want) {
                    assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "{name} group {gi} k={k}: {a} vs oracle {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn results_are_deterministic_across_runs() {
    // Same seed, two independent builds: identical ids and distances. Guards
    // against hidden iteration-order or uninitialised-state nondeterminism.
    let run = || {
        let data = uniform_points(1000, workspace(), SEED);
        let tree = RTree::bulk_load(
            RTreeParams::default(),
            data.iter()
                .enumerate()
                .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
        )
        .freeze();
        let cursor = tree.cursor();
        let group = QueryGroup::sum(vec![Point::new(0.3, 0.6), Point::new(0.7, 0.4)]).unwrap();
        let found = Mbm::best_first().k_gnn(&cursor, &group, 5);
        found
            .neighbors
            .iter()
            .map(|n| (n.id, n.dist))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
