//! The sequential reference the batch, service and scratch suites compare
//! against: a plain loop of `execute_on`, the engine's one execution path.

use gnn::prelude::*;

/// Runs `requests` in order, one `execute_on` each on `Target::Single` over
/// a fresh cursor of `snapshot`, through `scratch`; `sink` sees each
/// request's choice, neighbors and cost counters.
pub fn execute_in_order(
    snapshot: &PackedRTree,
    requests: &[QueryRequest],
    scratch: &mut QueryScratch,
    mut sink: impl FnMut(Choice, &[Neighbor], &QueryStats),
) {
    let planner = Planner::new();
    let cursor = snapshot.cursor();
    let target = Target::Single(&cursor);
    for request in requests {
        let (choice, neighbors, stats, _) = request.execute_on(&planner, &target, scratch);
        sink(choice, neighbors, &stats);
    }
}
