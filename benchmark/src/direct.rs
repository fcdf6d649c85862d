//! The three library-path workloads: one thread calling `execute_on`
//! back-to-back with a warmed scratch.
//!
//! * `embed_small_groups` — TS, n = 4: tree-bound (cursor reads, branch
//!   scoring, heap, best list).
//! * `embed_large_groups` — PP, n = 256: kernel-bound (the group scan).
//! * `network_trips` — 96 × 96 road grid, trip groups of 4, IER:
//!   Dijkstra expansion over the packed CSR graph.
//!
//! The request pool is fixed (so `node_accesses_per_query` repeats exactly
//! whatever the seed); `--seed` decides the order it is issued in.

use crate::measure::{
    note_traced, peak_rss_mib, repeat_setup, run_segments, segment_size, Outcome, Segment,
};
use crate::rng::SplitMix64;
use crate::sut::{self, Agg, Dataset, Digest, Pin, Point, Ranked, Request, Roads, Runner};
use crate::trace::Tracer;
use std::time::Instant;

/// Queries run untimed at the end of set-up (lazy initialisation, scratch
/// sizing) — part of `setup_s`, because a user pays it before the first
/// fast query.
const WARM_UP_QUERIES: usize = 256;

/// A direct workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub data: Data,
    /// Queries a second on the reference host: sizes the request pool,
    /// which every segment runs once (see [`segment_size`]).
    pub per_second: f64,
    pub k: usize,
    /// Every `check_every`-th pooled query is compared with the oracle.
    pub check_every: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// §5.1 groups over a paper dataset: `n` points in an MBR covering
    /// `area` of the workspace.
    Euclid {
        dataset: Dataset,
        n: usize,
        area: f64,
    },
    /// `RoadNetwork::grid(side, side, 0.25, _)` with a tenth of the
    /// vertices as data objects; every pooled trip group is distinct.
    Roads { side: usize },
}

pub const EMBED_SMALL: Shape = Shape {
    data: Data::Euclid {
        dataset: Dataset::Ts,
        n: 4,
        area: 0.08,
    },
    per_second: 10_500.0,
    k: 8,
    check_every: 16,
};

pub const EMBED_LARGE: Shape = Shape {
    data: Data::Euclid {
        dataset: Dataset::Pp,
        n: 256,
        area: 0.08,
    },
    per_second: 4_200.0,
    k: 8,
    check_every: 16,
};

/// Side of the road grid (`ROAD_GRID_SIDE`² vertices).
pub const ROAD_GRID_SIDE: usize = 96;

pub const NETWORK_TRIPS: Shape = Shape {
    data: Data::Roads {
        side: ROAD_GRID_SIDE,
    },
    per_second: 830.0,
    k: 4,
    check_every: 4,
};

/// The road grid and its data objects are data, not traffic: fixed.
pub const ROADS_SEED: u64 = 20_040_303;

/// Seed of every workload's request pool (the pool is fixed; `--seed`
/// orders it).
pub const POOL_SEED: u64 = 20_040_304;

pub fn data_vertices(side: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(ROADS_SEED);
    let mut all: Vec<u32> = (0..(side * side) as u32).collect();
    rng.shuffle(&mut all);
    all.truncate(side * side / 10);
    all.sort_unstable();
    all
}

/// The built system under test.
enum Built {
    Euclid {
        points: Vec<Point>,
        snapshot: sut::Snapshot,
    },
    Roads(Box<Roads>),
}

impl Built {
    fn build(data: Data) -> Built {
        match data {
            Data::Euclid { dataset, .. } => {
                let points = sut::dataset(dataset);
                let snapshot = sut::Tree::bulk_load(&points).freeze();
                Built::Euclid { points, snapshot }
            }
            Data::Roads { side, .. } => Built::Roads(Box::new(
                Roads::grid(side, side, 0.25, ROADS_SEED, &data_vertices(side)).0,
            )),
        }
    }

    fn runner(&self) -> Runner<'_> {
        match self {
            Built::Euclid { snapshot, .. } => Runner::single(snapshot),
            Built::Roads(roads) => Runner::network(roads),
        }
    }

    fn oracle(&self, request: &Request) -> Ranked {
        match self {
            Built::Euclid { points, .. } => sut::linear_scan(points, request),
            Built::Roads(roads) => sut::network_reference(roads, request),
        }
    }
}

/// The request pool of one run: the first `count` requests of the
/// workload's fixed stream, in the order `seed` puts them.
fn pool(shape: Shape, built: &Built, count: usize, seed: u64) -> Vec<Request> {
    let mut requests: Vec<Request> = match (shape.data, built) {
        (Data::Euclid { n, area, .. }, Built::Euclid { points, .. }) => {
            sut::uniform_groups(points, n, area, count, POOL_SEED)
                .into_iter()
                .map(|g| sut::request(g, shape.k, Agg::Sum, Pin::Auto))
                .collect()
        }
        (Data::Roads { .. }, Built::Roads(roads)) => roads
            .trip_groups(count, POOL_SEED)
            .into_iter()
            .map(|(points, sources)| sut::network_request(points, sources, shape.k, Pin::Auto))
            .collect(),
        _ => unreachable!("shape and built system disagree"),
    };
    SplitMix64::new(SplitMix64::new(seed).fork("order")).shuffle(&mut requests);
    requests
}

/// Whether `got` answers like `want`: distance bits equal rank by rank,
/// ids equal wherever the distance is not tied with a neighbouring rank.
pub fn same_answer(got: &Ranked, want: &Ranked) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).enumerate().all(|(i, (g, w))| {
            let tied = |r: &Ranked| {
                (i > 0 && r[i - 1].1 == r[i].1) || (i + 1 < r.len() && r[i + 1].1 == r[i].1)
            };
            g.1 == w.1 && (g.0 == w.0 || tied(want))
        })
}

pub fn run(shape: Shape, seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Inputs first (untimed): they need the data's extent / the road graph.
    let count = segment_size(shape.per_second, seconds);
    let requests = pool(shape, &Built::build(shape.data), count, seed);
    out.fingerprints
        .push(("requests", sut::fingerprint_requests(&requests)));

    let (built, setup_s) = repeat_setup(|| {
        let built = Built::build(shape.data);
        let mut runner = built.runner();
        for request in &requests[..WARM_UP_QUERIES] {
            std::hint::black_box(runner.execute(request).digest());
        }
        built
    });
    out.setup_s = setup_s;

    // Reference pass: every later pass must reproduce these digests; every
    // `check_every`-th answer is also compared with the oracle.
    let mut runner = built.runner();
    let mut reference: Vec<Digest> = Vec::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        let executed = runner.execute(request);
        reference.push(executed.digest());
        out.attempted += 1;
        if i % shape.check_every == 0 && !same_answer(&executed.ranked(), &built.oracle(request)) {
            out.failed += 1;
        }
    }
    let node_accesses: u64 = reference.iter().map(|d| d.node_accesses).sum();
    out.na_per_query = node_accesses as f64 / requests.len() as f64;

    let (mut failed, mut traced_segments) = (0u64, 0u64);
    out.segments = run_segments(trace, |traced| {
        let id_base = traced_segments * requests.len() as u64;
        traced_segments += u64::from(traced);
        let mut latency_ns = Vec::with_capacity(requests.len());
        let loop_start = Instant::now();
        for (i, request) in requests.iter().enumerate() {
            let t0 = Instant::now();
            let executed = runner.execute(request);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            latency_ns.push(ns);
            failed += u64::from(executed.digest() != reference[i]);
            if traced {
                let counts = executed.counts();
                let id = Some(id_base + i as u64);
                let span = tracer.record("core.execute_on", t0, t1, None, id);
                note_traced(&mut out.traced, tracer, span, ns, counts);
            }
        }
        Segment {
            traced,
            wall_ns: loop_start.elapsed().as_nanos() as u64,
            latency_ns,
            ops: requests.len() as u64,
            // Every digest was compared with the reference pass's.
            na_per_query: out.na_per_query,
            late_p99_ns: 0,
        }
    });
    out.peak_rss_mib = peak_rss_mib();
    out.attempted += (out.segments.len() * requests.len()) as u64;
    out.failed += failed;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_answer_tolerates_id_swaps_only_inside_ties() {
        let want: Ranked = vec![(1, 10), (2, 20), (3, 20), (4, 30)];
        assert!(same_answer(&want.clone(), &want));
        // Swapped ids inside the tie at distance 20: still the same answer.
        assert!(same_answer(
            &vec![(1, 10), (3, 20), (2, 20), (4, 30)],
            &want
        ));
        // A wrong id at a distinct distance, a wrong distance, a short list.
        assert!(!same_answer(
            &vec![(9, 10), (2, 20), (3, 20), (4, 30)],
            &want
        ));
        assert!(!same_answer(
            &vec![(1, 10), (2, 20), (3, 20), (4, 31)],
            &want
        ));
        assert!(!same_answer(&vec![(1, 10), (2, 20), (3, 20)], &want));
    }
}
