//! The per-layer ladder of the traced run: small fixed-work probes, one
//! group per layer, each timing calls into that layer's public functions
//! from outside. Probe inputs are fixed (they do not follow `--seed`): a
//! probe compares two versions of one layer, not two traffic samples.
//!
//! Isolated timings are the fastest of a fixed number of repetitions (per
//! query where a probe replays queries): a probe asks what one layer's code
//! costs with nothing beside it, and interference on a shared host only
//! ever adds time. Served probes report medians, like the workloads.

use crate::direct::{data_vertices, ROADS_SEED, ROAD_GRID_SIDE};
use crate::loadgen::{poisson_schedule, KeepAwake};
use crate::measure::{Segment, TracedTotals};
use crate::served::{
    contended_metrics, publishing_metrics, sequential_reference, serving_pool, LiveRig, PacedRig,
    Tracing, UpdateStream, K, LIVE_SHARDS, PACED_RATE_QPS,
};
use crate::stats::{median, percentile_sorted};
use crate::sut::{self, Agg, Dataset, Pin, Point, Request, Roads, Runner, Served, Snapshot, Tree};
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;

/// Seed of every probe input.
const PROBE_SEED: u64 = 0x6E6E_5052_4F42_4531;

/// The served probes' fixed sizes: requests of one paced phase, of one
/// saturated phase (the pool), and queries of one live segment.
const PACED_REQUESTS: usize = 2_000;
const SATURATED_REQUESTS: usize = 8_000;
const LIVE_QUERIES: usize = 8_192;

pub type Metrics = Vec<(&'static str, f64)>;

/// The fastest of `reps` runs of `work`, nanoseconds.
fn floor_ns(reps: usize, mut work: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// What replaying a request set through a runner costs per query.
struct Replay {
    us_per_query: f64,
    p50_us: f64,
    na_per_query: f64,
    settled_per_query: f64,
    relaxed_per_query: f64,
    shards_per_query: f64,
    single_shard_fraction: f64,
}

/// Replays `requests` `passes` times; per-query floors over the passes.
fn replay(runner: &mut Runner<'_>, requests: &[Request], passes: usize) -> Replay {
    let mut floors = vec![u64::MAX; requests.len()];
    let (mut na, mut settled, mut relaxed, mut shards, mut single) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for pass in 0..passes {
        for (request, floor) in requests.iter().zip(&mut floors) {
            let t0 = Instant::now();
            let executed = runner.execute(request);
            *floor = (*floor).min(t0.elapsed().as_nanos() as u64);
            if pass == 0 {
                let counts = executed.counts();
                na += counts.node_accesses;
                settled += counts.settled;
                relaxed += counts.relaxed;
                shards += u64::from(executed.shards_consulted);
                single += u64::from(executed.shards_consulted == 1);
            }
        }
    }
    let n = requests.len() as f64;
    let total: u64 = floors.iter().sum();
    floors.sort_unstable();
    Replay {
        us_per_query: total as f64 / n / 1e3,
        p50_us: percentile_sorted(&floors, 0.5) as f64 / 1e3,
        na_per_query: na as f64 / n,
        settled_per_query: settled as f64 / n,
        relaxed_per_query: relaxed as f64 / n,
        shards_per_query: shards as f64 / n,
        single_shard_fraction: single as f64 / n,
    }
}

fn uniform_requests(data: &[Point], n: usize, count: usize, agg: Agg, pin: Pin) -> Vec<Request> {
    sut::uniform_groups(data, n, 0.08, count, PROBE_SEED)
        .into_iter()
        .map(|g| sut::request(g, K, agg, pin))
        .collect()
}

/// `gnn-geom`: the padded `BatchKernels::auto()` entries over arrays shaped
/// like the kernel-bound workload (fan-out 50 spans, n = 256), nanoseconds
/// per element (per point–query pair for the group kernels).
fn geom(pp: &[Point], out: &mut Metrics) {
    let group = sut::uniform_groups(pp, 256, 0.08, 1, PROBE_SEED).remove(0);
    let mut arena = sut::KernelArena::new(pp, 64, 50, &group);
    let (spans, per_span, n) = (arena.spans(), arena.span_len(), arena.group_len());
    let elements = (spans * per_span) as f64;
    let mut time =
        |reps: usize, inner: usize, kernel: &mut dyn FnMut(&mut sut::KernelArena, usize) -> f64| {
            floor_ns(reps, || {
                for _ in 0..inner {
                    for s in 0..spans {
                        black_box(kernel(&mut arena, s));
                    }
                }
            }) / inner as f64
        };
    let rects = time(20, 64, &mut |a, s| a.rects_mindist_rect(s));
    let points = time(20, 64, &mut |a, s| a.points_dist_sq(s));
    let wsum = time(20, 1, &mut |a, s| a.points_wsum_multi(s));
    let max = time(20, 1, &mut |a, s| a.points_max_multi(s));
    out.push(("geom.rects_mindist_rect_ns_per_elem", rects / elements));
    out.push(("geom.points_dist_sq_ns_per_elem", points / elements));
    out.push((
        "geom.points_wsum_multi_ns_per_elem",
        wsum / (elements * n as f64),
    ));
    out.push((
        "geom.points_max_multi_ns_per_elem",
        max / (elements * n as f64),
    ));
}

/// `gnn-rtree` on TS: build, freeze, partition, page reads, and the write
/// path at the live workload's dirty fraction.
fn rtree(ts: &[Point], out: &mut Metrics) -> Snapshot {
    let mut tree = Tree::bulk_load(ts);
    let bulk = floor_ns(2, || tree = Tree::bulk_load(ts));
    let mut snapshot = tree.freeze();
    let freeze = floor_ns(3, || snapshot = tree.freeze());
    let partition = floor_ns(2, || {
        black_box(snapshot.partition(LIVE_SHARDS));
    });
    let pages = snapshot.pages() as f64;
    let read = floor_ns(5, || {
        black_box(snapshot.read_all_pages());
    });
    out.push(("rtree.bulk_load_ms", bulk / 1e6));
    out.push(("rtree.freeze_ms", freeze / 1e6));
    out.push(("rtree.partition_ms", partition / 1e6));
    out.push(("rtree.page_read_ns", read / pages));

    // Fresh uniform points in, oldest records out, until the share of dirty
    // pages the refresh policy publishes at; then the isolated refreeze.
    let mut updates = UpdateStream::new(ts.to_vec(), PROBE_SEED);
    let (mut insert_ns, mut remove_ns, mut inserts, mut removes) = (0u64, 0u64, 0u64, 0u64);
    while tree.dirty_fraction(&snapshot) < crate::served::DIRTY_FRACTION {
        for _ in 0..64 {
            let t0 = Instant::now();
            match updates.next_op() {
                crate::served::UpdateOp::Insert { id, point } => {
                    tree.insert(id, point);
                    insert_ns += t0.elapsed().as_nanos() as u64;
                    inserts += 1;
                }
                crate::served::UpdateOp::Remove { id, point } => {
                    black_box(tree.remove(id, point));
                    remove_ns += t0.elapsed().as_nanos() as u64;
                    removes += 1;
                }
            }
        }
    }
    let refreeze = floor_ns(3, || {
        black_box(tree.refreeze(&snapshot));
    });
    out.push((
        "rtree.insert_us_per_op",
        insert_ns as f64 / inserts as f64 / 1e3,
    ));
    out.push((
        "rtree.remove_us_per_op",
        remove_ns as f64 / removes as f64 / 1e3,
    ));
    out.push(("rtree.refreeze_ms", refreeze / 1e6));
    snapshot
}

/// `gnn-core`: the paper's three algorithms pinned on the tree-bound
/// workload's groups, MAX/MIN on the kernel-bound workload's groups, the
/// sharded target and the batch executor on the serving mix.
fn core(ts: &[Point], ts_snapshot: &Snapshot, pp: &[Point], out: &mut Metrics) {
    let mut single = Runner::single(ts_snapshot);
    // SPM and MQM read ~15 times the pages MBM does on these groups (the
    // paper's fig. 5.1 at n = 4), so they replay a prefix of MBM's set.
    for (pin, count, us, na) in [
        (
            Pin::Mbm,
            768,
            "core.mbm_us_per_query",
            "core.mbm_na_per_query",
        ),
        (
            Pin::Spm,
            96,
            "core.spm_us_per_query",
            "core.spm_na_per_query",
        ),
        (
            Pin::Mqm,
            96,
            "core.mqm_us_per_query",
            "core.mqm_na_per_query",
        ),
    ] {
        let requests = uniform_requests(ts, 4, count, Agg::Sum, pin);
        let cost = replay(&mut single, &requests, 2);
        out.push((us, cost.us_per_query));
        out.push((na, cost.na_per_query));
    }

    let pp_snapshot = Tree::bulk_load(pp).freeze();
    let mut pp_runner = Runner::single(&pp_snapshot);
    for (agg, name) in [
        (Agg::Max, "core.max_us_per_query"),
        (Agg::Min, "core.min_us_per_query"),
    ] {
        let requests = uniform_requests(pp, 256, 512, agg, Pin::Auto);
        out.push((name, replay(&mut pp_runner, &requests, 2).us_per_query));
    }

    let mix = serving_pool(ts, 1_024, PROBE_SEED);
    let sharded_snapshot = ts_snapshot.partition(LIVE_SHARDS);
    let sharded = replay(&mut Runner::sharded(&sharded_snapshot), &mix, 2);
    out.push(("core.sharded_execute_us_p50", sharded.p50_us));
    out.push(("core.shards_consulted_per_query", sharded.shards_per_query));
    out.push(("core.single_shard_fraction", sharded.single_shard_fraction));

    let (mut unique, mut sequential) = (0u64, 0u64);
    let batch_ns = floor_ns(2, || {
        (unique, sequential) = (0, 0);
        for batch in mix.chunks(16) {
            let (u, s) = single.execute_batch(batch, |_, digest| {
                black_box(digest);
            });
            unique += u;
            sequential += s;
        }
    });
    out.push(("core.batch_us_per_query", batch_ns / mix.len() as f64 / 1e3));
    out.push((
        "core.batch_page_savings",
        1.0 - unique as f64 / sequential.max(1) as f64,
    ));
}

/// `gnn-network`: IER and TA pinned on trip groups over the road grid.
fn network(out: &mut Metrics) {
    let side = ROAD_GRID_SIDE;
    let (roads, freeze) = Roads::grid(side, side, 0.25, ROADS_SEED, &data_vertices(side));
    out.push(("network.freeze_ms", freeze.as_secs_f64() * 1e3));
    let groups = roads.trip_groups(128, PROBE_SEED);
    let mut runner = Runner::network(&roads);
    for (pin, name) in [
        (Pin::NetworkTa, "network.ta_us_per_query"),
        (Pin::NetworkIer, "network.ier_us_per_query"),
    ] {
        let requests: Vec<Request> = groups
            .iter()
            .map(|(points, sources)| sut::network_request(points.clone(), sources.clone(), 4, pin))
            .collect();
        let cost = replay(&mut runner, &requests, 2);
        out.push((name, cost.us_per_query));
        if pin == Pin::NetworkIer {
            out.push(("network.settled_per_query", cost.settled_per_query));
            out.push(("network.relaxed_per_query", cost.relaxed_per_query));
            out.push(("network.rtree_accesses_per_query", cost.na_per_query));
        }
    }
}

/// The fixed ladder of offered rates for `service.sustained_rate_qps`.
const RATE_LADDER_QPS: [f64; 8] = [
    2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0, 14_000.0, 16_000.0,
];
/// Seconds offered at each rung, the latency limit on p90, and the backlog
/// (as seconds of arrivals) tolerated when the last request goes out.
const RUNG_SECONDS: f64 = 0.4;
const RATE_LIMIT_P90_NS: u64 = 1_000_000;
const RATE_BACKLOG_SECONDS: f64 = 0.01;

/// Why the ladder of the served round trip did not reconcile.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderMismatch {
    /// Share of traced requests whose service-reported `queue wait +
    /// execution` exceeded the round trip the generator observed.
    pub overshooting: f64,
}

/// The ladder `queue wait + execution + reply` sums to each request's round
/// trip by construction (`reply` is the remainder), provided the service's
/// own stage clocks never claim more than the round trip observed from
/// outside. At most this share of requests may break that (clock
/// granularity aside).
pub const LADDER_OVERSHOOT_LIMIT: f64 = 0.01;
/// Slack for the two clocks' granularity, microseconds.
const LADDER_SLACK_US: f64 = 1.0;

/// `gnn-service` and `gnn-telemetry` on the paced workload's shape: the
/// round-trip ladder from a traced paced phase, the sustained-rate ladder,
/// and what the flight recorder costs.
fn service(pp: &[Point], tracer: &mut Tracer, out: &mut Metrics) -> Result<(), LadderMismatch> {
    let snapshot = Tree::bulk_load(pp).freeze();
    let requests = serving_pool(pp, SATURATED_REQUESTS, PROBE_SEED);
    let traced_requests: Vec<Request> = requests.iter().map(sut::with_stage_trace).collect();
    let reference = sequential_reference(pp, &requests);
    let service = Served::start(&snapshot, 1);
    let rig = PacedRig {
        service: &service,
        requests: &requests,
        traced_requests: &traced_requests,
        reference: &reference,
    };
    black_box(rig.saturated_phase(None)); // warm-up
    let awake = KeepAwake::start(); // as on `serve_paced_small`

    // The ladder: two traced paced phases into a tracer of the probe's own.
    // Per request, the benchmark's spans (`request` from due time to reply
    // observed, `service.submit` around the call) and the service's own
    // stage timings, riding on the `request` span as counts.
    let schedule = poisson_schedule(PACED_RATE_QPS, PACED_REQUESTS, PROBE_SEED);
    let mut totals = TracedTotals::default();
    let mut spans = Tracer::new();
    let before = service.counters();
    let t0 = Instant::now();
    let mut phases = Vec::new();
    for phase in 0..2 {
        let tracing = Tracing {
            tracer: &mut spans,
            totals: &mut totals,
            id_base: phase * PACED_REQUESTS as u64,
        };
        phases.push(rig.paced_phase(&schedule, Some(tracing)));
    }
    let wall = t0.elapsed();
    let after = service.counters();
    let us = |ns: Vec<u64>| ns.into_iter().map(|v| v as f64 / 1e3).collect::<Vec<f64>>();
    let submit = us(spans.durations("service.submit"));
    let queue = us(spans.counts("request", "queue_wait_ns"));
    let exec = us(spans.counts("request", "execution_ns"));
    // A request's self time is what its children do not cover: the wait
    // from its due time until the generator entered `submit`.
    let late = us(spans.self_times("request"));
    let trip: Vec<f64> = us(spans.durations("request"))
        .iter()
        .zip(&late)
        .map(|(d, l)| d - l)
        .collect();
    let rest = |i: usize, taken: f64| (trip[i] - taken).max(0.0);
    let reply: Vec<f64> = (0..trip.len())
        .map(|i| rest(i, queue[i] + exec[i]))
        .collect();
    let overhead: Vec<f64> = (0..trip.len()).map(|i| rest(i, exec[i])).collect();
    let round_trip_us = median(&trip);
    let overshooting = (0..trip.len())
        .filter(|&i| queue[i] + exec[i] > trip[i] + LADDER_SLACK_US)
        .count() as f64
        / trip.len() as f64;
    out.push(("service.submit_us_p50", median(&submit)));
    out.push(("service.queue_wait_us_p50", median(&queue)));
    out.push(("service.execution_us_p50", median(&exec)));
    out.push(("service.reply_us_p50", median(&reply)));
    out.push(("service.overhead_us_p50", median(&overhead)));
    out.push(("service.round_trip_us_p50", round_trip_us));
    // Medians of skewed parts do not add: how far their sum falls from the
    // median round trip is reported, not required.
    let parts_us = median(&queue) + median(&exec) + median(&reply);
    out.push((
        "service.ladder_gap_ratio",
        (round_trip_us - parts_us).abs() / round_trip_us,
    ));
    let mut late_sorted = spans.self_times("request");
    late_sorted.sort_unstable();
    out.push((
        "service.generator_late_us_p99",
        percentile_sorted(&late_sorted, 0.99) as f64 / 1e3,
    ));
    tracer.absorb(spans);
    let busy = (after.busy - before.busy).as_secs_f64();
    out.push((
        "service.worker_busy_fraction",
        busy / (wall.as_secs_f64() * after.workers as f64),
    ));
    let tail = |q: f64| {
        let per_phase: Vec<f64> = phases
            .iter()
            .map(|p| {
                let mut sorted = p.latency_ns.clone();
                sorted.sort_unstable();
                percentile_sorted(&sorted, q) as f64 / 1e3
            })
            .collect();
        median(&per_phase)
    };
    out.push(("service.latency_p99_us", tail(0.99)));
    out.push(("service.latency_p999_us", tail(0.999)));

    // The highest rung whose p90 stays under the limit without a backlog
    // left when its last request goes out.
    let mut sustained = 0.0;
    for rate in RATE_LADDER_QPS {
        let count = (rate * RUNG_SECONDS) as usize;
        let schedule = poisson_schedule(rate, count, PROBE_SEED);
        let mut phase = rig.paced_phase(&schedule, None);
        phase.latency_ns.sort_unstable();
        let meets = percentile_sorted(&phase.latency_ns, 0.9) <= RATE_LIMIT_P90_NS
            && (phase.backlog_at_end as f64) <= rate * RATE_BACKLOG_SECONDS;
        if !meets {
            break;
        }
        sustained = rate;
    }
    out.push(("service.sustained_rate_qps", sustained));

    // Telemetry: the saturated phase with the flight recorder off over the
    // same phase with the default ring, alternated.
    let quiet = Served::start_without_flight_recorder(&snapshot, 1);
    let quiet_rig = PacedRig {
        service: &quiet,
        ..rig
    };
    black_box(quiet_rig.saturated_phase(None));
    let mut wall_ns = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (which, r) in [&rig, &quiet_rig].into_iter().enumerate() {
            wall_ns[which].push(r.saturated_phase(None).wall_ns as f64);
        }
    }
    // Both sides complete the same pool: throughputs compare as wall times.
    let [with_recorder, without] = wall_ns.map(|walls| median(&walls));
    out.push(("telemetry.overhead_ratio", with_recorder / without));
    out.push((
        "telemetry.flight_dropped",
        service.counters().flight_dropped as f64,
    ));
    drop(awake);
    quiet.shutdown();
    service.shutdown();

    let histogram = sut::Histogram::new();
    let record = floor_ns(5, || {
        (0..100_000u64).for_each(|i| histogram.record(1_000 + i * 37))
    });
    black_box(histogram.count());
    out.push(("telemetry.histogram_record_ns", record / 100_000.0));
    let recorder = sut::Recorder::new();
    let record = floor_ns(5, || (0..100_000u64).for_each(|i| recorder.record(i)));
    black_box(recorder.dropped());
    out.push(("telemetry.recorder_record_ns", record / 100_000.0));

    if overshooting > LADDER_OVERSHOOT_LIMIT {
        return Err(LadderMismatch { overshooting });
    }
    Ok(())
}

/// The write side beside reads: two contended phases of the live
/// workload's shape, then their timings and what the driver and the
/// service recorded about publishing.
fn live(ts: &[Point], out: &mut Metrics) {
    let requests = serving_pool(ts, LIVE_QUERIES, PROBE_SEED);
    let mut updates = UpdateStream::new(ts.to_vec(), PROBE_SEED);
    let mut rig = LiveRig::start(ts);
    let mut generations = [0u64; LIVE_SHARDS];
    let contended: Vec<Segment> = (0..2)
        .map(|_| {
            rig.contended_phase(&requests, &mut updates, &mut generations, None)
                .into_segment(false)
        })
        .collect();
    out.extend(contended_metrics(&contended));
    let counters = rig.service.counters();
    if let Some(joined) = rig.join_driver() {
        out.extend(publishing_metrics(&joined, &counters));
    }
}

/// Runs every probe. Spans of the served ladder go to `tracer`.
/// `with_live` is false on `serve_live_updates`, whose own run reports the
/// publishing figures the live probe would.
pub fn run(tracer: &mut Tracer, with_live: bool) -> (Metrics, Result<(), LadderMismatch>) {
    let mut out = Metrics::new();
    let pp = sut::dataset(Dataset::Pp);
    let ts = sut::dataset(Dataset::Ts);
    geom(&pp, &mut out);
    let ts_snapshot = rtree(&ts, &mut out);
    core(&ts, &ts_snapshot, &pp, &mut out);
    drop(ts_snapshot);
    network(&mut out);
    let ladder = service(&pp, tracer, &mut out);
    if with_live {
        live(&ts, &mut out);
    }
    (out, ladder)
}
