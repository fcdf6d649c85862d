//! The two serving workloads, driven through `Service::submit`.
//!
//! * `serve_paced_small` — PP behind one worker, small hotspot groups.
//!   Execution is a few tens of microseconds, so queue, wake-up, reply
//!   allocation, clocks and telemetry are most of the round trip. Open
//!   loop for latency, closed window for throughput.
//! * `serve_live_updates` — TS in two shards behind one worker each, with a
//!   `RefreshDriver` applying inserts and removes, refreezing and
//!   publishing beside the reads. That contended phase wants more than the
//!   host's two cores, so its timings are diagnostics; the gating timings
//!   come from a settled pass over each generation it leaves behind.
//!
//! Request pools and the update stream are fixed; `--seed` decides the
//! order requests are issued in and the arrival schedule.

use crate::direct::POOL_SEED;
use crate::loadgen::{poisson_schedule, run_closed, run_paced, Collect, Done, KeepAwake, Server};
use crate::measure::{
    note_traced, peak_rss_mib, repeat_setup, run_segments, segment_size, Outcome, Segment,
    TracedTotals,
};
use crate::rng::{Fnv1a, SplitMix64};
use crate::stats::percentile_sorted;
use crate::sut::{self, Agg, Dataset, Digest, Pin, Point, Request, Response, Runner, Served};
use crate::trace::Tracer;
use std::time::Instant;

pub const K: usize = 8;
/// Group sizes of the serving mix, equally likely.
const GROUP_SIZES: [usize; 5] = [2, 4, 8, 16, 32];
/// Query MBR area of the serving mix (share of the workspace).
const AREA: f64 = 0.02;
const WARM_UP_QUERIES: usize = 256;

/// `serve_paced_small`: the paced phase's arrival rate and its share of a
/// segment's time, then the saturated phase's completions per second of
/// run time and its window.
pub const PACED_RATE_QPS: f64 = 4_000.0;
const PACED_SHARE: f64 = 0.7;
const SATURATED_PER_SECOND: f64 = 11_000.0;
const SATURATED_WINDOW: usize = 32;

/// Requests of one paced phase / one saturated phase (the whole pool).
fn paced_requests(seconds: f64) -> usize {
    segment_size(PACED_RATE_QPS * PACED_SHARE, seconds)
}

fn saturated_requests(seconds: f64) -> usize {
    segment_size(SATURATED_PER_SECOND, seconds).max(paced_requests(seconds))
}

/// `serve_live_updates`: queries per second of run time of the contended
/// phase and of the settled pass behind it, the contended phase's
/// outstanding window, one update per this many queries, and the refresh
/// policy.
const LIVE_PER_SECOND: f64 = 4_000.0;
const SETTLED_PER_SECOND: f64 = 6_000.0;
const LIVE_WINDOW: usize = 4;
const QUERIES_PER_UPDATE: usize = 4;
pub const LIVE_SHARDS: usize = 2;
pub const DIRTY_FRACTION: f64 = 0.05;
const MAX_PENDING: usize = 512;

/// Requests of one contended phase / one settled pass (the whole pool).
fn live_requests(seconds: f64) -> usize {
    segment_size(LIVE_PER_SECOND, seconds)
}

fn settled_requests(seconds: f64) -> usize {
    segment_size(SETTLED_PER_SECOND, seconds).max(live_requests(seconds))
}

/// Seed of the update stream: fixed, so the final tree — and the node
/// accesses counted on it — do not move with `--seed`.
const UPDATE_SEED: u64 = 20_040_305;
/// Fresh points prepared for the insert stream (cycled with new ids if a
/// run outlasts them).
const FRESH_POINTS: usize = 65_536;
/// Brute-force and point-lookup checks after the driver is joined.
const FINAL_SCANS: usize = 128;
const FINAL_LOOKUPS: usize = 256;

/// Separate hotspot draws per group size. One draw places 16 hotspots, the
/// most popular of which carries 30 % of its traffic, so a single draw
/// makes the mix as hard as the spot its top hotspot happens to land on
/// (measured: 15 % run-to-run spread across seeds on TS). Sixteen draws per
/// size keep "which places are popular" seed-dependent and the difficulty
/// of the mix steady.
const HOTSPOT_DRAWS: usize = 16;

/// The serving mix: `count` hotspot groups (16 Zipf hotspots per draw,
/// σ = 0.03, 20 % background, M = 2 %), sizes drawn evenly from
/// [`GROUP_SIZES`], deterministically shuffled. `seed` names the pool.
pub fn serving_pool(data: &[Point], count: usize, seed: u64) -> Vec<Request> {
    let rng = SplitMix64::new(seed);
    let per_draw = count.div_ceil(GROUP_SIZES.len() * HOTSPOT_DRAWS);
    let mut requests: Vec<Request> = GROUP_SIZES
        .iter()
        .flat_map(|&n| (0..HOTSPOT_DRAWS).map(move |draw| (n, draw)))
        .flat_map(|(n, draw)| {
            let label = format!("hotspots-n{n}-draw{draw}");
            sut::hotspot_groups(data, n, AREA, per_draw, rng.fork(&label))
        })
        .map(|g| sut::request(g, K, Agg::Sum, Pin::Auto))
        .collect();
    SplitMix64::new(rng.fork("shuffle")).shuffle(&mut requests);
    requests.truncate(count);
    requests
}

/// `pool` in the order `seed` issues it in.
fn issue_order(pool: &[Request], seed: u64) -> Vec<Request> {
    let mut ordered = pool.to_vec();
    SplitMix64::new(SplitMix64::new(seed).fork("order")).shuffle(&mut ordered);
    ordered
}

/// The real service behind the generator's [`Server`] interface. Requests
/// are cloned ahead of each phase so `submit` spans hold the service's
/// work only.
pub struct Front<'a> {
    service: &'a Served,
    staged: Vec<Option<Request>>,
}

impl<'a> Front<'a> {
    pub fn new(service: &'a Served) -> Self {
        Front {
            service,
            staged: Vec::new(),
        }
    }

    /// Clones `pool` for the next phase (each index is submitted once).
    pub fn stage(&mut self, pool: &[Request]) {
        self.staged.clear();
        self.staged.extend(pool.iter().cloned().map(Some));
    }
}

impl Server for Front<'_> {
    type Handle = sut::Handle;
    type Reply = Response;

    #[inline]
    fn submit(&mut self, index: usize) -> Option<sut::Handle> {
        let request = self.staged[index]
            .take()
            .expect("each index is staged once a phase");
        self.service.submit(request)
    }

    #[inline]
    fn poll(&mut self, handle: &mut sut::Handle) -> Option<Option<Response>> {
        sut::poll(handle)
    }

    #[inline]
    fn wait(&mut self, handle: sut::Handle) -> Option<Response> {
        sut::wait(handle)
    }
}

/// What one phase of served traffic observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency on the phase's clock, by submission order.
    pub latency_ns: Vec<u64>,
    /// Generator lateness, by submission order (open loop only).
    pub late_ns: Vec<u64>,
    /// Wall time of the phase, first submission to last reply.
    pub wall_ns: u64,
    pub completed: u64,
    pub failed: u64,
    pub node_accesses: u64,
    /// Outstanding requests when the last one was submitted (open loop).
    pub backlog_at_end: usize,
}

impl Phase {
    fn sized(requests: usize) -> Phase {
        Phase {
            latency_ns: vec![0; requests],
            late_ns: vec![0; requests],
            ..Phase::default()
        }
    }

    pub fn late_p99_ns(&self) -> u64 {
        let mut sorted = self.late_ns.clone();
        sorted.sort_unstable();
        percentile_sorted(&sorted, 0.99)
    }

    /// The phase as a segment whose latency and throughput phases are both
    /// this one.
    pub fn into_segment(self, traced: bool) -> Segment {
        Segment {
            traced,
            late_p99_ns: self.late_p99_ns(),
            na_per_query: self.node_accesses as f64 / self.completed as f64,
            wall_ns: self.wall_ns,
            ops: self.completed,
            latency_ns: self.latency_ns,
        }
    }
}

/// Where traced phases put their spans and totals.
pub struct Tracing<'a> {
    pub tracer: &'a mut Tracer,
    pub totals: &'a mut TracedTotals,
    /// Added to a request's position in its phase to form its identifier,
    /// so the phases of one segment do not share identifiers.
    pub id_base: u64,
}

/// Folds one completion into `phase`; `verdict` judges the reply. With
/// tracing on, records the request's spans: `request` (clock start to
/// reply observed) over `service.submit` and `service.reply_wait`, carrying
/// the service's own queue-wait and execution times as counts.
fn note_done(
    phase: &mut Phase,
    done: &Done<Response>,
    tracing: &mut Option<Tracing<'_>>,
    verdict: impl FnOnce(&Response) -> bool,
) {
    phase.latency_ns[done.seq] = done.latency_ns();
    phase.late_ns[done.seq] = done.late_ns();
    phase.completed += 1;
    let Some(response) = &done.reply else {
        phase.failed += 1;
        return;
    };
    phase.failed += u64::from(!verdict(response));
    let counts = sut::response_counts(response);
    phase.node_accesses += counts.node_accesses;
    if let Some(Tracing {
        tracer,
        totals,
        id_base,
    }) = tracing
    {
        let id = Some(*id_base + done.seq as u64);
        let root = tracer.record("request", done.clock_start, done.observed, None, id);
        tracer.record(
            "service.submit",
            done.submit_start,
            done.submit_end,
            Some(root),
            id,
        );
        tracer.record(
            "service.reply_wait",
            done.submit_end,
            done.observed,
            Some(root),
            id,
        );
        let (queue_wait, execution) = sut::response_stages(response).unwrap_or_default();
        tracer.count(root, "queue_wait_ns", queue_wait);
        tracer.count(root, "execution_ns", execution);
        note_traced(totals, tracer, root, execution, counts);
    }
}

/// One service with its request pool and the sequential reference every
/// reply must reproduce bit for bit.
#[derive(Clone, Copy)]
pub struct PacedRig<'a> {
    pub service: &'a Served,
    pub requests: &'a [Request],
    /// The same requests with the per-query stage trace switched on.
    pub traced_requests: &'a [Request],
    pub reference: &'a [Digest],
}

impl PacedRig<'_> {
    fn pool(&self, traced: bool) -> &[Request] {
        if traced {
            self.traced_requests
        } else {
            self.requests
        }
    }

    /// Open loop over the first `schedule_ns.len()` requests.
    pub fn paced_phase(&self, schedule_ns: &[u64], mut tracing: Option<Tracing<'_>>) -> Phase {
        let indices: Vec<usize> = (0..schedule_ns.len()).collect();
        let mut front = Front::new(self.service);
        front.stage(self.pool(tracing.is_some()));
        let mut phase = Phase::sized(indices.len());
        let (wall, backlog) = run_paced(&mut front, &indices, schedule_ns, |done| {
            note_done(&mut phase, &done, &mut tracing, |r| {
                sut::response_digest(r) == self.reference[done.index]
            });
        });
        phase.wall_ns = wall.as_nanos() as u64;
        phase.backlog_at_end = backlog;
        phase
    }

    /// Closed window of [`SATURATED_WINDOW`] over the whole pool, polling.
    pub fn saturated_phase(&self, mut tracing: Option<Tracing<'_>>) -> Phase {
        let indices: Vec<usize> = (0..self.requests.len()).collect();
        let mut front = Front::new(self.service);
        front.stage(self.pool(tracing.is_some()));
        let mut phase = Phase::sized(indices.len());
        let wall = run_closed(
            &mut front,
            &indices,
            SATURATED_WINDOW,
            Collect::Polling,
            |_| {},
            |done| {
                note_done(&mut phase, &done, &mut tracing, |r| {
                    sut::response_digest(r) == self.reference[done.index]
                });
            },
        );
        phase.wall_ns = wall.as_nanos() as u64;
        phase
    }
}

/// Runs `requests` through the service closed-loop, untimed.
fn warm_up(service: &Served, requests: &[Request]) {
    let mut front = Front::new(service);
    front.stage(requests);
    let indices: Vec<usize> = (0..requests.len()).collect();
    run_closed(
        &mut front,
        &indices,
        LIVE_WINDOW,
        Collect::Blocking,
        |_| {},
        |_| {},
    );
}

/// The sequential `execute_on` reference of `requests` over `data`.
pub fn sequential_reference(data: &[Point], requests: &[Request]) -> Vec<Digest> {
    let snapshot = sut::Tree::bulk_load(data).freeze();
    let mut runner = Runner::single(&snapshot);
    requests
        .iter()
        .map(|r| runner.execute(r).digest())
        .collect()
}

pub fn run_paced_small(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let data = sut::dataset(Dataset::Pp);
    let pool = serving_pool(&data, saturated_requests(seconds), POOL_SEED);
    let requests = issue_order(&pool, seed);
    let traced_requests: Vec<Request> = requests.iter().map(sut::with_stage_trace).collect();
    let schedule = poisson_schedule(
        PACED_RATE_QPS,
        paced_requests(seconds),
        SplitMix64::new(seed).fork("arrivals"),
    );
    let mut fp = Fnv1a::new();
    schedule.iter().for_each(|&t| fp.write_u64(t));
    out.fingerprints = vec![
        ("requests", sut::fingerprint_requests(&requests)),
        ("arrivals", fp.finish()),
    ];
    let reference = sequential_reference(&data, &requests);
    // Over the whole pool, so the order `--seed` chose does not matter.
    let node_accesses: u64 = reference.iter().map(|d| d.node_accesses).sum();
    out.na_per_query = node_accesses as f64 / reference.len() as f64;

    let (service, setup_s) = repeat_setup(|| {
        let snapshot = sut::Tree::bulk_load(&sut::dataset(Dataset::Pp)).freeze();
        let service = Served::start(&snapshot, 1);
        warm_up(&service, &requests[..WARM_UP_QUERIES]);
        service
    });
    out.setup_s = setup_s;

    let rig = PacedRig {
        service: &service,
        requests: &requests,
        traced_requests: &traced_requests,
        reference: &reference,
    };
    let mut next_id = 0u64;
    let awake = KeepAwake::start();
    out.segments = run_segments(trace, |traced| {
        let paced = rig.paced_phase(
            &schedule,
            traced.then_some(Tracing {
                tracer: &mut *tracer,
                totals: &mut out.traced,
                id_base: next_id,
            }),
        );
        next_id += schedule.len() as u64;
        let saturated = rig.saturated_phase(traced.then_some(Tracing {
            tracer: &mut *tracer,
            totals: &mut out.traced,
            id_base: next_id,
        }));
        next_id += requests.len() as u64;
        out.attempted += paced.completed + saturated.completed;
        out.failed += paced.failed + saturated.failed;
        Segment {
            traced,
            late_p99_ns: paced.late_p99_ns(),
            na_per_query: saturated.node_accesses as f64 / saturated.completed as f64,
            latency_ns: paced.latency_ns,
            wall_ns: saturated.wall_ns,
            ops: saturated.completed,
        }
    });
    drop(awake);
    out.peak_rss_mib = peak_rss_mib();
    service.shutdown();
    out
}

// ----------------------------------------------------------- live updates ----

/// The benchmark's own record of what the tree should hold: records leave
/// oldest-first (original ids ascending), fresh uniform points arrive with
/// new ids. Deterministic from the fresh-point array alone.
pub struct UpdateStream {
    data: Vec<Point>,
    fresh: Vec<Point>,
    /// Updates issued so far (even: insert, odd: remove the oldest record).
    issued: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateOp {
    Insert { id: u64, point: Point },
    Remove { id: u64, point: Point },
}

impl UpdateStream {
    pub fn new(data: Vec<Point>, seed: u64) -> Self {
        let fresh = sut::fresh_points(&data, FRESH_POINTS, seed);
        UpdateStream {
            data,
            fresh,
            issued: 0,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fnv1a::new();
        for p in &self.fresh {
            fp.write_f64(p.x);
            fp.write_f64(p.y);
        }
        fp.finish()
    }

    fn inserted(&self) -> u64 {
        self.issued.div_ceil(2)
    }

    fn removed(&self) -> u64 {
        self.issued / 2
    }

    fn fresh_entry(&self, nth: u64) -> (u64, Point) {
        (
            self.data.len() as u64 + nth,
            self.fresh[nth as usize % self.fresh.len()],
        )
    }

    /// The next update: inserts and removes alternate.
    pub fn next_op(&mut self) -> UpdateOp {
        let op = if self.issued.is_multiple_of(2) {
            let (id, point) = self.fresh_entry(self.inserted());
            UpdateOp::Insert { id, point }
        } else {
            let id = self.removed();
            assert!(
                (id as usize) < self.data.len(),
                "ran out of original records"
            );
            UpdateOp::Remove {
                id,
                point: self.data[id as usize],
            }
        };
        self.issued += 1;
        op
    }

    /// Every record the tree must hold after the updates issued so far.
    pub fn mirror(&self) -> Vec<(u64, Point)> {
        let kept = self.data.iter().enumerate().skip(self.removed() as usize);
        kept.map(|(i, &p)| (i as u64, p))
            .chain((0..self.inserted()).map(|nth| self.fresh_entry(nth)))
            .collect()
    }
}

/// The live system: service, its refresh driver, and the update stream.
pub struct LiveRig {
    // Field order is drop order: the driver must go before the service.
    driver: Option<sut::Refresher>,
    pub service: Served,
}

impl LiveRig {
    pub fn start(data: &[Point]) -> LiveRig {
        let tree = sut::ShardedArena::build(data, LIVE_SHARDS);
        let service = Served::start_sharded(&tree.freeze_all());
        let driver = sut::Refresher::start(tree, &service, DIRTY_FRACTION, MAX_PENDING);
        LiveRig {
            driver: Some(driver),
            service,
        }
    }

    fn driver(&self) -> &sut::Refresher {
        self.driver.as_ref().expect("driver runs until joined")
    }

    fn apply(&self, op: UpdateOp) -> bool {
        match op {
            UpdateOp::Insert { id, point } => self.driver().insert(id, point),
            UpdateOp::Remove { id, point } => self.driver().remove(id, point),
        }
    }

    /// The contended phase: `requests` through a closed window of
    /// [`LIVE_WINDOW`] with blocking waits (so the generator does not take
    /// a core from the driver), one update fed per [`QUERIES_PER_UPDATE`]
    /// submissions. Every reply must hold `K` sorted neighbours, and
    /// generations must not go backwards within a shard's pool.
    pub fn contended_phase(
        &self,
        requests: &[Request],
        updates: &mut UpdateStream,
        generations: &mut [u64; LIVE_SHARDS],
        mut tracing: Option<Tracing<'_>>,
    ) -> Phase {
        let indices: Vec<usize> = (0..requests.len()).collect();
        let mut front = Front::new(&self.service);
        front.stage(requests);
        let mut phase = Phase::sized(indices.len());
        let mut refused = 0u64;
        let wall = run_closed(
            &mut front,
            &indices,
            LIVE_WINDOW,
            Collect::Blocking,
            |seq| {
                if seq % QUERIES_PER_UPDATE == 0 {
                    refused += u64::from(!self.apply(updates.next_op()));
                }
            },
            |done| {
                note_done(&mut phase, &done, &mut tracing, |r| {
                    let pool = sut::response_primary_shard(r) as usize % LIVE_SHARDS;
                    let generation = sut::response_generation(r);
                    let forward = generation >= generations[pool];
                    generations[pool] = generations[pool].max(generation);
                    forward && sut::response_is_sorted_k(r, K)
                });
            },
        );
        phase.wall_ns = wall.as_nanos() as u64;
        phase.failed += refused;
        phase
    }

    /// The settled pass: once the driver has applied all `issued` updates
    /// and gone idle, this thread runs `requests` through
    /// `execute_on(Target::Sharded)` over the generation the service
    /// publishes. One busy thread, nothing beside it — the part of the
    /// workload that repeats on a shared two-core host. Every answer must
    /// hold `K` sorted neighbours. Returns each request's latency, the wall
    /// time of the loop, and the answers that failed.
    pub fn settled_pass(
        &self,
        requests: &[Request],
        issued: u64,
        mut spans: Option<(&mut Tracer, u64)>,
    ) -> (Vec<u64>, u64, u64) {
        while self.driver().applied() < issued {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let snapshot = self.service.sharded_snapshot();
        let mut runner = Runner::sharded(&snapshot);
        let mut latency_ns = Vec::with_capacity(requests.len());
        let mut failed = 0u64;
        let loop_start = Instant::now();
        for (i, request) in requests.iter().enumerate() {
            let t0 = Instant::now();
            let executed = runner.execute(request);
            let t1 = Instant::now();
            latency_ns.push((t1 - t0).as_nanos() as u64);
            let ranked = executed.ranked();
            failed += u64::from(ranked.len() != K || !ranked.windows(2).all(|w| w[0].1 <= w[1].1));
            if let Some((tracer, id_base)) = &mut spans {
                let counts = executed.counts();
                let id = Some(*id_base + i as u64);
                let span = tracer.record("core.execute_on", t0, t1, None, id);
                tracer.count(span, "node_accesses", counts.node_accesses);
                tracer.count(span, "dist_evals", counts.dist_evals);
            }
        }
        (latency_ns, loop_start.elapsed().as_nanos() as u64, failed)
    }

    /// Joins the driver (which flushes a final publish) and returns its
    /// outcome (`None` when it failed or was joined before); the service
    /// keeps serving the final generation.
    pub fn join_driver(&mut self) -> Option<sut::RefreshOutcome> {
        self.driver.take().and_then(sut::Refresher::join)
    }
}

impl Drop for LiveRig {
    fn drop(&mut self) {
        self.join_driver();
    }
}

/// What the driver and the service recorded about publishing: the live
/// `refreeze_all` time and trigger per cycle (`PublishRecord`), the gap from
/// refreeze end to the `Published` flight event, and the fault ledger.
pub fn publishing_metrics(
    joined: &sut::RefreshOutcome,
    counters: &sut::ServiceCounters,
) -> Vec<(&'static str, f64)> {
    let refreeze_ms: Vec<f64> = joined
        .cycles
        .iter()
        .map(|c| c.0.as_secs_f64() * 1e3)
        .collect();
    let dirty: Vec<f64> = joined.cycles.iter().map(|c| c.1).collect();
    let gaps_us: Vec<f64> = counters
        .publish_gaps_ns
        .iter()
        .map(|&g| g as f64 / 1e3)
        .collect();
    let median = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(v)
        }
    };
    vec![
        ("service.refreeze_live_ms_p50", median(&refreeze_ms)),
        ("rtree.dirty_fraction_at_publish", median(&dirty)),
        ("service.publish_us_p50", median(&gaps_us)),
        ("service.publishes", joined.published as f64),
        ("service.shed", counters.shed as f64),
        ("service.panics", counters.panics as f64),
    ]
}

/// The contended phase's timings, medians over its segments: what the
/// generator saw while reads, writes and refreezes shared two cores.
pub fn contended_metrics(contended: &[Segment]) -> Vec<(&'static str, f64)> {
    let over = |f: &dyn Fn(&Segment) -> f64| {
        crate::stats::median(&contended.iter().map(f).collect::<Vec<_>>())
    };
    vec![
        (
            "service.live_throughput_qps",
            over(&Segment::throughput_qps),
        ),
        (
            "service.live_latency_p50_us",
            over(&|s| s.percentile_ns(0.5) as f64 / 1e3),
        ),
        (
            "service.live_latency_p90_us",
            over(&|s| s.percentile_ns(0.9) as f64 / 1e3),
        ),
    ]
}

pub fn run_live_updates(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let data = sut::dataset(Dataset::Ts);
    let fixed = serving_pool(&data, settled_requests(seconds), POOL_SEED);
    let requests = issue_order(&fixed, seed);
    let traced_requests: Vec<Request> = requests.iter().map(sut::with_stage_trace).collect();
    let mut updates = UpdateStream::new(data.clone(), UPDATE_SEED);
    out.fingerprints = vec![
        ("requests", sut::fingerprint_requests(&requests)),
        ("updates", updates.fingerprint()),
    ];

    let (mut rig, setup_s) = repeat_setup(|| {
        let rig = LiveRig::start(&sut::dataset(Dataset::Ts));
        warm_up(&rig.service, &requests[..WARM_UP_QUERIES]);
        rig
    });
    out.setup_s = setup_s;

    let live = live_requests(seconds);
    let (mut generations, mut next_id) = ([0u64; LIVE_SHARDS], 0u64);
    let mut contended = Vec::new();
    out.segments = run_segments(trace, |traced| {
        let pool = if traced { &traced_requests } else { &requests };
        let tracing = traced.then_some(Tracing {
            tracer: &mut *tracer,
            totals: &mut out.traced,
            id_base: next_id,
        });
        let phase = rig.contended_phase(&pool[..live], &mut updates, &mut generations, tracing);
        next_id += live as u64;
        let spans = traced.then_some((&mut *tracer, next_id));
        let (latency_ns, wall_ns, unsorted) = rig.settled_pass(&requests, updates.issued, spans);
        next_id += requests.len() as u64;
        out.attempted +=
            phase.completed + (live.div_ceil(QUERIES_PER_UPDATE) + requests.len()) as u64;
        out.failed += phase.failed + unsorted;
        let phase = phase.into_segment(traced);
        let settled = Segment {
            traced,
            late_p99_ns: 0,
            // The live count depends on which generation each query met: a
            // diagnostic, kept with the segment.
            na_per_query: phase.na_per_query,
            wall_ns,
            ops: requests.len() as u64,
            latency_ns,
        };
        contended.push(phase);
        settled
    });
    out.peak_rss_mib = peak_rss_mib();

    // No update may be lost: the driver applied everything it was sent,
    // and the final generation answers like a scan of the mirror.
    let mid_run = rig.service.counters();
    let joined = rig.join_driver();
    let mirror = updates.mirror();
    let consistent = joined.as_ref().is_some_and(|o| {
        o.applied == updates.issued && o.missed_removes == 0 && o.final_len == mirror.len()
    });
    out.attempted += 1;
    out.failed += u64::from(!consistent);
    let mut front = Front::new(&rig.service);
    let lookups: Vec<Request> = (0..updates.inserted().min(FINAL_LOOKUPS as u64))
        .map(|back| updates.fresh_entry(updates.inserted() - 1 - back).1)
        .map(|point| sut::request(vec![point], 1, Agg::Sum, Pin::Auto))
        .collect();
    // The scans come from the pool before `--seed` ordered it: the same
    // queries over the same final tree on every run, so their node
    // accesses are the workload's exact `node_accesses_per_query`.
    let checks: Vec<Request> = fixed[..FINAL_SCANS]
        .iter()
        .cloned()
        .chain(lookups)
        .collect();
    front.stage(&checks);
    let mut node_accesses = 0u64;
    for (i, request) in checks.iter().enumerate() {
        let response = front.submit(i).and_then(sut::wait);
        let correct = match &response {
            None => false,
            // A lookup of an inserted point must find something at distance 0.
            Some(r) if i >= FINAL_SCANS => sut::response_ranked(r)
                .first()
                .is_some_and(|&(_, d)| d == 0),
            Some(r) => {
                node_accesses += sut::response_counts(r).node_accesses;
                let want = sut::linear_scan_entries(&mirror, request);
                crate::direct::same_answer(&sut::response_ranked(r), &want)
            }
        };
        out.attempted += 1;
        out.failed += u64::from(!correct);
    }
    out.na_per_query = node_accesses as f64 / FINAL_SCANS as f64;

    if let Some(joined) = &joined {
        out.layer = publishing_metrics(joined, &mid_run);
    }
    out.layer.extend(contended_metrics(&contended));
    drop(front);
    drop(rig);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_data() -> Vec<Point> {
        (0..40)
            .map(|i| Point::new(i as f64, (i * 7 % 11) as f64))
            .collect()
    }

    #[test]
    fn update_stream_alternates_and_its_mirror_tracks_every_update() {
        let mut stream = UpdateStream::new(tiny_data(), 5);
        assert_eq!(
            stream.fingerprint(),
            UpdateStream::new(tiny_data(), 5).fingerprint()
        );
        assert_ne!(
            stream.fingerprint(),
            UpdateStream::new(tiny_data(), 6).fingerprint()
        );
        let ops: Vec<UpdateOp> = (0..5).map(|_| stream.next_op()).collect();
        assert!(matches!(ops[0], UpdateOp::Insert { id: 40, .. }));
        assert!(matches!(ops[1], UpdateOp::Remove { id: 0, .. }));
        assert!(matches!(ops[2], UpdateOp::Insert { id: 41, .. }));
        assert!(matches!(ops[3], UpdateOp::Remove { id: 1, .. }));
        assert!(matches!(ops[4], UpdateOp::Insert { id: 42, .. }));
        let mirror = stream.mirror();
        // 40 − 2 removed + 3 inserted.
        assert_eq!(mirror.len(), 41);
        assert_eq!(mirror[0].0, 2);
        assert_eq!(mirror.last().unwrap().0, 42);
        let UpdateOp::Insert { point, .. } = ops[4] else {
            unreachable!()
        };
        assert_eq!(mirror.last().unwrap().1, point);
    }

    #[test]
    fn a_corrupted_reply_is_a_failed_operation() {
        let data = sut::dataset(Dataset::Pp);
        let requests = serving_pool(&data, 512, 3);
        let traced_requests: Vec<Request> = requests.iter().map(sut::with_stage_trace).collect();
        let reference = sequential_reference(&data, &requests);
        let service = Served::start(&sut::Tree::bulk_load(&data).freeze(), 1);
        let rig = PacedRig {
            service: &service,
            requests: &requests,
            traced_requests: &traced_requests,
            reference: &reference,
        };
        let clean = rig.saturated_phase(None);
        assert_eq!((clean.completed, clean.failed), (512, 0));
        assert!(clean.wall_ns >= *clean.latency_ns.iter().max().unwrap());

        // One distance bit flipped in what request 7 is expected to answer,
        // one node access more in request 300's: each reply now "differs".
        let mut corrupted = reference.clone();
        corrupted[7].answer ^= 1;
        corrupted[300].node_accesses += 1;
        let rig = PacedRig {
            reference: &corrupted,
            ..rig
        };
        let mut tracer = Tracer::new();
        let mut totals = TracedTotals::default();
        let checked = rig.saturated_phase(Some(Tracing {
            tracer: &mut tracer,
            totals: &mut totals,
            id_base: 0,
        }));
        assert_eq!((checked.completed, checked.failed), (512, 2));
        // The traced phase saw the service's own stage timings.
        assert_eq!(totals.queries, 512);
        assert!(totals.execution_ns.iter().all(|&ns| ns > 0));
        assert_eq!(tracer.durations("service.submit").len(), 512);
        service.shutdown();
    }

    #[test]
    fn the_seed_orders_a_fixed_pool() {
        let pool = serving_pool(&sut::dataset(Dataset::Pp), 200, POOL_SEED);
        let each = |requests: &[Request]| -> Vec<u64> {
            let one = |r| sut::fingerprint_requests(std::slice::from_ref(r));
            requests.iter().map(one).collect()
        };
        let (a, b) = (issue_order(&pool, 1), issue_order(&pool, 2));
        assert_eq!(each(&a), each(&issue_order(&pool, 1)));
        assert_ne!(each(&a), each(&b));
        // The same requests in another order: the pool's counts cannot move.
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(each(&a)), sorted(each(&pool)));
        assert_eq!(sorted(each(&b)), sorted(each(&pool)));
    }

    #[test]
    fn serving_pool_is_reproducible_and_mixes_every_group_size() {
        let data = sut::dataset(Dataset::Pp);
        let a = serving_pool(&data, 500, 9);
        assert_eq!(a.len(), 500);
        assert_eq!(
            sut::fingerprint_requests(&a),
            sut::fingerprint_requests(&serving_pool(&data, 500, 9))
        );
        assert_ne!(
            sut::fingerprint_requests(&a),
            sut::fingerprint_requests(&serving_pool(&data, 500, 10))
        );
        let mut sizes = std::collections::BTreeSet::new();
        for request in &a {
            sizes.insert(sut::group_len(request));
        }
        assert_eq!(sizes.into_iter().collect::<Vec<_>>(), GROUP_SIZES);
    }
}
