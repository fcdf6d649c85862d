//! The load generator: one thread driving a request/reply server open loop
//! (on a fixed arrival schedule, latency clocked from when each request
//! was *due*) or closed loop (a fixed window of outstanding requests).
//!
//! Generic over [`Server`] so the unit tests can put a stub that stalls
//! behind the same loops that drive the real service.

use crate::rng::SplitMix64;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keeps the hypervisor from parking an idle vCPU while served phases run.
///
/// The host is a VM: a core with nothing to run is halted, and the next
/// wake-up of a thread on it costs 10–40 µs depending on how long the host
/// happened to poll before descheduling the vCPU — a cost of the host, not
/// of the program under test, that moved `serve_paced_small`'s p50 between
/// 52 and 66 µs from one minute to the next. While a guard lives, one
/// thread at `SCHED_IDLE` spins: it runs only when nothing else wants the
/// core and is preempted the moment a worker wakes, so the wake-up path
/// (futex, run queue, reply) stays in the measurement and the halt does
/// not (p50 40 µs, eight runs within 5 %). Where the scheduling class
/// cannot be set the thread exits at once instead of spinning.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinner: Option<std::thread::JoinHandle<()>>,
}

#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param` (a
    // single int on Linux) through a valid pointer; pid 0 is this thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 }) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&stop);
        let spinner = std::thread::spawn(move || {
            if enter_idle_class() {
                while !seen.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }
        });
        KeepAwake {
            stop,
            spinner: Some(spinner),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
    }
}

/// What the generator needs from a server. `index` identifies the request
/// in the workload's pool.
pub trait Server {
    type Handle;
    type Reply;

    /// Hands request `index` to the server; `None` when it was refused.
    fn submit(&mut self, index: usize) -> Option<Self::Handle>;

    /// Non-blocking: `None` while in flight, `Some(None)` for a failed
    /// request.
    fn poll(&mut self, handle: &mut Self::Handle) -> Option<Option<Self::Reply>>;

    /// Blocks until the reply arrives; `None` for a failed request.
    fn wait(&mut self, handle: Self::Handle) -> Option<Self::Reply>;
}

/// One completed (or failed) request as the generator saw it.
#[derive(Debug)]
pub struct Done<R> {
    /// Position in the phase (0-based submission order).
    pub seq: usize,
    /// Pool index of the request.
    pub index: usize,
    /// When the request was due (open loop) or handed to `submit` (closed
    /// loop) — the instant latency is clocked from.
    pub clock_start: Instant,
    /// The `submit` call's own boundaries.
    pub submit_start: Instant,
    pub submit_end: Instant,
    /// When the generator observed the reply.
    pub observed: Instant,
    /// `None` when the request was refused or answered with an error.
    pub reply: Option<R>,
}

impl<R> Done<R> {
    /// Latency on the phase's clock, nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.observed
            .saturating_duration_since(self.clock_start)
            .as_nanos() as u64
    }

    /// How late the generator ran: `submit` entered this long after the
    /// request was due (0 in a closed loop).
    pub fn late_ns(&self) -> u64 {
        self.submit_start
            .saturating_duration_since(self.clock_start)
            .as_nanos() as u64
    }
}

/// A Poisson arrival schedule: `count` due times as nanosecond offsets
/// from the phase start, exponential gaps of mean `1 / rate_qps`.
pub fn poisson_schedule(rate_qps: f64, count: usize, seed: u64) -> Vec<u64> {
    assert!(rate_qps > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -(1.0 - rng.next_f64()).ln() / rate_qps;
            (at * 1e9) as u64
        })
        .collect()
}

struct InFlight<H> {
    seq: usize,
    index: usize,
    clock_start: Instant,
    submit_start: Instant,
    submit_end: Instant,
    handle: H,
}

impl<H> InFlight<H> {
    fn finish<R>(self, reply: impl FnOnce(H) -> Option<R>) -> Done<R> {
        let reply = reply(self.handle);
        Done {
            seq: self.seq,
            index: self.index,
            clock_start: self.clock_start,
            submit_start: self.submit_start,
            submit_end: self.submit_end,
            observed: Instant::now(),
            reply,
        }
    }
}

fn refused<R>(seq: usize, index: usize, clock_start: Instant, t0: Instant, t1: Instant) -> Done<R> {
    Done {
        seq,
        index,
        clock_start,
        submit_start: t0,
        submit_end: t1,
        observed: t1,
        reply: None,
    }
}

/// Open loop: request `i` of `indices` is submitted as soon as
/// `schedule_ns[i]` has passed, however slow the server is, and its
/// latency runs from that due time — a stall is charged to every request
/// it delayed. The generator spins between arrivals, polling the oldest
/// outstanding handles (replies of a FIFO server arrive in order; a later
/// reply observed late only lengthens its own latency). Returns the wall
/// time of the phase and the backlog when the last request was submitted.
pub fn run_paced<S: Server>(
    server: &mut S,
    indices: &[usize],
    schedule_ns: &[u64],
    mut on_done: impl FnMut(Done<S::Reply>),
) -> (Duration, usize) {
    assert_eq!(indices.len(), schedule_ns.len());
    let start = Instant::now();
    let mut outstanding: VecDeque<InFlight<S::Handle>> = VecDeque::new();
    let mut next = 0usize;
    let mut backlog_at_end = 0usize;
    while next < indices.len() || !outstanding.is_empty() {
        let now = Instant::now();
        while next < indices.len() {
            let due = start + Duration::from_nanos(schedule_ns[next]);
            if due > now {
                break;
            }
            let t0 = Instant::now();
            let handle = server.submit(indices[next]);
            let t1 = Instant::now();
            match handle {
                Some(handle) => outstanding.push_back(InFlight {
                    seq: next,
                    index: indices[next],
                    clock_start: due,
                    submit_start: t0,
                    submit_end: t1,
                    handle,
                }),
                None => on_done(refused(next, indices[next], due, t0, t1)),
            }
            next += 1;
            if next == indices.len() {
                backlog_at_end = outstanding.len();
            }
        }
        while let Some(front) = outstanding.front_mut() {
            match server.poll(&mut front.handle) {
                Some(reply) => {
                    let flight = outstanding.pop_front().expect("front exists");
                    on_done(flight.finish(|_| reply));
                }
                None => break,
            }
        }
        std::hint::spin_loop();
    }
    (start.elapsed(), backlog_at_end)
}

/// How a closed loop collects replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collect {
    /// Spin on `poll` of the oldest outstanding request.
    Polling,
    /// Block in `wait` on the oldest outstanding request (leaves the core
    /// to whatever else runs beside the generator).
    Blocking,
}

/// Closed loop: keeps `window` requests outstanding until `indices` is
/// exhausted; latency runs from the `submit` call. `before_submit(seq)`
/// runs ahead of each submission (the live workload feeds its update
/// stream there). Returns the wall time of the phase.
pub fn run_closed<S: Server>(
    server: &mut S,
    indices: &[usize],
    window: usize,
    collect: Collect,
    mut before_submit: impl FnMut(usize),
    mut on_done: impl FnMut(Done<S::Reply>),
) -> Duration {
    assert!(window > 0, "a closed loop needs a window");
    let start = Instant::now();
    let mut outstanding: VecDeque<InFlight<S::Handle>> = VecDeque::with_capacity(window);
    let mut next = 0usize;
    while next < indices.len() || !outstanding.is_empty() {
        while next < indices.len() && outstanding.len() < window {
            before_submit(next);
            let t0 = Instant::now();
            let handle = server.submit(indices[next]);
            let t1 = Instant::now();
            match handle {
                Some(handle) => outstanding.push_back(InFlight {
                    seq: next,
                    index: indices[next],
                    clock_start: t0,
                    submit_start: t0,
                    submit_end: t1,
                    handle,
                }),
                None => on_done(refused(next, indices[next], t0, t0, t1)),
            }
            next += 1;
        }
        let Some(flight) = outstanding.pop_front() else {
            continue;
        };
        on_done(flight.finish(|mut handle| match collect {
            Collect::Blocking => server.wait(handle),
            Collect::Polling => loop {
                if let Some(reply) = server.poll(&mut handle) {
                    break reply;
                }
                std::hint::spin_loop();
            },
        }));
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A FIFO server with a fixed service time that can stall inside one
    /// `submit` call — the coordinated-omission scenario: the generator is
    /// blocked, so requests due during the stall go out late.
    struct Stub {
        service: Duration,
        stall_at: Option<usize>,
        stall: Duration,
        /// When the single worker frees up.
        busy_until: Instant,
        stalled: Option<(Instant, Instant)>,
    }

    impl Stub {
        fn new(service: Duration) -> Self {
            Stub {
                service,
                stall_at: None,
                stall: Duration::ZERO,
                busy_until: Instant::now(),
                stalled: None,
            }
        }
    }

    impl Server for Stub {
        type Handle = Instant; // when the reply becomes visible
        type Reply = ();

        fn submit(&mut self, index: usize) -> Option<Instant> {
            if self.stall_at == Some(index) {
                let t0 = Instant::now();
                std::thread::sleep(self.stall);
                self.stalled = Some((t0, Instant::now()));
            }
            let ready = self.busy_until.max(Instant::now()) + self.service;
            self.busy_until = ready;
            Some(ready)
        }

        fn poll(&mut self, handle: &mut Instant) -> Option<Option<()>> {
            (Instant::now() >= *handle).then_some(Some(()))
        }

        fn wait(&mut self, handle: Instant) -> Option<()> {
            while Instant::now() < handle {
                std::hint::spin_loop();
            }
            Some(())
        }
    }

    #[test]
    fn keep_awake_stops_when_dropped() {
        // Joins its spinner (or finds it already gone where the idle
        // scheduling class is unavailable) instead of hanging.
        drop(KeepAwake::start());
    }

    #[test]
    fn poisson_schedule_is_reproducible_and_has_the_asked_rate() {
        let a = poisson_schedule(4_000.0, 20_000, 11);
        assert_eq!(a, poisson_schedule(4_000.0, 20_000, 11));
        assert_ne!(a, poisson_schedule(4_000.0, 20_000, 12));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap_ns = *a.last().unwrap() as f64 / a.len() as f64;
        assert!(
            (mean_gap_ns - 250_000.0).abs() < 250_000.0 * 0.05,
            "{mean_gap_ns}"
        );
    }

    #[test]
    fn a_stall_raises_the_due_time_latency_of_every_request_it_delayed() {
        let stall = Duration::from_millis(5);
        let mut stub = Stub::new(Duration::from_micros(20));
        stub.stall_at = Some(40);
        stub.stall = stall;
        // One request every 100 µs: ~50 fall due during the 5 ms stall.
        let schedule: Vec<u64> = (0..200).map(|i| i * 100_000).collect();
        let indices: Vec<usize> = (0..200).collect();
        let mut done = Vec::new();
        run_paced(&mut stub, &indices, &schedule, |d| done.push(d));
        assert_eq!(done.len(), 200);
        let (stall_start, stall_end) = stub.stalled.expect("the stub stalled");
        let delayed: Vec<&Done<()>> = done
            .iter()
            .filter(|d| d.seq > 40 && d.clock_start >= stall_start && d.clock_start < stall_end)
            .collect();
        assert!(
            delayed.len() >= 30,
            "only {} requests fell due in the stall",
            delayed.len()
        );
        for d in &delayed {
            // Clocked from its due time, each carries the rest of the stall…
            let owed = stall_end.duration_since(d.clock_start).as_nanos() as u64;
            assert!(
                d.latency_ns() >= owed,
                "seq {}: {} < {owed}",
                d.seq,
                d.latency_ns()
            );
            assert!(d.late_ns() >= owed);
            // …which a clock started at `submit` would have hidden.
            let from_submit = d.observed.duration_since(d.submit_start);
            assert!(from_submit < d.observed.duration_since(d.clock_start));
        }
    }

    #[test]
    fn closed_loop_holds_its_window_and_finishes_every_request() {
        for collect in [Collect::Polling, Collect::Blocking] {
            let mut stub = Stub::new(Duration::from_micros(50));
            let indices: Vec<usize> = (0..64).rev().collect();
            let mut submitted = Vec::new();
            let mut seen = Vec::new();
            let wall = run_closed(
                &mut stub,
                &indices,
                4,
                collect,
                |seq| submitted.push(seq),
                |d| seen.push((d.seq, d.index, d.latency_ns(), d.late_ns())),
            );
            assert_eq!(submitted, (0..64).collect::<Vec<_>>());
            assert_eq!(seen.len(), 64);
            assert!(seen
                .iter()
                .all(|&(seq, index, _, late)| index == 63 - seq && late == 0));
            // 64 requests through one 50 µs server take at least 3.2 ms,
            // and a window of 4 keeps ~4 service times in a typical latency.
            assert!(wall >= Duration::from_micros(3_200));
            let mut latencies: Vec<u64> = seen.iter().map(|&(_, _, lat, _)| lat).collect();
            latencies.sort_unstable();
            assert!(latencies[32] >= 150_000, "median {}", latencies[32]);
        }
    }
}
