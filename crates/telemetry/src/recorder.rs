//! The flight recorder: fixed-capacity rings of structured serving
//! events, merged into a time-ordered postmortem view.
//!
//! Each producer (a worker thread, the refresh driver, the publish path)
//! owns one [`FlightRecorder`] ring: a `VecDeque` behind a `Mutex`, sized
//! once at construction, so recording never allocates. When the ring is
//! full the **oldest** event is overwritten and counted: a postmortem
//! always holds the most recent `capacity` events per producer, says
//! exactly how much history it lost, and loses history only to overwrite.
//! A payload keeps all 64 bits. [`FlightLog::merge`] collects any number
//! of ring snapshots into one timeline ordered by monotonic timestamp
//! (nanoseconds since a shared epoch `Instant`), which is what a
//! crash/shed investigation actually reads: "what happened, across all
//! workers, in the 50 ms before that panic?".
//!
//! A [`FlightRecorder::snapshot`] holds the ring's lock while it copies
//! at most `capacity` events (256 per ring by default in `gnn-service`);
//! a producer recording at that moment waits for the copy to finish.
//! Producers record a few events per served query, refreeze or publish,
//! and snapshots run only when the service's stats are read, so the lock
//! is all but uncontended.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Source id conventionally used for publish-path events (the snapshot
/// slot's control ring) in a merged [`FlightLog`].
pub const SOURCE_CONTROL: u32 = u32::MAX;
/// Source id conventionally used for refresh-driver events in a merged
/// [`FlightLog`].
pub const SOURCE_DRIVER: u32 = u32::MAX - 1;

/// What happened. The vocabulary of the serving stack's flight recorder;
/// each kind's payload meaning is documented on the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A job entered the service's queue. Timestamp is the submission instant
    /// (recorded retroactively by the worker that dequeued it, so each
    /// worker's ring has one producer); payload = 1, the one request a
    /// job carries.
    Enqueued,
    /// A worker picked the job up; an admitted job starts executing at
    /// this instant. Payload = queue wait in nanoseconds.
    Dequeued,
    /// A request was shed at dequeue (deadline already expired). Payload =
    /// how long it had waited, in nanoseconds.
    Shed,
    /// Execution completed normally. Payload = execution nanoseconds.
    ExecEnd,
    /// Execution panicked (injected or real), and the worker has rebuilt
    /// its serving state. Payload = the worker's 1-based attempt number.
    Panicked,
    /// A refreeze cycle started (refresh driver). Payload = 1-based cycle.
    RefreezeStart,
    /// A refreeze cycle finished. Payload = refreeze nanoseconds.
    RefreezeEnd,
    /// A snapshot generation was published. Payload = the new generation.
    Published,
}

impl FlightEventKind {
    /// Stable short name (used by text renderings of a postmortem).
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::Enqueued => "enqueued",
            FlightEventKind::Dequeued => "dequeued",
            FlightEventKind::Shed => "shed",
            FlightEventKind::ExecEnd => "exec_end",
            FlightEventKind::Panicked => "panicked",
            FlightEventKind::RefreezeStart => "refreeze_start",
            FlightEventKind::RefreezeEnd => "refreeze_end",
            FlightEventKind::Published => "published",
        }
    }
}

/// One recorded event: a monotonic timestamp (nanoseconds since the
/// recorder's shared epoch), the producing source (worker id,
/// [`SOURCE_CONTROL`], or [`SOURCE_DRIVER`]), the kind, its payload, and
/// the per-ring sequence number (total events recorded before it on the
/// same ring — the tiebreaker that keeps a merge stable at equal
/// timestamps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the epoch `Instant` the recorder was built with.
    pub ts_nanos: u64,
    /// Producer id (worker index; `SOURCE_*` for non-worker rings).
    pub source: u32,
    /// What happened.
    pub kind: FlightEventKind,
    /// Kind-specific payload (see [`FlightEventKind`]).
    pub payload: u64,
    /// Per-ring sequence number (0-based ticket).
    pub seq: u64,
}

/// The locked state of a ring: retained `(ts_nanos, kind, payload)`
/// events oldest first, and how many were ever recorded. The retained
/// events hold tickets `recorded - events.len() .. recorded`.
#[derive(Debug)]
struct Ring {
    events: VecDeque<(u64, FlightEventKind, u64)>,
    recorded: u64,
}

/// A fixed-capacity, overwrite-oldest ring of [`FlightEvent`]s (see the
/// module docs). Capacity 0 disables the recorder entirely:
/// [`FlightRecorder::record`] returns after one branch and nothing is
/// ever retained.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
    source: u32,
    epoch: Instant,
}

impl FlightRecorder {
    /// A ring of `capacity` events for producer `source`, with timestamps
    /// measured from `epoch` (share one epoch across every ring whose
    /// events will be merged).
    pub fn new(source: u32, capacity: usize, epoch: Instant) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                recorded: 0,
            }),
            source,
            epoch,
        }
    }

    /// Whether this recorder retains anything (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The epoch timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records an event stamped "now". A disabled ring does not read the
    /// clock.
    pub fn record(&self, kind: FlightEventKind, payload: u64) {
        if self.enabled() {
            self.record_at(Instant::now(), kind, payload);
        }
    }

    /// Records an event with an explicit timestamp — how a worker logs an
    /// `Enqueued` event retroactively at dequeue time (the submitter's
    /// clock reading, the worker's ring).
    pub fn record_at(&self, at: Instant, kind: FlightEventKind, payload: u64) {
        if !self.enabled() {
            return;
        }
        let ts =
            u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        let mut ring = self.lock();
        ring.recorded += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back((ts, kind, payload));
    }

    /// A point-in-time copy of the ring: the retained events **oldest
    /// first** (in ticket order) plus the exact count of events recorded
    /// but overwritten since.
    pub fn snapshot(&self) -> RingSnapshot {
        let ring = self.lock();
        let first = ring.recorded - ring.events.len() as u64;
        let events = (first..)
            .zip(&ring.events)
            .map(|(seq, &(ts_nanos, kind, payload))| FlightEvent {
                ts_nanos,
                source: self.source,
                kind,
                payload,
                seq,
            })
            .collect();
        RingSnapshot {
            source: self.source,
            events,
            dropped: first,
        }
    }

    /// The ring's lock. `record_at` counts an event before it stores it,
    /// so every step leaves `recorded >= events.len()`, and a lock
    /// poisoned mid-update still guards a valid ring: it is taken over.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One ring's snapshot: retained events oldest-first plus the drop count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSnapshot {
    /// The producing source id.
    pub source: u32,
    /// Retained events in ticket (recording) order.
    pub events: Vec<FlightEvent>,
    /// Events recorded on this ring but not retained (overwritten by newer
    /// ones): the ring's recorded total minus `events.len()`.
    pub dropped: u64,
}

/// The merged postmortem view: events from any number of rings, ordered by
/// timestamp (ties broken by source then per-ring sequence), plus the
/// total history lost to ring overwrites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightLog {
    /// Time-ordered events across all merged rings.
    pub events: Vec<FlightEvent>,
    /// Total events dropped across all merged rings.
    pub dropped: u64,
}

impl FlightLog {
    /// An empty log.
    pub fn empty() -> FlightLog {
        FlightLog::default()
    }

    /// Merges ring snapshots into one time-ordered log.
    pub fn merge(rings: impl IntoIterator<Item = RingSnapshot>) -> FlightLog {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in rings {
            events.extend(ring.events);
            dropped += ring.dropped;
        }
        events.sort_by_key(|e| (e.ts_nanos, e.source, e.seq));
        FlightLog { events, dropped }
    }

    /// The last `n` events (the tail a crash dump prints).
    pub fn tail(&self, n: usize) -> &[FlightEvent] {
        &self.events[self.events.len().saturating_sub(n)..]
    }

    /// One line per event: `ts_us source kind payload` — the postmortem
    /// text form (timestamps in microseconds since the epoch).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{:>12.1}us  src={:<10} {:<14} {}\n",
                e.ts_nanos as f64 / 1e3,
                if e.source == SOURCE_CONTROL {
                    "control".to_string()
                } else if e.source == SOURCE_DRIVER {
                    "driver".to_string()
                } else {
                    format!("worker-{}", e.source)
                },
                e.kind.name(),
                e.payload,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_and_snapshots_in_order() {
        let epoch = Instant::now();
        let r = FlightRecorder::new(3, 8, epoch);
        assert!(r.enabled());
        r.record_at(
            epoch + Duration::from_nanos(10),
            FlightEventKind::Enqueued,
            1,
        );
        r.record_at(
            epoch + Duration::from_nanos(20),
            FlightEventKind::Dequeued,
            10,
        );
        r.record_at(
            epoch + Duration::from_nanos(30),
            FlightEventKind::ExecEnd,
            10,
        );
        let snap = r.snapshot();
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].kind, FlightEventKind::Enqueued);
        assert_eq!(snap.events[0].ts_nanos, 10);
        assert_eq!(snap.events[2].kind, FlightEventKind::ExecEnd);
        assert!(snap.events.iter().all(|e| e.source == 3));
        // Tickets are consecutive from 0.
        assert_eq!(
            snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops_exactly() {
        let epoch = Instant::now();
        let r = FlightRecorder::new(0, 4, epoch);
        for i in 0..10u64 {
            r.record_at(
                epoch + Duration::from_nanos(100 + i),
                FlightEventKind::ExecEnd,
                i,
            );
        }
        let snap = r.snapshot();
        // Oldest-first eviction: exactly the last `capacity` events remain,
        // in recording order, and the drop counter is exact.
        assert_eq!(snap.dropped, 6);
        assert_eq!(
            snap.events.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(
            snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let r = FlightRecorder::new(0, 0, Instant::now());
        assert!(!r.enabled());
        r.record(FlightEventKind::Panicked, 7);
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn merge_orders_across_rings_by_timestamp() {
        let epoch = Instant::now();
        let a = FlightRecorder::new(0, 8, epoch);
        let b = FlightRecorder::new(1, 8, epoch);
        a.record_at(
            epoch + Duration::from_nanos(5),
            FlightEventKind::Dequeued,
            4,
        );
        b.record_at(
            epoch + Duration::from_nanos(1),
            FlightEventKind::Enqueued,
            0,
        );
        a.record_at(epoch + Duration::from_nanos(9), FlightEventKind::ExecEnd, 4);
        b.record_at(epoch + Duration::from_nanos(7), FlightEventKind::Shed, 6);
        let log = FlightLog::merge([a.snapshot(), b.snapshot()]);
        let kinds: Vec<_> = log.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlightEventKind::Enqueued,
                FlightEventKind::Dequeued,
                FlightEventKind::Shed,
                FlightEventKind::ExecEnd,
            ]
        );
        let ts: Vec<_> = log.events.iter().map(|e| e.ts_nanos).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "merged timeline must be time-ordered");
        assert_eq!(log.dropped, 0);
        assert_eq!(log.tail(2).len(), 2);
        assert_eq!(log.tail(2)[1].kind, FlightEventKind::ExecEnd);
        assert!(log.render().contains("shed"));
    }

    #[test]
    fn merged_timeline_stays_ordered_past_overflow() {
        // Two small rings, both pushed past capacity with interleaved
        // timestamps: the merge must stay time-ordered and the drop counts
        // must add up.
        let epoch = Instant::now();
        let a = FlightRecorder::new(0, 4, epoch);
        let b = FlightRecorder::new(1, 4, epoch);
        for i in 0..12u64 {
            a.record_at(
                epoch + Duration::from_nanos(2 * i),
                FlightEventKind::ExecEnd,
                i,
            );
            b.record_at(
                epoch + Duration::from_nanos(2 * i + 1),
                FlightEventKind::Dequeued,
                i,
            );
        }
        let log = FlightLog::merge([a.snapshot(), b.snapshot()]);
        assert_eq!(log.dropped, 16);
        assert_eq!(log.events.len(), 8);
        for pair in log.events.windows(2) {
            assert!(pair[0].ts_nanos <= pair[1].ts_nanos);
        }
        // Alternating sources (interleaved odd/even timestamps survive).
        for (i, e) in log.events.iter().enumerate() {
            assert_eq!(e.source as usize, i % 2);
        }
    }

    #[test]
    fn full_u64_payload_round_trips() {
        let epoch = Instant::now();
        let r = FlightRecorder::new(0, 2, epoch);
        r.record_at(epoch, FlightEventKind::Published, u64::MAX);
        let snap = r.snapshot();
        assert_eq!(snap.events[0].payload, u64::MAX);
        assert_eq!(snap.events[0].kind, FlightEventKind::Published);
    }

    /// `threads` producers each record `per_thread` events into one ring
    /// of `capacity`; payload `t * per_thread + i` names the event.
    fn record_from_threads(capacity: usize, threads: u64, per_thread: u64) -> RingSnapshot {
        let r = FlightRecorder::new(0, capacity, Instant::now());
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (r, start) = (&r, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..per_thread {
                        r.record(FlightEventKind::ExecEnd, t * per_thread + i);
                    }
                });
            }
        });
        r.snapshot()
    }

    #[test]
    fn several_producers_retain_every_event_once() {
        let total = 4 * 2_000;
        let snap = record_from_threads(total as usize, 4, 2_000);
        assert_eq!(snap.dropped, 0);
        assert_eq!(
            snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..total).collect::<Vec<_>>()
        );
        let mut payloads: Vec<_> = snap.events.iter().map(|e| e.payload).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..total).collect::<Vec<_>>());
        // Each producer's own events stay in its recording order.
        for t in 0..4 {
            let mine: Vec<_> = snap
                .events
                .iter()
                .map(|e| e.payload)
                .filter(|p| p / 2_000 == t)
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn several_producers_overflow_with_exact_drops() {
        let (capacity, total) = (64, 4 * 5_000);
        let snap = record_from_threads(capacity, 4, 5_000);
        assert_eq!(snap.events.len(), capacity);
        assert_eq!(snap.dropped, total - capacity as u64);
        assert_eq!(
            snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (total - capacity as u64..total).collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_snapshot_never_tears() {
        // A writer hammering a tiny ring while a reader snapshots: every
        // event a snapshot returns must be internally consistent (payload
        // equals the timestamp it was written with), never a torn mix.
        let epoch = Instant::now();
        let r = std::sync::Arc::new(FlightRecorder::new(0, 4, epoch));
        let w = std::sync::Arc::clone(&r);
        let writer = std::thread::spawn(move || {
            for i in 0..50_000u64 {
                w.record_at(epoch + Duration::from_nanos(i), FlightEventKind::ExecEnd, i);
            }
        });
        let mut checked = 0u64;
        while !writer.is_finished() {
            for e in r.snapshot().events {
                assert_eq!(e.ts_nanos, e.payload, "torn slot read");
                checked += 1;
            }
        }
        writer.join().unwrap();
        let final_snap = r.snapshot();
        assert_eq!(final_snap.events.len(), 4);
        assert_eq!(final_snap.dropped, 50_000 - 4);
        assert!(checked > 0 || final_snap.events.len() == 4);
    }
}
