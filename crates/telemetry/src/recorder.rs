//! The flight recorder: fixed-capacity lock-free ring buffers of
//! structured serving events, merged into a time-ordered postmortem view.
//!
//! Each producer (a worker thread, the refresh driver, the publish path)
//! owns one [`FlightRecorder`] ring. Recording is a handful of atomic
//! stores — no locks, no allocation — so it can sit on the serving hot
//! path. When the ring is full the **oldest** events are overwritten and
//! counted in an explicit drop counter: a postmortem always holds the most
//! recent `capacity` events per producer, and always says how much history
//! it lost. [`FlightLog::merge`] collects any number of ring snapshots
//! into one timeline ordered by monotonic timestamp (nanoseconds since a
//! shared epoch `Instant`), which is what a crash/shed investigation
//! actually reads: "what happened, across all workers, in the 50 ms before
//! that panic?".
//!
//! Concurrency contract: a ring is designed for a **single producer**
//! (SPSC: the owning thread writes, an aggregator thread snapshots).
//! Writes are nevertheless safe under accidental producer concurrency — a
//! slot is claimed with a compare-exchange on its sequence word, so a
//! writer that finds its slot still mid-write by a lapped predecessor
//! drops its own event (counted) instead of tearing the slot. Readers
//! validate the sequence word before *and* after reading a slot, so a
//! snapshot taken under live traffic skips slots being rewritten rather
//! than returning torn events.

use std::sync::atomic::{AtomicU64, Ordering};
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
    /// (recorded retroactively by the worker that dequeued it, which is
    /// what keeps the ring single-producer); payload = 1, the one request
    /// a job carries.
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

    fn code(self) -> u64 {
        match self {
            FlightEventKind::Enqueued => 0,
            FlightEventKind::Dequeued => 1,
            FlightEventKind::Shed => 2,
            FlightEventKind::ExecEnd => 3,
            FlightEventKind::Panicked => 4,
            FlightEventKind::RefreezeStart => 5,
            FlightEventKind::RefreezeEnd => 6,
            FlightEventKind::Published => 7,
        }
    }

    fn from_code(code: u64) -> FlightEventKind {
        match code {
            0 => FlightEventKind::Enqueued,
            1 => FlightEventKind::Dequeued,
            2 => FlightEventKind::Shed,
            3 => FlightEventKind::ExecEnd,
            4 => FlightEventKind::Panicked,
            5 => FlightEventKind::RefreezeStart,
            6 => FlightEventKind::RefreezeEnd,
            _ => FlightEventKind::Published,
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

/// Payloads are packed with the kind into one atomic word: kind in the top
/// byte, payload in the low 56 bits (2^56 ns ≈ 2.3 years — no real
/// duration or generation exceeds it; larger values saturate).
const PAYLOAD_BITS: u32 = 56;
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;

fn pack(kind: FlightEventKind, payload: u64) -> u64 {
    (kind.code() << PAYLOAD_BITS) | payload.min(PAYLOAD_MASK)
}

fn unpack(data: u64) -> (FlightEventKind, u64) {
    (
        FlightEventKind::from_code(data >> PAYLOAD_BITS),
        data & PAYLOAD_MASK,
    )
}

/// One slot: a sequence word guarding a timestamp and a packed
/// kind+payload word. For ticket `t` the sequence is `2t + 1` while the
/// writer is inside the slot and `2t + 2` once the event is readable
/// (0 = never written).
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    data: AtomicU64,
}

/// A fixed-capacity, overwrite-oldest ring of [`FlightEvent`]s. See the
/// module docs for the concurrency contract. Capacity 0 disables the
/// recorder entirely: [`FlightRecorder::record`] returns after one branch
/// and nothing is ever retained.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Slot>,
    /// Total events ever recorded (monotone ticket counter).
    head: AtomicU64,
    source: u32,
    epoch: Instant,
}

impl FlightRecorder {
    /// A ring of `capacity` slots for producer `source`, with timestamps
    /// measured from `epoch` (share one epoch across every ring whose
    /// events will be merged).
    pub fn new(source: u32, capacity: usize, epoch: Instant) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    data: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            source,
            epoch,
        }
    }

    /// Whether this recorder retains anything (capacity > 0).
    pub fn enabled(&self) -> bool {
        !self.slots.is_empty()
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
    /// clock reading, the worker's ring: the ring stays single-producer).
    pub fn record_at(&self, at: Instant, kind: FlightEventKind, payload: u64) {
        if self.slots.is_empty() {
            return;
        }
        let ts =
            u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        let cap = self.slots.len() as u64;
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % cap) as usize];
        // Claim the slot: its sequence must still be the *completed* state
        // of the ticket one lap behind (or 0 on the first lap). A failure
        // means a lapped writer is still inside the slot — drop this event
        // instead of tearing it (it stays counted via `head`).
        let expected = if ticket >= cap {
            2 * (ticket - cap) + 2
        } else {
            0
        };
        if slot
            .seq
            .compare_exchange(
                expected,
                2 * ticket + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return;
        }
        slot.ts.store(ts, Ordering::Relaxed);
        slot.data.store(pack(kind, payload), Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// A point-in-time copy of the ring: the retained events **oldest
    /// first** (in ticket order) plus the exact count of events recorded
    /// but no longer readable (evicted by overwrite, or skipped mid-write).
    pub fn snapshot(&self) -> RingSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = if cap == 0 {
            head
        } else {
            head.saturating_sub(cap)
        };
        let mut events = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.slots[(ticket % cap) as usize];
            let want = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let data = slot.data.load(Ordering::Relaxed);
            // Re-validate: a concurrent writer claiming this slot would
            // have bumped the sequence before touching ts/data.
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let (kind, payload) = unpack(data);
            events.push(FlightEvent {
                ts_nanos: ts,
                source: self.source,
                kind,
                payload,
                seq: ticket,
            });
        }
        let dropped = head - events.len() as u64;
        RingSnapshot {
            source: self.source,
            events,
            dropped,
        }
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
    /// ones, or skipped because a snapshot raced the writer).
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
    fn every_kind_round_trips_through_its_code() {
        use FlightEventKind::*;
        let kinds = [
            Enqueued,
            Dequeued,
            Shed,
            ExecEnd,
            Panicked,
            RefreezeStart,
            RefreezeEnd,
            Published,
        ];
        for (code, kind) in kinds.into_iter().enumerate() {
            assert_eq!(kind.code(), code as u64, "{kind:?}");
            assert_eq!(unpack(pack(kind, 42)), (kind, 42));
        }
    }

    #[test]
    fn payload_saturates_at_56_bits() {
        let epoch = Instant::now();
        let r = FlightRecorder::new(0, 2, epoch);
        r.record_at(epoch, FlightEventKind::Published, u64::MAX);
        let snap = r.snapshot();
        assert_eq!(snap.events[0].payload, (1 << 56) - 1);
        assert_eq!(snap.events[0].kind, FlightEventKind::Published);
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
