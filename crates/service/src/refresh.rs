//! The auto-refresh driver: mutate → per-shard refreeze → publish on a
//! policy, so a mutating sharded tree serves continuously.
//!
//! A [`RefreshDriver`] owns the mutable [`ShardedTree`] on a background
//! thread, receives [`Update`]s through an unbounded channel, applies them
//! to the owning shards, and — whenever any shard's dirty fraction crosses
//! [`RefreshPolicy::dirty_fraction`] (or the applied-update backlog exceeds
//! [`RefreshPolicy::max_pending`]) — refreezes the dirty shards
//! incrementally, reuses the `Arc` of every clean one, and publishes the
//! result to the service. Query traffic never blocks: publish is the
//! between-queries hot swap.
//!
//! Shutdown hygiene is part of the contract:
//!
//! * [`RefreshDriver::join`] closes the update channel, lets the thread
//!   apply every accepted update and perform one final flush refresh, joins
//!   it, and hands back the tree plus one [`PublishRecord`] per cycle — or
//!   a typed [`DriverError`] when the driver panicked or a refreeze failed;
//! * the thread holds its `Arc<Service>` until it ends, and a service
//!   closes only when its last owner shuts it down or drops it, so no
//!   publish can race a close: every cycle, the final flush included, is
//!   published. When the caller let go of its own handle first, the
//!   driver thread is the last owner and drains the service as it ends
//!   (pinned by the workspace `refresh_driver` test).
//!
//! Determinism stays pinnable under continuous refresh without the driver
//! keeping what it published (it holds one snapshot, the refreeze
//! baseline): the record of generation `g` says how many updates it
//! contains ([`PublishRecord::applied`]), so replaying that prefix of the
//! update stream onto a copy of the starting tree rebuilds its point set,
//! and every tagged response can be checked against the sequential
//! reference on it.

use crate::stats::duration_nanos;
use crate::{lock_unpoisoned, Service};
use gnn_geom::{Point, PointId};
use gnn_rtree::{LeafEntry, ShardedSnapshot, ShardedTree};
use gnn_telemetry::FlightEventKind;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a [`RefreshDriver`] run ended without an outcome. Returned by
/// [`RefreshDriver::join`] — driver failure is a typed result at the join
/// point, not a re-panic in the caller's thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverError {
    /// The driver thread panicked. The tree and publish history died with
    /// it; the service keeps serving its last published generation.
    Panicked,
    /// The driver's `cycle`-th refreeze (1-based) failed and the run was
    /// aborted. Injectable through
    /// [`FaultPlan::fail_refreeze`](crate::FaultPlan::fail_refreeze) on the
    /// service's configuration.
    RefreezeFailed {
        /// The 1-based refreeze cycle that failed.
        cycle: u64,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Panicked => f.write_str("refresh driver thread panicked"),
            DriverError::RefreezeFailed { cycle } => {
                write!(f, "refreeze cycle {cycle} failed; driver aborted")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// One mutation for the [`RefreshDriver`] to apply to its sharded tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// Insert a point (routed to its owning shard by Hilbert key).
    Insert(LeafEntry),
    /// Remove a point by id + position (same routing; a miss is counted,
    /// not an error).
    Remove {
        /// Id of the point to remove.
        id: PointId,
        /// Its position (shard routing and R-tree deletion need it).
        point: Point,
    },
}

/// When the [`RefreshDriver`] refreezes and publishes.
#[derive(Debug, Clone, Copy)]
pub struct RefreshPolicy {
    /// Refresh once any shard's dirty page fraction reaches this value.
    /// Lower = fresher snapshots, more refreeze work; `0.1` mirrors the
    /// ~10% dirty point where incremental refreeze was last measured
    /// ahead of a full freeze (EXPERIMENTS.md, "Retired experiments").
    pub dirty_fraction: f64,
    /// Refresh after at most this many applied-but-unpublished updates,
    /// regardless of dirty fractions (bounds staleness on huge shards
    /// where single updates barely move the fraction).
    pub max_pending: usize,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy {
            dirty_fraction: 0.1,
            max_pending: 4096,
        }
    }
}

/// Counters of one driver run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Updates applied to the sharded tree.
    pub applied: u64,
    /// Remove updates whose point was not present.
    pub missed_removes: u64,
    /// Updates [`RefreshDriver::apply`] refused because their point had a
    /// NaN or infinite coordinate; they never reached the tree.
    pub rejected: u64,
    /// Snapshots published to the service.
    pub published: u64,
}

/// One refreeze + publish cycle of a driver run: what triggered it, what
/// it cost, and the generation it published.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishRecord {
    /// The 1-based refreeze cycle this record describes.
    pub cycle: u64,
    /// The generation the publish produced.
    pub generation: u64,
    /// Updates the cycle's snapshot contains: the first `applied` accepted
    /// by the driver, in order (what "is in generation g" means).
    pub applied: u64,
    /// Wall time of the incremental `refreeze_all` for this cycle.
    pub refreeze: Duration,
    /// The maximum per-shard dirty fraction at the moment the cycle
    /// triggered (what the [`RefreshPolicy`] reacted to — or below
    /// threshold for `max_pending`-triggered and final-flush cycles).
    pub dirty_fraction: f64,
}

/// What a finished driver hands back.
#[derive(Debug)]
pub struct RefreshOutcome {
    /// The mutable sharded tree, with every accepted update applied.
    pub tree: ShardedTree,
    /// Run counters.
    pub stats: RefreshStats,
    /// Per-cycle publish history: refreeze duration and
    /// dirty-fraction-at-trigger for every completed cycle, in cycle
    /// order (`publishes.len()` = [`RefreshStats::published`]).
    pub publishes: Vec<PublishRecord>,
}

/// A background thread running the mutate → refreeze → publish lifecycle
/// against a [`Service`]. See the module docs.
#[derive(Debug)]
pub struct RefreshDriver {
    tx: Option<Sender<Update>>,
    handle: Option<JoinHandle<Result<RefreshOutcome, DriverError>>>,
    /// Mirrors the thread's counters for cheap mid-run observation.
    applied: Arc<Mutex<RefreshStats>>,
    /// Updates refused by [`RefreshDriver::apply`]; the thread never sees
    /// them, so they are counted on the caller's side.
    rejected: AtomicU64,
}

impl RefreshDriver {
    /// Starts the driver over `tree`, publishing refreshes into `service`.
    /// The service keeps serving its current snapshot until the first
    /// policy-triggered publish; callers normally start the service on
    /// `tree.freeze_all()` so generation 1 matches the tree's initial
    /// state. The driver holds `service` until its thread ends; if it is
    /// the last owner then, the service drains and closes there.
    ///
    /// # Panics
    ///
    /// Panics on a network service (there is no Euclidean snapshot to
    /// refresh), when the tree's shard count differs from the service's, or
    /// when the policy is degenerate (non-positive `dirty_fraction` or
    /// zero `max_pending`).
    pub fn start(tree: ShardedTree, service: Arc<Service>, policy: RefreshPolicy) -> RefreshDriver {
        assert!(
            service.network_backend().is_none(),
            "a network service has no Euclidean snapshot to refresh"
        );
        assert_eq!(
            tree.shard_count(),
            service.sharded_snapshot().shard_count(),
            "driver tree and service must agree on the shard count"
        );
        assert!(
            policy.dirty_fraction > 0.0,
            "dirty fraction must be positive"
        );
        assert!(policy.max_pending > 0, "max pending must be positive");
        let (tx, rx) = channel();
        let applied = Arc::new(Mutex::new(RefreshStats::default()));
        let shared = Arc::clone(&applied);
        let handle = std::thread::Builder::new()
            .name("gnn-refresh-driver".into())
            .spawn(move || driver_loop(tree, &service, policy, &rx, &shared))
            .expect("spawn refresh driver thread");
        RefreshDriver {
            tx: Some(tx),
            handle: Some(handle),
            applied,
            rejected: AtomicU64::new(0),
        }
    }

    /// Enqueues an update for the driver to apply. Returns `false` for an
    /// update whose point has a NaN or infinite coordinate — refused here,
    /// counted in [`RefreshStats::rejected`], because a published
    /// non-finite point answers the queries that reach it with a NaN
    /// distance — and once the driver thread is gone (after
    /// [`RefreshDriver::join`], a refreeze failure, or a driver panic).
    pub fn apply(&self, update: Update) -> bool {
        let (Update::Insert(LeafEntry { point, .. }) | Update::Remove { point, .. }) = update;
        if !point.is_finite() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.tx.as_ref().is_some_and(|tx| tx.send(update).is_ok())
    }

    /// Current run counters (the thread updates them after every apply and
    /// publish cycle).
    pub fn stats(&self) -> RefreshStats {
        RefreshStats {
            rejected: self.rejected.load(Ordering::Relaxed),
            ..*lock_unpoisoned(&self.applied)
        }
    }

    /// Closes the update channel, waits for the thread to drain every
    /// accepted update and perform its final flush refresh, and returns the
    /// tree, the per-cycle publish records, and the counters — or a typed
    /// [`DriverError`] when the driver panicked or a refreeze cycle failed
    /// (a value, never a re-panic in the caller).
    pub fn join(mut self) -> Result<RefreshOutcome, DriverError> {
        self.tx.take();
        let rejected = self.rejected.load(Ordering::Relaxed);
        match self.handle.take().expect("driver joined once").join() {
            Ok(outcome) => outcome.map(|mut outcome| {
                outcome.stats.rejected = rejected;
                outcome
            }),
            Err(_) => Err(DriverError::Panicked),
        }
    }
}

impl Drop for RefreshDriver {
    /// Dropping without [`RefreshDriver::join`] closes the channel so the
    /// thread drains and exits on its own, detached; its outcome is lost.
    fn drop(&mut self) {
        self.tx.take();
    }
}

fn apply_update(tree: &mut ShardedTree, update: Update, stats: &mut RefreshStats) {
    match update {
        Update::Insert(entry) => {
            tree.insert(entry);
        }
        Update::Remove { id, point } => {
            if !tree.remove(id, point) {
                stats.missed_removes += 1;
            }
        }
    }
    stats.applied += 1;
}

fn driver_loop(
    mut tree: ShardedTree,
    service: &Service,
    policy: RefreshPolicy,
    rx: &Receiver<Update>,
    shared: &Mutex<RefreshStats>,
) -> Result<RefreshOutcome, DriverError> {
    // The refreeze baseline — the only snapshot the driver holds on to.
    let mut last = service.sharded_snapshot();
    let mut stats = RefreshStats::default();
    let mut publishes = Vec::new();
    let mut pending = 0usize;
    // Refreeze cycles attempted, 1-based: the fault plan's coordinate for
    // injected refreeze failures.
    let mut cycles = 0u64;
    // Blocking receive: the policy is purely update-driven (pending counts
    // and dirty fractions only change when an update arrives), and a close
    // of the channel wakes the receiver immediately — an idle driver costs
    // nothing.
    while let Ok(update) = rx.recv() {
        apply_update(&mut tree, update, &mut stats);
        pending += 1;
        // Drain whatever else is already queued before deciding — one
        // policy check per burst, not per update.
        while let Ok(update) = rx.try_recv() {
            apply_update(&mut tree, update, &mut stats);
            pending += 1;
        }
        if pending >= policy.max_pending || tree.max_dirty_fraction(&last) >= policy.dirty_fraction
        {
            cycles += 1;
            if let Err(e) = refresh(
                &tree,
                service,
                &mut last,
                &mut stats,
                &mut publishes,
                cycles,
            ) {
                *lock_unpoisoned(shared) = stats;
                return Err(e);
            }
            pending = 0;
        }
        *lock_unpoisoned(shared) = stats;
    }
    if pending > 0 {
        // Final flush: every accepted update reaches a snapshot.
        cycles += 1;
        if let Err(e) = refresh(
            &tree,
            service,
            &mut last,
            &mut stats,
            &mut publishes,
            cycles,
        ) {
            *lock_unpoisoned(shared) = stats;
            return Err(e);
        }
    }
    *lock_unpoisoned(shared) = stats;
    Ok(RefreshOutcome {
        tree,
        stats,
        publishes,
    })
}

/// One refreeze + publish cycle. `last` chains: the published snapshot is
/// the next cycle's incremental baseline. A cycle the service's
/// [`FaultPlan`](crate::FaultPlan) marks as failing aborts the run with
/// [`DriverError::RefreezeFailed`] — the injected stand-in for a refreeze
/// hitting resource exhaustion.
fn refresh(
    tree: &ShardedTree,
    service: &Service,
    last: &mut Arc<ShardedSnapshot>,
    stats: &mut RefreshStats,
    publishes: &mut Vec<PublishRecord>,
    cycle: u64,
) -> Result<(), DriverError> {
    if service.config().fault_plan.refreeze_fails(cycle) {
        return Err(DriverError::RefreezeFailed { cycle });
    }
    // What the policy saw when this cycle triggered — recorded before the
    // refreeze resets the dirty state.
    let dirty_fraction = tree.max_dirty_fraction(last);
    let flight = &service.driver_flight;
    flight.record(FlightEventKind::RefreezeStart, cycle);
    let refreeze0 = Instant::now();
    let next = Arc::new(tree.refreeze_all(last));
    let refreeze = refreeze0.elapsed();
    flight.record(FlightEventKind::RefreezeEnd, duration_nanos(refreeze));
    let generation = service.publish_sharded(Arc::clone(&next));
    stats.published += 1;
    publishes.push(PublishRecord {
        cycle,
        generation,
        applied: stats.applied,
        refreeze,
        dirty_fraction,
    });
    *last = next;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use gnn_rtree::RTreeParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn entries(n: usize, seed: u64) -> Vec<LeafEntry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                LeafEntry::new(
                    PointId(i as u64),
                    Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
                )
            })
            .collect()
    }

    fn start_tree(n: usize, shards: usize, seed: u64) -> ShardedTree {
        ShardedTree::build(RTreeParams::with_capacity(8), entries(n, seed), shards)
    }

    /// What a generation holding exactly `updates` must be: the test's own
    /// copy of the starting tree with them replayed, frozen from scratch
    /// (refreeze ≡ freeze is pinned by the workspace `refreeze_equivalence`
    /// test).
    fn replayed(mut tree: ShardedTree, updates: &[Update]) -> ShardedSnapshot {
        let mut stats = RefreshStats::default();
        for &update in updates {
            apply_update(&mut tree, update, &mut stats);
        }
        tree.freeze_all()
    }

    fn start_pair(
        n: usize,
        shards: usize,
        seed: u64,
        policy: RefreshPolicy,
    ) -> (Arc<Service>, RefreshDriver) {
        let tree = start_tree(n, shards, seed);
        let snapshot = Arc::new(tree.freeze_all());
        let service = Arc::new(Service::start_sharded(
            snapshot,
            ServiceConfig::with_workers(shards),
        ));
        let driver = RefreshDriver::start(tree, Arc::clone(&service), policy);
        (service, driver)
    }

    #[test]
    fn updates_flow_into_published_snapshots() {
        let policy = RefreshPolicy {
            dirty_fraction: 1e-9, // every burst publishes
            ..RefreshPolicy::default()
        };
        let (service, driver) = start_pair(500, 2, 1, policy);
        let updates: Vec<Update> = (0..50u64)
            .map(|i| {
                Update::Insert(LeafEntry::new(
                    PointId(10_000 + i),
                    Point::new(i as f64, i as f64),
                ))
            })
            .collect();
        for &update in &updates {
            assert!(driver.apply(update));
        }
        // Wait until every update landed in a published snapshot.
        let mut spins = 0;
        while service.sharded_snapshot().len() < 550 {
            std::thread::yield_now();
            spins += 1;
            assert!(spins < 100_000_000, "updates never published");
        }
        let outcome = driver.join().expect("driver run failed");
        assert_eq!(outcome.stats.applied, 50);
        assert_eq!(outcome.stats.missed_removes, 0);
        assert!(outcome.stats.published >= 1);
        // Every completed cycle left a publish record, cycles in order,
        // each with the generation its publish produced.
        assert_eq!(outcome.publishes.len() as u64, outcome.stats.published);
        // The driver was the only publisher: cycle c produced generation
        // c + 1, each holding a growing prefix of the update stream.
        let mut applied = 0;
        for (i, record) in outcome.publishes.iter().enumerate() {
            assert_eq!(record.cycle, i as u64 + 1);
            assert_eq!(record.generation, i as u64 + 2);
            assert!(record.dirty_fraction >= 0.0);
            assert!(record.applied > applied, "a cycle without new updates");
            applied = record.applied;
        }
        assert_eq!(
            applied, 50,
            "final snapshot must hold every accepted update"
        );
        assert_eq!(service.generation(), outcome.publishes.len() as u64 + 1);
        assert_eq!(outcome.tree.len(), 550);
        // What is being served is the replay of that prefix, page for page.
        let want = replayed(start_tree(500, 2, 1), &updates[..applied as usize]);
        let live = service.sharded_snapshot();
        for (got, want) in live.shards().iter().zip(want.shards()) {
            assert!(**got == **want, "live snapshot diverged from the replay");
        }
        Arc::try_unwrap(service)
            .expect("driver released its handle")
            .shutdown();
    }

    #[test]
    fn shutdown_flushes_below_threshold_updates() {
        let policy = RefreshPolicy {
            dirty_fraction: 0.99, // never triggers on its own
            max_pending: 1_000_000,
        };
        let (service, driver) = start_pair(400, 2, 2, policy);
        for i in 0..10u64 {
            driver.apply(Update::Insert(LeafEntry::new(
                PointId(20_000 + i),
                Point::new(1.0 + i as f64, 2.0),
            )));
        }
        let outcome = driver.join().expect("driver run failed");
        assert_eq!(outcome.stats.applied, 10);
        assert_eq!(outcome.stats.published, 1, "exactly the final flush");
        // The flush cycle is in the history: dirty fraction below the
        // (never-triggering) policy threshold, publish accepted.
        assert_eq!(outcome.publishes.len(), 1);
        let record = outcome.publishes[0];
        assert_eq!((record.cycle, record.generation), (1, 2));
        assert!(record.dirty_fraction < 0.99);
        assert_eq!(record.applied, 10);
        assert_eq!(service.sharded_snapshot().len(), 410);
        Arc::try_unwrap(service)
            .expect("driver released its handle")
            .shutdown();
    }

    #[test]
    fn missed_removes_are_counted_not_fatal() {
        let (service, driver) = start_pair(100, 2, 3, RefreshPolicy::default());
        driver.apply(Update::Remove {
            id: PointId(999_999),
            point: Point::new(3.0, 3.0),
        });
        let outcome = driver.join().expect("driver run failed");
        assert_eq!(outcome.stats.missed_removes, 1);
        assert_eq!(outcome.tree.len(), 100);
        drop(service);
    }

    #[test]
    fn apply_fails_cleanly_after_shutdown() {
        let (service, driver) = start_pair(100, 2, 4, RefreshPolicy::default());
        let stats = driver.stats();
        assert_eq!(stats.applied, 0);
        let outcome = driver.join().expect("driver run failed");
        assert_eq!(outcome.stats.published, 0, "no updates, no publishes");
        drop(service);
    }
}
