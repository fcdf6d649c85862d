//! Deterministic fault injection and the service's fault ledger.
//!
//! Fault tolerance is only trustworthy if it is *testable*: [`FaultPlan`]
//! makes a specific worker panic on a specific query, every run, on any
//! machine. It is threaded through [`ServiceConfig`](crate::ServiceConfig)
//! and consulted by the workers and the
//! [`RefreshDriver`](crate::RefreshDriver):
//!
//! * **targeted panics** ([`FaultPlan::panic_on`]): worker `w` panics on
//!   its `n`-th executed query — the unit-test primitive;
//! * **seeded panic rates** ([`FaultPlan::seeded_panics`]): each
//!   `(worker, nth)` pair panics with probability `rate`, decided by a
//!   seeded hash, so "1% of queries panic" is reproducible bit for bit;
//! * **injected latency** ([`FaultPlan::with_query_latency`]): every query
//!   sleeps before executing, giving a test service a known, saturable
//!   capacity — the overload knob;
//! * **refreeze failure** ([`FaultPlan::fail_refreeze`]): the refresh
//!   driver's `n`-th refreeze cycle fails with a typed
//!   [`DriverError`](crate::DriverError).
//!
//! Injection happens *before* the algorithm runs, never inside it — a
//! non-faulted query's results stay bit-identical to the sequential
//! reference. An empty plan (the [`Default`]) costs one emptiness check per
//! query.
//!
//! [`FaultLedger`] is the observability half: every panic, shed request,
//! and missed deadline — injected or real — is counted into
//! [`ServiceStats::faults`](crate::ServiceStats::faults).

use std::time::Duration;

/// A deterministic plan of injected faults (see the module docs). The
/// default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Explicit `(worker, nth)` panic points, `nth` counting executed
    /// queries per worker from 1.
    panics: Vec<(usize, u64)>,
    /// `(rate, seed)`: every `(worker, nth)` panics with probability
    /// `rate`, decided by a seeded hash.
    panic_rate: Option<(f64, u64)>,
    /// Sleep injected before every query executes.
    latency: Option<Duration>,
    /// Refreeze cycles (counting from 1) the refresh driver fails on.
    refreeze_failures: Vec<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (same as [`FaultPlan::default`]).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Panics worker `worker` (0-based) on the `nth` query it executes
    /// (1-based). Chainable; duplicate points are harmless.
    ///
    /// # Panics
    ///
    /// Panics when `nth` is zero.
    pub fn panic_on(mut self, worker: usize, nth: u64) -> FaultPlan {
        assert!(nth > 0, "query numbers count from 1");
        self.panics.push((worker, nth));
        self
    }

    /// Panics every `(worker, nth)` execution with probability `rate`,
    /// decided by a hash of `(seed, worker, nth)` — the same seed yields
    /// the same fault schedule on every run and every machine.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not in `[0, 1]`.
    pub fn seeded_panics(mut self, rate: f64, seed: u64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&rate),
            "panic rate must be in [0, 1], got {rate}"
        );
        self.panic_rate = Some((rate, seed));
        self
    }

    /// Injects `latency` of sleep before every query executes — the knob
    /// that gives a test service a known, saturable capacity.
    pub fn with_query_latency(mut self, latency: Duration) -> FaultPlan {
        self.latency = Some(latency);
        self
    }

    /// Fails the refresh driver's `cycle`-th refreeze (1-based): the
    /// driver stops and [`RefreshDriver::join`](crate::RefreshDriver::join)
    /// returns [`DriverError::RefreezeFailed`](crate::DriverError).
    ///
    /// # Panics
    ///
    /// Panics when `cycle` is zero.
    pub fn fail_refreeze(mut self, cycle: u64) -> FaultPlan {
        assert!(cycle > 0, "refreeze cycles count from 1");
        self.refreeze_failures.push(cycle);
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
            && self.panic_rate.is_none()
            && self.latency.is_none()
            && self.refreeze_failures.is_empty()
    }

    /// Whether worker `worker`'s `nth` executed query (1-based) should
    /// panic under this plan.
    pub fn should_panic(&self, worker: usize, nth: u64) -> bool {
        if self.panics.contains(&(worker, nth)) {
            return true;
        }
        match self.panic_rate {
            None => false,
            Some((rate, seed)) => {
                // splitmix64-style mix of (seed, worker, nth): the top 53
                // bits become a uniform f64 in [0, 1).
                let mut z = seed
                    ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ nth.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                ((z >> 11) as f64 / (1u64 << 53) as f64) < rate
            }
        }
    }

    /// The per-query sleep the plan injects, if any.
    pub fn injected_latency(&self) -> Option<Duration> {
        self.latency
    }

    /// Whether the `cycle`-th refreeze (1-based) should fail.
    pub fn refreeze_fails(&self, cycle: u64) -> bool {
        self.refreeze_failures.contains(&cycle)
    }
}

/// Silences the default panic-hook output for **injected** panics (the
/// `"injected fault: …"` payloads a [`FaultPlan`] panic point raises),
/// forwarding every other panic to the previously installed hook.
/// Process-wide and idempotent. The worker catches injected panics, but the
/// hook runs first — a resilience run would otherwise bury its own output
/// under backtraces that are part of the experiment.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Fault-event counters, aggregated across all workers into
/// [`ServiceStats::faults`](crate::ServiceStats::faults). Every event is
/// counted whether the fault was injected by a [`FaultPlan`] or real.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Queries whose execution panicked. Each one was answered with
    /// [`QueryError::WorkerPanicked`](crate::QueryError) — a panic is a
    /// typed response, never a lost reply — once its worker had rebuilt
    /// its serving state (cursors + scratch) in place, so pool capacity is
    /// invariant under panics.
    pub panics: u64,
    /// Requests shed at dequeue because their
    /// [`deadline`](gnn_core::QueryRequest::deadline) had already expired
    /// (answered with [`QueryError::DeadlineExceeded`](crate::QueryError)).
    pub shed: u64,
    /// Requests that *executed* past their deadline: dequeued in time but
    /// answered late. They still got a normal response — this counter is
    /// the SLO-miss signal, not an error count.
    pub deadline_missed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.should_panic(0, 1));
        assert!(plan.injected_latency().is_none());
        assert!(!plan.refreeze_fails(1));
    }

    #[test]
    fn explicit_panic_points_fire_exactly_where_placed() {
        let plan = FaultPlan::none().panic_on(1, 3).panic_on(0, 1);
        assert!(!plan.is_empty());
        assert!(plan.should_panic(1, 3));
        assert!(plan.should_panic(0, 1));
        assert!(!plan.should_panic(1, 2));
        assert!(!plan.should_panic(0, 3));
        assert!(!plan.should_panic(2, 1));
    }

    #[test]
    fn seeded_rate_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::none().seeded_panics(0.05, 42);
        let again = FaultPlan::none().seeded_panics(0.05, 42);
        let mut hits = 0u64;
        for worker in 0..4 {
            for nth in 1..=2_000u64 {
                let fire = plan.should_panic(worker, nth);
                assert_eq!(fire, again.should_panic(worker, nth), "determinism");
                hits += u64::from(fire);
            }
        }
        // 8000 draws at 5%: expect ~400; a seeded hash stays well inside
        // a generous band.
        assert!((200..=600).contains(&hits), "got {hits} panics");
        // Rate 0 and 1 degenerate correctly.
        assert!(!FaultPlan::none().seeded_panics(0.0, 42).should_panic(0, 1));
        assert!(FaultPlan::none().seeded_panics(1.0, 42).should_panic(0, 1));
    }

    #[test]
    fn seed_changes_the_schedule() {
        let a = FaultPlan::none().seeded_panics(0.1, 1);
        let b = FaultPlan::none().seeded_panics(0.1, 2);
        let differs = (1..=1_000u64).any(|n| a.should_panic(0, n) != b.should_panic(0, n));
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn refreeze_failures_hit_listed_cycles_only() {
        let plan = FaultPlan::none().fail_refreeze(2).fail_refreeze(5);
        assert!(!plan.refreeze_fails(1));
        assert!(plan.refreeze_fails(2));
        assert!(!plan.refreeze_fails(3));
        assert!(plan.refreeze_fails(5));
    }

    #[test]
    #[should_panic(expected = "count from 1")]
    fn zeroth_query_rejected() {
        let _ = FaultPlan::none().panic_on(0, 0);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::none().seeded_panics(1.5, 0);
    }
}
