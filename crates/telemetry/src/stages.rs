//! Stage-level latency decomposition: one lock-free histogram per serving
//! stage, so "was that p99 spike queue wait or execution?" has an answer.
//!
//! The end-to-end submit → response latency of a served query decomposes
//! into three stages, each recorded into its own [`LatencyHistogram`] on
//! the same 976-bucket log-linear design:
//!
//! * **queue wait** — submission until a worker dequeues the request
//!   (includes late-but-served queries, so deadline tuning sees the full
//!   wait distribution, not just the on-time part);
//! * **execution** — the algorithm itself (plus any injected latency);
//! * **reply** — building/sending the response after execution ends.
//!
//! A fourth histogram, **shed wait**, records how long *shed* requests had
//! waited when the worker dropped them — the other half of the
//! deadline-tuning picture (served queries tell you the wait you
//! tolerated; shed ones tell you the wait you refused).

use crate::histogram::{LatencyHistogram, LatencySnapshot};

/// Per-stage latency histograms (one writer side per worker).
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Submission → dequeue of served queries.
    pub queue_wait: LatencyHistogram,
    /// Execution wall time of served queries.
    pub execution: LatencyHistogram,
    /// Execution end → response sent.
    pub reply: LatencyHistogram,
    /// Submission → shed decision of requests shed at dequeue.
    pub shed_wait: LatencyHistogram,
}

impl StageHistograms {
    /// Four empty histograms.
    pub fn new() -> StageHistograms {
        StageHistograms::default()
    }

    /// A point-in-time copy of all four histograms.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            queue_wait: self.queue_wait.snapshot(),
            execution: self.execution.snapshot(),
            reply: self.reply.snapshot(),
            shed_wait: self.shed_wait.snapshot(),
        }
    }
}

/// An owned snapshot of a [`StageHistograms`] set, mergeable across
/// workers. Each field exposes the usual `p50()`/`p95()`/`p99()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Submission → dequeue of served queries.
    pub queue_wait: LatencySnapshot,
    /// Execution wall time of served queries.
    pub execution: LatencySnapshot,
    /// Execution end → response sent.
    pub reply: LatencySnapshot,
    /// Submission → shed decision of shed requests.
    pub shed_wait: LatencySnapshot,
}

impl StageSnapshot {
    /// An all-empty snapshot (merge accumulator).
    pub fn empty() -> StageSnapshot {
        StageSnapshot {
            queue_wait: LatencySnapshot::empty(),
            execution: LatencySnapshot::empty(),
            reply: LatencySnapshot::empty(),
            shed_wait: LatencySnapshot::empty(),
        }
    }

    /// Component-wise merge with another snapshot.
    pub fn merge(&mut self, other: &StageSnapshot) {
        self.queue_wait.merge(&other.queue_wait);
        self.execution.merge(&other.execution);
        self.reply.merge(&other.reply);
        self.shed_wait.merge(&other.shed_wait);
    }

    /// `(name, snapshot)` pairs in stage order — what renderers iterate.
    pub fn named(&self) -> [(&'static str, &LatencySnapshot); 4] {
        [
            ("queue_wait", &self.queue_wait),
            ("execution", &self.execution),
            ("reply", &self.reply),
            ("shed_wait", &self.shed_wait),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn served_samples_land_in_all_three_stage_histograms() {
        let s = StageHistograms::new();
        for i in 1..=10u64 {
            s.queue_wait.record(Duration::from_micros(i));
            s.execution.record(Duration::from_micros(10 * i));
            s.reply.record(Duration::from_nanos(100));
        }
        let snap = s.snapshot();
        assert_eq!(snap.queue_wait.count(), 10);
        assert_eq!(snap.execution.count(), 10);
        assert_eq!(snap.reply.count(), 10);
        assert_eq!(snap.shed_wait.count(), 0);
        // The decomposition is visible: execution dominates queue wait.
        assert!(snap.execution.p50().unwrap() > snap.queue_wait.p50().unwrap());
        assert!(snap.shed_wait.p99().is_none());
    }

    #[test]
    fn merge_is_component_wise() {
        let a = StageHistograms::new();
        let b = StageHistograms::new();
        a.queue_wait.record(Duration::from_micros(1));
        a.execution.record(Duration::from_micros(2));
        a.reply.record(Duration::from_nanos(50));
        b.shed_wait.record(Duration::from_millis(3));
        let mut m = StageSnapshot::empty();
        m.merge(&a.snapshot());
        m.merge(&b.snapshot());
        assert_eq!(m.queue_wait.count(), 1);
        assert_eq!(m.shed_wait.count(), 1);
        assert!(m.shed_wait.p99().unwrap() >= Duration::from_millis(3));
        let names: Vec<_> = m.named().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["queue_wait", "execution", "reply", "shed_wait"]);
    }
}
