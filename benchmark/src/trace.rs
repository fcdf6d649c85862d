//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call into a layer's public functions in a span
//! (`{name, start_ns, end_ns, parent, request_id}`), keeps the spans in
//! memory, and writes them to `out/trace-<workload>.jsonl` when the run
//! ends. Counts measured at the same boundary (node accesses, distance
//! evaluations, the service's own stage timings) ride on the span. Spans
//! are recorded from the benchmark's files only — nothing inside the
//! program under test is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request share its identifier; set-up spans carry none.
    pub request_id: Option<u64>,
    /// Counts observed at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's epoch to `at` (0 for earlier instants).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request_id: Option<u64>,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, start_ns, end_ns.max(start_ns), parent, request_id)
    }

    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request_id: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
            counts: Vec::new(),
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn count(&mut self, span: SpanId, name: &'static str, value: u64) {
        self.spans[span as usize].counts.push((name, value));
    }

    /// Appends `other`'s spans (recorded against its own epoch) after this
    /// tracer's, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        let shift = self.ns(other.epoch);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Values of count `count` on every span called `name`.
    pub fn counts(&self, name: &str, count: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.counts.iter().find(|(c, _)| *c == count).map(|&(_, v)| v))
            .collect()
    }

    /// Self time of every span called `name`: its duration minus the part
    /// of its interval that its direct children cover (overlapping children
    /// are not double-counted; children are clipped to the parent).
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// One JSON object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"request_id\":");
            match s.request_id {
                Some(r) => {
                    let _ = write!(out, "{r}");
                }
                None => out.push_str("null"),
            }
            if !s.counts.is_empty() {
                out.push_str(",\"counts\":{");
                for (i, (name, value)) in s.counts.iter().enumerate() {
                    let _ = write!(out, "{}\"{name}\":{value}", if i > 0 { "," } else { "" });
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_does_not_double_count_overlapping_children() {
        let mut t = Tracer::new();
        let root = t.record_ns("request", 100, 1_100, None, Some(1));
        // Two children overlapping on [400, 600], one clipped at the
        // parent's end, one grandchild that must not count against root.
        let a = t.record_ns("submit", 200, 600, Some(root), Some(1));
        t.record_ns("wait", 400, 800, Some(root), Some(1));
        t.record_ns("late", 1_000, 1_500, Some(root), Some(1));
        t.record_ns("inner", 250, 300, Some(a), Some(1));
        // Union of children inside the parent: [200,800] + [1000,1100] = 700.
        assert_eq!(t.self_times("request"), vec![300]);
        assert_eq!(t.self_times("submit"), vec![350]);
        assert_eq!(t.self_times("inner"), vec![50]);
        assert_eq!(t.durations("wait"), vec![400]);

        // Absorbed spans keep their tree and their self times.
        let mut all = Tracer::new();
        all.record_ns("setup", 0, 10, None, None);
        all.absorb(t);
        assert_eq!(all.self_times("request"), vec![300]);
        assert_eq!(all.self_times("submit"), vec![350]);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_counts() {
        let mut t = Tracer::new();
        let s = t.record_ns("core.execute_on", 5, 9, None, Some(42));
        t.count(s, "node_accesses", 44);
        t.record_ns("setup", 0, 3, None, None);
        assert_eq!(t.counts("core.execute_on", "node_accesses"), vec![44]);
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\":0,\"name\":\"core.execute_on\",\"start_ns\":5,\"end_ns\":9,\
             \"parent\":null,\"request_id\":42,\"counts\":{\"node_accesses\":44}}"
        );
        assert!(lines[1].contains("\"request_id\":null"));
    }
}
