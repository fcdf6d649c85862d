//! Metrics export: text renderers for [`ServiceStats`] (Prometheus
//! exposition format and JSON) and a background [`StatsLogger`] that polls
//! [`Service::stats`] on an interval and hands each snapshot to a sink.
//!
//! The renderers are std-only string builders — no serializer dependency —
//! so any scrape endpoint or log shipper can embed them directly. Polling
//! is safe while traffic runs: `stats()` is atomic loads plus lock-free
//! ring snapshots, and rendering works on the returned snapshot, never on
//! live counters.

use crate::{Service, ServiceStats};
use gnn_telemetry::LatencySnapshot;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Seconds form of an optional duration for metric lines (`0` when the
/// histogram is empty — Prometheus summaries have no "absent" quantile).
fn secs(d: Option<Duration>) -> f64 {
    d.map_or(0.0, |d| d.as_secs_f64())
}

/// Appends the three summary quantile lines plus `_count` for one
/// histogram, with an optional extra label (e.g. `stage="execution"`).
fn summary(out: &mut String, name: &str, label: &str, snapshot: &LatencySnapshot) {
    let sep = if label.is_empty() { "" } else { "," };
    for (q, v) in [
        ("0.5", snapshot.p50()),
        ("0.95", snapshot.p95()),
        ("0.99", snapshot.p99()),
    ] {
        let _ = writeln!(out, "{name}{{{label}{sep}quantile=\"{q}\"}} {}", secs(v));
    }
    let _ = writeln!(out, "{name}_count{{{label}}} {}", snapshot.count());
}

impl ServiceStats {
    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters for served queries and their costs, the fault ledger, the
    /// batch counts, summary-style latency quantiles (overall, per stage,
    /// per shard), per-shard routing counters, and the flight-recorder
    /// drop counter. Quantiles are in seconds, from the 252-bucket
    /// histograms (≤ 25% relative bucket error).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let o = &mut out;
        let _ = writeln!(o, "# TYPE gnn_generation gauge");
        let _ = writeln!(o, "gnn_generation {}", self.generation);
        // Info-style gauge: the constant 1 carries the static simd_level
        // label, so dashboards can join any series against the ISA the
        // distance kernels actually dispatched to.
        let _ = writeln!(o, "# TYPE gnn_simd_level gauge");
        let _ = writeln!(o, "gnn_simd_level{{simd_level=\"{}\"}} 1", self.simd_level);
        for (name, value) in [
            ("gnn_queries_served_total", self.queries_served),
            ("gnn_node_accesses_total", self.node_accesses),
            ("gnn_io_total", self.io),
            ("gnn_dist_computations_total", self.dist_computations),
            ("gnn_single_shard_hits_total", self.single_shard_hits),
            ("gnn_batches_total", self.batches),
            ("gnn_batch_queries_total", self.batch_queries),
            ("gnn_worker_panics_total", self.faults.panics),
            ("gnn_worker_respawns_total", self.faults.respawns),
            ("gnn_shed_total", self.faults.shed),
            ("gnn_deadline_missed_total", self.faults.deadline_missed),
            ("gnn_flight_events_dropped_total", self.flight.dropped),
        ] {
            let _ = writeln!(o, "# TYPE {name} counter");
            let _ = writeln!(o, "{name} {value}");
        }
        let _ = writeln!(o, "# TYPE gnn_latency_seconds summary");
        summary(o, "gnn_latency_seconds", "", &self.latency);
        let _ = writeln!(o, "# TYPE gnn_stage_seconds summary");
        for (stage, snapshot) in self.stages.named() {
            summary(
                o,
                "gnn_stage_seconds",
                &format!("stage=\"{stage}\""),
                snapshot,
            );
        }
        let _ = writeln!(o, "# TYPE gnn_shard_routed_total counter");
        for shard in &self.per_shard {
            let _ = writeln!(
                o,
                "gnn_shard_routed_total{{shard=\"{}\"}} {}",
                shard.shard, shard.routed
            );
        }
        let _ = writeln!(o, "# TYPE gnn_shard_queries_total counter");
        for shard in &self.per_shard {
            let _ = writeln!(
                o,
                "gnn_shard_queries_total{{shard=\"{}\"}} {}",
                shard.shard, shard.queries
            );
        }
        let _ = writeln!(o, "# TYPE gnn_shard_latency_seconds summary");
        for shard in &self.per_shard {
            summary(
                o,
                "gnn_shard_latency_seconds",
                &format!("shard=\"{}\"", shard.shard),
                &shard.latency,
            );
        }
        out
    }

    /// Renders the snapshot as one JSON object (hand-built, schema-stable:
    /// counters, the fault ledger, and `{p50,p95,p99,count}`
    /// micro­second quantile objects for the overall, per-stage, and
    /// per-shard histograms). Meant for structured log lines — the
    /// [`StatsLogger`] example sink.
    pub fn render_json(&self) -> String {
        let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e6);
        let quantiles = |s: &LatencySnapshot| {
            format!(
                "{{\"p50_us\":{:.3},\"p95_us\":{:.3},\"p99_us\":{:.3},\"count\":{}}}",
                us(s.p50()),
                us(s.p95()),
                us(s.p99()),
                s.count()
            )
        };
        let mut out = String::new();
        let o = &mut out;
        let _ = write!(
            o,
            "{{\"generation\":{},\"simd_level\":\"{}\",\"queries_served\":{},\
             \"node_accesses\":{},\"io\":{},\
             \"dist_computations\":{},\"single_shard_hits\":{},\"batches\":{},\
             \"batch_queries\":{}",
            self.generation,
            self.simd_level,
            self.queries_served,
            self.node_accesses,
            self.io,
            self.dist_computations,
            self.single_shard_hits,
            self.batches,
            self.batch_queries
        );
        let _ = write!(
            o,
            ",\"faults\":{{\"panics\":{},\"respawns\":{},\"shed\":{},\"deadline_missed\":{}}}",
            self.faults.panics, self.faults.respawns, self.faults.shed, self.faults.deadline_missed
        );
        let _ = write!(o, ",\"latency\":{}", quantiles(&self.latency));
        let _ = write!(o, ",\"stages\":{{");
        for (i, (stage, snapshot)) in self.stages.named().iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(o, "{comma}\"{stage}\":{}", quantiles(snapshot));
        }
        let _ = write!(o, "}},\"shards\":[");
        for (i, shard) in self.per_shard.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(
                o,
                "{comma}{{\"shard\":{},\"routed\":{},\"queries\":{},\"latency\":{}}}",
                shard.shard,
                shard.routed,
                shard.queries,
                quantiles(&shard.latency)
            );
        }
        let _ = write!(
            o,
            "],\"flight\":{{\"events\":{},\"dropped\":{}}}}}",
            self.flight.events.len(),
            self.flight.dropped
        );
        out
    }
}

/// A background thread that polls [`Service::stats`] every `interval` and
/// hands the snapshot to a caller sink — the push half of metrics export
/// (pair [`ServiceStats::render_prometheus`] with any HTTP handler for the
/// pull half). Stops on [`StatsLogger::stop`] or drop; stopping joins the
/// thread, so the sink is never called after `stop` returns.
#[derive(Debug)]
pub struct StatsLogger {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatsLogger {
    /// Spawns the logger. The sink runs on the logger thread; keep it
    /// cheap (format + enqueue) — a slow sink delays the next poll, never
    /// the service. The first snapshot is taken after one full interval.
    pub fn start(
        service: Arc<Service>,
        interval: Duration,
        mut sink: impl FnMut(&ServiceStats) + Send + 'static,
    ) -> StatsLogger {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("gnn-stats-logger".into())
            .spawn(move || {
                // Sleep in short slices so `stop` is honored promptly even
                // with long intervals.
                let slice = interval.min(Duration::from_millis(50));
                let mut elapsed = Duration::ZERO;
                loop {
                    if stop_flag.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed >= interval {
                        elapsed = Duration::ZERO;
                        sink(&service.stats());
                    }
                }
            })
            .expect("spawn stats logger thread");
        StatsLogger {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread and joins it. Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StatsLogger {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lock_unpoisoned, ServiceConfig};
    use gnn_core::{QueryGroup, QueryRequest};
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{LeafEntry, RTree, RTreeParams};
    use std::sync::Mutex;

    fn small_service() -> Service {
        let tree = RTree::bulk_load(
            RTreeParams::with_capacity(8),
            (0..64).map(|i| {
                LeafEntry::new(
                    PointId(i as u64),
                    Point::new((i % 8) as f64 * 3.0, (i / 8) as f64 * 3.0),
                )
            }),
        );
        Service::start(Arc::new(tree.freeze()), ServiceConfig::with_workers(1))
    }

    fn run_queries(service: &Service, n: usize) {
        for i in 0..n {
            let group =
                QueryGroup::sum(vec![Point::new(i as f64, 2.0), Point::new(5.0, 9.0)]).unwrap();
            let handle = service.submit(QueryRequest::new(group, 2)).unwrap();
            handle.wait().unwrap();
        }
    }

    #[test]
    fn prometheus_rendering_carries_counters_and_quantiles() {
        let service = small_service();
        run_queries(&service, 5);
        let text = service.stats().render_prometheus();
        assert!(text.contains("gnn_queries_served_total 5"));
        assert!(text.contains("gnn_generation 1"));
        assert!(text.contains("gnn_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("gnn_latency_seconds_count{} 5"));
        assert!(text.contains("gnn_stage_seconds{stage=\"execution\",quantile=\"0.99\"}"));
        assert!(text.contains("gnn_shard_routed_total{shard=\"0\"} 5"));
        let level = gnn_geom::simd::dispatch_level().label();
        assert!(text.contains(&format!("gnn_simd_level{{simd_level=\"{level}\"}} 1")));
        // Every metric line is "name value" or "name{labels} value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "malformed line: {line}");
        }
        service.shutdown();
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let service = small_service();
        run_queries(&service, 3);
        let json = service.stats().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"queries_served\":3"));
        assert!(json.contains("\"stages\":{\"queue_wait\":"));
        assert!(json.contains("\"flight\":{"));
        let level = gnn_geom::simd::dispatch_level().label();
        assert!(json.contains(&format!("\"simd_level\":\"{level}\"")));
        // Balanced braces (a cheap structural check without a parser).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        service.shutdown();
    }

    #[test]
    fn stats_logger_delivers_snapshots_and_stops() {
        let service = Arc::new(small_service());
        run_queries(&service, 4);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let mut logger = StatsLogger::start(
            Arc::clone(&service),
            Duration::from_millis(10),
            move |stats| {
                lock_unpoisoned(&sink_seen).push(stats.queries_served);
            },
        );
        while lock_unpoisoned(&seen).is_empty() {
            std::thread::yield_now();
        }
        logger.stop();
        let collected = lock_unpoisoned(&seen).clone();
        assert!(collected.iter().all(|&q| q == 4));
        let after = collected.len();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(lock_unpoisoned(&seen).len(), after, "sink ran after stop");
        Arc::try_unwrap(service)
            .expect("logger released its handle")
            .shutdown();
    }
}
