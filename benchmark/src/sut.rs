//! The adapter: every call into the repository under test lives here.
//!
//! The rest of the benchmark holds `gnn` values only as opaque handles and
//! passes them back into this file, so this is the exact API surface the
//! benchmark keeps still — a PR that reshapes one of these entry points
//! edits this file and nothing else. Grouped by layer, bottom up:
//! `gnn-geom`, `gnn-rtree`, `gnn-core`, `gnn-network`, `gnn-service`,
//! `gnn-telemetry`, plus the seeded `gnn-datasets` generators and the
//! oracles the correctness gate compares against.
//!
//! Nothing here receives the benchmark seed or a workload name: inputs
//! arrive as generated points, requests and updates.

use gnn::core::baseline;
use gnn::core::{
    execute_batch_in, Aggregate, Algo, NetworkQuery, Planner, QueryGroup, QueryRequest,
    QueryResponse, QueryScratch, QueryStats, Target,
};
use gnn::datasets::{
    hotspot_query_workload, pp_synthetic, query_workload, trip_workload, ts_synthetic,
    uniform_points, HotspotSpec, QuerySpec, TripSpec,
};
use gnn::geom::batch::BatchKernels;
use gnn::geom::simd::{dispatch_level, force_scalar_requested, pad_len};
use gnn::geom::{PointId, Rect};
use gnn::network::{NetworkIer, NetworkSnapshot, RoadNetwork, VertexId};
use gnn::rtree::{
    LeafEntry, PackedRTree, PageRef, RTree, RTreeParams, ShardedSnapshot, ShardedTree, TreeCursor,
};
use gnn::service::{
    RefreshDriver, RefreshPolicy, ResponseHandle, Service, ServiceConfig, Submission, Update,
};
use gnn::telemetry::{FlightEventKind, FlightRecorder, LatencyHistogram, SOURCE_DRIVER};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::rng::Fnv1a;

pub use gnn::geom::Point;

/// One k-GNN query in the form every execution path accepts.
pub type Request = QueryRequest;
/// The service's reply to one [`Request`].
pub type Response = QueryResponse;
/// A pending service submission.
pub type Handle = ResponseHandle;

// ---------------------------------------------------------------- host ----

/// The SIMD dispatch level the distance kernels run at (`"avx2+fma"`, …).
pub fn simd_level() -> &'static str {
    dispatch_level().label()
}

/// Whether `GNN_FORCE_SCALAR` pins the scalar kernels.
pub fn force_scalar() -> bool {
    force_scalar_requested()
}

// ------------------------------------------------------------- datasets ----

/// The paper's two datasets (seeded synthetic stand-ins, fixed like the
/// real files they replace — the benchmark seed drives the traffic, not
/// the data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// 24 493 clustered "populated places".
    Pp,
    /// 194 971 stream centroids.
    Ts,
}

pub fn dataset(which: Dataset) -> Vec<Point> {
    match which {
        Dataset::Pp => pp_synthetic(20_040_301),
        Dataset::Ts => ts_synthetic(20_040_302),
    }
}

fn bounding(points: &[Point]) -> Rect {
    Rect::bounding(points.iter().copied()).expect("non-empty dataset")
}

/// §5.1 groups: `count` groups of `n` points uniform in a random MBR
/// covering `area` of the data workspace.
pub fn uniform_groups(
    data: &[Point],
    n: usize,
    area: f64,
    count: usize,
    seed: u64,
) -> Vec<Vec<Point>> {
    let spec = QuerySpec {
        n,
        area_fraction: area,
    };
    query_workload(bounding(data), spec, count, seed)
}

/// Serving traffic: 16 Zipf hotspots, σ = 0.03, 20 % background, groups of
/// `n` points in an MBR covering `area` of the workspace.
pub fn hotspot_groups(
    data: &[Point],
    n: usize,
    area: f64,
    count: usize,
    seed: u64,
) -> Vec<Vec<Point>> {
    let spec = HotspotSpec {
        query: QuerySpec {
            n,
            area_fraction: area,
        },
        hotspots: 16,
        sigma: 0.03,
        background: 0.2,
    };
    hotspot_query_workload(bounding(data), spec, count, seed)
}

/// `count` fresh points uniform over the data workspace (insert traffic).
pub fn fresh_points(data: &[Point], count: usize, seed: u64) -> Vec<Point> {
    uniform_points(count, bounding(data), seed)
}

// ------------------------------------------------------------- requests ----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Sum,
    Max,
    Min,
}

/// Algorithm selector: the planner's choice or one of the paper's three
/// (Euclidean) / the two network algorithms pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    Auto,
    Mbm,
    Spm,
    Mqm,
    NetworkIer,
    NetworkTa,
}

pub fn request(points: Vec<Point>, k: usize, agg: Agg, pin: Pin) -> Request {
    let aggregate = match agg {
        Agg::Sum => Aggregate::Sum,
        Agg::Max => Aggregate::Max,
        Agg::Min => Aggregate::Min,
    };
    let algo = match pin {
        Pin::Auto => Algo::Auto,
        Pin::Mbm => Algo::Mbm,
        Pin::Spm => Algo::Spm,
        Pin::Mqm => Algo::Mqm,
        Pin::NetworkIer => Algo::NetworkIer,
        Pin::NetworkTa => Algo::NetworkTa,
    };
    let group = QueryGroup::with_aggregate(points, aggregate).expect("generated groups are valid");
    QueryRequest::with_algo(group, k, algo)
}

/// A road-network request with its source vertices pinned.
pub fn network_request(points: Vec<Point>, sources: Vec<u32>, k: usize, pin: Pin) -> Request {
    request(points, k, Agg::Sum, pin).with_network(NetworkQuery::at_vertices(sources))
}

/// The same request asking the service for its per-query stage timings.
pub fn with_stage_trace(request: &Request) -> Request {
    request.clone().with_trace()
}

/// Number of query points in the request's group.
#[cfg(test)]
pub fn group_len(request: &Request) -> usize {
    request.group.len()
}

/// FNV-1a fingerprint of everything that defines `requests`.
pub fn fingerprint_requests(requests: &[Request]) -> u64 {
    let mut into = Fnv1a::new();
    for request in requests {
        into.write_u64(request.k as u64);
        into.write_u64(request.group.aggregate() as u64);
        into.write_u64(request.algo as u64);
        for p in request.group.points() {
            into.write_f64(p.x);
            into.write_f64(p.y);
        }
        for &s in request.network.iter().flat_map(|n| &n.sources) {
            into.write_u64(u64::from(s));
        }
    }
    into.finish()
}

// -------------------------------------------------------------- answers ----

/// What the bit-identity gate compares: a hash of the neighbour ids and
/// distance bits in rank order, plus the paper's node-access count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub answer: u64,
    pub node_accesses: u64,
}

/// Cost counters of one query, as the program under test reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Logical R-tree node accesses (the paper's NA).
    pub node_accesses: u64,
    /// Pages read after the buffer pool (equals NA on unbuffered cursors).
    pub pages: u64,
    pub dist_evals: u64,
    /// Dijkstra vertices settled / edges relaxed (network backend only).
    pub settled: u64,
    pub relaxed: u64,
}

/// `(id, distance bits)` in rank order — the form the oracles return.
pub type Ranked = Vec<(u64, u64)>;

fn ranked(neighbors: &[gnn::core::Neighbor]) -> Ranked {
    neighbors
        .iter()
        .map(|n| (n.id.0, n.dist.to_bits()))
        .collect()
}

fn digest_of(neighbors: &[gnn::core::Neighbor], stats: &QueryStats) -> Digest {
    let mut h = Fnv1a::new();
    for n in neighbors {
        h.write_u64(n.id.0);
        h.write_f64(n.dist);
    }
    Digest {
        answer: h.finish(),
        node_accesses: stats.data_tree.logical,
    }
}

fn counts_of(stats: &QueryStats) -> Counts {
    Counts {
        node_accesses: stats.data_tree.logical,
        pages: stats.data_tree.io,
        dist_evals: stats.dist_computations,
        settled: stats.settled_vertices,
        relaxed: stats.relaxed_edges,
    }
}

/// The borrowed outcome of one direct execution.
pub struct Executed<'s> {
    neighbors: &'s [gnn::core::Neighbor],
    stats: QueryStats,
    /// Shards the cross-shard merge ran on (1 off the sharded path).
    pub shards_consulted: u32,
}

impl Executed<'_> {
    pub fn digest(&self) -> Digest {
        digest_of(self.neighbors, &self.stats)
    }

    pub fn counts(&self) -> Counts {
        counts_of(&self.stats)
    }

    pub fn ranked(&self) -> Ranked {
        ranked(self.neighbors)
    }
}

// --------------------------------------------------------------- oracles ----

/// Exact answer by scanning `data` (ids are slice positions).
pub fn linear_scan(data: &[Point], request: &Request) -> Ranked {
    ranked(&baseline::linear_scan_points(data, &request.group, request.k).neighbors)
}

/// Exact answer by scanning explicit `(id, point)` entries.
pub fn linear_scan_entries(entries: &[(u64, Point)], request: &Request) -> Ranked {
    let entries = entries
        .iter()
        .map(|&(id, p)| LeafEntry::new(PointId(id), p));
    ranked(&baseline::linear_scan_entries(entries, &request.group, request.k).neighbors)
}

/// The arena IER reference for a pinned-source network request.
pub fn network_reference(roads: &Roads, request: &Request) -> Ranked {
    let sources: Vec<VertexId> = request
        .network
        .as_ref()
        .expect("network requests pin their sources")
        .sources
        .iter()
        .map(|&s| VertexId(s))
        .collect();
    NetworkIer
        .k_gnn(
            &roads.arena,
            &roads.data,
            &sources,
            request.k,
            request.group.aggregate(),
        )
        .neighbors
        .iter()
        .map(|n| (u64::from(n.vertex.0), n.dist.to_bits()))
        .collect()
}

// ------------------------------------------------------------- gnn-geom ----

/// Lane-padded arrays shaped like one internal page (fan-out 50) facing a
/// large group: what the padded `BatchKernels::auto()` entries see on the
/// kernel-bound workload.
pub struct KernelArena {
    spans: usize,
    fanout: usize,
    stride: usize,
    lo_x: Vec<f64>,
    lo_y: Vec<f64>,
    hi_x: Vec<f64>,
    hi_y: Vec<f64>,
    qx: Vec<f64>,
    qy: Vec<f64>,
    w: Vec<f64>,
    probe: Point,
    probe_rect: Rect,
    out: Vec<f64>,
}

impl KernelArena {
    /// `spans` page-shaped spans of `fanout` entries cut from `data`, and a
    /// group of `group` query points.
    pub fn new(data: &[Point], spans: usize, fanout: usize, group: &[Point]) -> Self {
        let stride = pad_len(fanout);
        assert!(data.len() >= 2 * spans * fanout, "not enough points");
        let mut arena = KernelArena {
            spans,
            fanout,
            stride,
            lo_x: vec![f64::MAX; spans * stride],
            lo_y: vec![f64::MAX; spans * stride],
            hi_x: vec![f64::MAX; spans * stride],
            hi_y: vec![f64::MAX; spans * stride],
            qx: group.iter().map(|p| p.x).collect(),
            qy: group.iter().map(|p| p.y).collect(),
            w: vec![1.0; group.len()],
            probe: group[0],
            probe_rect: bounding(group),
            out: Vec::with_capacity(stride),
        };
        for (i, pair) in data[..2 * spans * fanout].chunks_exact(2).enumerate() {
            let at = (i / fanout) * stride + i % fanout;
            arena.lo_x[at] = pair[0].x.min(pair[1].x);
            arena.hi_x[at] = pair[0].x.max(pair[1].x);
            arena.lo_y[at] = pair[0].y.min(pair[1].y);
            arena.hi_y[at] = pair[0].y.max(pair[1].y);
        }
        arena
    }

    pub fn spans(&self) -> usize {
        self.spans
    }

    /// Elements one call over span `s` produces (the fan-out).
    pub fn span_len(&self) -> usize {
        self.fanout
    }

    pub fn group_len(&self) -> usize {
        self.qx.len()
    }

    fn range(&self, s: usize) -> std::ops::Range<usize> {
        s * self.stride..(s + 1) * self.stride
    }

    /// `mindist²(rect_i, M)` over span `s` (MBM's heuristic-2 page filter).
    pub fn rects_mindist_rect(&mut self, s: usize) -> f64 {
        let r = self.range(s);
        BatchKernels::auto().rects_mindist_sq_rect_padded(
            &self.lo_x[r.clone()],
            &self.lo_y[r.clone()],
            &self.hi_x[r.clone()],
            &self.hi_y[r],
            self.fanout,
            &self.probe_rect,
            &mut self.out,
        );
        self.out[0]
    }

    /// `|p_i q|²` over span `s` (one query point against a leaf).
    pub fn points_dist_sq(&mut self, s: usize) -> f64 {
        let r = self.range(s);
        BatchKernels::auto().points_dist_sq_padded(
            &self.lo_x[r.clone()],
            &self.lo_y[r],
            self.fanout,
            self.probe,
            &mut self.out,
        );
        self.out[0]
    }

    /// `Σ_j w_j |p_i q_j|` over span `s` (SUM aggregate of a leaf).
    pub fn points_wsum_multi(&mut self, s: usize) -> f64 {
        let r = self.range(s);
        BatchKernels::auto().points_weighted_dist_sum_multi_padded(
            &self.lo_x[r.clone()],
            &self.lo_y[r],
            self.fanout,
            &self.qx,
            &self.qy,
            &self.w,
            &mut self.out,
        );
        self.out[0]
    }

    /// `max_j |p_i q_j|²` over span `s` (MAX aggregate of a leaf).
    pub fn points_max_multi(&mut self, s: usize) -> f64 {
        let r = self.range(s);
        BatchKernels::auto().points_dist_sq_max_multi_padded(
            &self.lo_x[r.clone()],
            &self.lo_y[r],
            self.fanout,
            &self.qx,
            &self.qy,
            &mut self.out,
        );
        self.out[0]
    }
}

// ------------------------------------------------------------ gnn-rtree ----

fn entries(points: &[Point]) -> impl Iterator<Item = LeafEntry> + '_ {
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p))
}

/// The mutable arena R\*-tree (default `RTreeParams`: 50 entries/page).
pub struct Tree(RTree);

/// The read-optimised packed snapshot every query path serves from.
#[derive(Clone)]
pub struct Snapshot(Arc<PackedRTree>);

impl Tree {
    /// `RTree::bulk_load` (STR); ids are slice positions.
    pub fn bulk_load(points: &[Point]) -> Tree {
        Tree(RTree::bulk_load(RTreeParams::default(), entries(points)))
    }

    pub fn freeze(&self) -> Snapshot {
        Snapshot(Arc::new(self.0.freeze()))
    }

    /// Incremental refreeze against the previous snapshot of this tree.
    pub fn refreeze(&self, prev: &Snapshot) -> Snapshot {
        Snapshot(Arc::new(self.0.refreeze(&prev.0)))
    }

    pub fn insert(&mut self, id: u64, point: Point) {
        self.0.insert(LeafEntry::new(PointId(id), point));
    }

    pub fn remove(&mut self, id: u64, point: Point) -> bool {
        self.0.remove(PointId(id), point)
    }

    /// Share of pages dirtied since `prev`.
    pub fn dirty_fraction(&self, prev: &Snapshot) -> f64 {
        self.0.dirty_page_count(&prev.0) as f64 / self.0.node_count().max(1) as f64
    }
}

impl Snapshot {
    pub fn pages(&self) -> usize {
        self.0.node_count()
    }

    /// `TreeCursor::read` over every page in breadth-first order; returns
    /// the pages read and the entries seen (so the reads cannot be elided).
    pub fn read_all_pages(&self) -> (usize, usize) {
        let cursor = self.0.cursor();
        let mut queue = std::collections::VecDeque::from([cursor.root()]);
        let (mut pages, mut seen) = (0usize, 0usize);
        while let Some(id) = queue.pop_front() {
            pages += 1;
            match cursor.read(id) {
                PageRef::Leaf(leaf) => seen += leaf.entries().len(),
                PageRef::Internal(branches) => {
                    seen += branches.len();
                    queue.extend((0..branches.len()).map(|i| branches.child(i)));
                }
            }
        }
        (pages, seen)
    }

    /// `PackedRTree::partition` into `shards` Hilbert ranges.
    pub fn partition(&self, shards: usize) -> ShardedSnap {
        ShardedSnap(Arc::new(self.0.partition(shards)))
    }
}

/// A mutable tree split into Hilbert-range shards (the write side of the
/// live-update workload).
pub struct ShardedArena(ShardedTree);

#[derive(Clone)]
pub struct ShardedSnap(Arc<ShardedSnapshot>);

impl ShardedArena {
    pub fn build(points: &[Point], shards: usize) -> ShardedArena {
        ShardedArena(ShardedTree::build(
            RTreeParams::default(),
            entries(points),
            shards,
        ))
    }

    pub fn freeze_all(&self) -> ShardedSnap {
        ShardedSnap(Arc::new(self.0.freeze_all()))
    }
}

// ------------------------------------------------------------- gnn-core ----

enum Backend<'t> {
    Single(TreeCursor<'t>),
    Sharded {
        snapshot: &'t ShardedSnapshot,
        cursors: Vec<TreeCursor<'t>>,
    },
    Network(&'t NetworkSnapshot),
}

/// One thread's direct execution context: a target, the planner, and a
/// scratch that stays warm across calls (`QueryRequest::execute_on`).
pub struct Runner<'t> {
    backend: Backend<'t>,
    planner: Planner,
    scratch: QueryScratch,
}

impl<'t> Runner<'t> {
    fn over(backend: Backend<'t>) -> Self {
        Runner {
            backend,
            planner: Planner::new(),
            scratch: QueryScratch::new(),
        }
    }

    /// `Target::Single` over a packed snapshot.
    pub fn single(snapshot: &'t Snapshot) -> Self {
        Self::over(Backend::Single(snapshot.0.cursor()))
    }

    /// `Target::Sharded` with one cursor per shard.
    pub fn sharded(snapshot: &'t ShardedSnap) -> Self {
        Self::over(Backend::Sharded {
            snapshot: &snapshot.0,
            cursors: snapshot.0.shards().iter().map(|s| s.cursor()).collect(),
        })
    }

    /// `Target::Network` over a packed road-network snapshot.
    pub fn network(roads: &'t Roads) -> Self {
        Self::over(Backend::Network(&roads.snapshot))
    }

    /// One `execute_on` call. Time this call, nothing else.
    #[inline]
    pub fn execute(&mut self, request: &Request) -> Executed<'_> {
        let target = match &self.backend {
            Backend::Single(cursor) => Target::Single(cursor),
            Backend::Sharded { snapshot, cursors } => Target::Sharded { snapshot, cursors },
            Backend::Network(snapshot) => Target::Network(*snapshot),
        };
        let (_, neighbors, stats, routing) =
            request.execute_on(&self.planner, &target, &mut self.scratch);
        Executed {
            neighbors,
            stats,
            shards_consulted: routing.consulted,
        }
    }

    /// One `execute_batch_in` call over `requests`; `sink` sees each
    /// request's index and digest. Returns `(unique, sequential)` pages.
    pub fn execute_batch(
        &mut self,
        requests: &[Request],
        mut sink: impl FnMut(usize, Digest),
    ) -> (u64, u64) {
        let target = match &self.backend {
            Backend::Single(cursor) => Target::Single(cursor),
            Backend::Sharded { snapshot, cursors } => Target::Sharded { snapshot, cursors },
            Backend::Network(snapshot) => Target::Network(*snapshot),
        };
        let accounting = execute_batch_in(
            &self.planner,
            &target,
            requests,
            &mut self.scratch,
            |index, _, neighbors, stats, _| sink(index, digest_of(neighbors, stats)),
        );
        (accounting.unique_pages, accounting.sequential_pages)
    }
}

// ---------------------------------------------------------- gnn-network ----

/// A road network with data objects on some vertices: the arena graph (for
/// trip generation and the reference algorithm) and its packed serving
/// snapshot.
pub struct Roads {
    arena: RoadNetwork,
    data: Vec<VertexId>,
    snapshot: NetworkSnapshot,
}

impl Roads {
    /// `RoadNetwork::grid(w, h, perturb, seed)`, every vertex in
    /// `data_vertices` a data object, frozen into a `NetworkSnapshot`.
    /// Returns the roads and the time `RoadNetwork::freeze` took.
    pub fn grid(
        w: usize,
        h: usize,
        perturb: f64,
        seed: u64,
        data_vertices: &[u32],
    ) -> (Roads, Duration) {
        let arena = RoadNetwork::grid(w, h, perturb, seed);
        let data: Vec<VertexId> = data_vertices.iter().map(|&v| VertexId(v)).collect();
        let t0 = Instant::now();
        let graph = arena.freeze();
        let freeze = t0.elapsed();
        let snapshot = NetworkSnapshot::new(graph, data.clone());
        (
            Roads {
                arena,
                data,
                snapshot,
            },
            freeze,
        )
    }

    /// `trip_workload`: `count` groups of 4 commuters, each partway along
    /// a shortest-path trip; returns member positions and their vertices.
    pub fn trip_groups(&self, count: usize, seed: u64) -> Vec<(Vec<Point>, Vec<u32>)> {
        trip_workload(&self.arena, TripSpec::default(), count, seed)
            .into_iter()
            .map(|t| (t.points, t.sources.iter().map(|v| v.0).collect()))
            .collect()
    }
}

// ---------------------------------------------------------- gnn-service ----

/// The serving engine behind one handle, whichever way it was started.
pub struct Served(Arc<Service>);

/// Point-in-time service counters the benchmark reads at segment
/// boundaries (`Service::stats`).
#[derive(Debug, Clone, Default)]
pub struct ServiceCounters {
    pub busy: Duration,
    pub workers: usize,
    pub shed: u64,
    pub panics: u64,
    pub flight_dropped: u64,
    /// `(refreeze → published)` gaps of the refresh driver's cycles still
    /// in the flight recorder, nanoseconds.
    pub publish_gaps_ns: Vec<u64>,
}

impl Served {
    fn config(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            queue_depth: 1024,
            ..ServiceConfig::default()
        }
    }

    /// `Service::start`, default configuration except `workers`.
    pub fn start(snapshot: &Snapshot, workers: usize) -> Served {
        Served(Arc::new(Service::start(
            Arc::clone(&snapshot.0),
            Self::config(workers),
        )))
    }

    /// The same with the flight recorder switched off (`flight_recorder: 0`).
    pub fn start_without_flight_recorder(snapshot: &Snapshot, workers: usize) -> Served {
        let config = ServiceConfig {
            flight_recorder: 0,
            ..Self::config(workers)
        };
        Served(Arc::new(Service::start(Arc::clone(&snapshot.0), config)))
    }

    /// `Service::start_sharded`, one worker per shard.
    pub fn start_sharded(snapshot: &ShardedSnap) -> Served {
        let workers = snapshot.0.shard_count();
        Served(Arc::new(Service::start_sharded(
            Arc::clone(&snapshot.0),
            Self::config(workers),
        )))
    }

    /// `Service::sharded_snapshot`: the generation currently published.
    pub fn sharded_snapshot(&self) -> ShardedSnap {
        ShardedSnap(self.0.sharded_snapshot())
    }

    /// `Service::submit` of one prepared request (blocking on a full
    /// queue). `None` when the service refused it.
    #[inline]
    pub fn submit(&self, request: Request) -> Option<Handle> {
        self.0.submit(Submission::request(request)).ok()
    }

    /// `Service::stats`.
    pub fn counters(&self) -> ServiceCounters {
        let stats = self.0.stats();
        let mut refreeze_end = None;
        let mut publish_gaps_ns = Vec::new();
        for e in &stats.flight.events {
            match e.kind {
                FlightEventKind::RefreezeEnd if e.source == SOURCE_DRIVER => {
                    refreeze_end = Some(e.ts_nanos);
                }
                FlightEventKind::Published => {
                    if let Some(t) = refreeze_end.take() {
                        publish_gaps_ns.push(e.ts_nanos.saturating_sub(t));
                    }
                }
                _ => {}
            }
        }
        ServiceCounters {
            busy: stats.per_worker.iter().map(|w| w.busy).sum(),
            workers: stats.per_worker.len(),
            shed: stats.faults.shed,
            panics: stats.faults.panics,
            flight_dropped: stats.flight.dropped,
            publish_gaps_ns,
        }
    }

    /// `Service::shutdown`: drains, joins the workers, returns the final
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics while a [`Refresher`] still shares the service.
    pub fn shutdown(self) -> ServiceCounters {
        let counters = self.counters();
        let service = Arc::try_unwrap(self.0)
            .unwrap_or_else(|_| panic!("join the refresh driver before shutting down"));
        service.shutdown();
        counters
    }
}

/// `ResponseHandle::poll`: `Some(None)` is a failed request.
#[inline]
pub fn poll(handle: &mut Handle) -> Option<Option<Response>> {
    handle.poll().map(Result::ok)
}

/// `ResponseHandle::wait` (blocking); `None` is a failed request.
#[inline]
pub fn wait(handle: Handle) -> Option<Response> {
    handle.wait().ok()
}

pub fn response_digest(response: &Response) -> Digest {
    digest_of(&response.neighbors, &response.stats)
}

pub fn response_counts(response: &Response) -> Counts {
    counts_of(&response.stats)
}

pub fn response_ranked(response: &Response) -> Ranked {
    ranked(&response.neighbors)
}

/// The snapshot generation that served the request.
pub fn response_generation(response: &Response) -> u64 {
    response.generation
}

/// The shard whose pool served the request (its merge's primary shard).
pub fn response_primary_shard(response: &Response) -> u32 {
    response.routing.primary
}

/// Whether the reply holds exactly `k` neighbours in ascending distance.
pub fn response_is_sorted_k(response: &Response, k: usize) -> bool {
    response.neighbors.len() == k
        && response
            .neighbors
            .windows(2)
            .all(|w| w[0].dist <= w[1].dist)
}

/// `(queue wait, execution)` from the opt-in `QueryTrace`, nanoseconds.
pub fn response_stages(response: &Response) -> Option<(u64, u64)> {
    response.trace.map(|t| {
        (
            t.queue_wait.as_nanos() as u64,
            t.execution.as_nanos() as u64,
        )
    })
}

/// The `RefreshDriver`: owns the sharded tree on its own thread, applies
/// updates, refreezes and publishes on the policy.
pub struct Refresher(RefreshDriver);

/// What a joined driver hands back.
#[derive(Debug, Clone, Default)]
pub struct RefreshOutcome {
    pub applied: u64,
    pub missed_removes: u64,
    pub published: u64,
    /// Per publish cycle: live `refreeze_all` time and the dirty fraction
    /// that triggered it.
    pub cycles: Vec<(Duration, f64)>,
    /// Points in the driver's final tree.
    pub final_len: usize,
}

impl Refresher {
    /// `RefreshDriver::start` with `RefreshPolicy { dirty_fraction, max_pending }`.
    pub fn start(
        tree: ShardedArena,
        service: &Served,
        dirty_fraction: f64,
        max_pending: usize,
    ) -> Refresher {
        let policy = RefreshPolicy {
            dirty_fraction,
            max_pending,
        };
        Refresher(RefreshDriver::start(tree.0, Arc::clone(&service.0), policy))
    }

    /// `RefreshDriver::apply(Update::Insert)`.
    #[inline]
    pub fn insert(&self, id: u64, point: Point) -> bool {
        self.0
            .apply(Update::Insert(LeafEntry::new(PointId(id), point)))
    }

    /// `RefreshDriver::apply(Update::Remove)`.
    #[inline]
    pub fn remove(&self, id: u64, point: Point) -> bool {
        self.0.apply(Update::Remove {
            id: PointId(id),
            point,
        })
    }

    /// `RefreshDriver::stats`: updates applied so far. The driver stores it
    /// after any refreeze the update triggered, so once it reads what was
    /// sent the driver is idle.
    pub fn applied(&self) -> u64 {
        self.0.stats().applied
    }

    /// `RefreshDriver::join`; `None` when the driver failed.
    pub fn join(self) -> Option<RefreshOutcome> {
        let outcome = self.0.join().ok()?;
        Some(RefreshOutcome {
            applied: outcome.stats.applied,
            missed_removes: outcome.stats.missed_removes,
            published: outcome.stats.published,
            cycles: outcome
                .publishes
                .iter()
                .map(|p| (p.refreeze, p.dirty_fraction))
                .collect(),
            final_len: outcome.tree.len(),
        })
    }
}

// -------------------------------------------------------- gnn-telemetry ----

/// A `LatencyHistogram` to time `record` on.
pub struct Histogram(LatencyHistogram);

impl Histogram {
    pub fn new() -> Self {
        Histogram(LatencyHistogram::new())
    }

    #[inline]
    pub fn record(&self, nanos: u64) {
        self.0.record(Duration::from_nanos(nanos));
    }

    pub fn count(&self) -> u64 {
        self.0.snapshot().count()
    }
}

/// A `FlightRecorder` ring (the service's default capacity) to time
/// `record` on.
pub struct Recorder(FlightRecorder);

impl Recorder {
    pub fn new() -> Self {
        Recorder(FlightRecorder::new(
            0,
            ServiceConfig::default().flight_recorder,
            Instant::now(),
        ))
    }

    #[inline]
    pub fn record(&self, payload: u64) {
        self.0.record(FlightEventKind::ExecEnd, payload);
    }

    pub fn dropped(&self) -> u64 {
        self.0.snapshot().dropped
    }
}
