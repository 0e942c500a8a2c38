//! Low-overhead observability: latency histograms, per-stage request
//! timing, named counters, and trace IDs.
//!
//! The serving tier (engine → cache → server → router)
//! keeps its lifetime counters in atomics where they are incremented;
//! a [`MetricsSnapshot`] copies them out as named [`Counter`]s (every
//! name is declared once, in [`counter`]) next to the per-stage latency
//! histograms, and is the one telemetry value: one codec (the protocol's
//! `Metrics` frame), one merge, one Prometheus and one text rendering.
//! The histogram design constraints are the ones of a hot query path
//! answering in microseconds:
//!
//! - **Log2 buckets.** A [`LatencyHistogram`] has one bucket per power of
//!   two of nanoseconds ([`NUM_BUCKETS`] of them), so recording is a
//!   `leading_zeros` plus one relaxed `fetch_add` — no floating point, no
//!   locks, and two histograms merge bucket-wise, which keeps quantiles
//!   well-defined after aggregation (the router merges replica histograms
//!   this way).
//! - **Sharding.** A [`Metrics`] registry spreads its histograms over
//!   [`NUM_SHARDS`] shards selected by a per-thread round-robin tag, so
//!   concurrent workers do not contend on the same cache lines.
//!   [`Metrics::snapshot`] folds the shards back together.
//! - **Always on.** Instrumentation is enabled by default and cheap
//!   enough to stay on; [`Metrics::set_enabled`] exists so the `obs`
//!   tripwire can show answers do not depend on it, not so production
//!   turns it off.
//!
//! Per-request stage timing ([`Stage`]) is collected into a small
//! workspace scratch ([`ObsScratch`]) while a request executes, then
//! flushed into the registry under the request's
//! [`QueryMode`] — batch-scoped stages (queue wait, wire encode)
//! land under the synthetic `batch` mode instead. [`TraceId`]s ride the
//! protocol frame envelope from client through router to replicas and
//! key the threshold-triggered slow-query log (see `docs/observability.md`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::request::QueryMode;

/// Number of log2 nanosecond buckets per histogram. Bucket `i` counts
/// samples in `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0 ns), so the
/// top bucket starts at `2^39` ns ≈ 9 minutes — far beyond any latency
/// this stack can legitimately produce.
pub const NUM_BUCKETS: usize = 40;

/// Number of shards a [`Metrics`] registry spreads its histograms over.
pub const NUM_SHARDS: usize = 8;

/// Bucket index of a nanosecond sample: `floor(log2(ns))`, clamped into
/// the bucket range (0 ns lands in bucket 0).
fn bucket_of(ns: u64) -> usize {
    if ns < 2 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive upper bound (in ns) of bucket `i`, saturating at the top.
fn bucket_upper(i: usize) -> u64 {
    // The top bucket is open-ended: it absorbs everything `bucket_of`
    // clamps into it, so its upper bound must not understate them.
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A mergeable log2-bucketed latency histogram over atomic counters.
///
/// Recording is lock-free (relaxed atomics); reading goes through
/// [`LatencyHistogram::snapshot`], which yields an immutable
/// [`HistogramSnapshot`] with quantile accessors. This is the one
/// quantile implementation in the codebase — `qbs client --ping` feeds
/// its round trips through it just like the server feeds request stages.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty, so `fetch_min` needs no empty special case.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_ns(saturating_ns(d));
    }

    /// Records one sample in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes an immutable copy of the current state. Concurrent recording
    /// keeps running; the snapshot is internally consistent enough for
    /// monitoring (counts and sums are read independently).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable, mergeable, wire-encodable copy of a
/// [`LatencyHistogram`]. Quantiles are answered from the log2 buckets:
/// the reported value is the inclusive upper bound of the bucket the
/// requested rank falls into, clamped into `[min, max]` — so `p50 ≤ p90 ≤
/// p99 ≤ max` always holds, and merging two snapshots bucket-wise yields
/// exactly the snapshot of the concatenated samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (log2 ns buckets; may be empty for a
    /// histogram that never recorded).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, in ns.
    pub sum: u64,
    /// Smallest sample, in ns (0 when empty).
    pub min: u64,
    /// Largest sample, in ns (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one, bucket-wise. The result is
    /// identical to a snapshot taken over the concatenation of both
    /// sample sets.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        if self.count == 0 {
            self.min = other.min;
        } else {
            self.min = self.min.min(other.min);
        }
        self.count += other.count;
        // Wrapping to match the atomic `fetch_add` accumulation path, so
        // merge(a, b) stays bit-identical to recording a ++ b.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` (0.0 ..= 1.0), in ns: the upper bound of
    /// the bucket holding the `ceil(q · count)`-th sample, clamped into
    /// `[min, max]`. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median sample, in ns.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile sample, in ns.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile sample, in ns.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample, in ns (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Whether the snapshot holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Formats a nanosecond figure as fractional milliseconds (for human
/// rendering; the wire always carries ns).
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A stage of the request path, the label axis of the per-stage latency
/// histograms. Request-scoped stages (sketch bound through execute) are
/// recorded under the request's [`QueryMode`]; batch-scoped stages (queue
/// wait, wire encode) are recorded once per batch under the synthetic
/// `batch` mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Time a batch spent queued between the reactor and a worker.
    QueueWait,
    /// Endpoint label fill plus the sketch, or the `d⊤` bound alone in
    /// distance mode.
    SketchBound,
    /// Guided bidirectional search (full or distance-only).
    GuidedSearch,
    /// Answer-cache lookup.
    CacheLookup,
    /// Answer-cache admission.
    CacheAdmit,
    /// Whole per-request execution in the query door, from its first
    /// clock read to its last (cache lookup through cache admission).
    Execute,
    /// Encoding the response frame onto the wire.
    WireEncode,
}

impl Stage {
    /// Every stage, in recording order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::QueueWait,
        Stage::SketchBound,
        Stage::GuidedSearch,
        Stage::CacheLookup,
        Stage::CacheAdmit,
        Stage::Execute,
        Stage::WireEncode,
    ];

    /// Stable snake_case label (metric label value, slow-query log key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::SketchBound => "sketch_bound",
            Stage::GuidedSearch => "guided_search",
            Stage::CacheLookup => "cache_lookup",
            Stage::CacheAdmit => "cache_admit",
            Stage::Execute => "execute",
            Stage::WireEncode => "wire_encode",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Number of [`Stage`] variants.
pub const NUM_STAGES: usize = 7;

/// Number of mode slots on the histogram matrix: the three
/// [`QueryMode`]s plus the synthetic `batch` slot for batch-scoped stages.
pub const NUM_MODE_SLOTS: usize = 4;

/// Index of the synthetic `batch` mode slot.
const MODE_BATCH: usize = 3;

/// Histogram-matrix slot of a query mode.
fn mode_slot(mode: QueryMode) -> usize {
    match mode {
        QueryMode::Distance => 0,
        QueryMode::PathGraph => 1,
        QueryMode::Sketch => 2,
    }
}

/// Stable label of a mode slot (metric label value).
pub fn mode_slot_name(slot: usize) -> &'static str {
    match slot {
        0 => "distance",
        1 => "path_graph",
        2 => "sketch",
        _ => "batch",
    }
}

/// Per-stage nanosecond totals of one batch — the slow-query log's stage
/// breakdown, accumulated across the workers that executed the batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageNanos(pub [u64; NUM_STAGES]);

impl StageNanos {
    /// Adds another breakdown into this one.
    pub fn add(&mut self, other: &StageNanos) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0.iter()) {
            *mine += theirs;
        }
    }

    /// Nanoseconds recorded for one stage.
    pub fn get(&self, stage: Stage) -> u64 {
        self.0[stage.index()]
    }

    /// Sets the figure for one stage.
    pub fn set(&mut self, stage: Stage, ns: u64) {
        self.0[stage.index()] = ns;
    }

    /// Renders the breakdown as space-separated `{stage}_us={n}` pairs —
    /// the slow-query log's parseable stage fields.
    pub fn render_us(&self) -> String {
        let mut out = String::new();
        for stage in Stage::ALL {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(stage.name());
            out.push_str("_us=");
            out.push_str(&(self.get(stage) / 1_000).to_string());
        }
        out
    }
}

/// Relaxed-atomic per-stage accumulator: the executor sums every request's
/// stage figures of one frame here, so the serving layer can attach a
/// whole-batch stage breakdown to a slow-query log line.
#[derive(Debug)]
pub(crate) struct AtomicStageNanos([AtomicU64; NUM_STAGES]);

impl Default for AtomicStageNanos {
    fn default() -> Self {
        AtomicStageNanos(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl AtomicStageNanos {
    /// Accumulates one request's stage figures.
    pub(crate) fn add(&self, ns: &[u64; NUM_STAGES]) {
        for (slot, &n) in self.0.iter().zip(ns.iter()) {
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Takes the accumulated breakdown, resetting every stage to zero.
    pub(crate) fn take(&self) -> StageNanos {
        StageNanos(std::array::from_fn(|i| {
            self.0[i].swap(0, Ordering::Relaxed)
        }))
    }
}

/// Per-workspace scratch where a request's stage timings accumulate while
/// it executes; the engine flushes it into the shared [`Metrics`]
/// registry after each request. Clock reads are no-ops while `enabled`
/// is false, so the uninstrumented path costs one branch per stage.
#[derive(Debug, Default)]
pub struct ObsScratch {
    /// Whether the executing engine wants stage timings collected.
    pub(crate) enabled: bool,
    ns: [u64; NUM_STAGES],
    /// Clock reads taken, so tests can pin the reads per request.
    #[cfg(test)]
    pub(crate) reads: u64,
}

impl ObsScratch {
    /// Reads the clock, or `None` when timing is off.
    pub(crate) fn now(&mut self) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        #[cfg(test)]
        {
            self.reads += 1;
        }
        Some(Instant::now())
    }

    /// Ends `stage`, which began at `since`, with one clock read, and
    /// returns that read: the start of the next stage.
    pub(crate) fn lap(&mut self, stage: Stage, since: Option<Instant>) -> Option<Instant> {
        let now = self.now();
        self.span(stage, since, now);
        now
    }

    /// Accumulates the time from `from` to `to` under `stage`, reading no
    /// clock. Sub-nanosecond spans round up to 1 ns so "ran in under a
    /// tick" stays distinguishable from "never ran".
    pub(crate) fn span(&mut self, stage: Stage, from: Option<Instant>, to: Option<Instant>) {
        if let (Some(from), Some(to)) = (from, to) {
            self.ns[stage.index()] += saturating_ns(to - from).max(1);
        }
    }

    /// Takes the per-request figures, resetting them to zero.
    pub(crate) fn take(&mut self) -> [u64; NUM_STAGES] {
        std::mem::take(&mut self.ns)
    }
}

/// Duration → ns without the 584-year overflow panic.
pub fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One shard of the registry: a full (mode slot × stage) histogram
/// matrix. Threads are spread over shards so concurrent recording does
/// not contend.
#[derive(Debug, Default)]
struct MetricsShard {
    hists: [[LatencyHistogram; NUM_STAGES]; NUM_MODE_SLOTS],
}

/// The process-wide observability registry: sharded per-stage latency
/// histograms keyed by ([`QueryMode`] slot, [`Stage`]), plus the
/// slow-query and job-panic counters. One registry lives inside each [`crate::Qbs`]
/// session (shared with its query workers) and each router backend.
#[derive(Debug)]
pub struct Metrics {
    enabled: AtomicBool,
    shards: Box<[MetricsShard]>,
    slow_queries: AtomicU64,
    job_panics: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates an enabled registry.
    pub fn new() -> Self {
        Metrics {
            enabled: AtomicBool::new(true),
            shards: (0..NUM_SHARDS).map(|_| MetricsShard::default()).collect(),
            slow_queries: AtomicU64::new(0),
            job_panics: AtomicU64::new(0),
        }
    }

    /// Whether recording is enabled (it is by default).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Exists for differential tests;
    /// production keeps it on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// This thread's shard, assigned round-robin on first use.
    fn shard(&self) -> &MetricsShard {
        use std::cell::Cell;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        thread_local! {
            static TAG: Cell<u64> = const { Cell::new(u64::MAX) };
        }
        let tag = TAG.with(|t| {
            let mut tag = t.get();
            if tag == u64::MAX {
                tag = NEXT.fetch_add(1, Ordering::Relaxed);
                t.set(tag);
            }
            tag
        });
        &self.shards[(tag % NUM_SHARDS as u64) as usize]
    }

    /// Records one batch-scoped stage sample (queue wait, wire encode).
    pub fn record_batch_stage(&self, stage: Stage, d: Duration) {
        if self.is_enabled() {
            self.shard().hists[MODE_BATCH][stage.index()].record(d);
        }
    }

    /// Flushes a request's stage figures (an [`ObsScratch::take`] result)
    /// under its query mode. Zero entries mean "stage never ran" and are
    /// skipped.
    pub(crate) fn record_request(&self, mode: QueryMode, ns: &[u64; NUM_STAGES]) {
        let row = &self.shard().hists[mode_slot(mode)];
        for (i, &n) in ns.iter().enumerate() {
            if n != 0 {
                row[i].record_ns(n);
            }
        }
    }

    /// Bumps the slow-query counter (one per logged offender).
    pub fn inc_slow_queries(&self) {
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps the panic counter (one per serving job that panicked and was
    /// answered with a typed internal fault).
    pub fn inc_job_panics(&self) {
        self.job_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a mergeable snapshot of every histogram, folding the shards
    /// together.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut hists = Vec::with_capacity(NUM_MODE_SLOTS * NUM_STAGES);
        for slot in 0..NUM_MODE_SLOTS {
            for stage in 0..NUM_STAGES {
                let mut snap = HistogramSnapshot::default();
                for shard in self.shards.iter() {
                    snap.merge(&shard.hists[slot][stage].snapshot());
                }
                hists.push(snap);
            }
        }
        let mut snapshot = MetricsSnapshot {
            hists,
            counters: Vec::new(),
        };
        snapshot.push(
            counter::SLOW_QUERIES,
            self.slow_queries.load(Ordering::Relaxed),
        );
        snapshot.push(counter::JOB_PANICS, self.job_panics.load(Ordering::Relaxed));
        snapshot
    }
}

/// How a router folds a replica's value of a counter into its own
/// snapshot ([`MetricsSnapshot::merge`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// Traffic: summed over replicas.
    Sum,
    /// Index facts: every replica serves the same index, so the maximum.
    Max,
    /// The answering process's own (admission, routing, per-replica):
    /// peers' values are dropped.
    Local,
}

/// A declared counter: its Prometheus name and its [`Fold`]. Names ending
/// in `_total` render as Prometheus counters, the rest as gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterDef {
    /// The Prometheus metric name.
    pub name: &'static str,
    /// How a router folds replicas' values in.
    pub fold: Fold,
}

macro_rules! counters {
    ($($id:ident = $name:literal, $fold:ident, $doc:literal;)*) => {
        $(#[doc = $doc] pub const $id: CounterDef = CounterDef { name: $name, fold: Fold::$fold };)*
    };
}

/// Every counter a [`MetricsSnapshot`] carries, declared once.
pub mod counter {
    use super::{CounterDef, Fold};

    counters! {
        VERTICES = "qbs_index_vertices", Max, "Vertices in the served index.";
        LANDMARKS = "qbs_index_landmarks", Max, "Landmarks in the served index.";
        THREADS = "qbs_threads", Sum, "Query-thread budget.";
        REQUESTS = "qbs_requests_total", Sum, "Typed requests executed.";
        BATCHES = "qbs_batches_total", Sum, "Batches executed.";
        ERRORS = "qbs_request_errors_total", Sum, "Requests answered with a typed error.";
        CACHE_HITS = "qbs_cache_hits_total", Sum, "Answer-cache hits (present only with a cache).";
        CACHE_MISSES = "qbs_cache_misses_total", Sum, "Answer-cache misses.";
        CACHE_INSERTIONS = "qbs_cache_insertions_total", Sum, "Answers admitted into the cache.";
        CACHE_REJECTED = "qbs_cache_rejected_total", Sum, "Answers the cache admission policy refused.";
        CACHE_EVICTIONS = "qbs_cache_evictions_total", Sum, "Cache entries evicted.";
        CACHE_ENTRIES = "qbs_cache_entries", Sum, "Entries cached now.";
        SLOW_QUERIES = "qbs_slow_queries_total", Sum, "Batches written to the slow-query log.";
        JOB_PANICS = "qbs_job_panics_total", Sum, "Serving jobs that panicked, each answered with a typed fault.";
        ADMITTED_BATCHES = "qbs_admitted_batches_total", Local, "Batches admitted past all bounds.";
        ADMITTED_REQUESTS = "qbs_admitted_requests_total", Local, "Requests inside admitted batches.";
        SHED_OVERLOAD = "qbs_shed_overload_total", Local, "Batches shed by the in-flight bound.";
        SHED_BATCH_SIZE = "qbs_shed_batch_size_total", Local, "Batches shed by the per-batch cap.";
        SHED_CONNECTIONS = "qbs_shed_connections_total", Local, "Connections shed before service.";
        INFLIGHT = "qbs_inflight_requests", Local, "Requests executing now.";
        CONNECTIONS = "qbs_connections", Local, "Connections served now.";
        ROUTED_BATCHES = "qbs_router_batches_routed_total", Local, "Client batches the router scattered.";
        SUBBATCHES = "qbs_router_subbatches_total", Local, "Sub-batches the router's batches were cut into.";
        ROUTER_RETRIES = "qbs_router_retries_total", Local, "Sub-batches retried on another replica.";
        UNAVAILABLE_SLOTS = "qbs_router_unavailable_slots_total", Local, "Request slots answered `Unavailable`.";
        REPLICA_HEALTHY = "qbs_replica_healthy", Local, "1 while the replica is not ejected (per replica).";
        REPLICA_REQUESTS = "qbs_replica_requests_total", Local, "Requests routed to the replica.";
        REPLICA_BATCHES = "qbs_replica_batches_total", Local, "Sub-batches routed to the replica.";
        REPLICA_RETRIES = "qbs_replica_retries_total", Local, "Requests retried away from the replica.";
        REPLICA_EJECTIONS = "qbs_replica_ejections_total", Local, "Times the replica was ejected.";
        REPLICA_IN_FLIGHT = "qbs_replica_in_flight", Local, "Requests in flight on the replica now.";
        REPLICA_CONSECUTIVE_FAILURES = "qbs_replica_consecutive_failures", Local, "Failures since the replica's last success.";
        REPLICA_FAILURES = "qbs_replica_failures_total", Local, "Failed exchanges with the replica.";
    }
}

/// One named counter value of a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counter {
    /// A [`CounterDef::name`]; per-replica counters carry a
    /// `{replica="H:P"}` label.
    pub name: String,
    /// How a router folds this counter in.
    pub fold: Fold,
    /// The value.
    pub value: u64,
}

impl Counter {
    /// The name without its label: the Prometheus family.
    pub fn family(&self) -> &str {
        self.name.split('{').next().unwrap_or_default()
    }
}

/// The one telemetry value: the full (mode slot × stage) histogram matrix
/// in row-major order plus every named counter of the answering process.
/// This is the payload of the protocol `Metrics` frame; a router merges
/// replica snapshots into its own ([`MetricsSnapshot::merge`]), so
/// aggregated quantiles stay well-defined.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Histograms in `slot * NUM_STAGES + stage` order. May be shorter
    /// than the full matrix; missing families read as empty.
    pub hists: Vec<HistogramSnapshot>,
    /// Named counters, in the order they were taken.
    pub counters: Vec<Counter>,
}

impl MetricsSnapshot {
    /// The histogram of one (mode slot, stage) family, empty if absent.
    pub fn family(&self, slot: usize, stage: Stage) -> HistogramSnapshot {
        self.hists
            .get(slot * NUM_STAGES + stage.index())
            .cloned()
            .unwrap_or_default()
    }

    /// Appends a counter.
    pub fn push(&mut self, def: CounterDef, value: u64) {
        self.counters.push(Counter {
            name: def.name.to_string(),
            fold: def.fold,
            value,
        });
    }

    /// Appends a counter labelled with a replica's address.
    pub fn push_replica(&mut self, def: CounterDef, replica: &str, value: u64) {
        self.counters.push(Counter {
            name: replica_series(def, replica),
            fold: def.fold,
            value,
        });
    }

    /// A counter's value, `None` when the snapshot does not carry it.
    pub fn get(&self, def: CounterDef) -> Option<u64> {
        self.series(def.name)
    }

    /// A per-replica counter's value.
    pub fn replica(&self, def: CounterDef, replica: &str) -> Option<u64> {
        self.series(&replica_series(def, replica))
    }

    fn series(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Addresses of the replicas the snapshot describes, in order.
    pub fn replicas(&self) -> Vec<&str> {
        let prefix = format!("{}{{replica=\"", counter::REPLICA_HEALTHY.name);
        self.counters
            .iter()
            .filter_map(|c| c.name.strip_prefix(&prefix)?.strip_suffix("\"}"))
            .collect()
    }

    /// Merges a peer's snapshot into this one: histograms bucket-wise,
    /// counters by their [`Fold`] (a counter this snapshot lacks is
    /// taken as it is, unless it is [`Fold::Local`]).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if self.hists.len() < other.hists.len() {
            self.hists
                .resize_with(other.hists.len(), HistogramSnapshot::default);
        }
        for (mine, theirs) in self.hists.iter_mut().zip(other.hists.iter()) {
            mine.merge(theirs);
        }
        for theirs in other.counters.iter().filter(|c| c.fold != Fold::Local) {
            match self.counters.iter_mut().find(|c| c.name == theirs.name) {
                Some(mine) if theirs.fold == Fold::Max => mine.value = mine.value.max(theirs.value),
                Some(mine) => mine.value = mine.value.saturating_add(theirs.value),
                None => self.counters.push(theirs.clone()),
            }
        }
    }

    /// The Prometheus text exposition: every counter (a `# TYPE` line per
    /// family), then the `qbs_stage_seconds` histogram family labelled by
    /// `mode` and `stage` (cumulative `_bucket{le=…}` lines, `_sum`,
    /// `_count`) and its quantile gauges `qbs_stage_seconds_quantile`.
    /// Empty histogram families are skipped.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let mut counters: Vec<&Counter> = self.counters.iter().collect();
        counters.sort_by(|a, b| a.family().cmp(b.family()));
        let mut family = "";
        for c in counters {
            if c.family() != family {
                family = c.family();
                let kind = if family.ends_with("_total") {
                    "counter"
                } else {
                    "gauge"
                };
                let _ = writeln!(out, "# TYPE {family} {kind}");
            }
            let _ = writeln!(out, "{} {}", c.name, c.value);
        }
        let families: Vec<(String, HistogramSnapshot)> = (0..NUM_MODE_SLOTS)
            .flat_map(|slot| Stage::ALL.map(|stage| (slot, stage)))
            .map(|(slot, stage)| {
                let labels = format!(
                    "mode=\"{}\",stage=\"{}\"",
                    mode_slot_name(slot),
                    stage.name()
                );
                (labels, self.family(slot, stage))
            })
            .filter(|(_, h)| !h.is_empty())
            .collect();
        out.push_str("# TYPE qbs_stage_seconds histogram\n");
        for (labels, h) in &families {
            let mut cum = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                let le = bucket_upper(i).saturating_add(1) as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "qbs_stage_seconds_bucket{{{labels},le=\"{le:e}\"}} {cum}"
                );
            }
            let _ = writeln!(
                out,
                "qbs_stage_seconds_bucket{{{labels},le=\"+Inf\"}} {}",
                h.count
            );
            let _ = writeln!(
                out,
                "qbs_stage_seconds_sum{{{labels}}} {:e}",
                h.sum as f64 / 1e9
            );
            let _ = writeln!(out, "qbs_stage_seconds_count{{{labels}}} {}", h.count);
        }
        out.push_str("# TYPE qbs_stage_seconds_quantile gauge\n");
        for (labels, h) in &families {
            for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                let v = v as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "qbs_stage_seconds_quantile{{{labels},quantile=\"{q}\"}} {v:e}"
                );
            }
        }
        out
    }

    /// The answer-cache report line, when the snapshot carries a cache.
    pub fn cache_line(&self) -> Option<String> {
        let (hits, misses) = (
            self.get(counter::CACHE_HITS)?,
            self.get(counter::CACHE_MISSES)?,
        );
        Some(format!(
            "cache: {hits} hits / {misses} misses ({:.0}% hit rate), {} entries, {} evictions",
            percent(hits, misses),
            self.get(counter::CACHE_ENTRIES).unwrap_or(0),
            self.get(counter::CACHE_EVICTIONS).unwrap_or(0),
        ))
    }

    /// The human-readable report (`qbs client --metrics`, the drain
    /// reports): the engine, admission and routing sections the snapshot
    /// carries, then one line per non-empty (mode, stage) histogram with
    /// count and p50/p90/p99/max in ms.
    pub fn render_text(&self) -> String {
        use counter::*;
        use std::fmt::Write as _;
        let v = |def| self.get(def).unwrap_or(0);
        let mut out = String::new();
        if self.get(REQUESTS).is_some() {
            let _ = writeln!(
                out,
                "index:     {} vertices, {} landmarks",
                v(VERTICES),
                v(LANDMARKS)
            );
            let _ = writeln!(out, "threads:   {}", v(THREADS));
            let _ = writeln!(
                out,
                "requests:  {} in {} batches ({} errors)",
                v(REQUESTS),
                v(BATCHES),
                v(ERRORS)
            );
            let cache = self.cache_line();
            let _ = writeln!(
                out,
                "{}",
                cache.as_deref().unwrap_or("cache:     none attached")
            );
        }
        if self.get(ADMITTED_BATCHES).is_some() {
            let shed = v(SHED_OVERLOAD).saturating_add(v(SHED_BATCH_SIZE));
            let rate = percent(shed, v(ADMITTED_BATCHES));
            let _ =
                writeln!(
                out,
                "admission: {} batches / {} requests admitted, shed {} overload + {} oversized + \
                 {} connections ({rate:.1}% shed, {} in flight, {} connected)",
                v(ADMITTED_BATCHES), v(ADMITTED_REQUESTS), v(SHED_OVERLOAD), v(SHED_BATCH_SIZE),
                v(SHED_CONNECTIONS), v(INFLIGHT), v(CONNECTIONS)
            );
        }
        if self.get(ROUTED_BATCHES).is_some() {
            let replicas = self.replicas();
            let r = |def, addr| self.replica(def, addr).unwrap_or(0);
            let ejections = replicas
                .iter()
                .fold(0u64, |n, &a| n.saturating_add(r(REPLICA_EJECTIONS, a)));
            let _ = writeln!(
                out,
                "router: {} batches scattered into {} sub-batches, {} retries, {ejections} \
                 ejections, {} unavailable slots",
                v(ROUTED_BATCHES),
                v(SUBBATCHES),
                v(ROUTER_RETRIES),
                v(UNAVAILABLE_SLOTS)
            );
            for addr in replicas {
                let (batches, failures) = (r(REPLICA_BATCHES, addr), r(REPLICA_FAILURES, addr));
                let errors = percent(failures, batches);
                let _ =
                    writeln!(
                    out,
                    "  replica {addr}: {} — {} requests in {batches} batches, {} retried away, \
                     {} ejections, {} in flight, {errors:.1}% errors",
                    if r(REPLICA_HEALTHY, addr) == 1 { "healthy" } else { "ejected" },
                    r(REPLICA_REQUESTS, addr), r(REPLICA_RETRIES, addr),
                    r(REPLICA_EJECTIONS, addr), r(REPLICA_IN_FLIGHT, addr)
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<11} {:<13} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "mode", "stage", "count", "p50 ms", "p90 ms", "p99 ms", "max ms"
        );
        for slot in 0..NUM_MODE_SLOTS {
            for stage in Stage::ALL {
                let h = self.family(slot, stage);
                if h.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:<11} {:<13} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                    mode_slot_name(slot),
                    stage.name(),
                    h.count,
                    ns_to_ms(h.p50()),
                    ns_to_ms(h.p90()),
                    ns_to_ms(h.p99()),
                    ns_to_ms(h.max),
                );
            }
        }
        let _ = writeln!(out, "slow queries logged: {}", v(SLOW_QUERIES));
        let _ = writeln!(out, "job panics contained: {}", v(JOB_PANICS));
        out
    }
}

/// The series name of a per-replica counter.
fn replica_series(def: CounterDef, replica: &str) -> String {
    format!("{}{{replica=\"{replica}\"}}", def.name)
}

/// `part` as a percentage of `part + rest` (0 when both are). Counters
/// may arrive from a peer, so the sum is taken in floating point.
fn percent(part: u64, rest: u64) -> f64 {
    let whole = part as f64 + rest as f64;
    if whole == 0.0 {
        0.0
    } else {
        part as f64 * 100.0 / whole
    }
}

/// A request trace identifier, minted by the client and carried verbatim
/// in the protocol frame envelope through the router to every replica
/// that serves a piece of the batch. Slow-query log lines carry it, so a
/// client-observed slow request can be joined to the replica and stage
/// that caused it. Zero means "untraced" (connection-scoped frames).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null trace of untraced frames.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is the null trace.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for the randomized property sweeps.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn hist_of(samples: &[u64]) -> HistogramSnapshot {
        let h = LatencyHistogram::new();
        for &s in samples {
            h.record_ns(s);
        }
        h.snapshot()
    }

    #[test]
    fn bucket_scheme_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(10), 2047);
    }

    #[test]
    fn merged_buckets_equal_concatenated_samples() {
        // Property: snapshot(A) ⊎ snapshot(B) == snapshot(A ++ B),
        // bucket-for-bucket and for every scalar, across random splits.
        let mut rng = Rng(0x9E3779B97F4A7C15);
        for round in 0..200 {
            let n = (rng.next() % 64) as usize;
            let split = if n == 0 {
                0
            } else {
                (rng.next() % n as u64) as usize
            };
            let samples: Vec<u64> = (0..n).map(|_| rng.next() >> (rng.next() % 48)).collect();
            let mut merged = hist_of(&samples[..split]);
            merged.merge(&hist_of(&samples[split..]));
            assert_eq!(
                merged,
                hist_of(&samples),
                "round {round}: merge drifted from concatenation"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut rng = Rng(0xDEADBEEFCAFEF00D);
        for _ in 0..200 {
            let n = 1 + (rng.next() % 100) as usize;
            let samples: Vec<u64> = (0..n).map(|_| rng.next() >> (rng.next() % 40)).collect();
            let h = hist_of(&samples);
            let min = *samples.iter().min().unwrap();
            let max = *samples.iter().max().unwrap();
            assert_eq!(h.min, min);
            assert_eq!(h.max, max);
            let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
                .iter()
                .map(|&q| h.quantile(q))
                .collect();
            for w in qs.windows(2) {
                assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
            }
            for &q in &qs {
                assert!(q >= min && q <= max, "quantile {q} outside [{min}, {max}]");
            }
            // The reported quantile is the bucket upper bound, so it never
            // undershoots the true order statistic.
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let true_p50 = sorted[(n - 1) / 2];
            assert!(h.p50() >= true_p50);
        }
    }

    #[test]
    fn empty_and_single_sample_edges() {
        let empty = hist_of(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.quantile(1.0), 0);
        let one = hist_of(&[1234]);
        assert_eq!(one.count, 1);
        assert_eq!(one.p50(), 1234);
        assert_eq!(one.p99(), 1234);
        assert_eq!(one.max, 1234);
        let mut merged = HistogramSnapshot::default();
        merged.merge(&one);
        assert_eq!(merged, one);
        merged.merge(&empty);
        assert_eq!(merged, one);
    }

    #[test]
    fn metrics_registry_shards_fold_into_one_snapshot() {
        let m = Metrics::new();
        assert!(m.is_enabled());
        let m = std::sync::Arc::new(m);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        let mut ns = [0u64; NUM_STAGES];
                        ns[Stage::Execute as usize] = 1 + t * 100 + i;
                        m.record_request(QueryMode::Distance, &ns);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("recording thread");
        }
        let snap = m.snapshot();
        let exec = snap.family(mode_slot(QueryMode::Distance), Stage::Execute);
        assert_eq!(exec.count, 800);
        assert_eq!(exec.min, 1);
        assert_eq!(exec.max, 800);
        assert!(snap
            .family(mode_slot(QueryMode::Sketch), Stage::Execute)
            .is_empty());
    }

    #[test]
    fn disabled_registry_records_nothing_via_batch_path() {
        let m = Metrics::new();
        m.set_enabled(false);
        m.record_batch_stage(Stage::QueueWait, Duration::from_micros(5));
        assert!(m.snapshot().hists.iter().all(HistogramSnapshot::is_empty));
        m.set_enabled(true);
        m.record_batch_stage(Stage::QueueWait, Duration::from_micros(5));
        assert_eq!(m.snapshot().family(MODE_BATCH, Stage::QueueWait).count, 1);
    }

    #[test]
    fn snapshot_merge_tolerates_length_mismatch() {
        let m = Metrics::new();
        let mut ns = [0u64; NUM_STAGES];
        ns[Stage::GuidedSearch as usize] = 42;
        m.record_request(QueryMode::PathGraph, &ns);
        m.inc_slow_queries();
        let full = m.snapshot();
        let mut short = MetricsSnapshot::default();
        short.push(counter::SLOW_QUERIES, 3);
        short.merge(&full);
        assert_eq!(short.get(counter::SLOW_QUERIES), Some(4));
        assert_eq!(
            short.family(mode_slot(QueryMode::PathGraph), Stage::GuidedSearch),
            full.family(mode_slot(QueryMode::PathGraph), Stage::GuidedSearch)
        );
    }

    /// A router-shaped snapshot: one histogram sample, engine counters
    /// with a cache, admission, routing and two labelled replicas.
    fn router_shaped() -> MetricsSnapshot {
        let m = Metrics::new();
        m.record_batch_stage(Stage::QueueWait, Duration::from_micros(12));
        m.inc_slow_queries();
        m.inc_job_panics();
        let mut snap = m.snapshot();
        for def in [
            counter::REQUESTS,
            counter::CACHE_HITS,
            counter::ADMITTED_BATCHES,
        ] {
            snap.push(def, 7);
        }
        snap.push(counter::ROUTED_BATCHES, 2);
        for addr in ["127.0.0.1:7421", "127.0.0.1:7422"] {
            snap.push_replica(counter::REPLICA_FAILURES, addr, 1);
            snap.push_replica(counter::REPLICA_HEALTHY, addr, 1);
        }
        snap
    }

    #[test]
    fn prometheus_rendering_names_families() {
        let text = router_shaped().render_prometheus();
        for name in [
            "qbs_stage_seconds_bucket{mode=\"batch\",stage=\"queue_wait\"",
            "qbs_stage_seconds_count{mode=\"batch\",stage=\"queue_wait\"} 1",
            "qbs_stage_seconds_quantile{mode=\"batch\",stage=\"queue_wait\",quantile=\"0.5\"}",
            "qbs_slow_queries_total 1",
            "qbs_job_panics_total 1",
            "qbs_requests_total 7",
            "qbs_router_batches_routed_total 2",
            "qbs_replica_failures_total{replica=\"127.0.0.1:7422\"} 1",
        ] {
            assert!(text.contains(name), "{name} missing from:\n{text}");
        }
        // Every sample sits under the `# TYPE` line of its own family
        // (histogram samples under their `_bucket`/`_sum`/`_count` stem),
        // and each family is typed exactly once.
        let mut typed: Vec<(&str, &str)> = Vec::new();
        for line in text.lines() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                let (family, kind) = decl.split_once(' ').expect("TYPE name kind");
                assert!(
                    typed.iter().all(|(f, _)| *f != family),
                    "{family} typed twice"
                );
                typed.push((family, kind));
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap_or_default();
            let &(family, kind) = typed
                .last()
                .unwrap_or_else(|| panic!("untyped sample {line}"));
            let stem = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .filter(|_| kind == "histogram");
            assert_eq!(
                stem.unwrap_or(name),
                family,
                "sample {line} outside its family"
            );
            assert_eq!(kind == "counter", name.ends_with("_total"), "{line}");
        }
    }

    #[test]
    fn merge_folds_counters_by_kind() {
        let mut router = MetricsSnapshot::default();
        router.push(counter::ADMITTED_BATCHES, 5);
        router.push_replica(counter::REPLICA_HEALTHY, "r:1", 1);
        for (requests, vertices) in [(10, 100), (32, 100)] {
            let mut replica = MetricsSnapshot::default();
            replica.push(counter::REQUESTS, requests);
            replica.push(counter::VERTICES, vertices);
            replica.push(counter::ADMITTED_BATCHES, 99);
            router.merge(&replica);
        }
        assert_eq!(router.get(counter::REQUESTS), Some(42), "traffic sums");
        assert_eq!(
            router.get(counter::VERTICES),
            Some(100),
            "index facts take the maximum"
        );
        assert_eq!(
            router.get(counter::ADMITTED_BATCHES),
            Some(5),
            "admission stays local"
        );
        assert_eq!(
            router.get(counter::CACHE_HITS),
            None,
            "no replica has a cache"
        );
        assert_eq!(router.replicas(), ["r:1"]);
        assert_eq!(router.replica(counter::REPLICA_HEALTHY, "r:1"), Some(1));
    }

    #[test]
    fn stage_nanos_render_is_parseable() {
        let mut s = StageNanos::default();
        s.set(Stage::GuidedSearch, 2_500);
        s.set(Stage::QueueWait, 1_000_000);
        let line = s.render_us();
        assert!(line.contains("guided_search_us=2"));
        assert!(line.contains("queue_wait_us=1000"));
    }

    #[test]
    fn trace_ids_render_as_fixed_width_hex() {
        assert_eq!(TraceId(0xdeadbeef).to_string(), "0x00000000deadbeef");
        assert!(TraceId::NONE.is_none());
        assert!(!TraceId(1).is_none());
    }
}
