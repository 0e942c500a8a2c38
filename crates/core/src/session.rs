//! The [`Qbs`] session façade: one handle that hides the owned-vs-view
//! backend choice.
//!
//! Production serving has two ways to get an index into memory — build it
//! (or load + materialise it) as an owned [`QbsIndex`], or map an
//! immutable index file and serve straight from the bytes through a
//! [`ViewStore`]. Every query API in this crate is generic over
//! that choice, but downstream code should not have to be: a [`Qbs`]
//! session wraps either backend behind one type, carries the session's
//! thread budget and optional [`AnswerCache`], and owns the long-lived
//! query executor ([`crate::engine`]) whose workers keep their workspaces
//! for life, so its steady state allocates nothing per query.
//!
//! ```
//! use qbs_core::request::QueryRequest;
//! use qbs_core::{CacheConfig, Qbs, QbsConfig};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! let qbs = Qbs::build(figure4_graph(), QbsConfig::with_landmark_count(3))
//!     .unwrap()
//!     .with_cache(CacheConfig::default());
//! assert_eq!(qbs.distance(6, 11).unwrap(), 5);
//! let outcomes = qbs.submit(&[
//!     QueryRequest::distance(6, 11),
//!     QueryRequest::path_graph(4, 12),
//! ]);
//! assert!(outcomes.iter().all(|o| o.is_ok()));
//! ```
//!
//! [`Qbs::open`] serves an index file zero-copy through a view (with
//! [`MapMode::Mmap`], open is `O(1)` in the index size); [`Qbs::load`]
//! materialises the owned index from the same file. See `docs/api.md` for
//! the migration table from the pre-façade entry points.

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qbs_graph::{Distance, Graph, PathGraph, VertexId};

use crate::cache::{AnswerCache, CacheConfig, CacheStats};
use crate::engine::{Engine, Executor};
use crate::obs::{Metrics, MetricsSnapshot, StageNanos};
use crate::plan::PlannerStats;
use crate::query::{QbsConfig, QbsIndex, QueryAnswer};
use crate::request::{QueryOutcome, QueryRequest};
use crate::serialize::{self, MapMode};
use crate::sketch::Sketch;
use crate::stats::IndexStats;
use crate::store::{IndexStore, ViewStore};
use crate::QbsError;

/// The storage backend of a [`Qbs`] session.
#[derive(Debug)]
pub enum QbsBackend {
    /// Heap-materialised index (built in process or loaded from a file).
    /// Boxed: the owned index is an order of magnitude larger than the
    /// view wrapper, and sessions move through builder methods.
    Owned(Box<QbsIndex>),
    /// Zero-copy view over an index-file buffer (heap or mmap).
    View(ViewStore),
}

impl QbsBackend {
    /// A short name for reports: `"owned"` or `"view"`.
    pub fn name(&self) -> &'static str {
        match self {
            QbsBackend::Owned(_) => "owned",
            QbsBackend::View(_) => "view",
        }
    }
}

/// A stable snapshot of a session's serving counters — the payload of the
/// network protocol's `Stats` frame and of `qbs client --stats`, with a
/// canonical byte encoding in [`crate::wire`] (so the CLI and the server
/// share one struct instead of ad-hoc printing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Vertices in the served index.
    pub num_vertices: u64,
    /// Landmarks in the served index.
    pub num_landmarks: u64,
    /// Configured worker-thread budget.
    pub threads: u64,
    /// Whether the session serves from a zero-copy view (vs owned index).
    pub view_backed: bool,
    /// Typed requests executed (single and batched).
    pub requests: u64,
    /// [`Qbs::submit`] batches executed.
    pub batches: u64,
    /// Requests that resolved to a per-request error outcome.
    pub errors: u64,
    /// Batch execution planner counters (see [`crate::plan`]).
    pub planner: PlannerStats,
    /// Counter snapshot of the attached answer cache, if any.
    pub cache: Option<CacheStats>,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "backend:   {} ({} vertices, {} landmarks)",
            if self.view_backed { "view" } else { "owned" },
            self.num_vertices,
            self.num_landmarks
        )?;
        writeln!(f, "threads:   {}", self.threads)?;
        writeln!(
            f,
            "requests:  {} in {} batches ({} errors)",
            self.requests, self.batches, self.errors
        )?;
        write!(f, "planner:   {} coalesced", self.planner.dedup_hits)?;
        match &self.cache {
            Some(cache) => write!(f, "\n{cache}"),
            None => write!(f, "\ncache:     none attached"),
        }
    }
}

/// A ready-to-serve QbS session over either storage backend.
///
/// Queries resolve the backend once per request, so the search's inner
/// loops always run over the concrete monomorphised store. Dropping the
/// session stops and joins its query workers.
pub struct Qbs {
    pub(crate) exec: Executor,
    /// Serving counters behind [`Qbs::engine_stats`].
    requests: AtomicU64,
    batches: AtomicU64,
    errors: AtomicU64,
}

impl fmt::Debug for Qbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Qbs")
            .field("backend", self.backend())
            .field("threads", &self.threads())
            .field("cache", &self.cache())
            .finish_non_exhaustive()
    }
}

impl Qbs {
    fn from_backend(backend: QbsBackend) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Qbs {
            exec: Executor::new(Engine::new(backend), threads),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Builds an owned index over `graph` on the calling thread (spawning
    /// none) and wraps it in a session.
    pub fn build(graph: Graph, config: QbsConfig) -> crate::Result<Self> {
        Ok(Self::from_index(QbsIndex::build(graph, config)))
    }

    /// Wraps an already-built index in a session.
    pub fn from_index(index: QbsIndex) -> Self {
        Self::from_backend(QbsBackend::Owned(Box::new(index)))
    }

    /// Wraps an already-opened view store in a session (pair with
    /// [`crate::serialize::open_store_from_file`], or a [`ViewStore`] over
    /// an in-memory buffer).
    pub fn from_view_store(store: ViewStore) -> Self {
        Self::from_backend(QbsBackend::View(store))
    }

    /// Opens an index file for zero-copy serving through a [`ViewStore`].
    /// With [`MapMode::Mmap`] this is the `O(1)` cold-start path — map,
    /// wrap, serve.
    pub fn open<P: AsRef<Path>>(path: P, mode: MapMode) -> crate::Result<Self> {
        Ok(Self::from_view_store(serialize::open_store_from_file(
            path, mode,
        )?))
    }

    /// Opens an index file and materialises the owned index — the choice
    /// for long-lived processes that prefer the owned arrays' per-query
    /// speed over the view's `O(1)` start-up.
    pub fn load<P: AsRef<Path>>(path: P) -> crate::Result<Self> {
        Ok(Self::from_index(serialize::load_from_file(path)?))
    }

    /// Sets the session's thread budget: [`Qbs::submit`] frames run on the
    /// calling thread plus up to `threads − 1` long-lived workers.
    ///
    /// Fails with [`QbsError::ThreadPool`] when `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> crate::Result<Self> {
        if threads == 0 {
            return Err(QbsError::ThreadPool(
                "a Qbs session requires at least one worker thread".into(),
            ));
        }
        self.exec.set_threads(threads);
        Ok(self)
    }

    /// Attaches a sharded LRU answer cache to the session (see
    /// [`crate::cache`]).
    pub fn with_cache(mut self, config: CacheConfig) -> Self {
        self.exec.engine_mut().cache = Some(AnswerCache::new(config));
        self
    }

    /// The session's storage backend.
    pub fn backend(&self) -> &QbsBackend {
        &self.exec.engine.backend
    }

    /// The owned index, when this session serves one (`None` on a
    /// view-backed session).
    pub fn index(&self) -> Option<&QbsIndex> {
        match self.backend() {
            QbsBackend::Owned(index) => Some(index),
            QbsBackend::View(_) => None,
        }
    }

    /// The view store, when this session serves straight from an index
    /// buffer (`None` on an owned session).
    pub fn view_store(&self) -> Option<&ViewStore> {
        match self.backend() {
            QbsBackend::View(store) => Some(store),
            QbsBackend::Owned(_) => None,
        }
    }

    /// Vertices in the served index.
    pub fn num_vertices(&self) -> usize {
        self.exec.engine.num_vertices()
    }

    /// Landmarks in the served index.
    pub fn num_landmarks(&self) -> usize {
        match self.backend() {
            QbsBackend::Owned(s) => s.num_landmarks(),
            QbsBackend::View(s) => s.num_landmarks(),
        }
    }

    /// Size/timing statistics — owned sessions only (a view never
    /// materialises the structures the report measures).
    pub fn stats(&self) -> Option<IndexStats> {
        self.index().map(QbsIndex::stats)
    }

    /// The configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// The attached answer cache, if any.
    pub fn cache(&self) -> Option<&AnswerCache> {
        self.exec.engine.cache.as_ref()
    }

    /// Counter snapshot of the attached cache.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache().map(AnswerCache::stats)
    }

    /// A consistent snapshot of the session's serving counters — shared by
    /// the network `Stats` protocol frame and `qbs client --stats`.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            num_vertices: self.num_vertices() as u64,
            num_landmarks: self.num_landmarks() as u64,
            threads: self.threads() as u64,
            view_backed: self.view_store().is_some(),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            planner: self.exec.engine.planner.snapshot(),
            cache: self.cache_stats(),
        }
    }

    /// Folds one executed batch into the serving counters.
    fn count_outcomes(&self, outcomes: &[QueryOutcome]) {
        self.requests
            .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
        let errors = outcomes.iter().filter(|o| o.is_error()).count() as u64;
        if errors > 0 {
            self.errors.fetch_add(errors, Ordering::Relaxed);
        }
    }

    /// Executes one typed request on the calling thread, through the
    /// session cache when attached.
    pub fn execute(&self, request: &QueryRequest) -> QueryOutcome {
        let outcome = self.exec.execute(request);
        self.count_outcomes(std::slice::from_ref(&outcome));
        outcome
    }

    /// Executes a heterogeneous batch of typed requests, in input order —
    /// the one batch interface.
    ///
    /// `submit` never fails as a whole: a request with an out-of-range
    /// endpoint yields [`QueryOutcome::Error`] *for that slot only*. Modes
    /// mix freely, requests with [`crate::request::QueryOptions::use_cache`]
    /// go through the attached cache, repeated requests are executed once
    /// ([`crate::plan`]), and the session's workers share the batch
    /// ([`crate::engine`]). Outcomes are bit-identical across backends.
    pub fn submit(&self, requests: &[QueryRequest]) -> Vec<QueryOutcome> {
        self.submit_observed(requests).0
    }

    /// [`Qbs::submit`] plus the batch's aggregate per-stage wall time,
    /// for callers (the serving tier) that feed a slow-query log.
    ///
    /// The returned [`StageNanos`] sums every stage across this batch
    /// only, whatever else runs concurrently; it is all zeros when metrics
    /// are disabled.
    pub fn submit_observed(&self, requests: &[QueryRequest]) -> (Vec<QueryOutcome>, StageNanos) {
        let (outcomes, stage_ns) = self.exec.submit(requests);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.count_outcomes(&outcomes);
        (outcomes, stage_ns)
    }

    /// The session's observability registry: per-stage histograms
    /// accumulated across every request and batch.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.exec.engine.metrics
    }

    /// Snapshot of the per-stage latency histograms accumulated so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics().snapshot()
    }

    /// Answers `SPG(source, target)` — the façade sibling of
    /// [`QbsIndex::query`], served from either backend.
    pub fn query(&self, source: VertexId, target: VertexId) -> crate::Result<PathGraph> {
        match self.execute(&QueryRequest::path_graph(source, target)) {
            QueryOutcome::PathGraph(pg) => Ok(*pg),
            outcome => Err(expect_error(outcome)),
        }
    }

    /// Answers `SPG(source, target)` with the sketch and search
    /// statistics behind it.
    pub fn query_with_stats(
        &self,
        source: VertexId,
        target: VertexId,
    ) -> crate::Result<QueryAnswer> {
        match self.execute(&QueryRequest::path_graph(source, target).with_stats()) {
            QueryOutcome::PathGraphWithStats(answer) => Ok(*answer),
            outcome => Err(expect_error(outcome)),
        }
    }

    /// Shortest-path distance between two vertices.
    pub fn distance(&self, source: VertexId, target: VertexId) -> crate::Result<Distance> {
        match self.execute(&QueryRequest::distance(source, target)) {
            QueryOutcome::Distance(d) => Ok(d),
            outcome => Err(expect_error(outcome)),
        }
    }

    /// The sketch of a query (no search).
    pub fn sketch(&self, source: VertexId, target: VertexId) -> crate::Result<Sketch> {
        match self.execute(&QueryRequest::sketch(source, target)) {
            QueryOutcome::Sketch(s) => Ok(*s),
            outcome => Err(expect_error(outcome)),
        }
    }
}

/// Converts a non-matching outcome of a mode-specific façade method into
/// its error. The executor returns exactly the outcome variant the
/// request's mode asked for, so anything else must be the error variant.
fn expect_error(outcome: QueryOutcome) -> QbsError {
    match outcome {
        QueryOutcome::Error(e) => e.into(),
        other => unreachable!("executor returned a mismatched outcome variant: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryMode;
    use qbs_graph::fixtures::figure4_graph;

    fn session() -> Qbs {
        Qbs::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
        .expect("build")
    }

    #[test]
    fn facade_answers_match_the_index() {
        let qbs = session();
        assert_eq!(qbs.backend().name(), "owned");
        let index = qbs.index().expect("owned backend").clone();
        assert!(qbs.view_store().is_none());
        assert_eq!(qbs.query(6, 11).unwrap(), index.query(6, 11).unwrap());
        assert_eq!(qbs.distance(6, 11).unwrap(), 5);
        assert_eq!(qbs.sketch(6, 11).unwrap(), index.sketch(6, 11).unwrap());
        assert_eq!(
            qbs.query_with_stats(6, 11).unwrap(),
            index.query_with_stats(6, 11).unwrap()
        );
        assert!(qbs.stats().is_some());
        assert!(qbs.query(0, 99).is_err());
        assert!(qbs.distance(99, 0).is_err());
    }

    #[test]
    fn open_serves_a_view_and_load_materialises() {
        let dir = std::env::temp_dir().join("qbs_session_open_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let index = session().index().unwrap().clone();

        let path = dir.join("fig4.qbs");
        serialize::save_to_file(&index, &path).expect("save");
        for mode in [MapMode::Read, MapMode::Mmap] {
            let qbs = Qbs::open(&path, mode).expect("open");
            assert_eq!(qbs.backend().name(), "view");
            assert!(qbs.index().is_none() && qbs.view_store().is_some());
            assert!(qbs.stats().is_none(), "views have no materialised stats");
            assert!(qbs.engine_stats().view_backed);
            assert_eq!(qbs.query(6, 11).unwrap(), index.query(6, 11).unwrap());
            assert_eq!(qbs.sketch(6, 11).unwrap(), index.sketch(6, 11).unwrap());
        }
        let owned = Qbs::load(&path).expect("load materialised");
        assert_eq!(owned.backend().name(), "owned");
        assert_eq!(owned.distance(6, 11).unwrap(), 5);

        assert!(Qbs::open(dir.join("missing.qbs"), MapMode::Read).is_err());
    }

    #[test]
    fn submit_persists_the_workspace_pool_and_cache() {
        let qbs = session().with_threads(2).expect("threads");
        assert_eq!(qbs.threads(), 2);
        let requests: Vec<QueryRequest> = (0..15u32)
            .flat_map(|u| (0..15u32).map(move |v| QueryRequest::new(u, v, QueryMode::PathGraph)))
            .collect();
        let uncached = qbs.submit(&requests);
        // Attaching a cache to a session that has served restarts its workers.
        let qbs = qbs.with_cache(CacheConfig::default().admit_above(0));
        assert_eq!(qbs.submit(&requests), uncached);
        assert_eq!(
            qbs.submit(&requests),
            uncached,
            "cache hits are bit-identical"
        );
        let stats = qbs.cache_stats().expect("cache attached");
        assert!(stats.hits > 0 && stats.insertions > 0, "{stats:?}");
        assert!(qbs.cache().is_some());
        assert!(Qbs::from_index(session().index().unwrap().clone())
            .with_threads(0)
            .is_err());
    }

    #[test]
    fn engine_stats_count_requests_batches_and_errors() {
        let qbs = session().with_cache(CacheConfig::default().admit_above(0));
        let fresh = qbs.engine_stats();
        assert_eq!((fresh.requests, fresh.batches, fresh.errors), (0, 0, 0));
        assert!(!fresh.view_backed);
        assert_eq!(fresh.num_vertices, 15);
        assert_eq!(fresh.num_landmarks, 3);

        qbs.submit(&[
            QueryRequest::distance(6, 11),
            QueryRequest::path_graph(4, 12),
            QueryRequest::distance(99, 0),
        ]);
        let _ = qbs.execute(&QueryRequest::sketch(6, 11));
        let stats = qbs.engine_stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.batches, 1, "execute is not a batch");
        assert_eq!(stats.errors, 1, "the poisoned pair counts once");
        assert!(stats.cache.is_some());
        let rendered = stats.to_string();
        assert!(rendered.contains("requests:  4"), "{rendered}");
        assert!(rendered.contains("owned"), "{rendered}");
        let uncached = session().engine_stats().to_string();
        assert!(uncached.contains("none attached"), "{uncached}");
    }
}
