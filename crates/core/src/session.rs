//! The [`Qbs`] session façade: one handle over one [`QbsIndex`].
//!
//! There is one way an index lives in memory: its file layout
//! ([`crate::store`]), in a heap buffer — laid out by [`Qbs::build`], or
//! read by [`Qbs::open`] with [`MapMode::Read`] — or in a mapping of the
//! file ([`MapMode::Mmap`]). A [`Qbs`] session owns that index, carries
//! the session's thread budget and optional [`AnswerCache`], and owns the
//! long-lived query executor ([`crate::engine`]) whose workers keep their
//! workspaces for life, so its steady state allocates nothing per query.
//!
//! ```
//! use qbs_core::request::QueryRequest;
//! use qbs_core::{CacheConfig, Qbs, QbsConfig};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! let qbs = Qbs::build(figure4_graph(), QbsConfig::with_landmark_count(3))
//!     .unwrap()
//!     .with_cache(CacheConfig::default());
//! assert_eq!(qbs.execute(&QueryRequest::distance(6, 11)).distance(), Some(5));
//! let outcomes = qbs.submit(&[
//!     QueryRequest::distance(6, 11),
//!     QueryRequest::path_graph(4, 12),
//! ]);
//! assert!(outcomes.iter().all(|o| o.is_ok()));
//! ```
//!
//! [`Qbs::open`] verifies the whole file under either [`MapMode`];
//! [`Qbs::load`] is `open` with [`MapMode::Read`]. See `docs/api.md` for
//! the migration table from the pre-façade entry points.

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qbs_graph::Graph;

use crate::cache::{AnswerCache, CacheConfig, CacheStats};
use crate::engine::{Engine, Executor};
use crate::obs::{counter, Metrics, MetricsSnapshot, StageNanos};
use crate::query::QbsConfig;
use crate::request::{QueryOutcome, QueryRequest};
use crate::serialize::{self, MapMode};
use crate::stats::IndexStats;
use crate::store::QbsIndex;
use crate::QbsError;

/// A ready-to-serve QbS session. Dropping it stops and joins its query
/// workers.
pub struct Qbs {
    pub(crate) exec: Executor,
    /// Serving counters behind [`Qbs::metrics_snapshot`].
    requests: AtomicU64,
    batches: AtomicU64,
    errors: AtomicU64,
}

impl fmt::Debug for Qbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Qbs")
            .field("vertices", &self.num_vertices())
            .field("landmarks", &self.num_landmarks())
            .field("threads", &self.threads())
            .field("cache", &self.cache())
            .finish_non_exhaustive()
    }
}

impl Qbs {
    /// Builds an index over `graph` on the calling thread (spawning none)
    /// and wraps it in a session. Fails with [`QbsError::GraphTooLarge`]
    /// when the graph has 2³² arcs or more, and with
    /// [`QbsError::LabelDistanceTooLarge`] when a label distance exceeds
    /// 65 534.
    pub fn build(graph: Graph, config: QbsConfig) -> crate::Result<Self> {
        Ok(Self::from_index(QbsIndex::try_build(graph, config)?))
    }

    /// Wraps an index — built, or opened with
    /// [`crate::serialize::open_from_file`] — in a session.
    pub fn from_index(index: QbsIndex) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Qbs {
            exec: Executor::new(Engine::new(index), threads),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Opens an index file for serving: [`MapMode::Mmap`] maps it,
    /// [`MapMode::Read`] copies it to the heap, and either validates it in
    /// full before the session exists.
    pub fn open<P: AsRef<Path>>(path: P, mode: MapMode) -> crate::Result<Self> {
        Ok(Self::from_index(serialize::open_from_file(path, mode)?))
    }

    /// [`Qbs::open`] with [`MapMode::Read`].
    pub fn load<P: AsRef<Path>>(path: P) -> crate::Result<Self> {
        Self::open(path, MapMode::Read)
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

    /// The served index. `Some` on every session.
    pub fn index(&self) -> Option<&QbsIndex> {
        Some(&self.exec.engine.index)
    }

    /// Vertices in the served index.
    pub fn num_vertices(&self) -> usize {
        self.exec.engine.index.num_vertices()
    }

    /// Landmarks in the served index.
    pub fn num_landmarks(&self) -> usize {
        self.exec.engine.index.num_landmarks()
    }

    /// Size/timing statistics of the served index. `Some` on every
    /// session; timings are zero on an opened file.
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
    /// go through the attached cache, and the session's workers share the
    /// batch ([`crate::engine`]). A request repeated in the batch runs as
    /// if submitted alone: the cache, when attached, shares the work.
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
        let (outcomes, stage_ns) = self.exec.fan_out(requests);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.count_outcomes(&outcomes);
        (outcomes, stage_ns)
    }

    /// The session's observability registry: per-stage histograms
    /// accumulated across every request and batch.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.exec.engine.metrics
    }

    /// The session's telemetry: the per-stage latency histograms plus the
    /// engine and (when attached) cache counters — what a
    /// `qbs serve` answers the `Metrics` frame with, admission aside.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics().snapshot();
        for (def, value) in [
            (counter::VERTICES, self.num_vertices() as u64),
            (counter::LANDMARKS, self.num_landmarks() as u64),
            (counter::THREADS, self.threads() as u64),
            (counter::REQUESTS, self.requests.load(Ordering::Relaxed)),
            (counter::BATCHES, self.batches.load(Ordering::Relaxed)),
            (counter::ERRORS, self.errors.load(Ordering::Relaxed)),
        ] {
            snap.push(def, value);
        }
        if let Some(cache) = self.cache_stats() {
            for (def, value) in [
                (counter::CACHE_HITS, cache.hits),
                (counter::CACHE_MISSES, cache.misses),
                (counter::CACHE_INSERTIONS, cache.insertions),
                (counter::CACHE_REJECTED, cache.rejected),
                (counter::CACHE_EVICTIONS, cache.evictions),
                (counter::CACHE_ENTRIES, cache.len as u64),
            ] {
                snap.push(def, value);
            }
        }
        snap
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

    /// `open` in either mode and `load` serve the bytes `build` laid out,
    /// with the same answers and the same statistics.
    #[test]
    fn open_and_load_serve_the_file_the_build_wrote() {
        let dir = std::env::temp_dir().join("qbs_session_open_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let built = session();
        let index = built.index().unwrap();

        let path = dir.join("fig4.qbs");
        serialize::save_to_file(index, &path).expect("save");
        let opened = [
            Qbs::open(&path, MapMode::Read).expect("read"),
            Qbs::open(&path, MapMode::Mmap).expect("mmap"),
            Qbs::load(&path).expect("load"),
        ];
        for (qbs, mapped) in opened.iter().zip([false, true, false]) {
            let served = qbs.index().expect("every session has an index");
            assert_eq!(served.bytes(), index.bytes());
            assert_eq!(
                matches!(served.view().buf(), crate::ViewBuf::Mmap(_)),
                mapped
            );
            let stats = qbs.stats().expect("every session has stats");
            assert_eq!(
                stats.total_index_bytes(),
                built.stats().unwrap().total_index_bytes()
            );
            assert_eq!(stats.total_build_time, std::time::Duration::ZERO);
            for mode in QueryMode::ALL {
                let req = QueryRequest::new(6, 11, mode).with_stats();
                assert_eq!(qbs.execute(&req), built.execute(&req));
            }
        }

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
        use crate::obs::counter::*;
        let qbs = session().with_cache(CacheConfig::default().admit_above(0));
        let count = |qbs: &Qbs| {
            let snap = qbs.metrics_snapshot();
            [REQUESTS, BATCHES, ERRORS, VERTICES, LANDMARKS].map(|def| snap.get(def))
        };
        assert_eq!(count(&qbs), [0, 0, 0, 15, 3].map(Some));

        qbs.submit(&[
            QueryRequest::distance(6, 11),
            QueryRequest::path_graph(4, 12),
            QueryRequest::distance(99, 0),
        ]);
        let _ = qbs.execute(&QueryRequest::sketch(6, 11));
        // Four requests, one batch (execute is not a batch), and the
        // poisoned pair counted once.
        assert_eq!(count(&qbs), [4, 1, 1, 15, 3].map(Some));
        let rendered = qbs.metrics_snapshot().render_text();
        assert!(rendered.contains("requests:  4"), "{rendered}");
        assert!(rendered.contains("15 vertices, 3 landmarks"), "{rendered}");
        assert!(rendered.contains("cache: "), "{rendered}");
        let uncached = session().metrics_snapshot().render_text();
        assert!(uncached.contains("none attached"), "{uncached}");
    }
}
