//! Concurrent batch query execution over a pool of reusable workspaces.
//!
//! A [`QueryEngine`] is the serving-side companion of the index: it owns a
//! pool of [`QueryWorkspace`]s and fans batches of queries out over a
//! scoped worker pool — the calling thread plus `threads − 1` spawned
//! ones. Each worker checks one workspace out of the pool for the whole
//! batch and pulls query indices from a shared atomic cursor in small
//! chunks — a work-stealing discipline (idle workers keep claiming
//! whatever work remains) that keeps all cores busy even when per-query
//! cost is highly skewed, which it is: a query whose endpoints are far
//! apart expands orders of magnitude more frontier than an adjacent pair.
//! That fan-out is the only place in this crate that spawns query
//! threads; [`QueryEngine::submit`] has one path through it, behind the
//! duplicate-request coalescing of [`crate::plan`].
//!
//! The engine is generic over its [`IndexStore`] backend:
//! `QueryEngine<'_, QbsIndex>` (the default) serves the owned index, while
//! `QueryEngine<'_, ViewStore>` serves **straight from a mapped index
//! file** — a cold shard process maps one immutable file, wraps it in a
//! [`crate::store::ViewStore`], and answers its first query without ever
//! materialising the owned structures. Answers are bit-identical across
//! backends.
//!
//! Because workspaces are returned to the pool after every batch, the
//! steady state of a long-running engine performs **zero workspace
//! allocations**: the per-vertex scratch arrays are allocated once per
//! worker and reset per query by epoch bumping (see
//! [`crate::workspace`]). The only remaining heap traffic is the storage
//! owned by the returned answers.
//!
//! The serving entry point is the typed request pipeline
//! ([`crate::request`]): [`QueryEngine::submit`] executes a heterogeneous
//! batch of [`QueryRequest`]s — distance, path-graph and sketch modes mix
//! freely — with **per-request** outcomes, so one out-of-range pair yields
//! one [`QueryOutcome::Error`] slot instead of poisoning the batch. An
//! optional sharded LRU [`AnswerCache`] slots in front of the executor
//! ([`QueryEngine::with_answer_cache`]). This is the only batch surface.
//!
//! ```
//! use qbs_core::request::QueryRequest;
//! use qbs_core::{QbsConfig, QbsIndex, QueryEngine};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
//! let engine = QueryEngine::new(&index);
//! // Heterogeneous batch: a distance probe, a full answer, a bad request.
//! let outcomes = engine.submit(&[
//!     QueryRequest::distance(6, 11),
//!     QueryRequest::path_graph(4, 12),
//!     QueryRequest::distance(6, 999),
//! ]);
//! assert_eq!(outcomes[0].distance(), Some(5));
//! assert!(outcomes[1].path_graph().is_some());
//! assert!(outcomes[2].is_error()); // that slot only — the batch survived
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use qbs_graph::VertexId;

use crate::cache::{AnswerCache, CacheConfig, CacheStats};
use crate::obs::{AtomicStageNanos, Metrics, Stage, StageNanos};
use crate::plan::{self, PlannerCounters, PlannerStats};
use crate::query::{self, QbsIndex, QueryAnswer};
use crate::request::{execute_cached_on, QueryOutcome, QueryRequest};
use crate::store::IndexStore;
use crate::workspace::QueryWorkspace;
use crate::QbsError;

/// How many query indices a worker claims per cursor fetch. Small enough
/// that skewed batches still balance, large enough that the atomic is not
/// contended on microsecond queries.
const CLAIM_CHUNK: usize = 16;

/// A concurrent batch query engine over a borrowed [`IndexStore`].
pub struct QueryEngine<'idx, S: IndexStore = QbsIndex> {
    store: &'idx S,
    threads: usize,
    /// Checked-out-and-returned pool of per-worker workspaces. Check-in
    /// drops workspaces beyond `threads`, so even when multiple callers run
    /// batches on the same engine concurrently (each batch spawns its own
    /// scoped workers), the retained memory stays bounded at `threads`
    /// workspaces; the surplus is freed instead of pooled.
    workspaces: Mutex<Vec<QueryWorkspace>>,
    /// Optional answer cache consulted by the request pipeline
    /// ([`QueryEngine::submit`] / [`QueryEngine::execute`]). `Arc` so a
    /// session façade (or several engines over the same store) can share
    /// one cache.
    cache: Option<Arc<AnswerCache>>,
    /// Coalesced-duplicate counters. `Arc` for the same reason as the
    /// cache: the session façade accumulates across transient engines.
    counters: Arc<PlannerCounters>,
    /// Observability registry fed with per-stage request timings. `Arc`
    /// for the same reason as the planner counters; `None` on standalone
    /// engines, which stay uninstrumented.
    metrics: Option<Arc<Metrics>>,
    /// Per-stage sums of the batch(es) executed since the last
    /// [`QueryEngine::take_batch_obs`] — the slow-query log's breakdown.
    batch_ns: AtomicStageNanos,
}

impl<'idx, S: IndexStore> QueryEngine<'idx, S> {
    /// Creates an engine using all available parallelism.
    pub fn new(store: &'idx S) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::build(store, threads)
    }

    /// Creates an engine with an explicit worker count.
    ///
    /// Fails with [`QbsError::ThreadPool`] when `threads` is zero.
    pub fn with_threads(store: &'idx S, threads: usize) -> crate::Result<Self> {
        if threads == 0 {
            return Err(QbsError::ThreadPool(
                "QueryEngine requires at least one worker thread".into(),
            ));
        }
        Ok(Self::build(store, threads))
    }

    fn build(store: &'idx S, threads: usize) -> Self {
        QueryEngine {
            store,
            threads,
            workspaces: Mutex::new(Vec::new()),
            cache: None,
            counters: Arc::new(PlannerCounters::default()),
            metrics: None,
            batch_ns: AtomicStageNanos::default(),
        }
    }

    /// Builds an engine that already owns a warm workspace pool and
    /// (optionally) a shared cache plus planner counters — the session
    /// façade's way of keeping its steady state across transient engines.
    pub(crate) fn with_pool(
        store: &'idx S,
        threads: usize,
        pool: Vec<QueryWorkspace>,
        cache: Option<Arc<AnswerCache>>,
        counters: Arc<PlannerCounters>,
        metrics: Option<Arc<Metrics>>,
    ) -> Self {
        QueryEngine {
            store,
            threads,
            workspaces: Mutex::new(pool),
            cache,
            counters,
            metrics,
            batch_ns: AtomicStageNanos::default(),
        }
    }

    /// Takes the workspace pool back out of the engine (façade pool
    /// handoff; see [`QueryEngine::with_pool`]).
    pub(crate) fn into_pool(self) -> Vec<QueryWorkspace> {
        self.workspaces
            .into_inner()
            .expect("workspace pool poisoned")
    }

    /// Attaches a fresh answer cache with the given configuration
    /// (builder style). See [`crate::cache`] for the admission and
    /// identity rules.
    pub fn with_answer_cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(Arc::new(AnswerCache::new(config)));
        self
    }

    /// Attaches an existing (possibly shared) answer cache.
    ///
    /// Cache keys are `(u, v, mode)` with **no store identity**, so every
    /// engine sharing one cache MUST serve the same logical index
    /// (identical graph + landmark set — e.g. the owned index and a view
    /// of its own serialised bytes, or several engines over one store).
    /// Sharing a cache across *different* indexes silently serves answers
    /// from the wrong graph.
    pub fn with_shared_cache(mut self, cache: Arc<AnswerCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Snapshot of the planner's counter: duplicate batch slots served
    /// from another slot's computation.
    pub fn planner_stats(&self) -> PlannerStats {
        self.counters.snapshot()
    }

    /// The metrics registry, when attached *and* recording — the one
    /// check instrumented paths branch on.
    fn obs(&self) -> Option<&Metrics> {
        self.metrics.as_deref().filter(|m| m.is_enabled())
    }

    /// Takes the per-stage time sums accumulated since the last call —
    /// the whole-batch breakdown the serving layer attaches to slow-query
    /// log lines. All zero while uninstrumented.
    pub fn take_batch_obs(&self) -> StageNanos {
        self.batch_ns.take()
    }

    /// Executes one request on `ws` with stage instrumentation, flushing
    /// the request's stage figures into the metrics registry — one sample
    /// per computation, so a coalesced job contributes one. The shared
    /// per-request execution body of [`QueryEngine::execute`] and
    /// [`QueryEngine::submit`].
    fn execute_observed(&self, ws: &mut QueryWorkspace, request: &QueryRequest) -> QueryOutcome {
        let metrics = self.obs();
        ws.obs.enabled = metrics.is_some();
        let t = ws.obs.start();
        let outcome = execute_cached_on(self.store, ws, request, self.cache.as_deref());
        ws.obs.stop(Stage::Execute, t);
        if let Some(m) = metrics {
            let ns = ws.obs.take();
            m.record_request(request.mode, &ns);
            self.batch_ns.add(&ns);
            ws.obs.enabled = false;
        }
        outcome
    }

    /// The attached answer cache, if any.
    pub fn answer_cache(&self) -> Option<&Arc<AnswerCache>> {
        self.cache.as_ref()
    }

    /// Counter snapshot of the attached cache (`None` when the engine runs
    /// uncached).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The wrapped storage backend.
    pub fn store(&self) -> &'idx S {
        self.store
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of pooled workspaces currently available (grows towards the
    /// worker count as batches run; exposed for tests and monitoring).
    pub fn pooled_workspaces(&self) -> usize {
        self.workspaces
            .lock()
            .expect("workspace pool poisoned")
            .len()
    }

    /// Answers a single query on a pooled workspace.
    pub fn query(&self, source: VertexId, target: VertexId) -> crate::Result<QueryAnswer> {
        let mut ws = self.checkout();
        let result = query::query_on(self.store, &mut ws, source, target);
        self.checkin(ws);
        result
    }

    /// Executes a single typed request on a pooled workspace, through the
    /// cache when one is attached.
    pub fn execute(&self, request: &QueryRequest) -> QueryOutcome {
        let mut ws = self.checkout();
        let outcome = self.execute_observed(&mut ws, request);
        self.checkin(ws);
        outcome
    }

    /// Executes a heterogeneous batch of typed requests, in input order —
    /// the serving entry point of the request pipeline, and the only
    /// batch API.
    ///
    /// `submit` never fails as a whole: each slot resolves independently,
    /// so a request with an out-of-range endpoint yields
    /// [`QueryOutcome::Error`] *for that slot only* while every other
    /// request is answered normally. Distance, path-graph and sketch
    /// requests mix freely in one batch, and requests with
    /// [`crate::request::QueryOptions::use_cache`] go through the attached
    /// answer cache. Outcomes are bit-identical across storage backends.
    ///
    /// Requests repeated inside the batch are coalesced first
    /// ([`crate::plan`]): each distinct key is executed once — one search,
    /// one cache lookup, at most one admission — and its answer shaped
    /// into every duplicate slot by that slot's own options, without
    /// changing a single answered bit.
    pub fn submit(&self, requests: &[QueryRequest]) -> Vec<QueryOutcome> {
        // A lone request has nothing to coalesce and records no planner sample.
        let timed = self.obs().filter(|_| requests.len() >= 2);
        let timed = timed.map(|m| (m, std::time::Instant::now()));
        let dedup = plan::dedupe(requests, self.store.num_vertices());
        if let Some((m, t)) = timed {
            let d = t.elapsed();
            m.record_batch_stage(Stage::Planner, d);
            self.batch_ns
                .add_one(Stage::Planner, crate::obs::saturating_ns(d));
        }
        let Some(dedup) = dedup else {
            return self.fan_out(requests);
        };
        self.counters
            .add_dedup_hits((requests.len() - dedup.jobs.len()) as u64);
        dedup.shape(requests, self.fan_out(&dedup.jobs))
    }

    /// The one batch driver: executes `requests` over the scoped worker
    /// pool with the chunked work-stealing cursor, one outcome slot per
    /// request, in input order. The calling thread is one of the workers.
    /// Execution is infallible — per-request failures are values (see
    /// [`QueryOutcome`]), not panics.
    fn fan_out(&self, requests: &[QueryRequest]) -> Vec<QueryOutcome> {
        let workers = self
            .threads
            .min(requests.len().div_ceil(CLAIM_CHUNK))
            .max(1);
        if workers == 1 {
            let mut ws = self.checkout();
            let out = requests
                .iter()
                .map(|req| self.execute_observed(&mut ws, req))
                .collect();
            self.checkin(ws);
            return out;
        }

        let cursor = AtomicUsize::new(0);
        let slots: Vec<OnceLock<QueryOutcome>> =
            (0..requests.len()).map(|_| OnceLock::new()).collect();
        let claim_loop = || {
            let mut ws = self.checkout();
            loop {
                let start = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                if start >= requests.len() {
                    break;
                }
                let end = (start + CLAIM_CHUNK).min(requests.len());
                for idx in start..end {
                    let outcome = self.execute_observed(&mut ws, &requests[idx]);
                    slots[idx]
                        .set(outcome)
                        .unwrap_or_else(|_| panic!("slot {idx} filled twice"));
                }
            }
            self.checkin(ws);
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(claim_loop);
            }
            claim_loop();
        });

        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every slot filled by the workers"))
            .collect()
    }

    fn checkout(&self) -> QueryWorkspace {
        self.workspaces
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_else(|| QueryWorkspace::for_vertices(self.store.num_vertices()))
    }

    fn checkin(&self, ws: QueryWorkspace) {
        let mut pool = self.workspaces.lock().expect("workspace pool poisoned");
        // Bound retained memory at one workspace per configured worker;
        // surplus workspaces (possible when several batches run on this
        // engine concurrently) are dropped rather than pooled.
        if pool.len() < self.threads {
            pool.push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QbsConfig;
    use crate::store::ViewStore;
    use qbs_graph::fixtures::{figure3_graph, figure4_graph};

    fn all_pairs(n: u32) -> Vec<(VertexId, VertexId)> {
        let mut pairs = Vec::new();
        for u in 0..n {
            for v in 0..n {
                pairs.push((u, v));
            }
        }
        pairs
    }

    fn path_graph_requests(pairs: &[(VertexId, VertexId)]) -> Vec<QueryRequest> {
        pairs
            .iter()
            .map(|&(u, v)| QueryRequest::path_graph(u, v).with_stats())
            .collect()
    }

    #[test]
    fn batch_answers_match_single_queries_in_order() {
        let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
        let engine = QueryEngine::with_threads(&index, 4).expect("engine");
        let pairs = all_pairs(15);
        let outcomes = engine.submit(&path_graph_requests(&pairs));
        assert_eq!(outcomes.len(), pairs.len());
        for (&(u, v), outcome) in pairs.iter().zip(&outcomes) {
            let answer = outcome.answer().expect("in-range pair");
            let expected = index.query_with_stats(u, v).expect("single query");
            assert_eq!(
                answer.path_graph, expected.path_graph,
                "answer of ({u},{v})"
            );
            assert_eq!(answer.stats, expected.stats, "stats of ({u},{v})");
        }
    }

    #[test]
    fn view_backed_engine_matches_owned_engine() {
        let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
        let store = ViewStore::new(index.as_view());
        let owned_engine = QueryEngine::with_threads(&index, 2).expect("engine");
        let view_engine = QueryEngine::with_threads(&store, 2).expect("view engine");
        let pairs = all_pairs(15);
        let requests = path_graph_requests(&pairs);
        let owned = owned_engine.submit(&requests);
        let viewed = view_engine.submit(&requests);
        for ((a, b), &(u, v)) in owned.iter().zip(&viewed).zip(&pairs) {
            assert_eq!(a, b, "batch answer of ({u},{v}) diverged across backends");
        }
        let distances: Vec<QueryRequest> = pairs
            .iter()
            .map(|&(u, v)| QueryRequest::distance(u, v))
            .collect();
        assert_eq!(
            owned_engine.submit(&distances),
            view_engine.submit(&distances),
        );
        assert_eq!(view_engine.store().view().num_landmarks(), 3);
    }

    #[test]
    fn distance_requests_match_path_graph_answers() {
        let index = QbsIndex::build(figure3_graph(), QbsConfig::with_landmark_count(2));
        let engine = QueryEngine::with_threads(&index, 2).expect("engine");
        let pairs = all_pairs(8);
        let answers = engine.submit(&path_graph_requests(&pairs));
        let distances: Vec<QueryRequest> = pairs
            .iter()
            .map(|&(u, v)| QueryRequest::distance(u, v))
            .collect();
        let distances = engine.submit(&distances);
        for ((answer, d), &(u, v)) in answers.iter().zip(&distances).zip(&pairs) {
            assert_eq!(
                answer.answer().expect("in range").path_graph.distance(),
                d.distance().expect("in range"),
                "distance of ({u},{v})"
            );
        }
    }

    #[test]
    fn workspace_pool_is_bounded_and_reused() {
        let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
        let engine = QueryEngine::with_threads(&index, 3).expect("engine");
        assert_eq!(engine.pooled_workspaces(), 0);
        for _ in 0..5 {
            engine.submit(&path_graph_requests(&all_pairs(15)));
        }
        let pooled = engine.pooled_workspaces();
        assert!((1..=3).contains(&pooled), "pool holds {pooled} workspaces");
        let total_served: u64 = {
            let pool = engine.workspaces.lock().unwrap();
            pool.iter().map(|ws| ws.queries_served()).sum()
        };
        assert_eq!(total_served, 5 * 15 * 15, "workspaces were actually reused");
    }

    #[test]
    fn out_of_range_requests_fail_their_slot_only() {
        let index = QbsIndex::build(figure3_graph(), QbsConfig::with_landmark_count(2));
        let engine = QueryEngine::new(&index);
        let outcomes = engine.submit(&[
            QueryRequest::path_graph(0, 1),
            QueryRequest::path_graph(99, 0),
        ]);
        assert!(!outcomes[0].is_error(), "good slot unaffected");
        assert!(outcomes[1].is_error(), "bad slot fails alone");
        assert!(engine.query(0, 99).is_err());
        assert_eq!(engine.query(3, 7).unwrap().path_graph.distance(), 4);
    }

    #[test]
    fn zero_threads_is_rejected() {
        let index = QbsIndex::build(figure3_graph(), QbsConfig::with_landmark_count(2));
        assert!(matches!(
            QueryEngine::with_threads(&index, 0),
            Err(QbsError::ThreadPool(_))
        ));
        assert!(QueryEngine::new(&index).threads() >= 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let index = QbsIndex::build(figure3_graph(), QbsConfig::with_landmark_count(2));
        let engine = QueryEngine::new(&index);
        assert!(engine.submit(&[]).is_empty());
        assert_eq!(engine.store().graph().num_vertices(), 8);
    }

    #[test]
    fn submit_mixes_modes_and_isolates_per_request_errors() {
        let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
        let engine = QueryEngine::with_threads(&index, 3).expect("engine");
        let requests = vec![
            QueryRequest::distance(6, 11),
            QueryRequest::path_graph(6, 11).with_stats(),
            QueryRequest::new(99, 0, crate::request::QueryMode::Sketch),
            QueryRequest::sketch(6, 11),
            QueryRequest::path_graph(4, 12),
        ];
        let outcomes = engine.submit(&requests);
        assert_eq!(outcomes.len(), 5);
        assert_eq!(outcomes[0].distance(), Some(5));
        assert_eq!(
            outcomes[1].answer().unwrap().path_graph,
            index.query(6, 11).unwrap()
        );
        assert!(outcomes[2].is_error(), "poisoned slot fails alone");
        assert_eq!(outcomes[3].sketch().unwrap(), &index.sketch(6, 11).unwrap());
        assert_eq!(
            outcomes[4].path_graph().unwrap(),
            &index.query(4, 12).unwrap()
        );
    }

    #[test]
    fn engine_cache_serves_bit_identical_answers() {
        let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
        let uncached = QueryEngine::with_threads(&index, 2).expect("engine");
        let cached = QueryEngine::with_threads(&index, 2)
            .expect("engine")
            .with_answer_cache(crate::cache::CacheConfig::default().admit_above(0));
        assert!(uncached.cache_stats().is_none());

        let requests: Vec<QueryRequest> = all_pairs(15)
            .into_iter()
            .map(|(u, v)| QueryRequest::path_graph(u, v).with_stats())
            .collect();
        let cold = cached.submit(&requests);
        let warm = cached.submit(&requests);
        let fresh = uncached.submit(&requests);
        assert_eq!(cold, fresh, "cold cached run matches uncached run");
        assert_eq!(warm, fresh, "warm cache hits are bit-identical");
        let stats = cached.cache_stats().expect("cache attached");
        assert!(stats.hits > 0, "{stats:?}");
        assert!(cached.answer_cache().is_some());
    }
}
