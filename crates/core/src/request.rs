//! The typed request/response pipeline behind every online query.
//!
//! Serving-oriented path systems treat *distance-only* and *full-answer*
//! queries as distinct modes with distinct cost profiles (Agarwal et al.,
//! "Shortest Paths in Less Than a Millisecond"; Jiang et al., hop
//! doubling): a production batch mixes both, plus the occasional
//! sketch-only probe. This module makes that mix first-class:
//!
//! * [`QueryRequest`] — one query: endpoints, a [`QueryMode`], and
//!   per-request [`QueryOptions`];
//! * [`QbsIndex::execute_with`] — the one door: endpoint validation, the
//!   trivial pair, the answer cache, the stage clocks, and the dispatch to
//!   the sketch ([`crate::sketch`]) and guided search ([`crate::search`]);
//! * [`QueryOutcome`] — the per-request response. Failures (an
//!   out-of-range endpoint) are a *value*, not an `Err` of the whole
//!   batch: one poisoned pair costs one error outcome, never the batch.
//!
//! [`crate::Qbs::execute`] and [`crate::Qbs::submit`] run the door on the
//! session's workspaces and cache, and fan batches out over its query
//! workers ([`crate::engine`]). `QbsIndex::{query, distance, sketch}` are
//! conveniences over the door on a fresh workspace — see `docs/api.md`
//! for the migration table.
//!
//! ```
//! use qbs_core::request::QueryRequest;
//! use qbs_core::{QbsConfig, QbsIndex, QueryWorkspace};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
//! let mut ws = QueryWorkspace::new();
//! let outcome = index.execute_with(&mut ws, &QueryRequest::distance(6, 11), None);
//! assert_eq!(outcome.distance(), Some(5));
//! // A bad endpoint is an error *outcome*, not a panic or a poisoned batch.
//! let bad = index.execute_with(&mut ws, &QueryRequest::path_graph(6, 99), None);
//! assert!(bad.is_error());
//! ```

use std::fmt;
use std::time::Instant;

use qbs_graph::{Distance, PathGraph, VertexId};

use crate::cache::AnswerCache;
use crate::obs::Stage;
use crate::query::QueryAnswer;
use crate::search::{self, SearchStats};
use crate::sketch::{self, Sketch};
use crate::store::QbsIndex;
use crate::workspace::QueryWorkspace;
use crate::QbsError;

/// What a [`QueryRequest`] asks for — the three online query modes.
///
/// Cost profiles differ per mode: [`QueryMode::Sketch`] is the cheapest
/// (`O(|R|²)` landmark algebra, no search), [`QueryMode::Distance`] runs
/// the bounded search without materialising the answer, and
/// [`QueryMode::PathGraph`] pays the full guided search plus the
/// reverse/recover reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryMode {
    /// Only the shortest-path distance `d_G(u, v)`: the cheapest *search*
    /// mode — no sketch edge lists, no reverse/recover materialisation,
    /// and (with a warm workspace) zero heap allocation.
    Distance,
    /// The full shortest path graph (the paper's `SPG(u, v)`), optionally
    /// with the sketch and search statistics behind it
    /// ([`QueryOptions::collect_stats`]).
    PathGraph,
    /// Only the sketch (Algorithm 3): the `O(|R|²)` landmark summary with
    /// the upper bound `d⊤`, no search at all.
    Sketch,
}

impl QueryMode {
    /// All modes, in declaration order.
    pub const ALL: [QueryMode; 3] = [QueryMode::Distance, QueryMode::PathGraph, QueryMode::Sketch];

    /// The CLI/report name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            QueryMode::Distance => "distance",
            QueryMode::PathGraph => "path",
            QueryMode::Sketch => "sketch",
        }
    }
}

impl fmt::Display for QueryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-request execution options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryOptions {
    /// For [`QueryMode::PathGraph`]: return the sketch and search
    /// statistics alongside the path graph
    /// ([`QueryOutcome::PathGraphWithStats`] instead of
    /// [`QueryOutcome::PathGraph`]). Default `false`.
    pub collect_stats: bool,
    /// Whether this request may be served from (and admitted into) an
    /// answer cache, when the executing engine has one. Default `true`.
    pub use_cache: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            collect_stats: false,
            use_cache: true,
        }
    }
}

/// One typed query: endpoints, mode, and options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Query source vertex.
    pub source: VertexId,
    /// Query target vertex.
    pub target: VertexId,
    /// What to compute.
    pub mode: QueryMode,
    /// How to compute it.
    pub opts: QueryOptions,
}

impl QueryRequest {
    /// A request with default options.
    pub fn new(source: VertexId, target: VertexId, mode: QueryMode) -> Self {
        QueryRequest {
            source,
            target,
            mode,
            opts: QueryOptions::default(),
        }
    }

    /// A distance-only request.
    pub fn distance(source: VertexId, target: VertexId) -> Self {
        Self::new(source, target, QueryMode::Distance)
    }

    /// A full shortest-path-graph request.
    pub fn path_graph(source: VertexId, target: VertexId) -> Self {
        Self::new(source, target, QueryMode::PathGraph)
    }

    /// A sketch-only request.
    pub fn sketch(source: VertexId, target: VertexId) -> Self {
        Self::new(source, target, QueryMode::Sketch)
    }

    /// Asks a [`QueryMode::PathGraph`] request to include the sketch and
    /// search statistics in its outcome.
    pub fn with_stats(mut self) -> Self {
        self.opts.collect_stats = true;
        self
    }

    /// Opts this request out of answer caching (it will neither read nor
    /// populate the engine's cache).
    pub fn uncached(mut self) -> Self {
        self.opts.use_cache = false;
        self
    }
}

/// A per-request failure, carried *inside* a [`QueryOutcome`] so one bad
/// request cannot poison the batch it travelled in.
///
/// Unlike [`QbsError`] this type is `Clone + PartialEq`, which is what
/// lets outcomes be compared bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// An endpoint does not exist in the indexed graph.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: u64,
        /// Number of vertices in the indexed graph.
        num_vertices: u64,
    },
    /// No serving backend could answer the request. Produced only by the
    /// scatter/gather routing tier (`qbs route`) when every replica a
    /// request was offered to failed or refused it — a local
    /// `Qbs::submit` never emits this variant, which is what keeps routed
    /// answers bit-identical to local ones whenever replicas are up.
    Unavailable {
        /// Why the routing tier gave up (last failure seen).
        reason: String,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for indexed graph with {num_vertices} vertices"
            ),
            RequestError::Unavailable { reason } => {
                write!(f, "no replica available: {reason}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

impl From<RequestError> for QbsError {
    fn from(err: RequestError) -> Self {
        match err {
            RequestError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => QbsError::VertexOutOfRange {
                vertex,
                num_vertices,
            },
            RequestError::Unavailable { reason } => QbsError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                reason,
            )),
        }
    }
}

/// The response to one [`QueryRequest`]: the mode-shaped answer, or a
/// per-request error.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome {
    /// Answer of a [`QueryMode::Distance`] request.
    Distance(Distance),
    /// Answer of a [`QueryMode::PathGraph`] request without
    /// [`QueryOptions::collect_stats`].
    PathGraph(Box<PathGraph>),
    /// Answer of a [`QueryMode::PathGraph`] request with
    /// [`QueryOptions::collect_stats`]: the path graph plus the sketch and
    /// search statistics behind it.
    PathGraphWithStats(Box<QueryAnswer>),
    /// Answer of a [`QueryMode::Sketch`] request.
    Sketch(Box<Sketch>),
    /// The request failed; the rest of its batch is unaffected.
    Error(RequestError),
}

impl QueryOutcome {
    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        !self.is_error()
    }

    /// Whether the request failed.
    pub fn is_error(&self) -> bool {
        matches!(self, QueryOutcome::Error(_))
    }

    /// The error of a failed request.
    pub fn error(&self) -> Option<&RequestError> {
        match self {
            QueryOutcome::Error(e) => Some(e),
            _ => None,
        }
    }

    /// The shortest-path distance, when this outcome knows it: a
    /// [`QueryOutcome::Distance`] answer, or the distance of a path-graph
    /// answer.
    pub fn distance(&self) -> Option<Distance> {
        match self {
            QueryOutcome::Distance(d) => Some(*d),
            QueryOutcome::PathGraph(pg) => Some(pg.distance()),
            QueryOutcome::PathGraphWithStats(ans) => Some(ans.path_graph.distance()),
            QueryOutcome::Sketch(_) | QueryOutcome::Error(_) => None,
        }
    }

    /// The path graph of a [`QueryMode::PathGraph`] answer (with or
    /// without stats).
    pub fn path_graph(&self) -> Option<&PathGraph> {
        match self {
            QueryOutcome::PathGraph(pg) => Some(pg),
            QueryOutcome::PathGraphWithStats(ans) => Some(&ans.path_graph),
            _ => None,
        }
    }

    /// The full answer of a stats-collecting path-graph request.
    pub fn answer(&self) -> Option<&QueryAnswer> {
        match self {
            QueryOutcome::PathGraphWithStats(ans) => Some(ans),
            _ => None,
        }
    }

    /// The sketch, when this outcome carries one: a
    /// [`QueryMode::Sketch`] answer, or the sketch of a stats-collecting
    /// path-graph answer.
    pub fn sketch(&self) -> Option<&Sketch> {
        match self {
            QueryOutcome::Sketch(s) => Some(s),
            QueryOutcome::PathGraphWithStats(ans) => Some(&ans.sketch),
            _ => None,
        }
    }

    /// Converts the outcome into a `Result`, surfacing a per-request error
    /// as [`QbsError`] for callers that want the legacy fail-fast shape.
    pub fn into_result(self) -> crate::Result<QueryOutcome> {
        match self {
            QueryOutcome::Error(e) => Err(e.into()),
            ok => Ok(ok),
        }
    }
}

/// The canonical successful payload of a request, *before* per-request
/// shaping: path-graph answers always carry their sketch and statistics
/// here (they are computed by the search regardless), and
/// [`QueryOptions::collect_stats`] decides at delivery time whether the
/// caller sees them. This is also the unit the answer cache stores, so one
/// cached entry serves both stats and non-stats requests identically.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum AnswerBody {
    /// Distance-only answer.
    Distance(Distance),
    /// Full path-graph answer (sketch + stats always present).
    PathGraph(Box<QueryAnswer>),
    /// Sketch-only answer.
    Sketch(Box<Sketch>),
}

impl AnswerBody {
    /// Shapes the body into the outcome the request asked for. Shaping is
    /// deterministic, so a cached body and a fresh body produce
    /// bit-identical outcomes.
    pub(crate) fn shape(&self, opts: &QueryOptions) -> QueryOutcome {
        match self {
            AnswerBody::Distance(d) => QueryOutcome::Distance(*d),
            AnswerBody::PathGraph(ans) => {
                if opts.collect_stats {
                    QueryOutcome::PathGraphWithStats(ans.clone())
                } else {
                    QueryOutcome::PathGraph(Box::new(ans.path_graph.clone()))
                }
            }
            AnswerBody::Sketch(s) => QueryOutcome::Sketch(s.clone()),
        }
    }

    /// Shapes the body by move — the no-cache fast path, which clones
    /// nothing.
    pub(crate) fn shape_into(self, opts: &QueryOptions) -> QueryOutcome {
        match self {
            AnswerBody::Distance(d) => QueryOutcome::Distance(d),
            AnswerBody::PathGraph(ans) => {
                if opts.collect_stats {
                    QueryOutcome::PathGraphWithStats(ans)
                } else {
                    QueryOutcome::PathGraph(Box::new(ans.path_graph))
                }
            }
            AnswerBody::Sketch(s) => QueryOutcome::Sketch(s),
        }
    }

    /// The answer to a trivial pair (`u == v`), which needs no search:
    /// distance 0, the one-vertex path graph, and the sketch with no hops.
    fn trivial(request: &QueryRequest) -> Self {
        let v = request.source;
        match request.mode {
            QueryMode::Distance => AnswerBody::Distance(0),
            QueryMode::PathGraph => AnswerBody::PathGraph(Box::new(QueryAnswer {
                path_graph: PathGraph::trivial(v),
                sketch: Sketch::unreachable(v, v),
                stats: SearchStats {
                    distance: 0,
                    ..SearchStats::default()
                },
            })),
            QueryMode::Sketch => AnswerBody::Sketch(Box::new(Sketch::unreachable(v, v))),
        }
    }
}

impl QbsIndex {
    /// Executes one [`QueryRequest`] on the buffers of `ws`, through
    /// `cache` when one is given and the request allows it
    /// ([`QueryOptions::use_cache`]): the one door every online query
    /// passes, whatever its mode.
    ///
    /// In order, the door looks the request up in the cache, checks the
    /// endpoints (an out-of-range one is a [`QueryOutcome::Error`], the
    /// source reported first), answers a trivial pair (`u == v`) with no
    /// search, or else fills the endpoint labels, sketches (Algorithm 3;
    /// the `d⊤` bound alone in distance mode) and runs the guided search
    /// (Algorithm 4), and offers the fresh answer to the cache. Cached and
    /// fresh outcomes are bit-identical: the cache stores the canonical
    /// answer body, and one deterministic shaping serves both.
    ///
    /// The stage clocks are chained: while `ws` collects stage timings the
    /// clock is read once per stage boundary, so adjacent stages share
    /// endpoints and [`crate::Stage::Execute`] runs from the first read to
    /// the last (see `docs/observability.md`).
    pub fn execute_with(
        &self,
        ws: &mut QueryWorkspace,
        request: &QueryRequest,
        cache: Option<&AnswerCache>,
    ) -> QueryOutcome {
        let cache = cache.filter(|_| request.opts.use_cache);
        let start = ws.obs.now();
        let mut clock = start;
        if let Some(cache) = cache {
            let hit = cache.lookup(request);
            clock = ws.obs.lap(Stage::CacheLookup, clock);
            if let Some(outcome) = hit {
                ws.obs.span(Stage::Execute, start, clock);
                return outcome;
            }
        }
        let trivial = request.source == request.target;
        let computed = self.check_endpoints(request).map(|()| {
            ws.record_query();
            if trivial {
                (AnswerBody::trivial(request), 0)
            } else {
                self.compute(ws, request, &mut clock)
            }
        });
        if cache.is_none() && (trivial || computed.is_err()) {
            // No stage ran: the request's span needs a closing read.
            clock = ws.obs.now();
        }
        let outcome = match computed {
            Ok((body, hint)) => {
                if let Some(cache) = cache {
                    cache.admit(request, &body, hint);
                    clock = ws.obs.lap(Stage::CacheAdmit, clock);
                }
                body.shape_into(&request.opts)
            }
            Err(e) => QueryOutcome::Error(e),
        };
        ws.obs.span(Stage::Execute, start, clock);
        outcome
    }

    /// Answers `SPG(source, target)` on a fresh workspace: a convenience
    /// over [`QbsIndex::execute_with`], which hot loops call instead with
    /// one long-lived [`QueryWorkspace`].
    pub fn query(&self, source: VertexId, target: VertexId) -> crate::Result<PathGraph> {
        let outcome = self.execute_alone(QueryRequest::path_graph(source, target))?;
        Ok(outcome.path_graph().expect(ANSWERS_IN_MODE).clone())
    }

    /// The shortest-path distance `d_G(source, target)` on a fresh
    /// workspace: a convenience over [`QbsIndex::execute_with`].
    pub fn distance(&self, source: VertexId, target: VertexId) -> crate::Result<Distance> {
        let outcome = self.execute_alone(QueryRequest::distance(source, target))?;
        Ok(outcome.distance().expect(ANSWERS_IN_MODE))
    }

    /// The sketch of a query (Algorithm 3, no search) on a fresh
    /// workspace: a convenience over [`QbsIndex::execute_with`]. A trivial
    /// pair's sketch is [`Sketch::unreachable`].
    pub fn sketch(&self, source: VertexId, target: VertexId) -> crate::Result<Sketch> {
        let outcome = self.execute_alone(QueryRequest::sketch(source, target))?;
        Ok(outcome.sketch().expect(ANSWERS_IN_MODE).clone())
    }

    /// Runs `request` through the door on a fresh workspace with no cache.
    fn execute_alone(&self, request: QueryRequest) -> crate::Result<QueryOutcome> {
        self.execute_with(&mut QueryWorkspace::new(), &request, None)
            .into_result()
    }

    /// Rejects an endpoint outside the indexed graph, the source first.
    fn check_endpoints(&self, request: &QueryRequest) -> Result<(), RequestError> {
        let num_vertices = self.num_vertices();
        match [request.source, request.target]
            .into_iter()
            .find(|&v| v as usize >= num_vertices)
        {
            Some(v) => Err(RequestError::VertexOutOfRange {
                vertex: v as u64,
                num_vertices: num_vertices as u64,
            }),
            None => Ok(()),
        }
    }

    /// Answers an in-range pair with `source != target`, returning the
    /// canonical body plus its cache-admission cost hint: the sketch
    /// upper bound `d⊤` (a larger bound expands a larger search, so the
    /// answer is worth more cache space). Ends the `SketchBound` stage
    /// after the label lanes' unpack and the sketch, and the
    /// `GuidedSearch` stage after the search, each with one read of
    /// `clock`.
    fn compute(
        &self,
        ws: &mut QueryWorkspace,
        request: &QueryRequest,
        clock: &mut Option<Instant>,
    ) -> (AnswerBody, Distance) {
        let (source, target) = (request.source, request.target);
        if request.mode == QueryMode::Distance {
            let bound = sketch::compute_bounds(self, ws, source, target);
            *clock = ws.obs.lap(Stage::SketchBound, *clock);
            let (distance, _) = search::guided_distance_with(self, ws, source, target, bound);
            *clock = ws.obs.lap(Stage::GuidedSearch, *clock);
            return (AnswerBody::Distance(distance), bound);
        }
        let sketch = sketch::compute(self, ws, source, target);
        *clock = ws.obs.lap(Stage::SketchBound, *clock);
        let hint = sketch.upper_bound;
        if request.mode == QueryMode::Sketch {
            return (AnswerBody::Sketch(Box::new(sketch)), hint);
        }
        let (path_graph, stats) = search::guided_search_with(self, ws, source, target, &sketch);
        *clock = ws.obs.lap(Stage::GuidedSearch, *clock);
        let answer = QueryAnswer {
            path_graph,
            sketch,
            stats,
        };
        (AnswerBody::PathGraph(Box::new(answer)), hint)
    }
}

/// Why the conveniences' answer accessors cannot miss.
const ANSWERS_IN_MODE: &str = "the door answers in the request's mode";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, QbsConfig, QbsError};
    use qbs_graph::fixtures::figure4_graph;

    fn index() -> QbsIndex {
        QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
    }

    #[test]
    fn modes_dispatch_to_matching_outcomes() {
        let index = index();
        let mut ws = QueryWorkspace::new();
        let d = index.execute_with(&mut ws, &QueryRequest::distance(6, 11), None);
        assert_eq!(d, QueryOutcome::Distance(5));
        assert_eq!(d.distance(), Some(5));
        assert!(d.path_graph().is_none() && d.sketch().is_none() && d.error().is_none());

        let pg = index.execute_with(&mut ws, &QueryRequest::path_graph(6, 11), None);
        assert!(matches!(pg, QueryOutcome::PathGraph(_)));
        assert_eq!(pg.path_graph().unwrap().distance(), 5);
        assert_eq!(pg.distance(), Some(5));
        assert!(pg.answer().is_none(), "stats were not requested");

        let full = index.execute_with(&mut ws, &QueryRequest::path_graph(6, 11).with_stats(), None);
        let answer = full.answer().expect("stats requested");
        assert_eq!(answer.path_graph, index.query(6, 11).unwrap());
        assert_eq!(full.sketch().unwrap().upper_bound, 5);

        let sk = index.execute_with(&mut ws, &QueryRequest::sketch(6, 11), None);
        assert_eq!(sk.sketch().unwrap(), &index.sketch(6, 11).unwrap());
        assert_eq!(sk.distance(), None, "a sketch only bounds the distance");
    }

    #[test]
    fn errors_are_per_request_values() {
        let index = index();
        let mut ws = QueryWorkspace::new();
        for mode in QueryMode::ALL {
            let outcome = index.execute_with(&mut ws, &QueryRequest::new(0, 99, mode), None);
            assert!(outcome.is_error(), "{mode}");
            assert_eq!(
                outcome.error(),
                Some(&RequestError::VertexOutOfRange {
                    vertex: 99,
                    num_vertices: 15
                })
            );
            assert!(matches!(
                outcome.into_result(),
                Err(QbsError::VertexOutOfRange { vertex: 99, .. })
            ));
        }
        let ok = index.execute_with(&mut ws, &QueryRequest::distance(0, 1), None);
        assert!(ok.is_ok());
        assert!(ok.clone().into_result().is_ok());
    }

    #[test]
    fn request_builders_set_options() {
        let req = QueryRequest::path_graph(1, 2).with_stats().uncached();
        assert!(req.opts.collect_stats && !req.opts.use_cache);
        assert_eq!(QueryRequest::distance(1, 2).opts, QueryOptions::default());
        assert_eq!(QueryMode::Distance.to_string(), "distance");
        assert_eq!(QueryMode::PathGraph.name(), "path");
        assert_eq!(QueryMode::Sketch.name(), "sketch");
        let err = RequestError::VertexOutOfRange {
            vertex: 7,
            num_vertices: 3,
        };
        assert!(err.to_string().contains("vertex 7"));
    }

    /// Runs `request` on a fresh timed workspace; returns the workspace.
    fn timed(
        index: &QbsIndex,
        request: QueryRequest,
        cache: Option<&AnswerCache>,
    ) -> QueryWorkspace {
        let mut ws = QueryWorkspace::new();
        ws.obs.enabled = true;
        index.execute_with(&mut ws, &request, cache);
        ws
    }

    /// `SketchBound` covers the label fill and the sketch or bound, and
    /// `GuidedSearch` the search: a trivial or out-of-range request records
    /// neither, in every mode. Every request records `Execute`.
    #[test]
    fn stages_record_the_work_each_request_does() {
        let index = index();
        for mode in QueryMode::ALL {
            for (source, target) in [(6, 11), (5, 5), (0, 99)] {
                for cached in [false, true] {
                    let cache = AnswerCache::new(CacheConfig::default());
                    let request = QueryRequest::new(source, target, mode);
                    let ns = timed(&index, request, cached.then_some(&cache)).obs.take();
                    let recorded: Vec<Stage> = Stage::ALL
                        .into_iter()
                        .filter(|&s| ns[s as usize] > 0)
                        .collect();
                    let sketched = source != target && target < 15;
                    let expected: Vec<Stage> = [
                        (Stage::SketchBound, sketched),
                        (Stage::GuidedSearch, sketched && mode != QueryMode::Sketch),
                        (Stage::CacheLookup, cached),
                        (Stage::CacheAdmit, cached && target < 15),
                        (Stage::Execute, true),
                    ]
                    .into_iter()
                    .filter_map(|(stage, ran)| ran.then_some(stage))
                    .collect();
                    assert_eq!(
                        recorded, expected,
                        "{mode} ({source}, {target}) cached {cached}"
                    );
                }
            }
        }
    }

    /// The clock is read once per stage boundary. Adding a read to the
    /// request path fails here; removing one updates these constants.
    #[test]
    fn clock_reads_per_request_are_pinned() {
        let index = index();
        let reads = |request, cache| timed(&index, request, cache).obs.reads;
        assert_eq!(reads(QueryRequest::path_graph(6, 11), None), 3);
        assert_eq!(reads(QueryRequest::distance(6, 11), None), 3);
        assert_eq!(reads(QueryRequest::sketch(6, 11), None), 2);
        let cache = AnswerCache::new(CacheConfig::default());
        assert_eq!(
            reads(QueryRequest::path_graph(6, 11), Some(&cache)),
            5,
            "miss"
        );
        assert_eq!(
            reads(QueryRequest::path_graph(6, 11), Some(&cache)),
            2,
            "hit"
        );
    }

    /// Every computed in-range request counts once, trivial pairs and
    /// sketches included; errors and cache hits do not.
    #[test]
    fn queries_served_counts_computed_requests_in_every_mode() {
        let index = index();
        let cache = AnswerCache::new(CacheConfig::default().admit_above(0));
        let mut ws = QueryWorkspace::new();
        for (source, target) in [(6, 11), (5, 5), (0, 99), (6, 11)] {
            for mode in QueryMode::ALL {
                let request = QueryRequest::new(source, target, mode);
                index.execute_with(&mut ws, &request, Some(&cache));
            }
        }
        assert_eq!(ws.queries_served(), 6);
        assert_eq!(cache.stats().hits, 3);
    }
}
