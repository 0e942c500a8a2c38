//! The typed request/response pipeline behind every online entry point.
//!
//! Serving-oriented path systems treat *distance-only* and *full-answer*
//! queries as distinct modes with distinct cost profiles (Agarwal et al.,
//! "Shortest Paths in Less Than a Millisecond"; Jiang et al., hop
//! doubling): a production batch mixes both, plus the occasional
//! sketch-only probe. This module makes that mix first-class:
//!
//! * [`QueryRequest`] — one query: endpoints, a [`QueryMode`], and
//!   per-request [`QueryOptions`];
//! * [`execute_on`] — the single executor: dispatches to the
//!   sketch/guided-search internals ([`crate::query::distance_on`],
//!   [`crate::query::query_on`], [`crate::query::sketch_on`]);
//! * [`QueryOutcome`] — the per-request response. Failures (an
//!   out-of-range endpoint) are a *value*, not an `Err` of the whole
//!   batch: one poisoned pair costs one error outcome, never the batch.
//!
//! [`crate::Qbs::submit`] fans batches of requests out over the session's
//! long-lived query workers ([`crate::engine`]), and
//! [`crate::cache::AnswerCache`] slots in between the request and the
//! executor (see [`execute_cached_on`]). The
//! single-query entry points (`QbsIndex::query` and friends) are thin
//! wrappers over the same internals — see `docs/api.md` for the
//! migration table.
//!
//! ```
//! use qbs_core::request::{execute_on, QueryMode, QueryRequest};
//! use qbs_core::{QbsConfig, QbsIndex, QueryWorkspace};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
//! let mut ws = QueryWorkspace::new();
//! let outcome = execute_on(&index, &mut ws, &QueryRequest::distance(6, 11));
//! assert_eq!(outcome.distance(), Some(5));
//! // A bad endpoint is an error *outcome*, not a panic or a poisoned batch.
//! let bad = execute_on(&index, &mut ws, &QueryRequest::path_graph(6, 99));
//! assert!(bad.is_error());
//! ```

use std::fmt;

use qbs_graph::{Distance, PathGraph, VertexId};

use crate::cache::AnswerCache;
use crate::query::{self, QueryAnswer};
use crate::sketch::Sketch;
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

/// Converts the executor-internal [`QbsError`] into the per-request form.
/// The online query path can only fail on endpoint validation; anything
/// else would be a bug in the dispatcher.
fn request_error(err: QbsError) -> RequestError {
    match err {
        QbsError::VertexOutOfRange {
            vertex,
            num_vertices,
        } => RequestError::VertexOutOfRange {
            vertex,
            num_vertices,
        },
        other => unreachable!("online query path returned a non-request error: {other}"),
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
}

/// Runs one request against the sketch/guided-search internals,
/// returning the canonical body plus the sketch upper bound `d⊤` of the
/// query — the cache-admission cost hint (a query with a larger landmark
/// upper bound expands a larger search, so it is worth more cache space).
fn compute_on(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    request: &QueryRequest,
) -> Result<(AnswerBody, Distance), RequestError> {
    match request.mode {
        QueryMode::Distance => {
            let (distance, hint) =
                query::distance_with_bounds_on(index, ws, request.source, request.target)
                    .map_err(request_error)?;
            Ok((AnswerBody::Distance(distance), hint))
        }
        QueryMode::PathGraph => {
            let answer = query::query_on(index, ws, request.source, request.target)
                .map_err(request_error)?;
            let hint = query::cost_hint(&answer.sketch);
            Ok((AnswerBody::PathGraph(Box::new(answer)), hint))
        }
        QueryMode::Sketch => {
            let t = ws.obs.start();
            let sketch = query::sketch_on(index, ws, request.source, request.target)
                .map_err(request_error)?;
            ws.obs.stop(crate::obs::Stage::SketchBound, t);
            let hint = query::cost_hint(&sketch);
            Ok((AnswerBody::Sketch(Box::new(sketch)), hint))
        }
    }
}

/// Executes one [`QueryRequest`], reusing the buffers of `ws`.
///
/// This is the single dispatcher every public entry point reduces to:
/// [`QueryMode::Distance`] runs the allocation-free
/// [`crate::query::distance_on`] path, [`QueryMode::PathGraph`] the full
/// [`crate::query::query_on`] guided search, [`QueryMode::Sketch`] the
/// search-free [`crate::query::sketch_on`].
pub fn execute_on(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    request: &QueryRequest,
) -> QueryOutcome {
    match compute_on(index, ws, request) {
        Ok((body, _hint)) => body.shape_into(&request.opts),
        Err(e) => QueryOutcome::Error(e),
    }
}

/// [`execute_on`] with an optional answer cache in front of the executor.
///
/// When `cache` is `Some` and the request allows it
/// ([`QueryOptions::use_cache`]), the cache is consulted first; on a miss
/// the fresh body is offered back for admission (subject to the cache's
/// sketch-upper-bound admission policy). Cached outcomes are bit-identical
/// to fresh ones: the cache stores the canonical answer body and the
/// same deterministic shaping runs on both paths.
pub fn execute_cached_on(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    request: &QueryRequest,
    cache: Option<&AnswerCache>,
) -> QueryOutcome {
    let Some(cache) = cache.filter(|_| request.opts.use_cache) else {
        return execute_on(index, ws, request);
    };
    let t = ws.obs.start();
    let hit = cache.lookup(request);
    ws.obs.stop(crate::obs::Stage::CacheLookup, t);
    if let Some(outcome) = hit {
        return outcome;
    }
    match compute_on(index, ws, request) {
        Ok((body, hint)) => {
            let t = ws.obs.start();
            cache.admit(request, &body, hint);
            ws.obs.stop(crate::obs::Stage::CacheAdmit, t);
            body.shape_into(&request.opts)
        }
        Err(e) => QueryOutcome::Error(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QbsConfig;
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
        let d = execute_on(&index, &mut ws, &QueryRequest::distance(6, 11));
        assert_eq!(d, QueryOutcome::Distance(5));
        assert_eq!(d.distance(), Some(5));
        assert!(d.path_graph().is_none() && d.sketch().is_none() && d.error().is_none());

        let pg = execute_on(&index, &mut ws, &QueryRequest::path_graph(6, 11));
        assert!(matches!(pg, QueryOutcome::PathGraph(_)));
        assert_eq!(pg.path_graph().unwrap().distance(), 5);
        assert_eq!(pg.distance(), Some(5));
        assert!(pg.answer().is_none(), "stats were not requested");

        let full = execute_on(
            &index,
            &mut ws,
            &QueryRequest::path_graph(6, 11).with_stats(),
        );
        let answer = full.answer().expect("stats requested");
        assert_eq!(answer.path_graph, index.query(6, 11).unwrap());
        assert_eq!(full.sketch().unwrap().upper_bound, 5);

        let sk = execute_on(&index, &mut ws, &QueryRequest::sketch(6, 11));
        assert_eq!(sk.sketch().unwrap(), &index.sketch(6, 11).unwrap());
        assert_eq!(sk.distance(), None, "a sketch only bounds the distance");
    }

    #[test]
    fn outcomes_match_legacy_entry_points_on_both_backends() {
        let heap = index();
        let dir = std::env::temp_dir().join("qbs_request_backends_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("fig4.qbs");
        crate::serialize::save_to_file(&heap, &path).expect("save");
        let mapped = crate::serialize::open_from_file(&path, crate::MapMode::Mmap).expect("map");
        let mut ws = QueryWorkspace::new();
        for u in 0..15u32 {
            for v in 0..15u32 {
                for mode in QueryMode::ALL {
                    let req = QueryRequest::new(u, v, mode).with_stats();
                    let a = execute_on(&heap, &mut ws, &req);
                    let b = execute_on(&mapped, &mut ws, &req);
                    assert_eq!(a, b, "({u},{v}) {mode} diverged between heap and mapping");
                }
                assert_eq!(
                    execute_on(&heap, &mut ws, &QueryRequest::distance(u, v)).distance(),
                    Some(heap.distance(u, v).unwrap()),
                    "distance({u},{v})"
                );
            }
        }
    }

    #[test]
    fn errors_are_per_request_values() {
        let index = index();
        let mut ws = QueryWorkspace::new();
        for mode in QueryMode::ALL {
            let outcome = execute_on(&index, &mut ws, &QueryRequest::new(0, 99, mode));
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
        let ok = execute_on(&index, &mut ws, &QueryRequest::distance(0, 1));
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
}
