//! Reusable, epoch-stamped per-query scratch state.
//!
//! A [`QueryWorkspace`] owns every piece of mutable state the online query
//! path needs — the two bidirectional-search sides, the visited sets and
//! stacks of the walk back and the label walks, the label buffers fed to
//! the sketcher, and the request's stage timings.
//! All per-vertex structures are epoch-stamped
//! ([`qbs_graph::workspace`]), so preparing the workspace for the next
//! query is O(1): a handful of `clear()`s on small vectors plus one epoch
//! bump per field, never an `O(|V|)` allocation or memset.
//!
//! The intended usage pattern is one long-lived workspace per worker
//! thread, passed to the one query door, [`crate::QbsIndex::execute_with`]:
//!
//! ```
//! use qbs_core::{QbsConfig, QbsIndex, QueryRequest, QueryWorkspace};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
//! let mut ws = QueryWorkspace::new();
//! for (u, v) in [(6, 11), (4, 12), (7, 9)] {
//!     let outcome = index.execute_with(&mut ws, &QueryRequest::path_graph(u, v), None);
//!     assert_eq!(outcome.path_graph(), Some(&index.query(u, v).unwrap()));
//! }
//! assert_eq!(ws.queries_served(), 3);
//! ```
//!
//! Results are bit-identical to the allocation-per-query path (the
//! differential tests in `crates/core/tests/workspace_differential.rs`
//! assert this across generator families and hundreds of mixed queries).

use qbs_graph::workspace::{DistanceField, VisitedSet};
use qbs_graph::{Distance, VertexId, INFINITE_DISTANCE};

use crate::format::GraphRows;
use crate::search::SearchStats;

/// One side (forward or backward) of the guided bidirectional search, with
/// all storage reusable across queries.
#[derive(Debug, Default)]
pub(crate) struct SideState {
    /// Epoch-stamped BFS depths.
    pub(crate) depth: DistanceField,
    /// `levels[d]` lists the vertices settled at depth `d`. Inner vectors
    /// keep their capacity across queries; `active_levels` tracks how many
    /// were touched by the previous query so `begin` clears only those.
    pub(crate) levels: Vec<Vec<VertexId>>,
    active_levels: usize,
    /// Number of settled vertices (`|P|` in Algorithm 4).
    pub(crate) settled: usize,
    /// Current level (`d_u` / `d_v` in Algorithm 4).
    pub(crate) level: Distance,
    /// Deepest level settled in full: `level`, or `level − 1` once an
    /// expansion of this side has met the other side (see [`Self::expand`]).
    /// The recover search matches `Z` no deeper than this.
    pub(crate) complete: Distance,
}

impl SideState {
    /// Prepares the side for a new search from `origin` on a graph with `n`
    /// vertex slots.
    pub(crate) fn begin(&mut self, n: usize, origin: VertexId) {
        self.depth.reset(n);
        for level in &mut self.levels[..self.active_levels] {
            level.clear();
        }
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(origin);
        self.active_levels = 1;
        self.settled = 1;
        self.level = 0;
        self.complete = 0;
        self.depth.set(origin, 0);
    }

    /// The vertices settled at the current level.
    pub(crate) fn frontier(&self) -> &[VertexId] {
        &self.levels[self.level as usize]
    }

    /// Expands the current frontier one level on `G⁻`, reading `other`, the
    /// opposite side's depths, for each vertex it settles. Every vertex
    /// both sides have settled is pushed onto `meeting`, and the meeting
    /// distance is returned ([`INFINITE_DISTANCE`] when the sides did not
    /// meet).
    ///
    /// Once the row holding the first meeting is read, the new level is
    /// left partial: nothing later reads more of it than its meeting
    /// vertices (see the module docs of [`crate::search`]), and
    /// [`Self::complete`] stays one level short. With `stop_at_first` (a
    /// distance) the expansion returns there. Otherwise it reads the rest
    /// of the level's rows only to find the remaining meeting vertices:
    /// each neighbour the other side holds and this side does not is
    /// stamped at the new depth and pushed onto `meeting`, and no other
    /// vertex is stamped or added to the level.
    ///
    /// A vertex's row in `G⁻` is the non-landmark prefix of its row in `G`,
    /// read with no filter. When a query endpoint is a landmark, `G⁻` keeps
    /// it for this query only: `kept` then holds both endpoints, and each
    /// row's landmark suffix is scanned for them as well.
    pub(crate) fn expand(
        &mut self,
        rows: GraphRows<'_>,
        kept: Option<[VertexId; 2]>,
        other: &DistanceField,
        stop_at_first: bool,
        meeting: &mut Vec<VertexId>,
        stats: &mut SearchStats,
    ) -> Distance {
        debug_assert!(meeting.is_empty(), "the sides met before this level");
        let next_depth = self.level + 1;
        if self.levels.len() <= next_depth as usize {
            self.levels.push(Vec::new());
        }
        let depth = &mut self.depth;
        let (settled_levels, next_levels) = self.levels.split_at_mut(next_depth as usize);
        let mut current = settled_levels[self.level as usize].iter();
        let next = &mut next_levels[0];
        for &u in current.by_ref() {
            read_sparsified_row(rows, kept, u, stats, |w| {
                if !depth.is_set(w) {
                    depth.set(w, next_depth);
                    next.push(w);
                    if other.is_set(w) {
                        meeting.push(w);
                    }
                }
            });
            if !meeting.is_empty() {
                break;
            }
        }
        self.complete = if meeting.is_empty() {
            next_depth
        } else {
            self.level
        };
        if !stop_at_first {
            for &u in current {
                read_sparsified_row(rows, kept, u, stats, |w| {
                    if other.is_set(w) && !depth.is_set(w) {
                        depth.set(w, next_depth);
                        meeting.push(w);
                    }
                });
            }
        }
        self.settled += next.len();
        self.level = next_depth;
        self.active_levels = self.active_levels.max(next_depth as usize + 1);
        meeting
            .first()
            .map_or(INFINITE_DISTANCE, |&w| next_depth + other.get(w))
    }
}

/// Calls `visit` on each neighbour of `u` in `G⁻` (the row's non-landmark
/// prefix, plus the `kept` endpoints found in its landmark suffix), counting
/// the row and its arcs in `stats`.
fn read_sparsified_row(
    rows: GraphRows<'_>,
    kept: Option<[VertexId; 2]>,
    u: VertexId,
    stats: &mut SearchStats,
    mut visit: impl FnMut(VertexId),
) {
    stats.vertices_settled += 1;
    let sparsified = rows.sparsified_neighbors(u);
    stats.edges_traversed += sparsified.len();
    sparsified.for_each(&mut visit);
    if let Some(ends) = kept {
        for w in rows.landmark_neighbors(u).filter(|w| ends.contains(w)) {
            stats.edges_traversed += 1;
            visit(w);
        }
    }
}

/// Reusable scratch state for the online query path. See the module docs
/// for the epoch-stamping design and usage pattern.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    /// Forward search side (rooted at the query source).
    pub(crate) fwd: SideState,
    /// Backward search side (rooted at the query target).
    pub(crate) bwd: SideState,
    /// Visited set for the walk back of one search side.
    pub(crate) visited: VisitedSet,
    /// Vertex stack for the walk back of one search side.
    pub(crate) stack: Vec<VertexId>,
    /// Visited set for the label walks of the recover search.
    pub(crate) walk_visited: VisitedSet,
    /// `(vertex, remaining distance)` stack for label walks.
    pub(crate) walk_stack: Vec<(VertexId, Distance)>,
    /// Meeting vertices of the bidirectional search.
    pub(crate) meeting: Vec<VertexId>,
    /// Edge accumulator for the answer under construction.
    pub(crate) edges: Vec<(VertexId, VertexId)>,
    /// The endpoints' label lanes for the sketch's min-plus kernel.
    pub(crate) lanes: crate::sketch::SketchLanes,
    /// Per-request stage-timing scratch (see [`crate::obs`]); flushed
    /// into the engine's metrics registry after each request.
    pub(crate) obs: crate::obs::ObsScratch,
    /// Number of requests computed through this workspace: in range and
    /// not answered from a cache.
    queries_served: u64,
}

impl QueryWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace with the per-vertex structures pre-sized for a
    /// graph with `n` vertices, avoiding even the first-query growth.
    pub fn for_vertices(n: usize) -> Self {
        let mut ws = Self::new();
        ws.fwd.depth.reset(n);
        ws.bwd.depth.reset(n);
        ws.visited.reset(n);
        ws.walk_visited.reset(n);
        ws
    }

    /// Number of requests computed through this workspace since creation,
    /// in every mode: cache hits and out-of-range requests do not count.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Records one computed request (called by the query door).
    pub(crate) fn record_query(&mut self) {
        self.queries_served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QbsConfig, QbsIndex};
    use qbs_graph::fixtures::figure4_graph;

    #[test]
    fn side_state_reuses_level_buffers() {
        let index = QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        );
        let n = index.num_vertices();
        let rows = index.graph_rows();
        let mut side = SideState::default();
        // The other side's depths, sized as a search sizes them; empty
        // until the meeting case below.
        let mut other = DistanceField::new();
        other.reset(n);
        let mut meeting = Vec::new();
        let mut stats = SearchStats::default();

        side.begin(n, 6);
        assert_eq!(side.frontier(), &[6]);
        let met = side.expand(rows, None, &other, false, &mut meeting, &mut stats);
        // Vertex 6's row in G⁻: 5 and 7, but not landmark 1.
        assert_eq!(side.frontier(), &[5, 7]);
        assert_eq!(stats.edges_traversed, 2);
        assert_eq!((met, meeting.len()), (INFINITE_DISTANCE, 0));
        let deep_levels = side.active_levels;

        // Kept as a query endpoint, landmark 1 is reached from 6 too.
        side.begin(n, 6);
        side.expand(rows, Some([6, 1]), &other, false, &mut meeting, &mut stats);
        assert_eq!(side.frontier(), &[5, 7, 1]);

        // The other side already holds 14, a G⁻ neighbour of 5, at depth 2.
        // Expanding level 1 ([5, 7]) meets it at 2 + 2 in 5's row (6 and
        // 14). With `stop_at_first` the expansion stops there and never
        // reads 7's row; without, it reads 7's row (6 and 8) but settles
        // nothing more, so 8 is neither stamped nor in the level. Either
        // way level 2 is partial and level 1 the last complete one.
        other.set(14, 2);
        for (stop_at_first, rows_read, edges) in [(true, 1, 2), (false, 2, 4)] {
            side.begin(n, 6);
            side.expand(rows, None, &other, stop_at_first, &mut meeting, &mut stats);
            assert_eq!(side.complete, 1);
            let mut level = SearchStats::default();
            let met = side.expand(rows, None, &other, stop_at_first, &mut meeting, &mut level);
            assert_eq!(met, 4, "stop_at_first = {stop_at_first}");
            assert_eq!(meeting, [14]);
            assert_eq!(side.frontier(), &[14]);
            assert_eq!(side.depth.get(8), INFINITE_DISTANCE);
            assert_eq!((side.level, side.complete), (2, 1));
            assert_eq!(
                (level.vertices_settled, level.edges_traversed),
                (rows_read, edges)
            );
            meeting.clear();
        }

        // A second search must not see any first-search state.
        side.begin(n, 11);
        assert_eq!(side.frontier(), &[11]);
        assert_eq!(side.settled, 1);
        assert_eq!(side.level, 0);
        assert_eq!(side.depth.get(6), INFINITE_DISTANCE);
        assert!(
            side.levels.len() >= deep_levels,
            "level buffers are retained"
        );
    }

    #[test]
    fn workspace_presizing_matches_lazy_growth() {
        let ws = QueryWorkspace::for_vertices(64);
        assert_eq!(ws.queries_served(), 0);
        assert!(ws.fwd.depth.capacity() >= 64);
        assert!(ws.walk_visited.capacity() >= 64);
    }
}
