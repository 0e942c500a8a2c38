//! Guided searching (Algorithm 4).
//!
//! Given the sketch `S_uv`, the answer `G_uv` is assembled from up to three
//! searches over the sparsified graph `G⁻ = G[V \ R]` and the labelling
//! scheme (Eq. 5):
//!
//! 1. **Bidirectional search** — an alternating level-by-level BFS from both
//!    endpoints on `G⁻`, bounded by `d⊤_uv`, that always expands the live
//!    side with fewer settled vertices and checks each vertex it settles
//!    against the other side. It either finds `d_{G⁻}(u, v) ≤ d⊤_uv` or
//!    proves `d_{G⁻}(u, v) > d⊤_uv`. A distance query stops at the first
//!    meeting vertex, and one level earlier than a path-graph query: it
//!    never expands at `d_u + d_v = d⊤ − 1` (see below), so it either
//!    finds `d_{G⁻}(u, v) < d⊤_uv` or answers `d⊤_uv`. A path-graph query
//!    needs the meeting vertices at `d⊤` for its reverse search; it settles
//!    nothing after the row that found the first one: it reads the rest of
//!    that level's rows only to stamp the other meeting vertices, so the
//!    new level stays partial and the one below it is the side's last
//!    complete level.
//! 2. **Reverse search** — if the frontiers met, the meeting vertices seed
//!    both sides' walk back, which materialises every shortest path inside
//!    `G⁻` (`G⁻_uv`).
//! 3. **Recover search** — if some shortest path passes a landmark
//!    (`d_{G⁻} ≥ d⊤`), the landmark-passing paths (`G^L_uv`) are the
//!    precomputed Δ path graphs of the sketch's meta edges, label-guided
//!    walks from the matching frontier vertices `Z` to the sketch landmarks,
//!    and the walk back from `Z` to the endpoint.
//!
//! **The first meeting is exact.** Before a level is expanded, no vertex
//! has been settled by both sides: the expansion that settled it second
//! would have seen the meeting and stopped. Say the side at depth `d`
//! expands while the other side stands at depth `d'`. If a vertex `w` it
//! settles at `d + 1` sat on the other side below `d'`, that side would
//! already have read `w`'s row and settled `w`'s parent, a vertex of this
//! side's level `d`, which was then on both sides before this expansion.
//! So every vertex the new level shares with the other
//! side sits at depth `d'` there, all meetings found in one level have the
//! same length `d + 1 + d'`, and the first one proves `d_{G⁻}(u, v)`: a
//! shorter path would have a vertex within `d` of one endpoint and within
//! `d'` of the other, a meeting seen earlier.
//!
//! Corollary, **the bound-stop rule**: every meeting found while expanding
//! at `d + d' = d⊤ − 1` has length exactly `d⊤`, so that expansion cannot
//! change a distance answer `min(d_{G⁻}, d⊤)` (Eq. 5). Distance mode skips
//! it; with `d⊤ = ∞` (no landmark route, or |R| = 0) there is no such
//! level. On hub graphs, where the bound is usually the distance, it is
//! stage 1's widest level: on the Youtube Large stand-in (|R| = 20, 4 000
//! uniform pairs) skipping it cut distance-mode stage 1 from 366 to 93
//! edges per query, and on LiveJournal's from 1 003 to 993.
//!
//! Stages 2 and 3 share **one walk back per side**: it is seeded with that
//! side's meeting vertices and `Z`, and follows strictly decreasing BFS
//! depths, pushing each edge once. The parents of a vertex `x` at depth `d`
//! are its neighbours in level `d − 1`, found from the cheaper side: a scan
//! of `x`'s adjacency row, or a binary search of that sorted row for each
//! vertex of level `d − 1` when `|level| · (⌊log₂ deg x⌋ + 1) < deg x`.
//! It reads only complete levels: a meeting vertex sits one level above
//! its side's last complete level, and `Z` at or below it.
//!
//! **Deviation from Algorithm 4, line 7.** The paper's `pick_search` first
//! makes each side spend its Eq. 4 budget `d*_u` / `d*_v` (the deepest
//! sketch hop minus one), so that the recover search finds `Z` at depth
//! `σ − 1`. Stage 1 here ignores the budgets: the recover search takes `Z`
//! at depth `min(σ − 1, ℓ)`, where `ℓ` is the side's last complete level,
//! with the label distance raised to match. Any complete level serves:
//! every shortest endpoint–landmark path that avoids the other landmarks
//! has its vertex at depth `min(σ − 1, ℓ)` in that level, so the same
//! landmark-passing paths are reached. On a hub-free graph the budgets
//! forced the larger side: on the LiveJournal Large stand-in (|R| = 20,
//! uniform pairs) stage 1 relaxed 5 051 edges and settled 267 vertices per
//! query with them, and 3 737 and 197 without, with every answer the same.
//!
//! **`G⁻` is a row prefix.** The index file stores each adjacency row as
//! its non-landmark neighbours, then its landmark neighbours
//! ([`crate::format::GraphRows`]), so stage 1 and the label walks read `G⁻`
//! as each row's prefix, with no landmark test per arc; the walk back reads
//! whole rows. Queries whose endpoint happens to be a landmark are handled
//! by giving that endpoint the synthetic label `{(itself, 0)}` and keeping
//! it inside `G⁻` for this query only: stage 1 then also scans each row's
//! short landmark suffix for the kept endpoints. This generalises the
//! paper's formulation (labels are only defined on `V \ R`) without
//! changing any of its guarantees.
//!
//! Every index read goes straight to the [`QbsIndex`] buffer, heap or
//! mapped. All mutable search state lives in a
//! caller-provided [`QueryWorkspace`]: the
//! per-vertex depth fields and visited sets are epoch-stamped, so repeated
//! queries perform **zero `O(|V|)` allocations or clears**.

use qbs_graph::workspace::VisitedSet;
use qbs_graph::{Distance, PathGraph, VertexId, INFINITE_DISTANCE};

use crate::format::GraphRows;
use crate::sketch::Sketch;
use crate::store::QbsIndex;
use crate::workspace::{QueryWorkspace, SideState};

/// Work counters and intermediate quantities of one guided search, used by
/// the §6.5 traversal comparison and the Figure 8 coverage analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// `d⊤_uv` from the sketch.
    pub upper_bound: Distance,
    /// `d_{G⁻}(u, v)` if the bidirectional search determined it, otherwise
    /// [`INFINITE_DISTANCE`] (meaning "greater than the bound" or truly
    /// disconnected in `G⁻`). Distance mode determines it only below the
    /// bound.
    pub sparsified_distance: Distance,
    /// The final query distance.
    pub distance: Distance,
    /// Directed edges relaxed by the bidirectional search. In distance mode
    /// it counts the rows read up to the stop at the first meeting vertex
    /// or below `d⊤ − 1`.
    pub edges_traversed: usize,
    /// Settled vertices whose rows the bidirectional search read. In
    /// distance mode it counts the rows read up to the stop.
    pub vertices_settled: usize,
    /// Levels expanded from the source side.
    pub forward_levels: usize,
    /// Levels expanded from the target side.
    pub backward_levels: usize,
    /// Whether the reverse search ran (some shortest path avoids landmarks).
    pub used_reverse_search: bool,
    /// Whether the recover search ran (some shortest path passes a landmark).
    pub used_recover_search: bool,
}

/// Answers `SPG(source, target)` guided by `sketch` (Algorithm 4),
/// reusing every buffer in `ws`. The caller guarantees `source != target`
/// and that both vertices exist.
pub(crate) fn guided_search_with(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
    sketch: &Sketch,
) -> (PathGraph, SearchStats) {
    // ---- Stage 1: guided bidirectional search on G⁻ (lines 6-15). ----
    let d_top = sketch.upper_bound;
    let mut stats = bidirectional_stage(index, ws, source, target, d_top, false);

    // ---- Stage 2/3: combine per Eq. 5. ----
    let distance = stats.distance;
    if distance == INFINITE_DISTANCE {
        // No landmark route and no G⁻ route: disconnected.
        return (PathGraph::unreachable(source, target), stats);
    }
    // Some shortest path avoids the landmarks (reverse search), passes one
    // (recover search), or both.
    stats.used_reverse_search = stats.sparsified_distance == distance;
    stats.used_recover_search = d_top == distance;

    let n = index.num_vertices();
    let rows = index.graph_rows();
    let QueryWorkspace {
        fwd,
        bwd,
        visited,
        stack,
        walk_visited,
        walk_stack,
        meeting,
        edges,
        ..
    } = &mut *ws;
    edges.clear();
    if stats.used_recover_search {
        // Landmark-to-landmark segments: splice in the precomputed Δ path
        // graph of every sketch meta edge.
        let meta = index.meta_graph();
        for &(i, j, _) in &sketch.meta_edges {
            if let Some(k) = meta.edge_index(i, j) {
                edges.extend_from_slice(meta.delta_edges(k));
            }
        }
    }
    // One walk back per side, from the meeting vertices stage 1 left (none
    // unless the reverse search runs) and from the frontier vertices `Z`
    // the recover search matches on that side.
    for (side, hops) in [(&*fwd, &sketch.source_hops), (&*bwd, &sketch.target_hops)] {
        visited.reset(n);
        stack.clear();
        for &w in meeting.iter() {
            visited.insert(w);
            stack.push(w);
        }
        if stats.used_recover_search {
            for hop in hops {
                recover_side(
                    index,
                    hop.landmark_idx,
                    hop.distance,
                    side,
                    walk_visited,
                    walk_stack,
                    visited,
                    stack,
                    edges,
                );
            }
        }
        walk_back(index, rows, side, visited, stack, edges);
    }
    (
        PathGraph::from_edges(source, target, distance, edges.iter().copied()),
        stats,
    )
}

/// Computes only the query *distance* (Eq. 5: `min(d_{G⁻}, d⊤)`) from the
/// sketch's upper bound `d_top`, skipping the reverse/recover
/// materialisation entirely. Stage 1 stops at the first meeting vertex,
/// and never expands a level at `d_u + d_v = d⊤ − 1`, whose meetings could
/// only prove `d⊤` again (module docs). It expands the levels of
/// [`guided_search_with`]'s stage 1 when that finds `d_{G⁻} < d⊤`, and
/// otherwise those levels less the one at `d⊤ − 1`, if stage 1 reached it.
///
/// This is the fully allocation-free hot path: with a warmed-up workspace
/// it touches no heap at all.
pub(crate) fn guided_distance_with(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
    d_top: Distance,
) -> (Distance, SearchStats) {
    let stats = bidirectional_stage(index, ws, source, target, d_top, true);
    (stats.distance, stats)
}

/// The work counters of the distance search of `(source, target)` on the
/// buffers of `ws`: the `d⊤` bound, then stage 1 exactly as a
/// [`crate::QueryRequest::distance`] runs it. No outcome carries them (a
/// distance answer is the distance alone), so this is how to read them.
/// `None` when an endpoint is out of range; a trivial pair reads nothing.
pub fn distance_stats(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> Option<SearchStats> {
    let n = index.num_vertices();
    if source as usize >= n || target as usize >= n {
        return None;
    }
    if source == target {
        return Some(SearchStats {
            distance: 0,
            ..SearchStats::default()
        });
    }
    let d_top = crate::sketch::compute_bounds(index, ws, source, target);
    Some(guided_distance_with(index, ws, source, target, d_top).1)
}

/// Recover search (Algorithm 4, lines 18-24) between one query endpoint and
/// one sketch landmark: finds the frontier vertices `Z` (lines 19-23),
/// label-walks from each to the landmark, and seeds each into the side's
/// walk back to the endpoint (`visited` + `stack`, see [`walk_back`]).
#[allow(clippy::too_many_arguments)]
fn recover_side(
    index: &QbsIndex,
    landmark_idx: usize,
    sigma: Distance,
    side: &SideState,
    walk_visited: &mut VisitedSet,
    walk_stack: &mut Vec<(VertexId, Distance)>,
    visited: &mut VisitedSet,
    stack: &mut Vec<VertexId>,
    edges: &mut Vec<(VertexId, VertexId)>,
) {
    if sigma == 0 {
        return; // the endpoint is this landmark; nothing to recover
    }
    let landmark = index.landmark(landmark_idx);
    // A side that stopped short of depth σ − 1 matches `Z` at its last
    // complete level, with the rest of the way left to the label walk.
    let dm = (sigma - 1).min(side.complete);
    let needed_label = sigma - dm;
    let Some(level) = side.levels.get(dm as usize) else {
        return;
    };
    for &w in level {
        let matches = if index.is_landmark(w) {
            // An endpoint that is itself a landmark only matches its own
            // synthetic zero label.
            w == landmark && needed_label == 0
        } else {
            index.label_distance(w, landmark_idx) == Some(needed_label)
        };
        if !matches {
            continue;
        }
        // w → landmark via the labels.
        label_walk(
            index,
            w,
            landmark_idx,
            landmark,
            needed_label,
            walk_visited,
            walk_stack,
            edges,
        );
        // endpoint → w: the side's walk back, seeded once per vertex.
        if visited.insert(w) {
            stack.push(w);
        }
    }
}

/// Walks from `start` (whose label towards the landmark is
/// `start_distance`) down to the landmark, following neighbours whose label
/// decreases by exactly one; every traversed edge lies on a shortest path
/// between `start` and the landmark that avoids all other landmarks.
///
/// Started at another landmark `r'` with `start_distance = σ(r, r')`, the
/// walk enumerates exactly Δ of the meta edge `(r, r')`, which is how
/// [`crate::meta_graph::delta`] computes it at build time. Each traversed edge
/// is pushed once, oriented away from `start`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn label_walk(
    index: &QbsIndex,
    start: VertexId,
    landmark_idx: usize,
    landmark: VertexId,
    start_distance: Distance,
    walk_visited: &mut VisitedSet,
    walk_stack: &mut Vec<(VertexId, Distance)>,
    edges: &mut Vec<(VertexId, VertexId)>,
) {
    if start_distance == 0 {
        return;
    }
    let rows = index.graph_rows();
    walk_visited.reset(index.num_vertices());
    walk_visited.insert(start);
    walk_stack.clear();
    walk_stack.push((start, start_distance));
    while let Some((x, dx)) = walk_stack.pop() {
        if dx == 1 {
            edges.push((x, landmark));
            continue;
        }
        // Other landmarks cannot be interior vertices: the walk reads `x`'s
        // row in `G⁻`.
        for y in rows.sparsified_neighbors(x) {
            if index.label_distance(y, landmark_idx) == Some(dx - 1) {
                edges.push((x, y));
                if walk_visited.insert(y) {
                    walk_stack.push((y, dx - 1));
                }
            }
        }
    }
}

/// Stage 1 of Algorithm 4: the alternating bidirectional level expansion on
/// `G⁻` (row prefixes, plus both endpoints when either is a landmark, see
/// [`SideState::expand`]), one level of the live side with fewer settled
/// vertices at a time (see the module docs for why the Eq. 4 budgets play
/// no part), with the meeting check (lines 14-15) made as each vertex is
/// settled. The meeting vertices are left in `ws.meeting`; `distance_only`
/// stops at the first one, which is exact, and never expands at
/// `d_u + d_v = d⊤ − 1` (the bound-stop rule, module docs). Returns the
/// stats with `sparsified_distance` (`d_{G⁻}(u, v)` when it is `≤ d⊤`, or
/// `< d⊤` in distance mode; [`INFINITE_DISTANCE`] otherwise) and
/// `distance` (Eq. 5) set.
fn bidirectional_stage(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
    d_top: Distance,
    distance_only: bool,
) -> SearchStats {
    let QueryWorkspace {
        fwd, bwd, meeting, ..
    } = &mut *ws;
    let n = index.num_vertices();
    fwd.begin(n, source);
    bwd.begin(n, target);
    meeting.clear();
    let rows = index.graph_rows();
    // A landmark endpoint stays in G⁻ for this query, so both endpoints are
    // looked for in row suffixes (a non-landmark one is never in a suffix).
    let kept = (index.is_landmark(source) || index.is_landmark(target)).then_some([source, target]);
    let mut stats = SearchStats {
        upper_bound: d_top,
        ..SearchStats::default()
    };
    // Until the sides meet or the bound is reached (d_u + d_v = d⊤). A
    // distance query also skips the expansion at d_u + d_v = d⊤ − 1: any
    // meeting it found would have length d⊤, which the bound already gives.
    // With no landmark route (d⊤ = ∞) there is no such level.
    let stop = if distance_only && d_top != INFINITE_DISTANCE {
        d_top.saturating_sub(1)
    } else {
        d_top
    };
    let mut meeting_distance = INFINITE_DISTANCE;
    while meeting_distance == INFINITE_DISTANCE && fwd.level.saturating_add(bwd.level) < stop {
        let fwd_alive = !fwd.frontier().is_empty();
        let bwd_alive = !bwd.frontier().is_empty();
        // pick_search (line 7): the live side with the smaller settled set.
        meeting_distance = if fwd_alive && (!bwd_alive || fwd.settled <= bwd.settled) {
            stats.forward_levels += 1;
            fwd.expand(rows, kept, &bwd.depth, distance_only, meeting, &mut stats)
        } else if bwd_alive {
            stats.backward_levels += 1;
            bwd.expand(rows, kept, &fwd.depth, distance_only, meeting, &mut stats)
        } else {
            break; // G⁻ exhausted without a meeting
        };
    }
    stats.sparsified_distance = meeting_distance;
    stats.distance = meeting_distance.min(d_top);
    stats
}

/// Walks from the seeds on `stack` (already in `visited`) back to the
/// side's origin along strictly decreasing BFS depths, pushing every
/// traversed edge once: the reverse search (Algorithm 4, lines 16-17) from
/// the meeting vertices and the endpoint-to-`Z` part of the recover search,
/// in one pass.
///
/// The parents of `x` at depth `d` are its neighbours in `levels[d − 1]`,
/// read from whichever side is cheaper: a scan of `x`'s whole adjacency
/// row, or one binary search of the sorted half of that row that can hold
/// it (at most `⌊log₂ deg(x)⌋ + 1` probes) per vertex of `levels[d − 1]`.
/// A non-landmark hub's row can hold thousands of entries where the level
/// before it holds a handful.
fn walk_back(
    index: &QbsIndex,
    rows: GraphRows<'_>,
    side: &SideState,
    visited: &mut VisitedSet,
    stack: &mut Vec<VertexId>,
    edges: &mut Vec<(VertexId, VertexId)>,
) {
    while let Some(x) = stack.pop() {
        let dx = side.depth.get(x);
        if dx == 0 {
            continue;
        }
        let mut push = |p: VertexId| {
            edges.push((p, x));
            if visited.insert(p) {
                stack.push(p);
            }
        };
        let parents = &side.levels[dx as usize - 1];
        let degree = rows.degree(x);
        let probes = (usize::BITS - degree.leading_zeros()) as usize;
        if parents.len() * probes < degree {
            for &p in parents {
                if rows.has_edge(x, p, index.is_landmark(p)) {
                    push(p);
                }
            }
        } else {
            // Only vertices the search reached inside G⁻ carry a depth, so
            // the depth test alone keeps the scan on G⁻.
            for p in rows.neighbors(x) {
                if side.depth.get(p) == dx - 1 {
                    push(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{self, MapMode};
    use crate::sketch;
    use crate::{QbsConfig, QueryRequest};
    use qbs_graph::fixtures::{figure4_graph, figure4_spg_6_11_edges};
    use qbs_graph::Graph;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Saves `index` and maps the file back. One file per call: tests run
    /// in parallel, and a file being rewritten must never be mapped.
    fn mapped_copy(index: &QbsIndex) -> QbsIndex {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("qbs_search_fixture");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!(
            "index_{}_{}.qbs",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        serialize::save_to_file(index, &path).expect("save");
        serialize::open_from_file(&path, MapMode::Mmap).expect("map")
    }

    /// The figure-4 running example indexed with the paper's landmark set,
    /// queried through the search entry points — once over the heap buffer
    /// of the build and once over a mapping of its saved file, so every
    /// unit test here exercises both buffers.
    struct Fixture {
        graph: Graph,
        heap: QbsIndex,
        mapped: QbsIndex,
    }

    impl Fixture {
        fn figure4() -> Self {
            Self::figure4_with(vec![1, 2, 3])
        }

        fn figure4_with(landmarks: Vec<VertexId>) -> Self {
            let graph = figure4_graph();
            let heap =
                QbsIndex::build(graph.clone(), QbsConfig::with_explicit_landmarks(landmarks));
            let mapped = mapped_copy(&heap);
            Fixture {
                graph,
                heap,
                mapped,
            }
        }

        fn query_index(
            index: &QbsIndex,
            ws: &mut QueryWorkspace,
            u: VertexId,
            v: VertexId,
        ) -> (PathGraph, SearchStats) {
            let sk = sketch::compute(index, ws, u, v);
            guided_search_with(index, ws, u, v, &sk)
        }

        /// Queries both buffers on fresh workspaces, asserts they agree,
        /// returns the answer.
        fn query(&self, u: VertexId, v: VertexId) -> (PathGraph, SearchStats) {
            let from_heap = Self::query_index(&self.heap, &mut QueryWorkspace::new(), u, v);
            let from_mapping = Self::query_index(&self.mapped, &mut QueryWorkspace::new(), u, v);
            assert_eq!(from_heap, from_mapping, "buffers diverged on ({u},{v})");
            from_heap
        }
    }

    #[test]
    fn reproduces_figure_6f() {
        let fx = Fixture::figure4();
        let (answer, stats) = fx.query(6, 11);
        assert_eq!(answer.distance(), 5);
        let expected = PathGraph::from_edges(6, 11, 5, figure4_spg_6_11_edges());
        assert_eq!(answer, expected);
        assert_eq!(stats.upper_bound, 5);
        assert_eq!(stats.sparsified_distance, 5);
        assert!(stats.used_reverse_search);
        assert!(stats.used_recover_search);
        assert_eq!(stats.distance, 5);
    }

    #[test]
    fn all_pairs_match_ground_truth_on_figure4() {
        let fx = Fixture::figure4();
        for u in 1..15u32 {
            for v in 1..15u32 {
                if u == v {
                    continue;
                }
                let expected = exact_spg(&fx.graph, u, v);
                let (got, stats) = fx.query(u, v);
                assert_eq!(got, expected, "query ({u},{v})");
                assert!(
                    stats.upper_bound >= stats.distance || stats.upper_bound == INFINITE_DISTANCE
                );
            }
        }
    }

    /// With no landmarks, d⊤ = ∞ and G⁻ = G: stage 1 is a plain
    /// bidirectional BFS and the walk back alone reconstructs the answer,
    /// which is the Bi-BFS baseline of §6.1.
    #[test]
    fn no_landmarks_is_bidirectional_bfs_on_figure4() {
        let fx = Fixture::figure4_with(vec![]);
        assert_eq!(fx.heap.num_landmarks(), 0);
        for u in 1..15u32 {
            for v in 1..15u32 {
                if u == v {
                    continue;
                }
                let (got, stats) = fx.query(u, v);
                assert_eq!(got, exact_spg(&fx.graph, u, v), "query ({u},{v})");
                assert_eq!(stats.upper_bound, INFINITE_DISTANCE);
                assert_eq!(stats.sparsified_distance, stats.distance);
                assert!(!stats.used_recover_search, "recover on ({u},{v})");
            }
        }
    }

    /// Checks distance mode's stage 1 against path mode's on one pair. The
    /// distance is the same. When path mode finds `d_{G⁻} < d⊤`, so does
    /// distance mode, over the same levels, reading no more rows and arcs.
    /// Otherwise distance mode reports `d_{G⁻}` unknown, and skips exactly
    /// the expansion path mode made at `d_u + d_v = d⊤ − 1`, if it made one.
    fn assert_distance_stage(path: &SearchStats, dist: &SearchStats, tag: &str) {
        let levels = |s: &SearchStats| (s.forward_levels, s.backward_levels);
        let work = |s: &SearchStats| (s.edges_traversed, s.vertices_settled);
        let d_top = path.upper_bound;
        assert_eq!(dist.upper_bound, d_top, "d⊤ of {tag}");
        assert_eq!(dist.distance, path.distance, "distance of {tag}");
        if path.sparsified_distance < d_top {
            assert_eq!(dist.sparsified_distance, path.sparsified_distance, "{tag}");
            assert_eq!(levels(dist), levels(path), "levels of {tag}");
            assert!(dist.edges_traversed <= path.edges_traversed, "{tag}");
            assert!(dist.vertices_settled <= path.vertices_settled, "{tag}");
        } else {
            assert_eq!(dist.sparsified_distance, INFINITE_DISTANCE, "{tag}");
            let expansions = path.forward_levels + path.backward_levels;
            if expansions == d_top as usize {
                let skipped = dist.forward_levels + dist.backward_levels + 1;
                assert_eq!(skipped, expansions, "levels of {tag}");
                assert!(dist.forward_levels <= path.forward_levels, "{tag}");
                assert!(dist.backward_levels <= path.backward_levels, "{tag}");
                assert!(dist.edges_traversed <= path.edges_traversed, "{tag}");
                assert!(dist.vertices_settled < path.vertices_settled, "{tag}");
            } else {
                assert_eq!(levels(dist), levels(path), "levels of {tag}");
                assert_eq!(work(dist), work(path), "stage 1 of {tag}");
            }
        }
        if d_top != INFINITE_DISTANCE {
            let expansions = dist.forward_levels + dist.backward_levels;
            assert!(expansions < d_top as usize, "{tag} expanded at d⊤ − 1");
        }
    }

    /// Over every figure-4 pair, distance mode's stage 1 keeps to
    /// [`assert_distance_stage`], with the same stats on either buffer; a
    /// trivial pair reads nothing and an out-of-range one has no stats.
    #[test]
    fn distance_only_path_agrees_with_full_search() {
        let fx = Fixture::figure4();
        let mut ws = QueryWorkspace::new();
        let expansions = |s: &SearchStats| s.forward_levels + s.backward_levels;
        let mut skipped = 0;
        for u in 1..15u32 {
            let trivial = distance_stats(&fx.heap, &mut ws, u, u).expect("in range");
            assert_eq!((trivial.distance, trivial.edges_traversed), (0, 0));
            for v in (1..15u32).filter(|&v| v != u) {
                let (_, path) = fx.query(u, v);
                let dist = distance_stats(&fx.heap, &mut ws, u, v).expect("in range");
                assert_distance_stage(&path, &dist, &format!("({u},{v})"));
                skipped += usize::from(expansions(&dist) < expansions(&path));
                let mapped = distance_stats(&fx.mapped, &mut ws, u, v);
                assert_eq!(mapped, Some(dist), "mapped stats of ({u},{v})");
            }
        }
        assert!(skipped > 0, "no pair skipped the level at d⊤ − 1");
        let n = fx.heap.num_vertices() as VertexId;
        assert_eq!(distance_stats(&fx.heap, &mut ws, n, 1), None);
        assert_eq!(distance_stats(&fx.heap, &mut ws, 1, n), None);
    }

    /// With no landmarks d⊤ = ∞, so there is no level to skip: distance
    /// mode's stage 1 is path mode's, up to the stop at the first meeting
    /// vertex, on every figure-4 pair.
    #[test]
    fn no_landmarks_distance_stage_is_path_modes() {
        let fx = Fixture::figure4_with(vec![]);
        let mut ws = QueryWorkspace::new();
        for u in 1..15u32 {
            for v in 1..15u32 {
                if u == v {
                    continue;
                }
                let (_, path) = fx.query(u, v);
                let dist = distance_stats(&fx.heap, &mut ws, u, v).expect("in range");
                assert_eq!(dist.upper_bound, INFINITE_DISTANCE);
                assert_distance_stage(&path, &dist, &format!("({u},{v})"));
            }
        }
    }

    /// A landmark endpoint next to the other endpoint has d⊤ = 1, which is
    /// the distance: distance mode answers it without reading a row.
    #[test]
    fn distance_at_a_bound_of_one_reads_no_row() {
        let fx = Fixture::figure4();
        let mut ws = QueryWorkspace::new();
        let mut pairs = 0;
        for &u in fx.heap.landmarks() {
            for &v in fx.graph.neighbors(u) {
                let stats = distance_stats(&fx.heap, &mut ws, u, v).expect("in range");
                assert_eq!(stats.upper_bound, 1, "d⊤ of ({u},{v})");
                assert_eq!(stats.distance, 1, "distance of ({u},{v})");
                assert_eq!(stats.edges_traversed, 0, "arcs of ({u},{v})");
                assert_eq!(stats.vertices_settled, 0, "rows of ({u},{v})");
                pairs += 1;
            }
        }
        assert!(pairs > 0);
    }

    /// On a community stand-in the sides meet in wide levels, where the
    /// distance path stops at the first meeting vertex instead of finishing
    /// the level: over 200 uniform pairs it relaxes strictly fewer edges
    /// than the path-graph search, with every distance the same.
    #[test]
    fn distance_path_stops_at_the_first_meeting() {
        use qbs_gen::catalog::{Catalog, DatasetId, Scale};
        use qbs_gen::prelude::QueryWorkload;

        let spec = *Catalog::paper_table1().get(DatasetId::LiveJournal).unwrap();
        let graph = spec.generate(Scale::Tiny);
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
        let mut ws = QueryWorkspace::new();
        let (mut path_edges, mut distance_edges) = (0, 0);
        for &(u, v) in QueryWorkload::sample(&graph, 200, 32).pairs() {
            let request = QueryRequest::path_graph(u, v).with_stats();
            let outcome = index.execute_with(&mut ws, &request, None);
            let full = outcome.answer().expect("in range");
            let stats = distance_stats(&index, &mut ws, u, v).expect("in range");
            assert_eq!(stats.distance, full.path_graph.distance(), "({u},{v})");
            path_edges += full.stats.edges_traversed;
            distance_edges += stats.edges_traversed;
        }
        assert!(
            distance_edges < path_edges,
            "distance mode relaxed {distance_edges} edges, path-graph mode {path_edges}"
        );
    }

    /// On a hub stand-in the sketch bound is usually the distance, and the
    /// level at `d_u + d_v = d⊤ − 1` is stage 1's widest: distance mode,
    /// which skips it, relaxes at most half of path mode's stage-1 edges
    /// over 200 uniform pairs (37 %; 96 % while it expanded that level),
    /// with every distance equal to BFS's.
    #[test]
    fn distance_path_stops_below_the_bound_on_a_hub_standin() {
        use qbs_baselines::GroundTruth;
        use qbs_gen::catalog::{Catalog, DatasetId, Scale};
        use qbs_gen::prelude::QueryWorkload;

        let spec = *Catalog::paper_table1().get(DatasetId::Youtube).unwrap();
        let graph = spec.generate(Scale::Tiny);
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
        let truth = GroundTruth::new(graph.clone());
        let mut ws = QueryWorkspace::new();
        let (mut path_edges, mut distance_edges) = (0, 0);
        for &(u, v) in QueryWorkload::sample(&graph, 200, 32).pairs() {
            let request = QueryRequest::path_graph(u, v).with_stats();
            let outcome = index.execute_with(&mut ws, &request, None);
            let path = outcome.answer().expect("in range").stats;
            let dist = distance_stats(&index, &mut ws, u, v).expect("in range");
            assert_eq!(dist.distance, truth.distance(u, v), "({u},{v})");
            assert_distance_stage(&path, &dist, &format!("({u},{v})"));
            path_edges += path.edges_traversed;
            distance_edges += dist.edges_traversed;
        }
        assert!(
            distance_edges * 2 <= path_edges,
            "distance mode relaxed {distance_edges} edges, path-graph mode {path_edges}"
        );
    }

    /// A side whose expansion met the other side leaves that level partial,
    /// so the recover search matches `Z` one level lower whenever a hop's
    /// σ − 1 exceeds the side's last complete level. Over generator
    /// families, every landmark a source, each answer must equal
    /// `GroundTruth` on the heap buffer and on a mapping, and that case
    /// must occur often enough to be pinned.
    #[test]
    fn recover_matches_z_below_a_partial_meeting_level() {
        use qbs_baselines::GroundTruth;
        use qbs_gen::prelude::*;

        let families = [
            barabasi_albert::generate(&BarabasiAlbertConfig {
                vertices: 300,
                edges_per_vertex: 2,
                seed: 5,
            }),
            erdos_renyi::generate(&ErdosRenyiConfig {
                vertices: 300,
                edges: 600,
                seed: 5,
            }),
            watts_strogatz::generate(&WattsStrogatzConfig {
                vertices: 300,
                neighbors: 2,
                rewire_probability: 0.2,
                seed: 5,
            }),
        ];
        let mut ws = QueryWorkspace::new();
        let mut lowered = 0;
        for graph in families {
            let heap = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(10));
            let mapped = mapped_copy(&heap);
            let truth = GroundTruth::new(graph.clone());
            let n = graph.num_vertices() as VertexId;
            let landmark_sources = heap.landmarks().iter().map(|&r| (r, (r * 37 + 11) % n));
            let sampled = QueryWorkload::sample(&graph, 300, 9).pairs().to_vec();
            for (u, v) in landmark_sources.chain(sampled) {
                if u == v {
                    continue;
                }
                let expected = truth.shortest_path_graph(u, v);
                let request = QueryRequest::path_graph(u, v).with_stats();
                let from_heap = heap.execute_with(&mut ws, &request, None);
                let outcome = mapped.execute_with(&mut ws, &request, None);
                assert_eq!(from_heap, outcome, "buffers diverged on ({u},{v})");
                let answer = outcome.answer().expect("in range");
                assert_eq!(answer.path_graph, expected, "query ({u},{v})");
                if !answer.stats.used_recover_search {
                    continue;
                }
                let sides = [
                    (&ws.fwd, &answer.sketch.source_hops),
                    (&ws.bwd, &answer.sketch.target_hops),
                ];
                for (side, hops) in sides {
                    let partial = side.complete < side.level;
                    if partial && hops.iter().any(|hop| hop.distance > side.complete + 1) {
                        lowered += 1;
                    }
                }
            }
        }
        assert!(
            lowered >= 20,
            "Z moved below a partial level {lowered} times"
        );
    }

    #[test]
    fn pure_sparsified_query_skips_recover() {
        let fx = Fixture::figure4();
        // d(7, 9) = 2 via 7-8-9 (no landmark) but every landmark route is
        // longer, so only the reverse search runs.
        let (answer, stats) = fx.query(7, 9);
        assert_eq!(answer.distance(), 2);
        assert_eq!(answer.edges(), &[(7, 8), (8, 9)]);
        assert!(stats.used_reverse_search);
        assert!(!stats.used_recover_search);
        assert!(stats.sparsified_distance < stats.upper_bound);
    }

    #[test]
    fn pure_landmark_query_skips_reverse() {
        let fx = Fixture::figure4();
        // d(4, 12) = 2 via 4-3-12 only (through landmark 3); in G⁻ vertex 4
        // is isolated, so only the recover search contributes.
        let (answer, stats) = fx.query(4, 12);
        assert_eq!(answer.distance(), 2);
        assert_eq!(answer.edges(), &[(3, 4), (3, 12)]);
        assert!(!stats.used_reverse_search);
        assert!(stats.used_recover_search);
        assert_eq!(stats.sparsified_distance, INFINITE_DISTANCE);
    }

    #[test]
    fn landmark_endpoints_are_supported() {
        let fx = Fixture::figure4();
        let mut ws = QueryWorkspace::new();
        for &u in &[1u32, 2, 3] {
            for v in 1..15u32 {
                if u == v {
                    continue;
                }
                let expected = exact_spg(&fx.graph, u, v);
                let (got, _) = fx.query(u, v);
                assert_eq!(got, expected, "query ({u},{v})");
                // A reused workspace must agree as well.
                let (got, _) = Fixture::query_index(&fx.heap, &mut ws, u, v);
                assert_eq!(got, expected, "workspace query ({u},{v})");
            }
        }
    }

    #[test]
    fn stats_report_search_effort() {
        let fx = Fixture::figure4();
        let (_, stats) = fx.query(6, 11);
        assert!(stats.vertices_settled > 0);
        assert!(stats.edges_traversed > 0);
        assert!(stats.forward_levels + stats.backward_levels > 0);
    }

    /// Exact answer via two BFSs (kept local to avoid a dev-dependency cycle
    /// with qbs-baselines inside unit tests).
    fn exact_spg(graph: &Graph, u: VertexId, v: VertexId) -> PathGraph {
        use qbs_graph::traversal::bfs_distances;
        if u == v {
            return PathGraph::trivial(u);
        }
        let du = bfs_distances(graph, u);
        let total = du[v as usize];
        if total == INFINITE_DISTANCE {
            return PathGraph::unreachable(u, v);
        }
        let dv = bfs_distances(graph, v);
        let mut edges = Vec::new();
        for (a, b) in graph.edges() {
            if du[a as usize] == INFINITE_DISTANCE || du[b as usize] == INFINITE_DISTANCE {
                continue;
            }
            if du[a as usize] + 1 + dv[b as usize] == total
                || du[b as usize] + 1 + dv[a as usize] == total
            {
                edges.push((a, b));
            }
        }
        PathGraph::from_edges(u, v, total, edges)
    }
}
