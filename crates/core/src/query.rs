//! The [`QbsIndex`] façade: build once, query many times.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use qbs_graph::{Distance, Graph, PathGraph, VertexFilter, VertexId};

use crate::labelling::{self, LabellingScheme, PathLabelling};
use crate::landmark::LandmarkStrategy;
use crate::meta_graph::MetaGraph;
use crate::search::{self, SearchStats};
use crate::sketch::{self, Sketch};
use crate::stats::IndexStats;
use crate::store::IndexStore;
use crate::workspace::QueryWorkspace;
use crate::QbsError;

/// Configuration of an index build.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QbsConfig {
    /// How landmarks are chosen. Default: the 20 highest-degree vertices.
    pub landmarks: LandmarkStrategy,
}

impl QbsConfig {
    /// The paper's default configuration with a custom landmark count.
    pub fn with_landmark_count(count: usize) -> Self {
        QbsConfig {
            landmarks: LandmarkStrategy::HighestDegree { count },
        }
    }

    /// A configuration with an explicit landmark set (used in tests that
    /// mirror the paper's worked example).
    pub fn with_explicit_landmarks(landmarks: Vec<VertexId>) -> Self {
        QbsConfig {
            landmarks: LandmarkStrategy::Explicit(landmarks),
        }
    }
}

/// Timing breakdown of an index build.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BuildTimings {
    /// Landmark selection time.
    pub landmark_selection: Duration,
    /// Labelling construction time (Algorithm 2 over all landmarks).
    pub labelling: Duration,
    /// Meta-graph assembly: APSP plus the Δ path graphs.
    pub meta_graph: Duration,
    /// End-to-end build time.
    pub total: Duration,
}

/// A query answer together with the search statistics behind it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// The shortest path graph.
    pub path_graph: PathGraph,
    /// The sketch used to guide the search.
    pub sketch: Sketch,
    /// Work counters of the guided search.
    pub stats: SearchStats,
}

/// The Query-by-Sketch index.
#[derive(Clone, Debug)]
pub struct QbsIndex {
    graph: Graph,
    landmarks: Vec<VertexId>,
    landmark_filter: VertexFilter,
    landmark_column: Vec<u32>,
    labelling: PathLabelling,
    meta: MetaGraph,
    timings: BuildTimings,
}

impl QbsIndex {
    /// Builds an index over `graph` with the given configuration, on the
    /// calling thread: Algorithm 2's one BFS per landmark, then the
    /// meta-graph, whose Δ is read off the finished labelling.
    pub fn build(graph: Graph, config: QbsConfig) -> Self {
        let total_start = Instant::now();

        let t = Instant::now();
        let landmarks = config.landmarks.select(&graph);
        let landmark_selection = t.elapsed();

        let t = Instant::now();
        let scheme: LabellingScheme = labelling::build_sequential(&graph, &landmarks);
        let labelling_time = t.elapsed();

        let t = Instant::now();
        let mut index =
            QbsIndex::from_parts(graph, landmarks, scheme.labelling, MetaGraph::default());
        // The walk reads the labels and the graph of the index it completes.
        index.meta = MetaGraph::build(&index, &scheme.meta_edges);
        let meta_time = t.elapsed();

        index.timings = BuildTimings {
            landmark_selection,
            labelling: labelling_time,
            meta_graph: meta_time,
            total: total_start.elapsed(),
        };
        index
    }

    /// Builds with the paper's default configuration (20 highest-degree
    /// landmarks).
    pub fn build_default(graph: Graph) -> Self {
        Self::build(graph, QbsConfig::default())
    }

    /// Reassembles an index from its persisted parts, recomputing only the
    /// derived lookup structures (landmark filter and column map, both
    /// `O(|V|)` bitmap fills). Build timings are not persisted, so they
    /// read as zero on a loaded index.
    pub(crate) fn from_parts(
        graph: Graph,
        landmarks: Vec<VertexId>,
        labelling: PathLabelling,
        meta: MetaGraph,
    ) -> Self {
        let landmark_filter =
            VertexFilter::from_vertices(graph.num_vertices(), landmarks.iter().copied());
        let landmark_column = labelling::landmark_column_map(&graph, &landmarks);
        QbsIndex {
            graph,
            landmarks,
            landmark_filter,
            landmark_column,
            labelling,
            meta,
            timings: BuildTimings::default(),
        }
    }

    /// Serialises the index into an index-file buffer (see
    /// [`crate::format`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::format::write(self)
    }

    /// The index as a parsed [`crate::format::IndexView`]: serialises into
    /// a fresh heap buffer and re-opens it as a validated zero-copy view.
    pub fn as_view(&self) -> crate::format::IndexView {
        crate::format::IndexView::parse(crate::format::ViewBuf::Heap(self.to_bytes()))
            .expect("freshly written index buffer is valid")
    }

    /// Restores an index from a validated view.
    ///
    /// Queries answered by the result are bit-identical to those of the
    /// index that produced the view. The view was structurally validated at
    /// parse time, so this cannot panic on corrupt input — corruption is
    /// reported by [`crate::format::IndexView::parse`] instead.
    pub fn from_view(view: &crate::format::IndexView) -> Self {
        let (graph, landmarks, labelling, meta) = view.materialize();
        QbsIndex::from_parts(graph, landmarks, labelling, meta)
    }

    /// The indexed graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The landmark set `R` in column order.
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// The path labelling `L`.
    pub fn labelling(&self) -> &PathLabelling {
        &self.labelling
    }

    /// The meta-graph (with APSP and Δ).
    pub fn meta_graph(&self) -> &MetaGraph {
        &self.meta
    }

    /// Build-phase timing breakdown.
    pub fn timings(&self) -> BuildTimings {
        self.timings
    }

    /// Size and timing statistics (the per-dataset rows of Tables 2 and 3).
    pub fn stats(&self) -> IndexStats {
        IndexStats::from_index(self)
    }

    /// Whether `v` is a landmark.
    pub fn is_landmark(&self, v: VertexId) -> bool {
        (v as usize) < self.landmark_column.len() && self.landmark_column[v as usize] != u32::MAX
    }

    /// The effective label of a vertex: its path label, or the synthetic
    /// `{(itself, 0)}` when the vertex is a landmark.
    pub fn effective_label(&self, v: VertexId) -> Vec<(usize, Distance)> {
        let mut out = Vec::new();
        self.fill_effective_label(v, &mut out);
        out
    }

    /// Fills `buf` with the effective label of `v`, reusing its capacity
    /// (the allocation-free sibling of [`QbsIndex::effective_label`] used by
    /// the workspace query path).
    pub fn fill_effective_label(&self, v: VertexId, buf: &mut Vec<(usize, Distance)>) {
        buf.clear();
        let col = self.landmark_column[v as usize];
        if col != u32::MAX {
            buf.push((col as usize, 0));
        } else {
            buf.extend(self.labelling.entries(v));
        }
    }

    /// Computes the sketch for a query (Algorithm 3) without running the
    /// search — used by the Figure 8 coverage analysis and by callers that
    /// only need the distance upper bound.
    ///
    /// Returns [`QbsError::VertexOutOfRange`] for endpoints outside the
    /// indexed graph.
    pub fn sketch(&self, source: VertexId, target: VertexId) -> crate::Result<Sketch> {
        sketch_on(self, source, target)
    }

    /// Answers `SPG(source, target)` on a throwaway workspace.
    ///
    /// Thin wrapper over the request pipeline's [`query_on`] executor —
    /// the typed equivalent is
    /// `execute_on(&index, ws, &QueryRequest::path_graph(u, v))` (see
    /// [`crate::request`] and the migration table in `docs/api.md`).
    /// Returns [`QbsError::VertexOutOfRange`] for endpoints outside the
    /// indexed graph. Hot loops should hold a [`QueryWorkspace`] and call
    /// [`QbsIndex::query_with`]; serving deployments should prefer the
    /// [`crate::session::Qbs`] façade.
    pub fn query(&self, source: VertexId, target: VertexId) -> crate::Result<PathGraph> {
        Ok(self.query_with_stats(source, target)?.path_graph)
    }

    /// Answers `SPG(source, target)`, returning the sketch and search
    /// statistics alongside the path graph.
    ///
    /// Returns [`QbsError::VertexOutOfRange`] for endpoints outside the
    /// indexed graph.
    pub fn query_with_stats(
        &self,
        source: VertexId,
        target: VertexId,
    ) -> crate::Result<QueryAnswer> {
        let mut ws = QueryWorkspace::new();
        self.query_with(&mut ws, source, target)
    }

    /// Answers `SPG(source, target)` reusing the buffers of `ws`.
    ///
    /// This is the workhorse behind every other query entry point. In the
    /// steady state (workspace warmed up to the graph size) the search
    /// itself performs no `O(|V|)` allocations or clears — the only heap
    /// activity is the storage owned by the returned [`QueryAnswer`]
    /// (answer edges and sketch hops). Results are bit-identical to
    /// [`QbsIndex::query`].
    pub fn query_with(
        &self,
        ws: &mut QueryWorkspace,
        source: VertexId,
        target: VertexId,
    ) -> crate::Result<QueryAnswer> {
        query_on(self, ws, source, target)
    }

    /// Shortest-path distance between two vertices (a by-product of the
    /// guided search; exposed because distance queries are the classic use
    /// of 2-hop labellings). Thin wrapper over the pipeline's
    /// [`distance_on`] executor — the typed equivalent is
    /// [`crate::request::QueryRequest::distance`].
    pub fn distance(&self, source: VertexId, target: VertexId) -> crate::Result<Distance> {
        let mut ws = QueryWorkspace::new();
        self.distance_with(&mut ws, source, target)
    }

    /// Shortest-path distance reusing the buffers of `ws`.
    ///
    /// Unlike [`QbsIndex::query_with`] this skips the sketch's edge lists
    /// and the reverse/recover materialisation (Eq. 5 needs only
    /// `min(d_{G⁻}, d⊤)`), so with a warmed-up workspace the entire call is
    /// allocation-free.
    pub fn distance_with(
        &self,
        ws: &mut QueryWorkspace,
        source: VertexId,
        target: VertexId,
    ) -> crate::Result<Distance> {
        distance_on(self, ws, source, target)
    }
}

/// The owned index *is* a storage backend: every accessor reads the
/// materialised structures. [`crate::store::ViewStore`] provides the same
/// interface over a raw index-file buffer; [`query_on`] and friends
/// accept either.
impl IndexStore for QbsIndex {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    #[inline]
    fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    #[inline]
    fn landmark(&self, idx: usize) -> VertexId {
        self.landmarks[idx]
    }

    #[inline]
    fn landmark_filter(&self) -> &VertexFilter {
        &self.landmark_filter
    }

    #[inline]
    fn landmark_column(&self, v: VertexId) -> Option<usize> {
        match self.landmark_column[v as usize] {
            u32::MAX => None,
            col => Some(col as usize),
        }
    }

    #[inline]
    fn is_landmark(&self, v: VertexId) -> bool {
        QbsIndex::is_landmark(self, v)
    }

    #[inline]
    fn label_distance(&self, v: VertexId, landmark_idx: usize) -> Option<Distance> {
        self.labelling.get(v, landmark_idx)
    }

    fn fill_label_entries(&self, v: VertexId, out: &mut Vec<(usize, Distance)>) {
        out.extend(self.labelling.entries(v));
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut visit: F) {
        for &w in self.graph.neighbors(v) {
            visit(w);
        }
    }

    #[inline]
    fn meta_distance(&self, i: usize, j: usize) -> Distance {
        self.meta.distance(i, j)
    }

    #[inline]
    fn num_meta_edges(&self) -> usize {
        self.meta.edges().len()
    }

    #[inline]
    fn meta_edge(&self, k: usize) -> (usize, usize, Distance) {
        self.meta.edges()[k]
    }

    #[inline]
    fn meta_edge_index(&self, i: usize, j: usize) -> Option<usize> {
        self.meta.edge_index(i, j)
    }

    fn for_each_delta_edge<F: FnMut(VertexId, VertexId)>(&self, k: usize, mut visit: F) {
        for &(a, b) in self.meta.delta_edges(k) {
            visit(a, b);
        }
    }
}

/// Rejects query endpoints outside the store's vertex range with
/// [`QbsError::VertexOutOfRange`] — the bounds check shared by every public
/// query entry point, owned and view-backed alike.
fn check_vertex<S: IndexStore>(store: &S, v: VertexId) -> crate::Result<()> {
    if (v as usize) < store.num_vertices() {
        Ok(())
    } else {
        Err(QbsError::VertexOutOfRange {
            vertex: v as u64,
            num_vertices: store.num_vertices() as u64,
        })
    }
}

/// Answers `SPG(source, target)` on any [`IndexStore`] backend, reusing the
/// buffers of `ws`.
///
/// This is the backend-generic workhorse: [`QbsIndex::query_with`] is a
/// thin wrapper over it, and the request pipeline behind
/// [`crate::Qbs`] calls it directly so a view-backed session serves
/// queries with **zero** index materialisation. Answers are bit-identical
/// across backends.
pub fn query_on<S: IndexStore>(
    store: &S,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> crate::Result<QueryAnswer> {
    check_vertex(store, source)?;
    check_vertex(store, target)?;
    if source == target {
        ws.record_query();
        let sketch = Sketch::unreachable(source, target);
        let stats = SearchStats {
            distance: 0,
            ..SearchStats::default()
        };
        return Ok(QueryAnswer {
            path_graph: PathGraph::trivial(source),
            sketch,
            stats,
        });
    }
    store.fill_effective_label(source, &mut ws.src_label);
    store.fill_effective_label(target, &mut ws.tgt_label);
    let t = ws.obs.start();
    let sketch = sketch::compute(store, source, target, &ws.src_label, &ws.tgt_label);
    ws.obs.stop(crate::obs::Stage::SketchBound, t);
    let t = ws.obs.start();
    let (path_graph, stats) = search::guided_search_with(store, ws, source, target, &sketch);
    ws.obs.stop(crate::obs::Stage::GuidedSearch, t);
    Ok(QueryAnswer {
        path_graph,
        sketch,
        stats,
    })
}

/// Shortest-path distance on any [`IndexStore`] backend, reusing the
/// buffers of `ws` (the allocation-free sibling of [`query_on`]).
pub fn distance_on<S: IndexStore>(
    store: &S,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> crate::Result<Distance> {
    Ok(distance_with_bounds_on(store, ws, source, target)?.0)
}

/// [`distance_on`] that also surfaces the sketch bounds it computed — the
/// request pipeline uses the upper bound `d⊤` as its cache-admission cost
/// hint without paying for a second label intersection.
pub(crate) fn distance_with_bounds_on<S: IndexStore>(
    store: &S,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> crate::Result<(Distance, sketch::SketchBounds)> {
    check_vertex(store, source)?;
    check_vertex(store, target)?;
    if source == target {
        ws.record_query();
        return Ok((
            0,
            sketch::SketchBounds {
                upper_bound: 0,
                source_budget: 0,
                target_budget: 0,
            },
        ));
    }
    store.fill_effective_label(source, &mut ws.src_label);
    store.fill_effective_label(target, &mut ws.tgt_label);
    let t = ws.obs.start();
    let bounds = sketch::compute_bounds(store, &ws.src_label, &ws.tgt_label);
    ws.obs.stop(crate::obs::Stage::SketchBound, t);
    let t = ws.obs.start();
    let (distance, _) = search::guided_distance_with(store, ws, source, target, &bounds);
    ws.obs.stop(crate::obs::Stage::GuidedSearch, t);
    Ok((distance, bounds))
}

/// Computes the sketch of a query on any [`IndexStore`] backend without
/// running the search.
pub fn sketch_on<S: IndexStore>(
    store: &S,
    source: VertexId,
    target: VertexId,
) -> crate::Result<Sketch> {
    check_vertex(store, source)?;
    check_vertex(store, target)?;
    let mut src = Vec::new();
    let mut tgt = Vec::new();
    store.fill_effective_label(source, &mut src);
    store.fill_effective_label(target, &mut tgt);
    Ok(sketch::compute(store, source, target, &src, &tgt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_graph::fixtures::{figure3_graph, figure4_graph, figure4_spg_6_11_edges};

    #[test]
    fn figure4_default_example_end_to_end() {
        let index = QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        );
        assert_eq!(index.landmarks(), &[1, 2, 3]);
        let answer = index.query_with_stats(6, 11).expect("in range");
        assert_eq!(answer.path_graph.distance(), 5);
        assert_eq!(
            answer.path_graph,
            PathGraph::from_edges(6, 11, 5, figure4_spg_6_11_edges())
        );
        assert_eq!(answer.sketch.upper_bound, 5);
        assert_eq!(index.distance(6, 11).unwrap(), 5);
    }

    #[test]
    fn default_config_uses_degree_landmarks() {
        let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
        let mut lm = index.landmarks().to_vec();
        lm.sort_unstable();
        assert_eq!(lm, vec![1, 2, 3]);
        assert!(index.is_landmark(1));
        assert!(!index.is_landmark(7));
    }

    #[test]
    fn trivial_and_error_cases() {
        let index = QbsIndex::build(figure3_graph(), QbsConfig::with_landmark_count(2));
        assert_eq!(index.query(5, 5).unwrap().distance(), 0);
        assert!(index.query(0, 99).is_err());
        assert!(index.sketch(99, 0).is_err());
        assert!(index.distance(0, 99).is_err());
        assert!(matches!(
            index.query_with_stats(99, 0).unwrap_err(),
            QbsError::VertexOutOfRange { .. }
        ));
    }

    #[test]
    fn timings_and_stats_are_populated() {
        let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
        let t = index.timings();
        assert!(t.total >= t.labelling);
        let stats = index.stats();
        assert_eq!(stats.num_landmarks, 3);
        assert!(stats.labelling_paper_bytes > 0);
    }

    #[test]
    fn effective_label_of_landmark_is_synthetic_zero() {
        let index = QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        );
        assert_eq!(index.effective_label(2), vec![(1, 0)]);
        assert_eq!(index.effective_label(4), vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn explicit_landmark_count_sweeps_build() {
        // Used heavily by the Figures 9-11 sweeps: building with more
        // landmarks than vertices must clamp, not panic.
        let index = QbsIndex::build(figure3_graph(), QbsConfig::with_landmark_count(100));
        assert_eq!(index.landmarks().len(), figure3_graph().num_vertices());
        assert_eq!(index.query(3, 7).unwrap().distance(), 4);
    }
}
