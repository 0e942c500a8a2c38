//! Building a [`QbsIndex`] and the single-query entry points: build once,
//! query many times.

use std::time::{Duration, Instant};

use qbs_graph::{Distance, Graph, PathGraph, VertexId};

use crate::format;
use crate::labelling::{self, LabellingScheme};
use crate::landmark::LandmarkStrategy;
use crate::meta_graph;
use crate::search::{self, SearchStats};
use crate::sketch::{self, Sketch};
use crate::store::QbsIndex;
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
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAnswer {
    /// The shortest path graph.
    pub path_graph: PathGraph,
    /// The sketch used to guide the search.
    pub sketch: Sketch,
    /// Work counters of the guided search.
    pub stats: SearchStats,
}

impl QbsIndex {
    /// Builds an index over `graph` with the given configuration, on the
    /// calling thread: Algorithm 2's landmark BFSs, advancing together as
    /// bit masks, then the index file layout in one heap buffer, whose Δ
    /// is read off the labels.
    ///
    /// # Panics
    ///
    /// Panics if the graph has 2³² arcs or more, which the index file's
    /// row bounds cannot address, or if a label distance exceeds 65 534,
    /// which its two-byte label slots cannot hold; [`crate::Qbs::build`]
    /// returns [`QbsError::GraphTooLarge`] or
    /// [`QbsError::LabelDistanceTooLarge`] instead.
    pub fn build(graph: Graph, config: QbsConfig) -> Self {
        Self::try_build(graph, config).unwrap_or_else(|err| panic!("{err}"))
    }

    /// [`QbsIndex::build`], returning its refusals as errors.
    pub(crate) fn try_build(graph: Graph, config: QbsConfig) -> crate::Result<Self> {
        format::check_num_arcs(graph.num_arcs())?;
        let total_start = Instant::now();

        let t = Instant::now();
        let landmarks = config.landmarks.select(&graph);
        let landmark_selection = t.elapsed();

        // The index is its file layout, in one buffer sized up front: the
        // labels are laid out straight into it, then the graph (dropped once
        // written) and the meta-graph. Δ is the last payload section, so it
        // is walked off the labels of that Δ-less index and then appended.
        let t = Instant::now();
        let buf = format::start_buffer(graph.num_vertices(), &landmarks, graph.num_arcs());
        let scheme: LabellingScheme = labelling::build_after(buf, &graph, &landmarks)?;
        let labelling_time = t.elapsed();

        let t = Instant::now();
        let apsp = meta_graph::all_pairs_distances(landmarks.len(), &scheme.meta_edges);
        let mut meta_time = t.elapsed();
        let partial = QbsIndex::from_view(format::write_without_delta(
            scheme.labelling,
            graph,
            &landmarks,
            &scheme.meta_edges,
            &apsp,
        ));
        let t = Instant::now();
        let delta = meta_graph::delta(&partial);
        meta_time += t.elapsed();
        let mut index = QbsIndex::from_view(format::append_delta(partial.into_view(), &delta));

        index.timings = BuildTimings {
            landmark_selection,
            labelling: labelling_time,
            meta_graph: meta_time,
            total: total_start.elapsed(),
        };
        Ok(index)
    }

    /// Builds with the paper's default configuration (20 highest-degree
    /// landmarks).
    pub fn build_default(graph: Graph) -> Self {
        Self::build(graph, QbsConfig::default())
    }

    /// Computes the sketch for a query (Algorithm 3) without running the
    /// search — used by the Figure 8 coverage analysis and by callers that
    /// only need the distance upper bound.
    ///
    /// Returns [`QbsError::VertexOutOfRange`] for endpoints outside the
    /// indexed graph.
    pub fn sketch(&self, source: VertexId, target: VertexId) -> crate::Result<Sketch> {
        sketch_on(self, &mut QueryWorkspace::new(), source, target)
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

/// Rejects query endpoints outside the index's vertex range with
/// [`QbsError::VertexOutOfRange`] — the bounds check shared by every public
/// query entry point.
fn check_vertex(index: &QbsIndex, v: VertexId) -> crate::Result<()> {
    if (v as usize) < index.num_vertices() {
        Ok(())
    } else {
        Err(QbsError::VertexOutOfRange {
            vertex: v as u64,
            num_vertices: index.num_vertices() as u64,
        })
    }
}

/// Answers `SPG(source, target)`, reusing the buffers of `ws`.
///
/// This is the workhorse: [`QbsIndex::query_with`] is a thin wrapper over
/// it, and the request pipeline behind [`crate::Qbs`] calls it directly.
pub fn query_on(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> crate::Result<QueryAnswer> {
    let t = ws.obs.start();
    let sketch = sketch_on(index, ws, source, target)?;
    if source == target {
        ws.record_query();
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
    ws.obs.stop(crate::obs::Stage::SketchBound, t);
    let t = ws.obs.start();
    let (path_graph, stats) = search::guided_search_with(index, ws, source, target, &sketch);
    ws.obs.stop(crate::obs::Stage::GuidedSearch, t);
    Ok(QueryAnswer {
        path_graph,
        sketch,
        stats,
    })
}

/// Shortest-path distance, reusing the buffers of `ws` (the
/// allocation-free sibling of [`query_on`]).
pub fn distance_on(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> crate::Result<Distance> {
    Ok(distance_with_bounds_on(index, ws, source, target)?.0)
}

/// [`distance_on`] that also surfaces the sketch upper bound `d⊤` it
/// computed — the request pipeline uses it as its cache-admission cost
/// hint without paying for a second label intersection.
pub(crate) fn distance_with_bounds_on(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> crate::Result<(Distance, Distance)> {
    check_vertex(index, source)?;
    check_vertex(index, target)?;
    if source == target {
        ws.record_query();
        return Ok((0, 0));
    }
    index.fill_effective_label(source, &mut ws.src_label);
    index.fill_effective_label(target, &mut ws.tgt_label);
    let t = ws.obs.start();
    let upper_bound = sketch::compute_bounds(index, &ws.src_label, &ws.tgt_label);
    ws.obs.stop(crate::obs::Stage::SketchBound, t);
    let t = ws.obs.start();
    let (distance, _) = search::guided_distance_with(index, ws, source, target, upper_bound);
    ws.obs.stop(crate::obs::Stage::GuidedSearch, t);
    Ok((distance, upper_bound))
}

/// Computes the sketch of a query without running the search, reusing the
/// label buffers of `ws`: the sketch [`query_on`]'s answer carries, which
/// for a trivial pair (`u == v`) is [`Sketch::unreachable`].
pub fn sketch_on(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> crate::Result<Sketch> {
    check_vertex(index, source)?;
    check_vertex(index, target)?;
    if source == target {
        return Ok(Sketch::unreachable(source, target));
    }
    index.fill_effective_label(source, &mut ws.src_label);
    index.fill_effective_label(target, &mut ws.tgt_label);
    Ok(sketch::compute(
        index,
        source,
        target,
        &ws.src_label,
        &ws.tgt_label,
    ))
}

/// The cache-admission cost hint of a query whose sketch is `sketch`: its
/// `d⊤`, except 0 for a trivial pair (`u == v`), which needs no search —
/// the hint [`distance_with_bounds_on`] gives the same pair.
pub(crate) fn cost_hint(sketch: &Sketch) -> Distance {
    if sketch.source == sketch.target {
        0
    } else {
        sketch.upper_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_graph::fixtures::{figure3_graph, figure4_graph, figure4_spg_6_11_edges};
    use qbs_graph::GraphBuilder;

    /// The path 0 — 1 — … — 70 000 with the landmark at 0: vertex 70 000's
    /// label would be 70 000, past the 65 534 a two-byte slot holds.
    fn long_path() -> (Graph, QbsConfig) {
        let graph = GraphBuilder::from_edges((1..=70_000u32).map(|v| (v - 1, v))).build();
        (graph, QbsConfig::with_explicit_landmarks(vec![0]))
    }

    /// A label past two bytes used to be stored as 65 534, so `d⊤` stopped
    /// bounding the distance and queries answered wrong. The build refuses
    /// it now; an index that does get built answers exactly.
    #[test]
    fn labels_past_two_bytes_refuse_the_build() {
        let (graph, config) = long_path();
        match crate::Qbs::build(graph, config) {
            Ok(qbs) => {
                assert_eq!(qbs.distance(1, 70_000).unwrap(), 69_999);
                assert_eq!(qbs.query(1, 70_000).unwrap().distance(), 69_999);
                let index = qbs.index().unwrap();
                assert_eq!(index.label_distance(70_000, 0), Some(70_000));
            }
            Err(err) => assert!(
                matches!(err, QbsError::LabelDistanceTooLarge { distance: 65_535 }),
                "{err}"
            ),
        }
    }

    #[test]
    #[should_panic(expected = "a label distance of 65535 does not fit")]
    fn index_build_panics_on_labels_past_two_bytes() {
        let (graph, config) = long_path();
        QbsIndex::build(graph, config);
    }

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
