//! Building a [`QbsIndex`]: build once, query many times through
//! [`QbsIndex::execute_with`] ([`crate::request`]).

use std::time::{Duration, Instant};

use qbs_graph::{Graph, PathGraph, VertexId};

use crate::format;
use crate::labelling::{self, LabellingScheme};
use crate::landmark::LandmarkStrategy;
use crate::meta_graph;
use crate::search::SearchStats;
use crate::sketch::Sketch;
use crate::store::QbsIndex;

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
    /// returns [`crate::QbsError::GraphTooLarge`] or
    /// [`crate::QbsError::LabelDistanceTooLarge`] instead (and
    /// [`crate::QbsError::MetaDistanceTooLarge`] for a landmark distance
    /// near 2³⁰, past what the sketch's 32-bit lanes carry).
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
        ))?;
        let t = Instant::now();
        let delta = meta_graph::delta(&partial);
        meta_time += t.elapsed();
        let mut index = QbsIndex::from_view(format::append_delta(partial.into_view(), &delta))?;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QbsError;
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
                let index = qbs.index().unwrap();
                assert_eq!(index.distance(1, 70_000).unwrap(), 69_999);
                assert_eq!(index.query(1, 70_000).unwrap().distance(), 69_999);
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
        assert_eq!(
            index.query(6, 11).expect("in range"),
            PathGraph::from_edges(6, 11, 5, figure4_spg_6_11_edges())
        );
        assert_eq!(index.sketch(6, 11).unwrap().upper_bound, 5);
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
        assert!(index.sketch(99, 0).is_err());
        assert!(index.distance(0, 99).is_err());
        assert!(matches!(
            index.query(0, 99).unwrap_err(),
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
        // A landmark endpoint's lane is 0 in its own column and "no entry"
        // elsewhere, padding included; a vertex's lane is its label row.
        let none = <i16 as crate::sketch::Lane>::NONE;
        let mut lane: Vec<i16> = Vec::new();
        crate::sketch::label_lane(&index, 2, &mut lane);
        assert_eq!(lane[..3], [none, 0, none]);
        assert!(lane[3..].iter().all(|&d| d == none));
        crate::sketch::label_lane(&index, 4, &mut lane);
        assert_eq!(lane[..3], [1, none, 1]);
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
