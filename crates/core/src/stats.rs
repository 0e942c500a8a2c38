//! Index size and timing accounting — the numbers behind Tables 2 and 3 and
//! Figures 9–10.

use std::time::Duration;

use qbs_graph::VertexId;

use crate::format::SectionKind;
use crate::QbsIndex;

/// Size and timing statistics of one built index.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexStats {
    /// Number of vertices of the indexed graph.
    pub num_vertices: usize,
    /// Number of undirected edges of the indexed graph.
    pub num_edges: usize,
    /// Number of landmarks `|R|`.
    pub num_landmarks: usize,
    /// `size(L)` under the paper's accounting: `|R|` bytes per vertex
    /// (8 bits per landmark slot), §6.1/§6.4.2, whatever width the index
    /// stores its slots at.
    pub labelling_paper_bytes: usize,
    /// Resident bytes of the label rows: the index file's label section,
    /// at its declared slot width — `⌈|R|/2⌉` bytes per vertex at four
    /// bits, half the paper's figure.
    pub labelling_memory_bytes: usize,
    /// Number of non-empty label entries, `Σ_v |L(v)|`.
    pub labelling_entries: usize,
    /// `size(Δ)`: bytes of the precomputed landmark-to-landmark path graphs
    /// (8 bytes per stored edge), the second QbS column of Table 3.
    pub delta_bytes: usize,
    /// Size of the meta-graph itself (the paper bounds it by 0.01 MB even
    /// for `|R| = 100`).
    pub meta_graph_bytes: usize,
    /// Number of meta edges.
    pub meta_edges: usize,
    /// Adjacency size of the indexed graph (the `|G|` column of Table 1):
    /// the index file's graph-rows and graph-neighbors sections.
    pub graph_bytes: usize,
    /// Labelling construction time.
    pub labelling_time: Duration,
    /// Meta-graph + Δ construction time.
    pub meta_time: Duration,
    /// End-to-end build time.
    pub total_build_time: Duration,
}

impl IndexStats {
    /// Collects the statistics from an index's file sections (one scan of
    /// the label rows counts the entries).
    pub fn from_index(index: &QbsIndex) -> Self {
        let view = index.view();
        let timings = index.timings();
        let (n, r) = (view.num_vertices(), view.num_landmarks());
        let labels = view.section_bytes(SectionKind::Labels);
        let labelling_entries = (0..n as VertexId)
            .map(|v| view.label_entries(v).count())
            .sum();
        IndexStats {
            num_vertices: n,
            num_edges: view.num_arcs() / 2,
            num_landmarks: r,
            labelling_paper_bytes: n * r,
            labelling_memory_bytes: labels.len(),
            labelling_entries,
            delta_bytes: index.meta_graph().delta_size_bytes(),
            meta_graph_bytes: index.meta_graph().meta_size_bytes(),
            meta_edges: index.meta_graph().edges().len(),
            graph_bytes: view.section_bytes(SectionKind::GraphRows).len()
                + view.section_bytes(SectionKind::GraphNeighbors).len(),
            labelling_time: timings.labelling,
            meta_time: timings.meta_graph,
            total_build_time: timings.total,
        }
    }

    /// Total index footprint: labelling (paper accounting) + Δ + meta-graph.
    pub fn total_index_bytes(&self) -> usize {
        self.labelling_paper_bytes + self.delta_bytes + self.meta_graph_bytes
    }

    /// Ratio of the index footprint to the graph size — the paper's
    /// observation that "the labelling sizes constructed by QbS are
    /// generally smaller than the original sizes of graphs".
    pub fn index_to_graph_ratio(&self) -> f64 {
        if self.graph_bytes == 0 {
            0.0
        } else {
            self.total_index_bytes() as f64 / self.graph_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QbsConfig;
    use qbs_graph::fixtures::figure4_graph;

    #[test]
    fn stats_reflect_figure4_index() {
        let index = QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        );
        let s = index.stats();
        assert_eq!(s.num_vertices, 15);
        assert_eq!(s.num_edges, 19);
        assert_eq!(s.num_landmarks, 3);
        assert_eq!(s.labelling_paper_bytes, 45);
        assert_eq!(
            s.labelling_memory_bytes, 30,
            "two bytes per row of three four-bit slots"
        );
        assert_eq!(s.labelling_entries, 18);
        assert_eq!(s.meta_edges, 3);
        assert_eq!(s.delta_bytes, 4 * 8);
        assert_eq!(s.total_index_bytes(), 45 + 32 + 36);
        assert!(s.index_to_graph_ratio() > 0.0);
        assert!(s.total_build_time >= s.labelling_time);
    }

    #[test]
    fn larger_landmark_sets_grow_the_labelling_linearly() {
        // Figure 9's shape: size(L) is linear in |R| under the paper's
        // accounting.
        let g = figure4_graph();
        let s2 = QbsIndex::build(g.clone(), QbsConfig::with_landmark_count(2)).stats();
        let s4 = QbsIndex::build(g, QbsConfig::with_landmark_count(4)).stats();
        assert_eq!(s2.labelling_paper_bytes * 2, s4.labelling_paper_bytes);
    }
}
