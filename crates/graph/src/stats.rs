//! Graph statistics used to regenerate Table 1 and Figure 7 of the paper.

use crate::csr::Graph;
use crate::traversal::bfs_distances;
use crate::vertex::{Distance, VertexId, INFINITE_DISTANCE};

/// Summary statistics of one graph — the columns of Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices `|V|`.
    pub num_vertices: usize,
    /// Number of undirected edges `|E_un|`.
    pub num_edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree `2|E| / |V|`.
    pub avg_degree: f64,
    /// Average shortest-path distance over a sample of connected pairs
    /// (`None` when no connected pair was sampled).
    pub avg_distance: Option<f64>,
    /// Adjacency-structure size in bytes (the `|G|` column of Table 1).
    pub size_bytes: usize,
}

impl GraphStats {
    /// Computes the statistics. `distance_sample_pairs` pairs of vertices are
    /// sampled deterministically (a fixed stride over the vertex range) to
    /// estimate the average distance, mirroring the 10 000-pair sampling of
    /// the paper without requiring an RNG in this crate.
    pub fn compute(graph: &Graph, distance_sample_pairs: usize) -> Self {
        let avg_distance = if distance_sample_pairs == 0 || graph.num_vertices() < 2 {
            None
        } else {
            average_distance_sampled(graph, distance_sample_pairs)
        };
        GraphStats {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            max_degree: graph.max_degree(),
            avg_degree: graph.avg_degree(),
            avg_distance,
            size_bytes: graph.size_bytes(),
        }
    }
}

/// Estimates the average shortest-path distance from a deterministic sample
/// of source vertices (one BFS per source).
fn average_distance_sampled(graph: &Graph, pairs: usize) -> Option<f64> {
    let n = graph.num_vertices();
    // One BFS per ~sqrt(pairs) sources gives roughly `pairs` distances while
    // keeping the work bounded.
    let sources = ((pairs as f64).sqrt().ceil() as usize).clamp(1, n);
    let stride = (n / sources).max(1);
    let mut total: u64 = 0;
    let mut count: u64 = 0;
    for s in (0..n).step_by(stride).take(sources) {
        let dist = bfs_distances(graph, s as VertexId);
        for (v, &d) in dist.iter().enumerate() {
            if v != s && d != INFINITE_DISTANCE {
                total += d as u64;
                count += 1;
            }
        }
    }
    if count == 0 {
        None
    } else {
        Some(total as f64 / count as f64)
    }
}

/// Histogram of pairwise distances — the data behind Figure 7.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DistanceHistogram {
    /// `counts[d]` is the number of sampled pairs at distance `d`.
    pub counts: Vec<u64>,
    /// Number of sampled pairs that were disconnected.
    pub unreachable: u64,
}

impl DistanceHistogram {
    /// Records one observed distance.
    pub fn record(&mut self, d: Distance) {
        if d == INFINITE_DISTANCE {
            self.unreachable += 1;
            return;
        }
        let idx = d as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Total number of recorded pairs (reachable + unreachable).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.unreachable
    }

    /// Fraction of pairs at each distance (the y-axis of Figure 7).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Mean distance of the reachable pairs, if any.
    pub fn mean(&self) -> Option<f64> {
        let reachable: u64 = self.counts.iter().sum();
        if reachable == 0 {
            return None;
        }
        let weighted: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        Some(weighted as f64 / reachable as f64)
    }

    /// The most common distance, if any pair was reachable.
    pub fn mode(&self) -> Option<Distance> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .max_by_key(|&(_, &c)| c)
            .map(|(d, _)| d as Distance)
    }
}

/// Degree distribution: `counts[d]` is the number of vertices of degree `d`.
pub fn degree_distribution(graph: &Graph) -> Vec<u64> {
    let mut counts = vec![0u64; graph.max_degree() + 1];
    for v in graph.vertices() {
        counts[graph.degree(v)] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure4_graph;
    use crate::GraphBuilder;

    #[test]
    fn stats_of_figure4_graph() {
        let g = figure4_graph();
        let s = GraphStats::compute(&g, 100);
        assert_eq!(s.num_vertices, 15);
        assert_eq!(s.num_edges, 19);
        assert_eq!(s.max_degree, 4);
        assert!(s.avg_degree > 2.0 && s.avg_degree < 3.0);
        assert!(s.avg_distance.unwrap() > 1.0);
        assert_eq!(s.size_bytes, g.size_bytes());
    }

    #[test]
    fn stats_without_distance_sampling() {
        let g = figure4_graph();
        let s = GraphStats::compute(&g, 0);
        assert!(s.avg_distance.is_none());
    }

    #[test]
    fn average_distance_of_a_path_graph() {
        // Path 0-1-2-3-4: exact average distance is 2.0.
        let g = GraphBuilder::from_edges([(0u32, 1), (1, 2), (2, 3), (3, 4)]).build();
        let s = GraphStats::compute(&g, 1000);
        let avg = s.avg_distance.unwrap();
        assert!(avg > 1.0 && avg <= 3.0, "avg = {avg}");
    }

    #[test]
    fn histogram_records_and_normalises() {
        let mut h = DistanceHistogram::default();
        for d in [1u32, 2, 2, 3, 3, 3] {
            h.record(d);
        }
        h.record(INFINITE_DISTANCE);
        assert_eq!(h.total(), 7);
        assert_eq!(h.unreachable, 1);
        assert_eq!(h.counts, vec![0, 1, 2, 3]);
        assert_eq!(h.mode(), Some(3));
        let f = h.fractions();
        assert!((f[3] - 3.0 / 7.0).abs() < 1e-12);
        assert!((h.mean().unwrap() - (1.0 + 2.0 + 2.0 + 3.0 * 3.0) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = DistanceHistogram::default();
        assert_eq!(h.total(), 0);
        assert!(h.fractions().is_empty());
        assert!(h.mean().is_none());
        assert!(h.mode().is_none());
    }

    #[test]
    fn degree_distribution_sums_to_vertex_count() {
        let g = figure4_graph();
        let dist = degree_distribution(&g);
        assert_eq!(dist.iter().sum::<u64>() as usize, g.num_vertices());
        assert_eq!(dist.len(), g.max_degree() + 1);
        // Vertex 0 is isolated.
        assert_eq!(dist[0], 1);
    }
}
