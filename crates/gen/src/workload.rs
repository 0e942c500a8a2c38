//! Query workloads.
//!
//! The paper evaluates query time on "10,000 pairs of vertices randomly
//! sampled from all pairs of vertices in each graph" (§6.1) and reports
//! their distance distribution in Figure 7. [`QueryWorkload`] reproduces
//! that sampling deterministically, and can additionally compute the
//! distance histogram needed for Figure 7.

use qbs_graph::stats::DistanceHistogram;
use qbs_graph::traversal::bfs_distances;
use qbs_graph::{Graph, VertexId, INFINITE_DISTANCE};
use rand::Rng;

use crate::rng::seeded_rng;

/// A deterministic set of query vertex pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryWorkload {
    pairs: Vec<(VertexId, VertexId)>,
    seed: u64,
}

impl QueryWorkload {
    /// Samples `count` vertex pairs uniformly at random (with the two
    /// endpoints forced to differ, as a `SPG(v, v)` query is trivial).
    ///
    /// Pairs may be disconnected if the graph is disconnected, matching the
    /// paper's "sampled from all pairs" methodology; use
    /// [`QueryWorkload::sample_connected`] to restrict to connected pairs.
    pub fn sample(graph: &Graph, count: usize, seed: u64) -> Self {
        let n = graph.num_vertices();
        let mut rng = seeded_rng(seed);
        let mut pairs = Vec::with_capacity(count);
        if n >= 2 {
            while pairs.len() < count {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v {
                    pairs.push((u, v));
                }
            }
        }
        QueryWorkload { pairs, seed }
    }

    /// Samples `count` pairs with Zipf-distributed endpoint popularity —
    /// the skewed serving traffic the answer cache targets.
    ///
    /// Both endpoints are drawn independently from a Zipf distribution with
    /// the given `exponent` over all vertices (endpoints forced to differ,
    /// as in [`QueryWorkload::sample`]). Rank is decoupled from vertex id by
    /// a seeded shuffle, so the hot head is a *random* set of vertices
    /// rather than the low ids — on preferential-attachment graphs the low
    /// ids are the hubs the landmark selection already absorbs, and a
    /// popularity skew aligned with them would be the easy case.
    ///
    /// Exponents around `1.0` give a long-tailed workload; `1.5` makes the
    /// head heavy enough that a 256-query batch repeats sources (and whole
    /// pairs) many times over.
    pub fn sample_zipf(graph: &Graph, count: usize, seed: u64, exponent: f64) -> Self {
        let n = graph.num_vertices();
        let mut rng = seeded_rng(seed);
        let mut pairs = Vec::with_capacity(count);
        if n >= 2 {
            // Rank → vertex map: a Fisher–Yates shuffle of the id space.
            let mut by_rank: Vec<VertexId> = (0..n as VertexId).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..i + 1);
                by_rank.swap(i, j);
            }
            // Inverse-CDF table over harmonic weights rank^-exponent.
            let mut cdf = Vec::with_capacity(n);
            let mut total = 0.0f64;
            for rank in 0..n {
                total += ((rank + 1) as f64).powf(-exponent);
                cdf.push(total);
            }
            let draw = |rng: &mut rand::rngs::SmallRng| -> VertexId {
                let x = rng.gen_range(0.0..total);
                let rank = cdf.partition_point(|&c| c <= x).min(n - 1);
                by_rank[rank]
            };
            while pairs.len() < count {
                let u = draw(&mut rng);
                let v = draw(&mut rng);
                if u != v {
                    pairs.push((u, v));
                }
            }
        }
        QueryWorkload { pairs, seed }
    }

    /// Samples `count` pairs that are connected in `graph`.
    ///
    /// Gives up (returning fewer pairs) if connected pairs are so rare that
    /// `50 × count` rejections were exhausted — that only happens on heavily
    /// fragmented graphs, which the catalog avoids by construction.
    pub fn sample_connected(graph: &Graph, count: usize, seed: u64) -> Self {
        let n = graph.num_vertices();
        let mut rng = seeded_rng(seed);
        let mut pairs = Vec::with_capacity(count);
        if n >= 2 {
            let comps = qbs_graph::components::connected_components(graph);
            let mut attempts = 0usize;
            while pairs.len() < count && attempts < count.saturating_mul(50).max(1000) {
                attempts += 1;
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v && comps.connected(u, v) {
                    pairs.push((u, v));
                }
            }
        }
        QueryWorkload { pairs, seed }
    }

    /// The sampled pairs.
    pub fn pairs(&self) -> &[(VertexId, VertexId)] {
        &self.pairs
    }

    /// Number of sampled pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The seed the workload was sampled with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Computes the distance of every pair (Figure 7's underlying data) by
    /// grouping pairs per source and running one BFS per distinct source.
    pub fn distance_histogram(&self, graph: &Graph) -> DistanceHistogram {
        let mut histogram = DistanceHistogram::default();
        if self.pairs.is_empty() {
            return histogram;
        }
        // Group by source to share BFS work.
        let mut by_source: std::collections::BTreeMap<VertexId, Vec<VertexId>> =
            std::collections::BTreeMap::new();
        for &(u, v) in &self.pairs {
            by_source.entry(u).or_default().push(v);
        }
        for (source, targets) in by_source {
            let dist = bfs_distances(graph, source);
            for v in targets {
                histogram.record(*dist.get(v as usize).unwrap_or(&INFINITE_DISTANCE));
            }
        }
        histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured;
    use qbs_graph::fixtures::figure4_graph;
    use qbs_graph::GraphBuilder;

    #[test]
    fn sample_produces_requested_count_of_distinct_endpoint_pairs() {
        let g = figure4_graph();
        let w = QueryWorkload::sample(&g, 500, 7);
        assert_eq!(w.len(), 500);
        assert!(!w.is_empty());
        assert_eq!(w.seed(), 7);
        assert!(w.pairs().iter().all(|&(u, v)| u != v));
        assert!(w
            .pairs()
            .iter()
            .all(|&(u, v)| (u as usize) < g.num_vertices() && (v as usize) < g.num_vertices()));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let g = structured::grid(10, 10);
        assert_eq!(
            QueryWorkload::sample(&g, 100, 1),
            QueryWorkload::sample(&g, 100, 1)
        );
        assert_ne!(
            QueryWorkload::sample(&g, 100, 1),
            QueryWorkload::sample(&g, 100, 2)
        );
    }

    #[test]
    fn zipf_sampling_is_skewed_deterministic_and_in_range() {
        let g = structured::grid(30, 30);
        let w = QueryWorkload::sample_zipf(&g, 512, 9, 1.5);
        assert_eq!(w.len(), 512);
        assert!(w.pairs().iter().all(|&(u, v)| u != v));
        assert!(w
            .pairs()
            .iter()
            .all(|&(u, v)| (u as usize) < g.num_vertices() && (v as usize) < g.num_vertices()));
        assert_eq!(w, QueryWorkload::sample_zipf(&g, 512, 9, 1.5));
        assert_ne!(w, QueryWorkload::sample_zipf(&g, 512, 10, 1.5));
        // Exponent 1.5 puts ≈38% of the mass on the head rank; the hottest
        // source must dominate far beyond the uniform expectation (≲3).
        let mut counts = std::collections::HashMap::new();
        for &(u, _) in w.pairs() {
            *counts.entry(u).or_insert(0u32) += 1;
        }
        let hottest = counts.values().max().copied().unwrap();
        assert!(hottest >= 64, "expected a hot head, got {hottest}/512");
    }

    #[test]
    fn connected_sampling_avoids_cross_component_pairs() {
        // Two components: a triangle and a 3-path.
        let mut b = GraphBuilder::from_edges([(0u32, 1), (1, 2), (2, 0), (3, 4), (4, 5)]);
        b.reserve_vertices(6);
        let g = b.build();
        let w = QueryWorkload::sample_connected(&g, 200, 3);
        assert_eq!(w.len(), 200);
        let comps = qbs_graph::components::connected_components(&g);
        assert!(w.pairs().iter().all(|&(u, v)| comps.connected(u, v)));
    }

    #[test]
    fn empty_and_singleton_graphs_produce_empty_workloads() {
        let empty = GraphBuilder::new().build();
        assert!(QueryWorkload::sample(&empty, 10, 0).is_empty());
        let single = structured::path(1);
        assert!(QueryWorkload::sample(&single, 10, 0).is_empty());
        assert!(QueryWorkload::sample_connected(&single, 10, 0).is_empty());
    }

    #[test]
    fn histogram_covers_all_pairs_and_matches_figure7_shape() {
        let g = figure4_graph();
        let w = QueryWorkload::sample_connected(&g, 300, 11);
        let h = w.distance_histogram(&g);
        assert_eq!(h.total(), 300);
        assert_eq!(h.unreachable, 0);
        // Figure 4 graph has diameter 5 among its connected part.
        assert!(h.counts.len() <= 7);
        assert!(h.mean().unwrap() > 1.0);
    }

    #[test]
    fn histogram_counts_unreachable_pairs() {
        let mut b = GraphBuilder::from_edges([(0u32, 1), (2, 3)]);
        b.reserve_vertices(4);
        let g = b.build();
        let w = QueryWorkload::sample(&g, 400, 5);
        let h = w.distance_histogram(&g);
        assert_eq!(h.total(), 400);
        assert!(h.unreachable > 0);
    }
}
