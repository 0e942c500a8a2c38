//! Landmark selection strategies.
//!
//! QbS uses a small landmark set `R` (|R| = 20 by default) and the paper
//! selects the vertices of largest degree (§6.1), for two reasons it spells
//! out: removing high-degree vertices sparsifies the graph the most, and
//! distances through high-degree landmarks approximate true distances well.
//! The alternative strategies here exist for the ablation experiments and
//! for the "study landmark selection strategies" future work the paper
//! names in §8.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use qbs_graph::traversal::bfs_distances;
use qbs_graph::{Graph, VertexId, INFINITE_DISTANCE};

/// How to pick the landmark set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LandmarkStrategy {
    /// The `count` vertices of highest degree — the paper's default.
    HighestDegree {
        /// Number of landmarks, `|R|`.
        count: usize,
    },
    /// `count` vertices chosen uniformly at random (ablation baseline).
    Random {
        /// Number of landmarks, `|R|`.
        count: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Farthest-first traversal seeded at the highest-degree vertex: each
    /// subsequent landmark maximises its BFS distance to the landmarks
    /// chosen so far (ties broken by higher degree). Spreads the landmarks
    /// over the graph instead of clustering them in the core — one of the
    /// "landmark selection strategies" the paper defers to future work (§8).
    DegreeSpread {
        /// Number of landmarks, `|R|`.
        count: usize,
    },
    /// An explicit landmark set (used by tests that mirror the paper's
    /// worked example, where `R = {1, 2, 3}`).
    Explicit(Vec<VertexId>),
}

impl Default for LandmarkStrategy {
    /// The paper's default: the 20 highest-degree vertices.
    fn default() -> Self {
        LandmarkStrategy::HighestDegree { count: 20 }
    }
}

impl LandmarkStrategy {
    /// Number of landmarks the strategy will produce on a graph with at
    /// least that many vertices.
    pub fn requested_count(&self) -> usize {
        match self {
            LandmarkStrategy::HighestDegree { count }
            | LandmarkStrategy::Random { count, .. }
            | LandmarkStrategy::DegreeSpread { count } => *count,
            LandmarkStrategy::Explicit(set) => set.len(),
        }
    }

    /// Selects the landmark set on `graph`.
    ///
    /// The returned vector is deduplicated, restricted to existing vertices
    /// and never larger than `|V|`; its order is deterministic.
    pub fn select(&self, graph: &Graph) -> Vec<VertexId> {
        let n = graph.num_vertices();
        let mut landmarks = match self {
            LandmarkStrategy::HighestDegree { count } => graph.top_k_by_degree((*count).min(n)),
            LandmarkStrategy::Random { count, seed } => {
                let mut all: Vec<VertexId> = (0..n as VertexId).collect();
                let mut rng = rand::rngs::SmallRng::seed_from_u64(*seed);
                all.shuffle(&mut rng);
                all.truncate((*count).min(n));
                all
            }
            LandmarkStrategy::DegreeSpread { count } => degree_spread(graph, (*count).min(n)),
            LandmarkStrategy::Explicit(set) => {
                set.iter().copied().filter(|&v| (v as usize) < n).collect()
            }
        };
        // Deterministic canonical form: dedup while keeping first occurrence.
        let mut seen = std::collections::HashSet::with_capacity(landmarks.len());
        landmarks.retain(|&v| seen.insert(v));
        landmarks
    }
}

/// Farthest-first traversal: start at the highest-degree vertex, then
/// repeatedly add the vertex maximising the distance to the current landmark
/// set (degree breaks ties, unreachable vertices are preferred last only
/// when everything reachable is already a landmark).
fn degree_spread(graph: &Graph, count: usize) -> Vec<VertexId> {
    if count == 0 || graph.is_empty() {
        return Vec::new();
    }
    let first = graph.top_k_by_degree(1)[0];
    let mut landmarks = vec![first];
    // min_dist[v] = distance from v to the nearest chosen landmark.
    let mut min_dist = bfs_distances(graph, first);
    while landmarks.len() < count {
        let next = graph
            .vertices()
            .filter(|v| !landmarks.contains(v))
            .max_by_key(|&v| {
                let d = min_dist[v as usize];
                // Vertices in components with no landmark yet rank highest so
                // every component is covered early; otherwise farther is
                // better, then higher degree, then smaller id.
                let reach_key = if d == INFINITE_DISTANCE {
                    u64::from(u32::MAX)
                } else {
                    d as u64
                };
                (reach_key, graph.degree(v), std::cmp::Reverse(v))
            });
        let Some(next) = next else { break };
        landmarks.push(next);
        let dist = bfs_distances(graph, next);
        for (v, &d) in dist.iter().enumerate() {
            if d < min_dist[v] {
                min_dist[v] = d;
            }
        }
    }
    landmarks
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_graph::fixtures::figure4_graph;
    use qbs_graph::GraphBuilder;

    #[test]
    fn default_is_20_highest_degree() {
        assert_eq!(
            LandmarkStrategy::default(),
            LandmarkStrategy::HighestDegree { count: 20 }
        );
        assert_eq!(LandmarkStrategy::default().requested_count(), 20);
    }

    #[test]
    fn highest_degree_picks_hubs() {
        let g = figure4_graph();
        let lm = LandmarkStrategy::HighestDegree { count: 3 }.select(&g);
        assert_eq!(lm.len(), 3);
        // Vertices 1, 2, 3 all have degree 4, the maximum in the graph.
        let mut sorted = lm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn count_is_clamped_to_vertex_count() {
        let g = GraphBuilder::from_edges([(0u32, 1), (1, 2)]).build();
        let lm = LandmarkStrategy::HighestDegree { count: 50 }.select(&g);
        assert_eq!(lm.len(), 3);
        let lm = LandmarkStrategy::Random { count: 50, seed: 1 }.select(&g);
        assert_eq!(lm.len(), 3);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = figure4_graph();
        let a = LandmarkStrategy::Random { count: 5, seed: 3 }.select(&g);
        let b = LandmarkStrategy::Random { count: 5, seed: 3 }.select(&g);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let c = LandmarkStrategy::Random { count: 5, seed: 4 }.select(&g);
        assert_ne!(a, c);
    }

    #[test]
    fn degree_spread_starts_at_the_hub_and_spreads_out() {
        let g = figure4_graph();
        let lm = LandmarkStrategy::DegreeSpread { count: 3 }.select(&g);
        assert_eq!(lm.len(), 3);
        // Starts at one of the degree-4 hubs (1, 2 or 3 — smallest id wins).
        assert_eq!(lm[0], 1);
        // Later picks are far from the first (the isolated vertex 0 and the
        // periphery are the farthest points).
        assert!(
            lm[1] != 2 || lm[2] != 3,
            "spread selection should not just take the hubs: {lm:?}"
        );
        // Deterministic.
        assert_eq!(lm, LandmarkStrategy::DegreeSpread { count: 3 }.select(&g));
        assert_eq!(
            LandmarkStrategy::DegreeSpread { count: 3 }.requested_count(),
            3
        );
    }

    #[test]
    fn degree_spread_covers_all_components_eventually() {
        // Two components; the second must receive a landmark once the first
        // is covered.
        let g = GraphBuilder::from_edges([(0u32, 1), (1, 2), (3, 4)]).build();
        let lm = LandmarkStrategy::DegreeSpread { count: 2 }.select(&g);
        assert_eq!(lm.len(), 2);
        let comps = qbs_graph::components::connected_components(&g);
        assert_ne!(comps.labels[lm[0] as usize], comps.labels[lm[1] as usize]);
    }

    #[test]
    fn degree_spread_handles_degenerate_inputs() {
        let empty = GraphBuilder::new().build();
        assert!(LandmarkStrategy::DegreeSpread { count: 5 }
            .select(&empty)
            .is_empty());
        let single = GraphBuilder::with_capacity(1, 0).build();
        assert_eq!(
            LandmarkStrategy::DegreeSpread { count: 5 }.select(&single),
            vec![0]
        );
    }

    #[test]
    fn explicit_filters_invalid_and_duplicate_vertices() {
        let g = figure4_graph();
        let lm = LandmarkStrategy::Explicit(vec![1, 2, 2, 99]).select(&g);
        assert_eq!(lm, vec![1, 2]);
        assert_eq!(
            LandmarkStrategy::Explicit(vec![1, 2, 3]).requested_count(),
            3
        );
    }
}
