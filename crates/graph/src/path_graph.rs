//! The answer type of a shortest-path-graph query.
//!
//! A [`PathGraph`] is the subgraph `G_uv` of Definition 2.2: its edge set is
//! the union of the edges of *every* shortest path between the two query
//! vertices, and its vertex set is the union of their vertices. The type is
//! shared by QbS and all baselines so that answers can be compared
//! structurally in tests and experiments.

use crate::vertex::{Distance, VertexId, INFINITE_DISTANCE};

/// A shortest path graph `G_uv`: the exact union of all shortest paths
/// between a pair of query vertices.
///
/// Edges are stored in a canonical form — `(min, max)` endpoint order, sorted
/// and deduplicated — so two `PathGraph` values compare equal iff they
/// describe the same subgraph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathGraph {
    source: VertexId,
    target: VertexId,
    distance: Distance,
    edges: Vec<(VertexId, VertexId)>,
}

crate::impl_to_json!(PathGraph: source, target, distance, edges);

impl PathGraph {
    /// Creates the answer for an unreachable pair (empty edge set, infinite
    /// distance).
    pub fn unreachable(source: VertexId, target: VertexId) -> Self {
        PathGraph {
            source,
            target,
            distance: INFINITE_DISTANCE,
            edges: Vec::new(),
        }
    }

    /// Creates the trivial answer for a query with identical endpoints.
    pub fn trivial(v: VertexId) -> Self {
        PathGraph {
            source: v,
            target: v,
            distance: 0,
            edges: Vec::new(),
        }
    }

    /// Creates a path graph from a raw edge list.
    ///
    /// Edges are canonicalised (unordered endpoints, deduplicated);
    /// self-loops are dropped. The raw list is collected through `map`
    /// alone, which keeps the source's size hint, so an exact-size source
    /// (a slice, a `Vec`) lands in one allocation of the raw list's length.
    /// Self-loops are then removed in place, and `shrink_to_fit` trims the
    /// canonical list to its size.
    pub fn from_edges<I>(source: VertexId, target: VertexId, distance: Distance, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut edges: Vec<(VertexId, VertexId)> = edges
            .into_iter()
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        edges.retain(|&(a, b)| a != b);
        edges.sort_unstable();
        edges.dedup();
        // Answers outlive the query (replies, the answer cache): hold them at
        // their exact size, not at the growth capacity of the raw list.
        edges.shrink_to_fit();
        PathGraph {
            source,
            target,
            distance,
            edges,
        }
    }

    /// The query source vertex `u`.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The query target vertex `v`.
    pub fn target(&self) -> VertexId {
        self.target
    }

    /// The shortest-path distance `d_G(u, v)` ([`INFINITE_DISTANCE`] when
    /// the endpoints are disconnected).
    pub fn distance(&self) -> Distance {
        self.distance
    }

    /// Whether the endpoints are connected at all.
    pub fn is_reachable(&self) -> bool {
        self.distance != INFINITE_DISTANCE
    }

    /// The canonical sorted edge list.
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Number of edges in the answer subgraph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The vertex set `V(G_uv)` in sorted order. For a non-trivial reachable
    /// query this is every endpoint of every answer edge; for a trivial
    /// (`u == v`) or unreachable query it contains only the endpoints.
    pub fn vertices(&self) -> Vec<VertexId> {
        if self.edges.is_empty() {
            let mut v = vec![self.source, self.target];
            v.sort_unstable();
            v.dedup();
            return v;
        }
        let mut vertices: Vec<VertexId> = self.edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        vertices.sort_unstable();
        vertices.dedup();
        vertices
    }

    /// Number of distinct vertices in the answer subgraph.
    pub fn num_vertices(&self) -> usize {
        self.vertices().len()
    }

    /// Whether the undirected edge `{a, b}` is part of the answer.
    pub fn contains_edge(&self, a: VertexId, b: VertexId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.edges.binary_search(&key).is_ok()
    }

    /// Whether `v` lies on at least one shortest path of the answer.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        if self.edges.is_empty() {
            return v == self.source || v == self.target;
        }
        self.edges.iter().any(|&(a, b)| a == v || b == v)
    }

    /// Merges another partial answer into this one (used by QbS to combine
    /// `G⁻_uv` and `G^L_uv` per Eq. 5, and by PPL to combine recursive
    /// sub-answers). The endpoints and distance of `self` are kept.
    pub fn union_with(&mut self, other: &PathGraph) {
        if other.edges.is_empty() {
            return;
        }
        self.edges.extend_from_slice(&other.edges);
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Adds a single edge, keeping the canonical representation.
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId) {
        if a == b {
            return;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Err(pos) = self.edges.binary_search(&key) {
            self.edges.insert(pos, key);
        }
    }

    /// Returns the answer with source and target swapped (the SPG itself is
    /// symmetric, so only the metadata changes).
    pub fn reversed(&self) -> PathGraph {
        PathGraph {
            source: self.target,
            target: self.source,
            distance: self.distance,
            edges: self.edges.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalises_edges() {
        let a = PathGraph::from_edges(0, 3, 2, [(3u32, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(a.edges(), &[(0, 1), (1, 3)]);
        assert_eq!(a.num_edges(), 2);
        assert!(a.contains_edge(1, 0));
        assert!(a.contains_edge(3, 1));
        assert!(!a.contains_edge(0, 3));
    }

    #[test]
    fn equality_ignores_insertion_order_and_direction() {
        let a = PathGraph::from_edges(0, 2, 2, [(0u32, 1), (1, 2)]);
        let b = PathGraph::from_edges(0, 2, 2, [(2u32, 1), (1, 0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn vertices_cover_all_edge_endpoints() {
        let a = PathGraph::from_edges(0, 3, 2, [(0u32, 1), (1, 3), (0, 2), (2, 3)]);
        assert_eq!(a.vertices(), vec![0, 1, 2, 3]);
        assert_eq!(a.num_vertices(), 4);
        assert!(a.contains_vertex(2));
        assert!(!a.contains_vertex(9));
    }

    #[test]
    fn unreachable_and_trivial_answers() {
        let u = PathGraph::unreachable(4, 7);
        assert!(!u.is_reachable());
        assert_eq!(u.num_edges(), 0);
        assert_eq!(u.vertices(), vec![4, 7]);

        let t = PathGraph::trivial(5);
        assert!(t.is_reachable());
        assert_eq!(t.distance(), 0);
        assert_eq!(t.vertices(), vec![5]);
        assert!(t.contains_vertex(5));
        assert!(!t.contains_vertex(4));
    }

    #[test]
    fn union_merges_edge_sets() {
        let mut a = PathGraph::from_edges(0, 3, 3, [(0u32, 1), (1, 3)]);
        let b = PathGraph::from_edges(0, 3, 3, [(0u32, 2), (2, 3), (1, 3)]);
        a.union_with(&b);
        assert_eq!(a.edges(), &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(a.source(), 0);
        assert_eq!(a.distance(), 3);
    }

    #[test]
    fn insert_edge_keeps_sorted_dedup_invariant() {
        let mut a = PathGraph::from_edges(0, 2, 2, [(0u32, 1)]);
        a.insert_edge(2, 1);
        a.insert_edge(1, 2);
        a.insert_edge(1, 1);
        assert_eq!(a.edges(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn reversed_swaps_endpoints_only() {
        let a = PathGraph::from_edges(0, 2, 2, [(0u32, 1), (1, 2)]);
        let r = a.reversed();
        assert_eq!(r.source(), 2);
        assert_eq!(r.target(), 0);
        assert_eq!(r.edges(), a.edges());
    }
}
