//! Immutable compressed-sparse-row (CSR) graph representation.
//!
//! The CSR layout stores, for every vertex `v`, a contiguous slice of its
//! neighbours inside one shared array. This gives O(1) access to the
//! adjacency list, excellent cache locality during BFS (the dominant
//! operation in both the QbS labelling phase and its guided search), and a
//! memory footprint of `4·(|V|+1) + 4·2·|E|` bytes — the "each edge appearing
//! in the adjacency lists and being represented by 8 bytes" accounting that
//! the paper uses for the `|G|` column of Table 1.

use crate::vertex::{Distance, VertexId};

/// An immutable undirected, unweighted graph in CSR form.
///
/// Vertices are the dense range `0..num_vertices()`. Each undirected edge
/// `{u, v}` is stored twice, once in the adjacency list of `u` and once in
/// the adjacency list of `v`. Adjacency lists are sorted in increasing
/// vertex order, which makes membership tests logarithmic and iteration
/// deterministic.
///
/// Construct a `Graph` through [`crate::GraphBuilder`]; the raw constructor
/// [`Graph::from_csr_parts`] is exposed for deserialisation and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` is the slice of `neighbors` for vertex `v`.
    offsets: Vec<u64>,
    /// Concatenated, per-vertex sorted adjacency lists.
    neighbors: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotonically increasing, do not start
    /// at zero, do not end at `neighbors.len()`, or if any neighbour id is
    /// out of range. These conditions are programming errors rather than
    /// recoverable failures, so they are asserted instead of returned.
    pub fn from_csr_parts(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least one entry"
        );
        assert_eq!(offsets[0], 0, "offsets must start at zero");
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            neighbors.len(),
            "offsets must end at neighbors.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotonically increasing"
        );
        let n = (offsets.len() - 1) as u64;
        assert!(
            neighbors.iter().all(|&v| (v as u64) < n),
            "neighbour id out of range"
        );
        Graph { offsets, neighbors }
    }

    /// Number of vertices, including isolated ones.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *undirected* edges (each `{u, v}` counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of directed arcs stored (twice [`Graph::num_edges`]).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Returns `true` when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// The sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over every undirected edge exactly once, as `(u, v)` with
    /// `u <= v` ordering guaranteed by construction (`u < v` since self-loops
    /// are removed by the builder).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2|E| / |V|` (0.0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// The `k` vertices of highest degree, ties broken by smaller id first.
    ///
    /// This is the landmark selection rule used by QbS (§6.1: "we choose
    /// vertices with the largest degrees as landmarks").
    pub fn top_k_by_degree(&self, k: usize) -> Vec<VertexId> {
        let mut order: Vec<VertexId> = (0..self.num_vertices() as VertexId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(self.degree(v)), v));
        order.truncate(k);
        order
    }

    /// Estimated in-memory size of the adjacency structure, in bytes.
    ///
    /// Matches the accounting of Table 1 in the paper: every directed arc
    /// costs 8 bytes (4-byte target id plus its share of the offset array).
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
    }

    /// The raw CSR offset array (`offsets[v]..offsets[v+1]` indexes the
    /// neighbour array). Exposed for flat binary serialisation.
    #[inline]
    pub fn csr_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw concatenated neighbour array. Exposed for flat binary
    /// serialisation.
    #[inline]
    pub fn csr_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Eccentricity-bounded check that a distance value could be valid.
    ///
    /// A shortest-path distance in a connected graph never exceeds
    /// `|V| - 1`; helpers use this to sanity-check distances produced by
    /// composed searches.
    #[inline]
    pub fn is_plausible_distance(&self, d: Distance) -> bool {
        (d as usize) < self.num_vertices().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 2-0 triangle, tail 2-3.
        GraphBuilder::from_edges([(0u32, 1), (1, 2), (2, 0), (2, 3)]).build()
    }

    #[test]
    fn counts_vertices_edges_and_arcs() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert!(!g.is_empty());
    }

    #[test]
    fn neighbors_are_sorted_and_degree_consistent() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn has_edge_checks_both_directions() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_statistics() {
        let g = triangle_plus_tail();
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_by_degree_breaks_ties_by_id() {
        let g = triangle_plus_tail();
        assert_eq!(g.top_k_by_degree(2), vec![2, 0]);
        assert_eq!(g.top_k_by_degree(10).len(), 4);
    }

    #[test]
    fn size_bytes_counts_offsets_and_arcs() {
        let g = triangle_plus_tail();
        assert_eq!(g.size_bytes(), 5 * 8 + 8 * 4);
    }

    #[test]
    #[should_panic(expected = "offsets must start at zero")]
    fn from_csr_parts_rejects_bad_offsets() {
        let _ = Graph::from_csr_parts(vec![1, 2], vec![0]);
    }

    #[test]
    #[should_panic(expected = "neighbour id out of range")]
    fn from_csr_parts_rejects_out_of_range_neighbor() {
        let _ = Graph::from_csr_parts(vec![0, 1], vec![5]);
    }

    #[test]
    fn empty_graph_defaults() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }
}
