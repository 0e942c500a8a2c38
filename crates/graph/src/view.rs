//! Sparsified graph views.
//!
//! QbS performs its online guided search on the sparsified graph
//! `G⁻ = G[V \ R]` obtained by deleting the landmark vertices and every edge
//! incident to them (§4.3). The index stores `G⁻` as the non-landmark prefix
//! of each adjacency row; [`FilteredGraph`] is the same graph as a zero-copy
//! view over a [`Graph`] that skips removed vertices during traversal, the
//! independent `G⁻` the tests check the index against.

use crate::csr::Graph;
use crate::vertex::VertexId;

/// Abstraction over "something with adjacency lists" so that the traversal
/// primitives work identically on a full [`Graph`] and on a sparsified
/// [`FilteredGraph`] view.
pub trait NeighborAccess {
    /// Number of vertex slots (removed vertices still occupy a slot so that
    /// per-vertex arrays can be indexed by the original ids).
    fn vertex_count(&self) -> usize;

    /// Whether `v` is present in this view.
    fn contains_vertex(&self, v: VertexId) -> bool;

    /// Calls `visit` for every neighbour of `v` present in this view.
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, visit: F);
}

impl NeighborAccess for Graph {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn contains_vertex(&self, v: VertexId) -> bool {
        (v as usize) < self.num_vertices()
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut visit: F) {
        for &w in self.neighbors(v) {
            visit(w);
        }
    }
}

/// A compact bitset marking a set of removed (or selected) vertices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VertexFilter {
    bits: Vec<u64>,
    num_vertices: usize,
    num_set: usize,
}

impl VertexFilter {
    /// Creates an empty filter (nothing removed) for a graph with
    /// `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        VertexFilter {
            bits: vec![0; num_vertices.div_ceil(64)],
            num_vertices,
            num_set: 0,
        }
    }

    /// Creates a filter with the given vertices marked.
    pub fn from_vertices<I>(num_vertices: usize, vertices: I) -> Self
    where
        I: IntoIterator<Item = VertexId>,
    {
        let mut f = Self::new(num_vertices);
        for v in vertices {
            f.insert(v);
        }
        f
    }

    /// Marks `v`. Returns `true` if it was newly marked.
    pub fn insert(&mut self, v: VertexId) -> bool {
        assert!((v as usize) < self.num_vertices, "vertex {v} out of range");
        let (word, bit) = (v as usize / 64, v as usize % 64);
        let mask = 1u64 << bit;
        if self.bits[word] & mask == 0 {
            self.bits[word] |= mask;
            self.num_set += 1;
            true
        } else {
            false
        }
    }

    /// Unmarks `v`. Returns `true` if it was previously marked.
    pub fn remove(&mut self, v: VertexId) -> bool {
        if (v as usize) >= self.num_vertices {
            return false;
        }
        let (word, bit) = (v as usize / 64, v as usize % 64);
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            self.bits[word] &= !mask;
            self.num_set -= 1;
            true
        } else {
            false
        }
    }

    /// Makes `self` an exact copy of `other`, reusing the existing bit
    /// buffer when capacities allow (no allocation in the steady state of a
    /// query loop).
    pub fn copy_from(&mut self, other: &VertexFilter) {
        self.bits.clear();
        self.bits.extend_from_slice(&other.bits);
        self.num_vertices = other.num_vertices;
        self.num_set = other.num_set;
    }

    /// Whether `v` is marked.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let idx = v as usize;
        if idx >= self.num_vertices {
            return false;
        }
        self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of marked vertices.
    pub fn len(&self) -> usize {
        self.num_set
    }

    /// Whether no vertex is marked.
    pub fn is_empty(&self) -> bool {
        self.num_set == 0
    }

    /// Number of vertex slots covered by the filter.
    pub fn capacity(&self) -> usize {
        self.num_vertices
    }

    /// Iterator over marked vertices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices as VertexId).filter(move |&v| self.contains(v))
    }
}

/// A view of `graph` with the vertices in `removed` (and their incident
/// edges) deleted — the sparsified graph `G[V \ R]` of the paper.
#[derive(Clone, Copy, Debug)]
pub struct FilteredGraph<'a> {
    graph: &'a Graph,
    removed: &'a VertexFilter,
}

impl<'a> FilteredGraph<'a> {
    /// Creates a view of `graph` without the vertices marked in `removed`.
    ///
    /// # Panics
    ///
    /// Panics if the filter was sized for a different graph.
    pub fn new(graph: &'a Graph, removed: &'a VertexFilter) -> Self {
        assert_eq!(
            graph.num_vertices(),
            removed.capacity(),
            "filter capacity must match graph size"
        );
        FilteredGraph { graph, removed }
    }

    /// Number of remaining (non-removed) vertices.
    pub fn remaining_vertices(&self) -> usize {
        self.graph.num_vertices() - self.removed.len()
    }
}

impl NeighborAccess for FilteredGraph<'_> {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.graph.num_vertices()
    }

    #[inline]
    fn contains_vertex(&self, v: VertexId) -> bool {
        (v as usize) < self.graph.num_vertices() && !self.removed.contains(v)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut visit: F) {
        if self.removed.contains(v) {
            return;
        }
        for &w in self.graph.neighbors(v) {
            if !self.removed.contains(w) {
                visit(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn star_with_path() -> Graph {
        // Vertex 0 is a hub connected to 1..=4; additionally a path 1-2-3-4.
        GraphBuilder::from_edges([(0u32, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
            .build()
    }

    #[test]
    fn filter_insert_and_contains() {
        let mut f = VertexFilter::new(10);
        assert!(f.is_empty());
        assert!(f.insert(3));
        assert!(!f.insert(3));
        assert!(f.contains(3));
        assert!(!f.contains(4));
        assert!(!f.contains(99));
        assert_eq!(f.len(), 1);
        assert_eq!(f.capacity(), 10);
    }

    #[test]
    fn filter_iter_lists_marked_vertices_in_order() {
        let f = VertexFilter::from_vertices(100, [70, 3, 64]);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![3, 64, 70]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn filter_insert_rejects_out_of_range() {
        VertexFilter::new(4).insert(4);
    }

    #[test]
    fn filtered_graph_hides_removed_vertices() {
        let g = star_with_path();
        let removed = VertexFilter::from_vertices(g.num_vertices(), [0u32]);
        let view = FilteredGraph::new(&g, &removed);

        assert_eq!(view.remaining_vertices(), 4);
        assert!(!view.contains_vertex(0));
        assert!(view.contains_vertex(1));

        let mut n1 = Vec::new();
        view.for_each_neighbor(1, |v| n1.push(v));
        assert_eq!(n1, vec![2]);

        // Neighbours of a removed vertex are not visited at all.
        let mut n0 = Vec::new();
        view.for_each_neighbor(0, |v| n0.push(v));
        assert!(n0.is_empty());
    }

    #[test]
    fn graph_implements_neighbor_access() {
        let g = star_with_path();
        assert_eq!(NeighborAccess::vertex_count(&g), 5);
        let mut seen = Vec::new();
        g.for_each_neighbor(0, |v| seen.push(v));
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "filter capacity")]
    fn filtered_graph_rejects_mismatched_filter() {
        let g = star_with_path();
        let removed = VertexFilter::new(3);
        let _ = FilteredGraph::new(&g, &removed);
    }
}
