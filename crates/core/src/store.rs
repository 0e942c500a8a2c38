//! The storage-backend abstraction behind the online query path.
//!
//! Every read the sketching ([`crate::sketch`]) and guided searching
//! ([`crate::search`]) phases perform goes through the [`IndexStore`]
//! trait: landmark set and filter, path-label lookups, graph adjacency, and
//! the meta-graph APSP/Δ tables. Two backends implement it:
//!
//! * [`crate::QbsIndex`] — the owned, heap-materialised index (built in
//!   process or loaded via [`crate::QbsIndex::from_view`]);
//! * [`ViewStore`] — a zero-copy wrapper over a validated
//!   [`IndexView`], serving every lookup straight out of the flat index
//!   file buffer (heap or mmap, see [`crate::format::ViewBuf`]) without
//!   materialising a single per-vertex `Vec`.
//!
//! Because [`crate::query::query_on`], [`crate::search`] and the request
//! pipeline ([`crate::request::execute_on`]) are generic over
//! `S: IndexStore`, a cold shard process can map one immutable index file and answer its first
//! query without ever building the owned structures — the serving story of
//! disk-resident labelling systems (IS-LABEL et al.) applied to QbS.
//! Answers are **bit-identical** across backends; the differential tests in
//! `crates/core/tests/view_serving.rs` assert this on the golden fixture
//! and on proptest-generated graph families.
//!
//! # Lifetime and ownership rules
//!
//! An [`IndexStore`] is an immutable, `Sync` object: queries borrow it
//! shared and keep all mutable state in a caller-owned
//! [`crate::QueryWorkspace`]. [`ViewStore`] owns its [`IndexView`] (which
//! owns the buffer or the mapping), so the store is self-contained — drop
//! order is store → view → buffer. A [`crate::Qbs`] session owns its
//! store and shares it with its query workers, which it joins when it is
//! dropped, so no query can outlive the mapping.

use qbs_graph::view::NeighborAccess;
use qbs_graph::{Distance, VertexFilter, VertexId, INFINITE_DISTANCE};

use crate::format::IndexView;

/// Read-only access to every index component the online query path needs.
///
/// All methods take *validated* indices: vertex arguments must be
/// `< num_vertices()`, landmark columns `< num_landmarks()`, meta-edge
/// positions `< num_meta_edges()` — the public query entry points
/// ([`crate::query::query_on`] and friends) bounds-check the user-supplied
/// endpoints once and everything derived stays in range. Implementations
/// may panic on out-of-range arguments, exactly like slice indexing.
pub trait IndexStore: Sync {
    /// Number of vertices of the indexed graph.
    fn num_vertices(&self) -> usize;

    /// Number of landmarks `|R|`.
    fn num_landmarks(&self) -> usize;

    /// The landmark vertex id of column `idx`.
    fn landmark(&self, idx: usize) -> VertexId;

    /// Bitmap of the landmark vertices — the removal set of the sparsified
    /// graph `G⁻ = G[V \ R]` the guided search runs on.
    fn landmark_filter(&self) -> &VertexFilter;

    /// The landmark column of `v`, or `None` when `v` is not a landmark.
    fn landmark_column(&self, v: VertexId) -> Option<usize>;

    /// Whether `v` is a landmark.
    #[inline]
    fn is_landmark(&self, v: VertexId) -> bool {
        self.landmark_filter().contains(v)
    }

    /// The label distance of `(v, landmark_idx)`, or `None` when the pair
    /// has no entry.
    fn label_distance(&self, v: VertexId, landmark_idx: usize) -> Option<Distance>;

    /// Appends the raw label entries of `v` to `out` in ascending
    /// landmark-column order (does not clear `out`).
    fn fill_label_entries(&self, v: VertexId, out: &mut Vec<(usize, Distance)>);

    /// Calls `visit` for every neighbour of `v` in the **full** graph.
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, visit: F);

    /// `d_M(i, j)`: the meta-graph shortest-path distance between landmark
    /// columns.
    fn meta_distance(&self, i: usize, j: usize) -> Distance;

    /// Number of meta edges `|E_R|`.
    fn num_meta_edges(&self) -> usize;

    /// The `k`-th meta edge `(i, j, σ)` with `i < j`, in stored order.
    fn meta_edge(&self, k: usize) -> (usize, usize, Distance);

    /// Position of the meta edge between columns `i` and `j`, if present.
    fn meta_edge_index(&self, i: usize, j: usize) -> Option<usize> {
        let key = (i.min(j), i.max(j));
        (0..self.num_meta_edges()).find(|&k| {
            let (a, b, _) = self.meta_edge(k);
            (a, b) == key
        })
    }

    /// Calls `visit` for every edge of the precomputed Δ path graph of meta
    /// edge `k`.
    fn for_each_delta_edge<F: FnMut(VertexId, VertexId)>(&self, k: usize, visit: F);

    /// Fills `buf` with the *effective* label of `v`: its path label, or
    /// the synthetic `{(itself, 0)}` when `v` is a landmark (the paper's
    /// labels are only defined on `V \ R`).
    fn fill_effective_label(&self, v: VertexId, buf: &mut Vec<(usize, Distance)>) {
        buf.clear();
        if let Some(col) = self.landmark_column(v) {
            buf.push((col, 0));
        } else {
            self.fill_label_entries(v, buf);
        }
    }

    /// Calls `visit` for every meta edge lying on at least one shortest
    /// meta-path between columns `i` and `j` — the landmark interior of a
    /// sketch whose minimum is achieved by the pair `(i, j)`.
    fn for_each_shortest_meta_edge<F: FnMut((usize, usize, Distance))>(
        &self,
        i: usize,
        j: usize,
        mut visit: F,
    ) {
        let dij = self.meta_distance(i, j);
        if dij == INFINITE_DISTANCE || i == j {
            return;
        }
        for k in 0..self.num_meta_edges() {
            let (a, b, w) = self.meta_edge(k);
            let forward = self
                .meta_distance(i, a)
                .saturating_add(w)
                .saturating_add(self.meta_distance(b, j))
                == dij;
            let backward = self
                .meta_distance(i, b)
                .saturating_add(w)
                .saturating_add(self.meta_distance(a, j))
                == dij;
            if forward || backward {
                visit((a, b, w));
            }
        }
    }
}

/// A zero-copy [`IndexStore`] over a parsed [`IndexView`].
///
/// Construction builds exactly one derived structure: the landmark bitmap
/// (`|V|` *bits*, filled from the `|R|`-entry landmark section), which the
/// sparsified search needs as a [`VertexFilter`] and which the workspace
/// scratch filter copies on landmark-endpoint queries. Everything else —
/// labels, adjacency, APSP, Δ — is decoded on demand from the underlying
/// buffer; no per-vertex or per-label `Vec` is ever materialised.
#[derive(Debug)]
pub struct ViewStore {
    view: IndexView,
    landmark_filter: VertexFilter,
}

impl ViewStore {
    /// Wraps a parsed view for serving.
    pub fn new(view: IndexView) -> Self {
        let landmark_filter = VertexFilter::from_vertices(view.num_vertices(), view.landmarks());
        ViewStore {
            view,
            landmark_filter,
        }
    }

    /// The wrapped view.
    pub fn view(&self) -> &IndexView {
        &self.view
    }
}

impl IndexStore for ViewStore {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.view.num_vertices()
    }

    #[inline]
    fn num_landmarks(&self) -> usize {
        self.view.num_landmarks()
    }

    #[inline]
    fn landmark(&self, idx: usize) -> VertexId {
        self.view.landmark(idx)
    }

    #[inline]
    fn landmark_filter(&self) -> &VertexFilter {
        &self.landmark_filter
    }

    fn landmark_column(&self, v: VertexId) -> Option<usize> {
        if !self.landmark_filter.contains(v) {
            return None;
        }
        // |R| is tiny (≤ 100 in every experiment); a scan of the landmark
        // section beats materialising a |V|-sized column map.
        self.view.landmarks().position(|r| r == v)
    }

    #[inline]
    fn label_distance(&self, v: VertexId, landmark_idx: usize) -> Option<Distance> {
        self.view.label_distance(v, landmark_idx)
    }

    fn fill_label_entries(&self, v: VertexId, out: &mut Vec<(usize, Distance)>) {
        out.extend(self.view.label_entries(v));
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut visit: F) {
        for w in self.view.graph_neighbors(v) {
            visit(w);
        }
    }

    #[inline]
    fn meta_distance(&self, i: usize, j: usize) -> Distance {
        self.view.meta_distance(i, j)
    }

    #[inline]
    fn num_meta_edges(&self) -> usize {
        self.view.num_meta_edges()
    }

    #[inline]
    fn meta_edge(&self, k: usize) -> (usize, usize, Distance) {
        self.view.meta_edge(k)
    }

    fn for_each_delta_edge<F: FnMut(VertexId, VertexId)>(&self, k: usize, mut visit: F) {
        for (a, b) in self.view.delta_edges(k) {
            visit(a, b);
        }
    }
}

/// The sparsified graph `G[V \ removed]` of a store — the view the guided
/// bidirectional search traverses, with the landmark set (minus any
/// landmark query endpoint) deleted. Mirrors
/// [`qbs_graph::FilteredGraph`], but sources adjacency from the store so
/// the same search code runs over owned CSR arrays and raw index-file
/// bytes alike.
pub(crate) struct SparsifiedStore<'a, S: IndexStore> {
    store: &'a S,
    removed: &'a VertexFilter,
}

impl<'a, S: IndexStore> SparsifiedStore<'a, S> {
    pub(crate) fn new(store: &'a S, removed: &'a VertexFilter) -> Self {
        debug_assert_eq!(store.num_vertices(), removed.capacity());
        SparsifiedStore { store, removed }
    }
}

impl<S: IndexStore> NeighborAccess for SparsifiedStore<'_, S> {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.store.num_vertices()
    }

    #[inline]
    fn contains_vertex(&self, v: VertexId) -> bool {
        (v as usize) < self.store.num_vertices() && !self.removed.contains(v)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut visit: F) {
        if self.removed.contains(v) {
            return;
        }
        self.store.for_each_neighbor(v, |w| {
            if !self.removed.contains(w) {
                visit(w);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QbsConfig, QbsIndex};
    use qbs_graph::fixtures::figure4_graph;

    fn index() -> QbsIndex {
        QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
    }

    /// Every trait method agrees between the owned index and the view store
    /// wrapping its serialised bytes.
    #[test]
    fn view_store_agrees_with_owned_store_on_every_accessor() {
        let owned = index();
        let store = ViewStore::new(owned.as_view());

        assert_eq!(store.num_vertices(), owned.num_vertices());
        assert_eq!(store.num_landmarks(), owned.num_landmarks());
        assert_eq!(store.num_meta_edges(), owned.num_meta_edges());
        for idx in 0..owned.num_landmarks() {
            assert_eq!(store.landmark(idx), owned.landmark(idx));
        }
        assert_eq!(store.landmark_filter(), owned.landmark_filter());

        let mut a = Vec::new();
        let mut b = Vec::new();
        for v in 0..owned.num_vertices() as VertexId {
            assert_eq!(store.is_landmark(v), owned.is_landmark(v), "vertex {v}");
            assert_eq!(
                store.landmark_column(v),
                IndexStore::landmark_column(&owned, v),
                "column of {v}"
            );
            for idx in 0..owned.num_landmarks() {
                assert_eq!(
                    store.label_distance(v, idx),
                    owned.label_distance(v, idx),
                    "label ({v}, {idx})"
                );
            }
            a.clear();
            b.clear();
            store.fill_effective_label(v, &mut a);
            owned.fill_effective_label(v, &mut b);
            assert_eq!(a, b, "effective label of {v}");
            let mut na = Vec::new();
            let mut nb = Vec::new();
            store.for_each_neighbor(v, |w| na.push(w));
            IndexStore::for_each_neighbor(&owned, v, |w| nb.push(w));
            assert_eq!(na, nb, "neighbours of {v}");
        }

        for i in 0..owned.num_landmarks() {
            for j in 0..owned.num_landmarks() {
                assert_eq!(store.meta_distance(i, j), owned.meta_distance(i, j));
                assert_eq!(store.meta_edge_index(i, j), owned.meta_edge_index(i, j));
                let mut sa = Vec::new();
                let mut sb = Vec::new();
                store.for_each_shortest_meta_edge(i, j, |e| sa.push(e));
                owned.for_each_shortest_meta_edge(i, j, |e| sb.push(e));
                assert_eq!(sa, sb, "shortest meta edges of ({i},{j})");
            }
        }
        for k in 0..owned.num_meta_edges() {
            assert_eq!(store.meta_edge(k), owned.meta_edge(k));
            let mut da = Vec::new();
            let mut db = Vec::new();
            store.for_each_delta_edge(k, |x, y| da.push((x, y)));
            owned.for_each_delta_edge(k, |x, y| db.push((x, y)));
            assert_eq!(da, db, "delta edges of meta edge {k}");
        }
    }

    #[test]
    fn sparsified_store_hides_removed_vertices() {
        let owned = index();
        let store = ViewStore::new(owned.as_view());
        let sparse = SparsifiedStore::new(&store, store.landmark_filter());
        assert_eq!(sparse.vertex_count(), 15);
        assert!(!sparse.contains_vertex(1), "landmark 1 is removed");
        assert!(sparse.contains_vertex(6));
        assert!(!sparse.contains_vertex(99));
        // A removed (landmark) vertex contributes no adjacency at all.
        let mut seen = Vec::new();
        sparse.for_each_neighbor(1, |w| seen.push(w));
        assert!(seen.is_empty(), "{seen:?}");
        // A surviving vertex keeps exactly its non-landmark neighbours.
        for v in [6u32, 7, 11] {
            let mut got = Vec::new();
            sparse.for_each_neighbor(v, |w| got.push(w));
            let expected: Vec<VertexId> = figure4_graph()
                .neighbors(v)
                .iter()
                .copied()
                .filter(|w| ![1, 2, 3].contains(w))
                .collect();
            assert_eq!(got, expected, "sparsified neighbours of {v}");
        }
    }
}
