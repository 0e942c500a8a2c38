//! The index store: [`QbsIndex`], the one in-memory form of a QbS index.
//!
//! A built index and an opened index file are the same thing: a parsed
//! [`IndexView`] over a [`crate::format::ViewBuf`] — a heap buffer the
//! build laid out, a heap copy of a file, or a read-only mapping of one.
//! Every read the sketching ([`crate::sketch`]) and guided searching
//! ([`crate::search`]) phases perform goes through the accessors below,
//! straight from that buffer: landmark set and bitmap, label lookups, graph
//! adjacency, and the meta-graph APSP/Δ tables.
//!
//! The sparsified graph `G⁻ = G[V \ R]` the guided search runs on needs no
//! structure of its own: every adjacency row stores its non-landmark
//! neighbours first, so `v`'s row in `G⁻` is a prefix of its row in `G`
//! ([`QbsIndex::graph_rows`]). Construction derives two small structures:
//!
//! * the landmark bitmap (`|V|` *bits*), for [`QbsIndex::is_landmark`];
//! * the meta-graph tables ([`MetaGraph`]: meta edges, APSP and Δ), decoded
//!   once because sketching reads them on every query. They are
//!   `O(|R|² + |Δ|)` — kilobytes, independent of the graph size.
//!
//! This is how disk-resident labelling systems (IS-LABEL et al.) serve
//! labels: from their stored layout. A cold shard process maps one
//! immutable index file and answers its first query without building
//! anything per vertex.
//!
//! # Lifetime and ownership rules
//!
//! A [`QbsIndex`] is an immutable, `Sync` object: queries borrow it shared
//! and keep all mutable state in a caller-owned [`crate::QueryWorkspace`].
//! It owns its [`IndexView`] (which owns the buffer or the mapping), so the
//! index is self-contained. A [`crate::Qbs`] session owns its index and
//! shares it with its query workers, which it joins when it is dropped, so
//! no query can outlive the mapping.

use qbs_graph::{Distance, VertexFilter, VertexId};

use crate::format::{GraphRows, IndexView};
use crate::meta_graph::MetaGraph;
use crate::query::BuildTimings;
use crate::stats::IndexStats;

/// The Query-by-Sketch index, served from its file layout.
///
/// Vertex arguments of the accessors must be `< num_vertices()`, landmark
/// columns `< num_landmarks()`: the query door
/// ([`QbsIndex::execute_with`]) bounds-checks the user-supplied endpoints
/// once and everything derived stays in range. The accessors
/// panic on out-of-range arguments, exactly like slice indexing.
#[derive(Clone, Debug)]
pub struct QbsIndex {
    view: IndexView,
    landmark_filter: VertexFilter,
    meta: MetaGraph,
    pub(crate) timings: BuildTimings,
}

impl QbsIndex {
    /// Serves an index from a parsed view: builds the landmark bitmap and
    /// decodes the meta-graph tables, nothing per vertex. Build timings are
    /// not persisted, so they read as zero on an opened file. Fails with
    /// [`crate::QbsError::MetaDistanceTooLarge`] when a landmark distance
    /// is too long for the sketch's lanes.
    pub fn from_view(view: IndexView) -> crate::Result<Self> {
        let meta = MetaGraph::from_view(&view)?;
        let landmark_filter =
            VertexFilter::from_vertices(view.num_vertices(), meta.landmarks().iter().copied());
        Ok(QbsIndex {
            view,
            landmark_filter,
            meta,
            timings: BuildTimings::default(),
        })
    }

    /// The index-file view the index serves from.
    pub fn view(&self) -> &IndexView {
        &self.view
    }

    /// The index-file bytes: what [`crate::serialize::save_to_file`]
    /// writes.
    pub fn bytes(&self) -> &[u8] {
        self.view.buf().as_slice()
    }

    /// Gives the view back, dropping the derived structures.
    pub(crate) fn into_view(self) -> IndexView {
        self.view
    }

    /// Build-phase timing breakdown (zero on an opened file).
    pub fn timings(&self) -> BuildTimings {
        self.timings
    }

    /// Size and timing statistics (the per-dataset rows of Tables 2 and 3).
    pub fn stats(&self) -> IndexStats {
        IndexStats::from_index(self)
    }

    /// Number of vertices of the indexed graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.view.num_vertices()
    }

    /// Number of landmarks `|R|`.
    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.meta.num_landmarks()
    }

    /// The landmark set `R` in column order.
    pub fn landmarks(&self) -> &[VertexId] {
        self.meta.landmarks()
    }

    /// The landmark vertex id of column `idx`.
    #[inline]
    pub fn landmark(&self, idx: usize) -> VertexId {
        self.meta.landmarks()[idx]
    }

    /// Whether `v` is a landmark.
    #[inline]
    pub fn is_landmark(&self, v: VertexId) -> bool {
        self.landmark_filter.contains(v)
    }

    /// The landmark column of `v`, or `None` when `v` is not a landmark.
    pub fn landmark_column(&self, v: VertexId) -> Option<usize> {
        if !self.is_landmark(v) {
            return None;
        }
        // |R| is tiny (≤ 100 in every experiment); a scan of the landmark
        // list beats a |V|-sized column map.
        self.landmarks().iter().position(|&r| r == v)
    }

    /// The label distance of `(v, landmark_idx)`, or `None` when the pair
    /// has no entry.
    #[inline]
    pub fn label_distance(&self, v: VertexId, landmark_idx: usize) -> Option<Distance> {
        self.view.label_distance(v, landmark_idx)
    }

    /// The graph's adjacency rows, each its non-landmark neighbours (its
    /// row in `G⁻`), then its landmark neighbours. Take it once per query.
    #[inline]
    pub fn graph_rows(&self) -> GraphRows<'_> {
        self.view.graph_rows()
    }

    /// The neighbours of `v` in the **full** graph: its non-landmark
    /// neighbours ascending, then its landmark neighbours ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.view.graph_neighbors(v)
    }

    /// The meta-graph (with APSP and Δ).
    pub fn meta_graph(&self) -> &MetaGraph {
        &self.meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QbsConfig;
    use crate::serialize::{self, MapMode};
    use crate::sketch::Lane;
    use qbs_graph::fixtures::figure4_graph;
    use qbs_graph::traversal::bfs_distances;
    use qbs_graph::{FilteredGraph, INFINITE_DISTANCE};

    fn index() -> QbsIndex {
        QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
    }

    /// Every accessor agrees with the graph it was built from, and every
    /// label with a plain BFS (Definition 4.2: the distance to a landmark
    /// when one shortest path avoids the other landmarks), on the heap
    /// buffer of the build and on a mapping of the saved file.
    #[test]
    fn store_accessors_agree_with_the_graph_and_a_plain_bfs() {
        let graph = figure4_graph();
        let landmarks = [1, 2, 3];
        // Per landmark: its distances in G, and in G without the others.
        let bfs: Vec<(Vec<Distance>, Vec<Distance>)> = landmarks
            .iter()
            .map(|&r| {
                let others = VertexFilter::from_vertices(
                    graph.num_vertices(),
                    landmarks.iter().copied().filter(|&x| x != r),
                );
                let avoiding = bfs_distances(&FilteredGraph::new(&graph, &others), r);
                (bfs_distances(&graph, r), avoiding)
            })
            .collect();

        let built = index();
        let dir = std::env::temp_dir().join("qbs_store_accessor_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("fig4.qbs");
        serialize::save_to_file(&built, &path).expect("save");
        let mapped = serialize::open_from_file(&path, MapMode::Mmap).expect("map");

        for store in [&built, &mapped] {
            assert_eq!(store.num_vertices(), graph.num_vertices());
            assert_eq!(store.landmarks(), &landmarks[..]);
            assert_eq!(store.landmark(2), 3);
            let mut lane: Vec<i16> = Vec::new();
            for v in graph.vertices() {
                let column = landmarks.iter().position(|&r| r == v);
                assert_eq!(store.is_landmark(v), column.is_some(), "vertex {v}");
                assert_eq!(store.landmark_column(v), column, "column of {v}");
                let row = graph.neighbors(v);
                // The non-landmark neighbours (the row in G⁻), then the
                // landmark ones, each ascending.
                let (sparsified, landmark_half): (Vec<VertexId>, Vec<VertexId>) =
                    row.iter().partition(|w| !landmarks.contains(*w));
                let rows = store.graph_rows();
                assert_eq!(
                    rows.sparsified_neighbors(v).collect::<Vec<_>>(),
                    sparsified,
                    "G⁻ row of {v}"
                );
                assert_eq!(
                    rows.landmark_neighbors(v).collect::<Vec<_>>(),
                    landmark_half,
                    "landmark neighbours of {v}"
                );
                assert_eq!(
                    store.neighbors(v).collect::<Vec<_>>(),
                    [sparsified, landmark_half].concat(),
                    "neighbours of {v}"
                );
                assert_eq!(rows.degree(v), row.len(), "degree of {v}");
                // Every vertex id, so the first and last neighbour of each
                // half and every id between or beyond them are probed.
                for w in graph.vertices() {
                    assert_eq!(
                        rows.has_edge(v, w, store.is_landmark(w)),
                        row.contains(&w),
                        "edge ({v}, {w})"
                    );
                }
                assert!(!rows.has_edge(v, VertexId::MAX, false), "absent id");
                let expected: Vec<(usize, Distance)> = (0..landmarks.len())
                    .filter(|_| column.is_none())
                    .map(|i| (i, bfs[i].0[v as usize]))
                    .filter(|&(i, d)| d != INFINITE_DISTANCE && bfs[i].1[v as usize] == d)
                    .collect();
                for i in 0..landmarks.len() {
                    let slot = expected.iter().find(|&&(c, _)| c == i).map(|&(_, d)| d);
                    assert_eq!(store.label_distance(v, i), slot, "label ({v}, {i})");
                }
                crate::sketch::label_lane(store, v, &mut lane);
                let lane_entries: Vec<(usize, Distance)> = lane
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != i16::NONE)
                    .map(|(i, &d)| (i, d as Distance))
                    .collect();
                match column {
                    Some(col) => assert_eq!(lane_entries, vec![(col, 0)], "landmark {v}"),
                    None => assert_eq!(lane_entries, expected, "label lane of {v}"),
                }
                assert_eq!(lane.len(), crate::sketch::lane_width(landmarks.len()));
            }
            // Vertex 0 of figure 4 is isolated.
            assert_eq!(store.graph_rows().degree(0), 0);
            assert!(!store.graph_rows().has_edge(0, 1, true));
            let meta = store.meta_graph();
            assert_eq!(meta.edges(), &[(0, 1, 1), (0, 2, 2), (1, 2, 1)]);
            assert_eq!(meta.distance(0, 2), 2);
            assert_eq!(meta.delta_edges(1), &[(1, 4), (3, 4)]);
        }
        assert_eq!(built.bytes(), mapped.bytes());
    }
}
