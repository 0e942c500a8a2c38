//! The QbS labelling scheme (Definition 4.2) and its construction
//! (Algorithm 2).
//!
//! For a landmark set `R`, one BFS per landmark builds simultaneously:
//!
//! * the **path labelling** `L`: for every non-landmark vertex `u`, the
//!   entry `(r, d_G(u, r))` is kept iff at least one shortest path between
//!   `u` and `r` contains no other landmark;
//! * the **meta-graph** edge set: `(r, r')` with weight `d_G(r, r')` iff at
//!   least one shortest path between them contains no other landmark.
//!
//! The BFS follows Algorithm 2 exactly: two per-level queues are kept — `QL`
//! for vertices whose discovery path avoids other landmarks (these receive
//! labels and keep expanding) and `QN` for vertices first reached through
//! another landmark (these are only traversed, never labelled). Processing
//! `QL` before `QN` at every level guarantees that a vertex reachable both
//! ways is classified as labelled, which is what Definition 4.2 requires.
//!
//! The labelling is built in the index file's own layout ([`crate::format`]):
//! a dense row-major `|V| × |R|` slot matrix, one byte per slot while every
//! distance fits and two bytes once one does not. The index build lays it
//! out straight into the file buffer it is assembling, so no second copy
//! of the labels ever exists.

use qbs_graph::{Distance, Graph, VertexId};

use crate::format::slot_distance;

/// Sentinel meaning "no label entry for this (vertex, landmark) pair" in a
/// [`LandmarkBfs`] column.
pub const NO_LABEL: u16 = u16::MAX;

/// Dense per-vertex path labelling: row-major `[vertex][landmark]` slots of
/// one little-endian byte while every distance is at most 254, widened to
/// two bytes the first time a longer one is installed; all-ones means "no
/// entry". The matrix is the tail of its buffer, which may begin with
/// other bytes (the head of the index file being built).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathLabelling {
    num_vertices: usize,
    num_landmarks: usize,
    /// Bytes per slot: 1 or 2.
    width: usize,
    /// `buf[start..]` holds the slots.
    buf: Vec<u8>,
    start: usize,
}

impl PathLabelling {
    /// Creates an empty labelling (all entries absent) whose slots follow
    /// the bytes of `buf`.
    pub(crate) fn after(mut buf: Vec<u8>, num_vertices: usize, num_landmarks: usize) -> Self {
        let start = buf.len();
        buf.resize(start + num_vertices * num_landmarks, u8::MAX);
        PathLabelling {
            num_vertices,
            num_landmarks,
            width: 1,
            buf,
            start,
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of landmark columns.
    pub fn num_landmarks(&self) -> usize {
        self.num_landmarks
    }

    /// Bytes per slot: 1, or 2 once some distance exceeded 254.
    pub fn slot_width(&self) -> usize {
        self.width
    }

    /// The label entry of `vertex` for landmark column `landmark_idx`.
    #[inline]
    pub fn get(&self, vertex: VertexId, landmark_idx: usize) -> Option<Distance> {
        let pos = self.start + (vertex as usize * self.num_landmarks + landmark_idx) * self.width;
        slot_distance(&self.buf[pos..pos + self.width])
    }

    /// Iterator over the label entries `(landmark_idx, distance)` of a vertex.
    pub fn entries(&self, vertex: VertexId) -> impl Iterator<Item = (usize, Distance)> + '_ {
        (0..self.num_landmarks).filter_map(move |i| self.get(vertex, i).map(|d| (i, d)))
    }

    /// Installs one landmark column produced by [`landmark_bfs`].
    pub(crate) fn install_column(&mut self, landmark_idx: usize, column: &[u16]) {
        debug_assert_eq!(column.len(), self.num_vertices);
        for (v, &d) in column.iter().enumerate() {
            if d == NO_LABEL {
                continue;
            }
            if self.width == 1 && d >= u16::from(u8::MAX) {
                self.widen();
            }
            let slot = v * self.num_landmarks + landmark_idx;
            if self.width == 1 {
                self.buf[self.start + slot] = d as u8;
            } else {
                let pos = self.start + 2 * slot;
                self.buf[pos..pos + 2].copy_from_slice(&d.to_le_bytes());
            }
        }
    }

    /// Re-encodes every one-byte slot as two bytes, in place from the back
    /// (slot `k` moves to byte `2k`, never onto a slot still to be read).
    fn widen(&mut self) {
        let slots = self.num_vertices * self.num_landmarks;
        self.buf.resize(self.start + 2 * slots, 0);
        let matrix = &mut self.buf[self.start..];
        for k in (0..slots).rev() {
            let d = match matrix[k] {
                u8::MAX => NO_LABEL,
                d => u16::from(d),
            };
            matrix[2 * k..2 * k + 2].copy_from_slice(&d.to_le_bytes());
        }
        self.width = 2;
    }

    /// The whole buffer, the slots last.
    pub(crate) fn into_buffer(self) -> Vec<u8> {
        self.buf
    }
}

/// The product of Algorithm 2: the labelling plus the raw meta-graph edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabellingScheme {
    /// The landmark set `R`, in column order.
    pub landmarks: Vec<VertexId>,
    /// The path labelling `L`.
    pub labelling: PathLabelling,
    /// Meta-graph edges `(i, j, σ)` over landmark *indices*, deduplicated and
    /// stored with `i < j`.
    pub meta_edges: Vec<(usize, usize, Distance)>,
}

/// The outcome of the BFS rooted at one landmark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LandmarkBfs {
    /// Column of labelled distances (index = vertex id, [`NO_LABEL`] holes).
    pub column: Vec<u16>,
    /// Meta edges `(other_landmark_idx, σ)` discovered from this root.
    pub meta_edges: Vec<(usize, Distance)>,
}

/// Runs the two-queue BFS of Algorithm 2 from the landmark with column index
/// `root_idx`.
///
/// `landmark_column[v]` must map every vertex to its landmark column index,
/// or `u32::MAX` for non-landmarks.
pub fn landmark_bfs(
    graph: &Graph,
    landmarks: &[VertexId],
    landmark_column: &[u32],
    root_idx: usize,
) -> LandmarkBfs {
    let n = graph.num_vertices();
    let root = landmarks[root_idx];
    let mut column = vec![NO_LABEL; n];
    let mut meta_edges = Vec::new();
    let mut visited = vec![false; n];

    // Current-level queues: labelled (QL) and non-labelled (QN).
    let mut ql: Vec<VertexId> = vec![root];
    let mut qn: Vec<VertexId> = Vec::new();
    visited[root as usize] = true;

    let mut level: Distance = 0;
    while !ql.is_empty() || !qn.is_empty() {
        let mut next_ql: Vec<VertexId> = Vec::new();
        let mut next_qn: Vec<VertexId> = Vec::new();
        let next_depth = level + 1;

        // Labelled queue first (Algorithm 2, lines 8-17): its discoveries
        // reach the new vertex along a path with no other landmark.
        for &u in &ql {
            for &v in graph.neighbors(u) {
                if visited[v as usize] {
                    continue;
                }
                visited[v as usize] = true;
                let v_col = landmark_column[v as usize];
                if v_col != u32::MAX {
                    // A landmark: record a meta edge, do not label.
                    meta_edges.push((v_col as usize, next_depth));
                    next_qn.push(v);
                } else {
                    column[v as usize] = saturate(next_depth);
                    next_ql.push(v);
                }
            }
        }
        // Non-labelled queue second (lines 18-21): discoveries only extend
        // the traversal, they are never labelled.
        for &u in &qn {
            for &v in graph.neighbors(u) {
                if visited[v as usize] {
                    continue;
                }
                visited[v as usize] = true;
                next_qn.push(v);
            }
        }

        ql = next_ql;
        qn = next_qn;
        level = next_depth;
    }

    LandmarkBfs { column, meta_edges }
}

/// Builds the complete labelling scheme, one landmark BFS at a time on the
/// calling thread, installing each column as its BFS finishes. Lemma 5.2
/// would let the BFSs run on separate threads (the paper's QbS-P), but on
/// two cores that measured no faster, so there is one builder.
pub fn build_sequential(graph: &Graph, landmarks: &[VertexId]) -> LabellingScheme {
    build_after(Vec::new(), graph, landmarks)
}

/// [`build_sequential`] with the label slots appended to `buf`.
pub(crate) fn build_after(buf: Vec<u8>, graph: &Graph, landmarks: &[VertexId]) -> LabellingScheme {
    let landmark_column = landmark_column_map(graph, landmarks);
    let mut labelling = PathLabelling::after(buf, graph.num_vertices(), landmarks.len());
    let mut meta: std::collections::BTreeMap<(usize, usize), Distance> =
        std::collections::BTreeMap::new();
    for i in 0..landmarks.len() {
        let bfs = landmark_bfs(graph, landmarks, &landmark_column, i);
        labelling.install_column(i, &bfs.column);
        for (j, sigma) in bfs.meta_edges {
            let key = (i.min(j), i.max(j));
            let entry = meta.entry(key).or_insert(sigma);
            debug_assert_eq!(*entry, sigma, "meta edge weight must agree from both roots");
            *entry = (*entry).min(sigma);
        }
    }
    LabellingScheme {
        landmarks: landmarks.to_vec(),
        labelling,
        meta_edges: meta.into_iter().map(|((i, j), s)| (i, j, s)).collect(),
    }
}

/// Maps every vertex to its landmark column index (`u32::MAX` for
/// non-landmarks).
pub(crate) fn landmark_column_map(graph: &Graph, landmarks: &[VertexId]) -> Vec<u32> {
    let mut map = vec![u32::MAX; graph.num_vertices()];
    for (i, &r) in landmarks.iter().enumerate() {
        map[r as usize] = i as u32;
    }
    map
}

fn saturate(d: Distance) -> u16 {
    if d >= NO_LABEL as Distance {
        NO_LABEL - 1
    } else {
        d as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_graph::fixtures::{figure4_graph, figure4_landmarks};
    use qbs_graph::GraphBuilder;

    fn figure4_scheme() -> LabellingScheme {
        build_sequential(&figure4_graph(), &figure4_landmarks())
    }

    #[test]
    fn labels_match_figure_4c_exactly() {
        let scheme = figure4_scheme();
        let l = &scheme.labelling;
        // Expected path labelling of Figure 4(c): (vertex, landmark, dist).
        let expected: &[(u32, usize, u32)] = &[
            (4, 0, 1),
            (4, 2, 1),
            (5, 0, 1),
            (5, 2, 3),
            (6, 0, 1),
            (7, 0, 2),
            (7, 1, 2),
            (8, 1, 1),
            (9, 1, 1),
            (10, 1, 2),
            (10, 2, 3),
            (11, 1, 3),
            (11, 2, 2),
            (12, 2, 1),
            (13, 0, 3),
            (13, 2, 1),
            (14, 0, 2),
            (14, 2, 2),
        ];
        let mut total = 0;
        for &(v, r, d) in expected {
            assert_eq!(l.get(v, r), Some(d), "L({v}) entry for landmark column {r}");
            total += 1;
        }
        // No extra entries beyond the figure: vertex 0 is isolated and the
        // landmarks themselves carry no labels.
        let entries: usize = (0..15u32).map(|v| l.entries(v).count()).sum();
        assert_eq!(entries, total);
        for (v, r) in [
            (4u32, 1usize),
            (6, 1),
            (6, 2),
            (8, 0),
            (9, 0),
            (12, 0),
            (12, 1),
        ] {
            assert_eq!(
                l.get(v, r),
                None,
                "unexpected label for vertex {v}, column {r}"
            );
        }
    }

    #[test]
    fn meta_graph_matches_figure_4b() {
        let scheme = figure4_scheme();
        // Edges (1,2) weight 1, (2,3) weight 1, (1,3) weight 2 — in column
        // indices: (0,1,1), (1,2,1), (0,2,2).
        assert_eq!(scheme.meta_edges, vec![(0, 1, 1), (0, 2, 2), (1, 2, 1)]);
    }

    #[test]
    fn landmarks_never_receive_labels() {
        let scheme = figure4_scheme();
        for (i, &r) in scheme.landmarks.iter().enumerate() {
            assert_eq!(
                scheme.labelling.entries(r).count(),
                0,
                "landmark {r} (column {i})"
            );
        }
    }

    #[test]
    fn labelled_distances_are_exact_graph_distances() {
        let g = figure4_graph();
        let scheme = build_sequential(&g, &figure4_landmarks());
        for v in g.vertices() {
            for (i, d) in scheme.labelling.entries(v) {
                let r = scheme.landmarks[i];
                let exact = qbs_graph::traversal::bfs_distances(&g, r)[v as usize];
                assert_eq!(d, exact, "label of {v} towards landmark {r}");
            }
        }
    }

    #[test]
    fn labels_exist_exactly_when_a_landmark_free_shortest_path_exists() {
        // Definition 4.2 verified against brute force on the figure graph.
        let g = figure4_graph();
        let landmarks = figure4_landmarks();
        let scheme = build_sequential(&g, &landmarks);
        for v in g.vertices() {
            if landmarks.contains(&v) {
                continue;
            }
            for (i, &r) in landmarks.iter().enumerate() {
                let exact = qbs_graph::traversal::bfs_distances(&g, r)[v as usize];
                if exact == qbs_graph::INFINITE_DISTANCE {
                    assert_eq!(scheme.labelling.get(v, i), None);
                    continue;
                }
                // Brute force: does a shortest path avoiding the *other*
                // landmarks exist? Remove them and compare distances.
                let others = qbs_graph::VertexFilter::from_vertices(
                    g.num_vertices(),
                    landmarks.iter().copied().filter(|&x| x != r),
                );
                let view = qbs_graph::FilteredGraph::new(&g, &others);
                let avoid = qbs_graph::traversal::bfs_distances(&view, r)[v as usize];
                let expected = if avoid == exact { Some(exact) } else { None };
                assert_eq!(
                    scheme.labelling.get(v, i),
                    expected,
                    "vertex {v}, landmark {r}"
                );
            }
        }
    }

    #[test]
    fn dense_storage_accounting() {
        let scheme = figure4_scheme();
        let l = &scheme.labelling;
        assert_eq!(l.num_vertices(), 15);
        assert_eq!(l.num_landmarks(), 3);
        assert_eq!(l.slot_width(), 1, "figure-4 distances fit one byte");
        let bytes = l.clone().into_buffer();
        assert_eq!(bytes.len(), 15 * 3, "one slot per (vertex, landmark)");
        assert_eq!(bytes[4 * 3..5 * 3], [1, 0xFF, 1]);
        assert_eq!(l.entries(4).count(), 2);
        assert_eq!(l.entries(0).count(), 0);
    }

    #[test]
    fn isolated_vertices_and_unreachable_components_get_no_labels() {
        // Component {0,1,2} holds the landmark; component {3,4} is separate.
        let mut b = GraphBuilder::from_edges([(0u32, 1), (1, 2), (3, 4)]);
        b.reserve_vertices(5);
        let g = b.build();
        let scheme = build_sequential(&g, &[1]);
        assert_eq!(scheme.labelling.get(0, 0), Some(1));
        assert_eq!(scheme.labelling.get(2, 0), Some(1));
        assert_eq!(scheme.labelling.get(3, 0), None);
        assert_eq!(scheme.labelling.get(4, 0), None);
        assert!(scheme.meta_edges.is_empty());
    }

    #[test]
    fn empty_landmark_set_produces_empty_scheme() {
        let scheme = build_sequential(&figure4_graph(), &[]);
        assert!(scheme.labelling.into_buffer().is_empty());
        assert!(scheme.meta_edges.is_empty());
    }

    #[test]
    fn adjacent_landmarks_form_weight_one_meta_edges() {
        let g = GraphBuilder::from_edges([(0u32, 1), (1, 2), (2, 3)]).build();
        let scheme = build_sequential(&g, &[0, 1, 3]);
        assert_eq!(scheme.meta_edges, vec![(0, 1, 1), (1, 2, 2)]);
        // Vertex 2 is labelled towards landmarks 1 and 3 but not 0 (every
        // shortest path 0-2 passes landmark 1).
        assert_eq!(scheme.labelling.get(2, 0), None);
        assert_eq!(scheme.labelling.get(2, 1), Some(1));
        assert_eq!(scheme.labelling.get(2, 2), Some(1));
    }

    #[test]
    fn slots_widen_once_a_distance_exceeds_one_byte() {
        // A path 0 — 1 — … — 299 with the landmark at 0: distances 1..=299.
        let g = GraphBuilder::from_edges((1..300u32).map(|v| (v - 1, v))).build();
        let scheme = build_sequential(&g, &[0]);
        let l = &scheme.labelling;
        assert_eq!(l.slot_width(), 2);
        assert_eq!(l.get(0, 0), None);
        for v in 1..300u32 {
            assert_eq!(l.get(v, 0), Some(v), "label of {v}");
        }
        // Appended to a head, the slots follow it untouched.
        let mut labelling = PathLabelling::after(vec![7, 7], 3, 1);
        labelling.install_column(0, &[NO_LABEL, 255, 2]);
        assert_eq!(labelling.into_buffer(), [7, 7, 0xFF, 0xFF, 255, 0, 2, 0]);
    }
}
