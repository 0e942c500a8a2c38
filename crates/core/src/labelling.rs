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
//! Each BFS follows Algorithm 2's two queues: `QL` for vertices whose
//! discovery path avoids other landmarks (these receive labels and keep
//! expanding) and `QN` for vertices first reached through another landmark
//! (these are only traversed, never labelled). A vertex reachable both ways
//! at the same level is labelled, which is what Definition 4.2 requires.
//!
//! The BFSs are independent (Lemma 5.2), so they advance together, level
//! by level, as the bits of one mask per vertex: a pass runs up to 32
//! landmarks' BFSs and reads a vertex's row once per distinct distance at
//! which they reach it, not once per landmark. A landmark's bit stops
//! moving as soon as none of its frontier is labelled, since from then on
//! its BFS labels nothing.
//!
//! The labelling is built in the index file's own layout ([`crate::format`]):
//! a dense row-major `|V| × |R|` slot matrix, one byte per slot while every
//! distance fits and two bytes once one does not. The index build lays it
//! out straight into the file buffer it is assembling, so no second copy
//! of the labels ever exists.

use qbs_graph::{Distance, Graph, VertexId};

use crate::format::slot_distance;
use crate::{QbsError, Result};

/// Slot value meaning "no label entry for this (vertex, landmark) pair" in
/// a two-byte label slot, so the longest distance a label holds is one less.
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

    /// Stores `d` in the slot of `vertex` for landmark column
    /// `landmark_idx`, widening every slot to two bytes first if `d` does
    /// not fit one. A distance two bytes cannot hold is refused.
    fn set(&mut self, vertex: VertexId, landmark_idx: usize, d: Distance) -> Result<()> {
        if d >= Distance::from(NO_LABEL) {
            return Err(QbsError::LabelDistanceTooLarge { distance: d });
        }
        if self.width == 1 && d >= Distance::from(u8::MAX) {
            self.widen();
        }
        let pos = self.start + (vertex as usize * self.num_landmarks + landmark_idx) * self.width;
        match self.width {
            1 => self.buf[pos] = d as u8,
            _ => self.buf[pos..pos + 2].copy_from_slice(&(d as u16).to_le_bytes()),
        }
        Ok(())
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

    /// The whole buffer, the slots last: only the slots for a scheme from
    /// [`build_sequential`].
    pub fn into_buffer(self) -> Vec<u8> {
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

/// Landmarks whose BFSs one pass runs together, one bit each.
type Mask = u32;

/// Builds the complete labelling scheme on the calling thread, the
/// landmarks' BFSs advancing together as bit masks, up to 32 per pass.
///
/// # Panics
///
/// Panics if a label distance exceeds 65 534, the longest a two-byte slot
/// holds; [`crate::Qbs::build`] returns
/// [`QbsError::LabelDistanceTooLarge`] instead.
pub fn build_sequential(graph: &Graph, landmarks: &[VertexId]) -> LabellingScheme {
    build_after(Vec::new(), graph, landmarks).unwrap_or_else(|err| panic!("{err}"))
}

/// [`build_sequential`] with the label slots appended to `buf`, returning
/// its refusal as an error.
pub(crate) fn build_after(
    buf: Vec<u8>,
    graph: &Graph,
    landmarks: &[VertexId],
) -> Result<LabellingScheme> {
    let n = graph.num_vertices();
    let mut labelling = PathLabelling::after(buf, n, landmarks.len());
    let mut meta_edges = Vec::new();
    // Per vertex, and none when there is no BFS to run: its landmark
    // column (`u32::MAX` if none), the landmarks whose BFS has reached it,
    // what the level being expanded brings it through any path and through
    // a labelled one, and whether that level reaches it (one bit each).
    let len = if landmarks.is_empty() { 0 } else { n };
    let mut column = vec![u32::MAX; len];
    for (i, &r) in landmarks.iter().enumerate() {
        column[r as usize] = i as u32;
    }
    let (mut seen, mut next) = (vec![0 as Mask; len], vec![(0 as Mask, 0 as Mask); len]);
    let mut touched = vec![0u64; len.div_ceil(64)];
    let mut frontier: Vec<(VertexId, Mask, Mask)> = Vec::new();
    for (pass, roots) in landmarks.chunks(Mask::BITS as usize).enumerate() {
        let first = pass * Mask::BITS as usize;
        if pass > 0 {
            seen.fill(0);
        }
        for (b, &r) in roots.iter().enumerate() {
            seen[r as usize] = 1 << b;
            frontier.push((r, 1 << b, 1 << b));
        }
        let mut d: Distance = 0;
        while !frontier.is_empty() {
            d += 1;
            // A landmark with no labelled vertex on the frontier labels
            // nothing more, so its bit stops here.
            let live = frontier.iter().fold(0, |m, &(_, labelled, _)| m | labelled);
            let (mut lo, mut hi) = (usize::MAX, 0);
            for &(u, labelled, any) in &frontier {
                let any = any & live;
                if any == 0 {
                    continue;
                }
                for &w in graph.neighbors(u) {
                    let new = any & !seen[w as usize];
                    if new == 0 {
                        continue;
                    }
                    let (next_any, next_labelled) = &mut next[w as usize];
                    if *next_any == 0 {
                        let k = w as usize / 64;
                        touched[k] |= 1 << (w % 64);
                        (lo, hi) = (lo.min(k), hi.max(k));
                    }
                    *next_any |= new;
                    *next_labelled |= labelled & new;
                }
            }
            // Read back in vertex order, the next level reads rows and
            // label slots front to back.
            frontier.clear();
            for (k, word) in touched.iter_mut().enumerate().take(hi + 1).skip(lo) {
                let mut word = std::mem::take(word);
                while word != 0 {
                    let w = (64 * k) as VertexId + word.trailing_zeros();
                    word &= word - 1;
                    let (any, labelled) = std::mem::take(&mut next[w as usize]);
                    seen[w as usize] |= any;
                    // A landmark gets no label: each labelled arrival is a
                    // meta edge (kept from its lower end), and it expands
                    // as `QN`.
                    let j = column[w as usize];
                    let mut bits = labelled;
                    while bits != 0 {
                        let i = first + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if j == u32::MAX {
                            labelling.set(w, i, d)?;
                        } else if i < j as usize {
                            meta_edges.push((i, j as usize, d));
                        }
                    }
                    let labelled = if j == u32::MAX { labelled } else { 0 };
                    frontier.push((w, labelled, any));
                }
            }
        }
    }
    meta_edges.sort_unstable();
    Ok(LabellingScheme {
        landmarks: landmarks.to_vec(),
        labelling,
        meta_edges,
    })
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
    }

    #[test]
    fn widening_moves_every_one_byte_slot_after_the_head() {
        // Appended to a head, the slots follow it untouched: a one-byte
        // entry written before the widening keeps its value.
        let mut labelling = PathLabelling::after(vec![7, 7], 3, 1);
        labelling.set(2, 0, 2).expect("fits");
        assert_eq!(labelling.slot_width(), 1);
        labelling.set(1, 0, 255).expect("fits two bytes");
        assert_eq!(labelling.slot_width(), 2);
        assert_eq!(labelling.get(0, 0), None);
        assert_eq!(labelling.into_buffer(), [7, 7, 0xFF, 0xFF, 255, 0, 2, 0]);
    }

    #[test]
    fn distances_past_two_bytes_are_refused() {
        let mut labelling = PathLabelling::after(Vec::new(), 2, 1);
        labelling
            .set(0, 0, 65_534)
            .expect("the longest storable label");
        assert_eq!(labelling.get(0, 0), Some(65_534));
        let err = labelling.set(1, 0, 65_535).unwrap_err();
        assert!(matches!(
            err,
            QbsError::LabelDistanceTooLarge { distance: 65_535 }
        ));
        assert_eq!(labelling.get(1, 0), None);
    }
}
