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
//! a dense row-major `|V| × |R|` slot matrix of four-bit slots while every
//! distance is at most 14, widened in place to eight bits once one is
//! longer, and to sixteen once one passes 254. The index build lays it out
//! straight into the file buffer it is assembling, so no second copy of
//! the labels ever exists.

use qbs_graph::{Distance, Graph, VertexId};

use crate::format::{
    label_row_len, longest_label, put_slot, row_entries, slot_distance, SLOT_BITS,
};
use crate::{QbsError, Result};

/// Slot value meaning "no label entry for this (vertex, landmark) pair" in
/// a sixteen-bit label slot, so the longest distance a label holds is one
/// less.
pub const NO_LABEL: u16 = u16::MAX;

/// Dense per-vertex path labelling: row-major `[vertex][landmark]` slots of
/// four bits while every distance is at most 14, widened to eight bits the
/// first time a longer one is installed and to sixteen (little-endian) the
/// first time one past 254 is; all-ones means "no entry". Each row is a
/// whole number of bytes ([`label_row_len`]). The matrix is the tail of its
/// buffer, which may begin with other bytes (the head of the index file
/// being built).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathLabelling {
    num_vertices: usize,
    num_landmarks: usize,
    /// Bits per slot: 4, 8 or 16.
    bits: usize,
    /// `buf[start..]` holds the slots.
    buf: Vec<u8>,
    start: usize,
}

impl PathLabelling {
    /// Creates an empty labelling (all entries absent, four-bit slots)
    /// whose slots follow the bytes of `buf`.
    pub(crate) fn after(mut buf: Vec<u8>, num_vertices: usize, num_landmarks: usize) -> Self {
        let start = buf.len();
        let bits = SLOT_BITS[0];
        buf.resize(
            start + num_vertices * label_row_len(num_landmarks, bits),
            u8::MAX,
        );
        PathLabelling {
            num_vertices,
            num_landmarks,
            bits,
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

    /// Bits per slot: 4, 8 once some distance exceeded 14, or 16 once one
    /// exceeded 254.
    pub fn slot_width(&self) -> usize {
        self.bits
    }

    /// Where `vertex`'s row lies in the buffer.
    #[inline]
    fn row_at(&self, vertex: VertexId) -> std::ops::Range<usize> {
        let row_len = label_row_len(self.num_landmarks, self.bits);
        let at = self.start + vertex as usize * row_len;
        at..at + row_len
    }

    /// The slots of `vertex`'s row.
    #[inline]
    fn row(&self, vertex: VertexId) -> &[u8] {
        &self.buf[self.row_at(vertex)]
    }

    /// The label entry of `vertex` for landmark column `landmark_idx`.
    #[inline]
    pub fn get(&self, vertex: VertexId, landmark_idx: usize) -> Option<Distance> {
        slot_distance(self.row(vertex), landmark_idx, self.bits)
    }

    /// Iterator over the label entries `(landmark_idx, distance)` of a vertex.
    pub fn entries(&self, vertex: VertexId) -> impl Iterator<Item = (usize, Distance)> + '_ {
        row_entries(self.row(vertex), self.num_landmarks, self.bits)
    }

    /// Stores `d` in the slots of `vertex` for landmark columns `first +
    /// b`, one per bit `b` of `columns`, widening every slot first until `d`
    /// fits. A distance sixteen bits cannot hold is refused.
    fn set_columns(
        &mut self,
        vertex: VertexId,
        first: usize,
        mut columns: Mask,
        d: Distance,
    ) -> Result<()> {
        if d > longest_label(16) {
            return Err(QbsError::LabelDistanceTooLarge { distance: d });
        }
        while d > longest_label(self.bits) {
            self.widen();
        }
        let at = self.row_at(vertex);
        let row = &mut self.buf[at];
        while columns != 0 {
            let column = first + columns.trailing_zeros() as usize;
            columns &= columns - 1;
            put_slot(row, column, self.bits, Some(d));
        }
        Ok(())
    }

    /// Stores `d` in the slot of `vertex` for landmark column
    /// `landmark_idx`, as [`PathLabelling::set_columns`] does.
    #[cfg(test)]
    fn set(&mut self, vertex: VertexId, landmark_idx: usize, d: Distance) -> Result<()> {
        self.set_columns(vertex, landmark_idx, 1, d)
    }

    /// Re-encodes every slot at twice its width, in place from the back.
    /// Rows only lengthen and a slot's offset in its row only grows, so a
    /// slot lands at or past the byte it is read from, after every slot
    /// still to be read; a nibble landing on its own byte finds the other
    /// nibble there read already.
    fn widen(&mut self) {
        let (r, from) = (self.num_landmarks, self.bits);
        let to = 2 * from;
        let (old_len, new_len) = (label_row_len(r, from), label_row_len(r, to));
        self.buf.resize(self.start + self.num_vertices * new_len, 0);
        let matrix = &mut self.buf[self.start..];
        for v in (0..self.num_vertices).rev() {
            for c in (0..r).rev() {
                let d = slot_distance(&matrix[v * old_len..], c, from);
                put_slot(&mut matrix[v * new_len..], c, to, d);
            }
        }
        self.bits = to;
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
/// Panics if a label distance exceeds 65 534, the longest a sixteen-bit
/// slot holds; [`crate::Qbs::build`] returns
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
                    let j = column[w as usize];
                    let labelled = if j == u32::MAX {
                        if labelled != 0 {
                            labelling.set_columns(w, first, labelled, d)?;
                        }
                        labelled
                    } else {
                        // A landmark gets no label: each labelled arrival is
                        // a meta edge (kept from its lower end), and it
                        // expands as `QN`.
                        let mut bits = labelled;
                        while bits != 0 {
                            let i = first + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            if i < j as usize {
                                meta_edges.push((i, j as usize, d));
                            }
                        }
                        0
                    };
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
        assert_eq!(l.slot_width(), 4, "figure-4 distances fit four bits");
        let bytes = l.clone().into_buffer();
        assert_eq!(bytes.len(), 15 * 2, "three four-bit slots in two bytes");
        // Vertex 4: column 0 low, column 1 high, column 2 low, padding high.
        assert_eq!(bytes[4 * 2..5 * 2], [0xF1, 0xF1]);
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

    /// A path 0 — 1 — … — 299 with its one landmark at 0: labels 1..=299
    /// cross the four-bit limit (14) and the eight-bit one (254), so one
    /// build widens twice, 4 → 8 → 16 bits, inside its buffer, and every
    /// slot ends up the BFS column.
    #[test]
    fn one_build_widens_twice_in_place_on_a_path_past_254() {
        let g = GraphBuilder::from_edges((1..300u32).map(|v| (v - 1, v))).build();
        let buf = Vec::with_capacity(2 * 300);
        let at = buf.as_ptr();
        let scheme = build_after(buf, &g, &[0]).expect("fits sixteen bits");
        let l = &scheme.labelling;
        assert_eq!(l.slot_width(), 16);
        assert_eq!(l.buf.as_ptr(), at, "the slots never left their buffer");
        let bfs = qbs_graph::traversal::bfs_distances(&g, 0);
        assert_eq!(l.get(0, 0), None, "the landmark has no label");
        for v in 1..300u32 {
            assert_eq!(l.get(v, 0), Some(bfs[v as usize]), "label of {v}");
        }

        // The same column installed in BFS order widens at 15 and at 255.
        let mut replay = PathLabelling::after(Vec::new(), 300, 1);
        let mut widths = Vec::new();
        for v in 1..300u32 {
            replay.set(v, 0, v).expect("fits sixteen bits");
            if widths.last().map(|&(_, bits)| bits) != Some(replay.slot_width()) {
                widths.push((v, replay.slot_width()));
            }
        }
        assert_eq!(widths, [(1, 4), (15, 8), (255, 16)]);
        assert_eq!(replay.into_buffer(), l.clone().into_buffer());
    }

    #[test]
    fn widening_moves_every_slot_after_the_head() {
        // Appended to a head, the slots follow it untouched: an entry
        // written before each widening keeps its value.
        let mut labelling = PathLabelling::after(vec![7, 7], 3, 1);
        assert_eq!(labelling.clone().into_buffer(), [7, 7, 0xFF, 0xFF, 0xFF]);
        labelling.set(2, 0, 2).expect("fits");
        assert_eq!(labelling.slot_width(), 4);
        labelling.set(0, 0, 20).expect("fits eight bits");
        assert_eq!(labelling.slot_width(), 8);
        assert_eq!(labelling.clone().into_buffer(), [7, 7, 20, 0xFF, 2]);
        labelling.set(1, 0, 255).expect("fits sixteen bits");
        assert_eq!(labelling.slot_width(), 16);
        assert_eq!(labelling.get(0, 0), Some(20));
        assert_eq!(labelling.into_buffer(), [7, 7, 20, 0, 255, 0, 2, 0]);
    }

    /// Widening keeps every slot of rows that share bytes: odd and even
    /// |R|, entries and holes in every column, and the padding nibble.
    #[test]
    fn widening_keeps_every_slot_of_multi_column_rows() {
        for r in 1..6usize {
            let mut labelling = PathLabelling::after(vec![9], 7, r);
            let expected = |v: usize, c: usize| {
                (!(v + c).is_multiple_of(3)).then_some(((v * r + c) % 14) as Distance)
            };
            for v in 0..7 {
                for c in 0..r {
                    if let Some(d) = expected(v, c) {
                        labelling.set(v as VertexId, c, d).expect("fits");
                    }
                }
            }
            for (d, bits) in [(100, 8), (1_000, 16)] {
                assert!(labelling.slot_width() < bits);
                let mut wider = labelling.clone();
                wider.set(6, 0, d).expect("fits");
                assert_eq!(wider.slot_width(), bits, "|R| = {r}");
                for v in 0..7 {
                    for c in 0..r {
                        let want = if (v, c) == (6, 0) {
                            Some(d)
                        } else {
                            expected(v, c)
                        };
                        assert_eq!(wider.get(v as VertexId, c), want, "|R| = {r}, ({v}, {c})");
                    }
                }
                assert_eq!(wider.into_buffer()[0], 9, "the head stays");
            }
        }
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
