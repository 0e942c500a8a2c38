//! The meta-graph `M = (R, E_R, σ)` (Definition 4.1) plus the
//! precomputations QbS performs over it:
//!
//! * all-pairs shortest-path distances `d_M` between landmarks (used by
//!   Algorithm 3 to evaluate Eq. 3 in `O(|R|²)` instead of `O(|R|⁴)`, §5.2);
//! * but not the meta-edges on each landmark pair's shortest meta-paths
//!   (the landmark part of a sketch): every sketch derives them from `d_M`;
//! * `Δ`: for every meta-edge `(r, r')`, the shortest path graph between `r`
//!   and `r'` in the original graph restricted to paths with no other
//!   landmark — the "precomputed shortest path graphs between landmarks"
//!   whose size the paper reports as `size(Δ)` in Table 3 and which the
//!   recover search splices into query answers.
//!
//! Δ is read off the labelling rather than searched for: every interior
//! vertex `x` of a landmark-free shortest `r`–`r'` path carries the label
//! `(r, d_G(x, r))`, so walking from `r'` down `r`'s label column — the
//! recover search's own `label_walk` (`search.rs`) — visits exactly Δ's
//! vertices and edges and nothing else.
//!
//! A [`MetaGraph`] is the decoded form of the index file's meta-graph
//! sections. Sketching reads `d_M` and the meta edges on every query, so
//! [`crate::QbsIndex`] decodes these `|R|`-sized tables once, when it is
//! constructed, instead of decoding bytes per call — plus an in-memory
//! `|R| × |R|` table of meta-edge positions, through which sketching and the
//! recover search find the meta edge of two landmarks (and its Δ) in O(1).
//! `d_M` is kept once, in the sketch's lane type ([`crate::sketch`]): `i16`
//! when no finite sum of two label distances and a landmark distance can
//! reach the `i16` lanes' "no entry" value, `i32` otherwise.

use qbs_graph::workspace::VisitedSet;
use qbs_graph::{Distance, VertexId, INFINITE_DISTANCE};

use crate::format::{longest_label, IndexView};
use crate::search::label_walk;
use crate::sketch::{lane_width, Lane};
use crate::store::QbsIndex;
use crate::{QbsError, Result};

/// The meta-graph and everything precomputed from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetaGraph {
    /// The landmark set, in column order.
    landmarks: Vec<VertexId>,
    /// Deduplicated meta edges `(i, j, σ)` with `i < j` over landmark indices.
    edges: Vec<(usize, usize, Distance)>,
    /// Row-major all-pairs distance matrix over the meta-graph, `|R|` rows
    /// of [`lane_width`]`(|R|)` lanes; the padding columns hold "no entry".
    apsp: LaneApsp,
    /// Lanes per `apsp` row.
    width: usize,
    /// Row-major `|R| × |R|` table of positions in `edges` (symmetric;
    /// [`NO_META_EDGE`] where two landmarks share no meta edge).
    edge_slots: Vec<u32>,
    /// `delta[k]` is the edge set of the shortest path graph (in `G`,
    /// avoiding other landmarks) between the endpoints of `edges[k]`, as
    /// sorted `(min, max)` pairs.
    delta: Vec<Vec<(VertexId, VertexId)>>,
}

/// The `edge_slots` entry of a landmark pair without a meta edge.
const NO_META_EDGE: u32 = u32::MAX;

/// `d_M` in the lane type of the index's sketches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum LaneApsp {
    /// Every finite sketch sum stays below `i16`'s "no entry" value.
    Narrow(Vec<i16>),
    /// The `i16` lanes could not hold some sum; `i32` ones can.
    Wide(Vec<i32>),
}

impl LaneApsp {
    /// Picks the lane type for labels of `label_bits`-bit slots and the
    /// row-major `|R| × |R|` matrix `apsp`, and lays the matrix out in it:
    /// `i16` lanes need slots of at most eight bits. Refuses a landmark
    /// distance that even `i32` sums cannot carry.
    fn new(num_landmarks: usize, apsp: &[Distance], label_bits: usize) -> Result<Self> {
        let longest = apsp
            .iter()
            .copied()
            .filter(|&d| d != INFINITE_DISTANCE)
            .max()
            .unwrap_or(0);
        let reach = 2 * u64::from(longest_label(label_bits)) + u64::from(longest);
        if reach < i16::GUARD {
            Ok(LaneApsp::Narrow(lay_out(num_landmarks, apsp)))
        } else if reach < i32::GUARD {
            Ok(LaneApsp::Wide(lay_out(num_landmarks, apsp)))
        } else {
            Err(QbsError::MetaDistanceTooLarge { distance: longest })
        }
    }
}

/// `apsp` (`|R| × |R|`) as `|R|` rows of [`lane_width`]`(|R|)` lanes.
fn lay_out<T: Lane>(r: usize, apsp: &[Distance]) -> Vec<T> {
    let width = lane_width(r);
    let mut lanes = vec![T::NONE; r * width];
    for i in 0..r {
        for j in 0..r {
            lanes[i * width + j] = T::from_distance(apsp[i * r + j]);
        }
    }
    lanes
}

/// `d_M` for every landmark pair: Floyd–Warshall over the meta edges
/// Algorithm 2 found. `|R| ≤ 100` in every experiment, so `|R|³` is
/// trivial.
pub(crate) fn all_pairs_distances(
    num_landmarks: usize,
    meta_edges: &[(usize, usize, Distance)],
) -> Vec<Distance> {
    let r = num_landmarks;
    let mut apsp = vec![INFINITE_DISTANCE; r * r];
    for i in 0..r {
        apsp[i * r + i] = 0;
    }
    for &(i, j, sigma) in meta_edges {
        apsp[i * r + j] = apsp[i * r + j].min(sigma);
        apsp[j * r + i] = apsp[j * r + i].min(sigma);
    }
    for k in 0..r {
        for i in 0..r {
            let dik = apsp[i * r + k];
            if dik == INFINITE_DISTANCE {
                continue;
            }
            for j in 0..r {
                let dkj = apsp[k * r + j];
                if dkj == INFINITE_DISTANCE {
                    continue;
                }
                let through = dik + dkj;
                if through < apsp[i * r + j] {
                    apsp[i * r + j] = through;
                }
            }
        }
    }
    apsp
}

/// Δ of every meta edge of `index`, in stored order: the shortest path
/// graph between its endpoints restricted to paths avoiding all other
/// landmarks, as one label walk from `r_j` down column `i`.
///
/// `index` must hold the graph, the landmarks, the labels and the meta
/// edges of the build; its own Δ is not read (the build runs this on an
/// index whose Δ section is still empty).
pub(crate) fn delta(index: &QbsIndex) -> Vec<Vec<(VertexId, VertexId)>> {
    let landmarks = index.landmarks();
    let mut walk_visited = VisitedSet::new();
    let mut walk_stack = Vec::new();
    index
        .meta_graph()
        .edges()
        .iter()
        .map(|&(i, j, sigma)| {
            let mut edges = Vec::new();
            label_walk(
                index,
                landmarks[j],
                i,
                landmarks[i],
                sigma,
                &mut walk_visited,
                &mut walk_stack,
                &mut edges,
            );
            for edge in &mut edges {
                *edge = (edge.0.min(edge.1), edge.0.max(edge.1));
            }
            edges.sort_unstable();
            edges
        })
        .collect()
}

impl MetaGraph {
    /// Decodes the meta-graph sections of an index file: `O(|R|² + |Δ|)`,
    /// independent of the graph size. Fails with
    /// [`QbsError::MetaDistanceTooLarge`] when the sketch's lanes cannot
    /// hold the file's distances.
    pub(crate) fn from_view(view: &IndexView) -> Result<Self> {
        let r = view.num_landmarks();
        let apsp: Vec<Distance> = (0..r)
            .flat_map(|i| (0..r).map(move |j| view.meta_distance(i, j)))
            .collect();
        Self::from_parts(
            view.landmarks().collect(),
            view.meta_edges().collect(),
            &apsp,
            (0..view.num_meta_edges())
                .map(|k| view.delta_edges(k).collect())
                .collect(),
            view.dist_width(),
        )
    }

    /// The meta-graph of `landmarks`, its `edges`, their `|R| × |R|`
    /// distance matrix `apsp` and Δ, serving labels of `label_bits`-bit
    /// slots.
    pub(crate) fn from_parts(
        landmarks: Vec<VertexId>,
        edges: Vec<(usize, usize, Distance)>,
        apsp: &[Distance],
        delta: Vec<Vec<(VertexId, VertexId)>>,
        label_bits: usize,
    ) -> Result<Self> {
        let r = landmarks.len();
        let mut edge_slots = vec![NO_META_EDGE; r * r];
        for (k, &(i, j, _)) in edges.iter().enumerate() {
            edge_slots[i * r + j] = k as u32;
            edge_slots[j * r + i] = k as u32;
        }
        Ok(MetaGraph {
            apsp: LaneApsp::new(r, apsp, label_bits)?,
            width: lane_width(r),
            landmarks,
            edges,
            edge_slots,
            delta,
        })
    }

    /// `d_M` as the sketch's lanes: `|R|` rows of [`lane_width`]`(|R|)`.
    pub(crate) fn lane_apsp(&self) -> &LaneApsp {
        &self.apsp
    }

    /// The landmark set in column order.
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// Number of landmarks `|R|`.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// The meta edges `(i, j, σ)` with `i < j`.
    pub fn edges(&self) -> &[(usize, usize, Distance)] {
        &self.edges
    }

    /// Shortest-path distance between two landmarks through the meta-graph,
    /// which equals their true graph distance `d_G` (every shortest path
    /// between landmarks decomposes into meta edges at its interior
    /// landmarks).
    #[inline]
    pub fn distance(&self, i: usize, j: usize) -> Distance {
        debug_assert!(j < self.num_landmarks());
        let at = i * self.width + j;
        match &self.apsp {
            LaneApsp::Narrow(lanes) => lanes[at].to_distance(),
            LaneApsp::Wide(lanes) => lanes[at].to_distance(),
        }
    }

    /// Appends to `out`, in no particular order, the meta edges lying on at
    /// least one shortest meta-path between landmark indices `i` and `j` —
    /// the landmark part of the sketch for a query whose minimum is
    /// achieved by the pair `(i, j)`.
    ///
    /// Both ends of such an edge lie in `D = {x : d_M(i, x) + d_M(x, j) =
    /// d_M(i, j)}`, and an edge `(a, b, σ)` inside `D` is on one iff
    /// `|d_M(i, a) − d_M(i, b)| = σ`, so only pairs inside `D` are looked up
    /// in the edge table: `O(|R| + |D|²)`. `D` waits at the end of `out` as
    /// `(x, x, d_M(i, x))` until then; it is read off rows `i` and `j` of
    /// the lane APSP (`d_M` is symmetric).
    pub fn shortest_path_meta_edges(
        &self,
        i: usize,
        j: usize,
        out: &mut Vec<(usize, usize, Distance)>,
    ) {
        let start = out.len();
        match &self.apsp {
            LaneApsp::Narrow(lanes) => self.push_between(lanes, i, j, out),
            LaneApsp::Wide(lanes) => self.push_between(lanes, i, j, out),
        }
        let (r, end) = (self.num_landmarks(), out.len());
        for p in start..end {
            for q in p + 1..end {
                let ((a, _, d_ia), (b, _, d_ib)) = (out[p], out[q]);
                let k = self.edge_slots[a * r + b];
                if k != NO_META_EDGE && self.edges[k as usize].2 == d_ia.abs_diff(d_ib) {
                    out.push(self.edges[k as usize]);
                }
            }
        }
        out.drain(start..end);
    }

    /// Appends `(x, x, d_M(i, x))` for every `x` on a shortest `i ⇝ j`
    /// meta-path, ascending; nothing when `i` and `j` are disconnected.
    fn push_between<T: Lane>(
        &self,
        lanes: &[T],
        i: usize,
        j: usize,
        out: &mut Vec<(usize, usize, Distance)>,
    ) {
        let row = |x: usize| &lanes[x * self.width..(x + 1) * self.width];
        let (from_i, from_j) = (row(i), row(j));
        let dij = from_i[j];
        if dij >= T::NONE {
            return;
        }
        let on_path = from_i.iter().zip(from_j).take(self.num_landmarks());
        out.extend(on_path.enumerate().filter_map(|(x, (&dix, &djx))| {
            (dix + djx == dij).then_some((x, x, dix.to_distance()))
        }));
    }

    /// The precomputed path graph (edge list in `G`) of one meta edge, by
    /// its position in [`MetaGraph::edges`].
    pub fn delta_edges(&self, edge_index: usize) -> &[(VertexId, VertexId)] {
        &self.delta[edge_index]
    }

    /// Looks up the index of a meta edge given its landmark indices (`None`
    /// when either index is not a landmark column).
    #[inline]
    pub fn edge_index(&self, i: usize, j: usize) -> Option<usize> {
        let r = self.num_landmarks();
        if i >= r || j >= r {
            return None;
        }
        let k = self.edge_slots[i * r + j];
        (k != NO_META_EDGE).then_some(k as usize)
    }

    /// Total number of edges stored across all Δ path graphs.
    pub fn delta_total_edges(&self) -> usize {
        self.delta.iter().map(Vec::len).sum()
    }

    /// Size of Δ in bytes (8 bytes per stored edge, the paper's Table 1/3
    /// accounting for adjacency data).
    pub fn delta_size_bytes(&self) -> usize {
        self.delta_total_edges() * 8
    }

    /// Size of the meta-graph itself in bytes (two 4-byte endpoints plus a
    /// 4-byte weight per edge) — the quantity the paper bounds by 0.01 MB
    /// for `|R| = 100` (§6.2.2).
    pub fn meta_size_bytes(&self) -> usize {
        self.edges.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QbsConfig;
    use qbs_graph::fixtures::{figure4_graph, figure4_landmarks};
    use qbs_graph::traversal::bfs_distances;
    use qbs_graph::{Graph, GraphBuilder};

    /// The meta-graph of a full index build over `landmarks`.
    fn build_meta(g: &Graph, landmarks: &[VertexId]) -> MetaGraph {
        let config = QbsConfig::with_explicit_landmarks(landmarks.to_vec());
        QbsIndex::build(g.clone(), config).meta_graph().clone()
    }

    /// The meta edges on the shortest meta-paths between `i` and `j`, sorted.
    fn path_edges(meta: &MetaGraph, i: usize, j: usize) -> Vec<(usize, usize, Distance)> {
        let mut out = Vec::new();
        meta.shortest_path_meta_edges(i, j, &mut out);
        out.sort_unstable();
        out
    }

    fn figure4_meta() -> (Graph, MetaGraph) {
        let g = figure4_graph();
        let landmarks = figure4_landmarks();
        let meta = build_meta(&g, &landmarks);
        (g, meta)
    }

    #[test]
    fn distances_match_the_true_landmark_distances() {
        let (g, meta) = figure4_meta();
        for (i, &ri) in meta.landmarks().iter().enumerate() {
            let bfs = bfs_distances(&g, ri);
            for (j, &rj) in meta.landmarks().iter().enumerate() {
                assert_eq!(meta.distance(i, j), bfs[rj as usize], "d_M({ri},{rj})");
            }
        }
    }

    #[test]
    fn figure4_meta_edges_and_weights() {
        let (_, meta) = figure4_meta();
        assert_eq!(meta.num_landmarks(), 3);
        assert_eq!(meta.edges(), &[(0, 1, 1), (0, 2, 2), (1, 2, 1)]);
        assert_eq!(meta.meta_size_bytes(), 36);
    }

    #[test]
    fn sketch_meta_edges_for_example_4_7() {
        let (_, meta) = figure4_meta();
        // Shortest meta paths between landmarks 1 (idx 0) and 3 (idx 2) have
        // length 2 and use either the direct edge (1,3) or the path 1-2-3 —
        // so all three meta edges belong to the sketch (Figure 6(b)).
        assert_eq!(
            path_edges(&meta, 0, 2),
            vec![(0, 1, 1), (0, 2, 2), (1, 2, 1)]
        );
        assert_eq!(path_edges(&meta, 2, 0), path_edges(&meta, 0, 2));
        // Between 1 (idx 0) and 2 (idx 1) only the direct edge qualifies.
        assert_eq!(path_edges(&meta, 0, 1), vec![(0, 1, 1)]);
        // Degenerate: same landmark twice.
        assert!(path_edges(&meta, 1, 1).is_empty());
        // Appends behind what `out` already holds and leaves it in place.
        let mut out = vec![(7, 7, 7)];
        meta.shortest_path_meta_edges(0, 1, &mut out);
        assert_eq!(out, vec![(7, 7, 7), (0, 1, 1)]);
    }

    #[test]
    fn delta_contains_landmark_free_paths_only() {
        let (_, meta) = figure4_meta();
        // Meta edge (1,3) (indices 0,2) has weight 2 realised only through
        // vertex 4; its Δ must be exactly {(1,4), (3,4)}.
        let k = meta.edge_index(0, 2).expect("edge exists");
        let mut edges = meta.delta_edges(k).to_vec();
        edges.sort_unstable();
        assert_eq!(edges, vec![(1, 4), (3, 4)]);
        // Adjacent landmark pairs have a single-edge Δ.
        let k = meta.edge_index(0, 1).expect("edge exists");
        assert_eq!(meta.delta_edges(k), &[(1, 2)]);
        assert_eq!(meta.edge_index(2, 0), meta.edge_index(0, 2));
        assert!(meta.edge_index(5, 0).is_none());
        assert!(meta.edge_index(0, 5).is_none());
        assert_eq!(meta.delta_total_edges(), 4);
        assert_eq!(meta.delta_size_bytes(), 32);
    }

    #[test]
    fn disconnected_landmarks_have_infinite_meta_distance() {
        let mut b = GraphBuilder::from_edges([(0u32, 1), (2, 3)]);
        b.reserve_vertices(4);
        let g = b.build();
        let landmarks = vec![0, 3];
        let meta = build_meta(&g, &landmarks);
        assert_eq!(meta.distance(0, 1), INFINITE_DISTANCE);
        assert_eq!(meta.distance(0, 0), 0);
        assert!(path_edges(&meta, 0, 1).is_empty());
        assert!(meta.edge_index(0, 1).is_none());
    }

    #[test]
    fn triangle_of_landmarks_has_single_edge_deltas() {
        // Landmarks pairwise adjacent: every Δ is a single direct edge.
        let g = GraphBuilder::from_edges([(0u32, 1), (1, 2), (2, 0)]).build();
        let landmarks = vec![0, 1, 2];
        let meta = build_meta(&g, &landmarks);
        assert_eq!(meta.edges().len(), 3);
        for k in 0..3 {
            assert_eq!(meta.delta_edges(k).len(), 1);
        }
    }
}
