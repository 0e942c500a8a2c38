//! Fast sketching (Algorithm 3).
//!
//! For a query `SPG(u, v)`, the sketch summarises how `u` and `v` connect
//! through the landmarks:
//!
//! * `d⊤_uv` (Eq. 3) — the length of the shortest `u ⇝ v` walk that passes
//!   through at least one landmark, evaluated from `L(u)`, `L(v)` and the
//!   precomputed meta-graph distances. By Corollary 4.6, `d⊤_uv ≥ d_G(u, v)`.
//! * the sketch edges achieving that minimum: the `(u, r)` / `(r', v)` label
//!   hops and every meta edge on a shortest meta-path between the chosen
//!   landmark pairs.
//!
//! The paper also derives per-side search budgets `d*_u`, `d*_v` (Eq. 4)
//! from the hops to steer the guided bidirectional search. Nothing here
//! computes them: the search expands the cheaper side instead, which on the
//! hub-free LiveJournal stand-in relaxes 26 % fewer edges per query for the
//! same answers (see [`crate::search`]).
//!
//! # The min-plus kernel
//!
//! With the meta-graph APSP `M` precomputed (§5.2), Eq. 3 is a min-plus
//! product over two dense label rows, as the paper stores them (§6.1):
//!
//! ```text
//! d⊤ = min over finite lu[r] of (lu[r] + t[r]),   t[r] = min_r' (M[r][r'] + lv[r'])
//! ```
//!
//! Each endpoint's label row is unpacked from the index file's `LABELS`
//! bytes into a *lane*: one integer per landmark column, padded to whole
//! blocks of eight columns with a "no entry" value, `NONE`. A
//! landmark endpoint's lane is 0 in its own column and "no entry"
//! elsewhere. `M` is kept in the same lane type, so `t[r]` is one
//! element-wise add-and-min pass over a row of `M` and `lv` that the
//! compiler vectorises for the baseline target (SSE2 `paddw`/`pminsw` on
//! `i16` lanes). The lanes are `i16` when the index's label slot width and
//! its longest landmark distance keep every finite sum below `i16`'s
//! `NONE`, and `i32` otherwise ([`crate::MetaGraph`] picks at build and at
//! open); an index whose distances even `i32` sums cannot carry is refused
//! with [`crate::QbsError::MetaDistanceTooLarge`], never saturated.
//!
//! [`compute_bounds`] (distance mode) is that one `O(|R|²)` vector pass,
//! skipping the rows whose own label already exceeds the running minimum.
//! [`compute`] (path and sketch mode) keeps each row's `t[r]`, then rescans
//! only the rows with `lu[r] + t[r] = d⊤` for the `r'` attaining `t[r]`,
//! in ascending `(r, r')` order, plus `O(|R| + |D|²)` for each such pair
//! with `r ≠ r'`, where `D` is the set of landmarks on a shortest
//! `r ⇝ r'` meta-path ([`crate::MetaGraph::shortest_path_meta_edges`]).

use std::ops::Add;

use qbs_graph::{Distance, VertexId, INFINITE_DISTANCE};

use crate::format::unpack_row;
use crate::meta_graph::{LaneApsp, MetaGraph};
use crate::store::QbsIndex;
use crate::QueryWorkspace;

/// One endpoint-side sketch edge: the query vertex hops to a landmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SketchHop {
    /// Landmark column index.
    pub landmark_idx: usize,
    /// `σ_S`: the exact distance from the query endpoint to that landmark.
    pub distance: Distance,
}

qbs_graph::impl_to_json!(SketchHop: landmark_idx, distance);

/// The sketch `S_uv` for one query (Definition 4.5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sketch {
    /// The query endpoints.
    pub source: VertexId,
    /// The query endpoints.
    pub target: VertexId,
    /// `d⊤_uv`: length of the best landmark-passing route
    /// ([`INFINITE_DISTANCE`] when the labels of the endpoints share no
    /// connected landmark pair).
    pub upper_bound: Distance,
    /// Sketch edges incident to the source (`(u, r)` with weight `δ_ur`).
    pub source_hops: Vec<SketchHop>,
    /// Sketch edges incident to the target (`(r', v)` with weight `δ_r'v`).
    pub target_hops: Vec<SketchHop>,
    /// Meta edges `(i, j, σ)` on the shortest meta-paths between the chosen
    /// landmark pairs — the interior of the sketch.
    pub meta_edges: Vec<(usize, usize, Distance)>,
}

qbs_graph::impl_to_json!(Sketch: source, target, upper_bound, source_hops, target_hops, meta_edges);

impl Sketch {
    /// A sketch stating that no landmark-passing route exists.
    pub fn unreachable(source: VertexId, target: VertexId) -> Self {
        Sketch {
            source,
            target,
            upper_bound: INFINITE_DISTANCE,
            source_hops: Vec::new(),
            target_hops: Vec::new(),
            meta_edges: Vec::new(),
        }
    }

    /// Whether some landmark-passing route exists.
    pub fn is_reachable_via_landmarks(&self) -> bool {
        self.upper_bound != INFINITE_DISTANCE
    }

    /// Number of distinct vertices in the sketch (endpoints + landmarks on
    /// it), mirroring `V_S` of Definition 4.5. Used by reporting only.
    pub fn num_sketch_vertices(&self) -> usize {
        let mut landmarks: Vec<usize> = self
            .source_hops
            .iter()
            .chain(self.target_hops.iter())
            .map(|h| h.landmark_idx)
            .chain(self.meta_edges.iter().flat_map(|&(i, j, _)| [i, j]))
            .collect();
        landmarks.sort_unstable();
        landmarks.dedup();
        landmarks.len() + if self.source == self.target { 1 } else { 2 }
    }
}

/// Computes the sketch of `(source, target)` (Algorithm 3) on the label
/// lanes of `ws`: the min-plus kernel's `d⊤`, then the hops and meta edges
/// of the rows that attain it.
pub fn compute(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> Sketch {
    let meta = index.meta_graph();
    match meta.lane_apsp() {
        LaneApsp::Narrow(apsp) => {
            let lanes = &mut ws.lanes.narrow;
            lanes.fill(index, source, target);
            lanes.sketch(meta, apsp, source, target)
        }
        LaneApsp::Wide(apsp) => {
            let lanes = &mut ws.lanes.wide;
            lanes.fill(index, source, target);
            lanes.sketch(meta, apsp, source, target)
        }
    }
}

/// Computes only `d⊤_uv` (Eq. 3; Algorithm 3 without lines 7-13's edge
/// assembly) on the label lanes of `ws`, allocation-free once the lanes
/// have grown: the input of the distance-only hot path (a
/// [`crate::QueryMode::Distance`] request), where the full [`Sketch`] —
/// whose vectors exist to drive the recover search — would be wasted work.
/// [`INFINITE_DISTANCE`] when no landmark route exists.
///
/// Agrees with [`compute`]: `compute_bounds(...) == compute(...).upper_bound`
/// (asserted by the unit tests below).
pub fn compute_bounds(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
) -> Distance {
    match index.meta_graph().lane_apsp() {
        LaneApsp::Narrow(apsp) => {
            let lanes = &mut ws.lanes.narrow;
            lanes.fill(index, source, target);
            lanes.bound(apsp).to_distance()
        }
        LaneApsp::Wide(apsp) => {
            let lanes = &mut ws.lanes.wide;
            lanes.fill(index, source, target);
            lanes.bound(apsp).to_distance()
        }
    }
}

/// Columns per block of a lane: one SSE2 register of `i16`s. Lanes and the
/// rows of the lane APSP are padded to whole blocks with [`Lane::NONE`], so
/// the kernel's inner loop has no remainder.
pub(crate) const LANE_BLOCK: usize = 8;

/// Lanes per label lane and per lane-APSP row for `num_landmarks` columns.
pub(crate) fn lane_width(num_landmarks: usize) -> usize {
    num_landmarks.next_multiple_of(LANE_BLOCK)
}

/// The integer type of a label lane and of the lane APSP: `i16` or `i32`.
///
/// [`Lane::NONE`] is "no entry", a quarter of the type's range: the sum of
/// two lane values never overflows, and a sum with a "no entry" operand is
/// at least `NONE`. Finite values are below it; the lane type is chosen so
/// that every finite sum the kernel forms stays below it too.
pub(crate) trait Lane: Copy + Ord + Add<Output = Self> {
    /// "No entry" (and no route).
    const NONE: Self;
    /// `NONE` as a `u64`: every finite sum must stay below it.
    const GUARD: u64;
    /// The lane value of `d` ([`Lane::NONE`] for [`INFINITE_DISTANCE`]);
    /// a finite `d` must be below [`Lane::GUARD`].
    fn from_distance(d: Distance) -> Self;
    /// The distance of a lane value: [`INFINITE_DISTANCE`] from `NONE` up.
    fn to_distance(self) -> Distance;
}

macro_rules! impl_lane {
    ($t:ty, $none:expr) => {
        impl Lane for $t {
            const NONE: $t = $none;
            const GUARD: u64 = $none as u64;
            #[inline]
            fn from_distance(d: Distance) -> $t {
                if d == INFINITE_DISTANCE {
                    $none
                } else {
                    d as $t
                }
            }
            #[inline]
            fn to_distance(self) -> Distance {
                if self >= $none {
                    INFINITE_DISTANCE
                } else {
                    self as Distance
                }
            }
        }
    };
}

impl_lane!(i16, 0x3FFF);
impl_lane!(i32, 0x3FFF_FFFF);

/// A query's label lanes in one lane type, plus the kernel's per-row
/// minima `t[r]`.
#[derive(Debug, Default)]
pub(crate) struct LaneBuffers<T> {
    /// The source's lane.
    source: Vec<T>,
    /// The target's lane.
    target: Vec<T>,
    /// `t[r]` of the last kernel pass ([`Lane::NONE`] for skipped rows).
    row_min: Vec<T>,
}

/// The sketch's scratch in a [`QueryWorkspace`]: lane buffers of both lane
/// types, of which an index uses the one its [`crate::MetaGraph`] chose.
#[derive(Debug, Default)]
pub(crate) struct SketchLanes {
    narrow: LaneBuffers<i16>,
    wide: LaneBuffers<i32>,
}

/// Unpacks `v`'s label row from the index file's `LABELS` bytes into
/// `lane`, at any slot width: [`lane_width`]`(|R|)` values, "no entry"
/// where the row has none and in the padding. A landmark's lane is 0 in its
/// own column and "no entry" elsewhere (the paper's labels are defined on
/// `V \ R` only).
pub(crate) fn label_lane<T: Lane>(index: &QbsIndex, v: VertexId, lane: &mut Vec<T>) {
    lane.clear();
    lane.resize(lane_width(index.num_landmarks()), T::NONE);
    if let Some(column) = index.landmark_column(v) {
        lane[column] = T::from_distance(0);
        return;
    }
    let view = index.view();
    unpack_row(view.label_row(v), view.dist_width(), lane, |d| {
        d.map_or(T::NONE, T::from_distance)
    });
}

/// `min_j (row[j] + lane[j])` over whole blocks: the kernel's inner loop.
#[inline]
fn row_min<T: Lane>(row: &[T], lane: &[T]) -> T {
    let (row, _) = row.as_chunks::<LANE_BLOCK>();
    let (lane, _) = lane.as_chunks::<LANE_BLOCK>();
    row.iter()
        .zip(lane)
        .fold([T::NONE; LANE_BLOCK], |mut acc, (m, l)| {
            for ((a, &x), &y) in acc.iter_mut().zip(m).zip(l) {
                *a = (*a).min(x + y);
            }
            acc
        })
        .into_iter()
        .fold(T::NONE, T::min)
}

/// The min-plus kernel: `d⊤` of lanes `lu` and `lv` over the lane APSP
/// `apsp` (`|R|` rows of `lv.len()` lanes), as a lane value — at least
/// [`Lane::NONE`] when no landmark route exists. Leaves each row's `t[r]`
/// in `row_min`; a row whose label exceeds the minimum so far cannot
/// attain `d⊤`, and is skipped with `t[r] = NONE`.
fn min_plus<T: Lane>(apsp: &[T], lu: &[T], lv: &[T], row_min_out: &mut Vec<T>) -> T {
    row_min_out.clear();
    let mut bound = T::NONE;
    if lv.is_empty() {
        return bound;
    }
    for (&du, row) in lu.iter().zip(apsp.chunks_exact(lv.len())) {
        let t = if du < T::NONE && du <= bound {
            row_min(row, lv)
        } else {
            T::NONE
        };
        row_min_out.push(t);
        bound = bound.min(du + t);
    }
    bound
}

impl<T: Lane> LaneBuffers<T> {
    /// Unpacks both endpoints' label rows.
    fn fill(&mut self, index: &QbsIndex, source: VertexId, target: VertexId) {
        label_lane(index, source, &mut self.source);
        label_lane(index, target, &mut self.target);
    }

    /// `d⊤` of the filled lanes.
    fn bound(&mut self, apsp: &[T]) -> T {
        min_plus(apsp, &self.source, &self.target, &mut self.row_min)
    }

    /// The sketch of the filled lanes: `d⊤`, then a rescan of the rows `r`
    /// with `lu[r] + t[r] = d⊤` for the `r'` with `M[r][r'] + lv[r'] =
    /// t[r]`, in ascending `(r, r')` order — the label pairs attaining
    /// `d⊤`, in the order a double loop over the label entries meets them.
    fn sketch(
        &mut self,
        meta: &MetaGraph,
        apsp: &[T],
        source: VertexId,
        target: VertexId,
    ) -> Sketch {
        let bound = self.bound(apsp);
        if bound >= T::NONE {
            return Sketch::unreachable(source, target);
        }
        let mut sketch = Sketch {
            upper_bound: bound.to_distance(),
            ..Sketch::unreachable(source, target)
        };
        // The landmark pairs with r ≠ r' wait at the front of `meta_edges`
        // as `(r, r', d_M)`.
        let meta_edges = &mut sketch.meta_edges;
        let width = self.target.len();
        for (r, (&du, &t)) in self.source.iter().zip(&self.row_min).enumerate() {
            if du + t != bound {
                continue;
            }
            sketch.source_hops.push(SketchHop {
                landmark_idx: r,
                distance: du.to_distance(),
            });
            let row = &apsp[r * width..(r + 1) * width];
            for (rp, (&dm, &dv)) in row.iter().zip(&self.target).enumerate() {
                if dm + dv != t {
                    continue;
                }
                push_unique_hop(&mut sketch.target_hops, rp, dv.to_distance());
                if r != rp {
                    meta_edges.push((r, rp, dm.to_distance()));
                }
            }
        }

        // Every meta edge on a shortest meta-path of a kept pair (Algorithm
        // 3, lines 7-13), appended behind the pairs, which then make way.
        let kept = meta_edges.len();
        for p in 0..kept {
            let (r, rp, _) = meta_edges[p];
            meta.shortest_path_meta_edges(r, rp, meta_edges);
        }
        meta_edges.drain(..kept);
        meta_edges.sort_unstable();
        meta_edges.dedup();
        sketch
    }
}

fn push_unique_hop(hops: &mut Vec<SketchHop>, landmark_idx: usize, distance: Distance) {
    if !hops.iter().any(|h| h.landmark_idx == landmark_idx) {
        hops.push(SketchHop {
            landmark_idx,
            distance,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::longest_label;
    use crate::landmark::LandmarkStrategy;
    use crate::meta_graph::all_pairs_distances;
    use crate::serialize::{self, MapMode};
    use crate::{QbsConfig, QbsError, QueryRequest};
    use proptest::prelude::*;
    use qbs_baselines::GroundTruth;
    use qbs_gen::{Catalog, QueryWorkload, Scale};
    use qbs_graph::fixtures::{figure4_graph, figure4_landmarks};
    use qbs_graph::{Graph, GraphBuilder};

    /// A label as its `(landmark column, distance)` entries, ascending.
    type Entries = [(usize, Distance)];

    /// The d⊤ pair loop the kernel replaced, kept as its oracle: Eq. 3 over
    /// every pair of label entries, one APSP load per pair.
    fn pair_loop_bound(
        meta: &MetaGraph,
        source_label: &Entries,
        target_label: &Entries,
    ) -> Distance {
        let mut upper_bound = INFINITE_DISTANCE;
        for &(r, du) in source_label {
            for &(rp, dv) in target_label {
                let dm = meta.distance(r, rp);
                if dm != INFINITE_DISTANCE {
                    upper_bound = upper_bound.min(du + dm + dv);
                }
            }
        }
        upper_bound
    }

    /// The sketch assembly the kernel replaced, kept as its oracle: the
    /// pair loop for d⊤, a second pass over the label pairs attaining it,
    /// and for each such pair a scan of every meta edge.
    fn reference(
        meta: &MetaGraph,
        source: VertexId,
        target: VertexId,
        source_label: &Entries,
        target_label: &Entries,
    ) -> Sketch {
        let upper_bound = pair_loop_bound(meta, source_label, target_label);
        if upper_bound == INFINITE_DISTANCE {
            return Sketch::unreachable(source, target);
        }
        let mut sketch = Sketch {
            upper_bound,
            ..Sketch::unreachable(source, target)
        };
        for &(r, du) in source_label {
            for &(rp, dv) in target_label {
                let dm = meta.distance(r, rp);
                if dm == INFINITE_DISTANCE || du + dm + dv != upper_bound {
                    continue;
                }
                push_unique_hop(&mut sketch.source_hops, r, du);
                push_unique_hop(&mut sketch.target_hops, rp, dv);
                if r == rp {
                    continue;
                }
                sketch
                    .meta_edges
                    .extend(meta.edges().iter().copied().filter(|&(a, b, w)| {
                        let via = |x: usize, y: usize| {
                            meta.distance(r, x)
                                .saturating_add(w)
                                .saturating_add(meta.distance(y, rp))
                        };
                        via(a, b) == dm || via(b, a) == dm
                    }));
            }
        }
        sketch.meta_edges.sort_unstable();
        sketch.meta_edges.dedup();
        sketch
    }

    /// What the reference sketches of `pairs` exercised.
    #[derive(Default)]
    struct Reached {
        /// Some label pair had landmarks in different components.
        disconnected_pair: bool,
        /// Some sketch's meta edges close a cycle: tied meta-paths, one of
        /// them of several edges.
        tied_meta_paths: bool,
        /// Some endpoint was a landmark.
        landmark_endpoint: bool,
    }

    /// The label entries of `v` as the oracles read them: its label row,
    /// or `[(its own column, 0)]` for a landmark.
    fn effective_label(index: &QbsIndex, v: VertexId) -> Vec<(usize, Distance)> {
        match index.landmark_column(v) {
            Some(column) => vec![(column, 0)],
            None => index.view().label_entries(v).collect(),
        }
    }

    /// `label` as a lane of `width` values.
    fn lane_of<T: Lane>(width: usize, label: &Entries) -> Vec<T> {
        let mut lane = vec![T::NONE; width];
        for &(r, d) in label {
            lane[r] = T::from_distance(d);
        }
        lane
    }

    /// The kernel's `d⊤` and sketch of two labels given as entries, in the
    /// lane type `meta` chose.
    fn kernel(
        meta: &MetaGraph,
        source: VertexId,
        target: VertexId,
        source_label: &Entries,
        target_label: &Entries,
    ) -> (Distance, Sketch) {
        fn run<T: Lane>(
            meta: &MetaGraph,
            apsp: &[T],
            (source, target): (VertexId, VertexId),
            (source_label, target_label): (&Entries, &Entries),
        ) -> (Distance, Sketch) {
            let width = lane_width(meta.num_landmarks());
            let mut lanes = LaneBuffers {
                source: lane_of(width, source_label),
                target: lane_of(width, target_label),
                row_min: Vec::new(),
            };
            let bound = lanes.bound(apsp).to_distance();
            (bound, lanes.sketch(meta, apsp, source, target))
        }
        let (ends, labels) = ((source, target), (source_label, target_label));
        match meta.lane_apsp() {
            LaneApsp::Narrow(apsp) => run(meta, apsp, ends, labels),
            LaneApsp::Wide(apsp) => run(meta, apsp, ends, labels),
        }
    }

    /// Asserts `compute` equals [`reference`] on every field for each pair,
    /// and `compute_bounds` the pair loop, through one workspace.
    fn assert_matches_reference(index: &QbsIndex, pairs: &[(VertexId, VertexId)]) -> Reached {
        let meta = index.meta_graph();
        let mut reached = Reached::default();
        let mut ws = QueryWorkspace::new();
        for &(u, v) in pairs {
            let (lu, lv) = (effective_label(index, u), effective_label(index, v));
            let expected = reference(meta, u, v, &lu, &lv);
            assert_eq!(
                compute(index, &mut ws, u, v),
                expected,
                "sketch of ({u}, {v})"
            );
            assert_eq!(
                compute_bounds(index, &mut ws, u, v),
                pair_loop_bound(meta, &lu, &lv),
                "d⊤ of ({u}, {v})"
            );
            reached.disconnected_pair |= lu.iter().any(|&(r, _)| {
                lv.iter()
                    .any(|&(rp, _)| meta.distance(r, rp) == INFINITE_DISTANCE)
            });
            let mut ends: Vec<usize> = expected
                .meta_edges
                .iter()
                .flat_map(|&(a, b, _)| [a, b])
                .collect();
            ends.sort_unstable();
            ends.dedup();
            reached.tied_meta_paths |= !ends.is_empty() && expected.meta_edges.len() >= ends.len();
            reached.landmark_endpoint |= index.is_landmark(u) || index.is_landmark(v);
        }
        reached
    }

    /// A 40-vertex graph of `components` parts (vertex `x` lies in part
    /// `x mod components`): the `edges` moved into their first endpoint's
    /// part, plus, with `grid`, a width-4 grid over each part, whose
    /// equal-length routes tie meta-paths.
    fn random_graph(components: u32, grid: bool, edges: &[(u32, u32)]) -> Graph {
        const N: u32 = 40;
        let c = components;
        let mut list: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(a, b)| (a, b - b % c + a % c))
            .filter(|&(a, b)| b < N && a != b)
            .collect();
        if grid {
            for x in 0..N {
                list.extend(
                    [x + c, x + 4 * c]
                        .map(|y| (x, y))
                        .into_iter()
                        .filter(|e| e.1 < N),
                );
            }
        }
        let mut builder = GraphBuilder::from_edges(list);
        builder.reserve_vertices(N as usize);
        builder.build()
    }

    fn random_index(
        components: u32,
        grid: bool,
        edges: &[(u32, u32)],
        landmarks: usize,
        seed: u64,
    ) -> QbsIndex {
        let config = QbsConfig {
            landmarks: LandmarkStrategy::Random {
                count: landmarks,
                seed,
            },
        };
        QbsIndex::build(random_graph(components, grid, edges), config)
    }

    fn all_pairs(index: &QbsIndex) -> Vec<(VertexId, VertexId)> {
        let n = index.num_vertices() as VertexId;
        (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The one-pass assembly equals the reference on every vertex pair
        /// of random graphs with |R| ∈ 0..=12.
        #[test]
        fn one_pass_sketch_equals_the_reference_on_random_graphs(
            components in 1u32..4,
            grid in 0u32..2,
            edges in prop::collection::vec((0u32..40, 0u32..40), 0..80),
            landmarks in 0usize..13,
            seed in 0u64..1_000,
        ) {
            let index = random_index(components, grid == 1, &edges, landmarks, seed);
            prop_assert!(index.landmarks().len() == landmarks);
            assert_matches_reference(&index, &all_pairs(&index));
        }
    }

    /// The random graphs above reach disconnected landmark pairs, tied
    /// multi-edge meta-paths and landmark endpoints.
    #[test]
    fn random_graphs_reach_the_cases_the_property_is_for() {
        let mut reached = Reached::default();
        for seed in 0..8u64 {
            let edges: Vec<(u32, u32)> = (0..40u64)
                .map(|k| {
                    let x = qbs_gen::rng::splitmix64(seed * 64 + k);
                    ((x % 40) as u32, ((x >> 32) % 40) as u32)
                })
                .collect();
            let index = random_index(2, seed % 2 == 0, &edges, 12, seed);
            let case = assert_matches_reference(&index, &all_pairs(&index));
            reached.disconnected_pair |= case.disconnected_pair;
            reached.tied_meta_paths |= case.tied_meta_paths;
            reached.landmark_endpoint |= case.landmark_endpoint;
        }
        assert!(reached.disconnected_pair, "no disconnected landmark pair");
        assert!(reached.tied_meta_paths, "no tied multi-edge meta-paths");
        assert!(reached.landmark_endpoint, "no landmark endpoint");
    }

    /// |R| = 100 on the Youtube stand-in at Small scale: 2 000 uniform
    /// pairs and every landmark against a uniform partner.
    #[test]
    fn one_pass_sketch_equals_the_reference_at_a_hundred_landmarks() {
        let spec = *Catalog::paper_table1()
            .get(qbs_gen::catalog::DatasetId::Youtube)
            .expect("Youtube stand-in");
        let graph = spec.generate(Scale::Small);
        let mut pairs = QueryWorkload::sample(&graph, 2_000, 34).pairs().to_vec();
        let index = QbsIndex::build(graph, QbsConfig::with_landmark_count(100));
        assert_eq!(index.landmarks().len(), 100);
        let partners: Vec<VertexId> = pairs[..100].iter().map(|&(u, _)| u).collect();
        for (&r, &u) in index.landmarks().iter().zip(&partners) {
            pairs.extend([(r, u), (u, r)]);
        }
        let reached = assert_matches_reference(&index, &pairs);
        assert!(reached.tied_meta_paths && reached.landmark_endpoint);
    }

    fn setup() -> (Graph, QbsIndex) {
        let g = figure4_graph();
        let index = QbsIndex::build(
            g.clone(),
            QbsConfig::with_explicit_landmarks(figure4_landmarks()),
        );
        (g, index)
    }

    /// The sketch of `(u, v)` through the public entry point.
    fn sketch_of(index: &QbsIndex, u: VertexId, v: VertexId) -> Sketch {
        compute(index, &mut QueryWorkspace::new(), u, v)
    }

    #[test]
    fn example_4_7_sketch_for_query_6_11() {
        let (_, meta) = setup();
        let sketch = sketch_of(&meta, 6, 11);
        // d⊤(6,11) = 5 = d_G(6,11).
        assert_eq!(sketch.upper_bound, 5);
        assert!(sketch.is_reachable_via_landmarks());
        // Source hop: (6,1) with σ = 1.
        assert_eq!(
            sketch.source_hops,
            vec![SketchHop {
                landmark_idx: 0,
                distance: 1
            }]
        );
        // Target hops: (3,11) σ=2 and (2,11) σ=3 (landmark columns 2 and 1).
        let mut target: Vec<(usize, Distance)> = sketch
            .target_hops
            .iter()
            .map(|h| (h.landmark_idx, h.distance))
            .collect();
        target.sort_unstable();
        assert_eq!(target, vec![(1, 3), (2, 2)]);
        // The sketch contains all three meta edges (Figure 6(b)).
        assert_eq!(sketch.meta_edges.len(), 3);
        // Vertices of the sketch: 2 endpoints + 3 landmarks.
        assert_eq!(sketch.num_sketch_vertices(), 5);
    }

    #[test]
    fn upper_bound_is_an_upper_bound_on_the_true_distance() {
        // Corollary 4.6 on every labelled pair of the figure graph.
        let (g, meta) = setup();
        for u in g.vertices() {
            for v in g.vertices() {
                if u == v {
                    continue;
                }
                let sketch = sketch_of(&meta, u, v);
                let d = qbs_graph::traversal::bfs_distances(&g, u)[v as usize];
                assert!(
                    sketch.upper_bound >= d,
                    "pair ({u},{v}): {} < {d}",
                    sketch.upper_bound
                );
            }
        }
    }

    #[test]
    fn tight_bound_when_a_shortest_path_passes_a_landmark() {
        let (_, meta) = setup();
        // d(4, 9) = 3 via 4-3-2-9 (through landmarks 3 and 2) — the sketch
        // must find exactly 3.
        assert_eq!(sketch_of(&meta, 4, 9).upper_bound, 3);
    }

    #[test]
    fn landmark_endpoint_uses_synthetic_zero_label() {
        let (_, meta) = setup();
        // Query from landmark 1 (column 0) to vertex 11: its lane is 0 in
        // column 0 and "no entry" elsewhere.
        let sketch = sketch_of(&meta, 1, 11);
        // d(1, 11) = 4 (1-2-9-10-11 or 1-4-3-12-11); through landmarks it is
        // also 4 (e.g. meta path 1→3 of length 2 plus δ(11,3)=2).
        assert_eq!(sketch.upper_bound, 4);
        assert_eq!(
            kernel(
                meta.meta_graph(),
                1,
                11,
                &[(0, 0)],
                &effective_label(&meta, 11)
            )
            .1,
            sketch
        );
    }

    #[test]
    fn unreachable_sketch_when_labels_do_not_connect() {
        let (_, meta) = setup();
        let (bound, sketch) = kernel(meta.meta_graph(), 6, 0, &[(0, 1)], &[]);
        assert!(!sketch.is_reachable_via_landmarks());
        assert_eq!(sketch.upper_bound, INFINITE_DISTANCE);
        assert_eq!(bound, INFINITE_DISTANCE);
        assert_eq!(Sketch::unreachable(6, 0), sketch);
        // Vertex 0 is isolated: its lane is all "no entry".
        assert_eq!(sketch_of(&meta, 6, 0), Sketch::unreachable(6, 0));
    }

    #[test]
    fn upper_bound_agrees_with_full_sketch_on_all_pairs() {
        let (g, meta) = setup();
        let mut ws = QueryWorkspace::new();
        for u in g.vertices() {
            for v in g.vertices() {
                let sketch = compute(&meta, &mut ws, u, v);
                assert_eq!(
                    compute_bounds(&meta, &mut ws, u, v),
                    sketch.upper_bound,
                    "d⊤ of ({u},{v})"
                );
            }
        }
    }

    /// The index a build owns on the heap and a mapping of its saved file
    /// sketch every pair identically.
    #[test]
    fn sketches_agree_between_owned_and_view_stores() {
        let (g, owned) = setup();
        let dir = std::env::temp_dir().join("qbs_sketch_mapped_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("fig4.qbs");
        serialize::save_to_file(&owned, &path).expect("save");
        let mapped = serialize::open_from_file(&path, MapMode::Mmap).expect("map");
        let (mut heap_ws, mut mapped_ws) = (QueryWorkspace::new(), QueryWorkspace::new());
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    compute(&owned, &mut heap_ws, u, v),
                    compute(&mapped, &mut mapped_ws, u, v),
                    "sketch of ({u},{v}) diverged between heap and mapping"
                );
                assert_eq!(
                    compute_bounds(&owned, &mut heap_ws, u, v),
                    compute_bounds(&mapped, &mut mapped_ws, u, v),
                    "bounds of ({u},{v}) diverged between heap and mapping"
                );
            }
        }
    }

    #[test]
    fn sketch_never_duplicates_hops_or_meta_edges() {
        let (g, meta) = setup();
        for u in g.vertices() {
            for v in g.vertices() {
                let sketch = sketch_of(&meta, u, v);
                let mut hops: Vec<usize> =
                    sketch.source_hops.iter().map(|h| h.landmark_idx).collect();
                hops.sort_unstable();
                let before = hops.len();
                hops.dedup();
                assert_eq!(before, hops.len());
                let mut edges = sketch.meta_edges.clone();
                let before = edges.len();
                edges.dedup();
                assert_eq!(before, edges.len());
            }
        }
    }

    /// A meta-graph over `r` landmarks from arbitrary `(i, j, σ)` edges
    /// (folded into `i < j < r`, the first of each pair kept), serving
    /// labels of `label_bits`-bit slots.
    fn meta_graph_of(
        r: usize,
        edges: &[(usize, usize, Distance)],
        label_bits: usize,
    ) -> crate::Result<MetaGraph> {
        let mut kept: Vec<(usize, usize, Distance)> = Vec::new();
        for &(a, b, sigma) in edges {
            let (i, j) = (a % r.max(1), b % r.max(1));
            let (i, j) = (i.min(j), i.max(j));
            if i != j && !kept.iter().any(|&(x, y, _)| (x, y) == (i, j)) {
                kept.push((i, j, sigma));
            }
        }
        let apsp = all_pairs_distances(r, &kept);
        let delta = vec![Vec::new(); kept.len()];
        MetaGraph::from_parts((0..r as VertexId).collect(), kept, &apsp, delta, label_bits)
    }

    /// One random kernel case: |R|, the label slot width, meta edges and
    /// the two labels.
    struct LanesCase {
        r: usize,
        label_bits: usize,
        edges: Vec<(usize, usize, Distance)>,
        source_label: Vec<(usize, Distance)>,
        target_label: Vec<(usize, Distance)>,
    }

    /// The case `seed` draws: |R| from the block boundaries (`r_pick`),
    /// the label slot width (`kind % 3`) and the weight class (`kind / 3`),
    /// meta edges whose weights are small or near the `i16` guard, and two
    /// labels whose distances fit the slot width, each all sentinel one
    /// time in eight.
    fn lanes_case(seed: u64, r_pick: usize, kind: usize) -> LanesCase {
        let mut k = 0u64;
        let mut next = |span: u64| {
            k += 1;
            qbs_gen::rng::splitmix64(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                % span
        };
        let r = [0usize, 1, 63, 64, 65, 80][r_pick];
        let label_bits = [4, 8, 16][kind % 3];
        let (low, span) = [(1, 3), (1, 300), (3_000, 5_500)][kind / 3];
        let edges = (0..next(2 * r as u64 + 1))
            .map(|_| {
                (
                    next(80) as usize,
                    next(80) as usize,
                    low + next(span) as Distance,
                )
            })
            .collect();
        let cap = u64::from(longest_label(label_bits)) + 1;
        let mut label = || -> Vec<(usize, Distance)> {
            if next(8) == 0 {
                return Vec::new();
            }
            (0..r)
                .filter_map(|column| {
                    let d = next(cap) as Distance;
                    (next(10) < 7).then_some((column, d))
                })
                .collect()
        };
        let (source_label, target_label) = (label(), label());
        LanesCase {
            r,
            label_bits,
            edges,
            source_label,
            target_label,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The kernel equals the pair loops on random label lanes and meta
        /// matrices: all-sentinel rows, disconnected landmark pairs,
        /// |R| ∈ {0, 1, 63, 64, 65, 80}, and landmark distances on both
        /// sides of the `i16` guard.
        #[test]
        fn kernel_equals_the_pair_loops_on_random_lanes(
            seed in 0u64..u64::MAX,
            r_pick in 0usize..6,
            kind in 0usize..9,
        ) {
            let case = lanes_case(seed, r_pick, kind);
            let (lu, lv) = (&case.source_label, &case.target_label);
            let meta = meta_graph_of(case.r, &case.edges, case.label_bits).expect("within i32 lanes");
            let (bound, sketch) = kernel(&meta, 1, 2, lu, lv);
            prop_assert_eq!(bound, pair_loop_bound(&meta, lu, lv));
            prop_assert_eq!(sketch, reference(&meta, 1, 2, lu, lv));
        }
    }

    /// Labels of at most eight bits keep `i16` lanes while the longest
    /// landmark distance leaves every finite sum below `i16`'s "no entry"
    /// (16 383): up to 16 354 with four-bit labels (at most 14), up to
    /// 15 874 with eight-bit ones (at most 254). One more, or sixteen-bit
    /// labels, take `i32` lanes; a distance that even `i32` sums cannot
    /// carry is refused.
    #[test]
    fn the_lane_type_switches_at_the_i16_guard() {
        let longest = |sigma: Distance, bits: usize| meta_graph_of(2, &[(0, 1, sigma)], bits);
        for (sigma, bits, narrow) in [
            (16_354, 4, true),
            (16_355, 4, false),
            (15_874, 8, true),
            (15_875, 8, false),
            (1, 16, false),
        ] {
            let meta = longest(sigma, bits).expect("fits");
            assert_eq!(
                matches!(meta.lane_apsp(), LaneApsp::Narrow(_)),
                narrow,
                "σ = {sigma}, {bits} bits"
            );
            let label = longest_label(bits);
            let (far, near_other) = ([(0, label)], [(1, label)]);
            let (bound, sketch) = kernel(&meta, 1, 2, &far, &near_other);
            assert_eq!(bound, 2 * label + sigma, "σ = {sigma}, {bits} bits");
            assert_eq!(sketch, reference(&meta, 1, 2, &far, &near_other));
            assert_eq!(meta.distance(0, 1), sigma);
        }
        let i32_limit = 0x3FFF_FFFF - 2 * 65_534 - 1;
        let meta = longest(i32_limit, 16).expect("the longest i32 lanes carry");
        let (bound, _) = kernel(&meta, 1, 2, &[(0, 65_534)], &[(1, 65_534)]);
        assert_eq!(bound, i32_limit + 2 * 65_534);
        assert!(matches!(
            longest(i32_limit + 1, 16),
            Err(QbsError::MetaDistanceTooLarge { distance }) if distance == i32_limit + 1
        ));
    }

    /// A 600-vertex path with one landmark in its middle: labels reach
    /// 299, so label slots are sixteen bits wide and the lanes `i32`. Every
    /// answer of every mode equals the BFS ground truth.
    #[test]
    fn two_byte_labels_take_i32_lanes_and_answer_exactly() {
        let graph = GraphBuilder::from_edges((1..600u32).map(|v| (v - 1, v))).build();
        let truth = GroundTruth::new(graph.clone());
        let index = QbsIndex::build(graph, QbsConfig::with_explicit_landmarks(vec![300]));
        assert_eq!(index.view().dist_width(), 16);
        assert!(matches!(index.meta_graph().lane_apsp(), LaneApsp::Wide(_)));
        let mut ws = QueryWorkspace::new();
        let pairs = (0..600u32)
            .step_by(7)
            .flat_map(|u| (0..600u32).step_by(13).map(move |v| (u, v)));
        for (u, v) in pairs {
            let expected = truth.shortest_path_graph(u, v);
            let mut outcome = |req: QueryRequest| index.execute_with(&mut ws, &req, None);
            let distance = outcome(QueryRequest::distance(u, v));
            assert_eq!(distance.distance(), Some(expected.distance()), "({u},{v})");
            let path_graph = outcome(QueryRequest::path_graph(u, v));
            assert_eq!(path_graph.path_graph(), Some(&expected), "({u},{v})");
            let sketch = outcome(QueryRequest::sketch(u, v));
            let sketch = sketch.sketch().expect("sketch mode");
            if u != v {
                let (lu, lv) = (effective_label(&index, u), effective_label(&index, v));
                assert_eq!(
                    *sketch,
                    reference(index.meta_graph(), u, v, &lu, &lv),
                    "({u},{v})"
                );
                assert!(sketch.upper_bound >= expected.distance());
            }
        }
    }
}
