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
//! With the meta-graph APSP precomputed (§5.2), [`compute`] is one
//! `O(|L_u|·|L_v|)` pass over the label pairs, plus `O(|R| + |D|²)` for
//! each label pair `(r, r')`, `r ≠ r'`, that attains `d⊤`, where `D` is the
//! set of landmarks on a shortest `r ⇝ r'` meta-path
//! ([`crate::MetaGraph::shortest_path_meta_edges`]).

use qbs_graph::{Distance, VertexId, INFINITE_DISTANCE};

use crate::store::QbsIndex;

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

/// Computes the sketch for a query (Algorithm 3).
///
/// `source_label` and `target_label` are the effective labels of the two
/// endpoints as `(landmark_idx, distance)` pairs — for a landmark endpoint
/// the caller passes the synthetic label `[(its own column, 0)]`.
pub fn compute(
    index: &QbsIndex,
    source: VertexId,
    target: VertexId,
    source_label: &[(usize, Distance)],
    target_label: &[(usize, Distance)],
) -> Sketch {
    // One pass: d⊤ = min over label pairs of δ_ur + d_M(r, r') + δ_r'v
    // (Eq. 3). The hops and the landmark pairs of every label pair at the
    // running minimum are kept, and dropped when it falls; the pairs with
    // r ≠ r' wait at the front of `meta_edges` as `(r, r', d_M)`.
    let meta = index.meta_graph();
    let mut upper_bound = INFINITE_DISTANCE;
    let mut source_hops: Vec<SketchHop> = Vec::new();
    let mut target_hops: Vec<SketchHop> = Vec::new();
    let mut meta_edges: Vec<(usize, usize, Distance)> = Vec::new();
    for &(r, du) in source_label {
        for &(rp, dv) in target_label {
            let dm = meta.distance(r, rp);
            if dm == INFINITE_DISTANCE || du + dm + dv > upper_bound {
                continue;
            }
            if du + dm + dv < upper_bound {
                upper_bound = du + dm + dv;
                source_hops.clear();
                target_hops.clear();
                meta_edges.clear();
            }
            push_unique_hop(&mut source_hops, r, du);
            push_unique_hop(&mut target_hops, rp, dv);
            if r != rp {
                meta_edges.push((r, rp, dm));
            }
        }
    }
    if upper_bound == INFINITE_DISTANCE {
        return Sketch::unreachable(source, target);
    }

    // Every meta edge on a shortest meta-path of a kept pair (Algorithm 3,
    // lines 7-13), appended behind the pairs, which then make way.
    let kept = meta_edges.len();
    for p in 0..kept {
        let (r, rp, _) = meta_edges[p];
        meta.shortest_path_meta_edges(r, rp, &mut meta_edges);
    }
    meta_edges.drain(..kept);
    meta_edges.sort_unstable();
    meta_edges.dedup();

    Sketch {
        source,
        target,
        upper_bound,
        source_hops,
        target_hops,
        meta_edges,
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

/// Computes only `d⊤_uv` (Eq. 3; Algorithm 3 without lines 7-13's edge
/// assembly) in one allocation-free |L_u|×|L_v| pass: the input of the
/// distance-only hot path (a [`crate::QueryMode::Distance`] request), where
/// the full [`Sketch`] — whose vectors exist to drive the recover search —
/// would be wasted work. [`INFINITE_DISTANCE`] when no landmark route
/// exists.
///
/// Agrees with [`compute`]: `compute_bounds(...) == compute(...).upper_bound`
/// (asserted by the unit tests below).
pub fn compute_bounds(
    index: &QbsIndex,
    source_label: &[(usize, Distance)],
    target_label: &[(usize, Distance)],
) -> Distance {
    let meta = index.meta_graph();
    let mut upper_bound = INFINITE_DISTANCE;
    for &(r, du) in source_label {
        for &(rp, dv) in target_label {
            let dm = meta.distance(r, rp);
            if dm == INFINITE_DISTANCE {
                continue;
            }
            upper_bound = upper_bound.min(du + dm + dv);
        }
    }
    upper_bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmark::LandmarkStrategy;
    use crate::serialize::{self, MapMode};
    use crate::QbsConfig;
    use proptest::prelude::*;
    use qbs_gen::{Catalog, QueryWorkload, Scale};
    use qbs_graph::fixtures::{figure4_graph, figure4_landmarks};
    use qbs_graph::{Graph, GraphBuilder};

    /// The sketch assembly [`compute`] replaced, kept as its oracle: one
    /// pass for d⊤, a second over the label pairs attaining it, and for
    /// each such pair a scan of every meta edge.
    fn reference(
        index: &QbsIndex,
        source: VertexId,
        target: VertexId,
        source_label: &[(usize, Distance)],
        target_label: &[(usize, Distance)],
    ) -> Sketch {
        let meta = index.meta_graph();
        let mut upper_bound = INFINITE_DISTANCE;
        for &(r, du) in source_label {
            for &(rp, dv) in target_label {
                let dm = meta.distance(r, rp);
                if dm != INFINITE_DISTANCE {
                    upper_bound = upper_bound.min(du + dm + dv);
                }
            }
        }
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

    /// Asserts `compute` equals [`reference`] on every field for each pair,
    /// with effective labels (a landmark endpoint is its own column at 0).
    fn assert_matches_reference(index: &QbsIndex, pairs: &[(VertexId, VertexId)]) -> Reached {
        let meta = index.meta_graph();
        let mut reached = Reached::default();
        let (mut lu, mut lv) = (Vec::new(), Vec::new());
        for &(u, v) in pairs {
            index.fill_effective_label(u, &mut lu);
            index.fill_effective_label(v, &mut lv);
            let expected = reference(index, u, v, &lu, &lv);
            assert_eq!(
                compute(index, u, v, &lu, &lv),
                expected,
                "sketch of ({u}, {v})"
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

    fn label_of(index: &QbsIndex, v: VertexId) -> Vec<(usize, Distance)> {
        index.view().label_entries(v).collect()
    }

    #[test]
    fn example_4_7_sketch_for_query_6_11() {
        let (_, meta) = setup();
        let sketch = compute(&meta, 6, 11, &label_of(&meta, 6), &label_of(&meta, 11));
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
                let lu = label_of(&meta, u);
                let lv = label_of(&meta, v);
                if lu.is_empty() || lv.is_empty() || u == v {
                    continue;
                }
                let sketch = compute(&meta, u, v, &lu, &lv);
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
        let sketch = compute(&meta, 4, 9, &label_of(&meta, 4), &label_of(&meta, 9));
        assert_eq!(sketch.upper_bound, 3);
    }

    #[test]
    fn landmark_endpoint_uses_synthetic_zero_label() {
        let (_, meta) = setup();
        // Query from landmark 1 (column 0) to vertex 11.
        let sketch = compute(&meta, 1, 11, &[(0, 0)], &label_of(&meta, 11));
        // d(1, 11) = 4 (1-2-9-10-11 or 1-4-3-12-11); through landmarks it is
        // also 4 (e.g. meta path 1→3 of length 2 plus δ(11,3)=2).
        assert_eq!(sketch.upper_bound, 4);
    }

    #[test]
    fn unreachable_sketch_when_labels_do_not_connect() {
        let (_, meta) = setup();
        let sketch = compute(&meta, 6, 0, &[(0, 1)], &[]);
        assert!(!sketch.is_reachable_via_landmarks());
        assert_eq!(sketch.upper_bound, INFINITE_DISTANCE);
        assert_eq!(Sketch::unreachable(6, 0), sketch);
    }

    #[test]
    fn upper_bound_agrees_with_full_sketch_on_all_pairs() {
        let (g, meta) = setup();
        for u in g.vertices() {
            for v in g.vertices() {
                let lu = label_of(&meta, u);
                let lv = label_of(&meta, v);
                let sketch = compute(&meta, u, v, &lu, &lv);
                assert_eq!(
                    compute_bounds(&meta, &lu, &lv),
                    sketch.upper_bound,
                    "d⊤ of ({u},{v})"
                );
            }
        }
        assert_eq!(compute_bounds(&meta, &[(0, 1)], &[]), INFINITE_DISTANCE);
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
        for u in g.vertices() {
            for v in g.vertices() {
                let lu = label_of(&owned, u);
                let lv = label_of(&owned, v);
                assert_eq!(lu, label_of(&mapped, u));
                assert_eq!(
                    compute(&owned, u, v, &lu, &lv),
                    compute(&mapped, u, v, &lu, &lv),
                    "sketch of ({u},{v}) diverged between heap and mapping"
                );
                assert_eq!(
                    compute_bounds(&owned, &lu, &lv),
                    compute_bounds(&mapped, &lu, &lv),
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
                let sketch = compute(&meta, u, v, &label_of(&meta, u), &label_of(&meta, v));
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
}
