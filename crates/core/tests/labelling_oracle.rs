//! Algorithm 2's labelling against the builder it replaced.
//!
//! `labelling::build_sequential` runs every landmark's BFS at once, as the
//! bits of per-vertex masks, up to 32 landmarks per pass. The reference
//! below is the builder that came before it, kept verbatim: one two-queue
//! BFS per landmark, its column installed into the slot matrix, its meta
//! edges merged. The two must agree on every slot byte, the slot width (4,
//! 8 or 16 bits) and the meta edges, for landmark counts on both sides of
//! every pass boundary.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use qbs_core::format::{self, SectionKind, ViewBuf};
use qbs_core::labelling::{build_sequential, LabellingScheme, NO_LABEL};
use qbs_core::{LandmarkStrategy, QbsConfig, QbsIndex};
use qbs_gen::catalog::DatasetId;
use qbs_gen::prelude::*;
use qbs_graph::{Distance, Graph, GraphBuilder, VertexId};

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

fn saturate(d: Distance) -> u16 {
    if d >= NO_LABEL as Distance {
        NO_LABEL - 1
    } else {
        d as u16
    }
}

/// What the per-landmark builder produced: the slot matrix's bytes, its
/// slot width in bits and the merged meta edges.
struct Reference {
    slots: Vec<u8>,
    width: usize,
    meta_edges: Vec<(usize, usize, Distance)>,
}

/// The per-landmark builder: one [`landmark_bfs`] per landmark, each column
/// installed into a row-major `|V| × |R|` matrix, and the meta edges of
/// both roots merged under `(min, max)` keys. The matrix is encoded at the
/// narrowest slot width that holds its longest distance below all-ones:
/// four bits (two slots a byte, the even column low, an odd row padded
/// with `0xF`), one byte, or two little-endian bytes.
fn reference(graph: &Graph, landmarks: &[VertexId]) -> Reference {
    let (n, r) = (graph.num_vertices(), landmarks.len());
    let mut landmark_column = vec![u32::MAX; n];
    for (i, &v) in landmarks.iter().enumerate() {
        landmark_column[v as usize] = i as u32;
    }
    let mut matrix = vec![NO_LABEL; n * r];
    let mut meta: BTreeMap<(usize, usize), Distance> = BTreeMap::new();
    for i in 0..r {
        let bfs = landmark_bfs(graph, landmarks, &landmark_column, i);
        for (v, &d) in bfs.column.iter().enumerate() {
            matrix[v * r + i] = d;
        }
        for (j, sigma) in bfs.meta_edges {
            let entry = meta.entry((i.min(j), i.max(j))).or_insert(sigma);
            assert_eq!(*entry, sigma, "meta edge weight must agree from both roots");
        }
    }
    let longest = matrix.iter().copied().filter(|&d| d != NO_LABEL).max();
    let width = match longest.unwrap_or(0) {
        0..15 => 4,
        15..255 => 8,
        _ => 16,
    };
    let mut slots = Vec::new();
    for row in matrix.chunks(r.max(1)) {
        match width {
            4 => slots.extend(row.chunks(2).map(|pair| {
                let nibble = |d: Option<&u16>| d.map_or(0xF, |&d| d.min(0xF) as u8);
                nibble(pair.first()) | nibble(pair.get(1)) << 4
            })),
            8 => slots.extend(row.iter().map(|&d| d.min(0xFF) as u8)),
            _ => slots.extend(row.iter().flat_map(|&d| d.to_le_bytes())),
        }
    }
    Reference {
        slots,
        width,
        meta_edges: meta.into_iter().map(|((i, j), s)| (i, j, s)).collect(),
    }
}

/// Builds the labelling scheme of `landmarks` over `graph` and asserts it
/// equals the per-landmark builder's. Returns it for further checks.
fn assert_matches_reference(graph: &Graph, landmarks: &[VertexId], what: &str) -> LabellingScheme {
    let scheme = build_sequential(graph, landmarks);
    let expected = reference(graph, landmarks);
    assert_eq!(scheme.landmarks, landmarks, "{what}: landmarks");
    assert_eq!(
        scheme.labelling.slot_width(),
        expected.width,
        "{what}: slot width"
    );
    assert_eq!(scheme.meta_edges, expected.meta_edges, "{what}: meta edges");
    let slots = scheme.labelling.clone().into_buffer();
    assert_eq!(slots.len(), expected.slots.len(), "{what}: slot bytes");
    if let Some(k) = (0..slots.len()).find(|&k| slots[k] != expected.slots[k]) {
        let row = k / format::label_row_len(landmarks.len(), expected.width);
        panic!("{what}: slot byte {k} (vertex {row}) differs");
    }
    scheme
}

/// Landmark counts on both sides of every pass boundary (32 landmarks per
/// pass) up to 65, and a fifth pass at 129.
const COUNTS: [usize; 13] = [0, 1, 2, 3, 20, 31, 32, 33, 63, 64, 65, 80, 129];

/// The generator families of `view_serving.rs`, two sizes and seeds each,
/// with landmarks by degree and at random.
#[test]
fn multi_source_labels_match_the_per_landmark_bfs_on_generator_families() {
    for seed in [3u64, 77] {
        for vertices in [60usize, 400] {
            let graphs = [
                (
                    "barabasi-albert",
                    barabasi_albert::generate(&BarabasiAlbertConfig {
                        vertices,
                        edges_per_vertex: 2,
                        seed,
                    }),
                ),
                (
                    "erdos-renyi",
                    erdos_renyi::generate(&ErdosRenyiConfig {
                        vertices,
                        edges: vertices * 2,
                        seed,
                    }),
                ),
                (
                    "watts-strogatz",
                    watts_strogatz::generate(&WattsStrogatzConfig {
                        vertices,
                        neighbors: 2,
                        rewire_probability: 0.2,
                        seed,
                    }),
                ),
                (
                    "power-law",
                    power_law::generate(&PowerLawConfig {
                        vertices,
                        edges: vertices * 2,
                        exponent: 2.5,
                        seed,
                    }),
                ),
            ];
            for (family, graph) in &graphs {
                for count in COUNTS {
                    for strategy in [
                        LandmarkStrategy::HighestDegree { count },
                        LandmarkStrategy::Random { count, seed },
                    ] {
                        let landmarks = strategy.select(graph);
                        assert_matches_reference(
                            graph,
                            &landmarks,
                            &format!("{family} n={vertices} seed={seed} {strategy:?}"),
                        );
                    }
                }
            }
        }
    }
}

/// Every Table 1 stand-in of the catalog at the small scale.
#[test]
fn multi_source_labels_match_the_per_landmark_bfs_on_small_catalog_graphs() {
    let graphs: Vec<(&str, Graph)> = Catalog::paper_table1()
        .specs()
        .iter()
        .map(|spec| (spec.id.name(), spec.generate(Scale::Small)))
        .collect();
    assert_eq!(graphs.len(), 12);
    // Two threads share the cases out, the largest |R| first.
    let cases: Vec<(usize, &(&str, Graph))> = COUNTS
        .into_iter()
        .rev()
        .flat_map(|count| graphs.iter().map(move |graph| (count, graph)))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(&(count, (name, graph))) = cases.get(next.fetch_add(1, Relaxed)) {
                    let landmarks = LandmarkStrategy::HighestDegree { count }.select(graph);
                    assert_matches_reference(graph, &landmarks, &format!("{name} |R|={count}"));
                }
            });
        }
    });
}

/// On a path longer than 255 the slots widen twice mid-build, to eight and
/// then sixteen bits, in the first pass or after a whole pass has written
/// four-bit slots; a shorter path stops at eight bits or stays at four.
#[test]
fn slots_widen_mid_build_on_a_path_past_255() {
    for (vertices, bits) in [(15u32, 4), (16, 8), (255, 8), (256, 16)] {
        let path = GraphBuilder::from_edges((1..vertices).map(|v| (v - 1, v))).build();
        let scheme = assert_matches_reference(&path, &[0], &format!("{vertices}-vertex path"));
        assert_eq!(scheme.labelling.slot_width(), bits, "{vertices} vertices");
        assert_eq!(scheme.labelling.get(vertices - 1, 0), Some(vertices - 1));
    }
    let path = GraphBuilder::from_edges((1..1_000u32).map(|v| (v - 1, v))).build();
    let first_pass = assert_matches_reference(&path, &[0], "one landmark at an end");
    assert_eq!(first_pass.labelling.slot_width(), 16);
    assert_eq!(first_pass.labelling.get(999, 0), Some(999));
    assert_matches_reference(&path, &[300, 0, 999], "three landmarks");
    // Landmarks 0, 2, …, 62 fill the first pass and label only the odd
    // vertices between them, at distance 1; landmark 64, in the second
    // pass, labels out to the far end.
    let landmarks: Vec<VertexId> = (0..=64).step_by(2).collect();
    let second_pass = assert_matches_reference(&path, &landmarks, "widening in pass two");
    assert_eq!(second_pass.labelling.slot_width(), 16);
    assert_eq!(second_pass.labelling.get(61, 30), Some(1));
    assert_eq!(second_pass.labelling.get(63, 31), Some(1));
    assert_eq!(second_pass.labelling.get(63, 32), Some(1));
    assert_eq!(second_pass.labelling.get(364, 32), Some(300));
}

/// An isolated vertex, a component of landmarks only, adjacent landmarks
/// (σ = 1), a landmark on every shortest path between two others, and a
/// graph whose every vertex is a landmark.
#[test]
fn multi_source_labels_match_on_corner_cases() {
    // 0 isolated; {1, 2} landmarks only; 3 — 4 — 5 — 6 — 7 with 3 and 4
    // adjacent landmarks and 6 a landmark between 5 and 7; 8 hangs off 7.
    let mut builder = GraphBuilder::from_edges([(1u32, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]);
    builder.reserve_vertices(9);
    let graph = builder.build();
    let scheme = assert_matches_reference(&graph, &[1, 2, 3, 4, 6], "corner cases");
    assert_eq!(scheme.meta_edges, [(0, 1, 1), (2, 3, 1), (3, 4, 2)]);
    assert_eq!(scheme.labelling.entries(0).count(), 0, "isolated vertex");
    assert_eq!(scheme.labelling.get(5, 2), None, "behind landmark 4");
    assert_eq!(scheme.labelling.get(5, 3), Some(1));
    assert_eq!(scheme.labelling.get(8, 4), Some(2));
    assert_eq!(scheme.labelling.get(8, 3), None, "behind landmark 6");
    let every: Vec<VertexId> = graph.vertices().collect();
    assert_matches_reference(&graph, &every, "every vertex a landmark");
    let reversed: Vec<VertexId> = every.iter().rev().copied().collect();
    assert_matches_reference(&graph, &reversed, "every vertex, reversed");
}

/// The built index at the large scale, where the passes and the labels'
/// reach are those of real builds: its label and meta-edge sections equal
/// the per-landmark builder's slot bytes and meta edges, and its header
/// their slot width. Every other section is written from the graph, the
/// landmarks and these two, so this is byte identity with an index whose
/// labels the per-landmark builder built. Run in release:
/// `cargo test --release -p qbs-core --test labelling_oracle -- --include-ignored`.
#[test]
#[ignore = "large-scale graphs; run in release"]
fn large_index_bytes_match_the_per_landmark_bfs() {
    let catalog = Catalog::paper_table1();
    for id in [
        DatasetId::Youtube,
        DatasetId::Skitter,
        DatasetId::LiveJournal,
    ] {
        let graph = catalog
            .get(id)
            .expect("in the catalog")
            .generate(Scale::Large);
        for count in [5usize, 20, 80] {
            let what = format!("{} |R|={count}", id.name());
            let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(count));
            let expected = reference(&graph, index.landmarks());
            let file = format::inspect(ViewBuf::Heap(index.bytes().to_vec())).expect("inspect");
            assert_eq!(file.dist_width, expected.width, "{what}: slot width");
            let section = |kind: SectionKind| {
                let record = file
                    .sections
                    .iter()
                    .find(|s| s.kind == kind)
                    .expect("section");
                &index.bytes()[record.offset as usize..(record.offset + record.len) as usize]
            };
            assert!(
                section(SectionKind::Labels) == expected.slots,
                "{what}: label section"
            );
            let meta: Vec<u8> = expected
                .meta_edges
                .iter()
                .flat_map(|&(i, j, s)| [i as u32, j as u32, s])
                .flat_map(u32::to_le_bytes)
                .collect();
            assert_eq!(section(SectionKind::MetaEdges), meta, "{what}: meta edges");
        }
    }
}
