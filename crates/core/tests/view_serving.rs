//! Differential coverage of serving from a mapped index file: batch
//! answers of a session over a `ViewBuf::Mmap` mapping of a real file must
//! be **bit-identical** to a session over the heap buffer the build laid
//! out, and must match the BFS ground truth, on the checked-in golden
//! fixture and on a proptest-generated graph family.

use proptest::prelude::*;

use qbs_baselines::{GroundTruth, SpgEngine};
use qbs_core::serialize::{self, MapMode};
use qbs_core::{Qbs, QbsConfig, QbsIndex, QueryRequest, ViewBuf};
use qbs_gen::prelude::*;
use qbs_graph::{Graph, VertexId};

/// Path of the checked-in golden fixture (shared with `index_format.rs`).
fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("figure4.qbs")
}

fn all_pairs(n: u32) -> Vec<(VertexId, VertexId)> {
    let mut pairs = Vec::new();
    for u in 0..n {
        for v in 0..n {
            pairs.push((u, v));
        }
    }
    pairs
}

/// Two-thread sessions over the build's heap buffer and over `mapped`.
fn sessions(owned: &QbsIndex, mapped: QbsIndex) -> (Qbs, Qbs) {
    let two = |qbs: Qbs| qbs.with_threads(2).expect("threads");
    (
        two(Qbs::from_index(owned.clone())),
        two(Qbs::from_index(mapped)),
    )
}

/// Runs `pairs` through sessions over both buffers and asserts the full
/// answers (path graph, sketch, stats) and distances are identical, and
/// that every path graph is the BFS ground truth.
fn assert_bit_identical(
    graph: &Graph,
    owned: &QbsIndex,
    mapped: QbsIndex,
    pairs: &[(VertexId, VertexId)],
) {
    let (owned_session, mapped_session) = sessions(owned, mapped);
    let truth = GroundTruth::new(graph.clone());

    let requests: Vec<QueryRequest> = pairs
        .iter()
        .map(|&(u, v)| QueryRequest::path_graph(u, v).with_stats())
        .collect();
    let owned_answers = owned_session.submit(&requests);
    let mapped_answers = mapped_session.submit(&requests);
    for ((x, y), &(u, v)) in owned_answers.iter().zip(&mapped_answers).zip(pairs) {
        let a = x.answer().expect("in range");
        let b = y.answer().expect("in range");
        assert_eq!(a.path_graph, b.path_graph, "SPG({u}, {v}) diverged");
        assert_eq!(a.sketch, b.sketch, "sketch({u}, {v}) diverged");
        assert_eq!(a.stats, b.stats, "stats({u}, {v}) diverged");
        assert_eq!(a.path_graph, truth.query(u, v), "SPG({u}, {v}) is wrong");
    }

    let distances: Vec<QueryRequest> = pairs
        .iter()
        .map(|&(u, v)| QueryRequest::distance(u, v))
        .collect();
    assert_eq!(
        owned_session.submit(&distances),
        mapped_session.submit(&distances),
        "distance batch diverged"
    );
}

/// The golden fixture, memory-mapped, answers every figure-4 pair exactly
/// like a fresh build of the same index, and like BFS.
#[test]
fn mmap_backed_engine_matches_owned_index_on_golden_fixture() {
    let mapped = serialize::open_from_file(fixture_path(), MapMode::Mmap).expect("map fixture");
    assert!(
        matches!(mapped.view().buf(), ViewBuf::Mmap(_)),
        "fixture must be served from the mapped buffer"
    );
    let graph = qbs_graph::fixtures::figure4_graph();
    let owned = QbsIndex::build(
        graph.clone(),
        QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
    );
    assert_eq!(owned.bytes(), mapped.bytes());
    assert_bit_identical(&graph, &owned, mapped, &all_pairs(15));
}

/// Session answers over a mapping of a generated graph's saved index — the
/// full build → save → map → serve pipeline.
#[test]
fn mmap_serving_roundtrip_on_generated_graph() {
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 3_000,
        edges_per_vertex: 3,
        seed: 2024,
    });
    let pairs = QueryWorkload::sample(&graph, 256, 7).pairs().to_vec();
    let owned = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(10));

    let dir = std::env::temp_dir().join("qbs_view_serving_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("ba3000.qbs");
    serialize::save_to_file(&owned, &path).expect("save");

    let mapped = serialize::open_from_file(&path, MapMode::Mmap).expect("map");
    assert!(matches!(mapped.view().buf(), ViewBuf::Mmap(_)));
    assert_bit_identical(&graph, &owned, mapped, &pairs);

    // MapMode::Read over the same file is equally bit-identical.
    let read = serialize::open_from_file(&path, MapMode::Read).expect("read");
    assert!(matches!(read.view().buf(), ViewBuf::Heap(_)));
    assert_bit_identical(&graph, &owned, read, &pairs);
}

/// One graph per generator family, sized by the proptest case.
fn family_graph(family: u64, vertices: usize, seed: u64) -> Graph {
    match family % 4 {
        0 => barabasi_albert::generate(&BarabasiAlbertConfig {
            vertices,
            edges_per_vertex: 2,
            seed,
        }),
        1 => erdos_renyi::generate(&ErdosRenyiConfig {
            vertices,
            edges: vertices * 2,
            seed,
        }),
        2 => watts_strogatz::generate(&WattsStrogatzConfig {
            vertices,
            neighbors: 2,
            rewire_probability: 0.2,
            seed,
        }),
        _ => power_law::generate(&PowerLawConfig {
            vertices,
            edges: vertices * 2,
            exponent: 2.5,
            seed,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Across generator families: a mapping of the saved index and the
    // build's heap buffer answer a sampled workload identically, through
    // a two-thread session, and every answer is the BFS ground truth.
    #[test]
    fn view_engine_is_bit_identical_across_generator_families(
        family in 0u64..4,
        vertices in 24usize..100,
        landmarks in 0usize..7,
        seed in 0u64..1_000,
    ) {
        let graph = family_graph(family, vertices, seed);
        let owned = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(landmarks));

        let dir = std::env::temp_dir().join("qbs_view_serving_proptest");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("case_{family}_{vertices}_{landmarks}_{seed}.qbs"));
        serialize::save_to_file(&owned, &path).expect("save");
        let mapped = serialize::open_from_file(&path, MapMode::Mmap).expect("open");

        let pairs = QueryWorkload::sample(&graph, 48, seed ^ 0xABCD).pairs().to_vec();
        let truth = GroundTruth::new(graph.clone());
        let (owned_session, mapped_session) = sessions(&owned, mapped);
        let requests: Vec<QueryRequest> = pairs
            .iter()
            .map(|&(u, v)| QueryRequest::path_graph(u, v).with_stats())
            .collect();
        let a = owned_session.submit(&requests);
        let b = mapped_session.submit(&requests);
        for ((x, y), &(u, v)) in a.iter().zip(&b).zip(&pairs) {
            prop_assert_eq!(x, y, "answer of ({}, {}) diverged", u, v);
            prop_assert_eq!(x.path_graph(), Some(&truth.query(u, v)), "SPG({}, {})", u, v);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A mapped session enforces the public bounds checks.
#[test]
fn view_store_rejects_out_of_range_vertices() {
    let owned = QbsIndex::build(
        qbs_graph::fixtures::figure4_graph(),
        QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
    );
    let dir = std::env::temp_dir().join("qbs_view_serving_bounds");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("fig4.qbs");
    serialize::save_to_file(&owned, &path).expect("save");
    let qbs = Qbs::open(&path, MapMode::Mmap)
        .expect("map")
        .with_threads(1)
        .expect("threads");
    let err = qbs.execute(&QueryRequest::path_graph(0, 99)).into_result();
    assert!(matches!(
        err,
        Err(qbs_core::QbsError::VertexOutOfRange { vertex: 99, .. })
    ));
    let outcomes = qbs.submit(&[
        QueryRequest::path_graph(0, 1),
        QueryRequest::path_graph(200, 0),
    ]);
    assert!(!outcomes[0].is_error(), "good slot unaffected");
    assert!(matches!(
        outcomes[1].clone().into_result().unwrap_err(),
        qbs_core::QbsError::VertexOutOfRange { vertex: 200, .. }
    ));
    let index = qbs.index().expect("every session has an index");
    let mut ws = qbs_core::QueryWorkspace::new();
    for request in [QueryRequest::path_graph(77, 0), QueryRequest::sketch(0, 77)] {
        assert!(index.execute_with(&mut ws, &request, None).is_error());
    }
}
