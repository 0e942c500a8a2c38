//! Differential coverage of the typed request pipeline: heterogeneous
//! `submit` batches (distance / path-graph / sketch modes mixed, including
//! poisoned out-of-range pairs) must return **per-request** outcomes that
//! are bit-identical between the heap buffer of a build and a mapping of
//! its saved file, must match the BFS ground truth, and cache hits must be
//! bit-identical to fresh answers.

use proptest::prelude::*;

use qbs_baselines::{GroundTruth, SpgEngine};
use qbs_core::request::{QueryMode, QueryOutcome, QueryRequest};
use qbs_core::serialize::{self, MapMode};
use qbs_core::{CacheConfig, Qbs, QbsConfig, QbsIndex, QueryWorkspace, ViewBuf};
use qbs_gen::prelude::*;
use qbs_graph::{Graph, VertexId};

/// A heterogeneous request batch over a sampled workload: modes cycle
/// distance → path → path+stats → sketch, with one poisoned pair spliced
/// into the middle.
fn mixed_requests(pairs: &[(VertexId, VertexId)], num_vertices: usize) -> Vec<QueryRequest> {
    let mut requests: Vec<QueryRequest> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(u, v))| match i % 4 {
            0 => QueryRequest::distance(u, v),
            1 => QueryRequest::path_graph(u, v),
            2 => QueryRequest::path_graph(u, v).with_stats(),
            _ => QueryRequest::sketch(u, v),
        })
        .collect();
    let poison = num_vertices as VertexId;
    requests.insert(requests.len() / 2, QueryRequest::path_graph(poison, 0));
    requests
}

/// A two-thread session over `owned`.
fn two_threads(owned: &QbsIndex) -> Qbs {
    Qbs::from_index(owned.clone())
        .with_threads(2)
        .expect("threads")
}

/// Runs the same mixed batch through both buffers and checks per-slot
/// semantics: the poisoned slot (and only it) errors, every distance and
/// path graph matches the BFS ground truth, every sketch matches the
/// sketch convenience, and the two buffers agree bit-for-bit.
fn assert_mixed_batch_identical(
    graph: &Graph,
    owned: &QbsIndex,
    view: &Qbs,
    pairs: &[(VertexId, VertexId)],
) {
    let requests = mixed_requests(pairs, owned.num_vertices());
    let owned_outcomes = two_threads(owned).submit(&requests);
    let view_outcomes = view.submit(&requests);
    assert_eq!(owned_outcomes.len(), requests.len());
    let truth = GroundTruth::new(graph.clone());

    for (slot, ((req, a), b)) in requests
        .iter()
        .zip(&owned_outcomes)
        .zip(&view_outcomes)
        .enumerate()
    {
        assert_eq!(a, b, "slot {slot} diverged between heap and mapping");
        let poisoned = (req.source as usize) >= owned.num_vertices()
            || (req.target as usize) >= owned.num_vertices();
        if poisoned {
            assert!(a.is_error(), "slot {slot} should be the error slot");
            continue;
        }
        let expected = truth.query(req.source, req.target);
        match req.mode {
            QueryMode::Distance => {
                assert_eq!(a.distance(), Some(expected.distance()), "slot {slot}")
            }
            QueryMode::PathGraph => {
                assert_eq!(a.path_graph(), Some(&expected), "slot {slot}");
                if req.opts.collect_stats {
                    let fresh = owned.execute_with(&mut QueryWorkspace::new(), req, None);
                    assert_eq!(a.answer(), fresh.answer(), "slot {slot} stats");
                } else {
                    assert!(a.answer().is_none(), "slot {slot} has no stats");
                }
            }
            QueryMode::Sketch => assert_eq!(
                a.sketch(),
                Some(&owned.sketch(req.source, req.target).expect("in range")),
                "slot {slot}"
            ),
        }
    }

    // Exactly one slot failed: the poisoned one.
    assert_eq!(
        owned_outcomes.iter().filter(|o| o.is_error()).count(),
        1,
        "one poisoned pair, one error outcome"
    );
}

#[test]
fn mixed_submit_is_bit_identical_between_owned_and_mmap_backends() {
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 3_000,
        edges_per_vertex: 3,
        seed: 4_2026,
    });
    let pairs = QueryWorkload::sample(&graph, 128, 11).pairs().to_vec();
    let owned = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(10));

    let dir = std::env::temp_dir().join("qbs_request_pipeline_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("ba3000.qbs");
    serialize::save_to_file(&owned, &path).expect("save");
    let view = Qbs::open(&path, MapMode::Mmap)
        .expect("map")
        .with_threads(2)
        .expect("threads");

    assert_mixed_batch_identical(&graph, &owned, &view, &pairs);
}

/// Regression: a poisoned pair mid-batch produces an error outcome for
/// that slot only, on the heap buffer and on a mapping — where the legacy
/// wrapper aborts the whole batch.
#[test]
fn poisoned_pair_fails_its_slot_only_on_both_backends() {
    let owned = QbsIndex::build(
        qbs_graph::fixtures::figure4_graph(),
        QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
    );
    let requests = vec![
        QueryRequest::path_graph(6, 11),
        QueryRequest::distance(4, 12),
        QueryRequest::path_graph(99, 0), // poisoned, mid-batch
        QueryRequest::sketch(7, 9),
        QueryRequest::distance(13, 8),
    ];
    for threads in [2, 1] {
        let outcomes = Qbs::from_index(owned.clone())
            .with_threads(threads)
            .expect("threads")
            .submit(&requests);
        assert!(outcomes[2].is_error());
        assert_eq!(outcomes.iter().filter(|o| o.is_error()).count(), 1);
    }
    let dir = std::env::temp_dir().join("qbs_request_pipeline_poison");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("fig4.qbs");
    serialize::save_to_file(&owned, &path).expect("save");
    let view = Qbs::open(&path, MapMode::Mmap)
        .expect("map")
        .with_threads(2)
        .expect("threads");
    let owned = two_threads(&owned);
    assert_eq!(owned.submit(&requests), view.submit(&requests));

    // `into_result` restores the legacy fail-fast shape for callers that
    // still want one error to abort their whole batch.
    let failed = owned
        .submit(&requests)
        .into_iter()
        .map(qbs_core::QueryOutcome::into_result)
        .collect::<Result<Vec<_>, _>>();
    assert!(failed.is_err(), "the poisoned slot surfaces as QbsError");
}

/// The Qbs façade serves the same answers as the raw query door
/// (`QbsIndex::execute_with` on one workspace), from both a built session
/// and a session opened off an index file.
#[test]
fn facade_sessions_agree_with_raw_engines() {
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 1_500,
        edges_per_vertex: 3,
        seed: 7,
    });
    let pairs = QueryWorkload::sample(&graph, 64, 3).pairs().to_vec();
    let built = Qbs::build(graph.clone(), QbsConfig::with_landmark_count(8)).expect("build");

    let dir = std::env::temp_dir().join("qbs_request_pipeline_facade");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("ba1500.qbs");
    serialize::save_to_file(built.index().expect("index"), &path).expect("save");
    let opened = Qbs::open(&path, MapMode::Mmap).expect("open");
    assert!(matches!(
        opened.index().expect("index").view().buf(),
        ViewBuf::Mmap(_)
    ));

    let requests = mixed_requests(&pairs, graph.num_vertices());
    let index = built.index().expect("index");
    let mut ws = QueryWorkspace::new();
    let raw: Vec<QueryOutcome> = requests
        .iter()
        .map(|r| index.execute_with(&mut ws, r, None))
        .collect();
    assert_eq!(built.submit(&requests), raw);
    assert_eq!(opened.submit(&requests), raw);
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

    // On the heap and the mapping, a Distance outcome always equals the eccentric
    // distance of the PathGraph outcome for the same pair, and cache hits
    // are bit-identical to fresh answers.
    #[test]
    fn distance_mode_agrees_with_path_graph_mode_and_cache_hits_are_identical(
        family in 0u64..4,
        vertices in 24usize..90,
        landmarks in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let graph = family_graph(family, vertices, seed);
        let owned = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(landmarks));

        let dir = std::env::temp_dir().join("qbs_request_pipeline_proptest");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("case_{family}_{vertices}_{landmarks}_{seed}.qbs"));
        serialize::save_to_file(&owned, &path).expect("save");
        let cache = || CacheConfig::default().admit_above(0);
        let owned_session = two_threads(&owned).with_cache(cache());
        let view_session = Qbs::open(&path, MapMode::Mmap).expect("open")
            .with_threads(2).expect("threads")
            .with_cache(cache());

        let pairs = QueryWorkload::sample(&graph, 32, seed ^ 0x5EED).pairs().to_vec();

        let distance_reqs: Vec<QueryRequest> =
            pairs.iter().map(|&(u, v)| QueryRequest::distance(u, v)).collect();
        let path_reqs: Vec<QueryRequest> =
            pairs.iter().map(|&(u, v)| QueryRequest::path_graph(u, v)).collect();

        let owned_distances = owned_session.submit(&distance_reqs);
        let view_distances = view_session.submit(&distance_reqs);
        let owned_paths = owned_session.submit(&path_reqs);
        let view_paths = view_session.submit(&path_reqs);

        for (i, &(u, v)) in pairs.iter().enumerate() {
            prop_assert_eq!(&owned_distances[i], &view_distances[i], "distance ({}, {})", u, v);
            prop_assert_eq!(&owned_paths[i], &view_paths[i], "path ({}, {})", u, v);
            // Distance mode == the path graph's eccentric distance.
            prop_assert_eq!(
                owned_distances[i].distance(),
                owned_paths[i].path_graph().map(|pg| pg.distance()),
                "mode disagreement on ({}, {})", u, v
            );
        }

        // Second pass: every answer now comes from the cache (same keys),
        // and must be bit-identical to the first pass on both buffers.
        let owned_hits_before = owned_session.cache_stats().expect("cache").hits;
        prop_assert_eq!(owned_session.submit(&distance_reqs), owned_distances);
        prop_assert_eq!(owned_session.submit(&path_reqs), owned_paths);
        prop_assert_eq!(view_session.submit(&distance_reqs), view_distances);
        prop_assert_eq!(view_session.submit(&path_reqs), view_paths);
        let stats = owned_session.cache_stats().expect("cache");
        prop_assert!(stats.hits > owned_hits_before, "warm pass hit the cache: {:?}", stats);

        std::fs::remove_file(&path).ok();
    }
}

/// Distance-mode cache entries are orientation-free; the cached reverse
/// lookup still matches a fresh reverse computation exactly.
#[test]
fn symmetric_distance_cache_hits_match_fresh_reversed_queries() {
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 500,
        edges_per_vertex: 3,
        seed: 21,
    });
    let owned = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(6));
    let cached = two_threads(&owned).with_cache(CacheConfig::default().admit_above(0));
    let fresh = two_threads(&owned);

    let pairs = QueryWorkload::sample(&graph, 64, 5).pairs().to_vec();
    let forward: Vec<QueryRequest> = pairs
        .iter()
        .map(|&(u, v)| QueryRequest::distance(u, v))
        .collect();
    let reverse: Vec<QueryRequest> = pairs
        .iter()
        .map(|&(u, v)| QueryRequest::distance(v, u))
        .collect();
    cached.submit(&forward);
    let warm_reversed = cached.submit(&reverse);
    let fresh_reversed = fresh.submit(&reverse);
    assert_eq!(warm_reversed, fresh_reversed);
    let stats = cached.cache_stats().expect("cache");
    assert!(
        stats.hits > 0,
        "reversed lookups hit the symmetric key: {stats:?}"
    );
    assert!(matches!(warm_reversed[0], QueryOutcome::Distance(_)));
}
