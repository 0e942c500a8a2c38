//! Differential tests of the full QbS pipeline against the ground-truth
//! oracle on catalog stand-ins, structured graphs and random graphs, across
//! landmark strategies and counts.

use qbs_baselines::{GroundTruth, SpgEngine};
use qbs_core::search;
use qbs_core::serialize::{self, MapMode};
use qbs_core::sketch::SketchHop;
use qbs_core::{
    LandmarkStrategy, QbsConfig, QbsIndex, QueryAnswer, QueryOutcome, QueryRequest, QueryWorkspace,
};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_gen::prelude::*;
use qbs_gen::structured;
use qbs_graph::traversal::bfs_distance_to;
use qbs_graph::{FilteredGraph, Graph, GraphBuilder, VertexFilter, VertexId, INFINITE_DISTANCE};

fn check(graph: &Graph, config: QbsConfig, queries: usize, seed: u64, tag: &str) {
    let index = QbsIndex::build(graph.clone(), config);
    let truth = GroundTruth::new(graph.clone());
    let workload = QueryWorkload::sample(graph, queries, seed);
    check_pairs(&index, &truth, workload.pairs(), tag);
}

/// The path-graph answer of `(u, v)`, with its sketch and search stats, on
/// a fresh workspace.
fn answer(index: &QbsIndex, u: VertexId, v: VertexId) -> QueryAnswer {
    let request = QueryRequest::path_graph(u, v).with_stats();
    match index.execute_with(&mut QueryWorkspace::new(), &request, None) {
        QueryOutcome::PathGraphWithStats(answer) => *answer,
        other => panic!("({u},{v}): {other:?}"),
    }
}

fn check_pairs(index: &QbsIndex, truth: &GroundTruth, pairs: &[(VertexId, VertexId)], tag: &str) {
    let mut ws = QueryWorkspace::new();
    for &(u, v) in pairs {
        let answer = answer(index, u, v);
        let expected = truth.query(u, v);
        assert_eq!(answer.path_graph, expected, "{tag}: query ({u},{v})");
        // The distance path stops stage 1 at its first meeting vertex and
        // never expands at d_u + d_v = d⊤ − 1; fresh and on one reused
        // workspace it must give the same distance.
        assert_eq!(
            index.distance(u, v).unwrap(),
            expected.distance(),
            "{tag}: distance path ({u},{v})"
        );
        assert_eq!(
            index
                .execute_with(&mut ws, &QueryRequest::distance(u, v), None)
                .distance(),
            Some(expected.distance()),
            "{tag}: reused distance path ({u},{v})"
        );
        // The per-query statistics must be internally consistent.
        let stats = answer.stats;
        assert_eq!(
            stats.distance,
            expected.distance(),
            "{tag}: distance ({u},{v})"
        );
        if stats.upper_bound != INFINITE_DISTANCE && expected.is_reachable() {
            assert!(
                stats.upper_bound >= stats.distance,
                "{tag}: d⊤ < d on ({u},{v})"
            );
        }
        if stats.sparsified_distance != INFINITE_DISTANCE {
            assert!(
                stats.sparsified_distance >= stats.distance,
                "{tag}: d_G⁻ < d on ({u},{v})"
            );
        }
    }
}

#[test]
fn qbs_is_exact_on_hub_dominated_standins() {
    for id in [DatasetId::Youtube, DatasetId::Twitter, DatasetId::Baidu] {
        let spec = *Catalog::paper_table1().get(id).unwrap();
        let graph = spec.generate(Scale::Tiny);
        check(&graph, QbsConfig::with_landmark_count(20), 30, 1, id.name());
    }
}

/// The same hub-dominated stand-ins at `Scale::Small`, where a hub has
/// hundreds of neighbours and the walk back often finds a vertex's parents
/// by binary search. Slow in a debug build: CI runs it in release with
/// `--include-ignored`.
#[test]
#[ignore = "Small scale; run in release with --include-ignored"]
fn qbs_is_exact_on_small_hub_dominated_standins() {
    for id in [DatasetId::Youtube, DatasetId::Twitter] {
        let spec = *Catalog::paper_table1().get(id).unwrap();
        let graph = spec.generate(Scale::Small);
        check(
            &graph,
            QbsConfig::with_landmark_count(20),
            1_000,
            3,
            id.name(),
        );
    }
}

/// Distance mode never expands stage 1 at `d_u + d_v = d⊤ − 1`, where every
/// meeting could only prove `d⊤` again. On the hub-dominated stand-ins at
/// `Scale::Small` the sketch bound is usually the distance, so that level
/// is stage 1's widest: over 1 000 uniform pairs per graph, distance mode
/// relaxes at most 40 % of path mode's stage-1 edges (Youtube 29 %,
/// Twitter 10 %; Youtube 92 % while it expanded that level), with every
/// distance equal to BFS's. Slow in a debug build: CI runs it in release
/// with `--include-ignored`.
#[test]
#[ignore = "Small scale; run in release with --include-ignored"]
fn distance_mode_skips_the_bound_level_on_small_hub_standins() {
    for id in [DatasetId::Youtube, DatasetId::Twitter] {
        let spec = *Catalog::paper_table1().get(id).unwrap();
        let graph = spec.generate(Scale::Small);
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
        let truth = GroundTruth::new(graph.clone());
        let mut ws = QueryWorkspace::new();
        let (mut path_edges, mut distance_edges) = (0, 0);
        for &(u, v) in QueryWorkload::sample(&graph, 1_000, 3).pairs() {
            let path = answer(&index, u, v).stats;
            let dist = search::distance_stats(&index, &mut ws, u, v).expect("in range");
            assert_eq!(dist.distance, truth.distance(u, v), "{id:?}: ({u},{v})");
            let levels = dist.forward_levels + dist.backward_levels;
            if dist.upper_bound != INFINITE_DISTANCE {
                assert!(levels < dist.upper_bound as usize, "{id:?}: ({u},{v})");
            }
            path_edges += path.edges_traversed;
            distance_edges += dist.edges_traversed;
        }
        assert!(
            distance_edges * 5 <= path_edges * 2,
            "{id:?}: distance mode relaxed {distance_edges} edges, path mode {path_edges}"
        );
    }
}

/// A non-landmark hub whose adjacency row dwarfs the level before it, so
/// the walk back finds the hub's parents by binary search rather than by a
/// scan: hub 0 with 1 200 leaves, pendants one hop beyond some leaves, a
/// second non-landmark connector over a few leaves, and three explicit
/// landmarks beside the hub (one adjacent to it, two over leaf ranges).
/// Endpoints include the hub, leaves, pendants and every landmark; answers
/// are checked on the build's heap buffer and on a mapping of its file.
#[test]
fn qbs_is_exact_through_a_non_landmark_hub() {
    const LEAVES: VertexId = 1_200;
    let (r1, r2, r3, connector) = (LEAVES + 1, LEAVES + 2, LEAVES + 3, LEAVES + 4);
    let pendants: Vec<VertexId> = (0..40).map(|i| LEAVES + 5 + i).collect();
    let mut edges: Vec<(VertexId, VertexId)> = (1..=LEAVES).map(|leaf| (0, leaf)).collect();
    edges.extend((1..=30).map(|leaf| (r1, leaf)));
    edges.extend((25..=60).map(|leaf| (r2, leaf)));
    edges.extend([(r1, r2), (r3, 0)]);
    edges.extend((100..=110).map(|leaf| (connector, leaf)));
    edges.extend((0..).zip(&pendants).map(|(i, &p)| (p, 1 + 30 * i)));
    let graph = GraphBuilder::from_edges(edges).build();

    let heap = QbsIndex::build(
        graph.clone(),
        QbsConfig::with_explicit_landmarks(vec![r1, r2, r3]),
    );
    let dir = std::env::temp_dir().join("qbs_guided_search_hub");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("hub_{}.qbs", std::process::id()));
    serialize::save_to_file(&heap, &path).expect("save");
    let mapped = serialize::open_from_file(&path, MapMode::Mmap).expect("map");

    let mut endpoints = vec![0, 1, 2, 5, 29, 31, 45, 60, 61, 100, 105, 600, LEAVES];
    endpoints.extend([r1, r2, r3, connector]);
    endpoints.extend(pendants.iter().step_by(5));
    let pairs: Vec<(VertexId, VertexId)> = endpoints
        .iter()
        .flat_map(|&u| endpoints.iter().map(move |&v| (u, v)))
        .filter(|&(u, v)| u != v)
        .collect();
    let truth = GroundTruth::new(graph);
    check_pairs(&heap, &truth, &pairs, "hub, heap");
    check_pairs(&mapped, &truth, &pairs, "hub, mmap");
}

/// Stage 1 expands the cheaper side, so one side may stop short of the
/// depth `σ − 1` of a sketch hop it recovers; the recover search then
/// matches `Z` at that side's last level and leaves more of the way to the
/// label walk. The sweep must hit that case (on either side) and stay exact
/// on the build's heap buffer and on a mapping of its file.
#[test]
fn recover_search_from_a_side_that_stopped_short_is_exact() {
    let spec = *Catalog::paper_table1().get(DatasetId::Douban).unwrap();
    let graph = spec.generate(Scale::Tiny);
    let heap = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
    let dir = std::env::temp_dir().join("qbs_guided_search_short_side");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("douban_{}.qbs", std::process::id()));
    serialize::save_to_file(&heap, &path).expect("save");
    let mapped = serialize::open_from_file(&path, MapMode::Mmap).expect("map");

    let truth = GroundTruth::new(graph.clone());
    let workload = QueryWorkload::sample(&graph, 400, 30);
    for (index, tag) in [(&heap, "heap"), (&mapped, "mmap")] {
        check_pairs(index, &truth, workload.pairs(), tag);
        let short_side = workload
            .pairs()
            .iter()
            .map(|&(u, v)| answer(index, u, v))
            .filter(|answer| {
                let (sketch, stats) = (&answer.sketch, &answer.stats);
                let short = |hops: &[SketchHop], levels: usize| {
                    hops.iter().any(|h| h.distance as usize > levels + 1)
                };
                stats.used_recover_search
                    && (short(&sketch.source_hops, stats.forward_levels)
                        || short(&sketch.target_hops, stats.backward_levels))
            })
            .count();
        assert!(short_side > 0, "{tag}: no recovery from a short side");
    }
}

/// Queries with a landmark endpoint keep that endpoint inside `G⁻`, so
/// stage 1 also scans row suffixes for it. Every one of 20 landmarks of a
/// hub-dominated stand-in against 50 non-landmark partners, both ways,
/// plus every landmark–landmark pair, as path graphs and as distances, on
/// the build's heap buffer and on a mapping of its file. Stage 1 must find
/// exactly the distance in `G⁻` plus the two endpoints whenever it is
/// within `d⊤`.
#[test]
fn landmark_endpoints_are_exact_at_twenty_landmarks() {
    let spec = *Catalog::paper_table1().get(DatasetId::Youtube).unwrap();
    let graph = spec.generate(Scale::Tiny);
    let heap = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
    let dir = std::env::temp_dir().join("qbs_guided_search_landmark_endpoints");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("youtube_{}.qbs", std::process::id()));
    serialize::save_to_file(&heap, &path).expect("save");
    let mapped = serialize::open_from_file(&path, MapMode::Mmap).expect("map");

    let landmarks = heap.landmarks().to_vec();
    assert_eq!(landmarks.len(), 20);
    let others: Vec<VertexId> = graph.vertices().filter(|&v| !heap.is_landmark(v)).collect();
    let partners: Vec<VertexId> = others
        .iter()
        .copied()
        .step_by(others.len() / 50)
        .take(50)
        .collect();
    assert_eq!(partners.len(), 50);
    let mut pairs = Vec::new();
    for &r in &landmarks {
        pairs.extend(partners.iter().flat_map(|&p| [(r, p), (p, r)]));
        pairs.extend(landmarks.iter().filter(|&&s| s != r).map(|&s| (r, s)));
    }

    let truth = GroundTruth::new(graph.clone());
    let expected: Vec<_> = pairs
        .iter()
        .map(|&(u, v)| {
            // The sparsified graph of this query: every landmark but u, v.
            let removed = VertexFilter::from_vertices(
                graph.num_vertices(),
                landmarks.iter().copied().filter(|&r| r != u && r != v),
            );
            let view = FilteredGraph::new(&graph, &removed);
            let sparsified = bfs_distance_to(&view, u, v);
            (truth.query(u, v), sparsified)
        })
        .collect();
    let mut adjacent_landmarks = 0;
    for (index, tag) in [(&heap, "heap"), (&mapped, "mmap")] {
        for (&(u, v), (spg, sparsified)) in pairs.iter().zip(&expected) {
            let answer = answer(index, u, v);
            assert_eq!(answer.path_graph, *spg, "{tag}: SPG({u}, {v})");
            assert_eq!(
                index.distance(u, v).unwrap(),
                spg.distance(),
                "{tag}: distance({u}, {v})"
            );
            let stats = answer.stats;
            let within_bound = *sparsified <= stats.upper_bound;
            assert_eq!(
                stats.sparsified_distance,
                if within_bound {
                    *sparsified
                } else {
                    INFINITE_DISTANCE
                },
                "{tag}: stage 1 of ({u}, {v})"
            );
            adjacent_landmarks +=
                usize::from(index.is_landmark(u) && index.is_landmark(v) && *sparsified == 1);
        }
    }
    // Adjacent landmarks meet in G⁻ only through a row's landmark suffix.
    assert!(adjacent_landmarks > 0);
}

#[test]
fn qbs_is_exact_on_even_degree_and_community_standins() {
    for id in [
        DatasetId::Friendster,
        DatasetId::LiveJournal,
        DatasetId::Dblp,
    ] {
        let spec = *Catalog::paper_table1().get(id).unwrap();
        let graph = spec.generate(Scale::Tiny);
        check(&graph, QbsConfig::with_landmark_count(20), 30, 2, id.name());
    }
}

#[test]
fn qbs_is_exact_with_random_landmarks() {
    let spec = *Catalog::paper_table1().get(DatasetId::Skitter).unwrap();
    let graph = spec.generate(Scale::Tiny);
    for seed in 0..4u64 {
        check(
            &graph,
            QbsConfig {
                landmarks: LandmarkStrategy::Random { count: 15, seed },
            },
            25,
            seed,
            "random landmarks",
        );
    }
}

#[test]
fn qbs_is_exact_with_tiny_and_huge_landmark_sets() {
    let graph = power_law::generate(&PowerLawConfig {
        vertices: 400,
        edges: 1600,
        exponent: 2.3,
        seed: 5,
    });
    for count in [0usize, 1, 2, 3, 50, 200, 400] {
        check(
            &graph,
            QbsConfig::with_landmark_count(count),
            25,
            count as u64,
            "landmark sweep",
        );
    }
}

#[test]
fn qbs_is_exact_on_structured_extremes() {
    // Graphs with maximal path multiplicity (hypercube, grid) and graphs
    // with a unique path per pair (tree, path).
    let cases = vec![
        structured::hypercube(7),
        structured::grid(15, 15),
        structured::binary_tree(255),
        structured::path(200),
        structured::cycle(99),
        structured::barbell(15, 8),
    ];
    for (i, graph) in cases.into_iter().enumerate() {
        check(
            &graph,
            QbsConfig::with_landmark_count(12),
            25,
            i as u64,
            "structured",
        );
    }
}

#[test]
fn qbs_is_exact_on_watts_strogatz_small_worlds() {
    for p in [0.0, 0.05, 0.3, 1.0] {
        let graph = watts_strogatz::generate(&WattsStrogatzConfig {
            vertices: 500,
            neighbors: 3,
            rewire_probability: p,
            seed: 11,
        });
        let graph = qbs_graph::components::largest_component(&graph).0;
        check(
            &graph,
            QbsConfig::with_landmark_count(10),
            25,
            3,
            "watts-strogatz",
        );
    }
}

#[test]
fn coverage_and_sketch_are_consistent_with_answers() {
    // Whenever the classifier says "all through landmarks", removing the
    // landmarks must actually disconnect or lengthen the pair.
    let spec = *Catalog::paper_table1().get(DatasetId::WikiTalk).unwrap();
    let graph = spec.generate(Scale::Tiny);
    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
    let filter = qbs_graph::VertexFilter::from_vertices(
        graph.num_vertices(),
        index.landmarks().iter().copied(),
    );
    let workload = QueryWorkload::sample_connected(&graph, 120, 9);
    let mut ws = QueryWorkspace::new();
    for &(u, v) in workload.pairs() {
        if index.is_landmark(u) || index.is_landmark(v) {
            continue;
        }
        let class = qbs_core::coverage::classify_pair(&index, &mut ws, u, v);
        let d = index.query(u, v).unwrap().distance();
        let view = qbs_graph::FilteredGraph::new(&graph, &filter);
        let sparsified = bfs_distance_to(&view, u, v);
        match class {
            qbs_core::coverage::PairCoverage::AllThroughLandmarks => {
                assert!(sparsified > d, "({u},{v}) should need a landmark");
            }
            qbs_core::coverage::PairCoverage::SomeThroughLandmarks
            | qbs_core::coverage::PairCoverage::NoneThroughLandmarks => {
                assert_eq!(sparsified, d, "({u},{v}) has a landmark-free shortest path");
            }
            qbs_core::coverage::PairCoverage::NotApplicable => {}
        }
    }
}
