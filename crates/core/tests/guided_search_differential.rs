//! Differential tests of the full QbS pipeline against the ground-truth
//! oracle on catalog stand-ins, structured graphs and random graphs, across
//! landmark strategies and counts.

use qbs_baselines::{GroundTruth, SpgEngine};
use qbs_core::{LandmarkStrategy, QbsConfig, QbsIndex};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_gen::prelude::*;
use qbs_gen::structured;
use qbs_graph::{Graph, INFINITE_DISTANCE};

fn check(graph: &Graph, config: QbsConfig, queries: usize, seed: u64, tag: &str) {
    let index = QbsIndex::build(graph.clone(), config);
    let truth = GroundTruth::new(graph.clone());
    let workload = QueryWorkload::sample(graph, queries, seed);
    for &(u, v) in workload.pairs() {
        let answer = index.query_with_stats(u, v).unwrap();
        let expected = truth.query(u, v);
        assert_eq!(answer.path_graph, expected, "{tag}: query ({u},{v})");
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
    for count in [1usize, 2, 3, 50, 200, 400] {
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
    for &(u, v) in workload.pairs() {
        if index.is_landmark(u) || index.is_landmark(v) {
            continue;
        }
        let class = qbs_core::coverage::classify_pair(&index, u, v);
        let d = index.query(u, v).unwrap().distance();
        let view = qbs_graph::FilteredGraph::new(&graph, &filter);
        let sparsified = qbs_graph::bibfs::bidirectional_distance(&view, u, v).distance;
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
