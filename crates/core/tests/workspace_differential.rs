//! Differential tests for the workspace-based query path.
//!
//! Asserts that `QbsIndex::execute_with` on one epoch-stamped workspace
//! reused across hundreds of mixed queries, and `Qbs::submit` (the
//! concurrent batch API, whose long-lived workers reuse one workspace each),
//! return results **bit-identical** to the same door on a fresh workspace
//! per query, across Erdős–Rényi,
//! Barabási–Albert and Watts–Strogatz graphs and multiple seeds — the
//! stale-epoch regression surface: any slot that survives a workspace reset
//! would corrupt a later query's answer.

use qbs_baselines::{GroundTruth, SpgEngine};
use qbs_core::{Qbs, QbsConfig, QbsIndex, QueryRequest, QueryWorkspace};
use qbs_gen::prelude::*;
use qbs_gen::QueryWorkload;
use qbs_graph::Graph;

/// The generator families of the satellite spec, two seeds each.
fn generator_suite() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    for seed in [7u64, 2021] {
        graphs.push((
            format!("erdos-renyi/{seed}"),
            erdos_renyi::generate(&ErdosRenyiConfig {
                vertices: 300,
                edges: 600,
                seed,
            }),
        ));
        graphs.push((
            format!("barabasi-albert/{seed}"),
            barabasi_albert::generate(&BarabasiAlbertConfig {
                vertices: 300,
                edges_per_vertex: 3,
                seed,
            }),
        ));
        graphs.push((
            format!("watts-strogatz/{seed}"),
            watts_strogatz::generate(&WattsStrogatzConfig {
                vertices: 300,
                neighbors: 2,
                rewire_probability: 0.2,
                seed,
            }),
        ));
    }
    graphs
}

/// A mixed workload: sampled pairs plus adversarial shapes — repeated
/// pairs, reversed pairs, identical endpoints, and landmark endpoints.
fn mixed_workload(graph: &Graph, index: &QbsIndex, seed: u64) -> Vec<(u32, u32)> {
    let mut pairs = QueryWorkload::sample(graph, 100, seed).pairs().to_vec();
    let sampled: Vec<(u32, u32)> = pairs.iter().take(10).copied().collect();
    for &(u, v) in &sampled {
        pairs.push((v, u)); // symmetry under reuse
        pairs.push((u, v)); // exact repetition under reuse
        pairs.push((u, u)); // trivial queries interleaved
    }
    for &r in index.landmarks().iter().take(4) {
        pairs.push((r, sampled[0].1)); // landmark endpoint (scratch filter)
        pairs.push((sampled[0].0, r));
    }
    if index.landmarks().len() >= 2 {
        pairs.push((index.landmarks()[0], index.landmarks()[1]));
    }
    pairs
}

#[test]
fn workspace_reuse_is_bit_identical_to_fresh_queries() {
    for (name, graph) in generator_suite() {
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(8));
        let pairs = mixed_workload(&graph, &index, 42);
        assert!(
            pairs.len() > 100,
            "{name}: the workload must exercise 100+ queries"
        );

        let mut ws = QueryWorkspace::new();
        for &(u, v) in &pairs {
            let request = QueryRequest::path_graph(u, v).with_stats();
            let fresh = index.execute_with(&mut QueryWorkspace::new(), &request, None);
            let reused = index.execute_with(&mut ws, &request, None);
            assert!(reused.answer().is_some(), "{name}: ({u},{v}) in range");
            assert_eq!(reused, fresh, "{name}: answer of ({u},{v})");
        }
        assert_eq!(ws.queries_served(), pairs.len() as u64);
    }
}

#[test]
fn submitted_batches_are_bit_identical_to_fresh_queries() {
    for (name, graph) in generator_suite() {
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(8));
        let pairs = mixed_workload(&graph, &index, 99);
        let requests: Vec<QueryRequest> = pairs
            .iter()
            .map(|&(u, v)| QueryRequest::path_graph(u, v).with_stats())
            .collect();
        for threads in [1usize, 3] {
            let qbs = Qbs::from_index(index.clone())
                .with_threads(threads)
                .expect("threads");
            let outcomes = qbs.submit(&requests);
            assert_eq!(outcomes.len(), pairs.len());
            for (request, outcome) in requests.iter().zip(&outcomes) {
                assert!(outcome.answer().is_some(), "{name}: {request:?} in range");
                let fresh = index.execute_with(&mut QueryWorkspace::new(), request, None);
                assert_eq!(outcome, &fresh, "{name}/threads={threads}: {request:?}");
            }
            // Distance-only batches agree with the materialised answers.
            let distance_requests: Vec<QueryRequest> = pairs
                .iter()
                .map(|&(u, v)| QueryRequest::distance(u, v))
                .collect();
            let distances = qbs.submit(&distance_requests);
            for ((d, outcome), &(u, v)) in distances.iter().zip(&outcomes).zip(&pairs) {
                assert_eq!(
                    d.distance().expect("in range"),
                    outcome.answer().expect("in range").path_graph.distance(),
                    "{name}/threads={threads}: distance of ({u},{v})"
                );
            }
        }
    }
}

#[test]
fn workspace_answers_stay_exact_against_the_oracle() {
    // End-to-end exactness: the reused-workspace answers equal the
    // ground-truth double-BFS on a full generator family.
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 200,
        edges_per_vertex: 3,
        seed: 5,
    });
    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(6));
    let oracle = GroundTruth::new(graph.clone());
    let pairs = QueryWorkload::sample(&graph, 150, 13);
    let mut ws = QueryWorkspace::new();
    for &(u, v) in pairs.pairs() {
        let got = index.execute_with(&mut ws, &QueryRequest::path_graph(u, v), None);
        assert_eq!(
            got.path_graph(),
            Some(&oracle.query(u, v)),
            "pair ({u},{v})"
        );
    }
}
