//! Cross-crate differential tests: every query engine in the workspace must
//! return exactly the same shortest path graph as the ground-truth double
//! BFS, on every dataset stand-in of the catalog and on adversarial
//! structured graphs.

use qbs::graph::fixtures::{figure4_graph, figure4_spg_6_11_edges};
use qbs::graph::traversal::bfs_distances;
use qbs::graph::INFINITE_DISTANCE;
use qbs::prelude::*;
use qbs_gen::catalog::{Catalog, Scale};
use qbs_gen::structured;

/// Definition 2.2 from two BFSs, independent of `GroundTruth`: `answer` is
/// exact iff its distance is the true one and its edges are exactly the
/// graph edges on some shortest path between its endpoints.
fn is_exact(graph: &Graph, answer: &PathGraph) -> bool {
    let (u, v) = (answer.source(), answer.target());
    if u == v {
        return answer.distance() == 0 && answer.num_edges() == 0;
    }
    let du = bfs_distances(graph, u);
    let dv = bfs_distances(graph, v);
    let actual = du[v as usize];
    if answer.distance() != actual || actual == INFINITE_DISTANCE {
        return answer.distance() == actual && answer.num_edges() == 0;
    }
    // Both endpoints share a component, so every finite `du` has a finite
    // `dv` and the sums cannot overflow.
    let on_shortest = |a: u32, b: u32| {
        let (da, db) = (du[a as usize], du[b as usize]);
        da != INFINITE_DISTANCE
            && db != INFINITE_DISTANCE
            && (da + 1 + dv[b as usize] == actual || db + 1 + dv[a as usize] == actual)
    };
    let shortest_edges = graph.edges().filter(|&(a, b)| on_shortest(a, b)).count();
    answer.num_edges() == shortest_edges
        && answer
            .edges()
            .iter()
            .all(|&(a, b)| graph.has_edge(a, b) && on_shortest(a, b))
}

/// Runs every engine on the same workload and compares against the oracle.
///
/// The labelling baselines (PPL / ParentPPL) are only included when
/// `with_labelling_baselines` is set: their construction is `O(|V||E|)` with
/// `O(|V||E|)` parent storage, so in debug-mode CI they are exercised on the
/// smaller stand-ins (and on every graph family in
/// `crates/baselines/tests/baseline_differential.rs`), while QbS and Bi-BFS
/// (QbS with no landmarks) run on all twelve.
fn assert_all_engines_agree(
    graph: &Graph,
    queries: usize,
    seed: u64,
    landmarks: usize,
    with_labelling_baselines: bool,
) {
    let workload = QueryWorkload::sample(graph, queries, seed);
    let truth = GroundTruth::new(graph.clone());
    let qbs = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(landmarks));
    let landmark_free = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(0));
    let labelling = if with_labelling_baselines {
        Some((Ppl::build(graph.clone()), ParentPpl::build(graph.clone())))
    } else {
        None
    };

    let mut ws = QueryWorkspace::new();
    for &(u, v) in workload.pairs() {
        let expected = truth.query(u, v);
        assert_eq!(
            qbs.query(u, v).unwrap(),
            expected,
            "QbS mismatch on ({u},{v})"
        );
        assert_eq!(
            landmark_free.query(u, v).unwrap(),
            expected,
            "Bi-BFS mismatch on ({u},{v})"
        );
        // The reused-workspace path must be bit-identical as well.
        let reused = qbs.execute_with(&mut ws, &QueryRequest::path_graph(u, v), None);
        assert_eq!(
            reused.path_graph(),
            Some(&expected),
            "QbS workspace mismatch on ({u},{v})"
        );
        if let Some((ppl, parent_ppl)) = &labelling {
            assert_eq!(ppl.query(u, v), expected, "PPL mismatch on ({u},{v})");
            assert_eq!(
                parent_ppl.query(u, v),
                expected,
                "ParentPPL mismatch on ({u},{v})"
            );
        }
        // And the answer satisfies Definition 2.2 independently of the oracle.
        assert!(is_exact(graph, &expected));
    }

    // A session's concurrent batch answers the whole workload identically,
    // and every engine's batch entry point agrees with its per-query path.
    let session = Qbs::from_index(qbs);
    let requests: Vec<QueryRequest> = workload
        .pairs()
        .iter()
        .map(|&(u, v)| QueryRequest::path_graph(u, v))
        .collect();
    let answers = session.submit(&requests);
    let landmark_free_answers = Qbs::from_index(landmark_free).submit(&requests);
    let truth_batch = truth.query_batch(workload.pairs());
    for (i, &(u, v)) in workload.pairs().iter().enumerate() {
        let expected = truth.query(u, v);
        assert_eq!(
            *answers[i].path_graph().expect("in range"),
            expected,
            "engine batch mismatch on ({u},{v})"
        );
        assert_eq!(
            *landmark_free_answers[i].path_graph().expect("in range"),
            expected,
            "Bi-BFS batch mismatch on ({u},{v})"
        );
        assert_eq!(
            truth_batch[i], expected,
            "oracle batch mismatch on ({u},{v})"
        );
    }
}

#[test]
fn all_engines_agree_on_every_tiny_dataset_standin() {
    for spec in Catalog::paper_table1().specs() {
        let graph = spec.generate(Scale::Tiny);
        // Labelling baselines on the graphs small enough for debug-mode CI.
        let with_labelling = graph.num_vertices() <= 1_200;
        assert_all_engines_agree(&graph, 25, 0xDA7A ^ spec.seed, 20, with_labelling);
    }
}

#[test]
fn all_engines_agree_on_structured_graphs() {
    let cases: Vec<(&str, Graph)> = vec![
        ("grid", structured::grid(12, 9)),
        ("hypercube", structured::hypercube(6)),
        ("cycle", structured::cycle(61)),
        ("binary_tree", structured::binary_tree(127)),
        ("barbell", structured::barbell(12, 5)),
        ("complete", structured::complete(24)),
        ("star", structured::star(64)),
        ("path", structured::path(80)),
    ];
    for (name, graph) in cases {
        // Structured graphs stress unusual landmark configurations: in a
        // star the hub is the single dominant landmark, in a path the
        // "hubs" are arbitrary interior vertices, etc.
        for landmarks in [1usize, 4, 16] {
            let workload = QueryWorkload::sample(&graph, 30, 7);
            let truth = GroundTruth::new(graph.clone());
            let qbs = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(landmarks));
            for &(u, v) in workload.pairs() {
                assert_eq!(
                    qbs.query(u, v).unwrap(),
                    truth.query(u, v),
                    "{name} with {landmarks} landmarks, query ({u},{v})"
                );
            }
        }
    }
}

#[test]
fn qbs_handles_disconnected_graphs() {
    // Two islands: queries across them must be unreachable, queries within
    // them exact, even though one island has no landmark at all.
    let mut builder = GraphBuilder::new();
    // Island A: a dense-ish community holding all the high-degree vertices.
    for u in 0..30u32 {
        for v in (u + 1)..30 {
            if (u + v) % 3 == 0 {
                builder.add_edge(u, v);
            }
        }
    }
    // Island B: a sparse ring with uniformly low degree.
    for i in 0..20u32 {
        builder.add_edge(30 + i, 30 + (i + 1) % 20);
    }
    let graph = builder.build();
    let truth = GroundTruth::new(graph.clone());
    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(8));

    for (u, v) in [(0u32, 29u32), (31, 45), (3, 42), (40, 10), (35, 35)] {
        assert_eq!(
            index.query(u, v).unwrap(),
            truth.query(u, v),
            "query ({u},{v})"
        );
    }
    assert!(!index.query(5, 35).unwrap().is_reachable());
}

#[test]
fn qbs_matches_oracle_with_landmark_endpoints_on_catalog_graph() {
    let spec = *Catalog::paper_table1()
        .specs()
        .first()
        .expect("catalog non-empty");
    let graph = spec.generate(Scale::Tiny);
    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(10));
    let truth = GroundTruth::new(graph.clone());
    let others = QueryWorkload::sample(&graph, 10, 3);
    for &r in index.landmarks() {
        for &(x, _) in others.pairs() {
            assert_eq!(
                index.query(r, x).unwrap(),
                truth.query(r, x),
                "landmark query ({r},{x})"
            );
            assert_eq!(
                index.query(x, r).unwrap(),
                truth.query(x, r),
                "landmark query ({x},{r})"
            );
        }
    }
    // Landmark-to-landmark queries as well.
    let landmarks = index.landmarks().to_vec();
    for &a in &landmarks {
        for &b in &landmarks {
            assert_eq!(
                index.query(a, b).unwrap(),
                truth.query(a, b),
                "landmark pair ({a},{b})"
            );
        }
    }
}

#[test]
fn serialized_index_answers_like_the_original() {
    let spec = Catalog::paper_table1().specs()[1];
    let graph = spec.generate(Scale::Tiny);
    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(16));
    let restored = qbs::core::serialize::from_bytes(&qbs::core::serialize::to_bytes(&index))
        .expect("deserialize");
    let workload = QueryWorkload::sample_connected(&graph, 40, 9);
    for &(u, v) in workload.pairs() {
        assert_eq!(index.query(u, v).unwrap(), restored.query(u, v).unwrap());
    }
}

// The Definition 2.2 check above must itself reject every kind of wrong
// answer, or the differential would pass on anything.

#[test]
fn accepts_the_correct_answer() {
    let g = figure4_graph();
    let answer = PathGraph::from_edges(6, 11, 5, figure4_spg_6_11_edges());
    assert!(is_exact(&g, &answer));
}

#[test]
fn detects_wrong_distance() {
    let g = figure4_graph();
    let answer = PathGraph::from_edges(6, 11, 4, figure4_spg_6_11_edges());
    assert!(!is_exact(&g, &answer));
}

#[test]
fn detects_missing_and_extra_edges() {
    let g = figure4_graph();
    let mut missing = figure4_spg_6_11_edges();
    let dropped = missing.pop().expect("SPG(6, 11) has edges");
    assert!(!is_exact(
        &g,
        &PathGraph::from_edges(6, 11, 5, missing.clone())
    ));
    // Swapping the dropped edge for an off-path one keeps the edge count.
    missing.push((13, 14));
    assert!(g.has_edge(13, 14) && dropped != (13, 14));
    assert!(!is_exact(&g, &PathGraph::from_edges(6, 11, 5, missing)));
}

#[test]
fn detects_fabricated_edges() {
    let g = figure4_graph();
    let mut edges = figure4_spg_6_11_edges();
    edges.pop();
    edges.push((6, 11));
    assert!(!g.has_edge(6, 11));
    assert!(!is_exact(&g, &PathGraph::from_edges(6, 11, 5, edges)));
}

#[test]
fn unreachable_answers_must_be_empty() {
    let g = figure4_graph();
    assert!(is_exact(&g, &PathGraph::unreachable(0, 5)));
    let bad = PathGraph::from_edges(0, 5, INFINITE_DISTANCE, vec![(1u32, 2u32)]);
    assert!(!is_exact(&g, &bad));
}

#[test]
fn trivial_answers() {
    let g = figure4_graph();
    assert!(is_exact(&g, &PathGraph::trivial(5)));
    let bad = PathGraph::from_edges(5, 5, 1, vec![(5u32, 1u32)]);
    assert!(!is_exact(&g, &bad));
}
