//! Property-based tests (proptest) over randomly generated graphs.
//!
//! These check the paper's stated invariants on arbitrary inputs rather than
//! hand-picked examples:
//!
//! * QbS answers equal the ground-truth shortest path graph (Theorem 5.1);
//! * the sketch upper bound dominates the true distance (Corollary 4.6);
//! * the labelling scheme is deterministic and order-independent
//!   (Lemma 5.2);
//! * answers are symmetric in the query endpoints and every answer edge is a
//!   graph edge (Definition 2.2);
//! * PPL and ParentPPL remain exact (2-hop path cover, Definition 3.2).

use proptest::prelude::*;

use qbs::prelude::*;
use qbs_graph::INFINITE_DISTANCE;

/// Strategy: a random edge list over up to `max_vertices` vertices, turned
/// into a normalised undirected graph (possibly disconnected).
fn arbitrary_graph(max_vertices: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    prop::collection::vec((0..max_vertices, 0..max_vertices), 1..max_edges).prop_map(move |edges| {
        let mut builder = GraphBuilder::from_edges(edges);
        builder.reserve_vertices(max_vertices as usize);
        builder.build()
    })
}

/// Exact oracle answer, used as the reference in every property.
fn oracle(graph: &Graph, u: VertexId, v: VertexId) -> PathGraph {
    GroundTruth::new(graph.clone()).query(u, v)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn qbs_matches_ground_truth_on_random_graphs(
        graph in arbitrary_graph(60, 220),
        landmarks in 1usize..12,
        u in 0u32..60,
        v in 0u32..60,
    ) {
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(landmarks));
        let answer = index.query(u, v).unwrap();
        let expected = oracle(&graph, u, v);
        prop_assert_eq!(&answer, &expected);
        // The distance path, which stops stage 1 at its first meeting
        // vertex and never expands at d_u + d_v = d⊤ − 1, gives the same
        // distance.
        prop_assert_eq!(index.distance(u, v).unwrap(), expected.distance());
    }

    #[test]
    fn qbs_answers_are_symmetric(
        graph in arbitrary_graph(50, 160),
        u in 0u32..50,
        v in 0u32..50,
    ) {
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(6));
        let forward = index.query(u, v).unwrap();
        let backward = index.query(v, u).unwrap();
        prop_assert_eq!(forward.edges(), backward.edges());
        prop_assert_eq!(forward.distance(), backward.distance());
    }

    #[test]
    fn sketch_upper_bound_dominates_distance(
        graph in arbitrary_graph(50, 200),
        u in 0u32..50,
        v in 0u32..50,
    ) {
        // Corollary 4.6: d⊤ ≥ d_G(u, v) whenever the sketch exists.
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(8));
        let sketch = index.sketch(u, v).expect("vertices in range");
        let d = oracle(&graph, u, v).distance();
        if sketch.upper_bound != INFINITE_DISTANCE && d != INFINITE_DISTANCE {
            prop_assert!(sketch.upper_bound >= d);
        }
        // And the guided search always reports the exact distance.
        if u != v {
            let request = QueryRequest::path_graph(u, v).with_stats();
            let outcome = index.execute_with(&mut QueryWorkspace::new(), &request, None);
            let stats = outcome.answer().unwrap().stats;
            prop_assert_eq!(stats.distance, d);
            prop_assert!(stats.upper_bound >= stats.distance || stats.distance == INFINITE_DISTANCE);
        }
    }

    #[test]
    fn labelling_is_deterministic_and_order_independent(
        graph in arbitrary_graph(40, 140),
        count in 1usize..8,
    ) {
        // Lemma 5.2: same landmark set (any order) — same scheme.
        let landmarks = graph.top_k_by_degree(count);
        let mut reversed = landmarks.clone();
        reversed.reverse();

        let sequential = qbs::core::labelling::build_sequential(&graph, &landmarks);
        prop_assert_eq!(&sequential, &qbs::core::labelling::build_sequential(&graph, &landmarks));

        let permuted = qbs::core::labelling::build_sequential(&graph, &reversed);
        for v in graph.vertices() {
            let mut a: Vec<(u32, u32)> = sequential
                .labelling
                .entries(v)
                .map(|(i, d)| (sequential.landmarks[i], d))
                .collect();
            let mut b: Vec<(u32, u32)> =
                permuted.labelling.entries(v).map(|(i, d)| (permuted.landmarks[i], d)).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn labels_store_exact_distances(
        graph in arbitrary_graph(40, 150),
        count in 1usize..8,
    ) {
        // Every label entry (r, δ) must satisfy δ = d_G(v, r) (Definition 4.2).
        let landmarks = graph.top_k_by_degree(count);
        let scheme = qbs::core::labelling::build_sequential(&graph, &landmarks);
        for (i, &r) in landmarks.iter().enumerate() {
            let dist = qbs::graph::traversal::bfs_distances(&graph, r);
            for v in graph.vertices() {
                if let Some(d) = scheme.labelling.get(v, i) {
                    prop_assert_eq!(d, dist[v as usize]);
                }
            }
        }
    }

    #[test]
    fn ppl_and_parent_ppl_are_exact(
        graph in arbitrary_graph(36, 110),
        u in 0u32..36,
        v in 0u32..36,
    ) {
        let expected = oracle(&graph, u, v);
        let ppl = Ppl::build(graph.clone());
        prop_assert_eq!(&ppl.query(u, v), &expected);
        let parent = ParentPpl::build(graph.clone());
        prop_assert_eq!(&parent.query(u, v), &expected);
        // PPL distances are exact too (2-hop distance cover).
        prop_assert_eq!(ppl.distance(u, v), expected.distance());
    }

    #[test]
    fn bibfs_is_exact_and_bounded_by_graph_size(
        graph in arbitrary_graph(48, 170),
        u in 0u32..48,
        v in 0u32..48,
    ) {
        // Bi-BFS is QbS with no landmarks: stage 1 is a plain bidirectional
        // BFS over the whole graph.
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(0));
        let request = QueryRequest::path_graph(u, v).with_stats();
        let outcome = index.execute_with(&mut QueryWorkspace::new(), &request, None);
        let answer = outcome.answer().unwrap();
        prop_assert_eq!(&answer.path_graph, &oracle(&graph, u, v));
        // Each side traverses every directed arc at most once.
        prop_assert!(answer.stats.edges_traversed <= 2 * graph.num_arcs() + 2);
    }

    #[test]
    fn answer_edges_are_graph_edges_and_vertices_lie_on_shortest_paths(
        graph in arbitrary_graph(45, 160),
        u in 0u32..45,
        v in 0u32..45,
    ) {
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(5));
        let answer = index.query(u, v).unwrap();
        let du = qbs::graph::traversal::bfs_distances(&graph, u);
        let dv = qbs::graph::traversal::bfs_distances(&graph, v);
        for &(a, b) in answer.edges() {
            prop_assert!(graph.has_edge(a, b));
        }
        if answer.is_reachable() && u != v {
            for x in answer.vertices() {
                prop_assert_eq!(
                    du[x as usize] + dv[x as usize],
                    answer.distance(),
                    "vertex {} not on any shortest path", x
                );
            }
        }
    }

    #[test]
    fn graph_builder_normalisation_invariants(
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..160),
    ) {
        // The substrate invariants everything else relies on: sorted,
        // deduplicated, symmetric adjacency with no self-loops.
        let graph = GraphBuilder::from_edges(edges.into_iter()).build();
        for v in graph.vertices() {
            let neighbors = graph.neighbors(v);
            prop_assert!(neighbors.windows(2).all(|w| w[0] < w[1]));
            for &w in neighbors {
                prop_assert_ne!(w, v);
                prop_assert!(graph.neighbors(w).binary_search(&v).is_ok());
            }
        }
        prop_assert_eq!(graph.edges().count(), graph.num_edges());
    }
}
