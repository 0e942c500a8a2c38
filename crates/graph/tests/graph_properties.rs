//! Property-based tests of the graph substrate: CSR invariants, I/O
//! round-trips, traversal consistency and component structure on arbitrary
//! edge lists.

use proptest::prelude::*;

use qbs_graph::components::{connected_components, is_connected, largest_component};
use qbs_graph::traversal::{bfs_distances, shortest_path_dag};
use qbs_graph::{io, Graph, GraphBuilder, VertexFilter, INFINITE_DISTANCE};

fn arbitrary_graph(max_vertices: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    prop::collection::vec((0..max_vertices, 0..max_vertices), 0..max_edges).prop_map(move |edges| {
        let mut b = GraphBuilder::from_edges(edges);
        b.reserve_vertices(max_vertices as usize);
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn csr_adjacency_is_sorted_symmetric_and_loop_free(graph in arbitrary_graph(64, 256)) {
        for v in graph.vertices() {
            let adj = graph.neighbors(v);
            prop_assert!(adj.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!adj.contains(&v));
            for &w in adj {
                prop_assert!(graph.has_edge(w, v));
            }
        }
        prop_assert_eq!(graph.num_arcs(), 2 * graph.num_edges());
        prop_assert_eq!(graph.edges().count(), graph.num_edges());
    }

    #[test]
    fn binary_and_edge_list_roundtrips(graph in arbitrary_graph(48, 200)) {
        let decoded = io::decode_binary(&io::encode_binary(&graph)).expect("binary roundtrip");
        prop_assert_eq!(&decoded, &graph);

        let mut text = Vec::new();
        io::write_edge_list(&graph, &mut text).expect("write edge list");
        let parsed = io::read_edge_list(&text[..]).expect("read edge list");
        prop_assert_eq!(
            graph.edges().collect::<Vec<_>>(),
            parsed.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn bfs_distances_satisfy_the_triangle_property(
        graph in arbitrary_graph(40, 160),
        source in 0u32..40,
    ) {
        // Along every edge, BFS distances differ by at most one.
        let dist = bfs_distances(&graph, source);
        for (a, b) in graph.edges() {
            let (da, db) = (dist[a as usize], dist[b as usize]);
            match (da, db) {
                (INFINITE_DISTANCE, INFINITE_DISTANCE) => {}
                (INFINITE_DISTANCE, _) | (_, INFINITE_DISTANCE) => {
                    prop_assert!(false, "edge ({a},{b}) straddles reachability");
                }
                (da, db) => prop_assert!(da.abs_diff(db) <= 1),
            }
        }
    }

    #[test]
    fn shortest_path_dag_parents_are_consistent(
        graph in arbitrary_graph(40, 150),
        source in 0u32..40,
    ) {
        let dag = shortest_path_dag(&graph, source);
        for v in graph.vertices() {
            for &p in &dag.parents[v as usize] {
                prop_assert!(graph.has_edge(p, v));
                prop_assert_eq!(dag.dist[p as usize] + 1, dag.dist[v as usize]);
            }
            if v != source && dag.dist[v as usize] != INFINITE_DISTANCE {
                prop_assert!(!dag.parents[v as usize].is_empty());
                prop_assert!(dag.count_paths_to(v) >= 1);
            }
        }
    }

    #[test]
    fn components_partition_the_vertices(graph in arbitrary_graph(50, 160)) {
        let comps = connected_components(&graph);
        prop_assert_eq!(comps.sizes.iter().sum::<usize>(), graph.num_vertices());
        for (a, b) in graph.edges() {
            prop_assert!(comps.connected(a, b));
        }
        let (sub, map) = largest_component(&graph);
        prop_assert!(is_connected(&sub));
        prop_assert_eq!(sub.num_vertices(), map.len());
        if !graph.is_empty() {
            prop_assert_eq!(sub.num_vertices(), *comps.sizes.iter().max().unwrap());
        }
    }

    #[test]
    fn filtered_views_only_remove_the_marked_vertices(
        graph in arbitrary_graph(40, 140),
        marked in prop::collection::vec(0u32..40, 0..10),
    ) {
        use qbs_graph::view::NeighborAccess;
        let filter = VertexFilter::from_vertices(graph.num_vertices(), marked.iter().copied());
        let view = qbs_graph::FilteredGraph::new(&graph, &filter);
        prop_assert_eq!(view.remaining_vertices(), graph.num_vertices() - filter.len());
        for v in graph.vertices() {
            let mut seen = Vec::new();
            view.for_each_neighbor(v, |w| seen.push(w));
            if filter.contains(v) {
                prop_assert!(seen.is_empty());
            } else {
                let expected: Vec<_> = graph
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| !filter.contains(w))
                    .collect();
                prop_assert_eq!(seen, expected);
            }
        }
    }
}
