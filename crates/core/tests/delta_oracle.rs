//! Δ of every built meta-graph against the reference it replaced.
//!
//! `MetaGraph::build` reads Δ off the labelling with one label walk per
//! meta edge. The reference below is the definition computed directly: one
//! BFS per landmark `r` in `G[(V \ R) ∪ {r}]`, the graph minus every other
//! landmark. A shortest path between landmarks `a` and `b` with no other
//! landmark on it leaves `a` through that graph and enters `b` through one
//! of `b`'s neighbours, so the two BFSs give its length (through `b`'s row)
//! and every edge on it. The stored Δ and the reference must agree as
//! `Vec`s, order included, because the stored order is what the index
//! file holds.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use qbs_core::{MetaGraph, QbsConfig, QbsIndex};
use qbs_gen::prelude::*;
use qbs_graph::traversal::bfs_distances;
use qbs_graph::{
    Distance, FilteredGraph, Graph, GraphBuilder, VertexFilter, VertexId, INFINITE_DISTANCE,
};

/// One BFS from a landmark in the graph minus every other landmark.
struct LandmarkFreeBfs {
    /// Distance of each vertex; every other landmark is unreached.
    dist: Vec<Distance>,
    /// The reached vertices by nondecreasing distance.
    order: Vec<VertexId>,
}

impl LandmarkFreeBfs {
    fn new(graph: &Graph, landmarks: &[VertexId], r: VertexId) -> Self {
        let others = VertexFilter::from_vertices(
            graph.num_vertices(),
            landmarks.iter().copied().filter(|&x| x != r),
        );
        let dist = bfs_distances(&FilteredGraph::new(graph, &others), r);
        let mut order: Vec<VertexId> = graph
            .vertices()
            .filter(|&x| dist[x as usize] != INFINITE_DISTANCE)
            .collect();
        order.sort_by_key(|&x| dist[x as usize]);
        LandmarkFreeBfs { dist, order }
    }
}

/// The shortest path graph between landmarks `a` and `b` restricted to
/// paths that contain no other landmark, from `a`'s and `b`'s BFSs. An
/// edge `(x, y)` lies on such a path exactly when `d_a(x) + 1 + d_b(y)`
/// is `σ`; then `d_a(x) < σ`, so only the rows of `a`'s first BFS levels
/// are read. Sorted, which is the order `Graph::edges` lists them in.
fn landmark_pair_paths(
    graph: &Graph,
    b: VertexId,
    from_a: &LandmarkFreeBfs,
    from_b: &LandmarkFreeBfs,
    expected_distance: Distance,
) -> Vec<(VertexId, VertexId)> {
    let (da, db) = (&from_a.dist, &from_b.dist);
    let through_row = graph
        .neighbors(b)
        .iter()
        .map(|&x| da[x as usize].saturating_add(1))
        .min()
        .unwrap_or(INFINITE_DISTANCE);
    assert_eq!(
        through_row, expected_distance,
        "meta edge weight must equal the landmark-free distance"
    );
    let mut edges = Vec::new();
    for &x in &from_a.order {
        let dx = da[x as usize];
        if dx >= expected_distance {
            break;
        }
        for &y in graph.neighbors(x) {
            if db[y as usize] == expected_distance - 1 - dx {
                edges.push((x.min(y), x.max(y)));
            }
        }
    }
    edges.sort_unstable();
    edges
}

/// Builds an index over `graph` and asserts that every stored Δ equals the
/// reference exactly. Returns the meta-graph for further checks.
fn assert_delta_matches_bfs(graph: &Graph, config: QbsConfig, what: &str) -> MetaGraph {
    let index = QbsIndex::build(graph.clone(), config);
    let meta = index.meta_graph().clone();
    let landmarks = index.landmarks();
    let bfs: Vec<LandmarkFreeBfs> = landmarks
        .iter()
        .map(|&r| LandmarkFreeBfs::new(graph, landmarks, r))
        .collect();
    for (k, &(i, j, sigma)) in meta.edges().iter().enumerate() {
        let expected = landmark_pair_paths(graph, landmarks[j], &bfs[i], &bfs[j], sigma);
        assert_eq!(
            meta.delta_edges(k).to_vec(),
            expected,
            "{what}: Δ of meta edge ({i}, {j}), σ = {sigma}"
        );
    }
    meta
}

/// The generator families of `view_serving.rs`, a few sizes and seeds each.
#[test]
fn delta_matches_bfs_on_generator_families() {
    for seed in [3u64, 77, 901] {
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
                for count in [3usize, 20, 40] {
                    assert_delta_matches_bfs(
                        graph,
                        QbsConfig::with_landmark_count(count),
                        &format!("{family} n={vertices} seed={seed} |R|={count}"),
                    );
                }
            }
        }
    }
}

/// Every Table 1 stand-in of the catalog at the small scale.
#[test]
fn delta_matches_bfs_on_small_catalog_graphs() {
    let graphs: Vec<(&str, Graph)> = Catalog::paper_table1()
        .specs()
        .iter()
        .map(|spec| (spec.id.name(), spec.generate(Scale::Small)))
        .collect();
    // Two threads share the cases out, the largest |R| first.
    let cases: Vec<(usize, &(&str, Graph))> = [40usize, 20, 3]
        .into_iter()
        .flat_map(|count| graphs.iter().map(move |graph| (count, graph)))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(&(count, (name, graph))) = cases.get(next.fetch_add(1, Relaxed)) {
                    assert_delta_matches_bfs(
                        graph,
                        QbsConfig::with_landmark_count(count),
                        &format!("{name} |R|={count}"),
                    );
                }
            });
        }
    });
}

/// A landmark on one of two shortest paths between two others is not part
/// of their Δ; a landmark on every shortest path between two others leaves
/// them with no meta edge at all.
#[test]
fn delta_excludes_landmarks_on_shortest_paths() {
    // Two shortest 0–3 paths: 0-1-3 through landmark 1, and 0-2-3.
    let graph = GraphBuilder::from_edges([(0u32, 1), (1, 3), (0, 2), (2, 3)]).build();
    let meta = assert_delta_matches_bfs(
        &graph,
        QbsConfig::with_explicit_landmarks(vec![0, 3, 1]),
        "one of two paths",
    );
    let k = meta
        .edge_index(0, 1)
        .expect("landmarks 0 and 3 share a meta edge");
    assert_eq!(meta.delta_edges(k), &[(0, 2), (2, 3)]);

    // Every shortest 0–4 path passes landmark 2: Δ lives on (0,2) and (2,4).
    let graph =
        GraphBuilder::from_edges([(0u32, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 2)]).build();
    let meta = assert_delta_matches_bfs(
        &graph,
        QbsConfig::with_explicit_landmarks(vec![0, 2, 4]),
        "every path",
    );
    assert_eq!(meta.edges(), &[(0, 1, 2), (1, 2, 2)]);
    assert_eq!(meta.delta_edges(0), &[(0, 1), (0, 5), (1, 2), (2, 5)]);
    assert_eq!(meta.delta_edges(1), &[(2, 3), (3, 4)]);
}

/// Adjacent landmarks (σ = 1) have the single connecting edge as Δ, stored
/// as `(min, max)` whatever the landmarks' column order.
#[test]
fn delta_of_adjacent_landmarks_is_their_edge() {
    let graph = GraphBuilder::from_edges([(0u32, 1), (1, 2), (2, 3), (3, 0), (1, 4)]).build();
    let meta = assert_delta_matches_bfs(
        &graph,
        QbsConfig::with_explicit_landmarks(vec![4, 1, 3]),
        "adjacent",
    );
    let k = meta.edge_index(0, 1).expect("4 and 1 are adjacent");
    assert_eq!(meta.edges()[k], (0, 1, 1));
    assert_eq!(meta.delta_edges(k), &[(1, 4)]);
}

/// Landmarks in different components share no meta edge; those within a
/// component keep theirs.
#[test]
fn delta_of_disconnected_landmarks() {
    let mut builder = GraphBuilder::from_edges([(0u32, 1), (1, 2), (3, 4), (4, 5), (4, 6)]);
    builder.reserve_vertices(8);
    let graph = builder.build();
    let meta = assert_delta_matches_bfs(
        &graph,
        QbsConfig::with_explicit_landmarks(vec![0, 2, 3, 5, 7]),
        "disconnected",
    );
    assert_eq!(meta.edges(), &[(0, 1, 2), (2, 3, 2)]);
    assert_eq!(meta.delta_edges(0), &[(0, 1), (1, 2)]);
    assert_eq!(meta.delta_edges(1), &[(3, 4), (4, 5)]);
}
