//! Differential tests of every baseline against the ground-truth oracle on
//! generated graphs, plus the 2-hop path-cover property of PPL labels
//! (Definition 3.2) checked directly.

use qbs_baselines::{GroundTruth, ParentPpl, Ppl, SpgEngine};
use qbs_gen::prelude::*;
use qbs_gen::structured;
use qbs_graph::traversal::bfs_distances;
use qbs_graph::Graph;

fn check_engines(graph: &Graph, queries: usize, seed: u64, tag: &str) {
    let truth = GroundTruth::new(graph.clone());
    let ppl = Ppl::build(graph.clone());
    let parent = ParentPpl::build(graph.clone());
    let workload = QueryWorkload::sample(graph, queries, seed);
    for &(u, v) in workload.pairs() {
        let expected = truth.query(u, v);
        assert_eq!(ppl.query(u, v), expected, "{tag}: PPL ({u},{v})");
        assert_eq!(parent.query(u, v), expected, "{tag}: ParentPPL ({u},{v})");
    }
}

#[test]
fn baselines_are_exact_on_scale_free_graphs() {
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 400,
        edges_per_vertex: 3,
        seed: 13,
    });
    check_engines(&graph, 40, 1, "barabasi-albert");
}

#[test]
fn baselines_are_exact_on_power_law_and_community_graphs() {
    let power = power_law::generate(&PowerLawConfig {
        vertices: 350,
        edges: 1200,
        exponent: 2.2,
        seed: 4,
    });
    check_engines(&power, 30, 2, "power-law");

    let community = community::generate(&PlantedPartitionConfig {
        communities: 6,
        community_size: 60,
        intra_degree: 6.0,
        inter_degree: 1.0,
        seed: 8,
    });
    check_engines(&community, 30, 3, "planted-partition");
}

#[test]
fn baselines_are_exact_on_structured_graphs() {
    for (tag, graph) in [
        ("grid", structured::grid(10, 8)),
        ("hypercube", structured::hypercube(6)),
        ("barbell", structured::barbell(10, 4)),
        ("cycle", structured::cycle(41)),
    ] {
        check_engines(&graph, 25, 7, tag);
    }
}

/// Definition 3.2 checked directly: for every pair of vertices and every
/// shortest path of length ≥ 2 between them, some interior vertex appears in
/// both labels with exact distances. (Checked via the equivalent distance
/// condition over interior vertices: an interior vertex `w` on a shortest
/// path with `(w, δ_uw) ∈ L(u)` and `(w, δ_vw) ∈ L(v)` summing to `d(u,v)`.)
#[test]
fn ppl_labels_form_a_two_hop_path_cover_on_a_random_graph() {
    let graph = erdos_renyi::generate(&ErdosRenyiConfig {
        vertices: 120,
        edges: 300,
        seed: 6,
    });
    let ppl = Ppl::build(graph.clone());

    // Precompute all BFS distances (120 sources is cheap).
    let all_dist: Vec<Vec<u32>> = graph.vertices().map(|s| bfs_distances(&graph, s)).collect();

    let label_distance = |x: u32, r: u32| -> Option<u32> {
        ppl.label(x).iter().find(|&&(l, _)| l == r).map(|&(_, d)| d)
    };

    for u in graph.vertices() {
        for v in graph.vertices() {
            let d = all_dist[u as usize][v as usize];
            if u == v || d < 2 || d == qbs_graph::INFINITE_DISTANCE {
                continue;
            }
            // Every shortest path must be witnessed: check per *edge* on the
            // shortest-path DAG that some interior landmark covers a path
            // through that edge. A sufficient and easily checkable condition
            // for the recursive query's completeness is that for every
            // vertex w interior to some shortest u-v path there is a
            // minimiser landmark r (interior, in both labels) with
            // d(u,r) + d(r,v) = d — we check the global existence here.
            let has_interior_minimiser = graph.vertices().any(|r| {
                let dur = all_dist[u as usize][r as usize];
                let dvr = all_dist[v as usize][r as usize];
                r != u
                    && r != v
                    && dur != qbs_graph::INFINITE_DISTANCE
                    && dvr != qbs_graph::INFINITE_DISTANCE
                    && dur + dvr == d
                    && label_distance(u, r) == Some(dur)
                    && label_distance(v, r) == Some(dvr)
            });
            assert!(
                has_interior_minimiser,
                "pair ({u},{v}) at distance {d} has no covered interior landmark"
            );
        }
    }
}

/// The labelling sizes follow the paper's ordering: PPL labels are much
/// larger than the graph-independent QbS budget would be, and ParentPPL is
/// strictly larger than PPL.
#[test]
fn labelling_size_ordering() {
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 500,
        edges_per_vertex: 3,
        seed: 3,
    });
    let ppl = Ppl::build(graph.clone());
    let parent = ParentPpl::build(graph.clone());
    assert!(ppl.total_label_entries() >= graph.num_vertices());
    assert!(parent.labelling_size_bytes() > ppl.labelling_size_bytes());
    // The per-vertex label is far smaller than |V| on hub-dominated graphs —
    // the whole point of pruning.
    let avg_label = ppl.total_label_entries() as f64 / graph.num_vertices() as f64;
    assert!(
        avg_label < graph.num_vertices() as f64 / 4.0,
        "avg label {avg_label}"
    );
}

/// The checked batch API isolates per-request failures uniformly across
/// every baseline: a poisoned pair mid-batch yields one `Err` slot while
/// the surrounding pairs are answered exactly as before.
#[test]
fn try_query_batch_isolates_poisoned_pairs() {
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 200,
        edges_per_vertex: 3,
        seed: 99,
    });
    let n = graph.num_vertices() as u32;
    let truth = GroundTruth::new(graph.clone());
    let engines: Vec<Box<dyn SpgEngine>> = vec![
        Box::new(GroundTruth::new(graph.clone())),
        Box::new(Ppl::build(graph.clone())),
        Box::new(ParentPpl::build(graph.clone())),
    ];
    let batch = [(0u32, 5u32), (3, n), (7, 9), (n + 4, 1), (2, 8)];
    for engine in &engines {
        assert_eq!(engine.num_vertices(), graph.num_vertices());
        let outcomes = engine.try_query_batch(&batch);
        assert_eq!(outcomes.len(), batch.len());
        for (slot, (&(u, v), outcome)) in batch.iter().zip(&outcomes).enumerate() {
            if u >= n || v >= n {
                let err = outcome.as_ref().expect_err("poisoned slot fails");
                assert_eq!(err.num_vertices, graph.num_vertices());
                assert_eq!(err.vertex, if u >= n { u } else { v });
                assert!(err.to_string().contains("out of range"));
            } else {
                let answer = outcome.as_ref().unwrap_or_else(|e| {
                    panic!("{}: slot {slot} unexpectedly failed: {e}", engine.name())
                });
                assert_eq!(answer, &truth.query(u, v), "{}: ({u},{v})", engine.name());
            }
        }
    }
}
