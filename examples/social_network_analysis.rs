//! Social-tie analysis with shortest path graphs.
//!
//! The paper's introduction motivates shortest path *graphs* (rather than a
//! single shortest path) with social networks: two pairs of users at the
//! same distance can be connected by wildly different path structures
//! (Figure 1), and that structure reflects the strength of the tie. This
//! example reproduces that analysis on a community-structured synthetic
//! social network:
//!
//! * pairs inside a community tend to have many short, braided connections
//!   (a large shortest path graph);
//! * pairs in different communities are funnelled through a few bridge
//!   vertices (a thin shortest path graph), which are exactly the vertices a
//!   community detector or influence model would care about.
//!
//! Run with `cargo run --release --example social_network_analysis`.

use qbs::prelude::*;
use qbs_gen::community::{self, PlantedPartitionConfig};

fn main() {
    let config = PlantedPartitionConfig {
        communities: 12,
        community_size: 800,
        intra_degree: 10.0,
        inter_degree: 1.5,
        seed: 7,
    };
    let graph = community::generate(&config);
    println!(
        "social network: {} members, {} friendships, {} communities",
        graph.num_vertices(),
        graph.num_edges(),
        config.communities
    );

    let qbs = Qbs::build(graph.clone(), QbsConfig::with_landmark_count(20)).expect("session build");

    // Compare the tie structure of intra-community vs inter-community pairs
    // at the same hop distance. The typed batch API answers the whole
    // workload through the concurrent engine in one call.
    let workload = QueryWorkload::sample_connected(&graph, 4_000, 123);
    let requests: Vec<QueryRequest> = workload
        .pairs()
        .iter()
        .map(|&(u, v)| QueryRequest::path_graph(u, v))
        .collect();
    let outcomes = qbs.submit(&requests);
    let mut intra = Vec::new();
    let mut inter = Vec::new();
    for (&(u, v), outcome) in workload.pairs().iter().zip(&outcomes) {
        let same = community::community_of(&config, u) == community::community_of(&config, v);
        let answer = outcome.path_graph().expect("workload pairs are in range");
        if !answer.is_reachable() || answer.distance() != 3 {
            continue; // fix the distance so only the structure differs
        }
        let paths = (answer.num_edges(), answer.num_vertices());
        if same {
            intra.push(paths);
        } else {
            inter.push(paths);
        }
    }
    let avg = |set: &[(usize, usize)]| {
        if set.is_empty() {
            (0.0, 0.0)
        } else {
            (
                set.iter().map(|p| p.0 as f64).sum::<f64>() / set.len() as f64,
                set.iter().map(|p| p.1 as f64).sum::<f64>() / set.len() as f64,
            )
        }
    };
    let (intra_edges, intra_vertices) = avg(&intra);
    let (inter_edges, inter_vertices) = avg(&inter);
    println!("\npairs at distance exactly 3:");
    println!(
        "  same community      ({} pairs): avg {:.1} edges / {:.1} vertices per shortest path graph",
        intra.len(),
        intra_edges,
        intra_vertices
    );
    println!(
        "  different community ({} pairs): avg {:.1} edges / {:.1} vertices per shortest path graph",
        inter.len(),
        inter_edges,
        inter_vertices
    );
    println!("  (denser shortest path graphs = stronger, more redundant social ties)");

    // Drill into one cross-community pair: the vertices shared by *all*
    // shortest paths are the bridge users (the Shortest Path Common Links
    // problem from the introduction).
    if let Some(&(u, v)) = workload
        .pairs()
        .iter()
        .find(|&&(u, v)| community::community_of(&config, u) != community::community_of(&config, v))
    {
        let outcome = qbs.execute(&QueryRequest::path_graph(u, v));
        let answer = outcome.path_graph().expect("in range");
        let truth = GroundTruth::new(graph.clone());
        assert_eq!(answer, &truth.query(u, v));
        let bridges = critical_vertices(&graph, answer);
        println!(
            "\ncross-community pair ({u}, {v}): distance {}, {} shortest-path vertices, {} of them critical: {:?}",
            answer.distance(),
            answer.num_vertices(),
            bridges.len(),
            bridges
        );
    }
}

/// Vertices (other than the endpoints) that lie on *every* shortest path:
/// removing any of them increases the distance — the "critical vertices" of
/// the Shortest Path Network Interdiction problem.
fn critical_vertices(graph: &Graph, answer: &PathGraph) -> Vec<VertexId> {
    let (u, v) = (answer.source(), answer.target());
    answer
        .vertices()
        .into_iter()
        .filter(|&x| x != u && x != v)
        .filter(|&x| {
            let filter = VertexFilter::from_vertices(graph.num_vertices(), [x]);
            let view = qbs::graph::FilteredGraph::new(graph, &filter);
            qbs::graph::traversal::bfs_distance_to(&view, u, v) > answer.distance()
        })
        .collect()
}
