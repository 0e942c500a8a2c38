//! Quickstart: start a QbS session over a synthetic social network, answer
//! shortest-path-graph queries (single and mixed typed batches), and
//! compare against the exact baseline.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use qbs::prelude::*;

fn main() {
    // 1. Build (or load) a graph. Here: a 20k-vertex scale-free network with
    //    hubs, the regime QbS is designed for.
    let graph = qbs::gen::barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 20_000,
        edges_per_vertex: 4,
        seed: 42,
    });
    println!(
        "graph: {} vertices, {} edges, max degree {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );

    // 2. Start a session: 20 highest-degree landmarks, parallel labelling,
    //    plus a sharded LRU answer cache.
    let start = std::time::Instant::now();
    let qbs = Qbs::build(graph.clone(), QbsConfig::with_landmark_count(20))
        .expect("session build")
        .with_cache(CacheConfig::default());
    let stats = qbs.stats().expect("owned session has stats");
    println!(
        "index built in {:?}: size(L) = {} bytes, size(Δ) = {} bytes ({}x the graph)",
        start.elapsed(),
        stats.labelling_paper_bytes,
        stats.delta_bytes,
        stats.index_to_graph_ratio()
    );

    // 3. Answer queries. The answer is a subgraph containing *exactly all*
    //    shortest paths between the two vertices.
    let oracle = GroundTruth::new(graph.clone());
    let workload = QueryWorkload::sample_connected(&graph, 5, 7);
    for &(u, v) in workload.pairs() {
        let outcome = qbs.execute(&QueryRequest::path_graph(u, v).with_stats());
        let answer = outcome.answer().expect("in range");
        let spg = &answer.path_graph;
        println!(
            "SPG({u}, {v}): distance {}, {} vertices, {} edges, d⊤ = {}, reverse = {}, recover = {}",
            spg.distance(),
            spg.num_vertices(),
            spg.num_edges(),
            answer.sketch.upper_bound,
            answer.stats.used_reverse_search,
            answer.stats.used_recover_search,
        );
        // The answer always matches the exact two-BFS oracle.
        assert_eq!(spg, &oracle.query(u, v));
    }

    // 4. Typed batches: distance / path / sketch requests mix freely, and a
    //    bad request yields an error outcome for its slot only.
    let (u, v) = workload.pairs()[0];
    let outcomes = qbs.submit(&[
        QueryRequest::distance(u, v),
        QueryRequest::path_graph(u, v).with_stats(),
        QueryRequest::sketch(u, v),
        QueryRequest::distance(u, 999_999_999), // out of range
    ]);
    assert_eq!(outcomes[0].distance(), outcomes[1].distance());
    assert!(outcomes[1].answer().is_some());
    assert!(outcomes[2].sketch().is_some());
    assert!(outcomes[3].is_error(), "one bad slot, batch survived");
    println!(
        "mixed batch: {} outcomes, {} error ({})",
        outcomes.len(),
        outcomes.iter().filter(|o| o.is_error()).count(),
        outcomes[3].error().expect("error outcome"),
    );

    // 5. Timed batches: the online cost of QbS vs the search-based baseline,
    //    then the same workload warm out of the answer cache.
    let pairs = QueryWorkload::sample_connected(&graph, 200, 11);
    let requests: Vec<QueryRequest> = pairs
        .pairs()
        .iter()
        .map(|&(a, b)| QueryRequest::path_graph(a, b))
        .collect();
    let t = std::time::Instant::now();
    std::hint::black_box(qbs.submit(&requests));
    let qbs_time = t.elapsed();
    let t = std::time::Instant::now();
    std::hint::black_box(qbs.submit(&requests));
    let warm_time = t.elapsed();
    // Bi-BFS is the same search with no landmarks.
    let landmark_free =
        Qbs::build(graph, QbsConfig::with_landmark_count(0)).expect("landmark-free index builds");
    let t = std::time::Instant::now();
    std::hint::black_box(landmark_free.submit(&requests));
    let baseline_time = t.elapsed();
    let cache = qbs.cache_stats().expect("cache attached");
    println!(
        "200 queries: QbS {:?} cold / {:?} warm-cache, Bi-BFS {:?} ({:.1}x speed-up cold; \
         cache hit rate {:.0}%)",
        qbs_time,
        warm_time,
        baseline_time,
        baseline_time.as_secs_f64() / qbs_time.as_secs_f64().max(f64::EPSILON),
        cache.hit_ratio() * 100.0,
    );
}
