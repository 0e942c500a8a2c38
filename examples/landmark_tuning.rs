//! Landmark tuning: how the number and choice of landmarks affects QbS.
//!
//! Reproduces, on one dataset stand-in, the trade-off the paper studies in
//! §6.4 (Figures 9-11) and the landmark-selection question it leaves as
//! future work (§8): more landmarks sparsify the graph further and raise
//! pair coverage, but cost more construction time and labelling space, and
//! past a point they stop helping query time.
//!
//! Run with `cargo run --release --example landmark_tuning`.

use std::time::Instant;

use qbs::core::coverage::classify_workload;
use qbs::prelude::*;
use qbs_gen::catalog::{Catalog, DatasetId, Scale};

fn main() {
    let spec = *Catalog::paper_table1()
        .get(DatasetId::Youtube)
        .expect("catalog dataset");
    let graph = spec.generate(Scale::Small);
    let workload = QueryWorkload::sample_connected(&graph, 500, 2021);
    println!(
        "dataset: {} stand-in — {} vertices, {} edges, max degree {}\n",
        spec.id.name(),
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );

    println!(
        "{:>4}  {:>10}  {:>12}  {:>12}  {:>10}  {:>10}",
        "|R|", "build (s)", "size(L)+Δ", "coverage", "avg q (ms)", "vs Bi-BFS"
    );

    // Baseline for the speed-up column: Bi-BFS is QbS with no landmarks.
    let landmark_free =
        Qbs::build(graph.clone(), QbsConfig::with_landmark_count(0)).expect("session build");
    let t0 = Instant::now();
    for &(u, v) in workload.pairs() {
        std::hint::black_box(landmark_free.execute(&QueryRequest::path_graph(u, v)));
    }
    let baseline_ms = t0.elapsed().as_secs_f64() * 1e3 / workload.len() as f64;

    for landmarks in [5usize, 10, 20, 40, 80] {
        let t0 = Instant::now();
        let qbs = Qbs::build(graph.clone(), QbsConfig::with_landmark_count(landmarks))
            .expect("session build");
        let build = t0.elapsed().as_secs_f64();
        let stats = qbs.stats().expect("owned session");
        let index = qbs.index().expect("owned session");
        let coverage = classify_workload(index, workload.pairs()).pair_coverage_ratio();

        let t0 = Instant::now();
        for &(u, v) in workload.pairs() {
            std::hint::black_box(qbs.execute(&QueryRequest::path_graph(u, v)));
        }
        let query_ms = t0.elapsed().as_secs_f64() * 1e3 / workload.len() as f64;

        println!(
            "{landmarks:>4}  {build:>10.3}  {:>12}  {coverage:>11.2}  {query_ms:>10.3}  {:>9.1}x",
            format_bytes(stats.labelling_paper_bytes + stats.delta_bytes),
            baseline_ms / query_ms.max(f64::EPSILON),
        );
    }

    // Landmark *strategy* comparison at the paper's default |R| = 20.
    println!("\nlandmark strategy at |R| = 20:");
    for (label, strategy) in [
        (
            "highest degree (paper)",
            LandmarkStrategy::HighestDegree { count: 20 },
        ),
        ("random", LandmarkStrategy::Random { count: 20, seed: 3 }),
    ] {
        let qbs = Qbs::build(
            graph.clone(),
            QbsConfig {
                landmarks: strategy,
            },
        )
        .expect("session build");
        let coverage =
            classify_workload(qbs.index().expect("owned"), workload.pairs()).pair_coverage_ratio();
        let t0 = Instant::now();
        for &(u, v) in workload.pairs() {
            std::hint::black_box(qbs.execute(&QueryRequest::path_graph(u, v)));
        }
        let query_ms = t0.elapsed().as_secs_f64() * 1e3 / workload.len() as f64;
        println!("  {label:<24} coverage {coverage:.2}, avg query {query_ms:.3} ms");
    }
}

fn format_bytes(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.2}MB", bytes as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.1}KB", bytes as f64 / 1024.0)
    }
}
