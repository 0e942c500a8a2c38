//! Ablation: how much the sketch-guided search and the landmark selection
//! strategy contribute to query performance.
//!
//! * `guided` — the full QbS pipeline (sketch + guided search).
//! * `unguided` — Bi-BFS on the full graph: the same search built with no
//!   landmarks (no labels, so no sketch to guide it), the §6.5
//!   counterfactual.
//! * `random_landmarks` — QbS with uniformly random landmarks instead of the
//!   highest-degree ones.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use qbs_core::{LandmarkStrategy, QbsConfig, QbsIndex};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_gen::QueryWorkload;

fn bench_ablation(c: &mut Criterion) {
    let catalog = Catalog::paper_table1();
    let graph = catalog.get(DatasetId::Baidu).unwrap().generate(Scale::Tiny);
    let workload = QueryWorkload::sample_connected(&graph, 64, 99);
    let pairs = workload.pairs().to_vec();

    let guided = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
    let random = QbsIndex::build(
        graph.clone(),
        QbsConfig {
            landmarks: LandmarkStrategy::Random { count: 20, seed: 1 },
        },
    );
    let unguided = QbsIndex::build(graph, QbsConfig::with_landmark_count(0));

    let mut group = c.benchmark_group("ablation_guided_search");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(200));

    group.bench_with_input(BenchmarkId::new("guided", "BA"), &pairs, |b, pairs| {
        b.iter(|| {
            for &(u, v) in pairs {
                criterion::black_box(guided.query(u, v).expect("in range"));
            }
        });
    });
    group.bench_with_input(
        BenchmarkId::new("random_landmarks", "BA"),
        &pairs,
        |b, pairs| {
            b.iter(|| {
                for &(u, v) in pairs {
                    criterion::black_box(random.query(u, v).expect("in range"));
                }
            });
        },
    );
    group.bench_with_input(BenchmarkId::new("unguided", "BA"), &pairs, |b, pairs| {
        b.iter(|| {
            for &(u, v) in pairs {
                criterion::black_box(unguided.query(u, v).expect("in range"));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
