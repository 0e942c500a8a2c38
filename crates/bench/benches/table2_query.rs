//! Table 2 (query columns): average query time of QbS against PPL,
//! ParentPPL and Bi-BFS (QbS built with no landmarks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use qbs_baselines::{ParentPpl, Ppl, SpgEngine};
use qbs_core::{QbsConfig, QbsIndex};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_gen::QueryWorkload;

fn bench_query(c: &mut Criterion) {
    let catalog = Catalog::paper_table1();
    let mut group = c.benchmark_group("table2_query");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(200));

    for id in [DatasetId::Douban, DatasetId::Youtube] {
        let graph = catalog.get(id).unwrap().generate(Scale::Tiny);
        let workload = QueryWorkload::sample_connected(&graph, 64, 2021);
        let pairs = workload.pairs().to_vec();

        let qbs = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
        let ppl = Ppl::build(graph.clone());
        let parent_ppl = ParentPpl::build(graph.clone());
        let landmark_free = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(0));

        group.bench_with_input(BenchmarkId::new("QbS", id.abbrev()), &pairs, |b, pairs| {
            b.iter(|| {
                for &(u, v) in pairs {
                    criterion::black_box(qbs.query(u, v).expect("in range"));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("PPL", id.abbrev()), &pairs, |b, pairs| {
            b.iter(|| {
                for &(u, v) in pairs {
                    criterion::black_box(ppl.query(u, v));
                }
            });
        });
        group.bench_with_input(
            BenchmarkId::new("ParentPPL", id.abbrev()),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    for &(u, v) in pairs {
                        criterion::black_box(parent_ppl.query(u, v));
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("Bi-BFS", id.abbrev()),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    for &(u, v) in pairs {
                        criterion::black_box(landmark_free.query(u, v).expect("in range"));
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
