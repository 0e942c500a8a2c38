//! Figure 10: labelling construction time versus the number of landmarks.
//! The paper's parallel builder (QbS-P) has no counterpart here: on two
//! cores it measured no faster than the one-thread build.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use qbs_core::labelling;
use qbs_gen::catalog::{Catalog, DatasetId, Scale};

fn bench_construction_sweep(c: &mut Criterion) {
    let catalog = Catalog::paper_table1();
    let graph = catalog
        .get(DatasetId::Skitter)
        .unwrap()
        .generate(Scale::Tiny);
    let mut group = c.benchmark_group("fig10_construction_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(200));

    for count in [10usize, 40, 100] {
        let landmarks = graph.top_k_by_degree(count);
        group.bench_with_input(
            BenchmarkId::new("sequential", count),
            &landmarks,
            |b, landmarks| {
                b.iter(|| criterion::black_box(labelling::build_sequential(&graph, landmarks)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_construction_sweep);
criterion_main!(benches);
