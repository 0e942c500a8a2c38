//! Table 2 (construction columns): index construction time of QbS and the
//! labelling baselines on representative stand-ins.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use qbs_baselines::Ppl;
use qbs_core::{QbsConfig, QbsIndex};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};

fn bench_construction(c: &mut Criterion) {
    let catalog = Catalog::paper_table1();
    let mut group = c.benchmark_group("table2_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(200));

    for id in [DatasetId::Douban, DatasetId::Dblp] {
        let graph = catalog.get(id).unwrap().generate(Scale::Tiny);
        group.bench_with_input(BenchmarkId::new("QbS", id.abbrev()), &graph, |b, g| {
            b.iter(|| QbsIndex::build(g.clone(), QbsConfig::with_landmark_count(20)));
        });
        group.bench_with_input(BenchmarkId::new("PPL", id.abbrev()), &graph, |b, g| {
            b.iter(|| Ppl::build(g.clone()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
