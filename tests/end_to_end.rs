//! End-to-end scenario tests exercising the whole pipeline the way the
//! experiment harness and a downstream user would: generate a dataset
//! stand-in, build the index, run a workload, check the qualitative claims
//! the paper makes about the results.

use qbs::prelude::*;
use qbs_core::coverage::classify_workload;
use qbs_gen::catalog::{Catalog, DatasetId, Scale};

/// §6.2.2: "the labelling sizes of QbS are generally smaller than the
/// original sizes of graphs" and "hundreds of times smaller than PPL".
#[test]
fn labelling_sizes_follow_table3_shape() {
    let spec = *Catalog::paper_table1()
        .get(DatasetId::Youtube)
        .expect("dataset");
    let graph = spec.generate(Scale::Tiny);
    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
    let stats = index.stats();

    assert!(
        stats.labelling_paper_bytes < stats.graph_bytes,
        "size(L) {} should be below |G| {}",
        stats.labelling_paper_bytes,
        stats.graph_bytes
    );

    let ppl = Ppl::build(graph.clone());
    assert!(
        ppl.labelling_size_bytes() > 4 * stats.labelling_paper_bytes,
        "PPL {} should be far larger than QbS size(L) {}",
        ppl.labelling_size_bytes(),
        stats.labelling_paper_bytes
    );

    let parent = ParentPpl::build(graph);
    assert!(parent.labelling_size_bytes() > ppl.labelling_size_bytes());
}

/// §6.3: hub-dominated graphs (Youtube-like) have a much higher pair
/// coverage ratio than even-degree graphs (Friendster-like).
#[test]
fn pair_coverage_contrast_between_hub_and_even_degree_graphs() {
    let catalog = Catalog::paper_table1();
    let coverage_of = |id: DatasetId| {
        let graph = catalog.get(id).unwrap().generate(Scale::Tiny);
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
        let workload = QueryWorkload::sample_connected(&graph, 300, 17);
        classify_workload(&index, workload.pairs()).pair_coverage_ratio()
    };
    let youtube = coverage_of(DatasetId::Youtube);
    let friendster = coverage_of(DatasetId::Friendster);
    assert!(
        youtube > friendster,
        "hub graph coverage {youtube:.2} should exceed even-degree coverage {friendster:.2}"
    );
}

/// Table 2's qualitative claim: QbS answers queries faster than Bi-BFS on
/// hub-dominated graphs (checked as total workload time, not microbenchmark
/// precision). Bi-BFS is the same index and search built with no landmarks.
#[test]
fn qbs_beats_bibfs_on_a_hub_dominated_standin() {
    let spec = *Catalog::paper_table1()
        .get(DatasetId::Baidu)
        .expect("dataset");
    let graph = spec.generate(Scale::Small);
    let workload = QueryWorkload::sample_connected(&graph, 150, 5);

    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
    let landmark_free = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(0));

    // Warm both paths once, then time.
    let (u0, v0) = workload.pairs()[0];
    assert_eq!(
        index.query(u0, v0).unwrap(),
        landmark_free.query(u0, v0).unwrap()
    );

    let edges_and_time = |index: &QbsIndex| {
        let mut ws = QueryWorkspace::new();
        let t = std::time::Instant::now();
        let mut edges = 0usize;
        for &(u, v) in workload.pairs() {
            let request = QueryRequest::path_graph(u, v).with_stats();
            let outcome = index.execute_with(&mut ws, &request, None);
            edges += outcome.answer().unwrap().stats.edges_traversed;
        }
        (edges, t.elapsed())
    };
    let (qbs_edges, qbs_time) = edges_and_time(&index);
    let (plain_edges, plain_time) = edges_and_time(&landmark_free);

    // The robust claim is about traversal work (§6.5); wall-clock should
    // follow but is allowed slack on a loaded CI machine.
    assert!(
        qbs_edges < plain_edges,
        "QbS traversed {qbs_edges} edges vs Bi-BFS {plain_edges}"
    );
    assert!(
        qbs_time < plain_time * 3,
        "QbS {qbs_time:?} should not be drastically slower than Bi-BFS {plain_time:?}"
    );
}

/// Index persistence on a realistic graph: save to a temp file, reload and
/// verify a workload agrees with the oracle.
#[test]
fn persisted_index_round_trips_through_disk() {
    let spec = *Catalog::paper_table1()
        .get(DatasetId::Douban)
        .expect("dataset");
    let graph = spec.generate(Scale::Tiny);
    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(12));

    let dir = std::env::temp_dir().join("qbs_end_to_end_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("douban.qbs");
    qbs::core::serialize::save_to_file(&index, &path).expect("save");
    let restored =
        qbs::core::serialize::open_from_file(&path, qbs::core::MapMode::Read).expect("open");

    let oracle = GroundTruth::new(graph.clone());
    let workload = QueryWorkload::sample_connected(&graph, 50, 23);
    for &(u, v) in workload.pairs() {
        assert_eq!(restored.query(u, v).unwrap(), oracle.query(u, v));
    }
}

/// Figure 7's qualitative claim: sampled query distances on the stand-ins
/// concentrate in the small-world range (roughly 2–9).
#[test]
fn query_distances_fall_in_the_small_world_range() {
    for spec in Catalog::representative().specs() {
        let graph = spec.generate(Scale::Small);
        let workload = QueryWorkload::sample_connected(&graph, 500, 31);
        let histogram = workload.distance_histogram(&graph);
        let mean = histogram.mean().expect("non-empty workload");
        assert!(
            (1.5..=10.0).contains(&mean),
            "{:?}: mean sampled distance {mean:.2} outside the small-world range",
            spec.id
        );
        assert_eq!(histogram.unreachable, 0);
    }
}
