//! Bounded-exhaustive oracle: every labelled simple graph on at most five
//! vertices, under every landmark subset, queried on every ordered pair
//! (`(u, u)` included).
//!
//! Each query goes through three doors, each ending in the index's one query
//! door `QbsIndex::execute_with`: the index as built on the heap, the same
//! index after a `serialize::to_bytes` / `from_bytes` round trip, and one
//! `Qbs::submit` batch per index on a 2-thread session with an answer cache
//! on. Each door must give
//!
//! - the path graph `GroundTruth` computes,
//! - the true distance from the distance mode,
//! - a sketch bound `d⊤` no less than that distance (∞ when there is none),
//! - in sketch mode, exactly the sketch the path-graph answer carries.
//!
//! Samples miss small corner cases that an enumeration cannot: isolated
//! landmarks, landmark endpoints, every vertex a landmark, ties between
//! `G⁻` and landmark routes. The six-vertex tier (2 097 152 builds) is
//! ignored here and run in release by CI with `--include-ignored`.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use qbs::core::{serialize, Sketch};
use qbs::graph::Distance;
use qbs::prelude::*;

/// The simple graph on `n` vertices whose edges are the set bits of `mask`,
/// bit `k` standing for the `k`-th pair `{a, b}`, `a < b`, in lexicographic
/// order.
fn graph_of(n: usize, mask: u32) -> Graph {
    let mut builder = GraphBuilder::new();
    builder.reserve_vertices(n);
    let pairs = (0..n as VertexId).flat_map(|a| (a + 1..n as VertexId).map(move |b| (a, b)));
    for (k, (a, b)) in pairs.enumerate() {
        if mask >> k & 1 == 1 {
            builder.add_edge(a, b);
        }
    }
    builder.build()
}

/// Every ordered pair of an `n`-vertex graph, row-major.
fn ordered_pairs(n: usize) -> impl Iterator<Item = (VertexId, VertexId)> {
    (0..n as VertexId).flat_map(move |u| (0..n as VertexId).map(move |v| (u, v)))
}

/// The landmark subset whose members are the set bits of `subset`.
fn landmarks_of(n: usize, subset: u32) -> Vec<VertexId> {
    (0..n as VertexId)
        .filter(|&x| subset >> x & 1 == 1)
        .collect()
}

/// Checks one answer triple (path graph with its sketch and stats, the
/// distance mode's distance, the sketch mode's sketch) against the truth.
fn check_answer(
    truth: &PathGraph,
    answer: &QueryAnswer,
    distance: Distance,
    sketch: &Sketch,
    what: &dyn Fn() -> String,
) {
    assert_eq!(&answer.path_graph, truth, "{}: path graph", what());
    assert_eq!(distance, truth.distance(), "{}: distance mode", what());
    assert!(
        answer.sketch.upper_bound >= truth.distance(),
        "{}: d⊤ = {} below the distance {}",
        what(),
        answer.sketch.upper_bound,
        truth.distance()
    );
    assert_eq!(sketch, &answer.sketch, "{}: sketch mode", what());
}

/// The heap and round-trip doors: one index's query door, in all three
/// modes on one workspace.
fn check_index(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    truths: &[PathGraph],
    n: usize,
    what: &dyn Fn() -> String,
) {
    for ((u, v), truth) in ordered_pairs(n).zip(truths) {
        let path = index.execute_with(ws, &QueryRequest::path_graph(u, v).with_stats(), None);
        let distance = index.execute_with(ws, &QueryRequest::distance(u, v), None);
        let sketch = index.execute_with(ws, &QueryRequest::sketch(u, v), None);
        let (Some(answer), QueryOutcome::Distance(distance), Some(sketch)) =
            (path.answer(), distance, sketch.sketch())
        else {
            panic!("{} ({u},{v}): an answer in the wrong mode", what());
        };
        check_answer(truth, answer, distance, sketch, &|| {
            format!("{} ({u},{v})", what())
        });
    }
}

/// The session door: every pair in all three modes, each request twice so
/// the batch repeats every key and the second copy can hit the cache, in
/// one batch.
fn check_session(qbs: &Qbs, truths: &[PathGraph], n: usize, what: &dyn Fn() -> String) {
    let requests: Vec<QueryRequest> = ordered_pairs(n)
        .flat_map(|(u, v)| {
            let modes = [
                QueryRequest::path_graph(u, v).with_stats(),
                QueryRequest::distance(u, v),
                QueryRequest::sketch(u, v),
            ];
            modes.into_iter().flat_map(|r| [r, r])
        })
        .collect();
    let outcomes = qbs.submit(&requests);
    assert_eq!(outcomes.len(), requests.len());
    for (((u, v), truth), slots) in ordered_pairs(n).zip(truths).zip(outcomes.chunks(6)) {
        let what = || format!("{} submit ({u},{v})", what());
        assert_eq!(slots[0], slots[1], "{}: duplicate path slots", what());
        assert_eq!(slots[2], slots[3], "{}: duplicate distance slots", what());
        assert_eq!(slots[4], slots[5], "{}: duplicate sketch slots", what());
        let answer = slots[0].answer().expect("path graph with stats");
        let distance = match slots[2] {
            QueryOutcome::Distance(d) => d,
            ref other => panic!("{}: distance slot holds {other:?}", what()),
        };
        let sketch = match &slots[4] {
            QueryOutcome::Sketch(s) => s,
            other => panic!("{}: sketch slot holds {other:?}", what()),
        };
        check_answer(truth, answer, distance, sketch, &what);
    }
}

/// Sweeps every graph on `n` vertices and every landmark subset on two
/// threads, through the heap door and, with `all_doors`, the other two.
/// Returns the number of (graph, landmark subset, ordered pair) queries.
fn sweep(n: usize, all_doors: bool) -> usize {
    let graphs = 1u32 << (n * (n - 1) / 2);
    let next = AtomicUsize::new(0);
    let queries = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut ws = QueryWorkspace::new();
                loop {
                    let mask = next.fetch_add(1, Relaxed) as u32;
                    if mask >= graphs {
                        break;
                    }
                    let graph = graph_of(n, mask);
                    let oracle = GroundTruth::new(graph.clone());
                    let truths: Vec<PathGraph> = ordered_pairs(n)
                        .map(|(u, v)| oracle.shortest_path_graph(u, v))
                        .collect();
                    for subset in 0..1u32 << n {
                        let landmarks = landmarks_of(n, subset);
                        let what = || format!("n={n} edges={mask:#x} R={landmarks:?}");
                        let config = QbsConfig::with_explicit_landmarks(landmarks.clone());
                        let heap = QbsIndex::build(graph.clone(), config);
                        check_index(&heap, &mut ws, &truths, n, &|| format!("{} heap", what()));
                        if all_doors {
                            let bytes = serialize::to_bytes(&heap);
                            let reread = serialize::from_bytes(&bytes).expect("round trip");
                            check_index(&reread, &mut ws, &truths, n, &|| {
                                format!("{} from_bytes", what())
                            });
                            let cache = CacheConfig {
                                admission_threshold: 0,
                                ..CacheConfig::default()
                            };
                            let qbs = Qbs::from_index(heap)
                                .with_threads(2)
                                .unwrap()
                                .with_cache(cache);
                            check_session(&qbs, &truths, n, &what);
                        }
                        queries.fetch_add(n * n, Relaxed);
                    }
                }
            });
        }
    });
    queries.into_inner()
}

#[test]
fn every_graph_on_at_most_five_vertices_through_three_doors() {
    let queries: usize = (1..=5).map(|n| sweep(n, true)).sum();
    // Σ_{n ≤ 5} 2^(n(n−1)/2) · 2^n · n²: graphs × landmark subsets × pairs.
    assert_eq!(queries, 836_194);
}

#[test]
#[ignore = "2 097 152 builds; run in release with --include-ignored"]
fn every_graph_on_six_vertices_through_the_heap_door() {
    assert_eq!(sweep(6, false), 75_497_472);
}
