//! Differential coverage of the batch path: for every generator family
//! (shuffled-uniform, duplicated, source-clustered), `submit(batch)` must
//! be **bit-identical** to running the same requests one at a time on a
//! fresh workspace — on the heap buffer of a build and on a mapping of its
//! saved file, with the answer cache cold and warm, and with many callers
//! sharing one session's workers — and every answer must match the BFS
//! ground truth. A request repeated in a frame is executed like any other
//! slot, so its cache traffic is what it would be if submitted alone.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use qbs_baselines::{GroundTruth, SpgEngine};
use qbs_core::request::{QueryMode, QueryOutcome, QueryRequest};
use qbs_core::serialize::{self, MapMode};
use qbs_core::{CacheConfig, Qbs, QbsConfig, QbsIndex, QueryWorkspace, Stage, ViewBuf};
use qbs_gen::prelude::*;
use qbs_graph::{Graph, VertexId};

/// Deterministic mixing for the in-test shuffles — keeps the test free of
/// any RNG dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The three batch generator families `submit` must stay transparent
/// on. Every family mixes query modes and splices one poisoned pair into
/// the middle so the per-slot error path is always exercised.
fn family_batch(family: u64, graph: &Graph, count: usize, seed: u64) -> Vec<QueryRequest> {
    let n = graph.num_vertices();
    let pairs = QueryWorkload::sample(graph, count.max(4), seed)
        .pairs()
        .to_vec();
    let mut state = seed ^ 0xBADC_0FFE;
    let mut requests: Vec<QueryRequest> = match family % 3 {
        // Shuffled uniform: distinct pairs in adversarial (shuffled) order.
        0 => {
            let mut reqs: Vec<QueryRequest> = pairs
                .iter()
                .take(count)
                .enumerate()
                .map(|(i, &(u, v))| match i % 5 {
                    0..=2 => QueryRequest::distance(u, v),
                    3 => QueryRequest::path_graph(u, v),
                    _ => QueryRequest::sketch(u, v),
                })
                .collect();
            for i in (1..reqs.len()).rev() {
                let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
                reqs.swap(i, j);
            }
            reqs
        }
        // Duplicated: a handful of distinct pairs repeated many times,
        // alternating orientation, so slots repeat a key of their frame.
        1 => {
            let distinct: Vec<_> = pairs.iter().take((count / 4).max(1)).copied().collect();
            (0..count)
                .map(|i| {
                    let (u, v) = distinct[i % distinct.len()];
                    let (u, v) = if i % 2 == 0 { (u, v) } else { (v, u) };
                    if i % 7 == 3 {
                        QueryRequest::path_graph(u, v)
                    } else {
                        QueryRequest::distance(u, v)
                    }
                })
                .collect()
        }
        // Source-clustered: a few hot sources fan out to many targets.
        _ => {
            let hot: Vec<VertexId> = pairs.iter().take(3).map(|&(u, _)| u).collect();
            (0..count)
                .map(|i| {
                    let s = hot[i % hot.len()];
                    let mut t = pairs[(splitmix(&mut state) % pairs.len() as u64) as usize].1;
                    if t == s {
                        t = pairs[i % pairs.len()].0;
                    }
                    if t == s {
                        t = if s == 0 { 1 } else { 0 };
                    }
                    // Half the cluster queries arrive target-first.
                    if i % 2 == 0 {
                        QueryRequest::distance(s, t)
                    } else {
                        QueryRequest::distance(t, s)
                    }
                })
                .collect()
        }
    };
    let poison = n as VertexId;
    requests.insert(requests.len() / 2, QueryRequest::distance(poison, 0));
    requests.insert(requests.len() / 4, QueryRequest::path_graph(0, poison));
    requests
}

/// One-at-a-time reference: a fresh engine-free execution per request.
fn one_at_a_time(index: &QbsIndex, requests: &[QueryRequest]) -> Vec<QueryOutcome> {
    let mut ws = QueryWorkspace::new();
    requests
        .iter()
        .map(|req| index.execute_with(&mut ws, req, None))
        .collect()
}

/// Every distance and path-graph outcome equals the BFS ground truth, and
/// exactly the out-of-range requests fail.
fn assert_matches_ground_truth(
    graph: &Graph,
    requests: &[QueryRequest],
    outcomes: &[QueryOutcome],
) {
    let truth = GroundTruth::new(graph.clone());
    let n = graph.num_vertices() as VertexId;
    for (req, outcome) in requests.iter().zip(outcomes) {
        if req.source >= n || req.target >= n {
            assert!(outcome.is_error(), "{req:?} is out of range");
            continue;
        }
        let expected = truth.query(req.source, req.target);
        match req.mode {
            QueryMode::Distance => {
                assert_eq!(outcome.distance(), Some(expected.distance()), "{req:?}")
            }
            QueryMode::PathGraph => assert_eq!(outcome.path_graph(), Some(&expected), "{req:?}"),
            QueryMode::Sketch => assert!(outcome.sketch().is_some(), "{req:?}"),
        }
    }
}

/// Where a session's index lives.
fn buffer_name(qbs: &Qbs) -> &'static str {
    match qbs
        .index()
        .expect("every session has an index")
        .view()
        .buf()
    {
        ViewBuf::Heap(_) => "heap",
        ViewBuf::Mmap(_) => "mmap",
    }
}

/// A fresh session over `session()` with the given thread budget.
fn on_threads(session: &impl Fn() -> Qbs, threads: usize) -> Qbs {
    session().with_threads(threads).expect("threads")
}

/// Submits on 1 and 3 threads, cold and warm, must all match the
/// one-at-a-time reference bit for bit.
fn assert_submit_transparent(session: impl Fn() -> Qbs, requests: &[QueryRequest], label: &str) {
    let single = session();
    let reference: Vec<QueryOutcome> = requests.iter().map(|r| single.execute(r)).collect();

    for threads in [1usize, 3] {
        assert_eq!(
            on_threads(&session, threads).submit(requests),
            reference,
            "{label}: submit diverged from one-at-a-time ({threads} threads)"
        );
    }

    // Warm-cache pass: the first submit fills the cache, the second must
    // serve bit-identical answers out of it.
    let cached = on_threads(&session, 2).with_cache(CacheConfig::default().admit_above(0));
    assert_eq!(cached.submit(requests), reference, "{label}: cold cached");
    assert_eq!(cached.submit(requests), reference, "{label}: warm cached");
    let stats = cached.cache_stats().expect("cache attached");
    assert!(
        stats.hits > 0,
        "{label}: warm pass hit the cache: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 18, ..ProptestConfig::default() })]

    #[test]
    fn planned_submit_is_bit_identical_across_families_and_backends(
        family in 0u64..3,
        vertices in 30usize..90,
        landmarks in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
            vertices,
            edges_per_vertex: 2,
            seed,
        });
        let owned = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(landmarks));
        let requests = family_batch(family, &graph, 48, seed ^ 0xF00D);

        // The build's heap buffer.
        assert_submit_transparent(|| Qbs::from_index(owned.clone()), &requests, "heap");

        // A mapping of the saved file.
        let dir = std::env::temp_dir().join(format!(
            "qbs_batch_planner_{}_{}",
            std::process::id(),
            seed
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("case_{family}_{vertices}_{landmarks}_{seed}.qbs"));
        serialize::save_to_file(&owned, &path).expect("save");
        let view = || Qbs::open(&path, MapMode::Mmap).expect("map");
        assert_submit_transparent(view, &requests, "mmap");

        // The two buffers agree with each other and with the BFS ground
        // truth.
        let owned_outcomes = on_threads(&|| Qbs::from_index(owned.clone()), 2).submit(&requests);
        prop_assert_eq!(&owned_outcomes, &on_threads(&view, 2).submit(&requests));
        assert_matches_ground_truth(&graph, &requests, &owned_outcomes);

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}

/// Duplicates of one key that carry *different* options are each shaped by
/// their own, and out-of-range duplicates each keep their own error
/// payload. Each slot does its own cache traffic, in slot order: an
/// `uncached` slot skips the cache, an out-of-range one counts a miss.
#[test]
fn duplicate_slots_are_shaped_by_their_own_options() {
    let owned = QbsIndex::build(
        qbs_graph::fixtures::figure4_graph(),
        QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
    );
    let requests = vec![
        QueryRequest::path_graph(6, 11).uncached(),
        QueryRequest::path_graph(6, 11).with_stats(),
        QueryRequest::distance(99, 6),
        QueryRequest::path_graph(6, 11),
        QueryRequest::distance(4, 12).uncached(),
        QueryRequest::distance(12, 4),
        QueryRequest::distance(99, 6),
        QueryRequest::distance(6, 99),
    ];
    // The reference shapes every slot by its own options and gives every
    // out-of-range slot its own payload.
    let reference = one_at_a_time(&owned, &requests);
    let qbs = cached_single_thread(owned);
    assert_eq!(qbs.submit(&requests), reference);
    assert!(matches!(reference[0], QueryOutcome::PathGraph(_)));
    assert!(matches!(reference[1], QueryOutcome::PathGraphWithStats(_)));

    // Cold: slots 1 and 5 miss and are admitted, slot 3 hits slot 1's
    // entry, and the three out-of-range slots miss.
    let cold = qbs.cache_stats().expect("cache");
    assert_eq!((cold.hits, cold.misses, cold.insertions), (1, 5, 2));
    assert_eq!(qbs.submit(&requests), reference, "warm");
    let warm = qbs.cache_stats().expect("cache");
    assert_eq!((warm.hits, warm.misses, warm.insertions), (4, 8, 2));
}

/// Duplicate slots each look the cache up, as if submitted alone: on one
/// thread the first slot of a key misses and is admitted, and every later
/// slot of it — either orientation of a distance pair — hits.
#[test]
fn duplicate_slots_count_their_own_cache_traffic() {
    let owned = QbsIndex::build(
        qbs_graph::fixtures::figure4_graph(),
        QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
    );
    let qbs = cached_single_thread(owned);
    let requests = vec![
        QueryRequest::distance(6, 11),
        QueryRequest::distance(11, 6),
        QueryRequest::distance(6, 11),
        QueryRequest::distance(6, 11),
    ];
    qbs.submit(&requests);
    let cold = qbs.cache_stats().expect("cache");
    assert_eq!(
        (cold.hits, cold.misses, cold.insertions),
        (3, 1, 1),
        "four slots of one key, cold: {cold:?}"
    );
    qbs.submit(&requests);
    let warm = qbs.cache_stats().expect("cache");
    assert_eq!(
        (warm.hits, warm.misses, warm.insertions),
        (7, 1, 1),
        "warm: every slot hits: {warm:?}"
    );
    let snapshot = qbs.metrics_snapshot();
    assert_eq!(snapshot.get(qbs_core::counter::REQUESTS), Some(8));
}

/// A one-thread session over `owned` with a cache that admits everything.
fn cached_single_thread(owned: QbsIndex) -> Qbs {
    Qbs::from_index(owned)
        .with_threads(1)
        .expect("threads")
        .with_cache(CacheConfig::default().admit_above(0))
}

/// Eight callers share one two-thread session, each submitting 50 mixed
/// frames (poisoned pairs included) in a different order: every slot
/// matches a one-at-a-time `execute`, on the build's heap buffer and on a
/// mapping of its file, and every caller finishes inside a fixed deadline.
#[test]
fn concurrent_submitters_share_the_workers_bit_identically() {
    const CALLERS: usize = 8;
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 400,
        edges_per_vertex: 3,
        seed: 25,
    });
    let owned = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(6));
    let dir =
        std::env::temp_dir().join(format!("qbs_batch_planner_callers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("ba400.qbs");
    serialize::save_to_file(&owned, &path).expect("save");
    let frames: Arc<Vec<Vec<QueryRequest>>> =
        Arc::new((0..50u64).map(|i| family_batch(i, &graph, 24, i)).collect());

    for qbs in [
        Qbs::from_index(owned),
        Qbs::open(&path, MapMode::Mmap).expect("map"),
    ] {
        let qbs = Arc::new(qbs.with_threads(2).expect("threads"));
        let expected: Arc<Vec<Vec<QueryOutcome>>> = Arc::new(
            frames
                .iter()
                .map(|frame| frame.iter().map(|r| qbs.execute(r)).collect())
                .collect(),
        );
        let (done, finished) = mpsc::channel();
        let callers: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let (qbs, frames, expected) = (qbs.clone(), frames.clone(), expected.clone());
                let done = done.clone();
                std::thread::spawn(move || {
                    for k in 0..frames.len() {
                        let i = (k + 7 * caller) % frames.len();
                        assert_eq!(
                            qbs.submit(&frames[i]),
                            expected[i],
                            "{}: caller {caller}, frame {i}",
                            buffer_name(&qbs)
                        );
                    }
                    done.send(caller).expect("test alive");
                })
            })
            .collect();
        drop(done);
        let deadline = Instant::now() + Duration::from_secs(120);
        for _ in 0..CALLERS {
            finished
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .expect("every caller finished, matching, inside the deadline");
        }
        for caller in callers {
            caller.join().expect("caller");
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

/// Two callers submit at once on one two-thread session, one frame using
/// the cache and one not: each `submit_observed` breakdown holds only its
/// own frame's stages, so only the cached frame ever shows a cache lookup.
#[test]
fn concurrent_frames_get_only_their_own_stage_sums() {
    let qbs = Arc::new(
        Qbs::from_index(QbsIndex::build(
            qbs_graph::fixtures::figure4_graph(),
            QbsConfig::with_landmark_count(3),
        ))
        .with_threads(2)
        .expect("threads")
        .with_cache(CacheConfig::default()),
    );
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let callers: Vec<_> = [false, true]
        .into_iter()
        .map(|cached| {
            let (qbs, barrier) = (qbs.clone(), barrier.clone());
            std::thread::spawn(move || {
                let requests: Vec<QueryRequest> = (0..15u32)
                    .flat_map(|u| (0..15u32).map(move |v| QueryRequest::distance(u, v)))
                    .map(|r| if cached { r } else { r.uncached() })
                    .collect();
                barrier.wait();
                for _ in 0..20 {
                    let (_, ns) = qbs.submit_observed(&requests);
                    assert!(ns.get(Stage::Execute) > 0, "{ns:?}");
                    assert_eq!(ns.get(Stage::CacheLookup) > 0, cached, "{ns:?}");
                }
            })
        })
        .collect();
    for caller in callers {
        caller
            .join()
            .expect("each caller saw only its own stage sums");
    }
}
