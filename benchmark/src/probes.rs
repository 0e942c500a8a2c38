//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions from outside, on the workload's own graph and request
//! stream.
//!
//! Two ways to keep the machine's weather out of a number: divide a block's
//! time by the calibration block that follows it (`_rel`), or take the
//! ratio of two product timings measured in alternating blocks. Every
//! figure is the median over [`REPS`] such repetitions.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qbs_core::serialize::{self, MapMode};
use qbs_core::wire;
use qbs_core::{CacheConfig, Qbs, QueryOutcome, QueryRequest, RequestError};
use qbs_server::{BatchReply, QbsClient, QbsServer, ServerConfig};

use crate::heater::Heater;
use crate::report::Metrics;
use crate::rng::SplitMix64;
use crate::run::{Bench, STREAM_PROBES};
use crate::setup::Tier;
use crate::stats::{mean, median};
use crate::workloads::{cache_key, LruCounter, RequestStream};

/// Repetitions of every alternating block.
const REPS: usize = 5;

/// Capacity of the probe cache on workloads that attach none.
const DEFAULT_CACHE_CAPACITY: usize = 4_096;

fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

fn execute_all(qbs: &Qbs, requests: &[QueryRequest]) {
    for request in requests {
        std::hint::black_box(qbs.execute(request));
    }
}

fn submit_all(qbs: &Qbs, frames: &[Vec<QueryRequest>]) {
    for frame in frames {
        std::hint::black_box(qbs.submit(frame));
    }
}

/// Median over repetitions of `a[i] / b[i]`.
fn ratio(a: &[f64], b: &[f64]) -> f64 {
    median(&a.iter().zip(b).map(|(x, y)| x / y).collect::<Vec<_>>())
}

fn load(path: &Path, threads: usize) -> Qbs {
    Qbs::load(path)
        .expect("load index file")
        .with_threads(threads)
        .expect("thread budget")
}

fn uniform_distance_requests(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<QueryRequest> {
    (0..count)
        .map(|_| loop {
            let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
            if u != v {
                break QueryRequest::distance(u, v);
            }
        })
        .collect()
}

/// Runs every probe and records its metrics.
pub fn run(bench: &mut Bench, seed: u64, out_dir: &Path, m: &mut Metrics) {
    let wl = bench.workload;
    let n = bench.product.refgraph.num_vertices();
    let q = wl.probe_requests;
    let mut stream = RequestStream::new(wl, n, seed, STREAM_PROBES);
    let mut uniform = SplitMix64::fork(seed, STREAM_PROBES + 1);
    let path = out_dir.join(format!("{}.{}.probe.qbs", wl.name, std::process::id()));

    // Time of `$body` under a span named `$name`.
    macro_rules! spanned {
        ($name:literal, $body:expr) => {{
            let span = bench.tracer.begin($name);
            let ns = time_ns(|| $body);
            bench.tracer.end(span);
            ns
        }};
    }

    // --- sketch, search: the three modes on the serving session ---------
    {
        let qbs = Arc::clone(&bench.product.serving);
        let pairs: Vec<(u32, u32)> = (0..q).map(|_| stream.pair()).collect();
        let mode = |make: fn(u32, u32) -> QueryRequest| -> Vec<QueryRequest> {
            pairs.iter().map(|&(u, v)| make(u, v).uncached()).collect()
        };
        let sketches = mode(QueryRequest::sketch);
        let distances = mode(QueryRequest::distance);
        let path_graphs = mode(|u, v| QueryRequest::path_graph(u, v).with_stats());
        let (mut sk, mut di, mut pg, mut op) = (vec![], vec![], vec![], vec![]);
        for _ in 0..REPS {
            sk.push(spanned!("probe.sketch", execute_all(&qbs, &sketches)) / q as f64);
            di.push(spanned!("probe.distance", execute_all(&qbs, &distances)) / q as f64);
            pg.push(spanned!("probe.path_graph", execute_all(&qbs, &path_graphs)) / q as f64);
            op.push(bench.calibrate().wall_ns);
        }
        let (sk_rel, di_rel, pg_rel) = (ratio(&sk, &op), ratio(&di, &op), ratio(&pg, &op));
        m.set("sketch.call_us", median(&sk) / 1e3);
        m.set("sketch.call_rel", sk_rel);
        m.set("search.dist_us", median(&di) / 1e3);
        m.set("search.dist_rel", di_rel);
        m.set("search.spg_us", median(&pg) / 1e3);
        m.set("search.spg_rel", pg_rel);
        m.set("search.self_rel", di_rel - sk_rel);
        m.set("search.materialise_rel", pg_rel - di_rel);

        // Counts, from one more pass; they repeat exactly per seed.
        let per_query = |total: usize| total as f64 / q as f64;
        let (mut hops, mut meta_edges) = (0, 0);
        for request in &sketches {
            let outcome = qbs.execute(request);
            let sketch = outcome.sketch().expect("sketch reply");
            hops += sketch.source_hops.len() + sketch.target_hops.len();
            meta_edges += sketch.meta_edges.len();
        }
        m.set("sketch.hops_per_call", per_query(hops));
        m.set("sketch.meta_edges_per_call", per_query(meta_edges));
        let (mut edges, mut settled, mut levels, mut recover, mut reverse) = (0, 0, 0, 0, 0);
        let (mut answer_edges, mut slack) = (0, vec![]);
        for request in &path_graphs {
            let outcome = qbs.execute(request);
            let answer = outcome.answer().expect("path graph with stats");
            let stats = &answer.stats;
            edges += stats.edges_traversed;
            settled += stats.vertices_settled;
            levels += stats.forward_levels + stats.backward_levels;
            recover += usize::from(stats.used_recover_search);
            reverse += usize::from(stats.used_reverse_search);
            answer_edges += answer.path_graph.num_edges();
            if stats.upper_bound != u32::MAX {
                slack.push(f64::from(stats.upper_bound - stats.distance));
            }
        }
        m.set("sketch.slack_mean", mean(&slack));
        m.set("search.edges_per_query", per_query(edges));
        m.set("search.settled_per_query", per_query(settled));
        m.set("search.levels_per_query", per_query(levels));
        m.set("search.recover_frac", per_query(recover));
        m.set("search.reverse_frac", per_query(reverse));
        m.set("search.answer_edges_per_query", per_query(answer_edges));
    }

    // --- store: save, open, and the mapped view against the owned build -
    let distances: Vec<QueryRequest> = (0..q)
        .map(|_| {
            let (u, v) = stream.pair();
            QueryRequest::distance(u, v).uncached()
        })
        .collect();
    {
        let owned = Arc::clone(&bench.product.owned);
        let save_ns = spanned!(
            "probe.save",
            serialize::save_to_file(owned.index().expect("owned build"), &path)
                .expect("save index file")
        );
        m.set("store.save_s", save_ns / 1e9);
        let file_bytes = std::fs::metadata(&path).expect("index file").len();
        m.set("store.file_bytes_per_vertex", file_bytes as f64 / n as f64);
        let opens: Vec<f64> = (0..REPS)
            .map(|_| {
                spanned!(
                    "probe.open",
                    drop(Qbs::open(&path, MapMode::Mmap).expect("open index file"))
                )
            })
            .collect();
        m.set("store.open_us", median(&opens) / 1e3);
        let mapped = Qbs::open(&path, MapMode::Mmap).expect("open index file");
        execute_all(&mapped, &distances);
        let (mut on_mapped, mut on_owned) = (vec![], vec![]);
        for _ in 0..REPS {
            on_mapped.push(spanned!("probe.mapped", execute_all(&mapped, &distances)));
            on_owned.push(spanned!("probe.owned", execute_all(&owned, &distances)));
        }
        m.set("store.mapped_over_owned", ratio(&on_mapped, &on_owned));
    }

    // Owned sessions over the same index, one per thread budget.
    let s1 = Arc::new(load(&path, 1));
    let s2 = load(&path, 2);
    let frame_len = wl.probe_frame();
    let frames: Vec<Vec<QueryRequest>> = (0..(q / frame_len).max(16))
        .map(|_| stream.requests(frame_len))
        .collect();
    let framed_requests = frames.len() * frame_len;
    let flat: Vec<QueryRequest> = frames.iter().flatten().copied().collect();

    // --- plan: what batching buys on this stream, 1 thread, no cache ----
    {
        execute_all(&s1, &flat);
        let (mut one_by_one, mut batched) = (vec![], vec![]);
        for _ in 0..REPS {
            one_by_one.push(spanned!("probe.execute_each", execute_all(&s1, &flat)));
            batched.push(spanned!("probe.submit", submit_all(&s1, &frames)));
        }
        m.set("plan.batch_speedup", ratio(&one_by_one, &batched));
        let (mut dups, mut shared, mut distance_requests) = (0, 0, 0);
        for frame in &frames {
            let (mut keys, mut sources) = (HashSet::new(), HashSet::new());
            for request in frame {
                dups += usize::from(!keys.insert(cache_key(request)));
                if request.mode == qbs_core::QueryMode::Distance {
                    distance_requests += 1;
                    shared += usize::from(!sources.insert(request.source));
                }
            }
        }
        m.set(
            "plan.dup_in_frame_frac",
            dups as f64 / framed_requests as f64,
        );
        m.set(
            "plan.same_source_frac",
            shared as f64 / f64::from(distance_requests.max(1)),
        );
    }

    // --- cache: the stream with and without it, hits, and misses --------
    {
        let capacity = wl.cache_capacity.unwrap_or(DEFAULT_CACHE_CAPACITY);
        let plain = if wl.threads == 1 { &*s1 } else { &s2 };
        let cached = load(&path, wl.threads).with_cache(CacheConfig::with_capacity(capacity));
        let mut lru = LruCounter::new(capacity);
        let mut segment = |lru: &mut LruCounter<_>| -> Vec<Vec<QueryRequest>> {
            let frames: Vec<Vec<QueryRequest>> = (0..frames.len())
                .map(|_| stream.requests(frame_len))
                .collect();
            for request in frames.iter().flatten() {
                lru.access(cache_key(request));
            }
            frames
        };
        // Fill the cache before measuring it.
        for _ in 0..(2 * capacity).div_ceil(framed_requests) {
            submit_all(&cached, &segment(&mut lru));
        }
        (lru.hits, lru.accesses) = (0, 0);
        let (mut without, mut with) = (vec![], vec![]);
        for _ in 0..REPS {
            let frames = segment(&mut lru);
            without.push(spanned!("probe.stream_plain", submit_all(plain, &frames)));
            with.push(spanned!(
                "probe.stream_cached",
                submit_all(&cached, &frames)
            ));
        }
        m.set("cache.repeat_frac", lru.hit_frac());
        m.set("cache.speedup", ratio(&without, &with));

        let repeated = stream.requests(q);
        let roomy = load(&path, 1).with_cache(CacheConfig::with_capacity(2 * q));
        execute_all(&roomy, &repeated);
        let (mut hit, mut op) = (vec![], vec![]);
        for _ in 0..REPS {
            hit.push(spanned!("probe.cache_hit", execute_all(&roomy, &repeated)) / q as f64);
            op.push(bench.calibrate().wall_ns);
        }
        m.set("cache.hit_rel", ratio(&hit, &op));

        let (mut missing, mut uncached) = (vec![], vec![]);
        for _ in 0..REPS {
            let fresh = uniform_distance_requests(&mut uniform, n, q);
            missing.push(spanned!("probe.cache_miss", execute_all(&cached, &fresh)));
            uncached.push(spanned!("probe.no_cache", execute_all(&s1, &fresh)));
        }
        m.set("cache.miss_overhead", ratio(&missing, &uncached));
    }

    // --- engine: what a second thread buys per frame size ---------------
    {
        let mut speedup = |frame_len: usize, count: usize| {
            let frames: Vec<Vec<QueryRequest>> = (0..count)
                .map(|_| uniform_distance_requests(&mut uniform, n, frame_len))
                .collect();
            submit_all(&s2, &frames);
            let (mut one, mut two) = (vec![], vec![]);
            for _ in 0..REPS {
                one.push(spanned!("probe.threads1", submit_all(&s1, &frames)));
                two.push(spanned!("probe.threads2", submit_all(&s2, &frames)));
            }
            ratio(&one, &two)
        };
        m.set("engine.fanout_speedup", speedup(256, (q / 256).max(4)));
        m.set("engine.midbatch_speedup", speedup(32, (q / 32).max(16)));
        let singles: Vec<Vec<QueryRequest>> = distances.iter().map(|r| vec![*r]).collect();
        let (mut submitted, mut executed) = (vec![], vec![]);
        for _ in 0..REPS {
            submitted.push(spanned!("probe.submit1", submit_all(&s1, &singles)));
            executed.push(spanned!("probe.execute1", execute_all(&s1, &distances)));
        }
        m.set("engine.submit1_over_execute", ratio(&submitted, &executed));
    }

    // --- wire: encoding the frames and their replies --------------------
    {
        let replies: Vec<Vec<QueryOutcome>> = frames.iter().map(|f| s1.submit(f)).collect();
        let request_bytes: Vec<Vec<u8>> = frames.iter().map(wire::to_bytes).collect();
        let reply_bytes: Vec<Vec<u8>> = replies.iter().map(wire::to_bytes).collect();
        let total = |bytes: &[Vec<u8>]| bytes.iter().map(Vec::len).sum::<usize>() as f64;
        m.set(
            "wire.req_bytes_per_req",
            total(&request_bytes) / framed_requests as f64,
        );
        m.set(
            "wire.reply_bytes_per_req",
            total(&reply_bytes) / framed_requests as f64,
        );
        let (mut enc, mut dec, mut op) = (vec![], vec![], vec![]);
        for _ in 0..REPS {
            let ns = spanned!("probe.encode", {
                for (frame, reply) in frames.iter().zip(&replies) {
                    std::hint::black_box((wire::to_bytes(frame), wire::to_bytes(reply)));
                }
            });
            enc.push(ns / framed_requests as f64);
            let ns = spanned!("probe.decode", {
                for (frame, reply) in request_bytes.iter().zip(&reply_bytes) {
                    let frame: Vec<QueryRequest> = wire::from_bytes(frame).expect("decode");
                    let reply: Vec<QueryOutcome> = wire::from_bytes(reply).expect("decode");
                    std::hint::black_box((frame, reply));
                }
            });
            dec.push(ns / framed_requests as f64);
            op.push(bench.calibrate().wall_ns);
        }
        m.set("wire.encode_rel", ratio(&enc, &op));
        m.set("wire.decode_rel", ratio(&dec, &op));
    }

    // --- server, router: the same frames in process, served, and routed -
    // On one CPU with the heater on, as in the open loop's rounds: the tier
    // pins this thread, and what starts after it inherits that.
    {
        let mut tier = Tier::start(&s1);
        let _heater = Heater::start();
        let mut server = QbsServer::start(Arc::clone(&s1), ServerConfig::default().workers(1))
            .expect("start server on loopback");
        let mut direct =
            QbsClient::connect(&server.local_addr().to_string()).expect("connect to server");
        let (mut sent, mut shed, mut slots, mut unavailable) = (0usize, 0usize, 0usize, 0usize);
        let mut tally = |reply: &BatchReply, through_router: bool| match reply {
            BatchReply::Busy(_) => shed += usize::from(!through_router),
            BatchReply::Outcomes(outcomes) if through_router => {
                slots += outcomes.len();
                unavailable += outcomes
                    .iter()
                    .filter(|o| matches!(o.error(), Some(RequestError::Unavailable { .. })))
                    .count();
            }
            BatchReply::Outcomes(_) => {}
        };
        let ping_median = |client: &mut QbsClient| {
            let pings: Vec<f64> = (0..200)
                .map(|_| client.ping().expect("ping").as_nanos() as f64)
                .collect();
            median(&pings)
        };

        let (mut ping_s, mut ping_r, mut op) = (vec![], vec![], vec![]);
        let (mut in_process, mut served, mut routed) = (vec![], vec![], vec![]);
        for _ in 0..REPS {
            let span = bench.tracer.begin("probe.ping");
            ping_s.push(ping_median(&mut direct));
            ping_r.push(ping_median(&mut tier.client));
            bench.tracer.end(span);
            let (mut a, mut b, mut c) = (vec![], vec![], vec![]);
            // Each way takes every frame once, but never the frame another
            // way has just run: on one CPU that frame's searches are still
            // in the cache.
            for i in 0..frames.len() {
                let frame = |ahead: usize| &frames[(i + ahead) % frames.len()];
                a.push(spanned!("probe.frame_in_process", {
                    std::hint::black_box(s1.submit(frame(0)));
                }));
                b.push(spanned!("probe.frame_served", {
                    tally(&direct.submit(frame(1)).expect("served reply"), false);
                }));
                c.push(spanned!("probe.frame_routed", {
                    tally(&tier.client.submit(frame(2)).expect("routed reply"), true);
                }));
                sent += 1;
            }
            in_process.push(median(&a));
            served.push(median(&b));
            routed.push(median(&c));
            op.push(bench.calibrate().wall_ns);
        }
        m.set("server.ping_us", median(&ping_s) / 1e3);
        m.set("server.ping_rel", ratio(&ping_s, &op));
        m.set("router.ping_rel", ratio(&ping_r, &op));
        let (in_process, served, routed) = (
            ratio(&in_process, &op),
            ratio(&served, &op),
            ratio(&routed, &op),
        );
        m.set("server.frame_rel", served);
        m.set("server.overhead_rel", served - in_process);
        m.set("router.frame_rel", routed);
        m.set("router.overhead_rel", routed - served);

        let (mut depth1, mut depth8) = (vec![], vec![]);
        for _ in 0..REPS {
            depth1.push(spanned!("probe.depth1", {
                for frame in &frames {
                    tally(&direct.submit(frame).expect("served reply"), false);
                }
            }));
            depth8.push(spanned!("probe.depth8", {
                let mut tickets = std::collections::VecDeque::new();
                for frame in &frames {
                    if tickets.len() == 8 {
                        let ticket = tickets.pop_front().expect("eight in flight");
                        tally(&direct.recv(ticket).expect("served reply"), false);
                    }
                    tickets.push_back(direct.send(frame).expect("send"));
                }
                for ticket in tickets {
                    tally(&direct.recv(ticket).expect("served reply"), false);
                }
            }));
            sent += 2 * frames.len();
        }
        m.set("server.pipelined_speedup", ratio(&depth1, &depth8));
        m.set("server.shed_frac", shed as f64 / sent as f64);
        m.set(
            "router.unavailable_frac",
            unavailable as f64 / slots.max(1) as f64,
        );
        drop(tier);
        drop(direct);
        server.shutdown();
    }

    let _ = std::fs::remove_file(&path);
}
