//! Router integration tests: routed answers must be bit-identical to
//! local `Qbs::submit`, a replica dying mid-workload must lose no
//! accepted request (sub-batches re-route), and the all-replicas-down
//! regime must return typed per-slot errors — never a hang.

use std::net::TcpListener;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qbs_core::serialize::{self, MapMode};
use qbs_core::{counter, MetricsSnapshot, Qbs, QbsConfig, QbsIndex, QueryRequest, RequestError};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_router::{HealthConfig, QbsRouter, RouterConfig, RouterHandle};
use qbs_server::{ClientConfig, QbsClient, QbsServer, ServerConfig, ServerHandle};

/// Builds the shared test index (a tiny Douban stand-in), saves it as a
/// v2 file, and returns its path.
fn index_file(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("qbs_router_failover_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let graph = Catalog::paper_table1()
        .get(DatasetId::Douban)
        .expect("catalog")
        .generate(Scale::Tiny);
    let index = QbsIndex::build(graph, QbsConfig::with_landmark_count(8));
    let path = dir.join("index.qbs");
    serialize::save_to_file(&index, &path).expect("save");
    path
}

/// Starts one replica: its own mmap session over the shared index file.
fn start_replica(path: &std::path::Path) -> ServerHandle {
    let qbs = Qbs::open(path, MapMode::Mmap).expect("open mmap");
    let qbs = Arc::new(qbs.with_threads(2).expect("threads"));
    QbsServer::start(qbs, ServerConfig::default().workers(2)).expect("start replica")
}

/// Starts a router over `replicas` with test-friendly knobs: small
/// sub-batches so every batch actually scatters, fast probes, fast
/// ejection, and a short dial bound so a dead replica costs little.
fn start_router(replicas: Vec<String>) -> RouterHandle {
    QbsRouter::start(
        RouterConfig::bind("127.0.0.1:0")
            .replicas(replicas)
            .min_split(4)
            .probe_interval(Duration::from_millis(100))
            .client(
                ClientConfig::default()
                    .connect_timeout(Duration::from_millis(250))
                    .io_timeout(Duration::from_secs(10)),
            )
            .health(HealthConfig {
                eject_after: 2,
                backoff_initial: Duration::from_millis(200),
                backoff_max: Duration::from_secs(2),
            }),
    )
    .expect("start router")
}

/// A mixed Distance/PathGraph/Sketch workload with one poisoned pair
/// spliced into the middle.
fn mixed_requests(num_vertices: u32, salt: u32) -> Vec<QueryRequest> {
    let mut requests: Vec<QueryRequest> = (0..40u32)
        .map(|i| {
            let u = (i * 7 + salt) % num_vertices;
            let v = (i * 13 + 3 * salt + 1) % num_vertices;
            match i % 4 {
                0 => QueryRequest::distance(u, v),
                1 => QueryRequest::path_graph(u, v),
                2 => QueryRequest::path_graph(u, v).with_stats(),
                _ => QueryRequest::sketch(u, v),
            }
        })
        .collect();
    requests.insert(requests.len() / 2, QueryRequest::distance(num_vertices, 0));
    requests
}

/// An `addr:port` that refuses connections (bound once, then released).
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    addr
}

#[test]
fn routed_answers_are_bit_identical_and_stats_aggregate() {
    let path = index_file("identical");
    let replicas: Vec<ServerHandle> = (0..3).map(|_| start_replica(&path)).collect();
    let router = start_router(
        replicas
            .iter()
            .map(|r| r.local_addr().to_string())
            .collect(),
    );
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");
    let num_vertices = local.num_vertices() as u32;

    let mut client =
        QbsClient::connect_retry(&router.local_addr().to_string(), Duration::from_secs(10))
            .expect("connect");
    // Two passes per salt: the second hits the replicas' warm answer
    // caches — cached answers must still merge bit-identically.
    for salt in 0..4u32 {
        let requests = mixed_requests(num_vertices, salt);
        for pass in 0..2 {
            let reply = client.submit(&requests).expect("submit");
            let outcomes = reply.outcomes().expect("unloaded router never sheds");
            let expected = local.submit(&requests);
            assert_eq!(
                outcomes,
                &expected[..],
                "salt {salt} pass {pass}: routed answers diverged from local submit"
            );
            assert_eq!(
                outcomes.iter().filter(|o| o.is_error()).count(),
                1,
                "exactly the poisoned pair fails"
            );
        }
    }

    // The routed Metrics frame aggregates: routing counters with every
    // replica, and merged engine counters covering all routed requests.
    let snap = client.metrics().expect("metrics");
    let replicas_seen = snap.replicas();
    assert_eq!(replicas_seen.len(), 3);
    assert_eq!(snap.get(counter::ROUTED_BATCHES), Some(8));
    assert!(
        snap.get(counter::SUBBATCHES) > Some(8),
        "41-request batches with min_split=4 must scatter across replicas"
    );
    assert_eq!(snap.get(counter::UNAVAILABLE_SLOTS), Some(0));
    let per_replica =
        |def| -> Vec<Option<u64>> { replicas_seen.iter().map(|a| snap.replica(def, a)).collect() };
    assert_eq!(per_replica(counter::REPLICA_HEALTHY), [Some(1); 3]);
    assert!(
        per_replica(counter::REPLICA_REQUESTS)
            .iter()
            .all(|&n| n > Some(0)),
        "least-in-flight balancing must spread sub-batches over every replica: {:?}",
        per_replica(counter::REPLICA_REQUESTS)
    );
    assert_eq!(
        snap.get(counter::REQUESTS),
        Some(8 * 41),
        "merged engine counters cover every routed request"
    );
    // Index facts take the maximum (every replica serves one index), and
    // admission is the router's own: one admitted frame per batch, not
    // the replicas' sub-batches.
    assert_eq!(snap.get(counter::VERTICES), Some(num_vertices as u64));
    assert_eq!(snap.get(counter::ADMITTED_BATCHES), Some(8));

    drop(client);
    drop(router);
    drop(replicas);
}

#[test]
fn killing_a_replica_mid_workload_loses_no_accepted_request() {
    let path = index_file("kill_one");
    let mut replicas: Vec<ServerHandle> = (0..3).map(|_| start_replica(&path)).collect();
    let router = start_router(
        replicas
            .iter()
            .map(|r| r.local_addr().to_string())
            .collect(),
    );
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");
    let num_vertices = local.num_vertices() as u32;
    let addr = router.local_addr().to_string();

    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        let mut client = QbsClient::connect_retry(&addr, Duration::from_secs(10)).expect("connect");
        for round in 0..24u32 {
            if round == 6 {
                tx.send(()).expect("signal the kill");
            }
            let requests = mixed_requests(num_vertices, round);
            let reply = client.submit(&requests).expect("submit");
            let outcomes = reply
                .outcomes()
                .expect("router sheds nothing in this test")
                .to_vec();
            let expected = local.submit(&requests);
            assert_eq!(
                outcomes,
                &expected[..],
                "round {round}: an accepted request was lost or answered wrongly \
                 while a replica died"
            );
        }
    });

    // Kill replica 0 while the workload is in flight. Its in-progress
    // sub-batches either flush during the drain or fail over; every
    // accepted batch must still come back bit-identical.
    rx.recv().expect("worker reached the kill round");
    let mut victim = replicas.remove(0);
    victim.shutdown();
    drop(victim);

    worker.join().expect("workload thread");

    // The router noticed: the dead replica took failures (and is ejected
    // or at least demerited) while the survivors answered the re-routes.
    let unavailable = router.local_snapshot().get(counter::UNAVAILABLE_SLOTS);
    assert_eq!(unavailable, Some(0), "no slot went unanswered");
    drop(router);
    drop(replicas);
}

#[test]
fn all_replicas_down_returns_typed_errors_not_a_hang() {
    let router = start_router(vec![dead_addr(), dead_addr()]);
    let mut client =
        QbsClient::connect_retry(&router.local_addr().to_string(), Duration::from_secs(10))
            .expect("the router itself accepts even with every replica down");

    let requests: Vec<QueryRequest> = (0..12u32)
        .map(|i| QueryRequest::distance(i, i + 1))
        .collect();
    let start = Instant::now();
    let reply = client.submit(&requests).expect("a reply, not a hang");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "all-down batch took {elapsed:?}; dials must be bounded"
    );
    let outcomes = reply.outcomes().expect("typed per-slot errors, not Busy");
    assert_eq!(outcomes.len(), requests.len());
    for outcome in outcomes {
        match outcome.error() {
            Some(RequestError::Unavailable { reason }) => {
                assert!(
                    reason.contains("unreachable"),
                    "reason should say why: {reason}"
                );
            }
            other => panic!("expected Unavailable for every slot, got {other:?}"),
        }
    }
    let unavailable = router.local_snapshot().get(counter::UNAVAILABLE_SLOTS);
    assert_eq!(unavailable, Some(12));
    drop(router);
}

#[test]
fn routed_metrics_merge_replica_histograms_and_serve_http() {
    let path = index_file("metrics");
    let replicas: Vec<ServerHandle> = (0..2).map(|_| start_replica(&path)).collect();
    let router = QbsRouter::start(
        RouterConfig::bind("127.0.0.1:0")
            .replicas(
                replicas
                    .iter()
                    .map(|r| r.local_addr().to_string())
                    .collect(),
            )
            .min_split(4)
            .metrics_addr("127.0.0.1:0")
            .slow_query(Duration::ZERO),
    )
    .expect("start router");
    let metrics_addr = router.metrics_addr().expect("metrics listener bound");
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");
    let num_vertices = local.num_vertices() as u32;

    let mut client =
        QbsClient::connect_retry(&router.local_addr().to_string(), Duration::from_secs(10))
            .expect("connect");
    let pinned = qbs_core::TraceId(0xFEED_FACE);
    client.set_trace(pinned);
    for salt in 0..2u32 {
        let reply = client
            .submit(&mixed_requests(num_vertices, salt))
            .expect("submit");
        assert!(reply.outcomes().is_some());
    }

    // The Metrics frame merges the replica histograms into the router's
    // own: the per-mode execute families can only come from replicas
    // (the router records only the batch slot), so their presence proves
    // the merge happened.
    let snapshot = client.metrics().expect("routed metrics");
    let stages = qbs_core::Stage::ALL.len();
    let batch_slot = 3;
    let routed = snapshot.family(batch_slot, qbs_core::Stage::Execute).count;
    assert!(
        routed >= 2,
        "router-tier execute family empty: {snapshot:?}"
    );
    let replica_side: u64 = (0..batch_slot)
        .map(|slot| snapshot.family(slot, qbs_core::Stage::Execute).count)
        .sum();
    assert!(
        replica_side > 0,
        "replica per-mode stage histograms missing from the merge \
         (hists: {}, stages: {stages})",
        snapshot.hists.len()
    );
    let slow = snapshot.get(counter::SLOW_QUERIES).unwrap_or(0);
    assert!(
        slow >= 2,
        "zero threshold marks every routed batch slow, got {slow}"
    );

    // The router's HTTP endpoint renders both the routing counters and
    // the merged per-stage histograms.
    let body = scrape(metrics_addr);
    for family in [
        "qbs_router_batches_routed_total",
        "qbs_replica_failures_total",
        "qbs_stage_seconds_bucket",
        "qbs_slow_queries_total",
    ] {
        assert!(body.contains(family), "missing family {family} in:\n{body}");
    }

    drop(client);
    drop(router);
    drop(replicas);
}

/// One `GET /metrics` against `addr`; the body, after a `200 OK`.
fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut http = std::net::TcpStream::connect(addr).expect("http connect");
    http.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: qbs\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut body = String::new();
    http.read_to_string(&mut body).expect("response");
    assert!(body.starts_with("HTTP/1.1 200 OK"), "bad status: {body}");
    body
}

/// How a [`FakeReplica`] answers every `Batch` frame.
#[derive(Clone, Debug)]
enum FakeAnswer {
    /// A `Batch` reply with the right count whose outcome bytes do not
    /// decode.
    Undecodable,
    /// A well-formed `Batch` reply holding one outcome too few.
    OneSlotShort,
    /// A batch-level `Busy` shed.
    Busy,
    /// The right answers, from a local session, each after a pause.
    Slow(Local),
}

/// A local session for [`FakeAnswer::Slow`].
#[derive(Clone)]
struct Local(Arc<Qbs>);

impl std::fmt::Debug for Local {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Local")
    }
}

/// A raw listener that speaks the preamble, answers pings, answers every
/// batch the way its [`FakeAnswer`] says, and answers every other
/// (control) frame with [`FakeReplica::snapshot`], counting connections,
/// pings and control frames.
struct FakeReplica {
    addr: String,
    counts: Arc<FakeCounts>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

/// What a [`FakeReplica`] has seen.
#[derive(Default)]
struct FakeCounts {
    connections: AtomicUsize,
    pings: AtomicUsize,
    control_frames: AtomicUsize,
}

impl FakeReplica {
    fn start(answer: FakeAnswer) -> FakeReplica {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let counts = Arc::new(FakeCounts::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let counts = Arc::clone(&counts);
            std::thread::spawn(move || {
                // Blocking accepts; drop wakes the loop with one last dial.
                for stream in listener.incoming() {
                    if stop.load(std::sync::atomic::Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        counts
                            .connections
                            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        let answer = answer.clone();
                        let counts = Arc::clone(&counts);
                        std::thread::spawn(move || fake_serve(stream, answer, &counts));
                    }
                }
            })
        };
        FakeReplica {
            addr,
            counts,
            stop,
            accept: Some(accept),
        }
    }

    /// The telemetry every fake answers a control frame with: traffic a
    /// router sums, and admission it must drop.
    fn snapshot() -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.push(counter::REQUESTS, 7);
        snapshot.push(counter::ADMITTED_BATCHES, 99);
        snapshot
    }

    fn control_frames(&self) -> usize {
        self.counts
            .control_frames
            .load(std::sync::atomic::Ordering::SeqCst)
    }

    fn connections(&self) -> usize {
        self.counts
            .connections
            .load(std::sync::atomic::Ordering::SeqCst)
    }

    fn pings(&self) -> usize {
        self.counts.pings.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl Drop for FakeReplica {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(&self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn fake_serve(mut stream: std::net::TcpStream, answer: FakeAnswer, counts: &FakeCounts) {
    use qbs_server::protocol::{self, RequestFrame, ResponseFrame};
    use qbs_server::BusyReason;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    if protocol::write_preamble(&mut stream).is_err()
        || protocol::read_preamble(&mut stream).is_err()
    {
        return;
    }
    while let Ok((id, trace, frame)) = protocol::read_request(&mut stream) {
        let sent = match frame {
            RequestFrame::Batch(requests) => match answer {
                FakeAnswer::Undecodable => {
                    // The count is right; the first outcome's tag is not.
                    let mut body = vec![0x81];
                    body.extend_from_slice(&(requests.len() as u32).to_le_bytes());
                    body.extend(std::iter::repeat_n(0xEE, 5 * requests.len()));
                    protocol::write_frame(&mut stream, &protocol::encode_envelope(id, trace, &body))
                }
                FakeAnswer::OneSlotShort => {
                    let outcomes = vec![qbs_core::QueryOutcome::Distance(1); requests.len() - 1];
                    protocol::write_response(
                        &mut stream,
                        id,
                        trace,
                        &ResponseFrame::Batch(outcomes),
                    )
                }
                FakeAnswer::Busy => protocol::write_response(
                    &mut stream,
                    id,
                    trace,
                    &ResponseFrame::Busy(BusyReason::Overloaded {
                        limit: 1,
                        inflight: 1,
                        got: requests.len() as u64,
                    }),
                ),
                FakeAnswer::Slow(Local(ref local)) => {
                    std::thread::sleep(Duration::from_millis(200));
                    let outcomes = local.submit(&requests);
                    protocol::write_response(
                        &mut stream,
                        id,
                        trace,
                        &ResponseFrame::Batch(outcomes),
                    )
                }
            },
            RequestFrame::Ping => {
                counts
                    .pings
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                protocol::write_response(&mut stream, id, trace, &ResponseFrame::Pong)
            }
            _ => {
                counts
                    .control_frames
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let snapshot = ResponseFrame::Metrics(FakeReplica::snapshot());
                protocol::write_response(&mut stream, id, trace, &snapshot)
            }
        };
        if sent.is_err() {
            return;
        }
    }
}

/// A router with the fake first (ties go to the lowest index, so the
/// fake gets the first pick) and one sub-batch per batch.
fn start_router_over(replicas: Vec<String>) -> RouterHandle {
    QbsRouter::start(
        RouterConfig::bind("127.0.0.1:0")
            .replicas(replicas)
            .min_split(64)
            .probe_interval(Duration::from_secs(60))
            .client(
                ClientConfig::default()
                    .connect_timeout(Duration::from_millis(250))
                    .io_timeout(Duration::from_secs(10)),
            ),
    )
    .expect("start router")
}

#[test]
fn bad_sub_replies_are_retried_and_charged_like_gather_did() {
    let path = index_file("fake");
    let healthy = start_replica(&path);
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");
    let num_vertices = local.num_vertices() as u32;
    for answer in [
        FakeAnswer::Undecodable,
        FakeAnswer::OneSlotShort,
        FakeAnswer::Busy,
    ] {
        let fake = FakeReplica::start(answer.clone());
        let requests = mixed_requests(num_vertices, 5);

        // With a healthy second replica: retried there, bit-identical.
        let router = start_router_over(vec![fake.addr.clone(), healthy.local_addr().to_string()]);
        let mut client =
            QbsClient::connect_retry(&router.local_addr().to_string(), Duration::from_secs(10))
                .expect("connect");
        let reply = client.submit(&requests).expect("submit");
        assert_eq!(
            reply.outcomes().expect("no shed"),
            &local.submit(&requests)[..],
            "{answer:?}: the retried answers diverged from local submit"
        );
        let stats = router.local_snapshot();
        let on_fake = |def| stats.replica(def, &fake.addr);
        let charged = u64::from(!matches!(answer, FakeAnswer::Busy));
        assert_eq!(
            on_fake(counter::REPLICA_FAILURES),
            Some(charged),
            "{answer:?}: health demerits on the fake"
        );
        assert_eq!(
            stats.get(counter::ROUTER_RETRIES),
            Some(1),
            "{answer:?}: one retry"
        );
        assert_eq!(
            on_fake(counter::REPLICA_RETRIES),
            Some(requests.len() as u64),
            "{answer:?}: every request retried away from the fake"
        );
        assert_eq!(stats.get(counter::UNAVAILABLE_SLOTS), Some(0), "{answer:?}");
        assert_eq!(
            stats.replica(counter::REPLICA_FAILURES, &healthy.local_addr().to_string()),
            Some(0),
            "{answer:?}: the healthy one"
        );
        drop(client);
        drop(router);

        // The fake alone: nowhere to retry, every slot Unavailable.
        let router = start_router_over(vec![fake.addr.clone()]);
        let mut client =
            QbsClient::connect_retry(&router.local_addr().to_string(), Duration::from_secs(10))
                .expect("connect");
        let reply = client.submit(&requests).expect("submit");
        let outcomes = reply.outcomes().expect("typed per-slot errors, not Busy");
        assert_eq!(outcomes.len(), requests.len());
        assert!(
            outcomes
                .iter()
                .all(|o| matches!(o.error(), Some(RequestError::Unavailable { .. }))),
            "{answer:?}: expected Unavailable in every slot, got {outcomes:?}"
        );
        assert_eq!(
            router.local_snapshot().get(counter::UNAVAILABLE_SLOTS),
            Some(requests.len() as u64)
        );
        drop(client);
        drop(router);
    }
    drop(healthy);
}

#[test]
fn one_replica_round_trip_per_metrics_frame_and_scrape() {
    let local = Arc::new(Qbs::open(index_file("rounds"), MapMode::Mmap).expect("local"));
    let fake = FakeReplica::start(FakeAnswer::Slow(Local(local)));
    let router = QbsRouter::start(
        RouterConfig::bind("127.0.0.1:0")
            .replica(fake.addr.clone())
            .probe_interval(Duration::from_secs(60))
            .metrics_addr("127.0.0.1:0"),
    )
    .expect("start router");
    let mut client =
        QbsClient::connect_retry(&router.local_addr().to_string(), Duration::from_secs(10))
            .expect("connect");

    let snapshot = client.metrics().expect("metrics");
    assert_eq!(fake.control_frames(), 1, "one poll per Metrics frame");
    assert_eq!(
        snapshot.get(counter::REQUESTS),
        Some(7),
        "traffic folded in"
    );
    assert_eq!(
        snapshot.get(counter::ADMITTED_BATCHES),
        Some(0),
        "admission is the router's own"
    );

    let body = scrape(router.metrics_addr().expect("metrics listener bound"));
    assert_eq!(fake.control_frames(), 2, "one poll per scrape");
    assert!(body.contains("qbs_requests_total 7"), "{body}");

    // The drain report's snapshot polls no replica.
    let report = router.local_snapshot().render_text();
    assert!(report.contains("replica "), "{report}");
    assert_eq!(fake.control_frames(), 2);
    drop(client);
    drop(router);
}

#[test]
fn shutdown_drains_forwarded_batches() {
    let path = index_file("drain");
    let local = Arc::new(Qbs::open(&path, MapMode::Mmap).expect("local reference"));
    let slow = FakeReplica::start(FakeAnswer::Slow(Local(Arc::clone(&local))));
    let mut router = start_router_over(vec![slow.addr.clone()]);
    let mut client =
        QbsClient::connect_retry(&router.local_addr().to_string(), Duration::from_secs(10))
            .expect("connect");
    let num_vertices = local.num_vertices() as u32;
    let batches: Vec<Vec<QueryRequest>> = (0..3u32)
        .map(|salt| mixed_requests(num_vertices, salt))
        .collect();
    let tickets: Vec<_> = batches
        .iter()
        .map(|batch| client.send(batch).expect("send"))
        .collect();

    // Shut down once the router has taken all three in; the replica
    // answers each 200 ms later, so they are still on their way.
    let taken = Instant::now() + Duration::from_secs(10);
    while router.local_snapshot().get(counter::ROUTED_BATCHES) < Some(3) {
        assert!(Instant::now() < taken, "the router never took the batches");
        std::thread::sleep(Duration::from_millis(5));
    }
    router.signal().trigger();
    for (ticket, batch) in tickets.into_iter().zip(&batches) {
        let reply = client
            .recv(ticket)
            .expect("a drained reply, not a dropped one");
        assert_eq!(
            reply.outcomes().expect("no shed"),
            &local.submit(batch)[..],
            "a drained batch diverged from local submit"
        );
    }
    router.shutdown();
    drop(slow);
}

#[test]
fn batches_probes_and_polls_share_one_connection_per_replica() {
    let local = Arc::new(Qbs::open(index_file("one_link"), MapMode::Mmap).expect("local"));
    let fakes: Vec<FakeReplica> = (0..2)
        .map(|_| FakeReplica::start(FakeAnswer::Slow(Local(Arc::clone(&local)))))
        .collect();
    let started = Instant::now();
    let router = QbsRouter::start(
        RouterConfig::bind("127.0.0.1:0")
            .replicas(fakes.iter().map(|f| f.addr.clone()).collect())
            .min_split(4)
            .probe_interval(Duration::from_millis(100))
            .metrics_addr("127.0.0.1:0"),
    )
    .expect("start router");
    let mut client =
        QbsClient::connect_retry(&router.local_addr().to_string(), Duration::from_secs(10))
            .expect("connect");
    let num_vertices = local.num_vertices() as u32;
    for salt in 0..2u32 {
        let requests = mixed_requests(num_vertices, salt);
        let reply = client.submit(&requests).expect("submit");
        assert_eq!(
            reply.outcomes().expect("no shed"),
            &local.submit(&requests)[..]
        );
    }
    for _ in 0..2 {
        assert_eq!(
            client.metrics().expect("metrics").get(counter::REQUESTS),
            Some(14)
        );
    }
    assert!(
        scrape(router.metrics_addr().expect("metrics listener bound"))
            .contains("qbs_requests_total 14")
    );
    // Probes go on for at least a second in all.
    std::thread::sleep(Duration::from_secs(1).saturating_sub(started.elapsed()));

    let snap = router.local_snapshot();
    for fake in &fakes {
        assert_eq!(
            fake.connections(),
            1,
            "batches, probes and polls must share the one link"
        );
        assert_eq!(fake.control_frames(), 3, "one poll per frame and scrape");
        assert!(
            fake.pings() >= 3,
            "probed {} times in a second",
            fake.pings()
        );
        assert_eq!(snap.replica(counter::REPLICA_HEALTHY, &fake.addr), Some(1));
        assert_eq!(snap.replica(counter::REPLICA_FAILURES, &fake.addr), Some(0));
        assert_eq!(snap.replica(counter::REPLICA_BATCHES, &fake.addr), Some(2));
    }
    drop(client);
    drop(router);
}

#[test]
fn probes_alone_eject_a_dead_replica_and_readmit_it() {
    let path = index_file("probe_eject");
    let mut replica = start_replica(&path);
    let addr = replica.local_addr().to_string();
    let probe_interval = Duration::from_millis(100);
    let health = HealthConfig {
        eject_after: 2,
        backoff_initial: Duration::from_millis(300),
        backoff_max: Duration::from_secs(2),
    };
    let router = QbsRouter::start(
        RouterConfig::bind("127.0.0.1:0")
            .replica(addr.clone())
            .probe_interval(probe_interval)
            .client(ClientConfig::default().connect_timeout(Duration::from_millis(250)))
            .health(health),
    )
    .expect("start router");
    let replica_stat = |def| router.local_snapshot().replica(def, &addr);
    let wait_for = |what: &str, within: Duration, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + within;
        while !done() {
            assert!(Instant::now() < deadline, "{what} took over {within:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    // No client traffic at all: only the first probe dials the replica.
    wait_for("the first probe", Duration::from_secs(5), &|| {
        replica.snapshot().get(counter::CONNECTIONS) == Some(1)
    });

    let stopped = Instant::now();
    replica.shutdown();
    drop(replica);
    let within = probe_interval * health.eject_after + Duration::from_secs(1);
    wait_for(
        "ejection by probes",
        within.saturating_sub(stopped.elapsed()),
        &|| replica_stat(counter::REPLICA_HEALTHY) == Some(0),
    );

    // Listening again on the same address: once the backoff window has
    // passed, a probe dials it and its `Pong` re-admits it.
    let qbs = Arc::new(Qbs::open(&path, MapMode::Mmap).expect("open mmap"));
    let revived =
        QbsServer::start(qbs, ServerConfig::bind(addr.clone()).workers(1)).expect("rebind");
    wait_for(
        "re-admission",
        health.backoff_max + Duration::from_secs(2),
        &|| {
            revived.snapshot().get(counter::CONNECTIONS) == Some(1)
                && replica_stat(counter::REPLICA_HEALTHY) == Some(1)
        },
    );
    let failures = replica_stat(counter::REPLICA_FAILURES);
    std::thread::sleep(probe_interval * 5);
    assert_eq!(replica_stat(counter::REPLICA_HEALTHY), Some(1));
    assert_eq!(
        replica_stat(counter::REPLICA_FAILURES),
        failures,
        "every probe since re-admission answered"
    );
    assert_eq!(
        replica_stat(counter::REPLICA_BATCHES),
        Some(0),
        "no traffic"
    );
    drop(router);
    drop(revived);
}

/// The threads of this process, counted by name, once every thread this
/// one started has named itself (until then it carries this one's name).
#[cfg(target_os = "linux")]
fn thread_census() -> std::collections::BTreeMap<String, i64> {
    let comm = |path: std::path::PathBuf| {
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        name.trim().to_string()
    };
    let own = comm("/proc/thread-self".into());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut census = std::collections::BTreeMap::new();
        for task in std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
        {
            *census.entry(comm(task.path())).or_insert(0) += 1;
        }
        if census.get(&own) == Some(&1) {
            return census;
        }
        assert!(
            Instant::now() < deadline,
            "threads left unnamed: {census:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
#[cfg(target_os = "linux")]
fn a_router_adds_one_long_lived_thread() {
    // The other tests of this binary start servers and routers alongside,
    // so the census runs in a process of its own: this binary again,
    // running this test alone.
    const CHILD: &str = "QBS_ROUTER_THREAD_CENSUS";
    let name = "a_router_adds_one_long_lived_thread";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([name, "--exact", "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .expect("run the census");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "census:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let path = index_file("census");
    let replicas: Vec<ServerHandle> = (0..2).map(|_| start_replica(&path)).collect();
    let before = thread_census();
    let router = start_router(
        replicas
            .iter()
            .map(|r| r.local_addr().to_string())
            .collect(),
    );
    // The first probes dial both replicas; wait for those dials to end,
    // then let a few more probe rounds go by.
    let deadline = Instant::now() + Duration::from_secs(10);
    while replicas
        .iter()
        .any(|r| r.snapshot().get(counter::CONNECTIONS) != Some(1))
        || thread_census().contains_key("qbs-dial")
    {
        assert!(Instant::now() < deadline, "the dials never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(300));
    let after = thread_census();
    let added: Vec<(&String, i64)> = after
        .iter()
        .map(|(name, n)| (name, n - before.get(name).copied().unwrap_or(0)))
        .filter(|&(_, n)| n != 0)
        .collect();
    assert_eq!(
        added,
        [(&"qbs-reactor".to_string(), 1)],
        "{before:?} -> {after:?}"
    );
    drop(router);
    drop(replicas);
}
