//! Loopback integration tests: the served answers must be bit-identical
//! to local `Qbs::submit` — one-shot and pipelined, in-order and
//! out-of-order — older hellos must be refused with a typed fault,
//! admission must shed with typed `Busy` replies (never hangs or dropped
//! connections), a fault or a panicking job must cost only its own
//! request, idle connections must park on the reactor without consuming
//! threads, rebuilding the mapped file must not disturb the server, and
//! shutdown must drain cleanly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qbs_core::serialize::{self, MapMode};
use qbs_core::{
    counter, CacheConfig, Qbs, QbsConfig, QbsIndex, QueryOutcome, QueryRequest, RequestId, Stage,
    StageNanos, TraceId,
};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_server::protocol::{self, fault_code, RequestFrame, ResponseFrame};
use qbs_server::{
    AdmissionConfig, BatchReply, BusyReason, ClientConfig, ProtocolError, QbsClient, QbsServer,
    ServeBackend, ServerConfig, ServerHandle, ShutdownSignal, PROTOCOL_VERSION,
};

/// Builds the shared test index (a tiny Douban stand-in), saves it, and
/// returns an mmap-backed session over it plus the file path.
fn mmap_session(tag: &str) -> (Arc<Qbs>, std::path::PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("qbs_server_loopback_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let graph = Catalog::paper_table1()
        .get(DatasetId::Douban)
        .expect("catalog")
        .generate(Scale::Tiny);
    let index = QbsIndex::build(graph, QbsConfig::with_landmark_count(8));
    let path = dir.join("index.qbs");
    serialize::save_to_file(&index, &path).expect("save");
    let qbs = Qbs::open(&path, MapMode::Mmap).expect("open mmap");
    assert!(
        matches!(
            qbs.index().expect("index").view().buf(),
            qbs_core::ViewBuf::Mmap(_)
        ),
        "test serves the mmap path"
    );
    (Arc::new(qbs.with_threads(2).expect("threads")), path)
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

/// Opens a raw socket and exchanges preambles, announcing `version`.
/// Returns the stream (reads time out instead of hanging) and the version
/// the server announced back.
fn raw_hello(addr: &str, version: u16) -> (TcpStream, u16) {
    let mut raw = TcpStream::connect(addr).expect("tcp");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut hello = [0u8; protocol::PREAMBLE_LEN];
    hello[..4].copy_from_slice(&protocol::PROTOCOL_MAGIC);
    hello[4..6].copy_from_slice(&version.to_le_bytes());
    raw.write_all(&hello).expect("client hello");
    let theirs = protocol::read_preamble(&mut raw).expect("server hello");
    (raw, theirs)
}

/// Asserts the server's next act on `raw` is an orderly close.
fn expect_fin(raw: &mut TcpStream) {
    let mut sink = [0u8; 1];
    assert_eq!(raw.read(&mut sink).expect("server FIN"), 0, "orderly close");
}

/// Waits (bounded) for every connection slot and admission permit to be
/// returned — the reactor reaps a closed connection on its next tick.
fn expect_released(server: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.snapshot();
        let held = [counter::CONNECTIONS, counter::INFLIGHT].map(|def| snap.get(def));
        if held == [Some(0); 2] {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "connections or permits leaked: {held:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let (qbs, path) = mmap_session("differential");
    let num_vertices = qbs.num_vertices() as u32;
    let mut server = QbsServer::start(Arc::clone(&qbs), ServerConfig::default()).expect("start");
    let addr = server.local_addr().to_string();

    // The local reference is a *separate* session over the same file, so
    // the comparison cannot be satisfied by shared state.
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");

    std::thread::scope(|scope| {
        for salt in 0..4u32 {
            let addr = addr.clone();
            let local = &local;
            scope.spawn(move || {
                // connect_retry: a client racing the handler spawns right
                // after start() may be refused with a retryable shed.
                let mut client =
                    QbsClient::connect_retry(&addr, std::time::Duration::from_secs(10))
                        .expect("connect");
                for round in 0..3u32 {
                    let requests = mixed_requests(num_vertices, salt + 4 * round);
                    let reply = client.submit(&requests).expect("submit");
                    let outcomes = reply.outcomes().expect("unloaded server never sheds");
                    let expected = local.submit(&requests);
                    assert_eq!(
                        outcomes,
                        &expected[..],
                        "client {salt} round {round}: served answers diverged from local submit"
                    );
                    let poisoned = &outcomes[requests.len() / 2];
                    assert!(poisoned.is_error(), "poisoned pair fails alone");
                    assert_eq!(
                        outcomes.iter().filter(|o| o.is_error()).count(),
                        1,
                        "exactly the poisoned slot errors"
                    );
                }
            });
        }
    });

    let snap = server.snapshot();
    assert_eq!(snap.get(counter::ADMITTED_BATCHES), Some(12));
    assert_eq!(snap.get(counter::BATCHES), Some(12));
    assert_eq!(
        snap.get(counter::ERRORS),
        Some(12),
        "one poisoned pair per batch"
    );
    server.shutdown();
}

#[test]
fn cache_hits_are_bit_identical_across_the_wire() {
    let (_warmup, path) = mmap_session("cache");
    // Rebuild the session with a cache attached (admit everything).
    let qbs = Arc::new(
        Qbs::open(&path, MapMode::Mmap)
            .expect("open")
            .with_threads(2)
            .expect("threads")
            .with_cache(CacheConfig::default().admit_above(0)),
    );
    let num_vertices = qbs.num_vertices() as u32;
    let mut server = QbsServer::start(Arc::clone(&qbs), ServerConfig::default()).expect("start");
    let mut client = QbsClient::connect(&server.local_addr().to_string()).expect("connect");

    let requests = mixed_requests(num_vertices, 1);
    let cold = client.submit(&requests).expect("cold");
    let warm = client.submit(&requests).expect("warm");
    assert_eq!(cold, warm, "warm-cache replies are bit-identical");

    let snap = client.metrics().expect("metrics");
    let hits = snap.get(counter::CACHE_HITS).expect("cache attached");
    assert!(hits > 0, "second round hit the cache: {hits}");
    assert_eq!(snap.get(counter::REQUESTS), Some(2 * requests.len() as u64));
    server.shutdown();
}

#[test]
fn exceeding_max_inflight_yields_typed_busy_not_a_hang() {
    let (qbs, _path) = mmap_session("busy");
    let num_vertices = qbs.num_vertices() as u32;
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_inflight: 8,
            max_batch: 16,
            max_connections: 8,
        },
        ..ServerConfig::default()
    };
    let mut server = QbsServer::start(Arc::clone(&qbs), config).expect("start");
    let mut client = QbsClient::connect(&server.local_addr().to_string()).expect("connect");

    // A batch over the per-batch cap: typed Busy, connection stays usable.
    let oversized: Vec<QueryRequest> = (0..17u32)
        .map(|i| QueryRequest::distance(i % num_vertices, (i + 1) % num_vertices))
        .collect();
    match client.submit(&oversized).expect("reply") {
        BatchReply::Busy(BusyReason::BatchTooLarge { limit: 16, got: 17 }) => {}
        other => panic!("expected BatchTooLarge, got {other:?}"),
    }

    // A batch over the in-flight bound (9 > 8): typed Busy.
    let wide: Vec<QueryRequest> = (0..9u32)
        .map(|i| QueryRequest::distance(i % num_vertices, (i + 2) % num_vertices))
        .collect();
    match client.submit(&wide).expect("reply") {
        BatchReply::Busy(BusyReason::Overloaded {
            limit: 8, got: 9, ..
        }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // The same connection still serves admissible work afterwards.
    let ok: Vec<QueryRequest> = (0..8u32)
        .map(|i| QueryRequest::distance(i % num_vertices, (i + 3) % num_vertices))
        .collect();
    let reply = client.submit(&ok).expect("admissible batch");
    assert_eq!(reply.outcomes().expect("admitted").len(), 8);

    let snap = client.metrics().expect("metrics");
    assert_eq!(snap.get(counter::SHED_BATCH_SIZE), Some(1));
    assert_eq!(snap.get(counter::SHED_OVERLOAD), Some(1));
    assert_eq!(snap.get(counter::ADMITTED_REQUESTS), Some(8));
    server.shutdown();
}

#[test]
fn connection_bound_sheds_with_busy() {
    let (qbs, _path) = mmap_session("connections");
    let config = ServerConfig::default().workers(2).max_connections(1);
    let mut server = QbsServer::start(Arc::clone(&qbs), config).expect("start");
    let addr = server.local_addr().to_string();

    let mut first = QbsClient::connect(&addr).expect("first connection");
    first.ping().expect("first connection is live");
    // The second connection is over the bound: its first exchange reads
    // back the typed Busy the handler queued before closing.
    let mut second = QbsClient::connect(&addr).expect("tcp connect succeeds");
    match second.ping() {
        Err(qbs_server::ProtocolError::Shed(BusyReason::TooManyConnections { limit: 1 })) => {}
        other => panic!("expected a typed connection shed, got {other:?}"),
    }
    drop(second);
    first.ping().expect("surviving connection unaffected");
    server.shutdown();
}

#[test]
fn hundreds_of_idle_connections_park_on_one_reactor_thread() {
    let (qbs, _path) = mmap_session("parked");
    // One worker: the pre-reactor design would shed every connection past
    // the pool size. The reactor parks them all on a single thread.
    let config = ServerConfig::default().workers(1);
    let mut server = QbsServer::start(Arc::clone(&qbs), config).expect("start");
    let addr = server.local_addr().to_string();
    assert_eq!(server.reactor_threads(), 1);
    assert_eq!(server.worker_threads(), 1);

    let mut clients: Vec<QbsClient> = (0..512)
        .map(|i| QbsClient::connect(&addr).unwrap_or_else(|e| panic!("connection {i}: {e}")))
        .collect();
    // Every parked connection is live — none was shed or half-accepted.
    for (i, client) in clients.iter_mut().enumerate() {
        client
            .ping()
            .unwrap_or_else(|e| panic!("parked connection {i} not served: {e}"));
    }
    let snap = server.snapshot();
    assert_eq!(snap.get(counter::CONNECTIONS), Some(512));
    assert_eq!(snap.get(counter::SHED_CONNECTIONS), Some(0));
    drop(clients);
    server.shutdown();
}

/// Saving a different index over the file a server maps replaces the
/// file instead of rewriting it: the server goes on answering from its
/// mapping of the old index, and a fresh open serves the new one.
#[test]
fn rebuilding_the_mapped_file_keeps_the_server_on_the_old_index() {
    let (qbs, path) = mmap_session("rebuild");
    let num_vertices = qbs.num_vertices() as u32;
    let mut server = QbsServer::start(Arc::clone(&qbs), ServerConfig::default()).expect("start");
    let mut client =
        QbsClient::connect_retry(&server.local_addr().to_string(), Duration::from_secs(10))
            .expect("connect");
    // The old index's answers, from a heap copy of the file.
    let old = Qbs::open(&path, MapMode::Read).expect("old reference");
    let batches: Vec<Vec<QueryRequest>> = (0..4u32)
        .map(|salt| mixed_requests(num_vertices, 40 + salt))
        .collect();

    let graph = Catalog::paper_table1()
        .get(DatasetId::Douban)
        .expect("catalog")
        .generate(Scale::Tiny);
    let new = QbsIndex::build(graph, QbsConfig::with_landmark_count(3));
    serialize::save_to_file(&new, &path).expect("save over the mapped file");
    let new = Qbs::from_index(new);

    // The server answers every batch from the old index, although the new
    // one answers each differently.
    for (i, batch) in batches.iter().enumerate() {
        let reply = client.submit(batch).expect("submit");
        let expected = old.submit(batch);
        assert_eq!(
            reply.outcomes().expect("admitted"),
            expected,
            "batch {i} after the rebuild"
        );
        assert_ne!(new.submit(batch), expected, "batch {i}: the indexes differ");
    }
    let fresh = Qbs::open(&path, MapMode::Mmap).expect("reopen");
    assert_eq!(fresh.num_landmarks(), 3);
    for batch in &batches {
        assert_eq!(fresh.submit(batch), new.submit(batch));
    }
    server.shutdown();
}

#[test]
fn shutdown_frame_drains_and_stops_the_server() {
    let (qbs, _path) = mmap_session("shutdown");
    let num_vertices = qbs.num_vertices() as u32;
    let server = QbsServer::start(Arc::clone(&qbs), ServerConfig::default()).expect("start");
    let addr = server.local_addr().to_string();
    let signal: Arc<ShutdownSignal> = server.signal();

    let mut client = QbsClient::connect(&addr).expect("connect");
    let reply = client
        .submit(&[QueryRequest::path_graph(1 % num_vertices, 5 % num_vertices)])
        .expect("pre-shutdown batch");
    assert!(reply.outcomes().is_some());
    client.shutdown_server().expect("acknowledged");
    assert!(signal.is_shutdown(), "shutdown frame flipped the latch");

    // wait() joins every thread; afterwards new connections are refused.
    server.wait();
    assert!(
        QbsClient::connect(&addr).is_err(),
        "a drained server accepts no new connections"
    );
}

#[test]
fn ping_reconnect_and_version_negotiation() {
    let (qbs, _path) = mmap_session("handshake");
    let mut server = QbsServer::start(Arc::clone(&qbs), ServerConfig::default()).expect("start");
    let addr = server.local_addr().to_string();

    let mut client = QbsClient::connect(&addr).expect("connect");
    assert!(client.ping().expect("pong").as_secs() < 5);
    client.reconnect().expect("reconnect to the same server");
    client.ping().expect("pong after reconnect");
    assert_eq!(client.addr(), addr);

    // A client announcing a future version negotiates down to the
    // server's version and is served normally.
    let (mut raw, theirs) = raw_hello(&addr, 999);
    assert_eq!(
        theirs, PROTOCOL_VERSION,
        "the server replies with the negotiated version"
    );
    let trace = TraceId(0xDEAD_BEEF_CAFE);
    protocol::write_request(&mut raw, RequestId(7), trace, &RequestFrame::Ping).expect("ping");
    let (id, echoed, frame) = protocol::read_response(&mut raw).expect("pong");
    assert_eq!(id, RequestId(7));
    assert_eq!(echoed, trace, "the reply echoes the request's trace ID");
    assert_eq!(frame, ResponseFrame::Pong);
    server.shutdown();
}

#[test]
fn handshake_matrix_refuses_old_hellos_and_serves_v3() {
    let (qbs, path) = mmap_session("versions");
    let num_vertices = qbs.num_vertices() as u32;
    let mut server = QbsServer::start(Arc::clone(&qbs), ServerConfig::default()).expect("start");
    let addr = server.local_addr().to_string();
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");

    // Every older dialect: our preamble, one decodable connection-scoped
    // fault, then FIN — never a hang (the reads time out), never service.
    for old in 0..PROTOCOL_VERSION {
        let (mut raw, theirs) = raw_hello(&addr, old);
        assert_eq!(theirs, PROTOCOL_VERSION);
        let (id, trace, frame) = protocol::read_response(&mut raw).expect("fault frame");
        assert_eq!((id, trace), (RequestId::CONNECTION, TraceId::NONE));
        match frame {
            ResponseFrame::Error(fault) => {
                assert_eq!(fault.code, fault_code::VERSION_MISMATCH);
                let sent = format!("client sent {old}");
                assert!(fault.message.contains(&sent), "{}", fault.message);
            }
            other => panic!("hello {old}: expected a version fault, got {other:?}"),
        }
        expect_fin(&mut raw);
    }

    // Our version and anything newer are served at ours.
    for new in [PROTOCOL_VERSION, u16::MAX] {
        let (mut raw, theirs) = raw_hello(&addr, new);
        assert_eq!(theirs, PROTOCOL_VERSION);
        let requests = mixed_requests(num_vertices, u32::from(new % 7));
        protocol::write_request(
            &mut raw,
            RequestId(1),
            TraceId(9),
            &RequestFrame::Batch(requests.clone()),
        )
        .expect("send");
        match protocol::read_response(&mut raw).expect("reply") {
            (RequestId(1), TraceId(9), ResponseFrame::Batch(outcomes)) => {
                assert_eq!(outcomes, local.submit(&requests), "hello {new} diverged")
            }
            other => panic!("hello {new}: expected outcomes, got {other:?}"),
        }
    }
    expect_released(&server);
    server.shutdown();

    // The other direction: a server older than the client is a local,
    // typed refusal.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let stub_addr = listener.local_addr().expect("addr").to_string();
    let stub = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept");
        let mut hello = [0u8; protocol::PREAMBLE_LEN];
        peer.read_exact(&mut hello).expect("client hello");
        hello[4..6].copy_from_slice(&2u16.to_le_bytes());
        peer.write_all(&hello).expect("old preamble");
    });
    match QbsClient::connect(&stub_addr) {
        Err(ProtocolError::VersionMismatch { ours, theirs }) => {
            assert_eq!((ours, theirs), (PROTOCOL_VERSION, 2));
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
    stub.join().expect("stub server");
}

#[test]
fn half_close_with_pipelined_batches_drains_and_releases_permits() {
    let (qbs, path) = mmap_session("halfclose");
    let num_vertices = qbs.num_vertices() as u32;
    // One worker serialises execution, so the trailing batches are still
    // queued or executing when the EOF arrives.
    let mut server =
        QbsServer::start(Arc::clone(&qbs), ServerConfig::default().workers(1)).expect("start");
    let addr = server.local_addr().to_string();
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");

    let (mut raw, _) = raw_hello(&addr, PROTOCOL_VERSION);
    let batches: Vec<Vec<QueryRequest>> = (0..4u32)
        .map(|salt| mixed_requests(num_vertices, 40 + salt))
        .collect();
    for (i, batch) in batches.iter().enumerate() {
        let frame = RequestFrame::Batch(batch.clone());
        protocol::write_request(&mut raw, RequestId(i as u32 + 1), TraceId::NONE, &frame)
            .expect("send");
    }
    // Half-close after the last request, before any reply is read: the
    // server must still answer every fully-received frame, then close
    // its own side — and must not pin the connection (or its admission
    // permits) forever.
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");

    let mut replies = std::collections::HashMap::new();
    for _ in &batches {
        let (id, _, frame) = protocol::read_response(&mut raw).expect("reply after half-close");
        assert!(replies.insert(id, frame).is_none(), "{id} answered twice");
    }
    for (i, batch) in batches.iter().enumerate() {
        match replies.remove(&RequestId(i as u32 + 1)) {
            Some(ResponseFrame::Batch(outcomes)) => {
                assert_eq!(
                    outcomes,
                    local.submit(batch),
                    "batch {i} diverged after half-close"
                )
            }
            other => panic!("batch {i}: expected outcomes, got {other:?}"),
        }
    }
    expect_fin(&mut raw);

    // Every permit was released on completion, and the slot on close.
    expect_released(&server);
    assert_eq!(server.snapshot().get(counter::ADMITTED_BATCHES), Some(4));
    server.shutdown();
}

#[test]
fn faults_are_request_scoped_unless_the_envelope_breaks() {
    let (qbs, _path) = mmap_session("faults");
    let mut server = QbsServer::start(Arc::clone(&qbs), ServerConfig::default()).expect("start");
    let addr = server.local_addr().to_string();
    let (mut raw, _) = raw_hello(&addr, PROTOCOL_VERSION);

    // An intact envelope around an unknown tag, then around a truncated
    // body: each is answered under its own ID and the connection lives.
    let bad_bodies: [(&[u8], u8); 2] = [
        (&[0x7F], fault_code::UNKNOWN_TAG),
        (&[0x01, 0xFF], fault_code::MALFORMED),
    ];
    for (i, (body, code)) in bad_bodies.into_iter().enumerate() {
        let id = RequestId(i as u32 + 1);
        let payload = protocol::encode_envelope(id, TraceId(5), body);
        protocol::write_frame(&mut raw, &payload).expect("send");
        match protocol::read_response(&mut raw).expect("request-scoped fault") {
            (got, TraceId(5), ResponseFrame::Error(fault)) => {
                assert_eq!((got, fault.code), (id, code), "{}", fault.message)
            }
            other => panic!("expected a fault under {id}, got {other:?}"),
        }
    }
    protocol::write_request(&mut raw, RequestId(3), TraceId(5), &RequestFrame::Ping).expect("ping");
    let (id, _, frame) = protocol::read_response(&mut raw).expect("pong");
    assert_eq!((id, frame), (RequestId(3), ResponseFrame::Pong));

    // A frame too short to hold the envelope cannot be paired with any
    // request: connection-scoped fault, then FIN, and the slot returns.
    protocol::write_frame(&mut raw, &[1, 0, 0, 0, 9]).expect("send");
    match protocol::read_response(&mut raw).expect("connection-scoped fault") {
        (RequestId::CONNECTION, TraceId::NONE, ResponseFrame::Error(fault)) => {
            assert_eq!(fault.code, fault_code::MALFORMED)
        }
        other => panic!("expected a connection fault, got {other:?}"),
    }
    expect_fin(&mut raw);
    expect_released(&server);
    server.shutdown();
}

/// A backend that serves from a real session but panics on any batch
/// holding a request whose source is [`PanickingBackend::MARK`].
#[derive(Debug)]
struct PanickingBackend(Arc<Qbs>);

impl PanickingBackend {
    const MARK: u32 = u32::MAX;
}

impl ServeBackend for PanickingBackend {
    fn execute(
        &self,
        requests: &[QueryRequest],
        _trace: TraceId,
    ) -> (Vec<QueryOutcome>, StageNanos) {
        assert!(
            requests.iter().all(|r| r.source != Self::MARK),
            "injected backend panic"
        );
        (self.0.submit(requests), StageNanos::default())
    }

    fn snapshot(&self) -> qbs_core::MetricsSnapshot {
        self.0.metrics_snapshot()
    }

    fn obs(&self) -> Option<&qbs_core::Metrics> {
        Some(self.0.metrics())
    }
}

#[test]
fn panicking_job_faults_its_own_request_and_nothing_else() {
    let (qbs, path) = mmap_session("panic");
    let num_vertices = qbs.num_vertices() as u32;
    // One worker: if the panic killed it, nothing behind it would answer.
    let mut server = QbsServer::start_with_backend(
        Arc::new(PanickingBackend(Arc::clone(&qbs))),
        ServerConfig::default().workers(1),
    )
    .expect("start");
    let mut client = QbsClient::connect(&server.local_addr().to_string()).expect("connect");
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");

    let marked = QueryRequest::distance(PanickingBackend::MARK, 0);
    let healthy = mixed_requests(num_vertices, 3);
    // A two-request frame, then a one-request Distance frame (which runs
    // on the worker like every batch), each with healthy work pipelined
    // behind it.
    for poisoned in [vec![marked, marked], vec![marked]] {
        let bad = client.send(&poisoned).expect("send marked");
        let good = client.send(&healthy).expect("send unmarked");
        match client.recv(bad) {
            Err(ProtocolError::Remote(fault)) => assert_eq!(fault.code, fault_code::INTERNAL),
            other => panic!("expected an internal fault, got {other:?}"),
        }
        assert_eq!(
            client
                .recv(good)
                .expect("recv")
                .outcomes()
                .expect("admitted"),
            &local.submit(&healthy)[..],
            "the request behind a panicking one diverged"
        );
    }
    let panics = client.metrics().expect("metrics").get(counter::JOB_PANICS);
    assert_eq!(panics, Some(2));
    drop(client);
    expect_released(&server);

    // No count leaked, so the reactor can exit: shutdown returns well
    // inside its drain deadline instead of never.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown joined the reactor and the worker");
}

#[test]
fn pipelined_batches_complete_out_of_order_and_match_local() {
    let (qbs, path) = mmap_session("pipeline");
    let num_vertices = qbs.num_vertices() as u32;
    let mut server =
        QbsServer::start(Arc::clone(&qbs), ServerConfig::default().workers(2)).expect("start");
    let addr = server.local_addr().to_string();
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");

    let mut client = QbsClient::connect(&addr).expect("connect");

    // Depth-8 pipeline, redeemed in a scrambled order: with two workers
    // the replies genuinely complete out of order on the wire, and every
    // ticket must still pair with its own batch.
    let batches: Vec<Vec<QueryRequest>> = (0..8u32)
        .map(|salt| mixed_requests(num_vertices, 20 + salt))
        .collect();
    let expected: Vec<_> = batches.iter().map(|b| local.submit(b)).collect();
    let tickets: Vec<_> = batches
        .iter()
        .map(|b| client.send(b).expect("send"))
        .collect();
    assert_eq!(client.in_flight(), 8);
    // Redeem middle-out: 5, 2, 7, 0, 6, 1, 4, 3.
    for &i in &[5usize, 2, 7, 0, 6, 1, 4, 3] {
        let reply = client.recv(tickets[i]).expect("recv");
        assert_eq!(
            reply.outcomes().expect("admitted"),
            &expected[i][..],
            "pipelined batch {i} diverged from local submit"
        );
    }
    assert_eq!(client.in_flight(), 0);

    // A ticket cannot be redeemed twice.
    match client.recv(tickets[3]) {
        Err(qbs_server::ProtocolError::UnknownTicket(_)) => {}
        other => panic!("expected UnknownTicket, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn pipelined_single_request_distance_frames_run_on_the_workers() {
    let (qbs, path) = mmap_session("single");
    let num_vertices = qbs.num_vertices() as u32;
    let mut server =
        QbsServer::start(Arc::clone(&qbs), ServerConfig::default().workers(2)).expect("start");
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");
    let mut client = QbsClient::connect(&server.local_addr().to_string()).expect("connect");
    let batch_slot = qbs_core::obs::NUM_MODE_SLOTS - 1;
    let queue_waits = |client: &mut QbsClient| {
        let snapshot = client.metrics().expect("metrics");
        snapshot.family(batch_slot, Stage::QueueWait).count
    };
    let before = queue_waits(&mut client);

    // Depth-8 pipeline of one-request Distance frames (an out-of-range
    // pair among them), redeemed in a scrambled order.
    let mut frames: Vec<Vec<QueryRequest>> = (0..8u32)
        .map(|i| {
            let (u, v) = ((37 * i + 11) % num_vertices, (53 * i + 5) % num_vertices);
            vec![QueryRequest::distance(u, v)]
        })
        .collect();
    frames[3] = vec![QueryRequest::distance(num_vertices, 0)];
    let expected: Vec<_> = frames.iter().map(|f| local.submit(f)).collect();
    let tickets: Vec<_> = frames
        .iter()
        .map(|f| client.send(f).expect("send"))
        .collect();
    assert_eq!(client.in_flight(), 8);
    for &i in &[5usize, 2, 7, 0, 6, 1, 4, 3] {
        let reply = client.recv(tickets[i]).expect("recv");
        assert_eq!(
            reply.outcomes().expect("admitted"),
            &expected[i][..],
            "single-request frame {i} diverged from local submit"
        );
    }
    // Each frame waited in the worker queue: none ran on the reactor.
    assert_eq!(queue_waits(&mut client) - before, 8);
    server.shutdown();
}

#[test]
fn metrics_frame_http_endpoint_and_slow_queries() {
    let (qbs, _path) = mmap_session("metrics");
    let num_vertices = qbs.num_vertices() as u32;
    // A zero slow-query threshold makes every admitted batch "slow", so
    // the counter (and the stderr log line) fire deterministically.
    let config = ServerConfig::default()
        .metrics_addr("127.0.0.1:0")
        .slow_query(std::time::Duration::ZERO);
    let mut server = QbsServer::start(Arc::clone(&qbs), config).expect("start");
    let addr = server.local_addr().to_string();
    let metrics_addr = server.metrics_addr().expect("metrics listener bound");

    let mut client = QbsClient::connect(&addr).expect("connect");
    let pinned = qbs_core::TraceId(0xABCD_EF01_2345);
    client.set_trace(pinned);
    for salt in 0..3u32 {
        let reply = client
            .submit(&mixed_requests(num_vertices, salt))
            .expect("submit");
        assert!(reply.outcomes().is_some());
    }
    assert_eq!(
        client.last_trace(),
        pinned,
        "pinned trace rides every frame"
    );

    // The Metrics frame returns per-stage histograms with real samples.
    let snapshot = client.metrics().expect("metrics frame");
    let stages = qbs_core::Stage::ALL.len();
    let executed: u64 = snapshot
        .hists
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stages == qbs_core::Stage::Execute as usize)
        .map(|(_, h)| h.count)
        .sum();
    assert!(
        executed > 0,
        "execute stage recorded no samples: {snapshot:?}"
    );
    let slow = snapshot.get(counter::SLOW_QUERIES).unwrap_or(0);
    assert!(
        slow >= 3,
        "zero threshold marks every batch slow, got {slow}"
    );
    for h in &snapshot.hists {
        if h.count > 0 {
            assert!(
                h.quantile(0.5) <= h.quantile(0.99),
                "quantiles not monotone"
            );
            assert!(h.quantile(0.99) <= h.max, "p99 exceeds the observed max");
        }
    }

    // The HTTP endpoint renders the same registry in Prometheus text.
    let mut http = std::net::TcpStream::connect(metrics_addr).expect("http connect");
    http.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: qbs\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut body = String::new();
    http.read_to_string(&mut body).expect("response");
    assert!(body.starts_with("HTTP/1.1 200 OK"), "bad status: {body}");
    for family in [
        "qbs_requests_total",
        "qbs_batches_total",
        "qbs_stage_seconds_bucket",
        "qbs_stage_seconds_quantile",
        "qbs_slow_queries_total",
    ] {
        assert!(body.contains(family), "missing family {family} in:\n{body}");
    }

    // Unknown paths get a 404 without killing the listener.
    let mut http = std::net::TcpStream::connect(metrics_addr).expect("http connect");
    http.write_all(b"GET /nope HTTP/1.1\r\nHost: qbs\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut reply = String::new();
    http.read_to_string(&mut reply).expect("response");
    assert!(reply.starts_with("HTTP/1.1 404"), "bad status: {reply}");
    server.shutdown();
}

#[test]
fn connect_retry_bounds_each_attempt() {
    // A listener that accepts but never handshakes: without a per-attempt
    // deadline, one hung handshake would eat the entire retry budget (the
    // old behaviour was a 30s io_timeout stall per attempt).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let config = ClientConfig::default()
        .connect_timeout(std::time::Duration::from_millis(200))
        .io_timeout(std::time::Duration::from_secs(30));
    let started = std::time::Instant::now();
    let result =
        QbsClient::connect_retry_with(&addr, std::time::Duration::from_millis(900), config);
    let elapsed = started.elapsed();
    assert!(result.is_err(), "nothing ever handshakes");
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "retry loop must rotate attempts under the per-attempt bound, took {elapsed:?}"
    );
    drop(listener);
}
