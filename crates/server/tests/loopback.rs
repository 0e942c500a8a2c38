//! Loopback integration tests: the served answers must be bit-identical
//! to local `Qbs::submit` — under protocol v1 and v2, one-shot and
//! pipelined, in-order and out-of-order — admission must shed with typed
//! `Busy` replies (never hangs or dropped connections), idle connections
//! must park on the reactor without consuming threads, and shutdown must
//! drain cleanly.

use std::sync::Arc;

use qbs_core::serialize::{self, IndexFormat, MapMode};
use qbs_core::{CacheConfig, Qbs, QbsConfig, QbsIndex, QueryRequest, RequestId};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_server::{
    AdmissionConfig, BatchReply, BusyReason, ClientConfig, QbsClient, QbsServer, ServerConfig,
    ShutdownSignal,
};

/// Builds the shared test index (a tiny Douban stand-in), saves it as a v2
/// file, and returns an mmap-backed session over it plus the file path.
fn mmap_session(tag: &str) -> (Arc<Qbs>, std::path::PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("qbs_server_loopback_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let graph = Catalog::paper_table1()
        .get(DatasetId::Douban)
        .expect("catalog")
        .generate(Scale::Tiny);
    let index = QbsIndex::try_build(graph, QbsConfig::with_landmark_count(8)).expect("build");
    let path = dir.join("index.qbs2");
    serialize::save_to_file_with(&index, &path, IndexFormat::Binary).expect("save");
    let qbs = Qbs::open(&path, MapMode::Mmap).expect("open mmap");
    assert_eq!(qbs.backend().name(), "view", "test serves the mmap path");
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

    let stats = server.stats();
    assert_eq!(stats.admission.admitted_batches, 12);
    assert_eq!(stats.engine.batches, 12);
    assert_eq!(stats.engine.errors, 12, "one poisoned pair per batch");
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

    let stats = client.stats().expect("stats");
    let cache = stats.engine.cache.expect("cache attached");
    assert!(cache.hits > 0, "second round hit the cache: {cache:?}");
    assert_eq!(stats.engine.requests, 2 * requests.len() as u64);
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

    let stats = client.stats().expect("stats");
    assert_eq!(stats.admission.shed_batch_size, 1);
    assert_eq!(stats.admission.shed_overload, 1);
    assert_eq!(stats.admission.admitted_requests, 8);
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
    let stats = server.stats();
    assert_eq!(stats.admission.connections, 512);
    assert_eq!(stats.admission.shed_connections, 0);
    drop(clients);
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
    assert_eq!(client.protocol_version(), qbs_server::PROTOCOL_VERSION);
    assert!(client.ping().expect("pong").as_secs() < 5);
    client.reconnect().expect("reconnect to the same server");
    client.ping().expect("pong after reconnect");
    assert_eq!(client.addr(), addr);

    use std::io::{Read, Write};

    // A client announcing a future version negotiates down to the
    // server's newest version and is served normally.
    let mut raw = std::net::TcpStream::connect(&addr).expect("tcp");
    let mut preamble = [0u8; 8];
    preamble[..4].copy_from_slice(b"QBSP");
    preamble[4..6].copy_from_slice(&999u16.to_le_bytes());
    raw.write_all(&preamble).expect("send future version");
    let mut reply = [0u8; 8];
    raw.read_exact(&mut reply).expect("server preamble");
    assert_eq!(&reply[..4], b"QBSP");
    assert_eq!(
        u16::from_le_bytes([reply[4], reply[5]]),
        qbs_server::PROTOCOL_VERSION,
        "the server replies with the negotiated version"
    );
    let trace = qbs_core::TraceId(0xDEAD_BEEF_CAFE);
    qbs_server::protocol::write_request_v3(
        &mut raw,
        RequestId(7),
        trace,
        &qbs_server::protocol::RequestFrame::Ping,
    )
    .expect("v3 ping");
    let (id, echoed, frame) = qbs_server::protocol::read_response_v3(&mut raw).expect("v3 pong");
    assert_eq!(id, RequestId(7));
    assert_eq!(echoed, trace, "the reply echoes the request's trace ID");
    assert_eq!(frame, qbs_server::protocol::ResponseFrame::Pong);

    // Version 0 predates every build: typed fault, then close.
    let mut raw = std::net::TcpStream::connect(&addr).expect("tcp");
    let mut preamble = [0u8; 8];
    preamble[..4].copy_from_slice(b"QBSP");
    raw.write_all(&preamble).expect("send version 0");
    let mut reply = [0u8; 8];
    raw.read_exact(&mut reply).expect("server preamble");
    let frame = qbs_server::protocol::read_response(&mut raw).expect("fault frame");
    match frame {
        qbs_server::protocol::ResponseFrame::Error(fault) => {
            assert_eq!(
                fault.code,
                qbs_server::protocol::fault_code::VERSION_MISMATCH
            );
            assert!(fault.message.contains("client sent 0"), "{}", fault.message);
        }
        other => panic!("expected a version fault, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn v1_and_v3_clients_get_bit_identical_answers() {
    let (qbs, path) = mmap_session("versions");
    let num_vertices = qbs.num_vertices() as u32;
    let mut server = QbsServer::start(Arc::clone(&qbs), ServerConfig::default()).expect("start");
    let addr = server.local_addr().to_string();
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");

    let mut v3 = QbsClient::connect(&addr).expect("v3 connect");
    assert_eq!(v3.protocol_version(), 3);
    let mut v1 =
        QbsClient::connect_with(&addr, ClientConfig::default().force_v1(true)).expect("v1 connect");
    assert_eq!(v1.protocol_version(), 1, "force_v1 pins the handshake");

    for salt in 0..3u32 {
        let requests = mixed_requests(num_vertices, salt);
        let expected = local.submit(&requests);
        for (name, client) in [("v3", &mut v3), ("v1", &mut v1)] {
            let reply = client.submit(&requests).expect("submit");
            assert_eq!(
                reply.outcomes().expect("unloaded server never sheds"),
                &expected[..],
                "{name} client diverged from local submit (salt {salt})"
            );
        }
    }

    // A v1 connection pipelines too (the wire is FIFO; the client stash
    // re-pairs replies): tickets redeemed in reverse order still match.
    let batch_a = mixed_requests(num_vertices, 11);
    let batch_b = mixed_requests(num_vertices, 12);
    let expected_a = local.submit(&batch_a);
    let expected_b = local.submit(&batch_b);
    let ticket_a = v1.send(&batch_a).expect("send a");
    let ticket_b = v1.send(&batch_b).expect("send b");
    let reply_b = v1.recv(ticket_b).expect("recv b");
    let reply_a = v1.recv(ticket_a).expect("recv a");
    assert_eq!(reply_a.outcomes().expect("admitted"), &expected_a[..]);
    assert_eq!(reply_b.outcomes().expect("admitted"), &expected_b[..]);

    // Control frames interleave with pipelined batches on both versions.
    let ticket = v3.send(&batch_a).expect("send");
    v3.ping().expect("ping while a batch is in flight");
    assert_eq!(
        v3.recv(ticket).expect("recv").outcomes().expect("admitted"),
        &expected_a[..]
    );
    server.shutdown();
}

#[test]
fn v1_half_close_with_queued_batches_drains_and_releases_permits() {
    let (qbs, path) = mmap_session("halfclose");
    let num_vertices = qbs.num_vertices() as u32;
    // One worker serialises execution, so the trailing batches are parked
    // in the v1 in-order queue when the EOF arrives.
    let mut server =
        QbsServer::start(Arc::clone(&qbs), ServerConfig::default().workers(1)).expect("start");
    let addr = server.local_addr().to_string();
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");

    use qbs_server::protocol::{self, RequestFrame, ResponseFrame};
    use std::io::Read;

    let mut raw = std::net::TcpStream::connect(&addr).expect("tcp");
    // A timeout turns the historical failure mode (replies never come,
    // the connection leaks) into a clean assertion failure.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    protocol::write_preamble_version(&mut raw, 1).expect("client hello");
    assert_eq!(protocol::read_preamble(&mut raw).expect("server hello"), 1);

    let batches: Vec<Vec<QueryRequest>> = (0..4u32)
        .map(|salt| mixed_requests(num_vertices, 40 + salt))
        .collect();
    for batch in &batches {
        protocol::write_request(&mut raw, &RequestFrame::Batch(batch.clone())).expect("send");
    }
    // Half-close after the last request, before any reply is read: the
    // server must still answer every fully-received frame, in order,
    // then close its own side — and must not pin the connection (or its
    // admission permits) forever.
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");

    for (i, batch) in batches.iter().enumerate() {
        let expected = local.submit(batch);
        match protocol::read_response(&mut raw).expect("reply after half-close") {
            ResponseFrame::Batch(outcomes) => {
                assert_eq!(outcomes, expected, "batch {i} diverged after half-close")
            }
            other => panic!("batch {i}: expected outcomes, got {other:?}"),
        }
    }
    let mut sink = [0u8; 1];
    assert_eq!(
        raw.read(&mut sink).expect("server FIN"),
        0,
        "orderly close after the last reply"
    );

    // Every permit the queued batches needed was released on completion.
    let stats = server.stats();
    assert_eq!(stats.admission.inflight, 0);
    assert_eq!(stats.admission.admitted_batches, 4);
    server.shutdown();
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
    assert!(
        snapshot.slow_queries >= 3,
        "zero threshold marks every batch slow, got {}",
        snapshot.slow_queries
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
    use std::io::{Read, Write};
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
