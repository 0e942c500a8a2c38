//! # qbs-server
//!
//! The network serving subsystem: a long-running framed TCP server and the
//! matching blocking client over one shared [`qbs_core::Qbs`] session —
//! the layer that turns microsecond index lookups (Wang et al., SIGMOD
//! 2021) into a service many concurrent clients can hit.
//!
//! The crate is **std-only** (the build environment has no crates.io
//! access): framing is length-prefixed binary over `TcpStream`, the
//! server is a single `poll(2)` reactor thread plus a fixed worker pool,
//! and admission control is a counting semaphore — see the module docs:
//!
//! * [`protocol`] — magic + version handshake (one dialect: older
//!   hellos get a typed `VERSION_MISMATCH`), length-prefixed frames under
//!   a request-ID + trace-ID envelope, typed [`ProtocolError`]s (spec in
//!   `docs/protocol.md`);
//! * [`admission`] — first-class load shedding: in-flight request
//!   semaphore, per-batch cap, connection bound, typed `Busy`;
//! * [`server`] — one reactor thread multiplexing every connection over
//!   [`poll`], plus a fixed worker pool over an `Arc<Qbs>` (thousands of
//!   idle connections park on one thread; N connections share one mmap'd
//!   index, query workers and answer cache), graceful `Shutdown`-frame /
//!   SIGINT teardown, an optional Prometheus-style HTTP `/metrics`
//!   listener, and a trace-stamped slow-query log (see
//!   `docs/observability.md`);
//! * [`client`] — blocking [`QbsClient`]: connect/reconnect, one-shot
//!   `submit` plus the pipelined `send`/`recv` [`Ticket`] surface, metrics,
//!   ping, shutdown;
//! * [`poll`] — the `poll(2)` + wake-pipe shim the reactor stands on;
//! * [`signal`] — the SIGINT/SIGTERM latch the CLI wires into the serve
//!   loop.
//!
//! Server answers are **bit-identical** to local [`qbs_core::Qbs::submit`]
//! outcomes, whatever order pipelined replies complete in. The loopback differential tests
//! and the CI `serve-smoke` step enforce it.
//!
//! ```
//! use std::sync::Arc;
//! use qbs_core::{Qbs, QbsConfig, QueryRequest};
//! use qbs_server::{BatchReply, QbsClient, QbsServer, ServerConfig};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! let qbs = Arc::new(
//!     Qbs::build(figure4_graph(), QbsConfig::with_landmark_count(3)).unwrap(),
//! );
//! let mut server = QbsServer::start(Arc::clone(&qbs), ServerConfig::default()).unwrap();
//! let mut client = QbsClient::connect(&server.local_addr().to_string()).unwrap();
//! let reply = client.submit(&[QueryRequest::distance(6, 11)]).unwrap();
//! match reply {
//!     BatchReply::Outcomes(outcomes) => assert_eq!(outcomes[0].distance(), Some(5)),
//!     BatchReply::Busy(reason) => panic!("unloaded server shed a batch: {reason}"),
//! }
//! server.shutdown();
//! ```

// `unsafe` is denied crate-wide; the exceptions are the two tiny
// syscall shims (reviewed in isolation) that opt back in with a
// module-level `allow`, exactly the `qbs-core::mmap` pattern: the
// `signal(2)` latch and the `poll(2)`/`pipe(2)` reactor primitives.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod poll;
pub mod protocol;
pub mod server;
pub mod signal;

pub use admission::{Admission, AdmissionConfig, BusyReason};
pub use client::{BatchReply, ClientConfig, QbsClient, Ticket};
pub use protocol::{ProtocolError, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use server::{
    Forward, ForwardJob, Forwarded, MetricsJob, QbsServer, ServeBackend, ServerConfig,
    ServerHandle, ShutdownSignal,
};
