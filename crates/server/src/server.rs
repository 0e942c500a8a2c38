//! The long-running TCP server: one poll(2) reactor thread multiplexing
//! every connection, plus a fixed worker pool over one shared [`Qbs`]
//! session.
//!
//! Architecture (one process, thousands of connections, fixed threads):
//!
//! ```text
//!                 ┌────────────────────────────────────────────┐
//!                 │ reactor thread: poll(2) over listener +    │
//!  accept ──────▶ │ every connection; nonblocking reads decode │ ◀──▶ replicas
//!                 │ frames, control frames answered inline;    │ (router only:
//!                 │ a forwarding backend's batches, probes and │  Forward hook)
//!                 │ Metrics polls stay here                    │
//!                 └───────┬───────────────────────▲────────────┘
//!                         │ every admitted batch  │ completions (wake pipe)
//!                         ▼                       │
//!                 ┌────────────────────────────────────────────┐
//!                 │ worker pool (W threads, none for a         │
//!                 │ forwarding backend): Qbs::submit, encode   │
//!                 │ response, hand bytes back                  │
//!                 └────────────────────────────────────────────┘
//! ```
//!
//! The reactor owns all connection state: the handshake (one dialect —
//! an older hello is refused with a typed fault), each connection's
//! [`crate::poll::Pipe`] (its unparsed and unsent bytes; every read and
//! write goes through it), and the out-of-order completion path — a
//! worker finishes a batch, pushes the encoded response, and wakes the
//! reactor through [`crate::poll::WakePipe`]; the reactor writes it
//! whenever that socket drains. There is one batch path: every admitted
//! batch of an executing backend runs on the worker pool, whatever its
//! size or mode, so one slow query never stalls the reactor's I/O. A
//! reply the reactor makes itself (the handshake, control frames, sheds,
//! faults) is written in the turn that made it. Idle connections cost one
//! pollfd entry, not a thread.
//!
//! A backend that forwards instead of executing (the router) returns a
//! [`Forward`] from [`ServeBackend::forwarder`]: admitted batches are
//! then handed to it as bytes ([`ForwardJob`]), never decoded, `Metrics`
//! frames and scrapes as [`MetricsJob`]s, and its upstream sockets join
//! the reactor's poll set, so a routed batch costs no thread hop at all
//! and the server starts no worker for it.
//!
//! Ordering: connections pipeline freely; responses carry the request's
//! ID and may arrive in any order. A client may half-close after its
//! last request: replies to in-flight jobs still flush, then the server
//! closes its side.
//!
//! Faults: only a broken envelope (or an oversized frame length) breaks
//! the request/response pairing and closes the connection. Everything
//! else — an undecodable body, an unknown tag, a reply over the frame
//! cap, a job that panicked — is answered with a typed `Error` under the
//! request's own ID, and the connection, the worker and the server
//! survive.
//!
//! Admission ([`crate::admission`]) gates everything: connections are
//! only shed at the configured connection bound (idle sockets park), and
//! the in-flight request semaphore bounds work across all sockets. Shed
//! work is answered with a typed `Busy` frame, never a hang; a shed
//! connection gets its `Busy` on the reactor once the peer's preamble
//! arrives, then closes as a faulted connection does.
//!
//! Shutdown is graceful from either direction — a `Shutdown` frame or
//! [`ServerHandle::shutdown`] (which the CLI wires to SIGINT): the
//! reactor stops accepting and reading, in-flight batches complete and
//! their responses are flushed (bounded by a drain deadline), and
//! `shutdown` joins the reactor and every worker before returning, so
//! the process can unmap the index file cleanly.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qbs_core::obs::saturating_ns;
use qbs_core::wire::RequestId;
use qbs_core::{
    Metrics, MetricsSnapshot, Qbs, QueryOutcome, QueryRequest, Stage, StageNanos, TraceId,
};

use crate::admission::{Admission, AdmissionConfig, BusyReason, ConnectionGuard, InflightGuard};
use crate::poll::{self, Fill, Pipe, PollFd, WakePipe, POLLIN};
use crate::protocol::{
    self, fault_code, ProtocolError, RequestFrame, ResponseFrame, WireFault, MAX_FRAME_LEN,
    PREAMBLE_LEN, PROTOCOL_MAGIC, REQUEST_LEN,
};

/// Reactor poll timeout — the backstop cadence for shutdown-flag checks
/// and linger deadlines when no I/O or wake arrives.
const POLL_TIMEOUT_MS: i32 = 100;

/// How often [`ServerHandle::wait`] re-checks the shutdown latch.
const WAIT_POLL: Duration = Duration::from_millis(100);

/// Size of the reactor's shared read scratch buffer.
const READ_CHUNK: usize = 64 * 1024;

/// How long the listener sits out of the poll set after a transient
/// accept failure (EMFILE under a connection flood, ...). The listener
/// fd stays readable until the backlog drains, so re-polling it
/// immediately would spin the reactor at 100% CPU; a short pause turns
/// that into a bounded retry cadence.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// How long a faulted connection lingers (draining the peer's bytes so
/// the queued fault frame survives the close) before being dropped.
const FAULT_LINGER: Duration = Duration::from_millis(500);

/// How long shutdown waits for a connection to flush its in-flight
/// responses before force-dropping it.
const SHUTDOWN_LINGER: Duration = Duration::from_secs(5);

/// Configuration of a [`QbsServer`] — built fluently and shared by the
/// CLI, tests and benches:
///
/// ```
/// use qbs_server::ServerConfig;
/// let config = ServerConfig::bind("127.0.0.1:0").workers(8).max_batch(256);
/// ```
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads executing admitted batches. This bounds concurrent
    /// *execution*, not connections — the reactor parks any number of
    /// idle sockets (up to [`AdmissionConfig::max_connections`]) without
    /// consuming a thread.
    pub workers: usize,
    /// Admission bounds (in-flight requests, batch size, connections).
    pub admission: AdmissionConfig,
    /// Optional second listener serving Prometheus-style
    /// `GET /metrics` over plain HTTP (an ops port, outside admission).
    pub metrics_addr: Option<String>,
    /// Batches whose execution takes at least this long are written to
    /// the slow-query log (one structured stderr line with the trace ID
    /// and per-stage breakdown). `None` disables the log.
    pub slow_query: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            admission: AdmissionConfig::default(),
            metrics_addr: None,
            slow_query: None,
        }
    }
}

impl ServerConfig {
    /// Starts a config bound to `addr` (the rest defaulted).
    pub fn bind(addr: impl Into<String>) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            ..ServerConfig::default()
        }
    }

    /// Sets the worker-pool size (clamped to at least 1 at start).
    pub fn workers(mut self, workers: usize) -> ServerConfig {
        self.workers = workers;
        self
    }

    /// Replaces the whole admission configuration.
    pub fn admission(mut self, admission: AdmissionConfig) -> ServerConfig {
        self.admission = admission;
        self
    }

    /// Sets the in-flight request bound.
    pub fn max_inflight(mut self, max_inflight: usize) -> ServerConfig {
        self.admission.max_inflight = max_inflight;
        self
    }

    /// Sets the per-batch request cap.
    pub fn max_batch(mut self, max_batch: usize) -> ServerConfig {
        self.admission.max_batch = max_batch;
        self
    }

    /// Sets the served-connection bound.
    pub fn max_connections(mut self, max_connections: usize) -> ServerConfig {
        self.admission.max_connections = max_connections;
        self
    }

    /// Serves `GET /metrics` (Prometheus text format) on a second
    /// listener at `addr`.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> ServerConfig {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Logs batches whose execution takes at least `threshold` to the
    /// slow-query log on stderr.
    pub fn slow_query(mut self, threshold: Duration) -> ServerConfig {
        self.slow_query = Some(threshold);
        self
    }
}

/// The shutdown latch shared by the reactor, the workers, and external
/// triggers (the CLI's SIGINT handler, the `Shutdown` protocol frame).
/// The reactor polls with a bounded timeout against this flag, so a
/// trigger never depends on being able to dial the server's own address.
#[derive(Debug)]
pub struct ShutdownSignal {
    flag: AtomicBool,
}

impl ShutdownSignal {
    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Requests shutdown. Idempotent; observed by the reactor within its
    /// poll timeout.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

/// What the reactor serves: the thing that turns an admitted batch into
/// outcomes. [`Qbs`] is the canonical backend (a replica serving one
/// mmap'd index), executing batches on the worker pool. The routing tier
/// instead returns a [`Forward`] from [`ServeBackend::forwarder`]: the
/// reactor then hands it every admitted batch as bytes and every
/// `Metrics` request, and drives its replica connections in its own poll
/// loop, reusing the handshake, admission, pipelining and drain unchanged.
pub trait ServeBackend: Send + Sync + std::fmt::Debug + 'static {
    /// Executes a batch under a trace ID: one outcome per request slot,
    /// plus the batch's aggregate per-stage wall time (all zeros when the
    /// backend does not instrument). A backend with a
    /// [`ServeBackend::forwarder`] never receives a batch here; the
    /// default answers every slot `Unavailable`.
    fn execute(
        &self,
        requests: &[QueryRequest],
        trace: TraceId,
    ) -> (Vec<QueryOutcome>, StageNanos) {
        let _ = trace;
        let reason = "this backend forwards batches and executes none".to_string();
        let unavailable = QueryOutcome::Error(qbs_core::RequestError::Unavailable { reason });
        (vec![unavailable; requests.len()], StageNanos::default())
    }

    /// The forward hook. A backend that answers batches by forwarding
    /// their bytes elsewhere (the router) returns the [`Forward`] the
    /// reactor drives; `wake` interrupts the reactor's poll when something
    /// off-thread (a finished dial) needs a turn. Called once, at start.
    fn forwarder(self: Arc<Self>, wake: Arc<WakePipe>) -> Option<Box<dyn Forward>> {
        let _ = wake;
        None
    }

    /// The backend's telemetry (the `Metrics` frame's payload, to which
    /// the server appends its admission counters): by default its
    /// registry's. A backend with a forwarder answers the frame through
    /// [`Forward::metrics`] instead; this is then its own part alone.
    fn snapshot(&self) -> MetricsSnapshot {
        self.obs().map(Metrics::snapshot).unwrap_or_default()
    }

    /// The live metrics registry, when the backend has one — lets the
    /// serving tier record reactor/worker-side stages (queue wait, wire
    /// encode) into the same histograms the execution stages land in.
    fn obs(&self) -> Option<&Metrics> {
        None
    }
}

/// An admitted `Batch` frame the reactor hands, undecoded, to a
/// [`Forward`]. Holding it holds the batch's admission permit: the
/// reactor drops it only once the reply is queued.
#[derive(Debug)]
pub struct ForwardJob {
    token: u64,
    id: RequestId,
    trace: TraceId,
    peer: SocketAddr,
    /// The frame payload: envelope, tag, count, then the requests.
    payload: Vec<u8>,
    _permit: InflightGuard,
}

/// Where a forwarded frame's requests start in its payload: the
/// envelope, the tag, the `u32` count.
const REQUESTS_AT: usize = 12 + 1 + 4;

impl ForwardJob {
    /// The client's trace ID, to stamp on every forwarded piece.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The batch's requests, encoded, [`REQUEST_LEN`] bytes each; a
    /// contiguous range of them is a sub-batch.
    pub fn requests(&self) -> &[u8] {
        &self.payload[REQUESTS_AT..]
    }

    /// Number of requests (slots) in the batch.
    pub fn len(&self) -> usize {
        self.requests().len() / REQUEST_LEN
    }

    /// Whether the batch holds no request.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the client's reply frame under the batch's own envelope:
    /// [`ForwardJob::len`] outcomes, whose encodings `outcomes` appends in
    /// slot order.
    pub fn reply(&self, outcomes: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        protocol::batch_reply_frame(self.id, self.trace, self.len(), outcomes)
    }
}

/// A `Metrics` frame or `GET /metrics` scrape the reactor hands to a
/// [`Forward`], which hands it back with the telemetry that answers it.
#[derive(Debug)]
pub struct MetricsJob {
    token: u64,
    id: RequestId,
    trace: TraceId,
}

/// What a [`Forward`] hands back to the reactor.
#[derive(Debug)]
pub enum Forwarded {
    /// A forwarded batch's reply, ready to queue.
    Batch {
        /// The batch it answers (its permit is released once queued).
        job: ForwardJob,
        /// The complete reply frame, from [`ForwardJob::reply`].
        frame: Vec<u8>,
        /// From the first forwarded byte to the last reply spliced: the
        /// routing tier's `execute` stage.
        exec: Duration,
        /// Time spent building `frame`: the `wire_encode` stage.
        encode: Duration,
    },
    /// The telemetry answering a [`MetricsJob`]; the reactor appends its
    /// admission counters.
    Metrics {
        /// The request it answers.
        job: MetricsJob,
        /// The forwarder's gathered telemetry.
        snapshot: MetricsSnapshot,
    },
}

/// A batch path the reactor drives on its own thread: a backend that
/// forwards admitted batches over nonblocking connections it owns (the
/// router) instead of executing them on the worker pool. Every call is
/// made from the reactor thread and must not block.
pub trait Forward: Send {
    /// Takes one admitted batch and starts forwarding it.
    fn submit(&mut self, job: ForwardJob);

    /// Takes one `Metrics` frame or scrape and starts gathering the
    /// telemetry that answers it.
    fn metrics(&mut self, job: MetricsJob);

    /// Appends the descriptors to wait on this turn.
    fn register(&mut self, fds: &mut Vec<PollFd>);

    /// One reactor turn: `fds` are the entries [`Forward::register`]
    /// appended, with poll's results. Pushes every batch and
    /// [`MetricsJob`] answered since the last turn onto `done`.
    fn turn(&mut self, fds: &[PollFd], done: &mut Vec<Forwarded>);
}

impl ServeBackend for Qbs {
    fn execute(
        &self,
        requests: &[QueryRequest],
        _trace: TraceId,
    ) -> (Vec<QueryOutcome>, StageNanos) {
        self.submit_observed(requests)
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics_snapshot()
    }

    fn obs(&self) -> Option<&Metrics> {
        Some(self.metrics())
    }
}

/// Namespace for starting servers (see [`QbsServer::start`]).
pub struct QbsServer;

impl QbsServer {
    /// Binds `config.addr` and starts serving `qbs` — returns immediately
    /// with a handle owning the reactor and worker threads.
    pub fn start(qbs: Arc<Qbs>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        QbsServer::start_with_backend(qbs, config)
    }

    /// Binds `config.addr` and starts serving an arbitrary
    /// [`ServeBackend`] — the generalisation the `qbs-router` crate
    /// builds on. Everything protocol-facing (handshake, framing,
    /// admission, pipelining, graceful drain) is identical to
    /// [`QbsServer::start`].
    pub fn start_with_backend(
        backend: Arc<dyn ServeBackend>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let metrics_listener = match &config.metrics_addr {
            Some(metrics_addr) => {
                let l = TcpListener::bind(metrics_addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let slow_query = config.slow_query;
        let signal = Arc::new(ShutdownSignal {
            flag: AtomicBool::new(false),
        });
        let admission = Arc::new(Admission::new(config.admission));
        let wake = Arc::new(WakePipe::new()?);
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let forward = Arc::clone(&backend).forwarder(Arc::clone(&wake));
        // A forwarder takes every batch: nothing would reach a worker.
        let worker_count = if forward.is_some() {
            0
        } else {
            config.workers.max(1)
        };
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));

        let workers: Vec<JoinHandle<()>> = (0..worker_count)
            .map(|i| {
                let backend = Arc::clone(&backend);
                let rx = Arc::clone(&jobs_rx);
                let completions = Arc::clone(&completions);
                let wake = Arc::clone(&wake);
                std::thread::Builder::new()
                    .name(format!("qbs-worker-{i}"))
                    .spawn(move || worker_loop(&*backend, &rx, &completions, &wake, slow_query))
                    .expect("spawn worker thread")
            })
            .collect();

        let reactor = {
            let backend = Arc::clone(&backend);
            let admission = Arc::clone(&admission);
            let signal = Arc::clone(&signal);
            let wake = Arc::clone(&wake);
            let completions = Arc::clone(&completions);
            std::thread::Builder::new()
                .name("qbs-reactor".to_string())
                .spawn(move || {
                    reactor_loop(
                        listener,
                        metrics_listener,
                        &*backend,
                        &admission,
                        &signal,
                        &wake,
                        &completions,
                        Offload {
                            jobs: jobs_tx,
                            dispatched: 0,
                            forward,
                        },
                        slow_query,
                    )
                })
                .expect("spawn reactor thread")
        };

        Ok(ServerHandle {
            addr,
            metrics_addr,
            signal,
            admission,
            backend,
            wake,
            reactor: Some(reactor),
            workers,
        })
    }
}

/// A running server: owns its threads, joins them on
/// [`ServerHandle::shutdown`] or drop.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    signal: Arc<ShutdownSignal>,
    admission: Arc<Admission>,
    backend: Arc<dyn ServeBackend>,
    wake: Arc<WakePipe>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address of the HTTP `/metrics` listener, when configured
    /// (resolves port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The shutdown latch — share it with a signal handler or watchdog;
    /// [`ShutdownSignal::trigger`] from anywhere initiates the same
    /// graceful drain as a `Shutdown` protocol frame.
    pub fn signal(&self) -> Arc<ShutdownSignal> {
        Arc::clone(&self.signal)
    }

    /// The served backend (shared with every worker).
    pub fn backend(&self) -> &Arc<dyn ServeBackend> {
        &self.backend
    }

    /// Number of reactor threads — always exactly 1, independent of how
    /// many connections are parked (the bench artifact records this).
    pub fn reactor_threads(&self) -> usize {
        1
    }

    /// Number of worker threads executing batches (none for a backend
    /// with a forwarder).
    pub fn worker_threads(&self) -> usize {
        self.workers.len()
    }

    /// The server's telemetry — the value a `Metrics` frame returns,
    /// less what a forwarder gathers for one (a router's replicas).
    pub fn snapshot(&self) -> MetricsSnapshot {
        snapshot(&*self.backend, &self.admission)
    }

    /// The admission controller (its counters, without the backend's).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Triggers shutdown (idempotent), drains in-flight batches, joins the
    /// reactor and every worker, and returns once the server is fully
    /// torn down — after this the process holds no serving threads and can
    /// drop the session (unmapping the index) safely.
    pub fn shutdown(&mut self) {
        self.signal.trigger();
        self.wake.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor owned the job sender; with it joined, workers drain
        // the queued jobs and exit their recv loop.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // All workers are joined, so this returns immediately; it is the
        // documented invariant (no in-flight work survives shutdown).
        self.admission.drain();
    }

    /// Blocks until the shutdown latch flips (a `Shutdown` frame arrived
    /// or [`ShutdownSignal::trigger`] was called elsewhere), then tears the
    /// server down as [`ServerHandle::shutdown`] does.
    pub fn wait(mut self) {
        while !self.signal.is_shutdown() {
            std::thread::sleep(WAIT_POLL);
        }
        self.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An admitted batch travelling from the reactor to a worker.
struct Job {
    token: u64,
    id: RequestId,
    /// Trace ID from the request's envelope, carried into the slow-query
    /// log.
    trace: TraceId,
    /// Peer address, for the slow-query log.
    peer: SocketAddr,
    /// When the reactor queued the job — the queue-wait stage clock.
    enqueued: Instant,
    requests: Vec<QueryRequest>,
    permit: InflightGuard,
}

/// An encoded response travelling back from a worker to the reactor.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
}

/// Worker thread body: execute jobs, encode, hand back, wake.
fn worker_loop(
    backend: &dyn ServeBackend,
    rx: &Mutex<Receiver<Job>>,
    completions: &Mutex<Vec<Completion>>,
    wake: &WakePipe,
    slow_query: Option<Duration>,
) {
    loop {
        let job = {
            let rx = rx.lock().expect("job channel poisoned");
            rx.recv()
        };
        let Ok(job) = job else {
            break; // reactor gone, queue drained
        };
        let (token, id, trace) = (job.token, job.id, job.trace);
        let bytes = contain(backend, || run_job(backend, slow_query, job))
            .unwrap_or_else(|fault| wire_response(id, trace, &ResponseFrame::Error(fault)));
        completions
            .lock()
            .expect("completion queue poisoned")
            .push(Completion { token, bytes });
        wake.wake();
    }
}

/// Runs one job body with panics contained: a panic in the backend
/// becomes a typed code-6 fault for the caller to send under the
/// request's own ID (and a bump of the registry's panic counter) instead
/// of a dead thread, a reply that never comes, and an in-flight count
/// that never returns to zero. Values the body owned — the admission
/// permit — are dropped by the unwind.
fn contain<T>(backend: &dyn ServeBackend, body: impl FnOnce() -> T) -> Result<T, WireFault> {
    catch_unwind(AssertUnwindSafe(body)).map_err(|_| {
        if let Some(m) = backend.obs() {
            m.inc_job_panics();
        }
        WireFault {
            code: fault_code::INTERNAL,
            message: "the job answering this request panicked".to_string(),
        }
    })
}

/// Executes one admitted batch and encodes its reply under the request's
/// envelope. Every admitted batch of a backend that executes runs here:
/// it records its queue wait, and its slow-query line when execution
/// crosses the configured threshold.
fn run_job(backend: &dyn ServeBackend, slow_query: Option<Duration>, job: Job) -> Vec<u8> {
    let queue_wait = job.enqueued.elapsed();
    if let Some(m) = backend.obs() {
        m.record_batch_stage(Stage::QueueWait, queue_wait);
    }
    let t_exec = Instant::now();
    let (outcomes, stages) = backend.execute(&job.requests, job.trace);
    let batch = SlowBatch {
        peer: job.peer,
        trace: job.trace,
        len: job.requests.len(),
        queue_wait,
        exec: t_exec.elapsed(),
    };
    batch.log_if_slow(backend, slow_query, &stages);
    // Release the permits before the response is queued — execution is
    // what the in-flight bound meters.
    drop(job.permit);
    let t_encode = Instant::now();
    let bytes = wire_response(job.id, job.trace, &ResponseFrame::Batch(outcomes));
    if let Some(m) = backend.obs() {
        m.record_batch_stage(Stage::WireEncode, t_encode.elapsed());
    }
    bytes
}

/// What the slow-query log says about one batch.
struct SlowBatch {
    peer: SocketAddr,
    trace: TraceId,
    len: usize,
    queue_wait: Duration,
    exec: Duration,
}

impl SlowBatch {
    /// Writes the batch's slow-query line when its execute span meets the
    /// threshold: one parseable line per offender, a constant prefix,
    /// then `key=value` fields only (greppable by trace ID in CI).
    fn log_if_slow(
        &self,
        backend: &dyn ServeBackend,
        slow_query: Option<Duration>,
        stages: &StageNanos,
    ) {
        if slow_query.is_none_or(|threshold| self.exec < threshold) {
            return;
        }
        if let Some(m) = backend.obs() {
            m.inc_slow_queries();
        }
        eprintln!(
            "qbs-slow-query peer={} trace={} batch={} queue_us={} exec_us={} {}",
            self.peer,
            self.trace,
            self.len,
            self.queue_wait.as_micros(),
            self.exec.as_micros(),
            stages.render_us(),
        );
    }
}

/// Encodes a response frame into on-the-wire bytes (length prefix
/// included) under `id`'s envelope.
fn wire_response(id: RequestId, trace: TraceId, frame: &ResponseFrame) -> Vec<u8> {
    capped(
        id,
        trace,
        protocol::encode_frame(id, trace, |out| frame.encode_body_into(out)),
    )
}

/// Passes a complete response frame through, unless it encodes past the
/// frame cap (a huge admitted batch of path-graph answers): that one is
/// downgraded to a typed `Error` carrying the request's ID. The client
/// sees code 4 for that ticket and can split the batch; the connection
/// survives.
fn capped(id: RequestId, trace: TraceId, frame: Vec<u8>) -> Vec<u8> {
    let len = frame.len() - 4;
    if len <= MAX_FRAME_LEN as usize {
        return frame;
    }
    let fault = ResponseFrame::Error(WireFault {
        code: fault_code::FRAME_TOO_LARGE,
        message: format!(
            "encoded response ({len} bytes) exceeds the {MAX_FRAME_LEN}-byte frame cap; \
             split the batch"
        ),
    });
    protocol::encode_frame(id, trace, |out| fault.encode_body_into(out))
}

/// What the reactor still does with a connection's inbound bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReadMode {
    /// Parsing frames normally.
    Frames,
    /// Consuming and discarding (a fault is queued; draining the peer so
    /// the close cannot reset the unread fault frame).
    Discard,
    /// Not reading (peer EOF, or server shutdown).
    Stopped,
}

/// Per-connection reactor state.
struct Conn {
    pipe: Pipe,
    /// Peer address, for the slow-query log.
    peer: SocketAddr,
    /// The admission slot, or why the connection bound refused one: such
    /// a connection is answered `Busy` once the peer greets, then closed.
    slot: Result<ConnectionGuard, BusyReason>,
    /// Whether the client's preamble has arrived and been answered.
    greeted: bool,
    /// Jobs at the workers or the forwarder and not yet answered.
    inflight: usize,
    mode: ReadMode,
    /// Finish outstanding work, flush, then close.
    closing: bool,
    /// Force-drop time once closing (fault linger / shutdown drain).
    deadline: Option<Instant>,
    /// Socket error or final close decision — reap this connection.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, slot: Result<ConnectionGuard, BusyReason>) -> Conn {
        let peer = stream
            .peer_addr()
            .unwrap_or_else(|_| SocketAddr::from(([0, 0, 0, 0], 0)));
        // A refused peer that never greets is dropped after the linger.
        let deadline = slot.is_err().then(|| Instant::now() + FAULT_LINGER);
        Conn {
            pipe: Pipe::new(stream),
            peer,
            slot,
            greeted: false,
            inflight: 0,
            mode: ReadMode::Frames,
            closing: false,
            deadline,
            dead: false,
        }
    }

    /// Whether every queued and in-flight piece of work has been written.
    fn flushed(&self) -> bool {
        !self.pipe.pending() && self.inflight == 0
    }

    /// Queues a reply and writes what the socket takes.
    fn send(&mut self, bytes: Vec<u8>) {
        self.pipe.queue(bytes);
        self.dead |= !self.pipe.flush();
    }

    /// Queues a fatal, connection-scoped fault (see [`Conn::close_with`]).
    fn fault_close(&mut self, code: u8, message: String) {
        self.close_with(&ResponseFrame::Error(WireFault { code, message }));
    }

    /// Queues a last, connection-scoped frame: it goes out, inbound bytes
    /// are drained (not parsed) for a bounded linger, then the socket
    /// closes.
    fn close_with(&mut self, frame: &ResponseFrame) {
        self.pipe
            .queue(wire_response(RequestId::CONNECTION, TraceId::NONE, frame));
        self.mode = ReadMode::Discard;
        self.closing = true;
        self.deadline = Some(Instant::now() + FAULT_LINGER);
    }
}

/// Immutable context shared by the reactor's helper functions.
struct Ctx<'a> {
    backend: &'a dyn ServeBackend,
    admission: &'a Arc<Admission>,
    signal: &'a ShutdownSignal,
    slow_query: Option<Duration>,
}

/// Where the reactor sends work it does not finish in the turn that
/// started it: worker jobs, and the forwarder's batches and polls.
struct Offload {
    jobs: Sender<Job>,
    /// Worker jobs and forwarded batches and polls not yet answered.
    dispatched: usize,
    forward: Option<Box<dyn Forward>>,
}

impl Offload {
    /// Hands a job to the worker pool; its completion decrements the
    /// count again.
    fn dispatch(&mut self, job: Job) {
        self.dispatched += 1;
        let _ = self.jobs.send(job);
    }

    /// Hands a `Metrics` request to the forwarder, if there is one (the
    /// router gathers its replicas' telemetry): `false` when the reactor
    /// answers it itself.
    fn forward_metrics(&mut self, job: MetricsJob) -> bool {
        let Some(forward) = self.forward.as_mut() else {
            return false;
        };
        self.dispatched += 1;
        forward.metrics(job);
        true
    }
}

/// The reactor thread body.
#[allow(clippy::too_many_arguments)]
fn reactor_loop(
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    backend: &dyn ServeBackend,
    admission: &Arc<Admission>,
    signal: &ShutdownSignal,
    wake: &WakePipe,
    completions: &Mutex<Vec<Completion>>,
    mut offload: Offload,
    slow_query: Option<Duration>,
) {
    let ctx = Ctx {
        backend,
        admission,
        signal,
        slow_query,
    };
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    // HTTP `/metrics` connections, sharing the token space with `conns`
    // so forwarded `Metrics` answers route by whichever map owns the
    // token.
    let mut https: HashMap<u64, HttpConn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut forwarded: Vec<Forwarded> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut shutdown_seen = false;
    let mut accept_pause: Option<Instant> = None;
    let listener_fd = poll::listener_fd(&listener);
    let metrics_fd = metrics_listener.as_ref().map(poll::listener_fd);

    loop {
        if signal.is_shutdown() && !shutdown_seen {
            shutdown_seen = true;
            // Stop reading everywhere; outstanding work flushes under a
            // bounded drain deadline.
            let deadline = Instant::now() + SHUTDOWN_LINGER;
            for conn in conns.values_mut() {
                conn.mode = ReadMode::Stopped;
                conn.closing = true;
                let conn_deadline = conn.deadline.get_or_insert(deadline);
                *conn_deadline = (*conn_deadline).min(deadline);
            }
            // The ops port drains like everything else, bounded by the
            // same deadline.
            for http in https.values_mut() {
                http.deadline.get_or_insert(deadline);
            }
        }
        if shutdown_seen && conns.is_empty() && https.is_empty() && offload.dispatched == 0 {
            break;
        }

        // Build the poll set: wake pipe, listeners (while accepting), then
        // one entry per connection, aligned with `order` / `horder`.
        let mut fds = Vec::with_capacity(3 + conns.len() + https.len());
        fds.push(wake.poll_fd());
        // During an accept backoff the listener is left out of the poll
        // set entirely: its fd stays readable while the backlog is
        // nonempty, so polling it before the pause expires would return
        // instantly and spin.
        let accept_paused = accept_pause.is_some_and(|until| Instant::now() < until);
        let listener_slot = if shutdown_seen || accept_paused {
            None
        } else {
            accept_pause = None;
            fds.push(PollFd::new(listener_fd, POLLIN));
            Some(fds.len() - 1)
        };
        let metrics_slot = match metrics_fd {
            Some(fd) if !shutdown_seen => {
                fds.push(PollFd::new(fd, POLLIN));
                Some(fds.len() - 1)
            }
            _ => None,
        };
        let base = fds.len();
        let order: Vec<u64> = conns.keys().copied().collect();
        for conn in order.iter().map(|token| &conns[token]) {
            fds.push(conn.pipe.poll_fd(conn.mode != ReadMode::Stopped));
        }
        let hbase = fds.len();
        let horder: Vec<u64> = https.keys().copied().collect();
        for http in horder.iter().map(|token| &https[token]) {
            fds.push(http.pipe.poll_fd(!http.responded));
        }
        let fbase = fds.len();
        if let Some(forward) = offload.forward.as_mut() {
            forward.register(&mut fds);
        }

        if poll::poll(&mut fds, POLL_TIMEOUT_MS).is_err() {
            // EBADF and friends are reactor bugs; back off rather than
            // spin so the process stays debuggable.
            std::thread::sleep(Duration::from_millis(10));
        }

        if fds[0].readable() {
            wake.drain();
        }

        // Out-of-order completions: enqueue each response on its
        // connection and try to write it immediately.
        let done: Vec<Completion> = {
            let mut queue = completions.lock().expect("completion queue poisoned");
            std::mem::take(&mut *queue)
        };
        for completion in done {
            offload.dispatched -= 1;
            let Some(conn) = conns.get_mut(&completion.token) else {
                continue; // connection died while the batch executed
            };
            conn.inflight -= 1;
            conn.send(completion.bytes);
        }

        if let Some(slot) = listener_slot {
            if fds[slot].readable() {
                accept_pause = accept_new(&listener, &ctx, &mut conns, &mut next_token);
            }
        }
        if let (Some(slot), Some(l)) = (metrics_slot, metrics_listener.as_ref()) {
            if fds[slot].readable() {
                accept_http(l, &mut https, &mut next_token);
            }
        }

        for (i, token) in order.iter().enumerate() {
            let Some(conn) = conns.get_mut(token) else {
                continue;
            };
            let fd = fds[base + i];
            if fd.readable() && conn.mode != ReadMode::Stopped {
                conn_read(&ctx, conn, *token, &mut scratch, &mut offload);
            }
            if fd.writable() && conn.pipe.pending() {
                conn.dead |= !conn.pipe.flush();
            }
        }
        for (i, token) in horder.iter().enumerate() {
            let Some(http) = https.get_mut(token) else {
                continue;
            };
            let fd = fds[hbase + i];
            if fd.readable() && !http.responded {
                http_read(&ctx, http, *token, &mut scratch, &mut offload);
            }
            if fd.writable() && http.pipe.pending() {
                http.dead |= !http.pipe.flush();
            }
        }

        // The forwarder's turn comes after the reads, so batches submitted
        // this turn that finish at once are answered this turn too.
        if let Some(forward) = offload.forward.as_mut() {
            forward.turn(&fds[fbase..], &mut forwarded);
        }
        for reply in forwarded.drain(..) {
            offload.dispatched -= 1;
            deliver_forwarded(&ctx, &mut conns, &mut https, reply);
        }

        // Reap finished and expired connections.
        let now = Instant::now();
        conns.retain(|_, conn| {
            if conn.dead {
                return false;
            }
            if conn.closing && conn.flushed() {
                // Everything delivered. For Discard-mode (faulted)
                // connections the periodic read path has been draining
                // the peer; with the write queue empty the close is now
                // an orderly FIN.
                let _ = conn.pipe.stream().shutdown(std::net::Shutdown::Write);
                return false;
            }
            if let Some(deadline) = conn.deadline {
                if now >= deadline {
                    return false; // drain budget exhausted: force drop
                }
            }
            true
        });
        https.retain(|_, http| {
            if http.dead {
                return false;
            }
            // `responded` alone is not enough: a forwarded `/metrics`
            // request sets it before the forwarder answers —
            // reap only once the response is queued and fully written.
            if http.queued && !http.pipe.pending() {
                // Response delivered in full; `Connection: close`.
                let _ = http.pipe.stream().shutdown(std::net::Shutdown::Write);
                return false;
            }
            if let Some(deadline) = http.deadline {
                if now >= deadline {
                    return false;
                }
            }
            true
        });
    }
}

/// Queues and writes what the forwarder answered. A batch first records
/// its routing-tier stages (and its slow-query line); its admission
/// permit goes with the job, before the reactor reads again. A `Metrics`
/// answer gains the admission counters and goes out as a frame or, for
/// a scrape, as the HTTP response.
fn deliver_forwarded(
    ctx: &Ctx<'_>,
    conns: &mut HashMap<u64, Conn>,
    https: &mut HashMap<u64, HttpConn>,
    reply: Forwarded,
) {
    let (token, bytes) = match reply {
        Forwarded::Batch {
            job,
            frame,
            exec,
            encode,
        } => {
            if let Some(m) = ctx.backend.obs() {
                m.record_batch_stage(Stage::Execute, exec);
                m.record_batch_stage(Stage::WireEncode, encode);
            }
            let mut stages = StageNanos::default();
            stages.set(Stage::Execute, saturating_ns(exec));
            let batch = SlowBatch {
                peer: job.peer,
                trace: job.trace,
                len: job.len(),
                queue_wait: Duration::ZERO,
                exec,
            };
            batch.log_if_slow(ctx.backend, ctx.slow_query, &stages);
            (job.token, capped(job.id, job.trace, frame))
        }
        Forwarded::Metrics { job, mut snapshot } => {
            ctx.admission.snapshot_into(&mut snapshot);
            if let Some(http) = https.get_mut(&job.token) {
                return http.respond(http_ok(&snapshot.render_prometheus()));
            }
            let frame = ResponseFrame::Metrics(snapshot);
            (job.token, wire_response(job.id, job.trace, &frame))
        }
    };
    let Some(conn) = conns.get_mut(&token) else {
        return; // connection died while the forwarder worked
    };
    conn.inflight -= 1;
    conn.send(bytes);
}

/// Cap on parked `/metrics` connections — the ops port serves one probe
/// at a time per scraper, so a handful is plenty; a flood is dropped at
/// accept.
const MAX_HTTP_CONNS: usize = 32;

/// Cap on an HTTP request head (`GET /metrics` plus headers).
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// How long an HTTP connection may sit without completing its request.
const HTTP_DEADLINE: Duration = Duration::from_secs(10);

/// Per-connection state of the `/metrics` HTTP listener.
struct HttpConn {
    pipe: Pipe,
    /// The response is queued (or dispatched); stop reading.
    responded: bool,
    /// The response is queued: close once it is written.
    queued: bool,
    /// Force-drop time.
    deadline: Option<Instant>,
    dead: bool,
}

impl HttpConn {
    /// Queues the complete response and writes what the socket takes.
    fn respond(&mut self, response: Vec<u8>) {
        (self.responded, self.queued) = (true, true);
        self.pipe.queue(response);
        self.dead |= !self.pipe.flush();
    }
}

/// Accepts pending `/metrics` connections (outside admission — it is an
/// ops port; the cap bounds it instead).
fn accept_http(listener: &TcpListener, https: &mut HashMap<u64, HttpConn>, next_token: &mut u64) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => break, // WouldBlock or transient: next poll retries
        };
        if https.len() >= MAX_HTTP_CONNS || stream.set_nonblocking(true).is_err() {
            continue; // dropped; the scraper retries
        }
        *next_token += 1;
        https.insert(
            *next_token,
            HttpConn {
                pipe: Pipe::new(stream),
                responded: false,
                queued: false,
                deadline: Some(Instant::now() + HTTP_DEADLINE),
                dead: false,
            },
        );
    }
}

/// Reads an HTTP request head; answers `GET /metrics` with the
/// Prometheus rendering (inline, or through the forwarder when there is
/// one) and anything else with a 404.
fn http_read(
    ctx: &Ctx<'_>,
    http: &mut HttpConn,
    token: u64,
    scratch: &mut [u8],
    offload: &mut Offload,
) {
    let head_end = loop {
        let fill = http.pipe.fill(scratch);
        if matches!(fill, Fill::Eof | Fill::Broken) {
            http.dead = true;
            return;
        }
        if http.pipe.input().len() > MAX_HTTP_HEAD {
            return http.respond(http_error(431, "Request Header Fields Too Large"));
        }
        if let Some(head_end) = find_head_end(http.pipe.input()) {
            break head_end;
        }
        if fill == Fill::Drained {
            return;
        }
    };
    let (get, metrics) = {
        let head = String::from_utf8_lossy(&http.pipe.input()[..head_end]);
        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
        (
            parts.next() == Some("GET"),
            parts.next() == Some("/metrics"),
        )
    };
    if !get {
        http.respond(http_error(405, "Method Not Allowed"));
    } else if !metrics {
        http.respond(http_error(404, "Not Found"));
    } else if offload.forward_metrics(MetricsJob {
        token,
        id: RequestId::CONNECTION,
        trace: TraceId::NONE,
    }) {
        http.responded = true;
    } else {
        http.respond(http_ok(
            &snapshot(ctx.backend, ctx.admission).render_prometheus(),
        ));
    }
}

/// Finds the end of the request head (the byte after `\r\n\r\n`).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Builds a `200 OK` HTTP response around a Prometheus text body.
fn http_ok(body: &str) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Builds an HTTP error response.
fn http_error(code: u16, reason: &str) -> Vec<u8> {
    format!("HTTP/1.1 {code} {reason}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
        .into_bytes()
}

/// The `Metrics` frame's payload: the backend's snapshot plus this
/// server's admission counters.
fn snapshot(backend: &dyn ServeBackend, admission: &Admission) -> MetricsSnapshot {
    let mut snapshot = backend.snapshot();
    admission.snapshot_into(&mut snapshot);
    snapshot
}

/// Cap on refused connections waiting to be told `Busy`; refusals beyond
/// it are closed outright — under a flood, bounded resources beat
/// delivering every courtesy reply.
const MAX_REFUSING: usize = 8;

/// Accepts every connection the backlog holds; admits or refuses each.
/// Returns the instant until which the reactor should stop polling the
/// listener (set after a transient accept error such as EMFILE — the fd
/// stays readable, so an immediate re-poll would spin).
fn accept_new(
    listener: &TcpListener,
    ctx: &Ctx<'_>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) -> Option<Instant> {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            // Transient (EMFILE under a connection flood, ...): back the
            // listener off for a beat, then retry — never spin.
            Err(_) => return Some(Instant::now() + ACCEPT_BACKOFF),
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        let slot = ctx.admission.admit_connection();
        if slot.is_err() && conns.values().filter(|c| c.slot.is_err()).count() >= MAX_REFUSING {
            continue; // flood regime: close without the courtesy frame
        }
        *next_token += 1;
        conns.insert(*next_token, Conn::new(stream, slot));
    }
    None
}

/// Reads chunk by chunk, handling each chunk's frames before the next
/// read, so a pipelining client's bytes never pile up unparsed.
fn conn_read(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    token: u64,
    scratch: &mut [u8],
    offload: &mut Offload,
) {
    while conn.mode != ReadMode::Stopped {
        let fill = conn.pipe.fill(scratch);
        if conn.mode == ReadMode::Frames {
            process_rbuf(ctx, conn, token, offload);
            // Replies this turn made (handshake, control frames, sheds,
            // faults) go out now, not after one more poll-set rebuild.
            conn.dead |= !conn.pipe.flush();
        } else {
            // Discard mode: bytes vanish; the linger deadline bounds how
            // long a firehosing peer keeps the socket alive.
            conn.pipe.consume(conn.pipe.input().len());
        }
        match fill {
            Fill::Data => {}
            Fill::Drained => break,
            Fill::Eof => {
                // Peer finished sending. Keep the connection until its
                // outstanding responses flush (a pipelining client may
                // half-close after its last request), then close. The
                // deadline is a backstop, not the expected path: it
                // guarantees the connection is reaped — releasing its
                // slot and any queued work — even if the flush stalls,
                // and bounds the instant-wakeup poll ticks a fully
                // closed peer's POLLHUP would otherwise cause forever.
                conn.mode = ReadMode::Stopped;
                conn.closing = true;
                conn.deadline
                    .get_or_insert(Instant::now() + SHUTDOWN_LINGER);
            }
            Fill::Broken => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Parses everything complete in the read buffer: the handshake first,
/// then frames.
fn process_rbuf(ctx: &Ctx<'_>, conn: &mut Conn, token: u64, offload: &mut Offload) {
    if !conn.greeted {
        let Some(hello) = conn.pipe.input().first_chunk::<PREAMBLE_LEN>() else {
            return;
        };
        if hello[..4] != PROTOCOL_MAGIC {
            // The byte stream cannot be trusted for framing; close.
            conn.dead = true;
            return;
        }
        let theirs = u16::from_le_bytes([hello[4], hello[5]]);
        conn.pipe.consume(PREAMBLE_LEN);
        let mut preamble = Vec::with_capacity(PREAMBLE_LEN);
        let _ = protocol::write_preamble(&mut preamble);
        conn.pipe.queue(preamble);
        if let Err(reason) = conn.slot {
            // Over the connection bound: our preamble, the typed refusal,
            // then close.
            return conn.close_with(&ResponseFrame::Busy(reason));
        }
        if protocol::negotiate(theirs).is_none() {
            // An older dialect: answer with our preamble and a typed
            // fault, then close.
            conn.fault_close(
                fault_code::VERSION_MISMATCH,
                format!(
                    "server speaks protocol version {} only, client sent {theirs}",
                    protocol::PROTOCOL_VERSION
                ),
            );
            return;
        }
        conn.greeted = true;
    }

    while conn.mode == ReadMode::Frames {
        match conn.pipe.next_frame() {
            Ok(Some(payload)) => handle_frame(ctx, conn, token, payload, offload),
            Ok(None) => return,
            Err(len) => conn.fault_close(
                fault_code::FRAME_TOO_LARGE,
                format!("frame length {len} exceeds the cap"),
            ),
        }
    }
}

/// Decodes and dispatches one complete frame payload.
fn handle_frame(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    token: u64,
    payload: Vec<u8>,
    offload: &mut Offload,
) {
    let (id, trace, body) = match protocol::split_envelope(&payload) {
        Ok((id, trace, body)) if !id.is_connection_scoped() => (id, trace, body),
        // A truncated envelope (or the reserved ID) breaks the
        // request/response pairing: connection-scoped fault.
        _ => {
            conn.fault_close(
                fault_code::MALFORMED,
                "frame carried no usable request envelope".to_string(),
            );
            return;
        }
    };

    // A forwarding backend takes batches as bytes: walked, never decoded.
    let walked = match &mut offload.forward {
        Some(forward) => protocol::batch_requests(body).map(|walk| (forward, walk)),
        None => None,
    };
    let decoded = match walked {
        Some((forward, Ok(requests))) => {
            match ctx.admission.admit_batch(requests.len() / REQUEST_LEN) {
                Ok(permit) => {
                    conn.inflight += 1;
                    offload.dispatched += 1;
                    forward.submit(ForwardJob {
                        token,
                        id,
                        trace,
                        peer: conn.peer,
                        payload,
                        _permit: permit,
                    });
                }
                Err(reason) => queue_reply(conn, id, trace, &ResponseFrame::Busy(reason)),
            }
            return;
        }
        Some((_, Err(err))) => Err(err),
        None => RequestFrame::decode_body(body),
    };
    match decoded {
        Ok(frame) => execute_frame(ctx, conn, token, id, trace, frame, offload),
        Err(err) => {
            let fault = match &err {
                ProtocolError::UnknownTag(tag) => WireFault {
                    code: fault_code::UNKNOWN_TAG,
                    message: format!("unknown request tag {tag:#04x}"),
                },
                other => WireFault {
                    code: fault_code::MALFORMED,
                    message: other.to_string(),
                },
            };
            // Framing is intact (the length prefix consumed the whole
            // frame): fault the request, keep the connection.
            queue_reply(conn, id, trace, &ResponseFrame::Error(fault));
        }
    }
}

/// Executes a frame: control frames on the reactor, batches on the
/// workers, a router's `Metrics` through its forwarder.
fn execute_frame(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    token: u64,
    id: RequestId,
    trace: TraceId,
    frame: RequestFrame,
    offload: &mut Offload,
) {
    match frame {
        RequestFrame::Batch(requests) => match ctx.admission.admit_batch(requests.len()) {
            Ok(permit) => {
                // Its completion decrements both counts again.
                conn.inflight += 1;
                offload.dispatch(Job {
                    token,
                    id,
                    trace,
                    peer: conn.peer,
                    enqueued: Instant::now(),
                    requests,
                    permit,
                });
            }
            Err(reason) => queue_reply(conn, id, trace, &ResponseFrame::Busy(reason)),
        },
        RequestFrame::Metrics => {
            if offload.forward_metrics(MetricsJob { token, id, trace }) {
                conn.inflight += 1;
            } else {
                let snapshot = snapshot(ctx.backend, ctx.admission);
                queue_reply(conn, id, trace, &ResponseFrame::Metrics(snapshot));
            }
        }
        RequestFrame::Ping => queue_reply(conn, id, trace, &ResponseFrame::Pong),
        RequestFrame::Shutdown => {
            // Flip the latch before acking, so a client that saw the ack
            // can rely on the drain having begun. Frames the client
            // pipelined behind the Shutdown are never read.
            ctx.signal.trigger();
            queue_reply(conn, id, trace, &ResponseFrame::ShutdownAck);
            conn.mode = ReadMode::Stopped;
            conn.closing = true;
        }
    }
}

/// Encodes a reply and queues it; the read that made it flushes it.
fn queue_reply(conn: &mut Conn, id: RequestId, trace: TraceId, frame: &ResponseFrame) {
    conn.pipe.queue(wire_response(id, trace, frame));
}
