//! The router process: the `qbs-server` reactor front-end wired to a
//! [`RouterBackend`] over a [`ReplicaPool`].
//!
//! A router is one thread, its reactor, with one connection per replica.
//! The backend's forward hook hands the reactor a forwarder
//! (`scatter.rs`), which cuts each admitted batch into byte ranges,
//! pipelines them to the replicas over the connections it owns, and
//! splices the replies back into one frame. The same connections carry
//! the health probes (a `Ping` to every available replica each
//! [`RouterConfig::probe_interval`]) and the routed `Metrics` polls (a
//! `Metrics` frame or `GET /metrics` asks every available replica once).
//! The server starts no worker thread for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qbs_core::{counter, Metrics, MetricsSnapshot};
use qbs_server::poll::WakePipe;
use qbs_server::{
    AdmissionConfig, ClientConfig, Forward, QbsServer, ServeBackend, ServerConfig, ServerHandle,
    ShutdownSignal,
};

use crate::pool::{HealthConfig, ReplicaPool};
use crate::scatter::Scatter;

/// How often [`RouterHandle::wait`] re-checks the shutdown latch.
const WAIT_POLL: Duration = Duration::from_millis(100);

/// Configuration of a [`QbsRouter`] — built fluently like
/// [`ServerConfig`]:
///
/// ```
/// use qbs_router::RouterConfig;
/// let config = RouterConfig::bind("127.0.0.1:0")
///     .replica("127.0.0.1:7411")
///     .replica("127.0.0.1:7412")
///     .max_retries(1);
/// ```
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address of the router's own listener; port 0 picks an
    /// ephemeral port.
    pub addr: String,
    /// Admission bounds on the router's own listener.
    pub admission: AdmissionConfig,
    /// Backend replica addresses (`host:port` of `qbs serve` processes).
    pub replicas: Vec<String>,
    /// Client configuration for every replica connection. The default
    /// shortens `connect_timeout` to 1s: a dead replica should cost the
    /// serve path one bounded dial, not the stock 5s. `io_timeout` is
    /// the deadline of each frame sent to a replica: a sub-batch, a
    /// probe or a poll.
    pub client: ClientConfig,
    /// Ejection/backoff knobs.
    pub health: HealthConfig,
    /// Cadence of the health probes: a `Ping` to every available replica
    /// on its batch connection, the first as the router starts.
    pub probe_interval: Duration,
    /// How many *additional* replicas a sub-batch may be retried onto
    /// after its first pick fails or sheds. Bounds the ping-pong of a
    /// batch that every replica refuses.
    pub max_retries: usize,
    /// Smallest sub-batch worth scattering: a batch of `n` requests is
    /// split across at most `n / min_split` replicas (always at least
    /// one), so tiny batches do not pay per-replica round-trip overhead
    /// for a handful of microsecond queries.
    pub min_split: usize,
    /// Bind address for the router's own HTTP `GET /metrics` listener
    /// (`None` disables it), passed through to the inner server.
    pub metrics_addr: Option<String>,
    /// Slow-query log threshold on routed batches (`None` disables the
    /// log), passed through to the inner server.
    pub slow_query: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            admission: AdmissionConfig::default(),
            replicas: Vec::new(),
            client: ClientConfig::default().connect_timeout(Duration::from_secs(1)),
            health: HealthConfig::default(),
            probe_interval: Duration::from_millis(500),
            max_retries: 2,
            min_split: 8,
            metrics_addr: None,
            slow_query: None,
        }
    }
}

impl RouterConfig {
    /// Starts a config bound to `addr` (the rest defaulted).
    pub fn bind(addr: impl Into<String>) -> RouterConfig {
        RouterConfig {
            addr: addr.into(),
            ..RouterConfig::default()
        }
    }

    /// Appends one backend replica address.
    pub fn replica(mut self, addr: impl Into<String>) -> RouterConfig {
        self.replicas.push(addr.into());
        self
    }

    /// Replaces the replica list.
    pub fn replicas(mut self, replicas: Vec<String>) -> RouterConfig {
        self.replicas = replicas;
        self
    }

    /// Does nothing: a router runs on its reactor thread alone, so there
    /// is no pool to size. Kept only for callers that still set it; it
    /// will be removed.
    pub fn workers(self, _workers: usize) -> RouterConfig {
        self
    }

    /// Replaces the router's own admission configuration.
    pub fn admission(mut self, admission: AdmissionConfig) -> RouterConfig {
        self.admission = admission;
        self
    }

    /// Replaces the replica-side client configuration.
    pub fn client(mut self, client: ClientConfig) -> RouterConfig {
        self.client = client;
        self
    }

    /// Replaces the health/ejection knobs.
    pub fn health(mut self, health: HealthConfig) -> RouterConfig {
        self.health = health;
        self
    }

    /// Sets the health-probe cadence.
    pub fn probe_interval(mut self, probe_interval: Duration) -> RouterConfig {
        self.probe_interval = probe_interval;
        self
    }

    /// Sets the per-sub-batch retry bound.
    pub fn max_retries(mut self, max_retries: usize) -> RouterConfig {
        self.max_retries = max_retries;
        self
    }

    /// Sets the smallest sub-batch worth scattering.
    pub fn min_split(mut self, min_split: usize) -> RouterConfig {
        self.min_split = min_split;
        self
    }

    /// Enables the HTTP `GET /metrics` listener on `addr`.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> RouterConfig {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Logs routed batches that take at least `threshold` to the
    /// slow-query log on stderr.
    pub fn slow_query(mut self, threshold: Duration) -> RouterConfig {
        self.slow_query = Some(threshold);
        self
    }
}

/// The router's [`ServeBackend`]: batches, probes and `Metrics` polls
/// all go through its forward hook (a forwarder on the reactor thread).
#[derive(Debug)]
pub struct RouterBackend {
    pool: ReplicaPool,
    pub(crate) max_retries: usize,
    pub(crate) min_split: usize,
    pub(crate) probe_interval: Duration,
    pub(crate) batches_routed: AtomicU64,
    pub(crate) subbatches: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) unavailable_slots: AtomicU64,
    /// Routing-tier latency registry (the batch-slot execute and wire
    /// encode stages) — merged with replica snapshots on a `Metrics`
    /// frame.
    metrics: Metrics,
}

impl RouterBackend {
    fn new(pool: ReplicaPool, config: &RouterConfig) -> RouterBackend {
        RouterBackend {
            pool,
            max_retries: config.max_retries,
            min_split: config.min_split.max(1),
            probe_interval: config.probe_interval,
            batches_routed: AtomicU64::new(0),
            subbatches: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            unavailable_slots: AtomicU64::new(0),
            metrics: Metrics::new(),
        }
    }

    /// The replica pool.
    pub fn pool(&self) -> &ReplicaPool {
        &self.pool
    }

    /// The router's own telemetry, polling no replica: its routing-tier
    /// histograms, the routing counters and every replica's counters.
    pub fn local_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        for (def, counter) in [
            (counter::ROUTED_BATCHES, &self.batches_routed),
            (counter::SUBBATCHES, &self.subbatches),
            (counter::ROUTER_RETRIES, &self.retries),
            (counter::UNAVAILABLE_SLOTS, &self.unavailable_slots),
        ] {
            snap.push(def, counter.load(Ordering::SeqCst));
        }
        for replica in self.pool.replicas() {
            replica.snapshot_into(&mut snap);
        }
        snap
    }
}

impl ServeBackend for RouterBackend {
    /// Scatter/gather, on the reactor thread. Each batch is split into
    /// contiguous sub-batches — one per healthy replica the batch is
    /// large enough to occupy (see [`RouterConfig::min_split`]) — sent
    /// before any reply is read, and spliced back in slot order. Outcomes
    /// are bit-identical to a single `Qbs::submit` over the same index:
    /// every replica serves the same index, sub-batches preserve request
    /// order, and per-slot errors ride along untouched.
    fn forwarder(self: Arc<Self>, wake: Arc<WakePipe>) -> Option<Box<dyn Forward>> {
        Some(Box::new(Scatter::new(self, wake)))
    }

    /// The router's own part of a `Metrics` answer: the forwarder folds
    /// one snapshot from every available replica into it.
    fn snapshot(&self) -> MetricsSnapshot {
        self.local_snapshot()
    }

    fn obs(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }
}

/// Namespace for starting routers (see [`QbsRouter::start`]).
pub struct QbsRouter;

impl QbsRouter {
    /// Binds `config.addr` and starts routing — returns immediately with
    /// a handle owning the reactor thread.
    pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
        if config.replicas.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one --replica",
            ));
        }
        let pool = ReplicaPool::new(config.replicas.clone(), config.client, config.health);
        let backend = Arc::new(RouterBackend::new(pool, &config));
        let mut server_config = ServerConfig::bind(config.addr.clone()).admission(config.admission);
        if let Some(addr) = &config.metrics_addr {
            server_config = server_config.metrics_addr(addr.clone());
        }
        if let Some(threshold) = config.slow_query {
            server_config = server_config.slow_query(threshold);
        }
        let server = QbsServer::start_with_backend(
            Arc::clone(&backend) as Arc<dyn ServeBackend>,
            server_config,
        )?;
        Ok(RouterHandle { server, backend })
    }
}

/// A running router: owns the reactor thread (via the inner
/// [`ServerHandle`]) and joins it on [`RouterHandle::shutdown`] or drop.
#[derive(Debug)]
pub struct RouterHandle {
    server: ServerHandle,
    backend: Arc<RouterBackend>,
}

impl RouterHandle {
    /// The address the router actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// The address of the HTTP `/metrics` listener, when configured.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.metrics_addr()
    }

    /// The shutdown latch — share it with a signal handler; triggering
    /// it initiates the same graceful drain as a `Shutdown` frame.
    pub fn signal(&self) -> Arc<ShutdownSignal> {
        self.server.signal()
    }

    /// The scatter/gather backend (pool access for tests and tools).
    pub fn backend(&self) -> &Arc<RouterBackend> {
        &self.backend
    }

    /// The router's own counters and admission, polling no replica.
    pub fn local_snapshot(&self) -> MetricsSnapshot {
        self.server.snapshot()
    }

    /// Drains in-flight routed batches, joins the reactor, and returns
    /// once the router is fully torn down.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }

    /// Blocks until the shutdown latch flips (a `Shutdown` frame arrived
    /// or the signal was triggered elsewhere), then tears down.
    pub fn wait(mut self) {
        let signal = self.server.signal();
        while !signal.is_shutdown() {
            std::thread::sleep(WAIT_POLL);
        }
        self.shutdown();
    }
}
