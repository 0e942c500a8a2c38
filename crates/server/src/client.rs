//! The blocking client library for the framed TCP protocol, with a
//! pipelined surface.
//!
//! A [`QbsClient`] holds one connection: `connect` performs the
//! magic+version handshake (a server older than
//! [`protocol::PROTOCOL_VERSION`] is a local
//! [`ProtocolError::VersionMismatch`]), after which batches travel two
//! ways:
//!
//! * **One-shot**: [`QbsClient::submit`] ships a batch and blocks for its
//!   reply (`send` + `recv`).
//! * **Pipelined**: [`QbsClient::send`] ships a batch and returns a
//!   [`Ticket`] immediately; any number of batches can be in flight, and
//!   [`QbsClient::recv`] blocks for one ticket's reply. The server
//!   executes them concurrently and answers in *completion* order — the
//!   client re-pairs replies to tickets by request ID, so tickets may be
//!   redeemed in any order.
//!
//! Outcomes are bit-identical to what a local [`qbs_core::Qbs::submit`]
//! over the same index would produce, whatever the ordering.
//! Admission shedding is a first-class reply ([`BatchReply::Busy`]), not
//! an error: the connection stays healthy and the caller decides whether
//! to retry.
//!
//! ```no_run
//! use qbs_core::QueryRequest;
//! use qbs_server::{BatchReply, QbsClient};
//!
//! let mut client = QbsClient::connect("127.0.0.1:7411").unwrap();
//! // Pipelined: both batches are on the wire before either reply.
//! let a = client.send(&[QueryRequest::distance(6, 11)]).unwrap();
//! let b = client.send(&[QueryRequest::path_graph(2, 9)]).unwrap();
//! match client.recv(b).unwrap() {
//!     BatchReply::Outcomes(outcomes) => println!("{:?}", outcomes[0].distance()),
//!     BatchReply::Busy(reason) => eprintln!("shed: {reason}"),
//! }
//! let _ = client.recv(a).unwrap();
//! ```

use std::collections::{HashMap, VecDeque};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use qbs_core::wire::RequestId;
use qbs_core::{MetricsSnapshot, QueryOutcome, QueryRequest, TraceId};

use crate::admission::BusyReason;
use crate::protocol::{self, ProtocolError, RequestFrame, ResponseFrame};

/// Reply to one submitted batch.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchReply {
    /// Per-request outcomes, in input order.
    Outcomes(Vec<QueryOutcome>),
    /// The server shed the batch; retry later on the same connection.
    Busy(BusyReason),
}

impl BatchReply {
    /// The outcomes, when the batch was admitted.
    pub fn outcomes(&self) -> Option<&[QueryOutcome]> {
        match self {
            BatchReply::Outcomes(outcomes) => Some(outcomes),
            BatchReply::Busy(_) => None,
        }
    }

    /// The shed reason, when the batch was refused.
    pub fn busy(&self) -> Option<&BusyReason> {
        match self {
            BatchReply::Busy(reason) => Some(reason),
            BatchReply::Outcomes(_) => None,
        }
    }
}

/// Claim on one in-flight batch, issued by [`QbsClient::send`] and
/// redeemed (once) by [`QbsClient::recv`]. Tickets from the same
/// connection may be redeemed in any order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(RequestId);

impl Ticket {
    /// The wire-level request ID this ticket rides on.
    pub fn request_id(&self) -> RequestId {
        self.0
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket {}", self.0)
    }
}

/// Configuration of a [`QbsClient`] — built fluently and shared by the
/// CLI, tests and benches:
///
/// ```
/// use std::time::Duration;
/// use qbs_server::ClientConfig;
/// let config = ClientConfig::default()
///     .connect_timeout(Duration::from_millis(250))
///     .io_timeout(Duration::from_secs(5));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Socket read/write timeout for established-connection operations.
    pub io_timeout: Duration,
    /// Bound on **one** dial + handshake attempt. This is what keeps a
    /// single unresponsive accept (a server mid-start, a half-open
    /// listener) from eating the whole retry budget of
    /// [`QbsClient::connect_retry`].
    pub connect_timeout: Duration,
    /// Initial pause between [`QbsClient::connect_retry`] attempts. Each
    /// failed attempt doubles the pause (up to
    /// [`ClientConfig::retry_backoff_max`]), and the actual sleep is
    /// *jittered* — drawn uniformly from `[pause/2, pause]` — so a fleet
    /// of clients reconnecting to a restarted replica spreads out instead
    /// of hammering the listener in lockstep.
    pub retry_backoff: Duration,
    /// Cap on the exponential backoff growth.
    pub retry_backoff_max: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            io_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
            retry_backoff: Duration::from_millis(10),
            retry_backoff_max: Duration::from_millis(500),
        }
    }
}

impl ClientConfig {
    /// Sets the per-operation socket timeout.
    pub fn io_timeout(mut self, io_timeout: Duration) -> ClientConfig {
        self.io_timeout = io_timeout;
        self
    }

    /// Sets the per-attempt dial + handshake bound.
    pub fn connect_timeout(mut self, connect_timeout: Duration) -> ClientConfig {
        self.connect_timeout = connect_timeout;
        self
    }

    /// Sets the initial retry pause (doubled per failed attempt).
    pub fn retry_backoff(mut self, retry_backoff: Duration) -> ClientConfig {
        self.retry_backoff = retry_backoff;
        self
    }

    /// Sets the backoff growth cap.
    pub fn retry_backoff_max(mut self, retry_backoff_max: Duration) -> ClientConfig {
        self.retry_backoff_max = retry_backoff_max;
        self
    }
}

/// One step of the retry pacing: the jittered sleep for the current
/// backoff (uniform in `[backoff/2, backoff]` — equal jitter keeps a
/// minimum pacing while desynchronising a reconnect storm) and the next,
/// doubled-and-capped backoff.
fn backoff_step(backoff: Duration, cap: Duration, rng: &mut u64) -> (Duration, Duration) {
    let micros = backoff.as_micros().min(u128::from(u64::MAX)) as u64;
    let half = micros / 2;
    let sleep = Duration::from_micros(half + xorshift(rng) % (micros - half + 1));
    let next = backoff.saturating_mul(2).min(cap.max(backoff));
    (sleep, next)
}

/// `xorshift64` — a tiny full-period PRNG; statistical quality is beside
/// the point here, distinct streams per process are all jitter needs.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Seeds the jitter stream from the wall clock and the process ID, so
/// simultaneously restarted clients still draw different sequences.
/// Never zero (the xorshift fixed point).
fn jitter_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    let pid = u64::from(std::process::id());
    ((nanos << 20) ^ (pid << 8) ^ nanos) | 1
}

/// A blocking connection to a `qbs-server`.
#[derive(Debug)]
pub struct QbsClient {
    stream: TcpStream,
    /// Remembered dial target for [`QbsClient::reconnect`].
    addr: String,
    config: ClientConfig,
    /// Last issued request ID (tickets and control frames share the
    /// counter; 0 is reserved for connection-scoped frames).
    last_id: RequestId,
    /// IDs of requests written and not yet answered, in wire order —
    /// guards against redeeming a ticket that was never issued.
    outstanding: VecDeque<RequestId>,
    /// Replies that arrived while waiting for a different ID.
    stash: HashMap<RequestId, ResponseFrame>,
    /// PRNG state for per-send trace IDs.
    trace_rng: u64,
    /// Caller-pinned trace ID; when set, every frame carries it verbatim
    /// instead of a generated one.
    pinned_trace: Option<TraceId>,
    /// Trace ID stamped on the most recent frame written.
    last_trace: TraceId,
}

impl QbsClient {
    /// Connects with [`ClientConfig::default`] and performs the protocol
    /// handshake.
    pub fn connect(addr: &str) -> Result<QbsClient, ProtocolError> {
        QbsClient::connect_with(addr, ClientConfig::default())
    }

    /// Connects under an explicit configuration. The dial *and* the
    /// handshake are bounded by [`ClientConfig::connect_timeout`]; once
    /// the preambles have been exchanged the socket switches to
    /// [`ClientConfig::io_timeout`].
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<QbsClient, ProtocolError> {
        let target = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| -> ProtocolError {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{addr}: no usable socket address"),
                )
                .into()
            })?;
        let stream = TcpStream::connect_timeout(&target, config.connect_timeout)?;
        stream.set_nodelay(true).ok();
        // The handshake runs under the connect budget: a server that
        // accepted but never answers costs one attempt, not io_timeout.
        stream.set_read_timeout(Some(config.connect_timeout))?;
        stream.set_write_timeout(Some(config.connect_timeout))?;
        let mut client = QbsClient {
            stream,
            addr: addr.to_string(),
            config,
            last_id: RequestId::CONNECTION,
            outstanding: VecDeque::new(),
            stash: HashMap::new(),
            trace_rng: jitter_seed(),
            pinned_trace: None,
            last_trace: TraceId::NONE,
        };
        protocol::write_preamble(&mut client.stream)?;
        // A server announcing anything older than our version is a
        // `VersionMismatch` here; a newer one speaks ours.
        protocol::read_preamble(&mut client.stream)?;
        client.stream.set_read_timeout(Some(config.io_timeout))?;
        client.stream.set_write_timeout(Some(config.io_timeout))?;
        Ok(client)
    }

    /// Connects with bounded retries, ping-verifying the connection is
    /// actually being served. This is how well-behaved clients absorb the
    /// retryable refusals — a server still starting, or a connection shed
    /// under a flood — instead of treating them as hard failures. Each
    /// individual attempt is additionally bounded by
    /// [`ClientConfig::connect_timeout`], so one hung accept or stalled
    /// handshake cannot consume the whole budget.
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<QbsClient, ProtocolError> {
        QbsClient::connect_retry_with(addr, timeout, ClientConfig::default())
    }

    /// [`QbsClient::connect_retry`] under an explicit configuration.
    /// Failed attempts are paced by jittered exponential backoff
    /// ([`ClientConfig::retry_backoff`] doubling up to
    /// [`ClientConfig::retry_backoff_max`], each sleep drawn uniformly
    /// from the upper half of the current pause) — a fixed cadence would
    /// synchronise every client of a restarted replica into one thundering
    /// herd, re-shedding each other on the exact same beat.
    pub fn connect_retry_with(
        addr: &str,
        timeout: Duration,
        config: ClientConfig,
    ) -> Result<QbsClient, ProtocolError> {
        let deadline = Instant::now() + timeout;
        let mut rng = jitter_seed();
        let mut backoff = config.retry_backoff.max(Duration::from_millis(1));
        loop {
            // Clip the attempt budget to what remains of the total, so
            // the last attempt cannot overshoot the caller's deadline.
            let remaining = deadline.saturating_duration_since(Instant::now());
            let attempt_config = config.connect_timeout(
                config
                    .connect_timeout
                    .min(remaining.max(Duration::from_millis(1))),
            );
            let attempt = QbsClient::connect_with(addr, attempt_config).and_then(|mut client| {
                client.ping()?;
                // The handshake ran under the clipped budget; remember
                // the caller's configuration for reconnects.
                client.config = config;
                Ok(client)
            });
            match attempt {
                Ok(client) => return Ok(client),
                Err(err) if Instant::now() >= deadline => return Err(err),
                Err(_) => {
                    let (sleep, next) = backoff_step(backoff, config.retry_backoff_max, &mut rng);
                    backoff = next;
                    // Never sleep past the caller's deadline; the final
                    // clipped attempt above then fails fast and returns.
                    std::thread::sleep(
                        sleep.min(deadline.saturating_duration_since(Instant::now())),
                    );
                }
            }
        }
    }

    /// Drops the current connection and dials the same address again —
    /// the recovery path after an [`ProtocolError::Io`] (server restart,
    /// idle timeout, network blip). In-flight tickets die with the old
    /// connection.
    pub fn reconnect(&mut self) -> Result<(), ProtocolError> {
        let pinned = self.pinned_trace;
        *self = QbsClient::connect_with(&self.addr, self.config)?;
        self.pinned_trace = pinned;
        Ok(())
    }

    /// The address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Pins the trace ID stamped on every subsequent frame, instead of a
    /// fresh one per send — how the CLI's
    /// `--trace-id` makes a request findable in a replica's slow-query
    /// log. Pass [`TraceId::NONE`] via a fresh client to return to
    /// generated traces.
    pub fn set_trace(&mut self, trace: TraceId) {
        self.pinned_trace = Some(trace);
    }

    /// The trace ID carried by the most recently written frame
    /// ([`TraceId::NONE`] before any send).
    pub fn last_trace(&self) -> TraceId {
        self.last_trace
    }

    /// Stamps the trace for the next frame: the pinned ID when set,
    /// otherwise a freshly generated one (never [`TraceId::NONE`], which
    /// is reserved for untraced traffic).
    fn next_trace(&mut self) -> TraceId {
        let trace = match self.pinned_trace {
            Some(pinned) => pinned,
            None => TraceId(xorshift(&mut self.trace_rng) | 1),
        };
        self.last_trace = trace;
        trace
    }

    /// Number of sent-but-unredeemed tickets (and unanswered control
    /// frames) on the wire.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len() + self.stash.len()
    }

    /// Ships a batch without waiting for its reply and returns the
    /// [`Ticket`] to redeem with [`QbsClient::recv`]. Any number of
    /// batches can be pipelined; the server executes them concurrently
    /// and the replies may complete out of order.
    pub fn send(&mut self, requests: &[QueryRequest]) -> Result<Ticket, ProtocolError> {
        let trace = self.next_trace();
        self.send_traced(requests, trace)
    }

    /// [`QbsClient::send`] under an explicit trace ID — how a router
    /// propagates the client's trace onto every scattered sub-batch, so
    /// one slow request is findable in the replica's slow-query log too.
    pub fn send_traced(
        &mut self,
        requests: &[QueryRequest],
        trace: TraceId,
    ) -> Result<Ticket, ProtocolError> {
        let id = self.issue_id();
        self.last_trace = trace;
        let frame = protocol::encode_frame(id, trace, |out| {
            protocol::encode_batch_body_into(requests, out)
        });
        protocol::write_encoded(&mut self.stream, &frame)?;
        self.outstanding.push_back(id);
        Ok(Ticket(id))
    }

    /// Blocks until `ticket`'s reply is available and returns it. Replies
    /// for *other* tickets read along the way are stashed and returned by
    /// their own `recv` calls — redeem in any order.
    ///
    /// [`BatchReply::Busy`] is reserved for *batch-level* sheds, where the
    /// connection genuinely stays usable; a `Busy` frame carrying a
    /// connection-level reason (the connection was refused at accept time
    /// and this is its queued farewell) surfaces as
    /// [`ProtocolError::Shed`] instead — retrying on this socket would
    /// only hit a closed connection.
    pub fn recv(&mut self, ticket: Ticket) -> Result<BatchReply, ProtocolError> {
        match self.await_reply(ticket.0)? {
            ResponseFrame::Batch(outcomes) => Ok(BatchReply::Outcomes(outcomes)),
            ResponseFrame::Busy(reason @ BusyReason::TooManyConnections { .. }) => {
                Err(ProtocolError::Shed(reason))
            }
            ResponseFrame::Busy(reason) => Ok(BatchReply::Busy(reason)),
            other => Err(unexpected(other)),
        }
    }

    /// Submits a batch and blocks for its reply (`send` + `recv`);
    /// outcomes arrive in input order and are bit-identical to a local
    /// `Qbs::submit` over the same index.
    pub fn submit(&mut self, requests: &[QueryRequest]) -> Result<BatchReply, ProtocolError> {
        let ticket = self.send(requests)?;
        self.recv(ticket)
    }

    /// Fetches the server's telemetry snapshot: the engine, cache,
    /// admission (and, from a router, routing and per-replica) counters
    /// plus the per-stage, per-mode latency histograms. A router folds in
    /// every available replica's snapshot.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ProtocolError> {
        match self.control(&RequestFrame::Metrics)? {
            ResponseFrame::Metrics(snapshot) => Ok(snapshot),
            ResponseFrame::Busy(reason) => Err(busy_error(reason)),
            other => Err(unexpected(other)),
        }
    }

    /// Round-trip liveness probe; returns the measured latency.
    pub fn ping(&mut self) -> Result<Duration, ProtocolError> {
        let start = Instant::now();
        match self.control(&RequestFrame::Ping)? {
            ResponseFrame::Pong => Ok(start.elapsed()),
            ResponseFrame::Busy(reason) => Err(busy_error(reason)),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to drain in-flight batches and exit; returns once
    /// the drain has been acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), ProtocolError> {
        match self.control(&RequestFrame::Shutdown)? {
            ResponseFrame::ShutdownAck => Ok(()),
            ResponseFrame::Busy(reason) => Err(busy_error(reason)),
            other => Err(unexpected(other)),
        }
    }

    /// Allocates the next request ID (skipping the reserved 0).
    fn issue_id(&mut self) -> RequestId {
        self.last_id = self.last_id.next();
        self.last_id
    }

    /// Writes a control frame and blocks for its own reply, stashing any
    /// pipelined batch replies that arrive first.
    fn control(&mut self, frame: &RequestFrame) -> Result<ResponseFrame, ProtocolError> {
        let id = self.issue_id();
        let trace = self.next_trace();
        protocol::write_request(&mut self.stream, id, trace, frame)?;
        self.outstanding.push_back(id);
        self.await_reply(id)
    }

    /// Blocks until the reply for `want` is available, reading (and
    /// stashing) replies for other outstanding requests along the way.
    fn await_reply(&mut self, want: RequestId) -> Result<ResponseFrame, ProtocolError> {
        loop {
            if let Some(frame) = self.stash.remove(&want) {
                return self.resolve(frame);
            }
            if !self.outstanding.contains(&want) {
                return Err(ProtocolError::UnknownTicket(want));
            }
            let (id, _trace, frame) = protocol::read_response(&mut self.stream)?;
            if id.is_connection_scoped() {
                // Connection-scoped frames (faults, accept-time Busy)
                // concern the socket, not one request: fail now.
                return self.resolve(frame);
            }
            self.outstanding.retain(|&o| o != id);
            if id == want {
                return self.resolve(frame);
            }
            self.stash.insert(id, frame);
        }
    }

    /// Final per-frame triage: a typed fault becomes an error.
    fn resolve(&mut self, frame: ResponseFrame) -> Result<ResponseFrame, ProtocolError> {
        match frame {
            ResponseFrame::Error(fault) => Err(ProtocolError::Remote(fault)),
            frame => Ok(frame),
        }
    }
}

fn unexpected(frame: ResponseFrame) -> ProtocolError {
    ProtocolError::UnexpectedFrame(match frame {
        ResponseFrame::Batch(_) => "batch",
        ResponseFrame::Metrics(_) => "metrics",
        ResponseFrame::Pong => "pong",
        ResponseFrame::ShutdownAck => "shutdown-ack",
        ResponseFrame::Busy(_) => "busy",
        ResponseFrame::Error(_) => "error",
    })
}

/// A `Busy` reply to a control frame (metrics/ping/shutdown). The protocol
/// never sheds control frames, so this only occurs when the *connection*
/// was refused at accept time and the queued `Busy` is the first frame
/// read back.
fn busy_error(reason: BusyReason) -> ProtocolError {
    ProtocolError::Shed(reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_the_cap_and_jitters_in_the_upper_half() {
        let cap = Duration::from_millis(80);
        let mut rng = jitter_seed();
        let mut backoff = Duration::from_millis(10);
        let mut seen = Vec::new();
        for _ in 0..8 {
            let (sleep, next) = backoff_step(backoff, cap, &mut rng);
            assert!(
                sleep >= backoff / 2 && sleep <= backoff,
                "jittered sleep {sleep:?} outside [{:?}, {backoff:?}]",
                backoff / 2
            );
            seen.push(backoff);
            backoff = next;
        }
        assert_eq!(
            &seen[..4],
            &[
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
                Duration::from_millis(80)
            ]
        );
        assert!(seen[4..].iter().all(|&b| b == cap), "backoff exceeded cap");
    }

    #[test]
    fn backoff_cap_below_initial_never_shrinks_the_pause() {
        // A cap accidentally configured below the initial pause must not
        // collapse the cadence to zero.
        let mut rng = 42;
        let (_, next) = backoff_step(
            Duration::from_millis(50),
            Duration::from_millis(10),
            &mut rng,
        );
        assert_eq!(next, Duration::from_millis(50));
    }

    #[test]
    fn jitter_streams_diverge() {
        let mut a = 1u64;
        let mut b = 2u64;
        let draws_a: Vec<u64> = (0..4).map(|_| xorshift(&mut a)).collect();
        let draws_b: Vec<u64> = (0..4).map(|_| xorshift(&mut b)).collect();
        assert_ne!(draws_a, draws_b);
        assert_ne!(jitter_seed(), 0);
    }
}
