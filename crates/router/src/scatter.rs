//! Scatter/gather on the router's reactor thread.
//!
//! [`Scatter`] is the [`Forward`] the `qbs-server` reactor drives for a
//! router. It owns one nonblocking, pipelined connection per replica, the
//! router's only one, and never decodes a request or an outcome on the
//! normal path:
//!
//! 1. an admitted batch arrives as bytes ([`ForwardJob::requests`], a
//!    fixed [`REQUEST_LEN`] bytes per request) and is cut into contiguous
//!    sub-batches, each a byte range;
//! 2. each range goes to the least-loaded replica under a fresh upstream
//!    request ID carrying the client's trace ID, written at once;
//! 3. each reply is walked without allocating
//!    ([`protocol::sort_batch_reply`]) and its outcome bytes kept;
//! 4. once every range is answered, the kept bytes are spliced in slot
//!    order behind one count and the frame goes back under the client's
//!    own request ID.
//!
//! A failed, `Busy`, slot-count-mismatched or undecodable sub-reply, a
//! connection that breaks, and a shipment that outlives its deadline
//! ([`ClientConfig::io_timeout`], checked every reactor turn) are all
//! retried on a replica the range has not tried yet, up to
//! `max_retries` more; a range out of candidates is answered with typed
//! `Unavailable` outcomes. Health demerits fall as they always have:
//! every failed exchange charges its replica, a `Busy` shed does not.
//!
//! The same connections carry the control traffic, each frame pending
//! under its own upstream ID and deadline exactly like a range, and none
//! of it touching the in-flight gauges. Every `probe_interval` (the first
//! on the first turn) each available replica not still owing a `Pong`
//! is sent a `Ping`; a routed `Metrics` request sends a `Metrics` frame to
//! every available replica and folds each snapshot that comes back into
//! the router's own. A `Pong` or snapshot is a success for its replica; a
//! failed dial, a closed link or a passed deadline is a failure.
//!
//! Dials are the one blocking step, so each runs on a short-lived thread
//! that hands the connected socket back and wakes the reactor through its
//! wake pipe.

use std::collections::HashMap;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use qbs_core::wire::{self, RequestId};
use qbs_core::{MetricsSnapshot, QueryOutcome, RequestError, TraceId};
use qbs_server::poll::{self, Fill, Pipe, PollFd, WakePipe};
use qbs_server::protocol::{self, RequestFrame, ResponseFrame, SubReply, REQUEST_LEN};
use qbs_server::{ClientConfig, Forward, ForwardJob, Forwarded, MetricsJob, ProtocolError};

use crate::router::RouterBackend;

/// Size of the read scratch buffer shared by every replica connection.
const READ_CHUNK: usize = 64 * 1024;

/// The reactor-driven scatter/gather of one router.
pub(crate) struct Scatter {
    backend: Arc<RouterBackend>,
    wake: Arc<WakePipe>,
    /// One per replica, in pool order.
    links: Vec<Link>,
    /// Dial results; a dial thread sends before it wakes the reactor.
    dialed_tx: Sender<(usize, Result<TcpStream, ProtocolError>)>,
    dialed_rx: Receiver<(usize, Result<TcpStream, ProtocolError>)>,
    batches: HashMap<u64, Batch>,
    polls: HashMap<u64, Poll>,
    /// The next key of a batch or poll.
    next_key: u64,
    /// When the next round of probes is due.
    next_probe: Instant,
    /// Ranges whose exchange ended without an answer, to place again.
    retry: Vec<Slot>,
    /// Batches with every range answered and polls with every replica
    /// heard from, to hand back.
    ready: Vec<u64>,
    /// Which link each descriptor [`Forward::register`] appended is.
    registered: Vec<usize>,
    /// The encoding of one `Unavailable` outcome, repeated per slot.
    unavailable: Vec<u8>,
    scratch: Vec<u8>,
}

/// One range of one batch: `(batch key, range index)`.
type Slot = (u64, usize);

/// A client batch being forwarded.
struct Batch {
    job: ForwardJob,
    started: Instant,
    ranges: Vec<Range>,
    /// Ranges not answered yet.
    open: usize,
}

/// A contiguous sub-batch, in request slots.
struct Range {
    start: usize,
    len: usize,
    /// Replicas tried, in order; the last is the current one.
    tried: Vec<usize>,
    answer: Option<Answer>,
}

enum Answer {
    /// The walked outcome bytes of a replica's reply.
    Outcomes(Vec<u8>),
    /// Every candidate failed or shed.
    Unavailable,
}

/// A routed `Metrics` request gathering replica snapshots.
struct Poll {
    job: MetricsJob,
    /// The router's own snapshot, with each replica's folded in.
    snapshot: MetricsSnapshot,
    /// Replicas not heard from yet.
    open: usize,
}

/// What one frame on a replica link asks for.
#[derive(Clone, Copy)]
enum Ask {
    /// One range of a client batch.
    Range(Slot),
    /// A health probe.
    Ping,
    /// The replica's snapshot, for the poll under this key.
    Metrics(u64),
}

/// How an exchange ended without an answer: which demerits it earns.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Failure {
    /// The dial failed: a health demerit, nothing was retried away.
    Dial,
    /// The exchange broke: a health demerit, the range retried away.
    Exchange,
    /// The replica shed the range: retried away, no demerit.
    Busy,
}

/// The router's connection to one replica.
struct Link {
    state: LinkState,
    next_id: RequestId,
    /// Frames written and unanswered, in the order sent (so the first holds
    /// the earliest deadline).
    pending: Vec<Pending>,
    /// Frames waiting for the dial to finish.
    queued: Vec<Ask>,
}

enum LinkState {
    Down,
    /// A dial thread is out; joined once its result is in.
    Dialing(JoinHandle<()>),
    Up(Pipe),
}

struct Pending {
    id: RequestId,
    ask: Ask,
    deadline: Instant,
}

impl Scatter {
    pub(crate) fn new(backend: Arc<RouterBackend>, wake: Arc<WakePipe>) -> Scatter {
        let links = (0..backend.pool().len())
            .map(|_| Link {
                state: LinkState::Down,
                next_id: RequestId::CONNECTION,
                pending: Vec::new(),
                queued: Vec::new(),
            })
            .collect();
        let reason = format!(
            "{} replica(s) unreachable or shedding after {} attempt(s)",
            backend.pool().len(),
            backend.max_retries + 1
        );
        let unavailable =
            wire::to_bytes(&QueryOutcome::Error(RequestError::Unavailable { reason }));
        let (dialed_tx, dialed_rx) = mpsc::channel();
        Scatter {
            backend,
            wake,
            links,
            dialed_tx,
            dialed_rx,
            batches: HashMap::new(),
            polls: HashMap::new(),
            next_key: 0,
            next_probe: Instant::now(),
            retry: Vec::new(),
            ready: Vec::new(),
            registered: Vec::new(),
            unavailable,
            scratch: vec![0; READ_CHUNK],
        }
    }

    /// Sends one range to the best replica it has not tried, or answers
    /// it `Unavailable` when its retry budget is spent.
    fn place(&mut self, (key, r): Slot) {
        let Some(batch) = self.batches.get_mut(&key) else {
            return;
        };
        let pool = self.backend.pool();
        let range = &mut batch.ranges[r];
        if range.tried.len() <= self.backend.max_retries {
            if let Some(idx) = pool.pick(&range.tried) {
                if !range.tried.is_empty() {
                    self.backend.retries.fetch_add(1, Ordering::SeqCst);
                }
                range.tried.push(idx);
                pool.replicas()[idx].start_requests(range.len as u64);
                self.backend.subbatches.fetch_add(1, Ordering::SeqCst);
                return self.ask(idx, Ask::Range((key, r)));
            }
        }
        self.backend
            .unavailable_slots
            .fetch_add(range.len as u64, Ordering::SeqCst);
        range.answer = Some(Answer::Unavailable);
        batch.open -= 1;
        if batch.open == 0 {
            self.ready.push(key);
        }
    }

    /// Sends one frame to replica `idx`, or queues it behind the dial.
    fn ask(&mut self, idx: usize, ask: Ask) {
        let link = &mut self.links[idx];
        link.queued.push(ask);
        match link.state {
            LinkState::Up(_) => self.send_queued(idx),
            LinkState::Dialing(_) => {}
            LinkState::Down => self.dial(idx),
        }
    }

    /// Sends a `Ping` to every available replica not still owing one a
    /// `Pong`, once the probe interval has passed.
    fn probe(&mut self, now: Instant) {
        if now < self.next_probe {
            return;
        }
        self.next_probe = now + self.backend.probe_interval;
        for idx in 0..self.links.len() {
            let link = &self.links[idx];
            let owing = link.queued.iter().any(|a| matches!(a, Ask::Ping))
                || link.pending.iter().any(|p| matches!(p.ask, Ask::Ping));
            if !owing && self.backend.pool().replicas()[idx].is_available(now) {
                self.ask(idx, Ask::Ping);
            }
        }
    }

    /// Counts one replica's answer to poll `key` (`None`: it failed),
    /// readying the poll once every replica it asked is heard from.
    fn polled(&mut self, key: u64, snapshot: Option<&MetricsSnapshot>) {
        let Some(poll) = self.polls.get_mut(&key) else {
            return;
        };
        if let Some(snapshot) = snapshot {
            poll.snapshot.merge(snapshot);
        }
        poll.open -= 1;
        if poll.open == 0 {
            self.ready.push(key);
        }
    }

    /// Dials replica `idx` on a short-lived thread, which sends the
    /// socket back and then wakes the reactor.
    fn dial(&mut self, idx: usize) {
        let addr = self.backend.pool().replicas()[idx].addr().to_string();
        let config = self.backend.pool().client_config();
        let tx = self.dialed_tx.clone();
        let wake = Arc::clone(&self.wake);
        let spawned = std::thread::Builder::new()
            .name("qbs-dial".to_string())
            .spawn(move || {
                let _ = tx.send((idx, dial(&addr, config)));
                wake.wake();
            });
        match spawned {
            Ok(handle) => self.links[idx].state = LinkState::Dialing(handle),
            Err(e) => self.dialed(idx, Err(ProtocolError::Io(e))),
        }
    }

    /// Ends one exchange on replica `idx` without an answer: settles the
    /// demerits and a range's gauges, and queues a range to be placed
    /// again.
    fn fail(&mut self, idx: usize, ask: Ask, failure: Failure) {
        let replica = &self.backend.pool().replicas()[idx];
        if failure != Failure::Busy {
            replica.record_failure(self.backend.pool().health_config());
        }
        match ask {
            Ask::Range(slot) => {
                let Some(batch) = self.batches.get(&slot.0) else {
                    return;
                };
                let len = batch.ranges[slot.1].len as u64;
                replica.finish_requests(len);
                if failure != Failure::Dial {
                    replica.count_retries(len);
                }
                self.retry.push(slot);
            }
            Ask::Ping => {}
            Ask::Metrics(key) => self.polled(key, None),
        }
    }

    /// Drops replica `idx`'s connection: every frame on it failed.
    fn close(&mut self, idx: usize) {
        let link = &mut self.links[idx];
        link.state = LinkState::Down;
        let pending = std::mem::take(&mut link.pending);
        for p in pending {
            self.fail(idx, p.ask, Failure::Exchange);
        }
    }

    /// A dial finished: write every frame that waited for it, or fail
    /// them all.
    fn dialed(&mut self, idx: usize, result: Result<TcpStream, ProtocolError>) {
        match result {
            Ok(stream) => {
                self.links[idx].state = LinkState::Up(Pipe::new(stream));
                self.send_queued(idx);
            }
            Err(_) => {
                self.links[idx].state = LinkState::Down;
                for ask in std::mem::take(&mut self.links[idx].queued) {
                    self.fail(idx, ask, Failure::Dial);
                }
            }
        }
    }

    /// Frames everything queued for replica `idx` onto its connection,
    /// each under a fresh upstream ID; a range's carries the client's
    /// trace.
    fn send_queued(&mut self, idx: usize) {
        let link = &mut self.links[idx];
        let LinkState::Up(conn) = &mut link.state else {
            return;
        };
        let deadline = Instant::now() + self.backend.pool().client_config().io_timeout;
        for ask in link.queued.drain(..) {
            let id = link.next_id.next();
            let mut frame = Vec::new();
            let control = match ask {
                Ask::Range((key, r)) => {
                    let Some(batch) = self.batches.get(&key) else {
                        continue;
                    };
                    let range = &batch.ranges[r];
                    protocol::push_batch_request(
                        &mut frame,
                        id,
                        batch.job.trace(),
                        &batch.job.requests()
                            [range.start * REQUEST_LEN..(range.start + range.len) * REQUEST_LEN],
                    );
                    None
                }
                Ask::Ping => Some(RequestFrame::Ping),
                Ask::Metrics(_) => Some(RequestFrame::Metrics),
            };
            if let Some(request) = control {
                protocol::push_frame(&mut frame, id, TraceId::NONE, |out| {
                    request.encode_body_into(out)
                });
            }
            conn.queue(frame);
            link.next_id = id;
            link.pending.push(Pending { id, ask, deadline });
        }
    }

    /// Reads what replica `idx` sent, settling each chunk's complete
    /// replies before the next read.
    fn read(&mut self, idx: usize) {
        loop {
            let LinkState::Up(conn) = &mut self.links[idx].state else {
                return;
            };
            let fill = conn.fill(&mut self.scratch);
            while let LinkState::Up(conn) = &mut self.links[idx].state {
                let payload = match conn.next_frame() {
                    Ok(Some(payload)) => payload,
                    Ok(None) => break,
                    // An over-cap length frames nothing after it.
                    Err(_) => return self.close(idx),
                };
                match protocol::split_envelope(&payload) {
                    Ok((id, _, body)) if !id.is_connection_scoped() => self.settle(idx, id, body),
                    // A broken envelope or a connection-scoped fault: nothing
                    // more on this connection can be paired.
                    _ => return self.close(idx),
                }
            }
            match fill {
                Fill::Data => {}
                Fill::Drained => return,
                Fill::Eof | Fill::Broken => return self.close(idx),
            }
        }
    }

    /// Settles the frame replica `idx` answered under upstream `id`.
    fn settle(&mut self, idx: usize, id: RequestId, body: &[u8]) {
        let link = &mut self.links[idx];
        let Some(at) = link.pending.iter().position(|p| p.id == id) else {
            return; // not ours (any more)
        };
        let ask = link.pending.remove(at).ask;
        let replica = &self.backend.pool().replicas()[idx];
        let health = self.backend.pool().health_config();
        let Ask::Range((key, r)) = ask else {
            return match (ask, ResponseFrame::decode_body(body)) {
                (Ask::Ping, Ok(ResponseFrame::Pong)) => replica.record_success(health),
                (Ask::Metrics(key), Ok(ResponseFrame::Metrics(snapshot))) => {
                    replica.record_success(health);
                    self.polled(key, Some(&snapshot));
                }
                _ => self.fail(idx, ask, Failure::Exchange),
            };
        };
        let Some(batch) = self.batches.get_mut(&key) else {
            return;
        };
        let len = batch.ranges[r].len;
        match protocol::sort_batch_reply(body, len) {
            SubReply::Outcomes(outcomes) => {
                replica.finish_requests(len as u64);
                replica.record_success(health);
                batch.ranges[r].answer = Some(Answer::Outcomes(outcomes.to_vec()));
                batch.open -= 1;
                if batch.open == 0 {
                    self.ready.push(key);
                }
            }
            SubReply::Busy => self.fail(idx, ask, Failure::Busy),
            SubReply::Failed => self.fail(idx, ask, Failure::Exchange),
        }
    }

    /// Writes every queued frame the sockets take; a connection that
    /// errors is closed.
    fn flush(&mut self) {
        for idx in 0..self.links.len() {
            if let LinkState::Up(conn) = &mut self.links[idx].state {
                if !conn.flush() {
                    self.close(idx);
                }
            }
        }
    }

    /// Runs writes and re-ships to a fixed point, then splices every
    /// batch whose ranges are all answered and hands back every finished
    /// poll.
    fn drive(&mut self, done: &mut Vec<Forwarded>) {
        loop {
            self.flush();
            if self.retry.is_empty() {
                break;
            }
            for slot in std::mem::take(&mut self.retry) {
                self.place(slot);
            }
        }
        for key in std::mem::take(&mut self.ready) {
            if let Some(batch) = self.batches.remove(&key) {
                done.push(self.splice(batch));
            } else if let Some(Poll { job, snapshot, .. }) = self.polls.remove(&key) {
                done.push(Forwarded::Metrics { job, snapshot });
            }
        }
    }

    /// Builds the client's reply: every range's outcome bytes in slot
    /// order behind one count.
    fn splice(&self, batch: Batch) -> Forwarded {
        let t_encode = Instant::now();
        let exec = t_encode - batch.started;
        let frame = batch.job.reply(|out| {
            for range in &batch.ranges {
                match &range.answer {
                    Some(Answer::Outcomes(bytes)) => out.extend_from_slice(bytes),
                    Some(Answer::Unavailable) | None => {
                        for _ in 0..range.len {
                            out.extend_from_slice(&self.unavailable);
                        }
                    }
                }
            }
        });
        Forwarded::Batch {
            job: batch.job,
            frame,
            exec,
            encode: t_encode.elapsed(),
        }
    }
}

impl Drop for Scatter {
    /// Joins the dials still out; each ends within its connect bounds.
    fn drop(&mut self) {
        for link in &mut self.links {
            if let LinkState::Dialing(handle) = std::mem::replace(&mut link.state, LinkState::Down)
            {
                let _ = handle.join();
            }
        }
    }
}

impl Forward for Scatter {
    fn submit(&mut self, job: ForwardJob) {
        self.backend.batches_routed.fetch_add(1, Ordering::SeqCst);
        let n = job.len();
        let available = self.backend.pool().available(Instant::now()).max(1);
        let k = (n / self.backend.min_split).clamp(1, available);
        let chunk = n.div_ceil(k).max(1);
        let ranges: Vec<Range> = (0..n)
            .step_by(chunk)
            .map(|start| Range {
                start,
                len: chunk.min(n - start),
                tried: Vec::new(),
                answer: None,
            })
            .collect();
        let key = self.next_key;
        self.next_key += 1;
        let count = ranges.len();
        self.batches.insert(
            key,
            Batch {
                job,
                started: Instant::now(),
                ranges,
                open: count,
            },
        );
        if count == 0 {
            self.ready.push(key);
        }
        for r in 0..count {
            self.place((key, r));
        }
        // Write now: the replicas start while the reactor reads on.
        self.flush();
    }

    /// Asks every available replica for its snapshot, to fold into the
    /// router's own.
    fn metrics(&mut self, job: MetricsJob) {
        let key = self.next_key;
        self.next_key += 1;
        let now = Instant::now();
        let asked: Vec<usize> = (0..self.links.len())
            .filter(|&idx| self.backend.pool().replicas()[idx].is_available(now))
            .collect();
        let snapshot = self.backend.local_snapshot();
        let open = asked.len();
        self.polls.insert(
            key,
            Poll {
                job,
                snapshot,
                open,
            },
        );
        if open == 0 {
            self.ready.push(key);
        }
        for idx in asked {
            self.ask(idx, Ask::Metrics(key));
        }
        self.flush();
    }

    fn register(&mut self, fds: &mut Vec<PollFd>) {
        self.registered.clear();
        for (idx, link) in self.links.iter().enumerate() {
            if let LinkState::Up(conn) = &link.state {
                fds.push(conn.poll_fd(true));
                self.registered.push(idx);
            }
        }
    }

    fn turn(&mut self, fds: &[PollFd], done: &mut Vec<Forwarded>) {
        while let Ok((idx, result)) = self.dialed_rx.try_recv() {
            // The thread has sent its last word; joining it takes no time.
            if let LinkState::Dialing(handle) =
                std::mem::replace(&mut self.links[idx].state, LinkState::Down)
            {
                let _ = handle.join();
            }
            self.dialed(idx, result);
        }
        for (i, fd) in fds.iter().enumerate() {
            let idx = self.registered[i];
            let current = match &self.links[idx].state {
                LinkState::Up(conn) => poll::stream_fd(conn.stream()) == fd.fd(),
                _ => false,
            };
            if current && fd.readable() {
                self.read(idx);
            }
        }
        // Deadlines: the oldest pending frame of each link expires first;
        // a connection that sat on one that long is given up on whole.
        let now = Instant::now();
        for idx in 0..self.links.len() {
            if self.links[idx]
                .pending
                .first()
                .is_some_and(|p| p.deadline <= now)
            {
                self.close(idx);
            }
        }
        self.probe(now);
        self.drive(done);
    }
}

/// Dials a replica and exchanges preambles, each step bounded by
/// [`ClientConfig::connect_timeout`]; the socket comes back nonblocking.
fn dial(addr: &str, config: ClientConfig) -> Result<TcpStream, ProtocolError> {
    let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{addr}: no usable socket address"),
        )
    })?;
    let mut stream = TcpStream::connect_timeout(&target, config.connect_timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(config.connect_timeout))?;
    stream.set_write_timeout(Some(config.connect_timeout))?;
    protocol::write_preamble(&mut stream)?;
    protocol::read_preamble(&mut stream)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}
