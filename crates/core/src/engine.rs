//! The session's query executor: long-lived workers that own their
//! workspaces and take claims from every frame in flight.
//!
//! Each [`crate::Qbs`] session owns one executor, the only place in the
//! crate that spawns query threads. Its `threads − 1` workers start the
//! first time a frame needs them and each owns one [`QueryWorkspace`] for
//! life, reset per query by epoch bumping, so the steady state allocates
//! no search scratch.
//!
//! A frame — one [`crate::Qbs::submit`] — holds a copy of its requests, a
//! result slot each, a claim cursor, a done-latch and its own stage sums,
//! so concurrent frames never mix their slow-query breakdowns. Requests
//! repeated in a frame run like any other; the answer cache, when
//! attached, is what shares their work. Frames queue first in, first
//! out; workers take `CLAIM_CHUNK` requests at a time from the oldest with
//! work left, which keeps frames of skewed query cost balanced. The
//! submitter wakes as many workers as there are claims left, claims from
//! its own frame too, then waits on the latch. With one thread, or a frame
//! of one claim, everything runs on the caller: no queue, no wake-up.
//!
//! A panic in a claim is a bug (request failures are
//! [`QueryOutcome::Error`] values): it is caught, the frame's other claims
//! finish, and it is re-raised on the submitter. The worker carries on
//! with a fresh workspace.
//!
//! ```
//! use qbs_core::request::QueryRequest;
//! use qbs_core::{Qbs, QbsConfig};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! let qbs = Qbs::build(figure4_graph(), QbsConfig::with_landmark_count(3))
//!     .unwrap()
//!     .with_threads(2)
//!     .unwrap();
//! // Heterogeneous batch: a distance probe, a full answer, a bad request.
//! let outcomes = qbs.submit(&[
//!     QueryRequest::distance(6, 11),
//!     QueryRequest::path_graph(4, 12),
//!     QueryRequest::distance(6, 999),
//! ]);
//! assert_eq!(outcomes[0].distance(), Some(5));
//! assert!(outcomes[1].path_graph().is_some());
//! assert!(outcomes[2].is_error()); // that slot only — the batch survived
//! ```

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::cache::AnswerCache;
use crate::obs::{AtomicStageNanos, Metrics, StageNanos};
use crate::request::{QueryOutcome, QueryRequest};
use crate::store::QbsIndex;
use crate::workspace::QueryWorkspace;

/// Requests per claim. One request is microseconds of search, so the
/// cursor is nowhere near contended, and single-request claims let the
/// second thread share a skewed frame down to its last request. Measured
/// on `batch-zipf` against claims of 2: `lat_p50_rel` 57.6 vs 60.5 (median
/// of five alternating pairs, 1 faster in four).
const CLAIM_CHUNK: usize = 1;

/// What every query of a session reads. The session and each of its
/// workers hold one `Arc` of it.
pub(crate) struct Engine {
    pub(crate) index: QbsIndex,
    pub(crate) cache: Option<AnswerCache>,
    /// Per-stage latency histograms, for the session's lifetime.
    pub(crate) metrics: Arc<Metrics>,
    /// Test hook: every request of this mode panics.
    #[cfg(test)]
    pub(crate) panic_on: Option<crate::request::QueryMode>,
}

impl Engine {
    pub(crate) fn new(index: QbsIndex) -> Self {
        Engine {
            index,
            cache: None,
            metrics: Arc::new(Metrics::new()),
            #[cfg(test)]
            panic_on: None,
        }
    }

    pub(crate) fn num_vertices(&self) -> usize {
        self.index.num_vertices()
    }

    /// Executes one request on `ws` through the cache, flushing its stage
    /// figures into the registry and into `frame_ns` — one sample per
    /// request.
    fn run(
        &self,
        ws: &mut QueryWorkspace,
        request: &QueryRequest,
        frame_ns: Option<&AtomicStageNanos>,
    ) -> QueryOutcome {
        #[cfg(test)]
        assert!(
            self.panic_on != Some(request.mode),
            "injected panic on {request:?}"
        );
        let metrics = Some(&*self.metrics).filter(|m| m.is_enabled());
        ws.obs.enabled = metrics.is_some();
        let outcome = self.index.execute_with(ws, request, self.cache.as_ref());
        if let Some(m) = metrics {
            let ns = ws.obs.take();
            m.record_request(request.mode, &ns);
            if let Some(frame_ns) = frame_ns {
                frame_ns.add(&ns);
            }
            ws.obs.enabled = false;
        }
        outcome
    }
}

/// Locks an executor mutex. Nothing panics while holding one — claims run
/// outside every lock — so poisoning is a bug.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("executor lock poisoned")
}

/// One multi-claim frame in flight, shared by its submitter and the
/// workers.
struct Frame {
    requests: Vec<QueryRequest>,
    slots: Vec<Mutex<Option<QueryOutcome>>>,
    /// Index of the next unclaimed request.
    cursor: AtomicUsize,
    /// Claims not yet finished. Each finishing claim decrements it with
    /// `AcqRel`, so the claim that reaches zero happens after every slot
    /// write, and publishes them to the submitter through `done`.
    pending: AtomicUsize,
    done: Mutex<bool>,
    finished: Condvar,
    /// This frame's stage sums — its slow-query breakdown.
    ns: AtomicStageNanos,
    /// The first panic caught in a claim, re-raised on the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Frame {
    fn new(requests: &[QueryRequest], claims: usize) -> Self {
        Frame {
            requests: requests.to_vec(),
            slots: requests.iter().map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(claims),
            done: Mutex::new(false),
            finished: Condvar::new(),
            ns: AtomicStageNanos::default(),
            panic: Mutex::new(None),
        }
    }

    fn has_claims(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.requests.len()
    }

    /// Runs claims until none is left. A panicking claim is kept for the
    /// submitter and costs `ws`, which it may have left mid-search.
    fn drain(&self, engine: &Engine, ws: &mut QueryWorkspace) {
        loop {
            let start = self.cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
            if start >= self.requests.len() {
                return;
            }
            let end = (start + CLAIM_CHUNK).min(self.requests.len());
            let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                for idx in start..end {
                    let outcome = engine.run(ws, &self.requests[idx], Some(&self.ns));
                    *lock(&self.slots[idx]) = Some(outcome);
                }
            }));
            if let Err(payload) = ran {
                lock(&self.panic).get_or_insert(payload);
                *ws = QueryWorkspace::for_vertices(engine.num_vertices());
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                *lock(&self.done) = true;
                self.finished.notify_all();
            }
        }
    }

    /// Waits until every claim has finished, then takes the outcomes in
    /// input order — or re-raises the panic of a claim.
    fn outcomes(&self) -> Vec<QueryOutcome> {
        let done = self.finished.wait_while(lock(&self.done), |done| !*done);
        drop(done.expect("executor lock poisoned"));
        if let Some(payload) = lock(&self.panic).take() {
            panic::resume_unwind(payload);
        }
        self.slots
            .iter()
            .map(|slot| lock(slot).take().expect("every claim fills its slots"))
            .collect()
    }
}

/// The frames in flight, oldest first, and the stop flag.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    wake: Condvar,
}

#[derive(Default)]
struct QueueState {
    frames: Vec<Arc<Frame>>,
    stop: bool,
}

impl Queue {
    /// The oldest frame with claims left, parking until one arrives;
    /// `None` once the workers are told to stop.
    fn next(&self) -> Option<Arc<Frame>> {
        let mut state = lock(&self.state);
        loop {
            if state.stop {
                return None;
            }
            if let Some(frame) = state.frames.iter().find(|f| f.has_claims()) {
                return Some(Arc::clone(frame));
            }
            state = self.wake.wait(state).expect("executor lock poisoned");
        }
    }
}

/// The session's worker threads; dropping them stops and joins them.
struct Workers {
    queue: Arc<Queue>,
    handles: Vec<JoinHandle<()>>,
}

impl Workers {
    fn start(engine: &Arc<Engine>, count: usize) -> Self {
        let queue = Arc::new(Queue::default());
        let handles = (0..count)
            .map(|_| {
                let (engine, queue) = (Arc::clone(engine), Arc::clone(&queue));
                std::thread::Builder::new()
                    .name("qbs-query".into())
                    .spawn(move || {
                        let mut ws = QueryWorkspace::for_vertices(engine.num_vertices());
                        while let Some(frame) = queue.next() {
                            frame.drain(&engine, &mut ws);
                        }
                    })
                    .expect("spawn a query worker")
            })
            .collect();
        Workers { queue, handles }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // The flag is a plain bool, valid whatever a panicking holder did.
        let queue = &self.queue;
        queue
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stop = true;
        queue.wake.notify_all();
        for handle in self.handles.drain(..) {
            // Claims catch their panics, so a worker never ends in one.
            let _ = handle.join();
        }
    }
}

/// The executor a session owns: the shared [`Engine`], the thread budget,
/// the calling threads' workspaces and the lazily started workers.
pub(crate) struct Executor {
    pub(crate) engine: Arc<Engine>,
    threads: usize,
    /// Workspaces of calling threads — `execute`, and a submitter's own
    /// claims. Check-in keeps at most `threads` of them.
    spare: Mutex<Vec<QueryWorkspace>>,
    workers: OnceLock<Workers>,
}

impl Executor {
    pub(crate) fn new(engine: Engine, threads: usize) -> Self {
        Executor {
            engine: Arc::new(engine),
            threads,
            spare: Mutex::new(Vec::new()),
            workers: OnceLock::new(),
        }
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the thread budget. Running workers stop; the next frame that
    /// needs them starts the new count.
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.workers = OnceLock::new();
        self.threads = threads;
    }

    /// The engine, for the session's builder methods. Stops the workers
    /// first, so the executor holds the only reference.
    pub(crate) fn engine_mut(&mut self) -> &mut Engine {
        self.workers = OnceLock::new();
        Arc::get_mut(&mut self.engine).expect("joined workers hold no engine")
    }

    /// Executes one request on the calling thread.
    pub(crate) fn execute(&self, request: &QueryRequest) -> QueryOutcome {
        let mut ws = self.checkout();
        let outcome = self.engine.run(&mut ws, request, None);
        self.checkin(ws);
        outcome
    }

    /// Executes a frame, with outcomes in input order and the frame's
    /// per-stage sums (all zero while metrics are off): inline when one
    /// thread or one claim suffices, and otherwise as a queued frame shared
    /// with the workers.
    pub(crate) fn fan_out(&self, requests: &[QueryRequest]) -> (Vec<QueryOutcome>, StageNanos) {
        let claims = requests.len().div_ceil(CLAIM_CHUNK);
        if self.threads == 1 || claims <= 1 {
            let frame_ns = AtomicStageNanos::default();
            let mut ws = self.checkout();
            let outcomes = requests
                .iter()
                .map(|req| self.engine.run(&mut ws, req, Some(&frame_ns)))
                .collect();
            self.checkin(ws);
            return (outcomes, frame_ns.take());
        }

        let workers = self
            .workers
            .get_or_init(|| Workers::start(&self.engine, self.threads - 1));
        let frame = Arc::new(Frame::new(requests, claims));
        lock(&workers.queue.state).frames.push(Arc::clone(&frame));
        for _ in 0..(claims - 1).min(self.threads - 1) {
            workers.queue.wake.notify_one();
        }
        let mut ws = self.checkout();
        frame.drain(&self.engine, &mut ws);
        self.checkin(ws);
        // Every claim is taken: no worker needs to find the frame again.
        lock(&workers.queue.state)
            .frames
            .retain(|f| !Arc::ptr_eq(f, &frame));
        (frame.outcomes(), frame.ns.take())
    }

    fn checkout(&self) -> QueryWorkspace {
        lock(&self.spare)
            .pop()
            .unwrap_or_else(|| QueryWorkspace::for_vertices(self.engine.num_vertices()))
    }

    fn checkin(&self, ws: QueryWorkspace) {
        let mut spare = lock(&self.spare);
        if spare.len() < self.threads {
            spare.push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryMode;
    use crate::session::Qbs;
    use crate::QbsConfig;
    use crate::QbsError;
    use qbs_graph::fixtures::{figure3_graph, figure4_graph};
    use qbs_graph::VertexId;

    fn all_pairs(n: u32) -> Vec<(VertexId, VertexId)> {
        (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
    }

    fn path_graph_requests(pairs: &[(VertexId, VertexId)]) -> Vec<QueryRequest> {
        pairs
            .iter()
            .map(|&(u, v)| QueryRequest::path_graph(u, v).with_stats())
            .collect()
    }

    fn distance_requests(pairs: &[(VertexId, VertexId)]) -> Vec<QueryRequest> {
        pairs
            .iter()
            .map(|&(u, v)| QueryRequest::distance(u, v))
            .collect()
    }

    fn figure4_index() -> QbsIndex {
        QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3))
    }

    fn figure3_index() -> QbsIndex {
        QbsIndex::build(figure3_graph(), QbsConfig::with_landmark_count(2))
    }

    fn session(index: QbsIndex, threads: usize) -> Qbs {
        Qbs::from_index(index)
            .with_threads(threads)
            .expect("threads")
    }

    /// Two-thread sessions over the heap buffer of a build and over a
    /// mapping of its saved file submit identical outcomes, and every
    /// distance matches a plain BFS.
    #[test]
    fn mapped_engine_matches_heap_engine_and_bfs_distances() {
        let index = figure4_index();
        let dir = std::env::temp_dir().join("qbs_engine_mapped_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("fig4.qbs");
        crate::serialize::save_to_file(&index, &path).expect("save");
        let mapped = Qbs::open(&path, crate::MapMode::Mmap)
            .expect("map")
            .with_threads(2)
            .expect("threads");
        let heap = session(index, 2);
        let pairs = all_pairs(15);
        for requests in [path_graph_requests(&pairs), distance_requests(&pairs)] {
            assert_eq!(heap.submit(&requests), mapped.submit(&requests));
        }
        let graph = figure4_graph();
        let distances = mapped.submit(&distance_requests(&pairs));
        for (&(u, v), outcome) in pairs.iter().zip(&distances) {
            let bfs = qbs_graph::traversal::bfs_distances(&graph, u)[v as usize];
            assert_eq!(outcome.distance(), Some(bfs), "distance of ({u},{v})");
        }
        assert_eq!(mapped.num_landmarks(), 3);
    }

    #[test]
    fn distance_requests_match_path_graph_answers() {
        let qbs = session(figure3_index(), 2);
        let pairs = all_pairs(8);
        let answers = qbs.submit(&path_graph_requests(&pairs));
        let distances = qbs.submit(&distance_requests(&pairs));
        for ((answer, d), &(u, v)) in answers.iter().zip(&distances).zip(&pairs) {
            assert_eq!(
                answer.answer().expect("in range").path_graph.distance(),
                d.distance().expect("in range"),
                "distance of ({u},{v})"
            );
        }
    }

    #[test]
    fn workspace_pool_is_bounded_and_reused() {
        let qbs = session(figure4_index(), 3);
        let requests = path_graph_requests(&all_pairs(15));
        for _ in 0..5 {
            qbs.submit(&requests);
        }
        for &(u, v) in &all_pairs(4) {
            assert!(qbs.execute(&QueryRequest::path_graph(u, v)).is_ok());
        }
        let workers = qbs.exec.workers.get().expect("started by a frame");
        assert_eq!(workers.handles.len(), 2, "threads − 1 workers");
        let spare = lock(&qbs.exec.spare);
        assert_eq!(spare.len(), 1, "one calling thread keeps one workspace");
        assert!(
            spare[0].queries_served() >= 16,
            "the caller's workspace was reused"
        );
    }

    #[test]
    fn out_of_range_requests_fail_their_slot_only() {
        let qbs = Qbs::from_index(figure3_index());
        let outcomes = qbs.submit(&[
            QueryRequest::path_graph(0, 1),
            QueryRequest::path_graph(99, 0),
        ]);
        assert!(!outcomes[0].is_error(), "good slot unaffected");
        assert!(outcomes[1].is_error(), "bad slot fails alone");
        assert!(qbs.execute(&QueryRequest::path_graph(0, 99)).is_error());
        let good = qbs.execute(&QueryRequest::path_graph(3, 7));
        assert_eq!(good.distance(), Some(4));
    }

    #[test]
    fn zero_threads_is_rejected() {
        assert!(matches!(
            Qbs::from_index(figure3_index()).with_threads(0),
            Err(QbsError::ThreadPool(_))
        ));
        assert!(Qbs::from_index(figure3_index()).threads() >= 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let qbs = session(figure3_index(), 2);
        assert!(qbs.submit(&[]).is_empty());
        assert_eq!(qbs.num_vertices(), 8);
        assert!(qbs.exec.workers.get().is_none(), "nothing to fan out");
    }

    #[test]
    fn submit_mixes_modes_and_isolates_per_request_errors() {
        let index = figure4_index();
        let qbs = session(index.clone(), 3);
        let requests = vec![
            QueryRequest::distance(6, 11),
            QueryRequest::path_graph(6, 11).with_stats(),
            QueryRequest::new(99, 0, QueryMode::Sketch),
            QueryRequest::sketch(6, 11),
            QueryRequest::path_graph(4, 12),
        ];
        let outcomes = qbs.submit(&requests);
        assert_eq!(outcomes.len(), 5);
        assert_eq!(outcomes[0].distance(), Some(5));
        assert_eq!(
            outcomes[1].answer().unwrap().path_graph,
            index.query(6, 11).unwrap()
        );
        assert!(outcomes[2].is_error(), "poisoned slot fails alone");
        assert_eq!(outcomes[3].sketch().unwrap(), &index.sketch(6, 11).unwrap());
        assert_eq!(
            outcomes[4].path_graph().unwrap(),
            &index.query(4, 12).unwrap()
        );
    }

    #[test]
    fn engine_cache_serves_bit_identical_answers() {
        let uncached = session(figure4_index(), 2);
        let cached = session(figure4_index(), 2)
            .with_cache(crate::cache::CacheConfig::default().admit_above(0));
        assert!(uncached.cache_stats().is_none());

        let requests = path_graph_requests(&all_pairs(15));
        let cold = cached.submit(&requests);
        let warm = cached.submit(&requests);
        let fresh = uncached.submit(&requests);
        assert_eq!(cold, fresh, "cold cached run matches uncached run");
        assert_eq!(warm, fresh, "warm cache hits are bit-identical");
        let stats = cached.cache_stats().expect("cache attached");
        assert!(stats.hits > 0, "{stats:?}");
    }

    #[test]
    fn a_panicking_claim_surfaces_on_the_caller_and_the_workers_carry_on() {
        let mut qbs = session(figure4_index(), 2);
        let requests = path_graph_requests(&all_pairs(15));
        let expected = qbs.submit(&requests);
        qbs.exec.engine_mut().panic_on = Some(QueryMode::Sketch);
        // Sketches spread over the frame, so both threads are likely to
        // meet one; the answer must not depend on who does.
        let mut poisoned = requests.clone();
        for r in poisoned.iter_mut().step_by(16) {
            *r = QueryRequest::sketch(r.source, r.target);
        }
        let qbs = Arc::new(qbs);
        let (tx, rx) = std::sync::mpsc::channel();
        let caller_qbs = Arc::clone(&qbs);
        let caller = std::thread::spawn(move || {
            let raised = panic::catch_unwind(AssertUnwindSafe(|| caller_qbs.submit(&poisoned)));
            let _ = tx.send(raised.err().and_then(|p| p.downcast::<String>().ok()));
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the poisoned frame returned instead of hanging");
        caller.join().expect("the caller thread caught the panic");
        assert!(
            message.is_some_and(|m| m.contains("injected panic")),
            "the claim's panic is re-raised on the caller"
        );

        let workers = qbs.exec.workers.get().expect("workers running");
        assert!(workers.handles.iter().all(|h| !h.is_finished()));
        assert_eq!(qbs.submit(&requests), expected, "the next frame is intact");
        assert!(lock(&workers.queue.state).frames.is_empty());
    }
}
