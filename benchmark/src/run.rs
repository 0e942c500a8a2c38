//! The timed phase: rounds of fixed work, each followed by verification
//! (untimed) and a calibration block.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use qbs_core::{QueryMode, QueryOutcome, QueryRequest};
use qbs_server::BatchReply;

use crate::clock::{peak_rss_mb, process_cpu_ns};
use crate::heater::Heater;
use crate::refgraph::{Calibrator, Oracle, RefOp, CALIBRATION_SEED};
use crate::rng::{poisson_schedule, SplitMix64};
use crate::setup::Product;
use crate::stats::Round;
use crate::trace::Tracer;
use crate::workloads::{Driver, RequestStream, Workload};

/// Sub-streams of `--seed`.
const STREAM_TIMED: u64 = 1;
const STREAM_SCHEDULE: u64 = 2;
pub const STREAM_PROBES: u64 = 3;

/// Rounds run and thrown away before the timed phase, so caches, lazily
/// sized workspaces and connection pools are in steady state. Reported as
/// `warm-up` in the round log, never silently.
const WARMUP_ROUNDS: usize = 3;

/// Every this-many-th request is also compared bit for bit with a
/// one-at-a-time `execute` on the owned index.
const BIT_IDENTITY_STRIDE: u64 = 64;

/// Every round of a timed phase, none discarded.
#[derive(Default)]
pub struct Phase {
    /// Rounds run before timing began; logged, never counted.
    pub warmup: Vec<Round>,
    pub rounds: Vec<Round>,
    /// Whether the tracer was on during the timed round of the same index.
    pub traced: Vec<bool>,
    /// `VmHWM` when the timed rounds began: set-up and warm-up are in it;
    /// the benchmark's own record of the rounds, which grows with the
    /// product's speed, is not.
    pub peak_rss_mb: f64,
}

pub struct Bench<'a> {
    pub workload: &'a Workload,
    pub product: Product,
    calibrator: Calibrator,
    /// The calibration block that closed the previous round.
    last_calibration: Option<RefOp>,
    /// Keeps the vCPUs awake while the open loop is timed (see
    /// [`crate::heater`]).
    heater: Option<Heater>,
    pub tracer: Tracer,
    oracle: Oracle,
    stream: RequestStream,
    schedule_rng: SplitMix64,
    pub attempted: u64,
    pub failed: u64,
    /// What the first failure was, for the report.
    pub first_failure: Option<String>,
}

impl<'a> Bench<'a> {
    pub fn new(workload: &'a Workload, product: Product, seed: u64, trace: bool) -> Self {
        let n = product.refgraph.num_vertices();
        let stream = RequestStream::new(workload, n, seed, STREAM_TIMED);
        let oracle = Oracle::new(&product.refgraph, &stream.hot_vertices());
        // The calibration block: pairs from the workload's own endpoint
        // distribution under the fixed calibration seed, one lane per CPU
        // the workload keeps busy.
        let mut fixed = RequestStream::new(workload, n, CALIBRATION_SEED, 0);
        let pairs: Vec<(u32, u32)> = (0..workload.calibration_pairs)
            .map(|_| fixed.pair())
            .collect();
        let calibrator = Calibrator::new(&product.refgraph, &pairs, workload.busy_cpus);
        let heater = matches!(workload.driver, Driver::RoutedOpen { .. }).then(Heater::start);
        Bench {
            workload,
            product,
            calibrator,
            last_calibration: None,
            heater,
            tracer: Tracer::new(trace),
            oracle,
            stream,
            schedule_rng: SplitMix64::fork(seed, STREAM_SCHEDULE),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Runs the warm-up rounds, then timed rounds until `seconds` of wall
    /// time have passed (at least two). With `alternate_tracing`, every
    /// other timed round runs with the tracer off.
    pub fn timed_phase(&mut self, seconds: f64, alternate_tracing: bool) -> Phase {
        let traced = self.tracer.is_enabled();
        let mut phase = Phase::default();
        for _ in 0..WARMUP_ROUNDS {
            let round = self.round();
            phase.warmup.push(round);
        }
        phase.peak_rss_mb = peak_rss_mb();
        let start = Instant::now();
        while phase.rounds.len() < 2 || start.elapsed().as_secs_f64() < seconds {
            let trace_this = traced && !(alternate_tracing && phase.rounds.len() % 2 == 1);
            self.tracer.set_enabled(trace_this);
            let round = self.round();
            phase.rounds.push(round);
            phase.traced.push(trace_this);
        }
        self.tracer.set_enabled(traced);
        phase
    }

    /// One round: timed product work, then verification and calibration.
    pub fn round(&mut self) -> Round {
        let wl = self.workload;
        let first_id = self.attempted as i64;
        let frames: Vec<Vec<QueryRequest>> = (0..wl.calls_per_round)
            .map(|_| self.stream.requests(wl.frame))
            .collect();
        let mut round = Round {
            requests: wl.requests_per_round(),
            latencies_ns: Vec::with_capacity(wl.calls_per_round),
            ..Round::default()
        };
        // Replies in call order; a call the product refused (or answered
        // short) contributes nothing and is marked unanswered.
        let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(round.requests);
        let mut answered = vec![false; frames.len()];
        let mut keep = |i: usize, reply: Vec<QueryOutcome>| {
            if reply.len() == frames[i].len() {
                answered[i] = true;
                outcomes.extend(reply);
            }
        };

        let span = self.tracer.begin("round");
        let cpu0 = self.product_cpu_ns();
        let start = Instant::now();
        match wl.driver {
            Driver::Execute => {
                let qbs = &self.product.serving;
                let mut prev = start;
                for (i, frame) in frames.iter().enumerate() {
                    let call = self.tracer.begin_request("execute", first_id + i as i64);
                    let outcome = qbs.execute(&frame[0]);
                    self.tracer.end(call);
                    let now = Instant::now();
                    round.latencies_ns.push((now - prev).as_nanos() as f64);
                    prev = now;
                    answered[i] = true;
                    outcomes.push(outcome);
                }
            }
            Driver::Submit => {
                let qbs = &self.product.serving;
                for (i, frame) in frames.iter().enumerate() {
                    let call = self
                        .tracer
                        .begin_request("submit", first_id + (i * wl.frame) as i64);
                    let t0 = Instant::now();
                    let reply = qbs.submit(frame);
                    round.latencies_ns.push(t0.elapsed().as_nanos() as f64);
                    self.tracer.end(call);
                    keep(i, reply);
                }
            }
            Driver::RoutedOpen { frames_per_s } => {
                let due = poisson_schedule(&mut self.schedule_rng, frames_per_s, frames.len());
                let client = &mut self.product.tier.as_mut().expect("routed workload").client;
                let mut pending = VecDeque::new();
                let mut sent = 0;
                round.latencies_ns.resize(frames.len(), 0.0);
                while sent < frames.len() || !pending.is_empty() {
                    let now = start.elapsed().as_nanos() as u64;
                    if sent < frames.len() && (pending.is_empty() || now >= due[sent]) {
                        if now < due[sent] {
                            std::thread::sleep(Duration::from_nanos(due[sent] - now));
                        }
                        let id = first_id + (sent * wl.frame) as i64;
                        let call = self.tracer.begin_request("send", id);
                        let late = (start.elapsed().as_nanos() as u64).saturating_sub(due[sent]);
                        let ticket = client.send(&frames[sent]).expect("send on loopback");
                        self.tracer.end(call);
                        round.lag_ns.push(late as f64);
                        pending.push_back((sent, ticket));
                        sent += 1;
                    } else {
                        let (i, ticket) = pending.pop_front().expect("a frame is in flight");
                        let id = first_id + (i * wl.frame) as i64;
                        let call = self.tracer.begin_request("recv", id);
                        let reply = client.recv(ticket).expect("reply on loopback");
                        self.tracer.end(call);
                        let done = start.elapsed().as_nanos() as u64;
                        // Timed from when the frame was due, so a stalled
                        // generator cannot hide the wait it imposed.
                        round.latencies_ns[i] = (done - due[i]) as f64;
                        // Frames are redeemed oldest first, so replies
                        // arrive here in call order.
                        if let BatchReply::Outcomes(reply) = reply {
                            keep(i, reply);
                        }
                    }
                }
            }
        }
        round.span_ns = start.elapsed().as_nanos() as f64;
        round.cpu_ns = (self.product_cpu_ns() - cpu0) as f64;
        self.tracer.end(span);
        round.busy_ns = match wl.driver {
            Driver::Execute | Driver::Submit => round.span_ns,
            // The schedule fixes an open loop's span; what the product
            // decides is how long requests stay in the system.
            Driver::RoutedOpen { .. } => round.latencies_ns.iter().sum(),
        };

        let span = self.tracer.begin("verify");
        let mut rest = outcomes.as_slice();
        for (frame, &answered) in frames.iter().zip(&answered) {
            let reply = answered.then(|| {
                let (reply, tail) = rest.split_at(frame.len());
                rest = tail;
                reply
            });
            self.verify(frame, reply);
        }
        self.tracer.end(span);
        drop(outcomes);

        // The round ran between two calibration blocks; its ref-op time
        // is their mean.
        let after = self.calibrate();
        let before = self.last_calibration.replace(after).unwrap_or(after);
        round.ref_wall_ns = (before.wall_ns + after.wall_ns) / 2.0;
        round.ref_cpu_ns = (before.cpu_ns + after.cpu_ns) / 2.0;
        round
    }

    /// CPU time of every thread of the process but the heater's.
    fn product_cpu_ns(&self) -> u64 {
        process_cpu_ns() - self.heater.as_ref().map_or(0, Heater::cpu_ns)
    }

    /// One calibration block, under its own span.
    pub fn calibrate(&mut self) -> RefOp {
        let span = self.tracer.begin("calibrate");
        let op = self.calibrator.run(&self.product.refgraph);
        self.tracer.end(span);
        op
    }

    /// Checks one frame's reply against the oracle; `None` is a frame the
    /// product refused, and all of it counts as failed.
    fn verify(&mut self, frame: &[QueryRequest], reply: Option<&[QueryOutcome]>) {
        for (slot, request) in frame.iter().enumerate() {
            let ordinal = self.attempted;
            self.attempted += 1;
            let Some(outcome) = reply.map(|outcomes| &outcomes[slot]) else {
                self.fail(request, "no reply (shed or short)");
                continue;
            };
            let truth =
                self.oracle
                    .distance(&self.product.refgraph, request.source, request.target);
            let ok = match (request.mode, outcome) {
                (QueryMode::Distance, QueryOutcome::Distance(d)) => *d == truth,
                (QueryMode::PathGraph, QueryOutcome::PathGraph(pg)) => {
                    pg.distance() == truth
                        && pg.source() == request.source
                        && pg.target() == request.target
                }
                (QueryMode::Sketch, QueryOutcome::Sketch(sketch)) => sketch.upper_bound >= truth,
                _ => false,
            };
            if !ok {
                self.fail(request, &format!("{outcome:?} but the distance is {truth}"));
            } else if ordinal.is_multiple_of(BIT_IDENTITY_STRIDE)
                && self.product.owned.execute(&request.uncached()) != *outcome
            {
                self.fail(request, "differs from one-at-a-time execute");
            }
        }
    }

    fn fail(&mut self, request: &QueryRequest, what: &str) {
        self.failed += 1;
        if self.first_failure.is_none() {
            let what: String = what.chars().take(200).collect();
            self.first_failure = Some(format!(
                "{} {} -> {}: {what}",
                request.mode, request.source, request.target
            ));
        }
    }
}
