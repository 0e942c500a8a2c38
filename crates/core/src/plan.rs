//! Intra-batch request dedupe behind [`crate::Qbs::submit`].
//!
//! Skewed serving traffic repeats itself inside one frame, so before a
//! batch fans out its slots are grouped by their normalised cache key
//! (`(u, v, mode)`, distance orientation-free — the key of
//! [`crate::cache`]). Each distinct key becomes one *job*: a request that
//! asks for the union of what its slots ask for, executed once — one
//! search, one cache lookup, at most one admission — whose outcome is
//! shaped into every duplicate slot by that slot's own options, so no
//! answered bit changes. Requests with an out-of-range endpoint are never
//! coalesced: each keeps its exact per-slot error payload and
//! cache-counter behaviour.
//!
//! Every job runs the same per-query pipeline as a one-at-a-time
//! [`crate::Qbs::execute`], on the executor's one fan-out
//! ([`crate::engine`]); a frame without duplicate keys allocates nothing
//! beyond the key map and takes the plain fan-out directly. No search
//! state is shared between queries.
//!
//! Coalesced duplicate slots are counted in [`PlannerCounters`]; the
//! session's metrics snapshot carries the count across the `Metrics`
//! frame.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::CacheKey;
use crate::request::{QueryOptions, QueryOutcome, QueryRequest};

/// Shared atomic counter of planner effectiveness. One instance lives in
/// each [`crate::Qbs`] session and counts for the session's lifetime.
#[derive(Debug, Default)]
pub struct PlannerCounters {
    dedup_hits: AtomicU64,
}

impl PlannerCounters {
    /// Duplicate batch slots served from another slot's computation.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    pub(crate) fn add_dedup_hits(&self, hits: u64) {
        self.dedup_hits.fetch_add(hits, Ordering::Relaxed);
    }
}

/// A frame with at least one duplicate key, grouped into distinct jobs.
pub(crate) struct Dedup {
    /// One request per distinct key, in first-occurrence order (the first
    /// occurrence's orientation), with `use_cache` / `collect_stats` on
    /// when any of its slots has it on; out-of-range slots are solo jobs.
    pub(crate) jobs: Vec<QueryRequest>,
    /// The job answering each batch slot.
    slot_job: Vec<u32>,
    /// The last slot of each job — the one that takes the outcome by move.
    last_slot: Vec<u32>,
}

impl Dedup {
    /// Records that `job` — the next new one, or an earlier one `req`
    /// repeats — answers `slot`.
    fn push(&mut self, job: u32, slot: u32, req: &QueryRequest) {
        self.slot_job.push(job);
        if job as usize == self.jobs.len() {
            self.last_slot.push(slot);
            self.jobs.push(*req);
        } else {
            self.last_slot[job as usize] = slot;
            let opts = &mut self.jobs[job as usize].opts;
            opts.use_cache |= req.opts.use_cache;
            opts.collect_stats |= req.opts.collect_stats;
        }
    }

    /// Shapes each job's outcome into every slot the job answers, by that
    /// slot's own options. A duplicate slot comes out bit-identical to a
    /// one-at-a-time execution of its request: the job computed the same
    /// canonical answer.
    pub(crate) fn shape(
        &self,
        requests: &[QueryRequest],
        outcomes: Vec<QueryOutcome>,
    ) -> Vec<QueryOutcome> {
        // `None` once a job's last slot has taken the outcome by move.
        let mut outcomes: Vec<Option<QueryOutcome>> = outcomes.into_iter().map(Some).collect();
        let shape_slot = |(slot, req): (usize, &QueryRequest)| {
            let job = self.slot_job[slot] as usize;
            let outcome = if self.last_slot[job] as usize == slot {
                outcomes[job].take()
            } else {
                outcomes[job].clone()
            };
            without_unasked_stats(outcome.expect("a job's last slot comes last"), &req.opts)
        };
        requests.iter().enumerate().map(shape_slot).collect()
    }
}

/// A job collects statistics when any of its slots asks for them; a slot
/// that did not gets the bare path graph, as if executed alone.
fn without_unasked_stats(outcome: QueryOutcome, opts: &QueryOptions) -> QueryOutcome {
    match outcome {
        QueryOutcome::PathGraphWithStats(answer) if !opts.collect_stats => {
            QueryOutcome::PathGraph(Box::new(answer.path_graph))
        }
        asked => asked,
    }
}

/// Groups the slots of a frame over `n` vertices by normalised cache key.
/// `None` when no key repeats — the frame then runs slot by slot.
pub(crate) fn dedupe(requests: &[QueryRequest], n: usize) -> Option<Dedup> {
    if requests.len() < 2 {
        return None;
    }
    let mut by_key: HashMap<CacheKey, u32> = HashMap::with_capacity(requests.len());
    let mut dedup: Option<Dedup> = None;
    for (slot, req) in requests.iter().enumerate() {
        // Until the first duplicate every slot is its own job.
        let next_job = dedup.as_ref().map_or(slot, |d| d.jobs.len()) as u32;
        // Error payloads are orientation-sensitive and every out-of-range
        // execution counts its own cache miss — keep those slots solo.
        let in_range = (req.source as usize) < n && (req.target as usize) < n;
        let job = if in_range {
            *by_key.entry(CacheKey::for_request(req)).or_insert(next_job)
        } else {
            next_job
        };
        if job != next_job && dedup.is_none() {
            let solo: Vec<u32> = (0..slot as u32).collect();
            dedup = Some(Dedup {
                jobs: requests[..slot].to_vec(),
                slot_job: solo.clone(),
                last_slot: solo,
            });
        }
        if let Some(d) = &mut dedup {
            d.push(job, slot as u32, req);
        }
    }
    dedup
}
