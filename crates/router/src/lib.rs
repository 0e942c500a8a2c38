//! # qbs-router
//!
//! The replicated scatter/gather serving tier: a [`QbsRouter`] process
//! accepts client connections on the exact same framed TCP protocol as
//! `qbs serve` (reusing the `qbs-server` reactor via
//! [`qbs_server::ServeBackend`]) and scatters each incoming batch across
//! a pool of backend replicas, splicing the replies back into slot order
//! so routed answers are **bit-identical** to a single-process
//! [`qbs_core::Qbs::submit`] over the same index.
//!
//! The crate is **std-only**, like the rest of the workspace. Pieces:
//!
//! * [`pool`] — the [`ReplicaPool`]: least-in-flight balancing, the
//!   in-flight gauges, and the health state machine
//!   (consecutive-failure ejection, exponential-backoff re-admission,
//!   half-open probing);
//! * [`router`] — [`RouterConfig`] / [`QbsRouter`] / [`RouterHandle`]
//!   and the [`RouterBackend`], whose forward hook keeps every batch on
//!   the reactor thread: a forwarder owning one nonblocking, pipelined
//!   connection per replica cuts each admitted batch into byte ranges,
//!   sends them all before reading any reply, validates each reply
//!   without decoding it, retries a failed, shed, mismatched or late
//!   range on a replica it has not tried (bounded by `max_retries`), and
//!   splices the outcome bytes behind one count — typed
//!   `RequestError::Unavailable` per-slot fills when every candidate is
//!   down, never a hang. The same connections carry a health-probe
//!   `Ping` to every available replica each interval, so a replica that
//!   dies while idle is ejected before traffic hits it, and the routed
//!   `Metrics` polls: a router is one thread with one connection per
//!   replica.
//!
//! Observability rides the normal `Metrics` frame: the router answers it
//! with its own snapshot — routing counters, per-replica counters
//! labelled `replica="H:P"` (request counts, retries, ejections, failure
//! totals, in-flight gauges), admission, routing-tier histograms — with
//! one snapshot from every available replica folded in (traffic summed,
//! index facts maximised, histograms merged bucket-wise), which `qbs
//! client --metrics` renders. Client trace IDs are propagated onto every
//! scattered sub-batch (so one slow request is findable in replica
//! slow-query logs), and [`RouterConfig::metrics_addr`] exposes the same
//! snapshot over HTTP `GET /metrics`. See `docs/router.md` for topology and
//! `docs/observability.md` for the metric families.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod router;
mod scatter;

pub use pool::{HealthConfig, Replica, ReplicaPool};
pub use router::{QbsRouter, RouterBackend, RouterConfig, RouterHandle};
