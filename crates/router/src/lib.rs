//! # qbs-router
//!
//! The replicated scatter/gather serving tier: a [`QbsRouter`] process
//! accepts client connections on the exact same framed TCP protocol as
//! `qbs serve` (reusing the `qbs-server` reactor via
//! [`qbs_server::ServeBackend`]) and scatters each incoming batch across
//! a pool of backend replicas, gathering the outcomes back into slot
//! order so routed answers are **bit-identical** to a single-process
//! [`qbs_core::Qbs::submit`] over the same index.
//!
//! The crate is **std-only**, like the rest of the workspace. Pieces:
//!
//! * [`pool`] — the [`ReplicaPool`]: per-replica idle-connection reuse,
//!   least-in-flight balancing, and the health state machine
//!   (consecutive-failure ejection, exponential-backoff re-admission,
//!   half-open probing);
//! * [`router`] — [`RouterConfig`] / [`QbsRouter`] / [`RouterHandle`]
//!   and the scatter/gather [`RouterBackend`]: contiguous sub-batches to
//!   the least-loaded healthy replicas, pipelined sends before any
//!   gather, bounded retry onto different replicas on `Busy` sheds and
//!   connection failures, and typed
//!   `RequestError::Unavailable` per-slot fills when every replica is
//!   down — never a hang. A background prober pings replicas each
//!   interval so a replica that dies while idle is ejected before
//!   traffic hits it.
//!
//! Observability rides the normal `Stats` frame: the router answers it
//! with per-replica engine counters merged into one
//! [`qbs_core::EngineStats`] plus a [`qbs_core::RouterStats`] section
//! (per-replica request counts, retries, ejections, failure totals,
//! in-flight gauges) that `qbs client --stats` renders. The `Metrics`
//! frame answers with every replica's latency histograms merged
//! bucket-wise into the router's own routing-tier stages, client trace
//! IDs are propagated onto every scattered sub-batch (so one slow
//! request is findable in replica slow-query logs), and
//! [`RouterConfig::metrics_addr`] exposes the merged registry over HTTP
//! `GET /metrics`. See `docs/router.md` for topology and
//! `docs/observability.md` for the metric families.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod router;

pub use pool::{HealthConfig, Replica, ReplicaPool};
pub use router::{QbsRouter, RouterBackend, RouterConfig, RouterHandle};
