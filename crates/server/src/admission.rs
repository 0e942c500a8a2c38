//! Admission control: the server's first-class load-shedding layer.
//!
//! A serving process in front of a microsecond-latency index dies from
//! *acceptance*, not from work: unbounded in-flight requests blow the
//! memory budget, unbounded connections starve the handler pool, and an
//! unbounded accept backlog turns overload into client-side hangs. This
//! module makes all three bounds explicit and **sheds instead of
//! queueing**: work beyond a bound is answered with a typed
//! [`BusyReason`] (carried in the protocol's `Busy` frame) the moment it
//! arrives, so a client always gets a fast, actionable answer — never a
//! stalled socket.
//!
//! Three independent bounds ([`AdmissionConfig`]):
//!
//! * **in-flight requests** — a counting semaphore over the *requests*
//!   (not batches) currently executing; a batch atomically acquires one
//!   permit per request or is shed whole ([`BusyReason::Overloaded`]);
//! * **batch size** — a per-connection cap on requests per batch frame
//!   ([`BusyReason::BatchTooLarge`]); oversized batches are refused
//!   before touching the semaphore;
//! * **connections** — a cap on concurrently served connections
//!   ([`BusyReason::TooManyConnections`]); the listener completes the
//!   handshake, sends the `Busy` frame and closes, so a shed client sees
//!   a typed refusal instead of an accept queue that never drains.
//!
//! All counters are exported ([`Admission::snapshot_into`]) into the
//! `Metrics` snapshot the protocol frame and `GET /metrics` serve.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use qbs_core::counter;
use qbs_core::wire::{Wire, WireError, WireReader};
use qbs_core::MetricsSnapshot;

/// Bounds enforced by [`Admission`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum requests executing concurrently across all connections.
    pub max_inflight: usize,
    /// Maximum requests in one batch frame.
    pub max_batch: usize,
    /// Maximum concurrently served connections. The reactor parks idle
    /// connections for the cost of a pollfd entry, so this defaults high;
    /// it exists to keep a connection flood below the process's fd limit,
    /// shedding the excess with a typed
    /// [`BusyReason::TooManyConnections`].
    pub max_connections: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 4_096,
            max_batch: 4_096,
            max_connections: 1_024,
        }
    }
}

/// Why a batch or connection was shed — the payload of the protocol's
/// `Busy` response frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusyReason {
    /// Admitting the batch would exceed the in-flight request bound.
    Overloaded {
        /// The configured in-flight bound.
        limit: u64,
        /// Requests already in flight when the batch arrived.
        inflight: u64,
        /// Size of the refused batch.
        got: u64,
    },
    /// The batch exceeds the per-batch request cap.
    BatchTooLarge {
        /// The configured cap.
        limit: u64,
        /// Size of the refused batch.
        got: u64,
    },
    /// The server is at its connection bound.
    TooManyConnections {
        /// The configured bound.
        limit: u64,
    },
}

impl std::fmt::Display for BusyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusyReason::Overloaded {
                limit,
                inflight,
                got,
            } => write!(
                f,
                "overloaded: {got} requests would exceed the in-flight bound \
                 ({inflight}/{limit} already executing)"
            ),
            BusyReason::BatchTooLarge { limit, got } => {
                write!(f, "batch of {got} requests exceeds the {limit}-request cap")
            }
            BusyReason::TooManyConnections { limit } => {
                write!(
                    f,
                    "connection bound reached ({limit} concurrent connections)"
                )
            }
        }
    }
}

impl Wire for BusyReason {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BusyReason::Overloaded {
                limit,
                inflight,
                got,
            } => {
                out.push(0);
                out.extend_from_slice(&limit.to_le_bytes());
                out.extend_from_slice(&inflight.to_le_bytes());
                out.extend_from_slice(&got.to_le_bytes());
            }
            BusyReason::BatchTooLarge { limit, got } => {
                out.push(1);
                out.extend_from_slice(&limit.to_le_bytes());
                out.extend_from_slice(&got.to_le_bytes());
            }
            BusyReason::TooManyConnections { limit } => {
                out.push(2);
                out.extend_from_slice(&limit.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("busy reason")? {
            0 => Ok(BusyReason::Overloaded {
                limit: r.u64("inflight limit")?,
                inflight: r.u64("inflight now")?,
                got: r.u64("batch size")?,
            }),
            1 => Ok(BusyReason::BatchTooLarge {
                limit: r.u64("batch limit")?,
                got: r.u64("batch size")?,
            }),
            2 => Ok(BusyReason::TooManyConnections {
                limit: r.u64("connection limit")?,
            }),
            tag => Err(WireError::BadTag {
                what: "busy reason",
                tag: tag as u64,
            }),
        }
    }
}

/// Live admission counters protected by one mutex (permits are only
/// touched at batch/connection boundaries, never per query).
#[derive(Debug, Default)]
struct Counts {
    inflight: usize,
    connections: usize,
}

/// The admission controller shared by the listener and every handler.
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    counts: Mutex<Counts>,
    /// Signalled whenever permits are released, so [`Admission::drain`]
    /// can wait for the in-flight count to reach zero.
    drained: Condvar,
    admitted_batches: AtomicU64,
    admitted_requests: AtomicU64,
    shed_overload: AtomicU64,
    shed_batch_size: AtomicU64,
    shed_connections: AtomicU64,
}

impl Admission {
    /// Creates a controller over the given bounds.
    pub fn new(config: AdmissionConfig) -> Self {
        Admission {
            config,
            counts: Mutex::new(Counts::default()),
            drained: Condvar::new(),
            admitted_batches: AtomicU64::new(0),
            admitted_requests: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_batch_size: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Tries to admit a batch of `requests` requests: the per-batch cap is
    /// checked first, then one in-flight permit per request is acquired
    /// atomically. Sheds (with the precise [`BusyReason`]) instead of
    /// blocking. The returned guard holds the controller by `Arc`, so the
    /// permit can travel with the decoded batch from the reactor thread to
    /// whichever worker executes it; it releases the permits on drop.
    pub fn admit_batch(self: &Arc<Self>, requests: usize) -> Result<InflightGuard, BusyReason> {
        if requests > self.config.max_batch {
            self.shed_batch_size.fetch_add(1, Ordering::Relaxed);
            return Err(BusyReason::BatchTooLarge {
                limit: self.config.max_batch as u64,
                got: requests as u64,
            });
        }
        let mut counts = self.counts.lock().expect("admission counts poisoned");
        if counts.inflight + requests > self.config.max_inflight {
            let inflight = counts.inflight as u64;
            drop(counts);
            self.shed_overload.fetch_add(1, Ordering::Relaxed);
            return Err(BusyReason::Overloaded {
                limit: self.config.max_inflight as u64,
                inflight,
                got: requests as u64,
            });
        }
        counts.inflight += requests;
        drop(counts);
        self.admitted_batches.fetch_add(1, Ordering::Relaxed);
        self.admitted_requests
            .fetch_add(requests as u64, Ordering::Relaxed);
        Ok(InflightGuard {
            admission: Arc::clone(self),
            requests,
        })
    }

    /// Tries to claim a connection slot; sheds at the bound. The guard is
    /// stored in the reactor's per-connection state and releases the slot
    /// on drop.
    pub fn admit_connection(self: &Arc<Self>) -> Result<ConnectionGuard, BusyReason> {
        let mut counts = self.counts.lock().expect("admission counts poisoned");
        if counts.connections >= self.config.max_connections {
            drop(counts);
            self.shed_connections.fetch_add(1, Ordering::Relaxed);
            return Err(BusyReason::TooManyConnections {
                limit: self.config.max_connections as u64,
            });
        }
        counts.connections += 1;
        drop(counts);
        Ok(ConnectionGuard {
            admission: Arc::clone(self),
        })
    }

    /// Releases a batch's in-flight permits (the guards' drop path).
    fn release_batch(&self, requests: usize) {
        let mut counts = self.counts.lock().expect("admission counts poisoned");
        counts.inflight -= requests;
        if counts.inflight == 0 {
            self.drained.notify_all();
        }
    }

    /// Releases a connection slot (the guards' drop path).
    fn release_connection(&self) {
        let mut counts = self.counts.lock().expect("admission counts poisoned");
        counts.connections -= 1;
    }

    /// Blocks until no requests are in flight — the shutdown drain.
    pub fn drain(&self) {
        let counts = self.counts.lock().expect("admission counts poisoned");
        let _unused = self
            .drained
            .wait_while(counts, |c| c.inflight > 0)
            .expect("admission counts poisoned");
    }

    /// Appends the admission counters (the answering process's own) to a
    /// telemetry snapshot.
    pub fn snapshot_into(&self, out: &mut MetricsSnapshot) {
        let (inflight, connections) = {
            let counts = self.counts.lock().expect("admission counts poisoned");
            (counts.inflight as u64, counts.connections as u64)
        };
        for (def, counter) in [
            (counter::ADMITTED_BATCHES, &self.admitted_batches),
            (counter::ADMITTED_REQUESTS, &self.admitted_requests),
            (counter::SHED_OVERLOAD, &self.shed_overload),
            (counter::SHED_BATCH_SIZE, &self.shed_batch_size),
            (counter::SHED_CONNECTIONS, &self.shed_connections),
        ] {
            out.push(def, counter.load(Ordering::Relaxed));
        }
        out.push(counter::INFLIGHT, inflight);
        out.push(counter::CONNECTIONS, connections);
    }
}

/// RAII permit over a batch's in-flight requests. It holds the controller
/// by `Arc`, so the permit can cross threads with the work it covers.
#[derive(Debug)]
pub struct InflightGuard {
    admission: Arc<Admission>,
    requests: usize,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.admission.release_batch(self.requests);
    }
}

/// RAII permit over one served connection, stored in per-connection state
/// that outlives any one stack frame.
#[derive(Debug)]
pub struct ConnectionGuard {
    admission: Arc<Admission>,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.admission.release_connection();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_core::wire::{from_bytes, to_bytes};

    fn config(max_inflight: usize, max_batch: usize, max_connections: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_inflight,
            max_batch,
            max_connections,
        }
    }

    fn count(admission: &Admission, def: qbs_core::CounterDef) -> u64 {
        let mut snap = MetricsSnapshot::default();
        admission.snapshot_into(&mut snap);
        snap.get(def).expect("admission exports every counter")
    }

    #[test]
    fn batches_acquire_one_permit_per_request() {
        let admission = Arc::new(Admission::new(config(10, 8, 4)));
        let a = admission.admit_batch(6).expect("fits");
        assert_eq!(count(&admission, counter::INFLIGHT), 6);
        let err = admission.admit_batch(5).expect_err("would exceed 10");
        assert_eq!(
            err,
            BusyReason::Overloaded {
                limit: 10,
                inflight: 6,
                got: 5
            }
        );
        let b = admission.admit_batch(4).expect("exactly fills the bound");
        assert_eq!(count(&admission, counter::INFLIGHT), 10);
        drop(a);
        assert_eq!(count(&admission, counter::INFLIGHT), 4);
        drop(b);
        assert_eq!(count(&admission, counter::INFLIGHT), 0);
        assert_eq!(count(&admission, counter::ADMITTED_BATCHES), 2);
        assert_eq!(count(&admission, counter::ADMITTED_REQUESTS), 10);
        assert_eq!(count(&admission, counter::SHED_OVERLOAD), 1);
    }

    #[test]
    fn oversized_batches_are_refused_before_the_semaphore() {
        let admission = Arc::new(Admission::new(config(100, 8, 4)));
        let err = admission.admit_batch(9).expect_err("over the cap");
        assert_eq!(err, BusyReason::BatchTooLarge { limit: 8, got: 9 });
        assert_eq!(count(&admission, counter::SHED_BATCH_SIZE), 1);
        assert_eq!(
            count(&admission, counter::INFLIGHT),
            0,
            "no permits were consumed"
        );
        // Empty batches are always admissible.
        let _g = admission.admit_batch(0).expect("empty batch");
    }

    #[test]
    fn connection_slots_are_bounded() {
        let admission = Arc::new(Admission::new(config(10, 8, 2)));
        let a = admission.admit_connection().expect("slot 1");
        let _b = admission.admit_connection().expect("slot 2");
        let err = admission.admit_connection().expect_err("bound reached");
        assert_eq!(err, BusyReason::TooManyConnections { limit: 2 });
        drop(a);
        let _c = admission.admit_connection().expect("slot freed");
        assert_eq!(count(&admission, counter::SHED_CONNECTIONS), 1);
        assert_eq!(count(&admission, counter::CONNECTIONS), 2);
    }

    #[test]
    fn owned_guards_release_across_threads() {
        let admission = Arc::new(Admission::new(config(10, 8, 2)));
        let batch = admission.admit_batch(4).expect("admit");
        let conn = admission.admit_connection().expect("slot");
        assert_eq!(count(&admission, counter::INFLIGHT), 4);
        assert_eq!(count(&admission, counter::CONNECTIONS), 1);
        let handle = std::thread::spawn(move || {
            drop(batch);
            drop(conn);
        });
        handle.join().unwrap();
        assert_eq!(count(&admission, counter::INFLIGHT), 0);
        assert_eq!(count(&admission, counter::CONNECTIONS), 0);
        // The bounds hold as before once the guards have crossed threads.
        let _a = admission.admit_connection().expect("slot 1");
        let _b = admission.admit_connection().expect("slot 2");
        assert!(admission.admit_connection().is_err());
        assert!(admission.admit_batch(9).is_err());
    }

    #[test]
    fn drain_waits_for_inflight_to_empty() {
        let admission = Arc::new(Admission::new(config(10, 8, 4)));
        let guard = admission.admit_batch(3).expect("admit");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                drop(guard);
            });
            admission.drain();
            assert_eq!(count(&admission, counter::INFLIGHT), 0);
        });
        // Draining an idle controller returns immediately.
        admission.drain();
    }

    #[test]
    fn busy_reasons_and_stats_roundtrip_the_wire() {
        for reason in [
            BusyReason::Overloaded {
                limit: 64,
                inflight: 60,
                got: 8,
            },
            BusyReason::BatchTooLarge { limit: 16, got: 40 },
            BusyReason::TooManyConnections { limit: 2 },
        ] {
            assert_eq!(
                from_bytes::<BusyReason>(&to_bytes(&reason)).unwrap(),
                reason
            );
            assert!(!reason.to_string().is_empty());
        }
        assert!(from_bytes::<BusyReason>(&[7]).is_err());
        // Tag 3 was the pre-reactor `NoIdleHandler`; it is unknown now.
        let mut retired = vec![3];
        retired.extend_from_slice(&4u64.to_le_bytes());
        assert!(matches!(
            from_bytes::<BusyReason>(&retired),
            Err(WireError::BadTag { tag: 3, .. })
        ));

        // The admission counters ride the wire inside a snapshot.
        let admission = Arc::new(Admission::new(config(10, 8, 2)));
        let _batch = admission.admit_batch(3).expect("admit");
        let _ = admission.admit_batch(9).expect_err("oversized");
        let mut snap = MetricsSnapshot::default();
        admission.snapshot_into(&mut snap);
        assert_eq!(
            from_bytes::<MetricsSnapshot>(&to_bytes(&snap)).unwrap(),
            snap
        );
        let text = snap.render_text();
        assert!(text.contains("shed 0 overload + 1 oversized"), "{text}");
        assert!(text.contains("3 in flight"), "{text}");
    }
}
