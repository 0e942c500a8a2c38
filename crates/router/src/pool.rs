//! The replica pool: least-in-flight balancing and the health/ejection
//! state machine.
//!
//! A [`Replica`] is one backend `qbs serve` process. The pool holds no
//! connection (the forwarder owns the one link per replica that carries
//! batches, probes and polls); it keeps an in-flight request gauge the
//! balancer sorts on, and a tiny health state machine:
//!
//! * every failed exchange (dial, I/O, protocol fault, deadline) bumps a
//!   consecutive-failure counter; reaching
//!   [`HealthConfig::eject_after`] **ejects** the replica for the
//!   current backoff window;
//! * the backoff doubles per ejection up to
//!   [`HealthConfig::backoff_max`], so a flapping replica is probed at a
//!   gentle cadence instead of hammered;
//! * once the window expires the replica is *half-open*: eligible for
//!   traffic and probes again, and one success
//!   ([`Replica::record_success`]) fully re-admits it (resetting the
//!   failure count and the backoff ladder).
//!
//! `Busy` sheds are **not** health failures — a shedding replica is
//! healthy, just loaded — the router retries them elsewhere without
//! touching the failure counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qbs_core::MetricsSnapshot;
use qbs_server::ClientConfig;

/// Health/ejection knobs shared by batches, probes and polls.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Consecutive failures that eject a replica.
    pub eject_after: u32,
    /// First ejection window.
    pub backoff_initial: Duration,
    /// Ceiling of the per-ejection doubling.
    pub backoff_max: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            eject_after: 3,
            backoff_initial: Duration::from_millis(250),
            backoff_max: Duration::from_secs(8),
        }
    }
}

/// Mutable health state, guarded by one mutex per replica.
#[derive(Debug)]
struct Health {
    consecutive_failures: u32,
    /// `Some(until)` while ejected; past `until` the replica is
    /// half-open (eligible again, one failure re-ejects with a doubled
    /// window).
    ejected_until: Option<Instant>,
    /// Next ejection window.
    backoff: Duration,
}

/// One backend replica: address, gauges, health.
#[derive(Debug)]
pub struct Replica {
    addr: String,
    in_flight: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    retries: AtomicU64,
    ejections: AtomicU64,
    failures: AtomicU64,
    health: Mutex<Health>,
}

impl Replica {
    fn new(addr: String, health: &HealthConfig) -> Replica {
        Replica {
            addr,
            in_flight: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            health: Mutex::new(Health {
                consecutive_failures: 0,
                ejected_until: None,
                backoff: health.backoff_initial,
            }),
        }
    }

    /// The replica's dial address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the replica may receive traffic now: never ejected, or
    /// its ejection window has expired (half-open).
    pub fn is_available(&self, now: Instant) -> bool {
        let health = self.health.lock().expect("health poisoned");
        match health.ejected_until {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// Requests currently outstanding against this replica.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Marks `n` requests as shipped to this replica.
    pub fn start_requests(&self, n: u64) {
        self.in_flight.fetch_add(n, Ordering::SeqCst);
        self.requests.fetch_add(n, Ordering::SeqCst);
        self.batches.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks `n` previously started requests as resolved (answered or
    /// abandoned).
    pub fn finish_requests(&self, n: u64) {
        self.in_flight.fetch_sub(n, Ordering::SeqCst);
    }

    /// Counts `n` requests retried *away* from this replica.
    pub fn count_retries(&self, n: u64) {
        self.retries.fetch_add(n, Ordering::SeqCst);
    }

    /// A successful exchange: resets the failure count, closes any
    /// ejection, and restarts the backoff ladder.
    pub fn record_success(&self, config: &HealthConfig) {
        let mut health = self.health.lock().expect("health poisoned");
        health.consecutive_failures = 0;
        health.ejected_until = None;
        health.backoff = config.backoff_initial;
    }

    /// A failed exchange (dial, I/O, protocol fault — *not* a `Busy`
    /// shed). Returns `true` when this failure ejected the replica.
    pub fn record_failure(&self, config: &HealthConfig) -> bool {
        self.failures.fetch_add(1, Ordering::SeqCst);
        let mut health = self.health.lock().expect("health poisoned");
        health.consecutive_failures += 1;
        if health.consecutive_failures < config.eject_after.max(1) {
            return false;
        }
        health.consecutive_failures = 0;
        health.ejected_until = Some(Instant::now() + health.backoff);
        health.backoff = health.backoff.saturating_mul(2).min(config.backoff_max);
        self.ejections.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Appends this replica's counters, labelled with its address.
    pub fn snapshot_into(&self, out: &mut MetricsSnapshot) {
        use qbs_core::counter::*;
        let (healthy, consecutive_failures) = {
            let health = self.health.lock().expect("health poisoned");
            let ejected = health.ejected_until.is_some_and(|t| Instant::now() < t);
            (u64::from(!ejected), u64::from(health.consecutive_failures))
        };
        out.push_replica(REPLICA_HEALTHY, &self.addr, healthy);
        for (def, counter) in [
            (REPLICA_REQUESTS, &self.requests),
            (REPLICA_BATCHES, &self.batches),
            (REPLICA_RETRIES, &self.retries),
            (REPLICA_EJECTIONS, &self.ejections),
            (REPLICA_IN_FLIGHT, &self.in_flight),
            (REPLICA_FAILURES, &self.failures),
        ] {
            out.push_replica(def, &self.addr, counter.load(Ordering::SeqCst));
        }
        out.push_replica(
            REPLICA_CONSECUTIVE_FAILURES,
            &self.addr,
            consecutive_failures,
        );
    }
}

/// The full set of replicas plus the shared client configuration.
#[derive(Debug)]
pub struct ReplicaPool {
    replicas: Vec<Replica>,
    client: ClientConfig,
    health: HealthConfig,
}

impl ReplicaPool {
    /// Builds the pool. No connections are dialled here — the
    /// forwarder's first probe does that.
    pub fn new(addrs: Vec<String>, client: ClientConfig, health: HealthConfig) -> ReplicaPool {
        ReplicaPool {
            replicas: addrs
                .into_iter()
                .map(|addr| Replica::new(addr, &health))
                .collect(),
            client,
            health,
        }
    }

    /// Number of replicas (healthy or not).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the pool has no replicas at all.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replicas, in configuration order.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The client configuration every replica link dials with.
    pub fn client_config(&self) -> ClientConfig {
        self.client
    }

    /// The health knobs.
    pub fn health_config(&self) -> &HealthConfig {
        &self.health
    }

    /// Replicas currently eligible for traffic.
    pub fn available(&self, now: Instant) -> usize {
        self.replicas.iter().filter(|r| r.is_available(now)).count()
    }

    /// Picks the best replica (fewest in-flight requests, ties to the
    /// lowest index) that is not in `exclude`, preferring available
    /// replicas. When **every** replica is ejected — the
    /// all-replicas-down regime — the least-loaded ejected one is
    /// returned anyway: a bounded dial attempt with a typed failure beats
    /// refusing outright, and it doubles as a half-open probe. Returns
    /// `None` only when `exclude` exhausts the pool.
    pub fn pick(&self, exclude: &[usize]) -> Option<usize> {
        let now = Instant::now();
        let eligible = |available_only: bool| {
            (0..self.replicas.len())
                .filter(|i| !exclude.contains(i))
                .filter(|&i| !available_only || self.replicas[i].is_available(now))
                .min_by_key(|&i| (self.replicas[i].in_flight(), i))
        };
        eligible(true).or_else(|| eligible(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> ReplicaPool {
        let addrs = (0..n).map(|i| format!("127.0.0.1:{}", 7500 + i)).collect();
        ReplicaPool::new(addrs, ClientConfig::default(), HealthConfig::default())
    }

    #[test]
    fn pick_prefers_least_in_flight() {
        let pool = pool(3);
        pool.replicas()[0].start_requests(10);
        pool.replicas()[1].start_requests(2);
        pool.replicas()[2].start_requests(5);
        assert_eq!(pool.pick(&[]), Some(1));
        assert_eq!(pool.pick(&[1]), Some(2));
        assert_eq!(pool.pick(&[1, 2]), Some(0));
        assert_eq!(pool.pick(&[0, 1, 2]), None);
    }

    #[test]
    fn ejection_requires_consecutive_failures_and_backs_off() {
        let health = HealthConfig {
            eject_after: 3,
            backoff_initial: Duration::from_millis(50),
            backoff_max: Duration::from_millis(100),
        };
        let pool = ReplicaPool::new(
            vec!["127.0.0.1:7599".into()],
            ClientConfig::default(),
            health,
        );
        let replica = &pool.replicas()[0];
        assert!(!replica.record_failure(&health));
        replica.record_success(&health);
        assert!(!replica.record_failure(&health));
        assert!(!replica.record_failure(&health));
        assert!(replica.record_failure(&health), "third consecutive ejects");
        assert!(!replica.is_available(Instant::now()));
        assert!(replica.is_available(Instant::now() + Duration::from_millis(60)));
        let mut snap = MetricsSnapshot::default();
        replica.snapshot_into(&mut snap);
        assert_eq!(
            snap.replica(qbs_core::counter::REPLICA_EJECTIONS, "127.0.0.1:7599"),
            Some(1)
        );
        assert_eq!(
            snap.replica(qbs_core::counter::REPLICA_HEALTHY, "127.0.0.1:7599"),
            Some(0)
        );
    }

    #[test]
    fn all_ejected_still_picks_a_victim() {
        let health = HealthConfig {
            eject_after: 1,
            backoff_initial: Duration::from_secs(60),
            backoff_max: Duration::from_secs(60),
        };
        let pool = ReplicaPool::new(
            vec!["127.0.0.1:7601".into(), "127.0.0.1:7602".into()],
            ClientConfig::default(),
            health,
        );
        assert!(pool.replicas()[0].record_failure(&health));
        assert!(pool.replicas()[1].record_failure(&health));
        assert_eq!(pool.available(Instant::now()), 0);
        assert!(pool.pick(&[]).is_some(), "all-down must not refuse");
    }

    #[test]
    fn half_open_success_readmits_and_resets_the_ladder() {
        let health = HealthConfig {
            eject_after: 1,
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(80),
        };
        let pool = ReplicaPool::new(
            vec!["127.0.0.1:7603".into()],
            ClientConfig::default(),
            health,
        );
        let replica = &pool.replicas()[0];
        assert!(replica.record_failure(&health)); // window: 10ms, next 20ms
        assert!(replica.record_failure(&health)); // window: 20ms, next 40ms
        replica.record_success(&health);
        assert!(replica.is_available(Instant::now()));
        // Ladder restarted: the next ejection uses the initial window.
        assert!(replica.record_failure(&health));
        assert!(replica.is_available(Instant::now() + Duration::from_millis(15)));
    }
}
