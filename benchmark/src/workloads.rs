//! The four workloads: what each one runs, on which graph, and why.
//!
//! Sizes are pinned here. A run aborts when a generated graph's
//! `(n, m, fingerprint)` differs from its pin, so a change to `qbs-gen`
//! cannot silently change the load.

use std::collections::{BTreeMap, HashMap};

use qbs_core::{QueryMode, QueryRequest};
use qbs_gen::catalog::{Catalog, DatasetId, DatasetSpec, Scale};

use crate::rng::{SplitMix64, Zipf};

/// Landmarks of every index built here (the paper's default |R|).
pub const LANDMARKS: usize = 20;

/// Seed of the Zipf rank-to-vertex shuffle. Fixed, so the hot vertices —
/// and with them the cost of a hot query — are the same under every
/// `--seed`; the seed draws the sequence, not the popularity map.
const RANK_MAP_SEED: u64 = 0x21AF_5EED;

/// Zipf exponent of `batch-zipf`. Pinned; revisit only if
/// `cache.repeat_frac` leaves 0.3–0.7.
pub const ZIPF_EXPONENT: f64 = 1.3;

/// Hot vertices the oracle keeps a BFS row for (Zipf workloads).
const ORACLE_HOT_ROWS: usize = 128;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pairs {
    Uniform,
    Zipf,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Driver {
    /// One thread calling `Qbs::execute` per request, closed loop.
    Execute,
    /// One thread calling `Qbs::submit` per frame, closed loop.
    Submit,
    /// One client connection to a router over two replicas, frames sent
    /// on a Poisson schedule whatever the replies do.
    RoutedOpen { frames_per_s: f64 },
}

/// Identity of a generated graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    pub n: usize,
    pub m: usize,
    pub fingerprint: u64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: DatasetId,
    /// Identity of the graph at `Scale::Large`.
    pub pin: Pin,
    /// Serve from `save_to_file` + `Qbs::open(.., Mmap)`, not the owned
    /// build.
    pub mapped: bool,
    pub threads: usize,
    pub cache_capacity: Option<usize>,
    pub pairs: Pairs,
    /// Percent of requests that are Distance / PathGraph; the rest are
    /// Sketch.
    pub distance_pct: u64,
    pub path_graph_pct: u64,
    pub driver: Driver,
    /// Requests per call (`execute` takes one).
    pub frame: usize,
    pub calls_per_round: usize,
    /// Product set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// CPUs the workload keeps busy, and so lanes of its calibration
    /// block.
    pub busy_cpus: usize,
    /// Queries per calibration block.
    pub calibration_pairs: usize,
    /// What one ref-op of the workload's calibration block took on the
    /// builder's box in calm weather, in nanoseconds: the exchange rate from
    /// ref-ops to the calibrated seconds `setup_s` is reported in. A
    /// constant, never re-measured.
    pub nominal_ref_op_ns: f64,
    /// Requests per block of the per-layer probes.
    pub probe_requests: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spg-hub",
        why: "Paper's headline case: path graphs on a hub-dominated graph, most pairs landmark-covered, so sketch, labels and materialisation do the work; plan, cache, engine, wire, server, router are bypassed.",
        dataset: DatasetId::Youtube,
        pin: Pin {
            n: 72_338,
            m: 216_611,
            fingerprint: 0xD919_2756_0714_8AD2,
        },
        mapped: false,
        threads: 1,
        cache_capacity: None,
        pairs: Pairs::Uniform,
        distance_pct: 0,
        path_graph_pct: 100,
        driver: Driver::Execute,
        frame: 1,
        calls_per_round: 4_000,
        setup_reps: 3,
        busy_cpus: 1,
        calibration_pairs: 2_000,
        nominal_ref_op_ns: 7_000.0,
        probe_requests: 2_000,
    },
    Workload {
        name: "dist-flat-mapped",
        why: "Opposite regime: distances on a hub-free graph served from an mmap'd index file, so the guided bidirectional search reading adjacency through the store view is nearly all the time.",
        dataset: DatasetId::LiveJournal,
        pin: Pin {
            n: 124_992,
            m: 1_123_621,
            fingerprint: 0x6AE1_EFD1_6282_493C,
        },
        mapped: true,
        threads: 1,
        cache_capacity: None,
        pairs: Pairs::Uniform,
        distance_pct: 100,
        path_graph_pct: 0,
        driver: Driver::Execute,
        frame: 1,
        calls_per_round: 500,
        setup_reps: 2,
        busy_cpus: 1,
        calibration_pairs: 300,
        nominal_ref_op_ns: 44_000.0,
        probe_requests: 400,
    },
    Workload {
        name: "batch-zipf",
        why: "Skewed 64-request batches through submit with 2 threads and a cache far smaller than the key space: the only workload where planner, cache reads and writes, and engine fan-out do most of the work.",
        dataset: DatasetId::Skitter,
        pin: Pin {
            n: 100_000,
            m: 599_979,
            fingerprint: 0x40E5_4484_6EAE_81FB,
        },
        mapped: false,
        threads: 2,
        cache_capacity: Some(4_096),
        pairs: Pairs::Zipf,
        distance_pct: 75,
        path_graph_pct: 25,
        driver: Driver::Submit,
        frame: 64,
        calls_per_round: 128,
        setup_reps: 2,
        busy_cpus: 2,
        calibration_pairs: 2_000,
        nominal_ref_op_ns: 6_000.0,
        probe_requests: 2_048,
    },
    Workload {
        name: "routed-open",
        why: "Open loop at 500 frames/s through router and two replicas on loopback: execution is a small part of a frame, so wire, server hand-off and router scatter/gather dominate latency and CPU.",
        dataset: DatasetId::Youtube,
        pin: Pin {
            n: 72_338,
            m: 216_611,
            fingerprint: 0xD919_2756_0714_8AD2,
        },
        mapped: false,
        threads: 1,
        cache_capacity: None,
        pairs: Pairs::Uniform,
        distance_pct: 70,
        path_graph_pct: 20,
        driver: Driver::RoutedOpen {
            frames_per_s: 500.0,
        },
        frame: 16,
        // A round's p90 has ten samples beyond it.
        calls_per_round: 100,
        setup_reps: 3,
        // The tier and its client are pinned to one CPU.
        busy_cpus: 1,
        calibration_pairs: 2_000,
        nominal_ref_op_ns: 7_000.0,
        probe_requests: 2_048,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn spec(&self) -> DatasetSpec {
        *Catalog::paper_table1()
            .get(self.dataset)
            .expect("catalog holds every Table 1 dataset")
    }

    pub fn requests_per_round(&self) -> usize {
        self.frame * self.calls_per_round
    }

    /// Frame size of the per-layer probes that need frames (`plan`,
    /// `engine`, `wire`, `server`, `router`).
    pub fn probe_frame(&self) -> usize {
        if self.frame > 1 {
            self.frame
        } else {
            64
        }
    }
}

/// Which scale a run generates its graph at.
pub fn scale(quick: bool) -> Scale {
    if quick {
        Scale::Small
    } else {
        Scale::Large
    }
}

/// The seeded, never-repeating request stream of a workload.
pub struct RequestStream {
    rng: SplitMix64,
    n: u64,
    zipf: Option<Zipf>,
    distance_pct: u64,
    path_graph_pct: u64,
}

impl RequestStream {
    /// `stream` separates the independent uses of one `--seed` (timed
    /// rounds, probes).
    pub fn new(workload: &Workload, n: usize, seed: u64, stream: u64) -> Self {
        let zipf = (workload.pairs == Pairs::Zipf)
            .then(|| Zipf::new(n, ZIPF_EXPONENT, &mut SplitMix64::new(RANK_MAP_SEED)));
        RequestStream {
            rng: SplitMix64::fork(seed, stream),
            n: n as u64,
            zipf,
            distance_pct: workload.distance_pct,
            path_graph_pct: workload.path_graph_pct,
        }
    }

    fn vertex(&mut self) -> u32 {
        match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.below(self.n) as u32,
        }
    }

    /// A pair of distinct endpoints from the workload's distribution.
    pub fn pair(&mut self) -> (u32, u32) {
        loop {
            let (u, v) = (self.vertex(), self.vertex());
            if u != v {
                return (u, v);
            }
        }
    }

    pub fn request(&mut self) -> QueryRequest {
        let (u, v) = self.pair();
        let roll = self.rng.below(100);
        if roll < self.distance_pct {
            QueryRequest::distance(u, v)
        } else if roll < self.distance_pct + self.path_graph_pct {
            QueryRequest::path_graph(u, v)
        } else {
            QueryRequest::sketch(u, v)
        }
    }

    pub fn requests(&mut self, count: usize) -> Vec<QueryRequest> {
        (0..count).map(|_| self.request()).collect()
    }

    /// The vertices the oracle should keep BFS rows for.
    pub fn hot_vertices(&self) -> Vec<u32> {
        self.zipf
            .as_ref()
            .map(|z| z.hottest(ORACLE_HOT_ROWS).to_vec())
            .unwrap_or_default()
    }
}

/// The key the product's answer cache and planner coalesce on: distance
/// is symmetric, path graphs and sketches keep their orientation.
pub fn cache_key(req: &QueryRequest) -> (u32, u32, u8) {
    match req.mode {
        QueryMode::Distance => (req.source.min(req.target), req.source.max(req.target), 0),
        QueryMode::PathGraph => (req.source, req.target, 1),
        QueryMode::Sketch => (req.source, req.target, 2),
    }
}

/// Counts the hits an ideal LRU cache of `capacity` keys would see.
pub struct LruCounter<K> {
    capacity: usize,
    clock: u64,
    last_use: HashMap<K, u64>,
    by_age: BTreeMap<u64, K>,
    pub hits: u64,
    pub accesses: u64,
}

impl<K: std::hash::Hash + Eq + Copy> LruCounter<K> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU needs room for one key");
        LruCounter {
            capacity,
            clock: 0,
            last_use: HashMap::new(),
            by_age: BTreeMap::new(),
            hits: 0,
            accesses: 0,
        }
    }

    pub fn access(&mut self, key: K) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let hit = match self.last_use.insert(key, self.clock) {
            Some(previous) => {
                self.by_age.remove(&previous);
                true
            }
            None => false,
        };
        self.by_age.insert(self.clock, key);
        if self.by_age.len() > self.capacity {
            let (_, oldest) = self.by_age.pop_first().expect("non-empty");
            self.last_use.remove(&oldest);
        }
        self.hits += u64::from(hit);
        hit
    }

    pub fn hit_frac(&self) -> f64 {
        self.hits as f64 / self.accesses.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_lru_evicts_the_least_recently_used_key() {
        let mut lru = LruCounter::new(2);
        assert!(!lru.access(1));
        assert!(!lru.access(2));
        assert!(lru.access(1)); // 1 is now the most recent
        assert!(!lru.access(3)); // evicts 2
        assert!(!lru.access(2)); // evicts 1
        assert!(lru.access(3));
        assert!(!lru.access(1));
        assert_eq!((lru.hits, lru.accesses), (2, 7));
        assert!((lru.hit_frac() - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn streams_repeat_per_seed_and_honour_the_mix() {
        let wl = find("routed-open").unwrap();
        let a = RequestStream::new(wl, 1000, 5, 1).requests(2000);
        assert_eq!(a, RequestStream::new(wl, 1000, 5, 1).requests(2000));
        assert_ne!(a, RequestStream::new(wl, 1000, 6, 1).requests(2000));
        assert_ne!(a, RequestStream::new(wl, 1000, 5, 2).requests(2000));
        let distance = a.iter().filter(|r| r.mode == QueryMode::Distance).count();
        let sketch = a.iter().filter(|r| r.mode == QueryMode::Sketch).count();
        assert!((1300..1500).contains(&distance), "{distance}");
        assert!((150..260).contains(&sketch), "{sketch}");
        assert!(a.iter().all(|r| r.source != r.target && r.source < 1000));
    }

    #[test]
    fn zipf_streams_share_one_popularity_map_across_seeds() {
        let wl = find("batch-zipf").unwrap();
        let a = RequestStream::new(wl, 5000, 1, 1);
        let b = RequestStream::new(wl, 5000, 2, 1);
        assert_eq!(a.hot_vertices(), b.hot_vertices());
        assert_eq!(a.hot_vertices().len(), ORACLE_HOT_ROWS);
    }

    #[test]
    fn distance_keys_ignore_orientation() {
        assert_eq!(
            cache_key(&QueryRequest::distance(9, 4)),
            cache_key(&QueryRequest::distance(4, 9))
        );
        assert_ne!(
            cache_key(&QueryRequest::path_graph(9, 4)),
            cache_key(&QueryRequest::path_graph(4, 9))
        );
    }

    #[test]
    fn workload_names_are_unique_and_reasons_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200, "{}: {}", w.name, w.why.len());
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert!(w.distance_pct + w.path_graph_pct <= 100);
        }
    }
}
