//! Product set-up: generate the graph, build the index, and bring up
//! whatever the workload serves through. Every stage is timed on its own;
//! `setup_s` is their sum, so the benchmark's own work between stages
//! (copying the graph, checking the pin) is not charged to the product.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use qbs_core::serialize::{self, MapMode};
use qbs_core::{CacheConfig, Qbs, QbsConfig, QueryRequest};
use qbs_router::{QbsRouter, RouterConfig, RouterHandle};
use qbs_server::{QbsClient, QbsServer, ServerConfig, ServerHandle};

use crate::heater::CpuPin;
use crate::refgraph::RefGraph;
use crate::workloads::{self, Driver, Pin, Workload, LANDMARKS};

/// A router over two single-worker replicas on loopback, with one client
/// connected to the router, all on one CPU with the thread that started
/// them (see [`crate::heater`]). Fields drop in this order: client, router,
/// replicas — each handle joins its threads — and last the pin.
pub struct Tier {
    pub client: QbsClient,
    _router: RouterHandle,
    _replicas: Vec<ServerHandle>,
    _pin: CpuPin,
}

impl Tier {
    pub fn start(qbs: &Arc<Qbs>) -> Tier {
        let pin = CpuPin::to_first_cpu();
        let replicas: Vec<ServerHandle> = (0..2)
            .map(|_| {
                QbsServer::start(Arc::clone(qbs), ServerConfig::default().workers(1))
                    .expect("start replica on loopback")
            })
            .collect();
        let router = QbsRouter::start(
            RouterConfig::bind("127.0.0.1:0")
                .replicas(
                    replicas
                        .iter()
                        .map(|r| r.local_addr().to_string())
                        .collect(),
                )
                .workers(2),
        )
        .expect("start router on loopback");
        let mut client =
            QbsClient::connect(&router.local_addr().to_string()).expect("connect to router");
        client.ping().expect("router answers ping");
        Tier {
            client,
            _router: router,
            _replicas: replicas,
            _pin: pin,
        }
    }
}

/// Seconds spent in each product set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    pub open_s: f64,
    pub serve_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.gen_s + self.build_s + self.save_s + self.open_s + self.serve_s
    }
}

/// A workload's product, set up and answering.
pub struct Product {
    pub refgraph: Arc<RefGraph>,
    /// The owned build. One-at-a-time `execute` on it is the bit-identity
    /// reference.
    pub owned: Arc<Qbs>,
    /// What the workload's requests go to (the owned build itself unless
    /// the workload serves from a mapped file).
    pub serving: Arc<Qbs>,
    pub tier: Option<Tier>,
    pub index_file: Option<PathBuf>,
    pub index_bytes_per_vertex: f64,
    pub labelling_entries_per_vertex: f64,
    pub labelling_bytes_per_vertex: f64,
    pub times: SetupTimes,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// Path of the scratch index file of this process.
fn index_path(out_dir: &Path, workload: &Workload) -> PathBuf {
    out_dir.join(format!("{}.{}.qbs", workload.name, std::process::id()))
}

/// Sets the product up once.
pub fn set_up(workload: &Workload, quick: bool, out_dir: &Path) -> Product {
    let mut times = SetupTimes::default();
    let (graph, gen_s) = timed(|| workload.spec().generate(workloads::scale(quick)));
    times.gen_s = gen_s;

    let refgraph = Arc::new(RefGraph::from_graph(&graph));
    let n = refgraph.num_vertices();
    if !quick {
        let found = Pin {
            n,
            m: refgraph.num_edges(),
            fingerprint: refgraph.fingerprint(),
        };
        assert_eq!(
            found, workload.pin,
            "{}: the generated graph is not the pinned one; the load changed",
            workload.name
        );
    }

    let (owned, build_s) = timed(|| {
        let mut qbs = Qbs::build(graph, QbsConfig::with_landmark_count(LANDMARKS))
            .expect("index build")
            .with_threads(workload.threads)
            .expect("thread budget");
        if let Some(capacity) = workload.cache_capacity {
            qbs = qbs.with_cache(CacheConfig::with_capacity(capacity));
        }
        Arc::new(qbs)
    });
    times.build_s = build_s;
    let stats = owned.stats().expect("an owned build has stats");
    let mut index_bytes_per_vertex = stats.total_index_bytes() as f64 / n as f64;

    let mut index_file = None;
    let serving = if workload.mapped {
        let path = index_path(out_dir, workload);
        let ((), save_s) = timed(|| {
            serialize::save_to_file(owned.index().expect("owned build"), &path)
                .expect("save index file")
        });
        times.save_s = save_s;
        let (opened, open_s) = timed(|| {
            Qbs::open(&path, MapMode::Mmap)
                .expect("open index file")
                .with_threads(workload.threads)
                .expect("thread budget")
        });
        times.open_s = open_s;
        let file_bytes = std::fs::metadata(&path).expect("index file").len();
        index_bytes_per_vertex = file_bytes as f64 / n as f64;
        index_file = Some(path);
        Arc::new(opened)
    } else {
        Arc::clone(&owned)
    };

    // Up to and including the first answer: lazily created state (the
    // session's first workspace, the tier's replica connections) is
    // set-up, not steady state.
    let first = QueryRequest::distance(0, (n - 1) as u32);
    let (tier, serve_s) = timed(|| match workload.driver {
        Driver::RoutedOpen { .. } => {
            let mut tier = Tier::start(&serving);
            let reply = tier.client.submit(&[first]).expect("first routed reply");
            assert!(reply.outcomes().is_some(), "idle tier shed a request");
            Some(tier)
        }
        Driver::Execute | Driver::Submit => {
            assert!(serving.execute(&first).is_ok());
            None
        }
    });
    times.serve_s = serve_s;

    Product {
        refgraph,
        owned,
        serving,
        tier,
        index_file,
        index_bytes_per_vertex,
        labelling_entries_per_vertex: stats.labelling_entries as f64 / n as f64,
        labelling_bytes_per_vertex: stats.labelling_memory_bytes as f64 / n as f64,
        times,
    }
}

impl Drop for Product {
    fn drop(&mut self) {
        // Join the tier's threads before the sessions they serve go away.
        self.tier = None;
        if let Some(path) = &self.index_file {
            let _ = std::fs::remove_file(path);
        }
    }
}
