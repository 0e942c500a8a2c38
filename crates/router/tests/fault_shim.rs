//! Fault injection between the router and its replicas: every replica
//! sits behind a TCP proxy that, on a seeded schedule, delays, dribbles
//! (one byte per write), truncates mid-frame, resets, or black-holes the
//! bytes it relays. Whatever the schedule does, every routed slot must
//! equal local `Qbs::submit` or be a typed `Unavailable`, every batch must
//! come back within the replica I/O timeout plus two seconds, every
//! gauge must return to zero, and the router must sit idle afterwards
//! instead of spinning.
//!
//! Tier-1 runs one short seed; the `#[ignore]`d sweep runs 32
//! (`cargo test --release -p qbs-router --test fault_shim -- --include-ignored`).
//! A failing run prints its seed; the tier-1 test replays any seed put in
//! its list.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qbs_core::serialize::{self, MapMode};
use qbs_core::{counter, Qbs, QbsConfig, QbsIndex, QueryOutcome, QueryRequest, RequestError};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_router::{HealthConfig, QbsRouter, RouterConfig};
use qbs_server::{ClientConfig, QbsClient, QbsServer, ServerConfig, ServerHandle};

/// The replica I/O timeout the router runs with; every batch must come
/// back within this plus [`SLACK`].
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// The grace on top of [`IO_TIMEOUT`] a batch may take.
const SLACK: Duration = Duration::from_secs(2);

/// Batches routed per seed.
const BATCHES: u32 = 6;

/// The idle-CPU budget over one quiet second, in clock ticks (USER_HZ is
/// 100 on Linux, so 5 ticks = 50 ms).
const IDLE_TICKS: u64 = 5;

/// The tests of this binary share the process-wide CPU counter the idle
/// check reads, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// splitmix64: the schedule's generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the proxy does with one chunk the replica sent.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Pass,
    Delay(Duration),
    Dribble,
    Truncate,
    Reset,
    BlackHole,
}

/// Faults drawn so far, by kind (the order of [`Fault`]'s variants).
static DRAWN: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];

fn draw(rng: &mut u64) -> Fault {
    let (kind, fault) = match splitmix(rng) % 100 {
        0..=54 => (0, Fault::Pass),
        55..=69 => (
            1,
            Fault::Delay(Duration::from_millis(1 + splitmix(rng) % 150)),
        ),
        70..=81 => (2, Fault::Dribble),
        82..=88 => (3, Fault::Truncate),
        89..=94 => (4, Fault::Reset),
        _ => (5, Fault::BlackHole),
    };
    DRAWN[kind].fetch_add(1, Ordering::SeqCst);
    fault
}

/// Closes `stream` with a TCP reset instead of a FIN: `SO_LINGER` with a
/// zero timeout, then the last descriptor goes.
fn reset(stream: TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: `stream` owns a live socket descriptor for the whole call
    // and `linger` is a correctly sized, initialised `struct linger`.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        );
    }
    drop(stream);
}

/// A seeded faulty proxy in front of one replica.
struct Shim {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Shim {
    fn start(upstream: SocketAddr, seed: u64) -> Shim {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind shim");
        let addr = listener.local_addr().expect("shim addr");
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("shim-accept".into())
                .spawn(move || {
                    // Blocking accepts: an idle shim costs no CPU. Drop
                    // wakes this loop with one last dial.
                    for (n, router_side) in listener.incoming().enumerate() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(router_side) = router_side else {
                            continue;
                        };
                        let rng = seed ^ (n as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
                        let _ = std::thread::Builder::new()
                            .name("shim-down".into())
                            .spawn(move || relay(router_side, upstream, rng));
                    }
                })
                .expect("spawn shim")
        };
        Shim {
            addr,
            stop,
            accept: Some(accept),
        }
    }
}

impl Drop for Shim {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Relays one connection. Router → replica bytes are only delayed or
/// dribbled; replica → router chunks draw any fault, and the terminal
/// ones (truncate, reset, black-hole) end the relay.
fn relay(router_side: TcpStream, upstream: SocketAddr, mut rng: u64) {
    let Ok(replica_side) = TcpStream::connect(upstream) else {
        return;
    };
    // Backstops: a relay never outlives a stuck peer by much.
    for s in [&router_side, &replica_side] {
        let _ = s.set_read_timeout(Some(Duration::from_secs(20)));
        let _ = s.set_nodelay(true);
    }
    let up = {
        let mut from = router_side.try_clone().expect("clone");
        let mut to = replica_side.try_clone().expect("clone");
        let mut rng = splitmix(&mut rng.clone());
        let up = std::thread::Builder::new().name("shim-up".into());
        up.spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                let n = match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                let sent = match draw(&mut rng) {
                    Fault::Delay(d) => {
                        std::thread::sleep(d);
                        to.write_all(&buf[..n])
                    }
                    Fault::Dribble => buf[..n].iter().try_for_each(|b| to.write_all(&[*b])),
                    _ => to.write_all(&buf[..n]),
                };
                if sent.is_err() {
                    break;
                }
            }
            let _ = to.shutdown(Shutdown::Write);
        })
        .expect("spawn relay")
    };
    let mut from = replica_side;
    let mut to = router_side;
    let mut buf = [0u8; 4096];
    let mut black_hole = false;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if black_hole {
            continue; // swallowed: the router hears nothing more
        }
        let sent = match draw(&mut rng) {
            Fault::Pass => to.write_all(&buf[..n]),
            Fault::Delay(d) => {
                std::thread::sleep(d);
                to.write_all(&buf[..n])
            }
            Fault::Dribble => buf[..n].iter().try_for_each(|b| to.write_all(&[*b])),
            Fault::Truncate => {
                let _ = to.write_all(&buf[..n / 2]);
                let _ = to.shutdown(Shutdown::Both);
                let _ = from.shutdown(Shutdown::Both);
                break;
            }
            Fault::Reset => {
                let _ = to.shutdown(Shutdown::Read);
                let _ = from.shutdown(Shutdown::Both);
                let _ = up.join();
                reset(to);
                return;
            }
            Fault::BlackHole => {
                black_hole = true;
                Ok(())
            }
        };
        if sent.is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = up.join();
}

/// Builds the shared index (a tiny Douban stand-in) and returns its path.
fn index_file() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qbs_router_fault_shim_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let graph = Catalog::paper_table1()
        .get(DatasetId::Douban)
        .expect("catalog")
        .generate(Scale::Tiny);
    let index = QbsIndex::build(graph, QbsConfig::with_landmark_count(8));
    let path = dir.join("index.qbs");
    serialize::save_to_file(&index, &path).expect("save");
    path
}

fn start_replica(path: &std::path::Path) -> ServerHandle {
    let qbs = Qbs::open(path, MapMode::Mmap).expect("open mmap");
    let qbs = Arc::new(qbs.with_threads(2).expect("threads"));
    QbsServer::start(qbs, ServerConfig::default().workers(2)).expect("start replica")
}

/// Path graphs with stats, sketches, distances, and one poisoned pair.
fn mixed_requests(num_vertices: u32, salt: u32) -> Vec<QueryRequest> {
    let mut requests: Vec<QueryRequest> = (0..24u32)
        .map(|i| {
            let u = (i * 7 + salt * 5) % num_vertices;
            let v = (i * 13 + 3 * salt + 1) % num_vertices;
            match i % 3 {
                0 => QueryRequest::path_graph(u, v).with_stats(),
                1 => QueryRequest::sketch(u, v),
                _ => QueryRequest::distance(u, v),
            }
        })
        .collect();
    requests.insert(requests.len() / 2, QueryRequest::distance(num_vertices, 0));
    requests
}

/// User + system CPU ticks in a `/proc/.../stat` line (fields 14, 15).
fn stat_ticks(stat: &str) -> u64 {
    // The command name may hold spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')').map_or(0, |i| i + 2)..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k is at k - 3.
    let field = |k: usize| fields.get(k - 3).and_then(|f| f.parse::<u64>().ok());
    field(14).unwrap_or(0) + field(15).unwrap_or(0)
}

/// CPU ticks this process has used.
fn cpu_ticks() -> u64 {
    stat_ticks(&std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat"))
}

/// CPU ticks per live thread, keyed by thread ID, with its name.
fn thread_ticks() -> std::collections::HashMap<String, (String, u64)> {
    let mut out = std::collections::HashMap::new();
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let dir = task.path();
        let stat = std::fs::read_to_string(dir.join("stat")).unwrap_or_default();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let tid = task.file_name().to_string_lossy().into_owned();
        out.insert(tid, (name.trim().to_string(), stat_ticks(&stat)));
    }
    out
}

/// Prints the seed when a run panics, so a failure names its replay.
struct SeedOnFailure(u64);

impl Drop for SeedOnFailure {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "fault shim failed at seed {} (replay: put it in \
                 `routed_batches_survive_a_faulty_link`)",
                self.0
            );
        }
    }
}

/// Runs one seeded schedule against two shimmed replicas.
fn run_seed(seed: u64, local: &Qbs, replicas: &[ServerHandle]) {
    let _guard = SeedOnFailure(seed);
    let shims: Vec<Shim> = replicas
        .iter()
        .enumerate()
        .map(|(i, r)| Shim::start(r.local_addr(), seed.wrapping_mul(31).wrapping_add(i as u64)))
        .collect();
    let router = QbsRouter::start(
        RouterConfig::bind("127.0.0.1:0")
            .replicas(shims.iter().map(|s| s.addr.to_string()).collect())
            .min_split(4)
            .probe_interval(Duration::from_millis(100))
            .client(
                ClientConfig::default()
                    .connect_timeout(Duration::from_millis(250))
                    .io_timeout(IO_TIMEOUT),
            )
            .health(HealthConfig {
                eject_after: 3,
                backoff_initial: Duration::from_millis(50),
                backoff_max: Duration::from_millis(200),
            }),
    )
    .expect("start router");
    let num_vertices = local.num_vertices() as u32;
    let drawn_before: Vec<u64> = DRAWN.iter().map(|d| d.load(Ordering::SeqCst)).collect();
    let mut client =
        QbsClient::connect_retry(&router.local_addr().to_string(), Duration::from_secs(10))
            .expect("connect to router");
    for b in 0..BATCHES {
        let requests = mixed_requests(num_vertices, seed as u32 ^ b);
        let expected = local.submit(&requests);
        let started = Instant::now();
        let reply = client.submit(&requests).expect("a reply from the router");
        let took = started.elapsed();
        assert!(
            took <= IO_TIMEOUT + SLACK,
            "seed {seed} batch {b}: took {took:?}, over io_timeout + {SLACK:?}"
        );
        let outcomes = reply.outcomes().expect("the router sheds nothing here");
        assert_eq!(outcomes.len(), requests.len(), "seed {seed} batch {b}");
        for (slot, (got, want)) in outcomes.iter().zip(&expected).enumerate() {
            let unavailable = matches!(got, QueryOutcome::Error(RequestError::Unavailable { .. }));
            assert!(
                got == want || unavailable,
                "seed {seed} batch {b} slot {slot}: {got:?} is neither the local answer \
                 {want:?} nor Unavailable"
            );
        }
    }
    drop(client);
    let drawn: Vec<u64> = DRAWN
        .iter()
        .zip(&drawn_before)
        .map(|(d, before)| d.load(Ordering::SeqCst) - before)
        .collect();
    let stats = router.local_snapshot();
    eprintln!(
        "seed {seed}: pass/delay/dribble/truncate/reset/black-hole {drawn:?}; \
         retries {:?}, unavailable slots {:?}",
        stats.get(counter::ROUTER_RETRIES),
        stats.get(counter::UNAVAILABLE_SLOTS)
    );

    // Every gauge returns to zero once the last reply is out.
    let settle = Instant::now() + SLACK;
    loop {
        let snap = router.local_snapshot();
        let in_flight: Vec<Option<u64>> = snap
            .replicas()
            .into_iter()
            .map(|addr| snap.replica(counter::REPLICA_IN_FLIGHT, addr))
            .collect();
        assert_eq!(in_flight.len(), shims.len(), "one gauge per replica");
        let admitted = snap.get(counter::INFLIGHT);
        if in_flight.iter().all(|&n| n == Some(0)) && admitted == Some(0) {
            break;
        }
        assert!(
            Instant::now() < settle,
            "seed {seed}: replica in-flight {in_flight:?}, admission in-flight {admitted:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Idle: give abandoned relays their timeouts, then one quiet second.
    std::thread::sleep(IO_TIMEOUT + Duration::from_millis(200));
    let (before, threads_before) = (cpu_ticks(), thread_ticks());
    std::thread::sleep(Duration::from_secs(1));
    let used = cpu_ticks() - before;
    if used >= IDLE_TICKS {
        let busy: Vec<(String, u64)> = thread_ticks()
            .into_iter()
            .map(|(tid, (name, ticks))| {
                let was = threads_before.get(&tid).map_or(0, |t| t.1);
                (format!("{name}/{tid}"), ticks - was.min(ticks))
            })
            .filter(|(_, ticks)| *ticks > 0)
            .collect();
        panic!("seed {seed}: {used} CPU ticks (x10 ms) over an idle second; by thread: {busy:?}");
    }
    drop(router);
    drop(shims);
}

fn run_seeds(seeds: impl Iterator<Item = u64>) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let path = index_file();
    let local = Qbs::open(&path, MapMode::Mmap).expect("local reference");
    let replicas: Vec<ServerHandle> = (0..2).map(|_| start_replica(&path)).collect();
    seeds.for_each(|seed| run_seed(seed, &local, &replicas));
    drop(replicas);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn routed_batches_survive_a_faulty_link() {
    run_seeds([20u64].into_iter());
}

#[test]
#[ignore = "32-seed sweep (~2 min); CI runs it with --include-ignored"]
fn routed_batches_survive_a_faulty_link_32_seeds() {
    run_seeds(1..=32u64);
}
