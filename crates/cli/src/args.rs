//! Command-line argument parsing (dependency-free).

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

use qbs_core::QueryMode;
use qbs_gen::catalog::{DatasetId, Scale};

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate a dataset stand-in and write it as a graph file.
    Generate {
        /// Which Table 1 dataset to imitate.
        dataset: DatasetId,
        /// Scale of the stand-in.
        scale: Scale,
        /// Output path (`.qbsg` binary, anything else a whitespace edge
        /// list — the same extension rule `build` and `convert` read by).
        out: PathBuf,
    },
    /// Build a QbS index from a graph file.
    Build {
        /// Input graph (`.qbsg` binary or whitespace edge list).
        graph: PathBuf,
        /// Number of landmarks.
        landmarks: usize,
        /// Output index path.
        out: PathBuf,
    },
    /// Answer shortest-path-graph queries against a built index — a single
    /// `--source`/`--target` pair or a whole `--pairs` batch.
    Query {
        /// Index path produced by `build`.
        index: PathBuf,
        /// Query source vertex (absent when `--pairs` drives a batch).
        source: Option<u32>,
        /// Query target vertex (absent when `--pairs` drives a batch).
        target: Option<u32>,
        /// File of whitespace-separated `u v` lines, answered as one batch
        /// through the concurrent query engine.
        pairs: Option<PathBuf>,
        /// Worker threads for batch execution (default: all cores).
        threads: Option<usize>,
        /// Memory-map the index file instead of reading it to the heap
        /// (either way it is validated in full).
        mmap: bool,
        /// Query mode: full path graph (default), distance-only, or
        /// sketch-only.
        mode: QueryMode,
        /// Include the sketch and search statistics in path-graph reports.
        stats: bool,
        /// Answer-cache capacity; `None` serves uncached.
        cache: Option<usize>,
        /// Output format.
        json: bool,
    },
    /// Serve an index over the framed TCP protocol (`qbs-server`) until a
    /// SIGINT/SIGTERM or a client `Shutdown` frame drains it.
    Serve {
        /// Index path produced by `build`.
        index: PathBuf,
        /// Memory-map the index file instead of reading it to the heap
        /// (either way it is validated in full).
        mmap: bool,
        /// Bind address (`--port P` is shorthand for `127.0.0.1:P`).
        addr: String,
        /// Worker threads per batch (default: all cores).
        threads: Option<usize>,
        /// Reactor worker threads executing decoded batches (default 4).
        workers: Option<usize>,
        /// Admission bound on concurrently executing requests.
        max_inflight: usize,
        /// Admission cap on requests per batch frame.
        max_batch: usize,
        /// Admission bound on concurrently served connections.
        max_connections: usize,
        /// Answer-cache capacity; `None` serves uncached.
        cache: Option<usize>,
        /// Bind address for the HTTP `GET /metrics` listener
        /// (`--metrics-addr H:P`); `None` disables it.
        metrics_addr: Option<String>,
        /// Slow-query log threshold in milliseconds
        /// (`--slow-query-ms N`); `None` disables the log.
        slow_query_ms: Option<u64>,
    },
    /// Route client batches across a pool of running `qbs serve`
    /// replicas (`qbs-router`): scatter/gather with health-checked
    /// failover, until a SIGINT/SIGTERM or a client `Shutdown` frame
    /// drains it.
    Route {
        /// Bind address of the router's own listener (`--port P` is
        /// shorthand for `127.0.0.1:P`).
        addr: String,
        /// Backend replica addresses (one `--replica H:P` each).
        replicas: Vec<String>,
        /// Gather worker threads (default 4); bounds concurrently routed
        /// batches.
        workers: Option<usize>,
        /// Admission bound on concurrently executing requests.
        max_inflight: usize,
        /// Admission cap on requests per batch frame.
        max_batch: usize,
        /// Admission bound on concurrently served connections.
        max_connections: usize,
        /// Bind address for the router's HTTP `GET /metrics` listener
        /// (`--metrics-addr H:P`); `None` disables it.
        metrics_addr: Option<String>,
        /// Slow-query log threshold in milliseconds
        /// (`--slow-query-ms N`); `None` disables the log.
        slow_query_ms: Option<u64>,
    },
    /// Talk to a running `qbs serve` (or `qbs route`) instance.
    Client {
        /// Server address (`host:port`).
        addr: String,
        /// Pin every frame to one trace ID (`--trace-id HEX`) instead of
        /// generating a fresh one per send — makes a request findable in
        /// the server's slow-query log.
        trace_id: Option<u64>,
        /// What to do on the connection.
        action: ClientAction,
    },
    /// Print size/timing statistics of a built index.
    Stats {
        /// Index path produced by `build`.
        index: PathBuf,
    },
    /// Print the on-disk layout of a built index: header fields, checksum
    /// status and the full section table.
    Inspect {
        /// Index path produced by `build`.
        index: PathBuf,
    },
    /// Convert between edge-list and binary graph formats (direction is
    /// inferred from the file extensions).
    Convert {
        /// Input graph file.
        from: PathBuf,
        /// Output graph file.
        to: PathBuf,
    },
    /// Print the usage text.
    Help,
}

/// What a `qbs client` invocation does with its connection.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientAction {
    /// Submit queries (a `--pairs` batch or one `--source`/`--target`
    /// pair) and render the outcomes exactly like a local `query`.
    Query {
        /// Query source vertex (absent when `--pairs` drives a batch).
        source: Option<u32>,
        /// Query target vertex (absent when `--pairs` drives a batch).
        target: Option<u32>,
        /// File of whitespace-separated `u v` lines.
        pairs: Option<PathBuf>,
        /// Query mode per pair.
        mode: QueryMode,
        /// Include sketch + search statistics in path-graph reports.
        stats: bool,
        /// Output format.
        json: bool,
    },
    /// Measure protocol round-trip latency (`--ping [--count N]`):
    /// min/p50/p90/p99/max over `count` pings.
    Ping {
        /// Number of round trips to measure (default 5).
        count: usize,
    },
    /// Fetch and print the server's per-stage latency histograms
    /// (`--metrics` with no query arguments). Against a router this is
    /// the bucket-wise merge across every replica.
    Metrics,
    /// Ask the server to drain and exit (`--shutdown`).
    Shutdown,
}

/// Errors produced while parsing the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage text printed by `qbs-cli help`.
pub const USAGE: &str = "\
qbs-cli — Query-by-Sketch shortest path graph queries

commands:
  generate --dataset <DO|DB|...|CW> [--scale tiny|small|medium|large] --out FILE
  build    --graph FILE [--landmarks N] --out FILE
  query    --index FILE --source U --target V [query options]
  query    --index FILE --pairs FILE [--threads N] [query options]
  serve    --index FILE [--mmap] [--addr H:P | --port P] [--threads N]
           [--workers W] [--max-inflight M] [--max-batch B]
           [--max-connections C] [--cache N] [--metrics-addr H:P]
           [--slow-query-ms N]
  route    --replica H:P [--replica H:P ...] [--addr H:P | --port P]
           [--workers W] [--max-inflight M] [--max-batch B]
           [--max-connections C] [--metrics-addr H:P] [--slow-query-ms N]
  client   --addr H:P --pairs FILE [--mode M] [--stats] [--format F]
  client   --addr H:P --source U --target V [--mode M] [--format F]
  client   --addr H:P (--metrics | --ping [--count N] | --shutdown)
  client options also accept [--trace-id HEX] (pin the trace ID every
           frame carries)
  stats    --index FILE
  inspect  --index FILE
  convert  --from FILE --to FILE
  help

query options:
  --mode path|distance|sketch   what to compute per pair (default: path)
  --stats                       include sketch + search statistics (path mode)
  --cache N                     serve through an N-entry LRU answer cache
  --mmap                        map the index file instead of reading it
  --format text|json            output format

Graph files are read and written by extension: `.qbsg` is the binary graph
format, anything else a whitespace edge list (`generate`, `build --graph`
and `convert` all follow it). `build` writes the one index file layout
(docs/index-format.md); an index written by an older build is refused with
a message to rebuild it.

`query` and `serve` answer straight from the index file's layout, read
to the heap; `--mmap` memory-maps the file instead, so processes serving
one file share one copy through the page cache. Either way the file is
checksummed and validated in full before the first query. In `--pairs`
batches each pair is answered independently: an out-of-range pair
reports an error for that line only.

`serve` runs the framed TCP server (spec: docs/protocol.md): one poll(2)
reactor thread multiplexes every connection and `--workers W` threads
(default 4; `--handlers` is accepted as the old spelling) execute the
decoded batches over one shared session. Ctrl-C or `client --shutdown`
drains in-flight batches and tears down cleanly. Work beyond
`--max-inflight`/`--max-batch` gets a typed busy reply, never a hang.
`client` submits batches against a running server with the same
rendering as a local `query`; `--metrics` prints the server's
telemetry: its engine, cache and admission counters and its per-stage
latency histograms (count and p50/p90/p99/max per query mode and
pipeline stage). `--ping` measures round-trip latency
(min/p50/p90/p99/max over `--count N` pings, default 5). `--trace-id
HEX` pins the trace ID every frame carries, so a request can be found
in the server's slow-query log (docs/observability.md).

`serve --metrics-addr H:P` additionally exposes the same counters and
histograms as a Prometheus text endpoint (`GET /metrics`), and
`--slow-query-ms N` logs every batch whose execution takes at least N
milliseconds to stderr as one `qbs-slow-query ...` line carrying the
client's trace ID.

`route` runs the replicated scatter/gather tier (docs/router.md): it
speaks the same protocol as `serve`, splits each batch across the
least-loaded healthy replicas, retries sheds and failures onto other
replicas, and ejects unhealthy replicas with backoff. Answers are
bit-identical to a single replica; `client --metrics` against a router
prints its routing and per-replica counters and every available
replica's counters and histograms folded in (traffic summed, histograms
merged bucket-wise), and trace IDs propagate onto every scattered
sub-batch. The router forwards batches on its reactor thread; its
`--workers W` threads only answer `Metrics` frames and `GET /metrics`,
each of which polls every available replica once. `route` accepts the same
`--metrics-addr`/`--slow-query-ms` options as `serve`.
";

/// Default bind host for `serve --port`.
const DEFAULT_HOST: &str = "127.0.0.1";

/// Default `serve` bind address when neither `--addr` nor `--port` is
/// given.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7411";

/// Default `route` bind address when neither `--addr` nor `--port` is
/// given — one below the serve port, so a router and a replica co-exist
/// on one host with the defaults.
const DEFAULT_ROUTE_ADDR: &str = "127.0.0.1:7410";

/// Parses an argument vector (excluding the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(command) = args.first() else {
        return Ok(Command::Help);
    };
    let (options, replicas) = collect_options(command, &args[1..])?;
    let get = |key: &str| options.get(key).cloned();
    let require = |key: &str| {
        get(key).ok_or_else(|| ParseError(format!("{command}: missing required option --{key}")))
    };

    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => Ok(Command::Generate {
            dataset: parse_dataset(&require("dataset")?)?,
            scale: parse_scale(get("scale").as_deref().unwrap_or("small"))?,
            out: PathBuf::from(require("out")?),
        }),
        "build" => {
            // Removed options are known keys, so their refusal can say
            // what to do instead.
            for removed in ["format", "profile"] {
                if get(removed).is_some() {
                    return Err(ParseError(format!(
                        "build: --{removed} was removed: there is one index file layout \
                         now, so drop the flag"
                    )));
                }
            }
            if options.contains_key("sequential") {
                return Err(ParseError(
                    "build: --sequential was removed: there is one labelling builder, \
                     and it is sequential, so drop the flag"
                        .into(),
                ));
            }
            Ok(Command::Build {
                graph: PathBuf::from(require("graph")?),
                landmarks: parse_number(get("landmarks").as_deref().unwrap_or("20"), "landmarks")?,
                out: PathBuf::from(require("out")?),
            })
        }
        "query" => {
            let source = get("source")
                .map(|s| parse_number(&s, "source").map(|n| n as u32))
                .transpose()?;
            let target = get("target")
                .map(|s| parse_number(&s, "target").map(|n| n as u32))
                .transpose()?;
            let pairs = get("pairs").map(PathBuf::from);
            match (&pairs, source, target) {
                (None, Some(_), Some(_)) | (Some(_), None, None) => {}
                (None, _, _) => {
                    return Err(ParseError(
                        "query: pass --source and --target, or --pairs FILE".into(),
                    ))
                }
                (Some(_), _, _) => {
                    return Err(ParseError(
                        "query: --pairs cannot be combined with --source/--target".into(),
                    ))
                }
            }
            if options.contains_key("from-view") {
                return Err(ParseError(
                    "query: --from-view was removed: every query is served from the index \
                     file's layout, so drop the flag (add --mmap to map the file)"
                        .into(),
                ));
            }
            Ok(Command::Query {
                index: PathBuf::from(require("index")?),
                source,
                target,
                pairs,
                threads: get("threads")
                    .map(|s| parse_number(&s, "threads"))
                    .transpose()?,
                mmap: options.contains_key("mmap"),
                mode: parse_query_mode(get("mode").as_deref().unwrap_or("path"))?,
                stats: options.contains_key("stats"),
                cache: get("cache")
                    .map(|s| parse_number(&s, "cache capacity"))
                    .transpose()?,
                json: match get("format").as_deref() {
                    None | Some("text") => false,
                    Some("json") => true,
                    Some(other) => return Err(ParseError(format!("unknown format '{other}'"))),
                },
            })
        }
        "serve" => {
            let addr = match (get("addr"), get("port")) {
                (Some(_), Some(_)) => {
                    return Err(ParseError("serve: pass --addr or --port, not both".into()))
                }
                (Some(addr), None) => addr,
                (None, Some(port)) => {
                    format!("{DEFAULT_HOST}:{}", parse_number(&port, "port")?)
                }
                (None, None) => DEFAULT_SERVE_ADDR.to_string(),
            };
            Ok(Command::Serve {
                index: PathBuf::from(require("index")?),
                mmap: options.contains_key("mmap"),
                addr,
                threads: get("threads")
                    .map(|s| parse_number(&s, "threads"))
                    .transpose()?,
                workers: match (get("workers"), get("handlers")) {
                    (Some(_), Some(_)) => {
                        return Err(ParseError(
                            "serve: pass --workers or --handlers (its old name), not both".into(),
                        ))
                    }
                    // `--handlers` is the pre-reactor spelling, kept as an
                    // alias so existing service files keep starting.
                    (workers, handlers) => workers
                        .or(handlers)
                        .map(|s| parse_number(&s, "workers"))
                        .transpose()?,
                },
                max_inflight: get("max-inflight")
                    .map(|s| parse_number(&s, "max-inflight"))
                    .transpose()?
                    .unwrap_or(4_096),
                max_batch: get("max-batch")
                    .map(|s| parse_number(&s, "max-batch"))
                    .transpose()?
                    .unwrap_or(4_096),
                max_connections: get("max-connections")
                    .map(|s| parse_number(&s, "max-connections"))
                    .transpose()?
                    .unwrap_or(128),
                cache: get("cache")
                    .map(|s| parse_number(&s, "cache capacity"))
                    .transpose()?,
                metrics_addr: get("metrics-addr"),
                slow_query_ms: get("slow-query-ms")
                    .map(|s| parse_number(&s, "slow-query-ms").map(|n| n as u64))
                    .transpose()?,
            })
        }
        "route" => {
            let addr = match (get("addr"), get("port")) {
                (Some(_), Some(_)) => {
                    return Err(ParseError("route: pass --addr or --port, not both".into()))
                }
                (Some(addr), None) => addr,
                (None, Some(port)) => {
                    format!("{DEFAULT_HOST}:{}", parse_number(&port, "port")?)
                }
                (None, None) => DEFAULT_ROUTE_ADDR.to_string(),
            };
            if replicas.is_empty() {
                return Err(ParseError(
                    "route: pass at least one --replica H:P (a running `qbs serve`)".into(),
                ));
            }
            Ok(Command::Route {
                addr,
                replicas,
                workers: get("workers")
                    .map(|s| parse_number(&s, "workers"))
                    .transpose()?,
                max_inflight: get("max-inflight")
                    .map(|s| parse_number(&s, "max-inflight"))
                    .transpose()?
                    .unwrap_or(4_096),
                max_batch: get("max-batch")
                    .map(|s| parse_number(&s, "max-batch"))
                    .transpose()?
                    .unwrap_or(4_096),
                max_connections: get("max-connections")
                    .map(|s| parse_number(&s, "max-connections"))
                    .transpose()?
                    .unwrap_or(128),
                metrics_addr: get("metrics-addr"),
                slow_query_ms: get("slow-query-ms")
                    .map(|s| parse_number(&s, "slow-query-ms").map(|n| n as u64))
                    .transpose()?,
            })
        }
        "client" => {
            let addr = require("addr")?;
            if get("protocol").is_some() {
                return Err(ParseError(format!(
                    "--protocol was removed: this build speaks protocol v{} only",
                    qbs_server::PROTOCOL_VERSION
                )));
            }
            let trace_id = get("trace-id").map(|s| parse_trace_id(&s)).transpose()?;
            let source = get("source")
                .map(|s| parse_number(&s, "source").map(|n| n as u32))
                .transpose()?;
            let target = get("target")
                .map(|s| parse_number(&s, "target").map(|n| n as u32))
                .transpose()?;
            let pairs = get("pairs").map(PathBuf::from);
            let stats = options.contains_key("stats");
            let has_query = pairs.is_some() || source.is_some() || target.is_some();
            if stats && !has_query {
                return Err(ParseError(
                    "client: bare --stats was removed: the server's counters are printed by \
                     `client --metrics`"
                        .into(),
                ));
            }
            let control_flags = ["ping", "shutdown", "metrics"].map(|f| options.contains_key(f));
            if control_flags.iter().filter(|&&f| f).count() > 1 {
                return Err(ParseError(
                    "client: --ping, --shutdown and --metrics are mutually exclusive".into(),
                ));
            }
            let action = if options.contains_key("ping") {
                ensure_no_query(has_query, "--ping")?;
                let count = get("count")
                    .map(|s| parse_number(&s, "count"))
                    .transpose()?
                    .unwrap_or(5);
                if count == 0 {
                    return Err(ParseError("client: --count must be at least 1".into()));
                }
                ClientAction::Ping { count }
            } else if options.contains_key("shutdown") {
                ensure_no_query(has_query, "--shutdown")?;
                ClientAction::Shutdown
            } else if options.contains_key("metrics") {
                ensure_no_query(has_query, "--metrics")?;
                ClientAction::Metrics
            } else {
                match (&pairs, source, target) {
                    (None, Some(_), Some(_)) | (Some(_), None, None) => {}
                    (None, _, _) => {
                        return Err(ParseError(
                            "client: pass --source and --target, or --pairs FILE, or one of \
                             --metrics/--ping/--shutdown"
                                .into(),
                        ))
                    }
                    (Some(_), _, _) => {
                        return Err(ParseError(
                            "client: --pairs cannot be combined with --source/--target".into(),
                        ))
                    }
                }
                ClientAction::Query {
                    source,
                    target,
                    pairs,
                    mode: parse_query_mode(get("mode").as_deref().unwrap_or("path"))?,
                    stats,
                    json: match get("format").as_deref() {
                        None | Some("text") => false,
                        Some("json") => true,
                        Some(other) => return Err(ParseError(format!("unknown format '{other}'"))),
                    },
                }
            };
            Ok(Command::Client {
                addr,
                trace_id,
                action,
            })
        }
        "stats" => Ok(Command::Stats {
            index: PathBuf::from(require("index")?),
        }),
        "inspect" => Ok(Command::Inspect {
            index: PathBuf::from(require("index")?),
        }),
        "convert" => Ok(Command::Convert {
            from: PathBuf::from(require("from")?),
            to: PathBuf::from(require("to")?),
        }),
        other => Err(ParseError(format!("unknown command '{other}'"))),
    }
}

/// The options `command` reads, removed ones included so that it can
/// refuse them with a message saying what to do instead; `None` for `help`
/// and unknown commands.
fn known_options(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "generate" => &["dataset", "scale", "out"],
        "build" => &[
            "graph",
            "landmarks",
            "out",
            "format",
            "profile",
            "sequential",
        ],
        "query" => &[
            "index",
            "source",
            "target",
            "pairs",
            "threads",
            "mmap",
            "mode",
            "stats",
            "cache",
            "format",
            "from-view",
        ],
        "serve" => &[
            "index",
            "mmap",
            "addr",
            "port",
            "threads",
            "workers",
            "handlers",
            "max-inflight",
            "max-batch",
            "max-connections",
            "cache",
            "metrics-addr",
            "slow-query-ms",
        ],
        "route" => &[
            "addr",
            "port",
            "replica",
            "workers",
            "max-inflight",
            "max-batch",
            "max-connections",
            "metrics-addr",
            "slow-query-ms",
        ],
        "client" => &[
            "addr", "protocol", "trace-id", "source", "target", "pairs", "mode", "stats", "format",
            "ping", "count", "shutdown", "metrics",
        ],
        "stats" | "inspect" => &["index"],
        "convert" => &["from", "to"],
        _ => return None,
    })
}

/// Collects `--key value` pairs; bare flags (like `--mmap`) map to "".
/// An option `command` does not read is refused by name, so a misspelt one
/// never leaves its default in place silently.
/// `--sequential` and `--from-view` stay bare flags so `build` and `query`
/// can refuse them by name.
/// `--replica` is the one repeatable option — each occurrence appends to
/// the returned list instead of overwriting the previous value.
fn collect_options(
    command: &str,
    args: &[String],
) -> Result<(BTreeMap<String, String>, Vec<String>), ParseError> {
    let known = known_options(command);
    let mut options = BTreeMap::new();
    let mut replicas = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| ParseError(format!("expected an option, found '{}'", args[i])))?;
        if known.is_some_and(|known| !known.contains(&key)) {
            return Err(ParseError(format!(
                "{command}: unknown option --{key} (see `qbs-cli help`)"
            )));
        }
        let is_flag = matches!(
            key,
            "sequential" | "from-view" | "mmap" | "stats" | "ping" | "shutdown" | "metrics"
        );
        if is_flag {
            options.insert(key.to_string(), String::new());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| ParseError(format!("missing value for --{key}")))?;
            if key == "replica" {
                replicas.push(value.clone());
            } else {
                options.insert(key.to_string(), value.clone());
            }
            i += 2;
        }
    }
    Ok((options, replicas))
}

/// Parses a `--trace-id` value: hexadecimal, `0x` prefix optional,
/// nonzero (zero is the reserved untraced marker).
fn parse_trace_id(token: &str) -> Result<u64, ParseError> {
    let digits = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
        .unwrap_or(token);
    match u64::from_str_radix(digits, 16) {
        Ok(0) => Err(ParseError(
            "client: --trace-id must be nonzero (zero marks untraced frames)".into(),
        )),
        Ok(id) => Ok(id),
        Err(_) => Err(ParseError(format!(
            "client: invalid --trace-id '{token}' (expected up to 16 hex digits)"
        ))),
    }
}

/// Rejects query arguments combined with a control flag.
fn ensure_no_query(has_query: bool, flag: &str) -> Result<(), ParseError> {
    if has_query {
        return Err(ParseError(format!(
            "client: {flag} cannot be combined with query arguments"
        )));
    }
    Ok(())
}

fn parse_dataset(token: &str) -> Result<DatasetId, ParseError> {
    DatasetId::ALL
        .iter()
        .copied()
        .find(|id| id.abbrev().eq_ignore_ascii_case(token) || id.name().eq_ignore_ascii_case(token))
        .ok_or_else(|| ParseError(format!("unknown dataset '{token}'")))
}

fn parse_scale(token: &str) -> Result<Scale, ParseError> {
    match token.to_lowercase().as_str() {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        "large" => Ok(Scale::Large),
        other => Err(ParseError(format!("unknown scale '{other}'"))),
    }
}

fn parse_query_mode(token: &str) -> Result<QueryMode, ParseError> {
    match token {
        "path" | "path-graph" | "spg" => Ok(QueryMode::PathGraph),
        "distance" | "dist" => Ok(QueryMode::Distance),
        "sketch" => Ok(QueryMode::Sketch),
        other => Err(ParseError(format!(
            "unknown query mode '{other}' (expected path, distance or sketch)"
        ))),
    }
}

fn parse_number(token: &str, what: &str) -> Result<usize, ParseError> {
    token
        .parse()
        .map_err(|_| ParseError(format!("invalid {what} '{token}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&args(&[
            "generate",
            "--dataset",
            "YT",
            "--scale",
            "tiny",
            "--out",
            "a.qbsg",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                dataset: DatasetId::Youtube,
                scale: Scale::Tiny,
                out: PathBuf::from("a.qbsg")
            }
        );
        // Dataset by full name, default scale.
        let cmd = parse(&args(&[
            "generate",
            "--dataset",
            "douban",
            "--out",
            "b.qbsg",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Generate {
                dataset: DatasetId::Douban,
                scale: Scale::Small,
                ..
            }
        ));
    }

    #[test]
    fn parses_build_query_stats_convert() {
        let cmd = parse(&args(&[
            "build",
            "--graph",
            "g.qbsg",
            "--landmarks",
            "32",
            "--out",
            "i.qbs",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                graph: "g.qbsg".into(),
                landmarks: 32,
                out: "i.qbs".into(),
            }
        );
        // The removed builder switch fails loudly too, wherever it sits.
        for argv in [
            [
                "build",
                "--graph",
                "g.qbsg",
                "--sequential",
                "--out",
                "i.qbs",
            ],
            [
                "build",
                "--graph",
                "g.qbsg",
                "--out",
                "i.qbs",
                "--sequential",
            ],
        ] {
            let err = parse(&args(&argv)).unwrap_err();
            assert!(err.0.contains("--sequential was removed"), "{err}");
            assert!(err.0.contains("drop the flag"), "{err}");
        }

        // The removed layout flags fail loudly instead of being ignored.
        for (flag, value) in [
            ("--format", "json"),
            ("--format", "binary"),
            ("--profile", "compact"),
            ("--profile", "wide"),
        ] {
            let err = parse(&args(&[
                "build", "--graph", "g.qbsg", "--out", "i.qbs", flag, value,
            ]))
            .unwrap_err();
            assert!(err.0.contains(&format!("{flag} was removed")), "{err}");
            assert!(err.0.contains("drop the flag"), "{err}");
        }

        let cmd = parse(&args(&[
            "query", "--index", "i.qbs", "--source", "3", "--target", "7", "--format", "json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                index: "i.qbs".into(),
                source: Some(3),
                target: Some(7),
                pairs: None,
                threads: None,
                mmap: false,
                mode: QueryMode::PathGraph,
                stats: false,
                cache: None,
                json: true
            }
        );

        let cmd = parse(&args(&[
            "query",
            "--index",
            "i.qbs",
            "--pairs",
            "p.txt",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                index: "i.qbs".into(),
                source: None,
                target: None,
                pairs: Some("p.txt".into()),
                threads: Some(4),
                mmap: false,
                mode: QueryMode::PathGraph,
                stats: false,
                cache: None,
                json: false
            }
        );

        assert_eq!(
            parse(&args(&["stats", "--index", "i.qbs"])).unwrap(),
            Command::Stats {
                index: "i.qbs".into()
            }
        );
        assert_eq!(
            parse(&args(&["inspect", "--index", "i.qbs"])).unwrap(),
            Command::Inspect {
                index: "i.qbs".into()
            }
        );
        assert!(parse(&args(&["inspect"])).is_err());
        assert_eq!(
            parse(&args(&["convert", "--from", "a.txt", "--to", "b.qbsg"])).unwrap(),
            Command::Convert {
                from: "a.txt".into(),
                to: "b.qbsg".into()
            }
        );
    }

    #[test]
    fn parses_query_mode_stats_and_cache() {
        let cmd = parse(&args(&[
            "query", "--index", "i.qbs", "--pairs", "p.txt", "--mode", "distance", "--cache",
            "4096",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Query {
                mode: QueryMode::Distance,
                cache: Some(4096),
                stats: false,
                ..
            }
        ));

        let cmd = parse(&args(&[
            "query", "--index", "i.qbs", "--source", "1", "--target", "2", "--mode", "sketch",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Query {
                mode: QueryMode::Sketch,
                ..
            }
        ));

        // `--stats` is a bare flag; mode aliases parse; junk is rejected.
        let cmd = parse(&args(&[
            "query", "--index", "i.qbs", "--source", "1", "--target", "2", "--stats", "--mode",
            "spg",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Query {
                mode: QueryMode::PathGraph,
                stats: true,
                ..
            }
        ));
        assert!(parse(&args(&[
            "query", "--index", "i", "--source", "1", "--target", "2", "--mode", "teleport",
        ]))
        .is_err());
        assert!(parse(&args(&[
            "query", "--index", "i", "--source", "1", "--target", "2", "--cache", "lots",
        ]))
        .is_err());

        // `--mmap` alone maps the file; the removed backend switch fails
        // loudly, with or without it.
        let cmd = parse(&args(&[
            "query", "--index", "i.qbs", "--source", "1", "--target", "2", "--mmap",
        ]))
        .unwrap();
        assert!(matches!(cmd, Command::Query { mmap: true, .. }));
        for extra in [&["--from-view"][..], &["--from-view", "--mmap"]] {
            let mut argv = vec![
                "query", "--index", "i.qbs", "--source", "1", "--target", "2",
            ];
            argv.extend_from_slice(extra);
            let err = parse(&args(&argv)).unwrap_err();
            assert!(err.0.contains("--from-view was removed"), "{err}");
            assert!(err.0.contains("drop the flag"), "{err}");
        }
    }

    #[test]
    fn parses_serve() {
        let cmd = parse(&args(&[
            "serve",
            "--index",
            "i.qbs",
            "--mmap",
            "--port",
            "7411",
            "--threads",
            "2",
            "--max-inflight",
            "64",
            "--max-batch",
            "16",
            "--max-connections",
            "8",
            "--cache",
            "1024",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                index: "i.qbs".into(),
                mmap: true,
                addr: "127.0.0.1:7411".into(),
                threads: Some(2),
                workers: None,
                max_inflight: 64,
                max_batch: 16,
                max_connections: 8,
                cache: Some(1024),
                metrics_addr: None,
                slow_query_ms: None,
            }
        );
        // Defaults, explicit --addr, and the addr/port conflict.
        let cmd = parse(&args(&["serve", "--index", "i.qbs"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                mmap: false,
                workers: None,
                max_inflight: 4096,
                max_batch: 4096,
                max_connections: 128,
                ..
            }
        ));
        // Reactor workers: the new spelling, the pre-reactor alias, and
        // the conflict between the two.
        assert!(matches!(
            parse(&args(&["serve", "--index", "i", "--workers", "6"])).unwrap(),
            Command::Serve {
                workers: Some(6),
                ..
            }
        ));
        assert!(matches!(
            parse(&args(&["serve", "--index", "i", "--handlers", "3"])).unwrap(),
            Command::Serve {
                workers: Some(3),
                ..
            }
        ));
        assert!(parse(&args(&[
            "serve",
            "--index",
            "i",
            "--workers",
            "2",
            "--handlers",
            "3"
        ]))
        .is_err());
        assert!(matches!(
            parse(&args(&["serve", "--index", "i", "--addr", "0.0.0.0:9"])).unwrap(),
            Command::Serve { addr, .. } if addr == "0.0.0.0:9"
        ));
        assert!(parse(&args(&[
            "serve", "--index", "i", "--addr", "h:1", "--port", "2"
        ]))
        .is_err());
        assert!(parse(&args(&["serve"])).is_err(), "index is required");
    }

    #[test]
    fn parses_client_actions() {
        let cmd = parse(&args(&[
            "client", "--addr", "h:1", "--pairs", "p.txt", "--mode", "distance", "--stats",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Client {
                addr: "h:1".into(),
                trace_id: None,
                action: ClientAction::Query {
                    source: None,
                    target: None,
                    pairs: Some("p.txt".into()),
                    mode: QueryMode::Distance,
                    stats: true,
                    json: false,
                },
            }
        );
        // The removed `--protocol` pin is an error, not a silent no-op.
        let err = parse(&args(&[
            "client",
            "--addr",
            "h:1",
            "--ping",
            "--protocol",
            "v1",
        ]))
        .unwrap_err();
        assert!(err.0.contains("--protocol was removed"), "{}", err.0);
        // `--metrics` is a control action; `--trace-id` takes hex (with
        // or without 0x) and rejects zero, which marks untraced frames.
        assert!(matches!(
            parse(&args(&["client", "--addr", "h:1", "--metrics"])).unwrap(),
            Command::Client {
                action: ClientAction::Metrics,
                ..
            }
        ));
        assert!(matches!(
            parse(&args(&[
                "client",
                "--addr",
                "h:1",
                "--ping",
                "--trace-id",
                "0xABCD"
            ]))
            .unwrap(),
            Command::Client {
                trace_id: Some(0xABCD),
                ..
            }
        ));
        assert!(parse(&args(&[
            "client",
            "--addr",
            "h:1",
            "--ping",
            "--trace-id",
            "0"
        ]))
        .is_err());
        assert!(parse(&args(&["client", "--addr", "h:1", "--metrics", "--stats"])).is_err());
        let single = parse(&args(&[
            "client", "--addr", "h:1", "--source", "1", "--target", "2", "--format", "json",
        ]))
        .unwrap();
        assert!(matches!(
            single,
            Command::Client {
                action: ClientAction::Query {
                    source: Some(1),
                    target: Some(2),
                    json: true,
                    ..
                },
                ..
            }
        ));
        // Bare --stats is gone (its counters moved into --metrics); control
        // flags exclude query arguments and each other.
        let err = parse(&args(&["client", "--addr", "h:1", "--stats"])).unwrap_err();
        assert!(err.0.contains("client --metrics"), "{}", err.0);
        assert!(matches!(
            parse(&args(&["client", "--addr", "h:1", "--ping"])).unwrap(),
            Command::Client {
                action: ClientAction::Ping { count: 5 },
                ..
            }
        ));
        assert!(matches!(
            parse(&args(&[
                "client", "--addr", "h:1", "--ping", "--count", "32"
            ]))
            .unwrap(),
            Command::Client {
                action: ClientAction::Ping { count: 32 },
                ..
            }
        ));
        assert!(parse(&args(&[
            "client", "--addr", "h:1", "--ping", "--count", "0"
        ]))
        .is_err());
        assert!(matches!(
            parse(&args(&["client", "--addr", "h:1", "--shutdown"])).unwrap(),
            Command::Client {
                action: ClientAction::Shutdown,
                ..
            }
        ));
        assert!(parse(&args(&["client", "--addr", "h:1"])).is_err());
        assert!(
            parse(&args(&["client", "--pairs", "p.txt"])).is_err(),
            "addr required"
        );
        assert!(parse(&args(&["client", "--addr", "h:1", "--ping", "--shutdown"])).is_err());
        assert!(parse(&args(&[
            "client", "--addr", "h:1", "--ping", "--source", "1", "--target", "2"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "client", "--addr", "h:1", "--pairs", "p", "--source", "1", "--target", "2"
        ]))
        .is_err());
    }

    #[test]
    fn route_collects_repeated_replicas() {
        let parsed = parse(&args(&[
            "route",
            "--replica",
            "10.0.0.1:7411",
            "--replica",
            "10.0.0.2:7411",
            "--replica",
            "10.0.0.3:7411",
            "--port",
            "7410",
            "--workers",
            "8",
        ]))
        .unwrap();
        match parsed {
            Command::Route {
                addr,
                replicas,
                workers,
                max_inflight,
                max_batch,
                max_connections,
                metrics_addr,
                slow_query_ms,
            } => {
                assert_eq!(addr, "127.0.0.1:7410");
                assert_eq!(
                    replicas,
                    vec!["10.0.0.1:7411", "10.0.0.2:7411", "10.0.0.3:7411"]
                );
                assert_eq!(workers, Some(8));
                assert_eq!(
                    (max_inflight, max_batch, max_connections),
                    (4096, 4096, 128)
                );
                assert_eq!((metrics_addr, slow_query_ms), (None, None));
            }
            other => panic!("expected Route, got {other:?}"),
        }
        // Defaults: the route port, one replica.
        assert!(matches!(
            parse(&args(&["route", "--replica", "h:1"])).unwrap(),
            Command::Route { addr, .. } if addr == "127.0.0.1:7410"
        ));
        // No replicas, or both --addr and --port: rejected.
        assert!(parse(&args(&["route"])).is_err());
        assert!(parse(&args(&[
            "route",
            "--replica",
            "h:1",
            "--addr",
            "a:2",
            "--port",
            "3"
        ]))
        .is_err());
    }

    #[test]
    fn help_and_empty_invocations() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["--help"])).unwrap(), Command::Help);
        assert!(USAGE.contains("generate"));
    }

    #[test]
    fn rejects_options_the_command_does_not_read() {
        // A misspelling must not leave the default in place silently.
        let err = parse(&args(&[
            "build",
            "--graph",
            "g.qbsg",
            "--landmark",
            "5",
            "--out",
            "g.qbs",
        ]))
        .unwrap_err();
        assert_eq!(
            err.0,
            "build: unknown option --landmark (see `qbs-cli help`)"
        );
        // It is named even where the command would otherwise report a
        // missing pair first.
        let err = parse(&args(&["query", "--index", "i.qbs", "--sourc", "1"])).unwrap_err();
        assert!(err.0.contains("unknown option --sourc"), "{err}");
        // Options of another command, flags and the repeatable --replica
        // included, are unknown here too.
        for argv in [
            &["build", "--graph", "g", "--out", "i", "--mmap"][..],
            &["stats", "--index", "i", "--replica", "h:1"],
            &["client", "--addr", "h:1", "--ping", "--cache", "8"],
        ] {
            let err = parse(&args(argv)).unwrap_err();
            assert!(err.0.contains("unknown option"), "{err}");
        }
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse(&args(&["explode"])).is_err());
        assert!(parse(&args(&["generate", "--out", "x"])).is_err()); // missing dataset
        assert!(parse(&args(&["generate", "--dataset", "nope", "--out", "x"])).is_err());
        assert!(parse(&args(&["build", "--graph"])).is_err()); // missing value
        assert!(parse(&args(&[
            "query", "--index", "i", "--source", "x", "--target", "1"
        ]))
        .is_err());
        assert!(parse(&args(&["query", "--index", "i", "--source", "1"])).is_err()); // missing target
        assert!(parse(&args(&[
            "query", "--index", "i", "--pairs", "p", "--source", "1", "--target", "2"
        ]))
        .is_err()); // batch and single are exclusive
        assert!(parse(&args(&["generate", "dataset", "YT"])).is_err()); // not an option
        assert!(parse(&args(&[
            "query", "--index", "i", "--source", "1", "--target", "2", "--format", "xml"
        ]))
        .is_err());
    }
}
