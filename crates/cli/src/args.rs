//! Command-line argument parsing (dependency-free).
//!
//! Each subcommand declares its options once, in a table of `Opt`s
//! (`COMMANDS`). One generic pass over `argv` reads an invocation against
//! its table, and [`usage`] renders the same tables as the `help` synopsis.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use qbs_core::QueryMode;
use qbs_gen::catalog::{DatasetId, Scale};
use qbs_server::AdmissionConfig;

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
    /// Answer shortest-path-graph queries against a built index.
    Query {
        /// Index path produced by `build`.
        index: PathBuf,
        /// Worker threads for batch execution (default: all cores).
        threads: Option<usize>,
        /// Memory-map the index file instead of reading it to the heap
        /// (either way it is validated in full).
        mmap: bool,
        /// Answer-cache capacity; `None` serves uncached.
        cache: Option<usize>,
        /// The pairs to answer, how, and how to print them.
        query: QuerySpec,
    },
    /// Serve an index over the framed TCP protocol (`qbs-server`) until a
    /// SIGINT/SIGTERM or a client `Shutdown` frame drains it.
    Serve {
        /// Index path produced by `build`.
        index: PathBuf,
        /// Memory-map the index file instead of reading it to the heap
        /// (either way it is validated in full).
        mmap: bool,
        /// Worker threads per batch (default: all cores).
        threads: Option<usize>,
        /// Reactor worker threads executing decoded batches (default 4).
        workers: Option<usize>,
        /// Answer-cache capacity; `None` serves uncached.
        cache: Option<usize>,
        /// Where to listen and what to admit.
        listen: ListenSpec,
    },
    /// Route client batches across a pool of running `qbs serve`
    /// replicas (`qbs-router`): scatter/gather with health-checked
    /// failover, until a SIGINT/SIGTERM or a client `Shutdown` frame
    /// drains it.
    Route {
        /// Backend replica addresses (one `--replica H:P` each).
        replicas: Vec<String>,
        /// Where to listen and what to admit.
        listen: ListenSpec,
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
    /// Submit queries and render the outcomes exactly like a local `query`.
    Query(QuerySpec),
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

/// The query options `query` and `client` share: one `--source`/`--target`
/// pair or a whole `--pairs` batch (exactly one of the two), the mode and
/// the output format.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// Query source vertex (absent when `--pairs` drives a batch).
    pub source: Option<u32>,
    /// Query target vertex (absent when `--pairs` drives a batch).
    pub target: Option<u32>,
    /// File of whitespace-separated `u v` lines, answered as one batch.
    pub pairs: Option<PathBuf>,
    /// Query mode: full path graph (default), distance-only, or
    /// sketch-only.
    pub mode: QueryMode,
    /// Include the sketch and search statistics in path-graph reports.
    pub stats: bool,
    /// `--format json` instead of text.
    pub json: bool,
}

/// The listener options `serve` and `route` share.
#[derive(Clone, Debug, PartialEq)]
pub struct ListenSpec {
    /// Bind address (`--port P` is shorthand for `127.0.0.1:P`).
    pub addr: String,
    /// The in-flight, per-batch and connection bounds.
    pub admission: AdmissionConfig,
    /// Bind address for the HTTP `GET /metrics` listener
    /// (`--metrics-addr H:P`); `None` disables it.
    pub metrics_addr: Option<String>,
    /// Slow-query log threshold in milliseconds (`--slow-query-ms N`);
    /// `None` disables the log.
    pub slow_query_ms: Option<u64>,
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

/// How the generic pass reads one `--NAME`; the `&str` is the value's
/// placeholder in `help`.
#[derive(Clone, Copy)]
enum Kind {
    /// `--NAME VALUE`, at most once.
    Value(&'static str),
    /// A [`Kind::Value`] the command cannot run without.
    Required(&'static str),
    /// A bare `--NAME`, at most once.
    Flag,
    /// `--NAME VALUE`, any number of times.
    Repeated(&'static str),
    /// Refused with the message the function builds, which says what to
    /// do instead; `help` leaves it out.
    Removed(fn() -> String),
}

use Kind::{Flag, Removed, Repeated, Required, Value};

/// One option of a subcommand: its name (without `--`), its kind and its
/// line in `help`.
struct Opt(&'static str, Kind, &'static str);

/// A subcommand's table: its name, its own options, and the options it
/// shares with another subcommand.
struct Spec(&'static str, &'static [Opt], &'static [Opt]);

impl Spec {
    fn options(&self) -> impl Iterator<Item = &'static Opt> {
        self.1.iter().chain(self.2)
    }
}

const INDEX: Opt = Opt("index", Required("FILE"), "index file written by `build`");
const MMAP: Opt = Opt("mmap", Flag, "map the index file instead of reading it");
const THREADS: Opt = Opt("threads", Value("N"), "batch threads (default: all cores)");
const CACHE: Opt = Opt("cache", Value("N"), "serve through an N-entry answer cache");

/// The query options `query` and `client` share ([`QuerySpec`]).
#[rustfmt::skip]
const QUERY: &[Opt] = &[
    Opt("source", Value("U"), "source vertex of one pair (with --target)"),
    Opt("target", Value("V"), "target vertex of one pair (with --source)"),
    Opt("pairs", Value("FILE"), "file of `u v` lines, answered as one batch"),
    Opt("mode", Value("MODE"), "path|distance|sketch (default: path)"),
    Opt("stats", Flag, "include sketch + search statistics (path mode)"),
    Opt("format", Value("FORMAT"), "text|json (default: text)"),
];

/// The listener options `serve` and `route` share ([`ListenSpec`]).
#[rustfmt::skip]
const LISTEN: &[Opt] = &[
    Opt("addr", Value("H:P"), "bind address (serve: 127.0.0.1:7411, route: :7410)"),
    Opt("port", Value("P"), "shorthand for --addr 127.0.0.1:P"),
    Opt("max-inflight", Value("N"), "bound on executing requests (default 4096)"),
    Opt("max-batch", Value("N"), "cap on requests per batch frame (default 4096)"),
    Opt("max-connections", Value("N"), "bound on served connections (default 128)"),
    Opt("metrics-addr", Value("H:P"), "serve Prometheus text at GET /metrics on H:P"),
    Opt("slow-query-ms", Value("N"), "log batches taking N ms or more to stderr"),
];

/// Every subcommand's table (`rustfmt::skip` keeps one option per line).
#[rustfmt::skip]
const COMMANDS: &[Spec] = &[
    Spec("generate", &[
        Opt("dataset", Required("NAME"), "Table 1 dataset: DO|DB|...|CW or its name"),
        Opt("scale", Value("SCALE"), "tiny|small|medium|large (default: small)"),
        Opt("out", Required("FILE"), "graph file to write"),
    ], &[]),
    Spec("build", &[
        Opt("graph", Required("FILE"), "graph file to index"),
        Opt("landmarks", Value("N"), "number of landmarks (default 20)"),
        Opt("out", Required("FILE"), "index file to write"),
        Opt("format", Removed(|| layout_removed("format")), ""),
        Opt("profile", Removed(|| layout_removed("profile")), ""),
        Opt("sequential", Removed(sequential_removed), ""),
    ], &[]),
    Spec("query", &[
        INDEX,
        THREADS,
        MMAP,
        CACHE,
        Opt("from-view", Removed(view_removed), ""),
    ], QUERY),
    Spec("serve", &[
        INDEX,
        MMAP,
        THREADS,
        Opt("workers", Value("N"), "worker threads executing batches (default 4)"),
        Opt("handlers", Removed(handlers_removed), ""),
        CACHE,
    ], LISTEN),
    Spec("route", &[
        Opt("replica", Repeated("H:P"), "a running `qbs serve` (repeat per replica)"),
        Opt("workers", Removed(router_workers_removed), ""),
    ], LISTEN),
    Spec("client", &[
        Opt("addr", Required("H:P"), "address of a `serve` or `route` process"),
        Opt("protocol", Removed(protocol_removed), ""),
        Opt("trace-id", Value("HEX"), "pin the trace ID every frame carries"),
        Opt("metrics", Flag, "print the server's counters and stage histograms"),
        Opt("ping", Flag, "measure round-trip latency"),
        Opt("count", Value("N"), "round trips --ping measures (default 5)"),
        Opt("shutdown", Flag, "ask the server to drain and exit"),
    ], QUERY),
    Spec("stats", &[INDEX], &[]),
    Spec("inspect", &[INDEX], &[]),
    Spec("convert", &[
        Opt("from", Required("FILE"), "graph file to read"),
        Opt("to", Required("FILE"), "graph file to write"),
    ], &[]),
];

// The refusals of removed options: each says what to do instead.

fn layout_removed(option: &str) -> String {
    format!("build: --{option} was removed: there is one index file layout now, so drop the flag")
}

fn sequential_removed() -> String {
    "build: --sequential was removed: there is one labelling builder, and it is sequential, so \
     drop the flag"
        .into()
}

fn view_removed() -> String {
    "query: --from-view was removed: every query is served from the index file's layout, so \
     drop the flag (add --mmap to map the file)"
        .into()
}

fn handlers_removed() -> String {
    "serve: --handlers was removed: pass --workers N, its one spelling".into()
}

fn router_workers_removed() -> String {
    "route: --workers was removed: a router runs on its reactor thread alone, so drop the flag"
        .into()
}

fn protocol_removed() -> String {
    let version = qbs_server::PROTOCOL_VERSION;
    format!("--protocol was removed: this build speaks protocol v{version} only")
}

/// The hand-written notes `help` prints after the generated synopsis.
const NOTES: &str = "\
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
reactor thread multiplexes every connection and the `--workers` pool
executes every decoded batch, whatever its size, over one shared session. Ctrl-C or `client --shutdown`
drains in-flight batches and tears down cleanly. Work beyond
`--max-inflight`/`--max-batch` gets a typed busy reply, never a hang.
`--metrics-addr` serves the same counters and histograms `client
--metrics` prints as Prometheus text, and `--slow-query-ms N` logs each
batch whose execution takes at least N ms to stderr as one
`qbs-slow-query ...` line carrying the client's trace ID
(docs/observability.md).

`client` submits batches against a running server with the same
rendering as a local `query`; `--metrics` prints the server's engine,
cache and admission counters and its per-stage latency histograms (count
and p50/p90/p99/max per query mode and pipeline stage), and `--ping`
min/p50/p90/p99/max round-trip latency.

`route` runs the replicated scatter/gather tier (docs/router.md): it
speaks the same protocol as `serve`, splits each batch across the
least-loaded healthy replicas, retries sheds and failures onto other
replicas, and ejects unhealthy replicas with backoff. Answers are
bit-identical to a single replica; `client --metrics` against a router
prints its routing and per-replica counters and every available
replica's counters and histograms folded in (traffic summed, histograms
merged bucket-wise), and trace IDs propagate onto every scattered
sub-batch. A router is one thread, its reactor, with one connection per
replica: that connection carries the batches, a health-probe ping every
500 ms, and the poll each `Metrics` frame or `GET /metrics` makes of
every available replica.
";

/// The text printed by `qbs-cli help`: each subcommand's synopsis (its
/// required options) and one line per option it accepts, rendered from
/// its table, then the notes.
pub fn usage() -> String {
    let mut out = String::from("qbs-cli — Query-by-Sketch shortest path graph queries\n\n");
    for spec in COMMANDS {
        let (mut lines, mut optional) = (String::new(), "");
        out.push_str(&format!("  {}", spec.0));
        for Opt(name, kind, help) in spec.options() {
            let option = match kind {
                Value(v) | Required(v) | Repeated(v) => format!("--{name} {v}"),
                Flag => format!("--{name}"),
                Removed(_) => continue,
            };
            match kind {
                Required(_) => out.push_str(&format!(" {option}")),
                Repeated(_) => out.push_str(&format!(" {option} [{option} ...]")),
                _ => optional = " [options]",
            }
            lines.push_str(&format!("      {option:<22}{help}\n"));
        }
        out.push_str(&format!("{optional}\n{lines}"));
    }
    out + "  help\n\n" + NOTES
}

/// Default bind host for `serve --port`.
const DEFAULT_HOST: &str = "127.0.0.1";

/// Default `serve` bind address when neither `--addr` nor `--port` is
/// given.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7411";

/// Default `route` bind address when neither `--addr` nor `--port` is
/// given — one below the serve port, so a router and a replica co-exist
/// on one host with the defaults.
const DEFAULT_ROUTE_ADDR: &str = "127.0.0.1:7410";

/// The options one invocation gave, each checked against its command's
/// table.
struct Args<'a> {
    command: &'static str,
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// The one pass over `argv`. An option the table does not list is
    /// refused by name, so a misspelt one never leaves its default in
    /// place silently; a removed one is refused with its message; a
    /// second occurrence of anything but a [`Kind::Repeated`] option is
    /// refused instead of overwriting the first.
    fn scan(spec: &Spec, argv: &'a [String]) -> Result<Self, ParseError> {
        let command = spec.0;
        let mut given: Vec<(&'static str, &'a str)> = Vec::new();
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            let Some(key) = token.strip_prefix("--") else {
                return refuse(format!("expected an option, found '{token}'"));
            };
            let Some(Opt(name, kind, _)) = spec.options().find(|o| o.0 == key) else {
                return refuse(format!(
                    "{command}: unknown option --{key} (see `qbs-cli help`)"
                ));
            };
            if !matches!(kind, Repeated(_)) && given.iter().any(|(n, _)| n == name) {
                return refuse(format!("{command}: --{key} given twice"));
            }
            let value = match kind {
                Removed(refusal) => return refuse(refusal()),
                Flag => "",
                Value(_) | Required(_) | Repeated(_) => match tokens.next() {
                    Some(value) => value,
                    None => return refuse(format!("missing value for --{key}")),
                },
            };
            given.push((name, value));
        }
        let missing = spec
            .options()
            .find(|o| matches!(o.1, Required(_)) && !given.iter().any(|(n, _)| *n == o.0));
        if let Some(Opt(name, ..)) = missing {
            return refuse(format!("{command}: missing required option --{name}"));
        }
        Ok(Args { command, given })
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// A [`Kind::Required`] option's value.
    fn required(&self, name: &str) -> &'a str {
        self.get(name)
            .expect("Args::scan refuses an invocation missing a required option")
    }

    /// An optional value, parsed as `T`; an unparsable one is refused as
    /// `invalid {what} '…'`.
    fn read_as<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, ParseError> {
        self.get(name).map(|v| parse_value(v, what)).transpose()
    }

    /// [`Args::read_as`] naming the option itself in the refusal.
    fn read<T: FromStr>(&self, name: &str) -> Result<Option<T>, ParseError> {
        self.read_as(name, name)
    }
}

/// Refuses the invocation with `message`.
fn refuse<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(message.into()))
}

/// Parses an argument vector (excluding the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(command) = args.first() else {
        return Ok(Command::Help);
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let Some(spec) = COMMANDS.iter().find(|spec| spec.0 == command) else {
        return refuse(format!("unknown command '{command}'"));
    };
    let a = Args::scan(spec, &args[1..])?;
    let path = |name| PathBuf::from(a.required(name));
    Ok(match spec.0 {
        "generate" => Command::Generate {
            dataset: parse_dataset(a.required("dataset"))?,
            scale: parse_scale(a.get("scale").unwrap_or("small"))?,
            out: path("out"),
        },
        "build" => Command::Build {
            graph: path("graph"),
            landmarks: a.read("landmarks")?.unwrap_or(20),
            out: path("out"),
        },
        "query" => Command::Query {
            query: QuerySpec::read(&a, "")?,
            index: path("index"),
            threads: a.read("threads")?,
            mmap: a.has("mmap"),
            cache: a.read_as("cache", "cache capacity")?,
        },
        "serve" => Command::Serve {
            listen: ListenSpec::read(&a, DEFAULT_SERVE_ADDR)?,
            index: path("index"),
            mmap: a.has("mmap"),
            threads: a.read("threads")?,
            workers: a.read("workers")?,
            cache: a.read_as("cache", "cache capacity")?,
        },
        "route" => {
            let listen = ListenSpec::read(&a, DEFAULT_ROUTE_ADDR)?;
            let replicas: Vec<String> = a
                .given
                .iter()
                .filter(|(n, _)| *n == "replica")
                .map(|(_, v)| v.to_string())
                .collect();
            if replicas.is_empty() {
                return refuse("route: pass at least one --replica H:P (a running `qbs serve`)");
            }
            Command::Route { replicas, listen }
        }
        "client" => parse_client(&a)?,
        "stats" => Command::Stats {
            index: path("index"),
        },
        "inspect" => Command::Inspect {
            index: path("index"),
        },
        "convert" => Command::Convert {
            from: path("from"),
            to: path("to"),
        },
        other => unreachable!("COMMANDS lists '{other}', which parse does not build"),
    })
}

/// The `client` action: at most one control flag, or queries. An option
/// the chosen action never reads is refused, naming the action that does.
fn parse_client(a: &Args<'_>) -> Result<Command, ParseError> {
    let trace_id = a.get("trace-id").map(parse_trace_id).transpose()?;
    let has_query = ["source", "target", "pairs"].iter().any(|k| a.has(k));
    let controls: Vec<&str> = ["ping", "shutdown", "metrics"]
        .into_iter()
        .filter(|f| a.has(f))
        .collect();
    if a.has("count") && !a.has("ping") {
        return refuse("client: --count is read by --ping only");
    }
    let query_option = ["mode", "format", "stats"].into_iter().find(|o| a.has(o));
    if let (Some(option), [control, ..]) = (query_option, &controls[..]) {
        return refuse(format!(
            "client: --{option} is read by queries (--source/--target or --pairs), not by \
             --{control}"
        ));
    }
    if a.has("stats") && !has_query {
        return refuse(
            "client: bare --stats was removed: the server's counters are printed by \
             `client --metrics`",
        );
    }
    let action = match controls[..] {
        [] => ClientAction::Query(QuerySpec::read(
            a,
            ", or one of --metrics/--ping/--shutdown",
        )?),
        [_, _, ..] => {
            return refuse("client: --ping, --shutdown and --metrics are mutually exclusive")
        }
        [control] if has_query => {
            return refuse(format!(
                "client: --{control} cannot be combined with query arguments"
            ))
        }
        ["ping"] => match a.read("count")?.unwrap_or(5) {
            0 => return refuse("client: --count must be at least 1"),
            count => ClientAction::Ping { count },
        },
        ["shutdown"] => ClientAction::Shutdown,
        _ => ClientAction::Metrics,
    };
    Ok(Command::Client {
        addr: a.required("addr").to_string(),
        trace_id,
        action,
    })
}

impl QuerySpec {
    /// Reads the query options; `alternatives` ends the refusal of an
    /// invocation that names neither a pair nor a pairs file.
    fn read(a: &Args<'_>, alternatives: &str) -> Result<Self, ParseError> {
        let command = a.command;
        let source = a.read("source")?;
        let target = a.read("target")?;
        let pairs = a.get("pairs").map(PathBuf::from);
        match (&pairs, source, target) {
            (None, Some(_), Some(_)) | (Some(_), None, None) => {}
            (None, _, _) => {
                return refuse(format!(
                    "{command}: pass --source and --target, or --pairs FILE{alternatives}"
                ))
            }
            (Some(_), _, _) => {
                return refuse(format!(
                    "{command}: --pairs cannot be combined with --source/--target"
                ))
            }
        }
        Ok(QuerySpec {
            source,
            target,
            pairs,
            mode: parse_query_mode(a.get("mode").unwrap_or("path"))?,
            stats: a.has("stats"),
            json: match a.get("format") {
                None | Some("text") => false,
                Some("json") => true,
                Some(other) => return refuse(format!("unknown format '{other}'")),
            },
        })
    }
}

impl ListenSpec {
    /// Reads the listener options; `default_addr` binds when neither
    /// `--addr` nor `--port` is given.
    fn read(a: &Args<'_>, default_addr: &str) -> Result<Self, ParseError> {
        let addr = match (a.get("addr"), a.get("port")) {
            (Some(_), Some(_)) => {
                return refuse(format!("{}: pass --addr or --port, not both", a.command))
            }
            (Some(addr), None) => addr.to_string(),
            (None, Some(port)) => format!("{DEFAULT_HOST}:{}", parse_value::<u16>(port, "port")?),
            (None, None) => default_addr.to_string(),
        };
        Ok(ListenSpec {
            addr,
            admission: AdmissionConfig {
                max_inflight: a.read("max-inflight")?.unwrap_or(4_096),
                max_batch: a.read("max-batch")?.unwrap_or(4_096),
                max_connections: a.read("max-connections")?.unwrap_or(128),
            },
            metrics_addr: a.get("metrics-addr").map(String::from),
            slow_query_ms: a.read("slow-query-ms")?,
        })
    }
}

/// Parses a `--trace-id` value: hexadecimal, `0x` prefix optional,
/// nonzero (zero is the reserved untraced marker).
fn parse_trace_id(token: &str) -> Result<u64, ParseError> {
    let digits = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
        .unwrap_or(token);
    match u64::from_str_radix(digits, 16) {
        Ok(0) => refuse("client: --trace-id must be nonzero (zero marks untraced frames)"),
        Ok(id) => Ok(id),
        Err(_) => refuse(format!(
            "client: invalid --trace-id '{token}' (expected up to 16 hex digits)"
        )),
    }
}

fn parse_dataset(token: &str) -> Result<DatasetId, ParseError> {
    match DatasetId::ALL
        .iter()
        .find(|id| id.abbrev().eq_ignore_ascii_case(token) || id.name().eq_ignore_ascii_case(token))
    {
        Some(id) => Ok(*id),
        None => refuse(format!("unknown dataset '{token}'")),
    }
}

fn parse_scale(token: &str) -> Result<Scale, ParseError> {
    match token.to_lowercase().as_str() {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        "large" => Ok(Scale::Large),
        other => refuse(format!("unknown scale '{other}'")),
    }
}

fn parse_query_mode(token: &str) -> Result<QueryMode, ParseError> {
    match token {
        "path" | "path-graph" | "spg" => Ok(QueryMode::PathGraph),
        "distance" | "dist" => Ok(QueryMode::Distance),
        "sketch" => Ok(QueryMode::Sketch),
        other => refuse(format!(
            "unknown query mode '{other}' (expected path, distance or sketch)"
        )),
    }
}

/// Parses a value as `T`, so a number outside `T`'s range (a vertex id
/// past `u32::MAX`, a port past `u16::MAX`) is refused, never truncated.
fn parse_value<T: FromStr>(token: &str, what: &str) -> Result<T, ParseError> {
    token
        .parse()
        .or_else(|_| refuse(format!("invalid {what} '{token}'")))
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
                threads: None,
                mmap: false,
                cache: None,
                query: QuerySpec {
                    source: Some(3),
                    target: Some(7),
                    pairs: None,
                    mode: QueryMode::PathGraph,
                    stats: false,
                    json: true
                }
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
                threads: Some(4),
                mmap: false,
                cache: None,
                query: QuerySpec {
                    source: None,
                    target: None,
                    pairs: Some("p.txt".into()),
                    mode: QueryMode::PathGraph,
                    stats: false,
                    json: false
                }
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
                cache: Some(4096),
                query: QuerySpec {
                    mode: QueryMode::Distance,
                    stats: false,
                    ..
                },
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
                query: QuerySpec {
                    mode: QueryMode::Sketch,
                    ..
                },
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
                query: QuerySpec {
                    mode: QueryMode::PathGraph,
                    stats: true,
                    ..
                },
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
                threads: Some(2),
                workers: None,
                cache: Some(1024),
                listen: ListenSpec {
                    addr: "127.0.0.1:7411".into(),
                    admission: AdmissionConfig {
                        max_inflight: 64,
                        max_batch: 16,
                        max_connections: 8,
                    },
                    metrics_addr: None,
                    slow_query_ms: None,
                },
            }
        );
        // Defaults, explicit --addr, and the addr/port conflict.
        let cmd = parse(&args(&["serve", "--index", "i.qbs"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                mmap: false,
                workers: None,
                listen: ListenSpec {
                    admission: AdmissionConfig {
                        max_inflight: 4096,
                        max_batch: 4096,
                        max_connections: 128,
                    },
                    ..
                },
                ..
            }
        ));
        // Workers have one spelling; the pre-reactor `--handlers` is
        // refused (its message is pinned with the other removed options).
        assert!(matches!(
            parse(&args(&["serve", "--index", "i", "--workers", "6"])).unwrap(),
            Command::Serve {
                workers: Some(6),
                ..
            }
        ));
        assert!(parse(&args(&["serve", "--index", "i", "--handlers", "3"])).is_err());
        assert!(matches!(
            parse(&args(&["serve", "--index", "i", "--addr", "0.0.0.0:9"])).unwrap(),
            Command::Serve { listen, .. } if listen.addr == "0.0.0.0:9"
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
                action: ClientAction::Query(QuerySpec {
                    source: None,
                    target: None,
                    pairs: Some("p.txt".into()),
                    mode: QueryMode::Distance,
                    stats: true,
                    json: false,
                }),
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
                action: ClientAction::Query(QuerySpec {
                    source: Some(1),
                    target: Some(2),
                    json: true,
                    ..
                }),
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
        // An option the action never reads is refused, naming the action
        // that reads it: --count is --ping's, and --mode, --format and
        // --stats are a query's.
        let count = "client: --count is read by --ping only";
        for argv in [
            &[
                "client",
                "--addr",
                "127.0.0.1:1",
                "--shutdown",
                "--count",
                "3",
                "--mode",
                "sketch",
                "--format",
                "json",
            ][..],
            &["client", "--addr", "h:1", "--count", "3", "--pairs", "p"],
            &["client", "--addr", "h:1", "--metrics", "--count", "3"],
        ] {
            assert_eq!(parse(&args(argv)).unwrap_err().0, count, "{argv:?}");
        }
        for (control, option, value) in [
            ("ping", "mode", "distance"),
            ("shutdown", "format", "json"),
            ("metrics", "stats", ""),
            ("ping", "stats", ""),
            ("metrics", "mode", "path"),
        ] {
            let (control, flag) = (format!("--{control}"), format!("--{option}"));
            let mut argv = vec!["client", "--addr", "h:1", &control, &flag];
            if !value.is_empty() {
                argv.push(value);
            }
            assert_eq!(
                parse(&args(&argv)).unwrap_err().0,
                format!(
                    "client: --{option} is read by queries (--source/--target or --pairs), not \
                     by {control}"
                ),
                "{argv:?}"
            );
        }
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
        ]))
        .unwrap();
        match parsed {
            Command::Route { replicas, listen } => {
                assert_eq!(listen.addr, "127.0.0.1:7410");
                assert_eq!(
                    replicas,
                    vec!["10.0.0.1:7411", "10.0.0.2:7411", "10.0.0.3:7411"]
                );
                let AdmissionConfig {
                    max_inflight,
                    max_batch,
                    max_connections,
                } = listen.admission;
                assert_eq!(
                    (max_inflight, max_batch, max_connections),
                    (4096, 4096, 128)
                );
                assert_eq!((listen.metrics_addr, listen.slow_query_ms), (None, None));
            }
            other => panic!("expected Route, got {other:?}"),
        }
        // Defaults: the route port, one replica.
        assert!(matches!(
            parse(&args(&["route", "--replica", "h:1"])).unwrap(),
            Command::Route { listen, .. } if listen.addr == "127.0.0.1:7410"
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
        assert!(usage().contains("generate"));
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

    #[test]
    fn out_of_range_vertex_ids_and_ports_are_refused() {
        // A vertex id past `u32::MAX` is refused, not truncated to another
        // vertex (4294967297 would otherwise answer the pair (1, 5)).
        for argv in [
            &[
                "query",
                "--index",
                "i",
                "--source",
                "4294967297",
                "--target",
                "5",
            ][..],
            &[
                "client",
                "--addr",
                "h:1",
                "--source",
                "4294967297",
                "--target",
                "5",
            ],
        ] {
            assert_eq!(
                parse(&args(argv)).unwrap_err().0,
                "invalid source '4294967297'"
            );
        }
        let err = parse(&args(&[
            "client",
            "--addr",
            "h:1",
            "--source",
            "1",
            "--target",
            "4294967296",
        ]))
        .unwrap_err();
        assert_eq!(err.0, "invalid target '4294967296'");
        assert!(matches!(
            parse(&args(&[
                "query",
                "--index",
                "i",
                "--source",
                "4294967295",
                "--target",
                "0",
            ]))
            .unwrap(),
            Command::Query {
                query: QuerySpec {
                    source: Some(u32::MAX),
                    ..
                },
                ..
            }
        ));
        for argv in [
            &["serve", "--index", "i", "--port", "65536"][..],
            &["route", "--replica", "h:1", "--port", "65536"],
        ] {
            assert_eq!(parse(&args(argv)).unwrap_err().0, "invalid port '65536'");
        }
    }

    #[test]
    fn a_repeated_option_is_refused() {
        let err = parse(&args(&[
            "build",
            "--graph",
            "g",
            "--landmarks",
            "5",
            "--landmarks",
            "80",
            "--out",
            "i",
        ]))
        .unwrap_err();
        assert_eq!(err.0, "build: --landmarks given twice");
        let err = parse(&args(&[
            "query", "--index", "i", "--pairs", "p", "--mmap", "--mmap",
        ]))
        .unwrap_err();
        assert_eq!(err.0, "query: --mmap given twice");
    }

    /// A sample value for an option's help placeholder.
    fn sample(placeholder: &str) -> &'static str {
        match placeholder {
            "NAME" => "YT",
            "SCALE" => "tiny",
            "MODE" => "distance",
            "FORMAT" => "json",
            "H:P" => "h:1",
            "HEX" => "0xAB",
            _ => "7",
        }
    }

    /// Every option a table lists parses with a sample value, and `help`
    /// names every subcommand and, under it, exactly the options `parse`
    /// accepts.
    #[test]
    fn tables_parse_and_help_cannot_drift() {
        let help = usage();
        assert!(help.contains("\n  help\n"), "{help}");
        for spec in COMMANDS {
            let command = spec.0;
            let listed: Vec<&str> = help
                .lines()
                .skip_while(|line| !line.starts_with(&format!("  {command} ")))
                .skip(1)
                .take_while(|line| line.starts_with("      --"))
                .filter_map(|line| line.split_whitespace().next())
                .collect();
            let accepted: Vec<String> = spec
                .options()
                .filter(|o| !matches!(o.1, Removed(_)))
                .map(|o| format!("--{}", o.0))
                .collect();
            assert_eq!(listed, accepted, "help for {command}");

            let mut required = vec![command.to_string()];
            for Opt(name, kind, _) in spec.options() {
                if let Required(v) | Repeated(v) = kind {
                    required.extend([format!("--{name}"), sample(v).to_string()]);
                }
            }
            let reads_query = spec.2.iter().any(|o| o.0 == "pairs");
            for Opt(name, kind, _) in spec.options() {
                // The pair itself is the sample for --source and --target.
                let mut argv = required.clone();
                match kind {
                    Removed(_) => continue,
                    Value(_) if ["source", "target"].contains(name) => {}
                    Value(v) => argv.extend([format!("--{name}"), sample(v).to_string()]),
                    Flag => argv.push(format!("--{name}")),
                    Required(_) | Repeated(_) => {}
                }
                // A query names one pair unless the option stands in for
                // it; --count is read by --ping alone.
                if *name == "count" {
                    argv.push("--ping".to_string());
                } else if reads_query && !["pairs", "ping", "metrics", "shutdown"].contains(name) {
                    argv.extend(args(&["--source", "1", "--target", "2"]));
                }
                let parsed = parse(&argv);
                assert!(parsed.is_ok(), "{argv:?}: {parsed:?}");
            }
        }
    }

    /// Every removed option is refused with its exact message, wherever it
    /// sits and whether or not a value follows it.
    #[test]
    fn removed_options_are_refused_with_their_messages() {
        let layout = "was removed: there is one index file layout now, so drop the flag";
        let expected = [
            ("build", "format", format!("build: --format {layout}")),
            ("build", "profile", format!("build: --profile {layout}")),
            (
                "build",
                "sequential",
                "build: --sequential was removed: there is one labelling builder, and it is \
                 sequential, so drop the flag"
                    .to_string(),
            ),
            (
                "query",
                "from-view",
                "query: --from-view was removed: every query is served from the index file's \
                 layout, so drop the flag (add --mmap to map the file)"
                    .to_string(),
            ),
            (
                "serve",
                "handlers",
                "serve: --handlers was removed: pass --workers N, its one spelling".to_string(),
            ),
            (
                "route",
                "workers",
                "route: --workers was removed: a router runs on its reactor thread alone, so drop \
                 the flag"
                    .to_string(),
            ),
            (
                "client",
                "protocol",
                format!(
                    "--protocol was removed: this build speaks protocol v{} only",
                    qbs_server::PROTOCOL_VERSION
                ),
            ),
        ];
        let removed: Vec<(&str, &str)> = COMMANDS
            .iter()
            .flat_map(|spec| spec.options().map(move |o| (spec.0, o)))
            .filter(|(_, o)| matches!(o.1, Removed(_)))
            .map(|(command, o)| (command, o.0))
            .collect();
        let listed: Vec<(&str, &str)> = expected.iter().map(|(c, o, _)| (*c, *o)).collect();
        assert_eq!(removed, listed);
        for (command, option, message) in &expected {
            let option = format!("--{option}");
            for argv in [
                vec![*command, &option],
                vec![*command, &option, "x", "--bogus"],
            ] {
                assert_eq!(&parse(&args(&argv)).unwrap_err().0, message);
            }
        }
    }
}
