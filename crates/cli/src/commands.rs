//! Command implementations. Each command returns its human-readable report
//! as a `String` so it can be unit-tested without a subprocess.

use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qbs_core::serialize::{self, MapMode};
use qbs_core::{
    CacheConfig, MetricsSnapshot, Qbs, QbsConfig, QueryMode, QueryOutcome, QueryRequest, ViewBuf,
};
use qbs_gen::catalog::Catalog;
use qbs_graph::json::ToJson;
use qbs_graph::{io, Graph, VertexId};
use qbs_router::{QbsRouter, RouterConfig, RouterHandle};
use qbs_server::{
    signal, BatchReply, ProtocolError, QbsClient, QbsServer, ServerConfig, ServerHandle,
    ShutdownSignal,
};

use crate::args::{usage, ClientAction, Command, QuerySpec};

/// Errors produced while executing a command.
#[derive(Debug)]
pub enum CommandError {
    /// A graph file could not be read or written.
    Graph(qbs_graph::GraphError),
    /// An index could not be built, loaded or queried.
    Index(qbs_core::QbsError),
    /// A network serving operation failed (handshake, framing, transport).
    Protocol(ProtocolError),
    /// Generic I/O failure.
    Io(std::io::Error),
    /// The invocation asks for something this build no longer does; the
    /// message names what was removed and what to do instead.
    Removed(String),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Graph(e) => write!(f, "graph error: {e}"),
            CommandError::Index(e) => write!(f, "index error: {e}"),
            CommandError::Protocol(e) => write!(f, "protocol error: {e}"),
            CommandError::Io(e) => write!(f, "i/o error: {e}"),
            CommandError::Removed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<qbs_graph::GraphError> for CommandError {
    fn from(e: qbs_graph::GraphError) -> Self {
        CommandError::Graph(e)
    }
}

impl From<qbs_core::QbsError> for CommandError {
    fn from(e: qbs_core::QbsError) -> Self {
        CommandError::Index(e)
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

impl From<ProtocolError> for CommandError {
    fn from(e: ProtocolError) -> Self {
        CommandError::Protocol(e)
    }
}

/// Executes a parsed command and returns the text to print.
pub fn run(command: &Command) -> Result<String, CommandError> {
    match command {
        Command::Help => Ok(usage()),
        Command::Generate {
            dataset,
            scale,
            out,
        } => {
            let graph = Catalog::paper_table1()
                .get(*dataset)
                .expect("the Table 1 catalog holds every DatasetId")
                .generate(*scale);
            store_graph(&graph, out)?;
            Ok(format!(
                "generated {} stand-in at scale {:?}: {} vertices, {} edges -> {}",
                dataset.name(),
                scale,
                graph.num_vertices(),
                graph.num_edges(),
                out.display()
            ))
        }
        Command::Build {
            graph,
            landmarks,
            out,
        } => {
            let graph = load_graph(graph)?;
            let session = Qbs::build(graph, QbsConfig::with_landmark_count(*landmarks))?;
            let index = session.index().expect("a built session holds its index");
            serialize::save_to_file(index, out)?;
            let stats = index.stats();
            Ok(format!(
                "built index over {} vertices / {} edges with {} landmarks in {:.3}s \
                 (size(L)={} bytes, {} bytes resident, size(Δ)={} bytes) -> {}",
                stats.num_vertices,
                stats.num_edges,
                stats.num_landmarks,
                stats.total_build_time.as_secs_f64(),
                stats.labelling_paper_bytes,
                stats.labelling_memory_bytes,
                stats.delta_bytes,
                out.display()
            ))
        }
        Command::Query {
            index,
            threads,
            mmap,
            cache,
            query,
        } => {
            let qbs = open_session(index, *mmap, *threads, *cache)?;
            let submit = |requests: &[QueryRequest]| Ok(BatchReply::Outcomes(qbs.submit(requests)));
            serve_queries(query, submit, Some(&qbs))
        }
        Command::Serve { .. } => {
            let (mut handle, _qbs) = start_server(command)?;
            let banner = format!("qbs-server listening on {}", handle.local_addr());
            wait_for_shutdown(&banner, &handle.signal());
            handle.shutdown();
            let report = handle.snapshot().render_text();
            Ok(format!("server drained and stopped\n{report}"))
        }
        Command::Route { replicas, .. } => {
            let mut handle = start_router(command)?;
            let banner = format!(
                "qbs-router listening on {} over {} replica(s)",
                handle.local_addr(),
                replicas.len()
            );
            wait_for_shutdown(&banner, &handle.signal());
            handle.shutdown();
            // The router's own counters need no replica round-trips, so
            // the drain report stays cheap even when replicas are gone.
            let report = handle.local_snapshot().render_text();
            Ok(format!("router drained and stopped\n{report}"))
        }
        Command::Client {
            addr,
            trace_id,
            action,
        } => {
            let mut client = QbsClient::connect(addr)?;
            if let Some(id) = trace_id {
                client.set_trace(qbs_core::TraceId(*id));
            }
            match action {
                ClientAction::Ping { count } => {
                    // The same log2-bucketed histogram the server shards
                    // per worker, so the quantiles printed here agree
                    // with what `--metrics` would report server-side.
                    let hist = qbs_core::LatencyHistogram::new();
                    for _ in 0..*count {
                        hist.record(client.ping()?);
                    }
                    let snap = hist.snapshot();
                    let ms = |ns: u64| ns as f64 / 1e6;
                    Ok(format!(
                        "pong from {addr}: {count} round trip(s), \
                         min {:.3}ms / p50 {:.3}ms / p90 {:.3}ms / \
                         p99 {:.3}ms / max {:.3}ms",
                        ms(snap.min),
                        ms(snap.p50()),
                        ms(snap.p90()),
                        ms(snap.p99()),
                        ms(snap.max),
                    ))
                }
                ClientAction::Metrics => Ok(render_metrics(addr, &client.metrics()?)),
                ClientAction::Shutdown => {
                    client.shutdown_server()?;
                    Ok(format!(
                        "{addr} acknowledged shutdown; in-flight batches are draining"
                    ))
                }
                ClientAction::Query(query) => {
                    serve_queries(query, |requests| Ok(client.submit(requests)?), None)
                }
            }
        }
        Command::Stats { index } => {
            // No build-time line: the file does not store timings, so an
            // opened index would report zeros.
            let index = serialize::open_from_file(index, MapMode::Read)?;
            let stats = index.stats();
            Ok(format!(
                "vertices:            {}\n\
                 edges:               {}\n\
                 landmarks:           {}\n\
                 size(L):             {} bytes\n\
                 size(Δ):             {} bytes\n\
                 meta-graph:          {} bytes ({} edges)\n\
                 graph adjacency:     {} bytes\n\
                 index/graph ratio:   {:.3}\n\
                 labelling entries:   {}",
                stats.num_vertices,
                stats.num_edges,
                stats.num_landmarks,
                stats.labelling_paper_bytes,
                stats.delta_bytes,
                stats.meta_graph_bytes,
                stats.meta_edges,
                stats.graph_bytes,
                stats.index_to_graph_ratio(),
                stats.labelling_entries,
            ))
        }
        Command::Inspect { index } => inspect_index(index),
        Command::Convert { from, to } => {
            // `convert` used to flip an index file between layouts; say so
            // instead of failing to parse the index as a graph.
            if serialize::index_version_of_file(from)?.is_some() {
                return Err(CommandError::Removed(format!(
                    "convert: {} is an index file, and index conversion was removed: there \
                     is one index file layout now. `convert` translates graph files only; \
                     rebuild an index with `qbs build --graph FILE --out FILE`",
                    from.display()
                )));
            }
            let graph = load_graph(from)?;
            store_graph(&graph, to)?;
            Ok(format!(
                "converted {} ({} vertices, {} edges) -> {}",
                from.display(),
                graph.num_vertices(),
                graph.num_edges(),
                to.display()
            ))
        }
    }
}

/// The typed request for one pair. Path-graph requests always collect
/// stats internally (they are free); `--stats` only controls whether the
/// report prints them.
fn request(spec: &QuerySpec, u: VertexId, v: VertexId) -> QueryRequest {
    let req = QueryRequest::new(u, v, spec.mode);
    if spec.mode == QueryMode::PathGraph {
        req.with_stats()
    } else {
        req
    }
}

/// Runs a `query` or `client` invocation: shapes its requests, hands them
/// to `submit` (a local session or a server connection) as one batch, and
/// renders the outcomes the same way for both, so their reports diff
/// cleanly. Admission shedding renders as a `server busy:` report (an
/// actionable outcome, not a command failure), so scripts can observe and
/// retry. `local` adds the session's threads and cache counters to a batch
/// report.
fn serve_queries(
    spec: &QuerySpec,
    submit: impl FnOnce(&[QueryRequest]) -> Result<BatchReply, CommandError>,
    local: Option<&Qbs>,
) -> Result<String, CommandError> {
    let pairs = match (&spec.pairs, spec.source, spec.target) {
        (Some(path), _, _) => load_pairs(path)?,
        (None, Some(source), Some(target)) => vec![(source, target)],
        _ => unreachable!("argument parsing enforces single-or-batch"),
    };
    let requests: Vec<QueryRequest> = pairs.iter().map(|&(u, v)| request(spec, u, v)).collect();
    let start = Instant::now();
    let reply = submit(&requests)?;
    let elapsed = start.elapsed();
    let outcomes = match reply {
        BatchReply::Busy(reason) => return Ok(render_busy(&reason, spec.json)),
        BatchReply::Outcomes(outcomes) => outcomes,
    };
    if spec.pairs.is_some() {
        return Ok(render_batch(&pairs, &outcomes, elapsed, spec, local));
    }
    // A single bad query is a command error, not a report line.
    let outcome = outcomes
        .into_iter()
        .next()
        .ok_or(CommandError::Protocol(ProtocolError::UnexpectedFrame(
            "empty batch",
        )))?
        .into_result()?;
    if spec.json {
        return Ok(render_outcome_json(&outcome));
    }
    let (source, target) = pairs[0];
    Ok(render_outcome_text(source, target, &outcome, true))
}

/// Renders an admission shed: a `server busy:` line, or (under
/// `--format json`) a parseable object so scripted consumers can
/// distinguish a retryable shed from corrupt output.
fn render_busy(reason: &qbs_server::BusyReason, json: bool) -> String {
    if json {
        format!("{{\"busy\": {}}}", reason.to_string().to_json())
    } else {
        format!("server busy: {reason}\n")
    }
}

/// Opens an index file as a session: `mmap` maps the file, otherwise it
/// is read to the heap; either way it is validated in full.
fn open_session(
    index: &Path,
    mmap: bool,
    threads: Option<usize>,
    cache: Option<usize>,
) -> Result<Qbs, CommandError> {
    let map_mode = if mmap { MapMode::Mmap } else { MapMode::Read };
    let mut qbs = Qbs::open(index, map_mode)?;
    if let Some(n) = threads {
        qbs = qbs.with_threads(n)?;
    }
    if let Some(capacity) = cache {
        qbs = qbs.with_cache(CacheConfig::with_capacity(capacity));
    }
    Ok(qbs)
}

/// Prints the listening banner, then blocks until Ctrl-C/SIGTERM or a
/// client `Shutdown` frame. Both end in the same graceful drain, so a
/// mapped index is always unmapped cleanly.
fn wait_for_shutdown(banner: &str, latch: &ShutdownSignal) {
    // The banner must reach scripts (and humans) before the blocking
    // wait, so it is printed here rather than returned. `writeln!` (not
    // `println!`): a closed stdout pipe must not panic a running server
    // (Rust ignores SIGPIPE).
    let _ = writeln!(std::io::stdout(), "{banner}");
    std::io::stdout().flush().ok();
    let termination = signal::termination_flag();
    while !latch.is_shutdown() && !termination.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Opens the session and starts the TCP server for a [`Command::Serve`]
/// invocation. Split from `run` so tests can drive a real server on an
/// ephemeral port without going through the blocking wait loop.
pub fn start_server(command: &Command) -> Result<(ServerHandle, Arc<Qbs>), CommandError> {
    let Command::Serve {
        index,
        mmap,
        threads,
        workers,
        cache,
        listen,
    } = command
    else {
        unreachable!("start_server is only called with Command::Serve");
    };
    let qbs = Arc::new(open_session(index, *mmap, *threads, *cache)?);
    let config = ServerConfig {
        addr: listen.addr.clone(),
        workers: workers.unwrap_or(4),
        admission: listen.admission,
        metrics_addr: listen.metrics_addr.clone(),
        slow_query: listen.slow_query_ms.map(Duration::from_millis),
    };
    let handle = QbsServer::start(Arc::clone(&qbs), config).map_err(CommandError::Io)?;
    Ok((handle, qbs))
}

/// Starts the scatter/gather router for a [`Command::Route`] invocation.
/// Split from `run` for the same reason as [`start_server`]: tests drive a
/// real router on an ephemeral port without the blocking wait loop.
pub fn start_router(command: &Command) -> Result<RouterHandle, CommandError> {
    let Command::Route { replicas, listen } = command else {
        unreachable!("start_router is only called with Command::Route");
    };
    let mut config = RouterConfig::bind(listen.addr.clone())
        .replicas(replicas.clone())
        .admission(listen.admission);
    if let Some(metrics_addr) = &listen.metrics_addr {
        config = config.metrics_addr(metrics_addr.clone());
    }
    if let Some(ms) = listen.slow_query_ms {
        config = config.slow_query(Duration::from_millis(ms));
    }
    QbsRouter::start(config).map_err(CommandError::Io)
}

/// Implements `inspect`: renders the header fields, checksum status, the
/// verdict of the validation every open runs, and the section table with
/// per-section shares of the file.
fn inspect_index(path: &Path) -> Result<String, CommandError> {
    let bytes = std::fs::read(path).map_err(CommandError::Io)?;
    let report = qbs_core::format::inspect(ViewBuf::Heap(bytes))?;
    let checksum_line = if report.checksum_ok() {
        format!("{:#018x} (word-wise fnv1a-64) ok", report.stored_checksum)
    } else {
        format!(
            "MISMATCH — stored {:#018x}, computed {:#018x} (file is corrupt)",
            report.stored_checksum, report.computed_checksum
        )
    };
    let mut out = format!(
        "{}: qbs-index v{} (flat binary)\n\
         file size:       {} bytes\n\
         vertices:        {}\n\
         landmarks:       {}\n\
         label slot:      {} bits ({} label bytes/vertex)\n\
         graph arcs:      {}\n\
         meta edges:      {}\n\
         delta edges:     {}\n\
         checksum:        {}\n\
         verdict:         {}\n\
         bytes/vertex:    {:.2} (whole file)\n",
        path.display(),
        qbs_core::format::FORMAT_VERSION,
        report.file_len,
        report.num_vertices,
        report.num_landmarks,
        report.dist_width,
        report.label_bytes_per_vertex(),
        report.num_arcs,
        report.num_meta_edges,
        report.num_delta_edges,
        checksum_line,
        report.fault.as_deref().unwrap_or("ok"),
        report.file_len as f64 / report.num_vertices.max(1) as f64,
    );
    out.push_str(&format!(
        "\n{:<16} {:>12} {:>14} {:>10}\n",
        "section", "offset", "bytes", "% of file",
    ));
    for record in &report.sections {
        out.push_str(&format!(
            "{:<16} {:>12} {:>14} {:>9.2}%\n",
            record.kind.name(),
            record.offset,
            record.len,
            report.section_percent(record),
        ));
    }
    Ok(out)
}

/// Renders one outcome as JSON. Path-graph answers serialise the path
/// graph itself (the shape the pre-pipeline CLI emitted), distances a bare
/// number, sketches the sketch object, and per-request failures a one-line
/// `{"error": ...}` object with the message escaped.
fn render_outcome_json(outcome: &QueryOutcome) -> String {
    match outcome {
        QueryOutcome::Distance(d) => d.to_json(),
        QueryOutcome::PathGraph(pg) => pg.to_json(),
        QueryOutcome::PathGraphWithStats(ans) => ans.path_graph.to_json(),
        QueryOutcome::Sketch(s) => s.to_json(),
        QueryOutcome::Error(e) => format!("{{\"error\": {}}}", e.to_string().to_json()),
    }
}

/// Renders one outcome as text. `verbose` additionally prints the answer
/// edges and the sketch/search statistics of path-graph answers (single
/// queries and `--stats` batches).
fn render_outcome_text(
    source: VertexId,
    target: VertexId,
    outcome: &QueryOutcome,
    verbose: bool,
) -> String {
    match outcome {
        QueryOutcome::Distance(d) => format!("d({source}, {target}) = {d}\n"),
        QueryOutcome::PathGraph(_) | QueryOutcome::PathGraphWithStats(_) => {
            let spg = outcome.path_graph().expect("path-graph outcome");
            let mut out = format!(
                "SPG({source}, {target}): distance {}, {} vertices, {} edges\n",
                spg.distance(),
                spg.num_vertices(),
                spg.num_edges()
            );
            if verbose {
                for (a, b) in spg.edges() {
                    out.push_str(&format!("  {a} -- {b}\n"));
                }
                if let Some(answer) = outcome.answer() {
                    out.push_str(&format!(
                        "sketch upper bound d⊤ = {}, reverse search = {}, recover search = {}\n",
                        answer.sketch.upper_bound,
                        answer.stats.used_reverse_search,
                        answer.stats.used_recover_search
                    ));
                }
            }
            out
        }
        QueryOutcome::Sketch(s) => format!(
            "sketch({source}, {target}): d⊤ = {}, {} source hops, {} target hops, {} meta edges\n",
            s.upper_bound,
            s.source_hops.len(),
            s.target_hops.len(),
            s.meta_edges.len()
        ),
        QueryOutcome::Error(e) => format!("query ({source}, {target}): error: {e}\n"),
    }
}

/// Renders a batch result: one line per request plus throughput, and for
/// a `local` session (a remote server's threads and cache are its own) the
/// thread count and, when attached, the cache counters. Error outcomes
/// render as error lines — they never abort the report. Shared verbatim by
/// the local `query` and network `client` paths so their reports stay
/// diffable.
fn render_batch(
    pairs: &[(VertexId, VertexId)],
    outcomes: &[QueryOutcome],
    elapsed: std::time::Duration,
    spec: &QuerySpec,
    local: Option<&Qbs>,
) -> String {
    if spec.json {
        let items: Vec<String> = outcomes.iter().map(render_outcome_json).collect();
        return format!("[\n{}\n]", items.join(",\n"));
    }
    let mut out = String::new();
    let mut failed = 0usize;
    for (&(u, v), outcome) in pairs.iter().zip(outcomes) {
        if outcome.is_error() {
            failed += 1;
        }
        out.push_str(&render_outcome_text(u, v, outcome, spec.stats));
    }
    let qps = if elapsed.as_secs_f64() > 0.0 {
        pairs.len() as f64 / elapsed.as_secs_f64()
    } else {
        f64::INFINITY
    };
    let failures = if failed > 0 {
        format!(" ({failed} failed)")
    } else {
        String::new()
    };
    let on_threads = local
        .map(|qbs| format!(" on {} threads", qbs.threads()))
        .unwrap_or_default();
    out.push_str(&format!(
        "answered {} queries{failures} in {:.3}ms{on_threads} ({:.0} queries/s)\n",
        pairs.len(),
        elapsed.as_secs_f64() * 1e3,
        qps
    ));
    let cache = local.filter(|qbs| qbs.cache().is_some());
    if let Some(line) = cache.and_then(|qbs| qbs.metrics_snapshot().cache_line()) {
        out.push_str(&format!("{line}\n"));
    }
    out
}

/// The `client --metrics` report: every counter section the snapshot
/// carries, then the per-stage latency table.
fn render_metrics(addr: &str, snapshot: &MetricsSnapshot) -> String {
    format!("server metrics for {addr}:\n{}", snapshot.render_text())
}

/// Parses a `--pairs` file: one `u v` pair per non-empty, non-comment line.
fn load_pairs(path: &Path) -> Result<Vec<(VertexId, VertexId)>, CommandError> {
    let text = std::fs::read_to_string(path)?;
    let mut pairs = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<VertexId> { tok?.parse().ok() };
        match (parse(parts.next()), parse(parts.next()), parts.next()) {
            (Some(u), Some(v), None) => pairs.push((u, v)),
            _ => {
                return Err(CommandError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: expected exactly 'u v', found '{line}'", idx + 1),
                )))
            }
        }
    }
    Ok(pairs)
}

/// Loads a graph, picking the format from the extension (`.qbsg` binary,
/// anything else is treated as a whitespace edge list).
fn load_graph(path: &Path) -> Result<Graph, CommandError> {
    if path.extension().is_some_and(|e| e == "qbsg") {
        Ok(io::read_binary_file(path)?)
    } else {
        Ok(io::read_edge_list_file(path)?)
    }
}

/// Stores a graph, picking the format from the extension.
fn store_graph(graph: &Graph, path: &Path) -> Result<(), CommandError> {
    if path.extension().is_some_and(|e| e == "qbsg") {
        io::write_binary_file(graph, path)?;
    } else {
        io::write_edge_list_file(graph, path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Command, ListenSpec};
    use qbs_core::sketch::{Sketch, SketchHop};
    use qbs_core::{QueryAnswer, RequestError, SearchStats};
    use qbs_gen::catalog::{DatasetId, Scale};
    use qbs_graph::PathGraph;
    use qbs_server::AdmissionConfig;

    // `--format json` output as the serde-based renderer printed it, byte
    // for byte. `SPG_*` are the Douban tiny stand-in's path graphs.
    const SPG_1_5: &str = r#"{
  "source": 1,
  "target": 5,
  "distance": 2,
  "edges": [
    [
      0,
      1
    ],
    [
      0,
      5
    ],
    [
      1,
      4
    ],
    [
      1,
      6
    ],
    [
      1,
      10
    ],
    [
      1,
      53
    ],
    [
      1,
      87
    ],
    [
      1,
      111
    ],
    [
      4,
      5
    ],
    [
      5,
      6
    ],
    [
      5,
      10
    ],
    [
      5,
      53
    ],
    [
      5,
      87
    ],
    [
      5,
      111
    ]
  ]
}"#;
    const SPG_2_9: &str = r#"{
  "source": 2,
  "target": 9,
  "distance": 3,
  "edges": [
    [
      0,
      2
    ],
    [
      0,
      3
    ],
    [
      0,
      39
    ],
    [
      1,
      2
    ],
    [
      1,
      3
    ],
    [
      1,
      7
    ],
    [
      2,
      4
    ],
    [
      3,
      9
    ],
    [
      4,
      7
    ],
    [
      7,
      9
    ],
    [
      9,
      39
    ]
  ]
}"#;
    const SPG_0_3: &str = r#"{
  "source": 0,
  "target": 3,
  "distance": 1,
  "edges": [
    [
      0,
      3
    ]
  ]
}"#;
    const SKETCH: &str = r#"{
  "source": 0,
  "target": 3,
  "upper_bound": 2,
  "source_hops": [
    {
      "landmark_idx": 0,
      "distance": 1
    }
  ],
  "target_hops": [
    {
      "landmark_idx": 1,
      "distance": 1
    },
    {
      "landmark_idx": 2,
      "distance": 0
    }
  ],
  "meta_edges": [
    [
      0,
      1,
      0
    ]
  ]
}"#;
    const UNREACHABLE_SKETCH: &str = r#"{
  "source": 4,
  "target": 7,
  "upper_bound": 4294967295,
  "source_hops": [],
  "target_hops": [],
  "meta_edges": []
}"#;
    const OUT_OF_RANGE_300: &str =
        r#"{"error": "vertex 999999 out of range for indexed graph with 300 vertices"}"#;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qbs_cli_test_{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn full_pipeline_generate_build_query_stats() {
        let dir = temp_dir("pipeline");
        let graph_path = dir.join("douban.qbsg");
        let index_path = dir.join("douban.qbs");

        let report = run(&Command::Generate {
            dataset: DatasetId::Douban,
            scale: Scale::Tiny,
            out: graph_path.clone(),
        })
        .expect("generate");
        assert!(report.contains("Douban"));
        assert!(graph_path.exists());

        let report = run(&Command::Build {
            graph: graph_path.clone(),
            landmarks: 10,
            out: index_path.clone(),
        })
        .expect("build");
        assert!(report.contains("10 landmarks"));

        let report = run(&Command::Query {
            index: index_path.clone(),
            threads: None,
            mmap: false,
            cache: None,
            query: QuerySpec {
                source: Some(1),
                target: Some(5),
                pairs: None,
                mode: QueryMode::PathGraph,
                stats: false,
                json: false,
            },
        })
        .expect("query");
        assert!(report.contains("SPG(1, 5)"));

        let json = run(&Command::Query {
            index: index_path.clone(),
            threads: None,
            mmap: false,
            cache: None,
            query: QuerySpec {
                source: Some(1),
                target: Some(5),
                pairs: None,
                mode: QueryMode::PathGraph,
                stats: false,
                json: true,
            },
        })
        .expect("json query");
        assert_eq!(json, SPG_1_5);

        let report = run(&Command::Stats { index: index_path }).expect("stats");
        assert!(report.contains("landmarks:           10"));
        // Build timings are not stored in the file, so a loaded index has
        // none to print.
        assert!(!report.contains("build time"), "{report}");
    }

    #[test]
    fn inspect_renders_the_section_table() {
        let dir = temp_dir("inspect");
        let graph_path = dir.join("g.qbsg");
        run(&Command::Generate {
            dataset: DatasetId::Douban,
            scale: Scale::Tiny,
            out: graph_path.clone(),
        })
        .expect("generate");
        let index_path = dir.join("g.qbs");
        run(&Command::Build {
            graph: graph_path,
            landmarks: 6,
            out: index_path.clone(),
        })
        .expect("build");
        let inspect = run(&Command::Inspect {
            index: index_path.clone(),
        })
        .expect("inspect");
        assert!(inspect.contains("qbs-index v6"), "{inspect}");
        assert!(
            inspect.contains("label slot:      4 bits (3 label bytes/vertex)"),
            "{inspect}"
        );
        assert!(inspect.contains("fnv1a-64) ok"), "{inspect}");
        assert!(inspect.contains("verdict:         ok"), "{inspect}");
        assert!(inspect.contains("bytes/vertex"), "{inspect}");
        for section in [
            "labels",
            "graph-rows",
            "graph-neighbors",
            "delta-edges",
            "checksum",
        ] {
            assert!(inspect.contains(section), "{section}: {inspect}");
        }

        // A bit-rotted file is still inspectable and says so.
        let mut bytes = std::fs::read(&index_path).expect("read");
        let last_payload = bytes.len() - 16;
        bytes[last_payload] ^= 0x01;
        let rotten = dir.join("rotten.qbs");
        std::fs::write(&rotten, bytes).expect("write");
        let inspect = run(&Command::Inspect { index: rotten }).expect("inspect rotten");
        assert!(inspect.contains("MISMATCH"), "{inspect}");
        assert!(
            inspect.contains("verdict:         corrupt index data: checksum mismatch"),
            "{inspect}"
        );

        // A file resealed after its first landmark id was set to |V|: the
        // checksum matches, and the verdict is the open's refusal.
        let mut bytes = std::fs::read(&index_path).expect("read");
        let report = qbs_core::format::inspect(ViewBuf::Heap(bytes.clone())).expect("inspect");
        let landmarks = report.sections[0].offset as usize;
        let n = report.num_vertices as u32;
        bytes[landmarks..landmarks + 4].copy_from_slice(&n.to_le_bytes());
        let sealed_at = bytes.len() - 8;
        let checksum = qbs_core::format::checksum64(&bytes[..sealed_at]);
        bytes[sealed_at..].copy_from_slice(&checksum.to_le_bytes());
        let resealed = dir.join("resealed.qbs");
        std::fs::write(&resealed, bytes).expect("write");
        let inspect = run(&Command::Inspect {
            index: resealed.clone(),
        })
        .expect("inspect resealed");
        let refusal = Qbs::open(&resealed, MapMode::Read)
            .expect_err("open refuses the file")
            .to_string();
        assert!(inspect.contains("fnv1a-64) ok"), "{inspect}");
        assert!(
            inspect.contains(&format!("verdict:         {refusal}\n")),
            "{inspect}"
        );
        assert!(
            refusal.contains(&format!("landmark id {n} out of range")),
            "{refusal}"
        );

        // Inspecting garbage fails cleanly.
        let junk = dir.join("junk.qbs");
        std::fs::write(&junk, b"garbage").expect("write");
        assert!(matches!(
            run(&Command::Inspect { index: junk }),
            Err(CommandError::Index(_))
        ));
    }

    /// The documented `generate → build → query` flow works whichever graph
    /// format the `--out` extension asks for: `generate` writes by the same
    /// extension rule `build --graph` reads by.
    #[test]
    fn generate_build_query_roundtrips_for_both_graph_formats() {
        let dir = temp_dir("graph_formats");
        let mut answers = Vec::new();
        for name in ["g.qbsg", "g.txt"] {
            let graph_path = dir.join(name);
            let index_path = dir.join(format!("{name}.qbs"));
            run(&Command::Generate {
                dataset: DatasetId::Douban,
                scale: Scale::Tiny,
                out: graph_path.clone(),
            })
            .expect("generate");
            run(&Command::Build {
                graph: graph_path,
                landmarks: 6,
                out: index_path.clone(),
            })
            .unwrap_or_else(|e| panic!("build from {name}: {e}"));
            answers.push(
                run(&Command::Query {
                    index: index_path,
                    threads: None,
                    mmap: false,
                    cache: None,
                    query: QuerySpec {
                        source: Some(1),
                        target: Some(5),
                        pairs: None,
                        mode: QueryMode::PathGraph,
                        stats: false,
                        json: false,
                    },
                })
                .expect("query"),
            );
        }
        assert!(answers[0].contains("SPG(1, 5)"), "{}", answers[0]);
        assert_eq!(
            answers[0], answers[1],
            "both graph files hold the same graph"
        );
    }

    #[test]
    fn batch_query_drives_the_engine() {
        let dir = temp_dir("batch");
        let graph_path = dir.join("g.qbsg");
        let index_path = dir.join("g.qbs");
        run(&Command::Generate {
            dataset: DatasetId::Douban,
            scale: Scale::Tiny,
            out: graph_path.clone(),
        })
        .expect("generate");
        run(&Command::Build {
            graph: graph_path,
            landmarks: 8,
            out: index_path.clone(),
        })
        .expect("build");

        let pairs_path = dir.join("pairs.txt");
        std::fs::write(&pairs_path, "# workload\n1 5\n2 9\n0 3\n").expect("write pairs");

        let report = run(&Command::Query {
            index: index_path.clone(),
            threads: Some(2),
            mmap: false,
            cache: None,
            query: QuerySpec {
                source: None,
                target: None,
                pairs: Some(pairs_path.clone()),
                mode: QueryMode::PathGraph,
                stats: false,
                json: false,
            },
        })
        .expect("batch query");
        assert!(report.contains("SPG(1, 5)"));
        assert!(report.contains("SPG(0, 3)"));
        assert!(report.contains("answered 3 queries"));
        assert!(report.contains("2 threads"));

        let json = run(&Command::Query {
            index: index_path.clone(),
            threads: None,
            mmap: false,
            cache: None,
            query: QuerySpec {
                source: None,
                target: None,
                pairs: Some(pairs_path),
                mode: QueryMode::PathGraph,
                stats: false,
                json: true,
            },
        })
        .expect("batch json");
        assert_eq!(json, format!("[\n{SPG_1_5},\n{SPG_2_9},\n{SPG_0_3}\n]"));

        // Zero threads is rejected through the engine's validation.
        let bad = run(&Command::Query {
            index: index_path,
            threads: Some(0),
            mmap: false,
            cache: None,
            query: QuerySpec {
                source: Some(1),
                target: Some(5),
                pairs: None,
                mode: QueryMode::PathGraph,
                stats: false,
                json: false,
            },
        });
        assert!(matches!(bad, Err(CommandError::Index(_))));

        // Malformed pairs files are reported with the line number.
        let bad_pairs = dir.join("bad.txt");
        std::fs::write(&bad_pairs, "1 5\nnot a pair\n").expect("write");
        assert!(load_pairs(&bad_pairs).is_err());
    }

    #[test]
    fn query_modes_cache_and_partial_failure_batches() {
        let dir = temp_dir("modes");
        let graph_path = dir.join("g.qbsg");
        let index_path = dir.join("g.qbs");
        run(&Command::Generate {
            dataset: DatasetId::Douban,
            scale: Scale::Tiny,
            out: graph_path.clone(),
        })
        .expect("generate");
        run(&Command::Build {
            graph: graph_path,
            landmarks: 8,
            out: index_path.clone(),
        })
        .expect("build");

        // A poisoned pair mid-batch fails alone: the report keeps every
        // other answer and counts the failure.
        let pairs_path = dir.join("pairs.txt");
        std::fs::write(&pairs_path, "1 5\n999999 0\n2 9\n").expect("write pairs");
        let query = |mode: QueryMode, stats: bool, cache: Option<usize>, mmap: bool| {
            run(&Command::Query {
                index: index_path.clone(),
                threads: Some(2),
                mmap,
                cache,
                query: QuerySpec {
                    source: None,
                    target: None,
                    pairs: Some(pairs_path.clone()),
                    mode,
                    stats,
                    json: false,
                },
            })
            .expect("batch")
        };
        let report = query(QueryMode::PathGraph, true, None, false);
        assert!(report.contains("SPG(1, 5)"));
        assert!(report.contains("error: vertex 999999 out of range"));
        assert!(report.contains("SPG(2, 9)"));
        assert!(report.contains("answered 3 queries (1 failed)"));
        assert!(report.contains("sketch upper bound"), "--stats prints d⊤");

        // Distance mode renders distances; the mapped file renders the
        // identical report (modulo timing lines).
        let read = query(QueryMode::Distance, false, None, false);
        assert!(read.contains("d(1, 5) = "));
        let mapped = query(QueryMode::Distance, false, None, true);
        assert_eq!(
            read.lines().take(3).collect::<Vec<_>>(),
            mapped.lines().take(3).collect::<Vec<_>>(),
            "read and mapped reports agree per line"
        );

        // Sketch mode reports the landmark summary.
        let sketch = query(QueryMode::Sketch, false, None, false);
        assert!(sketch.contains("sketch(1, 5): d⊤ = "));

        // Caching prints the counter line and keeps answers identical.
        let cached = query(QueryMode::PathGraph, false, Some(1024), false);
        assert!(cached.contains("cache: "), "{cached}");
        let uncached = query(QueryMode::PathGraph, false, None, false);
        assert_eq!(
            cached.lines().take(3).collect::<Vec<_>>(),
            uncached.lines().take(3).collect::<Vec<_>>(),
        );

        // A single out-of-range query is still a hard command error.
        let single = run(&Command::Query {
            index: index_path.clone(),
            threads: None,
            mmap: false,
            cache: None,
            query: QuerySpec {
                source: Some(1),
                target: Some(999_999),
                pairs: None,
                mode: QueryMode::Distance,
                stats: false,
                json: false,
            },
        });
        assert!(matches!(single, Err(CommandError::Index(_))));

        // JSON batch with an error slot stays valid JSON.
        let json = run(&Command::Query {
            index: index_path,
            threads: None,
            mmap: false,
            cache: None,
            query: QuerySpec {
                source: None,
                target: None,
                pairs: Some(pairs_path),
                mode: QueryMode::Distance,
                stats: false,
                json: true,
            },
        })
        .expect("json batch");
        assert_eq!(json, format!("[\n2,\n{OUT_OF_RANGE_300},\n3\n]"));
    }

    #[test]
    fn serve_and_client_roundtrip_over_loopback() {
        let dir = temp_dir("serve");
        let graph_path = dir.join("g.qbsg");
        let index_path = dir.join("g.qbs");
        run(&Command::Generate {
            dataset: DatasetId::Douban,
            scale: Scale::Tiny,
            out: graph_path.clone(),
        })
        .expect("generate");
        run(&Command::Build {
            graph: graph_path,
            landmarks: 8,
            out: index_path.clone(),
        })
        .expect("build");
        let pairs_path = dir.join("pairs.txt");
        std::fs::write(&pairs_path, "1 5\n999999 0\n2 9\n0 3\n").expect("write pairs");

        // Start a real server on an ephemeral port (mmap-backed session,
        // tight admission bounds so the sheds are testable).
        let serve = Command::Serve {
            index: index_path.clone(),
            mmap: true,
            threads: Some(2),
            workers: Some(2),
            cache: Some(1024),
            listen: ListenSpec {
                addr: "127.0.0.1:0".into(),
                admission: AdmissionConfig {
                    max_inflight: 64,
                    max_batch: 4,
                    max_connections: 8,
                },
                metrics_addr: None,
                slow_query_ms: None,
            },
        };
        let (mut handle, qbs) = start_server(&serve).expect("start server");
        assert!(
            matches!(qbs.index().unwrap().view().buf(), ViewBuf::Mmap(_)),
            "serve --mmap maps the file"
        );
        let addr = handle.local_addr().to_string();

        // Remote batch answers line-for-line identical to the local query
        // path (poisoned pair included); only the summary/thread suffix
        // lines differ.
        let client_batch = |mode: QueryMode| {
            run(&Command::Client {
                addr: addr.clone(),
                trace_id: None,
                action: ClientAction::Query(QuerySpec {
                    source: None,
                    target: None,
                    pairs: Some(pairs_path.clone()),
                    mode,
                    stats: false,
                    json: false,
                }),
            })
            .expect("client batch")
        };
        let remote = client_batch(QueryMode::PathGraph);
        let local = run(&Command::Query {
            index: index_path.clone(),
            threads: Some(2),
            mmap: true,
            cache: None,
            query: QuerySpec {
                source: None,
                target: None,
                pairs: Some(pairs_path.clone()),
                mode: QueryMode::PathGraph,
                stats: false,
                json: false,
            },
        })
        .expect("local batch");
        let answers = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| !l.starts_with("answered") && !l.starts_with("cache:"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(answers(&remote), answers(&local), "served answers diverged");
        assert!(remote.contains("error: vertex 999999 out of range"));
        assert!(remote.contains("answered 4 queries (1 failed)"));

        // An over-limit batch (5 > --max-batch 4) gets the typed busy
        // report, and the connection-level state stays serviceable.
        std::fs::write(dir.join("big.txt"), "1 2\n3 4\n5 6\n7 8\n0 1\n").expect("write");
        let busy = run(&Command::Client {
            addr: addr.clone(),
            trace_id: None,
            action: ClientAction::Query(QuerySpec {
                source: None,
                target: None,
                pairs: Some(dir.join("big.txt")),
                mode: QueryMode::Distance,
                stats: false,
                json: false,
            }),
        })
        .expect("busy report");
        assert!(busy.contains("server busy:"), "{busy}");
        assert!(busy.contains("exceeds the 4-request cap"), "{busy}");

        // Single remote query, JSON batch, ping, server stats.
        let single = run(&Command::Client {
            addr: addr.clone(),
            trace_id: None,
            action: ClientAction::Query(QuerySpec {
                source: Some(1),
                target: Some(5),
                pairs: None,
                mode: QueryMode::Distance,
                stats: false,
                json: false,
            }),
        })
        .expect("single");
        assert!(single.starts_with("d(1, 5) = "), "{single}");
        let json = run(&Command::Client {
            addr: addr.clone(),
            trace_id: None,
            action: ClientAction::Query(QuerySpec {
                source: None,
                target: None,
                pairs: Some(pairs_path.clone()),
                mode: QueryMode::Distance,
                stats: false,
                json: true,
            }),
        })
        .expect("json batch");
        assert_eq!(json, format!("[\n2,\n{OUT_OF_RANGE_300},\n3,\n1\n]"));

        let pong = run(&Command::Client {
            addr: addr.clone(),
            trace_id: None,
            action: ClientAction::Ping { count: 3 },
        })
        .expect("ping");
        assert!(pong.starts_with("pong from "), "{pong}");
        assert!(
            pong.contains("3 round trip(s)") && pong.contains("p50"),
            "--ping reports a min/p50/max summary: {pong}"
        );

        let stats = run(&Command::Client {
            addr: addr.clone(),
            trace_id: None,
            action: ClientAction::Metrics,
        })
        .expect("metrics");
        assert!(stats.contains("admission:"), "{stats}");
        assert!(stats.contains("index:     300 vertices"), "{stats}");
        assert!(
            stats.contains("cache:"),
            "--cache attaches a cache: {stats}"
        );

        // Shutdown via the protocol drains the server; afterwards the
        // port refuses connections.
        let ack = run(&Command::Client {
            addr: addr.clone(),
            trace_id: None,
            action: ClientAction::Shutdown,
        })
        .expect("shutdown");
        assert!(ack.contains("acknowledged shutdown"), "{ack}");
        handle.shutdown();
        let refused = run(&Command::Client {
            addr: addr.clone(),
            trace_id: None,
            action: ClientAction::Ping { count: 1 },
        });
        assert!(matches!(refused, Err(CommandError::Protocol(_))));
    }

    #[test]
    fn route_and_client_roundtrip_over_loopback() {
        let dir = temp_dir("route");
        let graph_path = dir.join("g.qbsg");
        let index_path = dir.join("g.qbs");
        run(&Command::Generate {
            dataset: DatasetId::Douban,
            scale: Scale::Tiny,
            out: graph_path.clone(),
        })
        .expect("generate");
        run(&Command::Build {
            graph: graph_path,
            landmarks: 8,
            out: index_path.clone(),
        })
        .expect("build");
        let pairs_path = dir.join("pairs.txt");
        std::fs::write(&pairs_path, "1 5\n999999 0\n2 9\n0 3\n").expect("write pairs");

        // Two replicas on ephemeral ports, then a router spanning them.
        let listen = ListenSpec {
            addr: "127.0.0.1:0".into(),
            admission: AdmissionConfig {
                max_inflight: 256,
                max_batch: 256,
                max_connections: 32,
            },
            metrics_addr: None,
            slow_query_ms: None,
        };
        let serve = |_| Command::Serve {
            index: index_path.clone(),
            mmap: true,
            threads: Some(2),
            workers: Some(2),
            cache: None,
            listen: listen.clone(),
        };
        let replicas: Vec<(ServerHandle, Arc<Qbs>)> = (0..2)
            .map(|i| start_server(&serve(i)).expect("start replica"))
            .collect();
        let route = Command::Route {
            replicas: replicas
                .iter()
                .map(|(h, _)| h.local_addr().to_string())
                .collect(),
            listen,
        };
        let mut router = start_router(&route).expect("start router");
        let addr = router.local_addr().to_string();

        // A routed batch renders line-for-line like a local query (the
        // poisoned pair included) — the bit-identity contract, end to end
        // through the CLI.
        let routed = run(&Command::Client {
            addr: addr.clone(),
            trace_id: None,
            action: ClientAction::Query(QuerySpec {
                source: None,
                target: None,
                pairs: Some(pairs_path.clone()),
                mode: QueryMode::PathGraph,
                stats: false,
                json: false,
            }),
        })
        .expect("routed batch");
        let local = run(&Command::Query {
            index: index_path.clone(),
            threads: Some(2),
            mmap: true,
            cache: None,
            query: QuerySpec {
                source: None,
                target: None,
                pairs: Some(pairs_path),
                mode: QueryMode::PathGraph,
                stats: false,
                json: false,
            },
        })
        .expect("local batch");
        let answers = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| !l.starts_with("answered") && !l.starts_with("cache:"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(answers(&routed), answers(&local), "routed answers diverged");
        assert!(routed.contains("error: vertex 999999 out of range"));

        // `--stats` against the router renders the aggregated router
        // section alongside the merged engine counters.
        let stats = run(&Command::Client {
            addr: addr.clone(),
            trace_id: None,
            action: ClientAction::Metrics,
        })
        .expect("metrics");
        assert!(stats.contains("router:"), "{stats}");
        assert!(stats.contains("replica 127.0.0.1:"), "{stats}");

        // Ping travels through the router reactor like any other frame.
        let pong = run(&Command::Client {
            addr,
            trace_id: None,
            action: ClientAction::Ping { count: 2 },
        })
        .expect("ping");
        assert!(pong.contains("2 round trip(s)"), "{pong}");

        router.shutdown();
        for (mut handle, _) in replicas {
            handle.shutdown();
        }
    }

    #[test]
    fn convert_between_formats_roundtrips() {
        let dir = temp_dir("convert");
        let bin = dir.join("g.qbsg");
        let txt = dir.join("g.edges");
        run(&Command::Generate {
            dataset: DatasetId::Dblp,
            scale: Scale::Tiny,
            out: bin.clone(),
        })
        .expect("generate");
        run(&Command::Convert {
            from: bin.clone(),
            to: txt.clone(),
        })
        .expect("to edge list");
        run(&Command::Convert {
            from: txt.clone(),
            to: dir.join("g2.qbsg"),
        })
        .expect("back to binary");
        let a = qbs_graph::io::read_binary_file(&bin).expect("read a");
        let b = qbs_graph::io::read_binary_file(dir.join("g2.qbsg")).expect("read b");
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    /// `convert` on an index file (current or retired layout) says what was
    /// removed instead of failing to parse the index as a graph.
    #[test]
    fn convert_refuses_index_files_loudly() {
        let dir = temp_dir("convert_index");
        let graph_path = dir.join("g.qbsg");
        let index_path = dir.join("g.qbs");
        run(&Command::Generate {
            dataset: DatasetId::Douban,
            scale: Scale::Tiny,
            out: graph_path.clone(),
        })
        .expect("generate");
        run(&Command::Build {
            graph: graph_path,
            landmarks: 4,
            out: index_path.clone(),
        })
        .expect("build");
        let old = dir.join("old.qbs2");
        std::fs::write(&old, b"QBSIDX2\0 an index an older build wrote").expect("write");
        for from in [index_path, old] {
            let err = run(&Command::Convert {
                from,
                to: dir.join("out.qbs"),
            })
            .unwrap_err();
            assert!(matches!(err, CommandError::Removed(_)), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains("index conversion was removed"), "{msg}");
            assert!(msg.contains("qbs build"), "{msg}");
        }
        assert!(!dir.join("out.qbs").exists(), "nothing is written");
    }

    #[test]
    fn helpful_errors_for_missing_files_and_bad_queries() {
        let dir = temp_dir("errors");
        assert!(matches!(
            run(&Command::Stats {
                index: dir.join("missing.qbs")
            }),
            Err(CommandError::Index(_))
        ));
        assert!(matches!(
            run(&Command::Build {
                graph: dir.join("missing.qbsg"),
                landmarks: 4,
                out: dir.join("out.qbs"),
            }),
            Err(CommandError::Graph(_))
        ));

        // Out-of-range query vertices surface as index errors.
        let graph_path = dir.join("tiny.qbsg");
        let index_path = dir.join("tiny.qbs");
        run(&Command::Generate {
            dataset: DatasetId::Douban,
            scale: Scale::Tiny,
            out: graph_path.clone(),
        })
        .expect("generate");
        run(&Command::Build {
            graph: graph_path,
            landmarks: 4,
            out: index_path.clone(),
        })
        .expect("build");
        assert!(matches!(
            run(&Command::Query {
                index: index_path,
                threads: None,
                mmap: false,
                cache: None,
                query: QuerySpec {
                    source: Some(0),
                    target: Some(u32::MAX),
                    pairs: None,
                    mode: QueryMode::PathGraph,
                    stats: false,
                    json: false,
                },
            }),
            Err(CommandError::Index(_))
        ));
    }

    /// A graph whose labels would not fit two-byte slots is refused with
    /// the typed error, and no index file is written.
    #[test]
    fn build_refuses_labels_past_two_bytes() {
        let dir = temp_dir("long_labels");
        let graph_path = dir.join("path.qbsg");
        let index_path = dir.join("path.qbs");
        let path = qbs_graph::GraphBuilder::from_edges((1..=70_000u32).map(|v| (v - 1, v)));
        store_graph(&path.build(), &graph_path).expect("store");
        let _ = std::fs::remove_file(&index_path);
        let err = run(&Command::Build {
            graph: graph_path,
            landmarks: 1,
            out: index_path.clone(),
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                CommandError::Index(qbs_core::QbsError::LabelDistanceTooLarge { .. })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("label distance of"), "{err}");
        assert!(!index_path.exists());
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&Command::Help).unwrap().contains("qbs-cli"));
    }

    /// A fixed snapshot: one execute sample and a slow query, engine
    /// counters with a cache, admission, and (router-shaped) the routing
    /// section with one healthy and one ejected replica.
    fn fixed_snapshot(router: bool) -> MetricsSnapshot {
        use qbs_core::counter::*;
        let metrics = qbs_core::Metrics::new();
        metrics.record_batch_stage(qbs_core::Stage::Execute, Duration::from_micros(40));
        metrics.inc_slow_queries();
        let mut snap = metrics.snapshot();
        let engine = [
            (VERTICES, 300),
            (LANDMARKS, 8),
            (THREADS, 4),
            (REQUESTS, 82),
        ];
        let traffic = [(BATCHES, 2), (ERRORS, 1), (CACHE_HITS, 30)];
        let cache = [(CACHE_MISSES, 10), (CACHE_ENTRIES, 9), (CACHE_EVICTIONS, 1)];
        let admission = [
            (ADMITTED_BATCHES, 2),
            (ADMITTED_REQUESTS, 82),
            (SHED_OVERLOAD, 1),
        ];
        for (def, value) in [&engine[..], &traffic, &cache, &admission].concat() {
            snap.push(def, value);
        }
        if router {
            for (def, value) in [(ROUTED_BATCHES, 2), (SUBBATCHES, 6), (ROUTER_RETRIES, 1)] {
                snap.push(def, value);
            }
            for (addr, healthy, failures) in [("127.0.0.1:7421", 1, 0), ("127.0.0.1:7422", 0, 3)] {
                snap.push_replica(REPLICA_HEALTHY, addr, healthy);
                snap.push_replica(REPLICA_BATCHES, addr, 3);
                snap.push_replica(REPLICA_FAILURES, addr, failures);
            }
        }
        snap
    }

    #[test]
    fn metrics_report_prints_every_line_kind() {
        let server = render_metrics("127.0.0.1:7411", &fixed_snapshot(false));
        for line in [
            "server metrics for 127.0.0.1:7411:",
            "index:     300 vertices, 8 landmarks",
            "threads:   4",
            "requests:  82 in 2 batches (1 errors)",
            "cache: 30 hits / 10 misses (75% hit rate), 9 entries, 1 evictions",
            "admission: 2 batches / 82 requests admitted, shed 1 overload + 0 oversized",
            "p50 ms",
            "batch       execute",
            "slow queries logged: 1",
        ] {
            assert!(server.contains(line), "{line:?} missing from:\n{server}");
        }
        assert!(!server.contains("router:"), "{server}");

        // Whole line starts: CI parses `router: B batches scattered into S
        // sub-batches` and greps `replica H:P` at the start of a line.
        let routed = render_metrics("127.0.0.1:7410", &fixed_snapshot(true));
        for line in [
            "router: 2 batches scattered into 6 sub-batches, 1 retries, 0 ejections",
            "  replica 127.0.0.1:7421: healthy — 0 requests in 3 batches",
            "  replica 127.0.0.1:7422: ejected — 0 requests in 3 batches",
        ] {
            let found = routed.lines().any(|l| l.starts_with(line));
            assert!(found, "{line:?} missing from:\n{routed}");
        }
        assert!(routed.contains("in flight, 50.0% errors"), "{routed}");
    }

    fn sample_sketch() -> Sketch {
        let hop = |landmark_idx, distance| SketchHop {
            landmark_idx,
            distance,
        };
        Sketch {
            source: 0,
            target: 3,
            upper_bound: 2,
            source_hops: vec![hop(0, 1)],
            target_hops: vec![hop(1, 1), hop(2, 0)],
            meta_edges: vec![(0, 1, 0)],
        }
    }

    #[test]
    fn json_outcomes_match_the_goldens() {
        let pg = PathGraph::from_edges(0, 3, 1, [(0u32, 3)]);
        let with_stats = QueryAnswer {
            path_graph: pg.clone(),
            sketch: sample_sketch(),
            stats: SearchStats::default(),
        };
        let out_of_range = RequestError::VertexOutOfRange {
            vertex: 999_999,
            num_vertices: 100,
        };
        for (outcome, golden) in [
            (QueryOutcome::Distance(3), "3"),
            (QueryOutcome::PathGraph(Box::new(pg)), SPG_0_3),
            (
                QueryOutcome::PathGraphWithStats(Box::new(with_stats)),
                SPG_0_3,
            ),
            (QueryOutcome::Sketch(Box::new(sample_sketch())), SKETCH),
            (
                QueryOutcome::Sketch(Box::new(Sketch::unreachable(4, 7))),
                UNREACHABLE_SKETCH,
            ),
            (
                QueryOutcome::Error(out_of_range),
                r#"{"error": "vertex 999999 out of range for indexed graph with 100 vertices"}"#,
            ),
        ] {
            assert_eq!(render_outcome_json(&outcome), golden);
        }
        let busy = qbs_server::BusyReason::BatchTooLarge { limit: 4, got: 5 };
        assert_eq!(
            render_busy(&busy, true),
            r#"{"busy": "batch of 5 requests exceeds the 4-request cap"}"#
        );
    }

    #[test]
    fn json_error_objects_escape_the_message() {
        // A router's reason travels over the wire verbatim, so it may hold
        // anything; the error object must stay one valid JSON line.
        let outcome = QueryOutcome::Error(RequestError::Unavailable {
            reason: "peer said \"no\" at C:\\q\nthen hung up\u{1}".into(),
        });
        assert_eq!(
            render_outcome_json(&outcome),
            r#"{"error": "no replica available: peer said \"no\" at C:\\q\nthen hung up\u0001"}"#
        );
    }
}
