//! The experiments of §6, one function per table/figure.
//!
//! Every function takes an [`ExperimentConfig`], returns a serialisable
//! result struct and can render itself as a paper-style text table. The
//! `experiments` binary stitches these together; the unit tests exercise
//! them on the smoke configuration so the whole evaluation pipeline is
//! covered by `cargo test`.

use std::collections::BTreeMap;
use std::time::Instant;

use qbs_core::coverage::{classify_workload, CoverageReport};
use qbs_core::{LandmarkStrategy, QbsConfig, QbsError, QbsIndex};
use qbs_gen::catalog::DatasetSpec;
use qbs_graph::impl_to_json;
use qbs_graph::json::{Object, ToJson};
use qbs_graph::stats::GraphStats;

use crate::engines::{build_method, BuildOutcome, MethodId, QbsEngine};
use crate::reporting::{fmt_bytes, fmt_count, fmt_millis, fmt_seconds, TextTable};
use crate::runner::{time_query_batch, ExperimentConfig, QueryTiming};

// ---------------------------------------------------------------------------
// Table 1 — dataset statistics
// ---------------------------------------------------------------------------

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Dataset name.
    pub dataset: String,
    /// Two-letter abbreviation.
    pub abbrev: String,
    /// Network type column.
    pub network_type: String,
    /// `|V|`.
    pub vertices: usize,
    /// `|E_un|`.
    pub edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree.
    pub avg_degree: f64,
    /// Average sampled distance.
    pub avg_distance: f64,
    /// `|G|` in bytes.
    pub graph_bytes: usize,
}

impl_to_json!(Table1Row: dataset, abbrev, network_type, vertices, edges, max_degree, avg_degree,
    avg_distance, graph_bytes);

/// Table 1: statistics of the dataset stand-ins.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// One row per dataset.
    pub rows: Vec<Table1Row>,
}

impl_to_json!(Table1: rows);

impl Table1 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Table 1: dataset stand-ins",
            &[
                "Dataset", "Type", "|V|", "|E_un|", "max.deg", "avg.deg", "avg.dist", "|G|",
            ],
        );
        for r in &self.rows {
            t.add_row(vec![
                format!("{} ({})", r.dataset, r.abbrev),
                r.network_type.clone(),
                fmt_count(r.vertices),
                fmt_count(r.edges),
                fmt_count(r.max_degree),
                format!("{:.2}", r.avg_degree),
                format!("{:.2}", r.avg_distance),
                fmt_bytes(r.graph_bytes),
            ]);
        }
        t.render()
    }
}

/// Regenerates Table 1.
pub fn table1(config: &ExperimentConfig) -> Table1 {
    let rows = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let stats = GraphStats::compute(&graph, config.query_count.min(2_000));
            Table1Row {
                dataset: spec.id.name().to_string(),
                abbrev: spec.id.abbrev().to_string(),
                network_type: spec.id.network_type().to_string(),
                vertices: stats.num_vertices,
                edges: stats.num_edges,
                max_degree: stats.max_degree,
                avg_degree: stats.avg_degree,
                avg_distance: stats.avg_distance.unwrap_or(0.0),
                graph_bytes: stats.size_bytes,
            }
        })
        .collect();
    Table1 { rows }
}

// ---------------------------------------------------------------------------
// Table 2 — construction time and average query time
// ---------------------------------------------------------------------------

/// The build/query outcome of one method on one dataset.
#[derive(Clone, Debug)]
pub enum MethodResult {
    /// Built and queried successfully.
    Ok {
        /// Construction time in seconds (0 for search-only methods).
        construction_seconds: f64,
        /// Average query time in milliseconds.
        avg_query_ms: f64,
    },
    /// Construction exceeded the time budget.
    DidNotFinish,
    /// Construction exceeded the memory budget.
    OutOfMemory,
}

/// Tagged the way the reports always were: `{"Ok": {...}}` for a measured
/// method, the bare variant name for a budget failure.
impl ToJson for MethodResult {
    fn write_json(&self, out: &mut String, depth: usize) {
        match self {
            MethodResult::Ok {
                construction_seconds,
                avg_query_ms,
            } => {
                let fields = Object(&[
                    ("construction_seconds", construction_seconds),
                    ("avg_query_ms", avg_query_ms),
                ]);
                Object(&[("Ok", &fields)]).write_json(out, depth);
            }
            MethodResult::DidNotFinish => "DidNotFinish".write_json(out, depth),
            MethodResult::OutOfMemory => "OutOfMemory".write_json(out, depth),
        }
    }
}

impl MethodResult {
    fn construction_cell(&self) -> String {
        match self {
            MethodResult::Ok {
                construction_seconds,
                ..
            } => fmt_seconds(*construction_seconds),
            MethodResult::DidNotFinish => "DNF".into(),
            MethodResult::OutOfMemory => "OOE".into(),
        }
    }

    fn query_cell(&self) -> String {
        match self {
            MethodResult::Ok { avg_query_ms, .. } => fmt_millis(*avg_query_ms),
            _ => "-".into(),
        }
    }
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Per-method outcome, keyed by the method's display name.
    pub methods: BTreeMap<String, MethodResult>,
}

impl_to_json!(Table2Row: dataset, methods);

/// Table 2: construction time and average query time per method.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// One row per dataset.
    pub rows: Vec<Table2Row>,
}

impl_to_json!(Table2: rows);

impl Table2 {
    /// Renders construction and query sub-tables.
    pub fn render(&self) -> String {
        let methods: Vec<&str> = MethodId::TABLE2.iter().map(|m| m.name()).collect();
        let mut construction = TextTable::new(
            "Table 2a: construction time (seconds)",
            &[&["Dataset"], &methods[..3]].concat(),
        );
        let query_methods = ["QbS", "PPL", "ParentPPL", "Bi-BFS"];
        let mut query = TextTable::new(
            "Table 2b: average query time (ms)",
            &[&["Dataset"], &query_methods[..]].concat(),
        );
        for row in &self.rows {
            let cell = |name: &str| row.methods.get(name);
            construction.add_row(vec![
                row.dataset.clone(),
                cell("QbS")
                    .map(|m| m.construction_cell())
                    .unwrap_or_else(|| "-".into()),
                cell("PPL")
                    .map(|m| m.construction_cell())
                    .unwrap_or_else(|| "-".into()),
                cell("ParentPPL")
                    .map(|m| m.construction_cell())
                    .unwrap_or_else(|| "-".into()),
            ]);
            query.add_row(vec![
                row.dataset.clone(),
                cell("QbS")
                    .map(|m| m.query_cell())
                    .unwrap_or_else(|| "-".into()),
                cell("PPL")
                    .map(|m| m.query_cell())
                    .unwrap_or_else(|| "-".into()),
                cell("ParentPPL")
                    .map(|m| m.query_cell())
                    .unwrap_or_else(|| "-".into()),
                cell("Bi-BFS")
                    .map(|m| m.query_cell())
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        format!("{}\n{}", construction.render(), query.render())
    }
}

/// Regenerates Table 2.
///
/// Query times are measured through the engines' batch API
/// ([`time_query_batch`]): every method amortises its per-query scratch
/// state across the workload, the regime the paper's serving numbers
/// assume.
pub fn table2(config: &ExperimentConfig) -> Table2 {
    let rows = config
        .specs()
        .iter()
        .map(|spec| table2_row(config, spec))
        .collect();
    Table2 { rows }
}

fn table2_row(config: &ExperimentConfig, spec: &DatasetSpec) -> Table2Row {
    let graph = config.graph_for(spec);
    let workload = config.workload_for(&graph);
    let mut methods = BTreeMap::new();
    for method in MethodId::TABLE2 {
        let outcome = build_method(
            method,
            &graph,
            config.landmark_count,
            config.limits.to_build_limits(),
        );
        let result = match outcome {
            BuildOutcome::Built {
                engine,
                construction,
            } => {
                let timing: QueryTiming = time_query_batch(&engine, workload.pairs());
                MethodResult::Ok {
                    construction_seconds: construction.as_secs_f64(),
                    avg_query_ms: timing.avg_ms,
                }
            }
            BuildOutcome::DidNotFinish => MethodResult::DidNotFinish,
            BuildOutcome::OutOfMemory => MethodResult::OutOfMemory,
        };
        methods.insert(method.name().to_string(), result);
    }
    Table2Row {
        dataset: spec.id.name().to_string(),
        methods,
    }
}

// ---------------------------------------------------------------------------
// Table 3 — labelling sizes
// ---------------------------------------------------------------------------

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Dataset name.
    pub dataset: String,
    /// QbS `size(L)` in bytes.
    pub qbs_labelling_bytes: usize,
    /// QbS `size(Δ)` in bytes.
    pub qbs_delta_bytes: usize,
    /// Graph adjacency size (for the "smaller than the graph" comparison).
    pub graph_bytes: usize,
    /// PPL labelling bytes (`None` when its build hit a budget).
    pub ppl_bytes: Option<usize>,
    /// ParentPPL labelling bytes (`None` when its build hit a budget).
    pub parent_ppl_bytes: Option<usize>,
}

impl_to_json!(Table3Row: dataset, qbs_labelling_bytes, qbs_delta_bytes, graph_bytes, ppl_bytes,
    parent_ppl_bytes);

/// Table 3: labelling sizes of QbS, PPL and ParentPPL.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// One row per dataset.
    pub rows: Vec<Table3Row>,
}

impl_to_json!(Table3: rows);

impl Table3 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Table 3: labelling sizes",
            &[
                "Dataset",
                "QbS size(L)",
                "QbS size(Δ)",
                "PPL",
                "ParentPPL",
                "|G|",
            ],
        );
        for r in &self.rows {
            t.add_row(vec![
                r.dataset.clone(),
                fmt_bytes(r.qbs_labelling_bytes),
                fmt_bytes(r.qbs_delta_bytes),
                r.ppl_bytes.map(fmt_bytes).unwrap_or_else(|| "-".into()),
                r.parent_ppl_bytes
                    .map(fmt_bytes)
                    .unwrap_or_else(|| "-".into()),
                fmt_bytes(r.graph_bytes),
            ]);
        }
        t.render()
    }
}

/// Regenerates Table 3.
pub fn table3(config: &ExperimentConfig) -> Table3 {
    let rows = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let qbs = QbsIndex::build(
                graph.clone(),
                QbsConfig::with_landmark_count(config.landmark_count),
            );
            let stats = qbs.stats();
            let limits = config.limits.to_build_limits();
            let ppl_bytes = qbs_baselines::Ppl::build_with_limits(graph.clone(), limits)
                .ok()
                .map(|p| p.labelling_size_bytes());
            let parent_ppl_bytes =
                qbs_baselines::ParentPpl::build_with_limits(graph.clone(), limits)
                    .ok()
                    .map(|p| p.labelling_size_bytes());
            Table3Row {
                dataset: spec.id.name().to_string(),
                qbs_labelling_bytes: stats.labelling_paper_bytes,
                qbs_delta_bytes: stats.delta_bytes,
                graph_bytes: stats.graph_bytes,
                ppl_bytes,
                parent_ppl_bytes,
            }
        })
        .collect();
    Table3 { rows }
}

// ---------------------------------------------------------------------------
// Figure 7 — distance distribution of the query workload
// ---------------------------------------------------------------------------

/// The distance distribution of one dataset's workload.
#[derive(Clone, Debug)]
pub struct Fig7Series {
    /// Dataset abbreviation.
    pub dataset: String,
    /// `fractions[d]` = fraction of sampled pairs at distance `d`.
    pub fractions: Vec<f64>,
    /// Mean sampled distance.
    pub mean_distance: f64,
}

impl_to_json!(Fig7Series: dataset, fractions, mean_distance);

/// Figure 7: distance distribution of the sampled query pairs.
#[derive(Clone, Debug)]
pub struct Fig7 {
    /// One series per dataset.
    pub series: Vec<Fig7Series>,
}

impl_to_json!(Fig7: series);

impl Fig7 {
    /// Renders one row per dataset with the per-distance fractions.
    pub fn render(&self) -> String {
        let max_d = self
            .series
            .iter()
            .map(|s| s.fractions.len())
            .max()
            .unwrap_or(0);
        let header: Vec<String> = std::iter::once("Dataset".to_string())
            .chain((0..max_d).map(|d| format!("d={d}")))
            .chain(std::iter::once("mean".to_string()))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = TextTable::new("Figure 7: query distance distribution", &header_refs);
        for s in &self.series {
            let mut row = vec![s.dataset.clone()];
            for d in 0..max_d {
                row.push(format!("{:.3}", s.fractions.get(d).copied().unwrap_or(0.0)));
            }
            row.push(format!("{:.2}", s.mean_distance));
            t.add_row(row);
        }
        t.render()
    }
}

/// Regenerates Figure 7.
pub fn fig7(config: &ExperimentConfig) -> Fig7 {
    let series = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let workload = config.workload_for(&graph);
            let histogram = workload.distance_histogram(&graph);
            Fig7Series {
                dataset: spec.id.abbrev().to_string(),
                fractions: histogram.fractions(),
                mean_distance: histogram.mean().unwrap_or(0.0),
            }
        })
        .collect();
    Fig7 { series }
}

// ---------------------------------------------------------------------------
// Figures 8–11 — landmark sweeps
// ---------------------------------------------------------------------------

/// One measurement of a landmark sweep for one dataset.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Number of landmarks `|R|`.
    pub landmarks: usize,
    /// Pair-coverage report at this landmark count (Figure 8).
    pub coverage: CoverageReport,
    /// Labelling size `size(L) + size(Δ)` in bytes (Figure 9).
    pub labelling_bytes: usize,
    /// Sequential labelling construction time in seconds (Figure 10).
    pub construction_seconds: f64,
    /// Average query time in milliseconds (Figure 11).
    pub avg_query_ms: f64,
}

impl_to_json!(SweepPoint: landmarks, coverage, labelling_bytes, construction_seconds, avg_query_ms);

/// A full landmark sweep for one dataset (shared by Figures 8–11).
#[derive(Clone, Debug)]
pub struct SweepSeries {
    /// Dataset abbreviation.
    pub dataset: String,
    /// One point per swept landmark count.
    pub points: Vec<SweepPoint>,
}

impl_to_json!(SweepSeries: dataset, points);

/// The landmark sweep behind Figures 8, 9, 10 and 11.
#[derive(Clone, Debug)]
pub struct LandmarkSweep {
    /// One series per dataset.
    pub series: Vec<SweepSeries>,
}

impl_to_json!(LandmarkSweep: series);

impl LandmarkSweep {
    fn render_metric(&self, title: &str, metric: impl Fn(&SweepPoint) -> String) -> String {
        let counts: Vec<usize> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.landmarks).collect())
            .unwrap_or_default();
        let header: Vec<String> = std::iter::once("Dataset".to_string())
            .chain(counts.iter().map(|c| format!("|R|={c}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = TextTable::new(title, &header_refs);
        for s in &self.series {
            let mut row = vec![s.dataset.clone()];
            for p in &s.points {
                row.push(metric(p));
            }
            t.add_row(row);
        }
        t.render()
    }

    /// Figure 8 rendering: pair coverage ratio (case i + case ii).
    pub fn render_fig8(&self) -> String {
        self.render_metric("Figure 8: pair coverage ratio vs |R|", |p| {
            format!(
                "{:.2} ({:.2} all)",
                p.coverage.pair_coverage_ratio(),
                p.coverage.all_through_ratio()
            )
        })
    }

    /// Figure 9 rendering: labelling size.
    pub fn render_fig9(&self) -> String {
        self.render_metric("Figure 9: labelling size vs |R|", |p| {
            fmt_bytes(p.labelling_bytes)
        })
    }

    /// Figure 10 rendering: construction time.
    pub fn render_fig10(&self) -> String {
        self.render_metric("Figure 10: construction time (s) vs |R|", |p| {
            fmt_seconds(p.construction_seconds)
        })
    }

    /// Figure 11 rendering: average query time.
    pub fn render_fig11(&self) -> String {
        self.render_metric("Figure 11: avg query time (ms) vs |R|", |p| {
            fmt_millis(p.avg_query_ms)
        })
    }
}

/// Runs the landmark sweep shared by Figures 8–11.
pub fn landmark_sweep(config: &ExperimentConfig) -> LandmarkSweep {
    let series = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let workload = config.workload_for(&graph);
            let points = config
                .landmark_sweep
                .iter()
                .map(|&count| {
                    // The landmarks' BFSs run together, 32 per pass, so
                    // the build grows with |R| more slowly than Figure
                    // 10's one-BFS-per-landmark line.
                    let start = Instant::now();
                    let index =
                        QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(count));
                    let construction_seconds = start.elapsed().as_secs_f64();
                    let coverage = classify_workload(&index, workload.pairs());
                    let stats = index.stats();
                    let engine_pairs = workload.pairs();
                    // Fig. 11 measures the steady-state query path: one
                    // reused workspace, as a serving deployment would run.
                    let mut ws = qbs_core::QueryWorkspace::new();
                    let t0 = Instant::now();
                    for &(u, v) in engine_pairs {
                        let request = qbs_core::QueryRequest::path_graph(u, v).with_stats();
                        let _ = index.execute_with(&mut ws, &request, None);
                    }
                    let avg_query_ms = if engine_pairs.is_empty() {
                        0.0
                    } else {
                        t0.elapsed().as_secs_f64() * 1e3 / engine_pairs.len() as f64
                    };
                    SweepPoint {
                        landmarks: count,
                        coverage,
                        labelling_bytes: stats.labelling_paper_bytes + stats.delta_bytes,
                        construction_seconds,
                        avg_query_ms,
                    }
                })
                .collect();
            SweepSeries {
                dataset: spec.id.abbrev().to_string(),
                points,
            }
        })
        .collect();
    LandmarkSweep { series }
}

/// Figure 8 (pair coverage): a thin wrapper over [`landmark_sweep`].
pub fn fig8(config: &ExperimentConfig) -> LandmarkSweep {
    landmark_sweep(config)
}

// ---------------------------------------------------------------------------
// §6.5 — edges traversed: QbS vs Bi-BFS
// ---------------------------------------------------------------------------

/// Traversal comparison for one dataset.
#[derive(Clone, Debug)]
pub struct TraversalRow {
    /// Dataset name.
    pub dataset: String,
    /// Average edges traversed per query by the QbS guided search.
    pub qbs_edges: f64,
    /// Average edges traversed per query by Bi-BFS: the same search with no
    /// landmarks, so on the full graph.
    pub landmark_free_edges: f64,
    /// Fraction of traversal saved by QbS (`1 - qbs/landmark_free`).
    pub saving: f64,
}

impl_to_json!(TraversalRow: dataset, qbs_edges, landmark_free_edges, saving);

/// The §6.5 "edges traversed" comparison.
#[derive(Clone, Debug)]
pub struct Traversal {
    /// One row per dataset.
    pub rows: Vec<TraversalRow>,
}

impl_to_json!(Traversal: rows);

impl Traversal {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Section 6.5: average edges traversed per query",
            &["Dataset", "QbS", "Bi-BFS", "saving"],
        );
        for r in &self.rows {
            t.add_row(vec![
                r.dataset.clone(),
                format!("{:.0}", r.qbs_edges),
                format!("{:.0}", r.landmark_free_edges),
                format!("{:.0}%", r.saving * 100.0),
            ]);
        }
        t.render()
    }
}

/// Regenerates the §6.5 traversal comparison: stage-1 edges of the same
/// search over the same graph, built with and without landmarks.
pub fn traversal(config: &ExperimentConfig) -> Traversal {
    let rows = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let workload = config.workload_for(&graph);
            let mean_edges = |landmarks: usize| {
                let index =
                    QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(landmarks));
                let mut ws = qbs_core::QueryWorkspace::new();
                let edges: usize = workload
                    .pairs()
                    .iter()
                    .map(|&(u, v)| {
                        let request = qbs_core::QueryRequest::path_graph(u, v).with_stats();
                        let outcome = index.execute_with(&mut ws, &request, None);
                        let answer = outcome.answer().expect("workload pairs are in range");
                        answer.stats.edges_traversed
                    })
                    .sum();
                edges as f64 / workload.len().max(1) as f64
            };
            let qbs_avg = mean_edges(config.landmark_count);
            let landmark_free_avg = mean_edges(0);
            TraversalRow {
                dataset: spec.id.name().to_string(),
                qbs_edges: qbs_avg,
                landmark_free_edges: landmark_free_avg,
                saving: if landmark_free_avg > 0.0 {
                    1.0 - qbs_avg / landmark_free_avg
                } else {
                    0.0
                },
            }
        })
        .collect();
    Traversal { rows }
}

fn per_query_ms(elapsed: std::time::Duration, queries: usize) -> f64 {
    if queries == 0 {
        0.0
    } else {
        elapsed.as_secs_f64() * 1e3 / queries as f64
    }
}

// ---------------------------------------------------------------------------
// Mixed-batch — request-pipeline differential (CI drift tripwire)
// ---------------------------------------------------------------------------

/// Mixed-batch differential result for one dataset.
#[derive(Clone, Debug)]
pub struct MixedBatchRow {
    /// Dataset name.
    pub dataset: String,
    /// Number of requests in the heterogeneous batch (incl. the poisoned
    /// pair).
    pub requests: usize,
    /// Error outcomes observed (must be exactly 1: the poisoned pair).
    pub error_slots: usize,
    /// Requests in the Zipf(1.5)-skewed distance batch.
    pub zipf_requests: usize,
    /// Slots of the Zipf batch that repeat a key of that batch (must be
    /// non-zero: the batch exists to carry repeated keys).
    pub zipf_repeats: usize,
    /// Whether every outcome of both batches matched: heap vs mmap
    /// buffers, the one-at-a-time reference, and warm-cache vs cold
    /// answers.
    pub identical: bool,
    /// Cold (uncached) batch time, ms/request.
    pub cold_ms: f64,
    /// Warm-cache batch time, ms/request.
    pub warm_ms: f64,
    /// Cache hit rate of the warm pass.
    pub cache_hit_rate: f64,
}

impl_to_json!(MixedBatchRow: dataset, requests, error_slots, zipf_requests, zipf_repeats,
    identical, cold_ms, warm_ms, cache_hit_rate);

/// The mixed-batch differential: a heterogeneous distance/path/sketch
/// batch (with one poisoned pair mid-batch) and a Zipf(1.5)-skewed
/// distance batch (whose slots repeat keys) are submitted through the
/// request pipeline over the heap buffer and a mapping of one index, on
/// two threads, and checked slot-by-slot against one-at-a-time execution;
/// a cache-enabled session then runs each batch cold and warm and must
/// produce bit-identical outcomes. CI runs this at tiny scale and fails
/// the pipeline on any drift.
#[derive(Clone, Debug)]
pub struct MixedBatch {
    /// One row per dataset.
    pub rows: Vec<MixedBatchRow>,
}

impl_to_json!(MixedBatch: rows);

impl MixedBatch {
    /// Whether every dataset's batches were fully consistent.
    pub fn all_identical(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.identical && r.error_slots == 1 && r.zipf_repeats > 0)
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Mixed batch: request pipeline vs one at a time (+ cache warm/cold)",
            &[
                "Dataset",
                "requests",
                "errors",
                "zipf reqs",
                "repeats",
                "cold ms",
                "warm ms",
                "hit rate",
                "identical",
            ],
        );
        // No cold/warm ratio: each time is one pass over the batch, and at
        // tiny scale the ratio of two such passes varied several-fold
        // between runs of one binary.
        for r in &self.rows {
            t.add_row(vec![
                r.dataset.clone(),
                fmt_count(r.requests),
                fmt_count(r.error_slots),
                fmt_count(r.zipf_requests),
                fmt_count(r.zipf_repeats),
                fmt_millis(r.cold_ms),
                fmt_millis(r.warm_ms),
                format!("{:.0}%", r.cache_hit_rate * 100.0),
                if r.identical {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
        t.render()
    }
}

/// Builds the heterogeneous request batch of one dataset: modes cycle over
/// the workload, one out-of-range pair is spliced into the middle.
fn mixed_requests(
    pairs: &[(qbs_graph::VertexId, qbs_graph::VertexId)],
    num_vertices: usize,
) -> Vec<qbs_core::QueryRequest> {
    use qbs_core::QueryRequest;
    let mut requests: Vec<QueryRequest> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(u, v))| match i % 4 {
            0 => QueryRequest::distance(u, v),
            1 => QueryRequest::path_graph(u, v),
            2 => QueryRequest::path_graph(u, v).with_stats(),
            _ => QueryRequest::sketch(u, v),
        })
        .collect();
    let poison = num_vertices as qbs_graph::VertexId;
    requests.insert(requests.len() / 2, QueryRequest::distance(poison, 0));
    requests
}

/// Slots of a distance batch whose unordered pair an earlier slot asked.
fn repeated_distance_keys(requests: &[qbs_core::QueryRequest]) -> usize {
    let mut seen = std::collections::HashSet::new();
    requests
        .iter()
        .filter(|r| !seen.insert((r.source.min(r.target), r.source.max(r.target))))
        .count()
}

/// Checks one submit run slot-by-slot against the one-at-a-time
/// reference: each request through the query door on one workspace.
fn outcomes_match_one_at_a_time(
    index: &QbsIndex,
    requests: &[qbs_core::QueryRequest],
    outcomes: &[qbs_core::QueryOutcome],
) -> bool {
    let mut ws = qbs_core::QueryWorkspace::new();
    requests.len() == outcomes.len()
        && requests
            .iter()
            .zip(outcomes)
            .all(|(req, outcome)| *outcome == index.execute_with(&mut ws, req, None))
}

/// Runs the mixed-batch differential: build → save → mmap → submit both
/// batches over both buffers → compare against one-at-a-time execution →
/// re-run each warm through the answer cache.
pub fn mixed_batch(config: &ExperimentConfig) -> Result<MixedBatch, QbsError> {
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "qbs_bench_mixed_batch_{}_{nonce}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    let rows = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let workload = config.workload_for(&graph);
            let zipf: Vec<qbs_core::QueryRequest> =
                qbs_gen::QueryWorkload::sample_zipf(&graph, config.query_count, config.seed, 1.5)
                    .pairs()
                    .iter()
                    .map(|&(u, v)| qbs_core::QueryRequest::distance(u, v))
                    .collect();
            let owned =
                QbsIndex::build(graph, QbsConfig::with_landmark_count(config.landmark_count));
            let requests = mixed_requests(workload.pairs(), owned.num_vertices());
            let path = dir.join(format!("{}.qbs", spec.id.abbrev()));
            qbs_core::serialize::save_to_file(&owned, &path)?;
            let view = qbs_core::Qbs::open(&path, qbs_core::MapMode::Mmap)?.with_threads(2)?;
            let cached_session = || -> Result<qbs_core::Qbs, QbsError> {
                Ok(qbs_core::Qbs::from_index(owned.clone())
                    .with_threads(2)?
                    .with_cache(qbs_core::CacheConfig::default().admit_above(0)))
            };
            let cached = cached_session()?;
            let zipf_cached = cached_session()?;
            let owned = qbs_core::Qbs::from_index(owned).with_threads(2)?;
            let index = owned.index().expect("owned session");
            // An untimed pass starts the session's worker (and warms its
            // workspaces), as the cached session's cold pass does before
            // its timed warm pass.
            owned.submit(&requests);
            let t0 = Instant::now();
            let owned_outcomes = owned.submit(&requests);
            let cold_ms = per_query_ms(t0.elapsed(), requests.len());
            let view_outcomes = view.submit(&requests);

            let error_slots = owned_outcomes.iter().filter(|o| o.is_error()).count();
            let mut identical = owned_outcomes == view_outcomes
                && outcomes_match_one_at_a_time(index, &requests, &owned_outcomes);

            // Cache pass: cold fill, then a warm run that must be
            // bit-identical to the uncached outcomes.
            let cold_cached = cached.submit(&requests);
            let t0 = Instant::now();
            let warm = cached.submit(&requests);
            let warm_ms = per_query_ms(t0.elapsed(), requests.len());
            identical &= cold_cached == owned_outcomes && warm == owned_outcomes;
            let cache_hit_rate = cached.cache_stats().map(|s| s.hit_ratio()).unwrap_or(0.0);

            // Repeated keys: duplicate slots of the Zipf batch meet each
            // other across the two threads and in the cache.
            let zipf_outcomes = owned.submit(&zipf);
            identical &= outcomes_match_one_at_a_time(index, &zipf, &zipf_outcomes)
                && view.submit(&zipf) == zipf_outcomes
                && zipf_cached.submit(&zipf) == zipf_outcomes
                && zipf_cached.submit(&zipf) == zipf_outcomes;

            std::fs::remove_file(&path).ok();
            Ok(MixedBatchRow {
                dataset: spec.id.name().to_string(),
                requests: requests.len(),
                error_slots,
                zipf_requests: zipf.len(),
                zipf_repeats: repeated_distance_keys(&zipf),
                identical,
                cold_ms,
                warm_ms,
                cache_hit_rate,
            })
        })
        .collect::<Result<Vec<_>, QbsError>>()?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(MixedBatch { rows })
}

// ---------------------------------------------------------------------------
// Net serving — framed-TCP server differential + throughput (CI tripwire)
// ---------------------------------------------------------------------------

/// Passes each pipelining depth of the net-serving sweep is timed over;
/// the row reports the median pass.
const DEPTH_PASSES: usize = 7;

/// Network-serving result for one dataset.
#[derive(Clone, Debug)]
pub struct NetServingRow {
    /// Dataset name.
    pub dataset: String,
    /// Concurrent loopback clients in the differential phase.
    pub clients: usize,
    /// Requests served per client (incl. the poisoned pair).
    pub requests_per_client: usize,
    /// Whether every served outcome was bit-identical to local
    /// `Qbs::submit` (poisoned pair included).
    pub identical: bool,
    /// Whether an over-`max_inflight` batch was shed with a typed `Busy`
    /// (not a hang or dropped connection).
    pub busy_typed: bool,
    /// Whether a single pipelined connection (small frames in flight at
    /// once, replies redeemed out of order) served outcomes bit-identical
    /// to local `Qbs::submit`.
    pub pipelined_identical: bool,
    /// Idle connections parked on the reactor while the pipelined phase
    /// ran (the many-idle-socket scenario).
    pub idle_connections: usize,
    /// Reactor threads serving the whole socket set (fixed by design).
    pub reactor_threads: usize,
    /// Loopback serving throughput, requests/sec (all clients combined).
    pub loopback_rps: f64,
    /// In-process `Qbs::submit` throughput on the same batches, req/sec.
    pub inprocess_rps: f64,
    /// Pipelining-depth sweep over one connection, single-request frames:
    /// requests/sec at depth 1, the median of seven passes.
    pub depth1_rps: f64,
    /// Requests/sec at pipelining depth 4.
    pub depth4_rps: f64,
    /// Requests/sec at pipelining depth 16.
    pub depth16_rps: f64,
}

impl_to_json!(NetServingRow: dataset, clients, requests_per_client, identical, busy_typed,
    pipelined_identical, idle_connections, reactor_threads, loopback_rps, inprocess_rps, depth1_rps,
    depth4_rps, depth16_rps);

/// The network-serving differential + throughput record: a real
/// `qbs-server` on an ephemeral loopback port, mmap-backed, hit by
/// concurrent clients with mixed batches (one poisoned pair each), checked
/// bit-for-bit against local `Qbs::submit`; one deliberately over-bound
/// batch must earn a typed `Busy`. CI runs this at tiny scale and fails
/// the pipeline on any drift; the JSON lands in the bench-smoke artifact
/// so serving-layer numbers are tracked alongside index-load, view-query
/// and request-pipeline.
#[derive(Clone, Debug)]
pub struct NetServing {
    /// One row per dataset.
    pub rows: Vec<NetServingRow>,
}

impl_to_json!(NetServing: rows);

impl NetServing {
    /// Whether every dataset served identically (sequential and
    /// pipelined) and shed typedly.
    pub fn all_ok(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.identical && r.busy_typed && r.pipelined_identical)
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Net serving: framed TCP server vs local Qbs::submit",
            &[
                "Dataset",
                "clients",
                "req/client",
                "loopback rps",
                "in-proc rps",
                "idle conns",
                "d16/d1",
                "busy typed",
                "identical",
                "pipelined",
            ],
        );
        for r in &self.rows {
            let depth_gain = if r.depth1_rps > 0.0 {
                r.depth16_rps / r.depth1_rps
            } else {
                0.0
            };
            t.add_row(vec![
                r.dataset.clone(),
                fmt_count(r.clients),
                fmt_count(r.requests_per_client),
                format!("{:.0}", r.loopback_rps),
                format!("{:.0}", r.inprocess_rps),
                format!("{} @ {} reactor", r.idle_connections, r.reactor_threads),
                format!("{depth_gain:.1}x"),
                if r.busy_typed {
                    "yes".into()
                } else {
                    "NO".into()
                },
                if r.identical {
                    "yes".into()
                } else {
                    "NO".into()
                },
                if r.pipelined_identical {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
        t.render()
    }
}

/// Runs the network-serving differential: build → save → mmap → serve
/// over loopback TCP → concurrent mixed-batch clients diffed against local
/// submit → an over-bound batch that must get a typed `Busy`.
pub fn net_serving(config: &ExperimentConfig) -> Result<NetServing, QbsError> {
    use qbs_server::{AdmissionConfig, BatchReply, BusyReason, QbsServer, ServerConfig};

    const CLIENTS: usize = 4;
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "qbs_bench_net_serving_{}_{nonce}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    let rows = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let workload = config.workload_for(&graph);
            let owned =
                QbsIndex::build(graph, QbsConfig::with_landmark_count(config.landmark_count));
            let num_vertices = owned.num_vertices();
            let requests = mixed_requests(workload.pairs(), num_vertices);
            let path = dir.join(format!("{}.qbs", spec.id.abbrev()));
            qbs_core::serialize::save_to_file(&owned, &path)?;

            // The in-flight bound must sit above everything the
            // differential phase can legitimately have executing at once
            // (all CLIENTS batches overlapping), so the only shed the run
            // can observe is the deliberate oversized batch below —
            // otherwise scheduling overlap would flake the tripwire.
            let max_inflight = 2 * CLIENTS * requests.len();
            let qbs = std::sync::Arc::new(
                qbs_core::Qbs::open(&path, qbs_core::MapMode::Mmap)?.with_threads(2)?,
            );
            let mut server = QbsServer::start(
                std::sync::Arc::clone(&qbs),
                ServerConfig {
                    admission: AdmissionConfig {
                        max_inflight,
                        // The oversized probe must clear the batch-size cap
                        // so it reaches (and trips) the in-flight bound.
                        max_batch: max_inflight + 1,
                        ..AdmissionConfig::default()
                    },
                    ..ServerConfig::default()
                },
            )
            .map_err(QbsError::Io)?;
            let addr = server.local_addr().to_string();

            // Local reference outcomes (separate session over the same
            // file, so no state is shared with the server) with the same
            // thread budget as the served session — the overhead column
            // must measure the wire, not a thread-count mismatch.
            let local = qbs_core::Qbs::open(&path, qbs_core::MapMode::Mmap)?.with_threads(2)?;
            let expected = local.submit(&requests);

            // Differential phase: concurrent clients, every reply diffed.
            // Each worker times only its submit span (connection setup is
            // excluded — the metric is serving throughput, not dial
            // latency); the concurrent phase lasts as long as the slowest
            // worker.
            let shared = std::sync::Arc::new((requests.clone(), expected.clone()));
            let workers: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (addr, shared) = (addr.clone(), std::sync::Arc::clone(&shared));
                    std::thread::spawn(move || {
                        let (requests, expected) = &*shared;
                        let mut client = connect_ready(&addr)?;
                        let t0 = Instant::now();
                        let reply = client.submit(requests).ok()?;
                        let secs = t0.elapsed().as_secs_f64();
                        Some((reply.outcomes()? == &expected[..], secs))
                    })
                })
                .collect();
            let outcomes_timed: Vec<Option<(bool, f64)>> = workers
                .into_iter()
                .map(|w| w.join().unwrap_or(None))
                .collect();
            let identical = outcomes_timed.iter().all(|r| matches!(r, Some((true, _))));
            let loopback_secs = outcomes_timed
                .iter()
                .flatten()
                .map(|&(_, secs)| secs)
                .fold(0.0f64, f64::max);
            let loopback_rps = if loopback_secs > 0.0 {
                (CLIENTS * requests.len()) as f64 / loopback_secs
            } else {
                0.0
            };

            // In-process baseline on the same batch shape.
            let t0 = Instant::now();
            for _ in 0..CLIENTS {
                local.submit(&requests);
            }
            let inprocess_secs = t0.elapsed().as_secs_f64();
            let inprocess_rps = if inprocess_secs > 0.0 {
                (CLIENTS * requests.len()) as f64 / inprocess_secs
            } else {
                0.0
            };

            // Admission phase: one batch wider than max_inflight must be
            // shed with the typed overload reason.
            let oversized: Vec<qbs_core::QueryRequest> = (0..max_inflight as u32 + 1)
                .map(|i| {
                    qbs_core::QueryRequest::distance(
                        i % num_vertices as u32,
                        (i + 1) % num_vertices as u32,
                    )
                })
                .collect();
            let mut client = connect_ready(&addr)
                .ok_or_else(|| QbsError::Io(std::io::Error::other("no handler within 10s")))?;
            let busy_typed = matches!(
                client.submit(&oversized).map_err(protocol_to_qbs)?,
                BatchReply::Busy(BusyReason::Overloaded { .. })
            );

            // Many-idle-socket scenario: park hundreds of handshaken but
            // silent connections on the reactor, then run the pipelined
            // differential and the depth sweep *through* them — the fixed
            // reactor/worker thread set must keep serving regardless.
            let parked: Vec<_> = (0..512)
                .filter_map(|_| qbs_server::QbsClient::connect(&addr).ok())
                .collect();
            let idle_connections = parked.len();
            let reactor_threads = server.reactor_threads();

            // Pipelined phase: small frames, all in flight on one
            // connection, replies redeemed in *reverse* order — the
            // reassembled outcomes must still match local submit.
            let frames: Vec<&[qbs_core::QueryRequest]> = requests.chunks(2).collect();
            let mut tickets = Vec::with_capacity(frames.len());
            for frame in &frames {
                tickets.push(client.send(frame).map_err(protocol_to_qbs)?);
            }
            let mut slots: Vec<Option<Vec<qbs_core::QueryOutcome>>> = vec![None; frames.len()];
            for (i, ticket) in tickets.into_iter().enumerate().rev() {
                let reply = client.recv(ticket).map_err(protocol_to_qbs)?;
                slots[i] = reply.outcomes().map(|o| o.to_vec());
            }
            let pipelined_identical = slots.iter().all(Option::is_some)
                && slots
                    .into_iter()
                    .flatten()
                    .flatten()
                    .collect::<Vec<qbs_core::QueryOutcome>>()
                    == expected;

            // Pipelining-depth sweep: single-request frames through one
            // connection with 1 / 4 / 16 tickets outstanding. One pass takes
            // a few ms, so each depth reports its median pass.
            let mut depth_rps = [0.0f64; 3];
            for (slot, depth) in depth_rps.iter_mut().zip([1usize, 4, 16]) {
                let mut sweep_client = connect_ready(&addr).ok_or_else(|| {
                    QbsError::Io(std::io::Error::other("no connection for depth sweep"))
                })?;
                let mut rates = Vec::with_capacity(DEPTH_PASSES);
                for _ in 0..DEPTH_PASSES {
                    let t0 = Instant::now();
                    let mut window = std::collections::VecDeque::new();
                    for req in &requests {
                        if window.len() >= depth {
                            let ticket = window.pop_front().expect("window");
                            sweep_client.recv(ticket).map_err(protocol_to_qbs)?;
                        }
                        let ticket = sweep_client
                            .send(std::slice::from_ref(req))
                            .map_err(protocol_to_qbs)?;
                        window.push_back(ticket);
                    }
                    while let Some(ticket) = window.pop_front() {
                        sweep_client.recv(ticket).map_err(protocol_to_qbs)?;
                    }
                    let secs = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
                    rates.push(requests.len() as f64 / secs);
                }
                rates.sort_by(f64::total_cmp);
                *slot = rates[DEPTH_PASSES / 2];
            }
            drop(parked);

            server.shutdown();
            std::fs::remove_file(&path).ok();
            Ok(NetServingRow {
                dataset: spec.id.name().to_string(),
                clients: CLIENTS,
                requests_per_client: requests.len(),
                identical,
                busy_typed,
                pipelined_identical,
                idle_connections,
                reactor_threads,
                loopback_rps,
                inprocess_rps,
                depth1_rps: depth_rps[0],
                depth4_rps: depth_rps[1],
                depth16_rps: depth_rps[2],
            })
        })
        .collect::<Result<Vec<_>, QbsError>>()?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(NetServing { rows })
}

/// Maps a client-side protocol failure into the harness error type.
fn protocol_to_qbs(err: qbs_server::ProtocolError) -> QbsError {
    QbsError::Io(std::io::Error::other(err.to_string()))
}

/// Connects with the client library's bounded retry (absorbs the
/// retryable refusals of a server whose handlers are mid-teardown).
fn connect_ready(addr: &str) -> Option<qbs_server::QbsClient> {
    qbs_server::QbsClient::connect_retry(addr, std::time::Duration::from_secs(10)).ok()
}

// ---------------------------------------------------------------------------
// Routed serving — scatter/gather router differential (CI tripwire)
// ---------------------------------------------------------------------------

/// Routed-serving result for one dataset.
#[derive(Clone, Debug)]
pub struct RoutedServingRow {
    /// Dataset name.
    pub dataset: String,
    /// Replicas the router started with.
    pub replicas: usize,
    /// Requests in each mixed batch (incl. the poisoned pair).
    pub requests_per_batch: usize,
    /// Whether the cold-cache pass was bit-identical to local
    /// `Qbs::submit`, poisoned pair included.
    pub identical_cold: bool,
    /// Whether the warm re-run (cached answers on the replicas) still
    /// merged bit-identically.
    pub identical_warm: bool,
    /// Whether answers stayed bit-identical after one replica was killed
    /// mid-run (sub-batches failed over to the survivor).
    pub failover_identical: bool,
    /// Slots the router filled with `Unavailable` across the whole run
    /// (must be 0: a survivor was always up).
    pub unavailable_slots: u64,
    /// Sub-batches the router scattered (> batches proves scattering).
    pub subbatches: u64,
    /// Batches routed end to end.
    pub batches_routed: u64,
    /// Routed throughput over loopback, requests/sec.
    pub routed_rps: f64,
    /// In-process `Qbs::submit` throughput on the same batches, req/sec.
    pub inprocess_rps: f64,
}

impl_to_json!(RoutedServingRow: dataset, replicas, requests_per_batch, identical_cold,
    identical_warm, failover_identical, unavailable_slots, subbatches, batches_routed, routed_rps,
    inprocess_rps);

/// The routed-serving differential: a real `qbs-router` over replica
/// `qbs-server`s on ephemeral loopback ports, hit with mixed batches
/// (one poisoned pair each) cold and warm, diffed bit-for-bit against
/// local `Qbs::submit`, then re-diffed after a replica kill. CI runs
/// this at tiny scale in bench-smoke and fails the pipeline on drift.
#[derive(Clone, Debug)]
pub struct RoutedServing {
    /// One row per dataset.
    pub rows: Vec<RoutedServingRow>,
}

impl_to_json!(RoutedServing: rows);

impl RoutedServing {
    /// Whether every dataset routed identically in all three regimes and
    /// never shed a slot.
    pub fn all_ok(&self) -> bool {
        self.rows.iter().all(|r| {
            r.identical_cold && r.identical_warm && r.failover_identical && r.unavailable_slots == 0
        })
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Routed serving: scatter/gather router vs local Qbs::submit",
            &[
                "Dataset",
                "replicas",
                "req/batch",
                "sub/batches",
                "routed rps",
                "in-proc rps",
                "cold",
                "warm",
                "failover",
                "shed slots",
            ],
        );
        for r in &self.rows {
            let yes_no = |ok: bool| if ok { "yes".to_string() } else { "NO".into() };
            t.add_row(vec![
                r.dataset.clone(),
                fmt_count(r.replicas),
                fmt_count(r.requests_per_batch),
                format!("{}/{}", r.subbatches, r.batches_routed),
                format!("{:.0}", r.routed_rps),
                format!("{:.0}", r.inprocess_rps),
                yes_no(r.identical_cold),
                yes_no(r.identical_warm),
                yes_no(r.failover_identical),
                fmt_count(r.unavailable_slots as usize),
            ]);
        }
        t.render()
    }
}

/// Runs the routed-serving differential: build → save → start replica
/// servers (mmap sessions over the shared file) → route mixed batches
/// through a `qbs-router`, cold and warm, diffed against local submit →
/// kill one replica and diff again.
pub fn routed_serving(config: &ExperimentConfig) -> Result<RoutedServing, QbsError> {
    use qbs_router::{QbsRouter, RouterConfig};
    use qbs_server::{QbsServer, ServerConfig};

    const REPLICAS: usize = 2;
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "qbs_bench_routed_serving_{}_{nonce}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    let rows = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let workload = config.workload_for(&graph);
            let owned =
                QbsIndex::build(graph, QbsConfig::with_landmark_count(config.landmark_count));
            let num_vertices = owned.num_vertices();
            let requests = mixed_requests(workload.pairs(), num_vertices);
            let path = dir.join(format!("{}.qbs", spec.id.abbrev()));
            qbs_core::serialize::save_to_file(&owned, &path)?;
            drop(owned);

            // Each replica is its own mmap session with an answer cache, so
            // the warm pass exercises merged cached answers.
            let start_replica = || -> Result<qbs_server::ServerHandle, QbsError> {
                let qbs = qbs_core::Qbs::open(&path, qbs_core::MapMode::Mmap)?
                    .with_threads(2)?
                    .with_cache(qbs_core::CacheConfig::default());
                QbsServer::start(std::sync::Arc::new(qbs), ServerConfig::default().workers(2))
                    .map_err(QbsError::Io)
            };
            let mut replicas: Vec<qbs_server::ServerHandle> = (0..REPLICAS)
                .map(|_| start_replica())
                .collect::<Result<_, _>>()?;
            // min_split small enough that the mixed batch genuinely
            // scatters across the pool.
            let router = QbsRouter::start(
                RouterConfig::bind("127.0.0.1:0")
                    .replicas(
                        replicas
                            .iter()
                            .map(|r| r.local_addr().to_string())
                            .collect(),
                    )
                    .min_split((requests.len() / (2 * REPLICAS)).max(1)),
            )
            .map_err(QbsError::Io)?;
            let addr = router.local_addr().to_string();

            // Local reference session, same thread budget as the replicas.
            let local = qbs_core::Qbs::open(&path, qbs_core::MapMode::Mmap)?.with_threads(2)?;
            let expected = local.submit(&requests);

            let mut client = connect_ready(&addr)
                .ok_or_else(|| QbsError::Io(std::io::Error::other("no router within 10s")))?;
            let diff_pass = |client: &mut qbs_server::QbsClient| -> Result<bool, QbsError> {
                let reply = client.submit(&requests).map_err(protocol_to_qbs)?;
                Ok(reply.outcomes() == Some(&expected[..]))
            };
            let identical_cold = diff_pass(&mut client)?;
            let identical_warm = diff_pass(&mut client)?;

            // Throughput: pipelined routed batches vs in-process submit.
            const ROUNDS: usize = 8;
            let t0 = Instant::now();
            let mut window = std::collections::VecDeque::new();
            for _ in 0..ROUNDS {
                if window.len() >= 4 {
                    client
                        .recv(window.pop_front().expect("window"))
                        .map_err(protocol_to_qbs)?;
                }
                window.push_back(client.send(&requests).map_err(protocol_to_qbs)?);
            }
            while let Some(ticket) = window.pop_front() {
                client.recv(ticket).map_err(protocol_to_qbs)?;
            }
            let routed_rps = (ROUNDS * requests.len()) as f64
                / t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                local.submit(&requests);
            }
            let inprocess_rps = (ROUNDS * requests.len()) as f64
                / t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

            // Failover: kill one replica, the survivor must still produce
            // bit-identical answers (retries absorb the dead sub-batches).
            let mut victim = replicas.remove(0);
            victim.shutdown();
            drop(victim);
            let failover_identical = diff_pass(&mut client)?;

            let routed = router.local_snapshot();
            let count = |def| routed.get(def).unwrap_or(0);
            drop(client);
            drop(router);
            for mut replica in replicas {
                replica.shutdown();
            }
            std::fs::remove_file(&path).ok();
            Ok(RoutedServingRow {
                dataset: spec.id.name().to_string(),
                replicas: REPLICAS,
                requests_per_batch: requests.len(),
                identical_cold,
                identical_warm,
                failover_identical,
                unavailable_slots: count(qbs_core::counter::UNAVAILABLE_SLOTS),
                subbatches: count(qbs_core::counter::SUBBATCHES),
                batches_routed: count(qbs_core::counter::ROUTED_BATCHES),
                routed_rps,
                inprocess_rps,
            })
        })
        .collect::<Result<Vec<_>, QbsError>>()?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(RoutedServing { rows })
}

// ---------------------------------------------------------------------------
// Observability serving — instrumentation differential (CI tripwire)
// ---------------------------------------------------------------------------

/// Observability-differential result for one dataset.
#[derive(Clone, Debug)]
pub struct ObsServingRow {
    /// Dataset name.
    pub dataset: String,
    /// Requests in the mixed batch (incl. the poisoned pair).
    pub requests: usize,
    /// Whether the same session answers bit-identically with the metrics
    /// registry disabled (instrumentation must never touch answers).
    pub identical_disabled: bool,
    /// Whether the served path — traced frames, slow-query log firing on
    /// every batch — still answers bit-identically to local submit.
    pub identical_served: bool,
    /// Execute-stage samples in the served `Metrics` snapshot (proves the
    /// per-stage histograms recorded the differential traffic).
    pub execute_samples: u64,
    /// Slow queries the zero-threshold server logged (each batch trips).
    pub slow_queries: u64,
    /// Whether the `Metrics` wire frame round-tripped with recorded
    /// samples and a non-zero slow-query count.
    pub metrics_frame_ok: bool,
}

impl_to_json!(ObsServingRow: dataset, requests, identical_disabled, identical_served,
    execute_samples, slow_queries, metrics_frame_ok);

/// The observability differential: the same mixed batch through (a) an
/// instrumented local session, (b) the same session with the registry
/// disabled, and (c) a real server with a zero slow-query threshold and
/// a pinned trace ID — all three answer sets must be bit-identical, and
/// the served `Metrics` frame must carry the recorded stage samples.
/// CI runs this at tiny scale and fails the pipeline on any drift.
#[derive(Clone, Debug)]
pub struct ObsServing {
    /// One row per dataset.
    pub rows: Vec<ObsServingRow>,
}

impl_to_json!(ObsServing: rows);

impl ObsServing {
    /// Whether every dataset answered identically in all three regimes
    /// and the metrics frame carried real samples.
    pub fn all_ok(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.identical_disabled && r.identical_served && r.metrics_frame_ok)
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Observability: instrumented serving vs metrics-off vs local Qbs::submit",
            &[
                "Dataset",
                "requests",
                "exec samples",
                "slow logged",
                "off identical",
                "served identical",
                "metrics frame",
            ],
        );
        for r in &self.rows {
            let yes_no = |ok: bool| if ok { "yes".to_string() } else { "NO".into() };
            t.add_row(vec![
                r.dataset.clone(),
                fmt_count(r.requests),
                fmt_count(r.execute_samples as usize),
                fmt_count(r.slow_queries as usize),
                yes_no(r.identical_disabled),
                yes_no(r.identical_served),
                yes_no(r.metrics_frame_ok),
            ]);
        }
        t.render()
    }
}

/// Runs the observability differential: build → save → mmap →
/// instrumented submit vs registry-off submit vs served-with-tracing
/// submit, then the `Metrics` frame checked for recorded samples.
pub fn obs_serving(config: &ExperimentConfig) -> Result<ObsServing, QbsError> {
    use qbs_core::{Stage, TraceId};
    use qbs_server::{QbsServer, ServerConfig};

    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "qbs_bench_obs_serving_{}_{nonce}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    let rows = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let workload = config.workload_for(&graph);
            let owned =
                QbsIndex::build(graph, QbsConfig::with_landmark_count(config.landmark_count));
            let num_vertices = owned.num_vertices();
            let requests = mixed_requests(workload.pairs(), num_vertices);
            let path = dir.join(format!("{}.qbs", spec.id.abbrev()));
            qbs_core::serialize::save_to_file(&owned, &path)?;

            // (a) Instrumented local session — the reference answers.
            let local = qbs_core::Qbs::open(&path, qbs_core::MapMode::Mmap)?.with_threads(2)?;
            let expected = local.submit(&requests);

            // (b) Same session, registry off: recording is the only thing
            // that may change, never the answers.
            local.metrics().set_enabled(false);
            let identical_disabled = local.submit(&requests) == expected;
            local.metrics().set_enabled(true);

            // (c) Served with a zero slow-query threshold (every batch
            // trips the log) and a pinned trace ID on the wire.
            let qbs = std::sync::Arc::new(
                qbs_core::Qbs::open(&path, qbs_core::MapMode::Mmap)?.with_threads(2)?,
            );
            let mut server = QbsServer::start(
                std::sync::Arc::clone(&qbs),
                ServerConfig::default().slow_query(std::time::Duration::ZERO),
            )
            .map_err(QbsError::Io)?;
            let addr = server.local_addr().to_string();
            let mut client = connect_ready(&addr)
                .ok_or_else(|| QbsError::Io(std::io::Error::other("no handler within 10s")))?;
            client.set_trace(TraceId(0x0B5E_7ABE));
            let reply = client.submit(&requests).map_err(protocol_to_qbs)?;
            let identical_served = reply.outcomes() == Some(&expected[..]);

            // The Metrics frame must carry the stage samples the served
            // batch just recorded, plus the slow-query count.
            let snapshot = client.metrics().map_err(protocol_to_qbs)?;
            let stages = Stage::ALL.len();
            let execute_samples: u64 = snapshot
                .hists
                .iter()
                .enumerate()
                .filter(|(i, _)| i % stages == Stage::Execute as usize)
                .map(|(_, h)| h.count)
                .sum();
            let slow_queries = snapshot.get(qbs_core::counter::SLOW_QUERIES).unwrap_or(0);
            let metrics_frame_ok = execute_samples > 0 && slow_queries > 0;

            drop(client);
            server.shutdown();
            std::fs::remove_file(&path).ok();
            Ok(ObsServingRow {
                dataset: spec.id.name().to_string(),
                requests: requests.len(),
                identical_disabled,
                identical_served,
                execute_samples,
                slow_queries,
                metrics_frame_ok,
            })
        })
        .collect::<Result<Vec<_>, QbsError>>()?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(ObsServing { rows })
}

// ---------------------------------------------------------------------------
// Ablations — landmark strategy
// ---------------------------------------------------------------------------

/// Ablation results for one dataset.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Dataset name.
    pub dataset: String,
    /// Average query time with degree-selected landmarks (ms).
    pub degree_query_ms: f64,
    /// Average query time with random landmarks (ms).
    pub random_query_ms: f64,
    /// Pair coverage with degree-selected landmarks.
    pub degree_coverage: f64,
    /// Pair coverage with random landmarks.
    pub random_coverage: f64,
    /// Labelling time with degree-selected landmarks (seconds).
    pub labelling_seconds: f64,
}

impl_to_json!(AblationRow: dataset, degree_query_ms, random_query_ms, degree_coverage,
    random_coverage, labelling_seconds);

/// Ablation study: landmark selection strategy.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// One row per dataset.
    pub rows: Vec<AblationRow>,
}

impl_to_json!(Ablation: rows);

impl Ablation {
    /// Renders the ablation table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Ablation: landmark strategy",
            &[
                "Dataset",
                "deg query(ms)",
                "rand query(ms)",
                "deg coverage",
                "rand coverage",
                "labelling(s)",
            ],
        );
        for r in &self.rows {
            t.add_row(vec![
                r.dataset.clone(),
                fmt_millis(r.degree_query_ms),
                fmt_millis(r.random_query_ms),
                format!("{:.2}", r.degree_coverage),
                format!("{:.2}", r.random_coverage),
                fmt_seconds(r.labelling_seconds),
            ]);
        }
        t.render()
    }
}

/// Runs the ablation study.
pub fn ablation(config: &ExperimentConfig) -> Ablation {
    let rows = config
        .specs()
        .iter()
        .map(|spec| {
            let graph = config.graph_for(spec);
            let workload = config.workload_for(&graph);
            let degree = QbsIndex::build(
                graph.clone(),
                QbsConfig::with_landmark_count(config.landmark_count),
            );
            let random = QbsIndex::build(
                graph.clone(),
                QbsConfig {
                    landmarks: LandmarkStrategy::Random {
                        count: config.landmark_count,
                        seed: config.seed,
                    },
                },
            );
            // One workspace per index, allocated before the clock starts.
            let time_index = |index: &QbsIndex| -> f64 {
                let mut ws = qbs_core::QueryWorkspace::for_vertices(index.num_vertices());
                let t0 = Instant::now();
                for &(u, v) in workload.pairs() {
                    let request = qbs_core::QueryRequest::path_graph(u, v);
                    let _ = index.execute_with(&mut ws, &request, None);
                }
                per_query_ms(t0.elapsed(), workload.len())
            };
            let degree_query_ms = time_index(&degree);
            let random_query_ms = time_index(&random);
            let degree_coverage =
                classify_workload(&degree, workload.pairs()).pair_coverage_ratio();
            let random_coverage =
                classify_workload(&random, workload.pairs()).pair_coverage_ratio();

            let landmarks = degree.landmarks().to_vec();
            let t0 = Instant::now();
            let _ = qbs_core::labelling::build_sequential(&graph, &landmarks);
            let labelling_seconds = t0.elapsed().as_secs_f64();

            AblationRow {
                dataset: spec.id.name().to_string(),
                degree_query_ms,
                random_query_ms,
                degree_coverage,
                random_coverage,
                labelling_seconds,
            }
        })
        .collect();
    Ablation { rows }
}

/// Convenience used by tests and the quickstart: builds a QbS engine with the
/// configured landmark count over one dataset.
pub fn build_qbs(config: &ExperimentConfig, spec: &DatasetSpec) -> QbsEngine {
    QbsEngine::build(config.graph_for(spec), config.landmark_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_gen::catalog::DatasetId;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            datasets: vec![DatasetId::Douban, DatasetId::Dblp],
            query_count: 40,
            landmark_sweep: vec![5, 10],
            ..ExperimentConfig::smoke()
        }
    }

    #[test]
    fn table1_reports_every_requested_dataset() {
        let t = table1(&tiny_config());
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r.vertices > 50 && r.edges > 50));
        assert!(t.rows.iter().all(|r| r.avg_distance > 1.0));
        let rendered = t.render();
        assert!(rendered.contains("Douban"));
        assert!(rendered.contains("avg.dist"));
    }

    #[test]
    fn table2_builds_and_times_every_method() {
        let t = table2(&tiny_config());
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert_eq!(row.methods.len(), 4);
            // On tiny graphs every method should finish within the budget.
            for (name, result) in &row.methods {
                match result {
                    MethodResult::Ok { avg_query_ms, .. } => assert!(*avg_query_ms >= 0.0),
                    other => panic!("{name} unexpectedly {other:?}"),
                }
            }
        }
        let rendered = t.render();
        assert!(rendered.contains("Table 2a"));
        assert!(rendered.contains("Table 2b"));
    }

    #[test]
    fn table3_shows_qbs_smaller_than_ppl() {
        let t = table3(&tiny_config());
        for row in &t.rows {
            let ppl = row.ppl_bytes.expect("tiny PPL build fits the budget");
            assert!(
                row.qbs_labelling_bytes < ppl,
                "{}: QbS {} vs PPL {ppl}",
                row.dataset,
                row.qbs_labelling_bytes
            );
            let parent = row
                .parent_ppl_bytes
                .expect("tiny ParentPPL build fits the budget");
            assert!(parent > ppl);
        }
        assert!(t.render().contains("size(Δ)"));
    }

    #[test]
    fn fig7_fractions_sum_to_one() {
        let f = fig7(&tiny_config());
        for s in &f.series {
            let sum: f64 = s.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", s.dataset);
            assert!(s.mean_distance > 1.0);
        }
        assert!(f.render().contains("Figure 7"));
    }

    #[test]
    fn landmark_sweep_covers_all_four_figures() {
        let sweep = landmark_sweep(&tiny_config());
        assert_eq!(sweep.series.len(), 2);
        for s in &sweep.series {
            assert_eq!(s.points.len(), 2);
            // Figure 9: labelling size grows with |R|.
            assert!(s.points[1].labelling_bytes > s.points[0].labelling_bytes);
            // Figure 8: coverage never decreases with more landmarks.
            assert!(
                s.points[1].coverage.pair_coverage_ratio()
                    >= s.points[0].coverage.pair_coverage_ratio() - 1e-9
            );
            assert!(s.points.iter().all(|p| p.construction_seconds >= 0.0));
        }
        assert!(sweep.render_fig8().contains("Figure 8"));
        assert!(sweep.render_fig9().contains("Figure 9"));
        assert!(sweep.render_fig10().contains("Figure 10"));
        assert!(sweep.render_fig11().contains("Figure 11"));
    }

    #[test]
    fn traversal_shows_qbs_saves_edges_on_hub_dominated_graphs() {
        // §6.5's claim is strongest where high-degree landmarks sparsify the
        // graph (Douban/Youtube-like); on clustered low-hub graphs the saving
        // can be near zero, so the strict assertion targets the hub datasets.
        let config = ExperimentConfig {
            datasets: vec![DatasetId::Douban, DatasetId::Youtube],
            query_count: 40,
            ..ExperimentConfig::smoke()
        };
        let t = traversal(&config);
        for row in &t.rows {
            assert!(row.landmark_free_edges > 0.0);
            assert!(
                row.qbs_edges < row.landmark_free_edges,
                "{}: QbS {} vs Bi-BFS {}",
                row.dataset,
                row.qbs_edges,
                row.landmark_free_edges
            );
            assert!(row.saving > 0.0);
        }
        assert!(t.render().contains("edges traversed"));
    }

    #[test]
    fn mixed_batch_is_consistent_and_counts_one_error() {
        let m = mixed_batch(&tiny_config()).expect("mixed batch runs");
        assert_eq!(m.rows.len(), 2);
        assert!(m.all_identical(), "{m:?}");
        for row in &m.rows {
            assert_eq!(row.error_slots, 1, "exactly the poisoned pair fails");
            assert!(row.requests > 1);
            assert!(row.cache_hit_rate > 0.0, "warm pass hit the cache");
        }
        let rendered = m.render();
        assert!(rendered.contains("Mixed batch"));
        assert!(rendered.contains("yes"));
        assert!(!rendered.contains("speedup"));
    }

    #[test]
    fn net_serving_is_bit_identical_and_sheds_typedly() {
        let config = ExperimentConfig {
            datasets: vec![DatasetId::Douban],
            query_count: 24,
            ..ExperimentConfig::smoke()
        };
        let n = net_serving(&config).expect("net serving runs");
        assert_eq!(n.rows.len(), 1);
        assert!(n.all_ok(), "{n:?}");
        let row = &n.rows[0];
        assert_eq!(row.clients, 4);
        assert!(row.requests_per_client > 1);
        assert!(row.loopback_rps > 0.0 && row.inprocess_rps > 0.0);
        assert_eq!(
            row.idle_connections, 512,
            "the parked sockets all connected"
        );
        assert_eq!(row.reactor_threads, 1, "one reactor thread serves them all");
        assert!(row.depth1_rps > 0.0 && row.depth4_rps > 0.0 && row.depth16_rps > 0.0);
        let rendered = n.render();
        assert!(rendered.contains("Net serving"));
        assert!(rendered.contains("yes"));
    }

    #[test]
    fn ablation_compares_landmark_strategies() {
        let a = ablation(&tiny_config());
        assert_eq!(a.rows.len(), 2);
        for row in &a.rows {
            assert!(row.degree_coverage >= 0.0 && row.degree_coverage <= 1.0);
            assert!(row.random_coverage >= 0.0 && row.random_coverage <= 1.0);
            assert!(row.labelling_seconds > 0.0);
        }
        assert!(a.render().contains("labelling(s)"));
    }
}
