//! Experiment configuration and measurement primitives.

use std::time::{Duration, Instant};

use qbs_baselines::ppl::BuildLimits;
use qbs_baselines::SpgEngine;
use qbs_gen::catalog::{Catalog, DatasetId, DatasetSpec, Scale};
use qbs_gen::QueryWorkload;
use qbs_graph::{Graph, VertexId};

/// Per-method resource budgets, emulating the 24-hour / memory limits of the
/// paper's Table 2 at laptop scale. Methods that exceed them are reported as
/// DNF (did not finish) or OOE (out of memory) exactly like the paper.
#[derive(Clone, Copy, Debug)]
pub struct MethodLimits {
    /// Wall-clock budget for labelling-based baselines (PPL, ParentPPL).
    pub baseline_time_budget: Duration,
    /// Label-entry budget for labelling-based baselines.
    pub baseline_entry_budget: usize,
}

impl Default for MethodLimits {
    fn default() -> Self {
        MethodLimits {
            baseline_time_budget: Duration::from_secs(60),
            baseline_entry_budget: 50_000_000,
        }
    }
}

impl MethodLimits {
    /// Converts into the baseline crates' build limits.
    pub fn to_build_limits(self) -> BuildLimits {
        BuildLimits {
            max_duration: self.baseline_time_budget,
            max_label_entries: self.baseline_entry_budget,
        }
    }
}

/// Configuration shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Dataset scale (vertex counts of the synthetic stand-ins).
    pub scale: Scale,
    /// Number of landmarks `|R|` (the paper's default is 20).
    pub landmark_count: usize,
    /// Number of query pairs per dataset (the paper samples 10 000).
    pub query_count: usize,
    /// Workload / generator seed.
    pub seed: u64,
    /// Per-method resource budgets.
    pub limits: MethodLimits,
    /// Datasets to include (defaults to all 12 of Table 1).
    pub datasets: Vec<DatasetId>,
    /// Landmark counts swept by Figures 8–11.
    pub landmark_sweep: Vec<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::Small,
            landmark_count: 20,
            query_count: 1_000,
            seed: 2021,
            limits: MethodLimits::default(),
            datasets: DatasetId::ALL.to_vec(),
            landmark_sweep: vec![20, 40, 60, 80, 100],
        }
    }
}

impl ExperimentConfig {
    /// A configuration small enough for CI / unit tests: tiny graphs, four
    /// representative datasets, few queries.
    pub fn smoke() -> Self {
        ExperimentConfig {
            scale: Scale::Tiny,
            query_count: 100,
            datasets: vec![
                DatasetId::Douban,
                DatasetId::Dblp,
                DatasetId::LiveJournal,
                DatasetId::Friendster,
            ],
            landmark_sweep: vec![5, 10, 20],
            limits: MethodLimits {
                baseline_time_budget: Duration::from_secs(10),
                baseline_entry_budget: 5_000_000,
            },
            ..Default::default()
        }
    }

    /// The dataset specs selected by this configuration, in Table 1 order.
    pub fn specs(&self) -> Vec<DatasetSpec> {
        let catalog = Catalog::paper_table1();
        self.datasets
            .iter()
            .filter_map(|id| catalog.get(*id).copied())
            .collect()
    }

    /// Generates one dataset stand-in at the configured scale.
    pub fn graph_for(&self, spec: &DatasetSpec) -> Graph {
        spec.generate(self.scale)
    }

    /// Samples the query workload for one graph (connected pairs, like the
    /// paper's sampling on connected datasets).
    pub fn workload_for(&self, graph: &Graph) -> QueryWorkload {
        QueryWorkload::sample_connected(graph, self.query_count, self.seed)
    }
}

/// Aggregated timing of a batch of queries.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryTiming {
    /// Number of queries executed.
    pub queries: usize,
    /// Total wall-clock time.
    pub total: Duration,
    /// Average time per query in milliseconds (the unit of Table 2).
    pub avg_ms: f64,
    /// Maximum single-query time in milliseconds.
    pub max_ms: f64,
    /// Total number of answer edges produced (sanity signal that the methods
    /// did comparable work).
    pub answer_edges: usize,
}

/// Times a workload through the engine's batch API ([`SpgEngine::query_batch`]).
///
/// This is what Table 2's query columns and the CLI drive: engines with
/// reusable workspaces (QbS, Bi-BFS, the oracle) amortise their scratch
/// state across the whole batch — the serving regime the paper's
/// microsecond query times assume. `max_ms` is reported as the batch's
/// average because individual query times are not observable through the
/// batch boundary.
pub fn time_query_batch<E: SpgEngine + ?Sized>(
    engine: &E,
    pairs: &[(VertexId, VertexId)],
) -> QueryTiming {
    let start = Instant::now();
    let answers = engine.query_batch(pairs);
    let total = start.elapsed();
    let answer_edges = answers.iter().map(|spg| spg.num_edges()).sum();
    let avg_ms = if pairs.is_empty() {
        0.0
    } else {
        total.as_secs_f64() * 1e3 / pairs.len() as f64
    };
    QueryTiming {
        queries: pairs.len(),
        total,
        avg_ms,
        max_ms: avg_ms,
        answer_edges,
    }
}

/// Times a batch of queries on any engine, one query at a time (per-query
/// latency distribution; see [`time_query_batch`] for the amortised path).
pub fn time_queries<E: SpgEngine + ?Sized>(
    engine: &E,
    pairs: &[(VertexId, VertexId)],
) -> QueryTiming {
    let mut total = Duration::ZERO;
    let mut max = Duration::ZERO;
    let mut answer_edges = 0usize;
    for &(u, v) in pairs {
        let start = Instant::now();
        let answer = engine.query(u, v);
        let elapsed = start.elapsed();
        total += elapsed;
        if elapsed > max {
            max = elapsed;
        }
        answer_edges += answer.num_edges();
    }
    QueryTiming {
        queries: pairs.len(),
        total,
        avg_ms: if pairs.is_empty() {
            0.0
        } else {
            total.as_secs_f64() * 1e3 / pairs.len() as f64
        },
        max_ms: max.as_secs_f64() * 1e3,
        answer_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_baselines::GroundTruth;
    use qbs_graph::fixtures::figure4_graph;

    #[test]
    fn default_config_matches_paper_defaults() {
        let c = ExperimentConfig::default();
        assert_eq!(c.landmark_count, 20);
        assert_eq!(c.datasets.len(), 12);
        assert_eq!(c.landmark_sweep, vec![20, 40, 60, 80, 100]);
        assert_eq!(c.specs().len(), 12);
    }

    #[test]
    fn smoke_config_is_small() {
        let c = ExperimentConfig::smoke();
        assert_eq!(c.datasets.len(), 4);
        assert_eq!(c.specs().len(), 4);
        let g = c.graph_for(&c.specs()[0]);
        assert!(g.num_vertices() < 3_000);
        let w = c.workload_for(&g);
        assert_eq!(w.len(), 100);
    }

    #[test]
    fn time_queries_reports_averages() {
        let g = figure4_graph();
        let engine = GroundTruth::new(g);
        let pairs = [(6u32, 11u32), (4, 12), (7, 9)];
        let t = time_queries(&engine, &pairs);
        assert_eq!(t.queries, 3);
        assert!(t.avg_ms >= 0.0);
        assert!(t.answer_edges >= 13 + 2 + 2);
        assert!(t.max_ms * 3.0 >= t.avg_ms);
        assert_eq!(time_queries(&engine, &[]).queries, 0);
    }

    #[test]
    fn batch_timing_reports_comparable_work() {
        let g = figure4_graph();
        let engine = GroundTruth::new(g);
        let pairs = [(6u32, 11u32), (4, 12), (7, 9)];
        let per_query = time_queries(&engine, &pairs);
        let batched = time_query_batch(&engine, &pairs);
        assert_eq!(batched.queries, 3);
        assert_eq!(batched.answer_edges, per_query.answer_edges);
        assert!(batched.avg_ms >= 0.0);
        assert_eq!(time_query_batch(&engine, &[]).queries, 0);
    }

    #[test]
    fn limits_convert_to_build_limits() {
        let l = MethodLimits::default().to_build_limits();
        assert_eq!(l.max_duration, Duration::from_secs(60));
        assert_eq!(l.max_label_entries, 50_000_000);
    }
}
