//! Uniform engine wrappers.
//!
//! The baselines already implement [`SpgEngine`]; this module adapts
//! [`QbsIndex`] to the same trait and provides [`AnyEngine`], an enum the
//! experiment runner uses to hold a heterogeneous set of methods. Bi-BFS is
//! a [`QbsEngine`] with no landmarks.

use std::time::{Duration, Instant};

use qbs_baselines::ppl::{BuildAborted, BuildLimits};
use qbs_baselines::{GroundTruth, ParentPpl, Ppl, SpgEngine};
use qbs_core::{QbsConfig, QbsIndex, QueryOutcome, QueryRequest, QueryWorkspace};
use qbs_graph::{Graph, PathGraph, VertexId};

/// [`QbsIndex`] adapted to the [`SpgEngine`] trait.
pub struct QbsEngine {
    index: QbsIndex,
    /// Reused by every query, so a timed query pays no `O(|V|)` setup,
    /// matching the other engines' workspace reuse.
    workspace: std::sync::Mutex<QueryWorkspace>,
}

impl QbsEngine {
    /// Builds a QbS engine with the given landmark count; with none it is
    /// the Bi-BFS baseline.
    pub fn build(graph: Graph, landmarks: usize) -> Self {
        let index = QbsIndex::build(graph, QbsConfig::with_landmark_count(landmarks));
        let workspace = QueryWorkspace::for_vertices(index.num_vertices());
        QbsEngine {
            index,
            workspace: std::sync::Mutex::new(workspace),
        }
    }

    /// The wrapped index.
    pub fn index(&self) -> &QbsIndex {
        &self.index
    }

    /// Answers `SPG(source, target)` through the query door on `ws`.
    fn answer(&self, ws: &mut QueryWorkspace, source: VertexId, target: VertexId) -> PathGraph {
        let request = QueryRequest::path_graph(source, target);
        match self.index.execute_with(ws, &request, None) {
            QueryOutcome::PathGraph(pg) => *pg,
            outcome => panic!("engine callers validate vertices: {outcome:?}"),
        }
    }
}

impl SpgEngine for QbsEngine {
    fn query(&self, source: VertexId, target: VertexId) -> PathGraph {
        let mut ws = self.workspace.lock().expect("workspace poisoned");
        self.answer(&mut ws, source, target)
    }

    fn num_vertices(&self) -> usize {
        self.index.num_vertices()
    }

    fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<PathGraph> {
        // Sequential loop over one long-lived workspace: Table 2 compares
        // *single-threaded* per-query latency across methods, so QbS must
        // amortise scratch state the same way the oracle does —
        // not fan out over cores (that is the `qbs_core::Qbs` session's
        // job, exercised by the CLI and the benchmark's `engine.*` probes).
        let mut ws = self.workspace.lock().expect("workspace poisoned");
        pairs
            .iter()
            .map(|&(u, v)| self.answer(&mut ws, u, v))
            .collect()
    }

    fn name(&self) -> &'static str {
        if self.index.num_landmarks() == 0 {
            MethodId::BiBfs.name()
        } else {
            MethodId::Qbs.name()
        }
    }

    fn index_size_bytes(&self) -> usize {
        self.index.stats().total_index_bytes()
    }
}

/// Identifier of a method compared in the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodId {
    /// Query-by-Sketch.
    Qbs,
    /// Pruned Path Labelling.
    Ppl,
    /// PPL with parent sets.
    ParentPpl,
    /// Online bidirectional BFS: QbS with no landmarks.
    BiBfs,
    /// Ground-truth double BFS.
    GroundTruth,
}

impl MethodId {
    /// The display name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            MethodId::Qbs => "QbS",
            MethodId::Ppl => "PPL",
            MethodId::ParentPpl => "ParentPPL",
            MethodId::BiBfs => "Bi-BFS",
            MethodId::GroundTruth => "BFS",
        }
    }

    /// The methods of Table 2, in column order. The paper's QbS-P column
    /// (parallel labelling) has no counterpart: the build runs every
    /// landmark's BFS at once as bit masks, on one thread.
    pub const TABLE2: [MethodId; 4] = [
        MethodId::Qbs,
        MethodId::Ppl,
        MethodId::ParentPpl,
        MethodId::BiBfs,
    ];
}

/// Outcome of building one method on one dataset.
pub enum BuildOutcome {
    /// The index was built within the budget.
    Built {
        /// The engine, ready to answer queries.
        engine: AnyEngine,
        /// Wall-clock construction time.
        construction: Duration,
    },
    /// The build exceeded its time budget (the paper's "DNF").
    DidNotFinish,
    /// The build exceeded its memory budget (the paper's "OOE").
    OutOfMemory,
}

/// A heterogeneous engine.
pub enum AnyEngine {
    /// Query-by-Sketch.
    Qbs(Box<QbsEngine>),
    /// Pruned Path Labelling.
    Ppl(Box<Ppl>),
    /// ParentPPL.
    ParentPpl(Box<ParentPpl>),
    /// Ground-truth BFS oracle.
    GroundTruth(Box<GroundTruth>),
}

impl SpgEngine for AnyEngine {
    fn query(&self, source: VertexId, target: VertexId) -> PathGraph {
        match self {
            AnyEngine::Qbs(e) => e.query(source, target),
            AnyEngine::Ppl(e) => e.query(source, target),
            AnyEngine::ParentPpl(e) => e.query(source, target),
            AnyEngine::GroundTruth(e) => e.query(source, target),
        }
    }

    fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<PathGraph> {
        match self {
            AnyEngine::Qbs(e) => e.query_batch(pairs),
            AnyEngine::Ppl(e) => e.query_batch(pairs),
            AnyEngine::ParentPpl(e) => e.query_batch(pairs),
            AnyEngine::GroundTruth(e) => e.query_batch(pairs),
        }
    }

    fn num_vertices(&self) -> usize {
        match self {
            AnyEngine::Qbs(e) => e.num_vertices(),
            AnyEngine::Ppl(e) => e.num_vertices(),
            AnyEngine::ParentPpl(e) => e.num_vertices(),
            AnyEngine::GroundTruth(e) => e.num_vertices(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyEngine::Qbs(e) => e.name(),
            AnyEngine::Ppl(e) => e.name(),
            AnyEngine::ParentPpl(e) => e.name(),
            AnyEngine::GroundTruth(e) => e.name(),
        }
    }

    fn index_size_bytes(&self) -> usize {
        match self {
            AnyEngine::Qbs(e) => e.index_size_bytes(),
            AnyEngine::Ppl(e) => e.index_size_bytes(),
            AnyEngine::ParentPpl(e) => e.index_size_bytes(),
            AnyEngine::GroundTruth(e) => e.index_size_bytes(),
        }
    }
}

/// Builds one method on a graph, honouring the given per-method resource
/// budget (so the laptop-scale runs can report DNF/OOE the way Table 2 does
/// for the labelling baselines on large graphs).
///
pub fn build_method(
    method: MethodId,
    graph: &Graph,
    landmarks: usize,
    limits: BuildLimits,
) -> BuildOutcome {
    let start = Instant::now();
    let engine = match method {
        MethodId::Qbs => AnyEngine::Qbs(Box::new(QbsEngine::build(graph.clone(), landmarks))),
        MethodId::Ppl => match Ppl::build_with_limits(graph.clone(), limits) {
            Ok(index) => AnyEngine::Ppl(Box::new(index)),
            Err(BuildAborted::TimedOut) => return BuildOutcome::DidNotFinish,
            Err(BuildAborted::TooManyLabels) => return BuildOutcome::OutOfMemory,
        },
        MethodId::ParentPpl => match ParentPpl::build_with_limits(graph.clone(), limits) {
            Ok(index) => AnyEngine::ParentPpl(Box::new(index)),
            Err(BuildAborted::TimedOut) => return BuildOutcome::DidNotFinish,
            Err(BuildAborted::TooManyLabels) => return BuildOutcome::OutOfMemory,
        },
        MethodId::BiBfs => AnyEngine::Qbs(Box::new(QbsEngine::build(graph.clone(), 0))),
        MethodId::GroundTruth => AnyEngine::GroundTruth(Box::new(GroundTruth::new(graph.clone()))),
    };
    BuildOutcome::Built {
        engine,
        construction: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_graph::fixtures::figure4_graph;

    #[test]
    fn every_method_builds_and_agrees_on_figure4() {
        let g = figure4_graph();
        let truth = GroundTruth::new(g.clone());
        for method in [
            MethodId::Qbs,
            MethodId::Ppl,
            MethodId::ParentPpl,
            MethodId::BiBfs,
        ] {
            let BuildOutcome::Built {
                engine,
                construction,
            } = build_method(method, &g, 3, BuildLimits::default())
            else {
                panic!("{:?} failed to build", method);
            };
            assert!(construction.as_nanos() > 0);
            assert_eq!(engine.name(), method.name());
            if method == MethodId::BiBfs {
                assert_eq!(engine.index_size_bytes(), 0, "Table 3 size column");
            }
            for (u, v) in [(6u32, 11u32), (4, 12), (7, 9)] {
                assert_eq!(
                    engine.query(u, v),
                    truth.query(u, v),
                    "{:?} ({u},{v})",
                    method
                );
            }
            // The batch path must agree with the per-query path.
            let pairs = [(6u32, 11u32), (4, 12), (7, 9)];
            let batch = engine.query_batch(&pairs);
            for (answer, &(u, v)) in batch.iter().zip(&pairs) {
                assert_eq!(answer, &truth.query(u, v), "{:?} batch ({u},{v})", method);
            }
        }
    }

    #[test]
    fn limits_translate_into_dnf_and_ooe() {
        let g = figure4_graph();
        let tight_time = BuildLimits {
            max_duration: Duration::ZERO,
            ..Default::default()
        };
        assert!(matches!(
            build_method(MethodId::Ppl, &g, 3, tight_time),
            BuildOutcome::DidNotFinish
        ));
        let tight_mem = BuildLimits {
            max_label_entries: 1,
            ..Default::default()
        };
        assert!(matches!(
            build_method(MethodId::ParentPpl, &g, 3, tight_mem),
            BuildOutcome::OutOfMemory
        ));
    }

    #[test]
    fn method_names_match_the_paper() {
        assert_eq!(MethodId::Qbs.name(), "QbS");
        assert_eq!(MethodId::BiBfs.name(), "Bi-BFS");
        assert_eq!(MethodId::TABLE2.len(), 4);
    }
}
