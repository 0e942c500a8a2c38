//! # qbs-baselines
//!
//! Baseline algorithms for the shortest-path-graph problem, implemented
//! exactly as described (or referenced) in the paper so the experiment
//! harness can compare Query-by-Sketch against them:
//!
//! * [`bfs_spg`] — the ground truth: two full BFSs per query ("a
//!   straightforward solution ... performing a breadth-first search", §1).
//!   Every other algorithm in the workspace is differential-tested against
//!   it.
//! * [`ppl`] — **Pruned Path Labelling** (PPL, §3.2): PLL-style pruned BFSs
//!   that retain labels on distance ties so the labelling is a 2-hop *path*
//!   cover, answered by the recursive common-landmark decomposition.
//! * [`parent_ppl`] — **ParentPPL** (§3.2): PPL plus per-label parent sets,
//!   trading memory for faster path reconstruction.
//!
//! The search-based baseline **Bi-BFS** of §6.1 (a bidirectional BFS, then
//! a reverse reconstruction of all shortest paths) is not a separate kernel:
//! it is `qbs_core::QbsIndex` built with no landmarks, where d⊤ = ∞, G⁻ = G
//! and the guided search is exactly that bidirectional BFS.
//!
//! All query answers are returned as [`qbs_graph::PathGraph`] values so they
//! can be compared structurally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs_spg;
pub mod parent_ppl;
pub mod ppl;

pub use bfs_spg::GroundTruth;
pub use parent_ppl::ParentPpl;
pub use ppl::Ppl;

/// A per-query failure of the checked [`SpgEngine`] batch API: the
/// requested endpoint does not exist in the engine's graph.
///
/// Mirrors the per-request error semantics of `qbs_core`'s typed request
/// pipeline (`QueryOutcome::Error`): one bad pair in a batch yields one
/// `Err` slot, never a panic or an aborted batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpgQueryError {
    /// The offending vertex.
    pub vertex: qbs_graph::VertexId,
    /// Number of vertices of the engine's graph.
    pub num_vertices: usize,
}

impl std::fmt::Display for SpgQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vertex {} out of range for graph with {} vertices",
            self.vertex, self.num_vertices
        )
    }
}

impl std::error::Error for SpgQueryError {}

/// A shortest-path-graph query engine: anything that can answer
/// `SPG(u, v)` queries over a fixed graph.
///
/// Implemented by every baseline and by `qbs_core::QbsIndex`, so the
/// experiment harness and the differential tests can treat all methods
/// uniformly.
pub trait SpgEngine {
    /// Answers the query `SPG(source, target)`.
    ///
    /// May panic on out-of-range endpoints, exactly like slice indexing;
    /// serving callers should prefer [`SpgEngine::try_query`] /
    /// [`SpgEngine::try_query_batch`].
    fn query(
        &self,
        source: qbs_graph::VertexId,
        target: qbs_graph::VertexId,
    ) -> qbs_graph::PathGraph;

    /// Number of vertices of the engine's graph — the valid endpoint range
    /// of [`SpgEngine::try_query`].
    fn num_vertices(&self) -> usize;

    /// Answers `SPG(source, target)` with endpoint validation: an
    /// out-of-range endpoint is an `Err`, never a panic.
    fn try_query(
        &self,
        source: qbs_graph::VertexId,
        target: qbs_graph::VertexId,
    ) -> Result<qbs_graph::PathGraph, SpgQueryError> {
        let n = self.num_vertices();
        for v in [source, target] {
            if v as usize >= n {
                return Err(SpgQueryError {
                    vertex: v,
                    num_vertices: n,
                });
            }
        }
        Ok(self.query(source, target))
    }

    /// Answers a batch of queries, in input order.
    ///
    /// The default implementation loops over [`SpgEngine::query`]; engines
    /// with reusable workspaces (the ground-truth oracle, QbS via one
    /// long-lived `QueryWorkspace`) override it to amortise their
    /// per-query scratch state — the batch API the experiment harness and
    /// the CLI drive.
    fn query_batch(
        &self,
        pairs: &[(qbs_graph::VertexId, qbs_graph::VertexId)],
    ) -> Vec<qbs_graph::PathGraph> {
        pairs.iter().map(|&(u, v)| self.query(u, v)).collect()
    }

    /// Answers a batch with **per-request** results: an out-of-range pair
    /// yields an `Err` slot and every other pair is answered normally —
    /// the partial-failure semantics of `qbs_core::Qbs::submit`,
    /// available uniformly across baselines for the differential harness.
    fn try_query_batch(
        &self,
        pairs: &[(qbs_graph::VertexId, qbs_graph::VertexId)],
    ) -> Vec<Result<qbs_graph::PathGraph, SpgQueryError>> {
        pairs.iter().map(|&(u, v)| self.try_query(u, v)).collect()
    }

    /// A short human-readable name for reports ("QbS", "PPL", "Bi-BFS", …).
    fn name(&self) -> &'static str;

    /// Bytes of precomputed index state (0 for search-only methods);
    /// reported in Table 3.
    fn index_size_bytes(&self) -> usize {
        0
    }
}
