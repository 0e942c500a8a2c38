//! Pair-coverage analysis (Figure 8).
//!
//! For a workload of query pairs, the paper classifies each pair by how its
//! shortest paths relate to the landmarks:
//!
//! * **Case (i)** — *all* shortest paths between the pair pass through at
//!   least one landmark (`d_{G⁻}(u, v) > d_G(u, v)`);
//! * **Case (ii)** — *some but not all* shortest paths pass through a
//!   landmark (`d_{G⁻} = d_G` and the sketch bound `d⊤` is also tight);
//! * **uncovered** — no shortest path passes any landmark (`d⊤ > d_G`).
//!
//! The sum of the two covered ratios is the *pair coverage ratio*, which
//! §6.3 uses to explain when sketching can guide queries effectively.

use qbs_graph::VertexId;

use crate::{QbsIndex, QueryRequest, QueryWorkspace};

/// Classification of one query pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairCoverage {
    /// All shortest paths pass through at least one landmark (case i).
    AllThroughLandmarks,
    /// Some but not all shortest paths pass through a landmark (case ii).
    SomeThroughLandmarks,
    /// No shortest path passes any landmark.
    NoneThroughLandmarks,
    /// The endpoints are disconnected (or identical); excluded from ratios.
    NotApplicable,
}

/// Aggregated coverage counts over a workload — one bar of Figure 8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// Pairs where all shortest paths pass a landmark.
    pub all_through: usize,
    /// Pairs where some but not all shortest paths pass a landmark.
    pub some_through: usize,
    /// Pairs where no shortest path passes a landmark.
    pub none_through: usize,
    /// Disconnected or trivial pairs.
    pub not_applicable: usize,
}

qbs_graph::impl_to_json!(CoverageReport: all_through, some_through, none_through, not_applicable);

impl CoverageReport {
    /// Total number of classified pairs.
    pub fn total(&self) -> usize {
        self.all_through + self.some_through + self.none_through + self.not_applicable
    }

    /// Fraction of applicable pairs in case (i) (the light bars of Figure 8).
    pub fn all_through_ratio(&self) -> f64 {
        self.ratio(self.all_through)
    }

    /// Fraction of applicable pairs in case (ii) (the grey bars of Figure 8).
    pub fn some_through_ratio(&self) -> f64 {
        self.ratio(self.some_through)
    }

    /// The pair coverage ratio: case (i) plus case (ii).
    pub fn pair_coverage_ratio(&self) -> f64 {
        self.all_through_ratio() + self.some_through_ratio()
    }

    fn ratio(&self, count: usize) -> f64 {
        let applicable = self.all_through + self.some_through + self.none_through;
        if applicable == 0 {
            0.0
        } else {
            count as f64 / applicable as f64
        }
    }
}

/// Classifies a single pair using one guided search on the buffers of `ws`.
pub fn classify_pair(
    index: &QbsIndex,
    ws: &mut QueryWorkspace,
    u: VertexId,
    v: VertexId,
) -> PairCoverage {
    if u == v {
        return PairCoverage::NotApplicable;
    }
    let outcome = index.execute_with(ws, &QueryRequest::path_graph(u, v).with_stats(), None);
    let Some(answer) = outcome.answer() else {
        return PairCoverage::NotApplicable;
    };
    if !answer.path_graph.is_reachable() {
        return PairCoverage::NotApplicable;
    }
    let stats = answer.stats;
    if stats.sparsified_distance > stats.distance {
        // The sparsified graph cannot realise the distance: every shortest
        // path needs a landmark.
        PairCoverage::AllThroughLandmarks
    } else if stats.upper_bound == stats.distance {
        PairCoverage::SomeThroughLandmarks
    } else {
        PairCoverage::NoneThroughLandmarks
    }
}

/// Classifies a whole workload.
pub fn classify_workload(index: &QbsIndex, pairs: &[(VertexId, VertexId)]) -> CoverageReport {
    let mut report = CoverageReport::default();
    let mut ws = QueryWorkspace::new();
    for &(u, v) in pairs {
        match classify_pair(index, &mut ws, u, v) {
            PairCoverage::AllThroughLandmarks => report.all_through += 1,
            PairCoverage::SomeThroughLandmarks => report.some_through += 1,
            PairCoverage::NoneThroughLandmarks => report.none_through += 1,
            PairCoverage::NotApplicable => report.not_applicable += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QbsConfig;
    use qbs_graph::fixtures::figure4_graph;

    fn figure4_index() -> QbsIndex {
        QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
    }

    #[test]
    fn classifies_the_three_cases_on_figure4() {
        let index = figure4_index();
        let ws = &mut QueryWorkspace::new();
        // (4, 12): only path is 4-3-12 through landmark 3 → case (i).
        assert_eq!(
            classify_pair(&index, ws, 4, 12),
            PairCoverage::AllThroughLandmarks
        );
        // (6, 11): some shortest paths use landmarks, one avoids them → (ii).
        assert_eq!(
            classify_pair(&index, ws, 6, 11),
            PairCoverage::SomeThroughLandmarks
        );
        // (7, 9): the unique shortest path 7-8-9 avoids all landmarks.
        assert_eq!(
            classify_pair(&index, ws, 7, 9),
            PairCoverage::NoneThroughLandmarks
        );
        // Trivial and disconnected pairs are excluded.
        assert_eq!(classify_pair(&index, ws, 5, 5), PairCoverage::NotApplicable);
        assert_eq!(classify_pair(&index, ws, 0, 5), PairCoverage::NotApplicable);
    }

    #[test]
    fn workload_report_aggregates_and_normalises() {
        let index = figure4_index();
        let pairs = [(4u32, 12u32), (6, 11), (7, 9), (5, 5), (0, 5)];
        let report = classify_workload(&index, &pairs);
        assert_eq!(report.all_through, 1);
        assert_eq!(report.some_through, 1);
        assert_eq!(report.none_through, 1);
        assert_eq!(report.not_applicable, 2);
        assert_eq!(report.total(), 5);
        assert!((report.all_through_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!((report.pair_coverage_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn more_landmarks_never_reduce_coverage_on_figure4() {
        // Figure 8's monotone trend, checked exhaustively on the example.
        let g = figure4_graph();
        let pairs: Vec<(u32, u32)> = (1..15u32)
            .flat_map(|u| (1..15u32).map(move |v| (u, v)))
            .filter(|(u, v)| u != v)
            .collect();
        let small = QbsIndex::build(g.clone(), QbsConfig::with_explicit_landmarks(vec![1, 2]));
        let large = QbsIndex::build(g, QbsConfig::with_explicit_landmarks(vec![1, 2, 3, 9]));
        let r_small = classify_workload(&small, &pairs);
        let r_large = classify_workload(&large, &pairs);
        assert!(r_large.pair_coverage_ratio() >= r_small.pair_coverage_ratio());
    }

    #[test]
    fn empty_workload_has_zero_ratios() {
        let report = CoverageReport::default();
        assert_eq!(report.total(), 0);
        assert_eq!(report.pair_coverage_ratio(), 0.0);
    }
}
