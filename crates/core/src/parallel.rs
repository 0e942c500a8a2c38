//! Parallel labelling construction (§5.3).
//!
//! Lemma 5.2 shows the labelling scheme is *deterministic* with respect to
//! the landmark set: unlike PLL-style indexes, no landmark ordering is
//! involved, so the per-landmark BFSs of Algorithm 2 are independent and can
//! run on separate threads. This module runs them on scoped threads that
//! claim landmarks from a shared atomic cursor, and assembles the columns
//! in input order; the result is bit-identical to
//! [`crate::labelling::build_sequential`] (which the property tests
//! assert), only faster — the paper reports 6–12× speed-ups with 12
//! threads (Table 2, QbS-P vs QbS).

use std::sync::atomic::{AtomicUsize, Ordering};

use qbs_graph::{Graph, VertexId};

use crate::labelling::{assemble, landmark_bfs, landmark_column_map, LabellingScheme};

/// Builds the labelling scheme with one thread per available core.
pub fn build_parallel(graph: &Graph, landmarks: &[VertexId]) -> LabellingScheme {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    build_on(graph, landmarks, threads).expect("spawn a labelling thread")
}

/// Builds the labelling scheme on `threads` threads, used by the Table 2
/// construction-time experiment to control parallelism explicitly (the
/// paper uses up to 12 threads). Zero or one thread builds sequentially.
///
/// A thread that cannot be spawned surfaces as [`crate::QbsError::Io`]
/// instead of a panic, so callers (CLI builds, the experiment harness)
/// can report it like any other build problem.
pub fn build_with_threads(
    graph: &Graph,
    landmarks: &[VertexId],
    threads: usize,
) -> crate::Result<LabellingScheme> {
    Ok(build_on(graph, landmarks, threads)?)
}

/// The per-landmark BFSs on up to `threads` scoped threads, each claiming
/// the next unbuilt landmark while the calling thread waits.
fn build_on(
    graph: &Graph,
    landmarks: &[VertexId],
    threads: usize,
) -> std::io::Result<LabellingScheme> {
    let workers = threads.min(landmarks.len());
    if workers <= 1 {
        return Ok(crate::labelling::build_sequential(graph, landmarks));
    }
    let landmark_column = landmark_column_map(graph, landmarks);
    let cursor = AtomicUsize::new(0);
    let claim_loop = || {
        let mut built = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= landmarks.len() {
                return built;
            }
            built.push((i, landmark_bfs(graph, landmarks, &landmark_column, i)));
        }
    };
    let mut built: Vec<_> = std::thread::scope(|scope| {
        let spawned = (0..workers)
            .map(|_| std::thread::Builder::new().spawn_scoped(scope, claim_loop))
            .collect::<std::io::Result<Vec<_>>>()?;
        let joined = spawned.into_iter().flat_map(|handle| {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        Ok::<_, std::io::Error>(joined.collect())
    })?;
    built.sort_unstable_by_key(|&(i, _)| i);
    let columns = built.into_iter().map(|(_, column)| column).collect();
    Ok(assemble(graph, landmarks, columns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labelling::build_sequential;
    use qbs_graph::fixtures::{figure4_graph, figure4_landmarks};

    #[test]
    fn parallel_equals_sequential_on_figure4() {
        let g = figure4_graph();
        let landmarks = figure4_landmarks();
        assert_eq!(
            build_parallel(&g, &landmarks),
            build_sequential(&g, &landmarks)
        );
    }

    #[test]
    fn parallel_is_independent_of_landmark_order() {
        // Lemma 5.2: the scheme depends only on the landmark *set*; only the
        // column order changes when the set is permuted.
        let g = figure4_graph();
        let a = build_parallel(&g, &[1, 2, 3]);
        let b = build_parallel(&g, &[3, 1, 2]);
        assert_eq!(a.labelling.total_entries(), b.labelling.total_entries());
        assert_eq!(a.meta_edges.len(), b.meta_edges.len());
        // Same per-vertex entry contents after mapping columns to vertices.
        for v in g.vertices() {
            let mut ea: Vec<(u32, u32)> = a
                .labelling
                .entries(v)
                .map(|(i, d)| (a.landmarks[i], d))
                .collect();
            let mut eb: Vec<(u32, u32)> = b
                .labelling
                .entries(v)
                .map(|(i, d)| (b.landmarks[i], d))
                .collect();
            ea.sort_unstable();
            eb.sort_unstable();
            assert_eq!(ea, eb, "labels of vertex {v}");
        }
    }

    #[test]
    fn explicit_thread_counts_give_identical_schemes() {
        let g = figure4_graph();
        let landmarks = figure4_landmarks();
        let seq = build_with_threads(&g, &landmarks, 1).expect("sequential fallback");
        let par = build_with_threads(&g, &landmarks, 4).expect("dedicated pool");
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_landmark_set_produces_empty_scheme() {
        let g = figure4_graph();
        let scheme = build_parallel(&g, &[]);
        assert_eq!(scheme.labelling.total_entries(), 0);
        assert!(scheme.meta_edges.is_empty());
    }
}
