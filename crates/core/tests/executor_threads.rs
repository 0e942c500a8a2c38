//! The session executor's thread lifecycle, read from the process thread
//! count (Linux only). One test in its own binary, so no other test's
//! threads come and go while it counts.

use qbs_core::{Qbs, QbsConfig, QbsIndex, QueryRequest};

/// The `Threads:` count of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[cfg(target_os = "linux")]
#[test]
fn sessions_spawn_workers_only_when_frames_need_them_and_join_them_on_drop() {
    let index = QbsIndex::build(
        qbs_graph::fixtures::figure4_graph(),
        QbsConfig::with_landmark_count(3),
    );
    let frame = |len: usize| -> Vec<QueryRequest> {
        (0..len as u32)
            .map(|i| QueryRequest::path_graph(i % 15, (i * 7 + 3) % 15))
            .collect()
    };
    let before = process_threads();

    // One thread: every frame size runs on the caller, nothing is spawned.
    let single = Qbs::from_index(index.clone())
        .with_threads(1)
        .expect("threads");
    for len in [0, 1, 2, 3, 16, 64, 225] {
        single.submit(&frame(len));
        assert_eq!(process_threads(), before, "{len}-request frame on 1 thread");
    }

    // Two threads: a one-claim frame stays on the caller, a larger one
    // starts the worker, and dropping the session joins it.
    let double = Qbs::from_index(index).with_threads(2).expect("threads");
    double.submit(&frame(1));
    assert_eq!(
        process_threads(),
        before,
        "a one-claim frame spawns nothing"
    );
    double.submit(&frame(64));
    assert_eq!(process_threads(), before + 1, "threads − 1 workers");
    double.submit(&frame(64));
    assert_eq!(process_threads(), before + 1, "the worker is reused");
    drop(double);
    assert_eq!(process_threads(), before, "drop joins the worker");
}
