//! Build an index, persist it as a flat binary index file, reopen it, and
//! prove the answers are bit-identical — the README's persistence snippet
//! as a runnable example.
//!
//! ```text
//! cargo run --release --example persistence
//! ```

use qbs::core::serialize;
use qbs::prelude::*;

fn main() -> Result<(), qbs::core::QbsError> {
    let graph = qbs::gen::barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 2_000,
        edges_per_vertex: 3,
        seed: 42,
    });
    let index = QbsIndex::build(graph, QbsConfig::with_landmark_count(20));

    let path = std::env::temp_dir().join("g.qbs");
    serialize::save_to_file(&index, &path)?;
    // The file is the index's own bytes; reading it back serves the same
    // layout from a heap copy.
    let restored = serialize::open_from_file(&path, MapMode::Read)?;
    assert_eq!(restored.bytes(), index.bytes());
    assert_eq!(index.query(17, 1234)?, restored.query(17, 1234)?); // bit-identical

    // Inspection of the sections without serving anything:
    let view = serialize::load_view_from_file(&path, MapMode::Read)?;
    assert_eq!(view.num_landmarks(), 20);

    // Serving straight from the mapped file: a cold process maps the
    // immutable index and answers immediately.
    let qbs = Qbs::open(&path, MapMode::Mmap)?;
    let outcome = qbs.execute(&QueryRequest::path_graph(17, 1234));
    assert_eq!(outcome.path_graph(), Some(&index.query(17, 1234)?));

    // The typed request pipeline serves the same mapped bytes.
    let outcomes = qbs.submit(&[
        QueryRequest::distance(17, 1234),
        QueryRequest::sketch(17, 1234),
    ]);
    assert_eq!(
        outcomes[0].distance(),
        Some(index.distance(17, 1234)?),
        "distance mode over the mapped file"
    );
    assert!(outcomes[1].sketch().is_some());

    println!(
        "persisted {} bytes, reopened bit-identically ({} vertices, {} landmarks, \
         served from the mapped file)",
        std::fs::metadata(&path)?.len(),
        view.num_vertices(),
        view.num_landmarks(),
    );
    Ok(())
}
