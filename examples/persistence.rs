//! Build an index, persist it as a flat binary index file, reload it, and
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
    let restored = serialize::load_from_file(&path)?; // materialises the owned index
    assert_eq!(index.query(17, 1234)?, restored.query(17, 1234)?); // bit-identical

    // Zero-copy inspection without materialising the index:
    let view = serialize::load_view_from_file(&path, MapMode::Read)?;
    assert_eq!(view.num_landmarks(), 20);

    // Zero-materialisation serving straight from the mapped file: a cold
    // process maps the immutable index and answers immediately.
    let qbs = Qbs::open(&path, MapMode::Mmap)?;
    assert_eq!(qbs.backend().name(), "view");
    assert_eq!(qbs.query(17, 1234)?, index.query(17, 1234)?);

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
        "persisted {} bytes, reloaded bit-identically ({} vertices, {} landmarks, \
         served via the {} backend)",
        std::fs::metadata(&path)?.len(),
        view.num_vertices(),
        view.num_landmarks(),
        qbs.backend().name(),
    );
    Ok(())
}
