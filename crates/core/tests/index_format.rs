//! Integration tests of the index file format: the golden fixture, the
//! `dist_width` boundaries, header and geometry guards, the four-bit
//! padding nibble, the graph-row invariants, corruption sweeps, the retired-layout refusal through every
//! door, a generator-family identity property, rebuilding a file that a
//! live session maps, and the differential guarantee that queries answered
//! through a reopened file are bit-identical to the freshly built index and
//! to the BFS ground truth.

use proptest::prelude::*;

use qbs_baselines::{GroundTruth, SpgEngine};
use qbs_core::format::{checksum64, label_row_len, SectionKind, HEADER_LEN};
use qbs_core::serialize::{self, MapMode, EXCERPT_LEN};
use qbs_core::{
    IndexView, Qbs, QbsConfig, QbsError, QbsIndex, QueryRequest, QueryWorkspace, ViewBuf,
};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_gen::prelude::*;
use qbs_graph::fixtures::figure4_graph;
use qbs_graph::{Graph, GraphBuilder, VertexId};

/// Path of the checked-in golden fixture (relative to the crate root).
fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("figure4.qbs")
}

/// The index every golden-fixture test is pinned to: the paper's Figure 4
/// running example with the explicit landmark set {1, 2, 3}.
fn figure4_index() -> QbsIndex {
    QbsIndex::build(
        figure4_graph(),
        QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
    )
}

/// A path `0 — 1 — … — (vertices-1)`. With the single landmark pinned to
/// vertex 0 its largest label distance is exactly `vertices - 1`.
fn path_graph(vertices: usize) -> Graph {
    let mut builder = GraphBuilder::new();
    for v in 1..vertices as u32 {
        builder.add_edge(v - 1, v);
    }
    builder.build()
}

/// `v`'s row as an index file stores it: the non-landmark neighbours
/// ascending, then the landmark neighbours ascending.
fn landmark_last_row(graph: &Graph, landmarks: &[VertexId], v: VertexId) -> Vec<VertexId> {
    let (mut row, landmark_half): (Vec<VertexId>, Vec<VertexId>) = graph
        .neighbors(v)
        .iter()
        .partition(|w| !landmarks.contains(*w));
    row.extend(landmark_half);
    row
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qbs_index_format_{tag}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Regenerates the golden fixture. Run manually after an intentional format
/// change (and update `docs/index-format.md` accordingly):
///
/// ```text
/// cargo test -p qbs-core --test index_format -- --ignored regenerate_golden_fixture
/// ```
#[test]
#[ignore = "writes the golden fixture; run explicitly after a format change"]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all(fixture_path().parent().unwrap()).expect("mkdir");
    std::fs::write(fixture_path(), figure4_index().bytes()).expect("write fixture");
}

#[test]
fn golden_fixture_is_byte_exact() {
    let expected = std::fs::read(fixture_path())
        .expect("golden fixture missing; run the ignored regenerate_golden_fixture test");
    assert_eq!(
        figure4_index().bytes(),
        expected,
        "the writer no longer reproduces the checked-in fixture byte-for-byte; if the \
         format change is intentional, regenerate the fixture and update \
         docs/index-format.md"
    );
}

#[test]
fn golden_fixture_loads_and_answers_figure4_queries() {
    let restored = serialize::open_from_file(fixture_path(), MapMode::Read).expect("load fixture");
    let fresh = figure4_index();
    assert_eq!(restored.landmarks(), &[1, 2, 3]);
    assert_eq!(restored.bytes(), fresh.bytes());
    assert_eq!(restored.meta_graph(), fresh.meta_graph());
    // Figure 6(f): SPG(6, 11) has distance 5 and 13 edges.
    let answer = restored.query(6, 11).unwrap();
    assert_eq!(answer.distance(), 5);
    assert_eq!(answer.num_edges(), 13);

    // The tiny graph's distances fit the four-bit slot: 15 rows of two
    // bytes, three slots and a padding nibble each.
    let view = serialize::load_view_from_file(fixture_path(), MapMode::Read).expect("view");
    assert_eq!(view.dist_width(), 4);
    assert_eq!(view.section_bytes(SectionKind::Labels).len(), 30);
}

/// The writer picks the slot width from the measured maximum label
/// distance — 14 and 254 are the last values that leave 0xF and 0xFF free
/// for "no entry" — and every width answers bit-identically to the built
/// index through `MapMode::Read`, `MapMode::Mmap` and `Qbs::load`.
#[test]
fn dist_width_follows_the_largest_label_distance() {
    let dir = temp_dir("width");
    for (max_distance, expected_width) in
        [(14usize, 4usize), (15, 8), (254, 8), (255, 16), (300, 16)]
    {
        let n = max_distance + 1;
        let owned = QbsIndex::build(path_graph(n), QbsConfig::with_explicit_landmarks(vec![0]));
        assert_eq!(
            owned.label_distance(n as u32 - 1, 0),
            Some(max_distance as u32),
            "the far end of the path carries the largest label"
        );
        let view = owned.view();
        assert_eq!(view.dist_width(), expected_width, "max {max_distance}");
        assert_eq!(
            view.section_bytes(SectionKind::Labels).len(),
            n * label_row_len(1, expected_width),
            "one row of one slot per vertex, a whole byte"
        );
        assert_eq!(
            owned.label_distance(0, 0),
            None,
            "the landmark has no label"
        );
        for v in 1..n as u32 {
            assert_eq!(owned.label_distance(v, 0), Some(v), "label of {v}");
        }

        let path = dir.join(format!("path{max_distance}.qbs"));
        serialize::save_to_file(&owned, &path).expect("save");
        let read = Qbs::open(&path, MapMode::Read).expect("read");
        let mapped = Qbs::open(&path, MapMode::Mmap).expect("mmap");
        let loaded = Qbs::load(&path).expect("load");
        let last = n as u32 - 1;
        let requests: Vec<QueryRequest> = [(0, last), (1, last), (last, 0), (last / 2, last)]
            .into_iter()
            .flat_map(|(u, v)| {
                [
                    QueryRequest::path_graph(u, v).with_stats(),
                    QueryRequest::distance(u, v),
                    QueryRequest::sketch(u, v),
                ]
            })
            .collect();
        let reference = Qbs::from_index(owned).submit(&requests);
        assert_eq!(reference[1].distance(), Some(max_distance as u32));
        for (qbs, how) in [(&read, "read"), (&mapped, "mmap"), (&loaded, "load")] {
            assert_eq!(
                qbs.submit(&requests),
                reference,
                "max {max_distance} via {how}"
            );
        }
    }
}

/// Rewrites the trailing checksum so only header / geometry / structural
/// validation can object to a crafted buffer.
fn reseal(bytes: &mut [u8]) {
    let at = bytes.len() - 8;
    let fresh = checksum64(&bytes[..at]);
    bytes[at..].copy_from_slice(&fresh.to_le_bytes());
}

#[test]
fn header_rejects_bad_widths_reserved_bytes_and_label_lengths() {
    let valid = std::fs::read(fixture_path()).expect("fixture");
    let parse = |bytes: &[u8]| {
        let err = IndexView::parse(ViewBuf::Heap(bytes.to_vec())).unwrap_err();
        assert!(matches!(err, QbsError::Corrupt(_)), "{err:?}");
        err.to_string()
    };

    // dist_width lives in header byte 40; only 4, 8 and 16 (bits) exist.
    // 1 and 2 are v5's byte widths.
    for width in [0u8, 1, 2, 3, 5, 12, 32, 0xFF] {
        let mut crafted = valid.clone();
        crafted[40] = width;
        reseal(&mut crafted);
        assert!(parse(&crafted).contains("dist_width"), "width {width}");
    }
    // The seven bytes after it stay zero.
    for pos in 41..HEADER_LEN {
        let mut crafted = valid.clone();
        crafted[pos] = 0x80;
        reseal(&mut crafted);
        assert!(parse(&crafted).contains("reserved"), "byte {pos}");
    }
    // A labels section whose length is not n · ⌈|R| · dist_width / 8⌉:
    // declare another width, and (separately) shrink the section record
    // by one.
    for (width, len) in [(8u8, 45), (16, 90)] {
        let mut crafted = valid.clone();
        crafted[40] = width;
        reseal(&mut crafted);
        let expected = format!("section 'labels' must be {len} bytes");
        assert!(parse(&crafted).contains(&expected), "width {width}");
    }
    let labels_len_pos = HEADER_LEN + 24 + 16;
    let mut crafted = valid.clone();
    crafted[labels_len_pos..labels_len_pos + 8].copy_from_slice(&29u64.to_le_bytes());
    reseal(&mut crafted);
    assert!(parse(&crafted).contains("section 'labels' must be 30 bytes"));
}

/// At four bits and odd |R| the high nibble of each row's last byte is
/// padding: a file with any value but 0xF there is corrupt even when its
/// checksum is resealed, through the parse and `Qbs::open` alike. The
/// golden fixture has |R| = 3, so row `v` is bytes `2v` and `2v + 1` of
/// the label section and the padding is the high nibble of `2v + 1`.
#[test]
fn a_padding_nibble_other_than_0xf_is_corrupt() {
    let valid = std::fs::read(fixture_path()).expect("fixture");
    let view = IndexView::parse(ViewBuf::Heap(valid.clone())).expect("parse");
    assert_eq!((view.dist_width(), view.num_landmarks()), (4, 3));
    let labels_at = view.sections()[SectionKind::Labels as usize - 1].offset as usize;
    for v in 0..15 {
        assert_eq!(view.label_row(v)[1] >> 4, 0xF, "vertex {v} pads with 0xF");
    }
    let dir = temp_dir("padding");
    for (v, padding) in [(0usize, 0x0u8), (7, 0xE), (14, 0x1)] {
        let mut crafted = valid.clone();
        let at = labels_at + 2 * v + 1;
        crafted[at] = (crafted[at] & 0x0F) | (padding << 4);
        reseal(&mut crafted);
        let path = dir.join(format!("pad{v}_{}.qbs", std::process::id()));
        std::fs::write(&path, &crafted).expect("write");
        let rule = format!("label row of vertex {v} has padding nibble {padding:#x}");
        for (door, err) in [
            (
                "parse",
                IndexView::parse(ViewBuf::Heap(crafted)).unwrap_err(),
            ),
            ("Qbs::open", Qbs::open(&path, MapMode::Mmap).unwrap_err()),
        ] {
            assert!(matches!(err, QbsError::Corrupt(_)), "{door}: {err:?}");
            assert!(
                err.to_string().contains(&rule),
                "{door}: {err} lacks {rule:?}"
            );
        }
        std::fs::remove_file(&path).expect("remove");
    }
}

/// Crafted files that each break one graph-row rule, resealed so only the
/// structural scan can object: the parse and `Qbs::open(.., Read)` both
/// answer with a typed `Corrupt` naming that rule.
#[test]
fn crafted_graph_rows_are_corrupt() {
    let valid = std::fs::read(fixture_path()).expect("fixture");
    let view = IndexView::parse(ViewBuf::Heap(valid.clone())).expect("parse");
    let offset = |kind: SectionKind| view.sections()[kind as usize - 1].offset as usize;
    let (rows_at, ids_at) = (
        offset(SectionKind::GraphRows),
        offset(SectionKind::GraphNeighbors),
    );
    // With landmarks {1, 2, 3}, vertex 1's row [4, 5, 6 | 2] is arcs 0..4
    // and vertex 2's row [8, 9 | 1, 3] is arcs 4..8.
    assert_eq!(view.graph_neighbors(1).collect::<Vec<_>>(), [4, 5, 6, 2]);
    assert_eq!(view.graph_neighbors(2).collect::<Vec<_>>(), [8, 9, 1, 3]);
    let arcs = view.num_arcs() as u32;
    // Entry `v` of the rows section is `(start, landmark_start)`.
    let start = |v: usize| rows_at + 8 * v;
    let landmark_start = |v: usize| rows_at + 8 * v + 4;
    let arc = |k: usize| ids_at + 4 * k;
    let cases: [(Vec<(usize, u32)>, &str); 10] = [
        (vec![(start(0), 1)], "graph rows must start at 0"),
        (
            vec![(landmark_start(15), arcs - 1)],
            "graph rows must start at 0 and end at",
        ),
        (
            vec![(landmark_start(1), 5)],
            "graph row of vertex 1 has bounds start 0, landmark start 5, end 4: out of order",
        ),
        (
            vec![(landmark_start(2), 3)],
            "graph row of vertex 2 has bounds start 4, landmark start 3, end 8: out of order",
        ),
        (
            vec![(landmark_start(1), 4)],
            "the non-landmark half of vertex 1's graph row holds vertex 2",
        ),
        (
            vec![(landmark_start(1), 2)],
            "the landmark half of vertex 1's graph row holds vertex 6",
        ),
        (
            vec![(arc(0), 5), (arc(1), 4)],
            "the non-landmark half of vertex 1's graph row is not strictly sorted",
        ),
        (
            vec![(arc(6), 3), (arc(7), 1)],
            "the landmark half of vertex 2's graph row is not strictly sorted",
        ),
        (vec![(arc(0), 15)], "graph neighbour id 15 out of range"),
        (
            vec![(arc(7), u32::MAX)],
            "graph neighbour id 4294967295 out of range",
        ),
    ];
    let dir = temp_dir("crafted_rows");
    for (i, (writes, rule)) in cases.into_iter().enumerate() {
        let mut crafted = valid.clone();
        for (at, value) in writes {
            crafted[at..at + 4].copy_from_slice(&value.to_le_bytes());
        }
        reseal(&mut crafted);
        let path = dir.join(format!("case{i}_{}.qbs", std::process::id()));
        std::fs::write(&path, &crafted).expect("write");
        for (door, err) in [
            (
                "parse",
                IndexView::parse(ViewBuf::Heap(crafted)).unwrap_err(),
            ),
            ("Qbs::open", Qbs::open(&path, MapMode::Read).unwrap_err()),
        ] {
            assert!(matches!(err, QbsError::Corrupt(_)), "{door}: {err:?}");
            assert!(
                err.to_string().contains(rule),
                "{door}: {err} lacks {rule:?}"
            );
        }
    }
}

/// Sweeps the golden fixture and a figure-4 file with no landmarks, whose
/// landmark, label, meta-edge and meta-APSP sections are all empty at one
/// offset: a section boundary the golden fixture never has. Mapped opens
/// verify like heap ones, so a flip inside Δ's offsets is refused before
/// anything sizes an allocation from it.
#[test]
fn truncated_and_bit_flipped_fixtures_are_corrupt_never_panic() {
    let landmark_free = serialize::to_bytes(&QbsIndex::build(
        figure4_graph(),
        QbsConfig::with_explicit_landmarks(vec![]),
    ));
    let golden = std::fs::read(fixture_path()).expect("fixture");
    for (name, bytes) in [("golden", golden), ("no landmarks", landmark_free)] {
        sweep_truncations_and_bit_flips(name, &bytes);
    }
}

/// Writes every truncation of `bytes`, and every flip of a byte's lowest
/// or highest bit, to a file and opens it through every door: each open is
/// a typed `Corrupt` with a bounded message, never a panic (or an abort).
fn sweep_truncations_and_bit_flips(name: &str, bytes: &[u8]) {
    let path = temp_dir("sweep").join(format!(
        "{}_{}.qbs",
        name.replace(' ', "_"),
        std::process::id()
    ));
    let expect_corrupt = |data: &[u8], what: String| {
        std::fs::write(&path, data).expect("write");
        for (door, result) in every_door(data, &path, &what) {
            let err = result.expect_err(&format!("{what} via {door}"));
            assert!(
                matches!(err, QbsError::Corrupt(_)),
                "{what} via {door}: {err:?}"
            );
            assert!(
                err.to_string().len() < 200 + 4 * EXCERPT_LEN,
                "{what} via {door}: unbounded message {err}"
            );
        }
    };

    // Every length, which covers every section boundary.
    for len in 0..bytes.len() {
        expect_corrupt(&bytes[..len], format!("{name}: truncation to {len} bytes"));
    }

    for pos in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= bit;
            expect_corrupt(
                &corrupt,
                format!("{name}: bit flip at byte {pos} (mask {bit:#x})"),
            );
        }
    }
    std::fs::remove_file(&path).expect("remove");
}

/// Opens `bytes` — and `path`, a file holding them — through every public
/// door: both buffer acquisitions, views and sessions. A door that panics
/// fails the test with `what` and the door's name.
fn every_door(
    bytes: &[u8],
    path: &std::path::Path,
    what: &str,
) -> [(&'static str, Result<(), QbsError>); 7] {
    let door = |name: &'static str, open: &dyn Fn() -> Result<(), QbsError>| {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(open))
            .unwrap_or_else(|_| panic!("{what} via {name} panicked"));
        (name, result)
    };
    [
        door("from_bytes", &|| serialize::from_bytes(bytes).map(|_| ())),
        door("open_from_file(Read)", &|| {
            serialize::open_from_file(path, MapMode::Read).map(|_| ())
        }),
        door("Qbs::load", &|| Qbs::load(path).map(|_| ())),
        door("load_view_from_file(Read)", &|| {
            serialize::load_view_from_file(path, MapMode::Read).map(|_| ())
        }),
        door("load_view_from_file(Mmap)", &|| {
            serialize::load_view_from_file(path, MapMode::Mmap).map(|_| ())
        }),
        door("Qbs::open(Mmap)", &|| {
            Qbs::open(path, MapMode::Mmap).map(|_| ())
        }),
        door("Qbs::open(Read)", &|| {
            Qbs::open(path, MapMode::Read).map(|_| ())
        }),
    ]
}

/// Files an earlier build wrote (the JSON index, `QBSIDX2` to `QBSIDX5`)
/// get the one rebuild message through every door; garbage is told it is
/// not an index at all. Never a panic, never an unbounded excerpt.
#[test]
fn retired_layouts_and_garbage_are_refused_through_every_door() {
    let dir = temp_dir("old_magic");
    // A v4 or v5 file is this build's figure-4 file under the old magic and
    // version: v5 is this layout with byte-wide label slots, v4 also kept
    // u64 graph offsets.
    let forge = |head: &[u8; 12]| {
        let mut old = std::fs::read(fixture_path()).expect("fixture");
        old[..12].copy_from_slice(head);
        reseal(&mut old);
        old
    };
    let cases: [(&str, Vec<u8>, Option<u32>); 7] = [
        ("v1.qbs", b"qbs-index-v1\n{\"graph\":{}}".to_vec(), Some(1)),
        (
            "v2.qbs",
            [b"QBSIDX2\0".as_slice(), &[0u8; 900]].concat(),
            Some(2),
        ),
        (
            "v3.qbs",
            [b"QBSIDX3\0".as_slice(), &[7u8; 500]].concat(),
            Some(3),
        ),
        ("v4.qbs", forge(b"QBSIDX4\0\x04\0\0\0"), Some(4)),
        ("v5.qbs", forge(b"QBSIDX5\0\x05\0\0\0"), Some(5)),
        ("junk.qbs", vec![0xEE; 4096], None),
        ("empty.qbs", Vec::new(), None),
    ];
    for (name, bytes, version) in cases {
        let path = dir.join(name);
        std::fs::write(&path, &bytes).expect("write");
        assert_eq!(
            serialize::index_version_of_file(&path).expect("sniff"),
            version
        );
        for (door, result) in every_door(&bytes, &path, name) {
            let err = result.expect_err(door);
            assert!(
                matches!(err, QbsError::Corrupt(_)),
                "{name} via {door}: {err:?}"
            );
            let msg = err.to_string();
            match version {
                Some(v) => {
                    assert!(msg.contains(&format!("qbs-index v{v}")), "{door}: {msg}");
                    assert!(msg.contains("rebuild with `qbs build`"), "{door}: {msg}");
                }
                None => assert!(msg.contains("not a qbs index file"), "{door}: {msg}"),
            }
            assert!(msg.len() < 200 + 4 * EXCERPT_LEN, "{door}: {msg}");
        }
    }
}

/// One graph per generator family, sized by the proptest case. Family 4 is
/// a path long enough to overflow the four-bit slot and often the
/// eight-bit one, so every width is exercised.
fn family_graph(family: u64, vertices: usize, seed: u64) -> Graph {
    match family % 5 {
        0 => barabasi_albert::generate(&BarabasiAlbertConfig {
            vertices,
            edges_per_vertex: 2,
            seed,
        }),
        1 => erdos_renyi::generate(&ErdosRenyiConfig {
            vertices,
            edges: vertices * 2,
            seed,
        }),
        2 => watts_strogatz::generate(&WattsStrogatzConfig {
            vertices,
            neighbors: 2,
            rewire_probability: 0.2,
            seed,
        }),
        3 => power_law::generate(&PowerLawConfig {
            vertices,
            edges: vertices * 2,
            exponent: 2.5,
            seed,
        }),
        _ => path_graph(vertices * 5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // The writer/reader pair is an identity on every generator family and
    // every slot width: decoding the bytes reproduces the graph and every
    // index component, and the decoded index holds the exact bytes.
    #[test]
    fn to_bytes_from_bytes_is_identity(
        family in 0u64..5,
        vertices in 24usize..120,
        landmarks in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let graph = family_graph(family, vertices, seed);
        let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(landmarks));
        let bytes = serialize::to_bytes(&index);
        let restored = serialize::from_bytes(&bytes).expect("deserialize");
        prop_assert_eq!(index.landmarks(), restored.landmarks());
        prop_assert_eq!(index.meta_graph(), restored.meta_graph());
        for v in graph.vertices() {
            prop_assert_eq!(
                restored.neighbors(v).collect::<Vec<_>>(),
                landmark_last_row(&graph, index.landmarks(), v)
            );
        }
        prop_assert_eq!(&bytes[..], restored.bytes(), "decode ∘ encode is not the identity");
    }
}

/// The acceptance-criterion differential: every query answered through an
/// index reopened from its bytes is bit-identical to the freshly built
/// index, and every path graph is the BFS ground truth, across single
/// queries, distance queries, and the batch engine.
#[test]
fn queries_through_from_view_are_bit_identical() {
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 4_000,
        edges_per_vertex: 3,
        seed: 99,
    });
    let pairs = QueryWorkload::sample(&graph, 300, 17).pairs().to_vec();
    let built = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(12));

    let view = IndexView::parse(ViewBuf::Heap(built.bytes().to_vec())).expect("parse");
    let loaded = QbsIndex::from_view(view).expect("serve the view");
    assert_eq!(built.landmarks(), loaded.landmarks());
    assert_eq!(built.meta_graph(), loaded.meta_graph());

    let truth = GroundTruth::new(graph);
    let mut ws = QueryWorkspace::new();
    for &(u, v) in &pairs {
        let request = QueryRequest::path_graph(u, v).with_stats();
        let a = built.execute_with(&mut ws, &request, None);
        let b = loaded.execute_with(&mut ws, &request, None);
        let (a, b) = (
            a.answer().expect("built query"),
            b.answer().expect("loaded query"),
        );
        assert_eq!(a.path_graph, b.path_graph, "SPG({u}, {v}) diverged");
        assert_eq!(a.sketch, b.sketch, "sketch({u}, {v}) diverged");
        assert_eq!(a.stats, b.stats, "search stats({u}, {v}) diverged");
        assert_eq!(a.path_graph, truth.query(u, v), "SPG({u}, {v}) is wrong");
        assert_eq!(
            built.distance(u, v).expect("built distance"),
            loaded.distance(u, v).expect("loaded distance"),
            "distance({u}, {v}) diverged"
        );
    }

    // Batches see the same answers on the built index and the loaded one.
    let requests: Vec<QueryRequest> = pairs
        .iter()
        .map(|&(u, v)| QueryRequest::path_graph(u, v))
        .collect();
    let submit = |qbs: Qbs| qbs.with_threads(2).expect("threads").submit(&requests);
    assert_eq!(
        submit(Qbs::from_index(built)),
        submit(Qbs::from_index(loaded))
    );
}

/// Zero-copy view accessors agree with the graph the index was built from
/// and with Algorithm 2's labelling, on a non-trivial generated graph.
#[test]
fn view_accessors_match_the_graph_and_the_labelling() {
    let graph = erdos_renyi::generate(&ErdosRenyiConfig {
        vertices: 500,
        edges: 1_000,
        seed: 5,
    });
    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(8));
    let scheme = qbs_core::labelling::build_sequential(&graph, index.landmarks());
    let view = index.view();
    assert_eq!(view.num_vertices(), graph.num_vertices());
    assert_eq!(view.num_landmarks(), 8);
    assert_eq!(view.landmarks().collect::<Vec<_>>(), scheme.landmarks);
    for v in graph.vertices() {
        assert_eq!(
            view.graph_neighbors(v).collect::<Vec<_>>(),
            landmark_last_row(&graph, index.landmarks(), v),
            "adjacency of {v}"
        );
        assert_eq!(
            view.label_entries(v).collect::<Vec<_>>(),
            scheme.labelling.entries(v).collect::<Vec<_>>(),
            "labels of {v}"
        );
        for idx in 0..8 {
            assert_eq!(
                view.label_distance(v, idx),
                scheme.labelling.get(v, idx),
                "label ({v}, {idx})"
            );
        }
    }
    assert_eq!(view.meta_edges().collect::<Vec<_>>(), scheme.meta_edges);
    assert_eq!(
        view.num_delta_edges(),
        index.meta_graph().delta_total_edges()
    );
}

/// Saving an index over a file a live session maps replaces the file
/// instead of rewriting it: the old session keeps answering from the old
/// bytes, and a fresh open serves the new file.
#[test]
fn saving_over_a_mapped_index_file_keeps_the_live_session_answering() {
    let spec = *Catalog::paper_table1().get(DatasetId::Youtube).unwrap();
    let graph = spec.generate(Scale::Small);
    let dir = temp_dir("save_over_mapped");
    let path = dir.join(format!("youtube_{}.qbs", std::process::id()));
    let first = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
    serialize::save_to_file(&first, &path).expect("save");
    let live = Qbs::open(&path, MapMode::Mmap).expect("map");
    let requests: Vec<QueryRequest> = QueryWorkload::sample(&graph, 200, 31)
        .pairs()
        .iter()
        .flat_map(|&(u, v)| {
            [
                QueryRequest::path_graph(u, v).with_stats(),
                QueryRequest::distance(u, v),
            ]
        })
        .collect();
    let before = live.submit(&requests);

    let second = QbsIndex::build(graph, QbsConfig::with_landmark_count(5));
    serialize::save_to_file(&second, &path).expect("save over the mapped file");
    assert_eq!(
        live.submit(&requests),
        before,
        "the live session's answers changed"
    );

    assert_eq!(std::fs::read(&path).expect("read"), second.bytes());
    let fresh = Qbs::open(&path, MapMode::Mmap).expect("reopen");
    assert_eq!(fresh.num_landmarks(), 5);
    assert_eq!(
        fresh.submit(&requests),
        Qbs::from_index(second).submit(&requests)
    );
    let names: Vec<_> = std::fs::read_dir(&dir)
        .expect("list")
        .map(|entry| entry.expect("entry").file_name())
        .filter(|name| {
            name.to_string_lossy()
                .contains(&std::process::id().to_string())
        })
        .collect();
    assert_eq!(
        names,
        [path.file_name().unwrap()],
        "a temporary file was left"
    );
}
