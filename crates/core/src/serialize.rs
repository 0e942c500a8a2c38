//! Index persistence.
//!
//! The labelling phase is the expensive part of QbS (minutes to hours on the
//! paper's largest graphs), so a production deployment builds the index once
//! and serves queries from it afterwards. There is one on-disk layout, the
//! flat binary `qbs-index` file of [`crate::format`]: an aligned section
//! table, a dense fixed-width label matrix and a checksum, loaded by a
//! single buffer read (or a file mapping) plus typed views.
//!
//! This module is the file-level front door: [`save_to_file`] writes the
//! bytes a [`QbsIndex`] already holds, [`open_from_file`] opens a file as
//! a [`QbsIndex`] under either [`MapMode`], and [`load_view_from_file`]
//! opens it as a bare [`IndexView`]. Corrupt inputs — including
//! files written by earlier builds in a retired layout, which get a
//! "rebuild with `qbs build`" message — are always reported as
//! [`crate::QbsError::Corrupt`], never a panic, and error messages embed at
//! most an [`EXCERPT_LEN`]-byte excerpt of the offending data.

use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::format::{self, IndexView, ViewBuf};
use crate::store::QbsIndex;
use crate::Result;

/// Maximum number of payload bytes quoted inside a corruption error.
pub const EXCERPT_LEN: usize = 32;

/// The index-file bytes of an index (a copy of [`QbsIndex::bytes`]).
pub fn to_bytes(index: &QbsIndex) -> Vec<u8> {
    index.bytes().to_vec()
}

/// Restores an index from a buffer produced by [`to_bytes`], with full
/// validation.
pub fn from_bytes(data: &[u8]) -> Result<QbsIndex> {
    QbsIndex::from_view(IndexView::parse(ViewBuf::Heap(data.to_vec()))?)
}

/// Writes the index file: the bytes the index already holds, in one write
/// (whole-file writes leave the page cache in large folios, which a later
/// mapping of the file faults in quickly).
///
/// An existing file at `path` is replaced, never rewritten: the bytes go to
/// a new file in the same directory, which is then renamed over `path`. A
/// session that maps the old file keeps its inode, so it goes on answering
/// from the old index instead of faulting on a truncated one.
pub fn save_to_file<P: AsRef<Path>>(index: &QbsIndex, path: P) -> Result<()> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    let temp = path.with_file_name(name);
    let written = std::fs::write(&temp, index.bytes()).and_then(|()| std::fs::rename(&temp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    Ok(written?)
}

/// How [`load_view_from_file`] acquires the index bytes. Both modes run
/// the same full validation ([`IndexView::parse`]: geometry, checksum and
/// structural scans) before an index exists; they differ only in where the
/// bytes live.
///
/// * [`MapMode::Read`] — copy the file into a heap buffer.
/// * [`MapMode::Mmap`] — memory-map the immutable index file
///   ([`crate::mmap`]), so N processes serving one file share one physical
///   copy through the page cache. On targets without the mmap shim the
///   bytes are read to the heap instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MapMode {
    /// A heap copy of the file (the default).
    #[default]
    Read,
    /// A shared read-only mapping of the file.
    Mmap,
}

impl std::fmt::Display for MapMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapMode::Read => write!(f, "read"),
            MapMode::Mmap => write!(f, "mmap"),
        }
    }
}

/// Opens and fully validates an index file as a zero-copy [`IndexView`] —
/// the entry point for callers that only need section metadata or the raw
/// label / adjacency accessors, and (wrapped in a [`QbsIndex`]) for serving
/// queries straight from the file. See [`MapMode`] for where the bytes
/// live.
///
/// In [`MapMode::Read`] the magic is checked on the first
/// [`format::HEADER_LEN`] bytes *before* the body is read, so an
/// unrecognised file is rejected without pulling its full contents into
/// memory.
pub fn load_view_from_file<P: AsRef<Path>>(path: P, mode: MapMode) -> Result<IndexView> {
    let path = path.as_ref();
    match mode {
        MapMode::Read => {
            let mut file = std::fs::File::open(path)?;
            let mut bytes = read_header(&mut file)?;
            format::check_magic_and_version(&bytes)?;
            file.read_to_end(&mut bytes)?;
            IndexView::parse(ViewBuf::Heap(bytes))
        }
        MapMode::Mmap => {
            let region = crate::mmap::MmapRegion::map_file(path)?;
            IndexView::parse(ViewBuf::Mmap(std::sync::Arc::new(region)))
        }
    }
}

/// Opens an index file as a ready-to-serve [`QbsIndex`]:
/// [`load_view_from_file`] plus the landmark bitmap and the decoded
/// meta-graph tables. With [`MapMode::Mmap`] this is the whole cold-start
/// path of a shard process — map, verify, wrap, serve.
pub fn open_from_file<P: AsRef<Path>>(path: P, mode: MapMode) -> Result<QbsIndex> {
    QbsIndex::from_view(load_view_from_file(path, mode)?)
}

/// The `qbs-index` version the file at `path` announces in its magic bytes
/// ([`format::index_version`]: `Some(1..=4)` for the retired layouts),
/// or `None` when it is not an index file at all. Reads only the header.
pub fn index_version_of_file<P: AsRef<Path>>(path: P) -> Result<Option<u32>> {
    let mut file = std::fs::File::open(path)?;
    Ok(format::index_version(&read_header(&mut file)?))
}

/// Reads just enough of the file to dispatch on the magic bytes.
fn read_header(file: &mut std::fs::File) -> Result<Vec<u8>> {
    let mut head = Vec::with_capacity(format::HEADER_LEN);
    file.by_ref()
        .take(format::HEADER_LEN as u64)
        .read_to_end(&mut head)?;
    Ok(head)
}

/// A bounded, printable excerpt of untrusted bytes for error messages —
/// never more than [`EXCERPT_LEN`] source bytes, non-ASCII escaped.
pub(crate) fn excerpt(data: &[u8]) -> String {
    let head = &data[..data.len().min(EXCERPT_LEN)];
    let printable: String = head
        .iter()
        .flat_map(|&b| std::ascii::escape_default(b))
        .map(char::from)
        .collect();
    if data.len() > EXCERPT_LEN {
        format!("\"{printable}\"... ({} bytes total)", data.len())
    } else {
        format!("\"{printable}\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QbsConfig;
    use qbs_graph::fixtures::figure4_graph;

    fn index() -> QbsIndex {
        QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
    }

    #[test]
    fn roundtrip_preserves_answers_and_stats() {
        let original = index();
        let restored = from_bytes(&to_bytes(&original)).expect("deserialize");
        assert_eq!(original.bytes(), restored.bytes());
        assert_eq!(original.landmarks(), restored.landmarks());
        assert_eq!(original.meta_graph(), restored.meta_graph());
        for (u, v) in [(6u32, 11u32), (4, 12), (7, 9), (13, 8)] {
            assert_eq!(original.query(u, v).unwrap(), restored.query(u, v).unwrap());
        }
        assert_eq!(
            original.stats().total_index_bytes(),
            restored.stats().total_index_bytes()
        );
    }

    #[test]
    fn rejects_corrupt_data() {
        let mut bytes = to_bytes(&index());
        assert!(from_bytes(&bytes[..5]).is_err());
        assert!(from_bytes(b"not an index at all").is_err());
        assert!(from_bytes(&bytes[..format::HEADER_LEN + 10]).is_err());
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_excerpts_are_truncated() {
        let mut junk = vec![0xEEu8; 4096];
        junk[0] = b'{';
        let err = from_bytes(&junk).unwrap_err().to_string();
        assert!(err.len() < 400, "error message is bounded: {err}");
        assert!(err.contains("not a qbs index file"), "{err}");
    }

    #[test]
    fn excerpt_is_bounded_and_printable() {
        assert_eq!(excerpt(b"abc"), "\"abc\"");
        let long = excerpt(&vec![0u8; 1000]);
        assert!(long.contains("1000 bytes total"));
        assert!(long.len() < 4 * EXCERPT_LEN + 40);
        assert!(excerpt(b"\xFF\x00").contains("\\x"));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("qbs_core_serialize_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let original = index();
        let path = dir.join("figure4.qbs");
        save_to_file(&original, &path).expect("save");
        assert_eq!(
            index_version_of_file(&path).expect("sniff"),
            Some(format::FORMAT_VERSION)
        );
        assert_eq!(std::fs::read(&path).expect("read"), original.bytes());
        let restored = open_from_file(&path, MapMode::Read).expect("open");
        assert_eq!(
            original.query(6, 11).unwrap(),
            restored.query(6, 11).unwrap()
        );
        assert!(open_from_file(dir.join("missing.qbs"), MapMode::Read).is_err());

        // Unrecognised files are rejected from the header alone.
        let junk = dir.join("junk.qbs");
        std::fs::write(&junk, vec![0x42u8; 1 << 16]).expect("write junk");
        assert_eq!(index_version_of_file(&junk).expect("sniff"), None);
        let err = open_from_file(&junk, MapMode::Read)
            .unwrap_err()
            .to_string();
        assert!(err.contains("not a qbs index file"), "{err}");
        assert!(err.len() < 400, "{err}");
    }

    #[test]
    fn view_loading_from_file() {
        let dir = std::env::temp_dir().join("qbs_core_serialize_view_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let original = index();
        let path = dir.join("fig4.qbs");
        save_to_file(&original, &path).expect("save");
        let view = load_view_from_file(&path, MapMode::Read).expect("view");
        assert!(matches!(view.buf(), ViewBuf::Heap(_)));
        assert_eq!(view.num_landmarks(), 3);
        assert_eq!(
            original.query(6, 11).unwrap(),
            QbsIndex::from_view(view).unwrap().query(6, 11).unwrap()
        );

        // The mmap mode serves identical bytes from a mapping.
        let mapped = load_view_from_file(&path, MapMode::Mmap).expect("mmap view");
        assert!(matches!(mapped.buf(), ViewBuf::Mmap(_)));
        assert_eq!(
            QbsIndex::from_view(mapped).unwrap().query(6, 11).unwrap(),
            original.query(6, 11).unwrap()
        );

        // Serving indexes open through the same dispatcher.
        let index = open_from_file(&path, MapMode::Mmap).expect("index");
        assert!(matches!(index.view().buf(), ViewBuf::Mmap(_)));
        assert_eq!(index.num_landmarks(), 3);

        assert_eq!(MapMode::Read.to_string(), "read");
        assert_eq!(MapMode::Mmap.to_string(), "mmap");
        assert_eq!(MapMode::default(), MapMode::Read);
    }
}
