//! `qbs-index`: the flat binary index file, read in place.
//!
//! Production deployments build once and reload on every restart or shard
//! spawn, so load time is a serving-path cost, not a build-path one. The
//! index file is a flat little-endian layout read by **one buffer
//! acquisition plus typed views over byte ranges** — no parsing, no
//! per-vertex allocation — and the label matrix is stored the way
//! [`PathLabelling`] holds it in memory: dense row-major `|V| × |R|`, one
//! fixed-width slot per (vertex, landmark) pair, so a label lookup is one
//! indexed load.
//!
//! # File layout
//!
//! Everything is little-endian. Every section starts on an 8-byte boundary
//! (zero padding in between), so the [`ViewBuf::Mmap`] backend — whose
//! mapping is page-aligned — could cast sections to typed slices directly.
//! The [`ViewBuf::Heap`] backend makes no base-pointer alignment
//! guarantee, so all in-tree accessors decode via `from_le_bytes`, which
//! is alignment-agnostic and therefore correct on both. See
//! `docs/index-format.md` for the normative specification.
//!
//! ```text
//! header (48 bytes)
//!   magic            8 bytes  "QBSIDX6\0"
//!   version          u32      6
//!   section_count    u32      9
//!   num_vertices     u64
//!   num_landmarks    u64
//!   file_size        u64      total file length in bytes
//!   dist_width       u8       bits per label slot: 4, 8 or 16
//!   reserved         7 bytes  0
//! section table (9 × 24 bytes, in SectionKind order)
//!   kind             u32
//!   reserved         u32      0
//!   offset           u64      absolute, 8-byte aligned
//!   len              u64      payload bytes (padding excluded)
//! sections
//!   LANDMARKS        |R| × u32 vertex ids, column order
//!   LABELS           |V| rows of ⌈|R| · dist_width / 8⌉ bytes: row v is
//!                    v's label distances in column order; all-ones = no
//!                    entry
//!   GRAPH_ROWS       (|V|+1) × (u32 start, u32 landmark_start) into
//!                    GRAPH_NEIGHBORS; entry |V| is (arcs, arcs)
//!   GRAPH_NEIGHBORS  2|E| × u32 neighbour ids; each row holds its
//!                    non-landmark neighbours ascending, then its
//!                    landmark neighbours ascending
//!   META_EDGES       |E_R| × (u32 i, u32 j, u32 σ) with i < j
//!   META_APSP        |R|² × u32 row-major landmark distance matrix
//!   DELTA_OFFSETS    (|E_R|+1) × u64 CSR offsets into DELTA_EDGES
//!   DELTA_EDGES      Σ|Δ_k| × (u32, u32) edge endpoints
//!   CHECKSUM         u64 word-wise FNV-1a 64 over file[0 .. checksum_offset)
//! ```
//!
//! # Label slots
//!
//! The writer picks `dist_width`, the slot width in bits, from the data:
//! the narrowest of 4, 8 and 16 whose all-ones "no entry" value exceeds the
//! largest label distance (so 4 bits hold labels up to 14, 8 bits up to 254
//! and 16 bits up to 65 534). A row is `⌈|R| · dist_width / 8⌉` bytes, so
//! [`IndexView::label_row`] is a whole-byte slice. Four-bit slots pack two
//! to a byte, column `2k` in the low nibble of row byte `k`; at odd `|R|`
//! the high nibble of each row's last byte is padding and holds `0xF`,
//! which the structural scan checks. Every reader decodes a slot through
//! one function, `decode`, at all three widths: one slot at a time, or a
//! whole row at a time into a sketch lane.
//!
//! # `G⁻` is a row prefix
//!
//! Algorithm 4 searches the sparsified graph `G⁻ = G[V \ R]`. Each
//! adjacency row stores its non-landmark neighbours first, so `v`'s row in
//! `G⁻` is the prefix `[start, landmark_start)` of its row in `G`: stage 1
//! and the label walks read it with no landmark test ([`GraphRows`]).
//! Row bounds are `u32`, so a graph has fewer than 2³² arcs
//! ([`check_num_arcs`]).
//!
//! # Loader abstraction
//!
//! [`IndexView`] wraps a [`ViewBuf`] — an owned heap buffer or a read-only
//! file mapping — and exposes typed accessors over the sections; every
//! accessor goes through [`ViewBuf::as_slice`], so the backends are
//! interchangeable. [`crate::QbsIndex`], the one in-memory form of an
//! index, is a view plus two small derived structures: every query reads
//! labels and adjacency straight from the buffer, whether the index was
//! built in this process (a heap buffer laid out by the build) or opened
//! from a file.
//!
//! All validation happens in [`IndexView::parse`] — geometry, checksum and
//! the structural scans, whichever [`crate::serialize::MapMode`] fetched
//! the bytes — so a corrupt or truncated file is reported as
//! [`QbsError::Corrupt`] before any query can read it, instead of
//! panicking or answering from bad bytes.
//!
//! Files written by earlier builds (the JSON index and the `QBSIDX2` to
//! `QBSIDX5` binary layouts) are refused with one `Corrupt` error that
//! names the old version: an index is derived data, so the migration is
//! `qbs build`.

use qbs_graph::{Distance, Graph, VertexFilter, VertexId};

use crate::labelling::PathLabelling;
use crate::serialize::{excerpt, EXCERPT_LEN};
use crate::{QbsError, Result};

/// Magic bytes opening every index file.
pub const MAGIC: [u8; 8] = *b"QBSIDX6\0";

/// Format version of every index file a build writes.
pub const FORMAT_VERSION: u32 = 6;

/// Byte length of the fixed header.
pub const HEADER_LEN: usize = 48;

/// Byte length of one section-table record.
pub const SECTION_RECORD_LEN: usize = 24;

/// Alignment guaranteed for every section start.
pub const SECTION_ALIGN: usize = 8;

/// Number of sections in an index file.
pub const SECTION_COUNT: usize = 9;

/// Header position of the `dist_width` byte; the seven bytes after it are
/// reserved and must be zero.
const DIST_WIDTH_POS: usize = 40;

/// Identifies one section of an index file.
///
/// Sections appear in the file in ascending discriminant order; the
/// checksum section is always last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// Landmark vertex ids in column order (`|R| × u32`).
    Landmarks = 1,
    /// Dense row-major label matrix (`|V|` rows of `|R|` slots of
    /// `dist_width` bits, each row a whole number of bytes; all-ones = no
    /// entry).
    Labels = 2,
    /// Row bounds into [`SectionKind::GraphNeighbors`]: `(|V|+1) × (u32
    /// start, u32 landmark_start)`, entry `|V|` being `(arcs, arcs)`.
    GraphRows = 3,
    /// Concatenated adjacency rows (`2|E| × u32`), each its non-landmark
    /// neighbours ascending, then its landmark neighbours ascending.
    GraphNeighbors = 4,
    /// Meta-graph edges (`|E_R| × (u32 i, u32 j, u32 σ)`, `i < j`).
    MetaEdges = 5,
    /// Row-major `|R|²` landmark all-pairs distance matrix (`u32`).
    MetaApsp = 6,
    /// CSR offsets into [`SectionKind::DeltaEdges`] (`(|E_R|+1) × u64`).
    DeltaOffsets = 7,
    /// Concatenated Δ path-graph edges (`(u32, u32)` per edge).
    DeltaEdges = 8,
    /// Word-wise FNV-1a 64 checksum of every byte before this section's offset.
    Checksum = 9,
}

impl SectionKind {
    /// All kinds in file order.
    pub const ALL: [SectionKind; SECTION_COUNT] = [
        SectionKind::Landmarks,
        SectionKind::Labels,
        SectionKind::GraphRows,
        SectionKind::GraphNeighbors,
        SectionKind::MetaEdges,
        SectionKind::MetaApsp,
        SectionKind::DeltaOffsets,
        SectionKind::DeltaEdges,
        SectionKind::Checksum,
    ];

    /// Human-readable section name (used by `qbs-cli inspect`).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Landmarks => "landmarks",
            SectionKind::Labels => "labels",
            SectionKind::GraphRows => "graph-rows",
            SectionKind::GraphNeighbors => "graph-neighbors",
            SectionKind::MetaEdges => "meta-edges",
            SectionKind::MetaApsp => "meta-apsp",
            SectionKind::DeltaOffsets => "delta-offsets",
            SectionKind::DeltaEdges => "delta-edges",
            SectionKind::Checksum => "checksum",
        }
    }

    fn from_u32(raw: u32) -> Option<SectionKind> {
        SectionKind::ALL.iter().copied().find(|&k| k as u32 == raw)
    }
}

/// One entry of the parsed section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionRecord {
    /// Which section this record describes.
    pub kind: SectionKind,
    /// Absolute byte offset of the payload (8-byte aligned).
    pub offset: u64,
    /// Payload length in bytes (padding excluded).
    pub len: u64,
}

/// The buffer behind an [`IndexView`].
///
/// Every view accessor reads through [`ViewBuf::as_slice`], so the two
/// backends are interchangeable:
///
/// * [`ViewBuf::Heap`] — an owned copy of the file contents (the ingest /
///   inspection path, and the only possible backend for in-memory buffers);
/// * [`ViewBuf::Mmap`] — a read-only mapping of the index file itself
///   ([`crate::mmap::MmapRegion`]), shared behind an [`std::sync::Arc`] so
///   cloning a view never duplicates the file. N shard processes mapping the same
///   immutable file share one physical copy of the index through the page
///   cache.
#[derive(Clone, Debug)]
pub enum ViewBuf {
    /// An owned, heap-allocated copy of the file contents.
    Heap(Vec<u8>),
    /// A read-only memory mapping of the file (see [`crate::mmap`]).
    Mmap(std::sync::Arc<crate::mmap::MmapRegion>),
}

impl ViewBuf {
    /// The raw bytes of the whole file.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            ViewBuf::Heap(bytes) => bytes,
            ViewBuf::Mmap(region) => region.as_slice(),
        }
    }

    /// Total buffer length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// A validated, zero-copy view over an index buffer.
///
/// Construction ([`IndexView::parse`]) performs *all* validation — magic,
/// version, section table geometry, checksum, and the structural invariants
/// of every section — so the typed accessors and [`crate::QbsIndex`] never
/// panic on untrusted *file contents*. Per-vertex accessors index
/// like slices: passing a vertex or landmark index outside the ranges the
/// header declares (`< num_vertices()` / `< num_landmarks()`) is a caller
/// bug and panics, exactly as `Graph::neighbors` does.
#[derive(Clone, Debug)]
pub struct IndexView {
    buf: ViewBuf,
    sections: [SectionRecord; SECTION_COUNT],
    num_vertices: usize,
    num_landmarks: usize,
    /// Bits per label slot (4, 8 or 16), from the header.
    dist_width: usize,
}

impl IndexView {
    /// Parses and fully validates an index buffer: its geometry, then the
    /// checksum and the structural scans. Every buffer from outside the
    /// process — [`crate::serialize::from_bytes`] and both
    /// [`crate::serialize::MapMode`]s — comes in through here.
    pub fn parse(buf: ViewBuf) -> Result<IndexView> {
        let view = Self::parse_geometry(buf)?;
        view.check_integrity()?;
        Ok(view)
    }

    /// Parses an index buffer validating only its **geometry** — magic,
    /// version, header widths, section-table layout, and every section
    /// length the header implies — so the accessors stay in bounds. For
    /// bytes the build has just laid out, and for [`inspect`], which must
    /// read a corrupt file to report on it.
    fn parse_geometry(buf: ViewBuf) -> Result<IndexView> {
        let data = buf.as_slice();
        check_magic_and_version(data)?;

        let section_count = le_u32(data, 12) as usize;
        if section_count != SECTION_COUNT {
            return Err(QbsError::Corrupt(format!(
                "a qbs index has {SECTION_COUNT} sections, header declares {section_count}"
            )));
        }
        let num_vertices = le_u64(data, 16) as usize;
        let num_landmarks = le_u64(data, 24) as usize;
        let file_size = le_u64(data, 32);
        if file_size != data.len() as u64 {
            return Err(QbsError::Corrupt(format!(
                "file size mismatch: header declares {file_size} bytes, buffer has {} \
                 (truncated or padded file)",
                data.len()
            )));
        }
        let dist_width = data[DIST_WIDTH_POS] as usize;
        if !SLOT_BITS.contains(&dist_width) {
            return Err(QbsError::Corrupt(format!(
                "header declares dist_width {dist_width}; label slots are 4, 8 or 16 bits wide"
            )));
        }
        if data[DIST_WIDTH_POS + 1..HEADER_LEN].iter().any(|&b| b != 0) {
            return Err(QbsError::Corrupt(
                "reserved header bytes must be zero".into(),
            ));
        }

        let sections = parse_section_table(data)?;
        let view = IndexView {
            buf,
            sections,
            num_vertices,
            num_landmarks,
            dist_width,
        };
        view.validate_lengths()?;
        Ok(view)
    }

    /// Number of vertices of the serialised graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of landmarks `|R|`.
    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.num_landmarks
    }

    /// Bits per label slot (4, 8 or 16), as the header declares.
    #[inline]
    pub fn dist_width(&self) -> usize {
        self.dist_width
    }

    /// Total buffer length in bytes.
    #[inline]
    pub fn file_len(&self) -> usize {
        self.buf.len()
    }

    /// The parsed section table, in file order.
    pub fn sections(&self) -> &[SectionRecord] {
        &self.sections
    }

    /// The buffer backend behind this view (heap copy or file mapping).
    pub fn buf(&self) -> &ViewBuf {
        &self.buf
    }

    /// The stored checksum ([`checksum64`] of every byte before its section).
    pub fn checksum(&self) -> u64 {
        let s = self.section(SectionKind::Checksum);
        le_u64(self.buf.as_slice(), s.offset as usize)
    }

    /// Raw payload bytes of one section.
    #[inline]
    pub fn section_bytes(&self, kind: SectionKind) -> &[u8] {
        let s = self.section(kind);
        &self.buf.as_slice()[s.offset as usize..(s.offset + s.len) as usize]
    }

    /// The `i`-th landmark vertex id (column order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_landmarks()`.
    #[inline]
    pub fn landmark(&self, i: usize) -> VertexId {
        le_u32(self.section_bytes(SectionKind::Landmarks), i * 4)
    }

    /// Iterator over the landmark list.
    pub fn landmarks(&self) -> impl Iterator<Item = VertexId> + '_ {
        u32_iter(self.section_bytes(SectionKind::Landmarks))
    }

    /// The label distance of `v` towards landmark column `landmark_idx`:
    /// one indexed load from the dense label matrix (`None` when the slot
    /// holds the all-ones "no entry" value).
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`; `landmark_idx` must be
    /// `< num_landmarks()`.
    #[inline]
    pub fn label_distance(&self, v: VertexId, landmark_idx: usize) -> Option<Distance> {
        debug_assert!(landmark_idx < self.num_landmarks);
        slot_distance(self.label_row(v), landmark_idx, self.dist_width)
    }

    /// The bytes of `v`'s label row: `num_landmarks()` slots of
    /// `dist_width()` bits, all-ones where the row has no entry (and in a
    /// four-bit row's padding nibble). The query path unpacks it whole into
    /// a sketch lane.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    #[inline]
    pub fn label_row(&self, v: VertexId) -> &[u8] {
        let row_len = label_row_len(self.num_landmarks, self.dist_width);
        let base = v as usize * row_len;
        &self.section_bytes(SectionKind::Labels)[base..base + row_len]
    }

    /// Iterator over the `(landmark_idx, distance)` label entries of `v`
    /// in ascending column order: one scan of the vertex's label row.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    #[inline]
    pub fn label_entries(&self, v: VertexId) -> impl Iterator<Item = (usize, Distance)> + '_ {
        row_entries(self.label_row(v), self.num_landmarks, self.dist_width)
    }

    /// The graph's adjacency rows, with both graph sections sliced once:
    /// take it once per query, not once per row.
    #[inline]
    pub fn graph_rows(&self) -> GraphRows<'_> {
        GraphRows {
            bounds: self.section_bytes(SectionKind::GraphRows).as_chunks().0,
            ids: self
                .section_bytes(SectionKind::GraphNeighbors)
                .as_chunks()
                .0,
        }
    }

    /// Iterator over the neighbours of `v`: its non-landmark neighbours
    /// ascending, then its landmark neighbours ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    #[inline]
    pub fn graph_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.graph_rows().neighbors(v)
    }

    /// Number of directed arcs stored in the graph section.
    pub fn num_arcs(&self) -> usize {
        self.section(SectionKind::GraphNeighbors).len as usize / 4
    }

    /// Number of meta-graph edges.
    pub fn num_meta_edges(&self) -> usize {
        self.section(SectionKind::MetaEdges).len as usize / 12
    }

    /// Iterator over the meta edges `(i, j, σ)` in stored order.
    pub fn meta_edges(&self) -> impl Iterator<Item = (usize, usize, Distance)> + '_ {
        (0..self.num_meta_edges()).map(move |k| self.meta_edge(k))
    }

    /// Total number of Δ path-graph edges across all meta edges.
    pub fn num_delta_edges(&self) -> usize {
        self.section(SectionKind::DeltaEdges).len as usize / 8
    }

    /// `d_M(i, j)` straight from the stored APSP matrix.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is `>= num_landmarks()`.
    #[inline]
    pub fn meta_distance(&self, i: usize, j: usize) -> Distance {
        le_u32(
            self.section_bytes(SectionKind::MetaApsp),
            (i * self.num_landmarks + j) * 4,
        )
    }

    /// The `k`-th meta edge `(i, j, σ)` in stored order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_meta_edges()`.
    #[inline]
    pub fn meta_edge(&self, k: usize) -> (usize, usize, Distance) {
        let bytes = self.section_bytes(SectionKind::MetaEdges);
        (
            le_u32(bytes, k * 12) as usize,
            le_u32(bytes, k * 12 + 4) as usize,
            le_u32(bytes, k * 12 + 8),
        )
    }

    /// Iterator over the Δ path-graph edges of meta edge `k`, decoded
    /// straight from the delta CSR sections.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_meta_edges()`.
    pub fn delta_edges(&self, k: usize) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        let offsets = self.section_bytes(SectionKind::DeltaOffsets);
        let lo = le_u64(offsets, k * 8) as usize;
        let hi = le_u64(offsets, (k + 1) * 8) as usize;
        let edges = self.section_bytes(SectionKind::DeltaEdges);
        (lo..hi).map(move |e| (le_u32(edges, e * 8), le_u32(edges, e * 8 + 4)))
    }

    #[inline]
    fn section(&self, kind: SectionKind) -> SectionRecord {
        // The table is stored in `SectionKind::ALL` order by construction.
        self.sections[kind as usize - 1]
    }

    /// The `O(file)` half of [`IndexView::parse`]: the checksum, then the
    /// structural scans. [`inspect`] reports its verdict.
    fn check_integrity(&self) -> Result<()> {
        self.verify_checksum()?;
        self.validate_structure()
    }

    fn verify_checksum(&self) -> Result<()> {
        let s = self.section(SectionKind::Checksum);
        let data = self.buf.as_slice();
        let stored = le_u64(data, s.offset as usize);
        let actual = checksum64(&data[..s.offset as usize]);
        if stored != actual {
            return Err(QbsError::Corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x} \
                 (file is corrupt)"
            )));
        }
        Ok(())
    }

    /// The cheap `O(section-count)` length checks: every section length the
    /// header implies, with checked arithmetic, so even a geometry-only
    /// view has sane array bounds (a crafted header with an absurd vertex
    /// count must fail here, not wrap around and slip past the
    /// section-length comparison).
    fn validate_lengths(&self) -> Result<()> {
        let n = self.num_vertices as u64;
        let r = self.num_landmarks as u64;
        let overflow = || {
            QbsError::Corrupt(format!(
                "header counts ({n} vertices, {r} landmarks) overflow the format"
            ))
        };
        let rows_len = n
            .checked_add(1)
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(overflow)?;
        let labels_len = r
            .checked_mul(self.dist_width as u64)
            .and_then(|bits| n.checked_mul(bits.div_ceil(8)))
            .ok_or_else(overflow)?;
        let apsp_len = r
            .checked_mul(r)
            .and_then(|c| c.checked_mul(4))
            .ok_or_else(overflow)?;
        // r² · 4 did not overflow, so r · 4 cannot.
        self.expect_len(SectionKind::Landmarks, r * 4)?;
        self.expect_len(SectionKind::Labels, labels_len)?;
        self.expect_len(SectionKind::GraphRows, rows_len)?;
        self.expect_len(SectionKind::MetaApsp, apsp_len)?;
        for (kind, elem) in [
            (SectionKind::GraphNeighbors, 4),
            (SectionKind::MetaEdges, 12),
            (SectionKind::DeltaEdges, 8),
        ] {
            let len = self.section(kind).len;
            if !len.is_multiple_of(elem) {
                return Err(QbsError::Corrupt(format!(
                    "section '{}' length {len} is not a multiple of its {elem}-byte element",
                    kind.name()
                )));
            }
        }
        self.expect_len(
            SectionKind::DeltaOffsets,
            (self.num_meta_edges() as u64 + 1) * 8,
        )?;
        self.expect_len(SectionKind::Checksum, 8)
    }

    /// Validates every `O(file)` structural invariant the typed accessors
    /// and [`crate::QbsIndex`] rely on, so no later code path can panic on a
    /// file that passed the checksum (e.g. one crafted rather than
    /// corrupted). Of the label matrix only four-bit padding is scanned:
    /// its length is pinned by the header and every slot value is either a
    /// distance or the "no entry" sentinel.
    fn validate_structure(&self) -> Result<()> {
        let n = self.num_vertices;
        let r = self.num_landmarks;

        // Landmarks must be in range and distinct: a duplicate would make
        // one vertex the landmark of two columns.
        let mut landmark_seen = vec![false; n];
        for v in self.landmarks() {
            if v as usize >= n {
                return Err(QbsError::Corrupt(format!(
                    "landmark id {v} out of range for {n} vertices"
                )));
            }
            if std::mem::replace(&mut landmark_seen[v as usize], true) {
                return Err(QbsError::Corrupt(format!(
                    "landmark id {v} appears twice in the landmark list"
                )));
            }
        }
        self.validate_label_padding()?;
        self.validate_graph_rows(&landmark_seen)?;
        validate_csr(
            self.section_bytes(SectionKind::DeltaOffsets),
            self.section(SectionKind::DeltaEdges).len / 8,
            "delta",
        )?;
        for (i, j, _) in self.meta_edges() {
            if i >= j || j >= r {
                return Err(QbsError::Corrupt(format!(
                    "meta edge ({i}, {j}) violates i < j < |R| = {r}"
                )));
            }
        }
        for v in u32_iter(self.section_bytes(SectionKind::DeltaEdges)) {
            if v as usize >= n {
                return Err(QbsError::Corrupt(format!(
                    "delta edge endpoint {v} out of range for {n} vertices"
                )));
            }
        }
        Ok(())
    }

    /// At four bits and odd `|R|`, the high nibble of each label row's last
    /// byte is padding and must be `0xF`, so every file has one encoding.
    fn validate_label_padding(&self) -> Result<()> {
        if self.dist_width != 4 || self.num_landmarks.is_multiple_of(2) {
            return Ok(());
        }
        let row_len = label_row_len(self.num_landmarks, 4);
        let labels = self.section_bytes(SectionKind::Labels);
        match labels
            .chunks_exact(row_len)
            .position(|row| row[row_len - 1] >> 4 != 0xF)
        {
            None => Ok(()),
            Some(v) => Err(QbsError::Corrupt(format!(
                "label row of vertex {v} has padding nibble {:#x}; four-bit rows pad with 0xf",
                labels[(v + 1) * row_len - 1] >> 4
            ))),
        }
    }

    /// The graph rows tile the neighbour section in vertex order, and each
    /// row is its non-landmark neighbours, then its landmark neighbours,
    /// each half strictly increasing: what stage 1's unfiltered prefix read
    /// and [`GraphRows::has_edge`]'s binary searches rely on.
    fn validate_graph_rows(&self, is_landmark: &[bool]) -> Result<()> {
        let n = self.num_vertices;
        let arcs = self.num_arcs();
        let bounds = self.section_bytes(SectionKind::GraphRows);
        let entry = |v: usize| {
            (
                le_u32(bounds, v * 8) as usize,
                le_u32(bounds, v * 8 + 4) as usize,
            )
        };
        if entry(0).0 != 0 || entry(n) != (arcs, arcs) {
            return Err(QbsError::Corrupt(format!(
                "graph rows must start at 0 and end at ({arcs}, {arcs})"
            )));
        }
        let ids = self.section_bytes(SectionKind::GraphNeighbors);
        for v in 0..n {
            let ((start, split), (end, _)) = (entry(v), entry(v + 1));
            if !(start <= split && split <= end && end <= arcs) {
                return Err(QbsError::Corrupt(format!(
                    "graph row of vertex {v} has bounds start {start}, landmark start \
                     {split}, end {end}: out of order"
                )));
            }
            for (half, landmarks) in [(start..split, false), (split..end, true)] {
                let what = if landmarks {
                    "landmark"
                } else {
                    "non-landmark"
                };
                let mut prev: Option<u32> = None;
                for w in half.map(|i| le_u32(ids, i * 4)) {
                    if w as usize >= n {
                        return Err(QbsError::Corrupt(format!(
                            "graph neighbour id {w} out of range for {n} vertices"
                        )));
                    }
                    if is_landmark[w as usize] != landmarks {
                        return Err(QbsError::Corrupt(format!(
                            "the {what} half of vertex {v}'s graph row holds vertex {w}"
                        )));
                    }
                    if prev.is_some_and(|p| p >= w) {
                        return Err(QbsError::Corrupt(format!(
                            "the {what} half of vertex {v}'s graph row is not strictly sorted"
                        )));
                    }
                    prev = Some(w);
                }
            }
        }
        Ok(())
    }

    fn expect_len(&self, kind: SectionKind, expected: u64) -> Result<()> {
        let len = self.section(kind).len;
        if len != expected {
            return Err(QbsError::Corrupt(format!(
                "section '{}' must be {expected} bytes for this header, found {len}",
                kind.name()
            )));
        }
        Ok(())
    }
}

/// The adjacency rows of an index's graph ([`IndexView::graph_rows`]).
///
/// Row `v` is `v`'s non-landmark neighbours ascending — its row in the
/// sparsified graph `G⁻ = G[V \ R]` — then its landmark neighbours
/// ascending. Per-vertex methods panic on `v >= num_vertices()`, like
/// slice indexing.
#[derive(Clone, Copy, Debug)]
pub struct GraphRows<'a> {
    /// `(start, landmark_start)` per vertex, then `(arcs, arcs)`.
    bounds: &'a [[u8; 8]],
    /// Every row's neighbour ids, back to back.
    ids: &'a [[u8; 4]],
}

impl<'a> GraphRows<'a> {
    /// `(start, landmark_start)` of `v`'s row.
    #[inline]
    fn bounds(&self, v: VertexId) -> (usize, usize) {
        let [s0, s1, s2, s3, l0, l1, l2, l3] = self.bounds[v as usize];
        (
            u32::from_le_bytes([s0, s1, s2, s3]) as usize,
            u32::from_le_bytes([l0, l1, l2, l3]) as usize,
        )
    }

    /// `v`'s non-landmark half: one bounds entry read.
    #[inline]
    fn sparsified_half(&self, v: VertexId) -> &'a [[u8; 4]] {
        let (start, split) = self.bounds(v);
        &self.ids[start..split]
    }

    /// `v`'s landmark half.
    #[inline]
    fn landmark_half(&self, v: VertexId) -> &'a [[u8; 4]] {
        let (_, split) = self.bounds(v);
        let (end, _) = self.bounds(v + 1);
        &self.ids[split..end]
    }

    /// Every neighbour of `v`: the non-landmarks, then the landmarks.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + 'a {
        let (start, _) = self.bounds(v);
        let (end, _) = self.bounds(v + 1);
        ids(&self.ids[start..end])
    }

    /// `v`'s non-landmark neighbours, ascending: its row in `G⁻`.
    #[inline]
    pub fn sparsified_neighbors(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = VertexId> + 'a {
        ids(self.sparsified_half(v))
    }

    /// `v`'s landmark neighbours, ascending.
    #[inline]
    pub fn landmark_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + 'a {
        ids(self.landmark_half(v))
    }

    /// The degree of `v` in `G`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (start, _) = self.bounds(v);
        let (end, _) = self.bounds(v + 1);
        end - start
    }

    /// Whether `{v, w}` is a graph edge: one binary search of the half of
    /// `v`'s row that can hold `w`, the landmark half iff `w_is_landmark`.
    #[inline]
    pub fn has_edge(&self, v: VertexId, w: VertexId, w_is_landmark: bool) -> bool {
        let half = if w_is_landmark {
            self.landmark_half(v)
        } else {
            self.sparsified_half(v)
        };
        half.binary_search_by(|id| u32::from_le_bytes(*id).cmp(&w))
            .is_ok()
    }
}

/// Decodes a run of neighbour ids.
#[inline]
fn ids(run: &[[u8; 4]]) -> impl ExactSizeIterator<Item = VertexId> + '_ {
    run.iter().map(|id| u32::from_le_bytes(*id))
}

/// Refuses a graph whose arc count the `u32` row bounds cannot address.
pub fn check_num_arcs(num_arcs: usize) -> Result<()> {
    if u32::try_from(num_arcs).is_err() {
        return Err(QbsError::GraphTooLarge {
            num_arcs: num_arcs as u64,
        });
    }
    Ok(())
}

/// Payload lengths of every section, in file order.
fn section_lens(
    num_vertices: usize,
    num_landmarks: usize,
    dist_width: usize,
    num_arcs: usize,
    num_meta_edges: usize,
    num_delta_edges: usize,
) -> [usize; SECTION_COUNT] {
    let (n, r) = (num_vertices, num_landmarks);
    [
        r * 4,
        n * label_row_len(r, dist_width),
        (n + 1) * 8,
        num_arcs * 4,
        num_meta_edges * 12,
        r * r * 4,
        (num_meta_edges + 1) * 8,
        num_delta_edges * 8,
        8,
    ]
}

/// Lays sections of these lengths out back to back at aligned offsets
/// after the header and the section table; the last record (the checksum)
/// ends the file.
fn layout(lens: [usize; SECTION_COUNT]) -> Vec<SectionRecord> {
    let mut cursor = (HEADER_LEN + SECTION_COUNT * SECTION_RECORD_LEN) as u64;
    SectionKind::ALL
        .iter()
        .zip(lens)
        .map(|(&kind, len)| {
            let offset = align_up(cursor, SECTION_ALIGN as u64);
            cursor = offset + len as u64;
            SectionRecord {
                kind,
                offset,
                len: len as u64,
            }
        })
        .collect()
}

/// The header and the section table of a file laid out by `records`.
fn header(
    num_vertices: usize,
    num_landmarks: usize,
    dist_width: usize,
    records: &[SectionRecord],
) -> Vec<u8> {
    let last = records[SECTION_COUNT - 1];
    let mut out = Vec::with_capacity(HEADER_LEN + SECTION_COUNT * SECTION_RECORD_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    out.extend_from_slice(&(num_vertices as u64).to_le_bytes());
    out.extend_from_slice(&(num_landmarks as u64).to_le_bytes());
    out.extend_from_slice(&(last.offset + last.len).to_le_bytes());
    debug_assert_eq!(out.len(), DIST_WIDTH_POS);
    // The width byte, then the seven reserved zero bytes.
    out.extend_from_slice(&(dist_width as u64).to_le_bytes());
    for record in records {
        out.extend_from_slice(&(record.kind as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&record.offset.to_le_bytes());
        out.extend_from_slice(&record.len.to_le_bytes());
    }
    out
}

/// Zero-pads `out` up to the start of `record`'s section.
fn pad_to(out: &mut Vec<u8>, record: SectionRecord) {
    debug_assert!(
        record.offset as usize - out.len() < SECTION_ALIGN,
        "sections are back to back"
    );
    out.resize(record.offset as usize, 0);
}

/// Starts a build's index buffer: zeroes where the header and the section
/// table go, the landmark ids, and padding up to the label section, which
/// the labelling build appends ([`crate::labelling::build_after`]). The
/// capacity covers every section but Δ's edges with eight-bit label slots,
/// so an eight-bit labelling is written without moving the buffer, and a
/// four-bit one leaves `|V| · ⌊|R|/2⌋` bytes free for Δ's edges, which
/// [`append_delta`] then appends in place: moving a file-sized buffer
/// leaves the moved-from block resident (see the allocator note in
/// `ROADMAP.md`).
pub(crate) fn start_buffer(
    num_vertices: usize,
    landmarks: &[VertexId],
    num_arcs: usize,
) -> Vec<u8> {
    let r = landmarks.len();
    let max_meta_edges = r * r.saturating_sub(1) / 2;
    let records = layout(section_lens(
        num_vertices,
        r,
        SLOT_BITS[1],
        num_arcs,
        max_meta_edges,
        0,
    ));
    let end = records[SECTION_COUNT - 1];
    let mut out = Vec::with_capacity((end.offset + end.len) as usize);
    out.resize(HEADER_LEN + SECTION_COUNT * SECTION_RECORD_LEN, 0);
    pad_to(&mut out, records[SectionKind::Landmarks as usize - 1]);
    put_words(&mut out, landmarks, u32::to_le_bytes);
    pad_to(&mut out, records[SectionKind::Labels as usize - 1]);
    out
}

/// Completes a buffer from [`start_buffer`] whose labels are laid out
/// (`labelling`) with every section but Δ's edges, then fills in the header
/// and the section table: the index the build's Δ walk runs over
/// ([`crate::meta_graph::delta`]) and [`append_delta`] completes. Δ's
/// offsets are all zero, so the view parses as an index with empty Δ
/// lists; its checksum is a placeholder.
///
/// The graph's rows are written partitioned by the landmark set, each
/// row's non-landmark neighbours first; the graph is dropped as soon as
/// its sections are written. It must have fewer than 2³² arcs
/// ([`check_num_arcs`]).
pub(crate) fn write_without_delta(
    labelling: PathLabelling,
    graph: Graph,
    landmarks: &[VertexId],
    meta_edges: &[(usize, usize, Distance)],
    apsp: &[Distance],
) -> IndexView {
    let (n, r) = (labelling.num_vertices(), labelling.num_landmarks());
    let dist_width = labelling.slot_width();
    let records = layout(section_lens(
        n,
        r,
        dist_width,
        graph.num_arcs(),
        meta_edges.len(),
        0,
    ));
    let section = |kind: SectionKind| records[kind as usize - 1];

    let mut out = labelling.into_buffer();
    let labels = section(SectionKind::Labels);
    debug_assert_eq!(out.len() as u64, labels.offset + labels.len);
    // One pass over the graph: each row's non-landmark neighbours go
    // straight to the buffer, its few landmark neighbours after them, and
    // its bounds into the rows section laid out ahead of the neighbours.
    let is_landmark = VertexFilter::from_vertices(n, landmarks.iter().copied());
    let rows = section(SectionKind::GraphRows);
    pad_to(&mut out, rows);
    out.resize((rows.offset + rows.len) as usize, 0);
    let ids_at = section(SectionKind::GraphNeighbors).offset as usize;
    pad_to(&mut out, section(SectionKind::GraphNeighbors));
    let arcs_written = |out: &Vec<u8>| ((out.len() - ids_at) / 4) as u32;
    let put_entry = |out: &mut Vec<u8>, v: usize, start: u32, split: u32| {
        let at = rows.offset as usize + 8 * v;
        out[at..at + 4].copy_from_slice(&start.to_le_bytes());
        out[at + 4..at + 8].copy_from_slice(&split.to_le_bytes());
    };
    let mut landmark_half = Vec::new();
    for v in graph.vertices() {
        let start = arcs_written(&out);
        for &w in graph.neighbors(v) {
            if is_landmark.contains(w) {
                landmark_half.push(w);
            } else {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        let split = arcs_written(&out);
        put_words(&mut out, &landmark_half, u32::to_le_bytes);
        landmark_half.clear();
        put_entry(&mut out, v as usize, start, split);
    }
    let end = arcs_written(&out);
    put_entry(&mut out, n, end, end);
    drop(graph);
    pad_to(&mut out, section(SectionKind::MetaEdges));
    for &(i, j, sigma) in meta_edges {
        put_words(&mut out, &[i as u32, j as u32, sigma], u32::to_le_bytes);
    }
    pad_to(&mut out, section(SectionKind::MetaApsp));
    put_words(&mut out, apsp, u32::to_le_bytes);
    let delta_offsets = section(SectionKind::DeltaOffsets);
    pad_to(&mut out, delta_offsets);
    out.resize((delta_offsets.offset + delta_offsets.len) as usize, 0);
    pad_to(&mut out, section(SectionKind::Checksum));
    out.extend_from_slice(&0u64.to_le_bytes());
    let head = header(n, r, dist_width, &records);
    out[..head.len()].copy_from_slice(&head);
    IndexView::parse_geometry(ViewBuf::Heap(out)).expect("a freshly laid-out index parses")
}

/// Completes a view from [`write_without_delta`]: fills in Δ's offsets,
/// appends Δ's edges (`delta[k]` for the `k`-th meta edge) and the
/// checksum, and rewrites the header and section table to match. The
/// result is byte-for-byte the index file, verified by construction.
pub(crate) fn append_delta(view: IndexView, delta: &[Vec<(VertexId, VertexId)>]) -> IndexView {
    let num_edges: usize = delta.iter().map(Vec::len).sum();
    let (n, r, dist_width) = (view.num_vertices, view.num_landmarks, view.dist_width);
    let lens = section_lens(n, r, dist_width, view.num_arcs(), delta.len(), num_edges);
    let records = layout(lens);
    let offsets_at = view.section(SectionKind::DeltaOffsets).offset as usize;
    let edges_at = view.section(SectionKind::DeltaEdges).offset as usize;
    let ViewBuf::Heap(mut out) = view.buf else {
        unreachable!("a build lays its index out on the heap")
    };
    out.truncate(edges_at);
    out.reserve_exact(num_edges * 8 + 8);

    let mut end = 0u64;
    for (slot, edges) in out[offsets_at + 8..edges_at].chunks_exact_mut(8).zip(delta) {
        end += edges.len() as u64;
        slot.copy_from_slice(&end.to_le_bytes());
    }
    for edges in delta {
        for &(a, b) in edges {
            put_words(&mut out, &[a, b], u32::to_le_bytes);
        }
    }
    let head = header(n, r, dist_width, &records);
    out[..head.len()].copy_from_slice(&head);
    debug_assert_eq!(out.len() as u64, records[SECTION_COUNT - 1].offset);
    let checksum = checksum64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());

    let view =
        IndexView::parse_geometry(ViewBuf::Heap(out)).expect("the build writes a valid index");
    debug_assert!(
        view.check_integrity().is_ok(),
        "the build writes a valid index"
    );
    view
}

/// Appends `values` as `N`-byte little-endian words.
fn put_words<T: Copy, const N: usize>(
    out: &mut Vec<u8>,
    values: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    out.reserve(values.len() * N);
    for &v in values {
        out.extend_from_slice(&to_le(v));
    }
}

/// Everything `qbs inspect` reports about an index file, computed without
/// requiring the file to be valid — a corrupt-but-geometrically-sane file
/// is *inspectable* (that is the whole point of the tool), it just reports
/// `checksum_ok() == false` or a [`FileInspection::fault`].
#[derive(Clone, Debug)]
pub struct FileInspection {
    /// `|V|` from the header.
    pub num_vertices: usize,
    /// `|R|` from the header.
    pub num_landmarks: usize,
    /// Bits per label slot from the header.
    pub dist_width: usize,
    /// Total file length in bytes.
    pub file_len: usize,
    /// The parsed section table, in file order.
    pub sections: Vec<SectionRecord>,
    /// Checksum stored in the file.
    pub stored_checksum: u64,
    /// Checksum recomputed over the file contents.
    pub computed_checksum: u64,
    /// Directed arc count implied by the graph-neighbors section.
    pub num_arcs: usize,
    /// Meta-edge count implied by the meta-edges section.
    pub num_meta_edges: usize,
    /// Δ edge count implied by the delta-edges section.
    pub num_delta_edges: usize,
    /// Why [`IndexView::parse`] refuses the file (the checksum or the
    /// structural scans, the same checks every open runs), or `None` when
    /// it opens.
    pub fault: Option<String>,
}

impl FileInspection {
    /// Whether the stored checksum matches the recomputed one.
    pub fn checksum_ok(&self) -> bool {
        self.stored_checksum == self.computed_checksum
    }

    /// Label bytes per vertex: one row of the label section.
    pub fn label_bytes_per_vertex(&self) -> usize {
        label_row_len(self.num_landmarks, self.dist_width)
    }

    /// A section's payload share of the whole file, in percent.
    pub fn section_percent(&self, record: &SectionRecord) -> f64 {
        if self.file_len == 0 {
            return 0.0;
        }
        record.len as f64 * 100.0 / self.file_len as f64
    }
}

/// Inspects an index buffer: geometry must parse (otherwise the `Corrupt`
/// error is returned), but checksum and structural validity are *reported*,
/// not enforced, so `qbs inspect` can diagnose a bit-rotted file. Takes the
/// buffer by value so inspecting a multi-GB index never holds two copies
/// of it — pass `ViewBuf::Heap(std::fs::read(path)?)` or a mapped buffer.
pub fn inspect(buf: ViewBuf) -> Result<FileInspection> {
    let view = IndexView::parse_geometry(buf)?;
    let checksum_offset = view.section(SectionKind::Checksum).offset as usize;
    let computed_checksum = checksum64(&view.buf().as_slice()[..checksum_offset]);
    Ok(FileInspection {
        num_vertices: view.num_vertices(),
        num_landmarks: view.num_landmarks(),
        dist_width: view.dist_width(),
        file_len: view.file_len(),
        sections: view.sections().to_vec(),
        stored_checksum: view.checksum(),
        computed_checksum,
        num_arcs: view.num_arcs(),
        num_meta_edges: view.num_meta_edges(),
        num_delta_edges: view.num_delta_edges(),
        fault: view.check_integrity().err().map(|err| err.to_string()),
    })
}

/// The `qbs-index` version the leading bytes of a file announce, or `None`
/// when they carry no qbs index magic at all. Versions 1–5 are the layouts
/// earlier builds wrote (the JSON index and the four older binary ones);
/// nothing reads them any more.
pub fn index_version(head: &[u8]) -> Option<u32> {
    const RETIRED: [(&[u8], u32); 5] = [
        (b"qbs-index-v1", 1),
        (b"QBSIDX2\0", 2),
        (b"QBSIDX3\0", 3),
        (b"QBSIDX4\0", 4),
        (b"QBSIDX5\0", 5),
    ];
    if head.starts_with(&MAGIC) {
        return Some(FORMAT_VERSION);
    }
    RETIRED
        .iter()
        .find(|(magic, _)| head.starts_with(magic))
        .map(|&(_, version)| version)
}

/// Validates the magic and version of a candidate index buffer (its first
/// [`HEADER_LEN`] bytes suffice). Files of a retired layout get the one
/// rebuild message.
pub(crate) fn check_magic_and_version(data: &[u8]) -> Result<()> {
    match index_version(data) {
        Some(FORMAT_VERSION) => {}
        Some(old) => {
            return Err(QbsError::Corrupt(format!(
                "this is a qbs-index v{old} file, a layout this build no longer reads; an \
                 index is derived data — rebuild with `qbs build`"
            )))
        }
        None => {
            // Callers may pass only the header; trim to the excerpt budget
            // so the message never reports that length as the file size.
            return Err(QbsError::Corrupt(format!(
                "not a qbs index file: missing the qbs-index magic; data starts with {}",
                excerpt(&data[..data.len().min(EXCERPT_LEN)])
            )));
        }
    }
    if data.len() < HEADER_LEN {
        return Err(QbsError::Corrupt(format!(
            "buffer of {} bytes is shorter than the {HEADER_LEN}-byte header",
            data.len()
        )));
    }
    let version = le_u32(data, 8);
    if version != FORMAT_VERSION {
        return Err(QbsError::Corrupt(format!(
            "unsupported qbs-index format version {version}; this build reads \
             v{FORMAT_VERSION} only"
        )));
    }
    Ok(())
}

/// Parses and geometry-checks the section table: record order, alignment,
/// bounds, no overlap, no trailing bytes.
fn parse_section_table(data: &[u8]) -> Result<[SectionRecord; SECTION_COUNT]> {
    let table_end = HEADER_LEN + SECTION_COUNT * SECTION_RECORD_LEN;
    if data.len() < table_end {
        return Err(QbsError::Corrupt(format!(
            "truncated section table: need {table_end} bytes, have {}",
            data.len()
        )));
    }
    let mut sections = Vec::with_capacity(SECTION_COUNT);
    let mut cursor = table_end as u64;
    for (slot, expected) in SectionKind::ALL.iter().enumerate() {
        let base = HEADER_LEN + slot * SECTION_RECORD_LEN;
        let raw_kind = le_u32(data, base);
        let kind = SectionKind::from_u32(raw_kind).ok_or_else(|| {
            QbsError::Corrupt(format!("unknown section kind {raw_kind} in slot {slot}"))
        })?;
        if kind != *expected {
            return Err(QbsError::Corrupt(format!(
                "section slot {slot} holds '{}', expected '{}'",
                kind.name(),
                expected.name()
            )));
        }
        let offset = le_u64(data, base + 8);
        let len = le_u64(data, base + 16);
        if !offset.is_multiple_of(SECTION_ALIGN as u64) {
            return Err(QbsError::Corrupt(format!(
                "section '{}' offset {offset} is not {SECTION_ALIGN}-byte aligned",
                kind.name()
            )));
        }
        if offset < cursor {
            return Err(QbsError::Corrupt(format!(
                "section '{}' at offset {offset} overlaps the previous section",
                kind.name()
            )));
        }
        let end = offset.checked_add(len).ok_or_else(|| {
            QbsError::Corrupt(format!("section '{}' length overflows", kind.name()))
        })?;
        if end > data.len() as u64 {
            return Err(QbsError::Corrupt(format!(
                "section '{}' [{offset}, {end}) exceeds the {}-byte buffer",
                kind.name(),
                data.len()
            )));
        }
        cursor = end;
        sections.push(SectionRecord { kind, offset, len });
    }
    if cursor != data.len() as u64 {
        return Err(QbsError::Corrupt(format!(
            "{} trailing bytes after the checksum section",
            data.len() as u64 - cursor
        )));
    }
    Ok(sections.try_into().expect("one record per section kind"))
}

/// The label slot widths in bits, narrowest first.
pub(crate) const SLOT_BITS: [usize; 3] = [4, 8, 16];

/// The longest label distance a `bits`-bit slot holds: all-ones is "no
/// entry".
#[inline]
pub(crate) fn longest_label(bits: usize) -> Distance {
    (1 << bits) - 2
}

/// Bytes of one label row: `num_landmarks` slots of `bits` bits, rounded up
/// to a whole byte.
#[inline]
pub fn label_row_len(num_landmarks: usize, bits: usize) -> usize {
    (num_landmarks * bits).div_ceil(8)
}

/// The label distance a `BITS`-bit slot's raw bits hold: `None` for the
/// all-ones "no entry" value. Every label read, at every width, ends here.
#[inline(always)]
fn decode<const BITS: usize>(raw: u16) -> Option<Distance> {
    (u32::from(raw) != (1 << BITS) - 1).then_some(Distance::from(raw))
}

/// Decodes slot `column` of a label row of `bits`-bit slots: four-bit
/// slots pack column `2k` into the low nibble of byte `k`, wider ones are
/// little-endian.
#[inline]
pub(crate) fn slot_distance(row: &[u8], column: usize, bits: usize) -> Option<Distance> {
    match bits {
        4 => decode::<4>(u16::from((row[column / 2] >> (4 * (column % 2))) & 0xF)),
        8 => decode::<8>(u16::from(row[column])),
        _ => decode::<16>(u16::from_le_bytes([row[2 * column], row[2 * column + 1]])),
    }
}

/// The `(column, distance)` entries of a label row of `num_landmarks`
/// `bits`-bit slots, in column order.
#[inline]
pub(crate) fn row_entries(
    row: &[u8],
    num_landmarks: usize,
    bits: usize,
) -> impl Iterator<Item = (usize, Distance)> + '_ {
    (0..num_landmarks)
        .filter_map(move |column| slot_distance(row, column, bits).map(|d| (column, d)))
}

/// Unpacks a whole label row of `bits`-bit slots into `out`, `out[c] =
/// lane(slot c)`: every slot the row's bytes hold, so at four bits and odd
/// `|R|` also the padding nibble, as `None`. The width is matched once per
/// row, and each width's loop reads the row front to back with no bounds
/// check, so the compiler can vectorise it.
///
/// # Panics
///
/// Panics if `out` is shorter than the row's slot count.
#[inline]
pub(crate) fn unpack_row<T>(
    row: &[u8],
    bits: usize,
    out: &mut [T],
    lane: impl Fn(Option<Distance>) -> T,
) {
    assert!(
        out.len() >= row.len() * 8 / bits,
        "a lane shorter than its row"
    );
    match bits {
        4 => {
            for (pair, &byte) in out.as_chunks_mut::<2>().0.iter_mut().zip(row) {
                *pair = [
                    lane(decode::<4>(u16::from(byte & 0xF))),
                    lane(decode::<4>(u16::from(byte >> 4))),
                ];
            }
        }
        8 => {
            for (slot, &byte) in out.iter_mut().zip(row) {
                *slot = lane(decode::<8>(u16::from(byte)));
            }
        }
        _ => {
            for (slot, &pair) in out.iter_mut().zip(row.as_chunks::<2>().0) {
                *slot = lane(decode::<16>(u16::from_le_bytes(pair)));
            }
        }
    }
}

/// Stores `d` (`None`: "no entry") in slot `column` of a label row of
/// `bits`-bit slots. A four-bit slot is a read-modify-write of its byte.
///
/// # Panics
///
/// Panics if `d` exceeds [`longest_label`]`(bits)`.
#[inline]
pub(crate) fn put_slot(row: &mut [u8], column: usize, bits: usize, d: Option<Distance>) {
    assert!(
        d.is_none_or(|d| d <= longest_label(bits)),
        "label {d:?} overflows a {bits}-bit slot"
    );
    let raw = d.unwrap_or(Distance::MAX);
    match bits {
        4 => {
            let shift = 4 * (column % 2);
            let byte = &mut row[column / 2];
            *byte = (*byte & !(0xF << shift)) | (((raw & 0xF) as u8) << shift);
        }
        8 => row[column] = raw as u8,
        _ => row[2 * column..2 * column + 2].copy_from_slice(&(raw as u16).to_le_bytes()),
    }
}

/// The file checksum: FNV-1a 64 applied to 8-byte little-endian words.
///
/// The classic byte-at-a-time FNV-1a is a serial multiply chain, which
/// costs ~2 ns/byte and would dominate load time on multi-hundred-MB
/// indexes. Hashing word-wise keeps the same structure (`h = (h ^ w) ·
/// prime`) at one multiply per 8 bytes. The tail is zero-padded to a full
/// word; buffer-length ambiguity is impossible because the header's
/// `file_size` field participates in the hash.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let whole = bytes.len() - bytes.len() % 8;
    let hash = fold_words(FNV_OFFSET, &bytes[..whole]);
    let tail = &bytes[whole..];
    if tail.is_empty() {
        return hash;
    }
    let mut padded = [0u8; 8];
    padded[..tail.len()].copy_from_slice(tail);
    fold_words(hash, &padded)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds whole 8-byte little-endian words into a running [`checksum64`].
fn fold_words(mut hash: u64, words: &[u8]) -> u64 {
    debug_assert_eq!(words.len() % 8, 0);
    for word in words.chunks_exact(8) {
        let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        hash = (hash ^ word).wrapping_mul(FNV_PRIME);
    }
    hash
}

fn align_up(value: u64, align: u64) -> u64 {
    value.div_ceil(align) * align
}

/// Checks a CSR offset array: monotone, starting at 0, ending at the
/// element count of the payload it indexes.
fn validate_csr(offsets: &[u8], num_elements: u64, what: &str) -> Result<()> {
    if offsets.len() < 8 {
        return Err(QbsError::Corrupt(format!("{what} offset array is empty")));
    }
    let mut prev = le_u64(offsets, 0);
    if prev != 0 {
        return Err(QbsError::Corrupt(format!(
            "{what} offsets must start at 0, found {prev}"
        )));
    }
    for i in 1..offsets.len() / 8 {
        let next = le_u64(offsets, i * 8);
        if next < prev {
            return Err(QbsError::Corrupt(format!(
                "{what} offsets decrease at position {i}"
            )));
        }
        prev = next;
    }
    if prev != num_elements {
        return Err(QbsError::Corrupt(format!(
            "{what} offsets end at {prev}, but the payload holds {num_elements} elements"
        )));
    }
    Ok(())
}

#[inline]
fn le_u32(bytes: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"))
}

#[inline]
fn le_u64(bytes: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"))
}

#[inline]
fn u32_iter(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QbsConfig;
    use crate::store::QbsIndex;
    use qbs_graph::fixtures::figure4_graph;

    fn index() -> QbsIndex {
        QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
    }

    /// Recomputes the trailing checksum after a test mutated the payload,
    /// so only structural validation can reject the crafted buffer.
    fn reseal(bytes: &mut [u8]) {
        let cs_offset = bytes.len() - 8;
        let recomputed = checksum64(&bytes[..cs_offset]);
        bytes[cs_offset..].copy_from_slice(&recomputed.to_le_bytes());
    }

    #[test]
    fn layout_constants_are_consistent() {
        assert_eq!(SectionKind::ALL.len(), SECTION_COUNT);
        assert_eq!(HEADER_LEN % SECTION_ALIGN, 0);
        assert_eq!(SECTION_RECORD_LEN % SECTION_ALIGN, 0);
        for (slot, kind) in SectionKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, slot + 1, "discriminants are 1-based slots");
            assert!(!kind.name().is_empty());
        }
    }

    /// The bytes a build writes parse back into every component it was
    /// built from: the figure-4 graph and Algorithm 2's labelling.
    #[test]
    fn write_parse_roundtrip_preserves_every_component() {
        let graph = figure4_graph();
        let scheme = crate::labelling::build_sequential(&graph, &[1, 2, 3]);
        let built = index();
        let view = IndexView::parse(ViewBuf::Heap(built.bytes().to_vec())).expect("parse");
        assert_eq!(view.num_vertices(), 15);
        assert_eq!(view.num_landmarks(), 3);
        assert_eq!(view.dist_width(), 4, "figure-4 distances fit four bits");
        assert_eq!(view.section_bytes(SectionKind::Labels).len(), 15 * 2);
        assert_eq!(view.landmarks().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(view.landmark(2), 3);
        assert_eq!(view.num_arcs(), graph.num_arcs());
        assert_eq!(view.num_meta_edges(), 3);
        assert_eq!(view.num_delta_edges(), 4);
        let rows = view.graph_rows();
        for v in graph.vertices() {
            // The non-landmark neighbours, then the landmark ones, each
            // ascending.
            let (sparsified, landmarks): (Vec<VertexId>, Vec<VertexId>) = graph
                .neighbors(v)
                .iter()
                .partition(|w| ![1, 2, 3].contains(*w));
            assert_eq!(rows.sparsified_neighbors(v).collect::<Vec<_>>(), sparsified);
            assert_eq!(rows.landmark_neighbors(v).collect::<Vec<_>>(), landmarks);
            assert_eq!(
                view.graph_neighbors(v).collect::<Vec<_>>(),
                [sparsified, landmarks].concat()
            );
            assert_eq!(rows.degree(v), graph.neighbors(v).len());
            assert_eq!(
                view.label_entries(v).collect::<Vec<_>>(),
                scheme.labelling.entries(v).collect::<Vec<_>>()
            );
            for idx in 0..3 {
                assert_eq!(view.label_distance(v, idx), scheme.labelling.get(v, idx));
            }
        }
        assert_eq!(view.meta_edges().collect::<Vec<_>>(), scheme.meta_edges);
        let delta: Vec<Vec<_>> = (0..3).map(|k| view.delta_edges(k).collect()).collect();
        assert_eq!(
            delta,
            vec![vec![(1, 2)], vec![(1, 4), (3, 4)], vec![(2, 3)]]
        );
    }

    #[test]
    fn sections_are_aligned_and_ordered() {
        let bytes = index().bytes().to_vec();
        let total = bytes.len();
        let view = IndexView::parse(ViewBuf::Heap(bytes)).expect("parse");
        assert_eq!(view.file_len(), total);
        let mut prev_end = (HEADER_LEN + SECTION_COUNT * SECTION_RECORD_LEN) as u64;
        for record in view.sections() {
            assert_eq!(record.offset % SECTION_ALIGN as u64, 0);
            assert!(record.offset >= prev_end);
            prev_end = record.offset + record.len;
        }
        assert_eq!(prev_end, total as u64, "checksum is the final section");
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = index().bytes().to_vec();
        // Flipping any byte must be caught by the checksum (or by header /
        // structural validation for bytes the checksum cannot protect).
        for pos in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                IndexView::parse(ViewBuf::Heap(corrupt)).is_err(),
                "bit flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = index().bytes().to_vec();
        for len in [0, 4, HEADER_LEN - 1, HEADER_LEN, 100, bytes.len() - 1] {
            assert!(
                IndexView::parse(ViewBuf::Heap(bytes[..len].to_vec())).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn unsorted_adjacency_and_duplicate_landmarks_are_rejected() {
        let valid = index().bytes().to_vec();
        let view = IndexView::parse(ViewBuf::Heap(valid.clone())).expect("parse");

        // Swap the first two neighbours of vertex 1 of the figure-4 graph,
        // both non-landmarks (4 and 5): ids stay in range and in their
        // half, the row bounds stay ordered, only the sortedness rule can
        // catch it.
        let base = view.section(SectionKind::GraphNeighbors).offset as usize;
        let lo = le_u32(view.section_bytes(SectionKind::GraphRows), 8) as usize;
        let mut crafted = valid.clone();
        crafted.copy_within(base + lo * 4..base + lo * 4 + 4, base + lo * 4 + 4);
        crafted[base + lo * 4..base + lo * 4 + 4]
            .copy_from_slice(&valid[base + (lo + 1) * 4..base + (lo + 2) * 4]);
        reseal(&mut crafted);
        let err = IndexView::parse(ViewBuf::Heap(crafted)).unwrap_err();
        assert!(err.to_string().contains("not strictly sorted"), "{err}");

        // Duplicate a landmark id: the column map rebuild must never see it.
        let base = view.section(SectionKind::Landmarks).offset as usize;
        let mut crafted = valid.clone();
        crafted.copy_within(base..base + 4, base + 4);
        reseal(&mut crafted);
        let err = IndexView::parse(ViewBuf::Heap(crafted)).unwrap_err();
        assert!(err.to_string().contains("appears twice"), "{err}");
    }

    #[test]
    fn trailing_bytes_after_the_checksum_are_rejected() {
        // Append junk past the checksum, patch file_size and recompute the
        // checksum so only the trailing-bytes rule can catch it.
        let mut bytes = index().bytes().to_vec();
        let cs_offset = bytes.len() - 8;
        bytes.extend_from_slice(&[0xAB; 1024]);
        let new_len = bytes.len() as u64;
        bytes[32..40].copy_from_slice(&new_len.to_le_bytes());
        let recomputed = checksum64(&bytes[..cs_offset]);
        bytes[cs_offset..cs_offset + 8].copy_from_slice(&recomputed.to_le_bytes());
        let err = IndexView::parse(ViewBuf::Heap(bytes)).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    /// A landmark distance too long for the sketch's `i32` lanes passes
    /// the file checks, and the open refuses it with a typed error instead
    /// of saturating the sketch's sums.
    #[test]
    fn a_landmark_distance_past_the_i32_lanes_is_refused_at_open() {
        let built = index();
        let mut bytes = built.bytes().to_vec();
        let apsp = built.view().section(SectionKind::MetaApsp).offset as usize;
        bytes[apsp + 4..apsp + 8].copy_from_slice(&0x4000_0000u32.to_le_bytes());
        reseal(&mut bytes);
        let err = crate::serialize::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                QbsError::MetaDistanceTooLarge {
                    distance: 0x4000_0000
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn crafted_header_with_absurd_counts_is_corrupt_not_panic() {
        // A checksum-valid file whose header claims 2^61 vertices, 2^33 or
        // 2^62 landmarks: the expected section lengths must fail with
        // Corrupt instead of wrapping around (and later aborting in an
        // accessor).
        for (pos, value) in [(16, 1u64 << 61), (24, 1 << 33), (24, 1 << 62)] {
            let mut bytes = index().bytes().to_vec();
            bytes[pos..pos + 8].copy_from_slice(&value.to_le_bytes());
            reseal(&mut bytes);
            let err = IndexView::parse(ViewBuf::Heap(bytes)).unwrap_err();
            assert!(matches!(err, QbsError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn version_and_magic_errors_are_clear() {
        let bytes = index().bytes().to_vec();
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 9;
        let err = IndexView::parse(ViewBuf::Heap(wrong_version)).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");

        let err = IndexView::parse(ViewBuf::Heap(vec![0xAB; 64])).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Every retired layout gets the one rebuild message, whatever
        // follows the magic.
        for (head, version) in [
            (&b"qbs-index-v1\n{}"[..], 1),
            (b"QBSIDX2\0", 2),
            (b"QBSIDX3\0", 3),
            (b"QBSIDX4\0", 4),
            (b"QBSIDX5\0", 5),
        ] {
            assert_eq!(index_version(head), Some(version));
            let mut old = head.to_vec();
            old.resize(256, 0);
            for data in [head.to_vec(), old] {
                let err = IndexView::parse(ViewBuf::Heap(data)).unwrap_err();
                let msg = err.to_string();
                assert!(msg.contains(&format!("v{version}")), "{msg}");
                assert!(msg.contains("rebuild with `qbs build`"), "{msg}");
            }
        }
        assert_eq!(index_version(&bytes), Some(FORMAT_VERSION));
        assert_eq!(index_version(b"garbage!"), None);
        assert_eq!(index_version(b""), None);
    }

    /// Every slot of every width decodes what was stored in it, four-bit
    /// columns `2k` and `2k + 1` sharing byte `k` low nibble first.
    #[test]
    fn slots_roundtrip_at_every_width() {
        for bits in SLOT_BITS {
            let r = 5;
            let mut row = vec![0xFF; label_row_len(r, bits)];
            let values = [Some(0), None, Some(longest_label(bits)), Some(7), None];
            for (column, &d) in values.iter().enumerate() {
                put_slot(&mut row, column, bits, d);
            }
            let slots: Vec<_> = (0..r).map(|c| slot_distance(&row, c, bits)).collect();
            assert_eq!(slots, values);
            let mut unpacked = vec![Some(99); 6];
            unpack_row(&row, bits, &mut unpacked, |d| d);
            let padding = if bits == 4 { None } else { Some(99) };
            assert_eq!(unpacked[..r], values);
            assert_eq!(unpacked[r], padding, "{bits} bits");
            assert_eq!(
                row_entries(&row, r, bits).collect::<Vec<_>>(),
                [(0, 0), (2, longest_label(bits)), (3, 7)]
            );
            if bits == 4 {
                assert_eq!(row, [0xF0, 0x7E, 0xFF]);
            }
        }
        assert_eq!(SLOT_BITS.map(longest_label), [14, 254, 65_534]);
    }

    #[test]
    fn checksum_is_deterministic_and_sensitive() {
        // Empty input hashes to the FNV-1a offset basis.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        // Word-wise FNV-1a: one round per 8-byte LE word.
        let one_word = 0xcbf2_9ce4_8422_2325u64 ^ u64::from_le_bytes(*b"abcdefgh");
        assert_eq!(
            checksum64(b"abcdefgh"),
            one_word.wrapping_mul(0x0000_0100_0000_01b3)
        );
        // The zero-padded tail behaves like the full word with zero bytes.
        assert_eq!(checksum64(b"abc"), checksum64(b"abc\0\0\0\0\0"));
        // Single-bit sensitivity at every position of a small buffer.
        let base = checksum64(b"0123456789abcdef");
        for pos in 0..16 {
            let mut flipped = *b"0123456789abcdef";
            flipped[pos] ^= 1;
            assert_ne!(checksum64(&flipped), base, "flip at byte {pos}");
        }
    }

    #[test]
    fn row_bounds_address_fewer_than_2_pow_32_arcs() {
        assert!(check_num_arcs(0).is_ok());
        assert!(check_num_arcs(u32::MAX as usize).is_ok());
        let err = check_num_arcs(1 << 32).unwrap_err();
        assert!(
            matches!(err, QbsError::GraphTooLarge { num_arcs } if num_arcs == 1 << 32),
            "{err:?}"
        );
    }

    #[test]
    fn inspection_reports_checksum_status_without_refusing_corrupt_files() {
        let bytes = index().bytes().to_vec();
        let report = inspect(ViewBuf::Heap(bytes.clone())).expect("inspect");
        assert!(report.checksum_ok());
        assert_eq!(report.fault, None);
        assert_eq!(report.num_vertices, 15);
        assert_eq!(report.num_landmarks, 3);
        assert_eq!(report.dist_width, 4);
        assert_eq!(report.label_bytes_per_vertex(), 2);
        assert_eq!(report.file_len, bytes.len());
        assert_eq!(report.sections.len(), SECTION_COUNT);
        let total_pct: f64 = report
            .sections
            .iter()
            .map(|s| report.section_percent(s))
            .sum();
        assert!(
            total_pct > 40.0 && total_pct <= 100.0,
            "payload share {total_pct}"
        );

        // Corrupt one payload byte: inspection still works and reports the
        // mismatch instead of erroring out.
        let payload_pos = report.sections[3].offset as usize;
        let mut corrupt = bytes.clone();
        corrupt[payload_pos] ^= 0x20;
        let report = inspect(ViewBuf::Heap(corrupt)).expect("inspect corrupt");
        assert!(!report.checksum_ok());
        assert_ne!(report.stored_checksum, report.computed_checksum);
        let fault = report.fault.expect("a checksum mismatch is a fault");
        assert!(fault.contains("checksum mismatch"), "{fault}");

        // A resealed file with a landmark id ≥ |V| has a matching checksum,
        // and the structural scan every open runs still reports it.
        let landmarks = report.sections[0].offset as usize;
        let mut crafted = bytes.clone();
        crafted[landmarks..landmarks + 4].copy_from_slice(&15u32.to_le_bytes());
        reseal(&mut crafted);
        let report = inspect(ViewBuf::Heap(crafted)).expect("inspect crafted");
        assert!(report.checksum_ok());
        let fault = report.fault.expect("an out-of-range landmark is a fault");
        assert!(fault.contains("landmark id 15 out of range"), "{fault}");

        // Geometry-destroying corruption is still an error.
        assert!(inspect(ViewBuf::Heap(bytes[..10].to_vec())).is_err());
    }

    #[test]
    fn viewbuf_basics() {
        let buf = ViewBuf::Heap(vec![1, 2, 3]);
        assert_eq!(buf.as_slice(), &[1, 2, 3]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        assert!(ViewBuf::Heap(Vec::new()).is_empty());
    }
}
