//! Wire encoding of the serving types — the byte layer under
//! `docs/protocol.md`.
//!
//! The network serving subsystem (`qbs-server`) ships [`QueryRequest`]
//! batches and per-request [`QueryOutcome`]s across TCP. This module gives
//! those types (plus the telemetry snapshot carried by the `Metrics`
//! protocol frame) a stable, compact binary encoding that follows the same
//! conventions as the `qbs-index-v2` on-disk format
//! ([`crate::format`]):
//!
//! * everything is **little-endian**, decoded via `from_le_bytes` so no
//!   alignment is ever assumed;
//! * variable-length sequences carry a `u32` element count, validated
//!   against the bytes actually remaining **before** any allocation, so a
//!   corrupted length can never trigger an out-of-memory abort;
//! * every decode failure is a typed [`WireError`] value — malformed
//!   input must never panic (the protocol robustness suite sweeps
//!   truncations and bit flips over every encoder to enforce this).
//!
//! Encoding is canonical: `decode(encode(x)) == x` bit-for-bit for every
//! in-range value, which is what lets the loopback differential tests
//! compare server answers against local [`crate::session::Qbs::submit`]
//! outcomes with plain `==`.
//!
//! ```
//! use qbs_core::wire::{self, Wire};
//! use qbs_core::request::QueryRequest;
//!
//! let request = QueryRequest::path_graph(6, 11).with_stats();
//! let bytes = wire::to_bytes(&request);
//! assert_eq!(wire::from_bytes::<QueryRequest>(&bytes).unwrap(), request);
//! // Truncation is a typed error, not a panic.
//! assert!(wire::from_bytes::<QueryRequest>(&bytes[..3]).is_err());
//! ```

use std::fmt;

use qbs_graph::{Distance, PathGraph, VertexId};

use crate::obs::{Counter, Fold, HistogramSnapshot, MetricsSnapshot};
use crate::query::QueryAnswer;
use crate::request::{QueryMode, QueryOptions, QueryOutcome, QueryRequest, RequestError};
use crate::search::SearchStats;
use crate::sketch::{Sketch, SketchHop};

/// A typed decode failure. Carries enough structure for protocol layers to
/// map it onto wire error codes without string matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// A top-level decode left unconsumed bytes behind.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// An enum tag / flag byte held a value outside its domain.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        tag: u64,
    },
    /// A payload failed a structural validity check (e.g. non-UTF-8 text).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                what,
                needed,
                remaining,
            } => write!(
                f,
                "truncated {what}: needed {needed} bytes, {remaining} remaining"
            ),
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete value")
            }
            WireError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            WireError::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over a byte buffer with checked little-endian reads.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                what,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a strict boolean byte (`0` or `1`; anything else is a
    /// [`WireError::BadTag`], so single-bit corruption is caught).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                what,
                tag: tag as u64,
            }),
        }
    }

    /// Reads a `u32` sequence length and validates it against the bytes
    /// remaining (`min_elem_bytes` is the smallest possible encoding of one
    /// element), so a corrupted count fails *here* instead of driving a
    /// gigantic allocation.
    pub fn seq_len(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        let needed = n.saturating_mul(min_elem_bytes.max(1));
        if needed > self.remaining() {
            return Err(WireError::Truncated {
                what,
                needed,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Fails with [`WireError::Trailing`] unless the buffer was fully
    /// consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                extra: self.remaining(),
            })
        }
    }
}

/// A type with a canonical little-endian wire encoding.
pub trait Wire: Sized {
    /// Smallest possible encoding of one value, in bytes. Sequence
    /// decoders validate their element count against
    /// `count * MIN_ENCODED_LEN <= remaining`, which caps the allocation
    /// amplification of a corrupted count at the (small) in-memory/encoded
    /// size ratio instead of letting a 4-byte count drive an arbitrary
    /// `Vec::with_capacity`.
    const MIN_ENCODED_LEN: usize = 1;

    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes exactly one value from `bytes`, rejecting trailing garbage.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

impl Wire for QueryMode {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            QueryMode::Distance => 0,
            QueryMode::PathGraph => 1,
            QueryMode::Sketch => 2,
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("query mode")? {
            0 => Ok(QueryMode::Distance),
            1 => Ok(QueryMode::PathGraph),
            2 => Ok(QueryMode::Sketch),
            tag => Err(WireError::BadTag {
                what: "query mode",
                tag: tag as u64,
            }),
        }
    }
}

const OPT_COLLECT_STATS: u8 = 1 << 0;
const OPT_USE_CACHE: u8 = 1 << 1;

impl Wire for QueryOptions {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut flags = 0u8;
        if self.collect_stats {
            flags |= OPT_COLLECT_STATS;
        }
        if self.use_cache {
            flags |= OPT_USE_CACHE;
        }
        out.push(flags);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let flags = r.u8("query options")?;
        if flags & !(OPT_COLLECT_STATS | OPT_USE_CACHE) != 0 {
            return Err(WireError::BadTag {
                what: "query options",
                tag: flags as u64,
            });
        }
        Ok(QueryOptions {
            collect_stats: flags & OPT_COLLECT_STATS != 0,
            use_cache: flags & OPT_USE_CACHE != 0,
        })
    }
}

impl Wire for QueryRequest {
    // source u32 + target u32 + mode u8 + opts u8.
    const MIN_ENCODED_LEN: usize = 10;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.source.to_le_bytes());
        out.extend_from_slice(&self.target.to_le_bytes());
        self.mode.encode(out);
        self.opts.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(QueryRequest {
            source: r.u32("request source")?,
            target: r.u32("request target")?,
            mode: QueryMode::decode(r)?,
            opts: QueryOptions::decode(r)?,
        })
    }
}

impl Wire for RequestError {
    // tag u8 + the smallest variant payload (`Unavailable` with an empty
    // reason: a 4-byte string length).
    const MIN_ENCODED_LEN: usize = 5;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RequestError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                out.push(0);
                out.extend_from_slice(&vertex.to_le_bytes());
                out.extend_from_slice(&num_vertices.to_le_bytes());
            }
            RequestError::Unavailable { reason } => {
                out.push(1);
                reason.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("request error")? {
            0 => Ok(RequestError::VertexOutOfRange {
                vertex: r.u64("out-of-range vertex")?,
                num_vertices: r.u64("vertex count")?,
            }),
            1 => Ok(RequestError::Unavailable {
                reason: String::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "request error",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for PathGraph {
    // source + target + distance + edge count, all u32.
    const MIN_ENCODED_LEN: usize = 16;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.source().to_le_bytes());
        out.extend_from_slice(&self.target().to_le_bytes());
        out.extend_from_slice(&self.distance().to_le_bytes());
        out.extend_from_slice(&(self.edges().len() as u32).to_le_bytes());
        for &(a, b) in self.edges() {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let source = r.u32("path-graph source")?;
        let target = r.u32("path-graph target")?;
        let distance: Distance = r.u32("path-graph distance")?;
        let n = r.seq_len("path-graph edge list", 8)?;
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(n);
        for _ in 0..n {
            edges.push((r.u32("path-graph edge")?, r.u32("path-graph edge")?));
        }
        // `from_edges` re-canonicalises; canonical input (which is what the
        // encoder emits — `edges()` is sorted and deduplicated) survives
        // unchanged, so encode∘decode is the identity.
        Ok(PathGraph::from_edges(source, target, distance, edges))
    }
}

impl Wire for SketchHop {
    const MIN_ENCODED_LEN: usize = 8;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.landmark_idx as u32).to_le_bytes());
        out.extend_from_slice(&self.distance.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SketchHop {
            landmark_idx: r.u32("sketch hop landmark")? as usize,
            distance: r.u32("sketch hop distance")?,
        })
    }
}

impl Wire for Sketch {
    // endpoints + d⊤ + three sequence counts, all u32.
    const MIN_ENCODED_LEN: usize = 24;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.source.to_le_bytes());
        out.extend_from_slice(&self.target.to_le_bytes());
        out.extend_from_slice(&self.upper_bound.to_le_bytes());
        self.source_hops.encode(out);
        self.target_hops.encode(out);
        out.extend_from_slice(&(self.meta_edges.len() as u32).to_le_bytes());
        for &(i, j, d) in &self.meta_edges {
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&(j as u32).to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let source = r.u32("sketch source")?;
        let target = r.u32("sketch target")?;
        let upper_bound = r.u32("sketch upper bound")?;
        let source_hops = Vec::<SketchHop>::decode(r)?;
        let target_hops = Vec::<SketchHop>::decode(r)?;
        let n = r.seq_len("sketch meta edges", 12)?;
        let mut meta_edges = Vec::with_capacity(n);
        for _ in 0..n {
            meta_edges.push((
                r.u32("meta edge endpoint")? as usize,
                r.u32("meta edge endpoint")? as usize,
                r.u32("meta edge weight")?,
            ));
        }
        Ok(Sketch {
            source,
            target,
            upper_bound,
            source_hops,
            target_hops,
            meta_edges,
        })
    }
}

const STATS_USED_REVERSE: u8 = 1 << 0;
const STATS_USED_RECOVER: u8 = 1 << 1;

impl Wire for SearchStats {
    // three u32 + four u64 + flag byte.
    const MIN_ENCODED_LEN: usize = 45;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.upper_bound.to_le_bytes());
        out.extend_from_slice(&self.sparsified_distance.to_le_bytes());
        out.extend_from_slice(&self.distance.to_le_bytes());
        out.extend_from_slice(&(self.edges_traversed as u64).to_le_bytes());
        out.extend_from_slice(&(self.vertices_settled as u64).to_le_bytes());
        out.extend_from_slice(&(self.forward_levels as u64).to_le_bytes());
        out.extend_from_slice(&(self.backward_levels as u64).to_le_bytes());
        let mut flags = 0u8;
        if self.used_reverse_search {
            flags |= STATS_USED_REVERSE;
        }
        if self.used_recover_search {
            flags |= STATS_USED_RECOVER;
        }
        out.push(flags);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let upper_bound = r.u32("search upper bound")?;
        let sparsified_distance = r.u32("sparsified distance")?;
        let distance = r.u32("search distance")?;
        let edges_traversed = r.u64("edges traversed")? as usize;
        let vertices_settled = r.u64("vertices settled")? as usize;
        let forward_levels = r.u64("forward levels")? as usize;
        let backward_levels = r.u64("backward levels")? as usize;
        let flags = r.u8("search flags")?;
        if flags & !(STATS_USED_REVERSE | STATS_USED_RECOVER) != 0 {
            return Err(WireError::BadTag {
                what: "search flags",
                tag: flags as u64,
            });
        }
        Ok(SearchStats {
            upper_bound,
            sparsified_distance,
            distance,
            edges_traversed,
            vertices_settled,
            forward_levels,
            backward_levels,
            used_reverse_search: flags & STATS_USED_REVERSE != 0,
            used_recover_search: flags & STATS_USED_RECOVER != 0,
        })
    }
}

impl Wire for QueryAnswer {
    const MIN_ENCODED_LEN: usize =
        PathGraph::MIN_ENCODED_LEN + Sketch::MIN_ENCODED_LEN + SearchStats::MIN_ENCODED_LEN;

    fn encode(&self, out: &mut Vec<u8>) {
        self.path_graph.encode(out);
        self.sketch.encode(out);
        self.stats.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(QueryAnswer {
            path_graph: PathGraph::decode(r)?,
            sketch: Sketch::decode(r)?,
            stats: SearchStats::decode(r)?,
        })
    }
}

impl Wire for QueryOutcome {
    // tag byte + the smallest variant payload (a u32 distance).
    const MIN_ENCODED_LEN: usize = 5;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            QueryOutcome::Distance(d) => {
                out.push(0);
                out.extend_from_slice(&d.to_le_bytes());
            }
            QueryOutcome::PathGraph(pg) => {
                out.push(1);
                pg.encode(out);
            }
            QueryOutcome::PathGraphWithStats(ans) => {
                out.push(2);
                ans.encode(out);
            }
            QueryOutcome::Sketch(s) => {
                out.push(3);
                s.encode(out);
            }
            QueryOutcome::Error(e) => {
                out.push(4);
                e.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("query outcome")? {
            0 => Ok(QueryOutcome::Distance(r.u32("outcome distance")?)),
            1 => Ok(QueryOutcome::PathGraph(Box::new(PathGraph::decode(r)?))),
            2 => Ok(QueryOutcome::PathGraphWithStats(Box::new(
                QueryAnswer::decode(r)?,
            ))),
            3 => Ok(QueryOutcome::Sketch(Box::new(Sketch::decode(r)?))),
            4 => Ok(QueryOutcome::Error(RequestError::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "query outcome",
                tag: tag as u64,
            }),
        }
    }
}

/// Walks one encoded [`QueryRequest`] without building it: the endpoint
/// bytes are skipped, the mode and option bytes checked exactly as the
/// decoder checks them.
pub fn skip_request(r: &mut WireReader<'_>) -> Result<(), WireError> {
    r.take(8, "request endpoints")?;
    QueryMode::decode(r)?;
    QueryOptions::decode(r).map(drop)
}

/// Walks one encoded [`QueryOutcome`] without building it: every tag,
/// flag byte, sequence count and UTF-8 string the decoder checks, and no
/// allocation. It succeeds exactly when [`QueryOutcome::decode`] would and
/// leaves the reader where the decoder would, which is what lets a router
/// splice a replica's outcome bytes into its own reply unread.
pub fn skip_outcome(r: &mut WireReader<'_>) -> Result<(), WireError> {
    match r.u8("query outcome")? {
        0 => r.take(4, "outcome distance").map(drop),
        1 => skip_path_graph(r),
        2 => {
            skip_path_graph(r)?;
            skip_sketch(r)?;
            r.take(SearchStats::MIN_ENCODED_LEN - 1, "search stats")?;
            let flags = r.u8("search flags")?;
            if flags & !(STATS_USED_REVERSE | STATS_USED_RECOVER) != 0 {
                return Err(WireError::BadTag {
                    what: "search flags",
                    tag: flags as u64,
                });
            }
            Ok(())
        }
        3 => skip_sketch(r),
        4 => match r.u8("request error")? {
            0 => r.take(16, "out-of-range vertex").map(drop),
            1 => {
                let n = r.seq_len("string", 1)?;
                std::str::from_utf8(r.take(n, "string bytes")?)
                    .map(drop)
                    .map_err(|_| WireError::Invalid("utf-8 string"))
            }
            tag => Err(WireError::BadTag {
                what: "request error",
                tag: tag as u64,
            }),
        },
        tag => Err(WireError::BadTag {
            what: "query outcome",
            tag: tag as u64,
        }),
    }
}

/// Skips a `u32`-counted sequence of fixed-size elements.
fn skip_seq(r: &mut WireReader<'_>, what: &'static str, elem: usize) -> Result<(), WireError> {
    let n = r.seq_len(what, elem)?;
    r.take(n * elem, what).map(drop)
}

fn skip_path_graph(r: &mut WireReader<'_>) -> Result<(), WireError> {
    r.take(12, "path-graph header")?;
    skip_seq(r, "path-graph edge list", 8)
}

fn skip_sketch(r: &mut WireReader<'_>) -> Result<(), WireError> {
    r.take(12, "sketch header")?;
    skip_seq(r, "sequence", SketchHop::MIN_ENCODED_LEN)?;
    skip_seq(r, "sequence", SketchHop::MIN_ENCODED_LEN)?;
    skip_seq(r, "sketch meta edges", 12)
}

impl Wire for u64 {
    const MIN_ENCODED_LEN: usize = 8;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64("u64 scalar")
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_ENCODED_LEN: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // The count is validated against the element type's minimum
        // encoded size before the vector is allocated.
        let n = r.seq_len("sequence", T::MIN_ENCODED_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.bool("option presence")? {
            false => Ok(None),
            true => Ok(Some(T::decode(r)?)),
        }
    }
}

impl Wire for String {
    const MIN_ENCODED_LEN: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len("string", 1)?;
        let bytes = r.take(n, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("utf-8 string"))
    }
}

impl Wire for HistogramSnapshot {
    // four u64 scalars + bucket sequence length u32.
    const MIN_ENCODED_LEN: usize = 4 * 8 + 4;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.min.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        self.buckets.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(HistogramSnapshot {
            count: r.u64("histogram count")?,
            sum: r.u64("histogram sum")?,
            min: r.u64("histogram min")?,
            max: r.u64("histogram max")?,
            buckets: Vec::<u64>::decode(r)?,
        })
    }
}

impl Wire for Fold {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("counter fold")? {
            0 => Ok(Fold::Sum),
            1 => Ok(Fold::Max),
            2 => Ok(Fold::Local),
            tag => Err(WireError::BadTag {
                what: "counter fold",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for Counter {
    // name length u32 + fold u8 + value u64.
    const MIN_ENCODED_LEN: usize = 4 + 1 + 8;

    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.fold.encode(out);
        out.extend_from_slice(&self.value.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let name = String::decode(r)?;
        // Names go verbatim into the text expositions: printable ASCII only.
        if !name.bytes().all(|b| (0x20..0x7F).contains(&b)) {
            return Err(WireError::Invalid("counter name"));
        }
        Ok(Counter {
            name,
            fold: Fold::decode(r)?,
            value: r.u64("counter value")?,
        })
    }
}

impl Wire for MetricsSnapshot {
    // histogram and counter sequence lengths, u32 each.
    const MIN_ENCODED_LEN: usize = 4 + 4;

    fn encode(&self, out: &mut Vec<u8>) {
        self.hists.encode(out);
        self.counters.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(MetricsSnapshot {
            hists: Vec::<HistogramSnapshot>::decode(r)?,
            counters: Vec::<Counter>::decode(r)?,
        })
    }
}

/// A per-connection request identifier, carried in the protocol frame
/// envelope (`[len][id][trace][tag][payload]`) so responses can complete
/// out of order. IDs are scoped to one connection and assigned by the client;
/// the server echoes them verbatim. [`RequestId::CONNECTION`] (zero) is
/// reserved for connection-scoped frames — faults that poison the whole
/// stream rather than one request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u32);

impl RequestId {
    /// The reserved connection-scoped ID (never assigned to a request).
    pub const CONNECTION: RequestId = RequestId(0);

    /// Whether this is the reserved connection-scoped ID.
    pub fn is_connection_scoped(self) -> bool {
        self == RequestId::CONNECTION
    }

    /// The next ID a client should assign after this one — wraps past
    /// `u32::MAX` but never lands on the reserved zero.
    pub fn next(self) -> RequestId {
        match self.0.wrapping_add(1) {
            0 => RequestId(1),
            n => RequestId(n),
        }
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl Wire for RequestId {
    const MIN_ENCODED_LEN: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RequestId(r.u32("request id")?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::QueryWorkspace;
    use crate::{QbsConfig, QbsIndex};
    use qbs_graph::fixtures::figure4_graph;

    fn index() -> QbsIndex {
        QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
    }

    /// Every real outcome the figure-4 index can produce round-trips
    /// bit-identically through the wire encoding.
    #[test]
    fn outcomes_roundtrip_bit_identically() {
        let index = index();
        let mut ws = QueryWorkspace::new();
        for u in 0..15u32 {
            for v in 0..15u32 {
                for mode in QueryMode::ALL {
                    for req in [
                        QueryRequest::new(u, v, mode),
                        QueryRequest::new(u, v, mode).with_stats().uncached(),
                    ] {
                        assert_eq!(from_bytes::<QueryRequest>(&to_bytes(&req)).unwrap(), req);
                        let outcome = index.execute_with(&mut ws, &req, None);
                        let decoded = from_bytes::<QueryOutcome>(&to_bytes(&outcome)).unwrap();
                        assert_eq!(decoded, outcome, "({u},{v}) {mode}");
                    }
                }
            }
        }
    }

    /// The splice walks accept exactly what the decoders accept, and stop
    /// where they stop, under every truncation and single-bit flip.
    #[test]
    fn skips_agree_with_decode_under_corruption() {
        let index = index();
        let mut ws = QueryWorkspace::new();
        let mut outcomes: Vec<QueryOutcome> = [(6, 11), (4, 12), (0, 0), (0, 14)]
            .iter()
            .flat_map(|&(u, v)| {
                QueryMode::ALL.map(|mode| QueryRequest::new(u, v, mode).with_stats())
            })
            .chain([
                QueryRequest::path_graph(7, 9),
                QueryRequest::distance(0, 99),
            ])
            .map(|req| index.execute_with(&mut ws, &req, None))
            .collect();
        outcomes.push(QueryOutcome::Error(RequestError::Unavailable {
            reason: "down ⊤".to_string(),
        }));
        let agree = |bytes: &[u8], what: &str| {
            let mut walk = WireReader::new(bytes);
            let walked = skip_outcome(&mut walk).map(|()| walk.remaining());
            let mut dec = WireReader::new(bytes);
            let decoded = QueryOutcome::decode(&mut dec).map(|_| dec.remaining());
            assert_eq!(walked.is_ok(), decoded.is_ok(), "{what}");
            if let (Ok(a), Ok(b)) = (walked, decoded) {
                assert_eq!(a, b, "{what}: the walk stopped elsewhere");
            }
        };
        for outcome in &outcomes {
            let bytes = to_bytes(outcome);
            for cut in 0..=bytes.len() {
                agree(&bytes[..cut], &format!("{outcome:?} cut at {cut}"));
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                agree(&flipped, &format!("{outcome:?} bit {bit}"));
            }
        }
        let request = to_bytes(&QueryRequest::sketch(3, 4).with_stats().uncached());
        for bit in 0..request.len() * 8 {
            let mut flipped = request.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                skip_request(&mut WireReader::new(&flipped)).is_ok(),
                from_bytes::<QueryRequest>(&flipped).is_ok(),
                "request bit {bit}"
            );
        }
    }

    #[test]
    fn error_outcomes_roundtrip() {
        let outcome = QueryOutcome::Error(RequestError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 15,
        });
        assert_eq!(
            from_bytes::<QueryOutcome>(&to_bytes(&outcome)).unwrap(),
            outcome
        );
        let unavailable = QueryOutcome::Error(RequestError::Unavailable {
            reason: "replica 127.0.0.1:7411: connection refused".to_string(),
        });
        assert_eq!(
            from_bytes::<QueryOutcome>(&to_bytes(&unavailable)).unwrap(),
            unavailable
        );
    }

    #[test]
    fn vec_and_string_roundtrip() {
        let batch = vec![
            QueryRequest::distance(1, 2),
            QueryRequest::sketch(3, 4).uncached(),
        ];
        assert_eq!(
            from_bytes::<Vec<QueryRequest>>(&to_bytes(&batch)).unwrap(),
            batch
        );
        let text = "γράφος".to_string();
        assert_eq!(from_bytes::<String>(&to_bytes(&text)).unwrap(), text);
        assert_eq!(
            from_bytes::<String>(&to_bytes(&String::new())).unwrap(),
            String::new()
        );
    }

    /// Every truncation of every encoding decodes to a typed error —
    /// never a panic, never a bogus success.
    #[test]
    fn truncations_yield_typed_errors() {
        let index = index();
        let mut ws = QueryWorkspace::new();
        let request = QueryRequest::path_graph(6, 11).with_stats();
        let outcome = index.execute_with(&mut ws, &request, None);
        let bytes = to_bytes(&outcome);
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<QueryOutcome>(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Trailing garbage after a full value is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            from_bytes::<QueryOutcome>(&padded),
            Err(WireError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn min_encoded_lens_are_sound_lower_bounds() {
        use qbs_graph::PathGraph;
        assert_eq!(
            to_bytes(&QueryRequest::distance(0, 0)).len(),
            QueryRequest::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&PathGraph::trivial(0)).len(),
            PathGraph::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&Sketch::unreachable(0, 0)).len(),
            Sketch::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&SearchStats::default()).len(),
            SearchStats::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&QueryOutcome::Distance(0)).len(),
            QueryOutcome::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&RequestError::Unavailable {
                reason: String::new()
            })
            .len(),
            RequestError::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&HistogramSnapshot::default()).len(),
            HistogramSnapshot::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&MetricsSnapshot::default()).len(),
            MetricsSnapshot::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&Counter {
                name: String::new(),
                fold: Fold::Sum,
                value: 0
            })
            .len(),
            Counter::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&SketchHop {
                landmark_idx: 0,
                distance: 0
            })
            .len(),
            SketchHop::MIN_ENCODED_LEN
        );

        // A hostile count inside a large (64 MiB) buffer is rejected by
        // the per-element bound before the vector is allocated: 60M
        // claimed requests × 10 bytes minimum ≫ the bytes present.
        let mut hostile = 60_000_000u32.to_le_bytes().to_vec();
        hostile.resize(64 << 20, 0);
        assert!(matches!(
            from_bytes::<Vec<QueryRequest>>(&hostile),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_lengths_cannot_allocate() {
        // A sequence claiming u32::MAX elements fails on the remaining-byte
        // check before any allocation happens.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = from_bytes::<Vec<QueryRequest>>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err}");
    }

    #[test]
    fn bad_tags_are_typed() {
        assert!(matches!(
            from_bytes::<QueryMode>(&[9]),
            Err(WireError::BadTag {
                what: "query mode",
                tag: 9
            })
        ));
        assert!(matches!(
            from_bytes::<QueryOptions>(&[0xF0]),
            Err(WireError::BadTag { .. })
        ));
        let mut bad_utf8 = 1u32.to_le_bytes().to_vec();
        bad_utf8.push(0xFF);
        assert_eq!(
            from_bytes::<String>(&bad_utf8),
            Err(WireError::Invalid("utf-8 string"))
        );
        let err = WireError::Truncated {
            what: "x",
            needed: 4,
            remaining: 1,
        };
        assert!(err.to_string().contains("truncated"));
        assert!(WireError::Invalid("utf-8 string")
            .to_string()
            .contains("utf-8"));
    }

    /// A router's counters — routing totals plus replica-labelled series —
    /// survive the wire, every truncation fails, and the decoded value
    /// renders the same per-replica lines.
    #[test]
    fn router_stats_roundtrip_and_reject_truncation() {
        use crate::counter::*;
        let mut stats = MetricsSnapshot::default();
        for (def, value) in [
            (ROUTED_BATCHES, 100),
            (SUBBATCHES, 260),
            (ROUTER_RETRIES, 3),
            (UNAVAILABLE_SLOTS, 2),
        ] {
            stats.push(def, value);
        }
        for (addr, replica) in [
            ("127.0.0.1:7411", [1, 4000, 130, 0, 0, 64, 0, 0]),
            ("127.0.0.1:7412", [0, 3800, 127, 3, 1, 0, 5, 5]),
        ] {
            let defs = [
                REPLICA_HEALTHY,
                REPLICA_REQUESTS,
                REPLICA_BATCHES,
                REPLICA_RETRIES,
                REPLICA_EJECTIONS,
                REPLICA_IN_FLIGHT,
                REPLICA_CONSECUTIVE_FAILURES,
                REPLICA_FAILURES,
            ];
            for (def, value) in defs.into_iter().zip(replica) {
                stats.push_replica(def, addr, value);
            }
        }
        let bytes = to_bytes(&stats);
        let decoded = from_bytes::<MetricsSnapshot>(&bytes).unwrap();
        assert_eq!(decoded, stats);
        assert_eq!(decoded.replicas(), ["127.0.0.1:7411", "127.0.0.1:7412"]);
        assert_eq!(decoded.replica(REPLICA_FAILURES, "127.0.0.1:7412"), Some(5));
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<MetricsSnapshot>(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let rendered = decoded.render_text();
        assert!(rendered.contains("127.0.0.1:7412"));
        assert!(rendered.contains("ejected"));
        assert!(rendered.contains("healthy"));
        assert!(
            rendered.contains("1 ejections, 2 unavailable slots"),
            "{rendered}"
        );
        // Derived per-replica error rate: 5 failures over 127 + 5 attempts.
        assert!(rendered.contains("3.8% errors"), "{rendered}");
        assert!(rendered.contains("0.0% errors"), "{rendered}");
    }

    #[test]
    fn metrics_snapshot_roundtrip_and_corruption_sweeps() {
        use crate::obs::{LatencyHistogram, Metrics};
        let m = Metrics::new();
        let h = LatencyHistogram::new();
        for ns in [90, 1_500, 22_000, 1_000_000, 40_000_000] {
            h.record_ns(ns);
        }
        let mut snap = m.snapshot();
        snap.hists[0] = h.snapshot();
        snap.push(crate::counter::VERTICES, 1 << 20);
        snap.push_replica(crate::counter::REPLICA_FAILURES, "127.0.0.1:7411", 5);
        let bytes = to_bytes(&snap);
        assert_eq!(from_bytes::<MetricsSnapshot>(&bytes).unwrap(), snap);

        // Every truncation is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<MetricsSnapshot>(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Every single-bit flip either decodes to some value or fails with
        // a typed error — corrupted counters must never panic or abort.
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                let _ = from_bytes::<MetricsSnapshot>(&flipped);
            }
        }
        // Hostile histogram and counter counts are bounded by the
        // remaining bytes before any allocation happens.
        for hostile in [
            u32::MAX.to_le_bytes().to_vec(),
            [0u32.to_le_bytes(), u32::MAX.to_le_bytes()].concat(),
        ] {
            assert!(matches!(
                from_bytes::<MetricsSnapshot>(&hostile),
                Err(WireError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn request_ids_roundtrip_and_skip_the_reserved_zero() {
        for id in [RequestId(1), RequestId(7), RequestId(u32::MAX)] {
            assert_eq!(from_bytes::<RequestId>(&to_bytes(&id)).unwrap(), id);
        }
        assert_eq!(to_bytes(&RequestId(5)), 5u32.to_le_bytes());
        assert!(RequestId::CONNECTION.is_connection_scoped());
        assert!(!RequestId(1).is_connection_scoped());
        assert_eq!(RequestId(1).next(), RequestId(2));
        // Wrapping past u32::MAX never produces the reserved zero.
        assert_eq!(RequestId(u32::MAX).next(), RequestId(1));
        assert_eq!(RequestId(3).to_string(), "#3");
        assert!(matches!(
            from_bytes::<RequestId>(&[0, 0]),
            Err(WireError::Truncated { .. })
        ));
    }
}
