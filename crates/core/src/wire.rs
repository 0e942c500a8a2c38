//! Wire encoding of the serving types — the byte layer under
//! `docs/protocol.md`.
//!
//! The network serving subsystem (`qbs-server`) ships [`QueryRequest`]
//! batches and per-request [`QueryOutcome`]s across TCP. This module gives
//! those types (plus the stats snapshots carried by the `Stats` protocol
//! frame) a stable, compact binary encoding that follows the same
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

use crate::cache::CacheStats;
use crate::obs::{HistogramSnapshot, MetricsSnapshot};
use crate::query::QueryAnswer;
use crate::request::{QueryMode, QueryOptions, QueryOutcome, QueryRequest, RequestError};
use crate::search::SearchStats;
use crate::session::EngineStats;
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

impl Wire for CacheStats {
    const MIN_ENCODED_LEN: usize = 48;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.hits.to_le_bytes());
        out.extend_from_slice(&self.misses.to_le_bytes());
        out.extend_from_slice(&self.insertions.to_le_bytes());
        out.extend_from_slice(&self.rejected.to_le_bytes());
        out.extend_from_slice(&self.evictions.to_le_bytes());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CacheStats {
            hits: r.u64("cache hits")?,
            misses: r.u64("cache misses")?,
            insertions: r.u64("cache insertions")?,
            rejected: r.u64("cache rejections")?,
            evictions: r.u64("cache evictions")?,
            len: r.u64("cache length")? as usize,
        })
    }
}

impl Wire for EngineStats {
    // seven u64 counters + cache presence byte.
    const MIN_ENCODED_LEN: usize = 57;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.num_vertices.to_le_bytes());
        out.extend_from_slice(&self.num_landmarks.to_le_bytes());
        out.extend_from_slice(&self.threads.to_le_bytes());
        out.extend_from_slice(&self.requests.to_le_bytes());
        out.extend_from_slice(&self.batches.to_le_bytes());
        out.extend_from_slice(&self.errors.to_le_bytes());
        out.extend_from_slice(&self.planner.dedup_hits.to_le_bytes());
        self.cache.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(EngineStats {
            num_vertices: r.u64("engine vertices")?,
            num_landmarks: r.u64("engine landmarks")?,
            threads: r.u64("engine threads")?,
            requests: r.u64("engine requests")?,
            batches: r.u64("engine batches")?,
            errors: r.u64("engine errors")?,
            planner: crate::plan::PlannerStats {
                dedup_hits: r.u64("planner dedup hits")?,
            },
            cache: Option::<CacheStats>::decode(r)?,
        })
    }
}

/// Per-replica counters of the scatter/gather routing tier, one entry per
/// configured backend replica. Rides inside [`RouterStats`] on the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// The replica's dial address (`host:port`).
    pub addr: String,
    /// Whether the health subsystem currently considers the replica
    /// servable (not ejected).
    pub healthy: bool,
    /// Requests routed to this replica (admitted sub-batches only).
    pub requests: u64,
    /// Sub-batches routed to this replica.
    pub batches: u64,
    /// Sub-batches re-routed *away* after this replica failed or shed.
    pub retries: u64,
    /// Times the health subsystem ejected this replica.
    pub ejections: u64,
    /// Requests currently in flight on this replica (gauge).
    pub in_flight: u64,
    /// Consecutive probe/serve failures since the last success.
    pub consecutive_failures: u64,
    /// Cumulative failed serve/probe attempts over the replica's lifetime
    /// (unlike `consecutive_failures`, never reset by a success).
    pub failures: u64,
}

impl ReplicaStats {
    /// Failed attempts as a percentage of all serve attempts (successful
    /// sub-batches plus failures). `0.0` when the replica is untried.
    pub fn error_rate(&self) -> f64 {
        let attempts = self.batches + self.failures;
        if attempts == 0 {
            0.0
        } else {
            self.failures as f64 * 100.0 / attempts as f64
        }
    }
}

impl Wire for ReplicaStats {
    // addr length u32 + healthy bool + seven u64 counters.
    const MIN_ENCODED_LEN: usize = 4 + 1 + 7 * 8;

    fn encode(&self, out: &mut Vec<u8>) {
        self.addr.encode(out);
        out.push(self.healthy as u8);
        out.extend_from_slice(&self.requests.to_le_bytes());
        out.extend_from_slice(&self.batches.to_le_bytes());
        out.extend_from_slice(&self.retries.to_le_bytes());
        out.extend_from_slice(&self.ejections.to_le_bytes());
        out.extend_from_slice(&self.in_flight.to_le_bytes());
        out.extend_from_slice(&self.consecutive_failures.to_le_bytes());
        out.extend_from_slice(&self.failures.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ReplicaStats {
            addr: String::decode(r)?,
            healthy: r.bool("replica health")?,
            requests: r.u64("replica requests")?,
            batches: r.u64("replica batches")?,
            retries: r.u64("replica retries")?,
            ejections: r.u64("replica ejections")?,
            in_flight: r.u64("replica in-flight")?,
            consecutive_failures: r.u64("replica failures")?,
            failures: r.u64("replica lifetime failures")?,
        })
    }
}

/// Counters of the scatter/gather routing tier (`qbs route`), carried in
/// the `Stats` response alongside the merged per-replica engine counters
/// so `qbs client --stats` shows the whole serving tier at once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Client batches the router accepted and scattered.
    pub batches_routed: u64,
    /// Sub-batches produced by splitting (≥ `batches_routed`).
    pub subbatches: u64,
    /// Sub-batches retried on a different replica after a failure or a
    /// typed `Busy`.
    pub retries: u64,
    /// Health ejections across all replicas.
    pub ejections: u64,
    /// Request slots answered `RequestError::Unavailable` because every
    /// offered replica failed.
    pub unavailable_slots: u64,
    /// Per-replica breakdown, in configuration order.
    pub replicas: Vec<ReplicaStats>,
}

impl Wire for RouterStats {
    // five u64 counters + replica sequence length u32.
    const MIN_ENCODED_LEN: usize = 5 * 8 + 4;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.batches_routed.to_le_bytes());
        out.extend_from_slice(&self.subbatches.to_le_bytes());
        out.extend_from_slice(&self.retries.to_le_bytes());
        out.extend_from_slice(&self.ejections.to_le_bytes());
        out.extend_from_slice(&self.unavailable_slots.to_le_bytes());
        self.replicas.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RouterStats {
            batches_routed: r.u64("routed batches")?,
            subbatches: r.u64("routed sub-batches")?,
            retries: r.u64("router retries")?,
            ejections: r.u64("router ejections")?,
            unavailable_slots: r.u64("unavailable slots")?,
            replicas: Vec::<ReplicaStats>::decode(r)?,
        })
    }
}

impl std::fmt::Display for RouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "router: {} batches scattered into {} sub-batches, {} retries, {} ejections, \
             {} unavailable slots",
            self.batches_routed,
            self.subbatches,
            self.retries,
            self.ejections,
            self.unavailable_slots
        )?;
        for r in &self.replicas {
            writeln!(
                f,
                "  replica {}: {} — {} requests in {} batches, {} retried away, \
                 {} ejections, {} in flight, {:.1}% errors",
                r.addr,
                if r.healthy { "healthy" } else { "ejected" },
                r.requests,
                r.batches,
                r.retries,
                r.ejections,
                r.in_flight,
                r.error_rate()
            )?;
        }
        Ok(())
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

impl Wire for MetricsSnapshot {
    // slow-query + job-panic counters + histogram sequence length u32.
    const MIN_ENCODED_LEN: usize = 8 + 8 + 4;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.slow_queries.to_le_bytes());
        out.extend_from_slice(&self.job_panics.to_le_bytes());
        self.hists.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(MetricsSnapshot {
            slow_queries: r.u64("slow query count")?,
            job_panics: r.u64("job panic count")?,
            hists: Vec::<HistogramSnapshot>::decode(r)?,
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
    use crate::request::execute_on;
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
                        let outcome = execute_on(&index, &mut ws, &req);
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
            .map(|req| execute_on(&index, &mut ws, &req))
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
    fn error_outcomes_and_stats_roundtrip() {
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

        let cache = CacheStats {
            hits: 10,
            misses: 3,
            insertions: 5,
            rejected: 2,
            evictions: 1,
            len: 4,
        };
        assert_eq!(from_bytes::<CacheStats>(&to_bytes(&cache)).unwrap(), cache);

        let engine = EngineStats {
            num_vertices: 15,
            num_landmarks: 3,
            threads: 4,
            requests: 100,
            batches: 7,
            errors: 1,
            planner: crate::plan::PlannerStats { dedup_hits: 12 },
            cache: Some(cache),
        };
        assert_eq!(
            from_bytes::<EngineStats>(&to_bytes(&engine)).unwrap(),
            engine
        );
        let uncached = EngineStats {
            cache: None,
            ..engine
        };
        assert_eq!(
            from_bytes::<EngineStats>(&to_bytes(&uncached)).unwrap(),
            uncached
        );

        // The pre-dedupe-only layout carried two more planner counters
        // after `dedup_hits`. A payload of that length must fail typed,
        // whatever the dropped counters held (their first byte lands on
        // the cache presence flag: absent, present, invalid).
        const PLANNER_END: usize = 3 * 8 + 4 * 8;
        for stats in [engine, uncached] {
            for first_dropped in [0u64, 1, 34] {
                let mut old = to_bytes(&stats);
                let dropped = [first_dropped.to_le_bytes(), 56u64.to_le_bytes()].concat();
                old.splice(PLANNER_END..PLANNER_END, dropped);
                assert!(
                    from_bytes::<EngineStats>(&old).is_err(),
                    "old-length payload ({first_dropped}) mis-parsed"
                );
            }
        }

        // The layout before every session served its file layout carried a
        // backend byte after `threads`. A payload of that length fails
        // typed, whatever the byte and the counters behind it held.
        const BACKEND_AT: usize = 3 * 8;
        for stats in [engine, uncached, EngineStats::default()] {
            for backend in [0u8, 1] {
                for dedup_hits in [0u64, 1 << 56, 2 << 56] {
                    let stats = EngineStats {
                        planner: crate::plan::PlannerStats { dedup_hits },
                        ..stats
                    };
                    let mut old = to_bytes(&stats);
                    old.insert(BACKEND_AT, backend);
                    assert!(
                        from_bytes::<EngineStats>(&old).is_err(),
                        "old-length payload (backend {backend}, {dedup_hits}) mis-parsed"
                    );
                }
            }
        }
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
        let outcome = execute_on(
            &index,
            &mut ws,
            &QueryRequest::path_graph(6, 11).with_stats(),
        );
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
            to_bytes(&CacheStats::default()).len(),
            CacheStats::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&EngineStats::default()).len(),
            EngineStats::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&RequestError::Unavailable {
                reason: String::new()
            })
            .len(),
            RequestError::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&ReplicaStats::default()).len(),
            ReplicaStats::MIN_ENCODED_LEN
        );
        assert_eq!(
            to_bytes(&RouterStats::default()).len(),
            RouterStats::MIN_ENCODED_LEN
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

    #[test]
    fn router_stats_roundtrip_and_reject_truncation() {
        let stats = RouterStats {
            batches_routed: 100,
            subbatches: 260,
            retries: 3,
            ejections: 1,
            unavailable_slots: 2,
            replicas: vec![
                ReplicaStats {
                    addr: "127.0.0.1:7411".to_string(),
                    healthy: true,
                    requests: 4000,
                    batches: 130,
                    retries: 0,
                    ejections: 0,
                    in_flight: 64,
                    consecutive_failures: 0,
                    failures: 0,
                },
                ReplicaStats {
                    addr: "127.0.0.1:7412".to_string(),
                    healthy: false,
                    requests: 3800,
                    batches: 127,
                    retries: 3,
                    ejections: 1,
                    in_flight: 0,
                    consecutive_failures: 5,
                    failures: 5,
                },
            ],
        };
        let bytes = to_bytes(&stats);
        assert_eq!(from_bytes::<RouterStats>(&bytes).unwrap(), stats);
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<RouterStats>(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let rendered = stats.to_string();
        assert!(rendered.contains("127.0.0.1:7412"));
        assert!(rendered.contains("ejected"));
        assert!(rendered.contains("healthy"));
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
        snap.slow_queries = 3;
        snap.job_panics = 1;
        snap.hists[0] = h.snapshot();
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
        // A hostile bucket count is bounded by the remaining bytes before
        // any allocation happens.
        let mut hostile = 3u64.to_le_bytes().to_vec();
        hostile.extend_from_slice(&0u64.to_le_bytes());
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes::<MetricsSnapshot>(&hostile),
            Err(WireError::Truncated { .. })
        ));
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
