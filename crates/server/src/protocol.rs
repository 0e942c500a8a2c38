//! The framed wire protocol: handshake, length-prefixed frames, and the
//! typed request/response frame enums.
//!
//! The byte layout is specified normatively in `docs/protocol.md`. In
//! short: a connection opens with an 8-byte preamble from each side
//! (`"QBSP"` magic + `u16` protocol version + reserved `u16`). This build
//! speaks exactly one dialect, [`PROTOCOL_VERSION`]: a peer announcing
//! that version or a newer one is served at it (see [`negotiate`]), an
//! older hello is refused with a typed `VERSION_MISMATCH` fault. After
//! the handshake both directions carry frames whose envelope holds a
//! request ID ([`qbs_core::wire::RequestId`]), so responses can be
//! pipelined and complete out of order, and a 64-bit trace ID
//! ([`qbs_core::TraceId`]), so one request can be followed through a
//! router into a replica's slow-query log:
//!
//! ```text
//! [len: u32 LE][id: u32 LE][trace: u64 LE][tag: u8][payload: len-13 bytes]
//! ```
//!
//! Payloads reuse the canonical little-endian encodings of
//! [`qbs_core::wire`], so a server response decodes into exactly the
//! [`QueryOutcome`] values a local [`qbs_core::Qbs::submit`] call would
//! return. Every malformed input — bad magic, foreign version, oversized
//! frame, unknown tag, truncated or corrupt payload — surfaces as a typed
//! [`ProtocolError`], never a panic; the robustness test suite sweeps
//! truncations and bit flips over every frame kind to enforce it.

use std::fmt;
use std::io::{Read, Write};

use qbs_core::wire::{self, RequestId, Wire, WireError, WireReader};
use qbs_core::{MetricsSnapshot, QueryOutcome, QueryRequest, TraceId};

use crate::admission::BusyReason;

/// Magic bytes opening every connection preamble.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"QBSP";

/// The one protocol version this build speaks; additions bump it.
pub const PROTOCOL_VERSION: u16 = 5;

/// Resolves the version to speak with a peer that announced `theirs`.
///
/// A peer announcing [`PROTOCOL_VERSION`] or anything newer is assumed to
/// also speak everything older, so the connection proceeds at
/// [`PROTOCOL_VERSION`]. Older versions are unspeakable: their framings
/// are gone.
pub fn negotiate(theirs: u16) -> Option<u16> {
    (theirs >= PROTOCOL_VERSION).then_some(PROTOCOL_VERSION)
}

/// Hard cap on one frame's length field. Large enough for a 4096-request
/// batch of path-graph answers on real graphs; small enough that a
/// corrupted length can never drive an allocation bomb.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Byte length of the connection preamble each side sends.
pub const PREAMBLE_LEN: usize = 8;

/// A client-to-server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestFrame {
    /// Execute a heterogeneous batch of typed requests.
    Batch(Vec<QueryRequest>),
    /// Liveness probe.
    Ping,
    /// Ask the server to drain in-flight batches and exit.
    Shutdown,
    /// Snapshot the server's telemetry: counters and per-stage latency
    /// histograms (a router folds in every available replica's).
    Metrics,
}

/// A server-to-client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseFrame {
    /// Per-request outcomes of a [`RequestFrame::Batch`], in input order.
    Batch(Vec<QueryOutcome>),
    /// Reply to [`RequestFrame::Ping`].
    Pong,
    /// Reply to [`RequestFrame::Shutdown`]: the drain has begun.
    ShutdownAck,
    /// Reply to [`RequestFrame::Metrics`].
    Metrics(MetricsSnapshot),
    /// The batch was shed by admission control; retry later (the
    /// connection stays healthy).
    Busy(BusyReason),
    /// A typed failure. Under the request's own ID it concerns that
    /// request only and the connection stays usable; under
    /// [`RequestId::CONNECTION`] the server closes after sending it.
    Error(WireFault),
}

/// Stable error codes carried by [`ResponseFrame::Error`] — the remote
/// half of [`ProtocolError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFault {
    /// Stable numeric code (see `docs/protocol.md`).
    pub code: u8,
    /// Human-readable detail.
    pub message: String,
}

/// Error codes used in [`WireFault::code`].
pub mod fault_code {
    /// The peer spoke a different protocol version.
    pub const VERSION_MISMATCH: u8 = 1;
    /// A frame payload failed to decode.
    pub const MALFORMED: u8 = 2;
    /// A frame carried an unknown tag.
    pub const UNKNOWN_TAG: u8 = 3;
    /// A frame length exceeded [`super::MAX_FRAME_LEN`].
    pub const FRAME_TOO_LARGE: u8 = 4;
    // Code 5 is retired and never sent (a draining server stops accepting).
    /// The job answering this request panicked; the request is lost, the
    /// connection and the server are not.
    pub const INTERNAL: u8 = 6;
}

impl Wire for WireFault {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.code);
        self.message.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WireFault {
            code: r.u8("fault code")?,
            message: String::decode(r)?,
        })
    }
}

/// Everything that can go wrong on a protocol endpoint (client or server
/// side): transport failures, handshake rejections, and malformed frames.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket failure (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// The preamble did not start with [`PROTOCOL_MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version of this endpoint.
        ours: u16,
        /// Version announced by the peer.
        theirs: u16,
    },
    /// A frame announced a length above [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The announced length.
        len: u32,
    },
    /// A frame carried a tag this endpoint does not know.
    UnknownTag(u8),
    /// A frame payload failed to decode.
    Malformed(WireError),
    /// The peer reported a typed fault (for one request, or for the
    /// connection, which it then closes).
    Remote(WireFault),
    /// The connection itself was shed by admission control (the server
    /// refused it at accept time with a `Busy` frame).
    Shed(BusyReason),
    /// The peer answered with a frame kind the request cannot produce.
    UnexpectedFrame(&'static str),
    /// A [`crate::Ticket`] was redeemed twice, or never issued by this
    /// connection (client-side bookkeeping error, nothing read).
    UnknownTicket(RequestId),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::BadMagic(magic) => {
                write!(f, "bad protocol magic {magic:02x?} (expected \"QBSP\")")
            }
            ProtocolError::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch: we speak {ours}, peer speaks {theirs}"
                )
            }
            ProtocolError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtocolError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            ProtocolError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
            ProtocolError::Remote(fault) => {
                write!(f, "peer fault {}: {}", fault.code, fault.message)
            }
            ProtocolError::Shed(reason) => {
                write!(f, "connection shed by admission control: {reason}")
            }
            ProtocolError::UnexpectedFrame(what) => {
                write!(f, "peer answered with an unexpected {what} frame")
            }
            ProtocolError::UnknownTicket(id) => {
                write!(f, "ticket {id} was never issued or already redeemed")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Malformed(e)
    }
}

// Frame tags. Requests use the low range, responses the high range, so a
// desynchronised endpoint fails with `UnknownTag` instead of misparsing.
// Tags 0x02 and 0x82 (the retired `Stats` pair) are unknown since v4.
const TAG_BATCH: u8 = 0x01;
const TAG_PING: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
const TAG_METRICS: u8 = 0x05;
const TAG_RESP_BATCH: u8 = 0x81;
const TAG_RESP_PONG: u8 = 0x83;
const TAG_RESP_SHUTDOWN_ACK: u8 = 0x84;
const TAG_RESP_METRICS: u8 = 0x85;
const TAG_RESP_BUSY: u8 = 0x90;
const TAG_RESP_ERROR: u8 = 0x91;

/// Bytes of one encoded request: requests are fixed-size on the wire.
pub const REQUEST_LEN: usize = QueryRequest::MIN_ENCODED_LEN;

/// Appends a `Batch` frame body straight from a request slice, without
/// cloning it into a [`RequestFrame`] (the client's hot path).
pub fn encode_batch_body_into(requests: &[QueryRequest], out: &mut Vec<u8>) {
    out.reserve(5 + requests.len() * REQUEST_LEN);
    out.push(TAG_BATCH);
    out.extend_from_slice(&(requests.len() as u32).to_le_bytes());
    for request in requests {
        request.encode(out);
    }
}

/// Walks a request body that may be a `Batch` without decoding it: `None`
/// for any other tag (decode those with [`RequestFrame::decode_body`]),
/// otherwise the encoded requests, [`REQUEST_LEN`] bytes each, after
/// every mode and option byte has been checked as the decoder checks it.
/// A malformed batch fails exactly when [`RequestFrame::decode_body`]
/// would.
pub fn batch_requests(body: &[u8]) -> Option<Result<&[u8], ProtocolError>> {
    if body.first() != Some(&TAG_BATCH) {
        return None;
    }
    let mut r = WireReader::new(&body[1..]);
    let walked = (|| {
        let n = r.seq_len("sequence", REQUEST_LEN)?;
        for _ in 0..n {
            wire::skip_request(&mut r)?;
        }
        r.finish()
    })();
    Some(
        walked
            .map(|()| &body[5..])
            .map_err(ProtocolError::Malformed),
    )
}

/// Appends one `Batch` request frame, length prefix included, carrying
/// already-encoded requests (a contiguous range of a walked batch).
pub fn push_batch_request(out: &mut Vec<u8>, id: RequestId, trace: TraceId, requests: &[u8]) {
    push_frame(out, id, trace, |body| {
        body.push(TAG_BATCH);
        body.extend_from_slice(&((requests.len() / REQUEST_LEN) as u32).to_le_bytes());
        body.extend_from_slice(requests);
    });
}

/// What a forwarder may do with one reply to a batch it sent (see
/// [`sort_batch_reply`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubReply<'a> {
    /// A `Batch` reply holding exactly the expected number of outcomes,
    /// each one walked: their encodings, ready to splice.
    Outcomes(&'a [u8]),
    /// A batch-level `Busy` shed: the peer is healthy, just loaded.
    Busy,
    /// Anything else: a fault, a slot-count mismatch, an undecodable
    /// body, or a frame kind no batch produces.
    Failed,
}

/// Sorts one reply body to a forwarded batch of `count` requests without
/// decoding any outcome. [`SubReply::Outcomes`] is returned exactly when
/// [`ResponseFrame::decode_body`] yields a `Batch` of `count` outcomes, so
/// spliced bytes are bytes a client decodes.
pub fn sort_batch_reply(body: &[u8], count: usize) -> SubReply<'_> {
    let mut r = WireReader::new(body);
    match r.u8("frame tag") {
        Ok(TAG_RESP_BATCH) => {
            let walked = (|| {
                if r.u32("sequence")? as usize != count {
                    return Err(WireError::Invalid("slot count"));
                }
                for _ in 0..count {
                    wire::skip_outcome(&mut r)?;
                }
                r.finish()
            })();
            match walked {
                Ok(()) => SubReply::Outcomes(&body[5..]),
                Err(_) => SubReply::Failed,
            }
        }
        // A connection-level reason is the peer refusing the socket, not
        // this batch: a failure, as the blocking client reports it.
        Ok(TAG_RESP_BUSY) => {
            match BusyReason::decode(&mut r).and_then(|b| r.finish().map(|()| b)) {
                Ok(BusyReason::TooManyConnections { .. }) | Err(_) => SubReply::Failed,
                Ok(_) => SubReply::Busy,
            }
        }
        _ => SubReply::Failed,
    }
}

/// Builds a complete `Batch` reply frame under `id`'s envelope: `count`
/// outcomes, whose encodings `outcomes` appends.
pub fn batch_reply_frame(
    id: RequestId,
    trace: TraceId,
    count: usize,
    outcomes: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    encode_frame(id, trace, |body| {
        body.push(TAG_RESP_BATCH);
        body.extend_from_slice(&(count as u32).to_le_bytes());
        outcomes(body);
    })
}

impl RequestFrame {
    /// Encodes the frame body (tag + payload, without the length prefix).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_body_into(&mut out);
        out
    }

    /// Appends the frame body to `out`.
    pub fn encode_body_into(&self, out: &mut Vec<u8>) {
        match self {
            RequestFrame::Batch(requests) => encode_batch_body_into(requests, out),
            RequestFrame::Ping => out.push(TAG_PING),
            RequestFrame::Shutdown => out.push(TAG_SHUTDOWN),
            RequestFrame::Metrics => out.push(TAG_METRICS),
        }
    }

    /// Decodes a frame body (tag + payload). Malformed bodies yield typed
    /// errors, never panics.
    pub fn decode_body(body: &[u8]) -> Result<RequestFrame, ProtocolError> {
        let mut r = WireReader::new(body);
        let tag = r.u8("frame tag").map_err(ProtocolError::Malformed)?;
        let frame = match tag {
            TAG_BATCH => RequestFrame::Batch(Vec::<QueryRequest>::decode(&mut r)?),
            TAG_PING => RequestFrame::Ping,
            TAG_SHUTDOWN => RequestFrame::Shutdown,
            TAG_METRICS => RequestFrame::Metrics,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        r.finish().map_err(ProtocolError::Malformed)?;
        Ok(frame)
    }
}

impl ResponseFrame {
    /// Encodes the frame body (tag + payload, without the length prefix).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_body_into(&mut out);
        out
    }

    /// Appends the frame body to `out`.
    pub fn encode_body_into(&self, out: &mut Vec<u8>) {
        match self {
            ResponseFrame::Batch(outcomes) => {
                out.push(TAG_RESP_BATCH);
                outcomes.encode(out);
            }
            ResponseFrame::Pong => out.push(TAG_RESP_PONG),
            ResponseFrame::ShutdownAck => out.push(TAG_RESP_SHUTDOWN_ACK),
            ResponseFrame::Metrics(snapshot) => {
                out.push(TAG_RESP_METRICS);
                snapshot.encode(out);
            }
            ResponseFrame::Busy(reason) => {
                out.push(TAG_RESP_BUSY);
                reason.encode(out);
            }
            ResponseFrame::Error(fault) => {
                out.push(TAG_RESP_ERROR);
                fault.encode(out);
            }
        }
    }

    /// Decodes a frame body (tag + payload).
    pub fn decode_body(body: &[u8]) -> Result<ResponseFrame, ProtocolError> {
        let mut r = WireReader::new(body);
        let tag = r.u8("frame tag").map_err(ProtocolError::Malformed)?;
        let frame = match tag {
            TAG_RESP_BATCH => ResponseFrame::Batch(Vec::<QueryOutcome>::decode(&mut r)?),
            TAG_RESP_PONG => ResponseFrame::Pong,
            TAG_RESP_SHUTDOWN_ACK => ResponseFrame::ShutdownAck,
            TAG_RESP_METRICS => ResponseFrame::Metrics(MetricsSnapshot::decode(&mut r)?),
            TAG_RESP_BUSY => ResponseFrame::Busy(BusyReason::decode(&mut r)?),
            TAG_RESP_ERROR => ResponseFrame::Error(WireFault::decode(&mut r)?),
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        r.finish().map_err(ProtocolError::Malformed)?;
        Ok(frame)
    }
}

/// Writes the 8-byte connection preamble announcing [`PROTOCOL_VERSION`].
pub fn write_preamble<W: Write>(w: &mut W) -> Result<(), ProtocolError> {
    let mut preamble = [0u8; PREAMBLE_LEN];
    preamble[..4].copy_from_slice(&PROTOCOL_MAGIC);
    preamble[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    w.write_all(&preamble)?;
    Ok(())
}

/// Reads the peer's 8-byte preamble, validating the magic, and returns
/// the version the peer announced. A version [`negotiate`] cannot speak
/// (anything below [`PROTOCOL_VERSION`]) is rejected here.
pub fn read_preamble<R: Read>(r: &mut R) -> Result<u16, ProtocolError> {
    let mut preamble = [0u8; PREAMBLE_LEN];
    r.read_exact(&mut preamble)?;
    let magic: [u8; 4] = preamble[..4].try_into().expect("fixed split");
    if magic != PROTOCOL_MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let theirs = u16::from_le_bytes([preamble[4], preamble[5]]);
    if negotiate(theirs).is_none() {
        return Err(ProtocolError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs,
        });
    }
    Ok(theirs)
}

/// Prepends the request-ID + trace envelope to a frame body: the result
/// is the `[id][trace][tag][payload]` byte string a frame's length prefix
/// counts.
pub fn encode_envelope(id: RequestId, trace: TraceId, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    id.encode(&mut out);
    out.extend_from_slice(&trace.0.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Splits a frame payload into its request ID, trace ID, and the
/// enclosed frame body. A payload too short to carry the envelope is a
/// typed [`ProtocolError::Malformed`], never a panic.
pub fn split_envelope(payload: &[u8]) -> Result<(RequestId, TraceId, &[u8]), ProtocolError> {
    if payload.len() < 12 {
        return Err(ProtocolError::Malformed(WireError::Truncated {
            what: "request id + trace envelope",
            needed: 12,
            remaining: payload.len(),
        }));
    }
    let id = RequestId(u32::from_le_bytes(
        payload[..4].try_into().expect("fixed split"),
    ));
    let trace = TraceId(u64::from_le_bytes(
        payload[4..12].try_into().expect("fixed split"),
    ));
    Ok((id, trace, &payload[12..]))
}

/// Appends one complete frame to `out`: a length slot, the `id` + `trace`
/// envelope, the body `fill` appends, then the length patched in. Built
/// once, a frame goes out in one write: a peer on a `TCP_NODELAY` socket
/// is never woken by a length prefix it cannot parse yet.
pub fn push_frame(
    out: &mut Vec<u8>,
    id: RequestId,
    trace: TraceId,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    id.encode(out);
    out.extend_from_slice(&trace.0.to_le_bytes());
    fill(out);
    let len = (out.len() - at - 4).min(u32::MAX as usize) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// [`push_frame`] into a fresh buffer.
pub fn encode_frame(id: RequestId, trace: TraceId, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    push_frame(&mut out, id, trace, fill);
    out
}

/// Writes one complete frame (as [`encode_frame`] builds it) in a single
/// write, refusing one whose length exceeds [`MAX_FRAME_LEN`].
pub fn write_encoded<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), ProtocolError> {
    let len = u32::try_from(frame.len().saturating_sub(4)).unwrap_or(u32::MAX);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Writes one length-prefixed frame body, prefix and body in one write.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), ProtocolError> {
    let len =
        u32::try_from(body.len()).map_err(|_| ProtocolError::FrameTooLarge { len: u32::MAX })?;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    write_encoded(w, &frame)
}

/// Reads one length-prefixed frame body. The length is validated against
/// [`MAX_FRAME_LEN`] before any allocation.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Convenience: write one request frame under `id`'s envelope,
/// carrying `trace`.
pub fn write_request<W: Write>(
    w: &mut W,
    id: RequestId,
    trace: TraceId,
    frame: &RequestFrame,
) -> Result<(), ProtocolError> {
    write_encoded(
        w,
        &encode_frame(id, trace, |out| frame.encode_body_into(out)),
    )
}

/// Convenience: write one response frame under `id`'s envelope,
/// echoing `trace`.
pub fn write_response<W: Write>(
    w: &mut W,
    id: RequestId,
    trace: TraceId,
    frame: &ResponseFrame,
) -> Result<(), ProtocolError> {
    write_encoded(
        w,
        &encode_frame(id, trace, |out| frame.encode_body_into(out)),
    )
}

/// Convenience: read one request frame with its envelope ID and trace.
pub fn read_request<R: Read>(
    r: &mut R,
) -> Result<(RequestId, TraceId, RequestFrame), ProtocolError> {
    let payload = read_frame(r)?;
    let (id, trace, body) = split_envelope(&payload)?;
    Ok((id, trace, RequestFrame::decode_body(body)?))
}

/// Convenience: read one response frame with its envelope ID and trace.
pub fn read_response<R: Read>(
    r: &mut R,
) -> Result<(RequestId, TraceId, ResponseFrame), ProtocolError> {
    let payload = read_frame(r)?;
    let (id, trace, body) = split_envelope(&payload)?;
    Ok((id, trace, ResponseFrame::decode_body(body)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_core::RequestError;

    fn roundtrip_request(frame: RequestFrame) {
        let body = frame.encode_body();
        assert_eq!(RequestFrame::decode_body(&body).unwrap(), frame);
    }

    fn roundtrip_response(frame: ResponseFrame) {
        let body = frame.encode_body();
        assert_eq!(ResponseFrame::decode_body(&body).unwrap(), frame);
    }

    #[test]
    fn frames_roundtrip() {
        let batch = vec![
            QueryRequest::distance(1, 2),
            QueryRequest::path_graph(3, 4).with_stats(),
            QueryRequest::sketch(5, 6).uncached(),
        ];
        let mut canonical = vec![TAG_BATCH];
        batch.encode(&mut canonical);
        assert_eq!(
            RequestFrame::Batch(batch.clone()).encode_body(),
            canonical,
            "the slice fast path is byte-equal to the sequence encoder"
        );
        roundtrip_request(RequestFrame::Batch(batch));
        roundtrip_request(RequestFrame::Batch(Vec::new()));
        roundtrip_request(RequestFrame::Ping);
        roundtrip_request(RequestFrame::Shutdown);
        roundtrip_request(RequestFrame::Metrics);

        roundtrip_response(ResponseFrame::Batch(vec![
            QueryOutcome::Distance(5),
            QueryOutcome::Error(RequestError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 4,
            }),
        ]));
        roundtrip_response(ResponseFrame::Pong);
        roundtrip_response(ResponseFrame::ShutdownAck);
        roundtrip_response(ResponseFrame::Metrics(MetricsSnapshot::default()));
        let hist = {
            let h = qbs_core::LatencyHistogram::new();
            h.record_ns(1_000);
            h.record_ns(2_000_000);
            h.snapshot()
        };
        let mut snapshot = MetricsSnapshot {
            hists: vec![hist],
            counters: Vec::new(),
        };
        snapshot.push(qbs_core::counter::SLOW_QUERIES, 2);
        roundtrip_response(ResponseFrame::Metrics(snapshot));
        roundtrip_response(ResponseFrame::Busy(BusyReason::BatchTooLarge {
            limit: 16,
            got: 40,
        }));
        roundtrip_response(ResponseFrame::Error(WireFault {
            code: fault_code::MALFORMED,
            message: "truncated".into(),
        }));
    }

    #[test]
    fn preamble_carries_the_announced_version() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        assert_eq!(buf.len(), PREAMBLE_LEN);
        assert_eq!(read_preamble(&mut &buf[..]).unwrap(), PROTOCOL_VERSION);

        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            read_preamble(&mut &wrong_magic[..]),
            Err(ProtocolError::BadMagic(_))
        ));

        // A future version is returned for negotiation, not rejected.
        let mut future = buf.clone();
        future[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert_eq!(read_preamble(&mut &future[..]).unwrap(), 99);

        // Every version older than ours is rejected at the read.
        for old in 0..PROTOCOL_VERSION {
            let mut hello = buf.clone();
            hello[4..6].copy_from_slice(&old.to_le_bytes());
            match read_preamble(&mut &hello[..]) {
                Err(ProtocolError::VersionMismatch { ours, theirs }) => {
                    assert_eq!((ours, theirs), (PROTOCOL_VERSION, old));
                }
                other => panic!("version {old}: expected a mismatch, got {other:?}"),
            }
        }

        assert!(matches!(
            read_preamble(&mut &buf[..4]),
            Err(ProtocolError::Io(_))
        ));
    }

    #[test]
    fn negotiation_is_monotone_and_forward_compatible() {
        for old in 0..PROTOCOL_VERSION {
            assert_eq!(negotiate(old), None);
        }
        assert_eq!(negotiate(PROTOCOL_VERSION), Some(PROTOCOL_VERSION));
        // Unknown future versions speak everything older, so the
        // connection proceeds at our version.
        assert_eq!(negotiate(6), Some(PROTOCOL_VERSION));
        assert_eq!(negotiate(u16::MAX), Some(PROTOCOL_VERSION));
    }

    #[test]
    fn v3_envelopes_carry_the_trace_and_reject_truncation() {
        let frame = RequestFrame::Batch(vec![QueryRequest::distance(1, 2)]);
        let body = frame.encode_body();
        let trace = TraceId(0xDEAD_BEEF_CAFE_F00D);
        let enveloped = encode_envelope(RequestId(7), trace, &body);
        assert_eq!(enveloped.len(), body.len() + 12);
        let (id, got_trace, inner) = split_envelope(&enveloped).unwrap();
        assert_eq!((id, got_trace), (RequestId(7), trace));
        assert_eq!(inner, &body[..]);

        for cut in 0..12 {
            assert!(matches!(
                split_envelope(&enveloped[..cut]),
                Err(ProtocolError::Malformed(WireError::Truncated { .. }))
            ));
        }

        let mut buf = Vec::new();
        write_request(&mut buf, RequestId(9), trace, &frame).unwrap();
        let (id, got_trace, decoded) = read_request(&mut &buf[..]).unwrap();
        assert_eq!((id, got_trace, decoded), (RequestId(9), trace, frame));

        let response = ResponseFrame::Metrics(MetricsSnapshot::default());
        let mut buf = Vec::new();
        write_response(&mut buf, RequestId(9), TraceId::NONE, &response).unwrap();
        let (id, got_trace, decoded) = read_response(&mut &buf[..]).unwrap();
        assert_eq!(
            (id, got_trace, decoded),
            (RequestId(9), TraceId::NONE, response)
        );

        // Single-bit corruption of an enveloped metrics frame is always a
        // typed result, never a panic.
        let snapshot = ResponseFrame::Metrics(MetricsSnapshot {
            hists: vec![Default::default(); 3],
            counters: Vec::new(),
        });
        let enveloped = encode_envelope(RequestId(3), trace, &snapshot.encode_body());
        for byte in 0..enveloped.len() {
            for bit in 0..8 {
                let mut flipped = enveloped.clone();
                flipped[byte] ^= 1 << bit;
                if let Ok((_, _, inner)) = split_envelope(&flipped) {
                    let _ = ResponseFrame::decode_body(inner);
                }
            }
        }
    }

    #[test]
    fn frame_lengths_are_capped() {
        let mut oversized = ((MAX_FRAME_LEN + 1).to_le_bytes()).to_vec();
        oversized.extend_from_slice(&[0; 8]);
        assert!(matches!(
            read_frame(&mut &oversized[..]),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_typed_errors() {
        assert!(matches!(
            RequestFrame::decode_body(&[0x7F]),
            Err(ProtocolError::UnknownTag(0x7F))
        ));
        assert!(matches!(
            ResponseFrame::decode_body(&[0x01]),
            Err(ProtocolError::UnknownTag(0x01)),
        ));
        // A ping with a stray payload byte is malformed, not silently ok.
        assert!(matches!(
            RequestFrame::decode_body(&[TAG_PING, 0]),
            Err(ProtocolError::Malformed(WireError::Trailing { extra: 1 }))
        ));
        assert!(matches!(
            RequestFrame::decode_body(&[]),
            Err(ProtocolError::Malformed(WireError::Truncated { .. }))
        ));
        let display = ProtocolError::UnknownTag(0x7F).to_string();
        assert!(display.contains("0x7f"), "{display}");
    }

    /// A `Write` that counts its `write` calls.
    struct CountingWrite {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_goes_out_in_one_write() {
        let mut w = CountingWrite {
            bytes: Vec::new(),
            writes: 0,
        };
        let batch = RequestFrame::Batch(vec![QueryRequest::distance(1, 2); 16]);
        write_request(&mut w, RequestId(1), TraceId(7), &batch).unwrap();
        assert_eq!(w.writes, 1, "write_request");
        write_request(&mut w, RequestId(2), TraceId(7), &RequestFrame::Ping).unwrap();
        assert_eq!(w.writes, 2, "write_request (control)");
        let reply = ResponseFrame::Batch(vec![QueryOutcome::Distance(3); 16]);
        write_response(&mut w, RequestId(1), TraceId(7), &reply).unwrap();
        assert_eq!(w.writes, 3, "write_response");
        write_frame(&mut w, &reply.encode_body()).unwrap();
        assert_eq!(w.writes, 4, "write_frame");
        let mut stream = &w.bytes[..];
        assert_eq!(
            read_request(&mut stream).unwrap(),
            (RequestId(1), TraceId(7), batch)
        );
        assert_eq!(
            read_request(&mut stream).unwrap(),
            (RequestId(2), TraceId(7), RequestFrame::Ping)
        );
        assert_eq!(
            read_response(&mut stream).unwrap(),
            (RequestId(1), TraceId(7), reply.clone())
        );
        let body = read_frame(&mut stream).unwrap();
        assert_eq!(ResponseFrame::decode_body(&body).unwrap(), reply);
        assert!(stream.is_empty());
    }

    #[test]
    fn forwarded_ranges_and_spliced_replies_match_the_codec() {
        let batch = vec![
            QueryRequest::distance(1, 2),
            QueryRequest::path_graph(3, 4).with_stats(),
            QueryRequest::sketch(5, 6).uncached(),
        ];
        let body = RequestFrame::Batch(batch.clone()).encode_body();
        let requests = batch_requests(&body).unwrap().unwrap();
        assert_eq!(requests.len(), 3 * REQUEST_LEN);
        assert!(batch_requests(&RequestFrame::Ping.encode_body()).is_none());
        // A walked batch fails exactly where the decoder fails.
        for cut in 1..body.len() {
            assert_eq!(
                batch_requests(&body[..cut]).unwrap().is_ok(),
                RequestFrame::decode_body(&body[..cut]).is_ok(),
                "cut at {cut}"
            );
        }
        let mut bad_mode = body.clone();
        bad_mode[5 + 8] = 9;
        assert!(batch_requests(&bad_mode).unwrap().is_err());

        // A range forwarded under a fresh ID decodes to the sub-slice.
        let mut out = Vec::new();
        push_batch_request(&mut out, RequestId(4), TraceId(9), &requests[REQUEST_LEN..]);
        assert_eq!(
            read_request(&mut &out[..]).unwrap(),
            (
                RequestId(4),
                TraceId(9),
                RequestFrame::Batch(batch[1..].to_vec())
            )
        );

        // Replies sort as the blocking client reads them.
        let outcomes = vec![
            QueryOutcome::Distance(5),
            QueryOutcome::Error(qbs_core::RequestError::Unavailable {
                reason: "down".into(),
            }),
        ];
        let reply = ResponseFrame::Batch(outcomes.clone()).encode_body();
        let SubReply::Outcomes(spliced) = sort_batch_reply(&reply, 2) else {
            panic!("a well-formed reply must splice");
        };
        assert_eq!(
            sort_batch_reply(&reply, 3),
            SubReply::Failed,
            "count mismatch"
        );
        let mut undecodable = reply.clone();
        undecodable[5] = 0xEE;
        assert_eq!(sort_batch_reply(&undecodable, 2), SubReply::Failed);
        let busy = ResponseFrame::Busy(BusyReason::BatchTooLarge { limit: 1, got: 2 });
        assert_eq!(sort_batch_reply(&busy.encode_body(), 2), SubReply::Busy);
        let refused = ResponseFrame::Busy(BusyReason::TooManyConnections { limit: 1 });
        assert_eq!(
            sort_batch_reply(&refused.encode_body(), 2),
            SubReply::Failed
        );
        assert_eq!(
            sort_batch_reply(&ResponseFrame::Pong.encode_body(), 2),
            SubReply::Failed
        );

        // Two spliced halves decode to the whole.
        let frame = batch_reply_frame(RequestId(8), TraceId(1), 4, |out| {
            out.extend_from_slice(spliced);
            out.extend_from_slice(spliced);
        });
        let (id, trace, decoded) = read_response(&mut &frame[..]).unwrap();
        assert_eq!((id, trace), (RequestId(8), TraceId(1)));
        assert_eq!(
            decoded,
            ResponseFrame::Batch([outcomes.clone(), outcomes].concat())
        );
    }

    #[test]
    fn frame_io_roundtrips_over_a_stream() {
        // Two frames back to back on one stream: each read consumes
        // exactly its own length prefix and payload.
        let request = RequestFrame::Batch(vec![QueryRequest::distance(1, 2)]);
        let response = ResponseFrame::Batch(vec![QueryOutcome::Distance(1)]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &request.encode_body()).unwrap();
        write_frame(&mut buf, &response.encode_body()).unwrap();
        let mut stream = &buf[..];
        let first = read_frame(&mut stream).unwrap();
        assert_eq!(RequestFrame::decode_body(&first).unwrap(), request);
        let second = read_frame(&mut stream).unwrap();
        assert_eq!(ResponseFrame::decode_body(&second).unwrap(), response);
        assert!(stream.is_empty());
    }
}
