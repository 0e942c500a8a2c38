//! Protocol robustness: truncation and bit-flip sweeps over request and
//! response frame bodies (mirroring the `format_v2.rs` corruption sweep
//! for the on-disk format). The contract under test: **every** malformed
//! frame decodes to a typed error or to another well-formed value — never
//! a panic, never an allocation bomb — and the full frame reader enforces
//! its length cap before trusting anything.

use qbs_core::wire::{from_bytes, to_bytes, WireError};
use qbs_core::{
    counter, CacheConfig, MetricsSnapshot, Qbs, QbsConfig, QueryOutcome, QueryRequest,
    RequestError, RequestId, TraceId,
};
use qbs_graph::fixtures::figure4_graph;
use qbs_server::protocol::{
    encode_envelope, negotiate, read_frame, read_preamble, split_envelope, ProtocolError,
    RequestFrame, ResponseFrame, WireFault, MAX_FRAME_LEN, PREAMBLE_LEN,
};
use qbs_server::{Admission, AdmissionConfig, BusyReason, PROTOCOL_VERSION};

/// Representative request frame bodies, covering every tag and a real
/// mixed batch.
fn request_bodies() -> Vec<Vec<u8>> {
    let batch = RequestFrame::Batch(vec![
        QueryRequest::distance(6, 11),
        QueryRequest::path_graph(4, 12).with_stats(),
        QueryRequest::sketch(7, 9).uncached(),
        QueryRequest::distance(99, 0),
    ]);
    vec![
        batch.encode_body(),
        RequestFrame::Batch(Vec::new()).encode_body(),
        RequestFrame::Metrics.encode_body(),
        RequestFrame::Ping.encode_body(),
        RequestFrame::Shutdown.encode_body(),
    ]
}

/// The two telemetry payloads a `Metrics` frame carries: a server's (a
/// real cached session's snapshot plus admission counters) and a
/// router's (routing and replica-labelled counters with that server's
/// snapshot folded in, cache attached).
fn snapshots(qbs: &Qbs) -> [MetricsSnapshot; 2] {
    let mut server = qbs.metrics_snapshot();
    let admission = std::sync::Arc::new(Admission::new(AdmissionConfig::default()));
    let _permit = admission.admit_batch(17).expect("admit");
    admission.snapshot_into(&mut server);
    assert!(server.get(counter::CACHE_HITS).is_some(), "cache attached");
    let mut router = MetricsSnapshot::default();
    router.push(counter::ROUTED_BATCHES, 100);
    router.push(counter::SUBBATCHES, 210);
    for (addr, failures) in [("127.0.0.1:7411", 7), ("[::1]:7412", 0)] {
        router.push_replica(counter::REPLICA_HEALTHY, addr, 1);
        router.push_replica(counter::REPLICA_FAILURES, addr, failures);
    }
    router.merge(&server);
    [server, router]
}

/// A session over the figure-4 index with an answer cache attached.
fn session() -> Qbs {
    Qbs::build(figure4_graph(), QbsConfig::with_landmark_count(3))
        .expect("build")
        .with_cache(CacheConfig::default().admit_above(0))
}

/// Representative response frame bodies, built from *real* outcomes of the
/// figure-4 index so the path-graph/sketch/metrics payloads are
/// non-trivial.
fn response_bodies() -> Vec<Vec<u8>> {
    let qbs = session();
    let outcomes = qbs.submit(&[
        QueryRequest::distance(6, 11),
        QueryRequest::path_graph(6, 11).with_stats(),
        QueryRequest::path_graph(4, 12),
        QueryRequest::sketch(7, 9),
        QueryRequest::distance(0, 99),
    ]);
    assert_eq!(outcomes.iter().filter(|o| o.is_error()).count(), 1);
    let mut bodies = vec![ResponseFrame::Batch(outcomes).encode_body()];
    bodies.extend(snapshots(&qbs).map(|s| ResponseFrame::Metrics(s).encode_body()));
    bodies.extend([
        ResponseFrame::Pong.encode_body(),
        ResponseFrame::ShutdownAck.encode_body(),
        ResponseFrame::Busy(BusyReason::Overloaded {
            limit: 64,
            inflight: 62,
            got: 8,
        })
        .encode_body(),
        ResponseFrame::Error(WireFault {
            code: 2,
            message: "malformed frame payload".into(),
        })
        .encode_body(),
    ]);
    bodies
}

/// Every truncation of every request body is a typed error (the empty
/// prefix included) — and decoding is total: it must return, not panic.
#[test]
fn request_truncation_sweep() {
    for body in request_bodies() {
        for cut in 0..body.len() {
            assert!(
                RequestFrame::decode_body(&body[..cut]).is_err(),
                "request truncated to {cut}/{} bytes must not decode",
                body.len()
            );
        }
        assert!(RequestFrame::decode_body(&body).is_ok());
    }
}

#[test]
fn response_truncation_sweep() {
    for body in response_bodies() {
        for cut in 0..body.len() {
            assert!(
                ResponseFrame::decode_body(&body[..cut]).is_err(),
                "response truncated to {cut}/{} bytes must not decode",
                body.len()
            );
        }
        assert!(ResponseFrame::decode_body(&body).is_ok());
    }
}

/// Every single-bit flip of every frame body either fails with a typed
/// error or decodes into some well-formed value (a flipped vertex id is
/// indistinguishable from a different query) — the decoder must be total
/// either way, and a successful decode must re-encode cleanly (no
/// half-validated state escapes).
#[test]
fn request_bit_flip_sweep() {
    for body in request_bodies() {
        let mut mutated = body.clone();
        for byte in 0..body.len() {
            for bit in 0..8 {
                mutated[byte] ^= 1 << bit;
                if let Ok(frame) = RequestFrame::decode_body(&mutated) {
                    let reencoded = frame.encode_body();
                    assert_eq!(
                        RequestFrame::decode_body(&reencoded).expect("canonical re-decode"),
                        frame,
                        "byte {byte} bit {bit}"
                    );
                }
                mutated[byte] ^= 1 << bit;
            }
        }
        assert_eq!(mutated, body, "sweep restored the body");
    }
}

#[test]
fn response_bit_flip_sweep() {
    for body in response_bodies() {
        let mut mutated = body.clone();
        for byte in 0..body.len() {
            for bit in 0..8 {
                mutated[byte] ^= 1 << bit;
                if let Ok(frame) = ResponseFrame::decode_body(&mutated) {
                    let reencoded = frame.encode_body();
                    assert_eq!(
                        ResponseFrame::decode_body(&reencoded).expect("canonical re-decode"),
                        frame,
                        "byte {byte} bit {bit}"
                    );
                }
                mutated[byte] ^= 1 << bit;
            }
        }
    }
}

/// The length prefix is validated against the cap before any allocation,
/// and preamble corruption is typed.
#[test]
fn frame_reader_and_preamble_reject_corruption() {
    // Oversized length prefix.
    let mut oversized = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[0u8; 16]);
    assert!(read_frame(&mut &oversized[..]).is_err());

    // A length prefix promising more bytes than the stream holds.
    let mut short = 100u32.to_le_bytes().to_vec();
    short.extend_from_slice(&[0u8; 10]);
    assert!(read_frame(&mut &short[..]).is_err());

    // Preamble: every truncation is rejected; every single-bit flip of
    // the magic is rejected; a flipped *version* is either rejected (an
    // older dialect) or comes back as a well-formed announcement that
    // `negotiate` resolves to the version this build speaks.
    let mut good = Vec::new();
    qbs_server::protocol::write_preamble(&mut good).expect("preamble");
    assert_eq!(good.len(), PREAMBLE_LEN);
    for cut in 0..good.len() {
        assert!(read_preamble(&mut &good[..cut]).is_err());
    }
    let mut mutated = good.clone();
    for byte in 0..6 {
        for bit in 0..8 {
            mutated[byte] ^= 1 << bit;
            let announced = u16::from_le_bytes([mutated[4], mutated[5]]);
            match read_preamble(&mut &mutated[..]) {
                Err(_) => assert!(
                    byte < 4 || announced < PROTOCOL_VERSION,
                    "byte {byte} bit {bit}: only magic damage and older versions are rejected"
                ),
                Ok(theirs) => {
                    assert!(byte >= 4, "flipped magic byte {byte} bit {bit} must fail");
                    assert_eq!(theirs, announced);
                    assert!(
                        theirs >= PROTOCOL_VERSION,
                        "older version {theirs} accepted"
                    );
                    assert_eq!(negotiate(theirs), Some(PROTOCOL_VERSION));
                }
            }
            mutated[byte] ^= 1 << bit;
        }
    }
}

/// The request-ID + trace envelope under the same adversarial treatment:
/// truncations inside the ID or trace are typed errors; truncations
/// inside the enclosed body split cleanly but fail the body decode; bit
/// flips in the envelope only change the ID or the trace (the body is
/// untouched and still decodes).
#[test]
fn envelope_truncation_and_bit_flip_sweep() {
    let id = RequestId(0x5A5A_A5A5);
    let trace = TraceId(0x0123_4567_89AB_CDEF);
    let cases: Vec<(Vec<u8>, bool)> = request_bodies()
        .into_iter()
        .map(|b| (b, true))
        .chain(response_bodies().into_iter().map(|b| (b, false)))
        .collect();
    for (body, is_request) in cases {
        let decodes = |inner: &[u8]| -> bool {
            if is_request {
                RequestFrame::decode_body(inner).is_ok()
            } else {
                ResponseFrame::decode_body(inner).is_ok()
            }
        };
        let enveloped = encode_envelope(id, trace, &body);
        assert_eq!(enveloped.len(), body.len() + 12);
        let (split_id, split_trace, inner) = split_envelope(&enveloped).expect("intact envelope");
        assert_eq!((split_id, split_trace), (id, trace));
        assert!(decodes(inner), "intact body decodes through the envelope");

        for cut in 0..enveloped.len() {
            match split_envelope(&enveloped[..cut]) {
                Err(_) => assert!(
                    cut < 12,
                    "cut {cut}: only envelope truncation fails the split"
                ),
                Ok((split_id, split_trace, inner)) => {
                    assert_eq!((split_id, split_trace), (id, trace));
                    assert!(!decodes(inner), "cut {cut}: truncated body must not decode");
                }
            }
        }

        let mut mutated = enveloped.clone();
        for byte in 0..12 {
            for bit in 0..8 {
                mutated[byte] ^= 1 << bit;
                let (flipped_id, flipped_trace, inner) =
                    split_envelope(&mutated).expect("split still works");
                assert_eq!(
                    (flipped_id != id, flipped_trace != trace),
                    (byte < 4, byte >= 4),
                    "byte {byte} bit {bit} changed exactly the field it sits in"
                );
                assert!(decodes(inner), "the enclosed body is untouched");
                mutated[byte] ^= 1 << bit;
            }
        }
    }
}

/// The telemetry payload under truncation and 0x01/0x80 bit flips, and
/// its counts checked against the bytes left before anything is
/// allocated.
#[test]
fn stats_payload_truncation_sweep() {
    for snapshot in snapshots(&session()) {
        let bytes = to_bytes(&snapshot);
        assert_eq!(from_bytes::<MetricsSnapshot>(&bytes).unwrap(), snapshot);
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<MetricsSnapshot>(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut mutated = bytes.clone();
        for byte in 0..bytes.len() {
            for bit in [0x01, 0x80] {
                mutated[byte] ^= bit;
                if let Ok(decoded) = from_bytes::<MetricsSnapshot>(&mutated) {
                    assert_eq!(to_bytes(&decoded), mutated, "byte {byte} bit {bit:#04x}");
                }
                mutated[byte] ^= bit;
            }
        }
    }
    // A hostile counter count, then a hostile name length: each fails on
    // the remaining-bytes bound, whatever the buffer holds behind it.
    let no_hists = 0u32.to_le_bytes();
    let hostile_count = [&no_hists[..], &u32::MAX.to_le_bytes(), &[0; 64]].concat();
    let hostile_name = [
        &no_hists[..],
        &1u32.to_le_bytes(),
        &u32::MAX.to_le_bytes(),
        &[0; 64],
    ]
    .concat();
    for hostile in [hostile_count, hostile_name] {
        assert!(matches!(
            from_bytes::<MetricsSnapshot>(&hostile),
            Err(WireError::Truncated { .. })
        ));
    }
    // The retired `Stats` tags are unknown, and a v3 or v4 hello (whose
    // `Metrics` matrix had eight stages) is refused.
    assert!(matches!(
        RequestFrame::decode_body(&[0x02]),
        Err(ProtocolError::UnknownTag(0x02))
    ));
    assert!(matches!(
        ResponseFrame::decode_body(&[0x82]),
        Err(ProtocolError::UnknownTag(0x82))
    ));
    for old in [3u16, 4] {
        let mut hello = Vec::new();
        qbs_server::protocol::write_preamble(&mut hello).expect("preamble");
        hello[4..6].copy_from_slice(&old.to_le_bytes());
        assert!(matches!(
            read_preamble(&mut &hello[..]),
            Err(ProtocolError::VersionMismatch { ours: 5, theirs }) if theirs == old
        ));
    }
}

/// Error outcomes survive the wire exactly (the loopback differential
/// depends on poisoned pairs comparing equal).
#[test]
fn error_outcome_roundtrip() {
    let outcome = QueryOutcome::Error(RequestError::VertexOutOfRange {
        vertex: u64::MAX,
        num_vertices: 0,
    });
    assert_eq!(
        from_bytes::<QueryOutcome>(&to_bytes(&outcome)).unwrap(),
        outcome
    );
}
