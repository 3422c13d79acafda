//! Wire-protocol properties: every frame type round-trips bit-exactly,
//! and every malformed input — truncation at any offset, corrupted
//! bytes, hostile headers — produces a typed [`ProtoError`], never a
//! panic and never a silently wrong frame.

use cslack_obs::flight::{encode_decision, encode_event, FlightEvent, StampedDecision};
use cslack_obs::timeline::TimelineStamps;
use cslack_obs::trace::{DecisionEvent, RejectReason};
use cslack_server::proto::{
    self, encode_frame, read_frame, Frame, ProtoError, RejectCode, TenantStats, TenantSummary,
    WireJob, HEADER_LEN, MAGIC, MAX_FRAME, VERSION,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..128, 0..12).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| char::from_u32(97 + c % 26).unwrap())
            .collect()
    })
}

fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    (any::<bool>(), -1e6f64..1e6).prop_map(|(some, v)| some.then_some(v))
}

fn arb_opt_u32() -> impl Strategy<Value = Option<u32>> {
    (any::<bool>(), any::<u32>()).prop_map(|(some, v)| some.then_some(v))
}

/// A committed `(machine, start)`: the record stores a placement as a
/// pair, as every engine decision makes it.
fn arb_placement() -> impl Strategy<Value = Option<(u32, f64)>> {
    (any::<bool>(), any::<u32>(), -1e6f64..1e6).prop_map(|(some, m, s)| some.then_some((m, s)))
}

fn arb_wire_job() -> impl Strategy<Value = WireJob> {
    (any::<u32>(), -1e9f64..1e9, -1e9f64..1e9, -1e9f64..1e9).prop_map(
        |(id, release, proc_time, deadline)| WireJob {
            id,
            release,
            proc_time,
            deadline,
        },
    )
}

fn arb_reject_code() -> impl Strategy<Value = RejectCode> {
    prop_oneof![
        Just(RejectCode::Protocol),
        Just(RejectCode::Malformed),
        Just(RejectCode::UnknownTenant),
        Just(RejectCode::DuplicateJob),
        Just(RejectCode::ShardFailed),
        Just(RejectCode::Closed),
        Just(RejectCode::Undecided),
        Just(RejectCode::BadState),
    ]
}

fn arb_reject_reason() -> impl Strategy<Value = Option<RejectReason>> {
    (any::<bool>(), 0usize..RejectReason::ALL.len())
        .prop_map(|(some, i)| some.then(|| RejectReason::ALL[i]))
}

fn arb_decision() -> impl Strategy<Value = DecisionEvent> {
    // Tuple strategies cap at 8 elements; split the 12 draws across
    // two tuples and zip them with prop_map over a pair.
    let head = (
        any::<u64>(),
        any::<u32>(),
        0usize..64,
        -1e9f64..1e9,
        1e-9f64..1e9,
        -1e9f64..1e9,
        any::<u32>(),
        arb_opt_f64(),
    );
    let tail = (
        arb_opt_f64(),
        any::<bool>(),
        arb_placement(),
        arb_reject_reason(),
    );
    (head, tail).prop_map(|(head, tail)| {
        let (seq, job, shard, release, proc_time, deadline, candidates, threshold) = head;
        let (min_load, accepted, placement, reject_reason) = tail;
        DecisionEvent {
            seq,
            job,
            shard,
            release,
            proc_time,
            deadline,
            candidates,
            threshold,
            min_load,
            accepted,
            machine: placement.map(|(m, _)| m),
            start: placement.map(|(_, s)| s),
            reject_reason,
        }
    })
}

fn arb_stamped() -> impl Strategy<Value = StampedDecision> {
    (arb_decision(), prop::collection::vec(any::<u64>(), 7)).prop_map(|(event, stamps)| {
        let stamps: [u64; 7] = stamps.try_into().unwrap();
        StampedDecision::new(event, TimelineStamps(stamps))
    })
}

/// Every one of the eleven frame types, with fully randomized content.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_string().prop_map(|tenant| Frame::Hello { tenant }),
        (
            arb_string(),
            any::<u32>(),
            -10f64..10.0,
            any::<u32>(),
            any::<u64>(),
            arb_string(),
            any::<u32>(),
        )
            .prop_map(
                |(tenant, m, eps, shards, seed, algorithm, inflight_limit)| Frame::HelloAck {
                    tenant,
                    m,
                    eps,
                    shards,
                    seed,
                    algorithm,
                    inflight_limit,
                }
            ),
        (prop::collection::vec(arb_wire_job(), 0..20), any::<u64>()).prop_map(
            |(jobs, client_send_ns)| Frame::SubmitBatch {
                jobs,
                client_send_ns,
            }
        ),
        arb_stamped().prop_map(Frame::Decision),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(inflight, limit, refused)| {
            Frame::Backpressure {
                inflight,
                limit,
                refused,
            }
        }),
        (arb_opt_u32(), arb_reject_code(), arb_string())
            .prop_map(|(job, code, detail)| Frame::Reject { job, code, detail }),
        Just(Frame::StatsRequest),
        (
            arb_string(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
        )
            .prop_map(
                |(tenant, submitted, accepted, rejected, stalls, inflight, drained)| {
                    Frame::Stats(TenantStats {
                        tenant,
                        submitted,
                        accepted,
                        rejected,
                        backpressure_stalls: stalls,
                        inflight,
                        drained,
                    })
                }
            ),
        Just(Frame::Drain),
        (
            arb_string(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            -1e9f64..1e9,
            -1e9f64..1e9,
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(
                |(tenant, submitted, accepted, rejected, load, makespan, machines, failed)| {
                    Frame::Summary(TenantSummary {
                        tenant,
                        submitted,
                        accepted,
                        rejected,
                        accepted_load: load,
                        makespan,
                        machines,
                        failed_shards: failed,
                    })
                }
            ),
    ]
}

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// encode → decode is the identity for every frame type.
    #[test]
    fn every_frame_round_trips(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let back = read_frame(&mut bytes.as_slice()).expect("well-formed frame must decode");
        prop_assert_eq!(back, frame);
    }

    /// Truncating a valid frame at ANY byte boundary yields a typed
    /// error (never a panic, never a bogus frame). A cut inside one
    /// frame can never resynchronize into a valid one.
    #[test]
    fn truncation_at_every_offset_is_typed(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            match read_frame(&mut &bytes[..cut]) {
                Err(ProtoError::Eof) => prop_assert_eq!(cut, 0, "Eof only at a frame boundary"),
                Err(ProtoError::Truncated) => {}
                other => panic!("cut at {cut}/{} gave {other:?}", bytes.len()),
            }
        }
    }

    /// Flipping any single byte of a valid frame is caught: by the
    /// header validation if it hits the header, by the checksum
    /// otherwise. No flip may decode into a *different* valid frame.
    #[test]
    fn single_byte_corruption_is_caught(frame in arb_frame(), pos in any::<usize>(), bit in 0u32..8) {
        let bytes = encode_frame(&frame);
        let mut corrupt = bytes.clone();
        let pos = pos % corrupt.len();
        corrupt[pos] ^= 1 << bit;
        match read_frame(&mut corrupt.as_slice()) {
            // A flip in the length field can make the frame read past
            // its end (Truncated) or beyond the cap (Oversized); any
            // other flip must be BadMagic/BadVersion/BadChecksum.
            Err(
                ProtoError::BadMagic(_)
                | ProtoError::BadVersion(_)
                | ProtoError::BadChecksum
                | ProtoError::Oversized(_)
                | ProtoError::Truncated,
            ) => {}
            Ok(decoded) => panic!("corrupted byte {pos} decoded as {decoded:?}"),
            Err(other) => panic!("corrupted byte {pos} gave unexpected error {other:?}"),
        }
    }

    /// A `Decision` frame's payload is byte for byte the flight record
    /// of the same decision: one encoding, wherever a decision goes.
    #[test]
    fn decision_payload_is_the_flight_record(d in arb_stamped()) {
        let bytes = encode_frame(&Frame::Decision(d.clone()));
        let payload = &bytes[HEADER_LEN..bytes.len() - 4];
        prop_assert_eq!(payload, &encode_decision(&d)[..]);
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(&mut bytes.as_slice());
    }
}

// ---------------------------------------------------------------------
// Hostile-header cases
// ---------------------------------------------------------------------

/// A syntactically valid header + checksum around an arbitrary payload,
/// for forging frames the encoder would never produce.
fn forge(version: u8, type_byte: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(version);
    buf.push(type_byte);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = proto::fnv1a32(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

#[test]
fn bad_magic_is_rejected_before_anything_else() {
    let mut bytes = encode_frame(&Frame::Drain);
    bytes[0] ^= 0xFF;
    let wrong = u16::from_le_bytes([bytes[0], bytes[1]]);
    assert_eq!(
        read_frame(&mut bytes.as_slice()),
        Err(ProtoError::BadMagic(wrong))
    );
}

#[test]
fn wrong_version_is_rejected() {
    // Versions 1 to 4 are gone: every peer speaks the current one.
    for version in [1, 2, 3, 4, VERSION + 1] {
        let bytes = forge(version, 0x09, &[]);
        assert_eq!(
            read_frame(&mut bytes.as_slice()),
            Err(ProtoError::BadVersion(version))
        );
    }
}

#[test]
fn oversized_length_is_rejected_without_allocation() {
    // Header announces 4 GiB-ish payload; the reader must refuse from
    // the header alone (this test would OOM or hang otherwise).
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    buf.push(0x03);
    buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    assert_eq!(
        read_frame(&mut buf.as_slice()),
        Err(ProtoError::Oversized(MAX_FRAME + 1))
    );
}

#[test]
fn unknown_frame_type_is_recoverable() {
    let bytes = forge(VERSION, 0x7F, &[]);
    let err = read_frame(&mut bytes.as_slice()).unwrap_err();
    assert_eq!(err, ProtoError::UnknownType(0x7F));
    assert!(
        !err.is_fatal(),
        "framing is still in sync after a full read"
    );
}

#[test]
fn hostile_submit_count_is_rejected_before_allocation() {
    // A SubmitBatch claiming u32::MAX jobs right after its client
    // stamp: the count sanity check must fire before
    // `Vec::with_capacity`.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes()); // client_send_ns
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let bytes = forge(VERSION, 0x03, &payload);
    assert_eq!(
        read_frame(&mut bytes.as_slice()),
        Err(ProtoError::Malformed("job count exceeds payload"))
    );
}

#[test]
fn decision_payload_must_be_one_decision_record() {
    let submission = FlightEvent::Submission {
        seq: 0,
        shard: 0,
        job: 1,
        release: 0.0,
        proc_time: 1.0,
        deadline: 3.0,
    };
    let record = encode_event(&submission);
    let not_decision = Err(ProtoError::Malformed("not a decision record"));
    assert_eq!(
        read_frame(&mut forge(VERSION, 0x04, &record).as_slice()),
        not_decision
    );
    let mut bad_reason = encode_event(&submission);
    bad_reason[0] = 1; // decision kind
    bad_reason[1] = 1 << 4; // reason flagged
    bad_reason[2] = 9; // but no such reason
    assert_eq!(
        read_frame(&mut forge(VERSION, 0x04, &bad_reason).as_slice()),
        not_decision
    );
    // One byte short or one byte over is no record at all.
    let decision = encode_event(&FlightEvent::Decision(StampedDecision::new(
        DecisionEvent {
            seq: 0,
            job: 1,
            shard: 0,
            release: 0.0,
            proc_time: 1.0,
            deadline: 3.0,
            candidates: 1,
            threshold: None,
            min_load: None,
            accepted: false,
            machine: None,
            start: None,
            reject_reason: Some(RejectReason::ThresholdExceeded),
        },
        TimelineStamps::empty(),
    )));
    assert_eq!(
        read_frame(&mut forge(VERSION, 0x04, &decision[1..]).as_slice()),
        Err(ProtoError::Malformed("payload shorter than field"))
    );
    let mut long = decision.to_vec();
    long.push(0);
    assert_eq!(
        read_frame(&mut forge(VERSION, 0x04, &long).as_slice()),
        Err(ProtoError::Malformed("trailing bytes after payload"))
    );
}

#[test]
fn trailing_bytes_are_an_error() {
    // A Drain frame with one smuggled payload byte.
    let bytes = forge(VERSION, 0x09, &[0xAA]);
    assert_eq!(
        read_frame(&mut bytes.as_slice()),
        Err(ProtoError::Malformed("trailing bytes after payload"))
    );
}

#[test]
fn overlong_string_is_rejected() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(proto::MAX_STRING as u32 + 1).to_le_bytes());
    let bytes = forge(VERSION, 0x01, &payload);
    assert_eq!(
        read_frame(&mut bytes.as_slice()),
        Err(ProtoError::Malformed("string field over length cap"))
    );
}

#[test]
fn non_utf8_string_is_rejected() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&[0xFF, 0xFE]);
    let bytes = forge(VERSION, 0x01, &payload);
    assert_eq!(
        read_frame(&mut bytes.as_slice()),
        Err(ProtoError::Malformed("string not UTF-8"))
    );
}

#[test]
fn fatality_is_exactly_the_resync_boundary() {
    // Recoverable: the frame was fully read, the stream is in sync.
    assert!(!ProtoError::UnknownType(0x50).is_fatal());
    assert!(!ProtoError::Malformed("x").is_fatal());
    // Fatal: sync is lost or the transport itself failed.
    for fatal in [
        ProtoError::Eof,
        ProtoError::Truncated,
        ProtoError::BadMagic(0),
        ProtoError::BadVersion(9),
        ProtoError::Oversized(u32::MAX),
        ProtoError::BadChecksum,
        ProtoError::Io("broken pipe".into()),
    ] {
        assert!(fatal.is_fatal(), "{fatal:?}");
    }
}

#[test]
fn back_to_back_frames_stream_in_order() {
    let frames = [
        Frame::Hello {
            tenant: "alpha".into(),
        },
        Frame::SubmitBatch {
            jobs: vec![WireJob {
                id: 7,
                release: 0.0,
                proc_time: 1.0,
                deadline: 3.0,
            }],
            client_send_ns: 0,
        },
        Frame::StatsRequest,
        Frame::Drain,
    ];
    let mut wire = Vec::new();
    for frame in &frames {
        wire.extend_from_slice(&encode_frame(frame));
    }
    let mut r = wire.as_slice();
    for frame in &frames {
        assert_eq!(&read_frame(&mut r).unwrap(), frame);
    }
    assert_eq!(read_frame(&mut r), Err(ProtoError::Eof));
    assert_eq!(
        wire.len(),
        frames.iter().map(|f| encode_frame(f).len()).sum::<usize>()
    );
    let _ = HEADER_LEN; // layout constant is part of the public contract
}
