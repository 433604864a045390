//! The frame codec's contract: every well-formed frame round-trips
//! bit-identically (property-tested over dimensionalities, batch sizes,
//! deadlines, tenants), and every member of a corpus of malformed frames
//! maps to its own *distinct typed* reject — never a panic.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ham_serve::frame::{
    decode_query_batch, encode_request, encode_response, read_request_header, read_request_payload,
    read_response, status_name, FrameError, SlotResult, DEADLINE_UNBOUNDED_US, MAX_DIM,
    REQUEST_HEADER_LEN, REQUEST_MAGIC, STATUS_OK, STATUS_QUOTA_EXCEEDED, WIRE_VERSION,
};
use hdc::prelude::*;
use proptest::prelude::*;

const CAP: u32 = 1 << 20;

fn queries(dim: usize, n: usize, seed: u64) -> Vec<Hypervector> {
    (0..n)
        .map(|i| Hypervector::random(Dimension::new(dim).unwrap(), seed ^ (i as u64) << 7))
        .collect()
}

fn decode_request(
    frame: &[u8],
) -> Result<(ham_serve::RequestHeader, ham_serve::QueryBatch), FrameError> {
    let mut cursor = Cursor::new(frame);
    // A clean EOF (empty input) is not a decode of this frame; surface
    // it as the truncation it is from the corpus's point of view.
    let header = read_request_header(&mut cursor, CAP)?.ok_or(FrameError::Truncated {
        expected: REQUEST_HEADER_LEN,
        got: 0,
    })?;
    let batch = read_request_payload(&mut cursor, &header)?;
    Ok((header, batch))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn request_frames_round_trip(
        dim in 1usize..2_000,
        count in 0usize..6,
        tenant in any::<u16>(),
        request_id in any::<u64>(),
        deadline_us in any::<u32>(),
        priority in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let qs = queries(dim, count, seed);
        let frame = encode_request(priority, tenant, request_id, deadline_us, &qs);
        let (header, batch) = decode_request(&frame).expect("well-formed frame decodes");
        prop_assert_eq!(header.tenant, tenant);
        prop_assert_eq!(header.request_id, request_id);
        prop_assert_eq!(header.deadline_us, deadline_us);
        prop_assert_eq!(header.priority, priority);
        prop_assert_eq!(batch.queries, qs);
    }

    #[test]
    fn response_frames_round_trip(
        tenant in any::<u16>(),
        request_id in any::<u64>(),
        count in 0usize..40,
        seed in any::<u64>(),
    ) {
        let slots: Vec<SlotResult> = (0..count)
            .map(|i| match (seed >> (i % 60)) & 3 {
                0 => SlotResult::TimedOut,
                1 => SlotResult::Shed,
                2 => SlotResult::Failed,
                _ => SlotResult::Hit {
                    class: (seed as u32).wrapping_add(i as u32),
                    distance: (seed >> 13) as u32 ^ i as u32,
                    margin: (seed >> 29) as u32 ^ i as u32,
                },
            })
            .collect();
        let frame = encode_response(STATUS_OK, tenant, request_id, &slots);
        let decoded = read_response(&mut Cursor::new(&frame), CAP)
            .expect("decodes")
            .expect("nonempty");
        prop_assert_eq!(decoded.status, STATUS_OK);
        prop_assert_eq!(decoded.tenant, tenant);
        prop_assert_eq!(decoded.request_id, request_id);
        prop_assert_eq!(decoded.slots, slots);
    }

    #[test]
    fn arbitrary_corruption_never_panics_the_decoder(
        dim in 1usize..512,
        flip_at in any::<u16>(),
        flip_mask in 1u8..=255,
        seed in any::<u64>(),
    ) {
        // Flip one byte anywhere in a valid frame: the decoder must
        // return *some* typed FrameError or a (possibly different)
        // valid decode — and never panic.
        let qs = queries(dim, 2, seed);
        let mut frame = encode_request(1, 7, 99, 1_000, &qs);
        let at = flip_at as usize % frame.len();
        frame[at] ^= flip_mask;
        let outcome = catch_unwind(AssertUnwindSafe(|| decode_request(&frame).map(|_| ())));
        prop_assert!(outcome.is_ok(), "decoder panicked on corrupted byte {}", at);
    }

    #[test]
    fn truncation_at_every_length_never_panics(
        dim in 1usize..256,
        cut_fraction in 0u8..=100,
        seed in any::<u64>(),
    ) {
        let qs = queries(dim, 1, seed);
        let frame = encode_request(0, 1, 2, DEADLINE_UNBOUNDED_US, &qs);
        let cut = (frame.len() * cut_fraction as usize) / 100;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            decode_request(&frame[..cut]).map(|_| ())
        }));
        prop_assert!(outcome.is_ok(), "decoder panicked at cut {}", cut);
        if cut < frame.len() {
            prop_assert!(decode_request(&frame[..cut]).is_err());
        }
    }

    #[test]
    fn bits_past_dim_are_ignored(
        // Every dim with a partial last word: 64·words + tail, tail in 1..64.
        dim in (0usize..16, 1usize..64).prop_map(|(words, tail)| 64 * words + tail),
        count in 1usize..4,
        junk in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let qs = queries(dim, count, seed);
        let clean = encode_request(0, 1, 2, DEADLINE_UNBOUNDED_US, &qs);
        // Set junk bits past `dim` in every query's last word, then re-armour
        // the frame so only the tail bits differ.
        let mut dirty = clean.clone();
        let row_bytes = dim.div_ceil(64) * 8;
        let tail = !0u64 << (dim % 64);
        for q in 0..count {
            let at = REQUEST_HEADER_LEN + 8 + (q + 1) * row_bytes - 8;
            let word = u64::from_le_bytes(dirty[at..at + 8].try_into().unwrap());
            let word = word | (junk | 1 << 63) & tail;
            dirty[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        let payload_crc = ham_core::resilience::snapshot::crc32(&dirty[REQUEST_HEADER_LEN..]);
        dirty[24..28].copy_from_slice(&payload_crc.to_le_bytes());
        refresh_header_crc(&mut dirty);
        prop_assert_ne!(&dirty, &clean);

        let (_, batch) = decode_request(&dirty).expect("tail bits are not a decode error");
        prop_assert_eq!(&batch.queries, &decode_request(&clean).unwrap().1.queries);
        for (decoded, sent) in batch.queries.iter().zip(&qs) {
            let in_dim = sent.as_bitvec().iter().filter(|&b| b).count();
            prop_assert_eq!(decoded.as_bitvec().count_ones(), in_dim);
        }
    }
}

/// `count` response slots derived from `seed`, every kind represented.
fn slots(count: usize, seed: u64) -> Vec<SlotResult> {
    (0..count)
        .map(|i| match (seed >> (i % 60)) & 3 {
            0 => SlotResult::TimedOut,
            1 => SlotResult::Shed,
            2 => SlotResult::Failed,
            _ => SlotResult::Hit {
                class: i as u32,
                distance: (seed >> 7) as u32,
                margin: (seed >> 40) as u32,
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn response_corruption_never_panics_the_decoder(
        count in 0usize..8,
        flip_at in any::<u16>(),
        flip_mask in 1u8..=255,
        seed in any::<u64>(),
    ) {
        let mut frame = encode_response(STATUS_OK, 3, 17, &slots(count, seed));
        let at = flip_at as usize % frame.len();
        frame[at] ^= flip_mask;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            read_response(&mut Cursor::new(&frame), CAP).map(|_| ())
        }));
        prop_assert!(outcome.is_ok(), "decoder panicked on corrupted byte {}", at);
        // Both CRCs cover every byte, so a flip never decodes silently.
        prop_assert!(read_response(&mut Cursor::new(&frame), CAP).is_err());
    }

    #[test]
    fn truncated_responses_are_errors_not_panics(
        count in 0usize..8,
        cut_fraction in 0u8..100,
        seed in any::<u64>(),
    ) {
        let frame = encode_response(STATUS_OK, 3, 17, &slots(count, seed));
        let cut = (frame.len() * cut_fraction as usize) / 100;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            read_response(&mut Cursor::new(&frame[..cut]), CAP).map(|_| ())
        }));
        prop_assert!(outcome.is_ok(), "decoder panicked at cut {}", cut);
        match read_response(&mut Cursor::new(&frame[..cut]), CAP) {
            Ok(None) => prop_assert_eq!(cut, 0),
            Err(FrameError::Truncated { .. }) => prop_assert!(cut > 0),
            other => prop_assert!(false, "cut {} decoded as {:?}", cut, other),
        }
    }

    #[test]
    fn back_to_back_requests_decode_frame_by_frame(
        dims in prop::collection::vec(1usize..300, 1..5),
        seed in any::<u64>(),
    ) {
        let batches: Vec<Vec<Hypervector>> = dims
            .iter()
            .enumerate()
            .map(|(i, &dim)| queries(dim, i % 3, seed ^ i as u64))
            .collect();
        let mut stream = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            stream.extend(encode_request(0, 1, i as u64, 100, batch));
        }
        let mut cursor = Cursor::new(&stream);
        for (i, batch) in batches.iter().enumerate() {
            let header = read_request_header(&mut cursor, CAP).unwrap().unwrap();
            prop_assert_eq!(header.request_id, i as u64);
            let decoded = read_request_payload(&mut cursor, &header).unwrap();
            prop_assert_eq!(&decoded.queries, batch);
        }
        prop_assert_eq!(read_request_header(&mut cursor, CAP), Ok(None));
    }
}

/// The malformed-frame corpus: each entry is one specific way a frame
/// can be wrong, and each maps to its own typed reject.
#[test]
fn malformed_corpus_maps_to_distinct_typed_rejects() {
    let qs = queries(256, 1, 0xC0FFEE);
    let valid = encode_request(5, 3, 11, 2_000, &qs);

    // Bad magic.
    let mut frame = valid.clone();
    frame[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        decode_request(&frame),
        Err(FrameError::BadMagic {
            got: [b'N', b'O', b'P', b'E']
        })
    ));

    // v0 header: version byte rolled back, header CRC refreshed so the
    // version check itself (not the checksum) is what fires.
    let mut frame = valid.clone();
    frame[4] = 0;
    refresh_header_crc(&mut frame);
    assert!(matches!(
        decode_request(&frame),
        Err(FrameError::UnsupportedVersion { got: 0 })
    ));

    // Future version is equally rejected.
    let mut frame = valid.clone();
    frame[4] = 9;
    refresh_header_crc(&mut frame);
    assert!(matches!(
        decode_request(&frame),
        Err(FrameError::UnsupportedVersion { got: 9 })
    ));

    // Header CRC corrupt (any header byte flipped without refresh).
    let mut frame = valid.clone();
    frame[9] ^= 0x40;
    assert!(matches!(
        decode_request(&frame),
        Err(FrameError::HeaderCrcMismatch { .. })
    ));

    // Length beyond the cap.
    let mut frame = valid.clone();
    frame[20..24].copy_from_slice(&(CAP + 1).to_le_bytes());
    refresh_header_crc(&mut frame);
    assert_eq!(
        decode_request(&frame).unwrap_err(),
        FrameError::Oversized {
            len: CAP + 1,
            cap: CAP
        }
    );

    // Payload CRC mismatch (payload byte flipped; header untouched).
    let mut frame = valid.clone();
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    let err = decode_request(&frame).unwrap_err();
    assert!(matches!(err, FrameError::PayloadCrcMismatch { .. }));
    assert!(!err.is_fatal(), "framing survived; connection should too");

    // Truncated mid-payload.
    let cut = &valid[..valid.len() - 3];
    let err = decode_request(cut).unwrap_err();
    assert!(matches!(err, FrameError::Truncated { .. }));
    assert!(err.is_fatal());

    // Malformed payloads (CRC valid, contents wrong) — rebuild the
    // frame around each hostile payload so only the parse can fail.
    for (payload, reason_contains) in [
        (vec![0u8; 4], "prefix"),             // shorter than dim+count
        (zero_dim_payload(), "zero"),         // dim == 0
        (huge_dim_payload(), "MAX_DIM"),      // dim > MAX_DIM
        (geometry_lie_payload(), "geometry"), // len ≠ dim×count
    ] {
        let err = decode_query_batch(&payload).unwrap_err();
        match err {
            FrameError::MalformedPayload { reason } => {
                assert!(
                    reason.contains(reason_contains),
                    "payload {payload:?} → wrong reason {reason:?}"
                );
            }
            other => panic!("expected MalformedPayload, got {other:?}"),
        }
    }

    // Every recoverable reject advertises a wire status, and the fatal
    // unanswerables advertise none.
    assert_eq!(
        FrameError::PayloadCrcMismatch {
            claimed: 1,
            computed: 2
        }
        .reject_status(),
        Some(ham_serve::frame::STATUS_BAD_PAYLOAD_CRC)
    );
    assert_eq!(FrameError::BadMagic { got: *b"NOPE" }.reject_status(), None);
    assert_eq!(
        FrameError::HeaderCrcMismatch {
            claimed: 0,
            computed: 1
        }
        .reject_status(),
        None
    );

    // Status names are stable and total.
    assert_eq!(status_name(STATUS_OK), "ok");
    assert_eq!(status_name(STATUS_QUOTA_EXCEEDED), "quota-exceeded");
    assert_eq!(status_name(200), "unknown");
    let _ = (REQUEST_MAGIC, WIRE_VERSION, REQUEST_HEADER_LEN, MAX_DIM);
}

fn refresh_header_crc(frame: &mut [u8]) {
    let crc = ham_core::resilience::snapshot::crc32(&frame[..REQUEST_HEADER_LEN - 4]);
    frame[REQUEST_HEADER_LEN - 4..REQUEST_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

fn zero_dim_payload() -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&0u32.to_le_bytes());
    p.extend_from_slice(&0u32.to_le_bytes());
    p
}

fn huge_dim_payload() -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&(MAX_DIM + 1).to_le_bytes());
    p.extend_from_slice(&0u32.to_le_bytes());
    p
}

fn geometry_lie_payload() -> Vec<u8> {
    // Declares two 64-bit queries but carries bytes for one.
    let mut p = Vec::new();
    p.extend_from_slice(&64u32.to_le_bytes());
    p.extend_from_slice(&2u32.to_le_bytes());
    p.extend_from_slice(&0u64.to_le_bytes());
    p
}
