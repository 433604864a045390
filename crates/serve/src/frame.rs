//! The wire format: length-prefixed, CRC-checked binary frames.
//!
//! Everything on the socket is one of two frames, both little-endian:
//!
//! ```text
//! request  (32-byte header + payload)
//!   off  len  field
//!    0    4   magic        b"HAMQ"
//!    4    1   version      1
//!    5    1   priority     shed order (ham_core::resilience::Priority)
//!    6    2   tenant       u16
//!    8    8   request_id   u64, echoed verbatim in the response
//!   16    4   deadline_us  remaining end-to-end budget in µs;
//!                          u32::MAX = unbounded, 0 = already expired
//!   20    4   payload_len  bytes of payload that follow the header
//!   24    4   payload_crc  CRC-32 of the payload bytes
//!   28    4   header_crc   CRC-32 of header bytes 0..28
//!
//! request payload
//!    0    4   dim          hypervector dimensionality (1..=MAX_DIM)
//!    4    4   count        queries in the batch
//!    8    …   count × ceil(dim/64) little-endian u64 words per query,
//!             bit i of a row in word i/64 at offset i%64; bits
//!             past dim in the last word are ignored
//!
//! response (28-byte header + payload)
//!    0    4   magic        b"HAMR"
//!    4    1   version      1
//!    5    1   status       wire status code (STATUS_*)
//!    6    2   tenant       echoed
//!    8    8   request_id   echoed
//!   16    4   payload_len
//!   20    4   payload_crc
//!   24    4   header_crc   CRC-32 of header bytes 0..24
//!
//! response payload (present only when status == STATUS_OK)
//!    0    4   count        one slot per query, input order
//!    4    …   count × 13-byte slots: status u8, class u32,
//!             distance u32, margin u32 (zeros for non-OK slots)
//! ```
//!
//! The CRCs reuse the snapshot format's slicing-by-8 CRC-32
//! ([`ham_core::resilience::snapshot::crc32`]), so one checksum
//! implementation covers both the disk and the wire.
//!
//! Decode policy: errors that leave the stream position trustworthy
//! (payload CRC mismatch, malformed payload — the length prefix was
//! honoured) are *recoverable*: the server answers with a typed reject
//! and keeps the connection. Everything else (bad magic, bad header CRC,
//! truncation, I/O) desynchronizes framing and is *fatal*:
//! the connection is closed. See [`FrameError::is_fatal`].

use std::io::{self, Read, Write};
use std::time::Duration;

use ham_core::resilience::snapshot::crc32;
use ham_core::resilience::QueryBudget;
use hdc::prelude::*;

/// First four bytes of every request frame.
pub const REQUEST_MAGIC: [u8; 4] = *b"HAMQ";
/// First four bytes of every response frame.
pub const RESPONSE_MAGIC: [u8; 4] = *b"HAMR";
/// The one protocol version this build speaks.
pub const WIRE_VERSION: u8 = 1;
/// Fixed request header size in bytes.
pub const REQUEST_HEADER_LEN: usize = 32;
/// Fixed response header size in bytes.
pub const RESPONSE_HEADER_LEN: usize = 28;
/// `deadline_us` value meaning "no deadline".
pub const DEADLINE_UNBOUNDED_US: u32 = u32::MAX;
/// Largest dimensionality a request may declare.
pub const MAX_DIM: u32 = 1 << 20;
/// Bytes of fixed per-slot encoding in a response payload.
pub const SLOT_LEN: usize = 13;

/// Wire status: the whole batch was served; per-query slots follow.
pub const STATUS_OK: u8 = 0;
/// Wire status: the header's version byte is not [`WIRE_VERSION`].
pub const STATUS_WRONG_VERSION: u8 = 1;
/// Wire status: the declared payload length exceeds the server's cap.
pub const STATUS_OVERSIZED: u8 = 2;
/// Wire status: the payload arrived intact-length but failed its CRC.
pub const STATUS_BAD_PAYLOAD_CRC: u8 = 3;
/// Wire status: the payload CRC passed but its contents don't parse.
pub const STATUS_MALFORMED_PAYLOAD: u8 = 4;
/// Wire status: the tenant id is not provisioned on this server.
pub const STATUS_UNKNOWN_TENANT: u8 = 5;
/// Wire status: the tenant's request quota is exhausted.
pub const STATUS_QUOTA_EXCEEDED: u8 = 6;
/// Wire status: the server is draining and accepts no new work.
pub const STATUS_DRAINING: u8 = 7;
/// Wire/slot status: shed by admission control under overload.
pub const STATUS_SHED: u8 = 8;
/// Wire/slot status: the deadline expired before this query ran.
pub const STATUS_TIMED_OUT: u8 = 9;
/// Wire/slot status: the query failed inside the engine.
pub const STATUS_FAILED: u8 = 10;

/// Human-readable name of a wire status code.
pub fn status_name(status: u8) -> &'static str {
    match status {
        STATUS_OK => "ok",
        STATUS_WRONG_VERSION => "wrong-version",
        STATUS_OVERSIZED => "oversized",
        STATUS_BAD_PAYLOAD_CRC => "bad-payload-crc",
        STATUS_MALFORMED_PAYLOAD => "malformed-payload",
        STATUS_UNKNOWN_TENANT => "unknown-tenant",
        STATUS_QUOTA_EXCEEDED => "quota-exceeded",
        STATUS_DRAINING => "draining",
        STATUS_SHED => "shed",
        STATUS_TIMED_OUT => "timed-out",
        STATUS_FAILED => "failed",
        _ => "unknown",
    }
}

/// Why a frame failed to decode. Each malformed input maps to a
/// *distinct* typed variant — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying read/write failed (kind preserved; a read timeout
    /// surfaces here as `WouldBlock`/`TimedOut` — the slow-loris bound).
    Io(io::ErrorKind),
    /// The stream closed mid-frame: `got` of `expected` bytes arrived.
    Truncated {
        /// Bytes the frame section needed.
        expected: usize,
        /// Bytes that actually arrived before EOF.
        got: usize,
    },
    /// The first four bytes are not the frame magic.
    BadMagic {
        /// The bytes that arrived where the magic belongs.
        got: [u8; 4],
    },
    /// The header checksum does not cover the received header bytes.
    HeaderCrcMismatch {
        /// CRC the header claims.
        claimed: u32,
        /// CRC of the bytes as received.
        computed: u32,
    },
    /// The version byte names a protocol this build does not speak.
    UnsupportedVersion {
        /// The version byte received.
        got: u8,
    },
    /// The declared payload length exceeds the receiver's cap.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The receiver's configured cap.
        cap: u32,
    },
    /// The payload arrived at its declared length but fails its CRC.
    PayloadCrcMismatch {
        /// CRC the header claims.
        claimed: u32,
        /// CRC of the payload as received.
        computed: u32,
    },
    /// The payload checksums correctly but its contents don't parse.
    MalformedPayload {
        /// What the parser rejected.
        reason: &'static str,
    },
}

impl FrameError {
    /// Whether this error desynchronizes framing (the receiver can no
    /// longer trust where the next frame starts) and must close the
    /// connection. Recoverable errors — payload CRC mismatch, malformed
    /// payload — consumed exactly the declared payload length, so the
    /// stream is still frame-aligned and the connection survives with a
    /// typed reject.
    pub fn is_fatal(&self) -> bool {
        !matches!(
            self,
            FrameError::PayloadCrcMismatch { .. } | FrameError::MalformedPayload { .. }
        )
    }

    /// The wire status code the server answers this decode error with
    /// (`None` when the error is unanswerable — bad magic or a broken
    /// header checksum mean nothing in the header can be echoed back).
    pub fn reject_status(&self) -> Option<u8> {
        match self {
            FrameError::UnsupportedVersion { .. } => Some(STATUS_WRONG_VERSION),
            FrameError::Oversized { .. } => Some(STATUS_OVERSIZED),
            FrameError::PayloadCrcMismatch { .. } => Some(STATUS_BAD_PAYLOAD_CRC),
            FrameError::MalformedPayload { .. } => Some(STATUS_MALFORMED_PAYLOAD),
            _ => None,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(kind) => write!(f, "i/o error: {kind:?}"),
            FrameError::Truncated { expected, got } => {
                write!(f, "stream closed mid-frame: {got} of {expected} bytes")
            }
            FrameError::BadMagic { got } => write!(f, "bad frame magic {got:02x?}"),
            FrameError::HeaderCrcMismatch { claimed, computed } => {
                write!(f, "header crc {computed:#010x} != claimed {claimed:#010x}")
            }
            FrameError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {WIRE_VERSION})"
                )
            }
            FrameError::Oversized { len, cap } => {
                write!(f, "declared payload {len} B exceeds cap {cap} B")
            }
            FrameError::PayloadCrcMismatch { claimed, computed } => {
                write!(f, "payload crc {computed:#010x} != claimed {claimed:#010x}")
            }
            FrameError::MalformedPayload { reason } => write!(f, "malformed payload: {reason}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e.kind())
    }
}

/// The fixed header of one request, validated (magic, CRC, version,
/// size cap) but with the payload not yet read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// Shed order of the batch.
    pub priority: u8,
    /// The tenant namespace this request targets.
    pub tenant: u16,
    /// Client-chosen id, echoed verbatim in the response.
    pub request_id: u64,
    /// Remaining end-to-end budget in µs ([`DEADLINE_UNBOUNDED_US`] =
    /// none).
    pub deadline_us: u32,
    /// Bytes of payload following the header.
    pub payload_len: u32,
    /// CRC-32 the payload must hash to.
    pub payload_crc: u32,
}

impl RequestHeader {
    /// The header's deadline as a batch budget, armed from *now* — the
    /// hook that folds a wire deadline into
    /// [`ResilientServer::serve_with_budget`](ham_core::resilience::ResilientServer::serve_with_budget).
    /// Zero µs is a legal, already-expired budget (the request is shed
    /// with typed timeouts before touching a shard), not an error.
    pub fn budget(&self) -> QueryBudget {
        if self.deadline_us == DEADLINE_UNBOUNDED_US {
            QueryBudget::unbounded()
        } else {
            QueryBudget::per_batch(Duration::from_micros(u64::from(self.deadline_us)))
        }
    }
}

/// A decoded request payload: the query batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBatch {
    /// Dimensionality every query shares.
    pub dim: u32,
    /// The queries, input order preserved end to end.
    pub queries: Vec<Hypervector>,
}

/// One per-query slot of an OK response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotResult {
    /// The query completed; the winning class and measured distance.
    Hit {
        /// Winning class id.
        class: u32,
        /// Measured Hamming distance of the winner.
        distance: u32,
        /// Winner-to-runner-up margin in bits.
        margin: u32,
    },
    /// The deadline expired before this query ran.
    TimedOut,
    /// Admission control shed this query under overload.
    Shed,
    /// The query failed inside the engine.
    Failed,
}

impl SlotResult {
    fn encode(self, out: &mut Vec<u8>) {
        let (status, class, distance, margin) = match self {
            SlotResult::Hit {
                class,
                distance,
                margin,
            } => (STATUS_OK, class, distance, margin),
            SlotResult::TimedOut => (STATUS_TIMED_OUT, 0, 0, 0),
            SlotResult::Shed => (STATUS_SHED, 0, 0, 0),
            SlotResult::Failed => (STATUS_FAILED, 0, 0, 0),
        };
        out.push(status);
        out.extend_from_slice(&class.to_le_bytes());
        out.extend_from_slice(&distance.to_le_bytes());
        out.extend_from_slice(&margin.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        let status = bytes[0];
        let word =
            |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("slot bounds"));
        match status {
            STATUS_OK => Ok(SlotResult::Hit {
                class: word(1),
                distance: word(5),
                margin: word(9),
            }),
            STATUS_TIMED_OUT => Ok(SlotResult::TimedOut),
            STATUS_SHED => Ok(SlotResult::Shed),
            STATUS_FAILED => Ok(SlotResult::Failed),
            _ => Err(FrameError::MalformedPayload {
                reason: "unknown slot status",
            }),
        }
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Request-level wire status ([`STATUS_OK`] means slots follow).
    pub status: u8,
    /// Echoed tenant id.
    pub tenant: u16,
    /// Echoed request id.
    pub request_id: u64,
    /// Per-query slots, input order (empty unless status is OK).
    pub slots: Vec<SlotResult>,
}

fn words_per_row(dim: u32) -> usize {
    (dim as usize).div_ceil(64)
}

/// Encodes a full request frame (header + payload) for `queries`.
///
/// All queries must share `dim`; callers hold that invariant (the
/// well-behaved client validates it before calling).
pub fn encode_request(
    priority: u8,
    tenant: u16,
    request_id: u64,
    deadline_us: u32,
    queries: &[Hypervector],
) -> Vec<u8> {
    let dim = queries.first().map_or(1, |q| q.dim().get() as u32);
    let mut payload = Vec::with_capacity(8 + queries.len() * words_per_row(dim) * 8);
    payload.extend_from_slice(&dim.to_le_bytes());
    payload.extend_from_slice(&(queries.len() as u32).to_le_bytes());
    for query in queries {
        let words = query.as_bitvec().as_words();
        for word in words {
            payload.extend_from_slice(&word.to_le_bytes());
        }
    }
    let mut frame = Vec::with_capacity(REQUEST_HEADER_LEN + payload.len());
    frame.extend_from_slice(&REQUEST_MAGIC);
    frame.push(WIRE_VERSION);
    frame.push(priority);
    frame.extend_from_slice(&tenant.to_le_bytes());
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.extend_from_slice(&deadline_us.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    let header_crc = crc32(&frame[..REQUEST_HEADER_LEN - 4]);
    frame.extend_from_slice(&header_crc.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Encodes a full response frame. Slots are included only under
/// [`STATUS_OK`]; rejects are header-only frames.
pub fn encode_response(status: u8, tenant: u16, request_id: u64, slots: &[SlotResult]) -> Vec<u8> {
    let payload = if status == STATUS_OK {
        let mut payload = Vec::with_capacity(4 + slots.len() * SLOT_LEN);
        payload.extend_from_slice(&(slots.len() as u32).to_le_bytes());
        for slot in slots {
            slot.encode(&mut payload);
        }
        payload
    } else {
        Vec::new()
    };
    let mut frame = Vec::with_capacity(RESPONSE_HEADER_LEN + payload.len());
    frame.extend_from_slice(&RESPONSE_MAGIC);
    frame.push(WIRE_VERSION);
    frame.push(status);
    frame.extend_from_slice(&tenant.to_le_bytes());
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    let header_crc = crc32(&frame[..RESPONSE_HEADER_LEN - 4]);
    frame.extend_from_slice(&header_crc.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Reads until `buf` is full or EOF; returns how many bytes arrived.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("header bounds"))
}

/// Reads and validates one request header. `Ok(None)` is a clean close
/// (EOF exactly at a frame boundary); EOF anywhere inside the header is
/// [`FrameError::Truncated`]. Validation order: magic, header CRC,
/// version, payload cap — so garbage fails loudly at the first field
/// that can't be trusted.
pub fn read_request_header(
    r: &mut impl Read,
    max_payload: u32,
) -> Result<Option<RequestHeader>, FrameError> {
    let mut header = [0u8; REQUEST_HEADER_LEN];
    let got = read_full(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if got < REQUEST_HEADER_LEN {
        return Err(FrameError::Truncated {
            expected: REQUEST_HEADER_LEN,
            got,
        });
    }
    if header[..4] != REQUEST_MAGIC {
        return Err(FrameError::BadMagic {
            got: header[..4].try_into().expect("magic bounds"),
        });
    }
    let claimed = le_u32(&header, REQUEST_HEADER_LEN - 4);
    let computed = crc32(&header[..REQUEST_HEADER_LEN - 4]);
    if claimed != computed {
        return Err(FrameError::HeaderCrcMismatch { claimed, computed });
    }
    if header[4] != WIRE_VERSION {
        return Err(FrameError::UnsupportedVersion { got: header[4] });
    }
    let payload_len = le_u32(&header, 20);
    if payload_len > max_payload {
        return Err(FrameError::Oversized {
            len: payload_len,
            cap: max_payload,
        });
    }
    Ok(Some(RequestHeader {
        priority: header[5],
        tenant: u16::from_le_bytes([header[6], header[7]]),
        request_id: u64::from_le_bytes(header[8..16].try_into().expect("header bounds")),
        deadline_us: le_u32(&header, 16),
        payload_len,
        payload_crc: le_u32(&header, 24),
    }))
}

/// Reads and decodes the payload a validated header declared. CRC and
/// parse failures here are *recoverable* (the declared length was
/// consumed, so framing holds); truncation and I/O errors are fatal.
pub fn read_request_payload(
    r: &mut impl Read,
    header: &RequestHeader,
) -> Result<QueryBatch, FrameError> {
    let mut payload = vec![0u8; header.payload_len as usize];
    let got = read_full(r, &mut payload)?;
    if got < payload.len() {
        return Err(FrameError::Truncated {
            expected: payload.len(),
            got,
        });
    }
    let computed = crc32(&payload);
    if computed != header.payload_crc {
        return Err(FrameError::PayloadCrcMismatch {
            claimed: header.payload_crc,
            computed,
        });
    }
    decode_query_batch(&payload)
}

/// Parses a CRC-verified request payload into its query batch. Bits
/// past `dim` in a row's last word are ignored: they are cleared, never
/// counted or compared.
pub fn decode_query_batch(payload: &[u8]) -> Result<QueryBatch, FrameError> {
    if payload.len() < 8 {
        return Err(FrameError::MalformedPayload {
            reason: "payload shorter than dim+count prefix",
        });
    }
    let dim = le_u32(payload, 0);
    let count = le_u32(payload, 4);
    if dim == 0 {
        return Err(FrameError::MalformedPayload {
            reason: "zero dimensionality",
        });
    }
    if dim > MAX_DIM {
        return Err(FrameError::MalformedPayload {
            reason: "dimensionality beyond MAX_DIM",
        });
    }
    let row_bytes = words_per_row(dim) * 8;
    let expected = 8
        + (count as usize)
            .checked_mul(row_bytes)
            .ok_or(FrameError::MalformedPayload {
                reason: "query count overflows payload arithmetic",
            })?;
    if expected != payload.len() {
        return Err(FrameError::MalformedPayload {
            reason: "payload length disagrees with dim×count geometry",
        });
    }
    let mut queries = Vec::with_capacity(count as usize);
    for q in 0..count as usize {
        let row = &payload[8 + q * row_bytes..8 + (q + 1) * row_bytes];
        let words: Vec<u64> = row
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk bounds")))
            .collect();
        let hv =
            Hypervector::from_bitvec(BitVec::from_words(words, dim as usize)).map_err(|_| {
                FrameError::MalformedPayload {
                    reason: "hypervector rejected by the HD layer",
                }
            })?;
        queries.push(hv);
    }
    Ok(QueryBatch { dim, queries })
}

/// Reads one full response frame (the client side of the codec).
/// `Ok(None)` is a clean close at a frame boundary.
pub fn read_response(r: &mut impl Read, max_payload: u32) -> Result<Option<Response>, FrameError> {
    let mut header = [0u8; RESPONSE_HEADER_LEN];
    let got = read_full(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if got < RESPONSE_HEADER_LEN {
        return Err(FrameError::Truncated {
            expected: RESPONSE_HEADER_LEN,
            got,
        });
    }
    if header[..4] != RESPONSE_MAGIC {
        return Err(FrameError::BadMagic {
            got: header[..4].try_into().expect("magic bounds"),
        });
    }
    let claimed = le_u32(&header, RESPONSE_HEADER_LEN - 4);
    let computed = crc32(&header[..RESPONSE_HEADER_LEN - 4]);
    if claimed != computed {
        return Err(FrameError::HeaderCrcMismatch { claimed, computed });
    }
    if header[4] != WIRE_VERSION {
        return Err(FrameError::UnsupportedVersion { got: header[4] });
    }
    let payload_len = le_u32(&header, 16);
    if payload_len > max_payload {
        return Err(FrameError::Oversized {
            len: payload_len,
            cap: max_payload,
        });
    }
    let mut payload = vec![0u8; payload_len as usize];
    let got = read_full(r, &mut payload)?;
    if got < payload.len() {
        return Err(FrameError::Truncated {
            expected: payload.len(),
            got,
        });
    }
    let computed = crc32(&payload);
    let claimed = le_u32(&header, 20);
    if computed != claimed {
        return Err(FrameError::PayloadCrcMismatch { claimed, computed });
    }
    let status = header[5];
    let slots = if status == STATUS_OK {
        if payload.len() < 4 {
            return Err(FrameError::MalformedPayload {
                reason: "OK response without slot count",
            });
        }
        let count = le_u32(&payload, 0) as usize;
        if payload.len() != 4 + count * SLOT_LEN {
            return Err(FrameError::MalformedPayload {
                reason: "slot count disagrees with payload length",
            });
        }
        (0..count)
            .map(|i| SlotResult::decode(&payload[4 + i * SLOT_LEN..4 + (i + 1) * SLOT_LEN]))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    Ok(Some(Response {
        status,
        tenant: u16::from_le_bytes([header[6], header[7]]),
        request_id: u64::from_le_bytes(header[8..16].try_into().expect("header bounds")),
        slots,
    }))
}

/// Writes a whole frame, mapping I/O failure into the frame taxonomy.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), FrameError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_queries(dim: usize, n: usize) -> Vec<Hypervector> {
        (0..n)
            .map(|i| Hypervector::random(Dimension::new(dim).unwrap(), 90 + i as u64))
            .collect()
    }

    #[test]
    fn request_round_trips_bit_identically() {
        for dim in [1usize, 63, 64, 65, 1000, 10_000] {
            let queries = sample_queries(dim, 3);
            let frame = encode_request(7, 42, 0xDEAD_BEEF, 1_500, &queries);
            let mut cursor = Cursor::new(frame);
            let header = read_request_header(&mut cursor, 1 << 20).unwrap().unwrap();
            assert_eq!(header.tenant, 42);
            assert_eq!(header.request_id, 0xDEAD_BEEF);
            assert_eq!(header.deadline_us, 1_500);
            assert_eq!(header.priority, 7);
            let batch = read_request_payload(&mut cursor, &header).unwrap();
            assert_eq!(batch.dim as usize, dim);
            assert_eq!(batch.queries, queries);
        }
    }

    #[test]
    fn response_round_trips_including_error_slots() {
        let slots = vec![
            SlotResult::Hit {
                class: 3,
                distance: 417,
                margin: 12,
            },
            SlotResult::TimedOut,
            SlotResult::Shed,
            SlotResult::Failed,
        ];
        let frame = encode_response(STATUS_OK, 9, 77, &slots);
        let decoded = read_response(&mut Cursor::new(frame), 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!(decoded.status, STATUS_OK);
        assert_eq!(decoded.tenant, 9);
        assert_eq!(decoded.request_id, 77);
        assert_eq!(decoded.slots, slots);

        // Rejects are header-only and carry no slots.
        let reject = encode_response(STATUS_QUOTA_EXCEEDED, 9, 78, &slots);
        assert_eq!(reject.len(), RESPONSE_HEADER_LEN);
        let decoded = read_response(&mut Cursor::new(reject), 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!(decoded.status, STATUS_QUOTA_EXCEEDED);
        assert!(decoded.slots.is_empty());
    }

    #[test]
    fn clean_eof_is_none_and_partial_eof_is_truncated() {
        let empty: &[u8] = &[];
        assert_eq!(
            read_request_header(&mut Cursor::new(empty), 64).unwrap(),
            None
        );
        let frame = encode_request(0, 1, 2, DEADLINE_UNBOUNDED_US, &sample_queries(64, 1));
        let cut = &frame[..REQUEST_HEADER_LEN - 5];
        assert_eq!(
            read_request_header(&mut Cursor::new(cut), 1 << 20),
            Err(FrameError::Truncated {
                expected: REQUEST_HEADER_LEN,
                got: REQUEST_HEADER_LEN - 5,
            })
        );
    }

    #[test]
    fn deadline_maps_to_budget() {
        let mut header = RequestHeader {
            priority: 0,
            tenant: 0,
            request_id: 0,
            deadline_us: DEADLINE_UNBOUNDED_US,
            payload_len: 0,
            payload_crc: 0,
        };
        assert_eq!(header.budget(), QueryBudget::unbounded());
        header.deadline_us = 0;
        assert!(header.budget().arm().expired());
        header.deadline_us = 2_000;
        assert_eq!(
            header.budget(),
            QueryBudget::per_batch(Duration::from_millis(2))
        );
    }
}
