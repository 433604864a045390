//! Wire-level chaos: a seeded fault injector that speaks *hostile* TCP
//! at the server — truncated frames, slow-loris trickles, mid-request
//! disconnects, garbage and oversized headers, half-open sockets.
//!
//! The contract the chaos suite asserts: the server never panics, never
//! leaks a thread, and every *surviving* request on every *surviving*
//! connection still gets a result or a typed error. Faults are
//! enumerated ([`ChaosFault::ALL`]) and all randomness flows from a
//! SplitMix64 seed, so a failing case replays exactly.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use hdc::prelude::*;

use crate::frame::{
    encode_request, read_response, Response, DEADLINE_UNBOUNDED_US, REQUEST_HEADER_LEN,
};

/// One kind of hostile wire behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Send only a prefix of the 32-byte header, then close.
    TruncatedHeader,
    /// Send a full header promising a payload, a prefix of the payload,
    /// then close (the mid-request disconnect).
    TruncatedPayload,
    /// Send seeded random bytes where a header belongs.
    GarbageHeader,
    /// A valid-looking header whose magic is wrong.
    BadMagic,
    /// A CRC-valid header declaring an unsupported protocol version.
    WrongVersion,
    /// A CRC-valid header declaring a payload far beyond the cap.
    OversizedLength,
    /// A valid header whose header CRC field is corrupted.
    BadHeaderCrc,
    /// A valid frame whose payload bytes are flipped after the CRC was
    /// computed (payload CRC mismatch; framing stays intact).
    BadPayloadCrc,
    /// Trickle a valid frame one byte at a time with delays — the
    /// slow-loris. The server's read timeout bounds how long this can
    /// hold a connection thread.
    SlowLoris,
    /// Connect, send nothing, and hold the socket half-open.
    HalfOpen,
}

impl ChaosFault {
    /// Every fault, for exhaustive sweeps.
    pub const ALL: [ChaosFault; 10] = [
        ChaosFault::TruncatedHeader,
        ChaosFault::TruncatedPayload,
        ChaosFault::GarbageHeader,
        ChaosFault::BadMagic,
        ChaosFault::WrongVersion,
        ChaosFault::OversizedLength,
        ChaosFault::BadHeaderCrc,
        ChaosFault::BadPayloadCrc,
        ChaosFault::SlowLoris,
        ChaosFault::HalfOpen,
    ];

    /// Whether the server is expected to answer this fault with a typed
    /// reject before closing/keeping the connection (versus silently
    /// closing a stream it can no longer trust).
    pub fn expects_reject(self) -> bool {
        matches!(
            self,
            ChaosFault::WrongVersion | ChaosFault::OversizedLength | ChaosFault::BadPayloadCrc
        )
    }
}

/// What one injected fault produced, as observed from the client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The server answered with a typed reject frame (wire status).
    Rejected {
        /// The response's status code.
        status: u8,
        /// Whether the connection still worked for a follow-up probe.
        connection_survived: bool,
    },
    /// The server closed the connection without answering (correct for
    /// unanswerable garbage).
    Closed,
    /// The fault held the socket open and the injector abandoned it
    /// (half-open / slow-loris whose socket the server timed out).
    Abandoned,
}

/// SplitMix64 — the injector's only randomness, fully determined by the
/// seed it was built with.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A seeded generator.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The seeded hostile transport.
#[derive(Debug)]
pub struct ChaosTransport {
    addr: SocketAddr,
    rng: ChaosRng,
    tenant: u16,
    dim: usize,
    /// Per-read timeout when the injector expects an answer.
    pub read_timeout: Duration,
}

impl ChaosTransport {
    /// An injector aimed at `addr`, building frames for `tenant` with
    /// `dim`-bit queries, seeded with `seed`.
    pub fn new(addr: SocketAddr, tenant: u16, dim: usize, seed: u64) -> Self {
        ChaosTransport {
            addr,
            rng: ChaosRng::new(seed),
            tenant,
            dim,
            read_timeout: Duration::from_secs(5),
        }
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        Ok(stream)
    }

    fn valid_frame(&mut self) -> Vec<u8> {
        let query = Hypervector::random(
            Dimension::new(self.dim).expect("chaos dim nonzero"),
            self.rng.next_u64(),
        );
        encode_request(
            128,
            self.tenant,
            self.rng.next_u64(),
            DEADLINE_UNBOUNDED_US,
            &[query],
        )
    }

    /// After a fault that should keep the connection alive, verify it by
    /// sending one well-formed request on the same stream.
    fn probe(&mut self, stream: &mut TcpStream) -> Option<Response> {
        let frame = self.valid_frame();
        stream.write_all(&frame).ok()?;
        stream.flush().ok()?;
        read_response(stream, 1 << 20).ok().flatten()
    }

    /// Injects one fault and reports what the server did. Never panics;
    /// every socket the injector opens is closed or abandoned before
    /// returning.
    pub fn inject(&mut self, fault: ChaosFault) -> std::io::Result<ChaosOutcome> {
        let mut stream = self.connect()?;
        match fault {
            ChaosFault::TruncatedHeader => {
                let frame = self.valid_frame();
                let cut = 1 + self.rng.below((REQUEST_HEADER_LEN - 1) as u64) as usize;
                stream.write_all(&frame[..cut])?;
                stream.flush()?;
                let _ = stream.shutdown(Shutdown::Write);
                Ok(self.drain_close(stream))
            }
            ChaosFault::TruncatedPayload => {
                let frame = self.valid_frame();
                let payload_len = frame.len() - REQUEST_HEADER_LEN;
                let cut = REQUEST_HEADER_LEN + self.rng.below(payload_len as u64) as usize;
                stream.write_all(&frame[..cut])?;
                stream.flush()?;
                let _ = stream.shutdown(Shutdown::Write);
                Ok(self.drain_close(stream))
            }
            ChaosFault::GarbageHeader => {
                let mut garbage = vec![0u8; REQUEST_HEADER_LEN + 32];
                for byte in &mut garbage {
                    *byte = self.rng.next_u64() as u8;
                }
                stream.write_all(&garbage)?;
                stream.flush()?;
                let _ = stream.shutdown(Shutdown::Write);
                Ok(self.drain_close(stream))
            }
            ChaosFault::BadMagic => {
                let mut frame = self.valid_frame();
                frame[0] ^= 0xFF;
                stream.write_all(&frame)?;
                stream.flush()?;
                let _ = stream.shutdown(Shutdown::Write);
                Ok(self.drain_close(stream))
            }
            ChaosFault::WrongVersion => {
                let mut frame = self.valid_frame();
                frame[4] = 0; // the "v0 header" of the malformed corpus
                refresh_header_crc(&mut frame);
                stream.write_all(&frame)?;
                stream.flush()?;
                Ok(self.read_reject(stream, fault))
            }
            ChaosFault::OversizedLength => {
                let mut frame = self.valid_frame();
                frame[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
                refresh_header_crc(&mut frame);
                stream.write_all(&frame[..REQUEST_HEADER_LEN])?;
                stream.flush()?;
                Ok(self.read_reject(stream, fault))
            }
            ChaosFault::BadHeaderCrc => {
                let mut frame = self.valid_frame();
                let at = REQUEST_HEADER_LEN - 4 + self.rng.below(4) as usize;
                frame[at] ^= 0x55;
                stream.write_all(&frame)?;
                stream.flush()?;
                let _ = stream.shutdown(Shutdown::Write);
                Ok(self.drain_close(stream))
            }
            ChaosFault::BadPayloadCrc => {
                let mut frame = self.valid_frame();
                let payload_len = frame.len() - REQUEST_HEADER_LEN;
                let at = REQUEST_HEADER_LEN + self.rng.below(payload_len as u64) as usize;
                frame[at] ^= 0x01;
                stream.write_all(&frame)?;
                stream.flush()?;
                // Framing survived: the server must reject *and* keep
                // the connection serving.
                match read_response(&mut stream, 1 << 20) {
                    Ok(Some(response)) => {
                        let survived = self.probe(&mut stream).is_some();
                        Ok(ChaosOutcome::Rejected {
                            status: response.status,
                            connection_survived: survived,
                        })
                    }
                    _ => Ok(ChaosOutcome::Closed),
                }
            }
            ChaosFault::SlowLoris => {
                let frame = self.valid_frame();
                // Trickle a handful of bytes, then stall past nothing —
                // the server's read timeout is what ends this, so the
                // injector just abandons the socket.
                let trickle = 4 + self.rng.below(8) as usize;
                for byte in frame.iter().take(trickle) {
                    if stream.write_all(std::slice::from_ref(byte)).is_err() {
                        break;
                    }
                    let _ = stream.flush();
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(ChaosOutcome::Abandoned)
            }
            ChaosFault::HalfOpen => Ok(ChaosOutcome::Abandoned),
        }
    }

    /// Reads whatever typed reject the server sends, then reports
    /// whether the stream still serves.
    fn read_reject(&mut self, mut stream: TcpStream, fault: ChaosFault) -> ChaosOutcome {
        match read_response(&mut stream, 1 << 20) {
            Ok(Some(response)) => {
                let survived =
                    fault == ChaosFault::BadPayloadCrc && self.probe(&mut stream).is_some();
                ChaosOutcome::Rejected {
                    status: response.status,
                    connection_survived: survived,
                }
            }
            _ => ChaosOutcome::Closed,
        }
    }

    /// Waits for the server to close (read returns 0/err) — the silent
    /// close expected for unanswerable garbage.
    fn drain_close(&self, mut stream: TcpStream) -> ChaosOutcome {
        let mut sink = [0u8; 256];
        loop {
            match stream.read(&mut sink) {
                Ok(0) => return ChaosOutcome::Closed,
                Ok(_) => continue,
                Err(_) => return ChaosOutcome::Closed,
            }
        }
    }
}

/// Recomputes the header CRC after a deliberate field edit, so faults
/// like WrongVersion test the *semantic* check rather than tripping the
/// checksum first.
fn refresh_header_crc(frame: &mut [u8]) {
    use ham_core::resilience::snapshot::crc32;
    let crc = crc32(&frame[..REQUEST_HEADER_LEN - 4]);
    frame[REQUEST_HEADER_LEN - 4..REQUEST_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameError;

    #[test]
    fn chaos_rng_is_splitmix64() {
        // The published SplitMix64 sequence from state 0.
        let mut rng = ChaosRng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
        // Same seed, same stream; another seed, another stream.
        let draw = |seed| {
            let mut rng = ChaosRng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(77), draw(77));
        assert_ne!(draw(77), draw(78));
    }

    #[test]
    fn below_stays_under_its_bound_and_covers_it() {
        let mut rng = ChaosRng::new(5);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        assert_eq!(ChaosRng::new(9).below(1), 0);
    }

    #[test]
    fn exactly_the_answerable_faults_expect_a_reject() {
        // Every fault listed once.
        for (i, a) in ChaosFault::ALL.iter().enumerate() {
            assert!(!ChaosFault::ALL[i + 1..].contains(a), "{a:?} listed twice");
        }
        // A fault expects a reject exactly when the decode error it
        // provokes carries a wire status.
        let provoked = |fault| match fault {
            ChaosFault::WrongVersion => Some(FrameError::UnsupportedVersion { got: 0 }),
            ChaosFault::OversizedLength => Some(FrameError::Oversized { len: 2, cap: 1 }),
            ChaosFault::BadPayloadCrc => Some(FrameError::PayloadCrcMismatch {
                claimed: 0,
                computed: 1,
            }),
            ChaosFault::BadMagic => Some(FrameError::BadMagic { got: *b"JUNK" }),
            ChaosFault::BadHeaderCrc => Some(FrameError::HeaderCrcMismatch {
                claimed: 0,
                computed: 1,
            }),
            ChaosFault::TruncatedHeader | ChaosFault::TruncatedPayload => {
                Some(FrameError::Truncated {
                    expected: REQUEST_HEADER_LEN,
                    got: 1,
                })
            }
            // Garbage may happen to parse as anything; the stream faults
            // provoke no decode error at all.
            ChaosFault::GarbageHeader | ChaosFault::SlowLoris | ChaosFault::HalfOpen => None,
        };
        for fault in ChaosFault::ALL {
            if let Some(err) = provoked(fault) {
                assert_eq!(
                    fault.expects_reject(),
                    err.reject_status().is_some(),
                    "{fault:?}"
                );
            } else {
                assert!(!fault.expects_reject(), "{fault:?}");
            }
        }
        let rejecting = ChaosFault::ALL
            .iter()
            .filter(|fault| fault.expects_reject())
            .count();
        assert_eq!(rejecting, 3);
    }
}
