//! The well-behaved reference client: one TCP connection, one request
//! in flight, typed errors.
//!
//! The client is deliberately strict where the server is deliberately
//! tolerant: it validates query geometry before encoding, armours its
//! frames with both CRCs, and treats any decode error from the server
//! as fatal to the connection.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hdc::prelude::*;

use crate::frame::{
    encode_request, read_response, write_frame, FrameError, Response, DEADLINE_UNBOUNDED_US,
};

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Connecting or socket configuration failed.
    Io(io::ErrorKind),
    /// The server's bytes did not decode as a response frame.
    Frame(FrameError),
    /// The server closed the connection instead of answering.
    ServerClosed,
    /// The queries in one batch must share a dimensionality.
    MixedDimensions,
    /// An empty batch has nothing to send.
    EmptyBatch,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(kind) => write!(f, "i/o error: {kind:?}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::MixedDimensions => {
                write!(f, "queries in one batch must share a dimensionality")
            }
            ClientError::EmptyBatch => write!(f, "refusing to send an empty batch"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e.kind())
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking client over one connection.
#[derive(Debug)]
pub struct HamClient {
    /// The connection, read through one buffer kept for its lifetime
    /// (so bytes read ahead are never dropped) and written directly.
    stream: BufReader<TcpStream>,
    max_payload: u32,
    next_request_id: u64,
}

impl HamClient {
    /// Connects with `TCP_NODELAY` and a read timeout (so a wedged
    /// server can't hang the caller forever).
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(HamClient {
            stream: BufReader::new(stream),
            max_payload: 1 << 20,
            next_request_id: 1,
        })
    }

    /// Sends one batch for `tenant` and waits for the response.
    /// `deadline` is the request's *remaining* end-to-end budget,
    /// encoded in µs on the wire (`None` = unbounded; saturates at
    /// `u32::MAX - 1` µs ≈ 71 minutes).
    pub fn request(
        &mut self,
        tenant: u16,
        priority: u8,
        deadline: Option<Duration>,
        queries: &[Hypervector],
    ) -> Result<Response, ClientError> {
        if queries.is_empty() {
            return Err(ClientError::EmptyBatch);
        }
        let dim = queries[0].dim();
        if queries.iter().any(|q| q.dim() != dim) {
            return Err(ClientError::MixedDimensions);
        }
        let deadline_us = match deadline {
            None => DEADLINE_UNBOUNDED_US,
            Some(d) => u32::try_from(d.as_micros())
                .unwrap_or(DEADLINE_UNBOUNDED_US - 1)
                .min(DEADLINE_UNBOUNDED_US - 1),
        };
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let frame = encode_request(priority, tenant, request_id, deadline_us, queries);
        write_frame(self.stream.get_mut(), &frame)?;
        match read_response(&mut self.stream, self.max_payload)? {
            Some(response) => Ok(response),
            None => Err(ClientError::ServerClosed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{
        encode_response, read_request_header, read_request_payload, SlotResult, STATUS_OK,
    };
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread;

    const TIMEOUT: Duration = Duration::from_secs(10);

    /// A one-connection fake server on a loopback port: `answer` reads
    /// what the client sent and writes what it likes back.
    fn fake_server<T: Send + 'static>(
        answer: impl FnOnce(&mut TcpStream) -> T + Send + 'static,
    ) -> (SocketAddr, thread::JoinHandle<T>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(TIMEOUT)).unwrap();
            answer(&mut stream)
        });
        (addr, handle)
    }

    fn queries(dim: usize, n: usize) -> Vec<Hypervector> {
        (0..n)
            .map(|i| Hypervector::random(Dimension::new(dim).unwrap(), i as u64))
            .collect()
    }

    #[test]
    fn bad_batches_are_refused_before_anything_is_sent() {
        let (addr, server) = fake_server(|stream| {
            let mut received = Vec::new();
            stream.read_to_end(&mut received).unwrap();
            received
        });
        let mut client = HamClient::connect(addr, TIMEOUT).unwrap();
        assert_eq!(
            client.request(1, 0, None, &[]).unwrap_err(),
            ClientError::EmptyBatch
        );
        let mut mixed = queries(64, 2);
        mixed.extend(queries(65, 1));
        assert_eq!(
            client.request(1, 0, None, &mixed).unwrap_err(),
            ClientError::MixedDimensions
        );
        drop(client);
        assert!(
            server.join().unwrap().is_empty(),
            "nothing reached the wire"
        );
    }

    #[test]
    fn request_ids_count_up_and_deadlines_saturate_below_unbounded() {
        let (addr, server) = fake_server(|stream| {
            let mut seen = Vec::new();
            for _ in 0..3 {
                let header = read_request_header(stream, 1 << 20).unwrap().unwrap();
                let batch = read_request_payload(stream, &header).unwrap();
                seen.push((header.request_id, header.deadline_us, batch.queries.len()));
                let slots = vec![SlotResult::Shed; batch.queries.len()];
                let frame = encode_response(STATUS_OK, header.tenant, header.request_id, &slots);
                write_frame(stream, &frame).unwrap();
            }
            seen
        });
        let mut client = HamClient::connect(addr, TIMEOUT).unwrap();
        let batch = queries(100, 2);
        for (deadline, id) in [
            (None, 1u64),
            (Some(Duration::from_millis(3)), 2),
            (Some(Duration::from_secs(10_000)), 3),
        ] {
            let response = client.request(4, 0, deadline, &batch).unwrap();
            assert_eq!((response.tenant, response.request_id), (4, id));
            assert_eq!(response.slots, vec![SlotResult::Shed; 2]);
        }
        assert_eq!(
            server.join().unwrap(),
            vec![
                (1, DEADLINE_UNBOUNDED_US, 2),
                (2, 3_000, 2),
                (3, DEADLINE_UNBOUNDED_US - 1, 2),
            ]
        );
    }

    #[test]
    fn a_server_that_hangs_up_is_reported_as_closed() {
        let (addr, server) = fake_server(|stream| {
            let header = read_request_header(stream, 1 << 20).unwrap().unwrap();
            read_request_payload(stream, &header).unwrap();
        });
        let mut client = HamClient::connect(addr, TIMEOUT).unwrap();
        let result = client.request(1, 0, None, &queries(64, 1));
        server.join().unwrap();
        assert_eq!(result.unwrap_err(), ClientError::ServerClosed);
    }

    #[test]
    fn errors_convert_from_their_sources_and_display() {
        let io: ClientError = io::Error::from(io::ErrorKind::ConnectionRefused).into();
        assert_eq!(io, ClientError::Io(io::ErrorKind::ConnectionRefused));
        let frame: ClientError = FrameError::UnsupportedVersion { got: 3 }.into();
        assert_eq!(
            frame.to_string(),
            "frame error: unsupported wire version 3 (this build speaks 1)"
        );
        assert_eq!(
            ClientError::ServerClosed.to_string(),
            "server closed the connection"
        );
        assert!(ClientError::EmptyBatch.to_string().contains("empty batch"));
        assert!(ClientError::MixedDimensions
            .to_string()
            .contains("dimensionality"));
    }
}
