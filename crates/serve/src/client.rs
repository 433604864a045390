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
