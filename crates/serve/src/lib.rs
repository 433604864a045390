//! Multi-tenant TCP serving front end for the HAM resilience runtime.
//!
//! The serving stack built in `ham-core` ends at a Rust API:
//! [`ResilientServer`](ham_core::resilience::ResilientServer) turns query
//! batches into per-slot results under panic isolation, deadlines, and
//! admission control. This crate puts a *wire* in front of it:
//!
//! * [`frame`] — a length-prefixed, CRC-checked binary protocol with a
//!   versioned header, tenant id, and per-request deadline in µs; every
//!   malformed input maps to a distinct typed reject, never a panic;
//! * [`tenant`] — per-tenant namespaces: versioned memory, its own
//!   degradation/health engine, a token-bucket quota, and an
//!   EMA-of-inflight admission gate, so one noisy tenant sheds its own
//!   traffic while its neighbours' p99 holds;
//! * [`server`] — blocking accept loops feeding thread-per-connection
//!   handlers; wire deadlines propagate into
//!   [`QueryBudget`](ham_core::resilience::QueryBudget) so a request
//!   arriving nearly-expired is shed before touching a shard; graceful
//!   [`drain`](Server::drain) joins every thread it ever spawned and
//!   flushes per-tenant snapshots for warm restart;
//! * [`chaos`] — a seeded hostile transport (truncated frames,
//!   slow-loris, garbage headers, half-open sockets) the chaos suite
//!   drives to prove the server survives the open internet's worst
//!   manners;
//! * [`client`] — the strict, well-behaved reference client.
//!
//! Everything is std-only: no async runtime, no external networking
//! crates — plain `TcpListener`/`TcpStream` and threads, in keeping
//! with the repository's offline build constraint.
//!
//! # Quick example
//!
//! ```
//! use std::time::Duration;
//! use ham_core::explore::{random_memory, DesignKind};
//! use ham_serve::{HamClient, ServeConfig, Server, TenantSpec};
//!
//! let memory = random_memory(8, 1_024, 42);
//! let server = Server::start(
//!     ServeConfig::default(),
//!     vec![TenantSpec::new(1, "demo", DesignKind::Digital, memory.clone())],
//! )?;
//!
//! let mut client = HamClient::connect(server.local_addr(), Duration::from_secs(5))?;
//! let query = memory.row(hdc::ClassId(3)).unwrap();
//! let response = client.request(1, 128, Some(Duration::from_millis(250)), &[query])?;
//! assert_eq!(response.status, ham_serve::frame::STATUS_OK);
//!
//! let report = server.drain();
//! assert_eq!(report.flush_failures.len(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod client;
pub mod frame;
pub mod server;
pub mod tenant;

pub use crate::chaos::{ChaosFault, ChaosOutcome, ChaosRng, ChaosTransport};
pub use crate::client::{ClientError, HamClient};
pub use crate::frame::{FrameError, QueryBatch, RequestHeader, Response, SlotResult};
pub use crate::server::{DrainReport, ServeConfig, Server};
pub use crate::tenant::{
    BootSource, QuotaPolicy, TenantRegistry, TenantSpec, TenantState, TenantStats,
};
