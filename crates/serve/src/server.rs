//! The TCP front end: blocking accept loops, thread-per-connection
//! framing, deadline propagation, and a graceful drain that provably
//! joins every thread it ever spawned.
//!
//! Life of a request:
//!
//! 1. an accept loop (one of [`ServeConfig::accept_threads`], each
//!    blocked in `accept` on the shared listener) hands the socket to a
//!    connection thread and records it in the registry;
//! 2. the connection thread reads one validated header + payload
//!    ([`frame`](crate::frame)) through a buffered reader, so a frame
//!    that has arrived costs one `read`; recoverable decode errors
//!    answer a typed reject and keep the connection, fatal ones close
//!    it;
//! 3. the tenant registry routes by wire tenant id — unknown tenants,
//!    exhausted quotas, and the draining state reject *before* any
//!    engine work;
//! 4. the request's remaining wire deadline becomes a
//!    [`QueryBudget`](ham_core::resilience::QueryBudget) intersected
//!    with the tenant's own cap, so a request arriving with 2 ms left is
//!    shed by the batch engine's expired-budget fast path instead of
//!    touching the engine;
//! 5. per-query outcomes map onto response slots, input order preserved.
//!
//! Drain state machine (see `DESIGN.md` §13):
//!
//! ```text
//! Serving ──drain()──► Draining ──grace expires──► Forcing ──► Drained
//!    │  accept loops woken        in-flight requests      leftover sockets
//!    │  and joined; open conns    finish and conns        shutdown(Both);
//!    │  answer STATUS_DRAINING    close gracefully        every thread joined
//! ```
//!
//! A blocked `accept` does not see the `draining` flag, so the drain
//! wakes each accept loop with one connection to the server's own
//! address; a loop whose `accept` returns while draining drops that
//! socket and exits. Dropping a [`Server`] without draining takes the
//! same path with no grace period and no snapshot flush.
//!
//! [`Server::drain`] consumes the server and returns a [`DrainReport`]
//! accounting for every accept loop and connection thread. The server
//! counts each thread it spawns, so the zero-orphan guarantee is
//! `threads_spawned == accept_loops_joined + connection_threads_joined`,
//! which the integration tests assert. (The batch workers a request runs
//! on are scoped threads, joined before its response is written.)

use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ham_core::resilience::ResilientOptions;
use ham_core::HamError;
use hdc::parallel::lock_unpoisoned;

use crate::frame::{
    encode_response, read_request_header, read_request_payload, write_frame, SlotResult,
    STATUS_DRAINING, STATUS_FAILED, STATUS_OK, STATUS_QUOTA_EXCEEDED, STATUS_SHED,
    STATUS_UNKNOWN_TENANT,
};
use crate::tenant::{TenantRegistry, TenantSpec, TenantStats};

/// Front-end knobs. Defaults suit tests; production raises the grace
/// and payload cap.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (port 0 picks an ephemeral port).
    pub addr: SocketAddr,
    /// Accept loops blocked on the shared listener — the thread-per-core
    /// front door. A drain wakes each one with a connection to the
    /// server's own address.
    pub accept_threads: usize,
    /// Per-read socket timeout: the slow-loris bound. A peer that trickles
    /// bytes slower than this gets its connection closed.
    pub read_timeout: Duration,
    /// Largest request payload accepted, bytes.
    pub max_payload: u32,
    /// How long [`Server::drain`] waits for in-flight work before
    /// forcing sockets shut.
    pub drain_grace: Duration,
    /// Directory for per-tenant snapshot flushes at drain and warm
    /// restarts at boot (`None` disables both).
    pub snapshot_dir: Option<PathBuf>,
    /// Engine scheduling/retry options shared by all tenants.
    pub options: ResilientOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("literal loopback addr"),
            accept_threads: 2,
            read_timeout: Duration::from_secs(2),
            max_payload: 1 << 20,
            drain_grace: Duration::from_secs(5),
            snapshot_dir: None,
            options: ResilientOptions::default(),
        }
    }
}

/// What [`Server::drain`] did, with every thread accounted for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Accept loops joined (always equals the configured count).
    pub accept_loops_joined: usize,
    /// Connections open when the drain began.
    pub connections_at_drain: usize,
    /// Connections that finished and closed within the grace period.
    pub drained_gracefully: usize,
    /// Connections whose sockets were forced shut after the grace.
    pub forced_shutdowns: usize,
    /// Connection threads joined over the server's whole lifetime.
    pub connection_threads_joined: usize,
    /// Threads the server spawned over its whole lifetime: the accept
    /// loops plus every connection thread. A drain that joined them all
    /// reports `accept_loops_joined + connection_threads_joined` equal
    /// to this.
    pub threads_spawned: usize,
    /// Snapshot files flushed (one per tenant when a snapshot dir is
    /// configured).
    pub snapshots_flushed: usize,
    /// Tenants whose snapshot flush failed (I/O); their names.
    pub flush_failures: Vec<String>,
}

struct ConnEntry {
    stream: TcpStream,
    done: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

struct Shared {
    tenants: TenantRegistry,
    config: ServeConfig,
    draining: AtomicBool,
    accepted: AtomicU64,
    registry: Mutex<Vec<ConnEntry>>,
    spawned: AtomicU64,
    joined: AtomicU64,
}

/// A running multi-tenant serving front end. Dropping without
/// [`drain`](Self::drain) aborts sockets but still joins every thread
/// (and flushes no snapshot).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("tenants", &self.tenants.len())
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .field("accepted", &self.accepted.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Provisions `tenants` (warm-restarting from the snapshot dir when
    /// possible), binds the listener, and starts the accept loops.
    ///
    /// # Errors
    ///
    /// Propagates bind errors; tenant provisioning errors surface as
    /// `InvalidInput`.
    pub fn start(config: ServeConfig, tenants: Vec<TenantSpec>) -> io::Result<Server> {
        let registry =
            TenantRegistry::provision(tenants, config.options, config.snapshot_dir.as_deref())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        let accept_threads = config.accept_threads.max(1);
        let shared = Arc::new(Shared {
            tenants: registry,
            config,
            draining: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            joined: AtomicU64::new(0),
        });
        // Built before the loops start, so a failed clone below drops it
        // and `Drop` stops the loops already running.
        let mut server = Server {
            shared,
            local_addr,
            accept_handles: Vec::with_capacity(accept_threads),
        };
        for i in 0..accept_threads {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&server.shared);
            server.accept_handles.push(
                std::thread::Builder::new()
                    .name(format!("ham-accept-{i}"))
                    .spawn(move || accept_loop(&listener, &shared))
                    .expect("spawn accept loop"),
            );
        }
        Ok(server)
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a drain is underway.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Point-in-time stats for one tenant (`None` if not provisioned).
    pub fn tenant_stats(&self, tenant: u16) -> Option<TenantStats> {
        self.shared.tenants.get(tenant).map(|t| t.stats())
    }

    /// The tenant registry (test/bench hook for versioned publishes and
    /// boot-source inspection).
    pub fn tenants(&self) -> &TenantRegistry {
        &self.shared.tenants
    }

    /// Graceful drain: stop accepting, let in-flight requests finish
    /// within the grace period, force leftover sockets shut, join every
    /// thread, and flush one snapshot per tenant. After this returns no
    /// thread spawned by the server is alive.
    pub fn drain(mut self) -> DrainReport {
        let accept_loops = self.accept_handles.len();
        let accept_loops_joined = self.stop_accepting();

        // Grace: reap connections as their handlers finish.
        let deadline = Instant::now() + self.shared.config.drain_grace;
        let connections_at_drain = lock_unpoisoned(&self.shared.registry).len();
        let mut drained_gracefully = 0;
        loop {
            drained_gracefully += reap(&self.shared, false);
            let open = lock_unpoisoned(&self.shared.registry).len();
            if open == 0 || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        let forced_shutdowns = self.force_close();

        let mut snapshots_flushed = 0;
        let mut flush_failures = Vec::new();
        if let Some(dir) = &self.shared.config.snapshot_dir {
            let _ = std::fs::create_dir_all(dir);
            for tenant in self.shared.tenants.iter() {
                match tenant.flush_snapshot(dir) {
                    Ok(_) => snapshots_flushed += 1,
                    Err(_) => flush_failures.push(tenant.spec().name.clone()),
                }
            }
        }

        DrainReport {
            accept_loops_joined,
            connections_at_drain,
            drained_gracefully,
            forced_shutdowns,
            connection_threads_joined: self.shared.joined.load(Ordering::Relaxed) as usize,
            threads_spawned: accept_loops + self.shared.spawned.load(Ordering::Relaxed) as usize,
            snapshots_flushed,
            flush_failures,
        }
    }

    /// Sets `draining`, wakes every accept loop still blocked in
    /// `accept` with one connection each, and joins them. Returns how
    /// many joined without panicking; a second call finds none left.
    fn stop_accepting(&mut self) -> usize {
        self.shared.draining.store(true, Ordering::SeqCst);
        let handles = std::mem::take(&mut self.accept_handles);
        let wake = wake_addr(self.local_addr);
        for _ in &handles {
            // Each loop takes one connection off the listener and exits,
            // so one connection per loop wakes them all.
            let _ = TcpStream::connect_timeout(&wake, WAKE_CONNECT_TIMEOUT);
        }
        handles.into_iter().filter_map(|h| h.join().ok()).count()
    }

    /// Shuts every registered socket so blocked reads error out, then
    /// joins every connection thread. Returns how many sockets it shut.
    fn force_close(&self) -> usize {
        let forced = {
            let registry = lock_unpoisoned(&self.shared.registry);
            for entry in registry.iter() {
                let _ = entry.stream.shutdown(Shutdown::Both);
            }
            registry.len()
        };
        reap(&self.shared, true);
        forced
    }
}

impl Drop for Server {
    /// Aborts without a grace period or a snapshot flush: stops the
    /// accept loops, shuts every open socket and joins every thread.
    /// After [`drain`](Server::drain) there is nothing left to do.
    fn drop(&mut self) {
        self.stop_accepting();
        self.force_close();
    }
}

/// How long a drain waits for its wake-up connection to be accepted
/// into the listener's backlog (a loopback connect completes at once).
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// The address a drain connects to in order to wake the accept loops:
/// the bound address, with an unspecified IP replaced by loopback of the
/// same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Joins finished connection threads out of the registry; with `force`,
/// joins every remaining one (their sockets must already be shut).
/// Returns how many were reaped.
fn reap(shared: &Shared, force: bool) -> usize {
    let mut finished = Vec::new();
    {
        let mut registry = lock_unpoisoned(&shared.registry);
        let mut keep = Vec::with_capacity(registry.len());
        for entry in registry.drain(..) {
            if force || entry.done.load(Ordering::Relaxed) || entry.handle.is_finished() {
                finished.push(entry);
            } else {
                keep.push(entry);
            }
        }
        *registry = keep;
    }
    let reaped = finished.len();
    for entry in finished {
        let _ = entry.handle.join();
        shared.joined.fetch_add(1, Ordering::Relaxed);
    }
    reaped
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            // A drain's wake-up, or a client that raced it: either way
            // the socket closes unanswered.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
                let Ok(registered) = stream.try_clone() else {
                    continue;
                };
                let done = Arc::new(AtomicBool::new(false));
                let conn_done = Arc::clone(&done);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("ham-conn".to_string())
                    .spawn(move || {
                        handle_connection(&stream, &conn_shared);
                        // The registry still holds a dup of this socket
                        // until the next reap; shutdown acts on the
                        // socket itself, so the peer gets its FIN now
                        // rather than at reap time.
                        let _ = stream.shutdown(Shutdown::Both);
                        conn_done.store(true, Ordering::Relaxed);
                    });
                if let Ok(handle) = spawned {
                    shared.spawned.fetch_add(1, Ordering::Relaxed);
                    lock_unpoisoned(&shared.registry).push(ConnEntry {
                        stream: registered,
                        done,
                        handle,
                    });
                }
                // Opportunistic reap keeps the registry from growing
                // unboundedly under connection churn.
                reap(shared, false);
            }
            // Back off on a real accept error (EMFILE, ENOBUFS, …).
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// One connection: a loop of header → payload → handle → respond.
/// Never panics on hostile input; every exit path closes the socket.
///
/// Reads go through a buffer (the default 8 KiB), so a frame that has
/// arrived costs one `read`; a payload larger than the buffer is read
/// straight into its own allocation. Responses are written to the socket
/// directly. The socket's read timeout and a drain's `shutdown` still end
/// a blocked read.
fn handle_connection(stream: &TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    loop {
        let header = match read_request_header(&mut reader, shared.config.max_payload) {
            Ok(None) => return,
            Ok(Some(header)) => header,
            Err(e) => {
                // Version/size rejects carry no trustworthy request id —
                // the reject echoes zeros — but the client still gets a
                // typed answer before the close when the header parsed
                // far enough to be answerable.
                if let Some(status) = e.reject_status() {
                    let _ = write_frame(&mut writer, &encode_response(status, 0, 0, &[]));
                }
                return;
            }
        };
        let batch = match read_request_payload(&mut reader, &header) {
            Ok(batch) => batch,
            Err(e) => match e.reject_status() {
                // Framing survived (the declared length was consumed):
                // typed reject, keep the connection.
                Some(status) if !e.is_fatal() => {
                    let frame = encode_response(status, header.tenant, header.request_id, &[]);
                    if write_frame(&mut writer, &frame).is_err() {
                        return;
                    }
                    continue;
                }
                _ => return,
            },
        };

        let response = handle_request(shared, &header, batch);
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
    }
}

fn handle_request(
    shared: &Shared,
    header: &crate::frame::RequestHeader,
    batch: crate::frame::QueryBatch,
) -> Vec<u8> {
    let reject = |status: u8| encode_response(status, header.tenant, header.request_id, &[]);
    let Some(tenant) = shared.tenants.get(header.tenant) else {
        return reject(STATUS_UNKNOWN_TENANT);
    };
    if shared.draining.load(Ordering::Relaxed) {
        tenant.note_drain_rejected();
        return reject(STATUS_DRAINING);
    }
    match tenant.admit(batch.queries.len(), header.priority) {
        Ok(()) => {}
        Err(HamError::QuotaExceeded { .. }) => return reject(STATUS_QUOTA_EXCEEDED),
        Err(_) => return reject(STATUS_SHED),
    }
    match tenant.serve(&batch.queries, header.priority, header.budget()) {
        Ok(report) => {
            let slots: Vec<SlotResult> = report
                .outcomes
                .iter()
                .map(|outcome| match outcome {
                    Ok(o) => SlotResult::Hit {
                        class: o.result.class.0 as u32,
                        distance: o.result.measured_distance.as_usize() as u32,
                        margin: o.margin as u32,
                    },
                    Err(HamError::TimedOut) => SlotResult::TimedOut,
                    Err(HamError::Shed { .. }) => SlotResult::Shed,
                    Err(_) => SlotResult::Failed,
                })
                .collect();
            encode_response(STATUS_OK, header.tenant, header.request_id, &slots)
        }
        Err(_) => reject(STATUS_FAILED),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_replaces_only_an_unspecified_ip() {
        for (bound, wake) in [
            ("0.0.0.0:7000", "127.0.0.1:7000"),
            ("[::]:7000", "[::1]:7000"),
            ("127.0.0.1:7000", "127.0.0.1:7000"),
            ("10.1.2.3:7000", "10.1.2.3:7000"),
        ] {
            assert_eq!(wake_addr(bound.parse().unwrap()), wake.parse().unwrap());
        }
    }
}
