//! Per-tenant namespaces: each tenant owns its own versioned memory,
//! serving engine, request quota, admission gate, and health monitor —
//! so one tenant driven past its quota sheds *its own* traffic while its
//! neighbours' latency holds.
//!
//! Isolation model, per tenant:
//!
//! * a [`VersionedMemory`] namespace — online updates publish new epochs,
//!   and the next request that observes a newer epoch *advances* the
//!   serving engine in place ([`ResilientServer::advance`]): only the
//!   row chunks the new epoch replaced are written into the engine's
//!   one matrix, which every rung of its ladder searches, and the
//!   version's own bucket index is attached by `Arc`, so an epoch change
//!   costs the rows it changed, not `C · D`, and never materializes the
//!   version;
//! * a [`ResilientServer`] engine (degradation ladder, scrubber, health
//!   monitor) built over that memory once at provisioning — one
//!   tenant's quarantine never touches another's engine. Its scrubber
//!   pins the published version as the golden state, so a tenant keeps
//!   two copies of its rows: the version's chunks and the served
//!   matrix;
//! * a token-bucket request quota refilled in wall-clock time — the
//!   hard per-tenant rate cap ([`HamError::QuotaExceeded`]);
//! * an EMA-of-inflight admission gate — the soft overload valve that
//!   sheds normal-priority work when the tenant's own concurrent load
//!   runs hot ([`HamError::Shed`]).
//!
//! Quota and shed rejections are *load control*, not array damage:
//! [`HamError::is_load_control`] keeps them out of the tenant's health
//! error rate, so an overloaded tenant is throttled, not quarantined.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ham_core::explore::DesignKind;
use ham_core::resilience::snapshot::{load_snapshot, save_snapshot, SnapshotError};
use ham_core::resilience::wal::{Wal, WalOptions};
use ham_core::resilience::{
    DegradationPolicy, HealthState, QueryBudget, ResilientOptions, ResilientServer, Scrubber,
    ServeReport, PRIORITY_HIGH,
};
use ham_core::{
    ensure_indexed, HamError, IndexPolicy, MemoryVersion, OnlineUpdater, VersionedMemory,
};
use hdc::parallel::lock_unpoisoned;
use hdc::prelude::*;

/// A tenant's hard request-rate cap: a token bucket holding up to
/// `burst` queries, refilled at `per_second` queries per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaPolicy {
    /// Bucket capacity — the largest burst admitted at once.
    pub burst: f64,
    /// Steady-state refill rate, queries per second.
    pub per_second: f64,
}

impl QuotaPolicy {
    /// No quota: the bucket never empties.
    pub fn unlimited() -> Self {
        QuotaPolicy {
            burst: f64::INFINITY,
            per_second: f64::INFINITY,
        }
    }
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        QuotaPolicy {
            burst: 10_000.0,
            per_second: 10_000.0,
        }
    }
}

#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
    policy: QuotaPolicy,
}

impl TokenBucket {
    fn new(policy: QuotaPolicy) -> Self {
        TokenBucket {
            tokens: policy.burst,
            last_refill: Instant::now(),
            policy,
        }
    }

    fn try_take(&mut self, n: f64) -> bool {
        if self.policy.burst.is_infinite() {
            return true;
        }
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * self.policy.per_second).min(self.policy.burst);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }
}

/// Everything needed to provision one tenant on a [`Server`](crate::Server).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Wire tenant id requests address this namespace by.
    pub tenant: u16,
    /// Human-readable name (logs, benches).
    pub name: String,
    /// Which HAM design serves this tenant.
    pub kind: DesignKind,
    /// The tenant's learned memory. Provisioning serves it, or repairs
    /// from it the rows a warm restart's snapshot lost, and then releases
    /// it: a provisioned tenant's [`spec`](TenantState::spec) holds an
    /// empty memory of the same space and scan strategy, and the rows
    /// live in the tenant's versioned memory.
    pub memory: AssociativeMemory,
    /// Hard request-rate cap.
    pub quota: QuotaPolicy,
    /// Soft overload valve: when the EMA of in-flight queries exceeds
    /// this, normal-priority requests are shed ([`PRIORITY_HIGH`] work
    /// rides through).
    pub max_inflight_ema: f64,
    /// Server-side cap on any one batch's time budget; the effective
    /// budget is the tighter of this and the request's wire deadline.
    pub budget_cap: QueryBudget,
}

impl TenantSpec {
    /// A spec with default quota/admission/budget over `memory`.
    pub fn new(
        tenant: u16,
        name: impl Into<String>,
        kind: DesignKind,
        memory: AssociativeMemory,
    ) -> Self {
        TenantSpec {
            tenant,
            name: name.into(),
            kind,
            memory,
            quota: QuotaPolicy::default(),
            max_inflight_ema: 1e9,
            budget_cap: QueryBudget::unbounded(),
        }
    }

    /// Replaces the quota policy.
    pub fn with_quota(mut self, quota: QuotaPolicy) -> Self {
        self.quota = quota;
        self
    }

    /// Replaces the admission gate's EMA ceiling.
    pub fn with_max_inflight_ema(mut self, max: f64) -> Self {
        self.max_inflight_ema = max;
        self
    }

    /// Replaces the per-batch budget cap.
    pub fn with_budget_cap(mut self, cap: QueryBudget) -> Self {
        self.budget_cap = cap;
        self
    }

    /// The snapshot file this tenant flushes to / warm-restarts from
    /// inside a snapshot directory.
    pub fn snapshot_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("tenant-{}.ham", self.tenant))
    }

    /// The write-ahead-log directory this tenant's online updates are
    /// made durable in, inside a snapshot directory.
    pub fn wal_dir(&self, dir: &Path) -> PathBuf {
        dir.join(format!("tenant-{}.wal", self.tenant))
    }

    /// Builds this tenant's serving engine from scratch over `memory`,
    /// the rows of the published version `golden`: a scrubber pinning
    /// `golden`, the design's ladder at the dimension's standard policy,
    /// and `options` under the spec's budget cap. A tenant builds it
    /// once, at provisioning; later epochs advance it in place, and the
    /// advanced engine equals this build over the new version.
    ///
    /// # Errors
    ///
    /// [`HamError::NoClasses`] for an empty memory, and the mismatch
    /// errors of [`ResilientServer::new`] when `golden` holds other rows.
    pub fn build_engine(
        &self,
        memory: AssociativeMemory,
        golden: Arc<MemoryVersion>,
        options: ResilientOptions,
    ) -> Result<ResilientServer, HamError> {
        let policy = DegradationPolicy::for_dim(memory.dim().get());
        Ok(
            ResilientServer::new(self.kind, memory, Scrubber::pinned(golden)?, policy)?
                .with_options(options.with_budget(self.budget_cap)),
        )
    }
}

/// Monotonic per-tenant counters, readable while serving.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    queries: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    shed: AtomicU64,
    quota_rejected: AtomicU64,
    drain_rejected: AtomicU64,
}

/// A point-in-time copy of one tenant's counters and health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests that reached this tenant (admitted or not).
    pub requests: u64,
    /// Queries carried by those requests.
    pub queries: u64,
    /// Queries that completed with a real answer.
    pub completed: u64,
    /// Queries that failed inside the engine.
    pub failed: u64,
    /// Queries cancelled by a deadline.
    pub timed_out: u64,
    /// Queries shed by the admission gate (wire- or engine-level).
    pub shed: u64,
    /// Whole requests rejected by the quota.
    pub quota_rejected: u64,
    /// Whole requests rejected because the server was draining.
    pub drain_rejected: u64,
    /// The tenant's health state at sampling time.
    pub health: HealthState,
}

/// How a tenant's memory came up at boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootSource {
    /// No usable snapshot and no complete write-ahead log: serving the
    /// spec's memory as given.
    Fresh,
    /// Warm restart: the latest snapshot (and/or the write-ahead log of
    /// updates since it) was replayed.
    WarmRestart {
        /// Rows whose on-disk records failed their CRC and were
        /// re-seeded from the spec's golden rows instead.
        corrupted_rows_repaired: usize,
        /// Write-ahead-log records replayed on top of the snapshot —
        /// online updates a crash prevented from reaching a checkpoint.
        wal_records_replayed: usize,
        /// Whether the log ended in a torn (never-acknowledged) record
        /// that was discarded, as the durability contract allows.
        wal_torn_tail: bool,
    },
}

/// One provisioned tenant: versioned memory, an engine advanced in place
/// per published epoch, quota bucket, admission EMA, and counters.
#[derive(Debug)]
pub struct TenantState {
    spec: TenantSpec,
    versioned: Arc<VersionedMemory>,
    wal: Option<Arc<Wal>>,
    engine: Mutex<Engine>,
    /// The engine's health state, stored after every serve and advance
    /// so [`stats`](TenantState::stats) never waits on the engine lock.
    health: AtomicU8,
    bucket: Mutex<TokenBucket>,
    inflight: AtomicUsize,
    /// EMA of in-flight queries, in 1/1024ths (fixed-point in an atomic
    /// so admission never takes the engine lock).
    ema_milli: AtomicU64,
    counters: Counters,
    boot: BootSource,
}

/// The serving engine and the epoch whose rows it serves.
#[derive(Debug)]
struct Engine {
    epoch: u64,
    server: ResilientServer,
}

const HEALTH_STATES: [HealthState; 3] = [
    HealthState::Healthy,
    HealthState::Degraded,
    HealthState::Quarantined,
];

fn health_code(state: HealthState) -> u8 {
    HEALTH_STATES
        .iter()
        .position(|&s| s == state)
        .expect("every state is listed") as u8
}

impl TenantState {
    /// Provisions a tenant. When `snapshot_dir` holds a loadable
    /// snapshot for this tenant id, the served memory is warm-restarted
    /// from it: rows corrupted on disk fall back to the spec's learned
    /// rows, everything else replays exactly as flushed. Write-ahead-log
    /// records past the snapshot's covered LSN — online updates a crash
    /// kept from reaching a checkpoint — replay on top (a damaged LSN
    /// trailer falls back to the checkpoint watermark in the segment
    /// headers, never to silently skipping the log); with no snapshot at
    /// all, a complete log (oldest segment at LSN 0) replays onto the
    /// spec memory.
    ///
    /// The spec's memory is released once provisioning is done (see
    /// [`TenantSpec::memory`]). A provisioned tenant keeps its published
    /// version's chunks plus the engine's one served matrix; on the way
    /// there at most one more copy of the rows is alive at a time (a
    /// write-ahead-log replay's copy-on-write, or the snapshot file's
    /// bytes).
    pub fn provision(
        mut spec: TenantSpec,
        options: ResilientOptions,
        snapshot_dir: Option<&Path>,
    ) -> Result<Self, HamError> {
        let released = AssociativeMemory::new(spec.memory.dim())
            .with_scan_strategy(spec.memory.scan_strategy());
        let learned = std::mem::replace(&mut spec.memory, released);
        let paths = snapshot_dir.map(|dir| (spec.snapshot_path(dir), spec.wal_dir(dir)));
        // replay_from = the log LSN updates resume from; None = the log
        // is not replayable over this base.
        let mut replay_from = None;
        let (mut memory, mut boot) = match &paths {
            Some((path, _)) if path.exists() => match load_snapshot(path) {
                Ok(load) => {
                    let mut memory = load.memory;
                    let mut repaired = 0;
                    for &class in &load.corrupted {
                        if let Some(row) = learned.row(class) {
                            if memory.replace_row(class, row).is_ok() {
                                repaired += 1;
                            }
                        }
                    }
                    // A checkpoint-written snapshot records which log
                    // prefix it already contains in its LSN trailer;
                    // when the trailer is damaged, the checkpoint
                    // watermark in the segment headers bounds the
                    // replay instead (below).
                    replay_from = load.wal_lsn;
                    (
                        memory,
                        BootSource::WarmRestart {
                            corrupted_rows_repaired: repaired,
                            wal_records_replayed: 0,
                            wal_torn_tail: false,
                        },
                    )
                }
                // A structurally unreadable snapshot (bad header, bad
                // geometry) falls back to the spec memory wholesale.
                Err(_) => (learned.clone(), BootSource::Fresh),
            },
            _ => (learned.clone(), BootSource::Fresh),
        };
        // A fresh boot shares the learned rows (cloning a memory shares
        // its matrix); a warm one no longer needs them.
        drop(learned);
        // Crash before the first checkpoint: no (usable) snapshot, but a
        // log whose oldest segment starts at LSN 0 is the complete
        // update history since provisioning and replays onto the spec
        // memory — acknowledged updates survive even snapshot loss.
        if replay_from.is_none() && matches!(boot, BootSource::Fresh) {
            if let Some((_, wal_dir)) = &paths {
                if ham_core::resilience::wal::oldest_segment_lsn(wal_dir)
                    .ok()
                    .flatten()
                    == Some(0)
                {
                    replay_from = Some(0);
                }
            }
        }
        // A warm restart whose snapshot lost its covered-LSN trailer
        // still bounds its replay: every checkpoint records the covered
        // LSN redundantly in the header of the segment it starts, so
        // acknowledged post-checkpoint updates replay instead of being
        // silently dropped. When even that watermark is gone and the
        // log is not complete history, no bound is safe — provision
        // fails loudly rather than silently serving stale state.
        if replay_from.is_none() && !matches!(boot, BootSource::Fresh) {
            if let Some((_, wal_dir)) = &paths {
                replay_from = Some(ham_core::resilience::wal::replay_floor(wal_dir).map_err(
                    |error| HamError::Durability {
                        detail: error.to_string(),
                    },
                )?);
            }
        }
        if let (Some(from), Some((_, wal_dir))) = (replay_from, &paths) {
            // Shares `memory`'s matrix until the first replayed write
            // copies it.
            let mut caught_up = memory.clone();
            // A replay error means damaged acknowledged history
            // (mid-log corruption): discard the partial replay and
            // serve the snapshot state rather than a prefix we cannot
            // bound.
            if let Ok(summary) = Wal::replay_into(wal_dir, &mut caught_up, from) {
                let repaired = match boot {
                    BootSource::WarmRestart {
                        corrupted_rows_repaired,
                        ..
                    } => corrupted_rows_repaired,
                    BootSource::Fresh => 0,
                };
                if summary.replayed > 0 || !matches!(boot, BootSource::Fresh) {
                    memory = caught_up;
                    boot = BootSource::WarmRestart {
                        corrupted_rows_repaired: repaired,
                        wal_records_replayed: summary.replayed,
                        wal_torn_tail: summary.torn_tail,
                    };
                }
            }
        }
        // A replayed add grew the matrix by doubling; the engine keeps
        // it, so drop the spare capacity.
        memory.shrink_to_fit();
        // Attach (or rebuild) the bucket index before the memory fans
        // out to the versioned cell and the engine: large tenants get
        // the triangle-bound pruned scan transparently, small ones stay
        // on the fused linear kernel, and a v2 snapshot's persisted
        // index is reused when it came back clean. Results are
        // identical either way.
        ensure_indexed(&mut memory, &IndexPolicy::default());
        // Snapshots persist rows and the bucket index only; the scan
        // strategy is provisioning-time state carried by the spec, so a
        // warm restart re-applies it.
        memory.set_scan_strategy(spec.memory.scan_strategy());
        // Open (creating or tail-repairing) the tenant's log last, so
        // its torn-tail truncation never races the read-only replay
        // above. From here on, updates published through `updater()`
        // are appended before every version swap.
        let wal = match &paths {
            Some((_, wal_dir)) => Some(Arc::new(
                Wal::open(wal_dir, memory.dim(), WalOptions::default()).map_err(|error| {
                    HamError::Durability {
                        detail: error.to_string(),
                    }
                })?,
            )),
            None => None,
        };
        // The version copies the rows into its chunks; the engine serves
        // `memory` itself, and its scrubber pins the version.
        let versioned = Arc::new(VersionedMemory::new(memory.clone()));
        let golden = versioned.load();
        let engine = Engine {
            epoch: golden.epoch(),
            server: spec.build_engine(memory, golden, options)?,
        };
        let health = AtomicU8::new(health_code(engine.server.health().state()));
        let bucket = Mutex::new(TokenBucket::new(spec.quota));
        Ok(TenantState {
            spec,
            versioned,
            wal,
            engine: Mutex::new(engine),
            health,
            bucket,
            inflight: AtomicUsize::new(0),
            ema_milli: AtomicU64::new(0),
            counters: Counters::default(),
            boot,
        })
    }

    /// The spec this tenant was provisioned from, its memory released
    /// (see [`TenantSpec::memory`]).
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The tenant's versioned memory — publish new epochs here and the
    /// engine advances to them on the next request that observes them.
    pub fn versioned(&self) -> &Arc<VersionedMemory> {
        &self.versioned
    }

    /// How this tenant's memory came up at boot.
    pub fn boot_source(&self) -> &BootSource {
        &self.boot
    }

    /// Point-in-time counters + health. Lock-free: the health state is
    /// the one the engine published after its last serve or advance, so
    /// this never waits behind an in-flight batch.
    pub fn stats(&self) -> TenantStats {
        let health = HEALTH_STATES[usize::from(self.health.load(Ordering::Relaxed))];
        let c = &self.counters;
        TenantStats {
            requests: c.requests.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            quota_rejected: c.quota_rejected.load(Ordering::Relaxed),
            drain_rejected: c.drain_rejected.load(Ordering::Relaxed),
            health,
        }
    }

    pub(crate) fn note_drain_rejected(&self) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.drain_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The admission decision for a `queries`-sized batch at `priority`:
    /// quota first (hard), then the EMA gate (soft; [`PRIORITY_HIGH`]
    /// bypasses it). Rejections are typed and per-tenant — they never
    /// touch another tenant's path.
    pub fn admit(&self, queries: usize, priority: u8) -> Result<(), HamError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .queries
            .fetch_add(queries as u64, Ordering::Relaxed);
        if !lock_unpoisoned(&self.bucket).try_take(queries as f64) {
            self.counters.quota_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(HamError::QuotaExceeded {
                tenant: self.spec.tenant,
            });
        }
        // EMA over admission attempts: ema ← 3/4·ema + 1/4·inflight.
        let inflight = self.inflight.load(Ordering::Relaxed) as u64 * 1024;
        let ema = self
            .ema_milli
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |ema| {
                Some((ema * 3 + inflight) / 4)
            })
            .expect("fetch_update closure always returns Some");
        let ema_now = (ema * 3 + inflight) / 4;
        if priority < PRIORITY_HIGH && (ema_now as f64 / 1024.0) > self.spec.max_inflight_ema {
            self.counters
                .shed
                .fetch_add(queries as u64, Ordering::Relaxed);
            return Err(HamError::Shed { priority });
        }
        Ok(())
    }

    /// Serves one admitted batch under the tighter of the tenant's
    /// budget cap and the request's remaining wire deadline. Advances
    /// the engine first if the versioned memory has published a newer
    /// epoch since the last request.
    pub fn serve(
        &self,
        queries: &[Hypervector],
        priority: u8,
        wire_budget: QueryBudget,
    ) -> Result<ServeReport, HamError> {
        self.inflight.fetch_add(queries.len(), Ordering::Relaxed);
        let result = self.serve_locked(queries, priority, wire_budget);
        self.inflight.fetch_sub(queries.len(), Ordering::Relaxed);
        if let Ok(report) = &result {
            let c = &self.counters;
            c.completed
                .fetch_add(report.stats.completed as u64, Ordering::Relaxed);
            c.failed
                .fetch_add(report.stats.failed as u64, Ordering::Relaxed);
            c.timed_out
                .fetch_add(report.stats.timed_out as u64, Ordering::Relaxed);
            c.shed
                .fetch_add(report.stats.shed as u64, Ordering::Relaxed);
        }
        result
    }

    fn serve_locked(
        &self,
        queries: &[Hypervector],
        priority: u8,
        wire_budget: QueryBudget,
    ) -> Result<ServeReport, HamError> {
        let mut engine = lock_unpoisoned(&self.engine);
        let version = self.versioned.load();
        if version.epoch() != engine.epoch {
            // Copies only the chunks published after the engine's epoch
            // and attaches the version's own index; the
            // version is never materialized. A failed advance leaves
            // the epoch behind, and the next request retries it.
            let since = engine.epoch;
            engine.server.advance(&version, since)?;
            engine.epoch = version.epoch();
            self.publish_health(&engine.server);
        }
        drop(version);
        let report = engine
            .server
            .serve_with_budget(queries, priority, wire_budget);
        self.publish_health(&engine.server);
        Ok(report)
    }

    fn publish_health(&self, server: &ResilientServer) {
        self.health
            .store(health_code(server.health().state()), Ordering::Relaxed);
    }

    /// Flushes the tenant's *current published* memory — including
    /// online updates, even ones no request has compiled into the
    /// serving engine yet — to its snapshot file in `dir`. With a
    /// write-ahead log configured this is a checkpoint (snapshot bound
    /// to the log's covered LSN, segments truncated), so a drain
    /// immediately after an online update is never lossy.
    pub fn flush_snapshot(&self, dir: &Path) -> Result<PathBuf, SnapshotError> {
        let path = self.spec.snapshot_path(dir);
        match &self.wal {
            Some(_) => {
                // Through the updater: its update mutex orders the
                // checkpoint against concurrent durable publishes.
                self.updater()
                    .checkpoint(&path)
                    .map_err(SnapshotError::Repair)?;
            }
            // Encoded straight from the version's chunks, never
            // materialized.
            None => save_snapshot(&*self.versioned.load(), &path)?,
        }
        Ok(path)
    }

    /// An updater publishing to this tenant's versioned memory with the
    /// default index policy, wired to the tenant's write-ahead log when
    /// a snapshot directory was configured — updates published through
    /// it survive a crash even before the next drain.
    pub fn updater(&self) -> OnlineUpdater {
        let updater = OnlineUpdater::new(Arc::clone(&self.versioned))
            .with_index_policy(IndexPolicy::default());
        match &self.wal {
            Some(wal) => updater.with_wal(Arc::clone(wal)),
            None => updater,
        }
    }

    /// The tenant's write-ahead log, when one is configured.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// A copy of the memory the serving engine currently searches —
    /// the epoch its last request advanced it to (test hook for
    /// warm-restart bit-identity). `O(C · D)`: keep it off hot paths.
    pub fn served_memory(&self) -> AssociativeMemory {
        lock_unpoisoned(&self.engine).server.memory().clone()
    }

    /// Runs `inspect` on the serving engine under its lock, with the
    /// epoch it serves — an inspection hook for tests and tools. Blocks
    /// serving for as long as `inspect` runs.
    pub fn with_engine<R>(&self, inspect: impl FnOnce(u64, &ResilientServer) -> R) -> R {
        let engine = lock_unpoisoned(&self.engine);
        inspect(engine.epoch, &engine.server)
    }
}

/// The tenant registry a server routes by wire tenant id.
#[derive(Debug)]
pub struct TenantRegistry {
    tenants: HashMap<u16, Arc<TenantState>>,
}

impl TenantRegistry {
    /// Provisions every spec (warm-restarting from `snapshot_dir` when
    /// snapshots exist) and arms each tenant's quota.
    ///
    /// # Errors
    ///
    /// Returns the first provisioning error (e.g. an empty memory).
    pub fn provision(
        specs: Vec<TenantSpec>,
        options: ResilientOptions,
        snapshot_dir: Option<&Path>,
    ) -> Result<Self, HamError> {
        let mut tenants = HashMap::with_capacity(specs.len());
        for spec in specs {
            let id = spec.tenant;
            let state = TenantState::provision(spec, options, snapshot_dir)?;
            tenants.insert(id, Arc::new(state));
        }
        Ok(TenantRegistry { tenants })
    }

    /// Looks up a tenant by wire id.
    pub fn get(&self, tenant: u16) -> Option<&Arc<TenantState>> {
        self.tenants.get(&tenant)
    }

    /// Iterates all provisioned tenants.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<TenantState>> {
        self.tenants.values()
    }

    /// Number of provisioned tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant is provisioned.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_core::explore::random_memory;
    use ham_core::resilience::PRIORITY_NORMAL;
    use std::time::Duration;

    fn spec(tenant: u16) -> TenantSpec {
        TenantSpec::new(
            tenant,
            format!("t{tenant}"),
            DesignKind::Digital,
            random_memory(6, 512, 300 + u64::from(tenant)),
        )
    }

    #[test]
    fn quota_bucket_exhausts_and_refills() {
        let mut bucket = TokenBucket::new(QuotaPolicy {
            burst: 4.0,
            per_second: 1_000.0,
        });
        assert!(bucket.try_take(4.0));
        assert!(!bucket.try_take(1.0));
        std::thread::sleep(Duration::from_millis(10));
        assert!(bucket.try_take(1.0), "refill restores tokens");
        let mut unlimited = TokenBucket::new(QuotaPolicy::unlimited());
        assert!(unlimited.try_take(1e12));
    }

    #[test]
    fn quota_rejection_is_typed_and_does_not_poison_health() {
        let state = TenantState::provision(
            spec(4).with_quota(QuotaPolicy {
                burst: 2.0,
                per_second: 0.001,
            }),
            ResilientOptions::serial(),
            None,
        )
        .unwrap();
        assert!(state.admit(2, PRIORITY_NORMAL).is_ok());
        assert_eq!(
            state.admit(1, PRIORITY_NORMAL),
            Err(HamError::QuotaExceeded { tenant: 4 })
        );
        let stats = state.stats();
        assert_eq!(stats.quota_rejected, 1);
        assert_eq!(stats.health, HealthState::Healthy);
    }

    #[test]
    fn hot_ema_gate_sheds_normal_priority_but_admits_high() {
        let state = TenantState::provision(
            spec(5).with_max_inflight_ema(0.0),
            ResilientOptions::serial(),
            None,
        )
        .unwrap();
        // Force a hot EMA by parking inflight high.
        state.inflight.store(1_000, Ordering::Relaxed);
        state.admit(1, PRIORITY_NORMAL).ok();
        assert_eq!(
            state.admit(1, PRIORITY_NORMAL),
            Err(HamError::Shed {
                priority: PRIORITY_NORMAL
            })
        );
        assert!(state.admit(1, PRIORITY_HIGH).is_ok());
    }

    #[test]
    fn engine_rebuilds_on_published_epoch() {
        let state = TenantState::provision(spec(6), ResilientOptions::serial(), None).unwrap();
        let memory = state.served_memory();
        let query = memory.row(ClassId(2)).unwrap().clone();
        let report = state
            .serve(
                std::slice::from_ref(&query),
                PRIORITY_NORMAL,
                QueryBudget::unbounded(),
            )
            .unwrap();
        assert_eq!(report.stats.completed, 1);
        // Publish a new epoch with one row replaced by its own query —
        // the next request must serve the new memory.
        let mut updated = memory.clone();
        updated
            .replace_row(ClassId(0), Hypervector::random(memory.dim(), 999))
            .unwrap();
        state.versioned().publish(updated.clone());
        state
            .serve(
                std::slice::from_ref(&query),
                PRIORITY_NORMAL,
                QueryBudget::unbounded(),
            )
            .unwrap();
        assert_eq!(
            state.served_memory().row(ClassId(0)),
            updated.row(ClassId(0))
        );
    }

    #[test]
    fn stats_never_wait_for_the_engine_lock() {
        use std::sync::mpsc;
        let state = TenantState::provision(spec(8), ResilientOptions::serial(), None).unwrap();
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (stats_tx, stats_rx) = mpsc::channel();
        let state = &state;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                state.with_engine(|_, _| {
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
            });
            held_rx.recv().unwrap();
            scope.spawn(move || stats_tx.send(state.stats()).unwrap());
            let stats = stats_rx.recv_timeout(Duration::from_secs(10));
            release_tx.send(()).unwrap();
            assert_eq!(
                stats.expect("stats() returned").health,
                HealthState::Healthy
            );
        });
    }

    #[test]
    fn flush_and_warm_restart_round_trip_bit_identically() {
        let dir = std::env::temp_dir().join(format!("ham-serve-tenant-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let state = TenantState::provision(spec(7), ResilientOptions::serial(), None).unwrap();
        let served = state.served_memory();
        state.flush_snapshot(&dir).unwrap();
        let restarted =
            TenantState::provision(spec(7), ResilientOptions::serial(), Some(&dir)).unwrap();
        assert_eq!(
            restarted.boot_source(),
            &BootSource::WarmRestart {
                corrupted_rows_repaired: 0,
                wal_records_replayed: 0,
                wal_torn_tail: false,
            }
        );
        let replayed = restarted.served_memory();
        assert_eq!(replayed.len(), served.len());
        for (class, _, row) in served.iter() {
            assert_eq!(replayed.row(class), Some(row));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refill_never_exceeds_the_burst() {
        let mut bucket = TokenBucket::new(QuotaPolicy {
            burst: 2.0,
            per_second: 1e9,
        });
        std::thread::sleep(Duration::from_millis(2));
        // A second of refill at 1e9/s would be far more than the burst.
        assert!(!bucket.try_take(3.0));
        assert!(bucket.try_take(2.0));
        assert!(QuotaPolicy::unlimited().burst.is_infinite());
        assert_eq!(QuotaPolicy::default().burst, 10_000.0);
    }

    #[test]
    fn spec_builders_replace_their_field_and_paths_are_per_tenant() {
        let base = spec(7);
        assert_eq!(base.quota, QuotaPolicy::default());
        assert_eq!(base.budget_cap, QueryBudget::unbounded());
        let quota = QuotaPolicy {
            burst: 3.0,
            per_second: 4.0,
        };
        let cap = QueryBudget::per_batch(Duration::from_millis(5));
        let tuned = spec(7)
            .with_quota(quota)
            .with_max_inflight_ema(2.5)
            .with_budget_cap(cap);
        assert_eq!(tuned.quota, quota);
        assert_eq!(tuned.max_inflight_ema, 2.5);
        assert_eq!(tuned.budget_cap, cap);
        assert_eq!((tuned.tenant, tuned.name.as_str()), (7, "t7"));

        let dir = Path::new("snapshots");
        assert_eq!(base.snapshot_path(dir), dir.join("tenant-7.ham"));
        assert_eq!(base.wal_dir(dir), dir.join("tenant-7.wal"));
        assert_ne!(spec(8).snapshot_path(dir), base.snapshot_path(dir));
    }

    #[test]
    fn registry_routes_by_wire_tenant_id() {
        let registry =
            TenantRegistry::provision(vec![spec(3), spec(9)], ResilientOptions::serial(), None)
                .unwrap();
        assert_eq!(registry.len(), 2);
        assert!(!registry.is_empty());
        assert_eq!(registry.get(3).unwrap().spec().tenant, 3);
        assert_eq!(registry.get(9).unwrap().spec().name, "t9");
        assert!(registry.get(4).is_none());
        let mut ids: Vec<u16> = registry.iter().map(|t| t.spec().tenant).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 9]);
        // Without a snapshot directory every tenant boots from its spec.
        for tenant in registry.iter() {
            assert_eq!(tenant.versioned().load().rows(), 6);
        }
        let empty =
            TenantRegistry::provision(Vec::new(), ResilientOptions::serial(), None).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn an_empty_memory_fails_to_provision() {
        let empty = TenantSpec::new(
            1,
            "empty",
            DesignKind::Digital,
            AssociativeMemory::new(Dimension::new(512).unwrap()),
        );
        assert!(matches!(
            TenantState::provision(empty.clone(), ResilientOptions::serial(), None),
            Err(HamError::NoClasses)
        ));
        assert!(
            TenantRegistry::provision(vec![spec(2), empty], ResilientOptions::serial(), None)
                .is_err()
        );
    }
}
