//! The serving-grade resilience runtime: panic-isolated partial batches,
//! deadline budgets, load shedding, bounded retries, and a self-healing
//! server that folds everything into the health state machine.
//!
//! The batch engine ([`run_batch_parallel`](crate::batch::run_batch_parallel))
//! keeps first-error semantics: one bad query aborts the whole batch.
//! That is the right contract for experiments (fail fast, loudly) and the
//! wrong one for serving, where one poisoned query out of a thousand must
//! cost *one* answer, not a thousand. This module provides the serving
//! contract:
//!
//! * [`run_batch_resilient`] — per-query `Result` slots in input order.
//!   A worker panic is contained to its slot ([`HamError::WorkerPanicked`]),
//!   transient-classed errors get seeded, bounded retry-with-backoff, and
//!   a [`Deadline`] is checked before every query with cooperative
//!   cancellation, so an expired budget yields partial results with
//!   explicit [`HamError::TimedOut`] slots rather than a hung batch.
//! * [`classify_batch_resilient`] — the same contract over a
//!   [`DegradationController`]'s escalation ladder.
//! * [`ResilientServer`] — owns the controller, a [`Scrubber`] and a
//!   [`HealthMonitor`]; tightens the degradation policy when telemetry
//!   degrades, scrubs on demand, and restores from a checksummed snapshot
//!   on quarantine. Load shedding happens before the engine, in the
//!   front end's per-tenant admission gate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hdc::prelude::*;

use crate::batch::{price_completed, BatchOptions};
use crate::explore::DesignKind;
use crate::model::{HamDesign, HamError, HamSearchResult, MarginSearchResult};
use crate::resilience::degrade::{DegradationController, DegradationPolicy, QueryOutcome};
use crate::resilience::health::{HealthMonitor, HealthPolicy, HealthState};
use crate::resilience::scrub::Scrubber;
use crate::resilience::snapshot::{load_snapshot, save_snapshot, SnapshotError};
use crate::shard::MemoryVersion;
use crate::units::{Nanoseconds, Picojoules};

/// A wall-clock budget armed when a batch starts.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn unbounded() -> Self {
        Deadline {
            start: Instant::now(),
            budget: None,
        }
    }

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline {
            start: Instant::now(),
            budget: Some(budget),
        }
    }

    /// Whether the budget has run out (never, when unbounded).
    pub fn expired(&self) -> bool {
        self.budget
            .is_some_and(|budget| self.start.elapsed() >= budget)
    }

    /// Budget left, `None` when unbounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.budget
            .map(|budget| budget.saturating_sub(self.start.elapsed()))
    }
}

/// The time policy of a batch: how long the whole batch may run. Armed
/// into a [`Deadline`] when the batch starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryBudget {
    /// Wall-clock budget for the whole batch; `None` means unbounded.
    pub batch_budget: Option<Duration>,
}

impl QueryBudget {
    /// No time limit.
    pub fn unbounded() -> Self {
        QueryBudget { batch_budget: None }
    }

    /// A whole-batch budget.
    pub fn per_batch(budget: Duration) -> Self {
        QueryBudget {
            batch_budget: Some(budget),
        }
    }

    /// Starts the clock.
    pub fn arm(&self) -> Deadline {
        match self.batch_budget {
            Some(budget) => Deadline::within(budget),
            None => Deadline::unbounded(),
        }
    }

    /// The tighter of two budgets — how a wire deadline ("this request
    /// has 2 ms left") folds into a server-side cap. Unbounded is the
    /// identity; a zero budget stays zero (and saturates to immediate
    /// [`HamError::TimedOut`] slots when armed — never underflow, never
    /// panic).
    pub fn intersect(self, other: QueryBudget) -> QueryBudget {
        QueryBudget {
            batch_budget: match (self.batch_budget, other.batch_budget) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, b) => b,
            },
        }
    }
}

/// Bounded, seeded retry-with-backoff for transient-classed errors
/// ([`HamError::is_transient`]). Backoff is exponential with
/// deterministic jitter derived from `(seed, query index, attempt)`, so a
/// replayed batch waits exactly as long as the original did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: usize,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(5),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            seed: 0,
        }
    }

    /// The wait before retry number `attempt` (0-based) of `query_index`:
    /// exponential base doubling, capped at `max_backoff`, with
    /// deterministic half-range jitter.
    pub fn backoff(&self, attempt: usize, query_index: usize) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16) as u32)
            .min(self.max_backoff.max(self.base_backoff));
        // Full backoff would synchronize retries across queries; jitter
        // the upper half of the range deterministically instead.
        let h = splitmix(
            self.seed
                ^ (query_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (attempt as u64) << 32,
        );
        let half = exp / 2;
        let span = half.as_nanos().min(u128::from(u64::MAX)) as u64;
        half + Duration::from_nanos(if span == 0 { 0 } else { h % (span + 1) })
    }
}

/// SplitMix64: one multiply-xor-shift round, enough for backoff jitter.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Everything [`run_batch_resilient`] needs: sharding, retry, and time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilientOptions {
    /// Worker/chunk schedule (as in the plain parallel batch).
    pub batch: BatchOptions,
    /// Retry policy for transient errors.
    pub retry: RetryPolicy,
    /// Batch time budget.
    pub budget: QueryBudget,
}

impl ResilientOptions {
    /// Single-threaded, no retries, unbounded — the reference schedule
    /// for bit-identity tests.
    pub fn serial() -> Self {
        ResilientOptions {
            batch: BatchOptions::serial(),
            retry: RetryPolicy::none(),
            budget: QueryBudget::unbounded(),
        }
    }

    /// Replaces the time budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// What happened to a resilient batch, by count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries that produced a real result.
    pub completed: usize,
    /// Queries that failed permanently (panics past retry, mismatches…).
    pub failed: usize,
    /// Queries cancelled by the deadline.
    pub timed_out: usize,
    /// Queries shed by admission control before reaching a worker.
    pub shed: usize,
    /// Total retry attempts spent across the batch.
    pub retries: usize,
}

impl ServeStats {
    fn tally<T>(results: &[Result<T, HamError>], retries: usize) -> Self {
        let mut stats = ServeStats {
            retries,
            ..ServeStats::default()
        };
        for r in results {
            match r {
                Ok(_) => stats.completed += 1,
                Err(HamError::TimedOut) => stats.timed_out += 1,
                Err(HamError::Shed { .. }) => stats.shed += 1,
                Err(_) => stats.failed += 1,
            }
        }
        stats
    }
}

/// The outcome of a resilient raw-search batch.
#[derive(Debug, Clone)]
pub struct ResilientReport {
    /// Per-query results, in input order.
    pub results: Vec<Result<HamSearchResult, HamError>>,
    /// Outcome counts.
    pub stats: ServeStats,
    /// Host wall-clock the batch took.
    pub elapsed: Duration,
    /// Modelled energy of the *completed* searches.
    pub total_energy: Picojoules,
    /// Modelled serial latency of the completed searches.
    pub serial_latency: Nanoseconds,
    /// Modelled two-phase pipelined latency of the completed searches.
    pub pipelined_latency: Nanoseconds,
    /// The distance kernel that produced this batch
    /// ([`hdc::active_backend_name`]), so a perf report always says which
    /// datapath it measured.
    pub kernel_backend: &'static str,
}

impl ResilientReport {
    /// The successful results, in input order.
    pub fn ok_results(&self) -> impl Iterator<Item = &HamSearchResult> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// The outcome of a resilient classification batch.
#[derive(Debug, Clone)]
pub struct ClassifyReport {
    /// Per-query ladder outcomes, in input order.
    pub outcomes: Vec<Result<QueryOutcome, HamError>>,
    /// Outcome counts.
    pub stats: ServeStats,
    /// Host wall-clock the batch took.
    pub elapsed: Duration,
}

/// The shared scheduling core: runs `op(0..n)` on the batch executor
/// ([`hdc::parallel::execute`]) under the resilient contract — panic
/// containment, transient retry with backoff, deadline cancellation
/// before every query — and returns input-order slots.
fn run_resilient<T: Send>(
    n: usize,
    options: &ResilientOptions,
    op: &(dyn Fn(usize) -> Result<T, HamError> + Sync),
) -> (Vec<Result<T, HamError>>, ServeStats, Duration) {
    let started = Instant::now();
    let deadline = options.budget.arm();
    let retries = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);

    let attempt = |index: usize| -> Result<T, HamError> {
        catch_unwind(AssertUnwindSafe(|| op(index)))
            .unwrap_or(Err(HamError::WorkerPanicked { query: index }))
    };
    let attempt_with_retry = |index: usize| -> Result<T, HamError> {
        let mut result = attempt(index);
        let mut tries = 0;
        while result.as_ref().err().is_some_and(HamError::is_transient)
            && tries < options.retry.max_retries
            && !cancelled.load(Ordering::Relaxed)
        {
            let wait = options.retry.backoff(tries, index);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            retries.fetch_add(1, Ordering::Relaxed);
            tries += 1;
            result = attempt(index);
        }
        result
    };

    // A budget that is already spent (zero, or an expired wire deadline)
    // saturates to immediate typed `TimedOut` slots: no worker threads
    // are spawned and no shard is touched.
    if deadline.expired() {
        let results: Vec<Result<T, HamError>> = (0..n).map(|_| Err(HamError::TimedOut)).collect();
        let stats = ServeStats::tally(&results, 0);
        return (results, stats, started.elapsed());
    }

    let slots = hdc::parallel::execute(
        n,
        options.batch.threads,
        options.batch.chunk,
        || (),
        |_, index| {
            // The deadline is checked before every query; the cancel flag
            // stops every worker cooperatively and ends in-flight retries.
            if cancelled.load(Ordering::Relaxed) || deadline.expired() {
                cancelled.store(true, Ordering::Relaxed);
                return None;
            }
            Some(attempt_with_retry(index))
        },
    );
    // Only cancellation declines a query (panics are caught in `attempt`),
    // so every empty slot is one the deadline cut off.
    let results: Vec<Result<T, HamError>> = slots
        .into_iter()
        .map(|slot| slot.unwrap_or(Err(HamError::TimedOut)))
        .collect();
    let stats = ServeStats::tally(&results, retries.load(Ordering::Relaxed));
    (results, stats, started.elapsed())
}

/// Runs `queries` through `design` under the serving contract: per-query
/// `Result` slots in input order, worker panics contained and retried per
/// `options.retry`, and partial results with [`HamError::TimedOut`] slots
/// when `options.budget` expires mid-batch. The modelled hardware cost
/// covers only the completed searches.
pub fn run_batch_resilient(
    design: &(dyn HamDesign + Sync),
    queries: &[Hypervector],
    options: &ResilientOptions,
) -> ResilientReport {
    let (results, stats, elapsed) =
        run_resilient(queries.len(), options, &|i| design.search(&queries[i]));
    let (total_energy, serial_latency, pipelined_latency) =
        price_completed(design.cost(), stats.completed);
    ResilientReport {
        results,
        stats,
        elapsed,
        total_energy,
        serial_latency,
        pipelined_latency,
        kernel_backend: hdc::active_backend_name(),
    }
}

/// [`DegradationController::classify_batch`] under the serving contract:
/// per-query outcome slots, panic containment, retry, and deadlines.
/// Query `i` is classified exactly as `classify(…, start_index + i)`
/// would, so completed slots are bit-identical to the serial ladder.
pub fn classify_batch_resilient(
    controller: &DegradationController,
    queries: &[Hypervector],
    start_index: u64,
    options: &ResilientOptions,
) -> ClassifyReport {
    let (outcomes, stats, elapsed) = run_resilient(queries.len(), options, &|i| {
        controller.classify(&queries[i], start_index + i as u64)
    });
    ClassifyReport {
        outcomes,
        stats,
        elapsed,
    }
}

/// Submission priority. A tenant's soft load-shedding gate sheds every
/// priority below [`PRIORITY_HIGH`] while the tenant runs hot.
/// [`PRIORITY_NORMAL`] is the midpoint.
pub type Priority = u8;

/// Ordinary serving traffic.
pub const PRIORITY_NORMAL: Priority = 128;
/// Traffic that bypasses the front end's soft load-shedding gate.
pub const PRIORITY_HIGH: Priority = 255;

/// A self-healing action the server took in response to its health state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthAction {
    /// The degradation policy was tightened to the given values.
    TightenedPolicy(DegradationPolicy),
    /// The base degradation policy was restored after recovery.
    RelaxedPolicy,
    /// A scrub pass ran against the golden rows.
    Scrubbed {
        /// Rows found corrupted.
        corrupted: usize,
        /// Rows rewritten from golden copies.
        repaired: usize,
    },
    /// The memory was replaced from the checksummed snapshot.
    RestoredFromSnapshot {
        /// Rows whose on-disk records failed their CRC (repaired by the
        /// scrubber after the load).
        corrupted_on_disk: usize,
    },
    /// No snapshot was configured (or it failed to load); the memory was
    /// rebuilt from the scrubber's in-memory golden rows instead.
    RestoredFromGolden,
}

/// One batch served by [`ResilientServer::serve`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-query ladder outcomes (or serving errors), in input order.
    pub outcomes: Vec<Result<QueryOutcome, HamError>>,
    /// Outcome counts.
    pub stats: ServeStats,
    /// Host wall-clock spent classifying.
    pub elapsed: Duration,
    /// Health state after folding this batch's telemetry.
    pub health: HealthState,
    /// Self-healing actions taken while serving this batch.
    pub actions: Vec<HealthAction>,
    /// The distance kernel that served this batch
    /// ([`hdc::active_backend_name`]).
    pub kernel_backend: &'static str,
    /// Scan telemetry summed over every successful outcome in the
    /// batch: centroids probed, rows scanned, and rows pruned by the
    /// bucket index's triangle bound (all zero when every query settled
    /// on an approximate rung or the memory is unindexed).
    pub scan: hdc::ScanCounters,
}

/// The self-healing serving runtime: a [`DegradationController`] wrapped
/// with the resilient batch scheduler, a [`HealthMonitor`], a
/// [`Scrubber`], and an optional checksummed snapshot to restore from on
/// quarantine.
///
/// Per batch, [`serve`](Self::serve) (1) restores from snapshot first if
/// the previous batch left the server quarantined, (2) classifies every
/// query under the resilient contract, (3) folds every outcome and error
/// into the health monitor, and (4) acts on the resulting state —
/// tightening the degradation policy and scrubbing when degraded,
/// restoring when quarantined, relaxing back to the base policy on
/// recovery.
#[derive(Debug)]
pub struct ResilientServer {
    kind: DesignKind,
    base_policy: DegradationPolicy,
    controller: DegradationController,
    scrubber: Scrubber,
    monitor: HealthMonitor,
    options: ResilientOptions,
    snapshot_path: Option<PathBuf>,
    next_index: u64,
}

impl ResilientServer {
    /// A server over `memory` with the design kind's standard operating
    /// point, the default health policy, and no snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    pub fn new(
        kind: DesignKind,
        memory: AssociativeMemory,
        scrubber: Scrubber,
        policy: DegradationPolicy,
    ) -> Result<Self, HamError> {
        let controller = DegradationController::for_kind(kind, memory, policy)?;
        Ok(ResilientServer {
            kind,
            base_policy: policy,
            controller,
            scrubber,
            monitor: HealthMonitor::new(HealthPolicy::default()),
            options: ResilientOptions::default(),
            snapshot_path: None,
            next_index: 0,
        })
    }

    /// Replaces the scheduling/retry/budget options.
    pub fn with_options(mut self, options: ResilientOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the health policy (resets the monitor to `Healthy`).
    pub fn with_health_policy(mut self, policy: HealthPolicy) -> Self {
        self.monitor = HealthMonitor::new(policy);
        self
    }

    /// Configures a snapshot path for quarantine restores and immediately
    /// writes the golden state (the scrubber's rows under the memory's
    /// labels) to it.
    ///
    /// # Errors
    ///
    /// Propagates snapshot I/O errors.
    pub fn with_snapshot(mut self, path: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        let path = path.into();
        let golden = self.golden_memory();
        save_snapshot(&golden, &path)?;
        self.snapshot_path = Some(path);
        Ok(self)
    }

    /// The stored rows currently being served (faulted, if damage has
    /// accrued since the last scrub/restore).
    pub fn memory(&self) -> &AssociativeMemory {
        self.controller.memory()
    }

    /// The health monitor (state, occupancy, margin histogram).
    pub fn health(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// The degradation controller serving the ladder.
    pub fn controller(&self) -> &DegradationController {
        &self.controller
    }

    /// The scrubber holding the golden rows.
    pub fn scrubber(&self) -> &Scrubber {
        &self.scrubber
    }

    /// Carries the server forward to `version`, given that it serves
    /// `version`'s predecessor at epoch `since` — the only way a served
    /// engine reaches a new epoch. The controller advances by the
    /// chunks replaced after `since`
    /// ([`DegradationController::advance`]), the scrubber's golden rows
    /// take the same patch, and everything [`new`](Self::new) starts
    /// fresh starts fresh again: the health monitor (same policy), the
    /// query stream index, and the base degradation policy. A configured
    /// snapshot is rewritten with the new golden state. The advanced
    /// server is the one `new` builds over `version.memory()` with a
    /// [`Scrubber::from_memory`] of it, at the cost of the changed chunks.
    ///
    /// # Errors
    ///
    /// As [`DegradationController::advance`] (the server is unchanged
    /// then), plus [`HamError::Durability`] when the snapshot rewrite
    /// fails.
    pub fn advance(&mut self, version: &MemoryVersion, since: u64) -> Result<(), HamError> {
        self.controller.advance(version, since, self.base_policy)?;
        self.scrubber.apply_patch(&version.patch_since(since));
        self.monitor = HealthMonitor::new(self.monitor.policy());
        self.next_index = 0;
        if let Some(path) = &self.snapshot_path {
            save_snapshot(&self.golden_memory(), path).map_err(|error| HamError::Durability {
                detail: error.to_string(),
            })?;
        }
        Ok(())
    }

    /// The degradation policy currently in force (the base policy,
    /// tightened while degraded).
    pub fn policy(&self) -> DegradationPolicy {
        self.controller.policy()
    }

    /// Serves one batch at `priority`. Never fails as a whole: timed-out
    /// and errored queries surface in their own slots. The engine serves
    /// every query it is handed; shedding by priority happens before it,
    /// at the front end's per-tenant admission gate.
    pub fn serve(&mut self, queries: &[Hypervector], priority: Priority) -> ServeReport {
        self.serve_with_budget(queries, priority, QueryBudget::unbounded())
    }

    /// [`serve`](Self::serve) under an additional per-call time budget —
    /// the hook a network front end uses to propagate a request's
    /// remaining wire deadline into the batch engine. The effective
    /// budget is the *tighter* of the configured one and `budget`
    /// ([`QueryBudget::intersect`]); an already-spent budget yields
    /// immediate typed [`HamError::TimedOut`] slots without touching a
    /// worker.
    pub fn serve_with_budget(
        &mut self,
        queries: &[Hypervector],
        _priority: Priority,
        budget: QueryBudget,
    ) -> ServeReport {
        let mut actions = Vec::new();
        // A quarantine left over from the previous batch is resolved
        // before serving anything new.
        if self.monitor.state() == HealthState::Quarantined {
            self.restore(&mut actions);
        }

        let start_index = self.next_index;
        self.next_index += queries.len() as u64;
        let options = ResilientOptions {
            budget: self.options.budget.intersect(budget),
            ..self.options
        };
        let ClassifyReport {
            outcomes,
            stats,
            elapsed,
        } = classify_batch_resilient(&self.controller, queries, start_index, &options);

        // Fold telemetry, then act on whatever state it lands in.
        let mut scan = hdc::ScanCounters::default();
        for outcome in &outcomes {
            match outcome {
                Ok(o) => {
                    scan.absorb(o.scan);
                    self.monitor.observe_outcome(o)
                }
                Err(e) => self.monitor.observe_error(e),
            };
        }
        self.apply_health(&mut actions);

        ServeReport {
            outcomes,
            stats,
            elapsed,
            health: self.monitor.state(),
            actions,
            kernel_backend: hdc::active_backend_name(),
            scan,
        }
    }

    /// Writes the *currently served* memory to `path` as a checksummed
    /// atomic snapshot — the drain-time flush a front end performs so a
    /// warm restart replays exactly what was being served (including any
    /// online updates since boot), not the boot-time golden state.
    ///
    /// # Errors
    ///
    /// Propagates snapshot I/O errors; the served memory is untouched
    /// either way.
    pub fn flush_snapshot(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        save_snapshot(self.controller.memory(), path)
    }

    /// Runs a scrub pass right now, folds the report into the health
    /// monitor, and applies whatever state change results (tighten +
    /// repair on degrade, snapshot restore on quarantine). Returns the
    /// actions taken.
    pub fn scrub_now(&mut self) -> Vec<HealthAction> {
        let mut actions = Vec::new();
        if let Ok(report) = self.scrubber.scan(self.controller.memory()) {
            self.monitor.observe_scrub(&report);
        }
        self.apply_health(&mut actions);
        actions
    }

    /// The golden state: the served memory with every row that differs
    /// from its golden copy rewritten. Labels, scan strategy, bucket
    /// index and bit-sliced mirror carry over, and the row rewrites keep
    /// the index and mirror coherent, so a restored tenant keeps its
    /// pruned scan.
    fn golden_memory(&self) -> AssociativeMemory {
        let mut golden = self.controller.memory().clone();
        self.scrubber
            .repair(&mut golden)
            .expect("scrubber matches the served memory");
        golden
    }

    /// The served memory with its rows replaced by `restored`'s where
    /// they differ, then repaired against the golden rows — the scan
    /// state carries over as in [`golden_memory`](Self::golden_memory).
    /// `None` when `restored` holds another row count or space.
    fn served_with_rows(&self, restored: &AssociativeMemory) -> Option<AssociativeMemory> {
        let mut memory = self.controller.memory().clone();
        if restored.len() != memory.len() || restored.dim() != memory.dim() {
            return None;
        }
        for (class, _, row) in restored.iter() {
            if memory.row(class) != Some(row) {
                memory.replace_row(class, row.clone()).ok()?;
            }
        }
        // Rows corrupted on disk are repaired from the in-memory golden
        // rows before the memory goes back into service.
        self.scrubber.repair(&mut memory).ok()?;
        Some(memory)
    }

    /// Rebuilds the controller over `memory` at `policy`. The engines
    /// precompute from the memory at construction, so every repair or
    /// restore must come through here to take effect.
    fn rebuild(&mut self, memory: AssociativeMemory, policy: DegradationPolicy) {
        if let Ok(controller) = DegradationController::for_kind(self.kind, memory, policy) {
            self.controller = controller;
        }
    }

    fn apply_health(&mut self, actions: &mut Vec<HealthAction>) {
        match self.monitor.state() {
            HealthState::Healthy => {
                if self.controller.policy() != self.base_policy {
                    self.controller.set_policy(self.base_policy);
                    actions.push(HealthAction::RelaxedPolicy);
                }
            }
            HealthState::Degraded => {
                // Repair in place against the golden rows…
                let mut memory = self.controller.memory().clone();
                let mut repaired = false;
                if let Ok(report) = self.scrubber.repair(&mut memory) {
                    self.monitor.observe_scrub(&report);
                    if !report.is_clean() {
                        actions.push(HealthAction::Scrubbed {
                            corrupted: report.corrupted.len(),
                            repaired: report.repaired.len(),
                        });
                        repaired = true;
                    }
                }
                // …and serve more cautiously until telemetry recovers.
                let tightened = self.monitor.tightened(self.base_policy);
                if self.controller.policy() != tightened {
                    actions.push(HealthAction::TightenedPolicy(tightened));
                }
                if repaired {
                    self.rebuild(memory, tightened);
                } else {
                    self.controller.set_policy(tightened);
                }
                // Scrub findings can escalate straight to quarantine.
                if self.monitor.state() == HealthState::Quarantined {
                    self.restore(actions);
                }
            }
            HealthState::Quarantined => self.restore(actions),
        }
    }

    /// Quarantine exit: replace the served memory from the snapshot (or
    /// the scrubber's golden rows when no snapshot is configured or it
    /// fails structurally), re-enter service on probation.
    fn restore(&mut self, actions: &mut Vec<HealthAction>) {
        let tightened = self.monitor.tightened(self.base_policy);
        let restored = self.snapshot_path.as_ref().and_then(|path| {
            let load = load_snapshot(path).ok()?;
            let memory = self.served_with_rows(&load.memory)?;
            Some((memory, load.corrupted.len()))
        });
        match restored {
            Some((memory, corrupted_on_disk)) => {
                self.rebuild(memory, tightened);
                actions.push(HealthAction::RestoredFromSnapshot { corrupted_on_disk });
            }
            None => {
                self.rebuild(self.golden_memory(), tightened);
                actions.push(HealthAction::RestoredFromGolden);
            }
        }
        self.monitor.mark_restored();
    }
}

/// A [`HamDesign`] wrapper that panics on designated trigger queries a
/// configured number of times — the fault injector for the serving
/// runtime's panic-isolation and retry paths. Intentionally public: the
/// integration tests inject crashes through it.
#[derive(Debug)]
pub struct ChaosDesign<D> {
    inner: D,
    triggers: Vec<(Hypervector, AtomicUsize)>,
}

impl<D: HamDesign> ChaosDesign<D> {
    /// Wraps a design with no triggers (behaves identically to `inner`).
    pub fn new(inner: D) -> Self {
        ChaosDesign {
            inner,
            triggers: Vec::new(),
        }
    }

    /// Every search of `query` panics, forever.
    pub fn panic_always(mut self, query: Hypervector) -> Self {
        self.triggers.push((query, AtomicUsize::new(usize::MAX)));
        self
    }

    /// The next `times` searches of `query` panic; later ones succeed —
    /// a transient fault the retry path can ride out.
    pub fn panic_times(mut self, query: Hypervector, times: usize) -> Self {
        self.triggers.push((query, AtomicUsize::new(times)));
        self
    }

    fn maybe_panic(&self, query: &Hypervector) {
        for (trigger, remaining) in &self.triggers {
            if trigger != query {
                continue;
            }
            let mut left = remaining.load(Ordering::Relaxed);
            loop {
                if left == 0 {
                    return;
                }
                if left == usize::MAX {
                    panic!("injected panic (permanent trigger)");
                }
                match remaining.compare_exchange(
                    left,
                    left - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => panic!("injected panic ({left} left)"),
                    Err(now) => left = now,
                }
            }
        }
    }
}

impl<D: HamDesign> HamDesign for ChaosDesign<D> {
    fn name(&self) -> &'static str {
        "chaos"
    }
    fn classes(&self) -> usize {
        self.inner.classes()
    }
    fn dim(&self) -> Dimension {
        self.inner.dim()
    }
    fn search(&self, query: &Hypervector) -> Result<HamSearchResult, HamError> {
        self.maybe_panic(query);
        self.inner.search(query)
    }
    fn search_with_margin(&self, query: &Hypervector) -> Result<MarginSearchResult, HamError> {
        self.maybe_panic(query);
        self.inner.search_with_margin(query)
    }
    fn cost(&self) -> crate::model::CostMetrics {
        self.inner.cost()
    }
    fn energy_components(&self) -> Vec<(&'static str, Picojoules)> {
        self.inner.energy_components()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::run_batch;
    use crate::explore::{build, random_memory};
    use hdc::IndexBuildOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn queries(memory: &AssociativeMemory, n: usize) -> Vec<Hypervector> {
        let mut rng = StdRng::seed_from_u64(11);
        (0..n)
            .map(|i| {
                memory
                    .row(ClassId(i % memory.len()))
                    .expect("class stored")
                    .with_flipped_bits(150, &mut rng)
            })
            .collect()
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            seed: 7,
        }
    }

    #[test]
    fn resilient_batch_matches_serial_when_nothing_goes_wrong() {
        let memory = random_memory(9, 1_024, 21);
        let design = build(DesignKind::Digital, &memory).unwrap();
        let qs = queries(&memory, 30);
        let serial = run_batch(design.as_ref(), &qs).unwrap();
        for options in [
            ResilientOptions::serial(),
            ResilientOptions {
                batch: BatchOptions::new(4, 3),
                retry: fast_retry(),
                budget: QueryBudget::unbounded(),
            },
        ] {
            let report = run_batch_resilient(design.as_ref(), &qs, &options);
            assert_eq!(report.stats.completed, 30);
            assert_eq!(
                report.stats.failed + report.stats.timed_out + report.stats.shed,
                0
            );
            let got: Vec<_> = report.ok_results().cloned().collect();
            assert_eq!(got, serial.results);
            assert_eq!(report.total_energy, serial.total_energy);
            assert_eq!(report.pipelined_latency, serial.pipelined_latency);
            assert_eq!(report.kernel_backend, hdc::active_backend_name());
        }
    }

    #[test]
    fn permanent_panic_and_mismatch_cost_exactly_their_own_slots() {
        let memory = random_memory(6, 1_024, 22);
        let mut qs = queries(&memory, 12);
        let trigger = Hypervector::random(memory.dim(), 5);
        qs[3] = trigger.clone();
        qs[8] = Hypervector::random(Dimension::new(64).unwrap(), 6);
        let design =
            ChaosDesign::new(build(DesignKind::Digital, &memory).unwrap()).panic_always(trigger);
        let clean = build(DesignKind::Digital, &memory).unwrap();

        let options = ResilientOptions {
            batch: BatchOptions::new(3, 2),
            retry: fast_retry(),
            budget: QueryBudget::unbounded(),
        };
        let report = run_batch_resilient(&design, &qs, &options);
        assert_eq!(report.stats.completed, 10);
        assert_eq!(report.stats.failed, 2);
        assert_eq!(
            report.results[3],
            Err(HamError::WorkerPanicked { query: 3 })
        );
        assert!(matches!(
            report.results[8],
            Err(HamError::DimensionMismatch { .. })
        ));
        // A permanent panic consumed the full retry budget; a mismatch
        // (permanent error class) consumed none.
        assert_eq!(report.stats.retries, 2);
        for (i, slot) in report.results.iter().enumerate() {
            if i != 3 && i != 8 {
                assert_eq!(slot.as_ref().unwrap(), &clean.search(&qs[i]).unwrap());
            }
        }
        // Cost covers completed searches only.
        let (energy, _, _) = price_completed(clean.cost(), 10);
        assert_eq!(report.total_energy, energy);
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let memory = random_memory(5, 1_024, 23);
        let qs = queries(&memory, 8);
        let design = ChaosDesign::new(build(DesignKind::Digital, &memory).unwrap())
            .panic_times(qs[2].clone(), 2);
        let options = ResilientOptions {
            batch: BatchOptions::serial(),
            retry: fast_retry(),
            budget: QueryBudget::unbounded(),
        };
        let report = run_batch_resilient(&design, &qs, &options);
        assert_eq!(report.stats.completed, 8);
        assert_eq!(report.stats.retries, 2);
        assert!(report.results[2].is_ok());

        // With retries disabled the same fault is fatal for the slot.
        let design = ChaosDesign::new(build(DesignKind::Digital, &memory).unwrap())
            .panic_times(qs[2].clone(), 2);
        let report = run_batch_resilient(&design, &qs, &ResilientOptions::serial());
        assert_eq!(
            report.results[2],
            Err(HamError::WorkerPanicked { query: 2 })
        );
        assert_eq!(report.stats.completed, 7);
    }

    #[test]
    fn zero_deadline_times_out_the_whole_batch() {
        let memory = random_memory(4, 1_024, 24);
        let design = build(DesignKind::Digital, &memory).unwrap();
        let qs = queries(&memory, 16);
        for batch in [BatchOptions::serial(), BatchOptions::new(4, 2)] {
            let options = ResilientOptions {
                batch,
                retry: RetryPolicy::none(),
                budget: QueryBudget::per_batch(Duration::ZERO),
            };
            let report = run_batch_resilient(design.as_ref(), &qs, &options);
            assert_eq!(report.stats.timed_out, 16, "{batch:?}");
            assert_eq!(report.stats.completed, 0);
            assert!(report.results.iter().all(|r| r == &Err(HamError::TimedOut)));
            assert_eq!(report.total_energy, Picojoules::ZERO);
        }
    }

    #[test]
    fn deadline_and_budget_plumbing() {
        assert!(!Deadline::unbounded().expired());
        assert_eq!(Deadline::unbounded().remaining(), None);
        let d = Deadline::within(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        let far = Deadline::within(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining().unwrap() > Duration::from_secs(3500));
        assert_eq!(QueryBudget::default(), QueryBudget::unbounded());
        assert!(QueryBudget::per_batch(Duration::from_secs(1))
            .batch_budget
            .is_some());
    }

    #[test]
    fn extreme_budgets_saturate_without_underflow_or_panic() {
        // Duration::MAX must neither overflow arming nor remaining().
        let huge = Deadline::within(Duration::MAX);
        assert!(!huge.expired());
        assert!(huge.remaining().unwrap() > Duration::from_secs(1 << 40));
        // A zero deadline is expired from the instant it is armed, and
        // remaining() saturates to zero instead of underflowing.
        let spent = Deadline::within(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(spent.expired());
        assert_eq!(spent.remaining(), Some(Duration::ZERO));
        // A 1 ns budget behaves like zero by the time anyone looks.
        let hair = QueryBudget::per_batch(Duration::from_nanos(1)).arm();
        std::thread::sleep(Duration::from_millis(1));
        assert!(hair.expired());
        assert_eq!(hair.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn budget_intersection_takes_the_tighter_bound() {
        let unbounded = QueryBudget::unbounded();
        let short = QueryBudget::per_batch(Duration::from_millis(2));
        let long = QueryBudget::per_batch(Duration::from_secs(5));
        assert_eq!(unbounded.intersect(unbounded), unbounded);
        assert_eq!(unbounded.intersect(short), short);
        assert_eq!(short.intersect(unbounded), short);
        assert_eq!(short.intersect(long), short);
        assert_eq!(long.intersect(short), short);
        // Zero is absorbing: a request that arrives with nothing left
        // stays at nothing regardless of the server's own cap.
        let zero = QueryBudget::per_batch(Duration::ZERO);
        assert_eq!(zero.intersect(long), zero);
        assert_eq!(long.intersect(zero), zero);
    }

    #[test]
    fn expired_budget_times_out_without_spawning_workers() {
        let memory = random_memory(4, 1_024, 41);
        let design = build(DesignKind::Digital, &memory).unwrap();
        let qs = queries(&memory, 64);
        // Parallel schedule + already-spent budget: the fast path must
        // fill every slot with TimedOut without starting worker threads —
        // the whole batch resolves in far less time than a real scan.
        let options = ResilientOptions {
            batch: BatchOptions::new(8, 4),
            retry: RetryPolicy::default(),
            budget: QueryBudget::per_batch(Duration::ZERO),
        };
        let report = run_batch_resilient(design.as_ref(), &qs, &options);
        assert_eq!(report.stats.timed_out, 64);
        assert_eq!(report.stats.completed, 0);
        assert_eq!(report.stats.retries, 0, "no retry budget burned");
        assert!(report.results.iter().all(|r| r == &Err(HamError::TimedOut)));
        // Empty batches under a spent budget are well-defined too.
        let empty = run_batch_resilient(design.as_ref(), &[], &options);
        assert_eq!(empty.stats, ServeStats::default());
    }

    #[test]
    fn wire_budget_tightens_the_served_batch() {
        let memory = random_memory(5, 1_024, 42);
        let scrubber = Scrubber::from_memory(&memory);
        let mut server = ResilientServer::new(
            DesignKind::Digital,
            memory.clone(),
            scrubber,
            DegradationPolicy::for_dim(1_024),
        )
        .unwrap()
        .with_options(ResilientOptions::serial());
        let qs = queries(&memory, 8);
        // An expired wire deadline sheds the whole batch as TimedOut…
        let report =
            server.serve_with_budget(&qs, PRIORITY_NORMAL, QueryBudget::per_batch(Duration::ZERO));
        assert_eq!(report.stats.timed_out, 8);
        assert_eq!(report.stats.completed, 0);
        // …and a timeout-only batch is load control, not array damage.
        assert_eq!(report.health, HealthState::Healthy);
        // A generous wire deadline serves normally.
        let report = server.serve_with_budget(
            &qs,
            PRIORITY_NORMAL,
            QueryBudget::per_batch(Duration::from_secs(30)),
        );
        assert_eq!(report.stats.completed, 8);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let policy = RetryPolicy::default();
        for attempt in 0..4 {
            for q in [0usize, 7, 1000] {
                let a = policy.backoff(attempt, q);
                let b = policy.backoff(attempt, q);
                assert_eq!(a, b, "deterministic");
                assert!(a <= policy.max_backoff);
                assert!(a >= policy.base_backoff / 2);
            }
        }
        // The floor of the jitter range doubles with the attempt.
        assert!(policy.backoff(3, 1) >= policy.backoff(0, 1));
        assert_eq!(RetryPolicy::none().backoff(0, 0), Duration::ZERO);
        // Different queries jitter differently (with overwhelming
        // probability for this seed).
        assert_ne!(policy.backoff(0, 1), policy.backoff(0, 2));
    }

    #[test]
    fn classify_resilient_matches_the_serial_ladder() {
        let memory = random_memory(7, 2_000, 25);
        let controller = DegradationController::for_kind(
            DesignKind::Digital,
            memory.clone(),
            DegradationPolicy::for_dim(2_000),
        )
        .unwrap();
        let qs = queries(&memory, 24);
        let serial = controller.classify_batch(&qs, 40, 1).unwrap();
        let options = ResilientOptions {
            batch: BatchOptions::new(4, 3),
            retry: fast_retry(),
            budget: QueryBudget::unbounded(),
        };
        let report = classify_batch_resilient(&controller, &qs, 40, &options);
        assert_eq!(report.stats.completed, 24);
        let got: Vec<_> = report
            .outcomes
            .iter()
            .map(|o| o.as_ref().unwrap().clone())
            .collect();
        assert_eq!(got, serial);
    }

    #[test]
    fn healthy_server_serves_and_stays_healthy() {
        let memory = random_memory(8, 2_000, 26);
        let scrubber = Scrubber::from_memory(&memory);
        let mut server = ResilientServer::new(
            DesignKind::Digital,
            memory.clone(),
            scrubber,
            DegradationPolicy::for_dim(2_000),
        )
        .unwrap()
        .with_options(ResilientOptions::serial());
        let qs = queries(&memory, 40);
        let report = server.serve(&qs, PRIORITY_NORMAL);
        assert_eq!(report.stats.completed, 40);
        assert_eq!(report.health, HealthState::Healthy);
        assert!(report.actions.is_empty());
        assert_eq!(server.policy(), DegradationPolicy::for_dim(2_000));
        // Indices advance across calls (replay determinism contract).
        let again = server.serve(&qs[..5], PRIORITY_NORMAL);
        assert_eq!(again.stats.completed, 5);
    }

    #[test]
    fn corrupted_server_quarantines_and_restores_from_snapshot() {
        let dim = 1_024;
        let clean = random_memory(6, dim, 28);
        let scrubber = Scrubber::from_memory(&clean);
        // Serve a *heavily corrupted* copy: every row replaced by noise.
        let mut faulted = clean.clone();
        for class in 0..6 {
            faulted
                .replace_row(
                    ClassId(class),
                    Hypervector::random(clean.dim(), 900 + class as u64),
                )
                .unwrap();
        }
        let path =
            std::env::temp_dir().join(format!("hdham-serve-restore-{}.ham", std::process::id()));
        let mut server = ResilientServer::new(
            DesignKind::Digital,
            faulted,
            scrubber,
            DegradationPolicy::for_dim(dim),
        )
        .unwrap()
        .with_options(ResilientOptions::serial())
        .with_health_policy(HealthPolicy {
            quarantine_corrupted_rows: 3,
            ..HealthPolicy::default()
        })
        .with_snapshot(&path)
        .unwrap();

        // The snapshot captured the *golden* state, not the faulted rows.
        let on_disk = load_snapshot(&path).unwrap();
        assert!(on_disk.is_clean());
        for (class, _, row) in clean.iter() {
            assert_eq!(on_disk.memory.row(class), Some(row));
        }

        // A scrub discovers 6 corrupted rows ≥ quarantine bar → restore.
        let actions = server.scrub_now();
        assert!(actions.iter().any(|a| matches!(
            a,
            HealthAction::RestoredFromSnapshot {
                corrupted_on_disk: 0
            }
        )));
        assert_eq!(server.health().state(), HealthState::Degraded);
        for (class, _, row) in clean.iter() {
            assert_eq!(server.memory().row(class), Some(row));
        }
        // Probation tightened the policy; serving clean traffic recovers.
        let base = DegradationPolicy::for_dim(dim);
        assert!(server.policy().confident_margin > base.confident_margin);
        // Recovery takes `recovery_windows` (2) clean 64-query windows.
        let qs = queries(&clean, 128);
        for chunk in qs.chunks(64) {
            server.serve(chunk, PRIORITY_NORMAL);
        }
        assert_eq!(server.health().state(), HealthState::Healthy);
        assert_eq!(server.policy(), base);
        let occ = server.health().occupancy_fractions();
        assert!(occ[1] > 0.0, "probation time was accounted: {occ:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_without_snapshot_restores_from_golden_rows() {
        let dim = 1_024;
        let clean = random_memory(5, dim, 29);
        let scrubber = Scrubber::from_memory(&clean);
        let mut faulted = clean.clone();
        for class in 0..5 {
            faulted
                .replace_row(
                    ClassId(class),
                    Hypervector::random(clean.dim(), 700 + class as u64),
                )
                .unwrap();
        }
        let mut server = ResilientServer::new(
            DesignKind::Analog,
            faulted,
            scrubber,
            DegradationPolicy::for_dim(dim),
        )
        .unwrap()
        .with_options(ResilientOptions::serial())
        .with_health_policy(HealthPolicy {
            quarantine_corrupted_rows: 2,
            ..HealthPolicy::default()
        });
        let actions = server.scrub_now();
        assert!(actions.contains(&HealthAction::RestoredFromGolden));
        for (class, _, row) in clean.iter() {
            assert_eq!(server.memory().row(class), Some(row));
        }
    }

    /// A bit-sliced tenant (the near-duplicate shape) keeps its scan
    /// strategy, index and mirror through a quarantine restore, from the
    /// golden rows and from a snapshot alike: the restored memory scans
    /// exactly as the clean memory does.
    #[test]
    fn quarantine_restore_keeps_the_pruned_scan() {
        let dim = Dimension::new(512).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let centres: Vec<Hypervector> = (0..8).map(|s| Hypervector::random(dim, s)).collect();
        let mut clean = AssociativeMemory::new(dim);
        for i in 0..512 {
            let row = centres[i / 64].with_flipped_bits(8, &mut rng);
            clean.insert(format!("row-{i}"), row).unwrap();
        }
        clean.build_index(IndexBuildOptions::default()).unwrap();
        clean.build_sliced();
        clean.set_scan_strategy(ScanStrategy::BitSliced);
        let queries: Vec<Hypervector> = (0..8)
            .map(|c| centres[c].with_flipped_bits(4, &mut rng))
            .collect();
        let counted = |memory: &AssociativeMemory| -> Vec<hdc::ScanCounters> {
            queries
                .iter()
                .map(|q| memory.search_counted(q).unwrap().1)
                .collect()
        };
        let expected = counted(&clean);
        assert!(expected.iter().all(|c| c.rows_group_pruned > 0));

        let path =
            std::env::temp_dir().join(format!("hdham-serve-sliced-{}.ham", std::process::id()));
        for from_snapshot in [false, true] {
            let mut faulted = clean.clone();
            for class in (0..512).step_by(37) {
                faulted
                    .replace_row(ClassId(class), Hypervector::random(dim, 500 + class as u64))
                    .unwrap();
            }
            let mut server = ResilientServer::new(
                DesignKind::Digital,
                faulted,
                Scrubber::from_memory(&clean),
                DegradationPolicy::for_dim(dim.get()),
            )
            .unwrap()
            .with_options(ResilientOptions::serial())
            .with_health_policy(HealthPolicy {
                quarantine_corrupted_rows: 3,
                ..HealthPolicy::default()
            });
            if from_snapshot {
                server = server.with_snapshot(&path).unwrap();
            }
            let actions = server.scrub_now();
            assert!(
                actions.iter().any(|a| matches!(
                    a,
                    HealthAction::RestoredFromSnapshot { .. } | HealthAction::RestoredFromGolden
                )),
                "{actions:?}"
            );
            let restored = server.memory();
            assert!(restored.iter().eq(clean.iter()), "rows and labels restored");
            assert_eq!(restored.resolved_strategy(), ResolvedScan::BitSliced);
            assert!(restored.index().is_some() && restored.sliced().is_some());
            assert_eq!(counted(restored), expected, "snapshot={from_snapshot}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn light_corruption_degrades_scrubs_and_recovers() {
        let dim = 2_000;
        let clean = random_memory(8, dim, 30);
        let scrubber = Scrubber::from_memory(&clean);
        let mut faulted = clean.clone();
        // One lightly damaged row: degrade, not quarantine.
        let mut rng = StdRng::seed_from_u64(31);
        let damaged = clean
            .row(ClassId(2))
            .unwrap()
            .with_flipped_bits(30, &mut rng);
        faulted.replace_row(ClassId(2), damaged).unwrap();
        let mut server = ResilientServer::new(
            DesignKind::Digital,
            faulted,
            scrubber,
            DegradationPolicy::for_dim(dim),
        )
        .unwrap()
        .with_options(ResilientOptions::serial());
        let actions = server.scrub_now();
        assert!(actions.iter().any(|a| matches!(
            a,
            HealthAction::Scrubbed {
                corrupted: 1,
                repaired: 1
            }
        )));
        assert!(actions
            .iter()
            .any(|a| matches!(a, HealthAction::TightenedPolicy(_))));
        assert_eq!(server.health().state(), HealthState::Degraded);
        // The repair took effect in the *serving* engines, not just the
        // memory copy: clean queries classify exactly.
        for (class, _, row) in clean.iter() {
            assert_eq!(server.memory().row(class), Some(row));
        }
        let qs = queries(&clean, 128);
        for chunk in qs.chunks(64) {
            server.serve(chunk, PRIORITY_NORMAL);
        }
        assert_eq!(server.health().state(), HealthState::Healthy);
        assert!(server
            .health()
            .transitions()
            .iter()
            .any(|t| t.to == HealthState::Healthy));
    }

    #[test]
    fn chaos_design_panics_exactly_as_configured() {
        let memory = random_memory(3, 512, 32);
        let trigger = Hypervector::random(memory.dim(), 1);
        let design = ChaosDesign::new(build(DesignKind::Digital, &memory).unwrap())
            .panic_times(trigger.clone(), 1);
        assert!(catch_unwind(AssertUnwindSafe(|| design.search(&trigger))).is_err());
        // Second attempt succeeds (transient budget spent)…
        assert!(design.search(&trigger).is_ok());
        // …and non-trigger queries never panic.
        assert_eq!(design.name(), "chaos");
        assert_eq!(design.classes(), 3);
        let other = memory.row(ClassId(0)).unwrap();
        assert!(design.search(other).is_ok());
        assert!(design.search_with_margin(other).is_ok());
        assert!(!design.energy_components().is_empty());
    }
}
