//! Fault injection, graceful degradation, and scrub/repair for the HAM
//! query path.
//!
//! The paper's designs trade accuracy for energy *by construction* —
//! sampling, overscaling, limited analog resolution. A deployed array
//! additionally degrades *by accident*: cells stick, memristors drift,
//! sense amplifiers skew, queries pick up transient flips. This module
//! makes both kinds of degradation first-class:
//!
//! * [`fault`] — deterministic, seeded [`FaultInjector`]s covering the
//!   storage array ([`StuckAtCells`]), the R-HAM read path
//!   ([`DeviceDrift`], [`SenseSkew`]) and the query bus
//!   ([`TransientFlips`]); zero-rate injectors are exact no-ops.
//! * [`degrade`] — the [`DegradationController`], which gates every
//!   classification on its winner-to-runner-up margin and escalates
//!   marginal queries (resample → widened engine → exact search),
//!   reporting per-query [`QueryOutcome`] telemetry.
//! * [`scrub`] — the [`Scrubber`], which detects corrupted stored rows
//!   by golden-copy comparison and rewrites them, undoing permanent
//!   storage faults between query batches.
//! * [`serve`] — the serving runtime: panic-isolated partial batches
//!   ([`run_batch_resilient`]) with retry-with-backoff and deadline
//!   budgets, and the self-healing [`ResilientServer`].
//! * [`health`] — the [`HealthMonitor`] state machine folding query
//!   telemetry and scrub reports into
//!   `Healthy → Degraded → Quarantined` decisions.
//! * [`snapshot`] — checksummed, atomically-published golden-copy
//!   persistence for [`AssociativeMemory`](hdc::AssociativeMemory) and
//!   [`Scrubber`] state, whose row-level corruption feeds the scrub path.
//!
//! The resilience experiment in `ham-bench` sweeps fault rates over all
//! three designs and shows the controller holding classification
//! accuracy long after the raw approximate engines give out.

pub mod degrade;
pub mod fault;
pub mod health;
pub mod scrub;
pub mod serve;
pub mod snapshot;
pub mod wal;

pub use degrade::{
    Confidence, DegradationController, DegradationPolicy, EngineStage, QueryOutcome,
};
pub use fault::{
    apply_faults, apply_query_faults, combined_block_errors, DeviceDrift, FaultInjector, SenseSkew,
    StuckAtCells, TransientFlips,
};
pub use health::{HealthMonitor, HealthPolicy, HealthState, HealthTransition};
pub use scrub::{ScrubReport, Scrubber};
pub use serve::{
    classify_batch_resilient, run_batch_resilient, ChaosDesign, ClassifyReport, Deadline,
    HealthAction, Priority, QueryBudget, ResilientOptions, ResilientReport, ResilientServer,
    RetryPolicy, ServeReport, ServeStats, PRIORITY_HIGH, PRIORITY_NORMAL,
};
pub use snapshot::{
    load_golden, load_snapshot, load_snapshot_repaired, save_golden, save_snapshot,
    save_snapshot_with_lsn, RepairedLoad, SnapshotError, SnapshotLoad, SnapshotSource,
};
pub use wal::{
    oldest_segment_lsn, recover, replay_floor, strike, CrashAction, CrashInjector, CrashOnce,
    CrashPoint, Recovered, ReplaySummary, Wal, WalError, WalOptions, WalRecord,
};
