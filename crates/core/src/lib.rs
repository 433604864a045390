//! The three hyperdimensional associative memory (HAM) architectures of
//! *Exploring Hyperdimensional Associative Memory* (HPCA 2017) — the
//! paper's primary contribution.
//!
//! Every HD-computing classifier ends in the same operation: compare a
//! query hypervector against `C` learned hypervectors and return the
//! nearest by Hamming distance. This crate models the three hardware
//! design points the paper proposes for that search, each implementing the
//! [`model::HamDesign`] trait:
//!
//! * [`dham::DHam`] — digital CMOS: XOR mismatch array + binary counters +
//!   a comparator tree. Scales to any dimension; burns 81% of its energy
//!   in the CAM array. Approximation: structured sampling.
//! * [`rham::RHam`] — resistive crossbar split into 4-bit blocks whose
//!   match-line discharge *timing* encodes block distance, read out as a
//!   low-switching thermometer code. Approximations: block sampling and
//!   voltage overscaling (0.78 V, ≤ 1 bit error per block).
//! * [`aham::AHam`] — analog: current-domain distances compared by a
//!   Loser-Takes-All tree; fastest and smallest, but limited by the
//!   minimum detectable distance of its LTA resolution and sensitive to
//!   variation.
//!
//! Cost models (energy pJ / delay ns / area mm²) are analytic
//! component-count formulas with constants fitted to the paper's published
//! numbers — see [`tech::TechnologyModel`] for the per-constant fit
//! provenance and `DESIGN.md` for the full experiment index.
//!
//! # Quick example
//!
//! ```
//! use hdc::prelude::*;
//! use ham_core::prelude::*;
//!
//! // 21 learned language hypervectors, as in the paper's workload.
//! let memory = ham_core::explore::random_memory(21, 10_000, 42);
//!
//! let dham = DHam::new(&memory)?;
//! let rham = RHam::new(&memory)?;
//! let aham = AHam::new(&memory)?;
//!
//! // All three agree with exact search on a clear-margin query…
//! let query = memory.row(ClassId(7)).unwrap();
//! assert_eq!(dham.search(&query)?.class, ClassId(7));
//! assert_eq!(rham.search(&query)?.class, ClassId(7));
//! assert_eq!(aham.search(&query)?.class, ClassId(7));
//!
//! // …at very different costs.
//! assert!(aham.cost().edp().get() < rham.cost().edp().get());
//! assert!(rham.cost().edp().get() < dham.cost().edp().get());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod aham;
pub mod aham_analog;
pub mod batch;
pub mod dham;
pub mod dham_cycle;
pub mod explore;
pub mod index;
pub mod model;
pub mod pareto;
pub mod resilience;
pub mod rham;
pub mod rham_cycle;
pub mod sensitivity;
pub mod shard;
pub mod switching;
pub mod tech;
pub mod units;

pub use crate::aham::AHam;
pub use crate::batch::{run_batch, run_batch_parallel, BatchOptions, BatchReport};
pub use crate::dham::DHam;
pub use crate::index::{ensure_indexed, IndexPolicy};
pub use crate::model::{
    CostMetrics, HamDesign, HamError, HamSearchResult, MarginSearchResult, SharedDesign,
};
pub use crate::resilience::{
    recover, CrashAction, CrashInjector, CrashOnce, CrashPoint, Recovered, Wal, WalError,
    WalOptions, WalRecord,
};
pub use crate::rham::RHam;
pub use crate::shard::{
    MemoryChunk, MemoryVersion, OnlineUpdater, UpdateOp, VersionedMemory, CHUNK_ROWS,
};
pub use crate::tech::TechnologyModel;
pub use crate::units::{EnergyDelay, Nanoseconds, Picojoules, SquareMillimeters};

/// Convenience re-exports for typical use of the crate.
pub mod prelude {
    pub use crate::aham::AHam;
    pub use crate::batch::{run_batch, run_batch_parallel, BatchOptions, BatchReport};
    pub use crate::dham::DHam;
    pub use crate::explore::DesignKind;
    pub use crate::index::{ensure_indexed, IndexPolicy};
    pub use crate::model::{
        CostMetrics, HamDesign, HamError, HamSearchResult, MarginSearchResult, SharedDesign,
    };
    pub use crate::resilience::{
        classify_batch_resilient, load_snapshot, run_batch_resilient, save_snapshot, Confidence,
        DegradationController, DegradationPolicy, EngineStage, FaultInjector, HealthMonitor,
        HealthPolicy, HealthState, QueryBudget, QueryOutcome, ResilientOptions, ResilientServer,
        RetryPolicy, ScrubReport, Scrubber, ServeStats, StuckAtCells, TransientFlips,
    };
    pub use crate::rham::RHam;
    pub use crate::shard::{MemoryVersion, OnlineUpdater, UpdateOp, VersionedMemory};
    pub use crate::tech::TechnologyModel;
    pub use crate::units::{EnergyDelay, Nanoseconds, Picojoules, SquareMillimeters};
}
