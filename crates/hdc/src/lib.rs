//! Hyperdimensional (HD) computing substrate.
//!
//! This crate implements the computing-with-hypervectors model that the
//! HPCA'17 paper *Exploring Hyperdimensional Associative Memory* builds on:
//! dense binary hypervectors with thousands of i.i.d. components, the
//! multiply–add–permute (MAP) algebra over them, item memories that assign
//! fixed random hypervectors to input symbols, an *n*-gram text encoder, and
//! a software associative memory that classifies a query hypervector by
//! nearest Hamming distance.
//!
//! # Quick example
//!
//! ```
//! use hdc::prelude::*;
//!
//! // 10,000-dimensional space, as in the paper.
//! let dim = Dimension::new(10_000)?;
//! let mut item_memory = ItemMemory::new(dim, 42);
//!
//! let a = item_memory.get_or_insert("a").clone();
//! let b = item_memory.get_or_insert("b").clone();
//!
//! // Binding produces a hypervector dissimilar to both operands.
//! let bound = a.bind(&b);
//! assert!(bound.hamming(&a).as_usize() > 4_000);
//!
//! // Bundling preserves similarity to each operand.
//! let c = item_memory.get_or_insert("c").clone();
//! let bundle = Bundler::with_tie_break(dim, TieBreak::Seeded(7))
//!     .add(&a)
//!     .add(&b)
//!     .add(&c)
//!     .finish();
//! assert!(bundle.hamming(&a).as_usize() < 5_000);
//! # Ok::<(), hdc::HdcError>(())
//! ```
//!
//! # Modules
//!
//! * [`bitvec`] — the packed binary vector storage every hypervector uses.
//! * [`hypervector`] — randomly seeded hypervectors and Hamming distances.
//! * [`ops`] — bind (XOR), bundle (bitwise majority), permute (rotation).
//! * [`item_memory`] — fixed symbol → seed-hypervector assignment.
//! * [`encoder`] — the letter *n*-gram text encoder of the paper.
//! * [`kernel`] — the software search engine: contiguous row-major packed
//!   storage, runtime-dispatched SIMD distance backends (AVX-512
//!   `VPOPCNTDQ`, AVX2, NEON, portable scalar — forceable via
//!   `HAM_KERNEL_BACKEND`), fused, early-abandoning Hamming scan
//!   kernels with an exact sampled-prefilter cascade, and a two-level
//!   bundled-centroid bucket index whose triangle-inequality pruning
//!   keeps results bit-identical to the linear scan.
//! * [`am`] — exact software associative memory (the functional reference
//!   that the hardware designs in `ham-core` are validated against); its
//!   search paths run on the [`kernel`] engine.
//! * [`parallel`] — the shared worker-count policy (`0` = one worker per
//!   core) and the one batch executor behind every batch API in the
//!   workspace.
//! * [`distortion`] — structured sampling and distance-error injection used
//!   by the robustness study (paper Fig. 1).
//! * [`level`] / [`seq`] — extension encoders: scalar levels and records,
//!   and generic token sequences.

// Unsafe is denied everywhere except the SIMD backend modules under
// `kernel`, which opt back in (`#![allow(unsafe_code)]`) for the
// feature-gated intrinsics and document each use with a SAFETY comment.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod am;
pub mod bitvec;
pub mod distortion;
pub mod encoder;
pub mod hypervector;
pub mod item_memory;
pub mod kernel;
pub mod level;
pub mod ops;
pub mod parallel;
pub mod patch;
pub mod seq;

mod error;

#[cfg(feature = "serde")]
mod serde_impls;

pub use crate::am::{AssociativeMemory, ClassId, SearchResult};
pub use crate::bitvec::BitVec;
pub use crate::distortion::{DistanceDistorter, SampleMask};
pub use crate::encoder::NGramEncoder;
pub use crate::error::HdcError;
pub use crate::hypervector::{Dimension, Distance, Hypervector};
pub use crate::item_memory::{ItemMemory, Rematerializer};
pub use crate::kernel::weighted::MultiBitRows;
pub use crate::kernel::{
    active_backend, active_backend_name, enabled_backends, BitSlicedRows, BucketIndex,
    DistanceBackend, IndexBuildOptions, IndexStats, Min2, PackedRows, ResolvedScan, RowSource,
    ScanCounters, ScanPlan, ScanStrategy,
};
pub use crate::level::{LevelEncoder, RecordEncoder};
pub use crate::ops::{Bundler, TieBreak};
pub use crate::parallel::{available_threads, default_threads};
pub use crate::patch::RowPatch;
pub use crate::seq::SequenceEncoder;

/// Convenience re-exports for typical use of the crate.
pub mod prelude {
    pub use crate::am::{AssociativeMemory, ClassId, SearchResult};
    pub use crate::bitvec::BitVec;
    pub use crate::distortion::{DistanceDistorter, SampleMask};
    pub use crate::encoder::NGramEncoder;
    pub use crate::error::HdcError;
    pub use crate::hypervector::{Dimension, Distance, Hypervector};
    pub use crate::item_memory::{ItemMemory, Rematerializer};
    pub use crate::kernel::weighted::MultiBitRows;
    pub use crate::kernel::{
        BitSlicedRows, Min2, PackedRows, ResolvedScan, RowSource, ScanCounters, ScanPlan,
        ScanStrategy,
    };
    pub use crate::level::{LevelEncoder, RecordEncoder};
    pub use crate::ops::{Bundler, TieBreak};
    pub use crate::parallel::{available_threads, default_threads};
    pub use crate::patch::RowPatch;
    pub use crate::seq::SequenceEncoder;
}
