//! Deterministic fault injectors for the HAM query path.
//!
//! Every injector is a pure function of its seed: the same seed always
//! produces the same fault pattern, so a degraded run is reproducible
//! bit for bit. Injectors with a zero rate (or identity drift/offset)
//! are *exact no-ops* — they touch neither the stored rows nor the
//! query, which is what lets the resilience experiment verify that the
//! degradation controller at 0 % fault matches the clean path exactly.
//!
//! Three fault surfaces are covered:
//!
//! * **storage** ([`StuckAtCells`]) — cells of the stored class
//!   hypervectors frozen at 0 or 1, the classic endurance failure of a
//!   memristive crossbar;
//! * **read path** ([`DeviceDrift`], [`SenseSkew`]) — the overscaled
//!   R-HAM blocks err more (and asymmetrically) when the crossbar
//!   device has drifted or the sense amplifiers sample off their tuned
//!   instants, expressed as a re-measured [`BlockErrorModel`];
//! * **query** ([`TransientFlips`]) — seeded bit flips on the incoming
//!   query hypervector (bus glitches, encoder soft errors).

use circuit_sim::device::{DriftModel, Memristor};
use circuit_sim::sense::SenseOffset;
use circuit_sim::units::Volts;
use hdc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::HamError;
use crate::rham::BlockErrorModel;
use crate::tech::TechnologyModel;

/// Per-row seed spread (the 64-bit golden ratio, as in SplitMix64).
const ROW_SEED_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic fault source pluggable into any of the three HAM
/// designs.
///
/// The three hooks mirror the three places faults enter a search; an
/// injector overrides the ones it models and inherits no-op defaults
/// for the rest.
pub trait FaultInjector: std::fmt::Debug {
    /// Short display name for telemetry and reports.
    fn name(&self) -> &'static str;

    /// Corrupts the stored class rows in place. Default: no-op.
    ///
    /// # Errors
    ///
    /// Propagates [`HamError::Hdc`] when a corrupted row cannot be
    /// written back (never happens for in-space rewrites).
    fn inject_rows(&self, memory: &mut AssociativeMemory) -> Result<(), HamError> {
        let _ = memory;
        Ok(())
    }

    /// Returns the faulted copy of a query, or `None` when this injector
    /// leaves queries untouched. `query_index` is the position of the
    /// query in its stream, so each query sees its own (deterministic)
    /// fault pattern. Default: `None`.
    fn inject_query(&self, query: &Hypervector, query_index: u64) -> Option<Hypervector> {
        let _ = (query, query_index);
        None
    }

    /// The degraded per-block read-error model this injector imposes on
    /// an overscaled R-HAM array, or `None` when the read path is
    /// unaffected. Default: `None`.
    fn block_errors(&self) -> Option<BlockErrorModel> {
        None
    }
}

/// Storage cells stuck at 0 or 1, spread uniformly over the array.
///
/// Each cell of each stored row is independently stuck with probability
/// `rate`, half at 0 and half at 1. A stuck cell only corrupts the row
/// when the stored bit disagrees with the stuck value, so the expected
/// per-row corruption is `rate / 2 · D` bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckAtCells {
    /// Probability that a cell is stuck (0 disables the injector).
    pub rate: f64,
    /// Seed of the stuck-cell pattern.
    pub seed: u64,
}

impl StuckAtCells {
    /// Creates the injector.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        StuckAtCells { rate, seed }
    }
}

impl FaultInjector for StuckAtCells {
    fn name(&self) -> &'static str {
        "stuck-at cells"
    }

    fn inject_rows(&self, memory: &mut AssociativeMemory) -> Result<(), HamError> {
        if self.rate == 0.0 {
            return Ok(());
        }
        let classes = memory.len();
        for r in 0..classes {
            let class = ClassId(r);
            let row = memory.row(class).expect("row index in range");
            let mut bits = row.into_bitvec();
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ (r as u64).wrapping_mul(ROW_SEED_SPREAD));
            let mut touched = false;
            for i in 0..bits.len() {
                let u: f64 = rng.gen();
                if u < self.rate / 2.0 {
                    if bits.get(i) {
                        bits.set(i, false);
                        touched = true;
                    }
                } else if u < self.rate && !bits.get(i) {
                    bits.set(i, true);
                    touched = true;
                }
            }
            if touched {
                let corrupted = Hypervector::from_bitvec(bits).map_err(HamError::Hdc)?;
                memory
                    .replace_row(class, corrupted)
                    .map_err(HamError::Hdc)?;
            }
        }
        Ok(())
    }
}

/// Transient bit flips on the query hypervector.
///
/// Each query bit flips independently with probability `rate`; the flip
/// pattern is a pure function of `(seed, query_index)`, so re-running a
/// stream reproduces it exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientFlips {
    /// Per-bit flip probability (0 disables the injector).
    pub rate: f64,
    /// Seed of the flip pattern.
    pub seed: u64,
}

impl TransientFlips {
    /// Creates the injector.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        TransientFlips { rate, seed }
    }
}

impl FaultInjector for TransientFlips {
    fn name(&self) -> &'static str {
        "transient query flips"
    }

    fn inject_query(&self, query: &Hypervector, query_index: u64) -> Option<Hypervector> {
        if self.rate == 0.0 {
            return None;
        }
        let mut bits = query.as_bitvec().clone();
        let mut rng = StdRng::seed_from_u64(self.seed ^ query_index.wrapping_mul(ROW_SEED_SPREAD));
        for i in 0..bits.len() {
            let u: f64 = rng.gen();
            if u < self.rate {
                bits.flip(i);
            }
        }
        Some(Hypervector::from_bitvec(bits).expect("same dimension as the query"))
    }
}

/// Trials used when re-measuring a degraded block error model.
const DEGRADED_MODEL_TRIALS: usize = 4_000;

/// Conductance drift of the crossbar memristors.
///
/// The aged device narrows the ON/OFF window, which compresses the
/// match-line discharge timing and makes the overscaled sense reads err
/// more often. The degraded [`BlockErrorModel`] is measured once at
/// construction from the circuit substrate with the aged device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceDrift {
    drift: DriftModel,
    errors: BlockErrorModel,
}

impl DeviceDrift {
    /// Measures the degraded error model for `drift` at the overscaled
    /// supply of the paper's technology point.
    pub fn new(drift: DriftModel, seed: u64) -> Self {
        let tech = TechnologyModel::hpca17();
        let errors = BlockErrorModel::measured_with(
            Volts::new(tech.v_overscaled),
            DEGRADED_MODEL_TRIALS,
            seed,
            drift.apply(&Memristor::high_r_on()),
            SenseOffset::NONE,
        );
        DeviceDrift { drift, errors }
    }

    /// The drift point this injector models.
    pub fn drift(&self) -> DriftModel {
        self.drift
    }
}

impl FaultInjector for DeviceDrift {
    fn name(&self) -> &'static str {
        "memristor drift"
    }

    fn block_errors(&self) -> Option<BlockErrorModel> {
        if self.drift.is_none() {
            None
        } else {
            Some(self.errors)
        }
    }
}

/// Sense-amplifier sampling skew.
///
/// A chain whose comparators sample off their tuned instants misreads
/// asymmetrically (late skews high, early skews low); the degraded
/// [`BlockErrorModel`] is measured once at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseSkew {
    offset: SenseOffset,
    errors: BlockErrorModel,
}

impl SenseSkew {
    /// Measures the degraded error model for `offset` at the overscaled
    /// supply of the paper's technology point.
    pub fn new(offset: SenseOffset, seed: u64) -> Self {
        let tech = TechnologyModel::hpca17();
        let errors = BlockErrorModel::measured_with(
            Volts::new(tech.v_overscaled),
            DEGRADED_MODEL_TRIALS,
            seed,
            Memristor::high_r_on(),
            offset,
        );
        SenseSkew { offset, errors }
    }

    /// The offset this injector models.
    pub fn offset(&self) -> SenseOffset {
        self.offset
    }
}

impl FaultInjector for SenseSkew {
    fn name(&self) -> &'static str {
        "sense-amplifier skew"
    }

    fn block_errors(&self) -> Option<BlockErrorModel> {
        if self.offset.is_none() {
            None
        } else {
            Some(self.errors)
        }
    }
}

/// Runs every injector's storage hook over a copy of `memory` and
/// returns the faulted array; the read-path and query hooks are left to
/// the degradation controller. The original memory is untouched (it is
/// the golden reference the scrubber repairs against).
///
/// # Errors
///
/// Propagates the first injector error.
pub fn apply_faults(
    memory: &AssociativeMemory,
    injectors: &[Box<dyn FaultInjector>],
) -> Result<AssociativeMemory, HamError> {
    let mut faulted = memory.clone();
    for injector in injectors {
        injector.inject_rows(&mut faulted)?;
    }
    Ok(faulted)
}

/// The combined degraded read-error model of a set of injectors: the
/// last injector that degrades the read path wins (drift and skew do
/// not compose in this model), or `None` when none does.
pub fn combined_block_errors(injectors: &[Box<dyn FaultInjector>]) -> Option<BlockErrorModel> {
    injectors.iter().rev().find_map(|i| i.block_errors())
}

/// Applies every injector's query hook in order, returning the faulted
/// query, or `None` when no injector touches queries (the caller can
/// then search with the original, guaranteeing bit-exactness).
pub fn apply_query_faults(
    injectors: &[Box<dyn FaultInjector>],
    query: &Hypervector,
    query_index: u64,
) -> Option<Hypervector> {
    let mut faulted: Option<Hypervector> = None;
    for injector in injectors {
        let current = faulted.as_ref().unwrap_or(query);
        if let Some(next) = injector.inject_query(current, query_index) {
            faulted = Some(next);
        }
    }
    faulted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::random_memory;

    #[test]
    fn zero_rate_stuck_at_is_an_exact_noop() {
        let memory = random_memory(8, 1_000, 3);
        let injectors: Vec<Box<dyn FaultInjector>> = vec![Box::new(StuckAtCells::new(0.0, 7))];
        let faulted = apply_faults(&memory, &injectors).unwrap();
        for (class, _, row) in memory.iter() {
            assert_eq!(faulted.row(class), Some(row));
        }
    }

    #[test]
    fn stuck_at_is_deterministic_and_rate_scaled() {
        let memory = random_memory(8, 2_000, 3);
        let mild: Vec<Box<dyn FaultInjector>> = vec![Box::new(StuckAtCells::new(0.01, 7))];
        let harsh: Vec<Box<dyn FaultInjector>> = vec![Box::new(StuckAtCells::new(0.2, 7))];
        let a = apply_faults(&memory, &mild).unwrap();
        let b = apply_faults(&memory, &mild).unwrap();
        let c = apply_faults(&memory, &harsh).unwrap();
        let corruption = |faulted: &AssociativeMemory| -> usize {
            memory
                .iter()
                .map(|(class, _, row)| faulted.row(class).unwrap().hamming(&row).as_usize())
                .sum()
        };
        assert_eq!(corruption(&a), corruption(&b), "same seed, same pattern");
        for (class, _, _) in memory.iter() {
            assert_eq!(a.row(class), b.row(class));
        }
        assert!(corruption(&a) > 0, "1 % of 16k cells must hit something");
        assert!(
            corruption(&c) > 5 * corruption(&a),
            "rate scales corruption"
        );
        // Expected corruption ≈ rate/2 · cells.
        let cells = 8 * 2_000;
        let expect = 0.01 / 2.0 * cells as f64;
        assert!((corruption(&a) as f64) < 2.5 * expect);
    }

    #[test]
    fn stuck_at_seeds_differ() {
        let memory = random_memory(4, 2_000, 3);
        let s7: Vec<Box<dyn FaultInjector>> = vec![Box::new(StuckAtCells::new(0.05, 7))];
        let s8: Vec<Box<dyn FaultInjector>> = vec![Box::new(StuckAtCells::new(0.05, 8))];
        let a = apply_faults(&memory, &s7).unwrap();
        let b = apply_faults(&memory, &s8).unwrap();
        let differs = memory
            .iter()
            .any(|(class, _, _)| a.row(class) != b.row(class));
        assert!(differs, "different seeds give different patterns");
    }

    #[test]
    fn transient_flips_zero_rate_returns_none() {
        let memory = random_memory(2, 500, 1);
        let q = &memory.row(ClassId(0)).unwrap();
        let flips = TransientFlips::new(0.0, 9);
        assert!(flips.inject_query(q, 0).is_none());
    }

    #[test]
    fn transient_flips_are_per_query_deterministic() {
        let memory = random_memory(2, 2_000, 1);
        let q = &memory.row(ClassId(0)).unwrap();
        let flips = TransientFlips::new(0.02, 9);
        let a = flips.inject_query(q, 3).unwrap();
        let b = flips.inject_query(q, 3).unwrap();
        let c = flips.inject_query(q, 4).unwrap();
        assert_eq!(a, b, "same query index, same flips");
        assert_ne!(a, c, "different query index, different flips");
        let flipped = a.hamming(q).as_usize();
        assert!(flipped > 0 && flipped < 2_000 / 5, "≈2 % of bits flip");
    }

    #[test]
    fn identity_drift_and_offset_leave_read_path_alone() {
        assert!(DeviceDrift::new(DriftModel::NONE, 1)
            .block_errors()
            .is_none());
        assert!(SenseSkew::new(SenseOffset::NONE, 1)
            .block_errors()
            .is_none());
        let injectors: Vec<Box<dyn FaultInjector>> = vec![
            Box::new(DeviceDrift::new(DriftModel::NONE, 1)),
            Box::new(SenseSkew::new(SenseOffset::NONE, 1)),
        ];
        assert!(combined_block_errors(&injectors).is_none());
    }

    #[test]
    fn drift_and_skew_degrade_the_error_model() {
        let nominal = BlockErrorModel::measured(
            Volts::new(TechnologyModel::hpca17().v_overscaled),
            4_000,
            0x0E44,
        );
        let drifted = DeviceDrift::new(DriftModel::after_aging(1e9, 0.12), 5);
        let skewed = SenseSkew::new(SenseOffset::new(0.35), 5);
        let d = drifted.block_errors().unwrap();
        let s = skewed.block_errors().unwrap();
        assert!(
            d.worst_error_rate() > nominal.worst_error_rate(),
            "drift {:.4} vs nominal {:.4}",
            d.worst_error_rate(),
            nominal.worst_error_rate()
        );
        assert!(
            s.worst_error_rate() > nominal.worst_error_rate(),
            "skew {:.4} vs nominal {:.4}",
            s.worst_error_rate(),
            nominal.worst_error_rate()
        );
        // Late sampling skews reads high: up-errors dominate down-errors.
        let up: f64 = s.up.iter().sum();
        let down: f64 = s.down.iter().sum();
        assert!(
            up > down,
            "late skew must read high (up {up} vs down {down})"
        );
    }

    #[test]
    fn query_fault_pipeline_composes() {
        let memory = random_memory(2, 1_000, 1);
        let q = &memory.row(ClassId(1)).unwrap();
        let none: Vec<Box<dyn FaultInjector>> = vec![
            Box::new(StuckAtCells::new(0.1, 1)), // storage-only: no query hook
            Box::new(TransientFlips::new(0.0, 2)),
        ];
        assert!(apply_query_faults(&none, q, 0).is_none());
        let some: Vec<Box<dyn FaultInjector>> = vec![
            Box::new(TransientFlips::new(0.01, 2)),
            Box::new(TransientFlips::new(0.01, 3)),
        ];
        let faulted = apply_query_faults(&some, q, 0).unwrap();
        assert!(faulted.hamming(q).as_usize() > 0);
    }
}
