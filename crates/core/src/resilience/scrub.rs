//! Scrub and repair: detecting stuck-at-corrupted class rows and
//! restoring them from golden copies.
//!
//! Stuck-at faults are *permanent* — no amount of query-side escalation
//! recovers a corrupted stored row. What does work is the classic memory
//! scrub: periodically compare each stored row against a golden copy and
//! rewrite the rows that drifted. In an HD system the golden copies are
//! essentially free: the trainer's class accumulators can re-binarize
//! every learned hypervector exactly (see `langid`'s accumulator
//! invariant), and a served tenant already holds them — its published
//! [`MemoryVersion`] is the state the engine must match, so the scrubber
//! pins that version instead of keeping rows of its own.

use std::sync::Arc;

use hdc::kernel::hamming_words;
use hdc::prelude::*;

use crate::model::HamError;
use crate::shard::MemoryVersion;

/// The outcome of one scrub pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Rows checked against their golden copies.
    pub scanned: usize,
    /// Rows found to differ, with the Hamming distance of the damage.
    pub corrupted: Vec<(ClassId, Distance)>,
    /// Rows rewritten from the golden copies (all of `corrupted` on a
    /// repair pass, empty on a scan-only pass).
    pub repaired: Vec<ClassId>,
}

impl ScrubReport {
    /// Whether the scanned memory matched its golden copies everywhere.
    pub fn is_clean(&self) -> bool {
        self.corrupted.is_empty()
    }

    /// Total corrupted bits across all damaged rows.
    pub fn corrupted_bits(&self) -> usize {
        self.corrupted.iter().map(|(_, d)| d.as_usize()).sum()
    }
}

/// Detects and repairs corrupted class rows against golden copies: the
/// rows of a pinned [`MemoryVersion`].
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use ham_core::explore::random_memory;
/// use ham_core::resilience::{apply_faults, FaultInjector, Scrubber, StuckAtCells};
///
/// let clean = random_memory(8, 1_000, 3);
/// let scrubber = Scrubber::from_memory(&clean);
/// let injectors: Vec<Box<dyn FaultInjector>> = vec![Box::new(StuckAtCells::new(0.05, 1))];
/// let mut faulted = apply_faults(&clean, &injectors)?;
///
/// let report = scrubber.repair(&mut faulted)?;
/// assert!(!report.is_clean(), "stuck-at cells corrupted some rows");
/// assert_eq!(report.repaired.len(), report.corrupted.len());
/// // After repair every row matches its golden copy again.
/// assert!(scrubber.scan(&faulted)?.is_clean());
/// # Ok::<(), ham_core::HamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scrubber {
    golden: Arc<MemoryVersion>,
}

impl Scrubber {
    /// A scrubber holding explicit golden rows (typically re-binarized
    /// from the trainer's class accumulators), in class order, labelled
    /// `golden-<class>`.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty golden set and
    /// [`HamError::DimensionMismatch`] when the rows disagree on
    /// dimensionality.
    pub fn new(golden: Vec<Hypervector>) -> Result<Self, HamError> {
        let dim = match golden.first() {
            Some(hv) => hv.dim(),
            None => return Err(HamError::NoClasses),
        };
        let mut memory = AssociativeMemory::new(dim);
        for (class, hv) in golden.into_iter().enumerate() {
            if hv.dim() != dim {
                return Err(HamError::DimensionMismatch {
                    expected: dim.get(),
                    actual: hv.dim().get(),
                });
            }
            memory
                .insert(format!("golden-{class}"), hv)
                .map_err(HamError::Hdc)?;
        }
        Ok(Scrubber::from_memory(&memory))
    }

    /// A scrubber whose golden rows are a snapshot of a healthy memory
    /// (one copy of its rows, into a standalone [`MemoryVersion`]).
    ///
    /// # Panics
    ///
    /// Panics if the memory is empty (snapshot of nothing).
    pub fn from_memory(memory: &AssociativeMemory) -> Self {
        Scrubber::pinned(Arc::new(MemoryVersion::of(0, memory)))
            .expect("a healthy memory holds at least one row")
    }

    /// A scrubber whose golden rows are `version`'s — a served tenant's
    /// published version, pinned rather than copied.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty version.
    pub fn pinned(version: Arc<MemoryVersion>) -> Result<Self, HamError> {
        if version.rows() == 0 {
            return Err(HamError::NoClasses);
        }
        Ok(Scrubber { golden: version })
    }

    /// The version whose rows are golden.
    pub fn golden(&self) -> &Arc<MemoryVersion> {
        &self.golden
    }

    /// Number of golden rows.
    pub fn classes(&self) -> usize {
        self.golden.rows()
    }

    /// The golden row of a class, if held.
    pub fn golden_row(&self, class: ClassId) -> Option<Hypervector> {
        self.golden
            .row_words(class.0)
            .map(|words| Hypervector::from_words(self.golden.dim(), words))
    }

    /// Checks that `memory` holds as many rows as the golden state, in
    /// its space.
    ///
    /// # Errors
    ///
    /// [`HamError::GoldenMismatch`] when the class counts differ and
    /// [`HamError::DimensionMismatch`] when the spaces differ.
    pub(crate) fn check(&self, memory: &AssociativeMemory) -> Result<(), HamError> {
        if memory.len() != self.classes() {
            return Err(HamError::GoldenMismatch {
                golden: self.classes(),
                stored: memory.len(),
            });
        }
        if memory.dim() != self.golden.dim() {
            return Err(HamError::DimensionMismatch {
                expected: self.golden.dim().get(),
                actual: memory.dim().get(),
            });
        }
        Ok(())
    }

    /// Scans the memory against the golden rows without modifying it.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::GoldenMismatch`] when the class counts differ
    /// and [`HamError::DimensionMismatch`] when the spaces differ.
    pub fn scan(&self, memory: &AssociativeMemory) -> Result<ScrubReport, HamError> {
        self.check(memory)?;
        let corrupted: Vec<(ClassId, Distance)> = memory
            .iter_words()
            .zip(self.golden.records())
            .filter_map(|((class, _, row), (_, golden))| {
                let damage = Distance::new(hamming_words(row, golden));
                (damage > Distance::ZERO).then_some((class, damage))
            })
            .collect();
        Ok(ScrubReport {
            scanned: self.classes(),
            corrupted,
            repaired: Vec::new(),
        })
    }

    /// Scans the memory and rewrites every corrupted row from its golden
    /// copy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`scan`](Self::scan).
    pub fn repair(&self, memory: &mut AssociativeMemory) -> Result<ScrubReport, HamError> {
        let mut report = self.scan(memory)?;
        for &(class, _) in &report.corrupted {
            let golden = self.golden_row(class).expect("scan checked the row count");
            memory.replace_row(class, golden).map_err(HamError::Hdc)?;
        }
        report.repaired = report.corrupted.iter().map(|&(class, _)| class).collect();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::random_memory;
    use crate::resilience::fault::{apply_faults, FaultInjector, StuckAtCells};

    #[test]
    fn clean_memory_scans_clean() {
        let memory = random_memory(6, 1_000, 1);
        let scrubber = Scrubber::from_memory(&memory);
        let report = scrubber.scan(&memory).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.scanned, 6);
        assert_eq!(report.corrupted_bits(), 0);
        assert_eq!(scrubber.classes(), 6);
    }

    #[test]
    fn scrub_finds_exactly_the_corrupted_rows_and_repairs_them() {
        let clean = random_memory(8, 2_000, 2);
        let scrubber = Scrubber::from_memory(&clean);
        let injectors: Vec<Box<dyn FaultInjector>> = vec![Box::new(StuckAtCells::new(0.02, 5))];
        let mut faulted = apply_faults(&clean, &injectors).unwrap();

        // Ground truth: which rows actually differ.
        let truly_corrupted: Vec<ClassId> = clean
            .iter()
            .filter(|(class, _, row)| faulted.row(*class).as_ref() != Some(row))
            .map(|(class, _, _)| class)
            .collect();
        assert!(!truly_corrupted.is_empty());

        let report = scrubber.repair(&mut faulted).unwrap();
        let found: Vec<ClassId> = report.corrupted.iter().map(|&(c, _)| c).collect();
        assert_eq!(found, truly_corrupted);
        assert_eq!(report.repaired, truly_corrupted);
        assert!(report.corrupted_bits() > 0);

        // Repair restores exact equality: self-distance is zero again.
        for (class, _, row) in clean.iter() {
            assert_eq!(faulted.row(class), Some(row));
        }
        assert_eq!(faulted.packed_rows(), clean.packed_rows());
        assert!(scrubber.scan(&faulted).unwrap().is_clean());
    }

    #[test]
    fn explicit_golden_rows_validate() {
        assert!(matches!(
            Scrubber::new(Vec::new()),
            Err(HamError::NoClasses)
        ));
        let d1 = Dimension::new(100).unwrap();
        let d2 = Dimension::new(200).unwrap();
        let rows = vec![Hypervector::random(d1, 1), Hypervector::random(d2, 2)];
        assert!(matches!(
            Scrubber::new(rows),
            Err(HamError::DimensionMismatch {
                expected: 100,
                actual: 200
            })
        ));
    }

    #[test]
    fn mismatched_memories_are_rejected() {
        let memory = random_memory(4, 1_000, 1);
        let scrubber = Scrubber::from_memory(&memory);
        let fewer = random_memory(3, 1_000, 1);
        assert!(matches!(
            scrubber.scan(&fewer),
            Err(HamError::GoldenMismatch {
                golden: 4,
                stored: 3
            })
        ));
        let other_space = random_memory(4, 512, 1);
        assert!(matches!(
            scrubber.scan(&other_space),
            Err(HamError::DimensionMismatch {
                expected: 1_000,
                actual: 512
            })
        ));
        assert_eq!(scrubber.golden_row(ClassId(0)), memory.row(ClassId(0)));
        assert!(scrubber.golden_row(ClassId(9)).is_none());
    }

    #[test]
    fn a_pinned_version_is_the_golden_state_without_a_copy() {
        let memory = random_memory(20, 512, 4);
        let version = Arc::new(MemoryVersion::of(3, &memory));
        let scrubber = Scrubber::pinned(Arc::clone(&version)).unwrap();
        assert!(Arc::ptr_eq(scrubber.golden(), &version));
        assert_eq!(scrubber.classes(), 20);
        assert!(scrubber.scan(&memory).unwrap().is_clean());
        let mut damaged = memory.clone();
        let mut row = memory.row(ClassId(17)).unwrap();
        row = row.with_flipped_bits(9, &mut rand::thread_rng());
        damaged.replace_row(ClassId(17), row).unwrap();
        let report = scrubber.repair(&mut damaged).unwrap();
        assert_eq!(report.corrupted, vec![(ClassId(17), Distance::new(9))]);
        assert_eq!(damaged.packed_rows(), memory.packed_rows());
        let empty = AssociativeMemory::new(Dimension::new(512).unwrap());
        assert!(matches!(
            Scrubber::pinned(Arc::new(MemoryVersion::of(0, &empty))),
            Err(HamError::NoClasses)
        ));
    }
}
