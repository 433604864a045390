//! Phase-level functional simulation of R-HAM.
//!
//! Where [`crate::rham::RHam`] models the *outcome* of a search (with a
//! pre-measured block error model), this module walks one search through
//! the hardware phases, pulling every block's timing from the circuit
//! substrate:
//!
//! 1. **Precharge** — all match lines charge to the array supply.
//! 2. **Evaluate** — every 4-bit block discharges for its local distance;
//!    the four staggered sense amplifiers latch a thermometer code. The
//!    phase lasts until the *slowest relevant tap*, i.e. the first sense
//!    amplifier's sampling instant.
//! 3. **Count** — per-row counters sum the block codes, `lanes` blocks
//!    per cycle.
//! 4. **Reduce** — the comparator tree settles in `⌈log₂C⌉` cycles.
//!
//! The simulation reports both the decision and where the time went, and
//! its decisions match [`RHam`] exactly when overscaling is off.

use circuit_sim::device::Memristor;
use circuit_sim::matchline::MatchLine;
use circuit_sim::montecarlo::GaussianSampler;
use circuit_sim::sense::SenseChain;
use circuit_sim::units::{Seconds, Volts};
use hdc::prelude::*;

use crate::model::{HamError, HamSearchResult};
use crate::rham::{RHam, BLOCK_BITS};

/// Where the search time goes, in physical units for the analog phases
/// and cycles for the digital ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTiming {
    /// Precharge duration.
    pub precharge: Seconds,
    /// Evaluate window (up to the latest sense-amplifier tap).
    pub evaluate: Seconds,
    /// Counter cycles, `⌈blocks / lanes⌉`.
    pub count_cycles: u64,
    /// Comparator-tree cycles, `⌈log₂C⌉`.
    pub reduce_cycles: u64,
}

/// One simulated search.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// The decision (winner + its counted distance).
    pub result: HamSearchResult,
    /// The phase timings.
    pub timing: PhaseTiming,
    /// Total thermometer lines that rose across the array this search —
    /// the switching activity the thermometer code is designed to keep
    /// low (Table II).
    pub rising_lines: usize,
}

/// The phase simulator.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use ham_core::rham_cycle::RhamPhaseSim;
///
/// let memory = ham_core::explore::random_memory(8, 1_024, 1);
/// let sim = RhamPhaseSim::new(&memory, 64)?;
/// let report = sim.run(&memory.row(ClassId(2)).unwrap())?;
/// assert_eq!(report.result.class, ClassId(2));
/// assert_eq!(report.timing.reduce_cycles, 3); // ⌈log₂8⌉
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RhamPhaseSim {
    rows: Vec<Hypervector>,
    dim: Dimension,
    lanes: usize,
    chain: SenseChain,
    precharge: Seconds,
    evaluate: Seconds,
    supply: Volts,
    noisy: bool,
}

impl RhamPhaseSim {
    /// Creates a simulator at nominal voltage (exact reads) counting
    /// `lanes` block codes per cycle per row.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(memory: &AssociativeMemory, lanes: usize) -> Result<Self, HamError> {
        RhamPhaseSim::with_supply(memory, lanes, Volts::new(1.0), false)
    }

    /// Creates a simulator at an explicit block supply; `noisy` enables
    /// the stochastic sense model (reads may err by one level when
    /// overscaled).
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn with_supply(
        memory: &AssociativeMemory,
        lanes: usize,
        supply: Volts,
        noisy: bool,
    ) -> Result<Self, HamError> {
        assert!(lanes > 0, "counters need at least one lane");
        if memory.is_empty() {
            return Err(HamError::NoClasses);
        }
        let block = MatchLine::new(BLOCK_BITS, Memristor::high_r_on()).with_supply(supply);
        let chain = SenseChain::tuned(&block);
        // Precharge: a few RC constants of the keeper path.
        let precharge = Seconds::from_nanos(0.5);
        // Evaluate: the first (latest) sense tap closes the window.
        let evaluate = chain
            .taps()
            .first()
            .copied()
            .unwrap_or(Seconds::from_nanos(2.0));
        Ok(RhamPhaseSim {
            rows: memory.iter().map(|(_, _, hv)| hv).collect(),
            dim: memory.dim(),
            lanes,
            chain,
            precharge,
            evaluate,
            supply,
            noisy,
        })
    }

    /// The configured block supply.
    pub fn supply(&self) -> Volts {
        self.supply
    }

    /// Executes one search phase by phase.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::DimensionMismatch`] for a query from another
    /// space.
    pub fn run(&self, query: &Hypervector) -> Result<PhaseReport, HamError> {
        if query.dim() != self.dim {
            return Err(HamError::DimensionMismatch {
                expected: self.dim.get(),
                actual: query.dim().get(),
            });
        }
        let blocks_per_row = self.dim.get().div_ceil(BLOCK_BITS);
        // Deterministic per-query noise stream (same convention as RHam).
        let mut noise = GaussianSampler::new(0x9_A5E ^ query.count_ones() as u64);

        // Evaluate phase: per-block reads through the sense chain.
        let mut counters = vec![0usize; self.rows.len()];
        let mut rising_lines = 0usize;
        for (row_idx, row) in self.rows.iter().enumerate() {
            let blocks = RHam::block_distances(row, query);
            let mut previous = self.chain.read_exact(0);
            for &t in blocks.iter() {
                let code = if self.noisy {
                    self.chain
                        .read_noisy((t as usize).min(BLOCK_BITS), &mut noise)
                } else {
                    self.chain.read_exact((t as usize).min(BLOCK_BITS))
                };
                counters[row_idx] += code.to_distance();
                rising_lines += previous.rising_lines(&code);
                previous = code;
            }
        }

        // Reduce phase: comparator tree.
        let mut round: Vec<usize> = (0..counters.len()).collect();
        let mut reduce_cycles = 0u64;
        while round.len() > 1 {
            let mut next = Vec::with_capacity(round.len().div_ceil(2));
            for pair in round.chunks(2) {
                next.push(if pair.len() == 1 {
                    pair[0]
                } else if counters[pair[1]] < counters[pair[0]] {
                    pair[1]
                } else {
                    pair[0]
                });
            }
            round = next;
            reduce_cycles += 1;
        }
        let winner = round[0];

        Ok(PhaseReport {
            result: HamSearchResult {
                class: ClassId(winner),
                measured_distance: Distance::new(counters[winner]),
            },
            timing: PhaseTiming {
                precharge: self.precharge,
                evaluate: self.evaluate,
                count_cycles: blocks_per_row.div_ceil(self.lanes) as u64,
                reduce_cycles,
            },
            rising_lines,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::random_memory;
    use crate::model::HamDesign;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phase_sim_matches_the_outcome_model() {
        let memory = random_memory(8, 2_048, 3);
        let sim = RhamPhaseSim::new(&memory, 32).unwrap();
        let rham = RHam::new(&memory).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..8usize {
            let q = memory
                .row(ClassId(trial))
                .unwrap()
                .with_flipped_bits(300 + 40 * trial, &mut rng);
            let phase = sim.run(&q).unwrap();
            let outcome = rham.search(&q).unwrap();
            assert_eq!(phase.result, outcome, "trial {trial}");
        }
    }

    #[test]
    fn evaluate_window_covers_every_tap() {
        let memory = random_memory(2, 64, 1);
        let sim = RhamPhaseSim::new(&memory, 4).unwrap();
        let q = memory.row(ClassId(0)).unwrap().clone();
        let report = sim.run(&q).unwrap();
        // The evaluate window is the first tap — the latest sampling
        // instant of the staggered chain.
        assert!(report.timing.evaluate.get() > 0.0);
        assert!(report.timing.precharge.get() > 0.0);
        assert_eq!(report.timing.count_cycles, 4); // ⌈16 blocks / 4 lanes⌉
        assert_eq!(report.timing.reduce_cycles, 1);
    }

    #[test]
    fn rising_lines_reflect_thermometer_coding() {
        let dim = Dimension::new(1_024).unwrap();
        let hv = Hypervector::random(dim, 5);
        let mut memory = AssociativeMemory::new(dim);
        memory.insert("self", hv.clone()).unwrap();
        let sim = RhamPhaseSim::new(&memory, 16).unwrap();
        // Querying the stored row itself: every block distance is 0, no
        // line ever rises.
        let report = sim.run(&hv).unwrap();
        assert_eq!(report.rising_lines, 0);
        assert_eq!(report.result.measured_distance, Distance::ZERO);
        // A random query raises roughly one line per nonzero block
        // transition — far fewer than 4 lines × 256 blocks.
        let other = Hypervector::random(dim, 6);
        let busy = sim.run(&other).unwrap();
        assert!(busy.rising_lines > 0);
        assert!(busy.rising_lines < 4 * 256);
    }

    #[test]
    fn overscaled_noisy_sim_stays_within_one_bit_per_block() {
        let memory = random_memory(4, 1_024, 9);
        let exact = RhamPhaseSim::new(&memory, 16).unwrap();
        let noisy =
            RhamPhaseSim::with_supply(&memory, 16, Volts::from_millis(780.0), true).unwrap();
        assert!((noisy.supply().get() - 0.78).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(2);
        let q = memory
            .row(ClassId(1))
            .unwrap()
            .with_flipped_bits(300, &mut rng);
        let e = exact.run(&q).unwrap();
        let n = noisy.run(&q).unwrap();
        assert_eq!(e.result.class, n.result.class);
        let delta = e
            .result
            .measured_distance
            .as_usize()
            .abs_diff(n.result.measured_distance.as_usize());
        assert!(delta <= 256, "delta = {delta}");
    }

    #[test]
    fn phase_sim_agrees_with_dham_cycle_sim_on_decisions() {
        // Two independent functional models of two different designs must
        // still make the same decisions on exact searches.
        let memory = random_memory(6, 512, 11);
        let rham_sim = RhamPhaseSim::new(&memory, 8).unwrap();
        let dham_sim = crate::dham_cycle::DhamCycleSim::new(&memory, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..6usize {
            let q = memory
                .row(ClassId(trial))
                .unwrap()
                .with_flipped_bits(100, &mut rng);
            assert_eq!(
                rham_sim.run(&q).unwrap().result.class,
                dham_sim.run(&q).unwrap().result.class,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn errors() {
        let memory = random_memory(2, 64, 1);
        let sim = RhamPhaseSim::new(&memory, 4).unwrap();
        let alien = Hypervector::random(Dimension::new(128).unwrap(), 1);
        assert!(sim.run(&alien).is_err());
        let empty = AssociativeMemory::new(Dimension::new(64).unwrap());
        assert!(RhamPhaseSim::new(&empty, 4).is_err());
    }
}
