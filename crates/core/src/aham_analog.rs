//! Current-domain functional simulation of A-HAM.
//!
//! [`crate::aham::AHam`] models the analog search through its *resolution*
//! (rows closer than the minimum detectable distance are unresolved).
//! This module simulates the same search in the current domain itself:
//! per-stage stabilizer currents from [`circuit_sim::analog::MlStabilizer`],
//! mirror summation with per-mirror gain error, and an actual
//! [`circuit_sim::analog::LtaTree`] tournament over the summed currents.
//!
//! The two models are independent implementations of the same hardware;
//! their agreement on clear-margin searches (and the analog model's
//! occasional upsets inside the tie window) is itself a test of the
//! resolution abstraction.

use circuit_sim::analog::{LtaComparator, LtaTree, MlStabilizer, ResolutionModel};
use circuit_sim::device::Memristor;
use circuit_sim::montecarlo::GaussianSampler;
use circuit_sim::units::Amps;
use circuit_sim::TransistorCorner;
use hdc::prelude::*;

use crate::model::{HamError, HamSearchResult};
use crate::rham::RHam;

/// One-sigma relative gain error of each partial-current summing mirror
/// (matches the calibration of the resolution model).
const MIRROR_SIGMA_REL: f64 = 5.1e-3;

/// The analog-domain simulator.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use ham_core::aham_analog::AhamAnalogSim;
///
/// let memory = ham_core::explore::random_memory(8, 1_024, 1);
/// let mut sim = AhamAnalogSim::new(&memory, 42)?;
/// let report = sim.run(&memory.row(ClassId(4)).unwrap())?;
/// assert_eq!(report.result.class, ClassId(4));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AhamAnalogSim {
    rows: Vec<Hypervector>,
    dim: Dimension,
    resolution: ResolutionModel,
    stabilizer: MlStabilizer,
    tree: LtaTree,
    noise: GaussianSampler,
}

/// One simulated analog search.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogReport {
    /// The decision. The measured distance is the winner's current mapped
    /// back through the stabilizer transfer curve (quantized by the LTA).
    pub result: HamSearchResult,
    /// The per-row summed currents presented to the LTA tree.
    pub row_currents: Vec<Amps>,
}

impl AhamAnalogSim {
    /// Creates the simulator with the recommended configuration for the
    /// memory's dimensionality and a seed for the mirror-error draws.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    pub fn new(memory: &AssociativeMemory, seed: u64) -> Result<Self, HamError> {
        if memory.is_empty() {
            return Err(HamError::NoClasses);
        }
        let resolution = ResolutionModel::recommended(memory.dim().get());
        let stabilizer = MlStabilizer::new(
            resolution.segment_cells(),
            Memristor::high_r_on(),
            TransistorCorner::tsmc45_tt(),
        );
        let full_scale = stabilizer.full_scale() * resolution.stages() as f64;
        let tree = LtaTree::new(LtaComparator::new(resolution.effective_bits(), full_scale));
        Ok(AhamAnalogSim {
            rows: memory.iter().map(|(_, _, hv)| hv).collect(),
            dim: memory.dim(),
            resolution,
            stabilizer,
            tree,
            noise: GaussianSampler::new(seed),
        })
    }

    /// The configuration in use.
    pub fn resolution(&self) -> ResolutionModel {
        self.resolution
    }

    /// Executes one search in the current domain.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::DimensionMismatch`] for a query from another
    /// space.
    pub fn run(&mut self, query: &Hypervector) -> Result<AnalogReport, HamError> {
        if query.dim() != self.dim {
            return Err(HamError::DimensionMismatch {
                expected: self.dim.get(),
                actual: query.dim().get(),
            });
        }
        let stages = self.resolution.stages();
        let segment = self.resolution.segment_cells();

        // Per-row: split the mismatch pattern into stages, draw each
        // stage's stabilizer current, sum through (noisy) mirrors.
        let mut row_currents = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            // Per-stage mismatch counts from the block distances (blocks
            // are 4 bits; stages are ⌈blocks/stages⌉ blocks wide).
            let blocks = RHam::block_distances(row, query);
            let blocks_per_stage = blocks.len().div_ceil(stages);
            let mut total = Amps::new(0.0);
            for (stage_idx, stage_blocks) in blocks.chunks(blocks_per_stage).enumerate() {
                let mismatches: usize = stage_blocks.iter().map(|&b| b as usize).sum();
                let current = self.stabilizer.current(mismatches.min(segment) as f64);
                // Every stage after the first passes through one more
                // summing mirror with gain error.
                let gain = if stage_idx == 0 {
                    1.0
                } else {
                    1.0 + MIRROR_SIGMA_REL * self.noise.sample().clamp(-3.0, 3.0)
                };
                total = total + current * gain;
            }
            row_currents.push(total);
        }

        let winner = self.tree.find_min(&row_currents);

        // Map the winner's current back to a distance estimate through the
        // (invertible, monotone) stabilizer transfer curve.
        let measured = self.current_to_distance(row_currents[winner]);
        Ok(AnalogReport {
            result: HamSearchResult {
                class: ClassId(winner),
                measured_distance: Distance::new(measured),
            },
            row_currents,
        })
    }

    /// Inverts the summed transfer curve by bisection.
    fn current_to_distance(&self, current: Amps) -> usize {
        let stages = self.resolution.stages() as f64;
        let eval = |d: f64| -> f64 {
            let per_stage = (d / stages).min(self.resolution.segment_cells() as f64);
            self.stabilizer.current(per_stage).get() * stages
        };
        let (mut lo, mut hi) = (0usize, self.dim.get());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if eval(mid as f64) < current.get() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aham::AHam;
    use crate::explore::random_memory;
    use crate::model::HamDesign;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn analog_sim_agrees_with_resolution_model_on_clear_margins() {
        let memory = random_memory(21, 10_000, 7);
        let mut sim = AhamAnalogSim::new(&memory, 1).unwrap();
        let aham = AHam::new(&memory).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for trial in 0..12usize {
            let class = trial % 21;
            let q = memory
                .row(ClassId(class))
                .unwrap()
                .with_flipped_bits(2_000, &mut rng);
            let analog = sim.run(&q).unwrap();
            let abstracted = aham.search(&q).unwrap();
            assert_eq!(analog.result.class, abstracted.class, "trial {trial}");
            assert_eq!(analog.result.class, ClassId(class));
        }
    }

    #[test]
    fn row_currents_track_distances_monotonically() {
        let memory = random_memory(6, 10_000, 3);
        let mut sim = AhamAnalogSim::new(&memory, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let q = memory
            .row(ClassId(2))
            .unwrap()
            .with_flipped_bits(1_500, &mut rng);
        let report = sim.run(&q).unwrap();
        assert_eq!(report.row_currents.len(), 6);
        // The true class draws the least current.
        let min_idx = report
            .row_currents
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.get().partial_cmp(&b.1.get()).unwrap())
            .unwrap()
            .0;
        assert_eq!(min_idx, 2);
        // And the measured distance estimate lands near the true 1,500.
        let measured = report.result.measured_distance.as_usize();
        assert!(
            (1_200..=1_800).contains(&measured),
            "measured {measured} for a true distance of 1,500"
        );
    }

    #[test]
    fn configuration_matches_the_recommended_model() {
        let memory = random_memory(4, 10_000, 9);
        let sim = AhamAnalogSim::new(&memory, 0).unwrap();
        assert_eq!(sim.resolution().stages(), 14);
        assert_eq!(sim.resolution().lta_bits(), 14);
    }

    #[test]
    fn close_rows_can_upset_in_the_current_domain() {
        // Build two rows a few bits apart from the query — inside the tie
        // window — and check the analog sim picks one of them without
        // crashing; which one is a matter of mirror noise and LTA bias.
        let dim = Dimension::new(10_000).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let query = Hypervector::random(dim, 1);
        let row0 = query.with_flipped_bits(1_005, &mut rng);
        let row1 = query.with_flipped_bits(1_000, &mut rng);
        let mut memory = AssociativeMemory::new(dim);
        memory.insert("a", row0).unwrap();
        memory.insert("b", row1).unwrap();
        let mut sim = AhamAnalogSim::new(&memory, 3).unwrap();
        let report = sim.run(&query).unwrap();
        assert!(report.result.class.0 < 2);
    }

    #[test]
    fn errors() {
        let empty = AssociativeMemory::new(Dimension::new(64).unwrap());
        assert!(AhamAnalogSim::new(&empty, 0).is_err());
        let memory = random_memory(2, 256, 1);
        let mut sim = AhamAnalogSim::new(&memory, 0).unwrap();
        let alien = Hypervector::random(Dimension::new(128).unwrap(), 1);
        assert!(sim.run(&alien).is_err());
    }
}
