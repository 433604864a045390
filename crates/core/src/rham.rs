//! R-HAM: the resistive (memristive) hyperdimensional associative memory.
//!
//! Structure (paper Fig. 3): the learned hypervectors live in a resistive
//! crossbar partitioned into 4-bit blocks. Each block's match line
//! discharges at a rate set by its local Hamming distance; four staggered
//! sense amplifiers read that timing out as a thermometer code (0–4), and
//! per-row counters sum the block distances. The same comparator tree as
//! D-HAM picks the minimum.
//!
//! Approximation knobs:
//!
//! * **Block sampling** — trailing blocks are removed from the design
//!   outright (250 blocks ≈ 1,000 bits of distance error keeps the maximum
//!   accuracy; 750 keeps the moderate level).
//! * **Voltage overscaling** — blocks run at 0.78 V, where each read may be
//!   off by at most one level. Energy drops quadratically with voltage;
//!   the holographic encoding spreads the resulting errors across many
//!   blocks, which HD tolerates (paper Fig. 4(c)/Fig. 5).
//!
//! The read-error probabilities of an overscaled block are *measured from
//! the circuit substrate* ([`circuit_sim::sense::SenseChain`]) at
//! construction, and searches are deterministic per query (the error RNG
//! is seeded from the query content).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use circuit_sim::device::Memristor;
use circuit_sim::matchline::MatchLine;
use circuit_sim::montecarlo::GaussianSampler;
use circuit_sim::sense::{SenseChain, SenseOffset};
use circuit_sim::units::Volts;
use hdc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{CostMetrics, HamDesign, HamError, HamSearchResult, MarginSearchResult};
use crate::tech::TechnologyModel;
use crate::units::Picojoules;

/// Bits per resistive block — the paper's maximum size for accurate
/// distance determination.
pub const BLOCK_BITS: usize = 4;

/// Per-level read-error probabilities of an overscaled block, indexed by
/// the true block distance 0–4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockErrorModel {
    /// Probability of reading one level high.
    pub up: [f64; BLOCK_BITS + 1],
    /// Probability of reading one level low.
    pub down: [f64; BLOCK_BITS + 1],
}

impl BlockErrorModel {
    /// No read errors (nominal supply).
    pub const EXACT: BlockErrorModel = BlockErrorModel {
        up: [0.0; BLOCK_BITS + 1],
        down: [0.0; BLOCK_BITS + 1],
    };

    /// Measures the error model of a block at the given supply by Monte
    /// Carlo over the circuit substrate's noisy sense chain.
    pub fn measured(v_dd: Volts, trials: usize, seed: u64) -> Self {
        Self::measured_with(
            v_dd,
            trials,
            seed,
            Memristor::high_r_on(),
            SenseOffset::NONE,
        )
    }

    /// Measures the error model of a *degraded* block: the crossbar device
    /// may have drifted (pass the aged [`Memristor`]) and the comparators
    /// may sample off their tuned instants (pass a nonzero
    /// [`SenseOffset`]). The sense chain is tuned once, at manufacture,
    /// against the fresh device — drift then moves the actual discharge
    /// timing out from under its frozen taps. With the fresh device and
    /// zero offset this is exactly [`measured`](Self::measured).
    pub fn measured_with(
        v_dd: Volts,
        trials: usize,
        seed: u64,
        device: Memristor,
        offset: SenseOffset,
    ) -> Self {
        let tuned_on = MatchLine::new(BLOCK_BITS, Memristor::high_r_on()).with_supply(v_dd);
        let block = MatchLine::new(BLOCK_BITS, device).with_supply(v_dd);
        let chain = SenseChain::tuned_with_offset(&tuned_on, offset).retimed(&block);
        let mut noise = GaussianSampler::new(seed);
        let mut up = [0.0; BLOCK_BITS + 1];
        let mut down = [0.0; BLOCK_BITS + 1];
        for t in 0..=BLOCK_BITS {
            let mut highs = 0usize;
            let mut lows = 0usize;
            for _ in 0..trials {
                let read = chain.read_noisy(t, &mut noise).to_distance();
                if read > t {
                    highs += 1;
                } else if read < t {
                    lows += 1;
                }
            }
            up[t] = highs as f64 / trials as f64;
            down[t] = lows as f64 / trials as f64;
        }
        BlockErrorModel { up, down }
    }

    /// The worst per-read error probability across levels.
    pub fn worst_error_rate(&self) -> f64 {
        self.up
            .iter()
            .zip(&self.down)
            .map(|(u, d)| u + d)
            .fold(0.0, f64::max)
    }
}

/// Write cost and endurance headroom of one R-HAM training session (see
/// [`RHam::training_write_report`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingWriteReport {
    /// Cells actually cycled when programming the learned hypervectors
    /// into a fresh array (≈ half the cells: only the ones storing 1).
    pub cells_written: usize,
    /// SET/RESET energy of the session.
    pub write_energy: Picojoules,
    /// Training sessions a conservative 10⁶-cycle device still sustains.
    pub remaining_trainings_conservative: u64,
    /// Training sessions a typical 10⁹-cycle device still sustains.
    pub remaining_trainings_typical: u64,
}

/// The resistive design.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use ham_core::rham::RHam;
/// use ham_core::model::HamDesign;
///
/// let d = Dimension::new(10_000)?;
/// let mut am = AssociativeMemory::new(d);
/// for s in 0..21u64 {
///     am.insert(format!("lang-{s}"), Hypervector::random(d, s))?;
/// }
///
/// // The paper's moderate-accuracy point: every block voltage-overscaled.
/// let rham = RHam::new(&am)?.with_overscaled_blocks(2_500);
/// let hit = rham.search(am.row(ClassId(3)).unwrap())?;
/// assert_eq!(hit.class, ClassId(3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RHam {
    rows: Vec<Hypervector>,
    dim: Dimension,
    total_blocks: usize,
    excluded_blocks: usize,
    overscaled_blocks: usize,
    errors: BlockErrorModel,
    tech: TechnologyModel,
}

impl RHam {
    /// Builds the design from a trained associative memory with no
    /// approximation (all blocks active at nominal voltage).
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    pub fn new(memory: &AssociativeMemory) -> Result<Self, HamError> {
        if memory.is_empty() {
            return Err(HamError::NoClasses);
        }
        let tech = TechnologyModel::hpca17();
        let errors = BlockErrorModel::measured(Volts::new(tech.v_overscaled), 4_000, 0x0E44);
        Ok(RHam {
            rows: memory.iter().map(|(_, _, hv)| hv.clone()).collect(),
            dim: memory.dim(),
            total_blocks: memory.dim().get().div_ceil(BLOCK_BITS),
            excluded_blocks: 0,
            overscaled_blocks: 0,
            errors,
            tech,
        })
    }

    /// Excludes the trailing `n` blocks from the design (structured
    /// sampling). Clamped to leave at least one active block.
    pub fn with_excluded_blocks(mut self, n: usize) -> Self {
        self.excluded_blocks = n.min(self.total_blocks - 1);
        self.overscaled_blocks = self.overscaled_blocks.min(self.active_blocks());
        self
    }

    /// Runs the leading `n` active blocks at the overscaled 0.78 V supply.
    /// Clamped to the number of active blocks.
    pub fn with_overscaled_blocks(mut self, n: usize) -> Self {
        self.overscaled_blocks = n.min(self.active_blocks());
        self
    }

    /// Replaces the per-block read-error model — the hook fault injectors
    /// use to make the overscaled blocks err like an aged or skewed array
    /// (see [`BlockErrorModel::measured_with`]).
    pub fn with_error_model(mut self, errors: BlockErrorModel) -> Self {
        self.errors = errors;
        self
    }

    /// Replaces the technology model.
    pub fn with_tech(mut self, tech: TechnologyModel) -> Self {
        self.tech = tech;
        self
    }

    /// The stored rows the crossbar holds.
    pub fn rows(&self) -> &[Hypervector] {
        &self.rows
    }

    /// Reprograms the rows `patch` changes (callers keep at least one
    /// row and the design's space).
    pub(crate) fn apply_patch(&mut self, patch: &RowPatch<'_>) {
        patch.apply_to_rows(&mut self.rows);
    }

    /// Total blocks in the array, `⌈D / 4⌉`.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// Blocks participating in the distance computation.
    pub fn active_blocks(&self) -> usize {
        self.total_blocks - self.excluded_blocks
    }

    /// Blocks running at the overscaled supply.
    pub fn overscaled_blocks(&self) -> usize {
        self.overscaled_blocks
    }

    /// The measured overscaled-block error model.
    pub fn block_errors(&self) -> BlockErrorModel {
        self.errors
    }

    /// Per-block Hamming distances of `query` against one stored row
    /// (error-free, before overscaling noise), one entry per block.
    pub fn block_distances(row: &Hypervector, query: &Hypervector) -> Vec<u8> {
        let d = row.dim().get();
        let blocks = d.div_ceil(BLOCK_BITS);
        let mut out = vec![0u8; blocks];
        let a = row.as_bitvec().as_words();
        let b = query.as_bitvec().as_words();
        for (w, (x, y)) in a.iter().zip(b).enumerate() {
            let mut diff = x ^ y;
            for nibble in 0..16 {
                let block = w * 16 + nibble;
                if block >= blocks {
                    break;
                }
                out[block] = (diff & 0xF).count_ones() as u8;
                diff >>= 4;
                if diff == 0 && nibble >= 15 {
                    break;
                }
            }
        }
        out
    }

    /// The relative crossbar (CAM-array) energy saving of the current
    /// approximation settings versus the unapproximated design — the
    /// quantity paper Fig. 5 plots for sampling vs voltage overscaling.
    pub fn relative_cam_energy_saving(&self) -> f64 {
        let baseline = self
            .tech
            .rham_cam_energy(self.rows.len(), self.total_blocks, 0);
        let actual = self.tech.rham_cam_energy(
            self.rows.len(),
            self.active_blocks(),
            self.overscaled_blocks,
        );
        1.0 - actual / baseline
    }

    /// Crossbar vs logic energy partition.
    pub fn energy_breakdown(&self) -> (Picojoules, Picojoules) {
        (
            self.tech.rham_cam_energy(
                self.rows.len(),
                self.active_blocks(),
                self.overscaled_blocks,
            ),
            self.tech
                .rham_logic_energy(self.rows.len(), self.active_blocks()),
        )
    }

    /// Simulates programming the learned hypervectors into a fresh
    /// crossbar (one training session) and reports the write cost and the
    /// endurance headroom — the paper's answer to memristor wear is
    /// exactly this once-per-training policy.
    pub fn training_write_report(&self) -> TrainingWriteReport {
        use circuit_sim::crossbar::{Crossbar, Endurance, WriteScheme};
        use circuit_sim::units::Volts;

        let mut array = Crossbar::new(self.rows.len(), self.dim.get(), WriteScheme::Differential);
        let patterns: Vec<hdc::BitVec> =
            self.rows.iter().map(|hv| hv.as_bitvec().clone()).collect();
        let cells = array.program_all(patterns.iter());
        TrainingWriteReport {
            cells_written: cells,
            write_energy: Picojoules::new(Crossbar::write_energy_pj(
                cells,
                Volts::new(self.tech.v_nominal),
            )),
            remaining_trainings_conservative: array.remaining_trainings(Endurance::CONSERVATIVE),
            remaining_trainings_typical: array.remaining_trainings(Endurance::TYPICAL),
        }
    }

    fn query_seed(query: &Hypervector) -> u64 {
        let mut h = DefaultHasher::new();
        query.as_bitvec().as_words().hash(&mut h);
        h.finish()
    }

    fn check_query(&self, query: &Hypervector) -> Result<(), HamError> {
        if query.dim() != self.dim {
            return Err(HamError::DimensionMismatch {
                expected: self.dim.get(),
                actual: query.dim().get(),
            });
        }
        Ok(())
    }

    /// The measured (post-overscaling) distance of every row, in row
    /// order. The RNG is consumed row-major, one draw per overscaled
    /// block — the stream every search flavour shares.
    fn row_totals(&self, query: &Hypervector, rng: &mut StdRng) -> Vec<usize> {
        let active = self.active_blocks();
        self.rows
            .iter()
            .map(|row| {
                let blocks = Self::block_distances(row, query);
                let mut total = 0usize;
                for (b, &t) in blocks.iter().take(active).enumerate() {
                    let t = t as usize;
                    let read = if b < self.overscaled_blocks && t <= BLOCK_BITS {
                        let u: f64 = rng.gen();
                        if u < self.errors.up[t] {
                            (t + 1).min(BLOCK_BITS)
                        } else if u < self.errors.up[t] + self.errors.down[t] {
                            t.saturating_sub(1)
                        } else {
                            t
                        }
                    } else {
                        t
                    };
                    total += read;
                }
                total
            })
            .collect()
    }

    /// Search whose overscaling-error stream is re-seeded with `salt` —
    /// the degradation controller's retry knob. A salt of zero is
    /// bit-identical to [`search`](HamDesign::search); any other salt
    /// redraws the per-block errors (still deterministically for the
    /// same query and salt).
    ///
    /// # Errors
    ///
    /// Returns [`HamError::DimensionMismatch`] for a query from another
    /// space.
    pub fn search_with_salt(
        &self,
        query: &Hypervector,
        salt: u64,
    ) -> Result<HamSearchResult, HamError> {
        self.check_query(query)?;
        let mut rng = StdRng::seed_from_u64(Self::query_seed(query) ^ salt);
        let totals = self.row_totals(query, &mut rng);
        let mut best = 0usize;
        for (i, &total) in totals.iter().enumerate().skip(1) {
            if total < totals[best] {
                best = i;
            }
        }
        Ok(HamSearchResult {
            class: ClassId(best),
            measured_distance: Distance::new(totals[best]),
        })
    }

    /// [`search_with_salt`](Self::search_with_salt) that also reports the
    /// runner-up distance. Salt zero matches
    /// [`search_with_margin`](HamDesign::search_with_margin) exactly.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::DimensionMismatch`] for a query from another
    /// space.
    pub fn search_with_margin_salted(
        &self,
        query: &Hypervector,
        salt: u64,
    ) -> Result<MarginSearchResult, HamError> {
        self.check_query(query)?;
        let mut rng = StdRng::seed_from_u64(Self::query_seed(query) ^ salt);
        let totals = self.row_totals(query, &mut rng);
        let mut best = 0usize;
        for (i, &total) in totals.iter().enumerate().skip(1) {
            if total < totals[best] {
                best = i;
            }
        }
        let runner_up = totals
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != best)
            .map(|(_, &t)| Distance::new(t))
            .min();
        Ok(MarginSearchResult {
            class: ClassId(best),
            measured_distance: Distance::new(totals[best]),
            runner_up,
        })
    }
}

impl HamDesign for RHam {
    fn name(&self) -> &'static str {
        "R-HAM"
    }

    fn classes(&self) -> usize {
        self.rows.len()
    }

    fn dim(&self) -> Dimension {
        self.dim
    }

    fn search(&self, query: &Hypervector) -> Result<HamSearchResult, HamError> {
        // Error sampling is deterministic per query: the RNG is seeded from
        // the query content, so repeated searches agree.
        self.search_with_salt(query, 0)
    }

    fn search_with_margin(&self, query: &Hypervector) -> Result<MarginSearchResult, HamError> {
        self.search_with_margin_salted(query, 0)
    }

    fn cost(&self) -> CostMetrics {
        let (cam, logic) = self.energy_breakdown();
        let active_d = self.active_blocks() * BLOCK_BITS;
        CostMetrics {
            energy: cam + logic,
            delay: self
                .tech
                .rham_delay(self.rows.len(), active_d.min(self.dim.get())),
            area: self
                .tech
                .rham_area(self.rows.len(), active_d.min(self.dim.get())),
        }
    }

    fn energy_components(&self) -> Vec<(&'static str, Picojoules)> {
        let (cam, logic) = self.energy_breakdown();
        vec![
            ("resistive crossbar", cam),
            ("counters and comparators", logic),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn memory(c: usize, d: usize) -> AssociativeMemory {
        let dim = Dimension::new(d).unwrap();
        let mut am = AssociativeMemory::new(dim);
        for s in 0..c as u64 {
            am.insert(format!("c{s}"), Hypervector::random(dim, s))
                .unwrap();
        }
        am
    }

    #[test]
    fn block_distances_sum_to_hamming() {
        let dim = Dimension::new(10_000).unwrap();
        let a = Hypervector::random(dim, 1);
        let b = Hypervector::random(dim, 2);
        let blocks = RHam::block_distances(&a, &b);
        assert_eq!(blocks.len(), 2_500);
        let total: usize = blocks.iter().map(|&x| x as usize).sum();
        assert_eq!(total, a.hamming(&b).as_usize());
        assert!(blocks.iter().all(|&x| x <= 4));
    }

    #[test]
    fn block_distances_handle_partial_tail() {
        let dim = Dimension::new(10).unwrap();
        let a = Hypervector::zeros(dim);
        let b = Hypervector::ones(dim);
        let blocks = RHam::block_distances(&a, &b);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks, vec![4, 4, 2]);
    }

    #[test]
    fn exact_rham_matches_software_reference() {
        let am = memory(21, 10_000);
        let rham = RHam::new(&am).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for s in [0usize, 10, 20] {
            let noisy = am
                .row(ClassId(s))
                .unwrap()
                .with_flipped_bits(3_000, &mut rng);
            let exact = am.search(&noisy).unwrap();
            let hw = rham.search(&noisy).unwrap();
            assert_eq!(hw.class, exact.class);
            assert_eq!(hw.measured_distance, exact.distance);
        }
    }

    #[test]
    fn searches_are_deterministic_per_query() {
        let am = memory(21, 2_000);
        let rham = RHam::new(&am).unwrap().with_overscaled_blocks(500);
        let mut rng = StdRng::seed_from_u64(5);
        let q = am.row(ClassId(7)).unwrap().with_flipped_bits(600, &mut rng);
        let a = rham.search(&q).unwrap();
        let b = rham.search(&q).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn salt_zero_is_bit_identical_to_search() {
        let am = memory(21, 2_000);
        let rham = RHam::new(&am).unwrap().with_overscaled_blocks(500);
        let mut rng = StdRng::seed_from_u64(8);
        for s in 0..5usize {
            let q = am.row(ClassId(s)).unwrap().with_flipped_bits(500, &mut rng);
            assert_eq!(
                rham.search(&q).unwrap(),
                rham.search_with_salt(&q, 0).unwrap()
            );
        }
    }

    #[test]
    fn distinct_salts_redraw_the_error_stream() {
        let am = memory(21, 2_000);
        let rham = RHam::new(&am).unwrap().with_overscaled_blocks(500);
        let mut rng = StdRng::seed_from_u64(13);
        let q = am.row(ClassId(4)).unwrap().with_flipped_bits(700, &mut rng);
        // Each salt is individually deterministic...
        assert_eq!(
            rham.search_with_salt(&q, 99).unwrap(),
            rham.search_with_salt(&q, 99).unwrap()
        );
        // ...and at least one salt in a small set redraws a different
        // measured distance (the error stream did change).
        let base = rham.search_with_salt(&q, 0).unwrap();
        let redrawn = (1u64..=8).any(|salt| {
            rham.search_with_salt(&q, salt).unwrap().measured_distance != base.measured_distance
        });
        assert!(redrawn, "salting must perturb the overscaling errors");
    }

    #[test]
    fn margin_search_agrees_with_search() {
        let am = memory(21, 2_000);
        let rham = RHam::new(&am).unwrap().with_overscaled_blocks(500);
        let mut rng = StdRng::seed_from_u64(6);
        for s in 0..5usize {
            let q = am.row(ClassId(s)).unwrap().with_flipped_bits(400, &mut rng);
            let plain = rham.search(&q).unwrap();
            let margin = rham.search_with_margin(&q).unwrap();
            assert_eq!(margin.class, plain.class);
            assert_eq!(margin.measured_distance, plain.measured_distance);
            let ru = margin.runner_up.unwrap();
            assert!(ru >= margin.measured_distance);
            assert!(margin.margin() > 0, "distinct random classes have margin");
        }
    }

    #[test]
    fn custom_error_model_replaces_the_measured_one() {
        let am = memory(4, 1_000);
        let mut errors = BlockErrorModel::EXACT;
        errors.up[1] = 1.0; // every distance-1 block reads as 2
        let rham = RHam::new(&am)
            .unwrap()
            .with_overscaled_blocks(250)
            .with_error_model(errors);
        assert_eq!(rham.block_errors(), errors);
        let mut rng = StdRng::seed_from_u64(2);
        let q = am.row(ClassId(0)).unwrap().with_flipped_bits(100, &mut rng);
        let exact = am.search(&q).unwrap();
        let hw = rham.search(&q).unwrap();
        // Forced up-errors inflate the measured distance past the exact one.
        assert!(hw.measured_distance > exact.distance);
    }

    #[test]
    fn overscaled_search_stays_close_to_exact() {
        let am = memory(21, 10_000);
        let exactd = RHam::new(&am).unwrap();
        let overscaled = exactd.clone().with_overscaled_blocks(2_500);
        let mut rng = StdRng::seed_from_u64(9);
        let mut errors = 0usize;
        for s in 0..21usize {
            let q = am
                .row(ClassId(s))
                .unwrap()
                .with_flipped_bits(3_500, &mut rng);
            let e = exactd.search(&q).unwrap();
            let o = overscaled.search(&q).unwrap();
            if e.class != o.class {
                errors += 1;
            }
            // Measured distance moves by far less than the worst-case
            // one-bit-per-block budget.
            let delta = e
                .measured_distance
                .as_usize()
                .abs_diff(o.measured_distance.as_usize());
            assert!(delta <= 2_500, "delta = {delta}");
        }
        assert!(errors <= 2, "overscaling must rarely flip decisions");
    }

    #[test]
    fn excluded_blocks_reduce_measured_distance() {
        let am = memory(4, 10_000);
        let full = RHam::new(&am).unwrap();
        let sampled = full.clone().with_excluded_blocks(750);
        assert_eq!(sampled.active_blocks(), 1_750);
        let mut rng = StdRng::seed_from_u64(2);
        let q = am
            .row(ClassId(1))
            .unwrap()
            .with_flipped_bits(2_000, &mut rng);
        let f = full.search(&q).unwrap();
        let s = sampled.search(&q).unwrap();
        assert_eq!(f.class, s.class);
        assert!(s.measured_distance <= f.measured_distance);
    }

    #[test]
    fn fig5_energy_saving_points() {
        let am = memory(100, 10_000);
        let base = RHam::new(&am).unwrap();
        // Sampling 250 blocks: ~10% relative crossbar saving (paper: 9%).
        let s250 = base.clone().with_excluded_blocks(250);
        assert!((s250.relative_cam_energy_saving() - 0.10).abs() < 0.02);
        // Overscaling 1,000 blocks: ~20% (paper: "almost 2× higher" than
        // the 9% sampling point).
        let v1000 = base.clone().with_overscaled_blocks(1_000);
        let saving = v1000.relative_cam_energy_saving();
        assert!((0.15..0.24).contains(&saving), "saving = {saving}");
        assert!(saving > 1.5 * s250.relative_cam_energy_saving() * 0.9);
        // All blocks overscaled: ~50% (V² law from the 1.1 V read supply —
        // the paper's Fig. 5 right end).
        let all = base.clone().with_overscaled_blocks(2_500);
        assert!((all.relative_cam_energy_saving() - 0.497).abs() < 0.01);
    }

    #[test]
    fn rham_cost_is_below_dham() {
        let am = memory(100, 10_000);
        let rham = RHam::new(&am).unwrap();
        let dham = crate::dham::DHam::new(&am).unwrap();
        use crate::model::HamDesign as _;
        let r = rham.cost();
        let d = dham.cost();
        assert!(r.energy < d.energy);
        assert!(r.delay < d.delay);
        assert!(r.area < d.area);
        assert!(r.edp().get() < d.edp().get() / 3.0);
    }

    #[test]
    fn error_model_is_bounded_to_one_level() {
        let am = memory(2, 1_000);
        let rham = RHam::new(&am).unwrap();
        let e = rham.block_errors();
        // A matching block never fires; a full-mismatch block never reads
        // higher.
        assert_eq!(e.up[0], 0.0);
        assert_eq!(e.down[0], 0.0);
        assert_eq!(e.up[4], 0.0);
        // Some levels do err at 0.78 V, but rarely.
        assert!(e.worst_error_rate() > 0.0);
        assert!(e.worst_error_rate() < 0.3);
    }

    #[test]
    fn clamping_rules() {
        let am = memory(2, 100); // 25 blocks
        let r = RHam::new(&am)
            .unwrap()
            .with_excluded_blocks(1_000)
            .with_overscaled_blocks(1_000);
        assert_eq!(r.active_blocks(), 1);
        assert_eq!(r.overscaled_blocks(), 1);
        assert_eq!(r.total_blocks(), 25);
    }

    #[test]
    fn empty_memory_rejected() {
        let am = AssociativeMemory::new(Dimension::new(64).unwrap());
        assert!(matches!(RHam::new(&am), Err(HamError::NoClasses)));
    }

    #[test]
    fn mismatched_query_rejected() {
        let am = memory(3, 100);
        let rham = RHam::new(&am).unwrap();
        let q = Hypervector::random(Dimension::new(104).unwrap(), 1);
        assert!(rham.search(&q).is_err());
    }

    #[test]
    fn metadata() {
        let am = memory(21, 10_000);
        let rham = RHam::new(&am).unwrap();
        assert_eq!(rham.name(), "R-HAM");
        assert_eq!(rham.classes(), 21);
        assert_eq!(rham.dim().get(), 10_000);
        assert_eq!(rham.total_blocks(), 2_500);
    }
}

#[cfg(test)]
mod endurance_tests {
    use super::*;

    #[test]
    fn training_writes_once_and_leaves_ample_endurance() {
        let dim = Dimension::new(2_000).unwrap();
        let mut am = AssociativeMemory::new(dim);
        for s in 0..21u64 {
            am.insert(format!("c{s}"), Hypervector::random(dim, s))
                .unwrap();
        }
        let rham = RHam::new(&am).unwrap();
        let report = rham.training_write_report();
        // Differential programming of random rows writes ≈ half the cells.
        let total_cells = 21 * 2_000;
        assert!(report.cells_written > total_cells / 3);
        assert!(report.cells_written < 2 * total_cells / 3);
        assert!(report.write_energy.get() > 0.0);
        // Once-per-training: even the conservative device survives ~10⁶
        // sessions.
        assert!(report.remaining_trainings_conservative >= 999_000);
        assert!(report.remaining_trainings_typical > report.remaining_trainings_conservative);
    }

    #[test]
    fn write_energy_dwarfs_search_energy_but_amortizes() {
        // One programming session costs more than one search, but searches
        // dominate a deployment's lifetime — the architectural argument
        // for read-heavy resistive CAMs.
        let dim = Dimension::new(10_000).unwrap();
        let mut am = AssociativeMemory::new(dim);
        for s in 0..100u64 {
            am.insert(format!("c{s}"), Hypervector::random(dim, s))
                .unwrap();
        }
        let rham = RHam::new(&am).unwrap();
        use crate::model::HamDesign as _;
        let report = rham.training_write_report();
        let search = rham.cost().energy;
        assert!(report.write_energy.get() > search.get());
        // Amortized over even a thousand searches the write cost vanishes.
        assert!(report.write_energy.get() / 1_000.0 < search.get());
    }
}
