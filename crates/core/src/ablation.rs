//! Ablation studies of the paper's design choices.
//!
//! Three choices the paper makes by construction are re-derived here from
//! the models, so the experiments can show *why* the published design points
//! look the way they do:
//!
//! * **R-HAM block size = 4 bits** — "the maximum size of a block can be
//!   4 bits for accurate determination of the different distances". The
//!   ablation sweeps block sizes and reports which remain fully
//!   resolvable at nominal voltage and which keep the ≤ 1-bit error
//!   guarantee under 0.78 V overscaling.
//! * **A-HAM multistage split** — more, shorter stages improve the
//!   minimum detectable distance (stabilized segments + finer LTA) but
//!   every stage adds sense-block energy; the ablation exposes the knee
//!   the paper's 14-stage configuration sits on.
//! * **D-HAM comparator tree** — a binary tree reaches the minimum in
//!   `⌈log₂C⌉` comparator delays instead of the `C − 1` of a linear
//!   chain, for the same comparator count.

use circuit_sim::analog::ResolutionModel;
use circuit_sim::device::Memristor;
use circuit_sim::matchline::MatchLine;
use circuit_sim::units::Volts;

use crate::switching;
use crate::tech::TechnologyModel;
use crate::units::Picojoules;

/// One row of the R-HAM block-size ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSizeAblation {
    /// Cells per block.
    pub block_bits: usize,
    /// Distance levels resolvable at 3σ and nominal voltage.
    pub resolvable_nominal: usize,
    /// Whether every adjacent level still separates by ≥ 3σ at the
    /// overscaled 0.78 V supply *within one level* (the ≤ 1-bit error
    /// guarantee: two-level steps must clear 4σ).
    pub overscale_safe: bool,
    /// Thermometer-code switching activity (Table II column).
    pub switching_activity: f64,
    /// Digital counter/comparator overhead interleaved per stored bit —
    /// large blocks amortize the logic better.
    pub logic_share_per_bit: f64,
}

/// Sweeps R-HAM block sizes (the paper's design point is 4).
pub fn block_size_ablation(max_bits: usize) -> Vec<BlockSizeAblation> {
    let nominal = Volts::new(1.0);
    let overscaled = Volts::from_millis(780.0);
    (1..=max_bits)
        .map(|bits| {
            let block = MatchLine::new(bits, Memristor::high_r_on());
            let resolvable_nominal = block.max_resolvable_distance(nominal, 3.0);
            let vos = block.with_supply(overscaled);
            // ≤ 1-bit error: adjacent gaps may shrink below 3σ, but any
            // two-level step must stay above 4σ.
            let sigma = vos.timing_jitter_sigma(overscaled);
            let overscale_safe = (1..bits).all(|k| {
                let two_step = if k + 2 <= bits {
                    (vos.discharge_time(k).expect("k >= 1")
                        - vos.discharge_time(k + 2).expect("k+2 <= bits"))
                    .get()
                } else {
                    f64::INFINITY
                };
                two_step > 4.0 * sigma.get()
            });
            BlockSizeAblation {
                block_bits: bits,
                resolvable_nominal,
                overscale_safe,
                switching_activity: switching::rham_activity(bits),
                logic_share_per_bit: 1.0 / bits as f64,
            }
        })
        .collect()
}

/// The largest block size that resolves all its levels at nominal voltage
/// *and* keeps the overscaling guarantee — the model's answer to the
/// paper's "maximum size of a block can be 4 bits".
pub fn recommended_block_size(max_bits: usize) -> usize {
    block_size_ablation(max_bits)
        .iter()
        .filter(|row| row.resolvable_nominal == row.block_bits && row.overscale_safe)
        .map(|row| row.block_bits)
        .max()
        .unwrap_or(1)
}

/// One row of the A-HAM multistage ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultistageAblation {
    /// Number of search stages.
    pub stages: usize,
    /// Minimum detectable distance of the configuration.
    pub min_detectable: usize,
    /// A-HAM energy at this stage count (C = 100).
    pub energy: Picojoules,
}

/// Sweeps the A-HAM stage count at a fixed dimension and LTA resolution.
pub fn multistage_ablation(
    dim: usize,
    lta_bits: u32,
    stage_counts: &[usize],
) -> Vec<MultistageAblation> {
    let tech = TechnologyModel::hpca17();
    stage_counts
        .iter()
        .map(|&stages| {
            let model = ResolutionModel::new(dim, stages, lta_bits);
            MultistageAblation {
                stages,
                min_detectable: model.min_detectable_distance(),
                energy: tech.aham_energy(100, dim, stages, lta_bits),
            }
        })
        .collect()
}

/// Comparator-organization ablation: delay (in comparator stages) of a
/// binary tree vs a linear chain over `classes` rows. Both use `C − 1`
/// comparators; only the critical path differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComparatorAblation {
    /// Number of rows compared.
    pub classes: usize,
    /// Critical path of the paper's binary tree, `⌈log₂C⌉`.
    pub tree_stages: usize,
    /// Critical path of a naive linear chain, `C − 1`.
    pub chain_stages: usize,
}

/// Compares the comparator-tree organizations.
pub fn comparator_ablation(class_counts: &[usize]) -> Vec<ComparatorAblation> {
    class_counts
        .iter()
        .map(|&classes| ComparatorAblation {
            classes,
            tree_stages: if classes <= 1 {
                0
            } else {
                (usize::BITS - (classes - 1).leading_zeros()) as usize
            },
            chain_stages: classes.saturating_sub(1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_blocks_are_the_paper_design_point() {
        let rows = block_size_ablation(8);
        assert_eq!(rows.len(), 8);
        let four = &rows[3];
        assert_eq!(four.block_bits, 4);
        assert_eq!(four.resolvable_nominal, 4, "4-bit blocks resolve fully");
        assert!(four.overscale_safe, "4-bit blocks survive 0.78 V");
        // The model's recommendation is exactly the paper's choice.
        assert_eq!(recommended_block_size(8), 4);
        // Large blocks eventually fail one of the two criteria.
        let eight = &rows[7];
        assert!(
            eight.resolvable_nominal < 8 || !eight.overscale_safe,
            "8-bit blocks must break a criterion"
        );
    }

    #[test]
    fn switching_activity_falls_with_block_size() {
        let rows = block_size_ablation(6);
        for pair in rows.windows(2) {
            assert!(pair[1].switching_activity < pair[0].switching_activity);
            assert!(pair[1].logic_share_per_bit < pair[0].logic_share_per_bit);
        }
    }

    #[test]
    fn multistage_tradeoff_has_the_papers_knee() {
        let rows = multistage_ablation(10_000, 14, &[1, 2, 4, 7, 14, 20, 28]);
        // Resolution is NOT monotone: two long, unstabilized segments are
        // worse than one (mirror error on a droop-limited segment), then
        // short stabilized segments win decisively.
        let at1 = rows.iter().find(|r| r.stages == 1).unwrap();
        let at2 = rows.iter().find(|r| r.stages == 2).unwrap();
        assert!(at2.min_detectable > at1.min_detectable, "the 2-stage trap");
        // …while energy only grows.
        for pair in rows.windows(2) {
            assert!(pair[1].energy.get() >= pair[0].energy.get());
        }
        // The paper's 14-stage point already reaches ≈ 14 bits; doubling
        // the stages buys almost nothing.
        let at14 = rows.iter().find(|r| r.stages == 14).unwrap();
        let at28 = rows.iter().find(|r| r.stages == 28).unwrap();
        assert!((12..=16).contains(&at14.min_detectable));
        assert!(at14.min_detectable < at1.min_detectable);
        assert!(at14.min_detectable - at28.min_detectable <= 4);
    }

    #[test]
    fn tree_beats_chain_logarithmically() {
        let rows = comparator_ablation(&[1, 2, 21, 100]);
        assert_eq!(rows[0].tree_stages, 0);
        assert_eq!(rows[0].chain_stages, 0);
        assert_eq!(rows[2].tree_stages, 5); // ⌈log₂21⌉
        assert_eq!(rows[2].chain_stages, 20);
        assert_eq!(rows[3].tree_stages, 7); // ⌈log₂100⌉
        assert_eq!(rows[3].chain_stages, 99);
        for r in &rows {
            assert!(r.tree_stages <= r.chain_stages);
        }
    }
}
