//! A-HAM: the analog current-domain hyperdimensional associative memory.
//!
//! Structure (paper Fig. 6): a memristive TCAM crossbar whose match lines
//! are held at a fixed voltage by stabilizers; each row's mismatch count
//! appears as a current, and a binary tree of Loser-Takes-All (LTA) blocks
//! selects the row with the minimum current — the nearest Hamming distance
//! — without ever digitizing the distance.
//!
//! The catch is *resolution*: current droop on long rows and the finite
//! LTA precision mean rows whose distances differ by less than a minimum
//! detectable distance are indistinguishable (paper Fig. 7). The
//! multistage technique splits each row into short stabilized segments and
//! sums their mirrored currents, restoring resolution at the cost of
//! mirror error accumulation. Process/voltage variation widens the LTA
//! offset further (Fig. 13).
//!
//! This module wires the [`circuit_sim::analog`] resolution model to the
//! search semantics: any two rows within the minimum detectable distance
//! are *unresolved*, and the deterministic bias of the LTA tree keeps the
//! earlier row — which is what costs A-HAM its 0.5% accuracy at
//! `D = 10,000` (paper Table III).
//!
//! The TCAM crossbar is the searched memory's own packed matrix, shared
//! by `Arc`: the LTA resolution and variation are read-out settings, not
//! a second array.

use std::sync::Arc;

use circuit_sim::analog::ResolutionModel;
use circuit_sim::montecarlo::VariationModel;
use hdc::prelude::*;

use crate::model::{
    CostMetrics, HamDesign, HamError, HamSearchResult, MarginSearchResult, SearchScratch,
};
use crate::tech::TechnologyModel;
use crate::units::Picojoules;

/// The analog design.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use ham_core::aham::AHam;
/// use ham_core::model::HamDesign;
///
/// let d = Dimension::new(10_000)?;
/// let mut am = AssociativeMemory::new(d);
/// for s in 0..21u64 {
///     am.insert(format!("lang-{s}"), Hypervector::random(d, s))?;
/// }
///
/// let aham = AHam::new(&am)?;
/// // The paper's D = 10,000 configuration: 14 stages, 14-bit LTAs.
/// assert_eq!(aham.stages(), 14);
/// assert_eq!(aham.lta_bits(), 14);
/// assert!((12..=16).contains(&aham.min_detectable_distance()));
///
/// let hit = aham.search(&am.row(ClassId(5)).unwrap())?;
/// assert_eq!(hit.class, ClassId(5));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AHam {
    rows: Arc<PackedRows>,
    dim: Dimension,
    resolution: ResolutionModel,
    variation: VariationModel,
    min_detectable: usize,
    tech: TechnologyModel,
}

impl AHam {
    /// Builds the design with the paper's recommended configuration for
    /// the memory's dimensionality (Fig. 7 top axis) and no variation.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    pub fn new(memory: &AssociativeMemory) -> Result<Self, HamError> {
        let resolution = ResolutionModel::recommended(memory.dim().get());
        AHam::with_resolution(memory, resolution)
    }

    /// Builds the design with an explicit stage/LTA configuration. The
    /// design searches `memory`'s rows through a shared handle, without
    /// copying them.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    pub fn with_resolution(
        memory: &AssociativeMemory,
        resolution: ResolutionModel,
    ) -> Result<Self, HamError> {
        if memory.is_empty() {
            return Err(HamError::NoClasses);
        }
        let mut aham = AHam {
            rows: memory.shared_rows(),
            dim: memory.dim(),
            resolution,
            variation: VariationModel::NOMINAL,
            min_detectable: 0,
            tech: TechnologyModel::hpca17(),
        };
        aham.recompute_resolution();
        Ok(aham)
    }

    /// Replaces the LTA resolution (the accuracy-energy knob: the paper
    /// optimizes 14 bits for maximum and 11 bits for moderate accuracy at
    /// `D = 10,000`).
    pub fn with_lta_bits(mut self, bits: u32) -> Self {
        self.resolution = ResolutionModel::new(self.dim.get(), self.resolution.stages(), bits);
        self.recompute_resolution();
        self
    }

    /// Applies process/voltage variation (paper Fig. 13).
    pub fn with_variation(mut self, variation: VariationModel) -> Self {
        self.variation = variation;
        self.recompute_resolution();
        self
    }

    /// Replaces the technology model.
    pub fn with_tech(mut self, tech: TechnologyModel) -> Self {
        self.tech = tech;
        self
    }

    /// The stored rows the TCAM crossbar holds.
    pub fn rows(&self) -> &Arc<PackedRows> {
        &self.rows
    }

    /// Points the crossbar at `rows` (callers keep the design's space,
    /// and at least one row whenever it searches).
    pub(crate) fn set_rows(&mut self, rows: Arc<PackedRows>) {
        self.rows = rows;
    }

    fn recompute_resolution(&mut self) {
        self.min_detectable = self
            .resolution
            .min_detectable_with_variation(self.variation);
    }

    /// Number of search stages `N`.
    pub fn stages(&self) -> usize {
        self.resolution.stages()
    }

    /// LTA resolution in bits.
    pub fn lta_bits(&self) -> u32 {
        self.resolution.lta_bits()
    }

    /// The configured variation model.
    pub fn variation(&self) -> VariationModel {
        self.variation
    }

    /// The minimum Hamming-distance difference the LTA tree resolves; rows
    /// closer than this are indistinguishable.
    pub fn min_detectable_distance(&self) -> usize {
        self.min_detectable
    }

    /// Fills `out` with the exact distance from `query` to every row,
    /// through the packed scan kernel (and whatever SIMD backend it
    /// dispatched) — the current readout the LTA tree compares.
    fn distances_into(&self, query: &Hypervector, out: &mut Vec<usize>) -> Result<(), HamError> {
        if query.dim() != self.dim {
            return Err(HamError::DimensionMismatch {
                expected: self.dim.get(),
                actual: query.dim().get(),
            });
        }
        self.rows
            .distances_into(query.as_bitvec().as_words(), None, out);
        Ok(())
    }

    /// The LTA tournament over exact distances: comparisons within the
    /// minimum detectable distance are unresolved and keep the
    /// earlier-indexed row.
    fn tournament(&self, distances: &[usize]) -> usize {
        let mut round: Vec<usize> = (0..distances.len()).collect();
        while round.len() > 1 {
            let mut next = Vec::with_capacity(round.len().div_ceil(2));
            for pair in round.chunks(2) {
                if pair.len() == 1 {
                    next.push(pair[0]);
                    continue;
                }
                let (a, b) = (pair[0], pair[1]);
                // An unresolved pair (gap below the minimum detectable
                // distance) keeps the first input — the LTA's bias.
                let resolved = distances[a].abs_diff(distances[b]) >= self.min_detectable;
                let winner = if resolved && distances[b] < distances[a] {
                    b
                } else {
                    a
                };
                next.push(winner);
            }
            round = next;
        }
        round[0]
    }
}

impl HamDesign for AHam {
    fn name(&self) -> &'static str {
        "A-HAM"
    }

    fn classes(&self) -> usize {
        self.rows.len()
    }

    fn dim(&self) -> Dimension {
        self.dim
    }

    fn search(&self, query: &Hypervector) -> Result<HamSearchResult, HamError> {
        self.search_scratch(query, &mut SearchScratch::new())
    }

    fn search_scratch(
        &self,
        query: &Hypervector,
        scratch: &mut SearchScratch,
    ) -> Result<HamSearchResult, HamError> {
        self.distances_into(query, &mut scratch.distances)?;
        let winner = self.tournament(&scratch.distances);
        // The analog tree never reports a digital distance; the nearest
        // quantized estimate is the true distance rounded to the
        // resolution grid.
        let grid = self.min_detectable.max(1);
        let measured = scratch.distances[winner] / grid * grid;
        Ok(HamSearchResult {
            class: ClassId(winner),
            measured_distance: Distance::new(measured),
        })
    }

    fn search_with_margin(&self, query: &Hypervector) -> Result<MarginSearchResult, HamError> {
        let mut distances = Vec::with_capacity(self.rows.len());
        self.distances_into(query, &mut distances)?;
        let winner = self.tournament(&distances);
        let grid = self.min_detectable.max(1);
        let runner_up = distances
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != winner)
            .map(|(_, &d)| Distance::new(d / grid * grid))
            .min();
        Ok(MarginSearchResult {
            class: ClassId(winner),
            measured_distance: Distance::new(distances[winner] / grid * grid),
            runner_up,
        })
    }

    fn cost(&self) -> CostMetrics {
        let c = self.rows.len();
        let bits = self.resolution.lta_bits();
        CostMetrics {
            energy: self
                .tech
                .aham_energy(c, self.dim.get(), self.resolution.stages(), bits),
            delay: self.tech.aham_delay(c, bits),
            area: self.tech.aham_cam_area(c, self.dim.get()) + self.tech.aham_lta_area(c, bits),
        }
    }

    fn energy_components(&self) -> Vec<(&'static str, Picojoules)> {
        let (cells, sense, lta) = energy_partition(self);
        vec![
            ("crossbar discharge", cells),
            ("sense blocks", sense),
            ("LTA tree", lta),
        ]
    }
}

/// The energy partition of an A-HAM design point (cells, sense blocks,
/// LTA tree) — the paper notes "LTA blocks are the main source of A-HAM
/// energy consumption in large sizes".
pub fn energy_partition(aham: &AHam) -> (Picojoules, Picojoules, Picojoules) {
    let t = &aham.tech;
    let c = aham.classes() as f64;
    let cells = Picojoules::from_femtos(t.e_aham_cell_fj * c * aham.dim().get() as f64);
    let sense = Picojoules::from_femtos(t.e_aham_sense_fj * c * aham.stages() as f64);
    let lta = Picojoules::from_femtos(
        t.e_lta_bit2_fj * (aham.classes() - 1) as f64 * (aham.lta_bits() as f64).powi(2),
    );
    (cells, sense, lta)
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
    fn clear_margins_match_exact_search() {
        let am = memory(21, 10_000);
        let aham = AHam::new(&am).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for s in [0usize, 9, 20] {
            let q = am
                .row(ClassId(s))
                .unwrap()
                .with_flipped_bits(3_000, &mut rng);
            assert_eq!(aham.search(&q).unwrap().class, ClassId(s));
        }
    }

    #[test]
    fn small_dimension_resolves_single_bits() {
        let am = memory(8, 256);
        let aham = AHam::new(&am).unwrap();
        assert_eq!(aham.min_detectable_distance(), 1);
        // With 1-bit resolution the tournament equals exact argmin.
        let mut rng = StdRng::seed_from_u64(4);
        for s in 0..8usize {
            let q = am.row(ClassId(s)).unwrap().with_flipped_bits(60, &mut rng);
            let exact = am.search(&q).unwrap();
            assert_eq!(aham.search(&q).unwrap().class, exact.class);
        }
    }

    #[test]
    fn ties_within_resolution_keep_earlier_row() {
        let dim = Dimension::new(10_000).unwrap();
        let base = Hypervector::random(dim, 1);
        let mut rng = StdRng::seed_from_u64(7);
        // Row 1 is 5 bits closer to the query than row 0 — below the
        // minimum detectable distance of the D = 10,000 configuration.
        let query = base.with_flipped_bits(100, &mut rng);
        let row0 = query.with_flipped_bits(105, &mut rng);
        let mut am = AssociativeMemory::new(dim);
        am.insert("first", row0).unwrap();
        am.insert("closer", query.with_flipped_bits(100, &mut rng))
            .unwrap();
        let aham = AHam::new(&am).unwrap();
        assert!(aham.min_detectable_distance() > 5);
        let hit = aham.search(&query).unwrap();
        assert_eq!(hit.class, ClassId(0), "unresolved comparison keeps row 0");
        // The exact search disagrees — that disagreement is A-HAM's
        // accuracy loss.
        assert_eq!(am.search(&query).unwrap().class, ClassId(1));
    }

    #[test]
    fn margin_search_agrees_with_search_and_quantizes() {
        let am = memory(21, 10_000);
        let aham = AHam::new(&am).unwrap();
        let grid = aham.min_detectable_distance();
        let mut rng = StdRng::seed_from_u64(12);
        for s in [0usize, 5, 17] {
            let q = am
                .row(ClassId(s))
                .unwrap()
                .with_flipped_bits(1_500, &mut rng);
            let plain = aham.search(&q).unwrap();
            let margin = aham.search_with_margin(&q).unwrap();
            assert_eq!(margin.class, plain.class);
            assert_eq!(margin.measured_distance, plain.measured_distance);
            let ru = margin.runner_up.unwrap();
            assert_eq!(ru.as_usize() % grid, 0, "runner-up lives on the grid");
            assert!(margin.margin() > 0, "distinct random classes have margin");
        }
    }

    #[test]
    fn recommended_config_tracks_dimension() {
        let aham = AHam::new(&memory(4, 512)).unwrap();
        assert_eq!(aham.stages(), 1);
        assert_eq!(aham.lta_bits(), 10);
        let aham10k = AHam::new(&memory(4, 10_000)).unwrap();
        assert_eq!(aham10k.stages(), 14);
        assert_eq!(aham10k.lta_bits(), 14);
        assert!((12..=16).contains(&aham10k.min_detectable_distance()));
    }

    #[test]
    fn lower_lta_resolution_saves_energy_and_delay() {
        let am = memory(100, 10_000);
        let max_acc = AHam::new(&am).unwrap();
        let moderate = AHam::new(&am).unwrap().with_lta_bits(11);
        let c_max = max_acc.cost();
        let c_mod = moderate.cost();
        assert!(c_mod.energy < c_max.energy);
        assert!(c_mod.delay < c_max.delay);
        // Paper: 2.4× EDP improvement switching max → moderate accuracy.
        let ratio = c_max.edp().get() / c_mod.edp().get();
        assert!((1.5..3.5).contains(&ratio), "EDP ratio {ratio}");
        // But resolution worsens.
        assert!(moderate.min_detectable_distance() > max_acc.min_detectable_distance());
    }

    #[test]
    fn variation_degrades_resolution() {
        let am = memory(21, 10_000);
        let nominal = AHam::new(&am).unwrap();
        let varied = AHam::new(&am)
            .unwrap()
            .with_variation(VariationModel::new(0.35, 0.10));
        assert!(varied.min_detectable_distance() > 2 * nominal.min_detectable_distance());
        assert_eq!(varied.variation().process_3sigma, 0.35);
    }

    #[test]
    fn lta_dominates_energy_at_scale() {
        let am = memory(100, 10_000);
        let aham = AHam::new(&am).unwrap();
        let (cells, sense, lta) = energy_partition(&aham);
        assert!(lta.get() > cells.get() + sense.get());
        let total = aham.cost().energy;
        assert!((cells + sense + lta - total).get().abs() < 1e-9);
    }

    #[test]
    fn aham_is_orders_cheaper_than_dham() {
        let am = memory(100, 10_000);
        let aham = AHam::new(&am).unwrap().cost();
        let dham = crate::dham::DHam::new(&am).unwrap().cost();
        assert!(dham.edp().get() / aham.edp().get() > 100.0);
        assert!(aham.area < dham.area);
    }

    #[test]
    fn measured_distance_is_quantized() {
        let am = memory(21, 10_000);
        let aham = AHam::new(&am).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let q = am
            .row(ClassId(2))
            .unwrap()
            .with_flipped_bits(1_234, &mut rng);
        let hit = aham.search(&q).unwrap();
        let grid = aham.min_detectable_distance();
        assert_eq!(hit.measured_distance.as_usize() % grid, 0);
        assert!(hit.measured_distance.as_usize() <= 1_234);
    }

    #[test]
    fn scratch_search_reuses_the_buffer_and_matches_search() {
        let am = memory(21, 10_000);
        let aham = AHam::new(&am).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut scratch = SearchScratch::new();
        for s in [0usize, 7, 20] {
            let q = am
                .row(ClassId(s))
                .unwrap()
                .with_flipped_bits(2_000, &mut rng);
            assert_eq!(
                aham.search_scratch(&q, &mut scratch).unwrap(),
                aham.search(&q).unwrap()
            );
            assert_eq!(scratch.distances.len(), 21, "one distance per class");
        }
        // A mismatched query errors through the scratch path too.
        let alien = Hypervector::random(Dimension::new(128).unwrap(), 5);
        assert!(aham.search_scratch(&alien, &mut scratch).is_err());
    }

    #[test]
    fn empty_memory_rejected() {
        let am = AssociativeMemory::new(Dimension::new(64).unwrap());
        assert!(matches!(AHam::new(&am), Err(HamError::NoClasses)));
    }

    #[test]
    fn mismatched_query_rejected() {
        let am = memory(3, 128);
        let aham = AHam::new(&am).unwrap();
        let q = Hypervector::random(Dimension::new(256).unwrap(), 1);
        assert!(aham.search(&q).is_err());
    }

    #[test]
    fn metadata() {
        let am = memory(21, 10_000);
        let aham = AHam::new(&am).unwrap();
        assert_eq!(aham.name(), "A-HAM");
        assert_eq!(aham.classes(), 21);
        assert_eq!(aham.dim().get(), 10_000);
    }
}
