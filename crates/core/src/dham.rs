//! D-HAM: the digital CMOS hyperdimensional associative memory.
//!
//! Structure (paper Fig. 2): a `C × D` CAM array of storage cells + XOR
//! gates detects per-bit mismatches; `C` binary counters (⌈log₂D⌉ bits)
//! accumulate each row's Hamming distance; a binary tree of `C − 1`
//! comparators returns the row with the minimum distance.
//!
//! Approximation knob: *structured sampling* — computing the distance on
//! `d < D` leading dimensions. Excluding up to 1,000 of 10,000 bits keeps
//! the maximum classification accuracy, up to 3,000 keeps the moderate
//! level (paper Fig. 1), and energy scales linearly with `d`
//! (Table I).

use hdc::prelude::*;

use crate::model::{CostMetrics, HamDesign, HamError, HamSearchResult, MarginSearchResult};
use crate::tech::TechnologyModel;
use crate::units::{Picojoules, SquareMillimeters};

/// The digital design.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use ham_core::dham::DHam;
/// use ham_core::model::HamDesign;
///
/// let d = Dimension::new(10_000)?;
/// let mut am = AssociativeMemory::new(d);
/// for s in 0..21u64 {
///     am.insert(format!("lang-{s}"), Hypervector::random(d, s))?;
/// }
///
/// let dham = DHam::new(&am)?;
/// let hit = dham.search(am.row(ClassId(7)).unwrap())?;
/// assert_eq!(hit.class, ClassId(7));
/// assert!(dham.cost().energy.get() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DHam {
    rows: Vec<Hypervector>,
    dim: Dimension,
    sampled: usize,
    mask: SampleMask,
    tech: TechnologyModel,
}

impl DHam {
    /// Builds the design from a trained associative memory, comparing all
    /// `D` dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    pub fn new(memory: &AssociativeMemory) -> Result<Self, HamError> {
        DHam::with_sampling(memory, memory.dim().get())
    }

    /// Builds the design with structured sampling: only the first `d`
    /// dimensions enter the distance computation.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory and
    /// [`HamError::Hdc`] when `d` is zero or exceeds `D`.
    pub fn with_sampling(memory: &AssociativeMemory, d: usize) -> Result<Self, HamError> {
        if memory.is_empty() {
            return Err(HamError::NoClasses);
        }
        let mask = SampleMask::keep_first(memory.dim(), d)?;
        Ok(DHam {
            rows: memory.iter().map(|(_, _, hv)| hv.clone()).collect(),
            dim: memory.dim(),
            sampled: d,
            mask,
            tech: TechnologyModel::hpca17(),
        })
    }

    /// Replaces the technology model (e.g. for sensitivity studies).
    pub fn with_tech(mut self, tech: TechnologyModel) -> Self {
        self.tech = tech;
        self
    }

    /// The stored rows the CAM array holds.
    pub fn rows(&self) -> &[Hypervector] {
        &self.rows
    }

    /// Reprograms the rows `patch` changes (callers keep at least one
    /// row and the design's space).
    pub(crate) fn apply_patch(&mut self, patch: &RowPatch<'_>) {
        patch.apply_to_rows(&mut self.rows);
    }

    /// The number of sampled dimensions `d`.
    pub fn sampled_dimensions(&self) -> usize {
        self.sampled
    }

    /// Dimensions excluded from the distance computation, `D − d` — the
    /// equivalent "error in distance" budget of Fig. 1.
    pub fn excluded_dimensions(&self) -> usize {
        self.dim.get() - self.sampled
    }

    /// Average switching activity of the XOR mismatch array: random i.i.d.
    /// query/stored bits toggle a line with probability `¼` per search
    /// regardless of how the array is blocked (paper Table II, D-HAM
    /// column).
    pub fn switching_activity() -> f64 {
        0.25
    }

    /// Energy partition (CAM array vs counters + comparators) — the rows of
    /// paper Table I.
    pub fn energy_breakdown(&self) -> (Picojoules, Picojoules) {
        (
            self.tech.dham_cam_energy(self.rows.len(), self.sampled),
            self.tech.dham_logic_energy(self.rows.len(), self.sampled),
        )
    }

    /// Area partition (CAM array vs counters + comparators) — the area
    /// column of paper Table I.
    pub fn area_breakdown(&self) -> (SquareMillimeters, SquareMillimeters) {
        (
            self.tech.dham_cam_area(self.rows.len(), self.sampled),
            self.tech.dham_logic_area(self.rows.len(), self.sampled),
        )
    }
}

impl HamDesign for DHam {
    fn name(&self) -> &'static str {
        "D-HAM"
    }

    fn classes(&self) -> usize {
        self.rows.len()
    }

    fn dim(&self) -> Dimension {
        self.dim
    }

    fn search(&self, query: &Hypervector) -> Result<HamSearchResult, HamError> {
        if query.dim() != self.dim {
            return Err(HamError::DimensionMismatch {
                expected: self.dim.get(),
                actual: query.dim().get(),
            });
        }
        let mut best = 0usize;
        let mut best_distance = self.mask.sampled_distance(&self.rows[0], query);
        for (i, row) in self.rows.iter().enumerate().skip(1) {
            let d = self.mask.sampled_distance(row, query);
            if d < best_distance {
                best = i;
                best_distance = d;
            }
        }
        Ok(HamSearchResult {
            class: ClassId(best),
            measured_distance: best_distance,
        })
    }

    fn search_with_margin(&self, query: &Hypervector) -> Result<MarginSearchResult, HamError> {
        if query.dim() != self.dim {
            return Err(HamError::DimensionMismatch {
                expected: self.dim.get(),
                actual: query.dim().get(),
            });
        }
        let mut best = 0usize;
        let mut best_distance = self.mask.sampled_distance(&self.rows[0], query);
        let mut runner_up: Option<Distance> = None;
        for (i, row) in self.rows.iter().enumerate().skip(1) {
            let d = self.mask.sampled_distance(row, query);
            if d < best_distance {
                runner_up = Some(best_distance);
                best = i;
                best_distance = d;
            } else if runner_up.is_none_or(|r| d < r) {
                runner_up = Some(d);
            }
        }
        Ok(MarginSearchResult {
            class: ClassId(best),
            measured_distance: best_distance,
            runner_up,
        })
    }

    fn cost(&self) -> CostMetrics {
        let (cam_e, logic_e) = self.energy_breakdown();
        let (cam_a, logic_a) = self.area_breakdown();
        CostMetrics {
            energy: cam_e + logic_e,
            delay: self.tech.dham_delay(self.rows.len(), self.sampled),
            area: cam_a + logic_a,
        }
    }

    fn energy_components(&self) -> Vec<(&'static str, crate::units::Picojoules)> {
        let (cam, logic) = self.energy_breakdown();
        vec![("CAM array", cam), ("counters and comparators", logic)]
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
    fn exact_search_matches_software_reference() {
        let am = memory(21, 10_000);
        let dham = DHam::new(&am).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for s in [0usize, 7, 20] {
            let noisy = am
                .row(ClassId(s))
                .unwrap()
                .with_flipped_bits(2_500, &mut rng);
            let exact = am.search(&noisy).unwrap();
            let hw = dham.search(&noisy).unwrap();
            assert_eq!(hw.class, exact.class);
            assert_eq!(hw.measured_distance, exact.distance);
        }
    }

    #[test]
    fn sampled_search_reads_fewer_bits() {
        let am = memory(21, 10_000);
        let dham = DHam::with_sampling(&am, 9_000).unwrap();
        assert_eq!(dham.sampled_dimensions(), 9_000);
        assert_eq!(dham.excluded_dimensions(), 1_000);
        let mut rng = StdRng::seed_from_u64(2);
        let noisy = am
            .row(ClassId(3))
            .unwrap()
            .with_flipped_bits(2_000, &mut rng);
        let hit = dham.search(&noisy).unwrap();
        assert_eq!(hit.class, ClassId(3), "sampling keeps retrieval");
        assert!(hit.measured_distance.as_usize() <= 2_000);
    }

    #[test]
    fn margin_search_matches_reference_runner_up() {
        let am = memory(21, 2_000);
        let dham = DHam::new(&am).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for s in 0..5usize {
            let q = am.row(ClassId(s)).unwrap().with_flipped_bits(300, &mut rng);
            let exact = am.search(&q).unwrap();
            let margin = dham.search_with_margin(&q).unwrap();
            assert_eq!(margin.class, exact.class);
            assert_eq!(margin.measured_distance, exact.distance);
            assert_eq!(margin.runner_up, exact.runner_up);
            assert_eq!(margin.margin(), exact.margin());
        }
    }

    #[test]
    fn sampled_margin_search_agrees_with_search() {
        let am = memory(21, 2_000);
        let dham = DHam::with_sampling(&am, 1_500).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let q = am.row(ClassId(6)).unwrap().with_flipped_bits(250, &mut rng);
        let plain = dham.search(&q).unwrap();
        let margin = dham.search_with_margin(&q).unwrap();
        assert_eq!(margin.class, plain.class);
        assert_eq!(margin.measured_distance, plain.measured_distance);
        assert!(margin.runner_up.unwrap() >= margin.measured_distance);
    }

    #[test]
    fn sampling_reduces_energy_linearly() {
        let am = memory(100, 10_000);
        let full = DHam::new(&am).unwrap().cost();
        let d9 = DHam::with_sampling(&am, 9_000).unwrap().cost();
        let d7 = DHam::with_sampling(&am, 7_000).unwrap().cost();
        // Paper: "7% (or 22%) energy saving is achieved with d = 9,000
        // (or d = 7,000)".
        let s9 = 1.0 - d9.energy / full.energy;
        let s7 = 1.0 - d7.energy / full.energy;
        assert!((s9 - 0.07).abs() < 0.03, "d=9,000 saving {s9}");
        assert!((s7 - 0.22).abs() < 0.08, "d=7,000 saving {s7}");
    }

    #[test]
    fn table1_breakdown_via_design() {
        let am = memory(100, 10_000);
        let dham = DHam::new(&am).unwrap();
        let (cam, logic) = dham.energy_breakdown();
        assert!((cam.get() - 4_976.9).abs() < 1.0);
        assert!((logic.get() - 1_178.2).abs() / 1_178.2 < 0.05);
        let (cam_a, logic_a) = dham.area_breakdown();
        assert!((cam_a.get() - 15.2).abs() < 0.1);
        assert!((logic_a.get() - 10.9).abs() / 10.9 < 0.05);
    }

    #[test]
    fn cost_grows_with_classes_and_dimension() {
        let small = DHam::new(&memory(6, 512)).unwrap().cost();
        let big_c = DHam::new(&memory(100, 512)).unwrap().cost();
        let big_d = DHam::new(&memory(6, 10_000)).unwrap().cost();
        assert!(big_c.energy > small.energy);
        assert!(big_c.delay > small.delay);
        assert!(big_d.energy > small.energy);
        assert!(big_d.delay > small.delay);
        assert!(big_d.area > small.area);
    }

    #[test]
    fn empty_memory_rejected() {
        let am = AssociativeMemory::new(Dimension::new(64).unwrap());
        assert!(matches!(DHam::new(&am), Err(HamError::NoClasses)));
    }

    #[test]
    fn invalid_sampling_rejected() {
        let am = memory(4, 100);
        assert!(DHam::with_sampling(&am, 0).is_err());
        assert!(DHam::with_sampling(&am, 101).is_err());
    }

    #[test]
    fn mismatched_query_rejected() {
        let am = memory(4, 100);
        let dham = DHam::new(&am).unwrap();
        let q = Hypervector::random(Dimension::new(128).unwrap(), 1);
        assert!(matches!(
            dham.search(&q),
            Err(HamError::DimensionMismatch {
                expected: 100,
                actual: 128
            })
        ));
    }

    #[test]
    fn metadata_accessors() {
        let am = memory(21, 2_000);
        let dham = DHam::new(&am).unwrap();
        assert_eq!(dham.name(), "D-HAM");
        assert_eq!(dham.classes(), 21);
        assert_eq!(dham.dim().get(), 2_000);
        assert_eq!(DHam::switching_activity(), 0.25);
    }
}
