//! Cycle-level functional simulation of D-HAM.
//!
//! The analytic model in [`crate::tech`] prices a whole search; this
//! module *executes* one, the way the hardware would, so the
//! architectural parameters (counter lane parallelism, comparator-tree
//! depth) are visible cycle by cycle:
//!
//! 1. **Broadcast** — the query is driven to all `C` rows (1 cycle after
//!    buffering).
//! 2. **Compare** — the XOR array produces the `C × d` mismatch bitmap
//!    (1 cycle).
//! 3. **Count** — each row's counter consumes `lanes` mismatch bits per
//!    cycle, `⌈d / lanes⌉` cycles ("each counter … iterates through D
//!    output bits of the XOR gates").
//! 4. **Reduce** — the binary comparator tree settles in `⌈log₂C⌉`
//!    cycles.

use hdc::prelude::*;

use crate::model::{HamError, HamSearchResult};
use crate::tech::distance_bits;

/// Per-phase cycle counts of one simulated search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Query buffering + broadcast cycles.
    pub broadcast: u64,
    /// XOR mismatch-detection cycles.
    pub compare: u64,
    /// Popcount accumulation cycles, `⌈d / lanes⌉`.
    pub count: u64,
    /// Comparator-tree cycles, `⌈log₂C⌉`.
    pub reduce: u64,
}

impl CycleBreakdown {
    /// Total cycles of the search.
    pub fn total(&self) -> u64 {
        self.broadcast + self.compare + self.count + self.reduce
    }
}

/// The outcome of a cycle simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// The search result (identical to the analytic model's).
    pub result: HamSearchResult,
    /// Where the cycles went.
    pub cycles: CycleBreakdown,
    /// Width of the counters/comparators used, `⌈log₂(d+1)⌉` bits.
    pub datapath_bits: u32,
}

/// A cycle-accurate D-HAM simulator over a set of stored rows.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use ham_core::dham_cycle::DhamCycleSim;
///
/// let memory = ham_core::explore::random_memory(21, 10_000, 1);
/// let sim = DhamCycleSim::new(&memory, 64)?;
/// let report = sim.run(&memory.row(ClassId(3)).unwrap())?;
/// assert_eq!(report.result.class, ClassId(3));
/// // 64 counter lanes: ⌈10,000 / 64⌉ = 157 count cycles dominate.
/// assert_eq!(report.cycles.count, 157);
/// assert_eq!(report.cycles.reduce, 5); // ⌈log₂ 21⌉
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DhamCycleSim {
    rows: Vec<Hypervector>,
    dim: Dimension,
    lanes: usize,
}

impl DhamCycleSim {
    /// Creates a simulator with `lanes` counter bits consumed per cycle
    /// per row.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(memory: &AssociativeMemory, lanes: usize) -> Result<Self, HamError> {
        assert!(lanes > 0, "counters need at least one lane");
        if memory.is_empty() {
            return Err(HamError::NoClasses);
        }
        Ok(DhamCycleSim {
            rows: memory.iter().map(|(_, _, hv)| hv).collect(),
            dim: memory.dim(),
            lanes,
        })
    }

    /// Number of counter lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Executes one search cycle by cycle.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::DimensionMismatch`] for a query from another
    /// space.
    pub fn run(&self, query: &Hypervector) -> Result<CycleReport, HamError> {
        if query.dim() != self.dim {
            return Err(HamError::DimensionMismatch {
                expected: self.dim.get(),
                actual: query.dim().get(),
            });
        }
        let d = self.dim.get();

        // Phase 2: the XOR array — one mismatch bitmap per row.
        let bitmaps: Vec<hdc::BitVec> = self
            .rows
            .iter()
            .map(|row| {
                let mut bits = row.as_bitvec().clone();
                bits.xor_assign(query.as_bitvec());
                bits
            })
            .collect();

        // Phase 3: lane-parallel counters, all rows in lockstep.
        let mut counters = vec![0usize; self.rows.len()];
        let mut count_cycles = 0u64;
        let mut offset = 0usize;
        while offset < d {
            let end = (offset + self.lanes).min(d);
            for (counter, bitmap) in counters.iter_mut().zip(&bitmaps) {
                for i in offset..end {
                    *counter += bitmap.get(i) as usize;
                }
            }
            offset = end;
            count_cycles += 1;
        }

        // Phase 4: binary comparator tree, one level per cycle.
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

        Ok(CycleReport {
            result: HamSearchResult {
                class: ClassId(winner),
                measured_distance: Distance::new(counters[winner]),
            },
            cycles: CycleBreakdown {
                broadcast: 1,
                compare: 1,
                count: count_cycles,
                reduce: reduce_cycles,
            },
            datapath_bits: distance_bits(d),
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
    fn cycle_sim_matches_analytic_design() {
        let memory = random_memory(21, 2_048, 7);
        let sim = DhamCycleSim::new(&memory, 32).unwrap();
        let dham = crate::dham::DHam::new(&memory).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..10usize {
            let q = memory
                .row(ClassId(trial % 21))
                .unwrap()
                .with_flipped_bits(400 + trial * 20, &mut rng);
            let cycle = sim.run(&q).unwrap();
            let analytic = dham.search(&q).unwrap();
            assert_eq!(cycle.result, analytic, "trial {trial}");
        }
    }

    #[test]
    fn cycle_counts_follow_the_architecture() {
        let memory = random_memory(21, 10_000, 3);
        let q = memory.row(ClassId(0)).unwrap().clone();

        let narrow = DhamCycleSim::new(&memory, 16).unwrap().run(&q).unwrap();
        assert_eq!(narrow.cycles.count, 625); // ⌈10,000/16⌉
        let wide = DhamCycleSim::new(&memory, 256).unwrap().run(&q).unwrap();
        assert_eq!(wide.cycles.count, 40); // ⌈10,000/256⌉
        assert!(wide.cycles.total() < narrow.cycles.total());
        // The tree depth and datapath width are architecture constants.
        assert_eq!(narrow.cycles.reduce, 5);
        assert_eq!(narrow.datapath_bits, 14);
        assert_eq!(narrow.cycles.broadcast + narrow.cycles.compare, 2);
    }

    #[test]
    fn reduce_depth_is_logarithmic_in_classes() {
        for (c, depth) in [(1usize, 0u64), (2, 1), (8, 3), (100, 7)] {
            let memory = random_memory(c, 256, 5);
            let q = memory.row(ClassId(0)).unwrap().clone();
            let report = DhamCycleSim::new(&memory, 64).unwrap().run(&q).unwrap();
            assert_eq!(report.cycles.reduce, depth, "C = {c}");
        }
    }

    #[test]
    fn ties_resolve_to_the_lower_index_like_hardware() {
        let dim = Dimension::new(128).unwrap();
        let hv = Hypervector::random(dim, 1);
        let mut memory = AssociativeMemory::new(dim);
        memory.insert("a", hv.clone()).unwrap();
        memory.insert("b", hv.clone()).unwrap();
        let sim = DhamCycleSim::new(&memory, 8).unwrap();
        assert_eq!(sim.run(&hv).unwrap().result.class, ClassId(0));
    }

    #[test]
    fn errors_and_panics() {
        let memory = random_memory(2, 64, 1);
        assert!(DhamCycleSim::new(&AssociativeMemory::new(Dimension::new(8).unwrap()), 4).is_err());
        let sim = DhamCycleSim::new(&memory, 4).unwrap();
        let alien = Hypervector::random(Dimension::new(128).unwrap(), 9);
        assert!(sim.run(&alien).is_err());
        assert_eq!(sim.lanes(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let memory = random_memory(2, 64, 1);
        let _ = DhamCycleSim::new(&memory, 0);
    }
}
