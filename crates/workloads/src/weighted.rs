//! The weighted-inference scenario: MIMHD-style multi-bit class vectors
//! with integer per-dimension counts, ranked by the bit-sliced weighted
//! kernel ([`MultiBitRows`]).
//!
//! Construction mirrors how a multi-bit HD classifier actually trains:
//! each class has a clean prototype, training sees `T` noisy copies of
//! it, and the class record keeps the per-dimension *vote count* (how
//! many copies set the bit) instead of just its majority. The count is
//! exactly a `⌈log2(T+1)⌉`-bit integer per dimension — the weighted
//! record the kernel scans — and its majority binarization is exactly
//! what a binary memory would have learned from the same copies, which
//! is the memory the serving path provisions. The local (weighted) vs.
//! served (binarized) accuracy gap on the same query stream is the
//! multi-bit story, pinned by `weighted_ranking_beats_its_binarization`.
//!
//! Where the graded counts actually win: **per-dimension reliability**.
//! A band of `noisy_dims` leading dimensions models unreliable features
//! — every training copy (and every query) rolls them as fair coins. In
//! the count record those dimensions converge to mid-range votes
//! (`≈ T/2`), so the weighted distance `|count − M·q|` contributes
//! `≈ M/2` there *regardless of the query bit*: the unreliable band
//! self-neutralizes, adding only variance that is small on the graded
//! scale. Majority binarization instead collapses each mid-range count
//! to a coin-flip bit whose full-weight mismatches dilute every class
//! equally — which is precisely the information the multi-bit record
//! preserves and the binary projection throws away. With iid noise on
//! every dimension (no band) the majority vote is already near-optimal
//! and the two rankings tie; the reliability split is what MIMHD-style
//! graded records are for.

use hdc::kernel::weighted::MultiBitRows;
use hdc::prelude::*;
use hdc::{active_backend, ClassId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::synth::anchors;
use crate::{QueryRecord, Workload};

/// `base` with its leading `noisy` dimensions re-rolled as fair coins
/// and exactly `flips` distinct bits flipped in the reliable remainder
/// `[noisy, dim)` — the banded analogue of [`crate::synth::noisy_copy`].
///
/// # Panics
///
/// Panics if `noisy + flips` exceeds the dimensionality.
fn banded_copy(base: &Hypervector, noisy: usize, flips: usize, seed: u64) -> Hypervector {
    let dim = base.dim().get();
    assert!(noisy + flips <= dim, "band and flips exceed the dimension");
    let mut rng = StdRng::seed_from_u64(seed);
    let words = base.as_bitvec().as_words();
    let mut bits: Vec<bool> = (0..dim)
        .map(|d| (words[d / 64] >> (d % 64)) & 1 == 1)
        .collect();
    for bit in bits.iter_mut().take(noisy) {
        *bit = rng.gen_bool(0.5);
    }
    // Exactly `flips` distinct reliable positions, by partial
    // Fisher–Yates over the reliable band.
    let mut reliable: Vec<usize> = (noisy..dim).collect();
    for i in 0..flips {
        let j = rng.gen_range(i..reliable.len());
        reliable.swap(i, j);
        bits[reliable[i]] = !bits[reliable[i]];
    }
    Hypervector::from_bitvec(BitVec::from_bits(bits)).expect("nonzero dimension")
}

/// Parameters of the weighted-inference world.
#[derive(Debug, Clone, Copy)]
pub struct WeightedParams {
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Noisy training copies per class; the count width is
    /// `⌈log2(copies + 1)⌉` bits.
    pub train_copies: usize,
    /// Leading dimensions that are unreliable: every training copy and
    /// every query rolls them as independent fair coins. These are the
    /// dimensions whose mid-range counts the weighted kernel
    /// self-neutralizes and whose binarized bits are pure noise.
    pub noisy_dims: usize,
    /// Bits flipped in each training copy, within the reliable band
    /// `[noisy_dims, dim)`.
    pub train_flips: usize,
    /// Queries planted per class.
    pub queries_per_class: usize,
    /// Bits flipped in each query within the reliable band — past the
    /// training noise, where the graded counts out-vote the majority
    /// projection.
    pub query_flips: usize,
}

impl Default for WeightedParams {
    /// The bench operating point: half the dimensions unreliable and
    /// queries at 43% flip noise within the reliable half — hard enough
    /// that the majority binarization visibly loses accuracy to the
    /// graded counts (measured at seed 7: weighted 0.98 vs binarized
    /// 0.68) while the weighted ranking stays near-clean.
    fn default() -> Self {
        WeightedParams {
            dim: 1_024,
            classes: 16,
            train_copies: 15,
            noisy_dims: 512,
            train_flips: 512 * 15 / 100,
            queries_per_class: 8,
            query_flips: 512 * 43 / 100,
        }
    }
}

/// The weighted-inference scenario.
#[derive(Debug)]
pub struct WeightedWorkload {
    counts: MultiBitRows,
    binary: AssociativeMemory,
    records: Vec<QueryRecord>,
    params: WeightedParams,
    seed: u64,
}

impl WeightedWorkload {
    /// Builds the world at the given parameters, fully derived from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dim`, `classes`, `train_copies`, or
    /// `queries_per_class` is zero.
    pub fn build(params: WeightedParams, seed: u64) -> Self {
        assert!(params.train_copies > 0, "training needs at least one copy");
        assert!(params.classes > 0 && params.queries_per_class > 0);
        assert!(
            params.noisy_dims < params.dim,
            "some dimensions must stay reliable"
        );
        let dim = Dimension::new(params.dim).expect("nonzero dimension");
        let bits = usize::BITS as usize - params.train_copies.leading_zeros() as usize;
        let prototypes = anchors(dim, params.classes, seed);
        let mut counts = MultiBitRows::with_capacity(params.dim, bits, params.classes);
        for (c, prototype) in prototypes.iter().enumerate() {
            // Per-dimension vote counts over T noisy training copies.
            let mut votes = vec![0u16; params.dim];
            for t in 0..params.train_copies {
                let copy = banded_copy(
                    prototype,
                    params.noisy_dims,
                    params.train_flips,
                    seed ^ 0x7E1A_0000 ^ ((c as u64) << 20) ^ t as u64,
                );
                let words = copy.as_bitvec().as_words();
                for (d, vote) in votes.iter_mut().enumerate() {
                    *vote += ((words[d / 64] >> (d % 64)) & 1) as u16;
                }
            }
            counts.push_counts(&votes);
        }
        let packed = counts.binarize();
        let mut binary = AssociativeMemory::new(dim);
        for row in 0..packed.len() {
            let bits = hdc::BitVec::from_bits(
                (0..params.dim).map(|d| (packed.row_words(row)[d / 64] >> (d % 64)) & 1 == 1),
            );
            binary
                .insert(
                    format!("w{row}"),
                    Hypervector::from_bitvec(bits).expect("nonzero dimension"),
                )
                .expect("rows share the dimension");
        }
        let records = (0..params.classes)
            .flat_map(|c| {
                let prototype = &prototypes[c];
                (0..params.queries_per_class).map(move |q| QueryRecord {
                    truth: c,
                    query: banded_copy(
                        prototype,
                        params.noisy_dims,
                        params.query_flips,
                        seed ^ 0x9E2B_0000 ^ ((c as u64) << 20) ^ q as u64,
                    ),
                })
            })
            .collect();
        WeightedWorkload {
            counts,
            binary,
            records,
            params,
            seed,
        }
    }

    /// The multi-bit class records the native ranking scans.
    pub fn counts(&self) -> &MultiBitRows {
        &self.counts
    }

    /// The parameters this world was built at.
    pub fn params(&self) -> &WeightedParams {
        &self.params
    }

    /// Top-1 accuracy of the *binarized* memory on the same query
    /// stream — the served baseline the weighted kernel is compared
    /// against.
    pub fn binarized_accuracy(&self) -> f64 {
        let correct = self
            .records
            .iter()
            .filter(|record| {
                self.binary
                    .search(&record.query)
                    .expect("queries match the dimension")
                    .class
                    == ClassId(record.truth)
            })
            .count();
        correct as f64 / self.records.len().max(1) as f64
    }
}

impl Workload for WeightedWorkload {
    fn name(&self) -> &'static str {
        "weighted"
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn memory(&self) -> &AssociativeMemory {
        // The serving stack is binary end to end; tenants serve the
        // majority projection and the local/served gap is reported.
        &self.binary
    }

    fn queries(&self) -> &[QueryRecord] {
        &self.records
    }

    fn rank(&self, query: &Hypervector, counters: &mut ScanCounters) -> Vec<usize> {
        let mut ranked = Vec::new();
        let mut scan = ScanCounters::default();
        self.counts.top_k_into(
            active_backend(),
            query.as_bitvec().as_words(),
            self.k(),
            &mut ranked,
            Some(&mut scan),
        );
        counters.absorb(scan);
        ranked.into_iter().map(|(row, _)| row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_local;

    #[test]
    fn weighted_ranking_beats_its_binarization() {
        let w = WeightedWorkload::build(WeightedParams::default(), 7);
        let report = run_local(&w);
        let binarized = w.binarized_accuracy();
        // Rankings are bit-identical across kernel backends and the
        // world is a pure function of the seed, so the gap is exact:
        // the reliability band costs the majority projection ~0.3 of
        // accuracy that the graded counts keep.
        assert!(
            report.accuracy >= binarized + 0.15,
            "weighted {} should clearly beat binarized {}",
            report.accuracy,
            binarized
        );
        assert!(report.accuracy > 0.9, "accuracy = {}", report.accuracy);
        // 4-bit counts for 15 copies; a full direct weighted scan.
        assert_eq!(w.counts().bits(), 4);
        assert_eq!(
            report.rows_scanned,
            (w.counts().len() * w.queries().len()) as u64
        );
    }

    #[test]
    fn worlds_are_deterministic_per_seed() {
        let a = WeightedWorkload::build(WeightedParams::default(), 3);
        let b = WeightedWorkload::build(WeightedParams::default(), 3);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.queries().len(), b.queries().len());
        for (qa, qb) in a.queries().iter().zip(b.queries()) {
            assert_eq!(qa.truth, qb.truth);
            assert_eq!(qa.query, qb.query);
        }
        let c = WeightedWorkload::build(WeightedParams::default(), 4);
        assert_ne!(a.counts(), c.counts());
    }

    #[test]
    fn binarized_memory_matches_the_kernel_binarization() {
        let w = WeightedWorkload::build(
            WeightedParams {
                dim: 256,
                classes: 4,
                train_copies: 7,
                noisy_dims: 64,
                train_flips: 48,
                queries_per_class: 2,
                query_flips: 72,
            },
            11,
        );
        let packed = w.counts().binarize();
        for row in 0..packed.len() {
            assert_eq!(
                w.memory().row(ClassId(row)).unwrap().as_bitvec().as_words(),
                packed.row_words(row)
            );
        }
    }
}
