//! Shared seeded synthetic-world generation.
//!
//! Before this module, the "random anchors + noisy planted copies"
//! recipe lived in two places (`ham-bench`'s index-scaling sweep and its
//! near-duplicate shape) and the langid corpus-world build in a third
//! (`ham-bench::context`); the two new workloads would have copied it a
//! fourth and fifth time. Everything here is a pure function of its
//! seed: two calls with the same arguments return bit-identical worlds,
//! which is what makes every workload report and regression pin
//! reproducible.

use hdc::prelude::*;
use langid::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `count` independent uniform-random hypervectors — cluster anchors, or
/// (used directly) the adversarial unclustered shape where no pruner can
/// win.
pub fn anchors(dim: Dimension, count: usize, seed: u64) -> Vec<Hypervector> {
    (0..count as u64)
        .map(|i| Hypervector::random(dim, seed ^ (i << 32)))
        .collect()
}

/// A deterministic noisy copy: `base` with exactly `flips` distinct bits
/// flipped, chosen by `seed`.
pub fn noisy_copy(base: &Hypervector, flips: usize, seed: u64) -> Hypervector {
    let mut rng = StdRng::seed_from_u64(seed);
    base.with_flipped_bits(flips, &mut rng)
}

/// `rows` planted-cluster rows assigned round-robin over `anchors`, each
/// a noisy copy of its anchor with `flips` bits flipped. Returns
/// `(anchor index, row)` pairs — the clustered shape the bucket index's
/// triangle bound was built for.
///
/// # Panics
///
/// Panics if `anchors` is empty.
pub fn planted_cluster_rows(
    anchors: &[Hypervector],
    rows: usize,
    flips: usize,
    seed: u64,
) -> Vec<(usize, Hypervector)> {
    assert!(!anchors.is_empty(), "planted clusters need anchors");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|i| {
            let a = i % anchors.len();
            (a, anchors[a].with_flipped_bits(flips, &mut rng))
        })
        .collect()
}

/// Row `index` of the *cluster-major* planted world, generated on the
/// fly: rows `[c·per_cluster, (c+1)·per_cluster)` all belong to cluster
/// `c`, and each row derives from `(seed, index)` alone — no sequential
/// RNG state — so any single row (or query planted on it) can be
/// *rematerialized* without holding the dense row set resident.
///
/// Two layouts, two purposes: [`planted_cluster_rows`] deals clusters
/// round-robin (interleaved — the adversarial layout for any scheme
/// that prunes contiguous row blocks), while this cluster-major deal
/// keeps each cluster contiguous in row order.
///
/// # Panics
///
/// Panics if `anchors` is empty or `per_cluster` is zero.
pub fn cluster_major_row_at(
    anchors: &[Hypervector],
    index: usize,
    per_cluster: usize,
    flips: usize,
    seed: u64,
) -> (usize, Hypervector) {
    assert!(!anchors.is_empty(), "planted clusters need anchors");
    assert!(per_cluster > 0, "clusters need at least one row");
    let cluster = (index / per_cluster) % anchors.len();
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (cluster, anchors[cluster].with_flipped_bits(flips, &mut rng))
}

/// All `rows` cluster-major planted rows — [`cluster_major_row_at`]
/// materialized densely, for building the stored memory (the queries
/// stay rematerializable row by row).
pub fn cluster_major_rows(
    anchors: &[Hypervector],
    rows: usize,
    per_cluster: usize,
    flips: usize,
    seed: u64,
) -> Vec<(usize, Hypervector)> {
    (0..rows)
        .map(|i| cluster_major_row_at(anchors, i, per_cluster, flips, seed))
        .collect()
}

/// One noisy query per entry of `sources`, each flipping `flips` bits of
/// the row it is planted from — the `(truth, query)` stream shape every
/// similarity workload scores.
pub fn planted_queries(
    sources: &[(usize, Hypervector)],
    flips: usize,
    seed: u64,
) -> Vec<(usize, Hypervector)> {
    let mut rng = StdRng::seed_from_u64(seed);
    sources
        .iter()
        .map(|(truth, row)| (*truth, row.with_flipped_bits(flips, &mut rng)))
        .collect()
}

/// The trained langid world: classifier, golden accumulators, and the
/// pre-encoded test stream — hoisted from `ham-bench`'s experiment
/// context so the bench harness and the workload trait build the *same*
/// world from the same seed.
#[derive(Debug)]
pub struct LangidWorld {
    /// The trained classifier (encoder + associative memory).
    pub classifier: LanguageClassifier,
    /// The trainer's per-class bipolar accumulators — the golden copies
    /// a scrubber re-binarizes stored rows from.
    pub accumulators: Accumulators,
    /// Pre-encoded `(truth, query)` pairs over the held-out sentences.
    pub queries: Vec<(LanguageId, Hypervector)>,
}

/// Trains the 21-language synthetic classifier and encodes its test
/// corpus: `train_chars` training characters and `test_sentences` test
/// sentences per language at dimensionality `dim`, all derived from
/// `seed`.
///
/// # Panics
///
/// Panics if training fails (cannot happen for valid dimensions).
pub fn langid_world(
    dim: usize,
    train_chars: usize,
    test_sentences: usize,
    seed: u64,
) -> LangidWorld {
    let spec = CorpusSpec::new(seed)
        .train_chars(train_chars)
        .test_sentences(test_sentences);
    let config = ClassifierConfig::new(dim).expect("nonzero dimension");
    let (classifier, accumulators) =
        LanguageClassifier::train_with_accumulators(&config, &spec.training_set())
            .expect("training succeeds");
    let queries = langid::eval::encode_corpus(&classifier, &spec.test_set());
    LangidWorld {
        classifier,
        accumulators,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_are_deterministic_per_seed() {
        let dim = Dimension::new(512).unwrap();
        assert_eq!(anchors(dim, 4, 7), anchors(dim, 4, 7));
        assert_ne!(anchors(dim, 4, 7), anchors(dim, 4, 8));
        let base = Hypervector::random(dim, 1);
        assert_eq!(noisy_copy(&base, 10, 3), noisy_copy(&base, 10, 3));
        assert_eq!(noisy_copy(&base, 10, 3).hamming(&base).as_usize(), 10);
        let a = anchors(dim, 3, 9);
        let rows = planted_cluster_rows(&a, 10, 8, 11);
        assert_eq!(rows, planted_cluster_rows(&a, 10, 8, 11));
        assert_eq!(rows.len(), 10);
        for (i, (anchor, row)) in rows.iter().enumerate() {
            assert_eq!(*anchor, i % 3, "round-robin assignment");
            assert_eq!(row.hamming(&a[*anchor]).as_usize(), 8);
        }
        let queries = planted_queries(&rows, 2, 13);
        assert_eq!(queries, planted_queries(&rows, 2, 13));
        for ((truth, q), (source, row)) in queries.iter().zip(&rows) {
            assert_eq!(truth, source);
            assert_eq!(q.hamming(row).as_usize(), 2);
        }
    }

    #[test]
    fn cluster_major_rows_are_contiguous_and_rematerialize_per_index() {
        let dim = Dimension::new(512).unwrap();
        let a = anchors(dim, 4, 3);
        let rows = cluster_major_rows(&a, 22, 5, 8, 17);
        assert_eq!(rows.len(), 22);
        for (i, (cluster, row)) in rows.iter().enumerate() {
            // Cluster-major: five consecutive rows per cluster, wrapping.
            assert_eq!(*cluster, (i / 5) % 4);
            assert_eq!(row.hamming(&a[*cluster]).as_usize(), 8);
            // Any single row regenerates from (seed, index) alone — the
            // rematerialization contract the bench's bytes-per-class
            // comparison rests on.
            assert_eq!(
                (*cluster, row.clone()),
                cluster_major_row_at(&a, i, 5, 8, 17)
            );
        }
    }

    #[test]
    fn langid_world_trains_and_encodes() {
        let world = langid_world(1_000, 4_000, 2, 42);
        assert_eq!(world.queries.len(), LANGUAGE_COUNT * 2);
        assert_eq!(world.accumulators.classes(), LANGUAGE_COUNT);
        assert_eq!(world.classifier.memory().len(), LANGUAGE_COUNT);
    }

    #[test]
    fn anchors_are_quasi_orthogonal() {
        // Independent uniform rows sit near D/2 from each other: the
        // unclustered shape no pruner can win on. σ = √D/2 = 32 here,
        // so ±6σ bounds every pair of 12 anchors.
        let dim = Dimension::new(4_096).unwrap();
        let a = anchors(dim, 12, 0xA11);
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                let d = a[i].hamming(&a[j]).as_usize();
                assert!((2_048 - 192..=2_048 + 192).contains(&d), "{i},{j}: {d}");
            }
        }
        // Prefixes agree: anchor `i` depends on (seed, i) alone.
        assert_eq!(anchors(dim, 5, 0xA11), a[..5]);
    }

    #[test]
    #[should_panic(expected = "planted clusters need anchors")]
    fn planted_rows_need_anchors() {
        planted_cluster_rows(&[], 3, 1, 0);
    }

    #[test]
    #[should_panic(expected = "clusters need at least one row")]
    fn cluster_major_rows_need_a_positive_cluster_size() {
        let dim = Dimension::new(64).unwrap();
        cluster_major_row_at(&anchors(dim, 2, 1), 0, 0, 1, 0);
    }
}
