//! Property-based proof that the weighted (multi-bit) distance kernel is
//! bit-identical to the naive per-dimension reference on every enabled
//! backend.
//!
//! The kernel under test is [`MultiBitRows`]: integer per-dimension
//! counts stored as bit planes, with the weighted distance computed as
//! `Σ_p 2^p · hamming(plane_p, query)` through the same
//! [`DistanceBackend`]s as the binary scans. The reference is the
//! definition itself — `Σ_d |c_d − M·q_d|` evaluated one dimension at a
//! time — so any plane-packing, plane-budgeting, or backend bug shows up
//! as a mismatch. Four layers:
//!
//! * the distance — full and masked, every backend, dimensions with
//!   non-word-multiple tails, every count width 1..=8;
//! * the bounded contract — `Some(exact)` whenever `exact ≤ bound`,
//!   `None` only when the exact distance strictly exceeds the bound;
//! * the scans — `scan_min2_with` (winner, winner distance, runner-up,
//!   lowest-index ties) and `top_k_into` (`(distance, row)` order)
//!   against the naive two-pass reference;
//! * the degenerate width — `B = 1` must be exactly the Hamming kernel.
//!
//! CI runs this suite under the `{detected, scalar}`
//! `HAM_KERNEL_BACKEND` matrix, same as the binary equivalence suites.

use hdc::enabled_backends;
use hdc::kernel::weighted::MultiBitRows;
use hdc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The definitional reference: `Σ_d |c_d − M·q_d|` over kept dimensions.
fn naive_weighted(counts: &[u16], query: &BitVec, mask: Option<&BitVec>, max: usize) -> usize {
    counts
        .iter()
        .enumerate()
        .filter(|&(d, _)| mask.is_none_or(|m| m.get(d)))
        .map(|(d, &c)| {
            let target = if query.get(d) { max } else { 0 };
            (c as usize).abs_diff(target)
        })
        .sum()
}

/// The seed's two-pass min + runner-up over a full distance list.
fn naive_min2(distances: &[usize]) -> (usize, usize, Option<usize>) {
    let mut best = 0usize;
    for (i, d) in distances.iter().enumerate().skip(1) {
        if *d < distances[best] {
            best = i;
        }
    }
    let runner_up = distances
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best)
        .map(|(_, d)| *d)
        .min();
    (best, distances[best], runner_up)
}

/// Dimensions that exercise word boundaries and tails.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(129usize),
        Just(1_024usize),
        Just(2_050usize),
        2usize..500,
    ]
}

fn random_counts(dim: usize, bits: usize, rng: &mut StdRng) -> Vec<u16> {
    let max = (1u16 << bits) - 1;
    (0..dim).map(|_| rng.gen_range(0..=max)).collect()
}

fn random_bits(dim: usize, rng: &mut StdRng) -> BitVec {
    BitVec::from_bits((0..dim).map(|_| rng.gen_bool(0.5)))
}

/// A random multi-bit memory plus its per-row count lists and a query.
fn world(c: usize, d: usize, bits: usize, seed: u64) -> (MultiBitRows, Vec<Vec<u16>>, BitVec) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = MultiBitRows::with_capacity(d, bits, c);
    let mut counts = Vec::with_capacity(c);
    for _ in 0..c {
        let row = random_counts(d, bits, &mut rng);
        rows.push_counts(&row);
        counts.push(row);
    }
    let query = random_bits(d, &mut rng);
    (rows, counts, query)
}

proptest! {
    /// Every backend computes the exact weighted distance, full and
    /// masked, for every count width and tail shape — and the stored
    /// counts round-trip bit-exactly through the planes.
    #[test]
    fn weighted_distance_matches_the_definition_on_every_backend(
        d in dims(),
        bits in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let (rows, counts, query) = world(3, d, bits, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let mask = random_bits(d, &mut rng);
        let max = rows.max_count();
        for (row, row_counts) in counts.iter().enumerate() {
            prop_assert_eq!(&rows.row_counts(row), row_counts);
            let exact = naive_weighted(row_counts, &query, None, max);
            let exact_masked = naive_weighted(row_counts, &query, Some(&mask), max);
            for backend in enabled_backends() {
                prop_assert_eq!(
                    rows.bounded_distance_with(backend, row, query.as_words(), None, usize::MAX),
                    Some(exact),
                    "{} unbounded", backend.name()
                );
                prop_assert_eq!(
                    rows.bounded_distance_with(
                        backend, row, query.as_words(), Some(mask.as_words()), usize::MAX,
                    ),
                    Some(exact_masked),
                    "{} masked", backend.name()
                );
            }
        }
    }

    /// The bounded weighted distance honours the [`DistanceBackend`]
    /// contract on every backend: exact at or under the bound, `None`
    /// only when the exact distance is strictly above it.
    #[test]
    fn bounded_weighted_distance_honours_the_contract(
        d in dims(),
        bits in 1usize..=8,
        seed in any::<u64>(),
        tightness in 0usize..5,
    ) {
        let (rows, counts, query) = world(1, d, bits, seed);
        let exact = naive_weighted(&counts[0], &query, None, rows.max_count());
        let bound = match tightness {
            0 => 0,
            1 => exact / 2,
            2 => exact.saturating_sub(1),
            3 => exact,
            _ => exact + 1,
        };
        for backend in enabled_backends() {
            let got = rows.bounded_distance_with(backend, 0, query.as_words(), None, bound);
            if exact <= bound {
                prop_assert_eq!(got, Some(exact), "{} bound={}", backend.name(), bound);
            } else {
                prop_assert!(
                    got.is_none() || got == Some(exact),
                    "{} bound={} got={:?}", backend.name(), bound, got
                );
            }
        }
    }

    /// The fused weighted min2 scan reports the naive winner, winner
    /// distance, and runner-up on every backend, masked and unmasked,
    /// with early abandonment changing nothing.
    #[test]
    fn weighted_scan_min2_matches_the_naive_scan(
        c in 1usize..24,
        d in dims(),
        bits in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let (rows, counts, query) = world(c, d, bits, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let mask = random_bits(d, &mut rng);
        let max = rows.max_count();
        let plain: Vec<usize> = counts.iter()
            .map(|row| naive_weighted(row, &query, None, max))
            .collect();
        let masked: Vec<usize> = counts.iter()
            .map(|row| naive_weighted(row, &query, Some(&mask), max))
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&plain);
        let (mbest, mbest_distance, mrunner_up) = naive_min2(&masked);
        for backend in enabled_backends() {
            let hit = rows
                .scan_min2_with(backend, query.as_words(), None, None)
                .unwrap();
            prop_assert_eq!(hit.best, best, "{}", backend.name());
            prop_assert_eq!(hit.best_distance, best_distance);
            prop_assert_eq!(hit.runner_up, runner_up);
            let hit = rows
                .scan_min2_with(backend, query.as_words(), Some(mask.as_words()), None)
                .unwrap();
            prop_assert_eq!(hit.best, mbest, "{} masked", backend.name());
            prop_assert_eq!(hit.best_distance, mbest_distance);
            prop_assert_eq!(hit.runner_up, mrunner_up);
        }
    }

    /// Weighted rankings agree with the naive reference for every
    /// backend; the ranking respects the `(distance, row)` tie rule and
    /// the counters account for exactly the scanned rows.
    #[test]
    fn weighted_top_k_matches_the_naive_ranking(
        c in 1usize..24,
        d in dims(),
        bits in 1usize..=4,
        seed in any::<u64>(),
        k in 0usize..8,
    ) {
        let (rows, counts, query) = world(c, d, bits, seed);
        let max = rows.max_count();
        let mut expected: Vec<(usize, usize)> = counts.iter()
            .map(|row| naive_weighted(row, &query, None, max))
            .enumerate()
            .collect();
        expected.sort_by_key(|&(row, dist)| (dist, row));
        expected.truncate(k);
        for backend in enabled_backends() {
            let mut ranked = Vec::new();
            let mut counters = ScanCounters::default();
            rows.top_k_into(
                backend, query.as_words(), k, &mut ranked, Some(&mut counters),
            );
            prop_assert_eq!(&ranked, &expected, "{} top-{}", backend.name(), k);
            if k > 0 {
                prop_assert_eq!(counters.rows_scanned, c as u64);
            }
        }
    }

    /// `B = 1` weighted rows are exactly the Hamming kernel: same
    /// distances as [`BitVec::hamming`], and `binarize` round-trips the
    /// stored bits.
    #[test]
    fn one_bit_width_degenerates_to_hamming(
        d in dims(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stored = random_bits(d, &mut rng);
        let query = random_bits(d, &mut rng);
        let mut rows = MultiBitRows::new(d, 1);
        rows.push_counts(
            &(0..d).map(|i| u16::from(stored.get(i))).collect::<Vec<_>>(),
        );
        prop_assert_eq!(rows.distance(0, query.as_words()), stored.hamming(&query));
        prop_assert_eq!(rows.binarize().row_words(0), stored.as_words());
    }
}
