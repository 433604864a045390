//! Property-based proof that the optimized search engine is bit-identical
//! to the naive reference.
//!
//! The fused, early-abandoning `PackedRows` scan must agree with the
//! seed's per-row word-zip Hamming loop on *everything it reports* —
//! winner index, winner distance, runner-up distance — for random class
//! counts and dimensions, including dimensions with a non-word-multiple
//! tail (`D % 64 ≠ 0`).

use hdc::kernel::{hamming_words, hamming_words_masked, PackedRows, ScanPlan};
use hdc::prelude::*;
use proptest::prelude::*;

/// The seed's naive word-wise zip kernel — the reference implementation.
fn naive_hamming(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum()
}

/// The seed's two-pass min + runner-up scan over a full distance list.
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

/// Strategy: a dimension that exercises word boundaries and tail words.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(127usize),
        Just(128usize),
        Just(1_024usize),
        2usize..700,
    ]
}

/// A random memory: `c` rows of `d` bits from a seed, plus a query that is
/// a stored row with bits flipped (the realistic near-match case) when
/// `near` is set, or an unrelated random vector otherwise.
fn memory_and_query(c: usize, d: usize, seed: u64, near: bool) -> (Vec<Hypervector>, Hypervector) {
    let dim = Dimension::new(d).unwrap();
    let rows: Vec<Hypervector> = (0..c as u64)
        .map(|i| Hypervector::random(dim, seed ^ (i << 32)))
        .collect();
    let query = if near {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        rows[(seed as usize) % c].with_flipped_bits(d / 4, &mut rng)
    } else {
        Hypervector::random(dim, seed ^ 0xDEAD_BEEF)
    };
    (rows, query)
}

fn packed_from(rows: &[Hypervector]) -> PackedRows {
    let mut packed = PackedRows::with_capacity(rows[0].dim().get(), rows.len());
    for row in rows {
        packed.push(row.as_bitvec().as_words());
    }
    packed
}

proptest! {
    #[test]
    fn unrolled_kernel_equals_naive_zip(d in dims(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let dim = Dimension::new(d).unwrap();
        let a = Hypervector::random(dim, s1);
        let b = Hypervector::random(dim, s2);
        prop_assert_eq!(
            hamming_words(a.as_bitvec().as_words(), b.as_bitvec().as_words()),
            naive_hamming(a.as_bitvec().as_words(), b.as_bitvec().as_words())
        );
    }

    #[test]
    fn masked_kernel_equals_naive_masked_zip(
        d in dims(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        s3 in any::<u64>(),
    ) {
        let dim = Dimension::new(d).unwrap();
        let a = Hypervector::random(dim, s1);
        let b = Hypervector::random(dim, s2);
        let m = Hypervector::random(dim, s3);
        let expected: usize = a
            .as_bitvec()
            .as_words()
            .iter()
            .zip(b.as_bitvec().as_words())
            .zip(m.as_bitvec().as_words())
            .map(|((x, y), w)| ((x ^ y) & w).count_ones() as usize)
            .sum();
        prop_assert_eq!(
            hamming_words_masked(
                a.as_bitvec().as_words(),
                b.as_bitvec().as_words(),
                m.as_bitvec().as_words()
            ),
            expected
        );
    }

    #[test]
    fn fused_scan_equals_naive_scan(
        c in 1usize..40,
        d in dims(),
        seed in any::<u64>(),
        near in any::<bool>(),
    ) {
        let (rows, query) = memory_and_query(c, d, seed, near);
        let packed = packed_from(&rows);
        let naive: Vec<usize> = rows
            .iter()
            .map(|r| naive_hamming(r.as_bitvec().as_words(), query.as_bitvec().as_words()))
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&naive);
        // Early abandonment must never change the winner, the runner-up,
        // or either reported distance.
        let words = query.as_bitvec().as_words();
        let hit = packed.min2(&ScanPlan::direct(), words, None, None).unwrap();
        prop_assert_eq!(hit.best, best);
        prop_assert_eq!(hit.best_distance, best_distance);
        prop_assert_eq!(hit.runner_up, runner_up);
        // The full (non-abandoning) distance sweep agrees row for row.
        let mut distances = Vec::new();
        packed.distances_into(words, None, &mut distances);
        prop_assert_eq!(distances, naive);
    }

    #[test]
    fn masked_scan_equals_naive_masked_scan(
        c in 1usize..24,
        d in dims(),
        seed in any::<u64>(),
    ) {
        let (rows, query) = memory_and_query(c, d, seed, false);
        let mask = Hypervector::random(Dimension::new(d).unwrap(), seed ^ 0xA5A5);
        let packed = packed_from(&rows);
        let naive: Vec<usize> = rows
            .iter()
            .map(|r| {
                r.as_bitvec()
                    .as_words()
                    .iter()
                    .zip(query.as_bitvec().as_words())
                    .zip(mask.as_bitvec().as_words())
                    .map(|((x, y), w)| ((x ^ y) & w).count_ones() as usize)
                    .sum()
            })
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&naive);
        let hit = packed
            .min2(
                &ScanPlan::direct(),
                query.as_bitvec().as_words(),
                Some(mask.as_bitvec().as_words()),
                None,
            )
            .unwrap();
        prop_assert_eq!(hit.best, best);
        prop_assert_eq!(hit.best_distance, best_distance);
        prop_assert_eq!(hit.runner_up, runner_up);
    }

    #[test]
    fn memory_search_equals_naive_reference(
        c in 1usize..24,
        d in dims(),
        seed in any::<u64>(),
        near in any::<bool>(),
    ) {
        let (rows, query) = memory_and_query(c, d, seed, near);
        let mut am = AssociativeMemory::new(rows[0].dim());
        for (i, row) in rows.iter().enumerate() {
            am.insert(format!("c{i}"), row.clone()).unwrap();
        }
        let naive: Vec<usize> = rows
            .iter()
            .map(|r| naive_hamming(r.as_bitvec().as_words(), query.as_bitvec().as_words()))
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&naive);
        let hit = am.search(&query).unwrap();
        prop_assert_eq!(hit.class, ClassId(best));
        prop_assert_eq!(hit.distance.as_usize(), best_distance);
        prop_assert_eq!(hit.runner_up.map(|r| r.as_usize()), runner_up);
    }

    #[test]
    fn batch_search_equals_serial_search(
        c in 1usize..12,
        d in dims(),
        n in 0usize..20,
        threads in 1usize..6,
        seed in any::<u64>(),
    ) {
        let (rows, _) = memory_and_query(c, d, seed, false);
        let mut am = AssociativeMemory::new(rows[0].dim());
        for (i, row) in rows.iter().enumerate() {
            am.insert(format!("c{i}"), row.clone()).unwrap();
        }
        let dim = rows[0].dim();
        let queries: Vec<Hypervector> = (0..n as u64)
            .map(|i| Hypervector::random(dim, seed ^ (i << 17) ^ 0xF00D))
            .collect();
        let serial: Vec<SearchResult> =
            queries.iter().map(|q| am.search(q).unwrap()).collect();
        prop_assert_eq!(am.search_batch(&queries, threads).unwrap(), serial);
    }

    #[test]
    fn direct_top_k_equals_the_naive_ranking(
        c in 1usize..40,
        d in dims(),
        k in 0usize..45,
        seed in any::<u64>(),
        near in any::<bool>(),
    ) {
        let (rows, query) = memory_and_query(c, d, seed, near);
        let packed = packed_from(&rows);
        let words = query.as_bitvec().as_words();
        let mut naive: Vec<(usize, usize)> = rows
            .iter()
            .enumerate()
            .map(|(r, row)| (r, naive_hamming(row.as_bitvec().as_words(), words)))
            .collect();
        naive.sort_by_key(|&(r, distance)| (distance, r));
        naive.truncate(k);
        let mut ranked = vec![(usize::MAX, usize::MAX); 3];
        packed.top_k(&ScanPlan::direct(), words, k, &mut ranked, None);
        prop_assert_eq!(ranked, naive);
    }

    #[test]
    fn scans_stay_exact_after_rows_are_replaced_and_truncated(
        c in 2usize..40,
        d in dims(),
        seed in any::<u64>(),
        keep in 1usize..40,
    ) {
        let (mut rows, query) = memory_and_query(c, d, seed, true);
        let mut packed = packed_from(&rows);
        // Overwrite every third row with a fresh one, then cut the tail.
        let dim = Dimension::new(d).unwrap();
        for r in (0..c).step_by(3) {
            rows[r] = Hypervector::random(dim, !seed ^ r as u64);
            packed.replace(r, rows[r].as_bitvec().as_words());
        }
        let keep = keep.min(c);
        rows.truncate(keep);
        packed.truncate(keep);
        prop_assert_eq!(packed.len(), keep);
        let words = query.as_bitvec().as_words();
        let naive: Vec<usize> = rows
            .iter()
            .map(|r| naive_hamming(r.as_bitvec().as_words(), words))
            .collect();
        let hit = packed.min2(&ScanPlan::direct(), words, None, None).unwrap();
        prop_assert_eq!((hit.best, hit.best_distance, hit.runner_up), naive_min2(&naive));
        let mut distances = Vec::new();
        packed.distances_into(words, None, &mut distances);
        prop_assert_eq!(distances, naive);
    }
}
