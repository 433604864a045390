//! Property-based proof that every distance backend and scan strategy is
//! bit-identical to the scalar full scan.
//!
//! Three layers:
//!
//! * the [`DistanceBackend`] contract itself — for every enabled backend,
//!   `bounded_distance` returns the exact distance whenever it returns at
//!   all, abandons only when the exact distance strictly exceeds the
//!   bound, and never abandons at `bound == usize::MAX`;
//! * the scan — `PackedRows::min2` must report the same winner, winner
//!   distance, and runner-up for **every** enabled backend × strategy
//!   (direct, sampled-prefilter cascade, auto) as the naive per-row
//!   reference, on random class counts, dimensions with non-word-multiple
//!   tails, and masks;
//! * the memory — with an index and a mirror attached, every strategy
//!   answers after updates that can empty a bucket, and the exact ones
//!   agree with the direct scan.

use hdc::kernel::PackedRows;
use hdc::prelude::*;
use hdc::{enabled_backends, DistanceBackend, IndexBuildOptions, ScanPlan, ScanStrategy};
use proptest::prelude::*;

/// The seed's naive word-wise zip kernel — the reference implementation.
fn naive_hamming(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum()
}

fn naive_hamming_masked(a: &[u64], b: &[u64], m: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .zip(m)
        .map(|((x, y), w)| ((x ^ y) & w).count_ones() as usize)
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

/// Dimensions that exercise word boundaries, tails, and the SIMD block
/// sizes (AVX2 folds 64-word blocks, AVX-512 checks every 128 words,
/// NEON every 32): include multi-block lengths, not just tiny ones.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(1_024usize),
        Just(4_096usize),
        Just(8_200usize),
        Just(10_000usize),
        2usize..700,
    ]
}

fn words(d: usize, seed: u64) -> Vec<u64> {
    Hypervector::random(Dimension::new(d).unwrap(), seed)
        .as_bitvec()
        .as_words()
        .to_vec()
}

/// A random memory plus a near or far query, as packed rows.
fn packed_memory(c: usize, d: usize, seed: u64, near: bool) -> (PackedRows, Vec<u64>) {
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
    let mut packed = PackedRows::with_capacity(d, c);
    for row in &rows {
        packed.push(row.as_bitvec().as_words());
    }
    (packed, query.as_bitvec().as_words().to_vec())
}

const STRATEGIES: [ScanStrategy; 3] = [
    ScanStrategy::Direct,
    ScanStrategy::Cascade,
    ScanStrategy::Auto,
];

/// Checks one backend against the contract for one (a, b, mask, bound).
fn check_contract(backend: &dyn DistanceBackend, a: &[u64], b: &[u64], m: &[u64], bound: usize) {
    let exact = naive_hamming(a, b);
    assert_eq!(
        backend.bounded_distance(a, b, usize::MAX),
        Some(exact),
        "{} unbounded",
        backend.name()
    );
    match backend.bounded_distance(a, b, bound) {
        Some(d) => assert_eq!(d, exact, "{} bound={bound}", backend.name()),
        None => assert!(
            exact > bound,
            "{} abandoned at exact={exact}",
            backend.name()
        ),
    }
    let exact_masked = naive_hamming_masked(a, b, m);
    assert_eq!(
        backend.bounded_distance_masked(a, b, m, usize::MAX),
        Some(exact_masked),
        "{} unbounded masked",
        backend.name()
    );
    match backend.bounded_distance_masked(a, b, m, bound) {
        Some(d) => assert_eq!(d, exact_masked, "{} masked bound={bound}", backend.name()),
        None => assert!(exact_masked > bound, "{} masked abandon", backend.name()),
    }
}

proptest! {
    /// Every enabled backend honours the bounded-distance contract on
    /// random words and bounds (including bound 0 and bounds near exact).
    #[test]
    fn backends_honour_the_bounded_contract(
        d in dims(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        s3 in any::<u64>(),
        tightness in 0usize..4,
    ) {
        let (a, b, m) = (words(d, s1), words(d, s2), words(d, s3));
        let exact = naive_hamming(&a, &b);
        let bound = match tightness {
            0 => 0,
            1 => exact / 2,
            2 => exact.saturating_sub(1),
            _ => exact + 1,
        };
        for backend in enabled_backends() {
            check_contract(backend, &a, &b, &m, bound);
        }
    }

    /// Every backend × strategy scan reports exactly what the naive
    /// reference reports, masked and unmasked.
    #[test]
    fn every_backend_and_strategy_match_the_naive_scan(
        c in 1usize..40,
        d in dims(),
        seed in any::<u64>(),
        near in any::<bool>(),
    ) {
        let (packed, query) = packed_memory(c, d, seed, near);
        let mask = words(d, seed ^ 0xA5A5);
        let plain: Vec<usize> = (0..c)
            .map(|r| naive_hamming(packed.row_words(r), &query))
            .collect();
        let masked: Vec<usize> = (0..c)
            .map(|r| naive_hamming_masked(packed.row_words(r), &query, &mask))
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&plain);
        let (mbest, mbest_distance, mrunner_up) = naive_min2(&masked);
        for backend in enabled_backends() {
            for strategy in STRATEGIES {
                let plan = ScanPlan::new(backend, strategy, None, None, c, d);
                let hit = packed.min2(&plan, &query, None, None).unwrap();
                prop_assert_eq!(hit.best, best, "{} {:?}", backend.name(), strategy);
                prop_assert_eq!(hit.best_distance, best_distance);
                prop_assert_eq!(hit.runner_up, runner_up);
                let hit = packed.min2(&plan, &query, Some(&mask), None).unwrap();
                prop_assert_eq!(hit.best, mbest, "{} {:?} masked", backend.name(), strategy);
                prop_assert_eq!(hit.best_distance, mbest_distance);
                prop_assert_eq!(hit.runner_up, mrunner_up);
            }
        }
    }
}

proptest! {
    /// Every strategy answers on every non-empty memory with an index
    /// and a mirror attached, also after updates that move rows onto
    /// other rows' contents and so can empty a bucket whose centroid
    /// stays closest to a query. The exact strategies agree with the
    /// direct scan; the probe still finds stored rows.
    #[test]
    fn every_strategy_answers_after_updates_empty_buckets(
        c in 1usize..40,
        d in 2usize..700,
        buckets in 1usize..40,
        seed in any::<u64>(),
        moves in prop::collection::vec((0usize..40, 0usize..40), 1..6),
    ) {
        let dim = Dimension::new(d).unwrap();
        let rows: Vec<Hypervector> = (0..c as u64)
            .map(|i| Hypervector::random(dim, seed ^ (i << 32)))
            .collect();
        let mut memory = AssociativeMemory::new(dim);
        for (i, row) in rows.iter().enumerate() {
            memory.insert(format!("row-{i}"), row.clone()).unwrap();
        }
        memory.build_index(IndexBuildOptions { buckets, ..IndexBuildOptions::default() });
        memory.build_sliced();
        for (from, to) in moves {
            let moved = memory.row(ClassId(to % c)).unwrap().clone();
            memory.replace_row(ClassId(from % c), moved).unwrap();
        }
        let mut direct = memory.clone();
        direct.set_scan_strategy(ScanStrategy::Direct);
        let far = Hypervector::random(dim, !seed);
        for query in rows.iter().chain([&far]) {
            let expected = direct.search(query).unwrap();
            let expected_top = direct.search_top_k(query, 3).unwrap();
            for strategy in [
                ScanStrategy::Auto,
                ScanStrategy::Cascade,
                ScanStrategy::BitSliced,
                ScanStrategy::Indexed,
                ScanStrategy::Probe { nprobe: 1 },
                ScanStrategy::Probe { nprobe: 2 },
            ] {
                let mut planned = memory.clone();
                planned.set_scan_strategy(strategy);
                let hit = planned.search(query).unwrap();
                let top = planned.search_top_k(query, 3).unwrap();
                if let ScanStrategy::Probe { .. } = strategy {
                    prop_assert!(hit.class.0 < c, "{:?}", strategy);
                    prop_assert!(!top.is_empty(), "{:?}", strategy);
                } else {
                    prop_assert_eq!(&hit, &expected, "{:?}", strategy);
                    prop_assert_eq!(&top, &expected_top, "{:?}", strategy);
                }
            }
        }
    }
}

/// The cascade's auto threshold is 128 rows × 32 words; drive a shape
/// past it (with planted near-duplicates so pruning actually fires) and
/// hold every backend × strategy to the naive reference. Deterministic —
/// proptest shrinking on a 160×2500 memory would be slow for no gain.
#[test]
fn large_auto_cascade_shape_matches_the_naive_scan() {
    let d = 2_500usize;
    let dim = Dimension::new(d).unwrap();
    let base = Hypervector::random(dim, 77);
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(78)
    };
    let mut packed = PackedRows::with_capacity(d, 160);
    for i in 0..160u64 {
        let row = if i % 40 == 7 {
            base.with_flipped_bits(10 + i as usize % 5, &mut rng)
        } else {
            Hypervector::random(dim, 500 + i)
        };
        packed.push(row.as_bitvec().as_words());
    }
    let query = base.with_flipped_bits(6, &mut rng);
    let query = query.as_bitvec().as_words();
    let naive: Vec<usize> = (0..160)
        .map(|r| naive_hamming(packed.row_words(r), query))
        .collect();
    let (best, best_distance, runner_up) = naive_min2(&naive);
    for backend in enabled_backends() {
        for strategy in STRATEGIES {
            let plan = ScanPlan::new(backend, strategy, None, None, 160, d);
            let hit = packed.min2(&plan, query, None, None).unwrap();
            assert_eq!(
                (hit.best, hit.best_distance, hit.runner_up),
                (best, best_distance, runner_up),
                "{} {:?}",
                backend.name(),
                strategy
            );
        }
    }
}
