//! Property-based proof that the bit-sliced dim-major scan is
//! bit-identical to the naive row-major reference — on every enabled
//! backend (the scalar column fold plus whatever SIMD column kernels
//! the host offers), across the shapes that stress the transposed
//! layout:
//!
//! * non-word-multiple dimensions (a ragged tail word whose mask keeps
//!   padding out of the counts);
//! * non-group-multiple class counts (a ragged tail group with fewer
//!   than 64 live lanes);
//! * masked scans, sub-range scans, and top-k rankings with the shared
//!   `(distance, row)` tie-break;
//! * the [`SharedBound`] scatter contract: any pre-tightened bound
//!   never changes a reported winner, it can only turn a slice into a
//!   sound `None`;
//! * online updates: `push_row`/`update_row` keep the transpose
//!   coherent with the row-major matrix it mirrors (the in-crate twin
//!   of the `ham-core` retranspose-coherence suite).

use hdc::kernel::PackedRows;
use hdc::prelude::*;
use hdc::{enabled_backends, BitSlicedRows, ScanStrategy};
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

/// Dimensions that exercise word boundaries and multi-word columns.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(257usize),
        Just(1_024usize),
        2usize..700,
    ]
}

/// Class counts around the 64-row group boundary: full groups, ragged
/// tail groups, single rows, and multi-group counts.
fn class_counts() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(128usize),
        Just(129usize),
        1usize..200,
    ]
}

fn words(d: usize, seed: u64) -> Vec<u64> {
    Hypervector::random(Dimension::new(d).unwrap(), seed)
        .as_bitvec()
        .as_words()
        .to_vec()
}

/// A random memory plus a near or far query, as packed rows. Near
/// queries plant a winner so the group bound actually prunes.
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

proptest! {
    /// Plain and masked full-range min2 through the transpose reports
    /// exactly what the naive row-major reference reports, for every
    /// enabled backend's column kernel.
    #[test]
    fn bitsliced_min2_matches_the_naive_scan(
        c in class_counts(),
        d in dims(),
        seed in any::<u64>(),
        near in any::<bool>(),
    ) {
        let (packed, query) = packed_memory(c, d, seed, near);
        let sliced = BitSlicedRows::from_packed(&packed);
        prop_assert_eq!(sliced.len(), c);
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
            let mut counters = ScanCounters::default();
            let hit = sliced
                .scan_min2(backend, &query, None, 0..c, Some(&mut counters), None)
                .unwrap();
            prop_assert_eq!(hit.best, best, "{}", backend.name());
            prop_assert_eq!(hit.best_distance, best_distance);
            prop_assert_eq!(hit.runner_up, runner_up);
            // Group pruning and scanning partition the range exactly.
            prop_assert_eq!(
                counters.rows_scanned + counters.rows_group_pruned,
                c as u64,
                "{} counters partition the range",
                backend.name()
            );
            let hit = sliced
                .scan_min2(backend, &query, Some(&mask), 0..c, None, None)
                .unwrap();
            prop_assert_eq!(hit.best, mbest, "{} masked", backend.name());
            prop_assert_eq!(hit.best_distance, mbest_distance);
            prop_assert_eq!(hit.runner_up, mrunner_up);
        }
    }

    /// Sub-range scans agree with the naive reference restricted to the
    /// same range — ranges that straddle group boundaries included.
    #[test]
    fn bitsliced_ranged_scans_match(
        c in 2usize..200,
        d in dims(),
        seed in any::<u64>(),
        lo in 0usize..200,
        span in 0usize..200,
    ) {
        let (packed, query) = packed_memory(c, d, seed, false);
        let sliced = BitSlicedRows::from_packed(&packed);
        let lo = lo % c;
        let hi = (lo + 1 + span % c).min(c);
        let naive: Vec<usize> = (lo..hi)
            .map(|r| naive_hamming(packed.row_words(r), &query))
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&naive);
        for backend in enabled_backends() {
            let hit = sliced
                .scan_min2(backend, &query, None, lo..hi, None, None)
                .unwrap();
            prop_assert_eq!(hit.best, lo + best, "{}", backend.name());
            prop_assert_eq!(hit.best_distance, best_distance);
            prop_assert_eq!(hit.runner_up, runner_up);
        }
    }

    /// Top-k through the transpose equals the row-major ranking under
    /// the shared `(distance, row)` tie-break, at every depth.
    #[test]
    fn bitsliced_top_k_matches_the_rowmajor_ranking(
        c in class_counts(),
        d in dims(),
        seed in any::<u64>(),
        k in 0usize..12,
    ) {
        let (packed, query) = packed_memory(c, d, seed, true);
        let sliced = BitSlicedRows::from_packed(&packed);
        let mut expected: Vec<(usize, usize)> = (0..c)
            .map(|r| (r, naive_hamming(packed.row_words(r), &query)))
            .collect();
        expected.sort_by_key(|&(row, dist)| (dist, row));
        expected.truncate(k);
        for backend in enabled_backends() {
            let mut ranked = Vec::new();
            sliced.top_k_into(backend, &query, 0..c, k, None, &mut ranked);
            prop_assert_eq!(&ranked, &expected, "{} k={}", backend.name(), k);
        }
    }

    /// The scatter contract of [`SharedBound`]: a scan against a bound
    /// pre-tightened by "another worker" either reports exactly the
    /// unshared result or proves its whole slice irrelevant (`None`) —
    /// and it never returns `None` when its slice holds a row at or
    /// under the bound.
    #[test]
    fn shared_bound_never_changes_a_surviving_winner(
        c in class_counts(),
        d in dims(),
        seed in any::<u64>(),
        near in any::<bool>(),
        slack in 0usize..3,
    ) {
        let (packed, query) = packed_memory(c, d, seed, near);
        let sliced = BitSlicedRows::from_packed(&packed);
        let distances: Vec<usize> = (0..c)
            .map(|r| naive_hamming(packed.row_words(r), &query))
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&distances);
        // A bound some other shard could legitimately have published:
        // its own runner-up observation, at or above the global one.
        let published = match runner_up {
            Some(r) => r + slack,
            None => best_distance + slack,
        };
        for backend in enabled_backends() {
            let shared = SharedBound::unbounded();
            shared.tighten(published);
            match sliced.scan_min2(backend, &query, None, 0..c, None, Some(&shared)) {
                Some(hit) => {
                    prop_assert_eq!(hit.best, best, "{}", backend.name());
                    prop_assert_eq!(hit.best_distance, best_distance);
                    // The runner-up may be pruned relative to a foreign
                    // bound, but when reported it is exact.
                    if let Some(r) = hit.runner_up {
                        prop_assert_eq!(Some(r), runner_up);
                    }
                }
                None => prop_assert!(
                    best_distance > published,
                    "{}: dropped a slice holding distance {} under bound {}",
                    backend.name(),
                    best_distance,
                    published
                ),
            }
            // The scan tightened the bound with its own observations,
            // never loosened it.
            prop_assert!(shared.get() <= published, "{}", backend.name());
        }
    }

    /// Online coherence: a transpose kept up to date row by row
    /// (`push_row` on append, `update_row` on rewrite) answers
    /// identically to one rebuilt from scratch after the edits.
    #[test]
    fn online_updates_keep_the_transpose_coherent(
        c in 1usize..150,
        d in dims(),
        seed in any::<u64>(),
        edits in prop::collection::vec((any::<u64>(), 0usize..150, any::<bool>()), 1..12),
    ) {
        let (mut packed, query) = packed_memory(c, d, seed, false);
        let mut live = BitSlicedRows::from_packed(&packed);
        let dim = Dimension::new(d).unwrap();
        for (edit_seed, target, append) in edits {
            let row = Hypervector::random(dim, edit_seed);
            if append {
                packed.push(row.as_bitvec().as_words());
                live.push_row(row.as_bitvec().as_words());
            } else {
                let target = target % packed.len();
                packed.replace(target, row.as_bitvec().as_words());
                live.update_row(target, row.as_bitvec().as_words());
            }
        }
        let rebuilt = BitSlicedRows::from_packed(&packed);
        prop_assert_eq!(live.len(), rebuilt.len());
        let rows = packed.len();
        let naive: Vec<usize> = (0..rows)
            .map(|r| naive_hamming(packed.row_words(r), &query))
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&naive);
        for backend in enabled_backends() {
            for sliced in [&live, &rebuilt] {
                let hit = sliced
                    .scan_min2(backend, &query, None, 0..rows, None, None)
                    .unwrap();
                prop_assert_eq!(hit.best, best, "{}", backend.name());
                prop_assert_eq!(hit.best_distance, best_distance);
                prop_assert_eq!(hit.runner_up, runner_up);
            }
        }
    }
}

/// The pilot-seeded planned path: above the pilot row floor,
/// `scan_min2_planned_sliced` samples a sparse set of row-major
/// distances to seed the group bound before the columnwise pass. The
/// winner's cluster is planted *last*, so every group ahead of it can
/// prune only because of the pilot seed — and the result (winner,
/// distance, runner-up) must still be bit-identical to the naive
/// reference, plain and masked. Deterministic — a 2,560-row world is
/// too slow to shrink for no gain.
#[test]
fn pilot_seeded_planned_scan_stays_exact_and_prunes_leading_clusters() {
    let d = 512usize;
    let c = 2_560usize;
    let dim = Dimension::new(d).unwrap();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(4_242)
    };
    let anchors: Vec<Hypervector> = (0..8u64)
        .map(|i| Hypervector::random(dim, 7_000 + i))
        .collect();
    let mut packed = PackedRows::with_capacity(d, c);
    for i in 0..c {
        // Cluster-major, 320 rows per anchor; the query's home cluster
        // is the eighth (rows 2,240..2,560).
        let row = anchors[i / 320].with_flipped_bits(6, &mut rng);
        packed.push(row.as_bitvec().as_words());
    }
    let sliced = BitSlicedRows::from_packed(&packed);
    let query_hv = anchors[7].with_flipped_bits(4, &mut rng);
    let query = query_hv.as_bitvec().as_words();
    let mask_hv = Hypervector::random(dim, 0x3A5A);
    let mask = mask_hv.as_bitvec().as_words();
    let plain: Vec<usize> = (0..c)
        .map(|r| naive_hamming(packed.row_words(r), query))
        .collect();
    let masked: Vec<usize> = (0..c)
        .map(|r| naive_hamming_masked(packed.row_words(r), query, mask))
        .collect();
    let (best, best_distance, runner_up) = naive_min2(&plain);
    let (mbest, mbest_distance, mrunner_up) = naive_min2(&masked);
    for backend in enabled_backends() {
        let mut counters = ScanCounters::default();
        let hit = packed
            .scan_min2_planned_sliced(
                backend,
                ScanStrategy::BitSliced,
                None,
                Some(&sliced),
                query,
                None,
                0..c,
                Some(&mut counters),
            )
            .unwrap();
        assert_eq!(
            (hit.best, hit.best_distance, hit.runner_up),
            (best, best_distance, runner_up),
            "{}",
            backend.name()
        );
        // Pilot rows are bound-seeding overhead, not traversal: the
        // counters still partition the range.
        assert_eq!(counters.rows_scanned + counters.rows_group_pruned, c as u64);
        // Without the seed, no group ahead of the last cluster could
        // prune (the runner-up stays near the foreign-cluster distance
        // until the home rows are reached); with it, the leading
        // foreign clusters drop on their first word-columns.
        assert!(
            counters.rows_group_pruned >= 1_500,
            "{}: pilot seed failed to prune the leading clusters, got {}",
            backend.name(),
            counters.rows_group_pruned
        );
        let hit = packed
            .scan_min2_planned_sliced(
                backend,
                ScanStrategy::BitSliced,
                None,
                Some(&sliced),
                query,
                Some(mask),
                0..c,
                None,
            )
            .unwrap();
        assert_eq!(
            (hit.best, hit.best_distance, hit.runner_up),
            (mbest, mbest_distance, mrunner_up),
            "{} masked",
            backend.name()
        );
    }
}

/// Deterministic planted-cluster shape big enough for the group bound
/// to actually fire (cluster-major layout, 64-row-aligned clusters):
/// the counters must show group pruning, and the result must still be
/// the naive reference's. Deterministic — shrinking a 512×2048 world
/// would be slow for no gain.
#[test]
fn group_pruning_fires_and_stays_exact_on_clustered_rows() {
    let d = 2_048usize;
    let dim = Dimension::new(d).unwrap();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(99)
    };
    let anchors: Vec<Hypervector> = (0..8u64)
        .map(|i| Hypervector::random(dim, 1_000 + i))
        .collect();
    let mut packed = PackedRows::with_capacity(d, 512);
    for i in 0..512usize {
        // Cluster-major: 64 consecutive rows per anchor, one group each.
        let row = anchors[i / 64].with_flipped_bits(12, &mut rng);
        packed.push(row.as_bitvec().as_words());
    }
    let sliced = BitSlicedRows::from_packed(&packed);
    let query = anchors[3].with_flipped_bits(8, &mut rng);
    let query = query.as_bitvec().as_words();
    let naive: Vec<usize> = (0..512)
        .map(|r| naive_hamming(packed.row_words(r), query))
        .collect();
    let (best, best_distance, runner_up) = naive_min2(&naive);
    for backend in enabled_backends() {
        let mut counters = ScanCounters::default();
        let hit = sliced
            .scan_min2(backend, query, None, 0..512, Some(&mut counters), None)
            .unwrap();
        assert_eq!(
            (hit.best, hit.best_distance, hit.runner_up),
            (best, best_distance, runner_up),
            "{}",
            backend.name()
        );
        assert_eq!(counters.rows_scanned + counters.rows_group_pruned, 512);
        // Clusters ahead of the planted one scan before any tight bound
        // exists; once the winner's group sets the runner-up, every
        // later cluster (at least the four after the planted third one)
        // drops on its first few word-columns.
        assert!(
            counters.rows_group_pruned >= 4 * 64,
            "{}: expected the trailing foreign clusters group-pruned, got {}",
            backend.name(),
            counters.rows_group_pruned
        );
    }
}
