//! Property-based proof that the exact scan plans `Auto` chooses from —
//! the direct scan and the bucket-pruned indexed walk — stay
//! bit-identical to the naive row-major reference on the shapes they
//! are chosen for, on every enabled backend:
//!
//! * near-duplicate memories (planted clusters a few bits wide) with
//!   near and far queries, plain and masked;
//! * dimensions below, at and above one word, with ragged tail words;
//! * top-k rankings under the shared `(distance, row)` tie-break;
//! * online updates: a bucket index kept up to date row by row
//!   ([`BucketIndex::assign_row`]) answers like one rebuilt from
//!   scratch;
//! * adversarial rows: near-duplicates that differ from the query in
//!   one word each, and decoys that copy a long stretch of the query.

use hdc::kernel::PackedRows;
use hdc::prelude::*;
use hdc::{enabled_backends, BucketIndex, IndexBuildOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The naive ranking: every row by `(distance, row)`, cut at `k`.
fn naive_top_k(packed: &PackedRows, query: &[u64], k: usize) -> Vec<(usize, usize)> {
    let mut ranked: Vec<(usize, usize)> = (0..packed.len())
        .map(|r| (r, naive_hamming(packed.row_words(r), query)))
        .collect();
    ranked.sort_by_key(|&(row, distance)| (distance, row));
    ranked.truncate(k);
    ranked
}

/// Dimensions from one bit to 129 words, word-aligned and with ragged
/// tails.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(65usize),
        Just(1_023usize),
        Just(1_024usize),
        Just(1_025usize),
        Just(2_500usize),
        Just(4_096usize),
        Just(4_160usize),
        Just(8_200usize),
        2usize..1_300,
    ]
}

fn words(d: usize, seed: u64) -> Vec<u64> {
    Hypervector::random(Dimension::new(d).unwrap(), seed)
        .as_bitvec()
        .as_words()
        .to_vec()
}

/// A near-duplicate memory: `clusters` random anchors, each member a
/// few bits off its anchor, interleaved so clusters are not row-aligned;
/// plus a query a few bits off one anchor (`near`) or uniformly random.
fn neardup_memory(
    c: usize,
    d: usize,
    clusters: usize,
    seed: u64,
    near: bool,
) -> (PackedRows, Vec<u64>) {
    let dim = Dimension::new(d).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let anchors: Vec<Hypervector> = (0..clusters as u64)
        .map(|a| Hypervector::random(dim, seed ^ (a << 40) ^ 0xA5))
        .collect();
    let flips = (d / 64).max(1);
    let mut packed = PackedRows::with_capacity(d, c);
    for r in 0..c {
        let row = anchors[r % clusters].with_flipped_bits(flips, &mut rng);
        packed.push(row.as_bitvec().as_words());
    }
    let query = match near {
        true => anchors[seed as usize % clusters].with_flipped_bits(flips / 2 + 1, &mut rng),
        false => Hypervector::random(dim, !seed),
    };
    (packed, query.as_bitvec().as_words().to_vec())
}

/// Runs `plan` through `min2`, plain and masked, and holds it to the
/// naive reference.
fn assert_min2_exact(
    packed: &PackedRows,
    plan: &ScanPlan<'_>,
    query: &[u64],
    mask: &[u64],
    what: &str,
) {
    let rows = packed.len();
    let plain: Vec<usize> = (0..rows)
        .map(|r| naive_hamming(packed.row_words(r), query))
        .collect();
    let masked: Vec<usize> = (0..rows)
        .map(|r| naive_hamming_masked(packed.row_words(r), query, mask))
        .collect();
    let hit = packed.min2(plan, query, None, None).unwrap();
    prop_assert_eq!(
        (hit.best, hit.best_distance, hit.runner_up),
        naive_min2(&plain),
        "{}",
        what
    );
    let hit = packed.min2(plan, query, Some(mask), None).unwrap();
    prop_assert_eq!(
        (hit.best, hit.best_distance, hit.runner_up),
        naive_min2(&masked),
        "{} masked",
        what
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact indexed walk reports exactly what the naive reference
    /// reports at any bucket count, plain and masked, and its counters
    /// partition the rows into scanned and pruned.
    #[test]
    fn indexed_min2_matches_the_naive_scan(
        c in 1usize..300,
        d in dims(),
        clusters in 1usize..12,
        buckets in 0usize..24,
        seed in any::<u64>(),
        near in any::<bool>(),
    ) {
        let (packed, query) = neardup_memory(c, d, clusters, seed, near);
        let mask = words(d, seed ^ 0x5A5A);
        let options = IndexBuildOptions { buckets, ..IndexBuildOptions::default() };
        for backend in enabled_backends() {
            let index = BucketIndex::build(&packed, backend, options).unwrap();
            let plan = ScanPlan::new(backend, ScanStrategy::Indexed, Some(&index), c, d);
            prop_assert_eq!(plan.resolved(), ResolvedScan::Indexed { nprobe: None });
            assert_min2_exact(&packed, &plan, &query, &mask, backend.name());
            let mut counters = ScanCounters::default();
            packed.min2(&plan, &query, None, Some(&mut counters)).unwrap();
            prop_assert_eq!(
                counters.rows_scanned + counters.rows_pruned,
                c as u64,
                "{} counters partition the rows",
                backend.name()
            );
            prop_assert!(counters.buckets_probed >= 1);
        }
    }

    /// Every exact plan ranks like the naive reference at every depth,
    /// under the shared `(distance, row)` tie-break.
    #[test]
    fn every_exact_plan_ranks_like_the_naive_reference(
        c in 1usize..200,
        d in dims(),
        clusters in 1usize..8,
        seed in any::<u64>(),
        k in 0usize..12,
    ) {
        let (packed, query) = neardup_memory(c, d, clusters, seed, true);
        let expected = naive_top_k(&packed, &query, k);
        for backend in enabled_backends() {
            let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
            for strategy in [
                ScanStrategy::Direct,
                ScanStrategy::Indexed,
                ScanStrategy::Auto,
            ] {
                let plan = ScanPlan::new(backend, strategy, Some(&index), c, d);
                let mut ranked = Vec::new();
                packed.top_k(&plan, &query, k, &mut ranked, None);
                prop_assert_eq!(&ranked, &expected, "{} {:?} k={}", backend.name(), strategy, k);
            }
        }
    }

    /// Online coherence: an index kept up to date row by row
    /// (`assign_row` after each append or rewrite) answers identically
    /// to one rebuilt from scratch after the edits, and both to the
    /// naive reference.
    #[test]
    fn online_updates_keep_the_index_exact(
        c in 1usize..150,
        d in dims(),
        seed in any::<u64>(),
        edits in prop::collection::vec((any::<u64>(), 0usize..150, any::<bool>()), 1..12),
    ) {
        let (mut packed, query) = neardup_memory(c, d, 4, seed, true);
        let backend = hdc::active_backend();
        let mut live = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let dim = Dimension::new(d).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xED17);
        for (edit_seed, target, append) in &edits {
            // Half the edits copy a stored row's neighbourhood, so
            // buckets grow as well as scatter.
            let row = match edit_seed % 2 {
                0 => Hypervector::random(dim, *edit_seed),
                _ => {
                    let source = packed.row_words(*target % packed.len()).to_vec();
                    let source = Hypervector::from_bitvec(BitVec::from_words(source, d)).unwrap();
                    source.with_flipped_bits(1, &mut rng)
                }
            };
            let row = row.as_bitvec().as_words();
            let at = match append {
                true => packed.push(row),
                false => {
                    let at = target % packed.len();
                    packed.replace(at, row);
                    at
                }
            };
            live.assign_row(&packed, backend, at);
        }
        prop_assert_eq!(live.rows(), packed.len());
        prop_assert_eq!(live.dirty(), edits.len());
        let rebuilt = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let mask = words(d, seed ^ 0x5A5A);
        let rows = packed.len();
        for backend in enabled_backends() {
            for index in [&live, &rebuilt] {
                let plan = ScanPlan::new(backend, ScanStrategy::Indexed, Some(index), rows, d);
                assert_min2_exact(&packed, &plan, &query, &mask, backend.name());
                let mut ranked = Vec::new();
                packed.top_k(&plan, &query, 5, &mut ranked, None);
                prop_assert_eq!(&ranked, &naive_top_k(&packed, &query, 5));
            }
        }
    }
}

/// The indexed walk over an index built on `packed`, at a forced bucket
/// count (0 = the default `⌈√C⌉`), checked against the naive reference.
fn assert_indexed_exact(packed: &PackedRows, query: &[u64], mask: &[u64], buckets: usize) {
    for backend in enabled_backends() {
        let options = IndexBuildOptions {
            buckets,
            ..IndexBuildOptions::default()
        };
        let index = BucketIndex::build(packed, backend, options).unwrap();
        let plan = ScanPlan::new(
            backend,
            ScanStrategy::Indexed,
            Some(&index),
            packed.len(),
            packed.dim(),
        );
        assert_eq!(plan.resolved(), ResolvedScan::Indexed { nprobe: None });
        let what = format!("{} buckets={buckets}", backend.name());
        assert_min2_exact(packed, &plan, query, mask, &what);
        let mut ranked = Vec::new();
        packed.top_k(&plan, query, 5, &mut ranked, None);
        assert_eq!(ranked, naive_top_k(packed, query, 5), "{what}");
    }
}

/// Every row differs from the query in one word only, the word
/// rotating with the row, so all rows sit in one tight cloud around
/// the query and the buckets split it arbitrarily: the triangle bound
/// separates almost nothing. The winner (row 97, 1 bit) and the
/// runner-up (row 3, 2 bits) must still come out exact. Deterministic —
/// the shape is constructed.
#[test]
fn indexed_stays_exact_when_every_row_differs_in_one_word() {
    for d in [1_024usize, 2_500, 4_096, 8_200] {
        let dim = Dimension::new(d).unwrap();
        let query = Hypervector::random(dim, d as u64);
        let query = query.as_bitvec().as_words().to_vec();
        // The last word may be ragged; keep every difference before it.
        let full_words = d / 64;
        let c = 150usize;
        let mut packed = PackedRows::with_capacity(d, c);
        for r in 0..c {
            let mut row = query.clone();
            let spread = match r {
                97 => 1,
                3 => 2,
                _ => 3 + r % 5,
            };
            row[r % full_words] ^= (1u64 << spread) - 1;
            packed.push(&row);
        }
        let distances: Vec<usize> = (0..c)
            .map(|r| naive_hamming(packed.row_words(r), &query))
            .collect();
        assert_eq!(naive_min2(&distances), (97, 1, Some(2)), "d={d}");
        let mask = words(d, 0x77);
        for buckets in [0usize, 1, 40] {
            assert_indexed_exact(&packed, &query, &mask, buckets);
        }
    }
}

/// Decoys copy the query on one 32-word stretch and are random
/// elsewhere, so they share a partial signature the bucket centroids
/// can latch onto, while the winner is 40 bits off in its first word
/// only. The walk must not prune the winner's bucket behind the
/// decoys'. Deterministic.
#[test]
fn indexed_stays_exact_when_decoys_copy_a_stretch_of_the_query() {
    let d = 8_192usize;
    let dim = Dimension::new(d).unwrap();
    let query = Hypervector::random(dim, 0x51DE);
    let query_words = query.as_bitvec().as_words().to_vec();
    let mut rng = StdRng::seed_from_u64(0x51DF);
    let mut packed = PackedRows::with_capacity(d, 200);
    let mut winner = query_words.clone();
    winner[0] ^= (1u64 << 40) - 1;
    for r in 0..200usize {
        let row = match r {
            137 => winner.clone(),
            r if r % 3 == 0 => {
                let mut row = Hypervector::random(dim, 9_000 + r as u64)
                    .as_bitvec()
                    .as_words()
                    .to_vec();
                let start = (r * 7) % (128 - 32);
                row[start..start + 32].copy_from_slice(&query_words[start..start + 32]);
                row
            }
            _ => query
                .with_flipped_bits(200 + r, &mut rng)
                .as_bitvec()
                .as_words()
                .to_vec(),
        };
        packed.push(&row);
    }
    let distances: Vec<usize> = (0..200)
        .map(|r| naive_hamming(packed.row_words(r), &query_words))
        .collect();
    let expected = naive_min2(&distances);
    assert_eq!(expected.0, 137);
    assert_eq!(expected.1, 40);
    let mask = words(d, 0x3A5A);
    for buckets in [0usize, 4, 67] {
        assert_indexed_exact(&packed, &query_words, &mask, buckets);
    }
}

/// Planted clusters big enough for the radius bound to fire: the
/// indexed walk's counters must show pruned rows, and the result must
/// still be the naive reference's, plain and masked, on every backend.
/// Deterministic — shrinking a 512 × 2,048 world would be slow for no
/// gain.
#[test]
fn index_pruning_fires_and_stays_exact_on_clustered_rows() {
    let d = 2_048usize;
    let dim = Dimension::new(d).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let anchors: Vec<Hypervector> = (0..8u64)
        .map(|i| Hypervector::random(dim, 1_000 + i))
        .collect();
    let mut packed = PackedRows::with_capacity(d, 512);
    for i in 0..512usize {
        let row = anchors[i % 8].with_flipped_bits(12, &mut rng);
        packed.push(row.as_bitvec().as_words());
    }
    let query = anchors[3].with_flipped_bits(8, &mut rng);
    let query = query.as_bitvec().as_words();
    let mask = words(d, 0x3A5A);
    for backend in enabled_backends() {
        let options = IndexBuildOptions {
            buckets: 8,
            ..IndexBuildOptions::default()
        };
        let index = BucketIndex::build(&packed, backend, options).unwrap();
        assert!(index.stats().pruning_friendly(d), "{:?}", index.stats());
        let plan = ScanPlan::new(backend, ScanStrategy::Auto, Some(&index), 512, d);
        assert_eq!(plan.resolved(), ResolvedScan::Indexed { nprobe: None });
        assert_min2_exact(&packed, &plan, query, &mask, backend.name());
        let mut counters = ScanCounters::default();
        packed.min2(&plan, query, None, Some(&mut counters));
        assert_eq!(counters.rows_scanned + counters.rows_pruned, 512);
        // Eight clusters of 64; the build may merge a pair into one
        // bucket, but most foreign clusters must drop on their bound.
        assert!(
            counters.rows_pruned >= 256,
            "{}: the foreign clusters should prune, got {counters:?}",
            backend.name()
        );
        assert_eq!(counters.rows_group_pruned, 0);
    }
}

/// `Auto` stays exact whichever plan it resolves to: separated
/// clusters and near-duplicates (Indexed) and uniform rows (Direct),
/// plain and masked, on every backend.
#[test]
fn auto_stays_exact_on_every_geometry_it_resolves() {
    let d = 1_024usize;
    let dim = Dimension::new(d).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA070);
    let separated: Vec<Hypervector> = {
        let centers: Vec<Hypervector> = (0..16u64)
            .map(|i| Hypervector::random(dim, 50 + i))
            .collect();
        (0..512)
            .map(|i| centers[i % 16].with_flipped_bits(3, &mut rng))
            .collect()
    };
    let neardup: Vec<Hypervector> = {
        let base = Hypervector::random(dim, 60);
        let centers: Vec<Hypervector> = (0..61)
            .map(|_| base.with_flipped_bits(24, &mut rng))
            .collect();
        (0..512)
            .map(|i| centers[i % 61].with_flipped_bits(1, &mut rng))
            .collect()
    };
    let uniform: Vec<Hypervector> = (0..512u64)
        .map(|i| Hypervector::random(dim, 70_000 + i))
        .collect();
    let mask = words(d, 0x3A5A);
    for (rows, resolved) in [
        (&separated, ResolvedScan::Indexed { nprobe: None }),
        (&neardup, ResolvedScan::Indexed { nprobe: None }),
        (&uniform, ResolvedScan::Direct),
    ] {
        let mut packed = PackedRows::with_capacity(d, rows.len());
        for row in rows {
            packed.push(row.as_bitvec().as_words());
        }
        for backend in enabled_backends() {
            let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
            let plan = ScanPlan::new(backend, ScanStrategy::Auto, Some(&index), rows.len(), d);
            assert_eq!(plan.resolved(), resolved, "{:?}", index.stats());
            for probe in [3usize, 200, 511] {
                let query = rows[probe].with_flipped_bits(5, &mut rng);
                let what = format!("{} {resolved:?} probe {probe}", backend.name());
                assert_min2_exact(&packed, &plan, query.as_bitvec().as_words(), &mask, &what);
            }
        }
    }
}
