//! The bucket-index contract (PR 7): for *every* enabled distance
//! backend, exact indexed scans — plain, masked, and top-k,
//! word-multiple and ragged dimensions alike — are **bit-identical** to
//! the fused linear kernel, the probe mode degenerates to exact when it
//! probes every bucket, and online updates through an
//! [`OnlineUpdater`] with an index policy keep bucket membership
//! coherent across epoch publishes: no torn reads, no lost rows, every
//! radius bound intact.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ham_core::explore::random_memory;
use ham_core::shard::{OnlineUpdater, VersionedMemory};
use ham_core::IndexPolicy;
use hdc::prelude::*;
use hdc::{enabled_backends, BucketIndex, IndexBuildOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A memory whose rows mix tight clusters (where pruning bites) with
/// uniform noise (where the fallback must stay exact) — the adversarial
/// blend for an exactness proptest.
fn mixed_memory(classes: usize, dim: usize, seed: u64) -> AssociativeMemory {
    let dimension = Dimension::new(dim).unwrap();
    let mut memory = AssociativeMemory::new(dimension);
    let mut rng = StdRng::seed_from_u64(seed);
    let anchors: Vec<Hypervector> = (0..3)
        .map(|a| Hypervector::random(dimension, seed ^ (0xA0 + a)))
        .collect();
    for c in 0..classes {
        let hv = if c % 2 == 0 {
            anchors[c % anchors.len()].with_flipped_bits((dim / 20).max(1), &mut rng)
        } else {
            Hypervector::random(dimension, seed ^ (0x1000 + c as u64))
        };
        memory.insert(format!("c{c}"), hv).unwrap();
    }
    memory
}

/// Every member row sits in exactly one bucket, within its bucket's
/// radius, and the membership covers the whole matrix — the invariants
/// the triangle-bound pruning proof rests on.
fn assert_index_coherent(memory: &AssociativeMemory) {
    let index = memory.index().expect("memory must be indexed");
    let packed = memory.packed_rows();
    let backend = hdc::active_backend();
    let dim = packed.dim();
    assert_eq!(index.rows(), packed.len(), "index covers every row");
    let mut covered = 0usize;
    for bucket in 0..index.buckets() {
        for &row in index.members(bucket) {
            let row = row as usize;
            assert_eq!(index.bucket_of(row), bucket, "assignment matches members");
            let distance = backend
                .bounded_distance(
                    index.centroids().row_words(bucket),
                    packed.row_words(row),
                    dim,
                )
                .expect("bound = dim admits every distance");
            assert!(
                distance <= index.radii()[bucket],
                "row {row} at distance {distance} breaches bucket {bucket} radius {}",
                index.radii()[bucket]
            );
            covered += 1;
        }
    }
    assert_eq!(covered, packed.len(), "no lost rows");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact indexed ≡ linear for every backend × {plain, masked,
    /// top-k}, including non-word-multiple dimensions, plus the counter
    /// invariant `scanned + pruned = rows`.
    #[test]
    fn exact_indexed_matches_linear_on_every_backend(
        classes in 1usize..40,
        dim in 65usize..900,
        seed in any::<u64>(),
    ) {
        let memory = mixed_memory(classes, dim, seed);
        let packed = memory.packed_rows();
        let rows = packed.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1D);
        let queries = [
            memory.row(ClassId(seed as usize % classes)).unwrap().clone(),
            memory
                .row(ClassId((seed as usize + 1) % classes))
                .unwrap()
                .with_flipped_bits((dim / 8).max(1), &mut rng),
            Hypervector::random(memory.dim(), seed ^ 0xF00D),
        ];
        let mask = SampleMask::keep_random(memory.dim(), (dim / 2).max(1), seed ^ 7).unwrap();
        let mask_words = mask.as_bitvec().as_words();

        for backend in enabled_backends() {
            let index = BucketIndex::build(packed, backend, IndexBuildOptions::default())
                .expect("non-empty matrix builds");
            let plan = |strategy| ScanPlan::new(backend, strategy, Some(&index), rows, dim);
            let indexed_plan = plan(ScanStrategy::Indexed);
            let linear_plan = plan(ScanStrategy::Direct);
            for query in &queries {
                let words = query.as_bitvec().as_words();

                // Plain full-range scan, with the counter invariant.
                let mut counters = ScanCounters::default();
                let indexed = packed.min2(&indexed_plan, words, None, Some(&mut counters));
                let linear = packed.min2(&linear_plan, words, None, None);
                prop_assert_eq!(indexed, linear, "plain scan ({})", backend.name());
                prop_assert_eq!(
                    counters.rows_scanned + counters.rows_pruned,
                    rows as u64,
                    "every row is scanned or provably pruned"
                );

                // Masked scan: the full-dimension radius stays sound
                // under any mask.
                let masked_indexed = packed.min2(&indexed_plan, words, Some(mask_words), None);
                let masked_linear = packed.min2(&linear_plan, words, Some(mask_words), None);
                prop_assert_eq!(masked_indexed, masked_linear, "masked scan ({})", backend.name());

                // Top-k ranking under the shared (distance, row)
                // tie-break, across the k edge cases.
                for k in [0, 1, classes / 2, classes, classes + 3] {
                    let mut via_index = Vec::new();
                    let mut via_linear = Vec::new();
                    packed.top_k(&indexed_plan, words, k, &mut via_index, None);
                    packed.top_k(&linear_plan, words, k, &mut via_linear, None);
                    prop_assert_eq!(&via_index, &via_linear, "top-{} ({})", k, backend.name());
                }

                // Probing every bucket is the exact walk by another name.
                let probe_all = plan(ScanStrategy::Probe { nprobe: index.buckets() });
                let probed = packed.min2(&probe_all, words, None, None);
                prop_assert_eq!(probed, linear, "probe-all ({})", backend.name());
            }
        }
    }

    /// Online updates through an index-maintaining updater: after every
    /// epoch publish the published version's indexed search matches a
    /// plain serial mirror bit-for-bit and the published index is
    /// coherent.
    #[test]
    fn online_updates_keep_buckets_coherent_across_epochs(
        classes in 8usize..20,
        seed in any::<u64>(),
    ) {
        let dim = Dimension::new(320).unwrap();
        let mut mirror = random_memory(classes, 320, seed);
        let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
        let policy = IndexPolicy { min_rows: 4, ..IndexPolicy::default() };
        let updater = OnlineUpdater::new(Arc::clone(&versioned)).with_index_policy(policy);
        let probe = Hypervector::random(dim, seed ^ 0xCAFE);

        for step in 0..8u64 {
            match step % 3 {
                0 => {
                    let hv = Hypervector::random(dim, seed ^ (step + 1));
                    mirror.insert(format!("new-{step}"), hv.clone()).unwrap();
                    updater.add_class(format!("new-{step}"), hv).unwrap();
                }
                1 => {
                    let retired = ClassId(step as usize % mirror.len());
                    let mut survivor = AssociativeMemory::new(dim);
                    for (id, label, hv) in mirror.iter() {
                        if id != retired {
                            survivor.insert(label, hv.clone()).unwrap();
                        }
                    }
                    mirror = survivor;
                    updater.retire_class(retired).unwrap();
                }
                _ => {
                    let target = ClassId(step as usize % mirror.len());
                    let hv = Hypervector::random(dim, seed ^ (step + 77));
                    mirror.replace_row(target, hv.clone()).unwrap();
                    updater.rethreshold_row(target, hv).unwrap();
                }
            }
            let version = versioned.load();
            assert_index_coherent(version.memory());
            prop_assert_eq!(version.memory().len(), mirror.len(), "no lost rows");
            prop_assert_eq!(
                version.memory().search(&probe).unwrap(),
                mirror.search(&probe).unwrap()
            );
            // Per-row identity — membership reshuffles never lose or
            // duplicate a row.
            for (class, label, hv) in mirror.iter() {
                prop_assert_eq!(version.memory().label(class), Some(label));
                prop_assert_eq!(version.memory().row(class), Some(hv));
            }
        }
    }
}

/// Readers hammering an indexed versioned memory while an
/// index-maintaining updater publishes must only ever observe results
/// some *published* version would produce serially — the indexed
/// analogue of the versioned-memory torn-read test.
#[test]
fn concurrent_indexed_readers_never_observe_torn_state() {
    let memory = random_memory(12, 512, 91);
    let dim = memory.dim();
    let versioned = Arc::new(VersionedMemory::new(memory.clone()));
    let policy = IndexPolicy {
        min_rows: 4,
        ..IndexPolicy::default()
    };
    let updater = OnlineUpdater::new(Arc::clone(&versioned)).with_index_policy(policy);
    let probe = Hypervector::random(dim, 777);
    let publishes = 16;

    let fingerprint = |r: &SearchResult| {
        (
            r.class.0,
            r.distance.as_usize(),
            r.runner_up.map(|d| d.as_usize()),
        )
    };
    let mut expected: HashSet<(usize, usize, Option<usize>)> = HashSet::new();
    expected.insert(fingerprint(&memory.search(&probe).unwrap()));

    let done = Arc::new(AtomicBool::new(false));
    let observations: Vec<(usize, usize, Option<usize>)> = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            let versioned = Arc::clone(&versioned);
            let done = Arc::clone(&done);
            let probe = probe.clone();
            readers.push(scope.spawn(move || {
                let mut seen = Vec::new();
                loop {
                    let hit = versioned.load().memory().search(&probe).unwrap();
                    seen.push((
                        hit.class.0,
                        hit.distance.as_usize(),
                        hit.runner_up.map(|d| d.as_usize()),
                    ));
                    if done.load(Ordering::Relaxed) {
                        break seen;
                    }
                }
            }));
        }

        for i in 0..publishes {
            let hv = Hypervector::random(dim, 20_000 + i);
            updater.add_class(format!("live-{i}"), hv).unwrap();
            let version = versioned.load();
            assert_index_coherent(version.memory());
            expected.insert(fingerprint(&version.memory().search(&probe).unwrap()));
        }
        done.store(true, Ordering::Relaxed);
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    });

    assert!(!observations.is_empty());
    for observed in &observations {
        assert!(
            expected.contains(observed),
            "observed {observed:?} matches no published version"
        );
    }
    assert_eq!(versioned.current_epoch(), publishes);
}

/// An indexed version reports the counter invariant end to end: across
/// index-maintaining publishes, a counted search's scanned and pruned
/// rows partition the row count and the answer stays the mirror's; an
/// unindexed version reports a plain full scan.
#[test]
fn indexed_version_counters_partition_the_rows() {
    // Strategy pinned: uniform rows would make `Auto` pick the direct
    // scan, and the bucket walk's accounting is what's under test.
    let mut mirror = random_memory(64, 1_000, 33).with_scan_strategy(ScanStrategy::Indexed);
    let dim = mirror.dim();
    let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
    let policy = IndexPolicy {
        min_rows: 16,
        ..IndexPolicy::default()
    };
    let updater = OnlineUpdater::new(Arc::clone(&versioned)).with_index_policy(policy);

    for step in 0..6u64 {
        if step % 2 == 0 {
            let hv = Hypervector::random(dim, 3_000 + step);
            mirror.insert(format!("grow-{step}"), hv.clone()).unwrap();
            updater.add_class(format!("grow-{step}"), hv).unwrap();
        } else {
            let target = ClassId(step as usize * 7);
            let hv = Hypervector::random(dim, 4_000 + step);
            mirror.replace_row(target, hv.clone()).unwrap();
            updater.rethreshold_row(target, hv).unwrap();
        }
        let version = versioned.load();
        assert!(
            version.index().is_some(),
            "the policy keeps the version indexed"
        );
        assert_eq!(
            version.resolved_strategy(),
            ResolvedScan::Indexed { nprobe: None }
        );
        let query = Hypervector::random(dim, 4_444 + step);
        let (hit, scan) = version.memory().search_counted(&query).unwrap();
        assert_eq!(hit, mirror.search(&query).unwrap());
        assert_eq!(
            scan.rows_scanned + scan.rows_pruned,
            version.rows() as u64,
            "epoch {}: every row is scanned or pruned exactly once",
            version.epoch()
        );
        assert!(scan.buckets_probed > 0, "centroid scan is accounted");
    }

    // Without an index policy the version is a plain full scan.
    let plain = VersionedMemory::new(random_memory(64, 1_000, 34));
    let query = Hypervector::random(dim, 4_445);
    let (_, scan) = plain.load().memory().search_counted(&query).unwrap();
    assert_eq!(scan.rows_scanned, 64);
    assert_eq!(scan.rows_pruned, 0);
    assert_eq!(scan.buckets_probed, 0);
}
