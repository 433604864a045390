//! Online-update retranspose coherence (the bit-sliced twin of
//! `index_equivalence.rs`): a versioned memory serving the bit-sliced
//! traversal through [`OnlineUpdater`] delta publishes must, after
//! every epoch, answer bit-identically to a plain serial mirror — adds
//! append into the tail group, replaces retranspose only the touched
//! group, retires rebuild the renumbered transpose.

use std::sync::Arc;

use ham_core::explore::random_memory;
use ham_core::shard::{OnlineUpdater, VersionedMemory};
use hdc::prelude::*;
use hdc::BitSlicedRows;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A memory serving the bit-sliced traversal: mirror attached, strategy
/// pinned (no Auto gate — the coherence contract is what's under test,
/// not the decision rule).
fn bitsliced_memory(classes: usize, dim: usize, seed: u64) -> AssociativeMemory {
    let mut memory = random_memory(classes, dim, seed);
    memory.build_sliced();
    memory.set_scan_strategy(ScanStrategy::BitSliced);
    memory
}

/// The version's mirror answers exactly like a transpose rebuilt from
/// scratch over the materialized rows — no stale group survives a
/// publish.
fn assert_mirror_coherent(version: &ham_core::shard::MemoryVersion, probe: &Hypervector) {
    let sliced = version.sliced().expect("version carries the mirror");
    assert_eq!(sliced.len(), version.rows(), "mirror covers every row");
    let rebuilt = BitSlicedRows::from_packed(version.memory().packed_rows());
    let words = probe.as_bitvec().as_words();
    let backend = hdc::active_backend();
    let rows = version.rows();
    let live = sliced.scan_min2(backend, words, None, 0..rows, None, None);
    let fresh = rebuilt.scan_min2(backend, words, None, 0..rows, None, None);
    assert_eq!(live, fresh, "live mirror ≡ rebuilt transpose");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adds, replaces, and retires through the updater keep the
    /// published transpose coherent: every epoch's answer is the serial
    /// mirror's answer, and the version's resolved strategy
    /// stays bit-sliced throughout.
    #[test]
    fn online_updates_keep_the_transpose_coherent_across_epochs(
        classes in 8usize..20,
        seed in any::<u64>(),
    ) {
        let dim = Dimension::new(320).unwrap();
        let mut mirror = bitsliced_memory(classes, 320, seed);
        let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
        let updater = OnlineUpdater::new(Arc::clone(&versioned));
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
                    survivor.build_sliced();
                    survivor.set_scan_strategy(ScanStrategy::BitSliced);
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
            prop_assert_eq!(
                version.resolved_strategy(),
                ResolvedScan::BitSliced,
                "publishes never lose the mirror"
            );
            assert_mirror_coherent(&version, &probe);
            prop_assert_eq!(version.rows(), mirror.len(), "no lost rows");
            prop_assert_eq!(
                version.memory().search(&probe).unwrap(),
                mirror.search(&probe).unwrap()
            );
        }
    }

    /// On a clustered bit-sliced version, a counted search partitions
    /// every row into scanned vs group-pruned across delta publishes
    /// (replaces retranspose one group, adds grow the tail group) and
    /// stays bit-identical to the serial mirror.
    #[test]
    fn bitsliced_version_counters_partition_the_rows(
        seed in any::<u64>(),
    ) {
        let dim = Dimension::new(512).unwrap();
        let dimension = 512usize;
        // Clustered rows so the group bound actually prunes: four
        // anchors, 24 noisy members each, cluster-major.
        let mut mirror = AssociativeMemory::new(dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let anchors: Vec<Hypervector> = (0..4u64)
            .map(|a| Hypervector::random(dim, seed ^ (0xA0 + a)))
            .collect();
        for (c, anchor) in anchors.iter().enumerate() {
            for m in 0..24 {
                let hv = anchor.with_flipped_bits((dimension / 32).max(1), &mut rng);
                mirror.insert(format!("c{c}-{m}"), hv).unwrap();
            }
        }
        mirror.build_sliced();
        mirror.set_scan_strategy(ScanStrategy::BitSliced);
        let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
        let updater = OnlineUpdater::new(Arc::clone(&versioned));

        for step in 0..4usize {
            let anchor = &anchors[(seed as usize + step) % anchors.len()];
            let hv = anchor.with_flipped_bits((dimension / 32).max(1), &mut rng);
            if step % 2 == 0 {
                let target = ClassId(step * 23 % mirror.len());
                mirror.replace_row(target, hv.clone()).unwrap();
                updater.rethreshold_row(target, hv).unwrap();
            } else {
                mirror.insert(format!("late-{step}"), hv.clone()).unwrap();
                updater.add_class(format!("late-{step}"), hv).unwrap();
            }
            let version = versioned.load();
            prop_assert_eq!(version.resolved_strategy(), ResolvedScan::BitSliced);
            let probe = anchor.with_flipped_bits((dimension / 64).max(1), &mut rng);
            let (hit, scan) = version.memory().search_counted(&probe).unwrap();
            prop_assert_eq!(hit, mirror.search(&probe).unwrap());
            prop_assert_eq!(
                scan.rows_scanned + scan.rows_group_pruned,
                version.rows() as u64,
                "epoch {}: every row is scanned or group-pruned exactly once",
                version.epoch()
            );
            prop_assert_eq!(scan.rows_pruned, 0, "no bucket index in play");
        }
    }
}

/// Delta publishes retranspose only the groups an op dirtied: after an
/// in-place replace, every 64-row group except the touched one is the
/// *same allocation* across the old and new version's mirrors — the
/// transpose obeys the same chunk-granular copy-on-write discipline as
/// the row chunks.
#[test]
fn replace_retransposes_only_the_dirty_group() {
    let memory = bitsliced_memory(200, 256, 17);
    let dim = memory.dim();
    let versioned = Arc::new(VersionedMemory::new(memory));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let before = versioned.load();

    // Row 70 lives in group 1 (rows 64..128).
    let hv = Hypervector::random(dim, 4_242);
    updater.rethreshold_row(ClassId(70), hv).unwrap();
    let after = versioned.load();

    let old = before.sliced().expect("mirror before");
    let new = after.sliced().expect("mirror after");
    assert_eq!(old.group_count(), new.group_count());
    for group in 0..new.group_count() {
        let shared = old.group_shares_allocation(new, group);
        if group == 1 {
            assert!(!shared, "the dirtied group was retransposed");
        } else {
            assert!(
                shared,
                "untouched group {group} still shares its allocation"
            );
        }
    }
}
