//! Online-update coherence of every exact scan plan: a versioned memory
//! whose strategy is pinned to Direct or Indexed, updated
//! through [`OnlineUpdater`] delta publishes, must after every epoch
//! keep its strategy and answer bit-identically to a plain serial
//! mirror. Adds append into the tail chunk, replaces re-assign only the
//! touched row in the bucket index, retires renumber the rows and drop
//! the index unless an index policy rebuilds it in the same publish.

use std::sync::Arc;

use ham_core::explore::random_memory;
use ham_core::shard::{OnlineUpdater, VersionedMemory};
use ham_core::IndexPolicy;
use hdc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The exact strategies a served memory can be pinned to, with the
/// traversal each resolves to on an indexed version.
const PINNED: [(ScanStrategy, ResolvedScan); 2] = [
    (ScanStrategy::Direct, ResolvedScan::Direct),
    (
        ScanStrategy::Indexed,
        ResolvedScan::Indexed { nprobe: None },
    ),
];

/// Keeps every version indexed from four rows on.
fn small_policy() -> IndexPolicy {
    IndexPolicy {
        min_rows: 4,
        ..IndexPolicy::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adds, replaces and retires through an index-maintaining updater:
    /// every epoch's answer and top-3 ranking are the serial mirror's,
    /// and the version keeps its pinned strategy and resolved plan.
    #[test]
    fn online_updates_keep_every_exact_plan_coherent_across_epochs(
        classes in 8usize..20,
        pinned in 0usize..2,
        seed in any::<u64>(),
    ) {
        let (strategy, resolved) = PINNED[pinned];
        let dim = Dimension::new(320).unwrap();
        let mut mirror = random_memory(classes, 320, seed).with_scan_strategy(ScanStrategy::Direct);
        let served = random_memory(classes, 320, seed).with_scan_strategy(strategy);
        let versioned = Arc::new(VersionedMemory::new(served));
        let updater =
            OnlineUpdater::new(Arc::clone(&versioned)).with_index_policy(small_policy());
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
            prop_assert_eq!(version.scan_strategy(), strategy, "publishes keep the pin");
            prop_assert_eq!(version.resolved_strategy(), resolved);
            prop_assert_eq!(version.rows(), mirror.len(), "no lost rows");
            prop_assert_eq!(
                version.memory().search(&probe).unwrap(),
                mirror.search(&probe).unwrap()
            );
            prop_assert_eq!(
                version.memory().search_top_k(&probe, 3).unwrap(),
                mirror.search_top_k(&probe, 3).unwrap()
            );
        }
    }

    /// On an indexed near-duplicate version, a counted search accounts
    /// for every row exactly once, scanned or pruned, and walks at least
    /// one bucket across delta publishes, and its answer stays the
    /// serial mirror's.
    #[test]
    fn indexed_version_counters_partition_the_rows(
        seed in any::<u64>(),
    ) {
        let dimension = 2_048usize;
        let dim = Dimension::new(dimension).unwrap();
        // Four anchors, 24 members each a few bits off their anchor.
        let mut mirror = AssociativeMemory::new(dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let anchors: Vec<Hypervector> = (0..4u64)
            .map(|a| Hypervector::random(dim, seed ^ (0xA0 + a)))
            .collect();
        for (c, anchor) in anchors.iter().enumerate() {
            for m in 0..24 {
                let hv = anchor.with_flipped_bits(dimension / 64, &mut rng);
                mirror.insert(format!("c{c}-{m}"), hv).unwrap();
            }
        }
        let mut served = mirror.clone().with_scan_strategy(ScanStrategy::Indexed);
        served.build_index(hdc::IndexBuildOptions::default());
        let versioned = Arc::new(VersionedMemory::new(served));
        let updater =
            OnlineUpdater::new(Arc::clone(&versioned)).with_index_policy(small_policy());

        for step in 0..4usize {
            let anchor = &anchors[(seed as usize + step) % anchors.len()];
            let hv = anchor.with_flipped_bits(dimension / 64, &mut rng);
            if step % 2 == 0 {
                let target = ClassId(step * 23 % mirror.len());
                mirror.replace_row(target, hv.clone()).unwrap();
                updater.rethreshold_row(target, hv).unwrap();
            } else {
                mirror.insert(format!("late-{step}"), hv.clone()).unwrap();
                updater.add_class(format!("late-{step}"), hv).unwrap();
            }
            let version = versioned.load();
            prop_assert_eq!(
                version.resolved_strategy(),
                ResolvedScan::Indexed { nprobe: None }
            );
            let probe = anchor.with_flipped_bits(dimension / 128, &mut rng);
            let (hit, scan) = version.memory().search_counted(&probe).unwrap();
            prop_assert_eq!(hit, mirror.search(&probe).unwrap());
            prop_assert_eq!(
                scan.rows_scanned + scan.rows_pruned,
                version.rows() as u64,
                "epoch {}: every row is accounted once",
                version.epoch()
            );
            prop_assert!(scan.buckets_probed >= 1, "the walk visits a bucket");
            prop_assert_eq!(scan.rows_group_pruned, 0);
        }
    }
}

/// A replace re-assigns only the replaced row in the published index:
/// every other row keeps its bucket, the index's dirty count grows by
/// one, and the version published before the replace still holds the
/// old index — the index obeys the same copy-on-write discipline as the
/// row chunks.
#[test]
fn a_replace_reassigns_only_its_row_and_leaves_the_old_index_alone() {
    let memory = random_memory(200, 256, 17).with_scan_strategy(ScanStrategy::Indexed);
    let policy = IndexPolicy {
        min_rows: 16,
        max_dirty_percent: 50,
        ..IndexPolicy::default()
    };
    let versioned = Arc::new(VersionedMemory::new(memory));
    let updater = OnlineUpdater::new(Arc::clone(&versioned)).with_index_policy(policy);
    // The first publish builds the index under the policy.
    let first = Hypervector::random(versioned.load().dim(), 4_241);
    updater.rethreshold_row(ClassId(0), first).unwrap();
    let before = versioned.load();
    let old = before.index().expect("the policy indexes the version");
    let old_dirty = old.dirty();

    // Row 70 takes row 5's contents, so it lands in row 5's bucket.
    let copied = before.memory().row(ClassId(5)).unwrap().clone();
    updater
        .rethreshold_row(ClassId(70), copied.clone())
        .unwrap();
    let after = versioned.load();
    let new = after.index().expect("the replace keeps the index");

    assert_eq!(new.dirty(), old_dirty + 1, "one incremental assignment");
    assert_eq!(new.bucket_of(70), new.bucket_of(5));
    for row in (0..200).filter(|&row| row != 70) {
        assert_eq!(new.bucket_of(row), old.bucket_of(row), "row {row} moved");
    }
    assert_eq!(
        before.index().unwrap().dirty(),
        old_dirty,
        "old version untouched"
    );
    assert_eq!(
        after.resolved_strategy(),
        ResolvedScan::Indexed { nprobe: None }
    );
    // The two identical rows tie; the lower index wins.
    let hit = after.memory().search(&copied).unwrap();
    assert_eq!(hit.class, ClassId(5));
    assert_eq!(hit.distance.as_usize(), 0);
    assert_eq!(hit.runner_up.map(|d| d.as_usize()), Some(0));
}

/// A retire renumbers the rows, so the published version drops the
/// bucket index; under an index policy the same publish rebuilds a
/// clean one. Either way the pinned strategy survives, the indexed pin
/// falls back to the direct scan only while no index is attached, and
/// the answers are the serial mirror's.
#[test]
fn a_retire_drops_the_index_unless_the_policy_rebuilds_it() {
    let memory = random_memory(64, 512, 29).with_scan_strategy(ScanStrategy::Indexed);
    let dim = memory.dim();
    let probe = Hypervector::random(dim, 2_929);
    let mut mirror = AssociativeMemory::new(dim);
    for (id, label, hv) in memory.iter() {
        if id != ClassId(10) {
            mirror.insert(label, hv.clone()).unwrap();
        }
    }
    for policy in [None, Some(small_policy())] {
        let mut indexed = memory.clone();
        indexed.build_index(hdc::IndexBuildOptions::default());
        let versioned = Arc::new(VersionedMemory::new(indexed));
        let mut updater = OnlineUpdater::new(Arc::clone(&versioned));
        if let Some(policy) = policy {
            updater = updater.with_index_policy(policy);
        }
        updater.retire_class(ClassId(10)).unwrap();
        let version = versioned.load();
        assert_eq!(version.rows(), 63);
        assert_eq!(version.scan_strategy(), ScanStrategy::Indexed);
        match policy {
            None => {
                assert!(version.index().is_none(), "renumbered rows drop the index");
                assert_eq!(version.resolved_strategy(), ResolvedScan::Direct);
            }
            Some(_) => {
                let index = version.index().expect("the policy rebuilds the index");
                assert_eq!(index.rows(), 63);
                assert_eq!(index.dirty(), 0, "a rebuild starts clean");
                assert_eq!(
                    version.resolved_strategy(),
                    ResolvedScan::Indexed { nprobe: None }
                );
            }
        }
        assert_eq!(
            version.memory().search(&probe).unwrap(),
            mirror.search(&probe).unwrap(),
            "{policy:?}"
        );
        assert_eq!(
            version.memory().search_top_k(&probe, 4).unwrap(),
            mirror.search_top_k(&probe, 4).unwrap(),
            "{policy:?}"
        );
    }
}
