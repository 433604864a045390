//! The versioned-memory contract: online updates through an
//! [`OnlineUpdater`] publish versions that match a serial mirror
//! bit-for-bit, refused updates publish nothing, pinned versions outlive
//! publishes and retire when released, and readers racing an updater
//! always observe exactly one published version. Also covered: chunk
//! boundaries and ties across chunks, the whole-copy and delta paths
//! agreeing, per-chunk epoch stamps and the row patches built from them,
//! lazy materialization, serialized concurrent updaters, and checkpoints.

use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ham_core::explore::random_memory;
use ham_core::resilience::load_snapshot;
use ham_core::shard::{MemoryVersion, OnlineUpdater, UpdateOp, VersionedMemory, CHUNK_ROWS};
use ham_core::{HamError, IndexPolicy};
use hdc::prelude::*;
use proptest::prelude::*;

/// `memory` without the row of `retired`; rows past it shift down by one.
fn without(memory: &AssociativeMemory, retired: ClassId) -> AssociativeMemory {
    let mut survivor = AssociativeMemory::new(memory.dim());
    for (id, label, hv) in memory.iter() {
        if id != retired {
            survivor.insert(label, hv.clone()).unwrap();
        }
    }
    survivor
}

/// Applies one op to a plain memory — the serial reference.
fn apply_to_mirror(mirror: &mut AssociativeMemory, op: &UpdateOp) -> Result<(), HamError> {
    match op {
        UpdateOp::Add { label, hv } => {
            mirror.insert(label.clone(), hv.clone())?;
        }
        UpdateOp::Replace { class, hv } => mirror.replace_row(*class, hv.clone())?,
        UpdateOp::Retire { class } => *mirror = without(mirror, *class),
    }
    Ok(())
}

/// A seeded op against a memory of `rows` rows: add, retire (never the
/// last row) or re-threshold.
fn seeded_op(dim: Dimension, rows: usize, seed: u64, step: u64) -> UpdateOp {
    let pick = seed.rotate_left(step as u32 * 7) ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let class = ClassId((pick >> 8) as usize % rows);
    match pick % 3 {
        0 => UpdateOp::Add {
            label: format!("op-{step}"),
            hv: Hypervector::random(dim, seed ^ (step + 1)),
        },
        1 if rows > 1 => UpdateOp::Retire { class },
        _ => UpdateOp::Replace {
            class,
            hv: Hypervector::random(dim, seed ^ (step + 501)),
        },
    }
}

/// The version stores exactly the mirror's labels and rows, in order,
/// read from its chunks (no materialization), and its chunks are full
/// except for a nonempty tail.
fn assert_matches_mirror(version: &MemoryVersion, mirror: &AssociativeMemory) {
    assert_eq!(version.rows(), mirror.len(), "row count");
    assert_eq!(version.dim(), mirror.dim(), "space");
    let stored: Vec<(&str, &[u64])> = version.records().collect();
    let expected: Vec<(&str, &[u64])> = mirror
        .iter_words()
        .map(|(_, label, words)| (label, words))
        .collect();
    assert_eq!(stored, expected, "records follow the mirror");
    let chunks = version.chunks();
    assert_eq!(
        chunks.len(),
        mirror.len().div_ceil(CHUNK_ROWS),
        "chunk count"
    );
    assert_eq!(
        version.chunk_epochs().len(),
        chunks.len(),
        "one stamp per chunk"
    );
    for (i, chunk) in chunks.iter().enumerate() {
        if i + 1 < chunks.len() {
            assert_eq!(chunk.len(), CHUNK_ROWS, "chunk {i} is full");
        } else {
            assert!(!chunk.is_empty(), "the tail chunk holds a row");
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hdham-versioned-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn online_updates_always_match_a_serial_mirror(
        classes in 2usize..10,
        seed in any::<u64>(),
    ) {
        // Apply the same add/retire/re-threshold sequence to a plain
        // memory and through the updater: after every publish the current
        // version is bit-identical to the mirror, and epochs count
        // publishes.
        let dim = Dimension::new(256).unwrap();
        let mut mirror = random_memory(classes, 256, seed);
        let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
        let updater = OnlineUpdater::new(Arc::clone(&versioned));
        let probe = Hypervector::random(dim, seed ^ 0xCAFE);

        for step in 0..6u64 {
            let epoch = match step % 3 {
                0 => {
                    let hv = Hypervector::random(dim, seed ^ (step + 1));
                    mirror.insert(format!("new-{step}"), hv.clone()).unwrap();
                    let (class, epoch) = updater.add_class(format!("new-{step}"), hv).unwrap();
                    prop_assert_eq!(class, ClassId(mirror.len() - 1));
                    epoch
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
                    updater.retire_class(retired).unwrap()
                }
                _ => {
                    let target = ClassId(step as usize % mirror.len());
                    let hv = Hypervector::random(dim, seed ^ (step + 77));
                    mirror.replace_row(target, hv.clone()).unwrap();
                    updater.rethreshold_row(target, hv).unwrap()
                }
            };
            prop_assert_eq!(epoch, step + 1);
            prop_assert_eq!(versioned.current_epoch(), epoch);
            let version = versioned.load();
            prop_assert_eq!(
                version.memory().search(&probe).unwrap(),
                mirror.search(&probe).unwrap()
            );
            prop_assert_eq!(version.memory().len(), mirror.len());
            for (class, label, hv) in mirror.iter() {
                prop_assert_eq!(version.memory().label(class), Some(label));
                prop_assert_eq!(version.memory().row(class), Some(hv));
            }
        }
    }
}

#[test]
fn retiring_the_last_class_or_an_unknown_class_is_refused() {
    let memory = random_memory(2, 128, 1);
    let versioned = Arc::new(VersionedMemory::new(memory));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    assert!(matches!(
        updater.retire_class(ClassId(7)),
        Err(HamError::Hdc(HdcError::UnknownClass {
            class: 7,
            stored: 2
        }))
    ));
    updater.retire_class(ClassId(0)).unwrap();
    assert!(matches!(
        updater.retire_class(ClassId(0)),
        Err(HamError::NoClasses)
    ));
    // Refused updates publish nothing.
    assert_eq!(versioned.current_epoch(), 1);
}

#[test]
fn pinned_versions_survive_publishes_and_epochs_retire_when_released() {
    let memory = random_memory(3, 256, 21);
    let versioned = Arc::new(VersionedMemory::new(memory.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let probe = Hypervector::random(memory.dim(), 99);
    let before = memory.search(&probe).unwrap();

    let pinned = versioned.load();
    assert_eq!(pinned.epoch(), 0);

    let replacement = Hypervector::random(memory.dim(), 1234);
    updater
        .rethreshold_row(before.class, replacement.clone())
        .unwrap();

    // The pinned epoch-0 snapshot still answers exactly as before…
    assert_eq!(pinned.memory().search(&probe).unwrap(), before);
    // …while unpinned searches see the published successor.
    let mut mirror = memory.clone();
    mirror.replace_row(before.class, replacement).unwrap();
    assert_eq!(
        versioned.load().memory().search(&probe).unwrap(),
        mirror.search(&probe).unwrap()
    );
    // Epoch 0 is held alive by the pin, and retires once it drops.
    assert_eq!(versioned.pinned_epochs(), vec![0]);
    drop(pinned);
    assert!(versioned.pinned_epochs().is_empty());
}

/// Readers hammering the versioned memory while an updater publishes new
/// classes must only ever observe results that some *published* version
/// would have produced serially — never a torn mix of two versions.
#[test]
fn concurrent_readers_observe_exactly_one_published_version() {
    let memory = random_memory(4, 512, 77);
    let dim = memory.dim();
    let versioned = Arc::new(VersionedMemory::new(memory.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let probe = Hypervector::random(dim, 4242);
    let publishes = 24;

    // Serial ground truth per version: versions only change on publish,
    // and publishes happen only below, so snapshotting each published
    // memory gives the complete version set.
    let mut expected: HashSet<(usize, usize, Option<usize>)> = HashSet::new();
    let fingerprint = |r: &SearchResult| {
        (
            r.class.0,
            r.distance.as_usize(),
            r.runner_up.map(|d| d.as_usize()),
        )
    };
    expected.insert(fingerprint(&memory.search(&probe).unwrap()));

    let done = Arc::new(AtomicBool::new(false));
    let observations: Vec<(usize, usize, Option<usize>)> = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            let versioned = Arc::clone(&versioned);
            let done = Arc::clone(&done);
            let probe = probe.clone();
            readers.push(scope.spawn(move || {
                // At least one search always lands, even if the updater
                // outruns this thread's first iteration under load.
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
            let hv = Hypervector::random(dim, 10_000 + i);
            updater.add_class(format!("live-{i}"), hv).unwrap();
            let version = versioned.load();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The whole-copy path ([`VersionedMemory::update`]) and the delta
    /// path ([`VersionedMemory::update_delta`]) publish the same rows,
    /// labels and search answers for the same op sequence, epoch for
    /// epoch.
    #[test]
    fn whole_copy_and_delta_updates_publish_the_same_version(
        classes in 1usize..40,
        seed in any::<u64>(),
    ) {
        let dim = Dimension::new(192).unwrap();
        let base = random_memory(classes, 192, seed);
        let whole = VersionedMemory::new(base.clone());
        let delta = VersionedMemory::new(base.clone());
        let mut mirror = base;
        let probe = Hypervector::random(dim, seed ^ 0xBEEF);

        for step in 0..10u64 {
            let op = seeded_op(dim, mirror.len(), seed, step);
            apply_to_mirror(&mut mirror, &op).unwrap();
            let by_copy = whole.update(|memory| apply_to_mirror(memory, &op)).unwrap();
            let by_delta = delta.update_delta(std::slice::from_ref(&op)).unwrap();
            prop_assert_eq!(by_copy, step + 1);
            prop_assert_eq!(by_delta, step + 1);
            let (copied, patched) = (whole.load(), delta.load());
            assert_matches_mirror(&copied, &mirror);
            assert_matches_mirror(&patched, &mirror);
            prop_assert_eq!(
                copied.memory().search(&probe).unwrap(),
                patched.memory().search(&probe).unwrap()
            );
            prop_assert_eq!(
                patched.memory().search(&probe).unwrap(),
                mirror.search(&probe).unwrap()
            );
        }
    }

    /// A copy of the rows and labels of *any* earlier epoch, carried
    /// forward by that epoch's [`MemoryVersion::patch_since`], equals the
    /// current version — the contract a served engine advancing in place
    /// relies on.
    #[test]
    fn patches_from_any_earlier_epoch_reach_the_current_version(
        classes in 1usize..50,
        seed in any::<u64>(),
    ) {
        let dim = Dimension::new(128).unwrap();
        let versioned = Arc::new(VersionedMemory::new(random_memory(classes, 128, seed)));
        let updater = OnlineUpdater::new(Arc::clone(&versioned));
        let copy_of = |version: &MemoryVersion| -> (Vec<String>, PackedRows) {
            let mut rows = PackedRows::new(version.dim().get());
            let labels = version
                .records()
                .map(|(label, words)| {
                    rows.push(words);
                    label.to_string()
                })
                .collect();
            (labels, rows)
        };
        let mut copies = vec![copy_of(&versioned.load())];

        for step in 0..8u64 {
            let rows = versioned.load().rows();
            match seeded_op(dim, rows, seed, step) {
                UpdateOp::Add { label, hv } => {
                    updater.add_class(label, hv).unwrap();
                }
                UpdateOp::Replace { class, hv } => {
                    updater.rethreshold_row(class, hv).unwrap();
                }
                UpdateOp::Retire { class } => {
                    updater.retire_class(class).unwrap();
                }
            }
            copies.push(copy_of(&versioned.load()));
        }

        let current = versioned.load();
        let (labels_now, rows_now) = copy_of(&current);
        for (epoch, (labels, rows)) in copies.into_iter().enumerate() {
            let patch = current.patch_since(epoch as u64);
            let (mut labels, mut rows) = (labels, rows);
            patch.apply_to_labels(&mut labels);
            patch.apply_to_packed(&mut rows);
            prop_assert_eq!(&labels, &labels_now, "labels from epoch {}", epoch);
            prop_assert_eq!(&rows, &rows_now, "rows from epoch {}", epoch);
        }
        prop_assert_eq!(current.patch_since(current.epoch()).rows_written(), 0);
    }

    /// Top-k rankings of a delta version follow the serial mirror
    /// through adds that open new chunks, retires that renumber rows,
    /// and re-thresholds, for every cut `k` up to past the row count.
    #[test]
    fn version_top_k_rankings_match_the_mirror(
        classes in 2usize..40,
        seed in any::<u64>(),
    ) {
        let dim = Dimension::new(256).unwrap();
        let mut mirror = random_memory(classes, 256, seed);
        let versioned = VersionedMemory::new(mirror.clone());
        let probe = Hypervector::random(dim, seed ^ 0xF00D);

        for step in 0..6u64 {
            let op = seeded_op(dim, mirror.len(), seed, step);
            apply_to_mirror(&mut mirror, &op).unwrap();
            versioned.update_delta(std::slice::from_ref(&op)).unwrap();
            let version = versioned.load();
            for k in [1, 2, 5, mirror.len(), mirror.len() + 3] {
                prop_assert_eq!(
                    version.memory().search_top_k(&probe, k).unwrap(),
                    mirror.search_top_k(&probe, k).unwrap(),
                    "k = {}", k
                );
            }
        }
    }
}

/// Memories of one row and of row counts around a chunk boundary take
/// every update kind: adds open a new chunk exactly at the boundary,
/// retires repack the tail, and retiring the last row is refused.
#[test]
fn memories_at_chunk_boundaries_survive_every_update_kind() {
    for classes in [
        1,
        CHUNK_ROWS - 1,
        CHUNK_ROWS,
        CHUNK_ROWS + 1,
        3 * CHUNK_ROWS,
    ] {
        let mut mirror = random_memory(classes, 128, classes as u64);
        let dim = mirror.dim();
        let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
        let updater = OnlineUpdater::new(Arc::clone(&versioned));
        let probe = Hypervector::random(dim, 31 + classes as u64);
        assert_matches_mirror(&versioned.load(), &mirror);

        let added = Hypervector::random(dim, 1_000 + classes as u64);
        mirror.insert("added", added.clone()).unwrap();
        let (class, _) = updater.add_class("added", added).unwrap();
        assert_eq!(class, ClassId(classes));
        assert_matches_mirror(&versioned.load(), &mirror);

        let last = ClassId(mirror.len() - 1);
        let replacement = Hypervector::random(dim, 2_000 + classes as u64);
        mirror.replace_row(last, replacement.clone()).unwrap();
        updater.rethreshold_row(last, replacement).unwrap();
        assert_matches_mirror(&versioned.load(), &mirror);

        while mirror.len() > 1 {
            let retired = ClassId(mirror.len() / 2);
            mirror = without(&mirror, retired);
            updater.retire_class(retired).unwrap();
            let version = versioned.load();
            assert_matches_mirror(&version, &mirror);
            assert_eq!(
                version.memory().search(&probe).unwrap(),
                mirror.search(&probe).unwrap(),
                "{classes} classes, {} left",
                mirror.len()
            );
        }
        let epoch = versioned.current_epoch();
        assert_eq!(updater.retire_class(ClassId(0)), Err(HamError::NoClasses));
        assert_eq!(
            versioned.current_epoch(),
            epoch,
            "refusal publishes nothing"
        );
    }
}

/// Two identical rows in different chunks tie; the lower row wins, the
/// runner-up reports the tie, and the winner follows the rows through a
/// re-threshold and a renumbering retire.
#[test]
fn ties_across_chunks_resolve_to_the_lowest_row() {
    let mut mirror = random_memory(3 * CHUNK_ROWS, 256, 5);
    let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let (early, late) = (ClassId(2), ClassId(CHUNK_ROWS + 5));
    let twin = mirror.row(early).unwrap().clone();
    mirror.replace_row(late, twin.clone()).unwrap();
    updater.rethreshold_row(late, twin.clone()).unwrap();

    let version = versioned.load();
    let hit = version.memory().search(&twin).unwrap();
    assert_eq!(hit.class, early);
    assert_eq!(hit.distance.as_usize(), 0);
    assert_eq!(hit.runner_up.map(|d| d.as_usize()), Some(0));
    assert_eq!(
        version.memory().search_top_k(&twin, 2).unwrap(),
        vec![(early, Distance::new(0)), (late, Distance::new(0))]
    );
    assert_eq!(hit, mirror.search(&twin).unwrap());

    // Moving the early twin away leaves the later one as the only match.
    let moved = Hypervector::random(mirror.dim(), 77);
    mirror.replace_row(early, moved.clone()).unwrap();
    updater.rethreshold_row(early, moved).unwrap();
    let hit = versioned.load().memory().search(&twin).unwrap();
    assert_eq!((hit.class, hit.distance.as_usize()), (late, 0));
    assert_eq!(hit, mirror.search(&twin).unwrap());

    // Retiring row 0 renumbers the winner; its label stays with it.
    let label = mirror.label(late).unwrap().to_string();
    mirror = without(&mirror, ClassId(0));
    updater.retire_class(ClassId(0)).unwrap();
    let version = versioned.load();
    let hit = version.memory().search(&twin).unwrap();
    assert_eq!(hit.class, ClassId(late.0 - 1));
    assert_eq!(version.memory().label(hit.class), Some(label.as_str()));
    assert_eq!(hit, mirror.search(&twin).unwrap());
}

/// Rows from another space and unknown classes are refused with the
/// typed error of the memory itself, and a refused op publishes
/// nothing — not even the valid ops before it in the same delta.
#[test]
fn updates_from_another_space_are_refused_and_publish_nothing() {
    let memory = random_memory(CHUNK_ROWS + 3, 256, 8);
    let versioned = Arc::new(VersionedMemory::new(memory.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let before = versioned.load();
    let stranger = Hypervector::random(Dimension::new(128).unwrap(), 1);
    let mismatch = Err(HamError::Hdc(HdcError::DimensionMismatch {
        left: 256,
        right: 128,
    }));

    assert_eq!(
        updater.add_class("stranger", stranger.clone()).map(|_| ()),
        mismatch
    );
    assert_eq!(
        updater
            .rethreshold_row(ClassId(0), stranger.clone())
            .map(|_| ()),
        mismatch
    );
    let rows = memory.len();
    assert_eq!(
        updater.rethreshold_row(ClassId(rows), Hypervector::random(memory.dim(), 2)),
        Err(HamError::Hdc(HdcError::UnknownClass {
            class: rows,
            stored: rows
        }))
    );
    let valid_then_foreign = [
        UpdateOp::Add {
            label: "fine".into(),
            hv: Hypervector::random(memory.dim(), 3),
        },
        UpdateOp::Add {
            label: "stranger".into(),
            hv: stranger,
        },
    ];
    assert_eq!(
        versioned.update_delta(&valid_then_foreign).map(|_| ()),
        mismatch
    );

    assert_eq!(versioned.current_epoch(), 0);
    assert!(
        Arc::ptr_eq(&before, &versioned.load()),
        "epoch 0 still served"
    );
    assert_matches_mirror(&versioned.load(), &memory);
}

/// A version's searches refuse a query from another space exactly as
/// the plain memory does, before and after delta publishes.
#[test]
fn version_searches_reject_queries_from_another_space() {
    let mirror = random_memory(20, 256, 9);
    let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let stranger = Hypervector::random(Dimension::new(320).unwrap(), 4);
    let expected = HdcError::DimensionMismatch {
        left: 256,
        right: 320,
    };
    for publishes in 0..3u64 {
        let version = versioned.load();
        assert_eq!(version.memory().search(&stranger), Err(expected.clone()));
        assert_eq!(
            version.memory().search_top_k(&stranger, 3),
            Err(expected.clone())
        );
        assert_eq!(mirror.search(&stranger), Err(expected.clone()));
        updater
            .rethreshold_row(
                ClassId(1),
                Hypervector::random(mirror.dim(), 40 + publishes),
            )
            .unwrap();
    }
}

/// An empty memory has no chunks and cannot search; its first added
/// class opens chunk 0 at the next epoch and makes it searchable.
#[test]
fn an_empty_memory_errors_until_its_first_class_is_added() {
    let dim = Dimension::new(128).unwrap();
    let versioned = Arc::new(VersionedMemory::new(AssociativeMemory::new(dim)));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let probe = Hypervector::random(dim, 6);

    let empty = versioned.load();
    assert_eq!(empty.rows(), 0);
    assert!(empty.chunks().is_empty());
    assert_eq!(empty.memory().search(&probe), Err(HdcError::EmptyMemory));
    assert_eq!(
        updater.retire_class(ClassId(0)),
        Err(HamError::Hdc(HdcError::UnknownClass {
            class: 0,
            stored: 0
        }))
    );

    let first = Hypervector::random(dim, 7);
    assert_eq!(
        updater.add_class("first", first.clone()).unwrap(),
        (ClassId(0), 1)
    );
    let version = versioned.load();
    assert_eq!(version.chunk_epochs(), &[1]);
    let hit = version.memory().search(&first).unwrap();
    assert_eq!(
        (hit.class, hit.distance.as_usize(), hit.runner_up),
        (ClassId(0), 0, None)
    );
    // The pinned empty version still refuses.
    assert_eq!(empty.memory().search(&probe), Err(HdcError::EmptyMemory));
}

/// A batch re-threshold is one epoch: it stamps and copies exactly the
/// chunks holding its rows, shares the rest with the predecessor, and
/// its patch rewrites just those chunks.
#[test]
fn a_batch_rethreshold_is_one_epoch_that_restamps_only_its_chunks() {
    let mut mirror = random_memory(4 * CHUNK_ROWS, 256, 10);
    let dim = mirror.dim();
    let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let v0 = versioned.load();

    let targets = [ClassId(1), ClassId(3), ClassId(2 * CHUNK_ROWS + 1)];
    let updates: Vec<(ClassId, Hypervector)> = targets
        .iter()
        .map(|&class| (class, Hypervector::random(dim, 300 + class.0 as u64)))
        .collect();
    for (class, hv) in &updates {
        mirror.replace_row(*class, hv.clone()).unwrap();
    }
    assert_eq!(updater.rethreshold_rows(updates).unwrap(), 1);

    let v1 = versioned.load();
    assert_matches_mirror(&v1, &mirror);
    assert_eq!(v1.chunk_epochs(), &[1, 0, 1, 0]);
    for (i, stamp) in v1.chunk_epochs().iter().enumerate() {
        assert_eq!(
            Arc::ptr_eq(&v0.chunks()[i], &v1.chunks()[i]),
            *stamp == 0,
            "chunk {i} is shared exactly when untouched"
        );
    }
    assert_eq!(v1.patch_since(0).rows_written(), 2 * CHUNK_ROWS);
    assert!(!v1.is_materialized());
}

/// A batch with one bad row is refused whole: no row of it lands and
/// no epoch is published.
#[test]
fn a_failing_batch_rethreshold_publishes_nothing() {
    let memory = random_memory(2 * CHUNK_ROWS, 256, 11);
    let dim = memory.dim();
    let versioned = Arc::new(VersionedMemory::new(memory.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let rows = memory.len();

    let refused = updater.rethreshold_rows(vec![
        (ClassId(0), Hypervector::random(dim, 1)),
        (ClassId(CHUNK_ROWS), Hypervector::random(dim, 2)),
        (ClassId(rows + 4), Hypervector::random(dim, 3)),
    ]);
    assert_eq!(
        refused,
        Err(HamError::Hdc(HdcError::UnknownClass {
            class: rows + 4,
            stored: rows
        }))
    );
    assert_eq!(versioned.current_epoch(), 0);
    assert_matches_mirror(&versioned.load(), &memory);
}

/// A whole-copy update whose closure fails publishes nothing, even
/// though the closure already edited its private copy.
#[test]
fn a_refused_whole_copy_update_publishes_nothing() {
    let memory = random_memory(CHUNK_ROWS + 1, 256, 12);
    let versioned = VersionedMemory::new(memory.clone());
    let edited = Hypervector::random(memory.dim(), 13);
    let refused = versioned.update(|copy| {
        copy.replace_row(ClassId(0), edited.clone())?;
        Err(HamError::NoClasses)
    });
    assert_eq!(refused, Err(HamError::NoClasses));
    assert_eq!(versioned.current_epoch(), 0);
    assert_matches_mirror(&versioned.load(), &memory);
    assert_ne!(versioned.load().memory().row(ClassId(0)), Some(edited));
}

/// A full publish rebuilds every chunk: all stamps become the new
/// epoch, no chunk is shared with the predecessor, the published memory
/// is not kept as a second flat copy, and a patch from the previous
/// epoch rewrites every row.
#[test]
fn a_full_publish_restamps_every_chunk_and_keeps_no_flat_copy() {
    let mut mirror = random_memory(3 * CHUNK_ROWS + 2, 256, 14);
    let dim = mirror.dim();
    let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    updater
        .rethreshold_row(ClassId(CHUNK_ROWS), Hypervector::random(dim, 15))
        .unwrap();
    let before = versioned.load();
    assert_eq!(before.chunk_epochs(), &[0, 1, 0, 0]);

    mirror
        .replace_row(ClassId(0), Hypervector::random(dim, 16))
        .unwrap();
    assert_eq!(versioned.publish(mirror.clone()), 2);
    let after = versioned.load();
    assert!(!after.is_materialized());
    assert_matches_mirror(&after, &mirror);
    assert_eq!(after.chunk_epochs(), &[2, 2, 2, 2]);
    for (old, new) in before.chunks().iter().zip(after.chunks()) {
        assert!(!Arc::ptr_eq(old, new));
    }
    assert_eq!(after.patch_since(1).rows_written(), mirror.len());
}

/// Delta versions are served from their chunks: rows, records, the
/// resolved strategy and checkpoints never build the flat view, which
/// is materialized once, on first `memory()` call, and then matches.
#[test]
fn delta_versions_materialize_lazily_from_their_chunks() {
    let mut mirror = random_memory(2 * CHUNK_ROWS + 7, 256, 17);
    let dim = mirror.dim();
    let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    assert!(
        !versioned.load().is_materialized(),
        "epoch 0 keeps only its chunks"
    );

    let hv = Hypervector::random(dim, 18);
    mirror.insert("late", hv.clone()).unwrap();
    updater.add_class("late", hv).unwrap();
    let version = versioned.load();
    assert!(!version.is_materialized());
    assert_matches_mirror(&version, &mirror);
    assert_eq!(version.resolved_strategy(), mirror.resolved_strategy());
    assert_eq!(version.scan_strategy(), mirror.scan_strategy());
    let dir = temp_dir("lazy");
    updater.checkpoint(&dir.join("lazy.snap")).unwrap();
    assert!(!version.is_materialized(), "checkpoints encode from chunks");

    let probe = Hypervector::random(dim, 19);
    assert_eq!(
        version.memory().search(&probe).unwrap(),
        mirror.search(&probe).unwrap()
    );
    assert!(version.is_materialized());
    assert_eq!(version.memory().len(), mirror.len());
    let _ = fs::remove_dir_all(&dir);
}

/// A retire renumbers every row past the gap, so every chunk is
/// rebuilt and restamped; a version pinned before it keeps the old
/// numbering.
#[test]
fn a_retire_renumbers_rows_and_restamps_every_chunk() {
    let mirror = random_memory(3 * CHUNK_ROWS + 2, 256, 20);
    let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let pinned = versioned.load();
    let retired = ClassId(CHUNK_ROWS + 1);

    assert_eq!(updater.retire_class(retired).unwrap(), 1);
    let version = versioned.load();
    let survivor = without(&mirror, retired);
    assert_matches_mirror(&version, &survivor);
    assert_eq!(version.chunk_epochs(), &[1, 1, 1, 1]);
    assert_eq!(
        version.memory().label(retired),
        mirror.label(ClassId(retired.0 + 1))
    );
    assert_eq!(version.patch_since(0).rows_written(), survivor.len());

    assert_matches_mirror(&pinned, &mirror);
    assert_eq!(pinned.memory().label(retired), mirror.label(retired));
}

/// Updaters on two threads — one adding classes through the delta
/// path, one re-writing row 0 through the whole-copy path — serialize:
/// every epoch is handed out once and no update is lost.
#[test]
fn concurrent_updaters_serialize_without_losing_an_update() {
    let memory = random_memory(CHUNK_ROWS, 256, 22);
    let dim = memory.dim();
    let versioned = Arc::new(VersionedMemory::new(memory.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let rounds = 20u64;
    let last_row0 = Hypervector::random(dim, 10_000 + rounds - 1);

    let mut epochs: Vec<u64> = std::thread::scope(|scope| {
        let adder = scope.spawn(|| {
            (0..rounds)
                .map(|i| {
                    let hv = Hypervector::random(dim, 5_000 + i);
                    updater.add_class(format!("added-{i}"), hv).unwrap().1
                })
                .collect::<Vec<u64>>()
        });
        let rewriter = scope.spawn(|| {
            (0..rounds)
                .map(|i| {
                    let hv = Hypervector::random(dim, 10_000 + i);
                    versioned
                        .update(|memory| Ok(memory.replace_row(ClassId(0), hv)?))
                        .unwrap()
                })
                .collect::<Vec<u64>>()
        });
        let mut epochs = adder.join().unwrap();
        epochs.extend(rewriter.join().unwrap());
        epochs
    });

    epochs.sort_unstable();
    assert_eq!(epochs, (1..=2 * rounds).collect::<Vec<u64>>());
    let version = versioned.load();
    assert_eq!(version.epoch(), 2 * rounds);
    assert_eq!(version.rows(), memory.len() + rounds as usize);
    assert_eq!(version.memory().row(ClassId(0)), Some(last_row0));
    let added: Vec<&str> = version
        .records()
        .skip(memory.len())
        .map(|(l, _)| l)
        .collect();
    let expected: Vec<String> = (0..rounds).map(|i| format!("added-{i}")).collect();
    assert_eq!(added, expected, "adds land in order, none lost");
}

/// A checkpoint captures the version current at that instant —
/// online adds, retires and re-thresholds included — and later
/// publishes do not reach the file.
#[test]
fn checkpoints_capture_online_class_changes() {
    let mut mirror = random_memory(CHUNK_ROWS + 4, 256, 23);
    let dim = mirror.dim();
    let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));
    let dir = temp_dir("checkpoint");
    let path = dir.join("memory.snap");

    let novel = Hypervector::random(dim, 24);
    mirror.insert("novel", novel.clone()).unwrap();
    updater.add_class("novel", novel.clone()).unwrap();
    mirror = without(&mirror, ClassId(3));
    updater.retire_class(ClassId(3)).unwrap();
    let replacement = Hypervector::random(dim, 25);
    mirror.replace_row(ClassId(0), replacement.clone()).unwrap();
    updater.rethreshold_row(ClassId(0), replacement).unwrap();

    assert_eq!(updater.checkpoint(&path).unwrap(), 3);
    updater
        .rethreshold_row(ClassId(1), Hypervector::random(dim, 26))
        .unwrap();

    let loaded = load_snapshot(&path).unwrap();
    assert!(loaded.is_clean());
    let restored = VersionedMemory::new(loaded.memory);
    assert_matches_mirror(&restored.load(), &mirror);
    let hit = restored.load().memory().search(&novel).unwrap();
    assert_eq!(restored.load().memory().label(hit.class), Some("novel"));
    let _ = fs::remove_dir_all(&dir);
}

/// Under an index policy a version stays unindexed while small and
/// carries a bucket index once a publish grows it past `min_rows`; the
/// materialized memory shares that index, and indexed answers match
/// the unindexed mirror.
#[test]
fn index_policy_indexes_a_version_once_it_grows_past_min_rows() {
    let mut mirror = random_memory(6, 256, 27);
    let dim = mirror.dim();
    let versioned = Arc::new(VersionedMemory::new(mirror.clone()));
    let policy = IndexPolicy {
        min_rows: 12,
        ..IndexPolicy::default()
    };
    let updater = OnlineUpdater::new(Arc::clone(&versioned)).with_index_policy(policy);
    let probe = Hypervector::random(dim, 28);

    for i in 0..10u64 {
        let hv = Hypervector::random(dim, 600 + i);
        mirror.insert(format!("grow-{i}"), hv.clone()).unwrap();
        updater.add_class(format!("grow-{i}"), hv).unwrap();
        let version = versioned.load();
        if version.rows() < policy.min_rows {
            assert!(
                version.index().is_none(),
                "{} rows stay unindexed",
                version.rows()
            );
        } else {
            let index = version.index_handle().expect("indexed past min_rows");
            assert_eq!(index.rows(), version.rows());
            let shared = version.memory().index_handle().expect("materialized index");
            assert!(Arc::ptr_eq(&index, &shared));
        }
        assert_eq!(
            version.memory().search(&probe).unwrap(),
            mirror.search(&probe).unwrap()
        );
    }
}
