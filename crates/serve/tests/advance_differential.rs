//! Differential test of the served engine's in-place epoch advance.
//!
//! A tenant's engine reaches a new epoch only by advancing: it copies
//! the chunks the epoch replaced and attaches the version's own index.
//! The reference here is the engine a fresh
//! [`TenantSpec::build_engine`] makes over the materialized version,
//! rebuilt whenever the epoch changes and otherwise kept serving. Seeded
//! random interleavings of re-thresholds, adds, retires and full
//! publishes, with 0–3 publishes between reads, run over tenants with no
//! index and with the bucket index, for all three design kinds. After
//! every read the two engines must hold the same rows and labels, pin
//! the version as their golden state, share the version's index, and
//! return the same report.

use std::sync::Arc;

use ham_core::explore::DesignKind;
use ham_core::resilience::{QueryBudget, ResilientOptions, ResilientServer, PRIORITY_NORMAL};
use ham_core::{IndexPolicy, MemoryVersion};
use ham_serve::{TenantSpec, TenantState};
use hdc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Below the index policy's row floor: no index.
    Plain,
    /// Clustered rows past the floor: provisioning attaches the bucket
    /// index, and the updater keeps it coherent.
    Indexed,
}

/// Rows planted around a few centres, so the bucket index has clusters
/// to prune and queries have near neighbours.
fn clustered_memory(rows: usize, rng: &mut StdRng) -> AssociativeMemory {
    let dim = Dimension::new(DIM).unwrap();
    let centres: Vec<Hypervector> = (0..8)
        .map(|_| Hypervector::random_from_rng(dim, rng))
        .collect();
    let mut memory = AssociativeMemory::new(dim);
    for i in 0..rows {
        let row = centres[i % centres.len()].with_flipped_bits(24, rng);
        memory.insert(format!("row-{i}"), row).unwrap();
    }
    memory
}

fn spec(kind: DesignKind, shape: Shape, rng: &mut StdRng) -> TenantSpec {
    let floor = IndexPolicy::default().min_rows;
    let memory = match shape {
        Shape::Plain => clustered_memory(floor / 2 + 7, rng),
        Shape::Indexed => clustered_memory(floor + 40, rng),
    };
    TenantSpec::new(1, format!("{kind:?}-{shape:?}"), kind, memory)
}

/// Applies one random write; returns whether it was a delta publish.
fn random_write(tenant: &TenantState, rng: &mut StdRng, next_label: &mut usize) -> bool {
    let updater = tenant.updater();
    let current = tenant.versioned().load();
    let rows = current.rows();
    let row = |rng: &mut StdRng| {
        let class = ClassId(rng.gen_range(0..rows));
        let base = Hypervector::from_words(current.dim(), current.row_words(class.0).unwrap());
        (class, base.with_flipped_bits(rng.gen_range(1..40), rng))
    };
    match rng.gen_range(0..10) {
        0..=4 => {
            let (class, hv) = row(rng);
            updater.rethreshold_row(class, hv).unwrap();
            true
        }
        5 => {
            let updates = (0..rng.gen_range(2..5)).map(|_| row(rng)).collect();
            updater.rethreshold_rows(updates).unwrap();
            true
        }
        6 | 7 => {
            let (_, hv) = row(rng);
            *next_label += 1;
            updater
                .add_class(format!("added-{next_label}"), hv)
                .unwrap();
            true
        }
        8 if rows > 2 => {
            updater
                .retire_class(ClassId(rng.gen_range(0..rows)))
                .unwrap();
            true
        }
        _ => {
            // A full publish: a whole-copy rewrite of a few rows, every
            // chunk restamped.
            let mut memory = current.memory().clone();
            for _ in 0..rng.gen_range(1..4) {
                let (class, hv) = row(rng);
                memory.replace_row(class, hv).unwrap();
            }
            drop(current);
            tenant.versioned().publish(memory);
            false
        }
    }
}

fn queries(tenant: &TenantState, rng: &mut StdRng) -> Vec<Hypervector> {
    let version = tenant.versioned().load();
    let rows: Vec<Hypervector> = version
        .records()
        .map(|(_, words)| Hypervector::from_words(version.dim(), words))
        .collect();
    (0..6)
        .map(|i| {
            if i == 5 {
                // Far from every row: escalates down the ladder.
                Hypervector::random_from_rng(version.dim(), rng)
            } else {
                rows[rng.gen_range(0..rows.len())].with_flipped_bits(rng.gen_range(0..50), rng)
            }
        })
        .collect()
}

fn ptr_eq<T>(a: Option<Arc<T>>, b: Option<Arc<T>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(&a, &b),
        (None, None) => true,
        _ => false,
    }
}

fn assert_same_engine(
    advanced: &ResilientServer,
    fresh: &ResilientServer,
    version: &Arc<MemoryVersion>,
    context: &str,
) {
    let (a, f) = (advanced.memory(), fresh.memory());
    assert_eq!(a.len(), f.len(), "{context}: row count");
    assert!(
        a.iter_words().eq(f.iter_words()),
        "{context}: rows and labels"
    );
    assert_eq!(a.scan_strategy(), f.scan_strategy(), "{context}: strategy");
    assert_eq!(
        a.resolved_strategy(),
        f.resolved_strategy(),
        "{context}: resolved strategy"
    );
    assert!(
        Arc::ptr_eq(advanced.scrubber().golden(), version),
        "{context}: the advanced scrubber pins the published version"
    );
    assert!(
        Arc::ptr_eq(fresh.scrubber().golden(), version),
        "{context}: the fresh scrubber pins the published version"
    );
    assert_eq!(advanced.policy(), fresh.policy(), "{context}: policy");
    assert_eq!(
        advanced.health().state(),
        fresh.health().state(),
        "{context}: health"
    );
}

fn run(kind: DesignKind, shape: Shape, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = spec(kind, shape, &mut rng);
    let options = ResilientOptions::serial();
    let tenant = TenantState::provision(spec.clone(), options, None).unwrap();
    let mut reference: Option<(u64, ResilientServer)> = None;
    let mut next_label = 0;
    let mut advanced_epochs = 0;
    for read in 0..40 {
        let mut last_was_delta = None;
        for _ in 0..rng.gen_range(0..4) {
            last_was_delta = Some(random_write(&tenant, &mut rng, &mut next_label));
        }
        let version = tenant.versioned().load();
        let qs = queries(&tenant, &mut rng);
        let served = tenant
            .serve(&qs, PRIORITY_NORMAL, QueryBudget::unbounded())
            .unwrap();
        let context = format!("{kind:?}/{shape:?} seed {seed} read {read}");
        if last_was_delta == Some(true) {
            advanced_epochs += 1;
            assert!(
                !version.is_materialized(),
                "{context}: the fresh read materialized a delta version"
            );
        }
        // The reference engine: rebuilt from scratch over the
        // materialized version whenever the epoch moves.
        if reference.as_ref().map(|(epoch, _)| *epoch) != Some(version.epoch()) {
            let fresh = spec
                .build_engine(version.memory().clone(), Arc::clone(&version), options)
                .unwrap();
            reference = Some((version.epoch(), fresh));
        }
        let (_, fresh) = reference.as_mut().unwrap();
        let expected = fresh.serve_with_budget(&qs, PRIORITY_NORMAL, QueryBudget::unbounded());
        assert_eq!(served.outcomes, expected.outcomes, "{context}: outcomes");
        assert_eq!(served.stats, expected.stats, "{context}: stats");
        assert_eq!(served.scan, expected.scan, "{context}: scan counters");
        assert_eq!(served.health, expected.health, "{context}: health");
        assert_eq!(served.actions, expected.actions, "{context}: actions");
        tenant.with_engine(|epoch, engine| {
            assert_eq!(epoch, version.epoch(), "{context}: engine epoch");
            assert_same_engine(engine, fresh, &version, &context);
            assert!(
                ptr_eq(engine.memory().index_handle(), version.index_handle()),
                "{context}: the engine must share the version's index"
            );
        });
        match shape {
            Shape::Plain => assert!(version.index().is_none()),
            Shape::Indexed => {
                assert!(
                    version.rows() < IndexPolicy::default().min_rows || version.index().is_some()
                )
            }
        }
    }
    assert!(
        advanced_epochs > 5,
        "the interleaving exercised delta reads"
    );
}

#[test]
fn advance_matches_a_fresh_build_digital() {
    for (i, shape) in [Shape::Plain, Shape::Indexed].into_iter().enumerate() {
        run(DesignKind::Digital, shape, 10 + i as u64);
    }
}

#[test]
fn advance_matches_a_fresh_build_resistive() {
    for (i, shape) in [Shape::Plain, Shape::Indexed].into_iter().enumerate() {
        run(DesignKind::Resistive, shape, 20 + i as u64);
    }
}

#[test]
fn advance_matches_a_fresh_build_analog() {
    for (i, shape) in [Shape::Plain, Shape::Indexed].into_iter().enumerate() {
        run(DesignKind::Analog, shape, 30 + i as u64);
    }
}

/// The acceptance case: a single-row re-threshold on a C = 4,096 tenant
/// advances the engine by one chunk and leaves the version unmaterialized.
#[test]
fn single_row_rethreshold_at_4096_rows_never_materializes() {
    let mut rng = StdRng::seed_from_u64(4_096);
    let memory = clustered_memory(4_096, &mut rng);
    let spec = TenantSpec::new(2, "wide", DesignKind::Digital, memory);
    let tenant = TenantState::provision(spec, ResilientOptions::serial(), None).unwrap();
    let before = tenant.versioned().load();
    let hv = Hypervector::random_from_rng(before.dim(), &mut rng);
    let epoch = tenant
        .updater()
        .rethreshold_row(ClassId(1_234), hv.clone())
        .unwrap();
    let version = tenant.versioned().load();
    assert_eq!(version.epoch(), epoch);
    assert_eq!(version.patch_since(before.epoch()).rows_written(), 16);
    drop(before);
    let report = tenant
        .serve(
            std::slice::from_ref(&hv),
            PRIORITY_NORMAL,
            QueryBudget::unbounded(),
        )
        .unwrap();
    assert_eq!(report.stats.completed, 1);
    assert!(!version.is_materialized());
    tenant.with_engine(|served_epoch, engine| {
        assert_eq!(served_epoch, epoch);
        assert_eq!(engine.memory().row(ClassId(1_234)), Some(hv.clone()));
        assert_eq!(
            engine.scrubber().golden_row(ClassId(1_234)),
            Some(hv.clone())
        );
        assert!(Arc::ptr_eq(engine.scrubber().golden(), &version));
    });
}
