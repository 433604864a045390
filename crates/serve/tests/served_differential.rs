//! Differential test of the whole served path over loopback.
//!
//! A real [`Server`] hosts three tenants over the same rows, each pinned
//! to one scan strategy: `Direct`, `Indexed` (index attached at
//! provisioning) and `Auto`. A
//! seeded interleaving of wire query batches and online updates
//! (`rethreshold_row`, `add_class`, `retire_class` through
//! [`TenantState::updater`]) drives every tenant identically, with one
//! drain and warm restart per run.
//!
//! The oracle is a plain `Vec<Option<row>>`: a retire empties its slot,
//! and the live rows, in order, are the memory. The reference engine is
//! [`TenantSpec::build_engine`] over an [`AssociativeMemory`] rebuilt
//! from the oracle — `Direct`, no index — at every epoch
//! change and at the restart. Every wire slot of every tenant must equal
//! the reference's answer bit for bit, and every answer the reference
//! settles on the exact rung must equal the oracle's linear scan.
//! Crash-point injection lives in `crates/core/tests/wal_recovery.rs`;
//! a served tenant has no injector to plumb.
//!
//! [`TenantState::updater`]: ham_serve::TenantState::updater

use std::path::Path;
use std::time::Duration;

use ham_core::explore::DesignKind;
use ham_core::resilience::{
    EngineStage, QueryBudget, ResilientOptions, ResilientServer, PRIORITY_NORMAL,
};
use ham_core::HamError;
use ham_serve::frame::STATUS_OK;
use ham_serve::{BootSource, HamClient, QuotaPolicy, ServeConfig, Server, SlotResult, TenantSpec};
use hdc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 256;
/// Past the index policy's 256-row floor, so provisioning attaches the
/// bucket index the `Indexed` tenant walks.
const ROWS: usize = 280;
const STEPS: usize = 24;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The three pinned tenants: wire id and strategy.
const TENANTS: [(u16, ScanStrategy); 3] = [
    (1, ScanStrategy::Direct),
    (2, ScanStrategy::Indexed),
    (3, ScanStrategy::Auto),
];

type Oracle = Vec<Option<(String, Hypervector)>>;

fn live(oracle: &Oracle) -> impl Iterator<Item = &(String, Hypervector)> {
    oracle.iter().flatten()
}

/// The oracle slot holding live class `class`.
fn slot(oracle: &Oracle, class: usize) -> usize {
    oracle
        .iter()
        .enumerate()
        .filter(|(_, entry)| entry.is_some())
        .nth(class)
        .map(|(at, _)| at)
        .expect("class is live")
}

fn memory_of(oracle: &Oracle) -> AssociativeMemory {
    let mut memory = AssociativeMemory::new(Dimension::new(DIM).unwrap());
    for (label, hv) in live(oracle) {
        memory.insert(label.clone(), hv.clone()).unwrap();
    }
    memory
}

/// Rows planted around a few centres, so queries have near neighbours
/// and the bucket index has clusters.
fn initial_oracle(rng: &mut StdRng) -> Oracle {
    let dim = Dimension::new(DIM).unwrap();
    let centres: Vec<Hypervector> = (0..8)
        .map(|_| Hypervector::random_from_rng(dim, rng))
        .collect();
    (0..ROWS)
        .map(|i| {
            let row = centres[i % centres.len()].with_flipped_bits(24, rng);
            Some((format!("row-{i}"), row))
        })
        .collect()
}

fn specs(oracle: &Oracle) -> Vec<TenantSpec> {
    TENANTS
        .iter()
        .map(|&(tenant, strategy)| {
            TenantSpec::new(
                tenant,
                format!("{strategy:?}"),
                DesignKind::Digital,
                memory_of(oracle).with_scan_strategy(strategy),
            )
            .with_quota(QuotaPolicy::unlimited())
        })
        .collect()
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_millis(500),
        drain_grace: Duration::from_secs(2),
        snapshot_dir: Some(dir.to_path_buf()),
        options: ResilientOptions::serial(),
        ..ServeConfig::default()
    }
}

/// The reference engine over the oracle's rows: the direct scan, no
/// index.
fn reference(oracle: &Oracle) -> ResilientServer {
    let memory = memory_of(oracle).with_scan_strategy(ScanStrategy::Direct);
    let golden = std::sync::Arc::new(ham_core::MemoryVersion::of(0, &memory));
    specs(oracle)[0]
        .build_engine(memory, golden, ResilientOptions::serial())
        .unwrap()
}

/// The wire slot the server encodes for one engine outcome.
fn wire_slot(outcome: &Result<ham_core::resilience::QueryOutcome, HamError>) -> SlotResult {
    match outcome {
        Ok(o) => SlotResult::Hit {
            class: o.result.class.0 as u32,
            distance: o.result.measured_distance.as_usize() as u32,
            margin: o.margin as u32,
        },
        Err(HamError::TimedOut) => SlotResult::TimedOut,
        Err(HamError::Shed { .. }) => SlotResult::Shed,
        Err(_) => SlotResult::Failed,
    }
}

/// The oracle's linear scan: `(class, distance, margin)` with ties to
/// the lowest class.
fn linear_scan(oracle: &Oracle, query: &Hypervector) -> (usize, usize, usize) {
    let distances: Vec<usize> = live(oracle)
        .map(|(_, hv)| hv.hamming(query).as_usize())
        .collect();
    let best = (0..distances.len())
        .min_by_key(|&class| (distances[class], class))
        .unwrap();
    let runner_up = (0..distances.len())
        .filter(|&class| class != best)
        .map(|class| distances[class])
        .min();
    let margin = runner_up.map_or(0, |r| r - distances[best]);
    (best, distances[best], margin)
}

/// Applies one random update to every tenant and to the oracle.
fn update(server: &Server, oracle: &mut Oracle, rng: &mut StdRng, next_label: &mut usize) {
    let rows = live(oracle).count();
    let class = rng.gen_range(0..rows);
    let at = slot(oracle, class);
    let (_, base) = oracle[at].clone().unwrap();
    let hv = base.with_flipped_bits(rng.gen_range(1..40), rng);
    let kind = rng.gen_range(0..10);
    for &(tenant, _) in &TENANTS {
        let updater = server.tenants().get(tenant).unwrap().updater();
        match kind {
            0..=5 => {
                updater.rethreshold_row(ClassId(class), hv.clone()).unwrap();
            }
            6 | 7 => {
                updater
                    .add_class(format!("added-{next_label}"), hv.clone())
                    .unwrap();
            }
            _ => {
                updater.retire_class(ClassId(class)).unwrap();
            }
        }
    }
    match kind {
        0..=5 => oracle[at] = Some((oracle[at].take().unwrap().0, hv)),
        6 | 7 => {
            oracle.push(Some((format!("added-{next_label}"), hv)));
            *next_label += 1;
        }
        _ => oracle[at] = None,
    }
}

fn queries(oracle: &Oracle, rng: &mut StdRng) -> Vec<Hypervector> {
    let rows: Vec<&Hypervector> = live(oracle).map(|(_, hv)| hv).collect();
    (0..6)
        .map(|i| {
            if i == 5 {
                // Far from every row: escalates down the ladder.
                Hypervector::random_from_rng(rows[0].dim(), rng)
            } else {
                rows[rng.gen_range(0..rows.len())].with_flipped_bits(rng.gen_range(0..50), rng)
            }
        })
        .collect()
}

fn assert_pins_hold(server: &Server, context: &str) {
    for &(tenant, strategy) in &TENANTS {
        let version = server.tenants().get(tenant).unwrap().versioned().load();
        let resolved = version.resolved_strategy();
        let expected = match strategy {
            ScanStrategy::Direct => Some(ResolvedScan::Direct),
            ScanStrategy::Indexed if version.index().is_some() => {
                Some(ResolvedScan::Indexed { nprobe: None })
            }
            _ => None,
        };
        if let Some(expected) = expected {
            assert_eq!(
                resolved, expected,
                "{context}: tenant {tenant} ({strategy:?})"
            );
        }
    }
}

fn run(seed: u64) {
    let dir = std::env::temp_dir().join(format!(
        "ham-served-differential-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle = initial_oracle(&mut rng);
    let boot_specs = specs(&oracle);
    let mut server = Some(Server::start(config(&dir), boot_specs.clone()).unwrap());
    assert_pins_hold(server.as_ref().unwrap(), "provisioning");
    let mut client =
        HamClient::connect(server.as_ref().unwrap().local_addr(), CLIENT_TIMEOUT).unwrap();
    let mut engine = reference(&oracle);
    let mut next_label = 0;
    let mut exact_answers = 0;
    for step in 0..STEPS {
        let context = format!("seed {seed} step {step}");
        if step == STEPS / 2 {
            // Drain (flushing every tenant's snapshot), then warm
            // restart over the same directory from the boot specs.
            let report = server.take().unwrap().drain();
            assert_eq!(report.snapshots_flushed, TENANTS.len(), "{context}");
            assert!(report.flush_failures.is_empty(), "{context}: {report:?}");
            let restarted = Server::start(config(&dir), boot_specs.clone()).unwrap();
            for &(tenant, _) in &TENANTS {
                assert!(
                    matches!(
                        restarted.tenants().get(tenant).unwrap().boot_source(),
                        BootSource::WarmRestart { .. }
                    ),
                    "{context}: tenant {tenant} warm-restarts"
                );
            }
            assert_pins_hold(&restarted, "restart");
            client = HamClient::connect(restarted.local_addr(), CLIENT_TIMEOUT).unwrap();
            server = Some(restarted);
            engine = reference(&oracle);
        }
        let live_server = server.as_ref().unwrap();
        let updates = rng.gen_range(0..3);
        for _ in 0..updates {
            update(live_server, &mut oracle, &mut rng, &mut next_label);
        }
        if updates > 0 {
            engine = reference(&oracle);
        }
        let batch = queries(&oracle, &mut rng);
        let expected = engine.serve_with_budget(&batch, PRIORITY_NORMAL, QueryBudget::unbounded());
        let expected_slots: Vec<SlotResult> = expected.outcomes.iter().map(wire_slot).collect();
        for (outcome, query) in expected.outcomes.iter().zip(&batch) {
            let outcome = outcome.as_ref().unwrap();
            if outcome.final_engine == EngineStage::Exact {
                exact_answers += 1;
                let (class, distance, margin) = linear_scan(&oracle, query);
                assert_eq!(
                    (
                        outcome.result.class.0,
                        outcome.result.measured_distance.as_usize(),
                        outcome.margin
                    ),
                    (class, distance, margin),
                    "{context}: the exact rung disagrees with the oracle"
                );
            }
        }
        for &(tenant, strategy) in &TENANTS {
            let response = client
                .request(tenant, PRIORITY_NORMAL, None, &batch)
                .unwrap();
            assert_eq!(response.status, STATUS_OK, "{context}: tenant {tenant}");
            assert_eq!(
                response.slots, expected_slots,
                "{context}: tenant {tenant} ({strategy:?})"
            );
        }
    }
    assert!(
        exact_answers > 0,
        "seed {seed}: no answer reached the exact rung"
    );
    server.take().unwrap().drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_answers_match_a_fresh_reference_through_updates_and_a_restart() {
    for seed in [1, 2] {
        run(seed);
    }
}
