//! The workload-harness acceptance suite: every scenario runs through
//! the one [`Workload`] trait end to end — local ranking, tenant
//! provisioning, and the real TCP wire — deterministically per seed,
//! with the `Auto` scan decision pinned on the near-duplicate geometry.

use std::sync::Arc;
use std::time::Duration;

use ham_core::resilience::PRIORITY_NORMAL;
use ham_core::shard::{OnlineUpdater, VersionedMemory};
use ham_core::{ensure_indexed, IndexPolicy};
use ham_serve::frame::STATUS_OK;
use ham_serve::{HamClient, ServeConfig, Server, SlotResult};
use ham_workloads::neardup::{NearDupParams, NearDupWorkload};
use ham_workloads::weighted::{WeightedParams, WeightedWorkload};
use ham_workloads::{run_local, serve, LangidWorkload, Workload};
use hdc::prelude::*;

/// Small-but-faithful operating points, sized for CI.
fn langid() -> LangidWorkload {
    LangidWorkload::build(1_000, 4_000, 2, LangidWorkload::DEFAULT_SEED)
}

fn weighted() -> WeightedWorkload {
    WeightedWorkload::build(WeightedParams::default(), 7)
}

/// Wide-margin weighted world for the wire test: every degradation rung
/// agrees with the exact binary search, so wire answers are stable.
fn easy_weighted() -> WeightedWorkload {
    WeightedWorkload::build(
        WeightedParams {
            dim: 512,
            classes: 8,
            train_copies: 7,
            noisy_dims: 256,
            train_flips: 256 * 15 / 100,
            queries_per_class: 4,
            query_flips: 256 / 4,
        },
        21,
    )
}

fn neardup() -> NearDupWorkload {
    NearDupWorkload::build(
        NearDupParams {
            dim: 4_096,
            rows: 512,
            clusters: 23,
            center_flips: 96,
            max_row_flips: 8,
            query_flips: 5,
            k: 5,
        },
        5,
    )
}

#[test]
fn every_workload_is_deterministic_and_meets_its_floor() {
    let workloads: Vec<(Box<dyn Workload>, f64)> = vec![
        (Box::new(langid()), 0.5),
        (Box::new(weighted()), 0.9),
        (Box::new(neardup()), 0.98),
    ];
    for (workload, floor) in &workloads {
        let report = run_local(workload.as_ref());
        assert_eq!(report.path, "local");
        assert!(
            report.recall_at_k >= *floor,
            "{}: recall@{} {} under floor {floor}",
            report.workload,
            report.k,
            report.recall_at_k
        );
        assert!(report.recall_at_k >= report.accuracy, "{}", report.workload);
        assert!(report.queries > 0 && report.throughput_qps > 0.0);
        // Telemetry reaches the scorer: every scenario scans rows.
        assert!(
            report.rows_scanned >= report.queries as u64,
            "{}: rows_scanned {}",
            report.workload,
            report.rows_scanned
        );
        assert_eq!(report.seed, workload.seed());
    }
    // Bit-for-bit determinism of the whole report row per seed.
    let again = run_local(&langid());
    let first = run_local(&langid());
    assert_eq!(first.accuracy, again.accuracy);
    assert_eq!(first.recall_at_k, again.recall_at_k);
    assert_eq!(first.rows_scanned, again.rows_scanned);
}

#[test]
fn auto_pins_the_indexed_walk_on_the_near_duplicate_geometry() {
    let w = neardup();
    let dim = w.params().dim;
    let stats = w.index_stats();
    // The regression pin: this geometry must read pruning-friendly, and
    // Auto must select the indexed walk — both at the decision-rule
    // level and through the memory the tenant clones.
    assert!(stats.pruning_friendly(dim), "stats = {stats:?}");
    let plan = |strategy| {
        ScanPlan::new(
            hdc::active_backend(),
            strategy,
            w.memory().index(),
            w.memory().len(),
            dim,
        )
        .resolved()
    };
    let indexed = ResolvedScan::Indexed { nprobe: None };
    assert_eq!(plan(ScanStrategy::Auto), indexed);
    assert_eq!(w.resolved_strategy(), indexed);
    assert_eq!(
        plan(ScanStrategy::Direct),
        ResolvedScan::Direct,
        "explicit strategies must not be second-guessed"
    );
    // The Auto-selected walk answers bit-identically to the direct scan
    // on the real query stream.
    let mut direct = w.memory().clone();
    direct.set_scan_strategy(ScanStrategy::Direct);
    for record in w.queries().iter().take(64) {
        let via_auto = w.memory().search(&record.query).unwrap();
        let via_direct = direct.search(&record.query).unwrap();
        assert_eq!(via_auto.class, via_direct.class);
        assert_eq!(via_auto.distance, via_direct.distance);
    }
    // And the served row carries the decision label.
    let state = serve::provision(&w, 7).expect("tenant provisions");
    let report = serve::run_served(&w, &state).expect("tenant serves");
    assert_eq!(report.strategy, "Indexed");
    assert!(
        report.accuracy > 0.98,
        "served accuracy {}",
        report.accuracy
    );
}

/// The approximate-probe operating point for the near-duplicate
/// geometry, pinned by measurement: probing the single nearest
/// centroid's bucket (`Probe{nprobe: 1}`) already recalls the planted
/// truth in the top 5 for ≥ 95% of the stream (measured 100% at this
/// seed), while touching a fraction of the rows the exact scan pays
/// for. The pin is the contract the serving docs quote: anyone tuning
/// `nprobe` down to 1 on this shape keeps recall@5 ≥ 0.95.
#[test]
fn probe_one_meets_the_recall_floor_on_the_near_duplicate_geometry() {
    let w = neardup();
    let nprobe = 1usize;
    let mut probed = w.memory().clone();
    probed.set_scan_strategy(ScanStrategy::Probe { nprobe });
    assert_eq!(
        probed.resolved_strategy(),
        ResolvedScan::Indexed {
            nprobe: Some(nprobe)
        }
    );
    let (mut hits, mut total) = (0usize, 0usize);
    let mut probe_scan = ScanCounters::default();
    for record in w.queries() {
        let (ranked, scan) = probed.search_top_k_counted(&record.query, w.k()).unwrap();
        probe_scan.absorb(scan);
        total += 1;
        if ranked.iter().any(|(class, _)| class.0 == record.truth) {
            hits += 1;
        }
    }
    let recall = hits as f64 / total as f64;
    assert!(
        recall >= 0.95,
        "Probe{{nprobe: {nprobe}}} recall@{} = {recall} under the 0.95 floor",
        w.k()
    );
    // The point of probing: strictly fewer rows than the exact scan
    // (which pays rows × queries) reach the distance kernel.
    let exact_rows = (w.memory().len() * total) as u64;
    assert!(
        probe_scan.rows_scanned < exact_rows / 4,
        "probe scanned {} of {exact_rows} exact rows",
        probe_scan.rows_scanned
    );
}

#[test]
fn workloads_serve_over_the_real_wire() {
    let config = ServeConfig {
        read_timeout: Duration::from_millis(500),
        drain_grace: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let langid = langid();
    let weighted = easy_weighted();
    let neardup = neardup();
    let specs = vec![
        serve::tenant_spec(&langid, 1),
        serve::tenant_spec(&weighted, 2),
        serve::tenant_spec(&neardup, 3),
    ];
    let server = Server::start(config, specs).expect("server starts");
    let mut client =
        HamClient::connect(server.local_addr(), Duration::from_secs(10)).expect("client connects");
    // Every tenant answers its own stream with hits that track the
    // planted truth. The degradation ladder may settle on the sampled
    // primary rung for wide-margin queries, so per-slot parity with the
    // exact engine is only pinned where every rung provably agrees (the
    // near-duplicate tenant below).
    for (tenant, workload, floor) in [
        (1u16, &langid as &dyn Workload, 0.5),
        (2, &weighted, 0.75),
        (3, &neardup, 0.95),
    ] {
        let records: Vec<_> = workload.queries().iter().take(16).collect();
        let queries: Vec<Hypervector> = records.iter().map(|r| r.query.clone()).collect();
        let response = client
            .request(tenant, PRIORITY_NORMAL, None, &queries)
            .expect("request round-trips");
        assert_eq!(response.status, STATUS_OK, "{}", workload.name());
        assert_eq!(response.slots.len(), queries.len());
        let mut correct = 0usize;
        for (slot, record) in response.slots.iter().zip(&records) {
            match slot {
                SlotResult::Hit { class, .. } => {
                    if *class as usize == record.truth {
                        correct += 1;
                    }
                }
                other => panic!("{}: slot not a hit: {other:?}", workload.name()),
            }
        }
        let accuracy = correct as f64 / records.len() as f64;
        assert!(
            accuracy >= floor,
            "{}: wire accuracy {accuracy} under floor {floor}",
            workload.name()
        );
    }
    // The near-duplicate stream's margins sit below the confidence bar
    // at every approximate rung, so the ladder always lands on the
    // exact engine: wire answers are bit-identical to a local search
    // through the same Auto-resolved indexed walk.
    let queries: Vec<Hypervector> = neardup
        .queries()
        .iter()
        .take(16)
        .map(|record| record.query.clone())
        .collect();
    let response = client
        .request(3, PRIORITY_NORMAL, None, &queries)
        .expect("request round-trips");
    for (slot, query) in response.slots.iter().zip(&queries) {
        let expected = neardup.memory().search(query).unwrap();
        match slot {
            SlotResult::Hit {
                class, distance, ..
            } => {
                assert_eq!(*class as usize, expected.class.0);
                assert_eq!(*distance as usize, expected.distance.as_usize());
            }
            other => panic!("neardup: slot not a hit: {other:?}"),
        }
    }
    let report = server.drain();
    assert_eq!(report.connection_threads_joined as u64, 1);
}

/// The near-duplicate world perfbench serves (its `neardup_world`
/// parameters at `rows × 8,192` bits, seed 1), provisioned the way a
/// tenant is: the default index policy applied, and updates published
/// through an index-maintaining updater.
fn served_neardup(rows: usize) -> (Arc<VersionedMemory>, OnlineUpdater) {
    let dim = 8_192;
    let params = NearDupParams {
        dim,
        rows,
        clusters: (rows as f64).sqrt().ceil() as usize,
        center_flips: dim * 3 / 128,
        max_row_flips: dim * 35 / 1_024,
        query_flips: dim / 800,
        k: 1,
    };
    let mut memory = NearDupWorkload::build(params, 1).memory().clone();
    ensure_indexed(&mut memory, &IndexPolicy::default());
    let versioned = Arc::new(VersionedMemory::new(memory));
    let updater =
        OnlineUpdater::new(Arc::clone(&versioned)).with_index_policy(IndexPolicy::default());
    (versioned, updater)
}

/// How `Auto` resolves on perfbench's served shapes, across the updates
/// its churn workload makes (one retire, then one random add). Both
/// sizes provision with tight buckets, so the indexed walk serves them,
/// and a retire keeps it. At the churn size the random row then joins a
/// bucket as a far outlier, lifting the mean radius past `dim / 32`, so
/// the geometry stops reading pruning-friendly and the direct scan
/// takes over. Every plan is exact, so these flips move time, never
/// answers.
#[test]
fn auto_resolution_follows_the_served_shapes_across_updates() {
    let indexed = ResolvedScan::Indexed { nprobe: None };
    for (rows, after_add) in [(16_384, indexed), (4_096, ResolvedScan::Direct)] {
        let (versioned, updater) = served_neardup(rows);
        let resolved = || versioned.load().resolved_strategy();
        let mean_radius = || versioned.load().index().unwrap().stats().mean_radius;
        assert_eq!(resolved(), indexed, "{rows} rows at provisioning");
        assert!(
            mean_radius() <= 8_192 / 32,
            "{rows} rows: {}",
            mean_radius()
        );
        updater.retire_class(ClassId(rows / 2)).unwrap();
        assert_eq!(resolved(), indexed, "{rows} rows after one retire");
        let dim = versioned.load().dim();
        updater
            .add_class("random", Hypervector::random(dim, 0xADD))
            .unwrap();
        assert_eq!(resolved(), after_add, "{rows} rows after one random add");
        assert_eq!(
            mean_radius() <= 8_192 / 32,
            after_add != ResolvedScan::Direct,
            "{rows} rows: the mean radius {} decides the tight-radius arm",
            mean_radius()
        );
    }
}
