//! End-to-end loopback integration: a real TCP server, real clients,
//! and the acceptance criteria of the serving front end —
//! wire-to-engine correctness, deadline propagation, tenant isolation,
//! drain with zero leaked threads, and bit-identical warm restart.

use std::time::{Duration, Instant};

use ham_core::explore::{build, random_memory, DesignKind};
use ham_core::resilience::{QueryBudget, ResilientOptions, PRIORITY_HIGH, PRIORITY_NORMAL};
use ham_serve::frame::{STATUS_DRAINING, STATUS_OK, STATUS_QUOTA_EXCEEDED, STATUS_UNKNOWN_TENANT};
use ham_serve::{BootSource, HamClient, QuotaPolicy, ServeConfig, Server, SlotResult, TenantSpec};
use hdc::prelude::*;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn test_config() -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_millis(500),
        drain_grace: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

fn spec(tenant: u16, classes: usize, dim: usize, seed: u64) -> TenantSpec {
    TenantSpec::new(
        tenant,
        format!("tenant-{tenant}"),
        DesignKind::Digital,
        random_memory(classes, dim, seed),
    )
}

#[test]
fn served_answers_match_the_direct_engine_bit_for_bit() {
    let memory = random_memory(10, 2_000, 51);
    let server = Server::start(test_config(), vec![spec(1, 10, 2_000, 51)]).unwrap();
    // The tenant spec regenerates the same seeded memory, so a direct
    // engine over `memory` is the reference.
    let design = build(DesignKind::Digital, &memory).unwrap();

    let mut client = HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap();
    let queries: Vec<Hypervector> = (0..10)
        .map(|i| memory.row(ClassId(i)).unwrap().clone())
        .collect();
    let response = client.request(1, PRIORITY_NORMAL, None, &queries).unwrap();
    assert_eq!(response.status, STATUS_OK);
    assert_eq!(response.slots.len(), 10);
    for (i, slot) in response.slots.iter().enumerate() {
        let expected = design.search(&queries[i]).unwrap();
        match slot {
            SlotResult::Hit {
                class, distance, ..
            } => {
                assert_eq!(*class as usize, expected.class.0);
                assert_eq!(*distance as usize, expected.measured_distance.as_usize());
            }
            other => panic!("slot {i} not a hit: {other:?}"),
        }
    }
    let report = server.drain();
    assert_eq!(report.connection_threads_joined as u64, 1);
}

#[test]
fn expired_wire_deadline_is_shed_with_typed_timeouts() {
    let server = Server::start(test_config(), vec![spec(2, 8, 1_024, 52)]).unwrap();
    let memory = random_memory(8, 1_024, 52);
    let mut client = HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap();
    let queries: Vec<Hypervector> = (0..16)
        .map(|i| memory.row(ClassId(i % 8)).unwrap().clone())
        .collect();

    // Zero remaining budget: every slot is a typed timeout; the
    // engine's fast path sheds the batch without touching a worker.
    let response = client
        .request(2, PRIORITY_NORMAL, Some(Duration::ZERO), &queries)
        .unwrap();
    assert_eq!(response.status, STATUS_OK);
    assert!(response.slots.iter().all(|s| *s == SlotResult::TimedOut));

    // A generous deadline serves the same connection normally —
    // the timeout shed neither poisoned the tenant nor the stream.
    let response = client
        .request(2, PRIORITY_NORMAL, Some(Duration::from_secs(10)), &queries)
        .unwrap();
    assert_eq!(response.status, STATUS_OK);
    assert!(response
        .slots
        .iter()
        .all(|s| matches!(s, SlotResult::Hit { .. })));

    let stats = server.tenant_stats(2).unwrap();
    assert_eq!(stats.timed_out, 16);
    assert_eq!(stats.completed, 16);
    server.drain();
}

#[test]
fn unknown_tenants_and_quota_exhaustion_reject_without_engine_work() {
    let quota = QuotaPolicy {
        burst: 8.0,
        per_second: 0.001, // effectively no refill within the test
    };
    let server = Server::start(test_config(), vec![spec(3, 6, 512, 53).with_quota(quota)]).unwrap();
    let memory = random_memory(6, 512, 53);
    let mut client = HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap();
    let query = vec![memory.row(ClassId(0)).unwrap().clone()];

    // Unprovisioned tenant: typed reject, connection survives.
    let response = client.request(99, PRIORITY_NORMAL, None, &query).unwrap();
    assert_eq!(response.status, STATUS_UNKNOWN_TENANT);

    // Burn the 8-query burst, then the bucket is dry.
    for _ in 0..8 {
        let response = client.request(3, PRIORITY_NORMAL, None, &query).unwrap();
        assert_eq!(response.status, STATUS_OK);
    }
    let response = client.request(3, PRIORITY_NORMAL, None, &query).unwrap();
    assert_eq!(response.status, STATUS_QUOTA_EXCEEDED);

    // Quota rejections are load control: the tenant's health is intact
    // and the same connection still serves once tokens exist (none do
    // here, so just assert the stats took the rejection).
    let stats = server.tenant_stats(3).unwrap();
    assert_eq!(stats.quota_rejected, 1);
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.health, ham_core::resilience::HealthState::Healthy);
    server.drain();
}

#[test]
fn high_priority_is_quota_rejected_once_the_burst_is_drained() {
    let quota = QuotaPolicy {
        burst: 4.0,
        per_second: 0.001, // effectively no refill within the test
    };
    let server =
        Server::start(test_config(), vec![spec(13, 6, 512, 63).with_quota(quota)]).unwrap();
    let memory = random_memory(6, 512, 63);
    let mut client = HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap();
    let query = vec![memory.row(ClassId(0)).unwrap().clone()];

    for _ in 0..4 {
        let response = client.request(13, PRIORITY_NORMAL, None, &query).unwrap();
        assert_eq!(response.status, STATUS_OK);
    }
    // The bucket is dry: the top priority is still a typed quota reject.
    let response = client.request(13, PRIORITY_HIGH, None, &query).unwrap();
    assert_eq!(response.status, STATUS_QUOTA_EXCEEDED);

    let stats = server.tenant_stats(13).unwrap();
    assert_eq!(stats.quota_rejected, 1);
    assert_eq!(stats.completed, 4);
    server.drain();
}

#[test]
fn noisy_tenant_sheds_while_quiet_tenant_completes() {
    // Tenant 10 has a tiny quota; tenant 11 is unconstrained. Drive 10
    // far past its quota interleaved with 11's traffic: every one of
    // 11's requests completes, 10's overflow is typed quota rejection.
    let server = Server::start(
        test_config(),
        vec![
            spec(10, 6, 1_024, 60).with_quota(QuotaPolicy {
                burst: 4.0,
                per_second: 0.001,
            }),
            spec(11, 6, 1_024, 61),
        ],
    )
    .unwrap();
    let noisy_memory = random_memory(6, 1_024, 60);
    let quiet_memory = random_memory(6, 1_024, 61);
    let mut noisy = HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap();
    let mut quiet = HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap();

    let mut noisy_ok = 0;
    let mut noisy_quota = 0;
    for i in 0..20 {
        let nq = vec![noisy_memory.row(ClassId(i % 6)).unwrap().clone()];
        match noisy
            .request(10, PRIORITY_NORMAL, None, &nq)
            .unwrap()
            .status
        {
            STATUS_OK => noisy_ok += 1,
            STATUS_QUOTA_EXCEEDED => noisy_quota += 1,
            other => panic!("unexpected status {other}"),
        }
        let qq = vec![quiet_memory.row(ClassId(i % 6)).unwrap().clone()];
        let response = quiet.request(11, PRIORITY_NORMAL, None, &qq).unwrap();
        assert_eq!(response.status, STATUS_OK, "quiet tenant isolated");
        assert!(matches!(response.slots[0], SlotResult::Hit { .. }));
    }
    assert_eq!(noisy_ok, 4, "exactly the burst was admitted");
    assert_eq!(noisy_quota, 16);
    let quiet_stats = server.tenant_stats(11).unwrap();
    assert_eq!(quiet_stats.completed, 20);
    assert_eq!(quiet_stats.quota_rejected, 0);
    server.drain();
}

#[test]
fn drain_rejects_new_work_joins_every_thread_and_reports_it() {
    let server = Server::start(test_config(), vec![spec(4, 6, 512, 54)]).unwrap();
    let memory = random_memory(6, 512, 54);

    // Touch the server so connection threads exist, and keep the
    // clients alive across the drain (their sockets will be forced).
    let mut clients: Vec<HamClient> = (0..3)
        .map(|_| HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap())
        .collect();
    for client in &mut clients {
        let query = vec![memory.row(ClassId(1)).unwrap().clone()];
        assert_eq!(
            client
                .request(4, PRIORITY_NORMAL, None, &query)
                .unwrap()
                .status,
            STATUS_OK
        );
    }

    let addr = server.local_addr();
    let report = server.drain();
    assert_eq!(report.accept_loops_joined, 2);
    assert_eq!(report.connection_threads_joined, 3);
    assert_eq!(
        report.connections_at_drain,
        report.drained_gracefully + report.forced_shutdowns
    );
    // Zero orphans: every thread the server spawned was joined. The
    // count is the server's own, so threads of concurrently running
    // tests cannot disturb it.
    assert_eq!(
        report.threads_spawned,
        report.accept_loops_joined + report.connection_threads_joined,
        "drain leaked threads: {report:?}"
    );

    // Post-drain: the port no longer accepts (allow the OS a moment).
    std::thread::sleep(Duration::from_millis(50));
    assert!(HamClient::connect(addr, Duration::from_millis(200)).is_err());
}

#[test]
fn drain_wakes_every_blocked_accept_loop_promptly() {
    // Four accept loops blocked in `accept` with nothing to accept, on an
    // unspecified address: the drain wakes them over loopback.
    let config = ServeConfig {
        addr: "0.0.0.0:0".parse().unwrap(),
        accept_threads: 4,
        ..test_config()
    };
    let server = Server::start(config, vec![spec(8, 4, 256, 58)]).unwrap();
    let started = Instant::now();
    let report = server.drain();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
    assert_eq!(report.accept_loops_joined, 4);
    assert_eq!(report.connection_threads_joined, 0);
    assert_eq!(report.threads_spawned, 4, "{report:?}");
}

#[test]
fn dropping_a_server_without_drain_stops_serving() {
    let server = Server::start(test_config(), vec![spec(9, 4, 256, 59)]).unwrap();
    let memory = random_memory(4, 256, 59);
    let query = vec![memory.row(ClassId(0)).unwrap().clone()];
    let addr = server.local_addr();
    let mut open = HamClient::connect(addr, CLIENT_TIMEOUT).unwrap();
    assert_eq!(
        open.request(9, PRIORITY_NORMAL, None, &query)
            .unwrap()
            .status,
        STATUS_OK
    );

    drop(server);
    // The open connection was shut, and the listener is closed: a new
    // client is refused, or at worst closed without an answer.
    assert!(open.request(9, PRIORITY_NORMAL, None, &query).is_err());
    if let Ok(mut late) = HamClient::connect(addr, Duration::from_millis(500)) {
        let answer = late.request(9, PRIORITY_NORMAL, None, &query);
        assert!(answer.is_err(), "a dropped server answered: {answer:?}");
    }
}

#[test]
fn draining_server_answers_open_connections_with_typed_draining() {
    // A connection opened *before* the drain but sending *after* it
    // must get STATUS_DRAINING, not a hang or a panic. Use a long
    // drain grace so the drain is still in its grace window when the
    // late request lands.
    let config = ServeConfig {
        drain_grace: Duration::from_secs(3),
        read_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let server = Server::start(config, vec![spec(5, 5, 512, 55)]).unwrap();
    let memory = random_memory(5, 512, 55);
    let mut client = HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap();
    let query = vec![memory.row(ClassId(0)).unwrap().clone()];
    assert_eq!(
        client
            .request(5, PRIORITY_NORMAL, None, &query)
            .unwrap()
            .status,
        STATUS_OK
    );

    let drainer = std::thread::spawn(move || server.drain());
    // Give the drain a moment to flip the flag, then send on the
    // still-open connection.
    std::thread::sleep(Duration::from_millis(100));
    let response = client.request(5, PRIORITY_HIGH, None, &query).unwrap();
    assert_eq!(response.status, STATUS_DRAINING);
    let report = drainer.join().unwrap();
    assert!(report.connections_at_drain >= 1);
}

#[test]
fn warm_restart_replays_the_drained_snapshot_bit_identically() {
    let dir = std::env::temp_dir().join(format!("ham-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = || ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..test_config()
    };

    // Boot fresh, serve, drain (flushes one snapshot per tenant).
    let server = Server::start(config(), vec![spec(6, 8, 1_024, 56)]).unwrap();
    let tenant = server.tenants().get(6).unwrap();
    assert_eq!(tenant.boot_source(), &BootSource::Fresh);
    // Publish an online update so the flushed state differs from the
    // spec memory — the restart must replay the *served* state.
    let memory = tenant.served_memory();
    let mut updated = memory.clone();
    updated
        .replace_row(ClassId(0), Hypervector::random(memory.dim(), 777))
        .unwrap();
    tenant.versioned().publish(updated.clone());
    // One request forces the engine rebuild onto the new epoch.
    let mut client = HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap();
    let query = vec![updated.row(ClassId(3)).unwrap().clone()];
    assert_eq!(
        client
            .request(6, PRIORITY_NORMAL, None, &query)
            .unwrap()
            .status,
        STATUS_OK
    );
    let served = tenant.served_memory();
    let report = server.drain();
    assert_eq!(report.snapshots_flushed, 1);
    assert!(report.flush_failures.is_empty());

    // Restart over the same dir: warm boot, bit-identical rows,
    // including the online update.
    let restarted = Server::start(config(), vec![spec(6, 8, 1_024, 56)]).unwrap();
    let tenant = restarted.tenants().get(6).unwrap();
    assert_eq!(
        tenant.boot_source(),
        &BootSource::WarmRestart {
            corrupted_rows_repaired: 0,
            wal_records_replayed: 0,
            wal_torn_tail: false,
        }
    );
    let replayed = tenant.served_memory();
    assert_eq!(replayed.len(), served.len());
    for (class, _, row) in served.iter() {
        assert_eq!(replayed.row(class), Some(row), "row {class:?} differs");
    }
    assert_eq!(replayed.row(ClassId(0)), updated.row(ClassId(0)));
    restarted.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_right_after_an_online_update_is_never_lossy() {
    let dir = std::env::temp_dir().join(format!("ham-serve-drainupd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = || ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..test_config()
    };

    let server = Server::start(config(), vec![spec(9, 8, 1_024, 59)]).unwrap();
    let tenant = server.tenants().get(9).unwrap();
    let dim = tenant.served_memory().dim();
    // Publish durable updates through the tenant's WAL-wired updater and
    // drain IMMEDIATELY — no request ever compiles the new epoch into
    // the serving engine, which is exactly the state the old
    // engine-view flush lost.
    let updater = tenant.updater();
    let replacement = Hypervector::random(dim, 4_242);
    updater
        .rethreshold_row(ClassId(1), replacement.clone())
        .unwrap();
    let (added, _) = updater
        .add_class("late-arrival", Hypervector::random(dim, 4_343))
        .unwrap();
    let expected = tenant.versioned().load().memory().clone();
    let report = server.drain();
    assert_eq!(report.snapshots_flushed, 1);
    assert!(report.flush_failures.is_empty());

    // Restart: every acknowledged update is there, bit for bit.
    let restarted = Server::start(config(), vec![spec(9, 8, 1_024, 59)]).unwrap();
    let tenant = restarted.tenants().get(9).unwrap();
    let replayed = tenant.served_memory();
    assert_eq!(replayed.len(), expected.len());
    for (class, label, row) in expected.iter() {
        assert_eq!(replayed.label(class), Some(label), "{class:?}");
        assert_eq!(replayed.row(class), Some(row), "{class:?}");
    }
    assert_eq!(replayed.row(ClassId(1)), Some(replacement));
    assert_eq!(replayed.label(added), Some("late-arrival"));
    restarted.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_without_drain_recovers_acknowledged_updates_from_the_wal() {
    let dir = std::env::temp_dir().join(format!("ham-serve-crashwal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = || ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..test_config()
    };

    // Boot a tenant (no TCP side needed for the crash path), update
    // durably, then "crash": drop the state WITHOUT draining, so no
    // snapshot is ever flushed — the WAL alone must carry the updates.
    let tenant = ham_serve::TenantState::provision(
        spec(10, 8, 1_024, 60),
        ResilientOptions::serial(),
        Some(&dir),
    )
    .unwrap();
    let dim = tenant.served_memory().dim();
    let updater = tenant.updater();
    let replacement = Hypervector::random(dim, 5_151);
    updater
        .rethreshold_row(ClassId(3), replacement.clone())
        .unwrap();
    updater
        .add_class("survivor", Hypervector::random(dim, 5_252))
        .unwrap();
    let expected = tenant.versioned().load().memory().clone();
    drop(tenant);
    assert!(
        !dir.join("tenant-10.ham").exists(),
        "no snapshot was flushed — this is the crash path"
    );

    // A full server restart over the same directory picks the WAL up.
    let restarted = Server::start(config(), vec![spec(10, 8, 1_024, 60)]).unwrap();
    let tenant = restarted.tenants().get(10).unwrap();
    match tenant.boot_source() {
        BootSource::WarmRestart {
            wal_records_replayed,
            wal_torn_tail,
            ..
        } => {
            assert_eq!(
                *wal_records_replayed, 2,
                "both acknowledged updates replayed"
            );
            assert!(!wal_torn_tail);
        }
        other => panic!("expected WAL warm restart, got {other:?}"),
    }
    let replayed = tenant.served_memory();
    assert_eq!(replayed.len(), expected.len());
    for (class, label, row) in expected.iter() {
        assert_eq!(replayed.label(class), Some(label), "{class:?}");
        assert_eq!(replayed.row(class), Some(row), "{class:?}");
    }
    restarted.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_snapshot_trailer_still_replays_acknowledged_updates() {
    let dir = std::env::temp_dir().join(format!("ham-serve-trailer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Checkpoint once (the snapshot gets its covered-LSN trailer), then
    // land two more acknowledged updates that only the WAL holds.
    let tenant = ham_serve::TenantState::provision(
        spec(12, 8, 1_024, 62),
        ResilientOptions::serial(),
        Some(&dir),
    )
    .unwrap();
    let dim = tenant.served_memory().dim();
    let updater = tenant.updater();
    updater
        .rethreshold_row(ClassId(2), Hypervector::random(dim, 6_161))
        .unwrap();
    tenant.flush_snapshot(&dir).unwrap();
    let replacement = Hypervector::random(dim, 6_262);
    updater
        .rethreshold_row(ClassId(4), replacement.clone())
        .unwrap();
    updater
        .add_class("post-checkpoint", Hypervector::random(dim, 6_363))
        .unwrap();
    let expected = tenant.versioned().load().memory().clone();
    drop(updater);
    drop(tenant);

    // Damage the snapshot's trailer CRC. The warm restart must fall
    // back to the checkpoint watermark in the WAL segment headers and
    // still replay the acknowledged post-checkpoint updates — not
    // silently serve the stale checkpoint state.
    let path = dir.join("tenant-12.ham");
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let restarted = ham_serve::TenantState::provision(
        spec(12, 8, 1_024, 62),
        ResilientOptions::serial(),
        Some(&dir),
    )
    .unwrap();
    match restarted.boot_source() {
        BootSource::WarmRestart {
            wal_records_replayed,
            wal_torn_tail,
            ..
        } => {
            assert_eq!(
                *wal_records_replayed, 2,
                "post-checkpoint updates replayed despite the damaged trailer"
            );
            assert!(!wal_torn_tail);
        }
        other => panic!("expected WAL warm restart, got {other:?}"),
    }
    let replayed = restarted.served_memory();
    assert_eq!(replayed.len(), expected.len());
    for (class, label, row) in expected.iter() {
        assert_eq!(replayed.label(class), Some(label), "{class:?}");
        assert_eq!(replayed.row(class), Some(row), "{class:?}");
    }
    assert_eq!(replayed.row(ClassId(4)), Some(replacement));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_snapshot_rows_fall_back_to_golden_on_warm_restart() {
    let dir = std::env::temp_dir().join(format!("ham-serve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = || ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..test_config()
    };
    let server = Server::start(config(), vec![spec(7, 6, 512, 57)]).unwrap();
    let golden = server.tenants().get(7).unwrap().served_memory();
    server.drain();

    // Flip bits inside one row's on-disk record (past the header).
    let path = dir.join("tenant-7.ham");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    bytes[mid + 1] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let restarted = Server::start(config(), vec![spec(7, 6, 512, 57)]).unwrap();
    let tenant = restarted.tenants().get(7).unwrap();
    match tenant.boot_source() {
        BootSource::WarmRestart {
            corrupted_rows_repaired,
            ..
        } => assert!(
            *corrupted_rows_repaired >= 1,
            "the damaged row was repaired from golden"
        ),
        other => panic!("expected warm restart, got {other:?}"),
    }
    // Every row is golden again: damage fell back to the scrub source.
    let replayed = tenant.served_memory();
    for (class, _, row) in golden.iter() {
        assert_eq!(replayed.row(class), Some(row));
    }
    restarted.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_serves_under_parallel_schedules_and_empty_batches_are_rejected_client_side() {
    let config = ServeConfig {
        options: ResilientOptions::default()
            .with_budget(QueryBudget::per_batch(Duration::from_secs(30))),
        ..test_config()
    };
    let server = Server::start(config, vec![spec(8, 12, 2_000, 58)]).unwrap();
    let memory = random_memory(12, 2_000, 58);
    let mut client = HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap();
    let queries: Vec<Hypervector> = (0..48)
        .map(|i| memory.row(ClassId(i % 12)).unwrap().clone())
        .collect();
    let response = client.request(8, PRIORITY_NORMAL, None, &queries).unwrap();
    assert_eq!(response.status, STATUS_OK);
    assert_eq!(response.slots.len(), 48);
    assert!(client.request(8, PRIORITY_NORMAL, None, &[]).is_err());
    server.drain();
}
