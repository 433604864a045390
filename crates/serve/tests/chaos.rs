//! The chaos suite: sweep every [`ChaosFault`] across several seeds at a
//! live server and hold it to the contract — never a panic, never a
//! leaked thread, and every surviving connection still answered with a
//! result or a typed error.

use std::time::Duration;

use ham_core::explore::{random_memory, DesignKind};
use ham_core::resilience::PRIORITY_NORMAL;
use ham_serve::frame::{STATUS_BAD_PAYLOAD_CRC, STATUS_OK, STATUS_OVERSIZED, STATUS_WRONG_VERSION};
use ham_serve::{
    ChaosFault, ChaosOutcome, ChaosTransport, HamClient, ServeConfig, Server, SlotResult,
    TenantSpec,
};
use hdc::prelude::*;

const DIM: usize = 1_024;
const TENANT: u16 = 1;

fn chaos_config() -> ServeConfig {
    ServeConfig {
        // Short read timeout so slow-loris and half-open sockets are
        // reaped quickly instead of holding connection threads for the
        // default 2 s each.
        read_timeout: Duration::from_millis(300),
        drain_grace: Duration::from_secs(3),
        ..ServeConfig::default()
    }
}

fn start_server() -> (Server, AssociativeMemory) {
    let memory = random_memory(8, DIM, 0xC4405);
    let server = Server::start(
        chaos_config(),
        vec![TenantSpec::new(
            TENANT,
            "chaos-target",
            DesignKind::Digital,
            memory.clone(),
        )],
    )
    .unwrap();
    (server, memory)
}

/// One healthy request proving the server still serves correctly.
fn healthy_probe(server: &Server, memory: &AssociativeMemory) {
    let mut client = HamClient::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let query = memory.row(ClassId(2)).unwrap().clone();
    let response = client
        .request(TENANT, PRIORITY_NORMAL, None, &[query])
        .unwrap();
    assert_eq!(response.status, STATUS_OK);
    match &response.slots[0] {
        SlotResult::Hit {
            class, distance, ..
        } => {
            assert_eq!(*class, 2);
            assert_eq!(*distance, 0, "exact row lookup has distance zero");
        }
        other => panic!("healthy probe degraded: {other:?}"),
    }
}

#[test]
fn full_fault_sweep_over_seeds_yields_typed_outcomes_and_a_healthy_server() {
    let (server, memory) = start_server();

    for seed in [1u64, 0xDEAD_BEEF, 0x5EED_5EED_5EED] {
        let mut chaos = ChaosTransport::new(server.local_addr(), TENANT, DIM, seed);
        for fault in ChaosFault::ALL {
            let outcome = chaos
                .inject(fault)
                .unwrap_or_else(|e| panic!("injector i/o failed for {fault:?}: {e}"));
            match fault {
                // The three answerable faults: typed reject with the
                // status the protocol pins to each.
                ChaosFault::WrongVersion => assert_eq!(
                    outcome,
                    ChaosOutcome::Rejected {
                        status: STATUS_WRONG_VERSION,
                        connection_survived: false,
                    },
                    "seed {seed:#x}"
                ),
                ChaosFault::OversizedLength => assert_eq!(
                    outcome,
                    ChaosOutcome::Rejected {
                        status: STATUS_OVERSIZED,
                        connection_survived: false,
                    },
                    "seed {seed:#x}"
                ),
                ChaosFault::BadPayloadCrc => assert_eq!(
                    outcome,
                    ChaosOutcome::Rejected {
                        status: STATUS_BAD_PAYLOAD_CRC,
                        // Framing stayed aligned, so the connection must
                        // keep serving after the reject.
                        connection_survived: true,
                    },
                    "seed {seed:#x}"
                ),
                // Frame-desync garbage: the server silently closes a
                // stream it can no longer trust.
                ChaosFault::TruncatedHeader
                | ChaosFault::TruncatedPayload
                | ChaosFault::GarbageHeader
                | ChaosFault::BadMagic
                | ChaosFault::BadHeaderCrc => {
                    assert_eq!(outcome, ChaosOutcome::Closed, "{fault:?} seed {seed:#x}")
                }
                // The stalls: the injector abandons, the server's read
                // timeout reaps.
                ChaosFault::SlowLoris | ChaosFault::HalfOpen => {
                    assert_eq!(outcome, ChaosOutcome::Abandoned, "{fault:?} seed {seed:#x}")
                }
            }
            // After *every* fault the server still answers a healthy
            // client, exactly.
            healthy_probe(&server, &memory);
        }
    }

    // 30 faults + 33 healthy/survival probes later: drain joins every
    // thread the chaos ever provoked. The server counts its own spawns,
    // so threads of concurrently running tests cannot disturb the check.
    let report = server.drain();
    assert_eq!(report.accept_loops_joined, 2);
    assert_eq!(
        report.connections_at_drain,
        report.drained_gracefully + report.forced_shutdowns
    );
    assert!(report.connection_threads_joined > 0);
    assert_eq!(
        report.threads_spawned,
        report.accept_loops_joined + report.connection_threads_joined,
        "chaos leaked threads: {report:?}"
    );
}

#[test]
fn concurrent_chaos_and_legitimate_traffic_coexist() {
    // Hostile injectors and honest clients hammer the server at the
    // same time; every honest request must come back STATUS_OK with the
    // exact answer while the chaos rages.
    let (server, memory) = start_server();
    let addr = server.local_addr();

    let chaos_threads: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let mut chaos = ChaosTransport::new(addr, TENANT, DIM, 0xABCD + i);
                for _ in 0..3 {
                    for fault in ChaosFault::ALL {
                        // I/O errors under contention are acceptable
                        // here; panics are not.
                        let _ = chaos.inject(fault);
                    }
                }
            })
        })
        .collect();

    let honest_threads: Vec<_> = (0..2)
        .map(|_| {
            let memory = memory.clone();
            std::thread::spawn(move || {
                let mut client = HamClient::connect(addr, Duration::from_secs(10)).unwrap();
                for round in 0..30 {
                    let class = ClassId(round % 8);
                    let query = memory.row(class).unwrap().clone();
                    let response = client
                        .request(TENANT, PRIORITY_NORMAL, None, &[query])
                        .unwrap();
                    assert_eq!(response.status, STATUS_OK);
                    match &response.slots[0] {
                        SlotResult::Hit { class: hit, .. } => {
                            assert_eq!(*hit as usize, class.0)
                        }
                        other => panic!("honest query degraded under chaos: {other:?}"),
                    }
                }
            })
        })
        .collect();

    for handle in chaos_threads {
        handle.join().expect("chaos thread must never panic");
    }
    for handle in honest_threads {
        handle.join().expect("honest traffic survived the storm");
    }

    let stats = server.tenant_stats(TENANT).unwrap();
    assert!(stats.completed >= 60, "all honest queries completed");
    let report = server.drain();
    assert!(report.flush_failures.is_empty());
}

#[test]
fn chaos_replays_deterministically_from_the_seed() {
    // Same seed, same fault order ⇒ byte-identical injector behaviour,
    // so the observed outcome sequence is identical run to run. (The
    // injector's randomness is SplitMix64 from the seed alone.)
    let (server, _memory) = start_server();
    let run = |seed: u64| -> Vec<ChaosOutcome> {
        let mut chaos = ChaosTransport::new(server.local_addr(), TENANT, DIM, seed);
        ChaosFault::ALL
            .iter()
            .map(|&fault| chaos.inject(fault).unwrap())
            .collect()
    };
    let first = run(42);
    let second = run(42);
    assert_eq!(first, second);
    server.drain();
}
