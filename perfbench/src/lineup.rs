//! The traced run: the per-layer lineup. Every timed step is one call
//! from this crate into a layer's public function, wrapped in a span;
//! the per-layer metrics are read back from the spans. The counts
//! (ladder shares, scan counters, index rebuilds, oracle agreement) are
//! exact and repeat for a seed.
//!
//! Which end-to-end metric each layer metric should move, and on which
//! workload, is tabled in the benchmark's README.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use ham_core::explore::DesignKind;
use ham_core::model::HamDesign;
use ham_core::resilience::snapshot::{load_snapshot, save_snapshot};
use ham_core::resilience::wal::{Wal, WalOptions, WalRecord};
use ham_core::resilience::{
    DegradationPolicy, EngineStage, QueryBudget, QueryOutcome, ResilientOptions, ResilientServer,
    Scrubber, PRIORITY_NORMAL,
};
use ham_core::shard::UpdateOp;
use ham_core::{ensure_indexed, DHam, IndexPolicy};
use ham_serve::frame::{
    decode_query_batch, encode_request, encode_response, read_request_header, read_response,
    write_frame, DEADLINE_UNBOUNDED_US, REQUEST_HEADER_LEN, STATUS_OK,
};
use ham_serve::{Server, SlotResult, TenantState};
use hdc::prelude::*;

use crate::drive::{apply_update, ratio};
use crate::heap::LIVE_BYTES;
use crate::inputs::{Inputs, Update, BATCH, TENANT};
use crate::oracle::Oracle;
use crate::run::{ask, config, connect, fresh_dir, Outcome, Tally};
use crate::stats::{quantile, Samples};
use crate::trace::Tracer;

/// The mean, not a percentile: an unfair lock lets one caller re-take it
/// back to back, so the wait concentrates in a few long calls that a
/// median would skip.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn p50(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Ladder rung counts of in-process serves.
#[derive(Debug, Default)]
struct Ladder {
    stages: [u64; 4],
    escalations: u64,
}

impl Ladder {
    fn observe(&mut self, outcome: &QueryOutcome) {
        let rung = match outcome.final_engine {
            EngineStage::Primary => 0,
            EngineStage::Resample => 1,
            EngineStage::Widened => 2,
            EngineStage::Exact => 3,
        };
        self.stages[rung] += 1;
        self.escalations += outcome.escalations as u64;
    }

    fn total(&self) -> u64 {
        self.stages.iter().sum()
    }
}

/// The traced run's recorders (spans, the operation tally, the ladder
/// counts) and the in-process tenant they probe.
struct Probe<'a> {
    tracer: Tracer,
    tally: Tally,
    ladder: Ladder,
    tenant: &'a TenantState,
}

impl Probe<'_> {
    /// Serves pool query `q` in process inside a span and checks it:
    /// every Exact-rung answer must equal the oracle bit for bit (class,
    /// distance, margin). With `count`, the rung joins the ladder shares.
    fn serve(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        oracle: &Oracle,
        q: usize,
        count: bool,
    ) {
        self.tally.attempted += 1;
        let query = std::slice::from_ref(oracle.query(q));
        let report = self.tracer.span(name, parent, request, || {
            self.tenant
                .serve(query, PRIORITY_NORMAL, QueryBudget::unbounded())
        });
        let outcome = match report.map(|r| r.outcomes.into_iter().next()) {
            Ok(Some(Ok(outcome))) => outcome,
            other => return self.tally.fail(|| format!("{name} query {q}: {other:?}")),
        };
        let exact = oracle.nearest(q);
        if outcome.final_engine == EngineStage::Exact
            && (outcome.result.class.0 != exact.class
                || outcome.result.measured_distance.as_usize() != exact.distance
                || outcome.margin != exact.margin())
        {
            return self
                .tally
                .fail(|| format!("{name} query {q}: exact rung {outcome:?} vs {exact:?}"));
        }
        if count {
            self.tally.answered += 1;
            if outcome.result.class.0 == exact.class {
                self.tally.agree += 1;
            }
            self.ladder.observe(&outcome);
        }
    }
}

pub fn run(inputs: &Inputs, run_dir: &Path, spans_path: &Path) -> Result<Outcome, String> {
    // The untraced run first, in full: its `query_p50_us` is what the
    // lineup must add up to, and what the traced round trip is compared
    // against for the tracing overhead.
    let untraced = crate::drive::run(inputs, &fresh_dir(run_dir.join("untraced"))?)?;
    let untraced_rtt = untraced
        .metric("query_p50_us")
        .ok_or("the untraced run reports query_p50_us")?;
    let sizes = inputs.sizes;
    let dim = inputs.dim();
    let rows = inputs.memory.len();
    let mut oracle = Oracle::new(inputs.rows(), inputs.pool.clone(), inputs.planned_adds);
    let mut tracer = Tracer::with_capacity(16 * sizes.trace_queries + 1_024);
    let options = ResilientOptions::default();
    let queries: Vec<usize> = (0..sizes.trace_queries)
        .map(|i| inputs.latency[i % inputs.latency.len()])
        .collect();

    // Tenant provisioning, in process. The first tenant stays: every
    // in-process pass below serves from it.
    let spec = inputs.spec();
    let heap_before = LIVE_BYTES.load(Ordering::SeqCst);
    let local = tracer
        .span("tenant.provision", None, 0, || {
            TenantState::provision(spec, options, None)
        })
        .map_err(|e| format!("provision: {e}"))?;
    let heap_growth = LIVE_BYTES.load(Ordering::SeqCst) - heap_before;
    for _ in 1..sizes.trace_repeats {
        let spec = inputs.spec();
        let extra = tracer.span("tenant.provision", None, 0, || {
            TenantState::provision(spec, options, None)
        });
        drop(extra.map_err(|e| format!("provision: {e}"))?);
    }

    // Engine construction: the golden-copy scrubber plus the controller.
    let mut engine = None;
    for _ in 0..sizes.trace_repeats {
        let memory = inputs.memory.clone();
        let built = tracer.span("engine.build", None, 0, || {
            let scrubber = Scrubber::from_memory(&memory);
            ResilientServer::new(
                DesignKind::Digital,
                memory,
                scrubber,
                DegradationPolicy::for_dim(dim),
            )
            .map(|server| server.with_options(options))
        });
        engine = Some(built.map_err(|e| format!("engine: {e}"))?);
    }
    let mut engine = engine.ok_or("at least one engine build")?;
    let mut p = Probe {
        tracer,
        tally: Tally::default(),
        ladder: Ladder::default(),
        tenant: &local,
    };

    // The same queries through a real server first, then through the
    // parts of its round trip one query at a time, then the primary rung
    // and the exact kernel each in a pass of their own. Spans of one
    // query share its request id across passes.
    let state = fresh_dir(run_dir.join("state"))?;
    let server =
        Server::start(config(&state), vec![inputs.spec()]).map_err(|e| format!("start: {e}"))?;
    let mut client = connect(server.local_addr())?;
    for &q in &inputs.warmup {
        ask(&mut client, std::slice::from_ref(oracle.query(q))).map_err(|e| e.to_string())?;
    }
    let mut answers = Vec::with_capacity(queries.len());
    for (r, &q) in queries.iter().enumerate() {
        let answer = p.tracer.span("client.request", None, r as u64, || {
            ask(&mut client, std::slice::from_ref(oracle.query(q)))
        });
        answers.push(answer);
    }
    for (answer, &q) in answers.iter().zip(&queries) {
        p.tally.read(&oracle, inputs, &[q], answer);
    }
    let slots: Vec<SlotResult> = answers
        .iter()
        .map(|answer| match answer {
            Ok(response) => response
                .slots
                .first()
                .copied()
                .unwrap_or(SlotResult::Failed),
            Err(_) => SlotResult::Failed,
        })
        .collect();
    drop(answers);
    let request_bytes = lineup_pass(&mut p, &oracle, &queries, &slots)?;
    let lineup_agree = ratio(p.tally.agree, p.tally.answered);
    let primary = DHam::with_sampling(&inputs.memory, (dim * 9 / 10).max(1))
        .map_err(|e| format!("primary rung: {e}"))?;
    for (r, &q) in queries.iter().enumerate() {
        let query = oracle.query(q);
        let rung = p.tracer.span("ladder.primary", None, r as u64, || {
            primary.search_with_margin(query)
        });
        p.tally.attempted += 1;
        if let Err(e) = rung {
            p.tally.fail(|| format!("primary rung: {e}"));
        }
    }
    drop(primary);
    let mut scan = ScanCounters::default();
    for (r, &q) in queries.iter().enumerate() {
        let query = oracle.query(q);
        let counted = p.tracer.span("kernel.exact", None, r as u64, || {
            inputs.memory.search_counted(query)
        });
        p.tally.attempted += 1;
        match counted {
            Ok((hit, counters)) => {
                scan.absorb(counters);
                let exact = oracle.nearest(q);
                if hit.class.0 != exact.class
                    || hit.distance.as_usize() != exact.distance
                    || hit.margin() != exact.margin()
                {
                    p.tally
                        .fail(|| format!("kernel query {q}: {hit:?} vs {exact:?}"));
                }
            }
            Err(e) => p.tally.fail(|| format!("kernel: {e}")),
        }
    }

    // Lock contention: the same queries from one caller, then from two
    // concurrent callers of the same tenant (the engine `Mutex`).
    let lock_queries: Vec<usize> = queries
        .iter()
        .copied()
        .cycle()
        .take(2 * sizes.trace_lock_queries)
        .collect();
    for &q in &lock_queries {
        p.serve("tenant.serve_1caller", None, 0, &oracle, q, false);
    }
    let halves: Vec<Vec<(Instant, Instant, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lock_queries
            .chunks(sizes.trace_lock_queries.max(1))
            .map(|half| {
                let (local, oracle) = (&local, &oracle);
                scope.spawn(move || {
                    half.iter()
                        .map(|&q| {
                            let started = Instant::now();
                            let report = local.serve(
                                std::slice::from_ref(oracle.query(q)),
                                PRIORITY_NORMAL,
                                QueryBudget::unbounded(),
                            );
                            let ok = matches!(report.map(|r| r.stats.completed), Ok(1));
                            (started, Instant::now(), ok)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving threads do not panic"))
            .collect()
    });
    for (caller, half) in halves.iter().enumerate() {
        for &(started, ended, ok) in half {
            p.tracer
                .record("tenant.serve_2callers", caller as u64, started, ended);
            p.tally.attempted += 1;
            if !ok {
                p.tally.fail(|| "two-caller serve failed".to_string());
            }
        }
    }

    // The batch executor: one query per call, then 64 per call.
    for &q in queries.iter().take(sizes.trace_lock_queries) {
        let query = std::slice::from_ref(oracle.query(q));
        p.tracer.span("engine.single", None, 0, || {
            engine.serve_with_budget(query, PRIORITY_NORMAL, QueryBudget::unbounded())
        });
    }
    for f in 0..sizes.trace_frames {
        let frame: Vec<Hypervector> = inputs.batches[f % inputs.batches.len()]
            .iter()
            .map(|&q| oracle.query(q).clone())
            .collect();
        let report = p.tracer.span("engine.batch", None, 0, || {
            engine.serve_with_budget(&frame, PRIORITY_NORMAL, QueryBudget::unbounded())
        });
        p.tally.attempted += BATCH as u64;
        if report.stats.completed != BATCH {
            p.tally.fail(|| format!("engine batch: {:?}", report.stats));
        }
    }
    drop(engine);

    // The write path, in process: delta publishes (no WAL) on the local
    // tenant, the same ops appended to a probe log, and the first serve
    // after each publish (engine rebuild) against a steady one.
    let updater = local.updater();
    let wal_dir = fresh_dir(run_dir.join("wal-probe"))?;
    let wal = Wal::open(&wal_dir, inputs.memory.dim(), WalOptions::default())
        .map_err(|e| format!("wal: {e}"))?;
    let mut publish = Samples::with_capacity(inputs.cycles.len());
    let mut index_rebuilds = 0u64;
    for (k, cycle) in inputs.cycles.iter().enumerate() {
        let record = wal_record(&oracle, &cycle.update)?;
        p.tally.attempted += 1;
        match apply_update(&updater, &mut oracle, &cycle.update) {
            Ok((started, ended)) => {
                publish.push(ended - started);
                p.tracer.record("publish.delta", k as u64, started, ended);
            }
            Err(why) => {
                p.tally.fail(|| why);
                continue;
            }
        }
        let version = local.versioned().load();
        if version.index().is_some_and(|index| index.dirty() == 0) {
            index_rebuilds += 1;
        }
        drop(version);
        let appended = p
            .tracer
            .span("wal.append", None, k as u64, || wal.append(&[record]));
        if let Err(e) = appended {
            p.tally.fail(|| format!("wal append: {e}"));
        }
        let q = cycle.reads[0];
        p.serve("tenant.serve_fresh", None, k as u64, &oracle, q, false);
        p.serve("tenant.serve_steady", None, k as u64, &oracle, q, false);
    }
    drop(wal);
    for _ in 0..sizes.trace_repeats {
        let version = local.versioned().load();
        let mut memory = p
            .tracer
            .span("memory.clone", None, 0, || version.memory().clone());
        p.tracer.span("index.ensure", None, 0, || {
            ensure_indexed(&mut memory, &IndexPolicy::default())
        });
    }
    let served = local.versioned().load().memory().clone();
    let snapshot = run_dir.join("probe.ham");
    for _ in 0..sizes.trace_repeats {
        let saved = p.tracer.span("snapshot.save", None, 0, || {
            save_snapshot(&served, &snapshot)
        });
        saved.map_err(|e| format!("snapshot save: {e}"))?;
    }
    let snapshot_bytes = std::fs::metadata(&snapshot)
        .map_err(|e| e.to_string())?
        .len();
    for _ in 0..sizes.trace_repeats {
        let loaded = p
            .tracer
            .span("snapshot.load", None, 0, || load_snapshot(&snapshot));
        let loaded = loaded.map_err(|e| format!("snapshot load: {e}"))?;
        p.tally.attempted += 1;
        if !loaded.corrupted.is_empty() || loaded.memory.len() != served.len() {
            p.tally.fail(|| "snapshot round trip".to_string());
        }
    }
    for _ in 0..sizes.trace_repeats {
        let mut memory = inputs.memory.clone();
        let replayed = p.tracer.span("wal.replay", None, 0, || {
            Wal::replay_into(&wal_dir, &mut memory, 0)
        });
        p.tally.attempted += 1;
        match replayed {
            Ok(_) if memory.iter().map(|(_, _, hv)| hv).eq(oracle.live_rows()) => {}
            other => p.tally.fail(|| format!("wal replay: {other:?}")),
        }
    }
    drop(client);
    server.drain();

    p.tracer
        .write_jsonl(spans_path)
        .map_err(|e| format!("write spans {}: {e}", spans_path.display()))?;

    let us = |name: &str| p50(&p.tracer.durations_us(name));
    let ms = |name: &str| us(name) / 1e3;
    let wire_rtt = us("client.request");
    let serve = us("tenant.serve");
    let wire_overhead = wire_rtt - serve;
    let encode = us("frame.encode");
    let decode = us("frame.decode");
    let admit = us("tenant.admit");
    let echo = us("wire.echo");
    // Parts each timed in a span of its own, none derived from a round
    // trip: what one served single-query round trip should cost.
    let lineup_sum = encode + decode + admit + serve + echo;
    let exact_us = us("kernel.exact");
    let n = queries.len().max(1) as f64;
    let lineup = p.ladder.total().max(1) as f64;
    let bytes_scanned = scan.rows_scanned as f64 * (dim as f64 / 8.0);
    let exact_seconds: f64 = p.tracer.durations_us("kernel.exact").iter().sum::<f64>() / 1e6;
    let rows_f = rows as f64;
    let mut failures = untraced.failures.clone();
    failures.append(&mut p.tally.failures);
    let mut out = Outcome {
        attempted: p.tally.attempted + untraced.attempted,
        failed: p.tally.failed + untraced.failed,
        failures,
        ..Outcome::default()
    };
    out.metrics = vec![
        ("frame.encode_us", encode, "us"),
        ("frame.decode_us", decode, "us"),
        ("frame.request_bytes", request_bytes as f64, "B"),
        ("wire.rtt_us", wire_rtt, "us"),
        ("wire.overhead_us", wire_overhead, "us"),
        ("wire.echo_us", echo, "us"),
        ("tenant.admit_us", admit, "us"),
        ("tenant.serve_us", serve, "us"),
        (
            "tenant.lock_wait_us",
            mean(&p.tracer.durations_us("tenant.serve_2callers"))
                - mean(&p.tracer.durations_us("tenant.serve_1caller")),
            "us",
        ),
        (
            "tenant.rebuild_us",
            us("tenant.serve_fresh") - us("tenant.serve_steady"),
            "us",
        ),
        ("tenant.provision_ms", ms("tenant.provision"), "ms"),
        (
            "tenant.heap_copies",
            heap_growth as f64 / (rows_f * dim as f64 / 8.0),
            "copies",
        ),
        ("engine.build_ms", ms("engine.build"), "ms"),
        ("engine.single_us", us("engine.single"), "us"),
        (
            "engine.batch_us_per_query",
            us("engine.batch") / BATCH as f64,
            "us",
        ),
        (
            "ladder.primary_share",
            p.ladder.stages[0] as f64 / lineup,
            "ratio",
        ),
        (
            "ladder.resample_share",
            p.ladder.stages[1] as f64 / lineup,
            "ratio",
        ),
        (
            "ladder.widened_share",
            p.ladder.stages[2] as f64 / lineup,
            "ratio",
        ),
        (
            "ladder.exact_share",
            p.ladder.stages[3] as f64 / lineup,
            "ratio",
        ),
        (
            "ladder.escalations_per_query",
            p.ladder.escalations as f64 / lineup,
            "count",
        ),
        ("ladder.primary_us", us("ladder.primary"), "us"),
        ("ladder.oracle_agreement", lineup_agree, "ratio"),
        ("kernel.exact_us", exact_us, "us"),
        (
            "kernel.rows_scanned_per_query",
            scan.rows_scanned as f64 / n,
            "count",
        ),
        (
            "kernel.rows_pruned_share",
            scan.rows_pruned as f64 / (n * rows_f),
            "ratio",
        ),
        (
            "kernel.rows_group_pruned_share",
            scan.rows_group_pruned as f64 / (n * rows_f),
            "ratio",
        ),
        (
            "kernel.buckets_probed_per_query",
            scan.buckets_probed as f64 / n,
            "count",
        ),
        (
            "kernel.gb_per_s",
            bytes_scanned / exact_seconds / 1e9,
            "GB/s",
        ),
        ("memory.clone_ms", ms("memory.clone"), "ms"),
        ("index.ensure_ms", ms("index.ensure"), "ms"),
        ("index.rebuilds", index_rebuilds as f64, "count"),
        ("publish.delta_us", publish.p50(), "us"),
        ("wal.append_us", us("wal.append"), "us"),
        ("snapshot.save_ms", ms("snapshot.save"), "ms"),
        ("snapshot.load_ms", ms("snapshot.load"), "ms"),
        ("snapshot.bytes", snapshot_bytes as f64, "B"),
        ("wal.replay_ms", ms("wal.replay"), "ms"),
        ("trace.overhead_us", wire_rtt - untraced_rtt, "us"),
        ("lineup.sum_us", lineup_sum, "us"),
        (
            "lineup.gap_share",
            (lineup_sum - untraced_rtt).abs() / untraced_rtt,
            "ratio",
        ),
        (
            "trace.glue_us",
            p50(&p.tracer.self_us("tenant.request")),
            "us",
        ),
        ("trace.spans", p.tracer.len() as f64, "count"),
    ];
    out.counts = vec![
        ("attempted", p.tally.attempted as f64),
        ("failed", p.tally.failed as f64),
        ("ladder.primary", p.ladder.stages[0] as f64),
        ("ladder.resample", p.ladder.stages[1] as f64),
        ("ladder.widened", p.ladder.stages[2] as f64),
        ("ladder.exact", p.ladder.stages[3] as f64),
        ("ladder.escalations", p.ladder.escalations as f64),
        ("kernel.rows_scanned", scan.rows_scanned as f64),
        ("kernel.rows_pruned", scan.rows_pruned as f64),
        ("kernel.rows_group_pruned", scan.rows_group_pruned as f64),
        ("kernel.buckets_probed", scan.buckets_probed as f64),
        ("index.rebuilds", index_rebuilds as f64),
        ("oracle_agree", p.tally.agree as f64),
    ];
    out.samples = vec![
        ("wire.rtt_us", queries.len()),
        ("wire.echo_us", queries.len()),
        ("tenant.lock_wait_us", lock_queries.len()),
        ("tenant.rebuild_us", inputs.cycles.len()),
        ("engine.batch_us_per_query", sizes.trace_frames),
        ("snapshot.save_ms", sizes.trace_repeats),
    ];
    out.untraced = Some(Box::new(untraced));
    Ok(out)
}

/// The parts of one served single-query round trip, one query at a time
/// in the order service runs them: the client's `encode_request`, the
/// server's `decode_query_batch`, the tenant's admission and serve, then
/// a raw loopback echo of the same frame bytes. (Each part alone in a
/// hot loop of its own read up to a fifth cheaper than it costs in
/// service.) The echo thread reads each request the way a server
/// connection does (header, then payload, from an unbuffered socket) and
/// answers with the response frame of the slot the server returned; the
/// client reads it with `read_response`. No decode, admission or serve
/// runs in the echo, so a `wire.echo` span is the socket, wake-up and
/// response-codec share of the round trip. Returns the request frame
/// size.
fn lineup_pass(
    p: &mut Probe<'_>,
    oracle: &Oracle,
    queries: &[usize],
    slots: &[SlotResult],
) -> Result<usize, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("echo addr: {e}"))?;
    let tenant = p.tenant;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            let (mut stream, _) = listener.accept().map_err(|e| format!("echo accept: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            for slot in slots {
                let Some(header) =
                    read_request_header(&mut stream, u32::MAX).map_err(|e| e.to_string())?
                else {
                    break;
                };
                let mut payload = vec![0u8; header.payload_len as usize];
                stream
                    .read_exact(&mut payload)
                    .map_err(|e| format!("echo payload: {e}"))?;
                let response = encode_response(
                    STATUS_OK,
                    header.tenant,
                    header.request_id,
                    std::slice::from_ref(slot),
                );
                write_frame(&mut stream, &response).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut request_bytes = 0;
        for (r, (&q, slot)) in queries.iter().zip(slots).enumerate() {
            let (r, query) = (r as u64, std::slice::from_ref(oracle.query(q)));
            let frame = p.tracer.span("frame.encode", None, r, || {
                encode_request(PRIORITY_NORMAL, TENANT, r, DEADLINE_UNBOUNDED_US, query)
            });
            request_bytes = frame.len();
            let decoded = p.tracer.span("frame.decode", None, r, || {
                decode_query_batch(&frame[REQUEST_HEADER_LEN..])
            });
            p.tally.attempted += 1;
            if decoded.map_or(true, |batch| batch.queries != query) {
                p.tally.fail(|| format!("frame round trip of query {q}"));
            }
            let root = p.tracer.open("tenant.request", None, r);
            let admitted = p.tracer.span("tenant.admit", Some(root), r, || {
                tenant.admit(1, PRIORITY_NORMAL)
            });
            if let Err(e) = admitted {
                p.tally.fail(|| format!("admit: {e}"));
            }
            p.serve("tenant.serve", Some(root), r, oracle, q, true);
            p.tracer.close(root);
            let echoed = p.tracer.span("wire.echo", None, r, || {
                write_frame(&mut stream, &frame)?;
                read_response(&mut stream, u32::MAX)
            });
            p.tally.attempted += 1;
            match echoed {
                Ok(Some(response)) if response.slots == [*slot] => {}
                other => p.tally.fail(|| format!("echo of query {q}: {other:?}")),
            }
        }
        drop(stream);
        echo.join()
            .map_err(|_| "the echo thread panicked".to_string())??;
        Ok(request_bytes)
    })
}

/// The probe log's record for a planned update, with class ids resolved
/// against the oracle's state before the update.
fn wal_record(oracle: &Oracle, update: &Update) -> Result<WalRecord, String> {
    let class_of = |slot: usize| {
        oracle
            .class_of(slot)
            .map(ClassId)
            .ok_or(format!("slot {slot} is not live"))
    };
    let op = match update {
        Update::Rethreshold { slot, row } => UpdateOp::Replace {
            class: class_of(*slot)?,
            hv: row.clone(),
        },
        Update::Add { label, row } => UpdateOp::Add {
            label: label.clone(),
            hv: row.clone(),
        },
        Update::Retire { slot } => UpdateOp::Retire {
            class: class_of(*slot)?,
        },
    };
    Ok(WalRecord::from_op(&op))
}
