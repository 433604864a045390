//! The untraced run: a real `ham_serve::Server` driven over loopback TCP
//! through a fixed operation sequence. Every end-to-end metric comes
//! from here.
//!
//! Set-ups come first (`setup_s`), then an untimed warm-up. The timed
//! phases run in [`ROUNDS`] rounds, each doing its share of: single-query
//! reads on one closed-loop connection (`query_p50_us`), the loaded pass
//! over several connections (`throughput_qps`; with one connection the
//! reads above double as it), 64-query frames (`batch_qps`), and update
//! cycles — update (`update_p50_us`), fresh read (`fresh_read_p50_us`),
//! steady reads — with drain → warm restarts (`restart_s`) among them.
//! Answers are kept during a timed block and checked against the oracle
//! after it; nothing prints while a timer runs.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use ham_core::OnlineUpdater;
use ham_serve::{BootSource, ClientError, HamClient, Response, Server};
use hdc::prelude::*;

use crate::inputs::{Inputs, Update, BATCH, TENANT};
use crate::oracle::Oracle;
use crate::run::{ask, config, connect, fresh_dir, Outcome, Tally};
use crate::stats::Samples;

type Answer = (usize, Result<Response, ClientError>);

/// The timed phases run in this many rounds, each doing its share of
/// every phase, so every metric pools samples from across the run: a
/// slow spell on the host (memory-bound loops here swing ±20% over
/// seconds while a CPU-only loop holds within 4%) lands in every metric
/// a little instead of in one metric entirely.
const ROUNDS: usize = 8;

/// The `round`-th of [`ROUNDS`] equal parts of `0..len`.
fn part(len: usize, round: usize) -> std::ops::Range<usize> {
    round * len / ROUNDS..(round + 1) * len / ROUNDS
}

/// The running system and everything measured against it.
struct Runner<'a> {
    inputs: &'a Inputs,
    oracle: Oracle,
    tally: Tally,
    state: PathBuf,
    /// Taken only while a restart swaps the server.
    server: Option<Server>,
    client: Option<HamClient>,
    updater: OnlineUpdater,
    steady: Samples,
    rates: Vec<f64>,
    rate_ops: usize,
    frame_rates: Vec<f64>,
    update: Samples,
    fresh: Samples,
    restart: Samples,
}

pub fn run(inputs: &Inputs, run_dir: &Path) -> Result<Outcome, String> {
    let sizes = inputs.sizes;
    let oracle = Oracle::new(inputs.rows(), inputs.pool.clone(), inputs.planned_adds);
    let mut tally = Tally::default();
    let state = run_dir.join("state");

    // Set-up: `Server::start` on the prepared spec to the first OK answer.
    let mut setup = Samples::with_capacity(sizes.setups);
    let mut serving = None;
    for i in 0..sizes.setups {
        let last = i + 1 == sizes.setups;
        let dir = fresh_dir(if last {
            state.clone()
        } else {
            run_dir.join(format!("setup-{i}"))
        })?;
        let spec = inputs.spec();
        let started = Instant::now();
        let server = Server::start(config(&dir), vec![spec]).map_err(|e| format!("start: {e}"))?;
        let mut client = connect(server.local_addr())?;
        let answer = ask(&mut client, std::slice::from_ref(oracle.query(0)));
        setup.push(started.elapsed());
        tally.read(&oracle, inputs, &[0], &answer);
        if last {
            serving = Some((server, client));
        } else {
            drop(client);
            server.drain();
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear set-up dir: {e}"))?;
        }
    }
    let (server, mut client) = serving.ok_or("at least one set-up")?;
    for &q in &inputs.warmup {
        ask(&mut client, std::slice::from_ref(oracle.query(q))).map_err(|e| e.to_string())?;
    }

    let mut d = Runner {
        inputs,
        oracle,
        tally,
        updater: tenant_updater(&server)?,
        state,
        server: Some(server),
        client: Some(client),
        steady: Samples::with_capacity(inputs.read_ops()),
        rates: Vec::with_capacity(ROUNDS * RATE_SLICES),
        rate_ops: 0,
        frame_rates: Vec::with_capacity(inputs.batches.len()),
        update: Samples::with_capacity(inputs.cycles.len()),
        fresh: Samples::with_capacity(inputs.cycles.len()),
        restart: Samples::with_capacity(sizes.restarts),
    };
    let mut restarts = inputs.restart_after.iter().peekable();
    // Where each round's samples end, per stream, for the per-round
    // medians in the report.
    let mut ends: Vec<[usize; 5]> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        d.latency(part(inputs.latency.len(), round));
        if !inputs.loaded.is_empty() {
            d.loaded(round)?;
        }
        d.batches(part(inputs.batches.len(), round));
        for k in part(inputs.cycles.len(), round) {
            d.cycle(k);
            while restarts.next_if(|&&after| after == k).is_some() {
                d.restart_server(inputs.cycles[k].reads[0])?;
            }
        }
        ends.push([
            d.steady.len(),
            d.rates.len(),
            d.frame_rates.len(),
            d.update.len(),
            d.fresh.len(),
        ]);
    }
    let Runner {
        mut tally,
        server,
        client,
        steady,
        rates,
        rate_ops,
        frame_rates,
        update,
        fresh,
        restart,
        ..
    } = d;
    drop(client);
    let drained = server.ok_or("a server is running")?.drain();
    if !drained.flush_failures.is_empty() {
        tally.fail(|| format!("final drain {drained:?}"));
    }

    let per_round = |values: &[f64], stream: usize| -> Vec<f64> {
        let mut start = 0;
        ends.iter()
            .map(|end| {
                let round = median(&values[start..end[stream]]);
                start = end[stream];
                round
            })
            .collect()
    };
    let steady_summary = steady.summary();
    let fresh_summary = fresh.summary();
    let update_summary = update.summary();
    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: std::mem::take(&mut tally.failures),
        ..Outcome::default()
    };
    out.metrics = vec![
        ("setup_s", setup.trimmed_mean() / 1e6, "s"),
        ("query_p50_us", steady_summary.p50, "us"),
        ("throughput_qps", median(&rates), "q/s"),
        ("batch_qps", median(&frame_rates), "q/s"),
        ("update_p50_us", update_summary.p50, "us"),
        ("fresh_read_p50_us", fresh_summary.p50, "us"),
        ("restart_s", restart.trimmed_mean() / 1e6, "s"),
        ("accuracy", ratio(tally.top1, tally.answered), "ratio"),
        (
            "success_rate",
            1.0 - ratio(tally.failed, tally.attempted),
            "ratio",
        ),
        ("peak_heap_mb", crate::heap::peak_heap_mb(), "MB"),
    ];
    out.counts = vec![
        ("attempted", tally.attempted as f64),
        ("failed", tally.failed as f64),
        ("answered", tally.answered as f64),
        ("top1", tally.top1 as f64),
        ("oracle_agree", tally.agree as f64),
    ];
    out.tails = vec![
        ("tail.query_p99_us", steady_summary),
        ("tail.fresh_read_p99_us", fresh_summary),
        ("tail.update_p99_us", update_summary),
    ];
    out.rounds = vec![
        ("query_p50_us", per_round(steady.values(), 0)),
        ("throughput_qps", per_round(&rates, 1)),
        ("batch_qps", per_round(&frame_rates, 2)),
        ("update_p50_us", per_round(update.values(), 3)),
        ("fresh_read_p50_us", per_round(fresh.values(), 4)),
    ];
    out.samples = vec![
        ("setup_s", setup.len()),
        ("query_p50_us", steady.len()),
        ("throughput_qps", rate_ops),
        ("batch_qps", frame_rates.len()),
        ("update_p50_us", update.len()),
        ("fresh_read_p50_us", fresh.len()),
        ("restart_s", restart.len()),
    ];
    Ok(out)
}

impl Runner<'_> {
    /// Single-query frames on one closed-loop connection; with one
    /// connection configured this pass is also the throughput pass.
    fn latency(&mut self, range: std::ops::Range<usize>) {
        let order = &self.inputs.latency[range];
        let mut answers = Vec::with_capacity(order.len());
        let mut done = Vec::with_capacity(order.len());
        let client = self.client.as_mut().expect("connected between restarts");
        let begun = Instant::now();
        for &q in order {
            let started = Instant::now();
            let answer = ask(client, std::slice::from_ref(self.oracle.query(q)));
            let ended = Instant::now();
            self.steady.push(ended - started);
            done.push(ended);
            answers.push((q, answer));
        }
        if self.inputs.loaded.is_empty() {
            self.rates.extend(slice_rates(begun, &done));
            self.rate_ops += done.len();
        }
        for (q, answer) in &answers {
            self.tally.read(&self.oracle, self.inputs, &[*q], answer);
        }
    }

    /// The loaded pass's share of this round, over its connections.
    fn loaded(&mut self, round: usize) -> Result<(), String> {
        let orders: Vec<&[usize]> = self
            .inputs
            .loaded
            .iter()
            .map(|order| &order[part(order.len(), round)])
            .collect();
        let server = self.server.as_ref().expect("serving between restarts");
        let (answers, begun, mut done) = loaded_phase(&orders, &self.oracle, server)?;
        done.sort();
        self.rates.extend(slice_rates(begun, &done));
        self.rate_ops += done.len();
        for (q, answer) in &answers {
            self.tally.read(&self.oracle, self.inputs, &[*q], answer);
        }
        Ok(())
    }

    /// 64-query frames over one connection.
    fn batches(&mut self, range: std::ops::Range<usize>) {
        let client = self.client.as_mut().expect("connected between restarts");
        for batch in &self.inputs.batches[range] {
            let queries: Vec<Hypervector> = batch
                .iter()
                .map(|&q| self.oracle.query(q).clone())
                .collect();
            let started = Instant::now();
            let answer = ask(client, &queries);
            self.frame_rates
                .push(BATCH as f64 / started.elapsed().as_secs_f64());
            self.tally.read(&self.oracle, self.inputs, batch, &answer);
        }
    }

    /// One update, its fresh read, then the steady reads.
    fn cycle(&mut self, k: usize) {
        let cycle = &self.inputs.cycles[k];
        self.tally.attempted += 1;
        match apply_update(&self.updater, &mut self.oracle, &cycle.update) {
            Ok((started, ended)) => self.update.push(ended - started),
            Err(why) => self.tally.fail(|| why),
        }
        let client = self.client.as_mut().expect("connected between restarts");
        for (i, &q) in cycle.reads.iter().enumerate() {
            let started = Instant::now();
            let answer = ask(client, std::slice::from_ref(self.oracle.query(q)));
            let elapsed = started.elapsed();
            if i == 0 {
                self.fresh.push(elapsed);
            } else {
                self.steady.push(elapsed);
            }
            self.tally.read(&self.oracle, self.inputs, &[q], &answer);
        }
    }

    /// Drain (checkpoint), warm `Server::start` on the same state, and the
    /// first OK answer, timed together.
    fn restart_server(&mut self, probe: usize) -> Result<(), String> {
        self.tally.attempted += 1;
        let spec = self.inputs.spec();
        self.client = None;
        let old = self.server.take().ok_or("a server is running")?;
        let started = Instant::now();
        let report = old.drain();
        let server =
            Server::start(config(&self.state), vec![spec]).map_err(|e| format!("restart: {e}"))?;
        let mut client = connect(server.local_addr())?;
        let answer = ask(&mut client, std::slice::from_ref(self.oracle.query(probe)));
        self.restart.push(started.elapsed());
        let boot = server
            .tenants()
            .get(TENANT)
            .map(|t| t.boot_source().clone());
        if report.snapshots_flushed != 1 || !report.flush_failures.is_empty() {
            self.tally.fail(|| format!("drain flushed {report:?}"));
        } else if !matches!(boot, Some(BootSource::WarmRestart { .. })) {
            self.tally.fail(|| format!("restart booted {boot:?}"));
        }
        self.tally
            .read(&self.oracle, self.inputs, &[probe], &answer);
        self.updater = tenant_updater(&server)?;
        self.server = Some(server);
        self.client = Some(client);
        Ok(())
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn tenant_updater(server: &Server) -> Result<OnlineUpdater, String> {
    Ok(server
        .tenants()
        .get(TENANT)
        .ok_or("the workload tenant is provisioned")?
        .updater())
}

/// Runs one planned write through the tenant's updater and, once
/// acknowledged, applies it to the oracle. Returns the interval of the
/// updater call alone.
pub fn apply_update(
    updater: &OnlineUpdater,
    oracle: &mut Oracle,
    update: &Update,
) -> Result<(Instant, Instant), String> {
    let class_of = |slot: usize| {
        oracle
            .class_of(slot)
            .map(ClassId)
            .ok_or(format!("slot {slot} is not live"))
    };
    let (started, ended) = match update {
        Update::Rethreshold { slot, row } => {
            let (class, row) = (class_of(*slot)?, row.clone());
            let started = Instant::now();
            let result = updater.rethreshold_row(class, row);
            let ended = Instant::now();
            result.map_err(|e| format!("rethreshold: {e}"))?;
            oracle.replace(*slot, update_row(update));
            (started, ended)
        }
        Update::Add { label, row } => {
            let (label, row) = (label.clone(), row.clone());
            let expected = oracle.classes();
            let started = Instant::now();
            let result = updater.add_class(label, row);
            let ended = Instant::now();
            let (class, _) = result.map_err(|e| format!("add: {e}"))?;
            oracle.add(update_row(update));
            if class.0 != expected {
                return Err(format!("add returned {class}, oracle expected {expected}"));
            }
            (started, ended)
        }
        Update::Retire { slot } => {
            let class = class_of(*slot)?;
            let started = Instant::now();
            let result = updater.retire_class(class);
            let ended = Instant::now();
            result.map_err(|e| format!("retire: {e}"))?;
            oracle.retire(*slot);
            (started, ended)
        }
    };
    Ok((started, ended))
}

fn update_row(update: &Update) -> Hypervector {
    match update {
        Update::Rethreshold { row, .. } | Update::Add { row, .. } => row.clone(),
        Update::Retire { .. } => unreachable!("retires carry no row"),
    }
}

/// Slices of equal op count per round that a rate is measured over.
const RATE_SLICES: usize = 8;

/// Completed ops per second over each of up to [`RATE_SLICES`] slices of
/// equal op count; the run reports the median slice, so a stall slows the
/// slice it falls in instead of the whole figure. `done` holds sorted
/// completion instants after `start`.
fn slice_rates(start: Instant, done: &[Instant]) -> Vec<f64> {
    let slices = RATE_SLICES.min(done.len());
    let mut rates = Vec::with_capacity(slices);
    let mut from = (start, 0);
    for k in 1..=slices {
        let end = k * done.len() / slices;
        let until = done[end - 1];
        rates.push((end - from.1) as f64 / (until - from.0).as_secs_f64());
        from = (until, end);
    }
    rates
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    crate::stats::quantile(&sorted, 0.5)
}

/// The loaded pass: one thread and closed-loop connection per sequence,
/// started together. Returns every answer, the common start and each
/// reply's completion instant.
fn loaded_phase(
    orders: &[&[usize]],
    oracle: &Oracle,
    server: &Server,
) -> Result<(Vec<Answer>, Instant, Vec<Instant>), String> {
    let addr = server.local_addr();
    let clients: Vec<HamClient> = orders
        .iter()
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    let barrier = Barrier::new(clients.len() + 1);
    let (per_conn, started) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(orders)
            .map(|(mut client, order)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut done = Vec::with_capacity(order.len());
                    let mut answers: Vec<Answer> = Vec::with_capacity(order.len());
                    barrier.wait();
                    for &q in order.iter() {
                        answers.push((q, ask(&mut client, std::slice::from_ref(oracle.query(q)))));
                        done.push(Instant::now());
                    }
                    (answers, done)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("reader threads do not panic"))
            .collect();
        (joined, started)
    });
    let mut answers = Vec::with_capacity(orders.iter().map(|o| o.len()).sum());
    let mut done = Vec::with_capacity(answers.capacity());
    for (conn_answers, conn_done) in per_conn {
        answers.extend(conn_answers);
        done.extend(conn_done);
    }
    Ok((answers, started, done))
}
