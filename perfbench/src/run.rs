//! What both runs share: the server configuration, the client call, the
//! oracle check of a served answer, and the run's result.

use std::path::{Path, PathBuf};
use std::time::Duration;

use ham_core::resilience::{ResilientOptions, PRIORITY_NORMAL};
use ham_serve::frame::STATUS_OK;
use ham_serve::{ClientError, HamClient, Response, ServeConfig, SlotResult};
use hdc::prelude::*;

use crate::inputs::{Inputs, TENANT};
use crate::oracle::Oracle;
use crate::stats::Summary;

/// A run's result: the contract metrics, plus the counts that must repeat
/// exactly for a seed, the tails, and the sample count behind each
/// percentile.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub counts: Vec<(&'static str, f64)>,
    pub tails: Vec<(&'static str, Summary)>,
    pub samples: Vec<(&'static str, usize)>,
    /// Per-round medians of the untraced run's timed streams.
    pub rounds: Vec<(&'static str, Vec<f64>)>,
    pub failures: Vec<String>,
    /// The traced run's own untraced run, done first in the same process.
    pub untraced: Option<Box<Outcome>>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, value, _)| value)
    }
}

/// Attempted and failed operations, and how the answered reads scored.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Reads answered with a checked hit.
    pub answered: u64,
    /// Answers equal to the planted truth.
    pub top1: u64,
    /// Answers equal to the oracle's exact nearest class.
    pub agree: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts a failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// Checks one wire read of pool query `q` against the oracle: an OK
    /// status, a hit, a live class, and a distance no larger than the
    /// query's full distance to that class's row (the approximate rungs
    /// count a subset of the dimensions; the exact rung all of them).
    pub fn read(
        &mut self,
        oracle: &Oracle,
        inputs: &Inputs,
        q: &[usize],
        result: &Result<Response, ClientError>,
    ) {
        self.attempted += q.len() as u64;
        match result {
            Ok(response) if response.status == STATUS_OK && response.slots.len() == q.len() => {
                for (&q, slot) in q.iter().zip(&response.slots) {
                    self.slot(oracle, inputs, q, slot);
                }
            }
            Ok(response) => {
                let status = response.status;
                self.failed += q.len() as u64 - 1;
                self.fail(|| format!("status {status} for a {}-query frame", q.len()));
            }
            Err(e) => {
                self.failed += q.len() as u64 - 1;
                self.fail(|| format!("client error: {e}"));
            }
        }
    }

    fn slot(&mut self, oracle: &Oracle, inputs: &Inputs, q: usize, slot: &SlotResult) {
        let SlotResult::Hit {
            class, distance, ..
        } = *slot
        else {
            return self.fail(|| format!("query {q}: slot {slot:?}"));
        };
        let class = class as usize;
        let Some(row_slot) = oracle.slot_of(class) else {
            return self.fail(|| format!("query {q}: class {class} out of range"));
        };
        let full = oracle.distance(q, row_slot);
        if distance as usize > full {
            return self.fail(|| format!("query {q}: distance {distance} > full {full}"));
        }
        self.answered += 1;
        if oracle.class_of(inputs.truth[q]) == Some(class) {
            self.top1 += 1;
        }
        if oracle.nearest(q).class == class {
            self.agree += 1;
        }
    }
}

/// The front end every server of a run uses: one accept thread, a read
/// timeout long enough for the slowest batch frame, state under `dir`.
pub fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        accept_threads: 1,
        read_timeout: Duration::from_secs(60),
        snapshot_dir: Some(dir.to_path_buf()),
        options: ResilientOptions::default(),
        ..ServeConfig::default()
    }
}

pub fn connect(addr: std::net::SocketAddr) -> Result<HamClient, String> {
    HamClient::connect(addr, Duration::from_secs(120)).map_err(|e| format!("connect: {e}"))
}

/// One request for the workload's tenant, no deadline.
pub fn ask(client: &mut HamClient, queries: &[Hypervector]) -> Result<Response, ClientError> {
    client.request(TENANT, PRIORITY_NORMAL, None, queries)
}

/// A fresh, empty directory (state must never leak between runs).
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(&path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path)
}
