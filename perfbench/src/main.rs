//! `ham-perfbench` — the served-path benchmark.
//!
//! ```text
//! ham-perfbench --workload <langid|neardup|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, then either drives a real
//! `ham_serve::Server` over loopback TCP through the workload's fixed
//! operation sequence (`--trace 0`: every end-to-end metric) or runs the
//! traced per-layer lineup (`--trace 1`). Every answer is checked
//! against a linear-scan oracle. The last stdout line is the result
//! object; the line before it is the full report (host stamp, op counts,
//! sample counts, tails, exact counts). Exits 1 when any operation
//! failed or any answer disagreed with the oracle. State lives under
//! `.bench_run/` in the working directory; spans of a traced run are
//! kept in `.bench_run/spans/`.

mod drive;
mod heap;
mod inputs;
mod json;
mod lineup;
mod oracle;
mod run;
mod stats;
mod trace;

use std::path::Path;

use crate::inputs::{Inputs, Kind, Scale};
use crate::json::J;
use crate::run::{fresh_dir, Outcome};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

const USAGE: &str =
    "usage: ham-perfbench --workload <langid|neardup|churn> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Prepares the inputs and runs one workload under `root/.bench_run`.
fn execute(args: Args, scale: Scale, root: &Path) -> Result<(Inputs, Outcome), String> {
    let inputs = inputs::prepare(args.kind, scale, args.seed, args.seconds);
    let base = root.join(".bench_run");
    let run_dir = fresh_dir(base.join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    )))?;
    let outcome = if args.trace {
        let spans = base.join("spans");
        std::fs::create_dir_all(&spans).map_err(|e| format!("create {}: {e}", spans.display()))?;
        let path = spans.join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
        lineup::run(&inputs, &run_dir, &path)
    } else {
        drive::run(&inputs, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok((inputs, outcome?))
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from a plain source tree, where it is "unknown".
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)
                .map(|rev| rev.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> J {
    J::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            J::obj([("value", J::Num(value)), ("unit", J::str(unit))]),
        )
    }))
}

fn report(args: Args, inputs: &Inputs, out: &Outcome, root: &Path) -> J {
    let sizes = inputs.sizes;
    let ops = [
        ("setups", sizes.setups),
        ("warmup", sizes.warmup),
        ("latency_frames", inputs.latency.len()),
        ("connections", sizes.connections),
        ("loaded_frames", inputs.loaded.iter().map(Vec::len).sum()),
        ("batch_frames", inputs.batches.len()),
        ("batch_size", inputs::BATCH),
        ("update_cycles", inputs.cycles.len()),
        ("reads_per_update", sizes.reads_per_update),
        ("restarts", sizes.restarts),
        ("trace_queries", sizes.trace_queries),
        ("trace_lock_queries", sizes.trace_lock_queries),
        ("trace_frames", sizes.trace_frames),
        ("trace_repeats", sizes.trace_repeats),
    ];
    J::obj([(
        "report",
        J::obj(
            [
                ("workload", J::str(args.kind.name())),
                ("seed", J::Int(args.seed)),
                ("seconds", J::Int(args.seconds)),
                ("trace", J::Int(u64::from(args.trace))),
                (
                    "host",
                    J::obj([
                        ("nproc", J::Int(hdc::available_threads() as u64)),
                        ("backend", J::str(hdc::active_backend_name())),
                        ("rustc", J::str(env!("PERFBENCH_RUSTC"))),
                        ("git_rev", J::str(git_rev(root))),
                    ]),
                ),
                (
                    "world",
                    J::obj([
                        ("rows", J::Int(inputs.memory.len() as u64)),
                        ("dim", J::Int(inputs.dim() as u64)),
                        ("pool", J::Int(inputs.pool.len() as u64)),
                        (
                            "scan_strategy",
                            J::str(ham_workloads::strategy_label(
                                inputs.memory.resolved_strategy(),
                            )),
                        ),
                    ]),
                ),
                ("ops", J::obj(ops.map(|(k, v)| (k, J::Int(v as u64))))),
            ]
            .into_iter()
            .chain(outcome_fields(out))
            .chain(
                out.untraced
                    .as_deref()
                    .map(|untraced| ("untraced", J::obj(outcome_fields(untraced)))),
            ),
        ),
    )])
}

/// What a run measured and counted, for the report line.
fn outcome_fields(out: &Outcome) -> Vec<(&'static str, J)> {
    vec![
        (
            "samples",
            J::obj(out.samples.iter().map(|&(k, n)| (k, J::Int(n as u64)))),
        ),
        (
            "tails",
            J::obj(out.tails.iter().map(|(k, s)| {
                (
                    *k,
                    J::obj([
                        ("value", J::Num(s.p99)),
                        ("unit", J::str("us")),
                        ("samples", J::Int(s.n as u64)),
                    ]),
                )
            })),
        ),
        (
            "counts",
            J::obj(out.counts.iter().map(|&(k, v)| (k, J::Num(v)))),
        ),
        (
            "rounds",
            J::obj(
                out.rounds
                    .iter()
                    .map(|(k, v)| (*k, J::Arr(v.iter().map(|&x| J::Num(x)).collect()))),
            ),
        ),
        ("metrics", metrics_json(&out.metrics)),
        (
            "failures",
            J::Arr(out.failures.iter().map(|f| J::str(f.as_str())).collect()),
        ),
    ]
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ham-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = Path::new(".");
    let (inputs, out) = match execute(args, Scale::Full, root) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("ham-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for failure in &out.failures {
        eprintln!("ham-perfbench: failed: {failure}");
    }
    println!("{}", report(args, &inputs, &out, root));
    let result = J::obj([
        ("correct", J::Bool(out.failed == 0)),
        ("attempted", J::Int(out.attempted)),
        ("failed", J::Int(out.failed)),
        ("metrics", metrics_json(&out.metrics)),
    ]);
    println!("{result}");
    std::process::exit(if out.failed == 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a workload twice on one seed and once on a held-out seed, at
    /// small scale, untraced and traced: counts must repeat exactly, and
    /// no operation may fail on either seed.
    fn repeats(kind: Kind) {
        let root = Path::new(".");
        for trace in [false, true] {
            let args = |seed| Args {
                kind,
                seed,
                seconds: 10,
                trace,
            };
            let (_, first) = execute(args(1), Scale::Small, root).unwrap();
            let (_, second) = execute(args(1), Scale::Small, root).unwrap();
            let (_, held_out) = execute(args(2), Scale::Small, root).unwrap();
            for out in [&first, &second, &held_out] {
                assert_eq!(out.failed, 0, "{kind:?} trace={trace}: {:?}", out.failures);
                assert!(out.attempted > 0);
            }
            assert_eq!(first.counts, second.counts, "{kind:?} trace={trace}");
            if trace {
                let counts = |out: &Outcome| out.untraced.as_ref().map(|u| u.counts.clone());
                assert_eq!(counts(&first), counts(&second), "{kind:?} untraced part");
            }
            let exact = |out: &Outcome| -> Vec<(&str, f64)> {
                out.metrics
                    .iter()
                    // Ratios and counts of operations; the lineup gap is a
                    // ratio of two timings and varies.
                    .filter(|(name, _, unit)| {
                        (*unit == "ratio" || *unit == "count") && *name != "lineup.gap_share"
                    })
                    .map(|&(name, value, _)| (name, value))
                    .collect()
            };
            assert_eq!(exact(&first), exact(&second), "{kind:?} trace={trace}");
        }
    }

    #[test]
    fn langid_counts_repeat() {
        repeats(Kind::Langid);
    }

    #[test]
    fn neardup_counts_repeat() {
        repeats(Kind::Neardup);
    }

    #[test]
    fn churn_counts_repeat() {
        repeats(Kind::Churn);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| {
            s.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let args = parse_args(argv("--workload churn --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (args.kind, args.seed, args.seconds, args.trace),
            (Kind::Churn, 7, 10, true)
        );
        assert!(parse_args(argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(argv("--seed 1")).is_err());
        assert!(parse_args(argv("--workload langid --seed")).is_err());
    }
}
