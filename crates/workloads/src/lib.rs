//! Multi-scenario workload harness: every layer of the stack — kernels,
//! index, serving — scored against more than one task.
//!
//! Until this crate, the repo's single scenario was the 21-language
//! synthetic langid task from the source paper's reproduction. ROADMAP
//! item 5 calls for "as many scenarios as you can imagine"; the related
//! work motivates two more concretely:
//!
//! * **Weighted inference** ([`weighted::WeightedWorkload`]) — MIMHD-style
//!   multi-bit class vectors with integer per-dimension counts, ranked by
//!   the bit-sliced weighted kernel
//!   ([`hdc::kernel::weighted::MultiBitRows`]). The gap between its
//!   weighted and majority-binarized accuracy *is* the multi-bit story.
//! * **Near-duplicate similarity search** ([`neardup::NearDupWorkload`]) —
//!   the RRAM in-memory similarity-search shape: a planted-near-duplicate
//!   stream scored on recall@k, whose tight clusters make the index
//!   stats [`pruning_friendly`](hdc::IndexStats::pruning_friendly), so
//!   [`ScanStrategy::Auto`](hdc::ScanStrategy) selects the indexed
//!   walk.
//!
//! All three scenarios (langid included, refactored behind the trait in
//! [`langid_workload::LangidWorkload`]) implement one seeded,
//! deterministic [`Workload`] contract — `encode → train → query-stream
//! → score` — and run end to end through two paths:
//!
//! * [`run_local`] — in-process ranking through the workload's own
//!   kernel, timed per query, with [`ScanCounters`] telemetry aggregated
//!   into the report;
//! * [`serve::provision`] / [`serve::run_served`] — the tenant serving
//!   path (`ham-serve`), scoring the same query stream through a
//!   provisioned [`TenantState`](ham_serve::TenantState) engine exactly
//!   as the TCP front end drives it.
//!
//! Both paths return a [`WorkloadReport`] with accuracy / recall@k /
//! throughput; served-path performance over the wire is measured by the
//! repository's `perfbench/`. The contract and the weighted record
//! layout are specified in DESIGN.md §16.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod langid_workload;
pub mod neardup;
pub mod serve;
pub mod synth;
pub mod weighted;

use std::time::Instant;

use hdc::prelude::*;
use hdc::ResolvedScan;
use serde::Serialize;

pub use crate::langid_workload::LangidWorkload;
pub use crate::neardup::NearDupWorkload;
pub use crate::weighted::WeightedWorkload;

/// One query of a workload's stream: the encoded query hypervector and
/// the index of the row that should win.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The row index ([`ClassId`] position) the query was planted from.
    pub truth: usize,
    /// The encoded query.
    pub query: Hypervector,
}

/// One evaluation scenario: a seeded, deterministic `encode → train →
/// query-stream → score` pipeline.
///
/// The contract every implementor holds (DESIGN.md §16):
///
/// * **Deterministic per seed** — two workloads built with the same
///   parameters and seed expose bit-identical memories and query
///   streams, so every report is reproducible and every regression test
///   can pin exact numbers.
/// * **A binary serving memory** — [`memory`](Self::memory) is an
///   [`AssociativeMemory`] a tenant can serve as-is; workloads whose
///   native kernel is not binary (the weighted scenario) expose their
///   binarized projection here, and the local-vs-served accuracy gap is
///   part of what the harness measures.
/// * **A native ranking** — [`rank`](Self::rank) is the workload's own
///   best-effort kernel (weighted scan, Auto-strategy top-k, …),
///   reporting its scan work through [`ScanCounters`].
pub trait Workload {
    /// Short machine-readable scenario name (report keys, bench rows).
    fn name(&self) -> &'static str;

    /// The seed every stored row and query derives from.
    fn seed(&self) -> u64;

    /// The recall cutoff this scenario is scored at (top-1 scenarios
    /// leave the default).
    fn k(&self) -> usize {
        1
    }

    /// The binary memory the serving path provisions for this scenario —
    /// with whatever scan strategy and index the scenario wants served.
    fn memory(&self) -> &AssociativeMemory;

    /// The pre-encoded query stream with planted truths.
    fn queries(&self) -> &[QueryRecord];

    /// Ranks the stored rows for one query through the workload's native
    /// kernel, best first, at least [`k`](Self::k) deep (fewer only when
    /// fewer rows are stored), recording scan work in `counters`.
    fn rank(&self, query: &Hypervector, counters: &mut ScanCounters) -> Vec<usize>;

    /// The concrete traversal this workload's serving memory resolves
    /// to — how reports show which engine
    /// [`Auto`](hdc::ScanStrategy::Auto) picked.
    fn resolved_strategy(&self) -> ResolvedScan {
        self.memory().resolved_strategy()
    }
}

/// Scores of one pass over a workload's query stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Scores {
    /// Fraction of queries whose top-1 row is the planted truth.
    pub accuracy: f64,
    /// Fraction of queries whose planted truth appears in the top `k`.
    pub recall_at_k: f64,
}

/// Tallies accuracy and recall@k from per-query rankings.
///
/// The rankings iterator yields `(truth, ranking)` pairs; an empty
/// stream scores zero.
pub fn score<'a, I>(rankings: I, k: usize) -> Scores
where
    I: IntoIterator<Item = (usize, &'a [usize])>,
{
    let (mut total, mut top1, mut at_k) = (0usize, 0usize, 0usize);
    for (truth, ranking) in rankings {
        total += 1;
        if ranking.first() == Some(&truth) {
            top1 += 1;
        }
        if ranking.iter().take(k).any(|&r| r == truth) {
            at_k += 1;
        }
    }
    let denom = total.max(1) as f64;
    Scores {
        accuracy: top1 as f64 / denom,
        recall_at_k: at_k as f64 / denom,
    }
}

/// Everything one pass over one workload's query stream measured.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadReport {
    /// Scenario name ([`Workload::name`]).
    pub workload: &'static str,
    /// Evaluation path: `"local"` (native kernel in process) or
    /// `"served"` (through a provisioned tenant engine).
    pub path: &'static str,
    /// The seed the scenario was built from.
    pub seed: u64,
    /// Queries scored.
    pub queries: usize,
    /// Recall cutoff.
    pub k: usize,
    /// Top-1 accuracy.
    pub accuracy: f64,
    /// Recall at [`k`](Self::k).
    pub recall_at_k: f64,
    /// Queries per second over the whole pass.
    pub throughput_qps: f64,
    /// Mean wall-clock latency per query, nanoseconds.
    pub mean_latency_ns: f64,
    /// Rows handed to the distance kernel across the pass.
    pub rows_scanned: u64,
    /// Rows a bucket index proved prunable without a distance call.
    pub rows_pruned: u64,
    /// Index buckets whose radius bound was checked.
    pub buckets_probed: u64,
    /// The kernel backend that served the pass.
    pub backend: &'static str,
    /// The traversal the workload's strategy resolved to (the observable
    /// `Auto` decision), e.g. `"Indexed"`.
    pub strategy: String,
}

/// Human-readable form of a resolved traversal for reports.
pub fn strategy_label(resolved: ResolvedScan) -> String {
    match resolved {
        ResolvedScan::Direct => "Direct".to_string(),
        ResolvedScan::Indexed { nprobe: None } => "Indexed".to_string(),
        ResolvedScan::Indexed { nprobe: Some(n) } => format!("Probe({n})"),
    }
}

/// Runs one workload's full query stream through its native kernel in
/// process: per-query [`Workload::rank`], wall-clock timing, and
/// aggregated [`ScanCounters`] — the `path = "local"` row of the bench
/// report.
pub fn run_local<W: Workload + ?Sized>(workload: &W) -> WorkloadReport {
    let k = workload.k();
    let mut counters = ScanCounters::default();
    let mut rankings: Vec<(usize, Vec<usize>)> = Vec::with_capacity(workload.queries().len());
    let started = Instant::now();
    for record in workload.queries() {
        let ranking = workload.rank(&record.query, &mut counters);
        rankings.push((record.truth, ranking));
    }
    let elapsed = started.elapsed();
    let scores = score(rankings.iter().map(|(t, r)| (*t, r.as_slice())), k);
    let queries = rankings.len();
    let secs = elapsed.as_secs_f64();
    WorkloadReport {
        workload: workload.name(),
        path: "local",
        seed: workload.seed(),
        queries,
        k,
        accuracy: scores.accuracy,
        recall_at_k: scores.recall_at_k,
        throughput_qps: if secs > 0.0 {
            queries as f64 / secs
        } else {
            0.0
        },
        mean_latency_ns: if queries > 0 {
            elapsed.as_nanos() as f64 / queries as f64
        } else {
            0.0
        },
        rows_scanned: counters.rows_scanned,
        rows_pruned: counters.rows_pruned,
        buckets_probed: counters.buckets_probed,
        backend: hdc::active_backend_name(),
        strategy: strategy_label(workload.resolved_strategy()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_tallies_top1_and_recall() {
        let rankings: Vec<(usize, Vec<usize>)> = vec![
            (0, vec![0, 1, 2]), // top-1 hit
            (1, vec![0, 1, 2]), // top-3 hit only
            (2, vec![0, 1, 3]), // miss
        ];
        let s = score(rankings.iter().map(|(t, r)| (*t, r.as_slice())), 3);
        assert!((s.accuracy - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.recall_at_k - 2.0 / 3.0).abs() < 1e-12);
        // k = 1 recall collapses to accuracy.
        let s1 = score(rankings.iter().map(|(t, r)| (*t, r.as_slice())), 1);
        assert_eq!(s1.accuracy, s1.recall_at_k);
    }

    #[test]
    fn score_of_empty_stream_is_zero() {
        let s = score(std::iter::empty::<(usize, &[usize])>(), 5);
        assert_eq!(s.accuracy, 0.0);
        assert_eq!(s.recall_at_k, 0.0);
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(strategy_label(ResolvedScan::Direct), "Direct");
        assert_eq!(
            strategy_label(ResolvedScan::Indexed { nprobe: None }),
            "Indexed"
        );
        assert_eq!(
            strategy_label(ResolvedScan::Indexed { nprobe: Some(4) }),
            "Probe(4)"
        );
    }

    #[test]
    fn score_counts_the_truth_only_within_the_first_k() {
        let rankings: Vec<(usize, Vec<usize>)> = vec![
            (3, vec![0, 1, 3]), // third: inside k = 3, outside k = 2
            (4, vec![]),        // an empty ranking is a miss
            (5, vec![5]),       // shorter than k, still a hit
        ];
        let at = |k| score(rankings.iter().map(|(t, r)| (*t, r.as_slice())), k);
        assert_eq!(at(2).recall_at_k, 1.0 / 3.0);
        assert_eq!(at(3).recall_at_k, 2.0 / 3.0);
        assert_eq!(at(3).accuracy, 1.0 / 3.0);
        // k = 0 counts nothing as recalled; accuracy does not depend on k.
        assert_eq!(at(0).recall_at_k, 0.0);
        assert_eq!(at(0).accuracy, at(3).accuracy);
    }

    /// A minimal workload: every stored row queried exactly, ranked by
    /// the memory's own top-k.
    struct Exact {
        memory: AssociativeMemory,
        queries: Vec<QueryRecord>,
    }

    impl Exact {
        fn new(rows: usize) -> Self {
            let dim = Dimension::new(256).unwrap();
            let mut memory = AssociativeMemory::new(dim);
            let mut queries = Vec::new();
            for i in 0..rows {
                let hv = Hypervector::random(dim, 40 + i as u64);
                memory.insert(format!("r{i}"), hv.clone()).unwrap();
                queries.push(QueryRecord {
                    truth: i,
                    query: hv,
                });
            }
            Exact { memory, queries }
        }
    }

    impl Workload for Exact {
        fn name(&self) -> &'static str {
            "exact"
        }
        fn seed(&self) -> u64 {
            40
        }
        fn memory(&self) -> &AssociativeMemory {
            &self.memory
        }
        fn queries(&self) -> &[QueryRecord] {
            &self.queries
        }
        fn rank(&self, query: &Hypervector, counters: &mut ScanCounters) -> Vec<usize> {
            let (ranked, scan) = self.memory.search_top_k_counted(query, 3).unwrap();
            counters.absorb(scan);
            ranked.into_iter().map(|(class, _)| class.0).collect()
        }
    }

    #[test]
    fn run_local_scores_and_counts_the_stream_it_ranked() {
        let workload = Exact::new(6);
        assert_eq!(workload.k(), 1, "top-1 scenarios keep the default k");
        assert_eq!(workload.resolved_strategy(), ResolvedScan::Direct);
        let report = run_local(&workload);
        assert_eq!(report.workload, "exact");
        assert_eq!(report.path, "local");
        assert_eq!(report.seed, 40);
        assert_eq!((report.queries, report.k), (6, 1));
        assert_eq!((report.accuracy, report.recall_at_k), (1.0, 1.0));
        // The direct scan scores every row for every query.
        assert_eq!(report.rows_scanned, 36);
        assert_eq!((report.rows_pruned, report.buckets_probed), (0, 0));
        assert_eq!(report.strategy, "Direct");
        assert_eq!(report.backend, hdc::active_backend_name());
        assert!(report.mean_latency_ns >= 0.0 && report.throughput_qps >= 0.0);

        // An empty stream reports zeros rather than dividing by zero.
        let empty = Exact {
            queries: Vec::new(),
            ..Exact::new(2)
        };
        let report = run_local(&empty);
        assert_eq!(report.queries, 0);
        assert_eq!((report.accuracy, report.mean_latency_ns), (0.0, 0.0));
        assert_eq!(report.rows_scanned, 0);
    }
}
