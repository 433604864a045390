//! The serving path: provisioning any [`Workload`] as a `ham-serve`
//! tenant and scoring its query stream through the provisioned engine —
//! the same [`TenantState::serve`] entry point the TCP front end drives,
//! so a `path = "served"` report row measures the production stack
//! (degradation ladder, health monitor, index policy, telemetry)
//! end to end.
//!
//! The served ranking is top-1 (the wire protocol returns one
//! [`SlotResult::Hit`](ham_serve::SlotResult) per query), so the served
//! `recall_at_k` equals the served accuracy; scenarios with `k > 1`
//! report their full recall only on the local path. Per-query
//! [`QueryOutcome`](ham_core::resilience::QueryOutcome) telemetry — scan counters included — is aggregated
//! into the report (rows_pruned / buckets_probed per workload, not just
//! accuracy).

use ham_core::explore::DesignKind;
use ham_core::resilience::{QueryBudget, ResilientOptions, PRIORITY_HIGH};
use ham_core::HamError;
use ham_serve::{TenantSpec, TenantState};
use hdc::ClassId;

use crate::{score, Workload, WorkloadReport};

/// A tenant spec serving this workload's binary memory (scan strategy
/// and attached index included) under the digital design, named after
/// the scenario.
pub fn tenant_spec<W: Workload + ?Sized>(workload: &W, tenant: u16) -> TenantSpec {
    TenantSpec::new(
        tenant,
        workload.name(),
        DesignKind::Digital,
        workload.memory().clone(),
    )
}

/// Provisions this workload as a standalone tenant engine (no snapshot
/// directory, default resilience options) — the same provisioning path
/// [`ham_serve::Server::start`] runs per tenant, index policy included.
///
/// # Errors
///
/// Propagates engine-construction failures from the resilience stack.
pub fn provision<W: Workload + ?Sized>(workload: &W, tenant: u16) -> Result<TenantState, HamError> {
    TenantState::provision(
        tenant_spec(workload, tenant),
        ResilientOptions::default(),
        None,
    )
}

/// Runs the workload's full query stream through a provisioned tenant
/// engine and scores the outcomes — the `path = "served"` row.
///
/// Queries that the engine sheds, times out, or fails are scored as
/// misses (an empty ranking): the serving path is judged on what it
/// actually answered.
///
/// # Errors
///
/// Propagates whole-batch rejections (quota, drain) from
/// [`TenantState::serve`].
pub fn run_served<W: Workload + ?Sized>(
    workload: &W,
    state: &TenantState,
) -> Result<WorkloadReport, HamError> {
    let queries: Vec<_> = workload
        .queries()
        .iter()
        .map(|record| record.query.clone())
        .collect();
    let report = state.serve(&queries, PRIORITY_HIGH, QueryBudget::unbounded())?;
    // Outcomes come back in input order; collapse each to its top-1
    // ranking. `report.scan` is already the absorbed sum of every
    // outcome's [`QueryOutcome::scan`] — note it only counts queries the
    // degradation ladder escalated to the exact counted rung; queries
    // settled confidently at the primary engine cost no counted scan.
    let scan = report.scan;
    let rankings: Vec<(usize, Vec<usize>)> = workload
        .queries()
        .iter()
        .zip(&report.outcomes)
        .map(|(record, outcome)| {
            let ranking = match outcome {
                Ok(outcome) => {
                    let ClassId(row) = outcome.result.class;
                    vec![row]
                }
                Err(_) => Vec::new(),
            };
            (record.truth, ranking)
        })
        .collect();
    let scores = score(
        rankings.iter().map(|(t, r)| (*t, r.as_slice())),
        workload.k(),
    );
    let queries = rankings.len();
    let secs = report.elapsed.as_secs_f64();
    Ok(WorkloadReport {
        workload: workload.name(),
        path: "served",
        seed: workload.seed(),
        queries,
        k: workload.k(),
        accuracy: scores.accuracy,
        recall_at_k: scores.recall_at_k,
        throughput_qps: if secs > 0.0 {
            queries as f64 / secs
        } else {
            0.0
        },
        mean_latency_ns: if queries > 0 {
            report.elapsed.as_nanos() as f64 / queries as f64
        } else {
            0.0
        },
        rows_scanned: scan.rows_scanned,
        rows_pruned: scan.rows_pruned,
        buckets_probed: scan.buckets_probed,
        backend: report.kernel_backend,
        strategy: crate::strategy_label(workload.resolved_strategy()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::{WeightedParams, WeightedWorkload};
    use crate::Workload;

    #[test]
    fn served_weighted_scores_the_binarized_baseline() {
        let w = WeightedWorkload::build(
            WeightedParams {
                dim: 512,
                classes: 8,
                train_copies: 7,
                noisy_dims: 256,
                train_flips: 256 * 15 / 100,
                queries_per_class: 4,
                // Easy queries: this test pins serving-path plumbing
                // (top-1 collapse, binarized parity, strategy label),
                // so margins stay wide enough that every degradation
                // rung agrees with the exact binary search.
                query_flips: 256 / 4,
            },
            21,
        );
        let state = provision(&w, 9).expect("provisions");
        let report = run_served(&w, &state).expect("serves");
        assert_eq!(report.workload, "weighted");
        assert_eq!(report.path, "served");
        assert_eq!(report.queries, w.queries().len());
        // The served engine answers with the binarized memory; its
        // accuracy is the binarized baseline.
        assert!((report.accuracy - w.binarized_accuracy()).abs() < 1e-12);
        // Top-1 wire path: recall collapses to accuracy.
        assert_eq!(report.accuracy, report.recall_at_k);
        // No index at this scale, so the strategy row reads Direct.
        assert_eq!(report.strategy, "Direct");
    }
}
