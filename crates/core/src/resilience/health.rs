//! The health state machine: folding query telemetry and scrub reports
//! into `Healthy → Degraded → Quarantined` serving decisions.
//!
//! The degradation controller judges one query at a time; the health
//! monitor watches the *stream*. Escalation and reject rates over a
//! rolling window, the margin histogram, per-query serving errors, and
//! scrub findings all fold into a three-state machine:
//!
//! ```text
//!            escalation/reject/error rate over policy,
//!            or scrub finds corrupted rows
//!   Healthy ─────────────────────────────────────────▶ Degraded
//!      ▲                                                  │
//!      │  `recovery_windows` consecutive clean windows    │ reject/error rate
//!      └──────────────────────────────────────────────────┤ over quarantine
//!                                                         │ policy, or massive
//!                              mark_restored()            ▼ scrub corruption
//!                  Degraded ◀───────────────────── Quarantined
//! ```
//!
//! The monitor only *decides*; acting on the decision (tightening the
//! [`DegradationPolicy`], scrubbing, restoring from snapshot) is the
//! [`ResilientServer`](crate::resilience::serve::ResilientServer)'s job,
//! so the state machine stays trivially unit-testable.

use crate::model::HamError;
use crate::resilience::degrade::{Confidence, DegradationPolicy, EngineStage, QueryOutcome};
use crate::resilience::scrub::ScrubReport;

/// Margin histogram buckets: power-of-two bit-margin ranges
/// `[0, 1, 2-3, 4-7, ..., 64+]`.
pub const MARGIN_BUCKETS: usize = 8;

/// The serving health of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Telemetry within policy; serve at the base degradation policy.
    Healthy,
    /// Elevated escalations, rejects, errors, or scrub findings; serve
    /// with a tightened policy and scrub aggressively.
    Degraded,
    /// The array can no longer be trusted; stop trusting in-place state
    /// and restore from a golden snapshot.
    Quarantined,
}

impl HealthState {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
        }
    }

    fn index(&self) -> usize {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Quarantined => 2,
        }
    }
}

/// A state change decided by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// The state left.
    pub from: HealthState,
    /// The state entered.
    pub to: HealthState,
}

/// Thresholds governing the state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Queries per evaluation window.
    pub window: usize,
    /// Fraction of a window escalating to the exact engine that leaves
    /// `Healthy`.
    pub degrade_exact_rate: f64,
    /// Fraction of a window rejected that leaves `Healthy`.
    pub degrade_reject_rate: f64,
    /// Fraction of a window erroring (panics, etc.) that leaves `Healthy`.
    pub degrade_error_rate: f64,
    /// Reject fraction that forces `Quarantined` from any state.
    pub quarantine_reject_rate: f64,
    /// Error fraction that forces `Quarantined` from any state.
    pub quarantine_error_rate: f64,
    /// Scrub corruption (row count) that leaves `Healthy`.
    pub degrade_corrupted_rows: usize,
    /// Scrub corruption (row count) that forces `Quarantined`.
    pub quarantine_corrupted_rows: usize,
    /// Consecutive clean windows required to return to `Healthy`.
    pub recovery_windows: usize,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            window: 64,
            degrade_exact_rate: 0.5,
            degrade_reject_rate: 0.05,
            degrade_error_rate: 0.02,
            quarantine_reject_rate: 0.25,
            quarantine_error_rate: 0.25,
            degrade_corrupted_rows: 1,
            quarantine_corrupted_rows: 8,
            recovery_windows: 2,
        }
    }
}

/// Counters for the current (incomplete) evaluation window.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    seen: usize,
    exact: usize,
    rejected: usize,
    errors: usize,
}

impl Window {
    fn rate(count: usize, seen: usize) -> f64 {
        if seen == 0 {
            0.0
        } else {
            count as f64 / seen as f64
        }
    }
}

/// Folds [`QueryOutcome`] streams, serving errors, and [`ScrubReport`]s
/// into a [`HealthState`].
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    state: HealthState,
    window: Window,
    clean_windows: usize,
    margin_hist: [usize; MARGIN_BUCKETS],
    occupancy: [usize; 3],
    transitions: Vec<HealthTransition>,
}

impl HealthMonitor {
    /// A monitor starting `Healthy` under the given policy.
    pub fn new(policy: HealthPolicy) -> Self {
        HealthMonitor {
            policy,
            state: HealthState::Healthy,
            window: Window::default(),
            clean_windows: 0,
            margin_hist: [0; MARGIN_BUCKETS],
            occupancy: [0; 3],
            transitions: Vec::new(),
        }
    }

    /// Current health state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The policy the monitor evaluates against.
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Cumulative margin histogram over every observed outcome, bucketed
    /// `[0, 1, 2-3, 4-7, ..., 64+]` bits.
    pub fn margin_histogram(&self) -> &[usize; MARGIN_BUCKETS] {
        &self.margin_hist
    }

    /// Every transition taken so far, in order.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Queries observed while resident in each state, as fractions
    /// `[healthy, degraded, quarantined]` of the total (zeros before any
    /// observation).
    pub fn occupancy_fractions(&self) -> [f64; 3] {
        let total: usize = self.occupancy.iter().sum();
        if total == 0 {
            return [0.0; 3];
        }
        let mut out = [0.0; 3];
        for (slot, count) in out.iter_mut().zip(self.occupancy) {
            *slot = count as f64 / total as f64;
        }
        out
    }

    /// The degradation policy the server should run at in the current
    /// state: `base` while `Healthy`, and a tightened variant (doubled
    /// confidence margin, 1.5× reject margin, one extra retry) once
    /// degraded — trading energy for caution exactly when telemetry says
    /// the array is drifting.
    pub fn tightened(&self, base: DegradationPolicy) -> DegradationPolicy {
        match self.state {
            HealthState::Healthy => base,
            HealthState::Degraded | HealthState::Quarantined => DegradationPolicy {
                confident_margin: base.confident_margin.saturating_mul(2),
                reject_margin: base.reject_margin + base.reject_margin / 2,
                max_retries: base.max_retries + 1,
            },
        }
    }

    /// Folds one query outcome into the stream; completes and evaluates
    /// the window when it fills.
    pub fn observe_outcome(&mut self, outcome: &QueryOutcome) -> Option<HealthTransition> {
        self.occupancy[self.state.index()] += 1;
        self.window.seen += 1;
        if outcome.final_engine == EngineStage::Exact {
            self.window.exact += 1;
        }
        if outcome.confidence == Confidence::Rejected {
            self.window.rejected += 1;
        }
        let bucket = if outcome.margin == 0 {
            0
        } else {
            (outcome.margin.ilog2() as usize + 1).min(MARGIN_BUCKETS - 1)
        };
        self.margin_hist[bucket] += 1;
        self.maybe_close_window()
    }

    /// Folds one per-query serving error (worker panic, timeout, shed)
    /// into the stream. Load-control outcomes
    /// ([`HamError::is_load_control`]: timeouts, shedding, quota
    /// rejection, drain) say nothing about array health and only advance
    /// the window; real failures count as errors.
    pub fn observe_error(&mut self, error: &HamError) -> Option<HealthTransition> {
        self.occupancy[self.state.index()] += 1;
        self.window.seen += 1;
        if !error.is_load_control() {
            self.window.errors += 1;
        }
        self.maybe_close_window()
    }

    /// Folds a scrub report in. Unlike query telemetry, corruption
    /// findings act immediately (a scrub is already an aggregate over the
    /// whole array, so there is nothing to wait for).
    pub fn observe_scrub(&mut self, report: &ScrubReport) -> Option<HealthTransition> {
        let corrupted = report.corrupted.len();
        if corrupted >= self.policy.quarantine_corrupted_rows {
            return self.transition_to(HealthState::Quarantined);
        }
        if corrupted >= self.policy.degrade_corrupted_rows.max(1)
            && self.state == HealthState::Healthy
        {
            return self.transition_to(HealthState::Degraded);
        }
        None
    }

    /// Records a successful restore from snapshot: quarantine ends, but
    /// the array re-enters service on probation (`Degraded`) until it
    /// proves itself over `recovery_windows` clean windows.
    pub fn mark_restored(&mut self) -> Option<HealthTransition> {
        if self.state == HealthState::Quarantined {
            self.clean_windows = 0;
            self.transition_to(HealthState::Degraded)
        } else {
            None
        }
    }

    fn maybe_close_window(&mut self) -> Option<HealthTransition> {
        if self.window.seen < self.policy.window.max(1) {
            return None;
        }
        let w = self.window;
        self.window = Window::default();
        let exact_rate = Window::rate(w.exact, w.seen);
        let reject_rate = Window::rate(w.rejected, w.seen);
        let error_rate = Window::rate(w.errors, w.seen);

        if reject_rate >= self.policy.quarantine_reject_rate
            || error_rate >= self.policy.quarantine_error_rate
        {
            return self.transition_to(HealthState::Quarantined);
        }
        match self.state {
            HealthState::Healthy => {
                if exact_rate >= self.policy.degrade_exact_rate
                    || reject_rate >= self.policy.degrade_reject_rate
                    || error_rate >= self.policy.degrade_error_rate
                {
                    return self.transition_to(HealthState::Degraded);
                }
                None
            }
            HealthState::Degraded => {
                let clean = exact_rate < self.policy.degrade_exact_rate
                    && reject_rate < self.policy.degrade_reject_rate
                    && error_rate < self.policy.degrade_error_rate;
                if clean {
                    self.clean_windows += 1;
                    if self.clean_windows >= self.policy.recovery_windows.max(1) {
                        return self.transition_to(HealthState::Healthy);
                    }
                } else {
                    self.clean_windows = 0;
                }
                None
            }
            // Quarantine only ends via `mark_restored`.
            HealthState::Quarantined => None,
        }
    }

    fn transition_to(&mut self, to: HealthState) -> Option<HealthTransition> {
        if self.state == to {
            return None;
        }
        let t = HealthTransition {
            from: self.state,
            to,
        };
        self.state = to;
        self.clean_windows = 0;
        self.transitions.push(t);
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HamSearchResult;
    use hdc::prelude::*;

    fn outcome(margin: usize, confidence: Confidence, engine: EngineStage) -> QueryOutcome {
        QueryOutcome {
            result: HamSearchResult {
                class: ClassId(0),
                measured_distance: Distance::new(10),
            },
            confidence,
            escalations: usize::from(engine != EngineStage::Primary),
            final_engine: engine,
            margin,
            scan: ScanCounters::default(),
        }
    }

    fn good() -> QueryOutcome {
        outcome(200, Confidence::Confident, EngineStage::Primary)
    }

    fn rejected() -> QueryOutcome {
        outcome(0, Confidence::Rejected, EngineStage::Exact)
    }

    fn small_policy() -> HealthPolicy {
        HealthPolicy {
            window: 10,
            recovery_windows: 2,
            ..HealthPolicy::default()
        }
    }

    #[test]
    fn healthy_stream_stays_healthy() {
        let mut m = HealthMonitor::new(small_policy());
        for _ in 0..100 {
            assert_eq!(m.observe_outcome(&good()), None);
        }
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.occupancy_fractions(), [1.0, 0.0, 0.0]);
        assert!(m.transitions().is_empty());
        // All margins landed in the top bucket.
        assert_eq!(m.margin_histogram()[MARGIN_BUCKETS - 1], 100);
    }

    #[test]
    fn reject_rate_degrades_then_recovers() {
        let mut m = HealthMonitor::new(small_policy());
        // One rejected query in a 10-query window = 10% ≥ 5% threshold.
        let mut transition = None;
        for i in 0..10 {
            let o = if i == 0 { rejected() } else { good() };
            transition = m.observe_outcome(&o).or(transition);
        }
        assert_eq!(
            transition,
            Some(HealthTransition {
                from: HealthState::Healthy,
                to: HealthState::Degraded
            })
        );
        assert_eq!(m.state(), HealthState::Degraded);

        // Two clean windows bring it home.
        let mut back = None;
        for _ in 0..20 {
            back = m.observe_outcome(&good()).or(back);
        }
        assert_eq!(
            back,
            Some(HealthTransition {
                from: HealthState::Degraded,
                to: HealthState::Healthy
            })
        );
        let occ = m.occupancy_fractions();
        assert!(occ[0] > 0.0 && occ[1] > 0.0 && occ[2] == 0.0);
    }

    #[test]
    fn massive_reject_rate_quarantines_and_restore_is_probational() {
        let mut m = HealthMonitor::new(small_policy());
        for _ in 0..10 {
            m.observe_outcome(&rejected());
        }
        assert_eq!(m.state(), HealthState::Quarantined);
        // More telemetry cannot un-quarantine.
        for _ in 0..30 {
            m.observe_outcome(&good());
        }
        assert_eq!(m.state(), HealthState::Quarantined);
        // Restore drops to Degraded, then clean windows finish the climb.
        assert_eq!(
            m.mark_restored(),
            Some(HealthTransition {
                from: HealthState::Quarantined,
                to: HealthState::Degraded
            })
        );
        assert_eq!(m.mark_restored(), None);
        for _ in 0..20 {
            m.observe_outcome(&good());
        }
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.transitions().len(), 3);
    }

    #[test]
    fn worker_errors_degrade_but_load_control_does_not() {
        let mut m = HealthMonitor::new(small_policy());
        // A window full of sheds and timeouts is a load problem, not an
        // array problem.
        for i in 0..10 {
            let e = match i % 4 {
                0 => HamError::TimedOut,
                1 => HamError::Shed { priority: 0 },
                2 => HamError::QuotaExceeded { tenant: 7 },
                _ => HamError::Draining,
            };
            assert_eq!(m.observe_error(&e), None);
        }
        assert_eq!(m.state(), HealthState::Healthy);
        // One panic in a window (10% ≥ 2%) degrades.
        m.observe_error(&HamError::WorkerPanicked { query: 0 });
        for _ in 0..9 {
            m.observe_outcome(&good());
        }
        assert_eq!(m.state(), HealthState::Degraded);
    }

    #[test]
    fn scrub_findings_act_immediately() {
        let mut m = HealthMonitor::new(small_policy());
        let clean = ScrubReport {
            scanned: 8,
            corrupted: vec![],
            repaired: vec![],
        };
        assert_eq!(m.observe_scrub(&clean), None);
        assert_eq!(m.state(), HealthState::Healthy);

        let light = ScrubReport {
            scanned: 8,
            corrupted: vec![(ClassId(1), Distance::new(3))],
            repaired: vec![],
        };
        assert!(m.observe_scrub(&light).is_some());
        assert_eq!(m.state(), HealthState::Degraded);
        // Re-observing light damage while degraded is not a transition.
        assert_eq!(m.observe_scrub(&light), None);

        let heavy = ScrubReport {
            scanned: 8,
            corrupted: (0..8).map(|i| (ClassId(i), Distance::new(40))).collect(),
            repaired: vec![],
        };
        assert!(m.observe_scrub(&heavy).is_some());
        assert_eq!(m.state(), HealthState::Quarantined);
    }

    #[test]
    fn tightened_policy_is_more_cautious() {
        let mut m = HealthMonitor::new(small_policy());
        let base = DegradationPolicy {
            confident_margin: 40,
            reject_margin: 10,
            max_retries: 2,
        };
        assert_eq!(m.tightened(base), base);
        for _ in 0..10 {
            m.observe_outcome(&rejected());
        }
        let tight = m.tightened(base);
        assert_eq!(tight.confident_margin, 80);
        assert_eq!(tight.reject_margin, 15);
        assert_eq!(tight.max_retries, 3);
    }

    #[test]
    fn state_names_and_order() {
        assert_eq!(HealthState::Healthy.name(), "healthy");
        assert_eq!(HealthState::Degraded.name(), "degraded");
        assert_eq!(HealthState::Quarantined.name(), "quarantined");
        assert!(HealthState::Healthy < HealthState::Degraded);
        assert!(HealthState::Degraded < HealthState::Quarantined);
    }

    #[test]
    fn margins_bucket_by_powers_of_two() {
        let mut m = HealthMonitor::new(HealthPolicy {
            window: 1_000,
            ..HealthPolicy::default()
        });
        for margin in [0usize, 1, 2, 3, 4, 7, 8, 63, 64, 1_000] {
            m.observe_outcome(&outcome(
                margin,
                Confidence::Confident,
                EngineStage::Primary,
            ));
        }
        // [0], [1], [2-3], [4-7], [8-15], [16-31], [32-63], [64+].
        assert_eq!(m.margin_histogram(), &[1, 1, 2, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn exact_escalations_alone_degrade_at_their_rate() {
        let confident_exact = outcome(200, Confidence::Confident, EngineStage::Exact);
        let good = good();
        // Four escalations in ten (40% < 50%): still healthy.
        let mut m = HealthMonitor::new(small_policy());
        for i in 0..10 {
            m.observe_outcome(if i < 4 { &confident_exact } else { &good });
        }
        assert_eq!(m.state(), HealthState::Healthy);
        // Five in ten reaches the threshold.
        for i in 0..10 {
            m.observe_outcome(if i < 5 { &confident_exact } else { &good });
        }
        assert_eq!(m.state(), HealthState::Degraded);
    }

    #[test]
    fn a_dirty_window_during_recovery_restarts_the_count() {
        let mut m = HealthMonitor::new(small_policy());
        m.observe_outcome(&rejected());
        for _ in 0..9 {
            m.observe_outcome(&good());
        }
        assert_eq!(m.state(), HealthState::Degraded);
        // Clean, dirty, clean: the dirty window resets the streak.
        let window = |m: &mut HealthMonitor, dirty: bool| {
            for i in 0..10 {
                m.observe_outcome(&if dirty && i == 0 { rejected() } else { good() });
            }
        };
        window(&mut m, false);
        window(&mut m, true);
        window(&mut m, false);
        assert_eq!(m.state(), HealthState::Degraded);
        window(&mut m, false);
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.transitions().len(), 2);
    }

    #[test]
    fn a_zero_window_evaluates_every_query() {
        let mut m = HealthMonitor::new(HealthPolicy {
            window: 0,
            ..HealthPolicy::default()
        });
        assert_eq!(m.observe_outcome(&good()), None);
        // One rejected query is a whole window at a 100% reject rate.
        assert_eq!(
            m.observe_outcome(&rejected()),
            Some(HealthTransition {
                from: HealthState::Healthy,
                to: HealthState::Quarantined
            })
        );
        assert_eq!(m.policy().window, 0);
    }

    #[test]
    fn restoring_outside_quarantine_changes_nothing() {
        let mut m = HealthMonitor::new(small_policy());
        assert_eq!(m.occupancy_fractions(), [0.0; 3]);
        assert_eq!(m.mark_restored(), None);
        assert_eq!(m.state(), HealthState::Healthy);
        m.observe_outcome(&rejected());
        for _ in 0..9 {
            m.observe_outcome(&good());
        }
        assert_eq!(m.state(), HealthState::Degraded);
        assert_eq!(m.mark_restored(), None);
        assert_eq!(m.state(), HealthState::Degraded);
        assert_eq!(m.transitions().len(), 1);
    }
}
