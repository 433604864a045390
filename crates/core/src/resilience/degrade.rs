//! The graceful-degradation controller: margin-gated escalation from the
//! cheap approximate engine up to the exact Hamming search.
//!
//! A HAM decision is only as good as its winner-to-runner-up margin: a
//! holographic query that lands far from every stored class but one is
//! safe to approximate, while a query whose top two candidates are a few
//! bits apart flips under the slightest injected error. The controller
//! measures that margin on every search and walks a fixed escalation
//! ladder until the decision clears the policy's confidence bar:
//!
//! 1. **Primary** — the configured approximate engine;
//! 2. **Resample** — retry engines with query-independent randomness
//!    (D-HAM redraws its sample mask, R-HAM re-salts its overscaling
//!    error stream; A-HAM is deterministic and skips this rung);
//! 3. **Widened** — a precomputed engine with its approximation knob
//!    backed off halfway toward the full array;
//! 4. **Exact** — full-width Hamming search over the stored rows.
//!
//! Whatever rung settles the query, the controller reports the full
//! [`QueryOutcome`] telemetry: final classification, confidence class,
//! escalation count, and the rung and margin that produced the answer.

use hdc::prelude::*;

use crate::aham::AHam;
use crate::dham::DHam;
use crate::explore::DesignKind;
use crate::model::HamDesign as _;
use crate::model::{HamError, HamSearchResult, MarginSearchResult};
use crate::rham::{BlockErrorModel, RHam};
use crate::shard::MemoryVersion;

/// Margin thresholds and retry budget of the degradation controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// A decision whose margin reaches this many bits is accepted
    /// without further escalation.
    pub confident_margin: usize,
    /// A decision still below this margin *after the exact search* is
    /// rejected rather than classified.
    pub reject_margin: usize,
    /// Resample retries attempted before widening the engine.
    pub max_retries: usize,
}

impl DegradationPolicy {
    /// The policy scaled to a dimensionality: confident at 1 % of `D`,
    /// reject below 0.1 % of `D`, two resample retries.
    pub fn for_dim(dim: usize) -> Self {
        DegradationPolicy {
            confident_margin: (dim / 100).max(1),
            reject_margin: (dim / 1_000).max(1),
            max_retries: 2,
        }
    }
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy::for_dim(10_000)
    }
}

/// How much trust the controller puts in a final classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Confidence {
    /// Margin cleared [`DegradationPolicy::confident_margin`].
    Confident,
    /// The exact search settled the query, but its margin sits between
    /// the reject and confident thresholds.
    Marginal,
    /// Even the exact search could not separate the top candidates; the
    /// classification should not be trusted.
    Rejected,
}

/// The rung of the escalation ladder that produced the final answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineStage {
    /// The configured approximate engine.
    Primary,
    /// A retry with fresh engine randomness.
    Resample,
    /// The precomputed half-widened engine.
    Widened,
    /// The exact software Hamming search.
    Exact,
}

impl EngineStage {
    /// Display name of the rung.
    pub fn name(self) -> &'static str {
        match self {
            EngineStage::Primary => "primary",
            EngineStage::Resample => "resample",
            EngineStage::Widened => "widened",
            EngineStage::Exact => "exact",
        }
    }
}

/// Per-query telemetry of one controller classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The final classification.
    pub result: HamSearchResult,
    /// Trust class of the decision.
    pub confidence: Confidence,
    /// Extra engine invocations past the primary search.
    pub escalations: usize,
    /// The rung that produced the final answer.
    pub final_engine: EngineStage,
    /// The winner-to-runner-up margin of the final answer, in bits.
    pub margin: usize,
    /// Scan-work telemetry of the exact rung (rows scanned vs. pruned
    /// by the bucket index). Zero for queries the approximate rungs
    /// settled — only the exact scan routes through the counted kernel.
    pub scan: hdc::ScanCounters,
}

impl QueryOutcome {
    fn settled(result: MarginSearchResult, escalations: usize, stage: EngineStage) -> Self {
        let margin = result.margin();
        QueryOutcome {
            result: result.into_result(),
            confidence: Confidence::Confident,
            escalations,
            final_engine: stage,
            margin,
            scan: hdc::ScanCounters::default(),
        }
    }
}

/// The primary + half-widened engine pair of one design kind.
#[derive(Debug, Clone)]
enum Engine {
    Digital { primary: DHam, widened: DHam },
    Resistive { primary: RHam, widened: RHam },
    Analog { primary: AHam, widened: AHam },
}

impl Engine {
    fn primary_margin(&self, query: &Hypervector) -> Result<MarginSearchResult, HamError> {
        match self {
            Engine::Digital { primary, .. } => primary.search_with_margin(query),
            Engine::Resistive { primary, .. } => primary.search_with_margin(query),
            Engine::Analog { primary, .. } => primary.search_with_margin(query),
        }
    }

    fn resample_margin(
        &self,
        query: &Hypervector,
        salt: u64,
        memory: &AssociativeMemory,
    ) -> Result<Option<MarginSearchResult>, HamError> {
        match self {
            Engine::Digital { primary, .. } => {
                let mask =
                    SampleMask::keep_random(memory.dim(), primary.sampled_dimensions(), salt)
                        .map_err(HamError::Hdc)?;
                let hit = memory.search_sampled(query, &mask).map_err(HamError::Hdc)?;
                Ok(Some(MarginSearchResult {
                    class: hit.class,
                    measured_distance: hit.distance,
                    runner_up: hit.runner_up,
                }))
            }
            Engine::Resistive { primary, .. } => {
                if primary.overscaled_blocks() == 0 {
                    // No randomness to resample: the rung is a no-op.
                    return Ok(None);
                }
                Ok(Some(primary.search_with_margin_salted(query, salt)?))
            }
            // The analog tree is deterministic; retrying cannot help.
            Engine::Analog { .. } => Ok(None),
        }
    }

    fn widened_margin(&self, query: &Hypervector) -> Result<MarginSearchResult, HamError> {
        match self {
            Engine::Digital { widened, .. } => widened.search_with_margin(query),
            Engine::Resistive { widened, .. } => widened.search_with_margin(query),
            Engine::Analog { widened, .. } => widened.search_with_margin(query),
        }
    }

    fn kind(&self) -> DesignKind {
        match self {
            Engine::Digital { .. } => DesignKind::Digital,
            Engine::Resistive { .. } => DesignKind::Resistive,
            Engine::Analog { .. } => DesignKind::Analog,
        }
    }

    fn rung_rows(&self) -> [Vec<&[u64]>; 2] {
        fn words(rows: &[Hypervector]) -> Vec<&[u64]> {
            rows.iter().map(|hv| hv.as_bitvec().as_words()).collect()
        }
        match self {
            Engine::Digital { primary, widened } => [words(primary.rows()), words(widened.rows())],
            Engine::Resistive { primary, widened } => {
                [words(primary.rows()), words(widened.rows())]
            }
            Engine::Analog { primary, widened } => [
                primary.rows().iter_rows().collect(),
                widened.rows().iter_rows().collect(),
            ],
        }
    }

    fn apply_patch(&mut self, patch: &RowPatch<'_>) {
        match self {
            Engine::Digital { primary, widened } => {
                primary.apply_patch(patch);
                widened.apply_patch(patch);
            }
            Engine::Resistive { primary, widened } => {
                primary.apply_patch(patch);
                widened.apply_patch(patch);
            }
            Engine::Analog { primary, widened } => {
                primary.apply_patch(patch);
                widened.apply_patch(patch);
            }
        }
    }
}

/// Wraps an approximate HAM engine with margin-gated escalation over a
/// (possibly fault-injected) associative memory.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use ham_core::explore::{random_memory, DesignKind};
/// use ham_core::resilience::{Confidence, DegradationController, DegradationPolicy, EngineStage};
///
/// let memory = random_memory(21, 2_000, 42);
/// let controller = DegradationController::for_kind(
///     DesignKind::Digital,
///     memory.clone(),
///     DegradationPolicy::for_dim(2_000),
/// )?;
/// // A clean self-query settles on the primary engine with full trust.
/// let outcome = controller.classify(memory.row(ClassId(3)).unwrap(), 0)?;
/// assert_eq!(outcome.result.class, ClassId(3));
/// assert_eq!(outcome.confidence, Confidence::Confident);
/// assert_eq!(outcome.final_engine, EngineStage::Primary);
/// assert_eq!(outcome.escalations, 0);
/// # Ok::<(), ham_core::HamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DegradationController {
    memory: AssociativeMemory,
    policy: DegradationPolicy,
    engine: Engine,
}

impl DegradationController {
    /// A controller over a D-HAM sampling `sampled` of the memory's `D`
    /// dimensions; the widened engine samples halfway between `sampled`
    /// and `D`.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory and
    /// [`HamError::Hdc`] for an invalid sampling width.
    pub fn digital(
        memory: AssociativeMemory,
        sampled: usize,
        policy: DegradationPolicy,
    ) -> Result<Self, HamError> {
        let d = memory.dim().get();
        let primary = DHam::with_sampling(&memory, sampled)?;
        let widened = DHam::with_sampling(&memory, sampled + (d - sampled.min(d)).div_ceil(2))?;
        Ok(DegradationController {
            memory,
            policy,
            engine: Engine::Digital { primary, widened },
        })
    }

    /// A controller over an R-HAM with `overscaled` voltage-overscaled
    /// blocks (and optionally a degraded read-error model injected by a
    /// fault); the widened engine overscales half as many blocks.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    pub fn resistive(
        memory: AssociativeMemory,
        overscaled: usize,
        errors: Option<BlockErrorModel>,
        policy: DegradationPolicy,
    ) -> Result<Self, HamError> {
        let mut primary = RHam::new(&memory)?.with_overscaled_blocks(overscaled);
        if let Some(errors) = errors {
            primary = primary.with_error_model(errors);
        }
        let widened = primary
            .clone()
            .with_overscaled_blocks(primary.overscaled_blocks() / 2);
        Ok(DegradationController {
            memory,
            policy,
            engine: Engine::Resistive { primary, widened },
        })
    }

    /// A controller over an A-HAM at the recommended configuration; the
    /// widened engine runs two extra LTA bits for a finer minimum
    /// detectable distance.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    pub fn analog(memory: AssociativeMemory, policy: DegradationPolicy) -> Result<Self, HamError> {
        let primary = AHam::new(&memory)?;
        let widened = AHam::new(&memory)?.with_lta_bits(primary.lta_bits() + 2);
        Ok(DegradationController {
            memory,
            policy,
            engine: Engine::Analog { primary, widened },
        })
    }

    /// A controller at each design's standard approximate operating
    /// point: D-HAM samples 90 % of `D`, R-HAM overscales every block,
    /// A-HAM runs its recommended resolution.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::NoClasses`] for an empty memory.
    pub fn for_kind(
        kind: DesignKind,
        memory: AssociativeMemory,
        policy: DegradationPolicy,
    ) -> Result<Self, HamError> {
        match kind {
            DesignKind::Digital => {
                let sampled = (memory.dim().get() * 9 / 10).max(1);
                DegradationController::digital(memory, sampled, policy)
            }
            DesignKind::Resistive => {
                let blocks = memory.dim().get().div_ceil(crate::rham::BLOCK_BITS);
                DegradationController::resistive(memory, blocks, None, policy)
            }
            DesignKind::Analog => DegradationController::analog(memory, policy),
        }
    }

    /// The design kind of the wrapped engine.
    pub fn kind(&self) -> DesignKind {
        self.engine.kind()
    }

    /// The controller's policy.
    pub fn policy(&self) -> DegradationPolicy {
        self.policy
    }

    /// The stored rows the controller searches (faulted, if an injector
    /// ran before construction).
    pub fn memory(&self) -> &AssociativeMemory {
        &self.memory
    }

    /// The packed words each rung's private row copy holds, primary then
    /// widened — what [`advance`](Self::advance) keeps equal to the
    /// searched memory's rows.
    pub fn rung_rows(&self) -> [Vec<&[u64]>; 2] {
        self.engine.rung_rows()
    }

    /// Switches the margin policy; the rungs do not depend on it.
    pub(crate) fn set_policy(&mut self, policy: DegradationPolicy) {
        self.policy = policy;
    }

    /// Carries the controller forward to `version`, given that it serves
    /// `version`'s predecessor at epoch `since`: the rows and labels of
    /// every chunk replaced after `since`
    /// ([`MemoryVersion::patch_since`]) are written into the searched
    /// memory and into each rung's private copy, the version's own
    /// bucket index, bit-sliced mirror and scan strategy are attached,
    /// and `policy` takes effect. The result is the controller
    /// [`for_kind`](Self::for_kind) builds over `version.memory()`, at
    /// the cost of the changed chunks — nothing is materialized and the
    /// index and mirror are shared, never copied. Rows outside the
    /// changed chunks are kept as served.
    ///
    /// # Errors
    ///
    /// [`HamError::NoClasses`] for an empty version and
    /// [`HamError::DimensionMismatch`] for one from another space; the
    /// controller is unchanged then.
    pub fn advance(
        &mut self,
        version: &MemoryVersion,
        since: u64,
        policy: DegradationPolicy,
    ) -> Result<(), HamError> {
        if version.rows() == 0 {
            return Err(HamError::NoClasses);
        }
        if version.dim() != self.memory.dim() {
            return Err(HamError::DimensionMismatch {
                expected: self.memory.dim().get(),
                actual: version.dim().get(),
            });
        }
        let patch = version.patch_since(since);
        // `apply_patch` detaches the index and mirror before it writes,
        // so no shared structure is copied on the way.
        self.memory.apply_patch(&patch).map_err(HamError::Hdc)?;
        if let Some(index) = version.index_handle() {
            self.memory.attach_index(index).map_err(HamError::Hdc)?;
        }
        if let Some(sliced) = version.sliced_handle() {
            self.memory.attach_sliced(sliced).map_err(HamError::Hdc)?;
        }
        self.memory.set_scan_strategy(version.scan_strategy());
        self.engine.apply_patch(&patch);
        self.policy = policy;
        Ok(())
    }

    /// Classifies one query, escalating while the decision margin stays
    /// below the policy's confidence bar. `query_index` is the query's
    /// position in its stream; it only seeds the resample rung, so two
    /// streams replaying the same queries in the same order agree
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::DimensionMismatch`] for a query from another
    /// space and propagates engine errors.
    pub fn classify(
        &self,
        query: &Hypervector,
        query_index: u64,
    ) -> Result<QueryOutcome, HamError> {
        let confident = self.policy.confident_margin;
        let mut escalations = 0usize;

        let primary = self.engine.primary_margin(query)?;
        if primary.margin() >= confident {
            return Ok(QueryOutcome::settled(
                primary,
                escalations,
                EngineStage::Primary,
            ));
        }

        for retry in 0..self.policy.max_retries {
            // Salts are derived from the stream position alone (never
            // zero, so the R-HAM retry actually redraws its errors).
            let salt = ((query_index + 1) << 16) + retry as u64 + 1;
            match self.engine.resample_margin(query, salt, &self.memory)? {
                None => break,
                Some(result) => {
                    escalations += 1;
                    if result.margin() >= confident {
                        return Ok(QueryOutcome::settled(
                            result,
                            escalations,
                            EngineStage::Resample,
                        ));
                    }
                }
            }
        }

        escalations += 1;
        let widened = self.engine.widened_margin(query)?;
        if widened.margin() >= confident {
            return Ok(QueryOutcome::settled(
                widened,
                escalations,
                EngineStage::Widened,
            ));
        }

        escalations += 1;
        let (exact, scan) = self.memory.search_counted(query).map_err(HamError::Hdc)?;
        let margin = exact.margin();
        let confidence = self.exact_confidence(margin);
        Ok(QueryOutcome {
            result: HamSearchResult {
                class: exact.class,
                measured_distance: exact.distance,
            },
            confidence,
            escalations,
            final_engine: EngineStage::Exact,
            margin,
            scan,
        })
    }

    /// Classifies a whole query stream, split evenly across `threads`
    /// workers of the [`hdc::parallel`] executor (`0` means one per
    /// available core). Query `i` of the batch is classified exactly as
    /// [`classify`](Self::classify)`(…, start_index + i)` would — the
    /// resample salts depend only on the stream position, so the batched
    /// ladder is replay-deterministic and bit-identical to the serial
    /// loop. Outcomes come back in input order.
    ///
    /// # Errors
    ///
    /// Returns the first (in input order) engine error.
    pub fn classify_batch(
        &self,
        queries: &[Hypervector],
        start_index: u64,
        threads: usize,
    ) -> Result<Vec<QueryOutcome>, HamError> {
        hdc::parallel::map_even(queries.len(), threads, |i| {
            self.classify(&queries[i], start_index + i as u64)
        })
        .into_iter()
        .collect()
    }

    /// Trust class of a margin measured by the *exact* search, the bottom
    /// rung of the ladder.
    fn exact_confidence(&self, margin: usize) -> Confidence {
        if margin >= self.policy.confident_margin {
            Confidence::Confident
        } else if margin >= self.policy.reject_margin {
            Confidence::Marginal
        } else {
            Confidence::Rejected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::random_memory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy(dim: usize) -> DegradationPolicy {
        DegradationPolicy::for_dim(dim)
    }

    #[test]
    fn clean_queries_settle_on_primary_for_all_kinds() {
        let memory = random_memory(21, 2_000, 42);
        let mut rng = StdRng::seed_from_u64(1);
        for kind in DesignKind::ALL {
            let controller =
                DegradationController::for_kind(kind, memory.clone(), policy(2_000)).unwrap();
            assert_eq!(controller.kind(), kind);
            for s in 0..5usize {
                let q = memory
                    .row(ClassId(s))
                    .unwrap()
                    .with_flipped_bits(200, &mut rng);
                let outcome = controller.classify(&q, s as u64).unwrap();
                assert_eq!(outcome.result.class, ClassId(s), "{kind}");
                assert_eq!(outcome.confidence, Confidence::Confident, "{kind}");
                assert_eq!(outcome.final_engine, EngineStage::Primary, "{kind}");
                assert_eq!(outcome.escalations, 0, "{kind}");
                assert!(outcome.margin >= controller.policy().confident_margin);
            }
        }
    }

    #[test]
    fn ambiguous_query_escalates_to_exact_and_is_not_confident() {
        // Two rows a handful of bits apart: no engine can build margin.
        let dim = Dimension::new(2_000).unwrap();
        let base = Hypervector::random(dim, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let near = base.with_flipped_bits(4, &mut rng);
        let mut memory = AssociativeMemory::new(dim);
        memory.insert("a", base.clone()).unwrap();
        memory.insert("b", near).unwrap();
        let query = base.with_flipped_bits(2, &mut rng);
        for kind in DesignKind::ALL {
            let controller =
                DegradationController::for_kind(kind, memory.clone(), policy(2_000)).unwrap();
            let outcome = controller.classify(&query, 0).unwrap();
            assert_eq!(outcome.final_engine, EngineStage::Exact, "{kind}");
            assert_ne!(outcome.confidence, Confidence::Confident, "{kind}");
            assert!(outcome.escalations >= 1, "{kind}");
            assert!(outcome.margin < controller.policy().confident_margin);
        }
    }

    #[test]
    fn identical_rows_are_rejected() {
        let dim = Dimension::new(1_000).unwrap();
        let hv = Hypervector::random(dim, 3);
        let mut memory = AssociativeMemory::new(dim);
        memory.insert("a", hv.clone()).unwrap();
        memory.insert("twin", hv.clone()).unwrap();
        let controller =
            DegradationController::for_kind(DesignKind::Digital, memory, policy(1_000)).unwrap();
        let outcome = controller.classify(&hv, 0).unwrap();
        assert_eq!(outcome.confidence, Confidence::Rejected);
        assert_eq!(outcome.margin, 0);
        assert_eq!(outcome.final_engine, EngineStage::Exact);
    }

    #[test]
    fn classification_is_replay_deterministic() {
        let memory = random_memory(21, 2_000, 7);
        let mut rng = StdRng::seed_from_u64(9);
        let queries: Vec<Hypervector> = (0..6)
            .map(|s| {
                memory
                    .row(ClassId(s))
                    .unwrap()
                    .with_flipped_bits(700, &mut rng)
            })
            .collect();
        for kind in DesignKind::ALL {
            let controller =
                DegradationController::for_kind(kind, memory.clone(), policy(2_000)).unwrap();
            for (i, q) in queries.iter().enumerate() {
                let a = controller.classify(q, i as u64).unwrap();
                let b = controller.classify(q, i as u64).unwrap();
                assert_eq!(a, b, "{kind} replay");
            }
        }
    }

    #[test]
    fn batched_ladder_matches_serial_ladder() {
        let memory = random_memory(21, 2_000, 11);
        let mut rng = StdRng::seed_from_u64(4);
        // A mix of easy and near-ambiguous queries so some escalate.
        let queries: Vec<Hypervector> = (0..17)
            .map(|s| {
                memory
                    .row(ClassId(s % 21))
                    .unwrap()
                    .with_flipped_bits(if s % 3 == 0 { 950 } else { 200 }, &mut rng)
            })
            .collect();
        for kind in DesignKind::ALL {
            let controller =
                DegradationController::for_kind(kind, memory.clone(), policy(2_000)).unwrap();
            let serial: Vec<QueryOutcome> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| controller.classify(q, 5 + i as u64).unwrap())
                .collect();
            for threads in [0usize, 1, 3, 32] {
                let batched = controller.classify_batch(&queries, 5, threads).unwrap();
                assert_eq!(batched, serial, "{kind} threads={threads}");
            }
        }
    }

    #[test]
    fn batch_classify_edge_cases() {
        let memory = random_memory(4, 1_000, 1);
        let controller =
            DegradationController::for_kind(DesignKind::Digital, memory, policy(1_000)).unwrap();
        assert!(controller.classify_batch(&[], 0, 4).unwrap().is_empty());
        let alien = Hypervector::random(Dimension::new(512).unwrap(), 1);
        let good = controller.memory().row(ClassId(0)).unwrap().clone();
        assert!(matches!(
            controller.classify_batch(&[good, alien], 0, 2),
            Err(HamError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn policy_scaling_and_defaults() {
        let p = DegradationPolicy::for_dim(10_000);
        assert_eq!(p.confident_margin, 100);
        assert_eq!(p.reject_margin, 10);
        assert_eq!(DegradationPolicy::default(), p);
        let tiny = DegradationPolicy::for_dim(50);
        assert_eq!(tiny.confident_margin, 1);
        assert_eq!(tiny.reject_margin, 1);
        assert_eq!(EngineStage::Primary.name(), "primary");
        assert_eq!(EngineStage::Exact.name(), "exact");
    }

    #[test]
    fn mismatched_query_is_rejected_with_typed_error() {
        let memory = random_memory(4, 1_000, 1);
        let controller =
            DegradationController::for_kind(DesignKind::Digital, memory, policy(1_000)).unwrap();
        let q = Hypervector::random(Dimension::new(512).unwrap(), 1);
        assert!(matches!(
            controller.classify(&q, 0),
            Err(HamError::DimensionMismatch {
                expected: 1_000,
                actual: 512
            })
        ));
    }
}
