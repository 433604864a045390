//! The common vocabulary of the three HAM designs: configuration, search
//! results, cost metrics, and the [`HamDesign`] trait.

use hdc::prelude::*;

use crate::units::{EnergyDelay, Nanoseconds, Picojoules, SquareMillimeters};

/// Errors produced by the HAM architecture models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HamError {
    /// The underlying HD layer reported an error.
    Hdc(HdcError),
    /// A design was built over an empty associative memory.
    NoClasses,
    /// A query's dimensionality does not match the design's array.
    DimensionMismatch {
        /// The design's dimensionality.
        expected: usize,
        /// The query's dimensionality.
        actual: usize,
    },
    /// A scrubber's golden rows do not match the memory it is scanning.
    GoldenMismatch {
        /// Golden rows held by the scrubber.
        golden: usize,
        /// Classes stored in the scanned memory.
        stored: usize,
    },
    /// A worker thread panicked while searching this query. The panic is
    /// contained to the query's result slot; the rest of the batch is
    /// unaffected.
    WorkerPanicked {
        /// Input-order index of the query whose search panicked.
        query: usize,
    },
    /// The batch's deadline expired before this query was searched; the
    /// queries searched in time carry their real results.
    TimedOut,
    /// The admission controller shed this query under overload before it
    /// reached a worker.
    Shed {
        /// The priority the query was submitted with (lower sheds first).
        priority: u8,
    },
    /// The tenant named in a request is not provisioned on this server.
    UnknownTenant {
        /// The wire tenant id the request carried.
        tenant: u16,
    },
    /// The tenant exhausted its request quota; the request was rejected
    /// before reaching a worker. A per-tenant condition: other tenants'
    /// requests are unaffected.
    QuotaExceeded {
        /// The tenant whose quota ran dry.
        tenant: u16,
    },
    /// The server is draining (graceful shutdown): in-flight work is
    /// finished, but nothing new is admitted.
    Draining,
    /// A durability operation (write-ahead log append, checkpoint, or
    /// snapshot write) failed; the in-memory state is unchanged but the
    /// mutation was **not** made crash-durable and was not published.
    Durability {
        /// Human-readable description of the underlying I/O failure.
        detail: String,
    },
}

impl HamError {
    /// Whether the serving runtime may retry the failed query: `true` for
    /// faults tied to a single execution (a contained worker panic),
    /// `false` for errors that are a property of the query or the
    /// array (dimension mismatches, empty memories) and for terminal
    /// serving outcomes (deadline expiry, load shedding, quota
    /// exhaustion, drain), which retrying cannot change.
    pub fn is_transient(&self) -> bool {
        matches!(self, HamError::WorkerPanicked { .. })
    }

    /// Whether this error is a *load-control* outcome — the serving layer
    /// declining work (deadline expiry, shedding, quota, drain) rather
    /// than the array failing. Load control says nothing about array
    /// health, so health monitors must not count it toward error rates.
    pub fn is_load_control(&self) -> bool {
        matches!(
            self,
            HamError::TimedOut
                | HamError::Shed { .. }
                | HamError::QuotaExceeded { .. }
                | HamError::Draining
        )
    }
}

impl std::fmt::Display for HamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HamError::Hdc(e) => write!(f, "hd layer error: {e}"),
            HamError::NoClasses => write!(f, "design needs at least one stored class"),
            HamError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "query dimension {actual} does not match array dimension {expected}"
                )
            }
            HamError::GoldenMismatch { golden, stored } => {
                write!(
                    f,
                    "{golden} golden rows cannot scrub a memory of {stored} classes"
                )
            }
            HamError::WorkerPanicked { query } => {
                write!(f, "worker panicked while searching query {query}")
            }
            HamError::TimedOut => write!(f, "deadline expired before the query was searched"),
            HamError::Shed { priority } => {
                write!(f, "query shed under overload (priority {priority})")
            }
            HamError::UnknownTenant { tenant } => {
                write!(f, "tenant {tenant} is not provisioned")
            }
            HamError::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant} exceeded its request quota")
            }
            HamError::Draining => write!(f, "server is draining; request not admitted"),
            HamError::Durability { detail } => {
                write!(f, "durability failure (update not published): {detail}")
            }
        }
    }
}

impl std::error::Error for HamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HamError::Hdc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HdcError> for HamError {
    fn from(e: HdcError) -> Self {
        HamError::Hdc(e)
    }
}

/// The static cost of a design point: per-search energy and delay, silicon
/// area, and the derived energy-delay product.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostMetrics {
    /// Energy per query search.
    pub energy: Picojoules,
    /// Search latency.
    pub delay: Nanoseconds,
    /// Total silicon area.
    pub area: SquareMillimeters,
}

impl CostMetrics {
    /// The energy-delay product.
    pub fn edp(&self) -> EnergyDelay {
        self.energy * self.delay
    }
}

/// The outcome of one hardware search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HamSearchResult {
    /// The winning row.
    pub class: ClassId,
    /// The distance the hardware *measured* for the winner (after
    /// sampling, overscaling error, or analog quantization).
    pub measured_distance: Distance,
}

/// The outcome of one hardware search together with the runner-up
/// distance — what the degradation controller needs to judge confidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarginSearchResult {
    /// The winning row.
    pub class: ClassId,
    /// The distance the hardware measured for the winner.
    pub measured_distance: Distance,
    /// The measured distance of the second-closest row, when at least two
    /// classes are stored.
    pub runner_up: Option<Distance>,
}

impl MarginSearchResult {
    /// Winner-to-runner-up margin in bits; zero when only one class
    /// exists.
    pub fn margin(&self) -> usize {
        self.runner_up
            .map(|r| {
                r.as_usize()
                    .saturating_sub(self.measured_distance.as_usize())
            })
            .unwrap_or(0)
    }

    /// Drops the runner-up, leaving the plain search result.
    pub fn into_result(self) -> HamSearchResult {
        HamSearchResult {
            class: self.class,
            measured_distance: self.measured_distance,
        }
    }
}

/// A boxed design that can be shared across the batch engine's worker
/// threads. All three shipped designs are plain data (no interior
/// mutability), so [`explore::build`](crate::explore::build) hands out this
/// type and `run_batch_parallel` can shard a batch over it.
pub type SharedDesign = Box<dyn HamDesign + Send + Sync>;

/// Reusable per-worker buffers for the allocation-free search path
/// ([`HamDesign::search_scratch`]).
///
/// Batch workers hold one of these for their whole work queue,
/// so designs that materialize per-row state (A-HAM's full distance
/// vector for the LTA tournament) stop paying a heap allocation per
/// query. A scratch is plain state — using the same one across different
/// designs or queries is fine; every search clears what it uses.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Per-row distance buffer, cleared and refilled by each search.
    pub distances: Vec<usize>,
    /// Accumulated scan-work telemetry (rows scanned vs. pruned by the
    /// bucket index) across every query served through this scratch.
    /// Never cleared by searches — the worker that owns the scratch
    /// reads and resets it when it reports.
    pub scan: hdc::ScanCounters,
}

impl SearchScratch {
    /// An empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}

/// A hyperdimensional associative memory architecture: stores learned
/// hypervectors and finds the nearest one to a query, with an
/// energy/delay/area model of the silicon that would do it.
///
/// All three designs (D-HAM, R-HAM, A-HAM) implement this trait, which is
/// what lets the experiment harness sweep them uniformly. The trait is
/// object-safe: `Box<dyn HamDesign>` (or [`SharedDesign`] when the batch
/// engine needs to share it across threads) is how the design-space
/// explorer holds a mixed fleet.
pub trait HamDesign {
    /// Short design name ("D-HAM", "R-HAM", "A-HAM").
    fn name(&self) -> &'static str;

    /// Number of stored classes, `C`.
    fn classes(&self) -> usize;

    /// Array dimensionality, `D`.
    fn dim(&self) -> Dimension;

    /// One query search.
    ///
    /// # Errors
    ///
    /// Returns [`HamError::DimensionMismatch`] for a query from another
    /// space.
    fn search(&self, query: &Hypervector) -> Result<HamSearchResult, HamError>;

    /// One query search that also reports the runner-up distance, feeding
    /// the confidence margin of the degradation controller. The default
    /// implementation knows nothing about the second-closest row and
    /// reports `runner_up: None` (zero margin — maximally cautious); all
    /// three shipped designs override it with the real second place.
    ///
    /// # Errors
    ///
    /// Same conditions as [`search`](HamDesign::search).
    fn search_with_margin(&self, query: &Hypervector) -> Result<MarginSearchResult, HamError> {
        let hit = self.search(query)?;
        Ok(MarginSearchResult {
            class: hit.class,
            measured_distance: hit.measured_distance,
            runner_up: None,
        })
    }

    /// One query search through caller-owned scratch buffers
    /// ([`SearchScratch`]), for hot loops that search thousands of
    /// queries back to back. The default delegates to
    /// [`search`](HamDesign::search) — correct for designs that allocate
    /// nothing per query; designs that build per-row state (A-HAM)
    /// override it to reuse the scratch. Results are identical to
    /// [`search`](HamDesign::search).
    ///
    /// # Errors
    ///
    /// Same conditions as [`search`](HamDesign::search).
    fn search_scratch(
        &self,
        query: &Hypervector,
        scratch: &mut SearchScratch,
    ) -> Result<HamSearchResult, HamError> {
        let _ = scratch;
        self.search(query)
    }

    /// The design point's cost metrics.
    fn cost(&self) -> CostMetrics;

    /// Named per-component energy partition of one search. The components
    /// sum to [`cost().energy`](HamDesign::cost); the default
    /// implementation reports the whole budget as one component.
    fn energy_components(&self) -> Vec<(&'static str, Picojoules)> {
        vec![("total", self.cost().energy)]
    }
}

impl<T: HamDesign + ?Sized> HamDesign for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn classes(&self) -> usize {
        (**self).classes()
    }
    fn dim(&self) -> Dimension {
        (**self).dim()
    }
    fn search(&self, query: &Hypervector) -> Result<HamSearchResult, HamError> {
        (**self).search(query)
    }
    fn search_with_margin(&self, query: &Hypervector) -> Result<MarginSearchResult, HamError> {
        (**self).search_with_margin(query)
    }
    fn search_scratch(
        &self,
        query: &Hypervector,
        scratch: &mut SearchScratch,
    ) -> Result<HamSearchResult, HamError> {
        (**self).search_scratch(query, scratch)
    }
    fn cost(&self) -> CostMetrics {
        (**self).cost()
    }
    fn energy_components(&self) -> Vec<(&'static str, Picojoules)> {
        (**self).energy_components()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_metrics_edp() {
        let m = CostMetrics {
            energy: Picojoules::new(100.0),
            delay: Nanoseconds::new(2.0),
            area: SquareMillimeters::new(1.0),
        };
        assert_eq!(m.edp().get(), 200.0);
        assert_eq!(CostMetrics::default().edp().get(), 0.0);
    }

    #[test]
    fn errors_display_and_convert() {
        let e: HamError = HdcError::EmptyMemory.into();
        assert!(e.to_string().contains("hd layer"));
        assert!(std::error::Error::source(&e).is_some());
        let m = HamError::DimensionMismatch {
            expected: 100,
            actual: 50,
        };
        assert!(m.to_string().contains("100") && m.to_string().contains("50"));
        assert!(std::error::Error::source(&m).is_none());
        assert!(!HamError::NoClasses.to_string().is_empty());
    }

    #[test]
    fn serving_errors_display_and_classify() {
        let p = HamError::WorkerPanicked { query: 7 };
        assert!(p.to_string().contains('7'));
        assert!(p.is_transient());
        for permanent in [
            HamError::TimedOut,
            HamError::Shed { priority: 3 },
            HamError::NoClasses,
            HamError::DimensionMismatch {
                expected: 1,
                actual: 2,
            },
            HamError::Hdc(HdcError::EmptyMemory),
            HamError::UnknownTenant { tenant: 9 },
            HamError::QuotaExceeded { tenant: 9 },
            HamError::Draining,
        ] {
            assert!(!permanent.is_transient(), "{permanent}");
            assert!(!permanent.to_string().is_empty());
        }
        assert!(HamError::Shed { priority: 3 }.to_string().contains('3'));
    }

    #[test]
    fn load_control_is_distinct_from_array_failure() {
        for load in [
            HamError::TimedOut,
            HamError::Shed { priority: 0 },
            HamError::QuotaExceeded { tenant: 4 },
            HamError::Draining,
        ] {
            assert!(load.is_load_control(), "{load}");
            assert!(!load.is_transient(), "{load}");
        }
        for failure in [
            HamError::WorkerPanicked { query: 0 },
            HamError::UnknownTenant { tenant: 4 },
            HamError::NoClasses,
        ] {
            assert!(!failure.is_load_control(), "{failure}");
        }
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_: &dyn HamDesign) {}
    }

    #[test]
    fn margin_result_math() {
        let m = MarginSearchResult {
            class: ClassId(2),
            measured_distance: Distance::new(10),
            runner_up: Some(Distance::new(25)),
        };
        assert_eq!(m.margin(), 15);
        assert_eq!(m.clone().into_result().class, ClassId(2));
        let lone = MarginSearchResult {
            class: ClassId(0),
            measured_distance: Distance::new(10),
            runner_up: None,
        };
        assert_eq!(lone.margin(), 0);
        // A runner-up closer than the winner (possible under injected
        // error) saturates to zero rather than underflowing.
        let inverted = MarginSearchResult {
            class: ClassId(1),
            measured_distance: Distance::new(30),
            runner_up: Some(Distance::new(20)),
        };
        assert_eq!(inverted.margin(), 0);
    }
}
