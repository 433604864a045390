//! Batched classification with throughput accounting.
//!
//! A deployed HAM classifies a stream of queries, not one; this module
//! runs a whole batch through a design and prices it two ways:
//!
//! * **serial** — one search finishes before the next starts (total
//!   latency = `n · t_search`);
//! * **pipelined** — the array phases overlap across queries (precharge
//!   of query `i+1` under the compare of query `i`), so after the first
//!   search each additional one costs one *initiation interval*, taken
//!   here as half the search latency (the paper's designs are two-phase:
//!   precharge + evaluate).
//!
//! The software execution of the batch is parallelized too:
//! [`run_batch_parallel`] runs the queries through the workspace's batch
//! executor ([`hdc::parallel::execute`]) in [`BatchOptions::chunk`]-sized
//! work units pulled from a shared queue, so an uneven query mix (e.g. the
//! degradation controller escalating a few hard queries) still
//! load-balances. Results are bit-identical to the serial loop, in input
//! order.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hdc::prelude::*;

use crate::model::{CostMetrics, HamDesign, HamError, HamSearchResult, SearchScratch};
use crate::units::{Nanoseconds, Picojoules};

/// Fraction of the search latency one pipelined query occupies (the
/// evaluate phase of the two-phase search).
const INITIATION_FRACTION: f64 = 0.5;

/// Runs one search with the panic contained: a panicking design yields
/// [`HamError::WorkerPanicked`] for this query instead of unwinding into
/// the worker loop. Searches go through the worker's [`SearchScratch`]
/// so per-query buffers amortize across the work queue (a panic may
/// leave the scratch partially filled — the next search clears it).
pub(crate) fn search_caught(
    design: &(dyn HamDesign + Sync),
    query: &Hypervector,
    index: usize,
    scratch: &mut SearchScratch,
) -> Result<HamSearchResult, HamError> {
    catch_unwind(AssertUnwindSafe(|| design.search_scratch(query, scratch)))
        .unwrap_or(Err(HamError::WorkerPanicked { query: index }))
}

/// Prices `n` completed searches with the two-phase pipelining model:
/// `(total energy, serial latency, pipelined latency)`.
pub(crate) fn price_completed(
    cost: CostMetrics,
    n: usize,
) -> (Picojoules, Nanoseconds, Nanoseconds) {
    let n = n as f64;
    let pipelined = if n == 0.0 {
        Nanoseconds::ZERO
    } else {
        cost.delay + cost.delay * (INITIATION_FRACTION * (n - 1.0))
    };
    (cost.energy * n, cost.delay * n, pipelined)
}

/// Cost and outcome of a batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-query results, in input order.
    pub results: Vec<HamSearchResult>,
    /// Total search energy (energy is per-query and adds up).
    pub total_energy: Picojoules,
    /// Latency if queries are issued back to back without overlap.
    pub serial_latency: Nanoseconds,
    /// Latency with two-phase pipelining.
    pub pipelined_latency: Nanoseconds,
}

impl BatchReport {
    /// Queries per second under pipelining.
    pub fn throughput_qps(&self) -> f64 {
        if self.results.is_empty() || self.pipelined_latency.get() <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / (self.pipelined_latency.get() * 1e-9)
    }

    /// Average energy per query.
    pub fn energy_per_query(&self) -> Picojoules {
        if self.results.is_empty() {
            return Picojoules::ZERO;
        }
        self.total_energy / self.results.len() as f64
    }
}

/// How [`run_batch_parallel`] shards a batch across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Queries per work unit pulled from the shared queue. Smaller chunks
    /// load-balance better when per-query cost varies; larger chunks
    /// amortize queue contention.
    pub chunk: usize,
}

impl BatchOptions {
    /// Options with the degenerate values clamped at construction:
    /// `chunk == 0` (a work unit of zero queries would spin the queue
    /// forever) becomes `1`. `threads == 0` stays, meaning one worker per
    /// available core.
    pub fn new(threads: usize, chunk: usize) -> Self {
        BatchOptions {
            threads,
            chunk: chunk.max(1),
        }
    }

    /// One worker per available core, 32 queries per work unit.
    pub fn parallel() -> Self {
        BatchOptions {
            threads: 0,
            chunk: 32,
        }
    }

    /// Single-threaded execution — identical scheduling to [`run_batch`].
    pub fn serial() -> Self {
        BatchOptions {
            threads: 1,
            chunk: usize::MAX,
        }
    }

    /// The worker count after resolving `0` to the available parallelism,
    /// capped at one worker per query.
    pub fn resolved_threads(&self, batch_len: usize) -> usize {
        hdc::default_threads(self.threads, batch_len)
    }

    /// The per-work-unit query count after clamping to `[1, batch_len]`;
    /// tolerates struct-literal options that bypassed [`new`](Self::new).
    pub fn resolved_chunk(&self, batch_len: usize) -> usize {
        self.chunk.max(1).min(batch_len.max(1))
    }
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions::parallel()
    }
}

/// Runs `queries` through `design` serially and prices the batch.
///
/// # Errors
///
/// Propagates the first search error (e.g. a dimension mismatch).
pub fn run_batch(design: &dyn HamDesign, queries: &[Hypervector]) -> Result<BatchReport, HamError> {
    let mut scratch = SearchScratch::new();
    let mut results = Vec::with_capacity(queries.len());
    for query in queries {
        results.push(design.search_scratch(query, &mut scratch)?);
    }
    Ok(price_batch(design, results))
}

/// Runs `queries` through `design` on the batch executor
/// ([`hdc::parallel::execute`]) with `options`' worker count and work-unit
/// size, then prices it. Results are in input order and identical to
/// [`run_batch`]; the hardware cost model is unchanged (it prices the
/// modelled silicon, not the host machine).
///
/// A panicking search is contained to its own query: the panic is caught
/// in the worker and the query surfaces as [`HamError::WorkerPanicked`] —
/// which, under this function's first-error semantics, aborts the batch
/// with a typed error instead of aborting the process. Use
/// [`run_batch_resilient`](crate::resilience::serve::run_batch_resilient)
/// for per-query error slots.
///
/// # Errors
///
/// Propagates the first (in input order) search error.
pub fn run_batch_parallel(
    design: &(dyn HamDesign + Sync),
    queries: &[Hypervector],
    options: BatchOptions,
) -> Result<BatchReport, HamError> {
    // One scratch per worker, reused across every unit it claims — zero
    // per-query allocations in steady state.
    let results = hdc::parallel::execute(
        queries.len(),
        options.threads,
        options.chunk,
        SearchScratch::new,
        |scratch, index| Some(search_caught(design, &queries[index], index, scratch)),
    )
    .into_iter()
    .map(|slot| slot.expect("no search declines"))
    .collect::<Result<Vec<_>, _>>()?;
    Ok(price_batch(design, results))
}

/// Applies the two-phase pipelining cost model to a finished batch.
fn price_batch(design: &dyn HamDesign, results: Vec<HamSearchResult>) -> BatchReport {
    let (total_energy, serial_latency, pipelined_latency) =
        price_completed(design.cost(), results.len());
    BatchReport {
        results,
        total_energy,
        serial_latency,
        pipelined_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{build, random_memory, DesignKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn queries(memory: &AssociativeMemory, n: usize) -> Vec<Hypervector> {
        let mut rng = StdRng::seed_from_u64(3);
        (0..n)
            .map(|i| {
                memory
                    .row(ClassId(i % memory.len()))
                    .expect("class stored")
                    .with_flipped_bits(200, &mut rng)
            })
            .collect()
    }

    #[test]
    fn batch_results_match_individual_searches() {
        let memory = random_memory(8, 1_024, 1);
        let design = build(DesignKind::Digital, &memory).unwrap();
        let qs = queries(&memory, 12);
        let report = run_batch(design.as_ref(), &qs).unwrap();
        assert_eq!(report.results.len(), 12);
        for (q, r) in qs.iter().zip(&report.results) {
            assert_eq!(r, &design.search(q).unwrap());
        }
    }

    #[test]
    fn pipelining_beats_serial_issue() {
        let memory = random_memory(21, 10_000, 2);
        for kind in DesignKind::ALL {
            let design = build(kind, &memory).unwrap();
            let report = run_batch(design.as_ref(), &queries(&memory, 10)).unwrap();
            assert!(report.pipelined_latency < report.serial_latency, "{kind}");
            // 10 queries at II = 0.5·t: 5.5·t vs 10·t.
            let ratio = report.serial_latency / report.pipelined_latency;
            assert!((ratio - 10.0 / 5.5).abs() < 1e-9, "{kind}: ratio {ratio}");
            assert!(report.throughput_qps() > 0.0);
            let per_query = report.energy_per_query();
            assert!((per_query.get() - design.cost().energy.get()).abs() < 1e-9);
        }
    }

    #[test]
    fn aham_throughput_dwarfs_dham() {
        let memory = random_memory(21, 10_000, 4);
        let qs = queries(&memory, 4);
        let dham = run_batch(build(DesignKind::Digital, &memory).unwrap().as_ref(), &qs).unwrap();
        let aham = run_batch(build(DesignKind::Analog, &memory).unwrap().as_ref(), &qs).unwrap();
        assert!(aham.throughput_qps() > 5.0 * dham.throughput_qps());
    }

    #[test]
    fn parallel_batch_matches_serial_batch() {
        let memory = random_memory(11, 2_048, 9);
        let qs = queries(&memory, 53);
        for kind in DesignKind::ALL {
            let design = build(kind, &memory).unwrap();
            let serial = run_batch(design.as_ref(), &qs).unwrap();
            for options in [
                BatchOptions::parallel(),
                BatchOptions::serial(),
                BatchOptions {
                    threads: 3,
                    chunk: 7,
                },
                BatchOptions {
                    threads: 8,
                    chunk: 1,
                },
            ] {
                let parallel = run_batch_parallel(design.as_ref(), &qs, options).unwrap();
                assert_eq!(parallel.results, serial.results, "{kind} {options:?}");
                assert_eq!(parallel.total_energy, serial.total_energy);
                assert_eq!(parallel.pipelined_latency, serial.pipelined_latency);
            }
        }
    }

    #[test]
    fn degenerate_options_are_clamped_not_fatal() {
        // chunk == 0 is clamped at construction…
        assert_eq!(BatchOptions::new(3, 0).chunk, 1);
        assert_eq!(
            BatchOptions::new(0, 7),
            BatchOptions {
                threads: 0,
                chunk: 7
            }
        );
        // …and tolerated at resolution for struct-literal options.
        let literal = BatchOptions {
            threads: 3,
            chunk: 0,
        };
        assert_eq!(literal.resolved_chunk(10), 1);
        assert_eq!(literal.resolved_chunk(0), 1);
        assert_eq!(BatchOptions::new(2, 100).resolved_chunk(5), 5);

        let memory = random_memory(5, 1_024, 2);
        let design = build(DesignKind::Digital, &memory).unwrap();
        let qs = queries(&memory, 9);
        let serial = run_batch(design.as_ref(), &qs).unwrap();
        for options in [
            BatchOptions {
                threads: 3,
                chunk: 0,
            }, // zero-chunk literal
            BatchOptions::new(17, 4), // threads > queries
        ] {
            let report = run_batch_parallel(design.as_ref(), &qs, options).unwrap();
            assert_eq!(report.results, serial.results, "{options:?}");
        }
        // Single-query batch takes the serial fast path under any options.
        let one = run_batch_parallel(design.as_ref(), &qs[..1], BatchOptions::parallel()).unwrap();
        assert_eq!(one.results, serial.results[..1]);
    }

    /// A design whose search panics on one specific query pattern.
    struct PanicOnQuery {
        inner: crate::model::SharedDesign,
        trigger: Hypervector,
    }

    impl HamDesign for PanicOnQuery {
        fn name(&self) -> &'static str {
            "panic-on-query"
        }
        fn classes(&self) -> usize {
            self.inner.classes()
        }
        fn dim(&self) -> Dimension {
            self.inner.dim()
        }
        fn search(&self, query: &Hypervector) -> Result<HamSearchResult, HamError> {
            assert!(query != &self.trigger, "injected panic");
            self.inner.search(query)
        }
        fn cost(&self) -> crate::model::CostMetrics {
            self.inner.cost()
        }
    }

    #[test]
    fn worker_panic_becomes_a_typed_error_not_an_abort() {
        let memory = random_memory(4, 1_024, 8);
        let mut qs = queries(&memory, 10);
        let trigger = Hypervector::random(memory.dim(), 99);
        qs[6] = trigger.clone();
        let design = PanicOnQuery {
            inner: build(DesignKind::Digital, &memory).unwrap(),
            trigger,
        };
        let err = run_batch_parallel(
            &design,
            &qs,
            BatchOptions {
                threads: 3,
                chunk: 2,
            },
        )
        .unwrap_err();
        assert_eq!(err, HamError::WorkerPanicked { query: 6 });
    }

    #[test]
    fn batch_options_resolution() {
        assert_eq!(BatchOptions::serial().resolved_threads(100), 1);
        assert_eq!(
            BatchOptions {
                threads: 9,
                chunk: 4
            }
            .resolved_threads(3),
            3
        );
        assert_eq!(
            BatchOptions {
                threads: 9,
                chunk: 4
            }
            .resolved_threads(0),
            1
        );
        assert!(BatchOptions::parallel().resolved_threads(64) >= 1);
        assert_eq!(BatchOptions::default(), BatchOptions::parallel());
    }

    #[test]
    fn parallel_mismatched_query_aborts_with_first_error() {
        let memory = random_memory(2, 1_024, 6);
        let design = build(DesignKind::Digital, &memory).unwrap();
        let alien = Hypervector::random(Dimension::new(128).unwrap(), 1);
        let mut qs = queries(&memory, 9);
        qs.insert(4, alien);
        let err = run_batch_parallel(
            design.as_ref(),
            &qs,
            BatchOptions {
                threads: 3,
                chunk: 2,
            },
        )
        .unwrap_err();
        assert!(matches!(err, HamError::DimensionMismatch { .. }));
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let memory = random_memory(2, 64, 5);
        let design = build(DesignKind::Resistive, &memory).unwrap();
        let report = run_batch(design.as_ref(), &[]).unwrap();
        assert!(report.results.is_empty());
        assert_eq!(report.total_energy.get(), 0.0);
        assert_eq!(report.pipelined_latency.get(), 0.0);
        assert_eq!(report.throughput_qps(), 0.0);
        assert_eq!(report.energy_per_query().get(), 0.0);
    }

    #[test]
    fn mismatched_query_aborts_the_batch() {
        let memory = random_memory(2, 64, 6);
        let design = build(DesignKind::Digital, &memory).unwrap();
        let alien = Hypervector::random(Dimension::new(128).unwrap(), 1);
        assert!(run_batch(design.as_ref(), &[alien]).is_err());
    }
}
