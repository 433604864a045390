//! `ham-search-bench` — perf snapshot of the batched search engine.
//!
//! Times the software search path three ways and writes the numbers to
//! `BENCH_search.json` (repo root by default) so the measured speedups
//! quoted in DESIGN.md stay regenerable:
//!
//! 1. single query at the paper's operating point (`C = 21`,
//!    `D = 10,000`): the seed's naive per-row scan vs the fused
//!    early-abandoning kernel behind [`AssociativeMemory::search`];
//! 2. early-abandoning fused scan vs the full distance sweep as the
//!    class count grows (`C ∈ {21, 100, 1000}`);
//! 3. a 1,000-query batch classified serially vs sharded across worker
//!    threads, both through [`AssociativeMemory::search_batch`] and
//!    through the priced [`ham_core::batch::run_batch_parallel`] path;
//! 4. the serving runtime's overhead: the panic-isolated resilient batch
//!    vs the plain parallel batch (healthy), the degraded (tightened)
//!    escalation ladder vs the base one, and a full quarantine restore
//!    (checksummed snapshot load + scrub repair) vs one steady-state
//!    batch;
//! 5. the chunk-granular delta publish vs the whole-memory COW publish
//!    at `C = 1000` with {1, 1%, 10%, 100%} of the rows changed per
//!    publish — the "publish cost ∝ rows changed" claim of DESIGN.md
//!    §15;
//! 6. the kernel backends: every enabled SIMD datapath × scan strategy
//!    against the scalar fused early-abandoning scan at `C = 1000`,
//!    `D = 10,000` (one query, uniform rows);
//! 7. the sampled-prefilter cascade on its natural shape — planted
//!    near-duplicate rows in an otherwise random array — vs the direct
//!    scan on the same backend;
//! 8. the two-level bucket index: `C ∈ {1k, 10k, 100k}` × clustered /
//!    adversarial-uniform rows × {exact indexed, probe, auto} against
//!    the fused linear scan, with measured recall for the probe mode —
//!    the exactness-preserving speedup (and the Auto fallback's "never
//!    much slower than linear" floor) quoted in DESIGN.md §14;
//! 9. the bit-sliced transpose: `C ∈ {1k, 10k, 100k}` × near-duplicate
//!    cluster-major / adversarial-uniform rows × {exact indexed,
//!    bit-sliced, auto} against the row-major direct scan, with the
//!    per-mode scanned/pruned/group-pruned counters — the columnwise
//!    group-bound speedup and the Auto row floor quoted in DESIGN.md
//!    §17;
//! 10. query rematerialization on the langid workload: the encoder's
//!     resident item-vector caches vs the fixed seed-only
//!     [`Rematerializer`] view, amortized per stored class.
//!
//! Every exact plan a section times is first checked against the direct
//! scan on that section's queries — the same `Min2` and the same top-k
//! ranking — and a mismatch panics, so a timing is never credited to a
//! plan that answers differently.
//!
//! Usage: `ham-search-bench [--out FILE] [--quick]`.

use std::path::PathBuf;
use std::time::Instant;

use ham_core::batch::{run_batch, run_batch_parallel, BatchOptions};
use ham_core::explore::{build, random_memory, DesignKind};
use ham_core::resilience::{
    classify_batch_resilient, load_snapshot_repaired, run_batch_resilient, save_snapshot,
    DegradationController, DegradationPolicy, ResilientOptions, Scrubber,
};
use ham_core::shard::{OnlineUpdater, VersionedMemory};
use ham_workloads::{synth, LangidWorkload, Workload};
use hdc::prelude::*;
use hdc::{
    active_backend, enabled_backends, BitSlicedRows, BucketIndex, IndexBuildOptions, ScanPlan,
    ScanStrategy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Measurement {
    name: String,
    /// Nanoseconds per query (or per scan), averaged over all iterations.
    ns_per_op: f64,
    iterations: usize,
}

#[derive(Debug, Serialize)]
struct Comparison {
    classes: usize,
    dim: usize,
    baseline: Measurement,
    contender: Measurement,
    /// `baseline.ns_per_op / contender.ns_per_op` — >1 means the
    /// contender is faster.
    speedup: f64,
}

/// One bucket-index operating point: a row shape × class count × scan
/// mode against the fused linear scan.
#[derive(Debug, Serialize)]
struct IndexScaling {
    /// `"clustered"` (32 tight anchors) or `"uniform"` (adversarial:
    /// pruning can never fire).
    shape: &'static str,
    /// `"exact"`, `"probe<n>"`, or `"auto"`.
    mode: String,
    buckets: usize,
    mean_radius: usize,
    mean_separation: usize,
    /// Whether [`hdc::IndexStats::pruning_friendly`] picked the indexed
    /// walk for `ScanStrategy::Auto` on this shape.
    auto_picks_index: bool,
    /// Fraction of probe queries whose winner matched the exact scan
    /// (1.0 by construction for exact and auto modes).
    recall: f64,
    /// Mean rows scanned / pruned per query in this mode (counters).
    rows_scanned_per_query: f64,
    rows_pruned_per_query: f64,
    comparison: Comparison,
}

/// One bit-sliced operating point: a row shape × class count × scan
/// mode against the row-major direct scan.
#[derive(Debug, Serialize)]
struct BitSlicedScaling {
    /// `"neardup"` (32 tight cluster-major clusters around one base —
    /// the shape the 64-row group bound was built for) or `"uniform"`
    /// (independent rows: the group bound can never fire).
    shape: &'static str,
    /// `"indexed"`, `"bitsliced"`, or `"auto"`.
    mode: &'static str,
    /// What `ScanStrategy::Auto` resolves to on this shape with both
    /// the bucket index and the transpose mirror attached.
    auto_resolves_to: String,
    /// Footprint of the dim-major mirror (an additive cost next to the
    /// row-major store).
    sliced_resident_bytes: usize,
    /// Mean per-query counters in this mode: rows reaching the distance
    /// kernel, rows pruned by the bucket triangle bound, and rows
    /// dropped 64 at a time by the columnwise group bound.
    rows_scanned_per_query: f64,
    rows_pruned_per_query: f64,
    rows_group_pruned_per_query: f64,
    comparison: Comparison,
}

/// The measured query-rematerialization trade on the langid workload:
/// dense resident item-vector caches vs the fixed seed-only view that
/// regenerates every symbol bit-identically on demand.
#[derive(Debug, Serialize)]
struct Rematerialization {
    workload: &'static str,
    classes: usize,
    dim: usize,
    /// Bytes the encoder keeps resident (dense alphabet table plus the
    /// rotated n-gram caches).
    dense_item_bytes: usize,
    /// Bytes of the seed-only [`Rematerializer`] handle.
    rematerializer_bytes: usize,
    dense_bytes_per_class: f64,
    rematerialized_bytes_per_class: f64,
    /// `dense_item_bytes / rematerializer_bytes`.
    reduction_factor: f64,
}

#[derive(Debug, Serialize)]
struct Snapshot {
    host_threads: usize,
    /// The runtime-selected distance kernel every non-pinned section ran
    /// on ([`hdc::active_backend_name`]).
    kernel_backend: &'static str,
    single_query: Comparison,
    early_abandon: Vec<Comparison>,
    batch_1000: Vec<Comparison>,
    resilience: Vec<Comparison>,
    /// Whole-memory COW publish vs chunk-granular delta publish as the
    /// number of rows changed per publish grows.
    delta_publish: Vec<Comparison>,
    /// Backend × strategy sweep against the scalar fused scan.
    backends: Vec<Comparison>,
    /// Direct vs cascade on the planted near-duplicate shape.
    cascade: Vec<Comparison>,
    /// Bucket-index sweep: shape × C × mode vs the linear scan.
    index_scaling: Vec<IndexScaling>,
    /// Bit-sliced transpose sweep: shape × C × mode vs the row-major
    /// direct scan.
    bitsliced_scaling: Vec<BitSlicedScaling>,
    /// Dense item-vector caches vs the seed-only rematerializer.
    rematerialization: Rematerialization,
}

/// Times `op` for at least `budget` of wall clock and adds the elapsed
/// time and iteration count to `total`.
fn time_slice<R>(
    budget: std::time::Duration,
    total: &mut (std::time::Duration, usize),
    op: &mut impl FnMut() -> R,
) {
    let start = Instant::now();
    let mut iterations = 0usize;
    while start.elapsed() < budget {
        std::hint::black_box(op());
        iterations += 1;
    }
    total.0 += start.elapsed();
    total.1 += iterations;
}

/// Times two operations in short alternating slices (so clock-frequency
/// drift on a shared host hits both sides equally) and returns the
/// baseline/contender comparison.
fn compare<R, S>(
    classes: usize,
    dim: usize,
    budget_ms: u64,
    baseline_name: &str,
    mut baseline_op: impl FnMut() -> R,
    contender_name: &str,
    mut contender_op: impl FnMut() -> S,
) -> Comparison {
    // Warm up caches and let one-off allocation costs fall out.
    std::hint::black_box(baseline_op());
    std::hint::black_box(contender_op());
    const ROUNDS: u64 = 8;
    let slice = std::time::Duration::from_millis((budget_ms / ROUNDS).max(1));
    let mut base = (std::time::Duration::ZERO, 0usize);
    let mut cont = (std::time::Duration::ZERO, 0usize);
    for _ in 0..ROUNDS {
        time_slice(slice, &mut base, &mut baseline_op);
        time_slice(slice, &mut cont, &mut contender_op);
    }
    let baseline = Measurement {
        name: baseline_name.to_owned(),
        ns_per_op: base.0.as_nanos() as f64 / base.1.max(1) as f64,
        iterations: base.1,
    };
    let contender = Measurement {
        name: contender_name.to_owned(),
        ns_per_op: cont.0.as_nanos() as f64 / cont.1.max(1) as f64,
        iterations: cont.1,
    };
    let speedup = baseline.ns_per_op / contender.ns_per_op.max(f64::MIN_POSITIVE);
    Comparison {
        classes,
        dim,
        baseline,
        contender,
        speedup,
    }
}

/// The seed's search: independently allocated rows, word-zip Hamming per
/// row into a distance vector, then a two-pass winner pick.
fn naive_search(rows: &[Hypervector], query: &Hypervector) -> (usize, usize) {
    let distances: Vec<usize> = rows
        .iter()
        .map(|row| {
            row.as_bitvec()
                .as_words()
                .iter()
                .zip(query.as_bitvec().as_words())
                .map(|(a, b)| (a ^ b).count_ones() as usize)
                .sum()
        })
        .collect();
    let mut best = 0usize;
    for (i, d) in distances.iter().enumerate().skip(1) {
        if *d < distances[best] {
            best = i;
        }
    }
    (best, distances[best])
}

/// Ranking depth [`check_plan`] compares.
const CHECK_TOP_K: usize = 5;

/// Panics unless `plan` answers every probe query exactly like the
/// direct scan — the same [`Min2`] and the same top-k ranking — so a
/// timed plan is known to compute what its speedup is credited for.
fn check_plan(section: &str, packed: &PackedRows, plan: &ScanPlan<'_>, queries: &[&[u64]]) {
    let direct = ScanPlan::direct();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (i, words) in queries.iter().enumerate() {
        assert_eq!(
            packed.min2(plan, words, None, None),
            packed.min2(&direct, words, None, None),
            "{section}: {:?} min-2 differs from the direct scan on query {i}",
            plan.resolved()
        );
        packed.top_k(plan, words, CHECK_TOP_K, &mut got, None);
        packed.top_k(&direct, words, CHECK_TOP_K, &mut want, None);
        assert_eq!(
            got,
            want,
            "{section}: {:?} ranking differs from the direct scan on query {i}",
            plan.resolved()
        );
    }
}

fn noisy_query(memory: &AssociativeMemory, seed: u64) -> Hypervector {
    let mut rng = StdRng::seed_from_u64(seed);
    let class = ClassId(seed as usize % memory.len());
    memory
        .row(class)
        .unwrap()
        .with_flipped_bits(memory.dim().get() * 3 / 10, &mut rng)
}

fn main() {
    let mut out = PathBuf::from("BENCH_search.json");
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }));
            }
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("usage: ham-search-bench [--out FILE] [--quick]");
                println!("  --quick  cap the index sweep at C = 10k (smoke run)");
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let host_threads = hdc::available_threads();
    println!("host threads: {host_threads}");

    // 1. Single query, paper operating point.
    let memory = random_memory(21, 10_000, 7);
    let rows: Vec<Hypervector> = memory.iter().map(|(_, _, hv)| hv.clone()).collect();
    let query = noisy_query(&memory, 1);
    let single_query = compare(
        21,
        10_000,
        800,
        "naive_per_row_scan",
        || naive_search(&rows, &query),
        "fused_early_abandon",
        || memory.search(&query).unwrap(),
    );
    println!(
        "single query C=21 D=10k: naive {:.0} ns vs fused {:.0} ns ({:.2}x)",
        single_query.baseline.ns_per_op, single_query.contender.ns_per_op, single_query.speedup
    );

    // 2. Early abandoning vs the full distance sweep as C grows.
    let mut early_abandon = Vec::new();
    for classes in [21usize, 100, 1_000] {
        let memory = random_memory(classes, 10_000, 11);
        let query = noisy_query(&memory, 3);
        let packed = memory.packed_rows();
        let words = query.as_bitvec().as_words();
        let direct = ScanPlan::direct();
        let mut distances = Vec::new();
        packed.distances_into(words, None, &mut distances);
        let best = (0..classes)
            .min_by_key(|&row| (distances[row], row))
            .unwrap();
        assert_eq!(
            packed
                .min2(&direct, words, None, None)
                .map(|hit| (hit.best, hit.best_distance)),
            Some((best, distances[best])),
            "early abandon C={classes}: the fused scan disagrees with the full sweep"
        );
        let cmp = compare(
            classes,
            10_000,
            800,
            "full_distance_sweep",
            || {
                packed.distances_into(words, None, &mut distances);
                distances[0]
            },
            "fused_early_abandon",
            || packed.min2(&direct, words, None, None).unwrap(),
        );
        println!(
            "early abandon C={classes}: full {:.0} ns vs fused {:.0} ns ({:.2}x)",
            cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
        );
        early_abandon.push(cmp);
    }

    // 3. 1,000-query batch: seed scan vs engine, then serial vs sharded.
    let memory = random_memory(21, 10_000, 13);
    let rows: Vec<Hypervector> = memory.iter().map(|(_, _, hv)| hv.clone()).collect();
    let queries: Vec<Hypervector> = (0..1_000).map(|i| noisy_query(&memory, i)).collect();
    let mut batch_1000 = Vec::new();
    let cmp = compare(
        21,
        10_000,
        1_600,
        "naive_per_row_scan_x1000",
        || -> usize {
            queries
                .iter()
                .map(|query| naive_search(&rows, query).1)
                .sum()
        },
        "search_batch_parallel",
        || memory.search_batch(&queries, 0).unwrap(),
    );
    println!(
        "batch x1000 vs seed: naive {:.0} ns vs engine {:.0} ns ({:.2}x)",
        cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
    );
    batch_1000.push(cmp);
    let cmp = compare(
        21,
        10_000,
        1_600,
        "search_batch_serial",
        || memory.search_batch(&queries, 1).unwrap(),
        "search_batch_parallel",
        || memory.search_batch(&queries, 0).unwrap(),
    );
    println!(
        "search_batch x1000: serial {:.0} ns vs parallel {:.0} ns ({:.2}x)",
        cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
    );
    batch_1000.push(cmp);
    let design = build(DesignKind::Digital, &memory).unwrap();
    let cmp = compare(
        21,
        10_000,
        1_600,
        "run_batch_serial",
        || run_batch(design.as_ref(), &queries).unwrap(),
        "run_batch_parallel",
        || run_batch_parallel(design.as_ref(), &queries, BatchOptions::parallel()).unwrap(),
    );
    println!(
        "run_batch x1000: serial {:.0} ns vs parallel {:.0} ns ({:.2}x)",
        cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
    );
    batch_1000.push(cmp);

    // 4. Resilient serving path: what do the safety layers cost?
    let mut resilience = Vec::new();
    let options = ResilientOptions::default();
    let cmp = compare(
        21,
        10_000,
        1_600,
        "run_batch_parallel",
        || run_batch_parallel(design.as_ref(), &queries, BatchOptions::parallel()).unwrap(),
        "run_batch_resilient_healthy",
        || run_batch_resilient(design.as_ref(), &queries, &options),
    );
    println!(
        "resilient x1000 healthy: plain {:.0} ns vs resilient {:.0} ns ({:.2}x)",
        cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
    );
    resilience.push(cmp);

    // Degraded serving tightens the escalation ladder the way the health
    // monitor does on a Degraded transition: wider confidence bands mean
    // more retries and exact escalations per query.
    let policy = DegradationPolicy::for_dim(memory.dim().get());
    let tightened = DegradationPolicy {
        confident_margin: policy.confident_margin * 2,
        reject_margin: policy.reject_margin + policy.reject_margin / 2,
        max_retries: policy.max_retries + 1,
    };
    let base_ladder =
        DegradationController::for_kind(DesignKind::Digital, memory.clone(), policy).unwrap();
    let tight_ladder =
        DegradationController::for_kind(DesignKind::Digital, memory.clone(), tightened).unwrap();
    let cmp = compare(
        21,
        10_000,
        1_600,
        "classify_healthy_ladder",
        || classify_batch_resilient(&base_ladder, &queries, 0, &options),
        "classify_degraded_ladder",
        || classify_batch_resilient(&tight_ladder, &queries, 0, &options),
    );
    println!(
        "classify x1000: healthy ladder {:.0} ns vs degraded ladder {:.0} ns ({:.2}x)",
        cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
    );
    resilience.push(cmp);

    // A quarantine restore = checksummed snapshot load + golden-copy
    // repair + engine rebuild, priced against one steady-state batch so
    // the ratio reads "a restore costs N batches".
    let scrubber = Scrubber::from_memory(&memory);
    let snap_path = std::env::temp_dir().join(format!("ham-bench-snap-{}.ham", std::process::id()));
    save_snapshot(&memory, &snap_path).expect("snapshot saves");
    let cmp = compare(
        21,
        10_000,
        1_600,
        "search_batch_steady",
        || memory.search_batch(&queries, 0).unwrap(),
        "quarantine_restore",
        || load_snapshot_repaired(&snap_path, &scrubber).unwrap(),
    );
    println!(
        "quarantine restore: one batch {:.0} ns vs snapshot restore {:.0} ns ({:.2}x)",
        cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
    );
    resilience.push(cmp);
    std::fs::remove_file(&snap_path).ok();

    // 5. Delta publish: replacing k of C = 1000 rows through the
    // whole-memory copy-on-write publish (every row cloned and
    // re-chunked, O(C·D) regardless of k) vs one chunk-granular delta
    // publish (only the chunks holding changed rows copied). Separate
    // cells so each side pays only its own path's costs.
    let big = random_memory(1_000, 10_000, 17);
    let full_cell = VersionedMemory::new(big.clone());
    let delta_updater = OnlineUpdater::new(std::sync::Arc::new(VersionedMemory::new(big.clone())));
    let mut delta_publish = Vec::new();
    for rows_changed in [1usize, 10, 100, 1_000] {
        let replacements: Vec<(ClassId, Hypervector)> = (0..rows_changed)
            .map(|i| {
                (
                    ClassId((i * 997) % 1_000),
                    Hypervector::random(big.dim(), 5_000 + i as u64),
                )
            })
            .collect();
        let cmp = compare(
            1_000,
            10_000,
            800,
            &format!("full_cow_publish_{rows_changed}rows"),
            || {
                full_cell
                    .update(|memory| {
                        for (class, hv) in &replacements {
                            memory.replace_row(*class, hv.clone())?;
                        }
                        Ok(())
                    })
                    .unwrap()
            },
            &format!("delta_publish_{rows_changed}rows"),
            || {
                delta_updater
                    .rethreshold_rows(replacements.clone())
                    .unwrap()
            },
        );
        println!(
            "delta publish k={rows_changed}: full COW {:.0} ns vs delta {:.0} ns ({:.2}x)",
            cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
        );
        delta_publish.push(cmp);
    }

    // 6. Kernel backends: every enabled datapath × strategy vs the scalar
    // fused early-abandoning scan at C = 1000, D = 10,000. The baseline
    // re-runs inside every comparison so each speedup is measured against
    // a fresh interleaved scalar slice, not a stale number.
    let memory = random_memory(1_000, 10_000, 19);
    let query = noisy_query(&memory, 9);
    let packed = memory.packed_rows();
    let words = query.as_bitvec().as_words();
    let scalar = enabled_backends()[0];
    let plan = |backend, strategy, packed: &PackedRows| {
        ScanPlan::new(backend, strategy, None, None, packed.len(), packed.dim())
    };
    let scalar_direct = plan(scalar, ScanStrategy::Direct, packed);
    let mut backends = Vec::new();
    for backend in enabled_backends() {
        for (strategy, tag) in [
            (ScanStrategy::Direct, "direct"),
            (ScanStrategy::Cascade, "cascade"),
        ] {
            let contender = plan(backend, strategy, packed);
            check_plan("backends", packed, &contender, &[words]);
            let cmp = compare(
                1_000,
                10_000,
                600,
                "scalar_fused_early_abandon",
                || packed.min2(&scalar_direct, words, None, None).unwrap(),
                &format!("{}_{tag}", backend.name()),
                || packed.min2(&contender, words, None, None).unwrap(),
            );
            println!(
                "backend C=1000 D=10k: scalar {:.0} ns vs {}_{tag} {:.0} ns ({:.2}x)",
                cmp.baseline.ns_per_op,
                backend.name(),
                cmp.contender.ns_per_op,
                cmp.speedup
            );
            backends.push(cmp);
        }
    }

    // 7. The cascade's natural shape: a query adjacent to a few stored
    // rows with the rest of the array ~D/2 away. The runner-up collapses
    // after the planted rows, so the sorted sampled pass prunes nearly
    // every full-width rescore; the direct scan still has to walk each
    // row to its first bound check.
    let dim = Dimension::new(10_000).unwrap();
    let base = Hypervector::random(dim, 31);
    let mut clustered = PackedRows::with_capacity(10_000, 1_000);
    for i in 0..1_000u64 {
        let row = if i == 137 || i == 612 {
            synth::noisy_copy(&base, 40 + i as usize % 7, 33 ^ i)
        } else {
            Hypervector::random(dim, 1_000 + i)
        };
        clustered.push(row.as_bitvec().as_words());
    }
    let probe = synth::noisy_copy(&base, 25, 34);
    let probe_words = probe.as_bitvec().as_words();
    let mut cascade = Vec::new();
    let mut cascade_backends = vec![scalar];
    if active_backend().name() != scalar.name() {
        cascade_backends.push(active_backend());
    }
    for backend in cascade_backends {
        let direct = plan(backend, ScanStrategy::Direct, &clustered);
        let sampled = plan(backend, ScanStrategy::Cascade, &clustered);
        check_plan("cascade", &clustered, &sampled, &[probe_words]);
        let cmp = compare(
            1_000,
            10_000,
            600,
            &format!("{}_direct_planted", backend.name()),
            || clustered.min2(&direct, probe_words, None, None).unwrap(),
            &format!("{}_cascade_planted", backend.name()),
            || clustered.min2(&sampled, probe_words, None, None).unwrap(),
        );
        println!(
            "cascade planted {}: direct {:.0} ns vs cascade {:.0} ns ({:.2}x)",
            backend.name(),
            cmp.baseline.ns_per_op,
            cmp.contender.ns_per_op,
            cmp.speedup
        );
        cascade.push(cmp);
    }

    // 8. The bucket index: clustered rows (the shape the triangle bound
    // was built for) and adversarial uniform rows (where pruning can
    // never fire and Auto must fall back to the linear scan), swept
    // across C with D = 10,000. Exact and auto modes are bit-identical
    // to the linear scan by construction; the probe mode's recall is
    // measured over the query set.
    let mut index_scaling = Vec::new();
    let dim = 10_000usize;
    let dimension = Dimension::new(dim).unwrap();
    let backend = active_backend();
    let sweep: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &classes in sweep {
        for clustered_shape in [true, false] {
            let shape = if clustered_shape {
                "clustered"
            } else {
                "uniform"
            };
            // Both shapes come from the shared seeded generators the
            // workload harness builds from (ham_workloads::synth).
            let anchors = synth::anchors(dimension, 32, 0x7000);
            let rows: Vec<Hypervector> = if clustered_shape {
                synth::planted_cluster_rows(&anchors, classes, dim / 50, classes as u64 ^ 0x1DE7)
                    .into_iter()
                    .map(|(_, row)| row)
                    .collect()
            } else {
                synth::anchors(dimension, classes, 0x9000 ^ classes as u64)
            };
            let mut packed = PackedRows::with_capacity(dim, classes);
            for row in &rows {
                packed.push(row.as_bitvec().as_words());
            }
            let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default())
                .expect("non-empty matrix builds");
            let stats = index.stats();
            let auto_picks_index = stats.pruning_friendly(dim);
            let nprobe = (index.buckets() / 8).max(1);
            let queries: Vec<Vec<u64>> = if clustered_shape {
                let sources: Vec<(usize, Hypervector)> =
                    anchors.iter().cloned().enumerate().collect();
                synth::planted_queries(&sources, dim / 40, classes as u64 ^ 0xBEE7)
                    .into_iter()
                    .map(|(_, near)| near.as_bitvec().as_words().to_vec())
                    .collect()
            } else {
                synth::anchors(dimension, 32, 0xB000 ^ classes as u64)
                    .into_iter()
                    .map(|near| near.as_bitvec().as_words().to_vec())
                    .collect()
            };

            let probes: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
            let indexed =
                |strategy| ScanPlan::new(backend, strategy, Some(&index), None, classes, dim);
            let direct = ScanPlan::new(backend, ScanStrategy::Direct, None, None, classes, dim);

            // Probe-mode recall + per-mode counters over the query set.
            let mut probe_hits = 0usize;
            for words in &probes {
                let exact = packed.min2(&direct, words, None, None).unwrap();
                let probed = packed
                    .min2(&indexed(ScanStrategy::Probe { nprobe }), words, None, None)
                    .unwrap();
                if probed.best == exact.best {
                    probe_hits += 1;
                }
            }

            for (mode, strategy, recall) in [
                ("exact".to_owned(), ScanStrategy::Indexed, 1.0),
                (
                    format!("probe{nprobe}"),
                    ScanStrategy::Probe { nprobe },
                    probe_hits as f64 / queries.len() as f64,
                ),
                ("auto".to_owned(), ScanStrategy::Auto, 1.0),
            ] {
                let contender = indexed(strategy);
                // Probe mode is approximate; its recall is the check.
                if !matches!(strategy, ScanStrategy::Probe { .. }) {
                    check_plan("index_scaling", &packed, &contender, &probes);
                }
                let mut counters = ScanCounters::default();
                for words in &probes {
                    packed.min2(&contender, words, None, Some(&mut counters));
                }
                let per_query = |n: u64| n as f64 / probes.len() as f64;
                let mut base_at = 0usize;
                let mut cont_at = 0usize;
                let cmp = compare(
                    classes,
                    dim,
                    600,
                    "linear_direct",
                    || {
                        let words = probes[base_at % probes.len()];
                        base_at += 1;
                        packed.min2(&direct, words, None, None).unwrap()
                    },
                    &format!("indexed_{mode}"),
                    || {
                        let words = probes[cont_at % probes.len()];
                        cont_at += 1;
                        packed.min2(&contender, words, None, None).unwrap()
                    },
                );
                println!(
                    "index {shape} C={classes} {mode}: linear {:.0} ns vs indexed {:.0} ns ({:.2}x, recall {recall:.3})",
                    cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
                );
                index_scaling.push(IndexScaling {
                    shape,
                    mode,
                    buckets: index.buckets(),
                    mean_radius: stats.mean_radius,
                    mean_separation: stats.mean_separation,
                    auto_picks_index,
                    recall,
                    rows_scanned_per_query: per_query(counters.rows_scanned),
                    rows_pruned_per_query: per_query(counters.rows_pruned),
                    comparison: cmp,
                });
            }
        }
    }

    // 9. The bit-sliced transpose: near-duplicate cluster-major rows
    // (tight clusters around one base, members contiguous so 64-row
    // groups are cluster-homogeneous — the shape the group bound was
    // built for) and adversarial uniform rows, swept across C at
    // D = 10,000 against the row-major direct scan. The exact indexed
    // walk runs alongside so the numbers say which traversal Auto
    // should pick where; every mode here is bit-identical to the
    // direct scan by construction.
    let mut bitsliced_scaling = Vec::new();
    for &classes in sweep {
        for neardup_shape in [true, false] {
            let shape = if neardup_shape { "neardup" } else { "uniform" };
            // 32 anchors a few percent of D apart (noisy copies of one
            // base), members a small fraction of that separation from
            // their anchor: tight nearest-bucket spacing keeps the
            // shape cascade-friendly, never pruning-friendly.
            let base = Hypervector::random(dimension, 0x51CE ^ classes as u64);
            let anchors: Vec<Hypervector> = (0..32u64)
                .map(|i| synth::noisy_copy(&base, dim / 32, 0x6A00 ^ classes as u64 ^ i))
                .collect();
            let rows: Vec<Hypervector> = if neardup_shape {
                synth::cluster_major_rows(
                    &anchors,
                    classes,
                    classes.div_ceil(32),
                    dim / 1_024,
                    classes as u64 ^ 0x5EED,
                )
                .into_iter()
                .map(|(_, row)| row)
                .collect()
            } else {
                synth::anchors(dimension, classes, 0xC000 ^ classes as u64)
            };
            let mut packed = PackedRows::with_capacity(dim, classes);
            for row in &rows {
                packed.push(row.as_bitvec().as_words());
            }
            let sliced = BitSlicedRows::from_packed(&packed);
            let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default())
                .expect("non-empty matrix builds");
            let planned = |strategy| {
                ScanPlan::new(backend, strategy, Some(&index), Some(&sliced), classes, dim)
            };
            let direct = ScanPlan::new(backend, ScanStrategy::Direct, None, None, classes, dim);
            let auto_resolved = planned(ScanStrategy::Auto).resolved();
            let queries: Vec<Vec<u64>> = if neardup_shape {
                let sources: Vec<(usize, Hypervector)> =
                    anchors.iter().cloned().enumerate().collect();
                synth::planted_queries(&sources, dim / 1_024, classes as u64 ^ 0xD00D)
                    .into_iter()
                    .map(|(_, near)| near.as_bitvec().as_words().to_vec())
                    .collect()
            } else {
                synth::anchors(dimension, 32, 0xE000 ^ classes as u64)
                    .into_iter()
                    .map(|near| near.as_bitvec().as_words().to_vec())
                    .collect()
            };

            for (mode, strategy) in [
                ("indexed", ScanStrategy::Indexed),
                ("bitsliced", ScanStrategy::BitSliced),
                ("auto", ScanStrategy::Auto),
            ] {
                let contender = planned(strategy);
                let probes: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
                check_plan("bitsliced_scaling", &packed, &contender, &probes);
                let mut counters = ScanCounters::default();
                for words in &probes {
                    packed.min2(&contender, words, None, Some(&mut counters));
                }
                let per_query = |n: u64| n as f64 / probes.len() as f64;
                let mut base_at = 0usize;
                let mut cont_at = 0usize;
                let cmp = compare(
                    classes,
                    dim,
                    600,
                    "rowmajor_direct",
                    || {
                        let words = probes[base_at % probes.len()];
                        base_at += 1;
                        packed.min2(&direct, words, None, None).unwrap()
                    },
                    mode,
                    || {
                        let words = probes[cont_at % probes.len()];
                        cont_at += 1;
                        packed.min2(&contender, words, None, None).unwrap()
                    },
                );
                println!(
                    "bitsliced {shape} C={classes} {mode}: direct {:.0} ns vs {mode} {:.0} ns ({:.2}x, auto→{auto_resolved:?})",
                    cmp.baseline.ns_per_op, cmp.contender.ns_per_op, cmp.speedup
                );
                bitsliced_scaling.push(BitSlicedScaling {
                    shape,
                    mode,
                    auto_resolves_to: format!("{auto_resolved:?}"),
                    sliced_resident_bytes: sliced.resident_bytes(),
                    rows_scanned_per_query: per_query(counters.rows_scanned),
                    rows_pruned_per_query: per_query(counters.rows_pruned),
                    rows_group_pruned_per_query: per_query(counters.rows_group_pruned),
                    comparison: cmp,
                });
            }
        }
    }

    // 10. Query rematerialization at the langid paper scale: the item
    // vectors the encoder caches densely (alphabet table + rotated
    // n-gram caches) all regenerate bit-identically from the fixed
    // ~16-byte seed view, so the dense bytes are a pure speed/space
    // trade, amortized here over the stored classes.
    let langid = LangidWorkload::build(10_000, 20_000, 2, LangidWorkload::DEFAULT_SEED);
    let langid_classes = langid.memory().len();
    let dense_item_bytes = langid.resident_item_bytes();
    let rematerializer_bytes = langid.item_rematerializer().resident_bytes();
    let rematerialization = Rematerialization {
        workload: "langid",
        classes: langid_classes,
        dim: 10_000,
        dense_item_bytes,
        rematerializer_bytes,
        dense_bytes_per_class: dense_item_bytes as f64 / langid_classes as f64,
        rematerialized_bytes_per_class: rematerializer_bytes as f64 / langid_classes as f64,
        reduction_factor: dense_item_bytes as f64 / rematerializer_bytes as f64,
    };
    println!(
        "rematerialization langid C={langid_classes} D=10k: dense {dense_item_bytes} B vs seed view {rematerializer_bytes} B ({:.0}x)",
        rematerialization.reduction_factor
    );

    let snapshot = Snapshot {
        host_threads,
        kernel_backend: hdc::active_backend_name(),
        single_query,
        early_abandon,
        batch_1000,
        resilience,
        delta_publish,
        backends,
        cascade,
        index_scaling,
        bitsliced_scaling,
        rematerialization,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    });
    println!("wrote {}", out.display());
}
