//! The software search engine: contiguous row storage, runtime-dispatched
//! SIMD distance backends, and fused Hamming scan kernels.
//!
//! The associative search of the paper — nearest Hamming distance over `C`
//! rows of `D` bits — is the dominant cost of HD classification, and the
//! hardware designs in `ham-core` win exactly by co-designing the row
//! layout with the distance datapath (D-HAM's XOR array feeding a
//! comparator tree). This module is the software analogue of that
//! co-design:
//!
//! * [`PackedRows`] — a row-major `u64` word matrix holding every stored
//!   class contiguously, so a full scan is one linear sweep of memory
//!   instead of `C` pointer chases into separately allocated vectors;
//! * [`DistanceBackend`] — the pluggable XOR + popcount datapath. One
//!   backend is selected per process ([`active_backend`]) from the widest
//!   the host supports: AVX-512 `VPOPCNTDQ` (`avx512`) ≻ AVX2
//!   nibble-LUT carry-save (`avx2`) ≻ NEON `CNT` (`neon`) ≻ the
//!   portable scalar Harley–Seal kernel (`scalar`); `HAM_KERNEL_BACKEND`
//!   forces any of them by name. [`hamming_words`] /
//!   [`hamming_words_masked`] are the scalar-callable faces of the active
//!   backend;
//! * [`PackedRows::min2`] — a fused single-pass min/runner-up scan
//!   that abandons a row as soon as a *lower bound* on its partial
//!   distance exceeds the current runner-up bound (*early abandonment*):
//!   a row that can no longer be the winner or the runner-up cannot
//!   change the [`SearchResult`](crate::am::SearchResult), so the
//!   remaining words need not be counted;
//! * the sampled-prefilter **cascade** ([`ScanStrategy::Cascade`]) — the
//!   paper's §III-C structured-sampling knob reused as an *exact* pruner:
//!   a first pass scores every row on a seeded contiguous window of
//!   words (a sound lower bound on the full distance), rows are then
//!   rescored best-first on the complement words only, and a row is
//!   skipped outright once its sampled bound exceeds the running
//!   runner-up. The sampled distance is *reused* as part of the full
//!   distance, so no popcount work is repeated; the cascade collapses
//!   the scan to near-window cost when memories cluster, but its extra
//!   per-row calls and sort still lose to the direct scan on uniform
//!   random rows — see [`ScanStrategy::Auto`] for the measured policy;
//! * [`ScanPlan`] — a [`ScanStrategy`] resolved once against the attached
//!   [`BucketIndex`] and [`BitSlicedRows`] mirror. Every scan runs
//!   through one: [`PackedRows::min2`] and [`PackedRows::top_k`] are the
//!   only scan entry points, plus [`PackedRows::distances_into`] for the
//!   APIs that need all `C` distances.
//!
//! Every kernel here is bit-identical to the naive per-row reference for
//! all inputs, including dimensions that are not a multiple of 64 (the
//! zeroed tail of the last word contributes no mismatches). The
//! equivalence is enforced by the proptest suites in
//! `tests/kernel_equivalence.rs` and `tests/backend_equivalence.rs`,
//! the latter holding every enabled backend and the cascade bit-identical
//! to the scalar full scan.

pub mod backend;
pub mod bitsliced;
pub mod index;
pub mod weighted;

mod avx2;
mod avx512;
mod neon;
mod scalar;

pub use backend::{active_backend, active_backend_name, enabled_backends, DistanceBackend};
pub use bitsliced::{BitSlicedRows, GroupAccumulator, GROUP_ROWS};
pub use index::{BucketIndex, IndexBuildOptions, IndexStats, ScanCounters};

use std::cell::RefCell;

/// Number of mismatching bits between two equal-length word slices,
/// computed by the [`active_backend`].
///
/// This is the kernel underneath every Hamming distance in the crate
/// (including [`BitVec::hamming`]). Word slices must come from
/// [`BitVec`]s of the same logical length; tail bits beyond the logical
/// length are zero by the `BitVec` invariant and never count.
///
/// [`BitVec`]: crate::bitvec::BitVec
/// [`BitVec::hamming`]: crate::bitvec::BitVec::hamming
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming over unequal word counts");
    active_backend()
        .bounded_distance(a, b, usize::MAX)
        .expect("unbounded distance never abandons")
}

/// Number of mismatching bits restricted to the positions set in `mask`,
/// computed by the [`active_backend`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn hamming_words_masked(a: &[u64], b: &[u64], mask: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming over unequal word counts");
    assert_eq!(a.len(), mask.len(), "mask word count mismatch");
    active_backend()
        .bounded_distance_masked(a, b, mask, usize::MAX)
        .expect("unbounded distance never abandons")
}

/// Winner and runner-up of one fused scan over a [`PackedRows`] matrix.
///
/// Both distances are *exact*: early abandonment only ever skips rows whose
/// partial distance already exceeds the runner-up bound, and the distance
/// of such a row can influence neither field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Min2 {
    /// Row index of the winner (ties resolve to the lowest index, matching
    /// a deterministic hardware comparator tree).
    pub best: usize,
    /// Exact distance of the winner, in bits.
    pub best_distance: usize,
    /// Exact distance of the second-closest row, when at least two rows
    /// are stored.
    pub runner_up: Option<usize>,
}

/// How a [`PackedRows`] scan traverses its rows.
///
/// Every strategy except [`Probe`](Self::Probe) returns bit-identical
/// results; they differ only in how much distance work they can skip.
/// [`ScanPlan::new`] resolves a strategy into the traversal a scan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanStrategy {
    /// Let the library pick, from the stats of the attached
    /// [`BucketIndex`] when one is present (decision rule in DESIGN.md
    /// §12 and §17, implemented by [`ScanPlan::new`]):
    /// [`Indexed`](Self::Indexed) when the stored shape is
    /// [`pruning_friendly`](IndexStats::pruning_friendly) (bucket
    /// separation clearly exceeds bucket diameters, so the radius bound
    /// actually fires); on [`cascade_friendly`](IndexStats::cascade_friendly)
    /// shapes (radii tiny but buckets unseparated, the
    /// planted-near-duplicate shape) [`BitSliced`](Self::BitSliced) when
    /// a mirror of at least [`BITSLICED_MIN_ROWS`] rows is attached and
    /// [`Cascade`](Self::Cascade) otherwise; and [`Direct`](Self::Direct)
    /// everywhere else — on uniform random rows every pruner loses to
    /// the plain fused scan. Without an index it is always the direct
    /// scan.
    #[default]
    Auto,
    /// One bounded-distance pass per row in index order.
    Direct,
    /// Sampled prefilter + best-first complement rescore (exact).
    Cascade,
    /// Columnwise dim-major scan with whole-group pruning through an
    /// attached [`BitSlicedRows`] mirror (exact); falls back to
    /// [`Direct`](Self::Direct) when no mirror is attached.
    BitSliced,
    /// Exact bucket-pruned walk through an attached [`BucketIndex`];
    /// falls back to [`Direct`](Self::Direct) when no index is attached.
    Indexed,
    /// Approximate: visit only the `nprobe` non-empty buckets whose
    /// centroids are closest to the query (clamped to ≥ 1; values ≥ the
    /// bucket count degenerate to the exact [`Indexed`](Self::Indexed)
    /// walk). The only strategy allowed to miss the true winner — recall
    /// is measured in `BENCH_search.json` `index_scaling`. Falls back to
    /// [`Direct`](Self::Direct) (exact) when no index is attached.
    Probe {
        /// How many closest buckets to scan.
        nprobe: usize,
    },
}

/// The concrete traversal a [`ScanPlan`] runs — a [`ScanStrategy`]
/// resolved against the presence (and stats) of an attached
/// [`BucketIndex`] and [`BitSlicedRows`] mirror.
///
/// Exposing the resolved form lets callers (telemetry, workload
/// reports, regression tests) observe *which* engine `Auto` picked
/// without re-deriving the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedScan {
    /// One bounded-distance pass per row in index order.
    Direct,
    /// Sampled prefilter + best-first complement rescore (exact).
    Cascade,
    /// Columnwise group-pruned scan through the attached
    /// [`BitSlicedRows`] mirror.
    BitSliced,
    /// Bucket walk through the attached [`BucketIndex`].
    Indexed {
        /// `Some(n)` caps the walk at the `n` closest non-empty buckets
        /// (approximate); `None` is the exact pruned walk.
        nprobe: Option<usize>,
    },
}

/// A scan resolved once: the distance backend, the traversal, and
/// borrows of the index and mirror it may walk.
///
/// [`ScanPlan::new`] is the one place the [`ScanStrategy::Auto`]
/// decision rule lives, and the one place that checks an attached
/// [`BucketIndex`] or [`BitSlicedRows`] mirror covers the matrix. A plan
/// holding either may only scan a matrix of the shape it was built for;
/// [`ScanPlan::direct`] holds neither and scans any matrix.
///
/// # Examples
///
/// ```
/// use hdc::{BitVec, kernel::{PackedRows, ScanPlan}};
///
/// let mut rows = PackedRows::new(130);
/// let a = BitVec::ones(130);
/// let b = BitVec::zeros(130);
/// rows.push(a.as_words());
/// rows.push(b.as_words());
///
/// let hit = rows.min2(&ScanPlan::direct(), b.as_words(), None, None).unwrap();
/// assert_eq!(hit.best, 1);
/// assert_eq!(hit.best_distance, 0);
/// assert_eq!(hit.runner_up, Some(130));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ScanPlan<'a> {
    backend: &'a dyn DistanceBackend,
    resolved: ResolvedScan,
    index: Option<&'a BucketIndex>,
    sliced: Option<&'a BitSlicedRows>,
    /// `(rows, words_per_row)` of the matrix the attached index or
    /// mirror covers; `None` when neither is attached.
    shape: Option<(usize, usize)>,
}

impl<'a> ScanPlan<'a> {
    /// Resolves `strategy` for a `rows × dim` matrix with an optional
    /// attached `index` and bit-sliced `sliced` mirror.
    ///
    /// `Indexed`/`Probe` without an index and `BitSliced` without a
    /// mirror fall back to the direct scan. `Auto` picks
    /// [`ResolvedScan::Indexed`] when the index stats are
    /// [`pruning_friendly`](IndexStats::pruning_friendly); on
    /// [`cascade_friendly`](IndexStats::cascade_friendly) stats it picks
    /// [`ResolvedScan::BitSliced`] when a mirror of at least
    /// [`BITSLICED_MIN_ROWS`] rows is attached (the columnwise group
    /// bound prunes whole near-duplicate clusters after a handful of
    /// word-columns; below the row floor the per-group fixed costs do
    /// not amortize) and [`ResolvedScan::Cascade`] otherwise; it picks
    /// [`ResolvedScan::Direct`] in every other case.
    ///
    /// # Panics
    ///
    /// Panics if `index` or `sliced` does not cover exactly `rows` rows
    /// of `dim` bits.
    pub fn new(
        backend: &'a dyn DistanceBackend,
        strategy: ScanStrategy,
        index: Option<&'a BucketIndex>,
        sliced: Option<&'a BitSlicedRows>,
        rows: usize,
        dim: usize,
    ) -> Self {
        let words_per_row = dim.div_ceil(64);
        if let Some(index) = index {
            assert_eq!(
                index.rows(),
                rows,
                "index does not cover the scanned matrix"
            );
            assert_eq!(
                index.centroids().words_per_row(),
                words_per_row,
                "index row width mismatch"
            );
        }
        if let Some(sliced) = sliced {
            assert_eq!(sliced.len(), rows, "bit-sliced mirror row mismatch");
            assert_eq!(
                sliced.words_per_row(),
                words_per_row,
                "bit-sliced mirror width mismatch"
            );
        }
        let resolved = match strategy {
            ScanStrategy::Direct => ResolvedScan::Direct,
            ScanStrategy::Cascade => ResolvedScan::Cascade,
            ScanStrategy::BitSliced => match sliced {
                Some(_) => ResolvedScan::BitSliced,
                None => ResolvedScan::Direct,
            },
            ScanStrategy::Indexed => match index {
                Some(_) => ResolvedScan::Indexed { nprobe: None },
                None => ResolvedScan::Direct,
            },
            ScanStrategy::Probe { nprobe } => match index {
                Some(_) => ResolvedScan::Indexed {
                    nprobe: Some(nprobe.max(1)),
                },
                None => ResolvedScan::Direct,
            },
            ScanStrategy::Auto => match index {
                Some(ix) if ix.stats().pruning_friendly(dim) => {
                    ResolvedScan::Indexed { nprobe: None }
                }
                Some(ix) if ix.stats().cascade_friendly(dim) => match sliced {
                    Some(sliced) if sliced.len() >= BITSLICED_MIN_ROWS => ResolvedScan::BitSliced,
                    _ => ResolvedScan::Cascade,
                },
                _ => ResolvedScan::Direct,
            },
        };
        ScanPlan {
            backend,
            resolved,
            index,
            sliced,
            shape: (index.is_some() || sliced.is_some()).then_some((rows, words_per_row)),
        }
    }

    /// The direct scan on the [`active_backend`], with nothing attached.
    pub fn direct() -> ScanPlan<'static> {
        ScanPlan {
            backend: active_backend(),
            resolved: ResolvedScan::Direct,
            index: None,
            sliced: None,
            shape: None,
        }
    }

    /// The traversal this plan runs.
    pub fn resolved(&self) -> ResolvedScan {
        self.resolved
    }

    /// Asserts that `packed` is the matrix the attached index or mirror
    /// covers.
    fn check(&self, packed: &PackedRows) {
        if let Some(shape) = self.shape {
            assert_eq!(
                shape,
                (packed.len(), packed.words_per_row()),
                "scan plan covers a different matrix"
            );
        }
    }
}

/// Row floor under which [`ScanStrategy::Auto`] will not pick the
/// bit-sliced scan: with few rows the per-group accumulator and
/// extraction overheads dominate whatever the group bound prunes
/// (measured crossover in `BENCH_search.json` `bitsliced_scaling`).
pub const BITSLICED_MIN_ROWS: usize = 4_096;

/// Rows the bit-sliced planned scan samples row-major to seed the
/// group-pruning bound before the columnwise pass. Without a seed the
/// runner-up stays loose until the scan reaches the query's own
/// cluster, so on average half the groups cannot prune; the exact
/// distances of a sparse sample give a second-smallest that is ≥ the
/// scan's final runner-up (a subset's second-smallest is ≥ the
/// union's), so pruning with it stays bit-identical while firing from
/// the very first group.
const BITSLICED_PILOT_SAMPLES: usize = 256;

/// Row floor for the pilot: below this the sample would be a large
/// fraction of the rows and the seed cannot pay for itself.
const BITSLICED_PILOT_MIN_ROWS: usize = 2_048;

/// Sampled window target: `words_per_row / 4`, at least 16 words.
const CASCADE_WINDOW_DENOM: usize = 4;
const CASCADE_WINDOW_MIN_WORDS: usize = 16;

/// Seed for the structured-sample window placement (arbitrary constant;
/// fixed so results are reproducible across runs and processes).
const CASCADE_SEED: u64 = 0x4841_4D5F_5341_4D50;

/// `splitmix64` — a tiny stateless mixer for the window placement.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

thread_local! {
    /// Per-thread `(sampled distance, row)` scratch for the cascade, so a
    /// scan allocates nothing after the first call on a thread.
    static CASCADE_SCRATCH: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Read-only access to a matrix of packed rows, by row index.
///
/// [`PackedRows`] is the canonical contiguous implementation; callers
/// that keep rows in several non-contiguous allocations (e.g. the
/// chunked delta storage behind ham-core's versioned memory) implement
/// this instead, so index maintenance ([`BucketIndex::assign_row`]) and
/// the bit-sliced transpose ([`BitSlicedRows::from_source`]) can read
/// them without a copy. Rows must be
/// packed exactly like [`PackedRows`] rows: `words_per_row` little-
/// endian `u64` words with tail bits beyond the dimension zero.
pub trait RowSource {
    /// Number of stored rows, `C`.
    fn len(&self) -> usize;

    /// Returns `true` when no row is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Words per stored row, `⌈dim / 64⌉`.
    fn words_per_row(&self) -> usize;

    /// Borrow of the packed words of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    fn row_words(&self, row: usize) -> &[u64];
}

impl RowSource for PackedRows {
    fn len(&self) -> usize {
        PackedRows::len(self)
    }

    fn words_per_row(&self) -> usize {
        PackedRows::words_per_row(self)
    }

    fn row_words(&self, row: usize) -> &[u64] {
        PackedRows::row_words(self, row)
    }
}

/// A contiguous, row-major matrix of packed `u64` rows — the software
/// analogue of the paper's `C × D` storage array.
///
/// All rows share one allocation; row `i` occupies words
/// `[i · words_per_row, (i + 1) · words_per_row)`. Tail bits of each row
/// beyond `dim` are zero, the same invariant as
/// [`BitVec`](crate::bitvec::BitVec).
///
/// # Examples
///
/// ```
/// use hdc::{BitVec, kernel::PackedRows};
///
/// let mut rows = PackedRows::new(130);
/// let a = BitVec::ones(130);
/// let b = BitVec::zeros(130);
/// rows.push(a.as_words());
/// rows.push(b.as_words());
///
/// let mut distances = Vec::new();
/// rows.distances_into(b.as_words(), None, &mut distances);
/// assert_eq!(distances, [130, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRows {
    words: Vec<u64>,
    words_per_row: usize,
    dim: usize,
    rows: usize,
}

impl PackedRows {
    /// Creates an empty matrix whose rows are `dim` bits wide.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "rows must be at least one bit wide");
        PackedRows {
            words: Vec::new(),
            words_per_row: dim.div_ceil(64),
            dim,
            rows: 0,
        }
    }

    /// Creates an empty matrix with storage reserved for `rows` rows.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        let mut out = PackedRows::new(dim);
        out.words.reserve(rows * out.words_per_row);
        out
    }

    /// Row width in bits.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per stored row, `⌈dim / 64⌉`.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Number of stored rows, `C`.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when no row is stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Debug-checks the [`BitVec`](crate::bitvec::BitVec) tail invariant:
    /// bits of the last word beyond `dim` must be zero. A nonzero tail
    /// would silently corrupt every unmasked distance against this row.
    fn debug_assert_tail_zero(&self, row: &[u64]) {
        let spare = self.words_per_row * 64 - self.dim;
        if spare > 0 {
            debug_assert_eq!(
                row[self.words_per_row - 1] >> (64 - spare),
                0,
                "row tail bits beyond dim={} must be zero",
                self.dim
            );
        }
    }

    /// Appends a row and returns its index. `row` must hold exactly
    /// [`words_per_row`](Self::words_per_row) words with tail bits beyond
    /// `dim` zero (what [`BitVec::as_words`](crate::BitVec::as_words) of a
    /// same-length vector provides).
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong word count, and in debug builds if
    /// the tail bits beyond `dim` are not zero.
    pub fn push(&mut self, row: &[u64]) -> usize {
        assert_eq!(row.len(), self.words_per_row, "row word count mismatch");
        self.debug_assert_tail_zero(row);
        self.words.extend_from_slice(row);
        self.rows += 1;
        self.rows - 1
    }

    /// Overwrites row `index` in place.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `row` has the wrong word
    /// count, and in debug builds if the tail bits beyond `dim` are not
    /// zero.
    pub fn replace(&mut self, index: usize, row: &[u64]) {
        assert!(index < self.rows, "row index {index} out of range");
        assert_eq!(row.len(), self.words_per_row, "row word count mismatch");
        self.debug_assert_tail_zero(row);
        let start = index * self.words_per_row;
        self.words[start..start + self.words_per_row].copy_from_slice(row);
    }

    /// Keeps the first `len` rows, dropping the rest (no-op when `len`
    /// is not below the row count).
    pub fn truncate(&mut self, len: usize) {
        if len < self.rows {
            self.words.truncate(len * self.words_per_row);
            self.rows = len;
        }
    }

    /// Borrow of the packed words of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn row_words(&self, index: usize) -> &[u64] {
        assert!(index < self.rows, "row index {index} out of range");
        let start = index * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    /// Borrow of the whole row-major word matrix.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the rows as word slices, in row order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[u64]> {
        self.words.chunks_exact(self.words_per_row.max(1))
    }

    /// Exact distance from `query` to every row, in row order — the full
    /// (non-abandoning) scan backing APIs that need all `C` distances —
    /// restricted to the positions set in `mask` when one is given. The
    /// buffer is cleared first, so hot loops (batch workers) pay the
    /// `Vec` allocation once per worker instead of once per query.
    ///
    /// # Panics
    ///
    /// Panics if `query` or `mask` has the wrong word count.
    pub fn distances_into(&self, query: &[u64], mask: Option<&[u64]>, out: &mut Vec<usize>) {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        if let Some(mask) = mask {
            assert_eq!(mask.len(), self.words_per_row, "mask word count mismatch");
        }
        let backend = active_backend();
        out.clear();
        out.extend(self.iter_rows().map(|row| {
            match mask {
                None => backend.bounded_distance(row, query, usize::MAX),
                Some(mask) => backend.bounded_distance_masked(row, query, mask, usize::MAX),
            }
            .expect("unbounded distance never abandons")
        }));
    }

    /// Fused nearest + runner-up scan, run the way `plan` resolved, with
    /// the distance restricted to the positions set in `mask` when one
    /// is given (the kernel behind sampled D-HAM/R-HAM style search).
    /// Pruning telemetry accumulates into `counters` when given.
    ///
    /// Every plan except [`ResolvedScan::Indexed`] with `Some(nprobe)`
    /// returns the same bits. The direct scan abandons a row once a
    /// lower bound on its partial distance strictly exceeds the current
    /// runner-up bound: distance is monotone in the number of scanned
    /// words and the lower bound never exceeds the true partial, so an
    /// abandoned row's final distance provably exceeds the final
    /// runner-up, and abandonment can change neither the winner, nor the
    /// runner-up, nor either reported distance. Ties resolve to the
    /// lowest row index.
    ///
    /// Returns `None` exactly when the matrix is empty.
    ///
    /// # Panics
    ///
    /// Panics if `query` or `mask` has the wrong word count, or `plan`
    /// holds an index or mirror built for a different matrix.
    pub fn min2(
        &self,
        plan: &ScanPlan<'_>,
        query: &[u64],
        mask: Option<&[u64]>,
        counters: Option<&mut ScanCounters>,
    ) -> Option<Min2> {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        if let Some(mask) = mask {
            assert_eq!(mask.len(), self.words_per_row, "mask word count mismatch");
        }
        plan.check(self);
        if self.is_empty() {
            return None;
        }
        let backend = plan.backend;
        match plan.resolved {
            ResolvedScan::Direct | ResolvedScan::Cascade => {
                if let Some(counters) = counters {
                    counters.rows_scanned += self.rows as u64;
                }
                Some(match plan.resolved {
                    ResolvedScan::Cascade => self.min2_cascade(backend, query, mask),
                    _ => self.min2_direct(backend, query, mask),
                })
            }
            ResolvedScan::BitSliced => {
                let sliced = plan.sliced.expect("resolved BitSliced implies a mirror");
                sliced.scan_min2(
                    backend,
                    query,
                    mask,
                    self.pilot_seed(backend, query, mask),
                    counters,
                )
            }
            ResolvedScan::Indexed { nprobe } => Some(
                plan.index
                    .expect("resolved Indexed implies an index")
                    .scan_min2(self, backend, query, mask, nprobe, counters),
            ),
        }
    }

    /// The `k` nearest rows as `(row, distance)` pairs in increasing
    /// `(distance, row)` order — the **one** tie-break rule behind
    /// [`AssociativeMemory::search_top_k`] — run the way `plan`
    /// resolved. Identical for every plan except
    /// [`ResolvedScan::Indexed`] with `Some(nprobe)`; the cascade has no
    /// ranked form and runs the direct ranking, which is exact.
    ///
    /// The buffer is cleared first and holds `min(k, rows)` pairs on
    /// return, so a hot loop ranks thousands of queries without a `Vec`
    /// allocation each; `k == 0` ranks nothing.
    ///
    /// [`AssociativeMemory::search_top_k`]: crate::am::AssociativeMemory::search_top_k
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count, or `plan` holds an
    /// index or mirror built for a different matrix.
    pub fn top_k(
        &self,
        plan: &ScanPlan<'_>,
        query: &[u64],
        k: usize,
        ranked: &mut Vec<(usize, usize)>,
        counters: Option<&mut ScanCounters>,
    ) {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        plan.check(self);
        let backend = plan.backend;
        match plan.resolved {
            ResolvedScan::Indexed { nprobe } => plan
                .index
                .expect("resolved Indexed implies an index")
                .top_k_into(self, backend, query, k, nprobe, counters, ranked),
            ResolvedScan::BitSliced => plan
                .sliced
                .expect("resolved BitSliced implies a mirror")
                .top_k_into(backend, query, k, counters, ranked),
            ResolvedScan::Direct | ResolvedScan::Cascade => {
                ranked.clear();
                if k == 0 || self.is_empty() {
                    return;
                }
                if let Some(counters) = counters {
                    counters.rows_scanned += self.rows as u64;
                }
                ranked.extend(self.iter_rows().enumerate().map(|(row, words)| {
                    let distance = backend
                        .bounded_distance(words, query, usize::MAX)
                        .expect("unbounded distance never abandons");
                    (row, distance)
                }));
                ranked.sort_by_key(|&(row, distance)| (distance, row));
                ranked.truncate(k);
            }
        }
    }

    /// The seed bound of the bit-sliced scan: the second-smallest exact
    /// distance of a sparse row-major pilot sample (see
    /// [`BITSLICED_PILOT_SAMPLES`]), or `usize::MAX` below the pilot's
    /// row floor. The sample's second-smallest is ≥ the final runner-up
    /// (a subset's second-smallest is ≥ the union's), so the columnwise
    /// pass prunes from the first group without its result changing by
    /// a bit. Pilot rows are bound-seeding overhead, not part of the
    /// traversal, so the counters still partition the rows into
    /// scanned vs group-pruned.
    fn pilot_seed(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
    ) -> usize {
        if self.rows < BITSLICED_PILOT_MIN_ROWS {
            return usize::MAX;
        }
        let stride = self.rows / BITSLICED_PILOT_SAMPLES;
        let mut smallest = usize::MAX;
        let mut second = usize::MAX;
        let mut at = stride / 2;
        while at < self.rows {
            // Abandon a sample once it cannot tighten the seed: a
            // dropped sample only loosens (never unsounds) the bound.
            let cap = second.saturating_sub(1);
            let row = self.row_words(at);
            let distance = match mask {
                Some(mask) => backend.bounded_distance_masked(row, query, mask, cap),
                None => backend.bounded_distance(row, query, cap),
            };
            if let Some(distance) = distance {
                if distance < smallest {
                    second = smallest;
                    smallest = distance;
                } else if distance < second {
                    second = distance;
                }
            }
            at += stride;
        }
        second
    }

    /// Direct strategy: one bounded pass per row in index order.
    fn min2_direct(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
    ) -> Min2 {
        let mut best = 0usize;
        let mut best_distance = usize::MAX;
        let mut runner_up = usize::MAX;
        for (index, row) in self.iter_rows().enumerate() {
            // A row whose distance strictly exceeds the runner-up cannot
            // affect the result, so the kernel may stop counting it as
            // soon as that is provable (and `None`/larger distances fall
            // through the update below without effect).
            let distance = match mask {
                None => backend.bounded_distance(row, query, runner_up),
                Some(mask) => backend.bounded_distance_masked(row, query, mask, runner_up),
            };
            let Some(distance) = distance else { continue };
            if distance < best_distance {
                runner_up = best_distance;
                best = index;
                best_distance = distance;
            } else if distance < runner_up {
                runner_up = distance;
            }
        }
        Min2 {
            best,
            best_distance,
            runner_up: (runner_up != usize::MAX).then_some(runner_up),
        }
    }

    /// The seeded structured-sample window `[offset, offset + len)`, in
    /// words. Deterministic per row width, so every scan of a matrix
    /// samples the same columns.
    fn cascade_window(&self) -> (usize, usize) {
        let len = (self.words_per_row / CASCADE_WINDOW_DENOM)
            .max(CASCADE_WINDOW_MIN_WORDS)
            .min(self.words_per_row);
        let span = self.words_per_row - len;
        let offset = match span {
            0 => 0,
            _ => {
                (splitmix64(CASCADE_SEED ^ self.words_per_row as u64) % (span as u64 + 1)) as usize
            }
        };
        (offset, len)
    }

    /// Cascade strategy: exact two-pass scan.
    ///
    /// Pass 1 scores every row on the sampled window — a *sound lower
    /// bound* on its full distance, because the complement words can only
    /// add mismatches. Pass 2 first rescores the two rows with the
    /// smallest `(sampled, row)` pairs in full, seeding the runner-up
    /// with a tight upper bound, then sweeps the remaining rows in pass-1
    /// order: a row whose sampled bound alone exceeds the running
    /// runner-up is skipped with a single compare, anything else
    /// rescores **only the complement words** with the budget
    /// `runner_up − sampled`.
    ///
    /// No ordering of the sampled pairs is ever built: earlier revisions
    /// sorted (then heapified) them to walk ascending, but on the very
    /// geometry the cascade targets a full `sort_unstable` of 512 pairs
    /// costs more than the whole direct scan it is supposed to beat
    /// (measured ~7.4µs vs ~6.7µs at 4,096 bits). Seeding from the
    /// sampled minimum collapses the runner-up to near its final value
    /// before the sweep starts, so the sweep gets the same skip power as
    /// the sorted walk at `O(rows)` compare cost.
    ///
    /// Exactness: a row is skipped only when a lower bound on its full
    /// distance strictly exceeds the runner-up at that moment, which
    /// never increases — so a skipped row's distance strictly exceeds the
    /// *final* runner-up and can influence neither reported field. Best
    /// and runner-up are tracked by `(distance, row)`, making the result
    /// independent of traversal order and therefore bit-identical to
    /// [`min2_direct`](Self::min2_direct).
    fn min2_cascade(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
    ) -> Min2 {
        let (off, len) = self.cascade_window();
        let end = off + len;
        // Full distance of the row via its complement words, or `None`
        // when provably above `sampled + budget` (the row then cannot
        // matter to min2 given the runner-up the budget came from).
        let rescore = |index: usize, sampled: usize, budget: usize| -> Option<usize> {
            let row = self.row_words(index);
            let prefix = match mask {
                None => backend.bounded_distance(&row[..off], &query[..off], budget),
                Some(mask) => backend.bounded_distance_masked(
                    &row[..off],
                    &query[..off],
                    &mask[..off],
                    budget,
                ),
            }?;
            if prefix > budget {
                return None;
            }
            let suffix_budget = match budget {
                usize::MAX => usize::MAX,
                b => b - prefix,
            };
            let suffix = match mask {
                None => backend.bounded_distance(&row[end..], &query[end..], suffix_budget),
                Some(mask) => backend.bounded_distance_masked(
                    &row[end..],
                    &query[end..],
                    &mask[end..],
                    suffix_budget,
                ),
            }?;
            Some(sampled + prefix + suffix)
        };
        // The shared min2 update: `(distance, row)` lexicographic, so the
        // result is independent of visit order.
        fn note(
            index: usize,
            distance: usize,
            best: &mut usize,
            best_distance: &mut usize,
            runner_up: &mut usize,
        ) {
            if (distance, index) < (*best_distance, *best) {
                *runner_up = (*runner_up).min(*best_distance);
                *best = index;
                *best_distance = distance;
            } else if distance < *runner_up {
                *runner_up = distance;
            }
        }
        CASCADE_SCRATCH.with(|cell| {
            let order = &mut *cell.borrow_mut();
            order.clear();
            for (index, row) in self.iter_rows().enumerate() {
                let sampled = match mask {
                    None => backend.bounded_distance(&row[off..end], &query[off..end], usize::MAX),
                    Some(mask) => backend.bounded_distance_masked(
                        &row[off..end],
                        &query[off..end],
                        &mask[off..end],
                        usize::MAX,
                    ),
                }
                .expect("unbounded distance never abandons");
                order.push((sampled, index));
            }
            // Seeds: the two smallest (sampled, row) pairs — the rows the
            // sorted walk would have visited first.
            let mut seed1 = (usize::MAX, usize::MAX);
            let mut seed2 = (usize::MAX, usize::MAX);
            for &pair in order.iter() {
                if pair < seed1 {
                    seed2 = seed1;
                    seed1 = pair;
                } else if pair < seed2 {
                    seed2 = pair;
                }
            }
            let mut best = 0usize;
            let mut best_distance = usize::MAX;
            let mut runner_up = usize::MAX;
            for (sampled, index) in [seed1, seed2] {
                if index == usize::MAX {
                    continue;
                }
                let distance =
                    rescore(index, sampled, usize::MAX).expect("unbudgeted rescore never abandons");
                note(
                    index,
                    distance,
                    &mut best,
                    &mut best_distance,
                    &mut runner_up,
                );
            }
            for &(sampled, index) in order.iter() {
                if index == seed1.1 || index == seed2.1 || sampled > runner_up {
                    continue;
                }
                let budget = match runner_up {
                    usize::MAX => usize::MAX,
                    r => r - sampled,
                };
                if let Some(distance) = rescore(index, sampled, budget) {
                    note(
                        index,
                        distance,
                        &mut best,
                        &mut best_distance,
                        &mut runner_up,
                    );
                }
            }
            Min2 {
                best,
                best_distance,
                runner_up: (runner_up != usize::MAX).then_some(runner_up),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;

    /// The seed's word-wise zip kernel, kept as the in-module reference.
    fn naive_hamming(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x ^ y).count_ones() as usize)
            .sum()
    }

    fn pseudo_bits(len: usize, salt: usize) -> BitVec {
        BitVec::from_bits((0..len).map(|i| (i.wrapping_mul(2_654_435_761) ^ salt) % 7 < 3))
    }

    fn packed_from(rows: &[BitVec]) -> PackedRows {
        let mut out = PackedRows::with_capacity(rows[0].len(), rows.len());
        for row in rows {
            out.push(row.as_words());
        }
        out
    }

    /// Every row's distance, optionally masked, through `distances_into`.
    fn distances(packed: &PackedRows, query: &[u64], mask: Option<&[u64]>) -> Vec<usize> {
        let mut out = Vec::new();
        packed.distances_into(query, mask, &mut out);
        out
    }

    /// The direct min-2 scan.
    fn scan(packed: &PackedRows, query: &[u64], mask: Option<&[u64]>) -> Option<Min2> {
        packed.min2(&ScanPlan::direct(), query, mask, None)
    }

    /// The direct ranking.
    fn ranking(packed: &PackedRows, query: &[u64], k: usize) -> Vec<(usize, usize)> {
        let mut ranked = Vec::new();
        packed.top_k(&ScanPlan::direct(), query, k, &mut ranked, None);
        ranked
    }

    /// Reference min/runner-up over a full distance list.
    fn reference_min2(distances: &[usize]) -> Min2 {
        let mut best = 0usize;
        for (i, d) in distances.iter().enumerate().skip(1) {
            if *d < distances[best] {
                best = i;
            }
        }
        let runner_up = distances
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != best)
            .map(|(_, d)| *d)
            .min();
        Min2 {
            best,
            best_distance: distances[best],
            runner_up,
        }
    }

    #[test]
    fn carry_save_kernel_matches_naive_all_tail_widths() {
        for len in [1usize, 63, 64, 65, 127, 128, 255, 256, 300, 1_000, 10_000] {
            let a = pseudo_bits(len, 1);
            let b = pseudo_bits(len, 2);
            assert_eq!(
                hamming_words(a.as_words(), b.as_words()),
                naive_hamming(a.as_words(), b.as_words()),
                "len {len}"
            );
        }
    }

    #[test]
    fn masked_kernel_matches_masked_reference() {
        for len in [5usize, 64, 129, 257, 1_000] {
            let a = pseudo_bits(len, 1);
            let b = pseudo_bits(len, 2);
            let m = pseudo_bits(len, 3);
            let expected: usize = a
                .as_words()
                .iter()
                .zip(b.as_words())
                .zip(m.as_words())
                .map(|((x, y), w)| ((x ^ y) & w).count_ones() as usize)
                .sum();
            assert_eq!(
                hamming_words_masked(a.as_words(), b.as_words(), m.as_words()),
                expected,
                "len {len}"
            );
        }
    }

    #[test]
    fn scan_matches_reference_across_shapes() {
        for (c, d) in [
            (1usize, 70usize),
            (2, 64),
            (5, 129),
            (21, 1_000),
            (40, 2_048),
        ] {
            let rows: Vec<BitVec> = (0..c).map(|i| pseudo_bits(d, i * 11 + 1)).collect();
            let packed = packed_from(&rows);
            let query = pseudo_bits(d, 999);
            let expected = reference_min2(&distances(&packed, query.as_words(), None));
            assert_eq!(
                scan(&packed, query.as_words(), None),
                Some(expected),
                "{c}x{d}"
            );
        }
    }

    #[test]
    fn abandonment_triggers_and_stays_exact() {
        // A near-duplicate of the query makes the runner-up bound tight so
        // distant rows abandon after the first chunk, yet the scan result
        // must stay identical to the full reference.
        let d = 4_096;
        let query = pseudo_bits(d, 5);
        let mut near = query.clone();
        near.flip(17);
        let mut nearer = query.clone();
        nearer.flip(3);
        nearer.flip(1_000);
        let mut rows = vec![near, nearer];
        rows.extend((0..30).map(|i| pseudo_bits(d, i + 100)));
        let packed = packed_from(&rows);
        let expected = reference_min2(&distances(&packed, query.as_words(), None));
        let got = scan(&packed, query.as_words(), None).unwrap();
        assert_eq!(got, expected);
        assert_eq!(got.best, 0);
        assert_eq!(got.best_distance, 1);
        assert_eq!(got.runner_up, Some(2));
    }

    #[test]
    fn ties_resolve_to_lowest_index() {
        let d = 256;
        let row = pseudo_bits(d, 1);
        let packed = packed_from(&[row.clone(), row.clone(), row.clone()]);
        let hit = scan(&packed, row.as_words(), None).unwrap();
        assert_eq!(hit.best, 0);
        assert_eq!(hit.best_distance, 0);
        assert_eq!(hit.runner_up, Some(0));
    }

    #[test]
    fn single_row_has_no_runner_up() {
        let row = pseudo_bits(100, 1);
        let packed = packed_from(std::slice::from_ref(&row));
        let hit = scan(&packed, row.as_words(), None).unwrap();
        assert_eq!(hit.best, 0);
        assert_eq!(hit.runner_up, None);
    }

    #[test]
    fn empty_matrix_scans_to_none() {
        let packed = PackedRows::new(64);
        assert!(packed.is_empty());
        assert_eq!(scan(&packed, &[0u64], None), None);
    }

    #[test]
    fn masked_scan_matches_masked_distances() {
        let d = 1_234;
        let rows: Vec<BitVec> = (0..9).map(|i| pseudo_bits(d, i + 1)).collect();
        let packed = packed_from(&rows);
        let query = pseudo_bits(d, 77);
        let mask = pseudo_bits(d, 78);
        let expected = reference_min2(&distances(&packed, query.as_words(), Some(mask.as_words())));
        assert_eq!(
            scan(&packed, query.as_words(), Some(mask.as_words())),
            Some(expected)
        );
    }

    #[test]
    fn replace_and_accessors() {
        let a = pseudo_bits(130, 1);
        let b = pseudo_bits(130, 2);
        let mut packed = packed_from(&[a.clone(), b.clone()]);
        assert_eq!(packed.len(), 2);
        assert_eq!(packed.dim(), 130);
        assert_eq!(packed.words_per_row(), 3);
        assert_eq!(packed.row_words(1), b.as_words());
        let c = pseudo_bits(130, 3);
        packed.replace(0, c.as_words());
        assert_eq!(packed.row_words(0), c.as_words());
        assert_eq!(packed.as_words().len(), 6);
        assert_eq!(packed.iter_rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn push_rejects_wrong_width() {
        PackedRows::new(130).push(&[0u64]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tail bits beyond dim=70 must be zero")]
    fn push_rejects_nonzero_tail_bits() {
        // Bit 71 of a 70-bit row lives beyond `dim` and must be rejected:
        // it would silently count in every unmasked distance.
        PackedRows::new(70).push(&[0u64, 1 << 20]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tail bits beyond dim=70 must be zero")]
    fn replace_rejects_nonzero_tail_bits() {
        let mut packed = PackedRows::new(70);
        packed.push(&[!0u64, (1 << 6) - 1]);
        packed.replace(0, &[0u64, 1 << 63]);
    }

    #[test]
    fn top_k_ranks_by_distance_then_row() {
        let d = 300;
        let rows: Vec<BitVec> = (0..9).map(|i| pseudo_bits(d, i + 1)).collect();
        let packed = packed_from(&rows);
        let query = pseudo_bits(d, 42);
        let full = ranking(&packed, query.as_words(), 9);
        assert_eq!(full.len(), 9);
        assert!(full.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
        // Every depth is a prefix of the full ranking.
        for k in [0usize, 1, 4, 9, 20] {
            assert_eq!(
                ranking(&packed, query.as_words(), k),
                full[..k.min(9)],
                "k={k}"
            );
        }
    }

    #[test]
    fn every_backend_and_strategy_agree_on_every_scan() {
        // 160 rows × 2500 bits crosses both Auto thresholds; a planted
        // near-duplicate pair makes cascade pruning and early abandonment
        // actually fire.
        let d = 2_500;
        let query = pseudo_bits(d, 7);
        let mut near = query.clone();
        near.flip(100);
        near.flip(2_400);
        let mut rows = vec![near, query.clone()];
        rows.extend((0..158).map(|i| pseudo_bits(d, i * 13 + 21)));
        let packed = packed_from(&rows);
        let mask = pseudo_bits(d, 1_000);
        let expected = reference_min2(&distances(&packed, query.as_words(), None));
        let expected_masked =
            reference_min2(&distances(&packed, query.as_words(), Some(mask.as_words())));
        for backend in enabled_backends() {
            for strategy in [
                ScanStrategy::Auto,
                ScanStrategy::Direct,
                ScanStrategy::Cascade,
                // Without an index (or bit-sliced mirror) these resolve
                // to the direct scan; the indexed equivalence lives in
                // `index.rs` and `crates/core/tests/index_equivalence.rs`,
                // the bit-sliced one in `tests/bitsliced_equivalence.rs`.
                ScanStrategy::BitSliced,
                ScanStrategy::Indexed,
                ScanStrategy::Probe { nprobe: 1 },
            ] {
                let name = backend.name();
                let plan = ScanPlan::new(backend, strategy, None, None, 160, d);
                assert_eq!(
                    packed.min2(&plan, query.as_words(), None, None),
                    Some(expected),
                    "{name} {strategy:?}"
                );
                assert_eq!(
                    packed.min2(&plan, query.as_words(), Some(mask.as_words()), None),
                    Some(expected_masked),
                    "masked {name} {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn planned_sliced_routes_and_falls_back() {
        let d = 900;
        let rows: Vec<BitVec> = (0..150).map(|i| pseudo_bits(d, i * 7 + 3)).collect();
        let packed = packed_from(&rows);
        let sliced = BitSlicedRows::from_packed(&packed);
        let query = pseudo_bits(d, 321);
        let expected = reference_min2(&distances(&packed, query.as_words(), None));
        // With the mirror attached, BitSliced resolves and agrees with
        // the reference; counters land in scanned/group-pruned.
        let plan = ScanPlan::new(
            &scalar::Scalar,
            ScanStrategy::BitSliced,
            None,
            Some(&sliced),
            150,
            d,
        );
        let mut counters = ScanCounters::default();
        let got = packed.min2(&plan, query.as_words(), None, Some(&mut counters));
        assert_eq!(got, Some(expected));
        assert_eq!(
            counters.rows_scanned + counters.rows_group_pruned,
            150,
            "{counters:?}"
        );
        // Resolution is observable, and without a mirror it falls back.
        assert_eq!(plan.resolved(), ResolvedScan::BitSliced);
        assert_eq!(
            ScanPlan::new(&scalar::Scalar, ScanStrategy::BitSliced, None, None, 150, d).resolved(),
            ResolvedScan::Direct
        );
        // Ranked form matches the row-major ranking.
        let mut ranked = Vec::new();
        packed.top_k(&plan, query.as_words(), 7, &mut ranked, None);
        assert_eq!(ranked, ranking(&packed, query.as_words(), 7));
    }

    #[test]
    fn auto_picks_bitsliced_only_with_mirror_rows_and_geometry() {
        // A real cascade-friendly world at the row floor: tight planted
        // clusters (radius ~1 bit) whose centers sit well inside the
        // triangle bound's dim/16 margin. The Auto cascade branch must
        // upgrade to BitSliced only when a mirror is attached AND the
        // row floor is met.
        let d = 1_024;
        let base = pseudo_bits(d, 1);
        let mut rows: Vec<BitVec> = Vec::with_capacity(BITSLICED_MIN_ROWS);
        for i in 0..BITSLICED_MIN_ROWS {
            let cluster = i % 61;
            let mut row = base.clone();
            for f in 0..24 {
                row.flip((cluster * 97 + f * 41) % d);
            }
            row.flip((i * 31) % d);
            rows.push(row);
        }
        let auto = |rows: &[BitVec], mirrored: bool| {
            let packed = packed_from(rows);
            let index =
                BucketIndex::build(&packed, &scalar::Scalar, IndexBuildOptions::default()).unwrap();
            let stats = index.stats();
            assert!(
                stats.cascade_friendly(d) && !stats.pruning_friendly(d),
                "stats = {stats:?}"
            );
            let mirror = mirrored.then(|| BitSlicedRows::from_packed(&packed));
            ScanPlan::new(
                &scalar::Scalar,
                ScanStrategy::Auto,
                Some(&index),
                mirror.as_ref(),
                rows.len(),
                d,
            )
            .resolved()
        };
        assert_eq!(auto(&rows, true), ResolvedScan::BitSliced);
        assert_eq!(
            auto(&rows, false),
            ResolvedScan::Cascade,
            "no mirror: the cascade keeps the cascade-friendly branch"
        );
        assert_eq!(
            auto(&rows[..BITSLICED_MIN_ROWS - 1], true),
            ResolvedScan::Cascade,
            "row floor: small mirrors do not amortize the group costs"
        );
    }

    #[test]
    fn pilot_seed_keeps_the_runner_up_when_the_query_is_a_sample() {
        // The query is the first pilot sample itself, so the sample's
        // smallest distance is the winner's 0. Seeding with it would
        // prune every group but the winner's and lose the true runner-up;
        // the second-smallest sample keeps the answer exact.
        let d = 1_024;
        let rows: Vec<BitVec> = (0..BITSLICED_PILOT_MIN_ROWS as u64)
            .map(|i| BitVec::from_bits((0..d as u64).map(|b| splitmix64(i << 32 ^ b) & 1 == 1)))
            .collect();
        let packed = packed_from(&rows);
        let sliced = BitSlicedRows::from_packed(&packed);
        let sampled = BITSLICED_PILOT_MIN_ROWS / BITSLICED_PILOT_SAMPLES / 2;
        let query = rows[sampled].as_words();
        let plan = ScanPlan::new(
            &scalar::Scalar,
            ScanStrategy::BitSliced,
            None,
            Some(&sliced),
            rows.len(),
            d,
        );
        let all = distances(&packed, query, None);
        let expected = reference_min2(&all);
        assert_eq!(expected.best, sampled);
        let runner_up = (0..all.len())
            .filter(|&row| row != sampled)
            .min_by_key(|&row| all[row])
            .unwrap();
        assert!(
            runner_up / GROUP_ROWS != sampled / GROUP_ROWS && Some(16) <= expected.runner_up,
            "the runner-up must sit in another group, past one counter step"
        );
        assert_eq!(packed.min2(&plan, query, None, None), Some(expected));
    }

    #[test]
    #[should_panic(expected = "bit-sliced mirror row mismatch")]
    fn plans_reject_a_mirror_of_another_matrix() {
        let rows: Vec<BitVec> = (0..5).map(|i| pseudo_bits(200, i + 1)).collect();
        let sliced = BitSlicedRows::from_packed(&packed_from(&rows[..4]));
        ScanPlan::new(
            &scalar::Scalar,
            ScanStrategy::BitSliced,
            None,
            Some(&sliced),
            5,
            200,
        );
    }

    #[test]
    #[should_panic(expected = "scan plan covers a different matrix")]
    fn plans_only_scan_the_matrix_they_cover() {
        let rows: Vec<BitVec> = (0..5).map(|i| pseudo_bits(200, i + 1)).collect();
        let small = packed_from(&rows[..4]);
        let sliced = BitSlicedRows::from_packed(&small);
        let plan = ScanPlan::new(
            &scalar::Scalar,
            ScanStrategy::BitSliced,
            None,
            Some(&sliced),
            4,
            200,
        );
        packed_from(&rows).min2(&plan, rows[0].as_words(), None, None);
    }

    #[test]
    fn cascade_matches_direct_on_small_shapes() {
        // Shapes below the Auto thresholds, forced through the cascade:
        // the window clamps to the whole row and results must not change.
        for (c, d) in [(1usize, 70usize), (3, 64), (17, 300), (40, 1_100)] {
            let rows: Vec<BitVec> = (0..c).map(|i| pseudo_bits(d, i * 5 + 2)).collect();
            let packed = packed_from(&rows);
            let query = pseudo_bits(d, 888);
            let plan = |strategy| ScanPlan::new(&scalar::Scalar, strategy, None, None, c, d);
            let direct = packed.min2(&plan(ScanStrategy::Direct), query.as_words(), None, None);
            let cascade = packed.min2(&plan(ScanStrategy::Cascade), query.as_words(), None, None);
            assert_eq!(cascade, direct, "{c}x{d}");
        }
    }

    #[test]
    fn cascade_ties_resolve_to_lowest_index_like_direct() {
        // Identical rows give identical sampled distances; the cascade's
        // (distance, row) tracking must still pick the lowest index.
        let d = 3_000;
        let row = pseudo_bits(d, 4);
        let rows: Vec<BitVec> = (0..130).map(|_| row.clone()).collect();
        let packed = packed_from(&rows);
        let plan = ScanPlan::new(&scalar::Scalar, ScanStrategy::Cascade, None, None, 130, d);
        let hit = packed.min2(&plan, row.as_words(), None, None).unwrap();
        assert_eq!(hit.best, 0);
        assert_eq!(hit.best_distance, 0);
        assert_eq!(hit.runner_up, Some(0));
    }

    #[test]
    fn distances_into_reuses_the_buffer() {
        let d = 500;
        let rows: Vec<BitVec> = (0..7).map(|i| pseudo_bits(d, i + 1)).collect();
        let packed = packed_from(&rows);
        let q1 = pseudo_bits(d, 50);
        let q2 = pseudo_bits(d, 60);
        let mask = pseudo_bits(d, 70);
        let naive = |query: &BitVec| -> Vec<usize> {
            rows.iter()
                .map(|row| naive_hamming(row.as_words(), query.as_words()))
                .collect()
        };
        let mut buffer = Vec::new();
        packed.distances_into(q1.as_words(), None, &mut buffer);
        assert_eq!(buffer, naive(&q1));
        // A second query through the same buffer replaces, not appends.
        packed.distances_into(q2.as_words(), None, &mut buffer);
        assert_eq!(buffer, naive(&q2));
        packed.distances_into(q1.as_words(), Some(mask.as_words()), &mut buffer);
        let masked: Vec<usize> = rows
            .iter()
            .map(|row| hamming_words_masked(row.as_words(), q1.as_words(), mask.as_words()))
            .collect();
        assert_eq!(buffer, masked);
    }

    #[test]
    fn top_k_clears_the_buffer_it_reuses() {
        let d = 400;
        let rows: Vec<BitVec> = (0..11).map(|i| pseudo_bits(d, i + 3)).collect();
        let packed = packed_from(&rows);
        let query = pseudo_bits(d, 9);
        let mut buffer = vec![(99usize, 99usize); 40];
        for k in [0usize, 1, 5, 11, 30] {
            packed.top_k(&ScanPlan::direct(), query.as_words(), k, &mut buffer, None);
            assert_eq!(buffer, ranking(&packed, query.as_words(), k), "k={k}");
            assert_eq!(buffer.len(), k.min(11), "k={k}");
        }
    }
}
