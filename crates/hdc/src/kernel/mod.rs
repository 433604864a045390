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
//! * [`PackedRows::scan_min2`] — a fused single-pass min/runner-up scan
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
//!   random rows — see [`ScanStrategy::Auto`] for the measured policy.
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
pub use bitsliced::{BitSlicedRows, GroupAccumulator, SharedBound, GROUP_ROWS};
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

impl Min2 {
    /// Merges partial scans of *disjoint* row ranges into the scan of
    /// their union — the exact gather step of a range-split search (the
    /// software form of MEMHD-style sub-arrays feeding one comparator).
    ///
    /// Each part must carry row indices from the shared (global) index
    /// space, which is what the range scans
    /// ([`PackedRows::scan_min2_range`]) return. Because every part is an
    /// exact (winner, runner-up) over its own rows, the union's winner is
    /// one of the part winners and the union's runner-up is either the
    /// winning part's runner-up or another part's winner; ties resolve to
    /// the lowest global row index, so the merge is bit-identical to one
    /// serial [`PackedRows::scan_min2`] over all rows, in any merge order.
    ///
    /// Returns `None` when `parts` is empty.
    pub fn merge(parts: impl IntoIterator<Item = Min2>) -> Option<Min2> {
        parts.into_iter().fold(None, |merged, part| {
            Some(match merged {
                None => part,
                Some(acc) => acc.join(part),
            })
        })
    }

    /// Merges two partial scans over disjoint row sets.
    fn join(self, other: Min2) -> Min2 {
        // The union's winner: smaller distance, lowest global index on a
        // tie (indices are unique across disjoint ranges).
        let (winner, loser) = if (other.best_distance, other.best) < (self.best_distance, self.best)
        {
            (other, self)
        } else {
            (self, other)
        };
        // The union's second-smallest distance is the winning side's
        // runner-up or the losing side's winner — the losing side's
        // runner-up is dominated by its own winner.
        let runner_up = Some(match winner.runner_up {
            Some(r) => r.min(loser.best_distance),
            None => loser.best_distance,
        });
        Min2 {
            best: winner.best,
            best_distance: winner.best_distance,
            runner_up,
        }
    }
}

/// How a [`PackedRows`] scan traverses its rows.
///
/// Every strategy except [`Probe`](Self::Probe) returns bit-identical
/// results; they differ only in how much distance work they can skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanStrategy {
    /// Let the library pick, from the stats of the attached
    /// [`BucketIndex`] when one is present (decision rule in DESIGN.md
    /// §12): [`Indexed`](Self::Indexed) when the stored shape is
    /// [`pruning_friendly`](IndexStats::pruning_friendly) (bucket
    /// separation clearly exceeds bucket diameters, so the radius bound
    /// actually fires), [`Cascade`](Self::Cascade) when radii are tiny
    /// but buckets unseparated (the planted-near-duplicate shape where
    /// the sampled prefilter wins ~1.2–1.5×, `BENCH_search.json`
    /// `cascade`), and otherwise [`Direct`](Self::Direct) — on uniform
    /// random rows both pruners lose to the plain fused scan.
    /// Without an index it is always the direct scan.
    #[default]
    Auto,
    /// One bounded-distance pass per row in index order.
    Direct,
    /// Sampled prefilter + best-first complement rescore (exact).
    Cascade,
    /// Columnwise dim-major scan with whole-group pruning through an
    /// attached [`BitSlicedRows`] mirror (exact; the `sliced` argument
    /// of [`PackedRows::scan_min2_planned_sliced`]); falls back to
    /// [`Direct`](Self::Direct) when no mirror is given.
    BitSliced,
    /// Exact bucket-pruned walk through an attached [`BucketIndex`]
    /// (the `index` argument of [`PackedRows::scan_min2_planned`]);
    /// falls back to [`Direct`](Self::Direct) when no index is given.
    Indexed,
    /// Approximate: visit only the `nprobe` buckets whose centroids
    /// are closest to the query (clamped to ≥ 1; values ≥ the bucket
    /// count degenerate to the exact [`Indexed`](Self::Indexed) walk).
    /// The only strategy allowed to miss the true winner — recall is
    /// measured in `BENCH_search.json` `index_scaling`. Falls back to
    /// [`Direct`](Self::Direct) (exact) when no index is given.
    Probe {
        /// How many closest buckets to scan.
        nprobe: usize,
    },
}

/// A [`ScanStrategy`] resolved against the presence (and stats) of a
/// [`BucketIndex`] — the concrete traversal a planned scan will run.
///
/// [`ScanStrategy::resolve`] is the one place the `Auto` decision rule
/// lives; exposing the resolved form lets callers (telemetry, workload
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
        /// `Some(n)` caps the walk at the `n` closest buckets
        /// (approximate); `None` is the exact pruned walk.
        nprobe: Option<usize>,
    },
}

impl ScanStrategy {
    /// Resolves this strategy against an optional attached index into
    /// the concrete traversal a planned scan will run, applying the
    /// `Auto` decision rule (DESIGN.md §16) when applicable:
    /// [`ResolvedScan::Indexed`] when the stored shape is
    /// [`pruning_friendly`](IndexStats::pruning_friendly),
    /// [`ResolvedScan::Cascade`] when it is
    /// [`cascade_friendly`](IndexStats::cascade_friendly), and
    /// [`ResolvedScan::Direct`] otherwise.
    pub fn resolve(self, index: Option<&BucketIndex>, dim: usize) -> ResolvedScan {
        self.resolve_full(index, None, dim)
    }

    /// [`resolve`](Self::resolve) made aware of an attached
    /// [`BitSlicedRows`] mirror. [`BitSliced`](Self::BitSliced) without
    /// a mirror falls back to the direct scan (like `Indexed` without
    /// an index), and `Auto` extends its rule (DESIGN.md §17): on
    /// cascade-friendly geometry with a mirror attached and at least
    /// [`BITSLICED_MIN_ROWS`] rows, the columnwise group bound prunes
    /// whole near-duplicate clusters after a handful of word-columns
    /// and overtakes the sampled cascade; below the row floor the
    /// per-group fixed costs do not amortize.
    pub fn resolve_full(
        self,
        index: Option<&BucketIndex>,
        sliced: Option<&BitSlicedRows>,
        dim: usize,
    ) -> ResolvedScan {
        match self {
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
/// union's — the [`SharedBound`] soundness argument), so pruning with
/// it stays bit-identical while firing from the very first group.
const BITSLICED_PILOT_SAMPLES: usize = 256;

/// Range floor for the pilot: below this the sample would be a large
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

/// Read-only access to a matrix of packed rows, by global row index.
///
/// [`PackedRows`] is the canonical contiguous implementation; callers
/// that keep rows in several non-contiguous allocations (e.g. the
/// chunked delta storage behind ham-core's versioned memory) implement
/// this instead, so the [`BucketIndex`] walks — which touch rows one
/// member at a time anyway — can scan them without a copy. Rows must be
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
/// let hit = rows.scan_min2(b.as_words()).unwrap();
/// assert_eq!(hit.best, 1);
/// assert_eq!(hit.best_distance, 0);
/// assert_eq!(hit.runner_up, Some(130));
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
    /// (non-abandoning) scan backing APIs that need all `C` distances.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count.
    pub fn distances(&self, query: &[u64]) -> Vec<usize> {
        let mut out = Vec::new();
        self.distances_into(query, &mut out);
        out
    }

    /// [`distances`](Self::distances) into a caller-owned buffer, so hot
    /// loops (batch workers) pay the `Vec` allocation once per
    /// worker instead of once per query. The buffer is cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count.
    pub fn distances_into(&self, query: &[u64], out: &mut Vec<usize>) {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        let backend = active_backend();
        out.clear();
        out.extend(self.iter_rows().map(|row| {
            backend
                .bounded_distance(row, query, usize::MAX)
                .expect("unbounded distance never abandons")
        }));
    }

    /// Masked distances from `query` to every row, in row order.
    ///
    /// # Panics
    ///
    /// Panics if `query` or `mask` has the wrong word count.
    pub fn distances_masked(&self, query: &[u64], mask: &[u64]) -> Vec<usize> {
        let mut out = Vec::new();
        self.distances_masked_into(query, mask, &mut out);
        out
    }

    /// [`distances_masked`](Self::distances_masked) into a caller-owned
    /// buffer. The buffer is cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `query` or `mask` has the wrong word count.
    pub fn distances_masked_into(&self, query: &[u64], mask: &[u64], out: &mut Vec<usize>) {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        assert_eq!(mask.len(), self.words_per_row, "mask word count mismatch");
        let backend = active_backend();
        out.clear();
        out.extend(self.iter_rows().map(|row| {
            backend
                .bounded_distance_masked(row, query, mask, usize::MAX)
                .expect("unbounded distance never abandons")
        }));
    }

    /// Fused single-pass nearest + runner-up scan with early abandonment.
    ///
    /// Rows are scored through the [`active_backend`]; a row is abandoned
    /// once a lower bound on its partial distance strictly exceeds the
    /// current runner-up bound. Distance is monotone in the number of
    /// scanned words and the lower bound never exceeds the true partial,
    /// so an abandoned row's final distance provably exceeds the final
    /// runner-up — abandonment can change neither the winner, nor the
    /// runner-up, nor either reported distance. Ties resolve to the
    /// lowest row index. No index or mirror is passed, so
    /// [`ScanStrategy::Auto`] always resolves to the direct scan here; the
    /// other traversals take an explicit strategy
    /// ([`scan_min2_with`](Self::scan_min2_with)) or an index and mirror
    /// ([`scan_min2_planned_sliced`](Self::scan_min2_planned_sliced)).
    ///
    /// Returns `None` when the matrix is empty.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count.
    pub fn scan_min2(&self, query: &[u64]) -> Option<Min2> {
        self.scan_min2_with(
            active_backend(),
            ScanStrategy::Auto,
            query,
            None,
            0..self.rows,
        )
    }

    /// [`scan_min2`](Self::scan_min2) restricted to the positions set in
    /// `mask` — the kernel behind sampled (D-HAM/R-HAM style) search.
    ///
    /// # Panics
    ///
    /// Panics if `query` or `mask` has the wrong word count.
    pub fn scan_min2_masked(&self, query: &[u64], mask: &[u64]) -> Option<Min2> {
        self.scan_min2_with(
            active_backend(),
            ScanStrategy::Auto,
            query,
            Some(mask),
            0..self.rows,
        )
    }

    /// [`scan_min2`](Self::scan_min2) restricted to the rows in
    /// `range`. The returned indices are **global** row indices, so
    /// partial results from disjoint ranges merge directly through
    /// [`Min2::merge`].
    ///
    /// Returns `None` when the range is empty.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count or `range` exceeds the
    /// stored rows.
    pub fn scan_min2_range(&self, query: &[u64], range: std::ops::Range<usize>) -> Option<Min2> {
        self.scan_min2_with(active_backend(), ScanStrategy::Auto, query, None, range)
    }

    /// The fully explicit scan: any [`DistanceBackend`], any
    /// [`ScanStrategy`], optional mask, row range. Every convenience scan
    /// above delegates here; benchmarks and the equivalence suites use it
    /// to pin backend × strategy pairs. Results are bit-identical across
    /// all backend × strategy combinations.
    ///
    /// Returns `None` when the range is empty.
    ///
    /// # Panics
    ///
    /// Panics if `query` or `mask` has the wrong word count or `range`
    /// exceeds the stored rows.
    pub fn scan_min2_with(
        &self,
        backend: &dyn DistanceBackend,
        strategy: ScanStrategy,
        query: &[u64],
        mask: Option<&[u64]>,
        range: std::ops::Range<usize>,
    ) -> Option<Min2> {
        self.scan_min2_planned(backend, strategy, None, query, mask, range, None)
    }

    /// The index-aware scan every search path routes through: resolves
    /// `strategy` against the (optional) [`BucketIndex`] — the one
    /// place the [`ScanStrategy::Auto`] decision rule lives — and
    /// accumulates pruning telemetry into `counters` when given.
    ///
    /// `index` must have been built over exactly this matrix (same row
    /// count and width); it is ignored by the non-indexed strategies.
    /// Results are bit-identical to [`scan_min2`](Self::scan_min2) for
    /// every strategy except [`ScanStrategy::Probe`].
    ///
    /// Returns `None` when the range is empty, or in probe mode when
    /// no probed bucket intersects it.
    ///
    /// # Panics
    ///
    /// Panics if `query` or `mask` has the wrong word count, `range`
    /// exceeds the stored rows, or `index` does not cover this matrix.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_min2_planned(
        &self,
        backend: &dyn DistanceBackend,
        strategy: ScanStrategy,
        index: Option<&BucketIndex>,
        query: &[u64],
        mask: Option<&[u64]>,
        range: std::ops::Range<usize>,
        counters: Option<&mut ScanCounters>,
    ) -> Option<Min2> {
        self.scan_min2_planned_sliced(backend, strategy, index, None, query, mask, range, counters)
    }

    /// [`scan_min2_planned`](Self::scan_min2_planned) made aware of an
    /// optional [`BitSlicedRows`] mirror, routing the
    /// [`ScanStrategy::BitSliced`] family through the columnwise scan.
    ///
    /// # Panics
    ///
    /// Same contract as [`scan_min2_planned`](Self::scan_min2_planned),
    /// plus: `sliced` must mirror exactly this matrix (same row count
    /// and width).
    #[allow(clippy::too_many_arguments)]
    pub fn scan_min2_planned_sliced(
        &self,
        backend: &dyn DistanceBackend,
        strategy: ScanStrategy,
        index: Option<&BucketIndex>,
        sliced: Option<&BitSlicedRows>,
        query: &[u64],
        mask: Option<&[u64]>,
        range: std::ops::Range<usize>,
        mut counters: Option<&mut ScanCounters>,
    ) -> Option<Min2> {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        if let Some(mask) = mask {
            assert_eq!(mask.len(), self.words_per_row, "mask word count mismatch");
        }
        assert!(range.end <= self.rows, "row range out of bounds");
        if range.is_empty() {
            return None;
        }
        if let Some(sliced) = sliced {
            assert_eq!(sliced.len(), self.rows, "bit-sliced mirror row mismatch");
            assert_eq!(
                sliced.words_per_row(),
                self.words_per_row,
                "bit-sliced mirror width mismatch"
            );
        }
        match strategy.resolve_full(index, sliced, self.dim) {
            ResolvedScan::Direct => {
                if let Some(counters) = counters.as_deref_mut() {
                    counters.rows_scanned += range.len() as u64;
                }
                self.scan_min2_direct(backend, query, mask, range)
            }
            ResolvedScan::Cascade => {
                if let Some(counters) = counters.as_deref_mut() {
                    counters.rows_scanned += range.len() as u64;
                }
                self.scan_min2_cascade(backend, query, mask, range)
            }
            ResolvedScan::BitSliced => {
                let sliced = sliced.expect("resolved BitSliced implies a mirror");
                // Seed the group-pruning bound from a sparse row-major
                // pilot sample (see [`BITSLICED_PILOT_SAMPLES`]): the
                // sample's second-smallest exact distance is ≥ the
                // final runner-up, so the columnwise pass prunes from
                // the first group without its result changing by a
                // bit. Pilot rows are bound-seeding overhead, not part
                // of the traversal, so the counters still partition
                // the range into scanned vs group-pruned.
                let bound = SharedBound::unbounded();
                if range.len() >= BITSLICED_PILOT_MIN_ROWS {
                    let stride = range.len() / BITSLICED_PILOT_SAMPLES;
                    let mut smallest = usize::MAX;
                    let mut second = usize::MAX;
                    let mut at = range.start + stride / 2;
                    while at < range.end {
                        // Abandon a sample once it cannot tighten the
                        // seed: a dropped sample only loosens (never
                        // unsounds) the resulting bound.
                        let cap = second.min(bound.get()).saturating_sub(1);
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
                    if second != usize::MAX {
                        bound.tighten(second);
                    }
                }
                sliced.scan_min2(backend, query, mask, range, counters, Some(&bound))
            }
            ResolvedScan::Indexed { nprobe } => index
                .expect("resolved Indexed implies an index")
                .scan_min2(self, backend, query, mask, range, nprobe, counters),
        }
    }

    /// Index-aware ranked scan, the [`scan_min2_planned`] analogue of
    /// [`top_k_range_into`](Self::top_k_range_into): identical output
    /// for every strategy except [`ScanStrategy::Probe`] (the cascade
    /// has no ranked form and resolves to the direct ranking, which is
    /// exact).
    ///
    /// [`scan_min2_planned`]: Self::scan_min2_planned
    ///
    /// # Panics
    ///
    /// Same contract as [`scan_min2_planned`](Self::scan_min2_planned).
    #[allow(clippy::too_many_arguments)]
    pub fn top_k_planned(
        &self,
        backend: &dyn DistanceBackend,
        strategy: ScanStrategy,
        index: Option<&BucketIndex>,
        query: &[u64],
        range: std::ops::Range<usize>,
        k: usize,
        ranked: &mut Vec<(usize, usize)>,
        counters: Option<&mut ScanCounters>,
    ) {
        self.top_k_planned_sliced(
            backend, strategy, index, None, query, range, k, ranked, counters,
        )
    }

    /// [`top_k_planned`](Self::top_k_planned) made aware of an optional
    /// [`BitSlicedRows`] mirror, routing the
    /// [`ScanStrategy::BitSliced`] family through the columnwise
    /// ranked scan. (No shared bound: a runner-up bound is only sound
    /// for min-2 scans.)
    ///
    /// # Panics
    ///
    /// Same contract as [`scan_min2_planned_sliced`].
    ///
    /// [`scan_min2_planned_sliced`]: Self::scan_min2_planned_sliced
    #[allow(clippy::too_many_arguments)]
    pub fn top_k_planned_sliced(
        &self,
        backend: &dyn DistanceBackend,
        strategy: ScanStrategy,
        index: Option<&BucketIndex>,
        sliced: Option<&BitSlicedRows>,
        query: &[u64],
        range: std::ops::Range<usize>,
        k: usize,
        ranked: &mut Vec<(usize, usize)>,
        counters: Option<&mut ScanCounters>,
    ) {
        if let Some(sliced) = sliced {
            assert_eq!(sliced.len(), self.rows, "bit-sliced mirror row mismatch");
            assert_eq!(
                sliced.words_per_row(),
                self.words_per_row,
                "bit-sliced mirror width mismatch"
            );
        }
        match strategy.resolve_full(index, sliced, self.dim) {
            ResolvedScan::Indexed { nprobe } => {
                let index = index.expect("resolved Indexed implies an index");
                index.top_k_into(self, backend, query, range, k, nprobe, counters, ranked);
            }
            ResolvedScan::BitSliced => {
                let sliced = sliced.expect("resolved BitSliced implies a mirror");
                sliced.top_k_into(backend, query, range, k, counters, ranked);
            }
            ResolvedScan::Direct | ResolvedScan::Cascade => {
                if k > 0 && !range.is_empty() {
                    if let Some(counters) = counters {
                        counters.rows_scanned += range.len() as u64;
                    }
                }
                self.top_k_range_into(query, range, k, ranked);
            }
        }
    }

    /// The `k` nearest rows of `range` as `(global row, distance)` pairs
    /// in increasing `(distance, row)` order — the **one** tie-break rule
    /// behind [`AssociativeMemory::search_top_k`], so ranked lists from
    /// disjoint ranges concatenate,
    /// re-sort and truncate into exactly the serial ranking.
    ///
    /// Returns fewer than `k` pairs when the range is shorter, and an
    /// empty list for `k == 0`.
    ///
    /// [`AssociativeMemory::search_top_k`]: crate::am::AssociativeMemory::search_top_k
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count or `range` exceeds the
    /// stored rows.
    pub fn top_k_range(
        &self,
        query: &[u64],
        range: std::ops::Range<usize>,
        k: usize,
    ) -> Vec<(usize, usize)> {
        let mut ranked = Vec::new();
        self.top_k_range_into(query, range, k, &mut ranked);
        ranked
    }

    /// [`top_k_range`](Self::top_k_range) into a caller-owned buffer, so
    /// a hot loop ranks thousands of queries without a `Vec` allocation
    /// each. The buffer is cleared first and holds at most `k` pairs on
    /// return.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count or `range` exceeds the
    /// stored rows.
    pub fn top_k_range_into(
        &self,
        query: &[u64],
        range: std::ops::Range<usize>,
        k: usize,
        ranked: &mut Vec<(usize, usize)>,
    ) {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        assert!(range.end <= self.rows, "row range out of bounds");
        ranked.clear();
        if k == 0 || range.is_empty() {
            return;
        }
        let backend = active_backend();
        let start = range.start;
        ranked.extend(
            self.words[start * self.words_per_row..range.end * self.words_per_row]
                .chunks_exact(self.words_per_row)
                .enumerate()
                .map(|(offset, row)| {
                    let distance = backend
                        .bounded_distance(row, query, usize::MAX)
                        .expect("unbounded distance never abandons");
                    (start + offset, distance)
                }),
        );
        ranked.sort_by_key(|&(row, distance)| (distance, row));
        ranked.truncate(k);
    }

    /// Direct strategy: one bounded pass per row in index order.
    fn scan_min2_direct(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        range: std::ops::Range<usize>,
    ) -> Option<Min2> {
        let start = range.start;
        let rows = self.words[start * self.words_per_row..range.end * self.words_per_row]
            .chunks_exact(self.words_per_row);
        let mut best = 0usize;
        let mut best_distance = usize::MAX;
        let mut runner_up = usize::MAX;
        for (offset, row) in rows.enumerate() {
            let index = start + offset;
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
        Some(Min2 {
            best,
            best_distance,
            runner_up: (runner_up != usize::MAX).then_some(runner_up),
        })
    }

    /// The seeded structured-sample window `[offset, offset + len)`, in
    /// words. Deterministic per row width, so every scan of a matrix
    /// (and of any of its row ranges) samples the same columns.
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
    /// [`scan_min2_direct`](Self::scan_min2_direct).
    fn scan_min2_cascade(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        range: std::ops::Range<usize>,
    ) -> Option<Min2> {
        let (off, len) = self.cascade_window();
        let end = off + len;
        let wpr = self.words_per_row;
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
            let start = range.start;
            for (offset, row) in self.words[start * wpr..range.end * wpr]
                .chunks_exact(wpr)
                .enumerate()
            {
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
                order.push((sampled, start + offset));
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
            Some(Min2 {
                best,
                best_distance,
                runner_up: (runner_up != usize::MAX).then_some(runner_up),
            })
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
            let distances = packed.distances(query.as_words());
            let expected = reference_min2(&distances);
            assert_eq!(
                packed.scan_min2(query.as_words()),
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
        let distances = packed.distances(query.as_words());
        let expected = reference_min2(&distances);
        let got = packed.scan_min2(query.as_words()).unwrap();
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
        let hit = packed.scan_min2(row.as_words()).unwrap();
        assert_eq!(hit.best, 0);
        assert_eq!(hit.best_distance, 0);
        assert_eq!(hit.runner_up, Some(0));
    }

    #[test]
    fn single_row_has_no_runner_up() {
        let row = pseudo_bits(100, 1);
        let packed = packed_from(std::slice::from_ref(&row));
        let hit = packed.scan_min2(row.as_words()).unwrap();
        assert_eq!(hit.best, 0);
        assert_eq!(hit.runner_up, None);
    }

    #[test]
    fn empty_matrix_scans_to_none() {
        let packed = PackedRows::new(64);
        assert!(packed.is_empty());
        assert_eq!(packed.scan_min2(&[0u64]), None);
    }

    #[test]
    fn masked_scan_matches_masked_distances() {
        let d = 1_234;
        let rows: Vec<BitVec> = (0..9).map(|i| pseudo_bits(d, i + 1)).collect();
        let packed = packed_from(&rows);
        let query = pseudo_bits(d, 77);
        let mask = pseudo_bits(d, 78);
        let distances = packed.distances_masked(query.as_words(), mask.as_words());
        let expected = reference_min2(&distances);
        assert_eq!(
            packed.scan_min2_masked(query.as_words(), mask.as_words()),
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

    /// Splits `0..rows` into `k` contiguous chunks the way a shard plan
    /// does.
    fn ranges(rows: usize, k: usize) -> Vec<std::ops::Range<usize>> {
        let chunk = rows.div_ceil(k);
        (0..k)
            .map(|i| (i * chunk).min(rows)..((i + 1) * chunk).min(rows))
            .collect()
    }

    #[test]
    fn range_scans_merge_to_the_serial_scan() {
        let d = 777;
        let rows: Vec<BitVec> = (0..23).map(|i| pseudo_bits(d, i * 3 + 1)).collect();
        let packed = packed_from(&rows);
        let query = pseudo_bits(d, 500);
        let mask = pseudo_bits(d, 501);
        let serial = packed.scan_min2(query.as_words());
        let serial_masked = packed.scan_min2_masked(query.as_words(), mask.as_words());
        for k in [1usize, 2, 3, 7, 23, 40] {
            let parts = ranges(rows.len(), k)
                .into_iter()
                .filter_map(|r| packed.scan_min2_range(query.as_words(), r));
            assert_eq!(Min2::merge(parts), serial, "k={k}");
            let parts = ranges(rows.len(), k).into_iter().filter_map(|r| {
                packed.scan_min2_with(
                    active_backend(),
                    ScanStrategy::Auto,
                    query.as_words(),
                    Some(mask.as_words()),
                    r,
                )
            });
            assert_eq!(Min2::merge(parts), serial_masked, "masked k={k}");
        }
    }

    #[test]
    fn range_scan_indices_are_global_and_empty_ranges_yield_none() {
        let rows: Vec<BitVec> = (0..6).map(|i| pseudo_bits(200, i + 1)).collect();
        let packed = packed_from(&rows);
        // Query row 4 exactly: a scan over 3..6 must report global index 4.
        let hit = packed.scan_min2_range(rows[4].as_words(), 3..6).unwrap();
        assert_eq!(hit.best, 4);
        assert_eq!(hit.best_distance, 0);
        assert_eq!(packed.scan_min2_range(rows[0].as_words(), 2..2), None);
        assert_eq!(Min2::merge(std::iter::empty()), None);
    }

    #[test]
    fn merge_breaks_cross_shard_ties_to_the_lowest_global_index() {
        let row = pseudo_bits(128, 9);
        let other = pseudo_bits(128, 10);
        // Identical winners in shards {0..2} and {2..4}: merged winner
        // must be the lowest global index (0), runner-up its duplicate.
        let packed = packed_from(&[row.clone(), other.clone(), row.clone(), other.clone()]);
        let serial = packed.scan_min2(row.as_words()).unwrap();
        let merged = Min2::merge(
            [0..2, 2..4]
                .into_iter()
                .filter_map(|r| packed.scan_min2_range(row.as_words(), r)),
        )
        .unwrap();
        assert_eq!(merged, serial);
        assert_eq!(merged.best, 0);
        assert_eq!(merged.runner_up, Some(0));
        // Merge order must not matter.
        let reversed = Min2::merge(
            [2..4, 0..2]
                .into_iter()
                .filter_map(|r| packed.scan_min2_range(row.as_words(), r)),
        )
        .unwrap();
        assert_eq!(reversed, serial);
    }

    #[test]
    fn top_k_range_ranks_by_distance_then_row() {
        let d = 300;
        let rows: Vec<BitVec> = (0..9).map(|i| pseudo_bits(d, i + 1)).collect();
        let packed = packed_from(&rows);
        let query = pseudo_bits(d, 42);
        let full = packed.top_k_range(query.as_words(), 0..9, 9);
        assert_eq!(full.len(), 9);
        assert!(full.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
        // Concatenating per-range rankings and re-sorting reproduces the
        // serial top-k for every k — the sharded top-k contract.
        for k in [0usize, 1, 4, 9, 20] {
            let mut gathered: Vec<(usize, usize)> = ranges(9, 3)
                .into_iter()
                .flat_map(|r| packed.top_k_range(query.as_words(), r, k))
                .collect();
            gathered.sort_by_key(|&(row, distance)| (distance, row));
            gathered.truncate(k);
            assert_eq!(gathered, packed.top_k_range(query.as_words(), 0..9, k));
        }
        assert!(packed.top_k_range(query.as_words(), 4..4, 3).is_empty());
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
        let expected = reference_min2(&packed.distances(query.as_words()));
        let expected_masked =
            reference_min2(&packed.distances_masked(query.as_words(), mask.as_words()));
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
                assert_eq!(
                    packed.scan_min2_with(backend, strategy, query.as_words(), None, 0..160),
                    Some(expected),
                    "{name} {strategy:?}"
                );
                assert_eq!(
                    packed.scan_min2_with(
                        backend,
                        strategy,
                        query.as_words(),
                        Some(mask.as_words()),
                        0..160
                    ),
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
        let expected = reference_min2(&packed.distances(query.as_words()));
        // With the mirror attached, BitSliced resolves and agrees with
        // the reference; counters land in scanned/group-pruned.
        let mut counters = ScanCounters::default();
        let got = packed.scan_min2_planned_sliced(
            &scalar::Scalar,
            ScanStrategy::BitSliced,
            None,
            Some(&sliced),
            query.as_words(),
            None,
            0..150,
            Some(&mut counters),
        );
        assert_eq!(got, Some(expected));
        assert_eq!(
            counters.rows_scanned + counters.rows_group_pruned,
            150,
            "{counters:?}"
        );
        // Resolution is observable, and without a mirror it falls back.
        assert_eq!(
            ScanStrategy::BitSliced.resolve_full(None, Some(&sliced), d),
            ResolvedScan::BitSliced
        );
        assert_eq!(
            ScanStrategy::BitSliced.resolve(None, d),
            ResolvedScan::Direct
        );
        // Ranked form matches the row-major ranking.
        let mut ranked = Vec::new();
        packed.top_k_planned_sliced(
            &scalar::Scalar,
            ScanStrategy::BitSliced,
            None,
            Some(&sliced),
            query.as_words(),
            0..150,
            7,
            &mut ranked,
            None,
        );
        assert_eq!(ranked, packed.top_k_range(query.as_words(), 0..150, 7));
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
        let packed = packed_from(&rows);
        let index =
            BucketIndex::build(&packed, &scalar::Scalar, IndexBuildOptions::default()).unwrap();
        let stats = index.stats();
        assert!(
            stats.cascade_friendly(d) && !stats.pruning_friendly(d),
            "stats = {stats:?}"
        );
        let mirror = BitSlicedRows::from_packed(&packed);
        let small = packed_from(&rows[..64]);
        let small_mirror = BitSlicedRows::from_packed(&small);
        assert_eq!(
            ScanStrategy::Auto.resolve_full(Some(&index), Some(&mirror), d),
            ResolvedScan::BitSliced
        );
        assert_eq!(
            ScanStrategy::Auto.resolve_full(Some(&index), None, d),
            ResolvedScan::Cascade,
            "no mirror: the cascade keeps the cascade-friendly branch"
        );
        assert_eq!(
            ScanStrategy::Auto.resolve_full(Some(&index), Some(&small_mirror), d),
            ResolvedScan::Cascade,
            "row floor: small mirrors do not amortize the group costs"
        );
    }

    #[test]
    fn cascade_matches_direct_on_ranges_and_small_shapes() {
        // Shapes below the Auto thresholds, forced through the cascade:
        // the window clamps to the whole row and results must not change.
        for (c, d) in [(1usize, 70usize), (3, 64), (17, 300), (40, 1_100)] {
            let rows: Vec<BitVec> = (0..c).map(|i| pseudo_bits(d, i * 5 + 2)).collect();
            let packed = packed_from(&rows);
            let query = pseudo_bits(d, 888);
            for range in [0..c, 0..c / 2, c / 3..c] {
                let direct = packed.scan_min2_with(
                    &scalar::Scalar,
                    ScanStrategy::Direct,
                    query.as_words(),
                    None,
                    range.clone(),
                );
                let cascade = packed.scan_min2_with(
                    &scalar::Scalar,
                    ScanStrategy::Cascade,
                    query.as_words(),
                    None,
                    range.clone(),
                );
                assert_eq!(cascade, direct, "{c}x{d} range {range:?}");
            }
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
        let hit = packed
            .scan_min2_with(
                &scalar::Scalar,
                ScanStrategy::Cascade,
                row.as_words(),
                None,
                0..130,
            )
            .unwrap();
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
        let mut buffer = Vec::new();
        packed.distances_into(q1.as_words(), &mut buffer);
        assert_eq!(buffer, packed.distances(q1.as_words()));
        // A second query through the same buffer replaces, not appends.
        packed.distances_into(q2.as_words(), &mut buffer);
        assert_eq!(buffer, packed.distances(q2.as_words()));
        packed.distances_masked_into(q1.as_words(), mask.as_words(), &mut buffer);
        assert_eq!(
            buffer,
            packed.distances_masked(q1.as_words(), mask.as_words())
        );
    }

    #[test]
    fn top_k_range_into_matches_the_allocating_variant() {
        let d = 400;
        let rows: Vec<BitVec> = (0..11).map(|i| pseudo_bits(d, i + 3)).collect();
        let packed = packed_from(&rows);
        let query = pseudo_bits(d, 9);
        let mut buffer = vec![(99usize, 99usize); 40];
        for k in [0usize, 1, 5, 11, 30] {
            packed.top_k_range_into(query.as_words(), 0..11, k, &mut buffer);
            assert_eq!(
                buffer,
                packed.top_k_range(query.as_words(), 0..11, k),
                "k={k}"
            );
        }
    }
}
