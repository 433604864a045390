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
//! * [`ScanPlan`] — a [`ScanStrategy`] resolved once against the attached
//!   [`BucketIndex`]: the direct scan, or the bucket-pruned indexed walk
//!   (see [`ScanStrategy::Auto`] for the rule between them). Every scan runs
//!   through one: [`PackedRows::min2`] and [`PackedRows::top_k`] are the
//!   only scan entry points, plus [`PackedRows::distances_into`] for the
//!   APIs that need all `C` distances.
//!
//! Every kernel here is bit-identical to the naive per-row reference for
//! all inputs, including dimensions that are not a multiple of 64 (the
//! zeroed tail of the last word contributes no mismatches). The
//! equivalence is enforced by the proptest suites in
//! `tests/kernel_equivalence.rs`, `tests/backend_equivalence.rs` and
//! `tests/plan_equivalence.rs`, the latter two holding every enabled
//! backend and the indexed walk bit-identical to the scalar full scan.

pub mod backend;
pub mod index;
pub mod weighted;

mod avx2;
mod avx512;
mod neon;
mod scalar;

pub use backend::{active_backend, active_backend_name, enabled_backends, DistanceBackend};
pub use index::{BucketIndex, IndexBuildOptions, IndexStats, ScanCounters};

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
    /// §14, implemented by [`ScanPlan::new`]):
    /// [`Indexed`](Self::Indexed) when the stored shape is
    /// [`pruning_friendly`](IndexStats::pruning_friendly) (buckets
    /// separated by clearly more than their diameters, or radii tiny, as
    /// on planted near-duplicates), and [`Direct`](Self::Direct)
    /// everywhere else — on uniform random rows the bucket walk loses to
    /// the plain fused scan. Without an index it is always the direct
    /// scan.
    #[default]
    Auto,
    /// One bounded-distance pass per row in index order.
    Direct,
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
/// [`BucketIndex`].
///
/// Exposing the resolved form lets callers (telemetry, workload
/// reports, regression tests) observe *which* engine `Auto` picked
/// without re-deriving the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedScan {
    /// One bounded-distance pass per row in index order.
    Direct,
    /// Bucket walk through the attached [`BucketIndex`].
    Indexed {
        /// `Some(n)` caps the walk at the `n` closest non-empty buckets
        /// (approximate); `None` is the exact pruned walk.
        nprobe: Option<usize>,
    },
}

/// A scan resolved once: the distance backend, the traversal, and a
/// borrow of the index it may walk.
///
/// [`ScanPlan::new`] is the one place the [`ScanStrategy::Auto`]
/// decision rule lives, and the one place that checks an attached
/// [`BucketIndex`] covers the matrix. A plan holding one may only scan
/// a matrix of the shape it was built for; [`ScanPlan::direct`] holds
/// none and scans any matrix.
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
}

impl<'a> ScanPlan<'a> {
    /// Resolves `strategy` for a `rows × dim` matrix with an optional
    /// attached `index`.
    ///
    /// `Indexed`/`Probe` without an index fall back to the direct scan.
    /// `Auto` picks [`ResolvedScan::Indexed`] when the index stats are
    /// [`pruning_friendly`](IndexStats::pruning_friendly), and
    /// [`ResolvedScan::Direct`] in every other case.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not cover exactly `rows` rows of `dim`
    /// bits.
    pub fn new(
        backend: &'a dyn DistanceBackend,
        strategy: ScanStrategy,
        index: Option<&'a BucketIndex>,
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
        let resolved = match strategy {
            ScanStrategy::Direct => ResolvedScan::Direct,
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
                _ => ResolvedScan::Direct,
            },
        };
        ScanPlan {
            backend,
            resolved,
            index,
        }
    }

    /// The direct scan on the [`active_backend`], with nothing attached.
    pub fn direct() -> ScanPlan<'static> {
        ScanPlan {
            backend: active_backend(),
            resolved: ResolvedScan::Direct,
            index: None,
        }
    }

    /// The traversal this plan runs.
    pub fn resolved(&self) -> ResolvedScan {
        self.resolved
    }

    /// Asserts that `packed` is the matrix the attached index covers.
    fn check(&self, packed: &PackedRows) {
        if let Some(index) = self.index {
            assert_eq!(
                (index.rows(), index.centroids().words_per_row()),
                (packed.len(), packed.words_per_row()),
                "scan plan covers a different matrix"
            );
        }
    }
}

/// `splitmix64` — a tiny stateless mixer for the index's seeded choices.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Read-only access to a matrix of packed rows, by row index.
///
/// [`PackedRows`] is the canonical contiguous implementation; callers
/// that keep rows in several non-contiguous allocations (e.g. the
/// chunked delta storage behind ham-core's versioned memory) implement
/// this instead, so index maintenance ([`BucketIndex::assign_row`]) can
/// read them without a copy. Rows must be packed exactly like
/// [`PackedRows`] rows: `words_per_row` little-endian `u64` words with
/// tail bits beyond the dimension zero.
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

    /// Releases storage reserved past the stored rows (what appends
    /// leave behind when the matrix grows by doubling).
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
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
    /// holds an index built for a different matrix.
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
            ResolvedScan::Direct => {
                if let Some(counters) = counters {
                    counters.rows_scanned += self.rows as u64;
                }
                Some(self.min2_direct(backend, query, mask))
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
    /// [`ResolvedScan::Indexed`] with `Some(nprobe)`.
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
    /// index built for a different matrix.
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
            ResolvedScan::Direct => {
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
        // 160 rows × 2500 bits; a planted near-duplicate pair makes early
        // abandonment actually fire.
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
                // Without an index these resolve to the direct scan; the
                // indexed equivalence lives in `index.rs` and
                // `crates/core/tests/index_equivalence.rs`.
                ScanStrategy::Indexed,
                ScanStrategy::Probe { nprobe: 1 },
            ] {
                let name = backend.name();
                let plan = ScanPlan::new(backend, strategy, None, 160, d);
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
    fn auto_resolves_to_indexed_or_direct_by_geometry() {
        let d = 1_024;
        let random_row =
            |i: u64| BitVec::from_bits((0..d as u64).map(|b| splitmix64(i << 32 ^ b) & 1 == 1));
        let auto = |rows: &[BitVec]| {
            let packed = packed_from(rows);
            let index =
                BucketIndex::build(&packed, &scalar::Scalar, IndexBuildOptions::default()).unwrap();
            let plan = ScanPlan::new(
                &scalar::Scalar,
                ScanStrategy::Auto,
                Some(&index),
                rows.len(),
                d,
            );
            (plan.resolved(), index.stats())
        };
        // Separated clusters: 16 independent random centers, members a
        // few bits from theirs, so the bucket radius bound fires.
        let separated: Vec<BitVec> = (0..512)
            .map(|i| {
                let mut row = random_row(i % 16);
                row.flip((i as usize * 31) % d);
                row
            })
            .collect();
        let (resolved, stats) = auto(&separated);
        assert!(stats.pruning_friendly(d), "{stats:?}");
        assert_eq!(resolved, ResolvedScan::Indexed { nprobe: None });
        // Near-duplicates: tight planted clusters (radius ~1 bit) whose
        // centers sit inside the triangle bound's dim/16 margin. Their
        // tiny radii alone make the shape pruning-friendly, so the
        // indexed walk serves them at every row count.
        let base = random_row(1 << 20);
        let neardup: Vec<BitVec> = (0..4_096)
            .map(|i| {
                let cluster = i % 61;
                let mut row = base.clone();
                for f in 0..24 {
                    row.flip((cluster * 97 + f * 41) % d);
                }
                row.flip((i * 31) % d);
                row
            })
            .collect();
        for rows in [&neardup[..512], &neardup[..]] {
            let (resolved, stats) = auto(rows);
            assert!(
                stats.mean_radius <= d / 32,
                "{} rows: {stats:?}",
                rows.len()
            );
            assert!(stats.pruning_friendly(d), "{} rows: {stats:?}", rows.len());
            assert_eq!(
                resolved,
                ResolvedScan::Indexed { nprobe: None },
                "{} rows",
                rows.len()
            );
        }
        // Uniform random rows: the bucket walk does not pay, so the
        // direct scan.
        let uniform: Vec<BitVec> = (0..512).map(|i| random_row(i + (1 << 21))).collect();
        let (resolved, stats) = auto(&uniform);
        assert!(!stats.pruning_friendly(d), "{stats:?}");
        assert_eq!(resolved, ResolvedScan::Direct);
        // Without an index, Auto is the direct scan on any shape.
        assert_eq!(
            ScanPlan::new(&scalar::Scalar, ScanStrategy::Auto, None, 4_096, d).resolved(),
            ResolvedScan::Direct
        );
    }

    #[test]
    #[should_panic(expected = "index does not cover the scanned matrix")]
    fn plans_reject_an_index_of_another_matrix() {
        let rows: Vec<BitVec> = (0..5).map(|i| pseudo_bits(200, i + 1)).collect();
        let index = BucketIndex::build(
            &packed_from(&rows[..4]),
            &scalar::Scalar,
            IndexBuildOptions::default(),
        )
        .unwrap();
        ScanPlan::new(&scalar::Scalar, ScanStrategy::Indexed, Some(&index), 5, 200);
    }

    #[test]
    #[should_panic(expected = "scan plan covers a different matrix")]
    fn plans_only_scan_the_matrix_they_cover() {
        let rows: Vec<BitVec> = (0..5).map(|i| pseudo_bits(200, i + 1)).collect();
        let small = packed_from(&rows[..4]);
        let index =
            BucketIndex::build(&small, &scalar::Scalar, IndexBuildOptions::default()).unwrap();
        let plan = ScanPlan::new(&scalar::Scalar, ScanStrategy::Indexed, Some(&index), 4, 200);
        packed_from(&rows).min2(&plan, rows[0].as_words(), None, None);
    }

    #[test]
    fn explicit_strategies_resolve_without_reading_the_index_stats() {
        let d = 256;
        let rows: Vec<BitVec> = (0..40).map(|i| pseudo_bits(d, i + 1)).collect();
        let packed = packed_from(&rows);
        let index =
            BucketIndex::build(&packed, &scalar::Scalar, IndexBuildOptions::default()).unwrap();
        let resolve = |strategy, index| {
            ScanPlan::new(&scalar::Scalar, strategy, index, rows.len(), d).resolved()
        };
        for index in [None, Some(&index)] {
            assert_eq!(resolve(ScanStrategy::Direct, index), ResolvedScan::Direct);
        }
        assert_eq!(
            resolve(ScanStrategy::Indexed, Some(&index)),
            ResolvedScan::Indexed { nprobe: None }
        );
        // Probe clamps to one bucket and keeps larger counts as given.
        for (nprobe, kept) in [(0usize, 1usize), (1, 1), (3, 3), (1_000, 1_000)] {
            assert_eq!(
                resolve(ScanStrategy::Probe { nprobe }, Some(&index)),
                ResolvedScan::Indexed { nprobe: Some(kept) }
            );
        }
        // Without an index the bucket strategies are the direct scan.
        assert_eq!(resolve(ScanStrategy::Indexed, None), ResolvedScan::Direct);
        assert_eq!(
            resolve(ScanStrategy::Probe { nprobe: 2 }, None),
            ResolvedScan::Direct
        );
        assert_eq!(ScanPlan::direct().resolved(), ResolvedScan::Direct);
    }

    #[test]
    #[should_panic(expected = "index row width mismatch")]
    fn plans_reject_an_index_of_another_width() {
        let rows: Vec<BitVec> = (0..4).map(|i| pseudo_bits(200, i + 1)).collect();
        let index = BucketIndex::build(
            &packed_from(&rows),
            &scalar::Scalar,
            IndexBuildOptions::default(),
        )
        .unwrap();
        // Same row count, 300 bits = 5 words against the index's 4.
        ScanPlan::new(&scalar::Scalar, ScanStrategy::Auto, Some(&index), 4, 300);
    }

    #[test]
    #[should_panic(expected = "query word count mismatch")]
    fn min2_rejects_a_query_of_another_width() {
        let packed = packed_from(&[pseudo_bits(130, 1)]);
        packed.min2(&ScanPlan::direct(), &[0u64; 2], None, None);
    }

    #[test]
    #[should_panic(expected = "mask word count mismatch")]
    fn min2_rejects_a_mask_of_another_width() {
        let row = pseudo_bits(130, 1);
        let packed = packed_from(std::slice::from_ref(&row));
        packed.min2(&ScanPlan::direct(), row.as_words(), Some(&[!0u64; 2]), None);
    }

    #[test]
    fn truncate_keeps_the_leading_rows() {
        let rows: Vec<BitVec> = (0..6).map(|i| pseudo_bits(130, i + 1)).collect();
        let mut packed = packed_from(&rows);
        packed.truncate(9);
        assert_eq!(packed.len(), 6, "a longer length is a no-op");
        packed.truncate(4);
        assert_eq!(packed.len(), 4);
        assert_eq!(packed.as_words().len(), 4 * 3);
        assert_eq!(packed, packed_from(&rows[..4]));
        // A truncated matrix scans and grows like a fresh one.
        assert_eq!(
            scan(&packed, rows[5].as_words(), None)
                .unwrap()
                .best_distance,
            rows[..4]
                .iter()
                .map(|r| naive_hamming(r.as_words(), rows[5].as_words()))
                .min()
                .unwrap()
        );
        assert_eq!(packed.push(rows[5].as_words()), 4);
        assert_eq!(scan(&packed, rows[5].as_words(), None).unwrap().best, 4);
        packed.truncate(0);
        assert!(packed.is_empty());
        assert_eq!(scan(&packed, rows[0].as_words(), None), None);
    }

    #[test]
    fn row_source_reads_what_packed_rows_store() {
        fn via_source(source: &dyn RowSource) -> (usize, bool, usize, Vec<Vec<u64>>) {
            (
                source.len(),
                source.is_empty(),
                source.words_per_row(),
                (0..source.len())
                    .map(|r| source.row_words(r).to_vec())
                    .collect(),
            )
        }
        let rows: Vec<BitVec> = (0..3).map(|i| pseudo_bits(70, i + 1)).collect();
        let packed = packed_from(&rows);
        let expected: Vec<Vec<u64>> = rows.iter().map(|r| r.as_words().to_vec()).collect();
        assert_eq!(via_source(&packed), (3, false, 2, expected));
        assert_eq!(via_source(&PackedRows::new(70)), (0, true, 2, Vec::new()));
    }

    #[test]
    fn linear_scans_count_every_row_they_score() {
        let d = 600;
        let rows: Vec<BitVec> = (0..13).map(|i| pseudo_bits(d, i + 1)).collect();
        let packed = packed_from(&rows);
        let query = pseudo_bits(d, 99);
        let plan = ScanPlan::direct();
        let mut counters = ScanCounters::default();
        packed.min2(&plan, query.as_words(), None, Some(&mut counters));
        packed.min2(
            &plan,
            query.as_words(),
            Some(rows[0].as_words()),
            Some(&mut counters),
        );
        let mut ranked = Vec::new();
        packed.top_k(&plan, query.as_words(), 3, &mut ranked, Some(&mut counters));
        // A ranking of depth 0 scores nothing.
        packed.top_k(&plan, query.as_words(), 0, &mut ranked, Some(&mut counters));
        assert_eq!(
            counters,
            ScanCounters {
                rows_scanned: 3 * 13,
                ..ScanCounters::default()
            }
        );
        // An empty matrix scores nothing either.
        let empty = PackedRows::new(d);
        empty.min2(&plan, query.as_words(), None, Some(&mut counters));
        empty.top_k(&plan, query.as_words(), 3, &mut ranked, Some(&mut counters));
        assert_eq!(counters.rows_scanned, 3 * 13);
        assert!(ranked.is_empty());
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

    /// An index built over `packed` and the exact indexed-walk plan
    /// through it.
    fn indexed_plan<'a>(
        backend: &'a dyn DistanceBackend,
        packed: &PackedRows,
        index: &'a BucketIndex,
    ) -> ScanPlan<'a> {
        let plan = ScanPlan::new(
            backend,
            ScanStrategy::Indexed,
            Some(index),
            packed.len(),
            packed.dim(),
        );
        assert_eq!(plan.resolved(), ResolvedScan::Indexed { nprobe: None });
        plan
    }

    #[test]
    fn indexed_matches_direct_on_small_shapes() {
        // One to 40 rows, one word to 18: the bucket walk over an index
        // of one or a few buckets must not change a result.
        for (c, d) in [(1usize, 70usize), (3, 64), (17, 300), (40, 1_100)] {
            let rows: Vec<BitVec> = (0..c).map(|i| pseudo_bits(d, i * 5 + 2)).collect();
            let packed = packed_from(&rows);
            let index =
                BucketIndex::build(&packed, &scalar::Scalar, IndexBuildOptions::default()).unwrap();
            let plan = indexed_plan(&scalar::Scalar, &packed, &index);
            let query = pseudo_bits(d, 888);
            assert_eq!(
                packed.min2(&plan, query.as_words(), None, None),
                scan(&packed, query.as_words(), None),
                "{c}x{d}"
            );
            let mut ranked = Vec::new();
            packed.top_k(&plan, query.as_words(), c, &mut ranked, None);
            assert_eq!(ranked, ranking(&packed, query.as_words(), c), "{c}x{d}");
        }
    }

    #[test]
    fn indexed_ties_resolve_to_lowest_index_like_direct() {
        // Identical rows land in one bucket at distance 0; the walk's
        // (distance, row) tracking must still pick the lowest index.
        let d = 3_000;
        let row = pseudo_bits(d, 4);
        let rows: Vec<BitVec> = (0..130).map(|_| row.clone()).collect();
        let packed = packed_from(&rows);
        let index =
            BucketIndex::build(&packed, &scalar::Scalar, IndexBuildOptions::default()).unwrap();
        let plan = indexed_plan(&scalar::Scalar, &packed, &index);
        let hit = packed.min2(&plan, row.as_words(), None, None).unwrap();
        assert_eq!(hit.best, 0);
        assert_eq!(hit.best_distance, 0);
        assert_eq!(hit.runner_up, Some(0));
        let mut ranked = Vec::new();
        packed.top_k(&plan, row.as_words(), 3, &mut ranked, None);
        assert_eq!(ranked, vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn indexed_masked_scan_matches_direct_on_near_duplicates() {
        // Near-duplicates of the query (3 to 42 bits off) plus uniform
        // decoys: the near rows collapse the runner-up, so the walk
        // prunes the decoys' buckets under every mask.
        let d = 4_096;
        let query = pseudo_bits(d, 31);
        let mut rows: Vec<BitVec> = (0..200)
            .map(|i| {
                let mut row = query.clone();
                for f in 0..(3 + i % 40) {
                    row.flip((i * 131 + f * 977) % d);
                }
                row
            })
            .collect();
        rows.extend((0..40).map(|i| pseudo_bits(d, i + 500)));
        let packed = packed_from(&rows);
        for backend in enabled_backends() {
            let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
            let plan = indexed_plan(backend, &packed, &index);
            for salt in [40usize, 41, 42] {
                let mask = pseudo_bits(d, salt);
                let expected =
                    reference_min2(&distances(&packed, query.as_words(), Some(mask.as_words())));
                let mut counters = ScanCounters::default();
                assert_eq!(
                    packed.min2(
                        &plan,
                        query.as_words(),
                        Some(mask.as_words()),
                        Some(&mut counters)
                    ),
                    Some(expected),
                    "{} mask {salt}",
                    backend.name()
                );
                assert_eq!(
                    counters.rows_scanned + counters.rows_pruned,
                    rows.len() as u64
                );
            }
        }
    }
}
