//! The weighted (multi-bit) distance kernel: integer per-dimension
//! counts compared against binary queries, bit-sliced so every plane
//! rides the same SIMD [`DistanceBackend`]s as the Hamming scans.
//!
//! Binarizing a trained class vector throws away the per-dimension vote
//! *margins* the accumulator learned; MIMHD-style multi-bit associative
//! memories (PAPERS.md) keep a small integer count per dimension instead
//! and measurably recover accuracy at high noise. The natural distance of
//! a binary query `q ∈ {0,1}^D` against a count row `c ∈ [0, M]^D`
//! (`M = 2^B − 1`) is the L1 gap to the query scaled to full confidence:
//!
//! ```text
//! wdist(c, q) = Σ_d |c_d − M·q_d| = Σ_d (q_d ? M − c_d : c_d)
//! ```
//!
//! which for `B = 1` is exactly the Hamming distance. The kernel insight
//! is the **bit-sliced identity**: store the counts as `B` binary planes
//! (plane `p` holds bit `p` of every dimension's count). Since `M − c` is
//! the bitwise complement of `c` within `B` bits, the per-dimension cost
//! is `c_d XOR (q_d ? M : 0)` — i.e. bit `p` of the cost is
//! `plane_p[d] XOR q_d`, and the whole distance collapses to `B` plain
//! Hamming distances against the *same* packed query:
//!
//! ```text
//! wdist(c, q) = Σ_p 2^p · hamming(plane_p, q)
//! ```
//!
//! Each plane distance runs through [`DistanceBackend::bounded_distance`]
//! — the scalar carry-save reference or any enabled SIMD datapath — under
//! the same bit-identity contract as the binary scans, and the proptest
//! suite `tests/weighted_equivalence.rs` holds every backend equal to the
//! naive per-dimension reference.
//!
//! Early abandonment composes across planes: scanning planes from the
//! most significant down, after exact planes `p > k` the partial sum is a
//! *sound lower bound* on the full distance (remaining planes only add),
//! so a row abandons as soon as that bound exceeds the caller's budget —
//! the same monotone-lower-bound argument the fused binary scan makes
//! word-by-word, lifted to plane granularity.

use super::backend::{active_backend, DistanceBackend};
use super::index::ScanCounters;
use super::Min2;
use crate::bitvec::BitVec;

/// Largest supported count width, in bits per dimension.
///
/// MIMHD-style memories use 2–4 bits; 8 covers every practical clip
/// while keeping counts in `u16` and plane shifts trivially in range.
pub const MAX_COUNT_BITS: usize = 8;

/// A contiguous matrix of multi-bit rows: integer per-dimension counts
/// stored as bit planes, the weighted analogue of
/// [`PackedRows`](super::PackedRows).
///
/// Row `i` occupies `bits · words_per_row` consecutive words; within a
/// row, plane `p` (the `p`-th bit of every count, least significant
/// first) is the word slice `[p · words_per_row, (p+1) · words_per_row)`.
/// Keeping a row's planes adjacent means one row is scanned in one cache
/// streak, and each plane slice is directly a backend-shaped operand.
/// Tail bits of every plane beyond `dim` are zero, the same invariant as
/// [`BitVec`].
///
/// # Examples
///
/// ```
/// use hdc::kernel::weighted::MultiBitRows;
/// use hdc::BitVec;
///
/// // Two 3-bit rows over 100 dimensions (counts in 0..=7).
/// let mut rows = MultiBitRows::new(100, 3);
/// rows.push_counts(&[7u16; 100]);
/// rows.push_counts(&[0u16; 100]);
///
/// // An all-ones query wants counts at 7: row 0 matches exactly.
/// let query = BitVec::ones(100);
/// let hit = rows.scan_min2(query.as_words()).unwrap();
/// assert_eq!(hit.best, 0);
/// assert_eq!(hit.best_distance, 0);
/// assert_eq!(hit.runner_up, Some(700));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiBitRows {
    words: Vec<u64>,
    bits: usize,
    words_per_row: usize,
    dim: usize,
    rows: usize,
}

impl MultiBitRows {
    /// Creates an empty matrix of `dim`-wide rows with `bits`-bit counts.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `bits` is outside `1..=`[`MAX_COUNT_BITS`].
    pub fn new(dim: usize, bits: usize) -> Self {
        assert!(dim > 0, "rows must be at least one dimension wide");
        assert!(
            (1..=MAX_COUNT_BITS).contains(&bits),
            "count width {bits} outside 1..={MAX_COUNT_BITS}"
        );
        MultiBitRows {
            words: Vec::new(),
            bits,
            words_per_row: dim.div_ceil(64),
            dim,
            rows: 0,
        }
    }

    /// Creates an empty matrix with storage reserved for `rows` rows.
    pub fn with_capacity(dim: usize, bits: usize, rows: usize) -> Self {
        let mut out = MultiBitRows::new(dim, bits);
        out.words.reserve(rows * bits * out.words_per_row);
        out
    }

    /// Row width in dimensions.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Count width in bits per dimension, `B`.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Largest representable count, `M = 2^B − 1` — the "full
    /// confidence" a query bit is compared against.
    pub fn max_count(&self) -> usize {
        (1usize << self.bits) - 1
    }

    /// Words per plane, `⌈dim / 64⌉`.
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

    /// Appends a row of per-dimension counts and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is not exactly `dim` long or any count exceeds
    /// [`max_count`](Self::max_count).
    pub fn push_counts(&mut self, counts: &[u16]) -> usize {
        assert_eq!(counts.len(), self.dim, "count row length mismatch");
        let max = self.max_count() as u16;
        let base = self.words.len();
        self.words
            .resize(base + self.bits * self.words_per_row, 0u64);
        for (d, &count) in counts.iter().enumerate() {
            assert!(
                count <= max,
                "count {count} at dimension {d} exceeds max {max}"
            );
            let (word, bit) = (d / 64, d % 64);
            for p in 0..self.bits {
                if (count >> p) & 1 == 1 {
                    self.words[base + p * self.words_per_row + word] |= 1 << bit;
                }
            }
        }
        self.rows += 1;
        self.rows - 1
    }

    /// Borrow of plane `plane` (bit `plane` of every count) of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `plane` is out of range.
    pub fn plane_words(&self, row: usize, plane: usize) -> &[u64] {
        assert!(row < self.rows, "row index {row} out of range");
        assert!(plane < self.bits, "plane index {plane} out of range");
        let start = (row * self.bits + plane) * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    /// Reconstructs the stored counts of row `row` — the golden-copy
    /// accessor tests and scrub paths compare against.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_counts(&self, row: usize) -> Vec<u16> {
        (0..self.dim)
            .map(|d| {
                let (word, bit) = (d / 64, d % 64);
                (0..self.bits)
                    .map(|p| (((self.plane_words(row, p)[word] >> bit) & 1) as u16) << p)
                    .sum()
            })
            .collect()
    }

    /// The majority binarization of every row: dimension `d` maps to `1`
    /// exactly when `count_d ≥ (M + 1) / 2` — the projection a binary
    /// [`PackedRows`](super::PackedRows) memory (and therefore the whole
    /// binary serving stack) stores for the same training data. `B = 1`
    /// round-trips unchanged.
    pub fn binarize(&self) -> super::PackedRows {
        let threshold = self.max_count().div_ceil(2);
        let mut out = super::PackedRows::with_capacity(self.dim, self.rows);
        for row in 0..self.rows {
            let counts = self.row_counts(row);
            let bits = BitVec::from_bits(counts.iter().map(|&c| c as usize >= threshold));
            out.push(bits.as_words());
        }
        out
    }

    /// Weighted distance of `query` to row `row`, computed plane-by-plane
    /// on the [`active_backend`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `query` has the wrong word
    /// count.
    pub fn distance(&self, row: usize, query: &[u64]) -> usize {
        self.bounded_distance_with(active_backend(), row, query, None, usize::MAX)
            .expect("unbounded distance never abandons")
    }

    /// Bounded weighted distance under the [`DistanceBackend`] contract:
    /// returns `Some(exact)` whenever `exact ≤ bound`, and may return
    /// `None` once a lower bound on the distance provably strictly
    /// exceeds `bound`.
    ///
    /// Planes are scanned most significant first. Entering plane `p` with
    /// `remaining = bound − partial`, the plane's own budget is
    /// `⌊remaining / 2^p⌋`: a backend abandon (`None`) proves
    /// `hamming_p ≥ ⌊remaining/2^p⌋ + 1`, so the plane alone contributes
    /// `> remaining` and the row's full distance strictly exceeds
    /// `bound` — sound. Conversely when `exact ≤ bound`, every plane's
    /// exact Hamming fits its budget (the tail sum `Σ_{p'≤p} 2^{p'}·h_{p'}`
    /// is at most `remaining` and dominates `2^p·h_p`), so no plane can
    /// abandon and the exact total is returned — complete.
    ///
    /// With `mask`, every plane distance is restricted to the masked
    /// positions, i.e. the weighted distance over the kept dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `query`/`mask` has the wrong
    /// word count.
    pub fn bounded_distance_with(
        &self,
        backend: &dyn DistanceBackend,
        row: usize,
        query: &[u64],
        mask: Option<&[u64]>,
        bound: usize,
    ) -> Option<usize> {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        if let Some(mask) = mask {
            assert_eq!(mask.len(), self.words_per_row, "mask word count mismatch");
        }
        let mut total = 0usize;
        for p in (0..self.bits).rev() {
            let plane = self.plane_words(row, p);
            let remaining = match bound {
                usize::MAX => usize::MAX,
                b => b.saturating_sub(total),
            };
            let plane_budget = match remaining {
                usize::MAX => usize::MAX,
                r => r >> p,
            };
            let hamming = match mask {
                None => backend.bounded_distance(plane, query, plane_budget),
                Some(mask) => backend.bounded_distance_masked(plane, query, mask, plane_budget),
            }?;
            // The backend may return the exact value even above its
            // budget (abandonment is optional); fold it in either way —
            // a partial above `bound` is itself a sound lower bound.
            total += hamming << p;
            if total > bound {
                return None;
            }
        }
        Some(total)
    }

    /// Exact weighted distance from `query` to every row, in row order.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count.
    pub fn distances(&self, query: &[u64]) -> Vec<usize> {
        (0..self.rows)
            .map(|row| self.distance(row, query))
            .collect()
    }

    /// Fused single-pass nearest + runner-up scan over all rows with
    /// plane-level early abandonment, on the [`active_backend`].
    ///
    /// Returns `None` when the matrix is empty.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count.
    pub fn scan_min2(&self, query: &[u64]) -> Option<Min2> {
        self.scan_min2_with(active_backend(), query, None, None)
    }

    /// The fully explicit weighted scan: any backend, optional mask,
    /// optional [`ScanCounters`]. Ties resolve to the lowest row index
    /// and abandonment never changes either reported field — the same
    /// exactness contract as [`PackedRows::min2`](super::PackedRows::min2),
    /// held by `tests/weighted_equivalence.rs` across every enabled
    /// backend.
    ///
    /// Returns `None` when the matrix is empty.
    ///
    /// # Panics
    ///
    /// Panics if `query`/`mask` has the wrong word count.
    pub fn scan_min2_with(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        counters: Option<&mut ScanCounters>,
    ) -> Option<Min2> {
        if self.is_empty() {
            return None;
        }
        if let Some(counters) = counters {
            counters.rows_scanned += self.rows as u64;
        }
        let mut best = 0usize;
        let mut best_distance = usize::MAX;
        let mut runner_up = usize::MAX;
        for row in 0..self.rows {
            // A row strictly above the runner-up cannot change the
            // result; the bounded kernel may prove that early.
            let Some(distance) = self.bounded_distance_with(backend, row, query, mask, runner_up)
            else {
                continue;
            };
            if distance < best_distance {
                runner_up = best_distance;
                best = row;
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

    /// The `k` nearest rows by weighted distance, as `(row, distance)`
    /// pairs in increasing `(distance, row)` order — the same tie rule
    /// as [`PackedRows::top_k`](super::PackedRows::top_k), so weighted
    /// and binary rankings follow one contract. The buffer is cleared
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count.
    pub fn top_k_into(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        k: usize,
        ranked: &mut Vec<(usize, usize)>,
        counters: Option<&mut ScanCounters>,
    ) {
        ranked.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        if let Some(counters) = counters {
            counters.rows_scanned += self.rows as u64;
        }
        ranked.extend((0..self.rows).map(|row| {
            let distance = self
                .bounded_distance_with(backend, row, query, None, usize::MAX)
                .expect("unbounded distance never abandons");
            (row, distance)
        }));
        ranked.sort_by_key(|&(row, distance)| (distance, row));
        ranked.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::enabled_backends;

    /// The definitional per-dimension reference: `Σ_d |c_d − M·q_d|`.
    fn naive_weighted(counts: &[u16], query: &BitVec, max: usize) -> usize {
        counts
            .iter()
            .enumerate()
            .map(|(d, &c)| {
                let target = if query.get(d) { max } else { 0 };
                (c as usize).abs_diff(target)
            })
            .sum()
    }

    fn pseudo_counts(dim: usize, max: u16, salt: usize) -> Vec<u16> {
        (0..dim)
            .map(|d| {
                ((d.wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(97)) % (max as usize + 1))
                    as u16
            })
            .collect()
    }

    fn pseudo_bits(len: usize, salt: usize) -> BitVec {
        BitVec::from_bits((0..len).map(|i| (i.wrapping_mul(2_654_435_761) ^ salt) % 7 < 3))
    }

    #[test]
    fn bitsliced_distance_matches_the_definition() {
        for (dim, bits) in [(64usize, 1usize), (100, 3), (129, 4), (1_000, 8)] {
            let mut rows = MultiBitRows::new(dim, bits);
            let max = rows.max_count() as u16;
            for salt in 0..5 {
                rows.push_counts(&pseudo_counts(dim, max, salt));
            }
            let query = pseudo_bits(dim, 42);
            for row in 0..rows.len() {
                assert_eq!(
                    rows.distance(row, query.as_words()),
                    naive_weighted(&rows.row_counts(row), &query, max as usize),
                    "{dim}x{bits} row {row}"
                );
            }
        }
    }

    #[test]
    fn one_bit_rows_reduce_to_hamming() {
        let dim = 300;
        let stored = pseudo_bits(dim, 9);
        let mut rows = MultiBitRows::new(dim, 1);
        rows.push_counts(
            &(0..dim)
                .map(|d| u16::from(stored.get(d)))
                .collect::<Vec<_>>(),
        );
        let query = pseudo_bits(dim, 10);
        assert_eq!(
            rows.distance(0, query.as_words()),
            stored.hamming(&query),
            "B = 1 weighted distance must be the Hamming distance"
        );
        assert_eq!(rows.binarize().row_words(0), stored.as_words());
    }

    #[test]
    fn bounded_contract_holds_on_every_backend() {
        let dim = 450;
        let bits = 4;
        let mut rows = MultiBitRows::new(dim, bits);
        let max = rows.max_count() as u16;
        for salt in 0..8 {
            rows.push_counts(&pseudo_counts(dim, max, salt));
        }
        let query = pseudo_bits(dim, 77);
        for backend in enabled_backends() {
            for row in 0..rows.len() {
                let exact = rows.distance(row, query.as_words());
                for bound in [
                    0usize,
                    exact.saturating_sub(1),
                    exact,
                    exact + 1,
                    usize::MAX,
                ] {
                    let got =
                        rows.bounded_distance_with(backend, row, query.as_words(), None, bound);
                    if exact <= bound {
                        assert_eq!(got, Some(exact), "{} bound {bound}", backend.name());
                    } else {
                        assert!(
                            got.is_none() || got == Some(exact),
                            "{} bound {bound}: {got:?}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scan_min2_matches_reference_and_breaks_ties_low() {
        let dim = 260;
        let bits = 3;
        let mut rows = MultiBitRows::new(dim, bits);
        let max = rows.max_count() as u16;
        let dup = pseudo_counts(dim, max, 3);
        rows.push_counts(&pseudo_counts(dim, max, 1));
        rows.push_counts(&dup);
        rows.push_counts(&pseudo_counts(dim, max, 2));
        rows.push_counts(&dup);
        let query = pseudo_bits(dim, 5);
        let distances = rows.distances(query.as_words());
        let best = (0..distances.len())
            .min_by_key(|&i| (distances[i], i))
            .unwrap();
        let runner = distances
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != best)
            .map(|(_, d)| *d)
            .min();
        let hit = rows.scan_min2(query.as_words()).unwrap();
        assert_eq!(hit.best, best);
        assert_eq!(hit.best_distance, distances[best]);
        assert_eq!(hit.runner_up, runner);
        // Duplicate rows tie: querying the duplicate must return the
        // *lower* index with a zero-distance runner-up.
        let tie_query = {
            let counts = rows.row_counts(1);
            BitVec::from_bits(
                counts
                    .iter()
                    .map(|&c| c as usize >= rows.max_count().div_ceil(2)),
            )
        };
        let tie = rows.scan_min2(tie_query.as_words()).unwrap();
        assert!(tie.best <= 1, "tie must resolve to the lowest index");
    }

    #[test]
    fn top_k_orders_by_distance_then_row_and_counts_rows() {
        let dim = 128;
        let mut rows = MultiBitRows::new(dim, 2);
        for salt in 0..6 {
            rows.push_counts(&pseudo_counts(dim, 3, salt));
        }
        let query = pseudo_bits(dim, 11);
        let mut ranked = Vec::new();
        let mut counters = ScanCounters::default();
        rows.top_k_into(
            active_backend(),
            query.as_words(),
            4,
            &mut ranked,
            Some(&mut counters),
        );
        assert_eq!(ranked.len(), 4);
        assert!(ranked
            .windows(2)
            .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
        assert_eq!(counters.rows_scanned, 6);
        let distances = rows.distances(query.as_words());
        for &(row, d) in &ranked {
            assert_eq!(distances[row], d);
        }
    }

    #[test]
    fn empty_and_zero_k_edges() {
        let rows = MultiBitRows::new(64, 2);
        assert!(rows.is_empty());
        assert_eq!(rows.scan_min2(&[0u64]), None);
        let mut counters = ScanCounters::default();
        assert_eq!(
            rows.scan_min2_with(active_backend(), &[0u64], None, Some(&mut counters)),
            None
        );
        assert_eq!(counters.rows_scanned, 0);
        let mut ranked = vec![(9, 9)];
        rows.top_k_into(active_backend(), &[0u64], 3, &mut ranked, None);
        assert!(ranked.is_empty());
        let mut some = MultiBitRows::with_capacity(64, 2, 3);
        some.push_counts(&[1u16; 64]);
        let mut ranked = vec![(9, 9)];
        some.top_k_into(active_backend(), &[0u64], 0, &mut ranked, None);
        assert!(ranked.is_empty());
    }

    #[test]
    #[should_panic(expected = "count row length mismatch")]
    fn push_rejects_wrong_length() {
        MultiBitRows::new(100, 2).push_counts(&[0u16; 99]);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn push_rejects_overflowing_counts() {
        MultiBitRows::new(4, 2).push_counts(&[4u16, 0, 0, 0]);
    }

    #[test]
    fn binarize_thresholds_at_the_count_midpoint() {
        let mut rows = MultiBitRows::new(8, 3);
        rows.push_counts(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let packed = rows.binarize();
        // Threshold (7+1)/2 = 4: dimensions 4..=7 binarize to one.
        let row = packed.row_words(0);
        assert_eq!(row[0] & 0xFF, 0b1111_0000);
    }
}
