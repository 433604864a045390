//! Bit-sliced dim-major row storage and the columnwise group-pruned scan.
//!
//! The row-major scan ([`PackedRows::min2`]) prunes *per row*: even
//! a hopeless candidate costs at least one pass over enough of its words
//! for the abandonment bound to fire. This module transposes the matrix
//! so the scan walks *word-columns* instead, and prunes 64 rows at a
//! time (the hardware analogue is Schmuck et al.'s bit-parallel AM
//! datapath; the plane trick is the same one `kernel/weighted.rs` uses
//! for multi-bit rows, per MIMHD):
//!
//! * rows are split into fixed **groups of 64** ([`GROUP_ROWS`]); within
//!   a group, word-column `c` is stored as 64 **planes** — plane `p` is
//!   the `u64` whose lane bit `r` is bit `p` of row `r`'s word `c`
//!   (a 64×64 bit transpose per column, [`transpose64`]);
//! * a query word is compared against all 64 rows at once: the mismatch
//!   plane of bit `p` is `stored_plane[p] ^ broadcast(query bit p)`,
//!   optionally ANDed with `broadcast(mask bit p)` — 64 rows × 64 bits
//!   of XOR work per 64 bitwise ops;
//! * mismatch planes (all weight 1) fold into a [`GroupAccumulator`]:
//!   a carry-save residual (weights 1/2/4/8) plus **bit-sliced vertical
//!   counter planes** where `high[k]` carries lane weight `16 · 2^k` —
//!   so all 64 per-row distances accumulate column-by-column in O(1)
//!   words of state per weight;
//! * after every column the scan reads an **exact group-minimum lower
//!   bound** — `16 × min over live lanes of the `high` counter` — and
//!   drops the entire group once that bound strictly exceeds the
//!   running runner-up. Accumulated-so-far + 0 for unseen columns would
//!   also be a lower bound, but per-lane extraction costs ~64 ops/lane;
//!   the MSB-down candidate walk over the counter planes costs ~4 ops
//!   per plane *for the whole group*.
//!
//! **Exactness.** A lane's partial distance only grows with more
//! columns, and `16·high[lane] ≤ partial ≤ final`. If the group minimum
//! of that bound strictly exceeds the running runner-up then *every*
//! row of the group has a final distance strictly above it; since the
//! runner-up only tightens and updates are strict (`<` with ascending
//! row order), such rows can affect neither the winner, the runner-up,
//! nor a tie-break. Surviving groups are extracted lane-ascending, so
//! the scan is bit-identical to [`PackedRows::min2`] — the
//! proptest suite `tests/bitsliced_equivalence.rs` pins this for every
//! backend × query mode.
//!
//! The per-column fold dispatches through
//! [`DistanceBackend::accumulate_column`], whose scalar default lives
//! here ([`accumulate_column_scalar`]) and which the AVX2/AVX-512
//! backends override with vectorized plane kernels. Any exact fold
//! yields the *same* accumulator state: per lane the residual/counter
//! split `count = residual + 16·high` with `residual ∈ [0, 15]` is
//! unique, and binary counter planes are a unique representation — so
//! results *and* telemetry are backend-independent.
//!
//! [`PackedRows::min2`]: super::PackedRows::min2
//! [`DistanceBackend::accumulate_column`]: super::backend::DistanceBackend::accumulate_column

use std::sync::Arc;

use super::backend::DistanceBackend;
use super::index::ScanCounters;
use super::{Min2, PackedRows, RowSource};

/// Rows per transposed group: one lane bit of a `u64` plane per row.
pub const GROUP_ROWS: usize = 64;

/// One software carry-save adder (full adder over 64 independent bit
/// lanes): `(carry, sum)` with `carry·2 + sum = a + b + c` per lane.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let partial = a ^ b;
    ((a & b) | (partial & c), partial ^ c)
}

/// Column-by-column distance state for one 64-row group.
///
/// `ones`/`twos`/`fours`/`eights` are the carry-save residual (lane
/// weights 1/2/4/8, so a lane's residual value is 0..=15); `high[k]`
/// is a bit-sliced binary counter plane of lane weight `16 · 2^k`.
/// Weight-16 spills from the residual tree ripple-carry into `high`.
/// For each lane, `total = residual + 16 · high` exactly; the split is
/// unique, so the state (and the pruning telemetry derived from it) is
/// identical for every correct fold implementation.
#[derive(Debug, Default)]
pub struct GroupAccumulator {
    ones: u64,
    twos: u64,
    fours: u64,
    eights: u64,
    high: Vec<u64>,
}

impl GroupAccumulator {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        GroupAccumulator::default()
    }

    /// Zeroes the state for the next group, keeping the counter-plane
    /// allocation.
    pub fn reset(&mut self) {
        self.ones = 0;
        self.twos = 0;
        self.fours = 0;
        self.eights = 0;
        self.high.clear();
    }

    /// Folds 16 weight-1 mismatch planes through the carry-save tree;
    /// the one weight-16 spill word ripples into the counter planes.
    #[inline]
    pub fn admit_block(&mut self, x: &[u64; 16]) {
        let (two_a, ones) = csa(self.ones, x[0], x[1]);
        let (two_b, ones) = csa(ones, x[2], x[3]);
        let (four_a, twos) = csa(self.twos, two_a, two_b);
        let (two_a, ones) = csa(ones, x[4], x[5]);
        let (two_b, ones) = csa(ones, x[6], x[7]);
        let (four_b, twos) = csa(twos, two_a, two_b);
        let (eight_a, fours) = csa(self.fours, four_a, four_b);
        let (two_a, ones) = csa(ones, x[8], x[9]);
        let (two_b, ones) = csa(ones, x[10], x[11]);
        let (four_a, twos) = csa(twos, two_a, two_b);
        let (two_a, ones) = csa(ones, x[12], x[13]);
        let (two_b, ones) = csa(ones, x[14], x[15]);
        let (four_b, twos) = csa(twos, two_a, two_b);
        let (eight_b, fours) = csa(fours, four_a, four_b);
        let (sixteen, eights) = csa(self.eights, eight_a, eight_b);
        self.ones = ones;
        self.twos = twos;
        self.fours = fours;
        self.eights = eights;
        self.ripple_sixteens(sixteen);
    }

    /// Merges a fresh carry-save state (lane weights 1/2/4/8) into the
    /// residual — how the SIMD column kernels land their per-vector-lane
    /// sub-accumulators after the in-register tree.
    #[inline]
    pub fn admit_sub(&mut self, ones: u64, twos: u64, fours: u64, eights: u64) {
        let (carry2, merged) = csa(self.ones, ones, 0);
        self.ones = merged;
        let (carry4, merged) = csa(self.twos, twos, carry2);
        self.twos = merged;
        let (carry8, merged) = csa(self.fours, fours, carry4);
        self.fours = merged;
        let (carry16, merged) = csa(self.eights, eights, carry8);
        self.eights = merged;
        self.ripple_sixteens(carry16);
    }

    /// Adds a weight-16 plane into the bit-sliced counter planes
    /// (ripple-carry with early-out — almost always one level deep).
    #[inline]
    pub fn ripple_sixteens(&mut self, mut carry: u64) {
        let mut level = 0usize;
        while carry != 0 {
            if level == self.high.len() {
                self.high.push(carry);
                return;
            }
            let plane = self.high[level];
            self.high[level] = plane ^ carry;
            carry &= plane;
            level += 1;
        }
    }

    /// Exact lower bound on the distance of *every* lane in `lanes`:
    /// `16 ×` the minimum counter value over those lanes, read by an
    /// MSB-down candidate walk over the counter planes (the ≤ 15
    /// residual bits are ignored — still a valid lower bound).
    #[inline]
    pub fn min_lower_bound(&self, lanes: u64) -> usize {
        debug_assert_ne!(lanes, 0, "group bound over no lanes");
        let mut candidates = lanes;
        let mut min = 0usize;
        for level in (0..self.high.len()).rev() {
            // Candidates with this counter bit clear are strictly
            // smaller than the rest; keep them if any survive, else
            // every candidate carries the bit and so does the minimum.
            let clear = candidates & !self.high[level];
            if clear != 0 {
                candidates = clear;
            } else {
                min |= 1 << level;
            }
        }
        16 * min
    }

    /// Exact accumulated distance of one lane: residual plus counter.
    #[inline]
    pub fn lane_total(&self, lane: usize) -> usize {
        let bit = |word: u64| ((word >> lane) & 1) as usize;
        let mut total =
            bit(self.ones) + 2 * bit(self.twos) + 4 * bit(self.fours) + 8 * bit(self.eights);
        for (level, &plane) in self.high.iter().enumerate() {
            total += bit(plane) << (4 + level);
        }
        total
    }
}

/// The portable column fold — the body of the
/// [`DistanceBackend::accumulate_column`] provided default, and the
/// reference the SIMD overrides are held state-identical to.
///
/// Mismatch plane `p` is `(planes[p] ^ broadcast(query bit p)) &
/// broadcast(mask bit p)`; an unmasked scan passes `mask_word = !0`.
#[inline]
pub fn accumulate_column_scalar(
    planes: &[u64; GROUP_ROWS],
    query_word: u64,
    mask_word: u64,
    acc: &mut GroupAccumulator,
) {
    let mut x = [0u64; 16];
    for block in 0..4 {
        for (offset, slot) in x.iter_mut().enumerate() {
            let p = block * 16 + offset;
            let qb = ((query_word >> p) & 1).wrapping_neg();
            let mb = ((mask_word >> p) & 1).wrapping_neg();
            *slot = (planes[p] ^ qb) & mb;
        }
        acc.admit_block(&x);
    }
}

/// In-place 64×64 bit transpose under the crate's LSB-first word
/// convention: on return, bit `r` of `a[p]` is what bit `p` of `a[r]`
/// was on entry.
///
/// This is the recursive delta-swap scheme, *re-oriented*: the textbook
/// (Hacker's Delight) form is written for MSB-first rows and under
/// LSB-first computes the anti-transpose. The orientation is pinned
/// against the naive bit-gather in this module's tests.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// The live-lane mask of a group holding `live` rows.
#[inline]
fn lane_mask(live: usize) -> u64 {
    debug_assert!(live > 0 && live <= GROUP_ROWS);
    !0u64 >> (GROUP_ROWS - live)
}

/// One 64-row group of the transposed store: `words_per_row × 64`
/// planes, column-major (`planes[c·64 + p]` is plane `p` of column
/// `c`). Groups are individually `Arc`'d so an online update
/// copy-on-writes only the groups it dirties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSlicedGroup {
    planes: Vec<u64>,
}

impl BitSlicedGroup {
    /// Transposes rows `[base, base + live)` of `source` into a group
    /// (lanes ≥ `live` read as all-zero rows; the scans never consult
    /// them).
    fn from_source<S: RowSource + ?Sized>(
        source: &S,
        base: usize,
        live: usize,
        words_per_row: usize,
    ) -> Self {
        let mut planes = vec![0u64; words_per_row * GROUP_ROWS];
        // Row-major fill (one `row_words` borrow per row), then one
        // in-place 64×64 transpose per column.
        for lane in 0..live {
            let row = source.row_words(base + lane);
            for (c, &word) in row.iter().enumerate() {
                planes[c * GROUP_ROWS + lane] = word;
            }
        }
        for column in planes.chunks_exact_mut(GROUP_ROWS) {
            transpose64(column.try_into().expect("chunks are GROUP_ROWS wide"));
        }
        BitSlicedGroup { planes }
    }

    /// Plane slice of word-column `c`.
    #[inline]
    fn column(&self, c: usize) -> &[u64; GROUP_ROWS] {
        self.planes[c * GROUP_ROWS..][..GROUP_ROWS]
            .try_into()
            .expect("column slice is GROUP_ROWS wide")
    }

    /// Rewrites one lane from a packed row.
    fn set_lane(&mut self, lane: usize, row: &[u64]) {
        let keep = !(1u64 << lane);
        for (c, &word) in row.iter().enumerate() {
            let column = &mut self.planes[c * GROUP_ROWS..][..GROUP_ROWS];
            for (p, plane) in column.iter_mut().enumerate() {
                *plane = (*plane & keep) | (((word >> p) & 1) << lane);
            }
        }
    }
}

/// The transposed (dim-major) mirror of a row matrix: fixed 64-row
/// groups of word-column planes, scanned column-by-column with exact
/// whole-group pruning by [`scan_min2`](Self::scan_min2) /
/// [`top_k_into`](Self::top_k_into).
///
/// A `BitSlicedRows` is a *derived* structure: it mirrors some
/// [`RowSource`] row-for-row and must be kept coherent through
/// [`push_row`](Self::push_row) / [`update_row`](Self::update_row) (or
/// group-granular [`retranspose_group`](Self::retranspose_group)) when
/// the source mutates. Groups are `Arc`-shared, so cloning the store —
/// or publishing a delta that dirties a few groups — is O(groups)
/// pointer work, the same epoch-compose discipline as the chunked
/// row store.
#[derive(Debug, Clone)]
pub struct BitSlicedRows {
    dim: usize,
    words_per_row: usize,
    rows: usize,
    groups: Vec<Arc<BitSlicedGroup>>,
}

impl BitSlicedRows {
    /// An empty store for `dim`-bit rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "rows must be at least one bit wide");
        BitSlicedRows {
            dim,
            words_per_row: dim.div_ceil(64),
            rows: 0,
            groups: Vec::new(),
        }
    }

    /// Transposes an entire [`PackedRows`] matrix.
    pub fn from_packed(packed: &PackedRows) -> Self {
        Self::from_source(packed, packed.dim())
    }

    /// Transposes every row of any [`RowSource`] (e.g. the chunked
    /// delta storage behind ham-core's versioned memory).
    ///
    /// # Panics
    ///
    /// Panics if `source`'s row width disagrees with `dim`.
    pub fn from_source<S: RowSource + ?Sized>(source: &S, dim: usize) -> Self {
        let mut out = BitSlicedRows::new(dim);
        assert_eq!(
            source.words_per_row(),
            out.words_per_row,
            "row source width disagrees with dim {dim}"
        );
        out.rows = source.len();
        out.groups = (0..out.rows.div_ceil(GROUP_ROWS))
            .map(|g| {
                let base = g * GROUP_ROWS;
                let live = (out.rows - base).min(GROUP_ROWS);
                Arc::new(BitSlicedGroup::from_source(
                    source,
                    base,
                    live,
                    out.words_per_row,
                ))
            })
            .collect();
        out
    }

    /// Row width in bits.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per mirrored row, `⌈dim / 64⌉`.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Number of mirrored rows, `C`.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when no row is mirrored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of 64-row groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Bytes resident in the transposed planes (capacity of the
    /// padding lanes included) — what the bench reports as the cost of
    /// mirroring.
    pub fn resident_bytes(&self) -> usize {
        self.groups.len() * self.words_per_row * GROUP_ROWS * std::mem::size_of::<u64>()
    }

    /// Mirrors an append: extends the store by one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong word count.
    pub fn push_row(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.words_per_row, "row word count mismatch");
        let lane = self.rows % GROUP_ROWS;
        if lane == 0 {
            self.groups.push(Arc::new(BitSlicedGroup {
                planes: vec![0u64; self.words_per_row * GROUP_ROWS],
            }));
        }
        let group = self.groups.last_mut().expect("group was just ensured");
        Arc::make_mut(group).set_lane(lane, row);
        self.rows += 1;
    }

    /// Mirrors an in-place overwrite of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `words` has the wrong count.
    pub fn update_row(&mut self, row: usize, words: &[u64]) {
        assert!(row < self.rows, "row index {row} out of range");
        assert_eq!(words.len(), self.words_per_row, "row word count mismatch");
        let group = &mut self.groups[row / GROUP_ROWS];
        Arc::make_mut(group).set_lane(row % GROUP_ROWS, words);
    }

    /// Whether this store and `other` share group `group`'s allocation
    /// (`Arc` pointer equality) — the sharing probe delta-publish
    /// tests use to prove the transpose's copy-on-write is
    /// group-granular, the dim-major twin of comparing a version's
    /// chunk `Arc`s across epochs.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range for either store.
    pub fn group_shares_allocation(&self, other: &BitSlicedRows, group: usize) -> bool {
        Arc::ptr_eq(&self.groups[group], &other.groups[group])
    }

    /// Rebuilds one group from `source` — the chunk-granular coherence
    /// step of a delta publish: only the groups a batch of updates
    /// dirtied are retransposed (and copy-on-write re-`Arc`'d); clean
    /// groups stay shared with previous epochs.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range or `source` disagrees with
    /// this store's shape.
    pub fn retranspose_group<S: RowSource + ?Sized>(&mut self, group: usize, source: &S) {
        assert!(
            group < self.groups.len(),
            "group index {group} out of range"
        );
        assert_eq!(source.len(), self.rows, "row source length mismatch");
        assert_eq!(
            source.words_per_row(),
            self.words_per_row,
            "row source width mismatch"
        );
        let base = group * GROUP_ROWS;
        let live = (self.rows - base).min(GROUP_ROWS);
        self.groups[group] = Arc::new(BitSlicedGroup::from_source(
            source,
            base,
            live,
            self.words_per_row,
        ));
    }

    /// The columnwise fused min/runner-up scan with whole-group
    /// pruning — bit-identical to [`PackedRows::min2`] over the same
    /// rows (module docs give the argument).
    ///
    /// `seed` is an *additional* pruning bound, consulted from the first
    /// group on. It must be at least the scan's true runner-up distance
    /// (the winner's distance when only one row is stored); any subset's
    /// second-smallest distance qualifies, because a subset's
    /// second-smallest is ≥ the union's. Such a seed never drops below
    /// the final runner-up, so pruning rows whose lower bound *strictly*
    /// exceeds it changes neither the winner, the runner-up, nor a
    /// tie-break — the seed only ever skips work, never answers.
    /// `usize::MAX` seeds nothing. Counters record surviving rows in
    /// `rows_scanned` and group-pruned rows in `rows_group_pruned`.
    ///
    /// Returns `None` exactly when no row is mirrored.
    ///
    /// [`PackedRows::min2`]: super::PackedRows::min2
    ///
    /// # Panics
    ///
    /// Panics if `query` or `mask` has the wrong word count.
    pub fn scan_min2(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        seed: usize,
        mut counters: Option<&mut ScanCounters>,
    ) -> Option<Min2> {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        if let Some(mask) = mask {
            assert_eq!(mask.len(), self.words_per_row, "mask word count mismatch");
        }
        if self.is_empty() {
            return None;
        }
        let mut best = 0usize;
        let mut best_distance = usize::MAX;
        let mut runner_up = usize::MAX;
        let mut acc = GroupAccumulator::new();
        for (g, group) in self.groups.iter().enumerate() {
            let base = g * GROUP_ROWS;
            let live = (self.rows - base).min(GROUP_ROWS);
            let lanes = lane_mask(live);
            acc.reset();
            let mut pruned = false;
            for c in 0..self.words_per_row {
                let mask_word = mask.map_or(!0u64, |m| m[c]);
                backend.accumulate_column(group.column(c), query[c], mask_word, &mut acc);
                let bound = runner_up.min(seed);
                if bound != usize::MAX && acc.min_lower_bound(lanes) > bound {
                    pruned = true;
                    break;
                }
            }
            if pruned {
                if let Some(counters) = counters.as_deref_mut() {
                    counters.rows_group_pruned += live as u64;
                }
                continue;
            }
            if let Some(counters) = counters.as_deref_mut() {
                counters.rows_scanned += live as u64;
            }
            for lane in 0..live {
                let distance = acc.lane_total(lane);
                if distance < best_distance {
                    runner_up = best_distance;
                    best = base + lane;
                    best_distance = distance;
                } else if distance < runner_up {
                    runner_up = distance;
                }
            }
        }
        debug_assert_ne!(
            best_distance,
            usize::MAX,
            "seed bound below the winner's distance"
        );
        Some(Min2 {
            best,
            best_distance,
            runner_up: (runner_up != usize::MAX).then_some(runner_up),
        })
    }

    /// The columnwise ranked scan: the `k` nearest rows as
    /// `(row, distance)` pairs in `(distance, row)` order, identical to
    /// [`PackedRows::top_k`] — a group is dropped once the list is full
    /// and the group-minimum bound strictly exceeds the k-th distance.
    /// The buffer is cleared first.
    ///
    /// [`PackedRows::top_k`]: super::PackedRows::top_k
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong word count.
    pub fn top_k_into(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        k: usize,
        mut counters: Option<&mut ScanCounters>,
        ranked: &mut Vec<(usize, usize)>,
    ) {
        assert_eq!(query.len(), self.words_per_row, "query word count mismatch");
        ranked.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        let mut acc = GroupAccumulator::new();
        for (g, group) in self.groups.iter().enumerate() {
            let base = g * GROUP_ROWS;
            let live = (self.rows - base).min(GROUP_ROWS);
            let lanes = lane_mask(live);
            acc.reset();
            let mut pruned = false;
            for (c, &word) in query.iter().enumerate() {
                backend.accumulate_column(group.column(c), word, !0u64, &mut acc);
                if ranked.len() == k {
                    let kth = ranked[k - 1].1;
                    if acc.min_lower_bound(lanes) > kth {
                        pruned = true;
                        break;
                    }
                }
            }
            if pruned {
                if let Some(counters) = counters.as_deref_mut() {
                    counters.rows_group_pruned += live as u64;
                }
                continue;
            }
            if let Some(counters) = counters.as_deref_mut() {
                counters.rows_scanned += live as u64;
            }
            for lane in 0..live {
                let row = base + lane;
                let distance = acc.lane_total(lane);
                if ranked.len() == k {
                    let (last_row, last_distance) = ranked[k - 1];
                    if (distance, row) >= (last_distance, last_row) {
                        continue;
                    }
                    ranked.pop();
                }
                let at = ranked.partition_point(|&(r, d)| (d, r) < (distance, row));
                ranked.insert(at, (row, distance));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::backend::enabled_backends;
    use super::super::scalar::Scalar;
    use super::super::ScanPlan;
    use super::*;
    use crate::bitvec::BitVec;

    fn pseudo_bits(len: usize, salt: usize) -> BitVec {
        BitVec::from_bits((0..len).map(|i| (i.wrapping_mul(2_654_435_761) ^ salt) % 7 < 3))
    }

    fn pseudo_words(len: usize, salt: u64) -> Vec<u64> {
        (0..len as u64)
            .map(|i| {
                let mut x = i.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            })
            .collect()
    }

    fn packed_from(rows: &[BitVec]) -> PackedRows {
        let mut out = PackedRows::with_capacity(rows[0].len(), rows.len());
        for row in rows {
            out.push(row.as_words());
        }
        out
    }

    fn naive_transpose(a: &[u64; 64]) -> [u64; 64] {
        let mut out = [0u64; 64];
        for (p, slot) in out.iter_mut().enumerate() {
            for (r, &word) in a.iter().enumerate() {
                *slot |= ((word >> p) & 1) << r;
            }
        }
        out
    }

    #[test]
    fn transpose64_matches_the_naive_bit_gather() {
        // The delta-swap orientation is easy to get wrong under the
        // LSB-first convention (the textbook form anti-transposes), so
        // pin it against the O(64²) reference on asymmetric patterns.
        for salt in 0..8u64 {
            let words = pseudo_words(64, salt);
            let mut a: [u64; 64] = words.try_into().unwrap();
            let expected = naive_transpose(&a);
            transpose64(&mut a);
            assert_eq!(a, expected, "salt {salt}");
            // Transposing twice is the identity.
            transpose64(&mut a);
            assert_eq!(a.to_vec(), pseudo_words(64, salt));
        }
        // A single asymmetric bit: in[3] bit 7 must land at out[7] bit 3.
        let mut single = [0u64; 64];
        single[3] = 1 << 7;
        transpose64(&mut single);
        assert_eq!(single[7], 1 << 3);
        assert_eq!(single.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn group_accumulator_counts_exactly_per_lane() {
        let mut acc = GroupAccumulator::new();
        let mut expected = [0usize; 64];
        // 40 blocks of 16 pseudo-random planes: lane counts cross the
        // 16, 32, 64, … spill thresholds many times.
        for block in 0..40u64 {
            let planes: [u64; 16] = pseudo_words(16, block).try_into().unwrap();
            for plane in &planes {
                for (lane, slot) in expected.iter_mut().enumerate() {
                    *slot += ((plane >> lane) & 1) as usize;
                }
            }
            acc.admit_block(&planes);
        }
        for (lane, &count) in expected.iter().enumerate() {
            assert_eq!(acc.lane_total(lane), count, "lane {lane}");
        }
        let min = *expected.iter().min().unwrap();
        let bound = acc.min_lower_bound(!0u64);
        assert!(bound <= min, "bound {bound} over true min {min}");
        assert!(min - bound < 16, "bound {bound} slack over {min}");
        // Restricting the lanes raises (never lowers) the bound.
        let high_lane = expected
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .unwrap()
            .0;
        assert!(acc.min_lower_bound(1 << high_lane) >= bound);
        acc.reset();
        assert_eq!(acc.lane_total(0), 0);
        assert_eq!(acc.min_lower_bound(!0u64), 0);
    }

    #[test]
    fn admit_sub_agrees_with_admit_block() {
        // Folding a block through `admit_block` must equal reducing it
        // externally and merging via `admit_sub` + `ripple_sixteens` —
        // the state-identity contract the SIMD kernels rely on.
        let planes: [u64; 16] = pseudo_words(16, 99).try_into().unwrap();
        let mut direct = GroupAccumulator::new();
        direct.admit_block(&planes);
        let mut fresh = GroupAccumulator::new();
        fresh.admit_block(&planes);
        let mut merged = GroupAccumulator::new();
        merged.admit_sub(fresh.ones, fresh.twos, fresh.fours, fresh.eights);
        for (level, &plane) in fresh.high.iter().enumerate() {
            assert_eq!(level, 0, "one block spills at most one level");
            merged.ripple_sixteens(plane);
        }
        for lane in 0..64 {
            assert_eq!(merged.lane_total(lane), direct.lane_total(lane));
        }
        assert_eq!(merged.high, direct.high);
        assert_eq!(
            (merged.ones, merged.twos, merged.fours, merged.eights),
            (direct.ones, direct.twos, direct.fours, direct.eights)
        );
    }

    /// The row-major direct scan every transposed scan must match.
    fn direct(packed: &PackedRows, query: &[u64], mask: Option<&[u64]>) -> Option<Min2> {
        packed.min2(&ScanPlan::direct(), query, mask, None)
    }

    #[test]
    fn sliced_scan_matches_packed_scan_across_shapes() {
        // Non-word-multiple dims and non-group-multiple row counts
        // included; compare every backend's column kernel against the
        // row-major direct scan.
        for (c, d) in [
            (1usize, 70usize),
            (63, 64),
            (64, 129),
            (65, 300),
            (130, 1_000),
            (200, 2_048),
        ] {
            let rows: Vec<BitVec> = (0..c).map(|i| pseudo_bits(d, i * 11 + 1)).collect();
            let packed = packed_from(&rows);
            let sliced = BitSlicedRows::from_packed(&packed);
            assert_eq!(sliced.len(), c);
            assert_eq!(sliced.dim(), d);
            let query = pseudo_bits(d, 999);
            let mask = pseudo_bits(d, 1_000);
            let expected = direct(&packed, query.as_words(), None);
            let expected_masked = direct(&packed, query.as_words(), Some(mask.as_words()));
            for backend in enabled_backends() {
                let name = backend.name();
                assert_eq!(
                    sliced.scan_min2(backend, query.as_words(), None, usize::MAX, None),
                    expected,
                    "{name} {c}x{d}"
                );
                assert_eq!(
                    sliced.scan_min2(
                        backend,
                        query.as_words(),
                        Some(mask.as_words()),
                        usize::MAX,
                        None
                    ),
                    expected_masked,
                    "masked {name} {c}x{d}"
                );
            }
        }
    }

    #[test]
    fn group_pruning_fires_and_stays_exact() {
        // One tight planted cluster + the query's near-duplicates laid
        // out contiguously: every group past the first should fall to
        // the columnwise bound, and the result must not move.
        let d = 2_048;
        let query = pseudo_bits(d, 5);
        let mut rows: Vec<BitVec> = Vec::new();
        for i in 0..64 {
            let mut near = query.clone();
            near.flip(i * 7 % d);
            near.flip((i * 13 + 1) % d);
            rows.push(near);
        }
        rows.extend((0..192).map(|i| pseudo_bits(d, i + 50)));
        let packed = packed_from(&rows);
        let sliced = BitSlicedRows::from_packed(&packed);
        let mut counters = ScanCounters::default();
        let got = sliced.scan_min2(
            &Scalar,
            query.as_words(),
            None,
            usize::MAX,
            Some(&mut counters),
        );
        assert_eq!(got, direct(&packed, query.as_words(), None));
        assert!(
            counters.rows_group_pruned >= 128,
            "far groups must fall to the group bound: {counters:?}"
        );
        assert_eq!(
            counters.rows_scanned + counters.rows_group_pruned,
            rows.len() as u64,
            "every row is either scanned or group-pruned"
        );
    }

    #[test]
    fn a_subset_seed_prunes_leading_groups_without_changing_the_answer() {
        // The query's two nearest rows sit in the last group, so an
        // unseeded scan reaches a tight runner-up only at the end. A
        // seed from a subset that holds them (the last group's
        // second-smallest distance) is ≥ the true runner-up, so the
        // leading groups fall to it and the answer does not move.
        let d = 1_024;
        let query = pseudo_bits(d, 3);
        let mut rows: Vec<BitVec> = (0..254).map(|i| pseudo_bits(d, i + 10)).collect();
        let mut second = query.clone();
        for bit in 0..50 {
            second.flip(bit * 19);
        }
        let mut near = query.clone();
        near.flip(5);
        rows.push(second);
        rows.push(near);
        let packed = packed_from(&rows);
        let sliced = BitSlicedRows::from_packed(&packed);
        let mut tail: Vec<usize> = rows[192..].iter().map(|row| row.hamming(&query)).collect();
        tail.sort_unstable();
        let seed = tail[1];
        let mut unseeded = ScanCounters::default();
        let mut seeded = ScanCounters::default();
        let plain = sliced.scan_min2(
            &Scalar,
            query.as_words(),
            None,
            usize::MAX,
            Some(&mut unseeded),
        );
        let got = sliced.scan_min2(&Scalar, query.as_words(), None, seed, Some(&mut seeded));
        assert_eq!(got, direct(&packed, query.as_words(), None));
        assert_eq!(got, plain);
        assert_eq!(got.unwrap().best, 255);
        assert_eq!(got.unwrap().runner_up, Some(seed));
        assert!(
            seeded.rows_group_pruned >= 192 && unseeded.rows_group_pruned < 192,
            "the seed must prune the leading groups: {seeded:?} vs {unseeded:?}"
        );
        assert_eq!(seeded.rows_scanned + seeded.rows_group_pruned, 256);
    }

    #[test]
    fn top_k_matches_the_row_major_ranking() {
        let d = 700;
        let rows: Vec<BitVec> = (0..130).map(|i| pseudo_bits(d, i + 3)).collect();
        let packed = packed_from(&rows);
        let sliced = BitSlicedRows::from_packed(&packed);
        let query = pseudo_bits(d, 42);
        let mut ranked = Vec::new();
        let mut expected = Vec::new();
        for k in [0usize, 1, 5, 64, 130, 200] {
            sliced.top_k_into(&Scalar, query.as_words(), k, None, &mut ranked);
            packed.top_k(
                &ScanPlan::direct(),
                query.as_words(),
                k,
                &mut expected,
                None,
            );
            assert_eq!(ranked, expected, "k={k}");
        }
    }

    #[test]
    fn push_update_and_retranspose_stay_coherent() {
        let d = 300;
        let mut packed = PackedRows::new(d);
        let mut sliced = BitSlicedRows::new(d);
        for i in 0..70 {
            let row = pseudo_bits(d, i + 1);
            packed.push(row.as_words());
            sliced.push_row(row.as_words());
        }
        assert_eq!(sliced.group_count(), 2);
        let query = pseudo_bits(d, 500);
        assert_eq!(
            sliced.scan_min2(&Scalar, query.as_words(), None, usize::MAX, None),
            direct(&packed, query.as_words(), None)
        );
        // In-place overwrite stays mirrored.
        let replacement = pseudo_bits(d, 900);
        packed.replace(65, replacement.as_words());
        sliced.update_row(65, replacement.as_words());
        assert_eq!(
            sliced.scan_min2(&Scalar, query.as_words(), None, usize::MAX, None),
            direct(&packed, query.as_words(), None)
        );
        // Incremental maintenance ≡ transposing from scratch, and a
        // group-granular retranspose reproduces the same group.
        let rebuilt = BitSlicedRows::from_packed(&packed);
        assert_eq!(sliced.groups[0], rebuilt.groups[0]);
        assert_eq!(sliced.groups[1], rebuilt.groups[1]);
        let clone = sliced.clone();
        assert!(Arc::ptr_eq(&clone.groups[0], &sliced.groups[0]));
        sliced.retranspose_group(1, &packed);
        assert_eq!(sliced.groups[1], rebuilt.groups[1]);
        // COW: the clone still shares group 0 but not the rebuilt 1.
        assert!(Arc::ptr_eq(&clone.groups[0], &sliced.groups[0]));
        assert!(!Arc::ptr_eq(&clone.groups[1], &sliced.groups[1]));
    }

    #[test]
    fn resident_bytes_reports_the_plane_footprint() {
        let d = 256;
        let rows: Vec<BitVec> = (0..65).map(|i| pseudo_bits(d, i + 1)).collect();
        let sliced = BitSlicedRows::from_packed(&packed_from(&rows));
        // 2 groups × 4 words/row × 64 planes × 8 bytes.
        assert_eq!(sliced.resident_bytes(), 2 * 4 * 64 * 8);
        assert!(!sliced.is_empty());
        assert_eq!(sliced.words_per_row(), 4);
    }
}
