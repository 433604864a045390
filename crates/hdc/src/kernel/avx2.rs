//! AVX2 backend: VPSHUFB nibble-LUT popcount folded into the carry-save
//! reduction.
//!
//! AVX2 has no vector popcount instruction, so each byte is counted with
//! two 16-entry `VPSHUFB` table lookups (low nibble, high nibble) and a
//! `VPSADBW` horizontal byte sum. That sequence is the expensive part, so
//! — exactly like the scalar kernel trades popcounts for carry-save
//! adders — the lookup is *folded into a Harley–Seal reduction over
//! `__m256i` lanes*: 16 XOR vectors (64 words) pass through a tree of
//! bitwise carry-save adders and only the single spilled weight-16 vector
//! pays the LUT popcount, a 16× reduction in shuffle traffic.
//!
//! Safety: every intrinsic used is `avx2`; the dispatcher
//! ([`super::backend`]) only hands out this backend when
//! `is_x86_feature_detected!("avx2")` holds, and [`available`] re-checks.
#![allow(unsafe_code)]
#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::backend::DistanceBackend;

/// Whether the host can run this backend.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Vector carry-save adder: per bit lane, `carry·2 + sum = a + b + c`.
#[inline(always)]
unsafe fn csa(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
    let partial = _mm256_xor_si256(a, b);
    (
        _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(partial, c)),
        _mm256_xor_si256(partial, c),
    )
}

/// Per-64-bit-lane popcount of `v` via the VPSHUFB nibble LUT + VPSADBW.
#[inline(always)]
unsafe fn popcount_epu64(v: __m256i) -> __m256i {
    #[rustfmt::skip]
    let lookup = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    let counted = _mm256_add_epi8(
        _mm256_shuffle_epi8(lookup, lo),
        _mm256_shuffle_epi8(lookup, hi),
    );
    _mm256_sad_epu8(counted, _mm256_setzero_si256())
}

/// Horizontal sum of the four `u64` lanes.
#[inline(always)]
unsafe fn hsum_epu64(v: __m256i) -> usize {
    let folded = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    (_mm_cvtsi128_si64(folded) as u64).wrapping_add(_mm_extract_epi64(folded, 1) as u64) as usize
}

/// Popcount of all 256 bits of `v`, as a scalar.
#[inline(always)]
unsafe fn popcount_all(v: __m256i) -> usize {
    hsum_epu64(popcount_epu64(v))
}

/// Generates the bounded-distance body for the plain and masked loads.
/// `$fetch(base_word_index)` must yield the next XOR (and mask) vector.
macro_rules! harley_seal_body {
    ($n:expr, $bound:expr, $fetch:expr) => {{
        let fetch = $fetch;
        let n: usize = $n;
        let bound: usize = $bound;
        let zero = _mm256_setzero_si256();
        let (mut ones, mut twos, mut fours, mut eights) = (zero, zero, zero, zero);
        // Spilled weight-16 popcounts, one `u64` partial sum per lane.
        let mut spilled = zero;
        let mut i = 0usize;
        while i + 64 <= n {
            let (two_a, o) = csa(ones, fetch(i), fetch(i + 4));
            let (two_b, o) = csa(o, fetch(i + 8), fetch(i + 12));
            let (four_a, t) = csa(twos, two_a, two_b);
            let (two_a, o) = csa(o, fetch(i + 16), fetch(i + 20));
            let (two_b, o) = csa(o, fetch(i + 24), fetch(i + 28));
            let (four_b, t) = csa(t, two_a, two_b);
            let (eight_a, f) = csa(fours, four_a, four_b);
            let (two_a, o) = csa(o, fetch(i + 32), fetch(i + 36));
            let (two_b, o) = csa(o, fetch(i + 40), fetch(i + 44));
            let (four_a, t) = csa(t, two_a, two_b);
            let (two_a, o) = csa(o, fetch(i + 48), fetch(i + 52));
            let (two_b, o) = csa(o, fetch(i + 56), fetch(i + 60));
            let (four_b, t) = csa(t, two_a, two_b);
            let (eight_b, f) = csa(f, four_a, four_b);
            let (sixteen, e) = csa(eights, eight_a, eight_b);
            ones = o;
            twos = t;
            fours = f;
            eights = e;
            spilled = _mm256_add_epi64(spilled, popcount_epu64(sixteen));
            i += 64;
            // The spilled counts weigh 16 mismatches each and the residual
            // registers are uncounted, so this never exceeds the exact
            // partial distance — a sound abandonment bound.
            if 16 * hsum_epu64(spilled) > bound {
                return None;
            }
        }
        // Whole-vector remainder: plain LUT popcount at weight 1.
        let mut units = zero;
        while i + 4 <= n {
            units = _mm256_add_epi64(units, popcount_epu64(fetch(i)));
            i += 4;
        }
        let total = 16 * hsum_epu64(spilled)
            + 8 * popcount_all(eights)
            + 4 * popcount_all(fours)
            + 2 * popcount_all(twos)
            + popcount_all(ones)
            + hsum_epu64(units);
        (total, i)
    }};
}

/// Exact distance or abandonment strictly above `bound`; see the
/// [`DistanceBackend`] contract.
#[target_feature(enable = "avx2")]
unsafe fn bounded_distance_avx2(a: &[u64], b: &[u64], bound: usize) -> Option<usize> {
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let (mut total, mut i) = harley_seal_body!(a.len(), bound, |w: usize| {
        _mm256_xor_si256(
            _mm256_loadu_si256(ap.add(w).cast()),
            _mm256_loadu_si256(bp.add(w).cast()),
        )
    });
    while i < a.len() {
        total += (*ap.add(i) ^ *bp.add(i)).count_ones() as usize;
        i += 1;
    }
    Some(total)
}

/// Masked variant: counts `(a ^ b) & mask` through the same reduction.
#[target_feature(enable = "avx2")]
unsafe fn bounded_distance_masked_avx2(
    a: &[u64],
    b: &[u64],
    mask: &[u64],
    bound: usize,
) -> Option<usize> {
    let (ap, bp, mp) = (a.as_ptr(), b.as_ptr(), mask.as_ptr());
    let (mut total, mut i) = harley_seal_body!(a.len(), bound, |w: usize| {
        _mm256_and_si256(
            _mm256_xor_si256(
                _mm256_loadu_si256(ap.add(w).cast()),
                _mm256_loadu_si256(bp.add(w).cast()),
            ),
            _mm256_loadu_si256(mp.add(w).cast()),
        )
    });
    while i < a.len() {
        total += ((*ap.add(i) ^ *bp.add(i)) & *mp.add(i)).count_ones() as usize;
        i += 1;
    }
    Some(total)
}

/// The AVX2 nibble-LUT carry-save backend.
#[derive(Debug)]
pub struct Avx2;

impl DistanceBackend for Avx2 {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn bounded_distance(&self, a: &[u64], b: &[u64], bound: usize) -> Option<usize> {
        debug_assert!(available(), "avx2 backend dispatched on a non-avx2 host");
        // SAFETY: slices are equal-length (caller contract) and the
        // dispatcher only selects this backend when AVX2 is detected.
        unsafe { bounded_distance_avx2(a, b, bound) }
    }

    fn bounded_distance_masked(
        &self,
        a: &[u64],
        b: &[u64],
        mask: &[u64],
        bound: usize,
    ) -> Option<usize> {
        debug_assert!(available(), "avx2 backend dispatched on a non-avx2 host");
        // SAFETY: as above.
        unsafe { bounded_distance_masked_avx2(a, b, mask, bound) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense pseudo-random words (splitmix64 stream): the XOR of two
    /// streams averages ~32 mismatches per word, so abandonment bounds
    /// rise the way they do on real hypervectors.
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

    fn naive(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x ^ y).count_ones() as usize)
            .sum()
    }

    #[test]
    fn matches_naive_across_word_counts() {
        if !available() {
            return;
        }
        // Cover: empty, sub-vector tails, sub-block tails, exact blocks.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 63, 64, 65, 67, 128, 157, 200] {
            let a = pseudo_words(len, 1);
            let b = pseudo_words(len, 2);
            assert_eq!(
                Avx2.bounded_distance(&a, &b, usize::MAX),
                Some(naive(&a, &b)),
                "len {len}"
            );
        }
    }

    #[test]
    fn masked_matches_naive_across_word_counts() {
        if !available() {
            return;
        }
        for len in [0usize, 1, 4, 5, 63, 64, 65, 127, 130, 157] {
            let a = pseudo_words(len, 3);
            let b = pseudo_words(len, 4);
            let m = pseudo_words(len, 5);
            let expected: usize = a
                .iter()
                .zip(&b)
                .zip(&m)
                .map(|((x, y), w)| ((x ^ y) & w).count_ones() as usize)
                .sum();
            assert_eq!(
                Avx2.bounded_distance_masked(&a, &b, &m, usize::MAX),
                Some(expected),
                "len {len}"
            );
        }
    }

    #[test]
    fn tight_bounds_never_corrupt_a_returned_distance() {
        if !available() {
            return;
        }
        let a = pseudo_words(300, 8);
        let b = pseudo_words(300, 9);
        let exact = naive(&a, &b);
        // At the exact bound the distance must come back un-abandoned.
        assert_eq!(Avx2.bounded_distance(&a, &b, exact), Some(exact));
        // Below it, None (abandoned) and Some(exact) are both allowed.
        for bound in [0usize, exact / 2, exact.saturating_sub(1)] {
            if let Some(d) = Avx2.bounded_distance(&a, &b, bound) {
                assert_eq!(d, exact);
            }
        }
        assert_eq!(Avx2.bounded_distance(&a, &b, 0), None);
    }
}
