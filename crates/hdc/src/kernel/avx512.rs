//! AVX-512 backend: native 64-bit-lane vector popcount (`VPOPCNTDQ`).
//!
//! With `VPOPCNTQ` the whole carry-save apparatus disappears: each 512-bit
//! XOR word pays exactly one instruction to count all eight lanes, so the
//! kernel is a plain load–XOR–popcount–accumulate stream. Four independent
//! accumulators keep the add chains out of each other's way; the
//! abandonment bound is checked once per 128 words (the running lane sums
//! are themselves the exact partial distance, hence a sound lower bound).
//!
//! Safety: requires `avx512f` + `avx512vpopcntdq`; the dispatcher only
//! hands this backend out when `is_x86_feature_detected!` confirms both,
//! and [`available`] re-checks.
#![allow(unsafe_code)]
#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::backend::DistanceBackend;

/// Whether the host can run this backend.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
}

/// Words between abandonment-bound checks.
const CHECK_WORDS: usize = 128;

/// Generates the popcount-accumulate body for the plain and masked
/// loads. `$fetch(word_index)` must yield the next XOR (and mask) vector.
macro_rules! popcnt_body {
    ($n:expr, $bound:expr, $fetch:expr) => {{
        let fetch = $fetch;
        let n: usize = $n;
        let bound: usize = $bound;
        let zero = _mm512_setzero_si512();
        let (mut acc0, mut acc1, mut acc2, mut acc3) = (zero, zero, zero, zero);
        let mut i = 0usize;
        let mut next_check = CHECK_WORDS;
        while i + 32 <= n {
            acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(fetch(i)));
            acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(fetch(i + 8)));
            acc2 = _mm512_add_epi64(acc2, _mm512_popcnt_epi64(fetch(i + 16)));
            acc3 = _mm512_add_epi64(acc3, _mm512_popcnt_epi64(fetch(i + 24)));
            i += 32;
            if i >= next_check {
                // The lane sums are the exact distance of the words seen
                // so far — a sound lower bound on the full distance.
                let partial = _mm512_reduce_add_epi64(_mm512_add_epi64(
                    _mm512_add_epi64(acc0, acc1),
                    _mm512_add_epi64(acc2, acc3),
                )) as usize;
                if partial > bound {
                    return None;
                }
                next_check = i + CHECK_WORDS;
            }
        }
        while i + 8 <= n {
            acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(fetch(i)));
            i += 8;
        }
        let total = _mm512_reduce_add_epi64(_mm512_add_epi64(
            _mm512_add_epi64(acc0, acc1),
            _mm512_add_epi64(acc2, acc3),
        )) as usize;
        (total, i)
    }};
}

/// Exact distance or abandonment strictly above `bound`; see the
/// [`DistanceBackend`] contract.
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn bounded_distance_avx512(a: &[u64], b: &[u64], bound: usize) -> Option<usize> {
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let (mut total, mut i) = popcnt_body!(a.len(), bound, |w: usize| {
        _mm512_xor_si512(
            _mm512_loadu_si512(ap.add(w).cast()),
            _mm512_loadu_si512(bp.add(w).cast()),
        )
    });
    while i < a.len() {
        total += (*ap.add(i) ^ *bp.add(i)).count_ones() as usize;
        i += 1;
    }
    Some(total)
}

/// Masked variant: counts `(a ^ b) & mask` (LLVM fuses the XOR+AND pair
/// into one `VPTERNLOGQ`).
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn bounded_distance_masked_avx512(
    a: &[u64],
    b: &[u64],
    mask: &[u64],
    bound: usize,
) -> Option<usize> {
    let (ap, bp, mp) = (a.as_ptr(), b.as_ptr(), mask.as_ptr());
    let (mut total, mut i) = popcnt_body!(a.len(), bound, |w: usize| {
        _mm512_and_si512(
            _mm512_xor_si512(
                _mm512_loadu_si512(ap.add(w).cast()),
                _mm512_loadu_si512(bp.add(w).cast()),
            ),
            _mm512_loadu_si512(mp.add(w).cast()),
        )
    });
    while i < a.len() {
        total += ((*ap.add(i) ^ *bp.add(i)) & *mp.add(i)).count_ones() as usize;
        i += 1;
    }
    Some(total)
}

/// The AVX-512 `VPOPCNTDQ` backend — the widest datapath on x86-64.
#[derive(Debug)]
pub struct Avx512;

impl DistanceBackend for Avx512 {
    fn name(&self) -> &'static str {
        "avx512"
    }

    fn bounded_distance(&self, a: &[u64], b: &[u64], bound: usize) -> Option<usize> {
        debug_assert!(available(), "avx512 backend dispatched without VPOPCNTDQ");
        // SAFETY: slices are equal-length (caller contract) and the
        // dispatcher only selects this backend when the features are
        // detected.
        unsafe { bounded_distance_avx512(a, b, bound) }
    }

    fn bounded_distance_masked(
        &self,
        a: &[u64],
        b: &[u64],
        mask: &[u64],
        bound: usize,
    ) -> Option<usize> {
        debug_assert!(available(), "avx512 backend dispatched without VPOPCNTDQ");
        // SAFETY: as above.
        unsafe { bounded_distance_masked_avx512(a, b, mask, bound) }
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
        // Cover: empty, sub-vector tails, sub-unroll tails, check points.
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 127, 128, 129, 157, 300] {
            let a = pseudo_words(len, 1);
            let b = pseudo_words(len, 2);
            assert_eq!(
                Avx512.bounded_distance(&a, &b, usize::MAX),
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
        for len in [0usize, 1, 8, 9, 31, 33, 128, 130, 157] {
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
                Avx512.bounded_distance_masked(&a, &b, &m, usize::MAX),
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
        let a = pseudo_words(400, 8);
        let b = pseudo_words(400, 9);
        let exact = naive(&a, &b);
        assert_eq!(Avx512.bounded_distance(&a, &b, exact), Some(exact));
        for bound in [0usize, exact / 2, exact.saturating_sub(1)] {
            if let Some(d) = Avx512.bounded_distance(&a, &b, bound) {
                assert_eq!(d, exact);
            }
        }
        // 400 words cross several check points; a zero bound must abandon.
        assert_eq!(Avx512.bounded_distance(&a, &b, 0), None);
    }
}
