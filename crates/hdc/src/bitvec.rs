//! Packed binary vector storage.
//!
//! [`BitVec`] stores a fixed-length sequence of bits packed into `u64` words.
//! It is the storage layer underneath [`Hypervector`](crate::Hypervector):
//! all bulk operations (XOR, AND, OR, NOT, popcount, rotation) work a word at
//! a time, which is what makes software simulation of 10,000-dimensional
//! hypervectors cheap.
//!
//! Bits beyond the logical length (the *tail* of the last word) are kept at
//! zero as an internal invariant so that popcount-based distances never see
//! garbage.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length, heap-allocated bit vector packed into `u64` words.
///
/// # Examples
///
/// ```
/// use hdc::BitVec;
///
/// let mut v = BitVec::zeros(130);
/// v.set(0, true);
/// v.set(129, true);
/// assert_eq!(v.count_ones(), 2);
/// assert!(v.get(129));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a vector of `len` zero bits.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = hdc::BitVec::zeros(64);
    /// assert_eq!(v.count_ones(), 0);
    /// ```
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a vector of `len` one bits.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = hdc::BitVec::ones(100);
    /// assert_eq!(v.count_ones(), 100);
    /// ```
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds a vector from an iterator of bits; the length is the number of
    /// items yielded.
    ///
    /// # Examples
    ///
    /// ```
    /// let v: hdc::BitVec = [true, false, true].iter().copied().collect();
    /// assert_eq!(v.len(), 3);
    /// assert_eq!(v.count_ones(), 2);
    /// ```
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0usize;
        let mut current = 0u64;
        for bit in bits {
            let offset = len % WORD_BITS;
            if bit {
                current |= 1 << offset;
            }
            len += 1;
            if len.is_multiple_of(WORD_BITS) {
                words.push(current);
                current = 0;
            }
        }
        if !len.is_multiple_of(WORD_BITS) {
            words.push(current);
        }
        BitVec { words, len }
    }

    /// Takes ownership of packed words (bit `i` in word `i / 64` at
    /// offset `i % 64`) as a vector of `len` bits. Bits past `len` in the
    /// last word are cleared, so a caller may hand over raw words read
    /// from disk or the wire.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = hdc::BitVec::from_words(vec![u64::MAX], 3);
    /// assert_eq!(v.count_ones(), 3);
    /// assert_eq!(v.as_words(), &[0b111]);
    /// ```
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count does not match {len} bits"
        );
        let mut v = BitVec { words, len };
        v.mask_tail();
        v
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Writes the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / WORD_BITS] ^= 1u64 << (index % WORD_BITS);
    }

    /// Counts the one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Counts the zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Number of positions at which `self` and `other` differ.
    ///
    /// This is the Hamming-distance kernel used throughout the crate; it
    /// runs on the carry-save word kernel of [`crate::kernel`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "hamming over unequal lengths");
        crate::kernel::hamming_words(&self.words, &other.words)
    }

    /// Hamming distance restricted to the positions set in `mask`.
    ///
    /// # Panics
    ///
    /// Panics if any length differs.
    pub fn hamming_masked(&self, other: &BitVec, mask: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "hamming over unequal lengths");
        assert_eq!(self.len, mask.len, "mask length mismatch");
        crate::kernel::hamming_words_masked(&self.words, &other.words, &mask.words)
    }

    /// In-place XOR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "xor over unequal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// In-place AND with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "and over unequal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place OR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "or over unequal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Cyclic right rotation by `by` positions (bit `i` moves to
    /// `(i + by) % len`), the permutation operation ρ of the paper.
    ///
    /// Rotation by a multiple of the length is the identity. Runs a word
    /// at a time: each output word is a 64-bit window of the input read as
    /// a circular bit string.
    pub fn rotate_right(&self, by: usize) -> BitVec {
        if self.len == 0 {
            return self.clone();
        }
        let by = by % self.len;
        if by == 0 {
            return self.clone();
        }
        if self.len < 128 {
            // Short vectors: windows can wrap more than once; the simple
            // bit loop is both correct and cheap here.
            let mut out = BitVec::zeros(self.len);
            for i in 0..self.len {
                if self.get(i) {
                    out.set((i + by) % self.len, true);
                }
            }
            return out;
        }
        let mut out = BitVec::zeros(self.len);
        for w in 0..out.words.len() {
            // Output bits [64w, 64w+64) come from input bits starting at
            // (64w − by) mod len on the circular string.
            let start = (64 * w + self.len - by) % self.len;
            out.words[w] = self.circular_window(start);
        }
        out.mask_tail();
        out
    }

    /// Reads up to `count ≤ 64` bits starting at linear position `pos`
    /// (`pos + count ≤ len`), LSB-first.
    fn read_bits(&self, pos: usize, count: usize) -> u64 {
        debug_assert!(count <= 64 && pos + count <= self.len);
        let w = pos / WORD_BITS;
        let off = pos % WORD_BITS;
        let mut val = self.words[w] >> off;
        if off != 0 && w + 1 < self.words.len() {
            val |= self.words[w + 1] << (WORD_BITS - off);
        }
        if count < 64 {
            val &= (1u64 << count) - 1;
        }
        val
    }

    /// Reads a 64-bit window of the vector viewed as a circular bit string
    /// starting at `start`. Requires `len ≥ 128` so a window wraps at most
    /// once.
    fn circular_window(&self, start: usize) -> u64 {
        debug_assert!(self.len >= 128 && start < self.len);
        if start + 64 <= self.len {
            self.read_bits(start, 64)
        } else {
            let head = self.len - start;
            self.read_bits(start, head) | (self.read_bits(0, 64 - head) << head)
        }
    }

    /// Cyclic left rotation by `by` positions, the inverse of
    /// [`rotate_right`](Self::rotate_right).
    pub fn rotate_left(&self, by: usize) -> BitVec {
        if self.len == 0 {
            return self.clone();
        }
        let by = by % self.len;
        self.rotate_right(self.len - by)
    }

    /// Iterates over the bits from index 0 upward.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = hdc::BitVec::from_bits([true, false, true]);
    /// let bits: Vec<bool> = v.iter().collect();
    /// assert_eq!(bits, [true, false, true]);
    /// ```
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            vec: self,
            index: 0,
        }
    }

    /// Iterates over the indices of the one bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Read-only view of the packed words. The tail beyond `len` is zero.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Clears tail bits beyond `len` in the last word (internal invariant).
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(len={}, ones={})", self.len, self.count_ones())
    }
}

impl fmt::Binary for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bits(iter)
    }
}

/// Iterator over the bits of a [`BitVec`], returned by [`BitVec::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    vec: &'a BitVec,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.index < self.vec.len {
            let bit = self.vec.get(self.index);
            self.index += 1;
            Some(bit)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.vec.len - self.index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_counts() {
        for len in [0, 1, 63, 64, 65, 127, 128, 1000] {
            assert_eq!(BitVec::zeros(len).count_ones(), 0);
            assert_eq!(BitVec::ones(len).count_ones(), len);
            assert_eq!(BitVec::ones(len).count_zeros(), 0);
        }
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut v = BitVec::zeros(130);
        v.set(129, true);
        assert!(v.get(129));
        v.flip(129);
        assert!(!v.get(129));
        v.flip(0);
        assert!(v.get(0));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn hamming_mismatched_lengths_panics() {
        BitVec::zeros(10).hamming(&BitVec::zeros(11));
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn from_words_with_wrong_word_count_panics() {
        BitVec::from_words(vec![0; 2], 64);
    }

    #[test]
    fn hamming_basics() {
        let a = BitVec::from_bits([true, false, true, false]);
        let b = BitVec::from_bits([false, false, true, true]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(BitVec::zeros(100).hamming(&BitVec::ones(100)), 100);
    }

    #[test]
    fn hamming_masked_only_counts_masked_positions() {
        let a = BitVec::from_bits([true, false, true, false]);
        let b = BitVec::from_bits([false, false, false, true]);
        let mask = BitVec::from_bits([true, true, false, false]);
        assert_eq!(a.hamming_masked(&b, &mask), 1);
        assert_eq!(a.hamming_masked(&b, &BitVec::ones(4)), a.hamming(&b));
        assert_eq!(a.hamming_masked(&b, &BitVec::zeros(4)), 0);
    }

    #[test]
    fn not_preserves_tail_invariant() {
        let mut v = BitVec::zeros(70);
        v.not_assign();
        assert_eq!(v.count_ones(), 70);
        // The packed representation must not leak tail bits.
        assert_eq!(v.as_words()[1].count_ones(), 6);
    }

    #[test]
    fn xor_and_or_against_reference() {
        let a = BitVec::from_bits((0..200).map(|i| i % 3 == 0));
        let b = BitVec::from_bits((0..200).map(|i| i % 5 == 0));
        let mut x = a.clone();
        x.xor_assign(&b);
        let mut n = a.clone();
        n.and_assign(&b);
        let mut o = a.clone();
        o.or_assign(&b);
        for i in 0..200 {
            assert_eq!(x.get(i), a.get(i) ^ b.get(i));
            assert_eq!(n.get(i), a.get(i) & b.get(i));
            assert_eq!(o.get(i), a.get(i) | b.get(i));
        }
    }

    #[test]
    fn rotate_right_moves_bits_forward() {
        let mut v = BitVec::zeros(10);
        v.set(9, true);
        let r = v.rotate_right(1);
        assert!(r.get(0), "bit 9 wraps to bit 0");
        assert_eq!(r.count_ones(), 1);
    }

    #[test]
    fn rotate_inverse_pair() {
        let v = BitVec::from_bits((0..97).map(|i| i % 7 == 0));
        for by in [0, 1, 13, 96, 97, 200] {
            assert_eq!(v.rotate_right(by).rotate_left(by), v);
        }
    }

    #[test]
    fn rotate_full_length_is_identity() {
        let v = BitVec::from_bits((0..64).map(|i| i % 2 == 0));
        assert_eq!(v.rotate_right(64), v);
        assert_eq!(v.rotate_right(0), v);
    }

    #[test]
    fn rotate_empty_is_noop() {
        let v = BitVec::zeros(0);
        assert_eq!(v.rotate_right(5), v);
    }

    #[test]
    fn iter_round_trips() {
        let bits: Vec<bool> = (0..77).map(|i| i % 2 == 1).collect();
        let v = BitVec::from_bits(bits.iter().copied());
        assert_eq!(v.iter().collect::<Vec<_>>(), bits);
        assert_eq!(v.iter().len(), 77);
    }

    #[test]
    fn iter_ones_matches_get() {
        let v = BitVec::from_bits((0..40).map(|i| i % 9 == 0));
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![0, 9, 18, 27, 36]);
    }

    #[test]
    fn binary_format_is_len_chars() {
        let v = BitVec::from_bits([true, false, true]);
        assert_eq!(format!("{v:b}"), "101");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", BitVec::zeros(3)).is_empty());
    }
}

#[cfg(test)]
mod rotation_equivalence_tests {
    use super::*;

    /// The reference bit-by-bit rotation the fast path must match.
    fn naive_rotate(v: &BitVec, by: usize) -> BitVec {
        if v.is_empty() {
            return v.clone();
        }
        let mut out = BitVec::zeros(v.len());
        for i in 0..v.len() {
            if v.get(i) {
                out.set((i + by) % v.len(), true);
            }
        }
        out
    }

    #[test]
    fn word_level_rotation_matches_reference() {
        for len in [128usize, 129, 191, 192, 255, 256, 1_000, 10_000] {
            let v = BitVec::from_bits((0..len).map(|i| (i * 2_654_435_761) % 7 < 3));
            for by in [0usize, 1, 63, 64, 65, len / 2, len - 1, len, len + 7] {
                assert_eq!(
                    v.rotate_right(by),
                    naive_rotate(&v, by % len),
                    "len {len}, by {by}"
                );
            }
        }
    }

    #[test]
    fn short_vector_path_matches_reference() {
        for len in [1usize, 2, 63, 64, 65, 127] {
            let v = BitVec::from_bits((0..len).map(|i| i % 3 == 0));
            for by in 0..len {
                assert_eq!(
                    v.rotate_right(by),
                    naive_rotate(&v, by),
                    "len {len}, by {by}"
                );
            }
        }
    }

    fn pattern(len: usize, salt: usize) -> BitVec {
        BitVec::from_bits((0..len).map(|i| (i.wrapping_mul(2_654_435_761) ^ salt) % 5 < 2))
    }

    #[test]
    fn from_words_clears_bits_past_len() {
        for len in [1usize, 63, 64, 65, 128, 130] {
            let words = vec![u64::MAX; len.div_ceil(64)];
            let v = BitVec::from_words(words, len);
            assert_eq!(v.count_ones(), len, "len {len}");
            assert_eq!(v, BitVec::ones(len), "len {len}");
        }
        let v = BitVec::from_words(vec![u64::MAX, u64::MAX, u64::MAX], 130);
        assert_eq!(v.as_words()[2], 0b11);
    }

    #[test]
    #[should_panic(expected = "word count does not match 130 bits")]
    fn from_words_rejects_a_wrong_word_count() {
        BitVec::from_words(vec![0; 2], 130);
    }

    #[test]
    fn rotations_compose_additively() {
        for len in [1usize, 63, 64, 65, 127, 128, 129, 640, 1_001] {
            let v = pattern(len, 3);
            for (x, y) in [
                (0usize, 5usize),
                (1, 1),
                (17, 64),
                (len - 1, 2),
                (3 * len, 1),
            ] {
                assert_eq!(
                    v.rotate_right(x).rotate_right(y),
                    v.rotate_right(x + y),
                    "len {len}, {x}+{y}"
                );
                assert_eq!(v.rotate_right(x).rotate_left(x), v, "len {len}, {x}");
            }
        }
    }

    #[test]
    fn rotation_preserves_distance_and_distributes_over_xor() {
        // The permutation ρ keeps every distance and commutes with
        // binding (XOR): ρ(a ⊕ b) = ρ(a) ⊕ ρ(b).
        for len in [70usize, 128, 129, 1_000] {
            let a = pattern(len, 1);
            let b = pattern(len, 0x55);
            for by in [1usize, 64, len / 3] {
                let (ra, rb) = (a.rotate_right(by), b.rotate_right(by));
                assert_eq!(ra.hamming(&rb), a.hamming(&b), "len {len} by {by}");
                assert_eq!(ra.count_ones(), a.count_ones());
                let mut bound = a.clone();
                bound.xor_assign(&b);
                let mut rotated_bound = ra.clone();
                rotated_bound.xor_assign(&rb);
                assert_eq!(bound.rotate_right(by), rotated_bound, "len {len} by {by}");
            }
        }
    }
}
