//! Hypervectors: dense binary points of a high-dimensional space.
//!
//! A [`Hypervector`] is a [`BitVec`] tagged with a validated [`Dimension`].
//! Random hypervectors drawn with [`Hypervector::random`] have i.i.d.
//! components with equal probability of 0 and 1, which makes any two of them
//! *nearly orthogonal*: their expected Hamming distance is `D/2` with a
//! standard deviation of `√D/2` — the statistical backbone of HD computing.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitvec::BitVec;
use crate::error::HdcError;

/// A validated, nonzero hypervector dimensionality.
///
/// The paper works mostly at `D = 10,000`; the hardware design-space sweeps
/// go down to `D = 64`. `Dimension` is `Copy` and cheap to pass around.
///
/// # Examples
///
/// ```
/// use hdc::Dimension;
///
/// let d = Dimension::new(10_000)?;
/// assert_eq!(d.get(), 10_000);
/// assert!(Dimension::new(0).is_err());
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dimension(usize);

impl Dimension {
    /// The paper's default dimensionality, `D = 10,000`.
    pub const D10K: Dimension = Dimension(10_000);

    /// Creates a dimension.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] when `d == 0`.
    pub fn new(d: usize) -> Result<Self, HdcError> {
        if d == 0 {
            Err(HdcError::ZeroDimension)
        } else {
            Ok(Dimension(d))
        }
    }

    /// The dimensionality as a plain `usize`.
    pub fn get(self) -> usize {
        self.0
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<usize> for Dimension {
    type Error = HdcError;

    fn try_from(d: usize) -> Result<Self, HdcError> {
        Dimension::new(d)
    }
}

impl From<Dimension> for usize {
    fn from(d: Dimension) -> usize {
        d.get()
    }
}

/// A Hamming distance between two hypervectors, in bits.
///
/// Newtype over `usize` so that distances cannot be silently confused with
/// dimensions or indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Distance(usize);

impl Distance {
    /// A distance of zero bits (an exact match).
    pub const ZERO: Distance = Distance(0);

    /// Wraps a raw bit count as a distance.
    pub fn new(bits: usize) -> Self {
        Distance(bits)
    }

    /// The distance in bits.
    pub fn as_usize(self) -> usize {
        self.0
    }

    /// The distance normalized by the dimensionality, in `[0, 1]`.
    ///
    /// Random unrelated hypervectors sit near `0.5`.
    pub fn normalized(self, dim: Dimension) -> f64 {
        self.0 as f64 / dim.get() as f64
    }

    /// Saturating addition of two distances.
    pub fn saturating_add(self, other: Distance) -> Distance {
        Distance(self.0.saturating_add(other.0))
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

impl From<usize> for Distance {
    fn from(bits: usize) -> Self {
        Distance(bits)
    }
}

/// A binary hypervector: a point of `{0, 1}^D`.
///
/// # Examples
///
/// ```
/// use hdc::{Dimension, Hypervector};
///
/// let d = Dimension::new(10_000)?;
/// let a = Hypervector::random(d, 1);
/// let b = Hypervector::random(d, 2);
/// // Unrelated random hypervectors are nearly orthogonal: distance ≈ D/2.
/// let dist = a.hamming(&b).as_usize();
/// assert!((4_700..5_300).contains(&dist));
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Hypervector {
    bits: BitVec,
    dim: Dimension,
}

/// Lets a row materialized by [`AssociativeMemory::iter`](crate::AssociativeMemory::iter)
/// compare against a borrowed one.
impl PartialEq<&Hypervector> for Hypervector {
    fn eq(&self, other: &&Hypervector) -> bool {
        self == *other
    }
}

impl Hypervector {
    /// The all-zeros hypervector.
    pub fn zeros(dim: Dimension) -> Self {
        Hypervector {
            bits: BitVec::zeros(dim.get()),
            dim,
        }
    }

    /// The all-ones hypervector.
    pub fn ones(dim: Dimension) -> Self {
        Hypervector {
            bits: BitVec::ones(dim.get()),
            dim,
        }
    }

    /// Draws a (pseudo)random hypervector with i.i.d. components from the
    /// given `seed`. The same `(dim, seed)` pair always produces the same
    /// hypervector, which is what makes item memories reproducible.
    pub fn random(dim: Dimension, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Hypervector::random_from_rng(dim, &mut rng)
    }

    /// Draws a random hypervector from a caller-supplied RNG.
    pub fn random_from_rng<R: Rng + ?Sized>(dim: Dimension, rng: &mut R) -> Self {
        let d = dim.get();
        let mut bits = BitVec::zeros(d);
        // Fill whole words at a time; the BitVec tail invariant is restored
        // by rebuilding from bits of full randomness.
        let words = d.div_ceil(64);
        let mut raw = Vec::with_capacity(words);
        for _ in 0..words {
            raw.push(rng.gen::<u64>());
        }
        for i in 0..d {
            if (raw[i / 64] >> (i % 64)) & 1 == 1 {
                bits.set(i, true);
            }
        }
        Hypervector { bits, dim }
    }

    /// Draws a *balanced* random hypervector with exactly `⌊D/2⌋` ones, the
    /// "equal number of randomly placed 0s and 1s" seed construction used by
    /// the paper's item memory.
    pub fn random_balanced<R: Rng + ?Sized>(dim: Dimension, rng: &mut R) -> Self {
        let d = dim.get();
        let mut indices: Vec<usize> = (0..d).collect();
        // Fisher–Yates shuffle, then take the first half as the one-positions.
        for i in (1..d).rev() {
            let j = rng.gen_range(0..=i);
            indices.swap(i, j);
        }
        let mut bits = BitVec::zeros(d);
        for &i in indices.iter().take(d / 2) {
            bits.set(i, true);
        }
        Hypervector { bits, dim }
    }

    /// Builds a hypervector from an explicit bit vector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] for an empty vector.
    pub fn from_bitvec(bits: BitVec) -> Result<Self, HdcError> {
        let dim = Dimension::new(bits.len())?;
        Ok(Hypervector { bits, dim })
    }

    /// Copies packed words (as a [`PackedRows`](crate::PackedRows) row
    /// stores them) into a hypervector of `dim` components; bits past
    /// `dim` in the last word are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != ⌈dim / 64⌉`.
    pub fn from_words(dim: Dimension, words: &[u64]) -> Self {
        Hypervector {
            bits: BitVec::from_words(words.to_vec(), dim.get()),
            dim,
        }
    }

    /// The dimensionality of this hypervector.
    pub fn dim(&self) -> Dimension {
        self.dim
    }

    /// Borrow of the underlying packed bits.
    pub fn as_bitvec(&self) -> &BitVec {
        &self.bits
    }

    /// Consumes the hypervector and returns its packed bits.
    pub fn into_bitvec(self) -> BitVec {
        self.bits
    }

    /// Reads component `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim().get()`.
    pub fn get(&self, index: usize) -> bool {
        self.bits.get(index)
    }

    /// Number of one components.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Hamming distance δ to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ; use hypervectors from the same
    /// space.
    pub fn hamming(&self, other: &Hypervector) -> Distance {
        assert_eq!(self.dim, other.dim, "hypervector dimension mismatch");
        Distance(self.bits.hamming(&other.bits))
    }

    /// Normalized similarity `1 − δ/D` in `[0, 1]`; `1` means identical,
    /// `≈ 0.5` means unrelated.
    pub fn similarity(&self, other: &Hypervector) -> f64 {
        1.0 - self.hamming(other).normalized(self.dim)
    }

    /// Binding (component-wise XOR), `A ⊕ B`. See [`crate::ops::bind`].
    pub fn bind(&self, other: &Hypervector) -> Hypervector {
        crate::ops::bind(self, other)
    }

    /// Permutation ρ (cyclic rotation by one). See [`crate::ops::permute`].
    pub fn permute(&self) -> Hypervector {
        crate::ops::permute(self, 1)
    }

    /// Flips `count` distinct randomly chosen components — the fault
    /// injection primitive used by robustness experiments.
    ///
    /// # Panics
    ///
    /// Panics if `count > D`.
    pub fn with_flipped_bits<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Hypervector {
        let d = self.dim.get();
        assert!(count <= d, "cannot flip {count} of {d} bits");
        let mut indices: Vec<usize> = (0..d).collect();
        for i in 0..count {
            let j = rng.gen_range(i..d);
            indices.swap(i, j);
        }
        let mut out = self.clone();
        for &i in indices.iter().take(count) {
            out.bits.flip(i);
        }
        out
    }
}

impl fmt::Debug for Hypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Hypervector(dim={}, ones={})",
            self.dim.get(),
            self.bits.count_ones()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim(d: usize) -> Dimension {
        Dimension::new(d).unwrap()
    }

    #[test]
    fn dimension_rejects_zero() {
        assert_eq!(Dimension::new(0), Err(HdcError::ZeroDimension));
        assert_eq!(Dimension::try_from(0_usize), Err(HdcError::ZeroDimension));
    }

    #[test]
    fn dimension_round_trips() {
        let d = dim(10_000);
        assert_eq!(usize::from(d), 10_000);
        assert_eq!(d, Dimension::D10K);
        assert_eq!(d.to_string(), "10000");
    }

    #[test]
    fn distance_normalization() {
        let d = Distance::new(5_000);
        assert!((d.normalized(dim(10_000)) - 0.5).abs() < 1e-12);
        assert_eq!(d.to_string(), "5000 bits");
    }

    #[test]
    fn distance_saturating_add() {
        let a = Distance::new(usize::MAX);
        assert_eq!(a.saturating_add(Distance::new(1)), a);
        assert_eq!(
            Distance::new(2).saturating_add(Distance::new(3)),
            Distance::new(5)
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let d = dim(1_000);
        assert_eq!(Hypervector::random(d, 7), Hypervector::random(d, 7));
        assert_ne!(Hypervector::random(d, 7), Hypervector::random(d, 8));
    }

    #[test]
    fn random_is_near_half_dense() {
        let hv = Hypervector::random(dim(10_000), 3);
        let ones = hv.count_ones();
        assert!((4_700..=5_300).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn random_balanced_is_exactly_half_dense() {
        let mut rng = StdRng::seed_from_u64(9);
        for d in [10, 101, 10_000] {
            let hv = Hypervector::random_balanced(dim(d), &mut rng);
            assert_eq!(hv.count_ones(), d / 2);
        }
    }

    #[test]
    fn unrelated_vectors_are_nearly_orthogonal() {
        let d = dim(10_000);
        let a = Hypervector::random(d, 1);
        let b = Hypervector::random(d, 2);
        let dist = a.hamming(&b).as_usize();
        assert!((4_600..=5_400).contains(&dist), "distance = {dist}");
        assert!((a.similarity(&b) - 0.5).abs() < 0.05);
    }

    #[test]
    fn self_distance_is_zero() {
        let a = Hypervector::random(dim(512), 4);
        assert_eq!(a.hamming(&a), Distance::ZERO);
        assert!((a.similarity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn hamming_rejects_mixed_dimensions() {
        let a = Hypervector::random(dim(128), 1);
        let b = Hypervector::random(dim(256), 1);
        let _ = a.hamming(&b);
    }

    #[test]
    fn flipping_k_bits_moves_distance_by_k() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Hypervector::random(dim(2_000), 5);
        for k in [0, 1, 17, 500, 2_000] {
            let flipped = a.with_flipped_bits(k, &mut rng);
            assert_eq!(a.hamming(&flipped).as_usize(), k);
        }
    }

    #[test]
    fn from_bitvec_rejects_empty() {
        assert!(Hypervector::from_bitvec(BitVec::zeros(0)).is_err());
    }

    #[test]
    fn bitvec_round_trip() {
        let hv = Hypervector::random(dim(100), 1);
        let copy = Hypervector::from_bitvec(hv.as_bitvec().clone()).unwrap();
        assert_eq!(hv, copy);
        assert_eq!(hv.clone().into_bitvec().len(), 100);
    }
}
