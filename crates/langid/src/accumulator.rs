//! Per-class bipolar accumulators shared by the retraining and online
//! learners, and the golden-copy source for scrub/repair.
//!
//! Every learned hypervector is a majority vote over bipolar
//! accumulators; keeping the accumulators around means any stored row can
//! be re-binarized *exactly* at any time. That invariant is what makes
//! memory scrubbing (see `ham_core::resilience::scrub`) essentially free
//! for an HD system: the trainer already holds a perfect golden copy of
//! every class row.

use hdc::prelude::*;

/// `acc[class][component]` counters: positive values vote for bit 1.
#[derive(Debug, Clone)]
pub struct Accumulators {
    acc: Vec<Vec<i32>>,
    dim: usize,
}

impl Accumulators {
    /// Zeroed accumulators for `classes` rows of `dim` components.
    pub fn new(classes: usize, dim: usize) -> Self {
        Accumulators {
            acc: vec![vec![0; dim]; classes],
            dim,
        }
    }

    /// Number of class rows.
    pub fn classes(&self) -> usize {
        self.acc.len()
    }

    /// Components per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds (`sign = 1`) or subtracts (`sign = -1`) a hypervector in
    /// bipolar form.
    pub fn add(&mut self, class: usize, hv: &Hypervector, sign: i32) {
        let words = hv.as_bitvec().as_words();
        for (i, a) in self.acc[class].iter_mut().enumerate() {
            let bit = (words[i / 64] >> (i % 64)) & 1;
            *a += if bit == 1 { sign } else { -sign };
        }
    }

    /// Majority readout of one class.
    pub fn binarize(&self, class: usize) -> Hypervector {
        let mut bits = hdc::BitVec::zeros(self.dim);
        for (i, &a) in self.acc[class].iter().enumerate() {
            if a > 0 {
                bits.set(i, true);
            }
        }
        Hypervector::from_bitvec(bits).expect("dimension is nonzero")
    }

    /// Majority readout of every class in row order — the golden rows a
    /// scrubber repairs from.
    pub fn binarize_all(&self) -> Vec<Hypervector> {
        (0..self.classes()).map(|c| self.binarize(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_binarize_round_trip() {
        let dim = Dimension::new(256).unwrap();
        let hv = Hypervector::random(dim, 1);
        let mut acc = Accumulators::new(2, 256);
        acc.add(0, &hv, 1);
        assert_eq!(acc.binarize(0), hv, "one vote reproduces the vector");
        acc.add(0, &hv, -1);
        let zero = acc.binarize(0);
        assert_eq!(zero.count_ones(), 0, "votes cancel back to zeros");
    }

    #[test]
    fn majority_of_three() {
        let dim = Dimension::new(512).unwrap();
        let a = Hypervector::random(dim, 1);
        let b = Hypervector::random(dim, 2);
        let mut acc = Accumulators::new(1, 512);
        acc.add(0, &a, 1);
        acc.add(0, &a, 1);
        acc.add(0, &b, 1);
        assert_eq!(acc.binarize(0), a, "2-of-3 majority");
    }

    #[test]
    fn binarize_all_matches_per_class_readout() {
        let dim = Dimension::new(128).unwrap();
        let mut acc = Accumulators::new(3, 128);
        for c in 0..3 {
            acc.add(c, &Hypervector::random(dim, c as u64 + 10), 1);
        }
        assert_eq!(acc.classes(), 3);
        assert_eq!(acc.dim(), 128);
        let all = acc.binarize_all();
        assert_eq!(all.len(), 3);
        for (c, hv) in all.iter().enumerate() {
            assert_eq!(hv, &acc.binarize(c));
        }
    }

    #[test]
    fn a_two_vote_majority_is_the_and_of_its_votes() {
        // Where the votes agree the counter is ±2 and keeps their bit;
        // where they disagree it is 0, and ties read out as 0.
        let dim = Dimension::new(300).unwrap();
        let a = Hypervector::random(dim, 7);
        let b = Hypervector::random(dim, 8);
        let mut acc = Accumulators::new(1, 300);
        acc.add(0, &a, 1);
        acc.add(0, &b, 1);
        let mut and = a.as_bitvec().clone();
        and.and_assign(b.as_bitvec());
        assert_eq!(acc.binarize(0).as_bitvec(), &and);
    }

    #[test]
    fn votes_weigh_by_their_sign_and_classes_stay_apart() {
        let dim = Dimension::new(200).unwrap();
        let a = Hypervector::random(dim, 1);
        let b = Hypervector::random(dim, 2);
        let mut acc = Accumulators::new(2, 200);
        acc.add(0, &a, 3);
        acc.add(0, &b, 2);
        assert_eq!(acc.binarize(0), a, "three votes outweigh two");
        acc.add(0, &b, 2);
        assert_eq!(acc.binarize(0), b, "four votes outweigh three");
        // Class 1 saw none of it.
        assert_eq!(acc.binarize(1).count_ones(), 0);
        acc.add(1, &a, 1);
        assert_eq!(acc.binarize(1), a);
        assert_eq!(acc.binarize(0), b);
    }

    #[test]
    fn ragged_dimensions_read_only_their_components() {
        // 130 components span three words; the third holds two bits.
        let dim = Dimension::new(130).unwrap();
        let hv = Hypervector::random(dim, 3);
        let mut acc = Accumulators::new(1, 130);
        acc.add(0, &hv, 1);
        let out = acc.binarize(0);
        assert_eq!(out, hv);
        assert_eq!(out.as_bitvec().as_words()[2] >> 2, 0, "no bits past dim");
    }
}
