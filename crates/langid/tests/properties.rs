//! Property-based tests of the language-recognition substrate.

use langid::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn alphabet_indexing_is_total_over_normalized_text(text in "\\PC{0,60}") {
        for ch in text.chars() {
            let idx = Alphabet::index_of_normalized(ch);
            prop_assert!(idx < Alphabet::SIZE);
            // Round trip: the symbol at the index re-normalizes to itself.
            let sym = Alphabet::symbol_at(idx);
            prop_assert_eq!(Alphabet::index_of_normalized(sym), idx);
        }
    }

    #[test]
    fn generated_text_is_always_in_alphabet(
        seed in any::<u64>(),
        lang in 0usize..21,
        chars in 1usize..400,
    ) {
        let europe = SyntheticEurope::new(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let id = LanguageId::new(lang).unwrap();
        let text = europe.model(id).generate(chars, &mut rng);
        prop_assert_eq!(text.chars().count(), chars);
        prop_assert!(text.chars().all(|c| Alphabet::index_of(c).is_some()));
        prop_assert!(!text.contains("  "), "no double spaces");
    }

    #[test]
    fn corpus_specs_are_reproducible(
        seed in any::<u64>(),
        train in 50usize..500,
        sentences in 1usize..4,
    ) {
        let a = CorpusSpec::new(seed).train_chars(train).test_sentences(sentences);
        let b = CorpusSpec::new(seed).train_chars(train).test_sentences(sentences);
        let (a_train, b_train) = (a.training_set(), b.training_set());
        prop_assert_eq!(a_train.samples(), b_train.samples());
        let (a_test, b_test) = (a.test_set(), b.test_set());
        prop_assert_eq!(a_test.samples(), b_test.samples());
        prop_assert_eq!(a.test_len(), 21 * sentences);
    }

    #[test]
    fn transition_rows_are_stochastic_for_any_world(
        seed in any::<u64>(),
        lang in 0usize..21,
        prev2 in 0usize..27,
        prev1 in 0usize..27,
    ) {
        let europe = SyntheticEurope::new(seed);
        let model = europe.model(LanguageId::new(lang).unwrap());
        let row_sum: f64 = (0..Alphabet::SIZE)
            .map(|next| model.transition(prev2, prev1, next))
            .sum();
        prop_assert!((row_sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(model.transition(prev2, Alphabet::SPACE, Alphabet::SPACE), 0.0);
    }

    #[test]
    fn confusion_matrix_totals_are_consistent(
        decisions in prop::collection::vec((0usize..21, 0usize..21), 0..200),
    ) {
        let mut m = ConfusionMatrix::new();
        for &(t, p) in &decisions {
            m.record(LanguageId::new(t).unwrap(), LanguageId::new(p).unwrap());
        }
        prop_assert_eq!(m.total(), decisions.len());
        let correct = decisions.iter().filter(|(t, p)| t == p).count();
        prop_assert_eq!(m.correct(), correct);
        // Recall is defined exactly for languages with samples.
        for lang in LanguageId::all() {
            let has_samples = decisions.iter().any(|&(t, _)| t == lang.index());
            prop_assert_eq!(m.recall(lang).is_some(), has_samples);
        }
    }

    #[test]
    fn accumulator_readout_is_the_per_bit_majority(
        dim in 1usize..300,
        signs in prop::collection::vec(prop_oneof![Just(1i32), Just(-1i32), Just(2i32)], 1..9),
        seed in any::<u64>(),
    ) {
        let d = hdc::Dimension::new(dim).unwrap();
        let votes: Vec<hdc::Hypervector> = (0..signs.len() as u64)
            .map(|i| hdc::Hypervector::random(d, seed ^ (i << 32)))
            .collect();
        let mut acc = Accumulators::new(2, dim);
        for (hv, &sign) in votes.iter().zip(&signs) {
            acc.add(1, hv, sign);
        }
        let out = acc.binarize(1);
        for bit in 0..dim {
            // A set bit votes +sign, a clear bit −sign; ties read as 0.
            let tally: i32 = votes
                .iter()
                .zip(&signs)
                .map(|(hv, &sign)| if hv.as_bitvec().get(bit) { sign } else { -sign })
                .sum();
            prop_assert_eq!(out.as_bitvec().get(bit), tally > 0, "bit {}", bit);
        }
        // The untouched class reads out as all zeros.
        prop_assert_eq!(acc.binarize(0).as_bitvec().count_ones(), 0);
        prop_assert_eq!(acc.binarize_all(), vec![acc.binarize(0), out]);
    }
}
