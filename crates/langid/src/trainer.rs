//! Training the language classifier: one learned hypervector per language.

use hdc::prelude::*;

use crate::accumulator::Accumulators;
use crate::corpus::Corpus;
use crate::synth::LanguageId;

/// Configuration of the HD language classifier.
///
/// # Examples
///
/// ```
/// use langid::ClassifierConfig;
///
/// let config = ClassifierConfig::new(10_000)?.ngram(3).item_seed(42);
/// assert_eq!(config.dim().get(), 10_000);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClassifierConfig {
    dim: Dimension,
    ngram: usize,
    item_seed: u64,
}

impl ClassifierConfig {
    /// Creates a configuration for the given dimensionality with the
    /// paper's defaults (trigrams, fixed item-memory seed).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] when `dim == 0`.
    pub fn new(dim: usize) -> Result<Self, HdcError> {
        Ok(ClassifierConfig {
            dim: Dimension::new(dim)?,
            ngram: 3,
            item_seed: 0x4D5A_11AA,
        })
    }

    /// Sets the *n*-gram window size (paper: trigrams).
    pub fn ngram(mut self, n: usize) -> Self {
        self.ngram = n;
        self
    }

    /// Sets the item-memory seed.
    pub fn item_seed(mut self, seed: u64) -> Self {
        self.item_seed = seed;
        self
    }

    /// The configured dimensionality.
    pub fn dim(&self) -> Dimension {
        self.dim
    }

    /// The configured window size.
    pub fn ngram_size(&self) -> usize {
        self.ngram
    }

    /// The configured item-memory seed.
    pub fn item_memory_seed(&self) -> u64 {
        self.item_seed
    }
}

/// A trained HD language classifier: encoder + associative memory.
///
/// # Examples
///
/// ```
/// use langid::prelude::*;
///
/// let spec = CorpusSpec::new(7).train_chars(3_000).test_sentences(2);
/// let config = ClassifierConfig::new(2_000)?;
/// let classifier = LanguageClassifier::train(&config, &spec.training_set())?;
/// assert_eq!(classifier.languages().len(), LANGUAGE_COUNT);
///
/// let test = spec.test_set();
/// let sample = &test.samples()[0];
/// let (lang, _result) = classifier.classify(&sample.text)?;
/// assert!(lang.index() < LANGUAGE_COUNT);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LanguageClassifier {
    encoder: NGramEncoder,
    memory: AssociativeMemory,
    languages: Vec<LanguageId>,
}

impl LanguageClassifier {
    /// Assembles a classifier from pre-built parts (used by
    /// [`crate::retrain`]).
    pub(crate) fn from_parts(
        encoder: NGramEncoder,
        memory: AssociativeMemory,
        languages: Vec<LanguageId>,
    ) -> Self {
        LanguageClassifier {
            encoder,
            memory,
            languages,
        }
    }

    /// Trains the classifier: encodes every training text into a learned
    /// language hypervector and stores it in the associative memory.
    /// Encoding runs in parallel across languages.
    ///
    /// # Errors
    ///
    /// Propagates [`HdcError`] from encoder construction or memory
    /// insertion.
    ///
    /// # Panics
    ///
    /// Panics if `training` is empty.
    pub fn train(config: &ClassifierConfig, training: &Corpus) -> Result<Self, HdcError> {
        Self::train_with_accumulators(config, training).map(|(classifier, _)| classifier)
    }

    /// Trains the classifier and also returns the per-class bipolar
    /// accumulators behind every stored row. Re-binarizing an accumulator
    /// reproduces the stored hypervector *exactly*, which makes the
    /// accumulators the golden copies a memory scrubber repairs from
    /// (`ham_core::resilience::scrub`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`train`](Self::train).
    ///
    /// # Panics
    ///
    /// Panics if `training` is empty.
    pub fn train_with_accumulators(
        config: &ClassifierConfig,
        training: &Corpus,
    ) -> Result<(Self, Accumulators), HdcError> {
        assert!(!training.is_empty(), "training corpus must not be empty");
        let encoder =
            NGramEncoder::new(config.ngram, ItemMemory::new(config.dim, config.item_seed))?;

        let samples = training.samples();
        let encoded =
            hdc::parallel::map_even(samples.len(), 0, |i| encoder.encode_text(&samples[i].text));

        let mut memory = AssociativeMemory::new(config.dim);
        let mut languages = Vec::with_capacity(samples.len());
        let mut accumulators = Accumulators::new(samples.len(), config.dim.get());
        for (class, (sample, hv)) in samples.iter().zip(encoded).enumerate() {
            accumulators.add(class, &hv, 1);
            memory.insert(sample.language.name(), hv)?;
            languages.push(sample.language);
        }
        Ok((
            LanguageClassifier {
                encoder,
                memory,
                languages,
            },
            accumulators,
        ))
    }

    /// The encoder (shared by training and queries).
    pub fn encoder(&self) -> &NGramEncoder {
        &self.encoder
    }

    /// The associative memory holding the learned language hypervectors.
    pub fn memory(&self) -> &AssociativeMemory {
        &self.memory
    }

    /// The language of each stored row, in row order.
    pub fn languages(&self) -> &[LanguageId] {
        &self.languages
    }

    /// The language behind a search result's class id.
    ///
    /// # Panics
    ///
    /// Panics if the class id does not belong to this classifier.
    pub fn language_of(&self, class: ClassId) -> LanguageId {
        self.languages[class.0]
    }

    /// Encodes a text into its query hypervector.
    pub fn query(&self, text: &str) -> Hypervector {
        self.encoder.encode_text(text)
    }

    /// Classifies a text with the exact software associative memory.
    ///
    /// # Errors
    ///
    /// Propagates [`HdcError`] from the search.
    pub fn classify(&self, text: &str) -> Result<(LanguageId, SearchResult), HdcError> {
        let query = self.query(text);
        let result = self.memory.search(&query)?;
        Ok((self.language_of(result.class), result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusSpec;
    use crate::synth::LANGUAGE_COUNT;

    fn small_classifier(seed: u64) -> (LanguageClassifier, CorpusSpec) {
        let spec = CorpusSpec::new(seed).train_chars(8_000).test_sentences(3);
        let config = ClassifierConfig::new(2_000).unwrap();
        let classifier = LanguageClassifier::train(&config, &spec.training_set()).unwrap();
        (classifier, spec)
    }

    #[test]
    fn training_stores_one_row_per_language() {
        let (classifier, _) = small_classifier(1);
        assert_eq!(classifier.memory().len(), LANGUAGE_COUNT);
        assert_eq!(classifier.languages().len(), LANGUAGE_COUNT);
        for (i, id) in classifier.languages().iter().enumerate() {
            assert_eq!(classifier.memory().label(ClassId(i)), Some(id.name()));
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (c1, _) = small_classifier(5);
        let (c2, _) = small_classifier(5);
        for i in 0..LANGUAGE_COUNT {
            assert_eq!(
                c1.memory().row(ClassId(i)),
                c2.memory().row(ClassId(i)),
                "row {i} must be reproducible"
            );
        }
    }

    #[test]
    fn own_training_text_classifies_correctly() {
        let (classifier, spec) = small_classifier(2);
        for sample in spec.training_set().iter() {
            let (lang, result) = classifier.classify(&sample.text).unwrap();
            assert_eq!(lang, sample.language);
            assert_eq!(result.distance, Distance::ZERO);
        }
    }

    #[test]
    fn test_sentences_mostly_classify_correctly() {
        let (classifier, spec) = small_classifier(3);
        let test = spec.test_set();
        let correct = test
            .iter()
            .filter(|s| classifier.classify(&s.text).unwrap().0 == s.language)
            .count();
        let accuracy = correct as f64 / test.len() as f64;
        assert!(accuracy > 0.6, "accuracy = {accuracy}");
    }

    #[test]
    fn accumulators_rebinarize_to_the_stored_rows_exactly() {
        let spec = CorpusSpec::new(4).train_chars(6_000).test_sentences(1);
        let config = ClassifierConfig::new(1_000).unwrap();
        let (classifier, acc) =
            LanguageClassifier::train_with_accumulators(&config, &spec.training_set()).unwrap();
        assert_eq!(acc.classes(), classifier.memory().len());
        for (c, golden) in acc.binarize_all().into_iter().enumerate() {
            assert_eq!(
                classifier.memory().row(ClassId(c)),
                Some(golden),
                "accumulator {c} must reproduce its stored row"
            );
        }
    }

    #[test]
    fn config_builder() {
        let c = ClassifierConfig::new(512).unwrap().ngram(4).item_seed(9);
        assert_eq!(c.dim().get(), 512);
        assert_eq!(c.ngram_size(), 4);
        assert!(ClassifierConfig::new(0).is_err());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_rejected() {
        let config = ClassifierConfig::new(100).unwrap();
        let _ = LanguageClassifier::train(&config, &Corpus::new());
    }
}
