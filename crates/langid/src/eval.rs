//! Accuracy evaluation, micro-averaged as in the paper.
//!
//! "This accuracy is measured as the microaveraging that gives equal weight
//! to each per-sentence classification decision, rather than per-class."

use hdc::prelude::*;

use crate::corpus::Corpus;
use crate::synth::{LanguageId, LANGUAGE_COUNT};
use crate::trainer::LanguageClassifier;

/// A `21 × 21` confusion matrix: `counts[truth][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        ConfusionMatrix {
            counts: vec![vec![0; LANGUAGE_COUNT]; LANGUAGE_COUNT],
        }
    }

    /// Records one decision.
    pub fn record(&mut self, truth: LanguageId, predicted: LanguageId) {
        self.counts[truth.index()][predicted.index()] += 1;
    }

    /// Count of decisions with the given truth/prediction pair.
    pub fn count(&self, truth: LanguageId, predicted: LanguageId) -> usize {
        self.counts[truth.index()][predicted.index()]
    }

    /// Total decisions recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Correct decisions (the diagonal).
    pub fn correct(&self) -> usize {
        (0..LANGUAGE_COUNT).map(|i| self.counts[i][i]).sum()
    }

    /// Per-language recall, `None` for languages with no samples.
    pub fn recall(&self, truth: LanguageId) -> Option<f64> {
        let row: usize = self.counts[truth.index()].iter().sum();
        (row > 0).then(|| self.counts[truth.index()][truth.index()] as f64 / row as f64)
    }

    /// The most confused (truth, predicted, count) off-diagonal entry.
    pub fn worst_confusion(&self) -> Option<(LanguageId, LanguageId, usize)> {
        let mut best: Option<(LanguageId, LanguageId, usize)> = None;
        for t in LanguageId::all() {
            for p in LanguageId::all() {
                if t != p {
                    let c = self.count(t, p);
                    if c > 0 && best.map(|(_, _, b)| c > b).unwrap_or(true) {
                        best = Some((t, p, c));
                    }
                }
            }
        }
        best
    }
}

impl Default for ConfusionMatrix {
    fn default() -> Self {
        ConfusionMatrix::new()
    }
}

/// Error split by language family (see
/// [`Evaluation::family_breakdown`]): real language-identification errors
/// overwhelmingly stay inside a family, and so do this workload's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyBreakdown {
    /// Misclassifications whose truth and prediction share a family.
    pub intra_family_errors: usize,
    /// Misclassifications across family boundaries.
    pub cross_family_errors: usize,
}

impl FamilyBreakdown {
    /// Total misclassifications.
    pub fn total_errors(&self) -> usize {
        self.intra_family_errors + self.cross_family_errors
    }

    /// Share of errors that stay inside a family (1.0 when error-free).
    pub fn intra_family_share(&self) -> f64 {
        let total = self.total_errors();
        if total == 0 {
            1.0
        } else {
            self.intra_family_errors as f64 / total as f64
        }
    }
}

/// The outcome of evaluating a classifier over a corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    confusion: ConfusionMatrix,
    margins: Vec<usize>,
    failed: usize,
}

impl Evaluation {
    /// Micro-averaged accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        let total = self.confusion.total();
        if total == 0 {
            return 0.0;
        }
        self.confusion.correct() as f64 / total as f64
    }

    /// Number of evaluated samples.
    pub fn total(&self) -> usize {
        self.confusion.total()
    }

    /// Number of correct decisions.
    pub fn correct(&self) -> usize {
        self.confusion.correct()
    }

    /// The confusion matrix.
    pub fn confusion(&self) -> &ConfusionMatrix {
        &self.confusion
    }

    /// Number of samples whose search failed (e.g. a panicked worker
    /// contained by the resilient batch path). Failed samples are excluded
    /// from the confusion matrix and the margins, so `accuracy` reflects
    /// only the decisions actually made.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Winner-to-runner-up distance margins of every decision, in sample
    /// order (empty when the evaluation ran through an external searcher
    /// that reports no margins).
    pub fn margins(&self) -> &[usize] {
        &self.margins
    }

    /// The smallest decision margin observed, if any margins were
    /// recorded — the quantity that must exceed A-HAM's minimum detectable
    /// distance for lossless analog search.
    pub fn min_margin(&self) -> Option<usize> {
        self.margins.iter().copied().min()
    }

    /// Splits the misclassifications by language family.
    pub fn family_breakdown(&self) -> FamilyBreakdown {
        let mut intra = 0;
        let mut cross = 0;
        for truth in LanguageId::all() {
            for predicted in LanguageId::all() {
                if truth != predicted {
                    let count = self.confusion.count(truth, predicted);
                    if truth.family() == predicted.family() {
                        intra += count;
                    } else {
                        cross += count;
                    }
                }
            }
        }
        FamilyBreakdown {
            intra_family_errors: intra,
            cross_family_errors: cross,
        }
    }
}

/// Evaluates the classifier on a corpus with the exact software search.
///
/// Encoding and classification both use all available cores: the corpus is
/// encoded in parallel by [`encode_corpus`] and the encoded queries run
/// through the associative memory's panic-isolated batched search
/// ([`AssociativeMemory::search_batch_resilient`]), which is bit-identical
/// to searching one query at a time. A query whose search fails is counted
/// in [`Evaluation::failed`] instead of aborting the whole evaluation.
///
/// # Errors
///
/// Returns an error only when *every* sample fails for the same structural
/// reason (e.g. an empty memory), surfacing that first error; per-query
/// failures in an otherwise working evaluation are reported via
/// [`Evaluation::failed`].
pub fn evaluate(classifier: &LanguageClassifier, corpus: &Corpus) -> Result<Evaluation, HdcError> {
    let encoded = encode_corpus(classifier, corpus);
    let queries: Vec<Hypervector> = encoded.iter().map(|(_, q)| q.clone()).collect();
    let results = classifier.memory().search_batch_resilient(&queries, 0);
    let mut confusion = ConfusionMatrix::new();
    let mut margins = Vec::with_capacity(corpus.len());
    let mut failed = 0;
    let mut first_error = None;
    for ((truth, _), result) in encoded.iter().zip(&results) {
        match result {
            Ok(result) => {
                confusion.record(*truth, classifier.language_of(result.class));
                margins.push(result.margin());
            }
            Err(e) => {
                failed += 1;
                if first_error.is_none() {
                    first_error = Some(e.clone());
                }
            }
        }
    }
    if failed > 0 && failed == results.len() {
        return Err(first_error.expect("failed > 0 implies an error was seen"));
    }
    Ok(Evaluation {
        confusion,
        margins,
        failed,
    })
}

/// Evaluates with a caller-supplied searcher — the hook the hardware
/// designs (D-HAM, R-HAM, A-HAM) plug their approximate searches into.
///
/// The searcher receives each query hypervector and returns the winning
/// class id.
///
/// # Errors
///
/// Propagates errors from the searcher.
pub fn evaluate_with<F, E>(
    classifier: &LanguageClassifier,
    corpus: &Corpus,
    mut searcher: F,
) -> Result<Evaluation, E>
where
    F: FnMut(&Hypervector) -> Result<ClassId, E>,
{
    let mut confusion = ConfusionMatrix::new();
    for (truth, query) in encode_corpus(classifier, corpus) {
        let class = searcher(&query)?;
        confusion.record(truth, classifier.language_of(class));
    }
    Ok(Evaluation {
        confusion,
        margins: Vec::new(),
        failed: 0,
    })
}

/// Encodes every corpus sample into `(truth, query-hypervector)` pairs,
/// in corpus order, using all available cores.
pub fn encode_corpus(
    classifier: &LanguageClassifier,
    corpus: &Corpus,
) -> Vec<(LanguageId, Hypervector)> {
    let samples = corpus.samples();
    hdc::parallel::map_even(samples.len(), 0, |i| {
        let sample = &samples[i];
        (
            sample.language,
            classifier.encoder().encode_text(&sample.text),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusSpec;
    use crate::trainer::ClassifierConfig;

    fn setup() -> (LanguageClassifier, Corpus) {
        let spec = CorpusSpec::new(11).train_chars(8_000).test_sentences(3);
        let config = ClassifierConfig::new(2_000).unwrap();
        let classifier = LanguageClassifier::train(&config, &spec.training_set()).unwrap();
        (classifier, spec.test_set())
    }

    #[test]
    fn evaluation_counts_add_up() {
        let (classifier, test) = setup();
        let eval = evaluate(&classifier, &test).unwrap();
        assert_eq!(eval.total(), test.len());
        assert_eq!(eval.margins().len(), test.len());
        assert_eq!(eval.failed(), 0, "healthy path loses no samples");
        assert!(eval.correct() <= eval.total());
        assert!(eval.accuracy() > 0.5);
        assert!(eval.min_margin().is_some());
    }

    #[test]
    fn evaluate_with_exact_search_matches_evaluate() {
        let (classifier, test) = setup();
        let direct = evaluate(&classifier, &test).unwrap();
        let via_hook = evaluate_with(&classifier, &test, |q| {
            classifier.memory().search(q).map(|r| r.class)
        })
        .unwrap();
        assert_eq!(direct.accuracy(), via_hook.accuracy());
        assert!(via_hook.margins().is_empty());
        assert!(via_hook.min_margin().is_none());
    }

    #[test]
    fn confusion_matrix_bookkeeping() {
        let mut m = ConfusionMatrix::new();
        let a = LanguageId::new(0).unwrap();
        let b = LanguageId::new(1).unwrap();
        m.record(a, a);
        m.record(a, b);
        m.record(b, b);
        assert_eq!(m.total(), 3);
        assert_eq!(m.correct(), 2);
        assert_eq!(m.count(a, b), 1);
        assert_eq!(m.recall(a), Some(0.5));
        assert_eq!(m.recall(b), Some(1.0));
        assert_eq!(m.recall(LanguageId::new(5).unwrap()), None);
        assert_eq!(m.worst_confusion(), Some((a, b, 1)));
    }

    #[test]
    fn empty_confusion_matrix() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.total(), 0);
        assert_eq!(m.worst_confusion(), None);
        let eval = Evaluation {
            confusion: m,
            margins: Vec::new(),
            failed: 0,
        };
        assert_eq!(eval.accuracy(), 0.0);
    }

    #[test]
    fn encode_corpus_preserves_order_and_labels() {
        let (classifier, test) = setup();
        let encoded = encode_corpus(&classifier, &test);
        assert_eq!(encoded.len(), test.len());
        for ((truth, hv), sample) in encoded.iter().zip(test.iter()) {
            assert_eq!(*truth, sample.language);
            assert_eq!(hv, &classifier.query(&sample.text));
        }
    }
}

#[cfg(test)]
mod family_tests {
    use super::*;
    use crate::corpus::CorpusSpec;
    use crate::trainer::{ClassifierConfig, LanguageClassifier};

    #[test]
    fn breakdown_counts_add_up() {
        let mut m = ConfusionMatrix::new();
        let danish = LanguageId::new(0).unwrap();
        let swedish = LanguageId::new(4).unwrap(); // same family
        let greek = LanguageId::new(20).unwrap(); // different family
        m.record(danish, swedish);
        m.record(danish, greek);
        m.record(danish, danish);
        let eval = Evaluation {
            confusion: m,
            margins: Vec::new(),
            failed: 0,
        };
        let fb = eval.family_breakdown();
        assert_eq!(fb.intra_family_errors, 1);
        assert_eq!(fb.cross_family_errors, 1);
        assert_eq!(fb.total_errors(), 2);
        assert!((fb.intra_family_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn errors_concentrate_inside_families() {
        let spec = CorpusSpec::new(2).train_chars(8_000).test_sentences(12);
        let config = ClassifierConfig::new(2_000).unwrap();
        let classifier = LanguageClassifier::train(&config, &spec.training_set()).unwrap();
        let eval = evaluate(&classifier, &spec.test_set()).unwrap();
        let fb = eval.family_breakdown();
        // The calibrated workload behaves like real language data: the
        // majority of errors are intra-family confusions (at the full
        // D = 10,000 scale the share is 100%).
        assert!(fb.total_errors() > 0, "need some errors to split");
        assert!(
            fb.intra_family_share() >= 0.5,
            "intra share = {} ({fb:?})",
            fb.intra_family_share()
        );
    }

    #[test]
    fn perfect_evaluation_has_full_intra_share() {
        let eval = Evaluation {
            confusion: ConfusionMatrix::new(),
            margins: Vec::new(),
            failed: 0,
        };
        assert_eq!(eval.family_breakdown().total_errors(), 0);
        assert_eq!(eval.family_breakdown().intra_family_share(), 1.0);
    }
}
