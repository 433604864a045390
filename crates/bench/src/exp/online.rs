//! **Online update** (extension) — learn a 22nd language *while
//! serving*, over the epoch-versioned memory.
//!
//! The classifier is trained on the 21 synthetic European languages and
//! deployed behind a [`VersionedMemory`]; every search pins the current
//! version and scans it. A 22nd language — drawn from a
//! *different* synthetic world, so its trigram statistics genuinely
//! differ from all deployed rows — is then learned the same way the
//! original rows were (accumulate → binarize) and published live
//! through an [`OnlineUpdater`] while reader threads keep classifying
//! the base test set.
//!
//! Measured outcomes:
//!
//! * every search served *during* the publish matches either the
//!   pre-publish or the post-publish memory exactly — no torn reads;
//! * base-language accuracy is unchanged by the new row;
//! * the novel language, invisible before the publish, classifies
//!   correctly after it — and improves again after a second training
//!   pass is folded in via a copy-on-write re-threshold.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ham_core::shard::{OnlineUpdater, VersionedMemory};
use hdc::prelude::*;
use langid::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::context::Workload;
use crate::report::Report;

/// Test sentences drawn from the novel language.
const NOVEL_QUERIES: usize = 40;
/// Characters per novel test sentence.
const NOVEL_SENTENCE_CHARS: usize = 200;

/// The measured outcome of the live-learning run.
#[derive(Debug, Clone, Serialize)]
pub struct Outcome {
    /// Base-language accuracy before the publish.
    pub base_accuracy_before: f64,
    /// Base-language accuracy after the publish (new row in place).
    pub base_accuracy_after: f64,
    /// Fraction of novel-language queries answered with the novel class
    /// before the publish (zero by construction: the row doesn't exist).
    pub novel_accuracy_before: f64,
    /// Novel-language accuracy after the first publish.
    pub novel_accuracy_after: f64,
    /// Novel-language accuracy after a second training pass was folded
    /// in by re-thresholding the published row.
    pub novel_accuracy_refined: f64,
    /// Epoch the `add_class` publish landed at.
    pub publish_epoch: u64,
    /// Epoch the follow-up re-threshold landed at.
    pub refine_epoch: u64,
    /// Wall-clock latency of the copy-on-write `add_class` publish, in
    /// microseconds (clone + mutate + atomic swap).
    pub publish_micros: f64,
    /// Searches the reader threads served while the publish raced them.
    pub served_during_publish: usize,
    /// Served searches matching *neither* the pre- nor the post-publish
    /// memory. Must be zero: versions publish atomically.
    pub torn_reads: usize,
}

/// One served search: pin the current version and scan it.
fn serve(versioned: &VersionedMemory, query: &Hypervector) -> SearchResult {
    versioned
        .load()
        .memory()
        .search(query)
        .expect("serving never fails")
}

/// Base-language accuracy through the served memory. A hit on the novel
/// class (possible only after the publish) counts as wrong without being
/// mapped through `language_of`, which only knows the original 21 rows.
fn base_accuracy(workload: &Workload, versioned: &VersionedMemory, novel_class: ClassId) -> f64 {
    let correct = workload
        .queries()
        .iter()
        .filter(|(truth, q)| {
            let class = serve(versioned, q).class;
            class != novel_class && workload.classifier().language_of(class) == *truth
        })
        .count();
    correct as f64 / workload.queries().len().max(1) as f64
}

/// Fraction of novel-language queries answered with the novel class.
fn novel_accuracy(
    versioned: &VersionedMemory,
    queries: &[Hypervector],
    novel_class: ClassId,
) -> f64 {
    let hits = queries
        .iter()
        .filter(|q| serve(versioned, q).class == novel_class)
        .count();
    hits as f64 / queries.len().max(1) as f64
}

/// Runs the live-learning experiment over the workload's classifier.
///
/// # Panics
///
/// Panics if any served search fails — the serving memory is healthy
/// throughout, so every error would be a bug in the versioned memory.
pub fn experiment(workload: &Workload) -> Outcome {
    let classifier = workload.classifier();
    let memory = classifier.memory().clone();
    let dim = memory.dim();
    let novel_class = ClassId(memory.len());

    // The 22nd language comes from a different synthetic world: same
    // generator family, different seed, so its trigram table is
    // resampled from scratch rather than being a sibling of a deployed
    // language.
    let world = SyntheticEurope::new(workload.seed().wrapping_add(0x22));
    let novel = world.model(LanguageId::new(0).expect("language 0 exists"));
    let mut rng = StdRng::seed_from_u64(workload.seed() ^ 0x22D);

    // Learn the novel row exactly like the trainer learned the others:
    // one training text of the workload's size, accumulated and
    // binarized through the shared encoder.
    let chars = workload.scale().train_chars();
    let mut acc = Accumulators::new(1, dim.get());
    acc.add(0, &classifier.query(&novel.generate(chars, &mut rng)), 1);
    let first_row = acc.binarize(0);

    let novel_queries: Vec<Hypervector> = (0..NOVEL_QUERIES)
        .map(|_| classifier.query(&novel.sentence(NOVEL_SENTENCE_CHARS, &mut rng)))
        .collect();

    // Serial mirrors of the only two versions a reader may observe
    // while the publish races the search stream.
    let pre = memory.clone();
    let mut post = memory.clone();
    post.insert("novel-22", first_row.clone())
        .expect("dimensions match");
    let pre_hits: Vec<SearchResult> = workload
        .queries()
        .iter()
        .map(|(_, q)| pre.search(q).expect("pre mirror"))
        .collect();
    let post_hits: Vec<SearchResult> = workload
        .queries()
        .iter()
        .map(|(_, q)| post.search(q).expect("post mirror"))
        .collect();

    let versioned = Arc::new(VersionedMemory::new(memory));
    let updater = OnlineUpdater::new(Arc::clone(&versioned));

    let base_before = base_accuracy(workload, &versioned, novel_class);
    let novel_before = novel_accuracy(&versioned, &novel_queries, novel_class);

    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    let torn = AtomicUsize::new(0);
    let mut publish_micros = 0.0;
    let mut publish_epoch = 0;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (_, q) = &workload.queries()[i % workload.queries().len()];
                    let got = serve(&versioned, q);
                    let slot = i % workload.queries().len();
                    if got != pre_hits[slot] && got != post_hits[slot] {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // Let the readers get going, then publish mid-stream.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        let (class, epoch) = updater
            .add_class("novel-22", first_row.clone())
            .expect("dimensions match");
        publish_micros = start.elapsed().as_secs_f64() * 1e6;
        publish_epoch = epoch;
        assert_eq!(class, novel_class, "new row lands after the existing 21");
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
    });

    let base_after = base_accuracy(workload, &versioned, novel_class);
    let novel_after = novel_accuracy(&versioned, &novel_queries, novel_class);

    // Keep learning: fold a second training pass into the accumulator
    // and re-threshold the published row copy-on-write.
    acc.add(0, &classifier.query(&novel.generate(chars, &mut rng)), 1);
    let refine_epoch = updater
        .rethreshold_row(novel_class, acc.binarize(0))
        .expect("row exists");
    let novel_refined = novel_accuracy(&versioned, &novel_queries, novel_class);

    Outcome {
        base_accuracy_before: base_before,
        base_accuracy_after: base_after,
        novel_accuracy_before: novel_before,
        novel_accuracy_after: novel_after,
        novel_accuracy_refined: novel_refined,
        publish_epoch,
        refine_epoch,
        publish_micros,
        served_during_publish: served.into_inner(),
        torn_reads: torn.into_inner(),
    }
}

/// Runs the experiment and formats the report.
pub fn run(workload: &Workload) -> Report {
    let mut report = Report::new(
        "online_update",
        "learn a 22nd language while serving (extension)",
    );
    let outcome = experiment(workload);
    report.row(format!(
        "serving memory: {} base queries, {} novel queries",
        workload.queries().len(),
        NOVEL_QUERIES
    ));
    report.row(format!(
        "base languages   : {:.1}% before -> {:.1}% after the publish",
        outcome.base_accuracy_before * 100.0,
        outcome.base_accuracy_after * 100.0
    ));
    report.row(format!(
        "novel language   : {:.1}% before -> {:.1}% after -> {:.1}% refined",
        outcome.novel_accuracy_before * 100.0,
        outcome.novel_accuracy_after * 100.0,
        outcome.novel_accuracy_refined * 100.0
    ));
    report.row(format!(
        "publish          : epoch {} in {:.0} us; refine at epoch {}",
        outcome.publish_epoch, outcome.publish_micros, outcome.refine_epoch
    ));
    report.row(format!(
        "served during publish: {} searches, {} torn reads",
        outcome.served_during_publish, outcome.torn_reads
    ));
    report.set_data(&outcome);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::WorkloadScale;

    #[test]
    fn learning_a_22nd_language_preserves_serving() {
        let workload = Workload::build(WorkloadScale::Quick);
        let outcome = experiment(&workload);

        // Versions publish atomically: every search served while the
        // publish raced the readers matched exactly one full version.
        assert_eq!(outcome.torn_reads, 0, "torn read observed");
        assert!(outcome.served_during_publish > 0, "readers never ran");

        // The novel class cannot win before its row exists…
        assert_eq!(outcome.novel_accuracy_before, 0.0);
        // …and wins most of its own queries once published.
        assert!(
            outcome.novel_accuracy_after > 0.5,
            "novel accuracy = {}",
            outcome.novel_accuracy_after
        );
        // Folding in more training data never collapses the class.
        assert!(
            outcome.novel_accuracy_refined > 0.5,
            "refined accuracy = {}",
            outcome.novel_accuracy_refined
        );

        // The new row is from a different world: base accuracy holds.
        assert!(
            outcome.base_accuracy_after >= outcome.base_accuracy_before - 0.05,
            "base accuracy fell from {} to {}",
            outcome.base_accuracy_before,
            outcome.base_accuracy_after
        );

        // One publish, one refine, in order.
        assert_eq!(outcome.publish_epoch, 1);
        assert_eq!(outcome.refine_epoch, 2);
        assert!(outcome.publish_micros > 0.0);
    }

    #[test]
    fn report_renders() {
        let workload = Workload::build(WorkloadScale::Quick);
        let r = run(&workload);
        assert_eq!(r.id, "online_update");
        assert!(r.rows.len() >= 5);
    }
}
