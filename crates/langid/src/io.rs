//! Corpus file I/O: bring your own corpora.
//!
//! The synthetic generator stands in for Wortschatz/Europarl, but nothing
//! in the pipeline depends on it — a corpus is just labeled text. This
//! module reads and writes the simple on-disk layout
//!
//! ```text
//! corpus-dir/
//!   english/ 0.txt 1.txt …
//!   german/  0.txt …
//! ```
//!
//! (one directory per language, named as in
//! [`LANGUAGE_NAMES`](crate::synth::LANGUAGE_NAMES); one UTF-8 text file
//! per sample), so real corpora can replace the synthetic ones without
//! touching any other code.
//!
//! It also persists *trained models* ([`save_model`] / [`load_model`]): a
//! trained classifier is 21 learned hypervectors plus three scalars of
//! encoder config, and retraining it from a corpus costs minutes of
//! encoding — so the serving path saves it once and reloads it at startup.
//! The format is a small checksummed binary (magic, config header, packed
//! rows, trailing CRC-32), written to a temp file and atomically
//! `rename`d, mirroring the golden-snapshot discipline of
//! `ham_core::resilience::snapshot`.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use hdc::prelude::*;

use crate::corpus::{Corpus, Sample};
use crate::synth::LanguageId;
use crate::trainer::{ClassifierConfig, LanguageClassifier};

/// Writes a corpus to `dir` in the per-language-directory layout,
/// numbering each language's samples in corpus order.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_corpus(corpus: &Corpus, dir: &Path) -> io::Result<()> {
    let mut counters = [0usize; crate::synth::LANGUAGE_COUNT];
    for sample in corpus.iter() {
        let lang_dir = dir.join(sample.language.name());
        fs::create_dir_all(&lang_dir)?;
        let index = counters[sample.language.index()];
        counters[sample.language.index()] += 1;
        fs::write(lang_dir.join(format!("{index}.txt")), &sample.text)?;
    }
    Ok(())
}

/// Loads a corpus from `dir`. Unknown directory names are skipped (so a
/// corpus tree can carry extra metadata folders); files within a language
/// load in lexicographic order for reproducibility.
///
/// # Errors
///
/// Propagates filesystem errors; a missing `dir` is an error, an empty
/// one yields an empty corpus.
pub fn load_corpus(dir: &Path) -> io::Result<Corpus> {
    let mut corpus = Corpus::new();
    let mut lang_dirs: Vec<(LanguageId, std::path::PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = LanguageId::all().find(|id| id.name() == name) {
            lang_dirs.push((id, entry.path()));
        }
    }
    lang_dirs.sort_by_key(|(id, _)| id.index());
    for (language, lang_dir) in lang_dirs {
        let mut files: Vec<std::path::PathBuf> = fs::read_dir(&lang_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        for file in files {
            corpus.push(Sample {
                language,
                text: fs::read_to_string(&file)?,
            });
        }
    }
    Ok(corpus)
}

/// Magic prefix of the trained-model format; the trailing digits version
/// the layout.
const MODEL_MAGIC: [u8; 8] = *b"HDLANG01";

/// CRC-32 (IEEE, reflected) over `data`. Models are a few tens of
/// kilobytes at most, so the bitwise form is plenty and keeps this module
/// dependency-free.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn read_u64(bytes: &[u8], offset: usize) -> io::Result<u64> {
    bytes
        .get(offset..offset + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "model file truncated"))
}

fn corrupt(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

/// Saves a trained classifier to `path` as a checksummed binary: magic,
/// encoder config (dimension, n-gram size, item-memory seed), then one
/// `(language index, packed row words)` record per learned class, with a
/// trailing CRC-32 over everything before it. The file is written to a
/// sibling temp file and `rename`d into place so a crash mid-write never
/// leaves a half-model at `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_model(classifier: &LanguageClassifier, path: &Path) -> io::Result<()> {
    let encoder = classifier.encoder();
    let memory = classifier.memory();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MODEL_MAGIC);
    push_u64(&mut bytes, memory.dim().get() as u64);
    push_u64(&mut bytes, encoder.n() as u64);
    push_u64(&mut bytes, encoder.item_memory().seed());
    push_u64(&mut bytes, memory.len() as u64);
    for (class, _, row) in memory.iter_words() {
        let language = classifier.language_of(class);
        push_u64(&mut bytes, language.index() as u64);
        for word in row {
            push_u64(&mut bytes, *word);
        }
    }
    let checksum = crc32(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());

    let temp = path.with_extension(format!("tmp-{}", std::process::id()));
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut file = fs::File::create(&temp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&temp, path).inspect_err(|_| {
        fs::remove_file(&temp).ok();
    })
}

/// Loads a classifier saved by [`save_model`], rebuilding the n-gram
/// encoder from the stored config and re-inserting every row through the
/// associative memory's own API so all invariants are re-validated.
///
/// # Errors
///
/// Filesystem errors, plus `InvalidData` for a bad magic, a failed
/// checksum, or a structurally inconsistent body (a model file is a cold
/// artifact — unlike the serving snapshots in
/// `ham_core::resilience::snapshot` there is no golden copy to repair
/// from, so corruption fails the load outright).
pub fn load_model(path: &Path) -> io::Result<LanguageClassifier> {
    let bytes = fs::read(path)?;
    if bytes.len() < MODEL_MAGIC.len() + 4 || bytes[..MODEL_MAGIC.len()] != MODEL_MAGIC {
        return Err(corrupt("not a language-model file"));
    }
    let (body, stored) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(stored.try_into().expect("4-byte slice"));
    if crc32(body) != stored {
        return Err(corrupt("model checksum mismatch"));
    }

    let dim = read_u64(body, 8)? as usize;
    let ngram = read_u64(body, 16)? as usize;
    let seed = read_u64(body, 24)?;
    let classes = read_u64(body, 32)? as usize;
    let config = ClassifierConfig::new(dim)
        .map_err(|e| corrupt(&e.to_string()))?
        .ngram(ngram)
        .item_seed(seed);
    let encoder = NGramEncoder::new(config.ngram_size(), ItemMemory::new(config.dim(), seed))
        .map_err(|e| corrupt(&e.to_string()))?;

    let words_per_row = dim.div_ceil(64);
    let record = 8 + words_per_row * 8;
    if body.len() != 40 + classes * record {
        return Err(corrupt("model body length inconsistent with header"));
    }
    let mut memory = AssociativeMemory::new(config.dim());
    let mut languages = Vec::with_capacity(classes);
    for class in 0..classes {
        let start = 40 + class * record;
        let index = read_u64(body, start)? as usize;
        let language =
            LanguageId::new(index).ok_or_else(|| corrupt("unknown language index in model"))?;
        let words: Vec<u64> = (0..words_per_row)
            .map(|w| read_u64(body, start + 8 + w * 8))
            .collect::<io::Result<_>>()?;
        let row = Hypervector::from_bitvec(BitVec::from_words(words, dim))
            .map_err(|e| corrupt(&e.to_string()))?;
        memory
            .insert(language.name(), row)
            .map_err(|e| corrupt(&e.to_string()))?;
        languages.push(language);
    }
    Ok(LanguageClassifier::from_parts(encoder, memory, languages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusSpec;
    use crate::synth::LANGUAGE_COUNT;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hdham-corpus-io-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trip_preserves_samples() {
        let dir = temp_dir("roundtrip");
        let spec = CorpusSpec::new(7).train_chars(300).test_sentences(2);
        let original = spec.test_set();
        save_corpus(&original, &dir).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), original.len());
        // Same multiset of samples (order is normalized by language, then
        // file name).
        let mut a: Vec<(usize, String)> = original
            .iter()
            .map(|s| (s.language.index(), s.text.clone()))
            .collect();
        let mut b: Vec<(usize, String)> = loaded
            .iter()
            .map(|s| (s.language.index(), s.text.clone()))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_directories_are_skipped() {
        let dir = temp_dir("unknown");
        fs::create_dir_all(dir.join("english")).unwrap();
        fs::write(dir.join("english/0.txt"), "hello world text").unwrap();
        fs::create_dir_all(dir.join("klingon")).unwrap();
        fs::write(dir.join("klingon/0.txt"), "qapla").unwrap();
        fs::create_dir_all(dir.join(".metadata")).unwrap();
        let corpus = load_corpus(&dir).unwrap();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.samples()[0].language.name(), "english");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_corpus_trains_a_classifier() {
        use crate::trainer::{ClassifierConfig, LanguageClassifier};
        let dir = temp_dir("train");
        let spec = CorpusSpec::new(9).train_chars(2_000).test_sentences(1);
        save_corpus(&spec.training_set(), &dir).unwrap();
        let training = load_corpus(&dir).unwrap();
        assert_eq!(training.len(), 21);
        let config = ClassifierConfig::new(512).unwrap();
        let classifier = LanguageClassifier::train(&config, &training).unwrap();
        assert_eq!(classifier.memory().len(), 21);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_round_trips_bit_exactly() {
        let dir = temp_dir("model");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ham");
        let spec = CorpusSpec::new(11).train_chars(2_000).test_sentences(2);
        let config = ClassifierConfig::new(512).unwrap().item_seed(0xFEED);
        let classifier = LanguageClassifier::train(&config, &spec.training_set()).unwrap();
        save_model(&classifier, &path).unwrap();
        let loaded = load_model(&path).unwrap();

        assert_eq!(loaded.memory().len(), classifier.memory().len());
        assert_eq!(loaded.languages(), classifier.languages());
        for (class, label, row) in classifier.memory().iter() {
            assert_eq!(loaded.memory().label(class), Some(label));
            assert_eq!(loaded.memory().row(class), Some(row));
        }
        // The rebuilt encoder is seeded identically, so classification of
        // fresh text agrees exactly — queries included.
        for sample in spec.test_set().iter() {
            assert_eq!(loaded.query(&sample.text), classifier.query(&sample.text));
            let a = classifier.classify(&sample.text).unwrap();
            let b = loaded.classify(&sample.text).unwrap();
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.distance, b.1.distance);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_model_is_rejected_not_loaded() {
        let dir = temp_dir("badmodel");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ham");
        let spec = CorpusSpec::new(13).train_chars(1_000).test_sentences(1);
        let config = ClassifierConfig::new(256).unwrap();
        let classifier = LanguageClassifier::train(&config, &spec.training_set()).unwrap();
        save_model(&classifier, &path).unwrap();

        // Flip one byte in the middle of a row: the checksum catches it.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A non-model file is rejected by the magic, truncation by length.
        fs::write(&path, b"not a model").unwrap();
        assert!(load_model(&path).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_error_empty_is_not() {
        let dir = temp_dir("empty");
        assert!(load_corpus(&dir).is_err(), "missing dir errors");
        fs::create_dir_all(&dir).unwrap();
        let corpus = load_corpus(&dir).unwrap();
        assert!(corpus.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites a saved model's body with `edit` and reseals it with a
    /// fresh checksum, so only the structural check can reject it.
    fn reseal(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = fs::read(path).unwrap();
        bytes.truncate(bytes.len() - 4);
        edit(&mut bytes);
        let checksum = crc32(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn checksummed_but_inconsistent_models_are_rejected() {
        let dir = temp_dir("inconsistent");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ham");
        let spec = CorpusSpec::new(17).train_chars(1_000).test_sentences(1);
        let config = ClassifierConfig::new(128).unwrap();
        let classifier = LanguageClassifier::train(&config, &spec.training_set()).unwrap();
        let message = |path: &Path| load_model(path).unwrap_err().to_string();

        // One word short of the last record.
        save_model(&classifier, &path).unwrap();
        reseal(&path, |body| body.truncate(body.len() - 8));
        assert!(message(&path).contains("length inconsistent"));

        // The first record names a language that does not exist.
        save_model(&classifier, &path).unwrap();
        reseal(&path, |body| {
            body[40..48].copy_from_slice(&(LANGUAGE_COUNT as u64 + 5).to_le_bytes())
        });
        assert!(message(&path).contains("unknown language index"));

        // A zero dimension in the header.
        save_model(&classifier, &path).unwrap();
        reseal(&path, |body| {
            body[8..16].copy_from_slice(&0u64.to_le_bytes())
        });
        assert_eq!(
            load_model(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // The untouched model still loads.
        save_model(&classifier, &path).unwrap();
        assert_eq!(load_model(&path).unwrap().memory().len(), 21);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saving_creates_parents_and_leaves_no_temp_file() {
        let dir = temp_dir("nested");
        let path = dir.join("a").join("b").join("model.ham");
        let spec = CorpusSpec::new(19).train_chars(800).test_sentences(1);
        let config = ClassifierConfig::new(64).unwrap();
        let classifier = LanguageClassifier::train(&config, &spec.training_set()).unwrap();
        save_model(&classifier, &path).unwrap();
        let names: Vec<String> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["model.ham".to_string()]);
        // Saving again replaces the file in place.
        save_model(&classifier, &path).unwrap();
        assert_eq!(
            load_model(&path).unwrap().languages(),
            classifier.languages()
        );
        fs::remove_dir_all(&dir).ok();
    }
}
