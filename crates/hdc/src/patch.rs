//! Row patches: carry a copy of a row space forward to a newer state by
//! rewriting only the runs of rows that changed.
//!
//! A served associative memory keeps several private copies of its rows
//! (the search matrix, each hardware model's array, the scrubber's golden
//! rows). When the rows change by a few runs — a re-thresholded class, an
//! appended one — every copy applies the same [`RowPatch`], so the work
//! is proportional to the rows changed, the way an in-memory HAM
//! reprograms one crossbar row at a time.

use crate::hypervector::Hypervector;
use crate::kernel::PackedRows;

/// One run of consecutive rows to write, starting at row `start`.
#[derive(Debug, Clone, Copy)]
struct Run<'a> {
    start: usize,
    labels: &'a [String],
    rows: &'a [Hypervector],
}

/// The changes that take a row space of some length to a target state
/// of `len` rows: runs of rows (with their labels) written in ascending
/// order — overwriting rows already stored, appending past the end —
/// followed by truncation to `len`.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use hdc::RowPatch;
///
/// let dim = Dimension::new(64)?;
/// let rows: Vec<Hypervector> = (0..3).map(|s| Hypervector::random(dim, s)).collect();
/// let labels: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
///
/// let mut stored = vec![rows[0].clone(), rows[0].clone()];
/// let mut patch = RowPatch::new(3);
/// patch.push_run(1, &labels[1..], &rows[1..]); // overwrite row 1, append row 2
/// patch.apply_to_rows(&mut stored);
/// assert_eq!(stored, rows);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RowPatch<'a> {
    runs: Vec<Run<'a>>,
    len: usize,
}

impl<'a> RowPatch<'a> {
    /// An empty patch whose target holds `len` rows (applying it only
    /// truncates).
    pub fn new(len: usize) -> Self {
        RowPatch {
            runs: Vec::new(),
            len,
        }
    }

    /// Adds a run writing `rows` (labelled `labels`) from row `start` on.
    ///
    /// # Panics
    ///
    /// Panics when `labels` and `rows` differ in length, when the run
    /// starts before the end of the previous one, or when it reaches
    /// past the target length.
    pub fn push_run(&mut self, start: usize, labels: &'a [String], rows: &'a [Hypervector]) {
        assert_eq!(labels.len(), rows.len(), "one label per row");
        let previous_end = self.runs.last().map_or(0, |run| run.start + run.rows.len());
        assert!(start >= previous_end, "runs are written in ascending order");
        assert!(
            start + rows.len() <= self.len,
            "runs stay within the target"
        );
        self.runs.push(Run {
            start,
            labels,
            rows,
        });
    }

    /// Number of rows the runs write.
    pub fn rows_written(&self) -> usize {
        self.runs.iter().map(|run| run.rows.len()).sum()
    }

    /// Every row the runs write, in order.
    pub(crate) fn written(&self) -> impl Iterator<Item = &Hypervector> {
        self.runs.iter().flat_map(|run| run.rows)
    }

    /// Applies the patch to a row vector.
    ///
    /// # Panics
    ///
    /// Panics when a run starts past the end of the rows written so far
    /// (the patch was made for a longer row space).
    pub fn apply_to_rows(&self, rows: &mut Vec<Hypervector>) {
        for run in &self.runs {
            write_run(rows, run.start, run.rows);
        }
        rows.truncate(self.len);
    }

    /// Applies the patch's labels to a label vector (the same runs and
    /// truncation as [`apply_to_rows`](Self::apply_to_rows)).
    ///
    /// # Panics
    ///
    /// As [`apply_to_rows`](Self::apply_to_rows).
    pub fn apply_to_labels(&self, labels: &mut Vec<String>) {
        for run in &self.runs {
            write_run(labels, run.start, run.labels);
        }
        labels.truncate(self.len);
    }

    /// Applies the patch to a packed row matrix.
    ///
    /// # Panics
    ///
    /// As [`apply_to_rows`](Self::apply_to_rows), and when a row's width
    /// differs from the matrix's.
    pub fn apply_to_packed(&self, packed: &mut PackedRows) {
        for run in &self.runs {
            assert!(run.start <= packed.len(), "run starts past the rows");
            for (offset, hv) in run.rows.iter().enumerate() {
                let row = run.start + offset;
                let words = hv.as_bitvec().as_words();
                if row < packed.len() {
                    packed.replace(row, words);
                } else {
                    packed.push(words);
                }
            }
        }
        packed.truncate(self.len);
    }
}

/// Overwrites `dst[start..]` with `src`, appending what reaches past the
/// end.
fn write_run<T: Clone>(dst: &mut Vec<T>, start: usize, src: &[T]) {
    assert!(start <= dst.len(), "run starts past the rows");
    let overlap = (dst.len() - start).min(src.len());
    dst[start..start + overlap].clone_from_slice(&src[..overlap]);
    dst.extend_from_slice(&src[overlap..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervector::Dimension;

    fn rows(n: u64) -> Vec<Hypervector> {
        let dim = Dimension::new(130).unwrap();
        (0..n).map(|s| Hypervector::random(dim, s)).collect()
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("r{i}")).collect()
    }

    #[test]
    fn runs_overwrite_append_and_truncate_every_copy_alike() {
        let target = rows(40);
        let target_labels = labels(40);
        for (stored, runs) in [
            // Grow: rewrite a middle run, append a tail run.
            (20, vec![(16..20), (20..40)]),
            // Shrink: rewrite everything (in two runs) then cut.
            (50, vec![(0..16), (16..40)]),
            // Same length, two disjoint runs.
            (40, vec![(0..16), (32..40)]),
        ] {
            let mut patch = RowPatch::new(40);
            for run in &runs {
                patch.push_run(run.start, &target_labels[run.clone()], &target[run.clone()]);
            }
            // Rows outside the runs already match the target (up to the
            // stored length); rows inside start out stale.
            let seed_rows: Vec<Hypervector> = (0..stored)
                .map(|i| {
                    if i < 40 && !runs.iter().any(|r| r.contains(&i)) {
                        target[i].clone()
                    } else {
                        Hypervector::random(target[0].dim(), 1_000 + i as u64)
                    }
                })
                .collect();
            let mut vec_rows = seed_rows.clone();
            patch.apply_to_rows(&mut vec_rows);
            assert_eq!(vec_rows, target);

            let mut vec_labels: Vec<String> = (0..stored).map(|i| format!("r{i}")).collect();
            patch.apply_to_labels(&mut vec_labels);
            assert_eq!(vec_labels, target_labels);

            let mut packed = PackedRows::new(130);
            for hv in &seed_rows {
                packed.push(hv.as_bitvec().as_words());
            }
            patch.apply_to_packed(&mut packed);
            assert_eq!(packed.len(), 40);
            for (i, hv) in target.iter().enumerate() {
                assert_eq!(packed.row_words(i), hv.as_bitvec().as_words());
            }
            assert_eq!(
                patch.rows_written(),
                runs.iter().map(|r| r.len()).sum::<usize>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn overlapping_runs_are_rejected() {
        let target = rows(8);
        let names = labels(8);
        let mut patch = RowPatch::new(8);
        patch.push_run(2, &names[2..6], &target[2..6]);
        patch.push_run(4, &names[4..8], &target[4..8]);
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn runs_need_one_label_per_row() {
        let target = rows(4);
        let names = labels(4);
        let mut patch = RowPatch::new(4);
        patch.push_run(0, &names[..2], &target[..3]);
    }

    #[test]
    #[should_panic(expected = "runs stay within the target")]
    fn runs_past_the_target_length_are_rejected() {
        let target = rows(6);
        let names = labels(6);
        let mut patch = RowPatch::new(5);
        patch.push_run(2, &names[2..6], &target[2..6]);
    }

    #[test]
    #[should_panic(expected = "run starts past the rows")]
    fn a_patch_for_a_longer_row_space_is_refused() {
        let target = rows(8);
        let names = labels(8);
        let mut patch = RowPatch::new(8);
        patch.push_run(6, &names[6..8], &target[6..8]);
        // Only four rows stored: row 6 would leave a gap at 4 and 5.
        let mut stored = target[..4].to_vec();
        patch.apply_to_rows(&mut stored);
    }

    #[test]
    fn adjacent_runs_write_like_one_run() {
        let target = rows(12);
        let names = labels(12);
        let mut split = RowPatch::new(12);
        split.push_run(3, &names[3..7], &target[3..7]);
        split.push_run(7, &names[7..12], &target[7..12]);
        let mut whole = RowPatch::new(12);
        whole.push_run(3, &names[3..12], &target[3..12]);
        assert_eq!(split.rows_written(), whole.rows_written());
        assert!(split.written().eq(whole.written()));
        let stale: Vec<Hypervector> = target[..3]
            .iter()
            .cloned()
            .chain((3..9).map(|i| Hypervector::random(target[0].dim(), 500 + i)))
            .collect();
        let (mut a, mut b) = (stale.clone(), stale);
        split.apply_to_rows(&mut a);
        whole.apply_to_rows(&mut b);
        assert_eq!(a, target);
        assert_eq!(b, target);
    }

    #[test]
    fn an_empty_patch_only_truncates() {
        let stored = rows(9);
        let patch = RowPatch::new(5);
        assert_eq!(patch.rows_written(), 0);
        assert_eq!(patch.written().count(), 0);

        let mut vec_rows = stored.clone();
        patch.apply_to_rows(&mut vec_rows);
        assert_eq!(vec_rows, stored[..5]);
        let mut vec_labels = labels(9);
        patch.apply_to_labels(&mut vec_labels);
        assert_eq!(vec_labels, labels(5));
        let mut packed = PackedRows::new(130);
        for hv in &stored {
            packed.push(hv.as_bitvec().as_words());
        }
        patch.apply_to_packed(&mut packed);
        assert_eq!(packed.len(), 5);
        assert_eq!(packed.row_words(4), stored[4].as_bitvec().as_words());

        // A target longer than the stored rows cuts nothing and, with
        // no runs, writes nothing.
        let mut short = stored[..3].to_vec();
        RowPatch::new(7).apply_to_rows(&mut short);
        assert_eq!(short, stored[..3]);
    }
}
