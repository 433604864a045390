//! Row patches: carry a row space forward to a newer state by rewriting
//! only the runs of rows that changed.
//!
//! A served associative memory keeps one copy of its rows, the packed
//! matrix its engine searches. When the published rows change by a few
//! runs — a re-thresholded class, an appended one — the engine applies
//! the version's [`RowPatch`] to that matrix, so the work is
//! proportional to the rows changed, the way an in-memory HAM reprograms
//! one crossbar row at a time.

use crate::kernel::PackedRows;

/// One run of consecutive rows to write, starting at row `start`.
#[derive(Debug, Clone, Copy)]
struct Run<'a> {
    start: usize,
    labels: &'a [String],
    rows: &'a PackedRows,
}

/// The changes that take a row space of some length to a target state
/// of `len` rows: runs of packed rows (with their labels) written in
/// ascending order — overwriting rows already stored, appending past the
/// end — followed by truncation to `len`.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
/// use hdc::RowPatch;
///
/// let dim = Dimension::new(64)?;
/// let mut target = PackedRows::new(64);
/// for s in 0..3 {
///     target.push(Hypervector::random(dim, s).as_bitvec().as_words());
/// }
/// let labels: Vec<String> = vec!["b".into(), "c".into()];
/// let mut tail = PackedRows::new(64);
/// tail.push(target.row_words(1));
/// tail.push(target.row_words(2));
///
/// let mut stored = PackedRows::new(64);
/// stored.push(target.row_words(0));
/// stored.push(target.row_words(0));
/// let mut patch = RowPatch::new(3);
/// patch.push_run(1, &labels, &tail); // overwrite row 1, append row 2
/// patch.apply_to_packed(&mut stored);
/// assert_eq!(stored, target);
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

    /// Adds a run writing every row of `rows` (labelled `labels`) from
    /// row `start` on.
    ///
    /// # Panics
    ///
    /// Panics when `labels` and `rows` differ in length, when the run
    /// starts before the end of the previous one, or when it reaches
    /// past the target length.
    pub fn push_run(&mut self, start: usize, labels: &'a [String], rows: &'a PackedRows) {
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

    /// The row width, in bits, of every run, in order.
    pub(crate) fn run_dims(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().map(|run| run.rows.dim())
    }

    /// Applies the patch's labels to a label vector (the same runs and
    /// truncation as [`apply_to_packed`](Self::apply_to_packed)).
    ///
    /// # Panics
    ///
    /// Panics when a run starts past the end of the labels written so
    /// far (the patch was made for a longer row space).
    pub fn apply_to_labels(&self, labels: &mut Vec<String>) {
        for run in &self.runs {
            let start = run.start;
            assert!(start <= labels.len(), "run starts past the rows");
            let overlap = (labels.len() - start).min(run.labels.len());
            labels[start..start + overlap].clone_from_slice(&run.labels[..overlap]);
            labels.extend_from_slice(&run.labels[overlap..]);
        }
        labels.truncate(self.len);
    }

    /// Applies the patch to a packed row matrix.
    ///
    /// # Panics
    ///
    /// As [`apply_to_labels`](Self::apply_to_labels), and when a run's
    /// row width differs from the matrix's.
    pub fn apply_to_packed(&self, packed: &mut PackedRows) {
        for run in &self.runs {
            assert!(run.start <= packed.len(), "run starts past the rows");
            for (offset, words) in run.rows.iter_rows().enumerate() {
                let row = run.start + offset;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervector::{Dimension, Hypervector};

    const DIM: usize = 130;

    fn rows(n: u64) -> Vec<Hypervector> {
        let dim = Dimension::new(DIM).unwrap();
        (0..n).map(|s| Hypervector::random(dim, s)).collect()
    }

    fn packed(rows: &[Hypervector]) -> PackedRows {
        let mut out = PackedRows::new(DIM);
        for hv in rows {
            out.push(hv.as_bitvec().as_words());
        }
        out
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
            let run_rows: Vec<PackedRows> = runs
                .iter()
                .map(|run| packed(&target[run.clone()]))
                .collect();
            let mut patch = RowPatch::new(40);
            for (run, words) in runs.iter().zip(&run_rows) {
                patch.push_run(run.start, &target_labels[run.clone()], words);
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
            let mut vec_labels: Vec<String> = (0..stored).map(|i| format!("r{i}")).collect();
            patch.apply_to_labels(&mut vec_labels);
            assert_eq!(vec_labels, target_labels);

            let mut matrix = packed(&seed_rows);
            patch.apply_to_packed(&mut matrix);
            assert_eq!(matrix, packed(&target));
            assert_eq!(
                patch.rows_written(),
                runs.iter().map(|r| r.len()).sum::<usize>()
            );
            assert!(patch.run_dims().all(|d| d == DIM));
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn overlapping_runs_are_rejected() {
        let target = rows(8);
        let names = labels(8);
        let (first, second) = (packed(&target[2..6]), packed(&target[4..8]));
        let mut patch = RowPatch::new(8);
        patch.push_run(2, &names[2..6], &first);
        patch.push_run(4, &names[4..8], &second);
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn runs_need_one_label_per_row() {
        let target = rows(4);
        let names = labels(4);
        let words = packed(&target[..3]);
        let mut patch = RowPatch::new(4);
        patch.push_run(0, &names[..2], &words);
    }

    #[test]
    #[should_panic(expected = "runs stay within the target")]
    fn runs_past_the_target_length_are_rejected() {
        let target = rows(6);
        let names = labels(6);
        let words = packed(&target[2..6]);
        let mut patch = RowPatch::new(5);
        patch.push_run(2, &names[2..6], &words);
    }

    #[test]
    #[should_panic(expected = "run starts past the rows")]
    fn a_patch_for_a_longer_row_space_is_refused() {
        let target = rows(8);
        let names = labels(8);
        let words = packed(&target[6..8]);
        let mut patch = RowPatch::new(8);
        patch.push_run(6, &names[6..8], &words);
        // Only four rows stored: row 6 would leave a gap at 4 and 5.
        let mut stored = packed(&target[..4]);
        patch.apply_to_packed(&mut stored);
    }

    #[test]
    #[should_panic(expected = "run starts past the rows")]
    fn a_patch_for_a_longer_label_space_is_refused() {
        let target = rows(8);
        let names = labels(8);
        let words = packed(&target[6..8]);
        let mut patch = RowPatch::new(8);
        patch.push_run(6, &names[6..8], &words);
        patch.apply_to_labels(&mut labels(4));
    }

    #[test]
    fn adjacent_runs_write_like_one_run() {
        let target = rows(12);
        let names = labels(12);
        let (left, right, all) = (
            packed(&target[3..7]),
            packed(&target[7..12]),
            packed(&target[3..12]),
        );
        let mut split = RowPatch::new(12);
        split.push_run(3, &names[3..7], &left);
        split.push_run(7, &names[7..12], &right);
        let mut whole = RowPatch::new(12);
        whole.push_run(3, &names[3..12], &all);
        assert_eq!(split.rows_written(), whole.rows_written());
        let stale: Vec<Hypervector> = target[..3]
            .iter()
            .cloned()
            .chain((3..9).map(|i| Hypervector::random(target[0].dim(), 500 + i)))
            .collect();
        let (mut a, mut b) = (packed(&stale), packed(&stale));
        split.apply_to_packed(&mut a);
        whole.apply_to_packed(&mut b);
        assert_eq!(a, packed(&target));
        assert_eq!(b, packed(&target));
    }

    #[test]
    fn an_empty_patch_only_truncates() {
        let stored = rows(9);
        let patch = RowPatch::new(5);
        assert_eq!(patch.rows_written(), 0);
        assert_eq!(patch.run_dims().count(), 0);

        let mut vec_labels = labels(9);
        patch.apply_to_labels(&mut vec_labels);
        assert_eq!(vec_labels, labels(5));
        let mut matrix = packed(&stored);
        patch.apply_to_packed(&mut matrix);
        assert_eq!(matrix, packed(&stored[..5]));

        // A target longer than the stored rows cuts nothing and, with
        // no runs, writes nothing.
        let mut short = packed(&stored[..3]);
        RowPatch::new(7).apply_to_packed(&mut short);
        assert_eq!(short, packed(&stored[..3]));
    }
}
