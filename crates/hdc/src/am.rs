//! The exact software associative memory.
//!
//! After training, one learned hypervector per class is stored in a row of
//! the associative memory. Classification compares the query hypervector to
//! every row and returns the class with the minimum Hamming distance. This
//! module is the *functional reference*: the hardware architectures in
//! `ham-core` (D-HAM, R-HAM, A-HAM) must agree with it whenever their
//! approximation knobs are disabled.

use std::fmt;
use std::sync::Arc;

use crate::distortion::{DistanceDistorter, SampleMask};
use crate::error::HdcError;
use crate::hypervector::{Dimension, Distance, Hypervector};
use crate::kernel::{
    active_backend, BucketIndex, IndexBuildOptions, IndexStats, Min2, PackedRows, ResolvedScan,
    ScanCounters, ScanPlan, ScanStrategy,
};
use crate::parallel::map_even;
use crate::patch::RowPatch;

/// Identifier of a stored class (its row index in the associative memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClassId(pub usize);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class {}", self.0)
    }
}

/// Outcome of one associative search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// The winning class (nearest Hamming distance).
    pub class: ClassId,
    /// Distance of the winner, as measured by the search (after any
    /// sampling or injected error).
    pub distance: Distance,
    /// Distance of the runner-up, when at least two classes are stored.
    /// The margin `runner_up − distance` is the decision confidence.
    pub runner_up: Option<Distance>,
}

impl SearchResult {
    /// Winner-to-runner-up margin in bits; zero when only one class exists.
    pub fn margin(&self) -> usize {
        self.runner_up
            .map(|r| r.as_usize().saturating_sub(self.distance.as_usize()))
            .unwrap_or(0)
    }
}

/// A set of labeled learned hypervectors searched by minimum Hamming
/// distance.
///
/// # Examples
///
/// ```
/// use hdc::prelude::*;
///
/// let d = Dimension::new(10_000)?;
/// let classes: Vec<_> = (0..21).map(|s| Hypervector::random(d, s)).collect();
/// let mut am = AssociativeMemory::new(d);
/// for (i, hv) in classes.iter().enumerate() {
///     am.insert(format!("lang-{i}"), hv.clone())?;
/// }
///
/// // A noisy copy of class 7 still retrieves class 7.
/// let mut rng = rand::thread_rng();
/// let query = classes[7].with_flipped_bits(2_000, &mut rng);
/// let hit = am.search(&query)?;
/// assert_eq!(hit.class, ClassId(7));
/// assert_eq!(am.label(hit.class), Some("lang-7"));
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AssociativeMemory {
    dim: Dimension,
    /// The only copy of the rows: one row-major word matrix, scanned by
    /// the fused kernel of [`crate::kernel`]. Behind an `Arc` so the
    /// hardware models searching it ([`shared_rows`](Self::shared_rows))
    /// and clones share it; every write goes through `Arc::make_mut`,
    /// so a clone that writes copies the matrix instead of changing the
    /// one others search.
    packed: Arc<PackedRows>,
    labels: Vec<String>,
    /// Optional two-level bucket index over `packed`
    /// ([`build_index`](Self::build_index)). Behind an `Arc` so cloning
    /// a memory (the COW epoch publish of `VersionedMemory`) shares the
    /// index until one side mutates — `insert`/`replace_row` go through
    /// `Arc::make_mut`, so a clone never mutates the index a published
    /// version is still scanning.
    index: Option<Arc<BucketIndex>>,
    /// How searches traverse `packed`; [`ScanStrategy::Auto`] resolves
    /// against the index stats on every scan.
    strategy: ScanStrategy,
}

impl AssociativeMemory {
    /// Creates an empty associative memory over the given space.
    pub fn new(dim: Dimension) -> Self {
        AssociativeMemory {
            dim,
            packed: Arc::new(PackedRows::new(dim.get())),
            labels: Vec::new(),
            index: None,
            strategy: ScanStrategy::Auto,
        }
    }

    /// A memory over an already-packed matrix, one label per row — how
    /// loaders and versioned storage hand over rows without a
    /// per-row copy.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when `labels` does not
    /// hold one label per row (`left` is the row count).
    pub fn from_packed(packed: PackedRows, labels: Vec<String>) -> Result<Self, HdcError> {
        if labels.len() != packed.len() {
            return Err(HdcError::DimensionMismatch {
                left: packed.len(),
                right: labels.len(),
            });
        }
        Ok(AssociativeMemory {
            dim: Dimension::new(packed.dim())?,
            packed: Arc::new(packed),
            labels,
            index: None,
            strategy: ScanStrategy::Auto,
        })
    }

    /// The dimensionality of stored rows.
    pub fn dim(&self) -> Dimension {
        self.dim
    }

    /// Number of stored classes, `C`.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Returns `true` when no class is stored.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Stores a learned hypervector under a label and returns its class id.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the hypervector does not
    /// belong to this memory's space.
    pub fn insert(
        &mut self,
        label: impl Into<String>,
        hv: Hypervector,
    ) -> Result<ClassId, HdcError> {
        if hv.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: hv.dim().get(),
            });
        }
        let id = ClassId(self.len());
        Arc::make_mut(&mut self.packed).push(hv.as_bitvec().as_words());
        self.labels.push(label.into());
        if let Some(index) = self.index.as_mut() {
            Arc::make_mut(index).assign_row(&*self.packed, active_backend(), id.0);
        }
        Ok(id)
    }

    /// Borrow of the contiguous packed row matrix the searches scan.
    pub fn packed_rows(&self) -> &PackedRows {
        &self.packed
    }

    /// Releases matrix storage reserved past the stored rows — for a
    /// memory that grew by appends and is about to be kept. A matrix
    /// shared with a clone or a hardware model is left as it is (it was
    /// not grown through this memory).
    pub fn shrink_to_fit(&mut self) {
        if let Some(packed) = Arc::get_mut(&mut self.packed) {
            packed.shrink_to_fit();
        }
    }

    /// A shared handle to the packed row matrix — what a hardware model
    /// searching these rows holds instead of a copy. While a handle is
    /// alive, the next write to this memory copies the matrix, so
    /// release handles before writing.
    pub fn shared_rows(&self) -> Arc<PackedRows> {
        Arc::clone(&self.packed)
    }

    /// How searches traverse the packed matrix. The default
    /// [`ScanStrategy::Auto`] resolves against the index stats on every
    /// scan, so attaching an index is enough to enable pruning when the
    /// data shape supports it.
    pub fn scan_strategy(&self) -> ScanStrategy {
        self.strategy
    }

    /// Sets the scan strategy for every subsequent search.
    pub fn set_scan_strategy(&mut self, strategy: ScanStrategy) {
        self.strategy = strategy;
    }

    /// Builder-style [`set_scan_strategy`](Self::set_scan_strategy).
    pub fn with_scan_strategy(mut self, strategy: ScanStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builds (or rebuilds) the two-level bucket index over the current
    /// rows and attaches it, returning its stats — `None` when the
    /// memory is empty (nothing to index). Exact search results are
    /// unchanged by construction; only the work per query changes.
    pub fn build_index(&mut self, options: IndexBuildOptions) -> Option<IndexStats> {
        let index = BucketIndex::build(&self.packed, active_backend(), options)?;
        let stats = index.stats();
        self.index = Some(Arc::new(index));
        Some(stats)
    }

    /// Attaches an already-built index (the snapshot warm-restart
    /// path).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the index does not
    /// cover exactly this memory's rows (row count and width must both
    /// match).
    pub fn attach_index(&mut self, index: Arc<BucketIndex>) -> Result<(), HdcError> {
        if index.rows() != self.packed.len()
            || index.centroids().words_per_row() != self.packed.words_per_row()
        {
            return Err(HdcError::DimensionMismatch {
                left: self.packed.len(),
                right: index.rows(),
            });
        }
        self.index = Some(index);
        Ok(())
    }

    /// The attached bucket index, if any.
    pub fn index(&self) -> Option<&BucketIndex> {
        self.index.as_deref()
    }

    /// Shared handle to the attached index (what snapshots serialize).
    pub fn index_handle(&self) -> Option<Arc<BucketIndex>> {
        self.index.clone()
    }

    /// Detaches the index; searches fall back to the linear scan.
    pub fn drop_index(&mut self) {
        self.index = None;
    }

    /// Does nothing: no scan plan reads a second copy of the rows. Kept
    /// only because perfbench calls it; delete with the next benchmark
    /// change.
    pub fn build_sliced(&mut self) {}

    /// The scan plan every search in this memory runs: the strategy
    /// resolved against the attached index.
    fn plan(&self) -> ScanPlan<'_> {
        ScanPlan::new(
            active_backend(),
            self.strategy,
            self.index.as_deref(),
            self.packed.len(),
            self.dim.get(),
        )
    }

    /// The one min-2 kernel call every search in this memory routes
    /// through.
    fn scan(
        &self,
        query: &[u64],
        mask: Option<&[u64]>,
        counters: Option<&mut ScanCounters>,
    ) -> Option<Min2> {
        self.packed.min2(&self.plan(), query, mask, counters)
    }

    /// The learned hypervector of a class, if stored, copied out of the
    /// packed matrix ([`row_words`](Self::row_words) borrows it).
    pub fn row(&self, class: ClassId) -> Option<Hypervector> {
        self.row_words(class)
            .map(|words| Hypervector::from_words(self.dim, words))
    }

    /// The packed words of a class's row, if stored.
    pub fn row_words(&self, class: ClassId) -> Option<&[u64]> {
        (class.0 < self.len()).then(|| self.packed.row_words(class.0))
    }

    /// Replaces the stored hypervector of a class in place, keeping its
    /// label — the write path used by fault injection (corrupting a row)
    /// and scrub/repair (restoring it from a golden copy).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the replacement does
    /// not belong to this memory's space and [`HdcError::UnknownClass`]
    /// when `class` is not stored.
    pub fn replace_row(&mut self, class: ClassId, hv: Hypervector) -> Result<(), HdcError> {
        if hv.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: hv.dim().get(),
            });
        }
        if class.0 >= self.len() {
            return Err(HdcError::UnknownClass {
                class: class.0,
                stored: self.len(),
            });
        }
        Arc::make_mut(&mut self.packed).replace(class.0, hv.as_bitvec().as_words());
        if let Some(index) = self.index.as_mut() {
            Arc::make_mut(index).assign_row(&*self.packed, active_backend(), class.0);
        }
        Ok(())
    }

    /// Rewrites the stored rows and labels by `patch`. The bucket index
    /// is detached first — a patch may rewrite any row, and detaching
    /// keeps the writes from copying the index — so re-attach one that
    /// covers the patched rows ([`attach_index`](Self::attach_index)).
    /// The scan strategy is kept.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when a patched row belongs
    /// to another space; nothing is changed then.
    ///
    /// # Panics
    ///
    /// Panics when the patch was made for a longer memory (a run starts
    /// past the stored rows).
    pub fn apply_patch(&mut self, patch: &RowPatch<'_>) -> Result<(), HdcError> {
        if let Some(dim) = patch.run_dims().find(|&dim| dim != self.dim.get()) {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: dim,
            });
        }
        self.index = None;
        patch.apply_to_packed(Arc::make_mut(&mut self.packed));
        patch.apply_to_labels(&mut self.labels);
        Ok(())
    }

    /// The label of a class, if stored.
    pub fn label(&self, class: ClassId) -> Option<&str> {
        self.labels.get(class.0).map(String::as_str)
    }

    /// Iterates over `(class, label, hypervector)` in row order, each
    /// row copied out of the packed matrix
    /// ([`iter_words`](Self::iter_words) borrows them instead).
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &str, Hypervector)> {
        self.iter_words()
            .map(|(class, label, words)| (class, label, Hypervector::from_words(self.dim, words)))
    }

    /// Iterates over `(class, label, packed words)` in row order.
    pub fn iter_words(&self) -> impl Iterator<Item = (ClassId, &str, &[u64])> {
        self.packed
            .iter_rows()
            .zip(&self.labels)
            .enumerate()
            .map(|(i, (words, label))| (ClassId(i), label.as_str(), words))
    }

    /// Exact distances from `query` to every stored row, in row order.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] for a query from another
    /// space and [`HdcError::EmptyMemory`] when nothing is stored.
    pub fn distances(&self, query: &Hypervector) -> Result<Vec<Distance>, HdcError> {
        self.check_query(query)?;
        let mut distances = Vec::with_capacity(self.packed.len());
        self.packed
            .distances_into(query.as_bitvec().as_words(), None, &mut distances);
        Ok(distances.into_iter().map(Distance::new).collect())
    }

    /// Exact nearest-distance search, running the fused early-abandoning
    /// kernel over the packed row matrix.
    ///
    /// Ties resolve to the lowest row index, matching a deterministic
    /// hardware comparator tree.
    ///
    /// # Errors
    ///
    /// Same conditions as [`distances`](Self::distances).
    pub fn search(&self, query: &Hypervector) -> Result<SearchResult, HdcError> {
        self.check_query(query)?;
        let hit = self
            .scan(query.as_bitvec().as_words(), None, None)
            .expect("checked non-empty");
        Ok(Self::from_min2(hit))
    }

    /// [`search`](Self::search) that also reports how much scan work
    /// the query cost ([`ScanCounters`]): rows handed to the distance
    /// backend vs. rows the bucket index proved prunable. The result is
    /// identical to [`search`](Self::search).
    ///
    /// # Errors
    ///
    /// Same conditions as [`distances`](Self::distances).
    pub fn search_counted(
        &self,
        query: &Hypervector,
    ) -> Result<(SearchResult, ScanCounters), HdcError> {
        self.check_query(query)?;
        let mut counters = ScanCounters::default();
        let hit = self
            .scan(query.as_bitvec().as_words(), None, Some(&mut counters))
            .expect("checked non-empty");
        Ok((Self::from_min2(hit), counters))
    }

    /// Classifies a whole batch of queries, split evenly across `threads`
    /// workers of the [`crate::parallel`] executor; results come back in
    /// input order and are identical to calling [`search`](Self::search)
    /// per query.
    ///
    /// `threads` is capped at the batch size; `0` means one thread per
    /// available core.
    ///
    /// # Errors
    ///
    /// Returns the first (in input order) query error:
    /// [`HdcError::EmptyMemory`] when nothing is stored (and the batch is
    /// nonempty) and [`HdcError::DimensionMismatch`] when a query belongs
    /// to another space.
    pub fn search_batch(
        &self,
        queries: &[Hypervector],
        threads: usize,
    ) -> Result<Vec<SearchResult>, HdcError> {
        map_even(queries.len(), threads, |i| self.search(&queries[i]))
            .into_iter()
            .collect()
    }

    /// [`search_batch`](Self::search_batch) with the serving contract: one
    /// `Result` per query in input order, so an invalid query (or a worker
    /// panic, contained via `catch_unwind` and surfaced as
    /// [`HdcError::SearchPanicked`]) costs exactly its own slot instead of
    /// the whole batch. An empty memory fails every slot with
    /// [`HdcError::EmptyMemory`].
    pub fn search_batch_resilient(
        &self,
        queries: &[Hypervector],
        threads: usize,
    ) -> Vec<Result<SearchResult, HdcError>> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        map_even(queries.len(), threads, |index| {
            catch_unwind(AssertUnwindSafe(|| self.search(&queries[index])))
                .unwrap_or(Err(HdcError::SearchPanicked { query: index }))
        })
    }

    /// Search with the distance computed only on the dimensions kept by
    /// `mask` — the structured-sampling approximation of D-HAM/R-HAM.
    ///
    /// # Errors
    ///
    /// Same conditions as [`distances`](Self::distances), plus
    /// [`HdcError::DimensionMismatch`] when the mask has a different length.
    pub fn search_sampled(
        &self,
        query: &Hypervector,
        mask: &SampleMask,
    ) -> Result<SearchResult, HdcError> {
        self.check_query(query)?;
        if mask.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: mask.dim().get(),
            });
        }
        let hit = self
            .scan(
                query.as_bitvec().as_words(),
                Some(mask.as_bitvec().as_words()),
                None,
            )
            .expect("checked non-empty");
        Ok(Self::from_min2(hit))
    }

    /// Search with per-row distance error injected by `distorter` — the
    /// harness behind the paper's Fig. 1 robustness study.
    ///
    /// # Errors
    ///
    /// Same conditions as [`distances`](Self::distances).
    pub fn search_distorted(
        &self,
        query: &Hypervector,
        distorter: &mut DistanceDistorter,
    ) -> Result<SearchResult, HdcError> {
        let distances = self.distances(query)?;
        let distorted: Vec<Distance> = distances
            .iter()
            .map(|&d| distorter.distort(d, self.dim))
            .collect();
        Ok(Self::pick_winner(&distorted))
    }

    /// The `k` nearest classes in increasing `(distance, row)` order —
    /// ties anywhere in the ranking, including at the cut, keep the
    /// lower row index. Returns fewer than `k` entries when the memory
    /// holds fewer classes, and an empty list for `k == 0` (a valid
    /// "rank nothing" request, not an error).
    ///
    /// The ranking runs on [`PackedRows::top_k`] under this memory's
    /// scan plan; every exact plan ranks identically.
    ///
    /// # Errors
    ///
    /// Same conditions as [`distances`](Self::distances) — an invalid
    /// query is rejected even when `k == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hdc::prelude::*;
    ///
    /// let d = Dimension::new(1_000)?;
    /// let mut am = AssociativeMemory::new(d);
    /// for s in 0..5u64 {
    ///     am.insert(format!("c{s}"), Hypervector::random(d, s))?;
    /// }
    /// let top = am.search_top_k(&am.row(ClassId(2)).unwrap(), 3)?;
    /// assert_eq!(top[0].0, ClassId(2));
    /// assert!(top[0].1 < top[1].1);
    /// assert!(am.search_top_k(&am.row(ClassId(2)).unwrap(), 0)?.is_empty());
    /// # Ok::<(), hdc::HdcError>(())
    /// ```
    pub fn search_top_k(
        &self,
        query: &Hypervector,
        k: usize,
    ) -> Result<Vec<(ClassId, Distance)>, HdcError> {
        self.check_query(query)?;
        let mut ranked = Vec::new();
        self.packed.top_k(
            &self.plan(),
            query.as_bitvec().as_words(),
            k,
            &mut ranked,
            None,
        );
        Ok(ranked
            .into_iter()
            .map(|(row, distance)| (ClassId(row), Distance::new(distance)))
            .collect())
    }

    /// [`search_top_k`](Self::search_top_k) that also reports how much
    /// scan work the ranking cost ([`ScanCounters`]) — what workload
    /// scorers aggregate into per-scenario telemetry. The ranking is
    /// identical to [`search_top_k`](Self::search_top_k).
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_top_k`](Self::search_top_k).
    pub fn search_top_k_counted(
        &self,
        query: &Hypervector,
        k: usize,
    ) -> Result<(Vec<(ClassId, Distance)>, ScanCounters), HdcError> {
        self.check_query(query)?;
        let mut ranked = Vec::new();
        let mut counters = ScanCounters::default();
        self.packed.top_k(
            &self.plan(),
            query.as_bitvec().as_words(),
            k,
            &mut ranked,
            Some(&mut counters),
        );
        Ok((
            ranked
                .into_iter()
                .map(|(row, distance)| (ClassId(row), Distance::new(distance)))
                .collect(),
            counters,
        ))
    }

    /// The concrete traversal ([`ResolvedScan`]) this memory's current
    /// [`ScanStrategy`] resolves to against its attached index — how
    /// telemetry observes which engine [`ScanStrategy::Auto`] picked.
    pub fn resolved_strategy(&self) -> ResolvedScan {
        self.plan().resolved()
    }

    fn check_query(&self, query: &Hypervector) -> Result<(), HdcError> {
        if query.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: query.dim().get(),
            });
        }
        if self.is_empty() {
            return Err(HdcError::EmptyMemory);
        }
        Ok(())
    }

    /// Lifts a kernel scan outcome into a [`SearchResult`].
    fn from_min2(hit: Min2) -> SearchResult {
        SearchResult {
            class: ClassId(hit.best),
            distance: Distance::new(hit.best_distance),
            runner_up: hit.runner_up.map(Distance::new),
        }
    }

    /// Minimum + runner-up scan over an explicit distance list — the path
    /// for distorted distances, where every row's value must exist before
    /// error injection.
    fn pick_winner(distances: &[Distance]) -> SearchResult {
        debug_assert!(!distances.is_empty());
        let mut best = 0usize;
        for (i, d) in distances.iter().enumerate().skip(1) {
            if *d < distances[best] {
                best = i;
            }
        }
        let runner_up = distances
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != best)
            .map(|(_, d)| *d)
            .min();
        SearchResult {
            class: ClassId(best),
            distance: distances[best],
            runner_up,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::ErrorModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dim(d: usize) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn memory_with(d: usize, c: usize) -> (AssociativeMemory, Vec<Hypervector>) {
        let dm = dim(d);
        let rows: Vec<_> = (0..c as u64).map(|s| Hypervector::random(dm, s)).collect();
        let mut am = AssociativeMemory::new(dm);
        for (i, hv) in rows.iter().enumerate() {
            am.insert(format!("c{i}"), hv.clone()).unwrap();
        }
        (am, rows)
    }

    #[test]
    fn exact_query_hits_with_zero_distance() {
        let (am, rows) = memory_with(10_000, 21);
        for (i, row) in rows.iter().enumerate() {
            let hit = am.search(row).unwrap();
            assert_eq!(hit.class, ClassId(i));
            assert_eq!(hit.distance, Distance::ZERO);
            assert!(hit.runner_up.unwrap().as_usize() > 4_000);
            assert!(hit.margin() > 4_000);
        }
    }

    #[test]
    fn noisy_query_still_hits() {
        let (am, rows) = memory_with(10_000, 21);
        let mut rng = StdRng::seed_from_u64(5);
        let query = rows[13].with_flipped_bits(3_000, &mut rng);
        assert_eq!(am.search(&query).unwrap().class, ClassId(13));
    }

    #[test]
    fn empty_memory_errors() {
        let am = AssociativeMemory::new(dim(100));
        let q = Hypervector::random(dim(100), 1);
        assert_eq!(am.search(&q).unwrap_err(), HdcError::EmptyMemory);
        assert!(am.is_empty());
    }

    #[test]
    fn mismatched_query_errors() {
        let (am, _) = memory_with(128, 4);
        let q = Hypervector::random(dim(256), 1);
        assert!(matches!(
            am.search(&q),
            Err(HdcError::DimensionMismatch {
                left: 128,
                right: 256
            })
        ));
    }

    #[test]
    fn mismatched_insert_errors() {
        let mut am = AssociativeMemory::new(dim(128));
        let hv = Hypervector::random(dim(64), 1);
        assert!(am.insert("x", hv).is_err());
        assert_eq!(am.len(), 0);
    }

    #[test]
    fn labels_and_rows_are_retrievable() {
        let (am, rows) = memory_with(512, 3);
        assert_eq!(am.label(ClassId(2)), Some("c2"));
        assert_eq!(am.row(ClassId(1)), Some(rows[1].clone()));
        assert_eq!(
            am.row_words(ClassId(2)),
            Some(rows[2].as_bitvec().as_words())
        );
        assert_eq!(am.row_words(ClassId(3)), None);
        assert_eq!(am.label(ClassId(3)), None);
        assert_eq!(am.iter().count(), 3);
    }

    #[test]
    fn distances_are_row_ordered() {
        let (am, rows) = memory_with(1_000, 5);
        let dists = am.distances(&rows[2]).unwrap();
        assert_eq!(dists.len(), 5);
        assert_eq!(dists[2], Distance::ZERO);
    }

    #[test]
    fn ties_resolve_to_lowest_index() {
        let dm = dim(64);
        let hv = Hypervector::random(dm, 1);
        let mut am = AssociativeMemory::new(dm);
        am.insert("first", hv.clone()).unwrap();
        am.insert("dup", hv.clone()).unwrap();
        let hit = am.search(&hv).unwrap();
        assert_eq!(hit.class, ClassId(0));
        assert_eq!(hit.runner_up, Some(Distance::ZERO));
        assert_eq!(hit.margin(), 0);
    }

    #[test]
    fn single_class_has_no_runner_up() {
        let dm = dim(64);
        let hv = Hypervector::random(dm, 1);
        let mut am = AssociativeMemory::new(dm);
        am.insert("only", hv.clone()).unwrap();
        let hit = am.search(&hv).unwrap();
        assert_eq!(hit.runner_up, None);
        assert_eq!(hit.margin(), 0);
    }

    #[test]
    fn sampled_search_with_full_mask_equals_exact() {
        let (am, rows) = memory_with(2_000, 8);
        let mask = SampleMask::keep_first(dim(2_000), 2_000).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let q = rows[4].with_flipped_bits(400, &mut rng);
        assert_eq!(
            am.search_sampled(&q, &mask).unwrap().class,
            am.search(&q).unwrap().class
        );
    }

    #[test]
    fn replace_row_swaps_vector_and_keeps_label() {
        let (mut am, rows) = memory_with(256, 3);
        let new = Hypervector::random(dim(256), 99);
        am.replace_row(ClassId(1), new.clone()).unwrap();
        assert_eq!(am.row(ClassId(1)), Some(new.clone()));
        assert_eq!(am.label(ClassId(1)), Some("c1"));
        assert_eq!(am.row(ClassId(0)), Some(rows[0].clone()));
        assert!(am
            .replace_row(ClassId(0), Hypervector::random(dim(64), 1))
            .is_err());
        assert_eq!(
            am.replace_row(ClassId(9), Hypervector::random(dim(256), 1)),
            Err(HdcError::UnknownClass {
                class: 9,
                stored: 3
            })
        );
    }

    #[test]
    fn batch_search_matches_per_query_search() {
        let (am, rows) = memory_with(2_048, 13);
        let mut rng = StdRng::seed_from_u64(17);
        let queries: Vec<Hypervector> = (0..37)
            .map(|i| rows[i % rows.len()].with_flipped_bits(400, &mut rng))
            .collect();
        let serial: Vec<SearchResult> = queries.iter().map(|q| am.search(q).unwrap()).collect();
        for threads in [0, 1, 2, 5, 64] {
            assert_eq!(am.search_batch(&queries, threads).unwrap(), serial);
        }
    }

    #[test]
    fn batch_search_edge_cases() {
        let (am, rows) = memory_with(256, 3);
        assert!(am.search_batch(&[], 4).unwrap().is_empty());
        let alien = Hypervector::random(dim(128), 1);
        assert!(am.search_batch(&[rows[0].clone(), alien], 4).is_err());
        let empty = AssociativeMemory::new(dim(256));
        assert_eq!(
            empty.search_batch(&[rows[0].clone()], 2).unwrap_err(),
            HdcError::EmptyMemory
        );
    }

    #[test]
    fn resilient_batch_search_isolates_bad_queries() {
        let (am, rows) = memory_with(256, 4);
        let mut queries: Vec<Hypervector> = rows.clone();
        queries.insert(2, Hypervector::random(dim(128), 9)); // alien space
        for threads in [1, 3] {
            let results = am.search_batch_resilient(&queries, threads);
            assert_eq!(results.len(), 5);
            assert!(matches!(
                results[2],
                Err(HdcError::DimensionMismatch { .. })
            ));
            // Every other slot is bit-identical to the serial search.
            for (i, result) in results.iter().enumerate() {
                if i != 2 {
                    let q = &queries[i];
                    assert_eq!(result.as_ref().unwrap(), &am.search(q).unwrap());
                }
            }
        }
        assert!(am.search_batch_resilient(&[], 4).is_empty());
        let empty = AssociativeMemory::new(dim(256));
        let results = empty.search_batch_resilient(&rows[..2], 2);
        assert!(results.iter().all(|r| r == &Err(HdcError::EmptyMemory)));
    }

    #[test]
    fn packed_rows_track_inserts_and_replacements() {
        let (mut am, rows) = memory_with(300, 4);
        assert_eq!(am.packed_rows().len(), 4);
        assert_eq!(am.packed_rows().dim(), 300);
        assert_eq!(
            am.packed_rows().row_words(2),
            rows[2].as_bitvec().as_words()
        );
        let new = Hypervector::random(dim(300), 50);
        am.replace_row(ClassId(1), new.clone()).unwrap();
        assert_eq!(am.packed_rows().row_words(1), new.as_bitvec().as_words());
        // The packed copy drives the search: the replaced row wins for its
        // own pattern.
        assert_eq!(am.search(&new).unwrap().class, ClassId(1));
    }

    #[test]
    fn sampled_search_rejects_wrong_mask_length() {
        let (am, rows) = memory_with(100, 2);
        let mask = SampleMask::keep_first(dim(50), 10).unwrap();
        assert!(am.search_sampled(&rows[0], &mask).is_err());
    }

    #[test]
    fn indexed_memory_searches_bit_identically() {
        let (mut am, rows) = memory_with(2_048, 24);
        let plain = am.clone();
        let stats = am.build_index(IndexBuildOptions::default()).unwrap();
        assert_eq!(stats.rows, 24);
        assert!(am.index().is_some());
        let mut rng = StdRng::seed_from_u64(9);
        for strategy in [
            ScanStrategy::Auto,
            ScanStrategy::Indexed,
            ScanStrategy::Probe { nprobe: usize::MAX },
        ] {
            am.set_scan_strategy(strategy);
            for (i, row) in rows.iter().enumerate() {
                let q = row.with_flipped_bits(300, &mut rng);
                assert_eq!(am.search(&q).unwrap(), plain.search(&q).unwrap());
                assert_eq!(
                    am.search_top_k(&q, 5).unwrap(),
                    plain.search_top_k(&q, 5).unwrap(),
                    "top-k {strategy:?} row {i}"
                );
            }
        }
    }

    #[test]
    fn search_counted_reports_work_and_matches_search() {
        let (mut am, rows) = memory_with(1_024, 16);
        let (hit, counters) = am.search_counted(&rows[3]).unwrap();
        assert_eq!(hit, am.search(&rows[3]).unwrap());
        // Without an index the direct scan touches every row.
        assert_eq!(counters.rows_scanned, 16);
        assert_eq!(counters.buckets_probed, 0);
        am.build_index(IndexBuildOptions::default()).unwrap();
        am.set_scan_strategy(ScanStrategy::Indexed);
        let (indexed_hit, counters) = am.search_counted(&rows[3]).unwrap();
        assert_eq!(indexed_hit, hit);
        assert_eq!(counters.rows_scanned + counters.rows_pruned, 16);
        assert!(counters.buckets_probed >= 1);
    }

    #[test]
    fn index_follows_inserts_and_replacements() {
        let (mut am, _) = memory_with(512, 10);
        am.build_index(IndexBuildOptions::default()).unwrap();
        am.set_scan_strategy(ScanStrategy::Indexed);
        let new = Hypervector::random(dim(512), 77);
        am.insert("late", new.clone()).unwrap();
        assert_eq!(am.index().unwrap().rows(), 11);
        assert_eq!(am.index().unwrap().dirty(), 1);
        assert_eq!(am.search(&new).unwrap().class, ClassId(10));
        let swapped = Hypervector::random(dim(512), 88);
        am.replace_row(ClassId(4), swapped.clone()).unwrap();
        assert_eq!(am.search(&swapped).unwrap().class, ClassId(4));
        // A clone that mutates must not disturb the original's index
        // (the COW epoch-publish contract).
        let frozen = am.clone();
        let mut publishing = am.clone();
        let next = Hypervector::random(dim(512), 99);
        publishing.insert("next", next.clone()).unwrap();
        assert_eq!(frozen.index().unwrap().rows(), 11);
        assert_eq!(publishing.index().unwrap().rows(), 12);
        assert_eq!(am.index().unwrap().rows(), 11);
        // The frozen clone keeps scanning the pre-mutation rows.
        assert_eq!(publishing.search(&next).unwrap().class, ClassId(11));
        assert!(frozen.search(&next).unwrap().distance.as_usize() > 0);
    }

    #[test]
    fn probe_search_survives_an_update_that_empties_a_bucket() {
        // Four rows in four buckets: each row is its own medoid. Moving
        // row 0 onto row 1 leaves bucket sizes [1, 0, 2, 1], and the old
        // row 0 is closest to the emptied bucket's centroid. One probe
        // must still find a row.
        let (mut am, rows) = memory_with(1_024, 4);
        am.build_index(IndexBuildOptions {
            buckets: 4,
            ..IndexBuildOptions::default()
        })
        .unwrap();
        am.set_scan_strategy(ScanStrategy::Probe { nprobe: 1 });
        am.replace_row(ClassId(0), rows[1].clone()).unwrap();
        let index = am.index().unwrap();
        let mut sizes: Vec<usize> = (0..index.buckets())
            .map(|b| index.members(b).len())
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [0, 1, 1, 2]);
        let (hit, counters) = am.search_counted(&rows[0]).unwrap();
        assert!(hit.class.0 < 4);
        assert_eq!(counters.buckets_probed, 1);
        assert!(!am.search_top_k(&rows[0], 2).unwrap().is_empty());
        // A stored row is found exactly through its own bucket.
        assert_eq!(am.search(&rows[2]).unwrap().class, ClassId(2));
    }

    #[test]
    fn apply_patch_detaches_the_index_and_keeps_the_strategy() {
        let (mut am, _) = memory_with(512, 20);
        am.build_index(IndexBuildOptions::default()).unwrap();
        am.set_scan_strategy(ScanStrategy::Indexed);
        assert_eq!(
            am.resolved_strategy(),
            ResolvedScan::Indexed { nprobe: None }
        );
        // Rewrite row 3, append two rows, then cut back to 21 rows.
        let labels: Vec<String> = vec!["r3".into(), "a".into(), "b".into()];
        let written: Vec<Hypervector> = (0..3u64)
            .map(|s| Hypervector::random(dim(512), 500 + s))
            .collect();
        let packed = |rows: &[Hypervector]| {
            let mut out = PackedRows::new(rows[0].dim().get());
            for hv in rows {
                out.push(hv.as_bitvec().as_words());
            }
            out
        };
        let mut target = AssociativeMemory::new(dim(512));
        for (class, label, hv) in am.iter() {
            match class.0 {
                3 => target.insert("r3", written[0].clone()).unwrap(),
                _ => target.insert(label, hv).unwrap(),
            };
        }
        target.insert("a", written[1].clone()).unwrap();
        let (run3, run20) = (packed(&written[..1]), packed(&written[1..2]));
        let mut patch = RowPatch::new(21);
        patch.push_run(3, &labels[..1], &run3);
        patch.push_run(20, &labels[1..2], &run20);
        am.apply_patch(&patch).unwrap();
        assert!(am.index().is_none(), "a patch detaches the index");
        assert_eq!(am.scan_strategy(), ScanStrategy::Indexed);
        assert_eq!(am.resolved_strategy(), ResolvedScan::Direct);
        assert_eq!(am.packed_rows(), target.packed_rows());
        assert!(am
            .iter()
            .map(|(_, l, _)| l)
            .eq(target.iter().map(|(_, l, _)| l)));
        assert_eq!(am.search(&written[0]).unwrap().class, ClassId(3));
        // Re-attaching an index over the patched rows restores the walk.
        am.build_index(IndexBuildOptions::default()).unwrap();
        assert_eq!(
            am.resolved_strategy(),
            ResolvedScan::Indexed { nprobe: None }
        );
        assert_eq!(am.search(&written[1]).unwrap().class, ClassId(20));
        // A patch from another space changes nothing.
        let foreign = packed(&[Hypervector::random(dim(256), 1)]);
        let mut bad = RowPatch::new(21);
        bad.push_run(0, &labels[..1], &foreign);
        assert!(am.apply_patch(&bad).is_err());
        assert!(am.index().is_some());
        assert_eq!(am.packed_rows(), target.packed_rows());
    }

    #[test]
    fn build_sliced_changes_neither_the_plan_nor_the_answers() {
        let (mut am, rows) = memory_with(1_024, 30);
        am.build_index(IndexBuildOptions::default()).unwrap();
        let before = am.clone();
        am.build_sliced();
        assert_eq!(am.resolved_strategy(), before.resolved_strategy());
        assert_eq!(am.packed_rows(), before.packed_rows());
        for row in &rows {
            assert_eq!(
                am.search_counted(row).unwrap(),
                before.search_counted(row).unwrap()
            );
        }
    }

    #[test]
    fn attach_index_validates_coverage() {
        let (mut am, _) = memory_with(512, 10);
        let (other, _) = memory_with(512, 9);
        let index = Arc::new(
            crate::kernel::BucketIndex::build(
                other.packed_rows(),
                crate::kernel::active_backend(),
                IndexBuildOptions::default(),
            )
            .unwrap(),
        );
        assert!(am.attach_index(index.clone()).is_err());
        let (mut right, _) = memory_with(512, 9);
        right.attach_index(index).unwrap();
        assert!(right.index().is_some());
        right.drop_index();
        assert!(right.index().is_none());
    }
    #[test]
    fn drop_index_falls_back_to_the_direct_scan() {
        let (mut am, rows) = memory_with(1_024, 30);
        am.build_index(IndexBuildOptions::default()).unwrap();
        am.set_scan_strategy(ScanStrategy::Indexed);
        assert_eq!(
            am.resolved_strategy(),
            ResolvedScan::Indexed { nprobe: None }
        );
        let mut rng = StdRng::seed_from_u64(21);
        let queries: Vec<Hypervector> = rows
            .iter()
            .map(|row| row.with_flipped_bits(200, &mut rng))
            .collect();
        let before: Vec<SearchResult> = queries.iter().map(|q| am.search(q).unwrap()).collect();
        am.drop_index();
        assert!(am.index().is_none());
        assert!(am.index_handle().is_none());
        // The strategy is kept; without an index it resolves to Direct.
        assert_eq!(am.scan_strategy(), ScanStrategy::Indexed);
        assert_eq!(am.resolved_strategy(), ResolvedScan::Direct);
        let (_, counters) = am.search_counted(&queries[0]).unwrap();
        assert_eq!(counters.rows_scanned, 30);
        let after: Vec<SearchResult> = queries.iter().map(|q| am.search(q).unwrap()).collect();
        assert_eq!(after, before);
    }

    #[test]
    fn undistorted_search_matches_the_exact_search() {
        let (am, rows) = memory_with(2_000, 12);
        let mut rng = StdRng::seed_from_u64(8);
        for model in [
            ErrorModel::None,
            ErrorModel::UniformBits(0),
            ErrorModel::ExcludedBits(0),
        ] {
            let mut distorter = DistanceDistorter::new(model, 5);
            for row in rows.iter().step_by(3) {
                let q = row.with_flipped_bits(500, &mut rng);
                assert_eq!(
                    am.search_distorted(&q, &mut distorter).unwrap(),
                    am.search(&q).unwrap(),
                    "{model:?}"
                );
            }
        }
        let empty = AssociativeMemory::new(dim(2_000));
        let mut distorter = DistanceDistorter::new(ErrorModel::None, 5);
        assert_eq!(
            empty.search_distorted(&rows[0], &mut distorter),
            Err(HdcError::EmptyMemory)
        );
    }

    #[test]
    fn iter_walks_classes_in_row_order() {
        let (mut am, rows) = memory_with(256, 5);
        let swapped = Hypervector::random(dim(256), 77);
        am.replace_row(ClassId(3), swapped.clone()).unwrap();
        let seen: Vec<(ClassId, String, Hypervector)> = am
            .iter()
            .map(|(class, label, hv)| (class, label.to_string(), hv.clone()))
            .collect();
        assert_eq!(seen.len(), 5);
        for (i, (class, label, hv)) in seen.iter().enumerate() {
            assert_eq!(*class, ClassId(i));
            assert_eq!(label, &format!("c{i}"));
            let expected = if i == 3 { &swapped } else { &rows[i] };
            assert_eq!(hv, expected);
            assert_eq!(
                am.packed_rows().row_words(i),
                expected.as_bitvec().as_words()
            );
        }
    }

    #[test]
    fn counted_rankings_match_rankings_on_every_plan() {
        let (mut am, rows) = memory_with(1_024, 40);
        am.build_index(IndexBuildOptions::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for strategy in [
            ScanStrategy::Direct,
            ScanStrategy::Indexed,
            ScanStrategy::Auto,
        ] {
            am.set_scan_strategy(strategy);
            for row in rows.iter().step_by(5) {
                let q = row.with_flipped_bits(250, &mut rng);
                for k in [0usize, 1, 7, 40, 41] {
                    let (ranked, counters) = am.search_top_k_counted(&q, k).unwrap();
                    assert_eq!(
                        ranked,
                        am.search_top_k(&q, k).unwrap(),
                        "{strategy:?} k={k}"
                    );
                    if k > 0 {
                        assert_eq!(counters.rows_scanned + counters.rows_pruned, 40);
                    }
                }
            }
        }
    }

    #[test]
    fn masked_search_is_plan_independent() {
        let (mut am, rows) = memory_with(2_048, 36);
        let direct = am.clone().with_scan_strategy(ScanStrategy::Direct);
        am.build_index(IndexBuildOptions::default()).unwrap();
        am.set_scan_strategy(ScanStrategy::Indexed);
        let mut rng = StdRng::seed_from_u64(12);
        for (i, kept) in [2_048usize, 1_843, 1_024, 64].into_iter().enumerate() {
            let mask = SampleMask::keep_random(dim(2_048), kept, i as u64).unwrap();
            for row in rows.iter().step_by(4) {
                let q = row.with_flipped_bits(400, &mut rng);
                assert_eq!(
                    am.search_sampled(&q, &mask).unwrap(),
                    direct.search_sampled(&q, &mask).unwrap(),
                    "kept {kept}"
                );
            }
        }
    }

    #[test]
    fn a_packed_matrix_becomes_a_memory_and_is_shared_until_written() {
        let (am, rows) = memory_with(300, 6);
        let labels: Vec<String> = (0..6).map(|i| format!("c{i}")).collect();
        let rebuilt = AssociativeMemory::from_packed(am.packed_rows().clone(), labels).unwrap();
        assert!(rebuilt.iter().eq(am.iter()));
        assert_eq!(
            rebuilt.search(&rows[4]).unwrap(),
            am.search(&rows[4]).unwrap()
        );
        assert_eq!(
            AssociativeMemory::from_packed(am.packed_rows().clone(), vec!["one".into()])
                .unwrap_err(),
            HdcError::DimensionMismatch { left: 6, right: 1 }
        );

        // A handle shares the matrix; the next write copies it, and the
        // handle keeps the rows it was taken over.
        let mut written = am.clone();
        let handle = written.shared_rows();
        assert!(Arc::ptr_eq(&handle, &am.shared_rows()));
        written.shrink_to_fit();
        assert!(
            Arc::ptr_eq(&handle, &written.shared_rows()),
            "shared: left alone"
        );
        let new = Hypervector::random(dim(300), 60);
        written.replace_row(ClassId(2), new.clone()).unwrap();
        assert!(!Arc::ptr_eq(&handle, &written.shared_rows()));
        assert_eq!(handle.row_words(2), rows[2].as_bitvec().as_words());
        assert_eq!(written.row(ClassId(2)), Some(new));
        // Unshared, a write keeps the matrix where it is.
        let matrix = Arc::as_ptr(&written.shared_rows());
        written
            .insert("late", Hypervector::random(dim(300), 61))
            .unwrap();
        written.shrink_to_fit();
        assert_eq!(Arc::as_ptr(&written.shared_rows()), matrix);
        assert_eq!(written.len(), 7);
    }

    #[test]
    fn an_empty_memory_has_no_index_and_ranks_nothing() {
        let mut am = AssociativeMemory::new(dim(300));
        assert_eq!(am.build_index(IndexBuildOptions::default()), None);
        assert!(am.index().is_none());
        assert_eq!(am.resolved_strategy(), ResolvedScan::Direct);
        let q = Hypervector::random(dim(300), 1);
        assert_eq!(am.search_top_k(&q, 3), Err(HdcError::EmptyMemory));
        assert_eq!(am.distances(&q), Err(HdcError::EmptyMemory));
        assert_eq!(ClassId(7).to_string(), "class 7");
    }
}

#[cfg(test)]
mod top_k_tests {
    use super::*;

    #[test]
    fn top_k_orders_and_truncates() {
        let dim = Dimension::new(2_000).unwrap();
        let mut am = AssociativeMemory::new(dim);
        for s in 0..6u64 {
            am.insert(format!("c{s}"), Hypervector::random(dim, s))
                .unwrap();
        }
        let q = am.row(ClassId(4)).unwrap().clone();
        let top = am.search_top_k(&q, 3).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (ClassId(4), Distance::ZERO));
        assert!(top[1].1 <= top[2].1);
        // Requesting more than C classes returns them all, ranked.
        let all = am.search_top_k(&q, 100).unwrap();
        assert_eq!(all.len(), 6);
        assert!(all.windows(2).all(|w| w[0].1 <= w[1].1));
        // k = 0 is an empty ranking, not an error…
        assert!(am.search_top_k(&q, 0).unwrap().is_empty());
        // …but invalid queries are still rejected even at k = 0.
        let alien = Hypervector::random(Dimension::new(64).unwrap(), 1);
        assert!(am.search_top_k(&alien, 0).is_err());
        let empty = AssociativeMemory::new(Dimension::new(64).unwrap());
        assert_eq!(
            empty.search_top_k(&alien, 0).unwrap_err(),
            HdcError::EmptyMemory
        );
    }

    #[test]
    fn top_k_ties_at_the_cut_keep_the_lowest_rows() {
        let dim = Dimension::new(512).unwrap();
        let a = Hypervector::random(dim, 1);
        let b = Hypervector::random(dim, 2);
        // Rows: [b, a, a, a] — querying `a` ties rows 1, 2, 3 at distance
        // zero, and every cut through the tie keeps the lowest indices.
        let mut am = AssociativeMemory::new(dim);
        for hv in [b.clone(), a.clone(), a.clone(), a.clone()] {
            am.insert("x", hv).unwrap();
        }
        let top2 = am.search_top_k(&a, 2).unwrap();
        assert_eq!(top2[0], (ClassId(1), Distance::ZERO));
        assert_eq!(top2[1], (ClassId(2), Distance::ZERO));
        let top3 = am.search_top_k(&a, 3).unwrap();
        assert_eq!(top3[2], (ClassId(3), Distance::ZERO));
        // The far row ranks last only once the ties are exhausted.
        let all = am.search_top_k(&a, 4).unwrap();
        assert_eq!(all[3].0, ClassId(0));
    }

    #[test]
    fn top_1_matches_search() {
        let dim = Dimension::new(1_024).unwrap();
        let mut am = AssociativeMemory::new(dim);
        for s in 0..9u64 {
            am.insert(format!("c{s}"), Hypervector::random(dim, 50 + s))
                .unwrap();
        }
        let q = Hypervector::random(dim, 999);
        let hit = am.search(&q).unwrap();
        let top = am.search_top_k(&q, 1).unwrap();
        assert_eq!(top[0].0, hit.class);
        assert_eq!(top[0].1, hit.distance);
    }
}
