//! Sharded scatter-gather search over an epoch-versioned, online-updatable
//! associative memory.
//!
//! The paper's HAM is one monolithic `C × D` array searched in a single
//! sweep. Serving at scale needs two axes the monolith lacks, and this
//! module adds both without changing a single search result:
//!
//! * **Row-space sharding** — [`ShardedMemory`] partitions the rows into
//!   `K` contiguous shards, each owned by a long-lived worker thread with
//!   an mpsc mailbox. A query *scatters* to every non-empty shard, each
//!   worker runs the existing fused kernel
//!   ([`PackedRows::scan_min2_range`]) on its slice, and the *gather*
//!   step merges the per-shard (winner, runner-up) pairs through
//!   [`Min2::merge`]. The merge is exact — the hardware analogue is
//!   MEMHD-style sub-arrays whose partial winners feed one comparator
//!   tree — so plain, masked, margin, and top-k results are
//!   **bit-identical** to the unsharded scan for every `K`, including
//!   `K = 1` and `K >` rows (trailing shards simply own empty ranges).
//!   When the pinned version's memory carries a bucket index
//!   ([`hdc::BucketIndex`]), min2 scatters partition *buckets* instead
//!   of raw row ranges: each worker walks its contiguous bucket slice
//!   through the triangle-bound pruned scan
//!   ([`BucketIndex::scan_min2_buckets`](hdc::BucketIndex::scan_min2_buckets)),
//!   which stays exact per shard (every bucket member is scanned or
//!   provably prunable against the shard-local runner-up) and therefore
//!   exact after the merge. Workers also report [`ScanCounters`], which
//!   the gather sums.
//! * **Epoch-versioned copy-on-write updates** — the memory lives behind
//!   a [`VersionedMemory`]: readers [`load`](VersionedMemory::load) an
//!   immutable [`MemoryVersion`] handle and search it without holding any
//!   lock (acquisition is one brief `RwLock` read to clone an `Arc`),
//!   while an [`OnlineUpdater`] clones the current version, applies a
//!   mutation (add a class — e.g. one binarized from
//!   `langid::Accumulators` — retire a class, re-threshold a row) and
//!   *publishes* the successor atomically by swapping the `Arc`. A
//!   scatter pins **one** version `Arc` and hands that same handle to
//!   every shard, so a search can never observe a torn mix of two
//!   versions. Old versions are *epoch-retired*: the publisher keeps a
//!   `Weak` log of superseded epochs, each version stays alive exactly as
//!   long as some reader still pins it, and fully-drained epochs leave
//!   the log on the next publish.
//!
//! Per-shard resilience rides on the PR 3 machinery: a
//! [`ShardSupervisor`] gives every shard its own
//! [`HealthMonitor`], scrubs a shard's row range against golden copies,
//! and — when a shard is quarantined — restores *only that shard's slice*
//! from a checksummed snapshot
//! ([`load_snapshot_rows`](crate::resilience::snapshot::load_snapshot_rows)),
//! published as a new version while the other shards keep serving.
//!
//! # Example
//!
//! ```
//! use hdc::prelude::*;
//! use ham_core::explore::random_memory;
//! use ham_core::shard::{OnlineUpdater, ShardedMemory};
//!
//! let memory = random_memory(21, 1_000, 7);
//! let sharded = ShardedMemory::new(memory.clone(), 4);
//! let query = memory.row(ClassId(5)).unwrap().clone();
//!
//! // Bit-identical to the unsharded scan.
//! assert_eq!(sharded.search(&query)?, memory.search(&query)?);
//!
//! // Publish a new class while the shards keep serving.
//! let updater = OnlineUpdater::new(sharded.versioned().clone());
//! let novel = Hypervector::random(memory.dim(), 99);
//! let (class, epoch) = updater.add_class("novel", novel.clone())?;
//! assert_eq!(class, ClassId(21));
//! assert_eq!(epoch, 1);
//! assert_eq!(sharded.search(&novel)?.class, class);
//! # Ok::<(), ham_core::HamError>(())
//! ```

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, Weak};
use std::thread::JoinHandle;

use hdc::prelude::*;
use hdc::{active_backend, BucketIndex, IndexBuildOptions};

use crate::index::IndexPolicy;
use crate::model::{HamError, MarginSearchResult};
use crate::resilience::degrade::{Confidence, DegradationPolicy, EngineStage, QueryOutcome};
use crate::resilience::health::{HealthMonitor, HealthPolicy, HealthState};
use crate::resilience::scrub::{ScrubReport, Scrubber};
use crate::resilience::snapshot::{load_snapshot_rows, save_snapshot, SnapshotError};
use crate::resilience::wal::{strike, CrashInjector, CrashPoint, Wal, WalRecord};
use hdc::parallel::lock_unpoisoned;

/// The contiguous partition of `rows` rows into `shards` shards.
///
/// Shard `i` owns the global row range `[i·⌈rows/K⌉, (i+1)·⌈rows/K⌉)`
/// clamped to `rows` — ascending and disjoint, so global row indices
/// order shards and the gather tie-break ("lowest global index wins")
/// matches the serial scan. When `K > rows` the trailing shards own
/// empty ranges and simply sit out the scatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    rows: usize,
    chunk: usize,
}

impl ShardPlan {
    /// The plan for `rows` rows over `shards` shards (`shards` is
    /// clamped to at least 1).
    pub fn new(shards: usize, rows: usize) -> Self {
        let shards = shards.max(1);
        ShardPlan {
            shards,
            rows,
            chunk: rows.div_ceil(shards).max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total rows partitioned.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The global row range shard `shard` owns (empty for trailing
    /// shards when `shards > rows`).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.shards, "shard {shard} out of range");
        (shard * self.chunk).min(self.rows)..((shard + 1) * self.chunk).min(self.rows)
    }

    /// The shard that owns global row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn shard_of_row(&self, row: usize) -> usize {
        assert!(row < self.rows, "row {row} out of range");
        row / self.chunk
    }
}

/// Rows per storage chunk of a [`MemoryVersion`] — the delta-publish
/// granularity. A power of two so row → (chunk, offset) is two shifts.
///
/// Publishing an update copies only the chunks whose rows changed (each
/// copy is `CHUNK_ROWS · D` bits) plus one `Arc` pointer per chunk, so
/// publish cost is proportional to rows changed instead of `C · D`.
/// Smaller chunks copy less per changed row but add per-chunk scan
/// dispatch; 16 keeps the dispatch under a few percent of a
/// 10k-bit-row scan while making a single-row publish ~60× cheaper
/// than a full copy at `C = 1000`.
pub const CHUNK_ROWS: usize = 16;

/// One immutable, `Arc`-shared slice of up to [`CHUNK_ROWS`] consecutive
/// rows: the packed scan matrix plus the hypervectors and labels those
/// rows were inserted with. Chunks are the unit of sharing between
/// versions — an update clones the chunk `Arc` vector and replaces only
/// the chunks it touches.
#[derive(Debug, Clone)]
pub struct MemoryChunk {
    packed: PackedRows,
    rows: Vec<Hypervector>,
    labels: Vec<String>,
}

impl MemoryChunk {
    fn new(dim: Dimension) -> Self {
        MemoryChunk {
            packed: PackedRows::with_capacity(dim.get(), CHUNK_ROWS),
            rows: Vec::with_capacity(CHUNK_ROWS),
            labels: Vec::with_capacity(CHUNK_ROWS),
        }
    }

    fn push(&mut self, label: String, hv: Hypervector) {
        self.packed.push(hv.as_bitvec().as_words());
        self.rows.push(hv);
        self.labels.push(label);
    }

    /// Rows stored in this chunk (≤ [`CHUNK_ROWS`]; only the last chunk
    /// of a version may be partial).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// [`RowSource`] view over a version's chunk list, presenting the
/// chunked storage as one row space for the [`BucketIndex`] walks
/// (bucket members are global row ids; each lookup is two shifts plus
/// the chunk-local slice).
struct ChunkedRowsView<'a> {
    chunks: &'a [Arc<MemoryChunk>],
    rows: usize,
    words_per_row: usize,
}

impl RowSource for ChunkedRowsView<'_> {
    fn len(&self) -> usize {
        self.rows
    }

    fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    fn row_words(&self, row: usize) -> &[u64] {
        self.chunks[row / CHUNK_ROWS]
            .packed
            .row_words(row % CHUNK_ROWS)
    }
}

/// One mutation applied by a delta publish
/// ([`VersionedMemory::update_delta`]); the in-memory twin of a
/// [`WalRecord`].
#[derive(Debug, Clone)]
pub enum UpdateOp {
    /// Append a class row (the [`OnlineUpdater::add_class`] path).
    Add {
        /// Label of the new class.
        label: String,
        /// Its learned hypervector.
        hv: Hypervector,
    },
    /// Replace one class's stored row in place (re-threshold).
    Replace {
        /// The class whose row changes.
        class: ClassId,
        /// The replacement hypervector.
        hv: Hypervector,
    },
    /// Remove a class; rows past it shift down by one.
    Retire {
        /// The class to remove.
        class: ClassId,
    },
}

/// The chunked row storage behind a [`MemoryVersion`]: `Arc`-shared
/// chunks plus the version's bucket index and scan strategy. Cloning is
/// cheap (one `Arc` per chunk); mutation goes through
/// [`apply`](Self::apply), which copies only the touched chunks.
#[derive(Debug, Clone)]
struct DeltaMemory {
    dim: Dimension,
    rows: usize,
    chunks: Vec<Arc<MemoryChunk>>,
    index: Option<Arc<BucketIndex>>,
    /// Dim-major mirror of the rows ([`BitSlicedRows`]), carried under
    /// the same copy-on-write discipline as the chunks: a delta publish
    /// shares every untouched 64-row group `Arc` with its predecessor
    /// and retransposes only the groups an op dirtied (a group spans
    /// exactly `64 / CHUNK_ROWS` chunks).
    sliced: Option<Arc<BitSlicedRows>>,
    strategy: ScanStrategy,
}

impl DeltaMemory {
    fn from_memory(memory: &AssociativeMemory) -> Self {
        let dim = memory.dim();
        let mut chunks: Vec<Arc<MemoryChunk>> =
            Vec::with_capacity(memory.len().div_ceil(CHUNK_ROWS.max(1)));
        let mut open = MemoryChunk::new(dim);
        for (_, label, hv) in memory.iter() {
            open.push(label.to_string(), hv.clone());
            if open.len() == CHUNK_ROWS {
                chunks.push(Arc::new(std::mem::replace(
                    &mut open,
                    MemoryChunk::new(dim),
                )));
            }
        }
        if !open.is_empty() {
            chunks.push(Arc::new(open));
        }
        DeltaMemory {
            dim,
            rows: memory.len(),
            chunks,
            index: memory.index_handle(),
            sliced: memory.sliced_handle(),
            strategy: memory.scan_strategy(),
        }
    }

    fn words_per_row(&self) -> usize {
        self.dim.get().div_ceil(64)
    }

    fn view(&self) -> ChunkedRowsView<'_> {
        ChunkedRowsView {
            chunks: &self.chunks,
            rows: self.rows,
            words_per_row: self.words_per_row(),
        }
    }

    /// Rebuilds the full [`AssociativeMemory`] — the cold path behind
    /// [`MemoryVersion::memory`] (snapshots, scrubs, engine rebuilds).
    /// Produces exactly what the legacy whole-copy update path would
    /// have published: same rows, labels, index `Arc`, and strategy.
    fn materialize(&self) -> AssociativeMemory {
        let mut memory = AssociativeMemory::new(self.dim);
        for chunk in &self.chunks {
            for (label, hv) in chunk.labels.iter().zip(&chunk.rows) {
                memory
                    .insert(label.clone(), hv.clone())
                    .expect("chunk rows share the version's space");
            }
        }
        if let Some(index) = &self.index {
            memory
                .attach_index(Arc::clone(index))
                .expect("delta index covers exactly the stored rows");
        }
        if let Some(sliced) = &self.sliced {
            memory
                .attach_sliced(Arc::clone(sliced))
                .expect("delta mirror covers exactly the stored rows");
        }
        memory.set_scan_strategy(self.strategy);
        memory
    }

    /// The contiguous packed matrix of all rows — built on demand for
    /// index rebuilds, which sample rows densely enough that copying
    /// beats chunk-indirect access.
    fn contiguous_rows(&self) -> PackedRows {
        let mut packed = PackedRows::with_capacity(self.dim.get(), self.rows);
        for chunk in &self.chunks {
            for row in chunk.packed.iter_rows() {
                packed.push(row);
            }
        }
        packed
    }

    /// Re-assigns `row` in the (cloned, now-private) bucket index after
    /// its words changed — the delta twin of what
    /// [`AssociativeMemory::insert`]/`replace_row` do, so a
    /// materialized delta is bit-identical to the legacy COW path.
    fn assign_index_row(&mut self, row: usize) {
        if let Some(mut index) = self.index.take() {
            let view = ChunkedRowsView {
                chunks: &self.chunks,
                rows: self.rows,
                words_per_row: self.words_per_row(),
            };
            Arc::make_mut(&mut index).assign_row(&view, active_backend(), row);
            self.index = Some(index);
        }
    }

    /// Applies one op, copying only the chunks it touches. Validation
    /// errors leave `self` unchanged.
    fn apply(&mut self, op: &UpdateOp) -> Result<(), HamError> {
        match op {
            UpdateOp::Add { label, hv } => {
                self.check_space(hv)?;
                let row = self.rows;
                if row / CHUNK_ROWS == self.chunks.len() {
                    let mut chunk = MemoryChunk::new(self.dim);
                    chunk.push(label.clone(), hv.clone());
                    self.chunks.push(Arc::new(chunk));
                } else {
                    let chunk = Arc::make_mut(self.chunks.last_mut().expect("partial tail chunk"));
                    chunk.push(label.clone(), hv.clone());
                }
                self.rows += 1;
                self.assign_index_row(row);
                if let Some(sliced) = self.sliced.as_mut() {
                    let chunk = &self.chunks[row / CHUNK_ROWS];
                    Arc::make_mut(sliced).push_row(chunk.packed.row_words(row % CHUNK_ROWS));
                }
                Ok(())
            }
            UpdateOp::Replace { class, hv } => {
                self.check_space(hv)?;
                if class.0 >= self.rows {
                    return Err(HamError::Hdc(HdcError::UnknownClass {
                        class: class.0,
                        stored: self.rows,
                    }));
                }
                let chunk = Arc::make_mut(&mut self.chunks[class.0 / CHUNK_ROWS]);
                let local = class.0 % CHUNK_ROWS;
                chunk.packed.replace(local, hv.as_bitvec().as_words());
                chunk.rows[local] = hv.clone();
                self.assign_index_row(class.0);
                if let Some(sliced) = self.sliced.as_mut() {
                    // Copy-on-write inside the mirror: `update_row`
                    // clones only the touched 64-row group.
                    Arc::make_mut(sliced).update_row(class.0, hv.as_bitvec().as_words());
                }
                Ok(())
            }
            UpdateOp::Retire { class } => {
                if class.0 >= self.rows {
                    return Err(HamError::Hdc(HdcError::UnknownClass {
                        class: class.0,
                        stored: self.rows,
                    }));
                }
                if self.rows == 1 {
                    return Err(HamError::NoClasses);
                }
                // Retirement renumbers every row past the gap, so all
                // chunks are rebuilt and the index is dropped (exactly
                // like the legacy survivor rebuild); the index policy
                // re-indexes inside the same publish when configured.
                let mut survivor = DeltaMemory {
                    dim: self.dim,
                    rows: 0,
                    chunks: Vec::with_capacity(self.chunks.len()),
                    index: None,
                    sliced: None,
                    strategy: self.strategy,
                };
                let mut open = MemoryChunk::new(self.dim);
                for (row, chunk) in self
                    .chunks
                    .iter()
                    .flat_map(|c| c.labels.iter().zip(&c.rows))
                    .enumerate()
                {
                    if row == class.0 {
                        continue;
                    }
                    let (label, hv) = chunk;
                    open.push(label.clone(), hv.clone());
                    survivor.rows += 1;
                    if open.len() == CHUNK_ROWS {
                        survivor.chunks.push(Arc::new(std::mem::replace(
                            &mut open,
                            MemoryChunk::new(self.dim),
                        )));
                    }
                }
                if !open.is_empty() {
                    survivor.chunks.push(Arc::new(open));
                }
                // Retirement renumbers rows, so every mirror group past
                // the gap shifts — rebuild the transpose wholesale,
                // matching the chunk rebuild above.
                if self.sliced.is_some() {
                    survivor.sliced = Some(Arc::new(BitSlicedRows::from_source(
                        &survivor.view(),
                        survivor.dim.get(),
                    )));
                }
                *self = survivor;
                Ok(())
            }
        }
    }

    fn check_space(&self, hv: &Hypervector) -> Result<(), HamError> {
        if hv.dim() != self.dim {
            return Err(HamError::Hdc(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: hv.dim().get(),
            }));
        }
        Ok(())
    }

    /// Rebuilds the bucket index from the current rows with `options`
    /// (dropping it for an empty matrix) — deterministic, so a WAL
    /// replay that re-runs the same build lands on the same index.
    fn rebuild_index(&mut self, options: IndexBuildOptions) {
        self.index =
            BucketIndex::build(&self.contiguous_rows(), active_backend(), options).map(Arc::new);
    }

    /// Splits `range` into per-chunk segments and merges the chunk-local
    /// winner/runner-up scans — exact by the same disjoint-partition
    /// argument as the shard gather ([`Min2::merge`]).
    ///
    /// With a `shared` bound the chunk scans prune against (and
    /// tighten) the scatter-wide runner-up; a chunk whose rows were all
    /// proven irrelevant contributes no part, and when *every* chunk is
    /// proven away the whole range returns `None` — sound because the
    /// merged best and runner-up can never be pruned by a bound that is
    /// itself an upper bound on the merged runner-up distance.
    fn scan_min2_range(
        &self,
        query: &[u64],
        mask: Option<&[u64]>,
        range: Range<usize>,
        shared: Option<&SharedBound>,
    ) -> Option<Min2> {
        let parts = self.chunk_segments(range).map(|(base, chunk, local)| {
            let part = match shared {
                None => match mask {
                    None => chunk.packed.scan_min2_range(query, local),
                    Some(mask) => chunk.packed.scan_min2_masked_range(query, mask, local),
                },
                Some(shared) => chunk.packed.scan_min2_planned_sliced(
                    active_backend(),
                    ScanStrategy::Direct,
                    None,
                    None,
                    query,
                    mask,
                    local,
                    None,
                    Some(shared),
                ),
            };
            part.map(|mut hit| {
                hit.best += base;
                hit
            })
        });
        Min2::merge(parts.flatten())
    }

    /// Per-chunk ranked scans merged under the shared `(distance, row)`
    /// tie-break — bit-identical to the contiguous
    /// [`PackedRows::top_k_range_into`].
    fn top_k_range_into(
        &self,
        query: &[u64],
        range: Range<usize>,
        k: usize,
        ranked: &mut Vec<(usize, usize)>,
    ) {
        ranked.clear();
        if k == 0 {
            return;
        }
        let mut scratch = Vec::new();
        for (base, chunk, local) in self.chunk_segments(range) {
            chunk.packed.top_k_range_into(query, local, k, &mut scratch);
            ranked.extend(scratch.iter().map(|&(row, d)| (row + base, d)));
        }
        ranked.sort_by_key(|&(row, distance)| (distance, row));
        ranked.truncate(k);
    }

    /// The chunks overlapping global `range`, as `(chunk base row,
    /// chunk, chunk-local subrange)`.
    fn chunk_segments(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (usize, &MemoryChunk, Range<usize>)> {
        let range = range.start.min(self.rows)..range.end.min(self.rows);
        let first = range.start / CHUNK_ROWS;
        let last = range.end.div_ceil(CHUNK_ROWS).min(self.chunks.len());
        self.chunks[first.min(self.chunks.len())..last]
            .iter()
            .enumerate()
            .map(move |(offset, chunk)| {
                let base = (first + offset) * CHUNK_ROWS;
                let lo = range.start.max(base) - base;
                let hi = (range.end.min(base + chunk.len())).saturating_sub(base);
                (base, chunk.as_ref(), lo..hi.max(lo))
            })
            .filter(|(_, _, local)| !local.is_empty())
    }
}

/// One immutable, epoch-stamped snapshot of the associative memory.
///
/// Readers hold a version through an `Arc` and search it without any
/// lock; the version (and its row storage) is freed when the last reader
/// drops it, which is what retires its epoch.
///
/// Row storage is chunked ([`CHUNK_ROWS`] rows per `Arc`-shared
/// [`MemoryChunk`]): a delta publish shares every untouched chunk with
/// its predecessor, and [`chunk_epochs`](Self::chunk_epochs) records,
/// per chunk, the epoch that last replaced it — epochs compose per
/// chunk. The flat [`AssociativeMemory`] view is materialized lazily on
/// first [`memory`](Self::memory) call (cold paths only: snapshots,
/// scrub repairs, engine rebuilds); the scan paths read the chunks
/// directly and never pay for materialization.
#[derive(Debug)]
pub struct MemoryVersion {
    epoch: u64,
    delta: DeltaMemory,
    chunk_epochs: Vec<u64>,
    full: OnceLock<AssociativeMemory>,
}

impl MemoryVersion {
    /// The publication epoch (0 for the initial version, +1 per publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The memory this version snapshots, materialized from the chunks
    /// on first call (and cached for the version's lifetime). Scans
    /// never call this; keep it off latency-critical paths.
    pub fn memory(&self) -> &AssociativeMemory {
        self.full.get_or_init(|| self.delta.materialize())
    }

    /// Number of stored classes, `C`, without materializing.
    pub fn rows(&self) -> usize {
        self.delta.rows
    }

    /// The row space's dimensionality, without materializing.
    pub fn dim(&self) -> Dimension {
        self.delta.dim
    }

    /// The version's bucket index, if any, without materializing.
    pub fn index(&self) -> Option<&BucketIndex> {
        self.delta.index.as_deref()
    }

    /// The version's bit-sliced dim-major mirror, if any, without
    /// materializing.
    pub fn sliced(&self) -> Option<&BitSlicedRows> {
        self.delta.sliced.as_deref()
    }

    /// The concrete traversal this version's strategy resolves to —
    /// the same decision [`AssociativeMemory::resolved_strategy`] makes
    /// for the unsharded memory, so scatter planning and telemetry
    /// agree with single-threaded serving.
    pub fn resolved_strategy(&self) -> ResolvedScan {
        self.delta.strategy.resolve_full(
            self.delta.index.as_deref(),
            self.delta.sliced.as_deref(),
            self.delta.dim.get(),
        )
    }

    /// The `Arc`-shared storage chunks, for sharing inspection
    /// (`Arc::ptr_eq` across versions tells which chunks a publish
    /// copied).
    pub fn chunks(&self) -> &[Arc<MemoryChunk>] {
        &self.delta.chunks
    }

    /// Per-chunk last-modified epochs, parallel to
    /// [`chunks`](Self::chunks): entry `i` is the epoch whose publish
    /// last replaced chunk `i`'s `Arc`.
    pub fn chunk_epochs(&self) -> &[u64] {
        &self.chunk_epochs
    }

    /// Min2 over a raw row slice. When the version's strategy resolves
    /// to the bit-sliced traversal, the slice scans column-major through
    /// the mirror (whole-group pruning, `rows_group_pruned` telemetry);
    /// otherwise it runs the per-chunk row-major kernel. Either way the
    /// worker consults and tightens `shared`, the scatter-wide
    /// runner-up bound, so one shard's tight cluster prunes every other
    /// shard's slice — and a slice whose rows were all proven
    /// irrelevant to the merged result returns `None`.
    fn scan_min2_rows(
        &self,
        query: &[u64],
        mask: Option<&[u64]>,
        range: Range<usize>,
        counters: &mut ScanCounters,
        shared: &SharedBound,
    ) -> Option<Min2> {
        if self.resolved_strategy() == ResolvedScan::BitSliced {
            let sliced = self
                .delta
                .sliced
                .as_deref()
                .expect("BitSliced resolution implies a mirror");
            return sliced.scan_min2(
                active_backend(),
                query,
                mask,
                range,
                Some(counters),
                Some(shared),
            );
        }
        counters.rows_scanned += range.len() as u64;
        self.delta.scan_min2_range(query, mask, range, Some(shared))
    }

    fn scan_min2_buckets(
        &self,
        query: &[u64],
        mask: Option<&[u64]>,
        bucket_range: Range<usize>,
        counters: &mut ScanCounters,
    ) -> Option<Min2> {
        let index = self
            .delta
            .index
            .as_deref()
            .expect("bucket slice implies an indexed version");
        if self.delta.rows == 0 {
            return None;
        }
        index.scan_min2_buckets(
            &self.delta.view(),
            active_backend(),
            query,
            mask,
            bucket_range,
            Some(counters),
        )
    }

    fn top_k_range_into(
        &self,
        query: &[u64],
        range: Range<usize>,
        k: usize,
        ranked: &mut Vec<(usize, usize)>,
    ) {
        self.delta.top_k_range_into(query, range, k, ranked)
    }
}

fn read_unpoisoned<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_unpoisoned<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The epoch-versioned memory cell: an atomically swappable current
/// version plus a retirement log of superseded epochs.
///
/// * [`load`](Self::load) — clone the current version's `Arc` (one brief
///   read lock; the search itself then runs lock-free on the snapshot).
/// * [`publish`](Self::publish) — install a successor version and move
///   the old epoch into the retirement log.
/// * [`update`](Self::update) — serialized copy-on-write read-modify-
///   publish for concurrent updaters (last-write-wins races are excluded
///   by an update mutex; readers are never blocked by it).
#[derive(Debug)]
pub struct VersionedMemory {
    current: RwLock<Arc<MemoryVersion>>,
    /// Serializes copy-on-write updates so two updaters cannot both
    /// clone epoch `e` and publish conflicting `e + 1` versions.
    updates: Mutex<()>,
    /// Superseded epochs still (possibly) pinned by readers. Entries
    /// whose last `Arc` dropped are pruned on the next publish/inspect —
    /// that pruning *is* the epoch retirement.
    retired: Mutex<Vec<(u64, Weak<MemoryVersion>)>>,
}

impl VersionedMemory {
    /// Wraps `memory` as epoch 0.
    pub fn new(memory: AssociativeMemory) -> Self {
        VersionedMemory {
            current: RwLock::new(Arc::new(Self::version_of(0, memory))),
            updates: Mutex::new(()),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// A version wrapping a full memory: chunked for the scan paths,
    /// with the materialized view pre-seeded (it already exists).
    fn version_of(epoch: u64, memory: AssociativeMemory) -> MemoryVersion {
        let delta = DeltaMemory::from_memory(&memory);
        let chunk_epochs = vec![epoch; delta.chunks.len()];
        let full = OnceLock::new();
        let _ = full.set(memory);
        MemoryVersion {
            epoch,
            delta,
            chunk_epochs,
            full,
        }
    }

    /// The current version, pinned. Searches against the returned handle
    /// are immune to concurrent publishes: the snapshot it points at is
    /// immutable and stays alive until the handle drops.
    pub fn load(&self) -> Arc<MemoryVersion> {
        Arc::clone(&read_unpoisoned(&self.current))
    }

    /// The epoch of the current version.
    pub fn current_epoch(&self) -> u64 {
        read_unpoisoned(&self.current).epoch
    }

    /// Atomically installs `memory` as the next version and returns its
    /// epoch. The superseded version moves into the retirement log,
    /// where it lives exactly as long as some reader still pins it.
    ///
    /// This is the *full* publish: every chunk is rebuilt from `memory`
    /// (cost `O(C · D)`), which is what the whole-copy
    /// [`update`](Self::update) path pays. Delta publishes go through
    /// [`update_delta`](Self::update_delta) instead.
    pub fn publish(&self, memory: AssociativeMemory) -> u64 {
        self.install(|epoch, _| Self::version_of(epoch, memory))
    }

    /// Swap in the version `make(next_epoch, old_version)` builds,
    /// pushing the superseded version into the retirement log and
    /// pruning fully-drained entries — the pruning is what keeps the
    /// `Weak` log bounded by the number of actually-pinned epochs.
    fn install(&self, make: impl FnOnce(u64, &MemoryVersion) -> MemoryVersion) -> u64 {
        let mut current = write_unpoisoned(&self.current);
        let epoch = current.epoch + 1;
        let next = Arc::new(make(epoch, &current));
        let old = std::mem::replace(&mut *current, next);
        drop(current);
        let mut retired = lock_unpoisoned(&self.retired);
        retired.push((old.epoch, Arc::downgrade(&old)));
        drop(old); // retire immediately if no reader pins it
        retired.retain(|(_, weak)| weak.strong_count() > 0);
        epoch
    }

    /// Installs an already-built delta, stamping per-chunk epochs: a
    /// chunk whose `Arc` is shared with the superseded version keeps
    /// that version's stamp, every replaced or appended chunk gets the
    /// new epoch.
    fn publish_delta(&self, delta: DeltaMemory) -> u64 {
        self.install(|epoch, old| {
            let chunk_epochs = delta
                .chunks
                .iter()
                .enumerate()
                .map(|(i, chunk)| match old.delta.chunks.get(i) {
                    Some(prev) if Arc::ptr_eq(prev, chunk) => old.chunk_epochs[i],
                    _ => epoch,
                })
                .collect();
            MemoryVersion {
                epoch,
                delta,
                chunk_epochs,
                full: OnceLock::new(),
            }
        })
    }

    /// Serialized copy-on-write update: clones the current memory, lets
    /// `mutate` edit the clone, and publishes the result. Readers keep
    /// serving the old version until the publish instant.
    ///
    /// This is the whole-memory copy path — every row is cloned and
    /// re-chunked no matter how little `mutate` touched. It remains the
    /// right tool for bulk rewrites (scrub repairs, snapshot restores)
    /// and is the baseline the delta-publish bench compares against;
    /// row-granular updates should use
    /// [`update_delta`](Self::update_delta).
    ///
    /// # Errors
    ///
    /// Propagates `mutate`'s error without publishing anything.
    pub fn update<F>(&self, mutate: F) -> Result<u64, HamError>
    where
        F: FnOnce(&mut AssociativeMemory) -> Result<(), HamError>,
    {
        let _guard = lock_unpoisoned(&self.updates);
        let mut memory = self.load().memory().clone();
        mutate(&mut memory)?;
        Ok(self.publish(memory))
    }

    /// Serialized delta update: applies `ops` to a chunk-shared clone of
    /// the current version and publishes it. Only chunks holding changed
    /// rows are copied — publish cost is proportional to rows changed,
    /// not `C` — and the bucket index is kept coherent exactly as the
    /// whole-copy path would (incremental re-assignment per changed
    /// row). Readers keep serving the old version until the publish
    /// instant; the pinning guarantee is unchanged because untouched
    /// chunks are *shared*, never mutated.
    ///
    /// # Errors
    ///
    /// Propagates the first failing op's error without publishing
    /// anything (the partially-applied delta is discarded).
    pub fn update_delta(&self, ops: &[UpdateOp]) -> Result<u64, HamError> {
        let _guard = lock_unpoisoned(&self.updates);
        let current = self.load();
        let mut delta = current.delta.clone();
        for op in ops {
            delta.apply(op)?;
        }
        Ok(self.publish_delta(delta))
    }

    /// The superseded epochs still pinned by at least one reader, in
    /// retirement order. An epoch disappears from this list once its last
    /// reader drops the version — observable epoch retirement.
    pub fn pinned_epochs(&self) -> Vec<u64> {
        let mut retired = lock_unpoisoned(&self.retired);
        retired.retain(|(_, weak)| weak.strong_count() > 0);
        retired.iter().map(|&(epoch, _)| epoch).collect()
    }

    /// Raw length of the retired-epoch `Weak` log, *without* pruning —
    /// the observability hook for the bound regression test: after any
    /// publish the log holds only entries whose version some reader
    /// still pins, so a long-lived updater cannot grow it unboundedly.
    pub fn retired_log_len(&self) -> usize {
        lock_unpoisoned(&self.retired).len()
    }
}

/// What a shard worker sends back through the per-query reply channel.
enum ShardFinding {
    Min2(Option<Min2>, ScanCounters),
    TopK(Vec<(usize, usize)>),
    /// The scan panicked inside the worker. The panic was contained
    /// ([`catch_unwind`]) so the worker keeps serving later requests and
    /// joins cleanly on drop; the query that tripped it surfaces as
    /// [`HamError::ShardPanicked`].
    Panicked,
}

/// The slice of the memory one scan request covers: a raw row range
/// when the version is unindexed, a contiguous bucket range when it
/// carries a [`hdc::BucketIndex`] (the bucket walk prunes with the
/// triangle bound, so workers touch only the rows they cannot prove
/// away).
enum ShardSlice {
    Rows(Range<usize>),
    Buckets(Range<usize>),
}

/// One mailbox message to a shard worker. Every request carries the
/// pinned version it must search — the scatter hands the *same* `Arc` to
/// all shards, which is what makes a gathered result torn-proof.
enum ShardRequest {
    Scan {
        version: Arc<MemoryVersion>,
        slice: ShardSlice,
        query: Arc<Vec<u64>>,
        mask: Option<Arc<Vec<u64>>>,
        /// The scatter-wide runner-up bound every worker of one query
        /// consults and tightens ([`SharedBound`], min2 scans only —
        /// a best-so-far pair bound is unsound for `k ≥ 3`).
        shared: Arc<SharedBound>,
        reply: Sender<(usize, ShardFinding)>,
    },
    TopK {
        version: Arc<MemoryVersion>,
        range: Range<usize>,
        query: Arc<Vec<u64>>,
        k: usize,
        reply: Sender<(usize, ShardFinding)>,
    },
    /// Arms the worker's chaos counter: its next `panics` scans panic
    /// (inside the contained region), then it serves normally again.
    Chaos {
        panics: usize,
    },
    Shutdown,
}

/// Decrements the worker's armed chaos budget, panicking while it lasts.
/// The decrement happens *before* the panic so a single armed panic
/// cannot re-fire on the next request.
fn trip_chaos(pending: &mut usize) {
    if *pending > 0 {
        *pending -= 1;
        panic!("injected shard worker panic ({} left)", *pending);
    }
}

fn worker_loop(shard: usize, inbox: Receiver<ShardRequest>) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // Ranking buffer reused across this worker's whole lifetime: the
    // range-sized fill happens in place, and only the ≤ k surviving pairs
    // are cloned into the reply. (A contained panic may leave it mid-fill;
    // the next top-k refills it from scratch.)
    let mut ranked: Vec<(usize, usize)> = Vec::new();
    let mut chaos_panics = 0usize;
    // Every scan runs under `catch_unwind`: a panicking kernel (or an
    // injected chaos panic) is contained to its own reply — the worker
    // thread survives, keeps draining its mailbox, and joins cleanly on
    // drop instead of wedging the supervisor behind a dead mailbox.
    while let Ok(request) = inbox.recv() {
        match request {
            ShardRequest::Scan {
                version,
                slice,
                query,
                mask,
                shared,
                reply,
            } => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    trip_chaos(&mut chaos_panics);
                    // Workers scan the version's chunks directly —
                    // never `memory()`, which would materialize the
                    // flat copy delta publishes exist to avoid.
                    let mask_words = mask.as_deref().map(Vec::as_slice);
                    let mut counters = ScanCounters::default();
                    let hit = match &slice {
                        ShardSlice::Rows(range) => version.scan_min2_rows(
                            &query,
                            mask_words,
                            range.clone(),
                            &mut counters,
                            &shared,
                        ),
                        ShardSlice::Buckets(range) => version.scan_min2_buckets(
                            &query,
                            mask_words,
                            range.clone(),
                            &mut counters,
                        ),
                    };
                    (hit, counters)
                }));
                let finding = match outcome {
                    Ok((hit, counters)) => ShardFinding::Min2(hit, counters),
                    Err(_) => ShardFinding::Panicked,
                };
                let _ = reply.send((shard, finding));
            }
            ShardRequest::TopK {
                version,
                range,
                query,
                k,
                reply,
            } => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    trip_chaos(&mut chaos_panics);
                    version.top_k_range_into(&query, range, k, &mut ranked);
                    ranked.clone()
                }));
                let finding = match outcome {
                    Ok(pairs) => ShardFinding::TopK(pairs),
                    Err(_) => ShardFinding::Panicked,
                };
                let _ = reply.send((shard, finding));
            }
            ShardRequest::Chaos { panics } => chaos_panics = panics,
            ShardRequest::Shutdown => break,
        }
    }
}

/// Scatter-gather search over `K` shard worker threads, bit-identical to
/// the unsharded [`AssociativeMemory`] scan — see the [module docs]
/// (self) for the protocol and the exactness argument.
///
/// The shard count is fixed at construction; the row partition is
/// recomputed per query from the pinned version's row count, so online
/// updates that grow or shrink the memory re-balance automatically.
#[derive(Debug)]
pub struct ShardedMemory {
    versioned: Arc<VersionedMemory>,
    mailboxes: Vec<Sender<ShardRequest>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardedMemory {
    /// Shards `memory` over `shards` worker threads (clamped to ≥ 1),
    /// wrapping it as epoch 0 of a fresh [`VersionedMemory`].
    pub fn new(memory: AssociativeMemory, shards: usize) -> Self {
        ShardedMemory::over(Arc::new(VersionedMemory::new(memory)), shards)
    }

    /// Shards an existing versioned cell — the constructor to use when an
    /// [`OnlineUpdater`] (or several sharded views) should share it.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread cannot be spawned.
    pub fn over(versioned: Arc<VersionedMemory>, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut mailboxes = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel();
            let handle = std::thread::Builder::new()
                .name(format!("ham-shard-{shard}"))
                .spawn(move || worker_loop(shard, rx))
                .expect("spawn shard worker thread");
            mailboxes.push(tx);
            workers.push(handle);
        }
        ShardedMemory {
            versioned,
            mailboxes,
            workers,
        }
    }

    /// The shared versioned cell (clone it for an [`OnlineUpdater`]).
    pub fn versioned(&self) -> &Arc<VersionedMemory> {
        &self.versioned
    }

    /// Number of shard workers, `K`.
    pub fn shards(&self) -> usize {
        self.mailboxes.len()
    }

    /// The row partition for the current version.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.shards(), self.versioned.load().rows())
    }

    fn check_query(version: &MemoryVersion, dim: Dimension) -> Result<(), HamError> {
        let expected = version.dim();
        if dim != expected {
            return Err(HamError::DimensionMismatch {
                expected: expected.get(),
                actual: dim.get(),
            });
        }
        if version.rows() == 0 {
            return Err(HamError::NoClasses);
        }
        Ok(())
    }

    /// The min2 scatter partition for `version`: over buckets when the
    /// memory carries an index (with `true`), over raw rows otherwise.
    /// A version whose strategy resolves to the bit-sliced traversal
    /// partitions rows even when an index is attached — row ranges are
    /// exactly what the mirror's 64-row groups slice along, and the
    /// columnwise group bound is that strategy's pruning engine.
    fn min2_plan(&self, version: &MemoryVersion) -> (ShardPlan, bool) {
        let bitsliced = version.resolved_strategy() == ResolvedScan::BitSliced;
        match version.index() {
            Some(index) if index.buckets() > 0 && !bitsliced => {
                (ShardPlan::new(self.shards(), index.buckets()), true)
            }
            _ => (ShardPlan::new(self.shards(), version.rows()), false),
        }
    }

    /// Scatters `request_of` over `plan`'s non-empty slices and gathers
    /// the findings in arrival order.
    fn scatter(
        &self,
        plan: ShardPlan,
        request_of: impl Fn(Range<usize>, Sender<(usize, ShardFinding)>) -> ShardRequest,
    ) -> Result<Vec<ShardFinding>, HamError> {
        let (reply, inbox) = mpsc::channel();
        let mut outstanding = Vec::new();
        for shard in 0..self.shards() {
            let range = plan.range(shard);
            if range.is_empty() {
                continue;
            }
            self.mailboxes[shard]
                .send(request_of(range, reply.clone()))
                .map_err(|_| HamError::ShardDown { shard })?;
            outstanding.push(shard);
        }
        drop(reply);
        let mut findings = Vec::with_capacity(outstanding.len());
        let mut heard = vec![false; self.shards()];
        for _ in 0..outstanding.len() {
            let (shard, finding) = inbox.recv().map_err(|_| HamError::ShardDown {
                // All reply senders dropped before every shard answered:
                // report the first silent one.
                shard: outstanding
                    .iter()
                    .copied()
                    .find(|&s| !heard[s])
                    .unwrap_or(0),
            })?;
            heard[shard] = true;
            if matches!(finding, ShardFinding::Panicked) {
                // Contained worker panic: the query dies with a typed,
                // transient error; the worker itself is still alive.
                return Err(HamError::ShardPanicked { shard });
            }
            findings.push(finding);
        }
        Ok(findings)
    }

    /// Arms shard `shard`'s chaos counter: its next `panics` scans panic
    /// inside the worker (each surfacing as a typed
    /// [`HamError::ShardPanicked`]), after which it serves normally.
    /// This is the wire-level fault injector's hook into the scatter
    /// path — intentionally public so integration tests and benches can
    /// prove the containment without reaching into worker internals.
    ///
    /// # Errors
    ///
    /// [`HamError::ShardDown`] when the worker's mailbox is disconnected.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn inject_worker_panics(&self, shard: usize, panics: usize) -> Result<(), HamError> {
        assert!(shard < self.shards(), "shard {shard} out of range");
        self.mailboxes[shard]
            .send(ShardRequest::Chaos { panics })
            .map_err(|_| HamError::ShardDown { shard })
    }

    fn gather_min2(
        &self,
        version: &Arc<MemoryVersion>,
        query: &Hypervector,
        mask: Option<&SampleMask>,
    ) -> Result<(Min2, ScanCounters), HamError> {
        Self::check_query(version, query.dim())?;
        if let Some(mask) = mask {
            if mask.dim() != version.dim() {
                return Err(HamError::DimensionMismatch {
                    expected: version.dim().get(),
                    actual: mask.dim().get(),
                });
            }
        }
        let query = Arc::new(query.as_bitvec().as_words().to_vec());
        let mask = mask.map(|m| Arc::new(m.as_bitvec().as_words().to_vec()));
        let (plan, indexed) = self.min2_plan(version);
        // One shared runner-up bound per scatter: every worker of this
        // query tightens it with its own runner-up observations and
        // prunes against everyone else's (relaxed atomic — any stale
        // read is merely a looser, still-sound bound).
        let shared = Arc::new(SharedBound::unbounded());
        let findings = self.scatter(plan, |range, reply| ShardRequest::Scan {
            version: Arc::clone(version),
            slice: if indexed {
                ShardSlice::Buckets(range)
            } else {
                ShardSlice::Rows(range)
            },
            query: Arc::clone(&query),
            mask: mask.clone(),
            shared: Arc::clone(&shared),
            reply,
        })?;
        let mut scan = ScanCounters::default();
        let parts = findings.into_iter().filter_map(|finding| match finding {
            ShardFinding::Min2(hit, counters) => {
                scan.absorb(counters);
                hit
            }
            // Panicked findings abort the scatter before gathering.
            ShardFinding::TopK(_) | ShardFinding::Panicked => None,
        });
        let hit = Min2::merge(parts).ok_or(HamError::NoClasses)?;
        Ok((hit, scan))
    }

    /// Exact nearest + runner-up search on a pinned version — the core
    /// scatter-gather, exposed so callers (tests, supervisors) can hold
    /// one version across several searches.
    ///
    /// # Errors
    ///
    /// [`HamError::DimensionMismatch`] for a query from another space,
    /// [`HamError::NoClasses`] when the version is empty, and
    /// [`HamError::ShardDown`] when a worker thread has exited.
    pub fn search_on(
        &self,
        version: &Arc<MemoryVersion>,
        query: &Hypervector,
    ) -> Result<SearchResult, HamError> {
        self.gather_min2(version, query, None)
            .map(|(hit, _)| to_search_result(hit))
    }

    /// [`search`](Self::search) plus the gathered scan telemetry: the
    /// per-shard [`ScanCounters`] summed over the whole scatter. On an
    /// indexed version `rows_scanned + rows_pruned` equals the row
    /// count and `buckets_probed` counts centroid evaluations; on an
    /// unindexed version `rows_scanned` is simply the row count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_on`](Self::search_on).
    pub fn search_counted(
        &self,
        query: &Hypervector,
    ) -> Result<(SearchResult, ScanCounters), HamError> {
        self.gather_min2(&self.versioned.load(), query, None)
            .map(|(hit, scan)| (to_search_result(hit), scan))
    }

    /// Exact search against the current version; bit-identical to
    /// [`AssociativeMemory::search`] on that version's memory.
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_on`](Self::search_on).
    pub fn search(&self, query: &Hypervector) -> Result<SearchResult, HamError> {
        self.search_on(&self.versioned.load(), query)
    }

    /// Masked (structured-sampling) search against the current version;
    /// bit-identical to [`AssociativeMemory::search_sampled`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_on`](Self::search_on), plus
    /// [`HamError::DimensionMismatch`] for a mask of the wrong length.
    pub fn search_sampled(
        &self,
        query: &Hypervector,
        mask: &SampleMask,
    ) -> Result<SearchResult, HamError> {
        self.gather_min2(&self.versioned.load(), query, Some(mask))
            .map(|(hit, _)| to_search_result(hit))
    }

    /// Search with the runner-up distance exposed for margin gating —
    /// the sharded analogue of `HamDesign::search_with_margin`, so the
    /// PR 3 degradation/health machinery plugs in unchanged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_on`](Self::search_on).
    pub fn search_with_margin(&self, query: &Hypervector) -> Result<MarginSearchResult, HamError> {
        self.search_with_margin_on(&self.versioned.load(), query)
    }

    /// [`search_with_margin`](Self::search_with_margin) on a pinned
    /// version.
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_on`](Self::search_on).
    pub fn search_with_margin_on(
        &self,
        version: &Arc<MemoryVersion>,
        query: &Hypervector,
    ) -> Result<MarginSearchResult, HamError> {
        self.search_with_margin_counted_on(version, query)
            .map(|(result, _)| result)
    }

    /// [`search_with_margin_on`](Self::search_with_margin_on) plus the
    /// gathered [`ScanCounters`] — the margin path the
    /// [`ShardSupervisor`] uses so its [`QueryOutcome`] telemetry
    /// carries real pruning numbers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_on`](Self::search_on).
    pub fn search_with_margin_counted_on(
        &self,
        version: &Arc<MemoryVersion>,
        query: &Hypervector,
    ) -> Result<(MarginSearchResult, ScanCounters), HamError> {
        let (hit, scan) = self.gather_min2(version, query, None)?;
        let result = MarginSearchResult {
            class: ClassId(hit.best),
            measured_distance: Distance::new(hit.best_distance),
            runner_up: hit.runner_up.map(Distance::new),
        };
        Ok((result, scan))
    }

    /// The `k` nearest classes of the current version, gathered from
    /// per-shard rankings under the shared `(distance, row)` tie-break —
    /// bit-identical to [`AssociativeMemory::search_top_k`], including
    /// `k = 0` (empty) and `k >` classes (all of them).
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_on`](Self::search_on).
    pub fn search_top_k(
        &self,
        query: &Hypervector,
        k: usize,
    ) -> Result<Vec<(ClassId, Distance)>, HamError> {
        let version = self.versioned.load();
        Self::check_query(&version, query.dim())?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let query = Arc::new(query.as_bitvec().as_words().to_vec());
        // Top-k scatters stay row-partitioned even on indexed versions:
        // per-shard rankings merge exactly under the shared
        // `(distance, row)` tie-break regardless of how rows were
        // sliced, and the k-th-distance pruning bound is weakest when
        // split per shard, so bucket-gather buys little here.
        let plan = ShardPlan::new(self.shards(), version.rows());
        let findings = self.scatter(plan, |range, reply| ShardRequest::TopK {
            version: Arc::clone(&version),
            range,
            query: Arc::clone(&query),
            k,
            reply,
        })?;
        let mut gathered: Vec<(usize, usize)> = findings
            .into_iter()
            .flat_map(|finding| match finding {
                ShardFinding::TopK(ranked) => ranked,
                ShardFinding::Min2(..) | ShardFinding::Panicked => Vec::new(),
            })
            .collect();
        gathered.sort_by_key(|&(row, distance)| (distance, row));
        gathered.truncate(k);
        Ok(gathered
            .into_iter()
            .map(|(row, distance)| (ClassId(row), Distance::new(distance)))
            .collect())
    }
}

impl Drop for ShardedMemory {
    fn drop(&mut self) {
        for mailbox in &self.mailboxes {
            let _ = mailbox.send(ShardRequest::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn to_search_result(hit: Min2) -> SearchResult {
    SearchResult {
        class: ClassId(hit.best),
        distance: Distance::new(hit.best_distance),
        runner_up: hit.runner_up.map(Distance::new),
    }
}

/// Live mutations against a [`VersionedMemory`], each published as one
/// new delta version (only touched chunks copied) while readers keep
/// serving the old one.
///
/// All mutations serialize through the cell's update mutex, so several
/// updaters can share one cell without lost updates.
///
/// With [`with_index_policy`](Self::with_index_policy), every mutation
/// re-checks the bucket index inside the same publish (incremental
/// re-assignment per changed row, full rebuild past the dirtiness
/// threshold), so readers either see the old version with the old index
/// or the new version with a coherent one, never a torn mix.
///
/// With [`with_wal`](Self::with_wal), every mutation is appended to the
/// write-ahead log (and fsynced, under the log's options) *before* the
/// version swap: a crash after the append replays to the post-op state,
/// a crash before it leaves the pre-op state, and an update that has
/// returned — an *acknowledged* update — is always recoverable. Index
/// rebuilds log an [`IndexRebuilt`](WalRecord::IndexRebuilt) marker so
/// replay rebuilds the same index deterministically.
#[derive(Debug, Clone)]
pub struct OnlineUpdater {
    versioned: Arc<VersionedMemory>,
    index_policy: Option<IndexPolicy>,
    wal: Option<Arc<Wal>>,
    injector: Option<Arc<dyn CrashInjector>>,
}

impl OnlineUpdater {
    /// An updater over `versioned` (clone the `Arc` from
    /// [`ShardedMemory::versioned`]). No index maintenance until
    /// [`with_index_policy`](Self::with_index_policy), no durability
    /// until [`with_wal`](Self::with_wal).
    pub fn new(versioned: Arc<VersionedMemory>) -> Self {
        OnlineUpdater {
            versioned,
            index_policy: None,
            wal: None,
            injector: None,
        }
    }

    /// Maintains the memory's bucket index under `policy`: each
    /// mutation's published successor is re-checked (and rebuilt past
    /// the dirtiness threshold) before the epoch swap.
    pub fn with_index_policy(mut self, policy: IndexPolicy) -> Self {
        self.index_policy = Some(policy);
        self
    }

    /// Logs every mutation to `wal` (append + fsync) before its publish,
    /// making acknowledged updates crash-durable;
    /// [`checkpoint`](Self::checkpoint) fuses the log into a snapshot.
    pub fn with_wal(mut self, wal: Arc<Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Arms test-only crash injection around the publish instant
    /// ([`CrashPoint::PublishPre`]/[`CrashPoint::PublishPost`]); the
    /// write-path points fire from the [`Wal`]'s own injector.
    pub fn with_crash_injector(mut self, injector: Arc<dyn CrashInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The cell this updater publishes to.
    pub fn versioned(&self) -> &Arc<VersionedMemory> {
        &self.versioned
    }

    /// The durable delta-publish pipeline every mutation runs: under the
    /// update mutex, validate and apply `ops` to a chunk-shared delta,
    /// re-check the index policy, append the op records (plus any
    /// rebuild marker) to the WAL, and only then swap the version in.
    /// An error at any stage publishes nothing; a WAL append that
    /// errored after reaching disk may still replay (the op becomes
    /// durable without being acknowledged — the safe direction).
    fn publish_ops(
        &self,
        prepare: impl FnOnce(&MemoryVersion) -> Result<Vec<UpdateOp>, HamError>,
    ) -> Result<u64, HamError> {
        let _guard = lock_unpoisoned(&self.versioned.updates);
        let current = self.versioned.load();
        let ops = prepare(&current)?;
        let mut delta = current.delta.clone();
        for op in &ops {
            delta.apply(op)?;
        }
        let mut records: Vec<WalRecord> = ops.iter().map(WalRecord::from_op).collect();
        if let Some(policy) = &self.index_policy {
            if policy.wants_rebuild_parts(delta.rows, delta.index.as_deref()) {
                delta.rebuild_index(policy.build);
                records.push(WalRecord::IndexRebuilt {
                    options: policy.build,
                });
            }
        }
        if let Some(wal) = &self.wal {
            wal.append(&records).map_err(|error| HamError::Durability {
                detail: error.to_string(),
            })?;
        }
        strike(self.injector.as_deref(), CrashPoint::PublishPre);
        let epoch = self.versioned.publish_delta(delta);
        strike(self.injector.as_deref(), CrashPoint::PublishPost);
        Ok(epoch)
    }

    /// Adds a class — e.g. a row binarized from `langid`'s per-class
    /// accumulators — and publishes the grown memory. Returns the new
    /// class id and the published epoch.
    ///
    /// # Errors
    ///
    /// [`HamError::Hdc`] when the hypervector belongs to another space;
    /// [`HamError::Durability`] when the WAL append failed.
    pub fn add_class(
        &self,
        label: impl Into<String>,
        hv: Hypervector,
    ) -> Result<(ClassId, u64), HamError> {
        let label = label.into();
        let mut added = ClassId(0);
        let epoch = self.publish_ops(|current| {
            added = ClassId(current.rows());
            Ok(vec![UpdateOp::Add { label, hv }])
        })?;
        Ok((added, epoch))
    }

    /// Retires a class: the published successor holds every other row,
    /// with rows past the retired one shifted down by one (labels are
    /// the stable identity across versions; class ids are per-version
    /// row indices). Returns the published epoch.
    ///
    /// # Errors
    ///
    /// [`HamError::Hdc`] ([`HdcError::UnknownClass`]) when the class is
    /// not stored, [`HamError::NoClasses`] when retiring the last
    /// remaining class — an empty memory cannot serve — and
    /// [`HamError::Durability`] when the WAL append failed.
    pub fn retire_class(&self, class: ClassId) -> Result<u64, HamError> {
        self.publish_ops(|_| Ok(vec![UpdateOp::Retire { class }]))
    }

    /// Replaces one class's stored row — the "re-threshold" path after
    /// its accumulators absorbed new observations — and publishes.
    /// Returns the published epoch.
    ///
    /// # Errors
    ///
    /// [`HamError::Hdc`] for an unknown class or a row from another
    /// space; [`HamError::Durability`] when the WAL append failed.
    pub fn rethreshold_row(&self, class: ClassId, hv: Hypervector) -> Result<u64, HamError> {
        self.publish_ops(|_| Ok(vec![UpdateOp::Replace { class, hv }]))
    }

    /// Re-thresholds several rows in **one** published epoch — one delta
    /// publish and one WAL append batch for the whole set, so the cost
    /// scales with the chunks the set touches, not with `C` per row.
    ///
    /// # Errors
    ///
    /// Same conditions as [`rethreshold_row`](Self::rethreshold_row);
    /// the first failing row aborts the whole batch unpublished.
    pub fn rethreshold_rows(&self, updates: Vec<(ClassId, Hypervector)>) -> Result<u64, HamError> {
        self.publish_ops(|_| {
            Ok(updates
                .into_iter()
                .map(|(class, hv)| UpdateOp::Replace { class, hv })
                .collect())
        })
    }

    /// Fuses the WAL into a snapshot: writes the current version (with
    /// the log's high-water LSN bound atomically into the file) and
    /// truncates every log segment. After a checkpoint, recovery needs
    /// only the snapshot plus whatever the log accumulates afterwards.
    /// Without a configured WAL this is a plain atomic snapshot save.
    /// Returns the checkpointed epoch.
    ///
    /// Serialized against mutations: an op published before the
    /// checkpoint is inside the snapshot, one published after is in the
    /// fresh log — never neither.
    ///
    /// # Errors
    ///
    /// [`HamError::Durability`] for snapshot or log I/O failures.
    pub fn checkpoint(&self, snapshot_path: &Path) -> Result<u64, HamError> {
        let _guard = lock_unpoisoned(&self.versioned.updates);
        let version = self.versioned.load();
        let memory = version.memory();
        match &self.wal {
            Some(wal) => {
                wal.checkpoint(memory, snapshot_path)
                    .map_err(|error| HamError::Durability {
                        detail: error.to_string(),
                    })?
            }
            None => save_snapshot(memory, snapshot_path).map_err(|error| HamError::Durability {
                detail: error.to_string(),
            })?,
        }
        Ok(version.epoch())
    }
}

/// One shard's scrub outcome under a [`ShardSupervisor`].
#[derive(Debug, Clone)]
pub struct ShardScrub {
    /// The scrubbed shard.
    pub shard: usize,
    /// The golden-copy scan over the shard's row range (global class
    /// ids; `scanned` counts only this shard's rows).
    pub report: ScrubReport,
    /// The shard's health state after folding the scan in.
    pub state: HealthState,
    /// Rows rewritten by this pass (from the snapshot slice on a
    /// quarantine restore, from golden copies otherwise).
    pub repaired: Vec<ClassId>,
    /// Whether the repair rows came from the checksummed snapshot slice
    /// (`true` only on a quarantine restore with a configured snapshot).
    pub restored_from_snapshot: bool,
    /// The epoch published by the repair, when one was needed.
    pub epoch: Option<u64>,
}

/// The outcome of one margin-gated sharded classification.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The winning class with its runner-up distance.
    pub result: MarginSearchResult,
    /// The shard that owned the winning row.
    pub shard: usize,
    /// Trust under the winning shard's effective policy (tightened when
    /// that shard is degraded or quarantined).
    pub confidence: Confidence,
}

/// Per-shard health over a [`ShardedMemory`]: every shard gets its own
/// [`HealthMonitor`], margin telemetry is attributed to the shard that
/// produced the winner, and scrub/restore repairs touch only the sick
/// shard's row range — the other shards keep serving the same versioned
/// cell throughout.
#[derive(Debug)]
pub struct ShardSupervisor {
    sharded: ShardedMemory,
    scrubber: Scrubber,
    monitors: Vec<HealthMonitor>,
    base_policy: DegradationPolicy,
    snapshot_path: Option<PathBuf>,
}

impl ShardSupervisor {
    /// Supervises `memory` sharded `shards` ways, with one monitor per
    /// shard under `health` and golden copies snapshotted from the
    /// memory itself.
    pub fn new(memory: AssociativeMemory, shards: usize, health: HealthPolicy) -> Self {
        let base_policy = DegradationPolicy::for_dim(memory.dim().get());
        let scrubber = Scrubber::from_memory(&memory);
        let sharded = ShardedMemory::new(memory, shards);
        let monitors = (0..sharded.shards())
            .map(|_| HealthMonitor::new(health))
            .collect();
        ShardSupervisor {
            sharded,
            scrubber,
            monitors,
            base_policy,
            snapshot_path: None,
        }
    }

    /// Configures (and immediately writes) the checksummed snapshot that
    /// quarantined shards restore their slice from.
    ///
    /// # Errors
    ///
    /// Propagates snapshot I/O errors.
    pub fn with_snapshot(mut self, path: PathBuf) -> Result<Self, SnapshotError> {
        save_snapshot(self.sharded.versioned().load().memory(), &path)?;
        self.snapshot_path = Some(path);
        Ok(self)
    }

    /// The supervised sharded memory.
    pub fn sharded(&self) -> &ShardedMemory {
        &self.sharded
    }

    /// The shared versioned cell (for wiring an [`OnlineUpdater`]).
    pub fn versioned(&self) -> &Arc<VersionedMemory> {
        self.sharded.versioned()
    }

    /// A shard's current health state.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_state(&self, shard: usize) -> HealthState {
        self.monitors[shard].state()
    }

    /// A shard's health monitor (telemetry: occupancy, transitions,
    /// margin histogram).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn monitor(&self, shard: usize) -> &HealthMonitor {
        &self.monitors[shard]
    }

    /// Margin-gated classification: one exact scatter-gather search,
    /// judged against the *winning shard's* effective policy — the base
    /// policy while that shard is healthy, the monitor-tightened one
    /// once it degrades — with the outcome folded into that shard's
    /// monitor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardedMemory::search_on`].
    pub fn classify(&mut self, query: &Hypervector) -> Result<ShardedOutcome, HamError> {
        let version = self.sharded.versioned().load();
        let (result, scan) = match self.sharded.search_with_margin_counted_on(&version, query) {
            Ok(found) => found,
            Err(error) => {
                // Attribute hard failures to every shard: a scatter that
                // cannot complete is not one shard's margin problem.
                for monitor in &mut self.monitors {
                    monitor.observe_error(&error);
                }
                return Err(error);
            }
        };
        // Attribute the winner to the shard that scanned it: under a
        // bucket-partitioned scatter that is the shard owning the
        // winning row's *bucket*, not its raw row range.
        let (plan, indexed) = self.sharded.min2_plan(&version);
        let shard = if indexed {
            let index = version.index().expect("indexed plan");
            plan.shard_of_row(index.bucket_of(result.class.0))
        } else {
            plan.shard_of_row(result.class.0)
        };
        let policy = match self.monitors[shard].state() {
            HealthState::Healthy => self.base_policy,
            _ => self.monitors[shard].tightened(self.base_policy),
        };
        let margin = result.margin();
        let confidence = if margin >= policy.confident_margin {
            Confidence::Confident
        } else if margin < policy.reject_margin {
            Confidence::Rejected
        } else {
            Confidence::Marginal
        };
        let outcome = QueryOutcome {
            result: result.clone().into_result(),
            confidence,
            escalations: 0,
            final_engine: EngineStage::Exact,
            margin,
            scan,
        };
        self.monitors[shard].observe_outcome(&outcome);
        Ok(ShardedOutcome {
            result,
            shard,
            confidence,
        })
    }

    /// Scans one shard's row range against the golden copies — no
    /// repair, no monitor update.
    ///
    /// # Errors
    ///
    /// [`HamError::GoldenMismatch`] when online updates changed the
    /// class count since the goldens were taken (call
    /// [`refresh_golden`](Self::refresh_golden) after publishing
    /// add/retire updates).
    pub fn scan_shard(&self, shard: usize) -> Result<ScrubReport, HamError> {
        let version = self.sharded.versioned().load();
        let memory = version.memory();
        if memory.len() != self.scrubber.classes() {
            return Err(HamError::GoldenMismatch {
                golden: self.scrubber.classes(),
                stored: memory.len(),
            });
        }
        let range = ShardPlan::new(self.sharded.shards(), memory.len()).range(shard);
        let corrupted: Vec<(ClassId, Distance)> = range
            .clone()
            .filter_map(|row| {
                let class = ClassId(row);
                let stored = memory.row(class).expect("row in range");
                let golden = self.scrubber.golden_row(class).expect("golden in range");
                let damage = stored.hamming(golden);
                (damage > Distance::ZERO).then_some((class, damage))
            })
            .collect();
        Ok(ScrubReport {
            scanned: range.len(),
            corrupted,
            repaired: Vec::new(),
        })
    }

    /// Scrubs one shard: scans its range, folds the report into the
    /// shard's monitor, and — when damage was found — publishes **one**
    /// new version with the damaged rows rewritten. A quarantined shard
    /// restores its rows from the checksummed snapshot slice (clean
    /// records only; rows whose snapshot record is itself corrupt fall
    /// back to the golden copy) and is marked restored; a merely
    /// degraded shard repairs straight from the golden copies. Healthy
    /// shards and the rest of the row space are never touched.
    ///
    /// # Errors
    ///
    /// Same conditions as [`scan_shard`](Self::scan_shard).
    pub fn scrub_shard(&mut self, shard: usize) -> Result<ShardScrub, HamError> {
        let mut report = self.scan_shard(shard)?;
        self.monitors[shard].observe_scrub(&report);
        let state = self.monitors[shard].state();
        if report.is_clean() {
            return Ok(ShardScrub {
                shard,
                report,
                state,
                repaired: Vec::new(),
                restored_from_snapshot: false,
                epoch: None,
            });
        }

        // Pull the replacement rows: snapshot slice on quarantine (when
        // configured and readable), golden copies otherwise.
        let range = {
            let version = self.sharded.versioned().load();
            ShardPlan::new(self.sharded.shards(), version.rows()).range(shard)
        };
        let snapshot_rows = if state == HealthState::Quarantined {
            self.snapshot_path
                .as_ref()
                .and_then(|path| load_snapshot_rows(path, range.clone()).ok())
        } else {
            None
        };
        let restored_from_snapshot = snapshot_rows.is_some();
        let repairs: Vec<(ClassId, Hypervector)> = report
            .corrupted
            .iter()
            .map(|&(class, _)| {
                let from_snapshot = snapshot_rows
                    .as_ref()
                    .and_then(|slice| slice.clean_row(class).map(|(_, hv)| hv.clone()));
                let row = from_snapshot.unwrap_or_else(|| {
                    self.scrubber
                        .golden_row(class)
                        .expect("golden in range")
                        .clone()
                });
                (class, row)
            })
            .collect();
        let epoch = self.sharded.versioned().update(|memory| {
            for (class, row) in &repairs {
                memory
                    .replace_row(*class, row.clone())
                    .map_err(HamError::Hdc)?;
            }
            Ok(())
        })?;
        report.repaired = report.corrupted.iter().map(|&(class, _)| class).collect();
        if state == HealthState::Quarantined {
            self.monitors[shard].mark_restored();
        }
        Ok(ShardScrub {
            shard,
            report: report.clone(),
            state: self.monitors[shard].state(),
            repaired: report.repaired,
            restored_from_snapshot,
            epoch: Some(epoch),
        })
    }

    /// Re-snapshots the golden copies (and the on-disk snapshot, when
    /// configured) from the *current* version — required after an
    /// [`OnlineUpdater`] added or retired classes, since golden copies
    /// are per-class and the class set changed.
    ///
    /// # Errors
    ///
    /// Propagates snapshot I/O errors; the in-memory goldens are
    /// refreshed even if the snapshot write fails.
    pub fn refresh_golden(&mut self) -> Result<(), SnapshotError> {
        let version = self.sharded.versioned().load();
        self.scrubber = Scrubber::from_memory(version.memory());
        if let Some(path) = &self.snapshot_path {
            save_snapshot(version.memory(), path)?;
        }
        Ok(())
    }
}
