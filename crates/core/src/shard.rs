//! The epoch-versioned, online-updatable associative memory.
//!
//! The paper's HAM is one `C × D` array searched in a single sweep; this
//! module keeps that array serving while it changes. The memory lives
//! behind a [`VersionedMemory`]: readers [`load`](VersionedMemory::load)
//! an immutable [`MemoryVersion`] handle and search it without holding
//! any lock (acquisition is one brief `RwLock` read to clone an `Arc`),
//! while an [`OnlineUpdater`] applies a mutation (add a class — e.g. one
//! binarized from `langid::Accumulators` — retire a class, re-threshold a
//! row) to a chunk-shared copy of the current version and *publishes* the
//! successor atomically by swapping the `Arc`. A reader that pinned a
//! version keeps searching exactly that version, so it can never observe
//! a torn mix of two. Old versions are *epoch-retired*: the publisher
//! keeps a `Weak` log of superseded epochs, each version stays alive
//! exactly as long as some reader still pins it, and fully-drained epochs
//! leave the log on the next publish.
//!
//! Row storage is chunked ([`CHUNK_ROWS`] rows per `Arc`-shared
//! [`MemoryChunk`]), so a delta publish ([`UpdateOp`]) copies only the
//! chunks it touches, and a served engine advances from
//! [`MemoryVersion::patch_since`] instead of copying the whole memory.
//! (The module name is historical; DESIGN.md §11 says why it holds no
//! shards.)
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use hdc::prelude::*;
//! use ham_core::explore::random_memory;
//! use ham_core::shard::{OnlineUpdater, VersionedMemory};
//!
//! let memory = random_memory(21, 1_000, 7);
//! let versioned = Arc::new(VersionedMemory::new(memory.clone()));
//! let query = memory.row(ClassId(5)).unwrap().clone();
//! let pinned = versioned.load();
//!
//! // Publish a new class while `pinned` keeps serving epoch 0.
//! let updater = OnlineUpdater::new(Arc::clone(&versioned));
//! let novel = Hypervector::random(memory.dim(), 99);
//! let (class, epoch) = updater.add_class("novel", novel.clone())?;
//! assert_eq!(class, ClassId(21));
//! assert_eq!(epoch, 1);
//! assert_eq!(pinned.memory().search(&query)?, memory.search(&query)?);
//! assert_eq!(versioned.load().memory().search(&novel)?.class, class);
//! # Ok::<(), ham_core::HamError>(())
//! ```

use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, Weak};

use hdc::parallel::lock_unpoisoned;
use hdc::prelude::*;
use hdc::{active_backend, BucketIndex, IndexBuildOptions};

use crate::index::IndexPolicy;
use crate::model::HamError;
use crate::resilience::snapshot::save_snapshot;
use crate::resilience::wal::{strike, CrashInjector, CrashPoint, Wal, WalRecord};

/// Rows per storage chunk of a [`MemoryVersion`] — the delta-publish
/// granularity. A power of two so row → (chunk, offset) is two shifts.
///
/// Publishing an update copies only the chunks whose rows changed (each
/// copy is `CHUNK_ROWS · D` bits) plus one `Arc` pointer per chunk, so
/// publish cost is proportional to rows changed instead of `C · D`.
/// Smaller chunks copy less per changed row but add one `Arc` and one
/// epoch stamp per chunk; 16 makes a single-row publish ~60× cheaper
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
/// chunked storage as one row space for [`BucketIndex`] row assignment
/// and mirror rebuilds (each lookup is two shifts plus the chunk-local
/// slice).
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
/// first [`memory`](Self::memory) call (cold paths only: scrub repairs,
/// whole-copy updates, in-process readers, tests); a served engine
/// advances from [`patch_since`](Self::patch_since) and snapshots encode
/// straight from the chunks, so neither pays for materialization.
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
    /// on first call (and cached for the version's lifetime). The served
    /// path never calls this; keep it off latency-critical paths.
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

    /// Shared handle to the version's bucket index — what an engine
    /// advancing to this version attaches, so it never copies the index.
    pub fn index_handle(&self) -> Option<Arc<BucketIndex>> {
        self.delta.index.clone()
    }

    /// Shared handle to the version's bit-sliced mirror.
    pub fn sliced_handle(&self) -> Option<Arc<BitSlicedRows>> {
        self.delta.sliced.clone()
    }

    /// The version's configured scan strategy (before resolution).
    pub fn scan_strategy(&self) -> ScanStrategy {
        self.delta.strategy
    }

    /// Whether the flat [`memory`](Self::memory) view exists yet —
    /// `true` for versions installed by a full
    /// [`publish`](VersionedMemory::publish), `false` for a delta
    /// publish until something calls [`memory`](Self::memory).
    pub fn is_materialized(&self) -> bool {
        self.full.get().is_some()
    }

    /// `(label, row)` of every stored class in row order, read from the
    /// chunks without materializing.
    pub fn records(&self) -> impl Iterator<Item = (&str, &Hypervector)> {
        self.delta
            .chunks
            .iter()
            .flat_map(|chunk| chunk.labels.iter().map(String::as_str).zip(&chunk.rows))
    }

    /// The [`RowPatch`] that carries a copy of this version's
    /// predecessor at `epoch` forward to this version: one run per chunk
    /// replaced after `epoch` (per [`chunk_epochs`](Self::chunk_epochs)),
    /// then truncation to [`rows`](Self::rows). A retire restamps every
    /// chunk, so its patch rewrites everything; a one-row re-threshold
    /// rewrites one chunk.
    pub fn patch_since(&self, epoch: u64) -> RowPatch<'_> {
        let mut patch = RowPatch::new(self.delta.rows);
        for (i, (chunk, &stamp)) in self.delta.chunks.iter().zip(&self.chunk_epochs).enumerate() {
            if stamp > epoch {
                patch.push_run(i * CHUNK_ROWS, &chunk.labels, &chunk.rows);
            }
        }
        patch
    }

    /// The concrete traversal this version's strategy resolves to —
    /// the same decision [`AssociativeMemory::resolved_strategy`] makes
    /// for the materialized memory, read without materializing.
    pub fn resolved_strategy(&self) -> ResolvedScan {
        ScanPlan::new(
            active_backend(),
            self.delta.strategy,
            self.delta.index.as_deref(),
            self.delta.sliced.as_deref(),
            self.delta.rows,
            self.delta.dim.get(),
        )
        .resolved()
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

    /// A version wrapping a full memory: chunked for delta publishes,
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
    /// An updater over `versioned` (several updaters may share one
    /// cell). No index maintenance until
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
        // Encoded straight from the version's chunks: a checkpoint never
        // materializes a delta version.
        let version = self.versioned.load();
        match &self.wal {
            Some(wal) => {
                wal.checkpoint(&*version, snapshot_path)
                    .map_err(|error| HamError::Durability {
                        detail: error.to_string(),
                    })?
            }
            None => {
                save_snapshot(&*version, snapshot_path).map_err(|error| HamError::Durability {
                    detail: error.to_string(),
                })?
            }
        }
        Ok(version.epoch())
    }
}
