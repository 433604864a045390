//! Durable write-ahead log for online updates, with seeded crashpoint
//! injection.
//!
//! The serving stack publishes online mutations (add/replace/retire,
//! plus index rebuilds) as new in-memory versions; this module makes
//! those mutations survive process death. The contract, proven by the
//! `wal_recovery` chaos suite, is *atomic per operation*:
//!
//! > After a crash at **any** point, recovery via snapshot + WAL replay
//! > reconstructs a memory bit-identical to either the pre-op or the
//! > post-op state — never a hybrid — and an operation that was
//! > acknowledged (its append + fsync returned) is never lost.
//!
//! # Log layout
//!
//! A log is a directory of segments named `wal-<start_lsn:016x>.seg`.
//! Every segment starts with a CRC-checked header:
//!
//! ```text
//! magic "HAMWAL01" (8) | version u32 | start_lsn u64 | dim u64
//! | flags u32 | crc u32
//! ```
//!
//! followed by length-prefixed, CRC-framed records:
//!
//! ```text
//! len u32 | crc32(payload) u32 | payload = lsn u64 | kind u8 | fields…
//! ```
//!
//! LSNs are assigned densely per record, so replay can verify
//! continuity; the `dim` field lets [`recover`] cold-start from an
//! empty memory when no snapshot exists yet. The kind byte's high bit
//! is the *batch-commit* flag, set on the last record of every append
//! batch: replay only applies records up to the last committed batch,
//! so a crash that lands a prefix of a multi-record batch (one logical
//! operation) rolls the whole batch back instead of replaying half an
//! operation.
//!
//! # Torn tails vs. mid-log corruption
//!
//! A crash during an append leaves a *torn tail*: a short or
//! CRC-failing frame at the end of the **last** segment. That is an
//! expected condition — the op was never acknowledged — so replay stops
//! at the last good record and [`Wal::open`] physically truncates the
//! tail before appending again. A bad frame anywhere *else* (a non-last
//! segment, or followed by good frames that are now unreachable) means
//! acknowledged history was damaged, and replay fails with the typed
//! [`WalError::Corrupt`] instead of silently dropping updates; a dense
//! LSN walk carried *across* segments likewise turns a missing middle
//! segment into [`WalError::LsnGap`], never a silent skip.
//!
//! An append that **errors** (rather than crashes) — a short
//! `write_all` on a full disk, a failed fsync — is rolled back on the
//! spot: the file is truncated to its pre-batch length and the LSN
//! cursor rewound, so a later successful append never lands behind
//! unreadable bytes where the torn-tail scan would discard it. If the
//! rollback itself fails the log is *poisoned* ([`WalError::Poisoned`])
//! and refuses every further append until a checkpoint discards the
//! damaged segment — acknowledged-then-lost is the one outcome that is
//! never allowed.
//!
//! # Checkpoints
//!
//! [`Wal::checkpoint`] fuses the log into a snapshot: it writes the
//! memory via [`save_snapshot_with_lsn`] (binding the covered LSN into
//! the file atomically, inside the snapshot's own rename) and only then
//! deletes the old segments. A crash between the two steps merely
//! leaves stale segments whose records the next recovery skips by LSN.
//! The fresh segment a checkpoint starts is flagged in its header: its
//! start LSN is a redundant on-disk record of the covered LSN, so even
//! a snapshot whose LSN trailer is later damaged can still bound its
//! replay (see [`replay_floor`]) instead of double-applying records it
//! already contains or silently skipping acknowledged ones.
//!
//! # Crashpoints
//!
//! Durability code is exactly the code that is hardest to exercise: the
//! interesting states exist only *between* two writes. The
//! [`CrashPoint`] hooks thread a test-only [`CrashInjector`] through
//! every such gap (append, fsync, rotation, both checkpoint halves, and
//! the version publish on either side), and [`CrashOnce`] scripts a
//! deterministic strike — panic or short write — at the n-th hit. In
//! production no injector is configured and every hook is a no-op.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hdc::prelude::*;
use hdc::IndexBuildOptions;

use crate::resilience::snapshot::{
    crc32, load_snapshot, save_snapshot_with_lsn, words_to_hv, SnapshotError, SnapshotSource,
};
use crate::shard::UpdateOp;
use hdc::parallel::lock_unpoisoned;

/// Segment file magic ("HAM write-ahead log, layout 1").
pub const WAL_MAGIC: [u8; 8] = *b"HAMWAL01";
/// Current segment format version.
const WAL_VERSION: u32 = 1;
/// Segment header bytes: magic + version + start LSN + dim + flags +
/// CRC.
const SEG_HEADER: usize = 8 + 4 + 8 + 8 + 4 + 4;
/// Header flag: this segment was started by a checkpoint, so a snapshot
/// containing every record below its start LSN was durably published.
const SEG_FLAG_CHECKPOINT: u32 = 1;
/// Frame prefix bytes: payload length + payload CRC.
const FRAME_PREFIX: usize = 4 + 4;
/// High bit of the payload's kind byte: this record commits its append
/// batch (it is the batch's last record).
const COMMIT_FLAG: u8 = 0x80;
/// Upper bound on one record's payload (sanity check against framing
/// garbage masquerading as a gigantic length).
const MAX_PAYLOAD: usize = 1 << 30;

/// Errors of the write-ahead log path.
#[derive(Debug)]
pub enum WalError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The checkpoint's snapshot write (or the recovery's snapshot
    /// load) failed.
    Snapshot(SnapshotError),
    /// A segment's header is damaged or not a WAL segment at all.
    BadSegmentHeader {
        /// The offending segment file.
        segment: PathBuf,
    },
    /// A segment declares a different dimensionality than the memory
    /// (or log) it is being used with.
    DimensionMismatch {
        /// Dimensionality expected by the caller.
        expected: usize,
        /// Dimensionality the segment header declares.
        actual: usize,
    },
    /// Acknowledged history is damaged: a bad frame before the log's
    /// tail. Unlike a torn tail this cannot be repaired by truncation
    /// without losing acknowledged updates, so it is a hard error.
    Corrupt {
        /// The segment holding the bad frame.
        segment: PathBuf,
        /// Byte offset of the first bad frame in that segment.
        offset: u64,
    },
    /// Replay found a hole in the dense LSN sequence: the next
    /// available record skips past the one expected, so acknowledged
    /// history is missing (e.g. a deleted middle segment). Replaying
    /// around the hole would produce a silent hybrid, so it is a hard
    /// error.
    LsnGap {
        /// The segment whose records resume past the hole.
        segment: PathBuf,
        /// The LSN replay expected next.
        expected: u64,
        /// The LSN actually found.
        found: u64,
    },
    /// A failed append could not be rolled back (the rewind after the
    /// write error itself failed), so the current segment may end in
    /// unreadable bytes. Every further append is refused — acknowledged
    /// records must never land where replay cannot reach them — until a
    /// checkpoint discards the damaged segment.
    Poisoned,
    /// A snapshot with no readable covered-LSN trailer sits next to a
    /// log truncated by a checkpoint whose flagged segment is gone: no
    /// replay bound is safe (any choice risks double-applying records
    /// the snapshot already contains, or skipping acknowledged ones).
    UnboundedReplay,
    /// A structurally valid record could not be applied to the memory
    /// being recovered (e.g. a replace of a row that does not exist) —
    /// the log and the snapshot disagree.
    Replay {
        /// LSN of the record that failed to apply.
        lsn: u64,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// Recovery was asked to run with neither a snapshot nor any log
    /// segments — there is no state to reconstruct.
    NothingToRecover,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Snapshot(e) => write!(f, "wal checkpoint/recovery snapshot error: {e}"),
            WalError::BadSegmentHeader { segment } => {
                write!(f, "wal segment {} has a corrupt header", segment.display())
            }
            WalError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "wal segment dimensionality {actual} != expected {expected}"
                )
            }
            WalError::Corrupt { segment, offset } => {
                write!(
                    f,
                    "wal segment {} corrupt at offset {offset} (not a torn tail)",
                    segment.display()
                )
            }
            WalError::LsnGap {
                segment,
                expected,
                found,
            } => {
                write!(
                    f,
                    "wal segment {} resumes at lsn {found} where {expected} was expected \
                     (acknowledged records missing)",
                    segment.display()
                )
            }
            WalError::Poisoned => {
                write!(
                    f,
                    "wal poisoned: a failed append could not be rolled back; \
                     checkpoint to start a fresh segment"
                )
            }
            WalError::UnboundedReplay => {
                write!(
                    f,
                    "snapshot has no readable covered-LSN trailer and the log has no \
                     checkpoint watermark: replay cannot be bounded safely"
                )
            }
            WalError::Replay { lsn, detail } => {
                write!(f, "wal record {lsn} failed to replay: {detail}")
            }
            WalError::NothingToRecover => {
                write!(f, "no snapshot and no wal segments to recover from")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<SnapshotError> for WalError {
    fn from(e: SnapshotError) -> Self {
        WalError::Snapshot(e)
    }
}

/// Tuning knobs of a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes (checked at append-batch boundaries, so a batch never
    /// splits across segments).
    pub segment_bytes: u64,
    /// Fsync after every append batch. `true` is the durability
    /// contract ("acknowledged updates survive"); `false` trades it for
    /// throughput when the caller batches checkpoints elsewhere.
    pub fsync: bool,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 1 << 20,
            fsync: true,
        }
    }
}

/// One logged operation, the durable twin of
/// [`UpdateOp`](crate::shard::UpdateOp) plus the index-rebuild marker.
/// Rows are stored as raw packed words so replay reconstructs them
/// bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A class was appended (row index = class count before the op).
    AddClass {
        /// The class label.
        label: String,
        /// The row's packed 64-bit words.
        words: Vec<u64>,
    },
    /// Row `row`'s stored hypervector was replaced.
    ReplaceRow {
        /// The row that changed.
        row: u64,
        /// Its new packed words.
        words: Vec<u64>,
    },
    /// Row `row` was retired; later rows shifted down by one.
    RetireClass {
        /// The retired row.
        row: u64,
    },
    /// The bucket index was rebuilt with these options in the same
    /// publish as the preceding records. Replaying the rebuild (a
    /// deterministic function of the rows and the options) restores the
    /// index bit-identically, including its dirty counter.
    IndexRebuilt {
        /// The build options used.
        options: IndexBuildOptions,
    },
}

impl WalRecord {
    /// The log record for one in-memory [`UpdateOp`].
    pub fn from_op(op: &UpdateOp) -> WalRecord {
        match op {
            UpdateOp::Add { label, hv } => WalRecord::AddClass {
                label: label.clone(),
                words: hv.as_bitvec().as_words().to_vec(),
            },
            UpdateOp::Replace { class, hv } => WalRecord::ReplaceRow {
                row: class.0 as u64,
                words: hv.as_bitvec().as_words().to_vec(),
            },
            UpdateOp::Retire { class } => WalRecord::RetireClass {
                row: class.0 as u64,
            },
        }
    }

    fn kind(&self) -> u8 {
        match self {
            WalRecord::AddClass { .. } => 1,
            WalRecord::ReplaceRow { .. } => 2,
            WalRecord::RetireClass { .. } => 3,
            WalRecord::IndexRebuilt { .. } => 4,
        }
    }
}

/// Where in the durable write path a [`CrashInjector`] may strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// While writing an append batch's frames (short writes land here).
    WalAppend,
    /// After the frames are written, before the fsync.
    WalFsync,
    /// Before a segment rotation creates the next file.
    WalRotate,
    /// Before the checkpoint writes its snapshot.
    CheckpointSnapshot,
    /// After the checkpoint's snapshot, before segment truncation.
    CheckpointTruncate,
    /// After the WAL append, before the in-memory version publish.
    PublishPre,
    /// After the in-memory version publish, before acknowledgement.
    PublishPost,
}

/// What an armed injector does at a [`CrashPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashAction {
    /// Nothing — the hook is transparent.
    Proceed,
    /// Panic, simulating process death at exactly this point.
    Panic,
    /// Write only the first `n` bytes of the pending buffer, fsync
    /// them, then panic — a torn frame on disk. Only meaningful at
    /// [`CrashPoint::WalAppend`]; elsewhere it panics like
    /// [`Panic`](CrashAction::Panic).
    ShortWrite(usize),
    /// Write only the first `n` bytes of the pending buffer, then
    /// *report an I/O error* without crashing — a full-disk/EIO append
    /// the process survives, exercising the rollback path. Only
    /// meaningful at [`CrashPoint::WalAppend`]; elsewhere it panics
    /// like [`Panic`](CrashAction::Panic).
    WriteError(usize),
}

/// A test-only fault plan consulted at every [`CrashPoint`]. Production
/// code paths carry `None` and never construct one.
pub trait CrashInjector: fmt::Debug + Send + Sync {
    /// The action to take at `point` (called once per hook execution).
    fn strike(&self, point: CrashPoint) -> CrashAction;
}

/// Consults `injector` at `point` and panics when it demands a crash —
/// the hook form used outside the WAL's own write path, where a short
/// write has no buffer to tear and degrades to a plain panic.
pub fn strike(injector: Option<&dyn CrashInjector>, point: CrashPoint) {
    if let Some(injector) = injector {
        match injector.strike(point) {
            CrashAction::Proceed => {}
            CrashAction::Panic | CrashAction::ShortWrite(_) | CrashAction::WriteError(_) => {
                panic!("injected crash at {point:?}")
            }
        }
    }
}

/// A scripted injector that fires one [`CrashAction`] at the n-th hit
/// of one [`CrashPoint`], then stays quiet — the building block the
/// recovery chaos suite scripts every scenario from.
#[derive(Debug)]
pub struct CrashOnce {
    point: CrashPoint,
    action: CrashAction,
    skip: AtomicUsize,
    fired: AtomicBool,
}

impl CrashOnce {
    /// Strike `action` at the first hit of `point`.
    pub fn new(point: CrashPoint, action: CrashAction) -> Arc<Self> {
        Self::nth(point, action, 0)
    }

    /// Strike `action` at hit number `skip` (0-based) of `point`,
    /// letting earlier hits proceed.
    pub fn nth(point: CrashPoint, action: CrashAction, skip: usize) -> Arc<Self> {
        Arc::new(CrashOnce {
            point,
            action,
            skip: AtomicUsize::new(skip),
            fired: AtomicBool::new(false),
        })
    }

    /// Whether the strike has fired — lets a test assert the crash it
    /// scripted actually happened rather than vacuously passing.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }
}

impl CrashInjector for CrashOnce {
    fn strike(&self, point: CrashPoint) -> CrashAction {
        if point != self.point || self.fired.load(Ordering::SeqCst) {
            return CrashAction::Proceed;
        }
        if self
            .skip
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| s.checked_sub(1))
            .is_ok()
        {
            return CrashAction::Proceed;
        }
        self.fired.store(true, Ordering::SeqCst);
        self.action
    }
}

/// What one segment scan found.
struct SegmentScan {
    records: Vec<(u64, WalRecord)>,
    /// Byte offset just past the last good frame.
    end_offset: u64,
    /// Whether a torn tail was cut off at `end_offset`.
    torn: bool,
}

/// Summary of a [`Wal::replay_into`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Records applied (after LSN filtering).
    pub replayed: usize,
    /// Whether the last segment ended in a torn (unacknowledged) frame
    /// that was skipped.
    pub torn_tail: bool,
    /// The last applied record's LSN, when any was applied.
    pub last_lsn: Option<u64>,
}

/// The outcome of [`recover`]: the reconstructed memory plus replay
/// telemetry.
#[derive(Debug)]
pub struct Recovered {
    /// The memory as of the last acknowledged (durable) operation.
    pub memory: AssociativeMemory,
    /// Log records applied on top of the snapshot.
    pub replayed: usize,
    /// Whether a torn tail frame was discarded.
    pub torn_tail: bool,
    /// The last applied record's LSN.
    pub last_lsn: Option<u64>,
}

struct WalState {
    file: fs::File,
    segment: PathBuf,
    segment_bytes: u64,
    next_lsn: u64,
    /// A failed append could not be rolled back: the segment may end in
    /// unreadable bytes, so appends are refused until a checkpoint
    /// starts a fresh segment (see [`WalError::Poisoned`]).
    poisoned: bool,
}

impl fmt::Debug for WalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalState")
            .field("segment", &self.segment)
            .field("segment_bytes", &self.segment_bytes)
            .field("next_lsn", &self.next_lsn)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// A durable, CRC-framed write-ahead log over a directory of segments.
///
/// Appends are serialized internally; the intended topology is one
/// `Arc<Wal>` per versioned memory, shared by its
/// [`OnlineUpdater`](crate::shard::OnlineUpdater)s, whose own update
/// mutex already orders the append → publish sequence.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    dim: Dimension,
    options: WalOptions,
    injector: Option<Arc<dyn CrashInjector>>,
    state: Mutex<WalState>,
}

impl Wal {
    /// Opens (creating if needed) the log at `dir` for a memory of
    /// dimensionality `dim`, repairing a torn tail left by a previous
    /// crash: the last segment is truncated at its last good frame so
    /// new appends extend acknowledged history only.
    ///
    /// # Errors
    ///
    /// I/O failures, a segment with a corrupt header, or a segment
    /// recorded for a different dimensionality.
    pub fn open(dir: &Path, dim: Dimension, options: WalOptions) -> Result<Wal, WalError> {
        fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let state = match segments.last() {
            None => {
                let segment = segment_path(dir, 0);
                let file = create_segment(&segment, 0, dim, false)?;
                sync_dir(dir)?;
                WalState {
                    file,
                    segment,
                    segment_bytes: SEG_HEADER as u64,
                    next_lsn: 0,
                    poisoned: false,
                }
            }
            Some((_, last)) => {
                // Header (and dimension) sanity over every segment: a
                // log whose history is unreadable should fail on open,
                // not at the 3 a.m. recovery that needed it.
                for (_, segment) in &segments {
                    let (_, seg_dim, _) = read_segment_header(segment)?;
                    if seg_dim != dim.get() {
                        return Err(WalError::DimensionMismatch {
                            expected: dim.get(),
                            actual: seg_dim,
                        });
                    }
                }
                let bytes = fs::read(last)?;
                let (start_lsn, _, _) = parse_segment_header(&bytes, last)?;
                let scan = scan_segment(&bytes, start_lsn, last, true)?;
                if scan.torn {
                    let file = fs::OpenOptions::new().write(true).open(last)?;
                    file.set_len(scan.end_offset)?;
                    file.sync_all()?;
                }
                let file = fs::OpenOptions::new().append(true).open(last)?;
                WalState {
                    file,
                    segment: last.clone(),
                    segment_bytes: scan.end_offset,
                    next_lsn: start_lsn + scan.records.len() as u64,
                    poisoned: false,
                }
            }
        };
        Ok(Wal {
            dir: dir.to_path_buf(),
            dim,
            options,
            injector: None,
            state: Mutex::new(state),
        })
    }

    /// Arms test-only crash injection on this log's write path
    /// ([`CrashPoint::WalAppend`] / [`WalFsync`](CrashPoint::WalFsync) /
    /// [`WalRotate`](CrashPoint::WalRotate) and the two checkpoint
    /// points).
    pub fn with_injector(mut self, injector: Arc<dyn CrashInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        lock_unpoisoned(&self.state).next_lsn
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        list_segments(&self.dir).map(|s| s.len()).unwrap_or(0)
    }

    /// Appends `records` as one batch (one contiguous frame run in one
    /// segment) and — under the default options — fsyncs before
    /// returning. When this returns `Ok`, the batch is durable: any
    /// later crash recovers to a state that includes it. Returns the
    /// assigned LSN range.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error nothing is acknowledged, the
    /// failed batch is rolled back (file truncated to its pre-batch
    /// length, LSN cursor rewound) so the next successful append still
    /// extends contiguous acknowledged history, and when even that
    /// rollback fails the log poisons itself ([`WalError::Poisoned`]):
    /// all later appends are refused until [`checkpoint`](Self::checkpoint)
    /// discards the damaged segment. A batch interrupted by a *crash*
    /// (no error to observe) is a torn tail the next open repairs.
    pub fn append(&self, records: &[WalRecord]) -> Result<Range<u64>, WalError> {
        let mut state = lock_unpoisoned(&self.state);
        if state.poisoned {
            return Err(WalError::Poisoned);
        }
        if state.segment_bytes >= self.options.segment_bytes {
            strike(self.injector.as_deref(), CrashPoint::WalRotate);
            state.file.sync_all()?;
            let segment = segment_path(&self.dir, state.next_lsn);
            let file = create_segment(&segment, state.next_lsn, self.dim, false)?;
            sync_dir(&self.dir)?;
            state.file = file;
            state.segment = segment;
            state.segment_bytes = SEG_HEADER as u64;
        }
        let first = state.next_lsn;
        let mut buf = Vec::new();
        for (i, record) in records.iter().enumerate() {
            encode_frame(&mut buf, state.next_lsn, record, i + 1 == records.len());
            state.next_lsn += 1;
        }
        let action = self
            .injector
            .as_deref()
            .map(|i| i.strike(CrashPoint::WalAppend))
            .unwrap_or(CrashAction::Proceed);
        let written: Result<(), io::Error> = (|| {
            match action {
                CrashAction::Proceed => state.file.write_all(&buf)?,
                CrashAction::Panic => panic!("injected crash at WalAppend"),
                CrashAction::ShortWrite(n) => {
                    // Land exactly n bytes on disk, then die: the torn
                    // frame the tail-repair path exists for.
                    let n = n.min(buf.len());
                    let _ = state.file.write_all(&buf[..n]);
                    let _ = state.file.sync_all();
                    panic!("injected short write at WalAppend");
                }
                CrashAction::WriteError(n) => {
                    // Land n bytes, then fail like a full disk would —
                    // the process survives and must roll back.
                    let n = n.min(buf.len());
                    let _ = state.file.write_all(&buf[..n]);
                    return Err(io::Error::other("injected write error at WalAppend"));
                }
            }
            strike(self.injector.as_deref(), CrashPoint::WalFsync);
            if self.options.fsync {
                state.file.sync_data()?;
            }
            Ok(())
        })();
        if let Err(error) = written {
            // Roll the failed batch back: restore the LSN cursor and
            // cut the segment to its pre-batch length (the handle is
            // append-mode, so the next write lands at the new end).
            // Otherwise torn bytes would sit mid-segment and the
            // lenient tail scan would silently discard every later —
            // acknowledged — batch behind them. If the rollback itself
            // fails the torn bytes stay, so the log poisons itself and
            // refuses appends until a checkpoint discards the segment.
            state.next_lsn = first;
            let rewound = state
                .file
                .set_len(state.segment_bytes)
                .and_then(|()| state.file.sync_all());
            if rewound.is_err() {
                state.poisoned = true;
            }
            return Err(error.into());
        }
        state.segment_bytes += buf.len() as u64;
        Ok(first..state.next_lsn)
    }

    /// Fuses the log into `snapshot_path`: saves `memory` (a flat memory
    /// or a published version, encoded from its chunks) with the
    /// covered LSN bound into the file (atomic rename), then deletes
    /// every old segment and starts a fresh one. The caller must pass
    /// the memory that reflects every appended record (the updater
    /// holds its update mutex across both).
    ///
    /// Crash-safe at every point: before the snapshot rename the old
    /// snapshot + full log still recover; after it, stale segments'
    /// records are skipped by LSN. The fresh segment carries the
    /// checkpoint flag in its header — the covered LSN recorded
    /// redundantly on disk, so recovery stays bounded even if the
    /// snapshot's own LSN trailer is later damaged. A successful
    /// checkpoint also un-poisons a log whose last segment was left
    /// unreadable by a failed append rollback: that segment is deleted
    /// here.
    ///
    /// # Errors
    ///
    /// Snapshot and I/O failures.
    pub fn checkpoint(
        &self,
        memory: &impl SnapshotSource,
        snapshot_path: &Path,
    ) -> Result<(), WalError> {
        let mut state = lock_unpoisoned(&self.state);
        let covered = state.next_lsn;
        strike(self.injector.as_deref(), CrashPoint::CheckpointSnapshot);
        save_snapshot_with_lsn(memory, snapshot_path, covered)?;
        strike(self.injector.as_deref(), CrashPoint::CheckpointTruncate);
        let segment = segment_path(&self.dir, covered);
        let file = create_segment(&segment, covered, self.dim, true)?;
        for (_, old) in list_segments(&self.dir)? {
            if old != segment {
                fs::remove_file(&old)?;
            }
        }
        sync_dir(&self.dir)?;
        state.file = file;
        state.segment = segment;
        state.segment_bytes = SEG_HEADER as u64;
        state.poisoned = false;
        Ok(())
    }

    /// Replays every record with LSN ≥ `from_lsn` out of the log at
    /// `dir` into `memory`, in order. Tolerates a torn tail in the last
    /// segment (reported, not applied); a missing directory is an empty
    /// log.
    ///
    /// Replay routes through the same [`AssociativeMemory`] mutation
    /// paths live updates use, so the reconstructed memory — rows,
    /// labels, index geometry, even the index's incremental dirty
    /// counter — is bit-identical to the state that logged it.
    ///
    /// Applied LSNs are verified dense starting at `from_lsn`, across
    /// segment boundaries: a hole in the sequence — a deleted middle
    /// segment, or a log truncated past `from_lsn` — is acknowledged
    /// history replay cannot reach, surfaced as [`WalError::LsnGap`]
    /// rather than silently skipped. Records below `from_lsn` (stale
    /// segments an interrupted checkpoint truncation left behind) are
    /// skipped by design.
    ///
    /// # Errors
    ///
    /// I/O failures, [`WalError::Corrupt`] for damage before the tail,
    /// [`WalError::LsnGap`] for missing acknowledged records,
    /// [`WalError::DimensionMismatch`] against `memory`, and
    /// [`WalError::Replay`] when a record contradicts the snapshot.
    pub fn replay_into(
        dir: &Path,
        memory: &mut AssociativeMemory,
        from_lsn: u64,
    ) -> Result<ReplaySummary, WalError> {
        let segments = if dir.is_dir() {
            list_segments(dir)?
        } else {
            Vec::new()
        };
        let mut summary = ReplaySummary {
            replayed: 0,
            torn_tail: false,
            last_lsn: None,
        };
        let mut next_to_apply = from_lsn;
        let last_index = segments.len().wrapping_sub(1);
        for (i, (_, segment)) in segments.iter().enumerate() {
            let bytes = fs::read(segment)?;
            let (start_lsn, seg_dim, _) = parse_segment_header(&bytes, segment)?;
            if seg_dim != memory.dim().get() {
                return Err(WalError::DimensionMismatch {
                    expected: memory.dim().get(),
                    actual: seg_dim,
                });
            }
            let scan = scan_segment(&bytes, start_lsn, segment, i == last_index)?;
            summary.torn_tail |= scan.torn;
            for (lsn, record) in scan.records {
                if lsn < next_to_apply {
                    continue;
                }
                if lsn > next_to_apply {
                    return Err(WalError::LsnGap {
                        segment: segment.clone(),
                        expected: next_to_apply,
                        found: lsn,
                    });
                }
                apply_record(memory, lsn, &record)?;
                next_to_apply = lsn + 1;
                summary.replayed += 1;
                summary.last_lsn = Some(lsn);
            }
        }
        Ok(summary)
    }
}

/// Restart-time recovery: loads the snapshot at `snapshot_path` (when
/// present), then replays the log at `wal_dir` from the snapshot's
/// covered LSN. A snapshot whose covered-LSN trailer is missing or
/// damaged falls back to [`replay_floor`] — the checkpoint watermark
/// recorded redundantly in the segment headers — so post-checkpoint
/// acknowledged updates still replay instead of being silently dropped
/// (and records the snapshot already contains are never double-applied).
/// With no snapshot, cold-starts from an empty memory of the log's
/// recorded dimensionality.
///
/// # Errors
///
/// Snapshot structural damage, the replay errors of
/// [`Wal::replay_into`], [`WalError::UnboundedReplay`] when a
/// trailer-less snapshot's replay cannot be bounded, and
/// [`WalError::NothingToRecover`] when neither a snapshot nor any
/// segment exists.
pub fn recover(snapshot_path: &Path, wal_dir: &Path) -> Result<Recovered, WalError> {
    let (mut memory, from_lsn) = if snapshot_path.is_file() {
        let load = load_snapshot(snapshot_path)?;
        let from = match load.wal_lsn {
            Some(lsn) => lsn,
            None => replay_floor(wal_dir)?,
        };
        (load.memory, from)
    } else {
        let segments = if wal_dir.is_dir() {
            list_segments(wal_dir)?
        } else {
            Vec::new()
        };
        let Some((_, first)) = segments.first() else {
            return Err(WalError::NothingToRecover);
        };
        let (_, dim, _) = read_segment_header(first)?;
        let dimension = Dimension::new(dim).map_err(|_| WalError::BadSegmentHeader {
            segment: first.clone(),
        })?;
        (AssociativeMemory::new(dimension), 0)
    };
    let summary = Wal::replay_into(wal_dir, &mut memory, from_lsn)?;
    Ok(Recovered {
        memory,
        replayed: summary.replayed,
        torn_tail: summary.torn_tail,
        last_lsn: summary.last_lsn,
    })
}

/// The LSN a snapshot with no readable covered-LSN trailer can safely
/// replay the log at `dir` from: the newest checkpoint-flagged
/// segment's start LSN — every checkpoint records its covered LSN
/// redundantly in the header of the segment it starts, and the snapshot
/// on disk is that checkpoint's (or a later one's), so it contains
/// every record below the flag. For a never-checkpointed log whose
/// oldest segment still starts at LSN 0, the floor is 0: the log is the
/// complete history since it was created over the snapshot state. An
/// empty or missing log floors at 0 trivially (nothing to replay).
///
/// # Errors
///
/// I/O and header errors, and [`WalError::UnboundedReplay`] when the
/// log was truncated by a checkpoint whose flagged segment is gone —
/// the snapshot's covered LSN is then unknowable and any replay bound
/// would risk double-applying records it already contains.
pub fn replay_floor(dir: &Path) -> Result<u64, WalError> {
    if !dir.is_dir() {
        return Ok(0);
    }
    let segments = list_segments(dir)?;
    let mut floor = None;
    for (start_lsn, segment) in &segments {
        let (_, _, checkpoint) = read_segment_header(segment)?;
        if checkpoint {
            floor = Some(*start_lsn);
        }
    }
    match (floor, segments.first()) {
        (Some(lsn), _) => Ok(lsn),
        (None, None) => Ok(0),
        (None, Some((0, _))) => Ok(0),
        (None, Some(_)) => Err(WalError::UnboundedReplay),
    }
}

/// The start LSN of the oldest segment at `dir` (`None` when the
/// directory holds no segments). `Some(0)` means the log still records
/// its memory's complete update history — replayable onto the state the
/// log was started over even without a snapshot.
pub fn oldest_segment_lsn(dir: &Path) -> Result<Option<u64>, WalError> {
    if !dir.is_dir() {
        return Ok(None);
    }
    Ok(list_segments(dir)?.first().map(|(lsn, _)| *lsn))
}

fn segment_path(dir: &Path, start_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{start_lsn:016x}.seg"))
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(hex) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
        else {
            continue;
        };
        let Ok(start_lsn) = u64::from_str_radix(hex, 16) else {
            continue;
        };
        segments.push((start_lsn, path));
    }
    segments.sort();
    Ok(segments)
}

fn create_segment(
    path: &Path,
    start_lsn: u64,
    dim: Dimension,
    checkpoint: bool,
) -> Result<fs::File, WalError> {
    let mut header = Vec::with_capacity(SEG_HEADER);
    header.extend_from_slice(&WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    header.extend_from_slice(&start_lsn.to_le_bytes());
    header.extend_from_slice(&(dim.get() as u64).to_le_bytes());
    header.extend_from_slice(&if checkpoint { SEG_FLAG_CHECKPOINT } else { 0 }.to_le_bytes());
    let crc = crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    {
        let mut file = fs::File::create(path)?;
        file.write_all(&header)?;
        file.sync_all()?;
    }
    // Hand back an append-mode handle: every write then lands at the
    // current end of file, so a failed append batch can be rolled back
    // with a bare set_len — no write cursor left past the truncation
    // point to punch a hole of zero bytes into the next frame.
    Ok(fs::OpenOptions::new().append(true).open(path)?)
}

fn sync_dir(dir: &Path) -> Result<(), WalError> {
    if let Ok(handle) = fs::File::open(dir) {
        handle.sync_all()?;
    }
    Ok(())
}

/// Validates a segment's header and returns `(start_lsn, dim,
/// is_checkpoint_segment)`.
fn parse_segment_header(bytes: &[u8], segment: &Path) -> Result<(u64, usize, bool), WalError> {
    let bad = || WalError::BadSegmentHeader {
        segment: segment.to_path_buf(),
    };
    if bytes.len() < SEG_HEADER || bytes[..8] != WAL_MAGIC {
        return Err(bad());
    }
    let version = le_u32(&bytes[8..]);
    if version != WAL_VERSION {
        return Err(bad());
    }
    let stored = le_u32(&bytes[SEG_HEADER - 4..]);
    if crc32(&bytes[..SEG_HEADER - 4]) != stored {
        return Err(bad());
    }
    let start_lsn = le_u64(&bytes[12..]);
    let dim = le_u64(&bytes[20..]) as usize;
    let flags = le_u32(&bytes[28..]);
    Ok((start_lsn, dim, flags & SEG_FLAG_CHECKPOINT != 0))
}

/// [`parse_segment_header`] off the first bytes of the file — header
/// checks without pulling a whole (up to segment-sized) file into
/// memory.
fn read_segment_header(segment: &Path) -> Result<(u64, usize, bool), WalError> {
    let mut bytes = Vec::with_capacity(SEG_HEADER);
    fs::File::open(segment)?
        .take(SEG_HEADER as u64)
        .read_to_end(&mut bytes)?;
    parse_segment_header(&bytes, segment)
}

/// Walks a segment's frames up to the last *committed* batch. In the
/// last segment (`lenient`) anything past that watermark — a bad frame,
/// or good frames whose batch never committed — is a torn tail;
/// anywhere else it is [`WalError::Corrupt`].
fn scan_segment(
    bytes: &[u8],
    start_lsn: u64,
    segment: &Path,
    lenient: bool,
) -> Result<SegmentScan, WalError> {
    let mut records = Vec::new();
    let mut offset = SEG_HEADER;
    let mut expected_lsn = start_lsn;
    let mut committed_records = 0;
    let mut committed_offset = SEG_HEADER;
    loop {
        if offset == bytes.len() {
            break;
        }
        let good = (|| {
            let frame = bytes.get(offset..offset + FRAME_PREFIX)?;
            let len = le_u32(frame) as usize;
            if len == 0 || len > MAX_PAYLOAD {
                return None;
            }
            let crc = le_u32(&frame[4..]);
            let payload = bytes.get(offset + FRAME_PREFIX..offset + FRAME_PREFIX + len)?;
            if crc32(payload) != crc {
                return None;
            }
            let (lsn, record, commit) = decode_payload(payload)?;
            if lsn != expected_lsn {
                return None;
            }
            Some((record, commit, FRAME_PREFIX + len))
        })();
        match good {
            Some((record, commit, frame_len)) => {
                records.push((expected_lsn, record));
                expected_lsn += 1;
                offset += frame_len;
                if commit {
                    committed_records = records.len();
                    committed_offset = offset;
                }
            }
            None if lenient => break,
            None => {
                return Err(WalError::Corrupt {
                    segment: segment.to_path_buf(),
                    offset: offset as u64,
                })
            }
        }
    }
    let torn = committed_offset < bytes.len();
    if torn && !lenient {
        // A non-last segment ending in an uncommitted batch: rotation
        // only happens at batch boundaries, so this is damage to
        // acknowledged history, not a crash mid-append.
        return Err(WalError::Corrupt {
            segment: segment.to_path_buf(),
            offset: committed_offset as u64,
        });
    }
    records.truncate(committed_records);
    Ok(SegmentScan {
        records,
        end_offset: committed_offset as u64,
        torn,
    })
}

fn encode_frame(buf: &mut Vec<u8>, lsn: u64, record: &WalRecord, commit: bool) {
    let mut payload = Vec::new();
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.push(record.kind() | if commit { COMMIT_FLAG } else { 0 });
    match record {
        WalRecord::AddClass { label, words } => {
            let label_bytes = label.as_bytes();
            payload.extend_from_slice(&(label_bytes.len() as u32).to_le_bytes());
            payload.extend_from_slice(label_bytes);
            encode_words(&mut payload, words);
        }
        WalRecord::ReplaceRow { row, words } => {
            payload.extend_from_slice(&row.to_le_bytes());
            encode_words(&mut payload, words);
        }
        WalRecord::RetireClass { row } => {
            payload.extend_from_slice(&row.to_le_bytes());
        }
        WalRecord::IndexRebuilt { options } => {
            payload.extend_from_slice(&(options.buckets as u64).to_le_bytes());
            payload.extend_from_slice(&options.seed.to_le_bytes());
            payload.extend_from_slice(&(options.refine_passes as u64).to_le_bytes());
            payload.extend_from_slice(&(options.sample_per_bucket as u64).to_le_bytes());
        }
    }
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
}

fn encode_words(payload: &mut Vec<u8>, words: &[u64]) {
    payload.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for word in words {
        payload.extend_from_slice(&word.to_le_bytes());
    }
}

/// Decodes one frame payload into `(lsn, record, batch_commit)`;
/// `None` on any structural inconsistency (the caller treats it like a
/// CRC failure).
fn decode_payload(payload: &[u8]) -> Option<(u64, WalRecord, bool)> {
    if payload.len() < 9 {
        return None;
    }
    let lsn = le_u64(payload);
    let commit = payload[8] & COMMIT_FLAG != 0;
    let kind = payload[8] & !COMMIT_FLAG;
    let rest = &payload[9..];
    let record = match kind {
        1 => {
            let label_len = le_u32(rest.get(..4)?) as usize;
            let label_bytes = rest.get(4..4 + label_len)?;
            let label = String::from_utf8(label_bytes.to_vec()).ok()?;
            let (words, tail) = decode_words(&rest[4 + label_len..])?;
            if !tail.is_empty() {
                return None;
            }
            WalRecord::AddClass { label, words }
        }
        2 => {
            let row = le_u64(rest.get(..8)?);
            let (words, tail) = decode_words(&rest[8..])?;
            if !tail.is_empty() {
                return None;
            }
            WalRecord::ReplaceRow { row, words }
        }
        3 => {
            if rest.len() != 8 {
                return None;
            }
            WalRecord::RetireClass { row: le_u64(rest) }
        }
        4 => {
            if rest.len() != 32 {
                return None;
            }
            WalRecord::IndexRebuilt {
                options: IndexBuildOptions {
                    buckets: le_u64(rest) as usize,
                    seed: le_u64(&rest[8..]),
                    refine_passes: le_u64(&rest[16..]) as usize,
                    sample_per_bucket: le_u64(&rest[24..]) as usize,
                },
            }
        }
        _ => return None,
    };
    Some((lsn, record, commit))
}

fn decode_words(bytes: &[u8]) -> Option<(Vec<u64>, &[u8])> {
    let count = le_u32(bytes.get(..4)?) as usize;
    let body = bytes.get(4..4 + count * 8)?;
    let words = (0..count).map(|w| le_u64(&body[w * 8..])).collect();
    Some((words, &bytes[4 + count * 8..]))
}

/// Applies one record through the live mutation paths.
fn apply_record(
    memory: &mut AssociativeMemory,
    lsn: u64,
    record: &WalRecord,
) -> Result<(), WalError> {
    let dim = memory.dim().get();
    let wpr = dim.div_ceil(64);
    let replay_err = |detail: String| WalError::Replay { lsn, detail };
    match record {
        WalRecord::AddClass { label, words } => {
            if words.len() != wpr {
                return Err(replay_err(format!(
                    "row has {} words, space needs {wpr}",
                    words.len()
                )));
            }
            memory
                .insert(label.clone(), words_to_hv(words.clone(), dim))
                .map_err(|e| replay_err(e.to_string()))?;
        }
        WalRecord::ReplaceRow { row, words } => {
            if words.len() != wpr {
                return Err(replay_err(format!(
                    "row has {} words, space needs {wpr}",
                    words.len()
                )));
            }
            memory
                .replace_row(ClassId(*row as usize), words_to_hv(words.clone(), dim))
                .map_err(|e| replay_err(e.to_string()))?;
        }
        WalRecord::RetireClass { row } => {
            let stored = memory.len();
            let row = *row as usize;
            if row >= stored {
                return Err(replay_err(format!("retire of row {row} of {stored}")));
            }
            if stored == 1 {
                return Err(replay_err("retire of the last class".into()));
            }
            // Mirror the live retire exactly: survivors re-inserted into
            // a fresh memory, the (stale) index dropped with it.
            let mut survivor = AssociativeMemory::new(memory.dim());
            for (id, label, hv) in memory.iter() {
                if id.0 != row {
                    survivor
                        .insert(label, hv.clone())
                        .expect("surviving rows share the space");
                }
            }
            *memory = survivor;
        }
        WalRecord::IndexRebuilt { options } => {
            memory.build_index(*options);
        }
    }
    Ok(())
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::Hypervector;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hdham-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn dim() -> Dimension {
        Dimension::new(256).unwrap()
    }

    fn record(seed: u64) -> WalRecord {
        WalRecord::AddClass {
            label: format!("class-{seed}"),
            words: Hypervector::random(dim(), seed)
                .as_bitvec()
                .as_words()
                .to_vec(),
        }
    }

    #[test]
    fn frame_round_trip_every_kind() {
        for (lsn, record) in [
            (0, record(1)),
            (
                7,
                WalRecord::ReplaceRow {
                    row: 3,
                    words: vec![0xDEAD_BEEF, 0, 1, 2],
                },
            ),
            (u64::MAX - 1, WalRecord::RetireClass { row: 9 }),
            (
                42,
                WalRecord::IndexRebuilt {
                    options: IndexBuildOptions {
                        buckets: 5,
                        seed: 99,
                        refine_passes: 3,
                        sample_per_bucket: 17,
                    },
                },
            ),
        ] {
            for commit in [false, true] {
                let mut buf = Vec::new();
                encode_frame(&mut buf, lsn, &record, commit);
                let len = le_u32(&buf) as usize;
                assert_eq!(buf.len(), FRAME_PREFIX + len);
                let payload = &buf[FRAME_PREFIX..];
                assert_eq!(crc32(payload), le_u32(&buf[4..]));
                let (got_lsn, got, got_commit) = decode_payload(payload).unwrap();
                assert_eq!(got_lsn, lsn);
                assert_eq!(got, record);
                assert_eq!(got_commit, commit);
            }
        }
    }

    #[test]
    fn append_survives_reopen() {
        let dir = temp_dir("reopen");
        let wal = Wal::open(&dir, dim(), WalOptions::default()).unwrap();
        assert_eq!(wal.append(&[record(1), record(2)]).unwrap(), 0..2);
        assert_eq!(wal.next_lsn(), 2);
        drop(wal);
        let wal = Wal::open(&dir, dim(), WalOptions::default()).unwrap();
        assert_eq!(wal.next_lsn(), 2);
        assert_eq!(wal.append(&[record(3)]).unwrap(), 2..3);
        let mut memory = AssociativeMemory::new(dim());
        let summary = Wal::replay_into(&dir, &mut memory, 0).unwrap();
        assert_eq!(summary.replayed, 3);
        assert_eq!(summary.last_lsn, Some(2));
        assert!(!summary.torn_tail);
        assert_eq!(memory.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_batches_over_segments() {
        let dir = temp_dir("rotate");
        let wal = Wal::open(
            &dir,
            dim(),
            WalOptions {
                segment_bytes: 200,
                fsync: false,
            },
        )
        .unwrap();
        for seed in 0..6 {
            wal.append(&[record(seed)]).unwrap();
        }
        assert!(wal.segment_count() > 1, "small threshold must rotate");
        let mut memory = AssociativeMemory::new(dim());
        let summary = Wal::replay_into(&dir, &mut memory, 0).unwrap();
        assert_eq!(summary.replayed, 6);
        assert_eq!(memory.len(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dimension_mismatch_is_typed() {
        let dir = temp_dir("dim");
        let wal = Wal::open(&dir, dim(), WalOptions::default()).unwrap();
        wal.append(&[record(1)]).unwrap();
        drop(wal);
        let other = Dimension::new(512).unwrap();
        assert!(matches!(
            Wal::open(&dir, other, WalOptions::default()),
            Err(WalError::DimensionMismatch {
                expected: 512,
                actual: 256
            })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_display() {
        for e in [
            WalError::Io(io::Error::other("x")),
            WalError::Snapshot(SnapshotError::BadMagic),
            WalError::BadSegmentHeader {
                segment: "a.seg".into(),
            },
            WalError::DimensionMismatch {
                expected: 1,
                actual: 2,
            },
            WalError::Corrupt {
                segment: "b.seg".into(),
                offset: 40,
            },
            WalError::LsnGap {
                segment: "c.seg".into(),
                expected: 3,
                found: 9,
            },
            WalError::Poisoned,
            WalError::UnboundedReplay,
            WalError::Replay {
                lsn: 7,
                detail: "x".into(),
            },
            WalError::NothingToRecover,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// The high-severity review scenario: an append fails mid-write
    /// (full disk, EIO) but the process lives on. The failed batch must
    /// be rolled back — LSN cursor and file length — so the next
    /// acknowledged append never lands behind torn bytes the lenient
    /// tail scan would discard it for.
    #[test]
    fn failed_append_rolls_back_and_later_appends_stay_recoverable() {
        let dir = temp_dir("rollback");
        let injector = CrashOnce::nth(CrashPoint::WalAppend, CrashAction::WriteError(7), 1);
        let wal = Wal::open(&dir, dim(), WalOptions::default())
            .unwrap()
            .with_injector(injector.clone());
        wal.append(&[record(1)]).unwrap();
        let lsn_before = wal.next_lsn();
        let segment = segment_path(&dir, 0);
        let len_before = fs::metadata(&segment).unwrap().len();

        assert!(matches!(wal.append(&[record(2)]), Err(WalError::Io(_))));
        assert!(injector.fired(), "the scripted write error must fire");
        assert_eq!(wal.next_lsn(), lsn_before, "LSN cursor rewound");
        assert_eq!(
            fs::metadata(&segment).unwrap().len(),
            len_before,
            "torn bytes truncated away"
        );

        // The retried append is acknowledged — replay must surface it,
        // with a dense LSN run and no torn tail.
        assert_eq!(wal.append(&[record(3)]).unwrap(), 1..2);
        let mut memory = AssociativeMemory::new(dim());
        let summary = Wal::replay_into(&dir, &mut memory, 0).unwrap();
        assert_eq!(summary.replayed, 2);
        assert!(!summary.torn_tail);
        assert_eq!(summary.last_lsn, Some(1));
        assert_eq!(memory.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_middle_segment_is_a_typed_gap_not_a_silent_skip() {
        let dir = temp_dir("gap");
        let wal = Wal::open(
            &dir,
            dim(),
            WalOptions {
                segment_bytes: 200,
                fsync: false,
            },
        )
        .unwrap();
        for seed in 0..9 {
            wal.append(&[record(seed)]).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "need a middle segment to delete");
        fs::remove_file(&segments[1].1).unwrap();

        let mut memory = AssociativeMemory::new(dim());
        match Wal::replay_into(&dir, &mut memory, 0) {
            Err(WalError::LsnGap {
                expected, found, ..
            }) => assert!(expected < found),
            other => panic!("expected WalError::LsnGap, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The checkpoint watermark (flagged segment header) bounds
    /// recovery when the snapshot's LSN trailer is damaged — even with
    /// stale segments from an interrupted truncation still on disk,
    /// nothing is double-applied and post-checkpoint acknowledged
    /// records still replay.
    #[test]
    fn damaged_trailer_recovers_from_the_checkpoint_watermark() {
        let dir = temp_dir("floor");
        let wal_dir = dir.join("wal");
        let snapshot = dir.join("snap.ham");
        let wal = Wal::open(
            &wal_dir,
            dim(),
            WalOptions {
                segment_bytes: 200,
                fsync: false,
            },
        )
        .unwrap();
        let mut memory = AssociativeMemory::new(dim());
        let insert = |memory: &mut AssociativeMemory, seed: u64| {
            memory
                .insert(format!("class-{seed}"), Hypervector::random(dim(), seed))
                .unwrap();
        };
        for seed in 0..5 {
            wal.append(&[record(seed)]).unwrap();
            insert(&mut memory, seed);
        }
        // Keep copies of the pre-checkpoint segments, then restore them
        // after the checkpoint — the on-disk state of a truncation that
        // crashed before deleting the fused segments.
        let stale: Vec<(PathBuf, Vec<u8>)> = list_segments(&wal_dir)
            .unwrap()
            .into_iter()
            .map(|(_, p)| (p.clone(), fs::read(&p).unwrap()))
            .collect();
        wal.checkpoint(&memory, &snapshot).unwrap();
        assert_eq!(replay_floor(&wal_dir).unwrap(), 5);
        for seed in 10..12 {
            wal.append(&[record(seed)]).unwrap();
            insert(&mut memory, seed);
        }
        for (path, bytes) in &stale {
            if !path.exists() {
                fs::write(path, bytes).unwrap();
            }
        }
        // Damage the snapshot's trailer CRC: recovery must fall back to
        // the watermark, skip the stale records, and replay exactly the
        // two post-checkpoint ones.
        let mut bytes = fs::read(&snapshot).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&snapshot, &bytes).unwrap();

        let recovered = recover(&snapshot, &wal_dir).unwrap();
        assert_eq!(recovered.replayed, 2);
        assert_eq!(recovered.memory.len(), memory.len());
        for (class, label, row) in memory.iter() {
            assert_eq!(recovered.memory.label(class), Some(label));
            assert_eq!(recovered.memory.row(class), Some(row));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// With the checkpoint-flagged segment gone *and* no complete
    /// history, a trailer-less snapshot's replay cannot be bounded —
    /// recovery must refuse rather than guess.
    #[test]
    fn unbounded_replay_is_refused_not_guessed() {
        let dir = temp_dir("unbounded");
        let wal_dir = dir.join("wal");
        let snapshot = dir.join("snap.ham");
        let wal = Wal::open(
            &wal_dir,
            dim(),
            WalOptions {
                segment_bytes: 200,
                fsync: false,
            },
        )
        .unwrap();
        let mut memory = AssociativeMemory::new(dim());
        for seed in 0..2 {
            wal.append(&[record(seed)]).unwrap();
            memory
                .insert(format!("class-{seed}"), Hypervector::random(dim(), seed))
                .unwrap();
        }
        wal.checkpoint(&memory, &snapshot).unwrap();
        for seed in 10..16 {
            wal.append(&[record(seed)]).unwrap();
        }
        // Delete the flagged segment (the watermark) — later rotated
        // segments remain, starting past LSN 0.
        let segments = list_segments(&wal_dir).unwrap();
        assert!(segments.len() > 1, "appends must have rotated");
        fs::remove_file(&segments[0].1).unwrap();
        // And damage the trailer, so the floor is the only bound left.
        let mut bytes = fs::read(&snapshot).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&snapshot, &bytes).unwrap();

        assert!(matches!(
            replay_floor(&wal_dir),
            Err(WalError::UnboundedReplay)
        ));
        assert!(matches!(
            recover(&snapshot, &wal_dir),
            Err(WalError::UnboundedReplay)
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
