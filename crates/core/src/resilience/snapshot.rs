//! Checksummed, atomically-published snapshots of an associative memory.
//!
//! A trained `AssociativeMemory` *is* the deployed model — losing it means
//! retraining — so the serving runtime persists golden copies durably and
//! verifies them on the way back in. The format is deliberately dumb and
//! self-checking:
//!
//! * **atomic publish** — the snapshot is written to a sibling temp file,
//!   fsynced, then `rename`d over the destination, so a crash mid-write
//!   can never leave a half-written snapshot under the published name;
//! * **header checksum** — magic, version, dimensionality and class count
//!   are covered by a CRC-32; a corrupted header fails the load (nothing
//!   after it can be trusted);
//! * **per-row CRC-32 over fixed-stride records** — every row record has
//!   the same byte length (fixed-width label field + row words + CRC), so
//!   a bit flip anywhere in a row corrupts *that row only*: framing never
//!   depends on row contents.
//!
//! Row corruption is an expected condition, not a load failure: the rows
//! that fail their CRC come back in [`SnapshotLoad::corrupted`] and feed
//! straight into the [`Scrubber`] repair path
//! ([`load_snapshot_repaired`]), exactly like stuck-at damage found in a
//! live array.
//!
//! # Format versions
//!
//! * **v1** — header + row records, exactly as above.
//! * **v2** — v1 plus one CRC-framed *index section* after the last row
//!   record, serializing the memory's [`hdc::BucketIndex`] (bucket
//!   count, dirty counter, per-bucket radii, centroid words, per-row
//!   bucket assignments). An unindexed memory still saves as a
//!   byte-identical v1 file, and both versions load. The index section
//!   is strictly best-effort on the way back in: any inconsistency — a
//!   failed section CRC, truncation, out-of-range assignments, nonzero
//!   centroid tail bits, or *any* corrupted row record (whose true
//!   distance could violate the stored radii) — silently yields an
//!   unindexed load for the serving layer to rebuild, never a failed
//!   one. Row decoding (full and repair paths) is untouched:
//!   the section sits past every fixed-stride record offset.
//!
//! Checkpoint-written snapshots ([`save_snapshot_with_lsn`], used by
//! [`Wal::checkpoint`](crate::resilience::wal::Wal::checkpoint)) append
//! one 16-byte CRC-framed trailer binding the write-ahead log LSN the
//! snapshot covers; plain [`save_snapshot`] files stay byte-identical to
//! before and load with [`SnapshotLoad::wal_lsn`] `None`.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use hdc::prelude::*;

use crate::model::HamError;
use crate::resilience::scrub::{ScrubReport, Scrubber};

/// Snapshot file magic ("HAM snapshot, layout 1").
pub const MAGIC: [u8; 8] = *b"HAMSNAP1";
/// Current format version (v2 = v1 + optional bucket-index section;
/// unindexed memories still save as byte-identical v1 files).
const VERSION: u32 = 2;
/// Index-section bytes before the per-bucket arrays: bucket count +
/// dirty counter.
const INDEX_SECTION_HEAD: usize = 8 + 8;
/// Bytes of the fixed-width label field: 1 length byte + the content.
const LABEL_FIELD: usize = 48;
/// Maximum label bytes stored (longer labels are truncated on save).
pub const MAX_LABEL_BYTES: usize = LABEL_FIELD - 1;
/// Header bytes before its CRC: magic + version + dim + classes.
const HEADER_BODY: usize = 8 + 4 + 8 + 8;
/// Magic of the optional WAL-LSN trailer a checkpoint appends.
const LSN_TRAILER_MAGIC: [u8; 4] = *b"WMET";
/// Trailer bytes: magic + LSN + CRC-32 over both.
const LSN_TRAILER: usize = 4 + 8 + 4;

/// Errors of the snapshot path. Only *structural* damage (I/O, header
/// corruption) is an error — row corruption is data, not failure.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The header failed its checksum (or declares an impossible layout);
    /// nothing after it can be trusted.
    HeaderCorrupt,
    /// A golden-copy snapshot has corrupted rows; a damaged reference
    /// must never be used to repair anything.
    GoldenCorrupt {
        /// Number of golden rows that failed their CRC.
        rows: usize,
    },
    /// The post-load scrub/repair pass failed (e.g. the scrubber's golden
    /// rows do not match the snapshot's class count).
    Repair(HamError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a HAM snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::HeaderCorrupt => write!(f, "snapshot header failed its checksum"),
            SnapshotError::GoldenCorrupt { rows } => {
                write!(f, "golden snapshot has {rows} corrupted rows")
            }
            SnapshotError::Repair(e) => write!(f, "post-load repair failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Repair(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<HamError> for SnapshotError {
    fn from(e: HamError) -> Self {
        SnapshotError::Repair(e)
    }
}

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table of
/// the reflected polynomial 0xEDB88320, and `CRC_TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// eight bytes per step (slicing-by-8), then a byte at a time for the
/// tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// The outcome of loading a snapshot: the reconstructed memory plus the
/// rows whose records failed their CRC (loaded as-read — or zeroed when
/// the file was truncated mid-row — and awaiting scrub/repair).
#[derive(Debug, Clone)]
pub struct SnapshotLoad {
    /// The reconstructed memory, corrupted rows included.
    pub memory: AssociativeMemory,
    /// Rows that failed their CRC, in class order.
    pub corrupted: Vec<ClassId>,
    /// The write-ahead-log LSN this snapshot covers (records below it
    /// are inside the file), when the snapshot was written by a
    /// checkpoint via [`save_snapshot_with_lsn`]. `None` for plain
    /// snapshots and for a missing or corrupt trailer — recovery then
    /// falls back to the checkpoint watermark in the segment headers
    /// ([`replay_floor`](super::wal::replay_floor)), and refuses to
    /// guess when no watermark survives.
    pub wal_lsn: Option<u64>,
}

impl SnapshotLoad {
    /// Whether every row passed its checksum.
    pub fn is_clean(&self) -> bool {
        self.corrupted.is_empty()
    }
}

/// A snapshot load followed by a scrub/repair pass over the damage.
#[derive(Debug, Clone)]
pub struct RepairedLoad {
    /// The memory after repair.
    pub memory: AssociativeMemory,
    /// Rows whose on-disk records failed their CRC.
    pub corrupted_on_disk: Vec<ClassId>,
    /// The scrubber's report (covers disk damage *and* any rows that
    /// drifted from the golden copies for other reasons).
    pub scrub: ScrubReport,
}

fn words_per_row(dim: usize) -> usize {
    dim.div_ceil(64)
}

fn row_stride(dim: usize) -> usize {
    LABEL_FIELD + words_per_row(dim) * 8 + 4
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// Validates the magic, version, and header CRC of `header` (the first
/// `HEADER_BODY + 4` bytes of a snapshot) and returns
/// `(dim, classes, version)`.
fn parse_header(header: &[u8]) -> Result<(Dimension, usize, u32), SnapshotError> {
    if header.len() < HEADER_BODY + 4 {
        return Err(SnapshotError::HeaderCorrupt);
    }
    if header[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = le_u32(&header[8..]);
    let stored_crc = le_u32(&header[HEADER_BODY..]);
    if crc32(&header[..HEADER_BODY]) != stored_crc {
        return Err(SnapshotError::HeaderCorrupt);
    }
    if version == 0 || version > VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let dim = le_u64(&header[12..]) as usize;
    let classes = le_u64(&header[20..]) as usize;
    let Ok(dimension) = Dimension::new(dim) else {
        return Err(SnapshotError::HeaderCorrupt);
    };
    Ok((dimension, classes, version))
}

/// Decodes one row record of `body` into its label, the row's words
/// (written into `words`, bits past `dim` cleared) and its CRC verdict.
/// `class` is the record's global row index; a record past the available
/// bytes decodes as lost (zero row, `ok = false`).
fn decode_record(
    body: &[u8],
    class: usize,
    start: usize,
    dim: usize,
    words: &mut [u64],
) -> (String, bool) {
    let stride = row_stride(dim);
    if body.len() < start + stride {
        // Truncated mid-row: nothing trustworthy remains for this or any
        // later row.
        words.fill(0);
        return (format!("lost-{class}"), false);
    }
    let record = &body[start..start + stride];
    let stored = le_u32(&record[stride - 4..]);
    let ok = crc32(&record[..stride - 4]) == stored;
    let label_len = (record[0] as usize).min(MAX_LABEL_BYTES);
    let label = String::from_utf8_lossy(&record[1..1 + label_len]).into_owned();
    for (w, word) in words.iter_mut().enumerate() {
        *word = le_u64(&record[LABEL_FIELD + w * 8..]);
    }
    if !dim.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (dim % 64)) - 1;
        }
    }
    (label, ok)
}

/// What a snapshot is written from: a row space, its `(label, row)`
/// records in row order, and the bucket index, if any. Implemented by a
/// flat [`AssociativeMemory`] and by a published
/// [`MemoryVersion`](crate::shard::MemoryVersion), which encodes straight
/// from its chunks — a checkpoint never materializes a delta version.
/// Both write the same bytes for the same rows, labels and index.
pub trait SnapshotSource {
    /// The rows' dimensionality.
    fn dim(&self) -> Dimension;
    /// Number of records.
    fn rows(&self) -> usize;
    /// `(label, packed row words)` per class, in row order.
    fn records(&self) -> impl Iterator<Item = (&str, &[u64])>;
    /// The bucket index covering the rows, if any.
    fn index(&self) -> Option<&hdc::BucketIndex>;
}

impl SnapshotSource for AssociativeMemory {
    fn dim(&self) -> Dimension {
        AssociativeMemory::dim(self)
    }

    fn rows(&self) -> usize {
        self.len()
    }

    fn records(&self) -> impl Iterator<Item = (&str, &[u64])> {
        self.iter_words().map(|(_, label, words)| (label, words))
    }

    fn index(&self) -> Option<&hdc::BucketIndex> {
        AssociativeMemory::index(self)
    }
}

impl SnapshotSource for crate::shard::MemoryVersion {
    fn dim(&self) -> Dimension {
        crate::shard::MemoryVersion::dim(self)
    }

    fn rows(&self) -> usize {
        crate::shard::MemoryVersion::rows(self)
    }

    fn records(&self) -> impl Iterator<Item = (&str, &[u64])> {
        crate::shard::MemoryVersion::records(self)
    }

    fn index(&self) -> Option<&hdc::BucketIndex> {
        crate::shard::MemoryVersion::index(self)
    }
}

fn encode(source: &impl SnapshotSource) -> Vec<u8> {
    let dim = source.dim().get();
    let rows = source.rows();
    let index = source.index().filter(|index| index.buckets() > 0);
    // An unindexed memory still writes a byte-identical v1 file, so
    // pre-index snapshots and post-index snapshots of the same rows
    // only differ when there is an index to carry.
    let version: u32 = if index.is_some() { VERSION } else { 1 };
    let mut bytes = Vec::with_capacity(HEADER_BODY + 4 + rows * row_stride(dim));
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&(dim as u64).to_le_bytes());
    bytes.extend_from_slice(&(rows as u64).to_le_bytes());
    let header_crc = crc32(&bytes);
    bytes.extend_from_slice(&header_crc.to_le_bytes());
    for (label, words) in source.records() {
        let record_start = bytes.len();
        let label_bytes = label.as_bytes();
        let kept = label_bytes.len().min(MAX_LABEL_BYTES);
        bytes.push(kept as u8);
        bytes.extend_from_slice(&label_bytes[..kept]);
        bytes.resize(record_start + LABEL_FIELD, 0);
        for word in words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        let row_crc = crc32(&bytes[record_start..]);
        bytes.extend_from_slice(&row_crc.to_le_bytes());
    }
    if let Some(index) = index {
        encode_index_section(index, &mut bytes);
    }
    bytes
}

/// Appends the v2 index section: bucket count, dirty counter, radii,
/// centroid words, assignments, and a CRC-32 over all of it.
fn encode_index_section(index: &hdc::BucketIndex, bytes: &mut Vec<u8>) {
    let section_start = bytes.len();
    bytes.extend_from_slice(&(index.buckets() as u64).to_le_bytes());
    bytes.extend_from_slice(&(index.dirty() as u64).to_le_bytes());
    for &radius in index.radii() {
        bytes.extend_from_slice(&(radius as u64).to_le_bytes());
    }
    for word in index.centroids().as_words() {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    for &bucket in index.assignments() {
        bytes.extend_from_slice(&bucket.to_le_bytes());
    }
    let section_crc = crc32(&bytes[section_start..]);
    bytes.extend_from_slice(&section_crc.to_le_bytes());
}

/// Decodes the v2 index section out of `section` (the bytes after the
/// last row record). `None` on *any* inconsistency — short section,
/// failed CRC, impossible geometry, nonzero centroid tail bits — since
/// a best-effort index must never poison an otherwise good load.
fn decode_index_section(section: &[u8], dim: usize, classes: usize) -> Option<hdc::BucketIndex> {
    if section.len() < INDEX_SECTION_HEAD + 4 {
        return None;
    }
    let buckets = le_u64(section) as usize;
    let dirty = le_u64(&section[8..]) as usize;
    // A built index compacts empty buckets, so B ≤ C always holds; a
    // declared count past that is corruption, and bounding it here also
    // bounds the allocation below.
    if buckets == 0 || buckets > classes {
        return None;
    }
    let wpr = words_per_row(dim);
    let expected = INDEX_SECTION_HEAD + buckets * 8 + buckets * wpr * 8 + classes * 4 + 4;
    if section.len() < expected {
        return None;
    }
    let stored_crc = le_u32(&section[expected - 4..]);
    if crc32(&section[..expected - 4]) != stored_crc {
        return None;
    }
    let radii: Vec<usize> = (0..buckets)
        .map(|b| le_u64(&section[INDEX_SECTION_HEAD + b * 8..]) as usize)
        .collect();
    let words_start = INDEX_SECTION_HEAD + buckets * 8;
    let tail_mask = if dim.is_multiple_of(64) {
        0
    } else {
        !0u64 << (dim % 64)
    };
    let mut centroids = PackedRows::new(dim);
    let mut row = vec![0u64; wpr];
    for b in 0..buckets {
        for (w, word) in row.iter_mut().enumerate() {
            *word = le_u64(&section[words_start + (b * wpr + w) * 8..]);
        }
        // Spare bits past `dim` must be zero or every unmasked distance
        // against this centroid would be silently wrong.
        if let Some(&last) = row.last() {
            if last & tail_mask != 0 {
                return None;
            }
        }
        centroids.push(&row);
    }
    let assign_start = words_start + buckets * wpr * 8;
    let assignments: Vec<u32> = (0..classes)
        .map(|c| le_u32(&section[assign_start + c * 4..]))
        .collect();
    hdc::BucketIndex::from_parts(centroids, radii, assignments, dirty, hdc::active_backend())
}

/// Saves a checksummed snapshot of `memory` (an [`AssociativeMemory`]
/// or a published version) to `path` atomically: the bytes are written
/// to a sibling temp file, fsynced, and `rename`d over the destination,
/// so readers only ever observe a complete snapshot.
///
/// Labels longer than [`MAX_LABEL_BYTES`] bytes are truncated.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_snapshot(memory: &impl SnapshotSource, path: &Path) -> Result<(), SnapshotError> {
    publish_bytes(&encode(memory), path)
}

/// [`save_snapshot`] plus the WAL-LSN trailer: the snapshot additionally
/// records — atomically, inside the same rename — that every write-ahead
/// log record with LSN below `wal_lsn` is contained in it, so recovery
/// replays only the log's tail. This is the checkpoint save path; plain
/// [`save_snapshot`] files stay byte-identical to previous versions.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_snapshot_with_lsn(
    memory: &impl SnapshotSource,
    path: &Path,
    wal_lsn: u64,
) -> Result<(), SnapshotError> {
    let mut bytes = encode(memory);
    let trailer_start = bytes.len();
    bytes.extend_from_slice(&LSN_TRAILER_MAGIC);
    bytes.extend_from_slice(&wal_lsn.to_le_bytes());
    let trailer_crc = crc32(&bytes[trailer_start..]);
    bytes.extend_from_slice(&trailer_crc.to_le_bytes());
    publish_bytes(&bytes, path)
}

/// Decodes the optional WAL-LSN trailer off the end of a snapshot.
/// Anything short, unmagic, or failing its CRC is simply "no trailer":
/// the trailer is an optimization (replay less), never a load gate.
fn decode_lsn_trailer(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < HEADER_BODY + 4 + LSN_TRAILER {
        return None;
    }
    let trailer = &bytes[bytes.len() - LSN_TRAILER..];
    if trailer[..4] != LSN_TRAILER_MAGIC {
        return None;
    }
    if crc32(&trailer[..LSN_TRAILER - 4]) != le_u32(&trailer[LSN_TRAILER - 4..]) {
        return None;
    }
    Some(le_u64(&trailer[4..]))
}

/// Writes `bytes` to `path` atomically (temp + fsync + rename + parent
/// fsync) — the shared publish discipline of every snapshot save.
fn publish_bytes(bytes: &[u8], path: &Path) -> Result<(), SnapshotError> {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "snapshot".into());
    tmp_name.push(format!(".tmp-{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    // The rename is atomic but not durable until the directory entry
    // itself is on disk: fsync the parent so a crash right after publish
    // cannot roll the name back to the old (or no) snapshot.
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(dir) = fs::File::open(parent) {
            dir.sync_all()?;
        }
    }
    Ok(())
}

/// Loads a snapshot, verifying the header and every row record.
///
/// Rows that fail their CRC (or sit past a truncation point) do **not**
/// fail the load: they are reconstructed from whatever bytes are present
/// (zeros when truncated) and reported in [`SnapshotLoad::corrupted`] so
/// the caller can feed them to a scrubber — or use
/// [`load_snapshot_repaired`], which does exactly that.
///
/// # Errors
///
/// Returns a [`SnapshotError`] only for structural damage: I/O failures,
/// a bad magic, an unsupported version, or a header that fails its
/// checksum or declares an impossible geometry.
pub fn load_snapshot(path: &Path) -> Result<SnapshotLoad, SnapshotError> {
    let bytes = fs::read(path)?;
    let (dimension, classes, version) = parse_header(&bytes)?;
    // Geometry sanity: the declared row count must not be wildly beyond
    // what the file could hold (a checksummed header makes this nearly
    // redundant, but it bounds allocation on adversarial input).
    if classes > bytes.len() {
        return Err(SnapshotError::HeaderCorrupt);
    }

    let dim = dimension.get();
    let stride = row_stride(dim);
    let mut rows = PackedRows::with_capacity(dim, classes);
    let mut labels = Vec::with_capacity(classes);
    let mut words = vec![0u64; words_per_row(dim)];
    let mut corrupted = Vec::new();
    let body = &bytes[HEADER_BODY + 4..];
    for class in 0..classes {
        let (label, ok) = decode_record(body, class, class * stride, dim, &mut words);
        rows.push(&words);
        labels.push(label);
        if !ok {
            corrupted.push(ClassId(class));
        }
    }
    let mut memory =
        AssociativeMemory::from_packed(rows, labels).expect("one label per decoded row");
    // The v2 index section only attaches when every row came back
    // clean: the radius bound is a promise about the *saved* rows, and
    // a corrupt row's true distance could violate it, breaking the
    // pruned scan's exactness. Any section damage degrades to an
    // unindexed load — the serving layer's `ensure_indexed` rebuilds.
    if version >= 2 && corrupted.is_empty() {
        if let Some(index) = body
            .get(classes * stride..)
            .and_then(|section| decode_index_section(section, dim, classes))
        {
            let _ = memory.attach_index(std::sync::Arc::new(index));
        }
    }
    Ok(SnapshotLoad {
        memory,
        corrupted,
        wal_lsn: decode_lsn_trailer(&bytes),
    })
}

/// Loads a snapshot and immediately repairs it against `scrubber`'s
/// golden copies — the quarantine-restore path of the serving runtime.
///
/// # Errors
///
/// Structural snapshot damage as in [`load_snapshot`], plus
/// [`SnapshotError::Repair`] when the scrubber does not match the
/// snapshot's geometry.
pub fn load_snapshot_repaired(
    path: &Path,
    scrubber: &Scrubber,
) -> Result<RepairedLoad, SnapshotError> {
    let load = load_snapshot(path)?;
    let mut memory = load.memory;
    let scrub = scrubber.repair(&mut memory)?;
    Ok(RepairedLoad {
        memory,
        corrupted_on_disk: load.corrupted,
        scrub,
    })
}

/// Saves a scrubber's golden rows as a snapshot (labels `golden-<i>`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_golden(scrubber: &Scrubber, path: &Path) -> Result<(), SnapshotError> {
    let golden = scrubber.golden();
    let mut rows = PackedRows::with_capacity(golden.dim().get(), golden.rows());
    for (_, words) in golden.records() {
        rows.push(words);
    }
    let labels = (0..golden.rows())
        .map(|class| format!("golden-{class}"))
        .collect();
    let memory = AssociativeMemory::from_packed(rows, labels).expect("one label per golden row");
    save_snapshot(&memory, path)
}

/// Loads a scrubber's golden rows back from a snapshot. Unlike a model
/// load, **any** corruption is fatal: a damaged reference copy must never
/// be used to repair a live array.
///
/// # Errors
///
/// Structural damage as in [`load_snapshot`], plus
/// [`SnapshotError::GoldenCorrupt`] when any golden row failed its CRC
/// and [`SnapshotError::Repair`] when the file holds no rows at all.
pub fn load_golden(path: &Path) -> Result<Scrubber, SnapshotError> {
    let load = load_snapshot(path)?;
    if !load.is_clean() {
        return Err(SnapshotError::GoldenCorrupt {
            rows: load.corrupted.len(),
        });
    }
    if load.memory.is_empty() {
        return Err(SnapshotError::Repair(HamError::NoClasses));
    }
    Ok(Scrubber::from_memory(&load.memory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::random_memory;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hdham-snapshot-{tag}-{}.ham", std::process::id()))
    }

    fn cleanup(path: &Path) {
        let _ = fs::remove_file(path);
    }

    #[test]
    fn round_trip_is_exact() {
        let memory = random_memory(9, 1_000, 3);
        let path = temp_path("roundtrip");
        save_snapshot(&memory, &path).unwrap();
        let load = load_snapshot(&path).unwrap();
        assert!(load.is_clean());
        assert_eq!(load.memory.dim(), memory.dim());
        assert_eq!(load.memory.len(), memory.len());
        for (class, label, row) in memory.iter() {
            assert_eq!(load.memory.label(class), Some(label));
            assert_eq!(load.memory.row(class), Some(row));
        }
        // Atomic overwrite: saving again over the published name works.
        save_snapshot(&memory, &path).unwrap();
        assert!(load_snapshot(&path).unwrap().is_clean());
        cleanup(&path);
    }

    #[test]
    fn flipped_row_bytes_are_detected_and_repaired() {
        let memory = random_memory(6, 500, 7);
        let scrubber = Scrubber::from_memory(&memory);
        let path = temp_path("rowflip");
        save_snapshot(&memory, &path).unwrap();

        // Flip bytes inside row 3's word region.
        let mut bytes = fs::read(&path).unwrap();
        let offset = HEADER_BODY + 4 + 3 * row_stride(500) + LABEL_FIELD + 10;
        bytes[offset] ^= 0xFF;
        bytes[offset + 1] ^= 0x0F;
        fs::write(&path, &bytes).unwrap();

        let load = load_snapshot(&path).unwrap();
        assert_eq!(load.corrupted, vec![ClassId(3)]);
        assert_ne!(load.memory.row(ClassId(3)), memory.row(ClassId(3)));

        let repaired = load_snapshot_repaired(&path, &scrubber).unwrap();
        assert_eq!(repaired.corrupted_on_disk, vec![ClassId(3)]);
        assert!(repaired.scrub.repaired.contains(&ClassId(3)));
        for (class, _, row) in memory.iter() {
            assert_eq!(repaired.memory.row(class), Some(row), "{class}");
        }
        cleanup(&path);
    }

    #[test]
    fn corrupt_header_fails_the_load() {
        let memory = random_memory(3, 256, 1);
        let path = temp_path("header");
        save_snapshot(&memory, &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[14] ^= 0xA5; // inside the dim field
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotError::HeaderCorrupt)
        ));
        bytes[14] ^= 0xA5;
        bytes[0] = b'X'; // magic
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_snapshot(&path), Err(SnapshotError::BadMagic)));
        cleanup(&path);
    }

    #[test]
    fn truncated_file_marks_the_missing_rows_corrupted() {
        let memory = random_memory(5, 320, 9);
        let scrubber = Scrubber::from_memory(&memory);
        let path = temp_path("truncated");
        save_snapshot(&memory, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Cut into the middle of row 3's record.
        let cut = HEADER_BODY + 4 + 3 * row_stride(320) + 20;
        fs::write(&path, &bytes[..cut]).unwrap();
        let load = load_snapshot(&path).unwrap();
        assert_eq!(load.corrupted, vec![ClassId(3), ClassId(4)]);
        assert_eq!(load.memory.len(), 5);
        let repaired = load_snapshot_repaired(&path, &scrubber).unwrap();
        for (class, _, row) in memory.iter() {
            assert_eq!(repaired.memory.row(class), Some(row), "{class}");
        }
        cleanup(&path);
    }

    #[test]
    fn golden_round_trip_and_corruption_policy() {
        let memory = random_memory(4, 200, 11);
        let scrubber = Scrubber::from_memory(&memory);
        let path = temp_path("golden");
        save_golden(&scrubber, &path).unwrap();
        let back = load_golden(&path).unwrap();
        assert_eq!(back.classes(), 4);
        for c in 0..4 {
            assert_eq!(back.golden_row(ClassId(c)), scrubber.golden_row(ClassId(c)));
        }
        // A damaged golden snapshot must refuse to become a scrubber.
        let mut bytes = fs::read(&path).unwrap();
        let offset = HEADER_BODY + 4 + row_stride(200) + LABEL_FIELD + 2;
        bytes[offset] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_golden(&path),
            Err(SnapshotError::GoldenCorrupt { rows: 1 })
        ));
        cleanup(&path);
    }

    #[test]
    fn unindexed_memories_save_as_version_1() {
        let memory = random_memory(5, 300, 13);
        assert!(memory.index().is_none());
        let path = temp_path("v1compat");
        save_snapshot(&memory, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(le_u32(&bytes[8..]), 1, "unindexed snapshot stays v1");
        assert_eq!(bytes.len(), HEADER_BODY + 4 + 5 * row_stride(300));
        assert!(load_snapshot(&path).unwrap().memory.index().is_none());
        cleanup(&path);
    }

    #[test]
    fn indexed_round_trip_restores_the_index() {
        let mut memory = random_memory(24, 320, 17);
        memory
            .build_index(hdc::IndexBuildOptions::default())
            .unwrap();
        let path = temp_path("v2roundtrip");
        save_snapshot(&memory, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(le_u32(&bytes[8..]), 2, "indexed snapshot is v2");

        let load = load_snapshot(&path).unwrap();
        assert!(load.is_clean());
        assert_eq!(load.memory.index(), memory.index(), "index survives");
        for (class, label, row) in memory.iter() {
            assert_eq!(load.memory.label(class), Some(label));
            assert_eq!(load.memory.row(class), Some(row));
        }
        cleanup(&path);
    }

    #[test]
    fn corrupt_index_section_degrades_to_an_unindexed_load() {
        let mut memory = random_memory(16, 256, 19);
        memory
            .build_index(hdc::IndexBuildOptions::default())
            .unwrap();
        let path = temp_path("v2badsection");
        save_snapshot(&memory, &path).unwrap();
        let clean = fs::read(&path).unwrap();
        let rows_end = HEADER_BODY + 4 + 16 * row_stride(256);

        // A flipped byte inside the section fails its CRC.
        let mut bytes = clean.clone();
        bytes[rows_end + 20] ^= 0x5A;
        fs::write(&path, &bytes).unwrap();
        let load = load_snapshot(&path).unwrap();
        assert!(load.is_clean(), "rows are untouched");
        assert!(load.memory.index().is_none(), "damaged section dropped");

        // A truncated section degrades the same way.
        fs::write(&path, &clean[..rows_end + 10]).unwrap();
        let load = load_snapshot(&path).unwrap();
        assert!(load.is_clean());
        assert!(load.memory.index().is_none());
        cleanup(&path);
    }

    #[test]
    fn corrupt_rows_keep_the_index_detached() {
        let mut memory = random_memory(16, 256, 23);
        memory
            .build_index(hdc::IndexBuildOptions::default())
            .unwrap();
        let path = temp_path("v2badrow");
        save_snapshot(&memory, &path).unwrap();
        // Damage one row record; the section itself is intact, but the
        // radius bound can no longer be trusted over the loaded rows.
        let mut bytes = fs::read(&path).unwrap();
        let offset = HEADER_BODY + 4 + 7 * row_stride(256) + LABEL_FIELD + 2;
        bytes[offset] ^= 0x11;
        fs::write(&path, &bytes).unwrap();
        let load = load_snapshot(&path).unwrap();
        assert_eq!(load.corrupted, vec![ClassId(7)]);
        assert!(load.memory.index().is_none());
        cleanup(&path);
    }

    #[test]
    fn rows_and_index_both_damaged_still_serve_the_surviving_rows() {
        // The §14 combination matrix's last cell: row damage *and*
        // section damage in one file. The load must still hand back
        // every clean row (scrub repairs the rest from the golden
        // copy), report exactly the damaged rows, and drop the index —
        // never trust a radius bound over rows it cannot verify.
        let mut memory = random_memory(16, 256, 29);
        memory
            .build_index(hdc::IndexBuildOptions::default())
            .unwrap();
        let path = temp_path("v2bothbad");
        save_snapshot(&memory, &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let rows_end = HEADER_BODY + 4 + 16 * row_stride(256);
        bytes[HEADER_BODY + 4 + 3 * row_stride(256) + LABEL_FIELD + 1] ^= 0x40;
        bytes[rows_end + 12] ^= 0x77;
        fs::write(&path, &bytes).unwrap();

        let load = load_snapshot(&path).unwrap();
        assert_eq!(load.corrupted, vec![ClassId(3)]);
        assert!(load.memory.index().is_none());
        for (class, label, row) in memory.iter() {
            if class != ClassId(3) {
                assert_eq!(load.memory.label(class), Some(label));
                assert_eq!(load.memory.row(class), Some(row));
            }
        }
        cleanup(&path);
    }

    /// A delta-published version encodes straight from its chunks to
    /// exactly the bytes its materialized memory saves: v1 (unindexed),
    /// v2 (indexed), with and without the LSN trailer, and through a
    /// WAL checkpoint — none of which materializes the version.
    #[test]
    fn version_snapshots_match_the_materialized_memory_byte_for_byte() {
        use crate::index::IndexPolicy;
        use crate::resilience::wal::{Wal, WalOptions};
        use crate::shard::{OnlineUpdater, VersionedMemory};
        use std::sync::Arc;

        for indexed in [false, true] {
            let tag = if indexed { "v2" } else { "v1" };
            let mut memory = random_memory(300, 256, 41);
            let mut updater_policy = None;
            if indexed {
                memory
                    .build_index(hdc::IndexBuildOptions::default())
                    .unwrap();
                updater_policy = Some(IndexPolicy::default());
            }
            let versioned = Arc::new(VersionedMemory::new(memory));
            let wal_dir = std::env::temp_dir().join(format!(
                "hdham-snapshot-version-{tag}-{}.wal",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&wal_dir);
            let wal = Arc::new(
                Wal::open(&wal_dir, versioned.load().dim(), WalOptions::default()).unwrap(),
            );
            let mut updater = OnlineUpdater::new(Arc::clone(&versioned)).with_wal(wal);
            if let Some(policy) = updater_policy {
                updater = updater.with_index_policy(policy);
            }
            let dim = versioned.load().dim();
            updater
                .rethreshold_row(ClassId(17), Hypervector::random(dim, 1))
                .unwrap();
            updater
                .add_class(
                    "a-label-longer-than-the-forty-seven-byte-field-keeps",
                    Hypervector::random(dim, 2),
                )
                .unwrap();
            updater.retire_class(ClassId(3)).unwrap();
            updater
                .rethreshold_row(ClassId(200), Hypervector::random(dim, 3))
                .unwrap();

            let (from_chunks, from_memory) = (temp_path("chunks"), temp_path("memory"));
            let checkpointed = temp_path("checkpoint");
            updater.checkpoint(&checkpointed).unwrap();
            let version = versioned.load();
            save_snapshot(&*version, &from_chunks).unwrap();
            let plain = fs::read(&from_chunks).unwrap();
            save_snapshot_with_lsn(&*version, &from_chunks, 77).unwrap();
            let trailed = fs::read(&from_chunks).unwrap();
            assert!(!version.is_materialized(), "{tag}: encoding materialized");
            let covered = load_snapshot(&checkpointed).unwrap().wal_lsn.unwrap();

            assert_eq!(version.memory().index().is_some(), indexed, "{tag}");
            save_snapshot(version.memory(), &from_memory).unwrap();
            assert_eq!(plain, fs::read(&from_memory).unwrap(), "{tag}: plain");
            save_snapshot_with_lsn(version.memory(), &from_memory, 77).unwrap();
            assert_eq!(trailed, fs::read(&from_memory).unwrap(), "{tag}: trailer");
            save_snapshot_with_lsn(version.memory(), &from_memory, covered).unwrap();
            assert_eq!(
                fs::read(&checkpointed).unwrap(),
                fs::read(&from_memory).unwrap(),
                "{tag}: checkpoint"
            );
            for path in [&from_chunks, &from_memory, &checkpointed] {
                cleanup(path);
            }
            let _ = fs::remove_dir_all(&wal_dir);
        }
    }

    #[test]
    fn lsn_trailer_round_trips_and_corruption_means_no_trailer() {
        let mut memory = random_memory(16, 256, 31);
        memory
            .build_index(hdc::IndexBuildOptions::default())
            .unwrap();
        let path = temp_path("lsntrailer");

        // A plain save carries no trailer.
        save_snapshot(&memory, &path).unwrap();
        assert_eq!(load_snapshot(&path).unwrap().wal_lsn, None);

        // A checkpoint save binds the LSN and stays a clean v2 load.
        save_snapshot_with_lsn(&memory, &path, 0xDEAD_BEEF).unwrap();
        let load = load_snapshot(&path).unwrap();
        assert_eq!(load.wal_lsn, Some(0xDEAD_BEEF));
        assert!(load.is_clean());
        assert_eq!(load.memory.index(), memory.index());

        // A damaged trailer is "no trailer", never a failed load.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let load = load_snapshot(&path).unwrap();
        assert_eq!(load.wal_lsn, None);
        assert!(load.is_clean());
        cleanup(&path);
    }

    #[test]
    fn row_bits_past_dim_are_ignored_on_load() {
        let dim = 100;
        let memory = random_memory(4, dim, 12);
        let path = temp_path("tailbits");
        save_snapshot(&memory, &path).unwrap();

        // Set every bit past `dim` in row 2's last word and re-armour the
        // record, so the row passes its CRC with junk in the tail.
        let mut bytes = fs::read(&path).unwrap();
        let stride = row_stride(dim);
        let record = HEADER_BODY + 4 + 2 * stride;
        let last = record + LABEL_FIELD + (words_per_row(dim) - 1) * 8;
        let word = le_u64(&bytes[last..]) | !0u64 << (dim % 64);
        bytes[last..last + 8].copy_from_slice(&word.to_le_bytes());
        let crc = crc32(&bytes[record..record + stride - 4]);
        bytes[record + stride - 4..record + stride].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        let load = load_snapshot(&path).unwrap();
        assert!(load.is_clean());
        for (class, _, row) in memory.iter() {
            let loaded = load.memory.row(class).unwrap();
            assert_eq!(loaded, row, "{class}");
            assert_eq!(
                loaded.as_bitvec().count_ones(),
                row.as_bitvec().iter().filter(|&b| b).count()
            );
        }
        cleanup(&path);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bitwise CRC-32, one byte and one bit at a time.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn sliced_crc32_matches_the_bytewise_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 4_104..4_105),
            len in 0usize..4_096,
        ) {
            // Every start offset, so the 8-byte steps meet every alignment.
            for start in 0..8 {
                let data = &bytes[start..start + len];
                proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data), "start {}", start);
            }
        }
    }

    #[test]
    fn errors_display() {
        for e in [
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion(9),
            SnapshotError::HeaderCorrupt,
            SnapshotError::GoldenCorrupt { rows: 2 },
            SnapshotError::Repair(HamError::NoClasses),
            SnapshotError::Io(io::Error::other("x")),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
