//! Two-level coarse-quantized index over [`PackedRows`] — exact
//! sublinear search.
//!
//! The linear scan is O(C·D) no matter how good the kernels are
//! (DESIGN.md §9/§12). Following MEMHD's multi-centroid associative
//! memory, this module clusters the `C` stored rows into `B ≈ √C`
//! buckets, each summarized by one **bundled-centroid hypervector** (the
//! per-bit majority of its members, the classic HD bundling operation)
//! plus the bucket's **radius** — the maximum Hamming distance from any
//! member to its centroid.
//!
//! A query then scans the `B` centroids first and walks buckets in
//! ascending lower-bound order, running the exact member scan only
//! inside buckets that survive the triangle-inequality Hamming bound
//!
//! ```text
//! d(q, row) ≥ d(q, centroid) − d(centroid, row) ≥ d(q, centroid) − radius
//! ```
//!
//! A bucket whose bound strictly exceeds the current runner-up provably
//! cannot change the winner *or* the runner-up, so pruning keeps the
//! result **bit-identical** to the linear scan (proof sketch in
//! DESIGN.md §14). The masked variant stays sound because a masked
//! distance never exceeds the full-dimension distance, so the
//! full-dimension radius still dominates `d_M(centroid, row)`.
//!
//! An explicit probe mode ([`ScanStrategy::Probe`]) visits only the
//! `nprobe` non-empty buckets closest by centroid distance —
//! approximate, with recall measured in the bench (`BENCH_search.json`
//! `index_scaling`), mirroring the paper's sampling knobs.
//!
//! [`ScanStrategy::Probe`]: super::ScanStrategy::Probe

use std::cell::RefCell;
use std::cmp::Ordering;

use super::{splitmix64, DistanceBackend, Min2, PackedRows, RowSource};

/// Seed for the deterministic medoid initialization and majority
/// tie-breaks (arbitrary constant; fixed so index builds are
/// reproducible across runs and processes).
pub const INDEX_SEED: u64 = 0x4841_4D5F_4258_4944;

/// Pairwise centroid distances sampled for
/// [`IndexStats::mean_separation`] when the full pair count exceeds
/// this budget.
const SEPARATION_PAIR_BUDGET: usize = 4096;

thread_local! {
    /// Per-thread `(sort key, lower bound, bucket)` scratch for the
    /// bucket walk, so an indexed scan allocates nothing after the
    /// first call on a thread.
    static BUCKET_SCRATCH: RefCell<Vec<(usize, usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Observability counters for one scan: how much work the bucket
/// pruning actually saved. All strategies fill `rows_scanned`; only
/// indexed walks fill the bucket fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanCounters {
    /// Buckets whose members were visited (had at least one member
    /// and survived the radius bound).
    pub buckets_probed: u64,
    /// Rows handed to the distance backend (including rows the backend
    /// abandoned early under its bound).
    pub rows_scanned: u64,
    /// Rows never touched: members of buckets pruned by the radius
    /// bound, or outside the probed set in [`Probe`] mode.
    ///
    /// [`Probe`]: super::ScanStrategy::Probe
    pub rows_pruned: u64,
    /// Rows dropped wholesale by the bit-sliced columnwise group bound
    /// ([`BitSlicedRows`]) — kept distinct from `rows_pruned` so
    /// telemetry can tell columnwise pruning from bucket pruning.
    ///
    /// [`BitSlicedRows`]: super::bitsliced::BitSlicedRows
    pub rows_group_pruned: u64,
}

impl ScanCounters {
    /// Folds another scan's counters into this one (saturating, so
    /// long-lived aggregates never wrap).
    pub fn absorb(&mut self, other: ScanCounters) {
        self.buckets_probed = self.buckets_probed.saturating_add(other.buckets_probed);
        self.rows_scanned = self.rows_scanned.saturating_add(other.rows_scanned);
        self.rows_pruned = self.rows_pruned.saturating_add(other.rows_pruned);
        self.rows_group_pruned = self
            .rows_group_pruned
            .saturating_add(other.rows_group_pruned);
    }
}

/// Shape summary of a built [`BucketIndex`] — the signal
/// [`ScanStrategy::Auto`] reads to decide whether bucket pruning can
/// win on this data (see [`IndexStats::pruning_friendly`]).
///
/// [`ScanStrategy::Auto`]: super::ScanStrategy::Auto
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Number of (non-empty at build time) buckets, `B`.
    pub buckets: usize,
    /// Number of indexed rows, `C`.
    pub rows: usize,
    /// Mean over buckets of the max member↔centroid distance.
    pub mean_radius: usize,
    /// Largest bucket radius.
    pub max_radius: usize,
    /// Mean pairwise centroid distance (sampled above
    /// a few thousand pairs; 0 with fewer than two buckets).
    pub mean_separation: usize,
}

impl IndexStats {
    /// `true` when the radius bound can plausibly prune: buckets are
    /// separated by clearly more than their diameters. The margin term
    /// `dim / 16` keeps uniform random rows — where separation and
    /// 2·radius both sit near `dim / 2` and pruning never fires — on
    /// the linear-scan side of the rule (decision rule documented in
    /// DESIGN.md §12).
    pub fn pruning_friendly(&self, dim: usize) -> bool {
        self.buckets >= 2 && self.mean_separation >= 2 * self.mean_radius + dim / 16
    }

    /// `true` for the near-duplicate shape where the PR-5 cascade wins:
    /// rows so tightly packed (tiny radii) that bucket pruning cannot
    /// separate them, but a sampled prefilter orders them well.
    pub fn cascade_friendly(&self, dim: usize) -> bool {
        !self.pruning_friendly(dim) && self.mean_radius <= dim / 32
    }
}

/// Knobs of [`BucketIndex::build`]. The defaults are what
/// `ensure_indexed` (ham-core) and the serving paths use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexBuildOptions {
    /// Bucket count `B`; `0` picks `⌈√C⌉`, the classic IVF balance
    /// point where centroid scan and bucket scan cost the same.
    pub buckets: usize,
    /// Seed for medoid initialization and majority tie-breaks.
    pub seed: u64,
    /// Bundling refinement passes (assign a sample, recenter each
    /// bucket to the per-bit majority of its sample members).
    pub refine_passes: usize,
    /// Rows sampled per bucket per refinement pass (clamped to ≥ 1);
    /// the full matrix is only walked once, in the final assignment.
    pub sample_per_bucket: usize,
}

impl Default for IndexBuildOptions {
    fn default() -> Self {
        IndexBuildOptions {
            buckets: 0,
            seed: INDEX_SEED,
            refine_passes: 2,
            sample_per_bucket: 32,
        }
    }
}

/// The two-level index: per-bucket sorted member lists over the
/// original row numbering (rows are never re-packed), one bundled
/// centroid row per bucket, and per-bucket radii.
///
/// An index is built against one specific [`PackedRows`] snapshot, and
/// it scans through a [`ScanPlan`](super::ScanPlan), whose constructor
/// asserts that the index covers the matrix. Incremental mutation goes
/// through [`assign_row`](Self::assign_row) (reassign-on-add — radii
/// only grow, which keeps the bound sound but loosens it, tracked by
/// [`dirty`](Self::dirty) until the owner rebuilds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketIndex {
    centroids: PackedRows,
    radii: Vec<usize>,
    members: Vec<Vec<u32>>,
    assignments: Vec<u32>,
    dirty: usize,
    stats: IndexStats,
}

/// Integer square root (Newton), for the `B = ⌈√C⌉` default.
fn isqrt(n: usize) -> usize {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

/// Nearest centroid of `row` with early abandonment: `(bucket,
/// distance)`, ties to the lowest bucket.
fn nearest(centroids: &PackedRows, backend: &dyn DistanceBackend, row: &[u64]) -> (usize, usize) {
    let mut best = 0usize;
    let mut best_distance = usize::MAX;
    for (bucket, centroid) in centroids.iter_rows().enumerate() {
        if best_distance == 0 {
            break;
        }
        // Only a strict improvement matters, so the backend may abandon
        // at `best_distance - 1`; abandonment is optional, so a `Some`
        // above the bound must still be filtered.
        if let Some(distance) = backend.bounded_distance(centroid, row, best_distance - 1) {
            if distance < best_distance {
                best = bucket;
                best_distance = distance;
            }
        }
    }
    (best, best_distance)
}

impl BucketIndex {
    /// Builds an index over `packed`: seeded distinct-medoid
    /// initialization, `refine_passes` rounds of sampled
    /// assign-and-rebundle (per-bit majority recentering, the k-medoids
    /// analogue in Hamming space), then one full assignment pass that
    /// fixes memberships and radii. Empty buckets are compacted away.
    ///
    /// Deterministic for a given `(packed, options.seed)` on every
    /// backend (backends are bit-identical). Returns `None` for an
    /// empty matrix.
    pub fn build(
        packed: &PackedRows,
        backend: &dyn DistanceBackend,
        options: IndexBuildOptions,
    ) -> Option<BucketIndex> {
        let rows = packed.len();
        if rows == 0 {
            return None;
        }
        let dim = packed.dim();
        let wpr = packed.words_per_row();
        let target = match options.buckets {
            0 => isqrt(rows).max(1),
            b => b,
        }
        .min(rows);

        // Seeded distinct medoids; a deterministic sequential fill
        // covers pathological collision streaks.
        let mut taken = vec![false; rows];
        let mut centroids = PackedRows::with_capacity(dim, target);
        let mut picked = 0usize;
        let mut attempt = 0u64;
        while picked < target && attempt < 8 * rows as u64 + 64 {
            let cand = (splitmix64(options.seed ^ attempt) % rows as u64) as usize;
            attempt += 1;
            if !taken[cand] {
                taken[cand] = true;
                centroids.push(packed.row_words(cand));
                picked += 1;
            }
        }
        for (cand, slot) in taken.iter_mut().enumerate() {
            if picked == target {
                break;
            }
            if !*slot {
                *slot = true;
                centroids.push(packed.row_words(cand));
                picked += 1;
            }
        }

        // Sampled refinement: assign a deterministic row sample, then
        // recenter every bucket to the per-bit majority of its sample
        // members (bundling). Seeded tie-break at exact half.
        let want = target
            .saturating_mul(options.sample_per_bucket.max(1))
            .min(rows)
            .max(1);
        let mut word_buf = vec![0u64; wpr];
        for _ in 0..options.refine_passes {
            let mut counts = vec![0u32; target * dim];
            let mut sizes = vec![0u32; target];
            for k in 0..want {
                let row_id = k * rows / want;
                let row = packed.row_words(row_id);
                let (bucket, _) = nearest(&centroids, backend, row);
                sizes[bucket] += 1;
                let base = bucket * dim;
                for (w, &word) in row.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let bit = bits.trailing_zeros() as usize;
                        counts[base + w * 64 + bit] += 1;
                        bits &= bits - 1;
                    }
                }
            }
            let mut next = PackedRows::with_capacity(dim, target);
            for (bucket, &bucket_size) in sizes.iter().enumerate() {
                if bucket_size == 0 {
                    next.push(centroids.row_words(bucket));
                    continue;
                }
                word_buf.iter_mut().for_each(|w| *w = 0);
                let size = u64::from(bucket_size);
                let base = bucket * dim;
                for (bit, &count) in counts[base..base + dim].iter().enumerate() {
                    let set = match (2 * u64::from(count)).cmp(&size) {
                        Ordering::Greater => true,
                        Ordering::Less => false,
                        Ordering::Equal => {
                            splitmix64(options.seed ^ ((bucket as u64) << 32) ^ bit as u64) & 1 == 1
                        }
                    };
                    if set {
                        word_buf[bit / 64] |= 1 << (bit % 64);
                    }
                }
                next.push(&word_buf);
            }
            centroids = next;
        }

        // Final full assignment fixes memberships and radii.
        let mut assignments = vec![0u32; rows];
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); target];
        let mut radii = vec![0usize; target];
        for (row_id, slot) in assignments.iter_mut().enumerate() {
            let (bucket, distance) = nearest(&centroids, backend, packed.row_words(row_id));
            *slot = bucket as u32;
            members[bucket].push(row_id as u32);
            radii[bucket] = radii[bucket].max(distance);
        }

        // Compact empty buckets out.
        let keep: Vec<usize> = (0..target).filter(|&b| !members[b].is_empty()).collect();
        if keep.len() < target {
            let mut remap = vec![u32::MAX; target];
            let mut kept_centroids = PackedRows::with_capacity(dim, keep.len());
            let mut kept_members = Vec::with_capacity(keep.len());
            let mut kept_radii = Vec::with_capacity(keep.len());
            for (new_id, &old) in keep.iter().enumerate() {
                remap[old] = new_id as u32;
                kept_centroids.push(centroids.row_words(old));
                kept_members.push(std::mem::take(&mut members[old]));
                kept_radii.push(radii[old]);
            }
            for a in &mut assignments {
                *a = remap[*a as usize];
            }
            centroids = kept_centroids;
            members = kept_members;
            radii = kept_radii;
        }

        let stats = compute_stats(&centroids, &radii, rows, backend, options.seed);
        Some(BucketIndex {
            centroids,
            radii,
            members,
            assignments,
            dirty: 0,
            stats,
        })
    }

    /// Reassembles an index from its serialized parts (the snapshot
    /// loader's entry point). Shape is validated — bucket/radius count
    /// match, every assignment in range, radii within `dim` — and
    /// member lists and stats are recomputed; `None` means the parts
    /// are inconsistent and the caller should treat the memory as
    /// unindexed.
    pub fn from_parts(
        centroids: PackedRows,
        radii: Vec<usize>,
        assignments: Vec<u32>,
        dirty: usize,
        backend: &dyn DistanceBackend,
    ) -> Option<BucketIndex> {
        let buckets = centroids.len();
        if radii.len() != buckets {
            return None;
        }
        if buckets == 0 && !assignments.is_empty() {
            return None;
        }
        if radii.iter().any(|&r| r > centroids.dim()) {
            return None;
        }
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); buckets];
        for (row, &bucket) in assignments.iter().enumerate() {
            if bucket as usize >= buckets {
                return None;
            }
            members[bucket as usize].push(row as u32);
        }
        let stats = compute_stats(&centroids, &radii, assignments.len(), backend, INDEX_SEED);
        Some(BucketIndex {
            centroids,
            radii,
            members,
            assignments,
            dirty,
            stats,
        })
    }

    /// Number of buckets, `B`.
    pub fn buckets(&self) -> usize {
        self.centroids.len()
    }

    /// Number of indexed rows, `C`.
    pub fn rows(&self) -> usize {
        self.assignments.len()
    }

    /// The bundled-centroid matrix (`B` rows, same width as the
    /// indexed matrix).
    pub fn centroids(&self) -> &PackedRows {
        &self.centroids
    }

    /// Per-bucket max member↔centroid distance.
    pub fn radii(&self) -> &[usize] {
        &self.radii
    }

    /// Row → bucket map over the indexed matrix.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Ascending member rows of `bucket`.
    pub fn members(&self, bucket: usize) -> &[u32] {
        &self.members[bucket]
    }

    /// Bucket of `row`.
    pub fn bucket_of(&self, row: usize) -> usize {
        self.assignments[row] as usize
    }

    /// Shape summary (radii/separation) — what
    /// [`ScanStrategy::Auto`](super::ScanStrategy::Auto) reads.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Incremental mutations absorbed since the last full build. The
    /// owner's rebuild policy (`ensure_indexed` in ham-core) compares
    /// this against the row count.
    pub fn dirty(&self) -> usize {
        self.dirty
    }

    /// Absorbs one appended or replaced row: assigns it to its nearest
    /// centroid, grows that bucket's radius if needed, and (for a
    /// replacement) drops the old membership. Radii never shrink and
    /// centroids never move here, so the triangle bound stays sound —
    /// just looser — until a rebuild; every mutation bumps
    /// [`dirty`](Self::dirty).
    ///
    /// Call *after* mutating `packed`. `row` must be an existing row
    /// or the one just appended.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range, skips ahead of the indexed
    /// rows, or `packed` has a different row width.
    pub fn assign_row(
        &mut self,
        packed: &dyn RowSource,
        backend: &dyn DistanceBackend,
        row: usize,
    ) {
        assert!(row < packed.len(), "row {row} out of range");
        assert!(
            row <= self.assignments.len(),
            "rows must be appended in order"
        );
        assert_eq!(
            self.centroids.words_per_row(),
            packed.words_per_row(),
            "index row width mismatch"
        );
        let (bucket, distance) = nearest(&self.centroids, backend, packed.row_words(row));
        if row < self.assignments.len() {
            let old = self.assignments[row] as usize;
            let old_members = &mut self.members[old];
            if let Ok(at) = old_members.binary_search(&(row as u32)) {
                old_members.remove(at);
            }
            self.assignments[row] = bucket as u32;
        } else {
            self.assignments.push(bucket as u32);
        }
        let members = &mut self.members[bucket];
        if let Err(at) = members.binary_search(&(row as u32)) {
            members.insert(at, row as u32);
        }
        self.radii[bucket] = self.radii[bucket].max(distance);
        self.dirty += 1;
        self.stats.rows = self.assignments.len();
        self.stats.max_radius = self.radii.iter().copied().max().unwrap_or(0);
        self.stats.mean_radius = match self.radii.len() {
            0 => 0,
            n => self.radii.iter().sum::<usize>() / n,
        };
    }

    /// The indexed winner/runner-up scan over every row of `packed`,
    /// which must be the non-empty matrix this index covers (the
    /// [`ScanPlan`](super::ScanPlan) constructor checks coverage). With
    /// `nprobe: None` the result is bit-identical to the direct scan;
    /// `Some(n)` visits only the `n` non-empty buckets closest by
    /// centroid distance (approximate).
    ///
    /// Exactness argument (full sketch in DESIGN.md §14):
    ///
    /// * a bucket is pruned only when `d(q, centroid) − radius`, a
    ///   sound lower bound on every member's distance, **strictly**
    ///   exceeds the running runner-up, which never increases — so
    ///   every pruned row's distance strictly exceeds the *final*
    ///   runner-up and can influence neither reported field;
    /// * in exact mode buckets are walked in ascending lower-bound
    ///   order, so the first prunable bucket proves all later ones
    ///   prunable and the walk stops;
    /// * best/runner-up are tracked by `(distance, row)`, making the
    ///   result independent of traversal order — bit-identical to the
    ///   direct scan's lowest-index tie-break.
    ///
    /// The first bucket walked is never pruned (the runner-up is still
    /// unbounded) and holds a member, so the scan always has a winner.
    pub(crate) fn scan_min2(
        &self,
        packed: &PackedRows,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        nprobe: Option<usize>,
        counters: Option<&mut ScanCounters>,
    ) -> Min2 {
        let mut local = ScanCounters::default();
        let mut best = 0usize;
        let mut best_distance = usize::MAX;
        let mut runner_up = usize::MAX;
        BUCKET_SCRATCH.with(|cell| {
            let order = &mut *cell.borrow_mut();
            let limit = self.order_buckets(backend, query, mask, nprobe, order);
            for &(_, _, bucket) in &order[limit..] {
                local.rows_pruned += self.members[bucket].len() as u64;
            }
            for position in 0..limit {
                let (_, lower, bucket) = order[position];
                let members = &self.members[bucket];
                if lower > runner_up {
                    if nprobe.is_none() {
                        // Exact walk: ordered by lower bound, so every
                        // remaining bucket is prunable too.
                        for &(_, _, later) in &order[position..limit] {
                            local.rows_pruned += self.members[later].len() as u64;
                        }
                        break;
                    }
                    local.rows_pruned += members.len() as u64;
                    continue;
                }
                local.buckets_probed += 1;
                for &member in members {
                    let row_id = member as usize;
                    let row = packed.row_words(row_id);
                    let distance = match mask {
                        None => backend.bounded_distance(row, query, runner_up),
                        Some(mask) => backend.bounded_distance_masked(row, query, mask, runner_up),
                    };
                    local.rows_scanned += 1;
                    let Some(distance) = distance else { continue };
                    if (distance, row_id) < (best_distance, best) {
                        runner_up = runner_up.min(best_distance);
                        best = row_id;
                        best_distance = distance;
                    } else if distance < runner_up {
                        runner_up = distance;
                    }
                }
            }
        });
        if let Some(counters) = counters {
            counters.absorb(local);
        }
        Min2 {
            best,
            best_distance,
            runner_up: (runner_up != usize::MAX).then_some(runner_up),
        }
    }

    /// The indexed ranked scan over every row of `packed` (same
    /// contract as [`scan_min2`](Self::scan_min2)). With `nprobe: None`
    /// the buffer ends bit-identical to the direct ranking — a bucket is
    /// pruned only when the list is full and the bucket's lower bound
    /// strictly exceeds the k-th distance, which never increases.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn top_k_into(
        &self,
        packed: &PackedRows,
        backend: &dyn DistanceBackend,
        query: &[u64],
        k: usize,
        nprobe: Option<usize>,
        counters: Option<&mut ScanCounters>,
        ranked: &mut Vec<(usize, usize)>,
    ) {
        ranked.clear();
        if k == 0 || packed.is_empty() {
            return;
        }
        let mut local = ScanCounters::default();
        BUCKET_SCRATCH.with(|cell| {
            let order = &mut *cell.borrow_mut();
            let limit = self.order_buckets(backend, query, None, nprobe, order);
            for &(_, _, bucket) in &order[limit..] {
                local.rows_pruned += self.members[bucket].len() as u64;
            }
            for position in 0..limit {
                let (_, lower, bucket) = order[position];
                let members = &self.members[bucket];
                let kth = match ranked.len() == k {
                    true => ranked.last().map_or(usize::MAX, |&(_, d)| d),
                    false => usize::MAX,
                };
                if lower > kth {
                    if nprobe.is_none() {
                        for &(_, _, later) in &order[position..limit] {
                            local.rows_pruned += self.members[later].len() as u64;
                        }
                        break;
                    }
                    local.rows_pruned += members.len() as u64;
                    continue;
                }
                local.buckets_probed += 1;
                for &member in members {
                    let row_id = member as usize;
                    let row = packed.row_words(row_id);
                    let full = ranked.len() == k;
                    let bound = match full {
                        true => ranked.last().expect("full list is non-empty").1,
                        false => usize::MAX,
                    };
                    let distance = backend.bounded_distance(row, query, bound);
                    local.rows_scanned += 1;
                    let Some(distance) = distance else { continue };
                    if full {
                        let &(worst_row, worst_distance) =
                            ranked.last().expect("full list is non-empty");
                        if (distance, row_id) >= (worst_distance, worst_row) {
                            continue;
                        }
                        ranked.pop();
                    }
                    let at = ranked.partition_point(|&(r, d)| (d, r) < (distance, row_id));
                    ranked.insert(at, (row_id, distance));
                }
            }
        });
        if let Some(counters) = counters {
            counters.absorb(local);
        }
    }

    /// Scores every non-empty bucket against the query and sorts the
    /// scratch: by prunability lower bound for the exact walk, by
    /// centroid distance for probe mode. Returns how many leading
    /// entries the walk may visit. Updates can empty a bucket (a
    /// replaced row moves to another bucket, centroids stay put); it is
    /// left out of the order, so probe mode spends its `nprobe` visits
    /// on buckets that hold rows.
    fn order_buckets(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        nprobe: Option<usize>,
        order: &mut Vec<(usize, usize, usize)>,
    ) -> usize {
        order.clear();
        for bucket in 0..self.buckets() {
            if self.members[bucket].is_empty() {
                continue;
            }
            let centroid = self.centroids.row_words(bucket);
            let dc = match mask {
                None => backend.bounded_distance(centroid, query, usize::MAX),
                Some(mask) => backend.bounded_distance_masked(centroid, query, mask, usize::MAX),
            }
            .expect("unbounded distance never abandons");
            let lower = dc.saturating_sub(self.radii[bucket]);
            let key = match nprobe {
                None => lower,
                Some(_) => dc,
            };
            order.push((key, lower, bucket));
        }
        order.sort_unstable();
        match nprobe {
            None => order.len(),
            Some(n) => n.max(1).min(order.len()),
        }
    }
}

/// Radius and separation summary of a centroid set. Separation samples
/// seeded pairs past [`SEPARATION_PAIR_BUDGET`] so stats stay cheap at
/// any `B`.
fn compute_stats(
    centroids: &PackedRows,
    radii: &[usize],
    rows: usize,
    backend: &dyn DistanceBackend,
    seed: u64,
) -> IndexStats {
    let buckets = centroids.len();
    let distance = |i: usize, j: usize| -> u64 {
        backend
            .bounded_distance(centroids.row_words(i), centroids.row_words(j), usize::MAX)
            .expect("unbounded distance never abandons") as u64
    };
    let mut total = 0u64;
    let mut pairs = 0u64;
    if buckets >= 2 {
        let all = buckets * (buckets - 1) / 2;
        if all <= SEPARATION_PAIR_BUDGET {
            for i in 0..buckets {
                for j in i + 1..buckets {
                    total += distance(i, j);
                    pairs += 1;
                }
            }
        } else {
            for k in 0..SEPARATION_PAIR_BUDGET as u64 {
                let i = (splitmix64(seed ^ 0x5345_5041 ^ (k << 1)) % buckets as u64) as usize;
                let mut j = (splitmix64(seed ^ 0x5345_5042 ^ (k << 1)) % buckets as u64) as usize;
                if i == j {
                    j = (j + 1) % buckets;
                }
                total += distance(i, j);
                pairs += 1;
            }
        }
    }
    IndexStats {
        buckets,
        rows,
        mean_radius: match radii.len() {
            0 => 0,
            n => radii.iter().sum::<usize>() / n,
        },
        max_radius: radii.iter().copied().max().unwrap_or(0),
        mean_separation: match pairs {
            0 => 0,
            p => (total / p) as usize,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::super::{active_backend, ScanPlan};
    use super::*;
    use crate::bitvec::BitVec;

    fn pseudo_bits(len: usize, salt: u64) -> BitVec {
        BitVec::from_bits((0..len).map(|i| splitmix64(salt ^ i as u64) & 1 == 1))
    }

    /// `clusters` planted centers, members flipped with ~`noise_pct`%.
    fn clustered(dim: usize, rows: usize, clusters: usize, noise_pct: usize) -> PackedRows {
        let mut out = PackedRows::with_capacity(dim, rows);
        let centers: Vec<BitVec> = (0..clusters)
            .map(|c| pseudo_bits(dim, 0xC0FFEE ^ c as u64))
            .collect();
        for r in 0..rows {
            let mut row = centers[r % clusters].clone();
            for i in 0..dim {
                if splitmix64(0xF00D ^ (r as u64) << 20 ^ i as u64) % 100 < noise_pct as u64 {
                    row.set(i, !row.get(i));
                }
            }
            out.push(row.as_words());
        }
        out
    }

    fn uniform(dim: usize, rows: usize) -> PackedRows {
        let mut out = PackedRows::with_capacity(dim, rows);
        for r in 0..rows {
            out.push(pseudo_bits(dim, 0xDEAD ^ r as u64).as_words());
        }
        out
    }

    #[test]
    fn build_is_deterministic_and_covers_every_row() {
        let packed = clustered(300, 64, 4, 5);
        let backend = active_backend();
        let a = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let b = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rows(), packed.len());
        let mut seen = vec![false; packed.len()];
        for bucket in 0..a.buckets() {
            assert!(!a.members(bucket).is_empty(), "empty buckets are compacted");
            for &m in a.members(bucket) {
                assert!(!seen[m as usize], "row in two buckets");
                seen[m as usize] = true;
                assert_eq!(a.bucket_of(m as usize), bucket);
            }
        }
        assert!(seen.iter().all(|&s| s), "lost rows");
    }

    #[test]
    fn radii_bound_every_member() {
        let packed = clustered(257, 50, 5, 10);
        let backend = active_backend();
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        for bucket in 0..index.buckets() {
            for &m in index.members(bucket) {
                let d = backend
                    .bounded_distance(
                        packed.row_words(m as usize),
                        index.centroids().row_words(bucket),
                        usize::MAX,
                    )
                    .unwrap();
                assert!(d <= index.radii()[bucket]);
            }
        }
    }

    /// The direct scan the indexed walks must match.
    fn linear(packed: &PackedRows, query: &[u64], mask: Option<&[u64]>) -> Min2 {
        packed
            .min2(&ScanPlan::direct(), query, mask, None)
            .expect("non-empty matrix")
    }

    /// The direct ranking the indexed ranked walk must match.
    fn linear_top_k(packed: &PackedRows, query: &[u64], k: usize) -> Vec<(usize, usize)> {
        let mut ranked = Vec::new();
        packed.top_k(&ScanPlan::direct(), query, k, &mut ranked, None);
        ranked
    }

    #[test]
    fn exact_indexed_matches_linear_on_all_shapes() {
        let backend = active_backend();
        for (name, packed) in [
            ("clustered", clustered(300, 80, 4, 5)),
            ("uniform", uniform(130, 60)),
            ("tiny", clustered(65, 3, 1, 2)),
        ] {
            let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
            for salt in 0..8u64 {
                let query = pseudo_bits(packed.dim(), 0xAB ^ salt);
                let mask = pseudo_bits(packed.dim(), 0xCD ^ salt);
                let mut counters = ScanCounters::default();
                let indexed = index.scan_min2(
                    &packed,
                    backend,
                    query.as_words(),
                    None,
                    None,
                    Some(&mut counters),
                );
                assert_eq!(
                    indexed,
                    linear(&packed, query.as_words(), None),
                    "{name} plain salt {salt}"
                );
                assert_eq!(
                    counters.rows_scanned + counters.rows_pruned,
                    packed.len() as u64,
                    "{name}: every row is scanned or pruned"
                );
                let indexed_masked = index.scan_min2(
                    &packed,
                    backend,
                    query.as_words(),
                    Some(mask.as_words()),
                    None,
                    None,
                );
                assert_eq!(
                    indexed_masked,
                    linear(&packed, query.as_words(), Some(mask.as_words())),
                    "{name} masked salt {salt}"
                );
            }
        }
    }

    #[test]
    fn top_k_matches_linear_and_probe_all_is_exact() {
        let packed = clustered(300, 60, 4, 8);
        let backend = active_backend();
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let query = pseudo_bits(300, 7);
        for k in [0usize, 1, 3, 60, 100] {
            let linear = linear_top_k(&packed, query.as_words(), k);
            let mut ranked = Vec::new();
            index.top_k_into(
                &packed,
                backend,
                query.as_words(),
                k,
                None,
                None,
                &mut ranked,
            );
            assert_eq!(ranked, linear, "k {k}");
            index.top_k_into(
                &packed,
                backend,
                query.as_words(),
                k,
                Some(index.buckets()),
                None,
                &mut ranked,
            );
            assert_eq!(ranked, linear, "probe-all k {k}");
        }
    }

    #[test]
    fn probe_all_buckets_equals_exact_and_probe_one_probes_one() {
        let packed = clustered(300, 60, 4, 8);
        let backend = active_backend();
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let query = pseudo_bits(300, 11);
        let exact = index.scan_min2(&packed, backend, query.as_words(), None, None, None);
        let probed = index.scan_min2(
            &packed,
            backend,
            query.as_words(),
            None,
            Some(index.buckets() + 5),
            None,
        );
        assert_eq!(probed, exact);
        let mut counters = ScanCounters::default();
        index.scan_min2(
            &packed,
            backend,
            query.as_words(),
            None,
            Some(1),
            Some(&mut counters),
        );
        assert_eq!(counters.buckets_probed, 1);
        assert_eq!(
            counters.rows_scanned + counters.rows_pruned,
            packed.len() as u64
        );
    }

    #[test]
    fn probe_skips_buckets_an_update_emptied() {
        // Four rows, four buckets: every row is its own medoid. Moving
        // row 0 onto row 1 empties bucket 0 while its centroid stays
        // the old row 0, so a query equal to the old row is closest to
        // an empty bucket. The one probe must go to a bucket with rows.
        let mut packed = uniform(1_024, 4);
        let backend = active_backend();
        let options = IndexBuildOptions {
            buckets: 4,
            ..IndexBuildOptions::default()
        };
        let mut index = BucketIndex::build(&packed, backend, options).unwrap();
        let old = packed.row_words(0).to_vec();
        let moved = packed.row_words(1).to_vec();
        packed.replace(0, &moved);
        index.assign_row(&packed, backend, 0);
        assert!(
            (0..index.buckets()).any(|b| index.members(b).is_empty()),
            "the update emptied a bucket"
        );
        let mut counters = ScanCounters::default();
        let hit = index.scan_min2(&packed, backend, &old, None, Some(1), Some(&mut counters));
        assert!(hit.best < packed.len() && hit.best_distance < usize::MAX);
        assert_eq!(counters.buckets_probed, 1);
        assert!(counters.rows_scanned >= 1, "{counters:?}");
        let mut ranked = Vec::new();
        index.top_k_into(&packed, backend, &old, 2, Some(1), None, &mut ranked);
        assert!(!ranked.is_empty(), "the probed bucket ranks its rows");
        // The exact walk is unaffected by the empty bucket.
        assert_eq!(
            index.scan_min2(&packed, backend, &old, None, None, None),
            linear(&packed, &old, None)
        );
    }

    #[test]
    fn assign_row_keeps_membership_coherent_and_exact() {
        let mut packed = clustered(257, 40, 4, 5);
        let backend = active_backend();
        let mut index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        // Append rows, replace one, and verify exactness holds after
        // every mutation.
        for step in 0..6u64 {
            let row = pseudo_bits(257, 0xADD ^ step);
            if step % 3 == 2 {
                packed.replace(step as usize, row.as_words());
                index.assign_row(&packed, backend, step as usize);
            } else {
                let id = packed.push(row.as_words());
                index.assign_row(&packed, backend, id);
            }
            let query = pseudo_bits(257, 0xBEEF ^ step);
            assert_eq!(
                index.scan_min2(&packed, backend, query.as_words(), None, None, None),
                linear(&packed, query.as_words(), None),
                "step {step}"
            );
        }
        assert_eq!(index.dirty(), 6);
        assert_eq!(index.rows(), packed.len());
        let mut seen = vec![0usize; packed.len()];
        for bucket in 0..index.buckets() {
            for &m in index.members(bucket) {
                seen[m as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&s| s == 1),
            "each row in exactly one bucket"
        );
    }

    #[test]
    fn from_parts_round_trips_and_rejects_bad_shapes() {
        let packed = clustered(300, 30, 3, 5);
        let backend = active_backend();
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let rebuilt = BucketIndex::from_parts(
            index.centroids().clone(),
            index.radii().to_vec(),
            index.assignments().to_vec(),
            index.dirty(),
            backend,
        )
        .unwrap();
        assert_eq!(rebuilt, index);

        // Assignment past the bucket count.
        let mut bad = index.assignments().to_vec();
        bad[0] = index.buckets() as u32;
        assert!(BucketIndex::from_parts(
            index.centroids().clone(),
            index.radii().to_vec(),
            bad,
            0,
            backend,
        )
        .is_none());
        // Radius beyond the dimension.
        let mut bad_radii = index.radii().to_vec();
        bad_radii[0] = 301;
        assert!(BucketIndex::from_parts(
            index.centroids().clone(),
            bad_radii,
            index.assignments().to_vec(),
            0,
            backend,
        )
        .is_none());
        // Radius/bucket count mismatch.
        assert!(BucketIndex::from_parts(
            index.centroids().clone(),
            vec![0; index.buckets() + 1],
            index.assignments().to_vec(),
            0,
            backend,
        )
        .is_none());
    }

    #[test]
    fn stats_separate_clustered_from_uniform() {
        let backend = active_backend();
        let dim = 2048;
        let clustered = clustered(dim, 256, 4, 2);
        let uniform = uniform(dim, 256);
        let ci = BucketIndex::build(&clustered, backend, IndexBuildOptions::default()).unwrap();
        let ui = BucketIndex::build(&uniform, backend, IndexBuildOptions::default()).unwrap();
        assert!(
            ci.stats().pruning_friendly(dim),
            "clustered stats should be pruning friendly: {:?}",
            ci.stats()
        );
        assert!(
            !ui.stats().pruning_friendly(dim),
            "uniform stats must fall back: {:?}",
            ui.stats()
        );
    }

    #[test]
    fn empty_matrix_builds_nothing() {
        let packed = PackedRows::new(100);
        assert!(
            BucketIndex::build(&packed, active_backend(), IndexBuildOptions::default()).is_none()
        );
    }
}
