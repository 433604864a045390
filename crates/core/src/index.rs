//! Index lifecycle policy for serving paths — when to build, when to
//! rebuild.
//!
//! The mechanics of the two-level bucket index live in the kernel
//! ([`hdc::BucketIndex`]): bundled centroids, radii, the exact
//! triangle-bound walk. This module owns the *policy* questions the
//! serving layers ask:
//!
//! * is this memory big enough that a `B ≈ √C` index pays for its
//!   centroid scan at all ([`IndexPolicy::min_rows`])?
//! * have enough incremental [`assign_row`] mutations accumulated —
//!   each leaves radii stale-high and centroids unmoved, so pruning
//!   decays — that a full rebuild is due
//!   ([`IndexPolicy::max_dirty_percent`])?
//!
//! [`ensure_indexed`] answers both in one idempotent call; the
//! [`OnlineUpdater`](crate::shard::OnlineUpdater) invokes it inside its
//! COW mutation closure (so rebuilds publish atomically with the epoch
//! that made them necessary) and `ham-serve` invokes it at tenant
//! provision, which is how the serving stack picks the indexed engine
//! up transparently.
//!
//! [`assign_row`]: hdc::BucketIndex::assign_row

use hdc::{AssociativeMemory, IndexBuildOptions, IndexStats};

/// When to (re)build the bucket index of a memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexPolicy {
    /// Memories below this row count stay unindexed: with `B ≈ √C`
    /// centroids plus one bucket of members, the indexed walk only
    /// beats the fused linear scan once `C` is comfortably past the
    /// point where `2√C < C`.
    pub min_rows: usize,
    /// Rebuild once incremental mutations exceed this percentage of
    /// the row count. Until then reassign-on-add keeps results exact
    /// (radii only grow), just with weaker pruning.
    pub max_dirty_percent: usize,
    /// Build knobs forwarded to [`hdc::BucketIndex::build`].
    pub build: IndexBuildOptions,
}

impl Default for IndexPolicy {
    fn default() -> Self {
        IndexPolicy {
            min_rows: 256,
            max_dirty_percent: 20,
            build: IndexBuildOptions::default(),
        }
    }
}

impl IndexPolicy {
    /// `true` when `memory`'s index (or lack of one) violates this
    /// policy and [`ensure_indexed`] would act.
    pub fn wants_rebuild(&self, memory: &AssociativeMemory) -> bool {
        self.wants_rebuild_parts(memory.len(), memory.index())
    }

    /// [`wants_rebuild`](Self::wants_rebuild) over a (row count, index)
    /// pair, for storage layouts that don't materialize an
    /// [`AssociativeMemory`] — the delta-publish path in
    /// [`OnlineUpdater`](crate::shard::OnlineUpdater) asks this about
    /// its chunked working copy.
    pub fn wants_rebuild_parts(&self, rows: usize, index: Option<&hdc::BucketIndex>) -> bool {
        if rows < self.min_rows {
            return false;
        }
        match index {
            None => true,
            Some(index) => {
                index.rows() != rows || index.dirty() * 100 > self.max_dirty_percent * rows
            }
        }
    }
}

/// Brings `memory`'s index in line with `policy`: builds one when the
/// memory is large enough and has none, rebuilds when incremental
/// dirtiness passed the threshold, and leaves a small memory alone.
/// Idempotent; returns the stats of the attached index when one is
/// present after the call.
///
/// Search results are identical before and after — the index only
/// changes how much of the matrix a query has to touch.
pub fn ensure_indexed(memory: &mut AssociativeMemory, policy: &IndexPolicy) -> Option<IndexStats> {
    if memory.len() < policy.min_rows {
        return memory.index().map(|index| index.stats());
    }
    if policy.wants_rebuild(memory) {
        return memory.build_index(policy.build);
    }
    memory.index().map(|index| index.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::{Dimension, Hypervector};

    fn memory(rows: usize) -> AssociativeMemory {
        let dim = Dimension::new(512).unwrap();
        let mut memory = AssociativeMemory::new(dim);
        for s in 0..rows as u64 {
            memory
                .insert(format!("c{s}"), Hypervector::random(dim, s))
                .unwrap();
        }
        memory
    }

    #[test]
    fn small_memories_stay_unindexed() {
        let policy = IndexPolicy::default();
        let mut small = memory(policy.min_rows - 1);
        assert!(!policy.wants_rebuild(&small));
        assert!(ensure_indexed(&mut small, &policy).is_none());
        assert!(small.index().is_none());
    }

    #[test]
    fn large_memories_get_indexed_once() {
        let policy = IndexPolicy {
            min_rows: 16,
            ..IndexPolicy::default()
        };
        let mut big = memory(40);
        assert!(policy.wants_rebuild(&big));
        let stats = ensure_indexed(&mut big, &policy).unwrap();
        assert_eq!(stats.rows, 40);
        // Idempotent: a clean index is left alone.
        let index_before = big.index_handle().unwrap();
        ensure_indexed(&mut big, &policy).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            &index_before,
            &big.index_handle().unwrap()
        ));
    }

    #[test]
    fn dirtiness_past_threshold_triggers_rebuild() {
        let policy = IndexPolicy {
            min_rows: 16,
            max_dirty_percent: 10,
            ..IndexPolicy::default()
        };
        let mut big = memory(30);
        ensure_indexed(&mut big, &policy).unwrap();
        let dim = Dimension::new(512).unwrap();
        // 4 mutations on 34 rows > 10%.
        for s in 100..104u64 {
            big.insert(format!("late{s}"), Hypervector::random(dim, s))
                .unwrap();
        }
        assert!(big.index().unwrap().dirty() > 0);
        assert!(policy.wants_rebuild(&big));
        ensure_indexed(&mut big, &policy).unwrap();
        assert_eq!(big.index().unwrap().dirty(), 0);
        assert_eq!(big.index().unwrap().rows(), 34);
    }

    #[test]
    fn dirtiness_exactly_at_the_threshold_is_tolerated() {
        let policy = IndexPolicy {
            min_rows: 16,
            max_dirty_percent: 10,
            ..IndexPolicy::default()
        };
        let mut big = memory(20);
        ensure_indexed(&mut big, &policy).unwrap();
        let dim = Dimension::new(512).unwrap();
        // Two replacements on 20 rows: exactly 10%, not past it.
        for (class, seed) in [(3usize, 900u64), (11, 901)] {
            big.replace_row(hdc::ClassId(class), Hypervector::random(dim, seed))
                .unwrap();
        }
        assert_eq!(big.index().unwrap().dirty(), 2);
        assert!(!policy.wants_rebuild(&big));
        let kept = big.index_handle().unwrap();
        ensure_indexed(&mut big, &policy).unwrap();
        assert!(std::sync::Arc::ptr_eq(&kept, &big.index_handle().unwrap()));
        // A third tips it over.
        big.replace_row(hdc::ClassId(5), Hypervector::random(dim, 902))
            .unwrap();
        assert!(policy.wants_rebuild(&big));
    }

    #[test]
    fn an_index_of_another_row_count_is_rebuilt() {
        let policy = IndexPolicy {
            min_rows: 16,
            ..IndexPolicy::default()
        };
        let mut big = memory(30);
        ensure_indexed(&mut big, &policy).unwrap();
        let index = big.index().unwrap();
        assert!(!policy.wants_rebuild_parts(30, Some(index)));
        assert!(policy.wants_rebuild_parts(31, Some(index)));
        assert!(policy.wants_rebuild_parts(29, Some(index)));
        assert!(policy.wants_rebuild_parts(30, None));
        // Below the floor nothing is wanted, whatever the index.
        assert!(!policy.wants_rebuild_parts(15, Some(index)));
        assert!(!policy.wants_rebuild_parts(15, None));
    }

    #[test]
    fn a_small_memory_keeps_the_index_it_has() {
        let mut small = memory(12);
        let built = small.build_index(IndexBuildOptions::default()).unwrap();
        let policy = IndexPolicy::default();
        assert!(small.len() < policy.min_rows);
        assert_eq!(ensure_indexed(&mut small, &policy), Some(built));
        assert!(
            small.index().is_some(),
            "ensure_indexed never drops an index"
        );
    }
}
