//! The near-duplicate similarity-search scenario: many tight clusters of
//! planted near-duplicates packed close together, queried with even
//! smaller perturbations and scored on recall@k — the RRAM in-memory
//! similarity-search shape.
//!
//! The stored geometry is deliberately the one the sampled cascade was
//! built for and the bucket index's triangle bound is useless on:
//! cluster radii are a few dozen bits (far under the `dim / 32`
//! ceiling), but the cluster centers sit within a few hundred bits of a
//! common base — well inside the `dim / 16` margin the triangle bound
//! needs. That is exactly [`IndexStats::cascade_friendly`] — and *not*
//! [`pruning_friendly`](IndexStats::pruning_friendly) — so
//! [`ScanStrategy::Auto`] resolves to the cascade here, the decision
//! `auto_pins_the_cascade_on_the_near_duplicate_geometry` pins.
//!
//! Why the cascade wins here: a query lands inside one cluster, so the
//! runner-up distance collapses to an intra-cluster gap (a few dozen
//! bits) while every other cluster's rows sit hundreds of bits away.
//! Their sampled lower bound alone exceeds the runner-up, so pass 2
//! skips ~`(clusters − 1) / clusters` of all complement work. The
//! direct scan gets no such leverage: its abandonment bound is only
//! checked every 128 words (AVX-512), and at the default `dim = 8192`
//! a row is exactly 128 words — the direct scan pays the full row for
//! every candidate, always.

use hdc::prelude::*;
use hdc::{IndexBuildOptions, IndexStats};

use crate::synth::noisy_copy;
use crate::{QueryRecord, Workload};

/// Parameters of the near-duplicate world.
#[derive(Debug, Clone, Copy)]
pub struct NearDupParams {
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Stored near-duplicate rows (≥ the index policy's 256-row floor,
    /// so tenant provisioning auto-builds the index too).
    pub rows: usize,
    /// Tight clusters the rows split into, round-robin. Keep this near
    /// `⌈√rows⌉` so the default index build (one bucket per `√rows`)
    /// recovers one cluster per bucket and the stats read the true
    /// geometry.
    pub clusters: usize,
    /// Bits flipped from the common base to each cluster center. Sets
    /// the inter-cluster spacing (~`2 × center_flips` bits): large
    /// enough that foreign clusters' sampled bounds clear the
    /// runner-up, small enough to stay inside the triangle bound's
    /// `dim / 16` separation margin.
    pub center_flips: usize,
    /// Largest perturbation of a stored row from its cluster center;
    /// row `i` flips `4 + (i mod max_row_flips)` bits, so duplicates
    /// come in a spread of tightnesses and some pairs are genuinely
    /// confusable.
    pub max_row_flips: usize,
    /// Bits flipped in each query relative to its source row.
    pub query_flips: usize,
    /// Recall cutoff.
    pub k: usize,
}

impl Default for NearDupParams {
    /// The bench operating point: 512 rows in 23 clusters of an
    /// 8,192-bit space. Cluster radii stay within ~28 bits (far under
    /// the `dim / 32 = 256` cascade-friendly ceiling) while centers sit
    /// ~384 bits apart (inside the `dim / 16 = 512` triangle-bound
    /// margin, so pruning stays off). At 8,192 bits a row is exactly
    /// 128 words — the AVX-512 direct scan's bound-check stride — so
    /// direct pays full rows while the cascade samples 32.
    fn default() -> Self {
        NearDupParams {
            dim: 8_192,
            rows: 512,
            clusters: 23,
            center_flips: 192,
            max_row_flips: 16,
            query_flips: 10,
            k: 5,
        }
    }
}

/// The near-duplicate similarity-search scenario.
#[derive(Debug)]
pub struct NearDupWorkload {
    memory: AssociativeMemory,
    records: Vec<QueryRecord>,
    stats: IndexStats,
    params: NearDupParams,
    seed: u64,
}

impl NearDupWorkload {
    /// Builds the planted clusters, their bucket index, and one query
    /// per stored row, fully derived from `seed`. The memory is left on
    /// [`ScanStrategy::Auto`] with the index attached — the decision
    /// under test.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn build(params: NearDupParams, seed: u64) -> Self {
        assert!(params.rows > 0 && params.clusters > 0 && params.max_row_flips > 0 && params.k > 0);
        let dim = Dimension::new(params.dim).expect("nonzero dimension");
        let base = Hypervector::random(dim, seed);
        let centers: Vec<Hypervector> = (0..params.clusters)
            .map(|c| {
                noisy_copy(
                    &base,
                    params.center_flips,
                    seed ^ 0xCE_0000 ^ ((c as u64) << 8),
                )
            })
            .collect();
        let mut memory = AssociativeMemory::new(dim);
        let mut rows = Vec::with_capacity(params.rows);
        for i in 0..params.rows {
            let flips = 4 + i % params.max_row_flips;
            let row = noisy_copy(
                &centers[i % params.clusters],
                flips,
                seed ^ 0xD0B_0000 ^ i as u64,
            );
            memory
                .insert(format!("dup{i}"), row.clone())
                .expect("rows share the dimension");
            rows.push(row);
        }
        let stats = memory
            .build_index(IndexBuildOptions::default())
            .expect("non-empty memory builds an index");
        memory.set_scan_strategy(ScanStrategy::Auto);
        let records = rows
            .iter()
            .enumerate()
            .map(|(i, row)| QueryRecord {
                truth: i,
                query: noisy_copy(row, params.query_flips, seed ^ 0x9D_0000 ^ i as u64),
            })
            .collect();
        NearDupWorkload {
            memory,
            records,
            stats,
            params,
            seed,
        }
    }

    /// The stats of the index the `Auto` decision reads.
    pub fn index_stats(&self) -> IndexStats {
        self.stats
    }

    /// The parameters this world was built at.
    pub fn params(&self) -> &NearDupParams {
        &self.params
    }
}

impl Workload for NearDupWorkload {
    fn name(&self) -> &'static str {
        "neardup"
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn k(&self) -> usize {
        self.params.k
    }

    fn memory(&self) -> &AssociativeMemory {
        &self.memory
    }

    fn queries(&self) -> &[QueryRecord] {
        &self.records
    }

    fn rank(&self, query: &Hypervector, counters: &mut ScanCounters) -> Vec<usize> {
        let (ranked, scan) = self
            .memory
            .search_top_k_counted(query, self.k())
            .expect("queries match the dimension");
        counters.absorb(scan);
        ranked.into_iter().map(|(class, _)| class.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_local;
    use hdc::ResolvedScan;

    #[test]
    fn clusters_are_cascade_friendly_and_auto_resolves_to_cascade() {
        let w = NearDupWorkload::build(NearDupParams::default(), 5);
        let stats = w.index_stats();
        let dim = w.params().dim;
        assert!(stats.cascade_friendly(dim), "stats = {stats:?}");
        assert!(!stats.pruning_friendly(dim), "stats = {stats:?}");
        assert_eq!(w.resolved_strategy(), ResolvedScan::Cascade);
    }

    #[test]
    fn recall_is_high_and_deterministic() {
        let w = NearDupWorkload::build(NearDupParams::default(), 5);
        let report = run_local(&w);
        assert_eq!(report.k, 5);
        assert!(report.recall_at_k > 0.98, "recall = {}", report.recall_at_k);
        assert!(report.recall_at_k >= report.accuracy);
        let again = run_local(&NearDupWorkload::build(NearDupParams::default(), 5));
        assert_eq!(report.accuracy, again.accuracy);
        assert_eq!(report.recall_at_k, again.recall_at_k);
    }
}
