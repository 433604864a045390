//! Input preparation: each workload's memory, query pool and fixed
//! operation sequence, derived from `--seed` alone. Nothing here is ever
//! inside a timer.

use ham_core::explore::DesignKind;
use ham_serve::{QuotaPolicy, TenantSpec};
use ham_workloads::neardup::NearDupParams;
use ham_workloads::synth::noisy_copy;
use ham_workloads::{LangidWorkload, NearDupWorkload, Workload};
use hdc::prelude::*;

/// The wire tenant id every workload is served under.
pub const TENANT: u16 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Langid,
    Neardup,
    Churn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Langid, Kind::Neardup, Kind::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Langid => "langid",
            Kind::Neardup => "neardup",
            Kind::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// `Full` is the benchmark; `Small` shrinks every world and op count so
/// the determinism test runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// How many operations of each kind one run performs. Fixed per
/// workload and scale; `--seconds` multiplies the timed-phase counts by
/// `seconds / 10`, so a given `--seconds` always means the same ops.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
    /// Untimed single-query frames before the timed phases.
    pub warmup: usize,
    /// Single-query frames of the latency pass: one closed-loop
    /// connection, so a read waits for nothing but itself.
    pub latency: usize,
    /// Closed-loop connections of the loaded pass (1: the latency pass
    /// doubles as the throughput pass).
    pub connections: usize,
    /// Single-query frames of the loaded pass, over all its connections.
    pub loaded: usize,
    /// 64-query frames of the batch phase.
    pub batches: usize,
    /// Update cycles: one update, one fresh read, then steady reads.
    pub cycles: usize,
    /// Steady reads after each cycle's fresh read.
    pub reads_per_update: usize,
    /// Drain → warm restart cycles, spread through the update cycles.
    pub restarts: usize,
    /// Traced run: queries of the per-query lineup pass.
    pub trace_queries: usize,
    /// Traced run: queries per caller in the two-caller lock pass.
    pub trace_lock_queries: usize,
    /// Traced run: 64-query engine frames.
    pub trace_frames: usize,
    /// Traced run: repetitions of each set-up-sized step (provision,
    /// engine build, snapshot save/load, memory clone).
    pub trace_repeats: usize,
}

impl Sizes {
    fn scaled(mut self, seconds: u64) -> Sizes {
        let scale = |n: usize| ((n as u64 * seconds).div_ceil(10) as usize).max(1);
        self.latency = scale(self.latency);
        if self.connections > 1 {
            self.loaded = scale(self.loaded);
        }
        self.batches = scale(self.batches);
        self.cycles = scale(self.cycles);
        self
    }
}

pub const BATCH: usize = 64;

/// One planned write, on stable oracle slots.
#[derive(Debug, Clone)]
pub enum Update {
    Rethreshold { slot: usize, row: Hypervector },
    Add { label: String, row: Hypervector },
    Retire { slot: usize },
}

/// One update cycle: the write, then `reads[0]` (the fresh read) and the
/// steady reads, as pool indices.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub update: Update,
    pub reads: Vec<usize>,
}

/// Everything one run needs, fully derived from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub kind: Kind,
    pub sizes: Sizes,
    /// The provisioned memory (index and bit-sliced mirror attached as
    /// the workload wants them served).
    pub memory: AssociativeMemory,
    /// Distinct queries every read draws from.
    pub pool: Vec<Hypervector>,
    /// The slot each pool query was planted on.
    pub truth: Vec<usize>,
    pub warmup: Vec<usize>,
    /// The latency pass's reads.
    pub latency: Vec<usize>,
    /// The loaded pass's reads, one sequence per connection (none when
    /// the workload has one connection).
    pub loaded: Vec<Vec<usize>>,
    pub batches: Vec<Vec<usize>>,
    pub cycles: Vec<Cycle>,
    /// Cycle indices after which a drain → warm restart runs.
    pub restart_after: Vec<usize>,
    /// Rows added by planned `Add` updates (the oracle's spare capacity).
    pub planned_adds: usize,
}

impl Inputs {
    /// The tenant spec every server of the run provisions from. The quota
    /// is lifted: a closed loop never outruns its own replies, and the
    /// default 10k/s bucket would turn throughput into a quota test.
    pub fn spec(&self) -> TenantSpec {
        TenantSpec::new(
            TENANT,
            self.kind.name(),
            DesignKind::Digital,
            self.memory.clone(),
        )
        .with_quota(QuotaPolicy::unlimited())
    }

    pub fn dim(&self) -> usize {
        self.memory.dim().get()
    }

    /// The initial rows, slot `i` = class `i`.
    pub fn rows(&self) -> Vec<Hypervector> {
        self.memory.iter().map(|(_, _, hv)| hv.clone()).collect()
    }

    /// Reads the timed phases perform, for the report.
    pub fn read_ops(&self) -> usize {
        self.latency.len()
            + self.loaded.iter().map(Vec::len).sum::<usize>()
            + self.batches.len() * BATCH
            + self.cycles.iter().map(|c| c.reads.len()).sum::<usize>()
    }
}

/// `splitmix64`: the benchmark's own seeded stream, so op sequences do
/// not depend on any library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One read in this many targets a hard (escalating) query.
const HARD_EVERY: usize = 8;

/// How reads draw from the pool: `pool[..easy]` are easy queries and
/// `pool[easy..]` hard ones; every `hard_every`-th read of the run (0:
/// never) draws a hard one, every other read an easy one.
#[derive(Debug)]
struct Mix {
    easy: usize,
    n: usize,
    hard_every: usize,
    next: usize,
}

impl Mix {
    fn uniform(n: usize) -> Mix {
        Mix {
            easy: n,
            n,
            hard_every: 0,
            next: 0,
        }
    }

    fn pick(&mut self, rng: &mut Rng) -> usize {
        self.next += 1;
        if self.hard_every > 0 && self.next.is_multiple_of(self.hard_every) {
            self.easy + rng.below(self.n - self.easy)
        } else {
            rng.below(self.easy)
        }
    }

    fn picks(&mut self, rng: &mut Rng, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.pick(rng)).collect()
    }
}

/// Per-workload world shape and write mix.
struct Shape {
    sizes: Sizes,
    pool: usize,
    /// Bits a re-threshold flips, always relative to the slot's original
    /// row so repeated writes never drift a class away.
    rethreshold_flips: usize,
    /// Per ten updates: how many add a class and how many retire one
    /// (the rest re-threshold).
    adds_per_ten: usize,
    retires_per_ten: usize,
}

fn sizes(kind: Kind, scale: Scale) -> Sizes {
    match (kind, scale) {
        (Kind::Langid, Scale::Full) => Sizes {
            setups: 401,
            warmup: 500,
            latency: 80_000,
            connections: 1,
            loaded: 0,
            batches: 1_200,
            cycles: 800,
            reads_per_update: 2,
            restarts: 201,
            trace_queries: 2_000,
            trace_lock_queries: 1_000,
            trace_frames: 100,
            trace_repeats: 9,
        },
        (Kind::Neardup, Scale::Full) => Sizes {
            setups: 9,
            warmup: 200,
            latency: 2_000,
            connections: 2,
            loaded: 3_000,
            batches: 24,
            cycles: 40,
            reads_per_update: 1,
            restarts: 9,
            trace_queries: 120,
            trace_lock_queries: 30,
            trace_frames: 2,
            trace_repeats: 3,
        },
        (Kind::Churn, Scale::Full) => Sizes {
            setups: 25,
            warmup: 1_000,
            latency: 8_000,
            connections: 1,
            loaded: 0,
            batches: 60,
            cycles: 600,
            reads_per_update: 8,
            restarts: 21,
            trace_queries: 200,
            trace_lock_queries: 50,
            trace_frames: 4,
            trace_repeats: 5,
        },
        (kind, Scale::Small) => Sizes {
            setups: 2,
            warmup: 4,
            latency: 40,
            connections: if kind == Kind::Neardup { 2 } else { 1 },
            loaded: if kind == Kind::Neardup { 40 } else { 0 },
            batches: 2,
            cycles: 10,
            reads_per_update: 2,
            restarts: 2,
            trace_queries: 20,
            trace_lock_queries: 8,
            trace_frames: 1,
            trace_repeats: 2,
        },
    }
}

fn shape(kind: Kind, scale: Scale) -> Shape {
    let sizes = sizes(kind, scale);
    let small = scale == Scale::Small;
    match kind {
        Kind::Langid => Shape {
            sizes,
            pool: 0,
            rethreshold_flips: if small { 5 } else { 50 },
            adds_per_ten: 0,
            retires_per_ten: 0,
        },
        Kind::Neardup => Shape {
            sizes,
            pool: if small { 64 } else { 1_024 },
            rethreshold_flips: 8,
            adds_per_ten: 0,
            retires_per_ten: 0,
        },
        Kind::Churn => Shape {
            sizes,
            pool: if small { 64 } else { 512 },
            rethreshold_flips: 24,
            adds_per_ten: 1,
            retires_per_ten: 1,
        },
    }
}

/// The near-duplicate world: `rows` planted near-duplicates in `⌈√rows⌉`
/// clusters, so the default index build recovers one cluster per bucket
/// and `Auto` reads the true (cascade-friendly) geometry. Row `i` sits
/// `4 + i mod max_row_flips` bits from its cluster center (up to 283 at
/// D=8,192): a wide spread of tightness, from which the traffic mix below
/// draws its easy and its hard queries.
fn neardup_world(kind: Kind, scale: Scale, seed: u64) -> NearDupWorkload {
    let (rows, dim) = match (kind, scale) {
        (Kind::Neardup, Scale::Full) => (16_384, 8_192),
        (_, Scale::Full) => (4_096, 8_192),
        (_, Scale::Small) => (512, 2_048),
    };
    let clusters = (rows as f64).sqrt().ceil() as usize;
    let params = NearDupParams {
        dim,
        rows,
        clusters,
        center_flips: dim * 3 / 128,
        max_row_flips: dim * 35 / 1_024,
        query_flips: dim / 800,
        k: 1,
    };
    NearDupWorkload::build(params, seed)
}

/// Builds one run's inputs.
pub fn prepare(kind: Kind, scale: Scale, seed: u64, seconds: u64) -> Inputs {
    let shape = shape(kind, scale);
    let sizes = shape.sizes.scaled(seconds);
    let mut rng = Rng::new(seed, kind as u64 + 1);
    let (memory, pool, truth, mut mix) = match kind {
        Kind::Langid => {
            let (dim, train, test) = match scale {
                Scale::Full => (10_000, 20_000, 150),
                Scale::Small => (1_000, 4_000, 2),
            };
            let world = LangidWorkload::build(dim, train, test, seed);
            let pool: Vec<Hypervector> = world.queries().iter().map(|r| r.query.clone()).collect();
            let truth: Vec<usize> = world.queries().iter().map(|r| r.truth).collect();
            let mix = Mix::uniform(pool.len());
            (world.memory().clone(), pool, truth, mix)
        }
        Kind::Neardup | Kind::Churn => {
            let world = neardup_world(kind, scale, seed);
            let mut memory = world.memory().clone();
            // With the dim-major mirror attached, `Auto` on this geometry
            // resolves to the bit-sliced scan (past its row floor) or the
            // cascade (below it); provisioning keeps the mirror.
            memory.build_sliced();
            // A fixed traffic mix: seven reads in eight target rows far
            // from their cluster center (a wide margin, settled by the
            // primary rung) and one in eight a row near it (a margin of a
            // few dozen bits, escalated to the exact scan). Row `i` sits
            // `4 + i mod max_row_flips` bits from its center. A fixed
            // share keeps every health window far under the monitor's 50%
            // exact-rate threshold; a stream near it tips the tenant into
            // Degraded at random, and the tightened policy holds it there
            // until the next rebuild.
            let records = world.queries();
            let spread = world.params().max_row_flips;
            let offset = |i: usize| records[i].truth % spread;
            let easy: Vec<usize> = (0..records.len())
                .filter(|&i| offset(i) >= spread * 3 / 7)
                .collect();
            let hard: Vec<usize> = (0..records.len())
                .filter(|&i| (spread / 14..spread / 5).contains(&offset(i)))
                .collect();
            let hard_count = shape.pool / HARD_EVERY;
            let mut picked: Vec<usize> = distinct(&mut rng, easy.len(), shape.pool - hard_count)
                .into_iter()
                .map(|i| easy[i])
                .collect();
            picked.extend(
                distinct(&mut rng, hard.len(), hard_count)
                    .into_iter()
                    .map(|i| hard[i]),
            );
            let pool: Vec<Hypervector> = picked.iter().map(|&i| records[i].query.clone()).collect();
            let truth: Vec<usize> = picked.iter().map(|&i| records[i].truth).collect();
            let mix = Mix {
                easy: shape.pool - hard_count,
                n: pool.len(),
                hard_every: HARD_EVERY,
                next: 0,
            };
            (memory, pool, truth, mix)
        }
    };
    let n = pool_len(&pool);
    let warmup = mix.picks(&mut rng, sizes.warmup);
    let latency = match kind {
        // The paper's stream, replayed in order for as many passes as fit.
        Kind::Langid => (0..sizes.latency).map(|i| i % n).collect(),
        _ => mix.picks(&mut rng, sizes.latency),
    };
    let loaded = if sizes.connections > 1 {
        (0..sizes.connections)
            .map(|_| mix.picks(&mut rng, sizes.loaded / sizes.connections))
            .collect()
    } else {
        Vec::new()
    };
    let batches = (0..sizes.batches)
        .map(|_| mix.picks(&mut rng, BATCH))
        .collect();
    let rows: Vec<Hypervector> = memory.iter().map(|(_, _, hv)| hv.clone()).collect();
    let (cycles, planned_adds) = plan_cycles(&shape, &sizes, &rows, &truth, &mut mix, &mut rng);
    let restart_after = (1..=sizes.restarts)
        .map(|i| (i * sizes.cycles / (sizes.restarts + 1)).min(sizes.cycles.saturating_sub(1)))
        .collect();
    Inputs {
        kind,
        sizes,
        memory,
        pool,
        truth,
        warmup,
        latency,
        loaded,
        batches,
        cycles,
        restart_after,
        planned_adds,
    }
}

fn pool_len(pool: &[Hypervector]) -> usize {
    assert!(!pool.is_empty(), "every workload has queries");
    pool.len()
}

/// `count` distinct indices below `n`, in draw order.
fn distinct(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    let mut seen = vec![false; n];
    let mut out = Vec::with_capacity(count.min(n));
    while out.len() < count.min(n) {
        let i = rng.below(n);
        if !seen[i] {
            seen[i] = true;
            out.push(i);
        }
    }
    out
}

/// The write sequence, simulated on slots so every planned op is valid
/// when it runs: re-thresholds and retires name live slots, and no
/// planted truth of the pool is ever retired.
fn plan_cycles(
    shape: &Shape,
    sizes: &Sizes,
    rows: &[Hypervector],
    truth: &[usize],
    mix: &mut Mix,
    rng: &mut Rng,
) -> (Vec<Cycle>, usize) {
    let mut base: Vec<Hypervector> = rows.to_vec();
    let mut live: Vec<bool> = vec![true; rows.len()];
    let mut is_truth = vec![false; rows.len()];
    for &t in truth {
        is_truth[t] = true;
    }
    let mut adds = 0;
    let mut cycles = Vec::with_capacity(sizes.cycles);
    for k in 0..sizes.cycles {
        let roll = rng.below(10);
        let live_slots: Vec<usize> = (0..base.len()).filter(|&s| live[s]).collect();
        let update = if roll < shape.adds_per_ten {
            // A new, unrelated class: it lands far from every stored row,
            // so it grows the chunks and the index without changing which
            // reads escalate.
            let row = Hypervector::random(base[0].dim(), rng.next_u64());
            base.push(row.clone());
            live.push(true);
            is_truth.push(false);
            adds += 1;
            Update::Add {
                label: format!("add{k}"),
                row,
            }
        } else if roll < shape.adds_per_ten + shape.retires_per_ten
            && live_slots.iter().any(|&s| !is_truth[s])
        {
            let spare: Vec<usize> = live_slots.into_iter().filter(|&s| !is_truth[s]).collect();
            let slot = spare[rng.below(spare.len())];
            live[slot] = false;
            Update::Retire { slot }
        } else {
            let slot = live_slots[rng.below(live_slots.len())];
            let row = noisy_copy(&base[slot], shape.rethreshold_flips, rng.next_u64());
            Update::Rethreshold { slot, row }
        };
        let reads = mix.picks(rng, 1 + sizes.reads_per_update);
        cycles.push(Cycle { update, reads });
    }
    (cycles, adds)
}
