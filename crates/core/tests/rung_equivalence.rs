//! The hardware models search the memory's one packed matrix through a
//! shared handle. This suite checks them against the per-row loops over
//! `Hypervector` rows they replaced: for D-HAM (structured sampling),
//! R-HAM (block sampling and voltage overscaling, salted or not) and
//! A-HAM (LTA resolution), every search returns the same class, measured
//! distance and runner-up, with ties to the lowest row. Memories are
//! random, near-duplicate (rows a few bits apart) and with exact
//! duplicates, so ties occur.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ham_core::aham::AHam;
use ham_core::dham::DHam;
use ham_core::explore::random_memory;
use ham_core::model::{HamDesign, MarginSearchResult};
use ham_core::rham::{RHam, BLOCK_BITS};
use hdc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 1_000;

/// Random rows; rows planted a few bits around four centres; and rows
/// repeating a few exact patterns.
fn memories() -> Vec<(&'static str, AssociativeMemory)> {
    let dim = Dimension::new(DIM).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let centres: Vec<Hypervector> = (0..4)
        .map(|_| Hypervector::random_from_rng(dim, &mut rng))
        .collect();
    let mut near = AssociativeMemory::new(dim);
    for i in 0..40 {
        let row = centres[i % 4].with_flipped_bits(rng.gen_range(0..6), &mut rng);
        near.insert(format!("near-{i}"), row).unwrap();
    }
    let mut duplicates = AssociativeMemory::new(dim);
    for i in 0..12 {
        duplicates
            .insert(format!("dup-{i}"), centres[i % 3].clone())
            .unwrap();
    }
    vec![
        ("random", random_memory(33, DIM, 5)),
        ("near-duplicate", near),
        ("duplicates", duplicates),
    ]
}

/// Stored rows, far queries and queries a few bits off a row.
fn queries(memory: &AssociativeMemory) -> Vec<Hypervector> {
    let mut rng = StdRng::seed_from_u64(memory.len() as u64);
    let mut out: Vec<Hypervector> = memory.iter().map(|(_, _, hv)| hv).step_by(3).collect();
    for i in 0..8 {
        let row = memory.row(ClassId(i * 5 % memory.len())).unwrap();
        out.push(row.with_flipped_bits(rng.gen_range(1..300), &mut rng));
        out.push(Hypervector::random_from_rng(memory.dim(), &mut rng));
    }
    out
}

fn rows(memory: &AssociativeMemory) -> Vec<Hypervector> {
    memory.iter().map(|(_, _, hv)| hv).collect()
}

/// First strict minimum wins; the runner-up is the least of the others.
fn pick(distances: &[usize]) -> MarginSearchResult {
    let mut best = 0;
    for (i, &d) in distances.iter().enumerate().skip(1) {
        if d < distances[best] {
            best = i;
        }
    }
    let runner_up = distances
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best)
        .map(|(_, &d)| Distance::new(d))
        .min();
    MarginSearchResult {
        class: ClassId(best),
        measured_distance: Distance::new(distances[best]),
        runner_up,
    }
}

fn assert_search_agrees(
    design: &dyn HamDesign,
    query: &Hypervector,
    expected: &MarginSearchResult,
) {
    let hit = design.search(query).unwrap();
    assert_eq!(hit.class, expected.class);
    assert_eq!(hit.measured_distance, expected.measured_distance);
    assert_eq!(&design.search_with_margin(query).unwrap(), expected);
}

#[test]
fn dham_over_the_shared_matrix_matches_the_per_row_loop() {
    for (name, memory) in memories() {
        let reference = rows(&memory);
        for sampled in [DIM, DIM * 9 / 10, DIM / 2, 64] {
            let dham = DHam::with_sampling(&memory, sampled).unwrap();
            assert!(Arc::ptr_eq(dham.rows(), &memory.shared_rows()), "{name}");
            let mask = SampleMask::keep_first(memory.dim(), sampled).unwrap();
            for query in queries(&memory) {
                let distances: Vec<usize> = reference
                    .iter()
                    .map(|row| mask.sampled_distance(row, &query).as_usize())
                    .collect();
                assert_search_agrees(&dham, &query, &pick(&distances));
            }
        }
    }
}

/// The R-HAM read-out the crossbar model made per row: block distances,
/// the leading `active` blocks summed, the first `overscaled` of them
/// misread per the error model from a stream seeded by the query.
fn rham_reference(rham: &RHam, rows: &[Hypervector], query: &Hypervector, salt: u64) -> Vec<usize> {
    let mut hasher = DefaultHasher::new();
    query.as_bitvec().as_words().hash(&mut hasher);
    let mut rng = StdRng::seed_from_u64(hasher.finish() ^ salt);
    let errors = rham.block_errors();
    rows.iter()
        .map(|row| {
            RHam::block_distances(row, query)
                .iter()
                .take(rham.active_blocks())
                .enumerate()
                .map(|(b, &t)| {
                    let t = t as usize;
                    if b >= rham.overscaled_blocks() || t > BLOCK_BITS {
                        return t;
                    }
                    let u: f64 = rng.gen();
                    if u < errors.up[t] {
                        (t + 1).min(BLOCK_BITS)
                    } else if u < errors.up[t] + errors.down[t] {
                        t.saturating_sub(1)
                    } else {
                        t
                    }
                })
                .sum()
        })
        .collect()
}

#[test]
fn rham_over_the_shared_matrix_matches_the_per_row_loop() {
    let blocks = DIM.div_ceil(BLOCK_BITS);
    for (name, memory) in memories() {
        let reference = rows(&memory);
        let exact = RHam::new(&memory).unwrap();
        assert!(Arc::ptr_eq(exact.rows(), &memory.shared_rows()), "{name}");
        for rham in [
            exact.clone(),
            exact.clone().with_excluded_blocks(blocks / 4),
            exact.clone().with_overscaled_blocks(blocks),
            exact.clone().with_overscaled_blocks(blocks / 2),
        ] {
            for query in queries(&memory) {
                let expected = pick(&rham_reference(&rham, &reference, &query, 0));
                assert_search_agrees(&rham, &query, &expected);
                for salt in [1u64, 0x1_0002] {
                    let salted = pick(&rham_reference(&rham, &reference, &query, salt));
                    assert_eq!(
                        rham.search_with_margin_salted(&query, salt).unwrap(),
                        salted,
                        "{name} salt {salt}"
                    );
                }
            }
        }
    }
}

/// The LTA tree over exact distances: a pair closer than the minimum
/// detectable distance keeps its first input.
fn lta_winner(distances: &[usize], min_detectable: usize) -> usize {
    let mut round: Vec<usize> = (0..distances.len()).collect();
    while round.len() > 1 {
        round = round
            .chunks(2)
            .map(|pair| match *pair {
                [a, b]
                    if distances[a].abs_diff(distances[b]) >= min_detectable
                        && distances[b] < distances[a] =>
                {
                    b
                }
                [a, ..] => a,
                [] => unreachable!("chunks are nonempty"),
            })
            .collect();
    }
    round[0]
}

#[test]
fn aham_over_the_shared_matrix_matches_the_per_row_loop() {
    for (name, memory) in memories() {
        let reference = rows(&memory);
        let recommended = AHam::new(&memory).unwrap();
        assert!(
            Arc::ptr_eq(recommended.rows(), &memory.shared_rows()),
            "{name}"
        );
        for aham in [
            recommended.clone(),
            recommended
                .clone()
                .with_lta_bits(recommended.lta_bits() + 2),
            recommended.clone().with_lta_bits(4),
        ] {
            let grid = aham.min_detectable_distance().max(1);
            for query in queries(&memory) {
                let distances: Vec<usize> = reference
                    .iter()
                    .map(|row| row.hamming(&query).as_usize())
                    .collect();
                let winner = lta_winner(&distances, aham.min_detectable_distance());
                let expected = MarginSearchResult {
                    class: ClassId(winner),
                    measured_distance: Distance::new(distances[winner] / grid * grid),
                    runner_up: distances
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != winner)
                        .map(|(_, &d)| Distance::new(d / grid * grid))
                        .min(),
                };
                assert_search_agrees(&aham, &query, &expected);
            }
        }
    }
}

/// A memory written after a design was built copies its matrix; the
/// design keeps searching the rows it was built over.
#[test]
fn a_design_keeps_its_rows_when_the_memory_is_written_later() {
    let mut memory = random_memory(10, DIM, 9);
    let before = rows(&memory);
    let dham = DHam::new(&memory).unwrap();
    let replacement = Hypervector::random(memory.dim(), 99);
    memory.replace_row(ClassId(4), replacement.clone()).unwrap();
    assert!(!Arc::ptr_eq(dham.rows(), &memory.shared_rows()));
    assert_eq!(dham.search(&before[4]).unwrap().class, ClassId(4));
    assert_ne!(
        dham.search(&replacement).unwrap().measured_distance,
        Distance::ZERO
    );
    assert_eq!(memory.search(&replacement).unwrap().class, ClassId(4));
}
