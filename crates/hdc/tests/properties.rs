//! Property-based tests of the HD algebra invariants.

use hdc::distortion::ErrorModel;
use hdc::kernel::PackedRows;
use hdc::ops::{bind, bundle, permute, permute_inverse};
use hdc::prelude::*;
use hdc::{IndexBuildOptions, RowPatch, ScanStrategy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dim(d: usize) -> Dimension {
    Dimension::new(d).unwrap()
}

/// Strategy: a dimension in a range that exercises word boundaries.
fn dims() -> impl Strategy<Value = Dimension> {
    prop_oneof![
        Just(dim(1)),
        Just(dim(63)),
        Just(dim(64)),
        Just(dim(65)),
        (2usize..512).prop_map(dim),
    ]
}

fn hv_pair() -> impl Strategy<Value = (Hypervector, Hypervector)> {
    (dims(), any::<u64>(), any::<u64>())
        .prop_map(|(d, s1, s2)| (Hypervector::random(d, s1), Hypervector::random(d, s2)))
}

proptest! {
    #[test]
    fn bitvec_from_bits_round_trips(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let v = BitVec::from_bits(bits.iter().copied());
        prop_assert_eq!(v.len(), bits.len());
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(v.get(i), bit);
        }
        prop_assert_eq!(v.count_ones(), bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn bitvec_from_words_matches_from_bits(
        len in 1usize..300,
        raw in prop::collection::vec(any::<u64>(), 5..6),
    ) {
        // Random words keep their tail bits set: from_words must drop them.
        let words = raw[..len.div_ceil(64)].to_vec();
        let expected = BitVec::from_bits((0..len).map(|i| words[i / 64] >> (i % 64) & 1 == 1));
        let v = BitVec::from_words(words, len);
        prop_assert_eq!(v.as_words(), expected.as_words());
        prop_assert_eq!(v.count_ones(), expected.count_ones());
        prop_assert_eq!(v, expected);
    }

    #[test]
    fn bitvec_rotation_preserves_weight(
        bits in prop::collection::vec(any::<bool>(), 1..300),
        by in 0usize..1000,
    ) {
        let v = BitVec::from_bits(bits.iter().copied());
        let r = v.rotate_right(by);
        prop_assert_eq!(r.count_ones(), v.count_ones());
        prop_assert_eq!(r.rotate_left(by), v);
    }

    #[test]
    fn hamming_is_a_metric((a, b) in hv_pair(), s3 in any::<u64>()) {
        let c = Hypervector::random(a.dim(), s3);
        // identity of indiscernibles (one direction) and symmetry
        prop_assert_eq!(a.hamming(&a).as_usize(), 0);
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        // triangle inequality
        prop_assert!(
            a.hamming(&c).as_usize() <= a.hamming(&b).as_usize() + b.hamming(&c).as_usize()
        );
    }

    #[test]
    fn bind_is_commutative_associative_self_inverse((a, b) in hv_pair(), s3 in any::<u64>()) {
        let c = Hypervector::random(a.dim(), s3);
        prop_assert_eq!(bind(&a, &b), bind(&b, &a));
        prop_assert_eq!(bind(&bind(&a, &b), &c), bind(&a, &bind(&b, &c)));
        prop_assert_eq!(bind(&bind(&a, &b), &b), a.clone());
        prop_assert_eq!(bind(&a, &Hypervector::zeros(a.dim())), a);
    }

    #[test]
    fn bind_preserves_distance((a, b) in hv_pair(), s3 in any::<u64>()) {
        let c = Hypervector::random(a.dim(), s3);
        prop_assert_eq!(bind(&a, &c).hamming(&bind(&b, &c)), a.hamming(&b));
    }

    #[test]
    fn permute_is_distance_preserving_bijection((a, b) in hv_pair(), by in 0usize..700) {
        prop_assert_eq!(permute(&a, by).hamming(&permute(&b, by)), a.hamming(&b));
        prop_assert_eq!(permute_inverse(&permute(&a, by), by), a);
    }

    #[test]
    fn bundle_distance_never_exceeds_half_plus_noise(
        d in 64usize..512,
        seeds in prop::collection::vec(any::<u64>(), 1..7),
    ) {
        let dm = dim(d);
        let vs: Vec<Hypervector> = seeds.iter().map(|&s| Hypervector::random(dm, s)).collect();
        let out = bundle(&vs);
        // A bundle is at least as close to each member as an unrelated
        // vector would be (in expectation D/2); allow 4σ of slack.
        let slack = 2.0 * (d as f64).sqrt();
        for v in &vs {
            let dist = out.hamming(v).as_usize() as f64;
            prop_assert!(dist <= d as f64 / 2.0 + slack, "dist = {dist}, d = {d}");
        }
    }

    #[test]
    fn sampled_distance_is_bounded_by_full_and_mask(
        (a, b) in hv_pair(),
        frac in 1usize..100,
        seed in any::<u64>(),
    ) {
        let d = a.dim().get();
        let kept = (d * frac / 100).max(1);
        let mask = SampleMask::keep_random(a.dim(), kept, seed).unwrap();
        let sampled = mask.sampled_distance(&a, &b).as_usize();
        prop_assert!(sampled <= a.hamming(&b).as_usize());
        prop_assert!(sampled <= kept);
    }

    #[test]
    fn distorter_none_is_identity(dist in 0usize..20_000, d in 1usize..20_000) {
        let mut x = DistanceDistorter::new(ErrorModel::None, 0);
        prop_assert_eq!(x.distort(Distance::new(dist), dim(d)).as_usize(), dist);
    }

    #[test]
    fn uniform_distorter_stays_within_bound(
        dist in 0usize..10_000,
        e in 0usize..100,
        seed in any::<u64>(),
    ) {
        let mut x = DistanceDistorter::new(ErrorModel::UniformBits(e), seed);
        let out = x.distort(Distance::new(dist), dim(10_000)).as_usize();
        prop_assert!(out <= dist + e);
        prop_assert!(out + e >= dist.min(dist)); // out >= dist - e (clamped at 0)
        if dist >= e {
            prop_assert!(out >= dist - e);
        }
    }

    #[test]
    fn am_retrieves_under_noise_margin(
        c in 2usize..12,
        class in 0usize..12,
        flips_frac in 0usize..30, // up to 30% of D
    ) {
        let class = class % c;
        let d = dim(2_048);
        let rows: Vec<Hypervector> = (0..c as u64).map(|s| Hypervector::random(d, s)).collect();
        let mut am = AssociativeMemory::new(d);
        for (i, hv) in rows.iter().enumerate() {
            am.insert(format!("c{i}"), hv.clone()).unwrap();
        }
        let flips = d.get() * flips_frac / 100;
        let mut rng = rand::rngs::mock::StepRng::new(0xDEAD_BEEF, 0x9E37_79B9_7F4A_7C15);
        let query = rows[class].with_flipped_bits(flips, &mut rng);
        let hit = am.search(&query).unwrap();
        prop_assert_eq!(hit.class, ClassId(class));
        prop_assert_eq!(hit.distance.as_usize(), flips);
    }

    #[test]
    fn encoder_is_case_and_punctuation_insensitive(words in "[a-z ]{0,40}") {
        let d = dim(1_024);
        let e1 = NGramEncoder::new(3, ItemMemory::new(d, 5)).unwrap();
        let e2 = NGramEncoder::new(3, ItemMemory::new(d, 5)).unwrap();
        let upper: String = words.to_uppercase();
        prop_assert_eq!(e1.encode_text(&words), e2.encode_text(&upper));
    }
}

// ---- properties of the extension modules (level, seq) ------------------

use hdc::seq::SequenceEncoder;

proptest! {
    #[test]
    fn level_encoding_distance_is_monotone_in_value_gap(
        d in 512usize..4_096,
        levels in 4usize..32,
        seed in any::<u64>(),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        c in 0.0f64..1.0,
    ) {
        let enc = LevelEncoder::new(dim(d), 0.0, 1.0, levels, seed).unwrap();
        // The partition construction makes distance exactly linear in the
        // level gap (flipped index slices never overlap).
        let step = enc
            .level_hypervector(0)
            .hamming(enc.level_hypervector(1))
            .as_usize();
        prop_assert!(step > 0);
        for (x, y) in [(a, b), (a, c), (b, c)] {
            let gap = enc.quantize(x).abs_diff(enc.quantize(y));
            prop_assert_eq!(
                enc.encode(x).hamming(&enc.encode(y)).as_usize(),
                gap * step
            );
        }
    }

    #[test]
    fn sequence_encoder_matches_char_encoder_on_letter_tokens(
        text in "[a-z]{3,30}",
    ) {
        // Feeding single letters as tokens must reproduce the specialized
        // text encoder (same item memory, same windows).
        let d = dim(1_024);
        let char_enc = NGramEncoder::new(3, ItemMemory::new(d, 5)).unwrap();
        let mut tok_enc = SequenceEncoder::new(3, ItemMemory::new(d, 5)).unwrap();
        let tokens: Vec<String> = text.chars().map(|c| c.to_string()).collect();
        let via_tokens = tok_enc.encode(tokens.iter().map(String::as_str));
        let via_chars = char_enc.encode_text(&text);
        prop_assert_eq!(via_tokens, via_chars);
    }

    #[test]
    fn row_patches_bring_every_copy_to_the_same_state(
        d in dims(),
        stored in 0usize..40,
        target in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Hypervector> = (0..target as u64)
            .map(|i| Hypervector::random(d, seed ^ (i << 20)))
            .collect();
        let labels: Vec<String> = (0..target).map(|i| format!("t{i}")).collect();
        // Rows past the stored ones must be written; the others are
        // written when stale, and left alone when they already match.
        let dirty: Vec<bool> = (0..target).map(|i| i >= stored || rng.gen_bool(0.4)).collect();
        let stale_rows: Vec<Hypervector> = (0..stored)
            .map(|i| match i < target && !dirty[i] {
                true => rows[i].clone(),
                false => Hypervector::random(d, !seed ^ i as u64),
            })
            .collect();
        let stale_labels: Vec<String> = (0..stored)
            .map(|i| match i < target && !dirty[i] {
                true => labels[i].clone(),
                false => format!("stale{i}"),
            })
            .collect();
        // Runs: the dirty stretches, some split at random points.
        let mut runs = Vec::new();
        let mut i = 0;
        while i < target {
            if !dirty[i] {
                i += 1;
                continue;
            }
            let mut end = i + 1;
            while end < target && dirty[end] && !rng.gen_bool(0.2) {
                end += 1;
            }
            let mut words = PackedRows::new(d.get());
            for hv in &rows[i..end] {
                words.push(hv.as_bitvec().as_words());
            }
            runs.push((i, end, words));
            i = end;
        }
        let mut patch = RowPatch::new(target);
        for (start, end, words) in &runs {
            patch.push_run(*start, &labels[*start..*end], words);
        }
        prop_assert_eq!(patch.rows_written(), dirty.iter().filter(|&&x| x).count());

        let mut vec_labels = stale_labels.clone();
        patch.apply_to_labels(&mut vec_labels);
        prop_assert_eq!(&vec_labels, &labels);
        let mut packed = PackedRows::new(d.get());
        for hv in &stale_rows {
            packed.push(hv.as_bitvec().as_words());
        }
        patch.apply_to_packed(&mut packed);
        prop_assert_eq!(packed.len(), target);
        for (r, hv) in rows.iter().enumerate() {
            prop_assert_eq!(packed.row_words(r), hv.as_bitvec().as_words());
        }
        // A memory patched in place serves like one built from scratch.
        let mut memory = AssociativeMemory::new(d);
        for (label, hv) in stale_labels.iter().zip(&stale_rows) {
            memory.insert(label.clone(), hv.clone()).unwrap();
        }
        memory.apply_patch(&patch).unwrap();
        let mut fresh = AssociativeMemory::new(d);
        for (label, hv) in labels.iter().zip(&rows) {
            fresh.insert(label.clone(), hv.clone()).unwrap();
        }
        prop_assert!(memory.iter().eq(fresh.iter()));
        if target > 0 {
            let q = Hypervector::random(d, seed.rotate_left(7));
            prop_assert_eq!(memory.search(&q).unwrap(), fresh.search(&q).unwrap());
        }
    }

    #[test]
    fn rankings_are_sorted_and_prefix_consistent(
        d in dims(),
        c in 1usize..40,
        k in 0usize..45,
        seed in any::<u64>(),
    ) {
        // Every fifth row repeats row 0, so rankings hold exact ties.
        let rows: Vec<Hypervector> = (0..c as u64)
            .map(|i| Hypervector::random(d, seed ^ (((i % 5 != 0) as u64 * (i + 1)) << 24)))
            .collect();
        let mut am = AssociativeMemory::new(d);
        for (i, hv) in rows.iter().enumerate() {
            am.insert(format!("c{i}"), hv.clone()).unwrap();
        }
        let q = Hypervector::random(d, seed.wrapping_add(1));
        let full = am.search_top_k(&q, c).unwrap();
        let distances = am.distances(&q).unwrap();
        prop_assert_eq!(full.len(), c);
        for pair in full.windows(2) {
            prop_assert!((pair[0].1, pair[0].0) < (pair[1].1, pair[1].0));
        }
        for (class, distance) in &full {
            prop_assert_eq!(*distance, distances[class.0]);
        }
        let top = am.search_top_k(&q, k).unwrap();
        prop_assert_eq!(&top[..], &full[..k.min(c)]);
        // Top-1 and top-2 are the search's winner and runner-up.
        let hit = am.search(&q).unwrap();
        prop_assert_eq!((hit.class, hit.distance), full[0]);
        prop_assert_eq!(hit.runner_up, full.get(1).map(|&(_, distance)| distance));
    }

    #[test]
    fn indexed_memories_follow_every_write(
        d in dims(),
        c in 1usize..30,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indexed = AssociativeMemory::new(d);
        for i in 0..c as u64 {
            indexed.insert(format!("c{i}"), Hypervector::random(d, seed ^ (i << 16))).unwrap();
        }
        indexed.build_index(IndexBuildOptions::default()).unwrap();
        indexed.set_scan_strategy(ScanStrategy::Indexed);
        let mut direct = indexed.clone().with_scan_strategy(ScanStrategy::Direct);
        direct.drop_index();
        for step in 0..12u64 {
            let hv = Hypervector::random(d, seed.rotate_left(13) ^ step);
            if rng.gen_bool(0.5) {
                indexed.insert(format!("late{step}"), hv.clone()).unwrap();
                direct.insert(format!("late{step}"), hv.clone()).unwrap();
            } else {
                let class = ClassId(rng.gen_range(0..indexed.len()));
                indexed.replace_row(class, hv.clone()).unwrap();
                direct.replace_row(class, hv.clone()).unwrap();
            }
            prop_assert_eq!(indexed.index().unwrap().rows(), indexed.len());
            // The written row wins its own pattern, and every answer
            // matches the direct scan of the same rows.
            let hit = indexed.search(&hv).unwrap();
            prop_assert_eq!(hit.distance, Distance::ZERO);
            prop_assert_eq!(&hit, &direct.search(&hv).unwrap());
            let q = Hypervector::random(d, !seed ^ step);
            prop_assert_eq!(indexed.search(&q).unwrap(), direct.search(&q).unwrap());
            prop_assert_eq!(
                indexed.search_top_k(&q, 3).unwrap(),
                direct.search_top_k(&q, 3).unwrap()
            );
        }
    }
}
