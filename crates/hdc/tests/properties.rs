//! Property-based tests of the HD algebra invariants.

use hdc::distortion::ErrorModel;
use hdc::ops::{bind, bundle, permute, permute_inverse};
use hdc::prelude::*;
use proptest::prelude::*;

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
}
