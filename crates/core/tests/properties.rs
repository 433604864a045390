//! Property-based tests of the HAM architecture models.

use ham_core::explore::{self, DesignKind};
use ham_core::prelude::*;
use ham_core::rham::RHam;
use ham_core::switching;
use hdc::prelude::*;
use hdc::ScanStrategy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_designs_agree_with_exact_search_on_clear_margins(
        c in 2usize..12,
        seed in any::<u64>(),
        class in 0usize..12,
    ) {
        // Balanced random classes are ~D/2 apart; a query 10% away from
        // its class has a margin far above every design's resolution.
        let class = class % c;
        let memory = explore::random_memory(c, 2_048, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51EA);
        let query = memory
            .row(ClassId(class))
            .unwrap()
            .with_flipped_bits(204, &mut rng);
        let exact = memory.search(&query).unwrap();
        prop_assert_eq!(exact.class, ClassId(class));
        for kind in DesignKind::ALL {
            let design = explore::build(kind, &memory).unwrap();
            let hit = design.search(&query).unwrap();
            prop_assert_eq!(hit.class, exact.class, "{} disagrees", kind);
        }
    }

    #[test]
    fn dham_measured_distance_is_exact_over_sampled_bits(
        d in 64usize..512,
        keep_frac in 30usize..=100,
        seed in any::<u64>(),
    ) {
        let memory = explore::random_memory(3, d, seed);
        let kept = (d * keep_frac / 100).max(1);
        let dham = ham_core::DHam::with_sampling(&memory, kept).unwrap();
        let query = Hypervector::random(Dimension::new(d).unwrap(), seed ^ 1);
        let hit = dham.search(&query).unwrap();
        prop_assert!(hit.measured_distance.as_usize() <= kept);
    }

    #[test]
    fn rham_block_distances_always_reassemble_hamming(
        d in 1usize..700,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let dim = Dimension::new(d).unwrap();
        let a = Hypervector::random(dim, s1);
        let b = Hypervector::random(dim, s2);
        let blocks = RHam::block_distances(&a, &b);
        prop_assert_eq!(blocks.len(), d.div_ceil(4));
        let total: usize = blocks.iter().map(|&x| x as usize).sum();
        prop_assert_eq!(total, a.hamming(&b).as_usize());
        prop_assert!(blocks.iter().all(|&x| x <= 4));
    }

    #[test]
    fn rham_overscaled_distance_error_is_bounded_by_blocks(
        seed in any::<u64>(),
        overscaled in 0usize..=256,
    ) {
        let memory = explore::random_memory(2, 1_024, seed);
        let exact = RHam::new(&memory).unwrap();
        let noisy = exact.clone().with_overscaled_blocks(overscaled);
        let query = Hypervector::random(Dimension::new(1_024).unwrap(), seed ^ 2);
        let e = exact.search(&query).unwrap().measured_distance.as_usize();
        let n = noisy.search(&query).unwrap().measured_distance.as_usize();
        // Each overscaled block errs by at most one bit.
        prop_assert!(e.abs_diff(n) <= overscaled.min(256));
    }

    #[test]
    fn costs_are_positive_and_monotone_in_classes(
        c in 2usize..60,
        d in 64usize..4_096,
        kind_idx in 0usize..3,
    ) {
        let kind = DesignKind::ALL[kind_idx];
        let small = explore::build(kind, &explore::random_memory(c, d, 1)).unwrap().cost();
        let large = explore::build(kind, &explore::random_memory(c + 8, d, 1)).unwrap().cost();
        prop_assert!(small.energy.get() > 0.0);
        prop_assert!(small.delay.get() > 0.0);
        prop_assert!(small.area.get() > 0.0);
        prop_assert!(large.energy >= small.energy);
        prop_assert!(large.delay >= small.delay);
        prop_assert!(large.area >= small.area);
        prop_assert!(large.edp().get() >= small.edp().get());
    }

    #[test]
    fn design_ordering_holds_across_the_space(
        c in 4usize..40,
        d_exp in 9u32..14,
    ) {
        // A-HAM < R-HAM < D-HAM in EDP at every corner of the sweep range.
        let d = 1usize << d_exp;
        let memory = explore::random_memory(c, d, 3);
        let dham = explore::build(DesignKind::Digital, &memory).unwrap().cost();
        let rham = explore::build(DesignKind::Resistive, &memory).unwrap().cost();
        let aham = explore::build(DesignKind::Analog, &memory).unwrap().cost();
        prop_assert!(aham.edp().get() < rham.edp().get());
        prop_assert!(rham.edp().get() < dham.edp().get());
    }

    #[test]
    fn switching_activity_bounds(b in 1usize..12) {
        let r = switching::rham_activity(b);
        prop_assert!(r > 0.0 && r <= 0.25 + 1e-12);
        prop_assert!(r <= switching::dham_activity(b) + 1e-12);
    }

    #[test]
    fn aham_bits_mapping_is_monotone_nonincreasing(
        d in 512usize..12_000,
        e1 in 0usize..4_000,
        extra in 0usize..2_000,
    ) {
        let b1 = explore::aham_bits_for_error(d, e1);
        let b2 = explore::aham_bits_for_error(d, e1 + extra);
        prop_assert!(b2 <= b1);
        prop_assert!(b2 >= 8);
    }
}

// ---- properties of the functional simulators ---------------------------

use ham_core::dham_cycle::DhamCycleSim;
use ham_core::rham_cycle::RhamPhaseSim;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cycle_sims_match_the_analytic_models(
        c in 2usize..10,
        seed in any::<u64>(),
        lanes in 1usize..128,
        noise_frac in 0usize..30,
    ) {
        let memory = explore::random_memory(c, 1_024, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1C);
        let class = (seed % c as u64) as usize;
        let query = memory
            .row(ClassId(class))
            .unwrap()
            .with_flipped_bits(1_024 * noise_frac / 100, &mut rng);
        let exact = memory.search(&query).unwrap();

        let dham_sim = DhamCycleSim::new(&memory, lanes).unwrap();
        let d = dham_sim.run(&query).unwrap();
        prop_assert_eq!(d.result.class, exact.class);
        prop_assert_eq!(d.result.measured_distance, exact.distance);
        prop_assert_eq!(d.cycles.count, (1_024usize.div_ceil(lanes)) as u64);

        let rham_sim = RhamPhaseSim::new(&memory, lanes).unwrap();
        let r = rham_sim.run(&query).unwrap();
        prop_assert_eq!(r.result.class, exact.class);
        prop_assert_eq!(r.result.measured_distance, exact.distance);
    }

    #[test]
    fn pareto_front_is_idempotent(
        dims in prop::collection::vec(256usize..4_096, 1..4),
        c in 2usize..30,
    ) {
        let points = explore::dimension_sweep(&dims, c, 9);
        let front = ham_core::pareto::pareto_front(&points);
        let twice = ham_core::pareto::pareto_front(&front);
        prop_assert_eq!(front.len(), twice.len());
    }
}

// ---- properties of the resilience subsystem ----------------------------

use ham_core::resilience::{
    apply_faults, apply_query_faults, FaultInjector, Scrubber, StuckAtCells, TransientFlips,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn same_seed_injects_the_identical_fault_pattern(
        c in 2usize..10,
        d in 64usize..2_048,
        seed in any::<u64>(),
        rate_pct in 1usize..=20,
    ) {
        let rate = rate_pct as f64 / 100.0;
        let memory = explore::random_memory(c, d, seed ^ 0xFA);
        let faults: Vec<Box<dyn FaultInjector>> =
            vec![Box::new(StuckAtCells::new(rate, seed))];
        let once = apply_faults(&memory, &faults).unwrap();
        let twice = apply_faults(&memory, &faults).unwrap();
        for (class, _, row) in once.iter() {
            prop_assert_eq!(Some(row), twice.row(class));
        }
        let query = Hypervector::random(Dimension::new(d).unwrap(), seed ^ 0x0F);
        let flips = TransientFlips::new(rate, seed);
        prop_assert_eq!(
            flips.inject_query(&query, 7),
            flips.inject_query(&query, 7)
        );
        // A different stream position draws a different pattern (for any
        // nonzero rate at these widths the patterns collide essentially
        // never; equality would indicate a seeding bug).
        if d >= 512 && rate_pct >= 5 {
            prop_assert_ne!(
                flips.inject_query(&query, 7),
                flips.inject_query(&query, 8)
            );
        }
    }

    #[test]
    fn zero_rate_injectors_are_bit_identical_to_the_clean_path(
        c in 2usize..10,
        d in 64usize..2_048,
        seed in any::<u64>(),
    ) {
        let memory = explore::random_memory(c, d, seed);
        let faults: Vec<Box<dyn FaultInjector>> = vec![
            Box::new(StuckAtCells::new(0.0, seed)),
            Box::new(TransientFlips::new(0.0, seed)),
        ];
        let faulted = apply_faults(&memory, &faults).unwrap();
        for (class, _, row) in memory.iter() {
            prop_assert_eq!(Some(row), faulted.row(class));
        }
        let query = Hypervector::random(Dimension::new(d).unwrap(), seed ^ 0xBE);
        prop_assert_eq!(apply_query_faults(&faults, &query, 0), None);
    }

    #[test]
    fn stuck_at_repair_restores_exact_self_distance(
        c in 2usize..10,
        d in 64usize..2_048,
        seed in any::<u64>(),
        rate_pct in 1usize..=20,
    ) {
        let memory = explore::random_memory(c, d, seed ^ 0x5C);
        let scrubber = Scrubber::from_memory(&memory);
        let faults: Vec<Box<dyn FaultInjector>> =
            vec![Box::new(StuckAtCells::new(rate_pct as f64 / 100.0, seed))];
        let mut faulted = apply_faults(&memory, &faults).unwrap();
        let report = scrubber.repair(&mut faulted).unwrap();
        prop_assert_eq!(report.scanned, c);
        for (class, _, row) in memory.iter() {
            let repaired = faulted.row(class).unwrap();
            prop_assert_eq!(repaired.hamming(&row), Distance::ZERO);
        }
        prop_assert!(scrubber.scan(&faulted).unwrap().is_clean());
    }

    #[test]
    fn health_telemetry_stays_consistent_over_any_stream(
        window in 0usize..12,
        events in prop::collection::vec(0u8..6, 0..200),
    ) {
        let mut monitor = HealthMonitor::new(HealthPolicy {
            window,
            ..HealthPolicy::default()
        });
        let mut outcomes = 0usize;
        let mut reported = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let (confidence, stage) = match event {
                0 => (Confidence::Confident, EngineStage::Primary),
                1 => (Confidence::Marginal, EngineStage::Exact),
                2 => (Confidence::Rejected, EngineStage::Exact),
                3 => (Confidence::Confident, EngineStage::Resample),
                _ => (Confidence::Confident, EngineStage::Widened),
            };
            let transition = if *event == 5 && i % 2 == 0 {
                monitor.observe_error(&HamError::WorkerPanicked { query: i })
            } else {
                outcomes += 1;
                monitor.observe_outcome(&QueryOutcome {
                    result: HamSearchResult {
                        class: ClassId(0),
                        measured_distance: Distance::new(i),
                    },
                    confidence,
                    escalations: 0,
                    final_engine: stage,
                    margin: i * 7,
                    scan: hdc::ScanCounters::default(),
                })
            };
            reported.extend(transition);
        }
        // Every transition was reported once, in order, and each one
        // leaves the state the previous one entered.
        prop_assert_eq!(monitor.transitions(), &reported[..]);
        for pair in reported.windows(2) {
            prop_assert_eq!(pair[0].to, pair[1].from);
        }
        if let Some(last) = reported.last() {
            prop_assert_eq!(last.to, monitor.state());
        }
        for t in &reported {
            prop_assert_ne!(t.from, t.to);
        }
        // Only outcomes land in the margin histogram; every event counts
        // towards occupancy.
        prop_assert_eq!(monitor.margin_histogram().iter().sum::<usize>(), outcomes);
        let occupancy: f64 = monitor.occupancy_fractions().iter().sum();
        if events.is_empty() {
            prop_assert_eq!(occupancy, 0.0);
        } else {
            prop_assert!((occupancy - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ensuring_an_index_is_idempotent_and_never_changes_an_answer(
        rows in 1usize..80,
        min_rows in 0usize..60,
        seed in any::<u64>(),
    ) {
        let dim = Dimension::new(300).unwrap();
        let mut memory = AssociativeMemory::new(dim);
        for i in 0..rows as u64 {
            memory.insert(format!("c{i}"), Hypervector::random(dim, seed ^ (i << 12))).unwrap();
        }
        let queries: Vec<Hypervector> =
            (0..4u64).map(|q| Hypervector::random(dim, !seed ^ q)).collect();
        let before: Vec<_> = queries.iter().map(|q| memory.search(q).unwrap()).collect();
        let policy = IndexPolicy { min_rows, ..IndexPolicy::default() };
        let stats = ensure_indexed(&mut memory, &policy);
        prop_assert_eq!(stats.is_some(), rows >= min_rows);
        prop_assert!(!policy.wants_rebuild(&memory));
        let handle = memory.index_handle();
        prop_assert_eq!(ensure_indexed(&mut memory, &policy), stats);
        match (&handle, memory.index_handle()) {
            (Some(a), Some(b)) => prop_assert!(std::sync::Arc::ptr_eq(a, &b)),
            (None, None) => {}
            _ => prop_assert!(false, "the second call changed the index"),
        }
        for strategy in [ScanStrategy::Auto, ScanStrategy::Indexed] {
            memory.set_scan_strategy(strategy);
            let after: Vec<_> = queries.iter().map(|q| memory.search(q).unwrap()).collect();
            prop_assert_eq!(&after, &before);
        }
    }
}
