//! Cross-crate invariants: properties that must hold when substrates
//! compose (cloud ↔ billing, memory ↔ enumeration, KM ↔ device mapping,
//! planner ↔ timeline).

mod common;

use cloudsim::{AvailabilityTrace, CloudConfig, CloudSim, GpuSpec, InstanceKind};
use common::reference::best_assignment_weight;
use kmatch::{max_weight_assignment, WeightMatrix};
use llmsim::{calibration, MemoryModel, ModelSpec};
use parallelism::{enumerate_configs, ConfigSpace, ParallelConfig, PerfModel};
use proptest::prelude::*;
use simkit::{SimRng, SimTime};

#[test]
fn cloud_never_exceeds_trace_capacity() {
    let trace = AvailabilityTrace::paper_bs();
    let mut cloud = CloudSim::new(CloudConfig::default(), trace.clone(), 5);
    cloud.request_spot(SimTime::ZERO, 20);
    let mut max_seen = 0;
    while let Some((t, _)) = cloud.pop_next() {
        let live = cloud
            .fleet()
            .filter(|i| i.kind == InstanceKind::Spot && i.kill_at.is_none())
            .count() as u32;
        max_seen = max_seen.max(live);
        assert!(
            live <= trace.capacity_at(t),
            "at {t}: {live} spot instances > capacity {}",
            trace.capacity_at(t)
        );
    }
    assert!(max_seen > 0, "something was granted");
}

#[test]
fn billing_matches_hand_computation_on_simple_run() {
    let mut cloud = CloudSim::new(CloudConfig::default(), AvailabilityTrace::constant(2), 1);
    let ids = cloud.prewarm_spot(2);
    assert_eq!(ids.len(), 2);
    let end = SimTime::from_secs(1800);
    for id in ids {
        cloud.release(end, id);
    }
    // 2 instances × 0.5 h × 1.9 $/h.
    assert!((cloud.meter().total_usd(end) - 1.9).abs() < 1e-9);
}

#[test]
fn every_enumerated_config_has_positive_throughput_estimate() {
    for model in ModelSpec::paper_models() {
        let perf = PerfModel::paper_defaults(model.clone());
        let configs = enumerate_configs(
            &model,
            &MemoryModel::default(),
            &GpuSpec::t4(),
            &ConfigSpace::default(),
            64,
        );
        assert!(!configs.is_empty());
        for c in configs {
            let phi = perf.throughput(&c);
            assert!(phi.is_finite() && phi > 0.0, "{}: {c} -> {phi}", model.name);
        }
    }
}

#[test]
fn calibration_anchors_survive_composition() {
    // Table 1 anchors reproduced through the PerfModel layer.
    for (name, (p, m), secs) in calibration::TABLE1_ANCHORS {
        let model = ModelSpec::paper_models()
            .into_iter()
            .find(|ms| ms.name == name)
            .unwrap();
        let perf = PerfModel::paper_defaults(model);
        let c = ParallelConfig::new(1, p, m, 1);
        let got = perf.exec_latency(&c).as_secs_f64();
        assert!((got - secs).abs() / secs < 0.02, "{name}: {got} vs {secs}");
    }
}

#[test]
fn km_matches_bruteforce_on_fixed_cases() {
    let cases = [
        WeightMatrix::from_rows(&[vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]]),
        WeightMatrix::from_rows(&[vec![0, 0, 0, 0], vec![0, 1, 0, 0], vec![0, 0, 0, 2]]),
        WeightMatrix::from_fn(5, 5, |r, c| ((r * 31 + c * 17) % 13) as i64 - 6),
    ];
    for w in &cases {
        assert_eq!(
            max_weight_assignment(w).total_weight,
            best_assignment_weight(w),
            "matrix:\n{w}"
        );
    }
}

proptest! {
    #[test]
    fn km_equals_bruteforce_through_public_api(
        seed in 0u64..1000,
        rows in 1usize..=6,
        cols in 1usize..=6,
    ) {
        let mut rng = SimRng::new(seed).stream("w");
        let w = WeightMatrix::from_fn(rows, cols, |_, _| rng.below(2_000) as i64 - 1_000);
        prop_assert_eq!(max_weight_assignment(&w).total_weight, best_assignment_weight(&w));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_traces_always_replayable(seed in 0u64..500) {
        let gen = cloudsim::TraceGenerator::default();
        let trace = gen.generate(&mut SimRng::new(seed).stream("t"));
        let mut cloud = CloudSim::new(CloudConfig::default(), trace, seed);
        cloud.request_spot(SimTime::ZERO, 12);
        let mut events = 0;
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = cloud.pop_next() {
            prop_assert!(t >= last, "events must be time-ordered");
            last = t;
            events += 1;
            prop_assert!(events < 10_000, "no event storms");
        }
    }

    #[test]
    fn exec_latency_monotone_in_output_length(
        s_out in 1u32..256,
    ) {
        let model = ModelSpec::gpt_20b();
        let cost = calibration::calibrated_cost_model(&model);
        let a = cost.exec_latency(&model, 3, 4, 1, 512, s_out);
        let b = cost.exec_latency(&model, 3, 4, 1, 512, s_out + 1);
        prop_assert!(b > a);
    }
}
