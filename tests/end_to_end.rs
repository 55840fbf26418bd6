//! Cross-crate end-to-end tests: full serving runs through the public API.

use cloudsim::AvailabilityTrace;
use llmsim::ModelSpec;
use simkit::SimTime;
use spotserve::{AblationFlags, Scenario, ServingSystem, SystemOptions};

mod common;
use common::run_audited;

fn short(model: ModelSpec, trace: AvailabilityTrace, rate: f64, seed: u64) -> Scenario {
    let mut s = Scenario::paper_stable(model, trace, rate, seed);
    s.requests.retain(|r| r.arrival < SimTime::from_secs(300));
    s
}

#[test]
fn spotserve_beats_baselines_on_volatile_trace() {
    let trace = AvailabilityTrace::paper_bs();
    let mut p99 = Vec::new();
    for opts in [
        SystemOptions::spotserve(),
        SystemOptions::reparallelization(),
        SystemOptions::rerouting(),
    ] {
        let scenario = Scenario::paper_stable(ModelSpec::gpt_20b(), trace.clone(), 0.35, 1);
        let report = ServingSystem::new(opts, scenario).run();
        assert_eq!(report.unfinished, 0);
        p99.push(report.latency.percentiles().p99);
    }
    assert!(
        p99[0] < p99[1],
        "SpotServe {} vs Reparallelization {}",
        p99[0],
        p99[1]
    );
    assert!(
        p99[0] < p99[2],
        "SpotServe {} vs Rerouting {}",
        p99[0],
        p99[2]
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let scenario = short(
            ModelSpec::gpt_20b(),
            AvailabilityTrace::paper_bs(),
            0.35,
            99,
        );
        let report = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
        let p = report.latency.percentiles();
        (
            p.count,
            p.mean.to_bits(),
            p.p99.to_bits(),
            report.cost_usd.to_bits(),
            report.config_changes.len(),
            report.preemptions,
        )
    };
    assert_eq!(run(), run(), "bit-identical replays");
}

#[test]
fn different_seeds_give_different_workloads() {
    let a = Scenario::paper_stable(ModelSpec::opt_6_7b(), AvailabilityTrace::paper_as(), 1.5, 1);
    let b = Scenario::paper_stable(ModelSpec::opt_6_7b(), AvailabilityTrace::paper_as(), 1.5, 2);
    assert_ne!(a.requests, b.requests);
}

#[test]
fn on_demand_mixing_reduces_tail_on_deep_dips() {
    let trace = AvailabilityTrace::paper_bs();
    let run = |mixing: bool| {
        let opts = if mixing {
            SystemOptions::spotserve().with_on_demand_mixing()
        } else {
            SystemOptions::spotserve()
        };
        let scenario = Scenario::paper_stable(ModelSpec::llama_30b(), trace.clone(), 0.2, 3);
        let report = ServingSystem::new(opts, scenario).run();
        (report.latency.percentiles().p99, report.cost_usd)
    };
    let (p99_spot, cost_spot) = run(false);
    let (p99_mixed, cost_mixed) = run(true);
    assert!(
        p99_mixed < p99_spot,
        "mixing must cut the tail: {p99_mixed} vs {p99_spot}"
    );
    assert!(
        cost_mixed > cost_spot,
        "on-demand capacity costs more: {cost_mixed} vs {cost_spot}"
    );
}

#[test]
fn on_demand_mixing_stays_under_the_fleet_ceiling() {
    // One on-demand rule for all three systems: no `+O` run holds more
    // on-demand instances than the largest fleet it may target plus its
    // spares, however long spot stays short.
    for opts in [
        SystemOptions::spotserve(),
        SystemOptions::reparallelization(),
        SystemOptions::rerouting(),
    ] {
        let opts = opts.with_on_demand_mixing();
        let ceiling = opts.max_instances + opts.spare_instances;
        let scenario =
            Scenario::paper_stable(ModelSpec::gpt_20b(), AvailabilityTrace::paper_bs(), 0.35, 1);
        let report = run_audited(opts.clone(), scenario);
        let peak = report
            .fleet_timeline
            .iter()
            .map(|&(_, _, od)| od)
            .max()
            .unwrap_or(0);
        assert!(
            peak <= ceiling,
            "{:?}: held {peak} on-demand instances, ceiling {ceiling}",
            opts.policy
        );
    }
}

#[test]
fn every_request_is_accounted_for_exactly_once() {
    for opts in [
        SystemOptions::spotserve(),
        SystemOptions::reparallelization(),
        SystemOptions::rerouting(),
    ] {
        let scenario = short(ModelSpec::opt_6_7b(), AvailabilityTrace::paper_bs(), 1.5, 5);
        let total = scenario.requests.len();
        let report = run_audited(opts.clone(), scenario);
        let mut ids: Vec<u64> = report
            .latency
            .outcomes()
            .iter()
            .map(|o| o.request.id.0)
            .collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(
            before,
            ids.len(),
            "{:?}: duplicate completions",
            opts.policy
        );
        assert_eq!(
            ids.len() + report.unfinished,
            total,
            "{:?}: conservation of requests",
            opts.policy
        );
    }
}

#[test]
fn latencies_are_never_negative_and_finish_after_arrival() {
    let scenario = short(ModelSpec::gpt_20b(), AvailabilityTrace::paper_as(), 0.35, 8);
    let report = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
    for o in report.latency.outcomes() {
        assert!(o.finished >= o.request.arrival);
    }
}

#[test]
fn full_ablation_is_still_correct_just_slower() {
    let flags = AblationFlags {
        no_controller: true,
        no_migration_planner: true,
        no_interruption_arranger: true,
        no_device_mapper: true,
    };
    let scenario = short(
        ModelSpec::gpt_20b(),
        AvailabilityTrace::paper_bs(),
        0.35,
        13,
    );
    let total = scenario.requests.len();
    let plain = run_audited(SystemOptions::spotserve().with_ablation(flags), scenario);
    assert_eq!(plain.latency.outcomes().len() + plain.unfinished, total);
}

#[test]
fn costs_scale_with_fleet_price() {
    // An on-demand fleet of the same size costs ~2x the spot fleet.
    let spot = {
        let sc = short(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(4),
            1.0,
            21,
        );
        ServingSystem::new(SystemOptions::spotserve(), sc).run()
    };
    let od = {
        let sc = short(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(4),
            1.0,
            21,
        );
        ServingSystem::new(SystemOptions::on_demand_only(4), sc).run()
    };
    assert!(
        od.cost_usd > spot.cost_usd * 1.2,
        "{} vs {}",
        od.cost_usd,
        spot.cost_usd
    );
}
