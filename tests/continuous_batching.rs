//! System-level tests for the iteration-level continuous batching engine:
//! engine parity on the paper's stable workload, the heterogeneous-output
//! scenario axis it opens, and engine/policy interactions under churn.

use cloudsim::AvailabilityTrace;
use llmsim::ModelSpec;
use simkit::{SimRng, SimTime};
use spotserve::{EngineMode, RunReport, Scenario, ServingSystem, SystemOptions};
use workload::{OutputDist, Request, WorkloadSpec};

mod common;
use common::assert_audit_clean;

fn run(opts: SystemOptions, scenario: Scenario) -> RunReport {
    ServingSystem::new(opts, scenario).run()
}

fn long_tail_requests(seed: u64) -> Vec<Request> {
    let spec = WorkloadSpec::paper_stable(1.5);
    let dist = OutputDist::LongTail {
        common: 32,
        tail: 512,
        tail_fraction: 0.1,
    };
    spec.generate_mixed(&dist, &mut SimRng::new(seed).stream("arrivals"))
}

/// Acceptance: under the paper's stable workload (§6.1, Gamma CV 6) the
/// continuous engine's throughput is at least the fixed-batch engine's at
/// equal configuration, and it finishes no later.
#[test]
fn continuous_throughput_at_least_fixed_on_stable_workload() {
    for (model, trace, rate) in [
        (ModelSpec::opt_6_7b(), AvailabilityTrace::paper_as(), 1.5f64),
        (ModelSpec::gpt_20b(), AvailabilityTrace::paper_bs(), 0.35),
    ] {
        let mut results = Vec::new();
        for engine in [EngineMode::ContinuousBatching, EngineMode::FixedBatch] {
            let scenario = Scenario::paper_stable(model.clone(), trace.clone(), rate, 1);
            let total = scenario.requests.len();
            let report = run(SystemOptions::spotserve().with_engine(engine), scenario);
            assert_eq!(report.unfinished, 0, "{}: {engine:?}", model.name);
            let p = report.latency.percentiles();
            assert_eq!(p.count, total);
            let throughput = p.count as f64 / report.finished_at.as_micros() as f64 * 1e6;
            results.push((throughput, p.mean));
        }
        let (thr_cont, mean_cont) = results[0];
        let (thr_fixed, mean_fixed) = results[1];
        assert!(
            thr_cont >= thr_fixed * (1.0 - 1e-9),
            "{}: continuous {thr_cont} req/s must not trail fixed {thr_fixed}",
            model.name
        );
        assert!(
            mean_cont <= mean_fixed,
            "{}: continuous mean {mean_cont}s must not exceed fixed {mean_fixed}s",
            model.name
        );
    }
}

/// The scenario axis fixed batching could never express: with long-tail
/// output lengths, run-to-completion holds every short request hostage to
/// its batch's longest member; iteration-level retirement frees them.
#[test]
fn long_tail_outputs_are_not_hostage_to_the_batch() {
    let requests = long_tail_requests(7);
    let mut means = Vec::new();
    for engine in [EngineMode::ContinuousBatching, EngineMode::FixedBatch] {
        let scenario = Scenario::with_requests(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(6),
            requests.clone(),
            1.5,
            7,
        );
        let total = scenario.requests.len();
        let report = run(SystemOptions::spotserve().with_engine(engine), scenario);
        assert_eq!(report.unfinished, 0, "{engine:?}");
        assert_eq!(report.latency.percentiles().count, total);
        means.push(report.latency.percentiles().mean);
    }
    assert!(
        means[0] < means[1] * 0.5,
        "continuous mean {} must be far below fixed {} on a long tail",
        means[0],
        means[1]
    );
}

/// Heterogeneous in-flight sets survive churn under every policy: the
/// migration/recovery paths checkpoint per-request progress, and no
/// request is lost or double-completed.
#[test]
fn mixed_outputs_conserved_under_churn_for_all_policies() {
    let trace = AvailabilityTrace::from_steps(vec![
        (SimTime::ZERO, 6),
        (SimTime::from_secs(60), 5),
        (SimTime::from_secs(180), 4),
        (SimTime::from_secs(400), 6),
    ]);
    for opts in [
        SystemOptions::spotserve(),
        SystemOptions::reparallelization(),
        SystemOptions::rerouting(),
    ] {
        let mut requests = long_tail_requests(11);
        requests.retain(|r| r.arrival < SimTime::from_secs(600));
        let scenario =
            Scenario::with_requests(ModelSpec::opt_6_7b(), trace.clone(), requests, 1.5, 11);
        let total = scenario.requests.len();
        let report = run(opts.clone(), scenario);
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
        assert_audit_clean(&report, total);
        assert_eq!(
            ids.len() + report.unfinished,
            total,
            "{:?}: conservation of requests",
            opts.policy
        );
        assert_eq!(report.unfinished, 0, "{:?}: backlog drained", opts.policy);
    }
}

/// SpotServe's stateful recovery carries heterogeneous progress through a
/// preemption: under the continuous engine a volatile trace must still
/// migrate context (visible as migrated bytes in the config history)
/// rather than recompute everything.
#[test]
fn continuous_engine_still_migrates_context_statefully() {
    let scenario =
        Scenario::paper_stable(ModelSpec::gpt_20b(), AvailabilityTrace::paper_bs(), 0.35, 3);
    let report = run(SystemOptions::spotserve(), scenario);
    assert!(report.preemptions >= 1, "trace must preempt");
    assert!(
        report.config_changes.iter().any(|c| c.migrated_bytes > 0),
        "some transition must migrate context: {:?}",
        report.config_changes
    );
    assert_eq!(report.unfinished, 0);
}

/// The fixed-batch baseline stays a fully working engine (it remains the
/// comparison point in the benches) — including under preemptions.
#[test]
fn fixed_engine_baseline_survives_preemptions() {
    let scenario =
        Scenario::paper_stable(ModelSpec::gpt_20b(), AvailabilityTrace::paper_bs(), 0.35, 5);
    let total = scenario.requests.len();
    let report = run(
        SystemOptions::spotserve().with_engine(EngineMode::FixedBatch),
        scenario,
    );
    assert_eq!(report.latency.outcomes().len() + report.unfinished, total);
    assert_eq!(report.unfinished, 0);
    assert!(report.preemptions >= 1);
}
