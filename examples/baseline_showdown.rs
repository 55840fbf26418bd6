//! Head-to-head comparison of SpotServe against the two §6.1 baselines on
//! the volatile B_S trace — the scenario the paper's introduction motivates
//! (LLM serving that survives preemptions cheaply).
//!
//! ```sh
//! cargo run --release --example baseline_showdown
//! ```

use cloudsim::AvailabilityTrace;
use llmsim::ModelSpec;
use spotserve::{Scenario, ServingSystem, SystemOptions};

fn main() {
    let model = ModelSpec::gpt_20b();
    let trace = AvailabilityTrace::paper_bs();
    println!("GPT-20B @ 0.35 req/s on the volatile B_S spot trace\n");
    println!(
        "{:<20} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "system", "avg (s)", "P99 (s)", "cost $", "preempts", "reconfigs"
    );
    let mut p99 = Vec::new();
    for (name, opts) in [
        ("SpotServe", SystemOptions::spotserve()),
        ("Reparallelization", SystemOptions::reparallelization()),
        ("Rerouting", SystemOptions::rerouting()),
    ] {
        let scenario = Scenario::paper_stable(model.clone(), trace.clone(), 0.35, 7);
        let report = ServingSystem::new(opts, scenario).run();
        let p = report.latency.percentiles();
        println!(
            "{:<20} {:>8.1} {:>8.1} {:>8.2} {:>10} {:>12}",
            name,
            p.mean,
            p.p99,
            report.cost_usd,
            report.preemptions,
            report.config_changes.len()
        );
        p99.push(p.p99);
    }
    println!(
        "\nSpotServe P99 improvement: {:.2}x vs Reparallelization, {:.2}x vs Rerouting",
        p99[1] / p99[0],
        p99[2] / p99[0]
    );
    println!("(paper reports 2.4-9.1x across models and traces)");
}
