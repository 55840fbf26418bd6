//! Quickstart: serve OPT-6.7B on a preemptible fleet for 20 minutes and
//! print the latency/cost summary.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cloudsim::AvailabilityTrace;
use llmsim::ModelSpec;
use spotserve::{Scenario, ServingSystem, SystemOptions};

fn main() {
    // The paper's A_S spot trace (Figure 5) and stable workload (§6.1).
    let scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::paper_as(),
        1.5, // requests per second
        42,  // seed
    );
    println!(
        "serving {} requests of OPT-6.7B on trace A_S ...",
        scenario.requests.len()
    );

    let report = ServingSystem::new(SystemOptions::spotserve(), scenario).run();

    let p = report.latency.percentiles();
    println!("completed: {} (unfinished {})", p.count, report.unfinished);
    println!(
        "avg latency: {:6.1}s   P90: {:6.1}s   P99: {:6.1}s",
        p.mean, p.p90, p.p99
    );
    println!("preemptions survived: {}", report.preemptions);
    println!("fleet cost: ${:.2}", report.cost_usd);
    if let Some(cpt) = report.cost().usd_per_token {
        println!("cost per generated token: {:.2}e-5 USD", cpt * 1e5);
    }
    println!("\nconfiguration history:");
    for c in report.config_changes.iter().take(12) {
        match c.config {
            Some(cfg) => println!(
                "  t={:7.1}s -> {cfg} (pause {:.1}s, migrated {:.1} GB)",
                c.at.as_secs_f64(),
                c.pause.as_secs_f64(),
                c.migrated_bytes as f64 / 1e9
            ),
            None => println!("  t={:7.1}s -> serving halted", c.at.as_secs_f64()),
        }
    }
}
