//! Regenerates Figure 8: the fluctuating-workload (rescaled MAF) study.
//!
//! Panels: (a) the raw synthetic MAF-shaped rate curve, (b) the selected
//! 15-minute rescaled segment, (c)(d) the fleets held on the two
//! availability traces, (e)(f) latency statistics for the three systems,
//! (g)(h) per-request latency over time with the configurations adopted
//! after each reparallelization.

use cloudsim::AvailabilityTrace;
use llmsim::ModelSpec;
use simkit::{SimDuration, SimRng};
use spotserve::{Scenario, ServingSystem};
use spotserve_bench::{header, latency_row, paper_systems};
use workload::{ArrivalProcess, RateProfile, WorkloadSpec};

fn requests_for(profile: &RateProfile, seed: u64) -> Vec<workload::Request> {
    let spec = WorkloadSpec {
        process: ArrivalProcess::Gamma { rate: 1.0, cv: 6.0 },
        duration: SimDuration::from_secs(900),
        s_in: 512,
        s_out: 128,
    };
    spec.generate_with_profile(profile, &mut SimRng::new(seed).stream("arrivals"))
}

fn main() {
    header("Figure 8: fluctuating (rescaled MAF) workload, GPT-20B, +O mixing");

    // (a) raw MAF-shaped trace.
    println!("\n(a) raw MAF-shaped arrival-rate curve (req/s per minute):");
    let raw = RateProfile::maf_raw(&mut SimRng::new(7).stream("maf"));
    for (i, &(t, r)) in raw.steps().iter().enumerate() {
        if i % 15 == 0 {
            println!("  t={:>6.0}s rate={:.2}", t.as_secs_f64(), r);
        }
    }

    // (b) the selected, rescaled segment.
    let profile = RateProfile::maf_like(0.35, 2.2);
    println!("\n(b) selected rescaled segment (drives the experiment):");
    for &(t, r) in profile.steps() {
        println!("  t={:>5.0}s rate={:.3} req/s", t.as_secs_f64(), r);
    }

    let model = ModelSpec::gpt_20b();
    for (tname, trace) in [
        ("A'S+O", AvailabilityTrace::paper_as_prime()),
        ("B'S+O", AvailabilityTrace::paper_bs_prime()),
    ] {
        println!("\n=== Trace {tname} ===");
        let requests = requests_for(&profile, 11);
        println!("workload: {} requests over 900 s", requests.len());
        for (sname, opts) in paper_systems() {
            let opts = opts.with_on_demand_mixing();
            let scenario =
                Scenario::with_requests(model.clone(), trace.clone(), requests.clone(), 0.35, 11);
            let report = ServingSystem::new(opts, scenario).run();
            let p = report.latency.percentiles();
            // (e)(f) latency statistics.
            println!("{:<18} {}", sname, latency_row(&p));
            if sname == "SpotServe" {
                // (c)(d) the fleet held over time.
                println!("  fleet (spot/od):");
                let mut last = (u32::MAX, u32::MAX);
                for &(t, s, o) in &report.fleet_timeline {
                    if (s, o) != last && t.as_secs_f64() <= 900.0 {
                        last = (s, o);
                        println!("    t={:>5.0}s spot={s:>2} od={o}", t.as_secs_f64());
                    }
                }
                // (g)(h) configurations adopted over time.
                println!("  configurations adopted:");
                for c in &report.config_changes {
                    if c.at.as_secs_f64() > 900.0 {
                        break;
                    }
                    match c.config {
                        Some(cfg) => println!(
                            "    t={:>5.0}s {} (pause {:.1}s)",
                            c.at.as_secs_f64(),
                            cfg,
                            c.pause.as_secs_f64()
                        ),
                        None => println!("    t={:>5.0}s HALTED", c.at.as_secs_f64()),
                    }
                }
                // (g)(h) per-request latency timeline, bucketed by minute.
                println!("  per-request latency (per-minute mean):");
                let mut sums = vec![(0.0f64, 0u32); 15];
                for (arr, lat) in report.latency.timeline() {
                    let b = (arr.as_secs_f64() / 60.0) as usize;
                    if b < sums.len() {
                        sums[b].0 += lat;
                        sums[b].1 += 1;
                    }
                }
                for (i, (sum, n)) in sums.iter().enumerate() {
                    if *n > 0 {
                        println!(
                            "    minute {:>2}: {:>6.1}s ({} reqs)",
                            i,
                            sum / *n as f64,
                            n
                        );
                    }
                }
            }
        }
    }
}
