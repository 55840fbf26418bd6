//! Regenerates Figure 9: component ablation of GPT-20B on traces A_S and
//! B_S. Components are disabled cumulatively (controller → migration
//! planner → interruption arranger → device mapper), reporting P99 tail and
//! average latency normalized to the full system.

use cloudsim::AvailabilityTrace;
use llmsim::ModelSpec;
use spotserve::{AblationFlags, SystemOptions};
use spotserve_bench::{ablation_ladder, header, run_cell};

fn main() {
    header("Figure 9: ablation study, GPT-20B @0.35 req/s");
    let model = ModelSpec::gpt_20b();
    for (tname, trace) in [
        ("AS", AvailabilityTrace::paper_as()),
        ("BS", AvailabilityTrace::paper_bs()),
    ] {
        println!("\n--- Trace {tname} ---");
        let mut base: Option<(f64, f64)> = None;
        for (vname, flags) in ablation_ladder() {
            let opts = SystemOptions::spotserve().with_ablation(flags);
            let report = run_cell(opts, &model, &trace, false, 0.35, 1);
            let p = report.latency.percentiles();
            let (b99, bavg) = *base.get_or_insert((p.p99, p.mean));
            println!(
                "{:<24} p99={:>7.1}s ({:>5.2}x)   avg={:>7.1}s ({:>5.2}x)  unfinished={}",
                vname,
                p.p99,
                p.p99 / b99,
                p.mean,
                p.mean / bavg,
                report.unfinished,
            );
        }
    }
    println!();
    println!("Paper reference: the full ladder degrades P99 by 1.61x on AS");
    println!("and 3.41x on BS; every removed component makes the tail worse.");

    // Extension beyond the paper's cumulative bars: leave-one-out, which
    // isolates each component's contribution with the controller active
    // (e.g. the migration planner's larger buffers shrink the feasible
    // configuration space, §6.2).
    header("Fig 9 extension: leave-one-out ablation, GPT-20B");
    let single = [
        ("SpotServe", AblationFlags::default()),
        (
            "w/o Controller",
            AblationFlags {
                no_controller: true,
                ..Default::default()
            },
        ),
        (
            "w/o Migration Planner",
            AblationFlags {
                no_migration_planner: true,
                ..Default::default()
            },
        ),
        (
            "w/o Interruption Arranger",
            AblationFlags {
                no_interruption_arranger: true,
                ..Default::default()
            },
        ),
        (
            "w/o Device Mapper",
            AblationFlags {
                no_device_mapper: true,
                ..Default::default()
            },
        ),
    ];
    for (tname, trace) in [
        ("AS", AvailabilityTrace::paper_as()),
        ("BS", AvailabilityTrace::paper_bs()),
    ] {
        println!("\n--- Trace {tname} ---");
        let mut base: Option<(f64, f64)> = None;
        for (vname, flags) in single {
            let opts = SystemOptions::spotserve().with_ablation(flags);
            let report = run_cell(opts, &model, &trace, false, 0.35, 1);
            let p = report.latency.percentiles();
            let (b99, bavg) = *base.get_or_insert((p.p99, p.mean));
            println!(
                "{:<26} p99={:>7.1}s ({:>5.2}x)   avg={:>7.1}s ({:>5.2}x)",
                vname,
                p.p99,
                p.p99 / b99,
                p.mean,
                p.mean / bavg,
            );
        }
    }
}
