//! Regenerates Figure 6: end-to-end serving performance of SpotServe vs
//! Reparallelization vs Rerouting — three models × four traces, reporting
//! average and P90–P99 tail latencies plus SpotServe's P99 improvement
//! factors (the numbers printed inside each paper subplot).

use llmsim::ModelSpec;
use spotserve_bench::{header, latency_row, paper_rate, paper_systems, paper_traces, run_cell};

fn main() {
    header("Figure 6: end-to-end latency, 3 systems x 3 models x 4 traces");
    let seed = 1;
    for model in ModelSpec::paper_models() {
        let rate = paper_rate(&model);
        for (tname, trace, mixing) in paper_traces() {
            println!("\n--- {} @ {} req/s on {} ---", model.name, rate, tname);
            let mut p99s = Vec::new();
            for (sname, opts) in paper_systems() {
                let report = run_cell(opts, &model, &trace, mixing, rate, seed);
                let p = report.latency.percentiles();
                println!(
                    "{:<18} {}  (unfinished={}, preemptions={})",
                    sname,
                    latency_row(&p),
                    report.unfinished,
                    report.preemptions
                );
                p99s.push(p.p99);
            }
            println!(
                "SpotServe P99 improvement: {:.2}x vs Reparallelization, {:.2}x vs Rerouting",
                p99s[1] / p99s[0],
                p99s[2] / p99s[0]
            );
        }
    }
    println!();
    println!("Paper reference (P99 improvements): LLaMA-30B 1.34-2.43x vs");
    println!("Reparallelization and 2.14-9.13x vs Rerouting across traces;");
    println!("the qualitative claim is that SpotServe wins every metric on");
    println!("every trace, with the largest gaps on the volatile BS trace.");
}
