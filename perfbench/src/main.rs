//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <churn_chaos|paper_grid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` generates the workload from the seed, builds and runs it
//! repeatedly for `--seconds`, gates every run, and reports the
//! end-to-end metrics. Host time is CPU time of the process (see
//! [`stats::cpu_seconds`]): `setup_s` is the median over the set-ups,
//! `sim_req_per_s` divides the requests sent by the sum over jobs of each
//! job's fastest run call.
//! `--trace 1` runs the workload untraced and traced (telemetry on) in
//! alternation, then replays each layer's calls from the run's own
//! inputs and outputs, and reports the per-layer metrics.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted` (workload runs), `failed` (runs that failed the
//! correctness gate) and `metrics`. A failing run prints no metrics and
//! exits with code 1. Diagnostics go to standard error.

mod layers;
mod run;
mod stats;
mod workloads;

use std::time::Instant;

use run::{build_and_run, canonical_digest, gate, stream_digest, summarize, JobRun, SimSummary};
use stats::{cpu_seconds, median, Metrics};
use workloads::Workload;

/// Repeats a run makes even when `--seconds` is already spent.
const MIN_REPEATS: u64 = 3;
/// Set-up-only repeats after each run, for the `setup_s` median.
const SETUP_EXTRA: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports: the gate verdict, runs attempted and failed, and
/// the metrics (empty when the gate failed).
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Tracks gate failures and repeat agreement across a process's runs.
#[derive(Default)]
struct Gatekeeper {
    /// The first run's canonical digest, stream digest and simulated
    /// summary: every later run at this seed must reproduce them.
    first: Option<(u64, Option<u64>, SimSummary)>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Counted (not gated) auditor findings of the latest run.
    known_violations: usize,
    stream_violations: usize,
}

impl Gatekeeper {
    /// Gates one workload run. `stream` says whether the stream digest
    /// takes part in the repeat comparison (it does when every run of
    /// the process records telemetry alike).
    fn check(&mut self, runs: &mut [JobRun], limit_s: f64, stream: bool) -> SimSummary {
        let mut verdict = gate(runs);
        self.known_violations = verdict.known_violations;
        self.stream_violations = verdict.stream_violations;
        let summary = summarize(runs, limit_s);
        let key = (
            canonical_digest(runs),
            if stream { stream_digest(runs) } else { None },
            summary.clone(),
        );
        match &self.first {
            None => {
                eprintln!(
                    "perfbench: canonical digest {:016x}, stream digest {}",
                    key.0,
                    key.1.map_or("-".to_string(), |d| format!("{d:016x}"))
                );
                self.first = Some(key);
            }
            Some(first) if *first != key => verdict.problems.push(format!(
                "run {} disagrees with the first: digest {:016x} vs {:016x}",
                self.attempted, key.0, first.0
            )),
            Some(_) => {}
        }
        self.attempted += 1;
        if !verdict.problems.is_empty() {
            self.failed += 1;
            self.problems.extend(verdict.problems);
        }
        summary
    }

    fn outcome(self, metrics: Metrics) -> Outcome {
        Outcome {
            problems: self.problems,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// `VmHWM` of this process (peak resident set), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Generates the workload and builds its systems, then drops them;
/// returns the generate and build CPU seconds.
fn set_up(args: &Args) -> (f64, f64) {
    let c0 = cpu_seconds();
    let jobs = args.workload.generate(args.seed);
    let generate_s = cpu_seconds() - c0;
    let c0 = cpu_seconds();
    let built: Vec<_> = jobs.iter().map(|j| j.build(false)).collect();
    let build_s = cpu_seconds() - c0;
    drop(std::hint::black_box(built));
    (generate_s, build_s)
}

/// CPU seconds of a workload run's run calls.
fn run_cpu_s(runs: &[JobRun]) -> f64 {
    runs.iter().map(|r| r.cpu_s).sum()
}

fn end_to_end(args: &Args) -> Outcome {
    let limit_s = args.workload.latency_limit_s();
    let start = Instant::now();
    let mut keeper = Gatekeeper::default();
    let mut setup = Vec::new();
    // Each job's fastest run call over the repeats. Every repeat runs the
    // same inputs, so a slower repeat lost time to the host (caches and
    // memory bandwidth shared with neighbours) or to the heap the repeats
    // before it left behind; the fastest, job by job, is the program's
    // own cost.
    let mut fastest: Vec<f64> = Vec::new();
    let mut peak = 0.0;
    let mut summary = None;
    // A repeat starts only if it should end within `--seconds`, judged by
    // the one before it.
    let mut repeat_s = 0.0;
    while keeper.attempted < MIN_REPEATS || start.elapsed().as_secs_f64() + repeat_s <= args.seconds
    {
        let t0 = Instant::now();
        let c0 = cpu_seconds();
        let jobs = args.workload.generate(args.seed);
        let generate_s = cpu_seconds() - c0;
        let (mut runs, build_s) = build_and_run(&jobs, false);
        setup.push(generate_s + build_s);
        if keeper.attempted == 0 {
            // The first run's peak: later repeats only add allocator
            // fragmentation, which would tie the figure to run length.
            peak = peak_rss_mb();
            fastest = vec![f64::INFINITY; runs.len()];
        }
        for (best, run) in fastest.iter_mut().zip(&runs) {
            *best = best.min(run.cpu_s);
        }
        eprintln!(
            "perfbench: repeat {} run calls {:.3} CPU s",
            keeper.attempted,
            run_cpu_s(&runs)
        );
        summary = Some(keeper.check(&mut runs, limit_s, true));
        drop(runs);
        // Set-up is short next to a run: repeat it alone between runs, so
        // its median, like the runs', spans the whole measurement.
        for _ in 0..SETUP_EXTRA {
            let (generate_s, build_s) = set_up(args);
            setup.push(generate_s + build_s);
        }
        repeat_s = t0.elapsed().as_secs_f64();
    }
    let s = summary.expect("at least one run");
    let run_s: f64 = fastest.iter().sum();
    eprintln!(
        "perfbench: {} runs; fastest run calls {:.3} CPU s; sent {} completed {} rejected {} \
         unfinished {}; p50 {:.3} s p99 {:.3} s pause {:.1} s; {} known-defect and {} stream \
         violations",
        keeper.attempted,
        run_s,
        s.sent,
        s.completed,
        s.rejected,
        s.unfinished,
        s.latency_p50_s,
        s.latency_p99_s,
        s.pause_s,
        keeper.known_violations,
        keeper.stream_violations,
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup), "s");
    m.put("sim_req_per_s", s.sent as f64 / run_s, "req/s");
    m.put("peak_rss_mb", peak, "MB");
    m.put("slo_attainment", s.slo_attainment, "share");
    m.put("completed_share", s.completed_share, "share");
    m.put("usd_per_mtok", s.usd_per_mtok, "USD");
    keeper.outcome(m)
}

fn traced(args: &Args) -> Outcome {
    let limit_s = args.workload.latency_limit_s();
    let start = Instant::now();
    let mut keeper = Gatekeeper::default();
    let (mut generate, mut build, mut untraced_s, mut traced_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Alternate untraced and traced runs for the tracing overhead; the
    // layer replays then run on the last traced run.
    let mut last = None;
    while untraced_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let c0 = cpu_seconds();
        let jobs = args.workload.generate(args.seed);
        generate.push(cpu_seconds() - c0);
        let (mut runs, build_s) = build_and_run(&jobs, false);
        keeper.check(&mut runs, limit_s, false);
        build.push(build_s);
        untraced_s.push(run_cpu_s(&runs));
        drop(runs);
        let (mut runs, _) = build_and_run(&jobs, true);
        let summary = keeper.check(&mut runs, limit_s, false);
        traced_s.push(run_cpu_s(&runs));
        last = Some((jobs, runs, summary));
    }
    let (jobs, runs, s) = last.expect("at least one traced run");
    let mut m = Metrics::default();
    m.put("sim.latency_p50_s", s.latency_p50_s, "s");
    m.put("sim.latency_p99_s", s.latency_p99_s, "s");
    m.put("sim.pause_s", s.pause_s, "s");
    m.put(
        "sim.failed_share",
        (s.rejected + s.unfinished) as f64 / s.sent.max(1) as f64,
        "share",
    );
    m.put(
        "audit.known_violations",
        keeper.known_violations as f64,
        "count",
    );
    m.put(
        "audit.stream_violations",
        keeper.stream_violations as f64,
        "count",
    );
    layers::counts(&runs, &mut m);
    m.put("workload.generate_s", median(&generate), "s");
    m.put("system.build_s", median(&build), "s");
    layers::telemetry(&runs, &mut m);
    m.put(
        "trace.overhead",
        median(&traced_s) / median(&untraced_s),
        "ratio",
    );
    layers::replays(&jobs, &runs, &mut m);
    if let Err(e) = layers::separation(args.workload, &m) {
        keeper.problems.push(e);
        keeper.failed += 1;
    }
    keeper.outcome(m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <churn_chaos|paper_grid> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    for p in &out.problems {
        eprintln!("perfbench: FAIL {p}");
    }
    let correct = out.problems.is_empty();
    let metrics = if correct {
        out.metrics
    } else {
        Metrics::default()
    };
    println!("{}", metrics.to_json(correct, out.attempted, out.failed));
    if !correct {
        std::process::exit(1);
    }
}
