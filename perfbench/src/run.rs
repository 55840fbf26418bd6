//! Running a workload's jobs, the correctness gate, and the simulated
//! end-to-end summary.

use spotserve::{InvariantAuditor, RunReport};
use telemetry::{Fnv1a, Record, TelemetryStream};

use crate::stats::{cpu_seconds, quantile};
use crate::workloads::{Built, Job};

/// What one job's run produced, per shard in shard order.
pub struct JobRun {
    pub label: &'static str,
    /// One report per shard. A sharded run's merged telemetry stream is
    /// split back into per-shard streams here, so the auditor's
    /// stream-based invariants run on every shard.
    pub reports: Vec<RunReport>,
    /// Requests each shard was sent.
    pub expected: Vec<usize>,
    /// Barrier epochs of a sharded run (0 for a single system).
    pub epochs: usize,
    /// Events each shard processed (empty for a single system).
    pub shard_events: Vec<u64>,
    /// Digest of the run's telemetry JSONL, when the recorder was on.
    pub stream_digest: Option<u64>,
    /// CPU seconds of the run call alone (see [`cpu_seconds`]).
    pub cpu_s: f64,
}

/// Runs one built job; returns its outputs with the CPU seconds spent
/// inside the run call alone.
pub fn run_job(job: &Job, built: Built) -> JobRun {
    let expected = job.expected_per_shard();
    match built {
        Built::Single(sys) => {
            let c0 = cpu_seconds();
            let report = (*sys).run();
            let cpu_s = cpu_seconds() - c0;
            JobRun {
                label: job.label,
                stream_digest: report.telemetry.as_ref().map(TelemetryStream::digest),
                reports: vec![report],
                expected,
                epochs: 0,
                shard_events: Vec::new(),
                cpu_s,
            }
        }
        Built::Sharded(sys) => {
            let c0 = cpu_seconds();
            let mut rep = sys.run();
            let cpu_s = cpu_seconds() - c0;
            let stream_digest = rep.stream_digest();
            if let Some(stream) = rep.telemetry.take() {
                let mut per_shard: Vec<Vec<Record>> = vec![Vec::new(); rep.shards.len()];
                for r in stream.records() {
                    per_shard[r.shard as usize].push(Record {
                        time: r.time,
                        seq: r.seq,
                        event: r.event,
                    });
                }
                for (report, records) in rep.shards.iter_mut().zip(per_shard) {
                    report.telemetry = Some(TelemetryStream::from_sources(vec![records]));
                }
            }
            JobRun {
                label: job.label,
                epochs: rep.epochs.len(),
                shard_events: rep
                    .epochs
                    .last()
                    .map(|e| e.events.clone())
                    .unwrap_or_default(),
                reports: rep.shards,
                expected,
                stream_digest,
                cpu_s,
            }
        }
    }
}

/// Builds and runs every job; returns the runs and the build CPU seconds.
pub fn build_and_run(jobs: &[Job], telemetry: bool) -> (Vec<JobRun>, f64) {
    let c0 = cpu_seconds();
    let built: Vec<Built> = jobs.iter().map(|j| j.build(telemetry)).collect();
    let build_s = cpu_seconds() - c0;
    let runs = jobs.iter().zip(built).map(|(j, b)| run_job(j, b)).collect();
    (runs, build_s)
}

/// Auditor invariants the program is known to break today, counted
/// instead of gated: a few requests per run record a finish instant before
/// their arrival on preempted fleets.
const KNOWN_DEFECTS: [&str; 1] = ["outcome-causality"];

/// What the correctness gate found in one workload run.
#[derive(Default)]
pub struct Verdict {
    /// Failures: any of these fails the run.
    pub problems: Vec<String>,
    /// Violations of the [`KNOWN_DEFECTS`] invariants.
    pub known_violations: usize,
    /// Violations of the invariants the auditor replays from telemetry
    /// (lease lifecycle, monotone progress, cost-rollup monotonicity):
    /// churned fleets break them today, so they are counted, not gated.
    pub stream_violations: usize,
}

/// The correctness gate: every shard's report passes the invariant
/// auditor pinned to the requests it was sent (request conservation,
/// billing sums), and completed + rejected + unfinished = sent.
pub fn gate(runs: &mut [JobRun]) -> Verdict {
    let mut v = Verdict::default();
    for (j, run) in runs.iter_mut().enumerate() {
        let label = run.label;
        for (s, (report, &sent)) in run.reports.iter_mut().zip(&run.expected).enumerate() {
            let auditor = InvariantAuditor::new().with_expected_requests(sent);
            let stream = report.telemetry.take();
            let audit = auditor.audit(report);
            report.telemetry = stream;
            if report.telemetry.is_some() {
                v.stream_violations +=
                    auditor.audit(report).violations.len() - audit.violations.len();
            }
            for violation in audit.violations {
                if KNOWN_DEFECTS.contains(&violation.invariant) {
                    v.known_violations += 1;
                } else {
                    v.problems
                        .push(format!("job {j} ({label}) shard {s}: {violation}"));
                }
            }
            let settled = report.settled() + report.unfinished;
            if settled != sent {
                v.problems.push(format!(
                    "job {j} ({label}) shard {s}: {settled} settled + unfinished != {sent} sent"
                ));
            }
        }
    }
    v
}

/// FNV-1a over every shard's canonical report, in job and shard order.
pub fn canonical_digest(runs: &[JobRun]) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv1a::new();
    for (j, run) in runs.iter().enumerate() {
        for (s, report) in run.reports.iter().enumerate() {
            writeln!(h, "job {j} {} shard {s}", run.label).expect("write");
            report.canonical_into(&mut h);
        }
    }
    h.finish()
}

/// The jobs' telemetry digests folded together, when every job recorded.
pub fn stream_digest(runs: &[JobRun]) -> Option<u64> {
    runs.iter().try_fold(0xcbf2_9ce4_8422_2325u64, |acc, r| {
        r.stream_digest
            .map(|d| (acc ^ d).wrapping_mul(0x0000_0100_0000_01b3))
    })
}

/// The simulated end-to-end metrics, deterministic per seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    pub sent: usize,
    pub completed: usize,
    pub rejected: usize,
    pub unfinished: usize,
    pub latency_p50_s: f64,
    pub latency_p99_s: f64,
    pub slo_attainment: f64,
    pub usd_per_mtok: f64,
    pub completed_share: f64,
    pub pause_s: f64,
}

/// Summarizes the runs. `limit_s` is the latency limit a request without
/// a deadline must meet to count toward `slo_attainment`.
pub fn summarize(runs: &[JobRun], limit_s: f64) -> SimSummary {
    let (mut sent, mut completed, mut rejected, mut unfinished) = (0, 0, 0, 0);
    let (mut met, mut cost, mut tokens, mut pause_s) = (0usize, 0.0, 0u64, 0.0);
    let mut latencies = Vec::new();
    for run in runs {
        sent += run.expected.iter().sum::<usize>();
        for report in &run.reports {
            completed += report.latency.completed();
            rejected += report.slo_rejections.len();
            unfinished += report.unfinished;
            cost += report.cost_usd;
            tokens += report.latency.tokens_generated();
            pause_s += report
                .config_changes
                .iter()
                .map(|c| c.pause.as_secs_f64())
                .sum::<f64>();
            for o in report.latency.outcomes() {
                let latency = o.latency().as_secs_f64();
                latencies.push(latency);
                let on_time = match o.request.deadline {
                    Some(d) => o.finished <= d,
                    None => latency <= limit_s,
                };
                met += usize::from(on_time);
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    let share = |n: usize| n as f64 / sent.max(1) as f64;
    SimSummary {
        sent,
        completed,
        rejected,
        unfinished,
        latency_p50_s: quantile(&latencies, 0.50),
        latency_p99_s: quantile(&latencies, 0.99),
        slo_attainment: share(met),
        usd_per_mtok: cost / tokens.max(1) as f64 * 1e6,
        completed_share: share(completed),
        pause_s,
    }
}
