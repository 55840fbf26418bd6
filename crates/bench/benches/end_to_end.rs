//! Whole-run simulation throughput: 20-minute serving traces end to end
//! (the `_o` row mixes on-demand instances in, and joins hundreds of them
//! per run), the continuous-vs-fixed engine comparison at equal
//! configuration, and the chunked-prefill long-prompt/tight-SLO case.

use cloudsim::AvailabilityTrace;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llmsim::ModelSpec;
use simkit::{SimDuration, SimRng, SimTime};
use spotserve::{EngineMode, Scenario, ServingSystem, SystemOptions};
use workload::{LengthDist, WorkloadSpec};

fn bench_e2e(c: &mut Criterion) {
    let mut g = c.benchmark_group("serving_run");
    g.sample_size(10);
    g.bench_function("spotserve_opt67b_as", |b| {
        b.iter(|| {
            let sc = Scenario::paper_stable(
                ModelSpec::opt_6_7b(),
                AvailabilityTrace::paper_as(),
                1.5,
                1,
            );
            ServingSystem::new(SystemOptions::spotserve(), sc).run()
        })
    });
    g.bench_function("spotserve_gpt20b_bs", |b| {
        b.iter(|| {
            let sc = Scenario::paper_stable(
                ModelSpec::gpt_20b(),
                AvailabilityTrace::paper_bs(),
                0.35,
                1,
            );
            ServingSystem::new(SystemOptions::spotserve(), sc).run()
        })
    });
    g.bench_function("spotserve_gpt20b_bs_o", |b| {
        b.iter(|| {
            let sc = Scenario::paper_stable(
                ModelSpec::gpt_20b(),
                AvailabilityTrace::paper_bs(),
                0.35,
                1,
            );
            ServingSystem::new(SystemOptions::spotserve().with_on_demand_mixing(), sc).run()
        })
    });
    g.finish();
}

/// Continuous batching vs run-to-completion at the same configuration on
/// the paper's stable workload (§6.1, Gamma CV 6). Besides the ns/iter
/// numbers, the measured serving throughput of each engine is printed so
/// regressions in the continuous engine's admission/retirement logic are
/// visible in CI logs: continuous must serve at least as fast as fixed.
fn bench_engine_comparison(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_comparison");
    g.sample_size(10);
    for engine in [EngineMode::ContinuousBatching, EngineMode::FixedBatch] {
        g.bench_function(
            BenchmarkId::new("spotserve_opt67b_stable", format!("{engine:?}")),
            |b| {
                b.iter(|| {
                    let sc = Scenario::paper_stable(
                        ModelSpec::opt_6_7b(),
                        AvailabilityTrace::constant(6),
                        1.5,
                        1,
                    );
                    ServingSystem::new(SystemOptions::spotserve().with_engine(engine), sc).run()
                })
            },
        );
    }
    g.finish();
    // One verification run per engine: report the serving-side throughput.
    for engine in [EngineMode::ContinuousBatching, EngineMode::FixedBatch] {
        let sc = Scenario::paper_stable(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(6),
            1.5,
            1,
        );
        let report = ServingSystem::new(SystemOptions::spotserve().with_engine(engine), sc).run();
        let p = report.latency.percentiles();
        let thr = p.count as f64 / report.finished_at.as_micros() as f64 * 1e6;
        println!(
            "engine_comparison/served  {engine:?}: {:.4} req/s, mean latency {:.2}s, p99 {:.2}s",
            thr, p.mean, p.p99
        );
    }
}

/// The long-prompt/short-prompt + tight-SLO mix that chunked prefill
/// targets: 20% of prompts are 3072 tokens, every request carries a
/// deadline. Besides the ns/iter numbers, a verification pass reports the
/// p99 decode inter-token latency of each engine variant (measured over
/// every request's token-commit gaps in a driven scheduler) — chunked must
/// beat PR 2's unchunked continuous engine, since a monolithic 3072-token
/// prefill stalls every decoding neighbour for the whole pass.
fn bench_chunked_slo(c: &mut Criterion) {
    let requests = || {
        let spec = WorkloadSpec::paper_stable(1.0);
        let inputs = LengthDist::LongTail {
            common: 256,
            tail: 3072,
            tail_fraction: 0.2,
        };
        let outputs = LengthDist::Uniform { lo: 16, hi: 128 };
        let mut reqs =
            spec.generate_with_lengths(&inputs, &outputs, &mut SimRng::new(5).stream("arrivals"));
        reqs.retain(|r| r.arrival < SimTime::from_secs(300));
        workload::apply_slo(&mut reqs, SimDuration::from_secs(240));
        reqs
    };
    let mut g = c.benchmark_group("chunked_slo");
    g.sample_size(10);
    for chunk in [Some(128u32), None] {
        let label = match chunk {
            Some(n) => format!("chunk{n}"),
            None => "monolithic".into(),
        };
        g.bench_function(BenchmarkId::new("long_prompt_tight_slo", label), |b| {
            b.iter(|| {
                let sc = Scenario::with_requests(
                    ModelSpec::opt_6_7b(),
                    AvailabilityTrace::constant(4),
                    requests(),
                    1.0,
                    5,
                );
                let mut opts = SystemOptions::spotserve();
                if let Some(n) = chunk {
                    opts = opts.with_prefill_chunk(n);
                }
                ServingSystem::new(opts, sc).run()
            })
        });
    }
    g.finish();
    // Verification pass: p99 decode inter-token latency per engine, from a
    // directly driven scheduler over the same mix.
    let mut p99s = Vec::new();
    for chunk in [Some(128u32), None] {
        let p99 = p99_inter_token_gap(chunk, &requests());
        let label = match chunk {
            Some(n) => format!("chunk={n}"),
            None => "monolithic".into(),
        };
        println!("chunked_slo/inter_token  {label}: p99 decode inter-token {p99:.4}s");
        p99s.push(p99);
    }
    println!(
        "chunked_slo/inter_token  improvement: {:.1}x (chunked vs monolithic)",
        p99s[1] / p99s[0].max(1e-12)
    );
}

/// p99 over every request's decode inter-token gaps (prefill pass
/// excluded) when the request mix is pushed through one iteration
/// scheduler as fast as it admits.
fn p99_inter_token_gap(chunk: Option<u32>, requests: &[workload::Request]) -> f64 {
    use std::collections::{BTreeMap, VecDeque};

    let model = ModelSpec::opt_6_7b();
    let perf = parallelism::PerfModel::paper_defaults(model.clone());
    let cfg = parallelism::ParallelConfig::new(1, 1, 4, 8);
    let mut sched = enginesim::IterationScheduler::new(cfg, model.kv_bytes_per_token(), u64::MAX)
        .with_prefill_chunk(chunk);
    let mut pending: VecDeque<workload::Request> = requests.iter().copied().collect();
    // Strip deadlines: this measures raw engine behaviour; admission
    // control is benchmarked in the whole-system runs above.
    for r in &mut pending {
        r.deadline = None;
    }
    let mut last_commit: BTreeMap<u64, (SimTime, u32)> = BTreeMap::new();
    let mut gaps: Vec<f64> = Vec::new();
    sched.admit(&mut pending, SimTime::ZERO, &perf);
    let mut t = SimTime::ZERO;
    while sched.next_event().is_some() {
        while let Some(b) = sched.next_boundary_after(t) {
            for (id, committed) in sched.committed_per_request_at(b) {
                let entry = last_commit.entry(id.0).or_insert((b, 0));
                if committed > entry.1 {
                    if entry.1 > 0 {
                        // `committed - entry.1` tokens landed over this
                        // boundary gap; attribute the gap to each.
                        let per = b.saturating_since(entry.0).as_secs_f64()
                            / (committed - entry.1) as f64;
                        for _ in 0..(committed - entry.1) {
                            gaps.push(per);
                        }
                    }
                    *entry = (b, committed);
                }
            }
            t = b;
            if b >= sched.next_event().expect("running") {
                break;
            }
        }
        let end = sched.next_event().expect("running");
        sched.advance(end, &mut pending, &perf);
    }
    gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if gaps.is_empty() {
        return 0.0;
    }
    gaps[((gaps.len() as f64 - 1.0) * 0.99) as usize]
}

criterion_group!(
    benches,
    bench_e2e,
    bench_engine_comparison,
    bench_chunked_slo
);
criterion_main!(benches);
