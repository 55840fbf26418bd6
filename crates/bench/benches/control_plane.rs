//! The hot-path benches.
//!
//! **`control_plane`** — Algorithm 1 at fleet ceilings of 16/64/256
//! instances, three ways per ceiling (GPT-20B on T4):
//!
//! * `decide_frontier/<N>` — the frontier-backed path with the memos
//!   defeated (an `α` never asked before, every call: the decision memo
//!   and the frontier's scan memo both miss), priced by the paper's
//!   fixed-batch estimator;
//! * `decide_frontier_cont/<N>` — the same under the continuous-batching
//!   estimator, the one the serving system runs with, and so the cost of
//!   one real single-SKU re-decision at event-churn time;
//! * `decide_warm/<N>` — the steady-state path (same `(N, α)` repeated),
//!   i.e. a memo hit. CI's perf-smoke step holds it against the paper's
//!   1 s re-decision budget.
//!
//! Plus the joint decision and the frontier build:
//!
//! * `decide_multi_3sku` — `decide_multi` over g4dn/L4/A100 lanes under
//!   the continuous estimator with a never-repeated `α` every call: one
//!   real mixed-fleet re-decision. CI's perf-smoke step holds it to 10 ms;
//! * `frontier_build/<model>` — enumerating and pricing one paper model's
//!   frontier at the 16-instance default ceiling, plus the first
//!   continuous-estimator scan, which prunes and floor-sorts that mode's
//!   candidates on first use: the uncached cold build;
//! * `frontier_shared/<model>` — the same frontier fetched from the warm
//!   process-wide table (`CandidateFrontier::shared`), plus the same
//!   first scan: what every serving system after the first on equal
//!   inputs pays at its first decision. CI's perf-smoke step holds
//!   OPT-6.7B's to 100 µs, well under the cold build, so losing the
//!   sharing fails CI.
//!
//! **`scheduler_hot_loop`** — the continuous engine's per-boundary work:
//!
//! * `slo_verdict_full_batch` — the SLO admission verdict against a full
//!   batch, for a candidate whose worst pass no earlier call asked, so the
//!   scheduler's cached projection price never answers and every call
//!   prices one;
//! * `slo_verdict_repeat` — the same verdict asked again for one
//!   candidate against unchanged residents: the cached path;
//! * `edf_admit_vecdeque_resort` / `edf_admit_dirty_skip` — the EDF
//!   re-sort at a boundary (a bare `VecDeque` vs `PendingQueue`'s dirty
//!   flag). Both re-scan an unchanged 64-deep deferring queue of one
//!   shape, so every verdict after the first reads the cached projection
//!   price and the prompt length's cached solo floor: they time the scan
//!   and the sort, not the pricing;
//! * `best_effort_drive_to_idle` — a best-effort admit/advance drive over
//!   reused segment buffers.

use std::collections::VecDeque;

use cloudsim::{GpuSpec, InstanceType};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use enginesim::{IterationScheduler, PendingQueue};
use llmsim::{MemoryModel, ModelSpec};
use parallelism::{CandidateFrontier, ConfigSpace, ParallelConfig, PerfModel};
use simkit::{SimDuration, SimTime};
use spotserve::{ConfigOptimizer, EngineMode};
use workload::{Request, RequestId};

/// The `i`-th rate of a memo-defeating row: `lo` plus a Weyl sequence
/// spread evenly over `[0, 0.1024)`. Multiplying by an odd constant
/// permutes the `u64`s and the top 53 bits keep every product of the
/// first 2^53 calls apart, so no rate ever repeats: neither the decision
/// memo nor the frontiers' scan memos can answer a call.
fn fresh_alpha(lo: f64, i: u64) -> f64 {
    let unit = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
    lo + 0.1024 * unit
}

fn bench_control_plane(c: &mut Criterion) {
    let mut g = c.benchmark_group("control_plane");
    for ceiling in [16u32, 64, 256] {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), ceiling);
        let n = ceiling - 2;
        // Build the frontier once outside the timed region: the steady
        // state under event churn is a warm frontier. (The property tests
        // hold these decisions to the fresh-enumeration reference.)
        let _ = opt.decide(n, 0.35);

        // Before the memo-defeating rows, so the warm entry is the memo's
        // only one and the hit costs the same whatever they left behind.
        g.bench_function(BenchmarkId::new("decide_warm", ceiling), |b| {
            b.iter(|| opt.decide(black_box(n), black_box(0.35)))
        });
        g.bench_function(BenchmarkId::new("decide_frontier", ceiling), |b| {
            // A fresh α each call defeats the memos (and keeps evicting
            // the decision memo), so this measures a genuine frontier-scan
            // re-decision.
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                opt.decide(black_box(n), fresh_alpha(0.1, i))
            })
        });

        let cont = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), ceiling)
            .with_engine_mode(EngineMode::ContinuousBatching);
        let _ = cont.decide(n, 0.35);
        g.bench_function(BenchmarkId::new("decide_frontier_cont", ceiling), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                cont.decide(black_box(n), fresh_alpha(0.1, i))
            })
        });
    }

    // A mixed shard's optimizer: three SKU lanes, fleet spread over them.
    let multi = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16)
        .with_engine_mode(EngineMode::ContinuousBatching)
        .with_sku(InstanceType::g4dn_12xlarge())
        .with_sku(InstanceType::l4())
        .with_sku(InstanceType::a100());
    let avail = [6u32, 4, 2];
    assert!(multi.decide_multi(&avail, 0.35).target.is_some());
    g.bench_function("decide_multi_3sku", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            multi.decide_multi(black_box(&avail), fresh_alpha(0.2, i))
        })
    });

    for model in ModelSpec::paper_models() {
        let perf = PerfModel::paper_defaults(model.clone());
        let (mem, space) = (MemoryModel::default(), ConfigSpace::default());
        let first_scan = |f: &CandidateFrontier| {
            f.pruned_by_floor(EngineMode::ContinuousBatching)
                .next()
                .map(|c| c.config)
        };
        g.bench_function(BenchmarkId::new("frontier_build", model.name), |b| {
            b.iter(|| {
                let f = CandidateFrontier::new(&perf, &mem, &GpuSpec::t4(), &space, 4, 16);
                black_box(first_scan(&f));
                f
            })
        });
        // Warm the table first: the row times the fetch every system
        // after the first pays.
        let _ = CandidateFrontier::shared(&perf, &mem, &GpuSpec::t4(), &space, 4, 16);
        g.bench_function(BenchmarkId::new("frontier_shared", model.name), |b| {
            b.iter(|| {
                let f = CandidateFrontier::shared(&perf, &mem, &GpuSpec::t4(), &space, 4, 16);
                black_box(first_scan(&f));
                f
            })
        });
    }
    g.finish();
}

fn req(id: u64, s_in: u32, s_out: u32) -> Request {
    Request::new(RequestId(id), SimTime::ZERO, s_in, s_out)
}

fn bench_scheduler_hot_loop(c: &mut Criterion) {
    let model = ModelSpec::opt_6_7b();
    let perf = PerfModel::paper_defaults(model.clone());
    let kvbpt = model.kv_bytes_per_token();
    let mut g = c.benchmark_group("scheduler_hot_loop");

    // The admission verdict against a full batch of deadline carriers,
    // priced from the incrementally maintained resident entries. Each
    // call's candidate asks for one more output token than the last (the
    // shim stops at 100,000 calls), so its worst pass never repeats and
    // the cached projection price cannot answer; the repeat row asks one
    // candidate again and again, which the cache answers after one call.
    let cfg = ParallelConfig::new(1, 1, 4, 8);
    let mut sched = IterationScheduler::new(cfg, kvbpt, u64::MAX);
    let mut seed: VecDeque<Request> = (0..8)
        .map(|i| req(i, 512, 128).with_slo(SimDuration::from_secs(5000)))
        .collect();
    sched.admit(&mut seed, SimTime::ZERO, &perf);
    assert_eq!(sched.in_flight(), 8);
    g.bench_function("slo_verdict_full_batch", |b| {
        let mut s_out = 128;
        b.iter(|| {
            s_out += 1;
            let candidate = req(99, 512, s_out).with_slo(SimDuration::from_secs(1 << 30));
            sched.slo_verdict(black_box(&candidate), SimTime::ZERO, &perf)
        })
    });
    let candidate = req(99, 512, 128).with_slo(SimDuration::from_secs(5000));
    g.bench_function("slo_verdict_repeat", |b| {
        b.iter(|| sched.slo_verdict(black_box(&candidate), SimTime::ZERO, &perf))
    });

    // The EDF re-sort at a boundary whose queue did not change: a bare
    // VecDeque re-sorts a 64-deep deadline queue on every admit; the
    // PendingQueue's dirty flag skips it. The queue is built so every
    // request *defers* on an idle engine — its deadline sits between the
    // solo best-case floor and the worst-case projection — so admission
    // never seats anyone and the boundary scan can repeat indefinitely.
    use llmsim::SeqWork;
    let (s_in, s_out) = (512u32, 64u32);
    let worst = perf.mixed_iteration_time(
        &cfg,
        &[SeqWork {
            new_tokens: s_in,
            ctx: s_in + s_out,
        }],
    ) * s_out as u64;
    let floor = perf.mixed_iteration_time(&cfg, &[SeqWork::prefill(s_in)])
        + perf.mixed_iteration_time(&cfg, &[SeqWork::decode(s_in + 1)]) * (s_out - 1) as u64;
    assert!(floor < worst);
    let mid = floor + (worst - floor) / 2;
    let deferring: Vec<Request> = (0..64)
        .map(|i| req(i, s_in, s_out).with_slo(mid + SimDuration::from_micros(i)))
        .collect();
    g.bench_function("edf_admit_vecdeque_resort", |b| {
        let mut s = IterationScheduler::new(cfg, kvbpt, u64::MAX);
        let mut q: VecDeque<Request> = deferring.iter().copied().collect();
        assert_eq!(s.admit(&mut q, SimTime::ZERO, &perf), 0, "all defer");
        assert_eq!(q.len(), 64);
        assert!(s.take_rejected().is_empty());
        b.iter(|| black_box(s.admit(&mut q, SimTime::ZERO, &perf)))
    });
    g.bench_function("edf_admit_dirty_skip", |b| {
        let mut s = IterationScheduler::new(cfg, kvbpt, u64::MAX);
        let mut q = PendingQueue::new();
        for r in &deferring {
            q.push_back(*r);
        }
        assert_eq!(s.admit(&mut q, SimTime::ZERO, &perf), 0, "all defer");
        assert_eq!(q.len(), 64);
        assert!(s.take_rejected().is_empty());
        b.iter(|| black_box(s.admit(&mut q, SimTime::ZERO, &perf)))
    });

    // Best-effort churn: drive a varied 32-request queue through a B=8
    // engine to idle — segment pricing over the reused SeqWork buffers,
    // retire/admit at every boundary.
    let drive_template: Vec<Request> = (0..32)
        .map(|i| req(i, 256 + (i as u32 % 7) * 64, 8 + (i as u32 % 11) * 6))
        .collect();
    g.bench_function("best_effort_drive_to_idle", |b| {
        b.iter(|| {
            let mut s = IterationScheduler::new(cfg, kvbpt, u64::MAX);
            let mut q: VecDeque<Request> = drive_template.iter().copied().collect();
            s.admit(&mut q, SimTime::ZERO, &perf);
            let mut done = 0usize;
            while let Some(end) = s.next_event() {
                done += s.advance(end, &mut q, &perf).len();
            }
            assert_eq!(done, 32);
            done
        })
    });
    g.finish();
}

criterion_group!(benches, bench_control_plane, bench_scheduler_hot_loop);
criterion_main!(benches);
