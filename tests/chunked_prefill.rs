//! Chunked-prefill scheduler invariants: the decode-stall bound, chunk-size
//! extremes, half-prefilled checkpoints through SpotServe migrations, and
//! the long-prompt/short-prompt serving axis the feature opens.

use std::collections::VecDeque;

use cloudsim::AvailabilityTrace;
use enginesim::{IterationScheduler, RequestRun};
use llmsim::{ModelSpec, SeqWork};
use parallelism::{ParallelConfig, PerfModel};
use simkit::{SimRng, SimTime};
use spotserve::{Scenario, ServingSystem, SystemOptions};
use workload::{LengthDist, Request, RequestId, WorkloadSpec};

mod common;
use common::assert_audit_clean;

fn perf() -> PerfModel {
    PerfModel::paper_defaults(ModelSpec::opt_6_7b())
}

fn cfg() -> ParallelConfig {
    ParallelConfig::new(1, 1, 4, 8)
}

fn kvbpt() -> u64 {
    ModelSpec::opt_6_7b().kv_bytes_per_token()
}

fn req(id: u64, s_in: u32, s_out: u32) -> Request {
    Request::new(RequestId(id), SimTime::ZERO, s_in, s_out)
}

fn scheduler(chunk: Option<u32>) -> IterationScheduler {
    IterationScheduler::new(cfg(), kvbpt(), u64::MAX).with_prefill_chunk(chunk)
}

/// Commit times of every output token of `victim`, measured by walking all
/// iteration boundaries of a scheduler run. The long request arrives mid
/// segment and is injected as the serving system's dispatch does it: once
/// the scheduler admits it, the running segment is truncated to the next
/// boundary.
fn victim_token_times(chunk: Option<u32>, victim: Request, long: Request) -> Vec<SimTime> {
    let p = perf();
    let mut s = scheduler(chunk);
    let mut q: VecDeque<Request> = vec![victim].into_iter().collect();
    s.admit(&mut q, SimTime::ZERO, &p);
    let mut pending: VecDeque<Request> = VecDeque::new();
    let mut injected = false;
    let mut commits: Vec<SimTime> = Vec::new();
    let mut last_seen = 0u32;
    let mut t = SimTime::ZERO;
    while s.next_event().is_some() {
        // Inject the long request once the victim has a few tokens,
        // exactly as the serving system does: queue it and, when the
        // scheduler admits it, truncate the running segment to the next
        // boundary.
        if !injected && last_seen >= 3 {
            let arrival = SimTime::from_micros(t.as_micros() + 1);
            pending.push_back(long);
            assert!(s.can_admit(&long, arrival, &p), "the long request fits");
            s.truncate_for_admission(arrival);
            injected = true;
            continue; // segment end may have moved
        }
        // Walk every boundary of this segment, recording victim commits —
        // breaking out as soon as the injection point is reached.
        while let Some(b) = s.next_boundary_after(t) {
            let committed = s
                .committed_per_request_at(b)
                .into_iter()
                .find(|(id, _)| *id == victim.id)
                .map(|(_, c)| c);
            if let Some(c) = committed {
                while last_seen < c {
                    last_seen += 1;
                    commits.push(b);
                }
            }
            t = b;
            if (!injected && last_seen >= 3) || b >= s.next_event().expect("segment running") {
                break;
            }
        }
        if !injected && last_seen >= 3 {
            continue; // inject before committing the rest of the segment
        }
        let end = s.next_event().expect("segment running");
        s.advance(end, &mut pending, &p);
    }
    commits
}

/// The tentpole bound: with chunked prefill on, a decoding request's
/// inter-token gap never exceeds one mixed pass carrying at most one chunk
/// of a neighbour's prompt — and the worst gap improves by a wide margin
/// over the monolithic-prefill engine, which stalls the decoder for the
/// whole 4096-token prompt.
#[test]
fn decode_stall_is_bounded_by_one_chunk() {
    let victim = req(0, 256, 64);
    let long = req(1, 4096, 8);
    let chunk = 128u32;

    let max_gap = |times: &[SimTime]| {
        times
            .windows(2)
            .map(|w| w[1].saturating_since(w[0]))
            .max()
            .expect("victim produced tokens")
    };

    let chunked = victim_token_times(Some(chunk), victim, long);
    let mono = victim_token_times(None, victim, long);
    assert_eq!(chunked.len(), 64, "every victim token commits (chunked)");
    assert_eq!(mono.len(), 64, "every victim token commits (monolithic)");

    // Skip the victim's own prefill pass (first token) when bounding gaps.
    let g_chunked = max_gap(&chunked[1..]);
    let g_mono = max_gap(&mono[1..]);

    // Bound: the costliest possible pass is the long prompt's final chunk
    // alongside the victim's decode at its peak context.
    let p = perf();
    let bound = p.mixed_iteration_time(
        &cfg(),
        &[
            SeqWork {
                new_tokens: chunk,
                ctx: long.s_in,
            },
            SeqWork::decode(victim.s_in + victim.s_out),
        ],
    );
    assert!(
        g_chunked <= bound,
        "chunked decode stall {g_chunked} exceeds one-chunk bound {bound}"
    );
    // Improvement: the monolithic engine stalls the victim for the whole
    // 4096-token prefill pass.
    assert!(
        g_chunked.as_secs_f64() < g_mono.as_secs_f64() * 0.5,
        "chunked worst gap {g_chunked} must be far below monolithic {g_mono}"
    );
}

/// Chunk-size extremes: `chunk >= s_in` degenerates to monolithic prefill
/// (bit-identical completion — pinned with an *odd* `s_out`, where the
/// final chunk's segment routing is what keeps the mid-context rounding
/// identical), `chunk == 1` runs one prompt token per pass.
#[test]
fn chunk_size_extremes_degenerate_as_expected() {
    let p = perf();
    let reqs: Vec<Request> = (0..4).map(|i| req(i, 384, 49)).collect();
    let finish = |chunk: Option<u32>| {
        let mut s = scheduler(chunk);
        let mut q: VecDeque<Request> = reqs.clone().into_iter().collect();
        s.admit(&mut q, SimTime::ZERO, &p);
        let mut end = SimTime::ZERO;
        while let Some(e) = s.next_event() {
            end = e;
            s.advance(e, &mut q, &p);
        }
        end
    };
    // chunk >= prompt: bit-identical to the monolithic engine.
    assert_eq!(finish(Some(384)), finish(None));
    assert_eq!(finish(Some(10_000)), finish(None));

    // chunk == 1: one prompt token per pass; the final token rides the
    // first iteration of the closing segment.
    let mut s = scheduler(Some(1));
    let mut q: VecDeque<Request> = vec![req(9, 32, 4)].into_iter().collect();
    s.admit(&mut q, SimTime::ZERO, &p);
    let mut passes = 0;
    while !s.is_idle() {
        if passes == 31 {
            assert_eq!(s.running()[0].prefilled(), 31, "one prompt token per pass");
            assert!(s.running()[0].needs_prefill());
        }
        let e = s.next_event().unwrap();
        s.advance(e, &mut q, &p);
        passes += 1;
    }
    assert_eq!(passes, 32, "31 single-token passes + the closing segment");
}

/// A half-prefilled checkpoint is token-exact: freezing after `k` chunk
/// passes and restoring under a different mesh re-runs exactly the missing
/// chunks, never the cached ones, and the request still produces all its
/// output tokens.
#[test]
fn half_prefilled_checkpoint_restores_token_exact() {
    let p = perf();
    let chunk = 256u32;
    let long = req(0, 2048, 16);
    let companion = req(1, 256, 64);
    let mut s = scheduler(Some(chunk));
    let mut q: VecDeque<Request> = vec![companion, long].into_iter().collect();
    s.admit(&mut q, SimTime::ZERO, &p);
    // Run 3 chunk passes of the long prompt.
    for _ in 0..3 {
        let e = s.next_event().unwrap();
        s.advance(e, &mut q, &p);
    }
    let freeze_at = s.next_event().unwrap();
    let records = s.freeze(freeze_at);
    let long_rec = records
        .iter()
        .find(|r| r.request().id == long.id)
        .copied()
        .expect("long request frozen");
    // Exactly the passes that ran are cached — the companion's prefill
    // shares pass 1, so the long prompt has advanced 4 chunk passes by the
    // 4th boundary; assert against whatever the scheduler reports and that
    // it is a whole number of chunks, mid-prompt.
    assert!(long_rec.prefilled() > 0 && long_rec.prefilled() < long.s_in);
    assert_eq!(long_rec.prefilled() % chunk, 0, "chunk-exact checkpoint");
    assert_eq!(long_rec.committed(), 0);

    // Restore on a different mesh; the prefill continues, not restarts.
    let new_cfg = ParallelConfig::new(1, 2, 2, 8);
    let missing = (long.s_in - long_rec.prefilled()).div_ceil(chunk);
    let (mut r, dropped) = IterationScheduler::new(new_cfg, kvbpt(), u64::MAX)
        .with_prefill_chunk(Some(chunk))
        .restore_within_budget(records, freeze_at, &p);
    assert!(dropped.is_empty());
    let mut passes = 0;
    let mut retired = Vec::new();
    // Advance until the long prompt's prefill is complete (it may retire
    // within the same closing segment that finishes the final chunk).
    while r
        .running()
        .iter()
        .find(|x| x.request().id == long.id)
        .is_some_and(RequestRun::needs_prefill)
    {
        let e = r.next_event().unwrap();
        retired.extend(r.advance(e, &mut VecDeque::new(), &p));
        passes += 1;
    }
    assert_eq!(passes, missing, "only the missing chunks re-run");
    // Drive to completion: every output token is produced exactly once.
    while let Some(e) = r.next_event() {
        retired.extend(r.advance(e, &mut VecDeque::new(), &p));
    }
    assert!(retired.contains(&long));
    assert!(retired.contains(&companion));
}

fn long_short_mix(seed: u64) -> Vec<Request> {
    let spec = WorkloadSpec::paper_stable(1.0);
    let inputs = LengthDist::LongTail {
        common: 256,
        tail: 3072,
        tail_fraction: 0.15,
    };
    let outputs = LengthDist::Uniform { lo: 16, hi: 128 };
    let mut reqs =
        spec.generate_with_lengths(&inputs, &outputs, &mut SimRng::new(seed).stream("arrivals"));
    reqs.retain(|r| r.arrival < SimTime::from_secs(420));
    reqs
}

/// Whole-system run with chunked prefill through a preempting trace: a
/// migration lands while long prompts are mid-prefill, and the system still
/// conserves every request (no loss, no double completion) and drains.
#[test]
fn chunked_prefill_survives_spotserve_migrations() {
    let trace = AvailabilityTrace::from_steps(vec![
        (SimTime::ZERO, 6),
        (SimTime::from_secs(60), 5),
        (SimTime::from_secs(180), 4),
        (SimTime::from_secs(330), 6),
    ]);
    let requests = long_short_mix(23);
    let total = requests.len();
    let scenario = Scenario::with_requests(ModelSpec::opt_6_7b(), trace, requests, 1.0, 23);
    let report =
        ServingSystem::new(SystemOptions::spotserve().with_prefill_chunk(128), scenario).run();
    assert!(report.preemptions >= 2, "trace must preempt");
    assert_eq!(report.unfinished, 0, "backlog drains");
    let mut ids: Vec<u64> = report
        .latency
        .outcomes()
        .iter()
        .map(|o| o.request.id.0)
        .collect();
    ids.sort_unstable();
    let n = ids.len();
    ids.dedup();
    assert_eq!(n, ids.len(), "no double completion");
    assert_eq!(n, total, "no token loss: every request completes");
    assert_audit_clean(&report, total);
}

/// The serving-level payoff: on the long-prompt/short-prompt mix, chunked
/// prefill improves the p99 latency of *short* requests versus the
/// unchunked continuous engine (they no longer queue behind monolithic
/// 3072-token prefills).
#[test]
fn chunked_prefill_improves_short_request_tail() {
    let mut p99_short = Vec::new();
    for chunk in [Some(128u32), None] {
        let requests = long_short_mix(31);
        let scenario = Scenario::with_requests(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(4),
            requests,
            1.0,
            31,
        );
        let mut opts = SystemOptions::spotserve();
        if let Some(c) = chunk {
            opts = opts.with_prefill_chunk(c);
        }
        let report = ServingSystem::new(opts, scenario).run();
        assert_eq!(report.unfinished, 0);
        let mut lat: Vec<f64> = report
            .latency
            .outcomes()
            .iter()
            .filter(|o| o.request.s_in <= 256)
            .map(|o| o.latency().as_secs_f64())
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99 = lat[((lat.len() as f64 - 1.0) * 0.99) as usize];
        p99_short.push(p99);
    }
    assert!(
        p99_short[0] < p99_short[1],
        "chunked p99 {} must beat unchunked {} on short requests",
        p99_short[0],
        p99_short[1]
    );
}

/// Half-prefilled records sort behind committed ones when a shrunken
/// configuration cannot hold the whole checkpoint.
#[test]
fn shrink_keeps_deepest_progress_first() {
    let p = perf();
    let records = vec![
        RequestRun::resumed_partial(req(0, 1024, 32), 512, 0),
        RequestRun::resumed(req(1, 512, 32), 7),
        RequestRun::resumed_partial(req(2, 1024, 32), 256, 0),
    ];
    let tiny = ParallelConfig::new(1, 1, 4, 2);
    let (s, dropped) = IterationScheduler::new(tiny, kvbpt(), u64::MAX)
        .with_prefill_chunk(Some(256))
        .restore_within_budget(records, SimTime::ZERO, &p);
    assert_eq!(s.in_flight(), 2);
    // Committed tokens outrank prefill depth; deeper prefill outranks
    // shallower.
    assert!(s.running().iter().any(|r| r.request().id == RequestId(1)));
    assert!(s.running().iter().any(|r| r.request().id == RequestId(0)));
    assert_eq!(dropped, vec![req(2, 1024, 32)]);
}
