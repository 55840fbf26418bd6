//! Perf smoke: the paper's "adapt within 1 second" claim (§3.2), held as
//! a loose regression gate.
//!
//! Thresholds are deliberately enormous relative to the measured steady
//! state (a warm `decide` at the 256-instance ceiling measures ~50 ns in
//! release mode, see the `control_plane` bench) so only gross regressions
//! — e.g. losing the frontier/memo and falling back to per-call
//! re-enumeration at scale — can trip them, never CI jitter or debug-mode
//! overhead. CI additionally asserts the release-mode numbers out of
//! `BENCH_PR10.json` in the bench-smoke job: the warm and memo-missing
//! decides, and the mixed-SKU device mapping.

use std::time::Instant;

use cloudsim::GpuSpec;
use llmsim::{MemoryModel, ModelSpec};
use parallelism::{CandidateFrontier, ConfigSpace, EngineMode, PerfModel};
use spotserve::ConfigOptimizer;

#[test]
fn warm_decide_at_256_instance_ceiling_stays_far_under_the_1s_budget() {
    // Cold half: enumerate, price and prune the frontier, then scan it
    // once, as a first decision does. Timed on an uncached build, since
    // the optimizer's own first decision may find the process-wide
    // frontier already built by another test. The paper's budget is 1 s
    // per re-decision; grant 5 s so a debug build on a loaded CI machine
    // cannot flake.
    let perf = PerfModel::paper_defaults(ModelSpec::gpt_20b());
    let (mem, space) = (MemoryModel::default(), ConfigSpace::default());
    let cold = Instant::now();
    let frontier = CandidateFrontier::new(&perf, &mem, &GpuSpec::t4(), &space, 4, 256);
    let best = frontier.min_latency(EngineMode::FixedBatch, 254, 0.35);
    let cold_elapsed = cold.elapsed();
    assert!(best.is_some(), "a 254-instance fleet sustains 0.35 req/s");
    assert!(
        cold_elapsed.as_secs_f64() < 5.0,
        "cold frontier build and scan at the 256 ceiling took {cold_elapsed:?}"
    );
    let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 256);
    let first = opt.decide(254, 0.35);
    assert!(first.now.is_some(), "a 254-instance fleet serves GPT-20B");
    // Warm calls: memo hits. Mean must stay orders of magnitude under the
    // budget even in debug mode.
    let reps = 100u32;
    let warm = Instant::now();
    for _ in 0..reps {
        assert_eq!(std::hint::black_box(opt.decide(254, 0.35)), first);
    }
    let per_call = warm.elapsed() / reps;
    assert!(
        per_call.as_millis() < 100,
        "warm decide at the 256 ceiling took {per_call:?} per call"
    );
}
