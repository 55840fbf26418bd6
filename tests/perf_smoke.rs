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

use llmsim::ModelSpec;
use spotserve::ConfigOptimizer;

#[test]
fn warm_decide_at_256_instance_ceiling_stays_far_under_the_1s_budget() {
    let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 256);
    // Cold call: enumerates, prices and prunes the frontier once. The
    // paper's budget is 1 s per re-decision; grant 5 s so a debug build on
    // a loaded CI machine cannot flake.
    let cold = Instant::now();
    let first = opt.decide(254, 0.35);
    let cold_elapsed = cold.elapsed();
    assert!(first.now.is_some(), "a 254-instance fleet serves GPT-20B");
    assert!(
        cold_elapsed.as_secs_f64() < 5.0,
        "cold decide at the 256 ceiling took {cold_elapsed:?}"
    );
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
