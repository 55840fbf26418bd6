//! Property tests for Algorithm 1's invariants over the whole input space,
//! and for the scheduler's SLO-aware admission guard.

mod common;

use std::cmp::Reverse;
use std::collections::VecDeque;

use cloudsim::InstanceType;
use enginesim::IterationScheduler;
use llmsim::ModelSpec;
use parallelism::{enumerate_configs, ConfigSpace, ParallelConfig, PerfModel};
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};
use spotserve::{ConfigOptimizer, EngineMode, MultiSkuDecision, OptimizerDecision};
use workload::{Request, RequestId};

use common::reference::optimizer::{
    decide_reference, decide_slo_reference, decide_with_incumbent_reference,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the fleet and load, a `now` decision always fits the fleet.
    #[test]
    fn now_config_always_fits_fleet(
        n in 0u32..20,
        alpha in 0.0f64..3.0,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
        let d = opt.decide(n, alpha);
        if let Some(c) = d.now {
            prop_assert!(c.instances_needed(4) <= n, "{c} needs more than {n}");
        }
    }

    /// If any feasible-now configuration sustains α, the chosen one does.
    #[test]
    fn sustaining_choice_when_possible(
        n in 3u32..16,
        alpha in 0.05f64..1.0,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
        let any_sustains = opt
            .feasible(n)
            .into_iter()
            .any(|c| opt.perf().throughput(&c) >= alpha);
        let d = opt.decide(n, alpha);
        if any_sustains {
            let c = d.now.expect("feasible set non-empty");
            prop_assert!(
                opt.perf().throughput(&c) >= alpha,
                "{c} does not sustain {alpha}"
            );
        }
    }

    /// The incumbent bias never selects an infeasible or overloaded config.
    #[test]
    fn incumbent_bias_is_safe(
        n in 3u32..16,
        alpha in 0.05f64..1.0,
        inc_idx in 0usize..64,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
        let feasible = opt.feasible(16);
        prop_assume!(!feasible.is_empty());
        let incumbent = feasible[inc_idx % feasible.len()];
        let with = opt.decide_with_incumbent(n, alpha, Some(incumbent));
        let without = opt.decide(n, alpha);
        if let Some(c) = with.now {
            prop_assert!(c.instances_needed(4) <= n);
            // Keeping the incumbent is only allowed when it sustains α,
            // so the choice can never be worse than 15% off the optimum
            // unless nothing sustains α at all.
            if let Some(best) = without.now {
                if opt.perf().throughput(&best) >= alpha && c == incumbent && c != best {
                    prop_assert!(opt.perf().throughput(&c) >= alpha);
                }
            }
        }
    }

    /// Positive instance deltas always accompany an unmet target.
    #[test]
    fn delta_consistent_with_target(
        n in 0u32..20,
        alpha in 0.0f64..2.0,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::llama_30b(), 16);
        let d = opt.decide(n, alpha);
        match d.target {
            Some(t) => prop_assert_eq!(
                d.instance_delta,
                t.instances_needed(4) as i64 - n as i64
            ),
            None => prop_assert_eq!(d.instance_delta, -(n as i64)),
        }
    }

    /// The PR 5 tentpole contract: frontier-backed decisions — memoized
    /// range lookups over precomputed, Pareto-pruned candidates — are
    /// **bit-identical** with the pre-frontier fresh-enumeration reference
    /// implementations, across fleet size, arrival rate, engine mode,
    /// model, SLO target, and incumbent bias. Each query runs twice so the
    /// memo-hit path is held to the same identity.
    #[test]
    fn frontier_decisions_equal_fresh_enumeration(
        n in 0u32..20,
        alpha_millis in 0u32..2000,
        model_sel in 0usize..8,
        engine_sel in 0usize..2,
        slo_secs in 1u64..300,
        inc_idx in 0usize..64,
    ) {
        let models = ModelSpec::paper_models();
        let engine = [EngineMode::FixedBatch, EngineMode::ContinuousBatching][engine_sel];
        let opt = ConfigOptimizer::paper_defaults(
            models[model_sel % models.len()].clone(),
            16,
        )
        .with_engine_mode(engine);
        let alpha = alpha_millis as f64 / 1000.0;
        let reference = decide_reference(&opt, n, alpha);
        prop_assert_eq!(opt.decide(n, alpha), reference, "decide ({engine:?})");
        prop_assert_eq!(opt.decide(n, alpha), reference, "memo hit");
        let slo = SimDuration::from_secs(slo_secs);
        let slo_ref = decide_slo_reference(&opt, n, alpha, slo);
        prop_assert_eq!(opt.decide_slo(n, alpha, slo), slo_ref, "decide_slo");
        prop_assert_eq!(opt.decide_slo(n, alpha, slo), slo_ref, "slo memo hit");
        let feasible = opt.feasible(16);
        if !feasible.is_empty() {
            let inc = feasible[inc_idx % feasible.len()];
            prop_assert_eq!(
                opt.decide_with_incumbent(n, alpha, Some(inc)),
                decide_with_incumbent_reference(&opt, n, alpha, Some(inc)),
                "incumbent {inc}"
            );
        }
    }

    /// The continuous-batching estimator never reports a lower peak
    /// throughput than the fixed-batch one, whatever the configuration: an
    /// iteration-level slot can only turn over faster than a
    /// run-to-completion batch.
    #[test]
    fn continuous_estimator_dominates_fixed_throughput(
        n in 3u32..16,
        idx in 0usize..64,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
        let feasible = opt.feasible(n);
        prop_assume!(!feasible.is_empty());
        let c = feasible[idx % feasible.len()];
        prop_assert!(
            opt.perf().throughput_continuous(&c) >= opt.perf().throughput(&c),
            "{c}"
        );
    }
}

// ---- One decision core for every lane ------------------------------------

/// The fleet ceiling the one-lane equivalence property runs at.
const ONE_LANE_CEILING: u32 = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The base SKU registered as a lane decides exactly as the single-SKU
    /// reference: `with_sku(t4)` then `decide_multi_with_incumbent(&[n],
    /// α, inc)` equals `decide_with_incumbent_reference(n, α, inc)` in
    /// `now`, `target` and delta. Drawn over the paper models, both
    /// engines, fleets from empty to past the ceiling, rates from 0
    /// through fractions of a candidate's φ to beyond every φ (where
    /// nothing sustains α, and on fleets too small for any mesh nothing
    /// fits either), and incumbents that fit, need more instances than
    /// the fleet holds, or lie outside the space. Each query runs twice
    /// so the memo-hit paths are held to the same identity.
    #[test]
    fn one_lane_decisions_equal_the_single_sku_reference(
        model_sel in 0usize..3,
        engine_sel in 0usize..2,
        n in 0u32..(ONE_LANE_CEILING + 9),
        alpha_sel in 0usize..8,
        phi_sel in 0usize..4096,
        inc_sel in 0usize..4096,
    ) {
        let model = ModelSpec::paper_models()[model_sel].clone();
        let engine = [EngineMode::FixedBatch, EngineMode::ContinuousBatching][engine_sel];
        let opt = ConfigOptimizer::paper_defaults(model, ONE_LANE_CEILING)
            .with_engine_mode(engine)
            .with_sku(InstanceType::t4());
        let space = opt.feasible(ONE_LANE_CEILING + 8);
        let alpha = match alpha_sel {
            0 => 0.0,
            1 => 1e-6,
            // A fraction of some candidate's φ, up to exactly φ (ρ = 1,
            // priced at SimDuration::MAX).
            2..=6 => {
                prop_assume!(!space.is_empty());
                let (phi, _) = lane_price(&opt, engine, 0, &space[phi_sel % space.len()], 0.0);
                [0.1, 0.5, 0.9, 0.999, 1.0][alpha_sel - 2] * phi
            }
            // Beyond every candidate: nothing sustains.
            _ => 1e4,
        };
        let inc = match inc_sel % 4 {
            0 => None,
            // Outside the space, which tries no M = 3 and no B = 5.
            1 => Some(ParallelConfig::new(1, 1, 3, 5)),
            _ if space.is_empty() => None,
            // Fits `n`, or needs more instances than it.
            _ => Some(space[inc_sel / 4 % space.len()]),
        };
        let reference = decide_with_incumbent_reference(&opt, n, alpha, inc);
        for pass in ["fresh", "memo hit"] {
            let d = opt.decide_multi_with_incumbent(&[n], alpha, inc.map(|c| (0, c)));
            prop_assert_eq!(
                OptimizerDecision::from(d),
                reference,
                "{} {:?} n={} α={} incumbent {:?}", pass, engine, n, alpha, inc
            );
            prop_assert!(d.now.iter().chain(&d.target).all(|&(lane, _)| lane == 0));
        }
    }
}

/// The equivalence checks the `control_plane` bench ran before timing its
/// rows: GPT-20B at ceilings 16/64/256 with `N = ceiling − 2` and
/// α = 0.35, under both engines, against the reference.
#[test]
fn large_ceiling_decisions_equal_the_reference() {
    for ceiling in [16u32, 64, 256] {
        for engine in [EngineMode::FixedBatch, EngineMode::ContinuousBatching] {
            let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), ceiling)
                .with_engine_mode(engine);
            let n = ceiling - 2;
            assert_eq!(
                opt.decide(n, 0.35),
                decide_reference(&opt, n, 0.35),
                "{engine:?} at ceiling {ceiling}"
            );
        }
    }
}

#[test]
fn memo_overflow_clears_and_keeps_answers_correct() {
    let o = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
    let pinned = decide_reference(&o, 8, 0.35);
    for i in 0..(2 * MEMO_CAP as u32) {
        let alpha = 0.05 + i as f64 * 0.013;
        assert_eq!(o.decide(8, alpha), decide_reference(&o, 8, alpha));
    }
    assert_eq!(o.decide(8, 0.35), pinned);
}

#[test]
fn queries_beyond_the_ceiling_grow_the_frontier() {
    let o = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
    // Warm the frontier at the ceiling, then exceed it: the frontier
    // rebuilds at the larger fleet and the decision still matches the
    // reference.
    let _ = o.decide(8, 0.35);
    let big = o.decide(24, 0.35);
    assert_eq!(big, decide_reference(&o, 24, 0.35));
}

/// A fleet growing one instance at a time past the ceiling (the frontier
/// rebuilds as it goes) decides as the reference on the base lane, and
/// identically on a registered T4 lane.
#[test]
fn a_fleet_creeping_past_the_ceiling_decides_as_the_reference() {
    let o = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16)
        .with_engine_mode(EngineMode::ContinuousBatching)
        .with_sku(InstanceType::t4());
    for n in 16..=40u32 {
        let single = o.decide(n, 0.35);
        assert_eq!(single, decide_reference(&o, n, 0.35), "n={n}");
        assert_eq!(
            OptimizerDecision::from(o.decide_multi(&[n], 0.35)),
            single,
            "n={n}"
        );
    }
}

#[test]
fn engine_mode_change_invalidates_the_memo() {
    let fixed = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
    let d_fixed = fixed.decide(12, 0.35);
    let cont = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16)
        .with_engine_mode(EngineMode::ContinuousBatching);
    let d_cont = cont.decide(12, 0.35);
    assert_ne!(d_fixed.now, d_cont.now, "estimator change changes picks");
    assert_eq!(d_cont, decide_reference(&cont, 12, 0.35));
}

#[test]
fn incumbent_membership_is_bit_equal_with_reference() {
    let o = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
    // Sweep incumbents including infeasible and out-of-space shapes.
    let mut incumbents = o.feasible(16);
    incumbents.push(ParallelConfig::new(1, 1, 3, 5)); // outside the space
    incumbents.push(ParallelConfig::new(16, 16, 8, 8)); // beyond any fleet
    for inc in incumbents {
        for n in [3u32, 7, 10, 16] {
            assert_eq!(
                o.decide_with_incumbent(n, 0.35, Some(inc)),
                decide_with_incumbent_reference(&o, n, 0.35, Some(inc)),
                "incumbent {inc} at {n}"
            );
        }
    }
}

// ---- The joint (SKU, C, B) decision against a brute-force oracle --------

/// The fleet ceiling the `decide_multi` oracle property runs at.
const MULTI_CEILING: u32 = 8;

/// `(φ, l_req(α))` of `c` on lane `i`, straight from `lane_perf(i)` under
/// `engine`.
fn lane_price(
    opt: &ConfigOptimizer,
    engine: EngineMode,
    i: usize,
    c: &ParallelConfig,
    alpha: f64,
) -> (f64, SimDuration) {
    let perf = opt.lane_perf(i);
    match engine {
        EngineMode::FixedBatch => (perf.throughput(c), perf.request_latency(c, alpha)),
        EngineMode::ContinuousBatching => (
            perf.throughput_continuous(c),
            perf.request_latency_continuous(c, alpha),
        ),
    }
}

/// Every configuration of lane `i` within `n` instances, fresh from
/// `enumerate_configs`, priced `(φ, l_req(α))` through `lane_perf(i)`
/// under `engine`.
fn lane_candidates(
    opt: &ConfigOptimizer,
    engine: EngineMode,
    i: usize,
    n: u32,
    alpha: f64,
) -> Vec<(f64, SimDuration, u32, ParallelConfig)> {
    let ty = opt.lane_type(i);
    enumerate_configs(
        opt.lane_perf(i).model(),
        opt.memory(),
        &ty.gpu,
        &ConfigSpace::default(),
        n * ty.gpus_per_instance as u32,
    )
    .into_iter()
    .map(|c| {
        let (phi, l) = lane_price(opt, engine, i, &c, alpha);
        (phi, l, c.instances_needed(ty.gpus_per_instance), c)
    })
    .collect()
}

/// Algorithm 1 over SKU lanes, by brute force: the minimum
/// `(l_req, instances, lane, config)` sustaining candidate at each lane's
/// ceiling (target) and within each lane's availability (now), else the
/// maximum `(φ, Reverse((lane, config)))` within availability. With no
/// target at all the delta is `−Σ avail` (`#Instances(∅) = 0`).
fn decide_multi_oracle(
    opt: &ConfigOptimizer,
    engine: EngineMode,
    avail: &[u32],
    alpha: f64,
) -> MultiSkuDecision {
    // (φ, the lane's availability, (l_req, instances, lane, config)) for
    // every candidate of every lane at that lane's ceiling.
    let mut all = Vec::new();
    for (i, &n) in avail.iter().enumerate() {
        for (phi, l, inst, c) in lane_candidates(opt, engine, i, MULTI_CEILING.max(n), alpha) {
            all.push((phi, n, (l, inst, i, c)));
        }
    }
    let sustaining = || all.iter().filter(|(phi, ..)| *phi >= alpha);
    let target = sustaining().map(|&(.., key)| key).min();
    let now_sustaining = sustaining()
        .filter(|&&(_, n, (_, inst, ..))| inst <= n)
        .map(|&(.., key)| key)
        .min();
    let max_phi = all
        .iter()
        .filter(|&&(_, n, (_, inst, ..))| inst <= n)
        .map(|&(phi, _, (_, _, i, c))| (phi, Reverse((i, c))))
        .max_by(|a, b| a.partial_cmp(b).expect("throughput is finite"))
        .map(|(_, Reverse(pick))| pick);
    let delta = |(i, c): (usize, ParallelConfig)| {
        c.instances_needed(opt.lane_type(i).gpus_per_instance) as i64 - avail[i] as i64
    };
    match target {
        Some((_, needed, lane, config)) => MultiSkuDecision {
            now: if needed <= avail[lane] {
                Some((lane, config))
            } else {
                now_sustaining.map(|(_, _, i, c)| (i, c)).or(max_phi)
            },
            target: Some((lane, config)),
            instance_delta: delta((lane, config)),
        },
        None => MultiSkuDecision {
            now: max_phi,
            target: max_phi,
            instance_delta: max_phi
                .map_or_else(|| -avail.iter().map(|&n| i64::from(n)).sum::<i64>(), delta),
        },
    }
}

/// The incumbent bias by brute force: the incumbent `(lane, config)`
/// replaces the pick — `now` and `target` alike — wherever it is an
/// enumerated configuration within its lane's availability, sustains α
/// there, and prices within 15 % of the pick, each side priced on its
/// own lane. A kept target's delta is relative to the incumbent lane.
fn keep_incumbent_oracle(
    opt: &ConfigOptimizer,
    engine: EngineMode,
    avail: &[u32],
    alpha: f64,
    mut d: MultiSkuDecision,
    incumbent: (usize, ParallelConfig),
) -> MultiSkuDecision {
    let (lane, inc) = incumbent;
    let fits = lane_candidates(opt, engine, lane, avail[lane], alpha)
        .iter()
        .any(|&(.., c)| c == inc);
    if !fits {
        return d;
    }
    let (phi, inc_l) = lane_price(opt, engine, lane, &inc, alpha);
    let keepable = |(best_lane, best): (usize, ParallelConfig)| {
        let (_, best_l) = lane_price(opt, engine, best_lane, &best, alpha);
        phi >= alpha
            && inc_l != SimDuration::MAX
            && inc_l.as_secs_f64() <= best_l.as_secs_f64() * 1.15
    };
    if let Some(best) = d.now {
        if best != incumbent && keepable(best) {
            d.now = Some(incumbent);
        }
    }
    if let Some(best) = d.target {
        if best != incumbent && keepable(best) {
            d.target = Some(incumbent);
            d.instance_delta = inc.instances_needed(opt.lane_type(lane).gpus_per_instance) as i64
                - avail[lane] as i64;
        }
    }
    d
}

/// [`decide_multi_oracle`] under the incumbent bias.
fn decide_multi_with_incumbent_oracle(
    opt: &ConfigOptimizer,
    engine: EngineMode,
    avail: &[u32],
    alpha: f64,
    incumbent: Option<(usize, ParallelConfig)>,
) -> MultiSkuDecision {
    let d = decide_multi_oracle(opt, engine, avail, alpha);
    match incumbent {
        Some(inc) => keep_incumbent_oracle(opt, engine, avail, alpha, d, inc),
        None => d,
    }
}

/// An incumbent for lane `lane` drawn by `sel`: a configuration feasible
/// somewhere within the ceiling (it may not fit the lane's availability,
/// or sustain α), or one outside the enumerated space.
fn draw_incumbent(
    opt: &ConfigOptimizer,
    lane: usize,
    ceiling: u32,
    sel: usize,
) -> (usize, ParallelConfig) {
    let ty = opt.lane_type(lane);
    let space = enumerate_configs(
        opt.lane_perf(lane).model(),
        opt.memory(),
        &ty.gpu,
        &ConfigSpace::default(),
        ceiling * ty.gpus_per_instance as u32,
    );
    match sel % 8 {
        // Outside the space, which tries no M = 3 and no B = 5.
        0 => (lane, ParallelConfig::new(1, 1, 3, 5)),
        _ if space.is_empty() => (lane, ParallelConfig::new(16, 16, 8, 8)),
        _ => (lane, space[sel / 8 % space.len()]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `decide_multi` — floor-ordered scans over each lane's memoized,
    /// pruned frontier — is bit-identical with the brute-force oracle over
    /// 1–3 lanes, per-lane availability from 0 to past the ceiling, both
    /// engines, and arrival rates from 0 through exactly-saturating to
    /// beyond every candidate's throughput; and so is
    /// `decide_multi_with_incumbent` with the brute-force keep rule, for
    /// incumbents on any lane that fit, do not fit, or lie outside the
    /// space. Each query runs twice so the memo-hit paths are held to the
    /// same identity.
    #[test]
    fn decide_multi_equals_brute_force_oracle(
        lanes in 1usize..4,
        avail in prop::collection::vec(0u32..13, 3),
        model_sel in 0usize..3,
        // The engine, then the incumbent's lane and draw.
        engine_inc in 0usize..2 * 3 * 4096,
        alpha_sel in 0usize..4,
        alpha_millis in 1u32..3000,
    ) {
        let model = ModelSpec::paper_models()[model_sel].clone();
        let engine = [EngineMode::FixedBatch, EngineMode::ContinuousBatching][engine_inc % 2];
        let inc_sel = engine_inc / 2;
        let skus = [InstanceType::g4dn_12xlarge(), InstanceType::l4(), InstanceType::a100()];
        let mut opt = ConfigOptimizer::paper_defaults(model, MULTI_CEILING)
            .with_engine_mode(engine);
        for ty in &skus[..lanes] {
            opt = opt.with_sku(ty.clone());
        }
        let avail = &avail[..lanes];
        let alpha = match alpha_sel {
            0 => 0.0,
            // Exactly some candidate's throughput: it sustains α at ρ = 1
            // and prices at SimDuration::MAX.
            1 => {
                let cands = lane_candidates(&opt, engine, 0, MULTI_CEILING, 0.0);
                prop_assume!(!cands.is_empty());
                cands[alpha_millis as usize % cands.len()].0
            }
            // Beyond every candidate: nothing sustains.
            2 => 1e4,
            _ => alpha_millis as f64 / 1000.0,
        };
        let oracle = decide_multi_oracle(&opt, engine, avail, alpha);
        prop_assert_eq!(opt.decide_multi(avail, alpha), oracle, "{engine:?} {avail:?} α={alpha}");
        prop_assert_eq!(opt.decide_multi(avail, alpha), oracle, "memo hit");
        let inc = draw_incumbent(&opt, inc_sel % 3 % lanes, MULTI_CEILING + 4, inc_sel / 3);
        let biased = decide_multi_with_incumbent_oracle(&opt, engine, avail, alpha, Some(inc));
        for pass in ["biased", "biased memo hit"] {
            prop_assert_eq!(
                opt.decide_multi_with_incumbent(avail, alpha, Some(inc)),
                biased,
                "{} {:?} {:?} α={} incumbent {:?}", pass, engine, avail, alpha, inc
            );
        }
    }
}

// ---- The memo contract ---------------------------------------------------

/// Entries a decision memo holds before it is cleared wholesale.
const MEMO_CAP: usize = 64;

/// The memo contract: a query hits exactly when its key was inserted since
/// the last wholesale clear, and a missed key is inserted after clearing a
/// full memo.
struct MemoModel<K> {
    keys: Vec<K>,
    clears: u32,
}

impl<K: PartialEq> MemoModel<K> {
    fn new() -> Self {
        MemoModel {
            keys: Vec::new(),
            clears: 0,
        }
    }

    /// Whether `key` hits; records it when it misses.
    fn query(&mut self, key: K) -> bool {
        if self.keys.contains(&key) {
            return true;
        }
        if self.keys.len() >= MEMO_CAP {
            self.keys.clear();
            self.clears += 1;
        }
        self.keys.push(key);
        false
    }
}

/// SplitMix64: a query sequence drawn from a seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Over a sequence with far more than `MEMO_CAP` distinct `(n, α)` keys,
/// with and without incumbents, `memo_hits()` rises exactly on the calls
/// whose key the memo contract says is held, and every answer equals the
/// fresh-enumeration reference. The incumbent-biased decisions are
/// memoized too, but that memo never counts as a hit.
#[test]
fn decision_memo_hits_follow_the_wholesale_clear_contract() {
    for engine in [EngineMode::ContinuousBatching, EngineMode::FixedBatch] {
        let opt =
            ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16).with_engine_mode(engine);
        let incumbents = opt.feasible(16);
        let fleets = [3u32, 5, 8, 12, 16, 20];
        let mut model = MemoModel::new();
        let mut draw = Draw(engine as u64 + 7);
        let mut previous: Option<(u32, f64, Option<ParallelConfig>)> = None;
        let (mut hits, mut distinct) = (0, std::collections::BTreeSet::new());
        for step in 0..400 {
            // A third of the calls repeat the previous query outright.
            let (n, alpha, incumbent) = match previous {
                Some(q) if draw.below(3) == 0 => q,
                _ => {
                    let n = fleets[draw.below(fleets.len())];
                    let alpha = 0.02 + draw.below(32) as f64 * 0.029;
                    let incumbent = match draw.below(3) {
                        0 => None,
                        _ => Some(incumbents[draw.below(incumbents.len())]),
                    };
                    (n, alpha, incumbent)
                }
            };
            previous = Some((n, alpha, incumbent));
            distinct.insert((n, alpha.to_bits()));
            let before = opt.memo_hits();
            let d = opt.decide_with_incumbent(n, alpha, incumbent);
            let hit = model.query((n, alpha.to_bits()));
            hits += hit as u32;
            assert_eq!(
                opt.memo_hits() - before,
                hit as u64,
                "{engine:?} step {step}: n={n} α={alpha} incumbent {incumbent:?}"
            );
            assert_eq!(
                d,
                decide_with_incumbent_reference(&opt, n, alpha, incumbent),
                "{engine:?} step {step}: n={n} α={alpha} incumbent {incumbent:?}"
            );
        }
        assert!(distinct.len() > MEMO_CAP, "{} keys", distinct.len());
        assert!(model.clears >= 2, "{} clears", model.clears);
        assert!(hits > 60, "only {hits} hits");
    }
}

/// The same contract for the joint decision's memo over `(avail, α)`,
/// against the brute-force oracle. The per-lane scan memo under it never
/// counts as a hit.
#[test]
fn multi_memo_hits_follow_the_wholesale_clear_contract() {
    multi_memo_contract(false);
}

/// The same contract for biased joint queries: two of three calls carry
/// an incumbent, hits follow the unbiased `(avail, α)` key alone (the
/// incumbent memo never counts), and every answer equals the brute-force
/// keep rule.
#[test]
fn biased_multi_memo_hits_follow_the_wholesale_clear_contract() {
    multi_memo_contract(true);
}

/// One joint query: availability per lane, α and an optional incumbent.
type JointQuery = ([u32; 3], f64, Option<(usize, ParallelConfig)>);

/// 160 joint queries over g4dn/L4/A100 lanes, a third repeating the
/// previous one, with incumbents drawn when `biased`.
fn multi_memo_contract(biased: bool) {
    let engine = EngineMode::ContinuousBatching;
    let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), MULTI_CEILING)
        .with_engine_mode(engine)
        .with_sku(InstanceType::g4dn_12xlarge())
        .with_sku(InstanceType::l4())
        .with_sku(InstanceType::a100());
    let mut model = MemoModel::new();
    let mut draw = Draw(11);
    let mut previous: Option<JointQuery> = None;
    let (mut hits, mut distinct) = (0, std::collections::BTreeSet::new());
    for step in 0..160 {
        let (avail, alpha, incumbent) = match previous {
            Some(q) if draw.below(3) == 0 => q,
            _ => {
                let avail = [
                    draw.below(4) as u32 * 3,
                    draw.below(3) as u32 * 4,
                    draw.below(2) as u32 * 2,
                ];
                let alpha = 0.05 + draw.below(12) as f64 * 0.09;
                let incumbent = (biased && draw.below(3) > 0)
                    .then(|| draw_incumbent(&opt, draw.below(3), MULTI_CEILING, draw.below(4096)));
                (avail, alpha, incumbent)
            }
        };
        previous = Some((avail, alpha, incumbent));
        distinct.insert((avail, alpha.to_bits()));
        let before = opt.memo_hits();
        let d = match incumbent {
            None => opt.decide_multi(&avail, alpha),
            Some(_) => opt.decide_multi_with_incumbent(&avail, alpha, incumbent),
        };
        let hit = model.query((avail, alpha.to_bits()));
        hits += hit as u32;
        assert_eq!(
            opt.memo_hits() - before,
            hit as u64,
            "step {step}: {avail:?} α={alpha} incumbent {incumbent:?}"
        );
        assert_eq!(
            d,
            decide_multi_with_incumbent_oracle(&opt, engine, &avail, alpha, incumbent),
            "step {step}: {avail:?} α={alpha} incumbent {incumbent:?}"
        );
    }
    assert!(distinct.len() > MEMO_CAP, "{} keys", distinct.len());
    assert!(model.clears >= 1, "{} clears", model.clears);
    assert!(hits > 40, "only {hits} hits");
}

// ---- Optimizers sharing frontiers ----------------------------------------

/// One query of the sharing test: a base-lane query `(n, α, incumbent)`,
/// or a joint one over g4dn/L4/A100 lanes at availability `avail`.
#[derive(Debug, Clone, Copy)]
enum SharedQuery {
    Base(u32, f64, Option<ParallelConfig>),
    Joint([u32; 3], f64),
}

/// A [`SharedQuery`]'s answer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SharedAnswer {
    Base(OptimizerDecision),
    Joint(MultiSkuDecision),
}

/// An optimizer of the sharing test: GPT-20B at [`MULTI_CEILING`] under
/// `engine`, deciding on its base lane or, when `joint`, over
/// g4dn/L4/A100 lanes. The g4dn lane's inputs equal the base lane's, so
/// every optimizer of the test shares that frontier, under both engines.
fn sharing_optimizer(joint: bool, engine: EngineMode) -> ConfigOptimizer {
    let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), MULTI_CEILING)
        .with_engine_mode(engine);
    if joint {
        opt.with_sku(InstanceType::g4dn_12xlarge())
            .with_sku(InstanceType::l4())
            .with_sku(InstanceType::a100())
    } else {
        opt
    }
}

fn ask(opt: &ConfigOptimizer, q: SharedQuery) -> SharedAnswer {
    match q {
        SharedQuery::Base(n, alpha, inc) => {
            SharedAnswer::Base(opt.decide_with_incumbent(n, alpha, inc))
        }
        SharedQuery::Joint(avail, alpha) => SharedAnswer::Joint(opt.decide_multi(&avail, alpha)),
    }
}

/// The queries of the sharing test and their answers under each engine
/// (the fresh-enumeration reference or the brute-force oracle): rates
/// and fleets repeat across both kinds and both engines, so scans of
/// equal `(limit, α)` meet in the shared frontiers under either pricing
/// mode.
struct SharedPool {
    base: Vec<SharedQuery>,
    joint: Vec<SharedQuery>,
    /// `answers[engine][kind][i]`.
    answers: [[Vec<SharedAnswer>; 2]; 2],
}

const SHARING_ENGINES: [EngineMode; 2] = [EngineMode::FixedBatch, EngineMode::ContinuousBatching];

impl SharedPool {
    fn new() -> Self {
        let mut draw = Draw(23);
        let alphas = [0.0, 0.05, 0.2, 0.35, 0.6, 1e4];
        let incumbents = sharing_optimizer(false, EngineMode::FixedBatch).feasible(MULTI_CEILING);
        let base: Vec<SharedQuery> = (0..12)
            .map(|_| {
                let n = [0u32, 3, 5, 8, 12][draw.below(5)];
                let alpha = alphas[draw.below(alphas.len())];
                let inc = (draw.below(3) > 0).then(|| incumbents[draw.below(incumbents.len())]);
                SharedQuery::Base(n, alpha, inc)
            })
            .collect();
        let joint: Vec<SharedQuery> = (0..8)
            .map(|_| {
                let avail = [
                    [0u32, 3, 5, 8, 12][draw.below(5)],
                    draw.below(3) as u32 * 4,
                    draw.below(2) as u32 * 2,
                ];
                SharedQuery::Joint(avail, alphas[draw.below(alphas.len())])
            })
            .collect();
        let answers = SHARING_ENGINES.map(|engine| {
            let opt = sharing_optimizer(true, engine);
            [&base, &joint].map(|queries| {
                queries
                    .iter()
                    .map(|&q| match q {
                        SharedQuery::Base(n, alpha, inc) => {
                            SharedAnswer::Base(decide_with_incumbent_reference(&opt, n, alpha, inc))
                        }
                        SharedQuery::Joint(avail, alpha) => {
                            SharedAnswer::Joint(decide_multi_oracle(&opt, engine, &avail, alpha))
                        }
                    })
                    .collect()
            })
        });
        SharedPool {
            base,
            joint,
            answers,
        }
    }

    /// `steps` queries over one optimizer per (kind, engine) and `copies`
    /// copies of each, interleaved by `draw`: every answer is checked,
    /// and then each optimizer's `memo_hits()` against a lone optimizer
    /// replaying its queries.
    fn drive(&self, copies: usize, steps: usize, draw: &mut Draw, who: &str) {
        let slots: Vec<(usize, usize)> = (0..2)
            .flat_map(|engine| (0..2).map(move |kind| (engine, kind)))
            .flat_map(|slot| std::iter::repeat_n(slot, copies))
            .collect();
        let opts: Vec<ConfigOptimizer> = slots
            .iter()
            .map(|&(engine, kind)| sharing_optimizer(kind == 1, SHARING_ENGINES[engine]))
            .collect();
        let mut logs: Vec<Vec<usize>> = vec![Vec::new(); opts.len()];
        for step in 0..steps {
            let k = draw.below(opts.len());
            let (engine, kind) = slots[k];
            let queries = [&self.base, &self.joint][kind];
            let i = draw.below(queries.len());
            logs[k].push(i);
            assert_eq!(
                ask(&opts[k], queries[i]),
                self.answers[engine][kind][i],
                "{who} step {step}: optimizer {k}, {:?} {:?}",
                SHARING_ENGINES[engine],
                queries[i]
            );
        }
        for (k, log) in logs.iter().enumerate() {
            let (engine, kind) = slots[k];
            let lone = sharing_optimizer(kind == 1, SHARING_ENGINES[engine]);
            for &i in log {
                let q = [&self.base, &self.joint][kind][i];
                assert_eq!(
                    ask(&lone, q),
                    self.answers[engine][kind][i],
                    "{who}: lone {q:?}"
                );
            }
            assert_eq!(
                opts[k].memo_hits(),
                lone.memo_hits(),
                "{who}: optimizer {k} hits as a lone optimizer does"
            );
        }
    }
}

/// Optimizers on equal inputs share one frontier per lane and its scan
/// memo, across both engines and both decision kinds, and on several
/// threads at once. None of that may change an answer or a memo-hit
/// count: eight interleaved optimizers, then four threads released
/// together by a barrier to decide concurrently, each answer against the
/// reference or the brute-force oracle, each optimizer's `memo_hits()`
/// against a lone optimizer's.
#[test]
fn optimizers_sharing_inputs_decide_as_the_reference() {
    let pool = SharedPool::new();
    pool.drive(2, 200, &mut Draw(31), "interleaved");
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (pool, start) = (&pool, &start);
            scope.spawn(move || {
                start.wait();
                pool.drive(1, 60, &mut Draw(100 + t), &format!("thread {t}"));
            });
        }
    });
}

// ---- SLO-aware admission properties -----------------------------------

fn perf() -> PerfModel {
    PerfModel::paper_defaults(ModelSpec::opt_6_7b())
}

fn kvbpt() -> u64 {
    ModelSpec::opt_6_7b().kv_bytes_per_token()
}

/// Drives one scheduler to idle; returns `(retire_time, request)` pairs and
/// the rejected requests. When every queued request defers on an idle
/// engine (worst-case projection busts, best-case does not), the harness
/// lets simulated time pass — exactly what happens in the serving system —
/// until each one is admitted or becomes certainly hopeless and rejects.
fn drive_to_idle(
    sched: &mut IterationScheduler,
    pending: &mut VecDeque<Request>,
    p: &PerfModel,
) -> (Vec<(SimTime, Request)>, Vec<Request>) {
    let mut retired = Vec::new();
    let mut rejected = Vec::new();
    let mut clock = SimTime::ZERO;
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "scheduler failed to make progress");
        match sched.next_event() {
            Some(end) => {
                clock = end;
                for r in sched.advance(end, pending, p) {
                    retired.push((end, r));
                }
                rejected.extend(sched.take_rejected());
            }
            None => {
                if pending.is_empty() {
                    break;
                }
                let before = pending.len();
                sched.admit(pending, clock, p);
                rejected.extend(sched.take_rejected());
                if sched.next_event().is_none() && pending.len() == before {
                    // Everything deferred on an idle engine: wait. Each
                    // deferred deadline eventually admits or turns
                    // certainly-hopeless (rejects), so this terminates.
                    clock += SimDuration::from_secs(5);
                }
            }
        }
    }
    (retired, rejected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The admission guard's end-to-end contract: whatever the workload
    /// mix, chunk size, and deadlines, **every admitted deadline-carrying
    /// request retires by its deadline** — admission never lets a request
    /// in whose projected `l_req` would bust its own SLO or an
    /// already-admitted request's. (Rejected requests are exactly the
    /// hopeless ones; deferred ones wait in the queue.)
    #[test]
    fn admitted_deadlines_are_always_met(
        shapes in prop::collection::vec((32u32..1024, 1u32..96, 30u64..2000), 8),
        chunk_sel in 0usize..4,
        batch in 2u32..9,
    ) {
        let shapes: Vec<(u32, u32, u64)> = shapes;
        let p = perf();
        let chunk = [Some(32), Some(128), Some(512), None][chunk_sel];
        let cfg = ParallelConfig::new(1, 1, 4, batch);
        let mut sched = IterationScheduler::new(cfg, kvbpt(), u64::MAX)
            .with_prefill_chunk(chunk);
        let mut pending: VecDeque<Request> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(s_in, s_out, slo))| {
                Request::new(RequestId(i as u64), SimTime::ZERO, s_in, s_out)
                    .with_slo(SimDuration::from_secs(slo))
            })
            .collect();
        let total = pending.len();
        let (retired, rejected) = drive_to_idle(&mut sched, &mut pending, &p);
        prop_assert_eq!(retired.len() + rejected.len(), total, "conservation");
        for (at, r) in &retired {
            let deadline = r.deadline.expect("all carry deadlines");
            prop_assert!(
                *at <= deadline,
                "{} admitted but retired at {at} past deadline {deadline}",
                r.id
            );
        }
    }

    /// Admission order is deterministic and FIFO under equal deadlines:
    /// identical queues admit identical prefixes in queue order, twice.
    #[test]
    fn admission_order_is_deterministic_under_equal_deadlines(
        count in 1usize..10,
        s_in in 64u32..768,
        s_out in 4u32..64,
        slo in 60u64..1200,
        batch in 2u32..9,
    ) {
        let p = perf();
        let cfg = ParallelConfig::new(1, 1, 4, batch);
        let build_queue = || -> VecDeque<Request> {
            (0..count)
                .map(|i| {
                    Request::new(RequestId(i as u64), SimTime::ZERO, s_in, s_out)
                        .with_slo(SimDuration::from_secs(slo))
                })
                .collect()
        };
        let admit_ids = |q: &mut VecDeque<Request>| -> Vec<u64> {
            let mut s = IterationScheduler::new(cfg, kvbpt(), u64::MAX)
                .with_prefill_chunk(Some(64));
            s.admit(q, SimTime::ZERO, &p);
            s.running().iter().map(|r| r.request().id.0).collect()
        };
        let mut q1 = build_queue();
        let mut q2 = build_queue();
        let a = admit_ids(&mut q1);
        let b = admit_ids(&mut q2);
        prop_assert_eq!(&a, &b, "identical inputs admit identically");
        // FIFO among equals: the admitted set is a prefix in id order.
        let expect: Vec<u64> = (0..a.len() as u64).collect();
        prop_assert_eq!(a, expect, "equal deadlines admit in queue order");
        prop_assert_eq!(q1, q2);
    }
}

// ---- The re-derived l_req estimator changes Algorithm 1's choices ------

/// The documented scenario (see README "Engine-aware Algorithm 1"):
/// GPT-20B, 12 usable instances, α = 0.35 req/s. The fixed-batch estimator
/// pays a batch-fill delay of `(B−1)/2α` and so picks a small batch,
/// `(D=3, P=2, M=8, B=2)`; the continuous estimator knows slots turn over
/// at iteration granularity and picks the full `B=8` capacity on the same
/// mesh — more headroom at the same latency. FixedBatch pricing is
/// untouched, so paper-exact figures stay bit-identical.
#[test]
fn continuous_estimator_changes_the_algorithm1_choice() {
    let fixed = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
    let cont = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16)
        .with_engine_mode(EngineMode::ContinuousBatching);

    let df = fixed.decide(12, 0.35).now.expect("feasible");
    let dc = cont.decide(12, 0.35).now.expect("feasible");
    assert_eq!(
        (df.data, df.pipeline, df.tensor, df.batch),
        (3, 2, 8, 2),
        "fixed-batch Algorithm 1 pick"
    );
    assert_eq!(
        (dc.data, dc.pipeline, dc.tensor, dc.batch),
        (3, 2, 8, 8),
        "continuous Algorithm 1 pick: same mesh, full batch capacity"
    );
    assert_ne!(df, dc, "the re-derived estimator changes the choice");

    // And the default-constructed optimizer still prices with the paper's
    // fixed-batch formulas (figure comparisons stay bit-exact).
    assert_eq!(fixed.engine_mode(), EngineMode::FixedBatch);
    assert_eq!(
        fixed.estimated_latency(&df, 0.35),
        fixed.perf().request_latency(&df, 0.35)
    );
}
