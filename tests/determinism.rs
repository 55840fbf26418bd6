//! The determinism gate: the end-to-end simulation must be bit-replayable.
//!
//! The iteration scheduler (and everything downstream of it) may never
//! introduce hidden nondeterminism — no HashMap iteration order, no
//! address-dependent tie-breaks, no wall-clock leakage. The gate runs the
//! same scenario twice with the same seed and asserts the two
//! [`RunReport`]s serialize to *byte-identical* canonical forms, floats
//! rendered via their IEEE-754 bit patterns so "close enough" can never
//! pass.

use cloudsim::AvailabilityTrace;
use llmsim::ModelSpec;
use simkit::SimTime;
use spotserve::{EngineMode, RunReport, ScaleReport, Scenario, ServingSystem, SystemOptions};

mod common;
use common::{assert_audit_clean, canonical, run_audited};

/// The gate scenario: GPT-20B on the `paper_bs` trace, 600 s of arrivals.
fn gate_scenario(seed: u64) -> Scenario {
    let mut scenario = Scenario::paper_stable(
        ModelSpec::gpt_20b(),
        AvailabilityTrace::paper_bs(),
        0.35,
        seed,
    );
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(600));
    scenario
}

/// Runs the gate scenario with telemetry recorded and audits it with the
/// stream attached.
fn run_gate(opts: SystemOptions, seed: u64) -> RunReport {
    run_audited(opts, gate_scenario(seed))
}

fn replay(opts: SystemOptions, seed: u64) -> String {
    canonical(&run_gate(opts, seed))
}

/// Replay of the new scheduler paths: chunked prefill over a
/// long-prompt/short-prompt mix with tight-but-mixed SLOs, so the run
/// exercises chunk segmentation, SLO admission (admit/defer/reject), and
/// half-prefilled checkpoints through preemptions. Rejections are part of
/// the canonical form: a nondeterministic admission order would change
/// which deadlines get dropped.
fn replay_chunked_slo(seed: u64) -> String {
    use simkit::SimDuration;
    use workload::{LengthDist, WorkloadSpec};

    let spec = WorkloadSpec::paper_stable(1.2);
    let inputs = LengthDist::LongTail {
        common: 384,
        tail: 2048,
        tail_fraction: 0.2,
    };
    let outputs = LengthDist::Uniform { lo: 8, hi: 128 };
    let mut requests = spec.generate_with_lengths(
        &inputs,
        &outputs,
        &mut simkit::SimRng::new(seed).stream("arrivals"),
    );
    requests.retain(|r| r.arrival < SimTime::from_secs(420));
    // Alternate hopeless-tight and loose SLOs so admission exercises all
    // three verdicts: a 500 ms deadline is below even a solo prefill for
    // the long prompts (reject), while 900 s admits with deferrals.
    for (i, r) in requests.iter_mut().enumerate() {
        let slo = if i % 3 == 0 {
            SimDuration::from_micros(500_000)
        } else {
            SimDuration::from_secs(900)
        };
        *r = r.with_slo(slo);
    }
    let scenario = Scenario::with_requests(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::from_steps(vec![
            (SimTime::ZERO, 6),
            (SimTime::from_secs(90), 4),
            (SimTime::from_secs(240), 6),
        ]),
        requests,
        1.2,
        seed,
    );
    let report = run_audited(SystemOptions::spotserve().with_prefill_chunk(96), scenario);
    // Rejections are part of the shared canonical form: a nondeterministic
    // admission order would change which deadlines get dropped.
    canonical(&report)
}

#[test]
fn same_seed_replays_byte_identical_for_every_policy() {
    for opts in [
        SystemOptions::spotserve(),
        SystemOptions::reparallelization(),
        SystemOptions::rerouting(),
        SystemOptions::on_demand_only(6),
    ] {
        let a = replay(opts.clone(), 99);
        let b = replay(opts.clone(), 99);
        assert!(!a.is_empty());
        assert_eq!(a, b, "{:?}: byte-identical replays", opts.policy);
    }
}

#[test]
fn both_engines_replay_byte_identical() {
    for engine in [EngineMode::ContinuousBatching, EngineMode::FixedBatch] {
        let opts = SystemOptions::spotserve().with_engine(engine);
        let a = replay(opts.clone(), 7);
        let b = replay(opts, 7);
        assert_eq!(a, b, "{engine:?}: byte-identical replays");
    }
}

#[test]
fn chunked_prefill_with_slo_admission_replays_byte_identical() {
    let a = replay_chunked_slo(17);
    let b = replay_chunked_slo(17);
    assert!(!a.is_empty());
    assert_eq!(a, b, "chunked + SLO paths must replay byte-identical");
    // The scenario actually exercises the new paths: at least one tight
    // deadline is dropped by admission.
    assert!(
        a.contains("slo_reject"),
        "scenario must exercise SLO rejection:\n{}",
        a.lines().take(5).collect::<Vec<_>>().join("\n")
    );
}

/// Replay of the multi-pool fleet-controller paths: three zones, one of
/// which collapses mid-run, served under `SpotHedge` (pool-spread
/// acquisition, churn estimator, per-pool billing). The canonical form
/// includes the per-pool cost breakdown, so a nondeterministic merge
/// order or billing accumulation would fail the gate.
fn replay_multi_pool(seed: u64) -> String {
    use cloudsim::{AvailabilityTrace as Tr, PoolSpec};
    use spotserve::FleetPolicy;

    let pools = vec![
        PoolSpec::new(
            "z0",
            Tr::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(240), 0)]),
        ),
        PoolSpec::new("z1", Tr::constant(4)),
        PoolSpec::new("z2", Tr::constant(4)).with_spot_price(1.4),
    ];
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        Tr::constant(0), // unused once pools are set
        1.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(420));
    let opts = SystemOptions::spotserve().with_fleet_policy(FleetPolicy::spot_hedge());
    canonical(&run_audited(opts, scenario))
}

#[test]
fn multi_pool_hedge_replays_byte_identical() {
    let a = replay_multi_pool(29);
    let b = replay_multi_pool(29);
    assert!(!a.is_empty());
    assert_eq!(a, b, "multi-pool hedged replays must be byte-identical");
    assert!(
        a.contains("name=z2"),
        "the canonical form must carry the per-pool breakdown"
    );
}

/// Replay of the heterogeneous-fleet paths: three pools with *different*
/// SKUs (the A100 pool collapsing mid-run, a healthy cheap L4 pool, an
/// on-demand-only H100 pool) under the SKU/price-aware hedge. This drives
/// the per-SKU optimizer lanes, the SKU-aware KM edge costs, and the
/// cross-SKU migration; the canonical form carries the per-pool, per-SKU
/// cost bits, so any nondeterminism in lane selection or cross-fabric
/// pricing fails the gate.
fn replay_mixed_sku(seed: u64) -> String {
    use cloudsim::{AvailabilityTrace as Tr, InstanceType, PoolSpec};
    use spotserve::FleetPolicy;

    let pools = vec![
        PoolSpec::new(
            "a100",
            Tr::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(240), 0)]),
        )
        .with_instance_type(InstanceType::a100()),
        PoolSpec::new("l4", Tr::constant(6)).with_instance_type(InstanceType::l4()),
        PoolSpec::new("h100", Tr::constant(0)).with_instance_type(InstanceType::h100()),
    ];
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        1.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(420));
    let opts = SystemOptions::spotserve().with_fleet_policy(FleetPolicy::cost_aware_hedge());
    canonical(&run_audited(opts, scenario))
}

/// Mixed-SKU churn: GPT-20B on three churning, OU-priced pools, one each
/// of g4dn, L4 and A100, under the $/token hedge. Capacity steps every
/// few minutes, so the serving mesh keeps re-deciding across SKU lanes
/// with an incumbent on one of them: the replay pins the incumbent bias
/// on a mixed fleet.
fn replay_mixed_churn(seed: u64) -> String {
    use cloudsim::{InstanceType, OuParams, PoolSpec, PriceModel, TraceGenerator};
    use simkit::{SimDuration, SimRng};
    use spotserve::FleetPolicy;

    let horizon = SimDuration::from_secs(3600);
    let mut churn = SimRng::new(seed).stream("churn");
    let pools = [
        InstanceType::g4dn_12xlarge(),
        InstanceType::l4(),
        InstanceType::a100(),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, ty)| {
        let trace = TraceGenerator {
            duration: horizon,
            min_capacity: 0,
            max_capacity: 8,
            start_capacity: 6,
            mean_dwell: SimDuration::from_secs(300),
            drop_probability: 0.5,
            max_step: 3,
        }
        .generate(&mut churn);
        let price = PriceModel::Ou(OuParams {
            horizon,
            ..OuParams::around(ty.spot_price_per_hour)
        });
        PoolSpec::new(format!("p{i}"), trace)
            .with_instance_type(ty)
            .with_price(price)
    })
    .collect();
    let mut scenario = Scenario::paper_stable(
        ModelSpec::gpt_20b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        0.6,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(1200));
    let opts = SystemOptions::spotserve().with_fleet_policy(FleetPolicy::cost_per_token());
    canonical(&run_audited(opts, scenario))
}

#[test]
fn mixed_sku_fleet_replays_byte_identical() {
    let a = replay_mixed_sku(31);
    let b = replay_mixed_sku(31);
    assert!(!a.is_empty());
    assert_eq!(a, b, "mixed-SKU replays must be byte-identical");
    for sku in ["p4d.24xlarge", "g6.12xlarge", "p5.48xlarge"] {
        assert!(
            a.contains(&format!("sku={sku}")),
            "canonical form must carry the per-pool SKU attribution ({sku})"
        );
    }
}

#[test]
fn explicit_base_sku_is_bit_exact_with_the_inherited_default() {
    // The heterogeneity axis must be purely additive: a pool that names
    // the scenario's base SKU explicitly takes the exact same code path
    // (no per-SKU lanes, no SKU-aware KM costs) as one that inherits it,
    // down to the last cost bit. This pins the pre-PR single-SKU behavior.
    use cloudsim::{AvailabilityTrace as Tr, InstanceType, PoolSpec};
    use spotserve::FleetPolicy;

    let replay = |explicit: bool| {
        let pools = vec![
            PoolSpec::new(
                "z0",
                Tr::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(240), 0)]),
            ),
            PoolSpec::new("z1", Tr::constant(4)),
        ]
        .into_iter()
        .map(|p| {
            if explicit {
                p.with_instance_type(InstanceType::g4dn_12xlarge())
            } else {
                p
            }
        })
        .collect();
        let mut scenario = Scenario::paper_stable(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(0), // unused once pools are set
            1.0,
            37,
        )
        .with_pools(pools);
        scenario
            .requests
            .retain(|r| r.arrival < SimTime::from_secs(420));
        let opts = SystemOptions::spotserve().with_fleet_policy(FleetPolicy::spot_hedge());
        canonical(&run_audited(opts, scenario))
    };
    let inherited = replay(false);
    let explicit = replay(true);
    assert!(!inherited.is_empty());
    assert_eq!(
        inherited, explicit,
        "explicitly naming the base SKU must not perturb a single bit"
    );
}

/// Replay of the price-dynamics paths: two pools whose spot prices follow
/// Ornstein–Uhlenbeck processes (one with a price–preemption coupling),
/// served under `CostPerToken` — parity masking, price-pressure feeding,
/// on-demand bridging, and path-integrated billing all in one run. The
/// canonical form carries every cost bit, so a nondeterministic price
/// path, kill draw, or steering order fails the gate.
fn replay_ou_priced(seed: u64) -> String {
    use cloudsim::{AvailabilityTrace as Tr, OuParams, PoolSpec, PriceModel};
    use spotserve::FleetPolicy;

    let volatile = OuParams {
        kill_coupling: 3.0,
        ..OuParams::around(1.9)
    };
    let pools = vec![
        PoolSpec::new("ou0", Tr::constant(6)).with_price(PriceModel::Ou(volatile)),
        PoolSpec::new("ou1", Tr::constant(4)).with_price(PriceModel::Ou(OuParams::around(2.1))),
    ];
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        Tr::constant(0), // unused once pools are set
        1.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(420));
    let opts = SystemOptions::spotserve().with_fleet_policy(FleetPolicy::cost_per_token());
    canonical(&run_audited(opts, scenario))
}

#[test]
fn ou_priced_cost_per_token_replays_byte_identical() {
    let a = replay_ou_priced(43);
    let b = replay_ou_priced(43);
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "OU-priced CostPerToken replays must be byte-identical"
    );
    assert!(
        a.contains("name=ou1"),
        "the canonical form must carry the per-pool breakdown"
    );
}

#[test]
fn constant_price_model_is_bit_exact_with_the_legacy_setter() {
    // The price axis must be purely additive: `with_price(Constant(p))`
    // and the deprecated-in-spirit `with_spot_price(p)` shorthand take the
    // exact same code path — no path, no extra random draws, no re-quote
    // events — down to the last cost bit. This pins pre-dynamics replays.
    use cloudsim::{AvailabilityTrace as Tr, PoolSpec, PriceModel};
    use spotserve::FleetPolicy;

    let replay = |modeled: bool| {
        let cheap = PoolSpec::new("z1", Tr::constant(4));
        let pools = vec![
            PoolSpec::new(
                "z0",
                Tr::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(240), 0)]),
            ),
            if modeled {
                cheap.with_price(PriceModel::Constant(1.4))
            } else {
                cheap.with_spot_price(1.4)
            },
        ];
        let mut scenario = Scenario::paper_stable(
            ModelSpec::opt_6_7b(),
            Tr::constant(0), // unused once pools are set
            1.0,
            47,
        )
        .with_pools(pools);
        scenario
            .requests
            .retain(|r| r.arrival < SimTime::from_secs(420));
        let opts = SystemOptions::spotserve().with_fleet_policy(FleetPolicy::spot_hedge());
        canonical(&run_audited(opts, scenario))
    };
    let legacy = replay(false);
    let modeled = replay(true);
    assert!(!legacy.is_empty());
    assert_eq!(
        legacy, modeled,
        "a Constant price model must not perturb a single bit"
    );
}

#[test]
fn cached_optimizer_replays_byte_identical_at_a_large_ceiling() {
    // PR 5: Algorithm 1 runs over a memoized candidate frontier with a
    // per-(N, α) decision memo. A large fleet ceiling stresses the
    // frontier's range lookups and pruning through full serving replays —
    // the cached optimizer may never make the run depend on its own query
    // history.
    let run = || {
        let mut opts = SystemOptions::spotserve();
        opts.max_instances = 64;
        replay(opts, 41)
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "cached-optimizer replays must be byte-identical");
}

/// Audits every shard of a sharded run against the requests it was sent:
/// shard `i` of `n` gets every `n`-th request, starting at request `i`.
fn assert_shards_audit_clean(report: &ScaleReport, total: usize) {
    let n = report.shards.len();
    for (i, shard) in report.shards.iter().enumerate() {
        assert_audit_clean(shard, (total + n - 1 - i) / n);
    }
}

/// The sharded scenario behind the parallel-core gate: eight pools (two
/// per shard), every pool re-quoting its spot price mid-run, one pool
/// collapsing and recovering — so shards see `SpotPriceStep` re-quotes
/// *and* migration transitions, not just steady serving.
fn sharded_canonical(threads: usize, shards: usize, seed: u64) -> String {
    use cloudsim::{AvailabilityTrace as Tr, PoolSpec, PriceModel, PriceTrace};
    use spotserve::ShardedSystem;

    let pools = (0..8)
        .map(|i| {
            let trace = if i == 2 {
                Tr::from_steps(vec![
                    (SimTime::ZERO, 4),
                    (SimTime::from_secs(200), 0),
                    (SimTime::from_secs(320), 4),
                ])
            } else {
                Tr::constant(4)
            };
            PoolSpec::new(format!("z{i}"), trace).with_price(PriceModel::Trace(
                PriceTrace::from_steps(vec![
                    (SimTime::ZERO, 1.9),
                    (SimTime::from_secs(150 + 10 * i), 2.1),
                    (SimTime::from_secs(300 + 10 * i), 1.8),
                ]),
            ))
        })
        .collect();
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        6.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(420));
    let total = scenario.requests.len();
    let report = ShardedSystem::new(SystemOptions::spotserve(), scenario, shards)
        .with_threads(threads)
        .run();
    assert_shards_audit_clean(&report, total);
    let mut out = String::new();
    report.canonical_into(&mut out);
    out
}

#[test]
fn sharded_replay_is_thread_count_invariant() {
    // The parallel-core gate: the canonical output of a sharded run may
    // not depend on the worker-thread budget — 1-thread and max-thread
    // replays must be byte-identical, merged summaries and per-shard
    // reports included.
    let one = sharded_canonical(1, 4, 53);
    let many = sharded_canonical(8, 4, 53);
    assert!(!one.is_empty());
    assert_eq!(one, many, "thread count may never change the answer");
}

#[test]
fn sharded_replay_replays_byte_identical() {
    let a = sharded_canonical(4, 4, 59);
    let b = sharded_canonical(4, 4, 59);
    assert_eq!(a, b, "sharded replays must be byte-identical run to run");
}

#[test]
fn telemetry_does_not_perturb_canonical_bytes() {
    // Observation must be free at the answer level: a run built with the
    // telemetry spine enabled renders the exact same canonical bytes as
    // the same run with the no-op recorder. (The stream itself is
    // deliberately outside the canonical form — it has its own digest.)
    let off = ServingSystem::new(SystemOptions::spotserve(), gate_scenario(61)).run();
    let on = run_gate(SystemOptions::spotserve(), 61);
    assert!(off.telemetry.is_none(), "the baseline records nothing");
    assert!(on.telemetry.is_some(), "the gate run records its stream");
    let (off, on) = (canonical(&off), canonical(&on));
    assert!(!off.is_empty());
    assert_eq!(off, on, "telemetry may never change the canonical output");
}

/// The telemetry-on JSONL rendering of the gate scenario.
fn replay_jsonl(seed: u64) -> String {
    run_gate(SystemOptions::spotserve(), seed)
        .telemetry
        .expect("run built with telemetry")
        .to_jsonl()
}

#[test]
fn telemetry_jsonl_replays_byte_identical() {
    // The exported stream is part of the replay contract: same seed, same
    // JSONL bytes — header, record order, every integer field.
    let a = replay_jsonl(67);
    let b = replay_jsonl(67);
    let header = a.lines().next().expect("stream has a header line");
    assert!(
        header.contains(r#""stream":"spotserve.telemetry""#),
        "header line identifies the stream: {header}"
    );
    assert!(a.lines().count() > 1, "stream carries records");
    assert_eq!(a, b, "telemetry JSONL must replay byte-identical");
}

#[test]
fn different_seeds_actually_differ() {
    // Guards the gate itself: if `canonical` ever collapsed to a constant,
    // the identity assertions above would be vacuous.
    let a = replay(SystemOptions::spotserve(), 1);
    let b = replay(SystemOptions::spotserve(), 2);
    assert_ne!(a, b);
}

#[test]
fn calm_fault_spec_is_bit_exact_with_no_spec() {
    // The chaos axis must be purely additive: a pool carrying an all-off
    // `FaultSpec::calm()` takes the exact same code path — no extra
    // random draws, no injected events — as one with no spec at all,
    // down to the last bit. This pins every pre-chaos replay.
    use cloudsim::{AvailabilityTrace as Tr, FaultSpec, PoolSpec};
    use spotserve::FleetPolicy;

    let replay = |calm: bool| {
        let pools = vec![
            PoolSpec::new(
                "z0",
                Tr::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(240), 0)]),
            ),
            PoolSpec::new("z1", Tr::constant(4)),
        ]
        .into_iter()
        .map(|p| {
            if calm {
                p.with_faults(FaultSpec::calm())
            } else {
                p
            }
        })
        .collect();
        let mut scenario = Scenario::paper_stable(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(0), // unused once pools are set
            1.0,
            71,
        )
        .with_pools(pools);
        scenario
            .requests
            .retain(|r| r.arrival < SimTime::from_secs(420));
        let opts = SystemOptions::spotserve().with_fleet_policy(FleetPolicy::spot_hedge());
        canonical(&run_audited(opts, scenario))
    };
    let bare = replay(false);
    let calm = replay(true);
    assert!(!bare.is_empty());
    assert_eq!(
        bare, calm,
        "an all-off fault spec must not perturb a single bit"
    );
}

/// Replay of the chaos paths: two pools under the standard fault pack
/// (unannounced kills, lost/truncated notices, lapsed grants, a degraded
/// link), served hedged with telemetry on. The canonical form carries the
/// fault and lapse counters; the stream's JSONL carries every injected
/// event — both must replay byte-identical.
fn replay_chaos(seed: u64) -> (String, String) {
    use cloudsim::{AvailabilityTrace as Tr, FaultSpec, PoolSpec};
    use spotserve::FleetPolicy;

    let pools = vec![
        PoolSpec::new("z0", Tr::constant(5)).with_faults(FaultSpec::pack(0.8).with_kill_rate(25.0)),
        PoolSpec::new("z1", Tr::constant(4)).with_faults(FaultSpec::pack(0.3)),
    ];
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        1.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(420));
    let opts = SystemOptions::spotserve().with_fleet_policy(FleetPolicy::spot_hedge());
    let mut report = run_audited(opts, scenario);
    let jsonl = report
        .telemetry
        .take()
        .expect("run built with telemetry")
        .to_jsonl();
    (canonical(&report), jsonl)
}

#[test]
fn chaos_replays_byte_identical() {
    let (a, a_stream) = replay_chaos(73);
    let (b, b_stream) = replay_chaos(73);
    assert!(!a.is_empty());
    assert_eq!(a, b, "chaos replays must be byte-identical");
    assert_eq!(a_stream, b_stream, "chaos telemetry must replay exactly");
    assert!(
        a.lines()
            .any(|l| l.starts_with("faults=") && l != "faults=0"),
        "the kill channel must actually fire:\n{}",
        a.lines().take(8).collect::<Vec<_>>().join("\n")
    );
}

/// The sharded chaos gate: the sharded scenario above with fault packs on
/// half the pools. Injected kills, lapses and degraded links stay inside
/// their shard like every other cloud event, so the thread budget may not
/// change a byte.
fn sharded_chaos_canonical(threads: usize, shards: usize, seed: u64) -> String {
    use cloudsim::{AvailabilityTrace as Tr, FaultSpec, PoolSpec};
    use spotserve::ShardedSystem;

    let pools = (0..8)
        .map(|i| {
            let trace = if i == 2 {
                Tr::from_steps(vec![
                    (SimTime::ZERO, 4),
                    (SimTime::from_secs(200), 0),
                    (SimTime::from_secs(320), 4),
                ])
            } else {
                Tr::constant(4)
            };
            let pool = PoolSpec::new(format!("z{i}"), trace);
            if i % 2 == 0 {
                pool.with_faults(FaultSpec::pack(0.6))
            } else {
                pool
            }
        })
        .collect();
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        6.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(420));
    let total = scenario.requests.len();
    let report = ShardedSystem::new(SystemOptions::spotserve(), scenario, shards)
        .with_threads(threads)
        .run();
    assert_shards_audit_clean(&report, total);
    let mut out = String::new();
    report.canonical_into(&mut out);
    out
}

#[test]
fn sharded_chaos_is_thread_count_invariant() {
    let one = sharded_chaos_canonical(1, 4, 79);
    let many = sharded_chaos_canonical(8, 4, 79);
    assert!(!one.is_empty());
    assert_eq!(one, many, "thread count may never change a chaos-on answer");
    let rerun = sharded_chaos_canonical(8, 4, 79);
    assert_eq!(many, rerun, "sharded chaos replays byte-identical");
}

/// FNV-1a over a canonical rendering.
fn digest(canonical: &str) -> u64 {
    use std::fmt::Write as _;
    let mut h = telemetry::Fnv1a::new();
    h.write_str(canonical).expect("write");
    h.finish()
}

#[test]
fn golden_digests_are_pinned() {
    // The replays above compare a build against itself; these constants
    // compare it against the artifacts of earlier builds. A change that
    // moves a digest must re-pin it here and say in CHANGES.md which
    // scenario moved and why.
    let golden = [
        (
            "replay/spotserve",
            0x0ae0_3f64_be11_fe2b,
            replay(SystemOptions::spotserve(), 99),
        ),
        (
            "replay/reparallelization",
            0x44e9_7994_2469_7e75,
            replay(SystemOptions::reparallelization(), 99),
        ),
        (
            "replay/rerouting",
            0x3780_0859_73ad_34d4,
            replay(SystemOptions::rerouting(), 99),
        ),
        (
            "multi_pool/spot_hedge",
            0x244e_6d43_0c10_0eba,
            replay_multi_pool(29),
        ),
        (
            "mixed_sku/cost_aware_hedge",
            0xbfac_4e1b_2ca7_a165,
            replay_mixed_sku(31),
        ),
        (
            "ou_priced/cost_per_token",
            0xe984_b04f_79fb_30d0,
            replay_ou_priced(43),
        ),
        (
            "chaos/spot_hedge",
            0xbe20_f8cb_5fdc_4007,
            replay_chaos(73).0,
        ),
        (
            "replay/spotserve_od_mixing",
            0x2fd0_ebea_e1c5_deec,
            replay(SystemOptions::spotserve().with_on_demand_mixing(), 99),
        ),
        (
            "sharded",
            0x2f9f_979a_4d39_37d4,
            sharded_canonical(1, 4, 53),
        ),
        (
            "sharded_chaos",
            0x32d9_a573_1a40_a281,
            sharded_chaos_canonical(1, 4, 79),
        ),
        (
            "mixed_churn/cost_per_token",
            0x890d_ef07_e814_d02c,
            replay_mixed_churn(13),
        ),
    ];
    let moved: Vec<String> = golden
        .iter()
        .filter_map(|(name, pinned, canonical)| {
            let got = digest(canonical);
            (got != *pinned).then(|| format!("{name}: {got:#018x}, pinned {pinned:#018x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "golden digests moved:\n{}",
        moved.join("\n")
    );
}
