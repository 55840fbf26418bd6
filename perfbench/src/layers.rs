//! Per-layer metrics, measured from outside the program: counts read off
//! the traced run's reports and telemetry, and timings of each crate's
//! public calls replayed from the run's own inputs and outputs.

use std::collections::BTreeSet;
use std::time::Instant;

use cloudsim::{CloudMarket, InstanceId, InstanceType, PoolId};
use enginesim::IterationScheduler;
use fleetctl::{FleetController, FleetView, PoolCaps, PoolView};
use llmsim::MemoryModel;
use migration::{evaluate_plan, plan_migration, MigrationTask, PlannerOptions};
use parallelism::{ConfigSpace, ParallelConfig, PerfModel};
use simkit::{EventQueue, SimTime};
use spotserve::devicemap::OldState;
use spotserve::{map_devices, ConfigOptimizer, RunReport, Scenario, TelemetryEvent, TriageVerdict};
use workload::Request;

use crate::run::JobRun;
use crate::stats::Metrics;

/// Per-call timings of one layer, in the layer's unit.
type Samples = Vec<f64>;
use crate::workloads::{Job, Workload};

/// Samples a replayed timing aims for: enough that p99 has ten beyond it.
const TARGET_SAMPLES: usize = 1000;
/// Host seconds one layer's replay may spend reaching its sample target.
const REPLAY_BUDGET_S: f64 = 1.5;
/// Events per `EventQueue` timing sample.
const QUEUE_CHUNK: usize = 256;
/// Requests per `IterationScheduler` drive-to-idle sample.
const ENGINE_CHUNK: usize = 64;
/// KV-cache bytes each old pipeline carries into a replayed migration.
const CACHE_BYTES: u64 = 1 << 30;

fn reports(runs: &[JobRun]) -> impl Iterator<Item = &RunReport> {
    runs.iter().flat_map(|r| &r.reports)
}

/// Counts from the traced run: scale, engine, optimizer, migration,
/// cloud and fleet-controller layers.
pub fn counts(runs: &[JobRun], m: &mut Metrics) {
    let events: Vec<u64> = runs.iter().flat_map(|r| r.shard_events.clone()).collect();
    let total: u64 = events.iter().sum();
    let skew = match (events.iter().max(), events.len()) {
        (Some(&max), n) if total > 0 => max as f64 * n as f64 / total as f64,
        _ => 0.0,
    };
    m.put("scale.events", total as f64, "count");
    m.put(
        "scale.epochs",
        runs.iter().map(|r| r.epochs).sum::<usize>() as f64,
        "count",
    );
    m.put("scale.shard_skew", skew, "ratio");

    // Engine rollups are cumulative per shard: take each shard's last.
    let (mut admitted, mut deferrals, mut rejected, mut tokens, mut peak_queue) =
        (0u64, 0u64, 0u64, 0u64, 0u32);
    let mut c = Tally::default();
    for report in reports(runs) {
        let Some(stream) = &report.telemetry else {
            continue;
        };
        let mut last = None;
        for r in stream.records() {
            c.see(&r.event);
            if let TelemetryEvent::EngineRollup {
                queue_depth,
                admitted,
                deferrals,
                rejected,
                tokens,
                ..
            } = r.event
            {
                peak_queue = peak_queue.max(queue_depth);
                last = Some((admitted, deferrals, rejected, tokens));
            }
        }
        if let Some((a, d, r, t)) = last {
            admitted += a;
            deferrals += d;
            rejected += r;
            tokens += t;
        }
    }
    m.put("enginesim.admitted", admitted as f64, "count");
    m.put("enginesim.deferrals", deferrals as f64, "count");
    m.put("enginesim.rejected", rejected as f64, "count");
    m.put("enginesim.tokens", tokens as f64, "count");
    m.put("enginesim.peak_queue", peak_queue as f64, "count");

    m.put("optimizer.decisions", c.decisions as f64, "count");
    m.put(
        "optimizer.memo_hit_ratio",
        c.memo_hits as f64 / c.decisions.max(1) as f64,
        "ratio",
    );
    m.put("optimizer.skus", c.skus.len() as f64, "count");

    let transitions = |label: Option<&str>| {
        runs.iter()
            .filter(|r| label.is_none_or(|l| r.label == l))
            .flat_map(|r| &r.reports)
            .map(|rep| rep.config_changes.len().saturating_sub(1))
            .sum::<usize>() as f64
    };
    m.put("migration.transitions", transitions(None), "count");
    for (name, label) in [
        ("spotserve", "SpotServe"),
        ("reparallelization", "Reparallelization"),
        ("rerouting", "Rerouting"),
    ] {
        m.put(
            &format!("migration.transitions.{name}"),
            transitions(Some(label)),
            "count",
        );
    }
    m.put("migration.full", c.full as f64, "count");
    m.put("migration.partial", c.partial as f64, "count");
    m.put("migration.restart", c.restart as f64, "count");
    m.put("migration.downgrades", c.downgrades as f64, "count");
    m.put("migration.moved_gb", c.moved_bytes as f64 / 1e9, "GB");
    m.put("migration.reloaded_gb", c.reloaded_bytes as f64 / 1e9, "GB");

    m.put("cloudsim.grants", c.grants as f64, "count");
    m.put("cloudsim.notices", c.notices as f64, "count");
    m.put("cloudsim.kills", c.kills as f64, "count");
    m.put("cloudsim.faults", c.faults as f64, "count");
    m.put("cloudsim.lapses", c.lapses as f64, "count");
    m.put("cloudsim.price_steps", c.price_steps as f64, "count");
    m.put("fleetctl.commands", c.commands as f64, "count");
    m.put("fleetctl.retries", c.retries as f64, "count");
    m.put("fleetctl.escalations", c.escalations as f64, "count");
}

/// Telemetry event tallies.
#[derive(Default)]
struct Tally {
    decisions: u64,
    memo_hits: u64,
    skus: BTreeSet<&'static str>,
    full: u64,
    partial: u64,
    restart: u64,
    downgrades: u64,
    moved_bytes: u64,
    reloaded_bytes: u64,
    grants: u64,
    notices: u64,
    kills: u64,
    faults: u64,
    lapses: u64,
    price_steps: u64,
    commands: u64,
    retries: u64,
    escalations: u64,
}

impl Tally {
    fn see(&mut self, ev: &TelemetryEvent) {
        match *ev {
            TelemetryEvent::Decision { sku, memo_hit, .. } => {
                self.decisions += 1;
                self.memo_hits += u64::from(memo_hit);
                self.skus.insert(sku);
            }
            TelemetryEvent::DecisionHalt { memo_hit } => {
                self.decisions += 1;
                self.memo_hits += u64::from(memo_hit);
            }
            TelemetryEvent::TransitionCommit {
                verdict,
                migrated_bytes,
                reloaded_bytes,
                ..
            } => {
                match verdict {
                    TriageVerdict::Full => self.full += 1,
                    TriageVerdict::Partial => self.partial += 1,
                    TriageVerdict::Restart => self.restart += 1,
                }
                self.moved_bytes += migrated_bytes;
                self.reloaded_bytes += reloaded_bytes;
            }
            TelemetryEvent::TriageDowngrade { .. } => self.downgrades += 1,
            TelemetryEvent::InstanceGrant { .. } => self.grants += 1,
            TelemetryEvent::KillNotice { .. } => self.notices += 1,
            TelemetryEvent::InstanceKill { .. } => self.kills += 1,
            TelemetryEvent::Fault { .. } => self.faults += 1,
            TelemetryEvent::RequestLapsed { .. } => self.lapses += 1,
            TelemetryEvent::PriceStep { .. } => self.price_steps += 1,
            TelemetryEvent::FleetCommand { .. } => self.commands += 1,
            TelemetryEvent::RetryScheduled { .. } => self.retries += 1,
            TelemetryEvent::RetryEscalated { .. } => self.escalations += 1,
            _ => {}
        }
    }
}

/// The telemetry layer: records, JSONL volume, and export time.
pub fn telemetry(runs: &[JobRun], m: &mut Metrics) {
    let streams: Vec<_> = reports(runs).filter_map(|r| r.telemetry.as_ref()).collect();
    let t0 = Instant::now();
    let bytes: usize = streams.iter().map(|s| s.to_jsonl().len()).sum();
    let export_s = t0.elapsed().as_secs_f64();
    m.put(
        "telemetry.records",
        streams.iter().map(|s| s.len()).sum::<usize>() as f64,
        "count",
    );
    m.put("telemetry.jsonl_mb", bytes as f64 / 1e6, "MB");
    m.put("telemetry.export_s", export_s, "s");
}

/// Calls `step` on each item in turn, cycling, until `len` of the
/// accumulated samples reaches [`TARGET_SAMPLES`] or the replay has spent
/// [`REPLAY_BUDGET_S`]; stops early when a whole cycle adds nothing.
fn replay<T, A: Default>(
    items: &[T],
    len: impl Fn(&A) -> usize,
    mut step: impl FnMut(&T, &mut A),
) -> A {
    let start = Instant::now();
    let mut acc = A::default();
    loop {
        let before = len(&acc);
        for item in items {
            step(item, &mut acc);
            if len(&acc) >= TARGET_SAMPLES || start.elapsed().as_secs_f64() > REPLAY_BUDGET_S {
                return acc;
            }
        }
        if len(&acc) == before {
            return acc;
        }
    }
}

/// Every (job, shard) pair with its shard scenario and report.
fn shards<'a>(
    jobs: &'a [Job],
    runs: &'a [JobRun],
) -> impl Iterator<Item = (&'a Job, Scenario, &'a RunReport)> + 'a {
    jobs.iter().zip(runs).flat_map(|(job, run)| {
        run.reports
            .iter()
            .enumerate()
            .map(move |(s, report)| (job, job.shard_scenario(s), report))
    })
}

/// Replays each layer's public calls and records their timings.
pub fn replays(jobs: &[Job], runs: &[JobRun], m: &mut Metrics) {
    let all: Vec<(&Job, Scenario, &RunReport)> = shards(jobs, runs).collect();
    // The queue and engine replays use the first shard alone.
    let first = &all[..1];
    let n = Vec::len;
    m.put_timing(
        "simkit.ns_per_event",
        &replay(first, n, |(_, sc, _), s| event_queue(sc, s)),
        "ns",
    );
    m.put_timing(
        "enginesim.us_per_request",
        &replay(first, n, |(_, sc, report), s| engine(sc, report, s)),
        "us",
    );
    m.put_timing(
        "optimizer.decide_us",
        &replay(&all, n, |(job, sc, report), s| {
            optimizer(job, sc, report, s)
        }),
        "us",
    );
    let (map_us, plan_us): (Samples, Samples) = replay(
        &all,
        |(map, _): &(Samples, Samples)| map.len(),
        |(_, sc, report), (map, plan)| placement(sc, report, map, plan),
    );
    m.put_timing("devicemap.map_us", &map_us, "us");
    m.put_timing("migration.plan_us", &plan_us, "us");
    m.put_timing(
        "cloudsim.ns_per_event",
        &replay(&all, n, |(_, sc, _), s| market(sc, s)),
        "ns",
    );
    m.put_timing(
        "fleetctl.command_ns",
        &replay(&all, n, |(job, sc, report), s| {
            controller(job, sc, report, s)
        }),
        "ns",
    );
}

/// `EventQueue` schedule + pop over one shard's arrivals, at the depth
/// the serving loop sees (every arrival pre-scheduled): each sample is
/// one chunk's schedules plus the same chunk's pops, per event.
fn event_queue(sc: &Scenario, s: &mut Samples) {
    let times: Vec<SimTime> = sc.requests.iter().map(|r| r.arrival).collect();
    let mut q = EventQueue::new();
    let mut sched_ns = Vec::new();
    for (c, chunk) in times.chunks(QUEUE_CHUNK).enumerate() {
        let t0 = Instant::now();
        for (i, &t) in chunk.iter().enumerate() {
            q.schedule(t, c * QUEUE_CHUNK + i);
        }
        sched_ns.push((t0.elapsed().as_nanos() as f64, chunk.len()));
    }
    for &(ns, n) in &sched_ns {
        let t0 = Instant::now();
        for _ in 0..n {
            std::hint::black_box(q.pop());
        }
        s.push((ns + t0.elapsed().as_nanos() as f64) / n as f64);
    }
}

/// `IterationScheduler` admit/advance driving one shard's requests to
/// idle, [`ENGINE_CHUNK`] at a time, under the shard's first adopted
/// configuration.
fn engine(sc: &Scenario, report: &RunReport, s: &mut Samples) {
    let Some(cfg) = report.config_changes.iter().find_map(|c| c.config) else {
        return;
    };
    let perf = PerfModel::paper_defaults(sc.model.clone());
    let kvbpt = sc.model.kv_bytes_per_token();
    let requests: Vec<Request> = sc
        .requests
        .iter()
        .take(ENGINE_CHUNK * 64)
        .map(|r| Request::new(r.id, SimTime::ZERO, r.s_in, r.s_out))
        .collect();
    for chunk in requests.chunks(ENGINE_CHUNK) {
        let t0 = Instant::now();
        let mut sched = IterationScheduler::new(cfg, kvbpt, u64::MAX);
        let mut q: std::collections::VecDeque<Request> = chunk.iter().copied().collect();
        sched.admit(&mut q, SimTime::ZERO, &perf);
        let mut done = 0usize;
        while let Some(end) = sched.next_event() {
            done += sched.advance(end, &mut q, &perf).len();
        }
        assert_eq!(done, chunk.len(), "the scheduler drains every request");
        s.push(t0.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
    }
}

/// The SKU of each pool (the scenario's base type where unset).
fn pool_types(sc: &Scenario) -> Vec<InstanceType> {
    sc.pools
        .iter()
        .map(|p| {
            p.instance_type
                .clone()
                .unwrap_or_else(|| sc.cloud.instance_type.clone())
        })
        .collect()
}

/// Algorithm 1 at the fleet sizes of the shard's `fleet_timeline`:
/// `decide_with_incumbent` on a single-SKU shard, `decide_multi` (fleet
/// spread over lanes by pool capacity) on a mixed one. A fresh optimizer
/// per pass, built as the serving system builds it.
fn optimizer(job: &Job, sc: &Scenario, report: &RunReport, s: &mut Samples) {
    let base = &sc.cloud.instance_type;
    let mut opt = ConfigOptimizer::new(
        PerfModel::paper_defaults(sc.model.clone()),
        MemoryModel::default(),
        base.gpu,
        ConfigSpace::default(),
        base.gpus_per_instance,
        job.opts.max_instances,
    )
    .with_engine_mode(job.opts.engine);
    let types = pool_types(sc);
    let mut lanes: Vec<InstanceType> = Vec::new();
    let pool_lane: Vec<usize> = types
        .iter()
        .map(|ty| {
            lanes.iter().position(|t| t == ty).unwrap_or_else(|| {
                lanes.push(ty.clone());
                lanes.len() - 1
            })
        })
        .collect();
    let mixed = types.iter().any(|t| t != base);
    if mixed {
        for ty in &lanes {
            opt = opt.with_sku(ty.clone());
        }
    }
    let alpha = sc.initial_rate;
    let mut incumbent: Option<ParallelConfig> = None;
    for &(t, spot, od) in &report.fleet_timeline {
        let n = spot + od;
        let t0 = Instant::now();
        if mixed {
            let mut caps = vec![0u32; lanes.len()];
            for (p, pool) in sc.pools.iter().enumerate() {
                caps[pool_lane[p]] += pool.trace.capacity_at(t);
            }
            let avail = fleetctl::spread(n, &caps);
            std::hint::black_box(opt.decide_multi(&avail, alpha));
        } else {
            incumbent = opt.decide_with_incumbent(n, alpha, incumbent).now;
        }
        s.push(t0.elapsed().as_secs_f64() * 1e6);
    }
}

/// KM device mapping (`map_devices`) and Algorithm 2 planning
/// (`plan_migration` + `evaluate_plan`) over each consecutive pair of the
/// shard's adopted configurations. The first adoption is a cold start;
/// each later one loses one old instance and gains one new.
fn placement(sc: &Scenario, report: &RunReport, map_us: &mut Samples, plan_us: &mut Samples) {
    let model = &sc.model;
    let gpi = sc.cloud.instance_type.gpus_per_instance;
    let perf = PerfModel::paper_defaults(model.clone());
    let net = perf.cost_model().net();
    let opts = PlannerOptions::default();
    let ids = |from: u64, n: u32| -> Vec<InstanceId> {
        (from..from + n as u64).map(InstanceId).collect()
    };
    let mut prev: Option<ParallelConfig> = None;
    for cfg in report.config_changes.iter().filter_map(|c| c.config) {
        let need = cfg.instances_needed(gpi);
        let (old, task_of) = match prev {
            None => (OldState::default(), None),
            Some(old_cfg) => {
                let old_need = old_cfg.instances_needed(gpi);
                let mut assign = map_devices(
                    model,
                    &old_cfg,
                    &ids(0, old_need),
                    gpi,
                    &OldState::default(),
                    true,
                )
                .assignment;
                assign.remove_instance(InstanceId(0));
                let state = OldState {
                    config_and_assignment: Some((old_cfg, assign.clone())),
                    cache_bytes_per_pipeline: vec![CACHE_BYTES; old_cfg.data as usize],
                    progress_per_pipeline: (0..old_cfg.data).map(|d| 64 + d).collect(),
                };
                (state, Some((old_cfg, assign)))
            }
        };
        let fleet = ids(1, need);
        let t0 = Instant::now();
        let outcome = map_devices(model, &cfg, &fleet, gpi, &old, true);
        map_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let task = match task_of {
            None => MigrationTask::fresh_start(
                model,
                cfg,
                &fleet.iter().map(|&id| (id, gpi)).collect::<Vec<_>>(),
            ),
            Some((old_cfg, old_assignment)) => MigrationTask {
                model: model.clone(),
                old_config: old_cfg,
                new_config: cfg,
                old_assignment,
                new_assignment: outcome.assignment,
                cache_bytes_per_pipeline: old.cache_bytes_per_pipeline.clone(),
                pipeline_inheritance: outcome.inheritance,
            },
        };
        let t0 = Instant::now();
        let plan = plan_migration(&task, &opts);
        std::hint::black_box(evaluate_plan(&plan, net, &sc.storage));
        plan_us.push(t0.elapsed().as_secs_f64() * 1e6);
        prev = Some(cfg);
    }
}

/// A `CloudMarket` built from the shard's pools, filled to each pool's
/// starting capacity plus a queued request for its peak, then drained
/// to the run's horizon: one sample per delivered event.
fn market(sc: &Scenario, s: &mut Samples) {
    let (mut market, traces) = if sc.pools.is_empty() {
        (
            CloudMarket::single(sc.cloud.clone(), sc.trace.clone(), sc.seed),
            vec![sc.trace.clone()],
        )
    } else {
        (
            CloudMarket::new(&sc.cloud, &sc.pools, sc.seed),
            sc.pools.iter().map(|p| p.trace.clone()).collect(),
        )
    };
    for (p, trace) in traces.iter().enumerate() {
        let pool = PoolId(p as u32);
        market.prewarm_spot_in(pool, trace.capacity_at(SimTime::ZERO));
        market.request_spot_in(SimTime::ZERO, pool, trace.max_capacity());
    }
    let horizon = sc.requests.last().map_or(SimTime::ZERO, |r| r.arrival)
        + simkit::SimDuration::from_secs(3600);
    loop {
        let t0 = Instant::now();
        let ev = market.pop_next();
        let ns = t0.elapsed().as_nanos() as f64;
        match ev {
            Some((t, _)) if t <= horizon => s.push(ns),
            _ => return,
        }
    }
}

/// `FleetController::command` over the shard's `fleet_timeline`: each
/// sample's fleet spread over the pools at their capacity of the moment.
fn controller(job: &Job, sc: &Scenario, report: &RunReport, s: &mut Samples) {
    let types = if sc.pools.is_empty() {
        vec![sc.cloud.instance_type.clone()]
    } else {
        pool_types(sc)
    };
    let ctl = FleetController::new(
        job.opts.fleet_policy,
        types.len(),
        sc.cloud.spot_grant_delay,
    );
    for &(t, spot, od) in &report.fleet_timeline {
        let caps: Vec<u32> = if sc.pools.is_empty() {
            vec![sc.trace.capacity_at(t)]
        } else {
            sc.pools.iter().map(|p| p.trace.capacity_at(t)).collect()
        };
        let live = fleetctl::spread(spot, &caps);
        let view = FleetView {
            pools: types
                .iter()
                .zip(&caps)
                .zip(&live)
                .map(|((ty, &capacity), &live_spot)| PoolView {
                    live_spot,
                    capacity,
                    caps: PoolCaps::of(ty),
                    ..PoolView::default()
                })
                .collect(),
            live_ondemand: od,
            pending_ondemand: 0,
            target: spot + od,
            spares: job.opts.spare_instances,
        };
        let t0 = Instant::now();
        std::hint::black_box(ctl.command(&view, t));
        s.push(t0.elapsed().as_nanos() as f64);
    }
}

/// Fails when a workload stops exercising what it was chosen for.
pub fn separation(workload: Workload, m: &Metrics) -> Result<(), String> {
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    let mut missing = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            missing.push(what.to_string());
        }
    };
    match workload {
        Workload::ChurnChaos => {
            for name in ["cloudsim.faults", "cloudsim.lapses", "fleetctl.retries"] {
                need(get(name) > 0.0, &format!("{name} > 0"));
            }
            need(get("optimizer.skus") >= 2.0, "decisions on >= 2 SKUs");
        }
        Workload::PaperGrid => {
            for sys in ["spotserve", "reparallelization", "rerouting"] {
                let name = format!("migration.transitions.{sys}");
                need(get(&name) > 0.0, &format!("{name} > 0"));
            }
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "workload separation check failed: expected {}",
            missing.join(", ")
        ))
    }
}
