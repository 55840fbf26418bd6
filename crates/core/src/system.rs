//! The serving system: a discrete-event simulation wiring the cloud, the
//! engine, and SpotServe's control plane (or a baseline policy) together.
//!
//! One [`ServingSystem`] run replays an availability trace and a request
//! stream and produces a [`RunReport`]. The three §6.1 systems share every
//! mechanism except preemption handling, mirroring the paper's
//! same-backbone fairness setup:
//!
//! * **SpotServe** — on a preemption notice, keep decoding until just
//!   enough grace period remains (JIT arrangement), then migrate context
//!   (weights + KV cache) to the KM-optimal placement of the next
//!   configuration and *resume* interrupted batches token-exact;
//! * **Reparallelization** — same configuration optimizer, but transitions
//!   are reactive cold restarts: weights reload from storage and in-flight
//!   progress is lost;
//! * **Rerouting** — fixed `(P, M, B)`; preempted pipelines drop, their
//!   requests reroute and recompute; new pipelines cold-start.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cloudsim::{
    AvailabilityTrace, CloudConfig, CloudEvent, CloudMarket, ColdStorage, InstanceId, InstanceKind,
    InstanceType, PoolId, PoolSpec,
};
use enginesim::{
    preemption_stop_time, recovery_worthwhile, AdmissionVerdict, BatchRun, EngineCounters,
    IterationScheduler, PendingQueue, RequestRun,
};
use kmatch::SkuCaps;
use llmsim::ModelSpec;
use migration::{
    compute_transfers, evaluate_plan, plan_migration, transferable_fraction, triage,
    DeviceAssignment, MigrationTask, MigrationTimeline, PlannerOptions, TriageTier,
};
use parallelism::{ParallelConfig, PerfModel};
use simkit::event::EventKey;
use simkit::{EventQueue, SimDuration, SimRng, SimTime};
use telemetry::{Recorder, TelemetryEvent, TelemetryStream, TriageVerdict};
use workload::{LatencyReport, Request, WorkloadSpec};

use fleetctl::{FleetController, FleetPolicy, FleetView, PoolCaps, PoolView};

use crate::config::{EngineMode, Policy, SystemOptions};
use crate::devicemap::{map_devices_with_skus, OldState, SkuTable};
use crate::optimizer::{ConfigOptimizer, MultiSkuDecision, OptimizerDecision, MAX_SKU_LANES};
use crate::report::{ConfigChange, RunReport};

/// A complete experiment input: model, availability trace, request stream.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The model being served.
    pub model: ModelSpec,
    /// Spot-capacity trace the cloud replays (the single-market case;
    /// ignored when [`Scenario::pools`] is non-empty).
    pub trace: AvailabilityTrace,
    /// Multi-pool market definition: when non-empty, the cloud replays
    /// one pool per spec (its own trace, grant delay, and spot price)
    /// behind a [`CloudMarket`] arbiter, and `trace` is unused.
    pub pools: Vec<PoolSpec>,
    /// The request stream. Requests fire in arrival order, those due at
    /// one instant in list order; every generator lists them sorted.
    pub requests: Vec<Request>,
    /// Cloud tunables (grace period, grant delays, instance type).
    pub cloud: CloudConfig,
    /// Cold-storage model for weight reloads.
    pub storage: ColdStorage,
    /// Master seed (cloud tie-breaking etc.).
    pub seed: u64,
    /// Initial arrival-rate estimate used for the warm start.
    pub initial_rate: f64,
}

impl Scenario {
    /// The paper's stable-workload setup (§6.1): Gamma arrivals with CV 6
    /// at `rate` req/s for 20 minutes, `S_in = 512`, `S_out = 128`.
    pub fn paper_stable(model: ModelSpec, trace: AvailabilityTrace, rate: f64, seed: u64) -> Self {
        let spec = WorkloadSpec::paper_stable(rate);
        let requests = spec.generate(&mut SimRng::new(seed).stream("arrivals"));
        Scenario {
            model,
            trace,
            pools: Vec::new(),
            requests,
            cloud: CloudConfig::default(),
            storage: ColdStorage::default(),
            seed,
            initial_rate: rate,
        }
    }

    /// A scenario with an explicit pre-generated request stream.
    pub fn with_requests(
        model: ModelSpec,
        trace: AvailabilityTrace,
        requests: Vec<Request>,
        initial_rate: f64,
        seed: u64,
    ) -> Self {
        Scenario {
            model,
            trace,
            pools: Vec::new(),
            requests,
            cloud: CloudConfig::default(),
            storage: ColdStorage::default(),
            seed,
            initial_rate,
        }
    }

    /// Replaces the single availability trace with a multi-pool market
    /// definition (one [`PoolSpec`] per zone). With pools set, the
    /// scenario's `trace` field is unused.
    ///
    /// # Panics
    ///
    /// Panics if `pools` is empty.
    pub fn with_pools(mut self, pools: Vec<PoolSpec>) -> Self {
        assert!(!pools.is_empty(), "a market needs at least one pool");
        self.pools = pools;
        self
    }
}

/// How often the arrival-rate estimate is refreshed (§3.2 footnote:
/// "observing the request arrivals within a short past duration").
const RATE_TICK: SimDuration = SimDuration::from_secs(30);

/// Engine-process launch time on a fresh instance (excludes weight
/// loading, which the migration and cold-load paths account for).
const ENGINE_LAUNCH: SimDuration = SimDuration::from_secs(10);

/// Safety margin subtracted from the grace period when arranging
/// migrations (§4.2 guards against estimate error).
const MIGRATION_SAFETY_MARGIN: SimDuration = SimDuration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A pipeline's engine is due: its fixed batch committed its last
    /// token, or its scheduler reached a segment's last iteration boundary
    /// (the retire/admit point).
    EngineDue {
        pipeline: u64,
    },
    InitDone {
        id: InstanceId,
    },
    TransitionCommit {
        epoch: u64,
    },
    TransitionDone {
        epoch: u64,
    },
    PipelineReady {
        pipeline: u64,
    },
    RateTick,
}

/// In-flight work carried token-exact through a SpotServe transition into
/// a new pipeline (stateful recovery, §4).
#[derive(Clone)]
enum Carried {
    /// Fixed-batch engine: a uniform batch resumed at `committed` tokens.
    Batch(Vec<Request>, u32),
    /// Continuous engine: heterogeneous per-request records, each resumed
    /// at its own committed token.
    Records(Vec<RequestRun>),
}

/// The engine one pipeline runs, holding the context the paper's context
/// daemon keeps alive across engine restarts (§3.1, §5): whose KV cache is
/// resident and how many of its tokens are committed.
#[derive(Debug)]
enum Engine {
    /// Fixed-batch engine: one batch decoding to its last token.
    Batch(BatchRun),
    /// Continuous engine: the iteration scheduler and its in-flight set,
    /// each request at its own committed token.
    Scheduler(IterationScheduler),
}

impl Engine {
    /// Committed KV-cache bytes at `t`: under the continuous engine, the
    /// sum of each in-flight request's own `S_in +` committed tokens.
    fn cache_bytes_at(&self, t: SimTime, kv_bytes_per_token: u64) -> u64 {
        match self {
            Engine::Batch(run) => run.cache_bytes_at(t, kv_bytes_per_token),
            Engine::Scheduler(s) => s.cache_bytes_at(t, kv_bytes_per_token),
        }
    }

    /// Deepest committed output-token count at `t`: the batch's uniform
    /// progress, or the furthest request's (the device mapper ranks
    /// pipelines by decoding progress, §3.3).
    fn committed_iters_at(&self, t: SimTime) -> u32 {
        match self {
            Engine::Batch(run) => run.committed_iters_at(t),
            Engine::Scheduler(s) => s.max_committed_at(t),
        }
    }
}

/// One inference pipeline (a `P × M` GPU group serving batches).
#[derive(Debug)]
struct PipelineSlot {
    /// Stable identifier (survives vector reshuffles). Rerouting keys the
    /// assignment's pipelines by it.
    id: u64,
    /// The resident engine; `None` while the pipeline is idle.
    engine: Option<Engine>,
    /// Key of the pending [`Ev::EngineDue`] event.
    due_key: Option<EventKey>,
    /// The pipeline is cold-loading until this instant (Rerouting).
    ready_at: SimTime,
}

/// A reconfiguration in flight.
#[derive(Debug)]
struct Transition {
    epoch: u64,
    /// Earliest kill deadline that motivated this transition, if any.
    deadline: Option<SimTime>,
}

/// The fleet's SKU lanes: one optimizer lane per distinct pool SKU, so a
/// homogeneous fleet has exactly one. Decisions, pricing and placement all
/// go through them.
#[derive(Debug)]
struct LaneState {
    /// Optimizer lane index of each pool (lane order = first-seen SKU
    /// order across the pool list).
    pool_lane: Vec<usize>,
    /// The lane whose SKU the serving mesh currently runs on (prices
    /// running batches and the old side of a migration).
    active: usize,
    /// The lane the latest decision's `now` config is shaped for (prices
    /// the new mesh; placement draws from this lane's pools). Becomes
    /// `active` when the configuration is adopted.
    decided: usize,
}

/// The perf model pricing the *serving* mesh: the active lane's. A free
/// function over the two fields so call sites holding disjoint `&mut`
/// borrows of the system keep compiling.
fn serving_perf<'a>(optimizer: &'a ConfigOptimizer, lanes: &LaneState) -> &'a PerfModel {
    optimizer.lane_perf(lanes.active)
}

/// The perf model pricing the *decided* (incoming) mesh — differs from
/// [`serving_perf`] only mid-transition across lanes.
fn decided_perf<'a>(optimizer: &'a ConfigOptimizer, lanes: &LaneState) -> &'a PerfModel {
    optimizer.lane_perf(lanes.decided)
}

/// The capability card kmatch prices cross-SKU edges with.
fn sku_caps(ty: &InstanceType) -> SkuCaps {
    SkuCaps {
        memory_bytes: ty.gpu.memory_bytes,
        link_bandwidth: ty.net.inter_bw,
    }
}

/// The grace-period triage decision attached to a migration plan (see
/// [`migration::triage`]): which tier the transferable-data fraction
/// graded into, and the fraction itself (what share of the optional
/// checkpoint data the remaining grace can move).
#[derive(Debug, Clone, Copy)]
struct CheckpointTriage {
    tier: TriageTier,
    fraction: f64,
    /// The tier an undegraded link would have earned, when a chaos
    /// degraded-link window cost a tier (the transfer stretched past the
    /// grace budget and triage downgraded instead of blowing it).
    downgraded_from: Option<TriageTier>,
}

impl CheckpointTriage {
    fn full() -> Self {
        CheckpointTriage {
            tier: TriageTier::Full,
            fraction: 1.0,
            downgraded_from: None,
        }
    }
}

/// The telemetry rendering of a triage tier.
fn verdict_of(tier: TriageTier) -> TriageVerdict {
    match tier {
        TriageTier::Full => TriageVerdict::Full,
        TriageTier::Partial => TriageVerdict::Partial,
        TriageTier::Restart => TriageVerdict::Restart,
    }
}

/// The discrete-event serving simulation. See the crate-level example.
pub struct ServingSystem {
    opts: SystemOptions,
    scenario: Scenario,
    optimizer: ConfigOptimizer,
    cloud: CloudMarket,
    /// Policy-driven acquisition: the one place every system, under every
    /// [`FleetPolicy`], decides what to request, cancel and release.
    fleet: FleetController,
    /// The optimizer's most recent target fleet size `N` (serving need,
    /// excluding spares) — what the fleet controller steers toward.
    fleet_target: u32,
    events: EventQueue<Ev>,
    now: SimTime,
    epoch: u64,

    // Fleet state.
    ready: BTreeSet<InstanceId>,
    initializing: BTreeMap<InstanceId, SimTime>,
    noticed: BTreeMap<InstanceId, SimTime>,

    // Serving state.
    current: Option<ParallelConfig>,
    /// The configuration whose context is materialized on `assignment` —
    /// survives serving halts (the model context outlives the engines).
    context_shape: Option<ParallelConfig>,
    assignment: DeviceAssignment,
    pipelines: Vec<PipelineSlot>,
    /// Waiting requests, with the EDF dirty flag the continuous engine's
    /// admission consults (pushes dirty it, boundary sorts clear it).
    pending: PendingQueue,
    transition: Option<Transition>,
    next_pipeline_id: u64,
    /// Rate-triggered reconfigurations are suppressed until this instant
    /// (hysteresis: let the previous transition settle).
    settle_until: SimTime,
    rerouting_shape: Option<(u32, u32, u32)>, // fixed (P, M, B)
    /// The bootstrap configuration (the `-Controller` ablation pins this).
    frozen_config: Option<ParallelConfig>,
    /// Last spot price (cents/hour) each pool was seen at, for
    /// edge-triggered price-pressure feeding under
    /// [`FleetPolicy::CostPerToken`]. Empty until first consulted.
    last_spot_cents: Vec<u32>,
    /// The fleet's SKU lanes (see [`LaneState`]).
    lanes: LaneState,
    /// Each pool's capability card (its SKU and whether the model fits
    /// it), fixed for the run and built at the first fleet view; a view
    /// adds the current spot price.
    pool_caps: OnceCell<Vec<PoolCaps>>,

    // Accounting.
    outstanding: usize,
    /// Arrival instants the rate estimator can still read, oldest first:
    /// each arrival drops those before the estimator's window.
    recent_arrivals: VecDeque<SimTime>,
    /// Whether any request has arrived: until one has, the estimate is
    /// the scenario's initial rate; after, a lull reads 0 req/s.
    seen_arrival: bool,
    slo_rejections: Vec<Request>,
    latency: LatencyReport,
    config_changes: Vec<ConfigChange>,
    fleet_timeline: Vec<(SimTime, u32, u32)>,
    preemptions: u32,
    faults: u32,
    lapses: u32,
    grants: u32,
    /// Control-plane telemetry recorder (decisions, transitions, fleet
    /// commands, rollups). Disabled unless [`SystemOptions::telemetry`];
    /// disabled it is one branch per emit point.
    telemetry: Recorder,
    /// Admission-verdict tallies of schedulers already torn down; live
    /// schedulers' counters are added at rollup time so the cumulative
    /// totals survive detach/restore cycles.
    retired_counters: EngineCounters,
}

impl ServingSystem {
    /// Builds a system ready to [`run`](ServingSystem::run).
    pub fn new(opts: SystemOptions, scenario: Scenario) -> Self {
        let gpus_per_instance = scenario.cloud.instance_type.gpus_per_instance;
        let mem = if opts.ablation.no_migration_planner {
            // Without Algorithm 2's memory-optimized ordering, engines must
            // reserve communication buffers sized like a weight shard
            // (§6.2: this is what raises GPT-20B's minimum from 12 to 16
            // GPUs). Use the shard size at the paper's largest mesh.
            let shard = scenario.model.param_bytes() / 16;
            llmsim::MemoryModel::default().with_migration_buffer(shard)
        } else {
            llmsim::MemoryModel::default()
        };
        let mut optimizer = ConfigOptimizer::new(
            parallelism::PerfModel::paper_defaults(scenario.model.clone()),
            mem,
            scenario.cloud.instance_type.gpu,
            parallelism::ConfigSpace::default(),
            gpus_per_instance,
            opts.max_instances,
        )
        // Algorithm 1 prices candidates with the estimator of the engine
        // that actually serves (fixed batch-fill delay vs iteration-level
        // slot turnover).
        .with_engine_mode(opts.engine);
        // A scenario without pools is one pool of the base type replaying
        // its trace.
        let default_pool;
        let pools = if scenario.pools.is_empty() {
            default_pool = [PoolSpec::new("default", scenario.trace.clone())];
            &default_pool[..]
        } else {
            &scenario.pools[..]
        };
        // One optimizer lane per distinct SKU, pools mapped onto lanes in
        // first-seen order.
        let base_ty = &scenario.cloud.instance_type;
        let mut lane_types: Vec<&InstanceType> = Vec::new();
        let pool_lane = pools
            .iter()
            .map(|p| {
                let ty = p.instance_type.as_ref().unwrap_or(base_ty);
                lane_types.iter().position(|t| *t == ty).unwrap_or_else(|| {
                    lane_types.push(ty);
                    lane_types.len() - 1
                })
            })
            .collect();
        for ty in lane_types {
            optimizer = optimizer.with_sku(ty.clone());
        }
        let lanes = LaneState {
            pool_lane,
            active: 0,
            decided: 0,
        };
        let mut cloud = CloudMarket::new(&scenario.cloud, pools, scenario.seed);
        if opts.telemetry {
            cloud.enable_telemetry();
        }
        let fleet = FleetController::new(
            opts.fleet_policy,
            cloud.pool_count(),
            scenario.cloud.spot_grant_delay,
        );
        let name = match opts.policy {
            Policy::SpotServe => "SpotServe",
            Policy::Reparallelization => "Reparallelization",
            Policy::Rerouting => "Rerouting",
            Policy::OnDemandOnly { .. } => "OnDemand",
        };
        let telemetry = if opts.telemetry {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        ServingSystem {
            opts,
            optimizer,
            cloud,
            fleet,
            fleet_target: 0,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            epoch: 0,
            ready: BTreeSet::new(),
            initializing: BTreeMap::new(),
            noticed: BTreeMap::new(),
            current: None,
            context_shape: None,
            assignment: DeviceAssignment::new(),
            pipelines: Vec::new(),
            pending: PendingQueue::new(),
            transition: None,
            next_pipeline_id: 0,
            settle_until: SimTime::ZERO,
            rerouting_shape: None,
            frozen_config: None,
            last_spot_cents: Vec::new(),
            lanes,
            pool_caps: OnceCell::new(),
            outstanding: scenario.requests.len(),
            recent_arrivals: VecDeque::new(),
            seen_arrival: false,
            slo_rejections: Vec::new(),
            latency: LatencyReport::new(name),
            config_changes: Vec::new(),
            fleet_timeline: Vec::new(),
            preemptions: 0,
            faults: 0,
            lapses: 0,
            grants: 0,
            telemetry,
            retired_counters: EngineCounters::default(),
            scenario,
        }
    }

    /// GPUs per instance of the SKU new configurations are shaped for (the
    /// decided lane's).
    fn gpus_per_instance(&self) -> u8 {
        self.optimizer
            .lane_type(self.lanes.decided)
            .gpus_per_instance
    }

    /// Instances usable for serving decisions: engine up, not being killed.
    fn usable(&self) -> Vec<InstanceId> {
        self.ready
            .iter()
            .copied()
            .filter(|id| !self.noticed.contains_key(id))
            .collect()
    }

    /// How many instances [`usable`](Self::usable) lists, without listing
    /// them: the ready ones less those both ready and noticed (a notice
    /// can also land on an instance still initializing).
    fn usable_count(&self) -> u32 {
        let noticed_ready = self
            .noticed
            .keys()
            .filter(|id| self.ready.contains(id))
            .count();
        let n = (self.ready.len() - noticed_ready) as u32;
        debug_assert_eq!(n as usize, self.usable().len());
        n
    }

    /// The SKU lane instance `id` belongs to.
    fn lane_of_instance(&self, id: InstanceId) -> usize {
        self.lanes.pool_lane[PoolId::of_instance(id).0 as usize]
    }

    /// Usable instances per lane, in lane registration order (the first
    /// `lane_count()` entries): one pass over the ready instances, less
    /// those both ready and noticed.
    fn lane_avail(&self) -> [u32; MAX_SKU_LANES] {
        let mut avail = [0u32; MAX_SKU_LANES];
        for &id in &self.ready {
            avail[self.lane_of_instance(id)] += 1;
        }
        for &id in self.noticed.keys() {
            if self.ready.contains(&id) {
                avail[self.lane_of_instance(id)] -= 1;
            }
        }
        avail
    }

    /// Every GPU of `instances`, instance by instance.
    fn gpus_of(&self, instances: &[InstanceId]) -> Vec<cloudsim::GpuRef> {
        let gpi = self.gpus_per_instance();
        instances
            .iter()
            .flat_map(|&i| (0..gpi).map(move |s| cloudsim::GpuRef::new(i, s)))
            .collect()
    }

    /// Instances a new mesh may be placed on: the decided lane's usable
    /// instances (the serving mesh stays single-SKU).
    fn placement_instances(&self) -> Vec<InstanceId> {
        self.usable()
            .into_iter()
            .filter(|&id| self.lane_of_instance(id) == self.lanes.decided)
            .collect()
    }

    /// Whether the latest decision moves the mesh to another SKU.
    fn lane_change(&self) -> bool {
        self.lanes.decided != self.lanes.active
    }

    /// Maps a lane-annotated decision onto the serving loop's decision
    /// shape, recording the decided lane and the target lane's fleet size.
    fn apply_decision(&mut self, d: MultiSkuDecision) -> OptimizerDecision {
        if let Some((lane, _)) = d.now {
            self.lanes.decided = lane;
        }
        if let Some((lane, c)) = d.target {
            self.fleet_target =
                c.instances_needed(self.optimizer.lane_type(lane).gpus_per_instance);
        }
        d.into()
    }

    /// Algorithm 1 for the serving loop: the joint `(SKU, C, B)` decision
    /// across the fleet's lanes, biased toward the serving configuration
    /// on its own lane.
    fn decide_serving(&mut self, alpha: f64) -> OptimizerDecision {
        let hits_before = self.optimizer.memo_hits();
        let incumbent = self.current.map(|c| (self.lanes.active, c));
        let avail = self.lane_avail();
        let d = self.optimizer.decide_multi_with_incumbent(
            &avail[..self.optimizer.lane_count()],
            alpha,
            incumbent,
        );
        let d = self.apply_decision(d);
        self.note_decision(&d, hits_before);
        d
    }

    /// Telemetry surface of an Algorithm 1 decision: the `(SKU, C, B)`
    /// picked (or the halt verdict) and whether a memo answered it.
    fn note_decision(&mut self, d: &OptimizerDecision, memo_hits_before: u64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let memo_hit = self.optimizer.memo_hits() > memo_hits_before;
        let ev = match d.now {
            Some(c) => TelemetryEvent::Decision {
                sku: self.optimizer.lane_type(self.lanes.decided).name,
                data: c.data,
                pipe: c.pipeline,
                tensor: c.tensor,
                batch: c.batch,
                memo_hit,
            },
            None => TelemetryEvent::DecisionHalt { memo_hit },
        };
        self.telemetry.emit(self.now, ev);
    }

    fn sample_fleet(&mut self) {
        let (mut spot, mut od) = (0, 0);
        for &id in self.ready.iter().chain(self.initializing.keys()) {
            match self.cloud.kind_of(id) {
                Some(InstanceKind::Spot) => spot += 1,
                Some(InstanceKind::OnDemand) => od += 1,
                None => {}
            }
        }
        self.fleet_timeline.push((self.now, spot, od));
    }

    /// The start of the rate estimator's window: four rate ticks back.
    fn rate_window_start(&self) -> SimTime {
        SimTime::from_micros(
            self.now
                .as_micros()
                .saturating_sub(RATE_TICK.as_micros() * 4),
        )
    }

    /// Records an arrival at `at` for the rate estimator, dropping the
    /// instants no later estimate can read (the window only moves on).
    fn note_arrival(&mut self, at: SimTime) {
        let lo = self.rate_window_start();
        while self.recent_arrivals.front().is_some_and(|&t| t < lo) {
            self.recent_arrivals.pop_front();
        }
        self.recent_arrivals.push_back(at);
        self.seen_arrival = true;
    }

    /// Estimated arrival rate over the last rate-tick window (§3.2).
    fn rate_estimate(&self) -> f64 {
        if self.now == SimTime::ZERO || !self.seen_arrival {
            return self.scenario.initial_rate;
        }
        let lo = self.rate_window_start();
        let recent = self
            .recent_arrivals
            .iter()
            .rev()
            .take_while(|&&t| t >= lo)
            .count();
        let span = self.now.saturating_since(lo).as_secs_f64().max(1.0);
        recent as f64 / span
    }

    /// Runs the simulation to completion and reports.
    pub fn run(self) -> RunReport {
        self.run_counted().0
    }

    /// [`run`](Self::run), also returning how many events the run
    /// processed (the sharded runner's per-shard work count).
    pub(crate) fn run_counted(mut self) -> (RunReport, u64) {
        // Warm start, the arrival stream, and the first rate tick.
        self.bootstrap();
        // Arrivals fire beside the event heap, in arrival order (a stable
        // sort keeps requests due at one instant in list order), from
        // positions reserved as if every one had been scheduled here, so
        // ties with queued events resolve as if they sat in the heap.
        let requests = &mut self.scenario.requests;
        if !requests.is_sorted_by_key(|r| r.arrival) {
            requests.sort_by_key(|r| r.arrival);
        }
        let slots = self.events.reserve(requests.len());
        let mut fired = 0;
        self.events
            .schedule(SimTime::ZERO + RATE_TICK, Ev::RateTick);
        // Step until every request settles, the event horizon empties, or
        // the drain cap passes.
        let last_arrival = requests.last().map_or(SimTime::ZERO, |r| r.arrival);
        let hard_stop = last_arrival + self.opts.drain_cap;
        let mut events = 0;
        while self.outstanding > 0 {
            // The next arrival fires first exactly when it would have
            // popped first from a heap holding every arrival.
            let arrival = self.scenario.requests.get(fired).map(|r| r.arrival);
            let arrival = arrival.filter(|&at| self.events.precedes(slots, fired, at));
            let next_internal = arrival.or_else(|| self.events.peek_time());
            let next_cloud = self.cloud.next_time();
            let Some(next) = next_internal.into_iter().chain(next_cloud).min() else {
                break;
            };
            if next > hard_stop {
                break;
            }
            // The serving loop's own events win ties with the cloud; a
            // cloud step that only processes a market event delivers
            // nothing and leaves the clock where it is.
            if next_internal == Some(next) {
                self.now = next;
                events += 1;
                if arrival.is_some() {
                    self.on_arrival(fired);
                    fired += 1;
                } else {
                    let (_, ev) = self.events.pop().expect("peeked");
                    self.on_event(ev);
                }
            } else if let Some((_, ev)) = self.cloud.step() {
                self.now = next;
                events += 1;
                self.on_cloud_event(ev);
            }
        }
        (self.finish(), events)
    }

    /// Releases the fleet and closes the books.
    fn finish(mut self) -> RunReport {
        // Close the stream with a final rollup, then capture it BEFORE the
        // teardown lease releases below: those are end-of-run bookkeeping,
        // not market events, and would drag every live-floor query to zero.
        self.emit_rollups();
        let telemetry = self.telemetry.is_enabled().then(|| {
            TelemetryStream::from_sources(vec![self.cloud.take_telemetry(), self.telemetry.take()])
        });
        let ids: Vec<InstanceId> = self.cloud.fleet().map(|i| i.id).collect();
        for id in ids {
            self.cloud.release(self.now, id);
        }
        RunReport {
            cost_usd: self.cloud.total_usd(self.now),
            cost_breakdown: self.cloud.cost_breakdown(self.now),
            latency: self.latency,
            unfinished: self.outstanding,
            config_changes: self.config_changes,
            finished_at: self.now,
            preemptions: self.preemptions,
            faults: self.faults,
            lapses: self.lapses,
            grants: self.grants,
            fleet_timeline: self.fleet_timeline,
            slo_rejections: self.slo_rejections,
            telemetry,
        }
    }

    /// Warm start: the paper's runs begin with an initialized system.
    fn bootstrap(&mut self) {
        let alpha = self.scenario.initial_rate;
        match self.opts.policy {
            Policy::OnDemandOnly { instances } => {
                let ids = self.cloud.prewarm_on_demand(instances);
                self.ready.extend(ids);
            }
            _ => {
                // Size against the pools the policy requests spot from:
                // every pool when it hedges, the single market (pool 0)
                // otherwise.
                let pools = if self.opts.fleet_policy.is_hedged() {
                    self.cloud.pool_count()
                } else {
                    1
                };
                let caps: Vec<u32> = (0..pools)
                    .map(|i| self.cloud.capacity_in(PoolId(i as u32)))
                    .collect();
                let mut cap = vec![0u32; self.optimizer.lane_count()];
                for (pid, &c) in caps.iter().enumerate() {
                    cap[self.lanes.pool_lane[pid]] += c;
                }
                let d = self.optimizer.decide_multi(&cap, alpha);
                self.apply_decision(d);
                let target = self.fleet_target;
                // Spread target + spares + hedge across those pools so no
                // zone holds a fleet-killing share (unhedged policies
                // hedge nothing, so pool 0 takes target + spares).
                let hedge = self.fleet.hedge(target, &caps, SimTime::ZERO);
                let alloc = fleetctl::spread(target + self.opts.spare_instances + hedge, &caps);
                for (i, &n) in alloc.iter().enumerate() {
                    let ids = self.cloud.prewarm_spot_in(PoolId(i as u32), n);
                    self.ready.extend(ids);
                }
            }
        }
        // Adopt the initial configuration at zero cost (pre-loaded).
        let n = self.ready.len() as u32;
        let decision = self.decide_serving(alpha);
        if matches!(self.opts.policy, Policy::Rerouting) {
            // Fix the model-parallel shape once (§6.1: "fixed pre-defined
            // optimal model parallel configuration").
            if let Some(c) = decision.now.or(decision.target) {
                self.rerouting_shape = Some((c.pipeline, c.tensor, c.batch));
            }
        }
        self.frozen_config = decision.now;
        if let Some(cfg) = self.pick_config(decision.now, n) {
            self.adopt_config(cfg, SimDuration::ZERO, 0, 0);
        }
        // A capacity-limited warm start may leave the fleet short of
        // target: let the controller top it up from t = 0.
        self.steer_fleet();
        self.sample_fleet();
    }

    /// Applies the policy's configuration constraints to a decision.
    fn pick_config(&self, suggested: Option<ParallelConfig>, n: u32) -> Option<ParallelConfig> {
        match self.opts.policy {
            Policy::Rerouting => {
                let (p, m, b) = self.rerouting_shape?;
                let per =
                    ParallelConfig::new(1, p, m, b).instances_needed(self.gpus_per_instance());
                let d = n / per;
                (d > 0).then(|| ParallelConfig::new(d, p, m, b))
            }
            _ => {
                // The ablated controller is frozen at the bootstrap choice:
                // the shape never adapts; data parallelism degrades when the
                // fleet cannot hold it and restores afterwards.
                if let Some(frz) = self
                    .frozen_config
                    .filter(|_| self.opts.ablation.no_controller)
                {
                    let per = ParallelConfig::new(1, frz.pipeline, frz.tensor, frz.batch)
                        .instances_needed(self.gpus_per_instance());
                    let d = (n / per).min(frz.data);
                    return (d > 0)
                        .then(|| ParallelConfig::new(d, frz.pipeline, frz.tensor, frz.batch));
                }
                suggested
            }
        }
    }

    fn on_cloud_event(&mut self, ev: CloudEvent) {
        match ev {
            CloudEvent::SpotGranted { id } | CloudEvent::OnDemandGranted { id } => {
                self.grants += 1;
                if matches!(ev, CloudEvent::SpotGranted { .. }) {
                    // Retire the oldest outstanding request deadline for
                    // this pool and reset its failure streak.
                    self.fleet.observe_grant(PoolId::of_instance(id).0 as usize);
                }
                let done = self.now + ENGINE_LAUNCH;
                self.initializing.insert(id, done);
                self.events.schedule(done, Ev::InitDone { id });
                self.sample_fleet();
            }
            CloudEvent::PreemptionNotice { id, kill_at } => {
                self.preemptions += 1;
                self.noticed.insert(id, kill_at);
                self.on_preemption_notice(id, kill_at);
                self.sample_fleet();
            }
            CloudEvent::Preempted { id } | CloudEvent::InstanceFailed { id } => {
                // `InstanceFailed` is an unannounced death: a chaos kill,
                // or a preemption whose notice the harness swallowed. No
                // grace window ever existed — the context on this
                // instance is gone, so take the §4.2 fault path
                // immediately with whatever survived.
                let unannounced = matches!(ev, CloudEvent::InstanceFailed { .. });
                if unannounced {
                    self.faults += 1;
                }
                // Feed the per-pool churn estimator (sizes the hedge).
                self.fleet
                    .observe_kill(PoolId::of_instance(id).0 as usize, self.now);
                self.ready.remove(&id);
                self.initializing.remove(&id);
                self.noticed.remove(&id);
                self.on_instance_gone(id, unannounced);
                self.sample_fleet();
            }
            CloudEvent::RequestLapsed { pool, .. } => {
                // A promised grant never materialized (capacity shed, or
                // the chaos grant-lapse channel). Under a hedged policy the
                // tracker's backoff masks the pool from the spread; the
                // single-market policies retry blindly at the next steer.
                self.lapses += 1;
                if let Some(d) = self.fleet.observe_lapse(pool.0 as usize, self.now) {
                    self.note_retry(d);
                }
            }
            CloudEvent::SpotPriceStep { .. } => {
                // A market re-quote changes no lease; it is purely a
                // steering point. The controller re-reads every pool's
                // price card (and the parity mask / price-pressure feed
                // under `CostPerToken`) in `steer_fleet` below.
            }
        }
        // Every cloud transition is a steering point for the controller.
        self.steer_fleet();
    }

    fn on_arrival(&mut self, i: usize) {
        let req = self.scenario.requests[i];
        self.note_arrival(req.arrival);
        self.pending.push_back(req);
        self.dispatch_all();
    }

    fn on_event(&mut self, ev: Ev) {
        match ev {
            Ev::EngineDue { pipeline } => {
                if let Some(idx) = self.pipelines.iter().position(|s| s.id == pipeline) {
                    self.on_engine_due(idx);
                    self.dispatch_all();
                }
            }
            Ev::InitDone { id } => {
                if self.initializing.remove(&id).is_some() {
                    self.ready.insert(id);
                    self.on_instance_joined(id);
                    self.sample_fleet();
                }
            }
            Ev::TransitionCommit { epoch } => {
                if self.transition.as_ref().map(|t| t.epoch) == Some(epoch) {
                    self.commit_transition();
                }
            }
            Ev::TransitionDone { epoch } => {
                if epoch == self.epoch {
                    self.dispatch_all();
                }
            }
            Ev::PipelineReady { pipeline } => {
                if let Some(slot) = self.pipelines.iter_mut().find(|s| s.id == pipeline) {
                    slot.ready_at = self.now;
                    self.dispatch_all();
                }
            }
            Ev::RateTick => {
                self.on_rate_tick();
                if self.outstanding > 0 {
                    self.events.schedule(self.now + RATE_TICK, Ev::RateTick);
                }
            }
        }
    }

    // ---- Engine lifecycle ------------------------------------------

    /// KV-cache bytes one pipeline's engine provisions under `cfg` (the
    /// scheduler's admission budget, from [`llmsim::MemoryModel`]).
    fn pipeline_kv_budget(&self, cfg: &ParallelConfig) -> u64 {
        self.optimizer
            .memory()
            .kv_bytes_per_gpu(&self.scenario.model, cfg.pipeline, cfg.tensor)
            * cfg.gpus_per_pipeline() as u64
    }

    fn dispatch_all(&mut self) {
        match self.opts.engine {
            EngineMode::ContinuousBatching => self.dispatch_continuous(),
            EngineMode::FixedBatch => self.dispatch_fixed(),
        }
    }

    /// Fixed-batch engine: form a full batch on every idle ready pipeline
    /// and run it to completion.
    fn dispatch_fixed(&mut self) {
        let Some(cfg) = self.current else { return };
        for pi in 0..self.pipelines.len() {
            if self.pending.is_empty() {
                break;
            }
            let slot = &self.pipelines[pi];
            if slot.due_key.is_some() || slot.ready_at > self.now {
                continue;
            }
            let take = (cfg.batch as usize).min(self.pending.len());
            let reqs: Vec<Request> = self.pending.drain_front(take).collect();
            let run = BatchRun::start(
                reqs,
                &cfg,
                self.now,
                serving_perf(&self.optimizer, &self.lanes),
            );
            self.schedule_engine_due(pi, run.finish_time());
            self.pipelines[pi].engine = Some(Engine::Batch(run));
        }
    }

    /// Schedules pipeline `pi`'s [`Ev::EngineDue`] event at `at`.
    fn schedule_engine_due(&mut self, pi: usize, at: SimTime) {
        let pipeline = self.pipelines[pi].id;
        let key = self.events.schedule(at, Ev::EngineDue { pipeline });
        self.pipelines[pi].due_key = Some(key);
    }

    /// Accounts requests dropped by SLO-aware admission on pipeline `pi`:
    /// a hopeless deadline is a terminal outcome, not a retry.
    fn drain_rejections(&mut self, pi: usize) {
        let Some(Engine::Scheduler(sched)) = &mut self.pipelines[pi].engine else {
            return;
        };
        for req in sched.take_rejected() {
            self.outstanding -= 1;
            self.telemetry
                .emit(self.now, TelemetryEvent::SloRejection { request: req.id.0 });
            self.slo_rejections.push(req);
        }
    }

    /// Continuous engine: admit waiting requests into each ready
    /// pipeline's iteration scheduler — immediately when the pipeline is
    /// at a boundary (or idle), otherwise by truncating the running
    /// segment to the next iteration boundary.
    fn dispatch_continuous(&mut self) {
        let Some(cfg) = self.current else { return };
        let kv_budget = self.pipeline_kv_budget(&cfg);
        let kv_bpt = self.scenario.model.kv_bytes_per_token();
        let chunk = self.opts.prefill_chunk;
        let now = self.now;
        // First pass: pipelines at a boundary (or idle) admit directly.
        for pi in 0..self.pipelines.len() {
            if self.pending.is_empty() {
                return;
            }
            if self.pipelines[pi].ready_at > self.now {
                continue;
            }
            let Engine::Scheduler(sched) = self.pipelines[pi].engine.get_or_insert_with(|| {
                Engine::Scheduler(
                    IterationScheduler::new(cfg, kv_bpt, kv_budget).with_prefill_chunk(chunk),
                )
            }) else {
                continue;
            };
            if sched.next_event().is_none() {
                sched.admit(
                    &mut self.pending,
                    now,
                    serving_perf(&self.optimizer, &self.lanes),
                );
                let next = sched.next_event();
                self.drain_rejections(pi);
                if let Some(t) = next {
                    self.schedule_engine_due(pi, t);
                }
            }
        }
        // Second pass: find the first queued request some pipeline can
        // admit right now — skipping SLO-deferred requests in place, just
        // as the scheduler's own admission scan does, so a deferred head
        // cannot stall an admittable successor for a whole segment — and
        // truncate only the target pipeline's segment (the earliest
        // upcoming boundary among those with room); the others keep
        // decoding undisturbed. A request that fits *nowhere* ends the
        // scan: that is capacity head-blocking, unchanged from before.
        let perf = serving_perf(&self.optimizer, &self.lanes);
        let mut target: Option<usize> = None;
        for r in self.pending.iter() {
            let mut fits_somewhere = false;
            let mut best: Option<(SimTime, usize)> = None;
            for (pi, slot) in self.pipelines.iter().enumerate() {
                if slot.ready_at > now {
                    continue;
                }
                let Some(Engine::Scheduler(sched)) = &slot.engine else {
                    continue;
                };
                if !sched.fits(r) {
                    continue;
                }
                fits_somewhere = true;
                if sched.slo_verdict(r, now, perf) != AdmissionVerdict::Admit {
                    continue; // SLO-deferred on this pipeline
                }
                if let Some(t) = sched.next_boundary_after(now) {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, pi));
                    }
                }
            }
            if let Some((_, pi)) = best {
                target = Some(pi);
                break;
            }
            if !fits_somewhere {
                break;
            }
        }
        if let Some(pi) = target {
            let Some(Engine::Scheduler(sched)) = &mut self.pipelines[pi].engine else {
                unreachable!("the scan targets scheduler pipelines only");
            };
            if let Some(new_end) = sched.truncate_for_admission(now) {
                if let Some(key) = self.pipelines[pi].due_key.take() {
                    self.events.cancel(key);
                }
                self.schedule_engine_due(pi, new_end);
            }
        }
    }

    /// Pipeline `pi`'s engine is due. A fixed batch finished: its requests
    /// complete and the pipeline idles. A scheduler reached its boundary:
    /// retire finished requests, admit waiting ones, reschedule.
    fn on_engine_due(&mut self, pi: usize) {
        let now = self.now;
        let slot = &mut self.pipelines[pi];
        slot.due_key = None;
        match &mut slot.engine {
            Some(Engine::Batch(_)) => {
                if let Some(Engine::Batch(run)) = slot.engine.take() {
                    self.record_finished(run.requests().iter().copied());
                }
            }
            Some(Engine::Scheduler(sched)) => {
                let retired = sched.advance(
                    now,
                    &mut self.pending,
                    serving_perf(&self.optimizer, &self.lanes),
                );
                let next = sched.next_event();
                self.drain_rejections(pi);
                self.record_finished(retired);
                if let Some(t) = next {
                    self.schedule_engine_due(pi, t);
                }
            }
            None => {}
        }
    }

    /// Records requests whose last token committed now: the one place a
    /// request leaves an engine finished.
    fn record_finished(&mut self, requests: impl IntoIterator<Item = Request>) {
        for request in requests {
            self.latency.record(workload::RequestOutcome {
                request,
                finished: self.now,
            });
            self.outstanding -= 1;
        }
    }

    /// Puts `requests` back at the front of the queue, in their order: the
    /// one place an unfinished request returns to the queue, where it
    /// recomputes whatever it had computed.
    fn requeue_front(
        &mut self,
        requests: impl IntoIterator<Item = Request, IntoIter: DoubleEndedIterator>,
    ) {
        for req in requests.into_iter().rev() {
            self.pending.push_front(req);
        }
    }

    /// Tears down a pipeline's in-flight work, requeueing its requests at
    /// the front of the queue (recomputation path: progress is lost).
    fn requeue_pipeline(&mut self, slot: PipelineSlot) {
        if let Some(key) = slot.due_key {
            self.events.cancel(key);
        }
        match slot.engine {
            Some(Engine::Batch(run)) => self.requeue_front(run.requests().iter().copied()),
            Some(Engine::Scheduler(sched)) => {
                self.retired_counters.absorb(sched.counters());
                self.requeue_front(sched.into_requests());
            }
            None => {}
        }
    }

    // ---- Policy reactions ------------------------------------------

    fn on_preemption_notice(&mut self, id: InstanceId, kill_at: SimTime) {
        // Reactive baselines do nothing until the instance is gone.
        if self.opts.policy == Policy::SpotServe {
            let involved = self.assignment.contains_instance(id);
            if involved {
                self.plan_transition(Some(kill_at));
            } else {
                // A spare is dying: just top the pool back up.
                self.steer_fleet();
            }
        }
    }

    /// An instance left the fleet. `unannounced` marks deaths that came
    /// with no preemption notice (chaos kills, lost notices): no JIT
    /// window ever existed, so an in-flight transition timed against the
    /// old fleet is invalidated rather than left to commit stale.
    fn on_instance_gone(&mut self, id: InstanceId, unannounced: bool) {
        let involved = self.assignment.contains_instance(id);
        // Rerouting keys the assignment's pipelines by slot id: the slots
        // bound to this instance, read before its bindings go.
        let touched: Vec<u64> = if involved && self.opts.policy == Policy::Rerouting {
            self.assignment
                .iter()
                .filter(|(_, gpu)| gpu.instance == id)
                .map(|(pos, _)| u64::from(pos.pipeline))
                .collect()
        } else {
            Vec::new()
        };
        self.assignment.remove_instance(id);
        if self.assignment.is_empty() {
            self.context_shape = None;
        }
        match self.opts.policy {
            Policy::SpotServe => {
                if involved {
                    // The migration should already have moved off this
                    // instance; if not (fault case §4.2), re-plan now with
                    // whatever survived.
                    if self.transition.is_none() {
                        self.plan_transition(None);
                    } else if unannounced {
                        // Mid-transition unannounced death: the pending
                        // commit was JIT-timed against a device set that
                        // no longer exists. Abandon it and re-plan
                        // immediately with the survivors — only requests
                        // whose checkpoints lived on the dead instance
                        // lose inheritance and restart.
                        self.transition = None;
                        self.plan_transition(None);
                    }
                } else {
                    self.steer_fleet();
                }
            }
            Policy::Reparallelization => {
                if involved {
                    self.plan_transition(None);
                } else {
                    self.steer_fleet();
                }
            }
            Policy::Rerouting => {
                // Drop every pipeline touching this instance.
                if !touched.is_empty() {
                    let (dropped, kept) = std::mem::take(&mut self.pipelines)
                        .into_iter()
                        .partition(|s| touched.contains(&s.id));
                    self.pipelines = kept;
                    for slot in dropped {
                        self.assignment.remove_pipeline(slot.id as u32);
                        self.requeue_pipeline(slot);
                    }
                    self.reform_rerouting_pipelines();
                }
                self.steer_fleet();
            }
            Policy::OnDemandOnly { .. } => {}
        }
    }

    fn on_instance_joined(&mut self, _id: InstanceId) {
        match self.opts.policy {
            Policy::SpotServe | Policy::Reparallelization => {
                if self.transition.is_none() {
                    if self.current.is_none() {
                        // Halted: any capacity is worth a transition.
                        self.plan_transition(None);
                    } else {
                        // Joining capacity is an optimization opportunity,
                        // not an emergency: apply the same hysteresis as a
                        // rate tick.
                        self.on_rate_tick_decision();
                    }
                }
            }
            Policy::Rerouting => self.reform_rerouting_pipelines(),
            Policy::OnDemandOnly { .. } => {
                if self.current.is_none() {
                    self.plan_transition(None);
                }
            }
        }
    }

    fn on_rate_tick(&mut self) {
        // Rollups ride the rate tick unconditionally: the epoch cadence of
        // the stream must not depend on transition/hysteresis state.
        self.emit_rollups();
        if self.transition.is_some() || self.now < self.settle_until {
            return;
        }
        match self.opts.policy {
            Policy::SpotServe | Policy::Reparallelization => self.on_rate_tick_decision(),
            Policy::Rerouting => {
                self.reform_rerouting_pipelines();
                self.steer_fleet();
            }
            Policy::OnDemandOnly { .. } => {}
        }
        // Re-evaluate admission with the advanced clock: a request that
        // deferred on an idle pipeline (SLO projection inconclusive) must
        // eventually admit or turn certainly-hopeless rather than sit in
        // the queue until the drain cap.
        self.dispatch_all();
    }

    /// The hysteresis-guarded reconfiguration check shared by rate ticks
    /// and instance joins.
    fn on_rate_tick_decision(&mut self) {
        if self.transition.is_some() || self.now < self.settle_until {
            return;
        }
        let alpha = self.rate_estimate();
        let n = self.usable_count();
        let decision = self.decide_serving(alpha);
        let next = self.pick_config(decision.now, n);
        self.steer_fleet();
        let lane_change = self.lane_change();
        if next != self.current || lane_change {
            let worthwhile = match (self.current, next) {
                (Some(cur), Some(new)) => {
                    // Batch-only changes are free: always take them (a
                    // mesh key only matches within one SKU's lane).
                    if cur.mesh_key() == new.mesh_key() && !lane_change {
                        true
                    } else {
                        let backlog = self.pending.len();
                        let cap = cur.concurrent_requests() as usize;
                        // Overload: estimated rate exceeds capacity AND a
                        // real queue has formed (§3.2: reconfigure when
                        // serving capability is incompatible with the
                        // workload, not on estimator noise). Priced with
                        // the serving engine's own estimator.
                        let (active, decided) = (self.lanes.active, self.lanes.decided);
                        let overloaded =
                            self.optimizer.lane_throughput(active, &cur) < alpha && backlog > cap;
                        // Or a large predicted latency win while calm.
                        let cur_l = self.optimizer.lane_latency(active, &cur, alpha);
                        let new_l = self.optimizer.lane_latency(decided, &new, alpha);
                        let big_win =
                            backlog <= cap && new_l.as_secs_f64() < cur_l.as_secs_f64() * 0.7;
                        overloaded || big_win
                    }
                }
                _ => true,
            };
            if worthwhile {
                self.plan_transition(None);
            }
        }
    }

    /// Emits the epoch-granular rollups: one engine rollup plus one cost
    /// rollup per pool, every counter cumulative over the run (consumers
    /// difference adjacent rollups for windows). Rides the rate tick, so
    /// stream volume is bounded by wall-clock, not by request count.
    fn emit_rollups(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let mut counters = self.retired_counters;
        let mut residents = 0u32;
        for slot in &self.pipelines {
            match &slot.engine {
                Some(Engine::Scheduler(s)) => {
                    counters.absorb(s.counters());
                    residents += s.in_flight() as u32;
                }
                Some(Engine::Batch(run)) => residents += run.requests().len() as u32,
                None => {}
            }
        }
        self.telemetry.emit(
            self.now,
            TelemetryEvent::EngineRollup {
                queue_depth: self.pending.len() as u32,
                residents,
                admitted: counters.admitted,
                deferrals: counters.deferrals,
                rejected: counters.rejected,
                completed: self.latency.completed() as u64,
                tokens: self.latency.tokens_generated(),
            },
        );
        let breakdown = self.cloud.cost_breakdown(self.now);
        for pc in &breakdown.pools {
            self.telemetry.emit(
                self.now,
                TelemetryEvent::CostRollup {
                    pool: pc.pool.0,
                    sku: pc.sku,
                    spot_microusd: (pc.spot_usd * 1e6).round() as u64,
                    ondemand_microusd: (pc.ondemand_usd * 1e6).round() as u64,
                },
            );
        }
    }

    // ---- Fleet management ------------------------------------------

    /// Each pool's capability card: price-blind policies ignore it; the
    /// cost-aware hedge masks and biases by it.
    fn pool_caps(&self) -> &[PoolCaps] {
        self.pool_caps.get_or_init(|| {
            (0..self.cloud.pool_count())
                .map(|i| {
                    let ty = self.cloud.instance_type_in(PoolId(i as u32));
                    let fits_model = self
                        .optimizer
                        .memory()
                        .min_gpus(
                            &self.scenario.model,
                            &ty.gpu,
                            self.opts.max_instances * ty.gpus_per_instance as u32,
                        )
                        .is_some();
                    PoolCaps {
                        fits_model,
                        ..PoolCaps::of(ty)
                    }
                })
                .collect()
        })
    }

    /// A point-in-time [`FleetView`] for the controller: lease-level
    /// per-pool counts from the market, plus the optimizer's target.
    fn fleet_view(&self) -> FleetView {
        let n = self.cloud.pool_count();
        let mut pools = vec![PoolView::default(); n];
        let mut live_ondemand = 0;
        for info in self.cloud.fleet() {
            match info.kind {
                InstanceKind::OnDemand => live_ondemand += 1,
                InstanceKind::Spot => {
                    let p = PoolId::of_instance(info.id).0 as usize;
                    if info.kill_at.is_some() {
                        pools[p].noticed_spot += 1;
                    } else {
                        pools[p].live_spot += 1;
                    }
                }
            }
        }
        for (i, pool) in pools.iter_mut().enumerate() {
            let pid = PoolId(i as u32);
            pool.provisioning_spot = self.cloud.provisioning_spot_in(pid);
            pool.queued_spot = self.cloud.pending_spot_in(pid);
            pool.capacity = self.cloud.capacity_in(pid);
            // Cumulative lapse count: the visible promised-but-never-
            // delivered shortfall (capacity sheds and chaos grant lapses).
            pool.lapsed_spot = self.cloud.lapsed_spot_in(pid);
            pool.caps = self.pool_caps()[i];
            // Dynamically priced pools quote their *current* spot price,
            // not the SKU's list price. Constant pools round to the same
            // cents as the list price, keeping their views byte-identical.
            pool.caps.spot_cents_per_hour =
                (self.cloud.spot_price_in(pid, self.now) * 100.0).round() as u32;
        }
        FleetView {
            pools,
            live_ondemand,
            pending_ondemand: self.cloud.pending_on_demand(),
            target: self.fleet_target,
            spares: self.opts.spare_instances,
        }
    }

    /// Emits the retry/escalation telemetry for one tracker decision.
    fn note_retry(&mut self, d: fleetctl::RetryDecision) {
        self.telemetry.emit(
            self.now,
            TelemetryEvent::RetryScheduled {
                pool: d.pool,
                attempt: d.attempt,
                at_us: d.until.as_micros(),
            },
        );
        if d.escalate {
            self.telemetry.emit(
                self.now,
                TelemetryEvent::RetryEscalated {
                    pool: d.pool,
                    attempts: d.attempt,
                },
            );
        }
    }

    /// Consults the fleet controller and executes its command: the one
    /// acquisition call of every system under every [`FleetPolicy`]
    /// (Algorithm 1 lines 6-10: grow toward the target, mix in on-demand
    /// on the `+O` traces, release on-demand first). No-op under
    /// [`Policy::OnDemandOnly`], whose fleet is fixed.
    fn steer_fleet(&mut self) {
        if matches!(self.opts.policy, Policy::OnDemandOnly { .. }) {
            return;
        }
        if self.opts.fleet_policy == FleetPolicy::CostPerToken {
            self.feed_price_pressure();
        }
        // Safety net for grants that vanished without even a lapse event:
        // overdue request deadlines convert to failures before the
        // controller reads its own backoff masks.
        for d in self.fleet.sweep_overdue(self.now) {
            self.note_retry(d);
        }
        let view = self.fleet_view();
        let cmd = self
            .fleet
            .command_traced(&view, self.now, &mut self.telemetry);
        if cmd.is_noop() {
            return;
        }
        for (i, &k) in cmd.cancel_spot.iter().enumerate() {
            if k > 0 {
                self.cloud.cancel_pending_spot_in(PoolId(i as u32), k);
                // Voluntary cancellations retire their deadlines without
                // counting as failures.
                self.fleet.note_cancel(i, k);
            }
        }
        for (i, &k) in cmd.spot.iter().enumerate() {
            if k > 0 {
                self.cloud.request_spot_in(self.now, PoolId(i as u32), k);
                // Every issued request is due a grant (or a lapse) within
                // the tracker's deadline window (hedged policies only).
                self.fleet.note_request(i, k, self.now);
            }
        }
        if cmd.ondemand > 0 {
            match cmd.ondemand_pool {
                // Cost-aware routing: the backstop lands in the named
                // pool (and inherits its SKU). Price-blind policies leave
                // this `None` — the legacy pool-0 path, byte-identical.
                Some(p) => self
                    .cloud
                    .request_on_demand_in(self.now, PoolId(p), cmd.ondemand),
                None => self.cloud.request_on_demand(self.now, cmd.ondemand),
            }
        }
        if cmd.release > 0 {
            // Idle instances only, on-demand first (the Algorithm 1
            // line 10 release priority the controller assumes).
            self.release_surplus(cmd.release);
        }
    }

    /// Feeds spot-price spikes into the preemption estimator as an
    /// anticipatory kill signal (see
    /// [`FleetController::observe_price_pressure`]). Edge-triggered: a
    /// pool contributes pressure only when its observed price *changes*
    /// to a level at or past the parity threshold, weighted by how far
    /// past parity it landed (one kill's worth per threshold-to-2×-parity
    /// span, clamped). On clouds where preemption probability correlates
    /// with price, this widens the hedge before the notices arrive.
    fn feed_price_pressure(&mut self) {
        let n = self.cloud.pool_count();
        if self.last_spot_cents.len() != n {
            // First consultation: baseline at the SKU list price, so a
            // scenario that *starts* spiked still registers the spike.
            self.last_spot_cents = (0..n)
                .map(|i| {
                    let ty = self.cloud.instance_type_in(PoolId(i as u32));
                    (ty.spot_price_per_hour * 100.0).round() as u32
                })
                .collect();
        }
        for i in 0..n {
            let pid = PoolId(i as u32);
            let cents = (self.cloud.spot_price_in(pid, self.now) * 100.0).round() as u32;
            if cents == self.last_spot_cents[i] {
                continue;
            }
            self.last_spot_cents[i] = cents;
            let od_cents =
                (self.cloud.instance_type_in(pid).ondemand_price_per_hour * 100.0).round() as u32;
            if od_cents == 0 {
                continue;
            }
            let parity = f64::from(fleetctl::PARITY_PERMILLE) / 1000.0;
            let ratio = f64::from(cents) / f64::from(od_cents);
            if ratio >= parity {
                let weight = ((ratio - parity) / parity.max(1e-9)).clamp(0.0, 1.0);
                self.fleet.observe_price_pressure(i, weight, self.now);
            }
        }
    }

    /// Releases up to `n` instances not used by the current assignment,
    /// on-demand first (§3.2: "on-demand instances have higher priority due
    /// to their costs").
    fn release_surplus(&mut self, n: u32) {
        let mut idle: Vec<(bool, InstanceId)> = self
            .usable()
            .into_iter()
            .filter(|&id| !self.assignment.contains_instance(id))
            .map(|id| {
                let od = self.cloud.kind_of(id) == Some(InstanceKind::OnDemand);
                (!od, id) // false sorts first: on-demand first
            })
            .collect();
        idle.sort_unstable();
        for (_, id) in idle.into_iter().take(n as usize) {
            self.ready.remove(&id);
            self.cloud.release(self.now, id);
        }
    }

    // ---- Transitions (SpotServe / Reparallelization) ----------------

    /// Decides the next configuration and schedules the transition: for
    /// SpotServe under a deadline, decoding continues until the JIT-arranged
    /// stop; otherwise the transition commits immediately.
    fn plan_transition(&mut self, deadline: Option<SimTime>) {
        if self.transition.is_some() {
            return;
        }
        let alpha = self.rate_estimate();
        let n = self.usable_count();
        let decision = self.decide_serving(alpha);
        let target = self.pick_config(decision.now, n);
        self.steer_fleet();
        let lane_change = self.lane_change();
        if target == self.current && deadline.is_none() && !lane_change {
            return;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.transition = Some(Transition { epoch, deadline });
        self.telemetry.emit(
            self.now,
            TelemetryEvent::TransitionBegin {
                epoch: epoch as u32,
                deadline_us: deadline.map(|t| t.as_micros()).unwrap_or(u64::MAX),
            },
        );
        let commit_at = match (self.opts.policy, deadline) {
            (Policy::SpotServe, Some(kill_at)) => {
                // JIT arrangement: estimate migration cost, decode until
                // just enough grace remains (§4.1).
                let est = self.estimate_migration(target);
                preemption_stop_time(self.now, kill_at, est, MIGRATION_SAFETY_MARGIN)
            }
            _ => self.now,
        };
        self.events
            .schedule(commit_at, Ev::TransitionCommit { epoch });
    }

    /// The worst (minimum) chaos bandwidth multiplier across the pools
    /// hosting `instances` and the current assignment, as of now — the
    /// factor a checkpoint transfer crossing those links is slowed by.
    /// Exactly `1.0` whenever no degraded-link window is active.
    fn link_factor(&self, instances: &[InstanceId]) -> f64 {
        let mut pools: BTreeSet<u32> = BTreeSet::new();
        for &id in instances {
            pools.insert(PoolId::of_instance(id).0);
        }
        for id in self.assignment.instances() {
            pools.insert(PoolId::of_instance(id).0);
        }
        pools
            .iter()
            .map(|&p| self.cloud.bandwidth_factor_in(PoolId(p), self.now))
            .fold(1.0, f64::min)
    }

    /// Stretches a transfer duration by a degraded-link factor. The
    /// `factor == 1.0` guard keeps faults-off timelines bit-exact (no
    /// float round-trip on the clean path).
    fn stretch(d: SimDuration, factor: f64) -> SimDuration {
        if factor < 1.0 {
            SimDuration::from_secs_f64(d.as_secs_f64() / factor)
        } else {
            d
        }
    }

    /// Rough migration-time estimate for JIT arrangement (recomputed
    /// exactly at commit time). Accounts for any active degraded-link
    /// window: a slowed transfer needs the decode loop to stop earlier.
    /// Only `T_mig` is read, and the transfer set prices it without
    /// ordering the layers.
    fn estimate_migration(&self, target: Option<ParallelConfig>) -> SimDuration {
        let Some(cfg) = target else {
            return SimDuration::ZERO;
        };
        let usable = self.placement_instances();
        let needed = cfg.instances_needed(self.gpus_per_instance()) as usize;
        if usable.len() < needed {
            return SimDuration::ZERO;
        }
        let (task, _) = self.migration_task(cfg, &usable);
        let total = compute_transfers(&task).migration_time(
            decided_perf(&self.optimizer, &self.lanes)
                .cost_model()
                .net(),
            &self.scenario.storage,
        );
        Self::stretch(total, self.link_factor(&usable))
    }

    /// Maps devices toward `cfg` on `instances` and describes the
    /// migration that placement implies, carrying every pipeline's cache
    /// (none when the interruption arranger is ablated).
    fn migration_task(
        &self,
        cfg: ParallelConfig,
        instances: &[InstanceId],
    ) -> (MigrationTask, crate::devicemap::DeviceMapOutcome) {
        let stateful = !self.opts.ablation.no_interruption_arranger;
        let kv_bpt = self.scenario.model.kv_bytes_per_token();
        let cache_bytes: Vec<u64> = self
            .pipelines
            .iter()
            .map(|s| match &s.engine {
                Some(e) if stateful => e.cache_bytes_at(self.now, kv_bpt),
                _ => 0,
            })
            .collect();
        let progress: Vec<u32> = self
            .pipelines
            .iter()
            .map(|s| {
                s.engine
                    .as_ref()
                    .map_or(0, |e| e.committed_iters_at(self.now))
            })
            .collect();
        let old = OldState {
            config_and_assignment: self.context_shape.map(|c| (c, self.assignment.clone())),
            cache_bytes_per_pipeline: cache_bytes.clone(),
            progress_per_pipeline: progress,
        };
        // The mapper prices edges with each SKU's capability card:
        // forbidden where the shard exceeds the target GPU's memory,
        // discounted where the reuse crosses into a slower fabric. On one
        // lane every edge is plain reuse.
        let caps_of =
            |id: InstanceId| sku_caps(self.cloud.instance_type_in(PoolId::of_instance(id)));
        let src_lane = self
            .assignment
            .instances()
            .first()
            .map(|&id| self.lane_of_instance(id))
            .unwrap_or(self.lanes.active);
        let table = SkuTable {
            caps_of: &caps_of,
            src: sku_caps(self.optimizer.lane_type(src_lane)),
            required_bytes_per_gpu: self.optimizer.memory().required_bytes_per_gpu(
                &self.scenario.model,
                cfg.pipeline,
                cfg.tensor,
            ),
        };
        let outcome = map_devices_with_skus(
            &self.scenario.model,
            &cfg,
            instances,
            self.gpus_per_instance(),
            &old,
            !self.opts.ablation.no_device_mapper,
            Some(&table),
        );
        let task = MigrationTask {
            model: self.scenario.model.clone(),
            old_config: self.context_shape.unwrap_or(cfg),
            new_config: cfg,
            old_assignment: self.assignment.clone(),
            new_assignment: outcome.assignment.clone(),
            cache_bytes_per_pipeline: cache_bytes,
            pipeline_inheritance: outcome.inheritance.clone(),
        };
        (task, outcome)
    }

    /// Plans the migration toward `cfg` on `instances`, triaging the
    /// checkpoint when the `deadline` cannot fit the full plan (§4.2 fault
    /// tolerance, graded by the transferable-data fraction — see
    /// [`migration::triage`]). Returns the timeline of the plan to
    /// migrate, the device-map outcome, and the triage decision the commit
    /// must apply to carried requests. The weights-only floor and the
    /// Restart plan come from the full plan's own transfer set.
    fn build_plan(
        &self,
        cfg: ParallelConfig,
        instances: &[InstanceId],
        deadline: SimTime,
    ) -> (
        MigrationTimeline,
        crate::devicemap::DeviceMapOutcome,
        CheckpointTriage,
    ) {
        let (mut task, outcome) = self.migration_task(cfg, instances);
        let planner_opts = PlannerOptions {
            memory_optimized: !self.opts.ablation.no_migration_planner,
            progressive: !self.opts.ablation.no_migration_planner,
            ..PlannerOptions::default()
        };
        let net = decided_perf(&self.optimizer, &self.lanes)
            .cost_model()
            .net();
        let storage = &self.scenario.storage;
        let plan = plan_migration(&task, &planner_opts);
        let tl = evaluate_plan(&plan, net, storage);
        // A chaos degraded-link window stretches the transfer: triage
        // against the *effective* timeline, so a mid-grace slowdown
        // downgrades the tier instead of blowing the deadline.
        let factor = self.link_factor(instances);
        if self.now + Self::stretch(tl.total, factor) <= deadline {
            return (tl, outcome, CheckpointTriage::full());
        }
        // Grace too short for the full checkpoint: grade what the budget
        // *can* move against the weights-only floor and triage — full
        // migration, partial checkpoint, or restart (§4.2, refined by the
        // ≥80% / 30–80% / <30% transferable-fraction rule).
        let t_zero = tl.weights_only_total();
        let budget = deadline.saturating_since(self.now);
        let fraction = transferable_fraction(
            budget,
            Self::stretch(t_zero, factor),
            Self::stretch(tl.total, factor),
        );
        let tier = triage(fraction);
        // The tier an undegraded link would have earned: when the
        // slowdown cost a tier, the commit reports the downgrade.
        let clean_tier = if factor < 1.0 {
            if self.now + tl.total <= deadline {
                TriageTier::Full
            } else {
                triage(transferable_fraction(budget, t_zero, tl.total))
            }
        } else {
            tier
        };
        let tri = CheckpointTriage {
            tier,
            fraction,
            downgraded_from: (tier < clean_tier).then_some(clean_tier),
        };
        match tri.tier {
            // Nearly everything fits: accept the small overrun and move
            // the complete checkpoint (the fault path re-plans if the
            // kill truly lands first).
            TriageTier::Full => (tl, outcome, tri),
            // Move the deepest `fraction` of each pipeline's cache;
            // inheritance survives, shallow requests recompute.
            TriageTier::Partial => {
                let keep = tri.tier.cache_fraction(fraction);
                for bytes in &mut task.cache_bytes_per_pipeline {
                    *bytes = (*bytes as f64 * keep) as u64;
                }
                let plan = plan_migration(&task, &planner_opts);
                (evaluate_plan(&plan, net, storage), outcome, tri)
            }
            // Not worth the budget: weights only, all context abandoned.
            TriageTier::Restart => {
                let mut outcome = outcome;
                outcome.inheritance = vec![None; cfg.data as usize];
                (
                    evaluate_plan(&plan.weights_only(), net, storage),
                    outcome,
                    tri,
                )
            }
        }
    }

    /// Executes the transition decided earlier: freeze engines, migrate or
    /// restart, schedule completion.
    fn commit_transition(&mut self) {
        let Some(tr) = self.transition.as_ref() else {
            return;
        };
        let deadline = tr.deadline;
        let t_epoch = tr.epoch as u32;
        // Re-decide with the fleet as of now (it may have changed while
        // decoding through the grace period).
        let alpha = self.rate_estimate();
        let n = self.usable_count();
        let decision = self.decide_serving(alpha);
        let target = self.pick_config(decision.now, n);
        let lane_change = self.lane_change();

        // Batch-size-only change: same mesh, nothing to migrate — adopt
        // instantly without touching running batches or resident context.
        // A mesh key only matches within one SKU: crossing lanes always
        // migrates.
        if let (Some(cur), Some(cfg)) = (self.current, target) {
            if cur.mesh_key() == cfg.mesh_key() && cur != cfg && !lane_change {
                self.current = Some(cfg);
                self.context_shape = Some(cfg);
                // Running schedulers adopt the new batch capacity in place.
                for slot in &mut self.pipelines {
                    if let Some(Engine::Scheduler(s)) = &mut slot.engine {
                        s.set_config(cfg);
                    }
                }
                self.config_changes.push(ConfigChange {
                    at: self.now,
                    config: Some(cfg),
                    pause: SimDuration::ZERO,
                    migrated_bytes: 0,
                    reloaded_bytes: 0,
                });
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::TransitionCommit {
                        epoch: t_epoch,
                        verdict: TriageVerdict::Full,
                        fraction_ppm: 1_000_000,
                        migrated_bytes: 0,
                        reloaded_bytes: 0,
                        pause_us: 0,
                    },
                );
                self.transition = None;
                self.dispatch_all();
                return;
            }
            if cur == cfg && deadline.is_none() && !lane_change {
                self.transition = None;
                return;
            }
        }

        let Some(cfg) = target else {
            // Nothing feasible: drop all batches and halt serving; the
            // model context stays resident on the assignment for reuse.
            for slot in std::mem::take(&mut self.pipelines) {
                self.requeue_pipeline(slot);
            }
            self.current = None;
            self.config_changes.push(ConfigChange {
                at: self.now,
                config: None,
                pause: SimDuration::ZERO,
                migrated_bytes: 0,
                reloaded_bytes: 0,
            });
            self.telemetry
                .emit(self.now, TelemetryEvent::TransitionHalt { epoch: t_epoch });
            self.transition = None;
            return;
        };

        match self.opts.policy {
            Policy::SpotServe => {
                let usable = self.placement_instances();
                let (tl, outcome, tri) =
                    self.build_plan(cfg, &usable, deadline.unwrap_or(SimTime::MAX));
                // Stage step for progressive overlap: one stage's share of
                // a prefill pass (the incoming mesh's SKU sets the pace).
                let perf = decided_perf(&self.optimizer, &self.lanes);
                let (s_in, _) = perf.sequence_shape();
                let stage_step = perf.cost_model().prefill_time(
                    &self.scenario.model,
                    cfg.pipeline,
                    cfg.tensor,
                    cfg.batch,
                    s_in,
                ) / cfg.pipeline as u64;
                let pause = if self.opts.ablation.no_migration_planner {
                    tl.total
                } else {
                    tl.effective_pause(stage_step)
                };
                // The transfer physically crosses the (possibly degraded)
                // links: the serving pause stretches with them.
                let pause = Self::stretch(pause, self.link_factor(&usable));
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::TransitionCommit {
                        epoch: t_epoch,
                        verdict: verdict_of(tri.tier),
                        fraction_ppm: (tri.fraction * 1e6).round() as u32,
                        migrated_bytes: tl.network_bytes,
                        reloaded_bytes: tl.storage_bytes,
                        pause_us: pause.as_micros(),
                    },
                );
                if let Some(from) = tri.downgraded_from {
                    self.telemetry.emit(
                        self.now,
                        TelemetryEvent::TriageDowngrade {
                            epoch: t_epoch,
                            from: verdict_of(from),
                            to: verdict_of(tri.tier),
                        },
                    );
                }

                // Freeze pipelines, preserving progress where the cache
                // migrates (stateful recovery) and requeueing the rest.
                let mut carried: Vec<Option<Carried>> = vec![None; cfg.data as usize];
                for (pi, slot) in std::mem::take(&mut self.pipelines).into_iter().enumerate() {
                    let inherit_to = outcome
                        .inheritance
                        .iter()
                        .position(|inh| *inh == Some(pi as u32));
                    if let Some(key) = slot.due_key {
                        self.events.cancel(key);
                    }
                    match slot.engine {
                        None => {}
                        // Fixed-batch engine: a monolithic batch at uniform
                        // progress.
                        Some(Engine::Batch(run)) => {
                            let committed = run.committed_iters_at(self.now);
                            if run.finished_at(self.now) {
                                self.record_finished(run.requests().iter().copied());
                                continue;
                            }
                            // Partial triage moved only `fraction` of the
                            // cache: the batch resumes from the matching
                            // (token-exact) shallower depth.
                            let committed = match tri.tier {
                                TriageTier::Partial => (f64::from(committed) * tri.fraction) as u32,
                                _ => committed,
                            };
                            let worthwhile = recovery_worthwhile(
                                tl.total,
                                run.finish_time().saturating_since(run.started()),
                                run.iter_time(),
                                committed,
                            );
                            match inherit_to {
                                Some(d_new)
                                    if committed > 0
                                        && worthwhile
                                        && !self.opts.ablation.no_interruption_arranger =>
                                {
                                    carried[d_new] =
                                        Some(Carried::Batch(run.requests().to_vec(), committed));
                                }
                                _ => self.requeue_front(run.requests().iter().copied()),
                            }
                        }
                        // Continuous engine: a heterogeneous in-flight set,
                        // checkpointed token-exact per request.
                        Some(Engine::Scheduler(mut sched)) => {
                            self.retired_counters.absorb(sched.counters());
                            let records = sched.freeze(self.now);
                            // Last tokens committed exactly at the freeze.
                            self.record_finished(
                                records.iter().filter(|r| r.is_done()).map(|r| *r.request()),
                            );
                            let live: Vec<RequestRun> =
                                records.into_iter().filter(|r| !r.is_done()).collect();
                            // Anything with cached tokens — committed output *or*
                            // prefill chunks of a half-prefilled prompt — is a
                            // checkpoint worth considering; truly fresh requests
                            // (no KV yet) recompute via the queue.
                            let progressed: Vec<RequestRun> = live
                                .iter()
                                .copied()
                                .filter(RequestRun::has_progress)
                                .collect();
                            // Partial triage: the plan moves only `fraction` of
                            // this pipeline's cache, so carry the deepest
                            // checkpoints that fit that share (ties broken by
                            // arrival order); the rest recompute via the queue.
                            let progressed: Vec<RequestRun> = match tri.tier {
                                TriageTier::Partial => {
                                    let cached =
                                        |r: &RequestRun| u64::from(r.prefilled() + r.committed());
                                    let total: u64 = progressed.iter().map(cached).sum();
                                    let budget = (total as f64 * tri.fraction) as u64;
                                    let mut order: Vec<usize> = (0..progressed.len()).collect();
                                    order.sort_by_key(|&i| {
                                        (std::cmp::Reverse(cached(&progressed[i])), i)
                                    });
                                    let mut keep_rec = vec![false; progressed.len()];
                                    let mut used = 0u64;
                                    for &i in &order {
                                        let c = cached(&progressed[i]);
                                        if used + c <= budget {
                                            used += c;
                                            keep_rec[i] = true;
                                        }
                                    }
                                    progressed
                                        .iter()
                                        .enumerate()
                                        .filter_map(|(i, r)| keep_rec[i].then_some(*r))
                                        .collect()
                                }
                                _ => progressed,
                            };
                            // The paper's recovery guard, applied to the deepest
                            // request: migrating the cache must beat recomputing
                            // the committed tokens under the new configuration.
                            let max_committed = progressed
                                .iter()
                                .map(RequestRun::committed)
                                .max()
                                .unwrap_or(0);
                            let max_prefilled = progressed
                                .iter()
                                .map(RequestRun::prefilled)
                                .max()
                                .unwrap_or(0);
                            let worthwhile = !progressed.is_empty() && {
                                let n = progressed.len() as u32;
                                let s_in = progressed
                                    .iter()
                                    .map(|r| r.request().s_in)
                                    .max()
                                    .expect("non-empty");
                                let cost = decided_perf(&self.optimizer, &self.lanes).cost_model();
                                let prefill = cost.prefill_time(
                                    &self.scenario.model,
                                    cfg.pipeline,
                                    cfg.tensor,
                                    n,
                                    s_in,
                                );
                                let iter = cost.decode_time(
                                    &self.scenario.model,
                                    cfg.pipeline,
                                    cfg.tensor,
                                    n,
                                    s_in + max_committed / 2,
                                );
                                if max_committed > 0 {
                                    recovery_worthwhile(tl.total, prefill, iter, max_committed)
                                } else {
                                    // Only prefill chunks are cached: migrating the
                                    // partial cache must beat redoing the deepest
                                    // prefill's cached share.
                                    let redo = prefill * max_prefilled as u64 / s_in.max(1) as u64;
                                    tl.total < redo
                                }
                            };
                            match inherit_to {
                                Some(d_new)
                                    if worthwhile
                                        && !self.opts.ablation.no_interruption_arranger =>
                                {
                                    // Carry the cached requests; fresh ones (no
                                    // KV yet) and triaged-out checkpoints
                                    // recompute via the queue.
                                    let carried_ids: BTreeSet<workload::RequestId> =
                                        progressed.iter().map(|r| r.request().id).collect();
                                    self.requeue_front(
                                        live.iter()
                                            .map(|r| *r.request())
                                            .filter(|r| !carried_ids.contains(&r.id)),
                                    );
                                    carried[d_new] = Some(Carried::Records(progressed));
                                }
                                _ => self.requeue_front(live.iter().map(|r| *r.request())),
                            }
                        }
                    }
                }
                self.adopt_config_with_carry(
                    cfg,
                    outcome.assignment,
                    pause,
                    tl.network_bytes,
                    tl.storage_bytes,
                    carried,
                );
            }
            Policy::Reparallelization | Policy::OnDemandOnly { .. } => {
                // Cold restart: requeue everything, reload from storage.
                for slot in std::mem::take(&mut self.pipelines) {
                    self.requeue_pipeline(slot);
                }
                let instances = cfg.instances_needed(self.gpus_per_instance());
                let pause = ENGINE_LAUNCH
                    + self
                        .scenario
                        .storage
                        .load_time(self.scenario.model.param_bytes(), instances);
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::TransitionCommit {
                        epoch: t_epoch,
                        verdict: TriageVerdict::Restart,
                        fraction_ppm: 0,
                        migrated_bytes: 0,
                        reloaded_bytes: self.scenario.model.param_bytes(),
                        pause_us: pause.as_micros(),
                    },
                );
                self.adopt_config(cfg, pause, 0, self.scenario.model.param_bytes());
            }
            Policy::Rerouting => unreachable!("rerouting does not use global transitions"),
        }
    }

    /// Adopts `cfg` with nothing carried, on a contiguous assignment over
    /// the placement instances.
    fn adopt_config(
        &mut self,
        cfg: ParallelConfig,
        pause: SimDuration,
        migrated: u64,
        reloaded: u64,
    ) {
        let gpus = self.gpus_of(&self.placement_instances());
        let assignment = DeviceAssignment::contiguous(&cfg, &gpus);
        self.adopt_config_with_carry(
            cfg,
            assignment,
            pause,
            migrated,
            reloaded,
            vec![None; cfg.data as usize],
        );
        // Rerouting keys the assignment's pipelines by slot id (see
        // `reform_rerouting_pipelines`). It adopts a configuration only at
        // bootstrap, whose fresh slots are numbered `0..D`, so the
        // contiguous assignment's data-parallel indices already are their
        // ids.
        debug_assert!(
            self.opts.policy != Policy::Rerouting
                || (0..).zip(&self.pipelines).all(|(d, s)| s.id == d),
            "Rerouting adopts a configuration only at bootstrap"
        );
    }

    fn adopt_config_with_carry(
        &mut self,
        cfg: ParallelConfig,
        assignment: DeviceAssignment,
        pause: SimDuration,
        migrated: u64,
        reloaded: u64,
        carried: Vec<Option<Carried>>,
    ) {
        self.epoch += 1;
        // The decided SKU's mesh takes over: pricing follows it from here.
        self.lanes.active = self.lanes.decided;
        let resume_at = self.now + pause;
        self.current = Some(cfg);
        self.context_shape = Some(cfg);
        self.assignment = assignment;
        self.pipelines = (0..cfg.data)
            .map(|_| {
                let id = self.next_pipeline_id;
                self.next_pipeline_id += 1;
                PipelineSlot {
                    id,
                    engine: None,
                    due_key: None,
                    ready_at: resume_at,
                }
            })
            .collect();
        // Resume carried work (stateful recovery).
        for (d, carry) in carried.into_iter().enumerate() {
            match carry {
                None => continue,
                Some(Carried::Batch(mut reqs, committed)) => {
                    // Shrinking capacity (§3.3 footnote 2): the new
                    // configuration holds fewer concurrent requests;
                    // discard the excess cache and requeue those requests
                    // for recomputation.
                    if reqs.len() > cfg.batch as usize {
                        self.requeue_front(reqs.split_off(cfg.batch as usize));
                    }
                    let run = if committed == 0 {
                        BatchRun::start(
                            reqs,
                            &cfg,
                            resume_at,
                            serving_perf(&self.optimizer, &self.lanes),
                        )
                    } else {
                        BatchRun::resume(
                            reqs,
                            &cfg,
                            resume_at,
                            serving_perf(&self.optimizer, &self.lanes),
                            committed,
                        )
                    };
                    self.schedule_engine_due(d, run.finish_time());
                    self.pipelines[d].engine = Some(Engine::Batch(run));
                }
                Some(Carried::Records(records)) => {
                    // Shrink handling for a heterogeneous set (§3.3
                    // footnote 2): the scheduler applies its own admission
                    // rule, keeping the deepest-progress records within
                    // the new capacity and KV budget; the rest requeue for
                    // recomputation.
                    let (sched, dropped) = IterationScheduler::new(
                        cfg,
                        self.scenario.model.kv_bytes_per_token(),
                        self.pipeline_kv_budget(&cfg),
                    )
                    .with_prefill_chunk(self.opts.prefill_chunk)
                    .restore_within_budget(
                        records,
                        resume_at,
                        serving_perf(&self.optimizer, &self.lanes),
                    );
                    self.requeue_front(dropped);
                    let Some(finish) = sched.next_event() else {
                        continue;
                    };
                    self.schedule_engine_due(d, finish);
                    self.pipelines[d].engine = Some(Engine::Scheduler(sched));
                }
            }
        }
        self.config_changes.push(ConfigChange {
            at: resume_at,
            config: Some(cfg),
            pause,
            migrated_bytes: migrated,
            reloaded_bytes: reloaded,
        });
        self.settle_until = resume_at + RATE_TICK;
        let epoch = self.epoch;
        self.transition = None;
        self.events
            .schedule(resume_at, Ev::TransitionDone { epoch });
        // Give back what the new configuration does not need: the
        // controller sizes the fleet against the target (the hedge
        // deliberately holds more than `used + spares`).
        self.steer_fleet();
    }

    // ---- Rerouting specifics -----------------------------------------

    /// Forms new Rerouting pipelines from idle ready instances, cold.
    fn reform_rerouting_pipelines(&mut self) {
        let Some((p, m, b)) = self.rerouting_shape else {
            return;
        };
        let shape = ParallelConfig::new(1, p, m, b);
        let per = shape.instances_needed(self.gpus_per_instance());
        loop {
            // Idle: usable and bound in no pipeline of the assignment.
            // Counted first, since most calls find too few for a pipeline.
            let idle = |id: &&InstanceId| {
                !self.noticed.contains_key(*id) && !self.assignment.contains_instance(**id)
            };
            if (self.ready.iter().filter(idle).count() as u32) < per {
                break;
            }
            let chosen: Vec<InstanceId> = self
                .ready
                .iter()
                .filter(idle)
                .take(per as usize)
                .copied()
                .collect();
            // Cold pipeline: engine relaunch + weight load for one replica.
            let ready_at = self.now
                + ENGINE_LAUNCH
                + self
                    .scenario
                    .storage
                    .load_time(self.scenario.model.param_bytes(), per);
            let gpus = self.gpus_of(&chosen);
            let id = self.next_pipeline_id;
            self.next_pipeline_id += 1;
            // Extend the assignment with this pipeline's positions, using
            // the slot id as the pipeline namespace so reformations never
            // clobber a surviving pipeline's bindings.
            for (pos, gpu) in shape.positions().zip(&gpus) {
                let pos = parallelism::MeshPosition::new(id as u32, pos.stage, pos.shard);
                self.assignment.insert(pos, *gpu);
            }
            self.pipelines.push(PipelineSlot {
                id,
                engine: None,
                due_key: None,
                ready_at,
            });
            self.events
                .schedule(ready_at, Ev::PipelineReady { pipeline: id });
            // Track the effective configuration for reporting.
            let d_total = self.pipelines.len() as u32;
            self.current = Some(ParallelConfig::new(d_total, p, m, b));
            self.config_changes.push(ConfigChange {
                at: ready_at,
                config: self.current,
                pause: ready_at.saturating_since(self.now),
                migrated_bytes: 0,
                reloaded_bytes: self.scenario.model.param_bytes(),
            });
        }
        if self.pipelines.is_empty() {
            self.current = None;
        } else if let Some((p, m, b)) = self.rerouting_shape {
            self.current = Some(ParallelConfig::new(self.pipelines.len() as u32, p, m, b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::AvailabilityTrace;

    fn small_scenario(trace: AvailabilityTrace, rate: f64, seed: u64) -> Scenario {
        let mut s = Scenario::paper_stable(ModelSpec::opt_6_7b(), trace, rate, seed);
        // Shorten: keep the first 120 s of arrivals.
        s.requests.retain(|r| r.arrival < SimTime::from_secs(120));
        s
    }

    #[test]
    fn serves_everything_on_a_stable_fleet() {
        let scenario = small_scenario(AvailabilityTrace::constant(6), 1.0, 7);
        let total = scenario.requests.len();
        let report = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.latency.percentiles().count, total);
        assert!(report.cost_usd > 0.0);
        assert_eq!(report.preemptions, 0);
    }

    #[test]
    fn all_policies_complete_without_preemptions() {
        for opts in [
            SystemOptions::spotserve(),
            SystemOptions::reparallelization(),
            SystemOptions::rerouting(),
            SystemOptions::on_demand_only(6),
        ] {
            let scenario = small_scenario(AvailabilityTrace::constant(6), 0.8, 11);
            let report = ServingSystem::new(opts.clone(), scenario).run();
            assert_eq!(
                report.unfinished, 0,
                "{:?} left requests unfinished",
                opts.policy
            );
        }
    }

    #[test]
    fn preemption_is_survived_by_all_policies() {
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(60), 5)]);
        for opts in [
            SystemOptions::spotserve(),
            SystemOptions::reparallelization(),
            SystemOptions::rerouting(),
        ] {
            let scenario = small_scenario(trace.clone(), 1.0, 13);
            let report = ServingSystem::new(opts.clone(), scenario).run();
            assert_eq!(report.unfinished, 0, "{:?}", opts.policy);
            assert!(report.preemptions >= 1, "{:?}", opts.policy);
        }
    }

    #[test]
    fn spotserve_beats_reparallelization_under_churn() {
        let trace = AvailabilityTrace::from_steps(vec![
            (SimTime::ZERO, 6),
            (SimTime::from_secs(40), 5),
            (SimTime::from_secs(80), 4),
        ]);
        let mut p99 = Vec::new();
        for opts in [
            SystemOptions::spotserve(),
            SystemOptions::reparallelization(),
        ] {
            let scenario = small_scenario(trace.clone(), 1.2, 17);
            let report = ServingSystem::new(opts, scenario).run();
            assert_eq!(report.unfinished, 0);
            p99.push(report.latency.percentiles().p99);
        }
        assert!(
            p99[0] < p99[1],
            "SpotServe P99 {} must beat Reparallelization {}",
            p99[0],
            p99[1]
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let scenario = small_scenario(AvailabilityTrace::paper_bs(), 1.0, 23);
            let r = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
            (
                r.latency.percentiles().mean,
                r.cost_usd,
                r.config_changes.len(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn on_demand_only_never_sees_preemption() {
        let scenario = small_scenario(AvailabilityTrace::paper_bs(), 1.0, 29);
        let report = ServingSystem::new(SystemOptions::on_demand_only(5), scenario).run();
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.unfinished, 0);
    }

    /// The tentpole's acceptance scenario in miniature: the A100 spot pool
    /// collapses, the L4 pool stays healthy, and an H100 pool offers only
    /// on-demand capacity. The system must re-serve on a *different* SKU
    /// and finish every request.
    fn mixed_sku_scenario(seed: u64) -> Scenario {
        let a100 =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(60), 0)]);
        small_scenario(AvailabilityTrace::constant(0), 0.8, seed).with_pools(vec![
            PoolSpec::new("a100", a100).with_instance_type(InstanceType::a100()),
            PoolSpec::new("l4", AvailabilityTrace::constant(6))
                .with_instance_type(InstanceType::l4()),
            PoolSpec::new("h100", AvailabilityTrace::constant(0))
                .with_instance_type(InstanceType::h100()),
        ])
    }

    #[test]
    fn mixed_sku_collapse_recovers_on_another_sku_without_loss() {
        let opts =
            SystemOptions::spotserve().with_fleet_policy(fleetctl::FleetPolicy::cost_aware_hedge());
        let report = ServingSystem::new(opts, mixed_sku_scenario(41)).run();
        assert_eq!(
            report.unfinished, 0,
            "zero request loss across the SKU switch"
        );
        assert!(report.preemptions >= 1, "the A100 collapse was observed");
        assert!(
            report
                .config_changes
                .iter()
                .any(|c| c.config.is_some() && c.at > SimTime::from_secs(60)),
            "a post-collapse configuration was adopted"
        );
        assert!(report.cost_usd > 0.0);
    }

    #[test]
    fn mixed_sku_runs_are_deterministic() {
        let run = || {
            let opts = SystemOptions::spotserve()
                .with_fleet_policy(fleetctl::FleetPolicy::cost_aware_hedge());
            let r = ServingSystem::new(opts, mixed_sku_scenario(43)).run();
            (
                r.latency.percentiles().mean,
                r.cost_usd.to_bits(),
                r.config_changes.len(),
                r.preemptions,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn homogeneous_pools_register_one_lane() {
        // Multi-pool but single-SKU: one pool names the base SKU, the
        // other inherits it, and both map onto the same single lane.
        let scenario = small_scenario(AvailabilityTrace::constant(0), 0.8, 47).with_pools(vec![
            PoolSpec::new("z0", AvailabilityTrace::constant(3)),
            PoolSpec::new("z1", AvailabilityTrace::constant(3))
                .with_instance_type(cloudsim::InstanceType::g4dn_12xlarge()),
        ]);
        let sys = ServingSystem::new(
            SystemOptions::spotserve().with_fleet_policy(fleetctl::FleetPolicy::spot_hedge()),
            scenario,
        );
        assert_eq!(
            sys.optimizer.lane_count(),
            1,
            "explicit base SKU is not mixed"
        );
        assert_eq!(sys.lanes.pool_lane, [0, 0]);
        let report = sys.run();
        assert_eq!(report.unfinished, 0);
    }

    #[test]
    fn rate_estimate_reads_its_window_alone_and_zero_after_a_lull() {
        let scenario = Scenario::with_requests(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(6),
            Vec::new(),
            0.7,
            3,
        );
        let mut sys = ServingSystem::new(SystemOptions::spotserve(), scenario);
        let window = RATE_TICK * 4;
        let arrive = |sys: &mut ServingSystem, secs: u64| {
            sys.now = SimTime::from_secs(secs);
            sys.note_arrival(sys.now);
        };
        sys.now = SimTime::from_secs(5);
        assert_eq!(sys.rate_estimate(), 0.7, "no arrival yet: the initial rate");
        arrive(&mut sys, 10);
        arrive(&mut sys, 20);
        sys.now = SimTime::from_secs(30);
        assert_eq!(sys.rate_estimate(), 2.0 / 30.0);
        // A lull longer than the window reads 0, not the initial rate.
        sys.now = SimTime::from_secs(1000);
        assert_eq!(sys.rate_estimate(), 0.0);
        arrive(&mut sys, 1000);
        assert_eq!(
            sys.recent_arrivals.len(),
            1,
            "the lull's arrivals are dropped"
        );
        assert_eq!(sys.rate_estimate(), 1.0 / window.as_secs_f64());
        // A steady stream keeps one window of instants, however long.
        for secs in 1001..5000 {
            arrive(&mut sys, secs);
        }
        assert_eq!(
            sys.recent_arrivals.len() as u64,
            window.as_micros() / 1_000_000 + 1
        );
        assert_eq!(
            sys.rate_estimate(),
            (window.as_micros() / 1_000_000 + 1) as f64 / window.as_secs_f64()
        );
    }

    /// Rerouting finds a pipeline's instances through the assignment, keyed
    /// by slot id: every position must name a live slot, at bootstrap
    /// (where the slot ids are the data-parallel indices) and after a
    /// preemption drops a pipeline and a new one forms on the replacement.
    #[test]
    fn rerouting_assignment_is_keyed_by_live_slot_ids() {
        let keyed_by_live_slots = |sys: &ServingSystem| {
            let live: BTreeSet<u64> = sys.pipelines.iter().map(|s| s.id).collect();
            let keys: BTreeSet<u64> = sys
                .assignment
                .iter()
                .map(|(pos, _)| u64::from(pos.pipeline))
                .collect();
            assert_eq!(keys, live, "at {}", sys.now);
        };
        let trace = AvailabilityTrace::from_steps(vec![
            (SimTime::ZERO, 8),
            (SimTime::from_secs(60), 5),
            (SimTime::from_secs(120), 8),
        ]);
        let scenario = Scenario::with_requests(ModelSpec::opt_6_7b(), trace, Vec::new(), 0.8, 53);
        let mut sys = ServingSystem::new(SystemOptions::rerouting(), scenario);
        sys.bootstrap();
        let first: Vec<u64> = sys.pipelines.iter().map(|s| s.id).collect();
        assert_eq!(first, (0..first.len() as u64).collect::<Vec<_>>());
        keyed_by_live_slots(&sys);
        // Step the serving loop and the cloud until a pipeline formed after
        // bootstrap is live, checking the keys after every event.
        while sys.pipelines.iter().all(|s| first.contains(&s.id)) {
            let internal = sys.events.peek_time();
            let next = internal
                .into_iter()
                .chain(sys.cloud.next_time())
                .min()
                .expect("the replacement is pending");
            assert!(next < SimTime::from_secs(600), "no pipeline re-formed");
            sys.now = next;
            if internal == Some(next) {
                let (_, ev) = sys.events.pop().expect("peeked");
                sys.on_event(ev);
            } else if let Some((_, ev)) = sys.cloud.step() {
                sys.on_cloud_event(ev);
            }
            keyed_by_live_slots(&sys);
        }
        assert!(
            first
                .iter()
                .any(|id| sys.pipelines.iter().all(|s| s.id != *id)),
            "the preemption dropped a pipeline"
        );
    }

    #[test]
    fn config_history_is_recorded() {
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(50), 4)]);
        let scenario = small_scenario(trace, 1.0, 31);
        let report = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
        assert!(!report.config_changes.is_empty());
        assert!(report.config_changes[0].config.is_some());
    }
}
