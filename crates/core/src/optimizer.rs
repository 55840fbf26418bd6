//! Algorithm 1: the adaptive configuration optimizer.
//!
//! Given the currently available instance count `N_t` and the estimated
//! arrival rate `α_t`, pick the next parallel configuration `C_{t+1}`:
//!
//! * if some configuration can sustain `α_t` (`φ(C) ≥ α_t`) within the
//!   fleet ceiling, choose — among sustaining configurations — the one
//!   minimizing end-to-end request latency `l_req(C)`, breaking ties toward
//!   fewer instances (lower cost);
//! * otherwise maximize throughput within the instances at hand (`N_t`);
//! * report the instance delta so the instance manager can allocate
//!   (on-demand and spot together, §3.2) or release (on-demand first).
//!
//! # Hot-path architecture
//!
//! The paper's bound is "re-decide within 1 second" (§3.2) — and with
//! multi-pool markets every grant/preemption in every pool hits this code.
//! The decision paths therefore run over a memoized
//! [`CandidateFrontier`]: the space is enumerated and priced **once** per
//! fleet ceiling (and re-built at least twice as wide when a fleet
//! outgrows it), `feasible_at(n)` is a range lookup, Pareto-dominated
//! candidates are skipped, minimum-latency scans run in latency-floor
//! order and stop once no remaining candidate can price lower, and small
//! memos answer repeated queries outright: per `(N, α)` decision, per
//! incumbent-biased decision, per joint decision and per lane scan (see
//! [`ConfigOptimizer::memo_hits`] for which of them count as hits). Decisions
//! are **bit-identical** with the fresh-enumeration reference
//! implementations ([`ConfigOptimizer::decide_reference`] and friends),
//! which are kept — unchanged from the pre-frontier code — as the contract
//! the equivalence property test and the §6.2 pinned tests hold both paths
//! to. [`ConfigOptimizer::decide_multi`] is held to a brute-force oracle
//! in the same property-test file.

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashMap;
use std::hash::Hash;

use cloudsim::{GpuSpec, InstanceType};
use llmsim::{CostModel, MemoryModel, ModelSpec};
use parallelism::{
    enumerate_configs, CandidateFrontier, ConfigSpace, ParallelConfig, PerfModel, PricingMode,
};
use simkit::SimDuration;

use crate::config::EngineMode;

/// The optimizer's verdict for one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerDecision {
    /// The configuration to materialize *now* (fits in `N_t` instances),
    /// or `None` when even the smallest feasible mesh does not fit.
    pub now: Option<ParallelConfig>,
    /// The configuration the fleet should grow toward (may need more
    /// instances than `N_t`); equals `now` when no growth is warranted.
    pub target: Option<ParallelConfig>,
    /// `#Instances(target) − N_t` (Algorithm 1, line 6).
    pub instance_delta: i64,
}

/// The decision memo's key: one single-SKU query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemoKey {
    /// `decide(n, α)` (α keyed by its IEEE-754 bits: the memo must never
    /// conflate rates that price differently; keys carry the engine mode
    /// that priced them, so flipping modes invalidates per-entry instead of
    /// discarding the other mode's warm entries).
    Fresh {
        engine: EngineMode,
        n: u32,
        alpha_bits: u64,
    },
    /// `decide_slo(n, α, slo)`.
    Slo {
        engine: EngineMode,
        n: u32,
        alpha_bits: u64,
        slo: SimDuration,
    },
}

/// The incumbent memo's key: a [`ConfigOptimizer::decide_with_incumbent`]
/// query with an incumbent. The unbiased decision is a pure function of
/// `(engine, n, α)`, so the biased one is a pure function of this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct IncumbentKey {
    engine: EngineMode,
    n: u32,
    alpha_bits: u64,
    incumbent: ParallelConfig,
}

/// The lane-scan memo's key: one lane's minimum-latency sustaining scan
/// within `limit` instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LaneScanKey {
    engine: EngineMode,
    lane: usize,
    limit: u32,
    alpha_bits: u64,
}

/// A small memo of pure query results: repeated queries at the same
/// `(N, α)` — the common case under event churn, where every pool
/// transition re-asks the same question within one rate-tick window —
/// return without touching the frontier. Bounded and cleared wholesale
/// when full, so whether a query hits depends only on the keys inserted
/// since the last clear; keys carry the engine mode, so an engine-mode
/// flip never evicts anything.
#[derive(Debug, Clone)]
struct Memo<K, V> {
    entries: HashMap<K, V>,
}

/// Entries kept before a memo is cleared wholesale (results are pure, so
/// eviction is only a space/speed trade-off, never a correctness one).
const MEMO_CAP: usize = 64;

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            entries: HashMap::new(),
        }
    }
}

impl<K: Hash + Eq, V: Copy> Memo<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        self.entries.get(key).copied()
    }

    /// Inserts a key that missed; a full memo is cleared first.
    fn insert(&mut self, key: K, value: V) {
        if self.entries.len() >= MEMO_CAP {
            self.entries.clear();
        }
        let fresh = self.entries.insert(key, value).is_none();
        debug_assert!(fresh, "only a key that missed is inserted");
    }
}

/// The joint verdict over a heterogeneous fleet: which SKU lane serves,
/// and what configuration on it.
///
/// `now` and `target` may name *different* lanes — e.g. keep serving on
/// the surviving L4 pool while growing toward an H100 mesh — which is
/// exactly the cross-SKU migration the device mapper prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiSkuDecision {
    /// `(lane index, config)` to materialize now, or `None` when nothing
    /// fits any lane's current availability.
    pub now: Option<(usize, ParallelConfig)>,
    /// `(lane index, config)` the fleet should grow toward.
    pub target: Option<(usize, ParallelConfig)>,
    /// `#Instances(target) − avail[target lane]` — the delta on the
    /// *target lane's* pool(s); other lanes' instances are releasable.
    pub instance_delta: i64,
}

/// Upper bound on registered SKU lanes: the memo keys availability as a
/// fixed `[u32; MAX_SKU_LANES]` so it stays `Copy`.
pub const MAX_SKU_LANES: usize = 8;

/// Memo key for [`ConfigOptimizer::decide_multi`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MultiKey {
    engine: EngineMode,
    avail: [u32; MAX_SKU_LANES],
    alpha_bits: u64,
}

/// One instance type's decision lane: its own performance model (the
/// per-model calibration scale on that SKU's hardware terms) and its own
/// memoized frontier. Registered lanes are *additive* — the single-SKU
/// decision paths never consult them.
#[derive(Debug, Clone)]
struct SkuLane {
    ty: InstanceType,
    perf: PerfModel,
    frontier: RefCell<Option<CandidateFrontier>>,
}

/// The paper's Algorithm 1, parameterized by model, memory model and
/// hardware.
///
/// # Example
///
/// ```
/// use spotserve::ConfigOptimizer;
///
/// let opt = ConfigOptimizer::paper_defaults(llmsim::ModelSpec::gpt_20b(), 16);
/// // Ten 4-GPU instances, 0.35 req/s: a sustaining config exists.
/// let d = opt.decide(10, 0.35);
/// let c = d.now.expect("feasible");
/// assert!(opt.perf().throughput(&c) >= 0.35);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigOptimizer {
    perf: PerfModel,
    mem: MemoryModel,
    gpu: GpuSpec,
    space: ConfigSpace,
    gpus_per_instance: u8,
    max_instances: u32,
    /// Which engine's `φ(C)`/`l_req(C)` estimator prices candidates: the
    /// paper's fixed-batch formulas, or the re-derived continuous-batching
    /// ones ([`PerfModel::request_latency_continuous`]). Defaults to
    /// [`EngineMode::FixedBatch`] so paper-exact figures stay bit-exact;
    /// the serving system passes its own engine mode in.
    engine: EngineMode,
    /// The memoized candidate frontier, built lazily at the fleet ceiling
    /// (and grown if a query ever exceeds it).
    frontier: RefCell<Option<CandidateFrontier>>,
    /// Per-`(N, α)` decision memo over the frontier.
    memo: RefCell<Memo<MemoKey, OptimizerDecision>>,
    /// Per-`(N, α, incumbent)` memo of incumbent-biased decisions.
    incumbent_memo: RefCell<Memo<IncumbentKey, OptimizerDecision>>,
    /// Registered SKU lanes for heterogeneous fleets (empty in single-SKU
    /// operation, where no decision path reads them).
    lanes: Vec<SkuLane>,
    /// Per-`(avail, α)` memo for [`ConfigOptimizer::decide_multi`].
    multi_memo: RefCell<Memo<MultiKey, MultiSkuDecision>>,
    /// Per-`(lane, limit, α)` memo of one lane's minimum-latency scan.
    lane_memo: RefCell<Memo<LaneScanKey, Option<LatencyKey>>>,
    /// Lifetime count of decisions answered from the decision memo or the
    /// joint-decision memo (see [`ConfigOptimizer::memo_hits`]).
    memo_hits: Cell<u64>,
}

impl ConfigOptimizer {
    /// Builds an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_instance` or `max_instances` is zero.
    pub fn new(
        perf: PerfModel,
        mem: MemoryModel,
        gpu: GpuSpec,
        space: ConfigSpace,
        gpus_per_instance: u8,
        max_instances: u32,
    ) -> Self {
        assert!(gpus_per_instance > 0 && max_instances > 0);
        ConfigOptimizer {
            perf,
            mem,
            gpu,
            space,
            gpus_per_instance,
            max_instances,
            engine: EngineMode::FixedBatch,
            frontier: RefCell::new(None),
            memo: RefCell::default(),
            incumbent_memo: RefCell::default(),
            lanes: Vec::new(),
            multi_memo: RefCell::default(),
            lane_memo: RefCell::default(),
            memo_hits: Cell::new(0),
        }
    }

    /// Prices candidates with `engine`'s estimator — Algorithm 1 should
    /// model the engine that actually serves (the continuous engine has no
    /// batch-fill delay and turns slots over faster, which shifts its
    /// latency-minimizing choices toward larger batch capacities).
    /// Memo entries are keyed by engine mode, so flipping modes leaves the
    /// other mode's warm entries intact (the frontier carries both engines'
    /// pricing tables and survives too).
    pub fn with_engine_mode(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Registers a SKU lane for heterogeneous decisions: `ty`'s hardware
    /// terms under this optimizer's model-structure calibration scale and
    /// sequence shape. Lane indices are assignment order — the caller's
    /// pool→SKU mapping must use the same order. Single-SKU decision paths
    /// (`decide*`) never read lanes, so registering them cannot perturb a
    /// homogeneous replay.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_SKU_LANES`] registered lanes.
    pub fn with_sku(mut self, ty: InstanceType) -> Self {
        assert!(self.lanes.len() < MAX_SKU_LANES, "too many SKU lanes");
        let model = self.perf.model().clone();
        let scale = llmsim::calibration::calibration_scale(&model);
        let (s_in, s_out) = self.perf.sequence_shape();
        let cost = CostModel::for_instance_type(&ty).with_scale(scale);
        let perf = PerfModel::new(model, cost, s_in, s_out);
        self.lanes.push(SkuLane {
            ty,
            perf,
            frontier: RefCell::new(None),
        });
        self.multi_memo.get_mut().entries.clear();
        self
    }

    /// Number of live single-SKU memo entries (test instrumentation for
    /// the per-entry invalidation guarantee).
    #[cfg(test)]
    fn memo_len(&self) -> usize {
        self.memo.borrow().entries.len()
    }

    /// Lifetime count of `decide*` queries answered from a memo instead of
    /// a frontier scan: hits in the decision memo (`decide`,
    /// `decide_with_incumbent`'s unbiased decision, `decide_slo`) and in
    /// the joint-decision memo (`decide_multi`). The incumbent memo and the
    /// lane-scan memo never count, so a biased or joint decision counts as
    /// a hit exactly when its underlying decision memo answered it.
    /// Monotone; difference around a call to learn whether that call hit.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.get()
    }

    /// Number of registered SKU lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The instance type behind lane `i`.
    pub fn lane_type(&self, i: usize) -> &InstanceType {
        &self.lanes[i].ty
    }

    /// Lane `i`'s performance model (that SKU's hardware under the shared
    /// calibration scale).
    pub fn lane_perf(&self, i: usize) -> &PerfModel {
        &self.lanes[i].perf
    }

    /// `φ(C)` on lane `i` under the selected engine's estimator.
    pub fn lane_throughput(&self, i: usize, c: &ParallelConfig) -> f64 {
        let perf = &self.lanes[i].perf;
        match self.engine {
            EngineMode::FixedBatch => perf.throughput(c),
            EngineMode::ContinuousBatching => perf.throughput_continuous(c),
        }
    }

    /// `l_req(C, α)` on lane `i` under the selected engine's estimator.
    pub fn lane_latency(&self, i: usize, c: &ParallelConfig, alpha: f64) -> SimDuration {
        let perf = &self.lanes[i].perf;
        match self.engine {
            EngineMode::FixedBatch => perf.request_latency(c, alpha),
            EngineMode::ContinuousBatching => perf.request_latency_continuous(c, alpha),
        }
    }

    /// The engine mode whose estimator prices candidates.
    pub fn engine_mode(&self) -> EngineMode {
        self.engine
    }

    fn pricing_mode(&self) -> PricingMode {
        match self.engine {
            EngineMode::FixedBatch => PricingMode::FixedBatch,
            EngineMode::ContinuousBatching => PricingMode::ContinuousBatching,
        }
    }

    /// `φ(C)` under the selected engine's estimator (served from the
    /// frontier's cache when `c` is a priced candidate).
    pub fn estimated_throughput(&self, c: &ParallelConfig) -> f64 {
        if let Some(phi) = self
            .frontier
            .borrow()
            .as_ref()
            .and_then(|f| f.lookup(c))
            .map(|cand| cand.throughput(self.pricing_mode()))
        {
            return phi;
        }
        match self.engine {
            EngineMode::FixedBatch => self.perf.throughput(c),
            EngineMode::ContinuousBatching => self.perf.throughput_continuous(c),
        }
    }

    /// `l_req(C, α)` under the selected engine's estimator (served from
    /// the frontier's cached components when `c` is a priced candidate).
    pub fn estimated_latency(&self, c: &ParallelConfig, alpha: f64) -> simkit::SimDuration {
        if let Some(l) = self
            .frontier
            .borrow()
            .as_ref()
            .and_then(|f| f.lookup(c).map(|cand| (f, cand)))
            .map(|(f, cand)| f.latency(cand, &self.perf, self.pricing_mode(), alpha))
        {
            return l;
        }
        match self.engine {
            EngineMode::FixedBatch => self.perf.request_latency(c, alpha),
            EngineMode::ContinuousBatching => self.perf.request_latency_continuous(c, alpha),
        }
    }

    /// The paper's evaluation setup for `model` with a fleet ceiling.
    pub fn paper_defaults(model: ModelSpec, max_instances: u32) -> Self {
        ConfigOptimizer::new(
            PerfModel::paper_defaults(model),
            MemoryModel::default(),
            GpuSpec::t4(),
            ConfigSpace::default(),
            4,
            max_instances,
        )
    }

    /// The performance model in use.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// The memory model in use.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// GPUs per instance.
    pub fn gpus_per_instance(&self) -> u8 {
        self.gpus_per_instance
    }

    /// Enumerates feasible configurations for a fleet of `instances` —
    /// the reference enumeration (fresh, canonical order), which the
    /// frontier's range lookups are held bit-equal to.
    pub fn feasible(&self, instances: u32) -> Vec<ParallelConfig> {
        enumerate_configs(
            self.perf.model(),
            &self.mem,
            &self.gpu,
            &self.space,
            instances * self.gpus_per_instance as u32,
        )
    }

    // ---- The memoized frontier --------------------------------------

    /// Ensures the frontier exists and covers `ceiling` instances. Must
    /// not be called while a [`ConfigOptimizer::frontier_ref`] borrow is
    /// live.
    fn ensure_frontier(&self, ceiling: u32) {
        let current = self
            .frontier
            .borrow()
            .as_ref()
            .map(CandidateFrontier::ceiling);
        let Some(build_at) = self.build_ceiling(current, ceiling) else {
            return;
        };
        let built = CandidateFrontier::new(
            &self.perf,
            &self.mem,
            &self.gpu,
            &self.space,
            self.gpus_per_instance,
            build_at,
        );
        *self.frontier.borrow_mut() = Some(built);
    }

    /// The ceiling to (re)build a frontier at so that it covers `needed`
    /// instances, or `None` when the `current` one already does. Growth at
    /// least doubles, so a fleet creeping past the ceiling one instance at
    /// a time rebuilds logarithmically often. A wider frontier answers
    /// every query exactly as a tighter one would: each instance bucket at
    /// or below the query is the same set, and every scan and membership
    /// test clamps to the query.
    fn build_ceiling(&self, current: Option<u32>, needed: u32) -> Option<u32> {
        match current {
            Some(c) if c >= needed => None,
            Some(c) => Some(needed.max(c.saturating_mul(2))),
            None => Some(needed.max(self.max_instances)),
        }
    }

    /// The live frontier (must be [`ensure`](Self::ensure_frontier)d
    /// first).
    fn frontier_ref(&self) -> Ref<'_, CandidateFrontier> {
        Ref::map(self.frontier.borrow(), |o| {
            o.as_ref().expect("frontier ensured by caller")
        })
    }

    /// Runs Algorithm 1 for `n_instances` available instances (including
    /// grace-period arrivals, excluding instances being reclaimed) and
    /// arrival-rate estimate `alpha`.
    pub fn decide(&self, n_instances: u32, alpha: f64) -> OptimizerDecision {
        self.decide_with_incumbent(n_instances, alpha, None)
    }

    /// Like [`ConfigOptimizer::decide`], but biased toward the `incumbent`
    /// configuration: switching has a real migration cost, so the incumbent
    /// is kept whenever it still sustains `alpha` and its estimated latency
    /// is within 15% of the best candidate's.
    pub fn decide_with_incumbent(
        &self,
        n_instances: u32,
        alpha: f64,
        incumbent: Option<ParallelConfig>,
    ) -> OptimizerDecision {
        // The unbiased decision runs first, behind its own memo, so the
        // hit accounting is the same with or without an incumbent.
        let d = self.decide_fresh(n_instances, alpha);
        let Some(inc) = incumbent else { return d };
        let key = IncumbentKey {
            engine: self.engine,
            n: n_instances,
            alpha_bits: alpha.to_bits(),
            incumbent: inc,
        };
        if let Some(kept) = self.incumbent_memo.borrow().get(&key) {
            return kept;
        }
        let kept = self.keep_incumbent(d, n_instances, alpha, inc);
        self.incumbent_memo.borrow_mut().insert(key, kept);
        kept
    }

    /// `d` with the incumbent kept wherever it is within 15% of the pick
    /// (see [`ConfigOptimizer::decide_with_incumbent`]).
    fn keep_incumbent(
        &self,
        mut d: OptimizerDecision,
        n_instances: u32,
        alpha: f64,
        inc: ParallelConfig,
    ) -> OptimizerDecision {
        if inc.instances_needed(self.gpus_per_instance) > n_instances {
            return d;
        }
        // Direct membership test: the incumbent is feasible iff it is in
        // the enumerated space and fits the fleet — a binary search over
        // the frontier, not an O(|space|) re-enumeration. (A memo hit in
        // `decide_fresh` returns before touching the frontier, so ensure
        // it here.)
        self.ensure_frontier(self.max_instances.max(n_instances));
        {
            let fr = self.frontier_ref();
            if !fr.contains(&inc, n_instances) {
                return d;
            }
        }
        let keepable = |best: ParallelConfig| {
            let inc_l = self.estimated_latency(&inc, alpha);
            let best_l = self.estimated_latency(&best, alpha);
            self.estimated_throughput(&inc) >= alpha
                && inc_l != simkit::SimDuration::MAX
                && inc_l.as_secs_f64() <= best_l.as_secs_f64() * 1.15
        };
        if let Some(best) = d.now {
            if best != inc && keepable(best) {
                d.now = Some(inc);
            }
        }
        if let Some(best) = d.target {
            if best != inc && keepable(best) {
                d.target = Some(inc);
                d.instance_delta =
                    inc.instances_needed(self.gpus_per_instance) as i64 - n_instances as i64;
            }
        }
        d
    }

    /// The §3.2 alternative objective: instead of minimizing latency, meet
    /// a pre-defined SLO (`l_req(C) ≤ slo`) with the *cheapest* fleet.
    /// Falls back to plain latency minimization when no configuration can
    /// meet the SLO.
    pub fn decide_slo(
        &self,
        n_instances: u32,
        alpha: f64,
        slo: simkit::SimDuration,
    ) -> OptimizerDecision {
        let key = MemoKey::Slo {
            engine: self.engine,
            n: n_instances,
            alpha_bits: alpha.to_bits(),
            slo,
        };
        if let Some(d) = self.memo.borrow().get(&key) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return d;
        }
        let ceiling = self.max_instances.max(n_instances);
        self.ensure_frontier(ceiling);
        let mode = self.pricing_mode();
        // Cheapest-meeting selection key: (instances, l_req, canonical).
        let mut target_key: Option<(u32, SimDuration, ParallelConfig)> = None;
        let mut now_key: Option<(u32, SimDuration, ParallelConfig)> = None;
        {
            let fr = self.frontier_ref();
            for cand in fr.pruned_at(ceiling, mode) {
                let l = fr.latency(cand, &self.perf, mode, alpha);
                if l > slo {
                    continue;
                }
                let key = (cand.instances, l, cand.config);
                if target_key.is_none_or(|best| key < best) {
                    target_key = Some(key);
                }
                if cand.instances <= n_instances && now_key.is_none_or(|best| key < best) {
                    now_key = Some(key);
                }
            }
        }
        let Some((needed, _, target)) = target_key else {
            // Nothing meets the SLO anywhere: plain latency minimization —
            // memoized under the SLO key too, so a standing unmeetable SLO
            // does not re-scan the ceiling range on every event.
            let d = self.decide(n_instances, alpha);
            self.memo.borrow_mut().insert(key, d);
            return d;
        };
        let now = if needed <= n_instances {
            Some(target)
        } else {
            now_key
                .map(|(_, _, c)| c)
                .or_else(|| self.decide(n_instances, alpha).now)
        };
        let d = OptimizerDecision {
            now,
            target: Some(target),
            instance_delta: needed as i64 - n_instances as i64,
        };
        self.memo.borrow_mut().insert(key, d);
        d
    }

    // ---- Heterogeneous fleets: the joint (SKU, C, B) decision --------

    /// Ensures lane `i`'s frontier exists and covers `ceiling` instances.
    fn ensure_lane_frontier(&self, i: usize, ceiling: u32) {
        let lane = &self.lanes[i];
        let current = lane
            .frontier
            .borrow()
            .as_ref()
            .map(CandidateFrontier::ceiling);
        let Some(build_at) = self.build_ceiling(current, ceiling) else {
            return;
        };
        let built = CandidateFrontier::new(
            &lane.perf,
            &self.mem,
            &lane.ty.gpu,
            &self.space,
            lane.ty.gpus_per_instance,
            build_at,
        );
        *lane.frontier.borrow_mut() = Some(built);
    }

    /// Lane `i`'s live frontier (must be ensured first).
    fn lane_frontier_ref(&self, i: usize) -> Ref<'_, CandidateFrontier> {
        Ref::map(self.lanes[i].frontier.borrow(), |o| {
            o.as_ref().expect("lane frontier ensured by caller")
        })
    }

    /// Joint maximum-throughput candidate across lanes within each lane's
    /// current availability: maximize `φ`, break ties toward the lower
    /// lane index, then canonical config order.
    fn max_throughput_multi(
        &self,
        avail: &[u32],
        mode: PricingMode,
    ) -> Option<(usize, ParallelConfig)> {
        let mut best: Option<(f64, std::cmp::Reverse<(usize, ParallelConfig)>)> = None;
        for (i, &lane_avail) in avail.iter().enumerate().take(self.lanes.len()) {
            if lane_avail == 0 {
                continue;
            }
            self.ensure_lane_frontier(i, self.max_instances.max(lane_avail));
            let fr = self.lane_frontier_ref(i);
            for cand in fr.pruned_at(lane_avail, mode) {
                let key = (cand.throughput(mode), std::cmp::Reverse((i, cand.config)));
                let better = match &best {
                    None => true,
                    Some(b) => {
                        key.partial_cmp(b).expect("throughput is finite")
                            == std::cmp::Ordering::Greater
                    }
                };
                if better {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, std::cmp::Reverse((i, c)))| (i, c))
    }

    /// Algorithm 1 over a heterogeneous fleet: given per-lane instance
    /// availability `avail[i]` (same order as [`ConfigOptimizer::with_sku`]
    /// registration), pick the best `(SKU, C, B)` jointly.
    ///
    /// The structure mirrors [`ConfigOptimizer::decide`] exactly, with the
    /// lane index inserted into each tie-break:
    ///
    /// * if any lane has a sustaining configuration within its ceiling,
    ///   minimize `(l_req, instances, lane, config)` across *all* lanes —
    ///   a lane with zero availability today is still a valid growth
    ///   target (that is the cross-SKU recovery path);
    /// * otherwise maximize throughput over what is available right now,
    ///   ties toward the lower lane index then canonical order.
    ///
    /// `now` is what can materialize immediately and may sit on a
    /// *different* lane than `target` — the serving mesh stays single-SKU,
    /// and the device mapper prices the cross-SKU migration.
    ///
    /// # Panics
    ///
    /// Panics when no lanes are registered or `avail.len()` differs from
    /// the lane count.
    pub fn decide_multi(&self, avail: &[u32], alpha: f64) -> MultiSkuDecision {
        assert!(!self.lanes.is_empty(), "no SKU lanes registered");
        assert_eq!(avail.len(), self.lanes.len(), "one entry per lane");
        let mut key = MultiKey {
            engine: self.engine,
            avail: [0; MAX_SKU_LANES],
            alpha_bits: alpha.to_bits(),
        };
        key.avail[..avail.len()].copy_from_slice(avail);
        if let Some(d) = self.multi_memo.borrow().get(&key) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return d;
        }
        let mode = self.pricing_mode();
        // Joint line 3: minimum-(l_req, instances, lane, config) sustaining
        // candidate at each lane's ceiling. Keys are unique (the lane and
        // config are part of them), so folding the lane minima in lane
        // order gives the minimum of one running scan.
        let mut target: Option<LatencyKey> = None;
        for (i, &lane_avail) in avail.iter().enumerate() {
            let ceiling = self.max_instances.max(lane_avail);
            self.ensure_lane_frontier(i, ceiling);
            target = target
                .into_iter()
                .chain(self.lane_min_latency(i, ceiling, alpha))
                .min();
        }
        let d = match target {
            Some((_, needed, lane, config)) => {
                let now = if needed <= avail[lane] {
                    Some((lane, config))
                } else {
                    // The same minimum within each lane's availability.
                    let mut now: Option<LatencyKey> = None;
                    for (i, &lane_avail) in avail.iter().enumerate() {
                        if lane_avail > 0 {
                            now = now
                                .into_iter()
                                .chain(self.lane_min_latency(i, lane_avail, alpha))
                                .min();
                        }
                    }
                    now.map(|(_, _, i, c)| (i, c))
                        .or_else(|| self.max_throughput_multi(avail, mode))
                };
                MultiSkuDecision {
                    now,
                    target: Some((lane, config)),
                    instance_delta: needed as i64 - avail[lane] as i64,
                }
            }
            None => {
                // Joint line 5: nothing sustains anywhere — maximize
                // throughput with the instances at hand.
                let best = self.max_throughput_multi(avail, mode);
                let delta = best
                    .map(|(i, c)| {
                        let gpi = self.lanes[i].ty.gpus_per_instance;
                        c.instances_needed(gpi) as i64 - avail[i] as i64
                    })
                    .unwrap_or(0);
                MultiSkuDecision {
                    now: best,
                    target: best,
                    instance_delta: delta,
                }
            }
        };
        self.multi_memo.borrow_mut().insert(key, d);
        d
    }

    /// Lane `i`'s minimum-key sustaining candidate within `limit`
    /// instances, behind the lane-scan memo. The lane's frontier must
    /// cover `limit`. A lane scanned on its own cannot stop early on
    /// another lane's better result; that costs work, never the answer.
    fn lane_min_latency(&self, i: usize, limit: u32, alpha: f64) -> Option<LatencyKey> {
        let key = LaneScanKey {
            engine: self.engine,
            lane: i,
            limit,
            alpha_bits: alpha.to_bits(),
        };
        if let Some(best) = self.lane_memo.borrow().get(&key) {
            return best;
        }
        let best = min_latency_sustaining(
            &self.lane_frontier_ref(i),
            i,
            limit,
            self.pricing_mode(),
            &self.lanes[i].perf,
            alpha,
        );
        self.lane_memo.borrow_mut().insert(key, best);
        best
    }

    /// Algorithm 1's core decision over the frontier, behind the memo.
    fn decide_fresh(&self, n_instances: u32, alpha: f64) -> OptimizerDecision {
        let key = MemoKey::Fresh {
            engine: self.engine,
            n: n_instances,
            alpha_bits: alpha.to_bits(),
        };
        if let Some(d) = self.memo.borrow().get(&key) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return d;
        }
        // Line 2: does any configuration within the ceiling sustain α?
        let ceiling = self.max_instances.max(n_instances);
        self.ensure_frontier(ceiling);
        let mode = self.pricing_mode();
        let fr = self.frontier_ref();

        let min_latency = |limit| {
            min_latency_sustaining(&fr, 0, limit, mode, &self.perf, alpha).map(|(_, _, _, c)| c)
        };
        // Line 3: minimize l_req among sustaining configs at the ceiling
        // — one floor-ordered scan, no allocation.
        let target = min_latency(ceiling)
            // Line 5: maximize throughput within the current fleet.
            .or_else(|| max_throughput(&fr, n_instances, mode));

        // What can actually run right now, consistent with the target's
        // shape preference.
        let now = match target {
            Some(t) if t.instances_needed(self.gpus_per_instance) <= n_instances => Some(t),
            _ => min_latency(n_instances).or_else(|| max_throughput(&fr, n_instances, mode)),
        };

        let needed = target
            .map(|t| t.instances_needed(self.gpus_per_instance))
            .unwrap_or(0);
        let d = OptimizerDecision {
            now,
            target,
            instance_delta: needed as i64 - n_instances as i64,
        };
        drop(fr);
        self.memo.borrow_mut().insert(key, d);
        d
    }

    // ---- Reference implementations ----------------------------------
    //
    // The pre-frontier decision paths, kept verbatim: they re-enumerate
    // the space on every call and price every candidate from the cost
    // model. The frontier-backed paths above are pinned bit-identical to
    // these by the equivalence property test (and by the §6.2 pinned
    // tests, which predate the frontier). They also serve as the
    // before/after baseline for the `control_plane` bench.

    /// Scores candidates: minimize `l_req(C, α)`, tie-break toward fewer
    /// instances, then canonical order for determinism.
    fn best_latency(
        &self,
        configs: impl IntoIterator<Item = ParallelConfig>,
        alpha: f64,
    ) -> Option<ParallelConfig> {
        configs
            .into_iter()
            .map(|c| {
                let l = self.estimated_latency_uncached(&c, alpha);
                (l, c.instances_needed(self.gpus_per_instance), c)
            })
            .min_by(|a, b| a.cmp(b))
            .map(|(_, _, c)| c)
    }

    /// `φ(C)` straight from the cost model (never the frontier cache).
    fn estimated_throughput_uncached(&self, c: &ParallelConfig) -> f64 {
        match self.engine {
            EngineMode::FixedBatch => self.perf.throughput(c),
            EngineMode::ContinuousBatching => self.perf.throughput_continuous(c),
        }
    }

    /// `l_req(C, α)` straight from the cost model (never the frontier
    /// cache).
    fn estimated_latency_uncached(&self, c: &ParallelConfig, alpha: f64) -> SimDuration {
        match self.engine {
            EngineMode::FixedBatch => self.perf.request_latency(c, alpha),
            EngineMode::ContinuousBatching => self.perf.request_latency_continuous(c, alpha),
        }
    }

    /// The pre-frontier [`ConfigOptimizer::decide`]: fresh enumeration and
    /// pricing on every call. Reference implementation — see above.
    pub fn decide_reference(&self, n_instances: u32, alpha: f64) -> OptimizerDecision {
        self.decide_with_incumbent_reference(n_instances, alpha, None)
    }

    /// The pre-frontier [`ConfigOptimizer::decide_with_incumbent`],
    /// including its `O(|space|)` incumbent membership re-enumeration.
    /// Reference implementation — see above.
    pub fn decide_with_incumbent_reference(
        &self,
        n_instances: u32,
        alpha: f64,
        incumbent: Option<ParallelConfig>,
    ) -> OptimizerDecision {
        let mut d = self.decide_fresh_reference(n_instances, alpha);
        let Some(inc) = incumbent else { return d };
        if inc.instances_needed(self.gpus_per_instance) > n_instances {
            return d;
        }
        if !self.feasible(n_instances).contains(&inc) {
            return d;
        }
        let keepable = |best: ParallelConfig| {
            let inc_l = self.estimated_latency_uncached(&inc, alpha);
            let best_l = self.estimated_latency_uncached(&best, alpha);
            self.estimated_throughput_uncached(&inc) >= alpha
                && inc_l != simkit::SimDuration::MAX
                && inc_l.as_secs_f64() <= best_l.as_secs_f64() * 1.15
        };
        if let Some(best) = d.now {
            if best != inc && keepable(best) {
                d.now = Some(inc);
            }
        }
        if let Some(best) = d.target {
            if best != inc && keepable(best) {
                d.target = Some(inc);
                d.instance_delta =
                    inc.instances_needed(self.gpus_per_instance) as i64 - n_instances as i64;
            }
        }
        d
    }

    /// The pre-frontier [`ConfigOptimizer::decide_slo`]. Reference
    /// implementation — see above.
    pub fn decide_slo_reference(
        &self,
        n_instances: u32,
        alpha: f64,
        slo: simkit::SimDuration,
    ) -> OptimizerDecision {
        let ceiling = self.max_instances.max(n_instances);
        let meeting: Vec<ParallelConfig> = self
            .feasible(ceiling)
            .into_iter()
            .filter(|c| self.estimated_latency_uncached(c, alpha) <= slo)
            .collect();
        if meeting.is_empty() {
            return self.decide_reference(n_instances, alpha);
        }
        let target = meeting
            .iter()
            .copied()
            .map(|c| {
                // Cheapest first, then lowest latency, then canonical.
                (
                    c.instances_needed(self.gpus_per_instance),
                    self.estimated_latency_uncached(&c, alpha),
                    c,
                )
            })
            .min()
            .map(|(_, _, c)| c);
        let now = target
            .filter(|t| t.instances_needed(self.gpus_per_instance) <= n_instances)
            .or_else(|| {
                meeting
                    .into_iter()
                    .filter(|c| c.instances_needed(self.gpus_per_instance) <= n_instances)
                    .map(|c| {
                        (
                            c.instances_needed(self.gpus_per_instance),
                            self.estimated_latency_uncached(&c, alpha),
                            c,
                        )
                    })
                    .min()
                    .map(|(_, _, c)| c)
            })
            .or(self.decide_reference(n_instances, alpha).now);
        let needed = target
            .map(|t| t.instances_needed(self.gpus_per_instance))
            .unwrap_or(0);
        OptimizerDecision {
            now,
            target,
            instance_delta: needed as i64 - n_instances as i64,
        }
    }

    fn decide_fresh_reference(&self, n_instances: u32, alpha: f64) -> OptimizerDecision {
        // Line 2: does any configuration within the ceiling sustain α?
        let ceiling = self.max_instances.max(n_instances);
        let all = self.feasible(ceiling);
        let sustaining: Vec<ParallelConfig> = all
            .iter()
            .copied()
            .filter(|c| self.estimated_throughput_uncached(c) >= alpha)
            .collect();

        let target = if !sustaining.is_empty() {
            // Line 3: minimize l_req among sustaining configs.
            self.best_latency(sustaining, alpha)
        } else {
            // Line 5: maximize throughput within the current fleet.
            self.feasible(n_instances)
                .into_iter()
                .map(|c| (self.estimated_throughput_uncached(&c), std::cmp::Reverse(c)))
                .max_by(|a, b| a.partial_cmp(b).expect("throughput is finite"))
                .map(|(_, std::cmp::Reverse(c))| c)
        };

        // What can actually run right now, consistent with the target's
        // shape preference.
        let now_candidates = self.feasible(n_instances);
        let now = match target {
            Some(t) if t.instances_needed(self.gpus_per_instance) <= n_instances => Some(t),
            _ => {
                let sustaining_now: Vec<ParallelConfig> = now_candidates
                    .iter()
                    .copied()
                    .filter(|c| self.estimated_throughput_uncached(c) >= alpha)
                    .collect();
                if sustaining_now.is_empty() {
                    // Max throughput with what we have.
                    now_candidates
                        .into_iter()
                        .map(|c| (self.estimated_throughput_uncached(&c), std::cmp::Reverse(c)))
                        .max_by(|a, b| a.partial_cmp(b).expect("finite"))
                        .map(|(_, std::cmp::Reverse(c))| c)
                } else {
                    self.best_latency(sustaining_now, alpha)
                }
            }
        };

        let needed = target
            .map(|t| t.instances_needed(self.gpus_per_instance))
            .unwrap_or(0);
        OptimizerDecision {
            now,
            target,
            instance_delta: needed as i64 - n_instances as i64,
        }
    }
}

/// Algorithm 1's latency selection key: `(l_req, instances, lane,
/// canonical config)`, minimized. Single-SKU decisions use lane 0.
type LatencyKey = (SimDuration, u32, usize, ParallelConfig);

/// Lane `lane`'s minimum-key sustaining candidate within `n` instances,
/// or `None` when nothing there sustains `alpha`. Bit-identical to
/// `best_latency` over the sustaining subset of a fresh enumeration: keys
/// are unique (the config is part of the key), so the scan order cannot
/// matter; pruning only skips candidates that lose every key comparison;
/// and the scan runs in floor order and stops at the first floor above
/// the best latency, past which every candidate prices strictly higher.
fn min_latency_sustaining(
    fr: &CandidateFrontier,
    lane: usize,
    n: u32,
    mode: PricingMode,
    perf: &PerfModel,
    alpha: f64,
) -> Option<LatencyKey> {
    let mut best: Option<LatencyKey> = None;
    for cand in fr.pruned_by_floor(mode) {
        if best.is_some_and(|(l, ..)| cand.floor(mode) > l) {
            break;
        }
        if cand.instances > n || cand.throughput(mode) < alpha {
            continue;
        }
        let key = (
            fr.latency(cand, perf, mode, alpha),
            cand.instances,
            lane,
            cand.config,
        );
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best
}

/// Maximum-`(φ, Reverse(canonical))` candidate within `n` instances, over
/// the pruned frontier range.
fn max_throughput(fr: &CandidateFrontier, n: u32, mode: PricingMode) -> Option<ParallelConfig> {
    let mut best: Option<(f64, std::cmp::Reverse<ParallelConfig>)> = None;
    for cand in fr.pruned_at(n, mode) {
        let key = (cand.throughput(mode), std::cmp::Reverse(cand.config));
        let better = match &best {
            None => true,
            Some(b) => {
                key.partial_cmp(b).expect("throughput is finite") == std::cmp::Ordering::Greater
            }
        };
        if better {
            best = Some(key);
        }
    }
    best.map(|(_, std::cmp::Reverse(c))| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(model: ModelSpec) -> ConfigOptimizer {
        ConfigOptimizer::paper_defaults(model, 16)
    }

    #[test]
    fn sustaining_config_minimizes_latency() {
        let o = opt(ModelSpec::gpt_20b());
        let d = o.decide(10, 0.35);
        let c = d.now.expect("feasible at 10 instances");
        assert!(o.perf().throughput(&c) >= 0.35);
        // Exhaustive check: no sustaining config within 10 instances has
        // strictly lower l_req.
        let l = o.perf().request_latency(&c, 0.35);
        for other in o.feasible(10) {
            if o.perf().throughput(&other) >= 0.35 {
                assert!(
                    o.perf().request_latency(&other, 0.35) >= l,
                    "{other} beats {c}"
                );
            }
        }
    }

    #[test]
    fn overload_maximizes_throughput() {
        let o = opt(ModelSpec::gpt_20b());
        // 3 instances = 12 GPUs: nothing sustains 0.35 req/s.
        let d = o.decide(3, 0.35);
        let c = d.now.expect("12 GPUs fit GPT-20B");
        let phi = o.perf().throughput(&c);
        for other in o.feasible(3) {
            assert!(o.perf().throughput(&other) <= phi + 1e-12, "{other}");
        }
        // The optimizer wants more instances.
        assert!(d.instance_delta > 0, "delta {}", d.instance_delta);
    }

    #[test]
    fn too_few_instances_yields_none() {
        let o = opt(ModelSpec::llama_30b());
        // LLaMA-30B needs 16 GPUs = 4 instances (Table 1).
        let d = o.decide(3, 0.2);
        assert_eq!(d.now, None);
        assert!(d.target.is_some(), "growth target exists");
        assert!(d.instance_delta > 0);
    }

    #[test]
    fn overprovision_suggests_release() {
        let o = opt(ModelSpec::opt_6_7b());
        // Tiny load: one pipeline suffices; with 12 instances the optimizer
        // should want fewer.
        let d = o.decide(12, 0.05);
        assert!(d.instance_delta < 0, "delta {}", d.instance_delta);
        let c = d.now.unwrap();
        assert!(o.perf().throughput(&c) >= 0.05);
    }

    #[test]
    fn gpt20b_paper_scenario_prefers_2_2_8_at_8_instances() {
        // §6.2: with ≥8 instances, (D=2,P=2,M=8) is the minimum-latency
        // sustaining configuration for 0.35 req/s.
        let o = opt(ModelSpec::gpt_20b());
        let d = o.decide(8, 0.35);
        let c = d.now.unwrap();
        assert_eq!(c.mesh_key(), (2, 2, 8), "picked {c}");
    }

    #[test]
    fn gpt20b_after_preemption_avoids_overload() {
        // §6.2: at 7 instances, Rerouting's fixed (1,2,8) overloads, while
        // the optimizer finds a sustaining alternative, e.g. (2,3,4).
        let o = opt(ModelSpec::gpt_20b());
        let d = o.decide(7, 0.35);
        let c = d.now.unwrap();
        assert!(
            o.perf().throughput(&c) >= 0.35,
            "{c} must sustain 0.35 req/s"
        );
        assert!(c.total_gpus() <= 28);
    }

    #[test]
    fn decisions_are_deterministic() {
        let o = opt(ModelSpec::gpt_20b());
        assert_eq!(o.decide(9, 0.4), o.decide(9, 0.4));
    }

    #[test]
    fn slo_objective_picks_cheapest_meeting_config() {
        let o = opt(ModelSpec::gpt_20b());
        // A loose SLO: many configs qualify, so the cheapest fleet wins.
        let loose = simkit::SimDuration::from_secs(120);
        let d = o.decide_slo(10, 0.35, loose);
        let c = d.now.expect("feasible");
        assert!(o.perf().request_latency(&c, 0.35) <= loose);
        // No cheaper configuration also meets the SLO.
        let needed = c.instances_needed(4);
        for other in o.feasible(10) {
            if o.perf().request_latency(&other, 0.35) <= loose {
                assert!(other.instances_needed(4) >= needed, "{other} is cheaper");
            }
        }
    }

    #[test]
    fn impossible_slo_falls_back_to_latency_minimization() {
        let o = opt(ModelSpec::gpt_20b());
        let impossible = simkit::SimDuration::from_secs(1);
        let d = o.decide_slo(10, 0.35, impossible);
        assert_eq!(d.now, o.decide(10, 0.35).now);
    }

    #[test]
    fn zero_rate_picks_cheapest_feasible() {
        let o = opt(ModelSpec::gpt_20b());
        let d = o.decide(10, 0.0);
        let c = d.now.unwrap();
        // Everything sustains α=0; latency minimization should not pick
        // more GPUs than help latency, and the tie-break favours fewer
        // instances.
        assert!(c.total_gpus() <= 40);
    }

    // ---- Frontier/memo mechanics -------------------------------------

    #[test]
    fn memoized_decisions_match_first_computation() {
        let o = opt(ModelSpec::gpt_20b());
        let first = o.decide(9, 0.4);
        for _ in 0..3 {
            assert_eq!(o.decide(9, 0.4), first, "memo must be transparent");
        }
        let slo = simkit::SimDuration::from_secs(60);
        let s1 = o.decide_slo(9, 0.4, slo);
        assert_eq!(o.decide_slo(9, 0.4, slo), s1);
    }

    #[test]
    fn memo_overflow_clears_and_keeps_answers_correct() {
        let o = opt(ModelSpec::gpt_20b());
        let pinned = o.decide_reference(8, 0.35);
        for i in 0..(2 * MEMO_CAP as u32) {
            let alpha = 0.05 + i as f64 * 0.013;
            assert_eq!(o.decide(8, alpha), o.decide_reference(8, alpha));
        }
        assert_eq!(o.decide(8, 0.35), pinned);
    }

    #[test]
    fn queries_beyond_the_ceiling_grow_the_frontier() {
        let o = opt(ModelSpec::gpt_20b());
        // Warm the frontier at the ceiling, then exceed it: the frontier
        // rebuilds at the larger fleet and the decision still matches the
        // reference.
        let _ = o.decide(8, 0.35);
        let big = o.decide(24, 0.35);
        assert_eq!(big, o.decide_reference(24, 0.35));
    }

    #[test]
    fn a_fleet_creeping_past_the_ceiling_rebuilds_logarithmically() {
        let o = opt(ModelSpec::gpt_20b())
            .with_engine_mode(EngineMode::ContinuousBatching)
            .with_sku(InstanceType::t4());
        let ceiling = || o.frontier.borrow().as_ref().map(CandidateFrontier::ceiling);
        let lane_ceiling = || {
            o.lanes[0]
                .frontier
                .borrow()
                .as_ref()
                .map(CandidateFrontier::ceiling)
        };
        let mut ceilings = Vec::new();
        for n in 16..=40u32 {
            assert_eq!(o.decide(n, 0.35), o.decide_reference(n, 0.35), "n={n}");
            let multi = o.decide_multi(&[n], 0.35);
            assert_eq!(multi.target.map(|(_, c)| c), o.decide(n, 0.35).target);
            assert_eq!(lane_ceiling(), ceiling());
            ceilings.push(ceiling().expect("built"));
        }
        ceilings.dedup();
        assert_eq!(ceilings, [16, 32, 64], "one rebuild per doubling");
    }

    #[test]
    fn engine_mode_change_invalidates_the_memo() {
        let fixed = opt(ModelSpec::gpt_20b());
        let d_fixed = fixed.decide(12, 0.35);
        let cont = opt(ModelSpec::gpt_20b()).with_engine_mode(EngineMode::ContinuousBatching);
        let d_cont = cont.decide(12, 0.35);
        assert_ne!(d_fixed.now, d_cont.now, "estimator change changes picks");
        assert_eq!(d_cont, cont.decide_reference(12, 0.35));
    }

    #[test]
    fn engine_mode_flip_keeps_the_other_modes_warm_entries() {
        let mut o = opt(ModelSpec::gpt_20b()); // FixedBatch by default
        let d_fixed = o.decide(12, 0.35);
        assert_eq!(o.memo_len(), 1);
        o = o.with_engine_mode(EngineMode::ContinuousBatching);
        let d_cont = o.decide(12, 0.35);
        assert_eq!(
            o.memo_len(),
            2,
            "flip evicted nothing; new entry keyed by mode"
        );
        o = o.with_engine_mode(EngineMode::FixedBatch);
        assert_eq!(
            o.decide(12, 0.35),
            d_fixed,
            "round-trip keeps the warm entry"
        );
        assert_eq!(o.memo_len(), 2, "re-query was a memo hit, not a re-insert");
        o = o.with_engine_mode(EngineMode::ContinuousBatching);
        assert_eq!(o.decide(12, 0.35), d_cont);
        assert_eq!(o.memo_len(), 2);
    }

    // ---- Heterogeneous lanes -----------------------------------------

    use cloudsim::InstanceType;

    #[test]
    fn single_t4_lane_reproduces_the_single_sku_decision() {
        // A one-lane T4 fleet is the homogeneous problem in multi-SKU
        // clothing: `paper_defaults` prices with
        // `for_instance_type(t4()).with_scale(scale)` bitwise, so the
        // joint decision must pick the same (config, delta).
        let o = opt(ModelSpec::gpt_20b()).with_sku(InstanceType::t4());
        for (n, alpha) in [(10u32, 0.35), (3, 0.35), (8, 0.35), (12, 0.05)] {
            let single = o.decide(n, alpha);
            let multi = o.decide_multi(&[n], alpha);
            assert_eq!(multi.now.map(|(_, c)| c), single.now, "now at {n}/{alpha}");
            assert_eq!(
                multi.target.map(|(_, c)| c),
                single.target,
                "target at {n}/{alpha}"
            );
            assert_eq!(multi.instance_delta, single.instance_delta);
            assert!(multi.now.iter().all(|&(lane, _)| lane == 0));
        }
    }

    #[test]
    fn collapsed_lane_recovers_on_another_sku() {
        // T4 pool collapsed to zero, L4 pool healthy: the target must sit
        // on the L4 lane, and `now` must be materializable there.
        let o = opt(ModelSpec::gpt_20b())
            .with_sku(InstanceType::t4())
            .with_sku(InstanceType::l4());
        let d = o.decide_multi(&[0, 10], 0.35);
        let (lane, c) = d.target.expect("L4s can serve GPT-20B");
        assert_eq!(lane, 1, "target recovers on the surviving SKU");
        assert!(
            o.lane_throughput(1, &c) >= 0.35,
            "{c} must sustain 0.35 req/s on L4"
        );
        let (now_lane, now_c) = d.now.expect("10 L4 instances fit GPT-20B");
        assert_eq!(now_lane, 1);
        assert!(now_c.instances_needed(o.lane_type(1).gpus_per_instance) <= 10);
    }

    #[test]
    fn faster_sku_wins_the_latency_objective() {
        // Both lanes available: H100s dominate T4s on latency at equal
        // request rate, so the joint minimum must come from the H100 lane.
        let o = opt(ModelSpec::gpt_20b())
            .with_sku(InstanceType::t4())
            .with_sku(InstanceType::h100());
        let d = o.decide_multi(&[8, 8], 0.35);
        let (lane, c) = d.target.expect("sustaining config exists");
        assert_eq!(lane, 1, "H100 lane wins, got {c} on lane {lane}");
        // And the pick is the joint minimum: no sustaining candidate on
        // either lane has a strictly lower (l, instances, lane, config).
        let l = o.lane_latency(lane, &c, 0.35);
        for i in 0..o.lane_count() {
            let gpi = o.lane_type(i).gpus_per_instance;
            let fr_configs: Vec<_> = {
                let perf = o.lane_perf(i);
                enumerate_configs(
                    perf.model(),
                    o.memory(),
                    &o.lane_type(i).gpu,
                    &ConfigSpace::default(),
                    16 * gpi as u32,
                )
            };
            for other in fr_configs {
                if o.lane_throughput(i, &other) >= 0.35 {
                    assert!(
                        o.lane_latency(i, &other, 0.35) >= l,
                        "{other} on lane {i} beats the pick"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_memo_is_transparent_and_bounded() {
        let o = opt(ModelSpec::gpt_20b())
            .with_sku(InstanceType::t4())
            .with_sku(InstanceType::l4());
        let first = o.decide_multi(&[6, 4], 0.35);
        for _ in 0..3 {
            assert_eq!(o.decide_multi(&[6, 4], 0.35), first);
        }
        // Overflow the memo and confirm the pinned answer survives.
        for i in 0..(2 * MEMO_CAP as u32) {
            let _ = o.decide_multi(&[6, 4], 0.05 + i as f64 * 0.013);
        }
        assert_eq!(o.decide_multi(&[6, 4], 0.35), first);
    }

    #[test]
    fn model_too_big_for_lane_serves_now_on_the_capable_sku() {
        // LLaMA-30B does not fit one L4 instance (4×24 GiB): with a single
        // L4 available and T4s plentiful, `now` must materialize on the
        // T4 lane — a starved lane stays a legal *growth* target, but it
        // cannot serve today.
        let o = opt(ModelSpec::llama_30b())
            .with_sku(InstanceType::t4())
            .with_sku(InstanceType::l4());
        let d = o.decide_multi(&[8, 1], 0.2);
        let (now_lane, now_c) = d.now.expect("8 T4 instances fit LLaMA-30B");
        assert_eq!(now_lane, 0, "only the T4 fleet can serve now");
        assert!(now_c.instances_needed(4) <= 8);
    }

    #[test]
    fn incumbent_membership_is_bit_equal_with_reference() {
        let o = opt(ModelSpec::gpt_20b());
        // Sweep incumbents including infeasible and out-of-space shapes.
        let mut incumbents = o.feasible(16);
        incumbents.push(ParallelConfig::new(1, 1, 3, 5)); // outside the space
        incumbents.push(ParallelConfig::new(16, 16, 8, 8)); // beyond any fleet
        for inc in incumbents {
            for n in [3u32, 7, 10, 16] {
                assert_eq!(
                    o.decide_with_incumbent(n, 0.35, Some(inc)),
                    o.decide_with_incumbent_reference(n, 0.35, Some(inc)),
                    "incumbent {inc} at {n}"
                );
            }
        }
    }
}
