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
//! # SKU lanes
//!
//! Each instance type is a *lane*: its GPUs, its performance model and its
//! memoized frontier. The type the optimizer is built with is the base
//! lane, and [`ConfigOptimizer::with_sku`] registers more. One decision
//! core serves every call: the single-SKU calls (`decide*`) run it over
//! the base lane alone, the joint calls (`decide_multi*`) over the
//! registered lanes, picking `(SKU, C, B)` jointly. The serving system
//! registers one lane per distinct pool SKU, so a homogeneous fleet is one
//! lane and a mixed fleet several, on the same path and under the same
//! incumbent bias.
//!
//! # Hot-path architecture
//!
//! The paper's bound is "re-decide within 1 second" (§3.2) — and with
//! multi-pool markets every grant/preemption in every pool hits this code.
//! Decisions therefore run over each lane's memoized
//! [`CandidateFrontier`]: the space is enumerated and priced **once** per
//! fleet ceiling (and re-built at least twice as wide when a fleet
//! outgrows it), `feasible_at(n)` is a range lookup, Pareto-dominated
//! candidates are skipped, minimum-latency scans run in latency-floor
//! order and stop once no remaining candidate can price lower, and small
//! memos answer repeated queries outright: per `(lanes, availability, α)`
//! decision and per incumbent-biased decision (see
//! [`ConfigOptimizer::memo_hits`] for which of them count as hits). A
//! lane's frontier is the process-wide one for its exact inputs
//! ([`CandidateFrontier::shared`]), so optimizers on equal inputs build it
//! once and share its memoized minimum-latency scans.
//! Single-SKU decisions are **bit-identical** with the fresh-enumeration
//! reference implementations, and joint decisions with a brute-force
//! oracle; both live with the integration tests (`tests/common/reference.rs`
//! and `tests/optimizer_properties.rs`), which hold the core to them.

use std::cell::{Cell, Ref, RefCell};
use std::cmp::{Ordering, Reverse};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use cloudsim::{GpuSpec, InstanceType};
use llmsim::{CostModel, MemoryModel, ModelSpec};
use parallelism::{
    enumerate_configs, CandidateFrontier, ConfigSpace, EngineMode, ParallelConfig, PerfModel,
};
use simkit::SimDuration;

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

impl From<MultiSkuDecision> for OptimizerDecision {
    /// The decision without its lane indices.
    fn from(d: MultiSkuDecision) -> Self {
        OptimizerDecision {
            now: d.now.map(|(_, c)| c),
            target: d.target.map(|(_, c)| c),
            instance_delta: d.instance_delta,
        }
    }
}

/// The joint verdict over SKU lanes: which lane serves, and what
/// configuration on it.
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
    /// Without any target it is `−Σ avail` (`#Instances(∅) = 0`).
    pub instance_delta: i64,
}

/// Upper bound on registered SKU lanes: the memo keys availability as a
/// fixed `[u32; MAX_SKU_LANES]` so it stays `Copy`.
pub const MAX_SKU_LANES: usize = 8;

/// Index of the base lane: the SKU the optimizer was built with.
const BASE: usize = 0;
/// Index of the first lane [`ConfigOptimizer::with_sku`] registered.
const REGISTERED: usize = 1;

/// One decision query: lanes `first..first + lanes` at availability
/// `avail[..lanes]` (zero-padded) and rate `α`, keyed by its IEEE-754 bits
/// (the memo must never conflate rates that price differently). Keys carry
/// the engine mode that priced them, so flipping modes invalidates
/// per-entry instead of discarding the other mode's warm entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LanesKey {
    engine: EngineMode,
    first: u8,
    lanes: u8,
    avail: [u32; MAX_SKU_LANES],
    alpha_bits: u64,
}

impl Hash for LanesKey {
    /// Hashes whole words, and only the lanes the query names: a memo hit
    /// costs little more than this hash, and most queries name one lane.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let head =
            u32::from(self.engine as u8) | u32::from(self.first) << 8 | u32::from(self.lanes) << 16;
        state.write_u32(head);
        state.write_u64(self.alpha_bits);
        for &n in &self.avail[..usize::from(self.lanes)] {
            state.write_u32(n);
        }
    }
}

/// The decision memo's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemoKey {
    /// An unbiased decision over a set of lanes.
    Lanes(LanesKey),
    /// `decide_slo(n, α, slo)` on the base lane.
    Slo {
        engine: EngineMode,
        n: u32,
        alpha_bits: u64,
        slo: SimDuration,
    },
}

/// The incumbent memo's key: a query with an incumbent `(lane, config)`.
/// The unbiased decision is a pure function of the query, so the biased
/// one is a pure function of this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct IncumbentKey {
    query: LanesKey,
    incumbent: (usize, ParallelConfig),
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

/// One instance type's decision lane: its GPUs, its performance model
/// (the per-model calibration scale on that SKU's hardware terms) and a
/// handle to its frontier, fetched lazily at the fleet ceiling and
/// re-fetched wider if a query ever exceeds it. The handle is the
/// process-wide frontier for the lane's exact inputs
/// ([`CandidateFrontier::shared`]): a lane nobody decides on (a serving
/// system's base lane) costs a pointer, and lanes on equal inputs, in this
/// optimizer or any other, share one build and its scan memo.
#[derive(Debug, Clone)]
struct SkuLane {
    gpu: GpuSpec,
    gpus_per_instance: u8,
    perf: PerfModel,
    frontier: RefCell<Option<Arc<CandidateFrontier>>>,
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
    mem: MemoryModel,
    space: ConfigSpace,
    max_instances: u32,
    /// Which engine's `φ(C)`/`l_req(C)` estimator prices candidates: the
    /// paper's fixed-batch formulas, or the re-derived continuous-batching
    /// ones ([`PerfModel::request_latency_continuous`]). Defaults to
    /// [`EngineMode::FixedBatch`] so paper-exact figures stay bit-exact;
    /// the serving system passes its own engine mode in.
    engine: EngineMode,
    /// The base lane, then the registered lanes in registration order.
    lanes: Vec<SkuLane>,
    /// The registered lanes' instance types.
    skus: Vec<InstanceType>,
    /// Unbiased decisions and SLO decisions.
    memo: RefCell<Memo<MemoKey, MultiSkuDecision>>,
    /// Incumbent-biased decisions.
    incumbent_memo: RefCell<Memo<IncumbentKey, MultiSkuDecision>>,
    /// Lifetime count of decisions answered from the decision memo (see
    /// [`ConfigOptimizer::memo_hits`]).
    memo_hits: Cell<u64>,
}

impl ConfigOptimizer {
    /// Builds an optimizer whose base lane is `gpus_per_instance` `gpu`s
    /// per instance priced by `perf`.
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
            mem,
            space,
            max_instances,
            engine: EngineMode::FixedBatch,
            lanes: vec![SkuLane {
                gpu,
                gpus_per_instance,
                perf,
                frontier: RefCell::new(None),
            }],
            skus: Vec::new(),
            memo: RefCell::default(),
            incumbent_memo: RefCell::default(),
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

    /// Registers a SKU lane for joint decisions: `ty`'s hardware terms
    /// under the base lane's model-structure calibration scale and
    /// sequence shape. Lane indices are registration order — the caller's
    /// pool→SKU mapping must use the same order.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_SKU_LANES`] registered lanes.
    pub fn with_sku(mut self, ty: InstanceType) -> Self {
        assert!(self.skus.len() < MAX_SKU_LANES, "too many SKU lanes");
        let base = &self.lanes[BASE].perf;
        let model = base.model().clone();
        let scale = llmsim::calibration::calibration_scale(&model);
        let (s_in, s_out) = base.sequence_shape();
        let cost = CostModel::for_instance_type(&ty).with_scale(scale);
        // Lanes are few and registered once: grow by exactly one.
        self.lanes.reserve_exact(1);
        self.skus.reserve_exact(1);
        self.lanes.push(SkuLane {
            gpu: ty.gpu,
            gpus_per_instance: ty.gpus_per_instance,
            perf: PerfModel::new(model, cost, s_in, s_out),
            frontier: RefCell::new(None),
        });
        self.skus.push(ty);
        self
    }

    /// Number of live decision-memo entries (test instrumentation for the
    /// per-entry invalidation guarantee).
    #[cfg(test)]
    fn memo_len(&self) -> usize {
        self.memo.borrow().entries.len()
    }

    /// Lifetime count of `decide*` queries answered from the decision memo
    /// instead of a frontier scan: unbiased decisions (`decide`,
    /// `decide_multi`, and the unbiased decision under each
    /// `*_with_incumbent` call) and `decide_slo`. The incumbent memo and
    /// the frontiers' scan memos never count, so a biased decision counts
    /// as a hit exactly when its unbiased decision was memoized. Monotone;
    /// difference around a call to learn whether that call hit.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.get()
    }

    /// Number of registered SKU lanes.
    pub fn lane_count(&self) -> usize {
        self.skus.len()
    }

    /// The instance type behind registered lane `i`.
    pub fn lane_type(&self, i: usize) -> &InstanceType {
        &self.skus[i]
    }

    /// Registered lane `i`'s performance model (that SKU's hardware under
    /// the shared calibration scale).
    pub fn lane_perf(&self, i: usize) -> &PerfModel {
        &self.lanes[REGISTERED + i].perf
    }

    /// `φ(C)` on registered lane `i` under the selected engine's estimator.
    pub fn lane_throughput(&self, i: usize, c: &ParallelConfig) -> f64 {
        self.throughput_on(REGISTERED + i, c)
    }

    /// `l_req(C, α)` on registered lane `i` under the selected engine's
    /// estimator.
    pub fn lane_latency(&self, i: usize, c: &ParallelConfig, alpha: f64) -> SimDuration {
        self.latency_on(REGISTERED + i, c, alpha)
    }

    /// `l_req(C, α)` on the base lane under the selected engine's
    /// estimator.
    pub fn estimated_latency(&self, c: &ParallelConfig, alpha: f64) -> SimDuration {
        self.latency_on(BASE, c, alpha)
    }

    /// `φ(C)` on lane `lane`, served from its frontier's cache when `c` is
    /// a priced candidate.
    fn throughput_on(&self, lane: usize, c: &ParallelConfig) -> f64 {
        let l = &self.lanes[lane];
        if let Some(phi) = l
            .frontier
            .borrow()
            .as_ref()
            .and_then(|f| f.lookup(c))
            .map(|cand| cand.throughput(self.engine))
        {
            return phi;
        }
        match self.engine {
            EngineMode::FixedBatch => l.perf.throughput(c),
            EngineMode::ContinuousBatching => l.perf.throughput_continuous(c),
        }
    }

    /// `l_req(C, α)` on lane `lane`, served from its frontier's cached
    /// components when `c` is a priced candidate.
    fn latency_on(&self, lane: usize, c: &ParallelConfig, alpha: f64) -> SimDuration {
        let l = &self.lanes[lane];
        if let Some(latency) = l
            .frontier
            .borrow()
            .as_ref()
            .and_then(|f| f.lookup(c).map(|cand| (f, cand)))
            .map(|(f, cand)| f.latency(cand, self.engine, alpha))
        {
            return latency;
        }
        match self.engine {
            EngineMode::FixedBatch => l.perf.request_latency(c, alpha),
            EngineMode::ContinuousBatching => l.perf.request_latency_continuous(c, alpha),
        }
    }

    /// The engine mode whose estimator prices candidates.
    pub fn engine_mode(&self) -> EngineMode {
        self.engine
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

    /// The base lane's performance model.
    pub fn perf(&self) -> &PerfModel {
        &self.lanes[BASE].perf
    }

    /// The memory model in use.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// GPUs per base-lane instance.
    pub fn gpus_per_instance(&self) -> u8 {
        self.lanes[BASE].gpus_per_instance
    }

    /// The fleet ceiling: every lane's growth target is sought within
    /// `max(ceiling, availability)` instances.
    pub fn max_instances(&self) -> u32 {
        self.max_instances
    }

    /// Enumerates the base lane's feasible configurations for a fleet of
    /// `instances` — the fresh enumeration in canonical order, which the
    /// frontier's range lookups are held bit-equal to.
    pub fn feasible(&self, instances: u32) -> Vec<ParallelConfig> {
        let base = &self.lanes[BASE];
        enumerate_configs(
            base.perf.model(),
            &self.mem,
            &base.gpu,
            &self.space,
            instances * base.gpus_per_instance as u32,
        )
    }

    // ---- The memoized frontiers ---------------------------------------

    /// Ensures lane `lane`'s frontier exists and covers `needed`
    /// instances. Growth at least doubles, so a fleet creeping past the
    /// ceiling one instance at a time rebuilds logarithmically often. A
    /// wider frontier answers every query exactly as a tighter one would:
    /// each instance bucket at or below the query is the same set, and
    /// every scan and membership test clamps to the query. The ceiling
    /// asked for depends on this lane's history alone, and the shared
    /// table keys on it, so the handle never depends on what another
    /// optimizer fetched first. Must not be called while a
    /// [`ConfigOptimizer::frontier_ref`] borrow of the lane is live.
    fn ensure_frontier(&self, lane: usize, needed: u32) {
        let l = &self.lanes[lane];
        let current = l
            .frontier
            .borrow()
            .as_deref()
            .map(CandidateFrontier::ceiling);
        let build_at = match current {
            Some(c) if c >= needed => return,
            Some(c) => needed.max(c.saturating_mul(2)),
            None => needed.max(self.max_instances),
        };
        let shared = CandidateFrontier::shared(
            &l.perf,
            &self.mem,
            &l.gpu,
            &self.space,
            l.gpus_per_instance,
            build_at,
        );
        *l.frontier.borrow_mut() = Some(shared);
    }

    /// Lane `lane`'s live frontier (must be
    /// [`ensure`](Self::ensure_frontier)d first).
    fn frontier_ref(&self, lane: usize) -> Ref<'_, CandidateFrontier> {
        Ref::map(self.lanes[lane].frontier.borrow(), |o| {
            o.as_deref().expect("frontier ensured by caller")
        })
    }

    // ---- Decisions ----------------------------------------------------

    /// Runs Algorithm 1 on the base lane for `n_instances` available
    /// instances (including grace-period arrivals, excluding instances
    /// being reclaimed) and arrival-rate estimate `alpha`.
    pub fn decide(&self, n_instances: u32, alpha: f64) -> OptimizerDecision {
        self.decide_with_incumbent(n_instances, alpha, None)
    }

    /// Like [`ConfigOptimizer::decide`], but biased toward the `incumbent`
    /// configuration: the base lane alone under
    /// [`ConfigOptimizer::decide_multi_with_incumbent`]'s keep rule.
    pub fn decide_with_incumbent(
        &self,
        n_instances: u32,
        alpha: f64,
        incumbent: Option<ParallelConfig>,
    ) -> OptimizerDecision {
        self.decide_lanes(BASE, &[n_instances], alpha, incumbent.map(|c| (0, c)))
            .into()
    }

    /// The §3.2 alternative objective: instead of minimizing latency, meet
    /// a pre-defined SLO (`l_req(C) ≤ slo`) with the *cheapest* fleet, on
    /// the base lane. Falls back to plain latency minimization when no
    /// configuration can meet the SLO.
    pub fn decide_slo(&self, n_instances: u32, alpha: f64, slo: SimDuration) -> OptimizerDecision {
        let key = MemoKey::Slo {
            engine: self.engine,
            n: n_instances,
            alpha_bits: alpha.to_bits(),
            slo,
        };
        if let Some(d) = self.memo.borrow().get(&key) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return d.into();
        }
        let ceiling = self.max_instances.max(n_instances);
        self.ensure_frontier(BASE, ceiling);
        // Cheapest-meeting selection key: (instances, l_req, canonical).
        let mut target_key: Option<(u32, SimDuration, ParallelConfig)> = None;
        let mut now_key: Option<(u32, SimDuration, ParallelConfig)> = None;
        {
            let fr = self.frontier_ref(BASE);
            for cand in fr.pruned_at(ceiling, self.engine) {
                let l = fr.latency(cand, self.engine, alpha);
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
            let d = self.decide_lanes(BASE, &[n_instances], alpha, None);
            self.memo.borrow_mut().insert(key, d);
            return d.into();
        };
        let now = if needed <= n_instances {
            Some(target)
        } else {
            now_key
                .map(|(_, _, c)| c)
                .or_else(|| self.decide(n_instances, alpha).now)
        };
        let d = MultiSkuDecision {
            now: now.map(|c| (0, c)),
            target: Some((0, target)),
            instance_delta: needed as i64 - n_instances as i64,
        };
        self.memo.borrow_mut().insert(key, d);
        d.into()
    }

    /// Algorithm 1 over the registered lanes: given per-lane instance
    /// availability `avail[i]` (same order as [`ConfigOptimizer::with_sku`]
    /// registration), pick the best `(SKU, C, B)` jointly.
    ///
    /// # Panics
    ///
    /// Panics when no lanes are registered or `avail.len()` differs from
    /// the lane count.
    pub fn decide_multi(&self, avail: &[u32], alpha: f64) -> MultiSkuDecision {
        self.decide_multi_with_incumbent(avail, alpha, None)
    }

    /// [`ConfigOptimizer::decide_multi`], biased toward the `incumbent`
    /// `(lane, config)`: switching has a real migration cost, so the
    /// incumbent is kept — as `now` and as `target` alike — wherever it
    /// fits its lane's availability, sustains `alpha` and prices within
    /// 15 % of the pick, each side priced on its own lane. A kept target's
    /// delta is relative to the incumbent lane's availability.
    ///
    /// The unbiased decision:
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
    /// As [`ConfigOptimizer::decide_multi`], and when the incumbent's lane
    /// is out of range.
    pub fn decide_multi_with_incumbent(
        &self,
        avail: &[u32],
        alpha: f64,
        incumbent: Option<(usize, ParallelConfig)>,
    ) -> MultiSkuDecision {
        assert!(!self.skus.is_empty(), "no SKU lanes registered");
        assert_eq!(avail.len(), self.skus.len(), "one entry per lane");
        self.decide_lanes(REGISTERED, avail, alpha, incumbent)
    }

    /// The one decision core: Algorithm 1 over lanes
    /// `first..first + avail.len()` behind the decision memo, then the
    /// incumbent bias behind its own memo. The unbiased decision runs
    /// first, so the hit accounting is the same with or without an
    /// incumbent.
    fn decide_lanes(
        &self,
        first: usize,
        avail: &[u32],
        alpha: f64,
        incumbent: Option<(usize, ParallelConfig)>,
    ) -> MultiSkuDecision {
        let mut query = LanesKey {
            engine: self.engine,
            first: first as u8,
            lanes: avail.len() as u8,
            avail: [0; MAX_SKU_LANES],
            alpha_bits: alpha.to_bits(),
        };
        query.avail[..avail.len()].copy_from_slice(avail);
        let memoized = self.memo.borrow().get(&MemoKey::Lanes(query));
        let d = match memoized {
            Some(d) => {
                self.memo_hits.set(self.memo_hits.get() + 1);
                d
            }
            None => {
                let d = self.decide_fresh(first, avail, alpha);
                self.memo.borrow_mut().insert(MemoKey::Lanes(query), d);
                d
            }
        };
        let Some(incumbent) = incumbent else { return d };
        let key = IncumbentKey { query, incumbent };
        if let Some(kept) = self.incumbent_memo.borrow().get(&key) {
            return kept;
        }
        let kept = self.keep_incumbent(d, first, avail, alpha, incumbent);
        self.incumbent_memo.borrow_mut().insert(key, kept);
        kept
    }

    /// The unbiased decision over lanes `first..first + avail.len()` (see
    /// [`ConfigOptimizer::decide_multi_with_incumbent`]), without memo.
    fn decide_fresh(&self, first: usize, avail: &[u32], alpha: f64) -> MultiSkuDecision {
        // Line 3: the minimum-(l_req, instances, lane, config) sustaining
        // candidate at each lane's ceiling. Keys are unique (the lane and
        // config are part of them), so folding the lane minima in lane
        // order gives the minimum of one running scan.
        let mut best: Option<LatencyKey> = None;
        for (i, &n) in avail.iter().enumerate() {
            let ceiling = self.max_instances.max(n);
            self.ensure_frontier(first + i, ceiling);
            best = best
                .into_iter()
                .chain(self.lane_min_latency(first, i, ceiling, alpha))
                .min();
        }
        let target = match best {
            Some((_, _, lane, config)) => Some((lane, config)),
            // Line 5: nothing sustains anywhere — maximize throughput with
            // the instances at hand.
            None => self.max_throughput(first, avail),
        };
        let needed = |(lane, c): (usize, ParallelConfig)| {
            c.instances_needed(self.lanes[first + lane].gpus_per_instance)
        };
        // What can actually run right now, consistent with the target's
        // shape preference: the same minimum within each lane's
        // availability, else its maximum throughput.
        let now = match target {
            Some(t) if needed(t) <= avail[t.0] => Some(t),
            _ => {
                let mut now: Option<LatencyKey> = None;
                for (i, &n) in avail.iter().enumerate() {
                    if n > 0 {
                        now = now
                            .into_iter()
                            .chain(self.lane_min_latency(first, i, n, alpha))
                            .min();
                    }
                }
                now.map(|(_, _, i, c)| (i, c))
                    .or_else(|| self.max_throughput(first, avail))
            }
        };
        // Line 6: #Instances(target) − N, with #Instances(∅) = 0.
        let instance_delta = match target {
            Some(t) => needed(t) as i64 - avail[t.0] as i64,
            None => -avail.iter().map(|&n| i64::from(n)).sum::<i64>(),
        };
        MultiSkuDecision {
            now,
            target,
            instance_delta,
        }
    }

    /// `d` with the incumbent kept wherever it is within 15% of the pick
    /// (see [`ConfigOptimizer::decide_multi_with_incumbent`]).
    fn keep_incumbent(
        &self,
        mut d: MultiSkuDecision,
        first: usize,
        avail: &[u32],
        alpha: f64,
        incumbent: (usize, ParallelConfig),
    ) -> MultiSkuDecision {
        let (lane, inc) = incumbent;
        let n = avail[lane];
        let inc_needed = inc.instances_needed(self.lanes[first + lane].gpus_per_instance);
        if inc_needed > n {
            return d;
        }
        // Direct membership test: the incumbent is feasible iff it is in
        // the enumerated space and fits its lane — a binary search over
        // the frontier, not an O(|space|) re-enumeration. (A memo hit
        // returns before touching the frontier, so ensure it here.)
        self.ensure_frontier(first + lane, self.max_instances.max(n));
        if !self.frontier_ref(first + lane).contains(&inc, n) {
            return d;
        }
        let keepable = |(best_lane, best): (usize, ParallelConfig)| {
            let inc_l = self.latency_on(first + lane, &inc, alpha);
            let best_l = self.latency_on(first + best_lane, &best, alpha);
            self.throughput_on(first + lane, &inc) >= alpha
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
                d.instance_delta = inc_needed as i64 - n as i64;
            }
        }
        d
    }

    /// Lane `lane`'s minimum-key sustaining candidate within `limit`
    /// instances: its frontier's memoized scan
    /// ([`CandidateFrontier::min_latency`]) with the lane index attached.
    /// The lane's frontier must cover `limit`. A lane scanned on its own
    /// cannot stop early on another lane's better result; that costs work,
    /// never the answer.
    fn lane_min_latency(
        &self,
        first: usize,
        lane: usize,
        limit: u32,
        alpha: f64,
    ) -> Option<LatencyKey> {
        self.frontier_ref(first + lane)
            .min_latency(self.engine, limit, alpha)
            .map(|(l, instances, config)| (l, instances, lane, config))
    }

    /// The maximum-`(φ, Reverse((lane, config)))` candidate within each
    /// lane's availability, over the pruned frontier ranges. Every lane's
    /// frontier must cover its availability.
    fn max_throughput(&self, first: usize, avail: &[u32]) -> Option<(usize, ParallelConfig)> {
        let mut best: Option<(f64, Reverse<(usize, ParallelConfig)>)> = None;
        for (i, &n) in avail.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let fr = self.frontier_ref(first + i);
            for cand in fr.pruned_at(n, self.engine) {
                let key = (cand.throughput(self.engine), Reverse((i, cand.config)));
                let better = best.as_ref().is_none_or(|b| {
                    key.partial_cmp(b).expect("throughput is finite") == Ordering::Greater
                });
                if better {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, Reverse(pick))| pick)
    }
}

/// Algorithm 1's latency selection key: `(l_req, instances, lane,
/// canonical config)`, minimized.
type LatencyKey = (SimDuration, u32, usize, ParallelConfig);

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
    fn a_fleet_creeping_past_the_ceiling_rebuilds_logarithmically() {
        let o = opt(ModelSpec::gpt_20b())
            .with_engine_mode(EngineMode::ContinuousBatching)
            .with_sku(InstanceType::t4());
        let ceiling = |lane: usize| {
            o.lanes[lane]
                .frontier
                .borrow()
                .as_deref()
                .map(CandidateFrontier::ceiling)
        };
        let mut ceilings = Vec::new();
        for n in 16..=40u32 {
            let single = o.decide(n, 0.35);
            let multi = o.decide_multi(&[n], 0.35);
            assert_eq!(multi.target.map(|(_, c)| c), single.target, "n={n}");
            assert_eq!(ceiling(REGISTERED), ceiling(BASE));
            ceilings.push(ceiling(BASE).expect("built"));
        }
        ceilings.dedup();
        assert_eq!(ceilings, [16, 32, 64], "one rebuild per doubling");
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
}
