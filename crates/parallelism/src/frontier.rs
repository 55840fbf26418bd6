//! The memoized candidate frontier: Algorithm 1's search space, enumerated
//! once and priced up front.
//!
//! `ConfigOptimizer::decide*` used to re-run [`enumerate_configs`] three to
//! four times per invocation and re-price every candidate's `φ(C)` and
//! `l_req(C, α)` from the cost model each time. Every availability change in
//! every pool hits the optimizer, so at multi-pool event churn this is the
//! control plane's hot loop. A [`CandidateFrontier`] makes the steady-state
//! path allocation-free:
//!
//! * **enumerate once** at the fleet ceiling — the set feasible at `n`
//!   instances is exactly the candidates with `instances_needed(n) ≤ n`, so
//!   candidates are sorted by `(instances_needed, canonical order)` and
//!   `feasible_at(n)` is a prefix range behind a cumulative index;
//! * **price once per mesh** — none of `l_exe` (fixed-batch) or the
//!   per-occupancy slot/steady-iteration tables (continuous) depends on the
//!   data degree, so the tables are computed once per `(P, M)` mesh and
//!   `l_exe` once per `(P, M, B)` at build time, and every `D` shares them;
//!   `l_req(C, α)` then runs the shared [`PerfModel`] kernels over the
//!   cached components, bit-identical to fresh pricing;
//! * **Pareto-prune** — candidates dominated at equal instance cost
//!   (throughput no higher, latency no lower *for every* `α`, and losing
//!   every tie-break) can never be chosen by any of Algorithm 1's
//!   objectives, so the decision loops skip them entirely;
//! * **order by latency floor** — each candidate carries an `α`-free lower
//!   bound on its `l_req` ([`Candidate::floor`]), and the survivors of
//!   pruning are also indexed in floor order, so a minimum-latency scan
//!   stops at the first candidate whose floor exceeds the best latency
//!   found ([`CandidateFrontier::pruned_by_floor`]).
//!
//! The domination test is deliberately conservative: it only fires on
//! component-wise orderings that imply `l_req(y, α) ≤ l_req(x, α)` for all
//! `α` through the estimators' monotone structure (the fill term is
//! monotone in `B`, the queueing term in `ρ = α/φ` and the server count,
//! the continuous fixed-point iteration in the slot-time table), with the
//! canonical-order tie-break required to agree — so a pruned candidate
//! loses to its dominator under *every* selection key the optimizer uses,
//! and frontier-backed decisions stay bit-identical with fresh
//! enumeration. That contract is pinned by the equivalence property test
//! in `tests/optimizer_properties.rs`.

use std::collections::HashMap;

use cloudsim::GpuSpec;
use llmsim::MemoryModel;
use simkit::SimDuration;

use crate::config::ParallelConfig;
use crate::enumerate::{enumerate_configs, ConfigSpace};
use crate::perf::PerfModel;

/// Which engine's estimator prices candidates — the frontier caches both
/// so an optimizer can switch engines without re-enumerating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PricingMode {
    /// The paper's fixed-batch formulas (`φ`, Eq. 1 `l_req`).
    FixedBatch,
    /// The re-derived iteration-level estimator
    /// ([`PerfModel::request_latency_continuous`]).
    ContinuousBatching,
}

/// One enumerated configuration with its precomputed pricing components.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The configuration.
    pub config: ParallelConfig,
    /// `instances_needed` on the frontier's instance size.
    pub instances: u32,
    /// Cached `exec_latency` (the fixed-batch `l_exe`).
    l_exe: SimDuration,
    /// Cached fixed-batch `φ(C)`.
    phi_fixed: f64,
    /// Cached continuous `φ(C)`.
    phi_cont: f64,
    /// The continuous estimator's latency floor (see [`Candidate::floor`]).
    floor_cont: SimDuration,
    /// `slot_time(C, b)` for `b = 1..=B` (index `b − 1`).
    slot_times: Box<[SimDuration]>,
    /// `steady_iteration(C, b)` for `b = 1..=B` (index `b − 1`).
    steady_times: Box<[SimDuration]>,
}

impl Candidate {
    /// A lower bound on [`Candidate::latency`] under `mode` that holds for
    /// every arrival rate: `l_exe` for the fixed-batch estimator (it only
    /// adds fill and queueing delay), and the smallest `slot(b) +
    /// steady(b)/2` over occupancies `b ≤ B` — or `slot(1)`, the empty
    /// engine's price at `α = 0` — for the continuous one. Saturated
    /// candidates price at [`SimDuration::MAX`], above any floor.
    pub fn floor(&self, mode: PricingMode) -> SimDuration {
        match mode {
            PricingMode::FixedBatch => self.l_exe,
            PricingMode::ContinuousBatching => self.floor_cont,
        }
    }

    /// Cached `φ(C)` under `mode` — bit-identical to
    /// [`PerfModel::throughput`] / [`PerfModel::throughput_continuous`].
    pub fn throughput(&self, mode: PricingMode) -> f64 {
        match mode {
            PricingMode::FixedBatch => self.phi_fixed,
            PricingMode::ContinuousBatching => self.phi_cont,
        }
    }

    /// `l_req(C, α)` under `mode`, via the shared [`PerfModel`] kernels
    /// over the cached components — bit-identical to fresh pricing.
    pub fn latency(&self, perf: &PerfModel, mode: PricingMode, alpha: f64) -> SimDuration {
        match mode {
            PricingMode::FixedBatch => {
                perf.request_latency_with_exec(&self.config, self.l_exe, alpha)
            }
            PricingMode::ContinuousBatching => perf.request_latency_continuous_with(
                &self.config,
                alpha,
                |b| self.slot_times[b as usize - 1],
                |b| self.steady_times[b as usize - 1],
            ),
        }
    }

    /// Whether `self` dominates `x` under `mode`: no Algorithm 1 objective
    /// — minimum-latency-among-sustaining, maximum-throughput, or
    /// cheapest-meeting-SLO — can ever select `x` while `self` is present,
    /// for *any* arrival rate, including every exact-tie case.
    ///
    /// Requirements (all conservative, see the module docs):
    /// * equal instance cost and strictly earlier canonical order, so
    ///   `self` wins every `(instances, config)` and `Reverse(config)`
    ///   tie-break;
    /// * `φ(self) ≥ φ(x)`, so `self` is in every sustaining/feasible set
    ///   `x` is in, and wins the throughput objective;
    /// * component-wise latency ordering that implies
    ///   `l_req(self, α) ≤ l_req(x, α)` for all `α` through the
    ///   estimator's monotone structure.
    fn dominates(&self, x: &Candidate, mode: PricingMode) -> bool {
        if self.instances != x.instances || self.config >= x.config {
            return false;
        }
        match mode {
            PricingMode::FixedBatch => {
                // l_req = l_exe + (B−1)/2α + l_exe·ρ^√(2(D+1))/(2D(1−ρ)):
                // monotone in l_exe, B, ρ = α/φ and anti-monotone in D.
                self.phi_fixed >= x.phi_fixed
                    && self.l_exe <= x.l_exe
                    && self.config.batch <= x.config.batch
                    && self.config.data >= x.config.data
            }
            PricingMode::ContinuousBatching => {
                // The occupancy fixed point iterates b ← clamp((α/D)·slot(b))
                // from the same seed over the same clamp range (equal B):
                // a pointwise-≤ slot table and D ≥ keep the iterate ≤ at
                // every step, so every component (slot(b̄), steady(b̄)/2,
                // queueing over slot(B)) is ≤.
                self.config.batch == x.config.batch
                    && self.config.data >= x.config.data
                    && self.phi_cont >= x.phi_cont
                    && self
                        .slot_times
                        .iter()
                        .zip(x.slot_times.iter())
                        .all(|(a, b)| a <= b)
                    && self
                        .steady_times
                        .iter()
                        .zip(x.steady_times.iter())
                        .all(|(a, b)| a <= b)
            }
        }
    }
}

/// The enumerated, priced and pruned candidate set for one
/// `(model, space, gpu, mem)` at a fleet ceiling. See the module docs.
///
/// # Example
///
/// ```
/// use cloudsim::GpuSpec;
/// use llmsim::{MemoryModel, ModelSpec};
/// use parallelism::{CandidateFrontier, ConfigSpace, PerfModel, PricingMode};
///
/// let model = ModelSpec::gpt_20b();
/// let perf = PerfModel::paper_defaults(model.clone());
/// let f = CandidateFrontier::new(
///     &perf,
///     &MemoryModel::default(),
///     &GpuSpec::t4(),
///     &ConfigSpace::default(),
///     4,
///     16,
/// );
/// // GPT-20B needs 12 GPUs = 3 instances: nothing fits at 2.
/// assert!(f.feasible_at(2).is_empty());
/// assert!(!f.feasible_at(3).is_empty());
/// // Every survivor of pruning is still priced exactly.
/// let c = f.pruned_at(16, PricingMode::FixedBatch).next().unwrap();
/// assert_eq!(c.throughput(PricingMode::FixedBatch), perf.throughput(&c.config));
/// ```
#[derive(Debug, Clone)]
pub struct CandidateFrontier {
    gpus_per_instance: u8,
    /// Fleet ceiling (instances) this frontier was enumerated at.
    ceiling: u32,
    /// All candidates, sorted by `(instances, canonical config order)`.
    candidates: Vec<Candidate>,
    /// `cum[n]` = number of candidates needing at most `n` instances
    /// (`n = 0..=ceiling`), so `feasible_at(n)` is `candidates[..cum[n]]`.
    cum: Vec<u32>,
    /// Indices (ascending) of candidates surviving fixed-batch pruning,
    /// with its own cumulative per-instance index.
    pruned_fixed: Vec<u32>,
    pruned_fixed_cum: Vec<u32>,
    /// Same for the continuous estimator.
    pruned_cont: Vec<u32>,
    pruned_cont_cum: Vec<u32>,
    /// The same survivors as `pruned_fixed` / `pruned_cont` at the
    /// ceiling, reordered by ascending [`Candidate::floor`] (ties keep
    /// `(instances, config)` order).
    by_floor_fixed: Vec<u32>,
    by_floor_cont: Vec<u32>,
}

/// The pricing shared by every data degree of one `(P, M)` mesh: none of
/// `exec_latency`, `slot_time` or `steady_iteration` depends on `D`.
#[derive(Default)]
struct MeshPricing {
    /// `slot_time(b)` for `b = 1..=` the largest batch priced so far.
    slot: Vec<SimDuration>,
    /// `steady_iteration(b)`, same range.
    steady: Vec<SimDuration>,
    /// `exec_latency` per batch size priced so far.
    l_exe: Vec<(u32, SimDuration)>,
}

impl MeshPricing {
    /// Prices `config` (of this mesh), extending the shared tables to its
    /// batch size first.
    fn price(
        &mut self,
        perf: &PerfModel,
        config: ParallelConfig,
        gpus_per_instance: u8,
    ) -> Candidate {
        for b in self.slot.len() as u32 + 1..=config.batch {
            self.slot.push(perf.slot_time(&config, b));
            self.steady.push(perf.steady_iteration(&config, b));
        }
        let l_exe = match self.l_exe.iter().find(|&&(b, _)| b == config.batch) {
            Some(&(_, l)) => l,
            None => {
                let l = perf.exec_latency(&config);
                self.l_exe.push((config.batch, l));
                l
            }
        };
        let b = config.batch as usize;
        let slot_times: Box<[SimDuration]> = self.slot[..b].into();
        let steady_times: Box<[SimDuration]> = self.steady[..b].into();
        // Bitwise the same computations as `PerfModel::throughput` /
        // `throughput_continuous` over the cached components.
        let phi_fixed = (config.data * config.batch) as f64 / l_exe.as_secs_f64();
        let phi_cont = (config.data * config.batch) as f64 / slot_times[b - 1].as_secs_f64();
        // The continuous kernel returns `slot(b̄) + steady(b̄)/2 + queueing`
        // for some occupancy `b̄ ∈ 1..=B` when α > 0, and `slot(1)` alone
        // when α = 0.
        let floor_cont = slot_times
            .iter()
            .zip(steady_times.iter())
            .map(|(&s, &st)| s + st / 2)
            .fold(slot_times[0], SimDuration::min);
        Candidate {
            config,
            instances: config.instances_needed(gpus_per_instance),
            l_exe,
            phi_fixed,
            phi_cont,
            floor_cont,
            slot_times,
            steady_times,
        }
    }
}

impl CandidateFrontier {
    /// Enumerates, prices and prunes the space for a fleet of up to
    /// `ceiling_instances` instances of `gpus_per_instance` GPUs each.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_instance` or `ceiling_instances` is zero.
    pub fn new(
        perf: &PerfModel,
        mem: &MemoryModel,
        gpu: &GpuSpec,
        space: &ConfigSpace,
        gpus_per_instance: u8,
        ceiling_instances: u32,
    ) -> Self {
        assert!(gpus_per_instance > 0 && ceiling_instances > 0);
        let mut meshes: HashMap<(u32, u32), MeshPricing> = HashMap::new();
        let mut candidates: Vec<Candidate> = enumerate_configs(
            perf.model(),
            mem,
            gpu,
            space,
            ceiling_instances * gpus_per_instance as u32,
        )
        .into_iter()
        .map(|c| {
            meshes
                .entry((c.pipeline, c.tensor))
                .or_default()
                .price(perf, c, gpus_per_instance)
        })
        .collect();
        // Stable sort: within one instance bucket the canonical
        // (enumeration) order is preserved.
        candidates.sort_by_key(|a| (a.instances, a.config));
        let cum = cumulative(candidates.iter().map(|c| c.instances), ceiling_instances);
        let (pruned_fixed, pruned_fixed_cum) =
            prune(&candidates, ceiling_instances, PricingMode::FixedBatch);
        let (pruned_cont, pruned_cont_cum) = prune(
            &candidates,
            ceiling_instances,
            PricingMode::ContinuousBatching,
        );
        let by_floor = |pruned: &[u32], mode| {
            let mut order = pruned.to_vec();
            order.sort_by_key(|&i| candidates[i as usize].floor(mode));
            order
        };
        let by_floor_fixed = by_floor(&pruned_fixed, PricingMode::FixedBatch);
        let by_floor_cont = by_floor(&pruned_cont, PricingMode::ContinuousBatching);
        CandidateFrontier {
            gpus_per_instance,
            ceiling: ceiling_instances,
            candidates,
            cum,
            pruned_fixed,
            pruned_fixed_cum,
            pruned_cont,
            pruned_cont_cum,
            by_floor_fixed,
            by_floor_cont,
        }
    }

    /// The fleet ceiling (instances) this frontier covers.
    pub fn ceiling(&self) -> u32 {
        self.ceiling
    }

    /// GPUs per instance the cumulative index was built for.
    pub fn gpus_per_instance(&self) -> u8 {
        self.gpus_per_instance
    }

    /// Total enumerated candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the space is empty at the ceiling.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Candidates surviving pruning under `mode`, at the ceiling.
    pub fn pruned_len(&self, mode: PricingMode) -> usize {
        match mode {
            PricingMode::FixedBatch => self.pruned_fixed.len(),
            PricingMode::ContinuousBatching => self.pruned_cont.len(),
        }
    }

    /// Every candidate feasible on a fleet of `n` instances — the range
    /// lookup replacing a fresh `enumerate_configs` call. `n` above the
    /// ceiling clamps to the ceiling (callers grow the frontier instead).
    pub fn feasible_at(&self, n: u32) -> &[Candidate] {
        let n = n.min(self.ceiling) as usize;
        &self.candidates[..self.cum[n] as usize]
    }

    /// The candidates feasible at `n` instances that survive Pareto
    /// pruning under `mode` — the set the decision loops scan. Skipped
    /// candidates are exactly those that can never be selected (see
    /// [`Candidate`] `dominates`), so a scan over this iterator picks the
    /// same winner as a scan over [`CandidateFrontier::feasible_at`].
    pub fn pruned_at(&self, n: u32, mode: PricingMode) -> impl Iterator<Item = &Candidate> + '_ {
        let n = n.min(self.ceiling) as usize;
        let (idx, cum) = match mode {
            PricingMode::FixedBatch => (&self.pruned_fixed, &self.pruned_fixed_cum),
            PricingMode::ContinuousBatching => (&self.pruned_cont, &self.pruned_cont_cum),
        };
        idx[..cum[n] as usize]
            .iter()
            .map(move |&i| &self.candidates[i as usize])
    }

    /// The candidates surviving pruning under `mode` at the ceiling, in
    /// ascending [`Candidate::floor`] order. A scan for the minimum
    /// `l_req` within `n` instances skips candidates needing more than `n`
    /// and may stop at the first floor above the best latency found: no
    /// later candidate can price lower.
    pub fn pruned_by_floor(&self, mode: PricingMode) -> impl Iterator<Item = &Candidate> + '_ {
        let idx = match mode {
            PricingMode::FixedBatch => &self.by_floor_fixed,
            PricingMode::ContinuousBatching => &self.by_floor_cont,
        };
        idx.iter().map(move |&i| &self.candidates[i as usize])
    }

    /// Whether `c` is feasible on a fleet of `n` instances — the direct
    /// membership test replacing `feasible(n).contains(&c)` (a binary
    /// search over the enumerated set instead of an `O(|space|)`
    /// re-enumeration). `n` must be within the ceiling.
    pub fn contains(&self, c: &ParallelConfig, n: u32) -> bool {
        let inst = c.instances_needed(self.gpus_per_instance);
        inst <= n.min(self.ceiling) && self.lookup(c).is_some()
    }

    /// The priced candidate for `c`, if `c` is in the enumerated space.
    pub fn lookup(&self, c: &ParallelConfig) -> Option<&Candidate> {
        let inst = c.instances_needed(self.gpus_per_instance);
        self.candidates
            .binary_search_by(|cand| (cand.instances, cand.config).cmp(&(inst, *c)))
            .ok()
            .map(|i| &self.candidates[i])
    }
}

/// `out[n]` = number of entries needing at most `n` instances, for
/// `n = 0..=ceiling` (entries are instance-sorted, each within the
/// ceiling).
fn cumulative(instances: impl Iterator<Item = u32>, ceiling: u32) -> Vec<u32> {
    let mut cum = vec![0u32; ceiling as usize + 1];
    for inst in instances {
        debug_assert!(inst >= 1 && inst <= ceiling);
        cum[inst as usize] += 1;
    }
    for n in 1..cum.len() {
        cum[n] += cum[n - 1];
    }
    cum
}

/// Pareto pruning within equal-instance buckets: drop every candidate
/// dominated by another of the same instance cost. Domination is
/// transitive, so any dominated candidate has a *surviving* dominator.
fn prune(candidates: &[Candidate], ceiling: u32, mode: PricingMode) -> (Vec<u32>, Vec<u32>) {
    let mut keep: Vec<u32> = Vec::new();
    let mut start = 0;
    while start < candidates.len() {
        let inst = candidates[start].instances;
        let mut end = start;
        while end < candidates.len() && candidates[end].instances == inst {
            end += 1;
        }
        let bucket = &candidates[start..end];
        for (i, x) in bucket.iter().enumerate() {
            let dominated = bucket
                .iter()
                .enumerate()
                .any(|(j, y)| j != i && y.dominates(x, mode));
            if !dominated {
                keep.push((start + i) as u32);
            }
        }
        start = end;
    }
    // Cumulative index over the kept (still instance-sorted) list.
    let cum = cumulative(
        keep.iter().map(|&i| candidates[i as usize].instances),
        ceiling,
    );
    (keep, cum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::InstanceType;
    use llmsim::ModelSpec;

    use crate::perf::tests::sku_perf;

    fn frontier(model: ModelSpec, ceiling: u32) -> (PerfModel, CandidateFrontier) {
        let perf = PerfModel::paper_defaults(model);
        let f = CandidateFrontier::new(
            &perf,
            &MemoryModel::default(),
            &GpuSpec::t4(),
            &ConfigSpace::default(),
            4,
            ceiling,
        );
        (perf, f)
    }

    /// Every paper model on the paper's calibrated T4 estimator and on an
    /// L4 lane's estimator, each with its frontier at `ceiling`.
    fn model_sku_frontiers(ceiling: u32) -> Vec<(String, PerfModel, CandidateFrontier)> {
        let mut out = Vec::new();
        for model in ModelSpec::paper_models() {
            let (perf, f) = frontier(model.clone(), ceiling);
            out.push((format!("{} on T4", model.name), perf, f));
            let l4 = InstanceType::l4();
            let perf = sku_perf(&model, &l4);
            let f = CandidateFrontier::new(
                &perf,
                &MemoryModel::default(),
                &l4.gpu,
                &ConfigSpace::default(),
                l4.gpus_per_instance,
                ceiling,
            );
            out.push((format!("{} on L4", model.name), perf, f));
        }
        out
    }

    const MODES: [PricingMode; 2] = [PricingMode::FixedBatch, PricingMode::ContinuousBatching];

    #[test]
    fn feasible_at_matches_fresh_enumeration_at_every_fleet_size() {
        let (perf, f) = frontier(ModelSpec::gpt_20b(), 16);
        for n in 0..=16u32 {
            let mut from_frontier: Vec<ParallelConfig> =
                f.feasible_at(n).iter().map(|c| c.config).collect();
            from_frontier.sort_unstable();
            let fresh = enumerate_configs(
                perf.model(),
                &MemoryModel::default(),
                &GpuSpec::t4(),
                &ConfigSpace::default(),
                n * 4,
            );
            assert_eq!(from_frontier, fresh, "fleet of {n}");
        }
    }

    #[test]
    fn cached_pricing_is_bit_identical_with_fresh_pricing() {
        // Per-mesh pricing shares one set of tables across every data
        // degree; each candidate must still price exactly as `PerfModel`
        // prices it from scratch.
        for (name, perf, f) in model_sku_frontiers(12) {
            assert!(!f.is_empty(), "{name}");
            for cand in f.feasible_at(12) {
                let c = &cand.config;
                assert_eq!(cand.throughput(PricingMode::FixedBatch), perf.throughput(c));
                assert_eq!(
                    cand.throughput(PricingMode::ContinuousBatching),
                    perf.throughput_continuous(c)
                );
                for alpha in [0.0, 0.1, 0.35, 1.0, 3.0] {
                    assert_eq!(
                        cand.latency(&perf, PricingMode::FixedBatch, alpha),
                        perf.request_latency(c, alpha),
                        "{name}: {c} fixed @ {alpha}"
                    );
                    assert_eq!(
                        cand.latency(&perf, PricingMode::ContinuousBatching, alpha),
                        perf.request_latency_continuous(c, alpha),
                        "{name}: {c} continuous @ {alpha}"
                    );
                }
            }
        }
    }

    #[test]
    fn floor_bounds_latency_at_every_rate() {
        // From the empty engine (α = 0) through saturation (ρ ≥ 1 prices
        // at MAX), no candidate ever prices below its floor.
        let fractions = [0.0, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0, 2.0];
        for (name, perf, f) in model_sku_frontiers(16) {
            for cand in f.feasible_at(16) {
                for mode in MODES {
                    let floor = cand.floor(mode);
                    for frac in fractions {
                        let alpha = cand.throughput(mode) * frac;
                        let l = cand.latency(&perf, mode, alpha);
                        assert!(
                            floor <= l,
                            "{name}: {} {mode:?} floor {floor} above l_req {l} at α = {alpha}",
                            cand.config
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn floor_order_is_a_permutation_of_the_pruned_set() {
        for (name, _, f) in model_sku_frontiers(16) {
            for mode in MODES {
                let by_floor: Vec<&Candidate> = f.pruned_by_floor(mode).collect();
                assert!(
                    by_floor
                        .windows(2)
                        .all(|w| w[0].floor(mode) <= w[1].floor(mode)),
                    "{name} {mode:?}: not in floor order"
                );
                let mut sorted: Vec<ParallelConfig> = by_floor.iter().map(|c| c.config).collect();
                sorted.sort_unstable();
                let mut pruned: Vec<ParallelConfig> =
                    f.pruned_at(16, mode).map(|c| c.config).collect();
                pruned.sort_unstable();
                assert_eq!(sorted, pruned, "{name} {mode:?}");
            }
        }
    }

    #[test]
    fn pruning_never_drops_an_optimum() {
        // For a sweep of (n, α): the best (latency, instances, config) key
        // over the pruned set equals the best over the full feasible set,
        // under both estimators — the domination contract, checked
        // exhaustively at a small ceiling.
        let (perf, f) = frontier(ModelSpec::gpt_20b(), 10);
        for mode in [PricingMode::FixedBatch, PricingMode::ContinuousBatching] {
            for n in [3u32, 5, 8, 10] {
                for alpha in [0.0, 0.05, 0.2, 0.35, 0.6, 1.5] {
                    let best_full = f
                        .feasible_at(n)
                        .iter()
                        .map(|c| (c.latency(&perf, mode, alpha), c.instances, c.config))
                        .min();
                    let best_pruned = f
                        .pruned_at(n, mode)
                        .map(|c| (c.latency(&perf, mode, alpha), c.instances, c.config))
                        .min();
                    assert_eq!(best_full, best_pruned, "latency {mode:?} n={n} α={alpha}");
                    let phi_full = f
                        .feasible_at(n)
                        .iter()
                        .map(|c| (c.throughput(mode), std::cmp::Reverse(c.config)))
                        .max_by(|a, b| a.partial_cmp(b).expect("finite"));
                    let phi_pruned = f
                        .pruned_at(n, mode)
                        .map(|c| (c.throughput(mode), std::cmp::Reverse(c.config)))
                        .max_by(|a, b| a.partial_cmp(b).expect("finite"));
                    assert_eq!(phi_full, phi_pruned, "throughput {mode:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn pruning_actually_removes_candidates() {
        let (_, f) = frontier(ModelSpec::gpt_20b(), 16);
        assert!(
            f.pruned_len(PricingMode::FixedBatch) < f.len(),
            "fixed-batch pruning must bite: {} of {}",
            f.pruned_len(PricingMode::FixedBatch),
            f.len()
        );
    }

    #[test]
    fn contains_matches_linear_membership() {
        let (_, f) = frontier(ModelSpec::opt_6_7b(), 8);
        for n in [0u32, 1, 3, 8] {
            let set: Vec<ParallelConfig> = f.feasible_at(n).iter().map(|c| c.config).collect();
            for cand in f.feasible_at(8) {
                assert_eq!(
                    f.contains(&cand.config, n),
                    set.contains(&cand.config),
                    "{} at {n}",
                    cand.config
                );
            }
        }
        // A config outside the space is never contained.
        assert!(!f.contains(&ParallelConfig::new(1, 1, 3, 5), 8));
    }

    #[test]
    fn lookup_finds_every_candidate() {
        let (_, f) = frontier(ModelSpec::llama_30b(), 8);
        for cand in f.feasible_at(8) {
            assert_eq!(f.lookup(&cand.config).unwrap().config, cand.config);
        }
    }
}
