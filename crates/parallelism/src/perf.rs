//! Performance estimation for parallel configurations.
//!
//! Algorithm 1 needs two quantities per candidate configuration: the peak
//! serving throughput `φ(C)` and the expected end-to-end request latency
//! `l_req(C)` at the current arrival rate (§3.2). Both come from the
//! calibrated cost model; the scheduling-delay component uses a standard
//! multi-server queueing heuristic, mirroring the paper's offline profiler.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use llmsim::{CostModel, ModelSpec, PassPricer, SeqWork};
use simkit::SimDuration;

use crate::config::ParallelConfig;

/// Which execution engine the inference pipelines run, and so which of
/// [`PerfModel`]'s estimators prices a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Iteration-level continuous batching (the default): requests are
    /// admitted and retired at decode-iteration boundaries, within the
    /// batch capacity and the engine's KV budget, and each iteration is
    /// priced from the current mixed batch
    /// ([`PerfModel::request_latency_continuous`]).
    #[default]
    ContinuousBatching,
    /// Run-to-completion batching: a batch forms, decodes to its last
    /// token, and only then does the next batch form. The paper's §3/§6.1
    /// engine model, kept as the comparison baseline and priced by the
    /// paper's fixed-batch formulas (`φ`, Eq. 1 `l_req`).
    FixedBatch,
}

/// Latency/throughput estimator for one model on one cluster.
///
/// # Example
///
/// ```
/// use llmsim::{calibration, ModelSpec};
/// use parallelism::{ParallelConfig, PerfModel};
///
/// let model = ModelSpec::gpt_20b();
/// let perf = PerfModel::paper_defaults(model.clone());
/// let c = ParallelConfig::new(2, 3, 4, 8);
/// let phi = perf.throughput(&c);
/// assert!(phi > 0.35, "paper: this config sustains the 0.35 req/s workload");
/// ```
#[derive(Clone)]
pub struct PerfModel {
    /// Drawn once in [`PerfModel::new`] and shared by every clone. No
    /// field changes after `new`, so equal ids mean equal models, and
    /// equality compares fields only between separately built ones.
    id: u64,
    model: ModelSpec,
    cost: CostModel,
    s_in: u32,
    s_out: u32,
}

/// The next [`PerfModel`] construction id. Taken with `Relaxed`: an id
/// publishes no other data, and `fetch_add` alone keeps ids unique.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

impl PartialEq for PerfModel {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id || self.fields_eq(other)
    }
}

impl PerfModel {
    /// Field-by-field equality, for models built separately.
    fn fields_eq(&self, other: &Self) -> bool {
        self.model == other.model
            && self.cost == other.cost
            && self.s_in == other.s_in
            && self.s_out == other.s_out
    }
}

// By hand, to leave out the id: it depends on construction order, which
// threads may interleave, and the printed model must not.
impl fmt::Debug for PerfModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerfModel")
            .field("model", &self.model)
            .field("cost", &self.cost)
            .field("s_in", &self.s_in)
            .field("s_out", &self.s_out)
            .finish()
    }
}

impl PerfModel {
    /// Creates an estimator from an explicit cost model and sequence shape.
    ///
    /// # Panics
    ///
    /// Panics if `s_out == 0`.
    pub fn new(model: ModelSpec, cost: CostModel, s_in: u32, s_out: u32) -> Self {
        assert!(s_out > 0, "generation must produce tokens");
        PerfModel {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            model,
            cost,
            s_in,
            s_out,
        }
    }

    /// The paper's evaluation setup: T4 cluster, calibrated scales,
    /// `S_in = 512`, `S_out = 128`.
    pub fn paper_defaults(model: ModelSpec) -> Self {
        let cost = llmsim::calibration::calibrated_cost_model(&model);
        PerfModel::new(
            model,
            cost,
            llmsim::calibration::PAPER_S_IN,
            llmsim::calibration::PAPER_S_OUT,
        )
    }

    /// The model being served.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The `(S_in, S_out)` shape this estimator assumes.
    pub fn sequence_shape(&self) -> (u32, u32) {
        (self.s_in, self.s_out)
    }

    /// Execution latency `l_exe` of one full batch under `c` (Eq. 1).
    pub fn exec_latency(&self, c: &ParallelConfig) -> SimDuration {
        self.cost.exec_latency(
            &self.model,
            c.pipeline,
            c.tensor,
            c.batch,
            self.s_in,
            self.s_out,
        )
    }

    /// Latency of one continuous-batching iteration under `c`: a single
    /// forward pass over the *current* mixed batch, where each running
    /// sequence contributes its own prefill-vs-decode token count and
    /// attention context. This is the per-iteration price the
    /// iteration-level scheduler recomputes whenever the running set
    /// changes; for a uniform batch it reduces bit-exactly to the uniform
    /// cost-model path.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is empty (no iteration to price).
    pub fn mixed_iteration_time(&self, c: &ParallelConfig, seqs: &[SeqWork]) -> SimDuration {
        self.cost
            .mixed_forward_time(&self.model, c.pipeline, c.tensor, seqs)
    }

    /// A [`PassPricer`] for `c`'s mesh: it prices every pass exactly as
    /// [`PerfModel::mixed_iteration_time`] under any configuration of the
    /// same `P×M`, deriving the mesh's terms once.
    pub fn pass_pricer(&self, c: &ParallelConfig) -> PassPricer {
        PassPricer::new(&self.cost, &self.model, c.pipeline, c.tensor)
    }

    /// Peak serving throughput `φ(C)` in requests/second: `D·B` requests
    /// complete every `l_exe`.
    pub fn throughput(&self, c: &ParallelConfig) -> f64 {
        (c.data * c.batch) as f64 / self.exec_latency(c).as_secs_f64()
    }

    /// Expected end-to-end request latency `l_req(C) = l_sch + l_exe` at
    /// arrival rate `alpha` (req/s), under the paper's **fixed-batch**
    /// engine (§3.2 / Eq. 1).
    ///
    /// The scheduling component models (a) the wait to fill a batch of `B`
    /// at rate `alpha` and (b) multi-server queueing delay that grows as
    /// utilization `ρ = α / φ(C)` approaches 1 (Allen–Cunneen style
    /// approximation). Returns [`SimDuration::MAX`] when the system is
    /// saturated (`ρ ≥ 1`), matching the optimizer's "overloaded" treatment.
    ///
    /// This is the estimator Algorithm 1 uses under
    /// [`EngineMode::FixedBatch`], kept formula-exact so figure comparisons
    /// against the paper stay bit-identical; the continuous engine prices
    /// candidates with [`PerfModel::request_latency_continuous`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn request_latency(&self, c: &ParallelConfig, alpha: f64) -> SimDuration {
        self.request_latency_with_exec(c, self.exec_latency(c), alpha)
    }

    /// The fixed-batch `l_req` formula over a precomputed `l_exe` — the
    /// kernel behind [`PerfModel::request_latency`], exposed so callers
    /// holding a cached `exec_latency` (the candidate frontier) price
    /// bit-identically to the fresh path by running the *same* code.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn request_latency_with_exec(
        &self,
        c: &ParallelConfig,
        l_exe: SimDuration,
        alpha: f64,
    ) -> SimDuration {
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "bad arrival rate {alpha}"
        );
        if alpha == 0.0 {
            return l_exe;
        }
        let phi = (c.data * c.batch) as f64 / l_exe.as_secs_f64();
        let rho = alpha / phi;
        if rho >= 1.0 {
            return SimDuration::MAX;
        }
        // Batch-fill delay: the average request waits for half the rest of
        // its batch to arrive.
        let fill = (c.batch as f64 - 1.0) / (2.0 * alpha);
        // Queueing delay: M/D/c heuristic with c = D servers whose service
        // time is l_exe per batch.
        let servers = c.data as f64;
        let queue = l_exe.as_secs_f64() * rho.powf((2.0 * (servers + 1.0)).sqrt())
            / (2.0 * servers * (1.0 - rho));
        l_exe + SimDuration::from_secs_f64(fill + queue)
    }

    // ---- Continuous-batching (iteration-level) estimator --------------
    //
    // Under the iteration-level engine a request never waits for a batch
    // to fill: it joins at the next iteration boundary, runs its prefill
    // as one mixed pass among the residents' decodes, and then holds a
    // *slot* for `S_out` iterations. The natural service unit is the slot,
    // not the batch, which re-derives both φ(C) and l_req(C).

    /// One steady decode iteration at occupancy `b` (each resident at its
    /// mid-lifetime attention context).
    pub fn steady_iteration(&self, c: &ParallelConfig, b: u32) -> SimDuration {
        self.cost.decode_time(
            &self.model,
            c.pipeline,
            c.tensor,
            b,
            self.s_in + self.s_out / 2,
        )
    }

    /// The admission pass at occupancy `b`: one request's prefill carried
    /// through a mixed iteration alongside `b - 1` residents' decodes.
    fn admission_pass(&self, c: &ParallelConfig, b: u32) -> SimDuration {
        let mut seqs = vec![SeqWork::decode(self.s_in + self.s_out / 2); b as usize - 1];
        seqs.push(SeqWork::prefill(self.s_in));
        self.cost
            .mixed_forward_time(&self.model, c.pipeline, c.tensor, &seqs)
    }

    /// How long one request occupies a slot at steady occupancy `b`: its
    /// admission (prefill) pass plus `S_out − 1` decode iterations.
    pub fn slot_time(&self, c: &ParallelConfig, b: u32) -> SimDuration {
        self.slot_time_with_steady(c, b, self.steady_iteration(c, b))
    }

    /// [`slot_time`](Self::slot_time) over `steady`, which must be
    /// `steady_iteration(c, b)`: the frontier prices each occupancy's
    /// steady pass once for both of its tables.
    pub(crate) fn slot_time_with_steady(
        &self,
        c: &ParallelConfig,
        b: u32,
        steady: SimDuration,
    ) -> SimDuration {
        self.admission_pass(c, b) + steady * (self.s_out - 1) as u64
    }

    /// Peak serving throughput of the iteration-level engine: `D·B` slots,
    /// each turning over a request every [`slot_time`](Self::slot_time) at
    /// full occupancy. Strictly exceeds the fixed-batch `φ(C)` because the
    /// prefill of one admission rides a single mixed pass instead of a
    /// whole-batch prefill, and no slot idles while the batch drains.
    pub fn throughput_continuous(&self, c: &ParallelConfig) -> f64 {
        (c.data * c.batch) as f64 / self.slot_time(c, c.batch).as_secs_f64()
    }

    /// Expected end-to-end request latency under the iteration-level
    /// engine at arrival rate `alpha` — the re-derived `l_req(C)`.
    ///
    /// Components:
    /// * **no batch-fill delay** — the fixed-batch `(B−1)/2α` term is
    ///   replaced by half a steady iteration of boundary wait;
    /// * **execution at steady occupancy** — the resident batch size `b̄`
    ///   solves Little's law `b̄ = (α/D)·T_slot(b̄)` (iterated to a fixed
    ///   point, clamped to `[1, B]`), and the request's own passes are
    ///   priced at that occupancy;
    /// * **slot queueing** — an Allen–Cunneen style term over `D·B`
    ///   servers of service time `T_slot(B)` as `ρ = α/φ_cont → 1`.
    ///
    /// Returns [`SimDuration::MAX`] when saturated (`ρ ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn request_latency_continuous(&self, c: &ParallelConfig, alpha: f64) -> SimDuration {
        self.request_latency_continuous_with(
            c,
            alpha,
            |b| self.slot_time(c, b),
            |b| self.steady_iteration(c, b),
        )
    }

    /// The continuous `l_req` formula over caller-supplied slot/steady
    /// iteration prices — the kernel behind
    /// [`PerfModel::request_latency_continuous`], exposed so callers
    /// holding per-occupancy tables (the candidate frontier) price
    /// bit-identically to the fresh path by running the *same* code.
    /// `slot(b)` and `steady(b)` are queried for occupancies `1..=c.batch`
    /// and must return exactly [`PerfModel::slot_time`] and
    /// [`PerfModel::steady_iteration`].
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn request_latency_continuous_with(
        &self,
        c: &ParallelConfig,
        alpha: f64,
        slot: impl Fn(u32) -> SimDuration,
        steady: impl Fn(u32) -> SimDuration,
    ) -> SimDuration {
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "bad arrival rate {alpha}"
        );
        if alpha == 0.0 {
            // Empty engine: run alone at occupancy 1.
            return slot(1);
        }
        let phi = (c.data * c.batch) as f64 / slot(c.batch).as_secs_f64();
        let rho = alpha / phi;
        if rho >= 1.0 {
            return SimDuration::MAX;
        }
        // Steady occupancy by Little's law, iterated to a fixed point (at
        // most 16 steps). Each iterate depends only on the previous integer
        // occupancy, so once `bi` repeats every later step repeats it too.
        let per_pipeline = alpha / c.data as f64;
        let mut bi = 1u32;
        for _ in 0..16 {
            let next = (per_pipeline * slot(bi).as_secs_f64())
                .clamp(1.0, c.batch as f64)
                .ceil() as u32;
            if next == bi {
                break;
            }
            bi = next;
        }
        let l_exe = slot(bi);
        let boundary = steady(bi) / 2;
        let servers = (c.data * c.batch) as f64;
        let queue = slot(c.batch).as_secs_f64() * rho.powf((2.0 * (servers + 1.0)).sqrt())
            / (servers * (1.0 - rho));
        l_exe + boundary + SimDuration::from_secs_f64(queue)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cloudsim::InstanceType;
    use llmsim::MemoryModel;

    use crate::enumerate::{enumerate_configs, ConfigSpace};

    fn perf(model: ModelSpec) -> PerfModel {
        PerfModel::paper_defaults(model)
    }

    /// `model`'s estimator on `ty`, built the way an optimizer's SKU lane
    /// builds it: that SKU's hardware under the model's calibration scale.
    pub(crate) fn sku_perf(model: &ModelSpec, ty: &InstanceType) -> PerfModel {
        let scale = llmsim::calibration::calibration_scale(model);
        PerfModel::new(
            model.clone(),
            CostModel::for_instance_type(ty).with_scale(scale),
            llmsim::calibration::PAPER_S_IN,
            llmsim::calibration::PAPER_S_OUT,
        )
    }

    /// The continuous kernel as it was before the fixed-point loop learned
    /// to stop early: all 16 steps, verbatim.
    fn request_latency_continuous_16_steps(
        c: &ParallelConfig,
        alpha: f64,
        slot: impl Fn(u32) -> SimDuration,
        steady: impl Fn(u32) -> SimDuration,
    ) -> SimDuration {
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "bad arrival rate {alpha}"
        );
        if alpha == 0.0 {
            // Empty engine: run alone at occupancy 1.
            return slot(1);
        }
        let phi = (c.data * c.batch) as f64 / slot(c.batch).as_secs_f64();
        let rho = alpha / phi;
        if rho >= 1.0 {
            return SimDuration::MAX;
        }
        // Steady occupancy by Little's law, iterated to a fixed point.
        let per_pipeline = alpha / c.data as f64;
        let clamp = |b: f64| b.clamp(1.0, c.batch as f64);
        let mut b = 1.0f64;
        for _ in 0..16 {
            let bi = clamp(b).ceil() as u32;
            b = clamp(per_pipeline * slot(bi).as_secs_f64());
        }
        let bi = clamp(b).ceil() as u32;
        let l_exe = slot(bi);
        let boundary = steady(bi) / 2;
        let servers = (c.data * c.batch) as f64;
        let queue = slot(c.batch).as_secs_f64() * rho.powf((2.0 * (servers + 1.0)).sqrt())
            / (servers * (1.0 - rho));
        l_exe + boundary + SimDuration::from_secs_f64(queue)
    }

    #[test]
    fn converged_fixed_point_equals_the_16_step_loop() {
        // Every configuration of the paper models that fits 16 instances
        // of each SKU, from a trickle of load up to the edge of saturation.
        let fractions = [
            0.0, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99,
            0.999,
        ];
        let mut checked = 0usize;
        for model in ModelSpec::paper_models() {
            for ty in [InstanceType::t4(), InstanceType::l4(), InstanceType::a100()] {
                let p = sku_perf(&model, &ty);
                let configs = enumerate_configs(
                    &model,
                    &MemoryModel::default(),
                    &ty.gpu,
                    &ConfigSpace::default(),
                    16 * ty.gpus_per_instance as u32,
                );
                for c in configs {
                    let slot: Vec<SimDuration> =
                        (1..=c.batch).map(|b| p.slot_time(&c, b)).collect();
                    let steady: Vec<SimDuration> =
                        (1..=c.batch).map(|b| p.steady_iteration(&c, b)).collect();
                    let phi = p.throughput_continuous(&c);
                    for frac in fractions {
                        let alpha = phi * frac;
                        let slot_of = |b: u32| slot[b as usize - 1];
                        let steady_of = |b: u32| steady[b as usize - 1];
                        assert_eq!(
                            p.request_latency_continuous_with(&c, alpha, slot_of, steady_of),
                            request_latency_continuous_16_steps(&c, alpha, slot_of, steady_of),
                            "{} on {}: {c} at α = {alpha}",
                            model.name,
                            ty.name
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} evaluations");
    }

    #[test]
    fn equality_compares_the_id_then_the_fields() {
        let a = perf(ModelSpec::opt_6_7b());
        let b = perf(ModelSpec::opt_6_7b());
        assert_eq!(a, a.clone());
        assert_eq!(a, b, "equal fields, built separately");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "the id is not printed");
        assert_ne!(a, perf(ModelSpec::gpt_20b()));
        let shorter = PerfModel::new(ModelSpec::opt_6_7b(), a.cost_model().clone(), 512, 64);
        assert_ne!(a, shorter);
    }

    #[test]
    fn table1_anchor_through_perf_model() {
        let p = perf(ModelSpec::opt_6_7b());
        let c = ParallelConfig::new(1, 1, 4, 1);
        let l = p.exec_latency(&c).as_secs_f64();
        assert!((l - 5.447).abs() / 5.447 < 0.02, "got {l}");
    }

    #[test]
    fn throughput_scales_with_data_parallelism() {
        let p = perf(ModelSpec::gpt_20b());
        let c1 = ParallelConfig::new(1, 3, 4, 8);
        let c2 = ParallelConfig::new(2, 3, 4, 8);
        let r = p.throughput(&c2) / p.throughput(&c1);
        assert!((r - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_batches_raise_throughput_sublinearly() {
        let p = perf(ModelSpec::gpt_20b());
        let b1 = p.throughput(&ParallelConfig::new(1, 3, 4, 1));
        let b8 = p.throughput(&ParallelConfig::new(1, 3, 4, 8));
        assert!(b8 > 2.0 * b1, "batching must help: {b1} -> {b8}");
        assert!(b8 < 8.0 * b1, "but not perfectly linearly");
    }

    #[test]
    fn saturated_config_reports_max_latency() {
        let p = perf(ModelSpec::llama_30b());
        let c = ParallelConfig::new(1, 2, 8, 1);
        let phi = p.throughput(&c);
        assert_eq!(p.request_latency(&c, phi * 1.1), SimDuration::MAX);
    }

    #[test]
    fn latency_grows_with_load() {
        let p = perf(ModelSpec::gpt_20b());
        let c = ParallelConfig::new(2, 3, 4, 8);
        let lo = p.request_latency(&c, 0.1);
        let hi = p.request_latency(&c, p.throughput(&c) * 0.9);
        assert!(hi > lo);
        assert!(lo >= p.exec_latency(&c));
    }

    #[test]
    fn mixed_iteration_matches_uniform_decode() {
        let p = perf(ModelSpec::gpt_20b());
        let c = ParallelConfig::new(1, 3, 4, 8);
        let seqs = vec![SeqWork::decode(576); 8];
        assert_eq!(
            p.mixed_iteration_time(&c, &seqs),
            p.cost_model().decode_time(p.model(), 3, 4, 8, 576)
        );
    }

    #[test]
    fn zero_load_latency_is_exec_latency() {
        let p = perf(ModelSpec::opt_6_7b());
        let c = ParallelConfig::new(1, 1, 4, 4);
        assert_eq!(p.request_latency(&c, 0.0), p.exec_latency(&c));
    }

    #[test]
    fn continuous_throughput_exceeds_fixed() {
        // Iteration-level slots turn over faster than run-to-completion
        // batches at every configuration shape.
        let p = perf(ModelSpec::gpt_20b());
        for c in [
            ParallelConfig::new(1, 3, 4, 1),
            ParallelConfig::new(1, 3, 4, 8),
            ParallelConfig::new(2, 2, 8, 8),
        ] {
            assert!(
                p.throughput_continuous(&c) > p.throughput(&c),
                "{c}: {} !> {}",
                p.throughput_continuous(&c),
                p.throughput(&c)
            );
        }
    }

    #[test]
    fn continuous_latency_drops_the_batch_fill_delay() {
        // At a low rate the fixed-batch estimator is dominated by waiting
        // for B−1 peers to arrive; the continuous estimator never pays it.
        let p = perf(ModelSpec::gpt_20b());
        let c = ParallelConfig::new(2, 2, 8, 8);
        let alpha = 0.1;
        let fixed = p.request_latency(&c, alpha);
        let cont = p.request_latency_continuous(&c, alpha);
        assert!(cont < fixed, "{cont} !< {fixed}");
        // The fill delay alone is (8−1)/(2·0.1) = 35 s.
        assert!(fixed.as_secs_f64() - cont.as_secs_f64() > 20.0);
    }

    #[test]
    fn continuous_latency_saturates_like_fixed() {
        let p = perf(ModelSpec::gpt_20b());
        let c = ParallelConfig::new(1, 2, 8, 8);
        let phi = p.throughput_continuous(&c);
        assert_eq!(
            p.request_latency_continuous(&c, phi * 1.01),
            SimDuration::MAX
        );
        let near = p.request_latency_continuous(&c, phi * 0.95);
        let calm = p.request_latency_continuous(&c, phi * 0.2);
        assert!(near > calm, "queueing must grow with load");
        assert!(near != SimDuration::MAX);
    }

    #[test]
    fn continuous_zero_load_runs_alone() {
        let p = perf(ModelSpec::opt_6_7b());
        let c = ParallelConfig::new(1, 1, 4, 8);
        // Occupancy 1: an admission pass plus S_out − 1 solo decodes —
        // strictly below the full-batch exec latency.
        let solo = p.request_latency_continuous(&c, 0.0);
        assert!(solo < p.exec_latency(&c));
        assert!(solo > SimDuration::ZERO);
    }

    #[test]
    fn paper_gpt20b_overload_example() {
        // §6.2: for GPT-20B at 0.35 req/s, (D=2,P=2,M=8) has "sufficient
        // throughput", while dropping one pipeline — (D=1,P=2,M=8) — makes
        // requests stack up.
        let p = perf(ModelSpec::gpt_20b());
        let healthy = ParallelConfig::new(2, 2, 8, 8);
        let degraded = ParallelConfig::new(1, 2, 8, 8);
        assert!(p.throughput(&healthy) > 0.35);
        assert!(
            p.throughput(&degraded) < 0.35,
            "one pipeline must be insufficient: {}",
            p.throughput(&degraded)
        );
    }
}
