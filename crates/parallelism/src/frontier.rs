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
//!   data degree, so the tables are computed once per `(P, M)` mesh into
//!   flat arrays every candidate of the mesh indexes, and `l_exe` once per
//!   `(P, M, B)`; `l_req(C, α)` ([`CandidateFrontier::latency`]) then runs
//!   the [`PerfModel`] kernels of the model the frontier was priced with
//!   over the cached components, bit-identical to fresh pricing;
//! * **Pareto-prune** — candidates dominated at equal instance cost
//!   (throughput no higher, latency no lower *for every* `α`, and losing
//!   every tie-break) can never be chosen by any of Algorithm 1's
//!   objectives, so the decision loops skip them entirely. Each pricing
//!   mode's pruned index is built on its first query, since a system
//!   prices with one engine only;
//! * **order by latency floor** — each candidate carries an `α`-free lower
//!   bound on its `l_req` ([`Candidate::floor`]), and the survivors of
//!   pruning are also indexed in floor order, so a minimum-latency scan
//!   ([`CandidateFrontier::min_latency`]) stops at the first candidate
//!   whose floor exceeds the best latency found;
//! * **share across the process** — a frontier and its scans are pure
//!   functions of its inputs, so [`CandidateFrontier::shared`] hands out
//!   one immutable [`Arc`] per exact input set from a bounded process-wide
//!   table, and each frontier memoizes its minimum-latency scans per
//!   `(engine mode, instance limit, α)`. Every optimizer on equal inputs
//!   (the systems of an experiment grid, the shards of one run, on any
//!   thread) builds the space once and scans each query once.
//!   [`CandidateFrontier::new`] stays the uncached cold build.
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
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};

use cloudsim::{GpuSpec, NetFabric};
use llmsim::{Efficiency, MemoryModel, ModelSpec};
use simkit::SimDuration;

use crate::config::ParallelConfig;
use crate::enumerate::{enumerate_configs, ConfigSpace};
use crate::perf::{EngineMode, PerfModel};

/// Frontiers the process-wide table holds before it is cleared wholesale.
const TABLE_CAP: usize = 64;

/// Minimum-latency scans one frontier's memo holds before it is cleared
/// wholesale.
const SCAN_MEMO_CAP: usize = 4096;

/// The process-wide frontier table behind [`CandidateFrontier::shared`].
static TABLE: LazyLock<Mutex<HashMap<FrontierKey, Arc<CandidateFrontier>>>> =
    LazyLock::new(Mutex::default);

/// One enumerated configuration with its precomputed pricing components.
/// Its per-occupancy tables live in the frontier that built it, shared
/// by every candidate of the same `(P, M)` mesh (see
/// [`CandidateFrontier::latency`]).
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
    /// Offset of this candidate's mesh in the frontier's flat `slot` and
    /// `steady` tables: occupancy `b` prices at index `table + b − 1`.
    table: u32,
}

impl Candidate {
    /// A lower bound on [`CandidateFrontier::latency`] under `mode` that
    /// holds for every arrival rate: `l_exe` for the fixed-batch estimator
    /// (it only adds fill and queueing delay), and the smallest `slot(b) +
    /// steady(b)/2` over occupancies `b ≤ B` — or `slot(1)`, the empty
    /// engine's price at `α = 0` — for the continuous one. Saturated
    /// candidates price at [`SimDuration::MAX`], above any floor.
    pub fn floor(&self, mode: EngineMode) -> SimDuration {
        match mode {
            EngineMode::FixedBatch => self.l_exe,
            EngineMode::ContinuousBatching => self.floor_cont,
        }
    }

    /// Cached `φ(C)` under `mode` — bit-identical to
    /// [`PerfModel::throughput`] / [`PerfModel::throughput_continuous`].
    pub fn throughput(&self, mode: EngineMode) -> f64 {
        match mode {
            EngineMode::FixedBatch => self.phi_fixed,
            EngineMode::ContinuousBatching => self.phi_cont,
        }
    }
}

/// The enumerated, priced and pruned candidate set for one
/// `(model, space, gpu, mem)` at a fleet ceiling, with the estimator it
/// was priced with and a memo of its minimum-latency scans. See the module
/// docs.
///
/// # Example
///
/// ```
/// use cloudsim::GpuSpec;
/// use llmsim::{MemoryModel, ModelSpec};
/// use parallelism::{CandidateFrontier, ConfigSpace, EngineMode, PerfModel};
///
/// let model = ModelSpec::gpt_20b();
/// let perf = PerfModel::paper_defaults(model.clone());
/// let (mem, space) = (MemoryModel::default(), ConfigSpace::default());
/// let f = CandidateFrontier::shared(&perf, &mem, &GpuSpec::t4(), &space, 4, 16);
/// // GPT-20B needs 12 GPUs = 3 instances: nothing fits at 2.
/// assert!(f.feasible_at(2).is_empty());
/// assert!(!f.feasible_at(3).is_empty());
/// // Every survivor of pruning is still priced exactly.
/// let c = f.pruned_at(16, EngineMode::FixedBatch).next().unwrap();
/// assert_eq!(c.throughput(EngineMode::FixedBatch), perf.throughput(&c.config));
/// assert_eq!(
///     f.latency(c, EngineMode::FixedBatch, 0.2),
///     perf.request_latency(&c.config, 0.2)
/// );
/// // Equal inputs share one frontier, and its scans.
/// let again = CandidateFrontier::shared(&perf, &mem, &GpuSpec::t4(), &space, 4, 16);
/// assert!(std::sync::Arc::ptr_eq(&f, &again));
/// ```
#[derive(Debug)]
pub struct CandidateFrontier {
    /// The estimator every candidate was priced with; [`latency`] and the
    /// scans price with it too, so no caller can mix models.
    ///
    /// [`latency`]: CandidateFrontier::latency
    perf: PerfModel,
    gpus_per_instance: u8,
    /// Fleet ceiling (instances) this frontier was enumerated at.
    ceiling: u32,
    /// All candidates, sorted by `(instances, canonical config order)`.
    candidates: Vec<Candidate>,
    /// `cum[n]` = number of candidates needing at most `n` instances
    /// (`n = 0..=ceiling`), so `feasible_at(n)` is `candidates[..cum[n]]`.
    cum: Vec<u32>,
    /// `slot_time(b)` of every mesh, one contiguous run per `(P, M)` for
    /// `b = 1..=` that mesh's largest batch (none of it depends on `D`).
    slot: Vec<SimDuration>,
    /// `steady_iteration(b)`, laid out like `slot`.
    steady: Vec<SimDuration>,
    /// Each engine mode's pruned index, built on first use: a system
    /// prices with one engine only.
    fixed: OnceLock<ModeIndex>,
    cont: OnceLock<ModeIndex>,
    /// Minimum-latency scans answered so far: each winner's latency and
    /// candidate index (see [`CandidateFrontier::min_latency`]).
    scans: Mutex<HashMap<ScanKey, Option<(SimDuration, u32)>>>,
}

/// A minimum-latency scan's inputs, `α` by its IEEE-754 bits (the memo
/// must never conflate rates that price differently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ScanKey {
    mode: EngineMode,
    limit: u32,
    alpha_bits: u64,
}

/// Every input of [`CandidateFrontier::new`], compared exactly: names by
/// content, integers by value and floats by bit pattern, each struct
/// destructured field by field so a new field cannot be left out
/// silently. The variable-length space lists carry their lengths, so two
/// different input sets never encode alike.
#[derive(Debug, PartialEq, Eq, Hash)]
struct FrontierKey {
    /// The model's, the cost model's GPU's and the frontier GPU's names.
    names: [&'static str; 3],
    words: Vec<u64>,
}

impl FrontierKey {
    fn new(
        perf: &PerfModel,
        mem: &MemoryModel,
        gpu: &GpuSpec,
        space: &ConfigSpace,
        gpus_per_instance: u8,
        ceiling: u32,
    ) -> Self {
        let ModelSpec {
            name,
            num_layers,
            hidden_size,
            num_heads,
            ffn_hidden,
            gated_ffn,
            vocab_size,
            max_seq_len,
            bytes_per_param,
            bytes_per_kv,
        } = *perf.model();
        let cost = perf.cost_model();
        let (s_in, s_out) = perf.sequence_shape();
        let NetFabric {
            intra_bw,
            inter_bw,
            intra_latency,
            inter_latency,
        } = *cost.net();
        let Efficiency {
            compute_fraction,
            compute_half_tokens,
            mem_fraction,
            kv_read_penalty,
            host_overhead,
        } = *cost.efficiency();
        let MemoryModel {
            max_batch,
            provisioned_seq_len,
            activation_coeff,
            migration_buffer,
            framework_reserve,
        } = *mem;
        let ConfigSpace {
            batch_sizes,
            tensor_degrees,
            max_pipeline,
            max_data,
        } = space;
        let mut words = vec![
            num_layers.into(),
            hidden_size.into(),
            num_heads.into(),
            ffn_hidden.into(),
            gated_ffn.into(),
            vocab_size.into(),
            max_seq_len.into(),
            bytes_per_param.into(),
            bytes_per_kv.into(),
            intra_bw.to_bits(),
            inter_bw.to_bits(),
            intra_latency.as_micros(),
            inter_latency.as_micros(),
            cost.gpus_per_instance().into(),
            compute_fraction.to_bits(),
            compute_half_tokens.to_bits(),
            mem_fraction.to_bits(),
            kv_read_penalty.to_bits(),
            host_overhead.to_bits(),
            cost.latency_scale().to_bits(),
            s_in.into(),
            s_out.into(),
            max_batch.into(),
            provisioned_seq_len.into(),
            activation_coeff.to_bits(),
            migration_buffer,
            framework_reserve,
            (*max_pipeline).into(),
            (*max_data).into(),
            gpus_per_instance.into(),
            ceiling.into(),
        ];
        words.extend(gpu_words(cost.gpu()));
        words.extend(gpu_words(gpu));
        for list in [batch_sizes, tensor_degrees] {
            words.push(list.len() as u64);
            words.extend(list.iter().map(|&x| u64::from(x)));
        }
        FrontierKey {
            names: [name, cost.gpu().name, gpu.name],
            words,
        }
    }
}

/// A GPU's numeric fields (its name is keyed separately).
fn gpu_words(gpu: &GpuSpec) -> [u64; 3] {
    let GpuSpec {
        name: _,
        memory_bytes,
        peak_flops,
        mem_bandwidth,
    } = *gpu;
    [memory_bytes, peak_flops.to_bits(), mem_bandwidth.to_bits()]
}

/// Locks a cache of pure results. Every update under the lock is one
/// `HashMap` insert or clear, each of which leaves the map valid, so a
/// lock poisoned by a panicking holder still guards correct answers and
/// is used as is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The candidates surviving one engine mode's pruning.
#[derive(Debug, Clone)]
struct ModeIndex {
    /// Indices (ascending) of the survivors.
    pruned: Vec<u32>,
    /// `cum[n]` = survivors needing at most `n` instances.
    cum: Vec<u32>,
    /// The survivors in ascending [`Candidate::floor`] order (ties keep
    /// `(instances, config)` order).
    by_floor: Vec<u32>,
}

/// A `(P, M)` mesh's share of the build.
struct Mesh {
    /// One of the mesh's configurations, its batch raised to the largest
    /// any of them runs: the occupancies its tables cover.
    config: ParallelConfig,
    /// Where the mesh's run starts in the flat tables.
    table: u32,
    /// `exec_latency` per batch size priced so far.
    l_exe: Vec<(u32, SimDuration)>,
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
        let configs = enumerate_configs(
            perf.model(),
            mem,
            gpu,
            space,
            ceiling_instances * gpus_per_instance as u32,
        );
        // Each mesh, first-seen, with the largest batch any of its
        // candidates runs (`config.batch`), then priced once.
        let mut mesh_of: HashMap<(u32, u32), usize> = HashMap::new();
        let mut meshes: Vec<Mesh> = Vec::new();
        for c in &configs {
            let i = *mesh_of.entry((c.pipeline, c.tensor)).or_insert_with(|| {
                meshes.push(Mesh {
                    config: *c,
                    table: 0,
                    l_exe: Vec::new(),
                });
                meshes.len() - 1
            });
            let mesh = &mut meshes[i].config;
            mesh.batch = mesh.batch.max(c.batch);
        }
        let mut slot = Vec::new();
        let mut steady = Vec::new();
        for mesh in &mut meshes {
            mesh.table = slot.len() as u32;
            for b in 1..=mesh.config.batch {
                let st = perf.steady_iteration(&mesh.config, b);
                slot.push(perf.slot_time_with_steady(&mesh.config, b, st));
                steady.push(st);
            }
        }
        let mut candidates: Vec<Candidate> = configs
            .into_iter()
            .map(|config| {
                let mesh = &mut meshes[mesh_of[&(config.pipeline, config.tensor)]];
                let l_exe = match mesh.l_exe.iter().find(|&&(b, _)| b == config.batch) {
                    Some(&(_, l)) => l,
                    None => {
                        let l = perf.exec_latency(&config);
                        mesh.l_exe.push((config.batch, l));
                        l
                    }
                };
                let t = mesh.table as usize;
                let b = config.batch as usize;
                let (slot_times, steady_times) = (&slot[t..t + b], &steady[t..t + b]);
                // Bitwise the same computations as `PerfModel::throughput`
                // / `throughput_continuous` over the cached components.
                let phi_fixed = (config.data * config.batch) as f64 / l_exe.as_secs_f64();
                let phi_cont =
                    (config.data * config.batch) as f64 / slot_times[b - 1].as_secs_f64();
                // The continuous kernel returns `slot(b̄) + steady(b̄)/2 +
                // queueing` for some occupancy `b̄ ∈ 1..=B` when α > 0, and
                // `slot(1)` alone when α = 0.
                let floor_cont = slot_times
                    .iter()
                    .zip(steady_times)
                    .map(|(&s, &st)| s + st / 2)
                    .fold(slot_times[0], SimDuration::min);
                Candidate {
                    config,
                    instances: config.instances_needed(gpus_per_instance),
                    l_exe,
                    phi_fixed,
                    phi_cont,
                    floor_cont,
                    table: mesh.table,
                }
            })
            .collect();
        // Stable sort: within one instance bucket the canonical
        // (enumeration) order is preserved.
        candidates.sort_by_key(|a| (a.instances, a.config));
        let cum = cumulative(candidates.iter().map(|c| c.instances), ceiling_instances);
        CandidateFrontier {
            perf: perf.clone(),
            gpus_per_instance,
            ceiling: ceiling_instances,
            candidates,
            cum,
            slot,
            steady,
            fixed: OnceLock::new(),
            cont: OnceLock::new(),
            scans: Mutex::default(),
        }
    }

    /// The process-wide frontier for exactly these inputs: the handle
    /// every earlier call with an equal input set got, or a fresh
    /// [`CandidateFrontier::new`] build that later calls share. Inputs are
    /// equal only when every field is, floats by bit pattern (the fleet
    /// ceiling too, so a handle never depends on what another caller built
    /// first). The handle's scans are memoized across all its holders.
    ///
    /// The table holds at most 64 frontiers and is cleared wholesale when
    /// full; handles already handed out stay valid. Each frontier's scan
    /// memo holds at most 4,096 entries of 40 bytes, also cleared
    /// wholesale. The worst case is 64 frontiers (56 bytes per candidate
    /// plus indices: about 15–60 KB for a paper model at a 16-instance
    /// ceiling, about 250 KB for OPT-6.7B's 3,652 candidates at 256) plus
    /// about 21 MB of scan memos (64 × 8,192 hash slots of 41 bytes).
    /// Lookups hold the table's lock, builds never: two threads may build
    /// the same inputs at once, and the later insert replaces an equal
    /// value.
    ///
    /// # Panics
    ///
    /// As [`CandidateFrontier::new`].
    pub fn shared(
        perf: &PerfModel,
        mem: &MemoryModel,
        gpu: &GpuSpec,
        space: &ConfigSpace,
        gpus_per_instance: u8,
        ceiling_instances: u32,
    ) -> Arc<Self> {
        let key = FrontierKey::new(perf, mem, gpu, space, gpus_per_instance, ceiling_instances);
        if let Some(f) = lock(&TABLE).get(&key) {
            return Arc::clone(f);
        }
        let built = Arc::new(CandidateFrontier::new(
            perf,
            mem,
            gpu,
            space,
            gpus_per_instance,
            ceiling_instances,
        ));
        let mut table = lock(&TABLE);
        if table.len() >= TABLE_CAP {
            table.clear();
        }
        table.insert(key, Arc::clone(&built));
        built
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
    pub fn pruned_len(&self, mode: EngineMode) -> usize {
        self.index(mode).pruned.len()
    }

    /// `l_req(C, α)` of `cand` under `mode`, via the [`PerfModel`]
    /// kernels of this frontier's estimator over the cached components —
    /// bit-identical to fresh pricing. `cand` must come from this frontier
    /// (its continuous tables live here).
    pub fn latency(&self, cand: &Candidate, mode: EngineMode, alpha: f64) -> SimDuration {
        match mode {
            EngineMode::FixedBatch => {
                self.perf
                    .request_latency_with_exec(&cand.config, cand.l_exe, alpha)
            }
            EngineMode::ContinuousBatching => {
                let (slot, steady) = self.tables(cand);
                self.perf.request_latency_continuous_with(
                    &cand.config,
                    alpha,
                    |b| slot[b as usize - 1],
                    |b| steady[b as usize - 1],
                )
            }
        }
    }

    /// `cand`'s `slot(b)` and `steady(b)` for `b = 1..=B`.
    fn tables(&self, cand: &Candidate) -> (&[SimDuration], &[SimDuration]) {
        let t = cand.table as usize;
        let b = cand.config.batch as usize;
        (&self.slot[t..t + b], &self.steady[t..t + b])
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
    /// `dominates`), so a scan over this iterator picks the same winner as
    /// a scan over [`CandidateFrontier::feasible_at`].
    pub fn pruned_at(&self, n: u32, mode: EngineMode) -> impl Iterator<Item = &Candidate> + '_ {
        let n = n.min(self.ceiling) as usize;
        let index = self.index(mode);
        index.pruned[..index.cum[n] as usize]
            .iter()
            .map(move |&i| &self.candidates[i as usize])
    }

    /// The candidates surviving pruning under `mode` at the ceiling, in
    /// ascending [`Candidate::floor`] order. A scan for the minimum
    /// `l_req` within `n` instances skips candidates needing more than `n`
    /// and may stop at the first floor above the best latency found: no
    /// later candidate can price lower.
    pub fn pruned_by_floor(&self, mode: EngineMode) -> impl Iterator<Item = &Candidate> + '_ {
        self.index(mode)
            .by_floor
            .iter()
            .map(move |&i| &self.candidates[i as usize])
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

    /// Algorithm 1's minimum `(l_req, instances, config)` under `mode`
    /// over the candidates needing at most `limit` instances whose `φ`
    /// sustains `alpha`, or `None` when none does. Bit-identical to a
    /// minimum over the sustaining subset of a fresh enumeration: keys are
    /// unique (the config is part of them), so the scan order cannot
    /// matter; pruning only skips candidates that lose every key
    /// comparison; and the scan runs in floor order and stops at the first
    /// floor above the best latency, past which every candidate prices
    /// strictly higher.
    ///
    /// Memoized per `(mode, limit, α bits)` for every holder of this
    /// frontier (see [`CandidateFrontier::shared`] for the bound). The
    /// memo's lock is never held while scanning.
    pub fn min_latency(
        &self,
        mode: EngineMode,
        limit: u32,
        alpha: f64,
    ) -> Option<(SimDuration, u32, ParallelConfig)> {
        let key = ScanKey {
            mode,
            limit,
            alpha_bits: alpha.to_bits(),
        };
        let memoized = lock(&self.scans).get(&key).copied();
        let best = memoized.unwrap_or_else(|| {
            let best = self.scan_min_latency(mode, limit, alpha);
            let mut scans = lock(&self.scans);
            if scans.len() >= SCAN_MEMO_CAP {
                scans.clear();
            }
            scans.insert(key, best);
            best
        });
        best.map(|(l, i)| {
            let c = &self.candidates[i as usize];
            (l, c.instances, c.config)
        })
    }

    /// [`CandidateFrontier::min_latency`]'s scan, without the memo: the
    /// winner's latency and candidate index.
    fn scan_min_latency(
        &self,
        mode: EngineMode,
        limit: u32,
        alpha: f64,
    ) -> Option<(SimDuration, u32)> {
        let mut best: Option<((SimDuration, u32, ParallelConfig), u32)> = None;
        for &i in &self.index(mode).by_floor {
            let cand = &self.candidates[i as usize];
            if best.is_some_and(|((l, ..), _)| cand.floor(mode) > l) {
                break;
            }
            if cand.instances > limit || cand.throughput(mode) < alpha {
                continue;
            }
            let key = (self.latency(cand, mode, alpha), cand.instances, cand.config);
            if best.is_none_or(|(b, _)| key < b) {
                best = Some((key, i));
            }
        }
        best.map(|((l, ..), i)| (l, i))
    }

    /// `mode`'s pruned index, built on first use.
    fn index(&self, mode: EngineMode) -> &ModeIndex {
        let cell = match mode {
            EngineMode::FixedBatch => &self.fixed,
            EngineMode::ContinuousBatching => &self.cont,
        };
        cell.get_or_init(|| self.build_index(mode))
    }

    /// Pareto pruning within equal-instance buckets: drop every candidate
    /// dominated by another of the same instance cost. Only an earlier
    /// candidate can dominate (domination requires a strictly earlier
    /// canonical order), and domination is transitive, so a dominated
    /// candidate always has a dominator among the earlier *survivors*:
    /// testing against those keeps exactly the set a test against every
    /// other candidate of the bucket keeps.
    fn build_index(&self, mode: EngineMode) -> ModeIndex {
        let mut pruned: Vec<u32> = Vec::new();
        let mut bucket_start = 0;
        for (i, x) in self.candidates.iter().enumerate() {
            if i > 0 && self.candidates[i - 1].instances != x.instances {
                bucket_start = pruned.len();
            }
            let dominated = pruned[bucket_start..]
                .iter()
                .any(|&j| self.dominates(&self.candidates[j as usize], x, mode));
            if !dominated {
                pruned.push(i as u32);
            }
        }
        let cum = cumulative(
            pruned
                .iter()
                .map(|&i| self.candidates[i as usize].instances),
            self.ceiling,
        );
        let mut by_floor = pruned.clone();
        by_floor.sort_by_key(|&i| self.candidates[i as usize].floor(mode));
        ModeIndex {
            pruned,
            cum,
            by_floor,
        }
    }

    /// Whether `y` dominates `x` under `mode`: no Algorithm 1 objective —
    /// minimum-latency-among-sustaining, maximum-throughput, or
    /// cheapest-meeting-SLO — can ever select `x` while `y` is present,
    /// for *any* arrival rate, including every exact-tie case.
    ///
    /// Requirements (all conservative, see the module docs):
    /// * equal instance cost and strictly earlier canonical order, so `y`
    ///   wins every `(instances, config)` and `Reverse(config)` tie-break;
    /// * `φ(y) ≥ φ(x)`, so `y` is in every sustaining/feasible set `x` is
    ///   in, and wins the throughput objective;
    /// * component-wise latency ordering that implies
    ///   `l_req(y, α) ≤ l_req(x, α)` for all `α` through the estimator's
    ///   monotone structure.
    fn dominates(&self, y: &Candidate, x: &Candidate, mode: EngineMode) -> bool {
        if y.instances != x.instances || y.config >= x.config {
            return false;
        }
        match mode {
            EngineMode::FixedBatch => {
                // l_req = l_exe + (B−1)/2α + l_exe·ρ^√(2(D+1))/(2D(1−ρ)):
                // monotone in l_exe, B, ρ = α/φ and anti-monotone in D.
                y.phi_fixed >= x.phi_fixed
                    && y.l_exe <= x.l_exe
                    && y.config.batch <= x.config.batch
                    && y.config.data >= x.config.data
            }
            EngineMode::ContinuousBatching => {
                // The occupancy fixed point iterates b ← clamp((α/D)·slot(b))
                // from the same seed over the same clamp range (equal B):
                // a pointwise-≤ slot table and D ≥ keep the iterate ≤ at
                // every step, so every component (slot(b̄), steady(b̄)/2,
                // queueing over slot(B)) is ≤. One mesh's candidates share
                // their tables.
                if y.config.batch != x.config.batch
                    || y.config.data < x.config.data
                    || y.phi_cont < x.phi_cont
                {
                    return false;
                }
                if y.table == x.table {
                    return true;
                }
                let ((ys, yst), (xs, xst)) = (self.tables(y), self.tables(x));
                ys.iter().zip(xs).all(|(a, b)| a <= b) && yst.iter().zip(xst).all(|(a, b)| a <= b)
            }
        }
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

    const MODES: [EngineMode; 2] = [EngineMode::FixedBatch, EngineMode::ContinuousBatching];

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
                assert_eq!(cand.throughput(EngineMode::FixedBatch), perf.throughput(c));
                assert_eq!(
                    cand.throughput(EngineMode::ContinuousBatching),
                    perf.throughput_continuous(c)
                );
                for alpha in [0.0, 0.1, 0.35, 1.0, 3.0] {
                    assert_eq!(
                        f.latency(cand, EngineMode::FixedBatch, alpha),
                        perf.request_latency(c, alpha),
                        "{name}: {c} fixed @ {alpha}"
                    );
                    assert_eq!(
                        f.latency(cand, EngineMode::ContinuousBatching, alpha),
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
        for (name, _, f) in model_sku_frontiers(16) {
            for cand in f.feasible_at(16) {
                for mode in MODES {
                    let floor = cand.floor(mode);
                    for frac in fractions {
                        let alpha = cand.throughput(mode) * frac;
                        let l = f.latency(cand, mode, alpha);
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
        let (_, f) = frontier(ModelSpec::gpt_20b(), 10);
        for mode in [EngineMode::FixedBatch, EngineMode::ContinuousBatching] {
            for n in [3u32, 5, 8, 10] {
                for alpha in [0.0, 0.05, 0.2, 0.35, 0.6, 1.5] {
                    let best_full = f
                        .feasible_at(n)
                        .iter()
                        .map(|c| (f.latency(c, mode, alpha), c.instances, c.config))
                        .min();
                    let best_pruned = f
                        .pruned_at(n, mode)
                        .map(|c| (f.latency(c, mode, alpha), c.instances, c.config))
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
    fn min_latency_is_the_minimum_over_every_sustaining_candidate() {
        // The floor-ordered, pruned, memoized scan against a brute-force
        // minimum over the full feasible set, each query twice (the second
        // a memo hit), from the empty engine to beyond every candidate.
        for (name, _, f) in model_sku_frontiers(12) {
            for mode in MODES {
                for limit in [0u32, 3, 5, 8, 12, 20] {
                    for alpha in [0.0, 0.05, 0.2, 0.35, 0.6, 1.5, 1e4] {
                        let brute = f
                            .feasible_at(limit)
                            .iter()
                            .filter(|c| c.throughput(mode) >= alpha)
                            .map(|c| (f.latency(c, mode, alpha), c.instances, c.config))
                            .min();
                        for pass in ["fresh", "memo hit"] {
                            assert_eq!(
                                f.min_latency(mode, limit, alpha),
                                brute,
                                "{name} {mode:?} limit {limit} α={alpha} ({pass})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scan_memo_is_bounded_and_transparent() {
        let (_, f) = frontier(ModelSpec::gpt_20b(), 16);
        let mode = EngineMode::ContinuousBatching;
        let pinned = f.min_latency(mode, 10, 0.35);
        for i in 0..(SCAN_MEMO_CAP as u32 + 10) {
            let _ = f.min_latency(mode, 10, 0.05 + f64::from(i) * 1e-5);
            assert!(lock(&f.scans).len() <= SCAN_MEMO_CAP);
        }
        assert_eq!(f.min_latency(mode, 10, 0.35), pinned);
    }

    #[test]
    fn pruning_actually_removes_candidates() {
        let (_, f) = frontier(ModelSpec::gpt_20b(), 16);
        assert!(
            f.pruned_len(EngineMode::FixedBatch) < f.len(),
            "fixed-batch pruning must bite: {} of {}",
            f.pruned_len(EngineMode::FixedBatch),
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
