//! Deriving the exact byte flows of a reconfiguration.
//!
//! For every destination GPU and every layer, work out which interval of
//! the layer's shard space is missing (not already resident from the old
//! configuration), and source each missing piece from a surviving holder —
//! preferring a same-instance source, then balancing load — or from cold
//! storage when every replica was lost (§4.2 fault tolerance).

use std::collections::BTreeMap;
use std::ops::Range;

use cloudsim::GpuRef;
use parallelism::{stage_layers, MeshPosition};

use crate::task::{DeviceAssignment, MigrationTask};

/// Where a transferred piece of context comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferSource {
    /// A surviving GPU that holds the bytes.
    Gpu(GpuRef),
    /// Persistent storage (S3/disk): only possible for weights.
    Storage,
}

/// One directed byte flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Source of the bytes.
    pub source: TransferSource,
    /// Receiving GPU.
    pub dest: GpuRef,
    /// Payload size.
    pub bytes: u64,
}

/// All transfers needed for one layer's weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTransfers {
    /// The layer index.
    pub layer: u32,
    /// The byte flows for this layer.
    pub transfers: Vec<Transfer>,
}

/// The complete byte-flow picture of a migration task.
#[derive(Debug, Clone)]
pub struct TransferSet {
    /// KV-cache moves (migrated first, before any weights).
    pub cache: Vec<Transfer>,
    /// Cache bytes that could not be preserved (source replica lost);
    /// the affected requests must recompute (§4.2).
    pub cache_lost_bytes: u64,
    /// Per-layer weight moves, indexed by layer.
    pub layers: Vec<LayerTransfers>,
    /// Per GPU and per layer: net resident-memory change when that layer
    /// migrates (incoming new bytes minus freed old bytes). Drives the
    /// memory-optimized ordering of Algorithm 2.
    pub layer_deltas: BTreeMap<GpuRef, Vec<i64>>,
}

impl TransferSet {
    /// Total bytes crossing the network (weights + cache).
    pub fn total_network_bytes(&self) -> u64 {
        let w: u64 = self
            .layers
            .iter()
            .flat_map(|l| &l.transfers)
            .filter(|t| matches!(t.source, TransferSource::Gpu(_)))
            .map(|t| t.bytes)
            .sum();
        let c: u64 = self.cache.iter().map(|t| t.bytes).sum();
        w + c
    }

    /// Total bytes loaded from persistent storage.
    pub fn total_storage_bytes(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| &l.transfers)
            .filter(|t| matches!(t.source, TransferSource::Storage))
            .map(|t| t.bytes)
            .sum()
    }
}

/// Exact rational interval arithmetic over a layer's shard space `[0, den)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: u64,
    hi: u64,
}

impl Interval {
    const EMPTY: Interval = Interval { lo: 0, hi: 0 };

    /// The `shard`-th interval of width `unit`: a shard of a layer split
    /// `den / unit` ways.
    fn shard(shard: u32, unit: u32) -> Interval {
        Interval {
            lo: shard as u64 * unit as u64,
            hi: (shard as u64 + 1) * unit as u64,
        }
    }

    fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    fn intersect(&self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// The shards of width `unit` this interval overlaps: each gives a
    /// non-empty piece.
    fn shards(&self, unit: u32) -> Range<u32> {
        if self.len() == 0 {
            return 0..0;
        }
        (self.lo / unit as u64) as u32..self.hi.div_ceil(unit as u64) as u32
    }

    /// `self` minus `other` (nothing when `None`): the residual below and
    /// above `other`, either possibly empty.
    fn subtract(&self, other: Option<Interval>) -> [Interval; 2] {
        let inter = other.map_or(Interval::EMPTY, |o| self.intersect(o));
        if inter.len() == 0 {
            return [*self, Interval::EMPTY];
        }
        [
            Interval {
                lo: self.lo,
                hi: inter.lo,
            },
            Interval {
                lo: inter.hi,
                hi: self.hi,
            },
        ]
    }
}

/// `len` parts in `den` of `total` bytes, rounded down.
fn piece_bytes(len: u64, total: u64, den: u64) -> u64 {
    ((len as u128 * total as u128) / den as u128) as u64
}

/// Each stage's layer range and each layer's stage, for one mesh depth.
struct Stages {
    ranges: Vec<Range<u32>>,
    of_layer: Vec<u32>,
}

impl Stages {
    fn new(layers_n: u32, stages: u32) -> Stages {
        let ranges: Vec<Range<u32>> = (0..stages)
            .map(|p| stage_layers(layers_n, stages, p))
            .collect();
        let of_layer = ranges
            .iter()
            .enumerate()
            .flat_map(|(p, r)| r.clone().map(move |_| p as u32))
            .collect();
        Stages { ranges, of_layer }
    }

    /// `layers` cut where these stages part it, each run with the stage
    /// holding it. Every layer of a run sits in the same stage here, so a
    /// position of the other mesh misses, frees and sources the same
    /// pieces on each of them.
    fn runs(&self, layers: Range<u32>) -> impl Iterator<Item = (u32, Range<u32>)> + '_ {
        let mut start = layers.start;
        std::iter::from_fn(move || {
            if start >= layers.end {
                return None;
            }
            let stage = self.of_layer[start as usize];
            let end = self.ranges[stage as usize].end.min(layers.end);
            let run = start..end;
            start = end;
            Some((stage, run))
        })
    }
}

/// The GPUs of an assignment by position, dense over the bounding box of
/// the positions it binds (so every lookup the assignment could answer,
/// this table answers too).
struct PositionTable {
    dims: (u32, u32, u32),
    gpu: Vec<Option<usize>>,
}

impl PositionTable {
    /// `index` numbers the assignment's GPUs.
    fn new(asg: &DeviceAssignment, index: impl Fn(GpuRef) -> usize) -> Self {
        let dims = asg.iter().fold((0, 0, 0), |(d, p, m), (pos, _)| {
            (
                d.max(pos.pipeline + 1),
                p.max(pos.stage + 1),
                m.max(pos.shard + 1),
            )
        });
        let mut table = PositionTable {
            dims,
            gpu: vec![None; (dims.0 * dims.1 * dims.2) as usize],
        };
        for (pos, g) in asg.iter() {
            let slot = table.slot(pos).expect("inside the bounding box");
            table.gpu[slot] = Some(index(g));
        }
        table
    }

    fn slot(&self, pos: MeshPosition) -> Option<usize> {
        let (d, p, m) = self.dims;
        (pos.pipeline < d && pos.stage < p && pos.shard < m)
            .then(|| ((pos.pipeline * p + pos.stage) * m + pos.shard) as usize)
    }

    /// The index of the GPU at `pos`, if bound.
    fn get(&self, pos: MeshPosition) -> Option<usize> {
        self.slot(pos).and_then(|s| self.gpu[s])
    }
}

/// Computes every byte flow implied by `task`.
///
/// Weight pieces with no surviving replica fall back to
/// [`TransferSource::Storage`]; lost cache pieces are tallied in
/// [`TransferSet::cache_lost_bytes`] (the whole inherited pipeline's cache
/// is counted lost if any piece of it is unrecoverable, since decoding
/// needs every layer's KV to resume).
///
/// Both assignments are inverted once, over one dense index of every GPU
/// involved; send loads and per-layer deltas live in per-GPU arrays, and
/// [`TransferSet::layer_deltas`] is built from them at the end. Weights
/// and freed bytes are worked out once per run of layers within one stage
/// of the other mesh, and each layer of the run takes the same pieces.
pub fn compute_transfers(task: &MigrationTask) -> TransferSet {
    let model = &task.model;
    let layers_n = model.num_layers;
    let layers = layers_n as usize;
    let (m_old, m_new) = (task.old_config.tensor, task.new_config.tensor);
    let den = (m_old as u64) * (m_new as u64);
    let layer_bytes = model.layer_bytes();
    let old_cfg = task.old_config;
    let new_cfg = task.new_config;
    let old_stages = Stages::new(layers_n, old_cfg.pipeline);
    let new_stages = Stages::new(layers_n, new_cfg.pipeline);

    // One dense index over every GPU of either assignment, and both
    // assignments inverted onto it (first position wins, as in
    // `position_of`).
    let old_by_gpu = task.old_assignment.by_gpu();
    let new_by_gpu = task.new_assignment.by_gpu();
    let mut gpus: Vec<GpuRef> = old_by_gpu
        .iter()
        .chain(&new_by_gpu)
        .map(|&(g, _)| g)
        .collect();
    gpus.sort_unstable();
    gpus.dedup();
    let index = |g: GpuRef| gpus.binary_search(&g).expect("GPU of an assignment");
    let mut old_pos_of: Vec<Option<MeshPosition>> = vec![None; gpus.len()];
    for &(g, pos) in &old_by_gpu {
        old_pos_of[index(g)] = Some(pos);
    }
    let mut new_pos_of: Vec<Option<MeshPosition>> = vec![None; gpus.len()];
    for &(g, pos) in &new_by_gpu {
        new_pos_of[index(g)] = Some(pos);
    }
    // Old holders by position, and the candidate sources of each (old
    // stage, old shard): its holders in pipeline order, at
    // `sources[bounds[i]..bounds[i + 1]]` for `i = stage · m_old + shard`.
    let holders = PositionTable::new(&task.old_assignment, index);
    let mut sources: Vec<usize> = Vec::new();
    let mut bounds = vec![0];
    for stage in 0..old_cfg.pipeline {
        for k in 0..m_old {
            sources.extend(
                (0..old_cfg.data).filter_map(|d| holders.get(MeshPosition::new(d, stage, k))),
            );
            bounds.push(sources.len());
        }
    }

    // Bytes each source GPU has been asked to send so far (load balancing),
    // and per GPU and layer the net resident-memory change; `touched`
    // marks the GPUs that get a `layer_deltas` row.
    let mut send_load = vec![0u64; gpus.len()];
    let mut deltas = vec![0i64; gpus.len() * layers];
    let mut touched = vec![false; gpus.len()];

    // ---- Weights ----------------------------------------------------
    let mut layer_xfers: Vec<LayerTransfers> = (0..layers_n)
        .map(|layer| LayerTransfers {
            layer,
            transfers: Vec::new(),
        })
        .collect();

    // The (old shard, bytes) pieces one destination misses on every layer
    // of a run.
    let mut pieces: Vec<(u32, u64)> = Vec::new();
    for (new_pos, dest) in task.new_assignment.iter() {
        let di = index(dest);
        let need_iv = Interval::shard(new_pos.shard, m_old);
        let new_layers = new_stages.ranges[new_pos.stage as usize].clone();
        for (stage, run) in old_stages.runs(new_layers) {
            // What the destination already holds: its old shard of every
            // layer of its old stage.
            let held = old_pos_of[di]
                .filter(|p| p.stage == stage)
                .map(|p| Interval::shard(p.shard, m_new));
            // Split what is missing by old shard boundaries.
            pieces.clear();
            for miss in need_iv.subtract(held) {
                for k in miss.shards(m_new) {
                    let piece = miss.intersect(Interval::shard(k, m_new));
                    let bytes = piece_bytes(piece.len(), layer_bytes, den);
                    if bytes > 0 {
                        pieces.push((k, bytes));
                    }
                }
            }
            if pieces.is_empty() {
                continue;
            }
            let run_bytes: i64 = pieces.iter().map(|&(_, b)| b as i64).sum();
            touched[di] = true;
            for layer in run {
                for &(k, bytes) in &pieces {
                    // Candidate sources: any old pipeline's holder of
                    // (stage, shard k) that is still assigned. Prefer
                    // same-instance sources, then the least-loaded (GPU
                    // indices follow GPU order).
                    let i = (stage * m_old + k) as usize;
                    let mut best: Option<(bool, u64, usize)> = None;
                    for &gi in &sources[bounds[i]..bounds[i + 1]] {
                        if gi == di {
                            continue;
                        }
                        let key = (gpus[gi].instance != dest.instance, send_load[gi], gi);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                    let source = match best {
                        Some((_, _, gi)) => {
                            send_load[gi] += bytes;
                            TransferSource::Gpu(gpus[gi])
                        }
                        None => TransferSource::Storage,
                    };
                    layer_xfers[layer as usize].transfers.push(Transfer {
                        source,
                        dest,
                        bytes,
                    });
                }
                deltas[di * layers + layer as usize] += run_bytes;
            }
        }
    }

    // Freed bytes: every old holder releases the parts of each layer it
    // does not keep in its own new position.
    for (old_pos, gpu) in task.old_assignment.iter() {
        let gi = index(gpu);
        let held_iv = Interval::shard(old_pos.shard, m_new);
        let old_layers = old_stages.ranges[old_pos.stage as usize].clone();
        for (stage, run) in new_stages.runs(old_layers) {
            let kept = new_pos_of[gi]
                .filter(|np| np.stage == stage)
                .map_or(0, |np| {
                    held_iv.intersect(Interval::shard(np.shard, m_old)).len()
                });
            let freed = held_iv.len() - kept;
            if freed > 0 {
                let bytes = piece_bytes(freed, layer_bytes, den) as i64;
                for layer in run {
                    deltas[gi * layers + layer as usize] -= bytes;
                }
                touched[gi] = true;
            }
        }
    }

    // ---- Cache ------------------------------------------------------
    let mut cache = Vec::new();
    let mut cache_lost = 0u64;
    for (d_new, inherit) in task.pipeline_inheritance.iter().enumerate() {
        let Some(d_old) = *inherit else { continue };
        let total = task
            .cache_bytes_per_pipeline
            .get(d_old as usize)
            .copied()
            .unwrap_or(0);
        if total == 0 {
            continue;
        }
        let per_layer = total / layers_n as u64;
        let mut lost = false;
        let mut pipeline_cache = Vec::new();
        // The transfers of one layer of a run: the same on each of them.
        let mut run_cache = Vec::new();
        for new_pos in new_cfg.positions().filter(|p| p.pipeline == d_new as u32) {
            let Some(dest) = task.new_assignment.gpu_at(new_pos) else {
                lost = true;
                continue;
            };
            let need_iv = Interval::shard(new_pos.shard, m_old);
            let held_at = old_pos_of[index(dest)].filter(|p| p.pipeline == d_old);
            let new_layers = new_stages.ranges[new_pos.stage as usize].clone();
            for (stage, run) in old_stages.runs(new_layers) {
                let held = held_at
                    .filter(|p| p.stage == stage)
                    .map(|p| Interval::shard(p.shard, m_new));
                run_cache.clear();
                for miss in need_iv.subtract(held) {
                    for k in miss.shards(m_new) {
                        let piece = miss.intersect(Interval::shard(k, m_new));
                        let bytes = piece_bytes(piece.len(), per_layer, den);
                        // Cache exists only on the inherited pipeline. A
                        // piece that rounds to zero bytes moves nothing, so
                        // it is no transfer (the weights loop skips them
                        // too), though its holder must still be alive.
                        match holders.get(MeshPosition::new(d_old, stage, k)) {
                            Some(src) if gpus[src] != dest && bytes > 0 => {
                                run_cache.push(Transfer {
                                    source: TransferSource::Gpu(gpus[src]),
                                    dest,
                                    bytes,
                                })
                            }
                            Some(_) => {} // already resident, or empty
                            None => lost = true,
                        }
                    }
                }
                for _ in run {
                    pipeline_cache.extend_from_slice(&run_cache);
                }
            }
        }
        if lost {
            // Decoding needs every layer's KV: a partial cache is useless.
            cache_lost += total;
        } else {
            cache.extend(pipeline_cache);
        }
    }

    // Every touched GPU gets its row, all-zero rows included: the planner
    // takes its buffer maxima over exactly these GPUs.
    let layer_deltas = (0..gpus.len())
        .filter(|&gi| touched[gi])
        .map(|gi| (gpus[gi], deltas[gi * layers..(gi + 1) * layers].to_vec()))
        .collect();

    TransferSet {
        cache,
        cache_lost_bytes: cache_lost,
        layers: layer_xfers,
        layer_deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::DeviceAssignment;
    use cloudsim::InstanceId;
    use llmsim::ModelSpec;
    use parallelism::{ParallelConfig, PositionContext};

    fn gpu(i: u64, s: u8) -> GpuRef {
        GpuRef::new(InstanceId(i), s)
    }

    fn gpus(n: u64) -> Vec<GpuRef> {
        (0..n)
            .flat_map(|i| (0..4).map(move |s| gpu(i, s)))
            .collect()
    }

    /// Old (D=1,P=2,M=2) on 4 GPUs -> new (D=1,P=4,M=1) on the same 4 GPUs
    /// with the identity-ish mapping.
    fn simple_task() -> MigrationTask {
        let model = ModelSpec::opt_6_7b(); // 32 layers
        let old = ParallelConfig::new(1, 2, 2, 8);
        let new = ParallelConfig::new(1, 4, 1, 8);
        let g = gpus(1);
        MigrationTask {
            model,
            old_config: old,
            new_config: new,
            old_assignment: DeviceAssignment::contiguous(&old, &g),
            new_assignment: DeviceAssignment::contiguous(&new, &g),
            cache_bytes_per_pipeline: vec![0],
            pipeline_inheritance: vec![Some(0)],
        }
    }

    #[test]
    fn piece_bytes_is_exact_past_u64_products() {
        assert_eq!(piece_bytes(3, 1000, 8), 375);
        let total = u64::MAX / 2;
        // 4 · total overflows u64; four eighths of it do not.
        assert_eq!(piece_bytes(4, total, 8), total / 2);
        let exact = (3 * total as u128 / 7) as u64;
        assert_eq!(piece_bytes(3, total, 7), exact);
    }

    #[test]
    fn same_config_same_assignment_moves_nothing() {
        let model = ModelSpec::opt_6_7b();
        let cfg = ParallelConfig::new(1, 2, 2, 8);
        let g = gpus(1);
        let task = MigrationTask {
            model,
            old_config: cfg,
            new_config: cfg,
            old_assignment: DeviceAssignment::contiguous(&cfg, &g),
            new_assignment: DeviceAssignment::contiguous(&cfg, &g),
            cache_bytes_per_pipeline: vec![1 << 30],
            pipeline_inheritance: vec![Some(0)],
        };
        let t = compute_transfers(&task);
        assert_eq!(t.total_network_bytes(), 0);
        assert_eq!(t.total_storage_bytes(), 0);
        assert_eq!(t.cache_lost_bytes, 0);
    }

    #[test]
    fn fresh_start_loads_everything_from_storage() {
        let model = ModelSpec::opt_6_7b();
        let task = MigrationTask::fresh_start(
            &model,
            ParallelConfig::new(1, 1, 4, 8),
            &[(InstanceId(0), 4)],
        );
        let t = compute_transfers(&task);
        assert_eq!(t.total_network_bytes(), 0);
        // All layer weights (embeddings are not per-layer context).
        let expect = model.layer_bytes() * model.num_layers as u64;
        assert_eq!(t.total_storage_bytes(), expect);
    }

    #[test]
    fn reshard_moves_half_of_each_kept_layer() {
        // (P=2,M=2) -> (P=4,M=1): new stage 0 holds layers 0..8 full-width;
        // the GPU that held shard 0 of layers 0..16 must fetch the other
        // half of layers it keeps and everything of new layers.
        let t = compute_transfers(&simple_task());
        let total_weights: u64 = t
            .layers
            .iter()
            .flat_map(|l| &l.transfers)
            .map(|x| x.bytes)
            .sum();
        // Every byte of the model is needed somewhere; reuse means strictly
        // less than the full model moves.
        let model_bytes = ModelSpec::opt_6_7b().layer_bytes() * 32;
        assert!(total_weights > 0);
        assert!(
            total_weights < model_bytes,
            "{total_weights} vs {model_bytes}"
        );
        assert_eq!(t.total_storage_bytes(), 0, "all pieces have live sources");
    }

    #[test]
    fn deltas_balance_to_reconfiguration_difference() {
        // Sum of all per-layer deltas = (new resident bytes) - (old resident
        // bytes) summed over GPUs appearing in both assignments.
        let task = simple_task();
        let t = compute_transfers(&task);
        let sum: i64 = t.layer_deltas.values().flat_map(|v| v.iter()).sum();
        // Same GPUs, same model, full coverage both times: net change 0.
        assert_eq!(sum, 0);
    }

    #[test]
    fn cache_lost_when_source_pipeline_gone() {
        let mut task = simple_task();
        task.cache_bytes_per_pipeline = vec![1 << 20];
        // Remove one old holder: some cache pieces become unsourceable.
        task.old_assignment.remove_instance(InstanceId(0));
        let t = compute_transfers(&task);
        assert_eq!(t.cache_lost_bytes, 1 << 20);
    }

    #[test]
    fn cache_moves_when_sources_alive() {
        let mut task = simple_task();
        task.cache_bytes_per_pipeline = vec![32 << 20]; // 1 MiB per layer
        let t = compute_transfers(&task);
        assert_eq!(t.cache_lost_bytes, 0);
        let cache_bytes: u64 = t.cache.iter().map(|x| x.bytes).sum();
        assert!(cache_bytes > 0, "resharding must move some cache");
        assert!(cache_bytes <= 32 << 20);
    }

    #[test]
    fn byte_conservation_across_random_reconfigurations() {
        // Every byte a destination needs is either already resident or
        // arrives exactly once (network or storage): total inflow equals
        // total need minus total reuse, for a grid of reconfigurations.
        let model = ModelSpec::opt_6_7b();
        let configs = [
            ParallelConfig::new(1, 1, 4, 8),
            ParallelConfig::new(1, 2, 2, 8),
            ParallelConfig::new(2, 2, 2, 8),
            ParallelConfig::new(1, 4, 1, 8),
            ParallelConfig::new(2, 1, 2, 8),
        ];
        for old in configs {
            for new in configs {
                let total = old.total_gpus().max(new.total_gpus());
                let g = gpus(total.div_ceil(4) as u64);
                let task = MigrationTask {
                    model: model.clone(),
                    old_config: old,
                    new_config: new,
                    old_assignment: DeviceAssignment::contiguous(&old, &g),
                    new_assignment: DeviceAssignment::contiguous(&new, &g),
                    cache_bytes_per_pipeline: vec![0; old.data as usize],
                    pipeline_inheritance: vec![None; new.data as usize],
                };
                let t = compute_transfers(&task);
                let inflow: u64 = t
                    .layers
                    .iter()
                    .flat_map(|l| &l.transfers)
                    .map(|x| x.bytes)
                    .sum();
                // Total need: each of the `new` mesh's pipelines holds one
                // full copy of all layer weights.
                let need = model.layer_bytes() * model.num_layers as u64 * new.data as u64;
                // Total reuse: overlap of what each destination GPU held
                // with what it now needs.
                let reuse: u64 = task
                    .new_assignment
                    .iter()
                    .map(|(pos, gpu)| {
                        let new_ctx = PositionContext::new(
                            model.num_layers,
                            new.pipeline,
                            pos.stage,
                            new.tensor,
                            pos.shard,
                        );
                        task.old_assignment
                            .position_of(gpu)
                            .map(|op| {
                                let old_ctx = PositionContext::new(
                                    model.num_layers,
                                    old.pipeline,
                                    op.stage,
                                    old.tensor,
                                    op.shard,
                                );
                                old_ctx.weight_overlap_bytes(&new_ctx, model.layer_bytes())
                            })
                            .unwrap_or(0)
                    })
                    .sum();
                assert_eq!(
                    inflow + reuse,
                    need,
                    "{old} -> {new}: inflow {inflow} + reuse {reuse} != need {need}"
                );
            }
        }
    }

    #[test]
    fn sources_prefer_same_instance() {
        // Old (D=1,P=1,M=4) on instance 0; new (D=1,P=2,M=2) split across
        // instances 0 and 1. Fetches landing on instance 0 should source
        // from instance 0 GPUs.
        let model = ModelSpec::opt_6_7b();
        let old = ParallelConfig::new(1, 1, 4, 8);
        let new = ParallelConfig::new(1, 2, 2, 8);
        let old_g = gpus(1);
        let new_g: Vec<GpuRef> = vec![gpu(0, 0), gpu(0, 1), gpu(1, 0), gpu(1, 1)];
        let task = MigrationTask {
            model,
            old_config: old,
            new_config: new,
            old_assignment: DeviceAssignment::contiguous(&old, &old_g),
            new_assignment: DeviceAssignment::contiguous(&new, &new_g),
            cache_bytes_per_pipeline: vec![0],
            pipeline_inheritance: vec![Some(0)],
        };
        let t = compute_transfers(&task);
        for tr in t.layers.iter().flat_map(|l| &l.transfers) {
            if tr.dest.instance == InstanceId(0) {
                if let TransferSource::Gpu(src) = tr.source {
                    assert_eq!(src.instance, InstanceId(0), "{tr:?}");
                }
            }
        }
    }
}
