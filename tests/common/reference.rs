//! The device mapper and the Algorithm 2 planner as they were before the
//! per-call tables and dense per-GPU arrays: every edge re-scans the old
//! assignment, every cell builds its own inner matrix, and the planner
//! keeps its state in `BTreeMap`s keyed by GPU; the plan evaluator as it
//! was before its flat per-instance tally. They are kept verbatim as
//! oracles: `placement_equivalence.rs` checks that the production
//! implementations return bit-identical outcomes, plans and timelines. The candidate
//! frontier's oracle is [`frontier`], held to the production frontier by
//! `frontier_equivalence.rs`, and Algorithm 1's is [`optimizer`], held to
//! `ConfigOptimizer` by `optimizer_properties.rs`. The Kuhn–Munkres
//! solver's oracle is [`best_assignment_weight`], a brute force held to
//! `kmatch::max_weight_assignment` by `substrate_invariants.rs`.

use std::collections::{BTreeMap, BTreeSet};

use cloudsim::{ColdStorage, GpuRef, InstanceId, NetFabric};
use kmatch::{max_weight_assignment, WeightMatrix};
use llmsim::ModelSpec;
use migration::transfers::{LayerTransfers, Transfer, TransferSet, TransferSource};
use migration::{
    DeviceAssignment, MigrationPlan, MigrationTask, MigrationTimeline, PlanStep, PlannerOptions,
};
use parallelism::{stage_layers, MeshPosition, ParallelConfig, PositionContext};
use simkit::SimDuration;
use spotserve::devicemap::{DeviceMapOutcome, OldState, SkuTable};

// ---- Device mapper (§3.3) -------------------------------------------

/// [`map_devices`] over a possibly heterogeneous fleet: when `skus` is
/// given, edges are priced by [`kmatch::edge_weight`] — reuse minus the
/// bandwidth-asymmetry cost of the bytes that must still move, and
/// [`kmatch::FORBIDDEN`] for positions that do not fit the hosting SKU.
/// With `skus = None` (or a table whose SKUs all match the source) every
/// edge is plain reuse and the outcome is bit-identical to the single-SKU
/// mapper.
///
/// # Panics
///
/// Panics if the instances provide fewer GPUs than the mesh needs.
#[allow(clippy::too_many_arguments)]
pub fn map_devices_with_skus_reference(
    model: &ModelSpec,
    new_config: &ParallelConfig,
    instances: &[InstanceId],
    gpus_per_instance: u8,
    old: &OldState,
    use_km: bool,
    skus: Option<&SkuTable<'_>>,
) -> DeviceMapOutcome {
    let total_gpus = instances.len() * gpus_per_instance as usize;
    assert!(
        total_gpus >= new_config.total_gpus() as usize,
        "need {} GPUs, have {total_gpus}",
        new_config.total_gpus()
    );

    // Decide pipeline inheritance first (it shapes the edge weights):
    // old pipelines in decreasing progress order fill new pipelines.
    let d_new = new_config.data as usize;
    let mut inheritance = vec![None; d_new];
    if let Some((old_cfg, _)) = &old.config_and_assignment {
        let mut order: Vec<u32> = (0..old_cfg.data).collect();
        order.sort_by_key(|&d| {
            std::cmp::Reverse(
                old.progress_per_pipeline
                    .get(d as usize)
                    .copied()
                    .unwrap_or(0),
            )
        });
        for (d_prime, d_old) in order.into_iter().take(d_new).enumerate() {
            inheritance[d_prime] = Some(d_old);
        }
    }

    // Position groups in canonical order, one instance's worth each.
    let positions: Vec<MeshPosition> = new_config.positions().collect();
    let groups: Vec<&[MeshPosition]> = positions.chunks(gpus_per_instance as usize).collect();

    let weight = |gpu: GpuRef, pos: MeshPosition| -> i64 {
        let reuse = edge_weight_reference(model, new_config, gpu, pos, old, &inheritance);
        let Some(table) = skus else { return reuse };
        let dst = (table.caps_of)(gpu.instance);
        // Bytes the position needs that are *not* already on this GPU:
        // they cross the fabric, at the slower of the two links.
        let ctx = PositionContext::new(
            model.num_layers,
            new_config.pipeline,
            pos.stage,
            new_config.tensor,
            pos.shard,
        );
        let full = ctx.weight_overlap_bytes(&ctx, model.layer_bytes()) as i64;
        let moved = (full - reuse).max(0) as u64;
        kmatch::edge_weight(
            reuse.max(0) as u64,
            moved,
            table.required_bytes_per_gpu,
            &table.src,
            &dst,
        )
    };

    let mut sorted_instances = instances.to_vec();
    sorted_instances.sort_unstable();

    let mut assignment = DeviceAssignment::new();
    let mut reused = 0i64;

    if !use_km {
        // Ablation: arbitrary deterministic mapping.
        let gpus: Vec<GpuRef> = sorted_instances
            .iter()
            .flat_map(|&i| (0..gpus_per_instance).map(move |s| GpuRef::new(i, s)))
            .collect();
        for (pos, gpu) in positions.iter().zip(&gpus) {
            assignment.insert(*pos, *gpu);
            reused += weight(*gpu, *pos);
        }
        return DeviceMapOutcome {
            assignment,
            inheritance,
            reused_bytes: reused,
        };
    }

    // Step 1: instance-level KM; each edge weight is the optimum of the
    // inner GPU-level matching for that (instance, group) pair.
    let inner = |inst: InstanceId, group: &[MeshPosition]| -> (i64, Vec<(MeshPosition, GpuRef)>) {
        let gpus: Vec<GpuRef> = (0..gpus_per_instance)
            .map(|s| GpuRef::new(inst, s))
            .collect();
        let w = WeightMatrix::from_fn(gpus.len(), group.len(), |r, c| weight(gpus[r], group[c]));
        let a = max_weight_assignment(&w);
        let pairs = a
            .pairs()
            .map(|(r, c)| (group[c], gpus[r]))
            .collect::<Vec<_>>();
        (a.total_weight, pairs)
    };

    let outer = WeightMatrix::from_fn(sorted_instances.len(), groups.len(), |r, c| {
        inner(sorted_instances[r], groups[c]).0
    });
    let outer_match = max_weight_assignment(&outer);
    for (r, c) in outer_match.pairs() {
        let (w, pairs) = inner(sorted_instances[r], groups[c]);
        reused += w;
        for (pos, gpu) in pairs {
            assignment.insert(pos, gpu);
        }
    }

    DeviceMapOutcome {
        assignment,
        inheritance,
        reused_bytes: reused,
    }
}

fn edge_weight_reference(
    model: &ModelSpec,
    new_config: &ParallelConfig,
    gpu: GpuRef,
    pos: MeshPosition,
    old: &OldState,
    inheritance: &[Option<u32>],
) -> i64 {
    let Some((old_cfg, old_asg)) = &old.config_and_assignment else {
        return 0;
    };
    let Some(old_pos) = old_asg.position_of(gpu) else {
        return 0;
    };
    let old_ctx = PositionContext::new(
        model.num_layers,
        old_cfg.pipeline,
        old_pos.stage,
        old_cfg.tensor,
        old_pos.shard,
    );
    let new_ctx = PositionContext::new(
        model.num_layers,
        new_config.pipeline,
        pos.stage,
        new_config.tensor,
        pos.shard,
    );
    let mut w = old_ctx.weight_overlap_bytes(&new_ctx, model.layer_bytes()) as i64;
    if inheritance.get(pos.pipeline as usize).copied().flatten() == Some(old_pos.pipeline) {
        let cache_total = old
            .cache_bytes_per_pipeline
            .get(old_pos.pipeline as usize)
            .copied()
            .unwrap_or(0);
        let cache_per_layer = cache_total / model.num_layers as u64;
        w += old_ctx.weight_overlap_bytes(&new_ctx, cache_per_layer) as i64;
    }
    w
}

// ---- Kuhn–Munkres (§3.3) --------------------------------------------

/// The best total weight of an assignment of `weights`, found by trying
/// every injection of the smaller side into the larger. Factorial time:
/// keep both sides under about 9.
pub fn best_assignment_weight(weights: &WeightMatrix) -> i64 {
    if weights.rows() > weights.cols() {
        return best_assignment_weight(&weights.transposed());
    }
    let mut cols: Vec<usize> = (0..weights.cols()).collect();
    let mut best = i64::MIN;
    permute(&mut cols, 0, &mut |perm| {
        best = best.max((0..weights.rows()).map(|r| weights.get(r, perm[r])).sum());
    });
    best
}

/// Visits every permutation of `xs[k..]` (behind the fixed `xs[..k]`).
fn permute(xs: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == xs.len() {
        visit(xs);
        return;
    }
    for i in k..xs.len() {
        xs.swap(k, i);
        permute(xs, k + 1, visit);
        xs.swap(k, i);
    }
}

// ---- Byte flows ------------------------------------------------------

/// Exact rational interval arithmetic over a layer's shard space `[0, den)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: u64,
    hi: u64,
}

impl Interval {
    fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    fn intersect(&self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// `self` minus `other`: up to two residual intervals.
    fn subtract(&self, other: Interval) -> Vec<Interval> {
        let inter = self.intersect(other);
        if inter.len() == 0 {
            return vec![*self];
        }
        let mut out = Vec::new();
        if self.lo < inter.lo {
            out.push(Interval {
                lo: self.lo,
                hi: inter.lo,
            });
        }
        if inter.hi < self.hi {
            out.push(Interval {
                lo: inter.hi,
                hi: self.hi,
            });
        }
        out
    }
}

/// Computes every byte flow implied by `task`.
///
/// Weight pieces with no surviving replica fall back to
/// [`TransferSource::Storage`]; lost cache pieces are tallied in
/// [`TransferSet::cache_lost_bytes`] (the whole inherited pipeline's cache
/// is counted lost if any piece of it is unrecoverable, since decoding
/// needs every layer's KV to resume).
pub fn compute_transfers_reference(task: &MigrationTask) -> TransferSet {
    let model = &task.model;
    let layers_n = model.num_layers;
    let (m_old, m_new) = (task.old_config.tensor, task.new_config.tensor);
    let den = (m_old as u64) * (m_new as u64);
    let layer_bytes = model.layer_bytes();

    // Index the old assignment: (stage, shard) -> holders per pipeline.
    let old_cfg = task.old_config;
    let new_cfg = task.new_config;

    // Bytes each source GPU has been asked to send so far (load balancing).
    let mut send_load: BTreeMap<GpuRef, u64> = BTreeMap::new();
    let mut layer_deltas: BTreeMap<GpuRef, Vec<i64>> = BTreeMap::new();
    let mut delta = |g: GpuRef, layer: u32, amount: i64| {
        layer_deltas
            .entry(g)
            .or_insert_with(|| vec![0i64; layers_n as usize])[layer as usize] += amount;
    };

    // Which interval of `layer` does an old position hold?
    let old_interval = |pos: MeshPosition, layer: u32| -> Option<Interval> {
        let range = stage_layers(layers_n, old_cfg.pipeline, pos.stage);
        if !range.contains(&layer) {
            return None;
        }
        Some(Interval {
            lo: pos.shard as u64 * m_new as u64,
            hi: (pos.shard as u64 + 1) * m_new as u64,
        })
    };

    let piece_bytes = |iv: Interval, total: u64| -> u64 {
        ((iv.len() as u128 * total as u128) / den as u128) as u64
    };

    // ---- Weights ----------------------------------------------------
    let mut layer_xfers: Vec<LayerTransfers> = (0..layers_n)
        .map(|layer| LayerTransfers {
            layer,
            transfers: Vec::new(),
        })
        .collect();

    for (new_pos, dest) in task.new_assignment.iter() {
        let need_layers = stage_layers(layers_n, new_cfg.pipeline, new_pos.stage);
        let need_iv = Interval {
            lo: new_pos.shard as u64 * m_old as u64,
            hi: (new_pos.shard as u64 + 1) * m_old as u64,
        };
        let dest_old_pos = task.old_assignment.position_of(dest);
        for layer in need_layers.clone() {
            // What the destination already holds of this layer.
            let held = dest_old_pos.and_then(|p| old_interval(p, layer));
            let missing = match held {
                Some(h) => need_iv.subtract(h),
                None => vec![need_iv],
            };
            for miss in missing {
                if miss.len() == 0 {
                    continue;
                }
                // Split by old shard boundaries and source each piece.
                for k in 0..m_old {
                    let shard_iv = Interval {
                        lo: k as u64 * m_new as u64,
                        hi: (k as u64 + 1) * m_new as u64,
                    };
                    let piece = miss.intersect(shard_iv);
                    if piece.len() == 0 {
                        continue;
                    }
                    let bytes = piece_bytes(piece, layer_bytes);
                    if bytes == 0 {
                        continue;
                    }
                    // Candidate sources: any old pipeline's holder of
                    // (stage_of(layer), shard k) that is still assigned.
                    let stage = (0..old_cfg.pipeline)
                        .find(|&p| stage_layers(layers_n, old_cfg.pipeline, p).contains(&layer))
                        .expect("layer belongs to a stage");
                    let mut candidates: Vec<GpuRef> = (0..old_cfg.data)
                        .filter_map(|d| task.old_assignment.gpu_at(MeshPosition::new(d, stage, k)))
                        .filter(|g| *g != dest)
                        .collect();
                    // Prefer same-instance sources, then the least-loaded.
                    candidates.sort_by_key(|g| {
                        (
                            g.instance != dest.instance,
                            send_load.get(g).copied().unwrap_or(0),
                            *g,
                        )
                    });
                    let source = match candidates.first() {
                        Some(&g) => {
                            *send_load.entry(g).or_insert(0) += bytes;
                            TransferSource::Gpu(g)
                        }
                        None => TransferSource::Storage,
                    };
                    layer_xfers[layer as usize].transfers.push(Transfer {
                        source,
                        dest,
                        bytes,
                    });
                    delta(dest, layer, bytes as i64);
                }
            }
        }
    }

    // Freed bytes: every old holder releases the parts of each layer it
    // does not keep in its own new position.
    for (old_pos, gpu) in task.old_assignment.iter() {
        let held_layers = stage_layers(layers_n, old_cfg.pipeline, old_pos.stage);
        let held_iv = Interval {
            lo: old_pos.shard as u64 * m_new as u64,
            hi: (old_pos.shard as u64 + 1) * m_new as u64,
        };
        let new_pos = task.new_assignment.position_of(gpu);
        for layer in held_layers {
            let kept = new_pos
                .and_then(|np| {
                    let r = stage_layers(layers_n, new_cfg.pipeline, np.stage);
                    if !r.contains(&layer) {
                        return None;
                    }
                    Some(Interval {
                        lo: np.shard as u64 * m_old as u64,
                        hi: (np.shard as u64 + 1) * m_old as u64,
                    })
                })
                .map(|iv| held_iv.intersect(iv).len())
                .unwrap_or(0);
            let freed = held_iv.len() - kept;
            if freed > 0 {
                let bytes = ((freed as u128 * layer_bytes as u128) / den as u128) as i64;
                delta(gpu, layer, -bytes);
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
        for new_pos in new_cfg.positions().filter(|p| p.pipeline == d_new as u32) {
            let Some(dest) = task.new_assignment.gpu_at(new_pos) else {
                lost = true;
                continue;
            };
            let need_layers = stage_layers(layers_n, new_cfg.pipeline, new_pos.stage);
            let need_iv = Interval {
                lo: new_pos.shard as u64 * m_old as u64,
                hi: (new_pos.shard as u64 + 1) * m_old as u64,
            };
            let dest_old_pos = task
                .old_assignment
                .position_of(dest)
                .filter(|p| p.pipeline == d_old);
            for layer in need_layers {
                let held = dest_old_pos.and_then(|p| old_interval(p, layer));
                let missing = match held {
                    Some(h) => need_iv.subtract(h),
                    None => vec![need_iv],
                };
                for miss in missing {
                    for k in 0..m_old {
                        let shard_iv = Interval {
                            lo: k as u64 * m_new as u64,
                            hi: (k as u64 + 1) * m_new as u64,
                        };
                        let piece = miss.intersect(shard_iv);
                        if piece.len() == 0 {
                            continue;
                        }
                        let bytes = piece_bytes(piece, per_layer);
                        let stage = (0..old_cfg.pipeline)
                            .find(|&p| stage_layers(layers_n, old_cfg.pipeline, p).contains(&layer))
                            .expect("layer belongs to a stage");
                        // Cache exists only on the inherited pipeline; a
                        // zero-byte piece is no transfer.
                        match task
                            .old_assignment
                            .gpu_at(MeshPosition::new(d_old, stage, k))
                        {
                            Some(src) if src != dest && bytes > 0 => {
                                pipeline_cache.push(Transfer {
                                    source: TransferSource::Gpu(src),
                                    dest,
                                    bytes,
                                })
                            }
                            Some(_) => {} // already resident, or empty
                            None => lost = true,
                        }
                    }
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

    TransferSet {
        cache,
        cache_lost_bytes: cache_lost,
        layers: layer_xfers,
        layer_deltas,
    }
}

// ---- Algorithm 2 -----------------------------------------------------

/// Runs Algorithm 2 on `task`.
///
/// The returned plan starts with [`PlanStep::MigrateCache`], then migrates
/// layers in the chosen order, emitting [`PlanStep::StartStage`] markers as
/// stages complete (progressively, or all at the end when
/// [`PlannerOptions::progressive`] is off).
pub fn plan_migration_reference(task: &MigrationTask, opts: &PlannerOptions) -> MigrationPlan {
    let transfers = compute_transfers_reference(task);
    let layers_n = task.model.num_layers;

    let layer_order = if opts.memory_optimized {
        memopt_order_reference(&transfers, layers_n, opts.u_max)
    } else {
        (0..layers_n).collect()
    };

    // Walk the order, tracking per-GPU buffer growth and stage completion.
    let mut usage: std::collections::BTreeMap<GpuRef, i64> = std::collections::BTreeMap::new();
    let mut peak = 0i64;
    let mut steps = vec![PlanStep::MigrateCache];
    let mut remaining_per_stage: Vec<BTreeSet<u32>> = (0..task.new_config.pipeline)
        .map(|p| stage_layers(layers_n, task.new_config.pipeline, p).collect::<BTreeSet<u32>>())
        .collect();
    let mut started = vec![false; task.new_config.pipeline as usize];

    for &layer in &layer_order {
        steps.push(PlanStep::MigrateLayer(layer));
        for (gpu, deltas) in &transfers.layer_deltas {
            let u = usage.entry(*gpu).or_insert(0);
            *u += deltas[layer as usize];
            peak = peak.max(*u);
        }
        if opts.progressive {
            for (p, remaining) in remaining_per_stage.iter_mut().enumerate() {
                remaining.remove(&layer);
                if remaining.is_empty() && !started[p] {
                    started[p] = true;
                    steps.push(PlanStep::StartStage(p as u32));
                }
            }
        }
    }
    if !opts.progressive {
        for p in 0..task.new_config.pipeline {
            steps.push(PlanStep::StartStage(p));
        }
    }

    MigrationPlan {
        steps,
        layer_order,
        transfers,
        peak_buffer_growth: peak.max(0) as u64,
        new_stages: task.new_config.pipeline,
    }
}

/// `MemOptMigPlanner` of Algorithm 2: first admit, in index order, the
/// layers whose migration keeps every GPU's buffer growth under `u_max`;
/// then append the deferred layers greedily, each time picking the layer
/// minimizing the resulting maximum buffer usage.
fn memopt_order_reference(transfers: &TransferSet, layers_n: u32, u_max: u64) -> Vec<u32> {
    let mut usage: std::collections::BTreeMap<GpuRef, i64> = std::collections::BTreeMap::new();
    let mut order = Vec::with_capacity(layers_n as usize);
    let mut deferred: Vec<u32> = Vec::new();

    let would_peak =
        |usage: &std::collections::BTreeMap<GpuRef, i64>, transfers: &TransferSet, layer: u32| {
            transfers
                .layer_deltas
                .iter()
                .map(|(g, d)| usage.get(g).copied().unwrap_or(0) + d[layer as usize])
                .max()
                .unwrap_or(0)
        };
    let apply = |usage: &mut std::collections::BTreeMap<GpuRef, i64>,
                 transfers: &TransferSet,
                 layer: u32| {
        for (g, d) in &transfers.layer_deltas {
            *usage.entry(*g).or_insert(0) += d[layer as usize];
        }
    };

    for layer in 0..layers_n {
        if would_peak(&usage, transfers, layer) <= u_max as i64 {
            apply(&mut usage, transfers, layer);
            order.push(layer);
        } else {
            deferred.push(layer);
        }
    }
    // Greedy min-max completion (Algorithm 2, lines 18-21).
    while !deferred.is_empty() {
        let (idx, _) = deferred
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| would_peak(&usage, transfers, l))
            .expect("non-empty");
        let layer = deferred.remove(idx);
        apply(&mut usage, transfers, layer);
        order.push(layer);
    }
    order
}

// ---- Migration cost ------------------------------------------------

/// Computes how long one batch of transfers takes: every instance moves its
/// in/out bytes over its NIC in parallel, intra-instance flows use the local
/// bus, and storage loads stream per instance concurrently with the network.
fn step_time_reference(
    transfers: &[Transfer],
    net: &NetFabric,
    storage: &ColdStorage,
) -> SimDuration {
    if transfers.is_empty() {
        return SimDuration::ZERO;
    }
    let mut nic_out: BTreeMap<InstanceId, u64> = BTreeMap::new();
    let mut nic_in: BTreeMap<InstanceId, u64> = BTreeMap::new();
    let mut local: BTreeMap<InstanceId, u64> = BTreeMap::new();
    let mut storage_in: BTreeMap<InstanceId, u64> = BTreeMap::new();
    let mut any_inter = false;
    for t in transfers {
        match t.source {
            TransferSource::Gpu(src) if src.instance == t.dest.instance => {
                *local.entry(src.instance).or_insert(0) += t.bytes;
            }
            TransferSource::Gpu(src) => {
                any_inter = true;
                *nic_out.entry(src.instance).or_insert(0) += t.bytes;
                *nic_in.entry(t.dest.instance).or_insert(0) += t.bytes;
            }
            TransferSource::Storage => {
                *storage_in.entry(t.dest.instance).or_insert(0) += t.bytes;
            }
        }
    }
    let nic_secs = nic_out
        .values()
        .chain(nic_in.values())
        .map(|&b| b as f64 / net.inter_bw)
        .fold(0.0f64, f64::max);
    let local_secs = local
        .values()
        .map(|&b| b as f64 / net.intra_bw)
        .fold(0.0f64, f64::max);
    let storage_secs = storage_in
        .values()
        .map(|&b| b as f64 / storage.per_instance_bandwidth)
        .fold(0.0f64, f64::max);
    let latency = if any_inter {
        net.inter_latency
    } else if !local.is_empty() {
        net.intra_latency
    } else {
        SimDuration::ZERO
    };
    latency + SimDuration::from_secs_f64(nic_secs.max(local_secs).max(storage_secs))
}

/// Walks `plan` step by step and produces its timeline.
pub fn evaluate_plan_reference(
    plan: &MigrationPlan,
    net: &NetFabric,
    storage: &ColdStorage,
) -> MigrationTimeline {
    let mut t = SimDuration::ZERO;
    let mut cache_done = SimDuration::ZERO;
    let mut stage_ready = vec![SimDuration::MAX; plan.new_stages as usize];
    for step in &plan.steps {
        match step {
            PlanStep::MigrateCache => {
                t += step_time_reference(&plan.transfers.cache, net, storage);
                cache_done = t;
            }
            PlanStep::MigrateLayer(layer) => {
                let xfers = &plan.transfers.layers[*layer as usize].transfers;
                t += step_time_reference(xfers, net, storage);
            }
            PlanStep::StartStage(p) => {
                stage_ready[*p as usize] = t;
            }
        }
    }
    for ready in &mut stage_ready {
        if *ready == SimDuration::MAX {
            *ready = t;
        }
    }
    MigrationTimeline {
        cache_done,
        stage_ready,
        total: t,
        network_bytes: plan.transfers.total_network_bytes(),
        storage_bytes: plan.transfers.total_storage_bytes(),
    }
}

// ---- Candidate frontier (Algorithm 1's search space) -----------------

/// The candidate frontier as it was before the shared per-mesh tables and
/// the lazy per-mode index: every candidate carries boxed copies of its
/// mesh's slot and steady tables, both engine modes are pruned and
/// floor-sorted at build time, and pruning tests each candidate against
/// every other in its instance bucket. Kept verbatim as the oracle
/// `frontier_equivalence.rs` holds the production frontier to.
pub mod frontier {
    use std::collections::HashMap;

    use cloudsim::GpuSpec;
    use llmsim::MemoryModel;
    use parallelism::{enumerate_configs, ConfigSpace, EngineMode, ParallelConfig, PerfModel};
    use simkit::SimDuration;

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

        /// `l_req(C, α)` under `mode`, via the shared [`PerfModel`] kernels
        /// over the cached components — bit-identical to fresh pricing.
        pub fn latency(&self, perf: &PerfModel, mode: EngineMode, alpha: f64) -> SimDuration {
            match mode {
                EngineMode::FixedBatch => {
                    perf.request_latency_with_exec(&self.config, self.l_exe, alpha)
                }
                EngineMode::ContinuousBatching => perf.request_latency_continuous_with(
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
        fn dominates(&self, x: &Candidate, mode: EngineMode) -> bool {
            if self.instances != x.instances || self.config >= x.config {
                return false;
            }
            match mode {
                EngineMode::FixedBatch => {
                    // l_req = l_exe + (B−1)/2α + l_exe·ρ^√(2(D+1))/(2D(1−ρ)):
                    // monotone in l_exe, B, ρ = α/φ and anti-monotone in D.
                    self.phi_fixed >= x.phi_fixed
                        && self.l_exe <= x.l_exe
                        && self.config.batch <= x.config.batch
                        && self.config.data >= x.config.data
                }
                EngineMode::ContinuousBatching => {
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
    /// use parallelism::{CandidateFrontier, ConfigSpace, PerfModel, EngineMode};
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
    /// let c = f.pruned_at(16, EngineMode::FixedBatch).next().unwrap();
    /// assert_eq!(c.throughput(EngineMode::FixedBatch), perf.throughput(&c.config));
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
                prune(&candidates, ceiling_instances, EngineMode::FixedBatch);
            let (pruned_cont, pruned_cont_cum) = prune(
                &candidates,
                ceiling_instances,
                EngineMode::ContinuousBatching,
            );
            let by_floor = |pruned: &[u32], mode| {
                let mut order = pruned.to_vec();
                order.sort_by_key(|&i| candidates[i as usize].floor(mode));
                order
            };
            let by_floor_fixed = by_floor(&pruned_fixed, EngineMode::FixedBatch);
            let by_floor_cont = by_floor(&pruned_cont, EngineMode::ContinuousBatching);
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
        pub fn pruned_len(&self, mode: EngineMode) -> usize {
            match mode {
                EngineMode::FixedBatch => self.pruned_fixed.len(),
                EngineMode::ContinuousBatching => self.pruned_cont.len(),
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
        pub fn pruned_at(&self, n: u32, mode: EngineMode) -> impl Iterator<Item = &Candidate> + '_ {
            let n = n.min(self.ceiling) as usize;
            let (idx, cum) = match mode {
                EngineMode::FixedBatch => (&self.pruned_fixed, &self.pruned_fixed_cum),
                EngineMode::ContinuousBatching => (&self.pruned_cont, &self.pruned_cont_cum),
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
        pub fn pruned_by_floor(&self, mode: EngineMode) -> impl Iterator<Item = &Candidate> + '_ {
            let idx = match mode {
                EngineMode::FixedBatch => &self.by_floor_fixed,
                EngineMode::ContinuousBatching => &self.by_floor_cont,
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
    fn prune(candidates: &[Candidate], ceiling: u32, mode: EngineMode) -> (Vec<u32>, Vec<u32>) {
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
}

// ---- Algorithm 1 (§3.2) ---------------------------------------------

/// Algorithm 1 as it was before the candidate frontier: every call
/// re-enumerates the configuration space and prices every candidate from
/// the cost model. The frontier-backed `ConfigOptimizer` decisions are
/// pinned bit-identical to these.
pub mod optimizer {
    use parallelism::ParallelConfig;
    use simkit::SimDuration;
    use spotserve::{ConfigOptimizer, EngineMode, OptimizerDecision};

    /// Scores candidates: minimize `l_req(C, α)`, tie-break toward fewer
    /// instances, then canonical order for determinism.
    fn best_latency(
        opt: &ConfigOptimizer,
        configs: impl IntoIterator<Item = ParallelConfig>,
        alpha: f64,
    ) -> Option<ParallelConfig> {
        configs
            .into_iter()
            .map(|c| {
                let l = estimated_latency_uncached(opt, &c, alpha);
                (l, c.instances_needed(opt.gpus_per_instance()), c)
            })
            .min_by(|a, b| a.cmp(b))
            .map(|(_, _, c)| c)
    }

    /// `φ(C)` straight from the cost model (never the frontier cache).
    fn estimated_throughput_uncached(opt: &ConfigOptimizer, c: &ParallelConfig) -> f64 {
        match opt.engine_mode() {
            EngineMode::FixedBatch => opt.perf().throughput(c),
            EngineMode::ContinuousBatching => opt.perf().throughput_continuous(c),
        }
    }

    /// `l_req(C, α)` straight from the cost model (never the frontier
    /// cache).
    fn estimated_latency_uncached(
        opt: &ConfigOptimizer,
        c: &ParallelConfig,
        alpha: f64,
    ) -> SimDuration {
        match opt.engine_mode() {
            EngineMode::FixedBatch => opt.perf().request_latency(c, alpha),
            EngineMode::ContinuousBatching => opt.perf().request_latency_continuous(c, alpha),
        }
    }

    /// The pre-frontier `ConfigOptimizer::decide`: fresh enumeration and
    /// pricing on every call.
    pub fn decide_reference(
        opt: &ConfigOptimizer,
        n_instances: u32,
        alpha: f64,
    ) -> OptimizerDecision {
        decide_with_incumbent_reference(opt, n_instances, alpha, None)
    }

    /// The pre-frontier `ConfigOptimizer::decide_with_incumbent`,
    /// including its `O(|space|)` incumbent membership re-enumeration.
    pub fn decide_with_incumbent_reference(
        opt: &ConfigOptimizer,
        n_instances: u32,
        alpha: f64,
        incumbent: Option<ParallelConfig>,
    ) -> OptimizerDecision {
        let mut d = decide_fresh_reference(opt, n_instances, alpha);
        let Some(inc) = incumbent else { return d };
        if inc.instances_needed(opt.gpus_per_instance()) > n_instances {
            return d;
        }
        if !opt.feasible(n_instances).contains(&inc) {
            return d;
        }
        let keepable = |best: ParallelConfig| {
            let inc_l = estimated_latency_uncached(opt, &inc, alpha);
            let best_l = estimated_latency_uncached(opt, &best, alpha);
            estimated_throughput_uncached(opt, &inc) >= alpha
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
                    inc.instances_needed(opt.gpus_per_instance()) as i64 - n_instances as i64;
            }
        }
        d
    }

    /// The pre-frontier `ConfigOptimizer::decide_slo`.
    pub fn decide_slo_reference(
        opt: &ConfigOptimizer,
        n_instances: u32,
        alpha: f64,
        slo: simkit::SimDuration,
    ) -> OptimizerDecision {
        let ceiling = opt.max_instances().max(n_instances);
        let meeting: Vec<ParallelConfig> = opt
            .feasible(ceiling)
            .into_iter()
            .filter(|c| estimated_latency_uncached(opt, c, alpha) <= slo)
            .collect();
        if meeting.is_empty() {
            return decide_reference(opt, n_instances, alpha);
        }
        let target = meeting
            .iter()
            .copied()
            .map(|c| {
                // Cheapest first, then lowest latency, then canonical.
                (
                    c.instances_needed(opt.gpus_per_instance()),
                    estimated_latency_uncached(opt, &c, alpha),
                    c,
                )
            })
            .min()
            .map(|(_, _, c)| c);
        let now = target
            .filter(|t| t.instances_needed(opt.gpus_per_instance()) <= n_instances)
            .or_else(|| {
                meeting
                    .into_iter()
                    .filter(|c| c.instances_needed(opt.gpus_per_instance()) <= n_instances)
                    .map(|c| {
                        (
                            c.instances_needed(opt.gpus_per_instance()),
                            estimated_latency_uncached(opt, &c, alpha),
                            c,
                        )
                    })
                    .min()
                    .map(|(_, _, c)| c)
            })
            .or(decide_reference(opt, n_instances, alpha).now);
        let needed = target
            .map(|t| t.instances_needed(opt.gpus_per_instance()))
            .unwrap_or(0);
        OptimizerDecision {
            now,
            target,
            instance_delta: needed as i64 - n_instances as i64,
        }
    }

    fn decide_fresh_reference(
        opt: &ConfigOptimizer,
        n_instances: u32,
        alpha: f64,
    ) -> OptimizerDecision {
        // Line 2: does any configuration within the ceiling sustain α?
        let ceiling = opt.max_instances().max(n_instances);
        let all = opt.feasible(ceiling);
        let sustaining: Vec<ParallelConfig> = all
            .iter()
            .copied()
            .filter(|c| estimated_throughput_uncached(opt, c) >= alpha)
            .collect();

        let target = if !sustaining.is_empty() {
            // Line 3: minimize l_req among sustaining configs.
            best_latency(opt, sustaining, alpha)
        } else {
            // Line 5: maximize throughput within the current fleet.
            opt.feasible(n_instances)
                .into_iter()
                .map(|c| (estimated_throughput_uncached(opt, &c), std::cmp::Reverse(c)))
                .max_by(|a, b| a.partial_cmp(b).expect("throughput is finite"))
                .map(|(_, std::cmp::Reverse(c))| c)
        };

        // What can actually run right now, consistent with the target's
        // shape preference.
        let now_candidates = opt.feasible(n_instances);
        let now = match target {
            Some(t) if t.instances_needed(opt.gpus_per_instance()) <= n_instances => Some(t),
            _ => {
                let sustaining_now: Vec<ParallelConfig> = now_candidates
                    .iter()
                    .copied()
                    .filter(|c| estimated_throughput_uncached(opt, c) >= alpha)
                    .collect();
                if sustaining_now.is_empty() {
                    // Max throughput with what we have.
                    now_candidates
                        .into_iter()
                        .map(|c| (estimated_throughput_uncached(opt, &c), std::cmp::Reverse(c)))
                        .max_by(|a, b| a.partial_cmp(b).expect("finite"))
                        .map(|(_, std::cmp::Reverse(c))| c)
                } else {
                    best_latency(opt, sustaining_now, alpha)
                }
            }
        };

        let needed = target
            .map(|t| t.instances_needed(opt.gpus_per_instance()))
            .unwrap_or(0);
        OptimizerDecision {
            now,
            target,
            instance_delta: needed as i64 - n_instances as i64,
        }
    }
}
