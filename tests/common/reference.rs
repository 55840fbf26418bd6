//! The device mapper and the Algorithm 2 planner as they were before the
//! per-call tables and dense per-GPU arrays: every edge re-scans the old
//! assignment, every cell builds its own inner matrix, and the planner
//! keeps its state in `BTreeMap`s keyed by GPU. They are kept verbatim as
//! oracles: `placement_equivalence.rs` checks that the production
//! implementations return bit-identical outcomes and plans.

use std::collections::{BTreeMap, BTreeSet};

use cloudsim::{GpuRef, InstanceId};
use kmatch::{max_weight_assignment, WeightMatrix};
use llmsim::ModelSpec;
use migration::transfers::{LayerTransfers, Transfer, TransferSet, TransferSource};
use migration::{DeviceAssignment, MigrationPlan, MigrationTask, PlanStep, PlannerOptions};
use parallelism::{stage_layers, MeshPosition, ParallelConfig, PositionContext};
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
                        // Cache exists only on the inherited pipeline.
                        match task
                            .old_assignment
                            .gpu_at(MeshPosition::new(d_old, stage, k))
                        {
                            Some(src) if src != dest => pipeline_cache.push(Transfer {
                                source: TransferSource::Gpu(src),
                                dest,
                                bytes,
                            }),
                            Some(_) => {} // already resident
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
