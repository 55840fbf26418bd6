//! The device mapper (§3.3): assign available GPUs to the positions of the
//! next configuration so that reusable context is maximized.
//!
//! The mapping is the paper's bipartite matching: GPUs on one side, mesh
//! positions on the other, edge weight = bytes of model context plus
//! (for inherited pipelines) cache context shared between what the GPU
//! holds and what the position needs. Multi-GPU instances use the two-step
//! hierarchical matching of the supplemental material: a Kuhn–Munkres
//! matching between *instances* and instance-sized *position groups* whose
//! edge weight is itself the optimum of the inner GPU-level matching, then
//! the inner optimum is applied within each matched pair. Position groups
//! follow canonical mesh order, which keeps tensor groups on as few
//! instances as possible.
//!
//! Mapping runs inside the grace period, so each outer cell is built once
//! from per-call tables: the old assignment inverted (GPU → old position),
//! every new position's context, and every instance's SKU card. An
//! instance enters a cell only through its card and the old positions its
//! GPUs hold, so a cell in which no edge reuses anything — a fresh
//! instance, or one holding none of the group's layers — equals the fresh
//! cell of its card, priced once per (card, group). Every inner matrix
//! with reuse is solved allocation-free for its optimum, which is unique;
//! the matched pairs of the chosen cells still come from
//! [`max_weight_assignment`] on the same inner matrix, so tie-breaks are
//! those of the full hierarchical matching.

use std::ops::Range;

use cloudsim::{GpuRef, InstanceId};
use kmatch::{max_weight_assignment, KmScratch, SkuCaps, WeightMatrix};
use llmsim::ModelSpec;
use migration::DeviceAssignment;
use parallelism::{MeshPosition, ParallelConfig, PositionContext};

/// The outcome of device mapping.
#[derive(Debug, Clone)]
pub struct DeviceMapOutcome {
    /// GPU placement for the new configuration.
    pub assignment: DeviceAssignment,
    /// For each new pipeline, the old pipeline whose requests it inherits.
    pub inheritance: Vec<Option<u32>>,
    /// Total context bytes the mapping reuses in place (the KM objective).
    pub reused_bytes: i64,
}

/// State of the old configuration relevant to mapping.
#[derive(Debug, Clone, Default)]
pub struct OldState {
    /// The configuration being left, with its surviving placement.
    pub config_and_assignment: Option<(ParallelConfig, DeviceAssignment)>,
    /// Committed KV-cache bytes per old pipeline.
    pub cache_bytes_per_pipeline: Vec<u64>,
    /// Decoding progress (committed tokens) per old pipeline; pipelines
    /// with more progress are inherited first when pipelines shrink
    /// (§3.3: "keeps the batches of requests with more decoding
    /// progresses").
    pub progress_per_pipeline: Vec<u32>,
}

/// Cross-SKU capability context for device mapping over a mixed fleet.
///
/// In a heterogeneous fleet the candidate GPUs are not interchangeable:
/// a position whose shard exceeds an instance's per-GPU memory is *no*
/// placement (the matching's `-INFINITY`), and reuse bytes missing on a
/// GPU behind a slower inter-instance link arrive late, so its edge is
/// discounted by the bandwidth asymmetry ([`kmatch::edge_weight`]).
pub struct SkuTable<'a> {
    /// The SKU capability of the instance hosting each candidate GPU.
    pub caps_of: &'a dyn Fn(InstanceId) -> SkuCaps,
    /// The SKU whose fabric holds the *source* context being migrated
    /// (the old mesh's SKU).
    pub src: SkuCaps,
    /// Device bytes one position of the new configuration must hold
    /// ([`llmsim::MemoryModel::required_bytes_per_gpu`]).
    pub required_bytes_per_gpu: u64,
}

/// Maps `instances` (each contributing `gpus_per_instance` GPUs) onto
/// `new_config`'s mesh.
///
/// With `use_km = false` (the `-DeviceMapper` ablation) the mapping is the
/// arbitrary identity order instead of the KM optimum.
///
/// # Panics
///
/// Panics if the instances provide fewer GPUs than the mesh needs.
pub fn map_devices(
    model: &ModelSpec,
    new_config: &ParallelConfig,
    instances: &[InstanceId],
    gpus_per_instance: u8,
    old: &OldState,
    use_km: bool,
) -> DeviceMapOutcome {
    map_devices_with_skus(
        model,
        new_config,
        instances,
        gpus_per_instance,
        old,
        use_km,
        None,
    )
}

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
pub fn map_devices_with_skus(
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
    let gpi = gpus_per_instance as usize;
    let groups: Vec<Range<usize>> = (0..positions.len())
        .step_by(gpi)
        .map(|lo| lo..(lo + gpi).min(positions.len()))
        .collect();

    let mut sorted_instances = instances.to_vec();
    sorted_instances.sort_unstable();
    let edges = Edges::new(
        model,
        new_config,
        &positions,
        &sorted_instances,
        gpi,
        old,
        &inheritance,
        skus,
    );

    let mut assignment = DeviceAssignment::new();
    let mut reused = 0i64;

    if !use_km {
        // Ablation: arbitrary deterministic mapping, GPUs in instance order.
        for (c, pos) in positions.iter().enumerate() {
            let (r, s) = (c / gpi, c % gpi);
            assignment.insert(*pos, GpuRef::new(sorted_instances[r], s as u8));
            reused += edges.weight(r, s, c);
        }
        return DeviceMapOutcome {
            assignment,
            inheritance,
            reused_bytes: reused,
        };
    }

    // Step 1: instance-level KM; each edge weight is the optimum of the
    // inner GPU-level matching for that (instance, group) pair.
    let fresh = edges.fresh_cells(&groups);
    let mut km = KmScratch::default();
    let mut cell = Vec::with_capacity(gpi * gpi);
    let outer = WeightMatrix::from_fn(sorted_instances.len(), groups.len(), |r, g| {
        let fresh = fresh[edges.card_of[r] * groups.len() + g];
        edges.cell(r, groups[g].clone(), fresh, &mut km, &mut cell)
    });
    // Step 2: apply the inner optimum within each matched pair.
    let outer_match = max_weight_assignment(&outer);
    for (r, g) in outer_match.pairs() {
        let group = groups[g].clone();
        let inner =
            WeightMatrix::from_fn(gpi, group.len(), |s, j| edges.weight(r, s, group.start + j));
        let a = max_weight_assignment(&inner);
        reused += a.total_weight;
        for (s, j) in a.pairs() {
            assignment.insert(
                positions[group.start + j],
                GpuRef::new(sorted_instances[r], s as u8),
            );
        }
    }

    DeviceMapOutcome {
        assignment,
        inheritance,
        reused_bytes: reused,
    }
}

/// A new mesh position as the edge weights read it.
struct NewSlot {
    ctx: PositionContext,
    /// Weight bytes of the whole position (what a fresh GPU must load).
    full: i64,
    /// The old pipeline the position's pipeline inherits, if any.
    inherits: Option<u32>,
}

/// The old context one candidate GPU holds.
struct OldSlot {
    ctx: PositionContext,
    pipeline: u32,
    cache_per_layer: u64,
}

/// Everything an edge weight reads, derived once per mapping call.
/// Instances are rows in sorted order; GPU `s` of row `r` is slot
/// `r · gpi + s`; positions are columns in canonical order.
struct Edges<'a> {
    layer_bytes: u64,
    gpi: usize,
    new: Vec<NewSlot>,
    old: Vec<Option<OldSlot>>,
    /// Per instance: the hull of the layers its GPUs hold (empty when it
    /// holds nothing).
    held_layers: Vec<Range<u32>>,
    /// Per instance: index of its SKU card in `cards` (0 without a table).
    card_of: Vec<usize>,
    /// The distinct SKU cards of the instances, by bit pattern.
    cards: Vec<SkuCaps>,
    skus: Option<&'a SkuTable<'a>>,
}

impl<'a> Edges<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        model: &ModelSpec,
        new_config: &ParallelConfig,
        positions: &[MeshPosition],
        instances: &[InstanceId],
        gpi: usize,
        old: &OldState,
        inheritance: &[Option<u32>],
        skus: Option<&'a SkuTable<'a>>,
    ) -> Self {
        let layer_bytes = model.layer_bytes();
        let new = positions
            .iter()
            .map(|pos| {
                let ctx = PositionContext::new(
                    model.num_layers,
                    new_config.pipeline,
                    pos.stage,
                    new_config.tensor,
                    pos.shard,
                );
                NewSlot {
                    full: ctx.weight_bytes(layer_bytes) as i64,
                    inherits: inheritance.get(pos.pipeline as usize).copied().flatten(),
                    ctx,
                }
            })
            .collect();

        let mut old_slots: Vec<Option<OldSlot>> = Vec::with_capacity(instances.len() * gpi);
        let mut held_layers = Vec::with_capacity(instances.len());
        let by_gpu = old
            .config_and_assignment
            .as_ref()
            .map(|(cfg, asg)| (cfg, asg.by_gpu()));
        for &inst in instances {
            let mut hull: Option<Range<u32>> = None;
            for s in 0..gpi {
                let slot = by_gpu.as_ref().and_then(|(old_cfg, by_gpu)| {
                    let gpu = GpuRef::new(inst, s as u8);
                    let k = by_gpu.binary_search_by_key(&gpu, |&(g, _)| g).ok()?;
                    let pos = by_gpu[k].1;
                    let cache_total = old
                        .cache_bytes_per_pipeline
                        .get(pos.pipeline as usize)
                        .copied()
                        .unwrap_or(0);
                    Some(OldSlot {
                        ctx: PositionContext::new(
                            model.num_layers,
                            old_cfg.pipeline,
                            pos.stage,
                            old_cfg.tensor,
                            pos.shard,
                        ),
                        pipeline: pos.pipeline,
                        cache_per_layer: cache_total / model.num_layers as u64,
                    })
                });
                if let Some(o) = &slot {
                    let l = o.ctx.layers();
                    hull = Some(match hull {
                        Some(h) => h.start.min(l.start)..h.end.max(l.end),
                        None => l,
                    });
                }
                old_slots.push(slot);
            }
            held_layers.push(hull.unwrap_or(0..0));
        }

        let mut cards: Vec<SkuCaps> = Vec::new();
        let card_of = instances
            .iter()
            .map(|&inst| {
                let Some(table) = skus else { return 0 };
                let caps = (table.caps_of)(inst);
                let same = |c: &SkuCaps| {
                    c.memory_bytes == caps.memory_bytes
                        && c.link_bandwidth.to_bits() == caps.link_bandwidth.to_bits()
                };
                cards.iter().position(same).unwrap_or_else(|| {
                    cards.push(caps);
                    cards.len() - 1
                })
            })
            .collect();

        Edges {
            layer_bytes,
            gpi,
            new,
            old: old_slots,
            held_layers,
            card_of,
            cards,
            skus,
        }
    }

    /// Reused bytes of placing GPU `s` of instance `r` at position `c`:
    /// the weights it already holds, plus its cache when `c`'s pipeline
    /// inherits the GPU's old pipeline.
    fn reuse(&self, r: usize, s: usize, c: usize) -> i64 {
        let Some(old) = &self.old[r * self.gpi + s] else {
            return 0;
        };
        let new = &self.new[c];
        let mut w = old.ctx.weight_overlap_bytes(&new.ctx, self.layer_bytes) as i64;
        if new.inherits == Some(old.pipeline) {
            w += old.ctx.weight_overlap_bytes(&new.ctx, old.cache_per_layer) as i64;
        }
        w
    }

    /// The edge weight of `reuse` bytes at position `c` on an instance of
    /// SKU card `card`: plain reuse without a table, else the
    /// capability-priced weight of [`kmatch::edge_weight`].
    fn price(&self, reuse: i64, card: usize, c: usize) -> i64 {
        let Some(table) = self.skus else {
            return reuse;
        };
        // Bytes the position needs that are *not* already on this GPU:
        // they cross the fabric, at the slower of the two links.
        let moved = (self.new[c].full - reuse).max(0) as u64;
        kmatch::edge_weight(
            reuse.max(0) as u64,
            moved,
            table.required_bytes_per_gpu,
            &table.src,
            &self.cards[card],
        )
    }

    /// The KM edge weight of GPU `s` of instance `r` at position `c`.
    fn weight(&self, r: usize, s: usize, c: usize) -> i64 {
        self.price(self.reuse(r, s, c), self.card_of[r], c)
    }

    /// The cell of an instance that reuses nothing, per (card, group),
    /// card-major. Its inner matrix repeats one weight down each column,
    /// and with no more columns than rows every column is matched, so the
    /// optimum is the column sum: no matching needed.
    fn fresh_cells(&self, groups: &[Range<usize>]) -> Vec<i64> {
        (0..self.cards.len().max(1))
            .flat_map(|card| {
                groups
                    .iter()
                    .map(move |g| g.clone().map(|c| self.price(0, card, c)).sum())
            })
            .collect()
    }

    /// The optimum of the inner matching between instance `r`'s GPUs and
    /// the positions `group`; `fresh` is the cell of a fresh instance of
    /// `r`'s card. `buf` holds the inner matrix between calls.
    fn cell(
        &self,
        r: usize,
        group: Range<usize>,
        fresh: i64,
        km: &mut KmScratch,
        buf: &mut Vec<i64>,
    ) -> i64 {
        let held = &self.held_layers[r];
        let overlaps = group.clone().any(|c| {
            let l = self.new[c].ctx.layers();
            l.start < held.end && held.start < l.end
        });
        if !overlaps {
            return fresh;
        }
        buf.clear();
        let mut any_reuse = false;
        for s in 0..self.gpi {
            for c in group.clone() {
                let reuse = self.reuse(r, s, c);
                any_reuse |= reuse != 0;
                buf.push(self.price(reuse, self.card_of[r], c));
            }
        }
        if !any_reuse {
            return fresh;
        }
        km.max_weight_total(self.gpi, group.len(), buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelSpec {
        ModelSpec::opt_6_7b()
    }

    fn instances(n: u64) -> Vec<InstanceId> {
        (0..n).map(InstanceId).collect()
    }

    fn old_state(cfg: ParallelConfig, insts: &[InstanceId], cache: u64) -> OldState {
        let gpus: Vec<GpuRef> = insts
            .iter()
            .flat_map(|&i| (0..4).map(move |s| GpuRef::new(i, s)))
            .collect();
        OldState {
            config_and_assignment: Some((cfg, DeviceAssignment::contiguous(&cfg, &gpus))),
            cache_bytes_per_pipeline: vec![cache; cfg.data as usize],
            progress_per_pipeline: vec![10; cfg.data as usize],
        }
    }

    #[test]
    fn fresh_fleet_maps_everything() {
        let cfg = ParallelConfig::new(1, 2, 2, 8);
        let out = map_devices(&model(), &cfg, &instances(1), 4, &OldState::default(), true);
        assert_eq!(out.assignment.len(), 4);
        assert_eq!(out.reused_bytes, 0);
        assert_eq!(out.inheritance, vec![None]);
    }

    #[test]
    fn identity_reconfiguration_reuses_everything() {
        let cfg = ParallelConfig::new(1, 2, 2, 8);
        let insts = instances(1);
        let old = old_state(cfg, &insts, 0);
        let out = map_devices(&model(), &cfg, &insts, 4, &old, true);
        // Maximum possible reuse: the whole per-layer model resident once.
        let full = model().layer_bytes() as i64 * model().num_layers as i64;
        assert_eq!(out.reused_bytes, full);
        // And the mapping is exactly the old placement.
        let (_, old_asg) = old.config_and_assignment.as_ref().unwrap();
        for (pos, gpu) in old_asg.iter() {
            assert_eq!(out.assignment.gpu_at(pos), Some(gpu), "{pos}");
        }
    }

    #[test]
    fn km_beats_identity_mapping_after_shift() {
        // Old config on instances {1,2}; new fleet is {2,3}: the identity
        // order would put early positions on instance 2's GPUs regardless
        // of what they held; KM must reuse instance 2's actual context.
        let cfg = ParallelConfig::new(1, 2, 4, 8);
        let old_insts = vec![InstanceId(1), InstanceId(2)];
        let old = old_state(cfg, &old_insts, 0);
        let new_insts = vec![InstanceId(2), InstanceId(3)];
        let km = map_devices(&model(), &cfg, &new_insts, 4, &old, true);
        let naive = map_devices(&model(), &cfg, &new_insts, 4, &old, false);
        assert!(
            km.reused_bytes >= naive.reused_bytes,
            "km {} vs naive {}",
            km.reused_bytes,
            naive.reused_bytes
        );
        // Instance 2 held stage 1 (positions 4..8 in canonical order);
        // KM must keep stage 1 on instance 2.
        let pos = MeshPosition::new(0, 1, 0);
        assert_eq!(km.assignment.gpu_at(pos).unwrap().instance, InstanceId(2));
    }

    #[test]
    fn inheritance_prefers_more_progress() {
        let cfg = ParallelConfig::new(2, 1, 4, 8);
        let insts = instances(2);
        let mut old = old_state(cfg, &insts, 1 << 20);
        old.progress_per_pipeline = vec![5, 90];
        // Shrink to one pipeline: it must inherit old pipeline 1.
        let new_cfg = ParallelConfig::new(1, 1, 4, 8);
        let out = map_devices(&model(), &new_cfg, &insts[..1], 4, &old, true);
        assert_eq!(out.inheritance, vec![Some(1)]);
    }

    #[test]
    fn cache_weight_pulls_inherited_pipeline_to_its_gpus() {
        // Two identical pipelines; pipeline 1 has all the cache+progress.
        // After shrinking to D=1 on the *second* instance only, the new
        // pipeline inherits old pipeline 1, whose GPUs live on instance 1.
        let cfg = ParallelConfig::new(2, 1, 4, 8);
        let insts = instances(2);
        let mut old = old_state(cfg, &insts, 1 << 30);
        old.progress_per_pipeline = vec![0, 64];
        let new_cfg = ParallelConfig::new(1, 1, 4, 8);
        // Both instances available: KM should pick instance 1's GPUs (the
        // inherited pipeline's) because of the cache bonus.
        let out = map_devices(&model(), &new_cfg, &insts, 4, &old, true);
        let gpu = out.assignment.gpu_at(MeshPosition::new(0, 0, 0)).unwrap();
        assert_eq!(gpu.instance, InstanceId(1));
    }

    #[test]
    fn figure_4b_shape_mapping_is_optimal_for_first_stage() {
        // Figure 4b: old (D=2,P=2,M=2) on 8 GPUs (2 instances), new
        // (D=2,P=3,M=1) needs 6 GPUs. u1 = old (0,0,1) overlaps most with
        // the new first stages; the overall matching must reuse >0 bytes
        // and assign all 6 positions.
        let old_cfg = ParallelConfig::new(2, 2, 2, 8);
        let insts = instances(2);
        let old = old_state(old_cfg, &insts, 1 << 24);
        let new_cfg = ParallelConfig::new(2, 3, 1, 8);
        let out = map_devices(&model(), &new_cfg, &insts, 4, &old, true);
        assert_eq!(out.assignment.len(), 6);
        assert!(out.reused_bytes > 0);
        assert_eq!(out.inheritance, vec![Some(0), Some(1)]);
    }

    #[test]
    #[should_panic(expected = "need 8 GPUs")]
    fn too_few_instances_panics() {
        let cfg = ParallelConfig::new(1, 2, 4, 8);
        map_devices(&model(), &cfg, &instances(1), 4, &OldState::default(), true);
    }

    // ---- Cross-SKU mapping -------------------------------------------

    const T4_CAPS: SkuCaps = SkuCaps {
        memory_bytes: 16 << 30,
        link_bandwidth: 6e9,
    };
    const L4_CAPS: SkuCaps = SkuCaps {
        memory_bytes: 24 << 30,
        link_bandwidth: 4.5e9,
    };

    #[test]
    fn uniform_sku_table_is_bit_identical_with_the_plain_mapper() {
        let cfg = ParallelConfig::new(2, 2, 2, 8);
        let insts = instances(3);
        let old = old_state(ParallelConfig::new(1, 2, 4, 8), &insts[..2], 1 << 20);
        let caps_of = |_: InstanceId| T4_CAPS;
        let table = SkuTable {
            caps_of: &caps_of,
            src: T4_CAPS,
            required_bytes_per_gpu: 4 << 30,
        };
        for use_km in [true, false] {
            let plain = map_devices(&model(), &cfg, &insts, 4, &old, use_km);
            let skued =
                map_devices_with_skus(&model(), &cfg, &insts, 4, &old, use_km, Some(&table));
            assert_eq!(plain.assignment, skued.assignment, "km={use_km}");
            assert_eq!(plain.reused_bytes, skued.reused_bytes);
            assert_eq!(plain.inheritance, skued.inheritance);
        }
    }

    #[test]
    fn positions_avoid_instances_whose_sku_cannot_hold_the_shard() {
        // Four instances, mesh needs two of them; instances 0 and 2 are a
        // tiny-memory SKU the shard does not fit. KM must place the whole
        // mesh on instances 1 and 3.
        let cfg = ParallelConfig::new(1, 2, 4, 8);
        let insts = instances(4);
        let tiny = SkuCaps {
            memory_bytes: 1 << 30,
            link_bandwidth: 6e9,
        };
        let caps_of = |i: InstanceId| if i.0.is_multiple_of(2) { tiny } else { L4_CAPS };
        let table = SkuTable {
            caps_of: &caps_of,
            src: T4_CAPS,
            required_bytes_per_gpu: 8 << 30,
        };
        let out = map_devices_with_skus(
            &model(),
            &cfg,
            &insts,
            4,
            &OldState::default(),
            true,
            Some(&table),
        );
        for (pos, gpu) in out.assignment.iter() {
            assert_eq!(gpu.instance.0 % 2, 1, "{pos} landed on a tiny SKU");
        }
    }

    #[test]
    fn slower_linked_sku_discounts_missing_bytes() {
        // Old mesh on instance 0 (T4 fabric). New fleet {0, 1} where
        // instance 1 sits behind a slower link: with equal reuse the
        // discount must keep the mesh on instance 0.
        let cfg = ParallelConfig::new(1, 2, 2, 8);
        let insts = vec![InstanceId(0), InstanceId(1)];
        let old = old_state(cfg, &insts[..1], 0);
        let caps_of = |i: InstanceId| if i.0 == 0 { T4_CAPS } else { L4_CAPS };
        let table = SkuTable {
            caps_of: &caps_of,
            src: T4_CAPS,
            required_bytes_per_gpu: 4 << 30,
        };
        let out = map_devices_with_skus(&model(), &cfg, &insts, 4, &old, true, Some(&table));
        for (pos, gpu) in out.assignment.iter() {
            assert_eq!(gpu.instance, InstanceId(0), "{pos} left the fast SKU");
        }
    }

    #[test]
    fn deterministic_output() {
        let cfg = ParallelConfig::new(2, 2, 2, 8);
        let insts = instances(3);
        let old = old_state(ParallelConfig::new(1, 2, 4, 8), &insts[..2], 1 << 20);
        let a = map_devices(&model(), &cfg, &insts, 4, &old, true);
        let b = map_devices(&model(), &cfg, &insts, 4, &old, true);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.reused_bytes, b.reused_bytes);
    }
}
