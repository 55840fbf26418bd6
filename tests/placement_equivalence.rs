//! The device mapper and the Algorithm 2 planner against their reference
//! implementations (`common::reference`, the straightforward forms that
//! re-scan the old assignment per edge and keep planner state in maps).
//!
//! Cases draw a paper model, 4- or 8-GPU instances, an old mesh with
//! shuffled placement (sometimes with preempted instances removed, or no
//! old mesh at all), a new mesh that shrinks or grows D, a fleet mixing
//! context-holding, fresh and spare instances, an `SkuTable` of 1–3 SKUs
//! whose memory requirement can forbid a SKU, and zero, full or
//! Partial-scaled caches (and, for the timelines, caches so small that
//! their pieces weigh zero bytes). Every field of every
//! `DeviceMapOutcome`, `TransferSet`, `MigrationPlan` and
//! `MigrationTimeline` must be bit-identical, the order-free
//! `TransferSet::migration_time` must equal the evaluated total, and the
//! weights-only plan and floor triage derives from a plan must equal the
//! plan of the zeroed task. A last property holds `DeviceAssignment`'s
//! per-instance counts to a scan of its bindings.

mod common;

use cloudsim::{ColdStorage, GpuRef, InstanceId, NetFabric};
use common::reference::{
    compute_transfers_reference, evaluate_plan_reference, map_devices_with_skus_reference,
    plan_migration_reference,
};
use kmatch::SkuCaps;
use llmsim::{MemoryModel, ModelSpec};
use migration::transfers::{compute_transfers, Transfer, TransferSet, TransferSource};
use migration::{
    evaluate_plan, plan_migration, DeviceAssignment, MigrationPlan, MigrationTask, PlannerOptions,
};
use parallelism::{MeshPosition, ParallelConfig};
use proptest::prelude::*;
use spotserve::devicemap::{map_devices_with_skus, DeviceMapOutcome, OldState, SkuTable};

const CASES: u32 = 128;

/// `map_devices_with_skus` or its reference.
type Mapper = fn(
    &ModelSpec,
    &ParallelConfig,
    &[InstanceId],
    u8,
    &OldState,
    bool,
    Option<&SkuTable<'_>>,
) -> DeviceMapOutcome;

/// SplitMix64: the fleet details of a case, drawn from its seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const T4: SkuCaps = SkuCaps {
    memory_bytes: 16 << 30,
    link_bandwidth: 6e9,
};
const L4: SkuCaps = SkuCaps {
    memory_bytes: 24 << 30,
    link_bandwidth: 4.5e9,
};
const A100: SkuCaps = SkuCaps {
    memory_bytes: 40 << 30,
    link_bandwidth: 40e9,
};
const H100: SkuCaps = SkuCaps {
    memory_bytes: 80 << 30,
    link_bandwidth: 100e9,
};

/// One reconfiguration: the old mesh and its survivors, the new mesh and
/// the fleet offered to it, and the SKU cards of that fleet.
#[derive(Debug)]
struct Case {
    model: ModelSpec,
    gpi: u8,
    old: OldState,
    new_config: ParallelConfig,
    instances: Vec<InstanceId>,
    /// SKU cards; instance `i` has card `i mod len`. Empty: no table.
    cards: Vec<SkuCaps>,
    src: SkuCaps,
    required_bytes_per_gpu: u64,
    /// The fleet's GPUs in a shuffled order, for a placement KM did not
    /// choose.
    shuffled_gpus: Vec<GpuRef>,
}

impl Case {
    /// `cache_mode`: 0 = no cache, 1 = full caches, 2 = the full caches
    /// scaled by a Partial-triage fraction, 3 = caches under 64 bytes per
    /// layer, whose pieces mostly weigh zero bytes.
    fn draw(model: usize, gpi: u8, skus: usize, cache_mode: usize, seed: u64) -> Case {
        let mut r = Draw(seed);
        let model = ModelSpec::paper_models()[model].clone();
        let tensors: &[u32] = if gpi == 8 { &[1, 2, 4, 8] } else { &[1, 2, 4] };
        let old_cfg = ParallelConfig::new(
            1 + r.below(3) as u32,
            1 + r.below(4) as u32,
            r.pick(tensors),
            8,
        );
        let new_config = ParallelConfig::new(
            1 + r.below(4) as u32,
            1 + r.below(4) as u32,
            r.pick(tensors),
            8,
        );

        let mut ids: Vec<InstanceId> = (0..48).map(InstanceId).collect();
        r.shuffle(&mut ids);
        let mut ids = ids.into_iter();
        let per_instance = |gpus: u32| gpus.div_ceil(gpi as u32) as usize;

        // The old mesh, contiguous over its instances' GPUs in a possibly
        // shuffled order; some holders may since have been preempted.
        let holders: Vec<InstanceId> = ids
            .by_ref()
            .take(per_instance(old_cfg.total_gpus()))
            .collect();
        let mut old_gpus: Vec<GpuRef> = holders
            .iter()
            .flat_map(|&i| (0..gpi).map(move |s| GpuRef::new(i, s)))
            .collect();
        if r.chance(50) {
            r.shuffle(&mut old_gpus);
        }
        let mut old_asg = DeviceAssignment::contiguous(&old_cfg, &old_gpus);
        let mut survivors = holders.clone();
        if r.chance(40) {
            for _ in 0..1 + r.below(2) {
                if survivors.len() > 1 {
                    let gone = survivors.remove(r.below(survivors.len() as u64) as usize);
                    old_asg.remove_instance(gone);
                }
            }
        }

        let full: Vec<u64> = (0..old_cfg.data)
            .map(|_| (1 << 20) + r.below(1 << 32))
            .collect();
        let fraction = 0.3 + 0.5 * (r.below(1000) as f64 / 1000.0);
        let tiny = 64 * model.num_layers as u64;
        let cache_bytes_per_pipeline = match cache_mode {
            0 => vec![0; full.len()],
            1 => full,
            2 => full.iter().map(|&b| (b as f64 * fraction) as u64).collect(),
            _ => full.iter().map(|&b| 1 + b % tiny).collect(),
        };
        let old = if r.chance(15) {
            OldState::default()
        } else {
            OldState {
                config_and_assignment: Some((old_cfg, old_asg)),
                progress_per_pipeline: (0..old_cfg.data).map(|_| r.below(4) as u32).collect(),
                cache_bytes_per_pipeline,
            }
        };

        // The fleet: survivors (maybe not all), fresh instances up to the
        // new mesh, and up to two spares.
        let mut instances: Vec<InstanceId> =
            survivors.into_iter().filter(|_| r.chance(85)).collect();
        let need = per_instance(new_config.total_gpus());
        let fresh = need.saturating_sub(instances.len()) + r.below(3) as usize;
        instances.extend(ids.by_ref().take(fresh));
        r.shuffle(&mut instances);

        let mut cards = vec![T4, L4, A100, H100];
        r.shuffle(&mut cards);
        cards.truncate(skus);
        let src = r.pick(&[T4, L4, A100, H100]);
        let required_bytes_per_gpu = r.pick(&[
            MemoryModel::default().required_bytes_per_gpu(
                &model,
                new_config.pipeline,
                new_config.tensor,
            ),
            8 << 30,
            20 << 30,
            30 << 30,
        ]);

        let mut shuffled_gpus: Vec<GpuRef> = instances
            .iter()
            .flat_map(|&i| (0..gpi).map(move |s| GpuRef::new(i, s)))
            .collect();
        r.shuffle(&mut shuffled_gpus);

        Case {
            model,
            gpi,
            old,
            new_config,
            instances,
            cards,
            src,
            required_bytes_per_gpu,
            shuffled_gpus,
        }
    }

    /// Maps the fleet with `map`, under the case's SKU table if it has one.
    fn map_with(&self, use_km: bool, map: Mapper) -> DeviceMapOutcome {
        let caps_of = |id: InstanceId| self.cards[id.0 as usize % self.cards.len()];
        let table = (!self.cards.is_empty()).then_some(SkuTable {
            caps_of: &caps_of,
            src: self.src,
            required_bytes_per_gpu: self.required_bytes_per_gpu,
        });
        map(
            &self.model,
            &self.new_config,
            &self.instances,
            self.gpi,
            &self.old,
            use_km,
            table.as_ref(),
        )
    }

    /// The migration task toward `new_assignment`: with the mapper's
    /// inheritance, or with none (a restart's weights-only plan).
    fn task(&self, outcome: &DeviceMapOutcome, contiguous: bool, inherit: bool) -> MigrationTask {
        let (old_config, old_assignment) = self
            .old
            .config_and_assignment
            .clone()
            .unwrap_or((self.new_config, DeviceAssignment::new()));
        let new_assignment = if contiguous {
            DeviceAssignment::contiguous(&self.new_config, &self.shuffled_gpus)
        } else {
            outcome.assignment.clone()
        };
        MigrationTask {
            model: self.model.clone(),
            old_config,
            new_config: self.new_config,
            old_assignment,
            new_assignment,
            cache_bytes_per_pipeline: self.old.cache_bytes_per_pipeline.clone(),
            pipeline_inheritance: if inherit {
                outcome.inheritance.clone()
            } else {
                vec![None; self.new_config.data as usize]
            },
        }
    }
}

fn same_transfers(a: &TransferSet, b: &TransferSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.cache, &b.cache);
    prop_assert_eq!(a.cache_lost_bytes, b.cache_lost_bytes);
    prop_assert_eq!(&a.layers, &b.layers);
    prop_assert_eq!(&a.layer_deltas, &b.layer_deltas);
    Ok(())
}

fn same_plans(a: &MigrationPlan, b: &MigrationPlan) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.steps, &b.steps);
    prop_assert_eq!(&a.layer_order, &b.layer_order);
    prop_assert_eq!(a.peak_buffer_growth, b.peak_buffer_growth);
    prop_assert_eq!(a.new_stages, b.new_stages);
    same_transfers(&a.transfers, &b.transfers)
}

/// Planner option sets: the defaults, each ablation (the
/// `-MigrationPlanner` ablation migrates layers in index order, all at
/// once), and tight buffers that defer layers to the greedy completion.
fn planner_options(options: usize) -> PlannerOptions {
    let defaults = PlannerOptions::default();
    match options {
        0 => defaults,
        1 => PlannerOptions {
            memory_optimized: false,
            ..defaults
        },
        2 => PlannerOptions {
            progressive: false,
            ..defaults
        },
        3 => PlannerOptions {
            memory_optimized: false,
            progressive: false,
            ..defaults
        },
        4 => PlannerOptions {
            u_max: 64 << 20,
            ..defaults
        },
        _ => PlannerOptions {
            u_max: 0,
            ..defaults
        },
    }
}

/// The network fabrics the serving system plans over, one per SKU.
const NETS: [NetFabric; 4] = [
    NetFabric::g4dn_default(),
    NetFabric::pcie_l4(),
    NetFabric::nvlink_a100(),
    NetFabric::nvlink_h100(),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn device_map_outcomes_equal_the_reference(
        model in 0usize..3,
        gpi in prop::sample::select(vec![4u8, 8]),
        skus in 0usize..4,
        cache_mode in 0usize..4,
        use_km in prop::sample::select(vec![true, true, true, false]),
        seed in 0u64..u64::MAX,
    ) {
        let case = Case::draw(model, gpi, skus, cache_mode, seed);
        let fast = case.map_with(use_km, map_devices_with_skus);
        let slow = case.map_with(use_km, map_devices_with_skus_reference);
        prop_assert_eq!(&fast.assignment, &slow.assignment);
        prop_assert_eq!(&fast.inheritance, &slow.inheritance);
        prop_assert_eq!(fast.reused_bytes, slow.reused_bytes);
    }

    #[test]
    fn transfer_sets_equal_the_reference(
        model in 0usize..3,
        gpi in prop::sample::select(vec![4u8, 8]),
        skus in 0usize..4,
        cache_mode in 0usize..4,
        shape in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let case = Case::draw(model, gpi, skus, cache_mode, seed);
        let outcome = case.map_with(true, map_devices_with_skus_reference);
        // Shapes: the KM placement with and without inheritance, and a
        // shuffled placement KM did not choose, with and without.
        let task = case.task(&outcome, shape >= 2, shape % 2 == 0);
        same_transfers(&compute_transfers(&task), &compute_transfers_reference(&task))?;
    }

    #[test]
    fn migration_plans_equal_the_reference(
        model in 0usize..3,
        gpi in prop::sample::select(vec![4u8, 8]),
        skus in 0usize..4,
        cache_mode in 0usize..4,
        options in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let case = Case::draw(model, gpi, skus, cache_mode, seed);
        let outcome = case.map_with(true, map_devices_with_skus_reference);
        let task = case.task(&outcome, seed % 3 == 0, seed % 5 != 0);
        let opts = planner_options(options);
        let fast = plan_migration(&task, &opts);
        let slow = plan_migration_reference(&task, &opts);
        same_plans(&fast, &slow)?;
    }

    /// `evaluate_plan` equals the reference evaluator field by field, and
    /// the order-free `migration_time` equals its total, under every
    /// planner option set and fabric.
    #[test]
    fn timelines_equal_the_reference_and_the_order_free_total(
        model in 0usize..3,
        gpi in prop::sample::select(vec![4u8, 8]),
        skus in 0usize..4,
        cache_mode in 0usize..4,
        variant in 0usize..24,
        seed in 0u64..u64::MAX,
    ) {
        // Six planner option sets on each of four fabrics.
        let (options, net) = (variant % 6, variant / 6);
        let case = Case::draw(model, gpi, skus, cache_mode, seed);
        let outcome = case.map_with(true, map_devices_with_skus_reference);
        let task = case.task(&outcome, seed % 3 == 0, seed % 5 != 0);
        let plan = plan_migration_reference(&task, &planner_options(options));
        let (net, storage) = (NETS[net], ColdStorage::default());
        let tl = evaluate_plan(&plan, &net, &storage);
        prop_assert_eq!(&tl, &evaluate_plan_reference(&plan, &net, &storage));
        prop_assert_eq!(plan.transfers.migration_time(&net, &storage), tl.total);
        prop_assert_eq!(compute_transfers(&task).migration_time(&net, &storage), tl.total);
    }

    /// Triage's weights-only plan and floor, derived from the full plan,
    /// equal the reference plan of the zeroed task (no cache, no
    /// inheritance) and its timeline, field by field.
    #[test]
    fn weights_only_plans_equal_the_zeroed_task_plan(
        model in 0usize..3,
        gpi in prop::sample::select(vec![4u8, 8]),
        skus in 0usize..4,
        cache_mode in 1usize..4,
        variant in 0usize..24,
        seed in 0u64..u64::MAX,
    ) {
        // Six planner option sets on each of four fabrics.
        let (options, net) = (variant % 6, variant / 6);
        let case = Case::draw(model, gpi, skus, cache_mode, seed);
        let outcome = case.map_with(true, map_devices_with_skus_reference);
        let task = case.task(&outcome, seed % 3 == 0, true);
        let opts = planner_options(options);
        let zeroed = MigrationTask {
            cache_bytes_per_pipeline: vec![0; task.cache_bytes_per_pipeline.len()],
            pipeline_inheritance: vec![None; task.pipeline_inheritance.len()],
            ..task.clone()
        };
        let zero_plan = plan_migration_reference(&zeroed, &opts);
        let (net, storage) = (NETS[net], ColdStorage::default());
        let zero_tl = evaluate_plan_reference(&zero_plan, &net, &storage);

        let plan = plan_migration(&task, &opts);
        let floor = evaluate_plan(&plan, &net, &storage).weights_only_total();
        prop_assert_eq!(floor, zero_tl.total);
        let weights_only = plan.weights_only();
        same_plans(&weights_only, &zero_plan)?;
        prop_assert_eq!(&evaluate_plan(&weights_only, &net, &storage), &zero_tl);
    }
}

/// A step's latency follows its flows, not their bytes: a zero-byte
/// same-instance flow pays the local bus latency, a zero-byte flow across
/// instances the NIC's, and a storage load none.
#[test]
fn zero_byte_flows_still_pay_their_latency() {
    let gpu = |i: u64, s: u8| GpuRef::new(InstanceId(i), s);
    let cfg = ParallelConfig::new(1, 1, 2, 8);
    let task = MigrationTask::fresh_start(&ModelSpec::opt_6_7b(), cfg, &[(InstanceId(0), 2)]);
    let mut plan = plan_migration(&task, &PlannerOptions::default());
    let (net, storage) = (NetFabric::g4dn_default(), ColdStorage::default());
    let flow = |source, dest| Transfer {
        source,
        dest,
        bytes: 0,
    };
    let cases = [
        (
            vec![flow(TransferSource::Gpu(gpu(0, 0)), gpu(0, 1))],
            net.intra_latency,
        ),
        (
            vec![flow(TransferSource::Gpu(gpu(0, 0)), gpu(1, 0))],
            net.inter_latency,
        ),
        (
            vec![
                flow(TransferSource::Gpu(gpu(0, 0)), gpu(0, 1)),
                flow(TransferSource::Gpu(gpu(0, 1)), gpu(1, 1)),
            ],
            net.inter_latency,
        ),
        (
            vec![flow(TransferSource::Storage, gpu(0, 0))],
            simkit::SimDuration::ZERO,
        ),
    ];
    for (cache, latency) in cases {
        plan.transfers.cache = cache;
        let tl = evaluate_plan(&plan, &net, &storage);
        assert_eq!(tl, evaluate_plan_reference(&plan, &net, &storage));
        assert_eq!(tl.cache_done, latency, "{:?}", plan.transfers.cache);
        assert_eq!(plan.transfers.migration_time(&net, &storage), tl.total);
        assert_eq!(tl.weights_only_total(), tl.total - latency);
    }
}

/// `asg`'s instances by a scan of its bindings, sorted and deduplicated.
fn scanned_instances(asg: &DeviceAssignment) -> Vec<InstanceId> {
    let mut out: Vec<InstanceId> = asg.iter().map(|(_, g)| g.instance).collect();
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// `DeviceAssignment` keeps a count of bound positions per instance
    /// beside its map. After any sequence of inserts (fresh or rebinding a
    /// position), instance and pipeline removals, contiguous rebuilds and
    /// collections, `instances()` and `contains_instance` must answer as a
    /// scan of the bindings does.
    #[test]
    fn assignment_instance_counts_equal_a_scan(
        ops in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let mut r = Draw(seed);
        let gpu = |r: &mut Draw| GpuRef::new(InstanceId(r.below(6)), r.below(4) as u8);
        let mut asg = DeviceAssignment::new();
        for _ in 0..ops {
            match r.below(6) {
                0 | 1 => {
                    let pos = MeshPosition::new(
                        r.below(3) as u32,
                        r.below(3) as u32,
                        r.below(2) as u32,
                    );
                    let g = gpu(&mut r);
                    asg.insert(pos, g);
                }
                2 => asg.remove_instance(InstanceId(r.below(6))),
                3 => asg.remove_pipeline(r.below(3) as u32),
                4 => {
                    let cfg = ParallelConfig::new(
                        1 + r.below(2) as u32,
                        1 + r.below(2) as u32,
                        1 + r.below(2) as u32,
                        1,
                    );
                    let gpus: Vec<GpuRef> =
                        (0..cfg.total_gpus()).map(|_| gpu(&mut r)).collect();
                    asg = DeviceAssignment::contiguous(&cfg, &gpus);
                }
                _ => {
                    // Rebuild from the bindings, with a few rebinding
                    // duplicates: a later binding of a position wins.
                    let mut pairs: Vec<(MeshPosition, GpuRef)> = asg.iter().collect();
                    if let Some(&(pos, _)) = pairs.first() {
                        pairs.push((pos, gpu(&mut r)));
                    }
                    asg = pairs.into_iter().collect();
                }
            }
            let scanned = scanned_instances(&asg);
            prop_assert_eq!(asg.instances(), scanned.clone());
            for id in (0..7).map(InstanceId) {
                prop_assert_eq!(asg.contains_instance(id), scanned.contains(&id), "{}", id);
            }
            let rebuilt: DeviceAssignment = asg.iter().collect();
            prop_assert_eq!(&rebuilt, &asg);
        }
    }
}

/// The draws above reach every regime the properties are meant to cover:
/// reuse and no reuse, forbidden SKUs, lost and preserved caches, storage
/// fallback, shrinking and growing D, and deferred layers.
#[test]
fn case_draws_reach_every_regime() {
    let mut seen = [false; 8];
    for seed in 0..256u64 {
        let case = Case::draw(
            (seed % 3) as usize,
            [4, 8][(seed / 3 % 2) as usize],
            (seed % 4) as usize,
            (seed / 4 % 3) as usize,
            seed,
        );
        let outcome = case.map_with(true, map_devices_with_skus);
        seen[0] |= outcome.reused_bytes > 0;
        seen[1] |= outcome.reused_bytes < 0 && !case.cards.is_empty();
        let task = case.task(&outcome, false, true);
        let plan = plan_migration(
            &task,
            &PlannerOptions {
                u_max: 64 << 20,
                ..PlannerOptions::default()
            },
        );
        seen[2] |= plan.transfers.cache_lost_bytes > 0;
        seen[3] |= !plan.transfers.cache.is_empty();
        seen[4] |= plan.total_bytes_from_storage() > 0 && case.old.config_and_assignment.is_some();
        if let Some((old_cfg, _)) = &case.old.config_and_assignment {
            seen[5] |= case.new_config.data < old_cfg.data;
            seen[6] |= case.new_config.data > old_cfg.data;
        }
        seen[7] |= plan.layer_order.windows(2).any(|w| w[0] > w[1]);
    }
    assert_eq!(
        seen, [true; 8],
        "regimes: reuse, forbidden, cache lost, cache moved, storage, shrink, grow, deferred"
    );
}

/// Tiny caches split into pieces that round to zero bytes, within an
/// instance and across instances. Such a piece moves nothing, so it is no
/// transfer: every cache transfer carries bytes, in the kernel and the
/// reference, and the same task with its caches scaled up moves the
/// skipped pieces as well, losing the same pipelines' caches.
#[test]
fn tiny_caches_yield_no_zero_byte_cache_transfers() {
    let mut skipped = [false; 2];
    for seed in 0..256u64 {
        let case = Case::draw(
            (seed % 3) as usize,
            [4, 8][(seed / 3 % 2) as usize],
            (seed % 4) as usize,
            3,
            seed,
        );
        let outcome = case.map_with(true, map_devices_with_skus);
        let task = case.task(&outcome, false, true);
        let tiny = compute_transfers(&task);
        let reference = compute_transfers_reference(&task);
        assert!(
            tiny.cache
                .iter()
                .chain(&reference.cache)
                .all(|f| f.bytes > 0),
            "seed {seed}: a zero-byte cache transfer"
        );
        let mut big = task.clone();
        for bytes in &mut big.cache_bytes_per_pipeline {
            *bytes <<= 20;
        }
        let scaled = compute_transfers(&big);
        assert_eq!(scaled.cache_lost_bytes, tiny.cache_lost_bytes << 20);
        for flow in &scaled.cache {
            let kept = tiny
                .cache
                .iter()
                .any(|f| f.source == flow.source && f.dest == flow.dest);
            if let (false, TransferSource::Gpu(src)) = (kept, flow.source) {
                skipped[usize::from(src.instance != flow.dest.instance)] = true;
            }
        }
    }
    assert_eq!(
        skipped, [true; 2],
        "skipped zero-byte pieces: same instance, across"
    );
}
