//! Algorithm 2: the progressive, memory-optimized migration planner.

use parallelism::stage_layers;

use crate::task::MigrationTask;
use crate::transfers::{compute_transfers, TransferSet};

/// Planner knobs (the §6.2 ablations toggle these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerOptions {
    /// Maximum allowed growth of any GPU's resident memory during the
    /// migration (`U_max` of Algorithm 2).
    pub u_max: u64,
    /// Use the memory-optimized layer ordering (`MemOptMigPlanner`).
    /// When false, layers migrate in index order regardless of buffers.
    pub memory_optimized: bool,
    /// Emit `StartStage` markers as soon as a stage's context is complete
    /// (progressive migration). When false, stages start only after the
    /// whole migration.
    pub progressive: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            u_max: 512 << 20,
            memory_optimized: true,
            progressive: true,
        }
    }
}

/// One step of the migration plan, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStep {
    /// Move all preserved KV-cache context (always first: losing weights
    /// costs a reload, losing cache costs recomputation of live requests).
    MigrateCache,
    /// Move one layer's weight pieces.
    MigrateLayer(u32),
    /// All context of new-configuration stage `p` is resident: its
    /// instances may resume serving (progressive migration overlap).
    StartStage(u32),
}

/// An ordered migration plan plus its memory footprint.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
    /// The layer order chosen by the planner.
    pub layer_order: Vec<u32>,
    /// The underlying byte flows.
    pub transfers: TransferSet,
    /// Largest growth of any GPU's resident memory at any point of the
    /// plan, relative to its starting point.
    pub peak_buffer_growth: u64,
    /// New-configuration pipeline depth (for consumers of `StartStage`).
    pub new_stages: u32,
}

impl MigrationPlan {
    /// Total bytes crossing the network.
    pub fn total_bytes_network(&self) -> u64 {
        self.transfers.total_network_bytes()
    }

    /// Total bytes loaded from storage.
    pub fn total_bytes_from_storage(&self) -> u64 {
        self.transfers.total_storage_bytes()
    }

    /// The plan of the same task with every cache zeroed and no pipeline
    /// inheriting: the weights-only plan a restart migrates. Weight
    /// transfers and [`TransferSet::layer_deltas`] read neither cache
    /// bytes nor inheritance, so it is this plan with its cache section
    /// dropped; its total is
    /// [`MigrationTimeline::weights_only_total`](crate::MigrationTimeline::weights_only_total).
    pub fn weights_only(mut self) -> MigrationPlan {
        self.transfers.cache.clear();
        self.transfers.cache_lost_bytes = 0;
        self
    }
}

/// Runs Algorithm 2 on `task`.
///
/// The returned plan starts with [`PlanStep::MigrateCache`], then migrates
/// layers in the chosen order, emitting [`PlanStep::StartStage`] markers as
/// stages complete (progressively, or all at the end when
/// [`PlannerOptions::progressive`] is off).
pub fn plan_migration(task: &MigrationTask, opts: &PlannerOptions) -> MigrationPlan {
    let transfers = compute_transfers(task);
    let layers_n = task.model.num_layers;
    let deltas = LayerDeltas::new(&transfers, layers_n);

    let layer_order = if opts.memory_optimized {
        memopt_order(&deltas, layers_n, opts.u_max)
    } else {
        (0..layers_n).collect()
    };

    // Walk the order, tracking per-GPU buffer growth and stage completion.
    let stages = task.new_config.pipeline;
    let mut usage = vec![0i64; deltas.gpus];
    let mut peak = 0i64;
    let mut steps = vec![PlanStep::MigrateCache];
    let stage_of: Vec<u32> = (0..stages)
        .flat_map(|p| stage_layers(layers_n, stages, p).map(move |_| p))
        .collect();
    let mut remaining: Vec<usize> = (0..stages)
        .map(|p| stage_layers(layers_n, stages, p).len())
        .collect();

    for &layer in &layer_order {
        steps.push(PlanStep::MigrateLayer(layer));
        for (u, d) in usage.iter_mut().zip(deltas.of(layer)) {
            *u += d;
            peak = peak.max(*u);
        }
        if opts.progressive {
            // A stage starts the moment its last layer lands.
            let p = stage_of[layer as usize];
            remaining[p as usize] -= 1;
            if remaining[p as usize] == 0 {
                steps.push(PlanStep::StartStage(p));
            }
        }
    }
    if !opts.progressive {
        for p in 0..stages {
            steps.push(PlanStep::StartStage(p));
        }
    }

    MigrationPlan {
        steps,
        layer_order,
        transfers,
        peak_buffer_growth: peak.max(0) as u64,
        new_stages: stages,
    }
}

/// [`TransferSet::layer_deltas`] as one dense layer-major matrix: row
/// `layer` holds every GPU's delta when that layer migrates, one column
/// per `layer_deltas` key (all-zero rows included).
struct LayerDeltas {
    gpus: usize,
    by_layer: Vec<i64>,
}

impl LayerDeltas {
    fn new(transfers: &TransferSet, layers_n: u32) -> Self {
        let gpus = transfers.layer_deltas.len();
        let mut by_layer = vec![0i64; gpus * layers_n as usize];
        for (j, row) in transfers.layer_deltas.values().enumerate() {
            for layer in 0..layers_n as usize {
                by_layer[layer * gpus + j] = row[layer];
            }
        }
        LayerDeltas { gpus, by_layer }
    }

    /// Every GPU's delta when `layer` migrates.
    fn of(&self, layer: u32) -> &[i64] {
        let start = layer as usize * self.gpus;
        &self.by_layer[start..start + self.gpus]
    }
}

/// `MemOptMigPlanner` of Algorithm 2: first admit, in index order, the
/// layers whose migration keeps every GPU's buffer growth under `u_max`;
/// then append the deferred layers greedily, each time picking the layer
/// minimizing the resulting maximum buffer usage.
fn memopt_order(deltas: &LayerDeltas, layers_n: u32, u_max: u64) -> Vec<u32> {
    let mut usage = vec![0i64; deltas.gpus];
    let mut order = Vec::with_capacity(layers_n as usize);
    let mut deferred: Vec<u32> = Vec::new();

    let would_peak = |usage: &[i64], layer: u32| {
        usage
            .iter()
            .zip(deltas.of(layer))
            .map(|(u, d)| u + d)
            .max()
            .unwrap_or(0)
    };
    let apply = |usage: &mut [i64], layer: u32| {
        for (u, d) in usage.iter_mut().zip(deltas.of(layer)) {
            *u += d;
        }
    };

    for layer in 0..layers_n {
        if would_peak(&usage, layer) <= u_max as i64 {
            apply(&mut usage, layer);
            order.push(layer);
        } else {
            deferred.push(layer);
        }
    }
    // Greedy min-max completion (Algorithm 2, lines 18-21): the first
    // deferred layer of least resulting peak. A later layer wins only by
    // peaking strictly lower, so its scan stops at the best peak so far.
    let peak_under = |usage: &[i64], layer: u32, bound: i64| {
        let mut peak = None;
        for (u, d) in usage.iter().zip(deltas.of(layer)) {
            if u + d >= bound {
                return None;
            }
            peak = peak.max(Some(u + d));
        }
        let peak = peak.unwrap_or(0);
        (peak < bound).then_some(peak)
    };
    while let Some(&first) = deferred.first() {
        let mut best = (0, would_peak(&usage, first));
        for (idx, &layer) in deferred.iter().enumerate().skip(1) {
            if let Some(peak) = peak_under(&usage, layer, best.1) {
                best = (idx, peak);
            }
        }
        let layer = deferred.remove(best.0);
        apply(&mut usage, layer);
        order.push(layer);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::DeviceAssignment;
    use cloudsim::{GpuRef, InstanceId};
    use llmsim::ModelSpec;
    use parallelism::ParallelConfig;

    fn gpus(n: u64) -> Vec<GpuRef> {
        (0..n)
            .flat_map(|i| (0..4u8).map(move |s| GpuRef::new(InstanceId(i), s)))
            .collect()
    }

    fn reconfig_task(old: ParallelConfig, new: ParallelConfig, n_inst: u64) -> MigrationTask {
        let g = gpus(n_inst);
        MigrationTask {
            model: ModelSpec::opt_6_7b(),
            old_config: old,
            new_config: new,
            old_assignment: DeviceAssignment::contiguous(&old, &g),
            new_assignment: DeviceAssignment::contiguous(&new, &g),
            cache_bytes_per_pipeline: vec![64 << 20; old.data as usize],
            pipeline_inheritance: (0..new.data).map(|d| (d < old.data).then_some(d)).collect(),
        }
    }

    #[test]
    fn plan_contains_every_layer_exactly_once() {
        let task = reconfig_task(
            ParallelConfig::new(1, 2, 2, 8),
            ParallelConfig::new(1, 4, 1, 8),
            1,
        );
        let plan = plan_migration(&task, &PlannerOptions::default());
        let mut layers: Vec<u32> = plan.layer_order.clone();
        layers.sort_unstable();
        assert_eq!(layers, (0..32).collect::<Vec<u32>>());
        assert_eq!(plan.steps[0], PlanStep::MigrateCache);
    }

    #[test]
    fn progressive_plan_starts_all_stages() {
        let task = reconfig_task(
            ParallelConfig::new(1, 2, 2, 8),
            ParallelConfig::new(1, 4, 1, 8),
            1,
        );
        let plan = plan_migration(&task, &PlannerOptions::default());
        let starts: Vec<u32> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::StartStage(p) => Some(*p),
                _ => None,
            })
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn progressive_starts_before_migration_ends() {
        let task = reconfig_task(
            ParallelConfig::new(1, 2, 2, 8),
            ParallelConfig::new(1, 4, 1, 8),
            1,
        );
        let plan = plan_migration(&task, &PlannerOptions::default());
        let first_start = plan
            .steps
            .iter()
            .position(|s| matches!(s, PlanStep::StartStage(_)))
            .unwrap();
        assert!(
            first_start < plan.steps.len() - 1,
            "a stage must start before the last step"
        );

        let non_prog = plan_migration(
            &task,
            &PlannerOptions {
                progressive: false,
                ..PlannerOptions::default()
            },
        );
        let first_np = non_prog
            .steps
            .iter()
            .position(|s| matches!(s, PlanStep::StartStage(_)))
            .unwrap();
        assert_eq!(
            first_np,
            non_prog.steps.len() - task.new_config.pipeline as usize,
            "non-progressive starts everything at the end"
        );
    }

    #[test]
    fn memopt_respects_buffer_limit_when_naive_does_not() {
        // Shrink 2 pipelines to 1 on fewer GPUs: heavy inflow to survivors.
        let old = ParallelConfig::new(1, 1, 4, 8);
        let new = ParallelConfig::new(1, 2, 2, 8);
        let old_g = gpus(1);
        // New assignment deliberately reuses only two old GPUs and adds two
        // fresh ones, creating asymmetric inflows.
        let new_g = vec![
            GpuRef::new(InstanceId(0), 0),
            GpuRef::new(InstanceId(1), 0),
            GpuRef::new(InstanceId(0), 1),
            GpuRef::new(InstanceId(1), 1),
        ];
        let task = MigrationTask {
            model: ModelSpec::opt_6_7b(),
            old_config: old,
            new_config: new,
            old_assignment: DeviceAssignment::contiguous(&old, &old_g),
            new_assignment: DeviceAssignment::contiguous(&new, &new_g),
            cache_bytes_per_pipeline: vec![0],
            pipeline_inheritance: vec![Some(0)],
        };
        let naive = plan_migration(
            &task,
            &PlannerOptions {
                memory_optimized: false,
                ..PlannerOptions::default()
            },
        );
        let opt = plan_migration(&task, &PlannerOptions::default());
        assert!(
            opt.peak_buffer_growth <= naive.peak_buffer_growth,
            "memopt {} vs naive {}",
            opt.peak_buffer_growth,
            naive.peak_buffer_growth
        );
    }

    #[test]
    fn same_config_plan_is_cheap() {
        let cfg = ParallelConfig::new(1, 2, 2, 8);
        let task = reconfig_task(cfg, cfg, 1);
        let plan = plan_migration(&task, &PlannerOptions::default());
        assert_eq!(plan.total_bytes_network(), 0);
        assert_eq!(plan.peak_buffer_growth, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::task::DeviceAssignment;
    use cloudsim::{GpuRef, InstanceId};
    use llmsim::ModelSpec;
    use parallelism::ParallelConfig;
    use proptest::prelude::*;

    fn config_strategy() -> impl Strategy<Value = ParallelConfig> {
        (1u32..=2, 1u32..=4, prop::sample::select(vec![1u32, 2, 4]))
            .prop_map(|(d, p, m)| ParallelConfig::new(d, p, m, 8))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn plans_are_complete_and_deterministic(
            old in config_strategy(),
            new in config_strategy(),
        ) {
            let total = old.total_gpus().max(new.total_gpus());
            let gpus: Vec<GpuRef> = (0..total.div_ceil(4) as u64)
                .flat_map(|i| (0..4u8).map(move |s| GpuRef::new(InstanceId(i), s)))
                .collect();
            let task = MigrationTask {
                model: ModelSpec::opt_6_7b(),
                old_config: old,
                new_config: new,
                old_assignment: DeviceAssignment::contiguous(&old, &gpus),
                new_assignment: DeviceAssignment::contiguous(&new, &gpus),
                cache_bytes_per_pipeline: vec![32 << 20; old.data as usize],
                pipeline_inheritance: (0..new.data)
                    .map(|d| (d < old.data).then_some(d))
                    .collect(),
            };
            let a = plan_migration(&task, &PlannerOptions::default());
            let b = plan_migration(&task, &PlannerOptions::default());
            prop_assert_eq!(a.layer_order.clone(), b.layer_order.clone());
            let mut layers = a.layer_order.clone();
            layers.sort_unstable();
            prop_assert_eq!(layers, (0..32).collect::<Vec<u32>>());
            // Every stage starts exactly once.
            let starts = a.steps.iter().filter(|s| matches!(s, PlanStep::StartStage(_))).count();
            prop_assert_eq!(starts, new.pipeline as usize);
        }
    }
}
