//! Evaluating a migration plan against the network and storage models.

use cloudsim::{ColdStorage, InstanceId, NetFabric};
use simkit::SimDuration;

use crate::planner::{MigrationPlan, PlanStep};
use crate::transfers::{Transfer, TransferSet, TransferSource};

/// When each part of the migration completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationTimeline {
    /// Offset at which the preserved cache is fully moved.
    pub cache_done: SimDuration,
    /// Offset at which each new-configuration stage may resume serving.
    pub stage_ready: Vec<SimDuration>,
    /// Offset at which every transfer has finished (`T_mig`).
    pub total: SimDuration,
    /// Bytes moved across the network.
    pub network_bytes: u64,
    /// Bytes loaded from storage.
    pub storage_bytes: u64,
}

impl MigrationTimeline {
    /// The effective serving pause of a *progressive* migration: the first
    /// batch can flow through stage `p` no earlier than `stage_ready[p]`,
    /// but reaches stage `p` only `p · stage_step` after entering the
    /// pipeline, so the pause is `max_p (ready_p − p·stage_step)` — the
    /// paper's "ideally ... reduced into the cost of a single stage's
    /// context transferring" (§3.4).
    pub fn effective_pause(&self, stage_step: SimDuration) -> SimDuration {
        self.stage_ready
            .iter()
            .enumerate()
            .map(|(p, &ready)| ready.saturating_sub(stage_step * p as u64))
            .max()
            .unwrap_or(self.total)
    }

    /// `T_mig` of this plan's [weights-only](MigrationPlan::weights_only)
    /// form: every step but the cache step, which
    /// [`plan_migration`](crate::plan_migration) puts first.
    pub fn weights_only_total(&self) -> SimDuration {
        self.total - self.cache_done
    }
}

/// One instance's bytes in a step: out of and into its NIC, over its
/// local bus, and in from storage.
#[derive(Debug, Clone, Copy)]
struct InstanceBytes {
    instance: InstanceId,
    nic_out: u64,
    nic_in: u64,
    local: u64,
    storage: u64,
}

/// The row of `instance` in a step's `tally`, added on first use.
fn row(tally: &mut Vec<InstanceBytes>, instance: InstanceId) -> &mut InstanceBytes {
    let at = match tally.iter().position(|r| r.instance == instance) {
        Some(at) => at,
        None => {
            tally.push(InstanceBytes {
                instance,
                nic_out: 0,
                nic_in: 0,
                local: 0,
                storage: 0,
            });
            tally.len() - 1
        }
    };
    &mut tally[at]
}

/// Computes how long one batch of transfers takes: every instance moves its
/// in/out bytes over its NIC in parallel, intra-instance flows use the local
/// bus, and storage loads stream per instance concurrently with the network.
/// Any same-instance flow, even of zero bytes, pays the local bus latency
/// when no flow crosses instances.
///
/// `tally` is scratch, one row per instance the step touches. Bandwidths
/// are positive, so each resource's slowest instance is the one with the
/// most bytes.
fn step_time(
    transfers: &[Transfer],
    net: &NetFabric,
    storage: &ColdStorage,
    tally: &mut Vec<InstanceBytes>,
) -> SimDuration {
    if transfers.is_empty() {
        return SimDuration::ZERO;
    }
    tally.clear();
    let (mut any_inter, mut any_local) = (false, false);
    for t in transfers {
        match t.source {
            TransferSource::Gpu(src) if src.instance == t.dest.instance => {
                any_local = true;
                row(tally, src.instance).local += t.bytes;
            }
            TransferSource::Gpu(src) => {
                any_inter = true;
                row(tally, src.instance).nic_out += t.bytes;
                row(tally, t.dest.instance).nic_in += t.bytes;
            }
            TransferSource::Storage => {
                row(tally, t.dest.instance).storage += t.bytes;
            }
        }
    }
    let (mut nic, mut local, mut store) = (0u64, 0u64, 0u64);
    for r in tally.iter() {
        nic = nic.max(r.nic_out).max(r.nic_in);
        local = local.max(r.local);
        store = store.max(r.storage);
    }
    let nic_secs = nic as f64 / net.inter_bw;
    let local_secs = local as f64 / net.intra_bw;
    let storage_secs = store as f64 / storage.per_instance_bandwidth;
    let latency = if any_inter {
        net.inter_latency
    } else if any_local {
        net.intra_latency
    } else {
        SimDuration::ZERO
    };
    latency + SimDuration::from_secs_f64(nic_secs.max(local_secs).max(storage_secs))
}

impl TransferSet {
    /// `T_mig` of every plan over these transfers: the cache step plus
    /// each layer's step. [`evaluate_plan`]'s total sums the same steps in
    /// the plan's order, in whole microseconds, so the two are equal
    /// without ordering the layers.
    pub fn migration_time(&self, net: &NetFabric, storage: &ColdStorage) -> SimDuration {
        let mut tally = Vec::new();
        let mut total = step_time(&self.cache, net, storage, &mut tally);
        for layer in &self.layers {
            total += step_time(&layer.transfers, net, storage, &mut tally);
        }
        total
    }
}

/// Walks `plan` step by step and produces its timeline.
///
/// # Example
///
/// ```
/// use cloudsim::{ColdStorage, InstanceId, NetFabric};
/// use migration::{evaluate_plan, plan_migration, MigrationTask, PlannerOptions};
/// use parallelism::ParallelConfig;
///
/// let task = MigrationTask::fresh_start(
///     &llmsim::ModelSpec::opt_6_7b(),
///     ParallelConfig::new(1, 1, 4, 8),
///     &[(InstanceId(0), 4)],
/// );
/// let plan = plan_migration(&task, &PlannerOptions::default());
/// let tl = evaluate_plan(&plan, &NetFabric::g4dn_default(), &ColdStorage::default());
/// assert!(tl.total.as_secs_f64() > 10.0, "cold loads are slow: {}", tl.total);
/// ```
pub fn evaluate_plan(
    plan: &MigrationPlan,
    net: &NetFabric,
    storage: &ColdStorage,
) -> MigrationTimeline {
    let mut t = SimDuration::ZERO;
    let mut cache_done = SimDuration::ZERO;
    let mut stage_ready = vec![SimDuration::MAX; plan.new_stages as usize];
    let mut tally = Vec::new();
    for step in &plan.steps {
        match step {
            PlanStep::MigrateCache => {
                t += step_time(&plan.transfers.cache, net, storage, &mut tally);
                cache_done = t;
            }
            PlanStep::MigrateLayer(layer) => {
                let xfers = &plan.transfers.layers[*layer as usize].transfers;
                t += step_time(xfers, net, storage, &mut tally);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_migration, PlannerOptions};
    use crate::task::{DeviceAssignment, MigrationTask};
    use cloudsim::GpuRef;
    use llmsim::ModelSpec;
    use parallelism::ParallelConfig;

    fn gpus(n: u64) -> Vec<GpuRef> {
        (0..n)
            .flat_map(|i| (0..4u8).map(move |s| GpuRef::new(InstanceId(i), s)))
            .collect()
    }

    fn net() -> NetFabric {
        NetFabric::g4dn_default()
    }

    fn storage() -> ColdStorage {
        ColdStorage::aws_default()
    }

    fn reconfig(old: ParallelConfig, new: ParallelConfig, n_inst: u64) -> MigrationTask {
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
    fn context_migration_beats_cold_restart() {
        // The paper's core claim: migrating context over the network is far
        // cheaper than reloading weights from storage.
        let old = ParallelConfig::new(1, 2, 4, 8);
        let new = ParallelConfig::new(1, 4, 2, 8);
        let warm = plan_migration(&reconfig(old, new, 2), &PlannerOptions::default());
        let warm_t = evaluate_plan(&warm, &net(), &storage()).total;

        let cold_task = MigrationTask::fresh_start(
            &ModelSpec::opt_6_7b(),
            new,
            &[(InstanceId(0), 4), (InstanceId(1), 4)],
        );
        let cold = plan_migration(&cold_task, &PlannerOptions::default());
        let cold_t = evaluate_plan(&cold, &net(), &storage()).total;
        assert!(
            warm_t.as_secs_f64() * 2.0 < cold_t.as_secs_f64(),
            "warm {warm_t} vs cold {cold_t}"
        );
    }

    #[test]
    fn stage_ready_is_monotone_with_plan_position() {
        let old = ParallelConfig::new(1, 2, 2, 8);
        let new = ParallelConfig::new(1, 4, 1, 8);
        let plan = plan_migration(&reconfig(old, new, 1), &PlannerOptions::default());
        let tl = evaluate_plan(&plan, &net(), &storage());
        assert_eq!(tl.stage_ready.len(), 4);
        for &r in &tl.stage_ready {
            assert!(r <= tl.total);
        }
        // At least one stage becomes ready strictly before the end.
        assert!(tl.stage_ready.iter().any(|&r| r < tl.total));
    }

    #[test]
    fn effective_pause_bounded_by_total() {
        let old = ParallelConfig::new(1, 2, 2, 8);
        let new = ParallelConfig::new(1, 4, 1, 8);
        let plan = plan_migration(&reconfig(old, new, 1), &PlannerOptions::default());
        let tl = evaluate_plan(&plan, &net(), &storage());
        let pause = tl.effective_pause(SimDuration::from_millis(500));
        assert!(pause <= tl.total);
        // Progressive overlap must actually help vs waiting for everything.
        assert!(pause < tl.total);
    }

    #[test]
    fn non_progressive_pause_equals_total() {
        let old = ParallelConfig::new(1, 2, 2, 8);
        let new = ParallelConfig::new(1, 4, 1, 8);
        let plan = plan_migration(
            &reconfig(old, new, 1),
            &PlannerOptions {
                progressive: false,
                ..PlannerOptions::default()
            },
        );
        let tl = evaluate_plan(&plan, &net(), &storage());
        assert_eq!(tl.effective_pause(SimDuration::from_secs(1)), tl.total);
    }

    #[test]
    fn cache_first_in_timeline() {
        let old = ParallelConfig::new(1, 2, 2, 8);
        let new = ParallelConfig::new(1, 4, 1, 8);
        let plan = plan_migration(&reconfig(old, new, 1), &PlannerOptions::default());
        let tl = evaluate_plan(&plan, &net(), &storage());
        assert!(tl.cache_done > SimDuration::ZERO, "cache moved");
        assert!(tl.cache_done < tl.total);
    }

    #[test]
    fn empty_plan_is_instant() {
        let cfg = ParallelConfig::new(1, 2, 2, 8);
        let mut task = reconfig(cfg, cfg, 1);
        task.cache_bytes_per_pipeline = vec![0];
        let plan = plan_migration(&task, &PlannerOptions::default());
        let tl = evaluate_plan(&plan, &net(), &storage());
        assert_eq!(tl.total, SimDuration::ZERO);
        assert_eq!(tl.effective_pause(SimDuration::ZERO), SimDuration::ZERO);
    }
}
