//! Description of one reconfiguration task.

use std::collections::BTreeMap;

use cloudsim::{GpuRef, InstanceId};
use llmsim::ModelSpec;
use parallelism::{MeshPosition, ParallelConfig};

/// A mapping from mesh positions to physical GPUs.
///
/// # Example
///
/// ```
/// use cloudsim::{GpuRef, InstanceId};
/// use migration::DeviceAssignment;
/// use parallelism::{MeshPosition, ParallelConfig};
///
/// let cfg = ParallelConfig::new(1, 1, 4, 8);
/// let gpus: Vec<GpuRef> = (0..4).map(|s| GpuRef::new(InstanceId(0), s)).collect();
/// let asg = DeviceAssignment::contiguous(&cfg, &gpus);
/// assert_eq!(asg.gpu_at(MeshPosition::new(0, 0, 2)), Some(gpus[2]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceAssignment {
    map: BTreeMap<MeshPosition, GpuRef>,
    /// Bound positions per instance, for every instance holding at least
    /// one: the map's instances, counted without a scan.
    held: BTreeMap<InstanceId, u32>,
}

impl DeviceAssignment {
    /// An empty assignment.
    pub fn new() -> Self {
        DeviceAssignment::default()
    }

    /// Assigns the mesh positions of `cfg` to `gpus` in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if fewer GPUs are supplied than the mesh has positions.
    pub fn contiguous(cfg: &ParallelConfig, gpus: &[GpuRef]) -> Self {
        assert!(
            gpus.len() >= cfg.total_gpus() as usize,
            "need {} GPUs, got {}",
            cfg.total_gpus(),
            gpus.len()
        );
        cfg.positions().zip(gpus.iter().copied()).collect()
    }

    /// Binds `pos` to `gpu`, replacing any previous binding of `pos`.
    pub fn insert(&mut self, pos: MeshPosition, gpu: GpuRef) {
        if let Some(old) = self.map.insert(pos, gpu) {
            release(&mut self.held, old.instance);
        }
        *self.held.entry(gpu.instance).or_insert(0) += 1;
    }

    /// The GPU at `pos`, if assigned.
    pub fn gpu_at(&self, pos: MeshPosition) -> Option<GpuRef> {
        self.map.get(&pos).copied()
    }

    /// The position held by `gpu`, if any.
    pub fn position_of(&self, gpu: GpuRef) -> Option<MeshPosition> {
        self.map
            .iter()
            .find(|&(_, g)| *g == gpu)
            .map(|(pos, _)| *pos)
    }

    /// The inverse binding, sorted by GPU: every bound GPU with its
    /// position. A GPU bound at several positions keeps the first in
    /// position order, the one [`position_of`](Self::position_of) finds,
    /// so one inversion answers every `position_of` query.
    pub fn by_gpu(&self) -> Vec<(GpuRef, MeshPosition)> {
        let mut inverse: Vec<(GpuRef, MeshPosition)> = self.iter().map(|(p, g)| (g, p)).collect();
        inverse.sort_unstable();
        inverse.dedup_by_key(|&mut (g, _)| g);
        inverse
    }

    /// All `(position, gpu)` bindings in position order.
    pub fn iter(&self) -> impl Iterator<Item = (MeshPosition, GpuRef)> + '_ {
        self.map.iter().map(|(p, g)| (*p, *g))
    }

    /// Number of bound positions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no positions are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every binding whose GPU lives on `instance` (used when an
    /// instance is preempted before migration finishes).
    pub fn remove_instance(&mut self, instance: InstanceId) {
        if self.held.remove(&instance).is_some() {
            self.map.retain(|_, g| g.instance != instance);
        }
        debug_assert!(self.map.values().all(|g| g.instance != instance));
    }

    /// Removes every binding of data-parallel pipeline `d` (used when a
    /// single pipeline is torn down, e.g. by the Rerouting baseline).
    pub fn remove_pipeline(&mut self, d: u32) {
        let held = &mut self.held;
        self.map.retain(|pos, g| {
            if pos.pipeline != d {
                return true;
            }
            release(held, g.instance);
            false
        });
    }

    /// Distinct instances participating in this assignment, in id order.
    pub fn instances(&self) -> Vec<InstanceId> {
        let out: Vec<InstanceId> = self.held.keys().copied().collect();
        debug_assert_eq!(out, self.scanned_instances());
        out
    }

    /// Whether any position is bound to a GPU of `instance`.
    pub fn contains_instance(&self, instance: InstanceId) -> bool {
        let held = self.held.contains_key(&instance);
        debug_assert_eq!(held, self.map.values().any(|g| g.instance == instance));
        held
    }

    /// The distinct instances by a scan of the map: what `held` counts.
    fn scanned_instances(&self) -> Vec<InstanceId> {
        let mut out: Vec<InstanceId> = self.map.values().map(|g| g.instance).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Drops one bound position from `instance`'s count in `held`.
fn release(held: &mut BTreeMap<InstanceId, u32>, instance: InstanceId) {
    let n = held.get_mut(&instance).expect("a bound instance is held");
    *n -= 1;
    if *n == 0 {
        held.remove(&instance);
    }
}

impl FromIterator<(MeshPosition, GpuRef)> for DeviceAssignment {
    fn from_iter<I: IntoIterator<Item = (MeshPosition, GpuRef)>>(iter: I) -> Self {
        let mut asg = DeviceAssignment::new();
        for (pos, gpu) in iter {
            asg.insert(pos, gpu);
        }
        asg
    }
}

/// Everything the planner needs to know about one reconfiguration.
#[derive(Debug, Clone)]
pub struct MigrationTask {
    /// The model being served.
    pub model: ModelSpec,
    /// The configuration the fleet is leaving.
    pub old_config: ParallelConfig,
    /// The configuration the fleet is entering.
    pub new_config: ParallelConfig,
    /// Where each *surviving* old position physically lives. GPUs on
    /// preempted-and-gone instances must not appear here.
    pub old_assignment: DeviceAssignment,
    /// The target placement (output of the device mapper).
    pub new_assignment: DeviceAssignment,
    /// Committed KV-cache bytes per old pipeline (whole-pipeline total).
    pub cache_bytes_per_pipeline: Vec<u64>,
    /// For each new pipeline `d'`, the old pipeline whose in-flight
    /// requests (and hence cache) it inherits, if any.
    pub pipeline_inheritance: Vec<Option<u32>>,
}

impl MigrationTask {
    /// A task describing a cold start: nothing survives, every byte of the
    /// target configuration loads from storage. `fleet` lists
    /// `(instance, gpus)` to fill contiguously.
    pub fn fresh_start(
        model: &ModelSpec,
        new_config: ParallelConfig,
        fleet: &[(InstanceId, u8)],
    ) -> Self {
        let gpus: Vec<GpuRef> = fleet
            .iter()
            .flat_map(|&(id, n)| (0..n).map(move |s| GpuRef::new(id, s)))
            .collect();
        MigrationTask {
            model: model.clone(),
            old_config: new_config,
            new_config,
            old_assignment: DeviceAssignment::new(),
            new_assignment: DeviceAssignment::contiguous(&new_config, &gpus),
            cache_bytes_per_pipeline: Vec::new(),
            pipeline_inheritance: vec![None; new_config.data as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(i: u64, s: u8) -> GpuRef {
        GpuRef::new(InstanceId(i), s)
    }

    #[test]
    fn contiguous_assignment_in_position_order() {
        let cfg = ParallelConfig::new(1, 2, 2, 1);
        let gpus: Vec<GpuRef> = (0..2)
            .flat_map(|i| (0..2).map(move |s| gpu(i, s)))
            .collect();
        let asg = DeviceAssignment::contiguous(&cfg, &gpus);
        assert_eq!(asg.len(), 4);
        // Stage 0 on instance 0, stage 1 on instance 1.
        assert_eq!(asg.gpu_at(MeshPosition::new(0, 0, 0)), Some(gpu(0, 0)));
        assert_eq!(asg.gpu_at(MeshPosition::new(0, 1, 1)), Some(gpu(1, 1)));
    }

    #[test]
    #[should_panic(expected = "need 4 GPUs")]
    fn too_few_gpus_panics() {
        let cfg = ParallelConfig::new(1, 2, 2, 1);
        DeviceAssignment::contiguous(&cfg, &[gpu(0, 0)]);
    }

    #[test]
    fn remove_instance_drops_bindings() {
        let cfg = ParallelConfig::new(1, 2, 2, 1);
        let gpus: Vec<GpuRef> = (0..2)
            .flat_map(|i| (0..2).map(move |s| gpu(i, s)))
            .collect();
        let mut asg = DeviceAssignment::contiguous(&cfg, &gpus);
        asg.remove_instance(InstanceId(0));
        assert_eq!(asg.len(), 2);
        assert_eq!(asg.instances(), vec![InstanceId(1)]);
    }

    #[test]
    fn position_of_reverse_lookup() {
        let cfg = ParallelConfig::new(2, 1, 1, 1);
        let asg = DeviceAssignment::contiguous(&cfg, &[gpu(5, 0), gpu(6, 0)]);
        assert_eq!(asg.position_of(gpu(6, 0)), Some(MeshPosition::new(1, 0, 0)));
        assert_eq!(asg.position_of(gpu(9, 0)), None);
    }

    #[test]
    fn by_gpu_inverts_like_position_of() {
        let cfg = ParallelConfig::new(2, 1, 2, 1);
        let mut asg =
            DeviceAssignment::contiguous(&cfg, &[gpu(5, 0), gpu(5, 1), gpu(3, 0), gpu(3, 1)]);
        // Bind one GPU twice: the first position in position order wins.
        asg.insert(MeshPosition::new(1, 0, 1), gpu(5, 1));
        let inverse = asg.by_gpu();
        assert_eq!(inverse.len(), 3);
        assert!(inverse.windows(2).all(|w| w[0].0 < w[1].0), "sorted by GPU");
        for (g, pos) in inverse {
            assert_eq!(asg.position_of(g), Some(pos), "{g}");
        }
    }

    #[test]
    fn fresh_start_has_no_reuse() {
        let task = MigrationTask::fresh_start(
            &ModelSpec::opt_6_7b(),
            ParallelConfig::new(1, 1, 4, 8),
            &[(InstanceId(0), 4)],
        );
        assert!(task.old_assignment.is_empty());
        assert!(task.pipeline_inheritance.iter().all(Option::is_none));
    }
}
