//! The paper's parallel configuration tuple `C = (D, P, M, B)`.

use std::fmt;

use crate::mesh::MeshPosition;

/// A parallelization strategy for serving one LLM.
///
/// * `data` (`D`) — number of independent inference pipelines,
/// * `pipeline` (`P`) — pipeline-model parallel stages per pipeline,
/// * `tensor` (`M`) — tensor-model parallel shards per stage,
/// * `batch` (`B`) — maximum mini-batch size per pipeline.
///
/// # Example
///
/// ```
/// use parallelism::ParallelConfig;
/// let c = ParallelConfig::new(2, 2, 8, 4);
/// assert_eq!(c.gpus_per_pipeline(), 16);
/// assert_eq!(c.total_gpus(), 32);
/// assert_eq!(c.instances_needed(4), 8);
/// assert_eq!(c.concurrent_requests(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParallelConfig {
    /// Data-parallel degree `D`: number of inference pipelines.
    pub data: u32,
    /// Pipeline-model parallel degree `P`: stages per pipeline.
    pub pipeline: u32,
    /// Tensor-model parallel degree `M`: shards per stage.
    pub tensor: u32,
    /// Maximum mini-batch size `B` per pipeline.
    pub batch: u32,
}

impl ParallelConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any degree is zero.
    pub fn new(data: u32, pipeline: u32, tensor: u32, batch: u32) -> Self {
        assert!(
            data > 0 && pipeline > 0 && tensor > 0 && batch > 0,
            "degenerate config (D={data},P={pipeline},M={tensor},B={batch})"
        );
        ParallelConfig {
            data,
            pipeline,
            tensor,
            batch,
        }
    }

    /// GPUs in one inference pipeline (`P·M`).
    pub fn gpus_per_pipeline(&self) -> u32 {
        self.pipeline * self.tensor
    }

    /// GPUs the whole configuration occupies (`D·P·M`).
    pub fn total_gpus(&self) -> u32 {
        self.data * self.gpus_per_pipeline()
    }

    /// Instances needed on a fleet with `gpus_per_instance` GPUs each
    /// (rounded up).
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_instance == 0`.
    pub fn instances_needed(&self, gpus_per_instance: u8) -> u32 {
        assert!(gpus_per_instance > 0);
        self.total_gpus().div_ceil(gpus_per_instance as u32)
    }

    /// Total concurrent requests the configuration can hold (`D·B`), the
    /// quantity compared when deciding whether cached results must be
    /// discarded on a shrink (§3.3, footnote 2).
    pub fn concurrent_requests(&self) -> u32 {
        self.data * self.batch
    }

    /// All mesh positions of this configuration, in canonical order
    /// (pipeline-major, then stage, then shard).
    pub fn positions(&self) -> impl Iterator<Item = MeshPosition> + '_ {
        let (d, p, m) = (self.data, self.pipeline, self.tensor);
        (0..d).flat_map(move |dd| {
            (0..p).flat_map(move |pp| (0..m).map(move |mm| MeshPosition::new(dd, pp, mm)))
        })
    }

    /// The same strategy ignoring batch size, as used for device mapping
    /// (`(D, P, M)` in §3.3).
    pub fn mesh_key(&self) -> (u32, u32, u32) {
        (self.data, self.pipeline, self.tensor)
    }
}

impl fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(D={},P={},M={},B={})",
            self.data, self.pipeline, self.tensor, self.batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let c = ParallelConfig::new(3, 3, 4, 8);
        assert_eq!(c.total_gpus(), 36);
        assert_eq!(c.instances_needed(4), 9);
        assert_eq!(c.concurrent_requests(), 24);
    }

    #[test]
    fn instances_round_up() {
        let c = ParallelConfig::new(1, 3, 2, 1);
        assert_eq!(c.total_gpus(), 6);
        assert_eq!(c.instances_needed(4), 2);
    }

    #[test]
    fn positions_enumerate_whole_mesh_in_order() {
        let c = ParallelConfig::new(2, 2, 2, 1);
        let ps: Vec<MeshPosition> = c.positions().collect();
        assert_eq!(ps.len(), 8);
        assert!(
            ps.windows(2).all(|w| w[0] < w[1]),
            "pipeline-major, then stage, then shard"
        );
        assert_eq!(ps[0], MeshPosition::new(0, 0, 0));
        assert_eq!(ps[7], MeshPosition::new(1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "degenerate config")]
    fn zero_degree_panics() {
        ParallelConfig::new(1, 0, 4, 8);
    }
}
