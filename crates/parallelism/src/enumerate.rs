//! Enumeration of memory-feasible parallel configurations.

use cloudsim::GpuSpec;
use llmsim::{MemoryModel, ModelSpec};

use crate::config::ParallelConfig;

/// The configuration search space of Algorithm 1.
///
/// The paper sweeps `B ∈ {1,2,4,8}` (§6.1) and tensor degrees that form
/// NCCL-friendly rings (powers of two up to 8); pipeline depth is bounded
/// only by the layer count and fleet size. SpotServe's space deliberately
/// includes all three parallelism axes — "much larger than prior approaches
/// like Varuna which only consider data and pipeline parallelism" (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSpace {
    /// Candidate batch sizes.
    pub batch_sizes: Vec<u32>,
    /// Candidate tensor-parallel degrees.
    pub tensor_degrees: Vec<u32>,
    /// Upper bound on pipeline depth (further bounded by layer count).
    pub max_pipeline: u32,
    /// Upper bound on data parallelism.
    pub max_data: u32,
}

impl Default for ConfigSpace {
    fn default() -> Self {
        ConfigSpace {
            batch_sizes: vec![1, 2, 4, 8],
            tensor_degrees: vec![1, 2, 4, 8],
            max_pipeline: 16,
            max_data: 16,
        }
    }
}

/// Lists every configuration in `space` that fits on `available_gpus` GPUs
/// of type `gpu` under `mem`, in canonical order.
///
/// # Example
///
/// ```
/// use cloudsim::GpuSpec;
/// use llmsim::{MemoryModel, ModelSpec};
/// use parallelism::{enumerate_configs, ConfigSpace};
///
/// let configs = enumerate_configs(
///     &ModelSpec::gpt_20b(),
///     &MemoryModel::default(),
///     &GpuSpec::t4(),
///     &ConfigSpace::default(),
///     16,
/// );
/// // GPT-20B needs ≥12 GPUs, so (D=1,P=3,M=4,·) is present but no D=2.
/// assert!(configs.iter().any(|c| c.mesh_key() == (1, 3, 4)));
/// assert!(configs.iter().all(|c| c.data == 1));
/// ```
pub fn enumerate_configs(
    model: &ModelSpec,
    mem: &MemoryModel,
    gpu: &GpuSpec,
    space: &ConfigSpace,
    available_gpus: u32,
) -> Vec<ParallelConfig> {
    let mut out = Vec::new();
    if available_gpus == 0 {
        return out;
    }
    for &m in &space.tensor_degrees {
        if m == 0 || m > model.num_heads || !model.num_heads.is_multiple_of(m) {
            continue;
        }
        let max_p = space.max_pipeline.min(model.num_layers);
        for p in 1..=max_p {
            if p * m > available_gpus {
                break;
            }
            if !mem.fits(model, p, m, gpu) {
                continue;
            }
            let max_d = space.max_data.min(available_gpus / (p * m));
            for d in 1..=max_d {
                for &b in &space.batch_sizes {
                    out.push(ParallelConfig::new(d, p, m, b));
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs_for(model: &ModelSpec, gpus: u32) -> Vec<ParallelConfig> {
        enumerate_configs(
            model,
            &MemoryModel::default(),
            &GpuSpec::t4(),
            &ConfigSpace::default(),
            gpus,
        )
    }

    #[test]
    fn zero_gpus_is_empty() {
        assert!(configs_for(&ModelSpec::opt_6_7b(), 0).is_empty());
    }

    #[test]
    fn too_few_gpus_for_model_is_empty() {
        // GPT-20B needs 12 GPUs (Table 1).
        assert!(configs_for(&ModelSpec::gpt_20b(), 8).is_empty());
        assert!(!configs_for(&ModelSpec::gpt_20b(), 12).is_empty());
    }

    #[test]
    fn all_results_respect_gpu_budget_and_memory() {
        let mem = MemoryModel::default();
        let gpu = GpuSpec::t4();
        for gpus in [4u32, 12, 16, 32] {
            for model in ModelSpec::paper_models() {
                for c in configs_for(&model, gpus) {
                    assert!(c.total_gpus() <= gpus, "{c} over budget {gpus}");
                    assert!(
                        mem.fits(&model, c.pipeline, c.tensor, &gpu),
                        "{c} infeasible"
                    );
                }
            }
        }
    }

    #[test]
    fn gpt20b_on_32_gpus_contains_paper_configs() {
        // §6.2 discusses (D=2,P=2,M=8) and (D=2,P=3,M=4) for GPT-20B.
        let cs = configs_for(&ModelSpec::gpt_20b(), 32);
        assert!(
            cs.iter().any(|c| c.mesh_key() == (2, 2, 8)),
            "missing (2,2,8)"
        );
        assert!(
            cs.iter().any(|c| c.mesh_key() == (2, 3, 4)),
            "missing (2,3,4)"
        );
    }

    #[test]
    fn no_duplicates_and_sorted() {
        let cs = configs_for(&ModelSpec::opt_6_7b(), 16);
        let mut sorted = cs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(cs, sorted);
    }

    #[test]
    fn data_pipeline_only_space_pins_tensor_degree() {
        let space = ConfigSpace {
            tensor_degrees: vec![4],
            ..ConfigSpace::default()
        };
        let cs = enumerate_configs(
            &ModelSpec::opt_6_7b(),
            &MemoryModel::default(),
            &GpuSpec::t4(),
            &space,
            16,
        );
        assert!(!cs.is_empty());
        assert!(cs.iter().all(|c| c.tensor == 4));
    }

    #[test]
    fn batch_sizes_come_from_space() {
        let space = ConfigSpace {
            batch_sizes: vec![2],
            ..ConfigSpace::default()
        };
        let cs = enumerate_configs(
            &ModelSpec::opt_6_7b(),
            &MemoryModel::default(),
            &GpuSpec::t4(),
            &space,
            8,
        );
        assert!(!cs.is_empty());
        assert!(cs.iter().all(|c| c.batch == 2));
    }
}
