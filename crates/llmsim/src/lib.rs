//! LLM substrate: model specifications, memory model, and the analytical
//! cost model that stands in for profiling FasterTransformer on real GPUs.
//!
//! The paper's offline profiler (§5) measures `t_exe(s)` — the latency of
//! one forward pass over `s` tokens — for every candidate parallel
//! configuration, "carefully considering resource under-utilization
//! effects". We reproduce that with a closed-form model:
//!
//! * compute term — GEMM FLOPs at batch-dependent efficiency (small decode
//!   batches leave ALUs idle; long prefills saturate them),
//! * memory term — every decoding iteration streams the full weight shard
//!   through device memory, which makes decode memory-bandwidth-bound,
//! * communication terms — ring all-reduce per layer for tensor parallelism
//!   and point-to-point hops for pipeline parallelism, using the
//!   hierarchical [`cloudsim::NetFabric`].
//!
//! [`calibration::calibrated_cost_model`] scales the model so the Table 1
//! single-request latencies match the published numbers.
//!
//! # Example
//!
//! ```
//! use llmsim::{calibration, ModelSpec};
//!
//! let model = ModelSpec::opt_6_7b();
//! let cost = calibration::calibrated_cost_model(&model);
//! let l = cost.exec_latency(&model, 1, 4, 1, 512, 128);
//! // Paper Table 1: 5.447 s for OPT-6.7B on (P,M) = (1,4).
//! assert!((l.as_secs_f64() - 5.447).abs() / 5.447 < 0.10);
//! ```

pub mod calibration;
pub mod costmodel;
pub mod memory;
pub mod spec;

pub use costmodel::{CostModel, Efficiency, PassPricer, SeqWork};
pub use memory::MemoryModel;
pub use spec::ModelSpec;
