//! SpotServe: distributed generative LLM serving on preemptible instances.
//!
//! A from-scratch Rust reproduction of *SpotServe: Serving Generative Large
//! Language Models on Preemptible Instances* (ASPLOS 2024). The crate
//! implements the paper's control plane exactly — the adaptive
//! configuration optimizer (Algorithm 1), the Kuhn–Munkres device mapper
//! (§3.3), the progressive memory-optimized migration planner
//! (Algorithm 2), and stateful inference recovery with just-in-time
//! interruption arrangement (§4) — and runs it against simulated substrates
//! (cloud, network, engine) provided by the sibling crates.
//!
//! # Quick start
//!
//! ```
//! use spotserve::{Scenario, ServingSystem, SystemOptions};
//!
//! let scenario = Scenario::paper_stable(
//!     llmsim::ModelSpec::opt_6_7b(),
//!     cloudsim::AvailabilityTrace::paper_as(),
//!     1.5,   // requests/second
//!     42,    // seed
//! );
//! let report = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
//! let p = report.latency.percentiles();
//! assert!(p.count > 0, "requests were served");
//! ```
//!
//! The three systems compared in the paper's evaluation are selectable via
//! [`SystemOptions`]: [`SystemOptions::spotserve`] (full system),
//! [`SystemOptions::reparallelization`] (adaptive configs, but every switch
//! is a cold restart — the Varuna-style baseline) and
//! [`SystemOptions::rerouting`] (fixed model-parallel shape, pipelines
//! added/dropped — the MArk/Cocktail-style baseline). Ablations toggle the
//! individual SpotServe components (Figure 9).

pub mod audit;
pub mod config;
pub mod devicemap;
pub mod optimizer;
pub mod report;
pub mod scale;
pub mod system;

pub use audit::{AuditReport, InvariantAuditor, Violation};
pub use config::{AblationFlags, EngineMode, Policy, SystemOptions};
pub use devicemap::{map_devices, map_devices_with_skus, DeviceMapOutcome, SkuTable};
pub use fleetctl::{FleetController, FleetPolicy, PreemptionEstimator};
pub use optimizer::{ConfigOptimizer, MultiSkuDecision, OptimizerDecision, MAX_SKU_LANES};
pub use report::{ConfigChange, CostReport, RunReport};
pub use scale::{EpochRecord, ScaleReport, ShardedSystem};
pub use system::{Scenario, ServingSystem};
pub use telemetry::{
    Record, Recorder, StreamRecord, TelemetryEvent, TelemetryStream, TriageVerdict,
};
