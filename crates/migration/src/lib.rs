//! Context migration: what must move when the parallel configuration
//! changes, in which order, and how long it takes.
//!
//! This crate implements the paper's migration planner (§3.4, Algorithm 2):
//!
//! * [`task`] describes a reconfiguration: the old device assignment with
//!   whatever context each GPU still holds, the target assignment, and the
//!   committed KV-cache state to preserve;
//! * [`transfers`] derives the exact byte flows — for every destination GPU
//!   and layer, which source GPU (or cold storage, when every replica of a
//!   shard was lost) supplies the missing pieces;
//! * [`planner`] orders the layer migrations: cache context first (for
//!   interruption fault-tolerance), then weights in the memory-optimized
//!   order of `MemOptMigPlanner`, emitting progressive `StartStage` markers
//!   so front pipeline stages resume serving while the tail still migrates;
//! * [`cost`] evaluates a plan against the network model, yielding per-stage
//!   ready times, the total migration time `T_mig`, and the peak
//!   communication-buffer growth per GPU; `T_mig` alone needs no order, so
//!   a [`TransferSet`] prices it without planning.
//!
//! # Example
//!
//! ```
//! use migration::{plan_migration, MigrationTask, PlannerOptions};
//! use parallelism::ParallelConfig;
//!
//! let task = MigrationTask::fresh_start(
//!     &llmsim::ModelSpec::opt_6_7b(),
//!     ParallelConfig::new(1, 2, 2, 8),
//!     &[(cloudsim::InstanceId(0), 4)],
//! );
//! let plan = plan_migration(&task, &PlannerOptions::default());
//! // A fresh start has no reusable context: everything loads from storage.
//! assert!(plan.total_bytes_from_storage() > 0);
//! ```

pub mod cost;
pub mod planner;
pub mod task;
pub mod transfers;
pub mod triage;

pub use cost::{evaluate_plan, MigrationTimeline};
pub use planner::{plan_migration, MigrationPlan, PlanStep, PlannerOptions};
pub use task::{DeviceAssignment, MigrationTask};
pub use transfers::{compute_transfers, LayerTransfers, Transfer, TransferSet, TransferSource};
pub use triage::{transferable_fraction, triage, TriageTier, FULL_THRESHOLD, PARTIAL_THRESHOLD};
