//! Discrete-event inference engine: iteration-level continuous batching,
//! token-level progress and cache accounting, and the just-in-time
//! interruption arranger.
//!
//! The paper's engine is FasterTransformer extended with a *context daemon*
//! (owns model + cache tensors, survives engine restarts) and an
//! *interruption arranger* (decides how many decoding iterations to run
//! inside a grace period, §4.1). Here the engine is simulated at token
//! granularity, in two flavors, and each pipeline of the serving loop holds
//! one engine value of the flavor the run selects. That value is the
//! daemon's state: a migration reads its resident cache bytes and deepest
//! committed token, then carries its work into the new pipeline or
//! requeues it.
//!
//! * the **iteration-level scheduler** ([`IterationScheduler`]) — the
//!   serving system's default engine. It manages per-request execution
//!   records ([`RequestRun`]), retiring requests the moment their last
//!   token commits and admitting waiting requests at the next iteration
//!   boundary, within the batch capacity *and* the engine's KV budget.
//!   Each iteration is priced from the current mixed batch (prefill and
//!   decode tokens in one pass), so throughput no longer depends on
//!   batch-formation luck;
//! * the **fixed-batch record** ([`BatchRun`]) — the paper's original
//!   run-to-completion semantics, kept as the comparison baseline and as
//!   the unit the interruption arranger reasons about.
//!
//! Both know exactly how many tokens are committed at any instant, which
//! is what makes stateful recovery — resuming interrupted requests from
//! their cached tokens instead of recomputing — an executable mechanic
//! rather than bookkeeping fiction. Under continuous batching the
//! checkpoint is *heterogeneous*: each in-flight request carries its own
//! committed count through a migration, and the JIT arranger's
//! grace-period decoding simply runs more scheduler iterations before the
//! freeze.
//!
//! # Example
//!
//! ```
//! use enginesim::BatchRun;
//! use parallelism::{ParallelConfig, PerfModel};
//! use simkit::SimTime;
//! use workload::{Request, RequestId};
//!
//! let perf = PerfModel::paper_defaults(llmsim::ModelSpec::opt_6_7b());
//! let cfg = ParallelConfig::new(1, 1, 4, 8);
//! let reqs = vec![Request::new(RequestId(0), SimTime::ZERO, 512, 128)];
//! let run = BatchRun::start(reqs, &cfg, SimTime::ZERO, &perf);
//! assert_eq!(run.committed_iters_at(SimTime::ZERO), 0);
//! assert_eq!(run.committed_iters_at(run.finish_time()), 128);
//! ```

pub mod arranger;
pub mod batch;
pub mod queue;
pub mod scheduler;

pub use arranger::{preemption_stop_time, recovery_worthwhile};
pub use batch::BatchRun;
pub use queue::{AdmissionQueue, PendingQueue};
pub use scheduler::{AdmissionVerdict, EngineCounters, IterationScheduler, RequestRun};
