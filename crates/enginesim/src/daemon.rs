//! The context daemon: per-pipeline context accounting that survives
//! engine interruptions.
//!
//! In the real system the daemon is a separate process per GPU holding the
//! CUDA allocations (model context + cache context) so that an engine
//! restart does not lose them (§3.1, §5). In the simulator the daemon
//! tracks, per pipeline, whose KV cache is resident and how many tokens of
//! it are committed — the inputs the device mapper and migration planner
//! need. Under the iteration-level engine the inventory is *per request*
//! (a continuous batch is heterogeneous: every in-flight request has its
//! own committed count); the monolithic [`BatchRun`] form is kept for the
//! fixed-batch baseline.

use simkit::SimTime;

use crate::batch::BatchRun;
use crate::scheduler::IterationScheduler;

/// Context inventory for one inference pipeline.
///
/// # Example
///
/// ```
/// use enginesim::{BatchRun, ContextDaemon};
/// use parallelism::{ParallelConfig, PerfModel};
/// use simkit::SimTime;
/// use workload::{Request, RequestId};
///
/// let model = llmsim::ModelSpec::opt_6_7b();
/// let perf = PerfModel::paper_defaults(model.clone());
/// let cfg = ParallelConfig::new(1, 1, 4, 8);
/// let mut daemon = ContextDaemon::new(model.kv_bytes_per_token());
/// let run = BatchRun::start(
///     vec![Request::new(RequestId(0), SimTime::ZERO, 512, 128)],
///     &cfg, SimTime::ZERO, &perf,
/// );
/// daemon.attach(run);
/// assert!(daemon.cache_bytes_at(SimTime::ZERO) > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContextDaemon {
    kv_bytes_per_token: u64,
    batch: Option<BatchRun>,
    sched: Option<IterationScheduler>,
}

impl ContextDaemon {
    /// Creates a daemon for a model with the given whole-model KV bytes per
    /// token.
    pub fn new(kv_bytes_per_token: u64) -> Self {
        ContextDaemon {
            kv_bytes_per_token,
            batch: None,
            sched: None,
        }
    }

    /// Registers the batch whose cache this pipeline now holds.
    pub fn attach(&mut self, batch: BatchRun) {
        self.batch = Some(batch);
    }

    /// Drops the cache context (batch finished, or cache given up under
    /// fault handling §4.2).
    pub fn detach(&mut self) -> Option<BatchRun> {
        self.batch.take()
    }

    /// The resident batch, if any.
    pub fn batch(&self) -> Option<&BatchRun> {
        self.batch.as_ref()
    }

    /// Registers the iteration scheduler whose requests' caches this
    /// pipeline now holds (continuous-batching engine).
    pub fn attach_scheduler(&mut self, sched: IterationScheduler) {
        self.sched = Some(sched);
    }

    /// Drops the scheduler and its cache inventory.
    pub fn detach_scheduler(&mut self) -> Option<IterationScheduler> {
        self.sched.take()
    }

    /// The resident iteration scheduler, if any.
    pub fn scheduler(&self) -> Option<&IterationScheduler> {
        self.sched.as_ref()
    }

    /// Mutable access to the resident iteration scheduler.
    pub fn scheduler_mut(&mut self) -> Option<&mut IterationScheduler> {
        self.sched.as_mut()
    }

    /// Committed KV-cache bytes at `t` (0 when idle). Under the
    /// continuous engine this sums each in-flight request's own
    /// `S_in +` committed tokens.
    pub fn cache_bytes_at(&self, t: SimTime) -> u64 {
        let batch = self
            .batch
            .as_ref()
            .map(|b| b.cache_bytes_at(t, self.kv_bytes_per_token))
            .unwrap_or(0);
        let sched = self
            .sched
            .as_ref()
            .map(|s| s.cache_bytes_at(t, self.kv_bytes_per_token))
            .unwrap_or(0);
        batch + sched
    }

    /// Deepest committed output-token count at `t` (0 when idle): the
    /// batch's uniform progress, or — per-request under the continuous
    /// engine — the furthest request's progress (the device mapper ranks
    /// pipelines by decoding progress, §3.3).
    pub fn committed_iters_at(&self, t: SimTime) -> u32 {
        let batch = self
            .batch
            .as_ref()
            .map(|b| b.committed_iters_at(t))
            .unwrap_or(0);
        let sched = self
            .sched
            .as_ref()
            .map(|s| s.max_committed_at(t))
            .unwrap_or(0);
        batch.max(sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim::ModelSpec;
    use parallelism::{ParallelConfig, PerfModel};
    use workload::{Request, RequestId};

    fn setup() -> (ContextDaemon, BatchRun) {
        let model = ModelSpec::opt_6_7b();
        let perf = PerfModel::paper_defaults(model.clone());
        let cfg = ParallelConfig::new(1, 1, 4, 8);
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request::new(RequestId(i), SimTime::ZERO, 512, 128))
            .collect();
        let run = BatchRun::start(reqs, &cfg, SimTime::ZERO, &perf);
        (ContextDaemon::new(model.kv_bytes_per_token()), run)
    }

    #[test]
    fn idle_daemon_reports_zero() {
        let (daemon, ..) = setup();
        assert_eq!(daemon.cache_bytes_at(SimTime::from_secs(10)), 0);
        assert_eq!(daemon.committed_iters_at(SimTime::from_secs(10)), 0);
    }

    #[test]
    fn attach_then_detach_round_trips() {
        let (mut daemon, run, ..) = setup();
        daemon.attach(run.clone());
        assert_eq!(daemon.batch(), Some(&run));
        assert_eq!(daemon.detach(), Some(run));
        assert_eq!(daemon.batch(), None);
    }

    #[test]
    fn scheduler_reports_heterogeneous_per_request_progress() {
        use crate::scheduler::IterationScheduler;
        use std::collections::VecDeque;

        let model = ModelSpec::opt_6_7b();
        let perf = PerfModel::paper_defaults(model.clone());
        let cfg = ParallelConfig::new(1, 1, 4, 8);
        let mut daemon = ContextDaemon::new(model.kv_bytes_per_token());
        let mut sched = IterationScheduler::new(cfg, model.kv_bytes_per_token(), u64::MAX);
        let mut pending: VecDeque<Request> = vec![
            Request::new(RequestId(0), SimTime::ZERO, 512, 16),
            Request::new(RequestId(1), SimTime::ZERO, 512, 128),
        ]
        .into_iter()
        .collect();
        sched.admit(&mut pending, SimTime::ZERO, &perf);
        // Run out the first segment: request 0 retires at 16, request 1
        // keeps going — heterogeneous progress.
        let b = sched.next_event().unwrap();
        sched.advance(b, &mut pending, &perf);
        daemon.attach_scheduler(sched);
        assert_eq!(daemon.committed_iters_at(b), 16);
        assert_eq!(
            daemon.cache_bytes_at(b),
            (512 + 16) * model.kv_bytes_per_token()
        );
        assert!(daemon.detach_scheduler().is_some());
        assert_eq!(daemon.cache_bytes_at(b), 0);
    }
}
