//! Token-granularity execution state of one batch on one pipeline.
//!
//! Under the fixed-batch engine a pipeline's engine value is at most one
//! [`BatchRun`]: its requests' cache bytes and uniform committed progress
//! are the context a migration reads and carries.

use parallelism::{ParallelConfig, PerfModel};
use simkit::{SimDuration, SimTime};
use workload::Request;

/// One batch being decoded by an inference pipeline.
///
/// Timing follows Eq. (1): an initial phase over the `S_in` prompt tokens
/// produces the first output token, then one decoding iteration per further
/// token. A batch resumed from migrated KV cache (stateful recovery, §4)
/// skips the initial phase and continues from its committed token count.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRun {
    requests: Vec<Request>,
    started: SimTime,
    first_token_at: SimTime,
    iter_time: SimDuration,
    total_iters: u32,
    resumed_from: u32,
}

impl BatchRun {
    /// Starts a fresh batch (initial phase + decoding) at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty or exceeds the configuration's batch
    /// capacity.
    pub fn start(
        requests: Vec<Request>,
        cfg: &ParallelConfig,
        now: SimTime,
        perf: &PerfModel,
    ) -> Self {
        Self::with_progress(requests, cfg, now, perf, 0)
    }

    /// Resumes a batch whose first `committed` output tokens are already in
    /// the (migrated) KV cache: no initial phase, no recomputation.
    ///
    /// # Panics
    ///
    /// Panics on an empty or oversized batch, or if `committed` is not less
    /// than the batch's output length.
    pub fn resume(
        requests: Vec<Request>,
        cfg: &ParallelConfig,
        now: SimTime,
        perf: &PerfModel,
        committed: u32,
    ) -> Self {
        assert!(committed > 0, "resume needs progress; use start instead");
        Self::with_progress(requests, cfg, now, perf, committed)
    }

    fn with_progress(
        requests: Vec<Request>,
        cfg: &ParallelConfig,
        now: SimTime,
        perf: &PerfModel,
        committed: u32,
    ) -> Self {
        assert!(!requests.is_empty(), "empty batch");
        assert!(
            requests.len() <= cfg.batch as usize,
            "batch of {} exceeds B={}",
            requests.len(),
            cfg.batch
        );
        let b = requests.len() as u32;
        let s_in = requests.iter().map(|r| r.s_in).max().expect("non-empty");
        let s_out = requests.iter().map(|r| r.s_out).max().expect("non-empty");
        assert!(committed < s_out, "batch already finished");
        let cost = perf.cost_model();
        let model = perf.model();
        let mid_ctx = s_in + s_out / 2;
        let iter_time = cost.decode_time(model, cfg.pipeline, cfg.tensor, b, mid_ctx);
        let first_token_at = if committed == 0 {
            now + cost.prefill_time(model, cfg.pipeline, cfg.tensor, b, s_in)
        } else {
            // The cache already holds `committed` tokens; the next token is
            // one ordinary decode iteration away.
            now + iter_time
        };
        BatchRun {
            requests,
            started: now,
            first_token_at,
            iter_time,
            total_iters: s_out,
            resumed_from: committed,
        }
    }

    /// The requests in this batch.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// When the batch was (re)started.
    pub fn started(&self) -> SimTime {
        self.started
    }

    /// Duration of one decoding iteration for this batch.
    pub fn iter_time(&self) -> SimDuration {
        self.iter_time
    }

    /// Output tokens each request must reach.
    pub fn total_iters(&self) -> u32 {
        self.total_iters
    }

    /// Committed output tokens the batch carried into this run.
    pub fn resumed_from(&self) -> u32 {
        self.resumed_from
    }

    /// When the batch's final token is committed.
    pub fn finish_time(&self) -> SimTime {
        let remaining = self.total_iters - self.resumed_from;
        debug_assert!(remaining >= 1);
        // The first of the remaining tokens lands at `first_token_at`; each
        // further one costs `iter_time`.
        self.first_token_at + self.iter_time * (remaining - 1) as u64
    }

    /// Output tokens committed per request by time `t` (token-level commit,
    /// §4.1). Monotone, clamped to the output length.
    pub fn committed_iters_at(&self, t: SimTime) -> u32 {
        if t < self.first_token_at {
            return self.resumed_from;
        }
        let extra = if self.iter_time == SimDuration::ZERO {
            u64::from(self.total_iters)
        } else {
            1 + t.saturating_since(self.first_token_at).as_micros() / self.iter_time.as_micros()
        };
        (self.resumed_from as u64 + extra).min(self.total_iters as u64) as u32
    }

    /// Whether the batch is finished at `t`.
    pub fn finished_at(&self, t: SimTime) -> bool {
        t >= self.finish_time()
    }

    /// KV-cache bytes resident for this batch at `t`: every request holds
    /// `S_in +` committed tokens.
    pub fn cache_bytes_at(&self, t: SimTime, kv_bytes_per_token: u64) -> u64 {
        let iters = self.committed_iters_at(t) as u64;
        self.requests
            .iter()
            .map(|r| (r.s_in as u64 + iters.min(r.s_out as u64)) * kv_bytes_per_token)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim::ModelSpec;
    use workload::RequestId;

    fn perf() -> PerfModel {
        PerfModel::paper_defaults(ModelSpec::opt_6_7b())
    }

    fn reqs(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| Request::new(RequestId(i), SimTime::ZERO, 512, 128))
            .collect()
    }

    fn cfg() -> ParallelConfig {
        ParallelConfig::new(1, 1, 4, 8)
    }

    #[test]
    fn fresh_batch_matches_exec_latency() {
        let p = perf();
        let run = BatchRun::start(reqs(1), &cfg(), SimTime::ZERO, &p);
        let anchor = p.exec_latency(&ParallelConfig::new(1, 1, 4, 1));
        let got = run.finish_time().saturating_since(SimTime::ZERO);
        // finish = prefill + 127·iter vs Eq.(1)'s prefill + 128·iter (the
        // prefill itself emits the first token): within one iteration.
        let diff = anchor.saturating_sub(got);
        assert!(
            diff <= run.iter_time(),
            "batch {got} vs Eq.(1) {anchor} (iter {})",
            run.iter_time()
        );
    }

    #[test]
    fn commitment_is_monotone_and_complete() {
        let run = BatchRun::start(reqs(4), &cfg(), SimTime::from_secs(5), &perf());
        let mut last = 0;
        let finish = run.finish_time();
        let span = finish.saturating_since(SimTime::from_secs(5));
        for i in 0..=100u64 {
            let t = SimTime::from_secs(5) + span.mul_f64(i as f64 / 100.0);
            let c = run.committed_iters_at(t);
            assert!(c >= last, "monotone");
            last = c;
        }
        assert_eq!(last, 128);
        assert_eq!(run.committed_iters_at(SimTime::MAX), 128);
    }

    #[test]
    fn no_tokens_before_prefill_completes() {
        let run = BatchRun::start(reqs(8), &cfg(), SimTime::ZERO, &perf());
        let just_before = SimTime::from_micros(run.first_token_at.as_micros() - 1);
        assert_eq!(run.committed_iters_at(just_before), 0);
        assert_eq!(run.committed_iters_at(run.first_token_at), 1);
    }

    #[test]
    fn resume_skips_prefill() {
        let p = perf();
        let fresh = BatchRun::start(reqs(2), &cfg(), SimTime::ZERO, &p);
        let resumed = BatchRun::resume(reqs(2), &cfg(), SimTime::ZERO, &p, 100);
        assert!(resumed.finish_time() < fresh.finish_time());
        // 28 tokens remain; the run takes 28 iterations.
        let expect = SimTime::ZERO + resumed.iter_time() * 28;
        assert_eq!(resumed.finish_time(), expect);
        assert_eq!(resumed.committed_iters_at(SimTime::ZERO), 100);
    }

    #[test]
    fn cache_grows_with_commitment() {
        let model = ModelSpec::opt_6_7b();
        let kv = model.kv_bytes_per_token();
        let run = BatchRun::start(reqs(2), &cfg(), SimTime::ZERO, &perf());
        let at_start = run.cache_bytes_at(SimTime::ZERO, kv);
        assert_eq!(at_start, 2 * 512 * kv, "prompt KV counted immediately");
        let at_end = run.cache_bytes_at(run.finish_time(), kv);
        assert_eq!(at_end, 2 * (512 + 128) * kv);
    }

    #[test]
    #[should_panic(expected = "exceeds B=")]
    fn oversized_batch_panics() {
        BatchRun::start(reqs(9), &cfg(), SimTime::ZERO, &perf());
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn resume_beyond_end_panics() {
        BatchRun::resume(reqs(1), &cfg(), SimTime::ZERO, &perf(), 128);
    }

    #[test]
    fn bigger_batches_take_longer_but_not_linearly() {
        let p = perf();
        let one = BatchRun::start(reqs(1), &cfg(), SimTime::ZERO, &p);
        let eight = BatchRun::start(reqs(8), &cfg(), SimTime::ZERO, &p);
        let t1 = one
            .finish_time()
            .saturating_since(SimTime::ZERO)
            .as_secs_f64();
        let t8 = eight
            .finish_time()
            .saturating_since(SimTime::ZERO)
            .as_secs_f64();
        assert!(t8 > t1);
        assert!(t8 < 4.0 * t1, "batching is efficient: {t1} vs {t8}");
    }
}
