//! The just-in-time interruption arranger (§4.1).
//!
//! When a grace period starts, the arranger decides how long the engine
//! keeps decoding before handing its GPUs to the migration:
//!
//! * **preemption** — *maximize* the iterations run inside the grace
//!   period: decode until just enough time remains for context migration
//!   (`S_t = argmax { l_exe(S) < T⁻ − T_mig }`);
//! * **acquisition** — *minimize* early stopping: keep serving with the
//!   current configuration until the new instance finishes initializing
//!   (`S_t = argmin { l_exe(S) ≥ T⁺ }`), since migration happens *after*
//!   the acquisition completes. The serving loop does this itself: it
//!   re-plans only when a granted instance's initialization is done;
//! * in both cases recovery must not hurt: if migrating the cache costs
//!   more than recomputing the committed tokens, plain rerouting wins.

use simkit::{SimDuration, SimTime};

/// The instant at which a preempted engine must stop decoding so that
/// context migration (estimated at `migration_estimate`, plus a safety
/// margin for estimate error, §4.2) completes before `kill_at`.
///
/// Never earlier than `now`: if the margin is already blown, stop
/// immediately.
///
/// # Example
///
/// ```
/// use enginesim::preemption_stop_time;
/// use simkit::{SimDuration, SimTime};
///
/// let now = SimTime::from_secs(100);
/// let kill = SimTime::from_secs(130);
/// let stop = preemption_stop_time(now, kill, SimDuration::from_secs(8), SimDuration::from_secs(2));
/// assert_eq!(stop, SimTime::from_secs(120));
/// ```
pub fn preemption_stop_time(
    now: SimTime,
    kill_at: SimTime,
    migration_estimate: SimDuration,
    safety_margin: SimDuration,
) -> SimTime {
    let budget = kill_at.saturating_since(now);
    let reserve = migration_estimate + safety_margin;
    let decode_window = budget.saturating_sub(reserve);
    now + decode_window
}

/// Whether migrating the cache context beats recomputation: the paper's
/// guard `T_mig < l_exe(S_t | C_t)` — recomputing the committed tokens
/// (initial phase + `committed` decode iterations) must cost more than the
/// migration, otherwise plain rerouting is cheaper (§4.1).
pub fn recovery_worthwhile(
    migration_estimate: SimDuration,
    prefill_time: SimDuration,
    iter_time: SimDuration,
    committed: u32,
) -> bool {
    if committed == 0 {
        return false;
    }
    let recompute = prefill_time + iter_time * committed as u64;
    migration_estimate < recompute
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRun;
    use llmsim::ModelSpec;
    use parallelism::{ParallelConfig, PerfModel};
    use workload::{Request, RequestId};

    fn batch() -> BatchRun {
        let perf = PerfModel::paper_defaults(ModelSpec::opt_6_7b());
        let cfg = ParallelConfig::new(1, 1, 4, 8);
        let reqs: Vec<Request> = (0..2)
            .map(|i| Request::new(RequestId(i), SimTime::ZERO, 512, 128))
            .collect();
        BatchRun::start(reqs, &cfg, SimTime::ZERO, &perf)
    }

    #[test]
    fn stop_time_reserves_migration_window() {
        let now = SimTime::from_secs(0);
        let kill = SimTime::from_secs(30);
        let stop = preemption_stop_time(now, kill, SimDuration::from_secs(10), SimDuration::ZERO);
        assert_eq!(stop, SimTime::from_secs(20));
    }

    #[test]
    fn blown_margin_stops_immediately() {
        let now = SimTime::from_secs(100);
        let kill = SimTime::from_secs(105);
        let stop = preemption_stop_time(
            now,
            kill,
            SimDuration::from_secs(10),
            SimDuration::from_secs(2),
        );
        assert_eq!(stop, now);
    }

    #[test]
    fn preemption_maximizes_iterations() {
        // With a longer grace period, strictly more tokens get committed
        // before the stop.
        let b = batch();
        let t_mig = SimDuration::from_secs(1);
        let stop_short = preemption_stop_time(
            SimTime::ZERO,
            SimTime::from_secs(3),
            t_mig,
            SimDuration::ZERO,
        );
        let stop_long = preemption_stop_time(
            SimTime::ZERO,
            SimTime::from_secs(5),
            t_mig,
            SimDuration::ZERO,
        );
        let short = b.committed_iters_at(stop_short);
        let long = b.committed_iters_at(stop_long);
        assert!(long > short, "{short} vs {long}");
        assert!(long < b.total_iters(), "batch must still be in flight");
    }

    #[test]
    fn recovery_not_worth_it_for_no_progress() {
        assert!(!recovery_worthwhile(
            SimDuration::from_millis(1),
            SimDuration::from_secs(1),
            SimDuration::from_millis(50),
            0
        ));
    }

    #[test]
    fn recovery_worth_it_for_deep_progress() {
        // 100 committed tokens at 50 ms each + 1 s prefill = 6 s to redo;
        // a 2 s migration is clearly worth it.
        assert!(recovery_worthwhile(
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
            SimDuration::from_millis(50),
            100
        ));
        // ... but not if migration costs 10 s.
        assert!(!recovery_worthwhile(
            SimDuration::from_secs(10),
            SimDuration::from_secs(1),
            SimDuration::from_millis(50),
            100
        ));
    }
}
