//! Acquisition policies: how the fleet reacts to a spot market.

/// How the fleet controller acquires and sheds capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetPolicy {
    /// The paper's spot-only path (§3.2, Algorithm 1 lines 6-10): grow
    /// the single market's (pool 0's) spot fleet toward the optimizer's
    /// target plus spares, top it back up after losses, cancel queued
    /// requests and release idle instances beyond it. Never buys
    /// on-demand.
    #[default]
    ReactiveSpot,
    /// [`FleetPolicy::ReactiveSpot`] plus on-demand: the paper's `+O`
    /// traces. Whenever live spot plus held and pending on-demand falls
    /// below the target, request on-demand instances to cover the gap;
    /// they count toward the spot request, and they release first once
    /// spot recovers (Algorithm 1 line 10's release priority).
    OnDemandFallback,
    /// SkyServe-style hedge: spread `target + hedge` spot instances across
    /// every pool (capacity-capped even spread), sizing `hedge` so that a
    /// full single-pool outage still leaves `target` live instances, and
    /// inflating it when the preemption-rate estimator observes churn,
    /// within [`MIN_HEDGE`]..=[`MAX_HEDGE`]. On-demand bridges whatever
    /// the hedged spread cannot reach (every pool short at once).
    SpotHedge,
    /// [`FleetPolicy::SpotHedge`] for heterogeneous fleets: pools whose
    /// SKU cannot host the model are excluded outright, the hedged spread
    /// biases its remainder toward the cheapest spot pools (same share
    /// multiset as the even spread, so one-outage survivability is
    /// unchanged), and the on-demand backstop lands in the *cheapest
    /// capable* pool's SKU instead of pool 0's.
    CostAwareHedge,
    /// [`FleetPolicy::CostAwareHedge`] optimizing $ per token under
    /// *dynamic* spot prices: pools whose current spot price has spiked
    /// to at or past [`PARITY_PERMILLE`]/1000 of their on-demand price are
    /// masked out of the spot spread entirely — preemptible capacity at
    /// on-demand parity buys nothing but risk — and on-demand (in the
    /// cheapest capable pool) bridges whatever the cheap pools cannot
    /// reach. Price spikes also feed the preemption estimator as an
    /// anticipatory kill signal, widening the hedge *before* the
    /// price-correlated kills land.
    CostPerToken,
}

/// Floor on the hedge (extra instances beyond target), applied even when
/// the estimator sees no churn and one pool could absorb everything.
pub const MIN_HEDGE: u32 = 1;

/// Ceiling on the hedge: over-provisioning is a cost knob, and this caps
/// what churn can inflate it to.
pub const MAX_HEDGE: u32 = 8;

/// [`FleetPolicy::CostPerToken`]'s spot/on-demand parity threshold, in
/// permille: spot at or above `PARITY_PERMILLE`/1000 of on-demand masks
/// the pool. `900` means "stop riding spot once it costs 90% of
/// guaranteed capacity".
pub const PARITY_PERMILLE: u32 = 900;

// The hedge bounds are ordered, and the parity threshold neither masks
// every pool (0) nor waits past on-demand parity (1000).
const _: () = assert!(MIN_HEDGE <= MAX_HEDGE && 0 < PARITY_PERMILLE && PARITY_PERMILLE < 1000);

impl FleetPolicy {
    /// [`FleetPolicy::SpotHedge`].
    pub fn spot_hedge() -> Self {
        FleetPolicy::SpotHedge
    }

    /// [`FleetPolicy::CostAwareHedge`].
    pub fn cost_aware_hedge() -> Self {
        FleetPolicy::CostAwareHedge
    }

    /// [`FleetPolicy::CostPerToken`].
    pub fn cost_per_token() -> Self {
        FleetPolicy::CostPerToken
    }

    /// Whether this policy spreads a hedge across pools — the policies
    /// that feed and honor the request tracker's deadlines, backoff masks
    /// and escalation verdicts. The single-market policies retry blindly
    /// at every steer; the fallback already rides on-demand continuously.
    pub fn is_hedged(&self) -> bool {
        matches!(
            self,
            FleetPolicy::SpotHedge | FleetPolicy::CostAwareHedge | FleetPolicy::CostPerToken
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactive_is_the_default() {
        assert_eq!(FleetPolicy::default(), FleetPolicy::ReactiveSpot);
        assert!(!FleetPolicy::default().is_hedged());
        assert!(FleetPolicy::spot_hedge().is_hedged());
    }
}
