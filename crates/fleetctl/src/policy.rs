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
    /// inflating it when the preemption-rate estimator observes churn.
    SpotHedge {
        /// Floor on the hedge (extra instances beyond target), applied
        /// even when the estimator sees no churn and one pool could
        /// absorb everything.
        min_hedge: u32,
        /// Ceiling on the hedge: over-provisioning is a cost knob, and
        /// this caps what churn can inflate it to.
        max_hedge: u32,
        /// Also fall back to on-demand when even the hedged spread cannot
        /// reach `target` (every pool short on capacity at once).
        ondemand_backstop: bool,
    },
    /// [`FleetPolicy::SpotHedge`] for heterogeneous fleets: pools whose
    /// SKU cannot host the model are excluded outright, the hedged spread
    /// biases its remainder toward the cheapest spot pools (same share
    /// multiset as the even spread, so one-outage survivability is
    /// unchanged), and the on-demand backstop lands in the *cheapest
    /// capable* pool's SKU instead of pool 0's.
    CostAwareHedge {
        /// Floor on the hedge, as in [`FleetPolicy::SpotHedge`].
        min_hedge: u32,
        /// Ceiling on the hedge, as in [`FleetPolicy::SpotHedge`].
        max_hedge: u32,
        /// Bridge to on-demand (in the cheapest capable pool) when the
        /// hedged spread cannot reach `target`.
        ondemand_backstop: bool,
    },
    /// [`FleetPolicy::CostAwareHedge`] optimizing $ per token under
    /// *dynamic* spot prices: pools whose current spot price has spiked
    /// to at or past `parity_permille`/1000 of their on-demand price are
    /// masked out of the spot spread entirely — preemptible capacity at
    /// on-demand parity buys nothing but risk — and on-demand (in the
    /// cheapest capable pool) bridges whatever the cheap pools cannot
    /// reach. Price spikes also feed the preemption estimator as an
    /// anticipatory kill signal, widening the hedge *before* the
    /// price-correlated kills land.
    CostPerToken {
        /// Floor on the hedge, as in [`FleetPolicy::SpotHedge`].
        min_hedge: u32,
        /// Ceiling on the hedge, as in [`FleetPolicy::SpotHedge`].
        max_hedge: u32,
        /// Spot/on-demand parity threshold, in permille: spot at or above
        /// `parity_permille`/1000 of on-demand masks the pool. `900`
        /// means "stop riding spot once it costs 90% of guaranteed
        /// capacity".
        parity_permille: u32,
    },
}

impl FleetPolicy {
    /// The default [`FleetPolicy::SpotHedge`] tuning: hedge between 1 and
    /// 8 instances, on-demand backstop enabled.
    pub fn spot_hedge() -> Self {
        FleetPolicy::SpotHedge {
            min_hedge: 1,
            max_hedge: 8,
            ondemand_backstop: true,
        }
    }

    /// The default [`FleetPolicy::CostAwareHedge`] tuning: the
    /// [`FleetPolicy::spot_hedge`] bounds, with the backstop routed by
    /// price.
    pub fn cost_aware_hedge() -> Self {
        FleetPolicy::CostAwareHedge {
            min_hedge: 1,
            max_hedge: 8,
            ondemand_backstop: true,
        }
    }

    /// The default [`FleetPolicy::CostPerToken`] tuning: the
    /// [`FleetPolicy::spot_hedge`] bounds with a 90% price-parity
    /// threshold.
    pub fn cost_per_token() -> Self {
        FleetPolicy::CostPerToken {
            min_hedge: 1,
            max_hedge: 8,
            parity_permille: 900,
        }
    }

    /// The hedge's `(min_hedge, max_hedge)` bounds; `None` for the
    /// policies that do not hedge.
    pub(crate) fn hedge_bounds(&self) -> Option<(u32, u32)> {
        match *self {
            FleetPolicy::SpotHedge {
                min_hedge,
                max_hedge,
                ..
            }
            | FleetPolicy::CostAwareHedge {
                min_hedge,
                max_hedge,
                ..
            }
            | FleetPolicy::CostPerToken {
                min_hedge,
                max_hedge,
                ..
            } => Some((min_hedge, max_hedge)),
            FleetPolicy::ReactiveSpot | FleetPolicy::OnDemandFallback => None,
        }
    }

    /// Whether this policy spreads a hedge across pools — the policies
    /// that feed and honor the request tracker's deadlines, backoff masks
    /// and escalation verdicts. The single-market policies retry blindly
    /// at every steer; the fallback already rides on-demand continuously.
    pub fn is_hedged(&self) -> bool {
        self.hedge_bounds().is_some()
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

    #[test]
    fn cost_per_token_defaults_stop_short_of_parity() {
        let FleetPolicy::CostPerToken {
            min_hedge,
            max_hedge,
            parity_permille,
        } = FleetPolicy::cost_per_token()
        else {
            panic!("cost_per_token() must build a CostPerToken");
        };
        assert!(min_hedge <= max_hedge);
        assert!(
            parity_permille < 1000,
            "the default must bail out strictly below on-demand parity"
        );
    }

    #[test]
    fn hedge_defaults_are_bounded() {
        let FleetPolicy::SpotHedge {
            min_hedge,
            max_hedge,
            ondemand_backstop,
        } = FleetPolicy::spot_hedge()
        else {
            panic!("spot_hedge() must build a SpotHedge");
        };
        assert!(min_hedge <= max_hedge);
        assert!(ondemand_backstop);
    }
}
