//! Policy-driven fleet controller for multi-pool spot markets.
//!
//! SpotServe (§8) reacts to whatever a single spot market grants: when the
//! trace shrinks, the fleet shrinks, and serving degrades until capacity
//! returns. This crate adds the *proactive* layer that SkyServe argues for
//! (spread spot capacity across pools and hedge with a small
//! over-provision) and that ShuntServe motivates for heterogeneous spot
//! clusters: a [`FleetController`] that sits between the serving system
//! and the [`cloudsim::CloudMarket`], observes grants and preemptions, and
//! decides *where* and *what kind* of capacity to acquire.
//!
//! The controller is the serving system's only acquisition path: every
//! system, under every policy, asks it what to request, cancel and
//! release. Five [`FleetPolicy`]s are provided:
//!
//! * [`FleetPolicy::ReactiveSpot`] — the paper baseline (Algorithm 1
//!   lines 6–10): grow the single market's (pool 0's) spot fleet toward
//!   the optimizer's target plus spares, top it back up after losses,
//!   shed what lies beyond it, never buy on-demand.
//! * [`FleetPolicy::OnDemandFallback`] — the same single-market arm, but
//!   whenever live capacity falls below the optimizer's target `N`, top
//!   up with on-demand instances (released first once spot recovers).
//!   This is the paper's `+O` traces: availability becomes a cost knob
//!   instead of a trace artifact.
//! * [`FleetPolicy::SpotHedge`] — SkyServe-style: spread `target + hedge`
//!   instances evenly across pools (capacity-capped water-filling), sizing
//!   the hedge so that losing any *single* pool still leaves at least
//!   `target` live instances, inflated further when the
//!   [`PreemptionEstimator`] observes churn.
//! * [`FleetPolicy::CostAwareHedge`] — the hedge for heterogeneous
//!   fleets: each pool carries a [`PoolCaps`] capability/price card,
//!   incapable SKUs are excluded, the spread biases toward cheap spot,
//!   and the on-demand backstop lands in the cheapest capable pool.
//! * [`FleetPolicy::CostPerToken`] — the cost-aware hedge under *dynamic*
//!   spot prices: pools whose spot price spikes to parity with on-demand
//!   are masked from the spread, on-demand bridges the gap, and price
//!   spikes feed the [`PreemptionEstimator`] as an anticipatory
//!   (price-correlated) kill signal.
//!
//! The controller is pure decision logic over a [`FleetView`] snapshot —
//! it holds no cloud handles — which keeps it deterministic, replayable,
//! and unit-testable without a simulation loop.

pub mod controller;
pub mod estimator;
pub mod policy;
pub mod tracker;

pub use controller::{FleetCommand, FleetController, FleetView, PoolCaps, PoolView};
pub use estimator::PreemptionEstimator;
pub use policy::{FleetPolicy, MAX_HEDGE, MIN_HEDGE, PARITY_PERMILLE};
pub use tracker::{RequestTracker, RetryDecision};

/// Spreads `total` instances across pools by capacity-capped round-robin
/// water-filling: one instance at a time, pool 0 first, skipping pools
/// whose capacity is exhausted. Deterministic; a pool in outage
/// (capacity 0) receives nothing and its share flows to the others.
///
/// # Example
///
/// ```
/// assert_eq!(fleetctl::spread(7, &[3, 10, 10]), vec![3, 2, 2]);
/// assert_eq!(fleetctl::spread(6, &[0, 4, 4]), vec![0, 3, 3]);
/// ```
pub fn spread(total: u32, caps: &[u32]) -> Vec<u32> {
    let mut alloc = vec![0u32; caps.len()];
    let mut left = total;
    loop {
        let mut progressed = false;
        for (a, &cap) in alloc.iter_mut().zip(caps) {
            if left == 0 {
                return alloc;
            }
            if *a < cap {
                *a += 1;
                left -= 1;
                progressed = true;
            }
        }
        if !progressed {
            return alloc; // every pool is at capacity
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_even_when_capacity_allows() {
        assert_eq!(spread(6, &[10, 10, 10]), vec![2, 2, 2]);
        assert_eq!(spread(7, &[10, 10, 10]), vec![3, 2, 2]);
    }

    #[test]
    fn spread_respects_capacity_and_redistributes() {
        assert_eq!(spread(9, &[1, 10, 10]), vec![1, 4, 4]);
        assert_eq!(spread(4, &[0, 0, 10]), vec![0, 0, 4]);
    }

    #[test]
    fn spread_saturates_at_total_capacity() {
        assert_eq!(spread(100, &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(spread(0, &[5, 5]), vec![0, 0]);
        assert_eq!(spread(5, &[]), Vec::<u32>::new());
    }
}
