//! Spot pools: independent capacity markets behind one provider.
//!
//! SpotServe's evaluation assumes a single homogeneous spot market — one
//! availability trace, one price. Real clouds expose *several* pools
//! (availability zones, or the same zone under different SKUs), each with
//! its own capacity dynamics, provisioning latency, and spot price.
//! SkyServe-style policies exploit exactly this: spreading a fleet across
//! pools turns a single-zone capacity collapse from an outage into a
//! re-spread. A [`PoolSpec`] describes one such pool; the
//! [`CloudMarket`](crate::CloudMarket) arbiter replays all of them behind
//! one event stream.

use simkit::SimDuration;

use crate::faults::FaultSpec;
use crate::instance::{InstanceId, InstanceType};
use crate::price::PriceModel;
use crate::trace::AvailabilityTrace;

/// Identifier of one spot pool (e.g. one availability zone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u32);

impl std::fmt::Display for PoolId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "z{}", self.0)
    }
}

/// Instance-id namespace stride per pool: pool `i` allocates ids starting
/// at `i * POOL_ID_STRIDE`, so an [`InstanceId`] encodes its pool and ids
/// never collide across pools. Pool 0 starts at 0 — single-pool id
/// sequences are exactly the pre-multi-pool ones.
pub const POOL_ID_STRIDE: u64 = 1 << 40;

impl PoolId {
    /// The pool that allocated `id` (ids encode their pool; see
    /// [`POOL_ID_STRIDE`]).
    pub fn of_instance(id: InstanceId) -> PoolId {
        PoolId((id.0 / POOL_ID_STRIDE) as u32)
    }
}

/// One spot pool of a multi-pool scenario: its own availability trace and,
/// optionally, its own provisioning delay, spot-price process, and
/// instance type (pools left at `None` inherit the scenario's
/// [`CloudConfig`](crate::CloudConfig)).
///
/// # Example
///
/// ```
/// use cloudsim::{AvailabilityTrace, PoolSpec, PriceModel};
/// use simkit::SimDuration;
///
/// let pool = PoolSpec::new("us-east-1b", AvailabilityTrace::constant(6))
///     .with_spot_price(1.4)
///     .with_grant_delay(SimDuration::from_secs(55));
/// assert_eq!(pool.price, Some(PriceModel::Constant(1.4)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Human-readable pool name (zone label), used in cost breakdowns.
    pub name: String,
    /// Spot-capacity trace this pool replays.
    pub trace: AvailabilityTrace,
    /// Provisioning delay override for this pool (`None` = cloud default).
    pub spot_grant_delay: Option<SimDuration>,
    /// Spot-price process of this pool (`None` = the instance type's list
    /// spot price, forever). Pools price independently in real markets;
    /// see [`PriceModel`] for the dynamics on offer.
    pub price: Option<PriceModel>,
    /// Instance type this pool leases (`None` = the scenario's default
    /// type). Real spot markets are heterogeneous: the pool where capacity
    /// reappears after a preemption is rarely the SKU that was lost.
    pub instance_type: Option<InstanceType>,
    /// Adversarial fault injection for this pool (`None` = the polite
    /// cloud: every kill is noticed, every grant fires, links run at
    /// list bandwidth). See [`FaultSpec`] for the taxonomy.
    pub faults: Option<FaultSpec>,
}

impl PoolSpec {
    /// A pool named `name` replaying `trace`, inheriting every other
    /// tunable from the scenario's cloud configuration.
    pub fn new(name: impl Into<String>, trace: AvailabilityTrace) -> Self {
        PoolSpec {
            name: name.into(),
            trace,
            spot_grant_delay: None,
            price: None,
            instance_type: None,
            faults: None,
        }
    }

    /// Overrides this pool's provisioning delay.
    pub fn with_grant_delay(mut self, delay: SimDuration) -> Self {
        self.spot_grant_delay = Some(delay);
        self
    }

    /// Gives this pool a spot-price process (see [`PriceModel`]).
    pub fn with_price(mut self, price: PriceModel) -> Self {
        self.price = Some(price);
        self
    }

    /// Overrides this pool's spot price with a fixed value (USD per
    /// instance-hour) — a thin wrapper over
    /// [`PriceModel::Constant`], kept for the pre-dynamics call sites and
    /// pinned bit-identical to them in the determinism suite.
    pub fn with_spot_price(self, usd_per_hour: f64) -> Self {
        self.with_price(PriceModel::Constant(usd_per_hour))
    }

    /// Makes this pool lease `ty` instead of the scenario's default type.
    ///
    /// # Example
    ///
    /// ```
    /// use cloudsim::{AvailabilityTrace, InstanceType, PoolSpec};
    ///
    /// let pool = PoolSpec::new("l4-east", AvailabilityTrace::constant(8))
    ///     .with_instance_type(InstanceType::l4());
    /// assert_eq!(pool.instance_type.unwrap().gpu.name, "L4");
    /// ```
    pub fn with_instance_type(mut self, ty: InstanceType) -> Self {
        self.instance_type = Some(ty);
        self
    }

    /// Turns on deterministic fault injection for this pool.
    ///
    /// # Example
    ///
    /// ```
    /// use cloudsim::{AvailabilityTrace, FaultSpec, PoolSpec};
    ///
    /// let pool = PoolSpec::new("chaos", AvailabilityTrace::constant(4))
    ///     .with_faults(FaultSpec::pack(0.5));
    /// assert_eq!(pool.faults, Some(FaultSpec::pack(0.5)));
    /// ```
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_encode_their_pool() {
        assert_eq!(PoolId::of_instance(InstanceId(0)), PoolId(0));
        assert_eq!(PoolId::of_instance(InstanceId(POOL_ID_STRIDE)), PoolId(1));
        assert_eq!(
            PoolId::of_instance(InstanceId(3 * POOL_ID_STRIDE + 17)),
            PoolId(3)
        );
    }

    #[test]
    fn display_is_zone_style() {
        assert_eq!(format!("{}", PoolId(2)), "z2");
    }

    #[test]
    fn overrides_default_to_inherit() {
        let p = PoolSpec::new("z", AvailabilityTrace::constant(1));
        assert_eq!(p.spot_grant_delay, None);
        assert_eq!(p.price, None);
        assert_eq!(p.instance_type, None);
        assert_eq!(p.faults, None);
    }

    #[test]
    fn with_spot_price_is_the_constant_model() {
        let p = PoolSpec::new("z", AvailabilityTrace::constant(1)).with_spot_price(1.4);
        assert_eq!(p.price, Some(PriceModel::Constant(1.4)));
    }
}
