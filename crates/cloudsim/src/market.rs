//! The multi-pool arbiter: several spot pools behind one event stream.
//!
//! A [`CloudMarket`] owns one [`CloudSim`] per [`PoolSpec`] and merges
//! their event streams deterministically (earliest timestamp first, ties
//! broken by pool index). Each pool replays its own
//! [`AvailabilityTrace`], applies its own grant delay and spot price, and
//! meters its own bill; the market exposes both the merged legacy surface
//! (so a single-pool market is a drop-in, bit-exact replacement for a bare
//! [`CloudSim`]) and pool-addressed commands for policy-driven acquisition
//! (see the `fleetctl` crate).
//!
//! Instance ids encode their pool ([`POOL_ID_STRIDE`](crate::POOL_ID_STRIDE)):
//! pool 0 allocates the exact id sequence a bare `CloudSim` would, which is
//! what keeps pre-multi-pool replays byte-identical.
//!
//! # Example
//!
//! ```
//! use cloudsim::{AvailabilityTrace, CloudConfig, CloudMarket, PoolId, PoolSpec};
//! use simkit::SimTime;
//!
//! let pools = vec![
//!     PoolSpec::new("us-east-1a", AvailabilityTrace::constant(4)),
//!     PoolSpec::new("us-east-1b", AvailabilityTrace::constant(2)).with_spot_price(1.4),
//! ];
//! let mut market = CloudMarket::new(&CloudConfig::default(), &pools, 7);
//! market.request_spot_in(SimTime::ZERO, PoolId(1), 1);
//! let (_, ev) = market.pop_next().expect("grant");
//! assert_eq!(PoolId::of_instance(ev.instance().unwrap()), PoolId(1));
//! ```

use simkit::SimTime;
use telemetry::{Record, Recorder, TelemetryEvent};

use crate::events::CloudEvent;
use crate::instance::{InstanceId, InstanceKind, InstanceType};
use crate::pool::{PoolId, PoolSpec};
use crate::price::PriceModel;
use crate::provider::{CloudConfig, CloudSim, InstanceInfo};
use crate::trace::AvailabilityTrace;

/// Spend attributed to one pool, split by billing kind.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolCost {
    /// The pool.
    pub pool: PoolId,
    /// The pool's human-readable name.
    pub name: String,
    /// The SKU this pool leases (the instance type's name).
    pub sku: &'static str,
    /// USD spent on spot leases in this pool.
    pub spot_usd: f64,
    /// USD spent on on-demand leases in this pool.
    pub ondemand_usd: f64,
}

/// Per-kind / per-pool cost attribution for one run.
///
/// The per-kind split is accumulated independently of the authoritative
/// total (see [`crate::BillingMeter::usd_of_kind`]), so the sums here may
/// differ from [`CloudMarket::total_usd`] by a float ulp.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostBreakdown {
    /// One entry per pool, in pool order.
    pub pools: Vec<PoolCost>,
}

impl CostBreakdown {
    /// Total spot spend across pools.
    pub fn spot_usd(&self) -> f64 {
        self.pools.iter().map(|p| p.spot_usd).sum()
    }

    /// Total on-demand spend across pools.
    pub fn ondemand_usd(&self) -> f64 {
        self.pools.iter().map(|p| p.ondemand_usd).sum()
    }

    /// Spot plus on-demand spend (may differ from the authoritative meter
    /// total by a float ulp; see the type-level docs).
    pub fn total_usd(&self) -> f64 {
        self.spot_usd() + self.ondemand_usd()
    }
}

/// Several spot pools behind one deterministic event stream.
///
/// See the [module docs](self) for the merge rules. All legacy
/// (pool-less) commands address pool 0, which makes a single-pool market
/// behave exactly like the bare [`CloudSim`] it wraps.
#[derive(Debug, Clone)]
pub struct CloudMarket {
    pools: Vec<CloudSim>,
    names: Vec<String>,
    /// Telemetry capture for delivered events, prewarms, and releases
    /// (disabled by default; see [`CloudMarket::enable_telemetry`]).
    telemetry: Recorder,
}

impl CloudMarket {
    /// A single-pool market: bit-exact with `CloudSim::new(cfg, trace,
    /// seed)` (same random stream, same id sequence, same event order).
    pub fn single(cfg: CloudConfig, trace: AvailabilityTrace, seed: u64) -> Self {
        CloudMarket {
            pools: vec![CloudSim::new(cfg, trace, seed)],
            names: vec!["default".to_string()],
            telemetry: Recorder::disabled(),
        }
    }

    /// A market of `specs.len()` pools. Pool `i` inherits `base` with its
    /// spec's instance-type / grant-delay / spot-price overrides applied
    /// (the price override applies on top of the pool's own SKU), replays
    /// its own trace, and draws from its own random stream.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(base: &CloudConfig, specs: &[PoolSpec], seed: u64) -> Self {
        assert!(!specs.is_empty(), "a market needs at least one pool");
        let pools = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut cfg = base.clone();
                if let Some(ty) = &spec.instance_type {
                    cfg.instance_type = ty.clone();
                }
                if let Some(d) = spec.spot_grant_delay {
                    cfg.spot_grant_delay = d;
                }
                // A constant price model takes the legacy list-price
                // override path (bit-exact with the pre-dynamics market);
                // dynamic models ride into the provider whole.
                if let Some(p) = spec.price.as_ref().and_then(PriceModel::constant_price) {
                    cfg.instance_type.spot_price_per_hour = p;
                }
                CloudSim::for_pool_faulted(
                    cfg,
                    spec.trace.clone(),
                    seed,
                    PoolId(i as u32),
                    spec.price.as_ref(),
                    spec.faults.as_ref(),
                )
            })
            .collect();
        CloudMarket {
            pools,
            names: specs.iter().map(|s| s.name.clone()).collect(),
            telemetry: Recorder::disabled(),
        }
    }

    // ---- Telemetry --------------------------------------------------

    /// Switches on event capture: every delivered [`CloudEvent`], every
    /// prewarmed grant, and every voluntary release is recorded as a
    /// [`TelemetryEvent`]. Capture is observation-only — it never
    /// changes the event stream, ids, or billing.
    pub fn enable_telemetry(&mut self) {
        self.telemetry.enable();
    }

    /// Takes the captured telemetry records (empty when disabled).
    pub fn take_telemetry(&mut self) -> Vec<Record> {
        self.telemetry.take()
    }

    /// Records the telemetry mirror of a delivered cloud event.
    fn note_event(&mut self, t: SimTime, ev: &CloudEvent) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let tev = match *ev {
            CloudEvent::SpotGranted { id } => TelemetryEvent::InstanceGrant {
                pool: PoolId::of_instance(id).0,
                instance: id.0,
                ondemand: false,
            },
            CloudEvent::OnDemandGranted { id } => TelemetryEvent::InstanceGrant {
                pool: PoolId::of_instance(id).0,
                instance: id.0,
                ondemand: true,
            },
            CloudEvent::PreemptionNotice { id, kill_at } => TelemetryEvent::KillNotice {
                pool: PoolId::of_instance(id).0,
                instance: id.0,
                kill_at_us: kill_at.as_micros(),
            },
            CloudEvent::Preempted { id } => TelemetryEvent::InstanceKill {
                pool: PoolId::of_instance(id).0,
                instance: id.0,
            },
            CloudEvent::SpotPriceStep {
                pool,
                cents_per_hour,
            } => TelemetryEvent::PriceStep {
                pool: pool.0,
                cents_per_hour,
            },
            CloudEvent::InstanceFailed { id } => TelemetryEvent::Fault {
                pool: PoolId::of_instance(id).0,
                instance: id.0,
            },
            CloudEvent::RequestLapsed { pool, kind } => TelemetryEvent::RequestLapsed {
                pool: pool.0,
                ondemand: kind == InstanceKind::OnDemand,
            },
        };
        self.telemetry.emit(t, tev);
    }

    /// Records grants for prewarmed instances (they never appear in the
    /// event stream, so the telemetry stream grants them at `t = 0`).
    fn note_prewarm(&mut self, pool: PoolId, ids: &[InstanceId], ondemand: bool) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for &id in ids {
            self.telemetry.emit(
                SimTime::ZERO,
                TelemetryEvent::InstanceGrant {
                    pool: pool.0,
                    instance: id.0,
                    ondemand,
                },
            );
        }
    }

    /// Number of pools in this market.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// Read-only view of one pool's provider.
    pub fn pool(&self, pool: PoolId) -> &CloudSim {
        &self.pools[pool.0 as usize]
    }

    fn pool_mut(&mut self, pool: PoolId) -> &mut CloudSim {
        &mut self.pools[pool.0 as usize]
    }

    // ---- Pool-addressed commands -----------------------------------

    /// Requests `n` spot instances from `pool` at `now`.
    pub fn request_spot_in(&mut self, now: SimTime, pool: PoolId, n: u32) {
        self.pool_mut(pool).request_spot(now, n);
    }

    /// Cancels up to `n` queued spot requests in `pool`, returning how
    /// many were cancelled.
    pub fn cancel_pending_spot_in(&mut self, pool: PoolId, n: u32) -> u32 {
        self.pool_mut(pool).cancel_pending_spot(n)
    }

    /// Immediately grants up to `n` spot instances in `pool` at `t = 0`
    /// (see [`CloudSim::prewarm_spot`]).
    pub fn prewarm_spot_in(&mut self, pool: PoolId, n: u32) -> Vec<InstanceId> {
        let ids = self.pool_mut(pool).prewarm_spot(n);
        self.note_prewarm(pool, &ids, false);
        ids
    }

    /// Current trace capacity of `pool`.
    pub fn capacity_in(&self, pool: PoolId) -> u32 {
        self.pool(pool).current_capacity()
    }

    /// Queued (not yet provisioning) spot requests in `pool`.
    pub fn pending_spot_in(&self, pool: PoolId) -> u32 {
        self.pool(pool).pending_spot()
    }

    /// Spot instances provisioning in `pool` (grant scheduled, not fired).
    pub fn provisioning_spot_in(&self, pool: PoolId) -> u32 {
        self.pool(pool).provisioning_spot()
    }

    /// The instance type `pool` leases.
    pub fn instance_type_in(&self, pool: PoolId) -> &InstanceType {
        &self.pool(pool).config().instance_type
    }

    /// The spot price in force in `pool` at `t` (USD per instance-hour).
    /// For pools without a [`PriceModel`] this is the SKU's list price;
    /// for priced pools it reads the pre-drawn path.
    pub fn spot_price_in(&self, pool: PoolId, t: SimTime) -> f64 {
        self.pool(pool).spot_price_at(t)
    }

    /// Cumulative spot requests in `pool` that will never be granted
    /// (launch failures plus injected grant lapses). The controller's
    /// shortfall signal — see [`CloudEvent::RequestLapsed`].
    pub fn lapsed_spot_in(&self, pool: PoolId) -> u32 {
        self.pool(pool).lapsed_spot()
    }

    /// The effective transfer-bandwidth multiplier of `pool` at `t`
    /// (`1.0` unless a degraded-link fault window is in force).
    pub fn bandwidth_factor_in(&self, pool: PoolId, t: SimTime) -> f64 {
        self.pool(pool).bandwidth_factor_at(t)
    }

    /// Requests `n` on-demand instances *of `pool`'s SKU* at `now` (billed
    /// against that pool). The pool-less [`request_on_demand`] routes to
    /// pool 0.
    ///
    /// [`request_on_demand`]: CloudMarket::request_on_demand
    pub fn request_on_demand_in(&mut self, now: SimTime, pool: PoolId, n: u32) {
        self.pool_mut(pool).request_on_demand(now, n);
    }

    // ---- Legacy (pool-0) surface -----------------------------------

    /// Prewarms `n` on-demand instances (granted by pool 0; on-demand
    /// capacity is pool-agnostic).
    pub fn prewarm_on_demand(&mut self, n: u32) -> Vec<InstanceId> {
        let ids = self.pools[0].prewarm_on_demand(n);
        self.note_prewarm(PoolId(0), &ids, true);
        ids
    }

    /// Requests `n` on-demand instances (granted by pool 0; on-demand
    /// capacity is unlimited and pool-agnostic).
    pub fn request_on_demand(&mut self, now: SimTime, n: u32) {
        self.pools[0].request_on_demand(now, n);
    }

    /// On-demand requests whose grant has not fired yet.
    pub fn pending_on_demand(&self) -> u32 {
        self.pools.iter().map(CloudSim::pending_on_demand).sum()
    }

    // ---- Merged views ----------------------------------------------

    /// Live leases across all pools, in pool order.
    pub fn fleet(&self) -> impl Iterator<Item = &InstanceInfo> {
        self.pools.iter().flat_map(CloudSim::fleet)
    }

    /// The billing kind of live lease `id`, read from its owning pool;
    /// `None` once the lease has ended.
    pub fn kind_of(&self, id: InstanceId) -> Option<InstanceKind> {
        self.pools
            .get(PoolId::of_instance(id).0 as usize)?
            .kind_of(id)
    }

    /// Releases a lease voluntarily; the id routes to its owning pool.
    pub fn release(&mut self, now: SimTime, id: InstanceId) {
        let pool = PoolId::of_instance(id);
        if (pool.0 as usize) < self.pools.len() {
            // Only a release that ends a live lease is telemetry-worthy
            // (releasing an already-dead id is a silent no-op below).
            let live = self.telemetry.is_enabled() && self.kind_of(id).is_some();
            self.pool_mut(pool).release(now, id);
            if live {
                self.telemetry.emit(
                    now,
                    TelemetryEvent::InstanceRelease {
                        pool: pool.0,
                        instance: id.0,
                    },
                );
            }
        }
    }

    /// Timestamp of the market's next event across all pools (see
    /// [`CloudSim::next_time`]); processes nothing.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.pools.iter_mut().filter_map(CloudSim::next_time).min()
    }

    /// Steps the pool whose next event is earliest, ties to the lowest
    /// pool index (see [`CloudSim::step`]): returns the event it hands
    /// out, or `None` when it only processed an internal event or no pool
    /// has anything left to do.
    pub fn step(&mut self) -> Option<(SimTime, CloudEvent)> {
        let i = self.earliest_pool()?;
        self.step_pool(i)
    }

    /// Steps until an event is delivered, and returns it (`None` once no
    /// pool has anything left to do): earliest timestamp first, ties
    /// toward the lowest pool index (deterministic merge).
    pub fn pop_next(&mut self) -> Option<(SimTime, CloudEvent)> {
        while let Some(i) = self.earliest_pool() {
            if let Some(ev) = self.step_pool(i) {
                return Some(ev);
            }
        }
        None
    }

    /// The pool whose next event is earliest, ties to the lowest index.
    fn earliest_pool(&mut self) -> Option<usize> {
        let mut best: Option<(SimTime, usize)> = None;
        for (i, pool) in self.pools.iter_mut().enumerate() {
            if let Some(t) = pool.next_time() {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    fn step_pool(&mut self, i: usize) -> Option<(SimTime, CloudEvent)> {
        let stepped = self.pools[i].step();
        if let Some((t, ev)) = &stepped {
            self.note_event(*t, ev);
        }
        stepped
    }

    // ---- Billing ---------------------------------------------------

    /// Total spend in USD as of `now`, summed over pools in pool order
    /// (one pool: exactly the bare meter's total).
    pub fn total_usd(&self, now: SimTime) -> f64 {
        self.pools.iter().map(|p| p.meter().total_usd(now)).sum()
    }

    /// Per-kind / per-pool cost attribution as of `now`.
    pub fn cost_breakdown(&self, now: SimTime) -> CostBreakdown {
        CostBreakdown {
            pools: self
                .pools
                .iter()
                .enumerate()
                .map(|(i, p)| PoolCost {
                    pool: PoolId(i as u32),
                    name: self.names[i].clone(),
                    sku: p.config().instance_type.name,
                    spot_usd: p.meter().usd_of_kind(InstanceKind::Spot, now),
                    ondemand_usd: p.meter().usd_of_kind(InstanceKind::OnDemand, now),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    fn drain_sim(c: &mut CloudSim) -> Vec<(SimTime, String)> {
        std::iter::from_fn(|| c.pop_next())
            .map(|(t, e)| (t, format!("{e:?}")))
            .collect()
    }

    fn drain_market(m: &mut CloudMarket) -> Vec<(SimTime, String)> {
        std::iter::from_fn(|| m.pop_next())
            .map(|(t, e)| (t, format!("{e:?}")))
            .collect()
    }

    #[test]
    fn single_pool_market_is_bit_exact_with_bare_cloudsim() {
        // Same trace, same seed, same commands: the merged stream, the ids,
        // and the bill must be *identical* — this is what keeps every
        // pre-multi-pool replay byte-identical.
        let trace = AvailabilityTrace::paper_bs();
        let mut sim = CloudSim::new(CloudConfig::default(), trace.clone(), 99);
        let mut market = CloudMarket::single(CloudConfig::default(), trace, 99);
        sim.request_spot(SimTime::ZERO, 10);
        market.request_spot_in(SimTime::ZERO, PoolId(0), 10);
        sim.request_on_demand(SimTime::from_secs(5), 2);
        market.request_on_demand(SimTime::from_secs(5), 2);
        assert_eq!(drain_sim(&mut sim), drain_market(&mut market));
        let end = SimTime::from_secs(1200);
        assert_eq!(
            sim.meter().total_usd(end).to_bits(),
            market.total_usd(end).to_bits(),
            "billing must be bit-exact"
        );
    }

    #[test]
    fn pools_allocate_disjoint_id_namespaces() {
        let pools = vec![
            PoolSpec::new("a", AvailabilityTrace::constant(2)),
            PoolSpec::new("b", AvailabilityTrace::constant(2)),
        ];
        let mut m = CloudMarket::new(&CloudConfig::default(), &pools, 7);
        m.request_spot_in(SimTime::ZERO, PoolId(0), 2);
        m.request_spot_in(SimTime::ZERO, PoolId(1), 2);
        let evs = drain_market(&mut m);
        assert_eq!(evs.len(), 4);
        let by_pool: Vec<PoolId> = m.fleet().map(|i| PoolId::of_instance(i.id)).collect();
        assert_eq!(by_pool.iter().filter(|p| p.0 == 0).count(), 2);
        assert_eq!(by_pool.iter().filter(|p| p.0 == 1).count(), 2);
    }

    #[test]
    fn merge_breaks_ties_by_pool_index() {
        let pools = vec![
            PoolSpec::new("a", AvailabilityTrace::constant(1)),
            PoolSpec::new("b", AvailabilityTrace::constant(1)),
        ];
        let mut m = CloudMarket::new(&CloudConfig::default(), &pools, 7);
        // Both grants land at t = 40: pool 0's must pop first.
        m.request_spot_in(SimTime::ZERO, PoolId(1), 1);
        m.request_spot_in(SimTime::ZERO, PoolId(0), 1);
        let (t0, e0) = m.pop_next().unwrap();
        let (t1, e1) = m.pop_next().unwrap();
        assert_eq!(t0, t1);
        assert_eq!(
            PoolId::of_instance(e0.instance().expect("grant")),
            PoolId(0)
        );
        assert_eq!(
            PoolId::of_instance(e1.instance().expect("grant")),
            PoolId(1)
        );
    }

    #[test]
    fn per_pool_price_and_grant_delay_overrides_apply() {
        let pools = vec![
            PoolSpec::new("list-price", AvailabilityTrace::constant(1)),
            PoolSpec::new("cheap-slow", AvailabilityTrace::constant(1))
                .with_spot_price(0.95)
                .with_grant_delay(SimDuration::from_secs(80)),
        ];
        let mut m = CloudMarket::new(&CloudConfig::default(), &pools, 7);
        m.request_spot_in(SimTime::ZERO, PoolId(0), 1);
        m.request_spot_in(SimTime::ZERO, PoolId(1), 1);
        let evs = drain_market(&mut m);
        assert_eq!(evs[0].0, SimTime::from_secs(40), "pool 0 keeps the default");
        assert_eq!(evs[1].0, SimTime::from_secs(80), "pool 1 is slower");
        // Run both leases one hour, then compare pool bills.
        let hour = |t: SimTime| t + SimDuration::from_secs(3600);
        let ids: Vec<InstanceId> = m.fleet().map(|i| i.id).collect();
        for id in ids {
            let granted = m.fleet().find(|i| i.id == id).unwrap().granted_at;
            m.release(hour(granted), id);
        }
        let end = SimTime::from_secs(10_000);
        let bd = m.cost_breakdown(end);
        assert!((bd.pools[0].spot_usd - 1.9).abs() < 1e-9);
        assert!((bd.pools[1].spot_usd - 0.95).abs() < 1e-9);
        assert_eq!(bd.ondemand_usd(), 0.0);
    }

    #[test]
    fn breakdown_splits_spot_from_on_demand() {
        let mut m = CloudMarket::single(CloudConfig::default(), AvailabilityTrace::constant(1), 7);
        let spot = m.prewarm_spot_in(PoolId(0), 1);
        let od = m.prewarm_on_demand(1);
        let end = SimTime::from_secs(3600);
        m.release(end, spot[0]);
        m.release(end, od[0]);
        let bd = m.cost_breakdown(end);
        assert!((bd.spot_usd() - 1.9).abs() < 1e-9);
        assert!((bd.ondemand_usd() - 3.9).abs() < 1e-9);
        assert!((bd.total_usd() - m.total_usd(end)).abs() < 1e-9);
    }

    #[test]
    fn per_pool_instance_types_flow_into_billing() {
        // A T4 pool and an L4 pool: each bills at its own SKU's list spot
        // price, and on-demand routed to a pool bills at that pool's SKU.
        let pools = vec![
            PoolSpec::new("t4", AvailabilityTrace::constant(2)),
            PoolSpec::new("l4", AvailabilityTrace::constant(2))
                .with_instance_type(InstanceType::l4()),
        ];
        let mut m = CloudMarket::new(&CloudConfig::default(), &pools, 7);
        assert_eq!(m.instance_type_in(PoolId(0)).name, "g4dn.12xlarge");
        assert_eq!(m.instance_type_in(PoolId(1)).name, "g6.12xlarge");
        m.request_spot_in(SimTime::ZERO, PoolId(0), 1);
        m.request_spot_in(SimTime::ZERO, PoolId(1), 1);
        m.request_on_demand_in(SimTime::ZERO, PoolId(1), 1);
        while m.pop_next().is_some() {}
        let hour = SimDuration::from_secs(3600);
        let ids: Vec<(InstanceId, SimTime)> = m.fleet().map(|i| (i.id, i.granted_at)).collect();
        for (id, granted) in ids {
            m.release(granted + hour, id);
        }
        let bd = m.cost_breakdown(SimTime::from_secs(10_000));
        assert_eq!(bd.pools[0].sku, "g4dn.12xlarge");
        assert_eq!(bd.pools[1].sku, "g6.12xlarge");
        assert!((bd.pools[0].spot_usd - 1.9).abs() < 1e-9);
        assert!((bd.pools[1].spot_usd - 1.8).abs() < 1e-9, "L4 spot price");
        assert!(
            (bd.pools[1].ondemand_usd - 4.6).abs() < 1e-9,
            "on-demand billed at the pool's SKU"
        );
    }

    #[test]
    fn price_override_applies_on_top_of_pool_sku() {
        let pools = vec![PoolSpec::new("cheap-l4", AvailabilityTrace::constant(1))
            .with_instance_type(InstanceType::l4())
            .with_spot_price(0.9)];
        let mut m = CloudMarket::new(&CloudConfig::default(), &pools, 7);
        let ty = m.instance_type_in(PoolId(0));
        assert_eq!(ty.gpu.name, "L4");
        assert_eq!(ty.spot_price_per_hour, 0.9);
        let ids = m.prewarm_spot_in(PoolId(0), 1);
        m.release(SimTime::from_secs(3600), ids[0]);
        let bd = m.cost_breakdown(SimTime::from_secs(3600));
        assert!((bd.pools[0].spot_usd - 0.9).abs() < 1e-9);
    }

    #[test]
    fn priced_pool_path_flows_into_billing_and_price_view() {
        use crate::price::PriceTrace;
        // Pool 1 spikes from $1.9 to $5 at t=1840 (1800 s into the lease);
        // pool 0 stays at list price.
        let pools = vec![
            PoolSpec::new("flat", AvailabilityTrace::constant(1)),
            PoolSpec::new("spiky", AvailabilityTrace::constant(1)).with_price(PriceModel::Trace(
                PriceTrace::from_steps(vec![(SimTime::ZERO, 1.9), (SimTime::from_secs(1840), 5.0)]),
            )),
        ];
        let mut m = CloudMarket::new(&CloudConfig::default(), &pools, 7);
        assert_eq!(m.spot_price_in(PoolId(0), SimTime::from_secs(5000)), 1.9);
        assert_eq!(m.spot_price_in(PoolId(1), SimTime::ZERO), 1.9);
        assert_eq!(m.spot_price_in(PoolId(1), SimTime::from_secs(5000)), 5.0);
        m.request_spot_in(SimTime::ZERO, PoolId(0), 1);
        m.request_spot_in(SimTime::ZERO, PoolId(1), 1);
        while m.pop_next().is_some() {}
        let ids: Vec<InstanceId> = m.fleet().map(|i| i.id).collect();
        for id in ids {
            m.release(SimTime::from_secs(40 + 3600), id);
        }
        let bd = m.cost_breakdown(SimTime::from_secs(10_000));
        assert!((bd.pools[0].spot_usd - 1.9).abs() < 1e-9);
        let want = 1.9 * 0.5 + 5.0 * 0.5;
        assert!(
            (bd.pools[1].spot_usd - want).abs() < 1e-9,
            "the bill integrates the path: {}",
            bd.pools[1].spot_usd
        );
    }

    #[test]
    fn deterministic_multi_pool_replay() {
        let run = || {
            let pools = vec![
                PoolSpec::new("a", AvailabilityTrace::paper_as()),
                PoolSpec::new("b", AvailabilityTrace::paper_bs()),
            ];
            let mut m = CloudMarket::new(&CloudConfig::default(), &pools, 11);
            m.request_spot_in(SimTime::ZERO, PoolId(0), 6);
            m.request_spot_in(SimTime::ZERO, PoolId(1), 6);
            drain_market(&mut m)
        };
        assert_eq!(run(), run());
    }
}
