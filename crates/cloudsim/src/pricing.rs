//! Billing: metering instance-time and converting it to dollars.

use std::cell::Cell;
use std::collections::BTreeMap;

use simkit::{SimDuration, SimTime};

use crate::instance::{InstanceId, InstanceKind, InstanceType};

/// Meters instance leases and computes the total bill.
///
/// Each instance is charged from the moment it is granted until it is
/// released or preempted, at the per-hour price of its billing kind.
/// Per-second granularity (like real clouds since 2017).
///
/// When the pool's spot price moves (see
/// [`PriceModel`](crate::PriceModel)), the meter holds the price *path* —
/// a step function — and integrates each spot lease over it exactly, so
/// the bill reflects the price actually paid during every segment of the
/// lease, not a constant. An open lease's bill, asked again and again as
/// the run's cost rollups are, resumes its walk over the path where the
/// last query stopped. Without a path (the default), the arithmetic is
/// the original fixed-price expression, bit-for-bit.
///
/// # Example
///
/// ```
/// use cloudsim::{BillingMeter, InstanceId, InstanceKind, InstanceType};
/// use simkit::SimTime;
///
/// let mut bill = BillingMeter::new(InstanceType::g4dn_12xlarge());
/// bill.lease_started(InstanceId(0), InstanceKind::Spot, SimTime::ZERO);
/// bill.lease_ended(InstanceId(0), SimTime::from_secs(3600));
/// assert!((bill.total_usd(SimTime::from_secs(3600)) - 1.9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct BillingMeter {
    instance_type: InstanceType,
    // Ordered map: `total_usd` sums open leases in iteration order, and
    // float addition is not associative — a hash map would make the total
    // differ by an ulp between identically-seeded runs.
    open: BTreeMap<InstanceId, OpenLease>,
    closed_usd: f64,
    // Per-kind attribution is accumulated *separately* from `closed_usd`
    // rather than derived by summing the two kinds: float addition is not
    // associative, and `total_usd` must keep its original accumulation
    // order bit-for-bit. The split may therefore differ from the total by
    // an ulp; the total is authoritative.
    closed_usd_spot: f64,
    closed_usd_on_demand: f64,
    // The spot-price path as `(time, usd_per_hour)` steps. Empty means the
    // price never moves and spot bills at the instance type's list price
    // through the exact legacy expression.
    spot_path: Vec<(SimTime, f64)>,
}

/// One open lease, and how far its spot bill has been summed.
#[derive(Debug, Clone)]
struct OpenLease {
    kind: InstanceKind,
    start: SimTime,
    /// Where the walk over the price path stopped at the last query: the
    /// index of the first step not yet completed, and the lease's spend
    /// over the completed steps before it. A query adds only the steps
    /// completed since, then the partial last one: the additions of a walk
    /// from the lease start, in its order, so every bill is bit-identical
    /// to one. Unused without a path.
    walked: Cell<(usize, f64)>,
}

impl BillingMeter {
    /// Creates a meter for a fleet of the given instance type.
    pub fn new(instance_type: InstanceType) -> Self {
        BillingMeter {
            instance_type,
            open: BTreeMap::new(),
            closed_usd: 0.0,
            closed_usd_spot: 0.0,
            closed_usd_on_demand: 0.0,
            spot_path: Vec::new(),
        }
    }

    /// Installs a dynamic spot-price path: spot leases integrate this step
    /// function instead of charging the list price. Steps must start at
    /// `t = 0` and be strictly increasing (see
    /// [`PriceModel::path`](crate::PriceModel::path)).
    ///
    /// # Panics
    ///
    /// Panics if leases are already open (re-pricing mid-lease would
    /// rewrite spend already accrued) or the path is malformed.
    pub fn set_spot_path(&mut self, path: Vec<(SimTime, f64)>) {
        assert!(
            self.open.is_empty(),
            "the price path must be installed before any lease opens"
        );
        if !path.is_empty() {
            assert_eq!(path[0].0, SimTime::ZERO, "price path must start at t=0");
            for w in path.windows(2) {
                assert!(w[0].0 < w[1].0, "price path must be strictly increasing");
            }
        }
        self.spot_path = path;
    }

    /// The spot price in force at `t` (the path's step, or the instance
    /// type's list price when no path is installed).
    pub fn spot_price_at(&self, t: SimTime) -> f64 {
        crate::price::price_at(&self.spot_path, t).unwrap_or(self.instance_type.spot_price_per_hour)
    }

    /// Records the start of a lease.
    ///
    /// # Panics
    ///
    /// Panics if the instance already has an open lease — leases never nest.
    pub fn lease_started(&mut self, id: InstanceId, kind: InstanceKind, at: SimTime) {
        let lease = OpenLease {
            kind,
            start: at,
            walked: Cell::new((self.first_step(at), 0.0)),
        };
        let prev = self.open.insert(id, lease);
        assert!(prev.is_none(), "{id} already has an open lease");
    }

    /// Records the end of a lease (release or preemption). Unknown ids are
    /// ignored so callers do not need to track double-release corner cases.
    pub fn lease_ended(&mut self, id: InstanceId, at: SimTime) {
        if let Some(lease) = self.open.remove(&id) {
            let usd = self.lease_usd(&lease, at);
            self.closed_usd += usd;
            match lease.kind {
                InstanceKind::Spot => self.closed_usd_spot += usd,
                InstanceKind::OnDemand => self.closed_usd_on_demand += usd,
            }
        }
    }

    fn cost_of(&self, kind: InstanceKind, dur: SimDuration) -> f64 {
        self.instance_type.price_per_hour(kind) * dur.as_secs_f64() / 3600.0
    }

    /// The index of the price step in force at `start`: the last one at
    /// or before it (the path starts at t=0, so any lease start is
    /// covered).
    fn first_step(&self, start: SimTime) -> usize {
        self.spot_path
            .partition_point(|&(t, _)| t <= start)
            .saturating_sub(1)
    }

    /// Spend of `lease` over `[start, end)`. On-demand leases and spot
    /// leases without a price path take the legacy fixed-price expression
    /// (bit-for-bit); spot leases with a path integrate it step by step,
    /// resuming the walk where the last query left it when `end` is no
    /// earlier than that query's completed steps, and from the lease start
    /// otherwise.
    fn lease_usd(&self, lease: &OpenLease, end: SimTime) -> f64 {
        let (kind, start) = (lease.kind, lease.start);
        if kind == InstanceKind::OnDemand || self.spot_path.is_empty() {
            return self.cost_of(kind, end.saturating_since(start));
        }
        let path = &self.spot_path;
        let first = self.first_step(start);
        let (mut i, mut usd) = lease.walked.get();
        // Step `i - 1` ended at `path[i].0`: a query before that instant
        // must not count it.
        if i > first && path[i].0 > end {
            (i, usd) = (first, 0.0);
        }
        // Completed steps: each ends at the next step's start, at or
        // before `end`.
        while i + 1 < path.len() && path[i + 1].0 <= end {
            let (seg_start, price) = path[i];
            let seg_end = path[i + 1].0;
            let from = if seg_start > start { seg_start } else { start };
            if seg_end > from {
                usd += price * seg_end.saturating_since(from).as_secs_f64() / 3600.0;
            }
            i += 1;
        }
        lease.walked.set((i, usd));
        // The step in force at `end`, up to `end`.
        let (seg_start, price) = path[i];
        let from = if seg_start > start { seg_start } else { start };
        if seg_start < end && end > from {
            usd += price * end.saturating_since(from).as_secs_f64() / 3600.0;
        }
        usd
    }

    /// Total spend in USD as of `now`, counting still-open leases up to `now`.
    pub fn total_usd(&self, now: SimTime) -> f64 {
        let open: f64 = self
            .open
            .values()
            .map(|lease| self.lease_usd(lease, now))
            .sum();
        self.closed_usd + open
    }

    /// Spend attributed to one billing kind as of `now`, counting
    /// still-open leases of that kind up to `now`. The per-kind split is
    /// accumulated independently of [`BillingMeter::total_usd`], so
    /// `spot + on-demand` may differ from the total by a float ulp.
    pub fn usd_of_kind(&self, kind: InstanceKind, now: SimTime) -> f64 {
        let closed = match kind {
            InstanceKind::Spot => self.closed_usd_spot,
            InstanceKind::OnDemand => self.closed_usd_on_demand,
        };
        let open: f64 = self
            .open
            .values()
            .filter(|lease| lease.kind == kind)
            .map(|lease| self.lease_usd(lease, now))
            .sum();
        closed + open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> BillingMeter {
        BillingMeter::new(InstanceType::g4dn_12xlarge())
    }

    #[test]
    fn spot_hour_costs_spot_price() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.lease_ended(InstanceId(1), SimTime::from_secs(3600));
        assert!((m.total_usd(SimTime::from_secs(7200)) - 1.9).abs() < 1e-9);
    }

    #[test]
    fn open_lease_accrues() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::OnDemand, SimTime::ZERO);
        let half_hour = SimTime::from_secs(1800);
        assert!((m.total_usd(half_hour) - 3.9 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_fleet_bill() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.lease_started(InstanceId(2), InstanceKind::OnDemand, SimTime::ZERO);
        let t = SimTime::from_secs(3600);
        m.lease_ended(InstanceId(1), t);
        m.lease_ended(InstanceId(2), t);
        assert!((m.total_usd(t) - (1.9 + 3.9)).abs() < 1e-9);
    }

    #[test]
    fn unknown_release_is_noop() {
        let mut m = meter();
        m.lease_ended(InstanceId(99), SimTime::from_secs(10));
        assert_eq!(m.total_usd(SimTime::from_secs(10)), 0.0);
    }

    #[test]
    #[should_panic(expected = "open lease")]
    fn double_lease_panics() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::from_secs(1));
    }

    #[test]
    fn path_bill_integrates_the_path_not_a_constant() {
        // 1.9 for the first half hour, 4.0 for the second: the hour-long
        // lease pays the time-weighted sum, not either endpoint.
        let mut m = meter();
        m.set_spot_path(vec![(SimTime::ZERO, 1.9), (SimTime::from_secs(1800), 4.0)]);
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.lease_ended(InstanceId(1), SimTime::from_secs(3600));
        let want = 1.9 * 0.5 + 4.0 * 0.5;
        assert!((m.total_usd(SimTime::from_secs(3600)) - want).abs() < 1e-9);
    }

    #[test]
    fn path_bill_covers_leases_starting_mid_segment_and_open_accrual() {
        let mut m = meter();
        m.set_spot_path(vec![
            (SimTime::ZERO, 2.0),
            (SimTime::from_secs(600), 6.0),
            (SimTime::from_secs(1200), 1.0),
        ]);
        // Lease spans the tail of segment 1, all of segment 2, and the
        // open accrual reads the last step's price.
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::from_secs(300));
        let now = SimTime::from_secs(1800);
        let want = 2.0 * 300.0 / 3600.0 + 6.0 * 600.0 / 3600.0 + 1.0 * 600.0 / 3600.0;
        assert!((m.total_usd(now) - want).abs() < 1e-9);
        assert!((m.usd_of_kind(InstanceKind::Spot, now) - want).abs() < 1e-9);
    }

    #[test]
    fn path_leaves_on_demand_at_list_price() {
        let mut m = meter();
        m.set_spot_path(vec![(SimTime::ZERO, 100.0)]);
        m.lease_started(InstanceId(1), InstanceKind::OnDemand, SimTime::ZERO);
        m.lease_ended(InstanceId(1), SimTime::from_secs(3600));
        assert!((m.total_usd(SimTime::from_secs(3600)) - 3.9).abs() < 1e-9);
    }

    #[test]
    fn constant_path_is_bit_exact_with_no_path() {
        let run = |with_path: bool| {
            let mut m = meter();
            if with_path {
                // A single-step path at the list price is the same math.
                m.set_spot_path(vec![(SimTime::ZERO, 1.9)]);
            }
            m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::from_secs(7));
            m.lease_ended(InstanceId(1), SimTime::from_secs(12_345));
            m.total_usd(SimTime::from_secs(20_000))
        };
        // Not bit-exact by construction (the integral multiplies segment
        // seconds, the legacy path multiplies total seconds) but the
        // single-segment case collapses to the same product.
        assert_eq!(run(false).to_bits(), run(true).to_bits());
    }

    #[test]
    #[should_panic(expected = "before any lease")]
    fn path_after_open_lease_panics() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.set_spot_path(vec![(SimTime::ZERO, 1.0)]);
    }

    /// A spot lease's bill as every query walked it before open leases
    /// resumed their walks: from the lease start, step by step.
    fn walk_from_lease_start(path: &[(SimTime, f64)], start: SimTime, end: SimTime) -> f64 {
        let mut usd = 0.0;
        let first = path.partition_point(|&(t, _)| t <= start).saturating_sub(1);
        for (i, &(seg_start, price)) in path.iter().enumerate().skip(first) {
            if seg_start >= end {
                break;
            }
            let seg_end = path.get(i + 1).map(|&(t, _)| t.min(end)).unwrap_or(end);
            let from = if seg_start > start { seg_start } else { start };
            if seg_end > from {
                usd += price * seg_end.saturating_since(from).as_secs_f64() / 3600.0;
            }
        }
        usd
    }

    #[test]
    fn resumed_walks_bill_like_walks_from_the_lease_start() {
        for seed in 0..64 {
            let mut rng = simkit::SimRng::new(seed);
            // One-minute steps with the odd longer gap, as an OU path has.
            let mut path = vec![(SimTime::ZERO, 1.0 + rng.f64())];
            for _ in 0..rng.range_inclusive(0, 120) {
                let last = path.last().unwrap().0.as_micros();
                let gap = 60_000_000 * rng.range_inclusive(1, 3) - rng.below(2);
                path.push((SimTime::from_micros(last + gap), 0.5 + 3.0 * rng.f64()));
            }
            let horizon = path.last().unwrap().0.as_micros() + 120_000_000;
            let mut m = meter();
            m.set_spot_path(path.clone());
            // Queries land anywhere, on step boundaries, on lease starts,
            // twice at one instant, and sometimes before the last one.
            let mut open: BTreeMap<InstanceId, SimTime> = BTreeMap::new();
            let (mut closed, mut now) = (0.0, SimTime::ZERO);
            for q in 0..200u64 {
                let boundary = path[rng.below(path.len() as u64) as usize].0;
                now = match rng.below(6) {
                    0 => boundary,
                    1 => SimTime::from_micros(rng.below(horizon)),
                    2 => now,
                    3 => {
                        SimTime::from_micros(now.as_micros().saturating_sub(rng.below(600_000_000)))
                    }
                    _ => SimTime::from_micros(
                        (now.as_micros() + rng.below(300_000_000)).min(horizon),
                    ),
                };
                match rng.below(4) {
                    0 => {
                        m.lease_started(InstanceId(q), InstanceKind::Spot, now);
                        open.insert(InstanceId(q), now);
                    }
                    1 if !open.is_empty() => {
                        let id = *open
                            .keys()
                            .nth(rng.below(open.len() as u64) as usize)
                            .unwrap();
                        let start = open.remove(&id).unwrap();
                        let end = now.max(start);
                        m.lease_ended(id, end);
                        closed += walk_from_lease_start(&path, start, end);
                    }
                    _ => {}
                }
                let open_usd: f64 = open
                    .values()
                    .map(|&start| walk_from_lease_start(&path, start, now))
                    .sum();
                let want = (closed + open_usd).to_bits();
                assert_eq!(m.total_usd(now).to_bits(), want, "seed {seed}, query {q}");
                assert_eq!(
                    m.usd_of_kind(InstanceKind::Spot, now).to_bits(),
                    want,
                    "seed {seed}, query {q}"
                );
            }
        }
    }

    #[test]
    fn spot_price_at_reads_the_path() {
        let mut m = meter();
        assert_eq!(m.spot_price_at(SimTime::from_secs(999)), 1.9);
        m.set_spot_path(vec![(SimTime::ZERO, 1.5), (SimTime::from_secs(60), 9.0)]);
        assert_eq!(m.spot_price_at(SimTime::ZERO), 1.5);
        assert_eq!(m.spot_price_at(SimTime::from_secs(61)), 9.0);
    }
}
