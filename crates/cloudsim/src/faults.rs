//! Deterministic per-pool fault injection: the *impolite* failure modes.
//!
//! The baseline provider only fails politely: every kill is preceded by a
//! full grace-period notice, a spot request that cannot launch vanishes
//! without a signal, and links never run slow. Real spot fleets (SkyServe,
//! §2 of the paper's own fault discussion) see uglier failures, and a
//! robustness claim is only worth what survives them. A [`FaultSpec`]
//! describes four adversarial channels for one pool:
//!
//! | channel | knob | what happens |
//! |---|---|---|
//! | unannounced kill | [`kill_rate_per_hour`](FaultSpec::kill_rate_per_hour) | a live spot lease dies with **zero grace** ([`CloudEvent::InstanceFailed`](crate::CloudEvent::InstanceFailed)); context on it is lost |
//! | lost notice | [`notice_loss`](FaultSpec::notice_loss) | a capacity/price preemption skips its notice — the kill fires immediately |
//! | truncated notice | [`notice_truncation`](FaultSpec::notice_truncation) | the notice arrives, but with a uniformly truncated grace budget |
//! | lapsed grant | [`grant_lapse`](FaultSpec::grant_lapse) | a scheduled spot grant never produces an instance ([`CloudEvent::RequestLapsed`](crate::CloudEvent::RequestLapsed)) |
//! | degraded link | [`degraded`](FaultSpec::degraded) | a scripted window scales the pool's effective transfer bandwidth by a factor ≤ 1 |
//!
//! Determinism contract, mirrored from [`PriceModel`](crate::PriceModel)
//! paths: the unannounced-kill schedule is **pre-drawn at construction**
//! from a dedicated named stream (`"faults"` for pool 0,
//! `"faults/pool{i}"` otherwise), so it is a pure function of the scenario
//! seed. Fire-time draws (victim choice, notice fate, lapse coin flips)
//! come from a separate `"…/fire"` stream and are consumed in event order
//! — deterministic because each pool processes its own events in a single
//! total order regardless of worker-thread count. A pool without a
//! [`FaultSpec`] builds no plan and draws *nothing*: faults-off replays
//! are byte-identical to a build without this module.

use simkit::{SimDuration, SimRng, SimTime};

use crate::instance::InstanceId;
use crate::pool::PoolId;

/// One scripted degraded-link window: between [`from`](DegradedLink::from)
/// and [`until`](DegradedLink::until), the pool's effective transfer
/// bandwidth is multiplied by [`factor`](DegradedLink::factor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedLink {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Bandwidth multiplier in `(0, 1]`: `0.25` means transfers run at a
    /// quarter of nominal speed.
    pub factor: f64,
}

/// Chaos knobs for one pool. All channels default to off; a spec with
/// every knob at zero injects nothing (but still allocates its streams, so
/// prefer `None` on [`PoolSpec::faults`](crate::PoolSpec::faults) for a
/// truly quiet pool).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Expected unannounced kills per hour. Attempts are pre-drawn on the
    /// [`step`](FaultSpec::step) grid over [`horizon`](FaultSpec::horizon)
    /// (Bernoulli per step, `p = rate · dt`, clamped to 1); an attempt
    /// with no live spot victim is a no-op.
    pub kill_rate_per_hour: f64,
    /// Probability that a preemption's notice is lost outright: the kill
    /// fires at notice time with zero grace, surfacing as
    /// [`CloudEvent::InstanceFailed`](crate::CloudEvent::InstanceFailed).
    pub notice_loss: f64,
    /// Probability (evaluated after the loss draw misses) that a notice's
    /// grace period is truncated to a uniform fraction of the configured
    /// one — the notice arrives *late*.
    pub notice_truncation: f64,
    /// Probability that a scheduled spot grant lapses: no instance
    /// appears, and the provider emits
    /// [`CloudEvent::RequestLapsed`](crate::CloudEvent::RequestLapsed)
    /// at what would have been grant time.
    pub grant_lapse: f64,
    /// Scripted degraded-link windows (deterministic by construction).
    pub degraded: Vec<DegradedLink>,
    /// Grid step for pre-drawing unannounced-kill attempts.
    pub step: SimDuration,
    /// Horizon for pre-drawing unannounced-kill attempts.
    pub horizon: SimDuration,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            kill_rate_per_hour: 0.0,
            notice_loss: 0.0,
            notice_truncation: 0.0,
            grant_lapse: 0.0,
            degraded: Vec::new(),
            step: SimDuration::from_secs(60),
            horizon: SimDuration::from_secs(24 * 3600),
        }
    }
}

impl FaultSpec {
    /// A spec with every channel off (identical to `Default`).
    pub fn calm() -> Self {
        FaultSpec::default()
    }

    /// The standard chaos pack at `intensity` in `[0, 1]`: every channel
    /// scaled together. Intensity 1 means ~6 unannounced kills per hour,
    /// 40% of notices lost, another 30% truncated, 25% of grants lapsing,
    /// and a half-speed link window over t = 200 s – 500 s (squarely across
    /// the usual collapse/migration window of the scripted scenarios).
    /// This is the pack `fig_chaos` sweeps and the CI gate pins.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not in `[0, 1]`.
    pub fn pack(intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "chaos intensity must be in [0, 1], got {intensity}"
        );
        FaultSpec {
            kill_rate_per_hour: 6.0 * intensity,
            notice_loss: 0.4 * intensity,
            notice_truncation: 0.3 * intensity,
            grant_lapse: 0.25 * intensity,
            degraded: if intensity > 0.0 {
                vec![DegradedLink {
                    from: SimTime::from_secs(200),
                    until: SimTime::from_secs(500),
                    factor: 1.0 - 0.5 * intensity,
                }]
            } else {
                Vec::new()
            },
            ..FaultSpec::default()
        }
    }

    /// Sets the unannounced-kill rate (expected kills per hour).
    pub fn with_kill_rate(mut self, per_hour: f64) -> Self {
        self.kill_rate_per_hour = per_hour;
        self
    }

    /// Sets the lost-notice probability.
    pub fn with_notice_loss(mut self, p: f64) -> Self {
        self.notice_loss = p;
        self
    }

    /// Sets the truncated-notice probability.
    pub fn with_notice_truncation(mut self, p: f64) -> Self {
        self.notice_truncation = p;
        self
    }

    /// Sets the lapsed-grant probability.
    pub fn with_grant_lapse(mut self, p: f64) -> Self {
        self.grant_lapse = p;
        self
    }

    /// Adds one degraded-link window.
    pub fn with_degraded_link(mut self, from: SimTime, until: SimTime, factor: f64) -> Self {
        self.degraded.push(DegradedLink {
            from,
            until,
            factor,
        });
        self
    }

    /// Validates every knob; called once when a plan is drawn.
    ///
    /// # Panics
    ///
    /// Panics on a probability outside `[0, 1]`, a negative or non-finite
    /// kill rate, a zero draw step, or a malformed degraded window
    /// (`from >= until` or factor outside `(0, 1]`).
    pub fn validate(&self) {
        for (name, p) in [
            ("notice_loss", self.notice_loss),
            ("notice_truncation", self.notice_truncation),
            ("grant_lapse", self.grant_lapse),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be a probability in [0, 1], got {p}"
            );
        }
        assert!(
            self.kill_rate_per_hour.is_finite() && self.kill_rate_per_hour >= 0.0,
            "kill rate must be finite and non-negative"
        );
        assert!(self.step > SimDuration::ZERO, "fault draw step must be > 0");
        for w in &self.degraded {
            assert!(w.from < w.until, "degraded window must have from < until");
            assert!(
                w.factor > 0.0 && w.factor <= 1.0,
                "bandwidth factor must be in (0, 1], got {}",
                w.factor
            );
        }
    }

    /// The effective bandwidth multiplier at `t`: the smallest factor of
    /// any window containing `t`, or `1.0` outside every window. Pure
    /// lookup — never depends on event progress.
    pub fn bandwidth_factor_at(&self, t: SimTime) -> f64 {
        self.degraded
            .iter()
            .filter(|w| w.from <= t && t < w.until)
            .map(|w| w.factor)
            .fold(1.0, f64::min)
    }
}

/// What the plan decides about one preemption notice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum NoticeFate {
    /// The notice is delivered with its full grace period.
    Delivered,
    /// The notice is delivered late: only this much grace survives.
    Truncated(SimDuration),
    /// The notice never arrives — the kill fires immediately.
    Lost,
}

/// One pool's materialized fault schedule plus its fire-time stream. Built
/// once at provider construction; see the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub(crate) struct FaultPlan {
    spec: FaultSpec,
    /// Pre-drawn unannounced-kill attempt instants, strictly increasing.
    kill_times: Vec<SimTime>,
    /// Fire-time draws: victim choice, notice fate, lapse coin flips.
    rng: SimRng,
}

impl FaultPlan {
    /// Draws the plan for `pool` from the scenario `seed`.
    pub(crate) fn draw(spec: &FaultSpec, seed: u64, pool: PoolId) -> Self {
        spec.validate();
        let label = if pool.0 == 0 {
            "faults".to_string()
        } else {
            format!("faults/pool{}", pool.0)
        };
        let mut sched = SimRng::new(seed).stream(&label);
        let mut kill_times = Vec::new();
        if spec.kill_rate_per_hour > 0.0 {
            let p = (spec.kill_rate_per_hour * spec.step.as_secs_f64() / 3600.0).min(1.0);
            let mut t = SimTime::ZERO + spec.step;
            while t.saturating_since(SimTime::ZERO) <= spec.horizon {
                if sched.chance(p) {
                    kill_times.push(t);
                }
                t += spec.step;
            }
        }
        let rng = SimRng::new(seed).stream(&format!("{label}/fire"));
        FaultPlan {
            spec: spec.clone(),
            kill_times,
            rng,
        }
    }

    /// The pre-drawn unannounced-kill attempt instants.
    pub(crate) fn kill_times(&self) -> &[SimTime] {
        &self.kill_times
    }

    /// Picks the victim of an unannounced kill from `candidates` (sorted
    /// by the caller). `None` when the pool holds no live spot lease — the
    /// attempt is a no-op and consumes no draw.
    pub(crate) fn pick_victim(&mut self, candidates: &[InstanceId]) -> Option<InstanceId> {
        self.rng.choose(candidates).copied()
    }

    /// Decides one notice's fate. Draws nothing when both notice channels
    /// are off, so a plan used only for kills or lapses leaves the polite
    /// preemption path untouched draw-for-draw.
    pub(crate) fn notice_fate(&mut self, grace: SimDuration) -> NoticeFate {
        if self.spec.notice_loss == 0.0 && self.spec.notice_truncation == 0.0 {
            return NoticeFate::Delivered;
        }
        if self.spec.notice_loss > 0.0 && self.rng.chance(self.spec.notice_loss) {
            return NoticeFate::Lost;
        }
        if self.spec.notice_truncation > 0.0 && self.rng.chance(self.spec.notice_truncation) {
            let frac = self.rng.f64();
            return NoticeFate::Truncated(SimDuration::from_secs_f64(grace.as_secs_f64() * frac));
        }
        NoticeFate::Delivered
    }

    /// Decides whether one scheduled spot grant lapses. Draws nothing when
    /// the channel is off.
    pub(crate) fn grant_lapses(&mut self) -> bool {
        self.spec.grant_lapse > 0.0 && self.rng.chance(self.spec.grant_lapse)
    }

    /// See [`FaultSpec::bandwidth_factor_at`].
    pub(crate) fn bandwidth_factor_at(&self, t: SimTime) -> f64 {
        self.spec.bandwidth_factor_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_spec_is_inert() {
        let spec = FaultSpec::calm();
        assert_eq!(spec.bandwidth_factor_at(SimTime::from_secs(300)), 1.0);
        let plan = FaultPlan::draw(&spec, 7, PoolId(0));
        assert!(plan.kill_times().is_empty(), "no rate, no kills");
    }

    #[test]
    fn kill_schedule_is_a_pure_function_of_the_seed() {
        let spec = FaultSpec::calm().with_kill_rate(8.0);
        let a = FaultPlan::draw(&spec, 42, PoolId(1));
        let b = FaultPlan::draw(&spec, 42, PoolId(1));
        assert_eq!(a.kill_times(), b.kill_times());
        assert!(!a.kill_times().is_empty(), "8/h over 24h must draw kills");
        let other_pool = FaultPlan::draw(&spec, 42, PoolId(2));
        assert_ne!(
            a.kill_times(),
            other_pool.kill_times(),
            "pools draw from independent streams"
        );
    }

    #[test]
    fn kill_times_are_strictly_increasing_on_the_grid() {
        let spec = FaultSpec::calm().with_kill_rate(30.0);
        let plan = FaultPlan::draw(&spec, 3, PoolId(0));
        for w in plan.kill_times().windows(2) {
            assert!(w[0] < w[1]);
        }
        let step = spec.step;
        for &t in plan.kill_times() {
            let micros = t.saturating_since(SimTime::ZERO).as_micros();
            assert_eq!(micros % step.as_micros(), 0, "kills land on the grid");
        }
    }

    #[test]
    fn notice_fate_draws_nothing_when_channels_are_off() {
        let spec = FaultSpec::calm().with_grant_lapse(1.0);
        let mut a = FaultPlan::draw(&spec, 9, PoolId(0));
        let mut b = FaultPlan::draw(&spec, 9, PoolId(0));
        // Fates on `a`, none on `b`: the lapse draws must stay aligned.
        for _ in 0..5 {
            assert_eq!(
                a.notice_fate(SimDuration::from_secs(30)),
                NoticeFate::Delivered
            );
        }
        for _ in 0..8 {
            assert_eq!(a.grant_lapses(), b.grant_lapses());
        }
    }

    #[test]
    fn lost_notices_dominate_truncation() {
        let spec = FaultSpec::calm()
            .with_notice_loss(1.0)
            .with_notice_truncation(1.0);
        let mut plan = FaultPlan::draw(&spec, 1, PoolId(0));
        for _ in 0..4 {
            assert_eq!(
                plan.notice_fate(SimDuration::from_secs(30)),
                NoticeFate::Lost
            );
        }
    }

    #[test]
    fn truncated_notices_keep_a_sub_grace_budget() {
        let spec = FaultSpec::calm().with_notice_truncation(1.0);
        let mut plan = FaultPlan::draw(&spec, 5, PoolId(0));
        let grace = SimDuration::from_secs(30);
        for _ in 0..16 {
            match plan.notice_fate(grace) {
                NoticeFate::Truncated(left) => assert!(left < grace),
                other => panic!("p=1 truncation must truncate, got {other:?}"),
            }
        }
    }

    #[test]
    fn degraded_windows_compose_by_min() {
        let spec = FaultSpec::calm()
            .with_degraded_link(SimTime::from_secs(100), SimTime::from_secs(400), 0.5)
            .with_degraded_link(SimTime::from_secs(200), SimTime::from_secs(300), 0.25);
        assert_eq!(spec.bandwidth_factor_at(SimTime::from_secs(50)), 1.0);
        assert_eq!(spec.bandwidth_factor_at(SimTime::from_secs(150)), 0.5);
        assert_eq!(spec.bandwidth_factor_at(SimTime::from_secs(250)), 0.25);
        assert_eq!(spec.bandwidth_factor_at(SimTime::from_secs(400)), 1.0);
    }

    #[test]
    fn pack_scales_every_channel_together() {
        assert_eq!(
            FaultSpec::pack(0.0),
            FaultSpec::calm(),
            "intensity 0 is calm"
        );
        let half = FaultSpec::pack(0.5);
        let full = FaultSpec::pack(1.0);
        assert!(half.kill_rate_per_hour < full.kill_rate_per_hour);
        assert!(half.notice_loss < full.notice_loss);
        assert!(half.grant_lapse < full.grant_lapse);
        assert!(
            full.degraded[0].factor < half.degraded[0].factor,
            "stronger chaos, slower links"
        );
        full.validate();
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_fails_fast() {
        FaultSpec::calm().with_notice_loss(1.5).validate();
    }

    #[test]
    #[should_panic(expected = "bandwidth factor")]
    fn zero_bandwidth_factor_fails_fast() {
        FaultSpec::calm()
            .with_degraded_link(SimTime::ZERO, SimTime::from_secs(1), 0.0)
            .validate();
    }
}
