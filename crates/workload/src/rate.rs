//! Time-varying arrival-rate profiles (the fluctuating MAF workload, §6.3).

use simkit::{SimRng, SimTime};

/// A piecewise-constant arrival-rate function `t -> requests/second`.
///
/// # Example
///
/// ```
/// use simkit::SimTime;
/// use workload::RateProfile;
///
/// let p = RateProfile::maf_like(0.35, 2.0);
/// assert!(p.rate_at(SimTime::from_secs(350)) > p.rate_at(SimTime::ZERO));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateProfile {
    steps: Vec<(SimTime, f64)>,
}

impl RateProfile {
    /// Builds a profile from `(time, rate)` steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, does not start at `t = 0`, is not
    /// strictly increasing in time, or contains a negative/non-finite rate.
    pub fn from_steps(steps: Vec<(SimTime, f64)>) -> Self {
        assert!(!steps.is_empty(), "profile must have at least one step");
        assert_eq!(steps[0].0, SimTime::ZERO, "profile must start at t=0");
        for w in steps.windows(2) {
            assert!(w[0].0 < w[1].0, "profile steps must be strictly increasing");
        }
        assert!(
            steps.iter().all(|&(_, r)| r.is_finite() && r >= 0.0),
            "rates must be finite and non-negative"
        );
        RateProfile { steps }
    }

    /// A constant-rate profile.
    pub fn constant(rate: f64) -> Self {
        RateProfile::from_steps(vec![(SimTime::ZERO, rate)])
    }

    /// The §6.3 fluctuating workload: a rescaled-MAF-shaped 15-minute
    /// profile around `base` rate with a burst reaching `base × burst`.
    ///
    /// Shape matches the Figure 8 narrative: steady start, ramp beginning
    /// at t = 270 s that overwhelms the initial configuration by t = 300 s,
    /// sustained burst until t = 600 s, then decay below base.
    pub fn maf_like(base: f64, burst: f64) -> Self {
        let s = |t: u64, r: f64| (SimTime::from_secs(t), r);
        RateProfile::from_steps(vec![
            s(0, base),
            s(200, base * 1.15),
            s(270, base * burst * 0.8),
            s(330, base * burst),
            s(450, base * burst * 0.9),
            s(600, base * 0.8),
            s(720, base * 0.6),
            s(840, base * 0.7),
        ])
    }

    /// A synthetic stand-in for the raw (pre-rescaling) MAF trace of
    /// Figure 8a: an hour-scale sawtooth with noise, sampled per minute.
    /// Used only for the Figure 8a panel.
    pub fn maf_raw(rng: &mut SimRng) -> Self {
        let mut steps = Vec::new();
        for minute in 0..180u64 {
            let t = minute as f64;
            // Two diurnal-ish humps plus noise.
            let base =
                0.55 + 0.12 * (t / 30.0).sin() + 0.08 * (t / 11.0).cos() + 0.05 * (rng.f64() - 0.5);
            steps.push((SimTime::from_secs(minute * 60), base.max(0.05)));
        }
        RateProfile { steps }
    }

    /// The rate at time `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self.steps.binary_search_by_key(&t, |&(st, _)| st) {
            Ok(i) => self.steps[i].1,
            Err(0) => unreachable!("first step at t=0"),
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// The next step boundary strictly after `t`, if any.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        self.steps.iter().map(|&(st, _)| st).find(|&st| st > t)
    }

    /// The raw `(time, rate)` steps.
    pub fn steps(&self) -> &[(SimTime, f64)] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_between_steps() {
        let p = RateProfile::from_steps(vec![(SimTime::ZERO, 1.0), (SimTime::from_secs(10), 2.0)]);
        assert_eq!(p.rate_at(SimTime::from_secs(5)), 1.0);
        assert_eq!(p.rate_at(SimTime::from_secs(10)), 2.0);
        assert_eq!(p.rate_at(SimTime::from_secs(99)), 2.0);
        assert_eq!(
            p.next_change_after(SimTime::ZERO),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(p.next_change_after(SimTime::from_secs(10)), None);
    }

    #[test]
    fn maf_like_narrative_shape() {
        let p = RateProfile::maf_like(0.35, 2.0);
        let at = |t: u64| p.rate_at(SimTime::from_secs(t));
        assert!(at(300) > at(0) * 1.5, "burst overwhelms by t=300");
        let peak = p.steps().iter().map(|&(_, r)| r).fold(0.0, f64::max);
        assert_eq!(peak, 0.7);
        assert!(at(700) < at(0), "decays below base after t=600");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        RateProfile::from_steps(vec![(SimTime::ZERO, -1.0)]);
    }

    #[test]
    fn maf_raw_is_deterministic_per_seed() {
        let a = RateProfile::maf_raw(&mut SimRng::new(3).stream("maf"));
        let b = RateProfile::maf_raw(&mut SimRng::new(3).stream("maf"));
        assert_eq!(a, b);
        assert!(a.steps().len() == 180);
        assert!(a.steps().iter().all(|&(_, r)| r < 1.0));
    }
}
