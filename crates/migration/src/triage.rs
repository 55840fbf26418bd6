//! Grace-period checkpoint triage: how much context to save before a kill.
//!
//! When a preemption notice arrives, the grace period is a *time budget*:
//! moving everything (weights on un-replicated shards plus the full KV
//! cache) may not fit before the kill lands, but moving *nothing* throws
//! away recoverable decoding progress. Triage grades the middle ground by
//! the **transferable-data fraction** — how much of the full checkpoint
//! the budget can actually move — and picks one of three tiers:
//!
//! | transferable fraction `f` | tier | what migrates |
//! |---------------------------|------|---------------|
//! | `f ≥ 0.8` | [`TriageTier::Full`] | everything: weights, full KV cache, carried requests |
//! | `0.3 ≤ f < 0.8` | [`TriageTier::Partial`] | weights plus the deepest `f` of the cache; shallow requests restart |
//! | `f < 0.3` | [`TriageTier::Restart`] | weights only; all in-flight context is abandoned |
//!
//! The fraction interpolates between the two plan costs the serving
//! system can already evaluate: `t_zero` (a weights-only plan, cache
//! zeroed) and `t_full` (the complete plan). Both come from the complete
//! plan's timeline: `t_zero` is its total without the cache step
//! ([`MigrationTimeline::weights_only_total`](crate::MigrationTimeline::weights_only_total)),
//! and the weights-only plan itself is
//! [`MigrationPlan::weights_only`](crate::MigrationPlan::weights_only).
//! Everything here is pure
//! arithmetic over those costs, which keeps the tier decision trivially
//! deterministic and property-testable; the serving system owns applying
//! the tier to a concrete [`MigrationTask`](crate::MigrationTask).

use simkit::SimDuration;

/// Below this transferable fraction, saving cache is not worth the grace
/// budget: restart from weights only.
pub const PARTIAL_THRESHOLD: f64 = 0.3;

/// At or above this transferable fraction, move everything: the budget
/// covers (nearly) the full checkpoint.
pub const FULL_THRESHOLD: f64 = 0.8;

/// The three checkpoint tiers, ordered by how much context survives
/// (`Restart < Partial < Full`), so "more budget never saves less" is an
/// ordinary `>=` between tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TriageTier {
    /// Abandon all in-flight context; migrate weights only.
    Restart,
    /// Migrate weights plus a depth-ordered slice of the KV cache; the
    /// shallowest requests recompute instead.
    Partial,
    /// Migrate the complete checkpoint.
    Full,
}

impl TriageTier {
    /// The fraction of cache bytes this tier preserves, given the
    /// transferable fraction `f` it was graded from: all of it for
    /// [`TriageTier::Full`], `f` for [`TriageTier::Partial`], none for
    /// [`TriageTier::Restart`].
    pub fn cache_fraction(self, f: f64) -> f64 {
        match self {
            TriageTier::Full => 1.0,
            TriageTier::Partial => f.clamp(0.0, 1.0),
            TriageTier::Restart => 0.0,
        }
    }
}

/// The fraction of the *optional* checkpoint data (everything beyond the
/// weights-only plan) that `budget` can move: `1.0` when even the full
/// plan fits, `0.0` when not even the weights-only plan does, and the
/// linear interpolation `(budget - t_zero) / (t_full - t_zero)` between.
/// Degenerate inputs (`t_full <= t_zero`: cache adds no time) grade as
/// `1.0` whenever the weights-only plan fits — there is nothing to
/// ration.
pub fn transferable_fraction(budget: SimDuration, t_zero: SimDuration, t_full: SimDuration) -> f64 {
    if t_full <= budget {
        return 1.0;
    }
    if budget <= t_zero {
        return 0.0;
    }
    // t_zero < budget < t_full here, so the span is strictly positive.
    let span = t_full.as_secs_f64() - t_zero.as_secs_f64();
    let slack = budget.as_secs_f64() - t_zero.as_secs_f64();
    (slack / span).clamp(0.0, 1.0)
}

/// Grades a transferable fraction into a [`TriageTier`] by the
/// ≥ [`FULL_THRESHOLD`] / ≥ [`PARTIAL_THRESHOLD`] / below rule.
pub fn triage(fraction: f64) -> TriageTier {
    if fraction >= FULL_THRESHOLD {
        TriageTier::Full
    } else if fraction >= PARTIAL_THRESHOLD {
        TriageTier::Partial
    } else {
        TriageTier::Restart
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn fraction_interpolates_between_the_plan_costs() {
        assert_eq!(
            transferable_fraction(secs(30.0), secs(5.0), secs(25.0)),
            1.0
        );
        assert_eq!(transferable_fraction(secs(4.0), secs(5.0), secs(25.0)), 0.0);
        let mid = transferable_fraction(secs(15.0), secs(5.0), secs(25.0));
        assert!((mid - 0.5).abs() < 1e-12, "midpoint grades 0.5, got {mid}");
    }

    #[test]
    fn free_cache_grades_full_when_weights_fit() {
        // t_full == t_zero: the cache costs nothing extra.
        assert_eq!(transferable_fraction(secs(10.0), secs(5.0), secs(5.0)), 1.0);
        assert_eq!(transferable_fraction(secs(2.0), secs(5.0), secs(5.0)), 0.0);
    }

    #[test]
    fn tiers_follow_the_thresholds() {
        assert_eq!(triage(1.0), TriageTier::Full);
        assert_eq!(triage(0.8), TriageTier::Full);
        assert_eq!(triage(0.79), TriageTier::Partial);
        assert_eq!(triage(0.3), TriageTier::Partial);
        assert_eq!(triage(0.29), TriageTier::Restart);
        assert_eq!(triage(0.0), TriageTier::Restart);
    }

    #[test]
    fn tiers_order_by_context_saved() {
        assert!(TriageTier::Restart < TriageTier::Partial);
        assert!(TriageTier::Partial < TriageTier::Full);
    }

    #[test]
    fn cache_fraction_matches_the_tier() {
        assert_eq!(TriageTier::Full.cache_fraction(0.9), 1.0);
        assert_eq!(TriageTier::Partial.cache_fraction(0.5), 0.5);
        assert_eq!(TriageTier::Restart.cache_fraction(0.2), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// More grace budget never saves less: both the transferable
        /// fraction and the graded tier are monotone non-decreasing in
        /// the budget, for every plan-cost pair.
        #[test]
        fn triage_is_monotone_in_the_budget(
            t_zero_ms in 0u64..120_000,
            extra_ms in 0u64..300_000,
            budget_a_ms in 0u64..600_000,
            budget_b_ms in 0u64..600_000,
        ) {
            let t_zero = SimDuration::from_micros(t_zero_ms * 1000);
            let t_full = SimDuration::from_micros((t_zero_ms + extra_ms) * 1000);
            let (lo, hi) = if budget_a_ms <= budget_b_ms {
                (budget_a_ms, budget_b_ms)
            } else {
                (budget_b_ms, budget_a_ms)
            };
            let f_lo = transferable_fraction(
                SimDuration::from_micros(lo * 1000), t_zero, t_full);
            let f_hi = transferable_fraction(
                SimDuration::from_micros(hi * 1000), t_zero, t_full);
            prop_assert!((0.0..=1.0).contains(&f_lo));
            prop_assert!((0.0..=1.0).contains(&f_hi));
            prop_assert!(f_lo <= f_hi, "fraction fell: {f_lo} > {f_hi}");
            prop_assert!(
                triage(f_lo) <= triage(f_hi),
                "tier fell: {:?} > {:?}", triage(f_lo), triage(f_hi)
            );
        }

        /// The graded tier is monotone in the fraction itself, and the
        /// preserved cache fraction is monotone too.
        #[test]
        fn triage_is_monotone_in_the_fraction(
            a in 0u32..=1000,
            b in 0u32..=1000,
        ) {
            let (lo, hi) = (a.min(b) as f64 / 1000.0, a.max(b) as f64 / 1000.0);
            prop_assert!(triage(lo) <= triage(hi));
            prop_assert!(
                triage(lo).cache_fraction(lo) <= triage(hi).cache_fraction(hi) + 1e-12,
                "saved cache fell between f={lo} and f={hi}"
            );
        }
    }
}
