//! Run-level invariant auditing: replay a [`RunReport`] (and its
//! telemetry stream, when present) and check the conservation laws every
//! run must satisfy — chaos on or off.
//!
//! The chaos harness injects unannounced kills, lost notices, lapsed
//! grants and degraded links; the serving system is supposed to *degrade*
//! under them, never to *corrupt*. The [`InvariantAuditor`] makes that
//! contract checkable after the fact, from artifacts alone:
//!
//! 1. **Request conservation** — every admitted request is finished,
//!    SLO-rejected, or unfinished *exactly once*: `completed +
//!    slo_rejections + unfinished == expected`, with no duplicate
//!    terminal outcome and no request both finished and rejected.
//! 2. **Causal outcomes** — no request finishes before it arrives, and
//!    nothing finishes after the run's own end-of-time.
//! 3. **Lease lifecycle** — replayed from telemetry: an instance must be
//!    granted before it is noticed, killed, faulted, or released; no
//!    instance dies twice (never simultaneously live and killed); the
//!    live-instance count never goes negative.
//! 4. **Monotone progress** — the cumulative [`EngineRollup`] counters
//!    (admitted, completed, generated tokens) never decrease across the
//!    stream: a migration may *pause* progress, never un-commit it.
//! 5. **Billing consistency** — per-pool [`CostRollup`] integrals are
//!    monotone, and the report's per-kind/per-pool breakdown re-sums to
//!    the authoritative `cost_usd` (the path-integral of the leases)
//!    within float-accumulation slack.
//!
//! [`EngineRollup`]: telemetry::TelemetryEvent::EngineRollup
//! [`CostRollup`]: telemetry::TelemetryEvent::CostRollup
//!
//! A check that cannot run on a report is listed in
//! [`AuditReport::skipped`], never dropped silently: without a telemetry
//! stream, invariants 3 and 4 and the cost-rollup half of 5; without an
//! expected request count, the totals half of 1.
//!
//! The auditor is pure: it holds no simulation handles, reads only the
//! report, and is itself deterministic — the same report always yields
//! the same verdict, so audits can gate CI.
//!
//! # Example
//!
//! ```
//! use spotserve::{InvariantAuditor, Scenario, ServingSystem, SystemOptions};
//!
//! let scenario = Scenario::paper_stable(
//!     llmsim::ModelSpec::opt_6_7b(),
//!     cloudsim::AvailabilityTrace::paper_as(),
//!     1.0,
//!     7,
//! );
//! let n = scenario.requests.len();
//! let report = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
//! let audit = InvariantAuditor::new().with_expected_requests(n).audit(&report);
//! assert!(audit.is_clean(), "{audit}");
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use telemetry::TelemetryEvent;

use crate::report::RunReport;

/// Relative slack allowed between the summed cost breakdown and the
/// authoritative billing integral (float accumulation over many leases).
const BILLING_REL_TOL: f64 = 1e-9;

/// One violated invariant: which law broke and the concrete evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short stable name of the invariant (e.g. `"request-conservation"`).
    pub invariant: &'static str,
    /// Human-readable evidence: the ids/counters that disagree.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// The auditor's verdict over one run: every violated invariant, in
/// discovery order (empty = clean), and every check it could not run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// The violations found, in check order.
    pub violations: Vec<Violation>,
    /// The checks skipped for want of their input, in check order:
    /// [`SKIPPED_TOTALS`] without an expected request count, and
    /// [`SKIPPED_WITHOUT_TELEMETRY`] without a telemetry stream.
    pub skipped: Vec<&'static str>,
}

/// The check skipped by an auditor without
/// [`InvariantAuditor::with_expected_requests`].
pub const SKIPPED_TOTALS: &str = "request-conservation totals";

/// The checks skipped on a report without a telemetry stream.
pub const SKIPPED_WITHOUT_TELEMETRY: [&str; 3] = [
    "lease-lifecycle",
    "monotone-progress",
    "billing-consistency cost rollups",
];

impl AuditReport {
    /// Whether every invariant held. Skipped checks are not violations:
    /// a report can be clean with checks skipped.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation listed unless the run was clean.
    /// The assertion surface for test suites.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "invariant audit failed:\n{self}");
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            write!(f, "audit clean")?;
        }
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        if !self.skipped.is_empty() {
            if self.violations.is_empty() {
                write!(f, "; ")?;
            }
            write!(f, "skipped: {}", self.skipped.join(", "))?;
        }
        Ok(())
    }
}

/// Replays a [`RunReport`] and checks the run-level conservation
/// invariants (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct InvariantAuditor {
    /// Scenario request count to conserve against; `None` skips the
    /// totals check (outcome uniqueness is still enforced).
    expected_requests: Option<usize>,
}

impl InvariantAuditor {
    /// An auditor with no expected-count pin.
    pub fn new() -> Self {
        InvariantAuditor::default()
    }

    /// Pins the scenario's request count: `completed + rejected +
    /// unfinished` must equal exactly this.
    pub fn with_expected_requests(mut self, n: usize) -> Self {
        self.expected_requests = Some(n);
        self
    }

    /// Runs every check against `report` and returns the verdict.
    pub fn audit(&self, report: &RunReport) -> AuditReport {
        let mut out = AuditReport::default();
        self.check_request_conservation(report, &mut out);
        Self::check_outcome_causality(report, &mut out);
        Self::check_billing(report, &mut out);
        match &report.telemetry {
            Some(stream) => {
                Self::check_lease_lifecycle(stream, &mut out);
                Self::check_monotone_progress(stream, &mut out);
            }
            None => out.skipped.extend(SKIPPED_WITHOUT_TELEMETRY),
        }
        out
    }

    /// Invariant 1: every request settles exactly once.
    fn check_request_conservation(&self, report: &RunReport, out: &mut AuditReport) {
        let mut finished: BTreeSet<u64> = BTreeSet::new();
        for o in report.latency.outcomes() {
            if !finished.insert(o.request.id.0) {
                out.violations.push(Violation {
                    invariant: "request-conservation",
                    detail: format!("request {} finished twice", o.request.id.0),
                });
            }
        }
        let mut rejected: BTreeSet<u64> = BTreeSet::new();
        for r in &report.slo_rejections {
            if !rejected.insert(r.id.0) {
                out.violations.push(Violation {
                    invariant: "request-conservation",
                    detail: format!("request {} rejected twice", r.id.0),
                });
            }
            if finished.contains(&r.id.0) {
                out.violations.push(Violation {
                    invariant: "request-conservation",
                    detail: format!("request {} both finished and SLO-rejected", r.id.0),
                });
            }
        }
        let Some(expected) = self.expected_requests else {
            out.skipped.push(SKIPPED_TOTALS);
            return;
        };
        let settled = finished.len() + rejected.len();
        if settled + report.unfinished != expected {
            out.violations.push(Violation {
                invariant: "request-conservation",
                detail: format!(
                    "{} finished + {} rejected + {} unfinished != {} admitted",
                    finished.len(),
                    rejected.len(),
                    report.unfinished,
                    expected
                ),
            });
        }
    }

    /// Invariant 2: outcomes are causally ordered.
    fn check_outcome_causality(report: &RunReport, out: &mut AuditReport) {
        for o in report.latency.outcomes() {
            if o.finished < o.request.arrival {
                out.violations.push(Violation {
                    invariant: "outcome-causality",
                    detail: format!(
                        "request {} finished at {}us before arriving at {}us",
                        o.request.id.0,
                        o.finished.as_micros(),
                        o.request.arrival.as_micros()
                    ),
                });
            }
            if o.finished > report.finished_at {
                out.violations.push(Violation {
                    invariant: "outcome-causality",
                    detail: format!(
                        "request {} finished at {}us, after the run ended at {}us",
                        o.request.id.0,
                        o.finished.as_micros(),
                        report.finished_at.as_micros()
                    ),
                });
            }
        }
    }

    /// Invariant 3: lease lifecycle, replayed from telemetry. Grants and
    /// deaths must alternate per instance — no instance is ever
    /// simultaneously live and killed, or killed while never granted.
    fn check_lease_lifecycle(stream: &telemetry::TelemetryStream, out: &mut AuditReport) {
        let mut live: BTreeSet<u64> = BTreeSet::new();
        for r in stream.records() {
            match r.event {
                // The insert/remove side effects run whenever the pattern
                // matches; a guard that fails (healthy transition) falls
                // through to the catch-all.
                TelemetryEvent::InstanceGrant { instance, .. } if !live.insert(instance) => {
                    out.violations.push(Violation {
                        invariant: "lease-lifecycle",
                        detail: format!(
                            "instance {instance} granted at {}us while already live",
                            r.time.as_micros()
                        ),
                    });
                }
                TelemetryEvent::KillNotice { instance, .. } if !live.contains(&instance) => {
                    out.violations.push(Violation {
                        invariant: "lease-lifecycle",
                        detail: format!(
                            "notice for dead instance {instance} at {}us",
                            r.time.as_micros()
                        ),
                    });
                }
                TelemetryEvent::InstanceKill { instance, .. }
                | TelemetryEvent::InstanceRelease { instance, .. }
                | TelemetryEvent::Fault { instance, .. }
                    if !live.remove(&instance) =>
                {
                    out.violations.push(Violation {
                        invariant: "lease-lifecycle",
                        detail: format!(
                            "instance {instance} died at {}us while not live \
                             (double kill or kill before grant)",
                            r.time.as_micros()
                        ),
                    });
                }
                _ => {}
            }
        }
    }

    /// Invariant 4: cumulative engine counters never decrease — a
    /// migration pauses progress, never un-commits tokens.
    fn check_monotone_progress(stream: &telemetry::TelemetryStream, out: &mut AuditReport) {
        let mut last: Option<(u64, u64, u64)> = None;
        for r in stream.records() {
            if let TelemetryEvent::EngineRollup {
                admitted,
                completed,
                tokens,
                ..
            } = r.event
            {
                if let Some((a0, c0, t0)) = last {
                    if admitted < a0 || completed < c0 || tokens < t0 {
                        out.violations.push(Violation {
                            invariant: "monotone-progress",
                            detail: format!(
                                "rollup at {}us went backwards: admitted {a0}->{admitted}, \
                                 completed {c0}->{completed}, tokens {t0}->{tokens}",
                                r.time.as_micros()
                            ),
                        });
                    }
                }
                last = Some((admitted, completed, tokens));
            }
        }
    }

    /// Invariant 5: billing consistency. Per-pool cost rollups are
    /// monotone, and the breakdown re-sums to the authoritative total.
    fn check_billing(report: &RunReport, out: &mut AuditReport) {
        let cost = report.cost();
        let split = cost.spot_usd + cost.ondemand_usd;
        let tol = BILLING_REL_TOL * cost.total_usd.abs().max(1.0);
        if (split - cost.total_usd).abs() > tol {
            out.violations.push(Violation {
                invariant: "billing-consistency",
                detail: format!(
                    "spot {} + on-demand {} != total {} (tolerance {tol:e})",
                    cost.spot_usd, cost.ondemand_usd, cost.total_usd
                ),
            });
        }
        let pool_sum: f64 = cost.pools.iter().map(|p| p.spot_usd + p.ondemand_usd).sum();
        if (pool_sum - cost.total_usd).abs() > tol {
            out.violations.push(Violation {
                invariant: "billing-consistency",
                detail: format!(
                    "per-pool sum {pool_sum} != total {} (tolerance {tol:e})",
                    cost.total_usd
                ),
            });
        }
        if let Some(stream) = &report.telemetry {
            let mut last: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
            for r in stream.records() {
                if let TelemetryEvent::CostRollup {
                    pool,
                    spot_microusd,
                    ondemand_microusd,
                    ..
                } = r.event
                {
                    if let Some(&(s0, o0)) = last.get(&pool) {
                        if spot_microusd < s0 || ondemand_microusd < o0 {
                            out.violations.push(Violation {
                                invariant: "billing-consistency",
                                detail: format!(
                                    "pool {pool} cost rollup at {}us went backwards: \
                                     spot {s0}->{spot_microusd}µ$, \
                                     od {o0}->{ondemand_microusd}µ$",
                                    r.time.as_micros()
                                ),
                            });
                        }
                    }
                    last.insert(pool, (spot_microusd, ondemand_microusd));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::CostBreakdown;
    use simkit::SimTime;
    use workload::{LatencyReport, Request, RequestId, RequestOutcome};

    fn report_with(outcomes: &[(u64, u64, u64)], unfinished: usize) -> RunReport {
        // (id, arrival_s, finished_s)
        let mut latency = LatencyReport::new("audit");
        for &(id, arr, fin) in outcomes {
            latency.record(RequestOutcome {
                request: Request::new(RequestId(id), SimTime::from_secs(arr), 64, 16),
                finished: SimTime::from_secs(fin),
            });
        }
        RunReport {
            latency,
            cost_usd: 0.0,
            cost_breakdown: CostBreakdown::default(),
            unfinished,
            config_changes: vec![],
            finished_at: SimTime::from_secs(10_000),
            preemptions: 0,
            faults: 0,
            lapses: 0,
            grants: 0,
            fleet_timeline: vec![],
            slo_rejections: vec![],
            telemetry: None,
        }
    }

    #[test]
    fn a_conserving_report_is_clean() {
        let rep = report_with(&[(0, 0, 5), (1, 1, 6)], 1);
        let audit = InvariantAuditor::new()
            .with_expected_requests(3)
            .audit(&rep);
        assert!(audit.is_clean(), "{audit}");
        audit.assert_clean();
    }

    #[test]
    fn a_telemetry_off_audit_names_the_stream_checks_it_skipped() {
        let rep = report_with(&[(0, 0, 5)], 0);
        let audit = InvariantAuditor::new()
            .with_expected_requests(1)
            .audit(&rep);
        assert!(audit.is_clean(), "a skip is not a violation");
        assert_eq!(audit.skipped, SKIPPED_WITHOUT_TELEMETRY);
        assert_eq!(
            audit.to_string(),
            "audit clean; skipped: lease-lifecycle, monotone-progress, \
             billing-consistency cost rollups"
        );
    }

    #[test]
    fn an_audit_without_an_expected_count_names_the_totals_check() {
        let mut rep = report_with(&[(0, 0, 5)], 0);
        rep.telemetry = Some(stream_of(&[]));
        let audit = InvariantAuditor::new().audit(&rep);
        assert!(audit.is_clean());
        assert_eq!(audit.skipped, [SKIPPED_TOTALS]);
        assert!(audit
            .to_string()
            .ends_with("skipped: request-conservation totals"));
        // With both inputs present nothing is skipped.
        let full = InvariantAuditor::new()
            .with_expected_requests(1)
            .audit(&rep);
        assert!(full.skipped.is_empty());
        assert_eq!(full.to_string(), "audit clean");
    }

    #[test]
    fn a_lost_request_is_caught() {
        let rep = report_with(&[(0, 0, 5)], 0);
        let audit = InvariantAuditor::new()
            .with_expected_requests(2)
            .audit(&rep);
        assert!(!audit.is_clean());
        assert_eq!(audit.violations[0].invariant, "request-conservation");
    }

    #[test]
    fn a_double_finish_is_caught() {
        let rep = report_with(&[(7, 0, 5), (7, 0, 6)], 0);
        let audit = InvariantAuditor::new().audit(&rep);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.detail.contains("finished twice")));
    }

    #[test]
    fn time_travel_is_caught() {
        let rep = report_with(&[(0, 10, 5)], 0);
        let audit = InvariantAuditor::new().audit(&rep);
        assert_eq!(audit.violations[0].invariant, "outcome-causality");
    }

    #[test]
    fn a_finish_after_the_run_end_is_caught() {
        let mut rep = report_with(&[(0, 0, 5)], 0);
        rep.finished_at = SimTime::from_secs(3);
        let audit = InvariantAuditor::new().audit(&rep);
        assert_eq!(audit.violations[0].invariant, "outcome-causality");
    }

    #[test]
    fn a_request_both_finished_and_rejected_is_caught() {
        let mut rep = report_with(&[(4, 0, 5)], 0);
        rep.slo_rejections
            .push(Request::new(RequestId(4), SimTime::ZERO, 64, 16));
        let audit = InvariantAuditor::new().audit(&rep);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.detail.contains("both finished and SLO-rejected")));
    }

    fn stream_of(events: &[(u64, TelemetryEvent)]) -> telemetry::TelemetryStream {
        let mut rec = telemetry::Recorder::enabled();
        for &(t, ev) in events {
            rec.emit(SimTime::from_secs(t), ev);
        }
        telemetry::TelemetryStream::from_sources(vec![rec.take()])
    }

    #[test]
    fn a_double_kill_is_caught() {
        let mut rep = report_with(&[], 0);
        rep.telemetry = Some(stream_of(&[
            (
                0,
                TelemetryEvent::InstanceGrant {
                    pool: 0,
                    instance: 1,
                    ondemand: false,
                },
            ),
            (
                5,
                TelemetryEvent::InstanceKill {
                    pool: 0,
                    instance: 1,
                },
            ),
            (
                6,
                TelemetryEvent::Fault {
                    pool: 0,
                    instance: 1,
                },
            ),
        ]));
        let audit = InvariantAuditor::new().audit(&rep);
        assert_eq!(audit.violations.len(), 1);
        assert_eq!(audit.violations[0].invariant, "lease-lifecycle");
        assert!(audit.violations[0].detail.contains("instance 1"));
    }

    #[test]
    fn a_kill_before_grant_is_caught() {
        let mut rep = report_with(&[], 0);
        rep.telemetry = Some(stream_of(&[(
            2,
            TelemetryEvent::Fault {
                pool: 0,
                instance: 9,
            },
        )]));
        let audit = InvariantAuditor::new().audit(&rep);
        assert_eq!(audit.violations[0].invariant, "lease-lifecycle");
    }

    #[test]
    fn shrinking_rollups_are_caught() {
        let mut rep = report_with(&[], 0);
        let roll = |tokens| TelemetryEvent::EngineRollup {
            queue_depth: 0,
            residents: 0,
            admitted: 1,
            deferrals: 0,
            rejected: 0,
            completed: 1,
            tokens,
        };
        rep.telemetry = Some(stream_of(&[(1, roll(100)), (2, roll(90))]));
        let audit = InvariantAuditor::new().audit(&rep);
        assert_eq!(audit.violations[0].invariant, "monotone-progress");
        assert!(audit.violations[0].detail.contains("tokens 100->90"));
    }

    #[test]
    fn a_cooked_billing_total_is_caught() {
        let mut rep = report_with(&[], 0);
        rep.cost_usd = 5.0; // breakdown is empty: split sums to 0
        let audit = InvariantAuditor::new().audit(&rep);
        assert!(audit
            .violations
            .iter()
            .all(|v| v.invariant == "billing-consistency"));
        assert!(!audit.is_clean());
    }

    #[test]
    fn backwards_cost_rollups_are_caught() {
        let mut rep = report_with(&[], 0);
        let cost = |spot| TelemetryEvent::CostRollup {
            pool: 0,
            sku: "g4dn.12xlarge",
            spot_microusd: spot,
            ondemand_microusd: 0,
        };
        rep.telemetry = Some(stream_of(&[(1, cost(500)), (2, cost(400))]));
        let audit = InvariantAuditor::new().audit(&rep);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.detail.contains("went backwards")));
    }
}
