//! Shared helpers for the integration suites.
//!
//! `canonical` is THE byte-exact rendering of a [`RunReport`]. The
//! implementation lives on [`RunReport::canonical`] so the determinism
//! gate, the fleet-policy suite, and the sharded-replay digest all consume
//! the same bytes; this module keeps the historical free-function shape
//! the suites call.

use spotserve::{InvariantAuditor, RunReport, Scenario, ServingSystem, SystemOptions};

#[allow(dead_code)] // each suite compiles this module separately
pub mod reference;

/// Canonical byte-exact rendering of everything a run produced: floats
/// via their IEEE-754 bit patterns (so "close enough" can never pass),
/// including the per-kind / per-pool cost breakdown and SLO rejections.
#[allow(dead_code)] // each suite compiles this module separately
pub fn canonical(report: &RunReport) -> String {
    report.canonical()
}

/// Runs the [`InvariantAuditor`] over `report` pinned to `expected`
/// scenario requests, panicking with every violated invariant listed
/// unless the run is clean. Every integration suite routes its reports
/// through this — chaos on or off, a run may degrade but never corrupt.
#[allow(dead_code)] // each suite compiles this module separately
pub fn assert_audit_clean(report: &RunReport, expected: usize) {
    InvariantAuditor::new()
        .with_expected_requests(expected)
        .audit(report)
        .assert_clean();
}

/// Runs `scenario` under `opts` with telemetry recorded, and audits the
/// report against the scenario's request count with its stream attached,
/// so the stream checks (lease lifecycle, monotone progress) run too (see
/// [`assert_audit_clean`]). Telemetry never changes the canonical bytes.
#[allow(dead_code)] // each suite compiles this module separately
pub fn run_audited(opts: SystemOptions, scenario: Scenario) -> RunReport {
    let expected = scenario.requests.len();
    let report = ServingSystem::new(opts.with_telemetry(), scenario).run();
    assert_audit_clean(&report, expected);
    report
}
