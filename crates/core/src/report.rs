//! Run results: latency report, monetary cost, configuration history.

use cloudsim::{CostBreakdown, PoolCost};
use parallelism::ParallelConfig;
use simkit::{SimDuration, SimTime};
use workload::LatencyReport;

/// One reconfiguration recorded during a run (the annotations of
/// Figures 8g/8h).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigChange {
    /// When the new configuration went live.
    pub at: SimTime,
    /// The configuration adopted (`None` = serving halted, no feasible
    /// configuration).
    pub config: Option<ParallelConfig>,
    /// How long serving was paused for this transition.
    pub pause: SimDuration,
    /// Bytes moved over the network for the transition.
    pub migrated_bytes: u64,
    /// Bytes reloaded from storage for the transition.
    pub reloaded_bytes: u64,
}

/// Everything a serving run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-request latencies.
    pub latency: LatencyReport,
    /// Total fleet spend in USD over the run.
    pub cost_usd: f64,
    /// Spend attributed per billing kind and per pool (spot vs on-demand,
    /// zone by zone). The authoritative total is [`RunReport::cost_usd`];
    /// the split may differ from it by a float ulp (see
    /// [`cloudsim::BillingMeter::usd_of_kind`]).
    pub cost_breakdown: CostBreakdown,
    /// Requests still unfinished when the drain cap hit.
    pub unfinished: usize,
    /// Configuration history.
    pub config_changes: Vec<ConfigChange>,
    /// Wall-clock end of the simulation.
    pub finished_at: SimTime,
    /// Count of preemption notices received.
    pub preemptions: u32,
    /// Count of unannounced instance deaths ([`cloudsim::CloudEvent::InstanceFailed`]):
    /// chaos kills and preemptions whose notice was lost. Always zero
    /// with fault injection off.
    pub faults: u32,
    /// Count of lapsed capacity requests
    /// ([`cloudsim::CloudEvent::RequestLapsed`]): grants the market
    /// promised but never delivered, whether shed by a capacity drop or
    /// swallowed by the chaos harness's grant-lapse channel.
    pub lapses: u32,
    /// Count of instance grants received.
    pub grants: u32,
    /// Instance-count samples over time: `(t, spot, on_demand)`
    /// (the Figure 5 / Figure 8c-d panels).
    pub fleet_timeline: Vec<(SimTime, u32, u32)>,
    /// Requests dropped by SLO-aware admission: their deadline was
    /// unmeetable even running alone, so the engine refused to burn
    /// iterations on a guaranteed violation. Empty for best-effort
    /// workloads (no deadlines).
    pub slo_rejections: Vec<workload::Request>,
    /// The typed telemetry event stream, `Some` only when the run was
    /// built with [`crate::SystemOptions::with_telemetry`]. Deliberately
    /// excluded from [`RunReport::canonical_into`]: the canonical bytes
    /// must be identical with telemetry on and off (the stream has its own
    /// replay-gated JSONL digest).
    pub telemetry: Option<telemetry::TelemetryStream>,
}

/// The consolidated cost view of a run: the authoritative total, the
/// per-kind split, per-pool attribution, and the run's
/// $-per-committed-token efficiency — one typed struct instead of the
/// old scatter of ad-hoc [`RunReport`] getters.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Total fleet spend in USD (the billing meter's authoritative
    /// integral; the per-kind split below may differ by a float ulp).
    pub total_usd: f64,
    /// Spot spend summed over every pool.
    pub spot_usd: f64,
    /// On-demand spend summed over every pool.
    pub ondemand_usd: f64,
    /// USD per committed (generated) output token, `None` when the run
    /// produced no tokens. The $/token figure the `CostPerToken` fleet
    /// policy optimizes.
    pub usd_per_token: Option<f64>,
    /// Per-pool attribution, in pool order.
    pub pools: Vec<PoolCost>,
}

impl RunReport {
    /// The consolidated [`CostReport`] view of this run's spend.
    pub fn cost(&self) -> CostReport {
        let tokens = self.latency.tokens_generated();
        CostReport {
            total_usd: self.cost_usd,
            spot_usd: self.cost_breakdown.spot_usd(),
            ondemand_usd: self.cost_breakdown.ondemand_usd(),
            usd_per_token: (tokens > 0).then(|| self.cost_usd / tokens as f64),
            pools: self.cost_breakdown.pools.clone(),
        }
    }

    /// The configurations adopted, in order, without pauses/bytes.
    pub fn config_sequence(&self) -> Vec<Option<ParallelConfig>> {
        self.config_changes.iter().map(|c| c.config).collect()
    }

    /// Completions + SLO rejections: every request with a terminal
    /// outcome (conservation checks add `unfinished` to reach the total).
    pub fn settled(&self) -> usize {
        self.latency.completed() + self.slo_rejections.len()
    }

    /// Streams THE byte-exact rendering of everything this run produced
    /// into `out`: floats via their IEEE-754 bit patterns (so "close
    /// enough" can never pass), including the per-kind / per-pool cost
    /// breakdown, every request outcome, and SLO rejections. The
    /// determinism gate, the fleet-policy suite, and the sharded-replay
    /// digest all consume this one rendering — a field added to
    /// `RunReport` needs threading into exactly one place to stay under
    /// the gates.
    pub fn canonical_into(&self, out: &mut impl std::fmt::Write) {
        let cost = self.cost();
        writeln!(out, "cost_usd_bits={:016x}", cost.total_usd.to_bits()).expect("write");
        writeln!(out, "spot_usd_bits={:016x}", cost.spot_usd.to_bits()).expect("write");
        writeln!(out, "od_usd_bits={:016x}", cost.ondemand_usd.to_bits()).expect("write");
        for pc in &cost.pools {
            writeln!(
                out,
                "pool {} name={} sku={} spot_bits={:016x} od_bits={:016x}",
                pc.pool,
                pc.name,
                pc.sku,
                pc.spot_usd.to_bits(),
                pc.ondemand_usd.to_bits(),
            )
            .expect("write");
        }
        writeln!(out, "unfinished={}", self.unfinished).expect("write");
        writeln!(out, "finished_at_us={}", self.finished_at.as_micros()).expect("write");
        writeln!(out, "preemptions={}", self.preemptions).expect("write");
        writeln!(out, "faults={}", self.faults).expect("write");
        writeln!(out, "lapses={}", self.lapses).expect("write");
        writeln!(out, "grants={}", self.grants).expect("write");
        writeln!(out, "latency_name={}", self.latency.name()).expect("write");
        for o in self.latency.outcomes() {
            writeln!(
                out,
                "outcome id={} arrival_us={} s_in={} s_out={} finished_us={}",
                o.request.id,
                o.request.arrival.as_micros(),
                o.request.s_in,
                o.request.s_out,
                o.finished.as_micros(),
            )
            .expect("write");
        }
        for c in &self.config_changes {
            writeln!(
                out,
                "config at_us={} config={:?} pause_us={} migrated={} reloaded={}",
                c.at.as_micros(),
                c.config,
                c.pause.as_micros(),
                c.migrated_bytes,
                c.reloaded_bytes,
            )
            .expect("write");
        }
        for (t, spot, od) in &self.fleet_timeline {
            writeln!(out, "fleet t_us={} spot={spot} od={od}", t.as_micros()).expect("write");
        }
        for r in &self.slo_rejections {
            writeln!(
                out,
                "slo_reject id={} arrival_us={} s_in={} s_out={} deadline_us={}",
                r.id,
                r.arrival.as_micros(),
                r.s_in,
                r.s_out,
                r.deadline.map(|d| d.as_micros()).unwrap_or(0),
            )
            .expect("write");
        }
    }

    /// [`canonical_into`](Self::canonical_into) rendered to a `String`.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.canonical_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;
    use workload::{Request, RequestId, RequestOutcome};

    #[test]
    fn cost_per_token() {
        let mut latency = LatencyReport::new("x");
        latency.record(RequestOutcome {
            request: Request::new(RequestId(0), SimTime::ZERO, 512, 128),
            finished: SimTime::from_secs(30),
        });
        let rep = RunReport {
            latency,
            cost_usd: 1.28,
            cost_breakdown: CostBreakdown::default(),
            unfinished: 0,
            config_changes: vec![],
            finished_at: SimTime::from_secs(100),
            preemptions: 0,
            faults: 0,
            lapses: 0,
            grants: 0,
            fleet_timeline: vec![],
            slo_rejections: vec![],
            telemetry: None,
        };
        assert!((rep.cost().usd_per_token.unwrap() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn cost_report_sums_pools_by_kind() {
        use cloudsim::{PoolCost, PoolId};
        let rep = RunReport {
            latency: LatencyReport::new("x"),
            cost_usd: 10.0,
            cost_breakdown: CostBreakdown {
                pools: vec![
                    PoolCost {
                        pool: PoolId(0),
                        name: "z0".into(),
                        sku: "g4dn.12xlarge",
                        spot_usd: 3.0,
                        ondemand_usd: 1.0,
                    },
                    PoolCost {
                        pool: PoolId(1),
                        name: "z1".into(),
                        sku: "g6.12xlarge",
                        spot_usd: 2.0,
                        ondemand_usd: 0.0,
                    },
                    PoolCost {
                        pool: PoolId(2),
                        name: "z2".into(),
                        sku: "g4dn.12xlarge",
                        spot_usd: 4.0,
                        ondemand_usd: 0.0,
                    },
                ],
            },
            unfinished: 0,
            config_changes: vec![],
            finished_at: SimTime::ZERO,
            preemptions: 0,
            faults: 0,
            lapses: 0,
            grants: 0,
            fleet_timeline: vec![],
            slo_rejections: vec![],
            telemetry: None,
        };
        let cost = rep.cost();
        assert_eq!(cost.spot_usd, 9.0);
        assert_eq!(cost.ondemand_usd, 1.0);
        assert_eq!(cost.usd_per_token, None, "no tokens generated");
    }

    #[test]
    fn empty_run_has_no_cost_per_token() {
        let rep = RunReport {
            latency: LatencyReport::new("x"),
            cost_usd: 5.0,
            cost_breakdown: CostBreakdown::default(),
            unfinished: 0,
            config_changes: vec![],
            finished_at: SimTime::ZERO,
            preemptions: 0,
            faults: 0,
            lapses: 0,
            grants: 0,
            fleet_timeline: vec![],
            slo_rejections: vec![],
            telemetry: None,
        };
        assert_eq!(rep.cost().usd_per_token, None);
    }
}
