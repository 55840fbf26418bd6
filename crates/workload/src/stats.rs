//! Latency reporting shared by the experiment harnesses.

use simkit::{metrics::Percentiles, Sampler, SimTime};

use crate::request::RequestOutcome;

/// Collects completed requests and produces the paper's latency summaries.
///
/// # Example
///
/// ```
/// use simkit::SimTime;
/// use workload::{LatencyReport, Request, RequestId, RequestOutcome};
///
/// let mut rep = LatencyReport::new("SpotServe");
/// rep.record(RequestOutcome {
///     request: Request::new(RequestId(0), SimTime::ZERO, 512, 128),
///     finished: SimTime::from_secs(20),
/// });
/// let p = rep.percentiles();
/// assert_eq!(p.count, 1);
/// assert_eq!(p.p99, 20.0);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyReport {
    name: String,
    outcomes: Vec<RequestOutcome>,
    tokens_generated: u64,
}

impl LatencyReport {
    /// Creates an empty report labelled `name` (e.g. the system under test).
    pub fn new(name: impl Into<String>) -> Self {
        LatencyReport {
            name: name.into(),
            outcomes: Vec::new(),
            tokens_generated: 0,
        }
    }

    /// The report label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one completed request.
    pub fn record(&mut self, outcome: RequestOutcome) {
        self.tokens_generated += outcome.request.s_out as u64;
        self.outcomes.push(outcome);
    }

    /// Number of completed requests.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Total output tokens generated (the denominator of Figure 7's
    /// USD-per-token cost metric).
    pub fn tokens_generated(&self) -> u64 {
        self.tokens_generated
    }

    /// Latency percentiles in seconds (Figure 6 format), summarized from
    /// the outcomes in completion order.
    pub fn percentiles(&self) -> Percentiles {
        self.outcomes
            .iter()
            .map(|o| o.latency().as_secs_f64())
            .collect::<Sampler>()
            .percentiles()
    }

    /// Per-request `(arrival, latency_secs)` pairs in completion order
    /// (Figure 8g/8h timelines).
    pub fn timeline(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.outcomes
            .iter()
            .map(|o| (o.request.arrival, o.latency().as_secs_f64()))
    }

    /// All recorded outcomes.
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// Fraction of *deadline-carrying* completions that met their deadline
    /// (SLO attainment), or `None` when no completion carried one.
    pub fn slo_attainment(&self) -> Option<f64> {
        let (mut total, mut met) = (0u64, 0u64);
        for o in &self.outcomes {
            if let Some(deadline) = o.request.deadline {
                total += 1;
                if o.finished <= deadline {
                    met += 1;
                }
            }
        }
        (total > 0).then(|| met as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, RequestId};
    use simkit::SimDuration;

    fn outcome(id: u64, arrive_s: u64, latency_s: u64) -> RequestOutcome {
        let arrival = SimTime::from_secs(arrive_s);
        RequestOutcome {
            request: Request::new(RequestId(id), arrival, 512, 128),
            finished: arrival + SimDuration::from_secs(latency_s),
        }
    }

    #[test]
    fn aggregates_latencies_and_tokens() {
        let mut rep = LatencyReport::new("test");
        for i in 0..10 {
            rep.record(outcome(i, i, 10 + i));
        }
        assert_eq!(rep.completed(), 10);
        assert_eq!(rep.tokens_generated(), 1280);
        let p = rep.percentiles();
        assert_eq!(p.count, 10);
        assert!((p.mean - 14.5).abs() < 1e-9);
        assert_eq!(p.p99, 19.0);
    }

    #[test]
    fn slo_attainment_counts_only_deadline_carriers() {
        let mut rep = LatencyReport::new("slo");
        rep.record(outcome(0, 0, 10)); // best-effort: excluded
        let mut met = outcome(1, 0, 10);
        met.request = met.request.with_slo(SimDuration::from_secs(20));
        rep.record(met);
        let mut bust = outcome(2, 0, 30);
        bust.request = bust.request.with_slo(SimDuration::from_secs(20));
        rep.record(bust);
        assert_eq!(rep.slo_attainment(), Some(0.5));
        assert_eq!(LatencyReport::new("x").slo_attainment(), None);
    }

    #[test]
    fn timeline_preserves_order() {
        let mut rep = LatencyReport::new("t");
        rep.record(outcome(0, 5, 30));
        rep.record(outcome(1, 7, 20));
        let tl: Vec<(SimTime, f64)> = rep.timeline().collect();
        assert_eq!(tl[0], (SimTime::from_secs(5), 30.0));
        assert_eq!(tl[1], (SimTime::from_secs(7), 20.0));
    }
}
