//! Inference requests and their outcomes.

use std::fmt;

use simkit::{SimDuration, SimTime};

/// Unique request identifier (arrival order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One generative inference request.
///
/// # Example
///
/// ```
/// use simkit::{SimDuration, SimTime};
/// use workload::{Request, RequestId};
/// let r = Request::new(RequestId(0), SimTime::from_secs(3), 512, 128);
/// let tight = r.with_slo(SimDuration::from_secs(30));
/// assert_eq!(tight.deadline, Some(SimTime::from_secs(33)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Identifier, dense in arrival order.
    pub id: RequestId,
    /// When the request reaches the inference server.
    pub arrival: SimTime,
    /// Input (prompt) length in tokens.
    pub s_in: u32,
    /// Output length in tokens (the paper fixes the generation length).
    pub s_out: u32,
    /// Optional completion deadline (`arrival + SLO`). `None` means the
    /// request is best-effort; SLO-aware admission only prices requests
    /// that carry a deadline.
    pub deadline: Option<SimTime>,
}

impl Request {
    /// A best-effort request (no deadline).
    pub fn new(id: RequestId, arrival: SimTime, s_in: u32, s_out: u32) -> Self {
        Request {
            id,
            arrival,
            s_in,
            s_out,
            deadline: None,
        }
    }

    /// This request with a completion deadline of `arrival + slo`.
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.deadline = Some(self.arrival + slo);
        self
    }

    /// The earliest-deadline-first ordering key: the deadline for
    /// SLO-carrying requests, `SimTime::MAX` for best-effort ones — so an
    /// EDF sort puts every deadline carrier (most urgent first) ahead of
    /// the best-effort tail, and a *stable* sort leaves the best-effort
    /// tail in FIFO order.
    pub fn edf_key(&self) -> SimTime {
        self.deadline.unwrap_or(SimTime::MAX)
    }
}

/// Stamps every request with a deadline of `arrival + slo` (the uniform-SLO
/// workload axis for SLO-aware admission).
pub fn apply_slo(requests: &mut [Request], slo: SimDuration) {
    for r in requests {
        r.deadline = Some(r.arrival + slo);
    }
}

/// A completed request with its end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The request served.
    pub request: Request,
    /// When its last output token was delivered.
    pub finished: SimTime,
}

impl RequestOutcome {
    /// End-to-end latency `l_req = l_sch + l_exe`.
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.request.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_finish_minus_arrival() {
        let o = RequestOutcome {
            request: Request::new(RequestId(1), SimTime::from_secs(10), 512, 128),
            finished: SimTime::from_secs(40),
        };
        assert_eq!(o.latency(), SimDuration::from_secs(30));
    }

    #[test]
    fn apply_slo_stamps_deadlines() {
        let mut reqs = vec![
            Request::new(RequestId(0), SimTime::from_secs(1), 512, 128),
            Request::new(RequestId(1), SimTime::from_secs(5), 512, 128),
        ];
        apply_slo(&mut reqs, SimDuration::from_secs(20));
        assert_eq!(reqs[0].deadline, Some(SimTime::from_secs(21)));
        assert_eq!(reqs[1].deadline, Some(SimTime::from_secs(25)));
    }

    #[test]
    fn display_request_id() {
        assert_eq!(format!("{}", RequestId(7)), "r7");
    }
}
