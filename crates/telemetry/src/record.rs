//! In-process event capture: [`Record`] and [`Recorder`].

use simkit::SimTime;

use crate::event::TelemetryEvent;

/// One captured event: when it happened and its emission order among
/// events its recorder captured at the same instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Simulated time of the event.
    pub time: SimTime,
    /// Emission sequence number within the owning recorder (total order
    /// among same-`time` events from one source).
    pub seq: u64,
    /// The event itself.
    pub event: TelemetryEvent,
}

/// A lightweight per-component event buffer.
///
/// Each instrumented component (`CloudMarket`, `FleetController`,
/// `ServingSystem`) owns its own `Recorder`; the streams are merged
/// deterministically at `finish()` by `(time, source, seq)`. A recorder
/// is `Clone + Send`, so sharded systems can carry one per shard across
/// `run_shards` worker threads.
///
/// Disabled is the default and costs one branch per emit point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorder {
    enabled: bool,
    seq: u64,
    records: Vec<Record>,
}

impl Recorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// A recorder that captures events.
    pub fn enabled() -> Self {
        Recorder {
            enabled: true,
            ..Recorder::default()
        }
    }

    /// Switches capture on (idempotent; already-captured events stay).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether this recorder captures events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Captures `event` at `time`.
    #[inline]
    pub fn emit(&mut self, time: SimTime, event: TelemetryEvent) {
        if self.enabled {
            self.push(time, event);
        }
    }

    #[inline(never)]
    fn push(&mut self, time: SimTime, event: TelemetryEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.records.push(Record { time, seq, event });
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Takes the captured records out, leaving the recorder enabled (or
    /// not) as before with an empty buffer and its sequence counter
    /// running on — `(time, seq)` stays a total order across takes.
    pub fn take(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.records)
    }

    /// Read-only view of the captured records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_captures_nothing() {
        let mut r = Recorder::disabled();
        r.emit(
            SimTime::from_secs(1),
            TelemetryEvent::InstanceKill {
                pool: 0,
                instance: 1,
            },
        );
        assert!(r.is_empty());
    }

    #[test]
    fn seq_is_total_order_across_takes() {
        let mut r = Recorder::enabled();
        let t = SimTime::from_secs(5);
        r.emit(t, TelemetryEvent::TransitionHalt { epoch: 1 });
        let first = r.take();
        r.emit(t, TelemetryEvent::TransitionHalt { epoch: 2 });
        let second = r.take();
        assert_eq!(first[0].seq, 0);
        assert_eq!(second[0].seq, 1, "seq must keep running across takes");
    }
}
