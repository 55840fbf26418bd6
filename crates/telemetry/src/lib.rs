//! A deterministic telemetry spine for the SpotServe reproduction.
//!
//! Every subsystem — the spot market, the fleet controller, the serving
//! core, the iteration engine — emits typed [`TelemetryEvent`]s into a
//! per-component [`Recorder`]; a finished run merges them into one
//! [`TelemetryStream`] ordered by `(time, shard, seq)`, which renders
//! as versioned JSONL (stable wire contract, [`STREAM_VERSION`]) and
//! digests with [`Fnv1a`] for replay gates.
//!
//! Design rules, enforced across the workspace:
//!
//! - **Observation only.** Emit points read state, never mutate it: a
//!   telemetry-on run replays byte-identical (canonical `RunReport`
//!   bytes) to a telemetry-off run.
//! - **Deterministic order.** Each component's recorder emits at its
//!   non-decreasing simulated `now`; merges are keyed by
//!   `(time, source, seq)` then `(time, shard, seq)`, never by thread
//!   schedule — so the exported stream is thread-count invariant.
//! - **Bounded volume.** Engine state travels as epoch-granular
//!   cumulative rollups, never per-token events.
//! - **Zero cost when off.** A disabled [`Recorder`] costs one
//!   predictable branch per emit point.

#![warn(missing_docs)]

mod event;
mod record;
mod stream;

pub use event::{TelemetryEvent, TriageVerdict};
pub use record::{Record, Recorder};
pub use stream::{Fnv1a, StreamRecord, TelemetryStream};

/// Version of the JSONL wire format. Bump when the header, record key
/// order, or any variant's field set changes. v2 added the chaos
/// vocabulary: `fault`, `lapse`, `retry`, `escalate`, `downgrade`.
pub const STREAM_VERSION: u32 = 2;
