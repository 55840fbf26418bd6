//! Deterministic discrete-event simulation kernel.
//!
//! `simkit` provides the minimal, reusable machinery that every other crate
//! in this workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time
//!   with saturating arithmetic and human-readable formatting,
//! * [`EventQueue`] — a deterministic future-event list (ties broken by
//!   insertion order, never by hash or pointer identity), whose
//!   [`Reservation`]s let a stream known up front fire beside the heap in
//!   the order it would have popped from it,
//! * [`run_shards`] — a deterministic fork/join helper, the substrate of
//!   the parallel simulation core,
//! * [`SimRng`] — named, independently-seeded random streams derived from a
//!   single master seed, so that adding a new consumer of randomness does
//!   not perturb existing streams,
//! * [`metrics`] — online summary statistics and exact percentile
//!   collection used by the experiment harness.
//!
//! # Example
//!
//! ```
//! use simkit::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(2), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t.as_secs_f64(), 1.0);
//! ```

pub mod event;
pub mod metrics;
pub mod rng;
pub mod shard;
pub mod time;

pub use event::{EventQueue, Reservation};
pub use metrics::{OnlineStats, Percentiles, Sampler};
pub use rng::SimRng;
pub use shard::run_shards;
pub use time::{SimDuration, SimTime};
