//! The sharded, deterministic parallel simulation core.
//!
//! A multi-pool scenario is partitioned into shards — each shard a full
//! [`ServingSystem`] over a contiguous slice of the pool list and a
//! round-robin slice of the request stream. Shards share nothing: a
//! shard's controller reacts only to its own pools' cloud events, as
//! SpotServe's controller reacts only to its own deployment's. So every
//! shard runs to completion on a worker thread, and the results merge in
//! shard order.
//!
//! Determinism comes from partitioning, not locks: each shard advances
//! its own `EventQueue` in `(time, seq)` order whichever thread runs it,
//! and the merged record is assembled in `(SimTime, shard_id, seq)`
//! order — so [`ScaleReport::digest`] is byte-identical for every thread
//! count, and a single-shard run is the sequential [`ServingSystem::run`]
//! verbatim.

use simkit::{run_shards, Percentiles, Sampler};
use telemetry::{Fnv1a, TelemetryStream};

use crate::config::SystemOptions;
use crate::report::RunReport;
use crate::system::{Scenario, ServingSystem};

/// A multi-pool scenario partitioned into independent shards, run to
/// completion on up to `threads` workers.
///
/// # Example
///
/// ```no_run
/// use spotserve::{Scenario, ShardedSystem, SystemOptions};
/// # fn scenario() -> Scenario { unimplemented!() }
/// let report = ShardedSystem::new(SystemOptions::spotserve(), scenario(), 8)
///     .with_threads(4)
///     .run();
/// println!("digest={:016x}", report.digest());
/// ```
pub struct ShardedSystem {
    shards: Vec<ServingSystem>,
    threads: usize,
}

impl ShardedSystem {
    /// Partitions `scenario` into `shards` independent serving systems:
    /// shard `i` owns a contiguous slice of the pool list, every
    /// `shards`-th request (round-robin by arrival index, preserving
    /// arrival order), a proportional share of the initial rate estimate,
    /// and a seed derived from the scenario seed and the shard id. With
    /// `shards == 1` the scenario passes through untouched, so a
    /// single-shard run is the legacy sequential system verbatim.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero, or when `shards > 1` and the scenario
    /// has fewer pools than shards.
    pub fn new(opts: SystemOptions, scenario: Scenario, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        ShardedSystem {
            shards: partition(scenario, shards)
                .into_iter()
                .map(|sc| ServingSystem::new(opts.clone(), sc))
                .collect(),
            threads: 1,
        }
    }

    /// Sets the worker-thread budget (default 1). The output is
    /// byte-identical for every value; threads only buy wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs every shard to completion and merges the results in shard
    /// order.
    pub fn run(self) -> ScaleReport {
        // A slot holds a shard's system until a worker runs it, then the
        // shard's report and event count.
        let mut slots: Vec<_> = self
            .shards
            .into_iter()
            .map(|sys| (Some(sys), None))
            .collect();
        run_shards(&mut slots, self.threads, |_, (sys, out)| {
            *out = sys.take().map(ServingSystem::run_counted);
        });
        let (mut shards, events): (Vec<RunReport>, Vec<u64>) = slots
            .into_iter()
            .map(|(_, out)| out.expect("every shard ran"))
            .unzip();
        // The fleet-wide telemetry stream: per-shard streams (each already
        // deterministic in isolation) re-tagged and merged `(time, shard,
        // seq)`, so the export is identical at every thread count.
        let telemetry = shards.iter().all(|r| r.telemetry.is_some()).then(|| {
            TelemetryStream::merge_shards(
                shards
                    .iter_mut()
                    .map(|r| r.telemetry.take().expect("checked above"))
                    .collect(),
            )
        });
        let mut latencies: Sampler = shards
            .iter()
            .flat_map(|rep| rep.latency.outcomes())
            .map(|o| o.latency().as_secs_f64())
            .collect();
        let mut total_cost_usd = 0.0;
        let mut completed = 0;
        let mut unfinished = 0;
        for rep in &shards {
            total_cost_usd += rep.cost_usd;
            completed += rep.latency.completed();
            unfinished += rep.unfinished;
        }
        ScaleReport {
            latency: latencies.percentiles(),
            total_cost_usd,
            completed,
            unfinished,
            epochs: vec![EpochRecord { events }],
            shards,
            telemetry,
        }
    }
}

/// Splits a scenario into per-shard scenarios (see [`ShardedSystem::new`]).
fn partition(scenario: Scenario, shards: usize) -> Vec<Scenario> {
    if shards == 1 {
        return vec![scenario];
    }
    assert!(
        scenario.pools.len() >= shards,
        "{} pools cannot fill {} shards",
        scenario.pools.len(),
        shards
    );
    let total = scenario.requests.len();
    let base = scenario.pools.len() / shards;
    let extra = scenario.pools.len() % shards;
    let mut pool_cursor = 0;
    (0..shards)
        .map(|i| {
            let n_pools = base + usize::from(i < extra);
            let pools = scenario.pools[pool_cursor..pool_cursor + n_pools].to_vec();
            pool_cursor += n_pools;
            let requests: Vec<_> = scenario
                .requests
                .iter()
                .skip(i)
                .step_by(shards)
                .copied()
                .collect();
            let share = if total == 0 {
                1.0 / shards as f64
            } else {
                requests.len() as f64 / total as f64
            };
            Scenario {
                model: scenario.model.clone(),
                trace: scenario.trace.clone(),
                pools,
                requests,
                cloud: scenario.cloud.clone(),
                storage: scenario.storage,
                // Golden-ratio mixing keeps shard streams independent while
                // shard 0 of a 1-shard split keeps the scenario seed.
                seed: scenario
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                initial_rate: scenario.initial_rate * share,
            }
        })
        .collect()
}

/// One epoch of a sharded run. Shards run to completion without
/// barriers, so a run has exactly one.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Events each shard processed, in shard order.
    pub events: Vec<u64>,
}

/// Everything a sharded run produced: the per-shard [`RunReport`]s in
/// shard order, the per-shard event counts, and fleet-wide merged
/// summaries.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<RunReport>,
    /// The run's single epoch (see [`EpochRecord`]).
    pub epochs: Vec<EpochRecord>,
    /// Request latencies merged across shards (exact quantiles over every
    /// shard's samples, collected in shard order).
    pub latency: Percentiles,
    /// Fleet-wide spend, summed in shard order.
    pub total_cost_usd: f64,
    /// Completions across all shards.
    pub completed: usize,
    /// Requests still unfinished across all shards.
    pub unfinished: usize,
    /// The fleet-wide telemetry stream, merged `(time, shard, seq)` from
    /// the per-shard streams (which are drained into it — the per-shard
    /// [`RunReport::telemetry`] fields here are `None`). `Some` only when
    /// the run was built with [`SystemOptions::with_telemetry`].
    pub telemetry: Option<TelemetryStream>,
}

impl ScaleReport {
    /// Streams the byte-exact rendering of the whole sharded run: the
    /// merged summaries (float bits), then every shard's
    /// [`RunReport::canonical_into`] section in shard order.
    pub fn canonical_into(&self, out: &mut impl std::fmt::Write) {
        writeln!(
            out,
            "total_cost_bits={:016x}",
            self.total_cost_usd.to_bits()
        )
        .expect("write");
        writeln!(
            out,
            "latency count={} mean_bits={:016x} p50_bits={:016x} p99_bits={:016x} max_bits={:016x}",
            self.latency.count,
            self.latency.mean.to_bits(),
            self.latency.p50.to_bits(),
            self.latency.p99.to_bits(),
            self.latency.max.to_bits(),
        )
        .expect("write");
        writeln!(
            out,
            "completed={} unfinished={}",
            self.completed, self.unfinished
        )
        .expect("write");
        for (i, rep) in self.shards.iter().enumerate() {
            writeln!(out, "shard {i}").expect("write");
            rep.canonical_into(out);
        }
    }

    /// FNV-1a (64-bit) over [`canonical_into`](Self::canonical_into) —
    /// stable across platforms and builds, so 1-thread and N-thread runs
    /// can be compared without materializing the (potentially huge)
    /// canonical string.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.canonical_into(&mut h);
        h.finish()
    }

    /// FNV-1a digest of the merged telemetry stream's JSONL rendering,
    /// `None` when the run was built without telemetry. Like
    /// [`digest`](Self::digest), pinned equal across thread counts.
    pub fn stream_digest(&self) -> Option<u64> {
        self.telemetry.as_ref().map(TelemetryStream::digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{AvailabilityTrace, PoolSpec};
    use llmsim::ModelSpec;

    fn scenario(pools: usize, requests_per_pool: usize) -> Scenario {
        let rate = 1.2 * pools as f64;
        let mut spec = workload::WorkloadSpec::paper_stable(rate);
        spec.duration =
            simkit::SimDuration::from_secs_f64((requests_per_pool * pools) as f64 / rate);
        let requests = spec.generate(&mut simkit::SimRng::new(11).stream("arrivals"));
        Scenario::with_requests(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(4),
            requests,
            rate,
            11,
        )
        .with_pools(
            (0..pools)
                .map(|i| PoolSpec::new(format!("z{i}"), AvailabilityTrace::constant(4)))
                .collect(),
        )
    }

    #[test]
    fn single_shard_run_is_the_legacy_run_verbatim() {
        let sc = scenario(2, 40);
        let legacy = ServingSystem::new(SystemOptions::spotserve(), sc.clone()).run();
        let sharded = ShardedSystem::new(SystemOptions::spotserve(), sc, 1).run();
        assert_eq!(sharded.shards.len(), 1);
        assert_eq!(sharded.shards[0].canonical(), legacy.canonical());
    }

    #[test]
    fn digest_is_thread_count_invariant() {
        let mk = || ShardedSystem::new(SystemOptions::spotserve(), scenario(4, 30), 4);
        let one = mk().with_threads(1).run();
        let four = mk().with_threads(4).run();
        let many = mk().with_threads(16).run();
        assert_eq!(one.digest(), four.digest());
        assert_eq!(one.digest(), many.digest());
        let mut a = String::new();
        let mut b = String::new();
        one.canonical_into(&mut a);
        four.canonical_into(&mut b);
        assert_eq!(a, b, "canonical streams match byte for byte");
    }

    #[test]
    fn telemetry_stream_is_thread_count_invariant() {
        let mk = || {
            ShardedSystem::new(
                SystemOptions::spotserve().with_telemetry(),
                scenario(4, 30),
                4,
            )
        };
        let one = mk().with_threads(1).run();
        let eight = mk().with_threads(8).run();
        assert!(one.stream_digest().is_some());
        assert_eq!(one.stream_digest(), eight.stream_digest());
        assert_eq!(
            one.telemetry.as_ref().unwrap().to_jsonl(),
            eight.telemetry.as_ref().unwrap().to_jsonl(),
            "exported JSONL matches byte for byte across thread counts"
        );
        // Observation must not perturb the run: the canonical digest with
        // telemetry on equals the telemetry-off digest.
        let off = ShardedSystem::new(SystemOptions::spotserve(), scenario(4, 30), 4).run();
        assert_eq!(off.stream_digest(), None);
        assert_eq!(off.digest(), one.digest());
    }

    #[test]
    fn partition_conserves_requests_and_pools() {
        let sc = scenario(5, 20);
        let total = sc.requests.len();
        let parts = partition(sc, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(|p| p.requests.len()).sum::<usize>(), total);
        assert_eq!(parts.iter().map(|p| p.pools.len()).sum::<usize>(), 5);
        assert_eq!(parts[0].pools.len(), 2, "extras go to the first shards");
        for p in &parts {
            assert!(
                p.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                "round-robin keeps arrival order"
            );
        }
    }

    #[test]
    fn sharded_run_settles_every_request() {
        let sc = scenario(4, 25);
        let total = sc.requests.len();
        let rep = ShardedSystem::new(SystemOptions::spotserve(), sc, 4)
            .with_threads(2)
            .run();
        assert_eq!(rep.completed + rep.unfinished, total);
        assert_eq!(rep.latency.count, rep.completed);
        assert_eq!(rep.epochs.len(), 1, "no barriers, one epoch");
        assert_eq!(rep.epochs[0].events.len(), 4);
        assert!(rep.epochs[0].events.iter().all(|&n| n > 0));
        assert!(rep.total_cost_usd > 0.0);
    }
}
