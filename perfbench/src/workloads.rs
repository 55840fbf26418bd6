//! The two named workloads, each generated from a seed.
//!
//! A workload is a list of [`Job`]s: six sharded runs for `churn_chaos`,
//! 864 single-system runs for `paper_grid`. Arrivals are pre-generated in
//! simulated time (open loop), so host speed never changes the load the
//! simulated system sees.
//!
//! One seed's arrivals are bursty (Gamma, CV 6), so the host time a
//! request costs moves with the seed. Both workloads therefore run several
//! arrival seeds per seed: with fewer, the spread of `sim_req_per_s` from
//! seed to seed came from the inputs.

use cloudsim::{
    AvailabilityTrace, FaultSpec, InstanceType, OuParams, PoolSpec, PriceModel, TraceGenerator,
};
use fleetctl::FleetPolicy;
use llmsim::ModelSpec;
use simkit::{SimDuration, SimRng};
use spotserve::{Scenario, ServingSystem, ShardedSystem, SystemOptions};
use spotserve_bench::{paper_rate, paper_systems, paper_traces};
use workload::WorkloadSpec;

/// Host worker threads for sharded runs. One: on a shared 2-core host,
/// two threads spread the host throughput of a 10^6-request, 8-shard
/// replay 0.15 from run to run against 0.09 with one; the shards and their
/// epoch loop run either way.
pub const THREADS: usize = 1;

/// `churn_chaos`: pools, shards, arrival window, per-pool rate, SLO.
const CHURN_POOLS: usize = 12;
const CHURN_SHARDS: usize = 4;
const CHURN_ARRIVAL_S: u64 = 4 * 3600;
const CHURN_RATE_PER_POOL: f64 = 0.3;
const CHURN_SLO_S: u64 = 900;

/// `churn_chaos`: runs per seed, each over the same market with its own
/// arrivals. With one, `sim_req_per_s` spread 0.135 (IQR over median)
/// over five seeds.
const CHURN_RUNS: u64 = 6;

/// `churn_chaos`: the seed of the fixed market (churn traces, price paths,
/// fault plans, cloud draws); the workload seed varies the arrivals. A
/// market drawn from the workload seed moved the simulated metrics by up
/// to 2x from seed to seed, more than any bound the benchmark may set.
const CHURN_MARKET_SEED: u64 = 0x5EED_C4A0;

/// `paper_grid`: seeds per (system, model, trace) cell. The paper's grid
/// has six; with six, `sim_req_per_s` spread about 0.16 (IQR over median)
/// over five seeds.
const GRID_SEEDS: u64 = 24;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChurnChaos,
    PaperGrid,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "churn_chaos" => Some(Workload::ChurnChaos),
            "paper_grid" => Some(Workload::PaperGrid),
            _ => None,
        }
    }

    /// The latency limit that stands in for a deadline when a request
    /// carries none (`slo_attainment`). `churn_chaos` requests all carry
    /// their own 900 s deadline.
    pub fn latency_limit_s(self) -> f64 {
        match self {
            Workload::ChurnChaos => CHURN_SLO_S as f64,
            Workload::PaperGrid => 120.0,
        }
    }

    /// Generates the workload's jobs from `seed`.
    pub fn generate(self, seed: u64) -> Vec<Job> {
        match self {
            Workload::ChurnChaos => (0..CHURN_RUNS)
                .map(|k| churn_chaos(seed.wrapping_mul(CHURN_RUNS).wrapping_add(k)))
                .collect(),
            Workload::PaperGrid => paper_grid(seed),
        }
    }
}

/// One serving run of a workload.
#[derive(Clone)]
pub struct Job {
    /// The serving system's name (`SpotServe`, `Reparallelization`, ...).
    pub label: &'static str,
    pub opts: SystemOptions,
    pub scenario: Scenario,
    /// 1 runs a plain [`ServingSystem`]; more runs a [`ShardedSystem`].
    pub shards: usize,
}

/// A job's systems, built and ready to run.
pub enum Built {
    Single(Box<ServingSystem>),
    Sharded(ShardedSystem),
}

impl Job {
    /// Builds the job's system(s); `telemetry` switches the recorder on
    /// for jobs that run without it.
    pub fn build(&self, telemetry: bool) -> Built {
        let opts = if telemetry {
            self.opts.clone().with_telemetry()
        } else {
            self.opts.clone()
        };
        if self.shards == 1 {
            Built::Single(Box::new(ServingSystem::new(opts, self.scenario.clone())))
        } else {
            Built::Sharded(
                ShardedSystem::new(opts, self.scenario.clone(), self.shards).with_threads(THREADS),
            )
        }
    }

    /// Requests each shard receives: the sharded runner deals requests
    /// round-robin by arrival index.
    pub fn expected_per_shard(&self) -> Vec<usize> {
        let n = self.scenario.requests.len();
        (0..self.shards)
            .map(|i| n / self.shards + usize::from(i < n % self.shards))
            .collect()
    }

    /// The scenario one shard runs: its slice of pools and requests (the
    /// sharded runner's partition; pools are split contiguously).
    pub fn shard_scenario(&self, shard: usize) -> Scenario {
        if self.shards == 1 {
            return self.scenario.clone();
        }
        let pools = &self.scenario.pools;
        let base = pools.len() / self.shards;
        let extra = pools.len() % self.shards;
        let start = shard * base + shard.min(extra);
        let len = base + usize::from(shard < extra);
        let requests: Vec<_> = self
            .scenario
            .requests
            .iter()
            .skip(shard)
            .step_by(self.shards)
            .copied()
            .collect();
        let share = requests.len() as f64 / self.scenario.requests.len().max(1) as f64;
        let mut sc = self.scenario.clone();
        sc.pools = pools[start..start + len].to_vec();
        sc.requests = requests;
        sc.initial_rate = self.scenario.initial_rate * share;
        sc.seed = self
            .scenario
            .seed
            .wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        sc
    }
}

/// GPT-20B over 12 churning pools under the $/token hedge, with the chaos
/// pack, dynamic prices and 900 s SLOs; `seed` draws the arrivals. Pools `3s..3s+3` form shard `s`;
/// shards 2 and 3 lease three different SKUs, so both the single-SKU and
/// the multi-SKU decision paths run. Every third pool can fall to zero.
fn churn_chaos(seed: u64) -> Job {
    let rate = CHURN_RATE_PER_POOL * CHURN_POOLS as f64;
    let mut spec = WorkloadSpec::paper_stable(rate);
    spec.duration = SimDuration::from_secs(CHURN_ARRIVAL_S);
    let mut requests = spec.generate(&mut SimRng::new(seed).stream("arrivals"));
    workload::apply_slo(&mut requests, SimDuration::from_secs(CHURN_SLO_S));
    // Churn and prices cover the arrival window plus an hour of drain.
    let horizon = SimDuration::from_secs(CHURN_ARRIVAL_S + 3600);
    let mut churn = SimRng::new(CHURN_MARKET_SEED).stream("churn");
    let mixed = [
        InstanceType::g4dn_12xlarge(),
        InstanceType::l4(),
        InstanceType::a100(),
    ];
    let pools = (0..CHURN_POOLS)
        .map(|i| {
            let collapsing = i % 3 == 0;
            let trace = TraceGenerator {
                duration: horizon,
                min_capacity: if collapsing { 0 } else { 2 },
                max_capacity: 8,
                start_capacity: 6,
                mean_dwell: SimDuration::from_secs(600),
                drop_probability: 0.5,
                max_step: if collapsing { 4 } else { 2 },
            }
            .generate(&mut churn);
            let mut pool = PoolSpec::new(format!("p{i}"), trace);
            let ty = if i / 3 >= 2 {
                pool = pool.with_instance_type(mixed[i % 3].clone());
                mixed[i % 3].clone()
            } else {
                InstanceType::g4dn_12xlarge()
            };
            pool.with_price(PriceModel::Ou(OuParams {
                horizon,
                ..OuParams::around(ty.spot_price_per_hour)
            }))
            .with_faults(FaultSpec::pack(if collapsing { 0.6 } else { 0.3 }))
        })
        .collect();
    Job {
        label: "SpotServe",
        opts: SystemOptions::spotserve()
            .with_fleet_policy(FleetPolicy::cost_per_token())
            .with_telemetry(),
        scenario: Scenario::with_requests(
            ModelSpec::gpt_20b(),
            AvailabilityTrace::constant(0), // unused once pools are set
            requests,
            rate,
            CHURN_MARKET_SEED,
        )
        .with_pools(pools),
        shards: CHURN_SHARDS,
    }
}

/// The §6.2 grid: 3 systems × 3 models × 4 traces × 24 seeds, single-pool
/// runs of the paper's 20-minute stable workload.
fn paper_grid(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for model in ModelSpec::paper_models() {
        let rate = paper_rate(&model);
        for (_, trace, mixing) in paper_traces() {
            for (label, opts) in paper_systems() {
                let opts = if mixing {
                    opts.with_on_demand_mixing()
                } else {
                    opts
                };
                for k in 0..GRID_SEEDS {
                    let cell_seed = seed.wrapping_mul(GRID_SEEDS).wrapping_add(k);
                    jobs.push(Job {
                        label,
                        opts: opts.clone(),
                        scenario: Scenario::paper_stable(
                            model.clone(),
                            trace.clone(),
                            rate,
                            cell_seed,
                        ),
                        shards: 1,
                    });
                }
            }
        }
    }
    jobs
}
