//! System-level options: which serving policy runs and which SpotServe
//! components are enabled (the Figure 9 ablation axes).

use fleetctl::FleetPolicy;
use simkit::SimDuration;

/// Which serving system handles preemptions (§6.1 baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The full system: proactive migration inside grace periods, KM device
    /// mapping, progressive memory-optimized migration, stateful recovery.
    SpotServe,
    /// Varuna-style: the same adaptive configuration optimizer, but every
    /// transition restarts all engines and reloads weights from storage;
    /// in-flight decoding progress is lost.
    Reparallelization,
    /// MArk/Cocktail-style: a fixed `(P, M, B)` shape; data-parallel
    /// pipelines are dropped on preemption and re-added (cold) on
    /// acquisition; interrupted requests reroute and recompute.
    Rerouting,
    /// Non-preemptible fleet of a fixed size (the Figure 7 cost baseline).
    OnDemandOnly {
        /// Fleet size in instances.
        instances: u32,
    },
}

/// Which execution engine the inference pipelines run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Iteration-level continuous batching (the default): requests are
    /// admitted and retired at decode-iteration boundaries, within the
    /// batch capacity and the engine's KV budget, and each iteration is
    /// priced from the current mixed batch.
    #[default]
    ContinuousBatching,
    /// Run-to-completion batching: a batch forms, decodes to its last
    /// token, and only then does the next batch form. The paper's §3/§6.1
    /// engine model, kept as the comparison baseline.
    FixedBatch,
}

/// Individually disable SpotServe components (Figure 9).
///
/// Flags are *disable* switches so that `default()` is the full system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AblationFlags {
    /// Freeze the parallel configuration chosen at startup (disables the
    /// parallelization controller; membership changes still re-map devices).
    pub no_controller: bool,
    /// Replace Algorithm 2 with naive index-order migration and
    /// unbounded buffers (disables the migration planner).
    pub no_migration_planner: bool,
    /// Do not migrate cache context; interrupted requests recompute
    /// (disables the interruption arranger / stateful recovery).
    pub no_interruption_arranger: bool,
    /// Replace Kuhn–Munkres mapping with an arbitrary (identity-order)
    /// mapping (disables the device mapper).
    pub no_device_mapper: bool,
}

/// Full option set for one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemOptions {
    /// The policy under test.
    pub policy: Policy,
    /// The execution engine pipelines run (all policies share it, §6.1's
    /// same-backbone fairness setup).
    pub engine: EngineMode,
    /// Sarathi-style chunked prefill for the continuous engine: prompts are
    /// split into chunks of at most this many tokens, one chunk per
    /// iteration, so decode requests never stall behind a monolithic
    /// prefill. `None` (the default) keeps monolithic prefill. Ignored by
    /// [`EngineMode::FixedBatch`].
    pub prefill_chunk: Option<u32>,
    /// Component ablations (only meaningful for [`Policy::SpotServe`]).
    pub ablation: AblationFlags,
    /// How the fleet acquires capacity from the spot market(s). Every
    /// policy runs through the `fleetctl` controller:
    /// [`FleetPolicy::ReactiveSpot`] (the default) is the paper's
    /// single-market spot path; [`FleetPolicy::OnDemandFallback`] adds
    /// on-demand for the live shortfall (the `+O` traces); the hedged
    /// policies spread across pools with a preemption-rate-sized hedge.
    pub fleet_policy: FleetPolicy,
    /// Extra spot instances kept as a warm candidate pool (§3.2 keeps two).
    pub spare_instances: u32,
    /// Ceiling on total fleet size the optimizer may target.
    pub max_instances: u32,
    /// Keep simulating after the arrival window until the queue drains,
    /// up to this cap.
    pub drain_cap: SimDuration,
    /// Record the typed telemetry event stream (instance lifecycle, fleet
    /// commands, transitions, optimizer decisions, epoch rollups). Off by
    /// default: the disabled recorder is a single branch per emit point and
    /// the run's canonical report bytes are unchanged either way.
    pub telemetry: bool,
}

impl SystemOptions {
    fn base(policy: Policy) -> Self {
        SystemOptions {
            policy,
            engine: EngineMode::default(),
            prefill_chunk: None,
            ablation: AblationFlags::default(),
            fleet_policy: FleetPolicy::default(),
            spare_instances: 2,
            max_instances: 16,
            drain_cap: SimDuration::from_secs(3600),
            telemetry: false,
        }
    }

    /// The full SpotServe system.
    pub fn spotserve() -> Self {
        SystemOptions::base(Policy::SpotServe)
    }

    /// The Reparallelization baseline (§6.1).
    pub fn reparallelization() -> Self {
        SystemOptions::base(Policy::Reparallelization)
    }

    /// The Rerouting baseline (§6.1).
    pub fn rerouting() -> Self {
        SystemOptions::base(Policy::Rerouting)
    }

    /// The on-demand-only baseline with a fleet of `instances` (§6.2,
    /// Figure 7).
    pub fn on_demand_only(instances: u32) -> Self {
        SystemOptions::base(Policy::OnDemandOnly { instances })
    }

    /// Mixes on-demand into the fleet (the `+O` trace variants): selects
    /// [`FleetPolicy::OnDemandFallback`], replacing any fleet policy set
    /// before it.
    pub fn with_on_demand_mixing(self) -> Self {
        self.with_fleet_policy(FleetPolicy::OnDemandFallback)
    }

    /// Selects the fleet acquisition policy (see
    /// [`SystemOptions::fleet_policy`]).
    pub fn with_fleet_policy(mut self, fleet_policy: FleetPolicy) -> Self {
        self.fleet_policy = fleet_policy;
        self
    }

    /// Applies ablation flags.
    pub fn with_ablation(mut self, ablation: AblationFlags) -> Self {
        self.ablation = ablation;
        self
    }

    /// Selects the execution engine (e.g. [`EngineMode::FixedBatch`] for
    /// the run-to-completion baseline).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Enables the telemetry event stream (see
    /// [`SystemOptions::telemetry`]).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Enables chunked prefill with chunks of at most `chunk` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn with_prefill_chunk(mut self, chunk: u32) -> Self {
        assert!(chunk > 0, "a prefill chunk must carry tokens");
        self.prefill_chunk = Some(chunk);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ablation_is_full_system() {
        let a = AblationFlags::default();
        assert!(!a.no_controller && !a.no_migration_planner);
        assert!(!a.no_interruption_arranger && !a.no_device_mapper);
    }

    #[test]
    fn constructors_set_policy() {
        assert_eq!(SystemOptions::spotserve().policy, Policy::SpotServe);
        assert_eq!(SystemOptions::rerouting().policy, Policy::Rerouting);
        assert_eq!(
            SystemOptions::on_demand_only(4).policy,
            Policy::OnDemandOnly { instances: 4 }
        );
        assert_eq!(
            SystemOptions::spotserve()
                .with_fleet_policy(FleetPolicy::spot_hedge())
                .with_on_demand_mixing()
                .fleet_policy,
            FleetPolicy::OnDemandFallback,
            "+O replaces any policy set before it"
        );
    }

    #[test]
    fn prefill_is_monolithic_by_default() {
        assert_eq!(SystemOptions::spotserve().prefill_chunk, None);
        assert_eq!(
            SystemOptions::spotserve()
                .with_prefill_chunk(64)
                .prefill_chunk,
            Some(64)
        );
    }

    #[test]
    #[should_panic(expected = "carry tokens")]
    fn zero_chunk_panics() {
        SystemOptions::spotserve().with_prefill_chunk(0);
    }

    #[test]
    fn reactive_spot_is_the_default_fleet_policy() {
        assert_eq!(
            SystemOptions::spotserve().fleet_policy,
            FleetPolicy::ReactiveSpot
        );
        assert_eq!(
            SystemOptions::spotserve()
                .with_fleet_policy(FleetPolicy::spot_hedge())
                .fleet_policy,
            FleetPolicy::spot_hedge()
        );
    }

    #[test]
    fn telemetry_is_off_by_default() {
        assert!(!SystemOptions::spotserve().telemetry);
        assert!(SystemOptions::spotserve().with_telemetry().telemetry);
    }

    #[test]
    fn continuous_batching_is_the_default_engine() {
        assert_eq!(
            SystemOptions::spotserve().engine,
            EngineMode::ContinuousBatching
        );
        assert_eq!(
            SystemOptions::rerouting()
                .with_engine(EngineMode::FixedBatch)
                .engine,
            EngineMode::FixedBatch
        );
    }
}
