//! The candidate frontier against its reference (`common::reference::
//! frontier`, the form that copies each mesh's tables into every
//! candidate, prunes and floor-sorts both engine modes at build time, and
//! tests each candidate against every other in its instance bucket).
//!
//! Cases run every paper model on T4, L4 and A100 instances priced as an
//! optimizer's SKU lane prices them, and on g4dn.12xlarge priced by the
//! paper's default estimator (a serving system's base lane), under the
//! default memory model and the migration-buffer one of the
//! `no_migration_planner` ablation, at fleet ceilings 1, 8, 16 and 37.
//! Each case checks two cold builds, one querying the fixed-batch mode
//! first and one the continuous mode (each mode's index is built on first
//! use), and the process-wide shared handle for the same inputs. Every
//! candidate set, order, membership answer and price must be equal.
//!
//! The shared table's aliasing is checked on its own: equal inputs get
//! one handle, and changing any single input gets another.

mod common;

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cloudsim::{GpuSpec, InstanceType};
use common::reference::frontier::CandidateFrontier as ReferenceFrontier;
use llmsim::{CostModel, MemoryModel, ModelSpec};
use parallelism::{CandidateFrontier, ConfigSpace, EngineMode, ParallelConfig, PerfModel};

/// Held by every test that fetches shared handles. The process-wide table
/// is cleared wholesale when full, and a clear landing between two
/// fetches of another test would break its aliasing checks.
static TABLE_USERS: Mutex<()> = Mutex::new(());

fn table_user() -> MutexGuard<'static, ()> {
    TABLE_USERS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `model`'s estimator on `ty`, as an optimizer's SKU lane builds it.
fn sku_perf(model: &ModelSpec, ty: &InstanceType) -> PerfModel {
    let scale = llmsim::calibration::calibration_scale(model);
    PerfModel::new(
        model.clone(),
        CostModel::for_instance_type(ty).with_scale(scale),
        llmsim::calibration::PAPER_S_IN,
        llmsim::calibration::PAPER_S_OUT,
    )
}

/// The configurations a candidate iterator yields, in order.
macro_rules! configs {
    ($cands:expr) => {
        $cands.map(|c| c.config).collect::<Vec<ParallelConfig>>()
    };
}

/// Every query of `new` against `old` under `modes`, in that order.
fn assert_frontiers_equal(
    name: &str,
    perf: &PerfModel,
    new: &CandidateFrontier,
    old: &ReferenceFrontier,
    modes: [EngineMode; 2],
) {
    let ceiling = new.ceiling();
    assert_eq!(ceiling, old.ceiling(), "{name}");
    assert_eq!(new.len(), old.len(), "{name}");
    for mode in modes {
        assert_eq!(
            new.pruned_len(mode),
            old.pruned_len(mode),
            "{name} {mode:?}"
        );
        assert_eq!(
            configs!(new.pruned_by_floor(mode)),
            configs!(old.pruned_by_floor(mode)),
            "{name} {mode:?}: floor order"
        );
        for n in 0..=ceiling + 1 {
            assert_eq!(
                configs!(new.pruned_at(n, mode)),
                configs!(old.pruned_at(n, mode)),
                "{name} {mode:?}: pruned at {n}"
            );
        }
    }
    for n in 0..=ceiling + 1 {
        assert_eq!(
            configs!(new.feasible_at(n).iter()),
            configs!(old.feasible_at(n).iter()),
            "{name}: feasible at {n}"
        );
    }
    let fractions = [0.1, 0.5, 0.9, 0.999];
    for (c, r) in new
        .feasible_at(ceiling)
        .iter()
        .zip(old.feasible_at(ceiling))
    {
        assert_eq!((c.config, c.instances), (r.config, r.instances), "{name}");
        for n in [0, c.instances - 1, c.instances, ceiling] {
            assert_eq!(
                new.contains(&c.config, n),
                old.contains(&c.config, n),
                "{name}: {} at {n}",
                c.config
            );
        }
        for mode in modes {
            assert_eq!(c.throughput(mode), r.throughput(mode), "{name} {mode:?}");
            assert_eq!(c.floor(mode), r.floor(mode), "{name} {mode:?}");
            let phi = c.throughput(mode);
            let alphas = [0.0, 1e-6].into_iter().chain(fractions.map(|f| f * phi));
            for alpha in alphas {
                assert_eq!(
                    new.latency(c, mode, alpha),
                    r.latency(perf, mode, alpha),
                    "{name} {mode:?}: {} at α = {alpha}",
                    c.config
                );
            }
        }
    }
    // A configuration outside the space is never contained.
    let outside = ParallelConfig::new(1, 1, 3, 5);
    assert_eq!(
        new.contains(&outside, ceiling),
        old.contains(&outside, ceiling)
    );
}

#[test]
fn frontiers_equal_the_reference() {
    let _table = table_user();
    let space = ConfigSpace::default();
    let orders = [
        [EngineMode::FixedBatch, EngineMode::ContinuousBatching],
        [EngineMode::ContinuousBatching, EngineMode::FixedBatch],
    ];
    let mut checked = 0;
    for model in ModelSpec::paper_models() {
        // The ablation's engines reserve a weight shard at the paper's
        // largest mesh for migration buffers.
        let buffered = MemoryModel::default().with_migration_buffer(model.param_bytes() / 16);
        let lanes = [
            (InstanceType::t4(), sku_perf(&model, &InstanceType::t4())),
            (InstanceType::l4(), sku_perf(&model, &InstanceType::l4())),
            (
                InstanceType::a100(),
                sku_perf(&model, &InstanceType::a100()),
            ),
            (
                InstanceType::g4dn_12xlarge(),
                PerfModel::paper_defaults(model.clone()),
            ),
        ];
        for (ty, perf) in lanes {
            for (mem_name, mem) in [("default", MemoryModel::default()), ("buffered", buffered)] {
                for ceiling in [1u32, 8, 16, 37] {
                    let old = ReferenceFrontier::new(
                        &perf,
                        &mem,
                        &ty.gpu,
                        &space,
                        ty.gpus_per_instance,
                        ceiling,
                    );
                    let name = format!(
                        "{} on {} ({mem_name} memory) at {ceiling}",
                        model.name, ty.name
                    );
                    for modes in orders {
                        let new = CandidateFrontier::new(
                            &perf,
                            &mem,
                            &ty.gpu,
                            &space,
                            ty.gpus_per_instance,
                            ceiling,
                        );
                        assert_frontiers_equal(&name, &perf, &new, &old, modes);
                        checked += new.len();
                    }
                    let shared = CandidateFrontier::shared(
                        &perf,
                        &mem,
                        &ty.gpu,
                        &space,
                        ty.gpus_per_instance,
                        ceiling,
                    );
                    let name = format!("{name}, shared");
                    assert_frontiers_equal(
                        &name,
                        &perf,
                        &shared,
                        &old,
                        orders[ceiling as usize % 2],
                    );
                }
            }
        }
    }
    assert!(checked > 40_000, "only {checked} candidates");
}

/// One input set of [`CandidateFrontier::new`].
#[derive(Clone)]
struct Inputs {
    perf: PerfModel,
    mem: MemoryModel,
    gpu: GpuSpec,
    space: ConfigSpace,
    gpus_per_instance: u8,
    ceiling: u32,
}

impl Inputs {
    fn shared(&self) -> Arc<CandidateFrontier> {
        CandidateFrontier::shared(
            &self.perf,
            &self.mem,
            &self.gpu,
            &self.space,
            self.gpus_per_instance,
            self.ceiling,
        )
    }

    /// These inputs with the estimator rebuilt from `model`, `cost` and
    /// the sequence shape `(s_in, s_out)`.
    fn priced(&self, model: ModelSpec, cost: CostModel, s_in: u32, s_out: u32) -> Self {
        Inputs {
            perf: PerfModel::new(model, cost, s_in, s_out),
            ..self.clone()
        }
    }
}

/// The next float above `x`: a change no tolerance would see.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

#[test]
fn shared_handles_alias_only_equal_inputs() {
    let _table = table_user();
    let model = ModelSpec::gpt_20b();
    let base = Inputs {
        perf: PerfModel::paper_defaults(model.clone()),
        mem: MemoryModel::default(),
        gpu: GpuSpec::t4(),
        space: ConfigSpace::default(),
        gpus_per_instance: 4,
        ceiling: 16,
    };
    let handle = base.shared();
    // Equal inputs, built apart: a clone, and the same estimator as a SKU
    // lane builds it.
    assert!(Arc::ptr_eq(&handle, &base.clone().shared()));
    let lane = Inputs {
        perf: sku_perf(&model, &InstanceType::g4dn_12xlarge()),
        ..base.clone()
    };
    assert!(Arc::ptr_eq(&handle, &lane.shared()));

    let cost = base.perf.cost_model().clone();
    let (s_in, s_out) = base.perf.sequence_shape();
    let scale = cost.latency_scale();
    let with_model = |m: ModelSpec| base.priced(m, cost.clone(), s_in, s_out);
    let with_cost = |c: CostModel| base.priced(model.clone(), c, s_in, s_out);
    let variants = [
        ("model", with_model(ModelSpec::opt_6_7b())),
        (
            "model's layer count",
            with_model(ModelSpec {
                num_layers: model.num_layers + 1,
                ..model.clone()
            }),
        ),
        (
            "model's KV bytes",
            with_model(ModelSpec {
                bytes_per_kv: 4,
                ..model.clone()
            }),
        ),
        (
            "model's name",
            with_model(ModelSpec {
                name: "GPT-20B-renamed",
                ..model.clone()
            }),
        ),
        (
            "calibration scale",
            with_cost(cost.clone().with_scale(next_up(scale))),
        ),
        (
            "cost model's efficiency",
            with_cost(cost.clone().with_efficiency(llmsim::Efficiency {
                host_overhead: next_up(cost.efficiency().host_overhead),
                ..*cost.efficiency()
            })),
        ),
        (
            "cost model's fabric",
            with_cost(CostModel::new(GpuSpec::t4(), InstanceType::l4().net, 4).with_scale(scale)),
        ),
        (
            "sequence shape",
            base.priced(model.clone(), cost.clone(), s_in, s_out + 1),
        ),
        (
            "GPU",
            Inputs {
                gpu: GpuSpec::a100_40g(),
                ..base.clone()
            },
        ),
        (
            "GPU's peak FLOP/s",
            Inputs {
                gpu: GpuSpec {
                    peak_flops: next_up(GpuSpec::t4().peak_flops),
                    ..GpuSpec::t4()
                },
                ..base.clone()
            },
        ),
        (
            "memory model's migration buffer",
            Inputs {
                mem: MemoryModel::default().with_migration_buffer(model.param_bytes() / 16),
                ..base.clone()
            },
        ),
        (
            "memory model's activation coefficient",
            Inputs {
                mem: MemoryModel {
                    activation_coeff: next_up(MemoryModel::default().activation_coeff),
                    ..MemoryModel::default()
                },
                ..base.clone()
            },
        ),
        (
            "space",
            Inputs {
                space: ConfigSpace {
                    max_data: 15,
                    ..ConfigSpace::default()
                },
                ..base.clone()
            },
        ),
        (
            "space's batch sizes",
            Inputs {
                space: ConfigSpace {
                    batch_sizes: vec![1, 2, 4],
                    ..ConfigSpace::default()
                },
                ..base.clone()
            },
        ),
        (
            "GPUs per instance",
            Inputs {
                gpus_per_instance: 8,
                ..base.clone()
            },
        ),
        (
            "ceiling",
            Inputs {
                ceiling: 17,
                ..base.clone()
            },
        ),
    ];
    for (what, inputs) in &variants {
        let other = inputs.shared();
        assert!(
            !Arc::ptr_eq(&handle, &other),
            "changing the {what} alone returned the same frontier"
        );
        assert!(
            Arc::ptr_eq(&other, &inputs.shared()),
            "{what}: equal inputs get one handle"
        );
    }
}
