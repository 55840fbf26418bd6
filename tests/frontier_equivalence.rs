//! The candidate frontier against its reference (`common::reference::
//! frontier`, the form that copies each mesh's tables into every
//! candidate, prunes and floor-sorts both pricing modes at build time, and
//! tests each candidate against every other in its instance bucket).
//!
//! Cases run every paper model on T4, L4 and A100 instances at fleet
//! ceilings 1, 8, 16 and 37, querying the fixed-batch mode first or the
//! continuous one first, since each mode's index is built on first use.
//! Every candidate set, order, membership answer and price must be equal.

mod common;

use cloudsim::InstanceType;
use common::reference::frontier::CandidateFrontier as ReferenceFrontier;
use llmsim::{CostModel, MemoryModel, ModelSpec};
use parallelism::{CandidateFrontier, ConfigSpace, ParallelConfig, PerfModel, PricingMode};

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
    modes: [PricingMode; 2],
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
                    new.latency(c, perf, mode, alpha),
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
    let mem = MemoryModel::default();
    let space = ConfigSpace::default();
    let orders = [
        [PricingMode::FixedBatch, PricingMode::ContinuousBatching],
        [PricingMode::ContinuousBatching, PricingMode::FixedBatch],
    ];
    let mut checked = 0;
    for model in ModelSpec::paper_models() {
        for ty in [InstanceType::t4(), InstanceType::l4(), InstanceType::a100()] {
            let perf = sku_perf(&model, &ty);
            for ceiling in [1u32, 8, 16, 37] {
                let old = ReferenceFrontier::new(
                    &perf,
                    &mem,
                    &ty.gpu,
                    &space,
                    ty.gpus_per_instance,
                    ceiling,
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
                    let name = format!("{} on {} at {ceiling}", model.name, ty.name);
                    assert_frontiers_equal(&name, &perf, &new, &old, modes);
                    checked += new.len();
                }
            }
        }
    }
    assert!(checked > 10_000, "only {checked} candidates");
}
