//! Algorithm 2 planning cost for realistic reconfigurations:
//! `plan_migration_gpt20b` reshapes GPT-20B (44 layers) on eight 4-GPU
//! instances, `plan_migration_llama30b` LLaMA-30B (60 layers) on sixteen.

use cloudsim::{ColdStorage, GpuRef, InstanceId, NetFabric};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use llmsim::ModelSpec;
use migration::{evaluate_plan, plan_migration, DeviceAssignment, MigrationTask, PlannerOptions};
use parallelism::ParallelConfig;

/// `model` moving from `old` to `new` over the GPUs of `instances` 4-GPU
/// instances, both meshes contiguous, every new pipeline inheriting the
/// old one of its index and its 1 GiB cache.
fn task(
    model: ModelSpec,
    old: ParallelConfig,
    new: ParallelConfig,
    instances: u64,
) -> MigrationTask {
    let gpus: Vec<GpuRef> = (0..instances)
        .flat_map(|i| (0..4u8).map(move |s| GpuRef::new(InstanceId(i), s)))
        .collect();
    MigrationTask {
        model,
        old_config: old,
        new_config: new,
        old_assignment: DeviceAssignment::contiguous(&old, &gpus),
        new_assignment: DeviceAssignment::contiguous(&new, &gpus),
        cache_bytes_per_pipeline: vec![1 << 30; old.data as usize],
        pipeline_inheritance: (0..new.data).map(|d| (d < old.data).then_some(d)).collect(),
    }
}

fn bench_planning(c: &mut Criterion) {
    let t = task(
        ModelSpec::gpt_20b(),
        ParallelConfig::new(2, 2, 8, 8),
        ParallelConfig::new(2, 3, 4, 8),
        8,
    );
    let opts = PlannerOptions::default();
    c.bench_function("plan_migration_gpt20b", |b| {
        b.iter(|| plan_migration(black_box(&t), black_box(&opts)))
    });
    let llama = task(
        ModelSpec::llama_30b(),
        ParallelConfig::new(2, 8, 4, 8),
        ParallelConfig::new(3, 5, 4, 8),
        16,
    );
    c.bench_function("plan_migration_llama30b", |b| {
        b.iter(|| plan_migration(black_box(&llama), black_box(&opts)))
    });
    let plan = plan_migration(&t, &opts);
    let net = NetFabric::g4dn_default();
    let storage = ColdStorage::default();
    c.bench_function("evaluate_plan_gpt20b", |b| {
        b.iter(|| evaluate_plan(black_box(&plan), &net, &storage))
    });
}

criterion_group!(benches, bench_planning);
criterion_main!(benches);
