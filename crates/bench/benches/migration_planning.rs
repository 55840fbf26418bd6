//! Algorithm 2 planning cost for realistic reconfigurations:
//! `plan_migration_gpt20b` reshapes GPT-20B (44 layers) on eight 4-GPU
//! instances, `plan_migration_llama30b` LLaMA-30B (60 layers) on sixteen.
//! Both reshape P on contiguous meshes, where nearly every layer moves.
//! The serving loop mostly runs two other shapes, where most layers of
//! most positions miss nothing: `plan_migration_gpt20b_grow_d` adds a
//! third pipeline on fresh instances, and
//! `plan_migration_gpt20b_replace_instance` moves a preempted instance's
//! positions onto a fresh one. `estimate_migration_gpt20b` prices that
//! replacement's `T_mig` without ordering the layers, as the JIT
//! arrangement does.

use cloudsim::{ColdStorage, GpuRef, InstanceId, NetFabric};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use llmsim::ModelSpec;
use migration::{
    compute_transfers, evaluate_plan, plan_migration, DeviceAssignment, MigrationTask,
    PlannerOptions,
};
use parallelism::ParallelConfig;

/// The GPUs of 4-GPU instances `ids`, in order.
fn gpus(ids: impl IntoIterator<Item = u64>) -> Vec<GpuRef> {
    ids.into_iter()
        .flat_map(|i| (0..4u8).map(move |s| GpuRef::new(InstanceId(i), s)))
        .collect()
}

/// `model` moving from `old` to `new` over the GPUs of `instances` 4-GPU
/// instances, both meshes contiguous, every new pipeline inheriting the
/// old one of its index and its 1 GiB cache.
fn task(
    model: ModelSpec,
    old: ParallelConfig,
    new: ParallelConfig,
    instances: u64,
) -> MigrationTask {
    let gpus = gpus(0..instances);
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

/// GPT-20B at (D=2, P=2, M=4) on instances 0–3 after instance 1 was
/// preempted: the same mesh moves instance 1's positions onto fresh
/// instance 4, and every other position stays put.
fn replace_instance() -> MigrationTask {
    let cfg = ParallelConfig::new(2, 2, 4, 8);
    let mut t = task(ModelSpec::gpt_20b(), cfg, cfg, 4);
    t.new_assignment = DeviceAssignment::contiguous(&cfg, &gpus([0, 4, 2, 3]));
    t.old_assignment.remove_instance(InstanceId(1));
    t
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
    let grow = task(
        ModelSpec::gpt_20b(),
        ParallelConfig::new(2, 2, 4, 8),
        ParallelConfig::new(3, 2, 4, 8),
        6,
    );
    c.bench_function("plan_migration_gpt20b_grow_d", |b| {
        b.iter(|| plan_migration(black_box(&grow), black_box(&opts)))
    });
    let replace = replace_instance();
    c.bench_function("plan_migration_gpt20b_replace_instance", |b| {
        b.iter(|| plan_migration(black_box(&replace), black_box(&opts)))
    });
    c.bench_function("estimate_migration_gpt20b", |b| {
        b.iter(|| compute_transfers(black_box(&replace)).migration_time(&net, &storage))
    });
}

criterion_group!(benches, bench_planning);
criterion_main!(benches);
