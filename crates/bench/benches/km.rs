//! Kuhn–Munkres matching speed at device-mapper scales (§3.3).
//!
//! * `hungarian/<n>` — one dense `n × n` assignment;
//! * `map_devices/gpt20b_16` — the full hierarchical mapper on a
//!   homogeneous reshuffle: GPT-20B (D=3,P=4,M=4) on twelve 4-GPU
//!   instances → (D=2,P=8,M=4) on sixteen, twelve holding context and
//!   four fresh;
//! * `map_devices/mixed_3sku` — the mapper with an `SkuTable`, shaped
//!   like a mixed-SKU churn shard: an 8-GPU A100 lane going from
//!   (D=4,P=1,M=8) on four instances to (D=3,P=1,M=8), offered those four,
//!   two fresh A100s, an L4 (its slower link discounts every edge) and a
//!   g4dn (whose T4s cannot hold the shard: forbidden). CI's perf-smoke
//!   step holds it to 10 ms, since mapping must fit the grace period.

use cloudsim::{GpuRef, InstanceId, InstanceType};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kmatch::{max_weight_assignment, SkuCaps, WeightMatrix};
use llmsim::{MemoryModel, ModelSpec};
use migration::DeviceAssignment;
use parallelism::ParallelConfig;
use spotserve::devicemap::{map_devices, map_devices_with_skus, OldState, SkuTable};

fn bench_km(c: &mut Criterion) {
    let mut g = c.benchmark_group("hungarian");
    for n in [8usize, 16, 32, 64] {
        let w = WeightMatrix::from_fn(n, n, |r, c| ((r * 2654435761 + c * 40503) % 100_000) as i64);
        g.bench_with_input(BenchmarkId::from_parameter(n), &w, |b, w| {
            b.iter(|| max_weight_assignment(black_box(w)))
        });
    }
    g.finish();
}

/// The old mesh `cfg` contiguous over the GPUs of `holders`, with a cache
/// and a distinct progress per pipeline.
fn old_state(cfg: ParallelConfig, holders: &[InstanceId], gpi: u8) -> OldState {
    let gpus: Vec<GpuRef> = holders
        .iter()
        .flat_map(|&i| (0..gpi).map(move |s| GpuRef::new(i, s)))
        .collect();
    OldState {
        config_and_assignment: Some((cfg, DeviceAssignment::contiguous(&cfg, &gpus))),
        cache_bytes_per_pipeline: vec![1 << 30; cfg.data as usize],
        progress_per_pipeline: (0..cfg.data).map(|d| 10 + 7 * d).collect(),
    }
}

fn caps(ty: &InstanceType) -> SkuCaps {
    SkuCaps {
        memory_bytes: ty.gpu.memory_bytes,
        link_bandwidth: ty.net.inter_bw,
    }
}

fn bench_map_devices(c: &mut Criterion) {
    let mut g = c.benchmark_group("map_devices");
    let model = ModelSpec::gpt_20b();

    let fleet: Vec<InstanceId> = (0..16).map(InstanceId).collect();
    let old = old_state(ParallelConfig::new(3, 4, 4, 8), &fleet[..12], 4);
    let new_cfg = ParallelConfig::new(2, 8, 4, 8);
    g.bench_function("gpt20b_16", |b| {
        b.iter(|| map_devices(&model, &new_cfg, black_box(&fleet), 4, &old, true))
    });

    let fleet: Vec<InstanceId> = (0..8).map(InstanceId).collect();
    let old = old_state(ParallelConfig::new(4, 1, 8, 8), &fleet[..4], 8);
    let new_cfg = ParallelConfig::new(3, 1, 8, 8);
    let [a100, l4, g4dn] = [
        InstanceType::a100(),
        InstanceType::l4(),
        InstanceType::g4dn_12xlarge(),
    ]
    .map(|ty| caps(&ty));
    let caps_of = |id: InstanceId| match id.0 {
        6 => l4,
        7 => g4dn,
        _ => a100,
    };
    let table = SkuTable {
        caps_of: &caps_of,
        src: a100,
        required_bytes_per_gpu: MemoryModel::default().required_bytes_per_gpu(&model, 1, 8),
    };
    g.bench_function("mixed_3sku", |b| {
        b.iter(|| {
            map_devices_with_skus(
                &model,
                &new_cfg,
                black_box(&fleet),
                8,
                &old,
                true,
                Some(&table),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_km, bench_map_devices);
criterion_main!(benches);
