//! Cost-model evaluation speed (called inside every optimizer pass and on
//! every pass the continuous engine prices).
//!
//! **`pass_pricing`** — one mixed forward pass of GPT-20B at `(P, M) =
//! (3, 4)`, two ways per shape:
//!
//! * `cold/<shape>` — `CostModel::mixed_forward_time`, which derives every
//!   term of the formula on each call;
//! * `pricer/<shape>` — a warm `PassPricer` for the mesh: the mesh terms
//!   derived once and the pass's token total already in its table, as at
//!   a scheduler's steady state. CI's bench-smoke job holds
//!   `pricer/decode_16ctx` under 1 µs.
//!
//! The shapes: `solo_prefill` (a 512-token prompt alone, a solo floor's
//! chunk), `projection_9seq` (an SLO projection: eight residents' peak
//! decodes and a candidate's whole prefill at one 640-token context), and
//! `decode_8ctx` / `decode_16ctx` (steady decode passes over 8 and 16
//! distinct contexts).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use llmsim::{calibration, ModelSpec, PassPricer, SeqWork};

fn bench_costmodel(c: &mut Criterion) {
    let model = ModelSpec::gpt_20b();
    let cost = calibration::calibrated_cost_model(&model);
    c.bench_function("exec_latency_gpt20b", |b| {
        b.iter(|| cost.exec_latency(black_box(&model), 3, 4, 8, 512, 128))
    });
    c.bench_function("decode_time_gpt20b", |b| {
        b.iter(|| cost.decode_time(black_box(&model), 3, 4, 8, 576))
    });

    let mut projection = vec![SeqWork::decode(640); 8];
    projection.push(SeqWork {
        new_tokens: 512,
        ctx: 640,
    });
    let decodes = |n: u32| {
        (0..n)
            .map(|i| SeqWork::decode(512 + 7 * i))
            .collect::<Vec<_>>()
    };
    let shapes = [
        ("solo_prefill", vec![SeqWork::prefill(512)]),
        ("projection_9seq", projection),
        ("decode_8ctx", decodes(8)),
        ("decode_16ctx", decodes(16)),
    ];
    let mut g = c.benchmark_group("pass_pricing");
    for (name, seqs) in &shapes {
        g.bench_function(BenchmarkId::new("cold", name), |b| {
            b.iter(|| cost.mixed_forward_time(&model, 3, 4, black_box(seqs)))
        });
        let mut pricer = PassPricer::new(&cost, &model, 3, 4);
        assert_eq!(
            pricer.price(seqs),
            cost.mixed_forward_time(&model, 3, 4, seqs)
        );
        g.bench_function(BenchmarkId::new("pricer", name), |b| {
            b.iter(|| pricer.price(black_box(seqs)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_costmodel);
criterion_main!(benches);
