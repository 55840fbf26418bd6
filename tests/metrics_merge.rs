//! Shard-merge invariants for the metrics substrate: statistics gathered in
//! per-shard accumulators and folded together after the run must agree with a
//! single accumulator fed the whole stream — exactly for quantiles (samplers
//! retain the full multiset), and to 1e-9 for the Welford moments.

use proptest::prelude::*;
use simkit::{OnlineStats, Sampler};

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_then_merged_matches_single_accumulator(
        samples in proptest::collection::vec(-1.0e3f64..1.0e3, 256),
        n in 1usize..=256,
        shards in 1usize..=6,
    ) {
        let used = &samples[..n];

        let mut single_s = Sampler::new();
        let mut single_o = OnlineStats::new();
        for &x in used {
            single_s.record(x);
            single_o.record(x);
        }

        // Round-robin the stream across shards, then fold in shard order —
        // the same deterministic merge order the sharded engine uses.
        let mut shard_s: Vec<Sampler> = (0..shards).map(|_| Sampler::new()).collect();
        let mut shard_o: Vec<OnlineStats> = (0..shards).map(|_| OnlineStats::new()).collect();
        for (i, &x) in used.iter().enumerate() {
            shard_s[i % shards].record(x);
            shard_o[i % shards].record(x);
        }
        let mut merged_s = Sampler::new();
        let mut merged_o = OnlineStats::new();
        for i in 0..shards {
            merged_s.merge(&shard_s[i]);
            merged_o.merge(&shard_o[i]);
        }

        // Quantiles are bitwise identical: same multiset, same sort, same rank.
        prop_assert_eq!(merged_s.count(), single_s.count());
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99, 1.0] {
            prop_assert_eq!(
                merged_s.quantile(q).map(f64::to_bits),
                single_s.quantile(q).map(f64::to_bits),
                "quantile {} diverged", q
            );
        }

        // Moments agree to 1e-9 (pairwise Welford roundoff only).
        prop_assert_eq!(merged_o.count(), single_o.count());
        prop_assert!(close(merged_o.mean(), single_o.mean(), 1e-9));
        prop_assert!(close(merged_o.variance(), single_o.variance(), 1e-9));
        prop_assert!(close(
            merged_s.mean().unwrap(),
            single_s.mean().unwrap(),
            1e-9
        ));
        prop_assert_eq!(merged_o.min(), single_o.min());
        prop_assert_eq!(merged_o.max(), single_o.max());
    }

    #[test]
    fn batched_quantiles_match_single_queries(
        samples in proptest::collection::vec(-1.0e6f64..1.0e6, 256),
        n in 1usize..=256,
        mut qs in proptest::collection::vec(0.0f64..1.0, 10),
    ) {
        // The batched path shares one sort with the single-query path, so
        // every returned value must be bitwise identical to quantile(q) —
        // including after a merge, which unsorts the storage. The closed
        // endpoints ride along explicitly (the generator range is half-open).
        qs.push(0.0);
        qs.push(1.0);
        let mut s: Sampler = samples[..n].iter().copied().collect();
        let mut batch = Vec::new();
        s.quantiles_into(&qs, &mut batch);
        prop_assert_eq!(batch.len(), qs.len());
        for (&q, &v) in qs.iter().zip(&batch) {
            prop_assert_eq!(
                Some(v.to_bits()),
                s.quantile(q).map(f64::to_bits),
                "batched quantile {} diverged", q
            );
        }

        let extra: Sampler = samples[..n].iter().map(|x| x * 0.5).collect();
        s.merge(&extra);
        let mut after = Vec::new();
        s.quantiles_into(&qs, &mut after);
        for (&q, &v) in qs.iter().zip(&after) {
            prop_assert_eq!(
                Some(v.to_bits()),
                s.quantile(q).map(f64::to_bits),
                "post-merge batched quantile {} diverged", q
            );
        }
    }

    #[test]
    fn merge_with_empty_is_identity(
        samples in proptest::collection::vec(0.0f64..100.0, 32),
    ) {
        let mut s: Sampler = samples.iter().copied().collect();
        let mut o = OnlineStats::new();
        for &x in &samples {
            o.record(x);
        }
        let s_before = s.percentiles();
        let (o_mean, o_var, o_n) = (o.mean(), o.variance(), o.count());

        s.merge(&Sampler::new());
        o.merge(&OnlineStats::new());
        // The first percentiles() call sorted the samples in place, so the
        // second summation order differs — quantiles stay bitwise equal,
        // means only to roundoff.
        let s_after = s.percentiles();
        prop_assert_eq!(s_after.count, s_before.count);
        prop_assert_eq!(s_after.p50.to_bits(), s_before.p50.to_bits());
        prop_assert_eq!(s_after.p99.to_bits(), s_before.p99.to_bits());
        prop_assert_eq!(s_after.max.to_bits(), s_before.max.to_bits());
        prop_assert!(close(s_after.mean, s_before.mean, 1e-9));
        prop_assert_eq!(o.mean().to_bits(), o_mean.to_bits());
        prop_assert_eq!(o.variance().to_bits(), o_var.to_bits());
        prop_assert_eq!(o.count(), o_n);

        // And merging *into* an empty accumulator clones the source.
        // (Quantiles are bitwise identical; the sampler mean is a fresh
        // summation in storage order, so it only matches to roundoff.)
        let mut s2 = Sampler::new();
        s2.merge(&s);
        let (a, b) = (s2.percentiles(), s.percentiles());
        prop_assert_eq!(a.count, b.count);
        for (qa, qb) in a.figure6_row()[1..].iter().zip(&b.figure6_row()[1..]) {
            prop_assert_eq!(qa.to_bits(), qb.to_bits());
        }
        prop_assert_eq!(a.p50.to_bits(), b.p50.to_bits());
        prop_assert_eq!(a.max.to_bits(), b.max.to_bits());
        prop_assert!(close(a.mean, b.mean, 1e-9));
        let mut o2 = OnlineStats::new();
        o2.merge(&o);
        prop_assert_eq!(o2.mean().to_bits(), o.mean().to_bits());
        prop_assert_eq!(o2.variance().to_bits(), o.variance().to_bits());
    }
}
