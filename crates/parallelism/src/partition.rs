//! Layer and shard partitioning: what a mesh position physically owns.
//!
//! Pipeline parallelism assigns each stage a contiguous, balanced range of
//! layers; tensor parallelism slices every owned layer into `M` equal
//! shards along the head/FFN dimension. Context reuse between two positions
//! of *different* configurations (the edge weights of the device-mapping
//! bipartite graph, §3.3 / Figure 4b) is the intersection of their layer
//! ranges times the overlap of their shard intervals.

use std::ops::Range;

/// The layer range owned by `stage` of `stages` total, splitting
/// `num_layers` as evenly as possible (earlier stages take the remainder).
///
/// # Panics
///
/// Panics if `stages == 0`, `stage >= stages`, or `stages > num_layers`.
///
/// # Example
///
/// ```
/// use parallelism::stage_layers;
/// assert_eq!(stage_layers(32, 3, 0), 0..11);
/// assert_eq!(stage_layers(32, 3, 1), 11..22);
/// assert_eq!(stage_layers(32, 3, 2), 22..32);
/// ```
pub fn stage_layers(num_layers: u32, stages: u32, stage: u32) -> Range<u32> {
    assert!(stages > 0 && stage < stages, "stage {stage} of {stages}");
    assert!(stages <= num_layers, "more stages than layers");
    let base = num_layers / stages;
    let rem = num_layers % stages;
    let extra_before = stage.min(rem);
    let start = stage * base + extra_before;
    let len = base + u32::from(stage < rem);
    start..start + len
}

/// The fraction of one layer shared by shard `a` of a `da`-way split and
/// shard `b` of a `db`-way split, as an exact rational `(numerator,
/// denominator)` with `denominator = da · db`.
///
/// # Panics
///
/// Panics if a shard index is out of range or a degree is zero.
///
/// # Example
///
/// ```
/// use parallelism::shard_overlap;
/// // Shard 0 of 2 vs shard 0 of 4: the quarter is inside the half.
/// assert_eq!(shard_overlap(0, 2, 0, 4), (2, 8));
/// // Shard 0 of 2 vs shard 3 of 4: disjoint.
/// assert_eq!(shard_overlap(0, 2, 3, 4), (0, 8));
/// ```
pub fn shard_overlap(a: u32, da: u32, b: u32, db: u32) -> (u64, u64) {
    assert!(da > 0 && db > 0, "zero shard degree");
    assert!(a < da && b < db, "shard out of range");
    let (a, da, b, db) = (a as u64, da as u64, b as u64, db as u64);
    let den = da * db;
    let lo = (a * db).max(b * da);
    let hi = ((a + 1) * db).min((b + 1) * da);
    (hi.saturating_sub(lo), den)
}

/// The model context owned by one mesh position: a contiguous layer range,
/// each layer sliced to the `shard`-th of `tensor` equal intervals.
///
/// # Example
///
/// ```
/// use parallelism::PositionContext;
/// // Stage 0 of 2 over 32 layers, shard 1 of 8.
/// let ctx = PositionContext::new(32, 2, 0, 8, 1);
/// assert_eq!(ctx.layers(), 0..16);
/// // Overlap with stage 0' of 3, shard 0' of 4 (Figure 4a geometry):
/// let ctx2 = PositionContext::new(32, 3, 0, 4, 0);
/// assert!(ctx.weight_overlap_bytes(&ctx2, 1000) > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PositionContext {
    layers: Range<u32>,
    tensor: u32,
    shard: u32,
}

impl PositionContext {
    /// Context of shard `shard`/`tensor` of stage `stage`/`stages` over a
    /// model with `num_layers` layers.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range stage/shard (see [`stage_layers`] and
    /// [`shard_overlap`]).
    pub fn new(num_layers: u32, stages: u32, stage: u32, tensor: u32, shard: u32) -> Self {
        assert!(tensor > 0 && shard < tensor, "shard {shard} of {tensor}");
        PositionContext {
            layers: stage_layers(num_layers, stages, stage),
            tensor,
            shard,
        }
    }

    /// The owned layer range.
    pub fn layers(&self) -> Range<u32> {
        self.layers.clone()
    }

    /// The owned shard index and tensor degree.
    pub fn shard(&self) -> (u32, u32) {
        (self.shard, self.tensor)
    }

    /// Bytes of layer weights shared with `other`, with each full layer
    /// weighing `layer_bytes`.
    pub fn weight_overlap_bytes(&self, other: &PositionContext, layer_bytes: u64) -> u64 {
        let lo = self.layers.start.max(other.layers.start);
        let hi = self.layers.end.min(other.layers.end);
        if lo >= hi {
            return 0;
        }
        let common_layers = (hi - lo) as u64;
        let (num, den) = shard_overlap(self.shard, self.tensor, other.shard, other.tensor);
        // layer_bytes ≤ ~2^31, num/den ≤ 1, common_layers ≤ ~2^7: fits u64
        // comfortably via u128 intermediate.
        ((common_layers as u128 * layer_bytes as u128 * num as u128) / den as u128) as u64
    }

    /// Bytes of this context's own weights, with each full layer weighing
    /// `layer_bytes` (i.e. the self-overlap).
    pub fn weight_bytes(&self, layer_bytes: u64) -> u64 {
        self.weight_overlap_bytes(self, layer_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_layers_cover_exactly_once() {
        for (layers, stages) in [(32u32, 1u32), (32, 2), (32, 3), (44, 3), (60, 7), (5, 5)] {
            let mut covered = vec![0u32; layers as usize];
            for s in 0..stages {
                for l in stage_layers(layers, stages, s) {
                    covered[l as usize] += 1;
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "{layers} layers, {stages} stages"
            );
        }
    }

    #[test]
    fn stage_sizes_are_balanced() {
        for s in 0..3 {
            let r = stage_layers(44, 3, s);
            let len = r.end - r.start;
            assert!((14..=15).contains(&len));
        }
    }

    #[test]
    #[should_panic(expected = "more stages than layers")]
    fn too_many_stages_panics() {
        stage_layers(4, 5, 0);
    }

    #[test]
    fn shard_overlap_same_split_is_identity() {
        for m in 0..4 {
            assert_eq!(shard_overlap(m, 4, m, 4), (4, 16)); // == 1/4 of a layer
            for other in 0..4 {
                if other != m {
                    assert_eq!(shard_overlap(m, 4, other, 4).0, 0);
                }
            }
        }
    }

    #[test]
    fn shard_overlap_is_symmetric() {
        for (a, da, b, db) in [(1u32, 2u32, 2u32, 4u32), (0, 3, 0, 5), (2, 8, 0, 2)] {
            let (n1, d1) = shard_overlap(a, da, b, db);
            let (n2, d2) = shard_overlap(b, db, a, da);
            assert_eq!(n1 * d2, n2 * d1, "fractions must be equal");
        }
    }

    #[test]
    fn shard_overlap_partitions_unity() {
        // Summing overlap of one shard against all shards of another split
        // must give exactly the shard's own size.
        let (da, db) = (2u32, 8u32);
        for a in 0..da {
            let total: u64 = (0..db).map(|b| shard_overlap(a, da, b, db).0).sum();
            let (_, den) = shard_overlap(a, da, 0, db);
            // Shard a's size is 1/da = (db)/(da*db).
            assert_eq!(total, den / da as u64);
        }
    }

    #[test]
    fn figure_4b_geometry() {
        // Figure 4b: current (D=2,P=2,M=2), target (D=2,P=3,M=1).
        // u1 holds stage 0 shard 1 of pipeline 0 over a 12-layer model:
        // layers 0..6, half-sharded. Target v0 = stage 0' of 3, full layer:
        // layers 0..4. Overlap = 4 layers × 1/2.
        let u1 = PositionContext::new(12, 2, 0, 2, 1);
        let v0 = PositionContext::new(12, 3, 0, 1, 0);
        assert_eq!(u1.weight_overlap_bytes(&v0, 1000), 4 * 500);
        // Against stage 2' (layers 8..12) there is no layer overlap.
        let v2 = PositionContext::new(12, 3, 2, 1, 0);
        assert_eq!(u1.weight_overlap_bytes(&v2, 1000), 0);
    }

    #[test]
    fn overlap_past_u64_products_stays_exact() {
        // 32 common layers × 2/16 of a layer: the product 64 · layer_bytes
        // overflows u64, the overlap itself does not.
        let eighth = PositionContext::new(32, 1, 0, 8, 0);
        let half = PositionContext::new(32, 1, 0, 2, 0);
        let layer_bytes = u64::MAX / 4;
        assert_eq!(
            eighth.weight_overlap_bytes(&half, layer_bytes),
            4 * layer_bytes
        );
        assert_eq!(eighth.weight_overlap_bytes(&half, 1000), 4000);
    }

    #[test]
    fn self_overlap_is_own_size() {
        let ctx = PositionContext::new(32, 2, 1, 4, 3);
        // 16 layers × 1/4 × 1000 bytes.
        assert_eq!(ctx.weight_bytes(1000), 4000);
    }

    #[test]
    fn figure_4a_reconfiguration_preserves_total_weights() {
        // (D=1,P=2,M=8) -> (D=1,P=3,M=4) over 16 "layers" (Figure 4a uses
        // 16 position boxes): total overlap summed over all old-new pairs
        // must equal the full model size (every byte lives somewhere).
        let layers = 16u32;
        let layer_bytes = 1 << 20;
        let old: Vec<PositionContext> = (0..2)
            .flat_map(|p| (0..8).map(move |m| PositionContext::new(layers, 2, p, 8, m)))
            .collect();
        let new: Vec<PositionContext> = (0..3)
            .flat_map(|p| (0..4).map(move |m| PositionContext::new(layers, 3, p, 4, m)))
            .collect();
        let total: u64 = old
            .iter()
            .flat_map(|o| {
                new.iter()
                    .map(move |n| o.weight_overlap_bytes(n, layer_bytes))
            })
            .sum();
        assert_eq!(total, layers as u64 * layer_bytes);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn stage_layers_partition(layers in 1u32..128, stages in 1u32..16) {
            prop_assume!(stages <= layers);
            let mut total = 0u32;
            let mut prev_end = 0u32;
            for s in 0..stages {
                let r = stage_layers(layers, stages, s);
                prop_assert_eq!(r.start, prev_end, "contiguous");
                prev_end = r.end;
                total += r.end - r.start;
            }
            prop_assert_eq!(total, layers);
            prop_assert_eq!(prev_end, layers);
        }

        #[test]
        fn overlap_bounded_by_each_side(
            a in 0u32..8, da in 1u32..9, b in 0u32..8, db in 1u32..9
        ) {
            prop_assume!(a < da && b < db);
            let (num, den) = shard_overlap(a, da, b, db);
            // overlap ≤ 1/da and ≤ 1/db.
            prop_assert!(num * da as u64 <= den);
            prop_assert!(num * db as u64 <= den);
        }
    }
}
