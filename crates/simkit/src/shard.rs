//! The deterministic fork/join helper the parallel simulation core is
//! built on.
//!
//! [`run_shards`] applies one closure to every shard, either inline or
//! across scoped worker threads. Shards are assigned to workers in fixed
//! contiguous chunks and each worker walks its chunk in shard order, so
//! any per-shard mutation is identical for every thread count —
//! determinism comes from *partitioning*, not from locks.

/// Applies `f` to every shard, spreading shards across at most `threads`
/// scoped worker threads.
///
/// Shards are split into `threads` contiguous chunks; worker `w` owns chunk
/// `w` and walks it in ascending shard order. Because the chunking depends
/// only on `shards.len()` and `threads`, and each shard is visited by exactly
/// one worker, the per-shard effects of `f` are identical for every thread
/// count — including `threads == 1`, which runs inline with no thread spawn
/// at all.
pub fn run_shards<S, F>(shards: &mut [S], threads: usize, f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let threads = threads.max(1).min(shards.len().max(1));
    if threads <= 1 {
        for (i, shard) in shards.iter_mut().enumerate() {
            f(i, shard);
        }
        return;
    }
    let n = shards.len();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (w, slice) in shards.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (j, shard) in slice.iter_mut().enumerate() {
                    f(w * chunk + j, shard);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_shards_output_is_thread_count_invariant() {
        // Each shard deterministically accumulates from its own index; the
        // result must not depend on how shards were spread over workers.
        let reference: Vec<u64> = (0..13u64).map(|i| i * i + 7).collect();
        for threads in [1, 2, 3, 8, 32] {
            let mut shards: Vec<u64> = vec![0; 13];
            run_shards(&mut shards, threads, |i, v| {
                *v = (i as u64) * (i as u64) + 7;
            });
            assert_eq!(shards, reference, "threads={threads}");
        }
    }

    #[test]
    fn run_shards_visits_every_shard_exactly_once() {
        let visited = AtomicUsize::new(0);
        let mut shards: Vec<u32> = vec![0; 7];
        run_shards(&mut shards, 3, |_, v| {
            *v += 1;
            visited.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(visited.load(Ordering::Relaxed), 7);
        assert!(shards.iter().all(|&v| v == 1));
    }
}
