//! Parallel maps on the persistent worker-pool runtime.
//!
//! The functional side of HERO-Sign's kernels executes on CPU threads
//! (pool workers play the role of CUDA thread blocks); these helpers
//! distribute independent work items — messages, FORS trees, hypertree
//! layers — across a [`hero_task_graph::Executor`].
//!
//! Two pools exist:
//!
//! * every [`crate::engine::HeroSigner`] owns (or shares, via
//!   [`crate::builder::HeroSignerBuilder::runtime`]) an executor sized by
//!   its `workers` setting — the planner's per-message preamble submits
//!   there through [`par_map_on`];
//! * a lazily created process-wide [`shared_executor`], which the server's
//!   default engine factory hands every tenant's engine.

use hero_task_graph::{Executor, TaskGraph};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of workers to use by default: the `HERO_WORKERS` environment
/// variable when set to a positive integer (the CI matrix pins 1 and 8),
/// otherwise the machine's available parallelism, capped to keep test
/// runs snappy.
pub fn default_workers() -> usize {
    if let Some(n) = env_workers() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(32)
}

fn env_workers() -> Option<usize> {
    std::env::var("HERO_WORKERS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .map(|n| n.min(256))
}

/// The process-wide executor, created on first use with
/// [`default_workers`] threads. Engines built through
/// [`crate::builder::HeroSignerBuilder`] get their own (or an explicitly
/// shared) pool instead.
pub fn shared_executor() -> &'static Arc<Executor> {
    static POOL: OnceLock<Arc<Executor>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(Executor::new(default_workers()).expect("default_workers() >= 1")))
}

/// Applies `f` to every index in `0..len` on `exec`, returning results
/// in index order. `workers` bounds the submission's parallelism (number
/// of chunk-claiming nodes), not the pool size; `workers == 1` runs
/// sequentially on the caller.
///
/// Work-steals via an atomic cursor that hands out *chunks* of indices:
/// each of the `workers` submission nodes claims
/// `max(1, len / (workers · 8))` consecutive items per `fetch_add`, so
/// fine-grained workloads (FORS leaves) don't serialize on the cursor
/// while uneven item costs (e.g. WOTS+ chain lengths) still balance —
/// the same reason the GPU kernels interleave chains across warps.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_map_indexed_on<R, F>(exec: &Executor, len: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, len);
    if workers == 1 {
        return (0..len).map(f).collect();
    }

    // ~8 claims per worker keeps stealing granular enough to balance
    // uneven items without contending on every index.
    let chunk = (len / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let slots_ptr = SendPtr(slots.as_mut_ptr());

    let mut graph = TaskGraph::new();
    for _ in 0..workers {
        let cursor = &cursor;
        let f = &f;
        graph.task(move || loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            for i in start..(start + chunk).min(len) {
                let value = f(i);
                // SAFETY: each index belongs to exactly one chunk and
                // each chunk is claimed by exactly one node via the
                // atomic cursor, so writes are disjoint; `Executor::run`
                // blocks until every node retired, so the buffer
                // outlives all writes.
                unsafe { slots_ptr.write(i, Some(value)) }
            }
        });
    }
    exec.run(graph)
        .expect("independent chunk nodes form an acyclic graph");

    slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect()
}

/// Applies `f` to every element of `items` in parallel on `exec`,
/// preserving order.
pub fn par_map_on<T, R, F>(exec: &Executor, items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed_on(exec, items.len(), workers, |i| f(&items[i]))
}

struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    ///
    /// `i` must be in bounds and no other thread may access index `i`.
    unsafe fn write(&self, i: usize, value: T) {
        *self.0.add(i) = value;
    }
}

// SAFETY: workers write disjoint indices only (enforced by the atomic
// cursor protocol above).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map_indexed_on(shared_executor(), 100, 8, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map_indexed_on(shared_executor(), 0, 8, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_path() {
        let out = par_map_indexed_on(shared_executor(), 10, 1, |i| i + 1);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still all complete correctly.
        let out = par_map_indexed_on(shared_executor(), 64, 8, |i| {
            let mut acc = 0u64;
            for _ in 0..(i % 7) * 10_000 {
                acc = acc.wrapping_mul(31).wrapping_add(i as u64);
            }
            (i, acc)
        });
        for (i, entry) in out.iter().enumerate() {
            assert_eq!(entry.0, i);
        }
    }

    #[test]
    fn workers_capped_to_len() {
        let out = par_map_indexed_on(shared_executor(), 3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn chunked_claims_cover_ragged_lengths() {
        // Lengths that do not divide the chunk size still visit every
        // index exactly once.
        for len in [1usize, 7, 97, 1000, 1025] {
            for workers in [2usize, 3, 8] {
                let out = par_map_indexed_on(shared_executor(), len, workers, |i| i);
                assert_eq!(out, (0..len).collect::<Vec<_>>(), "len={len} w={workers}");
            }
        }
    }

    #[test]
    fn explicit_executor_matches_shared_pool() {
        let exec = Executor::new(3).unwrap();
        let out = par_map_indexed_on(&exec, 128, 4, |i| i * 3);
        assert_eq!(out, (0..128).map(|i| i * 3).collect::<Vec<_>>());
        let items: Vec<u32> = (0..40).collect();
        let mapped = par_map_on(&exec, &items, 4, |v| v + 1);
        assert_eq!(mapped, (1..=40).collect::<Vec<_>>());
    }

    #[test]
    fn env_override_parses_strictly() {
        // Pure parse logic (the env var itself is process-global, so the
        // CI matrix exercises the live path).
        assert_eq!(
            "8".trim().parse::<usize>().ok().filter(|&n| n >= 1),
            Some(8)
        );
        assert_eq!("0".trim().parse::<usize>().ok().filter(|&n| n >= 1), None);
        assert_eq!(
            "lots".trim().parse::<usize>().ok().filter(|&n| n >= 1),
            None
        );
        assert!(default_workers() >= 1);
    }
}
