//! The worker-pool defaults of the persistent runtime.
//!
//! The functional side of HERO-Sign's kernels executes on CPU threads
//! (pool workers play the role of CUDA thread blocks) of a
//! [`hero_task_graph::Executor`]. Two pools exist:
//!
//! * every [`crate::engine::HeroSigner`] owns (or shares, via
//!   [`crate::builder::HeroSignerBuilder::runtime`]) an executor sized by
//!   its `workers` setting, [`default_workers`] unless set — the planner
//!   ([`crate::plan`]) submits every batch there;
//! * a lazily created process-wide [`shared_executor`], which the server's
//!   default engine factory hands every tenant's engine.

use hero_task_graph::Executor;

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

#[cfg(test)]
mod tests {
    use super::*;

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
