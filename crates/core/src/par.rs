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

/// The environment variable that pins [`default_workers`].
pub const ENV_VAR: &str = "HERO_WORKERS";

/// Number of workers to use by default: `HERO_WORKERS` when it names a
/// worker count ([`env_workers`]; the CI matrix pins 1 and 8), otherwise
/// the machine's available parallelism, capped to keep test runs snappy.
pub fn default_workers() -> usize {
    if let Ok(Some(n)) = env_workers() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(32)
}

/// `HERO_WORKERS`, read strictly: `None` when it is unset, the count
/// when it is one (a positive integer, surrounding blanks allowed,
/// capped at 256). [`default_workers`] ignores any other value;
/// `hero serve` refuses to start on it.
///
/// # Errors
///
/// A message naming the value when it is not a worker count.
pub fn env_workers() -> Result<Option<usize>, String> {
    match std::env::var(ENV_VAR) {
        Ok(value) => parse_workers(&value).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// The worker count `value` names, or a message naming it.
fn parse_workers(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n.min(256)),
        _ => Err(format!("'{value}' is not a positive worker count")),
    }
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
        assert_eq!(parse_workers("8"), Ok(8));
        assert_eq!(parse_workers(" 2\n"), Ok(2));
        assert_eq!(parse_workers("100000"), Ok(256));
        for bad in ["0", "lots", "", "-1", "2.5"] {
            let err = parse_workers(bad).unwrap_err();
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
        assert!(default_workers() >= 1);
    }
}
