//! Fallible construction of [`HeroSigner`] engines.
//!
//! A signer is a parameter set, a worker pool and a hypertree cache, so
//! that is all [`HeroSignerBuilder`] configures — three knobs — and
//! [`HeroSignerBuilder::build`] costs what starting the workers costs
//! (≈ 0.1 ms; nothing when a shared [`HeroSignerBuilder::runtime`] is
//! attached). Every precondition — parameter validation, worker counts,
//! cache bounds — surfaces as a [`HeroError`] instead of a panic. Tuning
//! and PTX selection belong to [`crate::SimModel`], which a signer never
//! builds.

use crate::cache::{CacheConfig, HypertreeCache};
use crate::engine::HeroSigner;
use crate::error::HeroError;

use hero_gpu_sim::device::DeviceProps;
use hero_sphincs::params::Params;
use hero_task_graph::Executor;

use std::sync::Arc;

/// Step-by-step configuration for a [`HeroSigner`].
///
/// Obtained from [`HeroSigner::builder`]; defaults to the machine's
/// available parallelism and the default cache.
///
/// ```
/// use hero_gpu_sim::device::rtx_4090;
/// use hero_sign::HeroSigner;
/// use hero_sphincs::Params;
///
/// # fn main() -> Result<(), hero_sign::HeroError> {
/// let engine = HeroSigner::builder(rtx_4090(), Params::sphincs_128f())
///     .workers(8)
///     .build()?;
/// assert_eq!(engine.params().name(), "SPHINCS+-128f");
/// assert_eq!(engine.workers(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct HeroSignerBuilder {
    device: DeviceProps,
    params: Params,
    workers: Option<usize>,
    runtime: Option<Arc<Executor>>,
    cache_config: CacheConfig,
}

impl HeroSignerBuilder {
    pub(crate) fn new(device: DeviceProps, params: Params) -> Self {
        Self {
            device,
            params,
            workers: None,
            runtime: None,
            cache_config: CacheConfig::default(),
        }
    }

    /// Sets the functional-signing worker-thread count (defaults to the
    /// machine's available parallelism, or `HERO_WORKERS` when set).
    /// Zero is rejected by [`HeroSignerBuilder::build`]. Ignored when an
    /// explicit [`HeroSignerBuilder::runtime`] is supplied.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Attaches an existing persistent runtime instead of spawning a
    /// fresh one: engines sharing an [`Executor`] co-schedule their
    /// submissions on the same workers, the way multiple CUDA streams
    /// share one device.
    pub fn runtime(mut self, runtime: Arc<Executor>) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Configures the per-key hypertree memoization cache
    /// ([`crate::cache::HypertreeCache`]) the engine signs through:
    /// capacity bounds, the per-layer memoization policy, and the warm
    /// budget. Defaults to [`CacheConfig::default`]; pass
    /// [`CacheConfig::disabled`] to sign fully cold every time.
    pub fn cache_config(mut self, cache_config: CacheConfig) -> Self {
        self.cache_config = cache_config;
        self
    }

    /// Validates the configuration, starts the worker pool (unless a
    /// runtime was attached) and constructs the engine.
    ///
    /// # Errors
    ///
    /// * [`HeroError::InvalidParams`] — `params` failed validation.
    /// * [`HeroError::InvalidOptions`] — `workers(0)`, or an enabled
    ///   [`HeroSignerBuilder::cache_config`] with a zero capacity bound.
    pub fn build(self) -> Result<HeroSigner, HeroError> {
        self.params.validate().map_err(HeroError::InvalidParams)?;
        self.cache_config.validate()?;
        if self.workers == Some(0) {
            return Err(HeroError::InvalidOptions(
                "workers must be >= 1".to_string(),
            ));
        }
        let executor =
            match self.runtime {
                Some(runtime) => runtime,
                None => {
                    let workers = self.workers.unwrap_or_else(crate::par::default_workers);
                    Arc::new(Executor::new(workers).map_err(|_| {
                        HeroError::InvalidOptions("workers must be >= 1".to_string())
                    })?)
                }
            };
        Ok(HeroSigner {
            device: self.device,
            params: self.params,
            executor,
            cache: Arc::new(HypertreeCache::new(self.cache_config)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_gpu_sim::device::rtx_4090;

    #[test]
    fn build_rejects_invalid_params() {
        let mut p = Params::sphincs_128f();
        p.log_t = 0;
        let err = HeroSigner::builder(rtx_4090(), p).build().unwrap_err();
        assert!(matches!(err, HeroError::InvalidParams(_)), "{err}");
    }

    #[test]
    fn build_rejects_zero_workers() {
        let err = HeroSigner::builder(rtx_4090(), Params::sphincs_128f())
            .workers(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, HeroError::InvalidOptions(_)), "{err}");
    }

    #[test]
    fn build_rejects_zero_capacity_cache() {
        let err = HeroSigner::builder(rtx_4090(), Params::sphincs_128f())
            .cache_config(CacheConfig {
                max_keys: 0,
                ..CacheConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, HeroError::InvalidOptions(_)), "{err}");
    }

    #[test]
    fn engines_can_share_one_runtime() {
        let runtime = Arc::new(Executor::new(3).unwrap());
        let a = HeroSigner::builder(rtx_4090(), Params::sphincs_128f())
            .runtime(Arc::clone(&runtime))
            .build()
            .unwrap();
        let b = HeroSigner::builder(rtx_4090(), Params::sphincs_192f())
            .runtime(Arc::clone(&runtime))
            .build()
            .unwrap();
        assert!(Arc::ptr_eq(a.runtime(), b.runtime()));
        assert_eq!(a.workers(), 3);
        // An explicit runtime wins over a workers() hint.
        let c = HeroSigner::builder(rtx_4090(), Params::sphincs_128f())
            .workers(7)
            .runtime(Arc::clone(&runtime))
            .build()
            .unwrap();
        assert_eq!(c.workers(), 3);
        // Clones share the pool too (stream semantics, not device copies).
        let d = a.clone();
        assert!(Arc::ptr_eq(a.runtime(), d.runtime()));
    }
}
