//! The HERO-Sign signer: a parameter set, a persistent worker pool and a
//! per-key hypertree cache.
//!
//! [`HeroSigner`] plans each batch as one stage graph ([`crate::plan`])
//! and runs it on its [`Executor`]. It prices nothing: the GPU model —
//! tuning, PTX selection, pipeline simulation — is [`crate::SimModel`],
//! and nothing on the signing path reads it, so building a signer costs
//! what starting its workers costs.

use crate::builder::HeroSignerBuilder;
use crate::cache::{CacheStats, HypertreeCache};
use crate::error::HeroError;
use crate::model::{PipelineOptions, PipelineReport, SimModel};

use hero_gpu_sim::device::DeviceProps;
use hero_task_graph::Executor;

use hero_sphincs::hash::HashCtx;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{Signature, SigningKey};

use std::sync::Arc;

/// The HERO-Sign signing engine for one parameter set.
///
/// Holds an [`Executor`] — the persistent stream runtime — in an
/// [`Arc`]: cloning the engine shares the same worker pool, the way
/// multiple CUDA streams share one device, and concurrent `sign` /
/// `sign_batch` calls interleave their stage graphs on those workers
/// instead of serializing behind per-call thread pools.
#[derive(Clone, Debug)]
pub struct HeroSigner {
    /// Read by [`HeroSigner::simulate`] and by nothing that signs.
    pub(crate) device: DeviceProps,
    pub(crate) params: Params,
    pub(crate) executor: Arc<Executor>,
    /// Per-key hypertree memoization, shared by clones (like the
    /// executor): many services signing through clones of one engine
    /// pool their warm subtrees.
    pub(crate) cache: Arc<HypertreeCache>,
}

impl HeroSigner {
    /// Starts configuring an engine; see [`HeroSignerBuilder`].
    ///
    /// `device` steers nothing the engine computes. The argument stays
    /// because the repository benchmark compiles against this signature
    /// (`perfbench/src/workloads.rs:255`); it is only handed on to
    /// [`HeroSigner::simulate`].
    pub fn builder(device: DeviceProps, params: Params) -> HeroSignerBuilder {
        HeroSignerBuilder::new(device, params)
    }

    /// The parameter set.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The functional-signing worker-thread count of the runtime.
    pub fn workers(&self) -> usize {
        self.executor.workers()
    }

    /// The persistent stream runtime this engine submits onto. Share it
    /// across engines (via [`crate::builder::HeroSignerBuilder::runtime`])
    /// or hand it to services and benchmarks that want to co-schedule
    /// their own [`hero_task_graph::TaskGraph`] submissions with signing.
    pub fn runtime(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// Functional signing of one message: a planned batch of one
    /// ([`HeroSigner::sign_batch`]). Bit-identical to
    /// [`hero_sphincs::reference::sign`].
    ///
    /// # Errors
    ///
    /// [`HeroError::KeyMismatch`] if `sk` was generated for a different
    /// parameter set than this engine.
    pub fn sign(&self, sk: &SigningKey, msg: &[u8]) -> Result<Signature, HeroError> {
        Ok(self
            .sign_batch(sk, &[msg])?
            .pop()
            .expect("batch of one yields one signature"))
    }

    /// Functional batch signing through the cross-message planner
    /// ([`crate::plan`]): the whole batch becomes one stage graph whose
    /// ready work-items — FORS tree groups, subtree treehashes, WOTS+
    /// chain groups, possibly spanning messages — co-schedule on the
    /// worker pool, the CPU analogue of one device-filling GPU batch.
    /// The seeded hash state is computed once per call, not per message.
    ///
    /// Output is byte-identical to signing each message sequentially.
    ///
    /// # Errors
    ///
    /// [`HeroError::KeyMismatch`] if `sk` was generated for a different
    /// parameter set than this engine.
    pub fn sign_batch(&self, sk: &SigningKey, msgs: &[&[u8]]) -> Result<Vec<Signature>, HeroError> {
        check_key(&self.params, sk.params())?;
        let ctx = HashCtx::with_alg(self.params, sk.pk_seed(), sk.alg());
        Ok(crate::plan::sign_batch(
            &ctx,
            sk,
            msgs,
            &self.executor,
            &self.cache,
            &crate::plan::PlanShape::for_batch(msgs.len()),
        ))
    }

    /// The engine's per-key hypertree memoization cache, shared across
    /// clones. Exposed so services and servers can inspect or pool it.
    pub fn cache(&self) -> &Arc<HypertreeCache> {
        &self.cache
    }

    /// Snapshot of the hypertree cache counters (hits, misses,
    /// evictions, resident bytes/keys/subtrees).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Pre-fills the hypertree cache for `sk`: plans the memoizable
    /// upper-layer subtrees as a stage graph and runs it on the shared
    /// executor, so the first real `sign_batch` for the key starts warm.
    /// Idempotent — already-resident subtrees are skipped. Returns how
    /// many subtrees were freshly built.
    ///
    /// # Errors
    ///
    /// [`HeroError::KeyMismatch`] if `sk` was generated for a different
    /// parameter set than this engine.
    pub fn warm_key(&self, sk: &SigningKey) -> Result<usize, HeroError> {
        check_key(&self.params, sk.params())?;
        let ctx = HashCtx::with_alg(self.params, sk.pk_seed(), sk.alg());
        Ok(crate::plan::warm_cache(
            &ctx,
            sk,
            &self.executor,
            &self.cache,
        ))
    }

    /// Planned batch verification on the worker pool (extension: the
    /// paper accelerates generation only): the batch becomes one
    /// lane-batched node per group of signatures
    /// ([`crate::plan::verify_batch`]), interleaving with any in-flight
    /// signing work on the same executor. Returns one typed
    /// [`crate::VerifyOutcome`] per message; never short-circuits, like
    /// a GPU batch, and verdicts are bit-for-bit those of
    /// [`hero_sphincs::reference::verify`].
    ///
    /// # Errors
    ///
    /// [`HeroError::KeyMismatch`] if `vk` was generated for a different
    /// parameter set than this engine; [`HeroError::BatchMismatch`] when
    /// `msgs` and `sigs` differ in length (nothing is silently paired by
    /// the shorter slice).
    pub fn verify_batch(
        &self,
        vk: &hero_sphincs::VerifyingKey,
        msgs: &[&[u8]],
        sigs: &[Signature],
    ) -> Result<Vec<crate::VerifyOutcome>, HeroError> {
        check_key(&self.params, vk.params())?;
        crate::plan::verify_batch(vk, msgs, sigs, &self.executor)
    }

    /// [`SimModel::simulate`] on a fresh [`SimModel::hero`] for the
    /// builder's device. Stays because the repository benchmark calls it
    /// (`perfbench/src/ladder.rs:839`); everything else that prices builds
    /// a [`SimModel`] and keeps it.
    ///
    /// # Errors
    ///
    /// As [`SimModel::hero`] and [`SimModel::simulate`].
    pub fn simulate(&self, opts: PipelineOptions) -> Result<PipelineReport, HeroError> {
        SimModel::hero(self.device.clone(), self.params)?.simulate(opts)
    }
}

/// Rejects keys generated for a different parameter set than the
/// engine's: every [`Params`] field must match, not only the name.
pub(crate) fn check_key(engine: &Params, key: &Params) -> Result<(), HeroError> {
    if engine == key {
        Ok(())
    } else {
        Err(crate::error::KeyMismatch {
            engine: *engine,
            key: *key,
        }
        .into_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::fors_sign;
    use crate::model::{LaunchPolicy, OptConfig};
    use hero_gpu_sim::device::rtx_4090;
    use hero_gpu_sim::isa::Sha2Path;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_params() -> Params {
        let mut p = Params::sphincs_128f();
        p.h = 6;
        p.d = 3;
        p.log_t = 4;
        p.k = 8;
        p
    }

    fn signer(params: Params) -> HeroSigner {
        HeroSigner::builder(rtx_4090(), params).build().unwrap()
    }

    fn build(device: DeviceProps, params: Params, cfg: OptConfig) -> SimModel {
        SimModel::new(device, params, cfg).unwrap()
    }

    fn pipe(messages: u32, batch: u32, streams: usize) -> PipelineOptions {
        PipelineOptions::new(messages)
            .batch_size(batch)
            .streams(streams)
    }

    #[test]
    fn hero_sign_matches_reference_exactly() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = tiny_params();
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let engine = signer(params);
        let msg = b"hero-sign functional equivalence";
        let hero_sig = engine.sign(&sk, msg).unwrap();
        let reference = sk.sign(msg);
        assert_eq!(hero_sig, reference);
        vk.verify(msg, &hero_sig).unwrap();
    }

    #[test]
    fn batch_signing_verifies() {
        let mut rng = StdRng::seed_from_u64(8);
        let params = tiny_params();
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let engine = signer(params);
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 20]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let sigs = engine.sign_batch(&sk, &refs).unwrap();
        for (m, s) in refs.iter().zip(&sigs) {
            vk.verify(m, s).unwrap();
        }
    }

    #[test]
    fn sign_rejects_mismatched_key() {
        let mut rng = StdRng::seed_from_u64(9);
        let key_params = tiny_params();
        let (sk, _) = hero_sphincs::keygen(key_params, &mut rng).unwrap();
        let engine = signer(Params::sphincs_128f());
        let err = engine.sign(&sk, b"mismatch").unwrap_err();
        assert!(matches!(err, HeroError::KeyMismatch(_)), "{err}");
    }

    #[test]
    fn engine_signs_with_sha512_keys() {
        use hero_sphincs::hash::HashAlg;
        let mut rng = StdRng::seed_from_u64(64);
        let params = tiny_params();
        let (sk, vk) = hero_sphincs::keygen_with_alg(params, HashAlg::Sha512, &mut rng).unwrap();
        let engine = signer(params);
        let sig = engine.sign(&sk, b"sha512 through the kernels").unwrap();
        assert_eq!(sig, sk.sign(b"sha512 through the kernels"));
        vk.verify(b"sha512 through the kernels", &sig).unwrap();
    }

    #[test]
    fn simulate_forwards_to_the_hero_model() {
        let params = Params::sphincs_128f();
        let opts = pipe(1024, 64, 4).pcie_overlap(64);
        let direct = SimModel::hero(rtx_4090(), params)
            .unwrap()
            .simulate(opts)
            .unwrap();
        assert_eq!(signer(params).simulate(opts).unwrap(), direct);
    }

    // From here down the tests price: each builds a `SimModel`, never a
    // signer. They keep the `engine::tests` path they were recorded under.

    #[test]
    fn adaptive_selection_reproduces_table_v() {
        // Table V on RTX 4090: FORS → PTX everywhere; TREE/WOTS native at
        // 128f/192f, PTX at 256f.
        let d = rtx_4090();
        for p in Params::fast_sets() {
            let model = SimModel::hero(d.clone(), p).unwrap();
            let sel = model.selection();
            assert_eq!(sel.fors, Sha2Path::Ptx, "{} FORS", p.name());
            let expect = if p.n == 32 {
                Sha2Path::Ptx
            } else {
                Sha2Path::Native
            };
            assert_eq!(sel.tree, expect, "{} TREE", p.name());
            assert_eq!(sel.wots, expect, "{} WOTS", p.name());
        }
    }

    #[test]
    fn hero_outperforms_baseline_per_kernel() {
        let d = rtx_4090();
        for p in Params::fast_sets() {
            let base = SimModel::baseline(d.clone(), p)
                .unwrap()
                .kernel_reports(1024);
            let hero = SimModel::hero(d.clone(), p).unwrap().kernel_reports(1024);
            for (b, h) in base.iter().zip(hero.iter()) {
                assert!(
                    h.time_us < b.time_us,
                    "{} {}: {} !< {}",
                    p.name(),
                    b.name,
                    h.time_us,
                    b.time_us
                );
            }
        }
    }

    #[test]
    fn ablation_ladder_is_monotone_enough() {
        // Each Fig. 11 step may be small but the cumulative trend must be
        // strictly downward in FORS time.
        let d = rtx_4090();
        let p = Params::sphincs_128f();
        let mut last = f64::INFINITY;
        for (label, cfg) in OptConfig::ablation_ladder() {
            let model = build(d.clone(), p, cfg);
            let fors = &model.kernel_reports(1024)[0];
            assert!(
                fors.time_us <= last * 1.005,
                "{label}: {} vs previous {last}",
                fors.time_us
            );
            last = fors.time_us;
        }
    }

    #[test]
    fn graph_pipeline_slashes_launch_overhead() {
        let d = rtx_4090();
        let p = Params::sphincs_128f();
        let hero = SimModel::hero(d.clone(), p).unwrap();
        let hero_graph = hero.simulate(pipe(1024, 64, 4)).unwrap();
        // The same model replayed with per-kernel stream launches.
        let hero_stream = hero
            .simulate(pipe(1024, 64, 4).launch(LaunchPolicy::Streams))
            .unwrap();
        // Two orders of magnitude vs per-message baseline launches.
        let baseline = SimModel::baseline(d.clone(), p)
            .unwrap()
            .simulate(pipe(1024, 1, 4))
            .unwrap();
        assert!(
            baseline.launch_overhead_us / hero_graph.launch_overhead_us > 50.0,
            "{} vs {}",
            baseline.launch_overhead_us,
            hero_graph.launch_overhead_us
        );
        assert!(hero_graph.launch_overhead_us < hero_stream.launch_overhead_us);
        assert!(hero_graph.kops >= hero_stream.kops * 0.99);
    }

    #[test]
    fn pipeline_kops_in_paper_decade() {
        // Fig. 12: 128f full pipeline ≈ 93 (baseline) → 119 (HERO+graph).
        // The baseline launches per-message kernels over many streams
        // (CUSPX-style streams ≈ tasks/cores); HERO signs ≥512-message
        // batches (§IV-E1's throughput guidance).
        let d = rtx_4090();
        let p = Params::sphincs_128f();
        let base = SimModel::baseline(d.clone(), p)
            .unwrap()
            .simulate(pipe(1024, 1, 128))
            .unwrap();
        let hero = SimModel::hero(d.clone(), p)
            .unwrap()
            .simulate(pipe(1024, 512, 4))
            .unwrap();
        assert!(
            base.kops > 40.0 && base.kops < 200.0,
            "baseline {}",
            base.kops
        );
        assert!(hero.kops > base.kops, "{} vs {}", hero.kops, base.kops);
        let speedup = hero.kops / base.kops;
        assert!(speedup > 1.1 && speedup < 2.2, "speedup {speedup}");
    }

    #[test]
    fn s_variants_supported_via_deep_relax() {
        // The -s sets run end to end on the model thanks to the
        // generalized Relax Buffer (extension beyond the paper's -f scope).
        let d = rtx_4090();
        for p in [
            Params::sphincs_128s(),
            Params::sphincs_192s(),
            Params::sphincs_256s(),
        ] {
            let model = SimModel::hero(d.clone(), p).unwrap();
            assert!(matches!(
                model.fors_layout(),
                fors_sign::ForsLayout::Relax(_)
            ));
            let reports = model.kernel_reports(256);
            for r in &reports {
                assert!(
                    r.time_us.is_finite() && r.time_us > 0.0,
                    "{} {}",
                    p.name(),
                    r.name
                );
            }
            // -s trades throughput for signature size: slower than -f.
            let f_equiv = match p.n {
                16 => Params::sphincs_128f(),
                24 => Params::sphincs_192f(),
                _ => Params::sphincs_256f(),
            };
            let s_pipe = model.simulate(pipe(512, 256, 4)).unwrap();
            let f_pipe = SimModel::hero(d.clone(), f_equiv)
                .unwrap()
                .simulate(pipe(512, 256, 4))
                .unwrap();
            assert!(s_pipe.kops < f_pipe.kops, "{}: -s must be slower", p.name());
        }
    }

    #[test]
    fn fors_layout_tracks_config() {
        let d = rtx_4090();
        let p = Params::sphincs_128f();
        assert!(matches!(
            SimModel::baseline(d.clone(), p).unwrap().fors_layout(),
            fors_sign::ForsLayout::Baseline
        ));
        let mut cfg = OptConfig::baseline();
        cfg.mmtp = true;
        assert!(matches!(
            build(d.clone(), p, cfg).fors_layout(),
            fors_sign::ForsLayout::Mmtp
        ));
        assert!(matches!(
            SimModel::hero(d.clone(), p).unwrap().fors_layout(),
            fors_sign::ForsLayout::Fused(_)
        ));
        assert!(matches!(
            SimModel::hero(d, Params::sphincs_256f())
                .unwrap()
                .fors_layout(),
            fors_sign::ForsLayout::Relax(_)
        ));
    }

    #[test]
    fn pipeline_options_are_validated() {
        let model = SimModel::hero(rtx_4090(), Params::sphincs_128f()).unwrap();
        for bad in [
            PipelineOptions::new(0),
            PipelineOptions::new(64).batch_size(0),
            PipelineOptions::new(64).streams(0),
            PipelineOptions::new(64).batch_size(65),
        ] {
            let err = model.simulate(bad).unwrap_err();
            assert!(
                matches!(err, HeroError::InvalidOptions(_)),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn pcie_option_populates_transfers() {
        let model = SimModel::hero(rtx_4090(), Params::sphincs_128f()).unwrap();
        let pure = model.simulate(pipe(512, 128, 4)).unwrap();
        assert!(pure.transfers.is_none());
        let with_pcie = model.simulate(pipe(512, 128, 4).pcie_overlap(64)).unwrap();
        let transfers = with_pcie.transfers.expect("transfer breakdown");
        assert!(transfers.makespan_us >= pure.makespan_us);
        assert!(with_pcie.kops <= pure.kops);
    }
}
