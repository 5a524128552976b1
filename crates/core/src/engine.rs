//! The HERO-Sign engine: configuration, tuning, adaptive branch
//! selection, functional batch signing, and full-pipeline simulation.
//!
//! This is the integration point of everything the paper proposes:
//! [`OptConfig`] switches each optimization on independently (the Fig. 11
//! ablation ladder), [`HeroSigner::builder`] runs the offline Tree Tuning
//! search (through the process-wide cache) and the profiling-driven
//! PTX/native selection, and [`HeroSigner::simulate`] replays multi-batch
//! signing over streams or CUDA-Graph-style task graphs (Fig. 12) under a
//! [`PipelineOptions`] description of the workload.

use crate::builder::HeroSignerBuilder;
use crate::cache::{CacheStats, HypertreeCache};
use crate::error::HeroError;
use crate::kernels::{fors_sign, tree_sign, wots_sign, KernelConfig};
use crate::ptx::{BranchSelection, KernelKind};
use crate::signer::{check_key, Signer};
use crate::tuning::TuningResult;

use hero_gpu_sim::device::DeviceProps;
use hero_gpu_sim::engine::{simulate_kernel, KernelReport};
use hero_gpu_sim::isa::Sha2Path;
use hero_gpu_sim::kernel::{KernelDesc, RoDataPlacement};
use hero_gpu_sim::pcie::PipelinedTransfers;
use hero_gpu_sim::stream::{LaunchMode, Timeline};
use hero_task_graph::{Executor, GraphBuilder};

use hero_sphincs::hash::HashCtx;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{Signature, SigningKey};

use std::sync::Arc;

/// PTX branch policy (§III-C2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PtxPolicy {
    /// Native code everywhere (baseline).
    #[default]
    Off,
    /// Profile both paths per kernel and keep the winner (HERO-Sign).
    Adaptive,
    /// Force the PTX path everywhere (for ablation).
    ForceAll,
}

/// Independent switches for every optimization in the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OptConfig {
    /// §III-A multiple-Merkle-tree parallelization.
    pub mmtp: bool,
    /// §III-B FORS fusion via the Auto Tree Tuning search.
    pub fusion: bool,
    /// §III-C PTX branch policy.
    pub ptx: PtxPolicy,
    /// §III-D hybrid memory allocation.
    pub hybrid_memory: bool,
    /// §III-E bank-conflict padding.
    pub free_bank: bool,
    /// `__launch_bounds__` register capping on `TREE_Sign`.
    pub launch_bounds: bool,
    /// §III-F task-graph batch execution.
    pub graph: bool,
}

impl OptConfig {
    /// The TCAS-SPHINCSp baseline: hypertree parallelism only.
    pub const fn baseline() -> Self {
        Self {
            mmtp: false,
            fusion: false,
            ptx: PtxPolicy::Off,
            hybrid_memory: false,
            free_bank: false,
            launch_bounds: false,
            graph: false,
        }
    }

    /// Fully optimized HERO-Sign.
    pub const fn hero() -> Self {
        Self {
            mmtp: true,
            fusion: true,
            ptx: PtxPolicy::Adaptive,
            hybrid_memory: true,
            free_bank: true,
            launch_bounds: true,
            graph: true,
        }
    }

    /// The Fig. 11 ablation ladder: each step adds one optimization.
    /// Returns `(label, config)` pairs in the paper's order.
    pub fn ablation_ladder() -> Vec<(&'static str, OptConfig)> {
        let mut cfg = OptConfig::baseline();
        let mut steps = vec![("Baseline", cfg)];
        cfg.mmtp = true;
        steps.push(("MMTP", cfg));
        cfg.fusion = true;
        steps.push(("+FS", cfg));
        cfg.ptx = PtxPolicy::Adaptive;
        steps.push(("+PTX", cfg));
        cfg.hybrid_memory = true;
        steps.push(("+HybridME", cfg));
        cfg.free_bank = true;
        steps.push(("+FreeBank", cfg));
        steps
    }
}

/// How a simulated pipeline issues work to the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LaunchPolicy {
    /// Follow the engine's [`OptConfig::graph`] switch.
    #[default]
    Auto,
    /// Force CUDA-Graph-style batched launches.
    Graph,
    /// Force per-kernel stream launches.
    Streams,
}

/// A description of one simulated signing workload, replacing the old
/// positional `simulate_pipeline(messages, batch_size, streams)` family.
///
/// ```
/// use hero_sign::PipelineOptions;
///
/// let opts = PipelineOptions::new(1024).batch_size(64).streams(8);
/// assert_eq!(opts.messages, 1024);
/// // Defaults: batch 512, 4 streams, launch mode follows the engine.
/// assert_eq!(PipelineOptions::default().batch_size, 512);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineOptions {
    /// Total messages to sign.
    pub messages: u32,
    /// Messages per device batch. Must not exceed `messages`
    /// ([`PipelineOptions::validate`] reports the mismatch as a typed
    /// error instead of silently clamping); the final batch may still be
    /// short when `batch_size` does not divide `messages`.
    pub batch_size: u32,
    /// Concurrent streams batches rotate across.
    pub streams: usize,
    /// Launch mode override.
    pub launch: LaunchPolicy,
    /// When `Some(msg_bytes)`, the simulation includes PCIe transfers
    /// (§IV-E1): each batch uploads `msg_bytes`-byte messages and
    /// downloads its signatures, with copies overlapping compute on
    /// dedicated copy engines. The resulting
    /// [`PipelineReport::transfers`] is populated.
    pub pcie_msg_bytes: Option<u32>,
}

impl Default for PipelineOptions {
    /// The paper's standard workload: 1024 messages in 512-message
    /// batches over 4 streams, engine-selected launch mode, no PCIe
    /// modeling.
    fn default() -> Self {
        Self {
            messages: 1024,
            batch_size: 512,
            streams: 4,
            launch: LaunchPolicy::Auto,
            pcie_msg_bytes: None,
        }
    }
}

impl PipelineOptions {
    /// A workload of `messages` messages with default batching (the
    /// standard 512-message batch, shrunk to `messages` for small
    /// workloads so the default always passes
    /// [`PipelineOptions::validate`]).
    pub fn new(messages: u32) -> Self {
        let defaults = Self::default();
        Self {
            messages,
            batch_size: defaults.batch_size.min(messages.max(1)),
            ..defaults
        }
    }

    /// Sets the per-batch message count.
    pub fn batch_size(mut self, batch_size: u32) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the stream count.
    pub fn streams(mut self, streams: usize) -> Self {
        self.streams = streams;
        self
    }

    /// Overrides the launch mode.
    pub fn launch(mut self, launch: LaunchPolicy) -> Self {
        self.launch = launch;
        self
    }

    /// Enables PCIe transfer modeling with `msg_bytes`-byte messages.
    pub fn pcie_overlap(mut self, msg_bytes: u32) -> Self {
        self.pcie_msg_bytes = Some(msg_bytes);
        self
    }

    /// Checks the workload description for unusable values.
    ///
    /// # Errors
    ///
    /// [`HeroError::InvalidOptions`] naming the offending field —
    /// including `batch_size > messages`, which used to be clamped
    /// silently; a dispatcher that wants a short final batch says so by
    /// sizing batches to the workload, not the other way around.
    pub fn validate(&self) -> Result<(), HeroError> {
        if self.messages == 0 {
            return Err(HeroError::InvalidOptions(
                "messages must be >= 1".to_string(),
            ));
        }
        if self.batch_size == 0 {
            return Err(HeroError::InvalidOptions(
                "batch_size must be >= 1".to_string(),
            ));
        }
        if self.batch_size > self.messages {
            return Err(HeroError::InvalidOptions(format!(
                "batch_size ({}) must not exceed messages ({})",
                self.batch_size, self.messages
            )));
        }
        if self.streams == 0 {
            return Err(HeroError::InvalidOptions(
                "streams must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// Full-pipeline simulation result (the Fig. 12 quantities).
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// End-to-end time for all batches (µs), including transfers when
    /// PCIe modeling is enabled.
    pub makespan_us: f64,
    /// Signatures per second / 1000.
    pub kops: f64,
    /// Cumulative host launch overhead (µs) — Fig. 12's latency panel.
    pub launch_overhead_us: f64,
    /// Host launches performed.
    pub launch_count: u64,
    /// Device idle time between kernel executions (µs) — Table II's
    /// "Idle Time" column.
    pub idle_us: f64,
    /// Per-kernel device time for one batch (µs): FORS, TREE, WOTS+.
    pub kernel_batch_us: [f64; 3],
    /// PCIe transfer breakdown, when
    /// [`PipelineOptions::pcie_msg_bytes`] was set.
    pub transfers: Option<PipelinedTransfers>,
}

/// The HERO-Sign engine for one (device, parameter set, configuration).
///
/// Holds an [`Executor`] — the persistent stream runtime — in an
/// [`Arc`]: cloning the engine shares the same worker pool, the way
/// multiple CUDA streams share one device, and concurrent `sign` /
/// `sign_batch` calls interleave their stage graphs on those workers
/// instead of serializing behind per-call thread pools.
#[derive(Clone, Debug)]
pub struct HeroSigner {
    device: DeviceProps,
    params: Params,
    config: OptConfig,
    tuning: Option<TuningResult>,
    selection: BranchSelection,
    executor: Arc<Executor>,
    /// Per-key hypertree memoization, shared by clones (like the
    /// executor): many services signing through clones of one engine
    /// pool their warm subtrees.
    cache: Arc<HypertreeCache>,
}

impl HeroSigner {
    /// Starts configuring an engine; see [`HeroSignerBuilder`].
    pub fn builder(device: DeviceProps, params: Params) -> HeroSignerBuilder {
        HeroSignerBuilder::new(device, params)
    }

    /// Convenience: fully optimized engine with default options.
    ///
    /// # Errors
    ///
    /// As [`HeroSignerBuilder::build`].
    pub fn hero(device: DeviceProps, params: Params) -> Result<Self, HeroError> {
        Self::builder(device, params).build()
    }

    /// Convenience: baseline engine with default options.
    ///
    /// # Errors
    ///
    /// As [`HeroSignerBuilder::build`].
    pub fn baseline(device: DeviceProps, params: Params) -> Result<Self, HeroError> {
        Self::builder(device, params)
            .config(OptConfig::baseline())
            .build()
    }

    /// Assembles a validated engine: resolves the profiling-driven
    /// PTX/native selection for the given configuration. Called by
    /// [`HeroSignerBuilder::build`] after validation and tuning.
    pub(crate) fn construct(
        device: DeviceProps,
        params: Params,
        config: OptConfig,
        tuning: Option<TuningResult>,
        executor: Arc<Executor>,
        cache: Arc<HypertreeCache>,
    ) -> Self {
        let mut engine = Self {
            device,
            params,
            config,
            tuning,
            selection: BranchSelection::all_native(),
            executor,
            cache,
        };
        engine.selection = match config.ptx {
            PtxPolicy::Off => BranchSelection::all_native(),
            PtxPolicy::ForceAll => BranchSelection {
                fors: Sha2Path::Ptx,
                tree: Sha2Path::Ptx,
                wots: Sha2Path::Ptx,
            },
            PtxPolicy::Adaptive => engine.profile_branch_selection(),
        };
        engine
    }

    /// The device this engine targets.
    pub fn device(&self) -> &DeviceProps {
        &self.device
    }

    /// The parameter set.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The active configuration.
    pub fn config(&self) -> &OptConfig {
        &self.config
    }

    /// The tuning result, if fusion is enabled and the search succeeded.
    pub fn tuning(&self) -> Option<&TuningResult> {
        self.tuning.as_ref()
    }

    /// The resolved PTX/native selection (Table V's row for this set).
    pub fn selection(&self) -> BranchSelection {
        self.selection
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

    /// The FORS block layout implied by the configuration.
    pub fn fors_layout(&self) -> fors_sign::ForsLayout {
        match (&self.tuning, self.config.mmtp, self.config.fusion) {
            (Some(t), _, true) => {
                if t.best.relax_depth > 0 {
                    fors_sign::ForsLayout::Relax(t.best)
                } else {
                    fors_sign::ForsLayout::Fused(t.best)
                }
            }
            (_, true, _) => fors_sign::ForsLayout::Mmtp,
            _ => fors_sign::ForsLayout::Baseline,
        }
    }

    /// Per-kernel code-generation config implied by the optimization set.
    pub fn kernel_config(&self, kind: KernelKind) -> KernelConfig {
        let path = self.selection.path(kind);
        let placement = if self.config.hybrid_memory {
            match (kind, self.params.n) {
                // §III-D: TREE_Sign's read-only data stays in global
                // memory with vectorized loads for 192f.
                (KernelKind::TreeSign, 24) => RoDataPlacement::GlobalVectorized,
                _ => RoDataPlacement::Constant,
            }
        } else {
            RoDataPlacement::Global
        };
        KernelConfig {
            path,
            placement,
            padding: self.config.free_bank,
            launch_bounds: self.config.launch_bounds,
            // The shift rewrite ships with MMTP's kernel rewrite.
            index_shift_rewrite: self.config.mmtp,
        }
    }

    /// Analytic descriptors for the three kernels over `messages` messages.
    pub fn kernel_descs(&self, messages: u32) -> [KernelDesc; 3] {
        let layout = self.fors_layout();
        [
            fors_sign::describe(
                &self.device,
                &self.params,
                messages,
                &layout,
                &self.kernel_config(KernelKind::ForsSign),
            ),
            tree_sign::describe(
                &self.device,
                &self.params,
                messages,
                &self.kernel_config(KernelKind::TreeSign),
            ),
            wots_sign::describe(
                &self.device,
                &self.params,
                messages,
                &self.kernel_config(KernelKind::WotsSign),
            ),
        ]
    }

    /// Simulated timing reports for the three kernels.
    pub fn kernel_reports(&self, messages: u32) -> [KernelReport; 3] {
        self.kernel_descs(messages)
            .map(|d| simulate_kernel(&self.device, &d))
    }

    /// Profiling-driven branch selection: simulate each kernel under both
    /// paths, keep the winner (§III-C2's "more intuitive approach").
    fn profile_branch_selection(&self) -> BranchSelection {
        let pick = |kind: KernelKind| {
            let mut best = (f64::INFINITY, Sha2Path::Native);
            for path in [Sha2Path::Native, Sha2Path::Ptx] {
                let mut cfg = self.kernel_config_with_path(kind, path);
                cfg.padding = self.config.free_bank;
                let desc = match kind {
                    KernelKind::ForsSign => fors_sign::describe(
                        &self.device,
                        &self.params,
                        1024,
                        &self.fors_layout(),
                        &cfg,
                    ),
                    KernelKind::TreeSign => {
                        tree_sign::describe(&self.device, &self.params, 1024, &cfg)
                    }
                    KernelKind::WotsSign => {
                        wots_sign::describe(&self.device, &self.params, 1024, &cfg)
                    }
                };
                let t = simulate_kernel(&self.device, &desc).time_us;
                if t < best.0 {
                    best = (t, path);
                }
            }
            best.1
        };
        BranchSelection {
            fors: pick(KernelKind::ForsSign),
            tree: pick(KernelKind::TreeSign),
            wots: pick(KernelKind::WotsSign),
        }
    }

    fn kernel_config_with_path(&self, kind: KernelKind, path: Sha2Path) -> KernelConfig {
        let mut cfg = self.kernel_config(kind);
        cfg.path = path;
        cfg
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
    /// [`HeroError::BatchMismatch`] when `msgs` and `sigs` differ in
    /// length (nothing is silently paired by the shorter slice).
    pub fn verify_batch(
        &self,
        vk: &hero_sphincs::VerifyingKey,
        msgs: &[&[u8]],
        sigs: &[Signature],
    ) -> Result<Vec<crate::VerifyOutcome>, HeroError> {
        crate::kernels::verify::run_batch_planned(vk, msgs, sigs, &self.executor)
    }

    /// Simulated batch-verification throughput (KOPS) for `messages`
    /// signatures on this device.
    pub fn simulate_verify_kops(&self, messages: u32) -> f64 {
        let cfg = self.kernel_config(KernelKind::WotsSign);
        let desc = crate::kernels::verify::describe(&self.device, &self.params, messages, &cfg);
        let report = simulate_kernel(&self.device, &desc);
        messages as f64 / report.time_us * 1.0e3
    }

    /// Simulates end-to-end pipeline execution of the workload described
    /// by `opts` (Fig. 12 / Fig. 13): `opts.messages` messages split into
    /// `opts.batch_size`-message batches over `opts.streams` concurrent
    /// streams, launched per the engine configuration or the
    /// [`PipelineOptions::launch`] override, with PCIe transfer modeling
    /// when [`PipelineOptions::pcie_msg_bytes`] is set (§IV-E1 — where
    /// the paper's two-sided batch guidance emerges: compute hides
    /// transfers at moderate batches, but pipeline fill/drain grows with
    /// batch size, so latency-sensitive deployments prefer batches "near
    /// 64").
    ///
    /// # Errors
    ///
    /// [`HeroError::InvalidOptions`] via [`PipelineOptions::validate`].
    pub fn simulate(&self, opts: PipelineOptions) -> Result<PipelineReport, HeroError> {
        Ok(self.simulate_traced(opts)?.0)
    }

    /// [`HeroSigner::simulate`], also returning the populated
    /// [`Timeline`] — e.g. for [`hero_gpu_sim::trace::chrome_trace`]
    /// schedule visualization.
    ///
    /// # Errors
    ///
    /// As [`HeroSigner::simulate`].
    pub fn simulate_traced(
        &self,
        opts: PipelineOptions,
    ) -> Result<(PipelineReport, Timeline), HeroError> {
        opts.validate()?;
        let messages = opts.messages;
        let batch_size = opts.batch_size;
        let streams = opts.streams;
        let batches = messages.div_ceil(batch_size);

        let reports = self.kernel_reports(batch_size);
        let [fors_us, tree_us, wots_us] =
            [reports[0].time_us, reports[1].time_us, reports[2].time_us];
        let descs = self.kernel_descs(batch_size);
        let sms = |d: &KernelDesc| d.grid_blocks.min(self.device.sm_count);

        let use_graph = match opts.launch {
            LaunchPolicy::Auto => self.config.graph,
            LaunchPolicy::Graph => true,
            LaunchPolicy::Streams => false,
        };

        let mut tl = Timeline::new(self.device.clone());

        if use_graph {
            let mut g = GraphBuilder::new();
            let f = g.kernel("FORS_Sign", fors_us, sms(&descs[0]));
            let t = g.kernel("TREE_Sign", tree_us, sms(&descs[1]));
            let w = g.kernel("WOTS+_Sign", wots_us, sms(&descs[2]));
            g.depends_on(w, f);
            g.depends_on(w, t);
            let exe = g.instantiate(&self.device);
            for b in 0..batches {
                exe.launch(&mut tl, b as usize % streams);
            }
        } else {
            for b in 0..batches {
                let s = tl.stream(b as usize % streams);
                let f = tl.launch(
                    "FORS_Sign",
                    s,
                    fors_us,
                    sms(&descs[0]),
                    LaunchMode::Stream,
                    &[],
                );
                let t = tl.launch(
                    "TREE_Sign",
                    s,
                    tree_us,
                    sms(&descs[1]),
                    LaunchMode::Stream,
                    &[],
                );
                tl.launch(
                    "WOTS+_Sign",
                    s,
                    wots_us,
                    sms(&descs[2]),
                    LaunchMode::Stream,
                    &[f, t],
                );
            }
        }

        let makespan = tl.makespan_us();
        let mut report = PipelineReport {
            makespan_us: makespan,
            kops: messages as f64 / makespan * 1.0e3,
            launch_overhead_us: tl.launch_overhead_total_us(),
            launch_count: tl.launch_count(),
            idle_us: tl.idle_us() + tl.dispatch_idle_total_us(),
            kernel_batch_us: [fors_us, tree_us, wots_us],
            transfers: None,
        };

        if let Some(msg_bytes) = opts.pcie_msg_bytes {
            let per_batch_compute_us = report.makespan_us / batches as f64;
            let h2d = batch_size as u64 * (msg_bytes as u64 + 2 * self.params.n as u64);
            let d2h = batch_size as u64 * self.params.sig_bytes() as u64;
            let transfers = hero_gpu_sim::pcie::pipeline_with_transfers(
                &self.device,
                batches,
                per_batch_compute_us,
                h2d,
                d2h,
            );
            report.makespan_us = transfers.makespan_us;
            report.kops = messages as f64 / transfers.makespan_us * 1.0e3;
            report.transfers = Some(transfers);
        }

        Ok((report, tl))
    }
}

impl Signer for HeroSigner {
    fn params(&self) -> &Params {
        &self.params
    }

    fn backend(&self) -> &'static str {
        "hero-gpu"
    }

    fn sign(&self, sk: &SigningKey, msg: &[u8]) -> Result<Signature, HeroError> {
        HeroSigner::sign(self, sk, msg)
    }

    fn sign_batch(&self, sk: &SigningKey, msgs: &[&[u8]]) -> Result<Vec<Signature>, HeroError> {
        HeroSigner::sign_batch(self, sk, msgs)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(HeroSigner::cache_stats(self))
    }

    fn warm_key(&self, sk: &SigningKey) -> Result<usize, HeroError> {
        HeroSigner::warm_key(self, sk)
    }

    fn verify_batch(
        &self,
        vk: &hero_sphincs::VerifyingKey,
        msgs: &[&[u8]],
        sigs: &[Signature],
    ) -> Result<Vec<crate::VerifyOutcome>, HeroError> {
        HeroSigner::verify_batch(self, vk, msgs, sigs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_gpu_sim::device::rtx_4090;
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

    fn build(device: DeviceProps, params: Params, cfg: OptConfig) -> HeroSigner {
        HeroSigner::builder(device, params)
            .config(cfg)
            .build()
            .unwrap()
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
        let engine = HeroSigner::hero(rtx_4090(), params).unwrap();
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
        let engine = HeroSigner::hero(rtx_4090(), params).unwrap();
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
        let engine = HeroSigner::hero(rtx_4090(), Params::sphincs_128f()).unwrap();
        let err = engine.sign(&sk, b"mismatch").unwrap_err();
        assert!(matches!(err, HeroError::KeyMismatch(_)), "{err}");
    }

    #[test]
    fn adaptive_selection_reproduces_table_v() {
        // Table V on RTX 4090: FORS → PTX everywhere; TREE/WOTS native at
        // 128f/192f, PTX at 256f.
        let d = rtx_4090();
        for p in Params::fast_sets() {
            let engine = HeroSigner::hero(d.clone(), p).unwrap();
            let sel = engine.selection();
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
            let base = HeroSigner::baseline(d.clone(), p)
                .unwrap()
                .kernel_reports(1024);
            let hero = HeroSigner::hero(d.clone(), p).unwrap().kernel_reports(1024);
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
            let engine = build(d.clone(), p, cfg);
            let fors = &engine.kernel_reports(1024)[0];
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
        let hero = HeroSigner::hero(d.clone(), p).unwrap();
        let hero_graph = hero.simulate(pipe(1024, 64, 4)).unwrap();
        // The same engine replayed with per-kernel stream launches.
        let hero_stream = hero
            .simulate(pipe(1024, 64, 4).launch(LaunchPolicy::Streams))
            .unwrap();
        // Two orders of magnitude vs per-message baseline launches.
        let baseline = HeroSigner::baseline(d.clone(), p)
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
        let base = HeroSigner::baseline(d.clone(), p)
            .unwrap()
            .simulate(pipe(1024, 1, 128))
            .unwrap();
        let hero = HeroSigner::hero(d.clone(), p)
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
        // The -s sets run end to end on the engine thanks to the
        // generalized Relax Buffer (extension beyond the paper's -f scope).
        let d = rtx_4090();
        for p in [
            Params::sphincs_128s(),
            Params::sphincs_192s(),
            Params::sphincs_256s(),
        ] {
            let engine = HeroSigner::hero(d.clone(), p).unwrap();
            assert!(matches!(
                engine.fors_layout(),
                fors_sign::ForsLayout::Relax(_)
            ));
            let reports = engine.kernel_reports(256);
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
            let s_pipe = engine.simulate(pipe(512, 256, 4)).unwrap();
            let f_pipe = HeroSigner::hero(d.clone(), f_equiv)
                .unwrap()
                .simulate(pipe(512, 256, 4))
                .unwrap();
            assert!(s_pipe.kops < f_pipe.kops, "{}: -s must be slower", p.name());
        }
    }

    #[test]
    fn engine_signs_with_sha512_keys() {
        use hero_sphincs::hash::HashAlg;
        let mut rng = StdRng::seed_from_u64(64);
        let params = tiny_params();
        let (sk, vk) = hero_sphincs::keygen_with_alg(params, HashAlg::Sha512, &mut rng).unwrap();
        let engine = HeroSigner::hero(rtx_4090(), params).unwrap();
        let sig = engine.sign(&sk, b"sha512 through the kernels").unwrap();
        assert_eq!(sig, sk.sign(b"sha512 through the kernels"));
        vk.verify(b"sha512 through the kernels", &sig).unwrap();
    }

    #[test]
    fn fors_layout_tracks_config() {
        let d = rtx_4090();
        let p = Params::sphincs_128f();
        assert!(matches!(
            HeroSigner::baseline(d.clone(), p).unwrap().fors_layout(),
            fors_sign::ForsLayout::Baseline
        ));
        let mut cfg = OptConfig::baseline();
        cfg.mmtp = true;
        assert!(matches!(
            build(d.clone(), p, cfg).fors_layout(),
            fors_sign::ForsLayout::Mmtp
        ));
        assert!(matches!(
            HeroSigner::hero(d.clone(), p).unwrap().fors_layout(),
            fors_sign::ForsLayout::Fused(_)
        ));
        assert!(matches!(
            HeroSigner::hero(d, Params::sphincs_256f())
                .unwrap()
                .fors_layout(),
            fors_sign::ForsLayout::Relax(_)
        ));
    }

    #[test]
    fn pipeline_options_are_validated() {
        let engine = HeroSigner::hero(rtx_4090(), Params::sphincs_128f()).unwrap();
        for bad in [
            PipelineOptions::new(0),
            PipelineOptions::new(64).batch_size(0),
            PipelineOptions::new(64).streams(0),
            PipelineOptions::new(64).batch_size(65),
        ] {
            let err = engine.simulate(bad).unwrap_err();
            assert!(
                matches!(err, HeroError::InvalidOptions(_)),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn pcie_option_populates_transfers() {
        let engine = HeroSigner::hero(rtx_4090(), Params::sphincs_128f()).unwrap();
        let pure = engine.simulate(pipe(512, 128, 4)).unwrap();
        assert!(pure.transfers.is_none());
        let with_pcie = engine.simulate(pipe(512, 128, 4).pcie_overlap(64)).unwrap();
        let transfers = with_pcie.transfers.expect("transfer breakdown");
        assert!(transfers.makespan_us >= pure.makespan_us);
        assert!(with_pcie.kops <= pure.kops);
    }
}
