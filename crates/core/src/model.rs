//! The GPU pricing model: configuration, tuning, adaptive branch
//! selection, and full-pipeline simulation.
//!
//! This is where everything the paper proposes meets the simulator:
//! [`OptConfig`] switches each optimization on independently (the Fig. 11
//! ablation ladder), [`SimModel::new`] runs the offline Tree Tuning search
//! and the profiling-driven PTX/native selection for one device, and
//! [`SimModel::simulate`] replays multi-batch signing over streams or
//! CUDA-Graph-style task graphs (Fig. 12) under a [`PipelineOptions`]
//! description of the workload.
//!
//! A model prices; it signs nothing, and holds no worker pool and no
//! cache. The signer ([`crate::HeroSigner`]) reads none of it.

use crate::error::HeroError;
use crate::kernels::{fors_sign, tree_sign, wots_sign, KernelConfig};
use crate::ptx::{BranchSelection, KernelKind};
use crate::tuning::{self, TuningOptions, TuningResult};

use hero_gpu_sim::device::DeviceProps;
use hero_gpu_sim::engine::{simulate_kernel, KernelReport};
use hero_gpu_sim::graph::GraphBuilder;
use hero_gpu_sim::isa::Sha2Path;
use hero_gpu_sim::kernel::{KernelDesc, RoDataPlacement};
use hero_gpu_sim::pcie::PipelinedTransfers;
use hero_gpu_sim::stream::{LaunchMode, Timeline};

use hero_sphincs::params::Params;

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
    /// Follow the model's [`OptConfig::graph`] switch.
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
/// // Defaults: batch 512, 4 streams, launch mode follows the model.
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
    /// batches over 4 streams, model-selected launch mode, no PCIe
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
#[derive(Clone, Debug, PartialEq)]
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

/// The HERO-Sign performance model for one (device, parameter set,
/// configuration): Algorithm 1's winner, Table V's row, and the three
/// kernels' simulated timings.
#[derive(Clone, Debug)]
pub struct SimModel {
    device: DeviceProps,
    params: Params,
    config: OptConfig,
    tuning: Option<TuningResult>,
    selection: BranchSelection,
}

impl SimModel {
    /// Runs the Auto Tree Tuning search (when `config.fusion` is on) and
    /// resolves the PTX/native selection for `config.ptx`.
    ///
    /// A failed search is not an error: the model falls back to the
    /// unfused MMTP (or baseline) FORS layout, matching the paper's
    /// treatment of shapes plain fusion cannot serve, and
    /// [`SimModel::tuning`] reads `None`. A caller that must know why
    /// calls [`tuning::tune_auto`] and reads its `Err`.
    ///
    /// # Errors
    ///
    /// [`HeroError::InvalidParams`] when `params` fails validation.
    pub fn new(device: DeviceProps, params: Params, config: OptConfig) -> Result<Self, HeroError> {
        params.validate().map_err(HeroError::InvalidParams)?;
        let tuning = if config.fusion {
            tuning::tune_auto(&device, &params, &TuningOptions::default()).ok()
        } else {
            None
        };
        let mut model = Self {
            device,
            params,
            config,
            tuning,
            selection: BranchSelection::all_native(),
        };
        match config.ptx {
            PtxPolicy::Off => {}
            PtxPolicy::ForceAll => {
                model.selection = BranchSelection {
                    fors: Sha2Path::Ptx,
                    tree: Sha2Path::Ptx,
                    wots: Sha2Path::Ptx,
                }
            }
            // Profiled on the model as built so far: native everywhere.
            PtxPolicy::Adaptive => model.selection = model.profile_branch_selection(),
        }
        Ok(model)
    }

    /// The fully optimized model ([`OptConfig::hero`]).
    ///
    /// # Errors
    ///
    /// As [`SimModel::new`].
    pub fn hero(device: DeviceProps, params: Params) -> Result<Self, HeroError> {
        Self::new(device, params, OptConfig::hero())
    }

    /// The TCAS-SPHINCSp baseline model ([`OptConfig::baseline`]).
    ///
    /// # Errors
    ///
    /// As [`SimModel::new`].
    pub fn baseline(device: DeviceProps, params: Params) -> Result<Self, HeroError> {
        Self::new(device, params, OptConfig::baseline())
    }

    /// The device this model prices.
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

    fn describe(&self, kind: KernelKind, messages: u32, cfg: &KernelConfig) -> KernelDesc {
        let (device, params) = (&self.device, &self.params);
        match kind {
            KernelKind::ForsSign => {
                fors_sign::describe(device, params, messages, &self.fors_layout(), cfg)
            }
            KernelKind::TreeSign => tree_sign::describe(device, params, messages, cfg),
            KernelKind::WotsSign => wots_sign::describe(device, params, messages, cfg),
        }
    }

    /// Analytic descriptors for the three kernels over `messages` messages.
    pub fn kernel_descs(&self, messages: u32) -> [KernelDesc; 3] {
        KernelKind::ALL.map(|kind| self.describe(kind, messages, &self.kernel_config(kind)))
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
                let cfg = KernelConfig {
                    path,
                    ..self.kernel_config(kind)
                };
                let t = simulate_kernel(&self.device, &self.describe(kind, 1024, &cfg)).time_us;
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
    /// streams, launched per the model configuration or the
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

    /// [`SimModel::simulate`], also returning the populated
    /// [`Timeline`] — e.g. for [`hero_gpu_sim::trace::chrome_trace`]
    /// schedule visualization.
    ///
    /// # Errors
    ///
    /// As [`SimModel::simulate`].
    pub fn simulate_traced(
        &self,
        opts: PipelineOptions,
    ) -> Result<(PipelineReport, Timeline), HeroError> {
        opts.validate()?;
        let messages = opts.messages;
        let batch_size = opts.batch_size;
        let streams = opts.streams;
        let batches = messages.div_ceil(batch_size);

        let descs = self.kernel_descs(batch_size);
        let [fors_us, tree_us, wots_us] = descs
            .each_ref()
            .map(|d| simulate_kernel(&self.device, d).time_us);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::TuneError;
    use hero_gpu_sim::device::rtx_4090;

    #[test]
    fn new_rejects_invalid_params() {
        let mut p = Params::sphincs_128f();
        p.log_t = 0;
        let err = SimModel::hero(rtx_4090(), p).unwrap_err();
        assert!(matches!(err, HeroError::InvalidParams(_)), "{err}");
    }

    #[test]
    fn failed_search_falls_back_to_the_unfused_layout() {
        // k = 1 with a tiny tree leaves nothing worth fusing: the search
        // legitimately returns NoCandidate, which whoever must know reads
        // from `tune_auto`; the model prices the MMTP layout instead.
        let mut p = Params::sphincs_128f();
        p.log_t = 1;
        p.k = 1;
        assert_eq!(
            tuning::tune_auto(&rtx_4090(), &p, &TuningOptions::default()).unwrap_err(),
            TuneError::NoCandidate
        );
        let model = SimModel::hero(rtx_4090(), p).unwrap();
        assert!(model.tuning().is_none());
        assert!(matches!(model.fors_layout(), fors_sign::ForsLayout::Mmtp));
        assert_eq!(*model.config(), OptConfig::hero());
        assert!(SimModel::hero(rtx_4090(), Params::sphincs_128f())
            .unwrap()
            .tuning()
            .is_some());
    }
}
