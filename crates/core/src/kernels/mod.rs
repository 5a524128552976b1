//! The three HERO-Sign component kernels.
//!
//! Each kernel has two faces:
//!
//! * a **functional** face, the stage functions of
//!   [`hero_sphincs::sign::Stages`] re-exported under the kernel's name
//!   ([`fors_sign::sign_trees`] + [`fors_sign::roots_to_pk`],
//!   [`tree_sign::subtrees`], [`wots_sign::sign_chain_groups`]) — the
//!   cross-message batch planner ([`crate::plan`]) schedules the same
//!   functions as DAG nodes, one stage carrying work from several
//!   messages — and
//! * an **analytic** face (`describe`) that emits a
//!   [`hero_gpu_sim::KernelDesc`] for the timing engine, with
//!   bank-conflict counts *measured* by replaying the kernel's shared-
//!   memory access pattern through the bank model.

pub mod fors_sign;
pub mod tree_sign;
pub mod verify;
pub mod wots_sign;

use hero_gpu_sim::isa::Sha2Path;
use hero_gpu_sim::kernel::RoDataPlacement;

/// Per-kernel code-generation/config options (the levers of §III-C/D/E).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelConfig {
    /// SHA-2 code path (native or PTX).
    pub path: Sha2Path,
    /// Read-only data placement (§III-D Hybrid Memory).
    pub placement: RoDataPlacement,
    /// Bank-conflict padding enabled (§III-E FreeBank).
    pub padding: bool,
    /// `__launch_bounds__` register capping (§III-A / §IV-D: "idle time is
    /// largely mitigated through constraining register allocation").
    pub launch_bounds: bool,
    /// Division/modulo index math rewritten to shifts and masks
    /// (§IV-D: the WOTS+ compute-throughput reduction).
    pub index_shift_rewrite: bool,
}

impl KernelConfig {
    /// The baseline (TCAS-SPHINCSp) configuration.
    pub const fn baseline() -> Self {
        Self {
            path: Sha2Path::Native,
            placement: RoDataPlacement::Global,
            padding: false,
            launch_bounds: false,
            index_shift_rewrite: false,
        }
    }

    /// Fully optimized HERO-Sign configuration with `path` chosen by the
    /// adaptive selection.
    pub const fn hero(path: Sha2Path) -> Self {
        Self {
            path,
            placement: RoDataPlacement::Constant,
            padding: true,
            launch_bounds: true,
            index_shift_rewrite: true,
        }
    }
}

/// Calibration constants specific to the SPHINCS+ kernels (the GPU-wide
/// constants live in `hero_gpu_sim::engine::calib`). Values are fixed
/// against the paper's RTX 4090 measurements and then held for every
/// other architecture and experiment.
pub mod calib {
    /// Pipeline-efficiency factor of `FORS_Sign` (smem-coupled tree
    /// reduction — the reference dataflow the engine's `ETA_IPC` is
    /// anchored on).
    pub const FORS_IPC: f64 = 1.0;

    /// `TREE_Sign`: long independent WOTS+ chains per thread dual-issue
    /// far better than the reduction dataflow (ratio of the two kernels'
    /// per-compression rates in Table VIII).
    pub const TREE_IPC: f64 = 2.5;

    /// `WOTS+_Sign`: short fully independent chains, no shared memory in
    /// the inner loop at all.
    pub const WOTS_IPC: f64 = 3.5;

    /// Fraction of a sequential `Set` round's serial latency that remains
    /// exposed after cross-round pipelining (leaf PRF of round `i+1`
    /// overlaps the reduction tail of round `i`).
    pub const ROUND_OVERLAP_EXPOSED: f64 = 0.50;

    /// Average active-thread fraction of the baseline single-subtree FORS
    /// kernel (yields the ~27% achieved occupancy of Table VIII).
    pub const BASELINE_FORS_ACTIVE: f64 = 0.40;

    /// Active fraction of a fused FORS block (leaf phase dominates; the
    /// reduction tail idles half the threads per level).
    pub const FUSED_LEAF_ACTIVE: f64 = 0.75;

    /// Active fraction of `TREE_Sign` (uniform-length chains, minimal
    /// divergence).
    pub const TREE_ACTIVE: f64 = 0.95;

    /// Active fraction of `WOTS+_Sign` (message-dependent chain lengths
    /// diverge within warps).
    pub const WOTS_ACTIVE: f64 = 0.80;

    /// Extra ALU per compression for the baseline's division/modulo index
    /// arithmetic (emulated integer division on GPU).
    pub const DIVMOD_ALU: u64 = 500;

    /// Same index math after the shift/mask rewrite.
    pub const SHIFT_ALU: u64 = 24;

    /// Read-only seed/state bytes fetched per compression when seeds live
    /// in global memory (baseline; §III-D moves these to constant memory).
    pub const SEED_BYTES_PER_HASH: u64 = 48;

    /// Register cap applied by `__launch_bounds__` on `TREE_Sign`.
    pub const TREE_LAUNCH_BOUNDS_REGS: u32 = 104;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_and_hero_configs_differ_everywhere() {
        let b = KernelConfig::baseline();
        let h = KernelConfig::hero(Sha2Path::Ptx);
        assert_ne!(b.path, h.path);
        assert_ne!(b.placement, h.placement);
        assert!(!b.padding && h.padding);
        assert!(!b.launch_bounds && h.launch_bounds);
        assert!(!b.index_shift_rewrite && h.index_shift_rewrite);
    }
}
