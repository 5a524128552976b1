//! The `FORS_Sign` kernel: functional execution plus analytic descriptor.
//!
//! The paper's central FORS optimizations all live here: multiple-tree
//! parallelization (MMTP, §III-A), `Set` fusion with the OFFSET reuse
//! trick (§III-B2), the Relax-FORS register buffer (§III-B4), and the
//! bank-padding applied to the tree reduction (§III-E).

use crate::kernels::{calib, KernelConfig};
use crate::ptx::{self, KernelKind};
use crate::tuning::FusionCandidate;
use crate::workload;

use hero_gpu_sim::banks::{AccessStats, PaddingScheme, SharedMem};
use hero_gpu_sim::device::DeviceProps;
use hero_gpu_sim::isa::InstrClass;
use hero_gpu_sim::kernel::{KernelDesc, RoDataPlacement};
use hero_gpu_sim::occupancy::BlockResources;

use hero_sphincs::fors::{ForsTreeRequest, ForsTreeSig};
use hero_sphincs::hash::HashCtx;
use hero_sphincs::params::Params;

/// How FORS trees are mapped onto thread blocks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ForsLayout {
    /// TCAS-SPHINCSp: one tree's leaves in flight at a time; the k trees
    /// serialize within the block.
    Baseline,
    /// Multiple Merkle trees in parallel, as many as fit a 1024-thread
    /// block, but `Set`s still serialize on shared memory (Fig. 3, left).
    Mmtp,
    /// Fused `Set`s from the Auto Tree Tuning search (Fig. 3, right).
    Fused(FusionCandidate),
    /// Fused layout with the Relax buffer: one thread produces two leaves
    /// into registers, halving bottom-layer shared memory (Fig. 4).
    Relax(FusionCandidate),
}

/// Resolved block geometry for a layout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForsGeometry {
    /// Threads per block.
    pub block_threads: u32,
    /// Trees materialized concurrently per block.
    pub concurrent_trees: u32,
    /// Sequential `Set` rounds per block (`ceil(k / concurrent)`).
    pub rounds: u32,
    /// Shared memory per block (bytes), before padding.
    pub smem_bytes: u32,
    /// Leaves generated per thread in the bottom phase (2 under Relax).
    pub leaves_per_thread: u32,
}

impl ForsLayout {
    /// Resolves the layout's geometry for `params`.
    pub fn geometry(&self, params: &Params) -> ForsGeometry {
        let t = params.t() as u32;
        let n = params.n as u32;
        let k = params.k as u32;
        match *self {
            ForsLayout::Baseline => ForsGeometry {
                block_threads: 1024,
                concurrent_trees: 1,
                rounds: k,
                smem_bytes: t * n,
                leaves_per_thread: 1,
            },
            ForsLayout::Mmtp => {
                let concurrent = (1024 / t).clamp(1, k);
                ForsGeometry {
                    block_threads: concurrent * t,
                    concurrent_trees: concurrent,
                    rounds: k.div_ceil(concurrent),
                    smem_bytes: concurrent * t * n,
                    leaves_per_thread: 1,
                }
            }
            ForsLayout::Fused(c) => ForsGeometry {
                block_threads: c.block_threads(),
                concurrent_trees: c.concurrent_trees(),
                rounds: k.div_ceil(c.concurrent_trees()),
                smem_bytes: c.smem_bytes,
                leaves_per_thread: 1,
            },
            ForsLayout::Relax(c) => ForsGeometry {
                block_threads: c.block_threads(),
                concurrent_trees: c.concurrent_trees(),
                rounds: k.div_ceil(c.concurrent_trees()),
                smem_bytes: c.smem_bytes,
                leaves_per_thread: 1 << c.relax_depth.max(1),
            },
        }
    }
}

/// Replays one `Set` round's tree reduction through the shared-memory
/// bank model, returning (load, store) statistics.
///
/// Layout mirrors Fig. 7: leaves occupy slots `[0, C·t)`; each level's
/// parents are stored above the previous level; thread `i` of a level
/// loads children `2i, 2i+1` (issued as an even and an odd warp phase)
/// and stores one parent.
pub fn measure_reduction(
    params: &Params,
    geometry: &ForsGeometry,
    padding: PaddingScheme,
) -> (AccessStats, AccessStats) {
    let mut sm = SharedMem::new(padding, params.n);
    let leaves = (geometry.concurrent_trees * params.t() as u32) as usize;
    // Levels 1..=depth reduce inside the register Relax Buffer: no
    // shared-memory traffic until a thread stores its level-`depth` node.
    let depth = geometry.leaves_per_thread.trailing_zeros() as usize;

    // Leaf phase: every leaf is stored once — unless Relax buffers the
    // bottom layer(s) in registers and stores level-`depth` nodes
    // directly.
    if depth == 0 {
        for warp_start in (0..leaves).step_by(32) {
            let slots: Vec<usize> = (warp_start..(warp_start + 32).min(leaves)).collect();
            sm.warp_store(&slots);
        }
    }

    let mut level_base = 0usize;
    let mut level_len = leaves;
    let mut level = 0usize;
    while level_len > 1 {
        level += 1;
        let parents = level_len / 2;
        let parent_base = level_base + level_len;
        let in_register_buffer = level < depth;
        if in_register_buffer {
            // Fully register-resident level: no smem traffic at all.
            level_base = parent_base;
            level_len = parents;
            continue;
        }
        if level > depth {
            // Loads of the two children per parent thread.
            for warp_start in (0..parents).step_by(32) {
                let end = (warp_start + 32).min(parents);
                let even: Vec<usize> = (warp_start..end).map(|i| level_base + 2 * i).collect();
                let odd: Vec<usize> = (warp_start..end).map(|i| level_base + 2 * i + 1).collect();
                sm.warp_load(&even);
                sm.warp_load(&odd);
            }
        }
        // Stores of the parents.
        for warp_start in (0..parents).step_by(32) {
            let end = (warp_start + 32).min(parents);
            let slots: Vec<usize> = (warp_start..end).map(|i| parent_base + i).collect();
            sm.warp_store(&slots);
        }
        level_base = parent_base;
        level_len = parents;
    }

    (sm.load_stats(), sm.store_stats())
}

/// Builds the analytic kernel descriptor for signing `messages` messages.
pub fn describe(
    device: &DeviceProps,
    params: &Params,
    messages: u32,
    layout: &ForsLayout,
    config: &KernelConfig,
) -> KernelDesc {
    let geometry = layout.geometry(params);
    let padding = if config.padding {
        PaddingScheme::for_width(params.n)
    } else {
        PaddingScheme::none()
    };

    // Real kernels must be resident: past the register file the compiler
    // spills (what `__launch_bounds__` forces), so cap the footprint.
    let regs = ptx::regs_per_thread(KernelKind::ForsSign, params, config.path)
        .min(device.registers_per_sm / geometry.block_threads);
    // Padding may push a budget-exact fusion past the device's opt-in
    // limit (e.g. Pascal has no dynamic smem above 48 KiB); real code
    // would shave one pad region, so clamp.
    let smem = (padding.padded_len(geometry.smem_bytes as usize) as u32)
        .min(device.smem_dynamic_max_per_block);
    let block = BlockResources {
        threads: geometry.block_threads,
        regs_per_thread: regs,
        smem_bytes: smem,
    };

    let mut desc = KernelDesc::empty("FORS_Sign", messages, block);
    desc.ipc_factor = calib::FORS_IPC;

    // Active-thread fraction: leaf-phase activity × block fill across
    // rounds (the last round is usually partial).
    let fill = params.k as f64 / (geometry.rounds as f64 * geometry.concurrent_trees as f64);
    desc.active_thread_fraction = match layout {
        ForsLayout::Baseline => calib::BASELINE_FORS_ACTIVE,
        _ => calib::FUSED_LEAF_ACTIVE * fill,
    };

    // Instruction total: every compression of every message.
    let compressions = workload::fors_sign_compressions(params) * messages as u64;
    desc.instr_total =
        ptx::compression_mix(KernelKind::ForsSign, params, config.path).scaled(compressions);

    // Critical path: sequential Set rounds, each a serial leaf phase
    // (2^depth leaves + the register-local sub-reduction) plus the shared
    // reduction levels; cross-round pipelining hides most of it.
    let h = workload::h_compressions(params);
    let lpt = geometry.leaves_per_thread as u64;
    let depth = geometry.leaves_per_thread.trailing_zeros() as u64;
    let serial_per_round = 2 * lpt + (lpt - 1) * h + (params.log_t as u64 - depth) * h;
    let exposed = (geometry.rounds as u64 * serial_per_round) as f64 * calib::ROUND_OVERLAP_EXPOSED;
    desc.critical_path = ptx::compression_mix(KernelKind::ForsSign, params, config.path)
        .scaled(exposed.ceil() as u64);

    // Shared-memory traffic: measured reduction pattern × rounds × msgs.
    let (loads, stores) = measure_reduction(params, &geometry, padding);
    let per_round = loads.transactions + stores.transactions;
    let conflicts_per_round = loads.conflicts + stores.conflicts;
    desc.smem_transactions = per_round * geometry.rounds as u64 * messages as u64;
    desc.smem_conflicts = conflicts_per_round * geometry.rounds as u64 * messages as u64;

    // Barriers: one per reduction level per round, plus the leaf barrier.
    desc.syncs_per_block = geometry.rounds as u64 * (params.log_t as u64 + 1);

    // Memory placement of seeds / initial state (§III-D).
    desc.ro_placement = config.placement;
    match config.placement {
        RoDataPlacement::Constant => {
            desc.cmem_reads = compressions * 2;
            desc.gmem_bytes = params.fors_sig_bytes() as u64 * messages as u64;
        }
        _ => {
            desc.gmem_bytes = compressions * calib::SEED_BYTES_PER_HASH
                + params.fors_sig_bytes() as u64 * messages as u64;
        }
    }
    desc.instr_total
        .add_count(InstrClass::Lds, desc.smem_transactions / 2);
    desc.instr_total
        .add_count(InstrClass::Sts, desc.smem_transactions / 2);

    desc
}

/// The functional face, straight from the substrate: the per-message
/// work-item list ([`tree_requests`], one request per tree), one
/// plannable stage ([`sign_trees`]) and the final `T_k`
/// ([`roots_to_pk`]).
pub use hero_sphincs::fors::{roots_to_pk, tree_requests};

/// [`hero_sphincs::fors::tree_hash_many`] in the shape the repository
/// benchmark's stage replay imports: a group of trees from any mix of
/// messages, each tree's revealed secret and authentication path paired
/// with its root in a `Vec` of its own. The planner and
/// `SigningKey::sign` take the roots in one `n`-stride buffer instead.
/// This adapter goes with ROADMAP items 2-A and 15a, once the replay
/// calls the `hero_sphincs` stage functions itself.
pub fn sign_trees(
    ctx: &HashCtx,
    sk_seed: &[u8],
    reqs: &[ForsTreeRequest],
) -> Vec<(ForsTreeSig, Vec<u8>)> {
    let n = ctx.params().n;
    let mut roots = vec![0u8; reqs.len() * n];
    let sigs = hero_sphincs::fors::tree_hash_many(ctx, sk_seed, reqs, &mut roots);
    sigs.into_iter()
        .zip(roots.chunks_exact(n))
        .map(|(sig, root)| (sig, root.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::{tune, tune_auto, TuningOptions};
    use hero_gpu_sim::device::rtx_4090;
    use hero_gpu_sim::engine::simulate_kernel;
    use hero_gpu_sim::isa::Sha2Path;
    use hero_sphincs::address::AddressType;

    fn fused_layout(params: &Params) -> ForsLayout {
        let r = tune_auto(&rtx_4090(), params, &TuningOptions::default()).unwrap();
        if r.best.block_threads() < params.t() as u32 || params.n == 32 {
            ForsLayout::Relax(r.best)
        } else {
            ForsLayout::Fused(r.best)
        }
    }

    #[test]
    fn geometry_sanity() {
        let p = Params::sphincs_128f();
        let base = ForsLayout::Baseline.geometry(&p);
        assert_eq!(base.rounds, 33);
        let mmtp = ForsLayout::Mmtp.geometry(&p);
        assert_eq!(mmtp.concurrent_trees, 16);
        assert_eq!(mmtp.rounds, 3);
        let fused = fused_layout(&p).geometry(&p);
        assert_eq!(fused.concurrent_trees, 33);
        assert_eq!(fused.rounds, 1);
    }

    #[test]
    fn padding_eliminates_measured_conflicts() {
        for p in Params::fast_sets() {
            let geom = ForsLayout::Mmtp.geometry(&p);
            let (l0, s0) = measure_reduction(&p, &geom, PaddingScheme::none());
            let (l1, s1) = measure_reduction(&p, &geom, PaddingScheme::for_width(p.n));
            assert!(
                l0.conflicts + s0.conflicts > 0,
                "{}: baseline must conflict",
                p.name()
            );
            assert!(
                l1.conflicts + s1.conflicts <= (l0.conflicts + s0.conflicts) / 10,
                "{}: padding must (near-)eliminate conflicts: {} -> {}",
                p.name(),
                l0.conflicts + s0.conflicts,
                l1.conflicts + s1.conflicts
            );
        }
    }

    #[test]
    fn fusion_speeds_up_fors() {
        // The Fig. 11 ladder must be monotone: baseline < mmtp < fused.
        let d = rtx_4090();
        let p = Params::sphincs_128f();
        let cfg = KernelConfig::baseline();
        let t_base =
            simulate_kernel(&d, &describe(&d, &p, 1024, &ForsLayout::Baseline, &cfg)).time_us;
        let t_mmtp = simulate_kernel(&d, &describe(&d, &p, 1024, &ForsLayout::Mmtp, &cfg)).time_us;
        let fused = fused_layout(&p);
        let t_fused = simulate_kernel(&d, &describe(&d, &p, 1024, &fused, &cfg)).time_us;
        assert!(t_mmtp < t_base, "mmtp {t_mmtp} vs baseline {t_base}");
        assert!(t_fused <= t_mmtp * 1.02, "fused {t_fused} vs mmtp {t_mmtp}");
    }

    #[test]
    fn hero_config_beats_baseline_config() {
        let d = rtx_4090();
        for p in Params::fast_sets() {
            let fused = fused_layout(&p);
            let base = simulate_kernel(
                &d,
                &describe(
                    &d,
                    &p,
                    1024,
                    &ForsLayout::Baseline,
                    &KernelConfig::baseline(),
                ),
            )
            .time_us;
            let hero = simulate_kernel(
                &d,
                &describe(&d, &p, 1024, &fused, &KernelConfig::hero(Sha2Path::Ptx)),
            )
            .time_us;
            let speedup = base / hero;
            assert!(
                speedup > 1.25 && speedup < 4.0,
                "{}: speedup {speedup}",
                p.name()
            );
        }
    }

    #[test]
    fn functional_output_matches_reference() {
        use hero_sphincs::address::Address;
        use hero_sphincs::hash::HashCtx;
        use hero_sphincs::{fors, reference};
        let params = {
            let mut p = Params::sphincs_128f();
            p.k = 8;
            p.log_t = 4;
            p
        };
        let ctx = HashCtx::new(params, &[3u8; 16]);
        let sk_seed = vec![9u8; 16];
        let mut adrs = Address::new();
        adrs.set_tree(77);
        adrs.set_type(AddressType::ForsTree);
        adrs.set_keypair(5);
        let md = vec![0xB4u8; 4];

        let trees = sign_trees(&ctx, &sk_seed, &tree_requests(&params, &md, &adrs));
        let roots_flat: Vec<u8> = trees.iter().flat_map(|(_, root)| root.clone()).collect();
        let pk = roots_to_pk(&ctx, &adrs, &roots_flat);
        let sig = fors::ForsSignature {
            trees: trees.into_iter().map(|(sig, _)| sig).collect(),
        };
        assert_eq!((sig, pk), reference::fors_sign(&ctx, &md, &sk_seed, &adrs));
    }

    #[test]
    fn relax_skips_bottom_layer_stores() {
        let p = Params::sphincs_256f();
        let r = crate::tuning::tune_relax(&rtx_4090(), &p, &TuningOptions::default()).unwrap();
        let relax_geom = ForsLayout::Relax(r.best).geometry(&p);
        let plain = tune(&rtx_4090(), &p, &TuningOptions::default()).unwrap();
        let plain_geom = ForsLayout::Fused(plain.best).geometry(&p);
        let (rl, rs) = measure_reduction(&p, &relax_geom, PaddingScheme::none());
        let (_, ps) = measure_reduction(&p, &plain_geom, PaddingScheme::none());
        // Per concurrent tree, relax performs fewer stores (no leaf layer).
        let relax_stores_per_tree = rs.transactions / relax_geom.concurrent_trees as u64;
        let plain_stores_per_tree = ps.transactions / plain_geom.concurrent_trees as u64;
        assert!(relax_stores_per_tree < plain_stores_per_tree);
        assert!(rl.transactions > 0);
    }

    #[test]
    fn descriptor_is_launchable() {
        let d = rtx_4090();
        for p in Params::fast_sets() {
            let fused = fused_layout(&p);
            for cfg in [KernelConfig::baseline(), KernelConfig::hero(Sha2Path::Ptx)] {
                let desc = describe(&d, &p, 256, &fused, &cfg);
                let occ = hero_gpu_sim::occupancy::occupancy(&d, &desc.block);
                assert!(
                    occ.blocks_per_sm >= 1,
                    "{} {:?}: not resident ({:?})",
                    p.name(),
                    cfg.path,
                    desc.block
                );
            }
        }
    }
}
