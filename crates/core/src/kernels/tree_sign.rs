//! The `TREE_Sign` kernel: hypertree (MSS) Merkle roots and
//! authentication paths for all `d` layers.
//!
//! One thread builds one WOTS+ leaf (`wots_gen_leaf`, the register-hungry
//! routine of Table III); the block then tree-reduces each subtree in
//! shared memory. All `d` subtrees are independent because every layer's
//! `(tree, leaf)` coordinates derive from the message digest alone
//! (Fig. 2), which is what lets HERO-Sign launch them together (§III-A).

use crate::kernels::{calib, KernelConfig};
use crate::ptx::{self, KernelKind};
use crate::workload;

use hero_gpu_sim::banks::{AccessStats, PaddingScheme, SharedMem};
use hero_gpu_sim::device::DeviceProps;
use hero_gpu_sim::isa::InstrClass;
use hero_gpu_sim::kernel::{KernelDesc, RoDataPlacement};
use hero_gpu_sim::occupancy::BlockResources;

use hero_sphincs::params::Params;

/// The functional face, straight from the substrate: the per-message
/// work-item list ([`subtree_items`], one subtree per layer, which the
/// batch planner concatenates across messages and cuts into stages) and
/// one plannable stage ([`subtrees`]: a group of subtrees from any mix
/// of layers and messages, each sliced at its own leaf into a
/// [`LayerTree`], its root and authentication path).
pub use hero_sphincs::hypertree::{subtree_items, tree_sign as subtrees, SubtreeItem};
pub use hero_sphincs::merkle::TreeHashOutput as LayerTree;

/// Effective registers per thread after optional `__launch_bounds__`
/// capping.
pub fn effective_regs(params: &Params, config: &KernelConfig) -> u32 {
    let regs = ptx::regs_per_thread(KernelKind::TreeSign, params, config.path);
    if config.launch_bounds {
        regs.min(calib::TREE_LAUNCH_BOUNDS_REGS)
    } else {
        regs
    }
}

/// Replays the subtree reductions through the bank model: `d` subtrees of
/// `2^h'` leaves reduce side by side in one block's shared memory.
pub fn measure_reduction(params: &Params, padding: PaddingScheme) -> (AccessStats, AccessStats) {
    let mut sm = SharedMem::new(padding, params.n);
    let leaves_per_tree = params.subtree_leaves();
    let total = params.d * leaves_per_tree;

    // Leaf stores.
    for warp_start in (0..total).step_by(32) {
        let slots: Vec<usize> = (warp_start..(warp_start + 32).min(total)).collect();
        sm.warp_store(&slots);
    }
    // Reduction levels across all subtrees at once (each subtree owns a
    // contiguous slot range; parents are packed above the level).
    let mut level_base = 0usize;
    let mut per_tree = leaves_per_tree;
    while per_tree > 1 {
        let parents_per_tree = per_tree / 2;
        let total_parents = params.d * parents_per_tree;
        let parent_base = level_base + params.d * per_tree;
        for warp_start in (0..total_parents).step_by(32) {
            let end = (warp_start + 32).min(total_parents);
            let to_child = |i: usize, off: usize| {
                let tree = i / parents_per_tree;
                let within = i % parents_per_tree;
                level_base + tree * per_tree + 2 * within + off
            };
            let even: Vec<usize> = (warp_start..end).map(|i| to_child(i, 0)).collect();
            let odd: Vec<usize> = (warp_start..end).map(|i| to_child(i, 1)).collect();
            sm.warp_load(&even);
            sm.warp_load(&odd);
            let parents: Vec<usize> = (warp_start..end)
                .map(|i| {
                    parent_base + (i / parents_per_tree) * parents_per_tree + i % parents_per_tree
                })
                .collect();
            sm.warp_store(&parents);
        }
        level_base = parent_base;
        per_tree = parents_per_tree;
    }

    (sm.load_stats(), sm.store_stats())
}

/// Builds the analytic kernel descriptor for `messages` messages.
///
/// Block geometry: one block per message, one thread per hypertree leaf
/// (176/176/272 threads, §III-B1).
pub fn describe(
    device: &DeviceProps,
    params: &Params,
    messages: u32,
    config: &KernelConfig,
) -> KernelDesc {
    let padding = if config.padding {
        PaddingScheme::for_width(params.n)
    } else {
        PaddingScheme::none()
    };
    let threads = params.hypertree_total_leaves() as u32;
    let smem = (padding.padded_len(threads as usize * params.n) as u32)
        .min(device.smem_dynamic_max_per_block);
    let block = BlockResources {
        threads,
        regs_per_thread: effective_regs(params, config),
        smem_bytes: smem,
    };

    let mut desc = KernelDesc::empty("TREE_Sign", messages, block);
    desc.ipc_factor = calib::TREE_IPC;
    desc.active_thread_fraction = calib::TREE_ACTIVE;

    let compressions = workload::tree_sign_compressions(params) * messages as u64;
    desc.instr_total =
        ptx::compression_mix(KernelKind::TreeSign, params, config.path).scaled(compressions);

    // Critical path: one wots_gen_leaf plus the reduction tail.
    desc.critical_path = ptx::compression_mix(KernelKind::TreeSign, params, config.path)
        .scaled(workload::tree_sign_critical_compressions(params));

    let (loads, stores) = measure_reduction(params, padding);
    desc.smem_transactions = (loads.transactions + stores.transactions) * messages as u64;
    desc.smem_conflicts = (loads.conflicts + stores.conflicts) * messages as u64;
    desc.syncs_per_block = params.tree_height() as u64 + 1;

    desc.ro_placement = config.placement;
    let output_bytes =
        (params.d * (params.wots_sig_bytes() + params.tree_height() * params.n)) as u64;
    match config.placement {
        RoDataPlacement::Constant | RoDataPlacement::GlobalVectorized => {
            // §III-D: for TREE_Sign memory access is infrequent; HERO
            // keeps read-only data in global memory with vectorized
            // loads for 192f, constant memory otherwise. Either way the
            // per-hash scalar traffic disappears.
            desc.cmem_reads = compressions / 8;
            desc.gmem_bytes = output_bytes * messages as u64;
        }
        RoDataPlacement::Global => {
            desc.gmem_bytes =
                compressions * calib::SEED_BYTES_PER_HASH / 8 + output_bytes * messages as u64;
        }
    }
    desc.instr_total
        .add_count(InstrClass::Lds, desc.smem_transactions / 2);
    desc.instr_total
        .add_count(InstrClass::Sts, desc.smem_transactions / 2);

    desc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_gpu_sim::device::rtx_4090;
    use hero_gpu_sim::engine::simulate_kernel;
    use hero_gpu_sim::isa::Sha2Path;
    use hero_sphincs::hash::HashCtx;
    use hero_sphincs::hypertree;
    use hero_sphincs::reference;

    #[test]
    fn block_geometry_matches_paper_occupancies() {
        // §III-B1/Table III decoding: 176 threads @128 regs → 2 blocks →
        // 12 warps of 48 = 25%; 256f: 272 @168 → 1 block → 9 warps = 18.75%
        // ≈ the paper's 19%, and PTX (95 regs) doubles it to 37.5%.
        let d = rtx_4090();
        let p128 = Params::sphincs_128f();
        let base = describe(&d, &p128, 1024, &KernelConfig::baseline());
        let occ = hero_gpu_sim::occupancy::occupancy(&d, &base.block);
        assert!((occ.ratio - 0.25).abs() < 1e-9, "{occ:?}");

        let p256 = Params::sphincs_256f();
        let native = describe(&d, &p256, 1024, &KernelConfig::baseline());
        let occ_n = hero_gpu_sim::occupancy::occupancy(&d, &native.block);
        assert!((occ_n.ratio - 0.1875).abs() < 1e-9, "{occ_n:?}");

        let mut hero_cfg = KernelConfig::hero(Sha2Path::Ptx);
        hero_cfg.launch_bounds = false;
        let ptx = describe(&d, &p256, 1024, &hero_cfg);
        let occ_p = hero_gpu_sim::occupancy::occupancy(&d, &ptx.block);
        assert!((occ_p.ratio - 0.375).abs() < 1e-9, "{occ_p:?}");
        assert!((occ_p.ratio / occ_n.ratio - 2.0).abs() < 1e-9); // ≈ paper's 1.97×
    }

    #[test]
    fn hero_beats_baseline_moderately() {
        // Table VIII: TREE_Sign speedups are the smallest (1.06–1.26×) —
        // the kernel is compute-bound with little idle to recover.
        let d = rtx_4090();
        for p in Params::fast_sets() {
            let path = if p.n == 32 {
                Sha2Path::Ptx
            } else {
                Sha2Path::Native
            };
            let base =
                simulate_kernel(&d, &describe(&d, &p, 1024, &KernelConfig::baseline())).time_us;
            let hero =
                simulate_kernel(&d, &describe(&d, &p, 1024, &KernelConfig::hero(path))).time_us;
            let speedup = base / hero;
            assert!(speedup > 1.0 && speedup < 1.9, "{}: {speedup}", p.name());
        }
    }

    fn tiny_ctx() -> (Params, HashCtx, Vec<u8>) {
        let mut params = Params::sphincs_128f();
        params.h = 6;
        params.d = 3;
        (params, HashCtx::new(params, &[8u8; 16]), vec![2u8; 16])
    }

    /// What an item's [`LayerTree`] must be: the reference's tree hash
    /// over the reference's WOTS+ leaves.
    fn scalar_layer_tree(ctx: &HashCtx, sk_seed: &[u8], item: &SubtreeItem) -> LayerTree {
        use hero_sphincs::address::{Address, AddressType};
        use hero_sphincs::reference;
        let mut adrs = Address::new();
        adrs.set_layer(item.layer);
        adrs.set_tree(item.tree_idx);
        adrs.set_type(AddressType::Tree);
        let height = ctx.params().tree_height();
        let (root, auth_path) = reference::treehash(ctx, height, item.leaf_idx, &adrs, 0, |leaf| {
            let mut adrs = adrs;
            adrs.set_type(AddressType::WotsHash);
            adrs.set_keypair(leaf);
            reference::wots_pk_gen(ctx, sk_seed, &adrs)
        });
        LayerTree { root, auth_path }
    }

    #[test]
    fn functional_output_matches_reference() {
        let (params, ctx, sk_seed) = tiny_ctx();
        let items = subtree_items(&params, 0b10_01, 2);
        let layers = subtrees(&ctx, &sk_seed, &items);
        assert_eq!(layers.len(), 3);

        // Each layer against the reference's tree, and that against the
        // reference's signature over the layer below and its climb.
        let mut root = vec![0xAAu8; 16];
        for (layer, (lt, item)) in layers.iter().zip(&items).enumerate() {
            let (tree, leaf) = (item.tree_idx, item.leaf_idx);
            assert_eq!(item.layer, layer as u32);
            assert_eq!(lt, &scalar_layer_tree(&ctx, &sk_seed, item));
            let (sig, tree_root) =
                reference::xmss_sign(&ctx, &root, &sk_seed, layer as u32, tree, leaf);
            assert_eq!(sig.auth_path, lt.auth_path);
            assert_eq!(
                reference::xmss_pk_from_sig(&ctx, &sig, &root, layer as u32, tree, leaf),
                lt.root
            );
            root = tree_root;
        }
    }

    #[test]
    fn retained_subtree_levels_slice_byte_identically() {
        let (params, ctx, sk_seed) = tiny_ctx();
        let items = subtree_items(&params, 0b10_01, 2);
        let retained = hypertree::subtrees(&ctx, &sk_seed, &items);
        assert_eq!(retained.len(), items.len());
        for (j, item) in items.iter().enumerate() {
            // The retained nodes serve every leaf of each tree, whichever
            // leaf the item that built it asked for.
            for leaf_idx in 0..params.subtree_leaves() as u32 {
                let other = SubtreeItem { leaf_idx, ..*item };
                let expected = scalar_layer_tree(&ctx, &sk_seed, &other);
                assert_eq!(retained.output_for(j, leaf_idx), expected);
                assert_eq!(subtrees(&ctx, &sk_seed, &[other]), [expected]);
            }
        }
    }

    #[test]
    fn padding_reduces_tree_conflicts() {
        for p in Params::fast_sets() {
            let (l0, s0) = measure_reduction(&p, PaddingScheme::none());
            let (l1, s1) = measure_reduction(&p, PaddingScheme::for_width(p.n));
            assert!(l1.conflicts + s1.conflicts <= l0.conflicts + s0.conflicts);
            // Table VI: TREE_Sign conflicts are orders of magnitude below
            // FORS_Sign's (hundreds vs tens of thousands per run).
            let fors_geom = super::super::fors_sign::ForsLayout::Mmtp.geometry(&p);
            let (fl, fs) =
                super::super::fors_sign::measure_reduction(&p, &fors_geom, PaddingScheme::none());
            let k = p.k as u64;
            assert!(
                (l0.conflicts + s0.conflicts) < (fl.conflicts + fs.conflicts) * k,
                "{}",
                p.name()
            );
        }
    }
}
