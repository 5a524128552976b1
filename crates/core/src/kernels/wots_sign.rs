//! The `WOTS+_Sign` kernel: one-time signatures for every hypertree layer.
//!
//! Launched once the FORS and subtree roots exist (the only cross-kernel
//! dependency in the task graph, §III-F). Chains are fully independent —
//! one thread per chain, `d · len` chains per message. The baseline's
//! expensive division/modulo index arithmetic is rewritten into shifts
//! and masks (§IV-D), which is where most of its 2× speedup comes from.

use crate::kernels::{calib, KernelConfig};
use crate::ptx::{self, KernelKind};
use crate::workload;

use hero_gpu_sim::device::DeviceProps;
use hero_gpu_sim::isa::InstrClass;
use hero_gpu_sim::kernel::{KernelDesc, RoDataPlacement};
use hero_gpu_sim::occupancy::BlockResources;

use hero_sphincs::params::Params;

/// Block geometry: one thread per WOTS+ chain, all layers of one message
/// in one block where they fit (`d · len` threads), else split.
pub fn block_threads(params: &Params) -> u32 {
    let chains = (params.d * params.wots_len()) as u32;
    if chains <= 1024 {
        chains
    } else {
        chains.div_ceil(2)
    }
}

/// Blocks per message (1 or 2 depending on chain count).
pub fn blocks_per_message(params: &Params) -> u32 {
    ((params.d * params.wots_len()) as u32).div_ceil(block_threads(params))
}

/// Builds the analytic kernel descriptor for `messages` messages.
pub fn describe(
    device: &DeviceProps,
    params: &Params,
    messages: u32,
    config: &KernelConfig,
) -> KernelDesc {
    let threads = block_threads(params);
    let mut regs = ptx::regs_per_thread(KernelKind::WotsSign, params, config.path);
    // The kernel must be resident: cap registers like __launch_bounds__
    // does when a big block would exceed the register file.
    let max_regs = device.registers_per_sm / threads;
    regs = regs.min(max_regs);

    let block = BlockResources {
        threads,
        regs_per_thread: regs,
        smem_bytes: 0,
    };
    let mut desc = KernelDesc::empty("WOTS+_Sign", messages * blocks_per_message(params), block);
    desc.ipc_factor = calib::WOTS_IPC;
    desc.active_thread_fraction = calib::WOTS_ACTIVE;

    let compressions = workload::wots_sign_expected_compressions(params) * messages as u64;
    desc.instr_total =
        ptx::compression_mix(KernelKind::WotsSign, params, config.path).scaled(compressions);

    // Index math: base-w digit extraction, checksum, chain addressing.
    let index_alu = if config.index_shift_rewrite {
        calib::SHIFT_ALU
    } else {
        calib::DIVMOD_ALU
    };
    desc.instr_total
        .add_count(InstrClass::Alu, index_alu * compressions);

    // Critical path: the longest chain (w-1 steps) plus PRF.
    desc.critical_path =
        ptx::compression_mix(KernelKind::WotsSign, params, config.path).scaled(params.w as u64);

    desc.syncs_per_block = 0; // chains never synchronize
    desc.ro_placement = config.placement;
    let output_bytes = (params.d * params.wots_sig_bytes()) as u64;
    match config.placement {
        RoDataPlacement::Constant | RoDataPlacement::GlobalVectorized => {
            desc.cmem_reads = compressions;
            desc.gmem_bytes = output_bytes * messages as u64;
        }
        RoDataPlacement::Global => {
            desc.gmem_bytes =
                compressions * calib::SEED_BYTES_PER_HASH / 2 + output_bytes * messages as u64;
        }
    }
    desc
}

/// The functional face, straight from the substrate: one plannable
/// stage ([`sign_chain_groups`]: the WOTS+ signatures of a group of
/// [`ChainGroupItem`]s from any mix of layers and messages, all chains
/// through one multi-lane sweep).
pub use hero_sphincs::wots::{sign_chain_groups, ChainGroupItem};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tree_sign;
    use hero_gpu_sim::device::rtx_4090;
    use hero_gpu_sim::engine::simulate_kernel;
    use hero_gpu_sim::isa::Sha2Path;
    use hero_sphincs::address::{Address, AddressType};
    use hero_sphincs::hash::HashCtx;

    #[test]
    fn geometry_one_thread_per_chain() {
        let p128 = Params::sphincs_128f();
        assert_eq!(block_threads(&p128), 770); // 22 × 35
        assert_eq!(blocks_per_message(&p128), 1);
        let p192 = Params::sphincs_192f();
        assert_eq!(block_threads(&p192), 561); // 22 × 51 = 1122 split in 2
        assert_eq!(blocks_per_message(&p192), 2);
    }

    #[test]
    fn shift_rewrite_drives_speedup() {
        // Table VIII: WOTS+_Sign gains ~1.7–2× and its *compute
        // throughput decreases* — fewer instructions for the same work.
        let d = rtx_4090();
        for p in Params::fast_sets() {
            let path = if p.n == 32 {
                Sha2Path::Ptx
            } else {
                Sha2Path::Native
            };
            let base = simulate_kernel(&d, &describe(&d, &p, 1024, &KernelConfig::baseline()));
            let hero = simulate_kernel(&d, &describe(&d, &p, 1024, &KernelConfig::hero(path)));
            let speedup = base.time_us / hero.time_us;
            assert!(speedup > 1.3 && speedup < 3.0, "{}: {speedup}", p.name());
        }
    }

    #[test]
    fn functional_output_matches_reference_and_verifies() {
        let mut params = Params::sphincs_128f();
        params.h = 6;
        params.d = 3;
        let ctx = HashCtx::new(params, &[4u8; 16]);
        let sk_seed = vec![6u8; 16];
        let fors_pk = vec![0x11u8; 16];

        let subtrees = tree_sign::subtree_items(&params, 2, 1);
        let layers = tree_sign::subtrees(&ctx, &sk_seed, &subtrees);
        let roots: Vec<Vec<u8>> = layers.iter().map(|l| l.root.clone()).collect();
        let coords: Vec<(u64, u32)> = subtrees.iter().map(|i| (i.tree_idx, i.leaf_idx)).collect();
        // Layer 0 signs the FORS pk, layer l the root below it: all of
        // them one chain group.
        let items: Vec<ChainGroupItem<'_>> = (0..params.d)
            .map(|layer| ChainGroupItem {
                msg: if layer == 0 {
                    &fors_pk
                } else {
                    &roots[layer - 1]
                },
                layer: layer as u32,
                tree: coords[layer].0,
                leaf: coords[layer].1,
            })
            .collect();
        let sigs = sign_chain_groups(&ctx, &sk_seed, &items);

        // Each layer's WOTS+ signature must reconstruct that layer's leaf,
        // i.e. equal the reference signer's output.
        for (layer, sig) in sigs.iter().enumerate() {
            let msg = if layer == 0 {
                &fors_pk
            } else {
                &roots[layer - 1]
            };
            let (tree, leaf) = coords[layer];
            let mut adrs = Address::new();
            adrs.set_layer(layer as u32);
            adrs.set_tree(tree);
            adrs.set_type(AddressType::WotsHash);
            adrs.set_keypair(leaf);
            assert_eq!(
                *sig,
                hero_sphincs::reference::wots_sign(&ctx, msg, &sk_seed, &adrs),
                "layer {layer}"
            );
        }
    }

    #[test]
    fn descriptor_always_resident() {
        let d = rtx_4090();
        for p in Params::fast_sets() {
            for cfg in [KernelConfig::baseline(), KernelConfig::hero(Sha2Path::Ptx)] {
                let desc = describe(&d, &p, 64, &cfg);
                let occ = hero_gpu_sim::occupancy::occupancy(&d, &desc.block);
                assert!(occ.blocks_per_sm >= 1, "{} {:?}", p.name(), desc.block);
            }
        }
    }
}
