//! Analytic hash-work censuses for the three SPHINCS+ signing kernels.
//!
//! Every count here is exact arithmetic over the parameter set — the same
//! quantities the paper quotes (560/816/1072 compressions per
//! `wots_gen_leaf`, 2112/8448/17920 FORS leaves, …) — and feeds the
//! simulator's instruction totals.

use hero_sphincs::hash::SeededHasher;
use hero_sphincs::params::Params;

/// Compressions of one `F`/`PRF` call (single block after the seed state).
pub fn f_compressions(params: &Params) -> u64 {
    SeededHasher::compressions_for_tail(22 + params.n) as u64
}

/// Compressions of one `H` call (two `n`-byte inputs).
pub fn h_compressions(params: &Params) -> u64 {
    SeededHasher::compressions_for_tail(22 + 2 * params.n) as u64
}

/// Compressions of one `T_l` call over `l` inputs.
pub fn t_l_compressions(params: &Params, l: usize) -> u64 {
    SeededHasher::compressions_for_tail(22 + l * params.n) as u64
}

/// Compressions of one `wots_gen_leaf`: `len` PRF + `len·(w-1)` chain `F`
/// + the `T_len` public-key compression.
///
/// The paper's §III quotes the chain-hash core (`len·w`) as 560 / 816 /
/// 1072 for the three `-f` sets; [`wots_gen_leaf_chain_hashes`] exposes
/// that number exactly.
pub fn wots_gen_leaf_compressions(params: &Params) -> u64 {
    wots_gen_leaf_chain_hashes(params) + t_l_compressions(params, params.wots_len())
}

/// The `len·w` chain-hash count of one `wots_gen_leaf` (PRF + chain F).
pub fn wots_gen_leaf_chain_hashes(params: &Params) -> u64 {
    (params.wots_len() * params.w) as u64
}

/// Total compressions of one message's `FORS_Sign`: `k` trees × (`t` PRF +
/// `t` leaf-F + `(t-1)` node-H) + final `T_k` roots compression.
pub fn fors_sign_compressions(params: &Params) -> u64 {
    let t = params.t() as u64;
    let per_tree = t * f_compressions(params)      // PRF per leaf
        + t * f_compressions(params)                // F per leaf
        + (t - 1) * h_compressions(params); // internal nodes
    params.k as u64 * per_tree + t_l_compressions(params, params.k)
}

/// Total compressions of one message's `TREE_Sign`: `d` subtrees ×
/// (`2^h'` WOTS+ leaves + `2^h' - 1` node-H).
pub fn tree_sign_compressions(params: &Params) -> u64 {
    let leaves = params.subtree_leaves() as u64;
    let per_tree =
        leaves * wots_gen_leaf_compressions(params) + (leaves - 1) * h_compressions(params);
    params.d as u64 * per_tree
}

/// Expected compressions of one message's `WOTS+_Sign`: `d` layers ×
/// (`len` PRF + on average `len·(w-1)/2` chain steps).
///
/// Signing reveals intermediate chain nodes, so the work is message-
/// dependent; the expectation over uniform digits is what batch
/// throughput sees.
pub fn wots_sign_expected_compressions(params: &Params) -> u64 {
    let len = params.wots_len() as u64;
    let avg_steps = (params.w as u64 - 1) / 2 * len + len / 2;
    params.d as u64 * (len * f_compressions(params) + avg_steps * f_compressions(params))
}

/// Grand total expected compressions for one full signature (the paper's
/// intro: "more than 100,000 hash computations").
pub fn total_sign_compressions(params: &Params) -> u64 {
    fors_sign_compressions(params)
        + tree_sign_compressions(params)
        + wots_sign_expected_compressions(params)
}

/// Per-thread serial compressions in `TREE_Sign` (one thread builds one
/// WOTS+ leaf): the longest dependence chain of the kernel.
pub fn tree_sign_critical_compressions(params: &Params) -> u64 {
    wots_gen_leaf_compressions(params) + params.tree_height() as u64 * h_compressions(params)
}

/// Per-thread serial compressions in `FORS_Sign` under a fused layout
/// where each thread owns one leaf of each of `ceil(k / concurrent)` tree
/// rounds: leaf work + `log t` reduction levels.
pub fn fors_sign_critical_compressions(params: &Params, concurrent_trees: u32) -> u64 {
    let rounds = (params.k as u64).div_ceil(concurrent_trees.max(1) as u64);
    rounds * (2 * f_compressions(params) + params.log_t as u64 * h_compressions(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_block_f_for_all_sets() {
        for p in Params::fast_sets() {
            assert_eq!(f_compressions(&p), 1, "{}", p.name());
        }
    }

    #[test]
    fn h_compressions_by_width() {
        assert_eq!(h_compressions(&Params::sphincs_128f()), 1);
        assert_eq!(h_compressions(&Params::sphincs_192f()), 2);
        assert_eq!(h_compressions(&Params::sphincs_256f()), 2);
    }

    #[test]
    fn paper_quoted_wots_leaf_hashes() {
        assert_eq!(wots_gen_leaf_chain_hashes(&Params::sphincs_128f()), 560);
        assert_eq!(wots_gen_leaf_chain_hashes(&Params::sphincs_192f()), 816);
        assert_eq!(wots_gen_leaf_chain_hashes(&Params::sphincs_256f()), 1072);
    }

    #[test]
    fn total_exceeds_hundred_thousand() {
        // Intro: "more than 100,000 hash computations in Hypertree".
        for p in Params::fast_sets() {
            assert!(total_sign_compressions(&p) > 100_000, "{}", p.name());
        }
    }

    #[test]
    fn tree_work_dominates() {
        // Table II's MSS column dominates in every set. (FORS beats WOTS+
        // in *time* despite similar hash counts because its dataflow is
        // smem-coupled — that ordering emerges from the kernel model, not
        // the census.)
        for p in Params::fast_sets() {
            let tree = tree_sign_compressions(&p);
            let fors = fors_sign_compressions(&p);
            let wots = wots_sign_expected_compressions(&p);
            assert!(tree > 3 * fors, "{}: {tree} vs {fors}", p.name());
            assert!(tree > 3 * wots, "{}: {tree} vs {wots}", p.name());
        }
    }

    #[test]
    fn fors_work_grows_with_security_level() {
        let c128 = fors_sign_compressions(&Params::sphincs_128f());
        let c192 = fors_sign_compressions(&Params::sphincs_192f());
        let c256 = fors_sign_compressions(&Params::sphincs_256f());
        assert!(c128 < c192 && c192 < c256);
    }

    #[test]
    fn critical_path_shrinks_with_more_concurrent_trees() {
        let p = Params::sphincs_128f();
        let serial = fors_sign_critical_compressions(&p, 1);
        let fused = fors_sign_critical_compressions(&p, 33);
        assert!(fused < serial);
        assert_eq!(serial, 33 * (2 + 6));
    }
}
