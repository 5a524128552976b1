//! Hypertree (HT): `d` layers of XMSS (MSS + WOTS+) trees (§II-A3/A4).
//!
//! Layer 0 signs the FORS public key; each layer above signs the Merkle
//! root of the layer below; the top root is the SPHINCS+ public key root.
//! Every layer's Merkle tree is independent once its leaf index is known —
//! the tree-level parallelism behind HERO-Sign's `TREE_Sign` kernel.
//!
//! A subtree's cost is its leaves: each is a whole WOTS+ public key. They
//! are filled together ([`wots_leaves_into`]; several subtrees' in one
//! call, [`wots_leaves_many_into`]) through [`wots::pk_gen_many`], which
//! under SHA-256 gives every key pair a SIMD lane of its own from `PRF`
//! to `T_len`; the `2^h' − 1` nodes above them go level by level
//! ([`merkle`]). [`subtrees`] is the one builder: signing, key generation
//! and the planner's build nodes all take what they need from its result.
//!
//! ```
//! use hero_sphincs::{hash::HashCtx, hypertree, params::Params};
//!
//! // Reduced shape (h=6, d=3): three layers of height-2 subtrees.
//! let mut params = Params::sphincs_128f();
//! params.h = 6;
//! params.d = 3;
//! let ctx = HashCtx::new(params, &[0u8; 16]);
//! let sk_seed = [1u8; 16];
//!
//! let root = hypertree::public_root(&ctx, &sk_seed);
//! // Sign an n-byte value (a FORS public key in the full scheme).
//! let sig = hypertree::sign(&ctx, &[9u8; 16], &sk_seed, 2, 1);
//! assert_eq!(sig.layers.len(), params.d);
//! assert_eq!(hypertree::root_from_sig(&ctx, &sig, &[9u8; 16], 2, 1), root);
//! ```

use crate::address::{Address, AddressType};
use crate::hash::HashCtx;
use crate::merkle;
use crate::params::Params;
use crate::wots;
#[cfg(target_arch = "x86_64")]
use crate::{ascent, chain, fors};

/// One layer of a hypertree signature: a WOTS+ signature over the layer
/// below's root plus the authentication path of the signing leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmssSig {
    /// WOTS+ signature (`len` nodes of `n` bytes).
    pub wots_sig: Vec<Vec<u8>>,
    /// Authentication path, `h/d` nodes.
    pub auth_path: Vec<Vec<u8>>,
}

/// A full hypertree signature: `d` [`XmssSig`] layers, bottom to top.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HtSignature {
    /// Per-layer signatures (layer 0 first).
    pub layers: Vec<XmssSig>,
}

/// Computes the WOTS+ leaf `leaf_idx` of the subtree at (`layer`, `tree`):
/// the compressed public key of that leaf's WOTS+ key pair.
///
/// This is `wots_gen_leaf` in the reference code — the register-hungry
/// routine Table III profiles.
pub fn wots_leaf(ctx: &HashCtx, sk_seed: &[u8], layer: u32, tree: u64, leaf_idx: u32) -> Vec<u8> {
    let mut out = vec![0u8; ctx.params().n];
    wots_leaf_into(ctx, sk_seed, layer, tree, leaf_idx, &mut out);
    out
}

/// The WOTS+ key pair address of leaf `leaf_idx` of the subtree at
/// (`layer`, `tree`).
fn keypair_adrs(layer: u32, tree: u64, leaf_idx: u32) -> Address {
    let mut adrs = Address::new();
    adrs.set_layer(layer);
    adrs.set_tree(tree);
    adrs.set_type(AddressType::WotsHash);
    adrs.set_keypair(leaf_idx);
    adrs
}

/// [`wots_leaf`] writing the `n`-byte leaf into `out`.
pub fn wots_leaf_into(
    ctx: &HashCtx,
    sk_seed: &[u8],
    layer: u32,
    tree: u64,
    leaf_idx: u32,
    out: &mut [u8],
) {
    wots::pk_gen_into(ctx, sk_seed, &keypair_adrs(layer, tree, leaf_idx), out);
}

/// Fills `out` with leaves `0..out.len()/n` of the subtree at (`layer`,
/// `tree`) — the treehash leaf filler. All the leaves' key pairs go
/// through one [`wots::pk_gen_many`] call, which is what keeps its lane
/// groups full; byte-identical to [`wots_leaf_into`] per leaf.
pub fn wots_leaves_into(ctx: &HashCtx, sk_seed: &[u8], layer: u32, tree: u64, out: &mut [u8]) {
    wots_leaves_many_into(ctx, sk_seed, &[(layer, tree)], out);
}

/// [`wots_leaves_into`] for several subtrees at once, `(layer, tree)`
/// each: `out` takes an equal share of leaves for every one of them,
/// subtree after subtree, and all of them come from one
/// [`wots::pk_gen_many`] call — two 8-leaf subtrees are one full zmm
/// group where each alone is half of one.
///
/// # Panics
///
/// Panics if `out` does not divide into whole leaves, as many for each
/// subtree.
pub fn wots_leaves_many_into(
    ctx: &HashCtx,
    sk_seed: &[u8],
    subtrees: &[(u32, u64)],
    out: &mut [u8],
) {
    let leaves = out.len() / ctx.params().n;
    let each = leaves.checked_div(subtrees.len()).unwrap_or(0);
    assert_eq!(
        out.len(),
        subtrees.len() * each * ctx.params().n,
        "out must hold as many whole leaves for each subtree"
    );
    let adrs_list: Vec<Address> = subtrees
        .iter()
        .flat_map(|&(layer, tree)| (0..each as u32).map(move |i| keypair_adrs(layer, tree, i)))
        .collect();
    wots::pk_gen_many(ctx, sk_seed, &adrs_list, out);
}

/// The `H` address of the subtree at (`layer`, `tree`).
fn node_adrs(layer: u32, tree: u64) -> Address {
    let mut adrs = Address::new();
    adrs.set_layer(layer);
    adrs.set_tree(tree);
    adrs.set_type(AddressType::Tree);
    adrs
}

/// Builds the XMSS subtrees at the given `(layer, tree)` coordinates,
/// every node of each retained — the one way a subtree is ever built:
/// all the subtrees' WOTS+ leaves in one fill
/// ([`wots_leaves_many_into`]), every level above them halved across all
/// the subtrees at once ([`merkle::treehash_many_levels`]). Signing
/// slices a leaf's authentication path out of the result, key generation
/// its root, and a cache keeps it whole.
pub fn subtrees(ctx: &HashCtx, sk_seed: &[u8], subtrees: &[(u32, u64)]) -> Vec<merkle::TreeLevels> {
    let jobs: Vec<merkle::TreeHashJob> = subtrees
        .iter()
        .map(|&(layer, tree)| merkle::TreeHashJob {
            leaf_idx: 0,
            node_adrs: node_adrs(layer, tree),
            leaf_offset: 0,
        })
        .collect();
    merkle::treehash_many_levels(ctx, ctx.params().tree_height(), &jobs, |leaves| {
        wots_leaves_many_into(ctx, sk_seed, subtrees, leaves)
    })
}

/// Signs `msg` (an `n`-byte root or FORS pk) with the XMSS tree at
/// (`layer`, `tree`), using leaf `leaf_idx`. Returns the signature and the
/// tree's root.
pub fn xmss_sign(
    ctx: &HashCtx,
    msg: &[u8],
    sk_seed: &[u8],
    layer: u32,
    tree: u64,
    leaf_idx: u32,
) -> (XmssSig, Vec<u8>) {
    let wots_sig = wots::sign(ctx, msg, sk_seed, &keypair_adrs(layer, tree, leaf_idx));
    let out = subtrees(ctx, sk_seed, &[(layer, tree)])[0].output_for(leaf_idx);

    (
        XmssSig {
            wots_sig,
            auth_path: out.auth_path,
        },
        out.root,
    )
}

/// Recomputes the root of the XMSS tree at (`layer`, `tree`) from a
/// signature over `msg` at `leaf_idx`.
pub fn xmss_pk_from_sig(
    ctx: &HashCtx,
    sig: &XmssSig,
    msg: &[u8],
    layer: u32,
    tree: u64,
    leaf_idx: u32,
) -> Vec<u8> {
    let wots_adrs = keypair_adrs(layer, tree, leaf_idx);
    let leaf = wots::pk_from_sig(ctx, &sig.wots_sig, msg, &wots_adrs);
    merkle::root_from_auth_path(
        ctx,
        &leaf,
        leaf_idx,
        &sig.auth_path,
        &node_adrs(layer, tree),
    )
}

/// One signature's share of a batched XMSS layer recomputation: its
/// layer signature, the node it authenticates (FORS pk at layer 0, the
/// layer below's recovered root above), and its tree/leaf coordinates.
#[derive(Clone, Copy, Debug)]
pub struct XmssVerifyRequest<'a> {
    /// The layer's XMSS signature.
    pub sig: &'a XmssSig,
    /// The `n`-byte value the WOTS+ signature covers.
    pub msg: &'a [u8],
    /// Tree index within the layer.
    pub tree: u64,
    /// Leaf index within the tree.
    pub leaf_idx: u32,
}

/// [`xmss_pk_from_sig`] across many signatures sharing one layer — the
/// batched stage body verification runs per layer. Output is
/// byte-identical to calling [`xmss_pk_from_sig`] per request.
///
/// Under SHA-256, on a CPU the resident ladder has a body for
/// ([`crate::tier::sha256_chain_tier`] above `scalar`), requests are
/// taken a register group at a time, a signature per lane: the group's
/// chains run in the chain kernel from the revealed nodes and leave their
/// ends transposed, each lane absorbs its own `T_len` over them and
/// climbs its `h'` authentication nodes, and only the roots come out as
/// bytes. A group too narrow to pay for whole registers
/// ([`crate::fors::LANE_SIGNATURES`]) goes the other way, as everything
/// does under SHAKE-256, SHA-512 and the `scalar` rung: every request's
/// chains complete through one [`wots::pk_from_sig_many`] call, then
/// every recovered leaf climbs in one combined
/// [`merkle::roots_from_auth_paths_many`] sweep.
///
/// ```
/// use hero_sphincs::{hash::HashCtx, hypertree, params::Params};
///
/// let mut params = Params::sphincs_128f();
/// params.h = 6;
/// params.d = 3;
/// let ctx = HashCtx::new(params, &[0u8; 16]);
/// let (sig, root) = hypertree::xmss_sign(&ctx, &[9u8; 16], &[1u8; 16], 0, 2, 1);
/// let reqs = [hypertree::XmssVerifyRequest {
///     sig: &sig,
///     msg: &[9u8; 16],
///     tree: 2,
///     leaf_idx: 1,
/// }];
/// assert_eq!(hypertree::xmss_pk_from_sig_many(&ctx, 0, &reqs), vec![root]);
/// ```
pub fn xmss_pk_from_sig_many(
    ctx: &HashCtx,
    layer: u32,
    reqs: &[XmssVerifyRequest],
) -> Vec<Vec<u8>> {
    #[cfg(target_arch = "x86_64")]
    if let (Some(iv), Some(chains), Some(kernel)) = (
        ctx.sha256_seed_state(),
        chain::Kernel::active(ctx.params().n),
        ascent::Kernel::active(ctx.params().n),
    ) {
        return reqs
            .chunks(kernel.lanes)
            .flat_map(|reqs| {
                if fors::ascends_in_lanes(kernel.lanes, reqs.len()) {
                    xmss_roots_in_lanes(ctx, &chains, &kernel, iv, layer, reqs)
                } else {
                    xmss_roots_sweep(ctx, layer, reqs)
                }
            })
            .collect();
    }
    xmss_roots_sweep(ctx, layer, reqs)
}

/// [`xmss_pk_from_sig_many`] for at most a register group of requests, a
/// signature per lane of the resident ascent.
#[cfg(target_arch = "x86_64")]
fn xmss_roots_in_lanes(
    ctx: &HashCtx,
    chains: &chain::Kernel,
    kernel: &ascent::Kernel,
    iv: &[u32; 8],
    layer: u32,
    reqs: &[XmssVerifyRequest],
) -> Vec<Vec<u8>> {
    let params = ctx.params();
    let mut group = ascent::Group::new(params.n, params.wots_len(), params.tree_height());
    let wots_adrs: Vec<Address> = reqs
        .iter()
        .map(|r| keypair_adrs(layer, r.tree, r.leaf_idx))
        .collect();
    for (lane, (r, wots_adrs)) in reqs.iter().zip(&wots_adrs).enumerate() {
        group.set_lane(
            lane,
            &ascent::Climb {
                leaf_adrs: wots::pk_adrs_for(wots_adrs),
                node_adrs: node_adrs(layer, r.tree),
                leaf_idx: r.leaf_idx,
                auth_path: &r.sig.auth_path,
            },
        );
    }
    let sigs: Vec<&[Vec<u8>]> = reqs.iter().map(|r| r.sig.wots_sig.as_slice()).collect();
    let msgs: Vec<&[u8]> = reqs.iter().map(|r| r.msg).collect();
    wots::chain_ends_in_lanes(ctx, chains, iv, &sigs, &msgs, &wots_adrs, group.leaf_rows());
    kernel.run(iv, &mut group);
    (0..reqs.len()).map(|lane| group.root(lane)).collect()
}

/// [`xmss_pk_from_sig_many`] through [`HashCtx::f_chains`] and the
/// multi-lane engine, stage by stage on bytes.
fn xmss_roots_sweep(ctx: &HashCtx, layer: u32, reqs: &[XmssVerifyRequest]) -> Vec<Vec<u8>> {
    if reqs.is_empty() {
        return Vec::new();
    }
    let wots_adrs: Vec<Address> = reqs
        .iter()
        .map(|r| keypair_adrs(layer, r.tree, r.leaf_idx))
        .collect();
    let sigs: Vec<&[Vec<u8>]> = reqs.iter().map(|r| r.sig.wots_sig.as_slice()).collect();
    let msgs: Vec<&[u8]> = reqs.iter().map(|r| r.msg).collect();
    let leaves = wots::pk_from_sig_many(ctx, &sigs, &msgs, &wots_adrs);

    let jobs: Vec<merkle::AuthPathJob> = reqs
        .iter()
        .zip(&leaves)
        .map(|(r, leaf)| merkle::AuthPathJob {
            leaf,
            leaf_idx: r.leaf_idx,
            auth_path: &r.sig.auth_path,
            node_adrs: node_adrs(layer, r.tree),
            leaf_offset: 0,
        })
        .collect();
    merkle::roots_from_auth_paths_many(ctx, &jobs)
}

/// Signs `msg` under the full hypertree, walking from (`tree_idx`,
/// `leaf_idx`) at layer 0 up to the top (the loop of Fig. 2 in the paper).
pub fn sign(
    ctx: &HashCtx,
    msg: &[u8],
    sk_seed: &[u8],
    mut tree_idx: u64,
    mut leaf_idx: u32,
) -> HtSignature {
    let params = *ctx.params();
    let mut layers = Vec::with_capacity(params.d);
    let mut root = msg.to_vec();
    for layer in 0..params.d as u32 {
        let (sig, new_root) = xmss_sign(ctx, &root, sk_seed, layer, tree_idx, leaf_idx);
        layers.push(sig);
        root = new_root;
        // Next layer: this tree's position within its parent.
        leaf_idx = (tree_idx & ((1 << params.tree_height()) - 1)) as u32;
        tree_idx >>= params.tree_height();
    }
    HtSignature { layers }
}

/// Verifies a hypertree signature over `msg`, returning the reconstructed
/// top root (compare against `pk_root`).
pub fn root_from_sig(
    ctx: &HashCtx,
    sig: &HtSignature,
    msg: &[u8],
    mut tree_idx: u64,
    mut leaf_idx: u32,
) -> Vec<u8> {
    let params = *ctx.params();
    assert_eq!(sig.layers.len(), params.d, "hypertree layer count");
    let mut node = msg.to_vec();
    for (layer, layer_sig) in sig.layers.iter().enumerate() {
        node = xmss_pk_from_sig(ctx, layer_sig, &node, layer as u32, tree_idx, leaf_idx);
        leaf_idx = (tree_idx & ((1 << params.tree_height()) - 1)) as u32;
        tree_idx >>= params.tree_height();
    }
    node
}

/// The hypertree public root: the root of the single top-layer tree.
pub fn public_root(ctx: &HashCtx, sk_seed: &[u8]) -> Vec<u8> {
    let top = ctx.params().d as u32 - 1;
    subtrees(ctx, sk_seed, &[(top, 0)])[0].root().to_vec()
}

/// `F`-call census for one hypertree signature: `d` subtrees, each with
/// `2^h'` WOTS+ leaf generations plus the internal `H` nodes, plus the
/// WOTS+ signing chains (bounded by leaf generation, already counted via
/// pk_gen during treehash).
pub fn sign_hash_count(params: &Params) -> usize {
    let per_tree = params.subtree_leaves() * wots::pk_gen_hash_count(params)
        + merkle::internal_node_count(params.tree_height());
    params.d * per_tree
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced parameters keep hypertree tests fast: h=6, d=3 (h'=2).
    fn tiny_params() -> Params {
        let mut p = Params::sphincs_128f();
        p.h = 6;
        p.d = 3;
        p
    }

    fn setup() -> (Params, HashCtx, Vec<u8>) {
        let params = tiny_params();
        let ctx = HashCtx::new(params, &[21u8; 16]);
        (params, ctx, vec![6u8; 16])
    }

    #[test]
    fn xmss_roundtrip_all_leaves() {
        let (params, ctx, sk_seed) = setup();
        let msg = vec![0xC3u8; params.n];
        for leaf_idx in 0..params.subtree_leaves() as u32 {
            let (sig, root) = xmss_sign(&ctx, &msg, &sk_seed, 0, 3, leaf_idx);
            assert_eq!(xmss_pk_from_sig(&ctx, &sig, &msg, 0, 3, leaf_idx), root);
        }
    }

    #[test]
    fn ht_roundtrip() {
        let (params, ctx, sk_seed) = setup();
        let msg = vec![0x77u8; params.n];
        let pk_root = public_root(&ctx, &sk_seed);
        let idx_bits = params.h - params.tree_height();
        for tree_idx in [0u64, 1, (1 << idx_bits) - 1] {
            for leaf_idx in [0u32, params.subtree_leaves() as u32 - 1] {
                let sig = sign(&ctx, &msg, &sk_seed, tree_idx, leaf_idx);
                assert_eq!(
                    root_from_sig(&ctx, &sig, &msg, tree_idx, leaf_idx),
                    pk_root,
                    "tree={tree_idx} leaf={leaf_idx}"
                );
            }
        }
    }

    #[test]
    fn xmss_pk_from_sig_many_matches_per_request() {
        // Requests spanning different trees and leaves of one layer —
        // the verify planner's per-layer stage — must each recover a
        // root byte-identical to the scalar xmss_pk_from_sig.
        let (params, ctx, sk_seed) = setup();
        for count in [1usize, 2, 5] {
            let made: Vec<(XmssSig, Vec<u8>, u64, u32)> = (0..count)
                .map(|i| {
                    let msg: Vec<u8> = (0..params.n).map(|b| (i * 29 + b) as u8).collect();
                    let tree = i as u64 % 4;
                    let leaf_idx = i as u32 % params.subtree_leaves() as u32;
                    let (sig, _) = xmss_sign(&ctx, &msg, &sk_seed, 1, tree, leaf_idx);
                    (sig, msg, tree, leaf_idx)
                })
                .collect();
            let reqs: Vec<XmssVerifyRequest> = made
                .iter()
                .map(|(sig, msg, tree, leaf_idx)| XmssVerifyRequest {
                    sig,
                    msg,
                    tree: *tree,
                    leaf_idx: *leaf_idx,
                })
                .collect();
            let batched = xmss_pk_from_sig_many(&ctx, 1, &reqs);
            assert_eq!(batched.len(), count);
            for (i, (sig, msg, tree, leaf_idx)) in made.iter().enumerate() {
                assert_eq!(
                    batched[i],
                    xmss_pk_from_sig(&ctx, sig, msg, 1, *tree, *leaf_idx),
                    "count={count} request {i}"
                );
            }
        }
        assert!(xmss_pk_from_sig_many(&ctx, 0, &[]).is_empty());
    }

    #[test]
    fn ht_rejects_wrong_message() {
        let (params, ctx, sk_seed) = setup();
        let msg = vec![0x77u8; params.n];
        let bad = vec![0x78u8; params.n];
        let pk_root = public_root(&ctx, &sk_seed);
        let sig = sign(&ctx, &msg, &sk_seed, 2, 1);
        assert_ne!(root_from_sig(&ctx, &sig, &bad, 2, 1), pk_root);
    }

    #[test]
    fn ht_rejects_wrong_indices() {
        let (params, ctx, sk_seed) = setup();
        let msg = vec![0x77u8; params.n];
        let pk_root = public_root(&ctx, &sk_seed);
        let sig = sign(&ctx, &msg, &sk_seed, 2, 1);
        assert_ne!(root_from_sig(&ctx, &sig, &msg, 2, 2), pk_root);
        assert_ne!(root_from_sig(&ctx, &sig, &msg, 3, 1), pk_root);
    }

    #[test]
    fn wots_leaf_deterministic_and_positional() {
        let (_, ctx, sk_seed) = setup();
        let a = wots_leaf(&ctx, &sk_seed, 0, 0, 0);
        assert_eq!(a, wots_leaf(&ctx, &sk_seed, 0, 0, 0));
        assert_ne!(a, wots_leaf(&ctx, &sk_seed, 0, 0, 1));
        assert_ne!(a, wots_leaf(&ctx, &sk_seed, 0, 1, 0));
        assert_ne!(a, wots_leaf(&ctx, &sk_seed, 1, 0, 0));
    }

    #[test]
    fn hash_census_scales_with_d() {
        let p = Params::sphincs_128f();
        // 22 layers * (8 leaves * 560 + 7) = 22 * 4487 = 98,714 — the
        // "more than 100,000 hash computations" of the paper's intro.
        assert_eq!(sign_hash_count(&p), 22 * (8 * 560 + 7));
    }
}
