//! Hypertree (HT): `d` layers of XMSS (MSS + WOTS+) trees (§II-A3/A4).
//!
//! Layer 0 signs the FORS public key; each layer above signs the Merkle
//! root of the layer below; the top root is the SPHINCS+ public key root.
//! Every layer's Merkle tree is independent once its leaf index is known —
//! the tree-level parallelism behind HERO-Sign's `TREE_Sign` kernel.
//!
//! A subtree's cost is its leaves: each is a whole WOTS+ public key. They
//! are filled together, several subtrees' in one call
//! ([`wots_leaves_many_into`]), through [`wots::pk_gen_many`], which
//! under SHA-256 gives every key pair a SIMD lane of its own from `PRF`
//! to `T_len`; the `2^h' − 1` nodes above them go level by level
//! ([`merkle`]). [`subtrees`] is the one builder: signing, key generation
//! and the planner's build nodes all take what they need from its result.
//! The layer-by-layer spelling of the scheme is [`crate::reference`],
//! which every routine here is tested against.
//!
//! ```
//! use hero_sphincs::{hash::HashCtx, hypertree, params::Params, reference};
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
//! // The reference climbs it back to the root, one layer at a time.
//! assert_eq!(reference::ht_root_from_sig(&ctx, &sig, &[9u8; 16], 2, 1), root);
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

/// The treehash leaf filler, for several subtrees at once, `(layer,
/// tree)` each: `out` takes an equal share of leaves `0..` for every one
/// of them, subtree after subtree, and all of them come from one
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

/// Recomputes the roots of XMSS trees of one layer from signatures, each
/// over its own `msg` at its own (`tree`, `leaf_idx`) — the batched stage
/// body verification runs per layer. A request's root does not depend on
/// what else is in the call.
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
/// let sig = hypertree::sign(&ctx, &[9u8; 16], &[1u8; 16], 2, 1);
/// let reqs = [hypertree::XmssVerifyRequest {
///     sig: &sig.layers[0],
///     msg: &[9u8; 16],
///     tree: 2,
///     leaf_idx: 1,
/// }];
/// let root = hypertree::subtrees(&ctx, &[1u8; 16], &[(0, 2)])[0].root().to_vec();
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

/// The `(tree, leaf)` a signature uses at every layer, bottom to top,
/// from the pair the digest selects at layer 0 (Fig. 2's loop): a tree's
/// position within its parent is the leaf that signs its root.
pub fn layer_coordinates(params: &Params, mut tree_idx: u64, mut leaf_idx: u32) -> Vec<(u64, u32)> {
    let mut coords = Vec::with_capacity(params.d);
    for _ in 0..params.d {
        coords.push((tree_idx, leaf_idx));
        leaf_idx = (tree_idx & ((1 << params.tree_height()) - 1)) as u32;
        tree_idx >>= params.tree_height();
    }
    coords
}

/// Signs `msg` under the full hypertree from (`tree_idx`, `leaf_idx`) at
/// layer 0 up to the top. The coordinates depend on nothing but the
/// digest (§III-A), so all `d` subtrees are built in one [`subtrees`]
/// call; and since each layer signs the root of the one below, which that
/// call has produced, all `d` WOTS+ signatures come from one
/// [`wots::sign_many`] — the planner's stage sequence for one message.
pub fn sign(
    ctx: &HashCtx,
    msg: &[u8],
    sk_seed: &[u8],
    tree_idx: u64,
    leaf_idx: u32,
) -> HtSignature {
    let coords = layer_coordinates(ctx.params(), tree_idx, leaf_idx);
    let placed: Vec<(u32, u64)> = (0u32..).zip(&coords).map(|(l, &(t, _))| (l, t)).collect();
    let built = subtrees(ctx, sk_seed, &placed);
    let msgs: Vec<&[u8]> = std::iter::once(msg)
        .chain(built.iter().map(merkle::TreeLevels::root))
        .take(coords.len())
        .collect();
    let adrs_list: Vec<Address> = placed
        .iter()
        .zip(&coords)
        .map(|(&(layer, tree), &(_, leaf))| keypair_adrs(layer, tree, leaf))
        .collect();
    let layers = wots::sign_many(ctx, &msgs, sk_seed, &adrs_list)
        .into_iter()
        .zip(&built)
        .zip(&coords)
        .map(|((wots_sig, tree), &(_, leaf))| XmssSig {
            wots_sig,
            auth_path: tree.auth_path(leaf),
        })
        .collect();
    HtSignature { layers }
}

/// The hypertree public root: the root of the single top-layer tree.
pub fn public_root(ctx: &HashCtx, sk_seed: &[u8]) -> Vec<u8> {
    let top = ctx.params().d as u32 - 1;
    subtrees(ctx, sk_seed, &[(top, 0)])[0].root().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

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

    /// The top root a hypertree signature reconstructs, layer by layer
    /// through [`xmss_pk_from_sig_many`] at batch 1 (what
    /// `VerifyingKey::verify_many` does across signatures).
    fn root_from_sig(
        ctx: &HashCtx,
        sig: &HtSignature,
        msg: &[u8],
        tree_idx: u64,
        leaf_idx: u32,
    ) -> Vec<u8> {
        let coords = layer_coordinates(ctx.params(), tree_idx, leaf_idx);
        let mut node = msg.to_vec();
        for ((layer, sig), &(tree, leaf_idx)) in (0u32..).zip(&sig.layers).zip(&coords) {
            let req = XmssVerifyRequest {
                sig,
                msg: &node,
                tree,
                leaf_idx,
            };
            node = xmss_pk_from_sig_many(ctx, layer, &[req]).remove(0);
        }
        node
    }

    #[test]
    fn xmss_roundtrip_all_leaves() {
        let (params, ctx, sk_seed) = setup();
        let msg = vec![0xC3u8; params.n];
        let built = &subtrees(&ctx, &sk_seed, &[(0, 3)])[0];
        for leaf_idx in 0..params.subtree_leaves() as u32 {
            let (sig, root) = reference::xmss_sign(&ctx, &msg, &sk_seed, 0, 3, leaf_idx);
            assert_eq!(built.root(), root);
            assert_eq!(built.auth_path(leaf_idx), sig.auth_path);
            let req = XmssVerifyRequest {
                sig: &sig,
                msg: &msg,
                tree: 3,
                leaf_idx,
            };
            assert_eq!(xmss_pk_from_sig_many(&ctx, 0, &[req]), [root]);
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
                    sig,
                    reference::ht_sign(&ctx, &msg, &sk_seed, tree_idx, leaf_idx),
                    "tree={tree_idx} leaf={leaf_idx}"
                );
                assert_eq!(
                    root_from_sig(&ctx, &sig, &msg, tree_idx, leaf_idx),
                    pk_root,
                    "tree={tree_idx} leaf={leaf_idx}"
                );
                assert_eq!(
                    reference::ht_root_from_sig(&ctx, &sig, &msg, tree_idx, leaf_idx),
                    pk_root,
                    "tree={tree_idx} leaf={leaf_idx} reference"
                );
            }
        }
    }

    #[test]
    fn xmss_pk_from_sig_many_matches_per_request() {
        // Requests spanning different trees and leaves of one layer —
        // the verify planner's per-layer stage — must each recover a
        // root byte-identical to the reference's.
        let (params, ctx, sk_seed) = setup();
        for count in [1usize, 2, 5] {
            let made: Vec<(XmssSig, Vec<u8>, u64, u32)> = (0..count)
                .map(|i| {
                    let msg: Vec<u8> = (0..params.n).map(|b| (i * 29 + b) as u8).collect();
                    let tree = i as u64 % 4;
                    let leaf_idx = i as u32 % params.subtree_leaves() as u32;
                    let (sig, _) = reference::xmss_sign(&ctx, &msg, &sk_seed, 1, tree, leaf_idx);
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
                    reference::xmss_pk_from_sig(&ctx, sig, msg, 1, *tree, *leaf_idx),
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
        let (params, ctx, sk_seed) = setup();
        let n = params.n;
        // Leaves 0 and 1 of the subtree at (layer, tree).
        let leaves = |layer: u32, tree: u64| {
            let mut out = vec![0u8; 2 * n];
            wots_leaves_many_into(&ctx, &sk_seed, &[(layer, tree)], &mut out);
            out
        };
        let a = leaves(0, 0);
        assert_eq!(a, leaves(0, 0));
        assert_ne!(a[..n], a[n..]);
        assert_ne!(a[..n], leaves(0, 1)[..n]);
        assert_ne!(a[..n], leaves(1, 0)[..n]);
        assert_eq!(
            a[n..],
            reference::wots_pk_gen(&ctx, &sk_seed, &keypair_adrs(0, 0, 1))
        );
    }
}
