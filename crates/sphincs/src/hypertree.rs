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
use crate::hash::{ChainJob, HashCtx};
use crate::merkle;
use crate::params::Params;
use crate::sign::Scratch;
use crate::wots;
#[cfg(target_arch = "x86_64")]
use crate::{ascent, lanes};

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
/// over its own `msg` at its own (`tree`, `leaf_idx`): the requests go a
/// verification group at a time through the XMSS stage of
/// [`crate::sign::VerifyingKey::verify_many`] (`xmss_roots_group`). A
/// request's root does not depend on what else is in the call.
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
///
/// # Panics
///
/// Panics if a message is not `n` bytes or a signature's shape is
/// malformed.
pub fn xmss_pk_from_sig_many(
    ctx: &HashCtx,
    layer: u32,
    reqs: &[XmssVerifyRequest],
) -> Vec<Vec<u8>> {
    let n = ctx.params().n;
    let mut scratch = Scratch::new(ctx);
    let mut out = Vec::with_capacity(reqs.len());
    let mut coords = Vec::with_capacity(scratch.width);
    for reqs in reqs.chunks(scratch.width) {
        for (req, msg) in reqs.iter().zip(scratch.roots.chunks_exact_mut(n)) {
            assert_eq!(req.msg.len(), n, "WOTS+ message must be n bytes");
            msg.copy_from_slice(req.msg);
        }
        coords.clear();
        coords.extend(reqs.iter().map(|req| (req.tree, req.leaf_idx)));
        xmss_roots_group(ctx, &mut scratch, layer, |s| reqs[s].sig, &coords);
        out.extend(
            scratch
                .roots
                .chunks_exact(n)
                .take(reqs.len())
                .map(<[u8]>::to_vec),
        );
    }
    out
}

/// One XMSS layer of verification for a group of signatures: signature
/// `s` is `sig(s)` at `coords[s]` = (tree, leaf), and `scratch.roots[s*n..]`
/// holds the node its WOTS+ signature signs and takes the layer's root.
/// The one place the stage picks its body.
///
/// In the lanes (SHA-256 above the `scalar` rung) the layer's nodes —
/// the revealed chain nodes, then the authentication path — are read out
/// of each signature into words, and the chain kernel runs every chain of
/// the group to its end where its head was. From four signatures in zmm,
/// two in ymm ([`ascent::Resident::ascends_in_lanes`]), each lane then
/// absorbs its own `T_len` over them and climbs its `h'` authentication
/// nodes; a narrower group keeps `T_len` and the climb on bytes. The
/// level sweep runs the group's chains round by round through
/// [`HashCtx::f_chains`] ([`wots::pk_from_sig_many`]) and every leaf's
/// climb a level of the whole group at a time
/// ([`merkle::roots_from_auth_paths_many`]).
///
/// # Panics
///
/// Panics if a signature's shape is malformed, or there are more
/// signatures than the group holds.
pub(crate) fn xmss_roots_group<'s>(
    ctx: &HashCtx,
    scratch: &mut Scratch,
    layer: u32,
    sig: impl Fn(usize) -> &'s XmssSig,
    coords: &[(u64, u32)],
) {
    let params = ctx.params();
    let (n, len, height) = (params.n, params.wots_len(), params.tree_height());
    let count = coords.len();
    assert!(count <= scratch.width, "one group of signatures at most");
    let keypair = |s: usize| keypair_adrs(layer, coords[s].0, coords[s].1);
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = &mut scratch.lanes {
        let layer_words = (len + height) * n / 4;
        let in_lanes = lanes.ascends_in_lanes(count);
        let words = &mut lanes.words;
        words.resize(count * layer_words, 0);
        let digits = &mut scratch.digits;
        digits.clear();
        let signatures = words
            .chunks_exact_mut(layer_words)
            .zip(scratch.roots.chunks_exact(n));
        for (s, (words, msg)) in signatures.enumerate() {
            let sig = sig(s);
            assert_eq!(
                sig.wots_sig.len(),
                len,
                "WOTS+ signature must have len nodes"
            );
            assert_eq!(sig.auth_path.len(), height, "authentication path height");
            let (chains, auth) = words.split_at_mut(len * n / 4);
            lanes::put_nodes(chains, &sig.wots_sig);
            lanes::put_nodes(auth, &sig.auth_path);
            wots::push_digits(params, msg, digits);
        }
        let links = (0..count).flat_map(|s| {
            let digits = &digits[s * len..(s + 1) * len];
            wots::chain_links(params, digits, &keypair(s), s * layer_words)
        });
        let top = params.w as u32 - 1;
        let steps = digits.iter().map(|&digit| top - digit);
        lanes.chains.run(lanes.iv, steps, links, words, 1, None);

        if in_lanes {
            let climbs = (0..count).map(|s| ascent::Climb {
                leaf_adrs: wots::pk_adrs_for(&keypair(s)).compressed_words(),
                node_adrs: node_adrs(layer, coords[s].0).compressed_words(),
                leaf_idx: coords[s].1,
                at: (s * layer_words) as u32,
                ..Default::default()
            });
            lanes.climbs.clear();
            lanes.climbs.extend(climbs);
            let shape = ascent::Shape {
                leaf_nodes: len,
                height,
                stride: n / 4,
            };
            let mut rows = ascent::Nodes::default();
            (lanes.ascent).run(lanes.iv, &lanes.climbs, &shape, words, Some(&mut rows));
            for (lane, root) in scratch.roots.chunks_exact_mut(n).take(count).enumerate() {
                lanes::take_words(&rows, lane, root);
            }
            return;
        }
        let (ends, mut leaf) = (&mut scratch.bytes, [0u8; 32]);
        let leaf = &mut leaf[..n];
        let signatures = words
            .chunks_exact(layer_words)
            .zip(scratch.roots.chunks_exact_mut(n));
        for (s, (chains, root)) in signatures.enumerate() {
            ends.clear();
            ends.extend(
                chains[..len * n / 4]
                    .iter()
                    .flat_map(|word| word.to_be_bytes()),
            );
            ctx.t_l_flat_into(&wots::pk_adrs_for(&keypair(s)), ends, leaf);
            let climb = |_| merkle::AuthPathJob {
                leaf,
                leaf_idx: coords[s].1,
                auth_path: &sig(s).auth_path,
                node_adrs: node_adrs(layer, coords[s].0),
                leaf_offset: 0,
            };
            merkle::roots_in(ctx, 1, climb, root);
        }
        return;
    }
    let Scratch {
        roots,
        digits,
        bytes,
        leaves,
        adrs,
        live,
        jobs,
        ..
    } = scratch;
    let sigs = (0..count).map(|s| (&sig(s).wots_sig[..], &roots[s * n..(s + 1) * n], keypair(s)));
    let run = |nodes: &mut [u8], jobs: &[ChainJob]| ctx.f_chains_in(nodes, jobs, adrs, live);
    leaves.resize(count * n, 0);
    wots::pks_in(ctx, sigs, digits, bytes, jobs, run, leaves);
    let climb = |s: usize| merkle::AuthPathJob {
        leaf: &leaves[s * n..(s + 1) * n],
        leaf_idx: coords[s].1,
        auth_path: &sig(s).auth_path,
        node_adrs: node_adrs(layer, coords[s].0),
        leaf_offset: 0,
    };
    merkle::roots_in(ctx, count, climb, roots);
}

/// The `(tree, leaf)` the layer above signs from, given a layer's: a
/// tree's position within its parent is the leaf that signs its root.
pub(crate) fn parent(params: &Params, (tree_idx, _): (u64, u32)) -> (u64, u32) {
    let height = params.tree_height();
    (tree_idx >> height, (tree_idx & ((1 << height) - 1)) as u32)
}

/// The `(tree, leaf)` a signature uses at every layer, bottom to top,
/// from the pair the digest selects at layer 0 (Fig. 2's loop): a tree's
/// position within its parent is the leaf that signs its root.
pub fn layer_coordinates(params: &Params, tree_idx: u64, leaf_idx: u32) -> Vec<(u64, u32)> {
    std::iter::successors(Some((tree_idx, leaf_idx)), |&coords| {
        Some(parent(params, coords))
    })
    .take(params.d)
    .collect()
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
    #[should_panic(expected = "WOTS+ message must be n bytes")]
    fn sign_rejects_a_long_message() {
        let (params, ctx, sk_seed) = setup();
        let _ = sign(&ctx, &vec![0x77u8; params.n + 1], &sk_seed, 2, 1);
    }

    #[test]
    #[should_panic(expected = "WOTS+ message must be n bytes")]
    fn xmss_pk_from_sig_many_rejects_a_long_message() {
        let (params, ctx, sk_seed) = setup();
        let msg = vec![0x77u8; params.n];
        let (sig, _) = reference::xmss_sign(&ctx, &msg, &sk_seed, 0, 3, 1);
        let long = vec![0x77u8; params.n + 1];
        let req = XmssVerifyRequest {
            sig: &sig,
            msg: &long,
            tree: 3,
            leaf_idx: 1,
        };
        let _ = xmss_pk_from_sig_many(&ctx, 0, &[req]);
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
