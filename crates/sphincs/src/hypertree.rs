//! Hypertree (HT): `d` layers of XMSS (MSS + WOTS+) trees (§II-A3/A4).
//!
//! Layer 0 signs the FORS public key; each layer above signs the Merkle
//! root of the layer below; the top root is the SPHINCS+ public key root.
//! Every layer's Merkle tree is independent once its leaf index is known —
//! the tree-level parallelism behind HERO-Sign's `TREE_Sign` kernel.
//!
//! A signature hangs from one subtree per layer ([`SubtreeItem`], bottom
//! to top from the leaf the digest selects: [`subtree_items`]). A
//! subtree's cost is its leaves: each is a whole WOTS+ public key. They
//! are filled together, several subtrees' in one call
//! ([`wots_leaves_many_into`]), through [`wots::pk_gen_many`], which
//! under SHA-256 gives every key pair a SIMD lane of its own from `PRF`
//! to `T_len`; the `2^h' − 1` nodes above them go level by level
//! ([`merkle`]). [`subtrees`] is the one builder: signing, key generation
//! and the planner's build nodes all take what they need from its result.
//! Verification climbs the same subtrees a group of signatures at a time,
//! one layer per stage of [`crate::sign::VerifyingKey::verify_many`]
//! (`xmss_roots_group`). The layer-by-layer spelling of the scheme is
//! [`crate::reference`], which every routine here is tested against.
//!
//! ```
//! use hero_sphincs::{hash::HashCtx, hypertree, params::Params, reference, wots};
//!
//! // Reduced shape (h=6, d=3): three layers of height-2 subtrees.
//! let mut params = Params::sphincs_128f();
//! params.h = 6;
//! params.d = 3;
//! let ctx = HashCtx::new(params, &[0u8; 16]);
//! let sk_seed = [1u8; 16];
//!
//! // The subtrees under bottom tree 2, leaf 1, and what signing takes
//! // of each: its root and the signing leaf's authentication path.
//! let items = hypertree::subtree_items(&params, 2, 1);
//! let trees = hypertree::tree_sign(&ctx, &sk_seed, &items);
//! assert_eq!(trees.len(), params.d);
//! assert_eq!(trees[params.d - 1].root, hypertree::public_root(&ctx, &sk_seed));
//! // Layer 0 signs an n-byte value (a FORS public key in the full
//! // scheme), every layer above the root of the one below.
//! let signed = [&[9u8; 16][..], &trees[0].root, &trees[1].root];
//! let chains: Vec<_> = items.iter().zip(signed).map(|(item, msg)| item.chains(msg)).collect();
//! let wots_sigs = wots::sign_chain_groups(&ctx, &sk_seed, &chains);
//! let sig = hypertree::HtSignature {
//!     layers: wots_sigs
//!         .into_iter()
//!         .zip(trees)
//!         .map(|(wots_sig, tree)| hypertree::XmssSig { wots_sig, auth_path: tree.auth_path })
//!         .collect(),
//! };
//! // The reference climbs it back to the root, one layer at a time.
//! assert_eq!(
//!     reference::ht_root_from_sig(&ctx, &sig, &[9u8; 16], 2, 1),
//!     hypertree::public_root(&ctx, &sk_seed)
//! );
//! ```

use crate::address::{Address, AddressType};
use crate::hash::{ChainJob, HashCtx};
use crate::merkle::{self, TreeHashOutput, TreeLevels};
use crate::nodes::Nodes;
use crate::params::Params;
use crate::sign::Scratch;
use crate::wots::{self, keypair_adrs, ChainGroupItem};
#[cfg(target_arch = "x86_64")]
use crate::{ascent, lanes};

/// One layer of a hypertree signature: a WOTS+ signature over the layer
/// below's root plus the authentication path of the signing leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmssSig {
    /// WOTS+ signature (`len` nodes of `n` bytes).
    pub wots_sig: Nodes,
    /// Authentication path, `h/d` nodes.
    pub auth_path: Nodes,
}

/// A full hypertree signature: `d` [`XmssSig`] layers, bottom to top.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HtSignature {
    /// Per-layer signatures (layer 0 first).
    pub layers: Vec<XmssSig>,
}

/// One subtree of a signature's hypertree: the XMSS tree at (`layer`,
/// `tree_idx`) and the leaf that signs there — the one spelling of
/// subtree coordinates, for signing, verifying and building alike. All
/// `d` of a signature's come from the digest alone (§III-A), so every
/// subtree can be built at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubtreeItem {
    /// Hypertree layer (0 = bottom).
    pub layer: u32,
    /// Tree index within the layer.
    pub tree_idx: u64,
    /// Leaf used for signing at this layer.
    pub leaf_idx: u32,
}

impl SubtreeItem {
    /// The subtree the layer above signs this one's root from: a tree's
    /// position within its parent is the leaf that signs its root.
    pub fn parent(&self, params: &Params) -> Self {
        let height = params.tree_height();
        Self {
            layer: self.layer + 1,
            tree_idx: self.tree_idx >> height,
            leaf_idx: (self.tree_idx & ((1 << height) - 1)) as u32,
        }
    }

    /// The `WOTS+_Sign` item of this layer: its signing leaf signs `msg`.
    pub fn chains<'a>(&self, msg: &'a [u8]) -> ChainGroupItem<'a> {
        ChainGroupItem {
            msg,
            layer: self.layer,
            tree: self.tree_idx,
            leaf: self.leaf_idx,
        }
    }

    /// The address of the signing leaf's WOTS+ key pair.
    fn keypair_adrs(&self) -> Address {
        keypair_adrs(self.layer, self.tree_idx, self.leaf_idx)
    }

    /// The `H` address of the subtree's nodes.
    fn node_adrs(&self) -> Address {
        let mut adrs = Address::new();
        adrs.set_layer(self.layer);
        adrs.set_tree(self.tree_idx);
        adrs.set_type(AddressType::Tree);
        adrs
    }
}

/// The subtrees a signature uses, bottom to top, from the (`tree_idx`,
/// `leaf_idx`) the digest selects at layer 0 (Fig. 2's loop).
pub fn subtree_items(params: &Params, tree_idx: u64, leaf_idx: u32) -> Vec<SubtreeItem> {
    let bottom = SubtreeItem {
        layer: 0,
        tree_idx,
        leaf_idx,
    };
    std::iter::successors(Some(bottom), |item| Some(item.parent(params)))
        .take(params.d)
        .collect()
}

/// The treehash leaf filler, for several subtrees at once: `out` takes
/// an equal share of leaves `0..` for every one of them, subtree after
/// subtree, and all of them come from one [`wots::pk_gen_many`] call —
/// two 8-leaf subtrees are one full zmm group where each alone is half of
/// one. Items' `leaf_idx` fields are not consulted.
///
/// # Panics
///
/// Panics if `out` does not divide into whole leaves, as many for each
/// subtree.
pub fn wots_leaves_many_into(
    ctx: &HashCtx,
    sk_seed: &[u8],
    subtrees: &[SubtreeItem],
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
        .flat_map(|item| (0..each as u32).map(|leaf| keypair_adrs(item.layer, item.tree_idx, leaf)))
        .collect();
    wots::pk_gen_many(ctx, sk_seed, &adrs_list, out);
}

/// Builds the items' XMSS subtrees, every node of each retained in one
/// buffer (tree `j` of the result is item `j`'s subtree) — the one way a
/// subtree is ever built: all the subtrees' WOTS+ leaves in one fill
/// ([`wots_leaves_many_into`]), every level above them halved across all
/// the subtrees at once ([`merkle::treehash_many_levels`]). Signing
/// slices a leaf's authentication path out of the result, key generation
/// a root, and a cache keeps a subtree's leaves ([`subtrees_from_leaves`]).
/// Items' `leaf_idx` fields are not consulted; a subtree's nodes do not
/// depend on what else is in the call.
pub fn subtrees(ctx: &HashCtx, sk_seed: &[u8], items: &[SubtreeItem]) -> TreeLevels {
    levels_above(ctx, items, |leaves| {
        wots_leaves_many_into(ctx, sk_seed, items, leaves)
    })
}

/// [`subtrees`] again from the leaves an earlier build kept
/// ([`TreeLevels::leaves`] of each item's subtree, back to back in item
/// order): only the `2^h' − 1` nodes above each subtree's leaves are
/// hashed, in one sweep across the items, and the result is
/// byte-identical to what [`subtrees`] returns.
///
/// # Panics
///
/// Panics if `leaves` does not hold `2^h'` leaves for each item.
pub fn subtrees_from_leaves(ctx: &HashCtx, items: &[SubtreeItem], leaves: &[u8]) -> TreeLevels {
    levels_above(ctx, items, |buf| buf.copy_from_slice(leaves))
}

/// The items' subtrees as [`merkle::treehash_many_levels`] builds them
/// over leaves `fill` writes, each item a job at its subtree's address.
fn levels_above(ctx: &HashCtx, items: &[SubtreeItem], fill: impl FnOnce(&mut [u8])) -> TreeLevels {
    let jobs: Vec<merkle::TreeHashJob> = items
        .iter()
        .map(|item| merkle::TreeHashJob {
            leaf_idx: 0,
            node_adrs: item.node_adrs(),
            leaf_offset: 0,
        })
        .collect();
    merkle::treehash_many_levels(ctx, ctx.params().tree_height(), &jobs, fill)
}

/// The `TREE_Sign` stage: the items' subtrees built in one [`subtrees`]
/// call, each sliced at its own signing leaf — the root the layer above
/// signs, and the authentication path the signature carries.
pub fn tree_sign(ctx: &HashCtx, sk_seed: &[u8], items: &[SubtreeItem]) -> Vec<TreeHashOutput> {
    let built = subtrees(ctx, sk_seed, items);
    items
        .iter()
        .enumerate()
        .map(|(j, item)| built.output_for(j, item.leaf_idx))
        .collect()
}

/// One XMSS layer of verification for a group of signatures: signature
/// `s` is `sig(s)` at subtree `items[s]`, all of one layer, and
/// `scratch.roots[s*n..]`
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
/// [`HashCtx::f_chains_in`] ([`wots::pks_in`]) and every leaf's climb a
/// level of the whole group at a time ([`merkle::roots_in`]).
///
/// # Panics
///
/// Panics if a signature's shape is malformed, or there are more
/// signatures than the group holds.
pub(crate) fn xmss_roots_group<'s>(
    ctx: &HashCtx,
    scratch: &mut Scratch,
    sig: impl Fn(usize) -> &'s XmssSig,
    items: &[SubtreeItem],
) {
    let params = ctx.params();
    let (n, len, height) = (params.n, params.wots_len(), params.tree_height());
    let count = items.len();
    assert!(count <= scratch.width, "one group of signatures at most");
    let keypair = |s: usize| items[s].keypair_adrs();
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
            lanes::put_nodes(chains, sig.wots_sig.as_bytes());
            lanes::put_nodes(auth, sig.auth_path.as_bytes());
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
                node_adrs: items[s].node_adrs().compressed_words(),
                leaf_idx: items[s].leaf_idx,
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
                leaf_idx: items[s].leaf_idx,
                auth_path: sig(s).auth_path.as_bytes(),
                node_adrs: items[s].node_adrs(),
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
    let sigs = (0..count).map(|s| {
        let wots_sig = sig(s).wots_sig.as_bytes();
        (wots_sig, &roots[s * n..(s + 1) * n], keypair(s))
    });
    let run = |nodes: &mut [u8], jobs: &[ChainJob]| ctx.f_chains_in(nodes, jobs, adrs, live);
    leaves.resize(count * n, 0);
    wots::pks_in(ctx, sigs, digits, bytes, jobs, run, leaves);
    let climb = |s: usize| merkle::AuthPathJob {
        leaf: &leaves[s * n..(s + 1) * n],
        leaf_idx: items[s].leaf_idx,
        auth_path: sig(s).auth_path.as_bytes(),
        node_adrs: items[s].node_adrs(),
        leaf_offset: 0,
    };
    merkle::roots_in(ctx, count, climb, roots);
}

/// The hypertree public root: the root of the single top-layer tree.
pub fn public_root(ctx: &HashCtx, sk_seed: &[u8]) -> Vec<u8> {
    let top = SubtreeItem {
        layer: ctx.params().d as u32 - 1,
        tree_idx: 0,
        leaf_idx: 0,
    };
    subtrees(ctx, sk_seed, &[top]).root(0).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sign::verify_stages::xmss_many;

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

    /// A hypertree signature of `msg` from (`tree_idx`, `leaf_idx`) at
    /// layer 0 up: the `TREE_Sign` stage, then the `WOTS+_Sign` stage
    /// over `msg` and the roots it built.
    fn sign(
        ctx: &HashCtx,
        msg: &[u8],
        sk_seed: &[u8],
        tree_idx: u64,
        leaf_idx: u32,
    ) -> HtSignature {
        let items = subtree_items(ctx.params(), tree_idx, leaf_idx);
        let trees = tree_sign(ctx, sk_seed, &items);
        let signed = std::iter::once(msg).chain(trees.iter().map(|tree| &tree.root[..]));
        let chains: Vec<ChainGroupItem> = items
            .iter()
            .zip(signed)
            .map(|(item, msg)| item.chains(msg))
            .collect();
        let layers = wots::sign_chain_groups(ctx, sk_seed, &chains)
            .into_iter()
            .zip(trees)
            .map(|(wots_sig, tree)| XmssSig {
                wots_sig,
                auth_path: tree.auth_path,
            })
            .collect();
        HtSignature { layers }
    }

    /// The top root a hypertree signature reconstructs, layer by layer
    /// through the XMSS stage of verification for a group of one (what
    /// `VerifyingKey::verify_many` does across signatures).
    fn root_from_sig(
        ctx: &HashCtx,
        sig: &HtSignature,
        msg: &[u8],
        tree_idx: u64,
        leaf_idx: u32,
    ) -> Vec<u8> {
        let items = subtree_items(ctx.params(), tree_idx, leaf_idx);
        let mut node = msg.to_vec();
        for (sig, item) in sig.layers.iter().zip(&items) {
            node = xmss_many(ctx, &[sig], &[&node], &[*item]).remove(0);
        }
        node
    }

    #[test]
    fn coordinates_walk_matches_reference_loop() {
        let p = Params::sphincs_128f();
        let items = subtree_items(&p, 0b101_011_111, 5);
        let coords: Vec<(u32, u64, u32)> = items
            .iter()
            .map(|item| (item.layer, item.tree_idx, item.leaf_idx))
            .collect();
        assert_eq!(coords.len(), p.d);
        assert_eq!(coords[0], (0, 0b101_011_111, 5));
        assert_eq!(coords[1], (1, 0b101_011, 0b111));
        assert_eq!(coords[2], (2, 0b101, 0b011));
        assert_eq!(coords[3], (3, 0, 0b101));
        assert_eq!(coords[4], (4, 0, 0));
    }

    #[test]
    fn xmss_roundtrip_all_leaves() {
        let (params, ctx, sk_seed) = setup();
        let msg = vec![0xC3u8; params.n];
        let item = SubtreeItem {
            layer: 0,
            tree_idx: 3,
            leaf_idx: 0,
        };
        let built = subtrees(&ctx, &sk_seed, &[item]);
        // Its leaves alone rebuild every node.
        assert_eq!(subtrees_from_leaves(&ctx, &[item], built.leaves(0)), built);
        for leaf_idx in 0..params.subtree_leaves() as u32 {
            let (sig, root) = reference::xmss_sign(&ctx, &msg, &sk_seed, 0, 3, leaf_idx);
            assert_eq!(built.root(0), root);
            assert_eq!(built.auth_path(0, leaf_idx), sig.auth_path);
            let item = SubtreeItem { leaf_idx, ..item };
            assert_eq!(xmss_many(&ctx, &[&sig], &[&msg], &[item]), [root]);
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
            let made: Vec<(XmssSig, Vec<u8>, SubtreeItem)> = (0..count)
                .map(|i| {
                    let msg: Vec<u8> = (0..params.n).map(|b| (i * 29 + b) as u8).collect();
                    let item = SubtreeItem {
                        layer: 1,
                        tree_idx: i as u64 % 4,
                        leaf_idx: i as u32 % params.subtree_leaves() as u32,
                    };
                    let (sig, _) =
                        reference::xmss_sign(&ctx, &msg, &sk_seed, 1, item.tree_idx, item.leaf_idx);
                    (sig, msg, item)
                })
                .collect();
            let sigs: Vec<&XmssSig> = made.iter().map(|(sig, ..)| sig).collect();
            let msgs: Vec<&[u8]> = made.iter().map(|(_, msg, _)| msg.as_slice()).collect();
            let items: Vec<SubtreeItem> = made.iter().map(|(.., item)| *item).collect();
            let batched = xmss_many(&ctx, &sigs, &msgs, &items);
            assert_eq!(batched.len(), count);
            for (i, (sig, msg, item)) in made.iter().enumerate() {
                assert_eq!(
                    batched[i],
                    reference::xmss_pk_from_sig(&ctx, sig, msg, 1, item.tree_idx, item.leaf_idx),
                    "count={count} request {i}"
                );
            }
        }
        assert!(xmss_many(&ctx, &[], &[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "WOTS+ message must be n bytes")]
    fn sign_rejects_a_long_message() {
        let (params, ctx, sk_seed) = setup();
        let _ = sign(&ctx, &vec![0x77u8; params.n + 1], &sk_seed, 2, 1);
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
        let leaves = |layer: u32, tree_idx: u64| {
            let mut out = vec![0u8; 2 * n];
            let item = SubtreeItem {
                layer,
                tree_idx,
                leaf_idx: 0,
            };
            wots_leaves_many_into(&ctx, &sk_seed, &[item], &mut out);
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
