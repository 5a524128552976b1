//! The fused FORS tree kernel behind [`crate::fors::tree_hash_many`]: the
//! paper's Tree Fusion (§III-B) restated for SIMD lanes. Where the GPU
//! packs many independent trees into one block so its threads stay busy
//! from the leaves to the roots, here each lane of a register group owns
//! one whole tree, and the group builds all of them in lockstep without
//! a byte leaving the registers in between.
//!
//! Per leaf the lane runs `PRF` and then `F`, two one-block calls whose
//! addresses differ in the type byte alone, and pushes the leaf on an
//! in-lane treehash stack; whenever the leaf index says two nodes of one
//! height are waiting — the same moment in every lane — `H` joins them
//! (one block at `n = 16`, two chained compressions above). The secret
//! of the leaf a lane was asked to reveal and the siblings along that
//! leaf's path are kept by masked moves as they come by. A group of `L`
//! trees of `t` leaves therefore costs `2t + (t − 1)` group calls and
//! touches bytes twice: to load `L` addresses, and to store `L` roots,
//! secrets and authentication paths.
//!
//! One body ([`zmm::run_group`]) over the vocabulary of
//! [`crate::lanes`], instantiated for zmm and ymm registers; the chain
//! kernel's ladder ([`crate::tier::sha256_chain_tier`]) picks between
//! them, and between them and no body at all.

use crate::address::Address;
use crate::fors::ForsTreeSig;
use crate::lanes::{
    first, height_word, lane_bodies, put_adrs, seed_words, take_words, tweak, Row, ADRS_WORDS,
    MAX_NODE_WORDS,
};
use crate::nodes::Nodes;
use crate::tier;

/// The tallest tree a lane can own: `Params::validate`'s bound on
/// `log_t`.
const MAX_HEIGHT: usize = 16;

/// What a lane that keeps nothing has for a leaf index: no leaf, and at
/// no height the sibling of a node (`log_t ≤ 16` leaves its high bits
/// set).
const NO_LEAF: u32 = u32::MAX;

/// One lane's work: a whole tree, forest-global coordinates included.
pub(crate) struct Tree {
    /// The `F`/`H` address of the tree's nodes (type `ForsTree`, key pair
    /// set); height and index are written per call.
    pub node_adrs: Address,
    /// The `PRF` address of its secrets (type `ForsPrf`, the same key
    /// pair).
    pub prf_adrs: Address,
    /// Forest-global index of the tree's first leaf, a multiple of the
    /// leaf count.
    pub leaf_offset: u32,
    /// The leaf, counted within the tree, whose secret and
    /// authentication path are kept, if any.
    pub leaf_idx: Option<u32>,
}

/// A group of trees in transposed form, `x[word][lane]`, and what the
/// body leaves behind for each.
#[derive(Default)]
struct Group {
    /// Message words `0..5` of each lane's node address at height 0.
    adrs: [Row; ADRS_WORDS],
    /// Message word 2 of each lane's `PRF` calls.
    prf_word2: Row,
    leaf_offset: Row,
    leaf_idx: Row,
    root: [Row; MAX_NODE_WORDS],
    sk: [Row; MAX_NODE_WORDS],
    auth: [[Row; MAX_NODE_WORDS]; MAX_HEIGHT],
}

/// The resident body of one ISA tier and node width.
pub(crate) struct Kernel {
    /// Trees a [`Group`] holds.
    pub(crate) lanes: usize,
    /// Builds a group's trees of `height` levels from the seeded state
    /// `iv`, secrets from `sk_seed` (as big-endian words)
    /// ([`zmm::run_group`]).
    body: Body,
}

impl Kernel {
    /// The body of the active chain tier for `n`-byte nodes; `None` on
    /// the `scalar` rung, which has none.
    pub(crate) fn active(n: usize) -> Option<Self> {
        body_for(tier::sha256_chain_tier(), n).map(|(lanes, body)| Kernel { lanes, body })
    }

    /// Builds every tree of `trees` — `height` levels, nodes and
    /// secrets of `sk_seed`'s width — from the seeded SHA-256 state `iv`,
    /// a group of lanes at a time. Tree `j`'s root goes to
    /// `roots[j·n..]`, and each tree that has a [`Tree::leaf_idx`]
    /// appends to `sigs` the secret under it with that leaf's siblings
    /// bottom up.
    pub(crate) fn run(
        &self,
        iv: &[u32; 8],
        height: usize,
        sk_seed: &[u8],
        trees: &[Tree],
        sigs: &mut Vec<ForsTreeSig>,
        roots: &mut [u8],
    ) {
        let n = sk_seed.len();
        assert!(height <= MAX_HEIGHT, "tree taller than log_t may be");
        assert_eq!(roots.len(), trees.len() * n, "one root per tree");
        let seed_words = seed_words(sk_seed);

        for (members, roots) in trees
            .chunks(self.lanes)
            .zip(roots.chunks_mut(self.lanes * n))
        {
            let mut group = Group::default();
            for (lane, tree) in members.iter().enumerate() {
                let leaf_idx = tree.leaf_idx.unwrap_or(NO_LEAF);
                assert!(
                    leaf_idx < 1 << height || leaf_idx == NO_LEAF,
                    "leaf index out of range"
                );
                assert!(
                    tree.leaf_offset.is_multiple_of(1 << height),
                    "leaf offset must be a multiple of the tree size"
                );
                put_adrs(&mut group.adrs, lane, tree.node_adrs.compressed_words());
                group.prf_word2[lane] = tree.prf_adrs.compressed_words()[2];
                group.leaf_offset[lane] = tree.leaf_offset;
                group.leaf_idx[lane] = leaf_idx;
            }
            // SAFETY: `Kernel::active` is the only constructor; it pairs
            // each body with the tier it was compiled for, and the tier
            // cache only ever holds a tier whose CPU features
            // `tier::supported` detected.
            unsafe { (self.body)(iv, &seed_words, height, &mut group) };
            for (lane, (tree, root)) in members.iter().zip(roots.chunks_exact_mut(n)).enumerate() {
                take_words(&group.root, lane, root);
                if tree.leaf_idx.is_none() {
                    continue;
                }
                let mut sk = vec![0u8; n];
                take_words(&group.sk, lane, &mut sk);
                let mut auth_path = vec![0u8; height * n];
                for (rows, node) in group.auth.iter().zip(auth_path.chunks_exact_mut(n)) {
                    take_words(rows, lane, node);
                }
                sigs.push(ForsTreeSig {
                    sk,
                    auth_path: Nodes::from_bytes(n, auth_path),
                });
            }
        }
    }
}

lane_bodies! {
    /// The kernel proper: every lane of `group` builds its tree of
    /// `height` levels, nodes of `NW` words.
    fn run_group<const NW: usize>(
        iv: &[u32; 8],
        sk_seed: &[u32; MAX_NODE_WORDS],
        height: usize,
        group: &mut Group,
    ) {
        let iv = iv.map(|word| V::splat(word));
        let sk_seed: [V; NW] = std::array::from_fn(|i| V::splat(sk_seed[i]));
        let mut adrs: [V; ADRS_WORDS] = std::array::from_fn(|i| V::load(&group.adrs[i]));
        let (node_word2, prf_word2) = (adrs[2], V::load(&group.prf_word2));
        let leaf_offset = V::load(&group.leaf_offset);
        let leaf_idx = V::load(&group.leaf_idx);

        let zero = V::splat(0);
        // `stack[z]` is the left node waiting at height `z`; the root ends
        // up in `stack[height]`.
        let mut stack = [[zero; NW]; MAX_HEIGHT + 1];
        let mut auth = [[zero; NW]; MAX_HEIGHT + 1];
        let mut sk = [zero; NW];

        for leaf in 0..1u32 << height {
            let index = leaf_offset.add(V::splat(leaf));
            adrs[2] = prf_word2;
            adrs[4] = V::splat(height_word(0));
            let secret: [V; NW] = first(tweak!(&iv, &adrs, index, [&sk_seed]));
            for (kept, new) in sk.iter_mut().zip(secret) {
                *kept = V::if_eq(V::splat(leaf), leaf_idx, new, *kept);
            }
            adrs[2] = node_word2;
            let mut node: [V; NW] = first(tweak!(&iv, &adrs, index, [&secret]));

            // `node` is node `leaf >> z` of level `z`: the sibling the path
            // wants where that is the path's own node with the last bit
            // flipped; a left child that waits; a right child that joins
            // the left one waiting for it.
            let mut z = 0;
            loop {
                let wanted = V::splat((leaf >> z) ^ 1);
                for (kept, &new) in auth[z].iter_mut().zip(&node) {
                    *kept = V::if_eq(leaf_idx.shr(z as u32), wanted, new, *kept);
                }
                if (leaf >> z) & 1 == 0 {
                    stack[z] = node;
                    break;
                }
                let left = &stack[z];
                z += 1;
                adrs[4] = V::splat(height_word(z as u32));
                node = first(tweak!(&iv, &adrs, index.shr(z as u32), [left, &node]));
            }
        }

        for (word, slot) in stack[height].into_iter().zip(&mut group.root) {
            word.store(slot);
        }
        for (word, slot) in sk.into_iter().zip(&mut group.sk) {
            word.store(slot);
        }
        for (node, rows) in auth.into_iter().zip(&mut group.auth) {
            for (word, slot) in node.into_iter().zip(rows) {
                word.store(slot);
            }
        }
    }
}
