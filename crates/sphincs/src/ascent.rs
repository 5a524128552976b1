//! The lane-resident ascent behind batched verification
//! ([`crate::fors::pk_from_sig_many`],
//! [`crate::hypertree::xmss_pk_from_sig_many`]): the counterpart of
//! [`crate::forest`] for the side that is handed a tree's nodes instead
//! of building them. Verifying fills the machine across signatures, not
//! inside one — every step of a climb waits for the step below it, but
//! the climbs of a batch are independent — so here a lane owns one climb
//! from its leaf to its root, and nothing of it is bytes in between.
//!
//! A climb is a leaf hashed from what the lane holds — `F` of a revealed
//! FORS secret, `T_len` of a WOTS+ key's chain ends, `T_k` of a forest's
//! roots: all one [`absorb`] of so many payload words — and then one `H`
//! per authentication node, the node going left or right of its sibling
//! by a blend on that level's bit of the leaf index. What a lane is
//! depends on who calls:
//!
//! | lane | leaf | levels |
//! |---|---|---|
//! | one FORS tree of one signature | `F(sk)` at the forest-global leaf | `log_t` |
//! | one signature's XMSS layer | `T_len` over the chain ends the chain kernel left transposed | `h'` |
//! | one signature's forest | `T_k` over the roots the first kind of lane left | none |
//!
//! One generic body ([`run_group`]) over the vocabulary of
//! [`crate::lanes`], instantiated for zmm and ymm registers; the chain
//! kernel's ladder ([`crate::tier::sha256_chain_tier`]) picks between
//! them, and between them and no body at all.

use crate::address::Address;
use crate::lanes::{
    absorb, first, height_word, lane_bodies, move_words, put_adrs, put_words, take_words, tweak,
    Lanes, Row, ADRS_WORDS, MAX_NODE_WORDS,
};
use crate::tier;

/// One lane's work: a leaf and the path from it to a root.
pub(crate) struct Climb<'a> {
    /// The address the leaf is hashed under, last field included.
    pub leaf_adrs: Address,
    /// The `H` address of the tree's nodes; height and index are written
    /// per level.
    pub node_adrs: Address,
    /// Index of the leaf in its tree — forest-global, for a FORS tree.
    pub leaf_idx: u32,
    /// The sibling at every level, bottom up.
    pub auth_path: &'a [Vec<u8>],
}

/// A group of climbs in transposed form, `x[word][lane]`.
pub(crate) struct Group {
    /// Words of a node.
    nw: usize,
    /// Message words `0..5` of each lane's leaf call, and its last field.
    leaf_adrs: [Row; ADRS_WORDS],
    leaf_last: Row,
    /// What each lane's leaf call hashes: `leaf[node · nw + word]`.
    leaf: Vec<Row>,
    /// Message words `0..5` of each lane's node address at height 0.
    node_adrs: [Row; ADRS_WORDS],
    leaf_idx: Row,
    /// Each lane's siblings: `auth[level · nw + word]`.
    auth: Vec<Row>,
    root: [Row; MAX_NODE_WORDS],
}

impl Group {
    /// A group whose leaves hash `leaf_nodes` nodes of `n` bytes and
    /// climb `height` levels.
    pub(crate) fn new(n: usize, leaf_nodes: usize, height: usize) -> Self {
        let nw = n / 4;
        Group {
            nw,
            leaf_adrs: Default::default(),
            leaf_last: Row::default(),
            leaf: vec![Row::default(); leaf_nodes * nw],
            node_adrs: Default::default(),
            leaf_idx: Row::default(),
            auth: vec![Row::default(); height * nw],
            root: Default::default(),
        }
    }

    /// Gives lane `lane` its climb.
    ///
    /// # Panics
    ///
    /// Panics if the path is not the group's height of `n`-byte nodes.
    pub(crate) fn set_lane(&mut self, lane: usize, climb: &Climb) {
        let nw = self.nw;
        assert_eq!(
            climb.auth_path.len() * nw,
            self.auth.len(),
            "authentication path height"
        );
        put_adrs(
            &mut self.leaf_adrs,
            lane,
            climb.leaf_adrs.compressed_words(),
        );
        self.leaf_last[lane] = climb.leaf_adrs.tree_index();
        put_adrs(
            &mut self.node_adrs,
            lane,
            climb.node_adrs.compressed_words(),
        );
        self.leaf_idx[lane] = climb.leaf_idx;
        for (rows, node) in self.auth.chunks_exact_mut(nw).zip(climb.auth_path) {
            assert_eq!(node.len(), 4 * nw, "authentication node must be n bytes");
            put_words(rows, lane, node);
        }
    }

    /// The one node lane `lane`'s leaf call hashes.
    pub(crate) fn set_leaf(&mut self, lane: usize, node: &[u8]) {
        assert_eq!(
            node.len(),
            4 * self.leaf.len(),
            "leaf must be one n-byte node"
        );
        put_words(&mut self.leaf, lane, node);
    }

    /// What every lane's leaf call hashes, for whoever has it transposed
    /// already: word `word` of node `at` is row `at · n/4 + word`.
    pub(crate) fn leaf_rows(&mut self) -> &mut [Row] {
        &mut self.leaf
    }

    /// Lane `lane`'s root, as bytes.
    pub(crate) fn root_into(&self, lane: usize, root: &mut [u8]) {
        take_words(&self.root[..self.nw], lane, root);
    }

    /// [`Group::root_into`] a buffer of its own.
    pub(crate) fn root(&self, lane: usize) -> Vec<u8> {
        let mut root = vec![0u8; 4 * self.nw];
        self.root_into(lane, &mut root);
        root
    }

    /// Lane `lane`'s root becomes node `at` of what lane `to` of `other`
    /// hashes, as the words it is.
    pub(crate) fn root_to_leaf(&self, lane: usize, other: &mut Group, to: usize, at: usize) {
        let nw = self.nw;
        move_words(&self.root[..nw], lane, &mut other.leaf[at * nw..][..nw], to);
    }
}

/// The resident body of one ISA tier and node width.
pub(crate) struct Kernel {
    /// Climbs a [`Group`] holds.
    pub(crate) lanes: usize,
    /// Takes every lane of a group from its leaf to its root, from the
    /// seeded state `iv`. The CPU must support the ISA the body was
    /// compiled for.
    body: unsafe fn(iv: &[u32; 8], group: &mut Group),
}

lane_bodies!(run_group(iv: &[u32; 8], group: &mut Group));

impl Kernel {
    /// The body of the active chain tier for `n`-byte nodes; `None` on
    /// the `scalar` rung, which has none.
    pub(crate) fn active(n: usize) -> Option<Self> {
        body_for(tier::sha256_chain_tier(), n).map(|(lanes, body)| Kernel { lanes, body })
    }

    /// Runs every lane of `group` — those never set climb from nothing to
    /// a root nobody reads — from the seeded SHA-256 state `iv`.
    pub(crate) fn run(&self, iv: &[u32; 8], group: &mut Group) {
        // SAFETY: `Kernel::active` is the only constructor; it pairs each
        // body with the tier it was compiled for, and the tier cache only
        // ever holds a tier whose CPU features `tier::supported`
        // detected.
        unsafe { (self.body)(iv, group) };
    }
}

/// The kernel proper: every lane of `group` hashes its leaf and climbs
/// its path, nodes of `NW` words.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
unsafe fn run_group<V: Lanes, const NW: usize>(iv: &[u32; 8], group: &mut Group) {
    debug_assert_eq!(group.nw, NW);
    // SAFETY (the closures): the caller's contract, which a closure body
    // does not inherit.
    let iv = iv.map(|word| unsafe { V::splat(word) });
    let leaf_adrs: [V; ADRS_WORDS] =
        std::array::from_fn(|i| unsafe { V::load(&group.leaf_adrs[i]) });
    let leaf_last = V::load(&group.leaf_last);
    let mut node: [V; NW] = first(absorb(&iv, &leaf_adrs, leaf_last, &group.leaf));

    let mut adrs: [V; ADRS_WORDS] =
        std::array::from_fn(|i| unsafe { V::load(&group.node_adrs[i]) });
    let leaf_idx = V::load(&group.leaf_idx);
    let zero = V::splat(0);
    for (z, sibling) in group.auth.chunks_exact(NW).enumerate() {
        let z = z as u32;
        let sibling: [V; NW] = std::array::from_fn(|i| unsafe { V::load(&sibling[i]) });
        // Zero where the node is a left child: bit `z` of the leaf index.
        let side = leaf_idx.shr(z).shl(31);
        let left: [V; NW] =
            std::array::from_fn(|i| unsafe { V::if_eq(side, zero, node[i], sibling[i]) });
        let right: [V; NW] =
            std::array::from_fn(|i| unsafe { V::if_eq(side, zero, sibling[i], node[i]) });
        adrs[4] = V::splat(height_word(z + 1));
        node = first(tweak(&iv, &adrs, leaf_idx.shr(z + 1), [&left, &right]));
    }

    for (word, slot) in node.into_iter().zip(&mut group.root) {
        word.store(slot);
    }
}
