//! The lane-resident ascent, one of the bodies a stage of
//! [`crate::sign::VerifyingKey::verify_many`]'s pipeline picks (the FORS
//! stage in `fors::pks_group`, each XMSS layer in
//! `hypertree::xmss_roots_group`): the counterpart of
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
//! | lane | leaf | levels | root |
//! |---|---|---|---|
//! | one FORS tree of one signature | `F(sk)` at the forest-global leaf | `log_t` | over `sk`, for `T_k` |
//! | one signature's XMSS layer | `T_len` over the chain ends the chain kernel left where the revealed nodes were | `h'` | a row lane |
//! | one signature's forest | `T_k` over the roots the first kind of lane left | none | a row lane |
//!
//! A group goes into the lanes and comes out whole, as the chain kernel's
//! does ([`crate::chain`]): a call's [`Climb`]s are gathered field by
//! field, a lane each, and every node a lane hashes — the leaf's payload
//! and the authentication path — is gathered from the call's words, where
//! the caller has read the signatures out sequentially. Roots come out
//! as rows, a signature per lane, or are scattered back over the first
//! node of each lane's leaf. Between one stage and the next, a group's
//! roots are `n` bytes a signature in the call's scratch, whichever body
//! made them: the next layer's digits are read from there
//! ([`crate::hypertree`]). [`Resident`] is what one verification call
//! keeps in the lanes for all of it.
//!
//! One generic body ([`run_group`]) over the vocabulary of
//! [`crate::lanes`], instantiated for zmm and ymm registers; the chain
//! kernel's ladder ([`crate::tier::sha256_chain_tier`]) picks between
//! them, and between them and no body at all.

use crate::chain;
use crate::hash::HashCtx;
use crate::lanes::{
    absorb, first, height_word, lane_bodies, tweak, Lanes, Row, ADRS_WORDS, MAX_NODE_WORDS,
};
use crate::tier;

/// One lane's work, as the body gathers it: a leaf and the path from it
/// to a root.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C)]
pub(crate) struct Climb {
    /// Message words `0..5` of the address the leaf is hashed under.
    pub leaf_adrs: [u32; ADRS_WORDS],
    /// That address's last field.
    pub leaf_last: u32,
    /// Message words `0..5` of the tree's `H` address, height and index
    /// zero; the body writes them per level.
    pub node_adrs: [u32; ADRS_WORDS],
    /// Index of the leaf in its tree — forest-global, for a FORS tree.
    pub leaf_idx: u32,
    /// Where the lane's first node is in the call's words ([`Shape`]).
    pub at: u32,
    /// Rounds the climb up to a power of two of words.
    pub pad: [u32; 3],
}

/// Words of a [`Climb`], which the body gathers field by field: a power
/// of two, so that a lane's climb becomes its first word by a shift.
const CLIMB_WORDS: usize = std::mem::size_of::<Climb>() / 4;
const _: () = assert!(CLIMB_WORDS.is_power_of_two());

/// Lane `i` holds `i`: a group's climbs, counted from its first.
const IOTA: Row = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// Where a call's nodes lie, from each [`Climb::at`] on: the `leaf_nodes`
/// nodes of the leaf's payload, then the `height` nodes of the
/// authentication path bottom up, every node `stride` words after the
/// one before; a node's words are consecutive.
pub(crate) struct Shape {
    pub leaf_nodes: usize,
    pub height: usize,
    pub stride: usize,
}

/// The resident body of one ISA tier and node width.
pub(crate) struct Kernel {
    /// Climbs a group holds.
    pub(crate) lanes: usize,
    /// Words of a node.
    nw: usize,
    /// Takes the climbs of one group from leaf to root ([`Body`]).
    body: Body,
}

/// Takes the climbs of one group — `1..=lanes` of them — from leaf to
/// root, from the seeded state `iv`, into rows lane by lane or, with no
/// rows, over the first node of each lane's leaf. The CPU must support
/// the ISA the body was compiled for; every node of every climb lies
/// within the words.
type Body = unsafe fn(
    iv: &[u32; 8],
    climbs: &[Climb],
    shape: &Shape,
    words: &mut [u32],
    roots: Option<&mut Nodes>,
);

lane_bodies!(run_group(
    iv: &[u32; 8],
    climbs: &[Climb],
    shape: &Shape,
    words: &mut [u32],
    roots: Option<&mut Nodes>
));

impl Kernel {
    /// The body of the active chain tier for `n`-byte nodes; `None` on
    /// the `scalar` rung, which has none.
    pub(crate) fn active(n: usize) -> Option<Self> {
        body_for(tier::sha256_chain_tier(), n).map(|(lanes, body)| Kernel {
            lanes,
            nw: n / 4,
            body,
        })
    }

    /// Runs every climb of `climbs` over the nodes `shape` puts in
    /// `words`. With `roots`, there is one group at most and root `i`
    /// lands in lane `i` of the rows; without, each root replaces the
    /// first node of its climb's leaf.
    ///
    /// # Panics
    ///
    /// Panics if a climb's nodes do not lie within `words`, or there are
    /// more climbs than lanes for `roots`.
    pub(crate) fn run(
        &self,
        iv: &[u32; 8],
        climbs: &[Climb],
        shape: &Shape,
        words: &mut [u32],
        mut roots: Option<&mut Nodes>,
    ) {
        assert!(
            roots.is_none() || climbs.len() <= self.lanes,
            "one group of roots at most"
        );
        // The body's gathers take signed 32-bit indices.
        assert!(
            words.len() <= i32::MAX as usize,
            "a call's words must be indexable by i32"
        );
        let last_word = (shape.leaf_nodes + shape.height - 1) * shape.stride + self.nw - 1;
        assert!(
            climbs
                .iter()
                .all(|climb| climb.at as usize + last_word < words.len()),
            "every climb's nodes must lie within the words"
        );
        for group in climbs.chunks(self.lanes) {
            // SAFETY: `Kernel::active` is the only constructor; it pairs
            // each body with the tier it was compiled for, and the tier
            // cache only ever holds a tier whose CPU features
            // `tier::supported` detected. Every node lies within `words`
            // (asserted above).
            unsafe { (self.body)(iv, group, shape, words, roots.as_deref_mut()) };
        }
    }
}

/// The kernel proper: every lane of a group climbs from its leaf to its
/// root, nodes of `NW` words; a lane past the last climb runs the last
/// again.
///
/// # Safety
///
/// As [`Lanes`], and `climbs` is not empty and every node of every climb
/// lies within `words`.
#[inline(always)]
unsafe fn run_group<V: Lanes, const NW: usize>(
    iv: &[u32; 8],
    climbs: &[Climb],
    shape: &Shape,
    words: &mut [u32],
    roots: Option<&mut Nodes>,
) {
    // SAFETY (the closures): the caller's contract, which a closure body
    // does not inherit.
    let iv = iv.map(|word| unsafe { V::splat(word) });
    // SAFETY: a `Climb` is `repr(C)` of `CLIMB_WORDS` words.
    let fields = unsafe {
        std::slice::from_raw_parts(climbs.as_ptr().cast::<u32>(), climbs.len() * CLIMB_WORDS)
    };
    let climb = V::load_from(&IOTA)
        .min(V::splat(climbs.len() as u32 - 1))
        .shl(CLIMB_WORDS.trailing_zeros());
    let field = |at: usize| unsafe { V::gather(fields, climb.add(V::splat(at as u32))) };
    let leaf_adrs: [V; ADRS_WORDS] = std::array::from_fn(field);
    let leaf_last = field(ADRS_WORDS);
    let mut adrs: [V; ADRS_WORDS] = std::array::from_fn(|i| field(ADRS_WORDS + 1 + i));
    let leaf_idx = field(2 * ADRS_WORDS + 1);
    let at = field(2 * ADRS_WORDS + 2);

    // Word `w` of node `node` of every lane.
    let word = |node: usize, w: usize| unsafe {
        V::gather(words, at.add(V::splat((node * shape.stride + w) as u32)))
    };
    let payload = shape.leaf_nodes * NW;
    let mut node: [V; NW] = first(absorb(&iv, &leaf_adrs, leaf_last, payload, |i| {
        word(i / NW, i % NW)
    }));

    let zero = V::splat(0);
    for z in 0..shape.height {
        let sibling: [V; NW] = std::array::from_fn(|w| word(shape.leaf_nodes + z, w));
        let z = z as u32;
        // Zero where the node is a left child: bit `z` of the leaf index.
        let side = leaf_idx.shr(z).shl(31);
        let left: [V; NW] =
            std::array::from_fn(|i| unsafe { V::if_eq(side, zero, node[i], sibling[i]) });
        let right: [V; NW] =
            std::array::from_fn(|i| unsafe { V::if_eq(side, zero, sibling[i], node[i]) });
        adrs[4] = V::splat(height_word(z + 1));
        node = first(tweak(&iv, &adrs, leaf_idx.shr(z + 1), [&left, &right]));
    }

    match roots {
        Some(rows) => {
            for (word, row) in node.into_iter().zip(rows) {
                word.store(row);
            }
        }
        None => {
            for (w, word) in node.into_iter().enumerate() {
                word.scatter(words, at.add(V::splat(w as u32)));
            }
        }
    }
}

/// What one verification call runs in the lanes with: the seeded state,
/// both resident bodies, and the words and climbs every group and every
/// layer of it reuses ([`crate::sign::Scratch`] holds it).
pub(crate) struct Resident<'a> {
    pub iv: &'a [u32; 8],
    pub chains: chain::Kernel,
    pub ascent: Kernel,
    /// The group's nodes as big-endian words, read out of its signatures
    /// a signature after another: a FORS signature, or one XMSS layer.
    pub words: Vec<u32>,
    pub climbs: Vec<Climb>,
}

impl<'a> Resident<'a> {
    /// Both bodies for `ctx`, or `None` where the ladder has none or
    /// `ctx` does not hash with SHA-256.
    pub(crate) fn new(ctx: &'a HashCtx) -> Option<Self> {
        let params = ctx.params();
        let (n, k) = (params.n, params.k);
        let ascent = Kernel::active(n)?;
        let width = ascent.lanes;
        let forest = k * (1 + params.log_t);
        let layer = params.wots_len() + params.tree_height();
        Some(Resident {
            iv: ctx.sha256_seed_state()?,
            chains: chain::Kernel::active(n)?,
            ascent,
            words: Vec::with_capacity(width * forest.max(layer) * n / 4),
            climbs: Vec::with_capacity(width * k),
        })
    }

    /// Signatures a group holds: a lane each.
    pub(crate) fn width(&self) -> usize {
        self.ascent.lanes
    }

    /// Whether a group of `signatures` has its `T_k`, its `T_len`s and its
    /// XMSS authentication paths run a signature per lane, or signature by
    /// signature on bytes — the byte tail. A lane-wide `T_len` costs its
    /// ten compressions of the whole register whatever the group holds, a
    /// scalar one a signature's worth each; in the measured table of
    /// [`crate::tier`] the lanes are first ahead at four signatures in zmm
    /// and at two in ymm, and a body is not selected where it is not
    /// ahead.
    pub(crate) fn ascends_in_lanes(&self, signatures: usize) -> bool {
        signatures
            >= if self.width() == crate::fors::LANE_SIGNATURES {
                4
            } else {
                2
            }
    }
}

/// Rows of `n/4` words, a node per lane: what a group of signatures
/// holds from one stage of verification to the next.
pub(crate) type Nodes = [Row; MAX_NODE_WORDS];
