//! The WOTS+ leaf kernel behind [`crate::wots::pk_gen_many`]: the fourth
//! lane-resident SHA-256 body, and the one a signature spends most of its
//! time in — every subtree fill, cache fill, warm-up and key generation
//! comes through it.
//!
//! A leaf of an XMSS tree is a whole WOTS+ public key: `len` secrets, each
//! run to the end of its chain, and `T_len` over the ends. Here a lane
//! owns one key pair from the first `PRF` to the leaf. The lanes of a
//! group walk their chains in lockstep, chain `c` of every key pair at
//! once: `PRF` under the chain's `WotsPrf` address, then `w − 1` steps of
//! the chain's own [`ChainStep`] — every chain of a public key is full
//! length, so there is nothing to sort, nothing to mask and no address
//! per chain — and the end goes, as the words it is, where `T_len` wants
//! it. One [`absorb`] under each lane's `WotsPk` address then leaves the
//! leaves. Bytes are touched twice: to load a group's addresses, and to
//! store its leaves.
//!
//! A group the key pairs do not fill is shared out, the rule
//! [`crate::forest`] has for a short group: `m` key pairs get
//! `s = ⌊lanes / m⌋` lanes each, a key pair's `j`-th lane runs its chains
//! `j, j + s, …`, and the ends are gathered into one column per key pair
//! for `T_len`. An 8-leaf subtree in zmm is 18 passes of two chains a key
//! pair instead of 35 passes half empty; a lone key pair is three.
//!
//! One generic body ([`run_group`]) over the vocabulary of
//! [`crate::lanes`], instantiated for zmm and ymm registers; the chain
//! kernel's ladder ([`crate::tier::sha256_chain_tier`]) picks between
//! them, and between them and no body at all.

use crate::address::{Address, AddressType};
use crate::lanes::{
    absorb, first, lane_bodies, move_words, put_adrs, retyped, seed_words, take_words, tweak,
    ChainStep, Lanes, Row, ADRS_WORDS, MAX_LANES, MAX_NODE_WORDS,
};
use crate::params::Params;
use crate::{tier, wots};

/// The longest key a lane can own: `len` at the smallest `w` and the
/// largest `n` that `Params::validate` lets through (4 and 32).
const MAX_CHAINS: usize = 133;

/// A group of key pairs in transposed form, `x[word][lane]`. What is a
/// lane's while the chains run is, for `T_len` and after, a column's: as
/// many columns as key pairs, and `share` lanes to each.
#[derive(Default)]
struct Group {
    /// Lanes a key pair has; lane `l` works for the key pair of column
    /// `l / share`.
    share: usize,
    /// Message words `0..5` of the `F` address of each lane's key pair at
    /// chain 0.
    adrs: [Row; ADRS_WORDS],
    /// Message word 2 of each lane's `PRF` calls.
    prf_word2: Row,
    /// The first chain each lane runs: its place among its key pair's
    /// lanes.
    first_chain: Row,
    /// Message words `0..5` of the `T_len` address of each column's key
    /// pair.
    pk_adrs: [Row; ADRS_WORDS],
    /// Each column's leaf.
    leaf: [Row; MAX_NODE_WORDS],
}

/// The resident body of one ISA tier and node width.
pub(crate) struct Kernel {
    /// Key pairs a [`Group`] holds.
    lanes: usize,
    /// Takes every key pair of a group from its `len` secrets, derived
    /// from `sk_seed` (as big-endian words), through chains of `steps`
    /// steps to its leaf, from the seeded state `iv`. The CPU must support
    /// the ISA the body was compiled for.
    body: unsafe fn(
        iv: &[u32; 8],
        sk_seed: &[u32; MAX_NODE_WORDS],
        len: usize,
        steps: u32,
        group: &mut Group,
    ),
}

lane_bodies!(run_group(
    iv: &[u32; 8],
    sk_seed: &[u32; MAX_NODE_WORDS],
    len: usize,
    steps: u32,
    group: &mut Group
));

impl Kernel {
    /// The body of the active chain tier for the keys of `params`; `None`
    /// on the `scalar` rung, which has none, and for a shape no validated
    /// parameter set has: a key longer than a lane holds, or chains whose
    /// hash index outgrows what [`ChainStep`] keeps it in.
    pub(crate) fn active(params: &Params) -> Option<Self> {
        if params.wots_len() > MAX_CHAINS || params.w > 1 << 16 {
            return None;
        }
        body_for(tier::sha256_chain_tier(), params.n).map(|(lanes, body)| Kernel { lanes, body })
    }

    /// Writes the WOTS+ public key of the key pair at `adrs_list[r]`,
    /// secrets from `sk_seed`, into `out[r·n..]`, from the seeded SHA-256
    /// state `iv`, a group of lanes at a time.
    pub(crate) fn run(
        &self,
        iv: &[u32; 8],
        params: &Params,
        sk_seed: &[u8],
        adrs_list: &[Address],
        out: &mut [u8],
    ) {
        let n = params.n;
        assert_eq!(sk_seed.len(), n, "sk_seed must be n bytes");
        let sk_seed = seed_words(sk_seed);
        let (len, steps) = (params.wots_len(), params.w as u32 - 1);
        for (members, out) in adrs_list
            .chunks(self.lanes)
            .zip(out.chunks_mut(self.lanes * n))
        {
            let share = self.lanes / members.len();
            let mut group = Group {
                share,
                ..Group::default()
            };
            for (column, adrs) in members.iter().enumerate() {
                let words = wots::hash_adrs_for(adrs, 0).compressed_words();
                let mut pk_words = words;
                pk_words[2] = retyped(words[2], AddressType::WotsPk);
                put_adrs(&mut group.pk_adrs, column, pk_words);
                for place in 0..share {
                    let lane = column * share + place;
                    put_adrs(&mut group.adrs, lane, words);
                    group.prf_word2[lane] = retyped(words[2], AddressType::WotsPrf);
                    group.first_chain[lane] = place as u32;
                }
            }
            // SAFETY: `Kernel::active` is the only constructor; it pairs
            // each body with the tier it was compiled for, and the tier
            // cache only ever holds a tier whose CPU features
            // `tier::supported` detected.
            unsafe { (self.body)(iv, &sk_seed, len, steps, &mut group) };
            for (column, leaf) in out.chunks_exact_mut(n).enumerate() {
                take_words(&group.leaf, column, leaf);
            }
        }
    }
}

/// The kernel proper: every key pair of `group` — `len` chains of `steps`
/// steps, nodes of `NW` words — from its secrets to its leaf.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
unsafe fn run_group<V: Lanes, const NW: usize>(
    iv: &[u32; 8],
    sk_seed: &[u32; MAX_NODE_WORDS],
    len: usize,
    steps: u32,
    group: &mut Group,
) {
    // SAFETY (the closures): the caller's contract, which a closure body
    // does not inherit.
    let iv = iv.map(|word| unsafe { V::splat(word) });
    let sk_seed: [V; NW] = std::array::from_fn(|i| unsafe { V::splat(sk_seed[i]) });
    let zero = V::splat(0);
    let mut adrs: [V; ADRS_WORDS] = std::array::from_fn(|i| unsafe { V::load(&group.adrs[i]) });
    let (f_word2, prf_word2) = (adrs[2], V::load(&group.prf_word2));
    // The chain index goes across words 3 and 4 ([`crate::lanes::chain_words`]).
    let keypair_low = adrs[3];
    let first_chain = V::load(&group.first_chain);
    let share = group.share;

    // `ends[c][word]` holds, column by column, chain `c`'s end.
    let mut ends = [[Row::default(); NW]; MAX_CHAINS];
    let mut end = [Row::default(); NW];
    for pass in (0..len).step_by(share) {
        let chain = first_chain.add(V::splat(pass as u32));
        adrs[3] = keypair_low.or(chain.shr(16));
        adrs[4] = chain.shl(16);
        adrs[2] = prf_word2;
        let mut node: [V; NW] = first(tweak(&iv, &adrs, zero, [&sk_seed]));
        adrs[2] = f_word2;
        let step = ChainStep::<V, NW>::new(&iv, &adrs);
        for hash in 0..steps {
            node = step.f(&iv, V::splat(hash << 16), &node);
        }

        for (word, slot) in node.into_iter().zip(&mut end) {
            word.store(slot);
        }
        // Lane `l` ran chain `pass + l % share` for the key pair of column
        // `l / share`; a lane past the last share fills a column nobody
        // reads.
        for lane in 0..MAX_LANES {
            let (column, chain) = (lane / share, pass + lane % share);
            if chain < len {
                move_words(&end, lane, &mut ends[chain], column);
            }
        }
    }

    let pk_adrs: [V; ADRS_WORDS] = std::array::from_fn(|i| unsafe { V::load(&group.pk_adrs[i]) });
    let leaf: [V; NW] = {
        let rows = ends[..len].as_flattened();
        first(absorb(&iv, &pk_adrs, zero, rows.len(), |i| unsafe {
            V::load(&rows[i])
        }))
    };
    for (word, slot) in leaf.into_iter().zip(&mut group.leaf) {
        word.store(slot);
    }
}
