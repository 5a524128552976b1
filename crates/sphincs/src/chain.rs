//! The lane-resident SHA-256 WOTS+ chain kernel behind
//! [`crate::hash::HashCtx::f_chains`] (x86-64; see [`crate::tier`] for
//! why no other architecture has a body yet).
//!
//! A WOTS+ chain is up to `w − 1` dependent calls of `F`, each one
//! compression of `ADRS_c ‖ node ‖ padding` from the seeded state, whose
//! only changing inputs are the hash index inside `ADRS_c` and the node
//! — the previous call's digest. Going through
//! [`crate::sha256::compress_x`] for every step means serialising an
//! address, copying the node into a lane buffer, gathering the block
//! bytes into words and transposing them, and transposing the digest
//! back, `w − 1` times per chain. Here a group of chains is loaded once:
//! each lane's node lives as big-endian words in one SIMD register per
//! word, the message of the next step is put together in registers
//! ([`crate::lanes::tweak`]), and bytes are touched again only when the
//! group has run to completion.
//!
//! A chain that starts at its secret element never has a head in bytes:
//! the lane is loaded with `sk_seed` where the node would be, and step
//! zero is `PRF` — the `F` message under the chain's `WotsPrf` address,
//! which differs from its `F` address in the type byte alone.
//!
//! Chains of one call are sorted by step count before groups are formed,
//! so the lanes of a group retire together: a lane whose chain is done
//! keeps its node (a masked move) while the rest of its group finishes.
//!
//! One generic body ([`run_group`]) is written over the vector vocabulary
//! of [`crate::lanes`] and instantiated for zmm and for ymm registers;
//! which one runs is [`crate::tier::sha256_chain_tier`]'s decision.

use crate::hash::{ChainHead, ChainJob};
use crate::lanes::{
    adrs_words, lane_bodies, put_adrs, put_words, take_words, tweak, Lanes, Row, ADRS_WORDS,
    MAX_NODE_WORDS,
};
use crate::tier;

/// Chains sorted at a time: what bounds the sort's scratch. A longer
/// call is sorted window by window, at the cost of one ragged group per
/// window.
const WINDOW: usize = 512;

/// Buckets of the counting sort. Chains longer than that share the last
/// one, which costs their groups some lockstep and nothing else.
const BUCKETS: usize = 256;

/// A group of chains in transposed form: `x[word][lane]`.
#[derive(Default)]
struct Group {
    /// Message words `0..5` of each lane, with a zero hash index.
    adrs: [Row; ADRS_WORDS],
    /// Message word 2 of each lane's `PRF` call.
    prf_word2: Row,
    /// All ones where the lane starts at its secret element.
    from_secret: Row,
    /// Hash index of each lane's first step.
    hash: Row,
    /// Steps each lane runs; 0 for a lane without a chain.
    steps: Row,
    /// Each lane's node as big-endian words; `sk_seed` to begin with
    /// where the lane starts at its secret element.
    node: [Row; MAX_NODE_WORDS],
}

/// The resident body of one ISA tier and node width.
pub(crate) struct Kernel {
    /// Lanes of a [`Group`] the body fills.
    lanes: usize,
    /// Runs a group's lanes for `rounds` steps from the seeded state
    /// `iv`, after a `PRF` step if `any_secret`. The CPU must support the
    /// ISA the body was compiled for.
    body: unsafe fn(iv: &[u32; 8], any_secret: bool, rounds: u32, group: &mut Group),
}

lane_bodies!(run_group(
    iv: &[u32; 8],
    any_secret: bool,
    rounds: u32,
    group: &mut Group
));

impl Kernel {
    /// The body of the active chain tier for `n`-byte nodes; `None` on
    /// the `scalar` rung, which has none.
    pub(crate) fn active(n: usize) -> Option<Self> {
        body_for(tier::sha256_chain_tier(), n).map(|(lanes, body)| Kernel { lanes, body })
    }

    /// Brings chain `i` — the `n`-byte node at `nodes[i*n..]` — to its
    /// head and advances it by `jobs[i].steps` calls of `F` from the
    /// seeded SHA-256 state `iv`.
    pub(crate) fn run(&self, iv: &[u32; 8], n: usize, nodes: &mut [u8], jobs: &[ChainJob]) {
        debug_assert!(n.is_multiple_of(4) && n / 4 <= MAX_NODE_WORDS);
        for (jobs, nodes) in jobs.chunks(WINDOW).zip(nodes.chunks_mut(WINDOW * n)) {
            self.run_window(iv, n, nodes, jobs);
        }
    }

    fn run_window(&self, iv: &[u32; 8], n: usize, nodes: &mut [u8], jobs: &[ChainJob]) {
        // Counting sort, longest chain first; chains with nothing to do
        // are left out.
        let idle = |job: &ChainJob| job.steps == 0 && job.head == ChainHead::Node;
        let bucket = |job: &ChainJob| BUCKETS - 1 - (job.steps as usize).min(BUCKETS - 1);
        let mut next = [0u16; BUCKETS];
        for job in jobs.iter().filter(|job| !idle(job)) {
            next[bucket(job)] += 1;
        }
        let mut live = 0u16;
        for slot in &mut next {
            live += std::mem::replace(slot, live);
        }
        let mut order = [0u16; WINDOW];
        for (i, job) in jobs.iter().enumerate().filter(|(_, job)| !idle(job)) {
            let slot = &mut next[bucket(job)];
            order[*slot as usize] = i as u16;
            *slot += 1;
        }

        for members in order[..live as usize].chunks(self.lanes) {
            let mut group = Group::default();
            let (mut rounds, mut any_secret) = (0, false);
            for (lane, &i) in members.iter().enumerate() {
                let (i, job) = (i as usize, &jobs[i as usize]);
                put_adrs(&mut group.adrs, lane, &job.adrs);
                group.hash[lane] = job.start;
                group.steps[lane] = job.steps;
                rounds = rounds.max(job.steps);
                let head = match job.head {
                    ChainHead::Node => &nodes[i * n..(i + 1) * n],
                    ChainHead::Secret(sk_seed) => {
                        assert_eq!(sk_seed.len(), n, "sk_seed must be n bytes");
                        group.prf_word2[lane] = adrs_words(&job.prf_adrs())[2];
                        group.from_secret[lane] = u32::MAX;
                        any_secret = true;
                        sk_seed
                    }
                };
                put_words(&mut group.node, lane, head);
            }
            // SAFETY: `Kernel::active` is the only constructor; it pairs
            // each body with the tier it was compiled for, and the tier
            // cache only ever holds a tier whose CPU features
            // `tier::supported` detected.
            unsafe { (self.body)(iv, any_secret, rounds, &mut group) };
            for (lane, &i) in members.iter().enumerate() {
                let i = i as usize;
                take_words(&group.node, lane, &mut nodes[i * n..(i + 1) * n]);
            }
        }
    }
}

/// The kernel proper: `rounds` steps of `F` on every lane of `group`,
/// nodes of `NW` words.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
unsafe fn run_group<V: Lanes, const NW: usize>(
    iv: &[u32; 8],
    any_secret: bool,
    rounds: u32,
    group: &mut Group,
) {
    // SAFETY (the three closures): the caller's contract, which a
    // closure body does not inherit.
    let iv = iv.map(|word| unsafe { V::splat(word) });
    let mut adrs: [V; ADRS_WORDS] = std::array::from_fn(|i| unsafe { V::load(&group.adrs[i]) });
    let steps = V::load(&group.steps);
    let mut hash = V::load(&group.hash);
    let mut node: [V; NW] = std::array::from_fn(|i| unsafe { V::load(&group.node[i]) });

    if any_secret {
        let f_word2 = std::mem::replace(&mut adrs[2], V::load(&group.prf_word2));
        let secret = tweak(&iv, &adrs, V::splat(0), [&node]);
        adrs[2] = f_word2;
        let from_secret = V::load(&group.from_secret);
        for (word, new) in node.iter_mut().zip(secret) {
            *word = V::if_eq(from_secret, V::splat(u32::MAX), new, *word);
        }
    }

    for round in 0..rounds {
        let digest = tweak(&iv, &adrs, hash, [&node]);
        for (word, new) in node.iter_mut().zip(digest) {
            *word = V::if_live(round, steps, new, *word);
        }
        hash = hash.add(V::splat(1));
    }

    for (word, slot) in node.into_iter().zip(&mut group.node) {
        word.store(slot);
    }
}
