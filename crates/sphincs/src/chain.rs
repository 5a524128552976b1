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
//! word, the message of the next step is put together in registers, and
//! bytes are touched again only when the group has run to completion.
//!
//! The step itself is [`crate::lanes::ChainStep`], the one the leaf
//! kernel ([`crate::leaf`]) takes too: what a chain's address and the
//! message length come to is worked out once per group, after the load,
//! and a step hashes only what the hash index and the node change. It
//! holds the hash index in half a word, so a group in which some chain
//! would count past 2¹⁶ — no `w ≤ 256` gets near, but
//! [`crate::hash::ChainJob::start`] is the caller's — keeps the generic
//! call ([`crate::lanes::tweak`]), decided when the group is loaded.
//!
//! A chain that starts at its secret element never has a head in bytes:
//! the lane is loaded with `sk_seed` where the node would be, and step
//! zero is `PRF` — the `F` message under the chain's `WotsPrf` address,
//! which differs from its `F` address in the type byte alone
//! ([`crate::lanes::retyped`]).
//!
//! Chains of one call are sorted by step count before groups are formed,
//! so the lanes of a group retire together: a lane whose chain is done
//! keeps its node (a masked move) while the rest of its group finishes.
//!
//! Where the chains come from and where their ends go is the caller's
//! ([`Chains`]): [`crate::hash::HashCtx::f_chains`] runs nodes in place in
//! a flat buffer ([`InPlace`]) — WOTS+ signing, whose chains stop at
//! their message digits — and batched verification loads heads straight
//! from the signatures and leaves the ends transposed for `T_len`
//! ([`crate::wots`]). The chains of a public key, all full length, do not
//! come here at all: [`crate::leaf`] runs them a key pair to a lane.
//!
//! One generic body ([`run_group`]) is written over the vector vocabulary
//! of [`crate::lanes`] and instantiated for zmm and for ymm registers;
//! which one runs is [`crate::tier::sha256_chain_tier`]'s decision.

use crate::address::AddressType;
use crate::hash::{ChainHead, ChainJob};
use crate::lanes::{
    first, lane_bodies, put_adrs, put_words, retyped, take_words, tweak, ChainStep, Lanes, Row,
    ADRS_WORDS, MAX_LANES, MAX_NODE_WORDS,
};
use crate::tier;

/// Chains sorted at a time: what bounds the sort's scratch. It holds
/// one WOTS+ key per lane of the widest body at the longest key of a
/// `w = 16` set (`len = 67` at `n = 32`), so that the chains of a
/// lane-width group of signatures are sorted whole. A longer call is
/// sorted window by window, at the cost of one ragged group per window.
const WINDOW: usize = MAX_LANES * 67;

/// Buckets of the counting sort. Chains longer than that share the last
/// one, which costs their groups some lockstep and nothing else.
const BUCKETS: usize = 256;

/// The chains of one call, as the kernel sees them: how long each is,
/// how one is loaded into a lane, and where its end goes.
pub(crate) trait Chains {
    /// Number of chains.
    fn len(&self) -> usize;
    /// Calls of `F` chain `i` runs.
    fn steps(&self, i: usize) -> u32;
    /// Loads chain `i` into lane `lane` of `group`: [`Group::set_chain`],
    /// then its head.
    fn load(&self, i: usize, lane: usize, group: &mut Group);
    /// Takes chain `i`'s end, lane `lane` of `node`.
    fn store(&mut self, i: usize, lane: usize, node: &[Row; MAX_NODE_WORDS]);
}

/// A group of chains in transposed form: `x[word][lane]`.
#[derive(Default)]
pub(crate) struct Group {
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

impl Group {
    /// Lane `lane` runs `steps` calls of `F` under the address whose
    /// message words `0..5` are `adrs`, the first with hash index `start`.
    pub(crate) fn set_chain(
        &mut self,
        lane: usize,
        adrs: [u32; ADRS_WORDS],
        start: u32,
        steps: u32,
    ) {
        put_adrs(&mut self.adrs, lane, adrs);
        self.hash[lane] = start;
        self.steps[lane] = steps;
    }

    /// Lane `lane` starts at `node`.
    pub(crate) fn set_head(&mut self, lane: usize, node: &[u8]) {
        put_words(&mut self.node, lane, node);
    }

    /// Lane `lane` starts at its secret element: `PRF` of `sk_seed` under
    /// its own address with `prf_word2` for message word 2.
    fn set_secret_head(&mut self, lane: usize, prf_word2: u32, sk_seed: &[u8]) {
        self.prf_word2[lane] = prf_word2;
        self.from_secret[lane] = u32::MAX;
        put_words(&mut self.node, lane, sk_seed);
    }
}

/// The chains of [`crate::hash::HashCtx::f_chains`]: `n`-byte nodes in
/// one flat buffer, run in place.
pub(crate) struct InPlace<'a> {
    pub n: usize,
    pub nodes: &'a mut [u8],
    pub jobs: &'a [ChainJob<'a>],
}

impl Chains for InPlace<'_> {
    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn steps(&self, i: usize) -> u32 {
        self.jobs[i].steps
    }

    fn load(&self, i: usize, lane: usize, group: &mut Group) {
        let (n, job) = (self.n, &self.jobs[i]);
        let adrs = job.adrs.compressed_words();
        group.set_chain(lane, adrs, job.start, job.steps);
        match job.head {
            ChainHead::Node => group.set_head(lane, &self.nodes[i * n..(i + 1) * n]),
            ChainHead::Secret(sk_seed) => {
                assert_eq!(sk_seed.len(), n, "sk_seed must be n bytes");
                group.set_secret_head(lane, retyped(adrs[2], AddressType::WotsPrf), sk_seed);
            }
        }
    }

    fn store(&mut self, i: usize, lane: usize, node: &[Row; MAX_NODE_WORDS]) {
        take_words(node, lane, &mut self.nodes[i * self.n..(i + 1) * self.n]);
    }
}

/// The resident body of one ISA tier and node width.
pub(crate) struct Kernel {
    /// Lanes of a [`Group`] the body fills.
    lanes: usize,
    /// Runs a group's lanes for `rounds` steps from the seeded state
    /// `iv`, after a `PRF` step if `any_secret`; `narrow` says that no
    /// lane's hash index reaches 2¹⁶. The CPU must support the ISA the
    /// body was compiled for.
    body: unsafe fn(iv: &[u32; 8], any_secret: bool, narrow: bool, rounds: u32, group: &mut Group),
}

lane_bodies!(run_group(
    iv: &[u32; 8],
    any_secret: bool,
    narrow: bool,
    rounds: u32,
    group: &mut Group
));

impl Kernel {
    /// The body of the active chain tier for `n`-byte nodes; `None` on
    /// the `scalar` rung, which has none.
    pub(crate) fn active(n: usize) -> Option<Self> {
        debug_assert!(n.is_multiple_of(4) && n / 4 <= MAX_NODE_WORDS);
        body_for(tier::sha256_chain_tier(), n).map(|(lanes, body)| Kernel { lanes, body })
    }

    /// Brings every chain of `chains` to its head and advances it by its
    /// steps, calls of `F` from the seeded SHA-256 state `iv`.
    pub(crate) fn run(&self, iv: &[u32; 8], chains: &mut impl Chains) {
        for first in (0..chains.len()).step_by(WINDOW) {
            self.run_window(iv, chains, first, WINDOW.min(chains.len() - first));
        }
    }

    /// [`Kernel::run`] for chains `first..first + count`.
    fn run_window(&self, iv: &[u32; 8], chains: &mut impl Chains, first: usize, count: usize) {
        // Counting sort, longest chain first.
        let bucket = |steps: u32| BUCKETS - 1 - (steps as usize).min(BUCKETS - 1);
        let mut next = [0u16; BUCKETS];
        for i in first..first + count {
            next[bucket(chains.steps(i))] += 1;
        }
        let mut before = 0u16;
        for slot in &mut next {
            before += std::mem::replace(slot, before);
        }
        let mut order = [0u16; WINDOW];
        for i in 0..count {
            let slot = &mut next[bucket(chains.steps(first + i))];
            order[*slot as usize] = i as u16;
            *slot += 1;
        }

        for members in order[..count].chunks(self.lanes) {
            let mut group = Group::default();
            for (lane, &i) in members.iter().enumerate() {
                chains.load(first + i as usize, lane, &mut group);
            }
            let rounds = group.steps.into_iter().max().unwrap_or(0);
            let any_secret = group.from_secret != [0; MAX_LANES];
            // What `ChainStep` asks for. `w ≤ 256` never gets near.
            let narrow = (group.hash.iter().zip(&group.steps))
                .all(|(&start, &steps)| u64::from(start) + u64::from(steps) <= 1 << 16);
            // SAFETY: `Kernel::active` is the only constructor; it pairs
            // each body with the tier it was compiled for, and the tier
            // cache only ever holds a tier whose CPU features
            // `tier::supported` detected.
            unsafe { (self.body)(iv, any_secret, narrow, rounds, &mut group) };
            for (lane, &i) in members.iter().enumerate() {
                chains.store(first + i as usize, lane, &group.node);
            }
        }
    }
}

/// The kernel proper: `rounds` steps of `F` on every lane of `group`,
/// nodes of `NW` words — through [`ChainStep`] where the group is
/// `narrow`, through [`tweak`] where a hash index outgrows the half word
/// the step holds it in.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
unsafe fn run_group<V: Lanes, const NW: usize>(
    iv: &[u32; 8],
    any_secret: bool,
    narrow: bool,
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

    let step = ChainStep::<V, NW>::new(&iv, &adrs);
    let mut hash_high = hash.shl(16);
    for round in 0..rounds {
        let next = if narrow {
            step.f(&iv, hash_high, &node)
        } else {
            first(tweak(&iv, &adrs, hash, [&node]))
        };
        for (word, new) in node.iter_mut().zip(next) {
            *word = V::if_live(round, steps, new, *word);
        }
        hash = hash.add(V::splat(1));
        hash_high = hash_high.add(V::splat(1 << 16));
    }

    for (word, slot) in node.into_iter().zip(&mut group.node) {
        word.store(slot);
    }
}
