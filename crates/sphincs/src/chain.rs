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
//! holds the hash index in half a word, so a call in which some chain
//! would count past 2¹⁶ — no `w ≤ 256` gets near, but
//! [`crate::hash::ChainJob::start`] is the caller's — keeps the generic
//! call ([`crate::lanes::tweak`]).
//!
//! Chains that start at their secret elements never have heads in bytes:
//! a call of them splats `sk_seed` where the node would be, and step zero
//! is `PRF` — the `F` message under the chain's `WotsPrf` address, which
//! differs from its `F` address in the type byte alone
//! ([`crate::lanes::retyped`]).
//!
//! Chains of one call are sorted by step count before groups are formed,
//! so the lanes of a group retire together: a lane whose chain is done
//! keeps its node (a masked move) while the rest of its group finishes.
//!
//! A group goes into the lanes and comes out whole. The sort is a
//! counting sort straight into slots ([`Kernel::run`]): a chain's
//! [`Link`] — its address, first hash index, step count and where its
//! node is, eight words — lands whole in its slot, so the body loads a group's slots as they lie, transposes
//! them into a register per field ([`Lanes::transpose8`]), gathers the
//! heads from the call's words by where they are, and scatters the ends
//! back over them.
//! Nothing is staged lane by lane on the way in or out. Where the node
//! words are is the caller's: [`crate::hash::HashCtx::f_chains`] converts
//! its flat byte buffer to words and back ([`run_in_place`]) — WOTS+
//! signing, whose chains stop at their message digits — and batched
//! verification reads the revealed nodes out of the signatures into words
//! once, runs them to their ends where they are, and leaves them there
//! for `T_len` ([`crate::hypertree`], [`crate::wots::chain_links`]). The
//! chains of a public key, all full length, do not come here at all:
//! [`crate::leaf`] runs them a key pair to a lane.
//!
//! One generic body ([`run_groups`]) is written over the vector
//! vocabulary of [`crate::lanes`] and instantiated for zmm and for ymm
//! registers; which one runs is [`crate::tier::sha256_chain_tier`]'s
//! decision.

use crate::address::AddressType;
use crate::hash::{ChainHead, ChainJob};
use crate::lanes::{
    first, lane_bodies, retyped, seed_words, tweak, ChainStep, Lanes, ADRS_WORDS, MAX_LANES,
    MAX_NODE_WORDS,
};
use crate::tier;

/// Chains [`run_in_place`] hands the kernel at a time: what bounds the kernel's
/// scratch on a long call. It holds one WOTS+ key per lane of the widest
/// body at the longest key of a `w = 16` set (`len = 67` at `n = 32`), so
/// that the chains of a lane-width group of signatures are sorted whole;
/// a longer call is sorted window by window, at the cost of one ragged
/// group per window.
const WINDOW: usize = MAX_LANES * 67;

/// Buckets of the counting sort. Chains longer than that share the last
/// one, which costs their groups some lockstep and nothing else.
const BUCKETS: usize = 256;

/// One chain, as a caller hands it to the kernel.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Link {
    /// Message words `0..5` of the chain's `F` address, hash index zero.
    pub adrs: [u32; ADRS_WORDS],
    /// Hash index of the first step.
    pub start: u32,
    /// Calls of `F` the chain runs.
    pub steps: u32,
    /// Where word 0 of the chain's node is in the words the chains run
    /// in; word `j` is `stride · j` further on.
    pub at: u32,
}

/// Words of a [`Link`] in a sort's slot: eight, which the body
/// transposes a group at a time ([`Lanes::transpose8`]).
const LINK_WORDS: usize = ADRS_WORDS + 3;
const _: () = assert!(LINK_WORDS == 8);
/// Words of a slot that are not the address.
const START: usize = ADRS_WORDS;
const STEPS: usize = ADRS_WORDS + 1;
const AT: usize = ADRS_WORDS + 2;

impl Link {
    /// The link as a slot holds it.
    fn words(&self) -> [u32; LINK_WORDS] {
        let [a0, a1, a2, a3, a4] = self.adrs;
        [a0, a1, a2, a3, a4, self.start, self.steps, self.at]
    }
}

/// The bucket of a chain of `steps` steps: longest first.
fn bucket(steps: u32) -> usize {
    BUCKETS - 1 - (steps as usize).min(BUCKETS - 1)
}

/// The resident body of one ISA tier and node width, and the slots its
/// chains are sorted into.
pub(crate) struct Kernel {
    /// Lanes of a group.
    lanes: usize,
    /// Words of a node.
    nw: usize,
    /// A call's chains, a slot each, rounded up to whole groups.
    slots: Vec<[u32; LINK_WORDS]>,
    /// Runs the groups of the slots ([`Body`]).
    body: Body,
}

/// Runs the groups of `slots` — `lanes` slots at a time, a whole number
/// of groups — from the seeded state `iv`, after a `PRF` step of `seed`
/// if there is one; `narrow` says that no chain's hash index reaches
/// 2¹⁶. Every node word is one of `words`'. The CPU must support the ISA
/// the body was compiled for.
type Body = unsafe fn(
    iv: &[u32; 8],
    seed: Option<&[u32; MAX_NODE_WORDS]>,
    narrow: bool,
    slots: &[[u32; LINK_WORDS]],
    words: &mut [u32],
    stride: usize,
);

lane_bodies!(run_groups(
    iv: &[u32; 8],
    seed: Option<&[u32; MAX_NODE_WORDS]>,
    narrow: bool,
    slots: &[[u32; LINK_WORDS]],
    words: &mut [u32],
    stride: usize
));

impl Kernel {
    /// The body of the active chain tier for `n`-byte nodes; `None` on
    /// the `scalar` rung, which has none.
    pub(crate) fn active(n: usize) -> Option<Self> {
        debug_assert!(n.is_multiple_of(4) && n / 4 <= MAX_NODE_WORDS);
        body_for(tier::sha256_chain_tier(), n).map(|(lanes, body)| Kernel {
            lanes,
            nw: n / 4,
            slots: Vec::new(),
            body,
        })
    }

    /// Brings every chain of `links` to its head and advances it by its
    /// steps, calls of `F` from the seeded SHA-256 state `iv`: the node of
    /// a chain at `at` is `words[at + stride · j]`, `j < n/4`, its head
    /// on the way in — unless `secret` is `Some(sk_seed)`, when every
    /// chain starts at its secret element: step zero is `PRF` of
    /// `sk_seed` under the chain's `WotsPrf` address — and its end on the
    /// way out.
    ///
    /// The chains are counting-sorted by step count, longest first:
    /// `steps` gives each chain's count, in the order `links` then gives
    /// the chains, and each link is written whole into its slot. Counting
    /// from `steps` rather than from a second walk of `links` is what
    /// keeps the sort cheap: a verification layer's link is built from
    /// its signature's address, its step count from one digit.
    ///
    /// # Panics
    ///
    /// Panics if `links` are not the chains `steps` counted, a chain's
    /// node does not lie within `words`, or a secret is not `n` bytes.
    pub(crate) fn run(
        &mut self,
        iv: &[u32; 8],
        steps: impl Iterator<Item = u32>,
        links: impl Iterator<Item = Link>,
        words: &mut [u32],
        stride: usize,
        secret: Option<&[u8]>,
    ) {
        let mut next = [0u32; BUCKETS];
        for steps in steps {
            next[bucket(steps)] += 1;
        }
        let mut count = 0;
        for slot in &mut next {
            count += std::mem::replace(slot, count);
        }
        // Where each bucket ends: where the next one starts.
        let mut ends = next;
        ends.rotate_left(1);
        ends[BUCKETS - 1] = count;
        let count = count as usize;
        if count == 0 {
            return;
        }
        self.slots
            .resize(count.next_multiple_of(self.lanes), [0; LINK_WORDS]);
        for link in links {
            let slot = &mut next[bucket(link.steps)];
            self.slots[*slot as usize] = link.words();
            *slot += 1;
        }
        assert!(next == ends, "links must be the chains `steps` counted");
        // The last group's empty lanes run its last chain again, to the
        // same end.
        let last = self.slots[count - 1];
        self.slots[count..].fill(last);
        // The body's gathers take signed 32-bit indices.
        assert!(
            words.len() <= i32::MAX as usize,
            "a call's words must be indexable by i32"
        );
        let last_word = (self.nw - 1) * stride;
        assert!(
            (self.slots.iter()).all(|slot| slot[AT] as usize + last_word < words.len()),
            "every chain's node must lie within the words"
        );
        let seed = secret.map(|sk_seed| {
            assert_eq!(sk_seed.len(), 4 * self.nw, "sk_seed must be n bytes");
            seed_words(sk_seed)
        });
        // What `ChainStep` asks for. `w ≤ 256` never gets near.
        let narrow = (self.slots.iter())
            .all(|slot| u64::from(slot[START]) + u64::from(slot[STEPS]) <= 1 << 16);
        // SAFETY: `Kernel::active` is the only constructor; it pairs each
        // body with the tier it was compiled for, and the tier cache only
        // ever holds a tier whose CPU features `tier::supported`
        // detected. Every node word is one of `words`' (asserted above).
        unsafe { (self.body)(iv, seed.as_ref(), narrow, &self.slots, words, stride) };
    }
}

/// The chains of [`crate::hash::HashCtx::f_chains`]: `n`-byte nodes in
/// one flat buffer, converted to words and back around the kernel, each
/// run of chains with one kind of head sorted and run window by window.
pub(crate) fn run_in_place(
    kernel: &mut Kernel,
    iv: &[u32; 8],
    nodes: &mut [u8],
    jobs: &[ChainJob],
) {
    let nw = kernel.nw;
    let mut words: Vec<u32> = nodes
        .chunks_exact(4)
        .map(|word| u32::from_be_bytes(word.try_into().expect("4-byte chunk")))
        .collect();
    let mut first = 0;
    for run in jobs.chunk_by(|a, b| a.head == b.head) {
        let secret = match run[0].head {
            ChainHead::Node => None,
            ChainHead::Secret(sk_seed) => Some(sk_seed),
        };
        for window in run.chunks(WINDOW) {
            let links = (first..).zip(window).map(|(i, job)| Link {
                adrs: job.adrs.compressed_words(),
                start: job.start,
                steps: job.steps,
                at: (i * nw) as u32,
            });
            let steps = window.iter().map(|job| job.steps);
            kernel.run(iv, steps, links, &mut words, 1, secret);
            first += window.len();
        }
    }
    for (bytes, word) in nodes.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
}

/// The kernel proper: every group of the sort, nodes of `NW` words, for
/// as many steps of `F` as its longest chain runs — through [`ChainStep`]
/// where the call is `narrow`, through [`tweak`] where a hash index
/// outgrows the half word the step holds it in.
///
/// # Safety
///
/// As [`Lanes`], and every node word is one of `words`'.
#[inline(always)]
unsafe fn run_groups<V: Lanes, const NW: usize>(
    iv: &[u32; 8],
    seed: Option<&[u32; MAX_NODE_WORDS]>,
    narrow: bool,
    slots: &[[u32; LINK_WORDS]],
    words: &mut [u32],
    stride: usize,
) {
    // SAFETY (the closures): the caller's contract, which a closure body
    // does not inherit.
    let iv = iv.map(|word| unsafe { V::splat(word) });
    for group in slots.chunks_exact(V::LANES) {
        let rounds = group.iter().map(|slot| slot[STEPS]).max().unwrap_or(0);
        if rounds == 0 && seed.is_none() {
            continue;
        }
        let group = group.as_flattened();
        let fields = V::transpose8(std::array::from_fn(|i| unsafe {
            V::load_from(&group[i * V::LANES..])
        }));
        let mut adrs: [V; ADRS_WORDS] = std::array::from_fn(|i| fields[i]);
        let mut hash = fields[START];
        let steps = fields[STEPS];
        let at = fields[AT];
        let slot: [V; NW] =
            std::array::from_fn(|j| unsafe { at.add(V::splat((j * stride) as u32)) });

        let mut node: [V; NW] = match seed {
            Some(seed) => {
                let sk_seed: [V; NW] = std::array::from_fn(|j| unsafe { V::splat(seed[j]) });
                // Step zero: `PRF` under the address with the other type.
                let f_word2 = adrs[2];
                let ty = V::splat(0xff << 16);
                adrs[2] = ty.ch(V::splat(retyped(0, AddressType::WotsPrf)), f_word2);
                let secret = first(tweak(&iv, &adrs, V::splat(0), [&sk_seed]));
                adrs[2] = f_word2;
                secret
            }
            None => std::array::from_fn(|j| unsafe { V::gather(words, slot[j]) }),
        };

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

        for (word, slot) in node.into_iter().zip(slot) {
            word.scatter(words, slot);
        }
    }
}
