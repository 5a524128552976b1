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
//! word, the message schedule of the next step is put together in
//! registers from words that never change (the address up to the hash
//! index, the `0x80` terminator, the bit length) and the node shifted by
//! the 16 bits by which the 22-byte compressed address misaligns it, and
//! bytes are touched again only when the group has run to completion.
//!
//! Chains of one call are sorted by step count before groups are formed,
//! so the lanes of a group retire together: a lane whose chain is done
//! keeps its node (a masked move) while the rest of its group finishes.
//!
//! One generic body ([`run_group`]) is written over a small vector
//! vocabulary ([`Lanes`]) and instantiated for zmm and for ymm
//! registers; which one runs is [`crate::tier::sha256_chain_tier`]'s
//! decision.

use crate::hash::ChainJob;
use crate::sha256::{BLOCK_LEN, K};
use crate::tier::{self, HashTier};

use std::arch::x86_64::*;

/// Lanes of the widest body (one `u32` per zmm lane). Narrower bodies
/// use the first lanes of a [`Group`].
const MAX_LANES: usize = 16;

/// Words of the longest node (`n = 32`).
const MAX_NODE_WORDS: usize = 8;

/// Message words that hold nothing but address: bytes `0..20` of the
/// 22-byte compressed address, i.e. everything before the low half of
/// the hash index.
const ADRS_WORDS: usize = 5;

/// A group of chains in transposed form: `x[word][lane]`.
struct Group {
    /// Message words `0..5` of each lane, with a zero hash index.
    adrs: [[u32; MAX_LANES]; ADRS_WORDS],
    /// Hash index of each lane's first step.
    hash: [u32; MAX_LANES],
    /// Steps each lane runs; 0 for a lane without a chain.
    steps: [u32; MAX_LANES],
    /// Each lane's node as big-endian words.
    node: [[u32; MAX_LANES]; MAX_NODE_WORDS],
}

/// The resident body of one ISA tier.
pub(crate) struct Kernel {
    /// Lanes of a [`Group`] the body fills.
    lanes: usize,
    /// Runs a group's lanes for `rounds` steps from the seeded state
    /// `iv`, on nodes of `node_words` words. The CPU must support the
    /// ISA the body was compiled for.
    body: unsafe fn(iv: &[u32; 8], node_words: usize, rounds: u32, group: &mut Group),
}

impl Kernel {
    /// The body of the active chain tier; `None` on the `scalar` rung,
    /// which has none.
    pub(crate) fn active() -> Option<Self> {
        match tier::sha256_chain_tier() {
            HashTier::Avx512 => Some(Kernel {
                lanes: 16,
                body: group_avx512,
            }),
            HashTier::Avx2 => Some(Kernel {
                lanes: 8,
                body: group_avx2,
            }),
            _ => None,
        }
    }

    /// Advances chain `i` — the `n`-byte node at `nodes[i*n..]` — by
    /// `jobs[i].steps` calls of `F` from the seeded SHA-256 state `iv`.
    pub(crate) fn run(&self, iv: &[u32; 8], n: usize, nodes: &mut [u8], jobs: &[ChainJob]) {
        let node_words = n / 4;
        debug_assert!(n.is_multiple_of(4) && node_words <= MAX_NODE_WORDS);

        // Counting sort, longest chain first; chains with nothing to do
        // are left out.
        let longest = jobs.iter().map(|job| job.steps).max().unwrap_or(0) as usize;
        let mut next = vec![0usize; longest + 1];
        for job in jobs {
            next[longest - job.steps as usize] += 1;
        }
        let mut live = 0usize;
        for slot in &mut next[..longest] {
            live += std::mem::replace(slot, live);
        }
        let mut order = vec![0usize; live];
        for (i, job) in jobs.iter().enumerate() {
            if job.steps > 0 {
                let slot = &mut next[longest - job.steps as usize];
                order[*slot] = i;
                *slot += 1;
            }
        }

        for members in order.chunks(self.lanes) {
            let mut group = Group {
                adrs: [[0; MAX_LANES]; ADRS_WORDS],
                hash: [0; MAX_LANES],
                steps: [0; MAX_LANES],
                node: [[0; MAX_LANES]; MAX_NODE_WORDS],
            };
            for (lane, &i) in members.iter().enumerate() {
                let job = &jobs[i];
                let mut adrs = job.adrs;
                adrs.set_hash(0);
                let adrs = adrs.to_compressed_bytes();
                for (word, bytes) in group.adrs.iter_mut().zip(adrs.chunks_exact(4)) {
                    word[lane] = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
                }
                group.hash[lane] = job.start;
                group.steps[lane] = job.steps;
                let node = &nodes[i * n..(i + 1) * n];
                for (word, bytes) in group.node.iter_mut().zip(node.chunks_exact(4)) {
                    word[lane] = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
                }
            }
            let rounds = jobs[members[0]].steps;
            // SAFETY: `Kernel::active` is the only constructor; it pairs
            // each body with the tier it was compiled for, and the tier
            // cache only ever holds a tier whose CPU features
            // `tier::supported` detected.
            unsafe { (self.body)(iv, node_words, rounds, &mut group) };
            for (lane, &i) in members.iter().enumerate() {
                let node = &mut nodes[i * n..(i + 1) * n];
                for (word, bytes) in group.node.iter().zip(node.chunks_exact_mut(4)) {
                    bytes.copy_from_slice(&word[lane].to_be_bytes());
                }
            }
        }
    }
}

/// A register of `u32` lanes: what [`run_group`] is written over.
///
/// Every method is `unsafe` for one reason: it executes instructions of
/// the implementor's ISA extension, which the CPU must support. The
/// bodies at the end of this file are the only callers, and each carries
/// the matching `#[target_feature]`.
trait Lanes: Copy {
    unsafe fn splat(x: u32) -> Self;
    unsafe fn load(src: &[u32; MAX_LANES]) -> Self;
    unsafe fn store(self, dst: &mut [u32; MAX_LANES]);
    unsafe fn add(self, other: Self) -> Self;
    unsafe fn or(self, other: Self) -> Self;
    unsafe fn xor3(self, b: Self, c: Self) -> Self;
    /// `self ? f : g`, bit by bit.
    unsafe fn ch(self, f: Self, g: Self) -> Self;
    unsafe fn maj(self, b: Self, c: Self) -> Self;
    unsafe fn ror<const R: i32>(self) -> Self;
    unsafe fn shr<const R: i32>(self) -> Self;
    unsafe fn shl<const R: i32>(self) -> Self;
    /// Lane by lane, `new` where `round < steps` and `old` elsewhere.
    unsafe fn if_live(round: u32, steps: Self, new: Self, old: Self) -> Self;
}

/// Sixteen lanes in one zmm register, with the single-instruction
/// rotates and three-input logic of AVX-512F.
#[derive(Clone, Copy)]
struct Zmm(__m512i);

impl Lanes for Zmm {
    #[inline(always)]
    unsafe fn splat(x: u32) -> Self {
        Zmm(_mm512_set1_epi32(x as i32))
    }
    #[inline(always)]
    unsafe fn load(src: &[u32; MAX_LANES]) -> Self {
        Zmm(_mm512_loadu_si512(src.as_ptr().cast()))
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [u32; MAX_LANES]) {
        _mm512_storeu_si512(dst.as_mut_ptr().cast(), self.0);
    }
    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        Zmm(_mm512_add_epi32(self.0, other.0))
    }
    #[inline(always)]
    unsafe fn or(self, other: Self) -> Self {
        Zmm(_mm512_or_si512(self.0, other.0))
    }
    #[inline(always)]
    unsafe fn xor3(self, b: Self, c: Self) -> Self {
        Zmm(_mm512_ternarylogic_epi32::<0x96>(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn ch(self, f: Self, g: Self) -> Self {
        Zmm(_mm512_ternarylogic_epi32::<0xCA>(self.0, f.0, g.0))
    }
    #[inline(always)]
    unsafe fn maj(self, b: Self, c: Self) -> Self {
        Zmm(_mm512_ternarylogic_epi32::<0xE8>(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn ror<const R: i32>(self) -> Self {
        Zmm(_mm512_ror_epi32::<R>(self.0))
    }
    #[inline(always)]
    unsafe fn shr<const R: i32>(self) -> Self {
        Zmm(_mm512_srl_epi32(self.0, _mm_cvtsi32_si128(R)))
    }
    #[inline(always)]
    unsafe fn shl<const R: i32>(self) -> Self {
        Zmm(_mm512_sll_epi32(self.0, _mm_cvtsi32_si128(R)))
    }
    #[inline(always)]
    unsafe fn if_live(round: u32, steps: Self, new: Self, old: Self) -> Self {
        let live = _mm512_cmplt_epu32_mask(Self::splat(round).0, steps.0);
        Zmm(_mm512_mask_mov_epi32(old.0, live, new.0))
    }
}

/// Eight lanes in one ymm register. AVX2 has neither rotates nor
/// three-input logic: a rotate is two shifts and an or.
#[derive(Clone, Copy)]
struct Ymm(__m256i);

impl Lanes for Ymm {
    #[inline(always)]
    unsafe fn splat(x: u32) -> Self {
        Ymm(_mm256_set1_epi32(x as i32))
    }
    #[inline(always)]
    unsafe fn load(src: &[u32; MAX_LANES]) -> Self {
        Ymm(_mm256_loadu_si256(src.as_ptr().cast()))
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [u32; MAX_LANES]) {
        _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0);
    }
    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        Ymm(_mm256_add_epi32(self.0, other.0))
    }
    #[inline(always)]
    unsafe fn or(self, other: Self) -> Self {
        Ymm(_mm256_or_si256(self.0, other.0))
    }
    #[inline(always)]
    unsafe fn xor3(self, b: Self, c: Self) -> Self {
        Ymm(_mm256_xor_si256(_mm256_xor_si256(self.0, b.0), c.0))
    }
    #[inline(always)]
    unsafe fn ch(self, f: Self, g: Self) -> Self {
        Ymm(_mm256_xor_si256(
            g.0,
            _mm256_and_si256(self.0, _mm256_xor_si256(f.0, g.0)),
        ))
    }
    #[inline(always)]
    unsafe fn maj(self, b: Self, c: Self) -> Self {
        Ymm(_mm256_or_si256(
            _mm256_and_si256(self.0, b.0),
            _mm256_and_si256(c.0, _mm256_or_si256(self.0, b.0)),
        ))
    }
    #[inline(always)]
    unsafe fn ror<const R: i32>(self) -> Self {
        self.shr::<R>()
            .or(Ymm(_mm256_sll_epi32(self.0, _mm_cvtsi32_si128(32 - R))))
    }
    // The shift counts go through a register because `32 - R` cannot be
    // a const-generic immediate; they are constants to the compiler.
    #[inline(always)]
    unsafe fn shr<const R: i32>(self) -> Self {
        Ymm(_mm256_srl_epi32(self.0, _mm_cvtsi32_si128(R)))
    }
    #[inline(always)]
    unsafe fn shl<const R: i32>(self) -> Self {
        Ymm(_mm256_sll_epi32(self.0, _mm_cvtsi32_si128(R)))
    }
    #[inline(always)]
    unsafe fn if_live(round: u32, steps: Self, new: Self, old: Self) -> Self {
        // A signed compare: step counts are far below 2^31.
        let live = _mm256_cmpgt_epi32(steps.0, Self::splat(round).0);
        Ymm(_mm256_blendv_epi8(old.0, new.0, live))
    }
}

/// Round constants `16t..16t+16`.
#[inline(always)]
fn round_constants(t: usize) -> &'static [u32; 16] {
    K[16 * t..][..16].try_into().expect("16 of 64 constants")
}

/// One compression of the 16-word message `w` from state `iv`; `w` is
/// consumed as the rolling schedule.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
unsafe fn compress<V: Lanes>(iv: &[V; 8], w: &mut [V; 16]) -> [V; 8] {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *iv;

    // One round on renamed registers (the a..h rotation is in the
    // argument order, not in moves), extending the schedule in place
    // first when `$extend`.
    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident,
         $k:ident, $j:literal, $extend:literal) => {
            if $extend {
                let (w2, w15) = (w[($j + 14) % 16], w[($j + 1) % 16]);
                let s1 = w2.ror::<17>().xor3(w2.ror::<19>(), w2.shr::<10>());
                let s0 = w15.ror::<7>().xor3(w15.ror::<18>(), w15.shr::<3>());
                w[$j] = w[$j].add(s0).add(w[($j + 9) % 16].add(s1));
            }
            let big_s1 = $e.ror::<6>().xor3($e.ror::<11>(), $e.ror::<25>());
            let t1 = $h
                .add(big_s1)
                .add($e.ch($f, $g))
                .add(V::splat($k[$j]).add(w[$j]));
            let big_s0 = $a.ror::<2>().xor3($a.ror::<13>(), $a.ror::<22>());
            $d = $d.add(t1);
            $h = t1.add(big_s0.add($a.maj($b, $c)));
        };
    }
    macro_rules! rounds16 {
        ($k:ident, $extend:literal) => {
            round!(a b c d e f g h, $k, 0, $extend);
            round!(h a b c d e f g, $k, 1, $extend);
            round!(g h a b c d e f, $k, 2, $extend);
            round!(f g h a b c d e, $k, 3, $extend);
            round!(e f g h a b c d, $k, 4, $extend);
            round!(d e f g h a b c, $k, 5, $extend);
            round!(c d e f g h a b, $k, 6, $extend);
            round!(b c d e f g h a, $k, 7, $extend);
            round!(a b c d e f g h, $k, 8, $extend);
            round!(h a b c d e f g, $k, 9, $extend);
            round!(g h a b c d e f, $k, 10, $extend);
            round!(f g h a b c d e, $k, 11, $extend);
            round!(e f g h a b c d, $k, 12, $extend);
            round!(d e f g h a b c, $k, 13, $extend);
            round!(c d e f g h a b, $k, 14, $extend);
            round!(b c d e f g h a, $k, 15, $extend);
        };
    }

    let k = round_constants(0);
    rounds16!(k, false);
    for t in 1..4 {
        let k = round_constants(t);
        rounds16!(k, true);
    }

    [
        iv[0].add(a),
        iv[1].add(b),
        iv[2].add(c),
        iv[3].add(d),
        iv[4].add(e),
        iv[5].add(f),
        iv[6].add(g),
        iv[7].add(h),
    ]
}

/// The kernel proper: `rounds` steps of `F` on every lane of `group`,
/// nodes of `NW` words.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
unsafe fn run_group<V: Lanes, const NW: usize>(iv: &[u32; 8], rounds: u32, group: &mut Group) {
    // Tail of every `F` call after the seed block: ADRS_c ‖ node.
    let bit_len = ((BLOCK_LEN + 22 + 4 * NW) * 8) as u32;
    // SAFETY (the three closures): the caller's contract, which a
    // closure body does not inherit.
    let iv = iv.map(|word| unsafe { V::splat(word) });
    let adrs: [V; ADRS_WORDS] = std::array::from_fn(|i| unsafe { V::load(&group.adrs[i]) });
    let steps = V::load(&group.steps);
    let mut hash = V::load(&group.hash);
    let mut node: [V; NW] = std::array::from_fn(|i| unsafe { V::load(&group.node[i]) });

    for round in 0..rounds {
        // Bytes 0..22 are ADRS_c, whose last four are the hash index, so
        // the node starts in the low half of word 5 and everything after
        // it sits 16 bits off a word boundary.
        let mut w = [V::splat(0); 16];
        w[..4].copy_from_slice(&adrs[..4]);
        w[4] = adrs[4].or(hash.shr::<16>());
        w[5] = hash.shl::<16>().or(node[0].shr::<16>());
        for i in 1..NW {
            w[5 + i] = node[i - 1].shl::<16>().or(node[i].shr::<16>());
        }
        w[5 + NW] = node[NW - 1].shl::<16>().or(V::splat(0x8000));
        w[15] = V::splat(bit_len);

        let digest = compress(&iv, &mut w);
        for (word, new) in node.iter_mut().zip(digest) {
            *word = V::if_live(round, steps, new, *word);
        }
        hash = hash.add(V::splat(1));
    }

    for (word, slot) in node.into_iter().zip(&mut group.node) {
        word.store(slot);
    }
}

/// [`run_group`] for whichever node width the parameter set has.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
unsafe fn run_group_any<V: Lanes>(
    iv: &[u32; 8],
    node_words: usize,
    rounds: u32,
    group: &mut Group,
) {
    match node_words {
        4 => run_group::<V, 4>(iv, rounds, group),
        6 => run_group::<V, 6>(iv, rounds, group),
        8 => run_group::<V, 8>(iv, rounds, group),
        _ => unreachable!("n is 16, 24 or 32"),
    }
}

/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn group_avx512(iv: &[u32; 8], node_words: usize, rounds: u32, group: &mut Group) {
    run_group_any::<Zmm>(iv, node_words, rounds, group)
}

/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn group_avx2(iv: &[u32; 8], node_words: usize, rounds: u32, group: &mut Group) {
    run_group_any::<Ymm>(iv, node_words, rounds, group)
}
