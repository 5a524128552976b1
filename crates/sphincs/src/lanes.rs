//! What the lane-resident SHA-256 bodies are written over: a register of
//! `u32` lanes ([`Lanes`], in zmm and in ymm), one compression of it
//! ([`compress`]), and the message of a tweakable-hash call put together
//! in registers — of one or two nodes ([`tweak`]), of as many as a `T_l`
//! compresses ([`absorb`]), or of the one shape a WOTS+ chain step has
//! ([`ChainStep`]). The WOTS+ chain kernel ([`crate::chain`]), the fused
//! FORS tree kernel ([`crate::forest`]), the verification ascent
//! ([`crate::ascent`]) and the WOTS+ leaf kernel ([`crate::leaf`]) are the
//! four bodies; [`crate::tier::sha256_chain_tier`] picks the register
//! width for all. `PRF` and `H` are [`tweak`]'s in every one of them,
//! `T_l` is [`absorb`]'s, and `F` along a chain — in the chain kernel and
//! in the leaf kernel — is [`ChainStep`]'s.
//!
//! Each lane is one independent hash call. Its operands live transposed,
//! one register per 32-bit word, from the moment a group is loaded — a
//! row at a time, or gathered lane by lane from a buffer of words
//! ([`Lanes::gather`]) — to the moment its results are stored; nothing
//! in between touches bytes.

use crate::address::AddressType;
use crate::sha256::{small_sigma0, small_sigma1, BLOCK_LEN, K};

use std::arch::x86_64::*;

/// Lanes of the widest body (one `u32` per zmm lane). Narrower bodies
/// use the first lanes of a transposed row.
pub(crate) const MAX_LANES: usize = 16;

/// Words of the longest node (`n = 32`).
pub(crate) const MAX_NODE_WORDS: usize = 8;

/// Message words that hold nothing but address: bytes `0..20` of the
/// 22-byte compressed address, i.e. everything before the low half of
/// its last field.
pub(crate) const ADRS_WORDS: usize = 5;

/// One word of every lane: a row of a transposed group.
pub(crate) type Row = [u32; MAX_LANES];

/// Message word 4 of a tree-node address at `height`: the field's low
/// half on top, the tree index's high half ([`tweak`] adds it) below.
/// Word 3 carries the field's high half, zero for every real tree.
pub(crate) fn height_word(height: u32) -> u32 {
    debug_assert!(height < 1 << 16);
    height << 16
}

/// Message words `0..5` of chain `chain` of the WOTS+ key pair whose
/// words ([`crate::address::Address::compressed_words`], chain index zero) are `keypair`:
/// the index goes across words 3 and 4, nothing else differs.
pub(crate) fn chain_words(keypair: &[u32; ADRS_WORDS], chain: u32) -> [u32; ADRS_WORDS] {
    let mut words = *keypair;
    words[3] |= chain >> 16;
    words[4] = chain << 16;
    words
}

/// Message word 2 of an address whose word under some type is `word2`,
/// under type `ty`: the type is the word's second byte and no other word
/// holds any of it. A chain's `PRF` address and a key pair's `T_len`
/// address are its `F` address under another type.
pub(crate) fn retyped(word2: u32, ty: AddressType) -> u32 {
    word2 & !(0xff << 16) | (ty as u32) << 16
}

/// An `n`-byte seed as the big-endian words a body splats across its
/// lanes.
pub(crate) fn seed_words(seed: &[u8]) -> [u32; MAX_NODE_WORDS] {
    let mut words = [0u32; MAX_NODE_WORDS];
    for (word, bytes) in words.iter_mut().zip(seed.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    words
}

/// Writes `nodes` — a signature's node list, back to back — into
/// `words` as big-endian words: how a signature's nodes go into the words
/// a body gathers its lanes from, one region at a time.
///
/// # Panics
///
/// Panics if `nodes` is not four bytes for every word.
pub(crate) fn put_nodes(words: &mut [u32], nodes: &[u8]) {
    assert_eq!(nodes.len(), 4 * words.len(), "nodes must fill the words");
    for (word, bytes) in words.iter_mut().zip(nodes.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
}

/// Writes message words `0..5` of a call — [`crate::address::Address::compressed_words`],
/// the last field (hash index or tree index) being [`tweak`]'s to add —
/// into lane `lane` of `rows`.
pub(crate) fn put_adrs(rows: &mut [Row; ADRS_WORDS], lane: usize, words: [u32; ADRS_WORDS]) {
    for (row, word) in rows.iter_mut().zip(words) {
        row[lane] = word;
    }
}

/// Reads lane `lane` of `rows` back into `bytes`.
pub(crate) fn take_words(rows: &[Row], lane: usize, bytes: &mut [u8]) {
    for (row, word) in rows.iter().zip(bytes.chunks_exact_mut(4)) {
        word.copy_from_slice(&row[lane].to_be_bytes());
    }
}

/// Copies lane `from` of `src` to lane `to` of `dst`, row for row: a
/// node goes from one group to another as the words it is.
pub(crate) fn move_words(src: &[Row], from: usize, dst: &mut [Row], to: usize) {
    for (src, dst) in src.iter().zip(dst) {
        dst[to] = src[from];
    }
}

/// A register of `u32` lanes: what the resident bodies are written over.
///
/// Every method is `unsafe` for one reason: it executes instructions of
/// the implementor's ISA extension, which the CPU must support. The
/// bodies are the only callers, and each is entered through a function
/// that carries the matching `#[target_feature]`.
pub(crate) trait Lanes: Copy {
    /// `u32` lanes of the register.
    const LANES: usize;
    unsafe fn splat(x: u32) -> Self;
    unsafe fn load(src: &Row) -> Self;
    /// The first [`Lanes::LANES`] words of `src`, which has that many.
    unsafe fn load_from(src: &[u32]) -> Self;
    /// Lane by lane, `base[idx]`; every lane of `idx` is below
    /// `base.len()`.
    unsafe fn gather(base: &[u32], idx: Self) -> Self;
    /// Lane by lane, `base[idx] = self`, the last of two lanes with one
    /// index winning; every lane of `idx` is below `base.len()`.
    unsafe fn scatter(self, base: &mut [u32], idx: Self);
    unsafe fn store(self, dst: &mut Row);
    unsafe fn add(self, other: Self) -> Self;
    unsafe fn or(self, other: Self) -> Self;
    unsafe fn xor3(self, b: Self, c: Self) -> Self;
    /// `self ? f : g`, bit by bit.
    unsafe fn ch(self, f: Self, g: Self) -> Self;
    unsafe fn maj(self, b: Self, c: Self) -> Self;
    unsafe fn ror<const R: i32>(self) -> Self;
    unsafe fn shr(self, count: u32) -> Self;
    unsafe fn shl(self, count: u32) -> Self;
    /// Lane by lane, the smaller of the two, unsigned.
    unsafe fn min(self, other: Self) -> Self;
    /// The columns of a matrix of 8-word rows that `rows` hold
    /// [`Lanes::LANES`] words at a time, row after row: word `f` of every
    /// row, a register each. Which lane a row lands in is the same for
    /// every column.
    unsafe fn transpose8(rows: [Self; 8]) -> [Self; 8];
    /// Lane by lane, `new` where `round < steps` and `old` elsewhere.
    unsafe fn if_live(round: u32, steps: Self, new: Self, old: Self) -> Self;
    /// Lane by lane, `new` where `a == b` and `old` elsewhere.
    unsafe fn if_eq(a: Self, b: Self, new: Self, old: Self) -> Self;
}

/// Sixteen lanes in one zmm register, with the single-instruction
/// rotates and three-input logic of AVX-512F.
#[derive(Clone, Copy)]
pub(crate) struct Zmm(__m512i);

impl Lanes for Zmm {
    const LANES: usize = 16;
    #[inline(always)]
    unsafe fn splat(x: u32) -> Self {
        Zmm(_mm512_set1_epi32(x as i32))
    }
    #[inline(always)]
    unsafe fn load(src: &Row) -> Self {
        Zmm(_mm512_loadu_si512(src.as_ptr().cast()))
    }
    #[inline(always)]
    unsafe fn load_from(src: &[u32]) -> Self {
        debug_assert!(src.len() >= Self::LANES);
        Zmm(_mm512_loadu_si512(src.as_ptr().cast()))
    }
    #[inline(always)]
    unsafe fn gather(base: &[u32], idx: Self) -> Self {
        Zmm(_mm512_i32gather_epi32::<4>(idx.0, base.as_ptr().cast()))
    }
    #[inline(always)]
    unsafe fn scatter(self, base: &mut [u32], idx: Self) {
        _mm512_i32scatter_epi32::<4>(base.as_mut_ptr().cast(), idx.0, self.0);
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut Row) {
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
    unsafe fn shr(self, count: u32) -> Self {
        Zmm(_mm512_srl_epi32(self.0, _mm_cvtsi32_si128(count as i32)))
    }
    #[inline(always)]
    unsafe fn shl(self, count: u32) -> Self {
        Zmm(_mm512_sll_epi32(self.0, _mm_cvtsi32_si128(count as i32)))
    }
    #[inline(always)]
    unsafe fn min(self, other: Self) -> Self {
        Zmm(_mm512_min_epu32(self.0, other.0))
    }
    // Two rows to a register: the 8 × 8 transpose of the ymm body in
    // each 256-bit half, so that even rows land in lanes 0..8 and odd
    // rows in lanes 8..16.
    #[inline(always)]
    unsafe fn transpose8(rows: [Self; 8]) -> [Self; 8] {
        let r = rows.map(|row| row.0);
        let t = [
            _mm512_unpacklo_epi32(r[0], r[1]),
            _mm512_unpackhi_epi32(r[0], r[1]),
            _mm512_unpacklo_epi32(r[2], r[3]),
            _mm512_unpackhi_epi32(r[2], r[3]),
            _mm512_unpacklo_epi32(r[4], r[5]),
            _mm512_unpackhi_epi32(r[4], r[5]),
            _mm512_unpacklo_epi32(r[6], r[7]),
            _mm512_unpackhi_epi32(r[6], r[7]),
        ];
        let u = [
            _mm512_unpacklo_epi64(t[0], t[2]),
            _mm512_unpackhi_epi64(t[0], t[2]),
            _mm512_unpacklo_epi64(t[1], t[3]),
            _mm512_unpackhi_epi64(t[1], t[3]),
            _mm512_unpacklo_epi64(t[4], t[6]),
            _mm512_unpackhi_epi64(t[4], t[6]),
            _mm512_unpacklo_epi64(t[5], t[7]),
            _mm512_unpackhi_epi64(t[5], t[7]),
        ];
        // Per 256-bit half, its low 128 bits of `a` then of `b`, or its
        // high 128 bits of each.
        let low = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
        let high = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
        let pick = |a, idx, b| Zmm(_mm512_permutex2var_epi64(a, idx, b));
        [
            pick(u[0], low, u[4]),
            pick(u[1], low, u[5]),
            pick(u[2], low, u[6]),
            pick(u[3], low, u[7]),
            pick(u[0], high, u[4]),
            pick(u[1], high, u[5]),
            pick(u[2], high, u[6]),
            pick(u[3], high, u[7]),
        ]
    }
    #[inline(always)]
    unsafe fn if_live(round: u32, steps: Self, new: Self, old: Self) -> Self {
        let live = _mm512_cmplt_epu32_mask(Self::splat(round).0, steps.0);
        Zmm(_mm512_mask_mov_epi32(old.0, live, new.0))
    }
    #[inline(always)]
    unsafe fn if_eq(a: Self, b: Self, new: Self, old: Self) -> Self {
        Zmm(_mm512_mask_mov_epi32(
            old.0,
            _mm512_cmpeq_epi32_mask(a.0, b.0),
            new.0,
        ))
    }
}

/// Eight lanes in one ymm register. AVX2 has neither rotates nor
/// three-input logic: a rotate is two shifts and an or.
#[derive(Clone, Copy)]
pub(crate) struct Ymm(__m256i);

impl Lanes for Ymm {
    const LANES: usize = 8;
    #[inline(always)]
    unsafe fn splat(x: u32) -> Self {
        Ymm(_mm256_set1_epi32(x as i32))
    }
    #[inline(always)]
    unsafe fn load(src: &Row) -> Self {
        Ymm(_mm256_loadu_si256(src.as_ptr().cast()))
    }
    #[inline(always)]
    unsafe fn load_from(src: &[u32]) -> Self {
        debug_assert!(src.len() >= Self::LANES);
        Ymm(_mm256_loadu_si256(src.as_ptr().cast()))
    }
    #[inline(always)]
    unsafe fn gather(base: &[u32], idx: Self) -> Self {
        Ymm(_mm256_i32gather_epi32::<4>(base.as_ptr().cast(), idx.0))
    }
    // AVX2 has no scatter: the lanes go out one by one.
    #[inline(always)]
    unsafe fn scatter(self, base: &mut [u32], idx: Self) {
        let (mut words, mut at) = ([0u32; 8], [0u32; 8]);
        _mm256_storeu_si256(words.as_mut_ptr().cast(), self.0);
        _mm256_storeu_si256(at.as_mut_ptr().cast(), idx.0);
        for (word, at) in words.into_iter().zip(at) {
            *base.get_unchecked_mut(at as usize) = word;
        }
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut Row) {
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
        self.shr(R as u32).or(self.shl(32 - R as u32))
    }
    // The counts are constants to the compiler wherever the caller's are.
    #[inline(always)]
    unsafe fn shr(self, count: u32) -> Self {
        Ymm(_mm256_srl_epi32(self.0, _mm_cvtsi32_si128(count as i32)))
    }
    #[inline(always)]
    unsafe fn shl(self, count: u32) -> Self {
        Ymm(_mm256_sll_epi32(self.0, _mm_cvtsi32_si128(count as i32)))
    }
    #[inline(always)]
    unsafe fn min(self, other: Self) -> Self {
        Ymm(_mm256_min_epu32(self.0, other.0))
    }
    // One row to a register: the textbook 8 × 8 transpose.
    #[inline(always)]
    unsafe fn transpose8(rows: [Self; 8]) -> [Self; 8] {
        let r = rows.map(|row| row.0);
        let t = [
            _mm256_unpacklo_epi32(r[0], r[1]),
            _mm256_unpackhi_epi32(r[0], r[1]),
            _mm256_unpacklo_epi32(r[2], r[3]),
            _mm256_unpackhi_epi32(r[2], r[3]),
            _mm256_unpacklo_epi32(r[4], r[5]),
            _mm256_unpackhi_epi32(r[4], r[5]),
            _mm256_unpacklo_epi32(r[6], r[7]),
            _mm256_unpackhi_epi32(r[6], r[7]),
        ];
        let u = [
            _mm256_unpacklo_epi64(t[0], t[2]),
            _mm256_unpackhi_epi64(t[0], t[2]),
            _mm256_unpacklo_epi64(t[1], t[3]),
            _mm256_unpackhi_epi64(t[1], t[3]),
            _mm256_unpacklo_epi64(t[4], t[6]),
            _mm256_unpackhi_epi64(t[4], t[6]),
            _mm256_unpacklo_epi64(t[5], t[7]),
            _mm256_unpackhi_epi64(t[5], t[7]),
        ];
        [
            Ymm(_mm256_permute2x128_si256::<0x20>(u[0], u[4])),
            Ymm(_mm256_permute2x128_si256::<0x20>(u[1], u[5])),
            Ymm(_mm256_permute2x128_si256::<0x20>(u[2], u[6])),
            Ymm(_mm256_permute2x128_si256::<0x20>(u[3], u[7])),
            Ymm(_mm256_permute2x128_si256::<0x31>(u[0], u[4])),
            Ymm(_mm256_permute2x128_si256::<0x31>(u[1], u[5])),
            Ymm(_mm256_permute2x128_si256::<0x31>(u[2], u[6])),
            Ymm(_mm256_permute2x128_si256::<0x31>(u[3], u[7])),
        ]
    }
    #[inline(always)]
    unsafe fn if_live(round: u32, steps: Self, new: Self, old: Self) -> Self {
        // A signed compare: step counts are far below 2^31.
        let live = _mm256_cmpgt_epi32(steps.0, Self::splat(round).0);
        Ymm(_mm256_blendv_epi8(old.0, new.0, live))
    }
    #[inline(always)]
    unsafe fn if_eq(a: Self, b: Self, new: Self, old: Self) -> Self {
        Ymm(_mm256_blendv_epi8(
            old.0,
            new.0,
            _mm256_cmpeq_epi32(a.0, b.0),
        ))
    }
}

/// Round constants `16t..16t+16`.
#[inline(always)]
fn round_constants(t: usize) -> &'static [u32; 16] {
    K[16 * t..][..16].try_into().expect("16 of 64 constants")
}

/// `Σ0` of a round.
#[inline(always)]
unsafe fn big_sigma0<V: Lanes>(x: V) -> V {
    x.ror::<2>().xor3(x.ror::<13>(), x.ror::<22>())
}

/// `Σ1` of a round.
#[inline(always)]
unsafe fn big_sigma1<V: Lanes>(x: V) -> V {
    x.ror::<6>().xor3(x.ror::<11>(), x.ror::<25>())
}

/// `σ0` of the schedule.
#[inline(always)]
unsafe fn sigma0<V: Lanes>(x: V) -> V {
    x.ror::<7>().xor3(x.ror::<18>(), x.shr(3))
}

/// `σ1` of the schedule.
#[inline(always)]
unsafe fn sigma1<V: Lanes>(x: V) -> V {
    x.ror::<17>().xor3(x.ror::<19>(), x.shr(10))
}

/// One round on renamed registers (the a..h rotation is in the argument
/// order, not in moves); `$kw` is the round constant plus the message
/// word.
macro_rules! round {
    ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $kw:expr) => {
        let t1 = $h.add(big_sigma1($e)).add($e.ch($f, $g)).add($kw);
        $d = $d.add(t1);
        $h = t1.add(big_sigma0($a).add($a.maj($b, $c)));
    };
}

/// Sixteen rounds from where the registers are `a..h` again, round `j`
/// adding `$k[j]` and word `j` of the rolling schedule `$w`, which
/// `$ready!(j)` sees to first.
macro_rules! rounds16 {
    ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident,
     $k:ident, $w:ident, $ready:ident) => {
        rounds16!(@ $k, $w, $ready, 0, $a $b $c $d $e $f $g $h);
        rounds16!(@ $k, $w, $ready, 1, $h $a $b $c $d $e $f $g);
        rounds16!(@ $k, $w, $ready, 2, $g $h $a $b $c $d $e $f);
        rounds16!(@ $k, $w, $ready, 3, $f $g $h $a $b $c $d $e);
        rounds16!(@ $k, $w, $ready, 4, $e $f $g $h $a $b $c $d);
        rounds16!(@ $k, $w, $ready, 5, $d $e $f $g $h $a $b $c);
        rounds16!(@ $k, $w, $ready, 6, $c $d $e $f $g $h $a $b);
        rounds16!(@ $k, $w, $ready, 7, $b $c $d $e $f $g $h $a);
        rounds16!(@ $k, $w, $ready, 8, $a $b $c $d $e $f $g $h);
        rounds16!(@ $k, $w, $ready, 9, $h $a $b $c $d $e $f $g);
        rounds16!(@ $k, $w, $ready, 10, $g $h $a $b $c $d $e $f);
        rounds16!(@ $k, $w, $ready, 11, $f $g $h $a $b $c $d $e);
        rounds16!(@ $k, $w, $ready, 12, $e $f $g $h $a $b $c $d);
        rounds16!(@ $k, $w, $ready, 13, $d $e $f $g $h $a $b $c);
        rounds16!(@ $k, $w, $ready, 14, $c $d $e $f $g $h $a $b);
        rounds16!(@ $k, $w, $ready, 15, $b $c $d $e $f $g $h $a);
    };
    (@ $k:ident, $w:ident, $ready:ident, $j:literal, $($regs:ident)+) => {
        $ready!($j);
        round!($($regs)+, V::splat($k[$j]).add($w[$j]));
    };
}

/// Word `j` of the rolling schedule `$w`, sixteen words on, in place.
macro_rules! extend {
    ($w:ident, $j:literal) => {
        $w[$j] = $w[$j]
            .add(sigma0($w[($j + 1) % 16]))
            .add($w[($j + 9) % 16].add(sigma1($w[($j + 14) % 16])));
    };
}

/// One compression of the 16-word message `w` from state `iv`; `w` is
/// consumed as the rolling schedule.
///
/// Inlined into each of a body's calls, so that message and digest stay
/// in registers: as a call it cost a 128f subtree fill 15 µs of 80.
/// That holds only where this crate is optimised: at opt-level 0 every
/// temporary of the 64 unrolled rounds is a stack slot, and each inlined
/// copy costs its caller half a megabyte of stack. This workspace never
/// builds `hero-sphincs` at opt-level 0; the root `Cargo.toml` says why.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
unsafe fn compress<V: Lanes>(iv: &[V; 8], w: &mut [V; 16]) -> [V; 8] {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *iv;

    macro_rules! as_it_is {
        ($j:literal) => {};
    }
    macro_rules! extended {
        ($j:literal) => {
            extend!(w, $j)
        };
    }
    let k = round_constants(0);
    rounds16!(a b c d e f g h, k, w, as_it_is);
    for t in 1..4 {
        let k = round_constants(t);
        rounds16!(a b c d e f g h, k, w, extended);
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

/// One tweakable-hash call per lane, after the seed block: the digest of
/// `ADRS_c ‖ payload` continued from state `iv` — `F` and `PRF` on one
/// node of `NW` words, `H` on the two of a sibling pair. `adrs` is
/// message words `0..5` ([`put_adrs`]) and `last` the address's last
/// field.
///
/// Bytes `0..22` are `ADRS_c`, whose last four are that field, so the
/// payload starts in the low half of word 5 and everything after it sits
/// 16 bits off a word boundary. The terminator follows the payload's last
/// word; with the bit length it fits one block up to eight payload words
/// (`F` and `PRF` at every `n`, `H` at `n = 16`) and needs a second one
/// beyond.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
pub(crate) unsafe fn tweak<V: Lanes, const NW: usize, const NODES: usize>(
    iv: &[V; 8],
    adrs: &[V; ADRS_WORDS],
    last: V,
    payload: [&[V; NW]; NODES],
) -> [V; 8] {
    let bit_len = ((BLOCK_LEN + 22 + 4 * NW * NODES) * 8) as u32;
    let mut blocks = [[V::splat(0); 16]; 2];
    blocks[0][..4].copy_from_slice(&adrs[..4]);
    blocks[0][4] = adrs[4].or(last.shr(16));
    let (mut at, mut carry) = (5, last);
    for node in payload {
        for &word in node {
            blocks[at / 16][at % 16] = carry.shl(16).or(word.shr(16));
            (at, carry) = (at + 1, word);
        }
    }
    blocks[at / 16][at % 16] = carry.shl(16).or(V::splat(0x8000));

    let [first, second] = &mut blocks;
    if at < 14 {
        first[15] = V::splat(bit_len);
        compress(iv, first)
    } else {
        second[15] = V::splat(bit_len);
        let state = compress(iv, first);
        compress(&state, second)
    }
}

/// The `n`-byte truncation of a digest.
#[inline(always)]
pub(crate) fn first<V: Copy, const NW: usize>(digest: [V; 8]) -> [V; NW] {
    std::array::from_fn(|i| digest[i])
}

/// The `F` call of one WOTS+ chain per lane, compiled for the one message
/// shape a chain step ever hashes.
///
/// Along a chain only the hash index and the node change. Words `0..5`
/// are the chain's address (the index stays in the low half of word 5 as
/// long as it is below 2¹⁶, which is the caller's to see to), words
/// `5..=5 + NW` the index, the node and the terminator, word 15 the
/// length, and every word between is zero. So rounds 0–4 are taken once
/// per chain, a round whose word is zero adds its constant alone, and in
/// the first sixteen words of the extended schedule a term whose word is
/// zero is dropped and one whose words are all the chain's or the
/// length's is taken once per chain too ([`ChainStep::scheduled`]); from
/// word 32 on the schedule is [`compress`]'s. Of the digest, only the
/// node is added back. At `n = 16` that leaves 1440 of [`tweak`]'s ≈ 1650
/// vector operations; what it measures to is in [`crate::tier`].
pub(crate) struct ChainStep<V, const NW: usize> {
    /// The registers after rounds 0–4, `a..h` as [`round!`] names them.
    midstate: [V; 8],
    /// What the address and the length make up of schedule words
    /// `16..=21`.
    fixed: [V; 6],
}

impl<V: Lanes, const NW: usize> ChainStep<V, NW> {
    /// Word 15 of the message: its length in bits, seed block included.
    const BIT_LEN: u32 = ((BLOCK_LEN + 22 + 4 * NW) * 8) as u32;

    /// Whether word `t` of the message changes along a chain: the words
    /// from the hash index to the terminator.
    const fn live(t: usize) -> bool {
        5 <= t && t <= 5 + NW
    }

    /// Whether word `t` of the schedule, past the message, has no term
    /// that changes along a chain. At `n = 16` two have none: word 17,
    /// made of words 1, 2, 10 and 15, and word 19, made of words 3, 4, 12
    /// and 17.
    const fn settled(t: usize) -> bool {
        NW == 4 && (t == 17 || t == 19)
    }

    /// The step of the chains whose message words `0..5` are `adrs`, from
    /// the seeded state `iv`.
    ///
    /// # Safety
    ///
    /// As [`Lanes`].
    #[inline(always)]
    pub(crate) unsafe fn new(iv: &[V; 8], adrs: &[V; ADRS_WORDS]) -> Self {
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *iv;
        round!(a b c d e f g h, V::splat(K[0]).add(adrs[0]));
        round!(h a b c d e f g, V::splat(K[1]).add(adrs[1]));
        round!(g h a b c d e f, V::splat(K[2]).add(adrs[2]));
        round!(f g h a b c d e, V::splat(K[3]).add(adrs[3]));
        round!(e f g h a b c d, V::splat(K[4]).add(adrs[4]));

        let word17 = adrs[1]
            .add(sigma0(adrs[2]))
            .add(V::splat(small_sigma1(Self::BIT_LEN)));
        let mut word19 = adrs[3].add(sigma0(adrs[4]));
        let mut word21 = V::splat(0);
        if Self::settled(17) {
            word19 = word19.add(sigma1(word17));
            word21 = sigma1(word19);
        }
        ChainStep {
            midstate: [a, b, c, d, e, f, g, h],
            fixed: [
                adrs[0].add(sigma0(adrs[1])),
                word17,
                adrs[2].add(sigma0(adrs[3])),
                word19,
                adrs[4],
                word21,
            ],
        }
    }

    /// Word `T` of the schedule, `16 ≤ T < 32`, from the rolling schedule
    /// `w`: of `σ1(W[T−2]) + W[T−7] + σ0(W[T−15]) + W[T−16]`, the terms
    /// that change along the chain on top of what the address and the
    /// length come to. A settled word is in `w` like any other; only its
    /// `σ1` is taken once per chain.
    #[inline(always)]
    unsafe fn scheduled<const T: usize>(&self, w: &[V; 16]) -> V {
        let mut word = match T {
            16..=21 => self.fixed[T - 16],
            22 | 31 => V::splat(Self::BIT_LEN),
            30 => V::splat(small_sigma0(Self::BIT_LEN)),
            _ => V::splat(0),
        };
        if T - 2 >= 16 && !Self::settled(T - 2) {
            word = word.add(sigma1(w[(T - 2) % 16]));
        }
        if T - 7 >= 16 || Self::live(T - 7) {
            word = word.add(w[(T - 7) % 16]);
        }
        if T - 15 == 16 || Self::live(T - 15) {
            word = word.add(sigma0(w[(T - 15) % 16]));
        }
        if Self::live(T - 16) {
            word = word.add(w[T - 16]);
        }
        word
    }

    /// `F` of `node` at the hash index whose low half is the high half of
    /// `index_high`: the first `NW` words of what
    /// `tweak(iv, adrs, index, [node])` returns.
    ///
    /// # Safety
    ///
    /// As [`Lanes`].
    #[inline(always)]
    pub(crate) unsafe fn f(&self, iv: &[V; 8], index_high: V, node: &[V; NW]) -> [V; NW] {
        let mut w = [V::splat(0); 16];
        let mut carry = index_high;
        for (i, &word) in node.iter().enumerate() {
            w[5 + i] = carry.or(word.shr(16));
            carry = word.shl(16);
        }
        w[5 + NW] = carry.or(V::splat(0x8000));

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.midstate;
        macro_rules! message {
            ($j:literal) => {
                if Self::live($j) {
                    V::splat(K[$j]).add(w[$j])
                } else {
                    V::splat(K[$j])
                }
            };
        }
        round!(d e f g h a b c, message!(5));
        round!(c d e f g h a b, message!(6));
        round!(b c d e f g h a, message!(7));
        round!(a b c d e f g h, message!(8));
        round!(h a b c d e f g, message!(9));
        round!(g h a b c d e f, message!(10));
        round!(f g h a b c d e, message!(11));
        round!(e f g h a b c d, message!(12));
        round!(d e f g h a b c, message!(13));
        round!(c d e f g h a b, message!(14));
        round!(b c d e f g h a, V::splat(K[15].wrapping_add(Self::BIT_LEN)));

        macro_rules! folded {
            ($j:literal) => {
                w[$j] = self.scheduled::<{ 16 + $j }>(&w)
            };
        }
        macro_rules! extended {
            ($j:literal) => {
                extend!(w, $j)
            };
        }
        let k = round_constants(1);
        rounds16!(a b c d e f g h, k, w, folded);
        for t in 2..4 {
            let k = round_constants(t);
            rounds16!(a b c d e f g h, k, w, extended);
        }

        let digest = [a, b, c, d, e, f, g, h];
        std::array::from_fn(|i| unsafe { iv[i].add(digest[i]) })
    }
}

/// One `T_l` call per lane, after the seed block: the digest of
/// `ADRS_c ‖ payload` continued from state `iv`, for a payload of any
/// number of words — `payload(i)` is word `i` of every lane's (a WOTS+
/// key's `len` chain ends, a forest's `k` roots, node after node), `len`
/// of them. `adrs` and `last` are [`tweak`]'s, and so is the layout: every
/// payload word sits 16 bits off a word boundary, the terminator follows
/// the last, and the bit length closes the last block; a block is
/// compressed as soon as it is full, so the message is never laid out
/// whole.
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
pub(crate) unsafe fn absorb<V: Lanes>(
    iv: &[V; 8],
    adrs: &[V; ADRS_WORDS],
    last: V,
    len: usize,
    payload: impl Fn(usize) -> V,
) -> [V; 8] {
    let bit_len = ((BLOCK_LEN + 22 + 4 * len) * 8) as u32;
    let zero = V::splat(0);
    let mut state = *iv;
    let mut block = [zero; 16];
    block[..4].copy_from_slice(&adrs[..4]);
    block[4] = adrs[4].or(last.shr(16));
    let (mut at, mut carry) = (5, last);
    for i in 0..len {
        let word = payload(i);
        block[at] = carry.shl(16).or(word.shr(16));
        (at, carry) = (at + 1, word);
        if at == 16 {
            state = compress(&state, &mut block);
            at = 0;
        }
    }
    block[at] = carry.shl(16).or(V::splat(0x8000));
    at += 1;
    // The bit length takes the last two words of a block.
    if at > 14 {
        block[at..].fill(zero);
        state = compress(&state, &mut block);
        at = 0;
    }
    block[at..15].fill(zero);
    block[15] = V::splat(bit_len);
    compress(&state, &mut block)
}

/// Defines `body_for(tier, n)`: the generic body `$run::<V, NW>` compiled
/// for the register width of `tier` and the word count of `n`-byte nodes,
/// with the lanes it fills — or `None` where the ladder has no body. Each
/// instantiation is a function of its own.
macro_rules! lane_bodies {
    ($run:ident $args:tt) => {
        fn body_for(
            tier: $crate::tier::HashTier,
            n: usize,
        ) -> Option<(usize, $crate::lanes::lane_bodies!(@fn $args))> {
            use $crate::lanes::{lane_bodies, Ymm, Zmm};
            use $crate::tier::HashTier;
            lane_bodies!(@body zmm_4, "avx512f", $run, Zmm, 4, $args);
            lane_bodies!(@body zmm_6, "avx512f", $run, Zmm, 6, $args);
            lane_bodies!(@body zmm_8, "avx512f", $run, Zmm, 8, $args);
            lane_bodies!(@body ymm_4, "avx2", $run, Ymm, 4, $args);
            lane_bodies!(@body ymm_6, "avx2", $run, Ymm, 6, $args);
            lane_bodies!(@body ymm_8, "avx2", $run, Ymm, 8, $args);
            match (tier, n) {
                (HashTier::Avx512, 16) => Some((16, zmm_4)),
                (HashTier::Avx512, 24) => Some((16, zmm_6)),
                (HashTier::Avx512, 32) => Some((16, zmm_8)),
                (HashTier::Avx2, 16) => Some((8, ymm_4)),
                (HashTier::Avx2, 24) => Some((8, ymm_6)),
                (HashTier::Avx2, 32) => Some((8, ymm_8)),
                _ => None,
            }
        }
    };
    (@fn ($($arg:ident: $ty:ty),* $(,)?)) => { unsafe fn($($ty),*) };
    (@body $name:ident, $feature:literal, $run:ident, $V:ty, $NW:literal,
     ($($arg:ident: $ty:ty),* $(,)?)) => {
        /// # Safety
        ///
        /// The CPU must support the extension this is compiled for.
        #[target_feature(enable = $feature)]
        unsafe fn $name($($arg: $ty),*) {
            $run::<$V, $NW>($($arg),*)
        }
    };
}
pub(crate) use lane_bodies;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::hash::{ChainHead, ChainJob};
    use crate::wots::pk_adrs_for;

    #[test]
    fn retyped_word_is_the_other_address_own() {
        for layer in [0, 255] {
            for tree in [0, (1 << 63) - 1] {
                for (keypair, chain) in [(0, 0), (7, 34), (1 << 16, 1 << 16), (u32::MAX, u32::MAX)]
                {
                    let mut adrs = Address::new();
                    adrs.set_layer(layer);
                    adrs.set_tree(tree);
                    adrs.set_type(AddressType::WotsHash);
                    adrs.set_keypair(keypair);
                    adrs.set_chain(chain);
                    let job = ChainJob {
                        adrs,
                        head: ChainHead::Node,
                        start: 0,
                        steps: 0,
                    };
                    let f_words = adrs.compressed_words();
                    let mut prf_words = f_words;
                    prf_words[2] = retyped(f_words[2], AddressType::WotsPrf);
                    assert_eq!(
                        prf_words,
                        job.prf_adrs().compressed_words(),
                        "layer {layer} tree {tree} key pair {keypair} chain {chain}"
                    );

                    // A key pair's `T_len` address is its chain 0 retyped.
                    adrs.set_chain(0);
                    let mut pk_words = adrs.compressed_words();
                    pk_words[2] = retyped(pk_words[2], AddressType::WotsPk);
                    assert_eq!(pk_words, pk_adrs_for(&adrs).compressed_words());
                }
            }
        }
    }
}
