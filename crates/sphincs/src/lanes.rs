//! What the lane-resident SHA-256 bodies are written over: a register of
//! `u32` lanes ([`Zmm`] and [`Ymm`]), one compression of it
//! ([`compress!`]), and the message of a tweakable-hash call put together
//! in registers — of one or two nodes ([`tweak!`]), of as many as a `T_l`
//! compresses ([`absorb!`]), or of the one shape a WOTS+ chain step has
//! ([`ChainStep`]). The WOTS+ chain kernel ([`crate::chain`]), the fused
//! FORS tree kernel ([`crate::forest`]), the verification ascent
//! ([`crate::ascent`]) and the WOTS+ leaf kernel ([`crate::leaf`]) are the
//! four bodies, each instantiated per register type by [`lane_bodies!`];
//! [`crate::tier::sha256_chain_tier`] picks the register width for all.
//! `PRF` and `H` are [`tweak!`]'s in every one of them, `T_l` is
//! [`absorb!`]'s, and `F` along a chain — in the chain kernel and in the
//! leaf kernel — is [`chain_f!`]'s.
//!
//! Each lane is one independent hash call. Its operands live transposed,
//! one register per 32-bit word, from the moment a group is loaded — a
//! row at a time, or gathered lane by lane from a buffer of words
//! ([`Zmm::gather`]) — to the moment its results are stored; nothing
//! in between touches bytes.
//!
//! # Safety
//!
//! Every op of [`Zmm`] and [`Ymm`] is a safe `#[target_feature]` fn, and
//! so is every body, closures and shared SHA-256 code included: none of
//! it trusts anything but that the CPU has the body's extension, and a
//! body is reached only through the `unsafe fn` pointer [`lane_bodies!`]
//! hands its kernel, called once per kernel for the tier the ladder
//! detected. What else the crate leaves to `unsafe`, by kind: unaligned
//! loads and stores of whole arrays or checked lengths ([`Zmm::load`],
//! [`Zmm::store`], their ymm twins, the SHA-NI and Keccak cores');
//! gathers and scatters ([`Zmm::gather`], [`Zmm::scatter`], their ymm
//! twins) within bounds their body asserts; the ascent's view of its
//! `Climb`s as words; one dispatch match per primitive
//! (`sha256::compress`, `sha256::compress_x_on`, `keccak::permute_x_on`)
//! and its callers; the aarch64 NEON cores, as they were.

use crate::address::AddressType;
use crate::sha256::{BLOCK_LEN, K};

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

/// Sixteen lanes in one zmm register, with the single-instruction
/// rotates and three-input logic of AVX-512F.
#[derive(Clone, Copy)]
pub(crate) struct Zmm(__m512i);

impl Zmm {
    /// `u32` lanes of the register.
    pub(crate) const LANES: usize = 16;
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn splat(x: u32) -> Self {
        Zmm(_mm512_set1_epi32(x as i32))
    }
    /// The first [`Zmm::LANES`] words of `src`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn load(src: &[u32]) -> Self {
        assert!(src.len() >= Self::LANES, "a load takes a whole register");
        // SAFETY: `src` holds the words read (asserted); unaligned load.
        Zmm(unsafe { _mm512_loadu_si512(src.as_ptr().cast()) })
    }
    /// Into the first [`Zmm::LANES`] words of `dst`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn store(self, dst: &mut [u32]) {
        assert!(dst.len() >= Self::LANES, "a store fills a whole register");
        // SAFETY: `dst` holds the words written (asserted); unaligned store.
        unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), self.0) }
    }
    /// Lane by lane, `base[idx]`.
    ///
    /// # Safety
    ///
    /// Every lane of `idx` is below `base.len()`, which is at most
    /// `i32::MAX`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) unsafe fn gather(base: &[u32], idx: Self) -> Self {
        // SAFETY: every lane reads a word of `base` (the contract).
        Zmm(unsafe { _mm512_i32gather_epi32::<4>(idx.0, base.as_ptr().cast()) })
    }
    /// Lane by lane, `base[idx] = self`, the last of two lanes with one
    /// index winning, under [`Zmm::gather`]'s contract.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) unsafe fn scatter(self, base: &mut [u32], idx: Self) {
        // SAFETY: every lane writes a word of `base` (the contract).
        unsafe { _mm512_i32scatter_epi32::<4>(base.as_mut_ptr().cast(), idx.0, self.0) }
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn add(self, other: Self) -> Self {
        Zmm(_mm512_add_epi32(self.0, other.0))
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn or(self, other: Self) -> Self {
        Zmm(_mm512_or_si512(self.0, other.0))
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn xor3(self, b: Self, c: Self) -> Self {
        Zmm(_mm512_ternarylogic_epi32::<0x96>(self.0, b.0, c.0))
    }
    /// `self ? f : g`, bit by bit.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn ch(self, f: Self, g: Self) -> Self {
        Zmm(_mm512_ternarylogic_epi32::<0xCA>(self.0, f.0, g.0))
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn maj(self, b: Self, c: Self) -> Self {
        Zmm(_mm512_ternarylogic_epi32::<0xE8>(self.0, b.0, c.0))
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn ror<const R: i32>(self) -> Self {
        Zmm(_mm512_ror_epi32::<R>(self.0))
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn shr(self, count: u32) -> Self {
        Zmm(_mm512_srl_epi32(self.0, _mm_cvtsi32_si128(count as i32)))
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn shl(self, count: u32) -> Self {
        Zmm(_mm512_sll_epi32(self.0, _mm_cvtsi32_si128(count as i32)))
    }
    /// Lane by lane, the smaller of the two, unsigned.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn min(self, other: Self) -> Self {
        Zmm(_mm512_min_epu32(self.0, other.0))
    }
    /// The columns of a matrix of 8-word rows that `rows` hold
    /// [`Zmm::LANES`] words at a time, row after row: word `f` of every
    /// row, a register each. Two rows to a register: the 8 × 8 transpose
    /// of [`Ymm::transpose8`] in each 256-bit half, so that even rows
    /// land in lanes 0..8 and odd rows in lanes 8..16.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn transpose8(rows: [Self; 8]) -> [Self; 8] {
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
    /// Lane by lane, `new` where `round < steps` and `old` elsewhere.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn if_live(round: u32, steps: Self, new: Self, old: Self) -> Self {
        let live = _mm512_cmplt_epu32_mask(Self::splat(round).0, steps.0);
        Zmm(_mm512_mask_mov_epi32(old.0, live, new.0))
    }
    /// Lane by lane, `new` where `a == b` and `old` elsewhere.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn if_eq(a: Self, b: Self, new: Self, old: Self) -> Self {
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
pub(crate) struct Ymm(pub(crate) __m256i);

impl Ymm {
    /// `u32` lanes of the register.
    pub(crate) const LANES: usize = 8;
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn splat(x: u32) -> Self {
        Ymm(_mm256_set1_epi32(x as i32))
    }
    /// The first [`Ymm::LANES`] words of `src`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn load(src: &[u32]) -> Self {
        assert!(src.len() >= Self::LANES, "a load takes a whole register");
        // SAFETY: `src` holds the words read (asserted); unaligned load.
        Ymm(unsafe { _mm256_loadu_si256(src.as_ptr().cast()) })
    }
    /// Into the first [`Ymm::LANES`] words of `dst`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn store(self, dst: &mut [u32]) {
        assert!(dst.len() >= Self::LANES, "a store fills a whole register");
        // SAFETY: `dst` holds the words written (asserted); unaligned store.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0) }
    }
    /// As [`Zmm::gather`], and under its contract.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) unsafe fn gather(base: &[u32], idx: Self) -> Self {
        // SAFETY: every lane reads a word of `base` (the contract).
        Ymm(unsafe { _mm256_i32gather_epi32::<4>(base.as_ptr().cast(), idx.0) })
    }
    /// As [`Zmm::scatter`], and under its contract; AVX2 has no scatter,
    /// so the lanes go out one by one.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) unsafe fn scatter(self, base: &mut [u32], idx: Self) {
        let (mut words, mut at) = ([0u32; 8], [0u32; 8]);
        self.store(&mut words);
        idx.store(&mut at);
        for (word, at) in words.into_iter().zip(at) {
            // SAFETY: `at` is below `base.len()` (the contract).
            unsafe { *base.get_unchecked_mut(at as usize) = word };
        }
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn add(self, other: Self) -> Self {
        Ymm(_mm256_add_epi32(self.0, other.0))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn or(self, other: Self) -> Self {
        Ymm(_mm256_or_si256(self.0, other.0))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn xor3(self, b: Self, c: Self) -> Self {
        Ymm(_mm256_xor_si256(_mm256_xor_si256(self.0, b.0), c.0))
    }
    /// `self ? f : g`, bit by bit.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn ch(self, f: Self, g: Self) -> Self {
        Ymm(_mm256_xor_si256(
            g.0,
            _mm256_and_si256(self.0, _mm256_xor_si256(f.0, g.0)),
        ))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn maj(self, b: Self, c: Self) -> Self {
        Ymm(_mm256_or_si256(
            _mm256_and_si256(self.0, b.0),
            _mm256_and_si256(c.0, _mm256_or_si256(self.0, b.0)),
        ))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn ror<const R: i32>(self) -> Self {
        self.shr(R as u32).or(self.shl(32 - R as u32))
    }
    // The counts are constants to the compiler wherever the caller's are.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn shr(self, count: u32) -> Self {
        Ymm(_mm256_srl_epi32(self.0, _mm_cvtsi32_si128(count as i32)))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn shl(self, count: u32) -> Self {
        Ymm(_mm256_sll_epi32(self.0, _mm_cvtsi32_si128(count as i32)))
    }
    /// Lane by lane, the smaller of the two, unsigned.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn min(self, other: Self) -> Self {
        Ymm(_mm256_min_epu32(self.0, other.0))
    }
    /// As [`Zmm::transpose8`], one row to a register: the textbook 8 × 8
    /// transpose.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn transpose8(rows: [Self; 8]) -> [Self; 8] {
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
    /// As [`Zmm::if_live`].
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn if_live(round: u32, steps: Self, new: Self, old: Self) -> Self {
        // A signed compare: step counts are far below 2^31.
        let live = _mm256_cmpgt_epi32(steps.0, Self::splat(round).0);
        Ymm(_mm256_blendv_epi8(old.0, new.0, live))
    }
    /// As [`Zmm::if_eq`].
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn if_eq(a: Self, b: Self, new: Self, old: Self) -> Self {
        Ymm(_mm256_blendv_epi8(
            old.0,
            new.0,
            _mm256_cmpeq_epi32(a.0, b.0),
        ))
    }
}

/// Round constants `16t..16t+16`.
#[inline(always)]
pub(crate) fn round_constants(t: usize) -> &'static [u32; 16] {
    K[16 * t..][..16].try_into().expect("16 of 64 constants")
}

// What follows is the SHA-256 code every body shares, written as macros
// so that it is inlined into each body by construction: a
// `#[target_feature]` fn cannot be `#[inline(always)]`, and `compress`
// called out of line cost a 128f subtree fill 15 µs of 80 ([`crate::tier`]).
// Each expands where `V` names the body's register type ([`Zmm`] or
// [`Ymm`]) and, for the chain step, `NW` the words of its nodes; that is,
// inside a body [`lane_bodies!`] instantiates.

/// `Σ0` of a round.
macro_rules! big_sigma0 {
    ($x:expr) => {{
        let x = $x;
        x.ror::<2>().xor3(x.ror::<13>(), x.ror::<22>())
    }};
}

/// `Σ1` of a round.
macro_rules! big_sigma1 {
    ($x:expr) => {{
        let x = $x;
        x.ror::<6>().xor3(x.ror::<11>(), x.ror::<25>())
    }};
}

/// `σ0` of the schedule.
macro_rules! sigma0 {
    ($x:expr) => {{
        let x = $x;
        x.ror::<7>().xor3(x.ror::<18>(), x.shr(3))
    }};
}

/// `σ1` of the schedule.
macro_rules! sigma1 {
    ($x:expr) => {{
        let x = $x;
        x.ror::<17>().xor3(x.ror::<19>(), x.shr(10))
    }};
}

/// One round on renamed registers (the a..h rotation is in the argument
/// order, not in moves); `$kw` is the round constant plus the message
/// word.
macro_rules! round {
    ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $kw:expr) => {
        let t1 = $h
            .add($crate::lanes::big_sigma1!($e))
            .add($e.ch($f, $g))
            .add($kw);
        $d = $d.add(t1);
        $h = t1.add($crate::lanes::big_sigma0!($a).add($a.maj($b, $c)));
    };
}

/// Sixteen rounds from where the registers are `a..h` again, round `j`
/// adding `$k[j]` and word `j` of the rolling schedule `$w`, which
/// `$ready!(j)` sees to first.
macro_rules! rounds16 {
    ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident,
     $k:ident, $w:ident, $ready:ident) => {
        $crate::lanes::rounds16!(@ $k, $w, $ready, 0, $a $b $c $d $e $f $g $h);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 1, $h $a $b $c $d $e $f $g);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 2, $g $h $a $b $c $d $e $f);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 3, $f $g $h $a $b $c $d $e);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 4, $e $f $g $h $a $b $c $d);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 5, $d $e $f $g $h $a $b $c);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 6, $c $d $e $f $g $h $a $b);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 7, $b $c $d $e $f $g $h $a);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 8, $a $b $c $d $e $f $g $h);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 9, $h $a $b $c $d $e $f $g);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 10, $g $h $a $b $c $d $e $f);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 11, $f $g $h $a $b $c $d $e);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 12, $e $f $g $h $a $b $c $d);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 13, $d $e $f $g $h $a $b $c);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 14, $c $d $e $f $g $h $a $b);
        $crate::lanes::rounds16!(@ $k, $w, $ready, 15, $b $c $d $e $f $g $h $a);
    };
    (@ $k:ident, $w:ident, $ready:ident, $j:literal, $($regs:ident)+) => {
        $ready!($j);
        $crate::lanes::round!($($regs)+, V::splat($k[$j]).add($w[$j]));
    };
}

/// Word `j` of the rolling schedule `$w`, sixteen words on, in place.
macro_rules! extend {
    ($w:ident, $j:literal) => {
        $w[$j] = $w[$j]
            .add($crate::lanes::sigma0!($w[($j + 1) % 16]))
            .add($w[($j + 9) % 16].add($crate::lanes::sigma1!($w[($j + 14) % 16])));
    };
}

/// One compression of the 16-word message `$w` (`&mut [V; 16]`) from
/// state `$iv` (`&[V; 8]`); the message is consumed as the rolling
/// schedule. Its value is the new state.
///
/// That message and digest stay in registers holds only where this crate
/// is optimised: at opt-level 0 every temporary of the 64 unrolled rounds
/// is a stack slot, and each expansion costs its body half a megabyte of
/// stack. This workspace never builds `hero-sphincs` at opt-level 0; the
/// root `Cargo.toml` says why.
macro_rules! compress {
    ($iv:expr, $w:expr) => {{
        let (iv, w): (&[V; 8], &mut [V; 16]) = ($iv, $w);
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *iv;

        macro_rules! as_it_is {
            ($j:literal) => {};
        }
        macro_rules! extended {
            ($j:literal) => {
                $crate::lanes::extend!(w, $j)
            };
        }
        let k = $crate::lanes::round_constants(0);
        $crate::lanes::rounds16!(a b c d e f g h, k, w, as_it_is);
        for t in 1..4 {
            let k = $crate::lanes::round_constants(t);
            $crate::lanes::rounds16!(a b c d e f g h, k, w, extended);
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
    }};
}

/// One tweakable-hash call per lane, after the seed block: the digest of
/// `ADRS_c ‖ payload` continued from state `$iv` — `F` and `PRF` on one
/// node, `H` on the two of a sibling pair; `$payload` is an array of
/// references to nodes of `NW` words. `$adrs` is message words `0..5`
/// ([`put_adrs`]) and `$last` the address's last field.
///
/// Bytes `0..22` are `ADRS_c`, whose last four are that field, so the
/// payload starts in the low half of word 5 and everything after it sits
/// 16 bits off a word boundary. The terminator follows the payload's last
/// word; with the bit length it fits one block up to eight payload words
/// (`F` and `PRF` at every `n`, `H` at `n = 16`) and needs a second one
/// beyond.
macro_rules! tweak {
    ($iv:expr, $adrs:expr, $last:expr, $payload:expr) => {{
        let (iv, adrs, last): (&[V; 8], &[V; $crate::lanes::ADRS_WORDS], V) = ($iv, $adrs, $last);
        let payload = $payload;
        let bit_len = (($crate::sha256::BLOCK_LEN + 22 + 4 * NW * payload.len()) * 8) as u32;
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
            $crate::lanes::compress!(iv, first)
        } else {
            second[15] = V::splat(bit_len);
            let state = $crate::lanes::compress!(iv, first);
            $crate::lanes::compress!(&state, second)
        }
    }};
}

/// The `n`-byte truncation of a digest.
#[inline(always)]
pub(crate) fn first<V: Copy, const NW: usize>(digest: [V; 8]) -> [V; NW] {
    std::array::from_fn(|i| digest[i])
}

/// The `F` call of one WOTS+ chain per lane, compiled for the one message
/// shape a chain step ever hashes: [`chain_step!`] works it out for the
/// chains of a group, [`chain_f!`] takes one step.
///
/// Along a chain only the hash index and the node change. Words `0..5`
/// are the chain's address (the index stays in the low half of word 5 as
/// long as it is below 2¹⁶, which is the caller's to see to), words
/// `5..=5 + NW` the index, the node and the terminator, word 15 the
/// length, and every word between is zero. So rounds 0–4 are taken once
/// per chain, a round whose word is zero adds its constant alone, and in
/// the first sixteen words of the extended schedule a term whose word is
/// zero is dropped and one whose words are all the chain's or the
/// length's is taken once per chain too ([`scheduled!`]); from word 32 on
/// the schedule is [`compress!`]'s. Of the digest, only the node is added
/// back. At `n = 16` that leaves 1440 of [`tweak!`]'s ≈ 1650 vector
/// operations; what it measures to is in [`crate::tier`].
pub(crate) struct ChainStep<V, const NW: usize> {
    /// The registers after rounds 0–4, `a..h` as [`round!`] names them.
    pub midstate: [V; 8],
    /// What the address and the length make up of schedule words
    /// `16..=21`.
    pub fixed: [V; 6],
}

impl<V, const NW: usize> ChainStep<V, NW> {
    /// Word 15 of the message: its length in bits, seed block included.
    pub const BIT_LEN: u32 = ((BLOCK_LEN + 22 + 4 * NW) * 8) as u32;

    /// Whether word `t` of the message changes along a chain: the words
    /// from the hash index to the terminator.
    pub const fn live(t: usize) -> bool {
        5 <= t && t <= 5 + NW
    }

    /// Whether word `t` of the schedule, past the message, has no term
    /// that changes along a chain. At `n = 16` two have none: word 17,
    /// made of words 1, 2, 10 and 15, and word 19, made of words 3, 4, 12
    /// and 17.
    pub const fn settled(t: usize) -> bool {
        NW == 4 && (t == 17 || t == 19)
    }
}

/// The [`ChainStep`] of the chains whose message words `0..5` are `$adrs`
/// (`&[V; ADRS_WORDS]`), from the seeded state `$iv`.
macro_rules! chain_step {
    ($iv:expr, $adrs:expr) => {{
        let (iv, adrs): (&[V; 8], &[V; $crate::lanes::ADRS_WORDS]) = ($iv, $adrs);
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *iv;
        let k = &$crate::sha256::K;
        $crate::lanes::round!(a b c d e f g h, V::splat(k[0]).add(adrs[0]));
        $crate::lanes::round!(h a b c d e f g, V::splat(k[1]).add(adrs[1]));
        $crate::lanes::round!(g h a b c d e f, V::splat(k[2]).add(adrs[2]));
        $crate::lanes::round!(f g h a b c d e, V::splat(k[3]).add(adrs[3]));
        $crate::lanes::round!(e f g h a b c d, V::splat(k[4]).add(adrs[4]));

        let word17 = adrs[1]
            .add($crate::lanes::sigma0!(adrs[2]))
            .add(V::splat($crate::sha256::small_sigma1(
                $crate::lanes::ChainStep::<V, NW>::BIT_LEN,
            )));
        let mut word19 = adrs[3].add($crate::lanes::sigma0!(adrs[4]));
        let mut word21 = V::splat(0);
        if $crate::lanes::ChainStep::<V, NW>::settled(17) {
            word19 = word19.add($crate::lanes::sigma1!(word17));
            word21 = $crate::lanes::sigma1!(word19);
        }
        $crate::lanes::ChainStep::<V, NW> {
            midstate: [a, b, c, d, e, f, g, h],
            fixed: [
                adrs[0].add($crate::lanes::sigma0!(adrs[1])),
                word17,
                adrs[2].add($crate::lanes::sigma0!(adrs[3])),
                word19,
                adrs[4],
                word21,
            ],
        }
    }};
}

/// Word `$t` of the schedule, `16 ≤ $t < 32`, from the rolling schedule
/// `$w` of a [`chain_f!`] of `$step`: of `σ1(W[T−2]) + W[T−7] + σ0(W[T−15]) +
/// W[T−16]`, the terms that change along the chain on top of what the
/// address and the length come to. A settled word is in `$w` like any
/// other; only its `σ1` is taken once per chain.
macro_rules! scheduled {
    ($step:ident, $w:ident, $t:expr) => {{
        use $crate::lanes::ChainStep;
        const T: usize = $t;
        let mut word = match T {
            16..=21 => $step.fixed[T - 16],
            22 | 31 => V::splat(ChainStep::<V, NW>::BIT_LEN),
            30 => V::splat($crate::sha256::small_sigma0(ChainStep::<V, NW>::BIT_LEN)),
            _ => V::splat(0),
        };
        if T - 2 >= 16 && !ChainStep::<V, NW>::settled(T - 2) {
            word = word.add($crate::lanes::sigma1!($w[(T - 2) % 16]));
        }
        if T - 7 >= 16 || ChainStep::<V, NW>::live(T - 7) {
            word = word.add($w[(T - 7) % 16]);
        }
        if T - 15 == 16 || ChainStep::<V, NW>::live(T - 15) {
            word = word.add($crate::lanes::sigma0!($w[(T - 15) % 16]));
        }
        if ChainStep::<V, NW>::live(T - 16) {
            word = word.add($w[T - 16]);
        }
        word
    }};
}

/// `F` of `$node` (`&[V; NW]`) under the [`ChainStep`] `$step`, at the
/// hash index whose low half is the high half of `$index_high`: the first
/// `NW` words of what `tweak!($iv, adrs, index, [$node])` is.
macro_rules! chain_f {
    ($step:expr, $iv:expr, $index_high:expr, $node:expr) => {{
        use $crate::lanes::ChainStep;
        let (step, iv, node): (&ChainStep<V, NW>, &[V; 8], &[V; NW]) = ($step, $iv, $node);
        let mut w = [V::splat(0); 16];
        let mut carry = $index_high;
        for (i, &word) in node.iter().enumerate() {
            w[5 + i] = carry.or(word.shr(16));
            carry = word.shl(16);
        }
        w[5 + NW] = carry.or(V::splat(0x8000));

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = step.midstate;
        let k = &$crate::sha256::K;
        macro_rules! message {
            ($j:literal) => {
                if ChainStep::<V, NW>::live($j) {
                    V::splat(k[$j]).add(w[$j])
                } else {
                    V::splat(k[$j])
                }
            };
        }
        $crate::lanes::round!(d e f g h a b c, message!(5));
        $crate::lanes::round!(c d e f g h a b, message!(6));
        $crate::lanes::round!(b c d e f g h a, message!(7));
        $crate::lanes::round!(a b c d e f g h, message!(8));
        $crate::lanes::round!(h a b c d e f g, message!(9));
        $crate::lanes::round!(g h a b c d e f, message!(10));
        $crate::lanes::round!(f g h a b c d e, message!(11));
        $crate::lanes::round!(e f g h a b c d, message!(12));
        $crate::lanes::round!(d e f g h a b c, message!(13));
        $crate::lanes::round!(c d e f g h a b, message!(14));
        let length = V::splat(k[15].wrapping_add(ChainStep::<V, NW>::BIT_LEN));
        $crate::lanes::round!(b c d e f g h a, length);

        macro_rules! folded {
            ($j:literal) => {
                w[$j] = $crate::lanes::scheduled!(step, w, 16 + $j)
            };
        }
        macro_rules! extended {
            ($j:literal) => {
                $crate::lanes::extend!(w, $j)
            };
        }
        let k = $crate::lanes::round_constants(1);
        $crate::lanes::rounds16!(a b c d e f g h, k, w, folded);
        for t in 2..4 {
            let k = $crate::lanes::round_constants(t);
            $crate::lanes::rounds16!(a b c d e f g h, k, w, extended);
        }

        let digest = [a, b, c, d, e, f, g, h];
        std::array::from_fn::<V, NW, _>(|i| iv[i].add(digest[i]))
    }};
}

/// One `T_l` call per lane, after the seed block: the digest of
/// `ADRS_c ‖ payload` continued from state `$iv`, for a payload of any
/// number of words — `$payload(i)` is word `i` of every lane's (a WOTS+
/// key's `len` chain ends, a forest's `k` roots, node after node), `$len`
/// of them. `$adrs` and `$last` are [`tweak!`]'s, and so is the layout:
/// every payload word sits 16 bits off a word boundary, the terminator
/// follows the last, and the bit length closes the last block; a block is
/// compressed as soon as it is full, so the message is never laid out
/// whole.
macro_rules! absorb {
    ($iv:expr, $adrs:expr, $last:expr, $len:expr, $payload:expr) => {{
        let (iv, adrs, last): (&[V; 8], &[V; $crate::lanes::ADRS_WORDS], V) = ($iv, $adrs, $last);
        let (len, payload): (usize, _) = ($len, $payload);
        let bit_len = (($crate::sha256::BLOCK_LEN + 22 + 4 * len) * 8) as u32;
        let zero = V::splat(0);
        let mut state = *iv;
        let mut block = [zero; 16];
        block[..4].copy_from_slice(&adrs[..4]);
        block[4] = adrs[4].or(last.shr(16));
        let (mut at, mut carry) = (5, last);
        for i in 0..len {
            let word: V = payload(i);
            block[at] = carry.shl(16).or(word.shr(16));
            (at, carry) = (at + 1, word);
            if at == 16 {
                state = $crate::lanes::compress!(&state, &mut block);
                at = 0;
            }
        }
        block[at] = carry.shl(16).or(V::splat(0x8000));
        at += 1;
        // The bit length takes the last two words of a block.
        if at > 14 {
            block[at..].fill(zero);
            state = $crate::lanes::compress!(&state, &mut block);
            at = 0;
        }
        block[at..15].fill(zero);
        block[15] = V::splat(bit_len);
        $crate::lanes::compress!(&state, &mut block)
    }};
}

pub(crate) use {
    absorb, big_sigma0, big_sigma1, chain_f, chain_step, compress, extend, round, rounds16,
    scheduled, sigma0, sigma1, tweak,
};

/// Instantiates the lane body `$run`, a fn written over the register type
/// `V` and the node words `NW`, once per register type — in `mod zmm` for
/// AVX-512F and in `mod ymm` for AVX2, each a safe `#[target_feature]` fn
/// — and defines `Body`, the `unsafe fn` pointer each instance coerces
/// to, and `body_for(tier, n)`: the instance for the register width of
/// `tier` and the word count of `n`-byte nodes, with the lanes it fills,
/// or `None` where the ladder has no body. A body's pointer is `unsafe`
/// to call because the CPU must support the extension it was compiled
/// for.
macro_rules! lane_bodies {
    ($(#[$attr:meta])*
     fn $run:ident<const $nw:ident: usize>($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        mod zmm {
            use super::*;
            use $crate::lanes::Zmm as V;
            $(#[$attr])*
            #[target_feature(enable = "avx512f")]
            pub(super) fn $run<const $nw: usize>($($arg: $ty),*) $body
        }
        mod ymm {
            use super::*;
            use $crate::lanes::Ymm as V;
            $(#[$attr])*
            #[target_feature(enable = "avx2")]
            pub(super) fn $run<const $nw: usize>($($arg: $ty),*) $body
        }
        /// What every instance of the lane body coerces to.
        type Body = unsafe fn($($ty),*);
        fn body_for(tier: $crate::tier::HashTier, n: usize) -> Option<(usize, Body)> {
            use $crate::lanes::{Ymm, Zmm};
            use $crate::tier::HashTier;
            match (tier, n) {
                (HashTier::Avx512, 16) => Some((Zmm::LANES, zmm::$run::<4>)),
                (HashTier::Avx512, 24) => Some((Zmm::LANES, zmm::$run::<6>)),
                (HashTier::Avx512, 32) => Some((Zmm::LANES, zmm::$run::<8>)),
                (HashTier::Avx2, 16) => Some((Ymm::LANES, ymm::$run::<4>)),
                (HashTier::Avx2, 24) => Some((Ymm::LANES, ymm::$run::<6>)),
                (HashTier::Avx2, 32) => Some((Ymm::LANES, ymm::$run::<8>)),
                _ => None,
            }
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
