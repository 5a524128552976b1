//! From-scratch FIPS 180-4 SHA-256, scalar and multi-lane.
//!
//! The compression function is exposed ([`compress`]) because the GPU cost
//! model in `hero-gpu-sim` charges kernels per compression invocation, and
//! HERO-Sign's PTX-tuned SHA-2 path is modelled at compression granularity.
//!
//! [`Sha256xN`] and [`compress_x`] are the CPU analogue of the paper's
//! warp-level batching: [`LANES`] independent messages advance through the
//! 64 rounds in lockstep, written as straight-line code with the lane index
//! innermost so the compiler autovectorizes each round into SIMD lanes
//! (the Table 10 AVX2 baseline uses the same 8-way interleaving).
//!
//! ```
//! use hero_sphincs::sha256::Sha256;
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest[0], 0xba);
//! ```

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Number of bytes in a SHA-256 message block.
pub const BLOCK_LEN: usize = 64;

/// SHA-256 initial hash value (FIPS 180-4 §5.3.3).
pub const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

#[inline(always)]
fn big_sigma0(x: u32) -> u32 {
    x.rotate_right(2) ^ x.rotate_right(13) ^ x.rotate_right(22)
}

#[inline(always)]
fn big_sigma1(x: u32) -> u32 {
    x.rotate_right(6) ^ x.rotate_right(11) ^ x.rotate_right(25)
}

#[inline(always)]
pub(crate) fn small_sigma0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

#[inline(always)]
pub(crate) fn small_sigma1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

#[inline(always)]
fn ch(x: u32, y: u32, z: u32) -> u32 {
    (x & y) ^ (!x & z)
}

#[inline(always)]
fn maj(x: u32, y: u32, z: u32) -> u32 {
    (x & y) ^ (x & z) ^ (y & z)
}

/// Applies the SHA-256 compression function to `state` with one 64-byte
/// `block`.
///
/// This is the unit of work the GPU model charges for: one call = one
/// "compression" (64 rounds). The big-endian loads of the message schedule
/// correspond to the `prmt`-vs-`shl` choice the paper tunes in PTX.
///
/// Dispatches through the resolved ISA tier ([`crate::tier::sha256_tier`]):
/// on a SHA-NI host the 64 rounds run as `_mm_sha256rnds2` pairs, on a
/// SHA2-capable aarch64 host as `vsha256h`/`vsha256h2` quads; every tier
/// is byte-identical to the portable rounds.
pub fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    use crate::tier::HashTier;
    // SAFETY: the tier cache only ever holds tiers whose CPU features
    // `tier::supported` detected.
    unsafe {
        match crate::tier::sha256_tier() {
            #[cfg(target_arch = "x86_64")]
            HashTier::ShaNi => compress_shani(state, block),
            #[cfg(target_arch = "aarch64")]
            HashTier::Neon => compress_neon(state, block),
            _ => compress_portable(state, block),
        }
    }
}

/// Portable straight-line body of [`compress`] — the scalar reference
/// every ISA tier is byte-identity-tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        w[i] = small_sigma1(w[i - 2])
            .wrapping_add(w[i - 7])
            .wrapping_add(small_sigma0(w[i - 15]))
            .wrapping_add(w[i - 16]);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let t1 = h
            .wrapping_add(big_sigma1(e))
            .wrapping_add(ch(e, f, g))
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let t2 = big_sigma0(a).wrapping_add(maj(a, b, c));
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Number of interleaved lanes in the multi-lane engine ([`Sha256xN`]).
///
/// Eight 32-bit lanes fill one AVX2 register; on narrower targets the
/// compiler splits each round into two or four SIMD ops, which still beats
/// the scalar path because the round dataflow is identical across lanes.
pub const LANES: usize = 8;

/// Applies the compression function to [`LANES`] independent states, one
/// 64-byte block each, in lockstep.
///
/// This is the multi-lane analogue of [`compress`]: `states[l]` absorbs
/// `blocks[l]`. Dispatch walks the resolved ISA tier
/// ([`crate::tier::sha256_tier`]) — resolved once per process, then a
/// single relaxed atomic load per call; no feature probe runs in the
/// hot loop. Every tier produces identical bytes.
pub fn compress_x(states: &mut [[u32; 8]; LANES], blocks: &[&[u8; BLOCK_LEN]; LANES]) {
    // SAFETY: the tier cache only ever holds tiers whose CPU features
    // `tier::supported` detected during the one-time ladder walk.
    unsafe { compress_x_on(crate::tier::sha256_tier(), states, blocks) }
}

/// [`compress_x`] under an explicit tier instead of the process-wide
/// resolved one — the seam the per-tier byte-identity tests and
/// `perfbench`'s `hash_core.sha256_tier_*` rungs drive directly.
///
/// A tier the host CPU lacks (or that does not apply to SHA-256) falls
/// back to the portable body, mirroring the dispatch ladder's
/// never-UB guarantee; callers enumerate real tiers with
/// [`crate::tier::supported_sha256_tiers`].
pub fn compress_x_with(
    tier: crate::tier::HashTier,
    states: &mut [[u32; 8]; LANES],
    blocks: &[&[u8; BLOCK_LEN]; LANES],
) {
    use crate::tier::{supported, HashTier, Primitive};
    let tier = if supported(Primitive::Sha256, tier) {
        tier
    } else {
        HashTier::Scalar
    };
    // SAFETY: `tier` was just detected, or is the portable rung.
    unsafe { compress_x_on(tier, states, blocks) }
}

/// The one dispatch of [`compress_x`] and [`compress_x_with`]: the body
/// of `tier`, or the portable one where `tier` has none.
///
/// # Safety
///
/// The CPU supports `tier`'s SHA-256 body.
#[inline(always)]
unsafe fn compress_x_on(
    tier: crate::tier::HashTier,
    states: &mut [[u32; 8]; LANES],
    blocks: &[&[u8; BLOCK_LEN]; LANES],
) {
    use crate::tier::HashTier;
    // SAFETY: the caller's contract.
    unsafe {
        match tier {
            #[cfg(target_arch = "x86_64")]
            HashTier::ShaNi => compress_x_shani(states, blocks),
            #[cfg(target_arch = "x86_64")]
            HashTier::Avx512 => compress_x_avx512(states, blocks),
            #[cfg(target_arch = "x86_64")]
            HashTier::Avx2 => compress_x_avx2(states, blocks),
            #[cfg(target_arch = "aarch64")]
            HashTier::Neon => compress_x_neon(states, blocks),
            _ => compress_x_portable(states, blocks),
        }
    }
}

/// One-block SHA-NI compression: the 64 rounds as sixteen
/// `_mm_sha256rnds2_epu32` pairs with the message schedule advanced by
/// `sha256msg1`/`sha256msg2`, in Intel's canonical `ABEF`/`CDGH`
/// register arrangement. Reach it only on a CPU with the SHA extensions
/// and SSSE3/SSE4.1 (the byte shuffle and blend).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_shani(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    use std::arch::x86_64::*;
    /// The sixteen bytes of `src`, unaligned.
    #[inline(always)]
    fn load<T, const N: usize>(src: &[T; N]) -> __m128i {
        const { assert!(size_of::<[T; N]>() == 16) };
        // SAFETY: `src` is the sixteen bytes read.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }
    /// `v` into `dst`, unaligned.
    #[inline(always)]
    fn store(dst: &mut [u32; 4], v: __m128i) {
        // SAFETY: `dst` is the sixteen bytes written.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
    }

    // Big-endian word loads: reverse the bytes of each u32.
    let be_shuf = _mm_set_epi64x(0x0c0d0e0f_08090a0bu64 as i64, 0x04050607_00010203u64 as i64);

    // Fold [a,b,c,d] / [e,f,g,h] into the (ABEF, CDGH) pair the
    // rnds2 instruction works on.
    let [dcba, hgfe] = state.as_chunks::<4>().0 else {
        unreachable!("eight words are two halves")
    };
    let cdab = _mm_shuffle_epi32(load(dcba), 0xB1);
    let efgh = _mm_shuffle_epi32(load(hgfe), 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
    let (save_abef, save_cdgh) = (abef, cdgh);

    let block = block.as_chunks::<16>().0;
    let mut m: [__m128i; 4] = std::array::from_fn(|i| _mm_shuffle_epi8(load(&block[i]), be_shuf));

    let k = K.as_chunks::<4>().0;
    for r in 0..16 {
        let wk = _mm_add_epi32(m[r % 4], load(&k[r]));
        // rnds2 consumes two W+K values per call: low pair first,
        // then the high pair moved down. After each call the result
        // register holds the new ABEF and the other operand is the
        // new CDGH — the canonical ping-pong.
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        if r < 12 {
            // W[i] = σ1(W[i-2]) + W[i-7] + σ0(W[i-15]) + W[i-16]:
            // msg1 folds σ0, the alignr supplies W[i-7], msg2 folds σ1.
            let w_minus_7 = _mm_alignr_epi8(m[(r + 3) % 4], m[(r + 2) % 4], 4);
            let partial = _mm_add_epi32(_mm_sha256msg1_epu32(m[r % 4], m[(r + 1) % 4]), w_minus_7);
            m[r % 4] = _mm_sha256msg2_epu32(partial, m[(r + 3) % 4]);
        }
    }

    abef = _mm_add_epi32(abef, save_abef);
    cdgh = _mm_add_epi32(cdgh, save_cdgh);
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let [dcba, hgfe] = state.as_chunks_mut::<4>().0 else {
        unreachable!("eight words are two halves")
    };
    store(dcba, _mm_blend_epi16(feba, dchg, 0xF0));
    store(hgfe, _mm_alignr_epi8(dchg, feba, 8));
}

/// SHA-NI body of [`compress_x`]: each lane runs the dedicated-rounds
/// block back to back. No interleaving is spelled out — consecutive
/// lanes share no registers, so out-of-order execution overlaps the
/// `sha256rnds2` chains of neighbouring lanes on its own, and the
/// dedicated rounds beat 8-lane interleaving per lane by a wide margin
/// (the reason SHA-NI tops the SHA-256 ladder). Reach it only on a CPU
/// with SHA, SSSE3 and SSE4.1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_x_shani(states: &mut [[u32; 8]; LANES], blocks: &[&[u8; BLOCK_LEN]; LANES]) {
    for (state, block) in states.iter_mut().zip(blocks.iter()) {
        compress_shani(state, block);
    }
}

/// AVX-512 body of [`compress_x`]: the same 8-lane interleave as the
/// AVX2 path, but with the round primitives lowered to single-µop
/// AVX-512VL forms — `vprord` rotates for the Σ/σ functions and
/// `vpternlogd` for `ch` (selector `0xCA`), `maj` (`0xE8`) and the
/// three-way XORs (`0x96`). That removes roughly half the round
/// instructions the AVX2 build needs for the same dataflow. Reach it only
/// on a CPU with AVX-512F and AVX-512VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn compress_x_avx512(states: &mut [[u32; 8]; LANES], blocks: &[&[u8; BLOCK_LEN]; LANES]) {
    use crate::lanes::Ymm;
    use std::arch::x86_64::*;
    // Transposed message schedule: wv[i] holds word i of all lanes.
    let mut w = [[0u32; LANES]; 16];
    for (i, wi) in w.iter_mut().enumerate() {
        for (l, wil) in wi.iter_mut().enumerate() {
            let o = i * 4;
            *wil = u32::from_be_bytes([
                blocks[l][o],
                blocks[l][o + 1],
                blocks[l][o + 2],
                blocks[l][o + 3],
            ]);
        }
    }
    let mut wv: [__m256i; 16] = std::array::from_fn(|i| Ymm::load(&w[i]).0);

    macro_rules! xor3 {
        ($a:expr, $b:expr, $c:expr) => {
            _mm256_ternarylogic_epi32($a, $b, $c, 0x96)
        };
    }
    macro_rules! big_sigma0 {
        ($x:expr) => {{
            let x = $x;
            xor3!(
                _mm256_ror_epi32::<2>(x),
                _mm256_ror_epi32::<13>(x),
                _mm256_ror_epi32::<22>(x)
            )
        }};
    }
    macro_rules! big_sigma1 {
        ($x:expr) => {{
            let x = $x;
            xor3!(
                _mm256_ror_epi32::<6>(x),
                _mm256_ror_epi32::<11>(x),
                _mm256_ror_epi32::<25>(x)
            )
        }};
    }
    macro_rules! small_sigma0 {
        ($x:expr) => {{
            let x = $x;
            xor3!(
                _mm256_ror_epi32::<7>(x),
                _mm256_ror_epi32::<18>(x),
                _mm256_srli_epi32::<3>(x)
            )
        }};
    }
    macro_rules! small_sigma1 {
        ($x:expr) => {{
            let x = $x;
            xor3!(
                _mm256_ror_epi32::<17>(x),
                _mm256_ror_epi32::<19>(x),
                _mm256_srli_epi32::<10>(x)
            )
        }};
    }

    // Transpose the lane-major states into one vector per working
    // variable (cheap next to 64 vector rounds).
    let mut vars: [__m256i; 8] = std::array::from_fn(|word| {
        _mm256_set_epi32(
            states[7][word] as i32,
            states[6][word] as i32,
            states[5][word] as i32,
            states[4][word] as i32,
            states[3][word] as i32,
            states[2][word] as i32,
            states[1][word] as i32,
            states[0][word] as i32,
        )
    });
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = vars;

    for i in 0..64 {
        let wt = if i < 16 {
            wv[i]
        } else {
            let next = _mm256_add_epi32(
                _mm256_add_epi32(small_sigma1!(wv[(i - 2) % 16]), wv[(i - 7) % 16]),
                _mm256_add_epi32(small_sigma0!(wv[(i - 15) % 16]), wv[i % 16]),
            );
            wv[i % 16] = next;
            next
        };
        // ch(e,f,g) = e ? f : g — one vpternlogd.
        let ch = _mm256_ternarylogic_epi32(e, f, g, 0xCA);
        let t1 = _mm256_add_epi32(
            _mm256_add_epi32(_mm256_add_epi32(h, big_sigma1!(e)), ch),
            _mm256_add_epi32(_mm256_set1_epi32(K[i] as i32), wt),
        );
        let maj = _mm256_ternarylogic_epi32(a, b, c, 0xE8);
        let t2 = _mm256_add_epi32(big_sigma0!(a), maj);
        h = g;
        g = f;
        f = e;
        e = _mm256_add_epi32(d, t1);
        d = c;
        c = b;
        b = a;
        a = _mm256_add_epi32(t1, t2);
    }

    vars = [a, b, c, d, e, f, g, h];
    for (word, var) in vars.iter().enumerate() {
        let mut lanes = [0u32; LANES];
        Ymm(*var).store(&mut lanes);
        for (l, lane) in lanes.iter().enumerate() {
            states[l][word] = states[l][word].wrapping_add(*lane);
        }
    }
}

/// One-block aarch64 SHA2-crypto-extension compression: the 64 rounds
/// as sixteen `vsha256h`/`vsha256h2` quads with the schedule advanced
/// by `vsha256su0`/`vsha256su1`. The ARM instructions take the state as
/// plain `[a,b,c,d]`/`[e,f,g,h]` vectors, so unlike SHA-NI there is no
/// register rearrangement.
///
/// # Safety
///
/// Callers must ensure the CPU supports the SHA2 crypto extension.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon,sha2")]
unsafe fn compress_neon(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    use std::arch::aarch64::*;
    unsafe {
        let mut s0 = vld1q_u32(state.as_ptr());
        let mut s1 = vld1q_u32(state.as_ptr().add(4));
        let (save0, save1) = (s0, s1);

        // Big-endian word loads: byte-reverse within each u32.
        let mut m: [uint32x4_t; 4] = std::array::from_fn(|i| {
            vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(block.as_ptr().add(16 * i))))
        });

        for r in 0..16 {
            let wk = vaddq_u32(m[r % 4], vld1q_u32(K.as_ptr().add(4 * r)));
            if r < 12 {
                m[r % 4] = vsha256su1q_u32(
                    vsha256su0q_u32(m[r % 4], m[(r + 1) % 4]),
                    m[(r + 2) % 4],
                    m[(r + 3) % 4],
                );
            }
            let abcd = s0;
            s0 = vsha256hq_u32(s0, s1, wk);
            s1 = vsha256h2q_u32(s1, abcd, wk);
        }

        vst1q_u32(state.as_mut_ptr(), vaddq_u32(s0, save0));
        vst1q_u32(state.as_mut_ptr().add(4), vaddq_u32(s1, save1));
    }
}

/// NEON body of [`compress_x`]: each lane runs the crypto-extension
/// block back to back (see [`compress_x_shani`] for why no manual
/// interleave — the lanes are register-independent).
///
/// # Safety
///
/// Callers must ensure the CPU supports the SHA2 crypto extension.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon,sha2")]
unsafe fn compress_x_neon(states: &mut [[u32; 8]; LANES], blocks: &[&[u8; BLOCK_LEN]; LANES]) {
    for (state, block) in states.iter_mut().zip(blocks.iter()) {
        // SAFETY: same target features as this wrapper.
        unsafe { compress_neon(state, block) };
    }
}

/// [`compress_x_portable`] compiled with AVX2 codegen enabled, so the
/// lane-innermost loops vectorize to 8×32-bit ymm operations. Reach it
/// only on a CPU with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn compress_x_avx2(states: &mut [[u32; 8]; LANES], blocks: &[&[u8; BLOCK_LEN]; LANES]) {
    compress_x_portable(states, blocks);
}

/// Portable straight-line body of [`compress_x`]: a rolling 16-entry
/// message schedule and the 64 rounds, each expressed as an elementwise
/// operation over the [`LANES`]-wide lane arrays.
#[inline(always)]
fn compress_x_portable(states: &mut [[u32; 8]; LANES], blocks: &[&[u8; BLOCK_LEN]; LANES]) {
    // Transposed message schedule: w[i][l] is word i of lane l.
    let mut w = [[0u32; LANES]; 16];
    for (i, wi) in w.iter_mut().enumerate() {
        for (l, wil) in wi.iter_mut().enumerate() {
            let o = i * 4;
            *wil = u32::from_be_bytes([
                blocks[l][o],
                blocks[l][o + 1],
                blocks[l][o + 2],
                blocks[l][o + 3],
            ]);
        }
    }

    // Transposed working variables.
    let mut a = [0u32; LANES];
    let mut b = [0u32; LANES];
    let mut c = [0u32; LANES];
    let mut d = [0u32; LANES];
    let mut e = [0u32; LANES];
    let mut f = [0u32; LANES];
    let mut g = [0u32; LANES];
    let mut h = [0u32; LANES];
    for l in 0..LANES {
        [a[l], b[l], c[l], d[l], e[l], f[l], g[l], h[l]] = states[l];
    }

    for i in 0..64 {
        let mut wt = [0u32; LANES];
        if i < 16 {
            wt = w[i];
        } else {
            for l in 0..LANES {
                wt[l] = small_sigma1(w[(i - 2) % 16][l])
                    .wrapping_add(w[(i - 7) % 16][l])
                    .wrapping_add(small_sigma0(w[(i - 15) % 16][l]))
                    .wrapping_add(w[i % 16][l]);
            }
            w[i % 16] = wt;
        }
        for l in 0..LANES {
            let t1 = h[l]
                .wrapping_add(big_sigma1(e[l]))
                .wrapping_add(ch(e[l], f[l], g[l]))
                .wrapping_add(K[i])
                .wrapping_add(wt[l]);
            let t2 = big_sigma0(a[l]).wrapping_add(maj(a[l], b[l], c[l]));
            h[l] = g[l];
            g[l] = f[l];
            f[l] = e[l];
            e[l] = d[l].wrapping_add(t1);
            d[l] = c[l];
            c[l] = b[l];
            b[l] = a[l];
            a[l] = t1.wrapping_add(t2);
        }
    }

    for l in 0..LANES {
        states[l][0] = states[l][0].wrapping_add(a[l]);
        states[l][1] = states[l][1].wrapping_add(b[l]);
        states[l][2] = states[l][2].wrapping_add(c[l]);
        states[l][3] = states[l][3].wrapping_add(d[l]);
        states[l][4] = states[l][4].wrapping_add(e[l]);
        states[l][5] = states[l][5].wrapping_add(f[l]);
        states[l][6] = states[l][6].wrapping_add(g[l]);
        states[l][7] = states[l][7].wrapping_add(h[l]);
    }
}

/// Writes SHA-256 message padding after a tail already resident in
/// `buf[..tail_len]`, returning the number of 64-byte blocks used (1 or
/// 2).
///
/// `absorbed_prefix` is the (block-aligned) byte count already compressed
/// before the tail — the seeded `pk_seed || pad` block in the
/// tweakable-hash layer. The batched hashers assemble each lane's tail
/// directly in its block buffer, pad it with this helper, and feed the
/// resulting blocks to [`compress_x`].
///
/// # Panics
///
/// Panics if `tail_len > 119` (the two-block capacity).
pub fn pad_in_place(buf: &mut [u8; 2 * BLOCK_LEN], tail_len: usize, absorbed_prefix: u64) -> usize {
    assert!(
        tail_len <= 2 * BLOCK_LEN - 9,
        "tail too long for two blocks"
    );
    let blocks = (tail_len + 1 + 8).div_ceil(BLOCK_LEN);
    let total = blocks * BLOCK_LEN;
    buf[tail_len] = 0x80;
    buf[tail_len + 1..total - 8].fill(0);
    let bit_len = (absorbed_prefix + tail_len as u64) * 8;
    buf[total - 8..total].copy_from_slice(&bit_len.to_be_bytes());
    blocks
}

/// A [`LANES`]-wide batch of SHA-256 states advancing in lockstep.
///
/// Used by the batched tweakable hashes: every lane starts from the same
/// precomputed `pk_seed` chaining state ([`Sha256xN::broadcast`]), absorbs
/// its own (pre-padded) blocks via [`Sha256xN::compress`], and its digest
/// is read back with [`Sha256xN::digest_into`].
#[derive(Clone, Debug)]
pub struct Sha256xN {
    states: [[u32; 8]; LANES],
}

impl Sha256xN {
    /// Starts every lane from the same chaining `state`.
    pub fn broadcast(state: [u32; 8]) -> Self {
        Self {
            states: [state; LANES],
        }
    }

    /// Absorbs one (already padded) 64-byte block per lane.
    pub fn compress(&mut self, blocks: &[&[u8; BLOCK_LEN]; LANES]) {
        compress_x(&mut self.states, blocks);
    }

    /// Writes the big-endian digest of `lane`, truncated to `out.len()`
    /// bytes (`out.len() <= 32`). Lanes are finalized by padding their
    /// input blocks ([`pad_in_place`]), so this is a pure state read-out.
    pub fn digest_into(&self, lane: usize, out: &mut [u8]) {
        debug_assert!(out.len() <= DIGEST_LEN);
        let mut full = [0u8; DIGEST_LEN];
        for (i, word) in self.states[lane].iter().enumerate() {
            full[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out.copy_from_slice(&full[..out.len()]);
    }
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use hero_sphincs::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"he");
/// h.update(b"llo");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
    compressions: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher initialized with the standard IV.
    pub fn new() -> Self {
        Self::from_state(H0, 0)
    }

    /// Creates a hasher from a precomputed chaining `state` that already
    /// absorbed `absorbed_bytes` bytes (must be a multiple of 64).
    ///
    /// SPHINCS+ SHA-256 implementations precompute the state after hashing
    /// `pk_seed || padding` once, then reuse it for every `F`/`H`/`PRF`
    /// call; the GPU kernels rely on this to keep per-node cost at a single
    /// compression.
    ///
    /// # Panics
    ///
    /// Panics if `absorbed_bytes` is not a multiple of 64.
    pub fn from_state(state: [u32; 8], absorbed_bytes: u64) -> Self {
        assert!(
            absorbed_bytes.is_multiple_of(BLOCK_LEN as u64),
            "absorbed byte count must be block aligned"
        );
        Self {
            state,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: absorbed_bytes,
            compressions: 0,
        }
    }

    /// Returns the current chaining state.
    ///
    /// Only meaningful at a block boundary (`buffered_len() == 0`).
    pub fn state(&self) -> [u32; 8] {
        self.state
    }

    /// Number of bytes currently buffered (not yet compressed).
    pub fn buffered_len(&self) -> usize {
        self.buf_len
    }

    /// Number of compression-function invocations performed so far by this
    /// hasher instance (used by the cost model in tests).
    pub fn compressions(&self) -> u64 {
        self.compressions
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.compressions += 1;
                self.buf_len = 0;
            }
        }

        while input.len() >= BLOCK_LEN {
            let block: &[u8; BLOCK_LEN] = input[..BLOCK_LEN].try_into().expect("exact block");
            compress(&mut self.state, block);
            self.compressions += 1;
            input = &input[BLOCK_LEN..];
        }

        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Finalizes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length.
        self.update_padding_only(&[0x80]);
        while self.buf_len != 56 {
            self.update_padding_only(&[0]);
        }
        self.update_padding_only(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `update` that does not advance `total_len` (padding bytes are not
    /// part of the message length).
    fn update_padding_only(&mut self, data: &[u8]) {
        for &byte in data {
            self.buf[self.buf_len] = byte;
            self.buf_len += 1;
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.compressions += 1;
                self.buf_len = 0;
            }
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }
}

/// MGF1 mask generation function over SHA-256 (RFC 8017 §B.2.1), used by
/// `H_msg` to expand a digest to arbitrary length.
pub fn mgf1(seed: &[u8], out_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(out_len);
    let mut counter: u32 = 0;
    while out.len() < out_len {
        let mut hasher = Sha256::new();
        hasher.update(seed);
        hasher.update(&counter.to_be_bytes());
        out.extend_from_slice(&hasher.finalize());
        counter += 1;
    }
    out.truncate(out_len);
    out
}

/// Returns the number of compression calls SHA-256 performs for a message
/// of `message_len` bytes (including padding), starting from the IV.
///
/// The analytic kernel descriptors use this to count work without hashing.
pub fn compressions_for_len(message_len: usize) -> usize {
    // Padding adds 1 byte of 0x80 plus an 8-byte length, rounded up to 64.
    (message_len + 1 + 8).div_ceil(BLOCK_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 128, 996] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn state_resume_matches_full_hash() {
        // Precompute the state over one full block, resume, and compare.
        let prefix = [7u8; BLOCK_LEN];
        let suffix = b"tail bytes";
        let mut full = Sha256::new();
        full.update(&prefix);
        full.update(suffix);

        let mut pre = Sha256::new();
        pre.update(&prefix);
        assert_eq!(pre.buffered_len(), 0);
        let mut resumed = Sha256::from_state(pre.state(), BLOCK_LEN as u64);
        resumed.update(suffix);

        assert_eq!(full.finalize(), resumed.finalize());
    }

    #[test]
    fn compression_count_matches_formula() {
        for len in [0usize, 1, 55, 56, 63, 64, 119, 120, 128, 1000] {
            let mut h = Sha256::new();
            h.update(&vec![0u8; len]);
            let total = {
                let before = h.compressions();
                let _ = h.clone().finalize();
                before
            };
            // compressions() counts only update-phase work here; check the
            // full count via a fresh digest-like run.
            let mut h2 = Sha256::new();
            h2.update(&vec![0u8; len]);
            let mut h2c = h2.clone();
            let _ = h2c.finalize_count();
            assert_eq!(
                h2c.compressions() as usize,
                compressions_for_len(len),
                "len={len}"
            );
            let _ = total;
        }
    }

    impl Sha256 {
        /// Test helper: finalize in place so compression count is observable.
        fn finalize_count(&mut self) -> [u8; DIGEST_LEN] {
            let clone = self.clone();
            let digest = clone.finalize();
            // Re-run padding on self to update counters.
            let bit_len = self.total_len.wrapping_mul(8);
            self.update_padding_only(&[0x80]);
            while self.buf_len != 56 {
                self.update_padding_only(&[0]);
            }
            self.update_padding_only(&bit_len.to_be_bytes());
            digest
        }
    }

    #[test]
    fn multi_lane_matches_scalar_compress() {
        // Eight distinct blocks, one per lane, vs eight scalar calls.
        let mut blocks = [[0u8; BLOCK_LEN]; LANES];
        for (l, block) in blocks.iter_mut().enumerate() {
            for (i, byte) in block.iter_mut().enumerate() {
                *byte = (l * 37 + i * 11) as u8;
            }
        }
        let mut states = [H0; LANES];
        let refs: [&[u8; BLOCK_LEN]; LANES] = std::array::from_fn(|l| &blocks[l]);
        compress_x(&mut states, &refs);
        for l in 0..LANES {
            let mut scalar = H0;
            compress(&mut scalar, &blocks[l]);
            assert_eq!(states[l], scalar, "lane {l}");
        }
    }

    #[test]
    fn pad_in_place_matches_incremental_padding() {
        // Pad a tail after one absorbed block and compare against the
        // incremental hasher's digest for every boundary length.
        for tail_len in [0usize, 1, 54, 55, 56, 63, 64, 86, 119] {
            let tail: Vec<u8> = (0..tail_len as u32).map(|i| (i % 251) as u8).collect();
            let prefix = [0xA5u8; BLOCK_LEN];

            let mut buf = [0u8; 2 * BLOCK_LEN];
            buf[..tail.len()].copy_from_slice(&tail);
            let blocks = pad_in_place(&mut buf, tail.len(), BLOCK_LEN as u64);
            assert_eq!(blocks, (tail_len + 9).div_ceil(BLOCK_LEN).max(1));
            let mut state = {
                let mut h = Sha256::new();
                h.update(&prefix);
                h.state()
            };
            for b in 0..blocks {
                let block: &[u8; BLOCK_LEN] =
                    buf[b * BLOCK_LEN..(b + 1) * BLOCK_LEN].try_into().unwrap();
                compress(&mut state, block);
            }

            let mut reference = Sha256::new();
            reference.update(&prefix);
            reference.update(&tail);
            let expected = reference.finalize();
            let mut got = [0u8; DIGEST_LEN];
            for (i, word) in state.iter().enumerate() {
                got[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            assert_eq!(got, expected, "tail_len={tail_len}");
        }
    }

    #[test]
    fn sha256xn_broadcast_digests_each_lane() {
        let seeded = {
            let mut h = Sha256::new();
            h.update(&[7u8; BLOCK_LEN]);
            h.state()
        };
        let mut bufs = [[0u8; 2 * BLOCK_LEN]; LANES];
        for (l, buf) in bufs.iter_mut().enumerate() {
            buf[..40].copy_from_slice(&[l as u8; 40]);
            assert_eq!(pad_in_place(buf, 40, BLOCK_LEN as u64), 1);
        }
        let mut mx = Sha256xN::broadcast(seeded);
        let refs: [&[u8; BLOCK_LEN]; LANES] =
            std::array::from_fn(|l| bufs[l][..BLOCK_LEN].try_into().unwrap());
        mx.compress(&refs);
        for l in 0..LANES {
            let mut out = [0u8; 16];
            mx.digest_into(l, &mut out);
            let mut reference = Sha256::new();
            reference.update(&[7u8; BLOCK_LEN]);
            reference.update(&[l as u8; 40]);
            assert_eq!(out, reference.finalize()[..16], "lane {l}");
        }
    }

    #[test]
    fn mgf1_is_deterministic_prefix_consistent() {
        let a = mgf1(b"seed", 100);
        let b = mgf1(b"seed", 40);
        assert_eq!(&a[..40], &b[..]);
        assert_ne!(mgf1(b"seed2", 40), b);
    }
}
