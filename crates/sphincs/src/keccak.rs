//! From-scratch FIPS 202 Keccak-f\[1600\] and SHAKE-256, scalar and
//! multi-lane.
//!
//! This is the hash core behind [`crate::hash::HashAlg::Shake256`] — the
//! SPHINCS+-SHAKE half of the NIST parameter family. The permutation is
//! exposed ([`keccak_f1600`]) for the same reason `sha256::compress` is:
//! the GPU cost model charges kernels per primitive invocation, and
//! high-throughput GPU PQC implementations batch Keccak across
//! independent inputs exactly like the paper batches SHA-256.
//!
//! [`KeccakxN`] is the multi-lane analogue of [`crate::sha256::Sha256xN`]:
//! [`LANES`] independent sponges advance through the 24 rounds in
//! lockstep, written as straight-line code with the lane index innermost
//! so the compiler autovectorizes each round into SIMD lanes (four
//! 64-bit lanes fill one AVX2 register). Lanes follow the same
//! masked-retirement pattern as the SHA engine: a partial final chunk
//! repeats its last input in the unused lanes and simply never reads
//! them back.
//!
//! Unlike the SHA-256 path there is **no precomputed seed state**: the
//! SHAKE tweakable-hash construction absorbs `pk_seed` fresh in every
//! call (see [`crate::hash`] for why), so the sponge always starts from
//! the all-zero state.
//!
//! ```
//! use hero_sphincs::keccak::Shake256;
//! // SHAKE-256("", 32) — FIPS 202 known answer.
//! let out = Shake256::digest(b"", 32);
//! assert_eq!(out[0], 0x46);
//! assert_eq!(out[31], 0x2f);
//! ```
//!
//! The whole scheme runs on this backend — signing and verifying under
//! [`crate::hash::HashAlg::Shake256`]:
//!
//! ```
//! use hero_sphincs::{hash::HashAlg, params::Params, sign};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), hero_sphincs::sign::SignError> {
//! // Reduced SPHINCS+-SHAKE-128f shape to keep the doc test fast.
//! let mut params = Params::shake_128f();
//! params.h = 6;
//! params.d = 3;
//! params.log_t = 4;
//! params.k = 8;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let (sk, vk) = sign::keygen_with_alg(params, HashAlg::Shake256, &mut rng)?;
//! let sig = sk.sign(b"shake-instantiated message");
//! vk.verify(b"shake-instantiated message", &sig)?;
//! assert!(vk.verify(b"another message", &sig).is_err());
//! # Ok(())
//! # }
//! ```

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Number of bytes absorbed/squeezed per permutation (the SHAKE-256
/// rate: 1088 bits, leaving a 512-bit capacity).
pub const RATE: usize = 136;

/// Number of 64-bit words in the Keccak state.
const STATE_WORDS: usize = 25;

/// Number of interleaved lanes in the multi-lane engine ([`KeccakxN`]).
///
/// Four 64-bit lanes fill one AVX2 register; on narrower targets the
/// compiler splits each round into two or four SIMD ops, which still
/// beats the scalar path because the round dataflow is identical across
/// lanes.
pub const LANES: usize = 4;

/// SHAKE domain-separation byte appended to the message (FIPS 202 §6.2:
/// the `1111` suffix plus the first padding bit).
const DOMAIN: u8 = 0x1f;

/// Keccak round constants (FIPS 202 §3.2.5), one per round.
const RC: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// ρ rotation offsets along the π permutation cycle: step `i` rotates
/// the word moving into position [`PI`]`[i]` (FIPS 202 §3.2.2).
const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

/// The π lane permutation as a 24-step cycle starting at word 1
/// (word 0 is a fixed point), indexed `x + 5y` (FIPS 202 §3.2.3).
const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// Applies the Keccak-f\[1600\] permutation (24 rounds of θ, ρ, π, χ, ι)
/// to `state`, indexed `A[x][y] = state[x + 5y]`.
///
/// ρ+π walk the lane cycle in place with a single carried temporary and
/// χ buffers one 5-word row at a time, so the working set beyond the
/// state itself is 11 words — the formulation that keeps the multi-lane
/// variant ([`permute_x`]) from spilling its 4-wide lanes out of SIMD
/// registers.
///
/// This is the unit of work the GPU model charges the SHAKE kernels for:
/// one call = one permutation, exactly as one `sha256::compress` call =
/// one compression.
pub fn keccak_f1600(state: &mut [u64; STATE_WORDS]) {
    for rc in RC {
        // θ: column parities.
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ + π: rotate each word into its π position along the cycle.
        let mut t = state[1];
        for (rot, &pi) in RHO.iter().zip(PI.iter()) {
            let next = state[pi];
            state[pi] = t.rotate_left(*rot);
            t = next;
        }
        // χ: the only non-linear step, one row at a time.
        for y in 0..5 {
            let row: [u64; 5] = std::array::from_fn(|x| state[x + 5 * y]);
            for x in 0..5 {
                state[x + 5 * y] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        // ι.
        state[0] ^= rc;
    }
}

/// Applies Keccak-f\[1600\] to [`LANES`] independent states in lockstep.
///
/// The state is *lane-interleaved*: `states[w][l]` is word `w` of lane
/// `l`, so every elementwise loop below runs with the lane index
/// innermost over a contiguous `[u64; LANES]` — the layout the
/// autovectorizer maps onto 256-bit registers.
pub fn permute_x(states: &mut [[u64; LANES]; STATE_WORDS]) {
    // SAFETY: the tier cache only ever holds tiers whose CPU features
    // `tier::supported` detected during the one-time ladder walk.
    unsafe { permute_x_on(crate::tier::keccak_tier(), states) }
}

/// [`permute_x`] under an explicit tier instead of the process-wide
/// resolved one — the seam the per-tier byte-identity tests drive
/// directly.
///
/// A tier the host CPU lacks (or that does not apply to Keccak, such as
/// SHA-NI) falls back to the portable body, mirroring the dispatch
/// ladder's never-UB guarantee; callers enumerate real tiers with
/// [`crate::tier::supported_keccak_tiers`].
pub fn permute_x_with(tier: crate::tier::HashTier, states: &mut [[u64; LANES]; STATE_WORDS]) {
    use crate::tier::{supported, HashTier, Primitive};
    let tier = if supported(Primitive::Keccak, tier) {
        tier
    } else {
        HashTier::Scalar
    };
    // SAFETY: `tier` was just detected, or is the portable rung.
    unsafe { permute_x_on(tier, states) }
}

/// The one dispatch of [`permute_x`] and [`permute_x_with`]: the body of
/// `tier`, or the portable one where `tier` has none.
///
/// # Safety
///
/// The CPU supports `tier`'s Keccak body.
#[inline(always)]
unsafe fn permute_x_on(tier: crate::tier::HashTier, states: &mut [[u64; LANES]; STATE_WORDS]) {
    use crate::tier::HashTier;
    // SAFETY: the caller's contract.
    unsafe {
        match tier {
            #[cfg(target_arch = "x86_64")]
            HashTier::Avx512 => permute_x_avx512(states),
            #[cfg(target_arch = "x86_64")]
            HashTier::Avx2 => permute_x_avx2(states),
            #[cfg(target_arch = "aarch64")]
            HashTier::Neon => permute_x_neon(states),
            _ => permute_x_portable(states),
        }
    }
}

/// The 24 rounds of [`permute_x`], written once for every x86 rung over
/// `$V`: a register holding one state word of all [`LANES`] lanes. `$V`
/// carries what differs between ISAs — `load`, `store`, `splat`, `xor`,
/// `xor3`, `rol::<L, 64 − L>` (both counts spelled out: const arithmetic
/// in generic position is unstable) and `chi` (`a ^ (!b & c)`) — as
/// `#[target_feature]` methods, safe to call inside the rung's entry point.
///
/// The autovectorizer does not find this shape on its own (the π cycle's
/// table-driven rotations defeat it: the measured autovectorized build ran
/// at ~1× scalar), so the ops are intrinsics, and ρ + π is unrolled with
/// literal indices and counts: dynamic `a[PI[i]]` indexing would force the
/// whole state to the stack and cost the permutation its SIMD win.
#[cfg(target_arch = "x86_64")]
macro_rules! permute_words {
    ($V:ident, $states:expr) => {{
        use std::mem::replace;
        let states: &mut [[u64; LANES]; STATE_WORDS] = $states;
        let mut a: [$V; STATE_WORDS] = std::array::from_fn(|i| $V::load(&states[i]));
        for rc in RC {
            // θ.
            let c: [$V; 5] =
                std::array::from_fn(|x| a[x].xor3(a[x + 5], a[x + 10]).xor3(a[x + 15], a[x + 20]));
            for x in 0..5 {
                let d = c[(x + 4) % 5].xor(c[(x + 1) % 5].rol::<1, 63>());
                for y in 0..5 {
                    a[x + 5 * y] = a[x + 5 * y].xor(d);
                }
            }
            // ρ + π: each step rotates the carried word into its π
            // position and carries out the word it displaces, until the
            // cycle closes at word 1.
            let mut t = a[1];
            t = replace(&mut a[10], t.rol::<1, 63>());
            t = replace(&mut a[7], t.rol::<3, 61>());
            t = replace(&mut a[11], t.rol::<6, 58>());
            t = replace(&mut a[17], t.rol::<10, 54>());
            t = replace(&mut a[18], t.rol::<15, 49>());
            t = replace(&mut a[3], t.rol::<21, 43>());
            t = replace(&mut a[5], t.rol::<28, 36>());
            t = replace(&mut a[16], t.rol::<36, 28>());
            t = replace(&mut a[8], t.rol::<45, 19>());
            t = replace(&mut a[21], t.rol::<55, 9>());
            t = replace(&mut a[24], t.rol::<2, 62>());
            t = replace(&mut a[4], t.rol::<14, 50>());
            t = replace(&mut a[15], t.rol::<27, 37>());
            t = replace(&mut a[23], t.rol::<41, 23>());
            t = replace(&mut a[19], t.rol::<56, 8>());
            t = replace(&mut a[13], t.rol::<8, 56>());
            t = replace(&mut a[12], t.rol::<25, 39>());
            t = replace(&mut a[2], t.rol::<43, 21>());
            t = replace(&mut a[20], t.rol::<62, 2>());
            t = replace(&mut a[14], t.rol::<18, 46>());
            t = replace(&mut a[22], t.rol::<39, 25>());
            t = replace(&mut a[9], t.rol::<61, 3>());
            t = replace(&mut a[6], t.rol::<20, 44>());
            a[1] = t.rol::<44, 20>();
            // χ, one row at a time.
            for y in 0..5 {
                let row: [$V; 5] = std::array::from_fn(|x| a[x + 5 * y]);
                for x in 0..5 {
                    a[x + 5 * y] = row[x].chi(row[(x + 1) % 5], row[(x + 2) % 5]);
                }
            }
            // ι.
            a[0] = a[0].xor($V::splat(rc));
        }
        for (word, dst) in a.into_iter().zip(states.iter_mut()) {
            word.store(dst);
        }
    }};
}

/// Four lanes in one ymm register. AVX2 has neither rotates nor
/// three-input logic: a rotate is two shifts and an or, `xor3` two
/// xors, `chi` an and-not and a xor.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(__m256i);

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(src: &[u64; LANES]) -> Self {
        // SAFETY: `src` is four readable `u64`s; the load is unaligned.
        Self(unsafe { _mm256_loadu_si256(src.as_ptr().cast()) })
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store(self, dst: &mut [u64; LANES]) {
        // SAFETY: `dst` is four writable `u64`s; the store is unaligned.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0) }
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(x: u64) -> Self {
        Self(_mm256_set1_epi64x(x as i64))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn xor(self, b: Self) -> Self {
        Self(_mm256_xor_si256(self.0, b.0))
    }
    // Paired as `self ^ (b ^ c)`, so θ's five-way parity is a tree of
    // depth three.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn xor3(self, b: Self, c: Self) -> Self {
        self.xor(b.xor(c))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rol<const L: i32, const R: i32>(self) -> Self {
        Self(_mm256_or_si256(
            _mm256_slli_epi64::<L>(self.0),
            _mm256_srli_epi64::<R>(self.0),
        ))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn chi(self, b: Self, c: Self) -> Self {
        self.xor(Self(_mm256_andnot_si256(b.0, c.0)))
    }
}

/// The same four lanes in one ymm register with AVX-512VL, which lowers
/// the two ops AVX2 lacks to single µops: `vprolq` for every ρ / θ
/// rotation and `vpternlogq` for the three-way xor (immediate `0x96`)
/// and for χ (`a ^ (!b & c)`, immediate `0xD2`). That cuts the per-round
/// instruction count by roughly a third.
///
/// A 2-lane-per-register 512-bit packing was measured against this and
/// lost: packing two state words per zmm mixes θ column parities across
/// the pair and turns the π cycle into cross-lane shuffles — the wider
/// registers lose more to permutes than they gain in width. The AVX-512
/// win here is the instruction diet, not the register width.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx512(__m256i);

// Loads and stores are the same ymm moves as AVX2's.
#[cfg(target_arch = "x86_64")]
impl Avx512 {
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn load(src: &[u64; LANES]) -> Self {
        Self(Avx2::load(src).0)
    }
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn store(self, dst: &mut [u64; LANES]) {
        Avx2(self.0).store(dst)
    }
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn splat(x: u64) -> Self {
        Self(_mm256_set1_epi64x(x as i64))
    }
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn xor(self, b: Self) -> Self {
        Self(_mm256_xor_si256(self.0, b.0))
    }
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn xor3(self, b: Self, c: Self) -> Self {
        Self(_mm256_ternarylogic_epi64::<0x96>(self.0, b.0, c.0))
    }
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn rol<const L: i32, const R: i32>(self) -> Self {
        Self(_mm256_rol_epi64::<L>(self.0))
    }
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn chi(self, b: Self, c: Self) -> Self {
        Self(_mm256_ternarylogic_epi64::<0xD2>(self.0, b.0, c.0))
    }
}

/// AVX2 body of [`permute_x`]: [`permute_words!`] over [`Avx2`]. Reach
/// it only on a CPU with AVX2; [`permute_x_on`]'s contract vouches for
/// that.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn permute_x_avx2(states: &mut [[u64; LANES]; STATE_WORDS]) {
    permute_words!(Avx2, states)
}

/// AVX-512VL body of [`permute_x`]: [`permute_words!`] over [`Avx512`].
/// Reach it only on a CPU with AVX-512F and AVX-512VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn permute_x_avx512(states: &mut [[u64; LANES]; STATE_WORDS]) {
    permute_words!(Avx512, states)
}

/// NEON body of [`permute_x`]: the four lanes split into two
/// 2-lane-per-register passes, each state word one `uint64x2_t`. The
/// halves are fully independent, so the second pass's instruction
/// stream overlaps the first in the out-of-order window. χ uses `vbic`
/// (`z & !y`) and rotations are the shl/shr/orr triple — aarch64 NEON
/// has no 64-bit vector rotate.
///
/// # Safety
///
/// Callers must ensure the CPU supports NEON (baseline on aarch64, but
/// the tier probe still checks).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn permute_x_neon(states: &mut [[u64; LANES]; STATE_WORDS]) {
    use std::arch::aarch64::*;

    /// `v <<< L` (`R = 64 - L`, spelled out because const arithmetic in
    /// generic position is unstable).
    #[inline(always)]
    unsafe fn rotl<const L: i32, const R: i32>(v: uint64x2_t) -> uint64x2_t {
        unsafe { vorrq_u64(vshlq_n_u64::<L>(v), vshrq_n_u64::<R>(v)) }
    }

    unsafe {
        for half in 0..2 {
            let lo = half * 2;
            let mut a: [uint64x2_t; STATE_WORDS] =
                std::array::from_fn(|i| vld1q_u64(states[i][lo..].as_ptr()));
            for rc in RC {
                // θ.
                let c: [uint64x2_t; 5] = std::array::from_fn(|x| {
                    veorq_u64(
                        veorq_u64(veorq_u64(a[x], a[x + 5]), a[x + 10]),
                        veorq_u64(a[x + 15], a[x + 20]),
                    )
                });
                for x in 0..5 {
                    let d = veorq_u64(c[(x + 4) % 5], rotl::<1, 63>(c[(x + 1) % 5]));
                    for y in 0..5 {
                        a[x + 5 * y] = veorq_u64(a[x + 5 * y], d);
                    }
                }
                // ρ + π, unrolled with literal indices and shifts.
                let mut t = a[1];
                macro_rules! step {
                    ($pi:literal, $l:literal, $r:literal) => {{
                        let next = a[$pi];
                        a[$pi] = rotl::<$l, $r>(t);
                        t = next;
                    }};
                }
                step!(10, 1, 63);
                step!(7, 3, 61);
                step!(11, 6, 58);
                step!(17, 10, 54);
                step!(18, 15, 49);
                step!(3, 21, 43);
                step!(5, 28, 36);
                step!(16, 36, 28);
                step!(8, 45, 19);
                step!(21, 55, 9);
                step!(24, 2, 62);
                step!(4, 14, 50);
                step!(15, 27, 37);
                step!(23, 41, 23);
                step!(19, 56, 8);
                step!(13, 8, 56);
                step!(12, 25, 39);
                step!(2, 43, 21);
                step!(20, 62, 2);
                step!(14, 18, 46);
                step!(22, 39, 25);
                step!(9, 61, 3);
                step!(6, 20, 44);
                step!(1, 44, 20);
                let _ = t; // the cycle closes; the final carry is dead

                // χ (`vbic` computes `row[x+2] & !row[x+1]` in one op).
                for y in 0..5 {
                    let row: [uint64x2_t; 5] = std::array::from_fn(|x| a[x + 5 * y]);
                    for x in 0..5 {
                        a[x + 5 * y] =
                            veorq_u64(row[x], vbicq_u64(row[(x + 2) % 5], row[(x + 1) % 5]));
                    }
                }
                // ι.
                a[0] = veorq_u64(a[0], vdupq_n_u64(rc));
            }
            for (i, word) in a.iter().enumerate() {
                vst1q_u64(states[i][lo..].as_mut_ptr(), *word);
            }
        }
    }
}

/// Portable straight-line body of [`permute_x`]: the 24 rounds with each
/// θ/ρ/π/χ/ι word operation expressed elementwise over the
/// [`LANES`]-wide lane arrays.
#[inline(always)]
fn permute_x_portable(states: &mut [[u64; LANES]; STATE_WORDS]) {
    for rc in RC {
        let mut c = [[0u64; LANES]; 5];
        for x in 0..5 {
            for l in 0..LANES {
                c[x][l] = states[x][l]
                    ^ states[x + 5][l]
                    ^ states[x + 10][l]
                    ^ states[x + 15][l]
                    ^ states[x + 20][l];
            }
        }
        for x in 0..5 {
            let mut d = [0u64; LANES];
            for l in 0..LANES {
                d[l] = c[(x + 4) % 5][l] ^ c[(x + 1) % 5][l].rotate_left(1);
            }
            for y in 0..5 {
                for l in 0..LANES {
                    states[x + 5 * y][l] ^= d[l];
                }
            }
        }
        let mut t = states[1];
        for (rot, &pi) in RHO.iter().zip(PI.iter()) {
            let next = states[pi];
            for l in 0..LANES {
                states[pi][l] = t[l].rotate_left(*rot);
            }
            t = next;
        }
        for y in 0..5 {
            let row: [[u64; LANES]; 5] = std::array::from_fn(|x| states[x + 5 * y]);
            for x in 0..5 {
                for l in 0..LANES {
                    states[x + 5 * y][l] = row[x][l] ^ (!row[(x + 1) % 5][l] & row[(x + 2) % 5][l]);
                }
            }
        }
        for word in states[0].iter_mut() {
            *word ^= rc;
        }
    }
}

/// Writes SHAKE-256 padding after a message tail already resident in
/// `buf[..tail_len]`, zeroing the rest of the block: domain byte `0x1F`
/// at `tail_len`, zeros, final bit `0x80` at the block end (pad10*1,
/// FIPS 202 §5.1).
///
/// This is the Keccak analogue of [`crate::sha256::pad_in_place`]: the
/// batched tweakable hashes assemble each lane's whole message in its
/// rate-block buffer, pad it here, and feed the block to
/// [`KeccakxN::absorb_blocks`]. `tail_len == RATE - 1` merges the
/// domain and final-bit bytes, as the spec requires.
///
/// # Panics
///
/// Panics if `tail_len >= RATE` (the single-block capacity).
pub fn pad_block_in_place(buf: &mut [u8; RATE], tail_len: usize) {
    assert!(tail_len < RATE, "tail too long for one rate block");
    buf[tail_len..].fill(0);
    buf[tail_len] = DOMAIN;
    buf[RATE - 1] |= 0x80;
}

/// A [`LANES`]-wide batch of Keccak sponges advancing in lockstep.
///
/// Used by the batched SHAKE tweakable hashes: every lane starts from
/// the all-zero sponge state (there is no seed state to broadcast —
/// SHAKE absorbs `pk_seed` as ordinary message bytes), absorbs its own
/// pre-padded rate blocks via [`KeccakxN::absorb_blocks`], and its
/// output is read back with [`KeccakxN::squeeze_into`].
#[derive(Clone, Debug)]
pub struct KeccakxN {
    states: [[u64; LANES]; STATE_WORDS],
}

impl Default for KeccakxN {
    fn default() -> Self {
        Self::new()
    }
}

impl KeccakxN {
    /// Starts every lane from the all-zero sponge state.
    pub fn new() -> Self {
        Self {
            states: [[0u64; LANES]; STATE_WORDS],
        }
    }

    /// Absorbs one (already padded) [`RATE`]-byte block per lane and
    /// permutes all lanes once.
    pub fn absorb_blocks(&mut self, blocks: &[&[u8; RATE]; LANES]) {
        for w in 0..RATE / 8 {
            for (l, block) in blocks.iter().enumerate() {
                self.states[w][l] ^=
                    u64::from_le_bytes(block[w * 8..(w + 1) * 8].try_into().expect("word slice"));
            }
        }
        permute_x(&mut self.states);
    }

    /// Writes the first `out.len()` squeezed bytes of `lane`
    /// (`out.len() <= RATE`). A lane is finalized by padding its input
    /// block ([`pad_block_in_place`]), so this is a pure state read-out;
    /// every tweakable-hash output is `n <= 32` bytes, well inside one
    /// rate block.
    pub fn squeeze_into(&self, lane: usize, out: &mut [u8]) {
        debug_assert!(out.len() <= RATE);
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.states[i / 8][lane].to_le_bytes()[i % 8];
        }
    }
}

/// Incremental SHAKE-256 hasher with arbitrary-length output.
///
/// ```
/// use hero_sphincs::keccak::Shake256;
/// let mut h = Shake256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// let mut out = [0u8; 32];
/// h.finalize_into(&mut out);
/// assert_eq!(out.to_vec(), Shake256::digest(b"abc", 32));
/// ```
#[derive(Clone, Debug)]
pub struct Shake256 {
    state: [u64; STATE_WORDS],
    buf: [u8; RATE],
    buf_len: usize,
    permutations: u64,
}

impl Default for Shake256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Shake256 {
    /// Creates a sponge in the all-zero initial state.
    pub fn new() -> Self {
        Self {
            state: [0u64; STATE_WORDS],
            buf: [0u8; RATE],
            buf_len: 0,
            permutations: 0,
        }
    }

    /// Number of Keccak-f\[1600\] invocations performed so far (used by
    /// the cost model in tests and the hash-core bench).
    pub fn permutations(&self) -> u64 {
        self.permutations
    }

    fn absorb_buf(&mut self) {
        for w in 0..RATE / 8 {
            self.state[w] ^=
                u64::from_le_bytes(self.buf[w * 8..(w + 1) * 8].try_into().expect("word slice"));
        }
        keccak_f1600(&mut self.state);
        self.permutations += 1;
        self.buf_len = 0;
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        while !input.is_empty() {
            let take = (RATE - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == RATE {
                self.absorb_buf();
            }
        }
    }

    /// Finalizes (domain `0x1F`, pad10*1) and squeezes `out.len()` bytes.
    ///
    /// SHAKE is an XOF: any output length is valid, and a longer output
    /// is a prefix-extension of a shorter one. `H_msg` relies on this to
    /// fill the whole index-derivation digest without an MGF1 loop.
    pub fn finalize_into(mut self, out: &mut [u8]) {
        let tail = self.buf_len;
        pad_block_in_place(&mut self.buf, tail);
        self.absorb_buf();
        let mut offset = 0usize;
        loop {
            let take = RATE.min(out.len() - offset);
            for i in 0..take {
                out[offset + i] = self.state[i / 8].to_le_bytes()[i % 8];
            }
            offset += take;
            if offset == out.len() {
                return;
            }
            keccak_f1600(&mut self.state);
            self.permutations += 1;
        }
    }

    /// One-shot digest of `data`, squeezed to `out_len` bytes.
    pub fn digest(data: &[u8], out_len: usize) -> Vec<u8> {
        let mut out = vec![0u8; out_len];
        let mut h = Self::new();
        h.update(data);
        h.finalize_into(&mut out);
        out
    }
}

/// Returns the number of Keccak-f\[1600\] invocations SHAKE-256 performs
/// for a `message_len`-byte input squeezed to `out_len` bytes
/// (`out_len >= 1`).
///
/// The analytic kernel descriptors use this to count work without
/// hashing, mirroring [`crate::sha256::compressions_for_len`].
pub fn permutations_for_len(message_len: usize, out_len: usize) -> usize {
    assert!(out_len >= 1, "SHAKE output must be at least one byte");
    // Absorption: the padded message always occupies at least one block
    // (padding adds >= 1 byte). Squeezing: the first rate block of
    // output falls out of the final absorption permutation.
    (message_len + 1).div_ceil(RATE) + out_len.div_ceil(RATE) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Known-answer vectors cross-checked against an independent FIPS 202
    // implementation (CPython hashlib's shake_256).
    #[test]
    fn shake256_empty_vector() {
        assert_eq!(
            hex(&Shake256::digest(b"", 32)),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
        );
    }

    #[test]
    fn shake256_abc_vector() {
        assert_eq!(
            hex(&Shake256::digest(b"abc", 32)),
            "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739"
        );
        // XOF prefix property at a known 64-byte squeeze (crosses one
        // squeeze boundary check below for the long-output path).
        assert_eq!(
            hex(&Shake256::digest(b"abc", 64)),
            "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739\
             d5a15bef186a5386c75744c0527e1faa9f8726e462a12a4feb06bd8801e751e4"
        );
    }

    #[test]
    fn shake256_1600_bit_vector() {
        // The classic 200×0xA3 NIST message (spans two rate blocks).
        assert_eq!(
            hex(&Shake256::digest(&[0xa3u8; 200], 32)),
            "cd8a920ed141aa0407a22d59288652e9d9f1a7ee0c1e7c1ca699424da84a904d"
        );
    }

    #[test]
    fn shake256_block_boundary_vectors() {
        // Exactly one full rate block: padding must open a second block.
        assert_eq!(
            hex(&Shake256::digest(&[0u8; RATE], 16)),
            "ea947b835fec1f9b0a7eabba901deb78"
        );
        // One byte past the block boundary.
        assert_eq!(
            hex(&Shake256::digest(&[0x5au8; 137], 48)),
            "57d39d9dc7e8036451eb10c5b073374abc31458aa64c7334e675d629531065d8\
             b4fdb669ad6172776077e7ab1a4e47f2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 135, 136, 137, 272, 996] {
            let mut h = Shake256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            let mut out = [0u8; 32];
            h.finalize_into(&mut out);
            assert_eq!(out.to_vec(), Shake256::digest(&data, 32), "split={split}");
        }
    }

    #[test]
    fn xof_outputs_are_prefix_consistent() {
        for len in [1usize, 16, 135, 136, 137, 272, 500] {
            let long = Shake256::digest(b"prefix property", len);
            let short = Shake256::digest(b"prefix property", len / 2 + 1);
            assert_eq!(&long[..short.len()], &short[..], "len={len}");
        }
    }

    #[test]
    fn permutation_count_matches_formula() {
        // Independent count: full message blocks plus the padding block
        // during absorption, plus one permutation per squeeze block
        // after the first.
        for (msg_len, out_len) in [
            (0usize, 32usize),
            (1, 32),
            (135, 32),
            (136, 32),
            (137, 16),
            (300, 136),
            (10, 137),
            (10, 400),
        ] {
            let absorb = msg_len / RATE + 1;
            let squeeze = out_len.div_ceil(RATE) - 1;
            assert_eq!(
                permutations_for_len(msg_len, out_len),
                absorb + squeeze,
                "msg={msg_len} out={out_len}"
            );
        }
    }

    #[test]
    fn update_counts_full_block_permutations() {
        let mut h = Shake256::new();
        h.update(&[0u8; RATE - 1]);
        assert_eq!(h.permutations(), 0);
        h.update(&[0u8; 1]);
        assert_eq!(h.permutations(), 1, "full buffer absorbs immediately");
        h.update(&[0u8; 3 * RATE]);
        assert_eq!(h.permutations(), 4);
    }

    #[test]
    fn multi_lane_matches_scalar_permutation() {
        // Four distinct states, interleaved, vs four scalar permutations.
        let mut scalars = [[0u64; STATE_WORDS]; LANES];
        for (l, s) in scalars.iter_mut().enumerate() {
            for (w, word) in s.iter_mut().enumerate() {
                *word = ((l as u64) << 32) | (w as u64 * 0x9e37);
            }
        }
        let mut interleaved = [[0u64; LANES]; STATE_WORDS];
        for w in 0..STATE_WORDS {
            for l in 0..LANES {
                interleaved[w][l] = scalars[l][w];
            }
        }
        permute_x(&mut interleaved);
        for (l, s) in scalars.iter_mut().enumerate() {
            keccak_f1600(s);
            for w in 0..STATE_WORDS {
                assert_eq!(interleaved[w][l], s[w], "lane {l} word {w}");
            }
        }
    }

    #[test]
    fn keccakxn_lanes_match_scalar_shake() {
        // One padded single-block message per lane, squeezed, vs the
        // scalar hasher.
        let mut kx = KeccakxN::new();
        let mut blocks = [[0u8; RATE]; LANES];
        let msgs: Vec<Vec<u8>> = (0..LANES)
            .map(|l| (0..40 + l).map(|i| (l * 31 + i) as u8).collect())
            .collect();
        for (l, block) in blocks.iter_mut().enumerate() {
            block[..msgs[l].len()].copy_from_slice(&msgs[l]);
            pad_block_in_place(block, msgs[l].len());
        }
        let refs: [&[u8; RATE]; LANES] = std::array::from_fn(|l| &blocks[l]);
        kx.absorb_blocks(&refs);
        for (l, msg) in msgs.iter().enumerate() {
            let mut out = [0u8; 32];
            kx.squeeze_into(l, &mut out);
            assert_eq!(out.to_vec(), Shake256::digest(msg, 32), "lane {l}");
        }
    }

    #[test]
    fn pad_block_boundary_merges_domain_and_final_bit() {
        // tail_len == RATE-1: 0x1F and 0x80 share the last byte (0x9F).
        let mut buf = [0u8; RATE];
        let msg = [7u8; RATE - 1];
        buf[..RATE - 1].copy_from_slice(&msg);
        pad_block_in_place(&mut buf, RATE - 1);
        assert_eq!(buf[RATE - 1], 0x9f);
        let mut state = [0u64; STATE_WORDS];
        for w in 0..RATE / 8 {
            state[w] ^= u64::from_le_bytes(buf[w * 8..(w + 1) * 8].try_into().unwrap());
        }
        keccak_f1600(&mut state);
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = state[i / 8].to_le_bytes()[i % 8];
        }
        assert_eq!(out.to_vec(), Shake256::digest(&msg, 32));
    }

    #[test]
    #[should_panic(expected = "tail too long")]
    fn pad_rejects_full_block_tail() {
        let mut buf = [0u8; RATE];
        pad_block_in_place(&mut buf, RATE);
    }
}
