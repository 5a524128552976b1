//! Runtime ISA-tier selection for the hash cores — the dispatch ladder
//! behind [`crate::sha256::compress_x`], [`crate::keccak::permute_x`] and
//! the four lane-resident SHA-256 kernels: WOTS+ chains
//! ([`crate::hash::HashCtx::f_chains`]), WOTS+ leaves
//! ([`crate::wots::pk_gen_many`]), fused FORS trees
//! ([`crate::fors::tree_hash_many`]) and the verification ascent, which
//! every stage of [`crate::sign::VerifyingKey::verify_many`]'s one
//! pipeline runs in where the ladder has a body.
//!
//! A 128f sign burns ~113k compressions, so the primitive core dominates
//! end-to-end signature throughput. Instead of consulting
//! `is_x86_feature_detected!` inside every multi-lane call, each
//! primitive resolves a [`HashTier`] **once per process** (a ladder walk
//! over what the host CPU supports, cached in an atomic; the feature
//! probes themselves run inside a `OnceLock`) and the hot paths read the
//! cached tier with a single relaxed load.
//!
//! ## The ladder
//!
//! Tiers are ordered best-first per primitive and per architecture:
//!
//! | primitive | x86-64 | aarch64 |
//! |---|---|---|
//! | SHA-256 | `sha-ni` → `avx512` → `avx2` → `scalar` | `neon` → `scalar` |
//! | SHA-256 WOTS+ chains and leaves, FORS trees and verification ascent | `avx512` → `avx2` → `scalar` | `scalar` |
//! | Keccak-f\[1600\] | `avx512` → `avx2` → `scalar` | `neon` → `scalar` |
//!
//! The SHA-256 ladder is the PR 9 order and is static. On the reference
//! host it is not the measured order for an 8-block `compress_x` call
//! (SHA-NI 22.7 M compressions/s, 8-lane AVX-512VL 29.5 M/s); it stays as
//! it is because `compress_x` no longer carries the WOTS+ chains, which
//! is where four fifths of a signature's compressions are. SHA-NI is
//! meaningless for Keccak, so requesting it there resolves to the best
//! Keccak tier instead.
//!
//! ## The chain kernel's ladder is measured
//!
//! WOTS+ chains get a ladder of their own, because what suits a chain is
//! not what suits one block: a chain is `w − 1` dependent compressions
//! whose message is the previous digest, so a body that keeps 16 chains
//! in registers for the whole run beats a faster single-block core that
//! has to be fed through memory at every step. This is the paper's
//! per-kernel choice between PTX and native code, restated for CPUs.
//! `scalar` on this ladder means *no resident body*: chains advance one
//! batched `F` round at a time through `compress_x` at the SHA-256 tier,
//! as every chain did before the kernel existed.
//!
//! The order is what forcing each candidate measured on the reference
//! host (2 vCPUs of an Intel Xeon, family 6 model 207, AVX-512 and
//! SHA-NI) for one 8-leaf 128f subtree — 280 `PRF`, 280 chains × 15
//! steps, 8 `T_len`; µs, range of the medians of three rounds of 400
//! fills; "busy" = the other hardware thread filling subtrees too.
//! Forcing pins `compress_x` as well, as `HERO_HASH_TIER` does.
//!
//! | candidate | alone | busy | |
//! |---|---|---|---|
//! | 16 lanes resident in zmm (AVX-512F) | 110–126 | 111–119 | `avx512` |
//! | 4 chains resident in xmm, side by side (SHA-NI) | 210 | 211 | not added: level with the rung below (215–225 in the same round) |
//! | 8 lanes resident in ymm (AVX2) | 236–249 | 233–243 | `avx2` |
//! | 1 lane resident in general registers | 895–920 | 900–924 | not added: slower than the round loop |
//! | round loop through `compress_x` (forced scalar) | 661–676 | 679–1119 | `scalar` |
//!
//! For scale: the round loop took 282 µs on its default SHA-NI core,
//! 253 µs forced to AVX-512VL and 347 µs forced to AVX2. A body is on the
//! ladder only if it beat the rung below it in this table. NEON could
//! not be measured on this host, so aarch64 keeps the round loop — on
//! its `vsha256h` core, exactly as before — until someone measures a
//! resident body against it there.
//!
//! ## The same ladder carries the fused FORS trees
//!
//! The second resident body is the paper's Tree Fusion: a lane owns one
//! whole FORS tree and takes it from `PRF` through `F` to the last `H` in
//! registers ([`crate::fors::tree_hash_many`]). It is written over the
//! same vector vocabulary and the same compression as the chain body,
//! so it has the same two instantiations, and the chain tier picks
//! between them — one ladder, one label, one override. `scalar` again
//! means *no resident body*: trees are filled and halved level by level
//! through `compress_x`, as all of them were before. With it came
//! chains that start from their own `PRF` in the lane (no separate sweep
//! for the secrets, nothing of them in bytes).
//!
//! Measured like the table above, on the same host, the parent commit
//! and this one linked into one binary and alternated in blocks of 40–60
//! calls (µs, range of the medians of four runs of 15–21 blocks, alone /
//! the other hardware thread filling subtrees). "16 trees" is one full
//! zmm group of 128f trees (16 × 191 calls), "33 trees" one message's
//! forest in items of 16 (8 for the sweep, its item size) including
//! what the last tree costs, "fill" the 8-leaf subtree of the first
//! table with its 280 chains headed by their `PRF`:
//!
//! | body | 16 trees | 33 trees | fill, `PRF`-headed |
//! |---|---|---|---|
//! | 16 trees / chains resident in zmm | 54–56 / 53–57 | 110–144 / 122–124 | 86–90 / 86–93 |
//! | 8 resident in ymm (forced `avx2`) | 138–139 / 125–139 | 290–309 / 276–321 | 225–226 / 228–230 |
//! | level-by-level sweep and `prf_many` heads, default SHA-NI `compress_x` (the parent) | 181–188 / 177–190 | 350–447 / 372–384 | 94–97 / 94–100 |
//! | the same, forced `avx2` | 206–209 / 185–210 | 429–439 / 410–496 | 226–228 / 230–231 |
//! | the same, forced `scalar` | 410–437 / 470–534 | 820–890 / 950–1390 | 631–685 / 625–775 |
//!
//! Both fused bodies beat the sweep on the core they would otherwise
//! feed (3.4× in zmm, 1.5× in ymm). Heading the chains by their `PRF`
//! is worth 8 µs of a fill in zmm and nothing measurable in ymm, where
//! the 8-lane `compress_x` was as good at a `PRF` sweep as the body is;
//! it is one body either way, so there is no rung to withhold.
//!
//! **A last group the requests do not fill** — the 33rd tree of a lone
//! message, `m mod 16` trees of a batch of `m` — had three candidates:
//! run the group part empty, hand the left-over trees to the sweep, or
//! cut each of them into as many subtrees as there are lanes to go round
//! (one tree: 16 four-leaf subtrees, then the top four levels through
//! `h_many`). µs for 1 / 2 / 4 / 8 left-over 128f trees, zmm, alone:
//!
//! | candidate | 1 | 2 | 4 | 8 | |
//! |---|---|---|---|---|---|
//! | group part empty | 48–50 | 48–50 | 48–50 | 48–50 | not kept |
//! | the sweep | 11–13 | 20–24 | 38–46 | 74–93 | not kept: the rung below |
//! | trees cut across the lanes | 7.4–9.5 | 11–13 | 16–21 | 26–33 | what runs |
//!
//! (ymm: 15 → 11, 27 → 20, 52 → 36 against the sweep forced `avx2`.)
//! Cutting wins at every size, so it is the rule, and it needs no
//! threshold: a short group's trees share its lanes out, each lane
//! building a subtree `⌊log2(lanes / trees)⌋` levels below the root,
//! and from 9 trees up that is the plain part-empty group.
//!
//! ## And the verification ascent
//!
//! The third resident body is the other side's: a verifier is handed a
//! tree's nodes instead of building them, so a lane owns a climb — a
//! leaf hashed from what the signature reveals, then one `H` per
//! authentication node. Verification is one pipeline for every primitive
//! and tier ([`crate::sign::VerifyingKey::verify_many`]): a group of
//! signatures goes through a FORS stage and `d` XMSS stages, and each
//! stage picks its body once for the group — these lanes, their byte
//! tail, or the level sweep. Lane = tree for the FORS
//! climb (`F(sk)`, `log_t` levels: 33 trees × 16 signatures are 33 full
//! zmm groups of 7 calls), lane = signature for `T_k`, `T_len` and the
//! XMSS authentication path, whose chain ends the chain kernel leaves
//! where the revealed nodes were, for `T_len` to gather. Same vocabulary,
//! same compression, same two instantiations, same ladder; on `scalar`,
//! as under SHAKE-256 and SHA-512, a stage is the level sweep through the
//! multi-lane engine and the round loop, a group of
//! [`crate::fors::LANE_SIGNATURES`] signatures at a time in the same
//! call-scoped scratch.
//!
//! The FORS climb runs at every width: a lone 128f signature's 33 trees
//! are two full groups and one lane, 21 calls in registers where the
//! sweep marshalled 231 through `f_many` and `h_many` as bytes (22.9 →
//! 8.7 µs of that signature, 14.8 → 4.6 µs per signature at sixteen; a
//! last group simply runs part empty). Lane = signature is different:
//! `T_len` is ten compressions of the *whole* register whatever the
//! group holds, against ten of one SHA-NI lane per signature on bytes,
//! so a narrow group must keep the byte tail for that stage — which
//! includes every `verify` that comes through the service alone. Measured
//! on the reference host, one thread, 48 signatures of 128f through
//! [`crate::sign::VerifyingKey::verify_many`] in groups of `w`, the
//! selection forced either way (both run the chains in the chain kernel
//! and the FORS climb in lanes): µs per signature, best of 20 (zmm) / 12
//! (ymm) alternating blocks (the host runs at one of two speeds a
//! quarter apart for minutes at a time, so the fastest block is the
//! comparable figure), and the median and quartiles over the pairs of
//! byte tail ÷ in lanes:
//!
//! | group width `w` | 1 | 2 | 3 | 4 | 8 | 16 |
//! |---|---|---|---|---|---|---|
//! | zmm, in lanes | 262 | 185 | 161 | 161 | 141 | 133 |
//! | zmm, byte tail (SHA-NI `compress_x`) | 185 | 159 | 152 | 160 | 151 | 151 |
//! | byte tail ÷ in lanes | 0.72 [0.70, 0.76] | 0.86 [0.86, 0.88] | 0.94 [0.92, 0.97] | 1.01 [0.99, 1.03] | 1.06 [1.03, 1.10] | 1.17 [1.12, 1.19] |
//! | ymm, in lanes (forced `avx2`) | 532 | 409 | 383 | 366 | 336 | 341 |
//! | ymm, byte tail (forced `avx2`) | 481 | 439 | 441 | 417 | 419 | 424 |
//! | byte tail ÷ in lanes | 0.91 [0.89, 0.95] | 1.12 [1.08, 1.14] | 1.20 [1.13, 1.26] | 1.22 [1.14, 1.40] | 1.26 [1.21, 1.29] | 1.25 [1.20, 1.31] |
//!
//! In zmm the lanes are level at four and ahead from eight; in ymm they
//! are ahead from two.
//!
//! By the chain ladder's rule a body is selected only where it beat the
//! rung below it, at its own width: in lanes from four signatures in
//! zmm, from two in ymm (`ascent::Resident::ascends_in_lanes` has the
//! rule, a function of the primitive, this ladder's tier and the group's
//! width and of nothing else). `plan::verify_batch` in `hero-sign` sizes its
//! nodes to the lanes for the same reason.
//!
//! ## And the WOTS+ leaves
//!
//! The fourth resident body is where a signature's time is: a subtree's
//! leaves are whole WOTS+ public keys, and 17 to 22 subtrees are filled
//! per signature. [`crate::wots::pk_gen_many`] had the chain kernel run
//! all the chains of a fill as jobs — an address, a sort slot and a byte
//! node each — and compressed every key's 35 ends through one SHA-NI lane
//! on bytes. Now a lane owns a key pair from its first `PRF` to its
//! `T_len` (the `leaf` module): chains in lockstep, nothing per chain but
//! its index, ends absorbed where they lie. Same vocabulary, same
//! compression, same two instantiations, same ladder; `scalar` is the
//! chain sweep and `T_len` on bytes, as before.
//!
//! With it, every resident chain — the leaf body's and the chain
//! kernel's — takes one `F` step compiled for the message shape a chain
//! step has (`lanes::ChainStep`): of the generic call's (`lanes::tweak`)
//! ≈ 1650 vector operations a call, 1440 at `n = 16`. The compiler had
//! found some of the difference by itself: with the generic call inlined
//! into the step loop it hoists the rounds that hash only the address and
//! folds the zero words of the first block, 1545 operations a step in the
//! leaf body, which is what the step is measured against here — not the
//! 1650, which a stand-alone prototype compares with (1.12–1.16 × there).
//!
//! Measured like the tables above: the reference host, one thread, the
//! parent commit, this one and this one with the step withheld linked
//! into one binary and alternated in blocks of 5–40 calls; µs per call,
//! range of the medians of three runs of 31–41 alternating blocks, and
//! the range of the three medians of the per-block ratio. The other
//! hardware thread filling subtrees meanwhile moved no ratio by more
//! than 0.02 in this round, so one column. `ymm` is forced `avx2`, which
//! pins `compress_x` too, as `HERO_HASH_TIER` does.
//!
//! **The step against the generic call**, in the leaf body (16 key pairs,
//! `w = 16`: 35 / 51 / 67 passes of `PRF` + 15 steps, then `T_len`) and in
//! the chain kernel through `f_chains` (128 chains of 15 steps from node
//! heads, sort, load and store included):
//!
//! | | `n = 16` | `n = 24` | `n = 32` |
//! |---|---|---|---|
//! | zmm leaf body, generic ÷ step | 165.0–165.2 ÷ 155.1–155.4 = 1.062–1.064 | 243.3–244.1 ÷ 234.1–234.4 = 1.038–1.039 | 326.9–328.9 ÷ 312.6–315.8 = 1.032–1.044 |
//! | ymm leaf body, generic ÷ step | 444.7–445.2 ÷ 422.2–427.3 = 1.041–1.060 | 652.9–657.4 ÷ 629.0–633.1 = 1.036–1.043 | 868.2–869.7 ÷ 840.4–842.5 = 1.033–1.035 |
//! | zmm chain kernel, generic ÷ step | 36.7–41.6 ÷ 34.6–39.5 = 1.051–1.063 | 37.2–42.5 ÷ 35.4–41.0 = 1.040–1.055 | 37.0–41.3 ÷ 36.2–40.3 = 1.019–1.025 |
//! | ymm chain kernel, generic ÷ step | 98.2–99.0 ÷ 90.9–95.6 = 1.053–1.064 | 99.3–103.3 ÷ 94.7–101.0 = 1.030–1.047 | 96.6–108.2 ÷ 94.0–109.4 = 1.020–1.047 |
//!
//! The zmm kernels run at the vector ports' rate (two 512-bit ports at
//! 2.55 GHz retire 5.1 operations a nanosecond here; a 16-lane step takes
//! 0.28 µs), so the step is worth what it saves in operations and no
//! more: most at `n = 16`, where the padding is longest and two schedule
//! words have no term left that changes. All six instantiations are ahead
//! of the generic call at their own width, so all six are selected.
//!
//! **A fill**: one 8-leaf 128f subtree (what a lone signature's plan
//! hands a node) and two of them (a plan item from batch 4 up; one
//! [`crate::hypertree::wots_leaves_many_into`] call now, two
//! `wots_leaves_into` calls in the parent), and for scale one 16-leaf
//! 256f subtree:
//!
//! | | parent | leaf body, generic step | leaf body, the step | parent ÷ it |
//! |---|---|---|---|---|
//! | zmm, one subtree | 93.4–102.6 | 87.5–88.5 | 83.2–89.8 | 1.134–1.150 |
//! | zmm, two subtrees | 185.9–193.6 | 167.5–172.5 | 156.3–157.3 | 1.193–1.198 |
//! | zmm, 256f subtree | 367.0–371.2 | | 313.6–319.6 | 1.163–1.171 |
//! | ymm, one subtree | 249.6–260.4 | 224.6–234.3 | 211.9–219.1 | 1.179–1.181 |
//! | ymm, two subtrees | 498.8–503.3 | 445.4–450.0 | 424.0–426.6 | 1.177–1.180 |
//! | ymm, 256f subtree | 1034.8–1071.2 | | 847.3–869.0 | 1.216–1.227 |
//!
//! (Two subtrees in two calls of the new body: 164.1–167.7 in zmm, 1.053–
//! 1.058 × the one call — each call's 18th pass runs half empty; 423–449
//! in ymm, level, since eight key pairs fill a ymm group.) One subtree in
//! zmm is 18 passes of 16 calls and ten compressions of `T_len`, 298
//! 16-lane compressions in 83 µs, against 17½ groups' worth of chains and
//! five of `T_len` if nothing were ever idle: what is left to a fill is
//! the eight lanes of its last pass.
//!
//! **A group the key pairs do not fill** had two candidates: run it part
//! empty, a key pair a lane, or share the lanes out, `⌊lanes / m⌋` to
//! each of `m` key pairs. µs for 1 / 2 / 4 / 8 key pairs of 128f:
//!
//! | candidate | 1 | 2 | 4 | 8 | |
//! |---|---|---|---|---|---|
//! | zmm, group part empty | 155.2–156.3 | 155.3–155.6 | 155.3–155.5 | 155.1–157.1 | not kept |
//! | zmm, lanes shared out | 16.9 | 25.4–25.6 | 42.8–42.9 | 81.6–82.6 | what runs |
//! | zmm, the parent's sweep | 15.3 | 25.5–25.8 | 46.2–50.9 | 92.6–92.9 | the rung below |
//! | ymm, group part empty | 211.0–215.9 | 210.7–217.6 | 211.2–215.5 | 211.0–219.2 | not kept |
//! | ymm, lanes shared out | 34.6–35.1 | 57.9–59.5 | 111.3–113.3 | 210.8–219.0 | what runs |
//! | ymm, the parent's sweep | 35.1–36.6 | 64.1–65.6 | 127.8–131.0 | 249.0–254.3 | the rung below |
//!
//! Sharing out wins at every size, so it is the rule and needs no
//! threshold; from 9 key pairs up (5 in ymm) it is the plain part-empty
//! group. Against the sweep it replaced it is ahead from four key pairs,
//! level at two, and behind at one in zmm, 16.9 against 15.3 µs: a lone
//! key's `T_len` is ten compressions of a whole register where the sweep
//! ran ten of one SHA-NI lane. Nothing that signs, generates a key or
//! fills a cache asks for fewer than a subtree's eight leaves, so no
//! selection was written for that one count; the number stands here for
//! whoever finds a caller for it.
//!
//! ## Overrides and fallback
//!
//! `HERO_HASH_TIER=<name>` pins every primitive to one requested tier.
//! An unknown name is a typed [`TierError`] listing the valid names
//! (surfaced eagerly by [`init_from_env`], which `hero serve` and the
//! benches call before touching the hot path); requesting a tier the
//! host CPU lacks — or one that does not apply to a primitive — **falls
//! back down the ladder with a logged warning, never undefined
//! behavior**: the resolved tier is always one whose required CPU
//! features were positively detected.
//!
//! ```
//! use hero_sphincs::tier::{self, HashTier};
//! // Whatever the host supports, the resolved tiers are supported ones.
//! assert!(tier::supported_sha256_tiers().contains(&tier::sha256_tier()));
//! assert!(tier::supported_keccak_tiers().contains(&tier::keccak_tier()));
//! // Unknown names are typed errors that list the ladder.
//! let err = HashTier::from_label("sse2").unwrap_err();
//! assert!(err.to_string().contains("scalar"));
//! ```

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable that pins the hash tier for both primitives.
pub const ENV_VAR: &str = "HERO_HASH_TIER";

/// One rung of the ISA ladder a hash core can execute on.
///
/// Variants are ordered worst-to-best in generic preference order; the
/// per-primitive ladders in this module decide what "best" means for
/// each core (SHA-NI outranks AVX-512 for SHA-256 and is skipped
/// entirely for Keccak).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum HashTier {
    /// Portable straight-line Rust, no SIMD requirements.
    Scalar = 0,
    /// Lane-interleaved code compiled for AVX2 (256-bit integer SIMD).
    Avx2 = 1,
    /// AVX-512F+VL: single-µop rotates (`vprold`/`vprolq`) and ternary
    /// logic (`vpternlog`) over the interleaved lanes.
    Avx512 = 2,
    /// x86 SHA extensions (`_mm_sha256rnds2`-based rounds). SHA-256
    /// only; resolves down the ladder for Keccak.
    ShaNi = 3,
    /// aarch64 Advanced SIMD; the SHA-256 path additionally requires
    /// the SHA2 crypto extension (`vsha256h`/`vsha256su` rounds).
    Neon = 4,
}

/// All tier labels, best-documented order (the order error messages and
/// usage text list them in). Mirrors `HashAlg::NAMES`.
pub const TIER_NAMES: [&str; 5] = ["scalar", "avx2", "avx512", "sha-ni", "neon"];

/// A typed error for an unrecognized tier name (satisfying the
/// `HERO_HASH_TIER` contract: unknown names never panic and never
/// silently misconfigure — they name every valid rung).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierError {
    /// The name that failed to parse.
    pub name: String,
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown hash tier '{}' (valid tiers: {})",
            self.name,
            TIER_NAMES.join(", ")
        )
    }
}

impl std::error::Error for TierError {}

impl std::fmt::Display for HashTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl HashTier {
    /// The canonical label — the inverse of [`HashTier::from_label`];
    /// used by the env override, the serve banner, the metrics page,
    /// and `perfbench`'s host fingerprint.
    pub const fn label(self) -> &'static str {
        match self {
            HashTier::Scalar => "scalar",
            HashTier::Avx2 => "avx2",
            HashTier::Avx512 => "avx512",
            HashTier::ShaNi => "sha-ni",
            HashTier::Neon => "neon",
        }
    }

    /// Parses a label (case-insensitive; `sha-ni`/`shani`/`sha_ni` all
    /// accepted). Unknown names are a typed [`TierError`] listing every
    /// valid tier.
    ///
    /// ```
    /// use hero_sphincs::tier::HashTier;
    /// assert_eq!(HashTier::from_label("SHA-NI"), Ok(HashTier::ShaNi));
    /// assert!(HashTier::from_label("mmx").is_err());
    /// ```
    pub fn from_label(label: &str) -> Result<Self, TierError> {
        match label.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(HashTier::Scalar),
            "avx2" => Ok(HashTier::Avx2),
            "avx512" | "avx-512" => Ok(HashTier::Avx512),
            "sha-ni" | "shani" | "sha_ni" => Ok(HashTier::ShaNi),
            "neon" => Ok(HashTier::Neon),
            other => Err(TierError {
                name: other.to_string(),
            }),
        }
    }

    fn from_repr(v: u8) -> Option<Self> {
        match v {
            0 => Some(HashTier::Scalar),
            1 => Some(HashTier::Avx2),
            2 => Some(HashTier::Avx512),
            3 => Some(HashTier::ShaNi),
            4 => Some(HashTier::Neon),
            _ => None,
        }
    }
}

/// Which hash core a ladder decision is for (each has its own ladder —
/// SHA-NI only exists for SHA-256, and the chain kernel ranks its bodies
/// by what they measured on chains, not on single blocks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Primitive {
    /// The SHA-256 compression core ([`crate::sha256`]).
    Sha256,
    /// The Keccak-f\[1600\] permutation core ([`crate::keccak`]).
    Keccak,
    /// The lane-resident SHA-256 kernels: WOTS+ chains
    /// ([`crate::hash::HashCtx::f_chains`]) and, on the same ladder, WOTS+
    /// leaves ([`crate::wots::pk_gen_many`]), fused FORS trees
    /// ([`crate::fors::tree_hash_many`]) and the verification ascent
    /// ([`crate::sign::VerifyingKey::verify_many`]).
    Sha256Chain,
}

impl Primitive {
    /// Every primitive, in the order [`ActiveTiers`] and
    /// [`description`] list them.
    pub const ALL: [Primitive; 3] = [Primitive::Sha256, Primitive::Sha256Chain, Primitive::Keccak];

    /// The label the metrics page and the serve banner name it by.
    pub const fn label(self) -> &'static str {
        match self {
            Primitive::Sha256 => "sha256",
            Primitive::Sha256Chain => "sha256_chain",
            Primitive::Keccak => "keccak",
        }
    }
}

/// The ladder for `primitive` on this architecture, best tier first.
/// Always ends in [`HashTier::Scalar`].
pub fn ladder(primitive: Primitive) -> &'static [HashTier] {
    #[cfg(target_arch = "x86_64")]
    {
        match primitive {
            Primitive::Sha256 => &[
                HashTier::ShaNi,
                HashTier::Avx512,
                HashTier::Avx2,
                HashTier::Scalar,
            ],
            Primitive::Keccak => &[HashTier::Avx512, HashTier::Avx2, HashTier::Scalar],
            Primitive::Sha256Chain => &[HashTier::Avx512, HashTier::Avx2, HashTier::Scalar],
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        match primitive {
            Primitive::Sha256 | Primitive::Keccak => &[HashTier::Neon, HashTier::Scalar],
            Primitive::Sha256Chain => &[HashTier::Scalar],
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = primitive;
        &[HashTier::Scalar]
    }
}

/// Whether the host CPU can execute `tier` for `primitive`.
///
/// This is the positive-detection gate every resolved tier passes
/// through: a tier this returns `false` for is never dispatched, so the
/// `#[target_feature]` cores below it are never reached on a CPU that
/// lacks them.
pub fn supported(primitive: Primitive, tier: HashTier) -> bool {
    match tier {
        HashTier::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        HashTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "x86_64")]
        HashTier::Avx512 => {
            // The resident kernels work on whole zmm registers; the two
            // `compress_x`/`permute_x` cores on ymm halves (AVX-512VL).
            std::arch::is_x86_feature_detected!("avx512f")
                && (primitive == Primitive::Sha256Chain
                    || std::arch::is_x86_feature_detected!("avx512vl"))
        }
        #[cfg(target_arch = "x86_64")]
        HashTier::ShaNi => {
            primitive == Primitive::Sha256
                && std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        }
        #[cfg(target_arch = "aarch64")]
        HashTier::Neon => match primitive {
            // The Keccak path needs only Advanced SIMD (mandatory on
            // aarch64); the SHA-256 path needs the crypto extension.
            Primitive::Keccak => true,
            Primitive::Sha256 => std::arch::is_aarch64_feature_detected!("sha2"),
            // No NEON chain body: see the module docs.
            Primitive::Sha256Chain => false,
        },
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Every tier of `primitive`'s ladder the host supports, best first
/// (always non-empty: scalar is universal). This is what the per-tier
/// identity tests iterate.
pub fn supported_tiers(primitive: Primitive) -> Vec<HashTier> {
    ladder(primitive)
        .iter()
        .copied()
        .filter(|&t| supported(primitive, t))
        .collect()
}

/// [`supported_tiers`] for the SHA-256 core.
pub fn supported_sha256_tiers() -> Vec<HashTier> {
    supported_tiers(Primitive::Sha256)
}

/// [`supported_tiers`] for the Keccak core.
pub fn supported_keccak_tiers() -> Vec<HashTier> {
    supported_tiers(Primitive::Keccak)
}

/// Resolves a (possibly absent) requested tier for `primitive` against
/// the host: the request itself if the ladder contains it and the CPU
/// supports it, otherwise the best supported tier at or below the
/// request's rung — never an unsupported tier. Returns the resolved
/// tier and whether it differs from an explicit request (the caller
/// logs the fallback warning so resolution itself stays silent and
/// reusable).
fn resolve(primitive: Primitive, requested: Option<HashTier>) -> (HashTier, bool) {
    let rungs = ladder(primitive);
    match requested {
        Some(want) => {
            // Walk from the requested rung downward. A request absent
            // from this primitive's ladder (SHA-NI for Keccak, NEON on
            // x86) starts from the top: "the best this core has".
            let start = rungs.iter().position(|&t| t == want).unwrap_or(0);
            for &t in &rungs[start..] {
                if supported(primitive, t) {
                    return (t, t != want);
                }
            }
            (HashTier::Scalar, want != HashTier::Scalar)
        }
        None => {
            for &t in rungs {
                if supported(primitive, t) {
                    return (t, false);
                }
            }
            (HashTier::Scalar, false)
        }
    }
}

/// The parsed `HERO_HASH_TIER` request, read at most once per process.
/// `Some(Err(_))` remembers a malformed value so both the eager
/// ([`init_from_env`]) and lazy (first hash call) paths agree on it.
fn env_request() -> &'static Option<Result<HashTier, TierError>> {
    static ENV: OnceLock<Option<Result<HashTier, TierError>>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var(ENV_VAR)
            .ok()
            .map(|v| HashTier::from_label(&v))
    })
}

/// Sentinel for "not yet resolved" in the per-primitive active-tier
/// caches (no `HashTier` discriminant uses it).
const UNRESOLVED: u8 = u8::MAX;

/// The active tier of each primitive, indexed by `Primitive as usize`.
static ACTIVE: [AtomicU8; 3] = [
    AtomicU8::new(UNRESOLVED),
    AtomicU8::new(UNRESOLVED),
    AtomicU8::new(UNRESOLVED),
];

fn active_cell(primitive: Primitive) -> &'static AtomicU8 {
    &ACTIVE[primitive as usize]
}

#[cold]
fn resolve_and_cache(primitive: Primitive) -> HashTier {
    let requested = match env_request() {
        Some(Ok(t)) => Some(*t),
        Some(Err(e)) => {
            // The lazy path cannot return an error; operators get the
            // typed error from `init_from_env` (serve/bench call it
            // eagerly). Here we warn once and auto-resolve — a typo
            // must never change bytes or crash a signer.
            warn_once(&format!("{ENV_VAR}: {e}; auto-detecting"));
            None
        }
        None => None,
    };
    let (tier, fell_back) = resolve(primitive, requested);
    if fell_back {
        if let Some(want) = requested {
            warn_once(&format!(
                "{ENV_VAR}={want} unavailable for {primitive:?} on this host; \
                 falling back to {tier}"
            ));
        }
    }
    active_cell(primitive).store(tier as u8, Ordering::Relaxed);
    tier
}

/// Warns on stderr, deduplicating repeats (both primitives resolving
/// under the same bad override should not double-print).
fn warn_once(msg: &str) {
    use std::sync::Mutex;
    static SEEN: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let mut seen = SEEN.lock().unwrap_or_else(|e| e.into_inner());
    if !seen.iter().any(|m| m == msg) {
        eprintln!("hero-sphincs: {msg}");
        seen.push(msg.to_string());
    }
}

/// The active tier of `primitive`: one relaxed load on the hot path,
/// with the ladder walk behind a `#[cold]` first-call slow path.
#[inline]
pub fn active(primitive: Primitive) -> HashTier {
    match HashTier::from_repr(active_cell(primitive).load(Ordering::Relaxed)) {
        Some(t) => t,
        None => resolve_and_cache(primitive),
    }
}

/// The active SHA-256 tier (see [`active`]).
#[inline]
pub fn sha256_tier() -> HashTier {
    active(Primitive::Sha256)
}

/// The active Keccak tier (see [`active`]).
#[inline]
pub fn keccak_tier() -> HashTier {
    active(Primitive::Keccak)
}

/// The active tier of the lane-resident SHA-256 kernels — WOTS+ chains
/// and leaves, fused FORS trees and the verification ascent (see
/// [`active`]).
#[inline]
pub fn sha256_chain_tier() -> HashTier {
    active(Primitive::Sha256Chain)
}

/// Eagerly applies the `HERO_HASH_TIER` override, returning the typed
/// [`TierError`] for an unknown name. `hero serve` and the benches call
/// this before first use so a typo is a startup error, not a silent
/// auto-detect; requesting a *valid but unsupported* tier is not an
/// error — it falls down the ladder with a warning (see module docs).
pub fn init_from_env() -> Result<(), TierError> {
    if let Some(Err(e)) = env_request() {
        return Err(e.clone());
    }
    for primitive in Primitive::ALL {
        active(primitive);
    }
    Ok(())
}

/// The active tier of every primitive, in [`Primitive::ALL`] order: what
/// [`force_tier`] hands back for [`restore_tier`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActiveTiers([HashTier; 3]);

/// The tiers every primitive currently dispatches to.
pub fn active_tiers() -> ActiveTiers {
    ActiveTiers(Primitive::ALL.map(active))
}

/// Forces the active tier for every primitive, resolving each down its
/// ladder exactly like the env override (so an unsupported request is a
/// supported fallback, never UB). Returns the previously active tiers
/// so callers can restore them.
///
/// This exists for the forced-tier test legs. It is process-global:
/// concurrent hashers observe the change — which is safe, because
/// **every tier produces identical bytes** (pinned by the per-tier
/// identity tests); only throughput differs.
pub fn force_tier(tier: HashTier) -> ActiveTiers {
    let prev = active_tiers();
    for primitive in Primitive::ALL {
        let (resolved, _) = resolve(primitive, Some(tier));
        active_cell(primitive).store(resolved as u8, Ordering::Relaxed);
    }
    prev
}

/// Restores tiers previously returned by [`force_tier`].
pub fn restore_tier(prev: ActiveTiers) {
    for (primitive, tier) in Primitive::ALL.into_iter().zip(prev.0) {
        let (resolved, _) = resolve(primitive, Some(tier));
        active_cell(primitive).store(resolved as u8, Ordering::Relaxed);
    }
}

/// One-line operator-facing description of the resolved ladder, e.g.
/// `sha256=sha-ni sha256_chain=avx512 keccak=avx512` (plus the override,
/// when one is set). Shown by the `hero serve` banner.
pub fn description() -> String {
    let base = Primitive::ALL
        .map(|p| format!("{}={}", p.label(), active(p)))
        .join(" ");
    match env_request() {
        Some(Ok(t)) => format!("{base} ({ENV_VAR}={t})"),
        Some(Err(e)) => format!("{base} ({ENV_VAR} ignored: unknown tier '{}')", e.name),
        None => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for name in TIER_NAMES {
            let tier = HashTier::from_label(name).expect(name);
            assert_eq!(tier.label(), name);
            assert_eq!(HashTier::from_label(&name.to_uppercase()), Ok(tier));
        }
        assert_eq!(HashTier::from_label("shani"), Ok(HashTier::ShaNi));
        assert_eq!(HashTier::from_label("sha_ni"), Ok(HashTier::ShaNi));
        assert_eq!(HashTier::from_label(" avx-512 "), Ok(HashTier::Avx512));
    }

    #[test]
    fn unknown_tier_is_typed_and_lists_valid_names() {
        let err = HashTier::from_label("quantum").unwrap_err();
        assert_eq!(err.name, "quantum");
        let msg = err.to_string();
        for name in TIER_NAMES {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
    }

    #[test]
    fn ladders_end_in_scalar_and_resolve_supported() {
        for primitive in Primitive::ALL {
            assert_eq!(*ladder(primitive).last().unwrap(), HashTier::Scalar);
            let tiers = supported_tiers(primitive);
            assert!(tiers.contains(&HashTier::Scalar));
            for t in tiers {
                let (resolved, fell_back) = resolve(primitive, Some(t));
                assert_eq!(
                    resolved, t,
                    "{primitive:?} supported tier resolves to itself"
                );
                assert!(!fell_back);
            }
        }
    }

    #[test]
    fn unsupported_requests_fall_down_the_ladder() {
        // NEON is never supported on x86 (and vice versa); SHA-NI is
        // never in the Keccak ladder. Both must resolve to a supported
        // tier without panicking.
        for primitive in Primitive::ALL {
            for want in [
                HashTier::Neon,
                HashTier::ShaNi,
                HashTier::Avx512,
                HashTier::Avx2,
            ] {
                let (resolved, _) = resolve(primitive, Some(want));
                assert!(
                    supported(primitive, resolved),
                    "{primitive:?} {want:?} resolved to unsupported {resolved:?}"
                );
            }
        }
    }

    #[test]
    fn scalar_request_is_always_honored() {
        for primitive in Primitive::ALL {
            let (resolved, fell_back) = resolve(primitive, Some(HashTier::Scalar));
            assert_eq!(resolved, HashTier::Scalar);
            assert!(!fell_back);
        }
    }

    #[test]
    fn force_and_restore_round_trip() {
        let prev = force_tier(HashTier::Scalar);
        assert_eq!(active_tiers(), ActiveTiers([HashTier::Scalar; 3]));
        restore_tier(prev);
        assert_eq!(active_tiers(), prev);
    }

    #[test]
    fn description_names_every_primitive() {
        let d = description();
        for primitive in Primitive::ALL {
            assert!(d.contains(&format!("{}=", primitive.label())), "{d}");
        }
    }
}
