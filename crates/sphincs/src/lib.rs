//! # hero-sphincs
//!
//! A from-scratch implementation of the SPHINCS+ stateless hash-based
//! signature scheme (SHA-256 *simple* instantiation), the substrate of
//! the [HERO-Sign](https://arxiv.org/abs/2512.23969) GPU reproduction.
//!
//! ## Two implementations, each whole
//!
//! * **The one that ships** — [`sign::SigningKey::sign`],
//!   [`sign::VerifyingKey::verify`] / [`sign::VerifyingKey::verify_many`]
//!   and the `*_many` routines of [`wots`], [`fors`], [`merkle`] and
//!   [`hypertree`] beneath them: every stage takes many independent work
//!   items per call and packs them into SIMD lanes. A signature is one
//!   list of work items per stage ([`sign::Stages`]): a single signature
//!   runs each list in one call, and `hero-sign`'s batch planner cuts
//!   many messages' lists into nodes of the same stage functions.
//! * **[`mod@reference`]** — the scheme as the specification writes it, one
//!   `F` / `H` / `T_l` / `PRF` call at a time, sign and verify. It shares
//!   nothing with the lanes and nothing above calls it; it exists so that
//!   "byte-identical" is a statement about two implementations. Tests
//!   hold every `*_many` routine and every lane-resident body to it, and
//!   it to digests pinned when the repository was seeded.
//!
//! The crate exposes every layer the paper parallelizes:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 with an exposed compression function,
//!   resumable chaining state (the kernels' constant-memory seed state),
//!   and the multi-lane [`sha256::Sha256xN`] engine.
//! * [`keccak`] — FIPS 202 Keccak-f\[1600\] and SHAKE-256 with the
//!   multi-lane [`keccak::KeccakxN`] engine (the SPHINCS+-SHAKE family).
//! * [`params`] — Table I parameter sets, plus their `shake_*` twins.
//! * [`address`] — the ADRS hash-addressing scheme.
//! * [`hash`] — the tweakable hashes `F`, `H`, `T_l`, `PRF`, `PRF_msg`,
//!   `H_msg`, each in scalar, into-buffer, and batched (`*_many`) form,
//!   instantiated over SHA-256, SHA-512 or SHAKE-256
//!   ([`hash::HashAlg`]).
//! * [`wots`] — WOTS+ chains (chain-level parallelism; a call's chains
//!   run from their secret elements to completion resident in SIMD
//!   lanes, [`hash::HashCtx::f_chains`], and a public key is made in one
//!   lane from its first `PRF` to its `T_len`, [`wots::pk_gen_many`]).
//! * [`fors`] — the forest of random subsets (tree-level parallelism,
//!   the target of HERO-Sign's FORS Fusion; a register group builds one
//!   whole tree per lane, [`fors::tree_hash_many`]).
//! * [`merkle`] — tree hashing with authentication paths (the reduction
//!   of Fig. 7, levels halved in place over one flat buffer).
//! * [`hypertree`] — the `d`-layer hypertree (`TREE_Sign`'s workload).
//! * [`Nodes`] — a node list in one buffer: every WOTS+ signature and
//!   authentication path a signature carries.
//! * [`sign`] — keygen / sign / verify.
//! * [`mod@reference`] — the scalar second implementation (above).
//! * [`tier`] — the runtime ISA ladder (scalar → AVX2 → SHA-NI /
//!   AVX-512 / NEON) that picks the fastest hash core, and the body of
//!   the lane-resident kernels, once per process, overridable via
//!   `HERO_HASH_TIER`.
//!
//! ## Lanes as threads
//!
//! HERO-Sign fills GPU warps with independent hash nodes; this crate
//! fills SIMD lanes the same way. Every structure-level independence the
//! paper exploits (WOTS+ chains, FORS leaves and trees, Merkle siblings)
//! is expressed through the batch APIs in [`hash`]: the SHA-256 engine
//! starts all [`sha256::LANES`] lanes from the one precomputed `pk_seed`
//! state and runs the compression rounds in lockstep, and the SHAKE-256
//! engine advances [`keccak::LANES`] sponges per permutation — the CPU
//! shape of the paper's warp batching and of its Table 10 AVX2 baseline.
//! How work is packed never changes a byte: the batched routines are
//! held to [`mod@reference`] by proptest under every ISA tier.
//!
//! ## Quickstart
//!
//! This crate is the *substrate*: validated parameters, keygen, signing
//! and verification, and wire-format round-trips. Higher layers build on
//! it — the `hero-sign` crate drives the same stages from its batch
//! planner (the `HeroSigner` engine), and its tests hold that to
//! [`mod@reference`].
//!
//! ```
//! use hero_sphincs::{params::Params, sign, Signature};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), hero_sphincs::sign::SignError> {
//! // A reduced parameter set keeps doc tests fast; production use would
//! // pick Params::sphincs_128f() etc. Custom shapes must validate.
//! let mut params = Params::sphincs_128f();
//! params.h = 6;
//! params.d = 3;
//! params.log_t = 4;
//! params.k = 8;
//! params.validate().map_err(hero_sphincs::sign::SignError::InvalidParams)?;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let (sk, vk) = sign::keygen(params, &mut rng)?;
//! let sig = sk.sign(b"attack at dawn");
//! vk.verify(b"attack at dawn", &sig)?;
//! // The scalar reference produces and accepts the same bytes.
//! assert_eq!(hero_sphincs::reference::sign(&sk, b"attack at dawn"), sig);
//!
//! // Signatures round-trip through the fixed-size wire format.
//! let parsed = Signature::from_bytes(&params, &sig.to_bytes(&params))?;
//! assert_eq!(parsed, sig);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod address;
#[cfg(target_arch = "x86_64")]
mod ascent;
#[cfg(target_arch = "x86_64")]
mod chain;
#[cfg(target_arch = "x86_64")]
mod forest;
pub mod fors;
pub mod hash;
pub mod hypertree;
pub mod keccak;
#[cfg(target_arch = "x86_64")]
mod lanes;
#[cfg(target_arch = "x86_64")]
mod leaf;
pub mod merkle;
mod nodes;
pub mod params;
pub mod reference;
pub mod sha256;
pub mod sha512;
pub mod sign;
pub mod tier;
pub mod wots;

pub use hash::HashAlg;
pub use nodes::Nodes;
pub use params::Params;
pub use sign::{
    keygen, keygen_from_seeds, keygen_from_seeds_with_alg, keygen_with_alg, Signature, SigningKey,
    VerifyingKey,
};
