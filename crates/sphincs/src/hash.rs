//! Tweakable hash functions for the SHA-256 *simple* instantiation.
//!
//! All of SPHINCS+ is built from six functions (spec §7.2):
//!
//! * `F(pk_seed, adrs, m)` — one-block tweakable hash (WOTS+ chains, FORS leaves)
//! * `H(pk_seed, adrs, m1 || m2)` — two-to-one node hash
//! * `T_l(pk_seed, adrs, m1..ml)` — l-to-one compression (WOTS+ pk, FORS roots)
//! * `PRF(pk_seed, sk_seed, adrs)` — secret-key element derivation
//! * `PRF_msg(sk_prf, opt_rand, m)` — message randomizer
//! * `H_msg(r, pk_seed, pk_root, m)` — message digest + index derivation
//!
//! The `pk_seed` is absorbed once into a precomputed SHA-256 chaining state
//! ([`SeededHasher`]); every subsequent call costs exactly
//! `compressions_for_tail(len)` compressions. HERO-Sign's GPU kernels keep
//! this state in constant memory (§III-D of the paper).
//!
//! ## Batched calls
//!
//! The hot path never hashes one node at a time: [`HashCtx::f_many`],
//! [`HashCtx::h_many`] and [`HashCtx::prf_many`] advance up to
//! [`sha256::LANES`] independent calls per compression through the
//! multi-lane engine ([`crate::sha256::Sha256xN`]), every lane starting
//! from the same precomputed seed state. This is the CPU mirror of the
//! paper's warp-level batching: the GPU keeps one node per thread, we keep
//! one node per SIMD lane. All batch APIs are byte-identical to looping
//! the scalar calls (pinned by proptests), and the `_into`/`_many`
//! variants write into caller-provided buffers so a signing loop performs
//! no per-hash allocations.
//!
//! WOTS+ chains are the exception to "one call, one compression through
//! the engine": [`HashCtx::f_chains`] takes whole chains, and under
//! SHA-256 runs them — their `PRF` heads included — without leaving SIMD
//! registers between steps. FORS trees are the other one
//! ([`crate::fors::tree_hash_many`]), and batched verification the third
//! ([`crate::sign::VerifyingKey::verify_many`]).
//!
//! ## The SHAKE-256 instantiation
//!
//! [`HashAlg::Shake256`] follows the SPHINCS+-SHAKE *simple* construction
//! and is deliberately **asymmetric** to the SHA-2 path in two ways the
//! spec dictates (round-3 §7.2.1 vs §7.2.2):
//!
//! * **No compressed address.** SHAKE calls absorb the full 32-byte
//!   `ADRS`, not the 22-byte compressed form — the sponge has no 64-byte
//!   block boundary to squeeze under, so compression buys nothing.
//! * **No precomputed seed state.** Every call is
//!   `SHAKE256(pk_seed || ADRS || M, 8n)`: `pk_seed` is re-absorbed as
//!   ordinary message bytes because a SHAKE-128f `F` input
//!   (`16 + 32 + 16 = 64` bytes) sits mid-block — there is no chaining
//!   state to snapshot at a block boundary, unlike SHA-256 where
//!   `pk_seed || pad` fills exactly one compression block.
//!
//! One permutation still covers every `F`/`H`/`PRF` call (the longest
//! tail, `32 + 32 + 64 = 128` bytes for 256-bit `H`, fits one 136-byte
//! rate block), so the batched SHAKE path advances [`keccak::LANES`]
//! calls per multi-lane permutation ([`crate::keccak::KeccakxN`]) — the
//! same lane↔thread mapping as the SHA engine, and the same batching the
//! high-throughput GPU Dilithium/SPHINCS+ Keccak kernels use. `H_msg`
//! squeezes the index-derivation digest directly from the XOF; the
//! SHA-2 paths need the MGF1 expansion loop instead.
//!
//! ```
//! use hero_sphincs::{hash::{HashAlg, HashCtx}, params::Params, address::Address};
//! let params = Params::shake_128f();
//! let ctx = HashCtx::with_alg(params, &[0u8; 16], HashAlg::Shake256);
//! let out = ctx.f(&Address::new(), &[0u8; 16]);
//! assert_eq!(out.len(), 16);
//! ```

use crate::address::{Address, AddressType};
use crate::keccak::{self, KeccakxN, Shake256};
use crate::params::Params;
use crate::sha256::{self, Sha256, Sha256xN, BLOCK_LEN, LANES};
use crate::sha512::Sha512;

/// Compressed-address prefix length of every tweakable-hash tail.
const ADRS_LEN: usize = 22;

/// Full (uncompressed) address length, as the SHAKE instantiation
/// absorbs it.
const FULL_ADRS_LEN: usize = 32;

/// Per-lane scratch: the longest batched tail is `H`'s `22 + 2n ≤ 86`
/// bytes, which pads into at most two 64-byte blocks.
const LANE_BUF: usize = 2 * BLOCK_LEN;

/// The underlying hash primitive for the tweakable-hash layer.
///
/// The paper selects SHA-256 "due to its widespread adoption" but states
/// the optimizations "do not depend on \[a\] specific hash function" (§I);
/// every component layer (WOTS+, FORS, Merkle, hypertree) is generic over
/// this choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HashAlg {
    /// SHA-256 (the paper's baseline).
    #[default]
    Sha256,
    /// SHA-512 (the first alternative the paper names).
    Sha512,
    /// SHAKE-256 (FIPS 202) — the SPHINCS+-SHAKE half of the NIST
    /// parameter family. Uses the full 32-byte address and no
    /// precomputed seed state (see the module docs for the asymmetry).
    Shake256,
}

impl HashAlg {
    /// Every canonical label, in display order (the order error messages
    /// and usage text list them in).
    pub const NAMES: [&'static str; 3] = ["sha256", "sha512", "shake256"];

    /// The canonical label — the inverse of [`HashAlg::from_label`];
    /// used by key files, CLI output, and the wire protocol.
    pub const fn label(self) -> &'static str {
        match self {
            HashAlg::Sha256 => "sha256",
            HashAlg::Sha512 => "sha512",
            HashAlg::Shake256 => "shake256",
        }
    }

    /// Parses a label (case-insensitive; an optional dash before the
    /// width is accepted, e.g. `SHA-256`, `shake-256`).
    ///
    /// ```
    /// use hero_sphincs::hash::HashAlg;
    /// assert_eq!(HashAlg::from_label("Shake-256"), Some(HashAlg::Shake256));
    /// assert_eq!(HashAlg::from_label("md5"), None);
    /// ```
    pub fn from_label(label: &str) -> Option<Self> {
        match label.trim().to_ascii_lowercase().as_str() {
            "sha256" | "sha-256" => Some(HashAlg::Sha256),
            "sha512" | "sha-512" => Some(HashAlg::Sha512),
            "shake256" | "shake-256" => Some(HashAlg::Shake256),
            _ => None,
        }
    }
}

/// A hasher with the `pk_seed || pad` block pre-absorbed.
///
/// Cloning this and continuing is how every `F`/`H`/`T_l`/`PRF` call starts;
/// it mirrors the constant-memory seed state of the CUDA kernels.
#[derive(Clone, Debug)]
pub struct SeededHasher {
    state: [u32; 8],
}

impl SeededHasher {
    /// Absorbs `pk_seed` padded with zeros to one 64-byte block.
    pub fn new(pk_seed: &[u8]) -> Self {
        assert!(pk_seed.len() <= BLOCK_LEN, "seed longer than one block");
        let mut block = [0u8; BLOCK_LEN];
        block[..pk_seed.len()].copy_from_slice(pk_seed);
        let mut hasher = Sha256::new();
        hasher.update(&block);
        debug_assert_eq!(hasher.buffered_len(), 0);
        Self {
            state: hasher.state(),
        }
    }

    /// Starts a hash that has already absorbed the seed block.
    pub fn start(&self) -> Sha256 {
        Sha256::from_state(self.state, BLOCK_LEN as u64)
    }

    /// Number of compressions a call with `tail_len` further bytes costs
    /// (excluding the amortized seed block).
    pub fn compressions_for_tail(tail_len: usize) -> usize {
        sha256::compressions_for_len(BLOCK_LEN + tail_len) - 1
    }
}

/// Where a WOTS+ chain's first node comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainHead<'a> {
    /// The `n` bytes already in the chain's slot of `nodes`.
    Node,
    /// The chain's secret element, `PRF(prf_adrs, sk_seed)` under
    /// [`ChainJob::prf_adrs`], from this `n`-byte `sk_seed`: what the slot
    /// holds beforehand is not read.
    Secret(&'a [u8]),
}

/// One WOTS+ chain's work order for [`HashCtx::f_chains`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainJob<'a> {
    /// The chain's `F` address: type `WotsHash` with layer, tree, key
    /// pair and chain index set. Its hash index is not consulted.
    pub adrs: Address,
    /// The node `start` and `steps` count from.
    pub head: ChainHead<'a>,
    /// Hash index of the first step.
    pub start: u32,
    /// Number of `F` steps; 0 leaves the head as it is.
    pub steps: u32,
}

impl ChainJob<'_> {
    /// The `WotsPrf` address of the chain's secret element: the chain's
    /// coordinates under the other type, hash index zero.
    pub fn prf_adrs(&self) -> Address {
        let mut prf_adrs = self.adrs;
        prf_adrs.set_type(AddressType::WotsPrf);
        prf_adrs.set_keypair(self.adrs.keypair());
        prf_adrs.set_chain(self.adrs.chain());
        prf_adrs
    }
}

/// The tweakable hash context: parameters plus the seeded state.
///
/// ```
/// use hero_sphincs::{hash::HashCtx, params::Params, address::Address};
/// let params = Params::sphincs_128f();
/// let ctx = HashCtx::new(params, &[0u8; 16]);
/// let out = ctx.f(&Address::new(), &[0u8; 16]);
/// assert_eq!(out.len(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct HashCtx {
    params: Params,
    pk_seed: Vec<u8>,
    alg: HashAlg,
    seeded: SeededHasher,
    seeded512: [u64; 8],
}

impl HashCtx {
    /// Creates a SHA-256 context for `params` with the given `pk_seed`
    /// (`pk_seed.len()` must equal `params.n`).
    ///
    /// # Panics
    ///
    /// Panics if `pk_seed.len() != params.n`.
    pub fn new(params: Params, pk_seed: &[u8]) -> Self {
        Self::with_alg(params, pk_seed, HashAlg::Sha256)
    }

    /// Creates a context over an explicit hash primitive.
    ///
    /// # Panics
    ///
    /// Panics if `pk_seed.len() != params.n`.
    pub fn with_alg(params: Params, pk_seed: &[u8], alg: HashAlg) -> Self {
        assert_eq!(pk_seed.len(), params.n, "pk_seed must be n bytes");
        let seeded512 = {
            let mut block = [0u8; crate::sha512::BLOCK_LEN];
            block[..pk_seed.len()].copy_from_slice(pk_seed);
            let mut h = Sha512::new();
            h.update(&block);
            debug_assert_eq!(h.buffered_len(), 0);
            h.state()
        };
        Self {
            params,
            pk_seed: pk_seed.to_vec(),
            alg,
            seeded: SeededHasher::new(pk_seed),
            seeded512,
        }
    }

    /// The parameter set this context hashes for.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The hash primitive in use.
    pub fn alg(&self) -> HashAlg {
        self.alg
    }

    /// The SHA-256 state after the seed block, which the resident bodies
    /// start every call from; `None` under another primitive.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn sha256_seed_state(&self) -> Option<&[u32; 8]> {
        (self.alg == HashAlg::Sha256).then_some(&self.seeded.state)
    }

    /// Seeded tweakable hash over `adrs || parts…`, truncated to `n`.
    fn tweak(&self, adrs: &Address, parts: &[&[u8]]) -> Vec<u8> {
        let mut out = vec![0u8; self.params.n];
        self.tweak_into(adrs, parts, &mut out);
        out
    }

    /// [`HashCtx::tweak`] writing the `n`-byte result into `out` without
    /// allocating.
    fn tweak_into(&self, adrs: &Address, parts: &[&[u8]], out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.params.n);
        match self.alg {
            HashAlg::Sha256 => {
                let mut h = self.seeded.start();
                h.update(&adrs.to_compressed_bytes());
                for part in parts {
                    h.update(part);
                }
                out.copy_from_slice(&h.finalize()[..self.params.n]);
            }
            HashAlg::Sha512 => {
                let mut h = Sha512::from_state(self.seeded512, crate::sha512::BLOCK_LEN as u128);
                h.update(&adrs.to_compressed_bytes());
                for part in parts {
                    h.update(part);
                }
                out.copy_from_slice(&h.finalize()[..self.params.n]);
            }
            HashAlg::Shake256 => {
                // SHAKE256(pk_seed || ADRS || M, 8n): full address, no
                // seed state (module docs explain the asymmetry).
                let mut h = Shake256::new();
                h.update(&self.pk_seed);
                h.update(&adrs.to_bytes());
                for part in parts {
                    h.update(part);
                }
                h.finalize_into(out);
            }
        }
    }

    /// Lane buffers for tails of `tail_len` bytes following the seed
    /// block, padded once: the terminator, the zeros and the length sit
    /// after the tail and depend on nothing else, so a batch rewrites
    /// only bytes `[0, tail_len)` per call. Returns the block count too.
    fn padded_lanes(tail_len: usize) -> ([[u8; LANE_BUF]; LANES], usize) {
        let mut buf = [0u8; LANE_BUF];
        let nblocks = sha256::pad_in_place(&mut buf, tail_len, BLOCK_LEN as u64);
        ([buf; LANES], nblocks)
    }

    /// Compresses the first `nblocks` blocks of every lane buffer from the
    /// broadcast seed state.
    fn compress_lanes(&self, bufs: &[[u8; LANE_BUF]; LANES], nblocks: usize) -> Sha256xN {
        let mut mx = Sha256xN::broadcast(self.seeded.state);
        for b in 0..nblocks {
            let blocks: [&[u8; BLOCK_LEN]; LANES] = std::array::from_fn(|l| {
                bufs[l][b * BLOCK_LEN..(b + 1) * BLOCK_LEN]
                    .try_into()
                    .expect("block slice")
            });
            mx.compress(&blocks);
        }
        mx
    }

    /// SHA-256 batch core: call `i` hashes `adrs[i] || payload(i)` (all
    /// payloads `payload_len` bytes), writing `n`-byte digests to
    /// `out[i*n..]`. Lanes are processed [`LANES`] at a time; a partial
    /// final chunk repeats its last call in the unused lanes.
    fn tweak_many_256<'p>(
        &self,
        adrs: &[Address],
        payload_len: usize,
        payload: impl Fn(usize) -> &'p [u8],
        out: &mut [u8],
    ) {
        let n = self.params.n;
        let count = adrs.len();
        let tail_len = ADRS_LEN + payload_len;
        let (mut bufs, nblocks) = Self::padded_lanes(tail_len);
        let mut start = 0usize;
        while start < count {
            let lanes = LANES.min(count - start);
            for (l, buf) in bufs.iter_mut().enumerate() {
                let i = start + l.min(lanes - 1);
                buf[..ADRS_LEN].copy_from_slice(&adrs[i].to_compressed_bytes());
                buf[ADRS_LEN..tail_len].copy_from_slice(payload(i));
            }
            let mx = self.compress_lanes(&bufs, nblocks);
            for l in 0..lanes {
                let i = start + l;
                mx.digest_into(l, &mut out[i * n..(i + 1) * n]);
            }
            start += lanes;
        }
    }

    /// Fills one Keccak lane buffer with `pk_seed || ADRS || payload`
    /// and pads it to a single rate block, returning the tail length.
    fn fill_shake_lane(
        &self,
        buf: &mut [u8; keccak::RATE],
        adrs: &Address,
        payload: &[u8],
    ) -> usize {
        let n = self.params.n;
        let tail = n + FULL_ADRS_LEN + payload.len();
        debug_assert!(tail < keccak::RATE, "tail exceeds one rate block");
        buf[..n].copy_from_slice(&self.pk_seed);
        buf[n..n + FULL_ADRS_LEN].copy_from_slice(&adrs.to_bytes());
        buf[n + FULL_ADRS_LEN..tail].copy_from_slice(payload);
        keccak::pad_block_in_place(buf, tail);
        tail
    }

    /// SHAKE-256 batch core: call `i` hashes
    /// `pk_seed || adrs[i] || payload(i)` (all payloads `payload_len`
    /// bytes), writing `n`-byte digests to `out[i*n..]`. Every call fits
    /// one rate block (the longest tail is `n + 32 + 2n ≤ 128 < 136`
    /// bytes), so lanes advance [`keccak::LANES`] calls per multi-lane
    /// permutation; a partial final chunk repeats its last call in the
    /// unused lanes, exactly like the SHA engine's masked retirement.
    fn tweak_many_shake<'p>(
        &self,
        adrs: &[Address],
        payload: impl Fn(usize) -> &'p [u8],
        out: &mut [u8],
    ) {
        let n = self.params.n;
        let count = adrs.len();
        let mut bufs = [[0u8; keccak::RATE]; keccak::LANES];
        let mut start = 0usize;
        while start < count {
            let lanes = keccak::LANES.min(count - start);
            for (l, buf) in bufs.iter_mut().enumerate() {
                let i = start + l.min(lanes - 1);
                self.fill_shake_lane(buf, &adrs[i], payload(i));
            }
            let mut kx = KeccakxN::new();
            let refs: [&[u8; keccak::RATE]; keccak::LANES] = std::array::from_fn(|l| &bufs[l]);
            kx.absorb_blocks(&refs);
            for l in 0..lanes {
                let i = start + l;
                kx.squeeze_into(l, &mut out[i * n..(i + 1) * n]);
            }
            start += lanes;
        }
    }

    /// `F` over a batch: `out[i*n..] = F(adrs[i], msgs[i*n..])`.
    ///
    /// Byte-identical to calling [`HashCtx::f`] in a loop; the SHA-256
    /// path advances [`LANES`] calls per compression and the SHAKE-256
    /// path [`keccak::LANES`] calls per permutation.
    ///
    /// # Panics
    ///
    /// Panics if `msgs` or `out` is not `adrs.len() * n` bytes.
    pub fn f_many(&self, adrs: &[Address], msgs: &[u8], out: &mut [u8]) {
        let n = self.params.n;
        assert_eq!(msgs.len(), adrs.len() * n, "msgs must be count*n bytes");
        assert_eq!(out.len(), adrs.len() * n, "out must be count*n bytes");
        match self.alg {
            HashAlg::Sha256 => self.tweak_many_256(adrs, n, |i| &msgs[i * n..(i + 1) * n], out),
            HashAlg::Shake256 => self.tweak_many_shake(adrs, |i| &msgs[i * n..(i + 1) * n], out),
            HashAlg::Sha512 => {
                for (i, a) in adrs.iter().enumerate() {
                    let (m, o) = (&msgs[i * n..(i + 1) * n], &mut out[i * n..(i + 1) * n]);
                    self.tweak_into(a, &[m], o);
                }
            }
        }
    }

    /// In-place scatter variant of [`HashCtx::f_many`]: lane `j` reads
    /// node `buf[indices[j]*n..]` and overwrites it with
    /// `F(adrs[j], node)`. `indices` must be distinct.
    ///
    /// FORS leaves go from secret to leaf through it where the fused tree
    /// kernel has no body; whole WOTS+ chains go through
    /// [`HashCtx::f_chains`].
    ///
    /// # Panics
    ///
    /// Panics if `indices.len() != adrs.len()` or an index is out of
    /// bounds of `buf`.
    pub fn f_many_at(&self, adrs: &[Address], buf: &mut [u8], indices: &[usize]) {
        let n = self.params.n;
        let count = adrs.len();
        assert_eq!(indices.len(), count, "one index per address");
        match self.alg {
            HashAlg::Sha256 => {
                let tail_len = ADRS_LEN + n;
                let (mut bufs, nblocks) = Self::padded_lanes(tail_len);
                let mut start = 0usize;
                while start < count {
                    let lanes = LANES.min(count - start);
                    for (l, lane_buf) in bufs.iter_mut().enumerate() {
                        let j = start + l.min(lanes - 1);
                        let slot = indices[j] * n;
                        lane_buf[..ADRS_LEN].copy_from_slice(&adrs[j].to_compressed_bytes());
                        lane_buf[ADRS_LEN..tail_len].copy_from_slice(&buf[slot..slot + n]);
                    }
                    let mx = self.compress_lanes(&bufs, nblocks);
                    for l in 0..lanes {
                        let slot = indices[start + l] * n;
                        mx.digest_into(l, &mut buf[slot..slot + n]);
                    }
                    start += lanes;
                }
            }
            HashAlg::Shake256 => {
                let mut bufs = [[0u8; keccak::RATE]; keccak::LANES];
                let mut start = 0usize;
                while start < count {
                    let lanes = keccak::LANES.min(count - start);
                    for (l, lane_buf) in bufs.iter_mut().enumerate() {
                        let j = start + l.min(lanes - 1);
                        let slot = indices[j] * n;
                        // Reading straight from `buf` is safe: every
                        // lane of this chunk is filled before any lane
                        // squeezes back, and indices are distinct.
                        self.fill_shake_lane(lane_buf, &adrs[j], &buf[slot..slot + n]);
                    }
                    let mut kx = KeccakxN::new();
                    let refs: [&[u8; keccak::RATE]; keccak::LANES] =
                        std::array::from_fn(|l| &bufs[l]);
                    kx.absorb_blocks(&refs);
                    for l in 0..lanes {
                        let slot = indices[start + l] * n;
                        kx.squeeze_into(l, &mut buf[slot..slot + n]);
                    }
                    start += lanes;
                }
            }
            HashAlg::Sha512 => {
                let mut node = [0u8; 32];
                for (a, &idx) in adrs.iter().zip(indices) {
                    let slot = idx * n;
                    node[..n].copy_from_slice(&buf[slot..slot + n]);
                    self.tweak_into(a, &[&node[..n]], &mut buf[slot..slot + n]);
                }
            }
        }
    }

    /// Runs WOTS+ chains to completion: node `i` (`nodes[i*n..]`) becomes
    /// chain `i`'s head ([`ChainJob::head`]: the node itself, or the
    /// chain's secret element) advanced by `jobs[i].steps` calls of `F`,
    /// the `r`-th of them under `jobs[i].adrs` with hash index
    /// `jobs[i].start + r` — byte-identical to [`crate::reference::wots_sk`]
    /// and [`crate::reference::chain`] per node.
    ///
    /// This is the one entry point to WOTS+ chains. Under SHA-256, on a
    /// CPU the chain kernel has a body for
    /// ([`crate::tier::sha256_chain_tier`] above `scalar`), the chains
    /// stay in SIMD registers from their heads — `PRF` included — to
    /// their last step. Everything else — SHAKE-256, SHA-512, the
    /// `scalar` rung — derives the secret heads with [`HashCtx::prf_many`]
    /// and advances all live chains one [`HashCtx::f_many_at`] round at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not `jobs.len() * n` bytes, or an `sk_seed`
    /// not `n`.
    pub fn f_chains(&self, nodes: &mut [u8], jobs: &[ChainJob]) {
        self.f_chains_in(nodes, jobs, &mut Vec::new(), &mut Vec::new());
    }

    /// [`HashCtx::f_chains`] in the caller's round lists — the address
    /// and the slot of every live chain of a round — which a
    /// verification group's sweep keeps from layer to layer.
    pub(crate) fn f_chains_in(
        &self,
        nodes: &mut [u8],
        jobs: &[ChainJob],
        adrs: &mut Vec<Address>,
        live: &mut Vec<usize>,
    ) {
        let n = self.params.n;
        assert_eq!(nodes.len(), jobs.len() * n, "nodes must be count*n bytes");
        #[cfg(target_arch = "x86_64")]
        if self.alg == HashAlg::Sha256 {
            if let Some(mut kernel) = crate::chain::Kernel::active(n) {
                return crate::chain::run_in_place(&mut kernel, &self.seeded.state, nodes, jobs);
            }
        }
        adrs.clear();
        adrs.reserve(jobs.len());
        live.clear();
        live.reserve(jobs.len());
        // Runs of chains under one `sk_seed` (a call's are, as a rule, one
        // run) derive their heads in one sweep.
        let mut first = 0usize;
        for run in jobs.chunk_by(|a, b| a.head == b.head) {
            if let ChainHead::Secret(sk_seed) = run[0].head {
                adrs.clear();
                adrs.extend(run.iter().map(ChainJob::prf_adrs));
                let heads = &mut nodes[first * n..(first + run.len()) * n];
                self.prf_many(adrs, sk_seed, heads);
            }
            first += run.len();
        }
        let rounds = jobs.iter().map(|job| job.steps).max().unwrap_or(0);
        for round in 0..rounds {
            adrs.clear();
            live.clear();
            for (i, job) in jobs.iter().enumerate() {
                if round < job.steps {
                    let mut a = job.adrs;
                    a.set_hash(job.start + round);
                    adrs.push(a);
                    live.push(i);
                }
            }
            self.f_many_at(adrs, nodes, live);
        }
    }

    /// `H` over a batch of sibling pairs: `out[i*n..] =
    /// H(adrs[i], pairs[2i*n..], pairs[(2i+1)*n..])`.
    ///
    /// This is one Merkle level: `pairs` holds the level's nodes
    /// contiguously (`2·count` nodes) and `out` receives the parents.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is not `2*count*n` bytes or `out` not `count*n`.
    pub fn h_many(&self, adrs: &[Address], pairs: &[u8], out: &mut [u8]) {
        let n = self.params.n;
        let count = adrs.len();
        assert_eq!(pairs.len(), count * 2 * n, "pairs must be 2*count*n bytes");
        assert_eq!(out.len(), count * n, "out must be count*n bytes");
        match self.alg {
            HashAlg::Sha256 => {
                self.tweak_many_256(adrs, 2 * n, |i| &pairs[2 * i * n..(2 * i + 2) * n], out)
            }
            HashAlg::Shake256 => {
                self.tweak_many_shake(adrs, |i| &pairs[2 * i * n..(2 * i + 2) * n], out)
            }
            HashAlg::Sha512 => {
                for (i, a) in adrs.iter().enumerate() {
                    let pair = &pairs[2 * i * n..(2 * i + 2) * n];
                    self.tweak_into(a, &[pair], &mut out[i * n..(i + 1) * n]);
                }
            }
        }
    }

    /// `PRF` over a batch of addresses sharing one `sk_seed`:
    /// `out[i*n..] = PRF(adrs[i], sk_seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `adrs.len() * n` bytes or `sk_seed` not `n`.
    pub fn prf_many(&self, adrs: &[Address], sk_seed: &[u8], out: &mut [u8]) {
        let n = self.params.n;
        assert_eq!(sk_seed.len(), n, "sk_seed must be n bytes");
        assert_eq!(out.len(), adrs.len() * n, "out must be count*n bytes");
        match self.alg {
            HashAlg::Sha256 => self.tweak_many_256(adrs, n, |_| sk_seed, out),
            HashAlg::Shake256 => self.tweak_many_shake(adrs, |_| sk_seed, out),
            HashAlg::Sha512 => {
                for (i, a) in adrs.iter().enumerate() {
                    self.tweak_into(a, &[sk_seed], &mut out[i * n..(i + 1) * n]);
                }
            }
        }
    }

    fn truncated(&self, digest: [u8; 32]) -> Vec<u8> {
        digest[..self.params.n].to_vec()
    }

    /// `F`: one-block tweakable hash of a single `n`-byte value.
    pub fn f(&self, adrs: &Address, m: &[u8]) -> Vec<u8> {
        debug_assert_eq!(m.len(), self.params.n);
        self.tweak(adrs, &[m])
    }

    /// [`HashCtx::f`] writing the `n`-byte result into `out`.
    pub fn f_into(&self, adrs: &Address, m: &[u8], out: &mut [u8]) {
        debug_assert_eq!(m.len(), self.params.n);
        self.tweak_into(adrs, &[m], out);
    }

    /// `H`: two-to-one hash of sibling nodes.
    pub fn h(&self, adrs: &Address, left: &[u8], right: &[u8]) -> Vec<u8> {
        debug_assert_eq!(left.len(), self.params.n);
        debug_assert_eq!(right.len(), self.params.n);
        self.tweak(adrs, &[left, right])
    }

    /// [`HashCtx::h`] writing the `n`-byte result into `out`.
    pub fn h_into(&self, adrs: &Address, left: &[u8], right: &[u8], out: &mut [u8]) {
        debug_assert_eq!(left.len(), self.params.n);
        debug_assert_eq!(right.len(), self.params.n);
        self.tweak_into(adrs, &[left, right], out);
    }

    /// `T_l`: compresses `l` concatenated `n`-byte values (WOTS+ public key,
    /// FORS roots).
    pub fn t_l(&self, adrs: &Address, parts: &[&[u8]]) -> Vec<u8> {
        #[cfg(debug_assertions)]
        for part in parts {
            debug_assert_eq!(part.len(), self.params.n);
        }
        self.tweak(adrs, parts)
    }

    /// `T_l` over one flat `l*n`-byte buffer of concatenated parts,
    /// writing the result into `out` (the batch-era spelling: WOTS+ chain
    /// ends and FORS roots already live in flat node buffers).
    pub fn t_l_flat_into(&self, adrs: &Address, parts: &[u8], out: &mut [u8]) {
        debug_assert!(parts.len().is_multiple_of(self.params.n));
        self.tweak_into(adrs, &[parts], out);
    }

    /// `PRF`: derives a secret element from `sk_seed` at `adrs`.
    ///
    /// Computes `Hash(pk_seed || pad || adrs_c || sk_seed)`; keeping
    /// `sk_seed` last means the seeded state is reused here too.
    pub fn prf(&self, adrs: &Address, sk_seed: &[u8]) -> Vec<u8> {
        debug_assert_eq!(sk_seed.len(), self.params.n);
        self.tweak(adrs, &[sk_seed])
    }

    /// [`HashCtx::prf`] writing the `n`-byte result into `out`.
    pub fn prf_into(&self, adrs: &Address, sk_seed: &[u8], out: &mut [u8]) {
        debug_assert_eq!(sk_seed.len(), self.params.n);
        self.tweak_into(adrs, &[sk_seed], out);
    }

    /// `PRF_msg`: message randomizer `r = PRF(sk_prf, opt_rand, m)`.
    pub fn prf_msg(&self, sk_prf: &[u8], opt_rand: &[u8], m: &[u8]) -> Vec<u8> {
        match self.alg {
            HashAlg::Sha256 => {
                let mut h = Sha256::new();
                h.update(sk_prf);
                h.update(opt_rand);
                h.update(m);
                self.truncated(h.finalize())
            }
            HashAlg::Sha512 => {
                let mut h = Sha512::new();
                h.update(sk_prf);
                h.update(opt_rand);
                h.update(m);
                h.finalize()[..self.params.n].to_vec()
            }
            HashAlg::Shake256 => {
                let mut h = Shake256::new();
                h.update(sk_prf);
                h.update(opt_rand);
                h.update(m);
                let mut out = vec![0u8; self.params.n];
                h.finalize_into(&mut out);
                out
            }
        }
    }

    /// `H_msg`: the index-derivation digest (spec §7.2.1).
    ///
    /// The SHA-2 instantiations compute
    /// `MGF1(r || Hash(r || pk_seed || pk_root || m))` because a
    /// fixed-width hash must be expanded to the digest length; SHAKE-256
    /// squeezes `SHAKE256(r || pk_seed || pk_root || m)` to the full
    /// length directly — an XOF needs no MGF1 loop.
    pub fn h_msg(&self, r: &[u8], pk_root: &[u8], m: &[u8]) -> Vec<u8> {
        let digest: Vec<u8> = match self.alg {
            HashAlg::Sha256 => {
                let mut h = Sha256::new();
                h.update(r);
                h.update(&self.pk_seed);
                h.update(pk_root);
                h.update(m);
                h.finalize().to_vec()
            }
            HashAlg::Sha512 => {
                let mut h = Sha512::new();
                h.update(r);
                h.update(&self.pk_seed);
                h.update(pk_root);
                h.update(m);
                h.finalize().to_vec()
            }
            HashAlg::Shake256 => {
                let mut h = Shake256::new();
                h.update(r);
                h.update(&self.pk_seed);
                h.update(pk_root);
                h.update(m);
                let mut out = vec![0u8; self.params.digest_bytes()];
                h.finalize_into(&mut out);
                return out;
            }
        };
        let mut seed = Vec::with_capacity(r.len() + digest.len());
        seed.extend_from_slice(r);
        seed.extend_from_slice(&digest);
        sha256::mgf1(&seed, self.params.digest_bytes())
    }
}

impl SeededHasher {
    /// The precomputed chaining state (the GPU kernels' constant-memory
    /// image of `pk_seed || pad`).
    pub fn state(&self) -> [u32; 8] {
        self.state
    }
}

/// Splits an `H_msg` digest into FORS indices material, hypertree index and
/// leaf index (spec Algorithm 20 lines 5-9).
///
/// Returns `(md, tree_idx, leaf_idx)` where `md` is the first
/// `ceil(k·log_t/8)` bytes used by [`crate::fors::message_to_indices`].
pub fn split_digest(params: &Params, digest: &[u8]) -> (Vec<u8>, u64, u32) {
    let md_len = (params.k * params.log_t).div_ceil(8);
    let tree_bits = params.h - params.tree_height();
    let tree_len = tree_bits.div_ceil(8);
    let leaf_bits = params.tree_height();
    let leaf_len = leaf_bits.div_ceil(8);
    assert!(
        digest.len() >= md_len + tree_len + leaf_len,
        "digest too short"
    );

    let md = digest[..md_len].to_vec();

    let mut tree_idx: u64 = 0;
    for &b in &digest[md_len..md_len + tree_len] {
        tree_idx = (tree_idx << 8) | b as u64;
    }
    if tree_bits < 64 {
        tree_idx &= (1u64 << tree_bits) - 1;
    }

    let mut leaf_idx: u32 = 0;
    for &b in &digest[md_len + tree_len..md_len + tree_len + leaf_len] {
        leaf_idx = (leaf_idx << 8) | b as u32;
    }
    leaf_idx &= (1u32 << leaf_bits) - 1;

    (md, tree_idx, leaf_idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx128() -> HashCtx {
        HashCtx::new(Params::sphincs_128f(), &[7u8; 16])
    }

    #[test]
    fn f_output_is_n_bytes_and_deterministic() {
        let ctx = ctx128();
        let mut a = Address::new();
        a.set_type(AddressType::WotsHash);
        let m = [1u8; 16];
        let out1 = ctx.f(&a, &m);
        let out2 = ctx.f(&a, &m);
        assert_eq!(out1.len(), 16);
        assert_eq!(out1, out2);
    }

    #[test]
    fn f_separates_addresses_and_seeds() {
        let ctx = ctx128();
        let ctx2 = HashCtx::new(Params::sphincs_128f(), &[8u8; 16]);
        let mut a = Address::new();
        a.set_type(AddressType::WotsHash);
        let mut b = a;
        b.set_hash(1);
        let m = [1u8; 16];
        assert_ne!(ctx.f(&a, &m), ctx.f(&b, &m));
        assert_ne!(ctx.f(&a, &m), ctx2.f(&a, &m));
    }

    #[test]
    fn h_differs_from_f_on_same_material() {
        let ctx = ctx128();
        let a = Address::new();
        let m = [3u8; 16];
        let hh = ctx.h(&a, &m, &m);
        let ff = ctx.f(&a, &m);
        assert_ne!(hh, ff[..].to_vec());
    }

    #[test]
    fn t_l_matches_h_for_two_parts() {
        // T_2 and H absorb identical bytes, so they must agree: this pins
        // the encoding.
        let ctx = ctx128();
        let a = Address::new();
        let l = [1u8; 16];
        let r = [2u8; 16];
        assert_eq!(ctx.h(&a, &l, &r), ctx.t_l(&a, &[&l, &r]));
    }

    #[test]
    fn single_compression_for_f_all_sets() {
        // The cost-model assumption: F costs exactly one compression after
        // the seed block, for every parameter set.
        for p in Params::fast_sets() {
            let tail = 22 + p.n; // compressed adrs + message
            assert_eq!(
                SeededHasher::compressions_for_tail(tail),
                1,
                "{}: F must be single-compression",
                p.name()
            );
        }
    }

    #[test]
    fn h_compression_counts() {
        // H absorbs 22 + 2n bytes: 1 compression for n=16, 2 for n=24/32.
        assert_eq!(SeededHasher::compressions_for_tail(22 + 32), 1);
        assert_eq!(SeededHasher::compressions_for_tail(22 + 48), 2);
        assert_eq!(SeededHasher::compressions_for_tail(22 + 64), 2);
    }

    #[test]
    fn h_msg_length_and_determinism() {
        for p in Params::fast_sets() {
            let ctx = HashCtx::new(p, &vec![5u8; p.n]);
            let d = ctx.h_msg(&vec![1u8; p.n], &vec![2u8; p.n], b"message");
            assert_eq!(d.len(), p.digest_bytes());
            assert_eq!(d, ctx.h_msg(&vec![1u8; p.n], &vec![2u8; p.n], b"message"));
            assert_ne!(d, ctx.h_msg(&vec![1u8; p.n], &vec![2u8; p.n], b"messagf"));
        }
    }

    #[test]
    fn split_digest_ranges() {
        for p in Params::fast_sets() {
            let ctx = HashCtx::new(p, &vec![5u8; p.n]);
            let d = ctx.h_msg(&vec![1u8; p.n], &vec![2u8; p.n], b"m");
            let (md, tree, leaf) = split_digest(&p, &d);
            assert_eq!(md.len(), (p.k * p.log_t).div_ceil(8));
            let tree_bits = p.h - p.tree_height();
            if tree_bits < 64 {
                assert!(tree < (1u64 << tree_bits));
            }
            assert!((leaf as usize) < p.subtree_leaves());
        }
    }

    #[test]
    fn sha512_context_works_end_to_end_per_primitive() {
        // Every tweakable hash works under SHA-512 with the same n-byte
        // interface, and outputs differ from SHA-256's.
        for p in Params::fast_sets() {
            let seed = vec![5u8; p.n];
            let c256 = HashCtx::with_alg(p, &seed, HashAlg::Sha256);
            let c512 = HashCtx::with_alg(p, &seed, HashAlg::Sha512);
            assert_eq!(c512.alg(), HashAlg::Sha512);
            let a = Address::new();
            let m = vec![9u8; p.n];
            let f256 = c256.f(&a, &m);
            let f512 = c512.f(&a, &m);
            assert_eq!(f512.len(), p.n);
            assert_ne!(f256, f512, "{}", p.name());
            assert_ne!(c256.h(&a, &m, &m), c512.h(&a, &m, &m));
            assert_ne!(c256.prf_msg(&seed, &m, b"x"), c512.prf_msg(&seed, &m, b"x"));
            let d512 = c512.h_msg(&m, &seed, b"msg");
            assert_eq!(d512.len(), p.digest_bytes());
        }
    }

    #[test]
    fn sha512_t2_matches_h() {
        let p = Params::sphincs_128f();
        let ctx = HashCtx::with_alg(p, &[7u8; 16], HashAlg::Sha512);
        let a = Address::new();
        let l = [1u8; 16];
        let r = [2u8; 16];
        assert_eq!(ctx.h(&a, &l, &r), ctx.t_l(&a, &[&l, &r]));
    }

    #[test]
    fn shake256_context_works_end_to_end_per_primitive() {
        // Every tweakable hash works under SHAKE-256 with the same n-byte
        // interface, and outputs differ from both SHA paths.
        for p in Params::fast_sets() {
            let seed = vec![5u8; p.n];
            let c256 = HashCtx::with_alg(p, &seed, HashAlg::Sha256);
            let shake = HashCtx::with_alg(p, &seed, HashAlg::Shake256);
            assert_eq!(shake.alg(), HashAlg::Shake256);
            let a = Address::new();
            let m = vec![9u8; p.n];
            let f = shake.f(&a, &m);
            assert_eq!(f.len(), p.n);
            assert_ne!(f, c256.f(&a, &m), "{}", p.name());
            assert_ne!(shake.h(&a, &m, &m), c256.h(&a, &m, &m));
            assert_ne!(
                shake.prf_msg(&seed, &m, b"x"),
                c256.prf_msg(&seed, &m, b"x")
            );
            let d = shake.h_msg(&m, &seed, b"msg");
            assert_eq!(d.len(), p.digest_bytes());
            assert_ne!(d, c256.h_msg(&m, &seed, b"msg"));
        }
    }

    #[test]
    fn shake256_tweak_pins_spec_construction() {
        // The scalar SHAKE thash must be exactly
        // SHAKE256(pk_seed || ADRS(32 bytes) || M, 8n) — full address,
        // no compression, no seed state.
        use crate::keccak::Shake256;
        let p = Params::sphincs_128f();
        let pk_seed = [7u8; 16];
        let ctx = HashCtx::with_alg(p, &pk_seed, HashAlg::Shake256);
        let mut a = Address::new();
        a.set_type(AddressType::WotsHash);
        a.set_chain(3);
        let m = [9u8; 16];
        let mut reference = Vec::new();
        reference.extend_from_slice(&pk_seed);
        reference.extend_from_slice(&a.to_bytes());
        reference.extend_from_slice(&m);
        assert_eq!(ctx.f(&a, &m), Shake256::digest(&reference, 16));
    }

    #[test]
    fn shake256_t2_matches_h() {
        let p = Params::sphincs_128f();
        let ctx = HashCtx::with_alg(p, &[7u8; 16], HashAlg::Shake256);
        let a = Address::new();
        let l = [1u8; 16];
        let r = [2u8; 16];
        assert_eq!(ctx.h(&a, &l, &r), ctx.t_l(&a, &[&l, &r]));
    }

    #[test]
    fn batch_apis_match_scalar_for_both_algs() {
        for alg in [HashAlg::Sha256, HashAlg::Sha512, HashAlg::Shake256] {
            for p in Params::fast_sets() {
                let n = p.n;
                let ctx = HashCtx::with_alg(p, &vec![5u8; n], alg);
                let count = 13; // deliberately not a multiple of LANES
                let adrs: Vec<Address> = (0..count as u32)
                    .map(|i| {
                        let mut a = Address::new();
                        a.set_type(AddressType::WotsHash);
                        a.set_chain(i);
                        a.set_hash(i * 3);
                        a
                    })
                    .collect();
                let msgs: Vec<u8> = (0..count * n).map(|i| (i % 251) as u8).collect();
                let pairs: Vec<u8> = (0..count * 2 * n).map(|i| (i % 241) as u8).collect();
                let sk_seed = vec![9u8; n];

                let mut out = vec![0u8; count * n];
                ctx.f_many(&adrs, &msgs, &mut out);
                for i in 0..count {
                    assert_eq!(
                        out[i * n..(i + 1) * n],
                        ctx.f(&adrs[i], &msgs[i * n..(i + 1) * n])[..],
                        "{alg:?} {} f lane {i}",
                        p.name()
                    );
                }

                ctx.h_many(&adrs, &pairs, &mut out);
                for i in 0..count {
                    let l = &pairs[2 * i * n..(2 * i + 1) * n];
                    let r = &pairs[(2 * i + 1) * n..(2 * i + 2) * n];
                    assert_eq!(
                        out[i * n..(i + 1) * n],
                        ctx.h(&adrs[i], l, r)[..],
                        "{alg:?} {} h lane {i}",
                        p.name()
                    );
                }

                ctx.prf_many(&adrs, &sk_seed, &mut out);
                for i in 0..count {
                    assert_eq!(
                        out[i * n..(i + 1) * n],
                        ctx.prf(&adrs[i], &sk_seed)[..],
                        "{alg:?} {} prf lane {i}",
                        p.name()
                    );
                }

                // In-place scatter F over a permuted index set.
                let mut buf = msgs.clone();
                let indices: Vec<usize> = (0..count).rev().collect();
                ctx.f_many_at(&adrs, &mut buf, &indices);
                for (j, &idx) in indices.iter().enumerate() {
                    assert_eq!(
                        buf[idx * n..(idx + 1) * n],
                        ctx.f(&adrs[j], &msgs[idx * n..(idx + 1) * n])[..],
                        "{alg:?} {} f_at lane {j}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn into_variants_match_vec_apis() {
        let ctx = ctx128();
        let mut a = Address::new();
        a.set_type(AddressType::WotsHash);
        let m = [1u8; 16];
        let r = [2u8; 16];
        let mut out = [0u8; 16];
        ctx.f_into(&a, &m, &mut out);
        assert_eq!(out[..], ctx.f(&a, &m)[..]);
        ctx.h_into(&a, &m, &r, &mut out);
        assert_eq!(out[..], ctx.h(&a, &m, &r)[..]);
        ctx.prf_into(&a, &m, &mut out);
        assert_eq!(out[..], ctx.prf(&a, &m)[..]);
        let mut flat = [0u8; 32];
        flat[..16].copy_from_slice(&m);
        flat[16..].copy_from_slice(&r);
        ctx.t_l_flat_into(&a, &flat, &mut out);
        assert_eq!(out[..], ctx.t_l(&a, &[&m, &r])[..]);
    }

    #[test]
    fn prf_msg_depends_on_all_inputs() {
        let ctx = ctx128();
        let base = ctx.prf_msg(&[1; 16], &[2; 16], b"m");
        assert_ne!(base, ctx.prf_msg(&[3; 16], &[2; 16], b"m"));
        assert_ne!(base, ctx.prf_msg(&[1; 16], &[3; 16], b"m"));
        assert_ne!(base, ctx.prf_msg(&[1; 16], &[2; 16], b"n"));
        assert_eq!(base.len(), 16);
    }
}
