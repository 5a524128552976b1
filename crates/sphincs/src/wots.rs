//! WOTS+ (Winternitz One-Time Signature Plus).
//!
//! A WOTS+ key is `len` hash chains of length `w`; a signature reveals one
//! intermediate node per chain, positioned by the base-`w` digits of the
//! message plus a checksum (§II-A1 of the paper). Chains are mutually
//! independent — the property HERO-Sign's `WOTS+_Sign` kernel exploits with
//! chain-level thread parallelism.
//!
//! On CPU the same independence is exploited across SIMD lanes: the
//! chains of a batch of requests ([`sign_many`], [`pk_from_sig_many`])
//! live in one flat `n`-stride buffer and run to completion through
//! [`HashCtx::f_chains`], the way this crate walks a chain outside of the
//! step-by-step [`crate::reference::chain`] its tests hold it to. The
//! chain step is whatever primitive the [`HashCtx`] carries. Under SHA-256 the two sides that work on whole
//! keys stay in the lanes beyond the chains. Public keys ([`pk_gen_many`]:
//! every subtree fill, which is most of a signature) are made a key pair
//! to a lane, from the first `PRF` through `len` full chains to `T_len`,
//! and no chain of theirs is ever a job or a byte. Batched verification
//! hands the chain kernel the signatures themselves and takes the chain
//! ends transposed, a signature per lane, as `T_len` absorbs them
//! ([`crate::hypertree::xmss_pk_from_sig_many`]).
//!
//! ```
//! use hero_sphincs::{address::Address, hash::HashCtx, params::Params, wots};
//!
//! let params = Params::sphincs_128f();
//! let ctx = HashCtx::new(params, &[0u8; 16]);
//! let sk_seed = [1u8; 16];
//! let mut adrs = Address::new();
//! adrs.set_keypair(3);
//!
//! let mut pk = [0u8; 16];
//! wots::pk_gen_many(&ctx, &sk_seed, &[adrs], &mut pk);
//! let sigs = wots::sign_many(&ctx, &[&[7u8; 16]], &sk_seed, &[adrs]);
//! // Verification recomputes the public key by finishing the chains.
//! let recovered = wots::pk_from_sig_many(&ctx, &[&sigs[0]], &[&[7u8; 16]], &[adrs]);
//! assert_eq!(recovered[0], pk);
//! ```

use crate::address::{Address, AddressType};
#[cfg(target_arch = "x86_64")]
use crate::chain;
use crate::hash::{ChainHead, ChainJob, HashCtx};
#[cfg(target_arch = "x86_64")]
use crate::lanes::{chain_words, move_words, Row, ADRS_WORDS, MAX_NODE_WORDS};
#[cfg(target_arch = "x86_64")]
use crate::leaf;
use crate::params::Params;

/// Converts `msg` into `out_len` base-`w` digits (spec Algorithm 1).
///
/// # Panics
///
/// Panics if `msg` has fewer bits than `out_len` digits require.
pub fn base_w(params: &Params, msg: &[u8], out_len: usize) -> Vec<u32> {
    let log_w = params.log_w();
    assert!(
        msg.len() * 8 >= out_len * log_w,
        "message too short: {} bits for {} digits of {} bits",
        msg.len() * 8,
        out_len,
        log_w
    );
    let mut out = Vec::with_capacity(out_len);
    let mut bits: u32 = 0;
    let mut acc: u32 = 0;
    let mut idx = 0usize;
    for _ in 0..out_len {
        if bits < log_w as u32 {
            acc = (acc << 8) | msg[idx] as u32;
            idx += 1;
            bits += 8;
        }
        bits -= log_w as u32;
        out.push((acc >> bits) & (params.w as u32 - 1));
    }
    out
}

/// Computes the WOTS+ checksum digits for message digits `msg_w`
/// (spec Algorithm 5 lines 2-6).
pub fn checksum(params: &Params, msg_w: &[u32]) -> Vec<u32> {
    let mut csum: u32 = msg_w.iter().map(|&d| params.w as u32 - 1 - d).sum();
    // Left-shift so the checksum occupies whole bytes before base-w.
    let len2 = params.wots_len2();
    let log_w = params.log_w();
    let shift = (8 - (len2 * log_w) % 8) % 8;
    csum <<= shift;
    let csum_bytes_len = (len2 * log_w).div_ceil(8);
    let bytes = csum.to_be_bytes();
    let csum_bytes = &bytes[4 - csum_bytes_len..];
    base_w(params, csum_bytes, len2)
}

/// Message digits followed by checksum digits: the chain lengths a WOTS+
/// signature reveals.
pub fn chain_lengths(params: &Params, msg: &[u8]) -> Vec<u32> {
    let mut lengths = base_w(params, msg, params.wots_len1());
    lengths.extend(checksum(params, &lengths));
    debug_assert_eq!(lengths.len(), params.wots_len());
    lengths
}

/// The `F`-chain address of chain `chain_idx` (hash index set per step by
/// the caller).
pub(crate) fn hash_adrs_for(adrs: &Address, chain_idx: u32) -> Address {
    let mut h = *adrs;
    h.set_type(AddressType::WotsHash);
    h.set_keypair(adrs.keypair());
    h.set_chain(chain_idx);
    h
}

/// The `T_len` address compressing the chain ends of the key pair at
/// `adrs`.
pub(crate) fn pk_adrs_for(adrs: &Address) -> Address {
    let mut pk_adrs = *adrs;
    pk_adrs.set_type(AddressType::WotsPk);
    pk_adrs.set_keypair(adrs.keypair());
    pk_adrs
}

/// Runs chain `i` of key pair `r` from its secret element for
/// `steps(r, i)` steps, every key pair of `adrs_list` in one
/// [`HashCtx::f_chains`] call — which derives the heads itself, so no
/// secret exists outside it. Returns the flat `n`-stride nodes, key pair
/// after key pair.
fn chains_from_secret(
    ctx: &HashCtx,
    sk_seed: &[u8],
    adrs_list: &[Address],
    steps: impl Fn(usize, usize) -> u32,
) -> Vec<u8> {
    let len = ctx.params().wots_len();
    let mut jobs = Vec::with_capacity(adrs_list.len() * len);
    for (r, adrs) in adrs_list.iter().enumerate() {
        jobs.extend((0..len).map(|i| ChainJob {
            adrs: hash_adrs_for(adrs, i as u32),
            head: ChainHead::Secret(sk_seed),
            start: 0,
            steps: steps(r, i),
        }));
    }
    let mut nodes = vec![0u8; jobs.len() * ctx.params().n];
    ctx.f_chains(&mut nodes, &jobs);
    nodes
}

/// Computes the WOTS+ public keys of many key pairs (`wots_gen_leaf`,
/// the treehash leaf routine whose ~560 hashes per leaf dominate signing,
/// §III of the paper), writing key pair `r`'s into `out[r*n..]` — the one
/// seam every subtree fill goes through.
///
/// Under SHA-256, on a CPU the resident ladder has a body for
/// ([`crate::tier::sha256_chain_tier`] above `scalar`), a lane owns a key
/// pair from its first `PRF` to its leaf: the key pairs of a register
/// group run their chains in lockstep and absorb their own `T_len`, and
/// where they do not fill the group they share its lanes out, so an
/// 8-leaf 128f subtree is 18 passes of 16 chains and two of them, in one
/// call, 35. Everything else — SHAKE-256, SHA-512, the `scalar` rung —
/// runs all `len` chains of all key pairs as one [`HashCtx::f_chains`]
/// sweep and compresses each key pair's chain ends on bytes.
///
/// A key pair's output does not depend on what else is in the call.
///
/// # Panics
///
/// Panics if `out` is not `adrs_list.len() * n` bytes.
pub fn pk_gen_many(ctx: &HashCtx, sk_seed: &[u8], adrs_list: &[Address], out: &mut [u8]) {
    let params = ctx.params();
    assert_eq!(
        out.len(),
        adrs_list.len() * params.n,
        "out must be count*n bytes"
    );
    #[cfg(target_arch = "x86_64")]
    if let (Some(iv), Some(kernel)) = (ctx.sha256_seed_state(), leaf::Kernel::active(params)) {
        return kernel.run(iv, params, sk_seed, adrs_list, out);
    }
    pk_gen_sweep(ctx, sk_seed, adrs_list, out);
}

/// [`pk_gen_many`] through [`HashCtx::f_chains`] and `T_len` on bytes.
fn pk_gen_sweep(ctx: &HashCtx, sk_seed: &[u8], adrs_list: &[Address], out: &mut [u8]) {
    let params = *ctx.params();
    let (len, n) = (params.wots_len(), params.n);
    let top = params.w as u32 - 1;
    let ends = chains_from_secret(ctx, sk_seed, adrs_list, |_, _| top);
    for ((adrs, ends), pk) in adrs_list
        .iter()
        .zip(ends.chunks_exact(len * n))
        .zip(out.chunks_exact_mut(n))
    {
        ctx.t_l_flat_into(&pk_adrs_for(adrs), ends, pk);
    }
}

/// Signs many `n`-byte messages, each under its own keypair address and
/// revealing one chain node per digit, with every chain of every request
/// running through one shared
/// [`HashCtx::f_chains`] sweep. This is the cross-message chain group of
/// the batch planner: chains stop at their message digits, and sorted by
/// length across all requests they fill lane groups that a lone request's
/// `len` chains would leave ragged. All requests share `sk_seed` (one
/// signing key signs the whole batch); `adrs_list[i]` carries request
/// `i`'s layer/tree/keypair coordinates.
///
/// # Panics
///
/// Panics if `msgs.len() != adrs_list.len()`.
pub fn sign_many(
    ctx: &HashCtx,
    msgs: &[&[u8]],
    sk_seed: &[u8],
    adrs_list: &[Address],
) -> Vec<Vec<Vec<u8>>> {
    let params = *ctx.params();
    let (len, n) = (params.wots_len(), params.n);
    assert_eq!(msgs.len(), adrs_list.len(), "one address per message");
    let lengths: Vec<Vec<u32>> = msgs
        .iter()
        .map(|msg| {
            debug_assert_eq!(msg.len(), n);
            chain_lengths(&params, msg)
        })
        .collect();
    let nodes = chains_from_secret(ctx, sk_seed, adrs_list, |r, i| lengths[r][i]);
    nodes
        .chunks_exact(len * n)
        .map(|sig| sig.chunks_exact(n).map(<[u8]>::to_vec).collect())
        .collect()
}

/// Recomputes many WOTS+ public keys from signatures, each under its own
/// keypair address, with every chain of every request running through
/// one shared [`HashCtx::f_chains`] sweep — the verification twin of
/// [`sign_many`]. Where signing runs `msg[i]` steps per chain,
/// verification runs the complementary `w-1-msg[i]` steps from the
/// revealed node; only the chain addresses are built, no PRF material is
/// needed.
///
/// ```
/// use hero_sphincs::{address::Address, hash::HashCtx, params::Params, wots};
///
/// let params = Params::sphincs_128f();
/// let ctx = HashCtx::new(params, &[0u8; 16]);
/// let sk_seed = [1u8; 16];
/// let mut a0 = Address::new();
/// a0.set_keypair(0);
/// let mut a1 = Address::new();
/// a1.set_keypair(1);
/// let msgs: [&[u8]; 2] = [&[7u8; 16], &[8u8; 16]];
///
/// let sigs = wots::sign_many(&ctx, &msgs, &sk_seed, &[a0, a1]);
/// let pks = wots::pk_from_sig_many(&ctx, &[&sigs[0], &sigs[1]], &msgs, &[a0, a1]);
/// let mut generated = [0u8; 32];
/// wots::pk_gen_many(&ctx, &sk_seed, &[a0, a1], &mut generated);
/// assert_eq!(pks.concat(), generated);
/// ```
///
/// # Panics
///
/// Panics if the slice lengths disagree or any signature does not hold
/// `wots_len()` nodes of `n` bytes (the library verify path checks
/// shapes first and returns a typed error).
pub fn pk_from_sig_many(
    ctx: &HashCtx,
    sigs: &[&[Vec<u8>]],
    msgs: &[&[u8]],
    adrs_list: &[Address],
) -> Vec<Vec<u8>> {
    let params = *ctx.params();
    let (len, n) = (params.wots_len(), params.n);
    assert_eq!(sigs.len(), msgs.len(), "one message per signature");
    assert_eq!(sigs.len(), adrs_list.len(), "one address per signature");
    let top = params.w as u32 - 1;

    let mut jobs = Vec::with_capacity(sigs.len() * len);
    let mut nodes = Vec::with_capacity(sigs.len() * len * n);
    for ((sig, msg), adrs) in sigs.iter().zip(msgs).zip(adrs_list) {
        assert_eq!(sig.len(), len, "WOTS+ signature must have len nodes");
        debug_assert_eq!(msg.len(), n);
        for ((i, node), digit) in sig.iter().enumerate().zip(chain_lengths(&params, msg)) {
            assert_eq!(node.len(), n, "WOTS+ signature node must be n bytes");
            nodes.extend_from_slice(node);
            jobs.push(ChainJob {
                adrs: hash_adrs_for(adrs, i as u32),
                head: ChainHead::Node,
                start: digit,
                steps: top - digit,
            });
        }
    }
    ctx.f_chains(&mut nodes, &jobs);

    adrs_list
        .iter()
        .zip(nodes.chunks_exact(len * n))
        .map(|(adrs, ends)| {
            let mut pk = vec![0u8; n];
            ctx.t_l_flat_into(&pk_adrs_for(adrs), ends, &mut pk);
            pk
        })
        .collect()
}

/// The chains of a group of signatures under verification, for the
/// chain kernel: heads straight from the signatures, ends left transposed
/// where `T_len` absorbs them.
#[cfg(target_arch = "x86_64")]
struct SigChains<'a> {
    sigs: &'a [&'a [Vec<u8>]],
    /// Message words `0..5` of each signature's `F` address at chain 0.
    keypairs: Vec<[u32; ADRS_WORDS]>,
    /// `(signature, chain, digit)` of every chain, signature after
    /// signature.
    links: Vec<(u16, u16, u32)>,
    /// `w − 1`: where every chain ends.
    top: u32,
    /// Words of a node.
    nw: usize,
    /// Word `word` of lane `s`'s chain `c` end: `ends[c · nw + word][s]`.
    ends: &'a mut [Row],
}

#[cfg(target_arch = "x86_64")]
impl chain::Chains for SigChains<'_> {
    fn len(&self) -> usize {
        self.links.len()
    }

    fn steps(&self, i: usize) -> u32 {
        self.top - self.links[i].2
    }

    fn load(&self, i: usize, lane: usize, group: &mut chain::Group) {
        let (s, c, digit) = self.links[i];
        let adrs = chain_words(&self.keypairs[s as usize], c as u32);
        group.set_chain(lane, adrs, digit, self.top - digit);
        group.set_head(lane, &self.sigs[s as usize][c as usize]);
    }

    fn store(&mut self, i: usize, lane: usize, node: &[Row; MAX_NODE_WORDS]) {
        let (s, c, _) = self.links[i];
        let end = &mut self.ends[c as usize * self.nw..][..self.nw];
        move_words(node, lane, end, s as usize);
    }
}

/// The chain half of [`pk_from_sig_many`] for at most a register group
/// of signatures, in the chain kernel from the seeded state `iv`:
/// signature `s`'s chain `c` runs from the revealed node to its end, and
/// the end lands in lane `s` of rows `c · n/4 ..` of `ends` — what a lane
/// = signature `T_len` absorbs — without having been bytes.
///
/// # Panics
///
/// As [`pk_from_sig_many`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn chain_ends_in_lanes(
    ctx: &HashCtx,
    kernel: &chain::Kernel,
    iv: &[u32; 8],
    sigs: &[&[Vec<u8>]],
    msgs: &[&[u8]],
    adrs_list: &[Address],
    ends: &mut [Row],
) {
    let params = *ctx.params();
    let (len, n) = (params.wots_len(), params.n);
    assert!(len <= usize::from(u16::MAX), "chain index must fit 16 bits");
    let mut links = Vec::with_capacity(sigs.len() * len);
    for (s, (sig, msg)) in sigs.iter().zip(msgs).enumerate() {
        assert_eq!(sig.len(), len, "WOTS+ signature must have len nodes");
        debug_assert_eq!(msg.len(), n);
        for (c, (node, digit)) in sig.iter().zip(chain_lengths(&params, msg)).enumerate() {
            assert_eq!(node.len(), n, "WOTS+ signature node must be n bytes");
            links.push((s as u16, c as u16, digit));
        }
    }
    let mut chains = SigChains {
        sigs,
        keypairs: adrs_list
            .iter()
            .map(|adrs| hash_adrs_for(adrs, 0).compressed_words())
            .collect(),
        links,
        top: params.w as u32 - 1,
        nw: n / 4,
        ends,
    };
    kernel.run(iv, &mut chains);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// One key pair's public key, signature and recovered key: the `_many`
    /// routines at batch 1.
    fn pk_gen(ctx: &HashCtx, sk_seed: &[u8], adrs: &Address) -> Vec<u8> {
        let mut pk = vec![0u8; ctx.params().n];
        pk_gen_many(ctx, sk_seed, std::slice::from_ref(adrs), &mut pk);
        pk
    }

    fn sign(ctx: &HashCtx, msg: &[u8], sk_seed: &[u8], adrs: &Address) -> Vec<Vec<u8>> {
        sign_many(ctx, &[msg], sk_seed, std::slice::from_ref(adrs)).remove(0)
    }

    fn pk_from_sig(ctx: &HashCtx, sig: &[Vec<u8>], msg: &[u8], adrs: &Address) -> Vec<u8> {
        pk_from_sig_many(ctx, &[sig], &[msg], std::slice::from_ref(adrs)).remove(0)
    }

    /// `steps` steps of the chain at `adrs` from `x` at position `start`,
    /// through the one entry point chains have.
    fn chain(ctx: &HashCtx, x: &[u8], start: u32, steps: u32, adrs: &Address) -> Vec<u8> {
        let mut node = x.to_vec();
        let job = ChainJob {
            adrs: *adrs,
            head: ChainHead::Node,
            start,
            steps,
        };
        ctx.f_chains(&mut node, &[job]);
        node
    }

    fn setup() -> (Params, HashCtx, Vec<u8>, Address) {
        let params = Params::sphincs_128f();
        let ctx = HashCtx::new(params, &[9u8; 16]);
        let sk_seed = vec![3u8; 16];
        let mut adrs = Address::new();
        adrs.set_layer(1);
        adrs.set_tree(5);
        adrs.set_keypair(2);
        (params, ctx, sk_seed, adrs)
    }

    #[test]
    fn base_w_extracts_nibbles() {
        let params = Params::sphincs_128f();
        let digits = base_w(&params, &[0x12, 0xAB], 4);
        assert_eq!(digits, vec![1, 2, 0xA, 0xB]);
    }

    #[test]
    #[should_panic(expected = "message too short")]
    fn base_w_rejects_short_input() {
        let params = Params::sphincs_128f();
        let _ = base_w(&params, &[0x12], 4);
    }

    #[test]
    fn checksum_zero_message_is_max() {
        // All digits 0 => csum = len1*(w-1) = 480 = 0x1E0.
        let params = Params::sphincs_128f();
        let msg_w = vec![0u32; params.wots_len1()];
        let digits = checksum(&params, &msg_w);
        assert_eq!(digits.len(), params.wots_len2());
        // 480 << 4 = 0x1E00 in 2 bytes -> digits 1, 14, 0.
        assert_eq!(digits, vec![1, 14, 0]);
    }

    #[test]
    fn chain_composes() {
        let (_, ctx, _, adrs) = setup();
        let x = vec![1u8; 16];
        let full = chain(&ctx, &x, 0, 10, &adrs);
        let half = chain(&ctx, &x, 0, 4, &adrs);
        assert_eq!(full, chain(&ctx, &half, 4, 6, &adrs));
        assert_eq!(full, reference::chain(&ctx, &x, 0, 10, &mut { adrs }));
    }

    #[test]
    fn chain_zero_steps_is_identity() {
        let (_, ctx, _, adrs) = setup();
        let x = vec![1u8; 16];
        assert_eq!(chain(&ctx, &x, 3, 0, &adrs), x);
        assert_eq!(reference::chain(&ctx, &x, 3, 0, &mut { adrs }), x);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (params, ctx, sk_seed, adrs) = setup();
        let msg = vec![0x5Au8; params.n];
        let pk = pk_gen(&ctx, &sk_seed, &adrs);
        let sig = sign(&ctx, &msg, &sk_seed, &adrs);
        assert_eq!(sig.len(), params.wots_len());
        assert_eq!(pk_from_sig(&ctx, &sig, &msg, &adrs), pk);
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let (params, ctx, sk_seed, adrs) = setup();
        let msg = vec![0x5Au8; params.n];
        let other = vec![0x5Bu8; params.n];
        let pk = pk_gen(&ctx, &sk_seed, &adrs);
        let sig = sign(&ctx, &msg, &sk_seed, &adrs);
        assert_ne!(pk_from_sig(&ctx, &sig, &other, &adrs), pk);
    }

    #[test]
    fn verify_rejects_tampered_sig() {
        let (params, ctx, sk_seed, adrs) = setup();
        let msg = vec![0x5Au8; params.n];
        let pk = pk_gen(&ctx, &sk_seed, &adrs);
        let mut sig = sign(&ctx, &msg, &sk_seed, &adrs);
        sig[0][0] ^= 1;
        assert_ne!(pk_from_sig(&ctx, &sig, &msg, &adrs), pk);
    }

    #[test]
    fn sign_many_matches_per_request_sign() {
        // Requests at different layers/trees/keypairs — the mix a
        // cross-message chain group carries — must each be byte-identical
        // to the reference's signature, for odd group sizes too.
        let (params, ctx, sk_seed, _) = setup();
        for count in [1usize, 2, 5] {
            let msgs_owned: Vec<Vec<u8>> = (0..count)
                .map(|i| (0..params.n).map(|b| (i * 37 + b) as u8).collect())
                .collect();
            let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
            let adrs_list: Vec<Address> = (0..count)
                .map(|i| {
                    let mut a = Address::new();
                    a.set_layer(i as u32 % 3);
                    a.set_tree(i as u64 * 11);
                    a.set_keypair(i as u32);
                    a
                })
                .collect();
            let batched = sign_many(&ctx, &msgs, &sk_seed, &adrs_list);
            assert_eq!(batched.len(), count);
            for i in 0..count {
                assert_eq!(
                    batched[i],
                    reference::wots_sign(&ctx, msgs[i], &sk_seed, &adrs_list[i]),
                    "count={count} request {i}"
                );
            }
        }
        assert!(sign_many(&ctx, &[], &sk_seed, &[]).is_empty());
    }

    #[test]
    fn pk_from_sig_many_matches_per_request() {
        // The verification twin of sign_many_matches_per_request_sign:
        // mixed layers/trees/keypairs, odd group sizes, every recovered
        // public key byte-identical to the reference's, recovered and
        // generated.
        let (params, ctx, sk_seed, _) = setup();
        for count in [1usize, 2, 5] {
            let msgs_owned: Vec<Vec<u8>> = (0..count)
                .map(|i| (0..params.n).map(|b| (i * 53 + b) as u8).collect())
                .collect();
            let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
            let adrs_list: Vec<Address> = (0..count)
                .map(|i| {
                    let mut a = Address::new();
                    a.set_layer(i as u32 % 3);
                    a.set_tree(i as u64 * 7);
                    a.set_keypair(i as u32 + 1);
                    a
                })
                .collect();
            let sigs = sign_many(&ctx, &msgs, &sk_seed, &adrs_list);
            let sig_refs: Vec<&[Vec<u8>]> = sigs.iter().map(Vec::as_slice).collect();
            let batched = pk_from_sig_many(&ctx, &sig_refs, &msgs, &adrs_list);
            assert_eq!(batched.len(), count);
            for i in 0..count {
                assert_eq!(
                    batched[i],
                    reference::wots_pk_from_sig(&ctx, &sigs[i], msgs[i], &adrs_list[i]),
                    "count={count} request {i}"
                );
                assert_eq!(
                    batched[i],
                    reference::wots_pk_gen(&ctx, &sk_seed, &adrs_list[i]),
                    "count={count} request {i} pk"
                );
            }
        }
        assert!(pk_from_sig_many(&ctx, &[], &[], &[]).is_empty());
    }

    #[test]
    fn different_keypairs_different_pks() {
        let (_, ctx, sk_seed, adrs) = setup();
        let mut adrs2 = adrs;
        adrs2.set_keypair(3);
        assert_ne!(
            pk_gen(&ctx, &sk_seed, &adrs),
            pk_gen(&ctx, &sk_seed, &adrs2)
        );
    }

    #[test]
    fn chain_lengths_sum_bounded() {
        let params = Params::sphincs_128f();
        let lengths = chain_lengths(&params, &[0xFFu8; 16]);
        assert!(lengths.iter().all(|&l| l < params.w as u32));
    }

    #[test]
    fn small_w_parameter_sets_round_trip() {
        // Small w means many short chains: w=4 with n=32 is the worst
        // case (len = 133). (w=8 requires 3 | n for base_w to have
        // enough digest bits; n=24 is its only valid size here.)
        for (w, n) in [(4usize, 16usize), (4, 24), (4, 32), (8, 24)] {
            let mut params = Params::sphincs_256f();
            params.w = w;
            params.n = n;
            params.validate().unwrap();
            let ctx = HashCtx::new(params, &vec![9u8; n]);
            let sk_seed = vec![3u8; n];
            let mut adrs = Address::new();
            adrs.set_keypair(1);
            let pk = pk_gen(&ctx, &sk_seed, &adrs);
            let msg = vec![0x6Cu8; n];
            let sig = sign(&ctx, &msg, &sk_seed, &adrs);
            assert_eq!(sig.len(), params.wots_len(), "w={w} n={n}");
            assert_eq!(pk_from_sig(&ctx, &sig, &msg, &adrs), pk, "w={w} n={n}");
        }
    }
}
