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
//! reads a group's revealed nodes out of the signatures into words once,
//! hands the chain kernel their digits (`chain_links`) and leaves the
//! ends where the nodes were, for each signature's lane to gather its
//! `T_len` from ([`crate::hypertree::xmss_pk_from_sig_many`]).
//!
//! Every path from a message to its chains — signing, verifying, and
//! [`crate::reference`] — goes through [`chain_lengths`], which panics
//! on a message that is not `n` bytes.
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
//! let mut recovered = [0u8; 16];
//! wots::pk_from_sig_many(&ctx, &[&sigs[0]], &[&[7u8; 16]], &[adrs], &mut recovered);
//! assert_eq!(recovered, pk);
//! ```

use crate::address::{Address, AddressType};
use crate::hash::{ChainHead, ChainJob, HashCtx};
use crate::params::Params;
#[cfg(target_arch = "x86_64")]
use crate::{chain, lanes::chain_words, leaf};

/// Converts `msg` into `out_len` base-`w` digits (spec Algorithm 1).
///
/// # Panics
///
/// Panics if `msg` has fewer bits than `out_len` digits require.
pub fn base_w(params: &Params, msg: &[u8], out_len: usize) -> Vec<u32> {
    let mut out = vec![0; out_len];
    base_w_into(params, msg, &mut out);
    out
}

/// [`base_w`] into `out`, one digit per slot.
fn base_w_into(params: &Params, msg: &[u8], out: &mut [u32]) {
    let log_w = params.log_w();
    assert!(
        msg.len() * 8 >= out.len() * log_w,
        "message too short: {} bits for {} digits of {} bits",
        msg.len() * 8,
        out.len(),
        log_w
    );
    let mask = params.w as u32 - 1;
    let mut bits: u32 = 0;
    let mut acc: u32 = 0;
    let mut bytes = msg.iter();
    for digit in out {
        if bits < log_w as u32 {
            acc = (acc << 8) | u32::from(*bytes.next().expect("enough message bits"));
            bits += 8;
        }
        bits -= log_w as u32;
        *digit = (acc >> bits) & mask;
    }
}

/// Computes the WOTS+ checksum digits for message digits `msg_w`
/// (spec Algorithm 5 lines 2-6).
pub fn checksum(params: &Params, msg_w: &[u32]) -> Vec<u32> {
    let mut out = vec![0; params.wots_len2()];
    checksum_into(params, msg_w, &mut out);
    out
}

/// [`checksum`] into `out`, its `len2` digits.
fn checksum_into(params: &Params, msg_w: &[u32], out: &mut [u32]) {
    let mut csum: u32 = msg_w.iter().map(|&d| params.w as u32 - 1 - d).sum();
    // Left-shift so the checksum occupies whole bytes before base-w.
    let bits = out.len() * params.log_w();
    csum <<= (8 - bits % 8) % 8;
    let bytes = csum.to_be_bytes();
    base_w_into(params, &bytes[4 - bits.div_ceil(8)..], out);
}

/// Message digits followed by checksum digits: the chain lengths a WOTS+
/// signature reveals.
///
/// # Panics
///
/// Panics if `msg` is not `n` bytes.
pub fn chain_lengths(params: &Params, msg: &[u8]) -> Vec<u32> {
    let mut lengths = vec![0; params.wots_len()];
    chain_lengths_into(params, msg, &mut lengths);
    lengths
}

/// [`chain_lengths`] into `out`, `len` slots.
fn chain_lengths_into(params: &Params, msg: &[u8], out: &mut [u32]) {
    assert_eq!(msg.len(), params.n, "WOTS+ message must be n bytes");
    debug_assert_eq!(out.len(), params.wots_len());
    let (digits, checksum) = out.split_at_mut(params.wots_len1());
    base_w_into(params, msg, digits);
    checksum_into(params, digits, checksum);
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
/// Panics if `msgs.len() != adrs_list.len()`, or a message is not `n`
/// bytes.
pub fn sign_many(
    ctx: &HashCtx,
    msgs: &[&[u8]],
    sk_seed: &[u8],
    adrs_list: &[Address],
) -> Vec<Vec<Vec<u8>>> {
    let params = *ctx.params();
    let (len, n) = (params.wots_len(), params.n);
    assert_eq!(msgs.len(), adrs_list.len(), "one address per message");
    let lengths: Vec<Vec<u32>> = msgs.iter().map(|msg| chain_lengths(&params, msg)).collect();
    let nodes = chains_from_secret(ctx, sk_seed, adrs_list, |r, i| lengths[r][i]);
    nodes
        .chunks_exact(len * n)
        .map(|sig| sig.chunks_exact(n).map(<[u8]>::to_vec).collect())
        .collect()
}

/// Recomputes many WOTS+ public keys from signatures, each under its own
/// keypair address, writing key pair `r`'s into `out[r*n..]`, with every
/// chain of every request running through one shared
/// [`HashCtx::f_chains`] sweep — the verification twin of
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
/// let mut pks = [0u8; 32];
/// wots::pk_from_sig_many(&ctx, &[&sigs[0], &sigs[1]], &msgs, &[a0, a1], &mut pks);
/// let mut generated = [0u8; 32];
/// wots::pk_gen_many(&ctx, &sk_seed, &[a0, a1], &mut generated);
/// assert_eq!(pks, generated);
/// ```
///
/// # Panics
///
/// Panics if the slice lengths disagree, `out` is not `count * n` bytes,
/// a message is not `n` bytes or any signature does not hold
/// `wots_len()` nodes of `n` bytes (the library verify path checks
/// shapes first and returns a typed error).
pub fn pk_from_sig_many(
    ctx: &HashCtx,
    sigs: &[&[Vec<u8>]],
    msgs: &[&[u8]],
    adrs_list: &[Address],
    out: &mut [u8],
) {
    let params = ctx.params();
    assert_eq!(sigs.len(), msgs.len(), "one message per signature");
    assert_eq!(sigs.len(), adrs_list.len(), "one address per signature");
    assert_eq!(
        out.len(),
        sigs.len() * params.n,
        "out must be count*n bytes"
    );
    let sigs = sigs.iter().zip(msgs).zip(adrs_list);
    let sigs = sigs.map(|((sig, msg), adrs)| (*sig, *msg, *adrs));
    let (mut digits, mut nodes, mut jobs) = (Vec::new(), Vec::new(), Vec::new());
    let run = |nodes: &mut [u8], jobs: &[ChainJob]| ctx.f_chains(nodes, jobs);
    pks_in(ctx, sigs, &mut digits, &mut nodes, &mut jobs, run, out);
}

/// [`pk_from_sig_many`] over `sigs` — a WOTS+ signature, the message it
/// signs and its key pair's address each — in the caller's buffers, as a
/// verification group's sweep passes its own: the chain lengths, the
/// nodes the chains `run` in, and the chains.
pub(crate) fn pks_in<'s, 'j>(
    ctx: &HashCtx,
    sigs: impl Iterator<Item = (&'s [Vec<u8>], &'s [u8], Address)> + Clone,
    digits: &mut Vec<u32>,
    nodes: &mut Vec<u8>,
    jobs: &mut Vec<ChainJob<'j>>,
    run: impl FnOnce(&mut [u8], &[ChainJob<'j>]),
    out: &mut [u8],
) {
    let params = ctx.params();
    let (len, n, top) = (params.wots_len(), params.n, params.w as u32 - 1);
    digits.clear();
    nodes.clear();
    jobs.clear();
    for (sig, msg, adrs) in sigs.clone() {
        assert_eq!(sig.len(), len, "WOTS+ signature must have len nodes");
        push_digits(params, msg, digits);
        for ((c, node), &digit) in (0u32..).zip(sig).zip(&digits[digits.len() - len..]) {
            assert_eq!(node.len(), n, "WOTS+ signature node must be n bytes");
            nodes.extend_from_slice(node);
            jobs.push(ChainJob {
                adrs: hash_adrs_for(&adrs, c),
                head: ChainHead::Node,
                start: digit,
                steps: top - digit,
            });
        }
    }
    run(nodes, jobs);
    for ((.., adrs), (ends, pk)) in
        sigs.zip(nodes.chunks_exact(len * n).zip(out.chunks_exact_mut(n)))
    {
        ctx.t_l_flat_into(&pk_adrs_for(&adrs), ends, pk);
    }
}

/// Appends the chain lengths of a WOTS+ signature of `msg` to `digits`:
/// the hash index each revealed node sits at.
pub(crate) fn push_digits(params: &Params, msg: &[u8], digits: &mut Vec<u32>) {
    let start = digits.len();
    digits.resize(start + params.wots_len(), 0);
    chain_lengths_into(params, msg, &mut digits[start..]);
}

/// The chains of one WOTS+ signature under verification, for the chain
/// kernel: chain `c` of the key pair at `adrs` runs from its
/// revealed node at `digits[c]` — whose word 0 is word `at + c · n/4` of
/// the words the sort runs in — to the chain's end, where `T_len` finds
/// it.
#[cfg(target_arch = "x86_64")]
pub(crate) fn chain_links<'a>(
    params: &Params,
    digits: &'a [u32],
    adrs: &Address,
    at: usize,
) -> impl Iterator<Item = chain::Link> + 'a {
    let keypair = hash_adrs_for(adrs, 0).compressed_words();
    let (top, nw) = (params.w as u32 - 1, params.n / 4);
    (0..digits.len() as u32)
        .zip(digits)
        .map(move |(c, &digit)| chain::Link {
            adrs: chain_words(&keypair, c),
            start: digit,
            steps: top - digit,
            at: (at + c as usize * nw) as u32,
        })
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
        let mut pk = vec![0u8; ctx.params().n];
        pk_from_sig_many(ctx, &[sig], &[msg], std::slice::from_ref(adrs), &mut pk);
        pk
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
            let mut flat = vec![0u8; count * params.n];
            pk_from_sig_many(&ctx, &sig_refs, &msgs, &adrs_list, &mut flat);
            let batched: Vec<&[u8]> = flat.chunks(params.n).collect();
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
        pk_from_sig_many(&ctx, &[], &[], &[], &mut []);
    }

    /// A message one byte longer than `n`, which every WOTS+ entry point
    /// refuses rather than reading its first `n` bytes.
    fn long_message(params: &Params) -> Vec<u8> {
        vec![0x5Au8; params.n + 1]
    }

    #[test]
    #[should_panic(expected = "WOTS+ message must be n bytes")]
    fn chain_lengths_rejects_a_long_message() {
        let params = Params::sphincs_128f();
        let _ = chain_lengths(&params, &long_message(&params));
    }

    #[test]
    #[should_panic(expected = "WOTS+ message must be n bytes")]
    fn sign_many_rejects_a_long_message() {
        let (params, ctx, sk_seed, adrs) = setup();
        let _ = sign_many(&ctx, &[&long_message(&params)], &sk_seed, &[adrs]);
    }

    #[test]
    #[should_panic(expected = "WOTS+ message must be n bytes")]
    fn pk_from_sig_many_rejects_a_long_message() {
        let (params, ctx, sk_seed, adrs) = setup();
        let sig = sign(&ctx, &[0x5Au8; 16], &sk_seed, &adrs);
        pk_from_sig(&ctx, &sig, &long_message(&params), &adrs);
    }

    #[test]
    #[should_panic(expected = "WOTS+ message must be n bytes")]
    fn reference_sign_rejects_a_long_message() {
        let (params, ctx, sk_seed, adrs) = setup();
        let _ = reference::wots_sign(&ctx, &long_message(&params), &sk_seed, &adrs);
    }

    #[test]
    #[should_panic(expected = "WOTS+ message must be n bytes")]
    fn reference_verify_rejects_a_long_message() {
        let (params, ctx, sk_seed, adrs) = setup();
        let sig = sign(&ctx, &[0x5Au8; 16], &sk_seed, &adrs);
        let _ = reference::wots_pk_from_sig(&ctx, &sig, &long_message(&params), &adrs);
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
