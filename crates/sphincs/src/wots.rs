//! WOTS+ (Winternitz One-Time Signature Plus).
//!
//! A WOTS+ key is `len` hash chains of length `w`; a signature reveals one
//! intermediate node per chain, positioned by the base-`w` digits of the
//! message plus a checksum (§II-A1 of the paper). Chains are mutually
//! independent — the property HERO-Sign's `WOTS+_Sign` kernel exploits with
//! chain-level thread parallelism.
//!
//! On CPU the same independence is exploited across SIMD lanes: the
//! chains of a group of signatures ([`sign_chain_groups`]; verification's
//! `pks_in`) live in one flat `n`-stride buffer and run to completion
//! through [`HashCtx::f_chains`], the way this crate walks a chain outside
//! of the step-by-step [`crate::reference::chain`] its tests hold it to.
//! The chain step is whatever primitive the [`HashCtx`] carries. Under
//! SHA-256 the two sides that work on whole keys stay in the lanes beyond
//! the chains. Public keys ([`pk_gen_many`]: every subtree fill, which is
//! most of a signature) are made a key pair to a lane, from the first
//! `PRF` through `len` full chains to `T_len`, and no chain of theirs is
//! ever a job or a byte. Verification ([`crate::sign::VerifyingKey::verify_many`])
//! reads a group's revealed nodes out of the signatures into words once,
//! hands the chain kernel their digits (`chain_links`) and leaves the ends
//! where the nodes were, for each signature's lane to gather its `T_len`
//! from (`hypertree::xmss_roots_group`).
//!
//! Every path from a message to its chains — signing, verifying, and
//! [`crate::reference`] — goes through [`chain_lengths`], which panics
//! on a message that is not `n` bytes.
//!
//! ```
//! use hero_sphincs::{address::Address, hash::HashCtx, params::Params, reference, wots};
//!
//! let params = Params::sphincs_128f();
//! let ctx = HashCtx::new(params, &[0u8; 16]);
//! let sk_seed = [1u8; 16];
//! // Key pair 3 of layer 0, tree 0 signs a 16-byte value.
//! let item = wots::ChainGroupItem { msg: &[7u8; 16], layer: 0, tree: 0, leaf: 3 };
//! let sigs = wots::sign_chain_groups(&ctx, &sk_seed, &[item]);
//! let mut adrs = Address::new();
//! adrs.set_keypair(3);
//! let mut pk = [0u8; 16];
//! wots::pk_gen_many(&ctx, &sk_seed, &[adrs], &mut pk);
//! // Verification recomputes the public key by finishing the chains.
//! assert_eq!(reference::wots_pk_from_sig(&ctx, &sigs[0], &[7u8; 16], &adrs), pk);
//! ```

use crate::address::{Address, AddressType};
use crate::hash::{ChainHead, ChainJob, HashCtx};
use crate::nodes::Nodes;
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

/// The address of WOTS+ key pair `leaf` of the subtree at (`layer`,
/// `tree`): the leaf's public key, and the signature it makes.
pub(crate) fn keypair_adrs(layer: u32, tree: u64, leaf: u32) -> Address {
    let mut adrs = Address::new();
    adrs.set_layer(layer);
    adrs.set_tree(tree);
    adrs.set_type(AddressType::WotsHash);
    adrs.set_keypair(leaf);
    adrs
}

/// One WOTS+ signature of the `WOTS+_Sign` stage: `msg` (a FORS public
/// key or the root of the subtree below) signed by key pair `leaf` of
/// the subtree at (`layer`, `tree`). A group may mix layers and
/// messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainGroupItem<'a> {
    /// The `n`-byte value this layer signs.
    pub msg: &'a [u8],
    /// Hypertree layer of the signing key pair.
    pub layer: u32,
    /// Tree index within the layer.
    pub tree: u64,
    /// Leaf (key pair) index within the tree.
    pub leaf: u32,
}

/// The `WOTS+_Sign` stage: every chain of every item through one shared
/// [`HashCtx::f_chains`] sweep, each stopping at its message digit, so
/// chains retiring early in one item leave lanes to the others — the
/// cross-message mirror of the kernel's masked-thread retirement. All
/// items share `sk_seed` (one signing key signs the whole group). An
/// item's signature is its `len` revealed nodes in one [`Nodes`], and
/// does not depend on what else is in the group.
///
/// # Panics
///
/// Panics if a message is not `n` bytes.
pub fn sign_chain_groups(
    ctx: &HashCtx,
    sk_seed: &[u8],
    items: &[ChainGroupItem<'_>],
) -> Vec<Nodes> {
    let params = *ctx.params();
    let (len, n) = (params.wots_len(), params.n);
    let mut digits = Vec::with_capacity(items.len() * len);
    for item in items {
        push_digits(&params, item.msg, &mut digits);
    }
    let adrs_list: Vec<Address> = items
        .iter()
        .map(|item| keypair_adrs(item.layer, item.tree, item.leaf))
        .collect();
    let nodes = chains_from_secret(ctx, sk_seed, &adrs_list, |r, i| digits[r * len + i]);
    nodes
        .chunks_exact(len * n)
        .map(|sig| Nodes::from_bytes(n, sig.to_vec()))
        .collect()
}

/// Recomputes the WOTS+ public keys of `sigs` — a signature, the message
/// it signs and its key pair's address each — writing key pair `r`'s into
/// `out[r*n..]`: where signing runs `digit` steps per chain, verification
/// runs the complementary `w − 1 − digit` from the revealed node, every
/// chain of every signature in one `run` of the chains. A verification
/// group's sweep passes its own buffers: the chain lengths, the nodes the
/// chains run in, and the chains.
///
/// # Panics
///
/// Panics if a message is not `n` bytes or a signature is not `len`
/// nodes of `n` bytes.
pub(crate) fn pks_in<'s, 'j>(
    ctx: &HashCtx,
    sigs: impl Iterator<Item = (&'s [u8], &'s [u8], Address)> + Clone,
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
        assert_eq!(sig.len(), len * n, "WOTS+ signature must be len nodes");
        push_digits(params, msg, digits);
        nodes.extend_from_slice(sig);
        for (c, &digit) in (0u32..).zip(&digits[digits.len() - len..]) {
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

    /// One key pair's public key, signature and recovered key: the group
    /// routines at a group of one.
    fn pk_gen(ctx: &HashCtx, sk_seed: &[u8], adrs: &Address) -> Vec<u8> {
        let mut pk = vec![0u8; ctx.params().n];
        pk_gen_many(ctx, sk_seed, std::slice::from_ref(adrs), &mut pk);
        pk
    }

    /// The `WOTS+_Sign` item of `msg` at the key pair `adrs` names.
    fn item<'a>(msg: &'a [u8], adrs: &Address) -> ChainGroupItem<'a> {
        ChainGroupItem {
            msg,
            layer: adrs.layer(),
            tree: adrs.tree(),
            leaf: adrs.keypair(),
        }
    }

    fn sign(ctx: &HashCtx, msg: &[u8], sk_seed: &[u8], adrs: &Address) -> Nodes {
        sign_chain_groups(ctx, sk_seed, &[item(msg, adrs)]).remove(0)
    }

    /// Recovered public keys of signatures `r` of `msgs[r]` at
    /// `adrs_list[r]`, all in one [`pks_in`].
    fn pks_from_sigs(
        ctx: &HashCtx,
        sigs: &[Nodes],
        msgs: &[&[u8]],
        adrs_list: &[Address],
    ) -> Vec<u8> {
        let mut pks = vec![0u8; sigs.len() * ctx.params().n];
        let sigs = sigs.iter().zip(msgs).zip(adrs_list);
        let sigs = sigs.map(|((sig, msg), adrs)| (sig.as_bytes(), *msg, *adrs));
        let (mut digits, mut nodes, mut jobs) = (Vec::new(), Vec::new(), Vec::new());
        let run = |nodes: &mut [u8], jobs: &[ChainJob]| ctx.f_chains(nodes, jobs);
        pks_in(ctx, sigs, &mut digits, &mut nodes, &mut jobs, run, &mut pks);
        pks
    }

    fn pk_from_sig(ctx: &HashCtx, sig: &Nodes, msg: &[u8], adrs: &Address) -> Vec<u8> {
        pks_from_sigs(
            ctx,
            std::slice::from_ref(sig),
            &[msg],
            std::slice::from_ref(adrs),
        )
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
        // Items at different layers/trees/key pairs — the mix a
        // cross-message chain group carries — must each sign
        // byte-identically to the reference, for odd group sizes too.
        let (params, ctx, sk_seed, _) = setup();
        for count in [1usize, 2, 5] {
            let msgs_owned: Vec<Vec<u8>> = (0..count)
                .map(|i| (0..params.n).map(|b| (i * 37 + b) as u8).collect())
                .collect();
            let adrs_list: Vec<Address> = (0..count)
                .map(|i| keypair_adrs(i as u32 % 3, i as u64 * 11, i as u32))
                .collect();
            let items: Vec<ChainGroupItem> = (0..count)
                .map(|i| item(&msgs_owned[i], &adrs_list[i]))
                .collect();
            let batched = sign_chain_groups(&ctx, &sk_seed, &items);
            assert_eq!(batched.len(), count);
            for i in 0..count {
                assert_eq!(
                    batched[i],
                    reference::wots_sign(&ctx, &msgs_owned[i], &sk_seed, &adrs_list[i]),
                    "count={count} request {i}"
                );
            }
        }
        assert!(sign_chain_groups(&ctx, &sk_seed, &[]).is_empty());
    }

    #[test]
    fn pk_from_sig_many_matches_per_request() {
        // The recovery side of sign_many_matches_per_request_sign: mixed
        // layers/trees/key pairs, odd group sizes, every public key the
        // group recovers in one pks_in byte-identical to the reference's,
        // recovered and generated.
        let (params, ctx, sk_seed, _) = setup();
        for count in [1usize, 2, 5] {
            let msgs_owned: Vec<Vec<u8>> = (0..count)
                .map(|i| (0..params.n).map(|b| (i * 53 + b) as u8).collect())
                .collect();
            let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
            let adrs_list: Vec<Address> = (0..count)
                .map(|i| keypair_adrs(i as u32 % 3, i as u64 * 7, i as u32 + 1))
                .collect();
            let items: Vec<ChainGroupItem> =
                (0..count).map(|i| item(msgs[i], &adrs_list[i])).collect();
            let sigs = sign_chain_groups(&ctx, &sk_seed, &items);
            let pks = pks_from_sigs(&ctx, &sigs, &msgs, &adrs_list);
            assert_eq!(pks.len(), count * params.n);
            for (i, pk) in pks.chunks(params.n).enumerate() {
                assert_eq!(
                    pk,
                    reference::wots_pk_from_sig(&ctx, &sigs[i], msgs[i], &adrs_list[i]),
                    "count={count} request {i}"
                );
                assert_eq!(
                    pk,
                    reference::wots_pk_gen(&ctx, &sk_seed, &adrs_list[i]),
                    "count={count} request {i} pk"
                );
            }
        }
        assert!(pks_from_sigs(&ctx, &[], &[], &[]).is_empty());
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
        let _ = sign(&ctx, &long_message(&params), &sk_seed, &adrs);
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
