//! SPHINCS+ as the specification writes it: the second implementation.
//!
//! Every routine here is one [`HashCtx::f`], [`HashCtx::h`],
//! [`HashCtx::t_l`] or [`HashCtx::prf`] call at a time — chains advance a
//! step per `F`, Merkle levels are `Vec<Vec<u8>>` rebuilt node by node,
//! a verification climbs one `H` per authentication node — and the whole
//! of it shares with the code that ships only those four single-call
//! hashes (and `PRF_msg` / `H_msg`), [`Address`], [`crate::Params`], the digit
//! and index decoders ([`wots::base_w`] behind [`wots::chain_lengths`],
//! [`fors::message_to_indices`], [`hash::split_digest`]) and the key and
//! signature types. It calls no `*_many` function, no chain, leaf, forest
//! or ascent kernel, no lane engine and nothing in [`crate::merkle`]; and
//! no module of this crate calls it outside `#[cfg(test)]`. That is what
//! makes agreement with it mean something: [`sign`] reproduces the
//! seed-pinned digests of `tests/fixtures.rs`, every batched and
//! lane-resident body is held to the pieces below under every ISA tier, and
//! [`crate::sign::SigningKey::sign`], [`crate::sign::VerifyingKey::verify`]
//! and the batch planner are held to [`sign`] and [`verify`].
//!
//! It is slow by construction (a 128f signature takes some 17 ms where
//! the shipping path takes 2) and is meant for tests, benches and the
//! `reference` backend of the CLI.
//!
//! ```
//! use hero_sphincs::{params::Params, reference, sign::keygen_from_seeds};
//!
//! let mut params = Params::sphincs_128f();
//! (params.h, params.d, params.log_t, params.k) = (6, 3, 4, 8);
//! let n = params.n;
//! let (sk, vk) = keygen_from_seeds(params, vec![1; n], vec![2; n], vec![3; n]);
//!
//! let sig = reference::sign(&sk, b"two implementations, one signature");
//! assert_eq!(sig, sk.sign(b"two implementations, one signature"));
//! reference::verify(&vk, b"two implementations, one signature", &sig).unwrap();
//! ```

use crate::address::{Address, AddressType};
use crate::fors::{self, ForsSignature, ForsTreeSig};
use crate::hash::{self, HashCtx};
use crate::hypertree::{HtSignature, XmssSig};
use crate::sign::{SignError, Signature, SigningKey, VerifyingKey};
use crate::wots;

/// The chaining function (spec Algorithm 2): `steps` iterations of `F`
/// from position `start`. `adrs` carries the chain's coordinates; the hash
/// index is written here.
pub fn chain(ctx: &HashCtx, x: &[u8], start: u32, steps: u32, adrs: &mut Address) -> Vec<u8> {
    let mut value = x.to_vec();
    for i in start..start + steps {
        adrs.set_hash(i);
        value = ctx.f(adrs, &value);
    }
    value
}

/// The secret element heading chain `chain_idx` of the WOTS+ key pair at
/// `adrs` (layer, tree and key pair coordinates).
pub fn wots_sk(ctx: &HashCtx, sk_seed: &[u8], adrs: &Address, chain_idx: u32) -> Vec<u8> {
    let mut prf_adrs = Address::new();
    prf_adrs.copy_subtree_from(adrs);
    prf_adrs.set_type(AddressType::WotsPrf);
    prf_adrs.set_keypair(adrs.keypair());
    prf_adrs.set_chain(chain_idx);
    ctx.prf(&prf_adrs, sk_seed)
}

/// The `F` address of chain `chain_idx` of the key pair at `adrs`.
fn wots_hash_adrs(adrs: &Address, chain_idx: u32) -> Address {
    let mut hash_adrs = *adrs;
    hash_adrs.set_type(AddressType::WotsHash);
    hash_adrs.set_keypair(adrs.keypair());
    hash_adrs.set_chain(chain_idx);
    hash_adrs
}

/// `T_len` over a key pair's chain ends.
fn wots_compress(ctx: &HashCtx, adrs: &Address, ends: &[Vec<u8>]) -> Vec<u8> {
    let mut pk_adrs = *adrs;
    pk_adrs.set_type(AddressType::WotsPk);
    pk_adrs.set_keypair(adrs.keypair());
    let parts: Vec<&[u8]> = ends.iter().map(Vec::as_slice).collect();
    ctx.t_l(&pk_adrs, &parts)
}

/// The WOTS+ public key of the key pair at `adrs` (`wots_gen_leaf`):
/// every chain run to its end, the ends compressed.
pub fn wots_pk_gen(ctx: &HashCtx, sk_seed: &[u8], adrs: &Address) -> Vec<u8> {
    let params = *ctx.params();
    let ends: Vec<Vec<u8>> = (0..params.wots_len() as u32)
        .map(|i| {
            let sk = wots_sk(ctx, sk_seed, adrs, i);
            chain(
                ctx,
                &sk,
                0,
                params.w as u32 - 1,
                &mut wots_hash_adrs(adrs, i),
            )
        })
        .collect();
    wots_compress(ctx, adrs, &ends)
}

/// Signs the `n`-byte `msg` with the key pair at `adrs`: chain `i`
/// stopped at the message's `i`-th digit.
///
/// # Panics
///
/// Panics if `msg` is not `n` bytes.
pub fn wots_sign(ctx: &HashCtx, msg: &[u8], sk_seed: &[u8], adrs: &Address) -> Vec<Vec<u8>> {
    wots::chain_lengths(ctx.params(), msg)
        .into_iter()
        .enumerate()
        .map(|(i, digit)| {
            let sk = wots_sk(ctx, sk_seed, adrs, i as u32);
            chain(ctx, &sk, 0, digit, &mut wots_hash_adrs(adrs, i as u32))
        })
        .collect()
}

/// Recomputes a WOTS+ public key from a signature over `msg`: every
/// chain finished from its revealed node.
///
/// # Panics
///
/// Panics if `sig` does not hold `wots_len()` nodes, or `msg` is not `n`
/// bytes.
pub fn wots_pk_from_sig(ctx: &HashCtx, sig: &[Vec<u8>], msg: &[u8], adrs: &Address) -> Vec<u8> {
    let params = *ctx.params();
    assert_eq!(sig.len(), params.wots_len(), "WOTS+ signature length");
    let top = params.w as u32 - 1;
    let ends: Vec<Vec<u8>> = wots::chain_lengths(&params, msg)
        .into_iter()
        .zip(sig)
        .enumerate()
        .map(|(i, (digit, node))| {
            chain(
                ctx,
                node,
                digit,
                top - digit,
                &mut wots_hash_adrs(adrs, i as u32),
            )
        })
        .collect();
    wots_compress(ctx, adrs, &ends)
}

/// Tree hash of the `2^height` leaves `leaf_fn(0..)`: the root and the
/// authentication path of `leaf_idx`. `node_adrs` carries the tree's
/// coordinates, its height field the height the leaves sit at, and
/// `leaf_offset` counts the leaves to the tree's left in a forest: node
/// `i` of level `z` hashes under height `base + z` and index
/// `(leaf_offset >> z) + i`.
///
/// # Panics
///
/// Panics if `leaf_idx >= 2^height`.
pub fn treehash(
    ctx: &HashCtx,
    height: usize,
    leaf_idx: u32,
    node_adrs: &Address,
    leaf_offset: u32,
    leaf_fn: impl FnMut(u32) -> Vec<u8>,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    assert!((leaf_idx as usize) < 1 << height, "leaf index out of range");
    let base_height = node_adrs.tree_height();
    let mut level: Vec<Vec<u8>> = (0..1u32 << height).map(leaf_fn).collect();
    let mut auth_path = Vec::with_capacity(height);
    let mut adrs = *node_adrs;
    for z in 1..=height as u32 {
        auth_path.push(level[(leaf_idx as usize >> (z - 1)) ^ 1].clone());
        adrs.set_tree_height(base_height + z);
        level = (0..level.len() / 2)
            .map(|i| {
                adrs.set_tree_index((leaf_offset >> z) + i as u32);
                ctx.h(&adrs, &level[2 * i], &level[2 * i + 1])
            })
            .collect();
    }
    (level.pop().expect("a tree has a root"), auth_path)
}

/// Climbs from `leaf` at `leaf_idx` to the root over `auth_path`, one `H`
/// a level; `node_adrs` and `leaf_offset` as in [`treehash`], leaves at
/// height 0.
pub fn root_from_auth_path(
    ctx: &HashCtx,
    leaf: &[u8],
    leaf_idx: u32,
    auth_path: &[Vec<u8>],
    node_adrs: &Address,
    leaf_offset: u32,
) -> Vec<u8> {
    let mut node = leaf.to_vec();
    let mut adrs = *node_adrs;
    for (z, sibling) in (1u32..).zip(auth_path) {
        adrs.set_tree_height(z);
        adrs.set_tree_index((leaf_offset >> z) + (leaf_idx >> z));
        node = if (leaf_idx >> (z - 1)) & 1 == 0 {
            ctx.h(&adrs, &node, sibling)
        } else {
            ctx.h(&adrs, sibling, &node)
        };
    }
    node
}

/// An address of the forest at `keypair_adrs`, of type `ty`.
fn fors_adrs(keypair_adrs: &Address, ty: AddressType) -> Address {
    let mut adrs = Address::new();
    adrs.copy_subtree_from(keypair_adrs);
    adrs.set_type(ty);
    adrs.set_keypair(keypair_adrs.keypair());
    adrs
}

/// The secret element under leaf `leaf_idx` of FORS tree `tree_idx`,
/// addressed by its forest-global index `tree_idx · t + leaf_idx`.
pub fn fors_sk(
    ctx: &HashCtx,
    sk_seed: &[u8],
    keypair_adrs: &Address,
    tree_idx: u32,
    leaf_idx: u32,
) -> Vec<u8> {
    let mut adrs = fors_adrs(keypair_adrs, AddressType::ForsPrf);
    adrs.set_tree_index(tree_idx * ctx.params().t() as u32 + leaf_idx);
    ctx.prf(&adrs, sk_seed)
}

/// `F` of a FORS secret element at its forest-global leaf address.
fn fors_leaf_of(
    ctx: &HashCtx,
    sk: &[u8],
    keypair_adrs: &Address,
    tree_idx: u32,
    leaf_idx: u32,
) -> Vec<u8> {
    let mut adrs = fors_adrs(keypair_adrs, AddressType::ForsTree);
    adrs.set_tree_index(tree_idx * ctx.params().t() as u32 + leaf_idx);
    ctx.f(&adrs, sk)
}

/// Leaf `leaf_idx` of FORS tree `tree_idx`: `F(PRF(..))`.
pub fn fors_leaf(
    ctx: &HashCtx,
    sk_seed: &[u8],
    keypair_adrs: &Address,
    tree_idx: u32,
    leaf_idx: u32,
) -> Vec<u8> {
    let sk = fors_sk(ctx, sk_seed, keypair_adrs, tree_idx, leaf_idx);
    fors_leaf_of(ctx, &sk, keypair_adrs, tree_idx, leaf_idx)
}

/// FORS tree `tree_idx` built whole: its root and the authentication
/// path of `leaf_idx`.
pub fn fors_tree(
    ctx: &HashCtx,
    sk_seed: &[u8],
    keypair_adrs: &Address,
    tree_idx: u32,
    leaf_idx: u32,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    let params = *ctx.params();
    treehash(
        ctx,
        params.log_t,
        leaf_idx,
        &fors_adrs(keypair_adrs, AddressType::ForsTree),
        tree_idx * params.t() as u32,
        |i| fors_leaf(ctx, sk_seed, keypair_adrs, tree_idx, i),
    )
}

/// `T_k` over a forest's roots.
fn fors_compress(ctx: &HashCtx, keypair_adrs: &Address, roots: &[Vec<u8>]) -> Vec<u8> {
    let parts: Vec<&[u8]> = roots.iter().map(Vec::as_slice).collect();
    ctx.t_l(&fors_adrs(keypair_adrs, AddressType::ForsRoots), &parts)
}

/// Signs the digest `md` with the forest at `keypair_adrs`: per tree the
/// selected secret and its authentication path; and the FORS public key.
pub fn fors_sign(
    ctx: &HashCtx,
    md: &[u8],
    sk_seed: &[u8],
    keypair_adrs: &Address,
) -> (ForsSignature, Vec<u8>) {
    let mut trees = Vec::with_capacity(ctx.params().k);
    let mut roots = Vec::with_capacity(ctx.params().k);
    for (tree_idx, leaf_idx) in (0u32..).zip(fors::message_to_indices(ctx.params(), md)) {
        let sk = fors_sk(ctx, sk_seed, keypair_adrs, tree_idx, leaf_idx);
        let (root, auth_path) = fors_tree(ctx, sk_seed, keypair_adrs, tree_idx, leaf_idx);
        trees.push(ForsTreeSig { sk, auth_path });
        roots.push(root);
    }
    let pk = fors_compress(ctx, keypair_adrs, &roots);
    (ForsSignature { trees }, pk)
}

/// Recomputes the FORS public key from a signature over `md`.
///
/// # Panics
///
/// Panics if `sig` does not hold `k` trees.
pub fn fors_pk_from_sig(
    ctx: &HashCtx,
    sig: &ForsSignature,
    md: &[u8],
    keypair_adrs: &Address,
) -> Vec<u8> {
    let params = *ctx.params();
    assert_eq!(sig.trees.len(), params.k, "FORS signature tree count");
    let node_adrs = fors_adrs(keypair_adrs, AddressType::ForsTree);
    let roots: Vec<Vec<u8>> = (0u32..)
        .zip(&sig.trees)
        .zip(fors::message_to_indices(&params, md))
        .map(|((tree_idx, tree), leaf_idx)| {
            let leaf = fors_leaf_of(ctx, &tree.sk, keypair_adrs, tree_idx, leaf_idx);
            root_from_auth_path(
                ctx,
                &leaf,
                leaf_idx,
                &tree.auth_path,
                &node_adrs,
                tree_idx * params.t() as u32,
            )
        })
        .collect();
    fors_compress(ctx, keypair_adrs, &roots)
}

/// The WOTS+ key pair address of leaf `leaf_idx` of the XMSS tree at
/// (`layer`, `tree`).
fn xmss_keypair_adrs(layer: u32, tree: u64, leaf_idx: u32) -> Address {
    let mut adrs = Address::new();
    adrs.set_layer(layer);
    adrs.set_tree(tree);
    adrs.set_type(AddressType::WotsHash);
    adrs.set_keypair(leaf_idx);
    adrs
}

/// The `H` address of the XMSS tree at (`layer`, `tree`).
fn xmss_node_adrs(layer: u32, tree: u64) -> Address {
    let mut adrs = Address::new();
    adrs.set_layer(layer);
    adrs.set_tree(tree);
    adrs.set_type(AddressType::Tree);
    adrs
}

/// Signs `msg` with leaf `leaf_idx` of the XMSS tree at (`layer`,
/// `tree`), every leaf of which is generated on the way; and the tree's
/// root.
pub fn xmss_sign(
    ctx: &HashCtx,
    msg: &[u8],
    sk_seed: &[u8],
    layer: u32,
    tree: u64,
    leaf_idx: u32,
) -> (XmssSig, Vec<u8>) {
    let wots_sig = wots_sign(ctx, msg, sk_seed, &xmss_keypair_adrs(layer, tree, leaf_idx));
    let (root, auth_path) = treehash(
        ctx,
        ctx.params().tree_height(),
        leaf_idx,
        &xmss_node_adrs(layer, tree),
        0,
        |i| wots_pk_gen(ctx, sk_seed, &xmss_keypair_adrs(layer, tree, i)),
    );
    (
        XmssSig {
            wots_sig,
            auth_path,
        },
        root,
    )
}

/// Recomputes the root of the XMSS tree at (`layer`, `tree`) from a
/// signature over `msg` at `leaf_idx`.
pub fn xmss_pk_from_sig(
    ctx: &HashCtx,
    sig: &XmssSig,
    msg: &[u8],
    layer: u32,
    tree: u64,
    leaf_idx: u32,
) -> Vec<u8> {
    let leaf = wots_pk_from_sig(
        ctx,
        &sig.wots_sig,
        msg,
        &xmss_keypair_adrs(layer, tree, leaf_idx),
    );
    root_from_auth_path(
        ctx,
        &leaf,
        leaf_idx,
        &sig.auth_path,
        &xmss_node_adrs(layer, tree),
        0,
    )
}

/// Signs `msg` under the hypertree from (`tree_idx`, `leaf_idx`) at layer
/// 0 to the top, each layer signing the root of the one below (the loop
/// of Fig. 2).
pub fn ht_sign(
    ctx: &HashCtx,
    msg: &[u8],
    sk_seed: &[u8],
    mut tree_idx: u64,
    mut leaf_idx: u32,
) -> HtSignature {
    let params = *ctx.params();
    let mut layers = Vec::with_capacity(params.d);
    let mut root = msg.to_vec();
    for layer in 0..params.d as u32 {
        let (sig, tree_root) = xmss_sign(ctx, &root, sk_seed, layer, tree_idx, leaf_idx);
        layers.push(sig);
        root = tree_root;
        leaf_idx = (tree_idx & ((1 << params.tree_height()) - 1)) as u32;
        tree_idx >>= params.tree_height();
    }
    HtSignature { layers }
}

/// The top root a hypertree signature over `msg` reconstructs.
///
/// # Panics
///
/// Panics if `sig` does not hold `d` layers.
pub fn ht_root_from_sig(
    ctx: &HashCtx,
    sig: &HtSignature,
    msg: &[u8],
    mut tree_idx: u64,
    mut leaf_idx: u32,
) -> Vec<u8> {
    let params = *ctx.params();
    assert_eq!(sig.layers.len(), params.d, "hypertree layer count");
    let mut node = msg.to_vec();
    for (layer, layer_sig) in (0u32..).zip(&sig.layers) {
        node = xmss_pk_from_sig(ctx, layer_sig, &node, layer, tree_idx, leaf_idx);
        leaf_idx = (tree_idx & ((1 << params.tree_height()) - 1)) as u32;
        tree_idx >>= params.tree_height();
    }
    node
}

/// The FORS key pair address a digest's (`tree_idx`, `leaf_idx`) selects.
fn fors_keypair_adrs(tree_idx: u64, leaf_idx: u32) -> Address {
    let mut adrs = Address::new();
    adrs.set_layer(0);
    adrs.set_tree(tree_idx);
    adrs.set_type(AddressType::ForsTree);
    adrs.set_keypair(leaf_idx);
    adrs
}

/// Signs `msg` under `sk` with `opt_rand` (`n` bytes) randomising the
/// signature.
pub fn sign_with_rand(sk: &SigningKey, msg: &[u8], opt_rand: &[u8]) -> Signature {
    let params = *sk.params();
    let ctx = HashCtx::with_alg(params, sk.pk_seed(), sk.alg());
    let randomizer = ctx.prf_msg(sk.sk_prf(), opt_rand, msg);
    let digest = ctx.h_msg(&randomizer, sk.pk_root(), msg);
    let (md, tree_idx, leaf_idx) = hash::split_digest(&params, &digest);
    let keypair_adrs = fors_keypair_adrs(tree_idx, leaf_idx);

    let (fors, fors_pk) = fors_sign(&ctx, &md, sk.sk_seed(), &keypair_adrs);
    let ht = ht_sign(&ctx, &fors_pk, sk.sk_seed(), tree_idx, leaf_idx);
    Signature {
        randomizer,
        fors,
        ht,
    }
}

/// Signs `msg` under `sk` deterministically (`opt_rand = pk_seed`).
pub fn sign(sk: &SigningKey, msg: &[u8]) -> Signature {
    sign_with_rand(sk, msg, sk.pk_seed())
}

/// Verifies `sig` over `msg` under `vk`.
///
/// # Errors
///
/// [`SignError::MalformedSignature`] if a dimension of `sig` is not the
/// parameter set's, [`SignError::VerificationFailed`] if the root it
/// reconstructs is not the key's.
pub fn verify(vk: &VerifyingKey, msg: &[u8], sig: &Signature) -> Result<(), SignError> {
    let params = *vk.params();
    sig.check_shape(&params)?;
    let ctx = HashCtx::with_alg(params, vk.pk_seed(), vk.alg());
    let digest = ctx.h_msg(&sig.randomizer, vk.pk_root(), msg);
    let (md, tree_idx, leaf_idx) = hash::split_digest(&params, &digest);
    let keypair_adrs = fors_keypair_adrs(tree_idx, leaf_idx);

    let fors_pk = fors_pk_from_sig(&ctx, &sig.fors, &md, &keypair_adrs);
    let root = ht_root_from_sig(&ctx, &sig.ht, &fors_pk, tree_idx, leaf_idx);
    if root == vk.pk_root() {
        Ok(())
    } else {
        Err(SignError::VerificationFailed)
    }
}
