//! The pre-batching scalar signing path, preserved as an oracle.
//!
//! This module replays the seed-era implementation shape: every hash goes
//! through the scalar single-call `Vec<u8>` APIs, Merkle levels are
//! `Vec<Vec<u8>>`, and WOTS+ chains advance one `F` at a time. It shares
//! no tree builder, no leaf fill and no chain kernel with the signers
//! that ship — its treehash is its own — so [`sign`] producing
//! byte-identical signatures to
//! [`hero_sphincs::sign::SigningKey::sign`] and to the planned batch
//! signer holds both to something outside themselves. The
//! `hot_path` criterion bench times it beside the batched signer.

use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::fors::{self, ForsSignature, ForsTreeSig};
use hero_sphincs::hash::{self, HashCtx};
use hero_sphincs::hypertree::{HtSignature, XmssSig};
use hero_sphincs::sign::{Signature, SigningKey};
use hero_sphincs::wots;

/// Scalar WOTS+ chain: one allocating `F` call per step (the seed shape).
fn chain(ctx: &HashCtx, x: &[u8], start: u32, steps: u32, adrs: &mut Address) -> Vec<u8> {
    let mut value = x.to_vec();
    for i in start..start + steps {
        adrs.set_hash(i);
        value = ctx.f(adrs, &value);
    }
    value
}

/// Scalar `wots_gen_leaf`: chains sequential, ends collected in
/// `Vec<Vec<u8>>`, compressed with the borrowing `T_l`.
fn wots_pk_gen(ctx: &HashCtx, sk_seed: &[u8], adrs: &Address) -> Vec<u8> {
    let params = *ctx.params();
    let mut chain_ends = Vec::with_capacity(params.wots_len());
    let mut hash_adrs = *adrs;
    hash_adrs.set_type(AddressType::WotsHash);
    hash_adrs.set_keypair(adrs.keypair());
    for i in 0..params.wots_len() as u32 {
        let sk = wots::sk_element(ctx, sk_seed, adrs, i);
        hash_adrs.set_chain(i);
        chain_ends.push(chain(ctx, &sk, 0, params.w as u32 - 1, &mut hash_adrs));
    }
    let mut pk_adrs = *adrs;
    pk_adrs.set_type(AddressType::WotsPk);
    pk_adrs.set_keypair(adrs.keypair());
    let parts: Vec<&[u8]> = chain_ends.iter().map(Vec::as_slice).collect();
    ctx.t_l(&pk_adrs, &parts)
}

fn wots_sign(ctx: &HashCtx, msg: &[u8], sk_seed: &[u8], adrs: &Address) -> Vec<Vec<u8>> {
    let params = *ctx.params();
    let lengths = wots::chain_lengths(&params, msg);
    let mut hash_adrs = *adrs;
    hash_adrs.set_type(AddressType::WotsHash);
    hash_adrs.set_keypair(adrs.keypair());
    lengths
        .iter()
        .enumerate()
        .map(|(i, &steps)| {
            let sk = wots::sk_element(ctx, sk_seed, adrs, i as u32);
            hash_adrs.set_chain(i as u32);
            chain(ctx, &sk, 0, steps, &mut hash_adrs)
        })
        .collect()
}

/// Scalar treehash over `Vec<Vec<u8>>` levels, rebuilding each level with
/// per-node `H` calls and cloning auth-path siblings (the seed shape).
fn treehash<F>(
    ctx: &HashCtx,
    height: usize,
    leaf_idx: u32,
    node_adrs: &Address,
    leaf_offset: u32,
    mut leaf_fn: F,
) -> (Vec<u8>, Vec<Vec<u8>>)
where
    F: FnMut(u32) -> Vec<u8>,
{
    let num_leaves = 1usize << height;
    let mut level: Vec<Vec<u8>> = (0..num_leaves as u32).map(&mut leaf_fn).collect();
    let mut auth_path = Vec::with_capacity(height);
    let mut idx = leaf_idx;
    let mut adrs = *node_adrs;
    for level_height in 1..=height {
        auth_path.push(level[(idx ^ 1) as usize].clone());
        adrs.set_tree_height(level_height as u32);
        let level_offset = leaf_offset >> level_height;
        level = (0..level.len() / 2)
            .map(|i| {
                adrs.set_tree_index(level_offset + i as u32);
                ctx.h(&adrs, &level[2 * i], &level[2 * i + 1])
            })
            .collect();
        idx >>= 1;
    }
    (level.pop().expect("root"), auth_path)
}

fn fors_sign(
    ctx: &HashCtx,
    md: &[u8],
    sk_seed: &[u8],
    keypair_adrs: &Address,
) -> (ForsSignature, Vec<u8>) {
    let params = *ctx.params();
    let indices = fors::message_to_indices(&params, md);
    let mut trees = Vec::with_capacity(params.k);
    let mut roots: Vec<Vec<u8>> = Vec::with_capacity(params.k);
    for (tree_idx, &leaf_idx) in indices.iter().enumerate() {
        let tree_idx = tree_idx as u32;
        let sk = fors::sk_element(ctx, sk_seed, keypair_adrs, tree_idx, leaf_idx);
        let mut node_adrs = Address::new();
        node_adrs.copy_subtree_from(keypair_adrs);
        node_adrs.set_type(AddressType::ForsTree);
        node_adrs.set_keypair(keypair_adrs.keypair());
        let leaf_offset = tree_idx * params.t() as u32;
        let (root, auth_path) =
            treehash(ctx, params.log_t, leaf_idx, &node_adrs, leaf_offset, |i| {
                fors::leaf(ctx, sk_seed, keypair_adrs, tree_idx, i)
            });
        trees.push(ForsTreeSig { sk, auth_path });
        roots.push(root);
    }
    let mut roots_adrs = Address::new();
    roots_adrs.copy_subtree_from(keypair_adrs);
    roots_adrs.set_type(AddressType::ForsRoots);
    roots_adrs.set_keypair(keypair_adrs.keypair());
    let parts: Vec<&[u8]> = roots.iter().map(Vec::as_slice).collect();
    let pk = ctx.t_l(&roots_adrs, &parts);
    (ForsSignature { trees }, pk)
}

fn ht_sign(
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
        let mut wots_adrs = Address::new();
        wots_adrs.set_layer(layer);
        wots_adrs.set_tree(tree_idx);
        wots_adrs.set_type(AddressType::WotsHash);
        wots_adrs.set_keypair(leaf_idx);
        let wots_sig = wots_sign(ctx, &root, sk_seed, &wots_adrs);

        let mut node_adrs = Address::new();
        node_adrs.set_layer(layer);
        node_adrs.set_tree(tree_idx);
        node_adrs.set_type(AddressType::Tree);
        let (new_root, auth_path) =
            treehash(ctx, params.tree_height(), leaf_idx, &node_adrs, 0, |i| {
                let mut adrs = Address::new();
                adrs.set_layer(layer);
                adrs.set_tree(tree_idx);
                adrs.set_type(AddressType::WotsHash);
                adrs.set_keypair(i);
                wots_pk_gen(ctx, sk_seed, &adrs)
            });
        layers.push(XmssSig {
            wots_sig,
            auth_path,
        });
        root = new_root;
        leaf_idx = (tree_idx & ((1 << params.tree_height()) - 1)) as u32;
        tree_idx >>= params.tree_height();
    }
    HtSignature { layers }
}

/// Signs `msg` with the scalar pre-batching path. Byte-identical to
/// [`SigningKey::sign`] and to the batch planner (asserted by this
/// module's tests).
pub fn sign(sk: &SigningKey, msg: &[u8]) -> Signature {
    let params = *sk.params();
    let ctx = HashCtx::with_alg(params, sk.pk_seed(), sk.alg());
    let randomizer = ctx.prf_msg(sk.sk_prf(), sk.pk_seed(), msg);
    let digest = ctx.h_msg(&randomizer, sk.pk_root(), msg);
    let (md, tree_idx, leaf_idx) = hash::split_digest(&params, &digest);

    let mut keypair_adrs = Address::new();
    keypair_adrs.set_layer(0);
    keypair_adrs.set_tree(tree_idx);
    keypair_adrs.set_type(AddressType::ForsTree);
    keypair_adrs.set_keypair(leaf_idx);

    let (fors_sig, fors_pk) = fors_sign(&ctx, &md, sk.sk_seed(), &keypair_adrs);
    let ht_sig = ht_sign(&ctx, &fors_pk, sk.sk_seed(), tree_idx, leaf_idx);
    Signature {
        randomizer,
        fors: fors_sig,
        ht: ht_sig,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_gpu_sim::device::rtx_4090;
    use hero_sign::HeroSigner;
    use hero_sphincs::hash::HashAlg;
    use hero_sphincs::params::Params;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_baseline_matches_batched_signer() {
        let mut params = Params::sphincs_128f();
        params.h = 6;
        params.d = 3;
        params.log_t = 4;
        params.k = 8;
        let mut rng = StdRng::seed_from_u64(31);
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let msg = b"baseline equivalence";
        let scalar = sign(&sk, msg);
        assert_eq!(scalar, sk.sign(msg));
        vk.verify(msg, &scalar).unwrap();

        // The planner too: a batch signed cold (every subtree built and
        // published) and again warm (every subtree sliced from the
        // cache), under both hash families.
        let msgs: [&[u8]; 3] = [b"planned one", b"planned two", b"planned three"];
        for alg in [HashAlg::Sha256, HashAlg::Shake256] {
            let (sk, _) = hero_sphincs::keygen_with_alg(params, alg, &mut rng).unwrap();
            let expected: Vec<Signature> = msgs.iter().map(|m| sign(&sk, m)).collect();
            let engine = HeroSigner::builder(rtx_4090(), params).build().unwrap();
            for state in ["cold", "warm"] {
                assert_eq!(
                    engine.sign_batch(&sk, &msgs).unwrap(),
                    expected,
                    "{alg:?} {state}"
                );
            }
            let stats = engine.cache_stats();
            assert_eq!(stats.hits, (msgs.len() * params.d) as u64, "{alg:?}");
        }
    }
}
