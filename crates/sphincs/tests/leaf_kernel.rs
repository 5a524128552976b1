//! The WOTS+ leaf entry points ([`wots::pk_gen_many`],
//! [`hypertree::wots_leaves_many_into`]) held byte-identical to
//! [`reference::wots_pk_gen`] — `PRF`, one `F` per chain step, `t_l` —
//! which never enters a resident body, under every ISA tier the host
//! supports. Forcing a SHA-256 tier forces the resident ladder's too
//! (`sha-ni`, which has no body there, selects the ladder's best), so
//! walking the SHA-256 tiers walks both widths of the leaf body and the
//! sweep on bytes. `hero-sphincs` is built optimised under `cargo test`
//! too (the root `Cargo.toml`), so the bodies run here as they ship: at
//! every key pair count of both widths and over whole layers.
//!
//! And the chain step the leaf body and the chain kernel share, held to
//! [`reference::chain`] through [`HashCtx::f_chains`] on both sides of
//! the hash index at which the kernel must leave it for the generic
//! call.

use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::hash::{ChainHead, ChainJob, HashAlg, HashCtx};
use hero_sphincs::hypertree::{self, SubtreeItem};
use hero_sphincs::params::Params;
use hero_sphincs::tier;
use hero_sphincs::{reference, wots};

mod common;
use common::{reference_chains, with_forced_tier, Stream, TIER_LOCK};

/// Key pairs per case: two of the widest groups and one more, so that
/// every way a group is shared out (16, 8, 5, 4, 3, 2 and 1 lanes to a
/// key pair; 8, 4, 2 and 1 in ymm), counts that leave lanes over, a full
/// group and a 17th key pair all occur. A case is cut to every count
/// from none to all of them.
const KEYPAIRS: usize = 33;

/// Every node width at both ends of `w` and in the middle: `T_len` over
/// 18 to 133 chain ends, 10, 20 and 34 blocks of them at `w = 16`.
fn shapes() -> Vec<Params> {
    let mut shapes = Vec::new();
    for set in Params::fast_sets() {
        for w in [4, 16, 256] {
            let mut params = set;
            params.w = w;
            params.validate().expect("a shape the library accepts");
            shapes.push(params);
        }
    }
    shapes
}

fn keypair_adrs(layer: u32, tree: u64, keypair: u32) -> Address {
    let mut adrs = Address::new();
    adrs.set_layer(layer);
    adrs.set_tree(tree);
    adrs.set_type(AddressType::WotsHash);
    adrs.set_keypair(keypair);
    adrs
}

/// Key pairs anywhere: both ends of every coordinate over-represented,
/// and no two of a list need share a subtree.
fn random_keypairs(count: usize, rng: &mut Stream) -> Vec<Address> {
    (0..count)
        .map(|_| {
            let layer = [0, 21, 255, rng.below(256)][rng.below(4) as usize];
            let tree = [0, (1 << 63) - 1, rng.next() >> 1][rng.below(3) as usize];
            let keypair = match rng.below(4) {
                0 => rng.below(8),
                1 => (1 << 16) + rng.below(1 << 16),
                2 => u32::MAX,
                _ => rng.next() as u32,
            };
            keypair_adrs(layer, tree, keypair)
        })
        .collect()
}

/// Any number of key pairs from none to two groups and one, anywhere in
/// the hypertree, equals the scalar public keys under every tier.
#[test]
fn pk_gen_many_matches_scalar_keys_under_every_tier() {
    let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (case, params) in shapes().into_iter().enumerate() {
        let n = params.n;
        let mut rng = Stream(0x1eaf ^ (case as u64) << 32 | 1);
        let (pk_seed, sk_seed) = (rng.bytes(n), rng.bytes(n));
        let ctx = HashCtx::new(params, &pk_seed);
        let adrs_list = random_keypairs(KEYPAIRS, &mut rng);
        let expected: Vec<u8> = adrs_list
            .iter()
            .flat_map(|adrs| reference::wots_pk_gen(&ctx, &sk_seed, adrs))
            .collect();
        for tier in tier::supported_sha256_tiers() {
            with_forced_tier(tier, || {
                for count in 0..=KEYPAIRS {
                    let mut got = vec![0u8; count * n];
                    wots::pk_gen_many(&ctx, &sk_seed, &adrs_list[..count], &mut got);
                    assert_eq!(
                        got,
                        expected[..count * n],
                        "{} w={} {count} key pairs under {}",
                        params.name(),
                        params.w,
                        tier.label()
                    );
                }
            });
        }
    }
}

/// The subtree at (`layer`, `tree_idx`); a leaf fill reads no leaf of it.
fn subtree(layer: u32, tree_idx: u64) -> SubtreeItem {
    SubtreeItem {
        layer,
        tree_idx,
        leaf_idx: 0,
    }
}

/// A subtree's leaves, and several subtrees' in one fill, at the corners
/// of the hypertree.
#[test]
fn subtree_fills_match_scalar_leaves_under_every_tier() {
    let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corners: Vec<SubtreeItem> = [0, 21, 255]
        .into_iter()
        .flat_map(|layer| [0, (1 << 63) - 1].map(|tree_idx| subtree(layer, tree_idx)))
        .collect();
    for (case, params) in Params::fast_sets().into_iter().enumerate() {
        let n = params.n;
        let leaves = params.subtree_leaves();
        let mut rng = Stream(0xf111 ^ (case as u64) << 32 | 1);
        let (pk_seed, sk_seed) = (rng.bytes(n), rng.bytes(n));
        let ctx = HashCtx::new(params, &pk_seed);
        let expected: Vec<Vec<u8>> = corners
            .iter()
            .map(
                |&SubtreeItem {
                     layer,
                     tree_idx: tree,
                     ..
                 }| {
                    (0..leaves as u32)
                        .flat_map(|leaf| {
                            reference::wots_pk_gen(&ctx, &sk_seed, &keypair_adrs(layer, tree, leaf))
                        })
                        .collect()
                },
            )
            .collect();
        for tier in tier::supported_sha256_tiers() {
            with_forced_tier(tier, || {
                for (corner, expected) in corners.iter().zip(&expected) {
                    let (layer, tree) = (corner.layer, corner.tree_idx);
                    // The whole layer, and a part of it that fills no
                    // group.
                    for count in [leaves, 3] {
                        let mut got = vec![0u8; count * n];
                        hypertree::wots_leaves_many_into(
                            &ctx,
                            &sk_seed,
                            std::slice::from_ref(corner),
                            &mut got,
                        );
                        assert_eq!(
                            got,
                            expected[..count * n],
                            "{} layer {layer} tree {tree} under {}",
                            params.name(),
                            tier.label()
                        );
                    }
                }
                // One, two (a plan item from batch 4 up) and all six in
                // one fill.
                for together in [1, 2, corners.len()] {
                    let mut got = vec![0u8; together * leaves * n];
                    hypertree::wots_leaves_many_into(
                        &ctx,
                        &sk_seed,
                        &corners[..together],
                        &mut got,
                    );
                    assert_eq!(
                        got,
                        expected[..together].concat(),
                        "{} {together} subtrees under {}",
                        params.name(),
                        tier.label()
                    );
                }
                hypertree::wots_leaves_many_into(&ctx, &sk_seed, &[], &mut []);
            });
        }
    }
}

/// SHAKE-256 and SHA-512 go through the same entry points, with the
/// sweep behind them.
#[test]
fn leaf_entry_points_match_scalar_keys_for_the_other_primitives() {
    let mut rng = Stream(0x07e5);
    for alg in [HashAlg::Shake256, HashAlg::Sha512] {
        for params in shapes() {
            let n = params.n;
            let (pk_seed, sk_seed) = (rng.bytes(n), rng.bytes(n));
            let ctx = HashCtx::with_alg(params, &pk_seed, alg);
            let adrs_list = random_keypairs(2, &mut rng);
            let expected: Vec<u8> = adrs_list
                .iter()
                .flat_map(|adrs| reference::wots_pk_gen(&ctx, &sk_seed, adrs))
                .collect();
            let mut got = vec![0u8; 2 * n];
            wots::pk_gen_many(&ctx, &sk_seed, &adrs_list, &mut got);
            assert_eq!(got, expected, "{alg:?} {} w={}", params.name(), params.w);

            let expected = reference::wots_pk_gen(&ctx, &sk_seed, &keypair_adrs(21, 5, 0));
            let mut got = vec![0u8; n];
            hypertree::wots_leaves_many_into(&ctx, &sk_seed, &[subtree(21, 5)], &mut got);
            assert_eq!(got, expected, "{alg:?} {} w={}", params.name(), params.w);
        }
    }
}

/// The step holds the hash index in half a word. Chains of one length
/// whose last index is the last that fits take the step, chains that go
/// one further take the generic call, chains beyond never see the step,
/// and a call that mixes them sorts them into groups of either kind:
/// all equal the scalar chain, which has the whole word.
#[test]
fn chain_step_gives_way_where_the_hash_index_outgrows_it() {
    let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Stream(0x57e9);
    for params in shapes() {
        let n = params.n;
        let steps = params.w as u32 - 1;
        let ctx = HashCtx::new(params, &rng.bytes(n));
        let sk_seed = rng.bytes(n);
        let edge = (1 << 16) - steps;
        let kinds: [&[u32]; 4] = [
            &[edge, edge - 1, 0],
            &[edge + 1],
            &[1 << 16, u32::MAX - steps],
            &[edge, edge + 1, edge - 1, 1 << 16, 0, (1 << 16) - 1],
        ];
        for starts in kinds {
            // Two groups of the widest body and a part of one.
            let jobs: Vec<ChainJob> = (0..37)
                .map(|i| {
                    let mut adrs = keypair_adrs(rng.below(256), rng.next() >> 1, rng.next() as u32);
                    adrs.set_chain(rng.next() as u32);
                    let start = starts[i % starts.len()];
                    ChainJob {
                        adrs,
                        head: match rng.below(3) {
                            0 => ChainHead::Secret(&sk_seed),
                            _ => ChainHead::Node,
                        },
                        start,
                        // Mostly whole chains; a few that stop short.
                        steps: if rng.below(4) == 0 {
                            rng.below(steps + 1)
                        } else {
                            steps
                        },
                    }
                })
                .collect();
            let nodes = rng.bytes(jobs.len() * n);
            let expected = reference_chains(&ctx, &jobs, &nodes);
            for tier in tier::supported_sha256_tiers() {
                let mut got = nodes.clone();
                with_forced_tier(tier, || ctx.f_chains(&mut got, &jobs));
                assert_eq!(
                    got,
                    expected,
                    "{} w={} starts {starts:?} under {}",
                    params.name(),
                    params.w,
                    tier.label()
                );
            }
        }
    }
}
