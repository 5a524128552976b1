//! The WOTS+ chain entry point ([`HashCtx::f_chains`]) and the sweeps
//! built on it, held byte-identical to [`hero_sphincs::reference`]
//! (`wots_sk` for a head derived in place, `chain`, one `F` per step, from
//! there) under every ISA tier the host supports. Forcing a SHA-256 tier forces the chain kernel's too
//! (`sha-ni`, which has no chain body, selects the ladder's best), so
//! walking the SHA-256 tiers walks every chain body and the round loop.

use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::hash::{ChainHead, ChainJob, HashAlg, HashCtx};
use hero_sphincs::params::Params;
use hero_sphincs::tier;
use hero_sphincs::{hypertree, reference, wots};
use proptest::prelude::*;

mod common;
use common::{reference_chains, with_forced_tier, Stream, TIER_LOCK};

/// The shapes the kernel is instantiated for: every `n`, the reduced
/// shape the other suites sign with, and the two ends of `w`.
fn shapes() -> Vec<Params> {
    let mut shapes = Params::fast_sets().to_vec();
    let mut reduced = Params::sphincs_128f();
    (reduced.h, reduced.d, reduced.log_t, reduced.k) = (6, 3, 4, 8);
    shapes.push(reduced);
    let mut short_chains = Params::sphincs_256f();
    short_chains.w = 4;
    shapes.push(short_chains);
    let mut long_chains = Params::sphincs_128f();
    long_chains.w = 256;
    shapes.push(long_chains);
    for shape in &shapes {
        shape.validate().expect("a shape the library accepts");
    }
    shapes
}

/// `count` chains with random coordinates and nodes; starts and step
/// counts cover `0..w` with both extremes over-represented. About half
/// of them start from their secret element under one of `sk_seeds`,
/// and of those one in three runs no step at all: what a zero digit
/// makes `wots::sign_chain_groups` reveal.
fn random_chains<'a>(
    params: &Params,
    count: usize,
    sk_seeds: &'a [Vec<u8>; 2],
    rng: &mut Stream,
) -> (Vec<ChainJob<'a>>, Vec<u8>) {
    let w = params.w as u32;
    let jobs = (0..count)
        .map(|_| {
            let mut adrs = Address::new();
            adrs.set_layer(rng.below(256));
            adrs.set_tree(rng.next());
            adrs.set_type(AddressType::WotsHash);
            adrs.set_keypair(rng.next() as u32);
            adrs.set_chain(rng.next() as u32);
            let (start, mut steps) = match rng.below(8) {
                0 => (rng.below(w), 0),
                1 => (0, w - 1),
                _ => {
                    let start = rng.below(w);
                    (start, rng.below(w - start))
                }
            };
            let head = match rng.below(4) {
                0 | 1 => ChainHead::Node,
                which => ChainHead::Secret(&sk_seeds[which as usize - 2]),
            };
            if head != ChainHead::Node && rng.below(3) == 0 {
                steps = 0;
            }
            ChainJob {
                adrs,
                head,
                start,
                steps,
            }
        })
        .collect();
    let nodes = rng.bytes(count * params.n);
    (jobs, nodes)
}

fn random_seeds(params: &Params, rng: &mut Stream) -> [Vec<u8>; 2] {
    [(); 2].map(|()| rng.bytes(params.n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any number of chains up to two key pairs' worth and one more —
    /// every partial lane group of every body — with any heads, starts
    /// and step counts, equals the scalar chains under every tier.
    #[test]
    fn f_chains_matches_scalar_chain_under_every_tier(
        shape in 0usize..6,
        fill in 0u32..1000,
        seed in any::<u64>(),
    ) {
        let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let params = shapes()[shape];
        let count = 1 + (fill as usize * 2 * params.wots_len()) / 999;
        let mut rng = Stream(seed | 1);
        let pk_seed = rng.bytes(params.n);
        let ctx = HashCtx::new(params, &pk_seed);
        let sk_seeds = random_seeds(&params, &mut rng);
        let (jobs, nodes) = random_chains(&params, count, &sk_seeds, &mut rng);
        let expected = reference_chains(&ctx, &jobs, &nodes);
        for tier in tier::supported_sha256_tiers() {
            let mut got = nodes.clone();
            with_forced_tier(tier, || ctx.f_chains(&mut got, &jobs));
            prop_assert_eq!(
                &got, &expected,
                "{} w={} count={} under {}", params.name(), params.w, count, tier.label()
            );
        }
    }

    /// A subtree's leaves filled in one sweep equal the leaves computed
    /// one scalar chain at a time, whatever the leaf count leaves in the
    /// last lane group.
    #[test]
    fn pk_gen_many_matches_scalar_leaves_under_every_tier(
        shape in 0usize..5,
        leaves in 1usize..10,
        seed in any::<u64>(),
    ) {
        let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let params = shapes()[shape];
        let n = params.n;
        let mut rng = Stream(seed | 1);
        let pk_seed = rng.bytes(n);
        let sk_seed = rng.bytes(n);
        let ctx = HashCtx::new(params, &pk_seed);
        let (layer, tree) = (rng.below(22), rng.next());
        let adrs_list: Vec<Address> = (0..leaves as u32)
            .map(|leaf| {
                let mut adrs = Address::new();
                adrs.set_layer(layer);
                adrs.set_tree(tree);
                adrs.set_type(AddressType::WotsHash);
                adrs.set_keypair(leaf);
                adrs
            })
            .collect();
        let expected: Vec<u8> = adrs_list
            .iter()
            .flat_map(|adrs| reference::wots_pk_gen(&ctx, &sk_seed, adrs))
            .collect();
        for tier in tier::supported_sha256_tiers() {
            with_forced_tier(tier, || {
                let mut many = vec![0u8; leaves * n];
                wots::pk_gen_many(&ctx, &sk_seed, &adrs_list, &mut many);
                prop_assert_eq!(&many, &expected, "pk_gen_many under {}", tier.label());
                let mut filled = vec![0u8; leaves * n];
                let subtree = hypertree::SubtreeItem {
                    layer,
                    tree_idx: tree,
                    leaf_idx: 0,
                };
                hypertree::wots_leaves_many_into(&ctx, &sk_seed, &[subtree], &mut filled);
                prop_assert_eq!(&filled, &expected, "wots_leaves_many_into under {}", tier.label());
                for (adrs, leaf) in adrs_list.iter().zip(expected.chunks_exact(n)) {
                    let mut lone = vec![0u8; n];
                    wots::pk_gen_many(&ctx, &sk_seed, std::slice::from_ref(adrs), &mut lone);
                    prop_assert_eq!(&lone[..], leaf);
                }
            });
        }
    }
}

/// SHAKE-256 and SHA-512 go through the same entry point, with the
/// round loop behind it.
#[test]
fn f_chains_matches_scalar_chain_for_the_other_primitives() {
    let mut rng = Stream(0x5eed);
    for alg in [HashAlg::Shake256, HashAlg::Sha512] {
        for params in shapes() {
            let ctx = HashCtx::with_alg(params, &vec![7u8; params.n], alg);
            let sk_seeds = random_seeds(&params, &mut rng);
            let (jobs, nodes) = random_chains(&params, params.wots_len() + 3, &sk_seeds, &mut rng);
            let mut got = nodes.clone();
            ctx.f_chains(&mut got, &jobs);
            assert_eq!(
                got,
                reference_chains(&ctx, &jobs, &nodes),
                "{alg:?} {} w={}",
                params.name(),
                params.w
            );
        }
    }
}

/// A call longer than the kernel sorts at once: the chains are grouped
/// window by window and land where their jobs are.
#[test]
fn f_chains_sorts_long_calls_in_windows() {
    let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = Params::sphincs_128f();
    let mut rng = Stream(0xd1ce);
    let ctx = HashCtx::new(params, &[3u8; 16]);
    let sk_seeds = random_seeds(&params, &mut rng);
    // Two of the kernel's windows (16 keys of 67 chains each) and a bit.
    let (jobs, nodes) = random_chains(&params, 2 * 16 * 67 + 37, &sk_seeds, &mut rng);
    let expected = reference_chains(&ctx, &jobs, &nodes);
    for tier in tier::supported_sha256_tiers() {
        let mut got = nodes.clone();
        with_forced_tier(tier, || ctx.f_chains(&mut got, &jobs));
        assert_eq!(got, expected, "under {}", tier.label());
    }
}

/// Nothing to do is not an error: no chains, and chains of no steps.
#[test]
fn f_chains_accepts_empty_work() {
    let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = Params::sphincs_128f();
    let ctx = HashCtx::new(params, &[7u8; 16]);
    for tier in tier::supported_sha256_tiers() {
        with_forced_tier(tier, || {
            ctx.f_chains(&mut [], &[]);
            let mut node = [0xA5u8; 16];
            let idle = ChainJob {
                adrs: Address::new(),
                head: ChainHead::Node,
                start: 9,
                steps: 0,
            };
            ctx.f_chains(&mut node, &[idle]);
            assert_eq!(node, [0xA5u8; 16]);
        });
    }
}
