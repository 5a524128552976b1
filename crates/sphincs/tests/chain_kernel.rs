//! The WOTS+ chain entry point ([`HashCtx::f_chains`]) and the sweeps
//! built on it, held byte-identical to the scalar oracle
//! ([`wots::chain`], one `f_into` per step) under every ISA tier the
//! host supports. Forcing a SHA-256 tier forces the chain kernel's too
//! (`sha-ni`, which has no chain body, selects the ladder's best), so
//! walking the SHA-256 tiers walks every chain body and the round loop.
//!
//! Forcing a tier is process-global, so the tests of this file take
//! turns ([`TIER_LOCK`]): each one then really runs the body it names.

use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::hash::{ChainJob, HashAlg, HashCtx};
use hero_sphincs::params::Params;
use hero_sphincs::tier::{self, HashTier};
use hero_sphincs::{hypertree, wots};
use proptest::prelude::*;
use std::sync::Mutex;

static TIER_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` with every primitive forced to `tier`.
fn with_forced_tier<R>(tier: HashTier, body: impl FnOnce() -> R) -> R {
    struct Restore(tier::ActiveTiers);
    impl Drop for Restore {
        fn drop(&mut self) {
            tier::restore_tier(self.0);
        }
    }
    let _guard = Restore(tier::force_tier(tier));
    body()
}

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

/// xorshift64*: the tests' own stream, so a case is its seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u32) -> u32 {
        (self.next() % bound as u64) as u32
    }
}

/// `count` chains with random coordinates and nodes; starts and step
/// counts cover `0..w` with both extremes over-represented.
fn random_chains(params: &Params, count: usize, rng: &mut Stream) -> (Vec<ChainJob>, Vec<u8>) {
    let w = params.w as u32;
    let jobs = (0..count)
        .map(|_| {
            let mut adrs = Address::new();
            adrs.set_layer(rng.below(256));
            adrs.set_tree(rng.next());
            adrs.set_type(AddressType::WotsHash);
            adrs.set_keypair(rng.next() as u32);
            adrs.set_chain(rng.next() as u32);
            let (start, steps) = match rng.below(8) {
                0 => (rng.below(w), 0),
                1 => (0, w - 1),
                _ => {
                    let start = rng.below(w);
                    (start, rng.below(w - start))
                }
            };
            ChainJob { adrs, start, steps }
        })
        .collect();
    let nodes = (0..count * params.n).map(|_| rng.next() as u8).collect();
    (jobs, nodes)
}

/// What `f_chains` must produce, one scalar chain at a time.
fn oracle(ctx: &HashCtx, jobs: &[ChainJob], nodes: &[u8]) -> Vec<u8> {
    let n = ctx.params().n;
    jobs.iter()
        .zip(nodes.chunks_exact(n))
        .flat_map(|(job, node)| {
            let mut adrs = job.adrs;
            wots::chain(ctx, node, job.start, job.steps, &mut adrs)
        })
        .collect()
}

/// The WOTS+ public key of the key pair at `adrs`, from the scalar
/// pieces only.
fn oracle_pk(ctx: &HashCtx, sk_seed: &[u8], adrs: &Address) -> Vec<u8> {
    let params = *ctx.params();
    let ends: Vec<Vec<u8>> = (0..params.wots_len() as u32)
        .map(|i| {
            let secret = wots::sk_element(ctx, sk_seed, adrs, i);
            let mut hash_adrs = *adrs;
            hash_adrs.set_type(AddressType::WotsHash);
            hash_adrs.set_keypair(adrs.keypair());
            hash_adrs.set_chain(i);
            wots::chain(ctx, &secret, 0, params.w as u32 - 1, &mut hash_adrs)
        })
        .collect();
    let mut pk_adrs = *adrs;
    pk_adrs.set_type(AddressType::WotsPk);
    pk_adrs.set_keypair(adrs.keypair());
    let parts: Vec<&[u8]> = ends.iter().map(Vec::as_slice).collect();
    ctx.t_l(&pk_adrs, &parts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any number of chains up to two key pairs' worth and one more —
    /// every partial lane group of every body — with any starts and
    /// step counts, equals the scalar chains under every tier.
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
        let pk_seed: Vec<u8> = (0..params.n).map(|_| rng.next() as u8).collect();
        let ctx = HashCtx::new(params, &pk_seed);
        let (jobs, nodes) = random_chains(&params, count, &mut rng);
        let expected = oracle(&ctx, &jobs, &nodes);
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
        let pk_seed: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
        let sk_seed: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
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
            .flat_map(|adrs| oracle_pk(&ctx, &sk_seed, adrs))
            .collect();
        for tier in tier::supported_sha256_tiers() {
            with_forced_tier(tier, || {
                let mut many = vec![0u8; leaves * n];
                wots::pk_gen_many(&ctx, &sk_seed, &adrs_list, &mut many);
                prop_assert_eq!(&many, &expected, "pk_gen_many under {}", tier.label());
                let mut filled = vec![0u8; leaves * n];
                hypertree::wots_leaves_into(&ctx, &sk_seed, layer, tree, &mut filled);
                prop_assert_eq!(&filled, &expected, "wots_leaves_into under {}", tier.label());
                for (adrs, leaf) in adrs_list.iter().zip(expected.chunks_exact(n)) {
                    prop_assert_eq!(&wots::pk_gen(&ctx, &sk_seed, adrs)[..], leaf);
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
            let (jobs, nodes) = random_chains(&params, params.wots_len() + 3, &mut rng);
            let mut got = nodes.clone();
            ctx.f_chains(&mut got, &jobs);
            assert_eq!(
                got,
                oracle(&ctx, &jobs, &nodes),
                "{alg:?} {} w={}",
                params.name(),
                params.w
            );
        }
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
                start: 9,
                steps: 0,
            };
            ctx.f_chains(&mut node, &[idle]);
            assert_eq!(node, [0xA5u8; 16]);
        });
    }
}
