//! The FORS tree entry point ([`fors::tree_hash_many`]) held
//! byte-identical — root, revealed secret and every authentication node
//! — to [`reference::fors_tree`] and [`reference::fors_sk`], which build
//! a tree one `PRF`, `F` and `H` at a time, under every ISA tier the host
//! supports. Forcing a SHA-256 tier forces the
//! resident ladder's too (`sha-ni`, which has no body there, selects the
//! ladder's best), so walking the SHA-256 tiers walks both fused bodies
//! and the level-by-level sweep.

use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::fors::{self, ForsTreeRequest};
use hero_sphincs::hash::{HashAlg, HashCtx};
use hero_sphincs::params::Params;
use hero_sphincs::reference;
use hero_sphincs::tier;
use proptest::prelude::*;

mod common;
use common::{with_forced_tier, Stream, TIER_LOCK};

/// Tree heights from the shortest a parameter set may have to the
/// tallest a fast set has: a lane's treehash stack at every depth, one
/// and two compressions per `H`, trees shorter than a last group can cut
/// them.
const LOG_T: [usize; 8] = [1, 2, 3, 4, 5, 6, 8, 9];

/// Every node width at tree height `log_t`.
fn shape(width: usize, log_t: usize) -> Params {
    let mut params = Params::fast_sets()[width];
    params.log_t = log_t;
    params.validate().expect("a shape the library accepts");
    params
}

/// `count` trees of as many messages as come out: layer-0 tree indices
/// with both ends of the range over-represented, any key pair, any tree
/// of the forest, and the first and last leaf revealed as often as all
/// the others together.
fn random_requests(params: &Params, count: usize, rng: &mut Stream) -> Vec<ForsTreeRequest> {
    let t = params.t() as u32;
    (0..count)
        .map(|_| {
            let mut keypair_adrs = Address::new();
            keypair_adrs.set_tree(match rng.below(4) {
                0 => 0,
                1 => (1 << 63) - 1,
                _ => rng.next() >> 1,
            });
            keypair_adrs.set_type(AddressType::ForsTree);
            keypair_adrs.set_keypair(rng.next() as u32);
            ForsTreeRequest {
                keypair_adrs,
                tree_idx: rng.below(params.k as u32),
                leaf_idx: match rng.below(4) {
                    0 => 0,
                    1 => t - 1,
                    _ => rng.below(t),
                },
            }
        })
        .collect()
}

/// Holds `tree_hash_many` over `reqs` to the reference, request by
/// request.
fn assert_matches_oracles(ctx: &HashCtx, sk_seed: &[u8], reqs: &[ForsTreeRequest], what: &str) {
    let n = ctx.params().n;
    let mut roots = vec![0u8; reqs.len() * n];
    let many = fors::tree_hash_many(ctx, sk_seed, reqs, &mut roots);
    assert_eq!(many.len(), reqs.len(), "{what}");
    let each = reqs.iter().zip(&many).zip(roots.chunks_exact(n));
    for (i, ((req, sig), root)) in each.enumerate() {
        let (adrs, tree, leaf) = (&req.keypair_adrs, req.tree_idx, req.leaf_idx);
        let (oracle_root, oracle_path) = reference::fors_tree(ctx, sk_seed, adrs, tree, leaf);
        assert_eq!(root, oracle_root, "{what}: root of request {i}");
        assert_eq!(sig.auth_path, oracle_path, "{what}: path of request {i}");
        assert_eq!(
            sig.sk,
            reference::fors_sk(ctx, sk_seed, adrs, tree, leaf),
            "{what}: secret of request {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any number of trees up to two of the widest groups and one more —
    /// every full and every partly filled group of every body, however
    /// the latter is shared out — from any mix of messages, equals the
    /// reference under every tier.
    #[test]
    fn tree_hash_many_matches_the_oracles_under_every_tier(
        width in 0usize..3,
        height in 0usize..LOG_T.len(),
        count in 1usize..=2 * fors::FUSED_TREES + 1,
        seed in any::<u64>(),
    ) {
        let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let params = shape(width, LOG_T[height]);
        let mut rng = Stream(seed | 1);
        let ctx = HashCtx::new(params, &rng.bytes(params.n));
        let sk_seed = rng.bytes(params.n);
        let reqs = random_requests(&params, count, &mut rng);
        for tier in tier::supported_sha256_tiers() {
            let what = format!(
                "{} log_t={} count={count} under {}",
                params.name(), params.log_t, tier.label()
            );
            with_forced_tier(tier, || assert_matches_oracles(&ctx, &sk_seed, &reqs, &what));
        }
    }
}

/// Every count from one tree to two of the widest groups and one more on
/// the shape the other suites sign with, so that no way of sharing out a
/// last group goes by unvisited on a given run.
#[test]
fn every_partial_group_matches_the_oracles_under_every_tier() {
    let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut params = Params::sphincs_128f();
    (params.h, params.d, params.log_t, params.k) = (6, 3, 4, 8);
    params.validate().expect("the reduced shape");
    let mut rng = Stream(0xf0_4e57);
    let ctx = HashCtx::new(params, &rng.bytes(params.n));
    let sk_seed = rng.bytes(params.n);
    let reqs = random_requests(&params, 2 * fors::FUSED_TREES + 1, &mut rng);
    for tier in tier::supported_sha256_tiers() {
        with_forced_tier(tier, || {
            for count in 0..=reqs.len() {
                let what = format!("count={count} under {}", tier.label());
                assert_matches_oracles(&ctx, &sk_seed, &reqs[..count], &what);
            }
        });
    }
}

/// SHAKE-256 and SHA-512 go through the same entry point, with the
/// level-by-level sweep behind it.
#[test]
fn tree_hash_many_matches_the_oracles_for_the_other_primitives() {
    let mut rng = Stream(0x5eed);
    for alg in [HashAlg::Shake256, HashAlg::Sha512] {
        for (width, log_t) in [(0, 6), (1, 3), (2, 4)] {
            let params = shape(width, log_t);
            let ctx = HashCtx::with_alg(params, &rng.bytes(params.n), alg);
            let sk_seed = rng.bytes(params.n);
            let reqs = random_requests(&params, fors::FUSED_TREES + 3, &mut rng);
            let what = format!("{alg:?} {} log_t={log_t}", params.name());
            assert_matches_oracles(&ctx, &sk_seed, &reqs, &what);
        }
    }
}
