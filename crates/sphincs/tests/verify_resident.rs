//! The batched verification entry points ([`fors::pk_from_sig_many`],
//! [`hypertree::xmss_pk_from_sig_many`]) held byte-identical to
//! [`reference::fors_pk_from_sig`] and [`reference::xmss_pk_from_sig`],
//! one `F` / `H` / `T_l` at a time, under every ISA tier the host
//! supports. Forcing a SHA-256 tier forces the resident ladder's too
//! (`sha-ni`, which has no body there, selects the ladder's best), so
//! walking the SHA-256 tiers walks both widths of the lane = tree climb
//! and the lane = signature ascent, and the level sweep. `hero-sphincs`
//! is built optimised under `cargo test` too (the root `Cargo.toml`), so
//! the bodies run here as they ship, at every group width.
//!
//! Neither side checks a signature against a key — both recompute a root
//! from whatever they are given — so the signatures here are random
//! bytes of the right shape: any `n`, any `w`, full-size forests, and
//! nothing to sign first.

use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::fors::{self, ForsSignature, ForsTreeSig};
use hero_sphincs::hash::{HashAlg, HashCtx};
use hero_sphincs::hypertree::{self, XmssSig, XmssVerifyRequest};
use hero_sphincs::params::Params;
use hero_sphincs::reference;
use hero_sphincs::tier;
use hero_sphincs::Nodes;

mod common;
use common::{with_forced_tier, Stream, TIER_LOCK};

/// Requests per case: two of the widest lane = signature groups and one
/// more, so that every width on either side of the selection, a last
/// group filled in part and a 17th signature all occur. A case is cut to
/// every count from none to all of them.
const REQUESTS: usize = 33;

/// Every node width (one- and two-block `H`; `T_len` over 35, 51 and 67
/// chain ends at `w = 16`) at both ends of `w` and in the middle.
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

/// A tree index with both ends of the range over-represented.
fn random_tree(rng: &mut Stream) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => (1 << 63) - 1,
        _ => rng.next() >> 1,
    }
}

fn random_nodes(count: usize, n: usize, rng: &mut Stream) -> Nodes {
    Nodes::from_bytes(n, (0..count).flat_map(|_| rng.bytes(n)).collect())
}

/// One FORS verification: a signature, the digest that picks its leaves,
/// and where its forest stands.
struct ForsCase {
    sig: ForsSignature,
    md: Vec<u8>,
    keypair_adrs: Address,
}

fn random_fors_case(params: &Params, rng: &mut Stream) -> ForsCase {
    let trees = (0..params.k)
        .map(|_| ForsTreeSig {
            sk: rng.bytes(params.n),
            auth_path: random_nodes(params.log_t, params.n, rng),
        })
        .collect();
    let mut keypair_adrs = Address::new();
    keypair_adrs.set_tree(random_tree(rng));
    keypair_adrs.set_type(AddressType::ForsTree);
    keypair_adrs.set_keypair(rng.next() as u32);
    ForsCase {
        sig: ForsSignature { trees },
        md: rng.bytes((params.k * params.log_t).div_ceil(8)),
        keypair_adrs,
    }
}

fn fors_oracle(ctx: &HashCtx, cases: &[ForsCase]) -> Vec<Vec<u8>> {
    cases
        .iter()
        .map(|case| reference::fors_pk_from_sig(ctx, &case.sig, &case.md, &case.keypair_adrs))
        .collect()
}

fn fors_many(ctx: &HashCtx, cases: &[ForsCase]) -> Vec<Vec<u8>> {
    let sigs: Vec<&ForsSignature> = cases.iter().map(|case| &case.sig).collect();
    let mds: Vec<&[u8]> = cases.iter().map(|case| case.md.as_slice()).collect();
    let adrs: Vec<Address> = cases.iter().map(|case| case.keypair_adrs).collect();
    fors::pk_from_sig_many(ctx, &sigs, &mds, &adrs)
}

/// One XMSS layer verification: the layer's signature, the node it
/// covers, and where its tree stands.
struct XmssCase {
    sig: XmssSig,
    msg: Vec<u8>,
    tree: u64,
    leaf_idx: u32,
}

fn random_xmss_case(params: &Params, rng: &mut Stream) -> XmssCase {
    let leaves = params.subtree_leaves() as u32;
    XmssCase {
        sig: XmssSig {
            wots_sig: random_nodes(params.wots_len(), params.n, rng),
            auth_path: random_nodes(params.tree_height(), params.n, rng),
        },
        // A zero or an all-ones digit now and then: a chain of `w − 1`
        // steps, a chain of none.
        msg: match rng.below(8) {
            0 => vec![0; params.n],
            1 => vec![0xff; params.n],
            _ => rng.bytes(params.n),
        },
        tree: random_tree(rng),
        leaf_idx: match rng.below(4) {
            0 => 0,
            1 => leaves - 1,
            _ => rng.below(leaves),
        },
    }
}

fn xmss_oracle(ctx: &HashCtx, layer: u32, cases: &[XmssCase]) -> Vec<Vec<u8>> {
    cases
        .iter()
        .map(|c| reference::xmss_pk_from_sig(ctx, &c.sig, &c.msg, layer, c.tree, c.leaf_idx))
        .collect()
}

fn xmss_many(ctx: &HashCtx, layer: u32, cases: &[XmssCase]) -> Vec<Vec<u8>> {
    let reqs: Vec<XmssVerifyRequest> = cases
        .iter()
        .map(|c| XmssVerifyRequest {
            sig: &c.sig,
            msg: &c.msg,
            tree: c.tree,
            leaf_idx: c.leaf_idx,
        })
        .collect();
    hypertree::xmss_pk_from_sig_many(ctx, layer, &reqs)
}

/// Every request count up to [`REQUESTS`], every shape, every tier: the
/// first `count` answers of the batched entry points are the scalar ones.
#[test]
fn every_width_of_every_shape_matches_scalar_under_every_tier() {
    let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Stream(0x00a5_ce47);
    for params in shapes() {
        let ctx = HashCtx::new(params, &rng.bytes(params.n));
        let layer = rng.below(params.d as u32);
        let fors_cases: Vec<ForsCase> = (0..REQUESTS)
            .map(|_| random_fors_case(&params, &mut rng))
            .collect();
        let xmss_cases: Vec<XmssCase> = (0..REQUESTS)
            .map(|_| random_xmss_case(&params, &mut rng))
            .collect();
        let fors_expected = fors_oracle(&ctx, &fors_cases);
        let xmss_expected = xmss_oracle(&ctx, layer, &xmss_cases);
        for tier in tier::supported_sha256_tiers() {
            with_forced_tier(tier, || {
                for count in 0..=REQUESTS {
                    let what = format!(
                        "{} w={} count={count} under {}",
                        params.name(),
                        params.w,
                        tier.label()
                    );
                    assert_eq!(
                        fors_many(&ctx, &fors_cases[..count]),
                        fors_expected[..count],
                        "FORS, {what}"
                    );
                    assert_eq!(
                        xmss_many(&ctx, layer, &xmss_cases[..count]),
                        xmss_expected[..count],
                        "XMSS, {what}"
                    );
                }
            });
        }
    }
}

/// Every leaf index of a tree — every pattern of left and right on the
/// way up — in every lane of a group, for both kinds of climb.
#[test]
fn every_leaf_index_matches_scalar_under_every_tier() {
    let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Stream(0x1eaf);
    for set in Params::fast_sets() {
        let mut params = set;
        (params.h, params.d, params.log_t, params.k) = (20, 5, 4, 5);
        params.validate().expect("a shape the library accepts");
        let ctx = HashCtx::new(params, &rng.bytes(params.n));
        let t = params.t() as u32;

        // Request `r`'s tree `j` reveals leaf `(r + j) mod t`: over `t`
        // requests every tree sees every leaf.
        let fors_cases: Vec<ForsCase> = (0..t)
            .map(|r| {
                let mut case = random_fors_case(&params, &mut rng);
                let mut bits = 0u32;
                for j in 0..params.k as u32 {
                    bits = (bits << params.log_t) | ((r + j) % t);
                }
                // k · log_t = 20 bits, MSB first, in three bytes.
                case.md = (bits << 4).to_be_bytes()[1..].to_vec();
                assert_eq!(
                    fors::message_to_indices(&params, &case.md)[0],
                    r % t,
                    "the digest spells the indices"
                );
                case
            })
            .collect();
        let xmss_cases: Vec<XmssCase> = (0..2 * params.subtree_leaves() as u32)
            .map(|r| {
                let mut case = random_xmss_case(&params, &mut rng);
                case.leaf_idx = r % params.subtree_leaves() as u32;
                case
            })
            .collect();
        let fors_expected = fors_oracle(&ctx, &fors_cases);
        let xmss_expected = xmss_oracle(&ctx, 2, &xmss_cases);
        for tier in tier::supported_sha256_tiers() {
            with_forced_tier(tier, || {
                let what = format!("{} under {}", params.name(), tier.label());
                assert_eq!(fors_many(&ctx, &fors_cases), fors_expected, "FORS, {what}");
                assert_eq!(
                    xmss_many(&ctx, 2, &xmss_cases),
                    xmss_expected,
                    "XMSS, {what}"
                );
            });
        }
    }
}

/// One flipped bit in a revealed secret, in a chain node or in an
/// authentication node of either kind moves the recomputed root, and
/// moves the batched one to the same place — in a wide group and in one
/// the selection leaves on bytes.
#[test]
fn tampered_nodes_move_the_root_as_they_move_the_scalar_one() {
    let _turn = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Stream(0x7a3b);
    for set in Params::fast_sets() {
        let ctx = HashCtx::new(set, &rng.bytes(set.n));
        for count in [1usize, 5, 17] {
            let mut fors_cases: Vec<ForsCase> = (0..count)
                .map(|_| random_fors_case(&set, &mut rng))
                .collect();
            let mut xmss_cases: Vec<XmssCase> = (0..count)
                .map(|_| random_xmss_case(&set, &mut rng))
                .collect();
            let fors_clean = fors_oracle(&ctx, &fors_cases);
            let xmss_clean = xmss_oracle(&ctx, 0, &xmss_cases);

            let hit = count - 1;
            let tree = rng.below(set.k as u32) as usize;
            let level = rng.below(set.log_t as u32) as usize;
            let chain = rng.below(set.wots_len() as u32) as usize;
            let step = rng.below(set.tree_height() as u32) as usize;
            type Tamper = fn(&mut ForsCase, &mut XmssCase, [usize; 4]);
            let tampers: [(&str, Tamper); 4] = [
                ("FORS secret", |f, _, at| f.sig.trees[at[0]].sk[0] ^= 1),
                ("FORS path", |f, _, at| {
                    f.sig.trees[at[0]].auth_path[at[1]][3] ^= 0x10
                }),
                ("chain node", |_, x, at| x.sig.wots_sig[at[2]][1] ^= 0x80),
                ("XMSS path", |_, x, at| x.sig.auth_path[at[3]][2] ^= 4),
            ];
            for (what, tamper) in tampers {
                tamper(
                    &mut fors_cases[hit],
                    &mut xmss_cases[hit],
                    [tree, level, chain, step],
                );
                let fors_expected = fors_oracle(&ctx, &fors_cases);
                let xmss_expected = xmss_oracle(&ctx, 0, &xmss_cases);
                assert!(
                    fors_expected != fors_clean || xmss_expected != xmss_clean,
                    "{what}: a flipped bit moves a root"
                );
                for tier in tier::supported_sha256_tiers() {
                    with_forced_tier(tier, || {
                        let what = format!(
                            "{what}, {} count={count} under {}",
                            set.name(),
                            tier.label()
                        );
                        assert_eq!(fors_many(&ctx, &fors_cases), fors_expected, "{what}");
                        assert_eq!(xmss_many(&ctx, 0, &xmss_cases), xmss_expected, "{what}");
                    });
                }
                // Flip it back: the next tamper starts from clean.
                tamper(
                    &mut fors_cases[hit],
                    &mut xmss_cases[hit],
                    [tree, level, chain, step],
                );
            }
        }
    }
}

/// SHAKE-256 and SHA-512 go through the same entry points, with the
/// level sweep and the round loop behind them.
#[test]
fn the_other_primitives_match_scalar_through_the_same_entry_points() {
    let mut rng = Stream(0x5eed);
    for alg in [HashAlg::Shake256, HashAlg::Sha512] {
        for set in Params::fast_sets() {
            let ctx = HashCtx::with_alg(set, &rng.bytes(set.n), alg);
            let fors_cases: Vec<ForsCase> =
                (0..17).map(|_| random_fors_case(&set, &mut rng)).collect();
            let xmss_cases: Vec<XmssCase> =
                (0..17).map(|_| random_xmss_case(&set, &mut rng)).collect();
            let what = format!("{alg:?} {}", set.name());
            assert_eq!(
                fors_many(&ctx, &fors_cases),
                fors_oracle(&ctx, &fors_cases),
                "FORS, {what}"
            );
            assert_eq!(
                xmss_many(&ctx, 3, &xmss_cases),
                xmss_oracle(&ctx, 3, &xmss_cases),
                "XMSS, {what}"
            );
        }
    }
}
