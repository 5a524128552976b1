//! Per-tier byte-identity suite for the ISA ladder.
//!
//! The dispatch contract is that every tier — AVX2, SHA-NI, AVX-512,
//! NEON — produces bytes identical to the scalar reference on any host
//! that supports it; only throughput may differ. These tests enumerate
//! the tiers the host actually supports and drive each one three ways:
//!
//! 1. directly, through the `compress_x_with` / `permute_x_with` seams
//!    against the always-honored scalar tier (proptests over random
//!    states and blocks);
//! 2. end to end, by forcing the process-wide tier and replaying the
//!    SHA-256 / SHAKE-256 known-answer vectors plus hash-layer batches
//!    at every partial lane count (masked retirement);
//! 3. at full scheme scope, by re-running a pinned seed-era signature
//!    fixture under the forced scalar tier and under every tier that
//!    selects a body of the two lane-resident kernels (WOTS+ chains,
//!    fused FORS trees).
//!
//! Forcing the tier is process-global, but concurrent tests stay sound
//! precisely because of the property under test: all tiers are
//! byte-identical, so a racing force can change only which core runs,
//! never any asserted bytes.

use hero_sphincs::address::Address;
use hero_sphincs::hash::{HashAlg, HashCtx};
use hero_sphincs::keccak::{self, Shake256};
use hero_sphincs::params::Params;
use hero_sphincs::sha256::{self, Sha256};
use hero_sphincs::sign::keygen_from_seeds_with_alg;
use hero_sphincs::tier::{
    self, force_tier, restore_tier, supported_keccak_tiers, supported_sha256_tiers, HashTier,
    Primitive,
};
use proptest::prelude::*;

/// Runs `body` with the process-wide tier forced to `tier`, restoring
/// the previous resolution afterwards even on panic.
fn with_forced_tier<R>(tier: HashTier, body: impl FnOnce() -> R) -> R {
    struct Restore(tier::ActiveTiers);
    impl Drop for Restore {
        fn drop(&mut self) {
            restore_tier(self.0);
        }
    }
    let _guard = Restore(force_tier(tier));
    body()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every supported SHA-256 tier compresses 8 random lanes to the
    /// same bytes as the scalar reference.
    #[test]
    fn sha256_tiers_match_scalar(
        state_words in proptest::collection::vec(any::<u32>(), 64..65),
        blocks in proptest::collection::vec(any::<u8>(), 8 * 64..8 * 64 + 1),
    ) {
        let states: [[u32; 8]; 8] =
            std::array::from_fn(|l| std::array::from_fn(|w| state_words[l * 8 + w]));
        let block_refs: [&[u8; 64]; 8] =
            std::array::from_fn(|l| blocks[l * 64..(l + 1) * 64].try_into().unwrap());
        let mut reference = states;
        sha256::compress_x_with(HashTier::Scalar, &mut reference, &block_refs);
        for tier in supported_sha256_tiers() {
            let mut got = states;
            sha256::compress_x_with(tier, &mut got, &block_refs);
            prop_assert_eq!(got, reference, "sha256 tier {} diverged from scalar", tier.label());
        }
    }

    /// Every supported Keccak tier permutes 4 random lanes to the same
    /// bytes as the scalar reference — which itself must match the
    /// always-scalar single-state `keccak_f1600`.
    #[test]
    fn keccak_tiers_match_scalar(words in proptest::collection::vec(any::<u64>(), 100..101)) {
        let mut states = [[0u64; 4]; 25];
        for w in 0..25 {
            for l in 0..4 {
                states[w][l] = words[w * 4 + l];
            }
        }
        let mut reference = states;
        keccak::permute_x_with(HashTier::Scalar, &mut reference);
        // Cross-check the multi-lane scalar body against the scalar
        // single-state permutation, lane by lane.
        for l in 0..4 {
            let mut single: [u64; 25] = std::array::from_fn(|w| states[w][l]);
            keccak::keccak_f1600(&mut single);
            for w in 0..25 {
                prop_assert_eq!(single[w], reference[w][l]);
            }
        }
        for tier in supported_keccak_tiers() {
            let mut got = states;
            keccak::permute_x_with(tier, &mut got);
            prop_assert_eq!(got, reference, "keccak tier {} diverged from scalar", tier.label());
        }
    }

    /// Hash-layer batches stay byte-identical to the scalar one-at-a-time
    /// path under every supported tier, at every partial lane count —
    /// the masked-retirement shapes where unused lanes repeat work.
    #[test]
    fn batched_tweak_hashes_match_under_every_tier(
        seed in proptest::collection::vec(any::<u8>(), 16..17),
        count in 1usize..19,
    ) {
        for alg in [HashAlg::Sha256, HashAlg::Shake256] {
            let params = Params::sphincs_128f();
            let ctx = HashCtx::with_alg(params, &seed, alg);
            let n = params.n;
            let adrs: Vec<Address> = (0..count)
                .map(|i| {
                    let mut a = Address::new();
                    a.set_keypair(i as u32);
                    a
                })
                .collect();
            let msgs: Vec<u8> = (0..count * n).map(|i| (i % 251) as u8).collect();

            let mut scalar_out = vec![0u8; count * n];
            with_forced_tier(HashTier::Scalar, || {
                for i in 0..count {
                    scalar_out[i * n..(i + 1) * n].copy_from_slice(&ctx.f(&adrs[i], &msgs[i * n..(i + 1) * n]));
                }
            });

            let tiers = match alg {
                HashAlg::Shake256 => supported_keccak_tiers(),
                _ => supported_sha256_tiers(),
            };
            for tier in tiers {
                let mut out = vec![0u8; count * n];
                with_forced_tier(tier, || ctx.f_many(&adrs, &msgs, &mut out));
                prop_assert_eq!(
                    &out,
                    &scalar_out,
                    "{:?} f_many under tier {} diverged at count {}",
                    alg,
                    tier.label(),
                    count
                );
            }
        }
    }
}

/// FIPS 180-4 / FIPS 202 known-answer vectors replayed under every
/// supported tier forced process-wide: the dispatched scalar paths
/// (`compress`, sponge absorption) must keep producing the published
/// digests no matter which rung is active.
#[test]
fn kats_replay_under_every_forced_tier() {
    let mut tiers = supported_sha256_tiers();
    tiers.extend(supported_keccak_tiers());
    tiers.sort_by_key(|t| t.label());
    tiers.dedup();
    for tier in tiers {
        with_forced_tier(tier, || {
            // SHA-256 "abc" (FIPS 180-4 appendix B.1).
            assert_eq!(
                hex(&Sha256::digest(b"abc")),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "sha256 KAT failed under forced tier {}",
                tier.label()
            );
            // SHA-256 two-block message (FIPS 180-4 appendix B.2).
            assert_eq!(
                hex(&Sha256::digest(
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                )),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "sha256 two-block KAT failed under forced tier {}",
                tier.label()
            );
            // SHAKE-256 empty message, 32-byte output (FIPS 202 test vector).
            assert_eq!(
                hex(&Shake256::digest(b"", 32)),
                "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f",
                "shake256 empty KAT failed under forced tier {}",
                tier.label()
            );
            // SHAKE-256 "abc", 32-byte output.
            assert_eq!(
                hex(&Shake256::digest(b"abc", 32)),
                "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739",
                "shake256 abc KAT failed under forced tier {}",
                tier.label()
            );
        });
    }
}

/// The seed-era pinned signature stays byte-identical when the whole
/// scheme runs on the forced scalar tier — the fixture the
/// `HERO_HASH_TIER=scalar` CI leg re-checks across the full suite.
#[test]
fn pinned_signature_fixture_replays_under_forced_scalar() {
    assert_pinned_signature_fixture(HashTier::Scalar);
}

/// The same fixture under every tier the resident ladder has a body for:
/// keygen, signing and verification all walk their WOTS+ chains in it,
/// and signing builds its FORS trees in the fused body of the same width.
#[test]
fn pinned_signature_fixture_replays_under_every_forced_chain_tier() {
    for tier in tier::supported_tiers(Primitive::Sha256Chain) {
        assert_pinned_signature_fixture(tier);
    }
}

fn assert_pinned_signature_fixture(tier: HashTier) {
    with_forced_tier(tier, || {
        let mut params = Params::sphincs_128f();
        params.h = 6;
        params.d = 3;
        params.log_t = 4;
        params.k = 8;
        let n = params.n;
        let (sk, vk) = keygen_from_seeds_with_alg(
            params,
            HashAlg::Sha256,
            (0..n as u8).collect(),
            (100..100 + n as u8).collect(),
            (200..200 + n as u8).collect(),
        );
        let msg = b"seed-era fixture message";
        let sig = sk.sign(msg);
        vk.verify(msg, &sig).expect("fixture signature verifies");
        assert_eq!(
            hex(&Sha256::digest(&vk.to_bytes())),
            "0bdcee59d0c5d3b53140a64e70398ea26008a399b6bcc163a2fa3a564be65fe3",
            "public key drifted under forced tier {}",
            tier.label()
        );
        assert_eq!(
            hex(&Sha256::digest(&sig.to_bytes(&params))),
            "27ddf7ae9592344331ddb61d129e0690c533cffccf348c940984865556cfd578",
            "signature bytes drifted under forced tier {}",
            tier.label()
        );
    });
}

/// Verify verdicts on the pinned fixture are identical under every
/// supported forced tier — for the valid signature, a mismatched
/// message, and a tampered signature, through both the scalar
/// [`verify`](hero_sphincs::sign::VerifyingKey::verify) path and the
/// lane-batched [`verify_many`](hero_sphincs::sign::VerifyingKey::verify_many)
/// path. A rung may only change throughput, never a verdict. Forcing a
/// SHA-256 tier forces the WOTS+ chain kernel's body with it, so the
/// SHA-256 leg walks every chain body too.
#[test]
fn verify_verdicts_identical_under_every_forced_tier() {
    use hero_sphincs::sign::SignError;

    let mut params = Params::sphincs_128f();
    params.h = 6;
    params.d = 3;
    params.log_t = 4;
    params.k = 8;
    let n = params.n;
    for alg in [HashAlg::Sha256, HashAlg::Shake256] {
        let (sk, vk) = keygen_from_seeds_with_alg(
            params,
            alg,
            (0..n as u8).collect(),
            (100..100 + n as u8).collect(),
            (200..200 + n as u8).collect(),
        );
        let msg = b"seed-era fixture message".as_slice();
        let sig = sk.sign(msg);
        let mut tampered = sig.clone();
        tampered.randomizer[0] ^= 1;
        let wrong_msg = b"a different fixture message".as_slice();

        let tiers = match alg {
            HashAlg::Shake256 => supported_keccak_tiers(),
            _ => supported_sha256_tiers(),
        };
        for tier in tiers {
            with_forced_tier(tier, || {
                assert_eq!(
                    vk.verify(msg, &sig),
                    Ok(()),
                    "{alg:?}: valid fixture rejected under forced tier {}",
                    tier.label()
                );
                assert_eq!(
                    vk.verify(wrong_msg, &sig),
                    Err(SignError::VerificationFailed),
                    "{alg:?}: mismatched message accepted under forced tier {}",
                    tier.label()
                );
                assert_eq!(
                    vk.verify(msg, &tampered),
                    Err(SignError::VerificationFailed),
                    "{alg:?}: tampered signature accepted under forced tier {}",
                    tier.label()
                );
                let verdicts = vk.verify_many(&[msg, wrong_msg, msg], &[&sig, &sig, &tampered]);
                assert_eq!(
                    verdicts,
                    vec![
                        Ok(()),
                        Err(SignError::VerificationFailed),
                        Err(SignError::VerificationFailed),
                    ],
                    "{alg:?}: batched verdicts diverged under forced tier {}",
                    tier.label()
                );
            });
        }
    }
}

/// The ladder resolution itself: the active tiers are drawn from the
/// supported sets, and `description` names every primitive.
#[test]
fn resolved_tiers_are_supported() {
    let desc = tier::description();
    for primitive in Primitive::ALL {
        let active = tier::active(primitive);
        assert!(
            tier::supported_tiers(primitive).contains(&active),
            "resolved {} tier {} not in supported set",
            primitive.label(),
            active.label()
        );
        assert!(desc.contains(&format!("{}=", primitive.label())), "{desc}");
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
