//! The engine held to the scalar second implementation, end to end.
//!
//! `perfbench` counts a signature as failed when it differs from
//! `SigningKey::sign` — which shares the fused FORS body, the leaf and
//! chain kernels and the tree builder with the engine it checks. This is
//! the same check against something that shares none of them:
//! [`hero_sphincs::reference`]. A full-size 128f batch, signed cold (every
//! subtree built and published) and again warm (the memoized layers
//! sliced from the cache), must equal `reference::sign` message by
//! message, and `reference::verify` must accept each signature and reject
//! it with one bit flipped in any of its regions. The batch is the
//! benchmark's, 64 messages: `hero-sphincs` is built optimised under
//! `cargo test` too (the root `Cargo.toml`), so both sides run as they
//! ship.

use hero_gpu_sim::device::rtx_4090;
use hero_sign::{HeroSigner, VerifyOutcome};
use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{keygen_from_seeds_with_alg, SignError, Signature};
use hero_sphincs::{reference, Nodes, SigningKey, VerifyingKey};

fn keypair(params: Params, alg: HashAlg) -> (SigningKey, VerifyingKey) {
    let n = params.n;
    keygen_from_seeds_with_alg(params, alg, vec![0x11; n], vec![0x22; n], vec![0x33; n])
}

/// Messages of every length from none to two SHA-256 blocks and a bit.
fn messages(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| (0..i * 137 / count).map(|b| (b ^ i) as u8).collect())
        .collect()
}

/// `sig` with bit `i mod 8` of one node flipped in each region in turn:
/// the randomizer, a FORS secret, a FORS authentication node, a WOTS+
/// chain node and an XMSS authentication node, the tree, layer and node
/// walking with `i`.
fn flipped_per_region(sig: &Signature, i: usize) -> [(&'static str, Signature); 5] {
    let bit = 1u8 << (i % 8);
    let tree = i % sig.fors.trees.len();
    let layer = i % sig.ht.layers.len();
    let mut flips = [
        "randomizer",
        "FORS secret",
        "FORS path",
        "WOTS+ node",
        "XMSS path",
    ]
    .map(|region| (region, sig.clone()));
    // Node `i` of a list, walking with `i` too.
    let pick = |nodes: &mut Nodes| {
        let at = i % nodes.len();
        nodes[at][0] ^= bit;
    };
    flips[0].1.randomizer[0] ^= bit;
    flips[1].1.fors.trees[tree].sk[0] ^= bit;
    pick(&mut flips[2].1.fors.trees[tree].auth_path);
    pick(&mut flips[3].1.ht.layers[layer].wots_sig);
    pick(&mut flips[4].1.ht.layers[layer].auth_path);
    flips
}

#[test]
fn full_size_batches_cold_and_warm_are_the_reference_bytes() {
    let params = Params::sphincs_128f();
    let (sk, vk) = keypair(params, HashAlg::Sha256);
    let msgs = messages(64);
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let expected: Vec<Signature> = refs.iter().map(|m| reference::sign(&sk, m)).collect();

    let engine = HeroSigner::builder(rtx_4090(), params).build().unwrap();
    let cold = engine.sign_batch(&sk, &refs).unwrap();
    let after_cold = engine.cache_stats();
    assert_eq!(after_cold.hits, 0, "nothing was resident");
    assert!(
        after_cold.resident_subtrees > 0,
        "the upper layers were kept"
    );
    let warm = engine.sign_batch(&sk, &refs).unwrap();
    assert!(
        engine.cache_stats().hits > 0,
        "the second batch sliced them"
    );
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(&cold[i], want, "cold, message {i}");
        assert_eq!(&warm[i], want, "warm, message {i}");
    }

    // The reference accepts every signature and rejects a flip in every
    // region; the engine's planned verifier says the same of all of them.
    let mut corpus: Vec<(&[u8], Signature, bool)> = Vec::new();
    for (i, (msg, sig)) in refs.iter().zip(cold).enumerate() {
        reference::verify(&vk, msg, &sig).unwrap_or_else(|e| panic!("message {i}: {e}"));
        for (region, bad) in flipped_per_region(&sig, i) {
            assert_eq!(
                reference::verify(&vk, msg, &bad),
                Err(SignError::VerificationFailed),
                "message {i}: a flip in the {region} survived"
            );
            corpus.push((msg, bad, false));
        }
        corpus.push((msg, sig, true));
    }
    let corpus_msgs: Vec<&[u8]> = corpus.iter().map(|(msg, ..)| *msg).collect();
    let corpus_sigs: Vec<Signature> = corpus.iter().map(|(_, sig, _)| sig.clone()).collect();
    let outcomes = engine
        .verify_batch(&vk, &corpus_msgs, &corpus_sigs)
        .unwrap();
    for (i, (outcome, (.., valid))) in outcomes.iter().zip(&corpus).enumerate() {
        let want = if *valid {
            VerifyOutcome::Valid
        } else {
            VerifyOutcome::Invalid
        };
        assert_eq!(*outcome, want, "corpus entry {i}");
    }
}

#[test]
fn both_hash_families_cold_and_warm_are_the_reference_bytes() {
    for (alg, mut params) in [
        (HashAlg::Sha256, Params::sphincs_128f()),
        (HashAlg::Shake256, Params::shake_128f()),
    ] {
        (params.h, params.d, params.log_t, params.k) = (6, 3, 4, 8);
        let (sk, vk) = keypair(params, alg);
        let msgs: [&[u8]; 3] = [b"planned one", b"planned two", b"planned three"];
        let expected: Vec<Signature> = msgs.iter().map(|m| reference::sign(&sk, m)).collect();
        let engine = HeroSigner::builder(rtx_4090(), params).build().unwrap();
        for state in ["cold", "warm"] {
            let sigs = engine.sign_batch(&sk, &msgs).unwrap();
            assert_eq!(sigs, expected, "{alg:?} {state}");
            for (msg, sig) in msgs.iter().zip(&sigs) {
                reference::verify(&vk, msg, sig).unwrap();
            }
        }
        // The reduced shape memoizes every layer: warm served them all.
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, (msgs.len() * params.d) as u64, "{alg:?}");
    }
}
