//! Adversarial verification suite: region-targeted bit flips and bulk
//! verdict-agreement checks for the lane-batched verify path.
//!
//! Two properties, each across parameter shapes × hash algorithms:
//!
//! 1. **Every region rejects** — flipping one bit anywhere in a valid
//!    signature (randomizer, any FORS secret element, any FORS auth
//!    node, any WOTS+ chain at any layer, any XMSS auth node at any
//!    layer) must make the scalar [`reference::verify`], the
//!    lane-batched [`VerifyingKey::verify_many`] *and* its batch of one,
//!    [`VerifyingKey::verify`], reject it.
//! 2. **Bit-for-bit agreement** — over ten thousand random
//!    valid/mismatched/tampered `(message, signature)` mixes, all three
//!    return the same verdicts exactly (same `Result`, same typed
//!    error).
//!
//! [`VerifyingKey::verify`]: hero_sphincs::sign::VerifyingKey::verify
//! [`VerifyingKey::verify_many`]: hero_sphincs::sign::VerifyingKey::verify_many

use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::reference;
use hero_sphincs::sign::{SignError, Signature, SigningKey, VerifyingKey};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Reduced shapes spanning the three security sizes (n = 16 / 24 / 32)
/// with distinct tree geometry, so region offsets differ per shape.
fn shapes() -> Vec<(&'static str, Params)> {
    let mut tiny_128 = Params::sphincs_128f();
    tiny_128.h = 6;
    tiny_128.d = 3;
    tiny_128.log_t = 4;
    tiny_128.k = 8;
    let mut tiny_192 = Params::sphincs_192f();
    tiny_192.h = 4;
    tiny_192.d = 2;
    tiny_192.log_t = 3;
    tiny_192.k = 6;
    let mut tiny_256 = Params::sphincs_256f();
    tiny_256.h = 6;
    tiny_256.d = 2;
    tiny_256.log_t = 4;
    tiny_256.k = 5;
    vec![
        ("tiny-128", tiny_128),
        ("tiny-192", tiny_192),
        ("tiny-256", tiny_256),
    ]
}

const ALGS: [HashAlg; 2] = [HashAlg::Sha256, HashAlg::Shake256];

fn keypair(params: Params, alg: HashAlg, seed: u8) -> (SigningKey, VerifyingKey) {
    hero_sphincs::keygen_from_seeds_with_alg(
        params,
        alg,
        vec![seed; params.n],
        vec![seed.wrapping_add(1); params.n],
        vec![seed.wrapping_add(2); params.n],
    )
}

/// Uniform-enough draw in `0..n` (the vendored `rand` only exposes
/// `RngCore`; modulo bias is irrelevant for picking tamper positions).
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Flips one pseudo-random bit of `bytes`.
fn flip_random_bit(bytes: &mut [u8], rng: &mut StdRng) {
    let byte = below(rng, bytes.len());
    let bit = below(rng, 8);
    bytes[byte] ^= 1 << bit;
}

/// One tampered copy of `sig` per region of the signature, labeled.
fn tampered_per_region(
    sig: &Signature,
    params: &Params,
    rng: &mut StdRng,
) -> Vec<(String, Signature)> {
    let mut out = Vec::new();

    let mut s = sig.clone();
    flip_random_bit(&mut s.randomizer, rng);
    out.push(("randomizer".to_string(), s));

    for t in 0..params.k {
        let mut s = sig.clone();
        flip_random_bit(&mut s.fors.trees[t].sk, rng);
        out.push((format!("fors[{t}].sk"), s));

        let mut s = sig.clone();
        let node = below(rng, sig.fors.trees[t].auth_path.len());
        flip_random_bit(&mut s.fors.trees[t].auth_path[node], rng);
        out.push((format!("fors[{t}].auth[{node}]"), s));
    }

    for layer in 0..params.d {
        for chain in 0..sig.ht.layers[layer].wots_sig.len() {
            let mut s = sig.clone();
            flip_random_bit(&mut s.ht.layers[layer].wots_sig[chain], rng);
            out.push((format!("ht[{layer}].wots[{chain}]"), s));
        }
        for node in 0..sig.ht.layers[layer].auth_path.len() {
            let mut s = sig.clone();
            flip_random_bit(&mut s.ht.layers[layer].auth_path[node], rng);
            out.push((format!("ht[{layer}].auth[{node}]"), s));
        }
    }
    out
}

#[test]
fn every_region_bit_flip_rejects_scalar_and_batched() {
    for (name, params) in shapes() {
        for alg in ALGS {
            let mut rng = StdRng::seed_from_u64(0xADE5A1 ^ params.n as u64 ^ alg as u64);
            let (sk, vk) = keypair(params, alg, 40 + params.n as u8);
            let msg = format!("adversarial fixture {name} {alg:?}").into_bytes();
            let sig = sk.sign(&msg);
            reference::verify(&vk, &msg, &sig).expect("untampered fixture verifies");
            vk.verify(&msg, &sig)
                .expect("untampered fixture verifies alone");

            let tampered = tampered_per_region(&sig, &params, &mut rng);
            // Scalar, and the batch of one: every region flip must reject.
            for (region, s) in &tampered {
                assert_eq!(
                    reference::verify(&vk, &msg, s),
                    Err(SignError::VerificationFailed),
                    "{name}/{alg:?}: flip in {region} survived scalar verify"
                );
                assert_eq!(
                    vk.verify(&msg, s),
                    Err(SignError::VerificationFailed),
                    "{name}/{alg:?}: flip in {region} survived verify alone"
                );
            }
            // Lane-batched: the whole tampered set (plus the valid
            // original interleaved at both ends) in one call, verdicts
            // identical to scalar.
            let mut batch: Vec<&Signature> = vec![&sig];
            batch.extend(tampered.iter().map(|(_, s)| s));
            batch.push(&sig);
            let msgs: Vec<&[u8]> = vec![msg.as_slice(); batch.len()];
            let verdicts = vk.verify_many(&msgs, &batch);
            assert_eq!(verdicts[0], Ok(()), "{name}/{alg:?}: leading valid");
            assert_eq!(
                verdicts[batch.len() - 1],
                Ok(()),
                "{name}/{alg:?}: trailing valid"
            );
            for (i, (region, _)) in tampered.iter().enumerate() {
                assert_eq!(
                    verdicts[i + 1],
                    Err(SignError::VerificationFailed),
                    "{name}/{alg:?}: flip in {region} survived batched verify"
                );
            }
        }
    }
}

/// Ten thousand random valid / mismatched / bit-flipped pairs: batched
/// verdicts — of the whole mix and of each pair alone — equal scalar
/// verdicts exactly.
#[test]
fn ten_thousand_random_mixes_agree_bit_for_bit() {
    const FIXTURES: usize = 8;
    const MIXES: usize = 10_000;

    // One shape per run keeps this under test-suite time budgets while
    // the region test above covers the full shape × alg matrix.
    let mut params = Params::sphincs_128f();
    params.h = 6;
    params.d = 3;
    params.log_t = 4;
    params.k = 8;

    for alg in ALGS {
        let mut rng = StdRng::seed_from_u64(0x10_000 ^ alg as u64);
        let (sk, vk) = keypair(params, alg, 77);
        let fixtures: Vec<(Vec<u8>, Signature)> = (0..FIXTURES)
            .map(|i| {
                let msg = format!("mix fixture {i}").into_bytes();
                let sig = sk.sign(&msg);
                (msg, sig)
            })
            .collect();

        // Random mixes: valid pairs, mismatched (signature of another
        // message), and bit-flipped signatures — all structurally sound,
        // so every verdict is Ok or VerificationFailed, never Malformed.
        let mut msgs: Vec<&[u8]> = Vec::with_capacity(MIXES);
        let mut sigs: Vec<Signature> = Vec::with_capacity(MIXES);
        for _ in 0..MIXES {
            let m = below(&mut rng, FIXTURES);
            match below(&mut rng, 3) {
                0 => {
                    msgs.push(&fixtures[m].0);
                    sigs.push(fixtures[m].1.clone());
                }
                1 => {
                    let other = (m + 1 + below(&mut rng, FIXTURES - 1)) % FIXTURES;
                    msgs.push(&fixtures[m].0);
                    sigs.push(fixtures[other].1.clone());
                }
                _ => {
                    let mut s = fixtures[m].1.clone();
                    let mut bytes = s.to_bytes(&params);
                    flip_random_bit(&mut bytes, &mut rng);
                    s = Signature::from_bytes(&params, &bytes).unwrap();
                    msgs.push(&fixtures[m].0);
                    sigs.push(s);
                }
            }
        }

        let sig_refs: Vec<&Signature> = sigs.iter().collect();
        let batched = vk.verify_many(&msgs, &sig_refs);
        assert_eq!(batched.len(), MIXES);
        let mut valid = 0usize;
        for i in 0..MIXES {
            let scalar = reference::verify(&vk, msgs[i], &sigs[i]);
            assert_eq!(
                batched[i], scalar,
                "{alg:?}: mix {i} diverged between batched and scalar"
            );
            assert_eq!(
                vk.verify(msgs[i], &sigs[i]),
                scalar,
                "{alg:?}: mix {i} diverged between a batch of one and scalar"
            );
            if scalar.is_ok() {
                valid += 1;
            }
        }
        // Sanity: the mix really was mixed.
        assert!(valid > MIXES / 10, "{alg:?}: too few valid mixes ({valid})");
        assert!(
            valid < MIXES * 9 / 10,
            "{alg:?}: too few tampered mixes ({})",
            MIXES - valid
        );
    }
}
