//! Functional cross-crate tests: the HERO engine's three-kernel signing
//! must be bit-identical to the hero-sphincs reference for every
//! (reduced) parameter shape, and all serialization must round-trip.

use hero_gpu_sim::device::rtx_4090;
use hero_sign::HeroSigner;
use hero_sphincs::params::Params;
use hero_sphincs::sign::SignError;
use hero_sphincs::Signature;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reduced parameter shapes covering all three security widths and both
/// even/odd structure corners.
fn test_shapes() -> Vec<Params> {
    let mut shapes = Vec::new();

    let mut p = Params::sphincs_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    shapes.push(p);

    let mut p = Params::sphincs_192f();
    p.h = 4;
    p.d = 2;
    p.log_t = 3;
    p.k = 5;
    shapes.push(p);

    let mut p = Params::sphincs_256f();
    p.h = 4;
    p.d = 2;
    p.log_t = 4;
    p.k = 6;
    shapes.push(p);

    shapes
}

#[test]
fn hero_engine_matches_reference_all_widths() {
    for params in test_shapes() {
        let mut rng = StdRng::seed_from_u64(params.n as u64);
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).expect("keygen");
        let engine = HeroSigner::builder(rtx_4090(), params).build().unwrap();
        let msg = b"equivalence across kernel decompositions";
        let hero_sig = engine.sign(&sk, msg).unwrap();
        assert_eq!(hero_sig, sk.sign(msg), "{}", params.name());
        vk.verify(msg, &hero_sig)
            .unwrap_or_else(|e| panic!("{}: {e}", params.name()));
    }
}

#[test]
fn serialized_signatures_cross_verify() {
    for params in test_shapes() {
        let mut rng = StdRng::seed_from_u64(17);
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let engine = HeroSigner::builder(rtx_4090(), params).build().unwrap();
        let msg = b"wire format";
        let sig = engine.sign(&sk, msg).unwrap();
        let bytes = sig.to_bytes(&params);
        assert_eq!(bytes.len(), params.sig_bytes());
        let parsed = Signature::from_bytes(&params, &bytes).expect("parse");
        vk.verify(msg, &parsed).expect("verify parsed");
    }
}

#[test]
fn corrupted_wire_bytes_rejected() {
    let params = test_shapes()[0];
    let mut rng = StdRng::seed_from_u64(23);
    let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
    let msg = b"bit flips";
    let bytes = sk.sign(msg).to_bytes(&params);

    // Every region of the signature must be integrity-protected; flip a
    // byte in several places.
    for &pos in &[
        0usize,
        params.n,
        params.n + 3,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        let parsed = Signature::from_bytes(&params, &bad).expect("parse shape ok");
        assert_eq!(
            vk.verify(msg, &parsed),
            Err(SignError::VerificationFailed),
            "flip at {pos} must fail"
        );
    }
}

#[test]
fn distinct_messages_distinct_signatures() {
    let params = test_shapes()[0];
    let mut rng = StdRng::seed_from_u64(31);
    let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
    let engine = HeroSigner::builder(rtx_4090(), params).build().unwrap();
    let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 10]).collect();
    let slices: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let sigs = engine.sign_batch(&sk, &slices).unwrap();
    for (i, a) in sigs.iter().enumerate() {
        vk.verify(&msgs[i], a).unwrap();
        for b in sigs.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
        // Signature for message i must not verify message i+1.
        let other = (i + 1) % msgs.len();
        assert!(vk.verify(&msgs[other], a).is_err());
    }
}
