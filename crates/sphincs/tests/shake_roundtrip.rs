//! Keygen/sign/verify round-trips for the SPHINCS+-SHAKE parameter
//! family.
//!
//! Every `shake_*` shape runs twice: at a reduced height (keeping each
//! shape's `n` and `w`, the dimensions the hash layer actually sees) and
//! at full size.

use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sign::keygen_from_seeds_with_alg;
use hero_sphincs::Signature;

/// Shrinks a shape to test-speed while preserving `n` and `w` (and the
/// `d | h` invariant).
fn reduced(mut p: Params) -> Params {
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p.validate().expect("reduced shape validates");
    p
}

fn roundtrip(params: Params, label: &str) {
    let n = params.n;
    let (sk, vk) = keygen_from_seeds_with_alg(
        params,
        HashAlg::Shake256,
        (0..n as u8).collect(),
        (50..50 + n as u8).collect(),
        (100..100 + n as u8).collect(),
    );
    assert_eq!(sk.alg(), HashAlg::Shake256, "{label}");
    let msg = format!("shake round trip: {label}").into_bytes();
    let sig = sk.sign(&msg);
    vk.verify(&msg, &sig)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(vk.verify(b"other message", &sig).is_err(), "{label}");

    // Wire format round-trips at the shape's published size.
    let bytes = sig.to_bytes(&params);
    assert_eq!(bytes.len(), params.sig_bytes(), "{label}");
    let parsed = Signature::from_bytes(&params, &bytes).unwrap();
    vk.verify(&msg, &parsed).unwrap();
}

#[test]
fn all_six_shake_shapes_roundtrip_reduced() {
    for p in Params::shake_sets() {
        roundtrip(reduced(p), p.name());
    }
}

#[test]
fn all_six_shake_shapes_roundtrip_full() {
    for p in Params::shake_sets() {
        roundtrip(p, p.name());
    }
}

#[test]
fn shake_shapes_prefer_shake256() {
    for p in Params::shake_sets() {
        assert_eq!(p.preferred_alg(), HashAlg::Shake256, "{}", p.name());
        p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name()));
    }
    for p in Params::all_sets() {
        assert_eq!(p.preferred_alg(), HashAlg::Sha256, "{}", p.name());
    }
}

#[test]
fn shake_shapes_match_sha_shape_sizes() {
    // Signature/key sizes depend only on (n, h, d, log t, k, w): each
    // SHAKE shape mirrors its SHA twin exactly.
    for (shake, sha) in Params::shake_sets().iter().zip(Params::all_sets().iter()) {
        assert_eq!(shake.sig_bytes(), sha.sig_bytes(), "{}", shake.name());
        assert_eq!(shake.pk_bytes(), sha.pk_bytes());
        assert_eq!(shake.sk_bytes(), sha.sk_bytes());
        assert_eq!(shake.digest_bytes(), sha.digest_bytes());
        assert_ne!(shake.name(), sha.name());
    }
}
