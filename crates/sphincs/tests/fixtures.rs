//! Seed-era signature fixtures.
//!
//! These digests were captured from the pre-batching scalar
//! implementation; any refactor of the hashing hot path must keep
//! signatures byte-identical. A deterministic key (fixed seeds) signs a
//! fixed message, and the SHA-256 of the serialized signature is pinned —
//! for the signer that ships and for [`hero_sphincs::reference`], the
//! scalar second implementation everything else is held to, which this
//! file anchors to something outside the repository's present code.

use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::reference;
use hero_sphincs::sha256::Sha256;
use hero_sphincs::sign::keygen_from_seeds_with_alg;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Reduced parameters keep full signing test-speed while exercising every
/// component (FORS, hypertree, WOTS+).
fn tiny_params() -> Params {
    let mut p = Params::sphincs_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

/// A 192-bit reduced set: n=24 exercises the two-compression `H` path.
fn tiny_params_192() -> Params {
    let mut p = Params::sphincs_192f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

/// A 256-bit reduced set: n=32 (largest block occupancy).
fn tiny_params_256() -> Params {
    let mut p = Params::sphincs_256f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

fn signature_digest(params: Params, alg: HashAlg) -> (String, String) {
    let n = params.n;
    let (sk, vk) = keygen_from_seeds_with_alg(
        params,
        alg,
        (0..n as u8).collect(),
        (100..100 + n as u8).collect(),
        (200..200 + n as u8).collect(),
    );
    let msg = b"seed-era fixture message";
    let sig = reference::sign(&sk, msg);
    reference::verify(&vk, msg, &sig).expect("fixture signature verifies");
    assert_eq!(sk.sign(msg), sig, "the shipping signer left the reference");
    vk.verify(msg, &sig)
        .expect("fixture signature verifies in lanes");
    (
        hex(&Sha256::digest(&vk.to_bytes())),
        hex(&Sha256::digest(&sig.to_bytes(&params))),
    )
}

/// The reduced SPHINCS+-SHAKE-128f shape (same reduction as
/// [`tiny_params`], SHAKE name).
fn tiny_params_shake() -> Params {
    let mut p = Params::shake_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

#[test]
fn seed_era_signatures_are_stable() {
    let cases: [(&str, Params, HashAlg, &str, &str); 5] = [
        (
            "tiny-128/sha256",
            tiny_params(),
            HashAlg::Sha256,
            "0bdcee59d0c5d3b53140a64e70398ea26008a399b6bcc163a2fa3a564be65fe3",
            "27ddf7ae9592344331ddb61d129e0690c533cffccf348c940984865556cfd578",
        ),
        (
            "tiny-192/sha256",
            tiny_params_192(),
            HashAlg::Sha256,
            "0b8285523b0490eb4e274cb21f202441371f584910332e4c461ec9d4ad5b8a8f",
            "98969ee70ac94d74bbcfe3b2c1bfbd22a8a79159cf8c6ec2b5e2d85941701afc",
        ),
        (
            "tiny-256/sha256",
            tiny_params_256(),
            HashAlg::Sha256,
            "eb77a8ed7e2c0349fa89cd2fd990477573d2700718287a83a204bcf1e329a007",
            "28482bbf1e61dc01c687768b478dfd885ed07b62d21d10dab2f3dc67d106c7e3",
        ),
        (
            "tiny-128/sha512",
            tiny_params(),
            HashAlg::Sha512,
            "015cc8af94dea0bba71df62d34ac393a142901a5cffe394c03997f0c956df71f",
            "39bde7badd3751737b6c128f1029fc37e32f79356f842bff614761ca5a9cb670",
        ),
        // Captured from the first SHAKE-capable implementation (whose
        // thash construction is itself pinned against independent FIPS
        // 202 vectors in `hash::tests::shake256_tweak_pins_spec_construction`);
        // later refactors must keep SHAKE signatures byte-identical too.
        (
            "tiny-shake-128/shake256",
            tiny_params_shake(),
            HashAlg::Shake256,
            "5b958c8b2c97dc50b3eea35b40d334d21dbe76e6ca605361a1a12d3758690122",
            "df22ddd9cffb3c00debb51c0f42cab892305001a392a9b6ffb09ddc7ed63b43c",
        ),
    ];
    for (label, params, alg, pk_expected, sig_expected) in cases {
        let (pk, sig) = signature_digest(params, alg);
        assert_eq!(pk, pk_expected, "{label}: public key drifted");
        assert_eq!(sig, sig_expected, "{label}: signature bytes drifted");
    }
}
