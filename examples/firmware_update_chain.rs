//! IoT firmware-update signing: a long-lived vendor key signs a chain of
//! firmware releases, and constrained devices verify them — the IoT
//! motivation from the paper's intro, exercised end to end with
//! serialization across a simulated "wire".
//!
//! ```sh
//! cargo run --release --example firmware_update_chain
//! ```

use hero_gpu_sim::device::rtx_4090;
use hero_sign::{HeroSigner, PipelineOptions, SimModel};
use hero_sphincs::params::Params;
use hero_sphincs::sha256::Sha256;
use hero_sphincs::Signature;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A firmware release: version plus image digest (what vendors actually
/// sign).
struct Release {
    version: String,
    image: Vec<u8>,
}

impl Release {
    /// The signed statement: version string + SHA-256 of the image.
    fn statement(&self) -> Vec<u8> {
        let mut out = self.version.as_bytes().to_vec();
        out.extend_from_slice(&Sha256::digest(&self.image));
        out
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut params = Params::sphincs_128f();
    params.h = 6;
    params.d = 3;
    params.log_t = 4;
    params.k = 8;

    let engine = HeroSigner::builder(rtx_4090(), params).build()?;
    let mut rng = StdRng::seed_from_u64(99);
    let (vendor_sk, vendor_vk) = hero_sphincs::keygen(params, &mut rng)?;

    let releases: Vec<Release> = (1..=4)
        .map(|minor| Release {
            version: format!("2.{minor}.0"),
            image: vec![minor as u8; 4096 * minor as usize],
        })
        .collect();

    // Vendor side: sign every release statement, serialize signatures.
    let mut wire: Vec<(String, Vec<u8>, Vec<u8>)> = Vec::new();
    for release in &releases {
        let statement = release.statement();
        let sig = engine.sign(&vendor_sk, &statement)?;
        wire.push((release.version.clone(), statement, sig.to_bytes(&params)));
        println!("signed firmware {}", release.version);
    }

    // Device side: parse from bytes and verify before "flashing".
    let mut applied = 0;
    for (version, statement, sig_bytes) in &wire {
        let sig = Signature::from_bytes(&params, sig_bytes)?;
        match vendor_vk.verify(statement, &sig) {
            Ok(()) => {
                applied += 1;
                println!("device accepted firmware {version}");
            }
            Err(e) => println!("device REJECTED firmware {version}: {e}"),
        }
    }
    assert_eq!(applied, releases.len());

    // A tampered image must be rejected.
    let (version, statement, sig_bytes) = &wire[0];
    let mut bad_statement = statement.clone();
    let last = bad_statement.len() - 1;
    bad_statement[last] ^= 0x01;
    let sig = Signature::from_bytes(&params, sig_bytes)?;
    assert!(vendor_vk.verify(&bad_statement, &sig).is_err());
    println!("tampered {version} image correctly rejected");

    // Fleet planning: how fast could a build farm sign nightly images for
    // a 100k-device fleet with per-device statements?
    let full = Params::sphincs_128f();
    let report = SimModel::hero(rtx_4090(), full)?.simulate(PipelineOptions::new(1024))?;
    println!(
        "\nsimulated RTX 4090 ({}): {:.1} KOPS -> 100k per-device signatures in {:.2}s",
        full.name(),
        report.kops,
        100_000.0 / (report.kops * 1.0e3)
    );
    Ok(())
}
