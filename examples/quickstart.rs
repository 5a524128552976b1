//! Quickstart: build a HERO-Sign engine through the fallible builder,
//! generate a SPHINCS+ key pair with `hero_sphincs::keygen`, sign with
//! the three-kernel decomposition, cross-check against the scalar
//! reference implementation, and price the same workload on a `SimModel`
//! of the RTX 4090.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hero_gpu_sim::device::rtx_4090;
use hero_sign::{HeroSigner, PipelineOptions, SimModel};
use hero_sphincs::params::Params;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Reduced parameters keep the example fast on a laptop CPU; swap in
    // Params::sphincs_128f() for the real thing (~100k hashes/signature).
    let mut params = Params::sphincs_128f();
    params.h = 9;
    params.d = 3;
    params.log_t = 6;
    params.k = 10;

    // The builder validates the parameter set and starts the workers;
    // a bad set comes back as Err, not a panic.
    let engine = HeroSigner::builder(rtx_4090(), params).workers(8).build()?;

    let mut rng = StdRng::seed_from_u64(2026);
    let (sk, vk) = hero_sphincs::keygen(params, &mut rng)?;
    println!("generated {} key pair", params.name());

    // Functional signing through the HERO kernel decomposition
    // (FORS_Sign ∥ TREE_Sign → WOTS+_Sign), bit-identical to the
    // reference implementation.
    let message = b"the quick brown fox signs post-quantum";
    let signature = engine.sign(&sk, message)?;
    vk.verify(message, &signature)?;
    println!(
        "signature verified ({} bytes)",
        signature.to_bytes(&params).len()
    );

    // The scalar reference, a second implementation sharing nothing
    // with the engine, must agree byte for byte.
    assert_eq!(
        signature,
        hero_sphincs::reference::sign(&sk, message),
        "HERO decomposition must match the reference implementation"
    );
    println!("HERO three-kernel output is bit-identical to the scalar reference");

    // Simulated GPU throughput for the full 128f parameter set: the
    // model runs the Auto Tree Tuning search and the PTX selection.
    let full = Params::sphincs_128f();
    let hero = SimModel::hero(rtx_4090(), full)?;
    let report = hero.simulate(PipelineOptions::new(1024))?;
    println!(
        "simulated RTX 4090, {}: {:.1} KOPS over 1024 messages (batch 512, task graph)",
        full.name(),
        report.kops
    );
    let selection = hero.selection();
    println!(
        "adaptive SHA-2 paths: FORS={:?}, TREE={:?}, WOTS+={:?}",
        selection.fors, selection.tree, selection.wots
    );
    if let Some(t) = hero.tuning() {
        println!(
            "tree tuning: {} trees/block across {} fused sets ({} threads)",
            t.best.concurrent_trees(),
            t.best.fused_sets,
            t.best.block_threads()
        );
    }
    Ok(())
}
