//! A blockchain-style batch signing service: the high-throughput workload
//! the paper's intro motivates (block producers authenticating many
//! transactions per second with post-quantum signatures).
//!
//! The service holds the HERO engine, `HeroSigner`, the one signer the
//! stack has. It signs a queue of transactions functionally (real
//! signatures, verified) while projecting what the same queue costs on
//! the simulated RTX 4090 under baseline vs HERO-Sign execution.
//!
//! ```sh
//! cargo run --release --example batch_signing_service
//! ```

use hero_gpu_sim::device::rtx_4090;
use hero_sign::{HeroSigner, LaunchPolicy, PipelineOptions, SimModel};
use hero_sphincs::params::Params;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A toy transaction: payload bytes to authenticate.
struct Transaction {
    id: u64,
    payload: Vec<u8>,
}

fn make_queue(count: usize, rng: &mut StdRng) -> Vec<Transaction> {
    (0..count)
        .map(|id| {
            let mut payload = vec![0u8; 96];
            rng.fill_bytes(&mut payload);
            Transaction {
                id: id as u64,
                payload,
            }
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Reduced parameters for CPU-speed functional signing.
    let mut params = Params::sphincs_128f();
    params.h = 6;
    params.d = 3;
    params.log_t = 4;
    params.k = 8;

    let signer = HeroSigner::builder(rtx_4090(), params).build()?;

    let mut rng = StdRng::seed_from_u64(7);
    let (sk, vk) = hero_sphincs::keygen(params, &mut rng)?;

    let queue = make_queue(8, &mut rng);
    println!("signing a queue of {} transactions...", queue.len());
    let payloads: Vec<&[u8]> = queue.iter().map(|t| t.payload.as_slice()).collect();
    let signatures = signer.sign_batch(&sk, &payloads)?;

    // Validator side: a verifier needs only the public key.
    for (tx, (payload, sig)) in queue.iter().zip(payloads.iter().zip(&signatures)) {
        vk.verify(payload, sig)
            .map_err(|e| format!("tx {} failed verification: {e}", tx.id))?;
    }
    println!("all {} transaction signatures verified", queue.len());

    // Capacity planning needs no signer at all: the simulated
    // performance model is its own type, and no signer builds it.
    let full = Params::sphincs_128f();
    let hero = SimModel::hero(rtx_4090(), full)?;
    println!(
        "simulated batch-verification throughput: {:.0} KOPS (verification is ~{}x lighter than signing)",
        hero.simulate_verify_kops(1024),
        hero_sign::workload::total_sign_compressions(&full)
            / hero_sign::kernels::verify::verify_expected_compressions(&full)
    );

    // Capacity planning: what does a 1M-transaction day look like on the
    // simulated GPU, baseline vs HERO? One model, three workloads — the
    // launch mode is a PipelineOptions override, not a rebuild.
    let baseline = SimModel::baseline(rtx_4090(), full)?
        .simulate(PipelineOptions::new(1024).batch_size(1).streams(128))?;
    let standard = PipelineOptions::new(1024).batch_size(512).streams(4);
    let hero_graph = hero.simulate(standard)?;
    let hero_stream = hero.simulate(standard.launch(LaunchPolicy::Streams))?;

    println!(
        "\ncapacity projection, {} on simulated RTX 4090:",
        full.name()
    );
    for (label, r) in [
        ("baseline (TCAS-SPHINCSp)", &baseline),
        ("HERO-Sign, streams", &hero_stream),
        ("HERO-Sign, task graph", &hero_graph),
    ] {
        let txs_per_sec = r.kops * 1.0e3;
        println!(
            "  {label:<26} {:.1} KOPS -> {:.1}s for 1M transactions (launch overhead {:.0} us)",
            r.kops,
            1.0e6 / txs_per_sec,
            r.launch_overhead_us
        );
    }
    Ok(())
}
