//! Cross-GPU tuning explorer: run the Auto Tree Tuning search
//! (Algorithm 1) and the adaptive PTX selection for every device in the
//! Table VII catalog, and show how the chosen fusion adapts to each
//! architecture's shared-memory budget — the "adapt and optimize fusion
//! schemes across various GPU platforms" claim of the abstract.
//!
//! Nothing here signs, so nothing here builds a signer: the search is
//! `tune_auto` and the throughput a `SimModel` — no worker pool, no cache.
//!
//! ```sh
//! cargo run --release --example tuning_explorer
//! ```

use hero_gpu_sim::device::catalog;
use hero_gpu_sim::SmemPolicy;
use hero_sign::{tune_auto, PipelineOptions, SimModel, TuningOptions};
use hero_sphincs::params::Params;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<14} {:<16} {:>8} {:>8} {:>4} {:>8} {:>8} {:>10}",
        "Device", "Set", "T_set", "N_tree", "F", "U_T", "U_S", "sim KOPS"
    );
    println!("{}", "-".repeat(84));

    for device in catalog() {
        for params in Params::fast_sets() {
            let opts = TuningOptions {
                // Re-tune with each device's opt-in shared-memory maximum,
                // as §IV-F does when extending across architectures.
                smem_policy: SmemPolicy::DynamicMax,
                ..TuningOptions::default()
            };
            let result = tune_auto(&device, &params, &opts)
                .map_err(|e| format!("{} / {}: {e}", device.name, params.name()))?;
            let best = result.best;

            let model = SimModel::hero(device.clone(), params)?;
            let kops = model.simulate(PipelineOptions::new(1024))?.kops;

            println!(
                "{:<14} {:<16} {:>8} {:>8} {:>4} {:>8.3} {:>8.3} {:>10.2}",
                device.name,
                params.name(),
                best.threads_per_set,
                best.trees_per_set,
                best.fused_sets,
                best.thread_utilization,
                best.smem_utilization,
                kops,
            );
        }
    }

    println!();
    println!("Notes:");
    println!("- Larger shared-memory budgets (A100/H100) admit deeper fusion (more");
    println!("  fused sets F per block) than the 48 KiB parts.");
    println!("- Under the static 48 KiB budget, 256f degenerates to two concurrent");
    println!("  trees and needs the Relax-FORS layout; large dynamic budgets make");
    println!("  plain full-tree fusion viable again, and the search adapts per device.");
    Ok(())
}
