//! Regenerates the **§IV-E1 PCIe-overlap guidance**: with transfers in
//! the loop, throughput-optimal batches stay large (≥512), but the
//! fill/drain cost of big batches grows — so the *latency* per batch and
//! the transfer-bound regime favor batches near 64, exactly the paper's
//! two-sided recommendation.

use hero_bench::{header, primary_device, rule};
use hero_sign::model::{PipelineOptions, SimModel};
use hero_sphincs::params::Params;

const MESSAGES: u32 = 1024;
const MSG_BYTES: u32 = 1024;

fn main() {
    let device = primary_device();
    header(
        "PCIe overlap (§IV-E1)",
        "Batch-size trade-off with host-device transfers (1 KiB messages)",
    );
    for p in Params::fast_sets() {
        let hero = SimModel::hero(device.clone(), p).unwrap();
        println!("\n{} (signature {} B):", p.name(), p.sig_bytes());
        println!(
            "  {:<8} {:>10} {:>10} {:>10} {:>12} {:>12}",
            "Batch", "KOPS", "KOPS+PCIe", "H2D us", "D2H us", "bound"
        );
        rule(70);
        for bs in [16u32, 64, 128, 256, 512, 1024] {
            let streams = (MESSAGES / bs).clamp(4, 64) as usize;
            let opts = PipelineOptions::new(MESSAGES)
                .batch_size(bs)
                .streams(streams);
            let pure = hero.simulate(opts).unwrap();
            let with_pcie = hero.simulate(opts.pcie_overlap(MSG_BYTES)).unwrap();
            let transfers = with_pcie.transfers.expect("pcie modeling requested");
            println!(
                "  {:<8} {:>10.2} {:>10.2} {:>10.1} {:>12.1} {:>12}",
                bs,
                pure.kops,
                with_pcie.kops,
                transfers.h2d_batch_us,
                transfers.d2h_batch_us,
                if transfers.transfer_bound {
                    "PCIe"
                } else {
                    "compute"
                },
            );
        }
    }
    println!();
    println!("Shape checks: compute hides transfers at every batch size for the -f");
    println!("sets (signing is hash-bound); the batch-64 row minimizes per-batch");
    println!("fill/drain latency while staying within a few percent of peak KOPS —");
    println!("the paper's \"smaller batch near 64 is optimal [for PCIe overlap]\".");
}
