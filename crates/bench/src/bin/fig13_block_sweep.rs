//! Regenerates **Figure 13**: baseline vs HERO-Sign (with graph)
//! throughput across block (batch) sizes 2–1024 on the RTX 4090.
//!
//! §IV-E1's guidance should emerge: speedups are largest at small block
//! sizes (the baseline's serialized FORS rounds and per-kernel overheads
//! dominate tiny launches), and ≥512 maximizes absolute throughput.

use hero_bench::{fmt_x, header, paper, primary_device, rule};
use hero_sign::model::{OptConfig, PipelineOptions, SimModel};
use hero_sphincs::params::Params;

const MESSAGES: u32 = 1024;

fn main() {
    let device = primary_device();
    header(
        "Figure 13",
        "Throughput vs block size: baseline vs HERO-Sign (with graph), 1024 msgs",
    );

    for (i, p) in Params::fast_sets().iter().enumerate() {
        let baseline = SimModel::baseline(device.clone(), *p).unwrap();
        let mut hero_cfg = OptConfig::hero();
        hero_cfg.graph = true;
        let hero = SimModel::new(device.clone(), *p, hero_cfg).unwrap();

        println!("\n{}:", p.name());
        println!(
            "  {:<10} {:>12} {:>12} {:>9}",
            "BlockSize", "Base KOPS", "HERO KOPS", "Speedup"
        );
        rule(50);
        let mut small_block_max = 0.0f64;
        let mut at_64 = 0.0f64;
        for bs in [2u32, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            // Small batches need many concurrent streams/graphs to keep
            // the device fed (§III-F's block-based multi-graph strategy).
            let streams = (MESSAGES / bs).clamp(4, 64) as usize;
            let b = baseline
                .simulate(
                    PipelineOptions::new(MESSAGES)
                        .batch_size(bs)
                        .streams(streams),
                )
                .unwrap();
            let h = hero
                .simulate(
                    PipelineOptions::new(MESSAGES)
                        .batch_size(bs)
                        .streams(streams),
                )
                .unwrap();
            let speedup = h.kops / b.kops;
            if bs <= 64 {
                small_block_max = small_block_max.max(speedup);
            }
            if bs == 64 {
                at_64 = speedup;
            }
            println!(
                "  {:<10} {:>12.2} {:>12.2} {:>9}",
                bs,
                b.kops,
                h.kops,
                fmt_x(speedup)
            );
        }
        let (paper_max, paper_64) = paper::FIG13_SMALL_BLOCK_SPEEDUP[i];
        println!(
            "  small-block speedup: max {} (paper {paper_max}x), at 64 {} (paper {paper_64}x)",
            fmt_x(small_block_max),
            fmt_x(at_64)
        );
    }
    println!();
    println!("Shape checks: speedup decays as block size approaches device limits;");
    println!("absolute HERO throughput is maximized at block sizes >= 512 (§IV-E1).");
}
