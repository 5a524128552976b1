//! Regenerates the **§IV-E3 input-size sensitivity** study: throughput at
//! message lengths 1K–4K with block size fixed at 1024.
//!
//! Message bytes only affect the host-side `H_msg` digest; the signing
//! workload (tree structure, chain counts) is constant — so the curves
//! are flat and HERO's speedup is preserved at every input size, which is
//! exactly the paper's finding.

use hero_bench::{fmt_x, header, paper, primary_device, rule};
use hero_sign::model::{PipelineOptions, SimModel};
use hero_sphincs::params::Params;

const MESSAGES: u32 = 1024;

/// Extra host-side hashing time for `len`-byte messages (µs per batch):
/// one SHA-256 pass over the message per signature.
fn hashing_us(len: usize) -> f64 {
    // ~64 bytes per compression, ~1600 cycles at ~2 GHz host-equivalent.
    let compressions = len.div_ceil(64) as f64;
    compressions * 1600.0 / 2.0e9 * 1.0e6 * MESSAGES as f64 / 128.0
}

fn main() {
    let device = primary_device();
    header(
        "Input sizes (§IV-E3)",
        "Throughput across message lengths 1K-4K (block = 1024)",
    );
    for (i, p) in Params::fast_sets().iter().enumerate() {
        println!("\n{}:", p.name());
        println!(
            "  {:<8} {:>12} {:>12} {:>9}",
            "Bytes", "Base KOPS", "HERO KOPS", "Speedup"
        );
        rule(48);
        let baseline = SimModel::baseline(device.clone(), *p).unwrap();
        let hero = SimModel::hero(device.clone(), *p).unwrap();
        let mut speedups = Vec::new();
        // Message length only shifts the host-side hashing term; the
        // pipeline simulations are length-invariant, so run them once.
        let b = baseline
            .simulate(PipelineOptions::new(MESSAGES).batch_size(1).streams(128))
            .unwrap();
        let h = hero
            .simulate(PipelineOptions::new(MESSAGES).batch_size(512).streams(4))
            .unwrap();
        for len in [1024usize, 2048, 3072, 4096] {
            let extra = hashing_us(len);
            let b_kops = MESSAGES as f64 / (b.makespan_us + extra) * 1.0e3;
            let h_kops = MESSAGES as f64 / (h.makespan_us + extra) * 1.0e3;
            speedups.push(h_kops / b_kops);
            println!(
                "  {:<8} {:>12.2} {:>12.2} {:>9}",
                len,
                b_kops,
                h_kops,
                fmt_x(h_kops / b_kops)
            );
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        println!(
            "  average speedup {} (paper: {:.2}x)",
            fmt_x(avg),
            paper::INPUT_SIZE_SPEEDUP[i]
        );
    }
    println!();
    println!("Shape checks: throughput is nearly flat in message length — the digest");
    println!("determines the signing path, but the hash-tree workload is fixed.");
}
