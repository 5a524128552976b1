//! Regenerates **Figure 12**: full-pipeline throughput (KOPS) and kernel
//! launch latency (µs) under four configurations — Baseline (no graph),
//! Baseline (with graph), HERO-Sign (no graph), HERO-Sign (with graph) —
//! on the RTX 4090 with 1024 messages.
//!
//! Batching follows the paper's guidance: the baseline submits
//! per-message kernels over many streams (CUSPX-style), HERO signs
//! ≥512-message batches (§IV-E1) bound to a few non-blocking streams.

use hero_bench::{fmt_x, header, paper, primary_device, rule};
use hero_sign::model::{OptConfig, PipelineOptions, PipelineReport, SimModel};
use hero_sphincs::params::Params;

const MESSAGES: u32 = 1024;

fn run(
    device: &hero_gpu_sim::DeviceProps,
    p: Params,
    mut cfg: OptConfig,
    graph: bool,
) -> PipelineReport {
    cfg.graph = graph;
    let model = SimModel::new(device.clone(), p, cfg).unwrap();
    if cfg.mmtp {
        model
            .simulate(PipelineOptions::new(MESSAGES).batch_size(512).streams(4))
            .unwrap()
    } else {
        // Baseline: per-message kernels, streams ≈ tasks/cores (CUSPX).
        model
            .simulate(PipelineOptions::new(MESSAGES).batch_size(1).streams(128))
            .unwrap()
    }
}

fn main() {
    let device = primary_device();
    header(
        "Figure 12",
        "Pipeline KOPS and launch latency: baseline vs HERO-Sign, ±CUDA Graph (1024 msgs)",
    );

    for (i, p) in Params::fast_sets().iter().enumerate() {
        let base_ng = run(&device, *p, OptConfig::baseline(), false);
        let base_g = run(&device, *p, OptConfig::baseline(), true);
        let hero_ng = run(&device, *p, OptConfig::hero(), false);
        let hero_g = run(&device, *p, OptConfig::hero(), true);

        println!("\n{}:", p.name());
        println!(
            "  {:<24} {:>9} {:>9}   paper: {:>8} KOPS",
            "Config", "KOPS", "Speedup", ""
        );
        rule(72);
        let rows = [
            ("Baseline (no Graph)", &base_ng, paper::FIG12_KOPS[i][0]),
            ("Baseline (with Graph)", &base_g, paper::FIG12_KOPS[i][1]),
            ("HERO-Sign (no Graph)", &hero_ng, paper::FIG12_KOPS[i][2]),
            ("HERO-Sign (with Graph)", &hero_g, paper::FIG12_KOPS[i][3]),
        ];
        for (label, report, paper_kops) in rows {
            println!(
                "  {:<24} {:>9.2} {:>9}   paper: {:>8.2} KOPS",
                label,
                report.kops,
                fmt_x(report.kops / base_ng.kops),
                paper_kops,
            );
        }

        println!("  launch latency (cumulative host overhead):");
        let lat = [
            (
                "Baseline",
                base_ng.launch_overhead_us,
                paper::FIG12_LATENCY_US[i][0],
            ),
            (
                "HERO-Sign (no Graph)",
                hero_ng.launch_overhead_us,
                paper::FIG12_LATENCY_US[i][1],
            ),
            (
                "HERO-Sign (with Graph)",
                hero_g.launch_overhead_us,
                paper::FIG12_LATENCY_US[i][2],
            ),
        ];
        for (label, us, paper_us) in lat {
            println!(
                "    {:<24} {:>10.2} us  reduction {:>7}   paper: {:>8.2} us",
                label,
                us,
                fmt_x(base_ng.launch_overhead_us / us),
                paper_us,
            );
        }
        println!(
            "    idle time: baseline {:.1} us, HERO+graph {:.1} us",
            base_ng.idle_us, hero_g.idle_us
        );
    }
    println!();
    println!("Shape checks: graph execution is always fastest; launch-latency drops by");
    println!("two orders of magnitude (paper: 86x-221x); idle time shrinks under HERO.");
}
