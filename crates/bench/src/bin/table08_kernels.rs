//! Regenerates **Table VIII**: per-kernel performance (KOPS), warp
//! occupancy, compute throughput and memory throughput, baseline vs
//! HERO-Sign, on the RTX 4090 with 1024-message batches.

use hero_bench::{fmt_x, header, paper, primary_device, rule, EVAL_MESSAGES};
use hero_sign::model::SimModel;
use hero_sphincs::params::Params;

fn kops(messages: u32, time_us: f64) -> f64 {
    messages as f64 / time_us * 1.0e3
}

fn main() {
    let device = primary_device();
    header(
        "Table VIII",
        "Kernel performance comparison: baseline vs HERO-Sign (RTX 4090, 1024 msgs)",
    );
    println!(
        "{:<14} {:<11} {:>8} {:>8} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7}",
        "Set",
        "Kernel",
        "BaseKOPS",
        "HeroKOPS",
        "Speedup",
        "OccB%",
        "OccH%",
        "CmpB%",
        "CmpH%",
        "MemB%",
        "MemH%"
    );
    rule(118);

    for (i, p) in Params::fast_sets().iter().enumerate() {
        let base = SimModel::baseline(device.clone(), *p)
            .unwrap()
            .kernel_reports(EVAL_MESSAGES);
        let hero = SimModel::hero(device.clone(), *p)
            .unwrap()
            .kernel_reports(EVAL_MESSAGES);
        let paper_row = &paper::TABLE8[i];
        let paper_pairs = [paper_row.fors, paper_row.tree, paper_row.wots];

        for (k, (b, h)) in base.iter().zip(hero.iter()).enumerate() {
            let bk = kops(EVAL_MESSAGES, b.time_us);
            let hk = kops(EVAL_MESSAGES, h.time_us);
            println!(
                "{:<14} {:<11} {:>8.1} {:>8.1} {:>7} | {:>7.2} {:>7.2} | {:>7.2} {:>7.2} | {:>7.2} {:>7.2}",
                if k == 0 { p.name() } else { "" },
                b.name,
                bk,
                hk,
                fmt_x(hk / bk),
                b.achieved_occupancy * 100.0,
                h.achieved_occupancy * 100.0,
                b.compute_throughput_pct,
                h.compute_throughput_pct,
                b.memory_throughput_pct,
                h.memory_throughput_pct,
            );
            let (pb, ph) = paper_pairs[k];
            println!(
                "{:<14} {:<11} {:>8.1} {:>8.1} {:>7}   (paper)",
                "",
                "",
                pb,
                ph,
                fmt_x(ph / pb)
            );
        }
        rule(118);
    }
    println!("Shape checks: HERO wins every cell; FORS gains the most, TREE the least;");
    println!("WOTS+ gains come from the div/mod→shift rewrite (compute throughput drops).");
}
