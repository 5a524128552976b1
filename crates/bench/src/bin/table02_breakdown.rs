//! Regenerates **Table II**: the baseline (TCAS-SPHINCSp) time breakdown
//! — FORS, idle, MSS (TREE), WOTS+ — for a 1024-message batch on the
//! RTX 4090.

use hero_bench::{header, paper, primary_device, rule, EVAL_MESSAGES};
use hero_sign::model::{PipelineOptions, SimModel};
use hero_sphincs::params::Params;

fn main() {
    let device = primary_device();
    header(
        "Table II",
        "Baseline time breakdown (ms) for 1024 messages, RTX 4090",
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}   paper: {:>7} {:>7} {:>7} {:>7}",
        "Set", "FORS", "Idle", "MSS", "WOTS+", "FORS", "Idle", "MSS", "WOTS+"
    );
    rule(100);
    for (i, p) in Params::fast_sets().iter().enumerate() {
        let model = SimModel::baseline(device.clone(), *p).unwrap();
        let reports = model.kernel_reports(EVAL_MESSAGES);
        // Idle: measured from the baseline per-message stream schedule.
        let pipeline = model
            .simulate(
                PipelineOptions::new(EVAL_MESSAGES)
                    .batch_size(1)
                    .streams(128),
            )
            .unwrap();
        let row = &paper::TABLE2[i];
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2}   paper: {:>7.2} {:>7.2} {:>7.2} {:>7.2}",
            p.name(),
            reports[0].time_us / 1.0e3,
            pipeline.idle_us / 1.0e3,
            reports[1].time_us / 1.0e3,
            reports[2].time_us / 1.0e3,
            row.fors_ms,
            row.idle_ms,
            row.mss_ms,
            row.wots_ms,
        );
    }
    println!();
    println!("Shape checks: MSS dominates, FORS second, WOTS+ light; idle is");
    println!("non-negligible in the baseline's stream schedule.");
}
