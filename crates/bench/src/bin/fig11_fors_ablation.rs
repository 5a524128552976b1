//! Regenerates **Figure 11**: the `FORS_Sign` optimization ladder —
//! Baseline → MMTP → +FS → +PTX → +HybridME → +FreeBank — with step and
//! cumulative speedups for all three parameter sets on the RTX 4090.

use hero_bench::{fmt_x, header, paper, primary_device, rule, EVAL_MESSAGES};
use hero_sign::model::{OptConfig, SimModel};
use hero_sphincs::params::Params;

fn main() {
    let device = primary_device();
    header(
        "Figure 11",
        "FORS_Sign optimization steps (Block=1024): throughput, step & cumulative speedup",
    );

    for (set_idx, p) in Params::fast_sets().iter().enumerate() {
        println!("\n{}:", p.name());
        println!(
            "  {:<12} {:>10} {:>8} {:>8}   paper: {:>8} {:>8} {:>8}",
            "Step", "KOPS", "Step x", "Cumul x", "KOPS", "Step x", "Cumul x"
        );
        rule(86);
        let mut first = f64::NAN;
        let mut prev = f64::NAN;
        let paper_row = paper::FIG11[set_idx];
        for (i, (label, cfg)) in OptConfig::ablation_ladder().into_iter().enumerate() {
            let model = SimModel::new(device.clone(), *p, cfg).unwrap();
            let fors = &model.kernel_reports(EVAL_MESSAGES)[0];
            let kops = EVAL_MESSAGES as f64 / fors.time_us * 1.0e3;
            if i == 0 {
                first = kops;
                prev = kops;
            }
            let label = if i == 2 && p.n == 32 {
                "+FS(Relax)"
            } else {
                label
            };
            let paper_first = paper_row[0];
            let paper_prev = if i == 0 {
                paper_row[0]
            } else {
                paper_row[i - 1]
            };
            println!(
                "  {:<12} {:>10.1} {:>8} {:>8}   paper: {:>8.1} {:>8} {:>8}",
                label,
                kops,
                fmt_x(kops / prev),
                fmt_x(kops / first),
                paper_row[i],
                fmt_x(paper_row[i] / paper_prev),
                fmt_x(paper_row[i] / paper_first),
            );
            prev = kops;
        }
    }
    println!();
    println!("Shape checks: MMTP is the largest step for 128f/192f; the Relax-FORS");
    println!("fusion step is the largest for 256f; FreeBank is the smallest step.");
}
