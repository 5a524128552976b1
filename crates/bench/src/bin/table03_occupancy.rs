//! Regenerates **Table III**: warp occupancy, theoretical occupancy
//! (Eq. 1) and registers per thread for the baseline's three kernels
//! under SPHINCS+-128f on the RTX 4090.

use hero_bench::{header, paper, primary_device, rule, EVAL_MESSAGES};
use hero_sign::model::SimModel;
use hero_sphincs::params::Params;

fn main() {
    let device = primary_device();
    let p = Params::sphincs_128f();
    let model = SimModel::baseline(device, p).unwrap();
    let reports = model.kernel_reports(EVAL_MESSAGES);
    let descs = model.kernel_descs(EVAL_MESSAGES);

    header(
        "Table III",
        "Baseline (TCAS-SPHINCSp) kernel profile, SPHINCS+-128f, RTX 4090",
    );
    println!(
        "{:<14} {:>10} {:>13} {:>10} | paper: {:>7} {:>9} {:>6}",
        "Kernel", "WarpOcc%", "TheoryOcc%", "Regs/Thr", "Warp%", "Theory%", "Regs"
    );
    rule(92);
    for (i, (r, d)) in reports.iter().zip(descs.iter()).enumerate() {
        let (pw, pt, pr) = paper::TABLE3[i];
        println!(
            "{:<14} {:>10.2} {:>13.2} {:>10} | paper: {:>7.2} {:>9.2} {:>6}",
            r.name,
            r.achieved_occupancy * 100.0,
            r.theoretical_occupancy * 100.0,
            d.block.regs_per_thread,
            pw,
            pt,
            pr,
        );
    }
    println!();
    println!("The FORS gap (theoretical >> achieved) is the under-utilization that");
    println!("motivates FORS Fusion (§III-B2); TREE_Sign is register-bound.");
}
