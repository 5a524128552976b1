//! Regenerates **Table VI**: shared-memory bank conflicts during the
//! tree reduction, baseline layout vs the generalized padding strategy,
//! for `FORS_Sign` and `TREE_Sign` (Block = 1, i.e. one message).
//!
//! Our counts are *measured* by replaying the kernels' exact warp access
//! patterns through the 32-bank model — one signing pass per cell. The
//! paper profiles a longer Nsight capture, so absolute magnitudes differ
//! by the capture length; the shape (huge → zero under padding; FORS ≫
//! TREE) is the reproduction target.

use hero_bench::{header, paper, primary_device, rule};
use hero_gpu_sim::banks::PaddingScheme;
use hero_sign::kernels::{fors_sign, tree_sign};
use hero_sign::model::SimModel;
use hero_sphincs::params::Params;

fn main() {
    let device = primary_device();
    header(
        "Table VI",
        "Reduction bank conflicts: baseline vs padding (Block = 1 message)",
    );
    println!(
        "{:<16} {:<11} {:>12} {:>12} {:>10} {:>10}   paper baseline (Ld, St)",
        "Set", "Kernel", "Ld base", "St base", "Ld pad", "St pad"
    );
    rule(110);

    for (i, p) in Params::fast_sets().iter().enumerate() {
        let model = SimModel::hero(device.clone(), *p).unwrap();
        let geometry = model.fors_layout().geometry(&p.clone());
        let none = PaddingScheme::none();
        let padded = PaddingScheme::for_width(p.n);

        let rounds = geometry.rounds as u64;
        let (fl0, fs0) = fors_sign::measure_reduction(p, &geometry, none);
        let (fl1, fs1) = fors_sign::measure_reduction(p, &geometry, padded);
        let (pl, ps) = paper::TABLE6_FORS_BASELINE[i];
        println!(
            "{:<16} {:<11} {:>12} {:>12} {:>10} {:>10}   ({pl}, {ps})",
            p.name(),
            "FORS_Sign",
            fl0.conflicts * rounds,
            fs0.conflicts * rounds,
            fl1.conflicts * rounds,
            fs1.conflicts * rounds,
        );

        let (tl0, ts0) = tree_sign::measure_reduction(p, none);
        let (tl1, ts1) = tree_sign::measure_reduction(p, padded);
        let (pl, ps) = paper::TABLE6_TREE_BASELINE[i];
        println!(
            "{:<16} {:<11} {:>12} {:>12} {:>10} {:>10}   ({pl}, {ps})",
            "", "TREE_Sign", tl0.conflicts, ts0.conflicts, tl1.conflicts, ts1.conflicts,
        );
    }
    println!();
    println!("Shape checks: padding drives conflicts to (near-)zero everywhere;");
    println!("FORS_Sign conflicts dwarf TREE_Sign's; 24-byte (192f) needs Eq. 3's R=3.");
}
