//! Regenerates **Table V**: the profiling-driven PTX/native branch
//! selection per kernel per parameter set on the RTX 4090.

use hero_bench::{header, primary_device, rule};
use hero_gpu_sim::isa::Sha2Path;
use hero_sign::model::SimModel;
use hero_sign::ptx::KernelKind;
use hero_sphincs::params::Params;

fn mark(path: Sha2Path) -> &'static str {
    match path {
        Sha2Path::Ptx => "PTX",
        Sha2Path::Native => "native",
    }
}

fn main() {
    let device = primary_device();
    header(
        "Table V",
        "PTX branch selection across signature kernels (RTX 4090, Block=1024)",
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12}   paper row",
        "Parameter set", "FORS_Sign", "TREE_Sign", "WOTS+_Sign"
    );
    rule(80);
    for (i, p) in Params::fast_sets().iter().enumerate() {
        let model = SimModel::hero(device.clone(), *p).unwrap();
        let sel = model.selection();
        let (pf, pt, pw) = hero_bench::paper::TABLE5[i];
        let fmt_paper = |b: bool| if b { "PTX" } else { "native" };
        println!(
            "{:<16} {:>12} {:>12} {:>12}   ({}, {}, {})",
            p.name(),
            mark(sel.path(KernelKind::ForsSign)),
            mark(sel.path(KernelKind::TreeSign)),
            mark(sel.path(KernelKind::WotsSign)),
            fmt_paper(pf),
            fmt_paper(pt),
            fmt_paper(pw),
        );
    }
    println!();
    println!("Selection is empirical: both code paths are simulated per kernel and the");
    println!("faster one is monomorphized at compile time (Fig. 6's `if constexpr`).");
}
