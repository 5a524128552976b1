//! Shared infrastructure for the experiment harness: the paper's
//! published numbers (for side-by-side comparison), external reference
//! data (FPGA/ASIC/AVX2 comparators), and table formatting.

pub mod paper;
pub mod reference;

use hero_sphincs::params::Params;

/// The paper's primary evaluation platform.
pub fn primary_device() -> hero_gpu_sim::DeviceProps {
    hero_gpu_sim::device::rtx_4090()
}

/// The three parameter sets of the evaluation.
pub fn eval_sets() -> [Params; 3] {
    Params::fast_sets()
}

/// Messages per run, matching the paper's Block = 1024 batches.
pub const EVAL_MESSAGES: u32 = 1024;

/// Renders a ratio as `x.xx×`.
pub fn fmt_x(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Prints a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints a titled header for an experiment output.
pub fn header(id: &str, caption: &str) {
    println!();
    rule(78);
    println!("{id}: {caption}");
    rule(78);
}

/// A paper-vs-measured comparison line.
pub fn compare_line(label: &str, paper: f64, measured: f64, unit: &str) {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    println!(
        "  {label:<34} paper {paper:>10.2} {unit:<6} ours {measured:>10.2} {unit:<6} (x{ratio:.2} of paper)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_x(2.136), "2.14x");
    }

    #[test]
    fn eval_surface() {
        assert_eq!(eval_sets().len(), 3);
        assert_eq!(primary_device().name, "RTX 4090");
    }
}
