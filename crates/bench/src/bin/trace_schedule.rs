//! Dumps the simulated Fig. 12 schedules as Chrome Trace Event JSON
//! (load in `chrome://tracing` or <https://ui.perfetto.dev>) — the
//! repository's stand-in for an Nsight Systems timeline view.
//!
//! ```sh
//! cargo run --release -p hero-bench --bin trace_schedule
//! # writes hero_baseline_trace.json and hero_graph_trace.json
//! ```

use hero_bench::primary_device;
use hero_gpu_sim::trace::chrome_trace;
use hero_sign::model::{PipelineOptions, SimModel};
use hero_sphincs::params::Params;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = primary_device();
    let params = Params::sphincs_128f();

    let baseline = SimModel::baseline(device.clone(), params).unwrap();
    // 64 messages keep the trace readable; per-message kernels on many
    // streams, the baseline's submission pattern.
    let (base_report, base_tl) = baseline
        .simulate_traced(PipelineOptions::new(64).batch_size(1).streams(16))
        .unwrap();
    std::fs::write("hero_baseline_trace.json", chrome_trace(&base_tl))?;

    let hero = SimModel::hero(device, params).unwrap();
    let (hero_report, hero_tl) = hero
        .simulate_traced(PipelineOptions::new(1024).batch_size(256).streams(4))
        .unwrap();
    std::fs::write("hero_graph_trace.json", chrome_trace(&hero_tl))?;

    println!(
        "wrote hero_baseline_trace.json ({} kernels, makespan {:.1} us)",
        base_tl.executed().len(),
        base_report.makespan_us
    );
    println!(
        "wrote hero_graph_trace.json ({} kernels, makespan {:.1} us)",
        hero_tl.executed().len(),
        hero_report.makespan_us
    );
    println!("open either file in chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}
