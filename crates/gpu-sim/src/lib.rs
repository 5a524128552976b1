//! # hero-gpu-sim
//!
//! An analytical + discrete-event model of NVIDIA GPU execution, built as
//! the hardware substrate for the HERO-Sign reproduction. This environment
//! has no CUDA device, so the paper's performance behaviour is reproduced
//! from the same published resource budgets the real optimizations fight
//! over:
//!
//! * [`device`] — the Table VII GPU catalog (SMs, cores, clocks, register
//!   files, shared-memory capacities, launch overheads).
//! * [`mod@occupancy`] — Equation 1 and the full CUDA occupancy calculation.
//! * [`banks`] — the 32-bank shared-memory conflict model and the
//!   generalized padding strategy of Equations 2–3.
//! * [`isa`] — instruction classes (`prmt`, `mad`, `IADD3`, `shl`, …) with
//!   issue/latency costs; native vs PTX SHA-256 instruction mixes.
//! * [`kernel`] — analytic kernel descriptors.
//! * [`engine`] — the roofline timing model and Nsight-style metrics.
//! * [`stream`] — streams, launch overheads and a device timeline.
//! * [`graph`] — CUDA-Graph-style kernel DAGs replayed onto that
//!   timeline: one launch fee per graph instead of one per kernel.
//! * [`compile`] — the compile-time cost model behind Table XI.
//!
//! ## Example: occupancy of a register-hungry kernel
//!
//! ```
//! use hero_gpu_sim::device::rtx_4090;
//! use hero_gpu_sim::occupancy::{occupancy, BlockResources};
//!
//! let block = BlockResources { threads: 512, regs_per_thread: 128, smem_bytes: 0 };
//! let occ = occupancy(&rtx_4090(), &block);
//! assert!(occ.ratio < 0.5); // register-bound, like TREE_Sign in Table III
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banks;
pub mod compile;
pub mod device;
pub mod engine;
pub mod graph;
pub mod isa;
pub mod kernel;
pub mod occupancy;
pub mod pcie;
pub mod stream;
pub mod trace;

pub use device::{DeviceProps, SmemPolicy};
pub use engine::{simulate_kernel, KernelReport};
pub use kernel::KernelDesc;
pub use occupancy::{occupancy, BlockResources, Occupancy};

#[cfg(test)]
mod tests {
    //! [`graph`] replayed onto [`stream::Timeline`] on a catalog device.

    use crate::device::rtx_4090;
    use crate::graph::{GraphBuilder, GraphError};
    use crate::stream::{LaunchMode, Timeline};

    fn diamond() -> GraphBuilder {
        // fors ─┐
        //       ├─> wots
        // tree ─┘
        let mut g = GraphBuilder::new();
        let fors = g.kernel("FORS_Sign", 80.0, 48);
        let tree = g.kernel("TREE_Sign", 120.0, 48);
        let wots = g.kernel("WOTS+_Sign", 20.0, 48);
        g.depends_on(wots, fors);
        g.depends_on(wots, tree);
        g
    }

    #[test]
    fn dependencies_respected() {
        let exe = diamond().instantiate(&rtx_4090());
        let mut tl = Timeline::new(rtx_4090());
        let end = exe.launch(&mut tl, 0);
        // WOTS starts only after the longer of FORS/TREE.
        assert!(end >= 140.0);
        let wots = tl
            .executed()
            .iter()
            .find(|k| k.name == "WOTS+_Sign")
            .unwrap();
        let tree = tl
            .executed()
            .iter()
            .find(|k| k.name == "TREE_Sign")
            .unwrap();
        assert!(wots.start_us >= tree.end_us);
    }

    #[test]
    fn independent_nodes_overlap() {
        let exe = diamond().instantiate(&rtx_4090());
        let mut tl = Timeline::new(rtx_4090());
        exe.launch(&mut tl, 0);
        let fors = tl
            .executed()
            .iter()
            .find(|k| k.name == "FORS_Sign")
            .unwrap();
        let tree = tl
            .executed()
            .iter()
            .find(|k| k.name == "TREE_Sign")
            .unwrap();
        // 48 + 48 SMs fit in 128: FORS and TREE overlap.
        assert!(fors.start_us < tree.end_us && tree.start_us < fors.end_us);
    }

    #[test]
    fn cycle_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.kernel("a", 1.0, 1);
        let b = g.kernel("b", 1.0, 1);
        g.depends_on(a, b);
        g.depends_on(b, a);
        assert_eq!(
            g.try_instantiate(&rtx_4090()).unwrap_err(),
            GraphError::CycleDetected
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            GraphBuilder::new()
                .try_instantiate(&rtx_4090())
                .unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn graph_launch_overhead_beats_streams() {
        // 3 kernels × 100 batches: stream mode pays 300 launch fees, graph
        // mode pays 100 graph fees with near-free node dispatch.
        let device = rtx_4090();
        let exe = diamond().instantiate(&device);

        let mut graph_tl = Timeline::new(device.clone());
        for batch in 0..100 {
            exe.launch(&mut graph_tl, batch % 4);
        }

        let mut stream_tl = Timeline::new(device.clone());
        for batch in 0..100 {
            let s = stream_tl.stream(batch % 4);
            let f = stream_tl.launch("FORS_Sign", s, 80.0, 48, LaunchMode::Stream, &[]);
            let t = stream_tl.launch("TREE_Sign", s, 120.0, 48, LaunchMode::Stream, &[]);
            stream_tl.launch("WOTS+_Sign", s, 20.0, 48, LaunchMode::Stream, &[f, t]);
        }

        let graph_overhead = graph_tl.launch_overhead_total_us();
        let stream_overhead = stream_tl.launch_overhead_total_us();
        // A 3-node graph amortizes poorly (one graph fee vs 3 kernel
        // fees); the two-orders-of-magnitude wins of Fig. 12 come from
        // replaying one graph over many per-message stream launches —
        // tested at the engine level. Here: strictly cheaper and no
        // slower.
        assert!(
            stream_overhead / graph_overhead > 1.2,
            "graph {graph_overhead} vs stream {stream_overhead}"
        );
        // Makespans match within greedy-placement noise (both runs are
        // capacity-bound; the win here is host overhead, not makespan).
        assert!(graph_tl.makespan_us() <= stream_tl.makespan_us() * 1.02);
    }

    #[test]
    fn repeat_launches_accumulate() {
        let exe = diamond().instantiate(&rtx_4090());
        let mut tl = Timeline::new(rtx_4090());
        let first = exe.launch(&mut tl, 0);
        let second = exe.launch(&mut tl, 0);
        assert!(second > first);
        assert_eq!(tl.executed().len(), 6);
    }

    #[test]
    fn chain_order_is_serial() {
        let mut g = GraphBuilder::new();
        let mut prev = g.kernel("k0", 10.0, 8);
        for i in 1..5 {
            let k = g.kernel(format!("k{i}"), 10.0, 8);
            g.depends_on(k, prev);
            prev = k;
        }
        let exe = g.instantiate(&rtx_4090());
        let mut tl = Timeline::new(rtx_4090());
        let end = exe.launch(&mut tl, 0);
        assert!(end >= 50.0);
    }

    #[test]
    #[should_panic(expected = "foreign node handle")]
    fn foreign_handle_panics() {
        let mut g1 = GraphBuilder::new();
        let a = g1.kernel("a", 1.0, 1);
        let mut g2 = GraphBuilder::new();
        g2.depends_on(a, a);
    }
}
