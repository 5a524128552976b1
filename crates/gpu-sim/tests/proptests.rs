//! Property-based tests over the GPU model: padding/bank invariants,
//! occupancy monotonicity, timing-model sanity, timeline conservation,
//! and graph replay: dependency correctness, cycle detection, and makespan
//! bounds on random DAGs.

use hero_gpu_sim::banks::{warp_access_conflicts, PaddingScheme, BANK_WIDTH};
use hero_gpu_sim::device::{catalog, rtx_4090};
use hero_gpu_sim::engine::simulate_kernel;
use hero_gpu_sim::graph::{GraphBuilder, GraphError};
use hero_gpu_sim::isa::{InstrClass, Sha2Path};
use hero_gpu_sim::kernel::KernelDesc;
use hero_gpu_sim::occupancy::{occupancy, BlockResources};
use hero_gpu_sim::stream::{LaunchMode, Timeline};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn padding_physical_mapping_is_strictly_monotone(width_idx in 0usize..3, a in 0usize..10_000, b in 0usize..10_000) {
        let width = [16, 24, 32][width_idx];
        let scheme = PaddingScheme::for_width(width);
        prop_assume!(a < b);
        prop_assert!(scheme.physical(a) < scheme.physical(b));
        // Identity scheme really is the identity.
        prop_assert_eq!(PaddingScheme::none().physical(a), a);
    }

    #[test]
    fn padded_contiguous_access_conflict_free_16_32(width_idx in 0usize..2, region in 0usize..64) {
        // Eq. 2 widths: contiguous warp accesses aligned to the padding
        // interval T_h (as the kernels' warp→slot mapping guarantees) are
        // conflict-free at any region offset.
        let width = [16usize, 32][width_idx];
        let scheme = PaddingScheme::for_width(width);
        let base_slot = region * scheme.thread_interval(width).unwrap();
        let offsets: Vec<usize> = (0..32).map(|i| scheme.physical((base_slot + i) * width)).collect();
        let stats = warp_access_conflicts(&offsets, width);
        prop_assert_eq!(stats.conflicts, 0, "width {} base {}", width, base_slot);
    }

    #[test]
    fn padding_never_increases_conflicts(width_idx in 0usize..3, stride in 1usize..4, base in 0usize..64) {
        let width = [16, 24, 32][width_idx];
        let scheme = PaddingScheme::for_width(width);
        let raw: Vec<usize> = (0..32).map(|i| (base + i * stride) * width).collect();
        let padded: Vec<usize> = raw.iter().map(|&o| scheme.physical(o)).collect();
        let before = warp_access_conflicts(&raw, width).conflicts;
        let after = warp_access_conflicts(&padded, width).conflicts;
        prop_assert!(after <= before, "width {width} stride {stride}: {before} -> {after}");
    }

    #[test]
    fn conflicts_zero_iff_distinct_banks(words in proptest::collection::vec(0usize..1024, 32)) {
        let offsets: Vec<usize> = words.iter().map(|w| w * BANK_WIDTH).collect();
        let stats = warp_access_conflicts(&offsets, BANK_WIDTH);
        let mut per_bank: std::collections::HashMap<usize, std::collections::HashSet<usize>> = Default::default();
        for &w in &words {
            per_bank.entry(w % 32).or_default().insert(w);
        }
        let max_ways = per_bank.values().map(|s| s.len()).max().unwrap_or(1) as u64;
        prop_assert_eq!(stats.conflicts, max_ways - 1);
    }

    #[test]
    fn occupancy_monotone_in_each_resource(threads_pow in 5u32..10, regs in 16u32..128, smem_kb in 0u32..48) {
        let d = rtx_4090();
        let threads = 1u32 << threads_pow;
        let base = BlockResources { threads, regs_per_thread: regs, smem_bytes: smem_kb * 1024 };
        let occ0 = occupancy(&d, &base);
        let more_regs = BlockResources { regs_per_thread: regs + 16, ..base };
        prop_assert!(occupancy(&d, &more_regs).ratio <= occ0.ratio + 1e-12);
        let more_smem = BlockResources { smem_bytes: (smem_kb + 8) * 1024, ..base };
        prop_assert!(occupancy(&d, &more_smem).ratio <= occ0.ratio + 1e-12);
    }

    #[test]
    fn kernel_time_monotone_in_work(compressions in 1u64..1_000_000, extra in 1u64..1_000_000) {
        let d = rtx_4090();
        let block = BlockResources { threads: 256, regs_per_thread: 64, smem_bytes: 0 };
        let mut small = KernelDesc::empty("k", 128, block);
        small.instr_total = Sha2Path::Native.compression_mix().scaled(compressions);
        let mut large = KernelDesc::empty("k", 128, block);
        large.instr_total = Sha2Path::Native.compression_mix().scaled(compressions + extra);
        prop_assert!(
            simulate_kernel(&d, &large).time_us >= simulate_kernel(&d, &small).time_us
        );
    }

    #[test]
    fn kernel_time_finite_for_any_reasonable_desc(
        grid in 1u32..4096, threads_pow in 5u32..10, regs in 16u32..200,
        smem_kb in 0u32..64, active in 0.01f64..1.0, work in 1u64..10_000_000
    ) {
        for d in catalog() {
            let block = BlockResources {
                threads: 1 << threads_pow,
                regs_per_thread: regs,
                smem_bytes: smem_kb * 1024,
            };
            let mut desc = KernelDesc::empty("any", grid, block);
            desc.active_thread_fraction = active;
            desc.instr_total.add_count(InstrClass::Alu, work);
            desc.smem_transactions = work / 10;
            desc.gmem_bytes = work;
            desc.syncs_per_block = 8;
            let r = simulate_kernel(&d, &desc);
            prop_assert!(r.time_us.is_finite() && r.time_us >= 0.0, "{}", d.name);
            prop_assert!(r.compute_throughput_pct <= 100.0);
            prop_assert!(r.memory_throughput_pct <= 100.0);
        }
    }

    #[test]
    fn timeline_is_work_conserving(
        durations in proptest::collection::vec(1.0f64..200.0, 1..64),
        sms in proptest::collection::vec(1u32..128, 1..64),
        streams in 1usize..16
    ) {
        let d = rtx_4090();
        let sm_count = d.sm_count as f64;
        let mut tl = Timeline::new(d);
        let n = durations.len().min(sms.len());
        for i in 0..n {
            let s = tl.stream(i % streams);
            tl.launch(format!("k{i}"), s, durations[i], sms[i], LaunchMode::Graph, &[]);
        }
        // Makespan can never undercut total SM-time / capacity.
        let sm_time: f64 = (0..n).map(|i| durations[i] * sms[i].min(128) as f64).sum();
        prop_assert!(tl.makespan_us() + 1e-6 >= sm_time / sm_count);
        // And never exceeds fully-serial execution plus overheads.
        let serial: f64 = (0..n).map(|i| durations[i]).sum();
        prop_assert!(tl.makespan_us() <= serial + n as f64 * 2.0 + 10.0);
    }

    #[test]
    fn timeline_capacity_never_violated(
        durations in proptest::collection::vec(1.0f64..50.0, 1..48),
        sms in proptest::collection::vec(1u32..100, 1..48)
    ) {
        let d = rtx_4090();
        let cap = d.sm_count;
        let mut tl = Timeline::new(d);
        let n = durations.len().min(sms.len());
        for i in 0..n {
            let s = tl.stream(i % 8);
            tl.launch(format!("k{i}"), s, durations[i], sms[i], LaunchMode::Stream, &[]);
        }
        // Check usage at every span boundary.
        let mut boundaries: Vec<f64> = Vec::new();
        for k in tl.executed() {
            boundaries.push(k.start_us);
        }
        for &t in &boundaries {
            let used: u32 = tl
                .executed()
                .iter()
                .zip(sms.iter())
                .filter(|(k, _)| k.start_us <= t && k.end_us > t)
                .map(|(_, &s)| s.min(cap))
                .sum();
            prop_assert!(used <= cap, "usage {used} at t={t}");
        }
    }
}

/// A random layered DAG: `widths[i]` nodes in layer i, each depending on
/// a random subset of the previous layer (index-encoded by `edge_bits`).
fn build_layered(
    widths: &[usize],
    durations: &[f64],
    edge_bits: u64,
) -> (GraphBuilder, Vec<Vec<usize>>, Vec<f64>) {
    let mut g = GraphBuilder::new();
    let mut layers: Vec<Vec<_>> = Vec::new();
    let mut layer_starts: Vec<usize> = Vec::new();
    let mut deps_of: Vec<Vec<usize>> = Vec::new();
    let mut durs: Vec<f64> = Vec::new();
    let mut flat = 0usize;
    let mut bit = 0u32;
    for (li, &w) in widths.iter().enumerate() {
        layer_starts.push(flat);
        let mut layer = Vec::new();
        for _ in 0..w {
            let dur = durations[flat % durations.len()].max(1.0);
            let node = g.kernel(format!("n{flat}"), dur, 8);
            durs.push(dur);
            let mut deps = Vec::new();
            if li > 0 {
                let prev_start = layer_starts[li - 1];
                for (pi, &prev) in layers[li - 1].iter().enumerate() {
                    let take = (edge_bits >> (bit % 64)) & 1 == 1;
                    bit += 1;
                    // Always connect to at least the first parent so layers
                    // stay ordered.
                    if take || pi == 0 {
                        g.depends_on(node, prev);
                        deps.push(prev_start + pi);
                    }
                }
            }
            deps_of.push(deps);
            layer.push(node);
            flat += 1;
        }
        layers.push(layer);
    }
    (g, deps_of, durs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_dags_respect_dependencies(
        widths in proptest::collection::vec(1usize..4, 1..5),
        durations in proptest::collection::vec(1.0f64..50.0, 1..8),
        edge_bits in any::<u64>()
    ) {
        let (g, deps_of, _) = build_layered(&widths, &durations, edge_bits);
        let exe = g.instantiate(&rtx_4090());
        let mut tl = Timeline::new(rtx_4090());
        exe.launch(&mut tl, 0);

        // Executed order: map node name back to flat index.
        let mut span_of = vec![(0.0f64, 0.0f64); deps_of.len()];
        for k in tl.executed() {
            let idx: usize = k.name[1..].parse().expect("n<idx>");
            span_of[idx] = (k.start_us, k.end_us);
        }
        for (node, deps) in deps_of.iter().enumerate() {
            for &d in deps {
                prop_assert!(
                    span_of[node].0 >= span_of[d].1 - 1e-9,
                    "node {node} started {} before dep {d} ended {}",
                    span_of[node].0,
                    span_of[d].1
                );
            }
        }
    }

    #[test]
    fn makespan_at_least_critical_path(
        widths in proptest::collection::vec(1usize..4, 1..5),
        durations in proptest::collection::vec(1.0f64..50.0, 1..8),
        edge_bits in any::<u64>()
    ) {
        let (g, deps_of, durs) = build_layered(&widths, &durations, edge_bits);
        let exe = g.instantiate(&rtx_4090());
        let mut tl = Timeline::new(rtx_4090());
        let end = exe.launch(&mut tl, 0);

        // Longest path through the DAG is a lower bound on the makespan.
        let mut longest = vec![0.0f64; deps_of.len()];
        for node in 0..deps_of.len() {
            let base = deps_of[node].iter().map(|&d| longest[d]).fold(0.0f64, f64::max);
            longest[node] = base + durs[node];
        }
        let critical = longest.iter().fold(0.0f64, |a, &b| a.max(b));
        prop_assert!(end + 1e-6 >= critical, "end {end} < critical {critical}");
    }

    #[test]
    fn any_back_edge_makes_a_cycle(
        n in 2usize..8,
        from in 0usize..8,
        to in 0usize..8
    ) {
        let from = from % n;
        let to = to % n;
        prop_assume!(from < to); // back edge target earlier in chain
        let mut g = GraphBuilder::new();
        let nodes: Vec<_> = (0..n).map(|i| g.kernel(format!("k{i}"), 1.0, 1)).collect();
        for w in nodes.windows(2) {
            g.depends_on(w[1], w[0]);
        }
        // Forward chain + one backward edge = cycle.
        g.depends_on(nodes[from], nodes[to]);
        prop_assert_eq!(
            g.try_instantiate(&rtx_4090()).unwrap_err(),
            GraphError::CycleDetected
        );
    }

    #[test]
    fn repeated_launches_are_deterministic_per_stream_group(
        widths in proptest::collection::vec(1usize..3, 1..4),
        durations in proptest::collection::vec(1.0f64..20.0, 1..4)
    ) {
        let (g, _, _) = build_layered(&widths, &durations, u64::MAX);
        let exe = g.instantiate(&rtx_4090());
        let mut tl1 = Timeline::new(rtx_4090());
        let mut tl2 = Timeline::new(rtx_4090());
        let a1 = exe.launch(&mut tl1, 0);
        let a2 = exe.launch(&mut tl2, 0);
        prop_assert!((a1 - a2).abs() < 1e-9, "identical launches must agree");
        let b1 = exe.launch(&mut tl1, 0);
        prop_assert!(b1 >= a1, "same-group relaunch serializes");
    }
}
