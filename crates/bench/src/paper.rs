//! The HERO-Sign paper's published measurements, kept verbatim so every
//! table can print paper-vs-reproduction side by side — including the
//! published FPGA/ASIC/AVX2 comparators of Tables IX and X, which the
//! paper quotes rather than reruns.
//!
//! Indexing convention: `[0] = 128f, [1] = 192f, [2] = 256f`.

/// Table II — TCAS-SPHINCSp time breakdown (ms).
pub struct Table2Row {
    /// FORS phase (ms).
    pub fors_ms: f64,
    /// Idle time (ms).
    pub idle_ms: f64,
    /// MSS phase (ms).
    pub mss_ms: f64,
    /// WOTS+ phase (ms).
    pub wots_ms: f64,
}

/// Table II rows for 128f/192f/256f.
pub const TABLE2: [Table2Row; 3] = [
    Table2Row {
        fors_ms: 1.89,
        idle_ms: 2.27,
        mss_ms: 6.57,
        wots_ms: 0.93,
    },
    Table2Row {
        fors_ms: 7.75,
        idle_ms: 2.31,
        mss_ms: 10.06,
        wots_ms: 1.33,
    },
    Table2Row {
        fors_ms: 13.25,
        idle_ms: 2.29,
        mss_ms: 26.55,
        wots_ms: 1.47,
    },
];

/// Table III — baseline 128f per-kernel profile on RTX 4090:
/// (warp occupancy %, theoretical occupancy %, registers/thread)
/// for FORS / TREE / WOTS+.
pub const TABLE3: [(f64, f64, u32); 3] = [(17.0, 66.67, 64), (25.0, 25.0, 128), (46.0, 52.08, 72)];

/// Table IV — tuning-search winners on RTX 4090:
/// (smem utilization, thread utilization, F) for 128f and 192f.
pub const TABLE4: [(f64, f64, u32); 2] = [(0.6875, 0.6875, 3), (0.75, 0.75, 2)];

/// Table V — PTX selected? (FORS, TREE, WOTS+) per parameter set.
pub const TABLE5: [(bool, bool, bool); 3] = [
    (true, false, false),
    (true, false, false),
    (true, true, true),
];

/// Table VI — reduction bank conflicts, baseline (load, store) per set,
/// FORS_Sign with Block = 1; padded counts are (0|1, 0).
pub const TABLE6_FORS_BASELINE: [(u64, u64); 3] = [
    (22_099_968, 12_435_456),
    (64_152, 30_096),
    (400_960, 192_640),
];

/// Table VI — TREE_Sign baseline (load, store) conflicts.
pub const TABLE6_TREE_BASELINE: [(u64, u64); 3] = [(1_568, 704), (1_203, 408), (11_905, 5_377)];

/// Table VIII — kernel KOPS (baseline, HERO) per set for
/// FORS / TREE / WOTS+.
pub struct Table8Row {
    /// (baseline KOPS, hero KOPS).
    pub fors: (f64, f64),
    /// (baseline KOPS, hero KOPS).
    pub tree: (f64, f64),
    /// (baseline KOPS, hero KOPS).
    pub wots: (f64, f64),
}

/// Table VIII rows for 128f/192f/256f.
pub const TABLE8: [Table8Row; 3] = [
    Table8Row {
        fors: (442.9, 946.3),
        tree: (125.2, 157.7),
        wots: (2493.1, 4915.7),
    },
    Table8Row {
        fors: (128.9, 222.0),
        tree: (88.2, 93.6),
        wots: (1457.6, 2464.9),
    },
    Table8Row {
        fors: (66.6, 116.4),
        tree: (36.4, 44.9),
        wots: (776.8, 1570.9),
    },
];

/// Fig. 11 — FORS_Sign ablation KOPS per step
/// (Baseline, MMTP, +FS, +PTX, +HybridME, +FreeBank).
pub const FIG11: [[f64; 6]; 3] = [
    [442.9, 702.7, 721.8, 752.0, 915.9, 946.3],
    [128.9, 174.1, 178.6, 206.4, 219.1, 222.0],
    [66.6, 73.5, 91.9, 97.8, 106.7, 116.4],
];

/// Fig. 12 — full-pipeline KOPS: (baseline no graph, baseline with graph,
/// HERO no graph, HERO with graph).
pub const FIG12_KOPS: [[f64; 4]; 3] = [
    [93.17, 97.54, 116.48, 119.47],
    [51.18, 56.50, 60.94, 65.43],
    [23.93, 25.74, 31.28, 33.88],
];

/// Fig. 12 — kernel launch latency (µs): (baseline, HERO no graph,
/// HERO with graph).
pub const FIG12_LATENCY_US: [[f64; 3]; 3] = [
    [4_270.0, 308.06, 49.41],
    [4_439.0, 2_722.75, 42.97],
    [7_102.0, 5_025.00, 32.10],
];

/// Fig. 13 — end-to-end speedup ranges over block sizes 2–64:
/// (max speedup at small blocks, speedup at 64).
pub const FIG13_SMALL_BLOCK_SPEEDUP: [(f64, f64); 3] = [(3.10, 3.10), (2.92, 2.48), (2.60, 2.48)];

/// Fig. 14 — cross-architecture HERO-vs-baseline speedups
/// (Pascal, Volta, Turing, Ampere, Hopper) × (128f, 192f, 256f).
pub const FIG14_SPEEDUP: [[f64; 3]; 5] = [
    [1.17, 1.18, 1.24],
    [1.15, 1.20, 1.28],
    [1.42, 1.17, 1.41],
    [1.16, 1.34, 1.43],
    [1.33, 1.31, 1.88],
];

/// One cross-platform comparator entry (Table IX).
#[derive(Clone, Copy, Debug)]
pub struct PlatformEntry {
    /// System name.
    pub name: &'static str,
    /// Hash function used.
    pub hash: &'static str,
    /// Throughput in KOPS per parameter set (`None` = not supported).
    pub kops: [Option<f64>; 3],
    /// Power per signature in Watts (`None` = not reported).
    pub pps_watt: [Option<f64>; 3],
}

/// Table IX — HERO-Sign's own row (RTX 4090).
pub const TABLE9_HERO: PlatformEntry = PlatformEntry {
    name: "HERO-Sign (RTX 4090)",
    hash: "SHA256",
    kops: [Some(119.47), Some(65.43), Some(33.88)],
    pps_watt: [Some(0.003), Some(0.002), Some(0.003)],
};

/// Table IX — the FPGA and ASIC comparators: Berthet et al. (IPDPSW'21,
/// Xilinx XZU3EG), Amiet et al. (DSD'20, Artix-7, SHAKE256) and
/// SPHINCSLET (TECS'25 ASIC).
pub const TABLE9_COMPARATORS: [PlatformEntry; 3] = [
    PlatformEntry {
        name: "Berthet et al. (FPGA XZU3EG)",
        hash: "SHA256",
        kops: [Some(0.016), None, Some(0.000_57)],
        pps_watt: [Some(0.4), None, Some(0.474)],
    },
    PlatformEntry {
        name: "Amiet et al. (FPGA Artix-7)",
        hash: "SHAKE256",
        kops: [Some(0.99), Some(0.85), Some(0.40)],
        pps_watt: [Some(9.76), Some(9.69), Some(9.80)],
    },
    PlatformEntry {
        name: "SPHINCSLET (ASIC)",
        hash: "SHA256",
        kops: [Some(0.52), Some(0.20), Some(0.10)],
        pps_watt: [None, None, None],
    },
];

/// Table X — published AVX2 CPU KOPS (single thread, 16 threads).
pub const TABLE10_AVX2: [(f64, f64); 3] = [(0.143, 0.828), (0.087, 0.560), (0.044, 0.356)];

/// Table XI — average compile seconds (baseline, HERO).
pub const TABLE11: [(f64, f64); 3] = [(18.68, 14.61), (23.25, 21.72), (24.19, 19.18)];

/// §IV-E3 — input-size sensitivity average speedups per set.
pub const INPUT_SIZE_SPEEDUP: [f64; 3] = [1.30, 1.28, 1.45];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_speedups_match_headline() {
        // §IV-D: "up to 2.14×, 1.26× and 2.02× speedups in FORS_Sign,
        // TREE_Sign and WOTS+_Sign".
        let fors_max = TABLE8
            .iter()
            .map(|r| r.fors.1 / r.fors.0)
            .fold(0.0f64, f64::max);
        let tree_max = TABLE8
            .iter()
            .map(|r| r.tree.1 / r.tree.0)
            .fold(0.0f64, f64::max);
        let wots_max = TABLE8
            .iter()
            .map(|r| r.wots.1 / r.wots.0)
            .fold(0.0f64, f64::max);
        assert!((fors_max - 2.14).abs() < 0.01);
        assert!((tree_max - 1.26).abs() < 0.01);
        assert!((wots_max - 2.02).abs() < 0.01);
    }

    #[test]
    fn fig12_reduction_factors() {
        // 86.4×, 103.3×, 221.3× launch-latency reductions with graph.
        for (i, expect) in [86.4, 103.3, 221.3].iter().enumerate() {
            let ratio = FIG12_LATENCY_US[i][0] / FIG12_LATENCY_US[i][2];
            assert!((ratio - expect).abs() / expect < 0.01, "set {i}: {ratio}");
        }
    }

    #[test]
    fn headline_ratios_reproduce() {
        // §IV-D: vs Amiet et al.: 120.68×, 76.98×, 84.70×.
        let amiet = &TABLE9_COMPARATORS[1];
        for (i, expect) in [120.68, 76.98, 84.70].iter().enumerate() {
            let ratio = TABLE9_HERO.kops[i].unwrap() / amiet.kops[i].unwrap();
            assert!((ratio - expect).abs() / expect < 0.01, "set {i}: {ratio}");
        }
        // vs SPHINCSLET: 229.75×, 327.15×, 338.8×.
        let asic = &TABLE9_COMPARATORS[2];
        for (i, expect) in [229.75, 327.15, 338.8].iter().enumerate() {
            let ratio = TABLE9_HERO.kops[i].unwrap() / asic.kops[i].unwrap();
            assert!((ratio - expect).abs() / expect < 0.01, "set {i}: {ratio}");
        }
        // vs AVX2 16-thread: 144.29×, 116.84×, 95.17×.
        for (i, expect) in [144.29, 116.84, 95.17].iter().enumerate() {
            let ratio = TABLE9_HERO.kops[i].unwrap() / TABLE10_AVX2[i].1;
            assert!((ratio - expect).abs() / expect < 0.01, "set {i}: {ratio}");
        }
    }
}
