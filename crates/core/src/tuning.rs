//! The offline **Auto Tree Tuning** search (Algorithm 1 of the paper).
//!
//! Given FORS parameters `(k, log t, n)` and a device's shared-memory
//! budget, the search enumerates `(T_set, F)` configurations — threads per
//! `Set` and number of fused `Set`s — under thread and shared-memory
//! constraints, then ranks candidates by `(sync points ↑, thread
//! utilization ↓, smem utilization ↓)` exactly as Algorithm 1's final
//! `argmin` does.

use hero_gpu_sim::device::{DeviceProps, SmemPolicy};
use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;

/// One candidate fusion configuration from the search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FusionCandidate {
    /// Threads allocated per `Set` (`T_set`), a multiple of `T_min = t`.
    pub threads_per_set: u32,
    /// FORS trees processed concurrently inside one `Set`
    /// (`N_tree = T_set / T_min`).
    pub trees_per_set: u32,
    /// Number of fused `Set`s per block (`F`).
    pub fused_sets: u32,
    /// Thread utilization `U_T = T_set / T_max`.
    pub thread_utilization: f64,
    /// Shared-memory utilization `U_S = F·S_set / S_max`.
    pub smem_utilization: f64,
    /// Synchronization points after fusion:
    /// `log t · ceil(k / N_tree) / F`.
    pub sync_points: f64,
    /// Shared memory used per block in bytes (`F · S_set`).
    pub smem_bytes: u32,
    /// Relax-FORS buffering depth: each thread produces `2^depth` leaves
    /// into its register Relax Buffer (0 = plain fusion, 1 = the paper's
    /// Relax model, >1 = the generalized extension for `-s` sets).
    pub relax_depth: u32,
}

impl FusionCandidate {
    /// Total threads a fused block runs (`T_set`; threads are *fixed per
    /// Set* and reused across fused sets via the OFFSET trick, Fig. 3).
    pub fn block_threads(&self) -> u32 {
        self.threads_per_set
    }

    /// Trees materialized in shared memory at once
    /// (`N_tree · F`).
    pub fn concurrent_trees(&self) -> u32 {
        self.trees_per_set * self.fused_sets
    }
}

/// Result of the tuning search: the winner plus the ranked candidate set
/// (the paper keeps near-optimal candidates for profiling-driven final
/// selection, §III-B3).
#[derive(Clone, Debug)]
pub struct TuningResult {
    /// The `argmin` winner `(T*, F*)`.
    pub best: FusionCandidate,
    /// All valid candidates, best first.
    pub candidates: Vec<FusionCandidate>,
}

/// Tuning knobs of Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct TuningOptions {
    /// The optional tune factor `α` (line 18): candidates with
    /// `U_T < α` are discarded unless they fully use both resources.
    pub alpha: f64,
    /// Which shared-memory limit `SEMEPerBlock()` reports.
    pub smem_policy: SmemPolicy,
    /// Exclude configurations that saturate *both* threads and shared
    /// memory (lines 18–19: full saturation raises contention).
    pub exclude_full_saturation: bool,
    /// The hash primitive the tuned kernels will run. The search never
    /// reads it: it is modelled at hash-invocation granularity, and
    /// thread and shared-memory budgets do not depend on the primitive.
    /// The field stays because the repository benchmark sets it
    /// (`perfbench/src/ladder.rs:843`).
    pub hash: HashAlg,
}

impl Default for TuningOptions {
    /// `α = 0.6`: the paper calls `α` "an optional tune factor \[that\] may
    /// vary across GPU architectures"; 0.6 is the value under which the
    /// search reproduces Table IV on the RTX 4090 (a lower α admits
    /// half-empty blocks whose extra `Set` rounds the paper's profiling
    /// rejects).
    fn default() -> Self {
        Self {
            alpha: 0.6,
            smem_policy: SmemPolicy::Static,
            exclude_full_saturation: true,
            hash: HashAlg::Sha256,
        }
    }
}

/// Errors from the tuning search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TuneError {
    /// A single FORS tree needs more threads than a block can hold
    /// (handled by the Relax-FORS model instead, §III-B4).
    TreeTooLarge {
        /// Threads one tree requires (`2^log t`).
        needed: u32,
        /// Device block capacity.
        max: u32,
    },
    /// No configuration satisfied the constraints.
    NoCandidate,
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::TreeTooLarge { needed, max } => {
                write!(
                    f,
                    "one FORS tree needs {needed} threads, block maximum is {max}"
                )
            }
            TuneError::NoCandidate => f.write_str("no fusion configuration satisfies constraints"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Runs Algorithm 1 for `params` on `device`.
///
/// # Errors
///
/// [`TuneError::NoCandidate`] if the constraint set is empty;
/// [`TuneError::TreeTooLarge`] if even one tree exceeds the block thread
/// limit (use [`tune_relax`] then).
pub fn tune(
    device: &DeviceProps,
    params: &Params,
    opts: &TuningOptions,
) -> Result<TuningResult, TuneError> {
    let t = params.t() as u32;
    search(device, params, opts, t, params.n as u32, 0)
}

/// Maximum bytes a thread's register Relax Buffer may hold — the paper's
/// per-thread register threshold `R_t` (§III-B4): 128 spare 32-bit
/// registers.
pub const RELAX_BUFFER_MAX_BYTES: u32 = 512;

/// Algorithm 1 with the **Relax-FORS** model (§III-B4): `T_min = t/2`
/// (one thread per leaf *pair*) and per-tree shared memory halved, because
/// the bottom layer is buffered in registers.
///
/// # Errors
///
/// Same as [`tune`].
pub fn tune_relax(
    device: &DeviceProps,
    params: &Params,
    opts: &TuningOptions,
) -> Result<TuningResult, TuneError> {
    tune_relax_depth(device, params, opts, 1)
}

/// Generalized Relax-FORS (extension beyond the paper): each thread
/// produces `2^depth` leaves, reduces them locally in its register
/// buffer, and stores one level-`depth` node — `T_min = t / 2^depth`.
/// `depth = 1` is the paper's model; deeper buffering admits the `-s`
/// parameter sets whose trees (`t` up to 16384) dwarf a thread block.
///
/// # Errors
///
/// [`TuneError::TreeTooLarge`] if even the buffered tree exceeds the
/// block limit or the buffer exceeds the register threshold `R_t`;
/// otherwise as [`tune`].
pub fn tune_relax_depth(
    device: &DeviceProps,
    params: &Params,
    opts: &TuningOptions,
    depth: u32,
) -> Result<TuningResult, TuneError> {
    assert!(
        depth >= 1 && depth < params.log_t as u32,
        "depth must be in [1, log t)"
    );
    let buffer_bytes = (1u32 << depth) * params.n as u32;
    if buffer_bytes > RELAX_BUFFER_MAX_BYTES {
        return Err(TuneError::TreeTooLarge {
            needed: buffer_bytes,
            max: RELAX_BUFFER_MAX_BYTES,
        });
    }
    let t_min = (params.t() >> depth) as u32;
    search(device, params, opts, t_min, params.n as u32, depth)
}

fn search(
    device: &DeviceProps,
    params: &Params,
    opts: &TuningOptions,
    t_min: u32,
    n: u32,
    relax_depth: u32,
) -> Result<TuningResult, TuneError> {
    let t_max = device.max_threads_per_block; // line 2
    let s_max = device.seme_per_block(opts.smem_policy) as u64;
    let t = params.t() as u64;
    let k = params.k as u32;

    if t_min > t_max {
        return Err(TuneError::TreeTooLarge {
            needed: t_min,
            max: t_max,
        });
    }

    // Shared memory one tree occupies: full tree normally; only the
    // layers above `relax_depth` when the bottom lives in the register
    // Relax Buffer.
    let tree_smem = (t >> relax_depth) * n as u64;

    let mut candidates = Vec::new();

    // Line 4: T_set from T_min to T_max step T_min.
    let mut t_set = t_min;
    while t_set <= t_max {
        let n_tree = t_set / t_min; // line 5
        let s_set = n_tree as u64 * tree_smem; // line 6
        if s_set > s_max {
            t_set += t_min;
            continue; // line 8
        }
        // Line 10: F_max = min(floor(S_max/S_set), floor(k/N_tree)).
        let f_max = ((s_max / s_set) as u32).min(k / n_tree);
        for f in 1..=f_max {
            let t_used = t_set; // line 12: threads fixed per Set
            let s_used = f as u64 * s_set; // line 13
            if t_used > t_max || s_used > s_max {
                continue; // line 15
            }
            let u_t = t_used as f64 / t_max as f64; // line 17
            let u_s = s_used as f64 / s_max as f64;
            // Lines 18-19: drop fully saturated configs and low-utilization
            // configs below α.
            if (opts.exclude_full_saturation && u_t >= 1.0 && u_s >= 1.0) || u_t < opts.alpha {
                continue;
            }
            // Line 21: sync points after fusion.
            let sync = params.log_t as f64 * (k as f64 / n_tree as f64).ceil() / f as f64;
            candidates.push(FusionCandidate {
                threads_per_set: t_set,
                trees_per_set: n_tree,
                fused_sets: f,
                thread_utilization: u_t,
                smem_utilization: u_s,
                sync_points: sync,
                smem_bytes: s_used as u32,
                relax_depth,
            });
        }
        t_set += t_min;
    }

    if candidates.is_empty() {
        return Err(TuneError::NoCandidate);
    }

    // Line 25: argmin over (sync, -U_T, -U_S).
    candidates.sort_by(|a, b| {
        a.sync_points
            .partial_cmp(&b.sync_points)
            .expect("finite sync")
            .then(
                b.thread_utilization
                    .partial_cmp(&a.thread_utilization)
                    .expect("finite U_T"),
            )
            .then(
                b.smem_utilization
                    .partial_cmp(&a.smem_utilization)
                    .expect("finite U_S"),
            )
    });

    Ok(TuningResult {
        best: candidates[0],
        candidates,
    })
}

/// Convenience: run [`tune`], falling back to [`tune_relax`] when a tree
/// exceeds block capacity or the standard search finds nothing useful —
/// the paper applies Relax-FORS to 256f where plain fusion degenerates
/// (`F = 1`, two trees, excessive synchronization).
pub fn tune_auto(
    device: &DeviceProps,
    params: &Params,
    opts: &TuningOptions,
) -> Result<TuningResult, TuneError> {
    match tune(device, params, opts) {
        Ok(result) => {
            // Degenerate plain fusion (≤2 concurrent trees) → prefer relax
            // if it fuses more trees (the 256f case).
            if result.best.concurrent_trees() <= 2 {
                if let Ok(relaxed) = tune_relax(device, params, opts) {
                    if relaxed.best.concurrent_trees() > result.best.concurrent_trees() {
                        return Ok(relaxed);
                    }
                }
            }
            Ok(result)
        }
        Err(TuneError::TreeTooLarge { .. }) => {
            // Deepen the Relax Buffer until the tree fits (generalized
            // model; services the -s sets).
            for depth in 1..params.log_t as u32 {
                match tune_relax_depth(device, params, opts, depth) {
                    Ok(result) => return Ok(result),
                    Err(_) => continue,
                }
            }
            Err(TuneError::NoCandidate)
        }
        Err(e) => Err(e),
    }
}

/// Does nothing: searches are no longer memoized (one takes
/// microseconds). The name stays because the repository benchmark calls
/// it before every engine build (`perfbench/src/workloads.rs:254`).
pub fn clear_tuning_cache() {}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_gpu_sim::device::{gtx_1070, h100, rtx_4090};

    #[test]
    fn search_is_a_function_of_device_and_params() {
        // Equal inputs give equal results, whichever primitive the
        // options name; another device or parameter set gives another.
        let opts = TuningOptions::default();
        let shake = TuningOptions {
            hash: HashAlg::Shake256,
            ..opts
        };
        let (d, p) = (rtx_4090(), Params::sphincs_128f());
        let first = tune_auto(&d, &p, &opts).unwrap();
        for again in [tune_auto(&d, &p, &opts), tune_auto(&d, &p, &shake)] {
            let again = again.unwrap();
            assert_eq!(again.best, first.best);
            assert_eq!(again.candidates, first.candidates);
        }
        let other_set = tune_auto(&d, &Params::sphincs_192f(), &opts).unwrap();
        assert_ne!(other_set.best, first.best);
        let mut small = rtx_4090();
        small.smem_static_per_block /= 2;
        let other_device = tune_auto(&small, &p, &opts).unwrap();
        assert_ne!(other_device.best, first.best);
    }

    #[test]
    fn table_iv_128f() {
        // Table IV: SPHINCS+-128f on RTX 4090 → U_S = U_T = 0.6875, F = 3.
        let r = tune(
            &rtx_4090(),
            &Params::sphincs_128f(),
            &TuningOptions::default(),
        )
        .unwrap();
        assert_eq!(r.best.fused_sets, 3);
        assert!(
            (r.best.thread_utilization - 0.6875).abs() < 1e-9,
            "{:?}",
            r.best
        );
        assert!((r.best.smem_utilization - 0.6875).abs() < 1e-9);
        assert_eq!(r.best.threads_per_set, 704); // 11 trees × 64 threads
        assert_eq!(r.best.trees_per_set, 11);
    }

    #[test]
    fn table_iv_192f() {
        // Table IV: SPHINCS+-192f on RTX 4090 → U_S = U_T = 0.75, F = 2.
        let r = tune(
            &rtx_4090(),
            &Params::sphincs_192f(),
            &TuningOptions::default(),
        )
        .unwrap();
        assert_eq!(r.best.fused_sets, 2);
        assert!(
            (r.best.thread_utilization - 0.75).abs() < 1e-9,
            "{:?}",
            r.best
        );
        assert!((r.best.smem_utilization - 0.75).abs() < 1e-9);
        assert_eq!(r.best.trees_per_set, 3); // 3 trees × 256 threads
    }

    #[test]
    fn plain_256f_is_degenerate() {
        // 256f: t=512 leaves × 32 B = 16 KB/tree; at most 2 trees in
        // static 48 KB with 512 threads each (§III-B4).
        let r = tune(
            &rtx_4090(),
            &Params::sphincs_256f(),
            &TuningOptions::default(),
        )
        .unwrap();
        assert!(r.best.concurrent_trees() <= 2, "{:?}", r.best);
    }

    #[test]
    fn relax_256f_fuses_more_trees() {
        let plain = tune(
            &rtx_4090(),
            &Params::sphincs_256f(),
            &TuningOptions::default(),
        )
        .unwrap();
        let relax = tune_relax(
            &rtx_4090(),
            &Params::sphincs_256f(),
            &TuningOptions::default(),
        )
        .unwrap();
        assert!(relax.best.concurrent_trees() > plain.best.concurrent_trees());
        // Relax halves both thread and smem demand per tree: 256 threads,
        // 8 KB per tree.
        assert_eq!(relax.best.threads_per_set % 256, 0);
    }

    #[test]
    fn tune_auto_picks_relax_for_256f_only() {
        let opts = TuningOptions::default();
        let d = rtx_4090();
        let r128 = tune_auto(&d, &Params::sphincs_128f(), &opts).unwrap();
        assert_eq!(r128.best.fused_sets, 3); // plain fusion result retained
        let r256 = tune_auto(&d, &Params::sphincs_256f(), &opts).unwrap();
        assert!(r256.best.concurrent_trees() > 2); // relax result
    }

    #[test]
    fn candidates_sorted_by_priority() {
        let r = tune(
            &rtx_4090(),
            &Params::sphincs_128f(),
            &TuningOptions::default(),
        )
        .unwrap();
        for pair in r.candidates.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.sync_points < b.sync_points
                    || (a.sync_points == b.sync_points
                        && a.thread_utilization >= b.thread_utilization),
                "ordering violated: {a:?} then {b:?}"
            );
        }
    }

    #[test]
    fn constraints_respected_by_all_candidates() {
        let d = rtx_4090();
        let opts = TuningOptions::default();
        for p in Params::fast_sets() {
            let result = tune_auto(&d, &p, &opts).unwrap();
            for c in &result.candidates {
                assert!(c.block_threads() <= d.max_threads_per_block);
                assert!(c.smem_bytes <= d.smem_static_per_block);
                assert!(c.thread_utilization >= opts.alpha);
                assert!(c.concurrent_trees() <= p.k as u32);
            }
        }
    }

    #[test]
    fn dynamic_smem_policy_admits_larger_fusions() {
        // Fig. 14: bigger shared memory (e.g. Hopper's 227 KB dynamic)
        // admits deeper fusion than the static 48 KB limit.
        let opts_static = TuningOptions::default();
        let opts_dyn = TuningOptions {
            smem_policy: SmemPolicy::DynamicMax,
            ..opts_static
        };
        let h = h100();
        let p = Params::sphincs_192f();
        let s = tune(&h, &p, &opts_static).unwrap();
        let d = tune(&h, &p, &opts_dyn).unwrap();
        assert!(d.best.smem_bytes >= s.best.smem_bytes);
    }

    #[test]
    fn pascal_small_smem_restricts_fusion() {
        // GTX 1070: 48 KB static and no opt-in — fusion depth can't exceed
        // the 4090's.
        let p = Params::sphincs_128f();
        let pascal = tune(&gtx_1070(), &p, &TuningOptions::default()).unwrap();
        let ada = tune(&rtx_4090(), &p, &TuningOptions::default()).unwrap();
        assert!(pascal.best.concurrent_trees() <= ada.best.concurrent_trees());
    }

    #[test]
    fn alpha_filters_low_utilization() {
        let strict = TuningOptions {
            alpha: 0.9,
            ..TuningOptions::default()
        };
        match tune(&rtx_4090(), &Params::sphincs_128f(), &strict) {
            Ok(r) => assert!(r.candidates.iter().all(|c| c.thread_utilization >= 0.9)),
            Err(TuneError::NoCandidate) => {} // also acceptable
            Err(e) => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn sync_points_formula() {
        // 128f winner: log t=6, ceil(33/11)=3, F=3 → 6 sync points.
        let r = tune(
            &rtx_4090(),
            &Params::sphincs_128f(),
            &TuningOptions::default(),
        )
        .unwrap();
        assert!((r.best.sync_points - 6.0).abs() < 1e-9);
    }

    #[test]
    fn generalized_relax_admits_s_variants() {
        // -s trees (t = 4096..16384) dwarf a 1024-thread block; the
        // generalized Relax Buffer deepens until one thread carries
        // 2^depth leaves and the tree fits.
        let d = rtx_4090();
        let opts = TuningOptions::default();
        for (p, min_depth) in [
            (Params::sphincs_128s(), 2), // t=4096 → t/4 = 1024
            (Params::sphincs_192s(), 4), // t=16384 → t/16 = 1024
            (Params::sphincs_256s(), 4),
        ] {
            assert!(matches!(
                tune(&d, &p, &opts),
                Err(TuneError::TreeTooLarge { .. })
            ));
            let r = tune_auto(&d, &p, &opts).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert!(
                r.best.relax_depth >= min_depth,
                "{}: {:?}",
                p.name(),
                r.best
            );
            assert!(r.best.block_threads() <= 1024);
            // Register buffer respects the R_t threshold.
            assert!((1u32 << r.best.relax_depth) * p.n as u32 <= RELAX_BUFFER_MAX_BYTES);
        }
    }

    #[test]
    fn relax_depth_recorded_on_candidates() {
        let d = rtx_4090();
        let opts = TuningOptions::default();
        let plain = tune(&d, &Params::sphincs_128f(), &opts).unwrap();
        assert!(plain.candidates.iter().all(|c| c.relax_depth == 0));
        let relax = tune_relax(&d, &Params::sphincs_256f(), &opts).unwrap();
        assert!(relax.candidates.iter().all(|c| c.relax_depth == 1));
    }

    #[test]
    fn relax_buffer_threshold_enforced() {
        // A hypothetical wide-hash deep buffer must be rejected.
        let d = rtx_4090();
        let p = Params::sphincs_256s(); // n=32: depth 5 → 32 × 32 = 1024 B
        assert!(matches!(
            tune_relax_depth(&d, &p, &TuningOptions::default(), 5),
            Err(TuneError::TreeTooLarge { .. })
        ));
    }
}
