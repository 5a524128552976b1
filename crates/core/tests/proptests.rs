//! Property-based tests over HERO-Sign's tuning and kernel layer:
//! Algorithm 1 invariants under randomized FORS parameters and devices,
//! layout geometry conservation, and functional/analytic consistency.

use hero_gpu_sim::device::{catalog, rtx_4090};
use hero_sign::kernels::fors_sign::{self, ForsLayout};
use hero_sign::kernels::KernelConfig;
use hero_sign::model::{OptConfig, SimModel};
use hero_sign::tuning::{tune, tune_auto, TuneError, TuningOptions};
use hero_sphincs::params::Params;
use proptest::prelude::*;

/// Random-but-valid FORS shapes: k trees of height log_t at width n.
fn arb_params() -> impl Strategy<Value = Params> {
    (2usize..=10, 4usize..=40, 0usize..3).prop_map(|(log_t, k, width)| {
        let mut p = match width {
            0 => Params::sphincs_128f(),
            1 => Params::sphincs_192f(),
            _ => Params::sphincs_256f(),
        };
        p.log_t = log_t;
        p.k = k;
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tuner_candidates_always_satisfy_constraints(p in arb_params(), dev_idx in 0usize..6) {
        let device = catalog().swap_remove(dev_idx);
        let opts = TuningOptions::default();
        match tune(&device, &p, &opts) {
            Ok(result) => {
                for c in &result.candidates {
                    prop_assert!(c.block_threads() <= device.max_threads_per_block);
                    prop_assert!(c.smem_bytes <= device.smem_static_per_block);
                    prop_assert!(c.trees_per_set >= 1);
                    prop_assert!(c.fused_sets >= 1);
                    prop_assert!(c.concurrent_trees() <= p.k as u32);
                    prop_assert!(c.thread_utilization >= opts.alpha);
                    prop_assert!(c.thread_utilization <= 1.0 + 1e-9);
                    prop_assert!(c.smem_utilization <= 1.0 + 1e-9);
                    prop_assert!(c.sync_points > 0.0);
                }
                // Winner is the argmin under the paper's priority.
                let best = result.best;
                for c in &result.candidates {
                    prop_assert!(
                        best.sync_points <= c.sync_points + 1e-9,
                        "winner {best:?} beaten by {c:?}"
                    );
                }
            }
            Err(TuneError::TreeTooLarge { needed, max }) => {
                prop_assert!(needed > max);
                prop_assert_eq!(needed, p.t() as u32);
            }
            Err(TuneError::NoCandidate) => {
                // Legal when α filters everything (e.g. tiny k).
            }
        }
    }

    #[test]
    fn fused_geometry_conserves_trees(p in arb_params()) {
        let device = rtx_4090();
        if let Ok(result) = tune_auto(&device, &p, &TuningOptions::default()) {
            let plain_threads = p.t() as u32 * result.best.trees_per_set;
            let layout = if result.best.block_threads() < plain_threads {
                ForsLayout::Relax(result.best)
            } else {
                ForsLayout::Fused(result.best)
            };
            let geom = layout.geometry(&p);
            // Every tree is processed exactly once across rounds.
            prop_assert!(geom.rounds * geom.concurrent_trees >= p.k as u32);
            prop_assert!((geom.rounds - 1) * geom.concurrent_trees < p.k as u32);
        }
    }

    #[test]
    fn bank_measurement_transactions_scale_with_trees(p in arb_params()) {
        use hero_gpu_sim::banks::PaddingScheme;
        let geom_small = ForsLayout::Baseline.geometry(&p);
        let geom_large = ForsLayout::Mmtp.geometry(&p);
        let (l_s, s_s) = fors_sign::measure_reduction(&p, &geom_small, PaddingScheme::none());
        let (l_l, s_l) = fors_sign::measure_reduction(&p, &geom_large, PaddingScheme::none());
        // More concurrent trees → at least as many transactions per round.
        prop_assert!(l_l.transactions + s_l.transactions >= l_s.transactions + s_s.transactions);
    }

    #[test]
    fn descriptors_always_resident_and_finite(p in arb_params(), messages in 1u32..2048) {
        let device = rtx_4090();
        let model = SimModel::hero(device.clone(), p).unwrap();
        for desc in model.kernel_descs(messages) {
            let occ = hero_gpu_sim::occupancy::occupancy(&device, &desc.block);
            prop_assert!(occ.blocks_per_sm >= 1, "{:?}", desc.block);
            let report = hero_gpu_sim::engine::simulate_kernel(&device, &desc);
            prop_assert!(report.time_us.is_finite() && report.time_us > 0.0);
        }
    }

    #[test]
    fn hero_beats_baseline_for_any_fors_shape(p in arb_params()) {
        let device = rtx_4090();
        let base = SimModel::baseline(device.clone(), p).unwrap().kernel_reports(256)[0].time_us;
        let hero = SimModel::hero(device.clone(), p).unwrap().kernel_reports(256)[0].time_us;
        prop_assert!(hero <= base * 1.05, "hero {hero} vs base {base} for {p:?}");
    }

    #[test]
    fn ablation_first_and_last_bracket_all_steps(msgs in 64u32..1024) {
        let device = rtx_4090();
        let p = Params::sphincs_128f();
        let ladder = OptConfig::ablation_ladder();
        let times: Vec<f64> = ladder
            .iter()
            .map(|(_, cfg)| {
                SimModel::new(device.clone(), p, *cfg).unwrap().kernel_reports(msgs)[0].time_us
            })
            .collect();
        let first = times[0];
        let last = *times.last().unwrap();
        for (i, t) in times.iter().enumerate() {
            prop_assert!(*t <= first * 1.01, "step {i} slower than baseline");
            prop_assert!(*t >= last * 0.99, "step {i} faster than full HERO");
        }
    }

    #[test]
    fn kernel_config_padding_reduces_or_keeps_time(p in arb_params()) {
        let device = rtx_4090();
        let model = SimModel::hero(device.clone(), p).unwrap();
        let layout = model.fors_layout();
        let mut cfg = KernelConfig::hero(hero_gpu_sim::isa::Sha2Path::Ptx);
        cfg.padding = false;
        let unpadded = fors_sign::describe(&device, &p, 256, &layout, &cfg);
        cfg.padding = true;
        let padded = fors_sign::describe(&device, &p, 256, &layout, &cfg);
        prop_assert!(padded.smem_conflicts <= unpadded.smem_conflicts);
    }
}
