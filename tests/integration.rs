//! Cross-crate integration tests: the full HERO-Sign stack from tuner to
//! task graph, on real devices from the catalog.

use hero_gpu_sim::device::{catalog, rtx_4090};
use hero_gpu_sim::isa::Sha2Path;
use hero_sign::model::{OptConfig, PipelineOptions, PtxPolicy, SimModel};
use hero_sign::tuning::{tune_auto, TuningOptions};
use hero_sphincs::params::Params;

#[test]
fn tuner_succeeds_on_every_device_and_set() {
    for device in catalog() {
        for params in Params::fast_sets() {
            let result = tune_auto(&device, &params, &TuningOptions::default())
                .unwrap_or_else(|e| panic!("{} / {}: {e}", device.name, params.name()));
            let best = result.best;
            assert!(best.block_threads() <= device.max_threads_per_block);
            assert!(best.fused_sets >= 1);
            assert!(best.concurrent_trees() >= 1);
        }
    }
}

#[test]
fn engines_construct_on_every_device_and_set() {
    for device in catalog() {
        for params in Params::fast_sets() {
            let hero = SimModel::hero(device.clone(), params).unwrap();
            let reports = hero.kernel_reports(256);
            for r in &reports {
                assert!(
                    r.time_us.is_finite() && r.time_us > 0.0,
                    "{} / {} / {}: bad time {}",
                    device.name,
                    params.name(),
                    r.name,
                    r.time_us
                );
                assert!(
                    r.achieved_occupancy > 0.0,
                    "{} {}: dead kernel",
                    device.name,
                    r.name
                );
            }
        }
    }
}

#[test]
fn hero_never_loses_to_baseline_end_to_end() {
    for device in catalog() {
        let params = Params::sphincs_128f();
        let base = SimModel::baseline(device.clone(), params)
            .unwrap()
            .simulate(PipelineOptions::new(512).batch_size(1).streams(64))
            .unwrap();
        let hero = SimModel::hero(device.clone(), params)
            .unwrap()
            .simulate(PipelineOptions::new(512).batch_size(256).streams(4))
            .unwrap();
        assert!(
            hero.kops > base.kops,
            "{}: hero {} vs baseline {}",
            device.name,
            hero.kops,
            base.kops
        );
    }
}

#[test]
fn ablation_configs_all_construct_and_order() {
    let device = rtx_4090();
    for params in Params::fast_sets() {
        let mut times = Vec::new();
        for (label, cfg) in OptConfig::ablation_ladder() {
            let model = SimModel::new(device.clone(), params, cfg).unwrap();
            let fors = &model.kernel_reports(1024)[0];
            times.push((label, fors.time_us));
        }
        let first = times.first().expect("steps").1;
        let last = times.last().expect("steps").1;
        assert!(
            last < first,
            "{}: ladder must cumulatively improve: {:?}",
            params.name(),
            times
        );
    }
}

#[test]
fn ptx_policies_behave() {
    let device = rtx_4090();
    let params = Params::sphincs_128f();
    let mut cfg = OptConfig::hero();

    cfg.ptx = PtxPolicy::Off;
    let off = SimModel::new(device.clone(), params, cfg).unwrap();
    assert_eq!(off.selection().fors, Sha2Path::Native);

    cfg.ptx = PtxPolicy::ForceAll;
    let force = SimModel::new(device.clone(), params, cfg).unwrap();
    assert_eq!(force.selection().tree, Sha2Path::Ptx);
    assert!(force.selection().is_uniform());

    cfg.ptx = PtxPolicy::Adaptive;
    let adaptive = SimModel::new(device.clone(), params, cfg).unwrap();
    // Table V, 128f: FORS picks PTX, chain kernels stay native.
    assert_eq!(adaptive.selection().fors, Sha2Path::Ptx);
    assert_eq!(adaptive.selection().tree, Sha2Path::Native);
}

#[test]
fn graph_vs_stream_launch_accounting() {
    let device = rtx_4090();
    let params = Params::sphincs_192f();
    let hero_graph = SimModel::hero(device.clone(), params)
        .unwrap()
        .simulate(PipelineOptions::new(1024).batch_size(128).streams(4))
        .unwrap();
    let mut cfg = OptConfig::hero();
    cfg.graph = false;
    let hero_stream = SimModel::new(device.clone(), params, cfg)
        .unwrap()
        .simulate(PipelineOptions::new(1024).batch_size(128).streams(4))
        .unwrap();

    // Same batches: graph does 1 host launch per batch (plus cheap node
    // dispatch); streams do 3.
    assert_eq!(hero_stream.launch_count, hero_graph.launch_count);
    assert!(hero_graph.launch_overhead_us < hero_stream.launch_overhead_us);
    assert!(hero_graph.idle_us <= hero_stream.idle_us);
}

#[test]
fn degenerate_fors_shapes_survive_the_engine() {
    // Failure injection: pathological-but-valid parameter shapes must not
    // panic or produce non-finite times anywhere in the stack.
    let device = rtx_4090();
    for (log_t, k) in [(1usize, 1usize), (1, 64), (10, 1), (2, 3)] {
        let mut p = Params::sphincs_128f();
        p.log_t = log_t;
        p.k = k;
        let model = SimModel::hero(device.clone(), p).unwrap();
        for r in model.kernel_reports(64) {
            assert!(
                r.time_us.is_finite() && r.time_us > 0.0,
                "log_t={log_t} k={k} {}",
                r.name
            );
        }
        let pipe = model
            .simulate(PipelineOptions::new(64).batch_size(32).streams(2))
            .unwrap();
        assert!(pipe.kops.is_finite() && pipe.kops > 0.0);
    }
}

#[test]
fn starved_device_degrades_gracefully() {
    // Failure injection: a device with pathologically small resources
    // (one SM, minimal smem) must still tune and simulate — just slowly.
    let mut crippled = rtx_4090();
    crippled.sm_count = 1;
    crippled.smem_per_sm = 16 * 1024;
    crippled.smem_static_per_block = 16 * 1024;
    crippled.smem_dynamic_max_per_block = 16 * 1024;

    let p = Params::sphincs_128f();
    let model = SimModel::hero(crippled.clone(), p).unwrap();
    let pipe = model
        .simulate(PipelineOptions::new(64).batch_size(32).streams(2))
        .unwrap();
    assert!(pipe.kops.is_finite() && pipe.kops > 0.0);
    let healthy = SimModel::hero(rtx_4090(), p)
        .unwrap()
        .simulate(PipelineOptions::new(64).batch_size(32).streams(2))
        .unwrap();
    assert!(
        healthy.kops > pipe.kops * 10.0,
        "128 SMs must dwarf 1 SM: {} vs {}",
        healthy.kops,
        pipe.kops
    );
}

#[test]
fn zero_and_tiny_workloads_do_not_break_the_timeline() {
    use hero_gpu_sim::stream::{LaunchMode, Timeline};
    let mut tl = Timeline::new(rtx_4090());
    let s = tl.stream(0);
    // Zero-duration kernels and zero-SM demands are clamped, not UB.
    let end = tl.launch("instant", s, 0.0, 0, LaunchMode::Graph, &[]);
    assert!(end.is_finite());
    assert!(tl.makespan_us() >= 0.0);
    assert_eq!(tl.executed().len(), 1);
}

#[test]
fn pipeline_scales_with_messages() {
    let device = rtx_4090();
    let model = SimModel::hero(device, Params::sphincs_128f()).unwrap();
    let small = model
        .simulate(PipelineOptions::new(256).batch_size(256).streams(4))
        .unwrap();
    let large = model
        .simulate(PipelineOptions::new(2048).batch_size(512).streams(4))
        .unwrap();
    // Throughput (KOPS) should be roughly stable; makespan should scale.
    assert!(large.makespan_us > small.makespan_us * 4.0);
    let ratio = large.kops / small.kops;
    assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
}
