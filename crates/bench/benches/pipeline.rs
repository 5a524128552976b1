//! Criterion benches over the full-pipeline simulation (Fig. 12/13
//! machinery): multi-batch timeline construction with and without task
//! graphs, across batch sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hero_gpu_sim::device::rtx_4090;
use hero_sign::model::{OptConfig, PipelineOptions, SimModel};
use hero_sphincs::params::Params;

fn bench_pipeline(c: &mut Criterion) {
    let device = rtx_4090();
    let p = Params::sphincs_128f();
    let mut group = c.benchmark_group("fig12_pipeline_simulation");

    let hero = SimModel::hero(device.clone(), p).unwrap();
    let mut stream_cfg = OptConfig::hero();
    stream_cfg.graph = false;
    let hero_stream = SimModel::new(device.clone(), p, stream_cfg).unwrap();
    let baseline = SimModel::baseline(device.clone(), p).unwrap();

    group.bench_function("hero_graph_512", |b| {
        b.iter(|| {
            hero.simulate(PipelineOptions::new(1024).batch_size(512).streams(4))
                .unwrap()
        })
    });
    group.bench_function("hero_stream_512", |b| {
        b.iter(|| {
            hero_stream
                .simulate(PipelineOptions::new(1024).batch_size(512).streams(4))
                .unwrap()
        })
    });
    group.bench_function("baseline_per_message", |b| {
        b.iter(|| {
            baseline
                .simulate(PipelineOptions::new(1024).batch_size(1).streams(128))
                .unwrap()
        })
    });
    group.finish();

    let mut sweep = c.benchmark_group("fig13_batch_sweep");
    for bs in [16u32, 64, 256, 1024] {
        sweep.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, &bs| {
            b.iter(|| {
                hero.simulate(PipelineOptions::new(1024).batch_size(bs).streams(8))
                    .unwrap()
            })
        });
    }
    sweep.finish();
}

fn bench_model_construction(c: &mut Criterion) {
    let device = rtx_4090();
    c.bench_function("sim_model_new_with_tuning_and_selection", |b| {
        b.iter(|| SimModel::hero(device.clone(), Params::sphincs_128f()).unwrap())
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pipeline, bench_model_construction
);
criterion_main!(benches);
