//! Criterion benches over the per-kernel simulation pipeline (the Table
//! VIII machinery): descriptor construction + timing model + bank-conflict
//! measurement, baseline vs HERO, per parameter set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hero_gpu_sim::device::rtx_4090;
use hero_sign::model::SimModel;
use hero_sphincs::params::Params;

fn bench_kernel_simulation(c: &mut Criterion) {
    let device = rtx_4090();
    let mut group = c.benchmark_group("table8_kernel_reports");
    for p in Params::fast_sets() {
        let baseline = SimModel::baseline(device.clone(), p).unwrap();
        let hero = SimModel::hero(device.clone(), p).unwrap();
        group.bench_with_input(BenchmarkId::new("baseline", p.name()), &baseline, |b, e| {
            b.iter(|| e.kernel_reports(1024))
        });
        group.bench_with_input(BenchmarkId::new("hero", p.name()), &hero, |b, e| {
            b.iter(|| e.kernel_reports(1024))
        });
    }
    group.finish();
}

fn bench_tuning_search(c: &mut Criterion) {
    let device = rtx_4090();
    let mut group = c.benchmark_group("algorithm1_tree_tuning");
    for p in Params::fast_sets() {
        group.bench_with_input(BenchmarkId::from_parameter(p.name()), &p, |b, p| {
            b.iter(|| hero_sign::tuning::tune_auto(&device, p, &Default::default()))
        });
    }
    group.finish();
}

fn bench_bank_measurement(c: &mut Criterion) {
    let mut group = c.benchmark_group("table6_bank_measurement");
    let device = rtx_4090();
    for p in Params::fast_sets() {
        let model = SimModel::hero(device.clone(), p).unwrap();
        let geometry = model.fors_layout().geometry(&p);
        group.bench_with_input(BenchmarkId::from_parameter(p.name()), &p, |b, p| {
            b.iter(|| {
                hero_sign::kernels::fors_sign::measure_reduction(
                    p,
                    &geometry,
                    hero_gpu_sim::banks::PaddingScheme::for_width(p.n),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernel_simulation, bench_tuning_search, bench_bank_measurement
);
criterion_main!(benches);
