//! Throughput of the raw noise path — the per-draw cost that, multiplied
//! by the `d²` draws of each completing second-moment node, dominates the
//! steady-state observe loop (see BENCH_tree_mech.json). Measures the
//! ziggurat and Laplace scalar draws, and the slice-filling primitives
//! against scalar call loops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pir_dp::NoiseRng;
use std::hint::black_box;

fn bench_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_scalar");
    group.throughput(Throughput::Elements(1));
    group.bench_function("gaussian_ziggurat", |b| {
        let mut rng = NoiseRng::seed_from_u64(1);
        b.iter(|| black_box(rng.standard_gaussian()));
    });
    group.bench_function("laplace", |b| {
        let mut rng = NoiseRng::seed_from_u64(3);
        b.iter(|| black_box(rng.laplace(1.0)));
    });
    group.finish();
}

fn bench_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_fill_gaussian");
    // 64 and 1024 mirror the tree_mech grid; 4096 is the d² stream width
    // of PrivIncReg1 at d = 64.
    for d in [64usize, 1024, 4096] {
        group.throughput(Throughput::Elements(d as u64));
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            let mut rng = NoiseRng::seed_from_u64(4);
            let mut buf = vec![0.0; d];
            b.iter(|| {
                rng.fill_gaussian(&mut buf, 1.0);
                black_box(buf[d - 1])
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("noise_fill_laplace");
    group.throughput(Throughput::Elements(1024));
    group.bench_with_input(BenchmarkId::new("d", 1024), &1024usize, |b, &d| {
        let mut rng = NoiseRng::seed_from_u64(5);
        let mut buf = vec![0.0; d];
        b.iter(|| {
            rng.fill_laplace(&mut buf, 1.0);
            black_box(buf[d - 1])
        });
    });
    group.finish();
}

fn bench_unit_sphere(c: &mut Criterion) {
    // The reusable-buffer rebuild: unit_sphere_into must beat the
    // allocating unit_sphere it wraps.
    let mut group = c.benchmark_group("noise_unit_sphere");
    group.throughput(Throughput::Elements(256));
    group.bench_function("into/d/256", |b| {
        let mut rng = NoiseRng::seed_from_u64(6);
        let mut buf = vec![0.0; 256];
        b.iter(|| {
            rng.unit_sphere_into(&mut buf);
            black_box(buf[255])
        });
    });
    group.bench_function("alloc/d/256", |b| {
        let mut rng = NoiseRng::seed_from_u64(7);
        b.iter(|| black_box(rng.unit_sphere(256)));
    });
    group.finish();
}

criterion_group!(benches, bench_scalar, bench_fill, bench_unit_sphere);
criterion_main!(benches);
