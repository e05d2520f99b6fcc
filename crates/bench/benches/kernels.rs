//! The kernel layer in isolation: blocked flat-slice primitives
//! (`pir_linalg::kernels`, `vector::axpy_n`) against the scalar
//! references that define their semantics, plus the register-local
//! Gaussian fill at widths around its former 64-word refill boundary.
//! These are the leaf operations under every row of
//! BENCH_mech_step.json — a regression here shows up there multiplied
//! by `d²`/`m²`.
//!
//! The `*_ref` rows are not dead weight: the production/ref ratio is
//! the direct measurement of what register blocking buys on this machine,
//! and `kernel_identity.rs` proves the two sides are bit-identical, so
//! the ratio is a pure-speed comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pir_dp::NoiseRng;
use pir_linalg::{kernels, vector};
use std::hint::black_box;

/// Deterministic pseudo-data: cheap, nonzero, no RNG draw order to keep
/// stable across PRs.
fn ramp(n: usize, scale: f64) -> Vec<f64> {
    (0..n).map(|i| scale * (1.0 + 0.001 * i as f64) * if i % 2 == 0 { 1.0 } else { -1.0 }).collect()
}

fn bench_packed_outer(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_packed_outer");
    // The second-moment step of the private gradient function: pack
    // x·xᵀ into the tree item, unpack the release into Q_t. k = 8 and
    // 64 are the mech1 fleet and mech_step sizes, k = 100 the sketch's m.
    for k in [8usize, 64, 100] {
        let n = kernels::packed_len(k);
        group.throughput(Throughput::Elements(n as u64));
        let x = ramp(k, 0.1);
        let packed = ramp(n, 0.25);
        group.bench_with_input(BenchmarkId::new("set/k", k), &k, |b, _| {
            let mut out = vec![0.0; n];
            b.iter(|| {
                kernels::set_packed_outer(&x, &mut out);
                black_box(out[n - 1])
            });
        });
        group.bench_with_input(BenchmarkId::new("set_ref/k", k), &k, |b, _| {
            let mut out = vec![0.0; n];
            b.iter(|| {
                kernels::set_packed_outer_ref(&x, &mut out);
                black_box(out[n - 1])
            });
        });
        group.bench_with_input(BenchmarkId::new("unpack/k", k), &k, |b, &k| {
            let mut out = vec![0.0; k * k];
            b.iter(|| {
                kernels::unpack_symmetric(k, &packed, &mut out);
                black_box(out[k * k - 1])
            });
        });
        group.bench_with_input(BenchmarkId::new("unpack_ref/k", k), &k, |b, &k| {
            let mut out = vec![0.0; k * k];
            b.iter(|| {
                kernels::unpack_symmetric_ref(k, &packed, &mut out);
                black_box(out[k * k - 1])
            });
        });
    }
    group.finish();
}

fn bench_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_matvec");
    // Square d×d: the descent gradient shape. 100×1000 is the sketch
    // application (m=100, d=1000) from the mech2 trajectory row.
    for (rows, cols) in [(64usize, 64usize), (256, 256), (100, 1000)] {
        let label = format!("{rows}x{cols}");
        group.throughput(Throughput::Elements((rows * cols) as u64));
        let a = ramp(rows * cols, 0.01);
        let x = ramp(cols, 0.5);
        // `prod` is the production `kernels::matvec`, the per-row dot
        // sweep `Matrix::matvec` runs. The tiled form was rejected by
        // measurement (its rows stay in BENCH_kernels.json as history).
        group.bench_with_input(BenchmarkId::new("prod", &label), &rows, |b, &rows| {
            let mut out = vec![0.0; rows];
            b.iter(|| {
                kernels::matvec(cols, &a, &x, &mut out);
                black_box(out[rows - 1])
            });
        });
        group.bench_with_input(BenchmarkId::new("ref", &label), &rows, |b, &rows| {
            let mut out = vec![0.0; rows];
            b.iter(|| {
                kernels::matvec_ref(cols, &a, &x, &mut out);
                black_box(out[rows - 1])
            });
        });
    }
    // `support` skips the zero columns of `x` (`kernels::matvec_support`):
    // the lift's FISTA points hold ~30% nonzeros at m = 100, d = 1000.
    // Density 1.0 is the worst case the callers' `2·nnz < d` dispatch
    // keeps it out of.
    let (rows, cols) = (100usize, 1000usize);
    let a = ramp(rows * cols, 0.01);
    for pct in [10usize, 30, 100] {
        let x: Vec<f64> = ramp(cols, 0.5)
            .into_iter()
            .enumerate()
            .map(|(i, v)| if ((i * 2_654_435_761) >> 7) % 100 < pct { v } else { 0.0 })
            .collect();
        let label = format!("{rows}x{cols}/density/{:.1}", pct as f64 / 100.0);
        group.bench_with_input(BenchmarkId::new("support", &label), &rows, |b, &rows| {
            let mut support = vec![0u32; cols];
            let mut out = vec![0.0; rows];
            b.iter(|| {
                kernels::matvec_support(cols, &a, black_box(&x), &mut support, &mut out);
                black_box(out[rows - 1])
            });
        });
    }
    group.finish();
}

fn bench_axpy_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_axpy_n");
    // The tree release walk folds up to log2(T) node slices into the
    // running sum; 2/4/8 lanes bracket the realistic popcount(t) range
    // at d = 1024 (the tree_mech grid's largest width).
    let d = 1024usize;
    let backing: Vec<Vec<f64>> = (0..8).map(|i| ramp(d, 0.1 * (i + 1) as f64)).collect();
    for lanes in [2usize, 4, 8] {
        group.throughput(Throughput::Elements((lanes * d) as u64));
        let xs: Vec<&[f64]> = backing[..lanes].iter().map(Vec::as_slice).collect();
        group.bench_with_input(BenchmarkId::new("fused/lanes", lanes), &lanes, |b, _| {
            let mut y = vec![0.0; d];
            b.iter(|| {
                vector::axpy_n(1.0, &xs, &mut y);
                black_box(y[d - 1])
            });
        });
        group.bench_with_input(BenchmarkId::new("ref/lanes", lanes), &lanes, |b, _| {
            let mut y = vec![0.0; d];
            b.iter(|| {
                vector::axpy_n_ref(1.0, &xs, &mut y);
                black_box(y[d - 1])
            });
        });
    }
    group.finish();
}

fn bench_fill_gaussian_blocks(c: &mut Criterion) {
    // The bulk fill samples on a register-local copy of the RNG state,
    // written back once per call (a 64-word refill buffer was tried and
    // measured as a strict pessimization — see the `NoiseRng` docs);
    // 63/64/65 pin the widths that straddled the abandoned block
    // boundary, 4096 is the d² stream width of PrivIncReg1 at d = 64
    // (the steady-state noise cost under BENCH_mech_step.json).
    let mut group = c.benchmark_group("kernels_fill_gaussian");
    for d in [63usize, 64, 65, 4096] {
        group.throughput(Throughput::Elements(d as u64));
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            let mut rng = NoiseRng::seed_from_u64(9);
            let mut buf = vec![0.0; d];
            b.iter(|| {
                rng.fill_gaussian(&mut buf, 1.0);
                black_box(buf[d - 1])
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_packed_outer,
    bench_matvec,
    bench_axpy_n,
    bench_fill_gaussian_blocks
);
criterion_main!(benches);
