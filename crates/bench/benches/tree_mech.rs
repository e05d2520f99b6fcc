//! Computational cost of the Tree Mechanism: per-update time vs dimension
//! and horizon — the `O(d log T)` space / amortized `O(d)` time claims of
//! Appendix C. Each iteration times `update_into` on a buffer allocated
//! outside the loop, the allocation-free form the mechanisms step with.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pir_continual::TreeMechanism;
use pir_dp::{NoiseRng, PrivacyParams};
use std::hint::black_box;

fn bench_updates(c: &mut Criterion) {
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let mut group = c.benchmark_group("tree_mech_update");
    // {4, 16, 64} is the BENCH_*.json trajectory grid; 36, 2080 and 5050
    // are the packed second-moment widths k(k+1)/2 at k = 8, 64 and 100
    // (the fleet's d, mech_step's d and the sketch's m).
    for d in [4usize, 16, 36, 64, 2080, 5050] {
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            // Horizon far beyond any iteration count Criterion will run
            // (memory is only O(d log T), so a 2^40 horizon is cheap).
            let mut mech =
                TreeMechanism::new(d, 1 << 40, 1.0, &params, NoiseRng::seed_from_u64(1)).unwrap();
            let mut rng = NoiseRng::seed_from_u64(2);
            let v = rng.unit_sphere(d);
            let mut out = vec![0.0; d];
            b.iter(|| {
                mech.update_into(black_box(&v), &mut out).unwrap();
                black_box(out[d - 1])
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("tree_mech_horizon");
    group.sample_size(20);
    for log_t in [24u32, 32, 40] {
        group.bench_with_input(BenchmarkId::new("log2_T", log_t), &log_t, |b, &log_t| {
            let mut mech =
                TreeMechanism::new(64, 1usize << log_t, 1.0, &params, NoiseRng::seed_from_u64(3))
                    .unwrap();
            let mut rng = NoiseRng::seed_from_u64(4);
            let v = rng.unit_sphere(64);
            let mut out = vec![0.0; 64];
            b.iter(|| {
                mech.update_into(black_box(&v), &mut out).unwrap();
                black_box(out[63])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
