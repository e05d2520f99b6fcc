//! Per-timestep cost of the two regression mechanisms — the running-time
//! discussion of §4 (Algorithm 2 is `O(d²(log T + r))` per step) and §5
//! (Algorithm 3 replaces `d²` with `m²` plus an `O(md)` lift).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pir_core::{
    IncrementalMechanism, PrivIncReg1, PrivIncReg1Config, PrivIncReg2, PrivIncReg2Config,
};
use pir_datagen::{linear_stream, sparse_theta, CovariateKind, LinearModel};
use pir_dp::{NoiseRng, PrivacyParams};
use pir_erm::DataPoint;
use pir_geometry::{L1Ball, L2Ball};
use std::hint::black_box;

fn stream_for(d: usize, n: usize, kind: CovariateKind, seed: u64) -> Vec<DataPoint> {
    let mut rng = NoiseRng::seed_from_u64(seed);
    let model = LinearModel { theta_star: sparse_theta(d, 2, 0.4, &mut rng), noise_std: 0.02 };
    linear_stream(n, d, kind, &model, &mut rng)
}

fn bench_mech1(c: &mut Criterion) {
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let mut group = c.benchmark_group("mech1_observe");
    group.sample_size(20);
    // d ∈ {4, 16, 64} is the BENCH_*.json trajectory grid; 128 tracks the
    // large-d trend.
    for d in [4usize, 16, 64, 128] {
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            // Effectively inexhaustible horizon so Criterion can run as
            // many iterations as it likes; pre-warm so the per-step PGD
            // iteration count sits at its steady-state cap.
            let t_max = 1usize << 32;
            let mut rng = NoiseRng::seed_from_u64(5);
            let mut mech = PrivIncReg1::new(
                Box::new(L2Ball::unit(d)),
                t_max,
                &params,
                &mut rng,
                PrivIncReg1Config::default(),
            )
            .unwrap();
            let stream = stream_for(d, 64, CovariateKind::DenseSphere { radius: 0.95 }, 6);
            for z in &stream {
                mech.observe(z).unwrap();
            }
            let mut i = 0usize;
            b.iter(|| {
                let z = &stream[i % stream.len()];
                i += 1;
                black_box(mech.observe(black_box(z)).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_mech2(c: &mut Criterion) {
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let mut group = c.benchmark_group("mech2_observe_d1000");
    group.sample_size(20);
    // The loopbench sketch workload's session: d = 1000, m = 100, B₁,
    // horizon 2¹⁶, and its generator settings (3-sparse covariates, a
    // 3-sparse θ* of norm 0.5, label noise 0.1, a 512-point pool). After
    // one pass over the pool the lifted releases are mostly sparse, which
    // is the regime that workload serves; smaller sketches keep the
    // release dense on this stream, so they are not benched here.
    let m = 100usize;
    group.bench_with_input(BenchmarkId::new("m", m), &m, |b, &m| {
        let d = 1000;
        let mut rng = NoiseRng::seed_from_u64(7);
        let mut mech = PrivIncReg2::new(
            Box::new(L1Ball::unit(d)),
            8.0,
            1 << 16,
            &params,
            &mut rng,
            PrivIncReg2Config { m_override: Some(m), lift_iters: 80, ..Default::default() },
        )
        .unwrap();
        let mut rng = NoiseRng::seed_from_u64(8);
        let model = LinearModel { theta_star: sparse_theta(d, 3, 0.5, &mut rng), noise_std: 0.1 };
        let pool = linear_stream(512, d, CovariateKind::Sparse { k: 3 }, &model, &mut rng);
        // Single releases swing between sparse and dense, so the
        // regime check averages the last 128 warm-up releases.
        let mut nnz = 0;
        for (t, z) in pool.iter().enumerate() {
            let theta = mech.observe(z).unwrap();
            if t >= pool.len() - 128 {
                nnz += theta.iter().filter(|v| **v != 0.0).count();
            }
        }
        let mean_nnz = nnz / 128;
        assert!(2 * mean_nnz < d, "warmed-up releases are dense: mean nnz {mean_nnz} of {d}");
        let mut i = 0usize;
        b.iter(|| {
            let z = &pool[i % pool.len()];
            i += 1;
            black_box(mech.observe(black_box(z)).unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_mech1, bench_mech2);
criterion_main!(benches);
