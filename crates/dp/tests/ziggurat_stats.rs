//! Statistical acceptance suite for the ziggurat standard-normal sampler.
//!
//! The ziggurat is an exact rejection sampler — these tests are not
//! calibrating a tolerance against an approximation, they are guarding
//! against *implementation* bugs (wrong table constants, a flipped wedge
//! test, a broken tail) that would shift moments, tail mass, or the whole
//! CDF. Everything is seeded, so each check is deterministic; tolerances
//! are set several standard errors wide so they are robust to the specific
//! bit stream, not tuned to it.

use pir_dp::NoiseRng;

/// Standard normal deviate by the polar Box–Muller method — the
/// pre-ziggurat sampler, kept here as an independent oracle. It discards
/// the second deviate of each accepted pair, so it is stateless.
fn box_muller(rng: &mut NoiseRng) -> f64 {
    loop {
        let u = rng.uniform_in(-1.0, 1.0);
        let v = rng.uniform_in(-1.0, 1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Standard normal CDF `Φ(x)` via the Abramowitz–Stegun 7.1.26 `erf`
/// approximation (absolute error < 1.5e-7 — far below every tolerance
/// used here).
fn phi(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    let (z, sign) = if z < 0.0 { (-z, -1.0) } else { (z, 1.0) };
    let t = 1.0 / (1.0 + 0.327_591_1 * z);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = sign * (1.0 - poly * (-z * z).exp());
    0.5 * (1.0 + erf)
}

#[test]
fn moments_match_standard_normal() {
    let mut rng = NoiseRng::seed_from_u64(0xD1CE);
    let n = 400_000usize;
    let (mut m1, mut m2, mut m4) = (0.0, 0.0, 0.0);
    for _ in 0..n {
        let z = rng.standard_gaussian();
        m1 += z;
        m2 += z * z;
        m4 += z * z * z * z;
    }
    let mean = m1 / n as f64;
    let var = m2 / n as f64 - mean * mean;
    let kurt = (m4 / n as f64) / (var * var);
    // Standard errors at n = 4e5: mean ~0.0016, var ~0.0022, kurt ~0.0077.
    assert!(mean.abs() < 0.01, "mean {mean}");
    assert!((var - 1.0).abs() < 0.02, "variance {var}");
    assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
}

#[test]
fn tail_mass_beyond_three_sigma() {
    // P(|Z| > 3) = 2(1 − Φ(3)) ≈ 2.6998e-3; a sampler whose tail path is
    // broken (the classic ziggurat bug class) misses this badly.
    let mut rng = NoiseRng::seed_from_u64(0x7A11);
    let n = 1_000_000usize;
    let beyond_3 = (0..n).filter(|_| rng.standard_gaussian().abs() > 3.0).count() as f64;
    let expect_3 = 2.0 * (1.0 - phi(3.0)) * n as f64; // ≈ 2700, sd ≈ 52
    assert!(
        (beyond_3 - expect_3).abs() < 0.1 * expect_3,
        "3σ tail count {beyond_3}, expected ≈ {expect_3:.0}"
    );
    // Beyond the rightmost layer edge R ≈ 3.654 every draw comes from the
    // exponential fallback; its mass must still be Gaussian.
    let mut rng = NoiseRng::seed_from_u64(0x7A12);
    let beyond_r =
        (0..n).filter(|_| rng.standard_gaussian().abs() > 3.654_152_885_361_009).count() as f64;
    let expect_r = 2.0 * (1.0 - phi(3.654_152_885_361_009)) * n as f64; // ≈ 259, sd ≈ 16
    assert!(
        (beyond_r - expect_r).abs() < 0.3 * expect_r,
        "tail-fallback count {beyond_r}, expected ≈ {expect_r:.0}"
    );
}

#[test]
fn kolmogorov_smirnov_against_phi() {
    // Coarse one-sample KS test: D_n = sup |F_n − Φ|. At n = 1e5 the 1%
    // critical value is ≈ 1.63/√n ≈ 0.0052; a table/layer bug shows up at
    // 10× that scale.
    let mut rng = NoiseRng::seed_from_u64(0x05D1);
    let n = 100_000usize;
    let mut samples: Vec<f64> = (0..n).map(|_| rng.standard_gaussian()).collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let mut d_stat = 0.0f64;
    for (i, &x) in samples.iter().enumerate() {
        let cdf = phi(x);
        let lo = i as f64 / n as f64;
        let hi = (i + 1) as f64 / n as f64;
        d_stat = d_stat.max((cdf - lo).abs()).max((hi - cdf).abs());
    }
    assert!(d_stat < 0.0065, "KS statistic {d_stat}");
}

#[test]
fn two_sample_ks_ziggurat_vs_box_muller() {
    // Cross-validation against the polar Box–Muller oracle:
    // both samplers target N(0,1), so a two-sample KS statistic at
    // n = m = 1e5 should sit near its null distribution
    // (1% critical value ≈ 1.63·√(2/n) ≈ 0.0073).
    let n = 100_000usize;
    let mut zig_rng = NoiseRng::seed_from_u64(0x2B1D);
    let mut bm_rng = NoiseRng::seed_from_u64(0x2B1E);
    let mut zig: Vec<f64> = (0..n).map(|_| zig_rng.standard_gaussian()).collect();
    let mut bm: Vec<f64> = (0..n).map(|_| box_muller(&mut bm_rng)).collect();
    zig.sort_by(|a, b| a.total_cmp(b));
    bm.sort_by(|a, b| a.total_cmp(b));
    let (mut i, mut j, mut d_stat) = (0usize, 0usize, 0.0f64);
    while i < n && j < n {
        if zig[i] <= bm[j] {
            i += 1;
        } else {
            j += 1;
        }
        d_stat = d_stat.max((i as f64 / n as f64 - j as f64 / n as f64).abs());
    }
    assert!(d_stat < 0.009, "two-sample KS statistic {d_stat}");
}

#[test]
fn box_muller_oracle_moments_agree_with_ziggurat() {
    let n = 200_000;
    let mut zig = NoiseRng::seed_from_u64(17);
    let mut bm = NoiseRng::seed_from_u64(18);
    let (mut mz, mut mb, mut vz, mut vb) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..n {
        let z = zig.standard_gaussian();
        let b = box_muller(&mut bm);
        mz += z;
        mb += b;
        vz += z * z;
        vb += b * b;
    }
    let (mz, mb) = (mz / n as f64, mb / n as f64);
    let (vz, vb) = (vz / n as f64 - mz * mz, vb / n as f64 - mb * mb);
    assert!((mz - mb).abs() < 0.02, "means diverge: {mz} vs {mb}");
    assert!((vz - vb).abs() < 0.03, "variances diverge: {vz} vs {vb}");
}

#[test]
fn fill_gaussian_scales_variance_by_sigma_squared() {
    let mut rng = NoiseRng::seed_from_u64(0xF111);
    let sigma = 4.5;
    let mut buf = vec![0.0; 200_000];
    rng.fill_gaussian(&mut buf, sigma);
    let n = buf.len() as f64;
    let mean = buf.iter().sum::<f64>() / n;
    let var = buf.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    assert!(mean.abs() < 0.05, "mean {mean}");
    assert!((var / (sigma * sigma) - 1.0).abs() < 0.02, "variance ratio off: {var}");
}
