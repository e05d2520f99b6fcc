//! The batched-equals-sequential law: for every mechanism,
//! `observe_batch` must produce the *identical* estimator sequence a
//! sequential `observe` loop would — bit-for-bit under a fixed
//! [`NoiseRng`] seed, for any chunking of the stream. This is what makes
//! batching in the engine a pure throughput optimization with no semantic
//! (or privacy) consequences.

use private_incremental_regression::prelude::*;
use proptest::prelude::*;

/// A valid (§2-normalized) stream: ‖x‖ ≤ 0.9, |y| ≤ 1.
fn stream(n: usize, d: usize, seed: u64) -> Vec<DataPoint> {
    let mut rng = NoiseRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..d).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
            let x: Vec<f64> = x.iter().map(|v| 0.9 * v / norm.max(1.0)).collect();
            let y = (0.7 * x[0]).clamp(-1.0, 1.0);
            DataPoint::new(x, y)
        })
        .collect()
}

/// Drive `sequential` point-by-point and `batched` chunk-by-chunk over
/// the same stream; the released sequences must agree exactly. The
/// flat-buffer `observe_batch_into` form is held to the same law on a
/// third instance.
fn assert_equivalent(
    mut sequential: Box<dyn IncrementalMechanism>,
    mut batched: Box<dyn IncrementalMechanism>,
    mut batched_into: Box<dyn IncrementalMechanism>,
    points: &[DataPoint],
    chunk: usize,
) {
    let d = sequential.dim();
    let seq: Vec<Vec<f64>> = points.iter().map(|z| sequential.observe(z).unwrap()).collect();
    let bat: Vec<Vec<f64>> =
        points.chunks(chunk).flat_map(|c| batched.observe_batch(c).unwrap()).collect();
    let mut flat = vec![0.0; chunk * d];
    let into: Vec<Vec<f64>> = points
        .chunks(chunk)
        .flat_map(|c| {
            let out = &mut flat[..c.len() * d];
            batched_into.observe_batch_into(c, out).unwrap();
            out.chunks_exact(d).map(<[f64]>::to_vec).collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(seq.len(), bat.len());
    assert_eq!(seq.len(), into.len());
    for (t, (s, (b, f))) in seq.iter().zip(bat.iter().zip(&into)).enumerate() {
        assert_eq!(s, b, "release diverged at t={} (chunk={chunk})", t + 1);
        assert_eq!(s, f, "flat-buffer release diverged at t={} (chunk={chunk})", t + 1);
    }
    assert_eq!(sequential.t(), batched.t());
    assert_eq!(sequential.t(), batched_into.t());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn reg1_batched_equals_sequential(seed in any::<u64>(), chunk in 1usize..9) {
        let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
        let build = || {
            let mut rng = NoiseRng::seed_from_u64(seed);
            Box::new(PrivIncReg1::new(
                Box::new(L2Ball::unit(4)),
                24,
                &params,
                &mut rng,
                PrivIncReg1Config::default(),
            )
            .unwrap()) as Box<dyn IncrementalMechanism>
        };
        let points = stream(24, 4, seed.wrapping_add(1));
        assert_equivalent(build(), build(), build(), &points, chunk);
    }

    #[test]
    fn reg2_batched_equals_sequential(seed in any::<u64>(), chunk in 1usize..7) {
        let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
        let config = PrivIncReg2Config {
            m_override: Some(5),
            lift_iters: 40,
            max_pgd_iters: 24,
            ..Default::default()
        };
        let build = || {
            let mut rng = NoiseRng::seed_from_u64(seed);
            Box::new(PrivIncReg2::new(
                Box::new(L1Ball::unit(16)),
                2.0,
                12,
                &params,
                &mut rng,
                config,
            )
            .unwrap()) as Box<dyn IncrementalMechanism>
        };
        let points = stream(12, 16, seed.wrapping_add(2));
        assert_equivalent(build(), build(), build(), &points, chunk);
    }

    #[test]
    fn erm_batched_equals_sequential(seed in any::<u64>(), chunk in 1usize..9) {
        let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
        let build = || {
            Box::new(PrivIncErm::new(
                Box::new(SquaredLoss),
                Box::new(NoisyGdSolver { iters: 8, beta: 0.1 }),
                Box::new(L2Ball::unit(3)),
                16,
                &params,
                TauRule::Fixed(4),
                NoiseRng::seed_from_u64(seed),
            )
            .unwrap()) as Box<dyn IncrementalMechanism>
        };
        let points = stream(16, 3, seed.wrapping_add(3));
        assert_equivalent(build(), build(), build(), &points, chunk);
    }
}

#[test]
fn batch_rejection_is_atomic() {
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let mut rng = NoiseRng::seed_from_u64(9);
    let mut mech = PrivIncReg1::new(
        Box::new(L2Ball::unit(3)),
        8,
        &params,
        &mut rng,
        PrivIncReg1Config::default(),
    )
    .unwrap();
    // A contract violation in the middle of the batch consumes nothing.
    let batch = vec![
        DataPoint::new(vec![0.3, 0.0, 0.0], 0.1),
        DataPoint::new(vec![2.0, 0.0, 0.0], 0.0), // ‖x‖ > 1
    ];
    assert!(mech.observe_batch(&batch).is_err());
    assert_eq!(mech.t(), 0);
    // A batch overflowing the horizon consumes nothing either.
    let long: Vec<DataPoint> = (0..9).map(|_| DataPoint::new(vec![0.2, 0.0, 0.0], 0.1)).collect();
    assert!(mech.observe_batch(&long).is_err());
    assert_eq!(mech.t(), 0);
    // Empty batches are no-ops.
    assert_eq!(mech.observe_batch(&[]).unwrap().len(), 0);

    // Every mechanism with a horizon, through both batch paths: a
    // mid-batch contract violation, a batch past the horizon and (for the
    // flat-buffer form) a wrong-length buffer each consume nothing, so the
    // mechanism keeps releasing what an untouched twin releases.
    let d = 3;
    let points = stream(8, d, 10);
    let mut invalid = points[3..6].to_vec();
    invalid[1] = DataPoint::new(vec![2.0, 0.0, 0.0], 0.0); // ‖x‖ > 1
    let overflow = [&points[3..], &points[..1]].concat(); // t = 3, T = 8
    for (name, build) in atomic_builders(&params) {
        for into in [false, true] {
            let (mut mech, mut twin) = (build(), build());
            for z in &points[..3] {
                assert_eq!(bits(&mech.observe(z).unwrap()), bits(&twin.observe(z).unwrap()));
            }
            let rejects: [(&[DataPoint], usize); 3] = [
                (&invalid, invalid.len() * d),
                (&overflow, overflow.len() * d),
                (&points[3..5], 2 * d + 1),
            ];
            for (batch, out_len) in rejects {
                let err = if into {
                    mech.observe_batch_into(batch, &mut vec![0.0; out_len]).is_err()
                } else if out_len == batch.len() * d {
                    mech.observe_batch(batch).is_err()
                } else {
                    continue; // only the flat-buffer form takes a buffer
                };
                assert!(err, "{name} (into = {into}) accepted a batch it must reject");
                assert_eq!(mech.t(), 3, "{name} (into = {into}) consumed a rejected batch");
            }
            let next = mech.observe_batch(&points[3..6]).unwrap();
            for (t, (z, got)) in points[3..6].iter().zip(&next).enumerate() {
                let want = twin.observe(z).unwrap();
                assert_eq!(
                    bits(got),
                    bits(&want),
                    "{name} (into = {into}) diverged at t={}",
                    t + 4
                );
            }
        }
    }

    // The robust wrapper counts a substitution only once it is consumed.
    let mut robust = robust_reg2(&params);
    let long = [&points[..], &points[..1]].concat(); // t = 0, T = 8
    assert!(long.iter().any(|z| z.x[0] < 0.0), "the batch must hold off-domain points");
    assert!(robust.observe_batch(&long).is_err());
    assert!(robust.observe_batch_into(&long, &mut vec![0.0; long.len() * d]).is_err());
    assert_eq!((robust.t(), robust.substituted()), (0, 0));
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `RobustPrivIncReg2` over `B₁³` with horizon 8, treating covariates
/// with a negative first entry as off-domain.
fn robust_reg2(params: &PrivacyParams) -> RobustPrivIncReg2 {
    let mut rng = NoiseRng::seed_from_u64(12);
    RobustPrivIncReg2::new(
        Box::new(L1Ball::unit(3)),
        1.0,
        Box::new(|x: &[f64]| x[0] >= 0.0),
        8,
        params,
        &mut rng,
        PrivIncReg2Config { m_override: Some(2), ..Default::default() },
    )
    .unwrap()
}

type Builder<'a> = Box<dyn Fn() -> Box<dyn IncrementalMechanism> + 'a>;

/// Seeded builders for every mechanism with a horizon, in dimension 3
/// with horizon 8.
fn atomic_builders(params: &PrivacyParams) -> Vec<(&'static str, Builder<'_>)> {
    vec![
        (
            "reg1",
            Box::new(move || {
                let mut rng = NoiseRng::seed_from_u64(11);
                let config = PrivIncReg1Config::default();
                Box::new(
                    PrivIncReg1::new(Box::new(L2Ball::unit(3)), 8, params, &mut rng, config)
                        .unwrap(),
                ) as Box<dyn IncrementalMechanism>
            }),
        ),
        (
            "reg2",
            Box::new(move || {
                let mut rng = NoiseRng::seed_from_u64(12);
                let config = PrivIncReg2Config { m_override: Some(2), ..Default::default() };
                Box::new(
                    PrivIncReg2::new(Box::new(L1Ball::unit(3)), 1.0, 8, params, &mut rng, config)
                        .unwrap(),
                ) as Box<dyn IncrementalMechanism>
            }),
        ),
        (
            "robust-reg2",
            Box::new(move || Box::new(robust_reg2(params)) as Box<dyn IncrementalMechanism>),
        ),
        (
            "erm",
            Box::new(move || {
                Box::new(
                    PrivIncErm::new(
                        Box::new(SquaredLoss),
                        Box::new(NoisyGdSolver { iters: 4, beta: 0.1 }),
                        Box::new(L2Ball::unit(3)),
                        8,
                        params,
                        TauRule::Fixed(2),
                        NoiseRng::seed_from_u64(13),
                    )
                    .unwrap(),
                ) as Box<dyn IncrementalMechanism>
            }),
        ),
    ]
}

#[test]
fn erm_batch_overflow_consumes_nothing() {
    // PrivIncErm stores its history, so a partially-consumed batch would
    // double-count points on retry — overflow must reject atomically.
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let mut mech = PrivIncErm::new(
        Box::new(SquaredLoss),
        Box::new(NoisyGdSolver { iters: 4, beta: 0.1 }),
        Box::new(L2Ball::unit(2)),
        4,
        &params,
        TauRule::Fixed(2),
        NoiseRng::seed_from_u64(1),
    )
    .unwrap();
    let long: Vec<DataPoint> = (0..5).map(|_| DataPoint::new(vec![0.2, 0.0], 0.1)).collect();
    assert!(mech.observe_batch(&long).is_err());
    assert_eq!(mech.t(), 0);
    assert_eq!(mech.observe_batch(&long[..4]).unwrap().len(), 4);
}
