//! The covariate norm contract at its edge. The paper's §2 normalization
//! is `‖x‖ ≤ 1`, and both regression mechanisms rest their sensitivity
//! on it: the second-moment tree's item, the packed `x xᵀ` with its
//! `√2`-scaled off-diagonals, has norm `‖x‖²`. Covariates of norm exactly
//! 1 — a basis vector, a two-entry diagonal and a dense unit vector —
//! must be served (rounding in the packing must not trip the tree's own
//! `NormBoundViolated`), and a norm of `1 + 10⁻⁶` must be refused. Both
//! hold for `PRIVINCREG1` and `PRIVINCREG2`, through `observe_into`,
//! `observe_batch_into` and a wire `OBSERVE`.

use private_incremental_regression::core::CoreError;
use private_incremental_regression::prelude::*;
use std::f64::consts::FRAC_1_SQRT_2;

const D: usize = 8;
const T: usize = 32;

fn params() -> PrivacyParams {
    PrivacyParams::approx(1.0, 1e-6).unwrap()
}

/// Unit covariates: `e₁`, `(e₁ + e₂)/√2` and a dense vector.
fn unit_edges() -> Vec<Vec<f64>> {
    let mut e1 = vec![0.0; D];
    e1[0] = 1.0;
    let mut diag = vec![0.0; D];
    diag[0] = FRAC_1_SQRT_2;
    diag[1] = FRAC_1_SQRT_2;
    let raw: Vec<f64> = (0..D).map(|i| if i % 2 == 0 { 1.0 + i as f64 } else { -0.5 }).collect();
    let norm = raw.iter().map(|v| v * v).sum::<f64>().sqrt();
    let dense = raw.iter().map(|v| v / norm).collect();
    vec![e1, diag, dense]
}

/// The same covariates stretched to norm `1 + 10⁻⁶`.
fn just_over() -> Vec<Vec<f64>> {
    unit_edges().into_iter().map(|x| x.iter().map(|v| v * (1.0 + 1e-6)).collect()).collect()
}

fn points(xs: Vec<Vec<f64>>) -> Vec<DataPoint> {
    xs.into_iter().map(|x| DataPoint::new(x, 0.5)).collect()
}

fn specs() -> [MechanismSpec; 2] {
    [
        MechanismSpec::reg1_l2(D),
        MechanismSpec::Reg2 {
            set: SetSpec::unit_l1(D),
            domain_width: 1.0,
            config: PrivIncReg2Config { m_override: Some(4), ..Default::default() },
        },
    ]
}

fn mechanism(spec: &MechanismSpec) -> Box<dyn IncrementalMechanism> {
    let mut rng = NoiseRng::seed_from_u64(99);
    match spec {
        MechanismSpec::Reg1 { config, .. } => Box::new(
            PrivIncReg1::new(Box::new(L2Ball::unit(D)), T, &params(), &mut rng, *config).unwrap(),
        ),
        MechanismSpec::Reg2 { domain_width, config, .. } => Box::new(
            PrivIncReg2::new(
                Box::new(L1Ball::unit(D)),
                *domain_width,
                T,
                &params(),
                &mut rng,
                *config,
            )
            .unwrap(),
        ),
        other => panic!("not a regression spec: {other:?}"),
    }
}

fn is_invalid_point(r: Result<(), CoreError>) -> bool {
    matches!(r, Err(CoreError::InvalidPoint { .. }))
}

#[test]
fn unit_norm_covariates_are_served_and_longer_ones_refused_by_observe_into() {
    for spec in specs() {
        let mut mech = mechanism(&spec);
        let mut out = vec![f64::NAN; D];
        for z in points(unit_edges()) {
            mech.observe_into(&z, &mut out).unwrap();
            assert!(out.iter().all(|v| v.is_finite()), "{spec:?}: {z:?}");
        }
        let t = mech.t();
        for z in points(just_over()) {
            assert!(is_invalid_point(mech.observe_into(&z, &mut out)), "{spec:?}: {z:?}");
        }
        assert_eq!(mech.t(), t, "{spec:?}: a refused point was consumed");
    }
}

#[test]
fn unit_norm_covariates_are_served_and_longer_ones_refused_by_observe_batch_into() {
    for spec in specs() {
        let mut mech = mechanism(&spec);
        let unit = points(unit_edges());
        let mut out = vec![f64::NAN; unit.len() * D];
        mech.observe_batch_into(&unit, &mut out).unwrap();
        assert!(out.iter().all(|v| v.is_finite()), "{spec:?}");
        for z in points(just_over()) {
            // One bad point refuses the whole batch, and consumes nothing.
            let batch = [unit.clone(), vec![z]].concat();
            let mut out = vec![0.0; batch.len() * D];
            assert!(is_invalid_point(mech.observe_batch_into(&batch, &mut out)), "{spec:?}");
            assert_eq!(mech.t(), unit.len(), "{spec:?}: a refused batch was consumed");
        }
    }
}

#[test]
fn unit_norm_covariates_are_served_and_longer_ones_refused_over_the_wire() {
    let handle =
        EngineHandle::new(IngressConfig { num_shards: 1, seed: 5, queue_depth: 64 }).unwrap();
    let mut request = Vec::new();
    let mut write = |cmd: &Command| pir_engine::wire::write_command(&mut request, cmd).unwrap();
    for (sid, spec) in (1u64..).zip(specs()) {
        write(&Command::Open { session_id: sid, spec, t_max: T, params: params() });
        for point in points(unit_edges()).into_iter().chain(points(just_over())) {
            write(&Command::Observe { session_id: sid, point });
        }
    }
    write(&Command::Close);
    let mut reader: &[u8] = &request;
    let mut response = Vec::new();
    serve_connection(&handle, &mut reader, &mut response).unwrap();
    handle.close();

    let mut r: &[u8] = &response;
    let mut replies = Vec::new();
    while let Some(reply) = pir_engine::wire::read_reply(&mut r).unwrap() {
        replies.push(reply);
    }
    let per_session = 1 + 2 * unit_edges().len();
    assert_eq!(replies.len(), 2 * per_session + 1);
    for (sid, session) in (1u64..).zip(replies.chunks(per_session).take(2)) {
        assert_eq!(session[0], Reply::Opened { session_id: sid });
        let (served, refused) = session[1..].split_at(unit_edges().len());
        for reply in served {
            let thetas = reply.clone().into_releases().unwrap();
            assert!(thetas[0].iter().all(|v| v.is_finite()), "session {sid}");
        }
        for reply in refused {
            assert!(matches!(reply, Reply::Err(EngineError::Mechanism { .. })), "{reply:?}");
        }
    }
}
