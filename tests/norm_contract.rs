//! The point contract at its edge. The paper's §2 normalization is
//! `‖x‖ ≤ 1` and `|y| ≤ 1`, and both regression mechanisms rest their
//! sensitivity on it: the second-moment tree's item, the packed `x xᵀ`
//! with its `√2`-scaled off-diagonals, has norm `‖x‖²`, and the first
//! moment's item `y·x` has norm at most `|y|·‖x‖`. Covariates of norm
//! exactly 1 — a basis vector, a two-entry diagonal and a dense unit
//! vector — and labels `±1` must be served (rounding in the packing must
//! not trip the tree's own `NormBoundViolated`). A covariate norm or a
//! label of `1 + 10⁻⁶`, and a NaN or `±∞` anywhere in `x` or `y`, must be
//! refused without consuming anything. All of it holds for `PRIVINCREG1`
//! and `PRIVINCREG2`, through `observe_into`, `observe_batch_into`, a wire
//! `OBSERVE` and `OBSERVE_BATCH`, the pipelined submit path, and WAL
//! replay, where a logged off-contract point is a counted failure in the
//! `RecoveryReport`, never a panic.

use private_incremental_regression::core::CoreError;
use private_incremental_regression::prelude::*;
use std::f64::consts::FRAC_1_SQRT_2;
use std::path::{Path, PathBuf};

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

/// The unit covariates with labels at the contract edge, `±1`.
fn unit_labels() -> Vec<DataPoint> {
    unit_edges().into_iter().zip([1.0, -1.0, 1.0]).map(|(x, y)| DataPoint::new(x, y)).collect()
}

/// Points that break the contract by a label of `±(1 + 10⁻⁶)` or by a
/// NaN or `±∞` in `x` or in `y`; every other value is in range.
fn off_contract() -> Vec<DataPoint> {
    let mut x = vec![0.0; D];
    x[0] = 0.5;
    let mut points =
        vec![DataPoint::new(x.clone(), 1.0 + 1e-6), DataPoint::new(x.clone(), -(1.0 + 1e-6))];
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut bad_x = x.clone();
        bad_x[1] = bad;
        points.push(DataPoint::new(bad_x, 0.5));
        points.push(DataPoint::new(x.clone(), bad));
    }
    points
}

fn is_refusal(reply: &Reply) -> bool {
    matches!(reply, Reply::Err(EngineError::Mechanism { .. }))
}

fn release_bits(reply: &Reply) -> Vec<u64> {
    match reply {
        Reply::Releases { thetas, .. } => thetas.iter().flatten().map(|v| v.to_bits()).collect(),
        other => panic!("expected releases, got {other:?}"),
    }
}

#[test]
fn unit_labels_are_served_and_off_contract_points_refused_by_observe_into() {
    for spec in specs() {
        let mut mech = mechanism(&spec);
        let mut out = vec![f64::NAN; D];
        for z in unit_labels() {
            mech.observe_into(&z, &mut out).unwrap();
            assert!(out.iter().all(|v| v.is_finite()), "{spec:?}: {z:?}");
        }
        let t = mech.t();
        for z in off_contract() {
            assert!(is_invalid_point(mech.observe_into(&z, &mut out)), "{spec:?}: {z:?}");
        }
        assert_eq!(mech.t(), t, "{spec:?}: a refused point was consumed");
    }
}

#[test]
fn unit_labels_are_served_and_off_contract_points_refused_by_observe_batch_into() {
    for spec in specs() {
        let mut mech = mechanism(&spec);
        let unit = unit_labels();
        let mut out = vec![f64::NAN; unit.len() * D];
        mech.observe_batch_into(&unit, &mut out).unwrap();
        assert!(out.iter().all(|v| v.is_finite()), "{spec:?}");
        for z in off_contract() {
            let batch = [unit.clone(), vec![z.clone()]].concat();
            let mut out = vec![0.0; batch.len() * D];
            let refused = mech.observe_batch_into(&batch, &mut out);
            assert!(is_invalid_point(refused), "{spec:?}: {z:?}");
            assert_eq!(mech.t(), unit.len(), "{spec:?}: a refused batch was consumed");
        }
    }
}

/// Every off-contract point as an `OBSERVE` and inside an
/// `OBSERVE_BATCH` of served points: each is refused in-band, and the
/// session's next release is bit-identical to a session's that never saw
/// them.
#[test]
fn off_contract_points_are_refused_over_the_wire() {
    let serve = |with_refusals: bool| -> Vec<Reply> {
        let handle =
            EngineHandle::new(IngressConfig { num_shards: 1, seed: 6, queue_depth: 64 }).unwrap();
        let mut request = Vec::new();
        let mut write = |cmd: &Command| pir_engine::wire::write_command(&mut request, cmd).unwrap();
        for (sid, spec) in (1u64..).zip(specs()) {
            write(&Command::Open { session_id: sid, spec, t_max: T, params: params() });
            write(&Command::ObserveBatch { session_id: sid, points: unit_labels() });
            if with_refusals {
                for point in off_contract() {
                    write(&Command::Observe { session_id: sid, point: point.clone() });
                    let points = [unit_labels(), vec![point]].concat();
                    write(&Command::ObserveBatch { session_id: sid, points });
                }
            }
            write(&Command::Observe { session_id: sid, point: unit_labels()[0].clone() });
        }
        write(&Command::Close);
        let mut reader: &[u8] = &request;
        let mut response = Vec::new();
        serve_connection(&handle, &mut reader, &mut response).unwrap();
        handle.close();
        let mut r: &[u8] = &response;
        std::iter::from_fn(|| pir_engine::wire::read_reply(&mut r).unwrap()).collect()
    };
    let clean = serve(false);
    let replies = serve(true);
    let refusals = 2 * off_contract().len();
    assert_eq!(replies.len(), clean.len() + 2 * refusals);
    let per_session = 3 + refusals;
    for (s, session) in replies.chunks(per_session).take(2).enumerate() {
        let expect = &clean[3 * s..3 * s + 3];
        assert_eq!(session[0], expect[0]);
        assert_eq!(release_bits(&session[1]), release_bits(&expect[1]));
        for reply in &session[2..2 + refusals] {
            assert!(is_refusal(reply), "session {s}: {reply:?}");
        }
        assert_eq!(release_bits(&session[per_session - 1]), release_bits(&expect[2]));
    }
}

/// The pipelined path (`EngineHandle::submit`) refuses every
/// off-contract `OBSERVE` and `OBSERVE_BATCH` in its reply, and the
/// refusals consume nothing.
#[test]
fn off_contract_points_are_refused_by_the_pipelined_submit_path() {
    let run = |with_refusals: bool| -> Vec<Vec<u64>> {
        let handle =
            EngineHandle::new(IngressConfig { num_shards: 2, seed: 8, queue_depth: 64 }).unwrap();
        let mut releases = Vec::new();
        for (sid, spec) in (1u64..).zip(specs()) {
            let open = Command::Open { session_id: sid, spec, t_max: T, params: params() };
            assert_eq!(handle.submit(open).unwrap().wait(), Reply::Opened { session_id: sid });
            for point in unit_labels() {
                let reply = handle.submit(Command::Observe { session_id: sid, point }).unwrap();
                releases.push(release_bits(&reply.wait()));
                if !with_refusals {
                    continue;
                }
                for point in off_contract() {
                    let single = Command::Observe { session_id: sid, point: point.clone() };
                    let reply = handle.submit(single).unwrap().wait();
                    assert!(is_refusal(&reply), "session {sid}: {reply:?}");
                    let points = [unit_labels(), vec![point]].concat();
                    let batch = Command::ObserveBatch { session_id: sid, points };
                    let reply = handle.submit(batch).unwrap().wait();
                    assert!(is_refusal(&reply), "session {sid}: {reply:?}");
                }
            }
        }
        handle.close();
        releases
    };
    assert_eq!(run(true), run(false), "a refused point moved a later release");
}

/// A self-cleaning scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("pir-norm-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A log written record by record with `WalWriter`, holding every
/// off-contract point as an `OBSERVE` and in an `OBSERVE_BATCH` for both
/// mechanisms. Both restart paths — `recover` into a `ShardedEngine` and
/// `EngineHandle::with_wal` — replay it without a panic, count each such
/// record in `RecoveryReport::failed`, and release afterwards exactly as
/// a log without them does.
#[test]
fn wal_replay_counts_off_contract_records_as_failures() {
    let seed = 13;
    let log = |dir: &Path, with_refusals: bool| -> usize {
        let options = WalOptions { fsync: FsyncPolicy::Off, ..WalOptions::new(dir) };
        let mut w = WalWriter::create(&options, 0).unwrap();
        let mut refused = 0;
        for (sid, spec) in (1u64..).zip(specs()) {
            w.append(&Command::Open { session_id: sid, spec, t_max: T, params: params() }).unwrap();
            w.append(&Command::ObserveBatch { session_id: sid, points: unit_labels() }).unwrap();
            if with_refusals {
                for point in off_contract() {
                    w.append(&Command::Observe { session_id: sid, point: point.clone() }).unwrap();
                    let points = [unit_labels(), vec![point]].concat();
                    w.append(&Command::ObserveBatch { session_id: sid, points }).unwrap();
                    refused += 2;
                }
            }
        }
        w.finish().unwrap();
        refused
    };
    let next = |sid: u64| Command::Observe { session_id: sid, point: unit_labels()[1].clone() };
    let clean_dir = TempDir::new("clean");
    log(clean_dir.path(), false);
    let mut clean =
        ShardedEngine::new(EngineConfig { num_shards: 1, seed, parallel: false }).unwrap();
    let clean_report = recover(clean_dir.path(), &mut clean).unwrap();
    assert_eq!(clean_report.failed, 0);

    let dir = TempDir::new("off-contract");
    let refused = log(dir.path(), true);
    let mut direct =
        ShardedEngine::new(EngineConfig { num_shards: 2, seed, parallel: false }).unwrap();
    let report = recover(dir.path(), &mut direct).unwrap();
    assert_eq!(report.failed, refused as u64);
    assert_eq!(report.commands, clean_report.commands + refused as u64);

    let options = WalOptions { fsync: FsyncPolicy::Off, ..WalOptions::new(dir.path()) };
    let config = IngressConfig { num_shards: 1, seed, queue_depth: 64 };
    let (handle, piped_report) = EngineHandle::with_wal(config, &options).unwrap();
    assert_eq!(piped_report.failed, refused as u64);
    for sid in 1..=2u64 {
        let want = release_bits(&clean.apply(&next(sid)));
        assert_eq!(release_bits(&direct.apply(&next(sid))), want, "session {sid}");
        assert_eq!(release_bits(&handle.submit(next(sid)).unwrap().wait()), want, "session {sid}");
    }
    handle.close();
}
