//! Lift iterations per served step: how many FISTA iterations the gauge
//! lift (Algorithm 3, Step 9) actually uses at each `t`, and what a step
//! and a restore cost, on the loopbench sketch workload's session
//! (d = 1000, m = 100, `B₁`, horizon 2¹⁶, `lift_iters` 80, 3-sparse
//! covariates, a 3-sparse `θ*` of norm 0.5, label noise 0.1).
//!
//! Part 1 prints p10/p50/p90 of the lift iterations and of the step
//! time over `t < 64`, `64 ≤ t < 256` and `t ≥ 256`. Part 2 splits a
//! sketch-workload recovery into its two costs: restoring a session
//! snapshotted after 32 points (`StreamSession::restore`, the
//! `reg2_restore` bench) and re-running its 4-point replayed tail.
//!
//! ```text
//! cargo run --release -p pir-bench --bin exp_lift_iters
//! ```

use pir_bench::{report, scaled};
use pir_core::{IncrementalMechanism, PrivIncReg2, PrivIncReg2Config};
use pir_datagen::{linear_stream, sparse_theta, CovariateKind, LinearModel};
use pir_dp::{NoiseRng, PrivacyParams};
use pir_engine::{EngineConfig, MechanismSpec, SetSpec, ShardedEngine, StreamSession};
use pir_erm::DataPoint;
use pir_geometry::L1Ball;
use std::time::Instant;

const D: usize = 1000;
const M: usize = 100;
const LIFT_ITERS: usize = 80;
const T_MAX: usize = 1 << 16;

fn config() -> PrivIncReg2Config {
    PrivIncReg2Config { m_override: Some(M), lift_iters: LIFT_ITERS, ..Default::default() }
}

fn stream(n: usize, seed: u64) -> Vec<DataPoint> {
    let mut rng = NoiseRng::seed_from_u64(seed);
    let model = LinearModel { theta_star: sparse_theta(D, 3, 0.5, &mut rng), noise_std: 0.1 };
    linear_stream(n, D, CovariateKind::Sparse { k: 3 }, &model, &mut rng)
}

/// Nearest-rank quantile of a sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn quantiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    [quantile(&v, 0.1), quantile(&v, 0.5), quantile(&v, 0.9)]
}

fn main() {
    report::banner(
        "L1",
        "Gauge-lift iterations per served step (sketch workload session)",
        "the lift's 1e-8 stop fires well before the 80-iteration ceiling",
    );
    let params = PrivacyParams::approx(1.0, 1e-6).expect("valid privacy parameters");
    let sessions = scaled(4, 2) as u64;
    let steps = 512;

    // Part 1: (t, iterations, step ms) over every step of every session.
    let mut records = Vec::new();
    for s in 0..sessions {
        let mut rng = NoiseRng::seed_from_u64(7 + s);
        let mut mech =
            PrivIncReg2::new(Box::new(L1Ball::unit(D)), 8.0, T_MAX, &params, &mut rng, config())
                .expect("valid configuration");
        let mut out = vec![0.0; D];
        for z in &stream(steps, 100 + s) {
            let t0 = Instant::now();
            mech.observe_into(z, &mut out).expect("in-contract point");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            records.push((mech.t(), mech.last_lift_iters() as f64, ms));
        }
    }
    let mut table = report::Table::new(&[
        "t range",
        "steps",
        "iters p10",
        "iters p50",
        "iters p90",
        "ms p10",
        "ms p50",
        "ms p90",
    ]);
    for (name, lo, hi) in
        [("t < 64", 1, 64), ("64 ≤ t < 256", 64, 256), ("t ≥ 256", 256, usize::MAX)]
    {
        let bucket: Vec<_> = records.iter().filter(|r| (lo..hi).contains(&r.0)).collect();
        let iters = quantiles(bucket.iter().map(|r| r.1).collect());
        let ms = quantiles(bucket.iter().map(|r| r.2).collect());
        let mut row = vec![name.to_string(), bucket.len().to_string()];
        row.extend(iters.iter().map(|v| format!("{v:.0}")));
        row.extend(ms.iter().map(|v| format!("{v:.2}")));
        table.row(&row);
    }
    table.print();
    println!();

    // Part 2: the sketch recovery's shape — sessions snapshotted after 32
    // points, restored, then 4 replayed points each.
    let spec =
        MechanismSpec::Reg2 { set: SetSpec::unit_l1(D), domain_width: 8.0, config: config() };
    let seed = 11;
    let mut engine =
        ShardedEngine::new(EngineConfig { num_shards: 1, seed, parallel: false }).expect("engine");
    let (mut restore_ms, mut tail_ms) = (Vec::new(), Vec::new());
    for sid in 0..scaled(8, 4) as u64 {
        let points = stream(36, 200 + sid);
        engine.spawn_session(sid, &spec, T_MAX, &params).expect("spawn");
        for z in &points[..32] {
            engine.observe(sid, z).expect("in-contract point");
        }
        let blob = engine.with_session(sid, |s| s.snapshot()).expect("session").expect("snapshot");
        let t0 = Instant::now();
        let mut session = StreamSession::restore(&blob, seed).expect("restore");
        restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        for z in &points[32..] {
            session.observe(z).expect("in-contract point");
        }
        tail_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let [_, restore, _] = quantiles(restore_ms);
    let [_, tail, _] = quantiles(tail_ms);
    println!("restore of a t = 32 session: median {restore:.2} ms");
    println!("its 4-point replayed tail:   median {tail:.2} ms");
    // loopbench sketch_reg2_d1000 recovers 32 sessions, 24 of them with
    // a 4-point tail.
    println!(
        "sketch recovery estimate: restore {:.0} ms + tail {:.0} ms",
        32.0 * restore,
        24.0 * tail
    );
}
