//! Multi-stream engine throughput: points/sec through `ingest` as a
//! function of shard count, at a fleet size of ≥ 1000 concurrent
//! sessions — the scaling claim of the serving layer. The curve is
//! measured end-to-end through the **pipelined** frontend
//! (`EngineHandle::ingest`), with the direct synchronous
//! `ShardedEngine::ingest` as the baseline the pipeline must not regress
//! (budget: 10% on one core; see `docs/OPERATIONS.md` for how to read
//! the output).
//!
//! Also benches batched vs sequential observation on one session, which
//! isolates the `observe_batch` amortization from the sharding win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pir_core::{PrivIncReg1Config, PrivIncReg2Config};
use pir_dp::{NoiseRng, PrivacyParams};
use pir_engine::{
    EngineConfig, EngineHandle, FsyncPolicy, IngressConfig, MechanismSpec, ShardedEngine,
    SpillOptions, StreamSession, WalOptions,
};
use pir_erm::DataPoint;
use std::hint::black_box;
use std::path::PathBuf;

const SESSIONS: u64 = 1024;
const DIM: usize = 8;

fn valid_point(rng: &mut NoiseRng) -> DataPoint {
    let x: Vec<f64> = rng.unit_sphere(DIM).iter().map(|v| 0.9 * v).collect();
    let y = (0.8 * x[0]).clamp(-1.0, 1.0);
    DataPoint::new(x, y)
}

/// One mixed batch: a point for every session in the fleet.
fn fleet_batch(rng: &mut NoiseRng) -> Vec<(u64, DataPoint)> {
    (0..SESSIONS).map(|sid| (sid, valid_point(rng))).collect()
}

fn build_engine(num_shards: usize) -> ShardedEngine {
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let mut engine =
        ShardedEngine::new(EngineConfig { num_shards, seed: 11, parallel: num_shards > 1 })
            .unwrap();
    // An effectively inexhaustible horizon so the bench can run as many
    // iterations as it likes.
    let spec = MechanismSpec::Reg1 {
        set: pir_engine::SetSpec::unit_l2(DIM),
        config: PrivIncReg1Config { max_pgd_iters: 16, ..Default::default() },
    };
    engine.spawn_sessions(0..SESSIONS, &spec, 1usize << 32, &params).unwrap();
    engine
}

fn build_handle(num_shards: usize) -> EngineHandle {
    build_handle_with(num_shards, None)
}

fn build_handle_with(num_shards: usize, wal: Option<&WalOptions>) -> EngineHandle {
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let config = IngressConfig {
        num_shards,
        seed: 11,
        // Deep enough that a whole fleet batch fits any single shard.
        queue_depth: 4 * SESSIONS as usize,
    };
    let handle = match wal {
        None => EngineHandle::new(config).unwrap(),
        Some(options) => EngineHandle::with_wal(config, options).unwrap().0,
    };
    let spec = MechanismSpec::Reg1 {
        set: pir_engine::SetSpec::unit_l2(DIM),
        config: PrivIncReg1Config { max_pgd_iters: 16, ..Default::default() },
    };
    for sid in 0..SESSIONS {
        handle.open(sid, &spec, 1usize << 32, &params).unwrap();
    }
    handle.flush();
    handle
}

/// The headline curve: fleet batches through the pipelined frontend.
fn bench_pipelined_shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipelined_ingest_1024_sessions");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SESSIONS));
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            let handle = build_handle(shards);
            let mut rng = NoiseRng::seed_from_u64(5);
            b.iter(|| {
                let batch = fleet_batch(&mut rng);
                black_box(handle.ingest(black_box(batch)))
            });
            handle.close();
        });
    }
    group.finish();
}

/// The durability tax: identical fleet batches through the pipelined
/// frontend with the write-ahead log off, on with `FsyncPolicy::Off`
/// (kill-safe, not power-loss-safe), and on with the default interval
/// fsync (the recommended production mode; budget ≤ 10% over unlogged —
/// see `docs/OPERATIONS.md`).
fn bench_wal_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_logged_vs_unlogged_1024_sessions");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SESSIONS));
    let modes: [(&str, Option<FsyncPolicy>); 3] = [
        ("unlogged", None),
        ("fsync_off", Some(FsyncPolicy::Off)),
        ("fsync_interval4096", Some(FsyncPolicy::Interval { every: 4096 })),
    ];
    for (label, fsync) in modes {
        group.bench_with_input(BenchmarkId::new("mode", label), &fsync, |b, fsync| {
            let dir: Option<PathBuf> = fsync.map(|_| {
                std::env::temp_dir().join(format!("pir-bench-wal-{}-{label}", std::process::id()))
            });
            if let Some(d) = &dir {
                let _ = std::fs::remove_dir_all(d);
            }
            let options = dir.as_ref().zip(*fsync).map(|(d, fsync)| {
                let mut o = WalOptions::new(d);
                o.fsync = fsync;
                o
            });
            let handle = build_handle_with(2, options.as_ref());
            let mut rng = NoiseRng::seed_from_u64(5);
            b.iter(|| {
                let batch = fleet_batch(&mut rng);
                black_box(handle.ingest(black_box(batch)))
            });
            handle.close();
            if let Some(d) = &dir {
                let _ = std::fs::remove_dir_all(d);
            }
        });
    }
    group.finish();
}

/// The spill-tier tax, in both regimes: `resident` keeps the cap above
/// the fleet so the LRU only does bookkeeping (budget ≤ 2% over
/// `no_spill` — spilling you don't use must be near-free), while
/// `cold_restore` squeezes 512 sessions/shard through a 64-session cap,
/// so nearly every point pays a snapshot write + in-band restore — the
/// `spill_restore_latency` row in `BENCH_engine.json`.
fn bench_spill_restore_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("spill_restore_latency");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SESSIONS));
    let modes: [(&str, Option<usize>); 3] =
        [("no_spill", None), ("resident", Some(SESSIONS as usize)), ("cold_restore", Some(64))];
    for (label, cap) in modes {
        group.bench_with_input(BenchmarkId::new("mode", label), &cap, |b, cap| {
            let dir = cap.map(|_| {
                std::env::temp_dir().join(format!("pir-bench-spill-{}-{label}", std::process::id()))
            });
            if let Some(d) = &dir {
                let _ = std::fs::remove_dir_all(d);
            }
            let spill = dir.as_ref().zip(*cap).map(|(d, resident_cap)| SpillOptions {
                resident_cap,
                ..SpillOptions::new(d.clone())
            });
            let handle = build_handle_spill(2, spill.as_ref());
            let mut rng = NoiseRng::seed_from_u64(5);
            b.iter(|| {
                let batch = fleet_batch(&mut rng);
                black_box(handle.ingest(black_box(batch)))
            });
            handle.close();
            if let Some(d) = &dir {
                let _ = std::fs::remove_dir_all(d);
            }
        });
    }
    group.finish();
}

/// What a Reg2 respawn costs: `StreamSession::restore` of a Reg2
/// d=1000 m=100 session (the `sketch_reg2_d1000` loopbench spec)
/// snapshotted at t = 48 — re-sampling the sketch, decoding the
/// live-level trees and checking the carried lift smoothness. The
/// `reg2_restore` row in `BENCH_engine.json`.
fn bench_reg2_restore(c: &mut Criterion) {
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let (seed, sid, d) = (11, 7, 1000);
    let spec = MechanismSpec::Reg2 {
        set: pir_engine::SetSpec::unit_l1(d),
        domain_width: 8.0,
        config: PrivIncReg2Config { m_override: Some(100), lift_iters: 80, ..Default::default() },
    };
    let mut engine =
        ShardedEngine::new(EngineConfig { num_shards: 1, seed, parallel: false }).unwrap();
    engine.spawn_session(sid, &spec, 1 << 16, &params).unwrap();
    let mut rng = NoiseRng::seed_from_u64(3);
    for _ in 0..48 {
        let mut x = vec![0.0; d];
        for _ in 0..3 {
            x[rng.uniform_index(d)] = rng.uniform_in(-0.5, 0.5);
        }
        engine.observe(sid, &DataPoint::new(x, 0.2)).unwrap();
    }
    let blob = engine.with_session(sid, |s| s.snapshot().unwrap()).unwrap();
    let mut group = c.benchmark_group("reg2_restore");
    group.sample_size(10);
    group.bench_function("d1000_m100_t48", |b| {
        b.iter(|| black_box(StreamSession::restore(black_box(&blob), seed).unwrap()))
    });
    group.finish();
}

fn build_handle_spill(num_shards: usize, spill: Option<&SpillOptions>) -> EngineHandle {
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let config = IngressConfig { num_shards, seed: 11, queue_depth: 4 * SESSIONS as usize };
    let handle = match spill {
        None => EngineHandle::new(config).unwrap(),
        Some(options) => EngineHandle::with_spill(config, options).unwrap(),
    };
    let spec = MechanismSpec::Reg1 {
        set: pir_engine::SetSpec::unit_l2(DIM),
        config: PrivIncReg1Config { max_pgd_iters: 16, ..Default::default() },
    };
    for sid in 0..SESSIONS {
        handle.open(sid, &spec, 1usize << 32, &params).unwrap();
    }
    handle.flush();
    handle
}

/// The synchronous baseline the pipeline is compared against.
fn bench_shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_ingest_1024_sessions");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SESSIONS));
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            let mut engine = build_engine(shards);
            let mut rng = NoiseRng::seed_from_u64(5);
            b.iter(|| {
                let batch = fleet_batch(&mut rng);
                black_box(engine.ingest(black_box(batch)))
            });
        });
    }
    group.finish();
}

fn bench_batch_amortization(c: &mut Criterion) {
    use pir_core::{IncrementalMechanism, PrivIncReg1};
    use pir_geometry::L2Ball;
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let mut group = c.benchmark_group("observe_batch_vs_sequential_d64");
    group.sample_size(10);
    let batch_len = 32usize;
    group.throughput(Throughput::Elements(batch_len as u64));
    for batched in [false, true] {
        let label = if batched { "batched" } else { "sequential" };
        group.bench_with_input(BenchmarkId::new("mode", label), &batched, |b, &batched| {
            let d = 64;
            let mut rng = NoiseRng::seed_from_u64(3);
            let mut mech = PrivIncReg1::new(
                Box::new(L2Ball::unit(d)),
                1usize << 32,
                &params,
                &mut rng,
                PrivIncReg1Config { max_pgd_iters: 16, ..Default::default() },
            )
            .unwrap();
            let mut data_rng = NoiseRng::seed_from_u64(4);
            let batch: Vec<DataPoint> = (0..batch_len)
                .map(|_| {
                    let x: Vec<f64> = data_rng.unit_sphere(d).iter().map(|v| 0.9 * v).collect();
                    let y = (0.8 * x[0]).clamp(-1.0, 1.0);
                    DataPoint::new(x, y)
                })
                .collect();
            b.iter(|| {
                if batched {
                    black_box(mech.observe_batch(black_box(&batch)).unwrap());
                } else {
                    for z in &batch {
                        black_box(mech.observe(black_box(z)).unwrap());
                    }
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pipelined_shard_scaling,
    bench_wal_overhead,
    bench_spill_restore_latency,
    bench_reg2_restore,
    bench_shard_scaling,
    bench_batch_amortization
);
criterion_main!(benches);
