//! The traced run: the per-layer numbers.
//!
//! The ladder feeds one fixed (session, point) sequence through
//! successively deeper entry points — the session itself, the in-process
//! `SubmitHandle`, the handle with the WAL (and the spill tier), and the
//! full TCP loopback — on fresh sessions each time, so every rung must
//! release exactly the same bits. A layer's self cost is the CPU
//! difference between adjacent rungs, so the self costs sum to the
//! loopback rung. Component timings call each layer's public functions
//! directly, from outside.

use crate::loopback::{self, Client, Spans, Stack};
use crate::procstat::{self, HostSample};
use crate::report::{median, Metrics, Tally};
use crate::serving;
use crate::workload::{privacy, Frame, Plan, Workload, SHARDS};
use pir_continual::TreeMechanism;
use pir_core::lift::{lift_constrained_ls_into, sketch_smoothness, LiftScratch};
use pir_dp::NoiseRng;
use pir_engine::{wal, wire, Command, Reply, SpillStats, StreamSession, TcpStats};
use pir_geometry::{ConvexSet, L1Ball};
use pir_sketch::GaussianSketch;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Releases of one rung: per connection, every release flattened in
/// sequence order.
type Releases = Vec<Vec<f64>>;

/// One rung's cost over the ladder sequence.
struct Rung {
    cpu_s: f64,
    wall_s: f64,
    releases: Releases,
}

fn sequence<'a>(w: &Workload, plan: &'a Plan, conn: usize) -> &'a [Frame] {
    &plan.conns[conn].pool[..w.ladder_frames]
}

fn ladder_frames(w: &Workload) -> u64 {
    (SHARDS * w.ladder_frames) as u64
}

fn ladder_points(w: &Workload, plan: &Plan) -> u64 {
    (0..SHARDS).flat_map(|c| sequence(w, plan, c)).map(|f| f.points.len() as u64).sum()
}

fn spawn_sessions(w: &Workload, plan: &Plan) -> Result<HashMap<u64, StreamSession>, String> {
    let mut sessions = HashMap::new();
    for sid in plan.conns.iter().flat_map(|c| &c.sessions) {
        let s = StreamSession::spawn(*sid, &w.spec, w.t_max, &privacy(), plan.engine_seed)
            .map_err(|e| format!("spawn {sid:#x}: {e}"))?;
        sessions.insert(*sid, s);
    }
    Ok(sessions)
}

/// Rung 1: `StreamSession::observe` / `observe_batch` directly, on one
/// thread. Returns the sessions for the snapshot timings.
fn rung_session(
    w: &Workload,
    plan: &Plan,
    tally: &mut Tally,
) -> Result<(Rung, HashMap<u64, StreamSession>), String> {
    let mut sessions = spawn_sessions(w, plan)?;
    let mut feed =
        |frames: &[Frame], out: &mut Vec<f64>, tally: &mut Tally| -> Result<(), String> {
            for f in frames {
                let s = sessions.get_mut(&f.sid).ok_or("ladder session missing")?;
                let r = if w.batch == 1 {
                    s.observe(&f.points[0]).map(|t| vec![t])
                } else {
                    s.observe_batch(&f.points)
                };
                match r {
                    Ok(thetas) => thetas.iter().for_each(|t| out.extend_from_slice(t)),
                    Err(e) => tally.fail(format!("session observe: {e}")),
                }
            }
            Ok(())
        };
    for conn in &plan.conns {
        feed(&conn.warmup, &mut Vec::new(), tally)?;
    }
    let mut releases: Releases = vec![Vec::new(); SHARDS];
    let cpu0 = procstat::thread_cpu_s();
    let t0 = Instant::now();
    for (c, out) in releases.iter_mut().enumerate() {
        feed(sequence(w, plan, c), out, tally)?;
    }
    let rung = Rung {
        cpu_s: procstat::thread_cpu_s() - cpu0,
        wall_s: t0.elapsed().as_secs_f64(),
        releases,
    };
    tally.attempt(ladder_frames(w));
    Ok((rung, sessions))
}

/// What the in-process rungs record besides their cost.
#[derive(Default)]
struct HandleRung {
    submit_ns: Vec<f64>,
    reply_wait_ms: Vec<f64>,
    queue_depth_max: usize,
    backpressure: u64,
    submits: u64,
    checkpoint_ms: Vec<f64>,
    decode_us_per_record: f64,
    wal_failures: u64,
    spill: SpillStats,
}

/// One load thread of an in-process rung: a closed loop of `window`
/// tickets over `cmds`, timing each submit and each reply wait.
fn pump_handle(
    submit: &pir_engine::SubmitHandle,
    cmds: Vec<Command>,
    window: usize,
    trace: &mut HandleRung,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut out = Vec::new();
    let mut inflight: VecDeque<(pir_engine::Ticket, Instant)> = VecDeque::with_capacity(window);
    let mut wait_one = |inflight: &mut VecDeque<(pir_engine::Ticket, Instant)>,
                        tally: &mut Tally| {
        if let Some((ticket, submitted)) = inflight.pop_front() {
            let reply = ticket.wait();
            trace.reply_wait_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
            match reply {
                Reply::Releases { thetas, .. } => {
                    thetas.iter().for_each(|t| out.extend_from_slice(t))
                }
                other => tally.fail(format!("in-process reply {other:?}")),
            }
        }
    };
    for (i, cmd) in cmds.into_iter().enumerate() {
        if inflight.len() == window {
            wait_one(&mut inflight, tally);
        }
        let t0 = Instant::now();
        let ticket = match submit.try_submit(cmd) {
            Ok(t) => Ok(t),
            Err((cmd, e)) if e.is_retryable() => {
                trace.backpressure += 1;
                submit.submit_blocking(cmd)
            }
            Err((_, e)) => Err(e),
        };
        let t1 = Instant::now();
        trace.submit_ns.push((t1 - t0).as_nanos() as f64);
        trace.submits += 1;
        match ticket {
            Ok(t) => inflight.push_back((t, t1)),
            Err(e) => tally.fail(format!("submit: {e}")),
        }
        if i % 16 == 0 {
            let depth = submit.queue_depths().into_iter().max().unwrap_or(0);
            trace.queue_depth_max = trace.queue_depth_max.max(depth);
        }
    }
    while !inflight.is_empty() {
        wait_one(&mut inflight, tally);
    }
    out
}

/// Rungs 2 and 3: the in-process `SubmitHandle`, without or with the
/// WAL (and the spill tier), one load thread per connection.
fn rung_handle(
    w: &Workload,
    plan: &Plan,
    dir: &Path,
    wal_on: bool,
    spill_on: bool,
    tally: &mut Tally,
) -> Result<(Rung, HandleRung), String> {
    let handle = loopback::engine(w, plan, dir, wal_on, spill_on)?;
    let opens: Vec<_> = plan
        .conns
        .iter()
        .flat_map(|c| &c.sessions)
        .map(|&sid| (sid, handle.submit_blocking(w.open_command(sid))))
        .collect();
    for (sid, t) in opens {
        let reply = t.map(|t| t.wait());
        tally.check(matches!(reply, Ok(Reply::Opened { session_id }) if session_id == sid), || {
            format!("in-process open {sid:#x}: {reply:?}")
        });
    }
    let commands = |frames: &[Frame]| -> Vec<Command> {
        frames.iter().map(|f| w.command(f.sid, &f.points)).collect()
    };
    let run_loaders = |cmds: Vec<Vec<Command>>| -> Vec<(Vec<f64>, HandleRung, Tally)> {
        std::thread::scope(|scope| {
            let threads: Vec<_> = cmds
                .into_iter()
                .map(|cmds| {
                    let submit = handle.submit_handle();
                    scope.spawn(move || {
                        let mut trace = HandleRung::default();
                        let mut tally = Tally::default();
                        let out = pump_handle(&submit, cmds, w.window, &mut trace, &mut tally);
                        (out, trace, tally)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| {
                    t.join().unwrap_or_else(|_| {
                        (Vec::new(), HandleRung::default(), Tally::failed("load thread panicked"))
                    })
                })
                .collect()
        })
    };
    for (_, _, sub) in run_loaders(plan.conns.iter().map(|c| commands(&c.warmup)).collect()) {
        tally.merge(sub);
    }
    let cmds = (0..SHARDS).map(|c| commands(sequence(w, plan, c))).collect();
    let cpu0 = procstat::process_cpu_s();
    let t0 = Instant::now();
    let results = run_loaders(cmds);
    let cpu_s = procstat::process_cpu_s() - cpu0;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut trace = HandleRung::default();
    let mut releases = Vec::new();
    tally.attempt(ladder_frames(w));
    for (out, t, sub) in results {
        tally.merge(sub);
        releases.push(out);
        trace.submit_ns.extend(t.submit_ns);
        trace.reply_wait_ms.extend(t.reply_wait_ms);
        trace.queue_depth_max = trace.queue_depth_max.max(t.queue_depth_max);
        trace.backpressure += t.backpressure;
        trace.submits += t.submits;
    }
    if wal_on {
        let (records, secs) = decode_segments(&dir.join("wal"))?;
        trace.decode_us_per_record = 1e6 * secs / records.max(1) as f64;
        for _ in 0..3 {
            let t = Instant::now();
            let r = handle.checkpoint();
            trace.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.check(r.is_ok(), || format!("checkpoint: {r:?}"));
        }
        let ws = handle.wal_stats();
        trace.wal_failures =
            ws.retries + ws.degraded_shards + ws.unlogged_commands + ws.auto_checkpoint_failures;
        tally.check(trace.wal_failures == 0, || format!("WAL counters {ws:?}"));
    }
    trace.spill = handle.spill_stats();
    tally.check(trace.spill.spill_failures == 0 && trace.spill.remove_failures == 0, || {
        format!("spill counters {:?}", trace.spill)
    });
    handle.close();
    std::fs::remove_dir_all(dir).ok();
    Ok((Rung { cpu_s, wall_s, releases }, trace))
}

/// Decode every segment file under `dir`; returns (records, seconds).
fn decode_segments(dir: &Path) -> Result<(usize, f64), String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    paths.sort();
    let t0 = Instant::now();
    let mut records = 0;
    for p in &paths {
        let (_, cmds) =
            wal::decode_segment(p).map_err(|e| format!("decode {}: {e}", p.display()))?;
        records += cmds.len();
    }
    Ok((records, t0.elapsed().as_secs_f64()))
}

/// Rung 4: the full loopback stack, with or without the client-side
/// spans (each write and the read of each reply).
fn rung_loopback(
    w: &Workload,
    plan: &Plan,
    dir: &Path,
    traced: bool,
    tally: &mut Tally,
) -> Result<(Rung, TcpStats, Spans), String> {
    let set = w.set();
    let set = set.as_ref();
    let stack = Stack::start(w, plan, dir)?;
    let addr = stack.addr();
    let barrier = Barrier::new(SHARDS + 1);
    type Out = (Vec<f64>, Spans, f64, u64, Tally);
    let (outs, cpu_s, wall_s): (Vec<Out>, f64, f64) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..SHARDS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut spans = Spans::default();
                    let mut releases = Vec::new();
                    let mut sent = 0;
                    let conn = &plan.conns[c];
                    let client = Client::connect(addr).and_then(|mut cl| {
                        cl.open_all(conn, &mut tally)?;
                        cl.observe_all(w, set, &conn.warmup, w.window, None, &mut tally)?;
                        Ok(cl)
                    });
                    barrier.wait();
                    let cpu0 = procstat::thread_cpu_s();
                    let client = client.and_then(|mut cl| {
                        let seq = sequence(w, plan, c);
                        let sp = traced.then_some(&mut spans);
                        releases = cl.observe_all(w, set, seq, w.window, sp, &mut tally)?;
                        Ok(cl)
                    });
                    let cpu = procstat::thread_cpu_s() - cpu0;
                    barrier.wait();
                    match client.and_then(|cl| cl.close(&mut tally)) {
                        Ok(n) => sent = n,
                        Err(e) => tally.fail(e),
                    }
                    (releases, spans, cpu, sent, tally)
                })
            })
            .collect();
        barrier.wait();
        let cpu0 = procstat::process_cpu_s();
        let t0 = Instant::now();
        barrier.wait();
        let cpu_s = procstat::process_cpu_s() - cpu0;
        let wall_s = t0.elapsed().as_secs_f64();
        let outs = threads
            .into_iter()
            .map(|t| {
                t.join().unwrap_or_else(|_| {
                    let failed = Tally::failed("client thread panicked");
                    (Vec::new(), Spans::default(), 0.0, 0, failed)
                })
            })
            .collect();
        (outs, cpu_s, wall_s)
    });
    let Stack { handle, front, .. } = stack;
    let tcp = front.shutdown();
    let ws = handle.wal_stats();
    let ss = handle.spill_stats();
    handle.close();
    std::fs::remove_dir_all(dir).ok();
    tally.check(ws == Default::default(), || format!("WAL counters {ws:?}"));
    tally.check(ss.spill_failures == 0 && ss.remove_failures == 0, || {
        format!("spill counters {ss:?}")
    });
    let mut spans = Spans::default();
    let mut releases = Vec::new();
    let mut client_cpu = 0.0;
    let mut frames = 0;
    for (r, s, cpu, sent, t) in outs {
        releases.push(r);
        spans.write_ns.extend(s.write_ns);
        spans.read_ns.extend(s.read_ns);
        client_cpu += cpu;
        frames += sent;
        tally.merge(t);
    }
    tally
        .check(tcp.commands == frames && tcp.replies == frames && tcp.protocol_errors == 0, || {
            format!("tcp stats {tcp:?} against {frames} frames sent")
        });
    Ok((Rung { cpu_s: cpu_s - client_cpu, wall_s, releases }, tcp, spans))
}

fn bit_equal(a: &Releases, b: &Releases) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Median wall time of `f` in seconds per call, over `reps` batches of
/// `inner` calls.
fn time_per_call(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        v.push(t0.elapsed().as_secs_f64() / inner as f64);
    }
    median(&v)
}

/// The tree dimension the workload's mechanism keeps: `d² + d` for
/// `PrivIncReg1`, `m² + m` for `PrivIncReg2`.
fn tree_dim(w: &Workload) -> usize {
    match &w.spec {
        pir_engine::MechanismSpec::Reg2 { config, .. } => {
            let m = config.m_override.unwrap_or(100);
            m * m + m
        }
        _ => w.dim * w.dim + w.dim,
    }
}

/// Component timings: the lift, the sketch, the tree, the noise and the
/// projection, each called directly.
fn components(w: &Workload, seed: u64, m: &mut Metrics) {
    let mut rng = NoiseRng::seed_from_u64(seed ^ 0x636f_6d70);
    // The lift at m = 100, d = 1000, from a cold start towards the noisy
    // sketch of a dense point with ‖θ‖₁ = 3: the minimizer lies on a
    // high-dimensional face of the unit ℓ₁ ball, and the iteration runs
    // to the 80-iteration ceiling (twice the ceiling takes twice as
    // long).
    let (lm, ld) = (100, 1000);
    let sketch = GaussianSketch::sample(lm, ld, &mut rng);
    let smooth = sketch_smoothness(&sketch);
    let ball = L1Ball::unit(ld);
    let mut theta = rng.gaussian_vec(ld, 1.0);
    let l1: f64 = theta.iter().map(|v| v.abs()).sum();
    theta.iter_mut().for_each(|v| *v *= 3.0 / l1);
    let mut target = sketch.apply(&theta).expect("sketch shape");
    target.iter_mut().for_each(|v| *v += 0.05 * rng.standard_gaussian());
    let warm = vec![0.0; ld];
    let mut scratch = LiftScratch::new(lm, ld);
    let mut out = vec![0.0; ld];
    let lift_s = time_per_call(9, 3, || {
        lift_constrained_ls_into(
            &sketch,
            &target,
            &ball,
            smooth,
            80,
            &warm,
            &mut scratch,
            &mut out,
        );
        black_box(&out);
    });
    m.put("core.lift_ms", lift_s * 1e3, "ms");
    let x = rng.gaussian_vec(ld, 1.0);
    let mut y = vec![0.0; lm];
    let apply_s = time_per_call(9, 200, || {
        sketch.apply_into(black_box(&x), &mut y).expect("sketch shape");
    });
    let mut back = vec![0.0; ld];
    let apply_t_s = time_per_call(9, 200, || {
        sketch.apply_t_into(black_box(&y), &mut back).expect("sketch shape");
    });
    m.put("sketch.apply_us", apply_s * 1e6, "us");
    m.put("sketch.apply_t_us", apply_t_s * 1e6, "us");

    let dim = tree_dim(w);
    let inner = (400_000 / dim).clamp(20, 5000);
    let mut tree = TreeMechanism::with_sigma(dim, 1 << 24, 1.0, rng.fork());
    let v = rng.gaussian_vec(dim, 0.1);
    let mut rel = vec![0.0; dim];
    let tree_s = time_per_call(9, inner, || {
        tree.update_into(black_box(&v), &mut rel).expect("tree horizon");
    });
    m.put("continual.tree_update_us", tree_s * 1e6, "us");
    let mut buf = vec![0.0; dim];
    let fill_s = time_per_call(9, inner, || {
        rng.fill_gaussian(&mut buf, 1.0);
        black_box(&buf);
    });
    m.put("dp.fill_gaussian_ns", fill_s * 1e9, "ns");

    let set = w.set();
    let p = rng.gaussian_vec(w.dim, 2.0);
    let mut proj = vec![0.0; w.dim];
    let project_s = time_per_call(9, (200_000 / w.dim).max(50), || {
        set.project_into(black_box(&p), &mut proj);
    });
    m.put("geometry.project_us", project_s * 1e6, "us");
}

/// Snapshot encode/decode of the rung-1 sessions.
fn snapshots(
    plan: &Plan,
    sessions: &HashMap<u64, StreamSession>,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let mut ids: Vec<u64> = sessions.keys().copied().collect();
    ids.sort_unstable();
    ids.truncate(256);
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for sid in ids {
        let s = &sessions[&sid];
        buf.clear();
        let t0 = Instant::now();
        let r = s.snapshot_into(&mut buf);
        enc.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let back = StreamSession::restore(&buf, plan.engine_seed);
        dec.push(t1.elapsed().as_secs_f64());
        bytes.push(buf.len() as f64);
        tally.check(r.is_ok() && back.is_ok_and(|b| b.t() == s.t()), || {
            format!("snapshot round trip of {sid:#x}")
        });
    }
    m.put("snapshot.encode_us", median(&enc) * 1e6, "us");
    m.put("snapshot.decode_us", median(&dec) * 1e6, "us");
    m.put("snapshot.bytes_per_session", median(&bytes), "B");
}

/// Wire codec timings over the workload's own frames and replies.
fn wire_codec(w: &Workload, plan: &Plan, releases: &Releases, m: &mut Metrics, tally: &mut Tally) {
    let n = w.ladder_frames.min(256);
    let frames = &sequence(w, plan, 0)[..n];
    let cmds: Vec<Command> = frames.iter().map(|f| w.command(f.sid, &f.points)).collect();
    let mut flat = releases[0].chunks_exact(w.dim);
    let replies: Vec<Reply> = frames
        .iter()
        .map(|f| Reply::Releases {
            session_id: f.sid,
            thetas: flat.by_ref().take(f.points.len()).map(<[f64]>::to_vec).collect(),
        })
        .collect();
    let reply_bytes: Vec<Vec<u8>> =
        replies.iter().map(|r| wire::encode_reply(r).expect("reply encodes")).collect();
    let mut buf = Vec::new();
    let per = |s: f64| s * 1e9 / n as f64;
    let enc = time_per_call(9, 1, || {
        for c in &cmds {
            buf.clear();
            wire::encode_command_into(&mut buf, c).expect("command encodes");
        }
    });
    let dec = time_per_call(9, 1, || {
        for f in frames {
            black_box(wire::decode_command(&f.bytes).expect("command decodes"));
        }
    });
    let renc = time_per_call(9, 1, || {
        for r in &replies {
            buf.clear();
            wire::encode_reply_into(&mut buf, r).expect("reply encodes");
        }
    });
    let rdec = time_per_call(9, 1, || {
        for b in &reply_bytes {
            black_box(wire::decode_reply(b).expect("reply decodes"));
        }
    });
    let points: usize = frames.iter().map(|f| f.points.len()).sum();
    let req: usize = frames.iter().map(|f| f.bytes.len()).sum();
    let rep: usize = reply_bytes.iter().map(Vec::len).sum();
    let round_trip = frames.iter().zip(&replies).all(|(f, r)| {
        wire::decode_reply(&wire::encode_reply(r).unwrap_or_default()).ok().as_ref() == Some(r)
            && !f.bytes.is_empty()
    });
    tally.check(round_trip, || "wire reply round trip".to_string());
    m.put("wire.command_encode_ns", per(enc), "ns");
    m.put("wire.command_decode_ns", per(dec), "ns");
    m.put("wire.reply_encode_ns", per(renc), "ns");
    m.put("wire.reply_decode_ns", per(rdec), "ns");
    m.put("wire.request_bytes_per_point", req as f64 / points as f64, "B");
    m.put("wire.reply_bytes_per_point", rep as f64 / points as f64, "B");
}

/// The traced run: an untraced serving run for the reference
/// `cpu_us_per_point`, the ladder, and the component timings.
pub fn run(
    w: &Workload,
    plan: &Plan,
    seconds: f64,
    base: &Path,
) -> Result<(Tally, Metrics), String> {
    let host0 = HostSample::now();
    // The untraced reference runs half as long as an untraced run, with
    // one set-up and one recovery: it only supplies `cpu_us_per_point`
    // and the spill counters.
    let untraced = serving::run(w, plan, seconds / 2.0, (1, 1), &base.join("serving"))?;
    let mut tally = Tally::default();
    let points = ladder_points(w, plan) as f64;
    let us = |cpu_s: f64| 1e6 * cpu_s / points;

    let (session, sessions) = rung_session(w, plan, &mut tally)?;
    let (plain, ingress) = rung_handle(w, plan, &base.join("plain"), false, false, &mut tally)?;
    let (logged, wal_trace) = rung_handle(w, plan, &base.join("wal"), true, false, &mut tally)?;
    let spill = if w.has_spill() {
        Some(rung_handle(w, plan, &base.join("spill"), true, true, &mut tally)?)
    } else {
        None
    };
    let (loop_plain, _, _) = rung_loopback(w, plan, &base.join("loop"), false, &mut tally)?;
    let (loop_traced, tcp, spans) = rung_loopback(w, plan, &base.join("loopt"), true, &mut tally)?;

    let below_tcp = spill.as_ref().map_or(&logged, |(r, _)| r);
    for (name, rung) in [
        ("session", &session),
        ("in-process handle", &plain),
        ("handle with WAL", &logged),
        ("handle with WAL and spill", below_tcp),
        ("untraced loopback", &loop_plain),
    ] {
        tally.check(bit_equal(&rung.releases, &loop_traced.releases), || {
            format!("{name} rung releases differ from the loopback rung")
        });
    }
    let mut m = Metrics::default();
    let host = procstat::host_shares(&host0, &HostSample::now());
    m.put("host.steal_pct", host.steal_pct, "%");
    m.put("host.other_cpu_pct", host.other_cpu_pct, "%");

    let s1 = us(session.cpu_s);
    let s2 = us(plain.cpu_s);
    let s3 = us(logged.cpu_s);
    let s3s = us(below_tcp.cpu_s);
    let s4 = us(loop_traced.cpu_s);
    let untraced_cpu = untraced.cpu_us_per_point();
    m.put("session.cpu_us_per_point", s1, "us");
    m.put("ingress.self_cpu_us_per_point", s2 - s1, "us");
    m.put("wal.self_cpu_us_per_point", s3 - s2, "us");
    m.put("ingress.spill_self_cpu_us_per_point", s3s - s3, "us");
    m.put("tcp.self_cpu_us_per_point", s4 - s3s, "us");
    m.put("ladder.sum_cpu_us_per_point", s4, "us");
    m.put("ladder.untraced_cpu_us_per_point", untraced_cpu, "us");
    m.put("ladder.sum_vs_untraced_pct", 100.0 * (s4 / untraced_cpu - 1.0), "%");

    components(w, plan.engine_seed, &mut m);

    m.put("ingress.submit_ns_p50", median(&ingress.submit_ns), "ns");
    m.put("ingress.reply_wait_ms_p50", median(&ingress.reply_wait_ms), "ms");
    m.put("ingress.queue_depth_max", ingress.queue_depth_max as f64, "points");
    m.put(
        "ingress.backpressure_per_submit",
        ingress.backpressure as f64 / ingress.submits.max(1) as f64,
        "ratio",
    );

    m.put("wal.checkpoint_ms", median(&wal_trace.checkpoint_ms), "ms");
    m.put("wal.decode_us_per_record", wal_trace.decode_us_per_record, "us");
    m.put("wal.failures", wal_trace.wal_failures as f64, "count");

    snapshots(plan, &sessions, &mut m, &mut tally);
    let frames = untraced.frames_sent().max(1);
    m.put("ingress.spill_hit_ratio", 1.0 - untraced.spill.restores as f64 / frames as f64, "ratio");
    let spill_failures =
        untraced.spill.spill_failures + spill.as_ref().map_or(0, |(_, t)| t.spill.spill_failures);
    m.put("ingress.spill_failures", spill_failures as f64, "count");

    wire_codec(w, plan, &session.releases, &mut m, &mut tally);
    m.put("tcp.commands", tcp.commands as f64, "count");
    m.put("tcp.replies", tcp.replies as f64, "count");
    m.put("tcp.protocol_errors", tcp.protocol_errors as f64, "count");

    let per_point = |r: &Rung| r.wall_s / points;
    m.put(
        "trace.overhead_pct",
        100.0 * (per_point(&loop_traced) / per_point(&loop_plain) - 1.0),
        "%",
    );

    eprintln!(
        "loopbench {} traced: rung cpu us/point: session {s1:.3}, handle {s2:.3}, +wal {s3:.3}, \
         +spill {s3s:.3}, loopback {s4:.3} (untraced repeat {:.3}, timed phase {untraced_cpu:.3}); \
         client spans p50: write {:.0} ns, reply read {:.0} ns",
        w.name,
        us(loop_plain.cpu_s),
        median(&spans.write_ns),
        median(&spans.read_ns),
    );
    let mut total = untraced.tally;
    total.merge(tally);
    Ok((total, m))
}
