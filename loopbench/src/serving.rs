//! The untraced end-to-end run: set-up (repeated), the timed closed
//! loop, a checkpoint, the replayed tail, recovery and the accuracy
//! check.

use crate::loopback::{timed_pump, Client, Stack, Timed};
use crate::procstat::{self, HostSample, HostShares};
use crate::report::{median, quantile, Tally};
use crate::workload::{ConnPlan, Frame, Plan, Workload, SHARDS};
use pir_engine::{wal, Command, EngineConfig, Reply, ShardedEngine, SpillStats, TcpStats};
use pir_erm::{solve_exact, DataPoint, SquaredLoss};
use pir_geometry::ConvexSet;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// One slice of the timed phase, as the main thread sampled it.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Start and end, in seconds since the phase started.
    pub start_s: f64,
    pub end_s: f64,
    /// Points acknowledged to the clients in the slice.
    pub points: u64,
    /// Process CPU in the slice minus the client threads' own.
    pub engine_cpu_s: f64,
    /// Share of host CPU time the hypervisor stole in the slice.
    pub steal_pct: f64,
}

/// A slice counts as clean when the hypervisor stole at most this share
/// of host CPU time in it (one `/proc/stat` tick in a half-second slice
/// on two CPUs is 1%).
const CLEAN_STEAL_PCT: f64 = 2.0;

/// Everything the untraced run measured.
#[derive(Debug, Default)]
pub struct Serving {
    pub setup_s: Vec<f64>,
    pub timed: Vec<Timed>,
    /// The timed phase cut into half-second slices; see
    /// [`Serving::measured`].
    pub slices: Vec<Slice>,
    pub rss_added_bytes: f64,
    pub log_bytes: u64,
    pub recover_s: Vec<f64>,
    pub excess_risk: f64,
    pub tcp: TcpStats,
    /// Spill-tier counters over the timed phase.
    pub spill: SpillStats,
    pub host: HostShares,
    pub tally: Tally,
}

impl Serving {
    pub fn points_sent(&self) -> u64 {
        self.timed.iter().map(|t| t.points_sent).sum()
    }

    pub fn frames_sent(&self) -> u64 {
        self.timed.iter().map(|t| t.frames_sent).sum()
    }

    pub fn samples(&self) -> usize {
        self.timed.iter().map(|t| t.samples.len()).sum()
    }

    pub fn clean_slices(&self) -> Vec<Slice> {
        self.slices.iter().copied().filter(|s| s.steal_pct <= CLEAN_STEAL_PCT).collect()
    }

    /// The slices the rate and latency metrics are taken over: the clean
    /// ones, or, when fewer than a quarter are clean, the quarter with
    /// the least steal. Time the hypervisor takes from the process is not
    /// the program's cost, and steal on a shared host comes and goes over
    /// seconds.
    pub fn measured(&self) -> Vec<Slice> {
        let steal: Vec<f64> = self.slices.iter().map(|s| s.steal_pct).collect();
        let limit = quantile(&steal, 0.25).max(CLEAN_STEAL_PCT);
        self.slices.iter().copied().filter(|s| s.steal_pct <= limit).collect()
    }

    /// Median over the measured slices of acknowledged points per second.
    pub fn throughput_pps(&self) -> f64 {
        let v: Vec<f64> =
            self.measured().iter().map(|s| s.points as f64 / (s.end_s - s.start_s)).collect();
        median(&v)
    }

    /// Median over the measured slices of engine CPU per acknowledged
    /// point.
    pub fn cpu_us_per_point(&self) -> f64 {
        let v: Vec<f64> =
            self.measured().iter().map(|s| 1e6 * s.engine_cpu_s / s.points.max(1) as f64).collect();
        median(&v)
    }

    /// Latency quantile `q` over the frames answered in the measured
    /// slices: in completion order they are cut into groups of at least
    /// 1000 (at most forty groups), and the result is the median over
    /// groups of each group's quantile.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let slices = self.measured();
        let mut all: Vec<(f64, f64)> = self
            .timed
            .iter()
            .flat_map(|t| t.samples.iter().copied())
            .filter(|(done, _)| slices.iter().any(|s| s.start_s <= *done && *done < s.end_s))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        let groups = (all.len() / 1000).clamp(1, 40);
        let per = all.len().div_ceil(groups).max(1);
        let v: Vec<f64> = all
            .chunks(per)
            .map(|c| quantile(&c.iter().map(|s| s.1).collect::<Vec<_>>(), q))
            .collect();
        median(&v)
    }
}

/// Run `op` on the connection unless an earlier step killed it; an error
/// is a failure and closes the connection for the rest of the run.
fn guard<T>(
    client: &mut Option<Client>,
    tally: &mut Tally,
    op: impl FnOnce(&mut Client, &mut Tally) -> Result<T, String>,
) -> Option<T> {
    let c = client.as_mut()?;
    match op(c, tally) {
        Ok(v) => Some(v),
        Err(e) => {
            tally.fail(e);
            *client = None;
            None
        }
    }
}

#[derive(Default)]
struct ClientOut {
    tally: Tally,
    timed: Option<Timed>,
    eval: Vec<f64>,
    tail: Vec<f64>,
    frames_sent: u64,
}

/// What the client threads share with the main thread.
struct Shared {
    barrier: Barrier,
    /// Kernel ids of the client threads, so the main thread can read
    /// their CPU time.
    tids: Mutex<Vec<u32>>,
    /// Points acknowledged in the timed phase so far.
    acked: AtomicU64,
}

/// One connection of the untraced run. Every barrier is met even after
/// a failure, so the other threads never hang.
fn client(
    w: &Workload,
    set: &dyn ConvexSet,
    conn: &ConnPlan,
    addr: SocketAddr,
    shared: &Shared,
    full: bool,
    seconds: f64,
) -> ClientOut {
    let mut out = ClientOut::default();
    let tally = &mut out.tally;
    if let (Some(tid), Ok(mut tids)) = (procstat::thread_id(), shared.tids.lock()) {
        tids.push(tid);
    }
    let mut client = match Client::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            tally.fail(e);
            None
        }
    };
    guard(&mut client, tally, |c, t| c.open_all(conn, t));
    guard(&mut client, tally, |c, t| c.observe_all(w, set, &conn.warmup, w.window, None, t));
    shared.barrier.wait(); // set-up done
    if full {
        let window = w.window.max(8);
        out.eval = guard(&mut client, tally, |c, t| {
            c.observe_all(w, set, &conn.eval_stream, window, None, t)
        })
        .unwrap_or_default();
        shared.barrier.wait(); // evaluation streams answered
        shared.barrier.wait(); // go
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        out.timed = guard(&mut client, tally, |c, t| {
            timed_pump(c, w, set, &conn.pool, start, deadline, &shared.acked, t)
        });
        shared.barrier.wait(); // timed phase drained
        shared.barrier.wait(); // checkpoint taken
        out.tail =
            guard(&mut client, tally, |c, t| c.observe_all(w, set, &conn.tail, w.window, None, t))
                .unwrap_or_default();
    }
    if let Some(c) = client.take() {
        match c.close(tally) {
            Ok(sent) => out.frames_sent = sent,
            Err(e) => tally.fail(e),
        }
    }
    out
}

/// Sample the timed phase in half-second slices until `seconds` have
/// passed since `start`.
fn sample_slices(shared: &Shared, start: Instant, seconds: f64) -> Vec<Slice> {
    let tids = shared.tids.lock().map(|t| t.clone()).unwrap_or_default();
    let sample = || {
        let cpu =
            procstat::process_cpu_s() - tids.iter().map(|&t| procstat::task_cpu_s(t)).sum::<f64>();
        (cpu, shared.acked.load(Ordering::Relaxed), HostSample::now(), Instant::now())
    };
    let n = ((2.0 * seconds).floor() as usize).max(1);
    let len = seconds / n as f64;
    let mut slices = Vec::with_capacity(n);
    let mut prev = sample();
    for k in 1..=n {
        let end = start + Duration::from_secs_f64(len * k as f64);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let now = sample();
        slices.push(Slice {
            start_s: (prev.3 - start).as_secs_f64(),
            end_s: (now.3 - start).as_secs_f64(),
            points: now.1 - prev.1,
            engine_cpu_s: now.0 - prev.0,
            steal_pct: procstat::host_shares(&prev.2, &now.2).steal_pct,
        });
        prev = now;
    }
    slices
}

/// Set up the stack, run the timed phase on it, checkpoint, send the
/// tail, then recover the log `recover_reps` times and check the replay.
/// Then set up `setup_reps - 1` more stacks and tear each down again, so
/// `setup_s` is a median. They come last so that `rss_mb` and
/// `recover_s` see an allocator no earlier set-up has touched.
pub fn run(
    w: &Workload,
    plan: &Plan,
    seconds: f64,
    reps: (usize, usize),
    base: &Path,
) -> Result<Serving, String> {
    let (setup_reps, recover_reps) = reps;
    let set = w.set();
    let set = set.as_ref();
    let mut s = Serving::default();
    let rss0 = procstat::rss_bytes();
    for rep in 0..setup_reps {
        let full = rep == 0;
        let dir = base.join(format!("rep{rep}"));
        let t0 = Instant::now();
        let stack = Stack::start(w, plan, &dir)?;
        let shared = Shared {
            barrier: Barrier::new(SHARDS + 1),
            tids: Mutex::new(Vec::new()),
            acked: AtomicU64::new(0),
        };
        let addr = stack.addr();
        let outs: Vec<ClientOut> = std::thread::scope(|scope| {
            let threads: Vec<_> = plan
                .conns
                .iter()
                .map(|conn| {
                    let shared = &shared;
                    scope.spawn(move || client(w, set, conn, addr, shared, full, seconds))
                })
                .collect();
            shared.barrier.wait();
            s.setup_s.push(t0.elapsed().as_secs_f64());
            if full {
                shared.barrier.wait(); // evaluation streams answered
                let wal0 = crate::loopback::wal_bytes(&dir);
                let spill0 = stack.handle.spill_stats();
                let host0 = HostSample::now();
                shared.barrier.wait(); // go
                s.slices = sample_slices(&shared, Instant::now(), seconds);
                shared.barrier.wait(); // drained
                s.host = procstat::host_shares(&host0, &HostSample::now());
                s.rss_added_bytes = procstat::rss_bytes() as f64 - rss0 as f64;
                s.log_bytes = crate::loopback::wal_bytes(&dir) - wal0;
                let spill1 = stack.handle.spill_stats();
                s.spill = SpillStats {
                    spills: spill1.spills - spill0.spills,
                    restores: spill1.restores - spill0.restores,
                    ..spill1
                };
                let ws = stack.handle.wal_stats();
                s.tally.check(ws == Default::default(), || format!("WAL counters {ws:?}"));
                s.tally.check(s.spill.spill_failures == 0 && s.spill.remove_failures == 0, || {
                    format!("spill counters {:?}", s.spill)
                });
                let ckpt = stack.handle.checkpoint();
                s.tally.check(ckpt.is_ok(), || format!("checkpoint: {ckpt:?}"));
                shared.barrier.wait(); // checkpoint taken
            }
            threads
                .into_iter()
                .map(|t| {
                    t.join().unwrap_or_else(|_| ClientOut {
                        tally: Tally::failed("client thread panicked"),
                        ..ClientOut::default()
                    })
                })
                .collect()
        });
        let Stack { handle, front } = stack;
        let tcp = front.shutdown();
        handle.close();
        let frames: u64 = outs.iter().map(|o| o.frames_sent).sum();
        s.tally.check(
            tcp.commands == frames && tcp.replies == frames && tcp.protocol_errors == 0,
            || format!("tcp stats {tcp:?} against {frames} frames sent"),
        );
        if full {
            s.tcp = tcp;
            let by_session = |pick: fn(&ClientOut) -> &Vec<f64>,
                              frames: fn(&ConnPlan) -> &Vec<Frame>| {
                let mut map: HashMap<u64, Vec<Vec<f64>>> = HashMap::new();
                for (conn, out) in plan.conns.iter().zip(&outs) {
                    let mut releases = pick(out).chunks_exact(w.dim);
                    for frame in frames(conn) {
                        let entry = map.entry(frame.sid).or_default();
                        entry.extend(
                            releases.by_ref().take(frame.points.len()).map(<[f64]>::to_vec),
                        );
                    }
                }
                map
            };
            let served = by_session(|o| &o.tail, |c| &c.tail);
            recover(plan, &dir, recover_reps, &served, &mut s)?;
            let evaluated = by_session(|o| &o.eval, |c| &c.eval_stream);
            s.excess_risk = excess_risk(plan, set, &evaluated, w.exact_iters, &mut s.tally)?;
        }
        for out in outs {
            s.timed.extend(out.timed);
            s.tally.merge(out.tally);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    let samples = s.samples();
    s.tally.check(samples >= 1000, || format!("only {samples} latency samples"));
    Ok(s)
}

/// Recover the checkpoint plus tail into a fresh `ShardedEngine`, timing
/// each pass, and check the replayed releases bit for bit against the
/// served ones.
fn recover(
    plan: &Plan,
    dir: &Path,
    reps: usize,
    served: &HashMap<u64, Vec<Vec<f64>>>,
    s: &mut Serving,
) -> Result<(), String> {
    let tail_frames: usize = plan.conns.iter().map(|c| c.tail.len()).sum();
    let sessions: usize = plan.conns.iter().map(|c| c.sessions.len() + c.eval.len()).sum();
    for rep in 0..reps {
        let mut engine = ShardedEngine::new(EngineConfig {
            num_shards: SHARDS,
            seed: plan.engine_seed,
            parallel: false,
        })
        .map_err(|e| e.to_string())?;
        let mut replayed: HashMap<u64, Vec<Vec<f64>>> = HashMap::new();
        let t0 = Instant::now();
        let report =
            wal::recover_with(dir.join("wal"), &mut engine, |cmd: &Command, reply: &Reply| {
                if let (Some(sid), Reply::Releases { thetas, .. }) = (cmd.session_id(), reply) {
                    replayed.entry(sid).or_default().extend(thetas.iter().cloned());
                }
            });
        s.recover_s.push(t0.elapsed().as_secs_f64());
        s.tally.check(
            matches!(report, Ok(r) if r.failed == 0
                && r.commands == tail_frames as u64
                && r.snapshot_sessions == sessions),
            || format!("recovery report {report:?}, want {tail_frames} commands over {sessions} sessions"),
        );
        if rep == 0 {
            let same = replayed.len() == served.len()
                && served.iter().all(|(sid, a)| {
                    replayed.get(sid).is_some_and(|b| {
                        a.len() == b.len()
                            && a.iter().zip(b).all(|(x, y)| {
                                x.len() == y.len()
                                    && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
                            })
                    })
                });
            s.tally.check(same, || "replayed tail differs from the served releases".to_string());
        }
    }
    Ok(())
}

/// Mean over the evaluation sessions of `J(θ_T) − J(θ̂)`, with
/// `J(θ) = (1/n) Σ (y − ⟨x, θ⟩)²` over the session's stream and `θ̂`
/// the exact constrained minimizer.
fn excess_risk(
    plan: &Plan,
    set: &dyn ConvexSet,
    served: &HashMap<u64, Vec<Vec<f64>>>,
    iters: usize,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut total = 0.0;
    let mut n = 0usize;
    for conn in &plan.conns {
        for &sid in &conn.eval {
            let data: Vec<DataPoint> = conn
                .eval_stream
                .iter()
                .filter(|f| f.sid == sid)
                .flat_map(|f| f.points.iter().cloned())
                .collect();
            let Some(theta) = served.get(&sid).and_then(|v| v.last()) else {
                tally.fail(format!("no release for evaluation session {sid:#x}"));
                continue;
            };
            let hat = solve_exact(&SquaredLoss, &data, set, iters).map_err(|e| e.to_string())?;
            let j = |th: &[f64]| {
                data.iter()
                    .map(|z| {
                        let r = z.y - z.x.iter().zip(th).map(|(a, b)| a * b).sum::<f64>();
                        r * r
                    })
                    .sum::<f64>()
                    / data.len() as f64
            };
            total += j(theta) - j(&hat);
            n += 1;
        }
    }
    Ok(total / n.max(1) as f64)
}
