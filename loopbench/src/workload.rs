//! The three workloads and the inputs each one generates from its seed.

use pir_core::{PrivIncReg1Config, PrivIncReg2Config};
use pir_datagen::{linear_stream, sparse_theta, CovariateKind, LinearModel};
use pir_dp::{NoiseRng, PrivacyParams};
use pir_engine::{wire, Command, EngineConfig, MechanismSpec, SetSpec, ShardedEngine};
use pir_erm::DataPoint;
use pir_geometry::ConvexSet;

/// Shards in every engine, and client connections (one per shard, each
/// driven by one thread): the host the benchmark was sized on has two
/// CPUs.
pub const SHARDS: usize = 2;

/// Per-shard queue depth, in points: the production default.
pub const QUEUE_DEPTH: usize = 1024;

/// Per-session privacy budget.
pub fn privacy() -> PrivacyParams {
    PrivacyParams::approx(1.0, 1e-6).expect("valid privacy parameters")
}

/// One workload: the mechanism, the load shape, and how much fixed work
/// set-up, the recovery tail and the traced ladder each do.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub spec: MechanismSpec,
    pub dim: usize,
    /// Stream horizon every session is opened with.
    pub t_max: usize,
    /// Timed-traffic sessions owned by each connection.
    pub sessions_per_conn: usize,
    /// Points per frame: 1 sends `OBSERVE`, more sends `OBSERVE_BATCH`.
    pub batch: usize,
    /// Frames each connection keeps in flight.
    pub window: usize,
    /// Zipf exponent of session popularity (`None`: round robin).
    pub zipf: Option<f64>,
    /// Spill-tier resident cap per shard (`None`: no spill tier).
    pub resident_cap: Option<usize>,
    pub covariates: CovariateKind,
    /// Label model `y = ⟨x, θ*⟩ + w`: support size and `‖θ*‖₂`.
    pub theta_support: usize,
    pub theta_norm: f64,
    /// Frames per connection sent during set-up, after the opens.
    pub warmup_frames: usize,
    /// Distinct frames per connection; the timed phase cycles them.
    pub pool_frames: usize,
    /// Frames per connection each ladder rung replays.
    pub ladder_frames: usize,
    /// Evaluation sessions per connection. They take no timed traffic,
    /// so their streams are fixed: `eval_points` each after set-up (the
    /// accuracy check), and `tail_points` each after the checkpoint (the
    /// replayed tail `recover_s` times).
    pub eval_per_conn: usize,
    pub eval_points: usize,
    pub tail_points: usize,
    /// Iterations `solve_exact` gets for the reference minimizer `θ̂`.
    pub exact_iters: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Recoveries per run; `recover_s` is their median.
    pub recover_reps: usize,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let fleet = Workload {
            name: "fleet_reg1_d8",
            spec: MechanismSpec::Reg1 {
                set: SetSpec::unit_l2(8),
                config: PrivIncReg1Config::default(),
            },
            dim: 8,
            t_max: 1 << 22,
            sessions_per_conn: 512,
            batch: 1,
            window: 128,
            zipf: None,
            resident_cap: None,
            covariates: CovariateKind::DenseSphere { radius: 0.9 },
            theta_support: 8,
            theta_norm: 0.5,
            warmup_frames: 16_384,
            pool_frames: 65_536,
            ladder_frames: 131_072,
            eval_per_conn: 32,
            eval_points: 1024,
            tail_points: 1024,
            exact_iters: 400,
            setup_reps: 5,
            recover_reps: 7,
        };
        match name {
            "fleet_reg1_d8" => Some(fleet),
            "spill_zipf_reg1_d8" => Some(Workload {
                name: "spill_zipf_reg1_d8",
                sessions_per_conn: 2048,
                batch: 16,
                window: 16,
                zipf: Some(1.0),
                resident_cap: Some(256),
                warmup_frames: 2048,
                pool_frames: 8192,
                ladder_frames: 8192,
                setup_reps: 3,
                recover_reps: 5,
                ..fleet
            }),
            "sketch_reg2_d1000" => Some(Workload {
                name: "sketch_reg2_d1000",
                spec: MechanismSpec::Reg2 {
                    set: SetSpec::unit_l1(1000),
                    domain_width: 8.0,
                    config: PrivIncReg2Config {
                        m_override: Some(100),
                        lift_iters: 80,
                        ..Default::default()
                    },
                },
                dim: 1000,
                t_max: 1 << 16,
                sessions_per_conn: 4,
                batch: 1,
                window: 1,
                zipf: None,
                resident_cap: None,
                covariates: CovariateKind::Sparse { k: 3 },
                theta_support: 3,
                theta_norm: 0.5,
                warmup_frames: 32,
                pool_frames: 512,
                ladder_frames: 128,
                eval_per_conn: 12,
                eval_points: 32,
                tail_points: 4,
                exact_iters: 2000,
                setup_reps: 5,
                recover_reps: 5,
            }),
            _ => None,
        }
    }

    pub fn has_spill(&self) -> bool {
        self.resident_cap.is_some()
    }

    /// The wire command carrying `points` for `sid`.
    pub fn command(&self, sid: u64, points: &[DataPoint]) -> Command {
        if self.batch == 1 && points.len() == 1 {
            Command::Observe { session_id: sid, point: points[0].clone() }
        } else {
            Command::ObserveBatch { session_id: sid, points: points.to_vec() }
        }
    }

    /// The constraint set `C` every release must lie in.
    pub fn set(&self) -> Box<dyn ConvexSet> {
        match &self.spec {
            MechanismSpec::Reg1 { set, .. } | MechanismSpec::Reg2 { set, .. } => set.build(),
            other => SetSpec::unit_l2(other.dim()).build(),
        }
    }

    pub fn open_command(&self, sid: u64) -> Command {
        Command::Open {
            session_id: sid,
            spec: self.spec.clone(),
            t_max: self.t_max,
            params: privacy(),
        }
    }
}

/// One pre-encoded frame and the points it carries.
#[derive(Debug, Clone)]
pub struct Frame {
    pub sid: u64,
    pub points: Vec<DataPoint>,
    pub bytes: Vec<u8>,
}

/// Everything one connection sends.
#[derive(Debug, Default)]
pub struct ConnPlan {
    /// Timed-traffic sessions, then evaluation sessions, as opened.
    pub sessions: Vec<u64>,
    pub eval: Vec<u64>,
    pub opens: Vec<Frame>,
    pub warmup: Vec<Frame>,
    pub pool: Vec<Frame>,
    pub eval_stream: Vec<Frame>,
    pub tail: Vec<Frame>,
}

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Plan {
    pub engine_seed: u64,
    pub conns: Vec<ConnPlan>,
}

fn encode(cmd: &Command) -> Vec<u8> {
    wire::encode_command(cmd).expect("benchmark commands are encodable")
}

fn frame(w: &Workload, sid: u64, points: Vec<DataPoint>) -> Frame {
    let bytes = encode(&w.command(sid, &points));
    Frame { sid, points, bytes }
}

/// Session ids split by the shard the engine routes them to, found by
/// asking a probe engine where each one lands (the routing hash is
/// internal). Connection `c` owns only shard-`c` sessions, so each shard
/// takes exactly one connection's load whatever the seed.
fn ids_by_shard(per_shard: usize) -> Vec<Vec<u64>> {
    let mut probe =
        ShardedEngine::new(EngineConfig { num_shards: SHARDS, seed: 0, parallel: false })
            .expect("probe engine");
    let spec = MechanismSpec::Trivial { set: SetSpec::unit_l2(1) };
    let mut out: Vec<Vec<u64>> = (0..SHARDS).map(|_| Vec::with_capacity(per_shard)).collect();
    let mut loads = probe.shard_loads();
    let mut sid = 1u64;
    while out.iter().any(|v| v.len() < per_shard) {
        probe.spawn_session(sid, &spec, 1, &privacy()).expect("probe session");
        let now = probe.shard_loads();
        let shard = (0..SHARDS).find(|&s| now[s] > loads[s]).expect("probe routed the session");
        if out[shard].len() < per_shard {
            out[shard].push(sid);
        }
        loads = now;
        sid += 1;
    }
    out
}

/// Generate every input of a run from `seed`, with `pir-datagen`.
pub fn plan(w: &Workload, seed: u64) -> Plan {
    // The label model is part of the workload, not of the seed: a new θ*
    // per seed would move `excess_risk` between seeds by more than the
    // data and the noise do.
    let model = LinearModel {
        theta_star: sparse_theta(
            w.dim,
            w.theta_support,
            w.theta_norm,
            &mut NoiseRng::seed_from_u64(0x7468_6574_6173),
        ),
        noise_std: 0.1,
    };
    let mut rng = NoiseRng::seed_from_u64(seed ^ 0x6c6f_6f70_6265_6e63);
    let engine_seed = rng.fork().state()[0];
    let ids = ids_by_shard(w.sessions_per_conn + w.eval_per_conn);
    let mut conns = Vec::with_capacity(SHARDS);
    for shard_ids in ids {
        let mut rng = rng.fork();
        let (sessions, eval) = shard_ids.split_at(w.sessions_per_conn);
        let opens = sessions
            .iter()
            .chain(eval)
            .map(|&sid| Frame { sid, points: Vec::new(), bytes: encode(&w.open_command(sid)) })
            .collect();
        let mut order = SessionOrder::new(w, sessions, &mut rng);
        let mut frames = |n: usize, rng: &mut NoiseRng| -> Vec<Frame> {
            let pts = linear_stream(n * w.batch, w.dim, w.covariates, &model, rng);
            pts.chunks(w.batch).map(|c| frame(w, order.next(rng), c.to_vec())).collect()
        };
        let warmup = frames(w.warmup_frames, &mut rng);
        let pool = frames(w.pool_frames.max(w.ladder_frames), &mut rng);
        let eval_stream = interleaved(w, eval, w.eval_points, &model, &mut rng);
        let tail = interleaved(w, eval, w.tail_points, &model, &mut rng);
        conns.push(ConnPlan {
            sessions: sessions.to_vec(),
            eval: eval.to_vec(),
            opens,
            warmup,
            pool,
            eval_stream,
            tail,
        });
    }
    Plan { engine_seed, conns }
}

/// `points` fresh points for each of `sessions`, interleaved frame by
/// frame.
fn interleaved(
    w: &Workload,
    sessions: &[u64],
    points: usize,
    model: &LinearModel,
    rng: &mut NoiseRng,
) -> Vec<Frame> {
    let streams: Vec<Vec<DataPoint>> =
        sessions.iter().map(|_| linear_stream(points, w.dim, w.covariates, model, rng)).collect();
    let mut frames = Vec::new();
    for k in (0..points).step_by(w.batch) {
        for (sid, stream) in sessions.iter().zip(&streams) {
            frames.push(frame(w, *sid, stream[k..(k + w.batch).min(points)].to_vec()));
        }
    }
    frames
}

/// Which session the next frame of a connection goes to: round robin over
/// a seeded permutation, or Zipf-distributed popularity.
struct SessionOrder {
    sessions: Vec<u64>,
    cdf: Option<Vec<f64>>,
    next: usize,
}

impl SessionOrder {
    fn new(w: &Workload, sessions: &[u64], rng: &mut NoiseRng) -> Self {
        let sessions: Vec<u64> =
            rng.permutation(sessions.len()).into_iter().map(|i| sessions[i]).collect();
        let cdf = w.zipf.map(|s| {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (0..sessions.len())
                .map(|r| {
                    acc += 1.0 / ((r + 1) as f64).powf(s);
                    acc
                })
                .collect();
            for c in &mut cdf {
                *c /= acc;
            }
            cdf
        });
        SessionOrder { sessions, cdf, next: 0 }
    }

    fn next(&mut self, rng: &mut NoiseRng) -> u64 {
        let i = match &self.cdf {
            Some(cdf) => {
                let u = rng.uniform_open();
                cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
            }
            None => {
                self.next += 1;
                (self.next - 1) % self.sessions.len()
            }
        };
        self.sessions[i]
    }
}
