//! Pipelined ingestion in front of the sharded engine.
//!
//! [`ShardedEngine`](crate::ShardedEngine) is a synchronous object: every
//! call blocks the caller until the mechanisms have finished their
//! per-point compute, so one slow tenant stalls whoever is feeding the
//! fleet. This module puts a queue between the caller and the compute:
//!
//! - an [`EngineHandle`] owns one worker thread per shard, each with a
//!   **bounded** command queue (depth measured in *points*, not
//!   commands) and each driving the same per-shard state machine
//!   (`Shard`, in `shard.rs`) as the synchronous engine and WAL replay;
//! - a [`SubmitHandle`] — `Clone + Send + Sync`, handed out by
//!   [`EngineHandle::submit_handle`] — is the cheap, shareable front
//!   door: any number of threads (one per TCP connection, say) can
//!   [`submit`](SubmitHandle::submit) [`Command`]s concurrently with no
//!   external lock, each getting back a [`Ticket`] immediately, without
//!   waiting for mechanism compute;
//! - a full queue rejects the command **atomically** with
//!   [`EngineError::Backpressure`] (transient — retry after the shard
//!   drains) or [`EngineError::CommandTooLarge`] (permanent — the
//!   command can *never* fit; split it): nothing is enqueued, no prefix
//!   of a batch is applied, and the caller decides whether to retry,
//!   shed, or spill;
//! - [`flush`](SubmitHandle::flush) is a fleet-wide barrier (every
//!   command enqueued before it has been fully processed when it
//!   returns), and [`close`](EngineHandle::close) drains and joins the
//!   fleet. [`Command::Close`] is *not* a fleet barrier: it is a
//!   connection-scoped goodbye (see [`Command::Close`]);
//! - an optional **spill tier** ([`EngineHandle::with_spill`]) bounds
//!   resident memory: each shard keeps an LRU over its idle sessions,
//!   spills the coldest to disk as `PIRS` snapshots once the shard
//!   exceeds [`SpillOptions::resident_cap`], and restores them
//!   transparently — in command order — on their next command;
//! - on a write-ahead-logged engine, [`EngineHandle::checkpoint`]
//!   compacts the log **under live traffic**: every shard snapshots its
//!   sessions and cuts its log chain at a job boundary, the cuts merge
//!   into one `PIRC` manifest, and covered segment files are deleted, so
//!   recovery replays only the post-checkpoint tail.
//!
//! Determinism survives the pipeline — and survives concurrent
//! submitters, provided they drive **disjoint sessions**: commands for
//! one session always route to the same shard queue (FIFO), so a
//! session's points are consumed in submission order, and its noise
//! stream still derives from `(engine seed, session id)` alone. The
//! release sequences are therefore bit-for-bit identical to driving
//! [`ShardedEngine`](crate::ShardedEngine) directly — under any shard
//! count and any thread interleaving of other sessions' traffic — which
//! is property-tested in `tests/ingress.rs` and, over real sockets, in
//! `tests/tcp.rs`. (Two threads feeding the *same* session race for
//! queue positions; the engine stays coherent, but which interleaving
//! they get is scheduling-dependent — give concurrent feeders disjoint
//! sessions.)
//!
//! # Examples
//!
//! ```
//! use pir_engine::{Command, EngineHandle, IngressConfig, MechanismSpec, Reply};
//! use pir_dp::PrivacyParams;
//! use pir_erm::DataPoint;
//!
//! let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
//! let handle = EngineHandle::new(IngressConfig {
//!     num_shards: 2,
//!     seed: 7,
//!     queue_depth: 64,
//! })
//! .unwrap();
//!
//! // Pipelined: open and observe are submitted back-to-back; per-shard
//! // FIFO ordering makes waiting for the open unnecessary.
//! let opened = handle.open(1, &MechanismSpec::reg1_l2(3), 16, &params).unwrap();
//! let release = handle.observe(1, DataPoint::new(vec![0.5, 0.1, 0.0], 0.3)).unwrap();
//! assert_eq!(opened.wait(), Reply::Opened { session_id: 1 });
//! let thetas = release.wait().into_releases().unwrap();
//! assert_eq!(thetas[0].len(), 3);
//! let stats = handle.close();
//! assert_eq!(stats.points, 1);
//! ```
//!
//! Many threads feeding one engine through cloned [`SubmitHandle`]s:
//!
//! ```
//! use pir_engine::{EngineHandle, IngressConfig, MechanismSpec};
//! use pir_dp::PrivacyParams;
//! use pir_erm::DataPoint;
//!
//! let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
//! let handle = EngineHandle::new(IngressConfig {
//!     num_shards: 2,
//!     seed: 7,
//!     queue_depth: 64,
//! })
//! .unwrap();
//! std::thread::scope(|s| {
//!     for sid in 0..4u64 {
//!         let submit = handle.submit_handle(); // Clone + Send + Sync
//!         s.spawn(move || {
//!             submit.open(sid, &MechanismSpec::reg1_l2(2), 8, &params).unwrap();
//!             let t = submit.observe(sid, DataPoint::new(vec![0.5, 0.0], 0.1)).unwrap();
//!             t.wait().into_releases().unwrap();
//!         });
//!     }
//! });
//! assert_eq!(handle.close().sessions, 4);
//! ```

use crate::engine::{entropy_seed, shard_of};
use crate::error::EngineError;
use crate::shard::{
    group_runs, is_spill_file, scatter, IndexedRelease, SessionRun, Shard, ShardCut, ShardWal,
    SpillTier,
};
use crate::spec::MechanismSpec;
use crate::storage::StorageHandle;
use crate::sync::lock_or_recover;
use crate::wal::{self, CheckpointPolicy, CheckpointReport, RecoveryReport, WalOptions, WalWriter};
use pir_dp::PrivacyParams;
use pir_erm::DataPoint;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for the pipelined ingestion layer.
#[derive(Debug, Clone, Copy)]
pub struct IngressConfig {
    /// Number of shards (= worker threads) sessions are hash-partitioned
    /// across. Defaults to the machine's available parallelism.
    pub num_shards: usize,
    /// Base seed; identical in meaning to
    /// [`EngineConfig::seed`](crate::EngineConfig::seed) — a session's
    /// noise stream derives from `(seed, session id)` alone, so releases
    /// are invariant under resharding. The same privacy warning applies:
    /// fix it for experiments only, the default draws from OS entropy.
    pub seed: u64,
    /// Per-shard queue depth, measured in **points** (an
    /// [`Command::ObserveBatch`] of `k` points costs `k`; every other
    /// command costs 1). A command that would push a queue past this
    /// depth is rejected whole with [`EngineError::Backpressure`]; a
    /// command whose cost exceeds the depth itself can never be accepted
    /// and is rejected with [`EngineError::CommandTooLarge`].
    pub queue_depth: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            num_shards: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            seed: entropy_seed(),
            queue_depth: 1024,
        }
    }
}

/// Configuration for the optional session **spill tier** (see
/// [`EngineHandle::with_spill`]): a per-shard LRU over idle sessions
/// that bounds resident memory by writing cold sessions to disk as
/// `PIRS` snapshots and transparently restoring them on their next
/// command.
#[derive(Debug, Clone)]
pub struct SpillOptions {
    /// Directory spilled sessions are written to (created if missing).
    /// The directory is an extension of *this process's* memory, not a
    /// durability layer: stale spill files from a previous process are
    /// deleted at startup (crash recovery is the write-ahead log's job)
    /// and spill writes are never fsynced.
    pub dir: PathBuf,
    /// Maximum sessions resident in memory **per shard** before the LRU
    /// starts spilling. Eviction is best-effort: sessions with
    /// queued-but-unexecuted commands, sessions whose mechanism cannot
    /// snapshot (`PRIVINCERM`, custom-set specs), and sessions whose
    /// spill write fails are all skipped, so a shard can transiently
    /// exceed the cap.
    pub resident_cap: usize,
    /// The storage backend spill files go through. Defaults to the real
    /// filesystem ([`crate::OsStorage`]); tests swap in a
    /// [`crate::SimDisk`] to script crashes and I/O faults.
    pub storage: StorageHandle,
}

impl SpillOptions {
    /// Spill into `dir` with the default per-shard resident cap (4096).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillOptions { dir: dir.into(), resident_cap: 4096, storage: StorageHandle::os() }
    }

    fn validate(&self) -> Result<(), EngineError> {
        if self.resident_cap == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "spill resident_cap must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Spill-tier counters, read through [`SubmitHandle::spill_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Sessions written to disk by LRU eviction (cumulative).
    pub spills: u64,
    /// Spilled sessions restored in-band for a later command (cumulative).
    pub restores: u64,
    /// Evictions abandoned because snapshotting or the disk write failed
    /// (cumulative). The victim stays resident; nothing is lost.
    pub spill_failures: u64,
    /// Spill-file removals that failed (cumulative): a consumed restore
    /// or an abandoned eviction left its file behind. Startup cleanup
    /// reclaims the space; a climbing counter means the spill volume is
    /// unhealthy.
    pub remove_failures: u64,
    /// Sessions currently resident in memory, summed across shards.
    pub resident: usize,
    /// Sessions currently spilled to disk, summed across shards.
    pub spilled: usize,
}

/// State shared between submitters and shard workers when the spill tier
/// is enabled: the counters behind [`SubmitHandle::spill_stats`] and the
/// per-shard pending-command maps that keep eviction away from sessions
/// with queued work.
#[derive(Debug)]
pub(crate) struct SpillShared {
    pub(crate) spills: AtomicU64,
    pub(crate) restores: AtomicU64,
    pub(crate) spill_failures: AtomicU64,
    pub(crate) remove_failures: AtomicU64,
    pub(crate) resident: AtomicUsize,
    pub(crate) spilled: AtomicUsize,
    /// Per-shard `session id → queued-command count`. Incremented by the
    /// submitter *before* the job is sent and decremented by the worker
    /// only *after* the job executes, so when a worker between jobs
    /// considers evicting a session, either the entry is visible (and
    /// the victim is skipped) or the command has not been enqueued yet —
    /// in which case its arrival restores the session in-band. This
    /// happens-before edge is what closes the stale-depth window where a
    /// session could be spilled between a command's enqueue and its
    /// execution.
    pending: Box<[Mutex<HashMap<u64, usize>>]>,
}

impl SpillShared {
    pub(crate) fn new(num_shards: usize) -> Self {
        SpillShared {
            spills: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            spill_failures: AtomicU64::new(0),
            remove_failures: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            spilled: AtomicUsize::new(0),
            pending: (0..num_shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    pub(crate) fn stats(&self) -> SpillStats {
        SpillStats {
            spills: self.spills.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            spill_failures: self.spill_failures.load(Ordering::Relaxed),
            remove_failures: self.remove_failures.load(Ordering::Relaxed),
            resident: self.resident.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
        }
    }

    /// Count one more queued command for each of `session_ids` on
    /// `shard`, under one lock.
    pub(crate) fn pending_add(
        &self,
        shard: usize,
        session_ids: impl IntoIterator<Item = u64>,
    ) -> Result<(), EngineError> {
        let mut map = lock_or_recover(shard_slot(&self.pending, shard)?);
        for sid in session_ids {
            *map.entry(sid).or_insert(0) += 1;
        }
        Ok(())
    }

    /// Count one queued command for `session_id` on `shard` as done. A
    /// shard with no pending map has nothing to count down.
    pub(crate) fn pending_sub(&self, shard: usize, session_id: u64) {
        let Ok(slot) = shard_slot(&self.pending, shard) else { return };
        let mut map = lock_or_recover(slot);
        if let Some(n) = map.get_mut(&session_id) {
            if *n <= 1 {
                map.remove(&session_id);
            } else {
                *n -= 1;
            }
        }
    }

    /// Whether `session_id` has queued commands on `shard` (and so must
    /// not be evicted). A shard with no pending map answers yes: the safe
    /// verdict keeps the session resident.
    pub(crate) fn has_pending(&self, shard: usize, session_id: u64) -> bool {
        shard_slot(&self.pending, shard)
            .map_or(true, |slot| lock_or_recover(slot).contains_key(&session_id))
    }
}

/// Write-ahead-log health counters, read through
/// [`SubmitHandle::wal_stats`]. All zeros on an engine built without a
/// WAL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Transient append/sync attempts retried under
    /// [`WalFailurePolicy::Retry`](crate::WalFailurePolicy::Retry) or
    /// [`WalFailurePolicy::DegradeToUnlogged`](crate::WalFailurePolicy::DegradeToUnlogged)
    /// (cumulative). A climbing count with zero degradations means the
    /// policy is absorbing a flaky disk.
    pub retries: u64,
    /// Shards that exhausted their retry envelope and dropped their log
    /// writer under `DegradeToUnlogged`. **Non-zero means part of the
    /// fleet is serving without durability** — page the operator.
    pub degraded_shards: u64,
    /// Commands executed without logging by degraded shards
    /// (cumulative). These commands will not replay after a crash.
    pub unlogged_commands: u64,
    /// Checkpoints triggered by a
    /// [`CheckpointPolicy`] that completed
    /// (cumulative).
    pub auto_checkpoints: u64,
    /// Auto-checkpoint attempts that failed (cumulative). The
    /// coordinator backs off exponentially and retries; a failed attempt
    /// never purges segments.
    pub auto_checkpoint_failures: u64,
}

/// State shared between the shard workers, the auto-checkpoint
/// coordinator, and submitters on a write-ahead-logged engine: the
/// counters behind [`SubmitHandle::wal_stats`], the fleet-wide log-tail
/// gauges, and the coordinator's doorbell.
#[derive(Debug)]
pub(crate) struct WalShared {
    pub(crate) retries: AtomicU64,
    pub(crate) degraded_shards: AtomicU64,
    pub(crate) unlogged_commands: AtomicU64,
    auto_checkpoints: AtomicU64,
    auto_checkpoint_failures: AtomicU64,
    /// Record bytes appended fleet-wide since the last auto checkpoint
    /// consumed the gauge.
    tail_bytes: AtomicU64,
    /// Commands logged fleet-wide since the last auto checkpoint
    /// consumed the gauge.
    tail_commands: AtomicU64,
    /// Auto-checkpoint trigger thresholds; `None` disables the
    /// coordinator (tail gauges still accumulate, harmlessly).
    policy: Option<CheckpointPolicy>,
    /// Coordinator doorbell: workers set `due` and notify when `policy`
    /// trips; [`EngineHandle::close`] (and drop) set `stop`.
    signal: (Mutex<CoordState>, Condvar),
}

/// The doorbell state the auto-checkpoint coordinator parks on.
#[derive(Debug, Default)]
struct CoordState {
    due: bool,
    stop: bool,
}

impl WalShared {
    fn new(policy: Option<CheckpointPolicy>) -> Self {
        WalShared {
            retries: AtomicU64::new(0),
            degraded_shards: AtomicU64::new(0),
            unlogged_commands: AtomicU64::new(0),
            auto_checkpoints: AtomicU64::new(0),
            auto_checkpoint_failures: AtomicU64::new(0),
            tail_bytes: AtomicU64::new(0),
            tail_commands: AtomicU64::new(0),
            policy,
            signal: (Mutex::new(CoordState::default()), Condvar::new()),
        }
    }

    fn stats(&self) -> WalStats {
        WalStats {
            retries: self.retries.load(Ordering::Relaxed),
            degraded_shards: self.degraded_shards.load(Ordering::Relaxed),
            unlogged_commands: self.unlogged_commands.load(Ordering::Relaxed),
            auto_checkpoints: self.auto_checkpoints.load(Ordering::Relaxed),
            auto_checkpoint_failures: self.auto_checkpoint_failures.load(Ordering::Relaxed),
        }
    }

    /// Worker-side: account freshly logged tail and ring the coordinator
    /// if the policy trips.
    pub(crate) fn note_appended(&self, bytes: u64, commands: u64) {
        let b = self.tail_bytes.fetch_add(bytes, Ordering::Relaxed).saturating_add(bytes);
        let c = self.tail_commands.fetch_add(commands, Ordering::Relaxed).saturating_add(commands);
        if self.policy.is_some_and(|p| p.due(b, c)) {
            self.ring(false);
        }
    }

    /// Ring the coordinator's doorbell: `stop = false` marks a
    /// checkpoint due, `stop = true` asks the coordinator to exit.
    fn ring(&self, stop: bool) {
        let (lock, cvar) = &self.signal;
        let mut state = lock_or_recover(lock);
        if stop {
            state.stop = true;
        } else {
            state.due = true;
        }
        drop(state);
        cvar.notify_all();
    }
}

/// A command accepted by the pipelined frontend — the unit of the wire
/// protocol (see [`wire`](crate::wire)) and of [`SubmitHandle::submit`].
#[derive(Debug, Clone)]
pub enum Command {
    /// Spawn a session (mechanism + privacy accountant) for streams of
    /// length up to `t_max` under the per-session budget `params`.
    Open {
        /// Session id (also the routing key).
        session_id: u64,
        /// Which paper mechanism to run, with all knobs.
        spec: MechanismSpec,
        /// Stream-length horizon `T`.
        t_max: usize,
        /// Per-session privacy budget `(ε, δ)`.
        params: PrivacyParams,
    },
    /// Feed one stream point; the reply carries the released estimator.
    Observe {
        /// Target session.
        session_id: u64,
        /// The arriving covariate–response pair.
        point: DataPoint,
    },
    /// Feed a run of consecutive points through the mechanism's amortized
    /// batch path; the reply carries one released estimator per point.
    /// Rejected atomically (by the mechanism *and* by the queue).
    ObserveBatch {
        /// Target session.
        session_id: u64,
        /// The arriving points, in stream order.
        points: Vec<DataPoint>,
    },
    /// Release (terminate) a session: its mechanism state is dropped and
    /// the reply reports the final stream position and budget spent.
    Release {
        /// Target session.
        session_id: u64,
    },
    /// Connection-scoped goodbye. Submitting it never blocks and never
    /// touches the shard queues: the ticket resolves to [`Reply::Closed`]
    /// immediately. The *barrier* a remote client observes — "every
    /// command I sent before `CLOSE` has been answered" — comes from the
    /// reply discipline of
    /// [`serve_connection`](crate::serve_connection), which writes
    /// replies strictly in command order, so the `CLOSED` frame is
    /// necessarily the last thing on the wire. Crucially this orders only
    /// *that connection's* in-flight commands: one tenant's goodbye never
    /// waits on another tenant's queued compute. The engine itself stays
    /// up — sessions survive for other connections.
    Close,
}

impl Command {
    /// Queue cost of this command, in points.
    pub fn cost(&self) -> usize {
        match self {
            Command::ObserveBatch { points, .. } => points.len().max(1),
            _ => 1,
        }
    }

    /// The session this command routes by (`None` for [`Command::Close`],
    /// which never enters a queue).
    pub fn session_id(&self) -> Option<u64> {
        match self {
            Command::Open { session_id, .. }
            | Command::Observe { session_id, .. }
            | Command::ObserveBatch { session_id, .. }
            | Command::Release { session_id } => Some(*session_id),
            Command::Close => None,
        }
    }
}

/// The engine's answer to one [`Command`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The session was spawned.
    Opened {
        /// The spawned session's id.
        session_id: u64,
    },
    /// Estimators released for an observe / observe-batch command, one
    /// per point, in stream order.
    Releases {
        /// The serving session's id.
        session_id: u64,
        /// The released estimators `θ_t`.
        thetas: Vec<Vec<f64>>,
    },
    /// The session was released; its final ledger.
    SessionReleased {
        /// The released session's id.
        session_id: u64,
        /// Stream points the session consumed over its lifetime.
        points: u64,
        /// Privacy budget `ε` the session's accountant recorded as spent.
        epsilon_spent: f64,
        /// Privacy budget `δ` the session's accountant recorded as spent.
        delta_spent: f64,
    },
    /// Goodbye acknowledged ([`Command::Close`]).
    Closed,
    /// The command failed; nothing about the session changed beyond what
    /// the error names.
    Err(EngineError),
}

impl Reply {
    /// Extract the released estimators, turning every non-release reply
    /// into an error (convenience for observe-style commands).
    pub fn into_releases(self) -> Result<Vec<Vec<f64>>, EngineError> {
        match self {
            Reply::Releases { thetas, .. } => Ok(thetas),
            Reply::Err(e) => Err(e),
            other => Err(EngineError::Mechanism {
                reason: format!("expected a release reply, got {other:?}"),
            }),
        }
    }
}

/// A claim on one command's eventual [`Reply`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Reply>,
}

impl Ticket {
    /// A ticket that is already resolved to `reply`.
    fn resolved(reply: Reply) -> Self {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(reply);
        Ticket { rx }
    }

    /// Block until the reply arrives. If the engine shut down before
    /// answering, the reply is [`Reply::Err`]\([`EngineError::Closed`]).
    pub fn wait(self) -> Reply {
        self.rx.recv().unwrap_or(Reply::Err(EngineError::Closed))
    }

    /// Non-blocking poll: `Some(reply)` once the reply is in, `None`
    /// while the command is still queued or computing.
    pub fn try_wait(&self) -> Option<Reply> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Reply::Err(EngineError::Closed)),
        }
    }
}

/// What travels down a shard's queue.
enum Job {
    /// One wire-level command with its reply channel.
    Cmd { cmd: Command, cost: usize, reply: Sender<Reply> },
    /// The bulk fast path behind [`SubmitHandle::ingest`]: a whole
    /// shard's slice of a mixed-tenant batch in one message.
    Ingest { runs: Vec<SessionRun>, cost: usize, reply: Sender<Vec<IndexedRelease>> },
    /// Barrier: acknowledge once everything before this job is done.
    Flush { ack: Sender<()> },
    /// Live checkpoint: snapshot every session this shard owns and cut
    /// the shard's log chain at the current job boundary (see
    /// [`EngineHandle::checkpoint`]). Never reserves queue depth.
    Checkpoint { ack: Sender<Result<ShardCut, EngineError>> },
    /// Drain, report `(live sessions, live points)`, and exit.
    Shutdown { ack: Sender<(usize, usize)> },
}

/// One shard's ingress lane: its queue plus the shared depth gauge.
struct Lane {
    tx: Sender<Job>,
    depth: Arc<AtomicUsize>,
}

/// Final tallies returned by [`EngineHandle::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressStats {
    /// Sessions still live (never released) at close, whether resident
    /// in memory or spilled to disk.
    pub sessions: usize,
    /// Stream points those live sessions had consumed.
    pub points: usize,
}

/// The cheap, shareable front door to a pipelined engine.
///
/// `SubmitHandle` is `Clone + Send + Sync`: clone one per thread (or per
/// TCP connection — see [`serve_tcp`](crate::serve_tcp)) and feed the
/// same fleet concurrently with **no external lock**. Clones share the
/// per-shard queues, the atomic depth gauges, and the capacity; a clone
/// costs one `Arc` bump.
///
/// Obtained from [`EngineHandle::submit_handle`]; `EngineHandle` also
/// derefs to `SubmitHandle`, so every submission method below is
/// callable on the owning handle directly. Clones do not keep the engine
/// alive: after [`EngineHandle::close`] (or drop) every submission
/// through a surviving clone fails with [`EngineError::Closed`].
///
/// The headline invariants:
///
/// - **Non-blocking**: [`submit`](Self::submit) returns as soon as the
///   command is enqueued (or rejected), never waiting on mechanism
///   compute. ([`Command::Close`] never even enqueues — its ticket is
///   resolved on the spot.)
/// - **Atomic backpressure**: a command that does not fit its shard's
///   queue whole is rejected whole — transiently
///   ([`EngineError::Backpressure`], reported with the depth observed at
///   the failed reservation) or permanently
///   ([`EngineError::CommandTooLarge`], when `cost > capacity`).
/// - **Deterministic**: per-session FIFO + seed-per-`(engine seed, id)`
///   make release sequences identical to the direct
///   [`ShardedEngine`](crate::ShardedEngine) path, under any shard count,
///   for any set of concurrent submitters driving disjoint sessions.
#[derive(Clone)]
pub struct SubmitHandle {
    lanes: Arc<[Lane]>,
    capacity: usize,
    seed: u64,
    /// Present iff the engine was built with a spill tier: counters plus
    /// the pending-command maps that gate eviction.
    spill: Option<Arc<SpillShared>>,
    /// Present iff the engine is write-ahead logged: health counters,
    /// tail gauges, and the auto-checkpoint doorbell.
    wal: Option<Arc<WalShared>>,
    /// Raised by [`EngineHandle::close`] / drop so surviving clones fail
    /// fast with [`EngineError::Closed`] — before any size or capacity
    /// verdict, which would otherwise mislead (a `CommandTooLarge` from
    /// a dead engine invites a pointless split-and-retry).
    closed: Arc<std::sync::atomic::AtomicBool>,
}

impl std::fmt::Debug for SubmitHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitHandle")
            .field("num_shards", &self.lanes.len())
            .field("capacity", &self.capacity)
            .field("depths", &self.queue_depths())
            .finish()
    }
}

impl SubmitHandle {
    /// Number of shards (= worker threads).
    pub fn num_shards(&self) -> usize {
        self.lanes.len()
    }

    /// The configured per-shard queue depth, in points.
    pub fn queue_capacity(&self) -> usize {
        self.capacity
    }

    /// Instantaneous queued-point count per shard (observability: a shard
    /// pinned at capacity is the backpressure signal to scale or shed).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.lanes.iter().map(|l| l.depth.load(Ordering::Relaxed)).collect()
    }

    /// Spill-tier counters (observability: `spilled` climbing while
    /// `restores` stays flat means the resident cap is sized right; a
    /// high restore rate means the working set exceeds the cap and every
    /// cold command pays a disk round-trip). All zeros on an engine built
    /// without a spill tier.
    pub fn spill_stats(&self) -> SpillStats {
        self.spill.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Write-ahead-log health counters (observability:
    /// `degraded_shards` non-zero means part of the fleet is serving
    /// **without durability** under
    /// [`WalFailurePolicy::DegradeToUnlogged`](crate::WalFailurePolicy::DegradeToUnlogged)
    /// — page the operator). All zeros on an engine built without a WAL.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.as_ref().map(|w| w.stats()).unwrap_or_default()
    }

    /// The engine seed (for spawning a mirrored
    /// [`ShardedEngine`](crate::ShardedEngine)
    /// in tests; treat as secret in production — see
    /// [`IngressConfig::seed`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    #[inline]
    fn shard_index(&self, session_id: u64) -> usize {
        shard_of(session_id, self.lanes.len())
    }

    /// Try to reserve `cost` points of queue space on `shard`.
    ///
    /// On failure the `depth` carried by [`EngineError::Backpressure`] is
    /// the value observed by the failed compare-and-swap itself — the
    /// reservation-time truth, not a post-hoc re-read — so concurrent
    /// submitters cannot skew the reported signal.
    fn reserve(&self, shard: usize, cost: usize) -> Result<(), EngineError> {
        // A shut-down engine outranks every other verdict: after close()
        // the only truthful answer is Closed, not a size critique.
        if self.closed.load(Ordering::SeqCst) {
            return Err(EngineError::Closed);
        }
        if cost > self.capacity {
            return Err(EngineError::CommandTooLarge { shard, cost, capacity: self.capacity });
        }
        let depth = &shard_slot(&self.lanes, shard)?.depth;
        depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur + cost <= self.capacity).then_some(cur + cost)
            })
            .map(|_| ())
            .map_err(|cur| EngineError::Backpressure {
                shard,
                depth: cur,
                capacity: self.capacity,
                cost,
            })
    }

    /// Wait out transient backpressure on `shard` by riding its flush
    /// barrier once; the caller retries its reservation afterwards.
    ///
    /// Multi-submitter-safe: the flush job does not itself consume queue
    /// space, its ack guarantees the worker made progress (everything
    /// ahead of it drained), and the reservation being retried is a
    /// single compare-and-swap — so when several blocked submitters race
    /// for freed space, at least one always wins and the rest re-ride
    /// the barrier. No livelock; fairness is best-effort (a large cost
    /// can be outpaced by a stream of small ones — see
    /// `docs/OPERATIONS.md`). The barrier doubles as a liveness probe: a
    /// dead worker (post-panic) surfaces as [`EngineError::Closed`]
    /// instead of a spin.
    fn ride_flush_barrier(&self, shard: usize) -> Result<(), EngineError> {
        let (tx, rx) = mpsc::channel();
        if shard_slot(&self.lanes, shard)?.tx.send(Job::Flush { ack: tx }).is_err()
            || rx.recv().is_err()
        {
            return Err(EngineError::Closed);
        }
        std::thread::yield_now();
        Ok(())
    }

    /// Reserve `cost` points on `shard`, waiting out transient
    /// backpressure (see [`ride_flush_barrier`](Self::ride_flush_barrier)
    /// for the contention story).
    fn reserve_blocking(&self, shard: usize, cost: usize) -> Result<(), EngineError> {
        loop {
            match self.reserve(shard, cost) {
                Ok(()) => return Ok(()),
                Err(e) if !e.is_retryable() => return Err(e),
                Err(_) => self.ride_flush_barrier(shard)?,
            }
        }
    }

    /// Enqueue one command without waiting for its compute.
    ///
    /// Commands for the same session are processed in submission order
    /// (per-shard FIFO), so `open → observe → release` pipelines without
    /// waiting on intermediate tickets. [`Command::Close`] is
    /// connection-scoped and never blocks: its ticket is already resolved
    /// to [`Reply::Closed`] (see [`Command::Close`] for where the
    /// client-visible barrier comes from).
    ///
    /// # Errors
    /// [`EngineError::Backpressure`] if the target shard's queue cannot
    /// take the command whole right now (transient — nothing was
    /// enqueued; retry after the shard drains),
    /// [`EngineError::CommandTooLarge`] if it can *never* take it
    /// (permanent — split the command), or [`EngineError::Closed`] if the
    /// engine has shut down.
    pub fn submit(&self, cmd: Command) -> Result<Ticket, EngineError> {
        self.try_submit(cmd).map_err(|(_, e)| e)
    }

    /// [`submit`](Self::submit), but a rejected command is handed back to
    /// the caller alongside the error — so retry loops (the server's
    /// flow-control path, most prominently) need not clone a potentially
    /// large batch per attempt.
    ///
    /// # Errors
    /// As [`submit`](Self::submit), with the unconsumed [`Command`]
    /// attached.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, cmd: Command) -> Result<Ticket, (Command, EngineError)> {
        let Some(session_id) = cmd.session_id() else {
            // Close: connection-scoped, resolved on the spot — never a
            // fleet-wide barrier (one tenant's goodbye must not wait on
            // another tenant's queued compute).
            return Ok(Ticket::resolved(Reply::Closed));
        };
        let shard = self.shard_index(session_id);
        let lane = match shard_slot(&self.lanes, shard) {
            Ok(lane) => lane,
            Err(e) => return Err((cmd, e)),
        };
        let cost = cmd.cost();
        if let Err(e) = self.reserve(shard, cost) {
            return Err((cmd, e));
        }
        // Publish the queued command to the spill tier *before* sending
        // the job: a worker weighing eviction of this session either
        // sees the entry (and skips the victim) or has not received the
        // job yet — in which case its arrival restores the session
        // in-band. Incrementing after the send would reopen the window.
        if let Some(Err(e)) =
            self.spill.as_ref().map(|spill| spill.pending_add(shard, [session_id]))
        {
            lane.depth.fetch_sub(cost, Ordering::SeqCst);
            return Err((cmd, e));
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        match lane.tx.send(Job::Cmd { cmd, cost, reply: reply_tx }) {
            Ok(()) => Ok(Ticket { rx: reply_rx }),
            // Worker gone (only possible after a panic or close): roll
            // the reservation back and surface the shutdown, handing the
            // command (recovered from the undeliverable job) back.
            Err(mpsc::SendError(job)) => {
                lane.depth.fetch_sub(cost, Ordering::SeqCst);
                if let Some(spill) = &self.spill {
                    spill.pending_sub(shard, session_id);
                }
                let cmd = match job {
                    Job::Cmd { cmd, .. } => cmd,
                    // send() hands back the exact value it was given (a
                    // Job::Cmd, two lines up); if that contract ever
                    // broke, surface an equivalent rejection instead of
                    // panicking the submitting connection thread.
                    _ => Command::Release { session_id },
                };
                Err((cmd, EngineError::Closed))
            }
        }
    }

    /// [`submit`](Self::submit) that waits out *transient* backpressure
    /// (by riding the target shard's flush barrier) instead of returning
    /// it. The blocking entry point for callers with nothing better to do
    /// than wait — e.g. a connection thread whose own in-flight replies
    /// are all drained.
    ///
    /// # Errors
    /// [`EngineError::CommandTooLarge`] (permanent rejections are *not*
    /// waited out) or [`EngineError::Closed`].
    pub fn submit_blocking(&self, mut cmd: Command) -> Result<Ticket, EngineError> {
        loop {
            match self.try_submit(cmd) {
                Ok(ticket) => return Ok(ticket),
                Err((_, e)) if !e.is_retryable() => return Err(e),
                Err((rejected, e)) => {
                    // Transient: wait for the shard to drain, then retry
                    // with the handed-back command (no clone per attempt).
                    // Retryable rejections only come from shard queues,
                    // and only routed commands reach a queue (`Close`
                    // resolves before queueing) — but if that invariant
                    // ever broke, fail the submit rather than panic.
                    let Some(session_id) = rejected.session_id() else {
                        return Err(e);
                    };
                    self.ride_flush_barrier(self.shard_index(session_id))?;
                    cmd = rejected;
                }
            }
        }
    }

    /// [`Command::Open`] convenience.
    ///
    /// # Errors
    /// See [`submit`](Self::submit).
    pub fn open(
        &self,
        session_id: u64,
        spec: &MechanismSpec,
        t_max: usize,
        params: &PrivacyParams,
    ) -> Result<Ticket, EngineError> {
        self.submit(Command::Open { session_id, spec: spec.clone(), t_max, params: *params })
    }

    /// [`Command::Observe`] convenience.
    ///
    /// # Errors
    /// See [`submit`](Self::submit).
    pub fn observe(&self, session_id: u64, point: DataPoint) -> Result<Ticket, EngineError> {
        self.submit(Command::Observe { session_id, point })
    }

    /// [`Command::ObserveBatch`] convenience.
    ///
    /// # Errors
    /// See [`submit`](Self::submit).
    pub fn observe_batch(
        &self,
        session_id: u64,
        points: Vec<DataPoint>,
    ) -> Result<Ticket, EngineError> {
        self.submit(Command::ObserveBatch { session_id, points })
    }

    /// [`Command::Release`] convenience.
    ///
    /// # Errors
    /// See [`submit`](Self::submit).
    pub fn release_session(&self, session_id: u64) -> Result<Ticket, EngineError> {
        self.submit(Command::Release { session_id })
    }

    /// Drive a mixed batch of arrivals across many sessions — the bulk
    /// fast path, drop-in equivalent to
    /// [`ShardedEngine::ingest`](crate::ShardedEngine::ingest) (the
    /// release sequences are identical; see `tests/ingress.rs`).
    ///
    /// Points are grouped per session (preserving each session's arrival
    /// order) and each shard's slice travels as **one** queue message, so
    /// channel overhead is `O(num_shards)` per call, not `O(points)`.
    /// `out[i]` answers `points[i]`. Backpressure handling: a shard slice
    /// larger than the whole queue reports
    /// [`EngineError::CommandTooLarge`] on its indices (no amount of
    /// waiting would admit it); otherwise `ingest` waits for the shard to
    /// drain (it is the *blocking* entry point — use
    /// [`submit`](Self::submit) for fire-and-forget). Several `ingest`
    /// calls may run concurrently on clones of one handle; they contend
    /// for queue space via the same atomic reservation and cannot livelock
    /// each other (see `reserve_blocking`). Note the resulting
    /// granularity: each *shard slice* is applied or rejected as a unit,
    /// so one fleet-level call can mix applied and rejected indices —
    /// consult the per-index results before replaying anything.
    pub fn ingest(&self, points: Vec<(u64, DataPoint)>) -> Vec<Result<Vec<f64>, EngineError>> {
        let n = points.len();
        let mut answered: Vec<IndexedRelease> = Vec::new();
        let mut pending: Vec<Receiver<Vec<IndexedRelease>>> = Vec::new();
        for (shard, runs) in group_runs(points, self.lanes.len()) {
            let cost: usize = runs.iter().map(|(_, _, b)| b.len()).sum::<usize>().max(1);
            // Same pre-send publication as `try_submit`: every session
            // this slice touches is pinned resident until its run
            // executes.
            let admitted = shard_slot(&self.lanes, shard).and_then(|lane| {
                self.reserve_blocking(shard, cost)?;
                let sids = runs.iter().map(|r| r.0);
                if let Some(Err(e)) =
                    self.spill.as_ref().map(|spill| spill.pending_add(shard, sids))
                {
                    lane.depth.fetch_sub(cost, Ordering::SeqCst);
                    return Err(e);
                }
                Ok(lane)
            });
            let lane = match admitted {
                Ok(lane) => lane,
                Err(e) => {
                    // Permanent rejection (slice can never fit) or a dead
                    // worker: report it on every affected index.
                    let indices = runs.iter().flat_map(|(_, idx, _)| idx.iter().copied());
                    answered.extend(indices.map(|i| (i, Err(e.clone()))));
                    continue;
                }
            };
            let run_sids: Vec<u64> =
                if self.spill.is_some() { runs.iter().map(|r| r.0).collect() } else { Vec::new() };
            let (tx, rx) = mpsc::channel();
            if lane.tx.send(Job::Ingest { runs, cost, reply: tx }).is_err() {
                // Worker gone: roll back, and leave the slice unanswered
                // (`scatter` reports it as Closed).
                lane.depth.fetch_sub(cost, Ordering::SeqCst);
                if let Some(spill) = &self.spill {
                    for sid in run_sids {
                        spill.pending_sub(shard, sid);
                    }
                }
                continue;
            }
            pending.push(rx);
        }
        // A worker that dies before replying leaves its slice unanswered,
        // which `scatter` reports as Closed.
        for rx in pending {
            if let Ok(parts) = rx.recv() {
                answered.extend(parts);
            }
        }
        scatter(n, answered)
    }

    /// Fleet-wide barrier: returns once every command submitted (by *any*
    /// submitter) before the call has been fully processed — its reply
    /// sent. Releases stay deterministic across flushes — this orders
    /// *completion*, never *noise*. For a connection-scoped goodbye use
    /// [`Command::Close`] instead; `flush` is the operator's tool (drain
    /// before snapshotting gauges, quiesce before reconfiguring).
    pub fn flush(&self) {
        let acks: Vec<Receiver<()>> = self
            .lanes
            .iter()
            .filter_map(|l| {
                let (tx, rx) = mpsc::channel();
                l.tx.send(Job::Flush { ack: tx }).ok().map(|()| rx)
            })
            .collect();
        for rx in acks {
            let _ = rx.recv();
        }
    }
}

/// The worker-owning side of the pipelined frontend.
///
/// Owns one worker thread per shard; each worker owns its shard's
/// state (sessions, log writer, spill tier) and drains a bounded command
/// queue onto it. All submission goes
/// through [`SubmitHandle`] — `EngineHandle` [derefs](std::ops::Deref) to
/// one, and [`submit_handle`](Self::submit_handle) clones out shareable
/// handles for other threads — while lifecycle (owning the workers,
/// [`close`](Self::close)) stays here, on the uniquely-owned type. See
/// the [module docs](self) for the full contract.
#[derive(Debug)]
pub struct EngineHandle {
    submit: SubmitHandle,
    workers: Vec<JoinHandle<()>>,
    /// Checkpoint coordinator state; present iff the engine is
    /// write-ahead logged. Shared with the auto-checkpoint coordinator
    /// thread when a [`CheckpointPolicy`](crate::CheckpointPolicy) is
    /// configured.
    ckpt: Option<Arc<Mutex<CheckpointCtx>>>,
    /// The auto-checkpoint coordinator thread; present iff
    /// [`WalOptions::auto_checkpoint`](crate::WalOptions) is set.
    coordinator: Option<JoinHandle<()>>,
}

/// Coordinator-side bookkeeping for [`EngineHandle::checkpoint`]: where
/// every log chain ends — including *historic* shards from runs with a
/// different shard count, whose chains a manifest must keep covering —
/// and which manifest generation is current.
#[derive(Debug)]
struct CheckpointCtx {
    dir: PathBuf,
    /// The storage backend manifests are written through (the same one
    /// the shard writers log through).
    storage: StorageHandle,
    /// `shard → (next_seg_seq, next_record_seq)` for every chain the
    /// next manifest must cover. Live shards are refreshed by their cut
    /// on every checkpoint; historic shards carry forward unchanged.
    chains: HashMap<u32, (u32, u32)>,
    generation: Option<u32>,
    max_epoch: Option<u32>,
}

impl std::ops::Deref for EngineHandle {
    type Target = SubmitHandle;

    fn deref(&self) -> &SubmitHandle {
        &self.submit
    }
}

impl EngineHandle {
    /// Spawn the shard workers.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] if `num_shards == 0` or
    /// `queue_depth == 0`.
    pub fn new(config: IngressConfig) -> Result<Self, EngineError> {
        validate_config(&config)?;
        let shards = (0..config.num_shards).map(|_| Shard::new(config.seed)).collect();
        Ok(EngineHandle::spawn_workers(config, shards, None, None, None))
    }

    /// [`new`](Self::new) with a session **spill tier**: each shard
    /// keeps at most [`SpillOptions::resident_cap`] sessions in memory,
    /// spilling the least-recently-used idle ones to
    /// [`SpillOptions::dir`] as `PIRS` snapshots and restoring them
    /// transparently on their next command. Sessions keep their exact
    /// noise stream across a spill/restore cycle, so releases stay
    /// bit-identical to an unbounded engine's
    /// (`crates/engine/tests/spill.rs`).
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] as [`new`](Self::new), for a zero
    /// `resident_cap`, or when the spill directory cannot be prepared.
    pub fn with_spill(config: IngressConfig, spill: &SpillOptions) -> Result<Self, EngineError> {
        validate_config(&config)?;
        let shared = prepare_spill(&config, spill)?;
        let shards = (0..config.num_shards).map(|_| Shard::new(config.seed)).collect();
        Ok(EngineHandle::spawn_workers(config, shards, Some((spill.clone(), shared)), None, None))
    }

    /// Spawn a **write-ahead-logged** engine: replay whatever command
    /// log survives under `options.dir` (an empty or missing directory
    /// replays nothing), then bring up the shard workers with every
    /// subsequent command logged **before** it executes.
    ///
    /// Replay rebuilds each session from `(seed, session id)` exactly as
    /// the original run did, so the recovered engine's future releases —
    /// and the replayed ones — are bit-identical to an uninterrupted
    /// run's (`tests/recovery.rs`). The shard count may differ from the
    /// logging run's: releases are invariant under resharding, and each
    /// restart stamps a fresh log epoch so replay order stays correct
    /// across generations. A torn final record in any shard's log is
    /// accepted as the expected crash artifact; **any other** corruption
    /// fails this constructor loudly — no workers are spawned and
    /// nothing is replayed into a live engine.
    ///
    /// Commands that re-fail deterministically during replay (a
    /// duplicate open, an over-horizon observe) are counted in
    /// [`RecoveryReport::failed`], exactly mirroring the error replies
    /// the original run sent.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] as [`new`](Self::new), or
    /// [`EngineError::Wal`] wrapping any
    /// [`WalError`](crate::wal::WalError) the existing log violates (or
    /// invalid `options`).
    pub fn with_wal(
        config: IngressConfig,
        options: &WalOptions,
    ) -> Result<(Self, RecoveryReport), EngineError> {
        EngineHandle::with_wal_inner(config, options, None)
    }

    /// [`with_wal`](Self::with_wal) combined with
    /// [`with_spill`](Self::with_spill): the durable engine with bounded
    /// resident memory. Recovery restores checkpointed sessions and
    /// replays the log tail first, then each shard spills down to its
    /// resident cap before serving.
    ///
    /// # Errors
    /// The union of [`with_wal`](Self::with_wal)'s and
    /// [`with_spill`](Self::with_spill)'s.
    pub fn with_wal_and_spill(
        config: IngressConfig,
        options: &WalOptions,
        spill: &SpillOptions,
    ) -> Result<(Self, RecoveryReport), EngineError> {
        EngineHandle::with_wal_inner(config, options, Some(spill))
    }

    fn with_wal_inner(
        config: IngressConfig,
        options: &WalOptions,
        spill: Option<&SpillOptions>,
    ) -> Result<(Self, RecoveryReport), EngineError> {
        validate_config(&config)?;
        options.validate().map_err(wal_engine_err)?;
        let spill = match spill {
            None => None,
            Some(opts) => Some((opts.clone(), prepare_spill(&config, opts)?)),
        };
        let log = wal::load_log(&options.storage, &options.dir).map_err(wal_engine_err)?;

        // Replay into a synchronous engine at the *current* shard count —
        // the same replay `wal::recover` runs — then hand its shards to
        // the workers.
        let mut engine = crate::ShardedEngine::new(crate::EngineConfig {
            num_shards: config.num_shards,
            seed: config.seed,
            parallel: false,
        })?;
        let report = wal::replay(&log, &mut engine, |_, _| {}).map_err(wal_engine_err)?;

        // One writer per (current) shard, all at the next epoch, each
        // continuing its shard's chain where the log left off.
        let epoch = wal::next_epoch(log.max_epoch).map_err(wal_engine_err)?;
        let ckpt = CheckpointCtx {
            dir: options.dir.clone(),
            storage: options.storage.clone(),
            chains: log
                .chains
                .iter()
                .map(|c| (c.shard, (c.next_seg_seq, c.next_record_seq)))
                .collect(),
            generation: log.manifest_generation,
            max_epoch: Some(epoch),
        };
        let wal_shared = Arc::new(WalShared::new(options.auto_checkpoint));
        let degrades = options.failure_policy.degrades();
        let mut shards = engine.into_shards();
        for (i, shard) in shards.iter_mut().enumerate() {
            let (seg_seq, rec_seq) = log.resume_for(i as u32);
            let writer = WalWriter::resume(options, i as u32, epoch, seg_seq, rec_seq)
                .map_err(wal_engine_err)?;
            shard.attach_wal(ShardWal::new(writer, Arc::clone(&wal_shared), degrades));
        }
        Ok((
            EngineHandle::spawn_workers(config, shards, spill, Some(wal_shared), Some(ckpt)),
            report,
        ))
    }

    /// Bring up one worker per shard, attaching the optional spill tier
    /// on the worker's own thread — plus, when a
    /// [`CheckpointPolicy`](crate::CheckpointPolicy) is configured, the
    /// auto-checkpoint coordinator thread.
    fn spawn_workers(
        config: IngressConfig,
        shards: Vec<Shard>,
        spill: Option<(SpillOptions, Arc<SpillShared>)>,
        wal: Option<Arc<WalShared>>,
        ckpt: Option<CheckpointCtx>,
    ) -> Self {
        let mut lanes = Vec::with_capacity(shards.len());
        let mut workers = Vec::with_capacity(shards.len());
        for (i, mut shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Job>();
            let depth = Arc::new(AtomicUsize::new(0));
            let worker_depth = Arc::clone(&depth);
            let tier = spill
                .as_ref()
                .map(|(options, shared)| SpillTier::new(options, i, Arc::clone(shared)));
            workers.push(std::thread::spawn(move || {
                if let Some(tier) = tier {
                    shard.attach_spill(tier);
                }
                worker_loop(rx, &worker_depth, shard)
            }));
            lanes.push(Lane { tx, depth });
        }
        let submit = SubmitHandle {
            lanes: lanes.into(),
            capacity: config.queue_depth,
            seed: config.seed,
            spill: spill.map(|(_, shared)| shared),
            wal: wal.clone(),
            closed: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        };
        let ckpt = ckpt.map(|c| Arc::new(Mutex::new(c)));
        let coordinator = match (&ckpt, wal) {
            (Some(ctx), Some(shared)) if shared.policy.is_some() => {
                let submit = submit.clone();
                let ctx = Arc::clone(ctx);
                Some(std::thread::spawn(move || coordinator_loop(&submit, &ctx, &shared)))
            }
            _ => None,
        };
        EngineHandle { submit, workers, ckpt, coordinator }
    }

    /// Compact the write-ahead log **while the engine serves traffic**:
    /// every shard snapshots its sessions and cuts its log chain at a
    /// job boundary, the cuts merge into one checkpoint manifest
    /// (`PIRC`), and every covered segment file is deleted. Recovery
    /// afterwards restores the snapshots and replays only the surviving
    /// tail — `O(commands since checkpoint)` instead of `O(history)` —
    /// with future releases bit-identical to an uninterrupted run's
    /// (`tests/compaction.rs`).
    ///
    /// Commands submitted concurrently are never lost: each shard's cut
    /// is taken in-band between jobs, so any given command is either
    /// executed before the cut (captured by its session's snapshot) or
    /// logged in the surviving tail (replayed). Shards cut at different
    /// wall-clock moments; that is sound because sessions are disjoint
    /// across shards and replay orders by `(epoch, shard, segment)`.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] on an engine without a WAL;
    /// [`EngineError::Wal`] when a session cannot be snapshotted (a
    /// `PRIVINCERM` session, say — keep those out of compacted fleets)
    /// or the manifest cannot be written; [`EngineError::Closed`] if the
    /// engine shut down mid-checkpoint. A failed checkpoint leaves the
    /// previous manifest and every segment in place — recovery is
    /// unaffected.
    pub fn checkpoint(&self) -> Result<CheckpointReport, EngineError> {
        let Some(ctx) = &self.ckpt else {
            return Err(EngineError::InvalidConfig {
                reason: "checkpoint requires a write-ahead-logged engine (with_wal)".to_string(),
            });
        };
        run_checkpoint(&self.submit, ctx)
    }

    /// Clone out a shareable [`SubmitHandle`] — `Clone + Send + Sync` —
    /// for another thread to feed this engine (one per TCP connection in
    /// [`serve_tcp`](crate::serve_tcp)). Clones do not keep the engine
    /// alive: after [`close`](Self::close) they fail with
    /// [`EngineError::Closed`].
    pub fn submit_handle(&self) -> SubmitHandle {
        self.submit.clone()
    }

    /// Drain every queue, shut the workers down, and join them. Any
    /// [`SubmitHandle`] clones still outstanding remain safe to use —
    /// their submissions simply fail with [`EngineError::Closed`].
    pub fn close(mut self) -> IngressStats {
        self.submit.closed.store(true, Ordering::SeqCst);
        self.stop_coordinator();
        let mut stats = IngressStats { sessions: 0, points: 0 };
        let acks: Vec<Receiver<(usize, usize)>> = self
            .submit
            .lanes
            .iter()
            .filter_map(|l| {
                let (tx, rx) = mpsc::channel();
                l.tx.send(Job::Shutdown { ack: tx }).ok().map(|()| rx)
            })
            .collect();
        for rx in acks {
            if let Ok((sessions, points)) = rx.recv() {
                stats.sessions += sessions;
                stats.points += points;
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        stats
    }

    /// Stop and join the auto-checkpoint coordinator (if any). Must run
    /// **before** worker shutdown: a checkpoint in flight needs live
    /// shards to answer its cuts.
    fn stop_coordinator(&mut self) {
        let Some(handle) = self.coordinator.take() else { return };
        if let Some(shared) = &self.submit.wal {
            shared.ring(true);
        }
        let _ = handle.join();
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // already closed
        }
        self.submit.closed.store(true, Ordering::SeqCst);
        self.stop_coordinator();
        for l in self.submit.lanes.iter() {
            let (tx, _rx) = mpsc::channel();
            let _ = l.tx.send(Job::Shutdown { ack: tx });
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Shared constructor validation for [`EngineHandle::new`] and
/// [`EngineHandle::with_wal`].
fn validate_config(config: &IngressConfig) -> Result<(), EngineError> {
    if config.num_shards == 0 {
        return Err(EngineError::InvalidConfig {
            reason: "num_shards must be at least 1".to_string(),
        });
    }
    if config.queue_depth == 0 {
        return Err(EngineError::InvalidConfig {
            reason: "queue_depth must be at least 1".to_string(),
        });
    }
    Ok(())
}

/// The per-shard slot `shard` of `slots` (a lane, or a spill pending
/// map). Every `shard` comes from `shard_of` over the same shard count,
/// so a miss is an engine bug — reported as a typed error instead of a
/// panic on a connection or worker thread.
fn shard_slot<T>(slots: &[T], shard: usize) -> Result<&T, EngineError> {
    slots.get(shard).ok_or_else(|| EngineError::InvalidConfig {
        reason: format!("shard {shard} is out of range for {} shards", slots.len()),
    })
}

/// Lift a log-layer failure into the engine's error vocabulary.
fn wal_engine_err(e: wal::WalError) -> EngineError {
    EngineError::Wal { reason: e.to_string() }
}

/// The checkpoint protocol behind [`EngineHandle::checkpoint`] and the
/// auto-checkpoint coordinator: cut every shard at a job boundary, merge
/// the cuts into one `PIRC` manifest, write it durably, purge covered
/// segments. Serialized by the [`CheckpointCtx`] lock, so a manual call
/// and the coordinator can never interleave.
fn run_checkpoint(
    submit: &SubmitHandle,
    ctx: &Mutex<CheckpointCtx>,
) -> Result<CheckpointReport, EngineError> {
    let mut ctx = lock_or_recover(ctx);
    let mut acks = Vec::with_capacity(submit.lanes.len());
    for lane in submit.lanes.iter() {
        let (tx, rx) = mpsc::channel();
        if lane.tx.send(Job::Checkpoint { ack: tx }).is_err() {
            return Err(EngineError::Closed);
        }
        acks.push(rx);
    }
    let mut snapshots = Vec::new();
    let mut first_err = None;
    // Drain every ack even after an error: the cuts already taken are
    // harmless (a rotation plus chain entries the next checkpoint
    // refreshes), and leaving acks unconsumed would be untidy.
    for rx in acks {
        match rx.recv() {
            Err(_) => first_err = first_err.or(Some(EngineError::Closed)),
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Ok(Ok(cut)) => {
                ctx.chains.insert(cut.shard, (cut.next_seg_seq, cut.next_record_seq));
                ctx.max_epoch = Some(ctx.max_epoch.map_or(cut.epoch, |m| m.max(cut.epoch)));
                snapshots.extend(cut.snapshots);
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let chains = ctx
        .chains
        .iter()
        .map(|(&shard, &(next_seg_seq, next_record_seq))| wal::ShardChain {
            shard,
            next_seg_seq,
            next_record_seq,
        })
        .collect();
    let report = wal::publish_checkpoint(
        &ctx.storage,
        &ctx.dir,
        ctx.generation,
        ctx.max_epoch,
        chains,
        snapshots,
    )
    .map_err(wal_engine_err)?;
    ctx.generation = Some(report.generation);
    Ok(report)
}

/// The auto-checkpoint coordinator thread: parked on the [`WalShared`]
/// doorbell, it runs [`run_checkpoint`] whenever the configured
/// [`CheckpointPolicy`](crate::CheckpointPolicy) trips, consumes the
/// tail it observed on success, and backs off exponentially on failure.
/// A failed attempt never purges segments — purge only ever follows a
/// durably written manifest, by construction of [`run_checkpoint`].
fn coordinator_loop(submit: &SubmitHandle, ctx: &Mutex<CheckpointCtx>, shared: &WalShared) {
    const BACKOFF_FLOOR: Duration = Duration::from_millis(50);
    const BACKOFF_CEIL: Duration = Duration::from_secs(5);
    let Some(policy) = shared.policy else { return };
    let (lock, cvar) = &shared.signal;
    let mut backoff = BACKOFF_FLOOR;
    loop {
        // Park until a worker rings the doorbell (or close() stops us).
        {
            let mut state = lock_or_recover(lock);
            loop {
                if state.stop {
                    return;
                }
                if state.due {
                    state.due = false;
                    break;
                }
                state = match cvar.wait(state) {
                    Ok(s) => s,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }
        // Double-check against the live gauges: the doorbell may be
        // stale if a manual checkpoint already compacted the tail.
        let tail_bytes = shared.tail_bytes.load(Ordering::Relaxed);
        let tail_commands = shared.tail_commands.load(Ordering::Relaxed);
        if !policy.due(tail_bytes, tail_commands) {
            continue;
        }
        match run_checkpoint(submit, ctx) {
            Ok(_) => {
                shared.auto_checkpoints.fetch_add(1, Ordering::Relaxed);
                // Consume only the tail this checkpoint observed; bytes
                // logged while it ran stay in the gauges.
                shared.tail_bytes.fetch_sub(tail_bytes, Ordering::Relaxed);
                shared.tail_commands.fetch_sub(tail_commands, Ordering::Relaxed);
                backoff = BACKOFF_FLOOR;
            }
            Err(EngineError::Closed) => return,
            Err(_) => {
                shared.auto_checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                // Wait out the backoff (interruptible by stop), then
                // re-arm: the tail is still over threshold.
                let state = lock_or_recover(lock);
                let (mut state, _) = match cvar.wait_timeout(state, backoff) {
                    Ok(r) => r,
                    Err(poisoned) => poisoned.into_inner(),
                };
                if state.stop {
                    return;
                }
                state.due = true;
                backoff = backoff.saturating_mul(2).min(BACKOFF_CEIL);
            }
        }
    }
}

/// Validate spill options, create the spill directory, and clear stale
/// spill files from a previous process. The spill dir extends *this*
/// process's memory: a session a previous run spilled is rebuilt from
/// the write-ahead log (if any), never from its stale blob.
fn prepare_spill(
    config: &IngressConfig,
    options: &SpillOptions,
) -> Result<Arc<SpillShared>, EngineError> {
    options.validate()?;
    let dir_err = |e: &std::io::Error| EngineError::InvalidConfig {
        reason: format!("spill dir {}: {e}", options.dir.display()),
    };
    options.storage.create_dir_all(&options.dir).map_err(|e| dir_err(&e))?;
    for path in options.storage.read_dir(&options.dir).map_err(|e| dir_err(&e))? {
        if path.file_name().and_then(|n| n.to_str()).is_some_and(is_spill_file) {
            options.storage.remove_file(&path).map_err(|e| dir_err(&e))?;
        }
    }
    Ok(Arc::new(SpillShared::new(config.num_shards)))
}

/// One shard's worker: a thin dispatcher from its queue onto the
/// [`Shard`] it owns. The shard keeps the durability discipline
/// (**log before execute**); the worker only releases queue depth and
/// sends replies once a job is done.
fn worker_loop(rx: Receiver<Job>, depth: &AtomicUsize, mut shard: Shard) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Cmd { cmd, cost, reply } => {
                let r = shard.apply(&cmd);
                depth.fetch_sub(cost, Ordering::SeqCst);
                let _ = reply.send(r);
            }
            Job::Ingest { runs, cost, reply } => {
                let out = shard.ingest(runs);
                depth.fetch_sub(cost, Ordering::SeqCst);
                let _ = reply.send(out);
            }
            Job::Flush { ack } => {
                let _ = ack.send(());
            }
            Job::Checkpoint { ack } => {
                let _ = ack.send(shard.cut());
            }
            Job::Shutdown { ack } => {
                let _ = ack.send(shard.finish());
                break;
            }
        }
    }
}
