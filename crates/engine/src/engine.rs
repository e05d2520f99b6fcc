//! The sharded multi-stream engine.

use crate::error::EngineError;
use crate::ingress::{Command, Reply};
use crate::session::StreamSession;
use crate::shard::{group_runs, scatter, IndexedRelease, Shard};
use crate::spec::MechanismSpec;
use pir_dp::PrivacyParams;
use pir_erm::DataPoint;

/// SplitMix64 finalizer — the engine's stateless hash for shard routing
/// and per-session seed derivation.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one shard-routing function: which of `num_shards` shards serves
/// `session_id`. Shared by the synchronous [`ShardedEngine`] and the
/// pipelined ingress layer so a session always lands on the same worker
/// no matter which front door it came through.
#[inline]
pub(crate) fn shard_of(session_id: u64, num_shards: usize) -> usize {
    (mix64(session_id) % num_shards as u64) as usize
}

/// The deterministic per-session noise seed: a function of the engine
/// seed and session id only — never of shard count, spawn order, or
/// scheduling — so release sequences survive resharding. Both spawn
/// paths (`spawn_session`, `spawn_sessions`) must go through this one
/// function.
#[inline]
pub(crate) fn session_seed(engine_seed: u64, session_id: u64) -> u64 {
    mix64(engine_seed ^ session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A fleet seed drawn from OS entropy (via the std hasher's random
/// keys), for the privacy-safe default configuration.
pub(crate) fn entropy_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let a = std::collections::hash_map::RandomState::new().build_hasher().finish();
    let b = std::collections::hash_map::RandomState::new().build_hasher().finish();
    mix64(a ^ b.rotate_left(32))
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of shards sessions are hash-partitioned across. Defaults to
    /// the machine's available parallelism.
    pub num_shards: usize,
    /// Base seed: every session's noise stream is derived from
    /// `(seed, session id)`, so a whole fleet is reproducible from one
    /// number — and independent of `num_shards`, so resharding does not
    /// change any release sequence.
    ///
    /// **Privacy warning:** a known seed makes every release's noise
    /// recomputable, voiding the `(ε, δ)` guarantee against anyone who
    /// learns it. Fix the seed for experiments and tests only;
    /// [`EngineConfig::default`] draws it from OS entropy.
    pub seed: u64,
    /// Drive shards on worker threads (`true`) or inline (`false`; useful
    /// for single-threaded debugging and deterministic profiling).
    pub parallel: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_shards: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            seed: entropy_seed(),
            parallel: true,
        }
    }
}

/// A sharded engine serving many concurrent private streams.
///
/// Sessions are hash-partitioned across `num_shards` shards by session id;
/// shard-parallel entry points ([`ingest`](ShardedEngine::ingest),
/// [`spawn_sessions`](ShardedEngine::spawn_sessions)) drive every shard on
/// its own worker thread. Because each session's noise stream is derived
/// from `(engine seed, session id)` alone, the released estimator
/// sequences are bit-for-bit reproducible regardless of shard count or
/// thread scheduling.
///
/// # Examples
///
/// ```
/// use pir_engine::{EngineConfig, MechanismSpec, ShardedEngine};
/// use pir_dp::PrivacyParams;
/// use pir_erm::DataPoint;
///
/// let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
/// let mut engine = ShardedEngine::new(EngineConfig {
///     num_shards: 2,
///     seed: 7,
///     parallel: true,
/// })
/// .unwrap();
///
/// // Four tenants, all running §4's PrivIncReg1 in dimension 3.
/// let spec = MechanismSpec::reg1_l2(3);
/// engine.spawn_sessions(0..4, &spec, 16, &params).unwrap();
///
/// // A mixed batch of arrivals across tenants: one estimator per point.
/// let batch: Vec<(u64, DataPoint)> = (0..8u64)
///     .map(|i| (i % 4, DataPoint::new(vec![0.5, 0.1, 0.0], 0.3)))
///     .collect();
/// let releases = engine.ingest(batch);
/// assert_eq!(releases.len(), 8);
/// assert!(releases.iter().all(|r| r.as_ref().unwrap().len() == 3));
/// assert_eq!(engine.total_points(), 8);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    config: EngineConfig,
    shards: Vec<Shard>,
}

impl ShardedEngine {
    /// New engine.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] if `num_shards == 0`.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        if config.num_shards == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "num_shards must be at least 1".to_string(),
            });
        }
        let shards = (0..config.num_shards).map(|_| Shard::new(config.seed)).collect();
        Ok(ShardedEngine { config, shards })
    }

    /// New engine with `n` shards and default seed.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] if `n == 0`.
    pub fn with_shards(n: usize) -> Result<Self, EngineError> {
        ShardedEngine::new(EngineConfig { num_shards: n, ..Default::default() })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total live sessions.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|s| s.sessions.len()).sum()
    }

    /// Sessions per shard (observability: hash-partition balance).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.sessions.len()).collect()
    }

    /// Total stream points consumed across all sessions.
    pub fn total_points(&self) -> usize {
        self.shards.iter().flat_map(|s| s.sessions.values()).map(StreamSession::t).sum()
    }

    #[inline]
    fn shard_index(&self, session_id: u64) -> usize {
        shard_of(session_id, self.shards.len())
    }

    /// The shard `session_id` routes to.
    #[inline]
    fn shard_mut(&mut self, session_id: u64) -> &mut Shard {
        let idx = self.shard_index(session_id);
        &mut self.shards[idx]
    }

    /// Whether a session with this id exists.
    pub fn contains(&self, session_id: u64) -> bool {
        self.shards[self.shard_index(session_id)].sessions.contains_key(&session_id)
    }

    /// Read access to one session (accountant, mechanism name, `t`, …).
    pub fn with_session<R>(
        &self,
        session_id: u64,
        f: impl FnOnce(&StreamSession) -> R,
    ) -> Option<R> {
        self.shards[self.shard_index(session_id)].sessions.get(&session_id).map(f)
    }

    /// Remove a session; returns it if it existed.
    pub fn remove_session(&mut self, session_id: u64) -> Option<StreamSession> {
        self.shard_mut(session_id).sessions.remove(&session_id)
    }

    /// Insert an already-built session — the import half of
    /// [`StreamSession::restore`]: rebuild a session from a `PIRS`
    /// snapshot (taken under this engine's seed), then adopt it here. The
    /// session lands on whatever shard its id hashes to, so adoption is
    /// reshard-safe like every other placement.
    ///
    /// # Errors
    /// [`EngineError::DuplicateSession`] if the id is taken.
    pub fn adopt_session(&mut self, session: StreamSession) -> Result<(), EngineError> {
        let id = session.id();
        if self.contains(id) {
            return Err(EngineError::DuplicateSession { id });
        }
        self.shard_mut(id).sessions.insert(id, session);
        Ok(())
    }

    /// Iterate over every live session, in unspecified order (checkpoint
    /// capture walks this).
    pub(crate) fn sessions(&self) -> impl Iterator<Item = &StreamSession> {
        self.shards.iter().flat_map(|s| s.sessions.values())
    }

    /// Spawn one session running `spec` for streams of length up to
    /// `t_max` under the per-session budget `params`.
    ///
    /// # Errors
    /// [`EngineError::DuplicateSession`] if the id is taken, or the
    /// spec's build error.
    pub fn spawn_session(
        &mut self,
        session_id: u64,
        spec: &MechanismSpec,
        t_max: usize,
        params: &PrivacyParams,
    ) -> Result<(), EngineError> {
        self.shard_mut(session_id).open(session_id, spec, t_max, params)
    }

    /// Spawn many sessions of the same spec, building shard-parallel
    /// (mechanism construction is the expensive part — e.g. sampling the
    /// `m×d` sketch of `PrivIncReg2` — so fan it out). All-or-nothing: on
    /// any failure no session is inserted.
    ///
    /// # Errors
    /// [`EngineError::DuplicateSession`] for an id collision (within the
    /// batch or against live sessions), or the spec's build error.
    pub fn spawn_sessions(
        &mut self,
        session_ids: impl IntoIterator<Item = u64>,
        spec: &MechanismSpec,
        t_max: usize,
        params: &PrivacyParams,
    ) -> Result<usize, EngineError> {
        let mut per_shard: Vec<Vec<u64>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut seen = std::collections::HashSet::new();
        let mut count = 0usize;
        for id in session_ids {
            if self.contains(id) || !seen.insert(id) {
                return Err(EngineError::DuplicateSession { id });
            }
            per_shard[self.shard_index(id)].push(id);
            count += 1;
        }
        // Build every session before inserting any (all-or-nothing).
        let engine_seed = self.config.seed;
        let build_shard = |ids: &[u64]| -> Result<Vec<StreamSession>, EngineError> {
            ids.iter()
                .map(|&id| StreamSession::spawn(id, spec, t_max, params, engine_seed))
                .collect()
        };
        let build_shard = &build_shard;
        let busy = per_shard.iter().filter(|ids| !ids.is_empty()).count();
        let built: Vec<Result<Vec<StreamSession>, EngineError>> = if self.run_parallel(busy) {
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    per_shard.iter().map(|ids| scope.spawn(move || build_shard(ids))).collect();
                handles.into_iter().map(|h| h.join().expect("spawn worker panicked")).collect()
            })
        } else {
            per_shard.iter().map(|ids| build_shard(ids)).collect()
        };
        let mut all = Vec::with_capacity(self.shards.len());
        for r in built {
            all.push(r?);
        }
        for (shard, sessions) in self.shards.iter_mut().zip(all) {
            for s in sessions {
                shard.sessions.insert(s.id(), s);
            }
        }
        Ok(count)
    }

    /// Route one point to its session.
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`] or the mechanism's error.
    pub fn observe(&mut self, session_id: u64, z: &DataPoint) -> Result<Vec<f64>, EngineError> {
        self.shard_mut(session_id).session_mut(session_id)?.observe(z)
    }

    /// [`observe`](ShardedEngine::observe) writing the release into a
    /// caller-provided buffer — release-for-release identical to it, and
    /// allocation-free in steady state for the paper mechanisms: routing
    /// is a hash and a map lookup, and the mechanism runs its whole step
    /// on preallocated scratch (see `docs/ARCHITECTURE.md`, "Buffer
    /// ownership"). Callers that poll one session at high rate should
    /// hold one release buffer per session and drive this entry point.
    ///
    /// On error, `out` contents are unspecified.
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`], the mechanism's error, or a
    /// wrong-length buffer.
    pub fn observe_into(
        &mut self,
        session_id: u64,
        z: &DataPoint,
        out: &mut [f64],
    ) -> Result<(), EngineError> {
        self.shard_mut(session_id).session_mut(session_id)?.observe_into(z, out)
    }

    /// Route a run of consecutive points to one session's amortized batch
    /// path.
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`] or the mechanism's error (batches
    /// are rejected atomically on contract violations).
    pub fn observe_batch(
        &mut self,
        session_id: u64,
        batch: &[DataPoint],
    ) -> Result<Vec<Vec<f64>>, EngineError> {
        self.shard_mut(session_id).session_mut(session_id)?.observe_batch(batch)
    }

    /// [`observe_batch`](ShardedEngine::observe_batch) writing the
    /// releases into one caller-provided flat buffer of length
    /// `batch.len() · dim` (point `i`'s estimator lands in
    /// `out[i·d..(i+1)·d]`) — release-for-release identical to it, and
    /// allocation-free in steady state for the paper mechanisms: routing
    /// is a hash and a map lookup, and the mechanism drives its whole
    /// amortized batch on preallocated scratch. Callers that feed one
    /// session in runs should hold one flat release buffer and drive this
    /// entry point.
    ///
    /// On error, `out` contents are unspecified.
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`], the mechanism's error (batches
    /// are rejected atomically), or a wrong-length buffer.
    pub fn observe_batch_into(
        &mut self,
        session_id: u64,
        batch: &[DataPoint],
        out: &mut [f64],
    ) -> Result<(), EngineError> {
        self.shard_mut(session_id).session_mut(session_id)?.observe_batch_into(batch, out)
    }

    /// Drive a mixed batch of arrivals across many sessions, in parallel
    /// across shards — the engine's high-throughput entry point.
    ///
    /// Points are grouped per session (preserving each session's arrival
    /// order) and fed through the mechanism's amortized
    /// `observe_batch`; shards run concurrently on scoped worker threads.
    /// The result vector is index-aligned with the input: `out[i]` is the
    /// estimator released for `points[i]`. A batch-level failure (unknown
    /// session, contract violation, overflow) is reported on every index
    /// of the affected session's group, which is consistent with the
    /// atomic batch-rejection contract.
    pub fn ingest(&mut self, points: Vec<(u64, DataPoint)>) -> Vec<Result<Vec<f64>, EngineError>> {
        let n = points.len();
        let mut groups = group_runs(points, self.shards.len());
        let parallel = self.run_parallel(groups.len());
        let work = self
            .shards
            .iter_mut()
            .enumerate()
            .filter_map(|(i, shard)| groups.remove(&i).map(|runs| (shard, runs)));
        let parts: Vec<Vec<IndexedRelease>> = if parallel {
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    work.map(|(shard, runs)| scope.spawn(move || shard.ingest(runs))).collect();
                handles.into_iter().map(|h| h.join().expect("ingest worker panicked")).collect()
            })
        } else {
            work.map(|(shard, runs)| shard.ingest(runs)).collect()
        };
        scatter(n, parts.into_iter().flatten())
    }

    /// Execute one wire-level [`Command`] against the engine, producing
    /// the same [`Reply`] the pipelined frontend would — both run the
    /// command through the same per-shard state machine. This is the
    /// dispatch point write-ahead-log replay
    /// ([`wal::recover`](crate::wal::recover) and
    /// [`EngineHandle::with_wal`](crate::EngineHandle::with_wal)) drives,
    /// so a replayed command stream lands on exactly the semantics of the
    /// original run.
    ///
    /// Failures come back as [`Reply::Err`] rather than `Result::Err`:
    /// replay must be able to reproduce a run's deterministic failures
    /// (a duplicate open, an over-horizon observe) without aborting.
    /// [`Command::Close`] is connection-scoped and a no-op here.
    pub fn apply(&mut self, cmd: &Command) -> Reply {
        match cmd.session_id() {
            Some(sid) => self.shard_mut(sid).apply(cmd),
            None => Reply::Closed,
        }
    }

    /// Dismantle the engine into its shards (recovery hands them to the
    /// pipelined workers).
    pub(crate) fn into_shards(self) -> Vec<Shard> {
        self.shards
    }

    /// Parallel execution pays off only when more than one shard has work.
    fn run_parallel(&self, busy_shards: usize) -> bool {
        self.config.parallel && busy_shards > 1
    }
}
