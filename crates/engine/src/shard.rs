//! One shard: a table of sessions executing [`Command`]s.
//!
//! [`Shard`] is the engine's only implementation of "a shard of sessions
//! executing commands". Three callers share it:
//!
//! - [`ShardedEngine`](crate::ShardedEngine) holds one `Shard` per hash
//!   partition, with neither a log nor a spill tier, and calls
//!   [`Shard::apply`] / [`Shard::ingest`] synchronously;
//! - recovery — [`wal::recover`](crate::wal::recover) and
//!   [`EngineHandle::with_wal`](crate::EngineHandle::with_wal) alike —
//!   replays a log into such an engine through the same `apply`;
//! - each pipelined shard worker owns one `Shard` with its log writer
//!   ([`ShardWal`]) and spill tier ([`SpillTier`]) attached, and turns
//!   every queued job into one call on it.
//!
//! Per command the order is fixed: restore the session if it was
//! spilled, log the command, execute it, settle the spill tier. A
//! command whose restore or append fails is answered with an error and
//! never executed, so the log is always a superset of what ran and
//! replay can never execute something the original run refused.

use crate::engine::shard_of;
use crate::error::EngineError;
use crate::ingress::{Command, Reply, SpillOptions, SpillShared, WalShared};
use crate::session::StreamSession;
use crate::spec::MechanismSpec;
use crate::storage::StorageHandle;
use crate::wal::{WalError, WalWriter};
use pir_dp::PrivacyParams;
use pir_erm::DataPoint;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One session's slice of an ingest batch: `(session id, original input
/// indices, points in arrival order)`.
pub(crate) type SessionRun = (u64, Vec<usize>, Vec<DataPoint>);

/// An ingest result tagged with the input index it answers.
pub(crate) type IndexedRelease = (usize, Result<Vec<f64>, EngineError>);

/// Group a mixed-tenant batch per shard, then per session, preserving
/// each session's arrival order; sessions within a shard keep the order
/// of their first arrival. Shards with no work are absent from the map.
/// The one grouping behind both
/// [`ShardedEngine::ingest`](crate::ShardedEngine::ingest) and
/// [`SubmitHandle::ingest`](crate::SubmitHandle::ingest).
pub(crate) fn group_runs(
    points: Vec<(u64, DataPoint)>,
    num_shards: usize,
) -> BTreeMap<usize, Vec<SessionRun>> {
    let mut first_seen = Vec::new();
    let mut by_session: HashMap<u64, SessionRun> = HashMap::new();
    for (i, (sid, z)) in points.into_iter().enumerate() {
        let run = by_session.entry(sid).or_insert_with(|| {
            first_seen.push(sid);
            (sid, Vec::new(), Vec::new())
        });
        run.1.push(i);
        run.2.push(z);
    }
    let mut per_shard: BTreeMap<usize, Vec<SessionRun>> = BTreeMap::new();
    for run in first_seen.into_iter().filter_map(|sid| by_session.remove(&sid)) {
        per_shard.entry(shard_of(run.0, num_shards)).or_default().push(run);
    }
    per_shard
}

/// Reassemble index-tagged results into input order: `out[i]` answers
/// input `i`. An index no part answers — a shard slice whose worker
/// died before replying — reads as [`EngineError::Closed`].
pub(crate) fn scatter(
    n: usize,
    parts: impl IntoIterator<Item = IndexedRelease>,
) -> Vec<Result<Vec<f64>, EngineError>> {
    let mut out: Vec<Result<Vec<f64>, EngineError>> =
        (0..n).map(|_| Err(EngineError::Closed)).collect();
    for (i, r) in parts {
        if let Some(slot) = out.get_mut(i) {
            *slot = r;
        }
    }
    out
}

/// One shard's sessions plus, on a pipelined worker, the shard's log
/// writer and spill tier. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Shard {
    /// Resident sessions, keyed by id (spilled ones live in `spill`).
    pub(crate) sessions: HashMap<u64, StreamSession>,
    /// The engine seed every session here derives its noise from.
    seed: u64,
    wal: Option<ShardWal>,
    spill: Option<SpillTier>,
}

impl Shard {
    /// An empty shard with no log and no spill tier.
    pub(crate) fn new(seed: u64) -> Self {
        Shard { sessions: HashMap::new(), seed, wal: None, spill: None }
    }

    /// Log every command from now on, before it executes.
    pub(crate) fn attach_wal(&mut self, wal: ShardWal) {
        self.wal = Some(wal);
    }

    /// Bound resident sessions by `tier`. A recovered shard can come up
    /// over its resident cap: the LRU is seeded in session-id order
    /// (deterministic) and the shard spills down to cap right away.
    pub(crate) fn attach_spill(&mut self, mut tier: SpillTier) {
        let mut ids: Vec<u64> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        for sid in ids {
            tier.touch(sid);
        }
        tier.enforce_cap(&mut self.sessions);
        tier.sync_resident(&self.sessions);
        self.spill = Some(tier);
    }

    /// The resident session `id`.
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`] if this shard holds no such session.
    pub(crate) fn session_mut(&mut self, id: u64) -> Result<&mut StreamSession, EngineError> {
        self.sessions.get_mut(&id).ok_or(EngineError::UnknownSession { id })
    }

    /// Spawn session `id` from `(engine seed, id)`.
    ///
    /// # Errors
    /// [`EngineError::DuplicateSession`] if the id is taken, or the
    /// spec's build error.
    pub(crate) fn open(
        &mut self,
        id: u64,
        spec: &MechanismSpec,
        t_max: usize,
        params: &PrivacyParams,
    ) -> Result<(), EngineError> {
        if self.sessions.contains_key(&id) {
            return Err(EngineError::DuplicateSession { id });
        }
        let session = StreamSession::spawn(id, spec, t_max, params, self.seed)?;
        self.sessions.insert(id, session);
        Ok(())
    }

    /// Run one command: restore its session if spilled, log it, execute
    /// it, settle the spill tier. Failures come back as [`Reply::Err`].
    pub(crate) fn apply(&mut self, cmd: &Command) -> Reply {
        let sid = cmd.session_id();
        let reply = match self.restore(sid).and_then(|()| self.log(cmd)) {
            Ok(()) => self.exec(cmd),
            Err(e) => Reply::Err(e),
        };
        self.settle(sid.as_slice());
        reply
    }

    /// Run one shard's slice of a mixed-tenant batch: each session run is
    /// one [`Command::ObserveBatch`] (the unit of queue admission is the
    /// unit of durability), and the whole slice is logged with one
    /// coalesced append — one write per segment stretch instead of one
    /// per run. A batch-level failure is reported on every index of the
    /// affected run.
    pub(crate) fn ingest(&mut self, runs: Vec<SessionRun>) -> Vec<IndexedRelease> {
        let touched: Vec<u64> =
            if self.spill.is_some() { runs.iter().map(|r| r.0).collect() } else { Vec::new() };
        let mut out = Vec::new();
        let mut cmds = Vec::with_capacity(runs.len());
        let mut run_indices = Vec::with_capacity(runs.len());
        for (sid, indices, points) in runs {
            // A run whose session cannot be restored is answered here and
            // left out of the logged batch (same reason as in `apply`).
            match self.restore(Some(sid)) {
                Ok(()) => {
                    cmds.push(Command::ObserveBatch { session_id: sid, points });
                    run_indices.push(indices);
                }
                Err(e) => out.extend(indices.into_iter().map(|i| (i, Err(e.clone())))),
            }
        }
        match self.log_batch(&cmds) {
            Ok(()) => {
                for (cmd, indices) in cmds.iter().zip(run_indices) {
                    match self.exec(cmd).into_releases() {
                        Ok(thetas) => {
                            out.extend(indices.into_iter().zip(thetas.into_iter().map(Ok)))
                        }
                        Err(e) => out.extend(indices.into_iter().map(|i| (i, Err(e.clone())))),
                    }
                }
            }
            // Nothing (or a poisoned prefix) reached the log: the whole
            // slice is un-executed.
            Err(e) => {
                for i in run_indices.into_iter().flatten() {
                    out.push((i, Err(e.clone())));
                }
            }
        }
        self.settle(&touched);
        out
    }

    /// Execute one command against the resident session table.
    fn exec(&mut self, cmd: &Command) -> Reply {
        match cmd {
            Command::Open { session_id, spec, t_max, params } => {
                match self.open(*session_id, spec, *t_max, params) {
                    Ok(()) => Reply::Opened { session_id: *session_id },
                    Err(e) => Reply::Err(e),
                }
            }
            Command::Observe { session_id, point } => {
                match self.session_mut(*session_id).and_then(|s| s.observe(point)) {
                    Ok(theta) => Reply::Releases { session_id: *session_id, thetas: vec![theta] },
                    Err(e) => Reply::Err(e),
                }
            }
            Command::ObserveBatch { session_id, points } => {
                match self.session_mut(*session_id).and_then(|s| s.observe_batch(points)) {
                    Ok(thetas) => Reply::Releases { session_id: *session_id, thetas },
                    Err(e) => Reply::Err(e),
                }
            }
            Command::Release { session_id } => match self.sessions.remove(session_id) {
                None => Reply::Err(EngineError::UnknownSession { id: *session_id }),
                Some(s) => {
                    let (epsilon_spent, delta_spent) = s.accountant().spent();
                    Reply::SessionReleased {
                        session_id: *session_id,
                        points: s.t() as u64,
                        epsilon_spent,
                        delta_spent,
                    }
                }
            },
            // Connection-scoped: resolved before any shard sees it.
            Command::Close => Reply::Closed,
        }
    }

    /// Cold-start `session_id` if the spill tier holds it. Runs before
    /// the command is logged: a command whose session cannot be restored
    /// must not reach the log, or replay would execute it into state the
    /// original run refused.
    fn restore(&mut self, session_id: Option<u64>) -> Result<(), EngineError> {
        match (self.spill.as_mut(), session_id) {
            (Some(tier), Some(sid)) => tier.restore_if_spilled(&mut self.sessions, self.seed, sid),
            _ => Ok(()),
        }
    }

    /// Append `cmd` to the shard's log, if it has one. An append failure
    /// means the command must **not** execute.
    fn log(&mut self, cmd: &Command) -> Result<(), EngineError> {
        self.wal.as_mut().map_or(Ok(()), |w| w.log(cmd))
    }

    /// [`log`](Self::log) for an ingest slice.
    fn log_batch(&mut self, cmds: &[Command]) -> Result<(), EngineError> {
        self.wal.as_mut().map_or(Ok(()), |w| w.log_batch(cmds))
    }

    /// Post-job spill bookkeeping: retire the pending entries the
    /// submitter published for this job, refresh the LRU, enforce the
    /// resident cap, and update the shared gauges. Runs *after* the job
    /// executed, which is exactly what makes the pending gate sound.
    fn settle(&mut self, touched: &[u64]) {
        let Some(tier) = self.spill.as_mut() else { return };
        for &sid in touched {
            tier.shared.pending_sub(tier.shard, sid);
            if self.sessions.contains_key(&sid) {
                tier.touch(sid);
            } else {
                tier.forget(sid);
            }
        }
        tier.enforce_cap(&mut self.sessions);
        tier.sync_resident(&self.sessions);
    }

    /// Take this shard's checkpoint cut: snapshot every session it owns
    /// — resident ones directly, spilled ones by reading their spill
    /// files (valid because eviction requires an idle session, and any
    /// later command would have restored it in-band first) — then cut
    /// the log chain. Runs between jobs, so the snapshots agree exactly
    /// with the log position the cut reports.
    pub(crate) fn cut(&mut self) -> Result<ShardCut, EngineError> {
        let Some(sw) = self.wal.as_mut() else {
            return Err(EngineError::InvalidConfig {
                reason: "checkpoint requires a write-ahead-logged engine (with_wal)".to_string(),
            });
        };
        let Some(w) = sw.writer.as_mut() else {
            // The writer was dropped by DegradeToUnlogged: this shard's
            // chain can no longer be cut, and a manifest claiming to
            // cover its unlogged commands would be a lie.
            return Err(EngineError::Wal {
                reason: "checkpoint unavailable: shard degraded to unlogged ingestion".to_string(),
            });
        };
        let mut snapshots = Vec::with_capacity(self.sessions.len());
        for session in self.sessions.values() {
            let blob = session.snapshot().map_err(|e| EngineError::Wal {
                reason: format!("session {:#018x}: {e}", session.id()),
            })?;
            snapshots.push(blob);
        }
        if let Some(tier) = &self.spill {
            for &sid in tier.spilled.keys() {
                let path = tier.file(sid);
                let blob = tier.storage.read(&path).map_err(|e| EngineError::Wal {
                    reason: format!("spilled session {}: {e}", path.display()),
                })?;
                snapshots.push(blob);
            }
        }
        let (epoch, next_seg_seq, next_record_seq) =
            w.cut().map_err(|e| EngineError::Wal { reason: e.to_string() })?;
        Ok(ShardCut { shard: w.shard(), epoch, next_seg_seq, next_record_seq, snapshots })
    }

    /// Clean shutdown: force the log to stable storage regardless of
    /// fsync policy, so a post-close purge (or replica copy) sees
    /// everything, and report `(live sessions, live points)`, spilled
    /// sessions included.
    pub(crate) fn finish(self) -> (usize, usize) {
        if let Some(w) = self.wal.and_then(|sw| sw.writer) {
            let _ = w.finish();
        }
        let (spilled_sessions, spilled_points) = self
            .spill
            .as_ref()
            .map_or((0, 0), |t| (t.spilled.len(), t.spilled.values().sum::<usize>()));
        let points = self.sessions.values().map(StreamSession::t).sum::<usize>() + spilled_points;
        (self.sessions.len() + spilled_sessions, points)
    }
}

/// One shard's contribution to a live checkpoint: a consistent cut of
/// its log chain plus a snapshot of every session it owns, taken at a
/// job boundary so the snapshots agree exactly with the cut's log
/// position.
pub(crate) struct ShardCut {
    pub(crate) shard: u32,
    pub(crate) epoch: u32,
    pub(crate) next_seg_seq: u32,
    pub(crate) next_record_seq: u32,
    pub(crate) snapshots: Vec<Vec<u8>>,
}

/// A shard's log writer plus its failure-policy state: whether an
/// exhausted retry envelope degrades the shard to unlogged ingestion
/// (the writer is dropped, `writer = None`), and the shared counters
/// that make either outcome observable through
/// [`SubmitHandle::wal_stats`](crate::SubmitHandle::wal_stats). Retry
/// itself lives inside [`WalWriter`]; this wrapper owns what happens
/// *after* the envelope is exhausted.
#[derive(Debug)]
pub(crate) struct ShardWal {
    /// `None` once the shard has degraded to unlogged ingestion.
    writer: Option<WalWriter>,
    shared: Arc<WalShared>,
    /// Whether exhaustion degrades (drop the writer, keep serving)
    /// instead of poisoning (every later append repeats the error).
    degrades: bool,
}

impl ShardWal {
    pub(crate) fn new(writer: WalWriter, shared: Arc<WalShared>, degrades: bool) -> Self {
        ShardWal { writer: Some(writer), shared, degrades }
    }

    /// Log one command (log-before-execute). On a degraded shard this
    /// counts the command as unlogged and succeeds — the engine keeps
    /// serving, loudly.
    fn log(&mut self, cmd: &Command) -> Result<(), EngineError> {
        self.append_with(1, |w| w.append(cmd))
    }

    /// [`log`](Self::log) for a coalesced ingest slice: one
    /// [`WalWriter::append_batch`], `cmds.len()` commands accounted.
    fn log_batch(&mut self, cmds: &[Command]) -> Result<(), EngineError> {
        self.append_with(cmds.len() as u64, |w| w.append_batch(cmds))
    }

    /// Run one append of `commands` commands and account for it in the
    /// shared counters.
    fn append_with(
        &mut self,
        commands: u64,
        append: impl FnOnce(&mut WalWriter) -> Result<(), WalError>,
    ) -> Result<(), EngineError> {
        let Some(w) = self.writer.as_mut() else {
            self.shared.unlogged_commands.fetch_add(commands, Ordering::Relaxed);
            return Ok(());
        };
        let before = w.appended_bytes();
        let outcome = append(w);
        let retries = w.take_retries();
        let logged = w.appended_bytes() - before;
        self.shared.retries.fetch_add(retries, Ordering::Relaxed);
        match outcome {
            Ok(()) => {
                self.shared.note_appended(logged, commands);
                Ok(())
            }
            Err(e) => Err(self.exhausted(e)),
        }
    }

    /// The retry envelope is exhausted. Under `DegradeToUnlogged` the
    /// writer is dropped and the shard serves on without durability;
    /// otherwise the poisoned writer stays, repeating the error. Either
    /// way the triggering command is **not** executed — the caller
    /// returns this error in-band, and log-before-execute holds.
    fn exhausted(&mut self, e: WalError) -> EngineError {
        if self.degrades {
            self.writer = None;
            self.shared.degraded_shards.fetch_add(1, Ordering::Relaxed);
            EngineError::Wal { reason: format!("wal degraded to unlogged ingestion: {e}") }
        } else {
            EngineError::Wal { reason: e.to_string() }
        }
    }
}

/// Name of the spill file holding `session_id`'s `PIRS` snapshot.
fn spill_file_name(session_id: u64) -> String {
    format!("session-{session_id:016x}.pirs")
}

/// Whether `name` is a spill file (for startup cleanup).
pub(crate) fn is_spill_file(name: &str) -> bool {
    name.strip_prefix("session-")
        .and_then(|rest| rest.strip_suffix(".pirs"))
        .is_some_and(|mid| mid.len() == 16 && mid.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// One shard's spill tier: an LRU over the shard's resident sessions
/// plus the ledger of what it has written to disk. Owned by the shard;
/// only the counters and pending maps are shared.
#[derive(Debug)]
pub(crate) struct SpillTier {
    dir: PathBuf,
    storage: StorageHandle,
    cap: usize,
    shard: usize,
    shared: Arc<SpillShared>,
    /// Monotonic use counter ordering the LRU.
    clock: u64,
    /// `use tick → session id`, oldest first (the eviction scan order).
    lru: BTreeMap<u64, u64>,
    /// `session id → its current use tick` (for O(log n) touches).
    ticks: HashMap<u64, u64>,
    /// `session id → t at spill` for every session currently on disk
    /// (the `t` lets shutdown stats count spilled points without disk
    /// reads).
    spilled: HashMap<u64, usize>,
    /// Resident count this tier last pushed into the shared gauge.
    last_resident: usize,
    scratch: Vec<u8>,
}

impl SpillTier {
    pub(crate) fn new(options: &SpillOptions, shard: usize, shared: Arc<SpillShared>) -> Self {
        SpillTier {
            dir: options.dir.clone(),
            storage: options.storage.clone(),
            cap: options.resident_cap,
            shard,
            shared,
            clock: 0,
            lru: BTreeMap::new(),
            ticks: HashMap::new(),
            spilled: HashMap::new(),
            last_resident: 0,
            scratch: Vec::new(),
        }
    }

    fn file(&self, session_id: u64) -> PathBuf {
        self.dir.join(spill_file_name(session_id))
    }

    /// Remove a spill file, counting (never surfacing) a failure: a
    /// leftover file is re-swept at the next startup, but an uncounted
    /// one would hide a sick disk from the stats snapshot.
    fn remove_spill_file(&self, path: &Path) {
        if self.storage.remove_file(path).is_err() {
            self.shared.remove_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Mark `session_id` most-recently-used.
    fn touch(&mut self, session_id: u64) {
        if let Some(old) = self.ticks.get(&session_id) {
            self.lru.remove(old);
        }
        self.clock += 1;
        self.lru.insert(self.clock, session_id);
        self.ticks.insert(session_id, self.clock);
    }

    /// Drop `session_id` from the LRU (released or spilled).
    fn forget(&mut self, session_id: u64) {
        if let Some(old) = self.ticks.remove(&session_id) {
            self.lru.remove(&old);
        }
    }

    /// If `session_id` is spilled, read it back, rebuild the session, and
    /// reinsert it — the transparent cold start on a spilled session's
    /// next command. A failure leaves the session table untouched.
    fn restore_if_spilled(
        &mut self,
        sessions: &mut HashMap<u64, StreamSession>,
        engine_seed: u64,
        session_id: u64,
    ) -> Result<(), EngineError> {
        if !self.spilled.contains_key(&session_id) {
            return Ok(());
        }
        let path = self.file(session_id);
        let bytes = self.storage.read(&path).map_err(|e| EngineError::Wal {
            reason: format!("spill restore {}: {e}", path.display()),
        })?;
        let session = StreamSession::restore(&bytes, engine_seed).map_err(|e| {
            EngineError::Wal { reason: format!("spill restore {}: {e}", path.display()) }
        })?;
        self.remove_spill_file(&path);
        self.spilled.remove(&session_id);
        self.shared.spilled.fetch_sub(1, Ordering::Relaxed);
        self.shared.restores.fetch_add(1, Ordering::Relaxed);
        sessions.insert(session_id, session);
        self.touch(session_id);
        Ok(())
    }

    /// Evict least-recently-used sessions until the shard is back under
    /// its resident cap. A victim is skipped — leaving the shard
    /// transiently over cap — when it has queued-but-unexecuted commands
    /// (see [`SpillShared`]'s pending maps), when its mechanism cannot
    /// snapshot, or when the spill write fails (counted, never fatal).
    fn enforce_cap(&mut self, sessions: &mut HashMap<u64, StreamSession>) {
        if sessions.len() <= self.cap {
            return;
        }
        let scan: Vec<(u64, u64)> = self.lru.iter().map(|(&tick, &sid)| (tick, sid)).collect();
        for (tick, sid) in scan {
            if sessions.len() <= self.cap {
                break;
            }
            let Some(session) = sessions.get(&sid) else {
                // LRU entry with no session: already released.
                self.lru.remove(&tick);
                self.ticks.remove(&sid);
                continue;
            };
            if self.shared.has_pending(self.shard, sid) || !session.supports_snapshot() {
                continue;
            }
            self.scratch.clear();
            if session.snapshot_into(&mut self.scratch).is_err() {
                self.shared.spill_failures.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let path = self.file(sid);
            // Not fsynced on purpose: the spill dir extends RAM and the
            // WAL owns durability. A torn spill file after a crash is
            // removed by the next startup's cleanup.
            if self.storage.write(&path, &self.scratch).is_err() {
                self.remove_spill_file(&path);
                self.shared.spill_failures.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let Some(session) = sessions.remove(&sid) else {
                // Unreachable in practice (the id was fetched from this
                // map above); treat as a failed spill rather than panic.
                self.remove_spill_file(&path);
                self.shared.spill_failures.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            self.spilled.insert(sid, session.t());
            self.forget(sid);
            self.shared.spills.fetch_add(1, Ordering::Relaxed);
            self.shared.spilled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Push this shard's resident count into the shared gauge as a delta
    /// (shards share one counter, so absolute stores would clobber each
    /// other).
    fn sync_resident(&mut self, sessions: &HashMap<u64, StreamSession>) {
        let now = sessions.len();
        match now.cmp(&self.last_resident) {
            std::cmp::Ordering::Greater => {
                self.shared.resident.fetch_add(now - self.last_resident, Ordering::Relaxed);
            }
            std::cmp::Ordering::Less => {
                self.shared.resident.fetch_sub(self.last_resident - now, Ordering::Relaxed);
            }
            std::cmp::Ordering::Equal => {}
        }
        self.last_resident = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos();
            let dir = std::env::temp_dir()
                .join(format!("pir-spill-{tag}-{}-{nanos}", std::process::id()));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn session(engine_seed: u64, sid: u64) -> StreamSession {
        let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
        StreamSession::spawn(sid, &MechanismSpec::reg1_l2(2), 64, &params, engine_seed).unwrap()
    }

    /// The stale-depth regression, pinned deterministically: a session
    /// with a queued-but-unexecuted command (a pending entry) must never
    /// be spilled, no matter how cold its LRU slot is — before the
    /// pending gate existed, an `ObserveBatch` could sit in the queue
    /// while its session was evicted underneath it.
    #[test]
    fn eviction_skips_sessions_with_pending_commands() {
        let dir = TempDir::new("pending-guard");
        let options =
            SpillOptions { dir: dir.0.clone(), resident_cap: 1, storage: StorageHandle::os() };
        let shared = Arc::new(SpillShared::new(1));
        let mut tier = SpillTier::new(&options, 0, Arc::clone(&shared));
        let mut sessions = HashMap::new();
        for sid in [1u64, 2, 3] {
            sessions.insert(sid, session(7, sid));
            tier.touch(sid);
        }
        // Session 1 is the coldest, but a submitter published a command
        // for it: the pass must skip it and spill 2 and 3 instead.
        shared.pending_add(0, [1]).unwrap();
        tier.enforce_cap(&mut sessions);
        assert!(sessions.contains_key(&1), "session with a queued command was spilled");
        assert!(!sessions.contains_key(&2) && !sessions.contains_key(&3));
        assert_eq!(tier.spilled.len(), 2);
        assert_eq!(shared.stats().spills, 2);
        // Retire the pending command: the next pass may spill it.
        shared.pending_sub(0, 1);
        tier.touch(99); // no such session — stale entries are skipped
        sessions.insert(4, session(7, 4));
        tier.touch(4);
        tier.enforce_cap(&mut sessions);
        assert!(!sessions.contains_key(&1), "idle coldest session must spill");
        assert!(sessions.contains_key(&4), "most-recently-used session stays resident");
    }

    /// A spilled session comes back exactly as it left: same stream
    /// position, file removed, counters advanced.
    #[test]
    fn spill_then_restore_round_trips_in_band() {
        let dir = TempDir::new("restore");
        let options =
            SpillOptions { dir: dir.0.clone(), resident_cap: 1, storage: StorageHandle::os() };
        let shared = Arc::new(SpillShared::new(1));
        let mut tier = SpillTier::new(&options, 0, Arc::clone(&shared));
        let mut sessions = HashMap::new();
        let mut cold = session(7, 5);
        cold.observe(&DataPoint::new(vec![0.4, 0.2], 0.3)).unwrap();
        let t_before = cold.t();
        sessions.insert(5, cold);
        tier.touch(5);
        sessions.insert(6, session(7, 6));
        tier.touch(6);
        tier.enforce_cap(&mut sessions);
        assert!(!sessions.contains_key(&5), "coldest session spills");
        assert!(tier.file(5).exists());
        tier.restore_if_spilled(&mut sessions, 7, 5).unwrap();
        assert_eq!(sessions[&5].t(), t_before);
        assert!(!tier.file(5).exists(), "restore consumes the spill file");
        let stats = shared.stats();
        assert_eq!((stats.spills, stats.restores, stats.spilled), (1, 1, 0));
    }

    /// A corrupted spill file surfaces as a typed error and leaves the
    /// session table untouched — never a panic, never a silently-wrong
    /// session.
    #[test]
    fn corrupt_spill_file_is_a_typed_error() {
        let dir = TempDir::new("corrupt");
        let options =
            SpillOptions { dir: dir.0.clone(), resident_cap: 1, storage: StorageHandle::os() };
        let shared = Arc::new(SpillShared::new(1));
        let mut tier = SpillTier::new(&options, 0, Arc::clone(&shared));
        let mut sessions = HashMap::new();
        sessions.insert(8, session(7, 8));
        tier.touch(8);
        sessions.insert(9, session(7, 9));
        tier.touch(9);
        tier.enforce_cap(&mut sessions);
        assert!(!sessions.contains_key(&8));
        let path = tier.file(8);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = tier.restore_if_spilled(&mut sessions, 7, 8).unwrap_err();
        assert!(matches!(err, EngineError::Wal { .. }), "got {err:?}");
        assert!(!sessions.contains_key(&8), "failed restore must not insert a session");
    }
}
