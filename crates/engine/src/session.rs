//! One user stream: a mechanism plus its privacy ledger.

use crate::error::EngineError;
use crate::snapshot::{self, SnapshotError};
use crate::spec::MechanismSpec;
use pir_core::IncrementalMechanism;
use pir_dp::{NoiseRng, PrivacyAccountant, PrivacyParams};
use pir_erm::DataPoint;

/// One independent private stream served by the engine: a paper mechanism
/// together with the [`PrivacyAccountant`] guarding its `(ε, δ)` budget.
///
/// The accountant is defense in depth: the mechanisms pre-split their
/// budgets analytically, so the session records a single up-front charge
/// covering the whole release sequence and the ledger makes any future
/// double-spend (e.g. respawning a mechanism on the same budget) an error
/// instead of a silent privacy failure.
pub struct StreamSession {
    id: u64,
    seed_fingerprint: u64,
    spec: MechanismSpec,
    t_max: usize,
    mech: Box<dyn IncrementalMechanism>,
    accountant: PrivacyAccountant,
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("id", &self.id)
            .field("mechanism", &self.mech.name())
            .field("t", &self.mech.t())
            .field("spent", &self.accountant.spent())
            .finish()
    }
}

impl StreamSession {
    /// Spawn a session: derive the per-session noise seed from
    /// `engine_seed` (via `session_seed` in `engine.rs` — never shard
    /// count or spawn order), materialize the spec's mechanism for
    /// streams of length up to `t_max` under `params`, and charge the
    /// accountant for the whole release sequence (skipped for the
    /// non-private baselines, which spend nothing). The session also
    /// records [`snapshot::seed_fingerprint`] so snapshots can prove
    /// which engine seed they were taken under.
    ///
    /// # Errors
    /// [`EngineError::Mechanism`] if the mechanism constructor rejects
    /// the configuration.
    pub fn spawn(
        id: u64,
        spec: &MechanismSpec,
        t_max: usize,
        params: &PrivacyParams,
        engine_seed: u64,
    ) -> Result<Self, EngineError> {
        let mut rng = NoiseRng::seed_from_u64(crate::engine::session_seed(engine_seed, id));
        let mech = spec.build(t_max, params, &mut rng)?;
        let mut accountant = PrivacyAccountant::new(*params);
        if spec.is_private() {
            accountant.charge(mech.name(), *params)?;
        }
        Ok(StreamSession {
            id,
            seed_fingerprint: snapshot::seed_fingerprint(engine_seed, id),
            spec: spec.clone(),
            t_max,
            mech,
            accountant,
        })
    }

    /// Session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The spec the session was opened with.
    pub(crate) fn spec(&self) -> &MechanismSpec {
        &self.spec
    }

    /// Name of the mechanism serving this stream.
    pub fn mechanism_name(&self) -> String {
        self.mech.name()
    }

    /// Ambient dimension of the released estimators.
    pub fn dim(&self) -> usize {
        self.mech.dim()
    }

    /// Stream points consumed so far.
    pub fn t(&self) -> usize {
        self.mech.t()
    }

    /// The session's privacy ledger.
    pub fn accountant(&self) -> &PrivacyAccountant {
        &self.accountant
    }

    /// The underlying mechanism (for evaluation-harness access).
    pub fn mechanism(&self) -> &dyn IncrementalMechanism {
        self.mech.as_ref()
    }

    /// Consume one stream point, releasing the next private estimator.
    ///
    /// # Errors
    /// [`EngineError::Mechanism`] on contract violations or overflow.
    pub fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>, EngineError> {
        Ok(self.mech.observe(z)?)
    }

    /// [`observe`](StreamSession::observe) writing the release into a
    /// caller-provided buffer of length [`dim`](StreamSession::dim) —
    /// release-for-release identical to it. With a paper mechanism behind
    /// it this is allocation-free in steady state: the mechanism runs the
    /// whole step on its own preallocated scratch, so a caller that reuses
    /// one release buffer per session observes points without any heap
    /// traffic (the invariant pinned by `tests/alloc_steady_state.rs`).
    ///
    /// On error, `out` contents are unspecified.
    ///
    /// # Errors
    /// [`EngineError::Mechanism`] on contract violations, overflow, or a
    /// wrong-length buffer.
    pub fn observe_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<(), EngineError> {
        Ok(self.mech.observe_into(z, out)?)
    }

    /// Consume a run of consecutive stream points through the mechanism's
    /// amortized batch path, releasing one estimator per point.
    ///
    /// # Errors
    /// [`EngineError::Mechanism`] on contract violations anywhere in the
    /// batch (rejected atomically) or overflow.
    pub fn observe_batch(&mut self, batch: &[DataPoint]) -> Result<Vec<Vec<f64>>, EngineError> {
        Ok(self.mech.observe_batch(batch)?)
    }

    /// [`observe_batch`](StreamSession::observe_batch) writing the
    /// releases into one caller-provided flat buffer of length
    /// `batch.len() · dim` — release-for-release identical to it. With a
    /// paper mechanism behind it this is the zero-allocation batch entry
    /// point: the mechanism hoists its per-batch constants and writes
    /// every release straight into the caller's buffer (the invariant
    /// pinned by `tests/alloc_steady_state.rs`).
    ///
    /// On error, `out` contents are unspecified.
    ///
    /// # Errors
    /// [`EngineError::Mechanism`] on contract violations anywhere in the
    /// batch (rejected atomically), overflow, or a wrong-length buffer.
    pub fn observe_batch_into(
        &mut self,
        batch: &[DataPoint],
        out: &mut [f64],
    ) -> Result<(), EngineError> {
        Ok(self.mech.observe_batch_into(batch, out)?)
    }

    /// Whether this session can be captured by [`snapshot`]
    /// (StreamSession::snapshot): the mechanism exports resumable state
    /// and the spec is serializable. False for `PRIVINCERM` (its state is
    /// the full observed history) and for specs with custom set factories.
    pub fn supports_snapshot(&self) -> bool {
        self.mech.supports_state() && self.spec.is_codable()
    }

    /// Append a `PIRS` snapshot of this session to `out` — everything
    /// needed by [`restore`](StreamSession::restore) to resume the stream
    /// bit-identically on an engine with the same seed. Only the live
    /// tree levels are written (`O(d² · popcount(t))` bytes for
    /// `PRIVINCREG1`); the sketch matrix and other construction-time
    /// randomness are reproduced from the seed rather than serialized. On error
    /// `out` is left at its original length.
    ///
    /// # Errors
    /// [`SnapshotError::Unsupported`] when
    /// [`supports_snapshot`](StreamSession::supports_snapshot) is false.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
        let budget = self.accountant.budget();
        let (spent_epsilon, spent_delta) = self.accountant.spent();
        snapshot::encode_into(
            out,
            &snapshot::SnapshotBody {
                session_id: self.id,
                seed_fingerprint: self.seed_fingerprint,
                t_max: self.t_max as u64,
                t: self.mech.t() as u64,
                epsilon: budget.epsilon(),
                delta: budget.delta(),
                spent_epsilon,
                spent_delta,
                spec: &self.spec,
            },
            |state| {
                self.mech
                    .save_state(state)
                    .map_err(|e| SnapshotError::Unsupported { reason: e.to_string() })
            },
        )
    }

    /// [`snapshot_into`](StreamSession::snapshot_into) into a fresh
    /// buffer.
    ///
    /// # Errors
    /// As [`snapshot_into`](StreamSession::snapshot_into).
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out)?;
        Ok(out)
    }

    /// Rebuild a session from a `PIRS` blob: decode and validate the
    /// snapshot, respawn the mechanism deterministically from
    /// `engine_seed` (the owning [`EngineConfig::seed`] — construction
    /// randomness such as Mechanism 2's sketch matrix is a pure function
    /// of it and the session id), overlay the dynamic state, and verify
    /// the rebuilt session agrees with the snapshot's recorded step count
    /// and privacy ledger bit-for-bit.
    ///
    /// The engine seed is part of the durability contract: restoring
    /// under a *different* seed would silently change construction-time
    /// randomness such as Mechanism 2's sketch even though the trees
    /// carry their own serialized RNG state. The snapshot's recorded
    /// [`seed_fingerprint`](snapshot::seed_fingerprint) is therefore
    /// checked against the one `engine_seed` implies before anything is
    /// rebuilt, and a mismatch fails loudly as
    /// [`SnapshotError::SeedMismatch`].
    ///
    /// # Errors
    /// Any [`SnapshotError`] from decoding;
    /// [`SnapshotError::SeedMismatch`] for a wrong-seeded engine;
    /// [`SnapshotError::Restore`] when the session cannot be rebuilt or
    /// disagrees with the recorded `t`/ledger.
    ///
    /// [`EngineConfig::seed`]: crate::engine::EngineConfig
    pub fn restore(bytes: &[u8], engine_seed: u64) -> Result<StreamSession, SnapshotError> {
        let snap = snapshot::decode(bytes)?;
        let expected = snapshot::seed_fingerprint(engine_seed, snap.session_id);
        if snap.seed_fingerprint != expected {
            return Err(SnapshotError::SeedMismatch { expected, got: snap.seed_fingerprint });
        }
        let t_max = usize::try_from(snap.t_max).map_err(|_| SnapshotError::Malformed {
            reason: format!("t_max {} overflows usize", snap.t_max),
        })?;
        if snap.t > snap.t_max {
            return Err(SnapshotError::Malformed {
                reason: format!("t {} exceeds t_max {}", snap.t, snap.t_max),
            });
        }
        let params = PrivacyParams::new(snap.epsilon, snap.delta)
            .map_err(|e| SnapshotError::Malformed { reason: format!("privacy params: {e}") })?;
        let mut session =
            StreamSession::spawn(snap.session_id, &snap.spec, t_max, &params, engine_seed)
                .map_err(|e| SnapshotError::Restore { reason: e.to_string() })?;
        session
            .mech
            .load_state(snap.state)
            .map_err(|e| SnapshotError::Restore { reason: e.to_string() })?;
        if session.mech.t() as u64 != snap.t {
            return Err(SnapshotError::Restore {
                reason: format!(
                    "restored mechanism reports t = {}, snapshot recorded {}",
                    session.mech.t(),
                    snap.t
                ),
            });
        }
        let (spent_epsilon, spent_delta) = session.accountant.spent();
        if spent_epsilon.to_bits() != snap.spent_epsilon.to_bits()
            || spent_delta.to_bits() != snap.spent_delta.to_bits()
        {
            return Err(SnapshotError::Restore {
                reason: format!(
                    "privacy ledger diverged: respawn spent ({spent_epsilon}, {spent_delta}), \
                     snapshot recorded ({}, {})",
                    snap.spent_epsilon, snap.spent_delta
                ),
            });
        }
        Ok(session)
    }
}
