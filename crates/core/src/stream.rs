//! The streaming interface shared by all mechanisms.

use crate::{CoreError, Result};
use pir_erm::DataPoint;

/// The contract an observe call checks before it consumes anything, so a
/// rejected call leaves the mechanism as it was:
///
/// 1. `out_len`, the caller's release buffer if it passed one, holds one
///    `d`-vector per release: `d` for a single step, `points.len() · d`
///    for a batch;
/// 2. every point of `points` meets the §2 domain contract (a batch names
///    the index of the point it rejects);
/// 3. with `horizon = Some((t, T))`, the releases fit: `t + n ≤ T`.
///
/// A single step (`batch = false`) passes its point, or none when the
/// mechanism's own `observe` applies the contract. The checks allocate
/// only to describe a rejection, so the accepting path is allocation-free.
///
/// # Errors
/// [`CoreError::InvalidConfig`] for a wrong-length buffer,
/// [`CoreError::InvalidPoint`] for a contract violation and
/// [`CoreError::StreamOverflow`] past the horizon, in that order.
pub(crate) fn check_arrivals(
    d: usize,
    points: &[DataPoint],
    batch: bool,
    out_len: Option<usize>,
    horizon: Option<(usize, usize)>,
) -> Result<()> {
    let n = if batch { points.len() } else { 1 };
    if let Some(len) = out_len.filter(|&len| len != n * d) {
        let reason = if batch {
            format!("batch release buffer length {len} != {n} points x dimension {d}")
        } else {
            format!("release buffer length {len} != dimension {d}")
        };
        return Err(CoreError::InvalidConfig { reason });
    }
    for (i, z) in points.iter().enumerate() {
        z.validate(d).map_err(|e| CoreError::InvalidPoint {
            reason: if batch { format!("batch index {i}: {e}") } else { e.to_string() },
        })?;
    }
    match horizon {
        Some((t, t_max)) if t + n > t_max => Err(CoreError::StreamOverflow { t_max }),
        _ => Ok(()),
    }
}

/// A private incremental ERM mechanism: consumes the stream one point at a
/// time and releases an estimator after *every* arrival. The full release
/// sequence is what the `(ε, δ)` event-level guarantee covers
/// (Definition 4 of the paper).
///
/// Mechanisms are `Send` so the sharded engine (`pir-engine`) can move
/// sessions across worker threads; every in-tree implementation is plain
/// owned data and satisfies this automatically.
pub trait IncrementalMechanism: Send {
    /// Human-readable mechanism name (used in experiment tables).
    fn name(&self) -> String;

    /// Ambient dimension `d` of the estimators it releases.
    fn dim(&self) -> usize;

    /// Number of stream points consumed so far.
    fn t(&self) -> usize;

    /// Consume the next point `z_t = (x_t, y_t)` and release
    /// `θ_t^{priv} ∈ C`.
    ///
    /// # Errors
    /// Domain-contract violations, stream overflow, or internal failures.
    fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>>;

    /// [`observe`](IncrementalMechanism::observe) writing the release into
    /// a caller-provided buffer of length [`dim`](IncrementalMechanism::dim)
    /// — **release-for-release identical** to the allocating method (the
    /// law checked by `tests/into_paths.rs`).
    ///
    /// The default implementation checks `out` and delegates to `observe`
    /// and copies, so every implementor gets the API for free; the paper
    /// mechanisms
    /// ([`crate::PrivIncReg1`], [`crate::PrivIncReg2`]) override it as
    /// their *primitive* and run the whole step — tree updates, gradient
    /// assembly, descent — against mechanism-owned scratch, so a
    /// steady-state call performs **zero heap allocations**. This is the
    /// entry point the engine's per-session release buffers drive.
    ///
    /// On error, `out` contents are unspecified.
    ///
    /// ```
    /// use pir_core::{IncrementalMechanism, PrivIncReg1, PrivIncReg1Config};
    /// use pir_dp::{NoiseRng, PrivacyParams};
    /// use pir_erm::DataPoint;
    /// use pir_geometry::L2Ball;
    ///
    /// let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    /// let mut rng = NoiseRng::seed_from_u64(7);
    /// let mut mech = PrivIncReg1::new(
    ///     Box::new(L2Ball::unit(3)),
    ///     16,
    ///     &params,
    ///     &mut rng,
    ///     PrivIncReg1Config::default(),
    /// )
    /// .unwrap();
    ///
    /// // One reusable release buffer for the whole stream.
    /// let mut theta = vec![0.0; mech.dim()];
    /// for _ in 0..4 {
    ///     mech.observe_into(&DataPoint::new(vec![0.5, 0.1, 0.0], 0.3), &mut theta).unwrap();
    /// }
    /// assert!(theta.iter().all(|v| v.is_finite()));
    /// ```
    ///
    /// # Errors
    /// As [`observe`](IncrementalMechanism::observe); additionally a
    /// wrong-length `out` is rejected (with
    /// [`crate::CoreError::InvalidConfig`]) before the point is consumed.
    fn observe_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<()> {
        check_arrivals(self.dim(), &[], false, Some(out.len()), None)?;
        let theta = self.observe(z)?;
        out.copy_from_slice(&theta);
        Ok(())
    }

    /// Consume a batch of consecutive stream points and release one
    /// estimator per point — semantically the `batch.len()`-fold
    /// iteration of [`observe`](IncrementalMechanism::observe), and
    /// **release-for-release identical** to it for any valid batch (the
    /// batched-equals-sequential law checked by
    /// `tests/batch_equivalence.rs`).
    ///
    /// The default implementation validates every point up front and then
    /// loops.
    ///
    /// Batching tightens the failure contract: the *whole* batch is
    /// validated before anything is consumed, so a contract violation
    /// anywhere rejects the batch atomically (the sequential loop would
    /// consume the valid prefix first). The mechanisms with a horizon
    /// ([`crate::PrivIncReg1`], [`crate::PrivIncReg2`],
    /// [`crate::RobustPrivIncReg2`], [`crate::PrivIncErm`]) override it to
    /// also reject a batch that would overflow the horizon without
    /// consuming anything. On an empty batch this is a no-op returning an
    /// empty vector.
    ///
    /// # Errors
    /// Domain-contract violations anywhere in the batch, stream overflow,
    /// or internal failures.
    fn observe_batch(&mut self, batch: &[DataPoint]) -> Result<Vec<Vec<f64>>> {
        check_arrivals(self.dim(), batch, true, None, None)?;
        batch.iter().map(|z| self.observe(z)).collect()
    }

    /// [`observe_batch`](IncrementalMechanism::observe_batch) writing the
    /// releases into one caller-provided flat buffer of length
    /// `batch.len() · dim`, point `i`'s estimator landing in
    /// `out[i·d..(i+1)·d]` — **release-for-release identical** to the
    /// allocating batch method (and hence, by the batched-equals-
    /// sequential law, to the sequential loop).
    ///
    /// The default implementation validates the whole batch up front
    /// (keeping the atomic-rejection contract for contract violations)
    /// and then loops [`observe_into`](IncrementalMechanism::observe_into)
    /// over the chunks. The regression mechanisms override it as their
    /// batch *primitive*, writing every release straight into the
    /// caller's buffer — so a steady-state call performs **zero heap
    /// allocations** for any batch size (the invariant pinned by
    /// `tests/alloc_steady_state.rs`).
    ///
    /// On error, `out` contents are unspecified; the mechanisms with a
    /// horizon additionally reject overflowing batches atomically.
    ///
    /// # Errors
    /// As [`observe_batch`](IncrementalMechanism::observe_batch); a
    /// wrong-length `out` is rejected (with
    /// [`crate::CoreError::InvalidConfig`]) before anything is consumed.
    fn observe_batch_into(&mut self, batch: &[DataPoint], out: &mut [f64]) -> Result<()> {
        let d = self.dim();
        check_arrivals(d, batch, true, Some(out.len()), None)?;
        for (z, chunk) in batch.iter().zip(out.chunks_exact_mut(d)) {
            self.observe_into(z, chunk)?;
        }
        Ok(())
    }

    /// Whether this mechanism supports
    /// [`save_state`](IncrementalMechanism::save_state) /
    /// [`load_state`](IncrementalMechanism::load_state). The engine's
    /// spill tier uses this to decide *eligibility* cheaply: a session
    /// whose mechanism answers `false` is simply never evicted.
    fn supports_state(&self) -> bool {
        false
    }

    /// Append this mechanism's *dynamic* state to `out` as a
    /// self-delimiting byte blob (see [`crate::codec`] for the codec).
    /// Static configuration is deliberately excluded: a restore
    /// reconstructs the mechanism from its spec and seed first (which
    /// reproduces the constraint set, noise calibration, sketch matrix,
    /// and accountant charges deterministically) and then absorbs the
    /// blob. The contract, pinned by the engine's snapshot suites: after
    /// `load_state(save_state(m))` on a same-configured fresh instance,
    /// every future release is **bit-identical** to the original's.
    ///
    /// The default declines with [`crate::CoreError::StateUnsupported`]
    /// — mechanisms holding the full history ([`crate::PrivIncErm`]) or
    /// other non-serializable state simply opt out and stay resident.
    ///
    /// # Errors
    /// [`crate::CoreError::StateUnsupported`] unless overridden.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        let _ = out;
        Err(crate::CoreError::StateUnsupported { mechanism: self.name() })
    }

    /// Overwrite this mechanism's dynamic state from a blob produced by
    /// [`save_state`](IncrementalMechanism::save_state) on an instance
    /// with the same static configuration.
    ///
    /// On error the instance may be partially written: treat it as
    /// poisoned and drop it (the engine restores into a freshly spawned
    /// mechanism, so a failed load never touches a live session).
    ///
    /// # Errors
    /// [`crate::CoreError::InvalidState`] for truncated/forged/mismatched
    /// blobs; [`crate::CoreError::StateUnsupported`] unless overridden.
    fn load_state(&mut self, bytes: &[u8]) -> Result<()> {
        let _ = bytes;
        Err(crate::CoreError::StateUnsupported { mechanism: self.name() })
    }
}
