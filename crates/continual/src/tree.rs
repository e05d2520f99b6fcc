//! The Tree Mechanism for continual private release of vector sums
//! (Algorithm 4 / Appendix C of the paper).
//!
//! The stream `υ_1, …, υ_T ∈ R^d` is laid out at the leaves of a (virtual)
//! binary tree; every internal node stores the partial sum of the leaves
//! below it. Each prefix `[1, t]` decomposes into at most
//! `⌈log₂ T⌉ + 1` dyadic ranges, so the release `s_t` is the sum of that
//! many noisy node values — each perturbed once, when the node completes —
//! and each stream item contributes to at most `⌈log₂ T⌉ + 1` nodes.
//! Calibrating the per-node Gaussian noise to
//! `σ = √2 · log₂(T) · Δ₂ · √(ln(2/δ)) / ε` (the paper's Algorithm 4,
//! Step 8) makes the whole output sequence `(ε, δ)`-DP with respect to a
//! single-item change of the stream.
//!
//! Only the *active* partial sums are retained: the `popcount(t)` levels
//! whose bit is set in `t`. They sit on a stack, the lowest level on top,
//! and move in binary-counter order: a step pops the trailing-one levels
//! of `t − 1` and pushes the level they complete. One allocation reserves
//! room for all `⌈log₂ T⌉ + 1` levels, so the memory bound is the
//! `O(d log T)` Remark §1.1 highlights, but only the part the stack has
//! reached is ever written. A captured [`TreeState`] is a copy of the
//! stack.
//!
//! The release `s_t` is additionally maintained *incrementally*: when the
//! node at level `i` completes at time `t`, the prefix decomposition of
//! `t` differs from that of `t − 1` exactly by retiring the trailing-one
//! levels `b_0, …, b_{i−1}` of `t − 1` and adding the new `b_i` — the same
//! `O(log T)` bookkeeping trick the tree-aggregation literature applies to
//! Chan–Shi–Song/Dwork-style continual counters. The update loop already
//! walks those retiring levels, so keeping `s_t` current is amortized
//! `O(d)` per step and [`TreeMechanism::query`] is a plain copy instead of
//! an `O(d · popcount(t))` re-summation. The re-summation survives as
//! the test module's reference (and, coordinate-wise, as a debug-build
//! assertion on every update).

use crate::error::ContinualError;
use crate::Result;
use pir_dp::{NoiseRng, PrivacyParams};
use pir_linalg::vector;

/// Continual-release Tree Mechanism over `d`-dimensional vector streams.
///
/// ```
/// use pir_continual::TreeMechanism;
/// use pir_dp::{NoiseRng, PrivacyParams};
///
/// let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
/// let mut mech =
///     TreeMechanism::new(2, 8, 1.0, &params, NoiseRng::seed_from_u64(7)).unwrap();
/// // Stream vectors of norm ≤ 1; every update returns a private prefix sum.
/// let s1 = mech.update(&[0.6, 0.0]).unwrap();
/// let s2 = mech.update(&[0.0, 0.6]).unwrap();
/// assert_eq!(s2.len(), 2);
/// // Re-querying is free post-processing and returns the same release.
/// assert_eq!(mech.query(), s2);
/// # let _ = s1;
/// ```
#[derive(Debug)]
pub struct TreeMechanism {
    dim: usize,
    t_max: usize,
    levels: usize,
    /// Per-node Gaussian standard deviation.
    sigma: f64,
    /// Optional per-item L2-norm contract; violations are rejected.
    max_norm: Option<f64>,
    /// Declared L2-sensitivity `Δ₂` of the streaming sum.
    sensitivity: f64,
    /// Items consumed so far (`t`).
    t: usize,
    /// The live levels as a stack of `(a_j, b_j)` row pairs: the clean
    /// partial sum `a_j` (paper's notation), then the noisy one `b_j`.
    /// It holds the `popcount(t)` levels whose bit is set in `t`, the
    /// lowest on top (at the end). Its capacity, reserved at construction
    /// and never written ahead of the stack, is `levels` pairs.
    rows: Vec<f64>,
    /// Incrementally maintained release `s_t = Σ_{j: bit j of t set} b_j`,
    /// kept current by retiring/adding levels as nodes complete.
    s: Vec<f64>,
    rng: NoiseRng,
}

/// The dynamic state of a [`TreeMechanism`], captured for serialization.
///
/// Everything *not* here — dimension, horizon, `σ`, norm bound,
/// sensitivity — is static configuration reproduced by re-running the
/// constructor, so a snapshot only needs the live partial sums, the step
/// counter, and the 256-bit noise-generator state. The live partial sums
/// are the mechanism's stack, pair by pair: the `popcount(t)` levels
/// whose bit is set in `t`, read off `t` itself, so there is no level
/// mask to keep consistent with it. A mechanism that absorbs a captured
/// state continues its noise stream and release sequence bit-identically
/// (the law `tests` pin below and the engine's snapshot suites pin
/// end-to-end).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeState {
    /// Items consumed so far (`t`).
    pub t: usize,
    /// The live levels: for each set bit `j` of `t`, ascending, the clean
    /// partial sum `a_j` then the noisy one `b_j`, each of length `d` —
    /// `2 · popcount(t) · d` values in all.
    pub live: Vec<f64>,
    /// Incrementally maintained release `s_t` (length `d`).
    pub s: Vec<f64>,
    /// xoshiro256++ state of the node-noise generator.
    pub rng: [u64; 4],
}

/// `y ← y + α·Σ rows`, the rows folded in order through
/// [`vector::axpy_n`] three at a time: bit-identical to one
/// [`vector::axpy`] per row, in fewer passes over `y`.
fn axpy_rows<'r>(alpha: f64, mut rows: impl Iterator<Item = &'r [f64]>, y: &mut [f64]) {
    while let Some(x0) = rows.next() {
        match (rows.next(), rows.next()) {
            (Some(x1), Some(x2)) => vector::axpy_n(alpha, &[x0, x1, x2], y),
            (Some(x1), None) => vector::axpy_n(alpha, &[x0, x1], y),
            _ => vector::axpy(alpha, x0, y),
        }
    }
}

/// `⌈log₂ T⌉ + 1`, the number of tree levels (and the maximum number of
/// dyadic ranges in a prefix decomposition).
fn levels_for(t_max: usize) -> usize {
    if t_max <= 1 {
        1
    } else {
        (usize::BITS - (t_max - 1).leading_zeros()) as usize + 1
    }
}

impl TreeMechanism {
    /// Tree Mechanism with the paper's noise calibration for a stream whose
    /// items satisfy `‖υ_t‖₂ ≤ max_norm` (enforced on every update). Under
    /// replacement neighbors the streaming sum then has L2-sensitivity
    /// `Δ₂ = 2·max_norm`.
    ///
    /// # Errors
    /// [`ContinualError::Dp`] for invalid privacy parameters (the Gaussian
    /// calibration needs `δ > 0`) or a non-positive `max_norm`.
    pub fn new(
        dim: usize,
        t_max: usize,
        max_norm: f64,
        params: &PrivacyParams,
        rng: NoiseRng,
    ) -> Result<Self> {
        if !(max_norm.is_finite() && max_norm > 0.0) {
            return Err(ContinualError::Dp(pir_dp::DpError::InvalidSensitivity {
                value: max_norm,
            }));
        }
        let mut mech = Self::with_sensitivity(dim, t_max, 2.0 * max_norm, params, rng)?;
        mech.max_norm = Some(max_norm);
        Ok(mech)
    }

    /// Tree Mechanism from an explicit L2-sensitivity `Δ₂` of the streaming
    /// sum (the paper's `TREEMECH(ε, δ, Δ₂)` signature). No per-item norm
    /// enforcement is performed — the sensitivity contract is the caller's.
    ///
    /// Per-node noise is `σ = √2 · max(1, log₂ T) · Δ₂ · √(ln(2/δ)) / ε`,
    /// i.e. the standard deviation of the paper's
    /// `N(0, 2 log₂²(T) Δ₂² ln(2/δ)/ε² · I_d)` node perturbation.
    ///
    /// # Errors
    /// [`ContinualError::Dp`] on invalid `Δ₂` or privacy parameters.
    pub fn with_sensitivity(
        dim: usize,
        t_max: usize,
        sensitivity: f64,
        params: &PrivacyParams,
        rng: NoiseRng,
    ) -> Result<Self> {
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(ContinualError::Dp(pir_dp::DpError::InvalidSensitivity {
                value: sensitivity,
            }));
        }
        if params.delta() == 0.0 {
            return Err(ContinualError::Dp(pir_dp::DpError::InvalidParams {
                reason: "the Gaussian tree mechanism requires delta > 0".to_string(),
            }));
        }
        let log_t = (t_max.max(2) as f64).log2().max(1.0);
        let sigma = (2.0f64).sqrt() * log_t * sensitivity * (2.0 / params.delta()).ln().sqrt()
            / params.epsilon();
        Ok(Self::with_sigma_and_sensitivity(dim, t_max, sigma, sensitivity, rng))
    }

    /// Tree Mechanism with explicit per-node noise `σ` — the raw knob used
    /// by tests and ablations. `σ = 0` gives exact (non-private) prefix
    /// sums, the noiseless limit property tests rely on.
    pub fn with_sigma(dim: usize, t_max: usize, sigma: f64, rng: NoiseRng) -> Self {
        Self::with_sigma_and_sensitivity(dim, t_max, sigma, 0.0, rng)
    }

    fn with_sigma_and_sensitivity(
        dim: usize,
        t_max: usize,
        sigma: f64,
        sensitivity: f64,
        rng: NoiseRng,
    ) -> Self {
        let levels = levels_for(t_max);
        TreeMechanism {
            dim,
            t_max,
            levels,
            sigma,
            max_norm: None,
            sensitivity,
            t: 0,
            rows: Vec::with_capacity(2 * levels * dim),
            s: vec![0.0; dim],
            rng,
        }
    }

    /// Stream dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Declared horizon `T`.
    pub fn t_max(&self) -> usize {
        self.t_max
    }

    /// Items consumed so far.
    pub fn len(&self) -> usize {
        self.t
    }

    /// Whether no items have been consumed yet.
    pub fn is_empty(&self) -> bool {
        self.t == 0
    }

    /// Per-node noise standard deviation in use.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Number of tree levels `⌈log₂ T⌉ + 1`.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The stack's `(a_j, b_j)` pairs from the top: ascending by level.
    fn live_pairs(&self) -> impl Iterator<Item = &[f64]> {
        let (n, top) = (2 * self.dim, self.rows.len());
        (0..self.t.count_ones() as usize).map(move |k| &self.rows[top - n * (k + 1)..top - n * k])
    }

    /// Consume the next stream item and return the private prefix sum
    /// `s_t ≈ Σ_{i ≤ t} υ_i`.
    ///
    /// # Errors
    /// Rejects wrong-dimension, non-finite, over-horizon, and (when
    /// constructed via [`TreeMechanism::new`]) norm-violating items.
    pub fn update(&mut self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.dim];
        self.update_into(v, &mut out)?;
        Ok(out)
    }

    /// [`update`](TreeMechanism::update) writing the release into a
    /// caller-provided buffer — the allocation-free primitive every
    /// allocating entry point wraps, and release-for-release identical to
    /// it. This is what lets `pir-core`'s mechanisms (and through them the
    /// engine's steady-state observe path) consume a stream item without
    /// touching the heap.
    ///
    /// On error, `out` is untouched.
    ///
    /// ```
    /// use pir_continual::TreeMechanism;
    /// use pir_dp::NoiseRng;
    ///
    /// let mut mech = TreeMechanism::with_sigma(2, 8, 0.0, NoiseRng::seed_from_u64(7));
    /// let mut release = vec![0.0; 2];
    /// mech.update_into(&[0.5, 0.25], &mut release).unwrap();
    /// assert_eq!(release, vec![0.5, 0.25]);
    /// mech.update_into(&[0.5, 0.0], &mut release).unwrap();
    /// assert_eq!(release, vec![1.0, 0.25]);
    /// ```
    ///
    /// # Errors
    /// As [`update`](TreeMechanism::update), plus
    /// [`ContinualError::DimensionMismatch`] if `out.len() != dim`.
    pub fn update_into(&mut self, v: &[f64], out: &mut [f64]) -> Result<()> {
        self.validate_item(v)?;
        if out.len() != self.dim {
            return Err(ContinualError::DimensionMismatch { expected: self.dim, found: out.len() });
        }
        if self.t >= self.t_max {
            return Err(ContinualError::StreamOverflow { t_max: self.t_max });
        }
        self.update_unchecked_into(v, out);
        Ok(())
    }

    /// Consume a run of consecutive stream items, returning one private
    /// prefix-sum release per item — release-for-release identical to
    /// calling [`update`](TreeMechanism::update) in a loop (node noise is
    /// drawn in the same order), but with the contract checks hoisted out
    /// of the hot loop: the whole batch is validated (dimensions, finiteness,
    /// norm bound, horizon) before any node is touched, so a bad batch is
    /// rejected atomically without consuming stream capacity.
    ///
    /// This is the amortized entry point the `observe_batch` overrides in
    /// `pir-core` drive.
    ///
    /// # Errors
    /// Same conditions as [`update`](TreeMechanism::update); additionally
    /// [`ContinualError::StreamOverflow`] when the batch as a whole would
    /// exceed the horizon.
    pub fn update_batch(&mut self, items: &[&[f64]]) -> Result<Vec<Vec<f64>>> {
        let mut flat = vec![0.0; items.len() * self.dim];
        self.update_batch_into(items, &mut flat)?;
        Ok((0..items.len()).map(|i| flat[i * self.dim..(i + 1) * self.dim].to_vec()).collect())
    }

    /// [`update_batch`](TreeMechanism::update_batch) writing the releases
    /// into one flat row-major buffer (`items.len() × dim`) — the
    /// allocation-free primitive the allocating method wraps, with the
    /// same atomic-rejection contract. Release `i` lands in
    /// `out[i*dim..(i+1)*dim]`.
    ///
    /// On error, `out` is untouched.
    ///
    /// # Errors
    /// As [`update_batch`](TreeMechanism::update_batch), plus
    /// [`ContinualError::DimensionMismatch`] if
    /// `out.len() != items.len() * dim`.
    pub fn update_batch_into(&mut self, items: &[&[f64]], out: &mut [f64]) -> Result<()> {
        for v in items {
            self.validate_item(v)?;
        }
        if out.len() != items.len() * self.dim {
            return Err(ContinualError::DimensionMismatch {
                expected: items.len() * self.dim,
                found: out.len(),
            });
        }
        if self.t + items.len() > self.t_max {
            return Err(ContinualError::StreamOverflow { t_max: self.t_max });
        }
        for (i, v) in items.iter().enumerate() {
            self.update_unchecked_into(v, &mut out[i * self.dim..(i + 1) * self.dim]);
        }
        Ok(())
    }

    fn validate_item(&self, v: &[f64]) -> Result<()> {
        if v.len() != self.dim {
            return Err(ContinualError::DimensionMismatch { expected: self.dim, found: v.len() });
        }
        if !vector::is_finite(v) {
            return Err(ContinualError::NonFinite);
        }
        if let Some(bound) = self.max_norm {
            let n = vector::norm2(v);
            if n > bound * (1.0 + 1e-9) {
                return Err(ContinualError::NormBoundViolated { bound, found: n });
            }
        }
        Ok(())
    }

    /// One node-update step with all contract checks already done; the
    /// release is written into `out` (length pre-validated).
    fn update_unchecked_into(&mut self, v: &[f64], out: &mut [f64]) {
        self.advance_unchecked(v);
        out.copy_from_slice(&self.s);
    }

    /// One node-update step with all contract checks already done,
    /// maintaining the release in place without the `s → out` copy — the
    /// primitive both [`update_unchecked_into`](Self::update_unchecked_into)
    /// and the copy-free [`update_ref`](TreeMechanism::update_ref) wrap.
    fn advance_unchecked(&mut self, v: &[f64]) {
        let d = self.dim;
        self.t += 1;
        // i ← index of the lowest set bit of t (paper Step 3).
        let i = self.t.trailing_zeros() as usize;
        debug_assert!(i < self.levels, "bit index exceeds tree height");
        // The top i pairs of the stack hold levels 0..i, exactly the
        // trailing-one levels of t−1; level j's pair starts at `pair(j)`.
        let top = self.rows.len();
        let pair = |j: usize| top - 2 * d * (j + 1);
        // Their noisy nodes leave the prefix decomposition now: retire
        // them from the maintained release in one fused sweep.
        axpy_rows(-1.0, (0..i).map(|j| &self.rows[pair(j) + d..pair(j) + 2 * d]), &mut self.s);
        if i == 0 {
            // a_0 ← υ_t, pushed as a new pair (b_0 is written below).
            self.rows.extend_from_slice(v);
            self.rows.extend_from_slice(v);
        } else {
            // a_i ← υ_t + Σ_{j<i} a_j (paper Step 4), in that order, summed
            // in the retired b_0 row, then written over a_{i−1}: level i
            // takes the pair of level i − 1, and the pairs above it pop.
            let (low, b0) = self.rows.split_at_mut(top - d);
            b0.copy_from_slice(v);
            axpy_rows(1.0, (0..i).map(|j| &low[pair(j)..pair(j) + d]), b0);
            low[pair(i - 1)..pair(i - 1) + d].copy_from_slice(b0);
            self.rows.truncate(pair(i - 1) + 2 * d);
        }
        // b_i ← a_i + N(0, σ² I) (paper Step 8). Noise lands in b_i first
        // via the slice-filling sampler; adding a_i after is elementwise
        // commutative, so the distribution (and determinism) are unchanged.
        let at = self.rows.len() - 2 * d;
        let (a, b) = self.rows[at..].split_at_mut(d);
        if self.sigma > 0.0 {
            self.rng.fill_gaussian(b, self.sigma);
            vector::axpy(1.0, a, b);
        } else {
            b.copy_from_slice(a);
        }
        // Bit i of t is set (t has i trailing zeros): the fresh node joins
        // the decomposition, completing s_{t-1} → s_t in amortized O(d).
        vector::axpy(1.0, b, &mut self.s);
        self.debug_check_against_resummed();
    }

    /// [`update_into`](TreeMechanism::update_into) returning a borrow of
    /// the maintained release instead of copying it out — the copy-free
    /// primitive the batch-amortized `observe_batch` paths in `pir-core`
    /// drive: the mechanism reads the private prefix sum exactly where it
    /// is maintained, saving an `O(d)` (or `O(d²)`, for matrix-shaped
    /// streams) copy per point. Release-for-release identical to
    /// [`update`](TreeMechanism::update).
    ///
    /// # Errors
    /// As [`update`](TreeMechanism::update).
    pub fn update_ref(&mut self, v: &[f64]) -> Result<&[f64]> {
        self.validate_item(v)?;
        if self.t >= self.t_max {
            return Err(ContinualError::StreamOverflow { t_max: self.t_max });
        }
        self.advance_unchecked(v);
        Ok(&self.s)
    }

    /// Borrow the maintained release `s_t` without copying — the
    /// query-side counterpart of [`update_ref`](TreeMechanism::update_ref)
    /// (pure post-processing, like [`query`](TreeMechanism::query)).
    pub fn release_view(&self) -> &[f64] {
        &self.s
    }

    /// Debug-build invariant: the incrementally maintained release agrees
    /// with the level re-summation reference up to floating-point drift.
    /// Allocation-free (coordinate-wise re-summation) so the steady-state
    /// allocation audit holds in debug builds too.
    #[inline]
    fn debug_check_against_resummed(&self) {
        #[cfg(debug_assertions)]
        for k in 0..self.dim {
            let mut reference = 0.0;
            let mut scale = 1.0f64;
            for pair in self.live_pairs() {
                let b = pair[self.dim + k];
                reference += b;
                scale = scale.max(b.abs());
            }
            // Drift per step is O(ε_machine · ‖b‖); scale the tolerance by
            // the magnitude of the active nodes so large-σ trees don't trip
            // it spuriously.
            debug_assert!(
                (reference - self.s[k]).abs() <= 1e-9 * scale.max(reference.abs()),
                "incremental release diverged from re-summation at t={}, coord {k}: {} vs {reference}",
                self.t,
                self.s[k]
            );
        }
    }

    /// Current private prefix sum `s_t` (pure post-processing; free of
    /// privacy cost). A copy of the incrementally maintained release — `O(d)`
    /// regardless of `popcount(t)`. Returns the zero vector before any
    /// update.
    pub fn query(&self) -> Vec<f64> {
        self.s.clone()
    }

    /// [`query`](TreeMechanism::query) writing into a caller-provided
    /// buffer; value-for-value identical to it.
    ///
    /// # Errors
    /// [`ContinualError::DimensionMismatch`] if `out.len() != dim`.
    pub fn query_into(&self, out: &mut [f64]) -> Result<()> {
        if out.len() != self.dim {
            return Err(ContinualError::DimensionMismatch { expected: self.dim, found: out.len() });
        }
        self.query_unchecked_into(out);
        Ok(())
    }

    fn query_unchecked_into(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.s);
    }

    /// The pre-incremental release computation: re-sum the noisy partial
    /// sums of the `popcount(t)` levels in the prefix decomposition of `t`.
    /// Kept as the `O(d · popcount(t))` reference that the maintained
    /// release is checked against (debug builds assert agreement on every
    /// update; the incremental-release proptests below pin it).
    #[cfg(test)]
    fn release_resummed(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.dim];
        for pair in self.live_pairs() {
            vector::axpy(1.0, &pair[self.dim..], &mut s);
        }
        s
    }

    /// Proposition C.1 error bound: with probability at least `1 − β`,
    /// `‖s_t − Σ υ_i‖ ≤ σ √(levels) (√d + √(2 ln(1/β)))` — at most
    /// `levels` noisy nodes enter any release, each `N(0, σ² I_d)`.
    pub fn error_bound(&self, beta: f64) -> f64 {
        debug_assert!(beta > 0.0 && beta < 1.0);
        self.sigma
            * (self.levels as f64).sqrt()
            * ((self.dim as f64).sqrt() + (2.0 * (1.0 / beta).ln()).sqrt())
    }

    /// Declared L2-sensitivity `Δ₂` (0 when constructed via `with_sigma`).
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// Reserved memory in `f64` slots (`2 · levels · d` for the partial
    /// sums plus `d` for the maintained release): the `O(d log T)` space
    /// claim of Appendix C. It bounds what is touched, not what is: of the
    /// partial sums, only the `2 · popcount(t) · d` slots of the deepest
    /// stack so far have been written.
    pub fn memory_slots(&self) -> usize {
        2 * self.levels * self.dim + self.dim
    }

    /// Capture the dynamic state (step counter, live partial sums,
    /// maintained release, noise-generator state) for serialization —
    /// `O(d · popcount(t))`, not `O(d log T)`. Pair with
    /// [`restore_state`](TreeMechanism::restore_state).
    pub fn export_state(&self) -> TreeState {
        let live = self.live_pairs().collect::<Vec<_>>().concat();
        TreeState { t: self.t, live, s: self.s.clone(), rng: self.rng.state() }
    }

    /// Overwrite this mechanism's dynamic state with a previously captured
    /// one: its live rows become the stack. The mechanism must have been
    /// constructed with the same static configuration (dimension, horizon)
    /// as the one the state came from; afterwards its releases and noise
    /// stream continue bit-identically from the captured point.
    ///
    /// On error, the mechanism is untouched.
    ///
    /// # Errors
    /// [`ContinualError::InvalidState`] if `t` exceeds the horizon, the
    /// release is not `d` long, the live rows are not `popcount(t)`
    /// pairs of `d`-vectors, or any value is non-finite.
    pub fn restore_state(&mut self, state: &TreeState) -> Result<()> {
        if state.t > self.t_max {
            return Err(ContinualError::InvalidState {
                reason: format!("t = {} exceeds horizon T = {}", state.t, self.t_max),
            });
        }
        if state.s.len() != self.dim {
            return Err(ContinualError::InvalidState {
                reason: format!(
                    "release dimension mismatch (expected {}, found {})",
                    self.dim,
                    state.s.len()
                ),
            });
        }
        let rows = state.t.count_ones() as usize;
        if state.live.len() != 2 * rows * self.dim {
            return Err(ContinualError::InvalidState {
                reason: format!(
                    "t = {} has {rows} live levels, i.e. {} values in dimension {}; found {}",
                    state.t,
                    2 * rows * self.dim,
                    self.dim,
                    state.live.len()
                ),
            });
        }
        if !vector::is_finite(&state.live) || !vector::is_finite(&state.s) {
            return Err(ContinualError::InvalidState {
                reason: "tree state contains NaN/infinite entries".to_string(),
            });
        }
        // t ≤ t_max has at most `levels` set bits, so the stack fits its
        // reserved capacity.
        let d = self.dim;
        self.rows.clear();
        for k in (0..rows).rev() {
            self.rows.extend_from_slice(&state.live[2 * d * k..2 * d * (k + 1)]);
        }
        self.t = state.t;
        self.s.copy_from_slice(&state.s);
        self.rng = NoiseRng::from_state(state.rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> NoiseRng {
        NoiseRng::seed_from_u64(1234)
    }

    fn params() -> PrivacyParams {
        PrivacyParams::approx(1.0, 1e-5).unwrap()
    }

    #[test]
    fn levels_formula() {
        assert_eq!(levels_for(1), 1);
        assert_eq!(levels_for(2), 2);
        assert_eq!(levels_for(3), 3);
        assert_eq!(levels_for(4), 3);
        assert_eq!(levels_for(8), 4);
        assert_eq!(levels_for(9), 5);
        assert_eq!(levels_for(1024), 11);
    }

    #[test]
    fn noiseless_tree_returns_exact_prefix_sums() {
        let mut mech = TreeMechanism::with_sigma(3, 16, 0.0, rng());
        let mut acc = vec![0.0; 3];
        for t in 1..=16usize {
            let v = vec![t as f64, -(t as f64), 0.5];
            vector::axpy(1.0, &v, &mut acc);
            let s = mech.update(&v).unwrap();
            assert!(vector::distance(&s, &acc) < 1e-9, "t={t}");
            // query() agrees with the update's return value.
            assert!(vector::distance(&mech.query(), &s) < 1e-12);
        }
    }

    #[test]
    fn noisy_tree_error_stays_within_bound() {
        let mut mech = TreeMechanism::new(4, 64, 1.0, &params(), rng()).unwrap();
        let bound = mech.error_bound(0.001);
        let mut acc = vec![0.0; 4];
        let mut max_err: f64 = 0.0;
        let mut item_rng = NoiseRng::seed_from_u64(7);
        for _ in 0..64 {
            let v = item_rng.unit_sphere(4);
            vector::axpy(1.0, &v, &mut acc);
            let s = mech.update(&v).unwrap();
            max_err = max_err.max(vector::distance(&s, &acc));
        }
        assert!(max_err <= bound, "max_err {max_err} > bound {bound}");
        assert!(max_err > 0.0, "noise should actually be injected");
    }

    #[test]
    fn update_validations() {
        let mut mech = TreeMechanism::new(2, 2, 1.0, &params(), rng()).unwrap();
        assert!(matches!(mech.update(&[1.0]), Err(ContinualError::DimensionMismatch { .. })));
        assert!(matches!(mech.update(&[f64::NAN, 0.0]), Err(ContinualError::NonFinite)));
        assert!(matches!(
            mech.update(&[3.0, 4.0]), // norm 5 > 1
            Err(ContinualError::NormBoundViolated { .. })
        ));
        mech.update(&[0.6, 0.0]).unwrap();
        mech.update(&[0.0, 0.6]).unwrap();
        assert!(matches!(mech.update(&[0.1, 0.1]), Err(ContinualError::StreamOverflow { .. })));
    }

    #[test]
    fn constructor_validations() {
        assert!(TreeMechanism::new(2, 8, 0.0, &params(), rng()).is_err());
        assert!(TreeMechanism::with_sensitivity(2, 8, -1.0, &params(), rng()).is_err());
        let pure = PrivacyParams::new(1.0, 0.0).unwrap();
        assert!(TreeMechanism::with_sensitivity(2, 8, 1.0, &pure, rng()).is_err());
    }

    #[test]
    fn sigma_matches_paper_formula() {
        let p = params();
        let mech = TreeMechanism::with_sensitivity(1, 1024, 2.0, &p, rng()).unwrap();
        let expect = (2.0f64).sqrt() * 10.0 * 2.0 * (2.0f64 / 1e-5).ln().sqrt() / 1.0;
        assert!((mech.sigma() - expect).abs() < 1e-9);
    }

    #[test]
    fn memory_is_logarithmic_in_t() {
        let m1 = TreeMechanism::with_sigma(10, 1 << 10, 0.0, rng());
        let m2 = TreeMechanism::with_sigma(10, 1 << 20, 0.0, rng());
        // Doubling the exponent roughly doubles (not squares) the footprint.
        assert!(m2.memory_slots() <= 2 * m1.memory_slots() + 2 * 10);
    }

    #[test]
    fn noise_reuse_is_consistent_across_queries() {
        // Repeated query() calls must return the *same* release (noise is
        // attached to nodes, not redrawn per query) — otherwise averaging
        // queries would wash out the privacy noise.
        let mut mech = TreeMechanism::new(2, 8, 1.0, &params(), rng()).unwrap();
        mech.update(&[0.5, 0.5]).unwrap();
        let q1 = mech.query();
        let q2 = mech.query();
        assert_eq!(q1, q2);
    }

    #[test]
    fn maintained_release_agrees_with_resummation() {
        let mut mech = TreeMechanism::new(3, 64, 1.0, &params(), rng()).unwrap();
        let mut item_rng = NoiseRng::seed_from_u64(11);
        let mut v = vec![0.0; 3];
        for t in 1..=64usize {
            item_rng.unit_sphere_into(&mut v);
            let s = mech.update(&v).unwrap();
            let reference = mech.release_resummed();
            let scale = reference.iter().fold(1.0f64, |m, x| m.max(x.abs()));
            for (a, b) in s.iter().zip(&reference) {
                assert!((a - b).abs() <= 1e-9 * scale, "t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn t_equal_one_horizon() {
        let mut mech = TreeMechanism::with_sigma(1, 1, 0.0, rng());
        let s = mech.update(&[5.0]).unwrap();
        assert_eq!(s, vec![5.0]);
        assert!(mech.update(&[1.0]).is_err());
    }

    #[test]
    fn export_restore_continues_bit_identically() {
        // Run a live tree and a restored clone side by side from an
        // arbitrary mid-stream point (odd t, so several levels are active):
        // every future release must match bit-for-bit.
        let mut live = TreeMechanism::new(3, 64, 1.0, &params(), rng()).unwrap();
        let mut item_rng = NoiseRng::seed_from_u64(55);
        for _ in 0..21 {
            live.update(&item_rng.unit_sphere(3)).unwrap();
        }
        let state = live.export_state();
        let mut restored = TreeMechanism::new(3, 64, 1.0, &params(), rng()).unwrap();
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.len(), 21);
        assert_eq!(restored.query(), live.query());
        for _ in 21..64 {
            let v = item_rng.unit_sphere(3);
            assert_eq!(live.update(&v).unwrap(), restored.update(&v).unwrap());
        }
    }

    #[test]
    fn export_carries_only_the_live_levels() {
        let mut mech = TreeMechanism::with_sigma(2, 64, 1.0, rng());
        for t in 1..=64usize {
            mech.update(&[0.5, -0.25]).unwrap();
            let state = mech.export_state();
            assert_eq!(state.live.len(), 2 * t.count_ones() as usize * 2, "t={t}");
            assert_eq!(state.live, mech.stack_from_top(), "t={t}");
        }
    }

    #[test]
    fn restore_over_a_deeper_stack_leaves_exactly_the_restored_rows() {
        // Restore a t = 4 state (one live level, 2) over a mechanism at
        // t = 3 (levels 0 and 1 live): the stack shrinks to that one row
        // pair, and the next step continues from it.
        let mut src = TreeMechanism::with_sigma(2, 8, 1.0, rng());
        let mut dst = TreeMechanism::with_sigma(2, 8, 1.0, NoiseRng::seed_from_u64(9));
        for _ in 0..4 {
            src.update(&[0.5, 0.5]).unwrap();
        }
        for _ in 0..3 {
            dst.update(&[0.25, 0.0]).unwrap();
        }
        dst.restore_state(&src.export_state()).unwrap();
        assert_eq!(dst.rows.len(), 2 * 2);
        assert_eq!(dst.stack_from_top(), src.stack_from_top());
        assert_eq!(dst.update(&[0.5, 0.0]).unwrap(), src.update(&[0.5, 0.0]).unwrap());
        assert_eq!(dst.stack_from_top(), src.stack_from_top());
    }

    #[test]
    fn a_full_width_horizon_updates() {
        // T > 2⁶³ gives 65 levels, one more than t has bits; the debug
        // re-summation check must not shift past the word.
        let mut mech = TreeMechanism::with_sigma(2, usize::MAX, 0.0, rng());
        assert_eq!(mech.levels(), 65);
        for t in 1..=8u32 {
            let s = mech.update(&[0.5, -0.5]).unwrap();
            assert_eq!(s, vec![0.5 * f64::from(t), -0.5 * f64::from(t)]);
        }
        assert_eq!(mech.rows.len(), 2 * 2);
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let mut mech = TreeMechanism::new(2, 8, 1.0, &params(), rng()).unwrap();
        for _ in 0..3 {
            mech.update(&[0.5, 0.0]).unwrap();
        }
        let good = mech.export_state();
        let fresh = || TreeMechanism::new(2, 8, 1.0, &params(), rng()).unwrap();

        let mut s = good.clone();
        s.t = 9; // past the horizon
        assert!(matches!(fresh().restore_state(&s), Err(ContinualError::InvalidState { .. })));

        let mut s = good.clone();
        s.t = 7; // three live levels, but two rows carried
        assert!(matches!(fresh().restore_state(&s), Err(ContinualError::InvalidState { .. })));

        let mut s = good.clone();
        s.t = 4; // one live level, but two rows carried
        assert!(matches!(fresh().restore_state(&s), Err(ContinualError::InvalidState { .. })));

        let mut s = good.clone();
        s.live.pop(); // a ragged row
        assert!(matches!(fresh().restore_state(&s), Err(ContinualError::InvalidState { .. })));

        let mut s = good.clone();
        s.s.push(0.0); // wrong dim
        assert!(matches!(fresh().restore_state(&s), Err(ContinualError::InvalidState { .. })));

        let mut s = good.clone();
        s.live[3] = f64::INFINITY;
        assert!(matches!(fresh().restore_state(&s), Err(ContinualError::InvalidState { .. })));

        let mut s = good.clone();
        s.s[0] = f64::NAN;
        assert!(matches!(fresh().restore_state(&s), Err(ContinualError::InvalidState { .. })));

        // A failed restore leaves the mechanism usable.
        let mut m = fresh();
        let mut s = good.clone();
        s.t = 100;
        assert!(m.restore_state(&s).is_err());
        assert_eq!(m.len(), 0);
        m.update(&[0.5, 0.0]).unwrap();
    }

    #[test]
    fn error_bound_grows_polylog_in_t() {
        let p = params();
        let m_small = TreeMechanism::with_sensitivity(4, 1 << 6, 2.0, &p, rng()).unwrap();
        let m_large = TreeMechanism::with_sensitivity(4, 1 << 12, 2.0, &p, rng()).unwrap();
        let ratio = m_large.error_bound(0.01) / m_small.error_bound(0.01);
        // log^{3/2} scaling: (12/6)^{3/2} ≈ 2.83 ≪ (2^12/2^6)^{1/2} = 8.
        assert!(ratio < 4.0, "ratio {ratio}");
        assert!(ratio > 1.5, "ratio {ratio}");
    }

    /// The full-level layout the stack replaced: one `(a_j, b_j)` pair
    /// per level, written in place, consumed levels zeroed. The reference
    /// for what the stack must hold.
    struct LevelModel {
        t: usize,
        a: Vec<Vec<f64>>,
        b: Vec<Vec<f64>>,
        sigma: f64,
        rng: NoiseRng,
    }

    impl LevelModel {
        fn new(d: usize, t_max: usize, sigma: f64, rng: NoiseRng) -> Self {
            let levels = levels_for(t_max);
            LevelModel {
                t: 0,
                a: vec![vec![0.0; d]; levels],
                b: vec![vec![0.0; d]; levels],
                sigma,
                rng,
            }
        }

        fn update(&mut self, v: &[f64]) {
            self.t += 1;
            let i = self.t.trailing_zeros() as usize;
            let (low, high) = self.a.split_at_mut(i);
            high[0].copy_from_slice(v);
            for aj in low.iter_mut() {
                vector::axpy(1.0, aj, &mut high[0]);
                aj.fill(0.0);
            }
            self.b[..i].iter_mut().for_each(|bj| bj.fill(0.0));
            if self.sigma > 0.0 {
                self.rng.fill_gaussian(&mut self.b[i], self.sigma);
                vector::axpy(1.0, &self.a[i], &mut self.b[i]);
            } else {
                self.b[i].copy_from_slice(&self.a[i]);
            }
        }

        /// `a_j`, `b_j` for each set bit `j` of `t`, ascending.
        fn live(&self) -> Vec<f64> {
            (0..self.a.len())
                .filter(|&j| self.t >> j & 1 == 1)
                .flat_map(|j| self.a[j].iter().chain(&self.b[j]).copied())
                .collect()
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    impl TreeMechanism {
        /// The stack read from the top: `a_j`, `b_j` for each live level
        /// `j`, ascending.
        fn stack_from_top(&self) -> Vec<f64> {
            self.live_pairs().flatten().copied().collect()
        }
    }

    // The stack's invariant: at every step it holds exactly the
    // `popcount(t)` live levels, ascending from the top, bit for bit what
    // the full-level layout holds in those levels, within the capacity
    // reserved at construction; and that is what `export_state` carries.
    // A restore over a deeper stack leaves exactly the restored rows.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn the_stack_holds_exactly_the_live_levels(
            seed in any::<u64>(),
            d in 1usize..6,
            t_max in 1usize..80,
            noiseless in any::<bool>(),
            sigma in 0.0f64..40.0,
        ) {
            let sigma = if noiseless { 0.0 } else { sigma };
            let mut mech = TreeMechanism::with_sigma(d, t_max, sigma, NoiseRng::seed_from_u64(seed));
            let mut model = LevelModel::new(d, t_max, sigma, NoiseRng::seed_from_u64(seed));
            // A deeper stack to restore over: t = 2^k − 1 ≤ T has the most
            // live levels any t ≤ T can have.
            let deepest = (1usize << (usize::BITS - 1 - (t_max + 1).leading_zeros())) - 1;
            let mut deep = TreeMechanism::with_sigma(d, t_max, sigma, NoiseRng::seed_from_u64(!seed));
            for _ in 0..deepest {
                deep.update(&vec![0.5 / d as f64; d]).unwrap();
            }
            let deep_state = deep.export_state();
            let reserved = mech.rows.capacity();
            prop_assert!(reserved >= 2 * mech.levels * d);
            let mut item_rng = NoiseRng::seed_from_u64(seed ^ 0x5EED);
            for t in 1..=t_max {
                let v: Vec<f64> = (0..d).map(|_| item_rng.uniform_in(-1.0, 1.0)).collect();
                mech.update(&v).unwrap();
                model.update(&v);
                prop_assert_eq!(mech.rows.len(), 2 * t.count_ones() as usize * d, "t={}", t);
                prop_assert_eq!(mech.rows.capacity(), reserved, "t={}", t);
                prop_assert_eq!(bits(&mech.stack_from_top()), bits(&model.live()), "t={}", t);
                let state = mech.export_state();
                prop_assert_eq!(bits(&state.live), bits(&model.live()), "t={}", t);

                deep.restore_state(&deep_state).unwrap();
                prop_assert!(deep.rows.len() >= mech.rows.len());
                deep.restore_state(&state).unwrap();
                prop_assert_eq!(bits(&deep.rows), bits(&mech.rows), "t={}", t);
                prop_assert_eq!(deep.export_state(), state);
            }
        }
    }

    // The incremental-release law: the maintained `s_t` that `update`
    // returns (and `query` copies) must agree with the
    // `O(d · popcount(t))` level re-summation reference
    // (`release_resummed`) at every `t` — across random streams, noise
    // scales, and horizons. Agreement is up to floating-point drift
    // only: retiring a level subtracts the exact `b_j` that was added,
    // so the two paths differ by re-association, never by value.

    /// Assert coordinate-wise agreement with a tolerance scaled to the active
    /// nodes' magnitude (large σ inflates `b_j` without inflating the paper's
    /// release, so an absolute tolerance would be wrong on both sides).
    fn assert_matches_reference(mech: &TreeMechanism, maintained: &[f64], t: usize) {
        let reference = mech.release_resummed();
        let scale = reference.iter().chain(maintained).fold(1.0f64, |m, x| m.max(x.abs()))
            * mech.sigma().max(1.0);
        for (k, (r, m)) in reference.iter().zip(maintained).enumerate() {
            assert!(
                (r - m).abs() <= 1e-9 * scale,
                "t={t} coord {k}: maintained {m} vs resummed {r}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn incremental_release_equals_resummation(
            seed in any::<u64>(),
            d in 1usize..8,
            log_t in 1usize..7,
            sigma in 0.0f64..50.0,
        ) {
            let t_max = 1usize << log_t;
            let mut mech = TreeMechanism::with_sigma(d, t_max, sigma, NoiseRng::seed_from_u64(seed));
            let mut item_rng = NoiseRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
            let mut release = vec![0.0; d];
            for t in 1..=t_max {
                let v: Vec<f64> = (0..d).map(|_| item_rng.uniform_in(-1.0, 1.0)).collect();
                mech.update_into(&v, &mut release).unwrap();
                assert_matches_reference(&mech, &release, t);
                // query() is the same maintained vector.
                prop_assert_eq!(mech.query(), release.clone());
            }
        }

        #[test]
        fn incremental_release_equals_resummation_private_calibration(
            seed in any::<u64>(),
            log_t in 2usize..6,
        ) {
            // Same law through the paper-calibrated constructor (norm-bounded
            // items, σ from (ε, δ)) — σ here is orders of magnitude larger than
            // the signal, which is exactly where naive tolerance choices break.
            let p = PrivacyParams::approx(0.5, 1e-7).unwrap();
            let d = 3;
            let t_max = 1usize << log_t;
            let mut mech =
                TreeMechanism::new(d, t_max, 1.0, &p, NoiseRng::seed_from_u64(seed)).unwrap();
            let mut item_rng = NoiseRng::seed_from_u64(seed ^ 0xC3C3_3C3C);
            let mut v = vec![0.0; d];
            for t in 1..=t_max {
                item_rng.unit_sphere_into(&mut v);
                let release = mech.update(&v).unwrap();
                assert_matches_reference(&mech, &release, t);
            }
        }
    }

    /// Long-stream drift check: 4096 updates cross every retire pattern up to
    /// 12 trailing ones; the maintained release must not accumulate visible
    /// floating-point drift relative to re-summation.
    #[test]
    fn no_visible_drift_over_long_streams() {
        let mut mech = TreeMechanism::with_sigma(2, 1 << 12, 25.0, NoiseRng::seed_from_u64(99));
        let mut item_rng = NoiseRng::seed_from_u64(100);
        let mut release = vec![0.0; 2];
        for t in 1..=(1usize << 12) {
            let v = [item_rng.uniform_in(-1.0, 1.0), item_rng.uniform_in(-1.0, 1.0)];
            mech.update_into(&v, &mut release).unwrap();
            assert_matches_reference(&mech, &release, t);
        }
    }
}
