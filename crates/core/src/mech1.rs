//! Algorithm 2 — `PRIVINCREG1`: private incremental linear regression via
//! the Tree Mechanism and a private gradient function.
//!
//! Per timestep `t`:
//! 1. feed `x_t y_t` (a `d`-vector of norm ≤ 1) into one Tree Mechanism
//!    and `x_t x_tᵀ` (a `d²`-vector of Frobenius norm ≤ 1) into another,
//!    each at budget `(ε/2, δ/2)` — L2-sensitivity 2 per stream;
//! 2. assemble the private gradient function
//!    `g_t(θ) = 2(Q_t θ − q_t)` (Definition 5) with Lemma 4.1's error
//!    bound `α ≈ κ‖C‖(√d + √log(1/β))`;
//! 3. run `NOISYPROJGRAD(C, g_t, r)` with the Corollary B.2 iteration rule
//!    `r = (1 + L_t/α)²` (clamped to a compute cap — DESIGN.md, dec. 5).
//!
//! Every release is post-processing of the two tree outputs, so the whole
//! output sequence is `(ε, δ)`-DP (Theorem A.3 over the two trees).
//! Memory: `O(d² log T)` — logarithmic in the stream length.

use crate::codec::{self, Dec, Enc};
use crate::descent::{minimize_private_objective_into, DescentScratch, DescentStrategy};
use crate::error::CoreError;
use crate::stream::IncrementalMechanism;
use crate::Result;
use pir_continual::TreeMechanism;
use pir_dp::{NoiseRng, PrivacyParams};
use pir_erm::DataPoint;
use pir_geometry::ConvexSet;
use pir_linalg::{vector, Matrix};

/// Tuning knobs for [`PrivIncReg1`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivIncReg1Config {
    /// Confidence parameter `β` used inside the error bounds (Def. 1).
    pub beta: f64,
    /// Cap on the Corollary B.2 iteration count `r` per timestep.
    pub max_pgd_iters: usize,
    /// Warm-start the per-step descent from the previous release (any
    /// start in `C` is admissible for Proposition B.1; warm starts only
    /// help in practice).
    pub warm_start: bool,
    /// Per-timestep minimization strategy (see [`DescentStrategy`]).
    pub strategy: DescentStrategy,
}

impl Default for PrivIncReg1Config {
    fn default() -> Self {
        PrivIncReg1Config {
            beta: 0.05,
            max_pgd_iters: 64,
            warm_start: true,
            strategy: DescentStrategy::default(),
        }
    }
}

/// The Tree-Mechanism-based private incremental regression mechanism
/// (Algorithm 2, Theorem 4.2).
#[derive(Debug)]
pub struct PrivIncReg1 {
    set: Box<dyn ConvexSet>,
    t_max: usize,
    config: PrivIncReg1Config,
    tree_xy: TreeMechanism,
    tree_xx: TreeMechanism,
    last_theta: Vec<f64>,
    scratch: Reg1Scratch,
    t: usize,
}

/// Mechanism-owned step buffers, preallocated once at construction and
/// reused every timestep so the steady-state
/// [`observe_into`](IncrementalMechanism::observe_into) path performs zero
/// heap allocations. The tree outputs are written straight into `q_t` /
/// `q_mat` — the `d²` `Matrix::from_vec` copy (with its redundant
/// finiteness re-validation of already-validated data) that every step
/// used to pay is gone.
#[derive(Debug, Clone)]
struct Reg1Scratch {
    /// `x_t·y_t` — the first-moment stream item.
    xy: Vec<f64>,
    /// `x_t x_tᵀ` — the second-moment stream item.
    outer: Matrix,
    /// Second-moment tree release `Q_t` (symmetrized in place).
    q_mat: Matrix,
    /// All-zeros cold start for `warm_start: false`.
    zero_start: Vec<f64>,
    /// Ridged-surrogate and iteration buffers for the per-step descent.
    descent: DescentScratch,
}

impl Reg1Scratch {
    fn new(d: usize) -> Self {
        Reg1Scratch {
            xy: vec![0.0; d],
            outer: Matrix::zeros(d, d),
            q_mat: Matrix::zeros(d, d),
            zero_start: vec![0.0; d],
            descent: DescentScratch::new(d),
        }
    }
}

impl PrivIncReg1 {
    /// Build the mechanism for streams of length up to `t_max` under the
    /// total budget `params`, constrained to `set`.
    ///
    /// # Errors
    /// Invalid privacy parameters (the Gaussian trees need `δ > 0`).
    pub fn new(
        set: Box<dyn ConvexSet>,
        t_max: usize,
        params: &PrivacyParams,
        rng: &mut NoiseRng,
        config: PrivIncReg1Config,
    ) -> Result<Self> {
        if t_max == 0 {
            return Err(CoreError::InvalidConfig { reason: "t_max must be positive".into() });
        }
        let d = set.dim();
        let half = params.halve();
        // ‖x y‖ ≤ 1 and ‖x xᵀ‖_F = ‖x‖² ≤ 1 under the §2 normalization,
        // so both streams have per-item norm bound 1 (sensitivity 2).
        let tree_xy = TreeMechanism::new(d, t_max, 1.0, &half, rng.fork())?;
        let tree_xx = TreeMechanism::new(d * d, t_max, 1.0, &half, rng.fork())?;
        let last_theta = set.project(&vec![0.0; d]);
        let scratch = Reg1Scratch::new(d);
        Ok(PrivIncReg1 { set, t_max, config, tree_xy, tree_xx, last_theta, scratch, t: 0 })
    }

    /// The constraint set.
    pub fn set(&self) -> &dyn ConvexSet {
        self.set.as_ref()
    }

    /// Spectral-norm error bound of the noisy second-moment release: the
    /// noise is a sum of at most `levels` i.i.d. Gaussian `d×d` matrices
    /// with per-entry deviation `σ`, so by Proposition A.1 its spectral
    /// norm is `O(σ·√levels·(2√d + √log(1/β)))` w.p. `≥ 1 − β`. (The
    /// generic tree bound would give the Frobenius norm, `≈ d` instead of
    /// `≈ √d` — Lemma 4.1's `√d` rests on exactly this sharpening.)
    fn matrix_spectral_error(&self, beta: f64) -> f64 {
        let d = self.set.dim() as f64;
        let levels = self.tree_xx.levels() as f64;
        self.tree_xx.sigma() * levels.sqrt() * (2.0 * d.sqrt() + (2.0 * (1.0 / beta).ln()).sqrt())
    }

    /// Lemma 4.1 gradient-error bound `α` at the configured `β`, split
    /// across the two trees and union-bounded over the horizon.
    pub fn gradient_alpha(&self) -> f64 {
        let beta_each = self.config.beta / (2.0 * self.t_max as f64);
        let me = self.matrix_spectral_error(beta_each);
        let ve = self.tree_xy.error_bound(beta_each);
        2.0 * (me * self.set.diameter() + ve)
    }

    /// Theorem 4.2 excess-risk bound (up to the universal constant):
    /// `κ‖C‖²(√d + √log(T/β))·√levels` with
    /// `κ = log^{3/2}T·√log(1/δ)/ε` folded into the tree error bounds.
    pub fn risk_bound(&self) -> f64 {
        // Excess ≤ 2α‖C‖ by Corollary B.2 given the gradient oracle.
        2.0 * self.gradient_alpha() * self.set.diameter()
    }

    /// Reserved memory in `f64` slots — `O(d² log T)`. The trees write only
    /// the levels their stacks have reached, so what is resident is
    /// `O(d² · popcount)` for the largest `popcount(t)` seen so far (see
    /// [`TreeMechanism::memory_slots`](pir_continual::TreeMechanism::memory_slots)).
    pub fn memory_slots(&self) -> usize {
        self.tree_xx.memory_slots() + self.tree_xy.memory_slots()
    }

    /// The `t`-independent ingredients of Lemma 4.1's error bound —
    /// `(me, α)`, functions of the tree geometry (σ, levels, d) only, so
    /// the batch paths compute them once per batch.
    fn error_ingredients(&self) -> (f64, f64) {
        let beta_each = self.config.beta / (2.0 * self.t_max as f64);
        let me = self.matrix_spectral_error(beta_each);
        let alpha = self.gradient_alpha().max(1e-12);
        (me, alpha)
    }

    /// Contract sweep + overflow check for a batch, before anything is
    /// consumed (the atomic-rejection contract of `observe_batch`).
    fn check_batch(&self, batch: &[DataPoint]) -> Result<()> {
        let d = self.set.dim();
        for (i, z) in batch.iter().enumerate() {
            z.validate(d)
                .map_err(|e| CoreError::InvalidPoint { reason: format!("batch index {i}: {e}") })?;
        }
        if self.t + batch.len() > self.t_max {
            return Err(CoreError::StreamOverflow { t_max: self.t_max });
        }
        Ok(())
    }

    /// Consume one already-validated point (Steps 3–6 of Algorithm 2) and
    /// write the release into `out` — the allocation-free per-point body
    /// shared by the step and batch paths. The first-moment release is
    /// *borrowed* from the tree via [`TreeMechanism::update_ref`] — read
    /// where the tree maintains it instead of copied out — and the descent
    /// runs on preallocated iteration buffers against borrowed views of
    /// both statistics. (The second-moment release still lands in scratch:
    /// it must be symmetrized, which the tree's internal accumulator may
    /// not be.) The tree outputs are trusted internal data: every
    /// ingredient was validated on ingest (see Matrix::from_vec_trusted
    /// for the policy), so no per-step finiteness re-scan happens.
    fn consume_into(&mut self, z: &DataPoint, me: f64, alpha: f64, out: &mut [f64]) -> Result<()> {
        self.t += 1;
        vector::scaled_copy_into(z.y, &z.x, &mut self.scratch.xy);
        let q_t = self.tree_xy.update_ref(&self.scratch.xy)?;
        self.scratch.outer.set_outer(&z.x, &z.x).map_err(CoreError::Linalg)?;
        self.tree_xx
            .update_into(self.scratch.outer.as_slice(), self.scratch.q_mat.as_mut_slice())?;
        // Step 5: the private gradient function g(θ) = 2(Q θ − q) over the
        // symmetrized release, with Lemma 4.1's α.
        self.scratch.q_mat.symmetrize_mut();
        // Step 6: minimize over C — either the paper-literal NOISYPROJGRAD
        // or the (default) ridged-quadratic FISTA; both are post-processing
        // of the released statistics (see crate::descent).
        let lipschitz = 2.0 * self.t as f64 * (1.0 + self.set.diameter());
        let warm: &[f64] =
            if self.config.warm_start { &self.last_theta } else { &self.scratch.zero_start };
        minimize_private_objective_into(
            self.config.strategy,
            &self.scratch.q_mat,
            q_t,
            &self.set,
            me,
            alpha,
            lipschitz,
            self.config.max_pgd_iters,
            warm,
            &mut self.scratch.descent,
            out,
        );
        self.last_theta.copy_from_slice(out);
        Ok(())
    }

    /// One Algorithm-2 step, written into `out` — the allocation-free
    /// primitive behind both `observe` and `observe_into`. Steady state
    /// (default strategy) touches the heap zero times: the first-moment
    /// release is borrowed from the tree, the second lands in
    /// mechanism-owned scratch, and the descent runs on preallocated
    /// iteration buffers against borrowed views of the statistics.
    fn step_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<()> {
        let d = self.set.dim();
        if out.len() != d {
            return Err(CoreError::InvalidConfig {
                reason: format!("release buffer length {} != dimension {d}", out.len()),
            });
        }
        z.validate(d).map_err(|e| CoreError::InvalidPoint { reason: e.to_string() })?;
        if self.t >= self.t_max {
            return Err(CoreError::StreamOverflow { t_max: self.t_max });
        }
        let (me, alpha) = self.error_ingredients();
        self.consume_into(z, me, alpha, out)
    }

    /// Shared validation for [`IncrementalMechanism::load_state`]: the
    /// step counters of the blob and both trees must agree (every step
    /// feeds both trees exactly once) and the warm-start iterate must be
    /// a finite `d`-vector.
    fn check_state(&self, t: usize, last_theta: &[f64], xy_t: usize, xx_t: usize) -> Result<()> {
        if t > self.t_max {
            return Err(CoreError::InvalidState {
                reason: format!("t = {t} exceeds horizon T = {}", self.t_max),
            });
        }
        if xy_t != t || xx_t != t {
            return Err(CoreError::InvalidState {
                reason: format!(
                    "tree step counters ({xy_t}, {xx_t}) disagree with mechanism t = {t}"
                ),
            });
        }
        if last_theta.len() != self.set.dim() {
            return Err(CoreError::InvalidState {
                reason: format!(
                    "warm-start iterate has dimension {} (expected {})",
                    last_theta.len(),
                    self.set.dim()
                ),
            });
        }
        if !vector::is_finite(last_theta) {
            return Err(CoreError::InvalidState {
                reason: "warm-start iterate contains NaN/infinite entries".to_string(),
            });
        }
        Ok(())
    }
}

impl IncrementalMechanism for PrivIncReg1 {
    fn name(&self) -> String {
        "priv-inc-reg-1 (tree mechanism)".to_string()
    }

    fn dim(&self) -> usize {
        self.set.dim()
    }

    fn t(&self) -> usize {
        self.t
    }

    fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.set.dim()];
        self.step_into(z, &mut out)?;
        Ok(out)
    }

    fn observe_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<()> {
        self.step_into(z, out)
    }

    /// Amortized batch path — release-for-release identical to the
    /// sequential loop (each point runs the same per-point body, against
    /// the same tree states, in the same order):
    ///
    /// 1. one contract sweep + overflow check over the batch (atomic
    ///    rejection);
    /// 2. the `t`-independent error bounds (`α` ingredients of Lemma 4.1)
    ///    hoisted out of the loop;
    /// 3. both trees and the per-step descent driven per point on the
    ///    mechanism's own step scratch, the first-moment release borrowed
    ///    from its tree — the only per-point allocation is the returned
    ///    estimator (the flat-buffer
    ///    [`observe_batch_into`](IncrementalMechanism::observe_batch_into)
    ///    form performs none at all).
    fn observe_batch(&mut self, batch: &[DataPoint]) -> Result<Vec<Vec<f64>>> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        self.check_batch(batch)?;
        let (me, alpha) = self.error_ingredients();
        let d = self.set.dim();
        let mut out = Vec::with_capacity(batch.len());
        for z in batch {
            let mut theta = vec![0.0; d];
            self.consume_into(z, me, alpha, &mut theta)?;
            out.push(theta);
        }
        Ok(out)
    }

    /// The zero-allocation batch primitive: identical consumption order
    /// and releases as [`observe_batch`](IncrementalMechanism::observe_batch),
    /// written into the caller's flat buffer. Steady state touches the
    /// heap zero times for any batch size.
    fn observe_batch_into(&mut self, batch: &[DataPoint], out: &mut [f64]) -> Result<()> {
        let d = self.set.dim();
        if out.len() != batch.len() * d {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "batch release buffer length {} != {} points x dimension {d}",
                    out.len(),
                    batch.len()
                ),
            });
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.check_batch(batch)?;
        let (me, alpha) = self.error_ingredients();
        for (z, chunk) in batch.iter().zip(out.chunks_exact_mut(d)) {
            self.consume_into(z, me, alpha, chunk)?;
        }
        Ok(())
    }

    fn supports_state(&self) -> bool {
        true
    }

    /// Dynamic state: step counter, warm-start iterate, and the two tree
    /// states in the live-level layout (`O(d² · popcount(t))` bytes: only
    /// the tree levels in the prefix decomposition of `t` are written).
    /// Scratch buffers are excluded: every step overwrites them before
    /// reading, so they carry no information across steps. Loading reads
    /// only [`codec::TAG_REG1_LIVE`]; any other tag is `InvalidState`.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        let mut e = Enc::new(out);
        e.u8(codec::TAG_REG1_LIVE);
        e.u64(self.t as u64);
        e.f64_slice(&self.last_theta);
        codec::put_tree(&mut e, &self.tree_xy.export_state());
        codec::put_tree(&mut e, &self.tree_xx.export_state());
        Ok(())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = Dec::new(bytes);
        codec::expect_tag(&mut d, codec::TAG_REG1_LIVE, "priv-inc-reg-1")?;
        let t = d.u64()? as usize;
        let last_theta = d.f64_vec()?;
        let xy = codec::take_tree(&mut d)?;
        let xx = codec::take_tree(&mut d)?;
        d.finish()?;
        self.check_state(t, &last_theta, xy.t, xx.t)?;
        self.tree_xy.restore_state(&xy)?;
        self.tree_xx.restore_state(&xx)?;
        self.t = t;
        self.last_theta.copy_from_slice(&last_theta);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_geometry::L2Ball;

    fn params() -> PrivacyParams {
        PrivacyParams::approx(1.0, 1e-5).unwrap()
    }

    fn stream(n: usize, d: usize, seed: u64) -> Vec<DataPoint> {
        let mut rng = NoiseRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = vector::scale(&rng.unit_sphere(d), 0.9);
                let y = (0.8 * x[0]).clamp(-1.0, 1.0);
                DataPoint::new(x, y)
            })
            .collect()
    }

    #[test]
    fn releases_feasible_estimates_every_step() {
        let mut rng = NoiseRng::seed_from_u64(1);
        let set = L2Ball::unit(4);
        let mut mech =
            PrivIncReg1::new(Box::new(set), 16, &params(), &mut rng, PrivIncReg1Config::default())
                .unwrap();
        for z in stream(16, 4, 2) {
            let theta = mech.observe(&z).unwrap();
            assert_eq!(theta.len(), 4);
            assert!(vector::norm2(&theta) <= 1.0 + 1e-9);
        }
        assert_eq!(mech.t(), 16);
    }

    #[test]
    fn tracks_signal_at_generous_epsilon() {
        // ε → large ⇒ trees are nearly exact ⇒ the mechanism approaches
        // the true incremental least-squares path.
        let loose = PrivacyParams::approx(1e6, 1e-5).unwrap();
        let mut rng = NoiseRng::seed_from_u64(3);
        let mut mech = PrivIncReg1::new(
            Box::new(L2Ball::unit(3)),
            64,
            &loose,
            &mut rng,
            PrivIncReg1Config { max_pgd_iters: 400, ..Default::default() },
        )
        .unwrap();
        let mut last = vec![0.0; 3];
        for z in stream(64, 3, 4) {
            last = mech.observe(&z).unwrap();
        }
        // Signal is 0.8·e₀ (inside the unit ball).
        assert!((last[0] - 0.8).abs() < 0.15, "{last:?}");
        assert!(last[1].abs() < 0.15 && last[2].abs() < 0.15, "{last:?}");
    }

    #[test]
    fn rejects_contract_violations_and_overflow() {
        let mut rng = NoiseRng::seed_from_u64(5);
        let mut mech = PrivIncReg1::new(
            Box::new(L2Ball::unit(2)),
            1,
            &params(),
            &mut rng,
            PrivIncReg1Config::default(),
        )
        .unwrap();
        assert!(matches!(
            mech.observe(&DataPoint::new(vec![2.0, 0.0], 0.0)),
            Err(CoreError::InvalidPoint { .. })
        ));
        assert!(matches!(
            mech.observe(&DataPoint::new(vec![0.5, 0.0], 2.0)),
            Err(CoreError::InvalidPoint { .. })
        ));
        mech.observe(&DataPoint::new(vec![0.5, 0.0], 0.5)).unwrap();
        assert!(matches!(
            mech.observe(&DataPoint::new(vec![0.5, 0.0], 0.5)),
            Err(CoreError::StreamOverflow { .. })
        ));
    }

    #[test]
    fn memory_grows_logarithmically_in_t() {
        let mut rng = NoiseRng::seed_from_u64(6);
        let m1 = PrivIncReg1::new(
            Box::new(L2Ball::unit(4)),
            1 << 6,
            &params(),
            &mut rng,
            PrivIncReg1Config::default(),
        )
        .unwrap();
        let m2 = PrivIncReg1::new(
            Box::new(L2Ball::unit(4)),
            1 << 12,
            &params(),
            &mut rng,
            PrivIncReg1Config::default(),
        )
        .unwrap();
        assert!(m2.memory_slots() < 2 * m1.memory_slots());
    }

    #[test]
    fn risk_bound_scales_as_sqrt_d() {
        let mut rng = NoiseRng::seed_from_u64(7);
        let mut bound_at = |d: usize| {
            PrivIncReg1::new(
                Box::new(L2Ball::unit(d)),
                256,
                &params(),
                &mut rng,
                PrivIncReg1Config::default(),
            )
            .unwrap()
            .risk_bound()
        };
        let b4 = bound_at(4);
        let b64 = bound_at(64);
        // Theorem 4.2: bound ∝ √d + additive √log(T/β) terms. A 16×
        // dimension increase gives ≈ 4× growth asymptotically; at these
        // small d the additive terms drag the ratio down (the asymptotic
        // slope is verified at scale by experiment E3).
        let ratio = b64 / b4;
        assert!(ratio > 1.8 && ratio < 8.0, "ratio {ratio}");
    }

    #[test]
    fn save_load_state_is_bit_identical() {
        // Interrupt a stream at an awkward offset (t = 5, multiple active
        // tree levels), move the state into a same-configured fresh
        // instance, and require every future release to match bit-for-bit.
        let spawn = || {
            let mut rng = NoiseRng::seed_from_u64(31);
            PrivIncReg1::new(
                Box::new(L2Ball::unit(3)),
                16,
                &params(),
                &mut rng,
                PrivIncReg1Config::default(),
            )
            .unwrap()
        };
        let mut live = spawn();
        let points = stream(16, 3, 77);
        for z in &points[..5] {
            live.observe(z).unwrap();
        }
        let mut blob = Vec::new();
        live.save_state(&mut blob).unwrap();
        let mut restored = spawn();
        restored.load_state(&blob).unwrap();
        assert_eq!(restored.t(), 5);
        for z in &points[5..] {
            assert_eq!(live.observe(z).unwrap(), restored.observe(z).unwrap());
        }
    }

    #[test]
    fn load_state_rejects_corrupt_blobs() {
        let mut rng = NoiseRng::seed_from_u64(32);
        let mut mech = PrivIncReg1::new(
            Box::new(L2Ball::unit(2)),
            8,
            &params(),
            &mut rng,
            PrivIncReg1Config::default(),
        )
        .unwrap();
        mech.observe(&DataPoint::new(vec![0.5, 0.0], 0.5)).unwrap();
        let mut blob = Vec::new();
        mech.save_state(&mut blob).unwrap();

        let fresh = |seed| {
            let mut rng = NoiseRng::seed_from_u64(seed);
            PrivIncReg1::new(
                Box::new(L2Ball::unit(2)),
                8,
                &params(),
                &mut rng,
                PrivIncReg1Config::default(),
            )
            .unwrap()
        };
        // Wrong tag.
        let mut forged = blob.clone();
        forged[0] = 99;
        assert!(matches!(fresh(1).load_state(&forged), Err(CoreError::InvalidState { .. })));
        // Truncation at every prefix.
        for cut in 0..blob.len() {
            assert!(
                matches!(fresh(2).load_state(&blob[..cut]), Err(CoreError::InvalidState { .. })),
                "cut at {cut}"
            );
        }
        // Trailing bytes.
        let mut long = blob.clone();
        long.push(0);
        assert!(matches!(fresh(3).load_state(&long), Err(CoreError::InvalidState { .. })));
    }

    #[test]
    fn reproducible_given_seed() {
        let run = |seed| {
            let mut rng = NoiseRng::seed_from_u64(seed);
            let mut mech = PrivIncReg1::new(
                Box::new(L2Ball::unit(2)),
                8,
                &params(),
                &mut rng,
                PrivIncReg1Config::default(),
            )
            .unwrap();
            stream(8, 2, 99).iter().map(|z| mech.observe(z).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
