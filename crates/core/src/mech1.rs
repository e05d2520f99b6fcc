//! Algorithm 2 — `PRIVINCREG1`: private incremental linear regression via
//! the Tree Mechanism and a private gradient function.
//!
//! Per timestep `t`:
//! 1. feed `x_t y_t` (a `d`-vector of norm ≤ 1) into one Tree Mechanism
//!    and `x_t x_tᵀ` (packed to its `d(d+1)/2` upper-triangle entries,
//!    norm `‖x_t‖² ≤ 1`) into another, each at budget `(ε/2, δ/2)` —
//!    L2-sensitivity 2 per stream;
//! 2. assemble the private gradient function
//!    `g_t(θ) = 2(Q_t θ − q_t)` (Definition 5) with Lemma 4.1's error
//!    bound `α ≈ κ‖C‖(√d + √log(1/β))`, fixed at construction;
//! 3. run `NOISYPROJGRAD(C, g_t, r)` with the Corollary B.2 iteration rule
//!    `r = (1 + L_t/α)²` (clamped to a compute cap — DESIGN.md, dec. 5).
//!
//! Steps 1–3 are the crate's one private gradient function
//! (`gradient_fn.rs`), run here on the covariates themselves; `PrivIncReg2`
//! runs the same object on sketched covariates. Every release is
//! post-processing of the two tree outputs, so the whole output sequence
//! is `(ε, δ)`-DP (Theorem A.3 over the two trees).
//! Memory: `O(d² log T)` — logarithmic in the stream length.

use crate::codec::{self, Dec, Enc};
use crate::descent::DescentStrategy;
use crate::error::CoreError;
use crate::gradient_fn::PrivateGradient;
use crate::stream::{check_arrivals, IncrementalMechanism};
use crate::Result;
use pir_dp::{NoiseRng, PrivacyParams};
use pir_erm::DataPoint;
use pir_geometry::ConvexSet;
use pir_linalg::vector;

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
    config: PrivIncReg1Config,
    /// Both trees, the step buffers and Lemma 4.1's `α` over `C`.
    grad: PrivateGradient,
    last_theta: Vec<f64>,
    /// All-zeros cold start for `warm_start: false`.
    zero_start: Vec<f64>,
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
        let grad = PrivateGradient::new(
            set.as_ref(),
            t_max,
            params,
            config.beta,
            config.strategy,
            config.max_pgd_iters,
            rng,
        )?;
        let last_theta = set.project(&vec![0.0; d]);
        Ok(PrivIncReg1 { set, config, grad, last_theta, zero_start: vec![0.0; d] })
    }

    /// The constraint set.
    pub fn set(&self) -> &dyn ConvexSet {
        self.set.as_ref()
    }

    /// Lemma 4.1 gradient-error bound `α` at the configured `β`, split
    /// across the two trees and union-bounded over the horizon.
    pub fn gradient_alpha(&self) -> f64 {
        self.grad.alpha()
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
        self.grad.memory_slots()
    }

    /// The batch contract against this mechanism's dimension and horizon.
    fn check(&self, points: &[DataPoint], batch: bool, out_len: Option<usize>) -> Result<()> {
        check_arrivals(self.set.dim(), points, batch, out_len, Some(self.grad.horizon()))
    }

    /// Consume one already-validated point (Steps 3–6 of Algorithm 2) and
    /// write the release into `out` — the allocation-free per-point body
    /// shared by the step and batch paths: the private gradient function
    /// feeds both trees and minimizes over `C` from the warm start.
    fn consume_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<()> {
        let warm: &[f64] = if self.config.warm_start { &self.last_theta } else { &self.zero_start };
        self.grad.step_into(&z.x, z.y, self.set.as_ref(), warm, out)?;
        self.last_theta.copy_from_slice(out);
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
        self.grad.t()
    }

    fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.set.dim()];
        self.observe_into(z, &mut out)?;
        Ok(out)
    }

    /// One Algorithm-2 step, written into `out` — the allocation-free
    /// primitive behind `observe`.
    fn observe_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<()> {
        self.check(std::slice::from_ref(z), false, Some(out.len()))?;
        self.consume_into(z, out)
    }

    /// Release-for-release identical to the sequential loop, with the
    /// whole batch checked (contract and horizon) before any point is
    /// consumed.
    fn observe_batch(&mut self, batch: &[DataPoint]) -> Result<Vec<Vec<f64>>> {
        self.check(batch, true, None)?;
        let d = self.set.dim();
        batch
            .iter()
            .map(|z| {
                let mut theta = vec![0.0; d];
                self.consume_into(z, &mut theta)?;
                Ok(theta)
            })
            .collect()
    }

    /// The zero-allocation batch primitive: identical consumption order
    /// and releases as [`observe_batch`](IncrementalMechanism::observe_batch),
    /// written into the caller's flat buffer.
    fn observe_batch_into(&mut self, batch: &[DataPoint], out: &mut [f64]) -> Result<()> {
        self.check(batch, true, Some(out.len()))?;
        for (z, chunk) in batch.iter().zip(out.chunks_exact_mut(self.set.dim())) {
            self.consume_into(z, chunk)?;
        }
        Ok(())
    }

    fn supports_state(&self) -> bool {
        true
    }

    /// Dynamic state: step counter, warm-start iterate, and the two tree
    /// states in the live-level layout, the second moment packed
    /// (`O(d² · popcount(t))` bytes: only the tree levels in the prefix
    /// decomposition of `t` are written). Loading reads
    /// [`codec::TAG_REG1_PACKED`] and the previous build's full-width
    /// [`codec::TAG_REG1_LIVE`], which it packs; any other tag is
    /// `InvalidState`.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        let mut e = Enc::new(out);
        e.u8(codec::TAG_REG1_PACKED);
        e.u64(self.grad.t() as u64);
        e.f64_slice(&self.last_theta);
        self.grad.put_trees(&mut e);
        Ok(())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = Dec::new(bytes);
        let tag = codec::expect_tag(
            &mut d,
            &[codec::TAG_REG1_PACKED, codec::TAG_REG1_LIVE],
            "priv-inc-reg-1",
        )?;
        let t = d.u64()? as usize;
        let last_theta = d.f64_vec()?;
        let trees = self.grad.take_trees(&mut d, tag == codec::TAG_REG1_LIVE)?;
        d.finish()?;
        if last_theta.len() != self.set.dim() {
            return Err(CoreError::InvalidState {
                reason: format!(
                    "warm-start iterate has dimension {} (expected {})",
                    last_theta.len(),
                    self.set.dim()
                ),
            });
        }
        if !vector::is_finite(&last_theta) {
            return Err(CoreError::InvalidState {
                reason: "warm-start iterate contains NaN/infinite entries".to_string(),
            });
        }
        self.grad.restore(t, &trees)?;
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
