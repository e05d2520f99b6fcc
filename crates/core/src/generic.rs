//! Mechanism 1 — `PRIVINCERM`: the generic transformation of a private
//! batch ERM solver into a private incremental ERM mechanism (§3).
//!
//! The batch solver runs only at timesteps divisible by `τ`; in between,
//! the previous output is replayed. Each datapoint is therefore touched by
//! at most `k = ⌈T/τ⌉` solver invocations, and the per-invocation budget
//! `ε′ = ε/(2√(2k ln(2/δ)))`, `δ′ = δ/(2k)` composes (advanced
//! composition, Theorem A.4 with slack `δ/2`) back to at most `(ε, δ)` —
//! the privacy argument in the proof of Theorem 3.1.
//!
//! `τ` balances *staleness* (up to `τ·L‖C‖` extra risk from replaying an
//! old estimator) against *noise* (smaller per-invocation `ε′`): the three
//! parts of Theorem 3.1 correspond to the three [`TauRule`]s.

use crate::error::CoreError;
use crate::stream::{check_arrivals, IncrementalMechanism};
use crate::Result;
use pir_dp::{composition, NoiseRng, PrivacyParams};
use pir_erm::{DataPoint, Loss, PrivateBatchSolver};
use pir_geometry::ConvexSet;

/// How to choose the recomputation interval `τ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TauRule {
    /// Fixed interval (1 = the naive per-step recomputation of §1).
    Fixed(usize),
    /// Theorem 3.1(1): `τ = ⌈(Td)^{1/3}/ε^{2/3}⌉` for general convex
    /// losses with the noisy-GD batch solver.
    Convex,
    /// Theorem 3.1(2): `τ = ⌈√d·L/(ν^{1/2} ε ‖C‖^{1/2})⌉` for
    /// `ν`-strongly convex losses with output perturbation.
    StronglyConvex,
    /// Theorem 3.1(3): `τ = ⌈√T·w(C)·C_ℓ^{1/4}/((L‖C‖)^{1/4} ε^{1/2})⌉`
    /// for low-Gaussian-width constraint sets with private Frank–Wolfe.
    LowWidth,
}

impl TauRule {
    /// Resolve the rule into a concrete `τ ∈ [1, T]`.
    pub fn resolve(
        &self,
        loss: &dyn Loss,
        set: &dyn ConvexSet,
        t_max: usize,
        epsilon: f64,
    ) -> usize {
        let d = set.dim() as f64;
        let t = t_max as f64;
        let diam = set.diameter().max(1e-12);
        let lip = loss.lipschitz(set.diameter()).max(1e-12);
        let tau = match self {
            TauRule::Fixed(tau) => *tau as f64,
            TauRule::Convex => (t * d).cbrt() / epsilon.powf(2.0 / 3.0),
            TauRule::StronglyConvex => {
                let nu = loss.strong_convexity().max(1e-12);
                d.sqrt() * lip / (nu.sqrt() * epsilon * diam.sqrt())
            }
            TauRule::LowWidth => {
                let width = set.width_bound();
                let curv = loss.curvature(set.diameter()).max(1e-12);
                t.sqrt() * width * curv.powf(0.25) / ((lip * diam).powf(0.25) * epsilon.sqrt())
            }
        };
        (tau.ceil().max(1.0) as usize).min(t_max.max(1))
    }
}

/// The generic private incremental ERM mechanism (Mechanism 1).
///
/// Stores the full history (the paper places no computational constraint
/// on this mechanism — §2, footnote 2; the tree-based mechanisms of §§4–5
/// are the space-efficient alternatives for regression).
pub struct PrivIncErm {
    loss: Box<dyn Loss>,
    solver: Box<dyn PrivateBatchSolver>,
    set: Box<dyn ConvexSet>,
    t_max: usize,
    tau: usize,
    per_invocation: PrivacyParams,
    history: Vec<DataPoint>,
    last_theta: Vec<f64>,
    rng: NoiseRng,
    t: usize,
}

impl std::fmt::Debug for PrivIncErm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivIncErm")
            .field("solver", &self.solver.name())
            .field("tau", &self.tau)
            .field("t", &self.t)
            .finish()
    }
}

impl PrivIncErm {
    /// Build the mechanism; `rule` fixes `τ`, and the per-invocation
    /// budget follows the paper's `(ε′, δ′)` schedule for
    /// `k = ⌈T/τ⌉` invocations.
    ///
    /// # Errors
    /// Invalid configuration or privacy parameters (needs `δ > 0`).
    pub fn new(
        loss: Box<dyn Loss>,
        solver: Box<dyn PrivateBatchSolver>,
        set: Box<dyn ConvexSet>,
        t_max: usize,
        params: &PrivacyParams,
        rule: TauRule,
        rng: NoiseRng,
    ) -> Result<Self> {
        if t_max == 0 {
            return Err(CoreError::InvalidConfig { reason: "t_max must be positive".into() });
        }
        let tau = rule.resolve(loss.as_ref(), &set, t_max, params.epsilon());
        let invocations = t_max.div_ceil(tau);
        let per_invocation = composition::calibrate_advanced(params, invocations)?;
        let last_theta = set.project(&vec![0.0; set.dim()]);
        Ok(PrivIncErm {
            loss,
            solver,
            set,
            t_max,
            tau,
            per_invocation,
            history: Vec::new(),
            last_theta,
            rng,
            t: 0,
        })
    }

    /// The resolved recomputation interval `τ`.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The per-invocation budget `(ε′, δ′)`.
    pub fn per_invocation(&self) -> PrivacyParams {
        self.per_invocation
    }

    /// Number of batch-solver invocations the schedule allows.
    pub fn invocations(&self) -> usize {
        self.t_max.div_ceil(self.tau)
    }
}

impl IncrementalMechanism for PrivIncErm {
    fn name(&self) -> String {
        format!("priv-inc-erm (τ={}, {})", self.tau, self.solver.name())
    }

    fn dim(&self) -> usize {
        self.set.dim()
    }

    fn t(&self) -> usize {
        self.t
    }

    fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>> {
        let horizon = Some((self.t, self.t_max));
        check_arrivals(self.set.dim(), std::slice::from_ref(z), false, None, horizon)?;
        self.t += 1;
        self.history.push(z.clone());
        if self.t.is_multiple_of(self.tau) {
            self.last_theta = self.solver.solve(
                self.loss.as_ref(),
                &self.history,
                &self.set,
                &self.per_invocation,
                &mut self.rng,
            )?;
        }
        Ok(self.last_theta.clone())
    }

    /// Same releases as the sequential loop, but with the atomic batch
    /// contract the engine relies on: the whole batch is validated and
    /// checked against the horizon before any point is consumed, so a
    /// rejected batch never leaves a partial prefix in the ERM history
    /// (which a retry would otherwise double-count).
    fn observe_batch(&mut self, batch: &[DataPoint]) -> Result<Vec<Vec<f64>>> {
        check_arrivals(self.set.dim(), batch, true, None, Some((self.t, self.t_max)))?;
        batch.iter().map(|z| self.observe(z)).collect()
    }

    /// [`observe_batch`](IncrementalMechanism::observe_batch) into the
    /// caller's flat buffer, under the same atomic contract.
    fn observe_batch_into(&mut self, batch: &[DataPoint], out: &mut [f64]) -> Result<()> {
        let d = self.set.dim();
        check_arrivals(d, batch, true, Some(out.len()), Some((self.t, self.t_max)))?;
        for (z, chunk) in batch.iter().zip(out.chunks_exact_mut(d)) {
            self.observe_into(z, chunk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_erm::{NoisyGdSolver, OutputPerturbationSolver, Regularized, SquaredLoss};
    use pir_geometry::{L1Ball, L2Ball};
    use pir_linalg::vector;

    fn params() -> PrivacyParams {
        PrivacyParams::approx(1.0, 1e-5).unwrap()
    }

    fn stream(n: usize, seed: u64) -> Vec<DataPoint> {
        let mut rng = NoiseRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = vector::scale(&rng.unit_sphere(3), 0.9);
                DataPoint::new(x.clone(), (0.6 * x[0]).clamp(-1.0, 1.0))
            })
            .collect()
    }

    #[test]
    fn tau_rules_scale_correctly() {
        let loss = SquaredLoss;
        let set = L2Ball::unit(16);
        // Convex rule: τ grows with (Td)^{1/3}.
        let t1 = TauRule::Convex.resolve(&loss, &set, 100, 1.0);
        let t2 = TauRule::Convex.resolve(&loss, &set, 800, 1.0);
        assert!(t2 > t1, "τ should grow with T: {t1} vs {t2}");
        assert!((t2 as f64 / t1 as f64) < 3.0, "cube-root growth expected");
        // Fixed rule is clamped to [1, T].
        assert_eq!(TauRule::Fixed(0).resolve(&loss, &set, 10, 1.0), 1);
        assert_eq!(TauRule::Fixed(50).resolve(&loss, &set, 10, 1.0), 10);
        // Strongly convex rule is T-independent.
        let reg = Regularized::new(SquaredLoss, 0.5);
        let s1 = TauRule::StronglyConvex.resolve(&reg, &set, 100, 1.0);
        let s2 = TauRule::StronglyConvex.resolve(&reg, &set, 10_000, 1.0);
        assert_eq!(s1, s2.min(s1.max(s2))); // both the same unless clamped
                                            // LowWidth rule grows with √T.
        let l1 = L1Ball::unit(16);
        let w1 = TauRule::LowWidth.resolve(&loss, &l1, 100, 1.0);
        let w2 = TauRule::LowWidth.resolve(&loss, &l1, 400, 1.0);
        assert!(w2 > w1, "{w1} vs {w2}");
    }

    #[test]
    fn recomputes_only_every_tau_steps() {
        let mut mech = PrivIncErm::new(
            Box::new(SquaredLoss),
            Box::new(NoisyGdSolver { iters: 8, beta: 0.1 }),
            Box::new(L2Ball::unit(3)),
            12,
            &params(),
            TauRule::Fixed(4),
            NoiseRng::seed_from_u64(1),
        )
        .unwrap();
        assert_eq!(mech.tau(), 4);
        assert_eq!(mech.invocations(), 3);
        let mut outputs = Vec::new();
        for z in stream(12, 2) {
            outputs.push(mech.observe(&z).unwrap());
        }
        // Outputs within a τ-window are identical; they change at τ-steps.
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
        assert_ne!(outputs[2], outputs[3], "recomputation at t=4 expected");
        assert_eq!(outputs[4], outputs[3]);
    }

    #[test]
    fn budget_schedule_is_within_total() {
        let mech = PrivIncErm::new(
            Box::new(SquaredLoss),
            Box::new(NoisyGdSolver::default()),
            Box::new(L2Ball::unit(3)),
            64,
            &params(),
            TauRule::Fixed(8),
            NoiseRng::seed_from_u64(3),
        )
        .unwrap();
        let composed = composition::verify_within_budget(
            mech.invocations(),
            &mech.per_invocation(),
            &params(),
        )
        .unwrap();
        assert!(composed.epsilon() <= 1.0 + 1e-9);
    }

    #[test]
    fn strongly_convex_path_works_end_to_end() {
        let mut mech = PrivIncErm::new(
            Box::new(Regularized::new(SquaredLoss, 0.5)),
            Box::new(OutputPerturbationSolver { exact_iters: 300 }),
            Box::new(L2Ball::unit(3)),
            8,
            &params(),
            TauRule::StronglyConvex,
            NoiseRng::seed_from_u64(4),
        )
        .unwrap();
        for z in stream(8, 5) {
            let theta = mech.observe(&z).unwrap();
            assert!(vector::norm2(&theta) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn overflow_and_contract_rejection() {
        let mut mech = PrivIncErm::new(
            Box::new(SquaredLoss),
            Box::new(NoisyGdSolver { iters: 4, beta: 0.1 }),
            Box::new(L2Ball::unit(2)),
            1,
            &params(),
            TauRule::Fixed(1),
            NoiseRng::seed_from_u64(6),
        )
        .unwrap();
        assert!(mech.observe(&DataPoint::new(vec![2.0, 0.0], 0.0)).is_err());
        mech.observe(&DataPoint::new(vec![0.1, 0.1], 0.1)).unwrap();
        assert!(matches!(
            mech.observe(&DataPoint::new(vec![0.1, 0.1], 0.1)),
            Err(CoreError::StreamOverflow { .. })
        ));
    }
}
