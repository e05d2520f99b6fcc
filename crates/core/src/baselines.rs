//! Baselines the paper compares against.
//!
//! - [`naive_recompute`] — the §1 straw man: run the private batch solver
//!   at *every* timestep. With `T` invocations the advanced-composition
//!   budget forces `ε′ ≈ ε/√T` per run, inflating the risk by `≈ √T` over
//!   the batch bound.
//! - [`TrivialMechanism`] — ignores the data entirely; private for free
//!   with excess risk `≤ 2TL‖C‖` (§1.1). Every interesting bound must
//!   beat this.
//! - [`ExactIncremental`] — the *non-private* incremental least-squares
//!   minimizer from running sufficient statistics: the oracle `θ̂_t` of
//!   Definition 1 and the `ε → ∞` limit of the private mechanisms.

use crate::codec::{self, Dec, Enc};
use crate::error::CoreError;
use crate::generic::{PrivIncErm, TauRule};
use crate::stream::IncrementalMechanism;
use crate::Result;
use pir_dp::{NoiseRng, PrivacyParams};
use pir_erm::{DataPoint, Loss, PrivateBatchSolver};
use pir_geometry::ConvexSet;
use pir_linalg::{vector, Matrix};
use pir_optim::{fista, Quadratic};

/// The naive per-step recomputation baseline: [`PrivIncErm`] with
/// `τ = 1`, i.e. `T` solver invocations sharing the budget.
///
/// # Errors
/// As for [`PrivIncErm::new`].
pub fn naive_recompute(
    loss: Box<dyn Loss>,
    solver: Box<dyn PrivateBatchSolver>,
    set: Box<dyn ConvexSet>,
    t_max: usize,
    params: &PrivacyParams,
    rng: NoiseRng,
) -> Result<PrivIncErm> {
    PrivIncErm::new(loss, solver, set, t_max, params, TauRule::Fixed(1), rng)
}

/// The data-independent mechanism: always releases the same fixed point
/// of `C` (here `P_C(0)`). Perfectly private; excess risk `≤ 2TL‖C‖`.
#[derive(Debug)]
pub struct TrivialMechanism {
    theta: Vec<f64>,
    dim: usize,
    t: usize,
}

impl TrivialMechanism {
    /// Anchor at `P_C(0)`.
    pub fn new(set: &dyn ConvexSet) -> Self {
        let d = set.dim();
        TrivialMechanism { theta: set.project(&vec![0.0; d]), dim: d, t: 0 }
    }
}

impl IncrementalMechanism for TrivialMechanism {
    fn name(&self) -> String {
        "trivial (data-independent)".to_string()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn t(&self) -> usize {
        self.t
    }

    fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>> {
        z.validate(self.dim).map_err(|e| CoreError::InvalidPoint { reason: e.to_string() })?;
        self.t += 1;
        Ok(self.theta.clone())
    }

    fn supports_state(&self) -> bool {
        true
    }

    /// Dynamic state is just the step counter: the release is a fixed
    /// point of `C`, reproduced by the constructor.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        let mut e = Enc::new(out);
        e.u8(codec::TAG_TRIVIAL);
        e.u64(self.t as u64);
        Ok(())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = Dec::new(bytes);
        codec::expect_tag(&mut d, &[codec::TAG_TRIVIAL], "trivial")?;
        let t = d.u64()? as usize;
        d.finish()?;
        self.t = t;
        Ok(())
    }
}

/// Exact (non-private!) incremental constrained least squares from
/// running sufficient statistics `XᵀX, Xᵀy, Σy²`, re-solved each step by
/// warm-started FISTA. `O(d²)` memory and per-step time independent of
/// `t` — this is the Definition-1 oracle `θ̂_t` and the reference
/// trajectory the private mechanisms approach as `ε → ∞`.
#[derive(Debug)]
pub struct ExactIncremental {
    set: Box<dyn ConvexSet>,
    xtx: Matrix,
    xty: Vec<f64>,
    yy: f64,
    theta: Vec<f64>,
    /// FISTA iterations per step (warm-started; default 150).
    pub iters_per_step: usize,
    t: usize,
}

impl ExactIncremental {
    /// New oracle over `set`.
    pub fn new(set: Box<dyn ConvexSet>) -> Self {
        let d = set.dim();
        let theta = set.project(&vec![0.0; d]);
        ExactIncremental {
            set,
            xtx: Matrix::zeros(d, d),
            xty: vec![0.0; d],
            yy: 0.0,
            theta,
            iters_per_step: 150,
            t: 0,
        }
    }

    /// Empirical risk `L(θ; Γ_t)` of an arbitrary `θ` against the history
    /// consumed so far, in `O(d²)` via the sufficient statistics.
    pub fn risk_of(&self, theta: &[f64]) -> Result<f64> {
        let xtx_theta = self.xtx.matvec(theta).map_err(CoreError::Linalg)?;
        Ok(vector::dot(theta, &xtx_theta) - 2.0 * vector::dot(&self.xty, theta) + self.yy)
    }

    /// The current exact minimizer estimate `θ̂_t`.
    pub fn current(&self) -> &[f64] {
        &self.theta
    }

    /// The current minimum empirical risk `L(θ̂_t; Γ_t)` (the paper's
    /// `OPT` when queried at `t = T`).
    pub fn opt(&self) -> Result<f64> {
        self.risk_of(&self.theta)
    }
}

impl IncrementalMechanism for ExactIncremental {
    fn name(&self) -> String {
        "exact incremental (non-private oracle)".to_string()
    }

    fn dim(&self) -> usize {
        self.set.dim()
    }

    fn t(&self) -> usize {
        self.t
    }

    fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>> {
        let d = self.set.dim();
        z.validate(d).map_err(|e| CoreError::InvalidPoint { reason: e.to_string() })?;
        self.t += 1;
        self.xtx.add_outer(1.0, &z.x, &z.x).map_err(CoreError::Linalg)?;
        vector::axpy(z.y, &z.x, &mut self.xty);
        self.yy += z.y * z.y;
        // min_{θ∈C} θᵀXᵀXθ − 2⟨Xᵀy, θ⟩ + Σy², smoothness ≤ 2t.
        let quad = Quadratic::least_squares(&self.xtx, &self.xty, self.yy);
        let smooth = (2.0 * self.t as f64).max(1e-9);
        self.theta = fista(&quad, &self.set, smooth, self.iters_per_step, &self.theta);
        Ok(self.theta.clone())
    }

    fn supports_state(&self) -> bool {
        true
    }

    /// Dynamic state: step counter and the running sufficient statistics
    /// `XᵀX, Xᵀy, Σy²` plus the warm-start iterate (`O(d²)` bytes). No
    /// randomness is involved, so the restore is trivially bit-exact.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        let mut e = Enc::new(out);
        e.u8(codec::TAG_EXACT);
        e.u64(self.t as u64);
        e.f64(self.yy);
        e.f64_slice(&self.theta);
        e.f64_slice(&self.xty);
        e.f64_slice(self.xtx.as_slice());
        Ok(())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = Dec::new(bytes);
        codec::expect_tag(&mut d, &[codec::TAG_EXACT], "exact incremental")?;
        let t = d.u64()? as usize;
        let yy = d.f64()?;
        let theta = d.f64_vec()?;
        let xty = d.f64_vec()?;
        let xtx = d.f64_vec()?;
        d.finish()?;
        let d = self.set.dim();
        if theta.len() != d || xty.len() != d || xtx.len() != d * d {
            return Err(CoreError::InvalidState {
                reason: format!(
                    "statistic shapes ({}, {}, {}) do not match dimension {d}",
                    theta.len(),
                    xty.len(),
                    xtx.len()
                ),
            });
        }
        if !yy.is_finite()
            || !vector::is_finite(&theta)
            || !vector::is_finite(&xty)
            || !vector::is_finite(&xtx)
        {
            return Err(CoreError::InvalidState {
                reason: "sufficient statistics contain NaN/infinite entries".to_string(),
            });
        }
        self.t = t;
        self.yy = yy;
        self.theta = theta;
        self.xty = xty;
        self.xtx.as_mut_slice().copy_from_slice(&xtx);
        Ok(())
    }
}

/// Domain-membership oracle `x ↦ x ∈ G` for the §5.2 restricted setting.
pub type MembershipOracle = Box<dyn Fn(&[f64]) -> bool + Send + Sync>;

/// [`ExactIncremental`] restricted to a sub-domain `G`: points failing the
/// membership oracle are skipped entirely, so the tracked objective is the
/// §5.2 `G`-restricted risk `Σ_{x_i∈G} (y_i − ⟨x_i, θ⟩)²`. This is the
/// evaluation oracle for [`crate::RobustPrivIncReg2`].
pub struct ExactIncrementalRestricted {
    inner: ExactIncremental,
    oracle: MembershipOracle,
    skipped: usize,
}

impl std::fmt::Debug for ExactIncrementalRestricted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactIncrementalRestricted")
            .field("inner", &self.inner)
            .field("skipped", &self.skipped)
            .finish()
    }
}

impl ExactIncrementalRestricted {
    /// New restricted oracle over `set` with domain membership `oracle`.
    pub fn new(set: Box<dyn ConvexSet>, oracle: MembershipOracle) -> Self {
        ExactIncrementalRestricted { inner: ExactIncremental::new(set), oracle, skipped: 0 }
    }

    /// `G`-restricted risk of an arbitrary `θ`.
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn risk_of(&self, theta: &[f64]) -> Result<f64> {
        self.inner.risk_of(theta)
    }

    /// `G`-restricted minimum risk at the current time.
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn opt(&self) -> Result<f64> {
        self.inner.opt()
    }

    /// Points skipped as off-domain so far.
    pub fn skipped(&self) -> usize {
        self.skipped
    }
}

impl IncrementalMechanism for ExactIncrementalRestricted {
    fn name(&self) -> String {
        "exact incremental (G-restricted oracle)".to_string()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn t(&self) -> usize {
        self.inner.t() + self.skipped
    }

    fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>> {
        if (self.oracle)(&z.x) {
            self.inner.observe(z)
        } else {
            self.skipped += 1;
            Ok(self.inner.current().to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_erm::{solve_exact, SquaredLoss};
    use pir_geometry::{L1Ball, L2Ball};

    fn stream(n: usize, seed: u64) -> Vec<DataPoint> {
        let mut rng = NoiseRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = vector::scale(&rng.unit_sphere(3), 0.9);
                DataPoint::new(x.clone(), (0.5 * x[0] - 0.2 * x[2]).clamp(-1.0, 1.0))
            })
            .collect()
    }

    #[test]
    fn trivial_mechanism_is_constant() {
        let set = L2Ball::unit(3);
        let mut mech = TrivialMechanism::new(&set);
        let data = stream(5, 1);
        let o1 = mech.observe(&data[0]).unwrap();
        let o2 = mech.observe(&data[1]).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(mech.t(), 2);
    }

    #[test]
    fn exact_incremental_matches_batch_solver() {
        let data = stream(40, 2);
        let mut oracle = ExactIncremental::new(Box::new(L2Ball::unit(3)));
        let mut last = vec![0.0; 3];
        for z in &data {
            last = oracle.observe(z).unwrap();
        }
        let batch = solve_exact(&SquaredLoss, &data, &L2Ball::unit(3), 4000).unwrap();
        assert!(vector::distance(&last, &batch) < 1e-3, "incremental {last:?} vs batch {batch:?}");
        // risk_of at the oracle's solution equals the batch objective.
        let risk = oracle.risk_of(&last).unwrap();
        let direct: f64 = data.iter().map(|z| SquaredLoss.value(&last, &z.x, z.y)).sum();
        assert!((risk - direct).abs() < 1e-9);
    }

    #[test]
    fn exact_incremental_respects_l1_constraint() {
        let data = stream(30, 3);
        let mut oracle = ExactIncremental::new(Box::new(L1Ball::new(3, 0.3)));
        for z in &data {
            let theta = oracle.observe(z).unwrap();
            assert!(vector::norm1(&theta) <= 0.3 + 1e-9);
        }
    }

    #[test]
    fn restricted_oracle_ignores_off_domain_points() {
        let data = stream(20, 7);
        // Unrestricted oracle vs one that rejects everything after t=10.
        let mut full = ExactIncremental::new(Box::new(L2Ball::unit(3)));
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let mut restricted = ExactIncrementalRestricted::new(
            Box::new(L2Ball::unit(3)),
            Box::new(move |_x: &[f64]| {
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < 10
            }),
        );
        for z in &data {
            full.observe(z).unwrap();
            restricted.observe(z).unwrap();
        }
        assert_eq!(restricted.skipped(), 10);
        assert_eq!(restricted.t(), 20);
        // The restricted OPT only reflects the first 10 points.
        let mut first_half = ExactIncremental::new(Box::new(L2Ball::unit(3)));
        for z in &data[..10] {
            first_half.observe(z).unwrap();
        }
        assert!((restricted.opt().unwrap() - first_half.opt().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn naive_recompute_has_tau_one() {
        let mech = naive_recompute(
            Box::new(SquaredLoss),
            Box::new(pir_erm::NoisyGdSolver { iters: 4, beta: 0.1 }),
            Box::new(L2Ball::unit(3)),
            32,
            &PrivacyParams::approx(1.0, 1e-5).unwrap(),
            NoiseRng::seed_from_u64(4),
        )
        .unwrap();
        assert_eq!(mech.tau(), 1);
        assert_eq!(mech.invocations(), 32);
        // Budget per invocation is tiny — the √T penalty in action.
        assert!(mech.per_invocation().epsilon() < 1.0 / 16.0);
    }
}
