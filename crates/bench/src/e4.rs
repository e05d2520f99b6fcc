//! One cell of experiment E4 (Table 1, row 3, Mechanism 2; Theorem 5.7):
//! `PrivIncReg2` over the unit `ℓ₁` ball on an anchored-sparse Lasso
//! stream, scored by its worst excess empirical risk. The
//! `exp_table1_row3_mech2` sweeps and the Reg2 utility gate
//! (`tests/utility_gate.rs`) run the same cells.

use pir_core::evaluate::evaluate_squared_loss;
use pir_core::{PrivIncReg2, PrivIncReg2Config};
use pir_datagen::{linear_stream, CovariateKind, LinearModel};
use pir_dp::{NoiseRng, PrivacyParams};
use pir_geometry::{KSparseDomain, L1Ball, WidthSet};

/// Covariate sparsity `k` of the E4 streams.
pub const SPARSITY: usize = 3;

/// One E4 cell: dimension, stream length, privacy and label noise, and
/// the seed that fixes the stream, the sketch and every noise draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Ambient dimension `d`.
    pub d: usize,
    /// Stream length `T` (also the horizon).
    pub t: usize,
    /// Privacy parameter `ε` (`δ = 1e-6`).
    pub eps: f64,
    /// Label-noise standard deviation.
    pub noise_std: f64,
    /// Seed of the stream, the sketch and the noise.
    pub seed: u64,
    /// Sketch dimension `m`; `None` lets Gordon's rule choose it.
    pub m: Option<usize>,
}

/// What one cell measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Worst excess empirical risk over the evaluated timesteps.
    pub max_excess: f64,
    /// `OPT` at the final timestep.
    pub final_opt: f64,
    /// Sketch dimension `m` Gordon's rule chose.
    pub m: usize,
    /// [`PrivIncReg2::risk_bound_leading`] of the run's mechanism.
    pub risk_bound: f64,
}

impl Cell {
    /// Run the cell. Anchored-sparse covariates: `k`-sparse (a low-width
    /// domain) with a dimension-independent signal on coordinate 0;
    /// `θ* ∈ B₁`. The excess is evaluated at every `T/8`-th step.
    pub fn run(&self) -> Outcome {
        let params = PrivacyParams::approx(self.eps, 1e-6).expect("valid privacy parameters");
        let mut rng = NoiseRng::seed_from_u64(self.seed);
        let mut theta_star = vec![0.0; self.d];
        theta_star[0] = 0.95;
        let model = LinearModel { theta_star, noise_std: self.noise_std };
        let kind = CovariateKind::AnchoredSparse { k: SPARSITY };
        let stream = linear_stream(self.t, self.d, kind, &model, &mut rng);
        let domain = KSparseDomain::new(self.d, SPARSITY, 1.0);
        let mut mech = PrivIncReg2::new(
            Box::new(L1Ball::unit(self.d)),
            domain.width_bound(),
            self.t,
            &params,
            &mut rng,
            PrivIncReg2Config {
                gordon_constant: 0.02,
                m_override: self.m,
                lift_iters: 60,
                ..Default::default()
            },
        )
        .expect("valid E4 configuration");
        let (m, risk_bound) = (mech.m(), mech.risk_bound_leading());
        let every = (self.t / 8).max(1);
        let rep = evaluate_squared_loss(&mut mech, &stream, Box::new(L1Ball::unit(self.d)), every)
            .expect("in-contract stream");
        Outcome { max_excess: rep.max_excess(), final_opt: rep.final_opt(), m, risk_bound }
    }
}
