//! The *private gradient function* of Definition 5 — the one object both
//! regression mechanisms are built on.
//!
//! For the least-squares loss, the gradient has the linear form
//! `∇L(θ; Γ_t) = 2(X_tᵀX_t θ − X_tᵀy_t)` (equation (2) of the paper), so
//! a private estimate of the two streaming sums `Σ x_i x_iᵀ` and
//! `Σ x_i y_i` yields a function `g_t(θ) = 2(Q_t θ − q_t)` that can be
//! evaluated at *any* `θ` without further privacy cost (post-processing).
//!
//! [`PrivateGradient`] keeps those sums in two Tree Mechanisms, each at
//! half the budget, and minimizes the released objective over a convex
//! set. `PrivIncReg1` runs it on the covariates in `R^d` (Algorithm 2);
//! `PrivIncReg2` runs it on the sketched covariates `Φx̃ ∈ R^m`
//! (Algorithm 3, Steps 5–8), which is all Algorithm 3 changes.

use crate::codec::{self, Dec, Enc};
use crate::descent::{minimize_private_objective_into, DescentScratch, DescentStrategy};
use crate::error::CoreError;
use crate::Result;
use pir_continual::{TreeMechanism, TreeState};
use pir_dp::{NoiseRng, PrivacyParams};
use pir_geometry::ConvexSet;
use pir_linalg::{vector, Matrix};

/// The two Tree Mechanisms behind `g_t(θ) = 2(Q_t θ − q_t)`, their step
/// buffers, and Lemma 4.1's error bound.
///
/// Every step feeds `x·y` (a `k`-vector of norm ≤ 1) into the
/// first-moment tree and `x xᵀ` (a `k²`-vector of Frobenius norm ≤ 1)
/// into the second-moment tree, each at `(ε/2, δ/2)`, so both streams
/// have sensitivity 2 and the whole release sequence is `(ε, δ)`-DP
/// (Theorem A.3 over the two trees). The first-moment release `q_t` is
/// borrowed from its tree; the second-moment release lands in `q_mat` and
/// is symmetrized there (the true statistic is symmetric, and symmetry
/// keeps the induced quadratic well-behaved). The buffers are allocated
/// once, so a step touches the heap zero times.
#[derive(Debug)]
pub(crate) struct PrivateGradient {
    tree_xy: TreeMechanism,
    tree_xx: TreeMechanism,
    /// `x·y` — the first-moment stream item.
    xy: Vec<f64>,
    /// `x xᵀ` — the second-moment stream item.
    outer: Matrix,
    /// Second-moment release `Q_t` (symmetrized in place).
    q_mat: Matrix,
    /// Ridged-surrogate and iteration buffers for the descent.
    descent: DescentScratch,
    strategy: DescentStrategy,
    max_iters: usize,
    /// Spectral error bound of `Q_t` (the descent's ridge).
    matrix_error: f64,
    /// Lemma 4.1's `α`.
    alpha: f64,
}

impl PrivateGradient {
    /// Build the two trees for gradients over `set` (dimension `k`) on
    /// streams of length up to `t_max` under the total budget `params`.
    /// The first-moment tree forks `rng` first, then the second-moment
    /// tree.
    ///
    /// Lemma 4.1's bound is fixed here, since it depends only on the tree
    /// geometry (σ, levels, `k`) and `‖C‖`: with `β` split across the two
    /// trees and union-bounded over the horizon, `α = 2(me·‖C‖ + ve)`.
    /// `ve` is the first-moment tree's Proposition C.1 bound. `me` bounds
    /// the spectral norm of the second-moment noise, a sum of at most
    /// `levels` i.i.d. Gaussian `k×k` matrices with per-entry deviation
    /// `σ`: by Proposition A.1 it is `σ·√levels·(2√k + √(2 ln(1/β)))`
    /// w.p. `≥ 1 − β`. (The tree's own Frobenius bound would give `≈ k`
    /// instead of `≈ √k`; Lemma 4.1's `√d` rests on this sharpening.)
    ///
    /// # Errors
    /// Invalid privacy parameters (the Gaussian trees need `δ > 0`).
    pub(crate) fn new<C: ConvexSet + ?Sized>(
        set: &C,
        t_max: usize,
        params: &PrivacyParams,
        beta: f64,
        strategy: DescentStrategy,
        max_iters: usize,
        rng: &mut NoiseRng,
    ) -> Result<Self> {
        let k = set.dim();
        let half = params.halve();
        // ‖x y‖ ≤ 1 and ‖x xᵀ‖_F = ‖x‖² ≤ 1 under the §2 normalization,
        // so both streams have per-item norm bound 1 (sensitivity 2).
        let tree_xy = TreeMechanism::new(k, t_max, 1.0, &half, rng.fork())?;
        let tree_xx = TreeMechanism::new(k * k, t_max, 1.0, &half, rng.fork())?;
        let beta_each = beta / (2.0 * t_max as f64);
        let levels = tree_xx.levels() as f64;
        let matrix_error = tree_xx.sigma()
            * levels.sqrt()
            * (2.0 * (k as f64).sqrt() + (2.0 * (1.0 / beta_each).ln()).sqrt());
        let vector_error = tree_xy.error_bound(beta_each);
        let alpha = 2.0 * (matrix_error * set.diameter() + vector_error);
        Ok(PrivateGradient {
            tree_xy,
            tree_xx,
            xy: vec![0.0; k],
            outer: Matrix::zeros(k, k),
            q_mat: Matrix::zeros(k, k),
            descent: DescentScratch::new(k),
            strategy,
            max_iters,
            matrix_error,
            alpha,
        })
    }

    /// Points consumed so far.
    pub(crate) fn t(&self) -> usize {
        self.tree_xx.len()
    }

    /// `(t, T)`: points consumed so far and the horizon.
    pub(crate) fn horizon(&self) -> (usize, usize) {
        (self.t(), self.tree_xx.t_max())
    }

    /// Lemma 4.1's uniform gradient-error bound `α`: w.p. `≥ 1 − β`,
    /// `sup_{θ∈C} ‖g_t(θ) − ∇L(θ; Γ_t)‖ ≤ α` at every `t ≤ T`.
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Reserved memory of the two trees in `f64` slots (see
    /// [`TreeMechanism::memory_slots`]).
    pub(crate) fn memory_slots(&self) -> usize {
        self.tree_xx.memory_slots() + self.tree_xy.memory_slots()
    }

    /// Feed one validated point `(x, y)` to both trees, then minimize the
    /// released objective over `set` (the set the bound was built for)
    /// from `warm`, writing the minimizer into `out`. The descent uses
    /// the true objective's Lipschitz constant `2t(1 + ‖C‖)`; see
    /// [`crate::descent`] for the strategies.
    pub(crate) fn step_into<C: ConvexSet + ?Sized>(
        &mut self,
        x: &[f64],
        y: f64,
        set: &C,
        warm: &[f64],
        out: &mut [f64],
    ) -> Result<()> {
        vector::scaled_copy_into(y, x, &mut self.xy);
        let q = self.tree_xy.update_ref(&self.xy)?;
        self.outer.set_outer(x, x).map_err(CoreError::Linalg)?;
        self.tree_xx.update_into(self.outer.as_slice(), self.q_mat.as_mut_slice())?;
        self.q_mat.symmetrize_mut();
        let lipschitz = 2.0 * self.tree_xx.len() as f64 * (1.0 + set.diameter());
        minimize_private_objective_into(
            self.strategy,
            &self.q_mat,
            q,
            set,
            self.matrix_error,
            self.alpha,
            lipschitz,
            self.max_iters,
            warm,
            &mut self.descent,
            out,
        );
        Ok(())
    }

    /// Append both tree states, first moment first, in the live-level
    /// layout of [`codec::put_tree`]. Scratch is excluded: every step
    /// overwrites it before reading it.
    pub(crate) fn put_trees(&self, e: &mut Enc<'_>) {
        codec::put_tree(e, &self.tree_xy.export_state());
        codec::put_tree(e, &self.tree_xx.export_state());
    }

    /// Read the two tree states [`put_trees`](Self::put_trees) wrote.
    pub(crate) fn take_trees(d: &mut Dec<'_>) -> Result<[TreeState; 2]> {
        Ok([codec::take_tree(d)?, codec::take_tree(d)?])
    }

    /// Restore both trees to a blob's step count `t`: `t` must be within
    /// the horizon and both trees must have consumed exactly `t` points
    /// (every step feeds both once).
    ///
    /// # Errors
    /// [`CoreError::InvalidState`] on a bad `t` or disagreeing counters;
    /// the trees' own shape checks otherwise.
    pub(crate) fn restore(&mut self, t: usize, [xy, xx]: &[TreeState; 2]) -> Result<()> {
        let t_max = self.tree_xx.t_max();
        if t > t_max {
            return Err(CoreError::InvalidState {
                reason: format!("t = {t} exceeds horizon T = {t_max}"),
            });
        }
        if xy.t != t || xx.t != t {
            return Err(CoreError::InvalidState {
                reason: format!(
                    "tree step counters ({}, {}) disagree with mechanism t = {t}",
                    xy.t, xx.t
                ),
            });
        }
        self.tree_xy.restore_state(xy)?;
        self.tree_xx.restore_state(xx)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_erm::DataPoint;
    use pir_geometry::L2Ball;

    fn params(epsilon: f64) -> PrivacyParams {
        PrivacyParams::approx(epsilon, 1e-5).unwrap()
    }

    fn gradient(k: usize, t_max: usize, epsilon: f64, seed: u64) -> PrivateGradient {
        let mut rng = NoiseRng::seed_from_u64(seed);
        let set = L2Ball::unit(k);
        PrivateGradient::new(
            &set,
            t_max,
            &params(epsilon),
            0.05,
            DescentStrategy::default(),
            64,
            &mut rng,
        )
        .unwrap()
    }

    fn stream(n: usize, k: usize, seed: u64) -> Vec<DataPoint> {
        let mut rng = NoiseRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = vector::scale(&rng.unit_sphere(k), 0.9);
                let y = (0.6 * x[0] - 0.3 * x[1]).clamp(-1.0, 1.0);
                DataPoint::new(x, y)
            })
            .collect()
    }

    /// One `step_into`, adding the point to the exact sums
    /// `(Σ x xᵀ, Σ x y)` alongside.
    fn feed(g: &mut PrivateGradient, exact: &mut (Matrix, Vec<f64>), z: &DataPoint) {
        let k = z.x.len();
        let mut out = vec![0.0; k];
        g.step_into(&z.x, z.y, &L2Ball::unit(k), &vec![0.0; k], &mut out).unwrap();
        exact.0.add_outer(1.0, &z.x, &z.x).unwrap();
        vector::axpy(z.y, &z.x, &mut exact.1);
    }

    /// `2(Aθ − b)`: the released `g_t` for `(A, b) = (Q_t, q_t)`, the
    /// true `∇L` for the exact sums.
    fn eval(a: &Matrix, b: &[f64], theta: &[f64]) -> Vec<f64> {
        let mut g = a.matvec(theta).unwrap();
        vector::axpy(-1.0, b, &mut g);
        vector::scale(&g, 2.0)
    }

    fn released(g: &PrivateGradient, theta: &[f64]) -> Vec<f64> {
        eval(&g.q_mat, g.tree_xy.release_view(), theta)
    }

    #[test]
    fn alpha_combines_component_errors_lemma41() {
        let (k, t_max) = (16, 64);
        let g = gradient(k, t_max, 1.0, 1);
        let beta_each = 0.05 / (2.0 * t_max as f64);
        let levels = g.tree_xx.levels() as f64;
        let me = g.tree_xx.sigma()
            * levels.sqrt()
            * (2.0 * (k as f64).sqrt() + (2.0 * (1.0 / beta_each).ln()).sqrt());
        let ve = g.tree_xy.error_bound(beta_each);
        assert_eq!(g.alpha().to_bits(), (2.0 * (me * 1.0 + ve)).to_bits());
        assert_eq!(g.matrix_error.to_bits(), me.to_bits());
        // The spectral sharpening: me grows like 2√k, the Frobenius bound
        // of the same tree like k, so it is tighter for k > 4.
        assert!(me < g.tree_xx.error_bound(beta_each));
    }

    #[test]
    fn trees_fork_first_moment_first_and_release_symmetrized() {
        let k = 3;
        let mut g = gradient(k, 16, 1.0, 5);
        let mut exact = (Matrix::zeros(k, k), vec![0.0; k]);
        let mut rng = NoiseRng::seed_from_u64(5);
        let half = params(1.0).halve();
        let mut xy = TreeMechanism::new(k, 16, 1.0, &half, rng.fork()).unwrap();
        let mut xx = TreeMechanism::new(k * k, 16, 1.0, &half, rng.fork()).unwrap();
        for z in stream(5, k, 6) {
            feed(&mut g, &mut exact, &z);
            let q = xy.update(&vector::scale(&z.x, z.y)).unwrap();
            let mut outer = Matrix::zeros(k, k);
            outer.set_outer(&z.x, &z.x).unwrap();
            let raw = xx.update(outer.as_slice()).unwrap();
            assert_eq!(g.tree_xy.release_view(), &q[..]);
            for i in 0..k {
                for j in 0..k {
                    let avg = 0.5 * (raw[i * k + j] + raw[j * k + i]);
                    let want = if i == j { raw[i * k + i] } else { avg };
                    assert_eq!(g.q_mat.get(i, j).to_bits(), want.to_bits(), "({i}, {j})");
                }
            }
        }
        assert_eq!(g.t(), 5);
    }

    #[test]
    fn matches_true_gradient_with_exact_statistics() {
        // At a vanishing noise scale g_t equals ∇L up to rounding.
        let k = 2;
        let mut g = gradient(k, 8, 1e12, 2);
        let mut exact = (Matrix::zeros(k, k), vec![0.0; k]);
        for z in stream(6, k, 3) {
            feed(&mut g, &mut exact, &z);
        }
        let theta = [0.2, -0.7];
        let err = vector::distance(&released(&g, &theta), &eval(&exact.0, &exact.1, &theta));
        assert!(err < 1e-9, "error {err}");
    }

    #[test]
    fn released_gradient_stays_within_alpha() {
        // Lemma 4.1 at a unit budget: ‖g_t(θ) − ∇L(θ)‖ ≤ α over C, every t.
        let k = 4;
        let mut g = gradient(k, 32, 1.0, 4);
        let mut exact = (Matrix::zeros(k, k), vec![0.0; k]);
        let mut rng = NoiseRng::seed_from_u64(6);
        for (t, z) in stream(32, k, 5).iter().enumerate() {
            feed(&mut g, &mut exact, z);
            let theta = rng.unit_sphere(k);
            let err = vector::distance(&released(&g, &theta), &eval(&exact.0, &exact.1, &theta));
            assert!(err <= g.alpha(), "t = {}: error {err} > α = {}", t + 1, g.alpha());
        }
    }
}
