//! Per-timestep descent strategies over the private gradient function.
//!
//! Both are pure post-processing of the released statistics `(Q_t, q_t)`
//! and therefore free of privacy cost (Definition 5):
//!
//! - [`DescentStrategy::RidgedQuadraticFista`] (default). The private
//!   gradient function is the exact gradient field of the *released
//!   quadratic* `J̃(θ) = θᵀQ_tθ − 2⟨q_t, θ⟩`. We minimize the ridge-
//!   stabilized surrogate `J̃_λ(θ) = J̃(θ) + λ‖θ‖²` with `λ` set to the
//!   spectral error bound of `Q_t` (which makes `Q_t + λI ⪰ 0`, so the
//!   surrogate is convex and FISTA converges to its global constrained
//!   minimum). Since `sup_{θ∈C} |J̃(θ) − L(θ; Γ_t)| ≤ α‖C‖` (Lemma 4.1)
//!   and the ridge shifts values by at most `λ‖C‖² ≤ α‖C‖`, the returned
//!   point satisfies `L(θ; Γ_t) − L(θ̂_t; Γ_t) = O(α‖C‖)` — Theorem 4.2's
//!   guarantee — **in every noise regime**. (The ridge stabilization is
//!   the same device as Sheffet's/the AdaSSP line of private regression.)
//! - [`DescentStrategy::PaperNoisyPgd`]. The paper-literal
//!   `NOISYPROJGRAD(C, g_t, r)` with the Proposition B.1 worst-case step
//!   size `η = ‖C‖/(√r(α + L_t))`. At practical scales this step is tiny
//!   (the union-bounded `α` is large), so many more iterations are needed
//!   to realize the same guarantee — quantified by ablation A2.

use pir_geometry::ConvexSet;
use pir_linalg::{vector, Matrix, PowerIterScratch};
use pir_optim::{
    fista_into_adaptive, iterations_for_accuracy, noisy_projected_gradient, FistaScratch,
    NoisyPgdConfig, QuadraticView,
};

/// Relative-progress stop for the per-step FISTA: the loop exits once one
/// projected step moves the iterate by less than this fraction of
/// `max(1, ‖θ‖)`. With warm starts the per-step quadratics barely change
/// between arrivals, so the rule typically fires well before the
/// `max_pgd_iters` ceiling; the truncation moves the released `θ_t` by at
/// most `≈ max_iters · tol` (see [`fista_into_adaptive`]), i.e. `≲ 1e-7`
/// at the default 64-iteration budget — the tolerance pinned by the
/// `adaptive_policy_stays_within_documented_tolerance` property test.
pub(crate) const FISTA_STOP_REL_TOL: f64 = 1e-10;

/// How the per-timestep constrained minimization is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DescentStrategy {
    /// Minimize the released quadratic, ridge-stabilized to be convex
    /// (default; see module docs).
    #[default]
    RidgedQuadraticFista,
    /// The paper-literal `NOISYPROJGRAD` of Appendix B.
    PaperNoisyPgd,
}

/// Reusable per-step buffers for [`minimize_private_objective_into`]:
/// the ridged surrogate Hessian `A = 2(Q + λI)`, its linear term
/// `b = 2q`, and the power-iteration / FISTA iteration scratch. One of
/// these lives inside each mechanism so the steady-state descent never
/// touches the heap.
#[derive(Debug, Clone)]
pub(crate) struct DescentScratch {
    a: Matrix,
    b: Vec<f64>,
    power: PowerIterScratch,
    fista: FistaScratch,
}

impl DescentScratch {
    /// Scratch for a `d`-dimensional descent.
    pub(crate) fn new(d: usize) -> Self {
        DescentScratch {
            a: Matrix::zeros(d, d),
            b: vec![0.0; d],
            power: PowerIterScratch::new(d, d),
            fista: FistaScratch::new(d),
        }
    }
}

/// Minimize the private objective over `set` per the chosen strategy,
/// writing the minimizer into `out`. The private gradient function is
/// passed as a *borrowed view* — the released statistics `(Q, q)` stay in
/// the mechanism-owned scratch they were produced in (`q_matrix` must
/// be symmetric, as the private gradient function's unpacked release is).
///
/// `ridge` is the spectral error bound of the second-moment release
/// (Lemma 4.1's matrix term); `alpha` the full gradient-error bound;
/// `lipschitz` the true objective's Lipschitz constant over `C` (used by
/// the paper path); `max_iters` the per-timestep iteration budget. On the
/// FISTA path the budget is a *ceiling*: the loop stops early once the
/// relative per-iteration progress drops below [`FISTA_STOP_REL_TOL`]
/// (warm starts make this the common case in steady state), perturbing
/// the released minimizer by no more than the documented `≈ 1e-7`.
///
/// The default [`DescentStrategy::RidgedQuadraticFista`] path performs
/// zero heap allocations; [`DescentStrategy::PaperNoisyPgd`] still
/// allocates inside the oracle closure.
#[allow(clippy::too_many_arguments)]
pub(crate) fn minimize_private_objective_into<C: ConvexSet + ?Sized>(
    strategy: DescentStrategy,
    q_matrix: &Matrix,
    q_vector: &[f64],
    set: &C,
    ridge: f64,
    alpha: f64,
    lipschitz: f64,
    max_iters: usize,
    warm: &[f64],
    scratch: &mut DescentScratch,
    out: &mut [f64],
) {
    match strategy {
        DescentStrategy::RidgedQuadraticFista => {
            let d = q_vector.len();
            // A = 2(Q + λI), b = 2q so that ½θᵀAθ − ⟨b, θ⟩ = J̃_λ(θ).
            let DescentScratch { a, b, power, fista } = scratch;
            a.copy_from_slice_checked(q_matrix.as_slice())
                .expect("descent scratch sized to the mechanism dimension");
            for i in 0..d {
                let v = a.get(i, i) + ridge;
                a.set(i, i, v);
            }
            a.scale_mut(2.0);
            vector::scaled_copy_into(2.0, q_vector, b);
            let smooth = quadratic_smoothness(a, power);
            let quad = QuadraticView::new(a, b, 0.0);
            fista_into_adaptive(
                &quad,
                set,
                smooth,
                max_iters,
                FISTA_STOP_REL_TOL,
                warm,
                fista,
                out,
            );
        }
        DescentStrategy::PaperNoisyPgd => {
            let alpha = alpha.max(1e-12);
            let r = iterations_for_accuracy(alpha, lipschitz).min(max_iters);
            let cfg = NoisyPgdConfig { iters: r, alpha, lipschitz };
            let res = noisy_projected_gradient(
                |t| {
                    // g(θ) = 2(Qθ − q) — the Definition-5 gradient oracle.
                    let mut g = q_matrix.matvec(t).expect("dimension fixed at construction");
                    vector::axpy(-1.0, q_vector, &mut g);
                    vector::scale_mut(&mut g, 2.0);
                    g
                },
                set,
                &cfg,
                warm,
            );
            out.copy_from_slice(&res);
        }
    }
}

/// The smoothness constant the descent's FISTA steps with: a cheap
/// power-iteration *estimate* of the largest eigenvalue of the
/// surrogate's Hessian `A` (relative tolerance `1e-3`, at most 300
/// iterations), with a Frobenius-norm fallback if the iteration fails.
///
/// It is not an upper bound. A power-iteration value is a Rayleigh
/// quotient, which never exceeds `λ_max(A)`, and the loose stop can end
/// well short of it. FISTA's `1/L` step is only guaranteed for
/// `L ≥ λ_max`. docs/KNOWN_FAILURES.md records a Reg1 stream on which
/// the value was below `λ_max` at every step; ROADMAP item 2 is the fix.
fn quadratic_smoothness(a: &Matrix, power: &mut PowerIterScratch) -> f64 {
    a.spectral_norm_with(1e-3, 300, power).unwrap_or_else(|_| a.frobenius_norm()).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_geometry::{L2Ball, WidthSet};
    use pir_optim::fista_into;
    use proptest::prelude::*;

    /// The descent with a fresh scratch, returning the minimizer.
    #[allow(clippy::too_many_arguments)]
    fn minimize(
        strategy: DescentStrategy,
        q: &Matrix,
        qv: &[f64],
        set: &L2Ball,
        ridge: f64,
        alpha: f64,
        lipschitz: f64,
        max_iters: usize,
    ) -> Vec<f64> {
        let d = qv.len();
        let mut out = vec![0.0; d];
        let (warm, mut scratch) = (vec![0.0; d], DescentScratch::new(d));
        minimize_private_objective_into(
            strategy,
            q,
            qv,
            set,
            ridge,
            alpha,
            lipschitz,
            max_iters,
            &warm,
            &mut scratch,
            &mut out,
        );
        out
    }

    /// The Definition-5 oracle `g(θ) = 2(Qθ − q)`.
    fn eval(q: &Matrix, qv: &[f64], theta: &[f64]) -> Vec<f64> {
        let mut g = q.matvec(theta).unwrap();
        vector::axpy(-1.0, qv, &mut g);
        vector::scale(&g, 2.0)
    }

    /// The fixed-budget descent the adaptive policy replaces: identical
    /// surrogate assembly, but FISTA always runs the full `max_iters`.
    fn minimize_fixed_iterations(
        q_matrix: &Matrix,
        q_vector: &[f64],
        set: &L2Ball,
        ridge: f64,
        max_iters: usize,
        warm: &[f64],
        out: &mut [f64],
    ) {
        let d = q_vector.len();
        let mut scratch = DescentScratch::new(d);
        let DescentScratch { a, b, power, fista } = &mut scratch;
        a.copy_from_slice_checked(q_matrix.as_slice()).unwrap();
        for i in 0..d {
            let v = a.get(i, i) + ridge;
            a.set(i, i, v);
        }
        a.scale_mut(2.0);
        vector::scaled_copy_into(2.0, q_vector, b);
        let smooth = quadratic_smoothness(a, power);
        let quad = QuadraticView::new(a, b, 0.0);
        fista_into(&quad, set, smooth, max_iters, warm, fista, out);
    }

    proptest! {
        /// The relative-progress stop may truncate the per-step FISTA run
        /// but must never move the released minimizer by more than the
        /// documented tolerance relative to the full fixed-budget run —
        /// over random (symmetrized, possibly indefinite) releases, ridges,
        /// and warm starts.
        #[test]
        fn adaptive_policy_stays_within_documented_tolerance(
            raw in prop::collection::vec(-2.0f64..2.0, 16),
            qv in prop::collection::vec(-1.0f64..1.0, 4),
            warm in prop::collection::vec(-0.5f64..0.5, 4),
            ridge in 0.0f64..4.0,
        ) {
            let d = 4;
            let mut q = Matrix::zeros(d, d);
            for i in 0..d {
                for j in 0..d {
                    q.set(i, j, 0.5 * (raw[i * d + j] + raw[j * d + i]));
                }
            }
            let set = L2Ball::unit(d);
            let max_iters = 64;
            // Frobenius ≥ spectral ≥ |λ_min|, so this ridge always makes
            // the surrogate convex (the regime the mechanisms run in).
            let lam = q.frobenius_norm() + ridge;
            let mut scratch = DescentScratch::new(d);
            let mut adaptive = vec![0.0; d];
            minimize_private_objective_into(
                DescentStrategy::RidgedQuadraticFista,
                &q,
                &qv,
                &set,
                lam,
                1.0,
                10.0,
                max_iters,
                &warm,
                &mut scratch,
                &mut adaptive,
            );
            let mut fixed = vec![0.0; d];
            minimize_fixed_iterations(&q, &qv, &set, lam, max_iters, &warm, &mut fixed);
            prop_assert!(
                vector::distance(&adaptive, &fixed) <= 1e-7,
                "adaptive {:?} drifted from fixed {:?}", adaptive, fixed
            );
        }
    }

    /// Exact statistics: both strategies must approach the constrained
    /// least-squares minimizer; the FISTA path should get much closer
    /// within the same iteration budget.
    #[test]
    fn strategies_agree_in_the_noiseless_limit_but_fista_is_sharper() {
        let d = 3;
        // Statistics of 50 points x = e0-ish, y = 0.5 x0.
        let mut q = Matrix::zeros(d, d);
        let mut qv = vec![0.0; d];
        for i in 0..50 {
            let x = vec![0.9, 0.1 * ((i % 3) as f64 - 1.0), 0.05];
            let y = 0.5 * x[0];
            q.add_outer(1.0, &x, &x).unwrap();
            vector::axpy(y, &x, &mut qv);
        }
        let set = L2Ball::unit(d);
        let lip = 2.0 * 50.0 * 2.0;
        let fista_out =
            minimize(DescentStrategy::RidgedQuadraticFista, &q, &qv, &set, 0.0, 1e-6, lip, 64);
        let pgd_out = minimize(DescentStrategy::PaperNoisyPgd, &q, &qv, &set, 0.0, 1e-6, lip, 64);
        // Residual gradient norm at the FISTA point is near zero.
        let g_fista = vector::norm2(&eval(&q, &qv, &fista_out));
        let g_pgd = vector::norm2(&eval(&q, &qv, &pgd_out));
        assert!(g_fista < 1e-3, "fista residual {g_fista}");
        assert!(g_fista <= g_pgd + 1e-9, "fista should not be worse");
        // Both stay feasible.
        assert!(vector::norm2(&fista_out) <= set.diameter() + 1e-9);
        assert!(vector::norm2(&pgd_out) <= set.diameter() + 1e-9);
    }

    /// With an indefinite noisy Q, the ridge restores convexity and the
    /// output remains feasible and finite.
    #[test]
    fn ridge_handles_indefinite_noise() {
        let d = 4;
        let mut q = Matrix::zeros(d, d);
        // Noise-dominated: Q = -2 I + small signal.
        for i in 0..d {
            q.set(i, i, -2.0);
        }
        q.set(0, 0, -1.0);
        let set = L2Ball::unit(d);
        let out = minimize(
            DescentStrategy::RidgedQuadraticFista,
            &q,
            &[0.5, 0.0, 0.0, 0.0],
            &set,
            2.5, // ridge = spectral error bound ≥ |λ_min|
            6.0,
            100.0,
            128,
        );
        assert!(out.iter().all(|v| v.is_finite()));
        assert!(vector::norm2(&out) <= 1.0 + 1e-9);
    }
}
