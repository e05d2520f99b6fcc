//! The lifting step of Algorithm 3 (Step 9): given the private projected
//! estimate `ϑ ∈ R^m`, recover `θ ∈ C ⊂ R^d` with `Φθ ≈ ϑ`.
//!
//! The paper's program is `argmin_θ ‖θ‖_C subject to Φθ = ϑ`, whose
//! estimation error is controlled by the M\*-bound (Theorem 5.3):
//! `‖θ − θ_true‖ = O((w(C) + ‖C‖√log(1/β))/√m)`.
//!
//! Two solvers (DESIGN.md, decision 3):
//! - [`lift_constrained_ls`] (default): FISTA on
//!   `min_{θ∈C} ‖Φθ − ϑ‖²`. The true preimage lies in `C` and attains
//!   residual ≈ 0, so the minimizer is feasible (`∈ C`, hence gauge ≤ 1)
//!   with a near-zero residual — the two facts Theorem 5.3's proof
//!   consumes. Robust, and fast with closed-form projections.
//! - [`lift_min_gauge`]: the paper's program solved literally — bisection
//!   over the gauge level `ρ` with alternating projections between `ρC`
//!   and the affine subspace `{θ : Φθ = ϑ}` (Cholesky of `ΦΦᵀ`).
//!
//! The default lift is FISTA with a backtracking step (Beck–Teboulle
//! 2009, §4) and adaptive momentum restart (O'Donoghue–Candès 2015),
//! and it stops on a certificate. Each lift starts at the step `1/L₀`,
//! `L₀ = 2‖Φ‖²` as estimated once per sketch ([`sketch_smoothness`]),
//! and shrinks `L` by 0.9 after every accepted step; a step is accepted
//! only where the descent condition holds along it, which for this
//! quadratic is `‖Φd‖² ≤ (L/2)‖d‖²`, and `L` doubles otherwise, up to
//! the certified `2‖Φ‖²_F` ([`smoothness_bracket`]). On the benchmarked
//! stream the curvature `2‖Φd‖²/‖d‖²` along the accepted steps has a
//! median of 2.5 (p90 7.5) against `L₀ ≈ 34`, so most steps are several
//! times longer than a fixed `1/L₀` step. The lift stops once the
//! Frank–Wolfe gap `⟨∇f(θ), θ⟩ + h_C(−∇f(θ)) ≥ f(θ) − f*` of its
//! feasible iterate is at most [`LIFT_GAP_TOL`]`·‖ϑ‖²`, or when its work
//! budget runs out.
//!
//! Each iteration costs one sparse `Φθ` at the new iterate (over its
//! nonzero entries, [`GaussianSketch::apply_sparse_into`]), one dense
//! `Φᵀr` at the momentum point and one projection onto `C`; a
//! backtrack repeats the projection and the sparse product. The
//! momentum point's `Φy` comes from the two iterates' by linearity, and
//! the gradient at the iterate, which the gap needs, from the momentum
//! point's and the previous iterate's, because `∇f` is affine. For a
//! low-width `C` such as `B₁` the iterates are sparse (about 200–300 of
//! 1000 entries on the benchmarked stream). The projection onto `B₁` is
//! `O(d + k log k)` rather than a full `O(d log d)` sort: each
//! projection gets the number of magnitudes the previous one kept
//! ([`pir_geometry::ProjectionHint`], carried in the [`LiftScratch`]
//! from one step to the next), and only about that many get sorted.
//! Neither the skipped zero columns nor the hint changes a bit of the
//! release.

use crate::error::CoreError;
use crate::Result;
use pir_geometry::{ConvexSet, ProjectionHint};
use pir_linalg::{vector, CholeskyFactor, Matrix};
use pir_sketch::GaussianSketch;

/// Default lift: constrained least squares `min_{θ∈C} ‖Φθ − ϑ‖²` by
/// backtracking FISTA. `smoothness` is the first step's `L`; callers
/// compute the power-iteration estimate of `2‖Φ‖²` once per sketch
/// ([`sketch_smoothness`]) and cache it. [`crate::PrivIncReg2`] computes
/// it at its first step and carries it in its state blob, so a session
/// restored from that blob does not compute it again. The estimate need
/// not bound `2‖Φ‖²`: backtracking checks every step.
///
/// # Errors
/// Dimension mismatch between `target` and the sketch.
pub fn lift_constrained_ls(
    sketch: &GaussianSketch,
    target: &[f64],
    set: &dyn ConvexSet,
    smoothness: f64,
    iters: usize,
    warm_start: &[f64],
) -> Result<Vec<f64>> {
    if target.len() != sketch.m() {
        return Err(CoreError::InvalidConfig {
            reason: format!("lift target dimension {} != sketch m {}", target.len(), sketch.m()),
        });
    }
    // Allocating wrapper over the `_into` primitive, so the two paths
    // cannot fork semantics (same steps, restarts and stop).
    let mut scratch = LiftScratch::new(sketch.m(), sketch.d());
    let mut out = vec![0.0; sketch.d()];
    lift_constrained_ls_into(
        sketch,
        target,
        set,
        smoothness,
        iters,
        warm_start,
        &mut scratch,
        &mut out,
    );
    Ok(out)
}

/// Reusable buffers for [`lift_constrained_ls_into`]: four `m`-vectors
/// (`Φ` at the iterate, the momentum point and the trial point, and the
/// residual), five `d`-vectors (the momentum point, the trial point
/// before and after projection, and the gradients at the momentum point
/// and at the iterate), the `d` column indices
/// [`GaussianSketch::apply_sparse_into`] builds, and the projection
/// hint. Between lifts the mechanism lends the column indices to its
/// sparse covariate embedding, and the other buffers to the one power
/// iteration that estimates `2‖Φ‖²` ([`sketch_smoothness`]).
#[derive(Debug, Clone)]
pub struct LiftScratch {
    at_theta: Vec<f64>,
    at_momentum: Vec<f64>,
    at_trial: Vec<f64>,
    resid: Vec<f64>,
    momentum: Vec<f64>,
    raw: Vec<f64>,
    trial: Vec<f64>,
    grad_momentum: Vec<f64>,
    grad_theta: Vec<f64>,
    support: Vec<u32>,
    hint: ProjectionHint,
}

impl LiftScratch {
    /// Buffers for an `m → d` lift.
    pub fn new(m: usize, d: usize) -> Self {
        LiftScratch {
            at_theta: vec![0.0; m],
            at_momentum: vec![0.0; m],
            at_trial: vec![0.0; m],
            resid: vec![0.0; m],
            momentum: vec![0.0; d],
            raw: vec![0.0; d],
            trial: vec![0.0; d],
            grad_momentum: vec![0.0; d],
            grad_theta: vec![0.0; d],
            support: vec![0; d],
            hint: ProjectionHint::default(),
        }
    }

    /// The `d` column-index slots, free between lifts: the mechanism
    /// borrows them for its sparse covariate embedding.
    pub(crate) fn support_mut(&mut self) -> &mut [u32] {
        &mut self.support
    }
}

/// [`lift_constrained_ls`] writing the lifted release into `out` and
/// reusing caller-owned scratch — the allocation-free form of the
/// per-step mechanism path (Algorithm 3, Step 9). Value-for-value
/// identical to the allocating function, and a pure function of
/// `(Φ, ϑ, smoothness, warm_start, iters)`: nothing in `scratch`
/// carries over but the projection hint, which never changes a result.
///
/// `iters` budgets the lift's evaluations of `Φθ`, each at a point a
/// projection onto `C` just made: one at the projected warm start, then
/// one per trial step, whether the step is accepted or backtracked. So
/// a lift makes at most `iters` sparse products and `iters` projections,
/// and at most `iters − 1` dense products `Φᵀr`. Returns the number of
/// evaluations used: fewer than `iters` when the gap certificate
/// stopped the lift (1 when it certified the projected warm start), and
/// 0 only when `iters = 0`, which returns the projected warm start.
///
/// # Panics
/// Panics if `target`/`warm_start`/`out`/`scratch` dimensions do not
/// match the sketch (the mechanism fixes all of them at construction).
#[allow(clippy::too_many_arguments)]
pub fn lift_constrained_ls_into(
    sketch: &GaussianSketch,
    target: &[f64],
    set: &dyn ConvexSet,
    smoothness: f64,
    iters: usize,
    warm_start: &[f64],
    scratch: &mut LiftScratch,
    out: &mut [f64],
) -> usize {
    assert_eq!(target.len(), sketch.m(), "lift_constrained_ls_into: target/sketch mismatch");
    assert_eq!(scratch.resid.len(), sketch.m(), "lift_constrained_ls_into: scratch m mismatch");
    assert_eq!(scratch.trial.len(), sketch.d(), "lift_constrained_ls_into: scratch d mismatch");
    assert!(
        out.len() == sketch.d() && warm_start.len() == sketch.d(),
        "lift_constrained_ls_into: output or warm start length mismatch"
    );
    let LiftScratch {
        at_theta,
        at_momentum,
        at_trial,
        resid,
        momentum,
        raw,
        trial,
        grad_momentum,
        grad_theta,
        support,
        hint,
    } = scratch;
    // `out` holds the iterate θ_k throughout.
    set.project_into_hinted(warm_start, out, hint);
    if iters == 0 {
        return 0;
    }
    sketch.apply_sparse_into(out, support, at_theta).expect("dimension fixed");
    let mut used = 1;
    momentum.copy_from_slice(out);
    at_momentum.copy_from_slice(at_theta);
    let tol = LIFT_GAP_TOL * vector::norm2_sq(target);
    let mut l = smoothness.max(1e-12);
    // The certified cap on `L`, a pass over all of `Φ`: computed on the
    // first failed descent check only.
    let mut ceiling = None;
    let (mut t_k, mut beta) = (1.0f64, 0.0f64);
    while used < iters {
        // ∇f(y_k) = Φᵀ(2(Φy_k − ϑ)); doubling is exact, so this is 2Φᵀr.
        for ((r, &p), &v) in resid.iter_mut().zip(at_momentum.iter()).zip(target) {
            *r = 2.0 * (p - v);
        }
        sketch.apply_t_into(resid, grad_momentum).expect("dimension fixed");
        // ∇f is affine and θ_k = (y_k + βθ_{k−1})/(1 + β), so
        // ∇f(θ_k) = (∇f(y_k) + β∇f(θ_{k−1}))/(1 + β); exact when β = 0.
        if beta == 0.0 {
            grad_theta.copy_from_slice(grad_momentum);
        } else {
            let w = 1.0 / (1.0 + beta);
            for (g, &gy) in grad_theta.iter_mut().zip(grad_momentum.iter()) {
                *g = (gy + beta * *g) * w;
            }
        }
        vector::scaled_copy_into(-1.0, grad_theta, raw);
        if vector::dot(grad_theta, out) + set.support_value(raw) <= tol {
            return used;
        }
        // Trial steps from y_k until the descent condition holds.
        let uphill = loop {
            let step = 1.0 / l;
            for ((r, &y), &g) in raw.iter_mut().zip(momentum.iter()).zip(grad_momentum.iter()) {
                *r = y - step * g;
            }
            set.project_into_hinted(raw, trial, hint);
            sketch.apply_sparse_into(trial, support, at_trial).expect("dimension fixed");
            used += 1;
            let (mut moved_sq, mut uphill) = (0.0, 0.0);
            for ((&n, &y), &p) in trial.iter().zip(momentum.iter()).zip(out.iter()) {
                moved_sq += (n - y) * (n - y);
                uphill += (y - n) * (n - p);
            }
            let curved_sq: f64 =
                at_trial.iter().zip(at_momentum.iter()).map(|(&n, &y)| (n - y) * (n - y)).sum();
            if curved_sq <= 0.5 * l * moved_sq {
                break uphill;
            }
            let cap = *ceiling.get_or_insert_with(|| smoothness_ceiling(sketch));
            if l >= cap {
                // `cap` bounds the curvature, so only rounding failed.
                break uphill;
            }
            if used == iters {
                return used;
            }
            l = (2.0 * l).min(cap);
        };
        l *= LIFT_STEP_RELAX;
        let mut t_next = 0.5 * (1.0 + (1.0 + 4.0 * t_k * t_k).sqrt());
        beta = (t_k - 1.0) / t_next;
        if uphill > 0.0 {
            // The momentum carried the step uphill: restart it.
            t_next = 1.0;
            beta = 0.0;
        }
        // y_{k+1} = θ_{k+1} + β(θ_{k+1} − θ_k), and Φy_{k+1} likewise.
        for ((y, &n), &p) in momentum.iter_mut().zip(trial.iter()).zip(out.iter()) {
            *y = n + beta * (n - p);
        }
        for ((y, &n), &p) in at_momentum.iter_mut().zip(at_trial.iter()).zip(at_theta.iter()) {
            *y = n + beta * (n - p);
        }
        out.copy_from_slice(trial);
        std::mem::swap(at_theta, at_trial);
        t_k = t_next;
    }
    used
}

/// The lift's stop: it returns its iterate `θ` once the Frank–Wolfe gap
/// `⟨∇f(θ), θ⟩ + h_C(−∇f(θ))`, which bounds `f(θ) − f*` from above for
/// `f(θ) = ‖Φθ − ϑ‖²`, is at most `κ‖ϑ‖²` with `κ` this constant.
/// `‖ϑ‖² = f(0)` is the objective's scale; the minimum itself is often
/// zero and cannot be.
///
/// The value was picked with the Reg2 utility gate
/// (`crates/bench/tests/utility_gate.rs`), whose cells at d = 100 and at
/// d = 1000, m = 100 hold the excess risk inside envelopes measured with
/// fixed-step lifts of 60 iterations (plain FISTA at d = 100, the
/// restarting one at d = 1000). At `5·10⁻³` every gated median sits
/// within 13% of its center (within 3% at `ε ≥ 1024`); `3·10⁻³` read no
/// better, `10⁻²` moved the d = 100 median at ε = 4096 up 12%, and
/// `3·10⁻²` left the envelope. The d = 1000 medians stayed inside theirs
/// at `3·10⁻³`, `5·10⁻³` (within 3% of the centers) and even `3·10⁻²`
/// (+20% at ε = 16384): there the DP noise `ϑ` carries and the
/// M\*-bound's estimation error (Theorem 5.3, `O(w(C)/√m)` in `θ`)
/// dominate what the gap leaves.
pub const LIFT_GAP_TOL: f64 = 5e-3;

/// `L ← 0.9·L` after each accepted step, so `L` follows the curvature
/// the steps meet down as well as up.
const LIFT_STEP_RELAX: f64 = 0.9;

/// The lift's certificate computed exactly: the Frank–Wolfe gap
/// `⟨g, θ⟩ + h_C(−g)` with `g = 2Φᵀ(Φθ − ϑ)` from dense products. For a
/// feasible `θ` it bounds `‖Φθ − ϑ‖² − min_C ‖Φθ' − ϑ‖²` from above.
/// Allocates; for diagnostics and tests (the lift itself carries the
/// gradient along its iterates).
///
/// # Panics
/// Panics if `target` or `theta` does not match the sketch.
pub fn lift_gap(
    sketch: &GaussianSketch,
    target: &[f64],
    set: &dyn ConvexSet,
    theta: &[f64],
) -> f64 {
    let resid = vector::sub(&sketch.apply(theta).expect("theta matches the sketch"), target);
    let grad = vector::scale(&sketch.apply_t(&resid).expect("target matches the sketch"), 2.0);
    vector::dot(&grad, theta) + set.support_value(&vector::scale(&grad, -1.0))
}

/// Smoothness constant `2‖Φ‖²` for the lift objective, estimated by power
/// iteration (do this once per sketch and cache it).
pub fn sketch_smoothness(sketch: &GaussianSketch) -> f64 {
    sketch_smoothness_with(sketch, &mut LiftScratch::new(sketch.m(), sketch.d()))
}

/// [`sketch_smoothness`] on buffers borrowed from a [`LiftScratch`]
/// sized for the sketch: the same bits, no allocation. The lift does not
/// read them back, so this may run between lifts.
pub(crate) fn sketch_smoothness_with(sketch: &GaussianSketch, scratch: &mut LiftScratch) -> f64 {
    let LiftScratch { grad_theta, resid, raw, .. } = scratch;
    let s = sketch.matrix().spectral_norm_in(1e-6, 50_000, grad_theta, resid, raw).unwrap_or_else(
        |_| {
            // Conservative fallback: Frobenius norm dominates the spectral norm.
            sketch.matrix().frobenius_norm()
        },
    );
    2.0 * s * s
}

/// Relative slack on each end of [`smoothness_bracket`], for rounding:
/// the bracket and the power iteration sum the same products in
/// different orders.
const SMOOTHNESS_BRACKET_SLACK: f64 = 1e-6;

/// An `O(m·d)` bracket `[lo, hi]` that always holds the value
/// [`sketch_smoothness`] returns, widened by `1e-6` relative for rounding:
///
/// - `lo = 2‖Φ𝟙‖²/d` is the power iteration's first Rayleigh quotient
///   (it starts from `𝟙/√d`). Later quotients never fall below it, and
///   the first one is never returned, because the stop rule compares two.
/// - `hi = 2‖Φ‖²_F` dominates `2‖Φ‖²` and is the power iteration's
///   fallback when it does not converge. The lift's backtracking never
///   lets `L` past it.
///
/// The tighter-looking `2·maxᵢ‖φᵢ‖²` is not a lower bound of the
/// estimate: when the start vector is nearly orthogonal to the top
/// singular vector, the `1e-6` stop rule can fire near the second
/// singular value, below the largest row norm. A smoothness constant
/// carried in a state blob is checked against this bracket.
pub fn smoothness_bracket(sketch: &GaussianSketch) -> (f64, f64) {
    let phi = sketch.matrix();
    let row_sums_sq: f64 = (0..phi.rows()).map(|i| phi.row(i).iter().sum::<f64>().powi(2)).sum();
    (
        2.0 * row_sums_sq / phi.cols() as f64 * (1.0 - SMOOTHNESS_BRACKET_SLACK),
        smoothness_ceiling(sketch),
    )
}

/// The upper end of [`smoothness_bracket`], `2‖Φ‖²_F(1 + 10⁻⁶)`.
fn smoothness_ceiling(sketch: &GaussianSketch) -> f64 {
    2.0 * vector::norm2_sq(sketch.matrix().as_slice()) * (1.0 + SMOOTHNESS_BRACKET_SLACK)
}

/// Pre-factored affine-projection helper for [`lift_min_gauge`]: the
/// Euclidean projection onto `{θ : Φθ = v}` is
/// `θ − Φᵀ(ΦΦᵀ)⁻¹(Φθ − v)`, requiring one `m×m` SPD solve per step.
#[derive(Debug)]
pub struct AffinePreimage {
    gram_chol: CholeskyFactor,
}

impl AffinePreimage {
    /// Factor `ΦΦᵀ` (with a tiny ridge for numerical safety).
    ///
    /// # Errors
    /// Propagates Cholesky failures (degenerate sketches).
    pub fn new(sketch: &GaussianSketch) -> Result<Self> {
        let gram: Matrix = sketch.matrix().gram_rows();
        let gram_chol = CholeskyFactor::factor(&gram, 1e-10).map_err(CoreError::Linalg)?;
        Ok(AffinePreimage { gram_chol })
    }

    /// Project `theta` onto `{θ : Φθ = v}`.
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn project(&self, sketch: &GaussianSketch, theta: &[f64], v: &[f64]) -> Result<Vec<f64>> {
        let resid = vector::sub(&sketch.apply(theta).map_err(CoreError::Linalg)?, v);
        let z = self.gram_chol.solve(&resid).map_err(CoreError::Linalg)?;
        let corr = sketch.apply_t(&z).map_err(CoreError::Linalg)?;
        Ok(vector::sub(theta, &corr))
    }

    /// Minimum-norm preimage `Φᵀ(ΦΦᵀ)⁻¹ v`.
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn min_norm(&self, sketch: &GaussianSketch, v: &[f64]) -> Result<Vec<f64>> {
        let z = self.gram_chol.solve(v).map_err(CoreError::Linalg)?;
        sketch.apply_t(&z).map_err(CoreError::Linalg)
    }
}

/// The paper's literal program: `min ‖θ‖_C s.t. Φθ = ϑ`, via bisection on
/// the gauge level `ρ` with `pocs_iters` alternating projections per
/// feasibility probe.
///
/// # Errors
/// Dimension mismatches and degenerate sketches.
pub fn lift_min_gauge(
    sketch: &GaussianSketch,
    target: &[f64],
    set: &dyn ConvexSet,
    affine: &AffinePreimage,
    bisect_iters: usize,
    pocs_iters: usize,
) -> Result<Vec<f64>> {
    let feas_tol = (1e-6 * vector::norm2(target).max(1.0)).max(set.projection_accuracy());
    let probe = |rho: f64| -> Result<(Vec<f64>, f64)> {
        // Alternate between ρC and the affine subspace, then measure the
        // final constraint violation.
        let mut theta = affine.min_norm(sketch, target)?;
        for _ in 0..pocs_iters {
            theta = set.project_scaled(&theta, rho);
            theta = affine.project(sketch, &theta, target)?;
        }
        // End on the affine side so Φθ = ϑ exactly; report distance to ρC.
        let dist = vector::distance(&theta, &set.project_scaled(&theta, rho));
        Ok((theta, dist))
    };

    // Bracket: grow ρ until feasible.
    let mut hi = 1.0;
    let mut best: Option<Vec<f64>> = None;
    for _ in 0..60 {
        let (theta, dist) = probe(hi)?;
        if dist <= feas_tol {
            best = Some(theta);
            break;
        }
        hi *= 2.0;
    }
    let mut best = match best {
        Some(b) => b,
        None => {
            return Err(CoreError::InvalidConfig {
                reason: "lift_min_gauge: no feasible gauge level found (target may be \
                         far outside Φ·span(C))"
                    .to_string(),
            })
        }
    };
    let mut lo = 0.0;
    for _ in 0..bisect_iters {
        let mid = 0.5 * (lo + hi);
        if mid == 0.0 {
            break;
        }
        let (theta, dist) = probe(mid)?;
        if dist <= feas_tol {
            hi = mid;
            best = theta;
        } else {
            lo = mid;
        }
    }
    // Return the feasible-side iterate, snapped into C if ρ* ≤ 1 (the
    // regime the mechanism uses: θ_true ∈ C guarantees ρ* ≤ 1).
    if hi <= 1.0 {
        Ok(set.project(&best))
    } else {
        Ok(best)
    }
}

/// Theorem 5.3's estimation-error bound:
/// `O((w(C) + ‖C‖√log(1/β))/√m)` — exposed so experiments can print the
/// predicted lift error next to the measured one.
pub fn theorem_5_3_bound(width_c: f64, diameter_c: f64, m: usize, beta: f64) -> f64 {
    (width_c + diameter_c * (1.0 / beta).ln().sqrt()) / (m as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_dp::NoiseRng;
    use pir_geometry::{L1Ball, L2Ball, WidthSet};
    use pir_optim::{fista, Quadratic};
    use proptest::prelude::*;

    fn rng() -> NoiseRng {
        NoiseRng::seed_from_u64(31)
    }

    /// One lift problem drawn from `seed`: a random `6 × 16` sketch, a
    /// target of scale `target_scale` and a warm start of scale
    /// `warm_scale` (cold to near-converged), over the unit `ℓ₂` ball.
    fn lift_case(
        seed: u64,
        target_scale: f64,
        warm_scale: f64,
    ) -> (GaussianSketch, Vec<f64>, Vec<f64>, L2Ball) {
        let (m, d) = (6, 16);
        let mut r = NoiseRng::seed_from_u64(seed);
        let sketch = GaussianSketch::sample(m, d, &mut r);
        let target: Vec<f64> = (0..m).map(|_| r.gaussian(0.0, target_scale)).collect();
        let warm: Vec<f64> = (0..d).map(|_| r.gaussian(0.0, warm_scale)).collect();
        (sketch, target, warm, L2Ball::unit(d))
    }

    /// The lift objective `‖Φθ − ϑ‖²` from a dense product.
    fn objective(sketch: &GaussianSketch, target: &[f64], theta: &[f64]) -> f64 {
        vector::norm2_sq(&vector::sub(&sketch.apply(theta).unwrap(), target))
    }

    /// `min_C ‖Φθ − ϑ‖²` approached by plain fixed-step FISTA run for
    /// 4000 iterations at `smoothness`, from `warm`.
    fn reference_lift(
        sketch: &GaussianSketch,
        target: &[f64],
        set: &dyn ConvexSet,
        smoothness: f64,
        warm: &[f64],
    ) -> Vec<f64> {
        let phi = sketch.matrix();
        let obj = Quadratic::least_squares(
            &phi.transpose().matmul(phi).unwrap(),
            &sketch.apply_t(target).unwrap(),
            vector::norm2_sq(target),
        );
        fista(&obj, set, smoothness, 4000, warm)
    }

    /// Rounding allowance between the lift's in-loop gap, whose gradient
    /// and `Φy` come from recursions over the iterates, and the gap
    /// [`lift_gap`] computes from dense products. They differ by rounding
    /// only: by less than `10⁻¹⁶·(1 + ‖ϑ‖²)` on the certificate test's
    /// cases, measured with an instrumented copy of the lift.
    fn rounding_slack(target: &[f64]) -> f64 {
        1e-9 * (1.0 + vector::norm2_sq(target))
    }

    /// A lower bound of `2‖Φ‖² = 2λ_max(ΦΦᵀ)`: the larger of
    /// `2·maxᵢ‖φᵢ‖²` and the Rayleigh quotient after 2000 power
    /// iterations on the `m × m` Gram matrix from a start of unequal
    /// entries.
    fn smoothness_lower_bound(sketch: &GaussianSketch) -> f64 {
        let phi = sketch.matrix();
        let gram = phi.gram_rows();
        let mut v: Vec<f64> = (0..phi.rows()).map(|i| 1.0 / (i as f64 + 1.3)).collect();
        let mut rayleigh = 0.0;
        for _ in 0..2000 {
            let w = gram.matvec(&v).unwrap();
            rayleigh = vector::dot(&w, &v) / vector::norm2_sq(&v);
            v = vector::scale(&w, 1.0 / vector::norm2(&w));
        }
        let max_row = (0..phi.rows()).map(|i| vector::norm2_sq(phi.row(i))).fold(0.0, f64::max);
        2.0 * rayleigh.max(max_row)
    }

    /// `(m, d, seed)` of every `m = 2, 3, 4`, `d = 40` sketch among seeds
    /// `0..4000` on which [`sketch_smoothness`] stops more than 0.1%
    /// below `2‖Φ‖²` (found by scanning with [`smoothness_lower_bound`];
    /// `listed_sketches_undershoot` checks each).
    const UNDERSHOOTING_SKETCHES: [(usize, usize, u64); 16] = [
        (2, 40, 187),
        (2, 40, 670),
        (2, 40, 1793),
        (2, 40, 2451),
        (2, 40, 2512),
        (2, 40, 2731),
        (2, 40, 3290),
        (3, 40, 1846),
        (3, 40, 3591),
        (3, 40, 3716),
        (3, 40, 3723),
        (3, 40, 3888),
        (4, 40, 601),
        (4, 40, 1588),
        (4, 40, 1909),
        (4, 40, 3668),
    ];

    proptest! {
        /// Every returned lift either certifies its gap, checked here
        /// from an exact gradient `2Φᵀ(Φθ − ϑ)` and `support_value` rather
        /// than the lift's own recursion, or has spent its whole budget.
        /// Over `B₁` and `B₂`, cold, random, nearly and fully converged
        /// warm starts, budgets from 1 to 199, random sketches with `m`
        /// from 2 to 11, and the `m = 2–4` sketches whose power-iteration
        /// smoothness undershoots `2‖Φ‖²` (so the first step is too long
        /// and only backtracking makes it a descent step).
        #[test]
        fn lift_returns_a_certified_gap_or_its_whole_budget(
            seed in 0u64..1_000_000,
            undershoot in any::<bool>(),
            l1 in any::<bool>(),
            target_scale in 0.05f64..2.0,
            warm_kind in 0usize..4,
            iters in 1usize..200,
        ) {
            let mut r = NoiseRng::seed_from_u64(seed);
            let (m, d, sketch_seed) = if undershoot {
                UNDERSHOOTING_SKETCHES[r.uniform_index(UNDERSHOOTING_SKETCHES.len())]
            } else {
                let m = 2 + r.uniform_index(10);
                (m, m + r.uniform_index(40), seed)
            };
            let sketch = GaussianSketch::sample(m, d, &mut NoiseRng::seed_from_u64(sketch_seed));
            let set: Box<dyn ConvexSet> =
                if l1 { Box::new(L1Ball::unit(d)) } else { Box::new(L2Ball::unit(d)) };
            let target: Vec<f64> = (0..m).map(|_| r.gaussian(0.0, target_scale)).collect();
            let smooth = sketch_smoothness(&sketch);
            let warm = match warm_kind {
                0 => vec![0.0; d],
                1 => (0..d).map(|_| r.gaussian(0.0, 0.5)).collect(),
                // The lift of a nearby target, as one mechanism step
                // warm-starts the next.
                2 => {
                    let near: Vec<f64> =
                        target.iter().map(|v| v + r.gaussian(0.0, 0.05)).collect();
                    lift_constrained_ls(&sketch, &near, set.as_ref(), smooth, 400, &vec![0.0; d])
                        .unwrap()
                }
                _ => {
                    let ceiling = smoothness_bracket(&sketch).1;
                    reference_lift(&sketch, &target, set.as_ref(), ceiling, &vec![0.0; d])
                }
            };
            let mut out = vec![0.0; d];
            let used = lift_constrained_ls_into(
                &sketch, &target, set.as_ref(), smooth, iters, &warm,
                &mut LiftScratch::new(m, d), &mut out,
            );
            prop_assert!(used <= iters);
            let gap = lift_gap(&sketch, &target, set.as_ref(), &out);
            let tol = LIFT_GAP_TOL * vector::norm2_sq(&target) + rounding_slack(&target);
            prop_assert!(
                used == iters || gap <= tol,
                "stopped after {used} of {iters} evaluations with gap {gap:e} > {tol:e}"
            );
        }

        /// The certificate as a value bound: the lift's objective is
        /// within `LIFT_GAP_TOL · ‖ϑ‖²` of the minimum, here approached by
        /// 4000 fixed-step FISTA iterations at the certified
        /// `2‖Φ‖²_F` — over random sketches, targets, and warm starts
        /// (cold and near-converged).
        #[test]
        fn adaptive_lift_stays_within_documented_tolerance(
            seed in 0u64..64,
            target_scale in 0.1f64..2.0,
            warm_scale in 0.0f64..0.5,
        ) {
            let (sketch, target, warm, set) = lift_case(seed, target_scale, warm_scale);
            let (m, d) = (sketch.m(), sketch.d());
            let smooth = sketch_smoothness(&sketch);
            let iters = 128;
            let mut scratch = LiftScratch::new(m, d);
            let mut lifted = vec![0.0; d];
            let used = lift_constrained_ls_into(
                &sketch, &target, &set, smooth, iters, &warm, &mut scratch, &mut lifted,
            );
            prop_assert!(used < iters, "the certificate never fired");
            let reference =
                reference_lift(&sketch, &target, &set, smoothness_bracket(&sketch).1, &warm);
            let (f, f_ref) =
                (objective(&sketch, &target, &lifted), objective(&sketch, &target, &reference));
            prop_assert!(
                f - f_ref <= LIFT_GAP_TOL * vector::norm2_sq(&target) + rounding_slack(&target),
                "lift objective {f:e} vs reference {f_ref:e}"
            );
        }

        /// Backtracking, restart and the certified stop never leave the
        /// lift objective `‖Φθ − ϑ‖²` above plain fixed-step FISTA's at
        /// the same `sketch_smoothness`, run for 4000 iterations, by more
        /// than `LIFT_GAP_TOL · ‖ϑ‖²` (the objective at `θ = 0` is
        /// `‖ϑ‖²`; the minimum itself is often zero, so it cannot be the
        /// scale).
        #[test]
        fn restarted_lift_objective_is_no_worse_than_plain_fista(
            seed in 0u64..64,
            target_scale in 0.1f64..2.0,
            warm_scale in 0.0f64..0.5,
        ) {
            let (sketch, target, warm, set) = lift_case(seed, target_scale, warm_scale);
            let (m, d) = (sketch.m(), sketch.d());
            let smooth = sketch_smoothness(&sketch);
            let iters = 128;
            let mut scratch = LiftScratch::new(m, d);
            let mut lifted = vec![0.0; d];
            lift_constrained_ls_into(
                &sketch, &target, &set, smooth, iters, &warm, &mut scratch, &mut lifted,
            );
            let plain = reference_lift(&sketch, &target, &set, smooth, &warm);
            let (f, f_plain) =
                (objective(&sketch, &target, &lifted), objective(&sketch, &target, &plain));
            prop_assert!(
                f <= f_plain + LIFT_GAP_TOL * vector::norm2_sq(&target) + rounding_slack(&target),
                "lift objective {f:e} above plain FISTA's {f_plain:e}"
            );
        }
    }

    proptest! {
        /// The bracket a carried smoothness constant is checked against
        /// holds the power-iteration value on every sketch, including the
        /// small-`m` ones where that value falls below `2·maxᵢ‖φᵢ‖²`; and
        /// the form on a lift's buffers gives the same bits on dirty ones.
        #[test]
        fn smoothness_lies_in_its_bracket(seed in 0u64..1_000_000, m in 1usize..7, extra in 0usize..40) {
            let d = m + extra;
            let sketch = GaussianSketch::sample(m, d, &mut NoiseRng::seed_from_u64(seed));
            let l = sketch_smoothness(&sketch);
            let (lo, hi) = smoothness_bracket(&sketch);
            prop_assert!(0.0 < lo && lo <= l && l <= hi, "{l} outside [{lo}, {hi}]");
            let mut scratch = LiftScratch::new(m, d);
            let other = GaussianSketch::sample(m, d, &mut NoiseRng::seed_from_u64(seed + 1));
            // Dirty the buffers with a lift and a power iteration.
            let (set, mut out) = (L1Ball::unit(d), vec![0.0; d]);
            lift_constrained_ls_into(
                &other, &vec![1.0; m], &set, l, 5, &vec![0.3; d], &mut scratch, &mut out,
            );
            sketch_smoothness_with(&other, &mut scratch);
            prop_assert_eq!(sketch_smoothness_with(&sketch, &mut scratch).to_bits(), l.to_bits());
        }
    }

    /// Each listed sketch still makes the power iteration undershoot.
    #[test]
    fn listed_sketches_undershoot() {
        for (m, d, seed) in UNDERSHOOTING_SKETCHES {
            let sketch = GaussianSketch::sample(m, d, &mut NoiseRng::seed_from_u64(seed));
            let (l, floor) = (sketch_smoothness(&sketch), smoothness_lower_bound(&sketch));
            assert!(l < floor * (1.0 - 1e-3), "m = {m}, seed {seed}: {l} vs {floor}");
        }
    }

    /// A step length far too long for the sketch (`L₀` a thousandth of
    /// `2‖Φ‖²`) is backtracked to a descent step: the lift still
    /// certifies, and within a few evaluations of the lift started at
    /// the power-iteration `L₀`.
    #[test]
    fn backtracking_recovers_from_a_far_too_small_smoothness() {
        let mut r = rng();
        let (m, d) = (20, 120);
        let sketch = GaussianSketch::sample(m, d, &mut r);
        let set = L1Ball::unit(d);
        let target: Vec<f64> = (0..m).map(|_| r.gaussian(0.0, 0.5)).collect();
        let smooth = sketch_smoothness(&sketch);
        let run = |l0: f64| {
            let mut out = vec![0.0; d];
            let used = lift_constrained_ls_into(
                &sketch,
                &target,
                &set,
                l0,
                400,
                &vec![0.0; d],
                &mut LiftScratch::new(m, d),
                &mut out,
            );
            (used, lift_gap(&sketch, &target, &set, &out))
        };
        let tol = LIFT_GAP_TOL * vector::norm2_sq(&target) + rounding_slack(&target);
        let (used, gap) = run(smooth);
        let (used_small, gap_small) = run(1e-3 * smooth);
        assert!(used < 400 && gap <= tol, "{used} evaluations, gap {gap:e}");
        assert!(
            used_small < 400 && gap_small <= tol,
            "{used_small} evaluations, gap {gap_small:e}"
        );
        // log₂(1000) ≈ 10 doublings bring L back up to the curvature.
        assert!(used_small <= used + 40, "{used_small} vs {used} evaluations");
    }

    /// Seeds on which the power iteration stops near the second singular
    /// value, below `2·maxᵢ‖φᵢ‖²`: the bracket's lower end must not be
    /// the largest row norm.
    #[test]
    fn early_stopped_power_iteration_stays_in_the_bracket() {
        let mut below_max_row = 0;
        for seed in 0..3000u64 {
            let sketch = GaussianSketch::sample(2, 8, &mut NoiseRng::seed_from_u64(seed));
            let l = sketch_smoothness(&sketch);
            let phi = sketch.matrix();
            let max_row = (0..2).map(|i| vector::norm2_sq(phi.row(i))).fold(0.0, f64::max);
            below_max_row += usize::from(l < 2.0 * max_row * (1.0 - 1e-3));
            let (lo, hi) = smoothness_bracket(&sketch);
            assert!(lo <= l && l <= hi, "seed {seed}: {l} outside [{lo}, {hi}]");
        }
        assert!(below_max_row > 0, "no seed exercised the early stop");
    }

    #[test]
    fn constrained_ls_recovers_sparse_preimage() {
        // θ_true is 1-sparse in d = 60, C = B₁; m = 25 ≫ w(B₁)² suffices.
        let mut r = rng();
        let d = 60;
        let sketch = GaussianSketch::sample(25, d, &mut r);
        let mut theta_true = vec![0.0; d];
        theta_true[7] = 1.0;
        let target = sketch.apply(&theta_true).unwrap();
        let set = L1Ball::unit(d);
        let smooth = sketch_smoothness(&sketch);
        let theta =
            lift_constrained_ls(&sketch, &target, &set, smooth, 600, &vec![0.0; d]).unwrap();
        let err = vector::distance(&theta, &theta_true);
        assert!(err < 0.15, "recovery error {err}");
        assert!(vector::norm1(&theta) <= 1.0 + 1e-6);
    }

    #[test]
    fn min_gauge_variant_agrees_with_ls_on_sparse_instance() {
        let mut r = rng();
        let d = 40;
        let sketch = GaussianSketch::sample(20, d, &mut r);
        let mut theta_true = vec![0.0; d];
        theta_true[3] = 0.8;
        let target = sketch.apply(&theta_true).unwrap();
        let set = L1Ball::unit(d);
        let affine = AffinePreimage::new(&sketch).unwrap();
        let theta = lift_min_gauge(&sketch, &target, &set, &affine, 25, 200).unwrap();
        let err = vector::distance(&theta, &theta_true);
        assert!(err < 0.25, "recovery error {err}");
    }

    #[test]
    fn affine_projection_satisfies_constraint() {
        let mut r = rng();
        let sketch = GaussianSketch::sample(6, 20, &mut r);
        let affine = AffinePreimage::new(&sketch).unwrap();
        let v = r.gaussian_vec(6, 1.0);
        let theta0 = r.gaussian_vec(20, 1.0);
        let p = affine.project(&sketch, &theta0, &v).unwrap();
        let resid = vector::sub(&sketch.apply(&p).unwrap(), &v);
        assert!(vector::norm2(&resid) < 1e-8, "residual {}", vector::norm2(&resid));
        // Min-norm preimage also satisfies the constraint.
        let mn = affine.min_norm(&sketch, &v).unwrap();
        let resid2 = vector::sub(&sketch.apply(&mn).unwrap(), &v);
        assert!(vector::norm2(&resid2) < 1e-8);
    }

    #[test]
    fn ls_lift_into_is_identical_to_ls_lift_and_scratch_is_reusable() {
        let mut r = rng();
        let d = 30;
        let m = 12;
        let sketch = GaussianSketch::sample(m, d, &mut r);
        let mut theta_true = vec![0.0; d];
        theta_true[5] = 0.9;
        let target = sketch.apply(&theta_true).unwrap();
        let set = L1Ball::unit(d);
        let smooth = sketch_smoothness(&sketch);
        let expect =
            lift_constrained_ls(&sketch, &target, &set, smooth, 200, &vec![0.0; d]).unwrap();
        let mut scratch = LiftScratch::new(m, d);
        let mut out = vec![0.0; d];
        // Dirty scratch from a previous run must not leak into the next.
        lift_constrained_ls_into(
            &sketch,
            &target,
            &set,
            smooth,
            7,
            &[0.01; 30],
            &mut scratch,
            &mut out,
        );
        lift_constrained_ls_into(
            &sketch,
            &target,
            &set,
            smooth,
            200,
            &vec![0.0; d],
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, expect);
    }

    /// The lift keeps its `LiftScratch`, and with it the projection
    /// hint, from one mechanism step to the next. A stream of warm-started
    /// `B₁` lifts on one reused scratch must release the bits of the same
    /// lifts each run on a fresh scratch.
    #[test]
    fn lift_on_a_dirty_reused_scratch_matches_a_fresh_scratch() {
        let mut r = rng();
        let (m, d) = (30, 400);
        let sketch = GaussianSketch::sample(m, d, &mut r);
        let set = L1Ball::unit(d);
        let smooth = sketch_smoothness(&sketch);
        let mut reused = LiftScratch::new(m, d);
        let mut warm = vec![0.0; d];
        let mut thresholded = 0;
        for step in 0..12 {
            let target: Vec<f64> = (0..m).map(|_| r.gaussian(0.0, 2.0)).collect();
            let mut fresh_out = vec![f64::NAN; d];
            let fresh_used = lift_constrained_ls_into(
                &sketch,
                &target,
                &set,
                smooth,
                80,
                &warm,
                &mut LiftScratch::new(m, d),
                &mut fresh_out,
            );
            let mut out = vec![f64::NAN; d];
            let used = lift_constrained_ls_into(
                &sketch,
                &target,
                &set,
                smooth,
                80,
                &warm,
                &mut reused,
                &mut out,
            );
            assert_eq!(used, fresh_used, "step {step}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&fresh_out), "step {step}");
            thresholded += usize::from(out.iter().filter(|v| **v != 0.0).count() < d / 2);
            warm = out;
        }
        assert!(thresholded > 0, "no lift reached a sparse face of B1");
    }

    #[test]
    fn ls_lift_validates_target_dimension() {
        let mut r = rng();
        let sketch = GaussianSketch::sample(4, 10, &mut r);
        let set = L2Ball::unit(10);
        assert!(lift_constrained_ls(&sketch, &[1.0; 3], &set, 1.0, 10, &[0.0; 10]).is_err());
    }

    #[test]
    fn theorem_bound_shrinks_with_m() {
        let b1 = theorem_5_3_bound(3.0, 1.0, 16, 0.05);
        let b2 = theorem_5_3_bound(3.0, 1.0, 256, 0.05);
        assert!((b1 / b2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lift_error_within_theorem_bound_scaled() {
        // Empirical check of the M*-bound shape: error ≤ c·bound for a
        // small constant c across m.
        let mut r = rng();
        let d = 80;
        let set = L1Ball::unit(d);
        for m in [20usize, 60] {
            let sketch = GaussianSketch::sample(m, d, &mut r);
            let mut theta_true = vec![0.0; d];
            theta_true[11] = -1.0;
            let target = sketch.apply(&theta_true).unwrap();
            let smooth = sketch_smoothness(&sketch);
            let theta =
                lift_constrained_ls(&sketch, &target, &set, smooth, 800, &vec![0.0; d]).unwrap();
            let err = vector::distance(&theta, &theta_true);
            let bound = theorem_5_3_bound(set.width_bound(), set.diameter(), m, 0.05);
            assert!(err <= 2.0 * bound, "m={m}: err {err} vs bound {bound}");
        }
    }
}
