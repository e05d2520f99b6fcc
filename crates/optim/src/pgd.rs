//! Exact-gradient first-order methods: projected gradient descent, FISTA,
//! and Frank–Wolfe.

use crate::objective::Objective;
use pir_geometry::ConvexSet;
use pir_linalg::vector;

/// Step-size schedules for [`projected_gradient`].
#[derive(Debug, Clone, Copy)]
pub enum StepSize {
    /// Fixed step `η`.
    Constant(f64),
    /// `η_k = c/√(k+1)` — the schedule for non-smooth objectives.
    DiminishingSqrt(f64),
}

/// Configuration for [`projected_gradient`].
#[derive(Debug, Clone, Copy)]
pub struct PgdConfig {
    /// Number of iterations `r`.
    pub iters: usize,
    /// Step-size rule.
    pub step: StepSize,
    /// Return the running average of iterates (needed for the standard
    /// subgradient-method rate) instead of the last iterate.
    pub average: bool,
}

impl PgdConfig {
    /// Constant-step configuration with averaging.
    pub fn averaged(iters: usize, eta: f64) -> Self {
        PgdConfig { iters, step: StepSize::Constant(eta), average: true }
    }

    /// Last-iterate configuration (appropriate for smooth + small steps).
    pub fn last_iterate(iters: usize, eta: f64) -> Self {
        PgdConfig { iters, step: StepSize::Constant(eta), average: false }
    }
}

/// Projected (sub)gradient descent:
/// `θ_{k+1} = P_C(θ_k − η_k ∇f(θ_k))`, starting from `P_C(θ₀)`.
pub fn projected_gradient<O: Objective + ?Sized, C: ConvexSet + ?Sized>(
    obj: &O,
    set: &C,
    config: &PgdConfig,
    theta0: &[f64],
) -> Vec<f64> {
    let mut theta = set.project(theta0);
    let mut avg = vec![0.0; theta.len()];
    for k in 0..config.iters {
        let eta = match config.step {
            StepSize::Constant(c) => c,
            StepSize::DiminishingSqrt(c) => c / ((k + 1) as f64).sqrt(),
        };
        let g = obj.gradient(&theta);
        vector::axpy(-eta, &g, &mut theta);
        theta = set.project(&theta);
        if config.average {
            vector::axpy(1.0, &theta, &mut avg);
        }
    }
    if config.average && config.iters > 0 {
        vector::scale_mut(&mut avg, 1.0 / config.iters as f64);
        avg
    } else {
        theta
    }
}

/// FISTA (accelerated projected gradient) for an `L_s`-smooth convex
/// objective: `O(1/k²)` value convergence. Used to solve the lifting
/// program `min_{θ∈C} ‖Φθ − ϑ‖²` of Algorithm 3, Step 9.
pub fn fista<O: Objective + ?Sized, C: ConvexSet + ?Sized>(
    obj: &O,
    set: &C,
    smoothness: f64,
    iters: usize,
    theta0: &[f64],
) -> Vec<f64> {
    let mut out = vec![0.0; theta0.len()];
    let mut scratch = FistaScratch::new(theta0.len());
    fista_into(obj, set, smoothness, iters, theta0, &mut scratch, &mut out);
    out
}

/// Reusable iteration buffers for [`fista_into`]: gradient, momentum
/// point, pre-projection step, and projected iterate — all of dimension
/// `d`.
#[derive(Debug, Clone)]
pub struct FistaScratch {
    g: Vec<f64>,
    momentum: Vec<f64>,
    raw: Vec<f64>,
    next: Vec<f64>,
}

impl FistaScratch {
    /// Buffers for a `d`-dimensional FISTA run.
    pub fn new(d: usize) -> Self {
        FistaScratch {
            g: vec![0.0; d],
            momentum: vec![0.0; d],
            raw: vec![0.0; d],
            next: vec![0.0; d],
        }
    }
}

/// [`fista`] writing the final iterate into `out` and reusing
/// caller-owned iteration buffers — the allocation-free form the per-step
/// mechanism descent runs on (paired with [`Objective::gradient_into`]
/// and [`ConvexSet::project_into`], a whole FISTA run touches the heap
/// zero times). Value-for-value identical to [`fista`].
///
/// # Panics
/// Panics if `smoothness <= 0` or if `out`/`scratch` dimensions do not
/// match `theta0`.
pub fn fista_into<O: Objective + ?Sized, C: ConvexSet + ?Sized>(
    obj: &O,
    set: &C,
    smoothness: f64,
    iters: usize,
    theta0: &[f64],
    scratch: &mut FistaScratch,
    out: &mut [f64],
) {
    fista_loop::<false, O, C>(obj, set, smoothness, iters, 0.0, theta0, scratch, out);
}

/// [`fista_into`] with a relative-progress stopping rule: the loop exits
/// early once the projected step moves the iterate by no more than
/// `rel_tol · max(1, ‖θ_{k+1}‖)` in `ℓ₂`, with `iters` as a hard ceiling.
/// Returns the number of iterations actually performed.
///
/// Every iteration it does perform is **bit-identical** to the
/// corresponding [`fista_into`] iteration — the rule only decides when to
/// stop, never how to step — and `rel_tol = 0` turns the rule off, so
/// the two are then indistinguishable. A tight tolerance (the descent
/// uses `1e-10` — documented and property-tested at its call site)
/// keeps the returned iterate within the tail movement of the truncated
/// iterations: FISTA's momentum can amplify one step by at most the
/// remaining-iteration count, so callers that need a value guarantee pick
/// `rel_tol ≲ wanted_tolerance / iters`.
///
/// # Panics
/// As [`fista_into`]; additionally `rel_tol` must be finite and `≥ 0`.
#[allow(clippy::too_many_arguments)]
pub fn fista_into_adaptive<O: Objective + ?Sized, C: ConvexSet + ?Sized>(
    obj: &O,
    set: &C,
    smoothness: f64,
    iters: usize,
    rel_tol: f64,
    theta0: &[f64],
    scratch: &mut FistaScratch,
    out: &mut [f64],
) -> usize {
    fista_loop::<false, O, C>(obj, set, smoothness, iters, rel_tol, theta0, scratch, out)
}

/// [`fista_into_adaptive`] with gradient-based adaptive momentum restart
/// (O'Donoghue & Candès 2015): whenever the new iterate `θ_{k+1}` makes
/// `⟨y_k − θ_{k+1}, θ_{k+1} − θ_k⟩ > 0` — the momentum point `y_k` has
/// carried the step uphill — the momentum sequence resets to `t_k = 1`,
/// so `β = 0` and the next momentum point is `θ_{k+1}` itself.
///
/// Restart removes the oscillation plain FISTA shows once it is near a
/// minimizer, so a relative-progress stop can fire where plain FISTA
/// keeps moving for the whole budget; it also changes the trajectory,
/// so the iterates are *not* those of [`fista_into_adaptive`]. Returns
/// the number of iterations performed; the stop rule, `rel_tol = 0` and
/// the panics are as in [`fista_into_adaptive`].
#[allow(clippy::too_many_arguments)]
pub fn fista_into_restarting<O: Objective + ?Sized, C: ConvexSet + ?Sized>(
    obj: &O,
    set: &C,
    smoothness: f64,
    iters: usize,
    rel_tol: f64,
    theta0: &[f64],
    scratch: &mut FistaScratch,
    out: &mut [f64],
) -> usize {
    fista_loop::<true, O, C>(obj, set, smoothness, iters, rel_tol, theta0, scratch, out)
}

/// The one FISTA loop body behind [`fista_into`],
/// [`fista_into_adaptive`] and [`fista_into_restarting`]. With
/// `RESTART = false` each iteration is the plain FISTA step, so the
/// three public forms differ only in when they stop and whether they
/// restart.
#[allow(clippy::too_many_arguments)]
fn fista_loop<const RESTART: bool, O: Objective + ?Sized, C: ConvexSet + ?Sized>(
    obj: &O,
    set: &C,
    smoothness: f64,
    iters: usize,
    rel_tol: f64,
    theta0: &[f64],
    scratch: &mut FistaScratch,
    out: &mut [f64],
) -> usize {
    assert!(smoothness > 0.0, "fista needs a positive smoothness constant");
    assert!(rel_tol.is_finite() && rel_tol >= 0.0, "fista stop tolerance must be finite and >= 0");
    assert_eq!(out.len(), theta0.len(), "fista: output length mismatch");
    assert_eq!(scratch.g.len(), theta0.len(), "fista: scratch dimension mismatch");
    let step = 1.0 / smoothness;
    let FistaScratch { g, momentum, raw, next } = scratch;
    // `out` holds the current iterate θ_k throughout.
    set.project_into(theta0, out);
    momentum.copy_from_slice(out);
    let mut t_k = 1.0f64;
    for k in 0..iters {
        obj.gradient_into(momentum, g);
        raw.copy_from_slice(momentum);
        vector::axpy(-step, g, raw);
        set.project_into(raw, next);
        let mut t_next = 0.5 * (1.0 + (1.0 + 4.0 * t_k * t_k).sqrt());
        let mut beta = (t_k - 1.0) / t_next;
        if RESTART {
            let uphill: f64 = momentum
                .iter()
                .zip(next.iter())
                .zip(out.iter())
                .map(|((&y, &n), &p)| (y - n) * (n - p))
                .sum();
            if uphill > 0.0 {
                t_next = 1.0;
                beta = 0.0;
            }
        }
        let mut moved_sq = 0.0;
        for ((m, &n), &p) in momentum.iter_mut().zip(next.iter()).zip(out.iter()) {
            let dp = n - p;
            moved_sq += dp * dp;
            *m = n + beta * dp;
        }
        out.copy_from_slice(next);
        t_k = t_next;
        if rel_tol > 0.0 && moved_sq.sqrt() <= rel_tol * vector::norm2(out).max(1.0) {
            return k + 1;
        }
    }
    iters
}

/// Frank–Wolfe (conditional gradient) with the standard `2/(k+2)` step:
/// projection-free; every iterate is a convex combination of support
/// points, so it stays feasible by construction.
pub fn frank_wolfe<O: Objective + ?Sized, C: ConvexSet + ?Sized>(
    obj: &O,
    set: &C,
    iters: usize,
    theta0: &[f64],
) -> Vec<f64> {
    let mut theta = set.project(theta0);
    for k in 0..iters {
        let g = obj.gradient(&theta);
        let neg: Vec<f64> = g.iter().map(|v| -v).collect();
        let s = set.support(&neg);
        let gamma = 2.0 / (k as f64 + 2.0);
        for (t, si) in theta.iter_mut().zip(&s) {
            *t += gamma * (si - *t);
        }
    }
    theta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Quadratic;
    use pir_geometry::{L1Ball, L2Ball};
    use pir_linalg::Matrix;

    /// f(θ) = ‖θ − target‖², constrained to a ball excluding the target.
    fn shifted_quadratic(target: &[f64]) -> Quadratic {
        let d = target.len();
        let mut a = Matrix::identity(d);
        a.scale_mut(2.0);
        Quadratic::new(a, vector::scale(target, 2.0), vector::norm2_sq(target))
    }

    #[test]
    fn pgd_finds_constrained_optimum_on_ball_boundary() {
        // Unconstrained optimum (3, 0); constrained to unit L2 ball the
        // minimizer is (1, 0).
        let obj = shifted_quadratic(&[3.0, 0.0]);
        let set = L2Ball::unit(2);
        let cfg = PgdConfig::last_iterate(500, 0.2);
        let theta = projected_gradient(&obj, &set, &cfg, &[0.0, 0.0]);
        assert!(vector::distance(&theta, &[1.0, 0.0]) < 1e-6, "{theta:?}");
    }

    #[test]
    fn pgd_diminishing_step_with_averaging_converges() {
        let obj = shifted_quadratic(&[0.5, -0.25]);
        let set = L2Ball::unit(2);
        let cfg = PgdConfig { iters: 4000, step: StepSize::DiminishingSqrt(0.5), average: true };
        let theta = projected_gradient(&obj, &set, &cfg, &[1.0, 1.0]);
        // Interior optimum: averaging converges at the slow √k rate.
        assert!(vector::distance(&theta, &[0.5, -0.25]) < 0.05, "{theta:?}");
    }

    #[test]
    fn fista_beats_pgd_on_ill_conditioned_quadratic() {
        // Condition number 400.
        let a = Matrix::from_rows(&[&[400.0, 0.0], &[0.0, 1.0]]).unwrap();
        let obj = Quadratic::new(a, vec![0.0, 1.0], 0.0); // optimum (0, 1) — inside 2-ball
        let set = L2Ball::new(2, 2.0);
        let iters = 400;
        let x_fista = fista(&obj, &set, 400.0, iters, &[1.5, -1.5]);
        let x_pgd = projected_gradient(
            &obj,
            &set,
            &PgdConfig::last_iterate(iters, 1.0 / 400.0),
            &[1.5, -1.5],
        );
        // Optimal value is f(0, 1) = −0.5.
        let f_fista = obj.value(&x_fista) + 0.5;
        let f_pgd = obj.value(&x_pgd) + 0.5;
        assert!(f_fista < f_pgd, "fista {f_fista} !< pgd {f_pgd}");
        assert!(vector::distance(&x_fista, &[0.0, 1.0]) < 0.1, "{x_fista:?}");
    }

    #[test]
    fn frank_wolfe_stays_feasible_and_converges_on_l1_ball() {
        let obj = shifted_quadratic(&[0.9, 0.0, 0.0]);
        let set = L1Ball::unit(3);
        let theta = frank_wolfe(&obj, &set, 2000, &[0.0, 0.0, 0.0]);
        assert!(vector::norm1(&theta) <= 1.0 + 1e-9);
        assert!(vector::distance(&theta, &[0.9, 0.0, 0.0]) < 1e-2, "{theta:?}");
    }

    #[test]
    fn fista_into_is_identical_to_fista_and_scratch_is_reusable() {
        let a = Matrix::from_rows(&[&[400.0, 0.0], &[0.0, 1.0]]).unwrap();
        let obj = Quadratic::new(a, vec![0.0, 1.0], 0.0);
        let set = L2Ball::new(2, 2.0);
        let expect = fista(&obj, &set, 400.0, 200, &[1.5, -1.5]);
        let mut scratch = FistaScratch::new(2);
        let mut out = [0.0; 2];
        // Dirty scratch from a previous run must not leak into the next.
        fista_into(&obj, &set, 400.0, 10, &[-0.3, 0.9], &mut scratch, &mut out);
        fista_into(&obj, &set, 400.0, 200, &[1.5, -1.5], &mut scratch, &mut out);
        assert_eq!(out.to_vec(), expect);
        // The borrowed view drives the same trajectory as the owner.
        let a2 = Matrix::from_rows(&[&[400.0, 0.0], &[0.0, 1.0]]).unwrap();
        let b2 = [0.0, 1.0];
        let view = crate::objective::QuadraticView::new(&a2, &b2, 0.0);
        fista_into(&view, &set, 400.0, 200, &[1.5, -1.5], &mut scratch, &mut out);
        assert_eq!(out.to_vec(), expect);
    }

    #[test]
    fn adaptive_with_zero_tolerance_is_bit_identical_to_fixed() {
        // rel_tol = 0 never triggers (a projected FISTA step on a
        // non-degenerate quadratic always moves), so the adaptive loop
        // must replay the fixed loop exactly.
        let a = Matrix::from_rows(&[&[400.0, 0.0], &[0.0, 1.0]]).unwrap();
        let obj = Quadratic::new(a, vec![0.0, 1.0], 0.0);
        let set = L2Ball::new(2, 2.0);
        let mut scratch = FistaScratch::new(2);
        let mut fixed = [0.0; 2];
        let mut adaptive = [0.0; 2];
        for iters in [1, 7, 50] {
            fista_into(&obj, &set, 400.0, iters, &[1.5, -1.5], &mut scratch, &mut fixed);
            let used = fista_into_adaptive(
                &obj,
                &set,
                400.0,
                iters,
                0.0,
                &[1.5, -1.5],
                &mut scratch,
                &mut adaptive,
            );
            assert_eq!(used, iters);
            assert_eq!(fixed.map(f64::to_bits), adaptive.map(f64::to_bits));
        }
    }

    #[test]
    fn adaptive_stop_saves_iterations_and_stays_near_the_fixed_answer() {
        // Well-conditioned strongly convex problem: FISTA contracts fast,
        // so a tight relative-progress stop fires long before the ceiling
        // while staying within the documented tolerance of the fixed run.
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let obj = Quadratic::new(a, vec![1.0, -0.5], 0.0);
        let set = L2Ball::new(2, 2.0);
        let mut scratch = FistaScratch::new(2);
        let iters = 400;
        let mut fixed = [0.0; 2];
        fista_into(&obj, &set, 5.0, iters, &[1.5, -1.5], &mut scratch, &mut fixed);
        let mut adaptive = [0.0; 2];
        let used = fista_into_adaptive(
            &obj,
            &set,
            5.0,
            iters,
            1e-10,
            &[1.5, -1.5],
            &mut scratch,
            &mut adaptive,
        );
        assert!(used < iters, "stop rule never fired ({used} iterations)");
        assert!(
            vector::distance(&fixed, &adaptive) <= 1e-8,
            "adaptive {adaptive:?} vs fixed {fixed:?}"
        );
    }

    #[test]
    fn zero_iterations_returns_projected_start() {
        let obj = shifted_quadratic(&[3.0, 0.0]);
        let set = L2Ball::unit(2);
        let theta = projected_gradient(&obj, &set, &PgdConfig::last_iterate(0, 0.1), &[5.0, 0.0]);
        assert!(vector::distance(&theta, &[1.0, 0.0]) < 1e-12);
    }
}
