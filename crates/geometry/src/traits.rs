//! Core traits: [`WidthSet`] (anything with a Gaussian width) and
//! [`ConvexSet`] (projectable constraint sets).

use pir_linalg::vector;

/// A set `S ⊆ R^d` with a computable support value and a Gaussian-width
/// bound. Input domains `X` (which may be non-convex, e.g. k-sparse
/// vectors) only need this much; constraint sets `C` additionally implement
/// [`ConvexSet`].
pub trait WidthSet: std::fmt::Debug + Send + Sync {
    /// Ambient dimension `d`.
    fn dim(&self) -> usize;

    /// Support value `h_S(g) = sup_{a ∈ S} ⟨a, g⟩`.
    fn support_value(&self, g: &[f64]) -> f64;

    /// Analytic upper bound on the Gaussian width `w(S)` (Definition 3).
    ///
    /// Bounds are the standard ones quoted in §2/§5.2 of the paper and are
    /// tight up to universal constants; [`crate::width::monte_carlo`]
    /// estimates the exact value when needed.
    fn width_bound(&self) -> f64;

    /// Diameter `‖S‖ = sup_{a∈S} ‖a‖₂` (Definition 2).
    fn diameter(&self) -> f64;
}

/// A warm-start hint for [`ConvexSet::project_into_hinted`]: what the
/// previous projection of an iterative solver learned about the next one.
/// It only ever changes the projection's cost, never its result.
///
/// The default (`0`) carries no information. For [`crate::L1Ball`] the
/// value is the number of magnitudes the last soft threshold kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProjectionHint(usize);

impl ProjectionHint {
    /// A hint holding `value`; `0` is the no-information default.
    pub fn new(value: usize) -> Self {
        ProjectionHint(value)
    }

    /// The hint's value.
    pub fn get(self) -> usize {
        self.0
    }
}

/// A closed convex set supporting Euclidean projection — the constraint
/// space `C` of the paper's ERM problems.
pub trait ConvexSet: WidthSet {
    /// Euclidean projection `P_C(x) = argmin_{z∈C} ‖x − z‖₂`.
    fn project(&self, x: &[f64]) -> Vec<f64>;

    /// [`ConvexSet::project`] writing into a caller-provided buffer —
    /// the allocation-free form the per-step descent loops use (`x` and
    /// `out` are distinct buffers so iterative solvers can ping-pong).
    /// Must be value-for-value identical to [`ConvexSet::project`].
    ///
    /// The default implementation allocates via [`ConvexSet::project`];
    /// sets on hot paths (closed-form projections) override it.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the projection's length.
    fn project_into(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(&self.project(x));
    }

    /// [`ConvexSet::project_into`] with a warm-start hint carried from
    /// one call to the next — the form iterative solvers call, whose
    /// successive inputs are close (FISTA on the gauge lift).
    ///
    /// **Contract:** the result never depends on the hint. Every hint
    /// value — the default, a stale one, a too-small or too-large one,
    /// `usize::MAX` — gives the bits [`ConvexSet::project_into`] gives;
    /// the hint may only change the cost. An implementation may update
    /// it for the next call.
    ///
    /// The default ignores the hint and calls
    /// [`ConvexSet::project_into`]. [`crate::L1Ball`] overrides it: the
    /// hint is the number of magnitudes the previous threshold kept, and
    /// a good one lets the projection sort only that many instead of all
    /// `d`.
    ///
    /// # Panics
    /// As [`ConvexSet::project_into`].
    fn project_into_hinted(&self, x: &[f64], out: &mut [f64], hint: &mut ProjectionHint) {
        let _ = hint;
        self.project_into(x, out);
    }

    /// The maximizer `argmax_{a∈C} ⟨a, g⟩` (linear maximization oracle).
    ///
    /// Ties may be broken arbitrarily; the result must satisfy
    /// `⟨support(g), g⟩ = support_value(g)` up to floating-point error.
    fn support(&self, g: &[f64]) -> Vec<f64>;

    /// Minkowski gauge `‖x‖_C = inf{ρ ≥ 0 : x ∈ ρC}` (Definition 6).
    ///
    /// Returns `f64::INFINITY` when no scaling of `C` contains `x` (e.g.
    /// a negative coordinate against the probability simplex). The default
    /// implementation brackets and bisects using the scaling identity
    /// `P_{ρC}(x) = ρ·P_C(x/ρ)`; sets with closed-form gauges override it.
    fn gauge(&self, x: &[f64]) -> f64 {
        gauge_by_bisection(self, x)
    }

    /// Projection onto the scaled set `ρC`, via `ρ·P_C(x/ρ)`.
    ///
    /// # Panics
    /// Panics in debug builds if `rho <= 0`.
    fn project_scaled(&self, x: &[f64], rho: f64) -> Vec<f64> {
        debug_assert!(rho > 0.0);
        let scaled: Vec<f64> = x.iter().map(|v| v / rho).collect();
        let mut p = self.project(&scaled);
        vector::scale_mut(&mut p, rho);
        p
    }

    /// Membership test with tolerance: `dist(x, C) ≤ tol`.
    fn contains(&self, x: &[f64], tol: f64) -> bool {
        vector::distance(x, &self.project(x)) <= tol
    }

    /// Worst-case absolute accuracy of [`ConvexSet::project`].
    ///
    /// Closed-form projections return machine precision (the default);
    /// iterative projections (e.g. Frank–Wolfe on vertex hulls) override
    /// this with their convergence bound so that derived routines — the
    /// default [`ConvexSet::gauge`] bisection in particular — test
    /// membership at a resolution the projection can actually deliver.
    fn projection_accuracy(&self) -> f64 {
        1e-9
    }
}

impl<S: WidthSet + ?Sized> WidthSet for Box<S> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn support_value(&self, g: &[f64]) -> f64 {
        (**self).support_value(g)
    }
    fn width_bound(&self) -> f64 {
        (**self).width_bound()
    }
    fn diameter(&self) -> f64 {
        (**self).diameter()
    }
}

impl<S: ConvexSet + ?Sized> ConvexSet for Box<S> {
    fn project(&self, x: &[f64]) -> Vec<f64> {
        (**self).project(x)
    }
    fn project_into(&self, x: &[f64], out: &mut [f64]) {
        (**self).project_into(x, out)
    }
    fn project_into_hinted(&self, x: &[f64], out: &mut [f64], hint: &mut ProjectionHint) {
        (**self).project_into_hinted(x, out, hint)
    }
    fn support(&self, g: &[f64]) -> Vec<f64> {
        (**self).support(g)
    }
    fn gauge(&self, x: &[f64]) -> f64 {
        (**self).gauge(x)
    }
    fn project_scaled(&self, x: &[f64], rho: f64) -> Vec<f64> {
        (**self).project_scaled(x, rho)
    }
    fn contains(&self, x: &[f64], tol: f64) -> bool {
        (**self).contains(x, tol)
    }
    fn projection_accuracy(&self) -> f64 {
        (**self).projection_accuracy()
    }
}

/// Generic gauge computation by bracketing + bisection (60 iterations,
/// relative accuracy ≈ 1e-12 of the bracket width).
pub(crate) fn gauge_by_bisection<C: ConvexSet + ?Sized>(set: &C, x: &[f64]) -> f64 {
    let nx = vector::norm2(x);
    if nx == 0.0 {
        return 0.0;
    }
    let dist_at = |rho: f64| vector::distance(x, &set.project_scaled(x, rho));
    // Bracket: grow until x ∈ ρC (or give up ⇒ gauge is infinite, e.g. the
    // set has empty interior in some direction). The membership resolution
    // cannot be finer than what the projection delivers.
    let tol = (1e-9 * nx.max(1.0)).max(set.projection_accuracy());
    let mut hi = 1.0;
    let mut grow = 0;
    while dist_at(hi) > tol {
        hi *= 2.0;
        grow += 1;
        if grow > 60 {
            return f64::INFINITY;
        }
    }
    let mut lo = 0.0;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mid == 0.0 {
            break;
        }
        if dist_at(mid) <= tol {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}
