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
//! The default lift restarts FISTA's momentum whenever it points uphill
//! (O'Donoghue–Candès), which lets its relative-progress stop
//! (`LIFT_STOP_REL_TOL`) fire well before the iteration ceiling.
//! Each FISTA iteration of the default lift costs a sparse `Φθ`, a
//! dense `Φᵀr` and one projection onto `C`, and at `m = 100`, `d = 1000`
//! the lift is nearly all of a `PrivIncReg2` step. `Φθ` runs over the
//! nonzero entries of `θ` only ([`GaussianSketch::apply_sparse_into`]):
//! for a low-width `C` such as `B₁` the projections, and hence the
//! momentum points FISTA evaluates, are sparse (about 200–300 of 1000
//! entries on the benchmarked stream). `Φᵀr` is dense in `r` and stays
//! the blocked sweep. The projection onto `B₁` is `O(d + k log k)`
//! rather than a full `O(d log d)` sort: FISTA hands each projection
//! the number of magnitudes the previous one kept
//! ([`pir_geometry::ProjectionHint`], carried in the [`LiftScratch`]
//! from one step to the next), and only about that many get sorted.
//! Neither the skipped zero columns nor the hint changes a bit of the
//! release.

use crate::error::CoreError;
use crate::Result;
use pir_geometry::ConvexSet;
use pir_linalg::{vector, CholeskyFactor, Matrix, PowerIterScratch};
use pir_optim::{fista_into_restarting, FistaScratch, Objective};
use pir_sketch::GaussianSketch;
use std::cell::RefCell;

/// Default lift: constrained least squares `min_{θ∈C} ‖Φθ − ϑ‖²` by
/// FISTA. `smoothness` must upper-bound `2‖Φ‖²`: callers compute the
/// power-iteration estimate once per sketch ([`sketch_smoothness`]) and
/// cache it. [`crate::PrivIncReg2`] computes it at its first step and
/// carries it in its state blob, so a session restored from that blob
/// does not compute it again.
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
    // cannot fork semantics (same restart and stopping rules, same stream
    // of iterations).
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

/// Reusable buffers for [`lift_constrained_ls_into`]: the
/// `m`-dimensional sketch residual, the `d` column indices
/// [`GaussianSketch::apply_sparse_into`] builds, and the `d`-dimensional
/// FISTA iteration buffers with their projection hint. The residual and
/// the indices sit behind [`RefCell`]s because the [`Objective`]
/// gradient methods take `&self`; the dynamic borrows are never
/// contended (FISTA drives one gradient call at a time) and cost no
/// allocation.
#[derive(Debug, Clone)]
pub struct LiftScratch {
    resid: RefCell<Vec<f64>>,
    support: RefCell<Vec<u32>>,
    fista: FistaScratch,
}

impl LiftScratch {
    /// Buffers for an `m → d` lift.
    pub fn new(m: usize, d: usize) -> Self {
        LiftScratch {
            resid: RefCell::new(vec![0.0; m]),
            support: RefCell::new(vec![0; d]),
            fista: FistaScratch::new(d),
        }
    }

    /// The `d` column-index slots, free between lifts: the mechanism
    /// borrows them for its sparse covariate embedding.
    pub(crate) fn support_mut(&mut self) -> &mut [u32] {
        self.support.get_mut()
    }
}

/// `‖Φθ − ϑ‖²` evaluated against caller-owned residual and index
/// scratch — the allocation-free form [`lift_constrained_ls_into`]
/// drives. `Φθ` skips the zero entries of `θ`
/// ([`GaussianSketch::apply_sparse_into`]): a projection onto a
/// low-width set such as `B₁` leaves most of them zero.
struct LiftObjectiveInto<'a> {
    sketch: &'a GaussianSketch,
    target: &'a [f64],
    resid: &'a RefCell<Vec<f64>>,
    support: &'a RefCell<Vec<u32>>,
}

impl LiftObjectiveInto<'_> {
    /// `resid ← Φθ − ϑ`.
    fn residual(&self, theta: &[f64], resid: &mut [f64]) {
        self.sketch
            .apply_sparse_into(theta, self.support.borrow_mut().as_mut_slice(), resid)
            .expect("dimension fixed");
        vector::axpy(-1.0, self.target, resid);
    }
}

impl Objective for LiftObjectiveInto<'_> {
    fn dim(&self) -> usize {
        self.sketch.d()
    }

    fn value(&self, theta: &[f64]) -> f64 {
        let mut r = self.resid.borrow_mut();
        self.residual(theta, r.as_mut_slice());
        vector::norm2_sq(r.as_slice())
    }

    fn gradient(&self, theta: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; self.sketch.d()];
        self.gradient_into(theta, &mut g);
        g
    }

    fn gradient_into(&self, theta: &[f64], out: &mut [f64]) {
        let mut r = self.resid.borrow_mut();
        self.residual(theta, r.as_mut_slice());
        self.sketch.apply_t_into(r.as_slice(), out).expect("dimension fixed");
        vector::scale_mut(out, 2.0);
    }
}

/// [`lift_constrained_ls`] writing the lifted release into `out` and
/// reusing caller-owned scratch — the allocation-free form of the
/// per-step mechanism path (Algorithm 3, Step 9). Value-for-value
/// identical to the allocating function. Returns the number of FISTA
/// iterations the lift used: at most `iters`, fewer once the
/// `LIFT_STOP_REL_TOL` stop fires.
///
/// # Panics
/// Panics if `target`/`warm_start`/`out`/`scratch` dimensions do not
/// match the sketch (mirroring [`pir_optim::fista_into`]; the mechanism
/// fixes all of them at construction).
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
    assert_eq!(
        scratch.resid.borrow().len(),
        sketch.m(),
        "lift_constrained_ls_into: scratch residual mismatch"
    );
    let obj =
        LiftObjectiveInto { sketch, target, resid: &scratch.resid, support: &scratch.support };
    fista_into_restarting(
        &obj,
        set,
        smoothness.max(1e-12),
        iters,
        LIFT_STOP_REL_TOL,
        warm_start,
        &mut scratch.fista,
        out,
    )
}

/// Relative-progress stop tolerance for the lift FISTA: the lift stops
/// once a step moves the iterate by at most `1e-8 · max(1, ‖θ‖)`, with
/// `lift_iters` as the ceiling. Each mechanism step warm-starts the lift
/// from the previous release, whose distance to the new minimizer is one
/// step's worth of drift.
///
/// The lift runs FISTA with adaptive momentum restart
/// ([`pir_optim::fista_into_restarting`]). Without restart the stop
/// never fired at `m = 100`, `d = 1000`: plain FISTA's momentum kept
/// every move above the tolerance, and every step used all 80
/// iterations. With restart the loopbench sketch session's
/// lift stops after a median 42 iterations at `t < 64`, where the warm
/// start is furthest from the minimizer; from `t = 64` on, at least
/// 10% of steps stop by 37–46 iterations and the rest still reach the
/// ceiling (`exp_lift_iters`, BENCH_mech_step.json).
///
/// The tolerance is looser than the descent's (`1e-8` vs `1e-10`)
/// because the lift geometry at large `m` needs many more iterations to
/// clear a `1e-10` bar than the per-step ceiling allows. What a stop
/// costs is pinned by two property tests: the stopped lift lies within
/// `1e-4` of the same restarting iteration run for its whole budget
/// (`adaptive_lift_stays_within_documented_tolerance`), and its
/// objective is never above plain fixed-budget FISTA's by more than
/// `1e-9 · ‖ϑ‖²` (`restarted_lift_objective_is_no_worse_than_plain_fista`)
/// — orders of magnitude below both the DP noise the lift target
/// already carries and the M\*-bound estimation error (Theorem 5.3,
/// `O(w(C)/√m)`).
pub(crate) const LIFT_STOP_REL_TOL: f64 = 1e-8;

/// Smoothness constant `2‖Φ‖²` for the lift objective, estimated by power
/// iteration (do this once per sketch and cache it).
pub fn sketch_smoothness(sketch: &GaussianSketch) -> f64 {
    sketch_smoothness_with(sketch, &mut PowerIterScratch::new(sketch.m(), sketch.d()))
}

/// [`sketch_smoothness`] on caller-owned power-iteration buffers (sized
/// `m × d`): the same bits, no allocation.
pub(crate) fn sketch_smoothness_with(
    sketch: &GaussianSketch,
    scratch: &mut PowerIterScratch,
) -> f64 {
    let s = sketch.matrix().spectral_norm_with(1e-6, 50_000, scratch).unwrap_or_else(|_| {
        // Conservative fallback: Frobenius norm dominates the spectral norm.
        sketch.matrix().frobenius_norm()
    });
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
///   fallback when it does not converge.
///
/// The tighter-looking `2·maxᵢ‖φᵢ‖²` is not a lower bound of the
/// estimate: when the start vector is nearly orthogonal to the top
/// singular vector, the `1e-6` stop rule can fire near the second
/// singular value, below the largest row norm. A smoothness constant
/// carried in a state blob is checked against this bracket.
pub fn smoothness_bracket(sketch: &GaussianSketch) -> (f64, f64) {
    let phi = sketch.matrix();
    let row_sums_sq: f64 = (0..phi.rows()).map(|i| phi.row(i).iter().sum::<f64>().powi(2)).sum();
    let frobenius = vector::norm2_sq(phi.as_slice());
    (
        2.0 * row_sums_sq / phi.cols() as f64 * (1.0 - SMOOTHNESS_BRACKET_SLACK),
        2.0 * frobenius * (1.0 + SMOOTHNESS_BRACKET_SLACK),
    )
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
    use pir_optim::{fista_into, fista_into_restarting};
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

    proptest! {
        /// The stop may truncate the restarting lift but must never move
        /// the lifted release by more than the documented tolerance from
        /// the same restarting iteration run for the full budget with the
        /// stop turned off — over random sketches, targets, and warm
        /// starts (cold and near-converged).
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
            let mut adaptive = vec![0.0; d];
            let used = lift_constrained_ls_into(
                &sketch, &target, &set, smooth, iters, &warm, &mut scratch, &mut adaptive,
            );
            prop_assert!(used <= iters);
            // Full-budget reference: the same objective and restarts,
            // rel_tol = 0 (no early stop).
            let obj = LiftObjectiveInto {
                sketch: &sketch,
                target: &target,
                resid: &scratch.resid,
                support: &scratch.support,
            };
            let mut full = vec![0.0; d];
            let mut fista = FistaScratch::new(d);
            let ran = fista_into_restarting(
                &obj, &set, smooth.max(1e-12), iters, 0.0, &warm, &mut fista, &mut full,
            );
            prop_assert_eq!(ran, iters);
            // Documented bound: a small multiple of
            // iters · LIFT_STOP_REL_TOL ≈ 1e-6 (momentum amplifies the
            // truncated tail).
            prop_assert!(
                vector::distance(&adaptive, &full) <= 1e-4,
                "adaptive lift {:?} drifted from full-budget {:?}", adaptive, full
            );
        }

        /// Restart plus the early stop never leaves the lift objective
        /// `‖Φθ − ϑ‖²` worse than plain FISTA run for the whole fixed
        /// budget, up to `1e-9` relative to `‖ϑ‖²` (the objective at
        /// `θ = 0`; the minimum itself is often zero, so it cannot be
        /// the scale).
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
            let mut restarted = vec![0.0; d];
            lift_constrained_ls_into(
                &sketch, &target, &set, smooth, iters, &warm, &mut scratch, &mut restarted,
            );
            let obj = LiftObjectiveInto {
                sketch: &sketch,
                target: &target,
                resid: &scratch.resid,
                support: &scratch.support,
            };
            let mut plain = vec![0.0; d];
            let mut fista = FistaScratch::new(d);
            fista_into(&obj, &set, smooth.max(1e-12), iters, &warm, &mut fista, &mut plain);
            let (f_restarted, f_plain) = (obj.value(&restarted), obj.value(&plain));
            prop_assert!(
                f_restarted <= f_plain + 1e-9 * vector::norm2_sq(&target),
                "restarted objective {:e} above plain FISTA's {:e}", f_restarted, f_plain
            );
        }
    }

    proptest! {
        /// The bracket a carried smoothness constant is checked against
        /// holds the power-iteration value on every sketch, including the
        /// small-`m` ones where that value falls below `2·maxᵢ‖φᵢ‖²`; and
        /// the scratch form gives the same bits on dirty buffers.
        #[test]
        fn smoothness_lies_in_its_bracket(seed in 0u64..1_000_000, m in 1usize..7, extra in 0usize..40) {
            let d = m + extra;
            let sketch = GaussianSketch::sample(m, d, &mut NoiseRng::seed_from_u64(seed));
            let l = sketch_smoothness(&sketch);
            let (lo, hi) = smoothness_bracket(&sketch);
            prop_assert!(0.0 < lo && lo <= l && l <= hi, "{l} outside [{lo}, {hi}]");
            let mut scratch = PowerIterScratch::new(m, d);
            let other = GaussianSketch::sample(m, d, &mut NoiseRng::seed_from_u64(seed + 1));
            sketch_smoothness_with(&other, &mut scratch);
            prop_assert_eq!(sketch_smoothness_with(&sketch, &mut scratch).to_bits(), l.to_bits());
        }
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
