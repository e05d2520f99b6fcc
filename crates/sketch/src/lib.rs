//! # pir-sketch
//!
//! Gaussian random projections for Algorithm 3 (`PrivIncReg2`).
//!
//! A sketch `Φ ∈ R^{m×d}` has i.i.d. `N(0, 1/m)` entries. Two results
//! govern its use in the paper:
//!
//! - **Johnson–Lindenstrauss**: pairwise geometry of any *fixed* point set
//!   survives with `m = O(log n / γ²)` — but the guarantee breaks down for
//!   *adaptively chosen* points, exactly the situation of a private stream
//!   whose adversary sees releases that depend on `Φ`.
//! - **Gordon's theorem** (Theorem 5.1 / Corollary 5.2 of the paper): for
//!   an entire *set* `S`, `sup_{a∈S} |‖Φa‖² − ‖a‖²| ≤ γ‖a‖²` w.h.p. once
//!   `m ≳ max{w(S)², log(1/β)}/γ²`. Because the bound covers every point
//!   of `S` simultaneously, adaptivity within `S` is harmless — this is
//!   why Algorithm 3 sizes `m` by Gaussian width, not by stream length.
//!
//! [`gordon::dimension`] implements the `m` rule,
//! [`gordon::gamma_for`] the `γ = W^{1/3}/T^{1/3}` trade-off of
//! Algorithm 3, and [`GaussianSketch`] the projection itself together with
//! the norm-preserving rescaling `x̃ = (‖x‖/‖Φx‖)·x` (Step 4).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod gordon;

use pir_dp::NoiseRng;
use pir_linalg::{kernels, LinalgError, Matrix};

/// A sampled Gaussian projection `Φ ∈ R^{m×d}` with i.i.d. `N(0, 1/m)`
/// entries.
#[derive(Debug, Clone)]
pub struct GaussianSketch {
    phi: Matrix,
}

impl GaussianSketch {
    /// Sample a fresh `m × d` sketch.
    ///
    /// # Panics
    /// Panics if `m == 0` or `d == 0`.
    pub fn sample(m: usize, d: usize, rng: &mut NoiseRng) -> Self {
        assert!(m > 0 && d > 0, "sketch dimensions must be positive");
        let sigma = 1.0 / (m as f64).sqrt();
        let data = rng.gaussian_vec(m * d, sigma);
        // Trusted internal data: finite Gaussian deviates by construction,
        // so skip the release-mode finiteness sweep.
        let phi = Matrix::from_vec_trusted(m, d, data).expect("shape fixed by construction");
        GaussianSketch { phi }
    }

    /// Projected dimension `m`.
    pub fn m(&self) -> usize {
        self.phi.rows()
    }

    /// Ambient dimension `d`.
    pub fn d(&self) -> usize {
        self.phi.cols()
    }

    /// The raw projection matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.phi
    }

    /// Apply the sketch: `Φx ∈ R^m`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `x.len() != d`.
    pub fn apply(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.phi.matvec(x)
    }

    /// Adjoint application: `Φᵀy ∈ R^d`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `y.len() != m`.
    pub fn apply_t(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.phi.matvec_t(y)
    }

    /// [`apply`](GaussianSketch::apply) writing into a caller-provided
    /// buffer of length `m` — the allocation-free form, value-for-value
    /// identical to the allocating method.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `x.len() != d` or
    /// `out.len() != m`.
    pub fn apply_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        self.phi.matvec_into(x, out)
    }

    /// [`apply_t`](GaussianSketch::apply_t) writing into a caller-provided
    /// buffer of length `d` — the allocation-free form, value-for-value
    /// identical to the allocating method.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `y.len() != m` or
    /// `out.len() != d`.
    pub fn apply_t_into(&self, y: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        self.phi.matvec_t_into(y, out)
    }

    /// [`apply_into`](GaussianSketch::apply_into) for a mostly-zero `x`:
    /// when fewer than half of its entries are nonzero, `Φx` is summed
    /// over those columns only ([`kernels::matvec_support`], with
    /// `support`, of length `d`, as its index scratch); otherwise this is
    /// the dense product. Both give the same bits for finite `x`, because
    /// `Φ` is finite by construction.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `x.len() != d`,
    /// `support.len() != d` or `out.len() != m`.
    pub fn apply_sparse_into(
        &self,
        x: &[f64],
        support: &mut [u32],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        let d = self.d();
        if support.len() != d {
            return Err(LinalgError::DimensionMismatch {
                op: "apply_sparse_into(support)",
                expected: d,
                found: support.len(),
            });
        }
        let sparse = x.len() == d
            && out.len() == self.m()
            && 2 * x.iter().filter(|v| **v != 0.0).count() < d;
        if !sparse {
            // The dense product, which also reports a shape mismatch.
            return self.phi.matvec_into(x, out);
        }
        kernels::matvec_support(d, self.phi.as_slice(), x, support, out);
        Ok(())
    }

    /// Algorithm 3, Step 4: the projected, norm-preserving embedding
    /// `Φx̃` where `x̃ = (‖x‖/‖Φx‖)·x`, so that `‖Φx̃‖₂ = ‖x‖₂` exactly.
    /// This is what keeps the Tree-Mechanism sensitivity in the projected
    /// space equal to the original domain bound (`‖Φx̃‖ = ‖x‖ ≤ 1`).
    ///
    /// Returns `None` for `x = 0` or the measure-zero event `Φx = 0`
    /// (callers treat such covariates as the zero point, which contributes
    /// nothing to the regression objective).
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `x.len() != d`.
    pub fn embed_normalized(&self, x: &[f64]) -> Result<Option<Vec<f64>>, LinalgError> {
        let mut out = vec![0.0; self.m()];
        let mut support = vec![0; self.d()];
        Ok(self.embed_normalized_into(x, &mut support, &mut out)?.then_some(out))
    }

    /// [`embed_normalized`](GaussianSketch::embed_normalized) writing into
    /// a caller-provided buffer of length `m` — the allocation-free form
    /// the per-step mechanism path uses, value-for-value identical to the
    /// allocating method. Returns `false` for the degenerate cases where
    /// the allocating method returns `None` (`x = 0` or `Φx = 0`); `out`
    /// is zero-filled in that case, matching the "treat as the zero point"
    /// convention of the callers. `Φx` goes through
    /// [`apply_sparse_into`](GaussianSketch::apply_sparse_into) with
    /// `support` (length `d`) as its index scratch, since covariates are
    /// often sparse.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `x.len() != d`,
    /// `support.len() != d` or `out.len() != m`.
    pub fn embed_normalized_into(
        &self,
        x: &[f64],
        support: &mut [u32],
        out: &mut [f64],
    ) -> Result<bool, LinalgError> {
        self.apply_sparse_into(x, support, out)?;
        let nx = pir_linalg::vector::norm2(x);
        let npx = pir_linalg::vector::norm2(out);
        if nx == 0.0 || npx == 0.0 {
            out.iter_mut().for_each(|v| *v = 0.0);
            return Ok(false);
        }
        pir_linalg::vector::scale_mut(out, nx / npx);
        Ok(true)
    }

    /// Batched [`embed_normalized`](GaussianSketch::embed_normalized):
    /// one entry per input covariate, in order. Point-for-point identical
    /// to the sequential calls; the win is amortization — `Φ` stays hot in
    /// cache across the whole batch and the per-call dimension checks are
    /// hoisted, which is what the multi-stream engine's batched ingest
    /// leans on.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if any `x.len() != d` (checked
    /// for the whole batch before any embedding is computed).
    pub fn embed_normalized_batch(
        &self,
        xs: &[&[f64]],
    ) -> Result<Vec<Option<Vec<f64>>>, LinalgError> {
        let d = self.d();
        for x in xs {
            if x.len() != d {
                return Err(LinalgError::DimensionMismatch {
                    op: "embed_normalized_batch",
                    expected: d,
                    found: x.len(),
                });
            }
        }
        xs.iter().map(|x| self.embed_normalized(x)).collect()
    }

    /// Worst squared-norm distortion over a point set:
    /// `max_i |‖Φa_i‖² − ‖a_i‖²| / ‖a_i‖²` (zero vectors are skipped).
    ///
    /// # Errors
    /// Propagates dimension mismatches.
    pub fn max_norm_distortion(&self, points: &[Vec<f64>]) -> Result<f64, LinalgError> {
        let mut worst = 0.0f64;
        for a in points {
            let na = pir_linalg::vector::norm2_sq(a);
            if na == 0.0 {
                continue;
            }
            let pa = pir_linalg::vector::norm2_sq(&self.apply(a)?);
            worst = worst.max((pa - na).abs() / na);
        }
        Ok(worst)
    }

    /// Worst inner-product distortion over point pairs:
    /// `max |⟨Φa, Φb⟩ − ⟨a, b⟩| / (‖a‖‖b‖)` (Corollary 5.2's quantity).
    ///
    /// # Errors
    /// Propagates dimension mismatches.
    pub fn max_inner_distortion(&self, points: &[Vec<f64>]) -> Result<f64, LinalgError> {
        let projected: Vec<Vec<f64>> =
            points.iter().map(|p| self.apply(p)).collect::<Result<_, _>>()?;
        let mut worst = 0.0f64;
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let denom =
                    pir_linalg::vector::norm2(&points[i]) * pir_linalg::vector::norm2(&points[j]);
                if denom == 0.0 {
                    continue;
                }
                let orig = pir_linalg::vector::dot(&points[i], &points[j]);
                let proj = pir_linalg::vector::dot(&projected[i], &projected[j]);
                worst = worst.max((proj - orig).abs() / denom);
            }
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_linalg::vector;

    fn rng() -> NoiseRng {
        NoiseRng::seed_from_u64(77)
    }

    #[test]
    fn shapes_and_adjoint_identity() {
        let mut r = rng();
        let s = GaussianSketch::sample(5, 20, &mut r);
        assert_eq!((s.m(), s.d()), (5, 20));
        // ⟨Φx, y⟩ = ⟨x, Φᵀy⟩.
        let x = r.gaussian_vec(20, 1.0);
        let y = r.gaussian_vec(5, 1.0);
        let lhs = vector::dot(&s.apply(&x).unwrap(), &y);
        let rhs = vector::dot(&x, &s.apply_t(&y).unwrap());
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn norms_preserved_in_expectation() {
        // E‖Φx‖² = ‖x‖² with variance O(1/m): averaging over 8 independent
        // sketches at m = 400 drops the standard error to ~2.5%, so a 15%
        // tolerance is ~6σ — robust to the exact bit stream of the sampler.
        let mut r = rng();
        let x = r.unit_sphere(50);
        let mean = (0..8)
            .map(|_| vector::norm2_sq(&GaussianSketch::sample(400, 50, &mut r).apply(&x).unwrap()))
            .sum::<f64>()
            / 8.0;
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn embed_normalized_has_exact_norm() {
        let mut r = rng();
        let s = GaussianSketch::sample(10, 30, &mut r);
        let x = vector::scale(&r.unit_sphere(30), 0.7);
        let e = s.embed_normalized(&x).unwrap().unwrap();
        assert!((vector::norm2(&e) - 0.7).abs() < 1e-10);
        assert!(s.embed_normalized(&vec![0.0; 30]).unwrap().is_none());
    }

    #[test]
    fn sparse_apply_matches_dense_apply_bit_for_bit() {
        let mut r = rng();
        let s = GaussianSketch::sample(9, 43, &mut r);
        let mut support = vec![u32::MAX; 43];
        // Dense, half-full (the dense branch) and 3-sparse (the sparse one).
        for nnz in [43usize, 22, 3, 0] {
            let mut x = r.gaussian_vec(43, 1.0);
            x.iter_mut().skip(nnz).for_each(|v| *v = -0.0);
            let (mut got, mut want) = (vec![f64::NAN; 9], vec![0.0; 9]);
            s.apply_sparse_into(&x, &mut support, &mut got).unwrap();
            s.apply_into(&x, &mut want).unwrap();
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "nnz = {nnz}");
        }
        assert!(s.apply_sparse_into(&[0.0; 43], &mut [0; 42], &mut [0.0; 9]).is_err());
        assert!(s.apply_sparse_into(&[0.0; 42], &mut support, &mut [0.0; 9]).is_err());
        assert!(s.apply_sparse_into(&[0.0; 43], &mut support, &mut [0.0; 8]).is_err());
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let mut r = rng();
        let s = GaussianSketch::sample(3, 7, &mut r);
        assert!(s.apply(&[1.0; 6]).is_err());
        assert!(s.apply_t(&[1.0; 7]).is_err());
    }

    #[test]
    fn distortion_shrinks_with_m() {
        let mut r = rng();
        let points: Vec<Vec<f64>> = (0..20).map(|_| r.unit_sphere(60)).collect();
        let small = GaussianSketch::sample(8, 60, &mut r);
        let large = GaussianSketch::sample(512, 60, &mut r);
        let ds = small.max_norm_distortion(&points).unwrap();
        let dl = large.max_norm_distortion(&points).unwrap();
        assert!(dl < ds, "distortion should shrink with m: {dl} !< {ds}");
        assert!(dl < 0.35, "large-m distortion too big: {dl}");
    }

    #[test]
    fn inner_products_approximately_preserved() {
        let mut r = rng();
        let points: Vec<Vec<f64>> = (0..15).map(|_| r.unit_sphere(40)).collect();
        let s = GaussianSketch::sample(600, 40, &mut r);
        let d = s.max_inner_distortion(&points).unwrap();
        assert!(d < 0.25, "inner-product distortion {d}");
    }

    #[test]
    fn reproducible_from_seed() {
        let a = GaussianSketch::sample(4, 6, &mut NoiseRng::seed_from_u64(1));
        let b = GaussianSketch::sample(4, 6, &mut NoiseRng::seed_from_u64(1));
        assert_eq!(a.matrix().as_slice(), b.matrix().as_slice());
    }
}
