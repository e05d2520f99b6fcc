//! Row-major dense matrices.

use crate::error::LinalgError;
use crate::kernels;
use crate::vector;
use crate::Result;

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// This is the workhorse for the second-moment statistics `Σ xᵢxᵢᵀ`
/// maintained by the tree mechanism and for the projection matrices `Φ` of
/// Algorithm 3. Entries are stored contiguously; `self.data[r * cols + c]`
/// holds entry `(r, c)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix `I_d`.
    pub fn identity(d: usize) -> Self {
        let mut m = Matrix::zeros(d, d);
        for i in 0..d {
            m.data[i * d + i] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`;
    /// [`LinalgError::NonFinite`] if any entry is NaN/∞.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_vec",
                expected: rows * cols,
                found: data.len(),
            });
        }
        if !vector::is_finite(&data) {
            return Err(LinalgError::NonFinite { op: "Matrix::from_vec" });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from a flat row-major buffer of *trusted* data, skipping the
    /// `O(rows·cols)` finiteness sweep of [`Matrix::from_vec`] (it still
    /// runs as a `debug_assert`). For internal hot paths where every entry
    /// was already validated on ingest — e.g. mechanism statistics
    /// assembled from stream items that passed `DataPoint::validate` —
    /// re-scanning on every step only burns the cycles the validation was
    /// supposed to protect. Public entry points must keep using the
    /// checked constructor.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`
    /// (shape errors are programming bugs worth catching in release too).
    pub fn from_vec_trusted(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_vec_trusted",
                expected: rows * cols,
                found: data.len(),
            });
        }
        debug_assert!(
            vector::is_finite(&data),
            "Matrix::from_vec_trusted: non-finite entry in trusted data"
        );
        Ok(Matrix { rows, cols, data })
    }

    /// Overwrite the matrix contents from a flat row-major slice, reusing
    /// the allocation — the scratch-buffer counterpart of
    /// [`Matrix::from_vec_trusted`] (shape-checked, finiteness only as a
    /// `debug_assert`). The matrix shape is preserved.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `src.len() != rows * cols`.
    pub fn copy_from_slice_checked(&mut self, src: &[f64]) -> Result<()> {
        if src.len() != self.data.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::copy_from_slice_checked",
                expected: self.data.len(),
                found: src.len(),
            });
        }
        debug_assert!(
            vector::is_finite(src),
            "Matrix::copy_from_slice_checked: non-finite entry in trusted data"
        );
        self.data.copy_from_slice(src);
        Ok(())
    }

    /// Build from row slices (all rows must share a length).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch {
                    op: "Matrix::from_rows",
                    expected: c,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Matrix::from_vec(r, c, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "Matrix::get out of bounds");
        self.data[r * self.cols + c]
    }

    /// Set entry `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "Matrix::set out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major buffer (shape is preserved).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matvec`] writing into a caller-provided buffer — the
    /// allocation-free form the mechanism hot loops use. Value-for-value
    /// identical to the allocating method.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `x.len() != cols` or
    /// `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                expected: self.cols,
                found: x.len(),
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec(out)",
                expected: self.rows,
                found: out.len(),
            });
        }
        kernels::matvec(self.cols, &self.data, x, out);
        Ok(())
    }

    /// Transposed matrix–vector product `Aᵀ y`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `y.len() != rows`.
    pub fn matvec_t(&self, y: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.cols];
        self.matvec_t_into(y, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matvec_t`] writing into a caller-provided buffer.
    /// Value-for-value identical to the allocating method.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `y.len() != rows` or
    /// `out.len() != cols`.
    pub fn matvec_t_into(&self, y: &[f64], out: &mut [f64]) -> Result<()> {
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_t",
                expected: self.rows,
                found: y.len(),
            });
        }
        if out.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_t(out)",
                expected: self.cols,
                found: out.len(),
            });
        }
        kernels::matvec_t(self.cols, &self.data, y, out);
        Ok(())
    }

    /// Matrix product `A B`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `self.cols != b.rows`.
    pub fn matmul(&self, b: &Matrix) -> Result<Matrix> {
        if self.cols != b.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                expected: self.cols,
                found: b.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, b.cols);
        // i-k-j loop order keeps the inner loop contiguous in both B and out.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                vector::axpy(aik, brow, orow);
            }
        }
        Ok(out)
    }

    /// Gram matrix `A Aᵀ` (`rows × rows`), exploiting symmetry.
    pub fn gram_rows(&self) -> Matrix {
        let n = self.rows;
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = vector::dot(self.row(i), self.row(j));
                g.data[i * n + j] = v;
                g.data[j * n + i] = v;
            }
        }
        g
    }

    /// Transpose copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Rank-1 update `A ← A + alpha·u vᵀ`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn add_outer(&mut self, alpha: f64, u: &[f64], v: &[f64]) -> Result<()> {
        if u.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "add_outer(u)",
                expected: self.rows,
                found: u.len(),
            });
        }
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "add_outer(v)",
                expected: self.cols,
                found: v.len(),
            });
        }
        for (r, &ur) in u.iter().enumerate() {
            if ur == 0.0 {
                continue;
            }
            vector::axpy(alpha * ur, v, self.row_mut(r));
        }
        Ok(())
    }

    /// Outer product `u vᵀ` as a fresh matrix.
    pub fn outer(u: &[f64], v: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(u.len(), v.len());
        m.add_outer(1.0, u, v).expect("outer: shapes fixed by construction");
        m
    }

    /// Rank-1 update `A ← A + alpha·u vᵀ` through the register-blocked
    /// kernel — the unconditional counterpart of [`Matrix::add_outer`]
    /// for the mechanism hot paths. Unlike `add_outer` it does not skip
    /// zero rows of `u`: every entry receives the elementwise update
    /// `a_rc += (alpha·u_r)·v_c`, which is what the blocked kernel's
    /// reference pins bit-for-bit.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn add_scaled_outer(&mut self, alpha: f64, u: &[f64], v: &[f64]) -> Result<()> {
        if u.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "add_scaled_outer(u)",
                expected: self.rows,
                found: u.len(),
            });
        }
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "add_scaled_outer(v)",
                expected: self.cols,
                found: v.len(),
            });
        }
        kernels::add_scaled_outer(alpha, u, v, &mut self.data);
        Ok(())
    }

    /// `A ← A + alpha·B`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn add_scaled(&mut self, alpha: f64, b: &Matrix) -> Result<()> {
        if self.rows != b.rows || self.cols != b.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "add_scaled",
                expected: self.rows * self.cols,
                found: b.rows * b.cols,
            });
        }
        vector::axpy(alpha, &b.data, &mut self.data);
        Ok(())
    }

    /// In-place scalar multiplication.
    pub fn scale_mut(&mut self, alpha: f64) {
        vector::scale_mut(&mut self.data, alpha);
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(&self.data)
    }

    /// Trace (sum of diagonal entries); requires a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Spectral norm (largest singular value) estimated by power iteration
    /// on `AᵀA`, accurate to relative tolerance `tol`.
    ///
    /// Deterministic: starts from the all-ones direction with a fallback
    /// re-seeding on degeneracy, so results are reproducible without an RNG.
    ///
    /// # Errors
    /// [`LinalgError::DidNotConverge`] if `max_iters` is exhausted before
    /// two successive estimates agree to `tol` (the best estimate so far is
    /// usually still usable; callers that can tolerate slack should pass a
    /// generous budget).
    pub fn spectral_norm(&self, tol: f64, max_iters: usize) -> Result<f64> {
        let mut scratch = PowerIterScratch::new(self.rows, self.cols);
        self.spectral_norm_with(tol, max_iters, &mut scratch)
    }

    /// [`Matrix::spectral_norm`] reusing caller-owned iteration buffers —
    /// the allocation-free form for per-step callers (the mechanisms
    /// estimate the smoothness of a fresh `d×d` quadratic every timestep).
    /// Value-for-value identical to the allocating method.
    ///
    /// # Errors
    /// As [`Matrix::spectral_norm`]; additionally
    /// [`LinalgError::DimensionMismatch`] if `scratch` was sized for a
    /// different shape.
    pub fn spectral_norm_with(
        &self,
        tol: f64,
        max_iters: usize,
        scratch: &mut PowerIterScratch,
    ) -> Result<f64> {
        let PowerIterScratch { v, av, atav } = scratch;
        self.spectral_norm_in(tol, max_iters, v, av, atav)
    }

    /// [`Matrix::spectral_norm_with`] on three caller-owned slices: the
    /// direction `v` and `AᵀAv` (length `cols`) and `Av` (length
    /// `rows`), for callers that lend buffers they own for another
    /// purpose. The same bits; the slices' contents on entry are ignored.
    ///
    /// # Errors
    /// As [`Matrix::spectral_norm_with`].
    pub fn spectral_norm_in(
        &self,
        tol: f64,
        max_iters: usize,
        v: &mut [f64],
        av: &mut [f64],
        atav: &mut [f64],
    ) -> Result<f64> {
        if self.rows == 0 || self.cols == 0 {
            return Ok(0.0);
        }
        if av.len() != self.rows || v.len() != self.cols || atav.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "spectral_norm_in(scratch)",
                expected: self.rows + 2 * self.cols,
                found: av.len() + v.len() + atav.len(),
            });
        }
        v.iter_mut().for_each(|x| *x = 1.0_f64 / (self.cols as f64).sqrt());
        let mut prev = 0.0_f64;
        let mut null_hits = 0usize;
        for it in 0..max_iters {
            self.matvec_into(v, av)?;
            self.matvec_t_into(av, atav)?;
            let n = vector::norm2(atav);
            if n == 0.0 {
                // v is in the null space; re-seed with each basis direction
                // in turn. If they are all annihilated the matrix is zero.
                null_hits += 1;
                if null_hits > self.cols {
                    return Ok(0.0);
                }
                let k = it % self.cols;
                v.iter_mut().for_each(|x| *x = 0.0);
                v[k] = 1.0;
                continue;
            }
            let sigma = {
                // Rayleigh quotient: vᵀAᵀAv = ‖Av‖².
                vector::norm2(av)
            };
            vector::scaled_copy_into(1.0 / n, atav, v);
            if (sigma - prev).abs() <= tol * sigma.max(1e-300) {
                return Ok(sigma);
            }
            prev = sigma;
        }
        Err(LinalgError::DidNotConverge { op: "spectral_norm", iters: max_iters })
    }
}

/// Reusable buffers for [`Matrix::spectral_norm_with`]: the power-iteration
/// direction `v ∈ R^cols` and the products `Av ∈ R^rows`, `AᵀAv ∈ R^cols`.
#[derive(Debug, Clone)]
pub struct PowerIterScratch {
    v: Vec<f64>,
    av: Vec<f64>,
    atav: Vec<f64>,
}

impl PowerIterScratch {
    /// Buffers for power iteration on a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        PowerIterScratch { v: vec![0.0; cols], av: vec![0.0; rows], atav: vec![0.0; cols] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.get(2, 1), 6.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_vec_validates_shape_and_finiteness() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Matrix::from_vec(1, 2, vec![1.0, f64::NAN]),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(m.matvec_t(&[1.0, 0.0, 1.0]).unwrap(), vec![6.0, 8.0]);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.matvec_t(&[1.0]).is_err());
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let m = sample();
        let mut out3 = [9.0; 3];
        m.matvec_into(&[1.0, 1.0], &mut out3).unwrap();
        assert_eq!(out3.to_vec(), m.matvec(&[1.0, 1.0]).unwrap());
        let mut out2 = [9.0; 2];
        m.matvec_t_into(&[1.0, 0.0, 1.0], &mut out2).unwrap();
        assert_eq!(out2.to_vec(), m.matvec_t(&[1.0, 0.0, 1.0]).unwrap());
        // Wrong-size output buffers are rejected, inputs untouched.
        assert!(m.matvec_into(&[1.0, 1.0], &mut out2).is_err());
        assert!(m.matvec_t_into(&[1.0, 0.0, 1.0], &mut out3).is_err());
    }

    #[test]
    fn trusted_construction_checks_shape_only() {
        assert!(matches!(
            Matrix::from_vec_trusted(2, 2, vec![1.0; 3]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let m = Matrix::from_vec_trusted(1, 2, vec![1.0, 2.0]).unwrap();
        assert_eq!(m.as_slice(), &[1.0, 2.0]);
        let mut scratch = Matrix::zeros(2, 2);
        scratch.copy_from_slice_checked(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(scratch.get(1, 0), 3.0);
        assert!(scratch.copy_from_slice_checked(&[1.0]).is_err());
    }

    #[test]
    fn spectral_norm_with_reused_scratch_matches() {
        let m = sample();
        let mut scratch = PowerIterScratch::new(3, 2);
        let direct = m.spectral_norm(1e-10, 10_000).unwrap();
        // Reuse the same scratch twice: results must be identical.
        let s1 = m.spectral_norm_with(1e-10, 10_000, &mut scratch).unwrap();
        let s2 = m.spectral_norm_with(1e-10, 10_000, &mut scratch).unwrap();
        assert_eq!(s1, direct);
        assert_eq!(s2, direct);
        // Borrowed dirty slices give the same bits.
        let (mut v, mut av, mut atav) = ([7.0; 2], [-3.0; 3], [f64::NAN; 2]);
        assert_eq!(m.spectral_norm_in(1e-10, 10_000, &mut v, &mut av, &mut atav).unwrap(), direct);
        // Shape-mismatched scratch is rejected.
        let mut bad = PowerIterScratch::new(2, 2);
        assert!(m.spectral_norm_with(1e-10, 100, &mut bad).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 3.0]]).unwrap();
        let ab = a.matmul(&b).unwrap();
        assert_eq!(ab.as_slice(), &[5.0, 6.0, 2.0, 3.0]);
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn outer_and_rank1_update() {
        let mut a = Matrix::zeros(2, 2);
        a.add_outer(2.0, &[1.0, 0.0], &[0.0, 1.0]).unwrap();
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 0), 0.0);
        let o = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(o.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn gram_rows_is_symmetric_psd_diagonal() {
        let m = sample();
        let g = m.gram_rows();
        assert_eq!(g.get(0, 1), g.get(1, 0));
        for i in 0..3 {
            assert!(g.get(i, i) >= 0.0);
            assert!((g.get(i, i) - crate::vector::norm2_sq(m.row(i))).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_and_identity() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3.trace(), 3.0);
        assert_eq!(i3.matvec(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn spectral_norm_of_diagonal_matrix() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -7.0]]).unwrap();
        let s = m.spectral_norm(1e-10, 10_000).unwrap();
        assert!((s - 7.0).abs() < 1e-6, "got {s}");
    }

    #[test]
    fn spectral_norm_of_rank_one() {
        // ‖u vᵀ‖ = ‖u‖‖v‖.
        let m = Matrix::outer(&[1.0, 2.0, 2.0], &[3.0, 4.0]);
        let s = m.spectral_norm(1e-10, 10_000).unwrap();
        assert!((s - 15.0).abs() < 1e-6, "got {s}");
    }

    #[test]
    fn spectral_norm_zero_matrix() {
        let m = Matrix::zeros(3, 3);
        assert_eq!(m.spectral_norm(1e-8, 100).unwrap(), 0.0);
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Matrix::identity(2);
        let b = Matrix::identity(2);
        a.add_scaled(3.0, &b).unwrap();
        a.scale_mut(0.5);
        assert_eq!(a.get(0, 0), 2.0);
        assert!(a.add_scaled(1.0, &Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn frobenius_norm_matches_flat_l2() {
        let m = sample();
        let expect = (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0 + 36.0).sqrt();
        assert!((m.frobenius_norm() - expect).abs() < 1e-12);
    }
}
