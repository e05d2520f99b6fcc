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
//!
//! # The packed second moment
//!
//! `x xᵀ` is symmetric, so the second-moment tree streams only its upper
//! triangle, packed row by row into `k(k+1)/2` entries: `x_i²` on the
//! diagonal and `√2·x_i x_j` off it ([`kernels::set_packed_outer`]).
//! This is "Analyze Gauss" (Dwork, Talwar, Thakurta and Zhang, STOC
//! 2014). The `√2` makes the packing a Frobenius isometry, so each item
//! has `‖v‖₂ = ‖x xᵀ‖_F = ‖x‖² ≤ 1`: the sensitivity, `σ` and Lemma 4.1's
//! bound are those of the full `k²` stream. The release is unpacked into
//! the symmetric `Q_t` with the off-diagonals divided by `√2`
//! ([`kernels::unpack_symmetric`]).
//!
//! **Noise law.** At step `t` each released packed entry carries the
//! sum of `p = popcount(t)` independent `N(0, σ²)` node draws, so `Q_t`
//! has noise variance `pσ²` on the diagonal and `pσ²/2` off it: the law
//! of `(G + Gᵀ)/2` for an i.i.d. `N(0, pσ²)` `k×k` matrix `G`, which is
//! what averaging the two off-diagonal copies of a full-width `k²`
//! release gives. A node takes `k(k+1)/2` draws instead of `k²`, so the
//! tree rows, the node noise and the state bytes are about half those
//! of a full-width tree.

use crate::codec::{self, Dec, Enc};
use crate::descent::{minimize_private_objective_into, DescentScratch, DescentStrategy};
use crate::error::CoreError;
use crate::Result;
use pir_continual::{TreeMechanism, TreeState};
use pir_dp::{NoiseRng, PrivacyParams};
use pir_geometry::ConvexSet;
use pir_linalg::{kernels, vector, LinalgError, Matrix};

/// The two Tree Mechanisms behind `g_t(θ) = 2(Q_t θ − q_t)`, their step
/// buffers, and Lemma 4.1's error bound.
///
/// Every step feeds `x·y` (a `k`-vector of norm ≤ 1) into the
/// first-moment tree and the packed `x xᵀ` (a `k(k+1)/2`-vector of norm
/// `‖x‖² ≤ 1`; see the module doc) into the second-moment tree, each at
/// `(ε/2, δ/2)`, so both streams have sensitivity 2 and the whole release
/// sequence is `(ε, δ)`-DP (Theorem A.3 over the two trees). The
/// first-moment release `q_t` is borrowed from its tree; the
/// second-moment release is unpacked into the symmetric `q_mat`. The
/// buffers are allocated once, so a step touches the heap zero times.
#[derive(Debug)]
pub(crate) struct PrivateGradient {
    tree_xy: TreeMechanism,
    tree_xx: TreeMechanism,
    /// `x·y` — the first-moment stream item.
    xy: Vec<f64>,
    /// Packed `x xᵀ` — the second-moment stream item.
    packed: Vec<f64>,
    /// Second-moment release `Q_t`, unpacked.
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
    /// the spectral norm of the second-moment noise. That noise has the
    /// law of `(G + Gᵀ)/2` for `G` a sum of at most `levels` i.i.d.
    /// Gaussian `k×k` matrices with per-entry deviation `σ` (module doc),
    /// and `‖(G + Gᵀ)/2‖ ≤ ‖G‖`, so by Proposition A.1 it is
    /// `σ·√levels·(2√k + √(2 ln(1/β)))` w.p. `≥ 1 − β`. (The tree's own
    /// Frobenius bound would give `≈ k` instead of `≈ √k`; Lemma 4.1's
    /// `√d` rests on this sharpening.)
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
        // ‖x y‖ ≤ 1 and ‖pack(x xᵀ)‖ = ‖x xᵀ‖_F = ‖x‖² ≤ 1 under the §2
        // normalization, so both streams have per-item norm bound 1
        // (sensitivity 2).
        let tree_xy = TreeMechanism::new(k, t_max, 1.0, &half, rng.fork())?;
        let tree_xx = TreeMechanism::new(kernels::packed_len(k), t_max, 1.0, &half, rng.fork())?;
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
            packed: vec![0.0; kernels::packed_len(k)],
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
        let k = self.xy.len();
        if x.len() != k {
            return Err(CoreError::Linalg(LinalgError::DimensionMismatch {
                op: "private gradient step",
                expected: k,
                found: x.len(),
            }));
        }
        vector::scaled_copy_into(y, x, &mut self.xy);
        let q = self.tree_xy.update_ref(&self.xy)?;
        kernels::set_packed_outer(x, &mut self.packed);
        let released = self.tree_xx.update_ref(&self.packed)?;
        kernels::unpack_symmetric(k, released, self.q_mat.as_mut_slice());
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

    /// Read the two tree states [`put_trees`](Self::put_trees) wrote, or,
    /// if `full_width`, the ones the previous build wrote (tags 5 and 7):
    /// their second-moment rows (`a_j`, `b_j` and `s`) are `k²` wide, and
    /// each is symmetrized and packed. That keeps the release (up to
    /// rounding) and gives the noisy rows the packed noise law: for
    /// `i < j`, `(n_ij + n_ji)/√2 ~ N(0, σ²)`.
    ///
    /// # Errors
    /// [`CoreError::InvalidState`] on truncation, or on a full-width
    /// second-moment tree whose rows are not `k²` wide.
    pub(crate) fn take_trees(&self, d: &mut Dec<'_>, full_width: bool) -> Result<[TreeState; 2]> {
        let xy = codec::take_tree(d)?;
        let mut xx = codec::take_tree(d)?;
        let k = self.xy.len();
        if full_width && k > 0 {
            if xx.s.len() != k * k {
                return Err(CoreError::InvalidState {
                    reason: format!(
                        "full-width second-moment rows have dimension {} (expected {})",
                        xx.s.len(),
                        k * k
                    ),
                });
            }
            xx.live =
                xx.live.chunks_exact(k * k).flat_map(|row| pack_symmetrized(k, row)).collect();
            xx.s = pack_symmetrized(k, &xx.s);
        }
        Ok([xy, xx])
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

/// The packed upper triangle of `(R + Rᵀ)/2` for a row-major `k × k` row
/// `R`: `r_ii` on the diagonal and `(r_ij + r_ji)/√2` off it, so
/// [`kernels::unpack_symmetric`] gives back `(r_ij + r_ji)/2`.
fn pack_symmetrized(k: usize, full: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(kernels::packed_len(k));
    for i in 0..k {
        out.push(full[i * k + i]);
        for j in i + 1..k {
            out.push((full[i * k + j] + full[j * k + i]) * std::f64::consts::FRAC_1_SQRT_2);
        }
    }
    out
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
    fn trees_fork_first_moment_first_and_release_unpacked() {
        let k = 3;
        let mut g = gradient(k, 16, 1.0, 5);
        let mut exact = (Matrix::zeros(k, k), vec![0.0; k]);
        let mut rng = NoiseRng::seed_from_u64(5);
        let half = params(1.0).halve();
        let mut xy = TreeMechanism::new(k, 16, 1.0, &half, rng.fork()).unwrap();
        let mut xx = TreeMechanism::new(6, 16, 1.0, &half, rng.fork()).unwrap();
        for z in stream(5, k, 6) {
            feed(&mut g, &mut exact, &z);
            let q = xy.update(&vector::scale(&z.x, z.y)).unwrap();
            let mut packed = vec![0.0; 6];
            kernels::set_packed_outer_ref(&z.x, &mut packed);
            let raw = xx.update(&packed).unwrap();
            assert_eq!(g.tree_xy.release_view(), &q[..]);
            // Packed row by row: (0,0) (0,1) (0,2) (1,1) (1,2) (2,2).
            let at = |i: usize, j: usize| [[0, 1, 2], [1, 3, 4], [2, 4, 5]][i][j];
            for i in 0..k {
                for j in 0..k {
                    let p = raw[at(i, j)];
                    let want = if i == j { p } else { std::f64::consts::FRAC_1_SQRT_2 * p };
                    assert_eq!(g.q_mat.get(i, j).to_bits(), want.to_bits(), "({i}, {j})");
                }
            }
        }
        assert_eq!(g.t(), 5);
    }

    /// A full-width tree as the previous build kept it: `k²` rows fed
    /// `x xᵀ`, at budget `epsilon`.
    fn full_width_tree(k: usize, t: usize, epsilon: f64, seed: u64) -> TreeState {
        let mut rng = NoiseRng::seed_from_u64(seed);
        let half = params(epsilon).halve();
        let mut tree = TreeMechanism::new(k * k, 16, 1.0, &half, rng.fork()).unwrap();
        for z in stream(t, k, seed + 1) {
            tree.update(Matrix::outer(&z.x, &z.x).as_slice()).unwrap();
        }
        tree.export_state()
    }

    /// Read a blob of the two trees under `layout` into `g`.
    fn take(
        g: &PrivateGradient,
        xy: &TreeState,
        xx: &TreeState,
        full_width: bool,
    ) -> Result<[TreeState; 2]> {
        let mut buf = Vec::new();
        let mut e = Enc::new(&mut buf);
        codec::put_tree(&mut e, xy);
        codec::put_tree(&mut e, xx);
        let mut d = Dec::new(&buf);
        let trees = g.take_trees(&mut d, full_width)?;
        d.finish()?;
        Ok(trees)
    }

    /// A full-width second-moment tree packs on load: the clean rows
    /// become the packed sums, the release unpacks to the symmetrized
    /// full-width release up to rounding, and the restored trees keep
    /// stepping. Rows of another width are `InvalidState`.
    #[test]
    fn full_width_trees_pack_on_load() {
        let (k, t) = (3, 11);
        let mut g = gradient(k, 16, 1.0, 8);
        let xy = g.tree_xy.export_state();
        let xy = TreeState { t, live: vec![0.25; 2 * 3 * k], s: vec![0.75; k], ..xy };
        let full = full_width_tree(k, t, 1.0, 12);
        let [_, xx] = take(&g, &xy, &full, true).unwrap();
        assert_eq!(xx.t, t);
        assert_eq!(xx.rng, full.rng);
        assert_eq!(xx.live.len(), 2 * 3 * 6);
        // Unpacked rows equal the symmetrized full-width rows.
        let rows = xx.live.chunks_exact(6).chain([&xx.s[..]]);
        for (row, want) in rows.zip(full.live.chunks_exact(k * k).chain([&full.s[..]])) {
            let mut got = vec![0.0; k * k];
            kernels::unpack_symmetric(k, row, &mut got);
            for i in 0..k {
                for j in 0..k {
                    let sym = 0.5 * (want[i * k + j] + want[j * k + i]);
                    let err = (got[i * k + j] - sym).abs();
                    assert!(
                        err <= 1e-15 * sym.abs().max(1.0),
                        "({i}, {j}): {} vs {sym}",
                        got[i * k + j]
                    );
                }
            }
        }
        g.restore(t, &[xy.clone(), xx]).unwrap();
        assert_eq!(g.t(), t);
        let z = &stream(1, k, 9)[0];
        let mut exact = (Matrix::zeros(k, k), vec![0.0; k]);
        feed(&mut g, &mut exact, z);
        assert_eq!(g.t(), t + 1);
        // A packed tree read as full width, and a full-width one read as
        // packed, are refused.
        let packed = g.tree_xx.export_state();
        let wrong = take(&g, &g.tree_xy.export_state(), &packed, true);
        assert!(matches!(wrong, Err(CoreError::InvalidState { .. })), "{wrong:?}");
        let [xy, xx] = take(&g, &xy, &full, false).unwrap();
        assert!(g.restore(t, &[xy, xx]).is_err());
        assert_eq!(g.t(), t + 1, "a refused state moved the trees");
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

    /// The released noise of `trees` independent gradient functions fed
    /// `t` zero points at budget `epsilon`, as `Σ z²/v` over each entry
    /// class `(first moment, Q_t diagonal, Q_t off-diagonal)`, where `v`
    /// is the class's calibrated variance at `σ_ref` (`popcount(t)·σ_ref²`,
    /// halved off the diagonal), with the entry count of each class.
    /// Zero covariates make every release pure noise.
    fn noise_chi2(epsilon: f64, sigma_ref: f64, t: usize, trees: u64) -> [(f64, usize); 3] {
        let k = 4;
        let v = t.count_ones() as f64 * sigma_ref * sigma_ref;
        let zero = DataPoint::new(vec![0.0; k], 0.0);
        let mut acc = [(0.0, 0); 3];
        for seed in 0..trees {
            let mut g = gradient(k, 16, epsilon, 1_000 + seed);
            let mut exact = (Matrix::zeros(k, k), vec![0.0; k]);
            for _ in 0..t {
                feed(&mut g, &mut exact, &zero);
            }
            let mut add = |class: usize, z: f64, var: f64| {
                acc[class].0 += z * z / var;
                acc[class].1 += 1;
            };
            for &q in g.tree_xy.release_view() {
                add(0, q, v);
            }
            for i in 0..k {
                add(1, g.q_mat.get(i, i), v);
                for j in i + 1..k {
                    add(2, g.q_mat.get(i, j), v / 2.0);
                }
            }
        }
        acc
    }

    /// `(S − n)/√(2n)`: the normal approximation of a `χ²_n` statistic
    /// `S`, standard normal when the calibration holds.
    fn chi2_z((s, n): (f64, usize)) -> f64 {
        (s - n as f64) / (2.0 * n as f64).sqrt()
    }

    /// Privacy audit, noise calibration: the released first moment and the
    /// diagonal of `Q_t` carry noise of variance `popcount(t)·σ²`, the
    /// off-diagonal of `Q_t` half that, across many independent trees at
    /// fixed seeds. A mechanism run at `2ε` (so `σ/2`) must fail the same
    /// test: the audit has power.
    #[test]
    fn released_noise_matches_the_calibrated_sigma() {
        let sigma = gradient(4, 16, 1.0, 0).tree_xx.sigma();
        for t in [8, 11] {
            for (class, stat) in noise_chi2(1.0, sigma, t, 400).into_iter().enumerate() {
                let z = chi2_z(stat);
                assert!(z.abs() < 4.0, "t = {t}, class {class}: z = {z:.2} over n = {}", stat.1);
            }
            for (class, stat) in noise_chi2(2.0, sigma, t, 400).into_iter().enumerate() {
                let z = chi2_z(stat);
                assert!(z < -10.0, "σ/2 passed at t = {t}, class {class}: z = {z:.2}");
            }
        }
    }
}
