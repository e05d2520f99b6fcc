//! The cross-polytope `c·B₁^d` — the constraint set of Lasso regression
//! and the flagship low-Gaussian-width set of the paper's §5.2.

use crate::traits::{ConvexSet, WidthSet};
use pir_linalg::vector;
use std::cmp::Reverse;

/// L1 ball of radius `radius` centered at the origin.
///
/// ```
/// use pir_geometry::{ConvexSet, L1Ball, WidthSet};
///
/// let ball = L1Ball::unit(4);
/// // Sort-based exact projection (soft thresholding):
/// let p = ball.project(&[2.0, -1.0, 0.0, 0.5]);
/// assert!((p.iter().map(|v| v.abs()).sum::<f64>() - 1.0).abs() < 1e-9);
/// // Gaussian width is only Θ(√log d) — the Lasso advantage of §5.2:
/// assert!(L1Ball::unit(10_000).width_bound() < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct L1Ball {
    dim: usize,
    radius: f64,
}

impl L1Ball {
    /// New ball; `radius` must be positive and finite.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite radius.
    pub fn new(dim: usize, radius: f64) -> Self {
        assert!(radius.is_finite() && radius > 0.0, "L1Ball radius must be positive");
        L1Ball { dim, radius }
    }

    /// Unit ball `B₁^d`.
    pub fn unit(dim: usize) -> Self {
        Self::new(dim, 1.0)
    }

    /// The radius `c`.
    pub fn radius(&self) -> f64 {
        self.radius
    }
}

/// Soft-threshold projection of `x` onto the L1 ball of radius `r`
/// (Duchi, Shalev-Shwartz, Singer & Chandra, ICML 2008): `O(d log d)`.
pub(crate) fn project_l1(x: &[f64], r: f64) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    project_l1_into(x, r, &mut out);
    out
}

/// [`project_l1`] into `out`, allocation-free: the descending magnitude
/// sort the threshold `τ` needs runs inside `out` itself.
///
/// The magnitudes `|vᵢ|` are non-negative and never `−0`, so their
/// `to_bits()` order is their numeric order and equal bits mean equal
/// values: sorting by the integer key yields the same descending
/// sequence — hence the same running sums and `τ`, bit for bit — as a
/// float comparison sort, without its NaN-checking comparator.
///
/// # Panics
/// Panics with "NaN in project_l1" if `x` holds a NaN (`‖x‖₁` is NaN
/// exactly then).
fn project_l1_into(x: &[f64], r: f64, out: &mut [f64]) {
    let norm1 = vector::norm1(x);
    assert!(!norm1.is_nan(), "NaN in project_l1");
    if norm1 <= r {
        out.copy_from_slice(x);
        return;
    }
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v.abs();
    }
    out.sort_unstable_by_key(|u| Reverse(u.to_bits()));
    let mut cumsum = 0.0;
    let mut tau = 0.0;
    for (j, &u) in out.iter().enumerate() {
        cumsum += u;
        let candidate = (cumsum - r) / (j as f64 + 1.0);
        if u - candidate > 0.0 {
            tau = candidate;
        } else {
            break;
        }
    }
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v.signum() * (v.abs() - tau).max(0.0);
    }
}

impl WidthSet for L1Ball {
    fn dim(&self) -> usize {
        self.dim
    }

    fn support_value(&self, g: &[f64]) -> f64 {
        self.radius * vector::norm_inf(g)
    }

    /// `w(cB₁^d) = c·E max_i |g_i| ≤ c√(2 ln(2d))` — the `Θ(√log d)`
    /// width that makes Lasso-style constraint sets cheap for Mechanism 2.
    fn width_bound(&self) -> f64 {
        if self.dim <= 1 {
            return self.radius;
        }
        self.radius * (2.0 * (2.0 * self.dim as f64).ln()).sqrt()
    }

    fn diameter(&self) -> f64 {
        self.radius
    }
}

impl ConvexSet for L1Ball {
    fn project(&self, x: &[f64]) -> Vec<f64> {
        project_l1(x, self.radius)
    }

    /// In-place soft-threshold projection (the magnitude sort runs inside
    /// `out`), so the projection is allocation-free — the form the
    /// per-step mechanism lift (Algorithm 3, Step 9) iterates on.
    fn project_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), x.len(), "project_into: output length mismatch");
        project_l1_into(x, self.radius, out);
    }

    fn support(&self, g: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        if let Some(i) = vector::argmax_abs(g) {
            if g[i] != 0.0 {
                out[i] = self.radius * g[i].signum();
            }
        }
        out
    }

    fn gauge(&self, x: &[f64]) -> f64 {
        vector::norm1(x) / self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The projection as it was written before the bit-key sort: a float
    /// comparison sort of the magnitudes.
    fn project_l1_float_sort(x: &[f64], r: f64) -> Vec<f64> {
        if vector::norm1(x) <= r {
            return x.to_vec();
        }
        let mut mags: Vec<f64> = x.iter().map(|v| v.abs()).collect();
        mags.sort_unstable_by(|a, b| b.partial_cmp(a).expect("NaN in project_l1"));
        let mut cumsum = 0.0;
        let mut tau = 0.0;
        for (j, &u) in mags.iter().enumerate() {
            cumsum += u;
            let candidate = (cumsum - r) / (j as f64 + 1.0);
            if u - candidate > 0.0 {
                tau = candidate;
            } else {
                break;
            }
        }
        x.iter().map(|&v| v.signum() * (v.abs() - tau).max(0.0)).collect()
    }

    /// One coordinate from a code below 10⁶, in one of four mixes: ties
    /// among four magnitudes including `±0`; a dynamic range of 10⁻³⁰⁰ to
    /// 10³⁰⁰; an interior point (`‖x‖₁ ≤ r`); uniform on `[−1, 1]` with
    /// about a third of the entries `±0`.
    fn coordinate(code: u64, mix: usize, r: f64, d: usize) -> f64 {
        let sign = if code.is_multiple_of(2) { 1.0 } else { -1.0 };
        let u = (code / 2) as f64 / 500_000.0;
        match mix {
            0 => sign * [0.0, 0.25, 0.5, 1.0][(code / 2 % 4) as usize],
            1 => sign * u * 10f64.powi((code / 2 % 601) as i32 - 300),
            2 => sign * u * r / d as f64,
            _ if code.is_multiple_of(3) => sign * 0.0,
            _ => sign * u,
        }
    }

    proptest! {
        /// The bit-key sort gives the float comparison sort's projection
        /// bit for bit, through both entry points, on a dirty buffer.
        #[test]
        fn projection_matches_the_float_comparison_sort(
            codes in prop::collection::vec(0u64..1_000_000, 1..2001),
            mix in 0usize..4,
            r in 0.01f64..4.0,
        ) {
            let d = codes.len();
            let x: Vec<f64> = codes.iter().map(|&c| coordinate(c, mix, r, d)).collect();
            let want = project_l1_float_sort(&x, r);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&project_l1(&x, r)), bits(&want));
            let mut out = vec![f64::NAN; d];
            L1Ball::new(d, r).project_into(&x, &mut out);
            prop_assert_eq!(bits(&out), bits(&want));
        }
    }

    #[test]
    #[should_panic(expected = "NaN in project_l1")]
    fn nan_coordinate_panics() {
        L1Ball::unit(3).project(&[0.5, f64::NAN, 2.0]);
    }

    #[test]
    #[should_panic(expected = "NaN in project_l1")]
    fn nan_coordinate_panics_in_one_dimension() {
        L1Ball::unit(1).project_into(&[f64::NAN], &mut [0.0]);
    }

    #[test]
    fn interior_points_are_fixed() {
        let ball = L1Ball::new(3, 1.0);
        let x = [0.2, -0.3, 0.1];
        assert_eq!(ball.project(&x), x.to_vec());
    }

    #[test]
    fn projection_lands_on_boundary_for_outside_points() {
        let ball = L1Ball::new(3, 1.0);
        let p = ball.project(&[2.0, -2.0, 1.0]);
        assert!((vector::norm1(&p) - 1.0).abs() < 1e-9, "norm1 {}", vector::norm1(&p));
        // Signs are preserved, soft-thresholding shrinks uniformly.
        assert!(p[0] > 0.0 && p[1] < 0.0);
        assert!((p[0] + p[1].abs() + p[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn projection_is_exactly_soft_thresholding() {
        // Known example: project (3, 1) onto B1 => tau = (4-1)/2 = 1.5 gives
        // u1 - tau = 1.5 > 0, u2 - tau = -0.5 < 0 => rho=1, tau = 3-1 = 2.
        let ball = L1Ball::new(2, 1.0);
        let p = ball.project(&[3.0, 1.0]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12);
    }

    #[test]
    fn support_picks_largest_coordinate() {
        let ball = L1Ball::new(3, 2.0);
        let g = [1.0, -4.0, 2.0];
        let s = ball.support(&g);
        assert_eq!(s, vec![0.0, -2.0, 0.0]);
        assert!((vector::dot(&s, &g) - ball.support_value(&g)).abs() < 1e-12);
    }

    #[test]
    fn gauge_is_scaled_l1_norm() {
        let ball = L1Ball::new(2, 2.0);
        assert!((ball.gauge(&[1.0, -1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn width_is_logarithmic_in_dimension() {
        let w10 = L1Ball::unit(10).width_bound();
        let w10000 = L1Ball::unit(10_000).width_bound();
        assert!(w10000 / w10 < 2.0, "polylog growth expected");
        assert!(w10000 < 5.0);
    }

    #[test]
    fn zero_gradient_support_is_origin() {
        let ball = L1Ball::new(2, 1.0);
        assert_eq!(ball.support(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn project_into_is_identical_to_project() {
        let ball = L1Ball::new(5, 1.5);
        let cases: [&[f64]; 4] = [
            &[0.2, -0.3, 0.1, 0.0, 0.05],  // interior: copied through
            &[2.0, -2.0, 1.0, 0.5, -0.25], // exterior: thresholded
            &[3.0, 1.0, 0.0, 0.0, 0.0],    // sparse exterior
            &[-0.4, 0.4, -0.4, 0.4, -0.4], // ties in the sort
        ];
        let mut out = [7.0; 5]; // dirty buffer must be fully overwritten
        for x in cases {
            ball.project_into(x, &mut out);
            assert_eq!(out.to_vec(), ball.project(x), "x = {x:?}");
        }
    }
}
