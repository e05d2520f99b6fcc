//! Bit-identity pins for the blocked kernels in `pir_linalg::kernels`.
//!
//! Each blocked kernel must produce **bit-for-bit** the same output as
//! its scalar reference (`*_ref`) for every shape — including the 1–3
//! element row/column tails where the blocked path falls back to the
//! scalar one. This is what lets the `Matrix` methods switch to the
//! blocked forms without perturbing any released estimator sequence:
//! the blocking reuses loads but never reassociates floating-point adds.
//! Comparisons use `to_bits` equality, not a tolerance.

use pir_linalg::{kernels, vector};
use proptest::prelude::*;

fn buf(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, len)
}

/// Maximum rows/cols swept; data buffers are drawn at the max size and
/// sliced down so the shapes can vary inside one proptest case.
const MAX_R: usize = 19;
const MAX_C: usize = 13;

/// `x` thinned to a density class (0: all zero, 1: ~15%, 2: ~50%, 3: all
/// kept): each entry draws a code below 1600 whose low part decides
/// whether it is kept and whose high part picks `+0.0`/`−0.0` for a
/// dropped entry, or `+inf`/`−inf`/NaN for about one kept entry in five.
fn thinned(x: &[f64], codes: &[u64], density: usize) -> Vec<f64> {
    let keep = [0, 15, 50, 100][density];
    x.iter()
        .zip(codes)
        .map(|(&v, &c)| match (c % 100 < keep, c / 100) {
            (false, kind) if kind % 2 == 0 => 0.0,
            (false, _) => -0.0,
            (true, 0) => f64::INFINITY,
            (true, 1) => f64::NEG_INFINITY,
            (true, 2) => f64::NAN,
            (true, _) => v,
        })
        .collect()
}

proptest! {
    /// The production sweep is the reference's own loop today; the pin
    /// keeps it so if `matvec` is ever retuned for a wider target.
    #[test]
    fn matvec_forms_are_bit_identical_to_reference(
        a in buf(MAX_R * MAX_C),
        x in buf(MAX_C),
        rows in 1usize..MAX_R,
        cols in 1usize..MAX_C,
    ) {
        let a = &a[..rows * cols];
        let x = &x[..cols];
        let mut got = vec![f64::NAN; rows];
        let mut want = vec![0.0; rows];
        kernels::matvec(cols, a, x, &mut got);
        kernels::matvec_ref(cols, a, x, &mut want);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// Skipping the zero entries of `x` keeps every bit, at every
    /// row/column tail, density and mix of signed zeros and non-finite
    /// entries, on a dirty and possibly oversized index buffer. Rust
    /// leaves the sign and payload of a NaN result unspecified (the
    /// optimizer may swap the operands of an add), so a NaN output only
    /// has to meet a NaN.
    #[test]
    fn matvec_support_is_bit_identical_to_reference(
        a in buf(MAX_R * MAX_C),
        x in buf(MAX_C),
        codes in prop::collection::vec(0u64..1600, MAX_C),
        density in 0usize..4,
        rows in 1usize..MAX_R,
        cols in 1usize..MAX_C,
        spare in 0usize..3,
    ) {
        let a = &a[..rows * cols];
        let x = thinned(&x[..cols], &codes, density);
        let mut support = vec![u32::MAX; cols + spare];
        let mut got = vec![f64::NAN; rows];
        let mut want = vec![0.0; rows];
        kernels::matvec_support(cols, a, &x, &mut support, &mut got);
        kernels::matvec_ref(cols, a, &x, &mut want);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()), "{g} vs {w}");
        }
    }

    #[test]
    fn matvec_t_blocked_is_bit_identical_to_reference(
        a in buf(MAX_R * MAX_C),
        y in buf(MAX_R),
        rows in 1usize..MAX_R,
        cols in 1usize..MAX_C,
    ) {
        let a = &a[..rows * cols];
        let y = &y[..rows];
        let mut got = vec![f64::NAN; cols];
        let mut want = vec![0.0; cols];
        kernels::matvec_t(cols, a, y, &mut got);
        kernels::matvec_t_ref(cols, a, y, &mut want);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn set_packed_outer_is_bit_identical_to_reference(
        x in buf(MAX_C),
        k in 0usize..MAX_C,
    ) {
        let x = &x[..k];
        let mut got = vec![f64::NAN; kernels::packed_len(k)];
        let mut want = vec![7.0; kernels::packed_len(k)];
        kernels::set_packed_outer(x, &mut got);
        kernels::set_packed_outer_ref(x, &mut want);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn unpack_symmetric_is_bit_identical_to_reference(
        packed in buf(MAX_C * (MAX_C + 1) / 2),
        k in 0usize..MAX_C,
    ) {
        let packed = &packed[..kernels::packed_len(k)];
        let mut got = vec![f64::NAN; k * k];
        let mut want = vec![7.0; k * k];
        kernels::unpack_symmetric(k, packed, &mut got);
        kernels::unpack_symmetric_ref(k, packed, &mut want);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn add_scaled_outer_blocked_is_bit_identical_to_reference(
        init in buf(MAX_R * MAX_C),
        u in buf(MAX_R),
        v in buf(MAX_C),
        alpha in -10.0f64..10.0,
        rows in 1usize..MAX_R,
        cols in 1usize..MAX_C,
    ) {
        let u = &u[..rows];
        let v = &v[..cols];
        let mut got = init[..rows * cols].to_vec();
        let mut want = got.clone();
        kernels::add_scaled_outer(alpha, u, v, &mut got);
        kernels::add_scaled_outer_ref(alpha, u, v, &mut want);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn axpy_n_fused_is_bit_identical_to_sequential_axpys(
        data in buf(6 * MAX_C),
        y0 in buf(MAX_C),
        alpha in -4.0f64..4.0,
        n_src in 0usize..6,
        len in 1usize..MAX_C,
    ) {
        let sources: Vec<&[f64]> =
            (0..n_src).map(|k| &data[k * MAX_C..k * MAX_C + len]).collect();
        let mut got = y0[..len].to_vec();
        let mut want = got.clone();
        vector::axpy_n(alpha, &sources, &mut got);
        vector::axpy_n_ref(alpha, &sources, &mut want);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
