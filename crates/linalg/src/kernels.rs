//! Blocked dense kernels for the mechanism hot paths.
//!
//! Every kernel here is a *flat-slice* primitive over row-major data, with
//! two implementations:
//!
//! - the production form (`matvec`, `matvec_t`, `add_scaled_outer`,
//!   and the packed symmetric pair `set_packed_outer`/`unpack_symmetric`)
//!   that [`Matrix`](crate::Matrix) methods and the mechanisms drive —
//!   row-blocked where blocking measures faster (`matvec_t`, the outer
//!   product below `OUTER_BLOCK_MAX_COLS`), the plain row sweep where it
//!   does not (`matvec`, the packed pair);
//! - a scalar reference (`*_ref`) defining the semantics, which the
//!   proptest suite in `crates/linalg/tests/kernel_identity.rs` pins
//!   every other form against **bit-for-bit**.
//!
//! Bit-identity is a design constraint, not an accident: released
//! estimator sequences are reproducible across PRs only if the summation
//! order never changes. Each blocked kernel therefore keeps the exact
//! per-element operation order of its reference — row blocking reuses
//! *loads*, never reassociates *adds*:
//!
//! - `matvec` accumulates each output row in the same four lanes (and
//!   the same `(l0+l2)+(l1+l3)` reduction) as [`vector::dot`];
//! - `matvec_support` keeps those lanes but visits only the nonzero
//!   entries of `x`: each skipped product is `±0`, which cannot change a
//!   lane that starts at `+0` (bit-identical for finite `A`);
//! - `matvec_t` folds the rows of a block into the output in row order,
//!   matching the sequential per-row [`vector::axpy`] sweeps;
//! - the outer-product and packing kernels are elementwise (at most one
//!   multiply per entry), so blocking cannot reorder anything.
//!
//! To add a kernel: write the `*_ref` form first, add the blocked form
//! that preserves its per-element operation order, extend
//! `kernel_identity.rs` with a proptest comparing the two with `to_bits`
//! equality (or a documented tolerance if reassociation is intentional),
//! and give it a row in `crates/bench/benches/kernels.rs`. See
//! `docs/ARCHITECTURE.md`, "The kernel layer".

use crate::vector;

/// Row width at which the outer-product kernel switches from the 4-row
/// block to the row-sequential sweep (at or above the threshold).
/// Interleaving four write streams wins while a block of rows stays
/// register/store-buffer friendly (measured ~20% at d ≤ 64) but
/// collapses once rows are wide enough that the streams thrash the
/// write-combining buffers (measured 2.6× *slower* at d = 128 on the
/// baseline x86-64 target). Both forms are elementwise, so the dispatch
/// cannot change results.
const OUTER_BLOCK_MAX_COLS: usize = 128;

/// `out ← A·x` for a row-major `out.len() × cols` matrix `a`: one
/// [`vector::dot`] sweep per row.
///
/// This *is* the reference form — deliberately. Row-blocking a
/// row-major `A·x` must broadcast each element
/// of `x` across the rows of the block, and the baseline x86-64 target
/// (SSE2; `movddup` is SSE3) has no cheap lane splat: the autovectorizer
/// falls back to scalar loads plus shuffles and the tiled form measures
/// ~1.7× *slower* than this sweep at every benchmarked shape. Contrast
/// [`matvec_t`], whose per-block broadcasts are loop-invariant and whose
/// blocked form therefore wins. The tiled form's verdict is recorded in
/// `BENCH_kernels.json`; `kernels_matvec` in
/// `crates/bench/benches/kernels.rs` keeps timing this sweep against
/// [`matvec_ref`] so the choice can be retuned if the deployment target
/// ever grows wider vectors.
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn matvec(cols: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), out.len() * cols, "matvec: matrix/out mismatch");
    debug_assert_eq!(x.len(), cols, "matvec: x mismatch");
    for (r, o) in out.iter_mut().enumerate() {
        *o = vector::dot(&a[r * cols..(r + 1) * cols], x);
    }
}

/// Scalar reference for [`matvec`]: one [`vector::dot`] per row.
pub fn matvec_ref(cols: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), out.len() * cols, "matvec_ref: matrix/out mismatch");
    debug_assert_eq!(x.len(), cols, "matvec_ref: x mismatch");
    for (r, o) in out.iter_mut().enumerate() {
        *o = vector::dot(&a[r * cols..(r + 1) * cols], x);
    }
}

/// [`matvec`] that skips the exact-zero entries of `x`: `out ← A·x`
/// for a row-major `out.len() × cols` matrix `a`, in time proportional
/// to the number of nonzeros of `x` rather than to `cols`.
///
/// The nonzero column indices of the 4-wide body (`j < cols − cols % 4`)
/// are written once per call into `support` as four lane lists
/// (`j mod 4`), each ascending. Each row then sums lane `k` over its list
/// in index order, four rows at a time, and finishes exactly as
/// [`vector::dot`] does: `(l0+l2)+(l1+l3)`, then the `cols % 4` tail
/// (always summed, zero or not).
///
/// **Bit-identical to [`matvec_ref`] for finite `a`** and any `x`,
/// including `±0` and `±inf` entries. A skipped entry contributes
/// `a·(±0) = ±0` to the dense sum. A lane starts at `+0` and can never
/// become `−0` (`s + t` is `−0` only when both are `−0`), and adding
/// `±0` to anything that is not `−0` leaves it unchanged — so skipping
/// those additions keeps every lane's bits. A non-finite `a` entry times
/// a skipped zero would be NaN, so the identity needs `a` finite. Where
/// the result is NaN (a NaN in `x`, or `inf − inf`), both forms give NaN
/// but its sign and payload are not fixed: Rust leaves them unspecified.
///
/// # Panics
/// Panics if `support` is shorter than `cols` or `cols` does not fit in
/// a `u32`; debug builds also check the shapes.
pub fn matvec_support(cols: usize, a: &[f64], x: &[f64], support: &mut [u32], out: &mut [f64]) {
    debug_assert_eq!(a.len(), out.len() * cols, "matvec_support: matrix/out mismatch");
    debug_assert_eq!(x.len(), cols, "matvec_support: x mismatch");
    assert!(support.len() >= cols, "matvec_support: support scratch shorter than cols");
    assert!(u32::try_from(cols).is_ok(), "matvec_support: cols exceeds u32 indices");
    let body = cols - cols % 4;
    let (l0, rest) = support.split_at_mut(body / 4);
    let (l1, rest) = rest.split_at_mut(body / 4);
    let (l2, rest) = rest.split_at_mut(body / 4);
    let l3 = &mut rest[..body / 4];
    let mut lens = [0usize; 4];
    for (c, chunk) in x[..body].chunks_exact(4).enumerate() {
        let j = (4 * c) as u32;
        // Branch-free append: write the index, keep it only if nonzero.
        l0[lens[0]] = j;
        lens[0] += usize::from(chunk[0] != 0.0);
        l1[lens[1]] = j + 1;
        lens[1] += usize::from(chunk[1] != 0.0);
        l2[lens[2]] = j + 2;
        lens[2] += usize::from(chunk[2] != 0.0);
        l3[lens[3]] = j + 3;
        lens[3] += usize::from(chunk[3] != 0.0);
    }
    let lanes = [&l0[..lens[0]], &l1[..lens[1]], &l2[..lens[2]], &l3[..lens[3]]];
    let row = |r: usize| &a[r * cols..(r + 1) * cols];
    let mut blocks = out.chunks_exact_mut(4);
    let mut r = 0usize;
    for ob in blocks.by_ref() {
        support_rows([row(r), row(r + 1), row(r + 2), row(r + 3)], x, &lanes, body, ob);
        r += 4;
    }
    for o in blocks.into_remainder() {
        support_rows([row(r)], x, &lanes, body, std::slice::from_mut(o));
        r += 1;
    }
}

/// The rows of one [`matvec_support`] block: each row keeps its own four
/// lanes, summed over the lane lists in index order, then reduced and
/// tail-summed exactly as [`vector::dot`].
fn support_rows<const R: usize>(
    rows: [&[f64]; R],
    x: &[f64],
    lanes: &[&[u32]; 4],
    body: usize,
    out: &mut [f64],
) {
    let mut sums = [[0.0f64; 4]; R];
    for (k, list) in lanes.iter().enumerate() {
        let mut acc = [0.0f64; R];
        for &j in *list {
            let j = j as usize;
            let xj = x[j];
            for (s, row) in acc.iter_mut().zip(&rows) {
                *s += row[j] * xj;
            }
        }
        for (lane, s) in sums.iter_mut().zip(acc) {
            lane[k] = s;
        }
    }
    for ((o, row), l) in out.iter_mut().zip(&rows).zip(&sums) {
        let mut s = (l[0] + l[2]) + (l[1] + l[3]);
        for (&e, &xv) in row[body..].iter().zip(&x[body..]) {
            s += e * xv;
        }
        *o = s;
    }
}

/// `out ← Aᵀ·y` for a row-major `y.len() × out.len()` matrix `a`.
///
/// Rows are folded into `out` four at a time — one read-modify-write pass
/// over `out` per row block instead of per row — with the per-element
/// fold in row order, bit-identical to [`matvec_t_ref`].
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn matvec_t(cols: usize, a: &[f64], y: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), y.len() * cols, "matvec_t: matrix/y mismatch");
    debug_assert_eq!(out.len(), cols, "matvec_t: out mismatch");
    out.iter_mut().for_each(|o| *o = 0.0);
    let mut blocks = y.chunks_exact(4);
    let mut r = 0usize;
    for yb in blocks.by_ref() {
        let rb = r;
        let row = move |k: usize| &a[(rb + k) * cols..(rb + k + 1) * cols];
        let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
        let (y0, y1, y2, y3) = (yb[0], yb[1], yb[2], yb[3]);
        for ((((o, &e0), &e1), &e2), &e3) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            let mut acc = *o;
            acc += y0 * e0;
            acc += y1 * e1;
            acc += y2 * e2;
            acc += y3 * e3;
            *o = acc;
        }
        r += 4;
    }
    for &yr in blocks.remainder() {
        vector::axpy(yr, &a[r * cols..(r + 1) * cols], out);
        r += 1;
    }
}

/// Scalar reference for [`matvec_t`]: zero then one [`vector::axpy`]
/// sweep per row.
pub fn matvec_t_ref(cols: usize, a: &[f64], y: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), y.len() * cols, "matvec_t_ref: matrix/y mismatch");
    debug_assert_eq!(out.len(), cols, "matvec_t_ref: out mismatch");
    out.iter_mut().for_each(|o| *o = 0.0);
    for (r, &yr) in y.iter().enumerate() {
        vector::axpy(yr, &a[r * cols..(r + 1) * cols], out);
    }
}

/// `k(k+1)/2`, the length of the packed upper triangle of a symmetric
/// `k × k` matrix.
pub const fn packed_len(k: usize) -> usize {
    k * (k + 1) / 2
}

/// `out ← pack(x·xᵀ)`: the upper triangle of the outer product, row by
/// row (`(0,0), (0,1), …, (0,k−1), (1,1), …`), with `x_i²` on the
/// diagonal and `(√2·x_i)·x_j` off it. The `√2` makes the packing an
/// isometry from symmetric matrices under the Frobenius norm, so
/// `‖out‖₂ = ‖x·xᵀ‖_F = ‖x‖²`.
///
/// One square and one [`vector::scaled_copy_into`] of the row's tail
/// per row; one multiply per entry, so bit-identical to
/// [`set_packed_outer_ref`].
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn set_packed_outer(x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), packed_len(x.len()), "set_packed_outer: shape mismatch");
    let mut rest = out;
    for (i, &xi) in x.iter().enumerate() {
        let tail = &x[i + 1..];
        let (row, next) = rest.split_at_mut(1 + tail.len());
        row[0] = xi * xi;
        vector::scaled_copy_into(std::f64::consts::SQRT_2 * xi, tail, &mut row[1..]);
        rest = next;
    }
}

/// Scalar reference for [`set_packed_outer`]: one expression per packed
/// entry.
pub fn set_packed_outer_ref(x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), packed_len(x.len()), "set_packed_outer_ref: shape mismatch");
    let k = x.len();
    let mut at = 0;
    for i in 0..k {
        for j in i..k {
            out[at] = if i == j { x[i] * x[i] } else { (std::f64::consts::SQRT_2 * x[i]) * x[j] };
            at += 1;
        }
    }
}

/// `out ← unpack(p)`: the symmetric row-major `k × k` matrix whose upper
/// triangle `p` holds in the [`set_packed_outer`] layout — `p_ii` on the
/// diagonal, `p_ij/√2` at `(i, j)` and `(j, i)`.
///
/// One [`vector::scaled_copy_into`] per row of the upper triangle, then a
/// mirror copy into the lower one; bit-identical to
/// [`unpack_symmetric_ref`].
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn unpack_symmetric(k: usize, packed: &[f64], out: &mut [f64]) {
    debug_assert_eq!(packed.len(), packed_len(k), "unpack_symmetric: packed length");
    debug_assert_eq!(out.len(), k * k, "unpack_symmetric: shape mismatch");
    let mut rest = packed;
    for i in 0..k {
        let (row, next) = rest.split_at(k - i);
        let upper = &mut out[i * k + i..(i + 1) * k];
        upper[0] = row[0];
        vector::scaled_copy_into(std::f64::consts::FRAC_1_SQRT_2, &row[1..], &mut upper[1..]);
        rest = next;
    }
    for i in 1..k {
        for j in 0..i {
            out[i * k + j] = out[j * k + i];
        }
    }
}

/// Scalar reference for [`unpack_symmetric`]: each entry read from its
/// packed index.
pub fn unpack_symmetric_ref(k: usize, packed: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), k * k, "unpack_symmetric_ref: shape mismatch");
    // Row `i` of the packed triangle starts after the `i` longer rows.
    let start = |i: usize| i * k - i * (i.saturating_sub(1)) / 2;
    for i in 0..k {
        for j in 0..k {
            let (lo, hi) = (i.min(j), i.max(j));
            let p = packed[start(lo) + hi - lo];
            out[i * k + j] = if i == j { p } else { std::f64::consts::FRAC_1_SQRT_2 * p };
        }
    }
}

/// Rank-1 update `out ← out + alpha·u·vᵀ` (row-major
/// `u.len() × v.len()`), four rows per block so each chunk of `v` is
/// reused from registers across the block, falling back to the
/// row-sequential sweep for rows at or beyond `OUTER_BLOCK_MAX_COLS`. Per entry the update is the
/// single fused expression `out += (alpha·u_r)·v_c`, bit-identical to
/// [`add_scaled_outer_ref`].
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn add_scaled_outer(alpha: f64, u: &[f64], v: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), u.len() * v.len(), "add_scaled_outer: shape mismatch");
    let cols = v.len();
    if cols >= OUTER_BLOCK_MAX_COLS {
        add_scaled_outer_ref(alpha, u, v, out);
        return;
    }
    let mut blocks = u.chunks_exact(4);
    let mut r = 0usize;
    for ub in blocks.by_ref() {
        let (a0, a1, a2, a3) = (alpha * ub[0], alpha * ub[1], alpha * ub[2], alpha * ub[3]);
        let (row0, rest) = out[r * cols..].split_at_mut(cols);
        let (row1, rest) = rest.split_at_mut(cols);
        let (row2, row3) = rest.split_at_mut(cols);
        let row3 = &mut row3[..cols];
        for ((((o0, o1), o2), o3), &vl) in
            row0.iter_mut().zip(row1.iter_mut()).zip(row2.iter_mut()).zip(row3.iter_mut()).zip(v)
        {
            *o0 += a0 * vl;
            *o1 += a1 * vl;
            *o2 += a2 * vl;
            *o3 += a3 * vl;
        }
        r += 4;
    }
    for &ur in blocks.remainder() {
        vector::axpy(alpha * ur, v, &mut out[r * cols..(r + 1) * cols]);
        r += 1;
    }
}

/// Scalar reference for [`add_scaled_outer`]: one [`vector::axpy`] with
/// `alpha·u_r` per row.
pub fn add_scaled_outer_ref(alpha: f64, u: &[f64], v: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), u.len() * v.len(), "add_scaled_outer_ref: shape mismatch");
    let cols = v.len();
    for (r, &ur) in u.iter().enumerate() {
        vector::axpy(alpha * ur, v, &mut out[r * cols..(r + 1) * cols]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, phase: f64) -> Vec<f64> {
        (0..n).map(|i| (0.37 * i as f64 + phase).sin() * 1.5).collect()
    }

    #[test]
    fn blocked_kernels_match_references_at_awkward_shapes() {
        // Every row/column tail length 0–3 in one sweep; the proptest
        // suite in tests/kernel_identity.rs covers random contents.
        for rows in [1usize, 2, 3, 4, 5, 6, 7, 8, 11] {
            for cols in [1usize, 2, 3, 4, 6, 7, 8, 9, 13] {
                let a = data(rows * cols, 0.1);
                let x = data(cols, 0.7);
                let y = data(rows, 1.3);
                let mut got = vec![0.0; rows];
                let mut want = vec![2.0; rows];
                matvec(cols, &a, &x, &mut got);
                matvec_ref(cols, &a, &x, &mut want);
                assert_eq!(got, want, "matvec {rows}x{cols}");

                // Zero every third entry (±0 alternately) so each lane
                // list and the tail see skipped columns.
                let mut xs = x.clone();
                for (j, v) in xs.iter_mut().enumerate().filter(|(j, _)| j % 3 == 1) {
                    *v = if j % 2 == 0 { 0.0 } else { -0.0 };
                }
                let mut support = vec![u32::MAX; cols];
                let mut got = vec![f64::NAN; rows];
                matvec_support(cols, &a, &xs, &mut support, &mut got);
                matvec_ref(cols, &a, &xs, &mut want);
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "matvec_support {rows}x{cols}");

                let mut got = vec![2.0; cols];
                let mut want = vec![3.0; cols];
                matvec_t(cols, &a, &y, &mut got);
                matvec_t_ref(cols, &a, &y, &mut want);
                assert_eq!(got, want, "matvec_t {rows}x{cols}");

                let mut got = a.clone();
                let mut want = a.clone();
                add_scaled_outer(-0.75, &y, &x, &mut got);
                add_scaled_outer_ref(-0.75, &y, &x, &mut want);
                assert_eq!(got, want, "add_scaled_outer {rows}x{cols}");
            }
        }
    }

    #[test]
    fn packed_outer_is_a_frobenius_isometry_and_unpacks_to_the_outer_product() {
        for k in 0..9 {
            let x = data(k, 0.4);
            let mut packed = vec![f64::NAN; packed_len(k)];
            let mut want = vec![-1.0; packed_len(k)];
            set_packed_outer(&x, &mut packed);
            set_packed_outer_ref(&x, &mut want);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&packed), bits(&want), "set_packed_outer k = {k}");
            let sq = vector::dot(&x, &x);
            assert!((vector::norm2(&packed) - sq).abs() <= 1e-15 * sq.max(1.0), "k = {k}");

            let mut full = vec![f64::NAN; k * k];
            let mut full_ref = vec![2.0; k * k];
            unpack_symmetric(k, &packed, &mut full);
            unpack_symmetric_ref(k, &packed, &mut full_ref);
            assert_eq!(bits(&full), bits(&full_ref), "unpack_symmetric k = {k}");
            for i in 0..k {
                for j in 0..k {
                    let e = x[i] * x[j];
                    assert!((full[i * k + j] - e).abs() <= 1e-15, "({i}, {j}) at k = {k}");
                    assert_eq!(full[i * k + j].to_bits(), full[j * k + i].to_bits());
                }
            }
        }
    }
}
