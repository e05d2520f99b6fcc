//! # pir-geometry
//!
//! Convex geometry for private incremental regression: the constraint sets
//! `C` and input domains `X` of the paper, with the four operations the
//! mechanisms consume —
//!
//! 1. **Euclidean projection** `P_C(x)` (every step of the noisy projected
//!    gradient descent, Appendix B),
//! 2. **support function / linear minimization oracle** (Frank–Wolfe and
//!    Monte-Carlo Gaussian-width estimation),
//! 3. **Gaussian width** `w(S) = E_g sup_{a∈S} ⟨a, g⟩` (Definition 3;
//!    drives the dimension choice of Algorithm 3 and the bounds of
//!    Theorem 5.7),
//! 4. **Minkowski gauge** `‖x‖_C` (Definition 6; the lifting objective of
//!    Algorithm 3, Step 9).
//!
//! Implemented sets (§5.2 of the paper): L2 balls (ridge), L1 balls
//! (Lasso), boxes/L∞ balls, the probability simplex, Lp balls `1 < p < 2`,
//! group-L1 balls (block sparsity), polytopes given by vertices, and the
//! (non-convex) k-sparse input domain.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod sets;
mod traits;
pub mod width;

pub use sets::{
    BoxSet, GroupL1Ball, KSparseDomain, L1Ball, L2Ball, LinfBall, LpBall, PolytopeHull, Simplex,
};
pub use traits::{ConvexSet, ProjectionHint, WidthSet};
