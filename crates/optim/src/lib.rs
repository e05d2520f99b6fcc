//! # pir-optim
//!
//! First-order convex optimizers used by the private incremental
//! mechanisms:
//!
//! - [`projected_gradient`] — classical projected (sub)gradient descent
//!   with optional Polyak-style averaging (the non-private reference
//!   solver, and the inner loop of the private batch ERM solvers).
//! - [`noisy_projected_gradient`] — the paper's Appendix B procedure
//!   `NOISYPROJGRAD(C, g, r)`: projected descent driven by an *inexact*
//!   gradient oracle whose error is uniformly bounded by `α`. With the
//!   constant step `η = ‖C‖/(√r(α + L))` and iterate averaging it attains
//!   `f(θ̄) − f(θ*) ≤ (α + L)‖C‖/√r + α‖C‖` (Proposition B.1), so
//!   `r = (1 + L/α)²` gives excess `≤ 2α‖C‖` (Corollary B.2).
//! - [`fista`] — accelerated projected gradient for smooth objectives
//!   (used by the lifting step of Algorithm 3).
//! - [`frank_wolfe`] — projection-free conditional gradient (used by the
//!   private Frank–Wolfe batch solver and polytope machinery).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod noisy;
pub mod objective;
pub mod pgd;

pub use noisy::{iterations_for_accuracy, noisy_projected_gradient, NoisyPgdConfig};
pub use objective::{Objective, Quadratic, QuadraticView};
pub use pgd::{
    fista, fista_into, fista_into_adaptive, fista_into_restarting, frank_wolfe, projected_gradient,
    FistaScratch, PgdConfig, StepSize,
};
