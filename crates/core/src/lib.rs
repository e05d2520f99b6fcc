//! # pir-core
//!
//! The paper's private incremental mechanisms, end to end:
//!
//! - [`PrivIncErm`] — Mechanism 1 (§3): the generic transformation of any
//!   private *batch* ERM solver into a private *incremental* one, invoking
//!   the batch solver every `τ` steps with an advanced-composition budget.
//! - [`PrivIncReg1`] — Algorithm 2 (§4): private incremental linear
//!   regression from a continually-updated *private gradient function*
//!   (Definition 5) built on two Tree Mechanism instances, optimized per
//!   step with `NOISYPROJGRAD`. Excess risk `≈ √d·‖C‖²/ε` (Theorem 4.2).
//! - [`PrivIncReg2`] — Algorithm 3 (§5): the beyond-worst-case mechanism —
//!   Gaussian sketching (Gordon-sized), the same private gradient function
//!   run in the projected space, and Minkowski-gauge lifting back to `C`.
//!   Excess risk `≈ T^{1/3}W^{2/3}/ε + √OPT terms` (Theorem 5.7).
//! - [`RobustPrivIncReg2`] — the §5.2 extension for streams where only a
//!   subset of covariates comes from the low-width domain `G`.
//! - [`baselines`] — the naive per-step recomputation (√T composition
//!   penalty), the data-independent trivial mechanism, and the exact
//!   non-private incremental minimizer used as the Definition-1 oracle.
//! - [`evaluate`] — the `(α, β)`-estimator evaluation harness
//!   (Definition 1): worst-case-over-`t` excess empirical risk.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baselines;
pub mod codec;
pub mod descent;
mod error;
pub mod evaluate;
pub mod generic;
mod gradient_fn;
pub mod lift;
pub mod mech1;
pub mod mech2;
pub mod robust;
mod stream;

pub use baselines::{ExactIncremental, ExactIncrementalRestricted, TrivialMechanism};
pub use descent::DescentStrategy;
pub use error::CoreError;
pub use generic::{PrivIncErm, TauRule};
pub use mech1::{PrivIncReg1, PrivIncReg1Config};
pub use mech2::{PrivIncReg2, PrivIncReg2Config};
pub use robust::RobustPrivIncReg2;
pub use stream::IncrementalMechanism;

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
