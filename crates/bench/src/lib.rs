//! # pir-bench
//!
//! Experiment harness regenerating every evaluation artifact of the paper
//! (see DESIGN.md §3 for the experiment index E1–E10, A1–A2). Each
//! `exp_*` binary in `src/bin/` prints the paper-style rows; Criterion
//! benches under `benches/` cover the computational-cost claims.
//!
//! Run an experiment:
//! ```text
//! cargo run --release -p pir-bench --bin exp_table1_row3_mech1
//! ```
//! Set `PIR_QUICK=1` to shrink every sweep ~4× for smoke runs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod e4;
pub mod fitting;
pub mod report;
pub mod runner;

/// Whether quick mode is enabled via the `PIR_QUICK` environment variable.
pub fn quick_mode() -> bool {
    std::env::var("PIR_QUICK").map(|v| v == "1" || v.eq_ignore_ascii_case("true")).unwrap_or(false)
}

/// Scale a size parameter down in quick mode (never below `min`).
pub fn scaled(full: usize, min: usize) -> usize {
    if quick_mode() {
        (full / 4).max(min)
    } else {
        full
    }
}

/// Median of a non-empty slice (copies and sorts).
///
/// # Panics
/// Panics on empty input or NaN entries.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn scaled_respects_min() {
        // Not asserting on quick_mode() (env-dependent); the arithmetic
        // contract holds either way.
        assert!(scaled(1024, 64) >= 64);
        assert!(scaled(1024, 64) <= 1024);
    }
}
