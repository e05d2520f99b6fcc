//! Reg2 utility gate: fixed-seed, scaled-down cells of experiment E4
//! (`exp_table1_row3_mech2`, Table 1 row 3, Theorem 5.7) swept over `ε`.
//! Bit-identity laws show every path computes the same releases; this
//! gate shows those releases are still as accurate as they were.
//!
//! For each `ε` of a 4× grid it runs three seeds and reports the
//! utility-vs-`ε` curve (median worst excess risk per `ε`). It asserts:
//!
//! - every cell's worst excess risk is at most the mechanism's
//!   `risk_bound_leading()` (Theorem 5.7's leading term);
//! - the median per `ε` lies inside an envelope committed below,
//!   measured with these cells at the commit before the lift gained
//!   momentum restart;
//! - the gate bites: the median measured at `ε/4` falls outside the
//!   envelope at `ε` — the mutation "run at a quarter of the privacy
//!   budget" is refused by the same envelope.
//!
//! Run it on its own (release, with the printed curve):
//! `cargo test --release -p pir-bench --test utility_gate -- --nocapture`.

use pir_bench::e4::Cell;
use pir_bench::{median, runner};

/// The `ε` grid: each point is 4× the one before, so the cells at `ε/4`
/// that show the gate bites are already on it.
const EPS: [f64; 4] = [64.0, 256.0, 1024.0, 4096.0];

/// Seeds per `ε`; the gate checks their median.
const SEEDS: [u64; 3] = [100, 101, 102];

/// Median worst excess risk per gated `ε` (`EPS[1..]`), measured with
/// these cells before the lift gained momentum restart. Restarting the
/// lift moved them by at most 1.3% (to 10.544, 3.881, 0.766); running
/// at `ε/4` multiplies them by 1.65 to 5.
const ENVELOPE_CENTER: [f64; 3] = [10.505, 3.831, 0.771];

/// The envelope is `[0.8, 1.25] ×` its center: wide enough for bit
/// changes that keep the lift's objective, narrow enough that a quarter
/// of the budget (or a lift cut to one iteration, which multiplies the
/// medians by 1.46 to 8) leaves it. At `ε ≤ 1024` a release that lost
/// its noise would also fall below it.
const ENVELOPE: (f64, f64) = (0.8, 1.25);

fn cell(eps: f64, seed: u64) -> Cell {
    Cell { d: 100, t: 128, eps, noise_std: 0.02, seed }
}

#[test]
fn reg2_excess_risk_stays_in_its_envelope_and_under_the_theorem_bound() {
    let cells: Vec<Cell> =
        EPS.iter().flat_map(|&eps| SEEDS.iter().map(move |&seed| cell(eps, seed))).collect();
    let outcomes = runner::parallel_map(cells.clone(), Cell::run);

    for (c, o) in cells.iter().zip(&outcomes) {
        assert!(
            o.max_excess <= o.risk_bound,
            "ε = {}, seed {}: worst excess {} above risk_bound_leading {}",
            c.eps,
            c.seed,
            o.max_excess,
            o.risk_bound
        );
    }

    let medians: Vec<f64> = outcomes
        .chunks(SEEDS.len())
        .map(|per_eps| median(&per_eps.iter().map(|o| o.max_excess).collect::<Vec<_>>()))
        .collect();
    println!("  ε      median worst excess   envelope            risk_bound_leading");
    for (i, (&eps, &med)) in EPS.iter().zip(&medians).enumerate() {
        let bound = outcomes[i * SEEDS.len()].risk_bound;
        let envelope = i
            .checked_sub(1)
            .map(|j| {
                let c = ENVELOPE_CENTER[j];
                format!("[{:.3}, {:.3}]", ENVELOPE.0 * c, ENVELOPE.1 * c)
            })
            .unwrap_or_else(|| "—".to_string());
        println!("  {eps:<6} {med:<21.4} {envelope:<19} {bound:.1}");
    }

    for (j, &center) in ENVELOPE_CENTER.iter().enumerate() {
        let (eps, med, quarter) = (EPS[j + 1], medians[j + 1], medians[j]);
        let (lo, hi) = (ENVELOPE.0 * center, ENVELOPE.1 * center);
        assert!(
            (lo..=hi).contains(&med),
            "ε = {eps}: median worst excess {med} outside the envelope [{lo}, {hi}]"
        );
        assert!(
            !(lo..=hi).contains(&quarter),
            "ε = {eps}: the envelope also accepts the ε/4 median {quarter}, so it cannot bite"
        );
    }
}
