//! Reg2 utility gate: fixed-seed, scaled-down cells of experiment E4
//! (`exp_table1_row3_mech2`, Table 1 row 3, Theorem 5.7) swept over `ε`.
//! Bit-identity laws show every path computes the same releases; this
//! gate shows those releases are still as accurate as they were.
//!
//! For each `ε` of a 4× grid it runs three seeds and reports the
//! utility-vs-`ε` curve (median worst excess risk per `ε`), on two cell
//! shapes: d = 100 at the sketch dimension Gordon's rule picks, and the
//! served d = 1000, m = 100. It asserts:
//!
//! - every cell's worst excess risk is at most the mechanism's
//!   `risk_bound_leading()` (Theorem 5.7's leading term);
//! - the median per `ε` lies inside an envelope committed below,
//!   measured with these cells before the lift changed: at d = 100
//!   before it gained momentum restart, at d = 1000 before it stopped on
//!   its duality gap;
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
    Cell { d: 100, t: 128, eps, noise_std: 0.02, seed, m: None }
}

/// The served scale: the loopbench sketch session's d = 1000 and
/// m = 100, on a stream of 32 points. Its `ε` grid is 4× apart like
/// [`EPS`]; the excess still falls 3× per step at `ε = 16384`.
const EPS_D1000: [f64; 4] = [256.0, 1024.0, 4096.0, 16384.0];

/// Median worst excess risk per gated `ε` (`EPS_D1000[1..]`) of the
/// d = 1000 cells, measured with the restarting fixed-step lift (before
/// the lift stopped on its duality gap). Running at `ε/4` multiplies
/// them by 2.1 to 3.1.
const ENVELOPE_CENTER_D1000: [f64; 3] = [1.782, 0.547, 0.175];

fn cell_d1000(eps: f64, seed: u64) -> Cell {
    Cell { d: 1000, t: 32, eps, noise_std: 0.02, seed, m: Some(100) }
}

#[test]
fn reg2_excess_risk_stays_in_its_envelope_and_under_the_theorem_bound() {
    check_gate(&EPS, &ENVELOPE_CENTER, cell);
}

/// The same gate at d = 1000, m = 100. Each cell takes about 2 s in a
/// release build, nearly all of it in the non-private oracle's
/// `d × d` solves, and minutes in a debug one, so debug builds skip it;
/// the CI step "Reg2 utility gate" runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes in a debug build; runs in the release gate")]
fn reg2_d1000_excess_risk_stays_in_its_envelope_and_under_the_theorem_bound() {
    check_gate(&EPS_D1000, &ENVELOPE_CENTER_D1000, cell_d1000);
}

/// Run `cell(ε, seed)` for every `ε` of `eps` and every seed, print the
/// curve, and check it: every worst excess under `risk_bound_leading()`,
/// every gated median (`eps[1..]`) inside `ENVELOPE × center`, and every
/// `ε/4` median outside it.
fn check_gate(eps: &[f64], centers: &[f64], cell: fn(f64, u64) -> Cell) {
    assert_eq!(centers.len() + 1, eps.len());
    let cells: Vec<Cell> =
        eps.iter().flat_map(|&eps| SEEDS.iter().map(move |&seed| cell(eps, seed))).collect();
    let outcomes = runner::parallel_map(cells.clone(), Cell::run);

    for (c, o) in cells.iter().zip(&outcomes) {
        assert!(
            o.max_excess <= o.risk_bound,
            "d = {}, ε = {}, seed {}: worst excess {} above risk_bound_leading {}",
            c.d,
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
    println!("  d = {}", cells[0].d);
    println!("  ε      median worst excess   envelope            risk_bound_leading");
    for (i, (&eps, &med)) in eps.iter().zip(&medians).enumerate() {
        let bound = outcomes[i * SEEDS.len()].risk_bound;
        let envelope = i
            .checked_sub(1)
            .map(|j| {
                let c = centers[j];
                format!("[{:.3}, {:.3}]", ENVELOPE.0 * c, ENVELOPE.1 * c)
            })
            .unwrap_or_else(|| "—".to_string());
        println!("  {eps:<6} {med:<21.4} {envelope:<19} {bound:.1}");
    }

    for (j, &center) in centers.iter().enumerate() {
        let (eps, med, quarter) = (eps[j + 1], medians[j + 1], medians[j]);
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
