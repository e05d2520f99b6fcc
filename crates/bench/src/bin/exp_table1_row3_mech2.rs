//! E4 — Table 1, row 3, Mechanism 2 (Theorem 5.7): `PrivIncReg2` on
//! sparse/Lasso instances has excess risk
//! `≈ T^{1/3}W^{2/3}/ε + T^{1/6}W^{1/3}√OPT + T^{1/4}W^{1/2}·OPT^{1/4}`,
//! i.e. *sublinear in T* and only poly-logarithmic in `d` when
//! `W = w(X) + w(C) = polylog(d)`.

use pir_bench::e4::{Cell, SPARSITY};
use pir_bench::{fitting, median, report, runner, scaled};
use pir_geometry::{KSparseDomain, L1Ball, WidthSet};

fn run_cell(d: usize, t: usize, eps: f64, noise_std: f64, seed: u64) -> (f64, f64, usize) {
    let out = Cell { d, t, eps, noise_std, seed }.run();
    (out.max_excess, out.final_opt, out.m)
}

fn main() {
    report::banner(
        "E4",
        "PrivIncReg2 (sketched) excess risk: T^{1/3} scaling, polylog-d scaling",
        "α ≈ T^{1/3}W^{2/3}/ε + OPT terms (Theorem 5.7); W = w(X)+w(C) = polylog(d)",
    );
    let reps = scaled(3, 2) as u64;

    // Sweep 1: stream length at fixed (large) d — the T^{1/3} claim.
    let d_fixed = scaled(600, 300);
    let t_values: Vec<usize> = vec![512, 1024, 2048, 4096]
        .into_iter()
        .map(|t| scaled(t, 128).max(128))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let cells: Vec<(usize, u64)> =
        t_values.iter().flat_map(|&t| (0..reps).map(move |r| (t, r))).collect();
    let eps_shape = 400.0; // shape regime — see the E3 regime note
    let results = runner::parallel_map(cells.clone(), |&(t, r)| {
        run_cell(d_fixed, t, eps_shape, 0.02, 5000 + t as u64 + r)
    });
    let mut table = report::Table::new(&["d", "T", "m", "W", "max excess (median)", "OPT_T"]);
    let w = KSparseDomain::new(d_fixed, SPARSITY, 1.0).width_bound()
        + L1Ball::unit(d_fixed).width_bound();
    let mut t_axis = Vec::new();
    let mut ex_axis = Vec::new();
    for &t in &t_values {
        let vals: Vec<(f64, f64, usize)> =
            cells.iter().zip(&results).filter(|((tt, _), _)| *tt == t).map(|(_, v)| *v).collect();
        let ex = median(&vals.iter().map(|v| v.0).collect::<Vec<_>>());
        let opt = median(&vals.iter().map(|v| v.1).collect::<Vec<_>>());
        let m = vals[0].2;
        table.row(&[
            d_fixed.to_string(),
            t.to_string(),
            m.to_string(),
            report::f(w),
            report::f(ex),
            report::f(opt),
        ]);
        t_axis.push(t as f64);
        ex_axis.push(ex);
    }
    table.print();
    let t_slope = fitting::loglog_slope(&t_axis, &ex_axis);
    // With label noise the √OPT terms contribute; the leading term is
    // T^{1/3}, the OPT terms push the effective slope toward ~0.4–0.6.
    println!("{}", fitting::verdict("excess vs T (sublinear, ≈1/3–1/2)", t_slope, 0.4, 0.3));
    println!();

    // Sweep 2: dimension at fixed T — the polylog(d) claim.
    let t_fixed = scaled(1024, 256);
    let d_values: Vec<usize> = vec![300, 900, 2700]
        .into_iter()
        .map(|d| scaled(d, 100).max(100))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let cells_d: Vec<(usize, u64)> =
        d_values.iter().flat_map(|&d| (0..reps).map(move |r| (d, r))).collect();
    let results_d = runner::parallel_map(cells_d.clone(), |&(d, r)| {
        run_cell(d, t_fixed, 400.0, 0.02, 7000 + d as u64 + r)
    });
    let mut table_d = report::Table::new(&["d", "T", "m", "W", "max excess (median)"]);
    let mut d_axis = Vec::new();
    let mut ex_d = Vec::new();
    for &d in &d_values {
        let vals: Vec<f64> = cells_d
            .iter()
            .zip(&results_d)
            .filter(|((dd, _), _)| *dd == d)
            .map(|(_, v)| v.0)
            .collect();
        let m_used =
            cells_d.iter().zip(&results_d).find(|((dd, _), _)| *dd == d).map(|(_, v)| v.2).unwrap();
        let wd = KSparseDomain::new(d, SPARSITY, 1.0).width_bound() + L1Ball::unit(d).width_bound();
        let ex = median(&vals);
        table_d.row(&[
            d.to_string(),
            t_fixed.to_string(),
            m_used.to_string(),
            report::f(wd),
            report::f(ex),
        ]);
        d_axis.push(d as f64);
        ex_d.push(ex);
    }
    table_d.print();
    let d_slope = fitting::loglog_slope(&d_axis, &ex_d);
    println!(
        "{}",
        fitting::verdict(
            "excess vs d (polylog ⇒ slope ≈ 0, vs 0.5 for the √d mechanism)",
            d_slope,
            0.1,
            0.25
        )
    );
    println!();

    // Sweep 3: OPT dependence via label noise (the √OPT terms).
    let mut table_o = report::Table::new(&["noise σ", "OPT_T", "max excess (median)"]);
    for &ns in &[0.0, 0.05, 0.15] {
        let vals: Vec<(f64, f64, usize)> = (0..reps)
            .map(|r| run_cell(scaled(600, 200), scaled(512, 128), 400.0, ns, 9000 + r))
            .collect();
        let ex = median(&vals.iter().map(|v| v.0).collect::<Vec<_>>());
        let opt = median(&vals.iter().map(|v| v.1).collect::<Vec<_>>());
        table_o.row(&[format!("{ns}"), report::f(opt), report::f(ex)]);
    }
    table_o.print();
    println!("reading: excess grows with OPT as the √OPT/⁴√OPT terms predict.");
}
