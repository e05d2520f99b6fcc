//! The linter as a test: `cargo test -p pir-lint` fails whenever
//! `cargo run -p pir-lint -- --check` would — so the invariants are
//! enforced by the ordinary test run even where CI is not wired up.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn workspace_passes_the_invariant_lints() {
    let result = pir_lint::repo::check(&workspace_root()).expect("lint run");
    let mut report = String::new();
    for e in &result.baseline_errors {
        report.push_str(&format!("{e}\n"));
    }
    for f in &result.findings {
        report.push_str(&format!("{f}\n    {}\n", f.excerpt));
    }
    assert!(
        result.is_clean(),
        "pir-lint found unsuppressed violations (fix them or add a reviewed lint.toml entry — see docs/LINTING.md):\n{report}"
    );
}

#[test]
fn baseline_stays_within_its_ratchet() {
    // The CI job greps this cap; keep the number and the file in sync.
    let text = std::fs::read_to_string(workspace_root().join("lint.toml")).expect("lint.toml");
    let baseline = pir_lint::baseline::parse(&text).expect("parseable baseline");
    assert!(
        baseline.allows.len() as u32 <= baseline.max_entries,
        "lint.toml has {} entries but max_entries = {}",
        baseline.allows.len(),
        baseline.max_entries
    );
    assert!(
        baseline.max_entries <= 3,
        "max_entries grew past the reviewed cap of 3 — raising it requires review (see docs/LINTING.md)"
    );
}
