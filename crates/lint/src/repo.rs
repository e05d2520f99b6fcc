//! The repo driver: maps the rules onto the real workspace.
//!
//! The scope of each rule is an explicit manifest in this module, not a
//! filesystem guess — reviewers can see exactly which files are under
//! which contract, and adding a file to a contract is a visible diff.
//!
//! | rule | scope |
//! |------|-------|
//! | R1   | the engine serving path ([`R1_FILES`]) |
//! | R2   | every `.rs` file under the hot-path crates ([`R2_CRATES`]) |
//! | R3   | the durability layer ([`R3_FILES`]) |
//! | R4   | protocol sources ([`R4_SOURCES`]) vs `docs/PROTOCOL.md` |
//! | R5   | every crate root ([`CRATE_ROOTS`]) |
//! | R6   | files threaded through the `Storage` trait ([`R6_FILES`]) |
//!
//! A manifest path that no longer exists is an error, not a skip —
//! renames must update the manifest, or the contract silently shrinks.

use std::fs;
use std::io;
use std::path::Path;

use crate::baseline::{self, Baseline, BaselineError};
use crate::rules::{durability, hygiene, panic_free, protocol, storage_layer, zero_alloc, Finding};

/// R1 scope: files that run on shard-worker / connection threads, and
/// the byte codec every one of their formats is read and written with.
pub const R1_FILES: [&str; 10] = [
    "crates/engine/src/ingress.rs",
    "crates/engine/src/shard.rs",
    "crates/engine/src/wire.rs",
    "crates/engine/src/server.rs",
    "crates/engine/src/tcp.rs",
    "crates/engine/src/wal.rs",
    "crates/engine/src/snapshot.rs",
    "crates/engine/src/session.rs",
    "crates/engine/src/storage.rs",
    "crates/core/src/codec.rs",
];

/// R2 scope: crates whose `*_into` kernels must not allocate. `dp` is
/// in scope since the sampler-core rewrite: `fill_gaussian` and
/// friends sit directly under every per-point noise draw.
pub const R2_CRATES: [&str; 7] = [
    "crates/linalg/src",
    "crates/optim/src",
    "crates/geometry/src",
    "crates/continual/src",
    "crates/core/src",
    "crates/dp/src",
    "crates/engine/src",
];

/// R3 scope: the durability layer.
pub const R3_FILES: [&str; 2] = ["crates/engine/src/wal.rs", "crates/engine/src/snapshot.rs"];

/// R4 scope: files defining wire/WAL/snapshot/checkpoint constants and
/// mechanism state-blob tags.
pub const R4_SOURCES: [&str; 4] = [
    "crates/engine/src/wire.rs",
    "crates/engine/src/wal.rs",
    "crates/engine/src/snapshot.rs",
    "crates/core/src/codec.rs",
];

/// R4 document side.
pub const R4_DOC: &str = "docs/PROTOCOL.md";

/// R6 scope: files whose filesystem access is threaded through the
/// `Storage` trait so the crash-consistency harness can fault and
/// crash every op. `storage.rs` itself is deliberately absent — it is
/// the one place direct `std::fs` calls belong.
pub const R6_FILES: [&str; 4] = [
    "crates/engine/src/wal.rs",
    "crates/engine/src/snapshot.rs",
    "crates/engine/src/ingress.rs",
    "crates/engine/src/shard.rs",
];

/// R5 manifest: every crate root and its `missing_docs` policy. The
/// test shims are `DocPolicy::None` — their public surface is largely
/// macro-generated and the real crates they stand in for own the docs
/// contract.
pub const CRATE_ROOTS: [(&str, hygiene::DocPolicy); 15] = [
    ("src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/bench/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/continual/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/core/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/datagen/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/dp/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/engine/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/erm/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/geometry/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/linalg/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/lint/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/optim/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/sketch/src/lib.rs", hygiene::DocPolicy::Deny),
    ("crates/shims/criterion/src/lib.rs", hygiene::DocPolicy::None),
    ("crates/shims/proptest/src/lib.rs", hygiene::DocPolicy::None),
];

/// Everything one lint run produced.
#[derive(Debug)]
pub struct CheckResult {
    /// Findings that survived the baseline.
    pub findings: Vec<Finding>,
    /// Baseline parse/ratchet errors (stale entries, over-budget, …).
    pub baseline_errors: Vec<BaselineError>,
    /// Raw finding count before the baseline was applied.
    pub raw_count: usize,
}

impl CheckResult {
    /// Whether the run is clean (exit code 0).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.baseline_errors.is_empty()
    }
}

/// Collect raw findings from every rule over the workspace at `root`.
pub fn collect_findings(root: &Path) -> io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    for rel in R1_FILES {
        let src = read(root, rel)?;
        out.extend(panic_free::check_file(rel, &src));
    }
    for dir in R2_CRATES {
        for rel in rust_files(root, dir)? {
            let src = read(root, &rel)?;
            out.extend(zero_alloc::check_file(&rel, &src));
        }
    }
    for rel in R3_FILES {
        let src = read(root, rel)?;
        out.extend(durability::check_file(rel, &src));
    }
    let r4: Vec<(String, String)> = R4_SOURCES
        .iter()
        .map(|rel| read(root, rel).map(|src| (rel.to_string(), src)))
        .collect::<io::Result<_>>()?;
    let r4_refs: Vec<(&str, &str)> = r4.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    let src_consts = protocol::extract_source(&r4_refs);
    let doc_consts = protocol::extract_doc(&read(root, R4_DOC)?);
    out.extend(protocol::compare(&src_consts, &doc_consts));
    for (rel, policy) in CRATE_ROOTS {
        let src = read(root, rel)?;
        out.extend(hygiene::check_crate_root(rel, &src, policy));
    }
    for rel in R6_FILES {
        let src = read(root, rel)?;
        out.extend(storage_layer::check_file(rel, &src));
    }
    Ok(out)
}

/// Full check: collect findings, load `lint.toml`, apply the ratchet.
pub fn check(root: &Path) -> io::Result<CheckResult> {
    let raw = collect_findings(root)?;
    let raw_count = raw.len();
    let baseline = load_baseline(root)?;
    match baseline {
        Ok(b) => {
            let (findings, baseline_errors) = baseline::apply(&b, &raw);
            Ok(CheckResult { findings, baseline_errors, raw_count })
        }
        Err(e) => Ok(CheckResult { findings: raw, baseline_errors: vec![e], raw_count }),
    }
}

/// Read and parse `lint.toml`; a missing file is an empty baseline with
/// a zero-entry ratchet.
fn load_baseline(root: &Path) -> io::Result<Result<Baseline, BaselineError>> {
    let path = root.join("lint.toml");
    if !path.exists() {
        return Ok(Ok(Baseline::default()));
    }
    let text = fs::read_to_string(path)?;
    Ok(baseline::parse(&text))
}

fn read(root: &Path, rel: &str) -> io::Result<String> {
    fs::read_to_string(root.join(rel)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{rel}: {e} — if the file moved, update the manifest in crates/lint/src/repo.rs"
            ),
        )
    })
}

/// Repo-relative paths of every `.rs` file under `root/dir`, sorted for
/// deterministic output.
fn rust_files(root: &Path, dir: &str) -> io::Result<Vec<String>> {
    let mut stack = vec![root.join(dir)];
    let mut out = Vec::new();
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(rel_path(root, &path));
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The workspace root, from the lint crate's own manifest dir.
    pub(crate) fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
    }

    #[test]
    fn every_manifest_path_exists() {
        let root = workspace_root();
        for rel in
            R1_FILES.iter().chain(R3_FILES.iter()).chain(R4_SOURCES.iter()).chain(R6_FILES.iter())
        {
            assert!(root.join(rel).is_file(), "manifest path gone: {rel}");
        }
        for (rel, _) in CRATE_ROOTS {
            assert!(root.join(rel).is_file(), "crate root gone: {rel}");
        }
        assert!(root.join(R4_DOC).is_file());
    }

    #[test]
    fn rust_file_walk_finds_engine_sources() {
        let root = workspace_root();
        let files = rust_files(&root, "crates/engine/src").unwrap();
        assert!(files.iter().any(|f| f.ends_with("ingress.rs")), "{files:?}");
        // The shard state machine runs on every worker thread and owns
        // the spill tier's file I/O: it is under R1 and R6 like ingress.
        let shard = "crates/engine/src/shard.rs";
        assert!(files.iter().any(|f| f == shard), "{files:?}");
        assert!(R1_FILES.contains(&shard) && R6_FILES.contains(&shard));
    }

    #[test]
    fn the_shared_byte_codec_is_panic_free_checked() {
        // Every wire, WAL, snapshot and manifest byte goes through the
        // pir-core cursor pair, so it is under R1 like its callers.
        let codec = "crates/core/src/codec.rs";
        assert!(workspace_root().join(codec).is_file());
        assert!(R1_FILES.contains(&codec));
    }
}
