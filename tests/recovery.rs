//! Kill/restart determinism and fault injection for the write-ahead
//! command log — the proof behind the durability claim.
//!
//! Determinism side: every release is a pure function of `(engine seed,
//! session id, observed points)`, so a process killed after *any* prefix
//! of the command stream must replay to releases bit-identical to an
//! uninterrupted run's — including across a reshard. The suites here
//! kill after every `k`, truncate at every byte offset, and flip
//! property-chosen bits, asserting recovery lands exactly on the last
//! complete record, never panics, and never silently drops a committed
//! command.

use pir_engine::wal::{self, SegmentHeader, RECORD_OVERHEAD, SEGMENT_HEADER_LEN};
use private_incremental_regression::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A self-cleaning scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("pir-recovery-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn point(d: usize, t: usize, session: u64) -> DataPoint {
    let mut x = vec![0.0f64; d];
    x[t % d] = 0.7;
    x[(t + session as usize) % d] += 0.2;
    DataPoint::new(x, 0.25)
}

fn params() -> PrivacyParams {
    PrivacyParams::approx(1.0, 1e-6).unwrap()
}

/// A mixed command stream over four sessions: opens, single observes,
/// batches, a deterministic failure (duplicate open), and a release.
fn command_stream(d: usize) -> Vec<Command> {
    let spec = MechanismSpec::reg1_l2(d);
    let mut cmds = Vec::new();
    for sid in 0..4u64 {
        cmds.push(Command::Open {
            session_id: sid,
            spec: spec.clone(),
            t_max: 32,
            params: params(),
        });
    }
    for t in 0..3usize {
        for sid in 0..4u64 {
            cmds.push(Command::Observe { session_id: sid, point: point(d, t, sid) });
        }
    }
    for sid in 0..2u64 {
        cmds.push(Command::ObserveBatch {
            session_id: sid,
            points: (3..6).map(|t| point(d, t, sid)).collect(),
        });
    }
    // A deterministic failure: replay must reproduce the error reply,
    // not abort on it.
    cmds.push(Command::Open { session_id: 0, spec, t_max: 32, params: params() });
    cmds.push(Command::Release { session_id: 3 });
    cmds
}

/// A cheap stream (trivial mechanism) for the byte-level fault sweeps,
/// where the interesting object is the log file, not the noise.
fn cheap_stream(n: usize) -> Vec<Command> {
    let spec = MechanismSpec::Trivial { set: SetSpec::unit_l2(2) };
    let mut cmds = vec![Command::Open { session_id: 1, spec, t_max: 64, params: params() }];
    for t in 0..n.saturating_sub(1) {
        cmds.push(Command::Observe { session_id: 1, point: point(2, t, 1) });
    }
    cmds
}

/// Write `cmds` to shard 0's log in `dir` and "crash" (drop the writer
/// without `finish`).
fn log_and_crash(dir: &Path, cmds: &[Command]) {
    let mut w = WalWriter::create(&WalOptions::new(dir), 0).unwrap();
    for cmd in cmds {
        w.append(cmd).unwrap();
    }
    drop(w);
}

fn fresh_engine(num_shards: usize, seed: u64) -> ShardedEngine {
    ShardedEngine::new(EngineConfig { num_shards, seed, parallel: false }).unwrap()
}

// ---------------------------------------------------------------------------
// Kill/restart determinism
// ---------------------------------------------------------------------------

/// The headline property, exhaustively: kill after every `k`, replay,
/// and both the replayed replies and everything executed afterwards are
/// bit-identical to an uninterrupted run — even recovering into an
/// engine with a different shard count.
#[test]
fn kill_after_every_k_commands_replays_bit_identically() {
    let seed = 411;
    let cmds = command_stream(3);

    // The uninterrupted reference run.
    let mut reference = fresh_engine(1, seed);
    let ref_replies: Vec<Reply> = cmds.iter().map(|c| reference.apply(c)).collect();
    assert!(
        ref_replies.iter().any(|r| matches!(r, Reply::Err(_))),
        "the stream should include a deterministic failure"
    );

    for k in 0..=cmds.len() {
        let tmp = TempDir::new(&format!("kill-{k}"));
        log_and_crash(tmp.path(), &cmds[..k]);

        // Recover into a *3-shard* engine: replay must also be invariant
        // under resharding.
        let mut engine = fresh_engine(3, seed);
        let mut replayed = Vec::new();
        let report =
            wal::recover_with(tmp.path(), &mut engine, |_, r| replayed.push(r.clone())).unwrap();
        assert_eq!(report.commands, k as u64, "kill after {k}");
        assert_eq!(report.torn_tails, 0, "clean records only, kill after {k}");
        assert_eq!(replayed, &ref_replies[..k], "replayed replies diverged, kill after {k}");

        // The recovered engine continues exactly where the reference did.
        for (i, cmd) in cmds[k..].iter().enumerate() {
            assert_eq!(
                engine.apply(cmd),
                ref_replies[k + i],
                "post-recovery command {} diverged (kill after {k})",
                k + i
            );
        }
    }
}

/// Every fsync policy survives a killed process identically: the write
/// syscall happens before execution under all of them (policies differ
/// only in power-loss durability, which a test cannot simulate).
#[test]
fn all_fsync_policies_recover_identically_after_a_kill() {
    let seed = 97;
    let cmds = command_stream(2);
    let mut reference = fresh_engine(1, seed);
    let ref_replies: Vec<Reply> = cmds.iter().map(|c| reference.apply(c)).collect();

    for (name, fsync) in [
        ("per-record", FsyncPolicy::PerRecord),
        ("interval", FsyncPolicy::Interval { every: 4 }),
        ("off", FsyncPolicy::Off),
    ] {
        let tmp = TempDir::new(&format!("fsync-{name}"));
        let options = WalOptions { fsync, ..WalOptions::new(tmp.path()) };
        let mut w = WalWriter::create(&options, 0).unwrap();
        for cmd in &cmds {
            w.append(cmd).unwrap();
        }
        drop(w); // crash, no finish()

        let mut engine = fresh_engine(2, seed);
        let mut replayed = Vec::new();
        let report =
            wal::recover_with(tmp.path(), &mut engine, |_, r| replayed.push(r.clone())).unwrap();
        assert_eq!(report.commands, cmds.len() as u64, "policy {name}");
        assert_eq!(replayed, ref_replies, "policy {name} diverged");
    }
}

// ---------------------------------------------------------------------------
// Fault injection: tears and truncations
// ---------------------------------------------------------------------------

/// Truncate a complete one-segment log at **every** byte offset:
/// recovery must land exactly on the last record wholly before the cut,
/// report a torn tail iff the cut is mid-record (or mid-header), and
/// never error or panic — a torn file is the expected crash artifact.
#[test]
fn truncation_at_every_byte_offset_recovers_to_the_last_complete_record() {
    let seed = 5;
    let cmds = cheap_stream(6);
    let tmp = TempDir::new("truncate-src");
    log_and_crash(tmp.path(), &cmds);
    let seg = tmp.path().join(wal::segment_file_name(0, 0));
    let bytes = std::fs::read(&seg).unwrap();

    // Record-end offsets, reconstructed from the wire encoding.
    let mut record_ends = Vec::new();
    let mut at = SEGMENT_HEADER_LEN;
    for cmd in &cmds {
        at += RECORD_OVERHEAD + pir_engine::wire::encode_command(cmd).unwrap().len();
        record_ends.push(at);
    }
    assert_eq!(at, bytes.len(), "reconstructed layout must span the file");

    let mut reference = fresh_engine(1, seed);
    let ref_replies: Vec<Reply> = cmds.iter().map(|c| reference.apply(c)).collect();

    for cut in 0..=bytes.len() {
        let tdir = TempDir::new(&format!("truncate-{cut}"));
        std::fs::write(tdir.path().join(wal::segment_file_name(0, 0)), &bytes[..cut]).unwrap();

        let complete = record_ends.iter().filter(|&&e| e <= cut).count();
        let at_boundary = cut == SEGMENT_HEADER_LEN || record_ends.contains(&cut);

        let mut engine = fresh_engine(1, seed);
        let mut replayed = Vec::new();
        let report = wal::recover_with(tdir.path(), &mut engine, |_, r| replayed.push(r.clone()))
            .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got {e}"));
        assert_eq!(report.commands, complete as u64, "cut at byte {cut}");
        assert_eq!(report.torn_tails, usize::from(!at_boundary), "cut at byte {cut}");
        assert_eq!(replayed, &ref_replies[..complete], "cut at byte {cut} diverged");
    }
}

// ---------------------------------------------------------------------------
// Fault injection: bit flips (property-chosen offsets)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single bit flipped anywhere in a complete segment is caught
    /// as a **typed** error — checksums cover every byte — and the
    /// engine is left untouched: corruption is never replayed, never
    /// silently skipped, and never a panic.
    #[test]
    fn any_single_bit_flip_is_a_typed_error_and_nothing_is_replayed(
        raw_offset in any::<u64>(),
        bit in 0usize..8,
    ) {
        let cmds = cheap_stream(4);
        let tmp = TempDir::new(&format!("flip-{raw_offset}-{bit}"));
        log_and_crash(tmp.path(), &cmds);
        let seg = tmp.path().join(wal::segment_file_name(0, 0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let offset = (raw_offset % bytes.len() as u64) as usize;
        bytes[offset] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap();

        let mut engine = fresh_engine(1, 5);
        let err = wal::recover(tmp.path(), &mut engine)
            .expect_err("a flipped bit must be rejected, not replayed");
        prop_assert!(
            matches!(
                err,
                WalError::BadMagic { .. }
                    | WalError::UnsupportedVersion { .. }
                    | WalError::CorruptHeader { .. }
                    | WalError::ChecksumMismatch { .. }
                    | WalError::RecordTooLarge { .. }
                    | WalError::OutOfOrder { .. }
                    | WalError::Wire { .. }
            ),
            "unexpected error class for flip at byte {offset} bit {bit}: {err:?}"
        );
        // Validate-before-apply: the engine saw nothing.
        prop_assert_eq!(engine.session_count(), 0);
        prop_assert_eq!(engine.total_points(), 0);
    }
}

// ---------------------------------------------------------------------------
// Fault injection: mid-chain damage must be loud
// ---------------------------------------------------------------------------

/// Damage *behind* the chain's end — a mid-chain segment truncated at an
/// exact record boundary, a deleted segment, a flipped byte — must be a
/// typed error: only the final torn record is ever dropped silently.
#[test]
fn mid_chain_damage_is_rejected_loudly() {
    let cmds = cheap_stream(12);
    // Size segments to hold exactly the first two records, forcing
    // rotation: the chain spans several files.
    let two_records: u64 = cmds
        .iter()
        .take(2)
        .map(|c| (RECORD_OVERHEAD + pir_engine::wire::encode_command(c).unwrap().len()) as u64)
        .sum();
    let segment_bytes = SEGMENT_HEADER_LEN as u64 + two_records;
    let make_log = |name: &str| {
        let tmp = TempDir::new(name);
        let options = WalOptions { segment_bytes, ..WalOptions::new(tmp.path()) };
        let mut w = WalWriter::create(&options, 0).unwrap();
        for cmd in &cmds {
            w.append(cmd).unwrap();
        }
        w.finish().unwrap();
        let segments: Vec<PathBuf> = (0..)
            .map(|i| tmp.path().join(wal::segment_file_name(0, i)))
            .take_while(|p| p.exists())
            .collect();
        assert!(segments.len() >= 3, "rotation must have produced a chain");
        (tmp, segments)
    };

    // (a) First segment truncated at a record boundary: its record count
    // shrinks, so the next segment's pinned first_record_seq exposes the
    // silent loss as OutOfOrder.
    let (tmp, segments) = make_log("chain-truncate");
    let seg0 = &segments[0];
    let scanned = wal::scan_segment(seg0).unwrap();
    assert!(scanned.commands.len() >= 2, "need at least two records in segment 0");
    let bytes = std::fs::read(seg0).unwrap();
    let last_len = RECORD_OVERHEAD
        + pir_engine::wire::encode_command(scanned.commands.last().unwrap()).unwrap().len();
    std::fs::write(seg0, &bytes[..bytes.len() - last_len]).unwrap();
    let mut engine = fresh_engine(1, 5);
    let err = wal::recover(tmp.path(), &mut engine).expect_err("a swallowed record must be loud");
    assert!(matches!(err, WalError::OutOfOrder { .. }), "got {err:?}");
    assert_eq!(engine.session_count(), 0);

    // (b) A segment missing from the middle of the chain.
    let (tmp, segments) = make_log("chain-gap");
    std::fs::remove_file(&segments[1]).unwrap();
    let mut engine = fresh_engine(1, 5);
    let err = wal::recover(tmp.path(), &mut engine).expect_err("a chain gap must be loud");
    assert!(
        matches!(err, WalError::MissingSegment { shard: 0, expected: 1, got: 2 }),
        "got {err:?}"
    );

    // (c) A flipped byte in the middle of the first segment.
    let (tmp, segments) = make_log("chain-flip");
    let mut bytes = std::fs::read(&segments[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&segments[0], &bytes).unwrap();
    let mut engine = fresh_engine(1, 5);
    assert!(
        wal::recover(tmp.path(), &mut engine).is_err(),
        "mid-chain corruption must not recover"
    );
    assert_eq!(engine.total_points(), 0);
}

/// Files that are not valid segments: foreign extensions are ignored,
/// a `.wal` file with an unparseable name is loud, and a well-named file
/// full of garbage is a bad-magic error.
#[test]
fn foreign_and_garbage_files_are_classified_correctly() {
    let cmds = cheap_stream(2);

    let tmp = TempDir::new("foreign-ok");
    log_and_crash(tmp.path(), &cmds);
    std::fs::write(tmp.path().join("operator-notes.txt"), b"drill log").unwrap();
    let mut engine = fresh_engine(1, 5);
    let report = wal::recover(tmp.path(), &mut engine).unwrap();
    assert_eq!(report.commands, cmds.len() as u64, "foreign extensions must be ignored");

    let tmp = TempDir::new("foreign-badname");
    log_and_crash(tmp.path(), &cmds);
    std::fs::write(tmp.path().join("backup.wal"), b"who put this here").unwrap();
    let err = wal::recover(tmp.path(), &mut fresh_engine(1, 5))
        .expect_err("an unplaceable .wal file must be loud");
    assert!(matches!(err, WalError::UnrecognizedSegment { .. }), "got {err:?}");

    let tmp = TempDir::new("foreign-garbage");
    std::fs::write(
        tmp.path().join(wal::segment_file_name(0, 0)),
        vec![0xAB; SEGMENT_HEADER_LEN + 8],
    )
    .unwrap();
    let err = wal::recover(tmp.path(), &mut fresh_engine(1, 5))
        .expect_err("garbage under a valid name must be loud");
    assert!(matches!(err, WalError::BadMagic { .. }), "got {err:?}");

    // A missing directory is an empty log, not an error.
    let report = wal::recover(
        std::env::temp_dir().join("pir-recovery-never-created"),
        &mut fresh_engine(1, 5),
    )
    .unwrap();
    assert_eq!(report, RecoveryReport::default());
}

// ---------------------------------------------------------------------------
// The pipelined engine end to end: restart-with-replay
// ---------------------------------------------------------------------------

/// `EngineHandle::with_wal` round trip: log a first run's traffic,
/// restart with a different shard count, and both the replayed state and
/// all post-restart releases are bit-identical to one uninterrupted
/// direct-engine run. Then the retention path: purge after clean
/// shutdown leaves an empty log.
#[test]
fn pipelined_engine_with_wal_restarts_bit_identically_across_a_reshard() {
    let seed = 20177;
    let d = 3;
    let sessions = 4u64;
    let spec = MechanismSpec::reg1_l2(d);
    let tmp = TempDir::new("e2e");
    let options = WalOptions { fsync: FsyncPolicy::Off, ..WalOptions::new(tmp.path()) };

    // ---- Run 1: fresh log, four sessions, six points each ----------------
    let (handle, report) =
        EngineHandle::with_wal(IngressConfig { num_shards: 2, seed, queue_depth: 64 }, &options)
            .unwrap();
    assert_eq!(report.commands, 0, "a fresh directory replays nothing");
    let mut run1: Vec<Vec<Vec<f64>>> = Vec::new();
    for sid in 0..sessions {
        handle.open(sid, &spec, 16, &params()).unwrap().wait();
    }
    for sid in 0..sessions {
        let mut thetas = Vec::new();
        for t in 0..6 {
            let reply = handle.observe(sid, point(d, t, sid)).unwrap().wait();
            thetas.extend(reply.into_releases().unwrap());
        }
        run1.push(thetas);
    }
    let stats = handle.close(); // clean shutdown: log is synced
    assert_eq!(stats.sessions, sessions as usize);

    // ---- Run 2: restart on the same log with a *different* shard count ---
    let (handle, report) =
        EngineHandle::with_wal(IngressConfig { num_shards: 3, seed, queue_depth: 64 }, &options)
            .unwrap();
    assert_eq!(report.commands, sessions + sessions * 6);
    assert_eq!(report.failed, 0);
    let mut run2: Vec<Vec<Vec<f64>>> = Vec::new();
    for sid in 0..sessions {
        let mut thetas = Vec::new();
        for t in 6..8 {
            let reply = handle.observe(sid, point(d, t, sid)).unwrap().wait();
            thetas.extend(reply.into_releases().unwrap());
        }
        run2.push(thetas);
    }
    let stats = handle.close();
    assert_eq!(stats.sessions, sessions as usize, "replayed sessions survive the restart");

    // ---- The uninterrupted reference ------------------------------------
    let mut direct = fresh_engine(1, seed);
    direct.spawn_sessions(0..sessions, &spec, 16, &params()).unwrap();
    for sid in 0..sessions {
        for t in 0..8usize {
            let expected = direct.observe(sid, &point(d, t, sid)).unwrap();
            let got = if t < 6 { &run1[sid as usize][t] } else { &run2[sid as usize][t - 6] };
            assert_eq!(got, &expected, "session {sid} step {t} diverged across the restart");
        }
    }

    // ---- Retention: purge after clean shutdown --------------------------
    let removed = wal::purge(tmp.path()).unwrap();
    assert!(removed >= 2, "both runs' segments should be removed, got {removed}");
    let (handle, report) =
        EngineHandle::with_wal(IngressConfig { num_shards: 2, seed, queue_depth: 64 }, &options)
            .unwrap();
    assert_eq!(report.commands, 0, "a purged log replays nothing");
    handle.close();
}

/// A torn partial record appended to a shard's chain (the crash
/// artifact) is tolerated and *counted* on the next `with_wal` startup,
/// and every complete record before it is replayed.
#[test]
fn with_wal_tolerates_and_counts_a_torn_tail() {
    let seed = 9;
    let tmp = TempDir::new("torn-e2e");
    let options = WalOptions { fsync: FsyncPolicy::Off, ..WalOptions::new(tmp.path()) };
    let cmds = cheap_stream(3);
    {
        let mut w = WalWriter::create(&options, 0).unwrap();
        for cmd in &cmds {
            w.append(cmd).unwrap();
        }
        w.finish().unwrap();
    }
    // The torn artifact: a partial record header at the chain's end.
    let seg = tmp.path().join(wal::segment_file_name(0, 0));
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x44, 0x00, 0x00, 0x00, 0x01]);
    std::fs::write(&seg, &bytes).unwrap();

    let (handle, report) =
        EngineHandle::with_wal(IngressConfig { num_shards: 1, seed, queue_depth: 16 }, &options)
            .unwrap();
    assert_eq!(report.commands, cmds.len() as u64);
    assert_eq!(report.torn_tails, 1, "the torn artifact is counted, not hidden");
    assert_eq!(report.failed, 0);
    let stats = handle.close();
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.points, cmds.len() - 1);
}

/// Replay reproduces a run's deterministic failures instead of aborting
/// on them, and both restart paths count them alike: a WAL-enabled
/// engine logs a duplicate open, an observe and a release on unknown
/// sessions, and an over-horizon observe (every command is logged before
/// it executes, so the failures are in the log). Restarting through
/// `wal::recover` into a `ShardedEngine` and through
/// `EngineHandle::with_wal` must both report exactly the error replies
/// the original run sent, then release bit-identically afterwards.
#[test]
fn replayed_failures_are_counted_alike_by_both_restart_paths() {
    let seed = 5150;
    let d = 3;
    let spec = MechanismSpec::reg1_l2(d);
    let tmp = TempDir::new("replay-failures");
    let options = WalOptions { fsync: FsyncPolicy::Off, ..WalOptions::new(tmp.path()) };
    let open = |session_id, t_max| Command::Open {
        session_id,
        spec: spec.clone(),
        t_max,
        params: params(),
    };
    let observe =
        |session_id: u64, t| Command::Observe { session_id, point: point(d, t, session_id) };

    let mut cmds = vec![open(1, 16), open(2, 2), open(1, 16)];
    cmds.push(observe(9, 0));
    cmds.push(Command::Release { session_id: 8 });
    cmds.extend((0..3).map(|t| observe(2, t))); // the third is past t_max = 2
    cmds.extend((0..2).map(|t| observe(1, t)));

    // ---- The original run: count the error replies it sends --------------
    let (handle, report) =
        EngineHandle::with_wal(IngressConfig { num_shards: 2, seed, queue_depth: 64 }, &options)
            .unwrap();
    assert_eq!(report.commands, 0);
    let tickets: Vec<Ticket> = cmds.iter().map(|c| handle.submit(c.clone()).unwrap()).collect();
    let errors =
        tickets.into_iter().map(Ticket::wait).filter(|r| matches!(r, Reply::Err(_))).count();
    assert_eq!(errors, 4, "duplicate open, two unknown sessions, one over-horizon observe");
    handle.close();

    // ---- Restart 1: `wal::recover` into a direct engine (read-only) -------
    let mut direct = fresh_engine(3, seed);
    let direct_report = wal::recover(tmp.path(), &mut direct).unwrap();
    assert_eq!(direct_report.commands, cmds.len() as u64);
    assert_eq!(direct_report.failed, errors as u64);

    // ---- Restart 2: the pipelined engine on the same log ------------------
    let (handle, report) =
        EngineHandle::with_wal(IngressConfig { num_shards: 1, seed, queue_depth: 64 }, &options)
            .unwrap();
    assert_eq!(report.commands, cmds.len() as u64);
    assert_eq!(report.failed, errors as u64);

    // Later releases agree bit-for-bit, failures included.
    let later: Vec<Command> = (2..6).map(|t| observe(1, t)).chain([observe(2, 3)]).collect();
    for cmd in &later {
        let piped = handle.submit(cmd.clone()).unwrap().wait();
        let want = direct.apply(cmd);
        match (&piped, &want) {
            (Reply::Releases { thetas: got, .. }, Reply::Releases { thetas: exp, .. }) => {
                let bits = |t: &Vec<Vec<f64>>| -> Vec<u64> {
                    t.iter().flatten().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(got), bits(exp), "{cmd:?} diverged across the restarts");
            }
            _ => assert_eq!(piped, want, "{cmd:?} diverged across the restarts"),
        }
    }
    assert_eq!(handle.close().sessions, direct.session_count());
}

// ---------------------------------------------------------------------------
// Logs the previous build wrote
// ---------------------------------------------------------------------------

/// Rewrite every segment under `dir` as the previous build wrote it: WAL
/// version 1 has this build's layout, so only the header's version byte
/// and its CRC change.
fn as_previous_build(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "wal") {
            let header = wal::scan_segment(&path).unwrap().header.unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[..SEGMENT_HEADER_LEN]
                .copy_from_slice(&SegmentHeader { version: 1, ..header }.to_bytes());
            std::fs::write(&path, &bytes).unwrap();
        }
    }
}

fn bits(theta: &[f64]) -> Vec<u64> {
    theta.iter().map(|x| x.to_bits()).collect()
}

/// Recover the prefix logged in `dir`, checkpoint it, then log `tail` as
/// a later process would.
fn checkpoint_then_log(dir: &Path, seed: u64, tail: &[Command]) {
    let mut staging = fresh_engine(1, seed);
    wal::recover(dir, &mut staging).unwrap();
    wal::checkpoint(dir, &staging).unwrap();
    log_and_crash(dir, tail);
}

/// The previous build drew the `PRIVINCREG1`/`PRIVINCREG2` second-moment
/// tree noise over the full `k²` width; this build draws it packed. A
/// previous-build log that would replay an observe into such a session
/// would give already released tree nodes a second, independent noise,
/// so recovery refuses it, by both restart paths, before applying
/// anything: with no checkpoint (the whole history) and past one.
#[test]
fn previous_build_log_replaying_tree_observes_is_refused() {
    let seed = 61;
    let tmp = TempDir::new("previous-build-history");
    log_and_crash(tmp.path(), &command_stream(2));
    as_previous_build(tmp.path());
    let mut engine = fresh_engine(2, seed);
    let err = wal::recover(tmp.path(), &mut engine).unwrap_err();
    assert!(matches!(err, WalError::PreviousBuildObserve { session_id: 0, .. }), "{err:?}");
    assert!(err.to_string().contains("checkpoint with no traffic after it"), "{err}");
    assert_eq!((engine.session_count(), engine.total_points()), (0, 0));
    let options = WalOptions { fsync: FsyncPolicy::Off, ..WalOptions::new(tmp.path()) };
    let refused =
        EngineHandle::with_wal(IngressConfig { num_shards: 1, seed, queue_depth: 64 }, &options);
    assert!(
        matches!(&refused, Err(EngineError::Wal { reason }) if reason.contains("0x0000000000000000")),
        "{:?}",
        refused.map(|(_, report)| report)
    );

    let d = 4;
    for (name, spec) in
        [("reg1", MechanismSpec::reg1_l2(d)), ("reg2", MechanismSpec::reg2_l1(d, 1.0))]
    {
        let tmp = TempDir::new(&format!("previous-build-tail-{name}"));
        let open = Command::Open { session_id: 5, spec, t_max: 16, params: params() };
        log_and_crash(
            tmp.path(),
            &[open, Command::Observe { session_id: 5, point: point(d, 0, 5) }],
        );
        let batch = (1..3).map(|t| point(d, t, 5)).collect();
        checkpoint_then_log(
            tmp.path(),
            seed,
            &[Command::ObserveBatch { session_id: 5, points: batch }],
        );
        as_previous_build(tmp.path());
        let mut engine = fresh_engine(1, seed);
        let err = wal::recover(tmp.path(), &mut engine).unwrap_err();
        assert!(
            matches!(err, WalError::PreviousBuildObserve { session_id: 5, .. }),
            "{name}: {err:?}"
        );
        assert_eq!(engine.session_count(), 0, "{name}: the checkpoint must not be adopted");
    }
}

/// The upgrade the refusal names goes through: a previous-build log whose
/// tail past the checkpoint opens a tree session and observes only a
/// session without a tree recovers, bit-identically to the same log
/// written by this build.
#[test]
fn previous_build_log_without_tree_observes_recovers() {
    let seed = 67;
    let d = 3;
    let trivial = MechanismSpec::Trivial { set: SetSpec::unit_l2(d) };
    let tail = vec![
        Command::Open {
            session_id: 2,
            spec: MechanismSpec::reg1_l2(d),
            t_max: 16,
            params: params(),
        },
        Command::Open { session_id: 3, spec: trivial, t_max: 16, params: params() },
        Command::Observe { session_id: 3, point: point(d, 0, 3) },
        Command::Release { session_id: 3 },
    ];
    let mut later = Vec::new();
    for previous in [false, true] {
        let tmp = TempDir::new(&format!("previous-build-upgrade-{previous}"));
        let open = Command::Open {
            session_id: 1,
            spec: MechanismSpec::reg1_l2(d),
            t_max: 16,
            params: params(),
        };
        let observes = (0..3).map(|t| Command::Observe { session_id: 1, point: point(d, t, 1) });
        log_and_crash(tmp.path(), &[open].into_iter().chain(observes).collect::<Vec<_>>());
        checkpoint_then_log(tmp.path(), seed, &tail);
        if previous {
            as_previous_build(tmp.path());
        }
        let mut engine = fresh_engine(2, seed);
        let report = wal::recover(tmp.path(), &mut engine).unwrap();
        assert_eq!((report.snapshot_sessions, report.commands), (1, tail.len() as u64));
        assert_eq!(engine.session_count(), 2);
        let releases: Vec<Vec<u64>> = [1u64, 2, 1]
            .iter()
            .enumerate()
            .map(|(t, &sid)| bits(&engine.observe(sid, &point(d, t + 3, sid)).unwrap()))
            .collect();
        later.push(releases);
    }
    assert_eq!(later[0], later[1], "a previous-build tail must replay like this build's");
}
