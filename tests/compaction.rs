//! WAL compaction checkpoints, end to end: a checkpoint must be a pure
//! *representation change* of the log. Recovering from
//! `snapshot + tail` has to reproduce the same engine — same replies,
//! same future releases, to the bit — as replaying the full log, and a
//! checkpoint taken under live traffic must lose nothing.

use pir_engine::wal;
use private_incremental_regression::prelude::*;
use std::path::{Path, PathBuf};

/// A self-cleaning scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("pir-compaction-{}-{name}", std::process::id()));
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

fn fresh_engine(num_shards: usize, seed: u64) -> ShardedEngine {
    ShardedEngine::new(EngineConfig { num_shards, seed, parallel: false }).unwrap()
}

/// A mixed stream over four snapshot-capable sessions: opens, observes,
/// batches, a deterministic failure (duplicate open), and a release —
/// the same shape `tests/recovery.rs` replays, minus mechanisms that
/// cannot ride a checkpoint.
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
    cmds.push(Command::Open { session_id: 0, spec, t_max: 32, params: params() });
    cmds.push(Command::Release { session_id: 3 });
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

fn segment_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".wal"))
        .count()
}

fn releases_of(reply: Reply) -> Vec<Vec<f64>> {
    match reply {
        Reply::Releases { thetas, .. } => thetas,
        other => panic!("expected releases, got {other:?}"),
    }
}

fn bits(theta: &[f64]) -> Vec<u64> {
    theta.iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// Quiesced checkpoints
// ---------------------------------------------------------------------------

/// The headline property: cut the stream at `k`, recover, checkpoint,
/// log the rest, crash, and recover again — the tail's replayed replies
/// and every future release are bit-identical to a run that never
/// checkpointed (or crashed) at all, across different shard counts.
#[test]
fn checkpoint_mid_stream_replays_bit_identically_to_the_full_log() {
    let seed = 411;
    let cmds = command_stream(3);

    // The uninterrupted reference: full stream, then more observes on
    // every surviving session.
    let mut reference = fresh_engine(1, seed);
    let ref_replies: Vec<Reply> = cmds.iter().map(|c| reference.apply(c)).collect();
    assert!(ref_replies.iter().any(|r| matches!(r, Reply::Err(_))));
    let mut ref_future = Vec::new();
    for t in 6..9 {
        for sid in 0..3u64 {
            ref_future.push(reference.observe(sid, &point(3, t, sid)).unwrap());
        }
    }

    for k in [0, 4, 9, cmds.len()] {
        let tmp = TempDir::new(&format!("quiesced-{k}"));
        log_and_crash(tmp.path(), &cmds[..k]);

        // Recover the prefix, checkpoint it, and confirm the covered
        // segments are really gone: the checkpoint *replaces* the log.
        let mut staging = fresh_engine(2, seed);
        wal::recover(tmp.path(), &mut staging).unwrap();
        let live_sessions = (0..4u64).filter(|sid| staging.contains(*sid)).count();
        let report = wal::checkpoint(tmp.path(), &staging).unwrap();
        assert_eq!(report.sessions, live_sessions, "k = {k}");
        // Even at k = 0 the crashed writer left one (empty) segment.
        assert_eq!(report.segments_purged, 1, "k = {k}");
        assert_eq!(segment_count(tmp.path()), 0, "k = {k}: covered segments must be purged");
        drop(staging);

        // Log the tail onto the compacted directory and crash again.
        let mut w = WalWriter::create(&WalOptions::new(tmp.path()), 0).unwrap();
        for cmd in &cmds[k..] {
            w.append(cmd).unwrap();
        }
        drop(w);

        // snapshot + tail must equal the full log — under a different
        // shard count than either the reference or the staging engine.
        let mut engine = fresh_engine(3, seed);
        let mut replayed = Vec::new();
        wal::recover_with(tmp.path(), &mut engine, |_, r| replayed.push(r.clone())).unwrap();
        assert_eq!(replayed, ref_replies[k..], "k = {k}: tail replies diverged");
        for t in 6..9 {
            for sid in 0..3u64 {
                let got = engine.observe(sid, &point(3, t, sid)).unwrap();
                let want = &ref_future[(t - 6) * 3 + sid as usize];
                assert_eq!(bits(&got), bits(want), "k = {k}: release diverged at t = {t}");
            }
        }
    }
}

/// Checkpoints stack: a second checkpoint over `snapshot + tail` covers
/// everything again (superseding the first manifest), and recovery from
/// the latest generation alone still reproduces the stream.
#[test]
fn repeated_checkpoints_supersede_and_stay_bit_identical() {
    let seed = 902;
    let cmds = command_stream(3);
    let tmp = TempDir::new("stacked");

    let mut reference = fresh_engine(1, seed);
    for cmd in &cmds {
        reference.apply(cmd);
    }

    // Checkpoint after every third of the stream.
    let cuts = [cmds.len() / 3, 2 * cmds.len() / 3, cmds.len()];
    let mut logged = 0;
    let mut last_generation = None;
    for cut in cuts {
        let mut w = WalWriter::create(&WalOptions::new(tmp.path()), 0).unwrap();
        for cmd in &cmds[logged..cut] {
            w.append(cmd).unwrap();
        }
        drop(w);
        logged = cut;

        let mut staging = fresh_engine(1, seed);
        wal::recover(tmp.path(), &mut staging).unwrap();
        let report = wal::checkpoint(tmp.path(), &staging).unwrap();
        assert!(last_generation.is_none_or(|g| report.generation > g), "generations must increase");
        last_generation = Some(report.generation);
    }

    let mut engine = fresh_engine(2, seed);
    let report = wal::recover(tmp.path(), &mut engine).unwrap();
    assert_eq!(report.commands, 0, "everything is in the snapshot; nothing replays");
    for t in 6..9 {
        for sid in 0..3u64 {
            let got = engine.observe(sid, &point(3, t, sid)).unwrap();
            let want = reference.observe(sid, &point(3, t, sid)).unwrap();
            assert_eq!(bits(&got), bits(&want), "diverged at t = {t} after stacked checkpoints");
        }
    }
}

/// A session whose mechanism cannot snapshot (`PRIVINCERM` keeps the
/// full observed history) makes the quiesced checkpoint refuse — loudly,
/// and without deleting anything: the log stays the source of truth.
#[test]
fn unsnapshottable_sessions_fail_the_checkpoint_without_purging() {
    let tmp = TempDir::new("erm");
    let cmds = vec![Command::Open {
        session_id: 1,
        spec: MechanismSpec::erm_squared(2, TauRule::Fixed(4)),
        t_max: 16,
        params: params(),
    }];
    log_and_crash(tmp.path(), &cmds);

    let mut engine = fresh_engine(1, 7);
    wal::recover(tmp.path(), &mut engine).unwrap();
    let err = wal::checkpoint(tmp.path(), &engine).unwrap_err();
    assert!(matches!(err, WalError::Snapshot { .. }), "got {err:?}");
    assert!(tmp.path().join(wal::segment_file_name(0, 0)).exists(), "segments must survive");

    // The untouched log still recovers in full.
    let mut again = fresh_engine(1, 7);
    let report = wal::recover(tmp.path(), &mut again).unwrap();
    assert_eq!(report.commands, 1);
    assert!(again.contains(1));
}

// ---------------------------------------------------------------------------
// Live checkpoints through the pipelined frontend
// ---------------------------------------------------------------------------

/// `EngineHandle::checkpoint` on a serving engine, then a restart: the
/// releases after the restart continue the exact sequences a never-
/// interrupted engine produces.
#[test]
fn live_checkpoint_then_restart_continues_bit_identically() {
    let tmp = TempDir::new("live");
    let seed = 5150;
    let config = IngressConfig { num_shards: 2, seed, queue_depth: 256 };
    let options = WalOptions::new(tmp.path());
    let spec = MechanismSpec::reg1_l2(3);
    let sids: Vec<u64> = (10..16).collect();
    let mut live: Vec<Vec<f64>> = Vec::new(); // (t, sid) order, all phases

    let (handle, report) = EngineHandle::with_wal(config, &options).unwrap();
    assert_eq!(report.commands, 0);
    for &sid in &sids {
        assert_eq!(
            handle.open(sid, &spec, 32, &params()).unwrap().wait(),
            Reply::Opened { session_id: sid }
        );
    }
    for t in 0..3 {
        for &sid in &sids {
            let reply = handle.observe(sid, point(3, t, sid)).unwrap().wait();
            live.extend(releases_of(reply));
        }
    }

    let report = handle.checkpoint().unwrap();
    assert_eq!(report.sessions, sids.len());
    assert!(report.segments_purged >= 1, "the pre-checkpoint segments must be covered");

    // Traffic after the checkpoint lands in fresh segments (the tail).
    for t in 3..6 {
        for &sid in &sids {
            let reply = handle.observe(sid, point(3, t, sid)).unwrap().wait();
            live.extend(releases_of(reply));
        }
    }
    handle.close();

    // Restart: recovery boots from snapshot + tail, and the sequences
    // keep going.
    let (handle, report) = EngineHandle::with_wal(config, &options).unwrap();
    assert_eq!(report.commands, (3 * sids.len()) as u64, "only the post-checkpoint tail replays");
    for t in 6..9 {
        for &sid in &sids {
            let reply = handle.observe(sid, point(3, t, sid)).unwrap().wait();
            live.extend(releases_of(reply));
        }
    }
    handle.close();

    // The uninterrupted reference, same seed: every phase must agree.
    let mut reference = fresh_engine(1, seed);
    for &sid in &sids {
        reference.spawn_session(sid, &spec, 32, &params()).unwrap();
    }
    let mut at = 0;
    for t in 0..9 {
        for &sid in &sids {
            let want = reference.observe(sid, &point(3, t, sid)).unwrap();
            assert_eq!(bits(&live[at]), bits(&want), "t = {t}, session {sid}");
            at += 1;
        }
    }
    assert_eq!(at, live.len());
}

/// Checkpoints taken *while traffic is flowing* lose nothing: every
/// release handed out before, during, and after the checkpoints — and
/// everything recovered afterwards — matches the uninterrupted engine.
#[test]
fn checkpoint_under_live_traffic_loses_nothing() {
    let tmp = TempDir::new("concurrent");
    let seed = 31337;
    let config = IngressConfig { num_shards: 2, seed, queue_depth: 256 };
    let options = WalOptions::new(tmp.path());
    let spec = MechanismSpec::reg1_l2(3);
    let steps = 12usize;

    let (handle, _) = EngineHandle::with_wal(config, &options).unwrap();
    for sid in 0..4u64 {
        handle.open(sid, &spec, 32, &params()).unwrap().wait();
    }
    let submit = handle.submit_handle();
    let (live, reports) = std::thread::scope(|s| {
        let feeder = s.spawn(move || {
            let mut out = Vec::new();
            for t in 0..steps {
                for sid in 0..4u64 {
                    let reply = submit.observe(sid, point(3, t, sid)).unwrap().wait();
                    out.extend(releases_of(reply));
                }
            }
            out
        });
        // Race three checkpoints against the feeder.
        let reports: Vec<CheckpointReport> = (0..3).map(|_| handle.checkpoint().unwrap()).collect();
        (feeder.join().unwrap(), reports)
    });
    assert!(reports.iter().all(|r| r.sessions == 4));
    assert!(
        reports.windows(2).all(|w| w[1].generation > w[0].generation),
        "generations must increase"
    );
    handle.close();

    // Recover and take one more step per session.
    let (handle, _) = EngineHandle::with_wal(config, &options).unwrap();
    let mut after = Vec::new();
    for sid in 0..4u64 {
        let reply = handle.observe(sid, point(3, steps, sid)).unwrap().wait();
        after.extend(releases_of(reply));
    }
    handle.close();

    let mut reference = fresh_engine(1, seed);
    for sid in 0..4u64 {
        reference.spawn_session(sid, &spec, 32, &params()).unwrap();
    }
    let mut at = 0;
    for t in 0..steps {
        for sid in 0..4u64 {
            let want = reference.observe(sid, &point(3, t, sid)).unwrap();
            assert_eq!(bits(&live[at]), bits(&want), "t = {t}, session {sid}");
            at += 1;
        }
    }
    for sid in 0..4u64 {
        let want = reference.observe(sid, &point(3, steps, sid)).unwrap();
        assert_eq!(bits(&after[sid as usize]), bits(&want), "post-recovery step, session {sid}");
    }
}

/// Without a write-ahead log there is nothing to compact: `checkpoint`
/// on a plain pipelined engine is a typed configuration error.
#[test]
fn checkpoint_without_a_wal_is_invalid_config() {
    let handle =
        EngineHandle::new(IngressConfig { num_shards: 1, seed: 1, queue_depth: 8 }).unwrap();
    let err = handle.checkpoint().unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig { .. }), "got {err:?}");
    handle.close();
}

// ---------------------------------------------------------------------------
// Manifest bytes
// ---------------------------------------------------------------------------

/// Log one `OPEN` of a `Trivial` session (id 7, `t_max = 8`, unit
/// `L2Ball` in dimension 2) to shard 0, recover it into a seed-7 engine,
/// and checkpoint: the manifest is generation 0 with one chain and the
/// 115-byte `PIRS` blob of docs/PROTOCOL.md's snapshot worked example.
/// Returns the manifest's path.
fn write_worked_example_manifest(dir: &Path) -> PathBuf {
    let open = Command::Open {
        session_id: 7,
        spec: MechanismSpec::Trivial { set: SetSpec::unit_l2(2) },
        t_max: 8,
        params: params(),
    };
    log_and_crash(dir, &[open]);
    let mut engine = fresh_engine(1, 7);
    wal::recover(dir, &mut engine).unwrap();
    let report = wal::checkpoint(dir, &engine).unwrap();
    assert_eq!((report.generation, report.sessions), (0, 1));
    dir.join(wal::checkpoint_file_name(0))
}

#[test]
fn manifest_worked_example_matches_protocol_md() {
    let tmp = TempDir::new("manifest-example");
    let bytes = std::fs::read(write_worked_example_manifest(tmp.path())).unwrap();
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        // magic "PIRC", version 1, reserved
        0x50, 0x49, 0x52, 0x43, 0x01, 0x00, 0x00, 0x00,
        // body length = 148
        0x94, 0x00, 0x00, 0x00,
        // generation = 0
        0x00, 0x00, 0x00, 0x00,
        // epoch present, max epoch = 0
        0x01, 0x00, 0x00, 0x00, 0x00,
        // one chain: shard 0, next_seg_seq 1, next_record_seq 1
        0x01, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        // one snapshot of 115 bytes: the PIRS worked example, verbatim
        0x01, 0x00, 0x00, 0x00,
        0x73, 0x00, 0x00, 0x00,
        0x50, 0x49, 0x52, 0x53, 0x02, 0x00, 0x00, 0x00, 0x63, 0x00, 0x00, 0x00,
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xE5, 0xBA, 0xE3, 0x50, 0xED, 0xE3, 0x27, 0xB9,
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
        0x8D, 0xED, 0xB5, 0xA0, 0xF7, 0xC6, 0xB0, 0x3E,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
        0x8D, 0xED, 0xB5, 0xA0, 0xF7, 0xC6, 0xB0, 0x3E,
        0x12, 0x00, 0x00, 0x00, 0x03, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
        0x09, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x14, 0xB7, 0xCC, 0x69,
        // CRC-32 over header + body
        0xFD, 0x23, 0x1E, 0x1F,
    ];
    assert_eq!(bytes.len(), 164);
    assert_eq!(bytes, expected, "docs/PROTOCOL.md's PIRC worked example is stale");
}

/// Recover `dir` with the manifest replaced by `bytes`: it must be
/// refused as `CorruptManifest` — never `Ok`, never a panic — since the
/// segments the manifest covered are already gone.
fn assert_manifest_refused(dir: &Path, manifest: &Path, bytes: &[u8], what: &str) {
    std::fs::write(manifest, bytes).unwrap();
    let mut engine = fresh_engine(1, 7);
    match wal::recover(dir, &mut engine) {
        Err(WalError::CorruptManifest { .. }) => {}
        other => panic!("{what}: expected CorruptManifest, got {other:?}"),
    }
}

#[test]
fn every_manifest_truncation_is_corrupt_manifest() {
    let tmp = TempDir::new("manifest-truncation");
    let path = write_worked_example_manifest(tmp.path());
    let bytes = std::fs::read(&path).unwrap();
    for cut in 0..bytes.len() {
        assert_manifest_refused(tmp.path(), &path, &bytes[..cut], &format!("prefix of {cut}"));
    }
}

#[test]
fn every_manifest_bit_flip_is_corrupt_manifest() {
    let tmp = TempDir::new("manifest-bit-flip");
    let path = write_worked_example_manifest(tmp.path());
    let bytes = std::fs::read(&path).unwrap();
    for i in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[i / 8] ^= 1 << (i % 8);
        assert_manifest_refused(tmp.path(), &path, &flipped, &format!("flip of bit {i}"));
    }
}
