//! Writer-level unit tests for the write-ahead log: segment rotation,
//! epoch bumping across writer generations, retention (`purge`), option
//! validation, error rendering, and the byte-pinned worked example that
//! `docs/PROTOCOL.md` reproduces verbatim.
//!
//! Crash-recovery and fault-injection properties live in the root
//! `tests/recovery.rs` suite; this file pins the writer mechanics they
//! build on.

use std::path::PathBuf;

use pir_engine::wal::{
    self, decode_segment, purge, scan_segment, segment_file_name, FsyncPolicy, WalError,
    WalOptions, WalWriter, RECORD_OVERHEAD, SEGMENT_HEADER_LEN,
};
use pir_engine::{wire, Command};
use pir_erm::DataPoint;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pir-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn options(dir: &TempDir) -> WalOptions {
    let mut o = WalOptions::new(&dir.0);
    o.fsync = FsyncPolicy::Off;
    o
}

fn release(sid: u64) -> Command {
    Command::Release { session_id: sid }
}

fn observe(sid: u64) -> Command {
    Command::Observe { session_id: sid, point: DataPoint::new(vec![0.5, -0.25], 0.125) }
}

fn record_len(cmd: &Command) -> u64 {
    (RECORD_OVERHEAD + wire::encode_command(cmd).unwrap().len()) as u64
}

#[test]
fn rotation_produces_a_chained_segment_sequence() {
    let tmp = TempDir::new("rotation");
    let cmds: Vec<Command> = (0..7).map(observe).collect();
    // Fit exactly two records per segment: rotation triggers on the
    // append that would exceed the cap, never mid-record.
    let mut opts = options(&tmp);
    opts.segment_bytes = SEGMENT_HEADER_LEN as u64 + record_len(&cmds[0]) + record_len(&cmds[1]);

    let mut w = WalWriter::create(&opts, 2).unwrap();
    assert_eq!(w.shard(), 2);
    assert_eq!(w.epoch(), 0, "fresh directory starts at epoch 0");
    for c in &cmds {
        w.append(c).unwrap();
    }
    assert_eq!(w.next_record_seq(), 7);
    w.finish().unwrap();

    // 7 records, 2 per segment → segments of 2, 2, 2, 1.
    for (seg, expect) in [(0u32, 2usize), (1, 2), (2, 2), (3, 1)] {
        let path = tmp.0.join(segment_file_name(2, seg));
        let (header, decoded) = decode_segment(&path).unwrap();
        assert_eq!(header.shard, 2);
        assert_eq!(header.seg_seq, seg);
        assert_eq!(header.epoch, 0);
        assert_eq!(
            header.first_record_seq,
            seg * 2,
            "each header pins the count of records before it"
        );
        assert_eq!(decoded.len(), expect, "segment {seg}");
    }
    assert!(!tmp.0.join(segment_file_name(2, 4)).exists());
}

#[test]
fn each_writer_generation_bumps_the_epoch() {
    let tmp = TempDir::new("epochs");
    let opts = options(&tmp);

    let mut w = WalWriter::create(&opts, 0).unwrap();
    w.append(&release(1)).unwrap();
    assert_eq!(w.epoch(), 0);
    w.finish().unwrap();

    // Same shard restarted: new epoch, new segment — never appends to an
    // existing file.
    let mut w = WalWriter::create(&opts, 0).unwrap();
    assert_eq!(w.epoch(), 1);
    w.append(&release(2)).unwrap();
    let seg1 = w.current_segment().to_path_buf();
    assert_eq!(seg1, tmp.0.join(segment_file_name(0, 1)));
    w.finish().unwrap();

    // A different shard in the same directory sees both and goes above.
    let w = WalWriter::create(&opts, 1).unwrap();
    assert_eq!(w.epoch(), 2, "epoch is max over the whole directory, not per shard");
    w.finish().unwrap();

    let (h0, _) = decode_segment(&tmp.0.join(segment_file_name(0, 0))).unwrap();
    let (h1, _) = decode_segment(&seg1).unwrap();
    assert_eq!((h0.epoch, h1.epoch), (0, 1));
    assert_eq!(h1.first_record_seq, 1, "record seqs continue across the shard chain");
}

#[test]
fn purge_removes_segments_and_leaves_foreign_files() {
    let tmp = TempDir::new("purge");
    let opts = options(&tmp);
    let mut w = WalWriter::create(&opts, 0).unwrap();
    w.append(&release(1)).unwrap();
    w.finish().unwrap();
    let w = WalWriter::create(&opts, 3).unwrap();
    w.finish().unwrap();
    std::fs::write(tmp.0.join("notes.txt"), b"operator scratch").unwrap();

    assert_eq!(purge(&tmp.0).unwrap(), 2, "both shard chains removed");
    assert!(tmp.0.join("notes.txt").exists(), "non-.wal files are not ours to delete");
    assert_eq!(purge(&tmp.0).unwrap(), 0, "idempotent");
    let missing = tmp.0.join("never-created");
    assert_eq!(purge(&missing).unwrap(), 0, "missing directory is an empty log");

    // After a purge the next writer is epoch 0 again: a fresh history.
    let w = WalWriter::create(&opts, 0).unwrap();
    assert_eq!(w.epoch(), 0);
    w.finish().unwrap();
}

#[test]
fn invalid_options_are_rejected_before_any_file_is_touched() {
    let tmp = TempDir::new("options");

    let mut opts = options(&tmp);
    opts.fsync = FsyncPolicy::Interval { every: 0 };
    match WalWriter::create(&opts, 0) {
        Err(WalError::InvalidOptions { reason }) => assert!(reason.contains("fsync interval")),
        other => panic!("expected InvalidOptions, got {other:?}"),
    }

    let mut opts = options(&tmp);
    opts.segment_bytes = 0;
    match WalWriter::create(&opts, 0) {
        Err(WalError::InvalidOptions { reason }) => assert!(reason.contains("segment_bytes")),
        other => panic!("expected InvalidOptions, got {other:?}"),
    }

    assert!(!tmp.0.exists(), "rejected options must not create the directory");
}

#[test]
fn a_poisoned_writer_stays_poisoned() {
    let tmp = TempDir::new("poison");
    // One record per segment: every append after the first rotates.
    let mut opts = options(&tmp);
    opts.segment_bytes = 1;
    let mut w = WalWriter::create(&opts, 0).unwrap();
    w.append(&release(1)).unwrap();

    // Obstruct the next segment's path: the rotation inside the next
    // append fails, which must poison the writer for good.
    let blocked = tmp.0.join(segment_file_name(0, 1));
    std::fs::create_dir(&blocked).unwrap();
    assert!(matches!(w.append(&release(2)), Err(WalError::Io { .. })));

    // Even with the obstruction gone the writer refuses: it can no
    // longer promise the chain on disk matches what it acknowledged.
    std::fs::remove_dir(&blocked).unwrap();
    assert!(matches!(w.append(&release(3)), Err(WalError::Poisoned { .. })));
}

#[test]
fn unencodable_commands_are_rejected_without_touching_the_log() {
    use pir_engine::{MechanismSpec, SetSpec};
    use std::sync::Arc;

    let tmp = TempDir::new("unencodable");
    let mut w = WalWriter::create(&options(&tmp), 0).unwrap();
    let spec = MechanismSpec::Trivial {
        set: SetSpec::Custom(Arc::new(|| {
            Box::new(pir_geometry::L2Ball::unit(2)) as Box<dyn pir_geometry::ConvexSet>
        })),
    };
    let params = pir_dp::PrivacyParams::approx(1.0, 1e-6).unwrap();
    let cmd = Command::Open { session_id: 1, spec, t_max: 8, params };
    assert!(matches!(w.append(&cmd), Err(WalError::Wire { .. })));
    // The rejection is pre-write: the writer is NOT poisoned and the
    // chain continues exactly where it was.
    w.append(&release(1)).unwrap();
    assert_eq!(w.next_record_seq(), 1);
    w.finish().unwrap();
    let (_, decoded) = decode_segment(&tmp.0.join(segment_file_name(0, 0))).unwrap();
    assert_eq!(decoded.len(), 1, "only the encodable command reached the log");
}

#[test]
fn wal_errors_render_their_forensics() {
    let displays = [
        format!("{}", WalError::BadMagic { file: "x.wal".into(), got: [0xAB, 0xAB, 0xAB, 0xAB] }),
        format!(
            "{}",
            WalError::ChecksumMismatch {
                file: "x.wal".into(),
                offset: 28,
                expected: 0xDEAD_BEEF,
                got: 0x1234_5678,
            }
        ),
        format!("{}", WalError::MissingSegment { shard: 0, expected: 1, got: 2 }),
        format!("{}", WalError::OutOfOrder { file: "x.wal".into(), expected: 4, got: 9 }),
    ];
    for (rendered, needle) in displays.iter().zip(["magic", "checksum", "missing", "record seq"]) {
        assert!(rendered.to_lowercase().contains(needle), "{rendered:?} should mention {needle:?}");
    }
}

/// The worked example from `docs/PROTOCOL.md`, pinned byte for byte: one
/// fresh segment (shard 0, epoch 0) holding a single
/// `Release {{ session_id: 7 }}` record. If this test moves, the
/// protocol document and every reader of the format move with it —
/// change nothing here without a version bump.
#[test]
fn protocol_worked_example_is_bit_exact() {
    const EXPECTED: [u8; 64] = [
        // -- segment header (28 bytes) -----------------------------------
        0x50, 0x49, 0x52, 0x4c, // magic "PIRL"
        0x02, 0x00, 0x00, 0x00, // version 2, reserved
        0x00, 0x00, 0x00, 0x00, // epoch 0
        0x00, 0x00, 0x00, 0x00, // shard 0
        0x00, 0x00, 0x00, 0x00, // seg_seq 0
        0x00, 0x00, 0x00, 0x00, // first_record_seq 0
        0xdc, 0x69, 0xbb, 0x20, // header CRC32 (bytes 0..24) = 0x20bb69dc
        // -- record header (12 bytes) -------------------------------------
        0x14, 0x00, 0x00, 0x00, // payload length 20
        0x00, 0x00, 0x00, 0x00, // record seq 0
        0xb8, 0xe0, 0xd3, 0x9d, // head CRC32 (previous 8 bytes) = 0x9dd3e0b8
        // -- payload: the PIRW wire frame for Release { session_id: 7 } ----
        0x50, 0x49, 0x52, 0x57, // wire magic "PIRW"
        0x01, 0x04, 0x00, 0x00, // wire version 1, opcode 4 (Release), reserved
        0x08, 0x00, 0x00, 0x00, // wire payload length 8
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // session_id 7
        // -- payload CRC32 -------------------------------------------------
        0x67, 0xad, 0x02, 0x9a, // = 0x9a02ad67
    ];

    let tmp = TempDir::new("worked-example");
    let mut w = WalWriter::create(&options(&tmp), 0).unwrap();
    w.append(&release(7)).unwrap();
    let path = w.current_segment().to_path_buf();
    w.finish().unwrap();

    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes, EXPECTED, "on-disk format drifted from docs/PROTOCOL.md");

    // Cross-check the pinned checksums against the implementation.
    assert_eq!(wal::crc32(&EXPECTED[0..24]), 0x20bb_69dc);
    assert_eq!(wal::crc32(&EXPECTED[28..36]), 0x9dd3_e0b8);
    assert_eq!(wal::crc32(&EXPECTED[40..60]), 0x9a02_ad67);

    // And the tolerant scanner agrees on what it holds.
    let scanned = scan_segment(&path).unwrap();
    assert_eq!(scanned.commands.len(), 1);
    assert!(scanned.torn_tail.is_none());
}
