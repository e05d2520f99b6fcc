//! Fault injection for the `PIRS` session-snapshot format, mirroring the
//! WAL suites in `tests/recovery.rs`: flipped bytes, forged headers,
//! truncation at every byte prefix, oversized length fields — every
//! corruption must surface as a typed [`SnapshotError`], never a panic
//! and never a silently-wrong session.

mod common;

use private_incremental_regression::core::lift::smoothness_bracket;
use private_incremental_regression::core::CoreError;
use private_incremental_regression::prelude::*;
use proptest::prelude::*;

const SEED: u64 = 2024;
const SESSION: u64 = 0xFEED;

fn params() -> PrivacyParams {
    PrivacyParams::approx(1.0, 1e-6).unwrap()
}

fn point(d: usize, t: usize) -> DataPoint {
    let mut x = vec![0.0f64; d];
    x[t % d] = 0.6;
    DataPoint::new(x, 0.2)
}

/// A snapshot of a `PRIVINCREG1` session (d = 3, T = 16) after `steps`
/// points.
fn snapshot_after(steps: usize) -> Vec<u8> {
    let mut engine =
        ShardedEngine::new(EngineConfig { num_shards: 1, seed: SEED, parallel: false }).unwrap();
    engine.spawn_session(SESSION, &MechanismSpec::reg1_l2(3), 16, &params()).unwrap();
    for t in 0..steps {
        engine.observe(SESSION, &point(3, t)).unwrap();
    }
    engine.with_session(SESSION, |s| s.snapshot().unwrap()).unwrap()
}

/// A real snapshot of a mid-stream `PRIVINCREG1` session — the honest
/// artifact every fault below corrupts.
fn real_blob() -> Vec<u8> {
    snapshot_after(5)
}

/// The session at `t = 11`: tree levels 0, 1 and 3 are live, 2 and 4
/// are not, so the live-level tree layout skips rows between live ones.
fn deep_blob() -> Vec<u8> {
    snapshot_after(11)
}

/// `real_blob` as a build before the live-level tree layout wrote it:
/// the same snapshot around the full-level mechanism state blob.
fn full_level_blob() -> Vec<u8> {
    let blob = real_blob();
    common::with_snapshot_state(&blob, &common::full_level_state(common::snapshot_state(&blob), 16))
}

/// A snapshot of a `PRIVINCREG2` session (d = 4, m = 3, T = 16) after 11
/// points: its state blob ends with the carried lift smoothness.
fn reg2_blob() -> Vec<u8> {
    let mut engine =
        ShardedEngine::new(EngineConfig { num_shards: 1, seed: SEED, parallel: false }).unwrap();
    engine.spawn_session(SESSION, &reg2_spec(), 16, &params()).unwrap();
    for t in 0..11 {
        engine.observe(SESSION, &point(4, t)).unwrap();
    }
    engine.with_session(SESSION, |s| s.snapshot().unwrap()).unwrap()
}

fn reg2_spec() -> MechanismSpec {
    MechanismSpec::Reg2 {
        set: SetSpec::unit_l1(4),
        domain_width: 1.0,
        config: PrivIncReg2Config { m_override: Some(3), lift_iters: 40, ..Default::default() },
    }
}

/// Every blob the sweeps corrupt: the shallow session, the deep one,
/// the full-level form of the shallow one, and a `PRIVINCREG2` session.
fn sweep_blobs() -> [Vec<u8>; 4] {
    [real_blob(), deep_blob(), full_level_blob(), reg2_blob()]
}

/// Restore must answer every corruption with `Err`, never a panic. The
/// blob layout: 12-byte header (magic, version, reserved, body length),
/// body, 4-byte CRC trailer.
fn restore(bytes: &[u8]) -> Result<StreamSession, SnapshotError> {
    StreamSession::restore(bytes, SEED)
}

// ---------------------------------------------------------------------------
// Header forgery
// ---------------------------------------------------------------------------

#[test]
fn forged_magic_is_bad_magic() {
    let mut blob = real_blob();
    blob[0..4].copy_from_slice(b"PIRL"); // a WAL segment's magic, not a snapshot's
    assert!(matches!(restore(&blob), Err(SnapshotError::BadMagic { got }) if &got == b"PIRL"));
}

#[test]
fn future_version_is_unsupported() {
    let mut blob = real_blob();
    blob[4] = 3;
    assert!(matches!(restore(&blob), Err(SnapshotError::UnsupportedVersion { got: 3 })));
}

#[test]
fn legacy_version_1_blob_restores_without_the_fingerprint_check() {
    // Readers grow backwards: a blob written by a pre-fingerprint build
    // (version 1, no fingerprint field) still restores — under the old
    // trust-the-caller seed contract documented in KNOWN_FAILURES.md.
    let mut v1 = {
        let blob = real_blob();
        let mut v1 = Vec::with_capacity(blob.len() - 8);
        v1.extend_from_slice(&blob[..20]); // header + session id
        v1.extend_from_slice(&blob[28..]); // skip the fingerprint
        v1
    };
    v1[4] = 1;
    let body_len = u32::from_le_bytes(v1[8..12].try_into().unwrap()) - 8;
    v1[8..12].copy_from_slice(&body_len.to_le_bytes());
    refix_crc(&mut v1);
    let session = restore(&v1).unwrap();
    assert_eq!(session.id(), SESSION);
    assert_eq!(session.t(), 5);
    // No fingerprint to check, so even a wrong seed is (legacy) accepted.
    StreamSession::restore(&v1, SEED + 1).unwrap();
}

#[test]
fn nonzero_reserved_bytes_are_rejected() {
    for i in 5..8 {
        let mut blob = real_blob();
        blob[i] = 0x5A;
        assert!(matches!(restore(&blob), Err(SnapshotError::NonZeroReserved)), "reserved byte {i}");
    }
}

#[test]
fn oversized_body_length_is_rejected_before_allocation() {
    let mut blob = real_blob();
    // Claim a body far past the 64 MiB cap: the decoder must refuse the
    // *claim*, not attempt to read (or allocate) that much.
    blob[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(restore(&blob), Err(SnapshotError::BodyTooLarge { len: u32::MAX })));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut blob = real_blob();
    blob.push(0);
    assert!(matches!(restore(&blob), Err(SnapshotError::Malformed { .. })));
}

// ---------------------------------------------------------------------------
// Truncation at every byte prefix
// ---------------------------------------------------------------------------

/// Every strict prefix of a valid snapshot is a typed error — a torn
/// snapshot can never restore to a shorter-but-plausible session.
#[test]
fn every_truncation_prefix_is_a_typed_error() {
    for blob in sweep_blobs() {
        for cut in 0..blob.len() {
            match restore(&blob[..cut]) {
                Err(
                    SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Malformed { .. },
                ) => {}
                other => panic!("prefix of {cut} bytes: expected a typed error, got {other:?}"),
            }
        }
        // And the untouched blob still restores (the harness itself is sound).
        restore(&blob).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Bit flips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Flip any single bit anywhere in the blob: restore must fail with
    /// a typed error (the CRC covers header and body, and header fields
    /// are validated before the CRC is even checked).
    #[test]
    fn every_bit_flip_is_detected(
        which in 0usize..4,
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let mut blob = match which {
            0 => real_blob(),
            1 => deep_blob(),
            2 => full_level_blob(),
            _ => reg2_blob(),
        };
        let idx = ((blob.len() as f64) * byte_frac) as usize;
        let idx = idx.min(blob.len() - 1);
        blob[idx] ^= 1 << bit;
        // Any typed error is correct; a panic (not an Err) fails the test.
        prop_assert!(
            restore(&blob).is_err(),
            "flipped bit {bit} of byte {idx} went undetected"
        );
    }
}

// ---------------------------------------------------------------------------
// Checksummed forgeries: internally consistent, semantically wrong
// ---------------------------------------------------------------------------

/// Re-seal a tampered blob with a fresh CRC so only semantic validation
/// can catch it.
fn refix_crc(blob: &mut [u8]) {
    let crc_at = blob.len() - 4;
    let crc = pir_engine::wal::crc32(&blob[..crc_at]);
    blob[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

/// Body offsets (after the 12-byte header): session_id, seed
/// fingerprint, t_max, t, then four f64 privacy fields — t sits at
/// header + 24.
const T_OFFSET: usize = 12 + 24;

#[test]
fn forged_step_count_fails_restore_validation() {
    // Claim the stream is further along than the serialized mechanism
    // state: the rebuilt session disagrees and restore refuses.
    let mut blob = real_blob();
    blob[T_OFFSET..T_OFFSET + 8].copy_from_slice(&6u64.to_le_bytes());
    refix_crc(&mut blob);
    let err = restore(&blob).unwrap_err();
    assert!(matches!(err, SnapshotError::Restore { .. }), "got {err:?}");
}

#[test]
fn step_count_past_horizon_is_malformed() {
    let mut blob = real_blob();
    blob[T_OFFSET..T_OFFSET + 8].copy_from_slice(&10_000u64.to_le_bytes());
    refix_crc(&mut blob);
    let err = restore(&blob).unwrap_err();
    assert!(matches!(err, SnapshotError::Malformed { .. }), "got {err:?}");
}

#[test]
fn forged_privacy_ledger_fails_restore_validation() {
    // spent_epsilon is the third f64 field (header + 4*8 fixed u64s).
    let off = 12 + 32 + 16;
    let mut blob = real_blob();
    blob[off..off + 8].copy_from_slice(&0.5f64.to_bits().to_le_bytes());
    refix_crc(&mut blob);
    let err = restore(&blob).unwrap_err();
    assert!(matches!(err, SnapshotError::Restore { .. }), "got {err:?}");
}

#[test]
fn forged_inner_length_is_malformed() {
    // The spec length prefix sits after the eight fixed u64/f64 fields;
    // inflating it (CRC re-fixed) must die in body decoding, not read
    // out of bounds.
    let off = 12 + 8 * 8;
    let mut blob = real_blob();
    blob[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    refix_crc(&mut blob);
    let err = restore(&blob).unwrap_err();
    assert!(matches!(err, SnapshotError::Malformed { .. }), "got {err:?}");
}

/// A forged *session id* (CRC re-fixed) would respawn the mechanism
/// under the wrong per-session seed — which the seed fingerprint is
/// keyed to catch: the recorded digest was taken over
/// `(engine seed, original id)`, so it cannot match the forged id and
/// restore refuses before rebuilding anything.
#[test]
fn forged_session_id_trips_the_seed_fingerprint() {
    let mut blob = real_blob();
    blob[12..20].copy_from_slice(&0xBEEFu64.to_le_bytes());
    refix_crc(&mut blob);
    let err = restore(&blob).unwrap_err();
    assert!(matches!(err, SnapshotError::SeedMismatch { .. }), "got {err:?}");
}

/// Restoring an honest snapshot into a wrong-seeded engine fails loudly
/// with [`SnapshotError::SeedMismatch`] instead of silently regenerating
/// construction-time randomness (Mechanism 2's sketch) under the new
/// seed.
#[test]
fn wrong_engine_seed_is_refused_before_respawn() {
    let blob = real_blob();
    for wrong in [SEED + 1, SEED ^ 0xFFFF_FFFF, 0] {
        let err = StreamSession::restore(&blob, wrong).unwrap_err();
        assert!(matches!(err, SnapshotError::SeedMismatch { .. }), "seed {wrong}: got {err:?}");
    }
    // The honest seed still restores: the tripwire has no false positives.
    restore(&blob).unwrap();
}

// ---------------------------------------------------------------------------
// Mechanism state blobs: the layer under the envelope
// ---------------------------------------------------------------------------

const T_MAX: usize = 16;
const D: usize = 3;

/// A fresh `PRIVINCREG1` (d = 3, T = 16) and its state blob after 11
/// points (tree levels 0, 1 and 3 live).
fn reg1_state() -> (PrivIncReg1, Vec<u8>) {
    let spawn = || {
        let mut rng = NoiseRng::seed_from_u64(SEED);
        PrivIncReg1::new(Box::new(L2Ball::unit(D)), T_MAX, &params(), &mut rng, Default::default())
            .unwrap()
    };
    let mut mech = spawn();
    for t in 0..11 {
        mech.observe(&point(D, t)).unwrap();
    }
    let mut blob = Vec::new();
    mech.save_state(&mut blob).unwrap();
    (spawn(), blob)
}

/// Offsets of the three step counters in a `reg1_state` blob: the
/// mechanism's after the tag, then each tree's at its start (after the
/// counted warm-start iterate). A live-level tree is `t`, 4 generator
/// words, the dimension, 3 live `(a_j, b_j)` pairs and the release; a
/// full-level one counts all 5 levels of `a` and of `b`.
fn reg1_t_offsets(full_level: bool) -> [usize; 3] {
    let xy = 1 + 8 + 8 + 8 * D;
    let xy_len = if full_level {
        8 + 32 + 2 * (8 + 5 * (8 + 8 * D)) + 8 + 8 * D
    } else {
        8 + 32 + 8 + 2 * 3 * 8 * D + 8 * D
    };
    [1, xy, xy + xy_len]
}

fn is_invalid_state(r: Result<(), CoreError>) -> bool {
    matches!(r, Err(CoreError::InvalidState { .. }))
}

/// A live-level tree carries exactly `popcount(t)` levels and no count of
/// its own, so any step counter whose bits disagree with the rows that
/// follow misaligns the blob — a typed `InvalidState`, never a panic or a
/// shifted restore.
#[test]
fn live_row_count_other_than_popcount_is_invalid_state() {
    let (mut mech, blob) = reg1_state();
    let [_, xy, xx] = reg1_t_offsets(false);
    assert_eq!(blob[xy..xy + 8], 11u64.to_le_bytes(), "offset arithmetic");
    assert_eq!(blob[xx..xx + 8], 11u64.to_le_bytes(), "offset arithmetic");
    for (at, dim) in [(xy, D as u64), (xx, (D * D) as u64)] {
        // 0, 8 and 1 (fewer live levels), 15 (more), with the same t_max.
        for forged in [0u64, 1, 8, 15] {
            let mut bad = blob.clone();
            bad[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            assert!(is_invalid_state(mech.load_state(&bad)), "tree t at {at} forged to {forged}");
        }
        // The dimension field claims rows of another width.
        assert_eq!(blob[at + 40..at + 48], dim.to_le_bytes(), "offset arithmetic");
        for forged in [0, dim - 1, dim + 1, u64::MAX] {
            let mut bad = blob.clone();
            bad[at + 40..at + 48].copy_from_slice(&forged.to_le_bytes());
            assert!(is_invalid_state(mech.load_state(&bad)), "tree dim at {at} forged to {forged}");
        }
    }
    mech.load_state(&blob).unwrap();
    assert_eq!(mech.t(), 11);
}

/// `t` past the horizon is refused even when every counter agrees and the
/// rows line up: 19 = 0b10011 has as many live levels as 11 = 0b1011.
#[test]
fn step_count_past_the_horizon_is_invalid_state() {
    let (mut mech, blob) = reg1_state();
    for (full_level, forged_blob) in
        [(false, blob.clone()), (true, common::full_level_state(&blob, T_MAX))]
    {
        let offsets = reg1_t_offsets(full_level);
        for at in offsets {
            assert_eq!(forged_blob[at..at + 8], 11u64.to_le_bytes(), "offset arithmetic");
        }
        let mut bad = forged_blob.clone();
        for at in offsets {
            bad[at..at + 8].copy_from_slice(&19u64.to_le_bytes());
        }
        assert!(is_invalid_state(mech.load_state(&bad)));
        // Only the trees past the horizon: the counters disagree.
        let mut bad = forged_blob.clone();
        for at in &offsets[1..] {
            bad[*at..*at + 8].copy_from_slice(&19u64.to_le_bytes());
        }
        assert!(is_invalid_state(mech.load_state(&bad)));
    }
}

/// A full-level blob's rows outside the bits of `t` must be exactly
/// `+0.0` bits: the live form would silently drop anything else. `-0.0`
/// and a subnormal are refused in the dead levels 2 and 4 of both rows
/// of both trees.
#[test]
fn full_level_nonzero_dead_row_is_invalid_state() {
    let (mut mech, blob) = reg1_state();
    let full = common::full_level_state(&blob, T_MAX);
    mech.load_state(&full).unwrap();
    let [_, xy, xx] = reg1_t_offsets(true);
    for (tree, dim) in [(xy, D), (xx, D * D)] {
        let row = |rows_at: usize, j: usize| rows_at + 8 + j * (8 + 8 * dim) + 8;
        let a_rows = tree + 8 + 32;
        let b_rows = a_rows + 8 + 5 * (8 + 8 * dim);
        for at in [row(a_rows, 2), row(a_rows, 4), row(b_rows, 2), row(b_rows, 4)] {
            assert_eq!(full[at..at + 8], [0; 8], "offset arithmetic");
            for value in [-0.0f64, 5e-324] {
                let mut bad = full.clone();
                bad[at..at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
                assert!(is_invalid_state(mech.load_state(&bad)), "{value:e} at {at}");
            }
        }
    }
}

/// Every prefix of either layout's mechanism blob is `InvalidState`, and
/// every single-bit flip either loads or is `InvalidState` — no flip
/// panics (a flipped float in a live row is a different, valid state;
/// the `PIRS` checksum above is what catches those).
#[test]
fn mechanism_blob_truncations_and_bit_flips_are_typed() {
    let (mut mech, blob) = reg1_state();
    for bytes in [blob.clone(), common::full_level_state(&blob, T_MAX)] {
        for cut in 0..bytes.len() {
            assert!(is_invalid_state(mech.load_state(&bytes[..cut])), "prefix of {cut} bytes");
        }
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let r = mech.load_state(&bad);
            assert!(r.is_ok() || is_invalid_state(r), "flipped bit {bit}");
        }
    }
}

/// A fresh `PRIVINCREG2` (d = 4, m = 3, T = 16) and its state blob after
/// 11 points, which carries the lift smoothness.
fn reg2_state() -> (PrivIncReg2, Vec<u8>) {
    let spawn = || {
        let mut rng = NoiseRng::seed_from_u64(SEED);
        let config =
            PrivIncReg2Config { m_override: Some(3), lift_iters: 40, ..Default::default() };
        PrivIncReg2::new(Box::new(L1Ball::unit(4)), 1.0, T_MAX, &params(), &mut rng, config)
            .unwrap()
    };
    let mut mech = spawn();
    for t in 0..11 {
        mech.observe(&point(4, t)).unwrap();
    }
    let mut blob = Vec::new();
    mech.save_state(&mut blob).unwrap();
    (spawn(), blob)
}

/// A carried smoothness that is not finite, not positive, outside the
/// `O(m·d)` bracket the re-sampled sketch allows, or behind a presence
/// byte other than 0 or 1 is `InvalidState` — and leaves the mechanism
/// as it was.
#[test]
fn forged_carried_smoothness_is_invalid_state() {
    let (mut mech, blob) = reg2_state();
    let at = blob.len() - 8;
    assert_eq!(blob[at - 1], 1, "the blob carries a value");
    let carried = f64::from_bits(u64::from_le_bytes(blob[at..].try_into().unwrap()));
    let (lo, hi) = smoothness_bracket(mech.sketch());
    assert!(lo <= carried && carried <= hi);
    for forged in
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -carried, lo / 2.0, 2.0 * hi]
    {
        let mut bad = blob.clone();
        bad[at..].copy_from_slice(&forged.to_bits().to_le_bytes());
        assert!(is_invalid_state(mech.load_state(&bad)), "carried {forged:e}");
        assert_eq!(mech.t(), 0, "a refused blob left state behind");
    }
    for presence in [2u8, 0x80, 0xFF] {
        let mut bad = blob.clone();
        bad[at - 1] = presence;
        assert!(is_invalid_state(mech.load_state(&bad)), "presence byte {presence}");
    }
    // "Absent", yet the value's bytes follow: trailing bytes.
    let mut bad = blob.clone();
    bad[at - 1] = 0;
    assert!(is_invalid_state(mech.load_state(&bad)));
    mech.load_state(&blob).unwrap();
    assert_eq!(mech.t(), 11);
}

/// Every prefix of a `PRIVINCREG2` blob in each layout the reader takes
/// (tag 7, and the tag 6 and full-level tag 2 of earlier builds) is
/// `InvalidState`, and every single-bit flip either loads or is
/// `InvalidState`.
#[test]
fn reg2_blob_truncations_and_bit_flips_are_typed() {
    let (mut mech, blob) = reg2_state();
    let live = common::without_smoothness(&blob);
    for bytes in [blob.clone(), common::full_level_state(&live, T_MAX), live] {
        for cut in 0..bytes.len() {
            assert!(is_invalid_state(mech.load_state(&bytes[..cut])), "prefix of {cut} bytes");
        }
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let r = mech.load_state(&bad);
            assert!(r.is_ok() || is_invalid_state(r), "flipped bit {bit}");
        }
        mech.load_state(&bytes).unwrap();
    }
}
