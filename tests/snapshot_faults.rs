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

/// The previous build's snapshots of the `deep_blob` and `reg2_blob`
/// sessions: their state blobs carry tags 5 and 7, with full-width
/// second-moment trees, which restore packs.
fn legacy_blobs() -> [Vec<u8>; 2] {
    [
        common::unhex(include_str!("fixtures/reg1_tag5_snapshot.hex")),
        common::unhex(include_str!("fixtures/reg2_tag7_snapshot.hex")),
    ]
}

/// Every blob the sweeps corrupt: the shallow session, the deep one,
/// a `PRIVINCREG2` session, and the previous build's snapshots of the
/// last two.
fn sweep_blobs() -> [Vec<u8>; 5] {
    let [legacy_reg1, legacy_reg2] = legacy_blobs();
    [real_blob(), deep_blob(), reg2_blob(), legacy_reg1, legacy_reg2]
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

/// Version 1 (no seed fingerprint) is outside the read window: a blob
/// laid out as a pre-fingerprint build wrote it is refused by its
/// version byte, under the right engine seed and a wrong one alike.
#[test]
fn version_1_blob_is_unsupported_under_any_seed() {
    let blob = real_blob();
    let mut v1 = [&blob[..20], &blob[28..]].concat(); // header + id, then past the fingerprint
    v1[4] = 1;
    let body_len = u32::from_le_bytes(v1[8..12].try_into().unwrap()) - 8;
    v1[8..12].copy_from_slice(&body_len.to_le_bytes());
    refix_crc(&mut v1);
    for seed in [SEED, SEED + 1] {
        let err = StreamSession::restore(&v1, seed).unwrap_err();
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion { got: 1 }),
            "seed {seed}: {err:?}"
        );
    }
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
        which in 0usize..5,
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let mut blob = match which {
            0 => real_blob(),
            1 => deep_blob(),
            2 => reg2_blob(),
            _ => legacy_blobs()[which - 3].clone(),
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
/// counted warm-start iterate). A tree is `t`, 4 generator words, the
/// dimension, 3 live `(a_j, b_j)` pairs and the release.
fn reg1_t_offsets() -> [usize; 3] {
    let xy = 1 + 8 + 8 + 8 * D;
    [1, xy, xy + 8 + 32 + 8 + 2 * 3 * 8 * D + 8 * D]
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
    let [_, xy, xx] = reg1_t_offsets();
    assert_eq!(blob[xy..xy + 8], 11u64.to_le_bytes(), "offset arithmetic");
    assert_eq!(blob[xx..xx + 8], 11u64.to_le_bytes(), "offset arithmetic");
    for (at, dim) in [(xy, D as u64), (xx, (D * (D + 1) / 2) as u64)] {
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
    let offsets = reg1_t_offsets();
    for at in offsets {
        assert_eq!(blob[at..at + 8], 11u64.to_le_bytes(), "offset arithmetic");
    }
    let mut bad = blob.clone();
    for at in offsets {
        bad[at..at + 8].copy_from_slice(&19u64.to_le_bytes());
    }
    assert!(is_invalid_state(mech.load_state(&bad)));
    // Only the trees past the horizon: the counters disagree.
    let mut bad = blob.clone();
    for at in &offsets[1..] {
        bad[*at..*at + 8].copy_from_slice(&19u64.to_le_bytes());
    }
    assert!(is_invalid_state(mech.load_state(&bad)));
}

/// Every prefix of the mechanism blob is `InvalidState`, and every
/// single-bit flip either loads or is `InvalidState` — no flip panics (a
/// flipped float in a live row is a different, valid state; the `PIRS`
/// checksum above is what catches those).
#[test]
fn mechanism_blob_truncations_and_bit_flips_are_typed() {
    let (mut mech, bytes) = reg1_state();
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
    // The retired tag 6 laid out as its last writer did: no smoothness.
    let tag6 = [&[6u8][..], &blob[1..at - 1]].concat();
    assert!(is_invalid_state(mech.load_state(&tag6)));
    assert_eq!(mech.t(), 0, "a refused blob left state behind");
    mech.load_state(&blob).unwrap();
    assert_eq!(mech.t(), 11);
}

/// Every prefix of a `PRIVINCREG2` blob is `InvalidState`, and every
/// single-bit flip either loads or is `InvalidState`.
#[test]
fn reg2_blob_truncations_and_bit_flips_are_typed() {
    let (mut mech, bytes) = reg2_state();
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

/// Mechanism tags 1, 2 (full-level trees) and 6 (Reg2 without the lift
/// smoothness) are retired. A `PIRS` snapshot whose state blob opens
/// with one is refused by restore, and the same state bytes are
/// `InvalidState` on a live mechanism, whose step count stays put.
#[test]
fn retired_mechanism_tags_are_refused() {
    let (mut reg1, blob1) = reg1_state();
    let (mut reg2, blob2) = reg2_state();
    reg1.load_state(&blob1).unwrap();
    reg2.load_state(&blob2).unwrap();
    let live: [(&mut dyn IncrementalMechanism, Vec<u8>); 2] =
        [(&mut reg1, real_blob()), (&mut reg2, reg2_blob())];
    for (mech, snapshot) in live {
        for tag in [1u8, 2, 6] {
            let mut state = common::snapshot_state(&snapshot).to_vec();
            state[0] = tag;
            let err = restore(&common::with_snapshot_state(&snapshot, &state)).unwrap_err();
            assert!(matches!(err, SnapshotError::Restore { .. }), "tag {tag}: got {err:?}");
            assert!(is_invalid_state(mech.load_state(&state)), "tag {tag}");
            assert_eq!(mech.t(), 11, "a refused blob left state behind");
        }
    }
}

// ---------------------------------------------------------------------------
// The previous build's layout: tags 5 and 7 convert on load
// ---------------------------------------------------------------------------

/// A snapshot the previous build wrote restores, packs its trees, and
/// continues to the horizon; its next snapshot is written in this build's
/// layout (tags 8 and 9) and restores to the same continuation, bit for
/// bit.
#[test]
fn legacy_snapshots_restore_convert_and_continue() {
    let [reg1, reg2] = legacy_blobs();
    for (blob, d, [legacy, tag]) in [(reg1, 3, [5u8, 8]), (reg2, 4, [7, 9])] {
        assert_eq!(common::snapshot_state(&blob)[0], legacy, "fixture tag");
        let mut session = restore(&blob).unwrap();
        assert_eq!(session.t(), 11);
        let converted = session.snapshot().unwrap();
        assert_eq!(common::snapshot_state(&converted)[0], tag);
        let mut again = restore(&converted).unwrap();
        for t in 11..T_MAX {
            let z = point(d, t);
            assert_eq!(session.observe(&z).unwrap(), again.observe(&z).unwrap(), "t = {t}");
        }
    }
}

/// Every prefix of a tag-5 or tag-7 mechanism blob is `InvalidState`,
/// and every single-bit flip either loads or is `InvalidState`, on the
/// converting path as on the current one.
#[test]
fn legacy_blob_truncations_and_bit_flips_are_typed() {
    let (mut reg1, mut reg2) = common::pin_mechanisms();
    let [blob1, blob2] = common::legacy_pin_blobs();
    let mechs: [(&mut dyn IncrementalMechanism, Vec<u8>); 2] =
        [(&mut reg1, blob1), (&mut reg2, blob2)];
    for (mech, bytes) in mechs {
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
        assert_eq!(mech.t(), 5);
    }
}

/// A blob relabelled across layouts — a packed body under the legacy
/// tag, or a full-width body under the current one — is `InvalidState`:
/// its second-moment rows have the other width.
#[test]
fn relabelled_layouts_are_invalid_state() {
    let (mut reg1, blob1) = reg1_state();
    let (mut reg2, blob2) = reg2_state();
    let (mut legacy1, mut legacy2) = common::pin_mechanisms();
    let [old1, old2] = common::legacy_pin_blobs();
    let cases: [(&mut dyn IncrementalMechanism, Vec<u8>, u8); 4] = [
        (&mut reg1, blob1, 5),
        (&mut reg2, blob2, 7),
        (&mut legacy1, old1, 8),
        (&mut legacy2, old2, 9),
    ];
    for (mech, blob, relabel) in cases {
        let mut bad = blob.clone();
        bad[0] = relabel;
        assert!(is_invalid_state(mech.load_state(&bad)), "relabelled to tag {relabel}");
        assert_eq!(mech.t(), 0, "a refused blob left state behind");
        mech.load_state(&blob).unwrap();
    }
}
