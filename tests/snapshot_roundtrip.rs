//! Snapshot → restore → observe bit-identity — the property behind the
//! session snapshot format (`PIRS`), the spill tier, and checkpoint
//! compaction.
//!
//! A restored session is not "approximately resumed": its future release
//! sequence must be **bit-for-bit identical** to the uninterrupted
//! session's, for both tree-based (`PRIVINCREG1`) and sketch-based
//! (`PRIVINCREG2`) mechanisms, at *every* snapshot step — including
//! steps that land mid-way through a tree epoch, where most of the
//! mechanism's dynamic state (partial sums, cached noise, the serialized
//! RNG position) is in play.

mod common;

use private_incremental_regression::core::codec::{self, Dec};
use private_incremental_regression::core::lift::sketch_smoothness;
use private_incremental_regression::prelude::*;
use proptest::prelude::*;

fn params() -> PrivacyParams {
    PrivacyParams::approx(1.0, 1e-6).unwrap()
}

fn point(d: usize, t: usize, session: u64) -> DataPoint {
    let mut x = vec![0.0f64; d];
    x[t % d] = 0.7;
    x[(t + session as usize) % d] += 0.2;
    DataPoint::new(x, 0.25)
}

fn fresh_engine(num_shards: usize, seed: u64) -> ShardedEngine {
    ShardedEngine::new(EngineConfig { num_shards, seed, parallel: false }).unwrap()
}

/// Drive `session_id` to step `cut` inside an engine, snapshot it there,
/// and check the restored session's remaining releases against the
/// engine's (which never stopped).
fn assert_roundtrip_at(spec: &MechanismSpec, seed: u64, session_id: u64, t_max: usize, cut: usize) {
    let d = spec.dim();
    let mut engine = fresh_engine(2, seed);
    engine.spawn_session(session_id, spec, t_max, &params()).unwrap();
    for t in 0..cut {
        engine.observe(session_id, &point(d, t, session_id)).unwrap();
    }

    let blob = engine.with_session(session_id, |s| s.snapshot().unwrap()).unwrap();
    let mut restored = StreamSession::restore(&blob, seed).unwrap();
    assert_eq!(restored.t(), cut, "restored stream position");
    assert_eq!(restored.id(), session_id);

    // Snapshotting is read-only: the original session keeps serving, and
    // both must release identical bytes for the rest of the horizon.
    for t in cut..t_max {
        let z = point(d, t, session_id);
        let live = engine.observe(session_id, &z).unwrap();
        let replica = restored.observe(&z).unwrap();
        let live_bits: Vec<u64> = live.iter().map(|v| v.to_bits()).collect();
        let replica_bits: Vec<u64> = replica.iter().map(|v| v.to_bits()).collect();
        assert_eq!(live_bits, replica_bits, "release diverged at t = {t} (cut at {cut})");
    }
}

/// Exhaustive over every cut point for one representative config per
/// mechanism: `t_max = 12` crosses several complete binary-tree levels,
/// so the cuts hit every class of mid-tree state.
#[test]
fn every_cut_point_restores_bit_identically() {
    let t_max = 12;
    for cut in 0..=t_max {
        assert_roundtrip_at(&MechanismSpec::reg1_l2(3), 41, 900, t_max, cut);
        assert_roundtrip_at(&MechanismSpec::reg2_l1(4, 1.0), 41, 901, t_max, cut);
    }
}

/// Restoring under the wrong engine seed must not silently resume a
/// `PRIVINCREG2` session: the sketch matrix is reproduced from the seed,
/// so a wrong-seeded engine would diverge from the first release on.
/// The snapshot's seed fingerprint turns that silent divergence into a
/// loud, typed refusal (part of the durability contract documented on
/// `StreamSession::restore`).
#[test]
fn reg2_restore_under_wrong_seed_is_refused() {
    let spec = MechanismSpec::reg2_l1(4, 1.0);
    let (seed, sid, t_max) = (77, 5, 8);
    let mut engine = fresh_engine(1, seed);
    engine.spawn_session(sid, &spec, t_max, &params()).unwrap();
    for t in 0..3 {
        engine.observe(sid, &point(4, t, sid)).unwrap();
    }
    let blob = engine.with_session(sid, |s| s.snapshot().unwrap()).unwrap();
    let err = StreamSession::restore(&blob, seed + 1).unwrap_err();
    assert!(matches!(err, SnapshotError::SeedMismatch { .. }), "got {err:?}");
    // The honest seed still restores and resumes the stream exactly.
    let mut replica = StreamSession::restore(&blob, seed).unwrap();
    for t in 3..t_max {
        let z = point(4, t, sid);
        let live = engine.observe(sid, &z).unwrap();
        let resumed = replica.observe(&z).unwrap();
        let live_bits: Vec<u64> = live.iter().map(|v| v.to_bits()).collect();
        let resumed_bits: Vec<u64> = resumed.iter().map(|v| v.to_bits()).collect();
        assert_eq!(live_bits, resumed_bits, "honest-seed restore diverged at t = {t}");
    }
}

/// `adopt_session` is the engine-side import half: a session restored
/// from a snapshot and adopted into a *fresh* engine (any shard count)
/// continues the stream exactly.
#[test]
fn adopted_sessions_continue_identically_across_reshard() {
    let spec = MechanismSpec::reg1_l2(3);
    let (seed, sid, t_max, cut) = (19, 321, 10, 6);
    let mut engine = fresh_engine(1, seed);
    engine.spawn_session(sid, &spec, t_max, &params()).unwrap();
    for t in 0..cut {
        engine.observe(sid, &point(3, t, sid)).unwrap();
    }
    let blob = engine.with_session(sid, |s| s.snapshot().unwrap()).unwrap();

    for shards in [1usize, 3, 5] {
        let mut importer = fresh_engine(shards, seed);
        importer.adopt_session(StreamSession::restore(&blob, seed).unwrap()).unwrap();
        // Duplicate adoption is rejected, leaving the first intact.
        let err = importer.adopt_session(StreamSession::restore(&blob, seed).unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::DuplicateSession { id } if id == sid));

        let mut reference = fresh_engine(1, seed);
        reference.adopt_session(StreamSession::restore(&blob, seed).unwrap()).unwrap();
        for t in cut..t_max {
            let z = point(3, t, sid);
            let a = importer.observe(sid, &z).unwrap();
            let b = reference.observe(sid, &z).unwrap();
            let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "adopted session diverged under {shards} shards at {t}");
        }
    }
}

/// Sessions that cannot snapshot say so with a typed error instead of a
/// lossy blob: `PRIVINCERM` state is the full observed history.
#[test]
fn erm_sessions_report_unsupported() {
    let spec = MechanismSpec::erm_squared(2, TauRule::Fixed(4));
    let seed = 3;
    let mut engine = fresh_engine(1, seed);
    engine.spawn_session(9, &spec, 16, &params()).unwrap();
    let (supports, err) =
        engine.with_session(9, |s| (s.supports_snapshot(), s.snapshot().unwrap_err())).unwrap();
    assert!(!supports);
    assert!(matches!(err, SnapshotError::Unsupported { .. }), "got {err:?}");
}

/// The worked example in `docs/PROTOCOL.md`, byte for byte: the
/// 115-byte snapshot of a freshly opened `Trivial` session. If this
/// test moves, the documentation is lying.
#[test]
fn snapshot_worked_example_matches_protocol_md() {
    let mut engine = fresh_engine(1, 7);
    engine
        .spawn_session(7, &MechanismSpec::Trivial { set: SetSpec::unit_l2(2) }, 8, &params())
        .unwrap();
    let blob = engine.with_session(7, |s| s.snapshot().unwrap()).unwrap();
    assert_eq!(
        u64::from_le_bytes(blob[20..28].try_into().unwrap()),
        pir_engine::snapshot::seed_fingerprint(7, 7),
        "fingerprint field is the digest of (engine seed 7, session 7)"
    );
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        // magic "PIRS", version 2, reserved
        0x50, 0x49, 0x52, 0x53, 0x02, 0x00, 0x00, 0x00,
        // body length = 99
        0x63, 0x00, 0x00, 0x00,
        // session id = 7, seed fingerprint of (engine seed 7, session 7)
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xE5, 0xBA, 0xE3, 0x50, 0xED, 0xE3, 0x27, 0xB9,
        // t_max = 8, t = 0
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // budget (1.0, 1e-6), spent (1.0, 1e-6)
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
        0x8D, 0xED, 0xB5, 0xA0, 0xF7, 0xC6, 0xB0, 0x3E,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
        0x8D, 0xED, 0xB5, 0xA0, 0xF7, 0xC6, 0xB0, 0x3E,
        // spec: len 18, tag Trivial, L2Ball dim 2 radius 1.0
        0x12, 0x00, 0x00, 0x00,
        0x03, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
        // state: len 9, opaque mechanism blob
        0x09, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // CRC-32
        0x14, 0xB7, 0xCC, 0x69,
    ];
    assert_eq!(blob, expected, "docs/PROTOCOL.md's PIRS worked example is stale");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The property, randomized: for either regression mechanism, any
    /// dimension, horizon, seed, and cut point, snapshot → restore →
    /// observe is bit-identical to never stopping.
    #[test]
    fn snapshot_roundtrip_is_bit_identical(
        use_reg2_bit in 0u64..2,
        d in 2usize..5,
        seed in 0u64..1_000_000,
        sid in 1u64..1_000_000,
        t_max in 4usize..17,
        cut_frac in 0.0f64..1.0,
    ) {
        let spec = if use_reg2_bit == 1 {
            MechanismSpec::reg2_l1(d, 1.0)
        } else {
            MechanismSpec::reg1_l2(d)
        };
        let cut = ((t_max as f64) * cut_frac) as usize;
        assert_roundtrip_at(&spec, seed, sid, t_max, cut.min(t_max));
    }

    /// Snapshot encoding is deterministic and stable under re-encoding:
    /// the same session state always produces the same bytes (what makes
    /// snapshot digests comparable across runs).
    #[test]
    fn snapshot_bytes_are_deterministic(
        seed in 0u64..1_000_000,
        sid in 1u64..1_000_000,
        steps in 0usize..9,
    ) {
        let spec = MechanismSpec::reg1_l2(3);
        let mut engine = fresh_engine(2, seed);
        engine.spawn_session(sid, &spec, 16, &params()).unwrap();
        for t in 0..steps {
            engine.observe(sid, &point(3, t, sid)).unwrap();
        }
        let a = engine.with_session(sid, |s| s.snapshot().unwrap()).unwrap();
        let b = engine.with_session(sid, |s| s.snapshot().unwrap()).unwrap();
        prop_assert_eq!(&a, &b, "snapshotting twice produced different bytes");
        // And a restored session re-snapshots to the same bytes.
        let restored = StreamSession::restore(&a, seed).unwrap();
        prop_assert_eq!(&restored.snapshot().unwrap(), &a);
    }
}

/// A `PRIVINCREG2` built from `seed` over the unit `ℓ₁` ball in `R^d`
/// with sketch dimension `m`.
fn reg2(d: usize, m: usize, t_max: usize, seed: u64) -> PrivIncReg2 {
    let mut rng = NoiseRng::seed_from_u64(seed);
    let config = PrivIncReg2Config { m_override: Some(m), lift_iters: 40, ..Default::default() };
    PrivIncReg2::new(Box::new(L1Ball::unit(d)), 1.0, t_max, &params(), &mut rng, config).unwrap()
}

/// The lift smoothness bits a `PRIVINCREG2` state blob carries: the
/// field after the tag, the step count, the two iterates and the trees.
fn carried_smoothness(state: &[u8]) -> Option<u64> {
    let mut d = Dec::new(&state[1 + 8..]);
    d.f64_vec().unwrap();
    d.f64_vec().unwrap();
    codec::take_tree(&mut d).unwrap();
    codec::take_tree(&mut d).unwrap();
    codec::take_opt_f64(&mut d).unwrap().map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `PRIVINCREG2` snapshots carry the lift smoothness: restored at any
    /// cut, the session continues bit-identically, and the carried bits
    /// are the power-iteration value of the re-sampled sketch (absent
    /// only before the first step, which computes it).
    #[test]
    fn reg2_carried_smoothness_restores_bit_identically(
        seed in 0u64..1_000_000,
        d in 2usize..9,
        m_frac in 0.0f64..1.0,
        t_max in 2usize..13,
        cut_frac in 0.0f64..1.0,
    ) {
        let m = 1 + ((d as f64) * m_frac) as usize % d;
        let cut = ((t_max as f64) * cut_frac) as usize;
        let mut live = reg2(d, m, t_max, seed);
        for t in 0..cut {
            live.observe(&point(d, t, 1)).unwrap();
        }
        let mut blob = Vec::new();
        live.save_state(&mut blob).unwrap();
        prop_assert_eq!(blob[0], codec::TAG_REG2_PACKED);
        let mut restored = reg2(d, m, t_max, seed);
        restored.load_state(&blob).unwrap();
        let expected = sketch_smoothness(restored.sketch()).to_bits();
        prop_assert_eq!(carried_smoothness(&blob), (cut > 0).then_some(expected));
        for t in cut..t_max {
            let z = point(d, t, 1);
            let a: Vec<u64> = live.observe(&z).unwrap().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = restored.observe(&z).unwrap().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b, "diverged at t = {} (cut at {})", t, cut);
        }
    }
}

/// A restored session steps with the smoothness its snapshot carries; it
/// does not recompute it. Rewriting the carried value to another one
/// inside the accepted bracket still restores, and the next release
/// moves; the honest snapshot's does not.
#[test]
fn reg2_restore_uses_the_carried_smoothness() {
    let spec = MechanismSpec::Reg2 {
        set: SetSpec::unit_l1(6),
        domain_width: 1.0,
        config: PrivIncReg2Config { m_override: Some(3), ..Default::default() },
    };
    let (seed, sid, t_max) = (5, 12, 12);
    let mut engine = fresh_engine(1, seed);
    engine.spawn_session(sid, &spec, t_max, &params()).unwrap();
    for t in 0..5 {
        engine.observe(sid, &point(6, t, sid)).unwrap();
    }
    let blob = engine.with_session(sid, |s| s.snapshot().unwrap()).unwrap();
    let state = common::snapshot_state(&blob);
    let carried = f64::from_bits(carried_smoothness(state).unwrap());
    let mut forged_state = state.to_vec();
    let at = forged_state.len() - 8;
    forged_state[at..].copy_from_slice(&(1.5 * carried).to_bits().to_le_bytes());
    let forged = common::with_snapshot_state(&blob, &forged_state);

    let z = point(6, 5, sid);
    let bits = |v: Vec<f64>| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    let live = bits(engine.observe(sid, &z).unwrap());
    let honest = bits(StreamSession::restore(&blob, seed).unwrap().observe(&z).unwrap());
    let moved = bits(StreamSession::restore(&forged, seed).unwrap().observe(&z).unwrap());
    assert_eq!(honest, live);
    assert_ne!(moved, live, "the forged smoothness was not used");
}

/// Golden pins of the mechanism state codec: the exact length and CRC-32
/// of each snapshot-capable mechanism's `save_state` blob after a fixed
/// seeded stream. Any change to the byte layout of the dynamic state —
/// field order, widths, the tree encoding — moves one of these numbers,
/// so a codec refactor that claims "bytes unchanged" is held to it.
///
/// The tree mechanisms write the live-level layout with the second
/// moment packed (tags 8 and 9), and `PRIVINCREG2` appends the carried
/// lift smoothness. The previous build's tags 5 and 7 keep their pins in
/// [`legacy_blobs_are_byte_pinned_and_convert_on_load`].
#[test]
fn mechanism_state_blobs_are_byte_pinned() {
    let (reg1, reg2) = common::pin_mechanisms();
    let mechs: Vec<(&str, Box<dyn IncrementalMechanism>)> = vec![
        ("reg1 d=2", Box::new(reg1)),
        ("reg2 d=4 m=3", Box::new(reg2)),
        ("exact d=2", Box::new(ExactIncremental::new(Box::new(L2Ball::unit(2))))),
        ("trivial d=2", Box::new(TrivialMechanism::new(&L2Ball::unit(2)))),
    ];
    let mut pins = Vec::new();
    for (name, mut mech) in mechs {
        let d = mech.dim();
        for t in 0..5 {
            mech.observe(&point(d, t, 3)).unwrap();
        }
        let mut blob = Vec::new();
        mech.save_state(&mut blob).unwrap();
        pins.push((name, blob.len(), pir_engine::wal::crc32(&blob)));
    }
    assert_eq!(
        pins,
        vec![
            ("reg1 d=2", 329, 0xEF72_B8A3),
            ("reg2 d=4 m=3", 546, 0xDEC6_2DCC),
            ("exact d=2", 105, 0x6991_3C2E),
            ("trivial d=2", 9, 0x9764_260F),
        ],
        "mechanism state codec bytes moved"
    );
}

/// The mechanism-state worked example in `docs/PROTOCOL.md`, byte for
/// byte: the 169-byte live-level blob of a `PRIVINCREG1` in dimension 1
/// with `T = 4` after two points. At `t = 2` only tree level 1 is live, so
/// each tree carries one `(a_1, b_1)` pair and level 0 (and 2) are not
/// written at all. At `d = 1` the packed second moment is the single
/// entry `x²`.
#[test]
fn mechanism_state_worked_example_matches_protocol_md() {
    let mut rng = NoiseRng::seed_from_u64(7);
    let mut mech =
        PrivIncReg1::new(Box::new(L2Ball::unit(1)), 4, &params(), &mut rng, Default::default())
            .unwrap();
    mech.observe(&DataPoint::new(vec![0.5], 0.25)).unwrap();
    mech.observe(&DataPoint::new(vec![-0.5], 0.5)).unwrap();
    let mut blob = Vec::new();
    mech.save_state(&mut blob).unwrap();
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        // tag 08 = Reg1, live-level trees, packed second moment; t = 2
        0x08,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // warm-start iterate: count 1, θ₁
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xFD, 0x72, 0x62, 0xFA, 0x9E, 0x6D, 0xB2, 0x3F,
        // tree Σ y·x: t = 2, generator words, dimension 1
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x8C, 0x79, 0x6F, 0xE7, 0x2F, 0x57, 0x78, 0xBC,
        0x94, 0x74, 0xB7, 0xF7, 0x51, 0xC9, 0xD5, 0xA8,
        0xF3, 0xF5, 0x9F, 0x1C, 0x8A, 0x19, 0x45, 0x0F,
        0xE8, 0x65, 0x1E, 0x80, 0x9E, 0x8A, 0xF1, 0x1E,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // a_1 = -0.125, b_1, s
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, 0xBF,
        0x31, 0x9F, 0x53, 0xB9, 0x48, 0x38, 0x3F, 0x40,
        0x31, 0x9F, 0x53, 0xB9, 0x48, 0x38, 0x3F, 0x40,
        // tree Σ x·xᵀ (packed): t = 2, generator words, dimension 1
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x66, 0x07, 0xBB, 0xCA, 0x68, 0xF7, 0xA8, 0x98,
        0xB3, 0x10, 0xB1, 0x05, 0x1C, 0x27, 0x56, 0xD0,
        0x1C, 0x6F, 0x11, 0x47, 0x21, 0x91, 0x5B, 0xCA,
        0x82, 0x96, 0x87, 0x87, 0x20, 0xD7, 0x5A, 0xC3,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // a_1 = 0.5, b_1, s
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,
        0x1C, 0x0B, 0x8A, 0xCC, 0x87, 0xBC, 0x42, 0x40,
        0x1C, 0x0B, 0x8A, 0xCC, 0x87, 0xBC, 0x42, 0x40,
    ];
    assert_eq!(blob, expected, "docs/PROTOCOL.md's mechanism state worked example is stale");
}

/// Read-compat pins of the previous build's state blobs (tags 5 and 7,
/// full-width second-moment trees), each after 5 points of the byte-pin
/// stream. Each loads into a fresh mechanism, which packs its trees and
/// re-saves it as tag 8 or 9 (pinned too). A second fresh mechanism that
/// loads the re-saved blob then continues bit-identically with the first
/// for the remaining 11 steps, and both end on the same bytes.
#[test]
fn legacy_blobs_are_byte_pinned_and_convert_on_load() {
    let [reg1_blob, reg2_blob] = common::legacy_pin_blobs();
    let pin = |b: &[u8]| (b[0], b.len(), pir_engine::wal::crc32(b));
    assert_eq!(pin(&reg1_blob), (codec::TAG_REG1_LIVE, 369, 0x61AA_83E3));
    assert_eq!(pin(&reg2_blob), (codec::TAG_REG2_SMOOTHNESS, 666, 0x66F2_0514));

    let (mut reg1, mut reg2) = common::pin_mechanisms();
    let (mut reg1_again, mut reg2_again) = common::pin_mechanisms();
    let pairs: [(&mut dyn IncrementalMechanism, &mut dyn IncrementalMechanism, &[u8], _); 2] = [
        (&mut reg1, &mut reg1_again, &reg1_blob, (codec::TAG_REG1_PACKED, 329, 0x1E4C_C428)),
        (&mut reg2, &mut reg2_again, &reg2_blob, (codec::TAG_REG2_PACKED, 546, 0x29EC_77C0)),
    ];
    for (mech, again, legacy, converted_pin) in pairs {
        mech.load_state(legacy).unwrap();
        assert_eq!(mech.t(), 5);
        let mut converted = Vec::new();
        mech.save_state(&mut converted).unwrap();
        assert_eq!(pin(&converted), converted_pin, "{} converted", mech.name());
        again.load_state(&converted).unwrap();
        let d = mech.dim();
        for t in 5..16 {
            let z = point(d, t, 3);
            let a: Vec<u64> = mech.observe(&z).unwrap().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = again.observe(&z).unwrap().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "{} diverged at t = {t}", mech.name());
        }
        let (mut end, mut end_again) = (Vec::new(), Vec::new());
        mech.save_state(&mut end).unwrap();
        again.save_state(&mut end_again).unwrap();
        assert_eq!(end[0], converted_pin.0);
        assert_eq!(end, end_again);
    }
}
