//! Versioned, checksummed session snapshots — the `PIRS` format.
//!
//! A snapshot captures everything needed to resume a
//! [`StreamSession`](crate::session::StreamSession) bit-identically on
//! the same engine: the identity and static shape of the session (id,
//! spec, horizon, privacy budget) plus the mechanism's dynamic state
//! blob from [`IncrementalMechanism::save_state`](pir_core::IncrementalMechanism::save_state). Restore
//! respawns the mechanism deterministically from the engine seed (which
//! reproduces construction-time randomness such as Mechanism 2's sketch
//! matrix without serializing it) and then overlays the dynamic state, so
//! snapshots carry only the live tree levels — `O(d² · popcount(t))`
//! bytes for `PRIVINCREG1`, `O(m² · popcount(t) + d)` for `PRIVINCREG2`
//! — never the `O(m × d)` sketch.
//!
//! ## Layout (version 2)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = "PIRS"
//! 4       1     version = 2
//! 5       3     reserved, must be zero
//! 8       4     body length N (LE u32, capped at MAX_SNAPSHOT_BODY)
//! 12      N     body
//! 12+N    4     CRC-32 (LE u32) over bytes 0..12+N
//! ```
//!
//! Body, in order (all integers little-endian, all floats IEEE-754 bit
//! patterns — decoding restores the exact bits, so restored sessions are
//! reproducible to the last ulp):
//!
//! ```text
//! 8   session id (u64)
//! 8   seed fingerprint (u64) — one-way digest of the per-session seed
//!     (see [`seed_fingerprint`]); restore recomputes it from the target
//!     engine's seed and refuses a mismatch, so resuming a snapshot on a
//!     wrong-seeded engine fails loudly instead of silently changing
//!     construction-time randomness such as Mechanism 2's sketch
//! 8   t_max      (u64)  — stream horizon the mechanism was built for
//! 8   t          (u64)  — points consumed so far
//! 8   budget epsilon (f64 bits)
//! 8   budget delta   (f64 bits)
//! 8   spent epsilon  (f64 bits)  — accountant ledger at snapshot time
//! 8   spent delta    (f64 bits)
//! 4   spec length S (u32), then S bytes: wire-encoded MechanismSpec
//!     (the same encoding an OPEN frame carries)
//! 4   state length M (u32), then M bytes: mechanism state blob
//!     (`pir_core::codec` mechanism-state layout; opaque here)
//! ```
//!
//! The header, length and checksum are the envelope `PIRC` manifests
//! share (`wal::seal`/`wal::open`); the body is written and read with
//! the `pir_core::codec` cursor pair. Decoding is strict: magic,
//! version, and reserved bytes are checked first, then the body length
//! against the cap and the available bytes, then the checksum, and only
//! then is the body parsed — so a flipped byte anywhere surfaces as
//! [`SnapshotError::ChecksumMismatch`], while a forged-but-checksummed
//! body surfaces as a typed structural error. Trailing bytes after the
//! checksum are rejected.
//!
//! Decoding keeps a one-build window: it reads the version this build
//! writes, which is also what the build before it wrote. Version-1 blobs
//! (no seed fingerprint) are refused as
//! [`SnapshotError::UnsupportedVersion`].

use crate::spec::MechanismSpec;
use crate::wal::{open, seal, EnvelopeError};
use crate::wire;
use pir_core::codec::{CodecError, Dec, Enc};

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PIRS";

/// Snapshot format version — the only one encode writes and decode
/// reads. Version 2 added the seed fingerprint field.
pub const SNAPSHOT_VERSION: u8 = 2;

/// One-way fingerprint of the per-session noise seed derived from
/// `engine_seed` and `session_id`. Stored in every snapshot and
/// recomputed by restore from the *target* engine's seed: a mismatch
/// means the snapshot is being resumed under a different engine seed,
/// which would silently regenerate construction-time randomness (e.g.
/// Mechanism 2's sketch matrix) and change every release thereafter.
///
/// The digest XOR-folds two independently-keyed bijective mixes of the
/// session seed, so the seed is not recoverable from the snapshot — an
/// operational tripwire, not a cryptographic commitment.
pub fn seed_fingerprint(engine_seed: u64, session_id: u64) -> u64 {
    use crate::engine::{mix64, session_seed};
    let s = session_seed(engine_seed, session_id);
    mix64(s ^ 0xA076_1D64_78BD_642F) ^ mix64(s.rotate_left(32) ^ 0xE703_7ED1_A0B4_28DB)
}

/// Hard cap on the body length (64 MiB). Real snapshots are
/// `O(d² · popcount(t))` — kilobytes at small `d` — so anything near
/// this cap is a forged or corrupt length
/// field, rejected before any allocation is sized from it.
pub const MAX_SNAPSHOT_BODY: u32 = 64 * 1024 * 1024;

/// Typed failures while encoding, decoding, or restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob does not start with the `PIRS` magic.
    BadMagic {
        /// The four bytes found where the magic belongs.
        got: [u8; 4],
    },
    /// The format version is not one this build can decode.
    UnsupportedVersion {
        /// The version byte found.
        got: u8,
    },
    /// The reserved header bytes are not zero.
    NonZeroReserved,
    /// The declared body length exceeds [`MAX_SNAPSHOT_BODY`].
    BodyTooLarge {
        /// The declared body length.
        len: u32,
    },
    /// The blob ends before the declared layout does.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes the header demands.
        need: usize,
    },
    /// The trailing CRC-32 does not match the header + body bytes.
    ChecksumMismatch {
        /// Checksum recomputed over the bytes present.
        expected: u32,
        /// Checksum stored in the blob.
        got: u32,
    },
    /// The snapshot's recorded seed fingerprint disagrees with the one
    /// the restoring engine's seed implies for this session id — the
    /// blob was taken under a different engine seed.
    SeedMismatch {
        /// Fingerprint the restoring engine's seed implies.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        got: u64,
    },
    /// The checksummed body does not parse as a version-2 snapshot.
    Malformed {
        /// What was wrong.
        reason: String,
    },
    /// The session cannot be snapshotted (mechanism keeps no exportable
    /// state, or the spec carries a custom set factory the codec cannot
    /// serialize).
    Unsupported {
        /// What was unsupported.
        reason: String,
    },
    /// The snapshot decoded cleanly but the session could not be rebuilt
    /// from it (mechanism respawn or state overlay failed, or the rebuilt
    /// session disagrees with the snapshot's recorded `t` / ledger).
    Restore {
        /// What failed.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic { got } => {
                write!(f, "snapshot magic mismatch: got {got:02x?}, want \"PIRS\"")
            }
            SnapshotError::UnsupportedVersion { got } => {
                write!(f, "unsupported snapshot version {got} (this build reads version {SNAPSHOT_VERSION})")
            }
            SnapshotError::NonZeroReserved => {
                write!(f, "snapshot reserved header bytes are not zero")
            }
            SnapshotError::BodyTooLarge { len } => {
                write!(f, "snapshot body length {len} exceeds the {MAX_SNAPSHOT_BODY}-byte cap")
            }
            SnapshotError::Truncated { have, need } => {
                write!(f, "snapshot truncated: have {have} bytes, need {need}")
            }
            SnapshotError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot checksum mismatch: computed {expected:#010x}, stored {got:#010x}"
                )
            }
            SnapshotError::SeedMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot seed fingerprint mismatch: snapshot recorded {got:#018x}, \
                     this engine's seed implies {expected:#018x} — restoring under a \
                     different engine seed would silently change construction-time \
                     randomness"
                )
            }
            SnapshotError::Malformed { reason } => write!(f, "malformed snapshot body: {reason}"),
            SnapshotError::Unsupported { reason } => {
                write!(f, "session not snapshot-capable: {reason}")
            }
            SnapshotError::Restore { reason } => write!(f, "snapshot restore failed: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    /// The body parser runs only after the checksum passed, so a
    /// shortfall means a buggy encoder or forged-and-rechecksummed length
    /// fields: always [`SnapshotError::Malformed`].
    fn from(e: CodecError) -> Self {
        SnapshotError::Malformed { reason: e.to_string() }
    }
}

/// The fields a version-2 snapshot serializes ahead of the state blob,
/// borrowed for encoding.
pub(crate) struct SnapshotBody<'a> {
    pub session_id: u64,
    pub seed_fingerprint: u64,
    pub t_max: u64,
    pub t: u64,
    pub epsilon: f64,
    pub delta: f64,
    pub spent_epsilon: f64,
    pub spent_delta: f64,
    pub spec: &'a MechanismSpec,
}

/// The fields recovered from a decoded snapshot; the state blob is
/// borrowed from the snapshot bytes.
pub(crate) struct DecodedSnapshot<'a> {
    pub session_id: u64,
    pub seed_fingerprint: u64,
    pub t_max: u64,
    pub t: u64,
    pub epsilon: f64,
    pub delta: f64,
    pub spent_epsilon: f64,
    pub spent_delta: f64,
    pub spec: MechanismSpec,
    pub state: &'a [u8],
}

/// Append a complete snapshot (header + body + checksum) to `out`, with
/// `state` writing the mechanism state blob in place behind its
/// backfilled length. On error `out` is truncated back to its original
/// length.
pub(crate) fn encode_into(
    out: &mut Vec<u8>,
    body: &SnapshotBody<'_>,
    state: impl FnOnce(&mut Vec<u8>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let too_large =
        |len: usize| SnapshotError::BodyTooLarge { len: u32::try_from(len).unwrap_or(u32::MAX) };
    let write_body = |e: &mut Enc<'_>| {
        e.u64(body.session_id);
        e.u64(body.seed_fingerprint);
        e.u64(body.t_max);
        e.u64(body.t);
        e.f64(body.epsilon);
        e.f64(body.delta);
        e.f64(body.spent_epsilon);
        e.f64(body.spent_delta);
        let spec_len = e.reserve::<4>();
        wire::enc_spec(e, body.spec)
            .map_err(|err| SnapshotError::Unsupported { reason: err.to_string() })?;
        e.fill_len(spec_len, MAX_SNAPSHOT_BODY).map_err(too_large)?;
        let state_len = e.reserve::<4>();
        state(e.out())?;
        e.fill_len(state_len, MAX_SNAPSHOT_BODY).map_err(too_large)?;
        Ok(())
    };
    seal(out, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, MAX_SNAPSHOT_BODY, write_body, too_large)
}

/// Decode a complete snapshot blob, validating everything.
pub(crate) fn decode(bytes: &[u8]) -> Result<DecodedSnapshot<'_>, SnapshotError> {
    let opened = open(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, MAX_SNAPSHOT_BODY);
    let body = opened.map_err(|err| match err {
        EnvelopeError::Truncated { have, need } => SnapshotError::Truncated { have, need },
        EnvelopeError::BadMagic(got) => SnapshotError::BadMagic { got },
        EnvelopeError::UnsupportedVersion(got) => SnapshotError::UnsupportedVersion { got },
        EnvelopeError::NonZeroReserved => SnapshotError::NonZeroReserved,
        EnvelopeError::TooLarge { len } => SnapshotError::BodyTooLarge { len },
        EnvelopeError::TrailingBytes { extra } => SnapshotError::Malformed {
            reason: format!("{extra} trailing bytes after the checksum"),
        },
        EnvelopeError::ChecksumMismatch { computed, stored } => {
            SnapshotError::ChecksumMismatch { expected: computed, got: stored }
        }
    })?;

    let mut d = Dec::new(body);
    let session_id = d.u64()?;
    let seed_fingerprint = d.u64()?;
    let t_max = d.u64()?;
    let t = d.u64()?;
    let epsilon = d.f64()?;
    let delta = d.f64()?;
    let spent_epsilon = d.f64()?;
    let spent_delta = d.f64()?;
    let spec = wire::decode_spec_exact(d.u32_prefixed()?)
        .map_err(|e| SnapshotError::Malformed { reason: format!("spec: {e}") })?;
    let state = d.u32_prefixed()?;
    d.finish()?;

    Ok(DecodedSnapshot {
        session_id,
        seed_fingerprint,
        t_max,
        t,
        epsilon,
        delta,
        spent_epsilon,
        spent_delta,
        spec,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{crc32, ENVELOPE_HEADER_LEN as SNAPSHOT_HEADER_LEN};

    const SNAPSHOT_TRAILER_LEN: usize = 4;

    fn put_state(bytes: &[u8]) -> impl FnOnce(&mut Vec<u8>) -> Result<(), SnapshotError> + '_ {
        move |out| {
            out.extend_from_slice(bytes);
            Ok(())
        }
    }

    fn sample_blob() -> Vec<u8> {
        let spec = MechanismSpec::reg1_l2(3);
        let mut out = Vec::new();
        encode_into(
            &mut out,
            &SnapshotBody {
                session_id: 0x1122_3344_5566_7788,
                seed_fingerprint: seed_fingerprint(7, 0x1122_3344_5566_7788),
                t_max: 1 << 20,
                t: 17,
                epsilon: 1.0,
                delta: 1e-6,
                spent_epsilon: 1.0,
                spent_delta: 1e-6,
                spec: &spec,
            },
            put_state(&[0xAB, 0xCD, 0xEF]),
        )
        .unwrap();
        out
    }

    fn refix_crc(blob: &mut [u8]) {
        let crc_at = blob.len() - SNAPSHOT_TRAILER_LEN;
        let crc = crc32(&blob[..crc_at]);
        blob[crc_at..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let blob = sample_blob();
        let d = decode(&blob).unwrap();
        assert_eq!(d.session_id, 0x1122_3344_5566_7788);
        assert_eq!(d.seed_fingerprint, seed_fingerprint(7, 0x1122_3344_5566_7788));
        assert_eq!(d.t_max, 1 << 20);
        assert_eq!(d.t, 17);
        assert_eq!(d.epsilon.to_bits(), 1.0f64.to_bits());
        assert_eq!(d.delta.to_bits(), 1e-6f64.to_bits());
        assert_eq!(d.spent_epsilon.to_bits(), 1.0f64.to_bits());
        assert_eq!(d.spent_delta.to_bits(), 1e-6f64.to_bits());
        assert_eq!(d.spec.label(), "priv-inc-reg-1");
        assert_eq!(d.spec.dim(), 3);
        assert_eq!(d.state, [0xAB, 0xCD, 0xEF]);
        // Re-encoding the decoded snapshot reproduces the exact bytes.
        let mut again = Vec::new();
        encode_into(
            &mut again,
            &SnapshotBody {
                session_id: d.session_id,
                seed_fingerprint: d.seed_fingerprint,
                t_max: d.t_max,
                t: d.t,
                epsilon: d.epsilon,
                delta: d.delta,
                spent_epsilon: d.spent_epsilon,
                spent_delta: d.spent_delta,
                spec: &d.spec,
            },
            put_state(d.state),
        )
        .unwrap();
        assert_eq!(again, blob);
    }

    #[test]
    fn header_faults_report_typed_errors() {
        let blob = sample_blob();

        let mut forged = blob.clone();
        forged[0] = b'Q';
        assert!(matches!(decode(&forged), Err(SnapshotError::BadMagic { .. })));

        let mut forged = blob.clone();
        forged[4] = 3;
        assert!(matches!(decode(&forged), Err(SnapshotError::UnsupportedVersion { got: 3 })));

        let mut forged = blob.clone();
        forged[4] = 0;
        assert!(matches!(decode(&forged), Err(SnapshotError::UnsupportedVersion { got: 0 })));

        let mut forged = blob.clone();
        forged[6] = 1;
        assert!(matches!(decode(&forged), Err(SnapshotError::NonZeroReserved)));

        let mut forged = blob.clone();
        forged[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&forged), Err(SnapshotError::BodyTooLarge { .. })));

        // An in-cap but overlong body length reads as truncation.
        let mut forged = blob.clone();
        let len = u32::from_le_bytes([forged[8], forged[9], forged[10], forged[11]]);
        forged[8..12].copy_from_slice(&(len + 1).to_le_bytes());
        assert!(matches!(decode(&forged), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn every_truncation_prefix_is_a_typed_error() {
        let blob = sample_blob();
        for cut in 0..blob.len() {
            assert!(decode(&blob[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let blob = sample_blob();
        for i in 0..blob.len() {
            let mut flipped = blob.clone();
            flipped[i] ^= 0x01;
            assert!(decode(&flipped).is_err(), "flip at byte {i} decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut blob = sample_blob();
        blob.push(0);
        assert!(matches!(decode(&blob), Err(SnapshotError::Malformed { .. })));
    }

    #[test]
    fn forged_checksummed_lengths_are_malformed() {
        // Forge the spec length to swallow the rest of the body, then fix
        // the checksum so decoding reaches the body parser.
        let mut blob = sample_blob();
        let spec_len_at = SNAPSHOT_HEADER_LEN + 8 * 8;
        blob[spec_len_at..spec_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        refix_crc(&mut blob);
        assert!(matches!(decode(&blob), Err(SnapshotError::Malformed { .. })));
    }

    #[test]
    fn seed_fingerprint_separates_seeds_and_sessions() {
        // The tripwire only works if nearby seeds and ids map to
        // different fingerprints; and it must be a pure function.
        assert_eq!(seed_fingerprint(7, 1), seed_fingerprint(7, 1));
        assert_ne!(seed_fingerprint(7, 1), seed_fingerprint(8, 1));
        assert_ne!(seed_fingerprint(7, 1), seed_fingerprint(7, 2));
        assert_ne!(seed_fingerprint(0, 0), seed_fingerprint(1, 0));
    }

    #[test]
    fn custom_set_specs_are_unsupported() {
        use crate::spec::SetSpec;
        use std::sync::Arc;
        let spec = MechanismSpec::Trivial {
            set: SetSpec::Custom(Arc::new(|| {
                Box::new(pir_geometry::L2Ball::new(2, 1.0)) as Box<dyn pir_geometry::ConvexSet>
            })),
        };
        let mut out = vec![0xFE];
        let err = encode_into(
            &mut out,
            &SnapshotBody {
                session_id: 1,
                seed_fingerprint: seed_fingerprint(7, 1),
                t_max: 8,
                t: 0,
                epsilon: 1.0,
                delta: 1e-6,
                spent_epsilon: 0.0,
                spent_delta: 0.0,
                spec: &spec,
            },
            put_state(&[]),
        )
        .unwrap_err();
        assert!(matches!(err, SnapshotError::Unsupported { .. }));
        // Failed encodes leave the output buffer untouched.
        assert_eq!(out, vec![0xFE]);
    }
}
