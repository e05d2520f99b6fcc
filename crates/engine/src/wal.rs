//! Per-shard write-ahead command log: segmented, length-prefixed,
//! checksummed — the durability layer under the pipelined engine.
//!
//! Every [`Command`] accepted by a WAL-enabled engine
//! ([`EngineHandle::with_wal`](crate::EngineHandle::with_wal)) is
//! appended to its shard's log **before** it executes. Because every
//! release is a pure function of `(engine seed, session id, observed
//! points)` — never of shard count, scheduling, or wall clock — a
//! crashed process can be restarted and replayed from its log to the
//! *exact* same state, bit-identical releases included (the property
//! pinned by `tests/recovery.rs`). The on-disk format follows the
//! [`wire`] codec discipline: versioned headers, strict
//! decoding, and a distinct typed error for every way bytes can lie.
//!
//! # On-disk format
//!
//! A shard's log is a chain of **segment** files named
//! `shardSSSS-segNNNNNNNN.wal` (both fields zero-padded decimal). Each
//! segment opens with a 28-byte header and then carries zero or more
//! records back to back:
//!
//! ```text
//! segment header (28 bytes)
//! offset  size  field
//! 0       4     magic  = b"PIRL"
//! 4       1     version (currently 2; version 1 is read, see below)
//! 5       1     reserved, must be 0
//! 6       2     reserved, must be 0
//! 8       4     epoch (writer generation), little-endian u32
//! 12      4     shard index, little-endian u32
//! 16      4     segment sequence within the shard, little-endian u32
//! 20      4     first record sequence in this segment, little-endian u32
//! 24      4     CRC-32 (IEEE) of bytes 0..24, little-endian u32
//!
//! record (16 + N bytes)
//! 0       4     payload length N, little-endian u32
//! 4       4     record sequence within the shard's chain, LE u32
//! 8       4     CRC-32 of bytes 0..8 (the record header), LE u32
//! 12      N     payload: one complete wire command frame
//! 12+N    4     CRC-32 of the payload, little-endian u32
//! ```
//!
//! The payload of a record is a full [`wire`] frame
//! ([`encode_command`](crate::wire::encode_command) output), so the WAL
//! inherits the wire protocol's strict payload validation for free.
//! Record sequence numbers run across the whole shard chain — segment
//! `k+1` continues where segment `k`'s complete records stopped, and the
//! header pins where each segment starts.
//!
//! # Crash artifacts vs. corruption
//!
//! Records are appended with a single sequential write, so a process
//! killed mid-append leaves a *prefix* of the final record — a **torn
//! tail**. Torn tails are the expected crash artifact and are tolerated
//! at the end of a segment: recovery lands exactly on the last complete
//! record. Everything else is rejected loudly:
//!
//! - fewer than 12 record-header bytes at the end of a segment, or a
//!   complete record header whose payload extends past end-of-file →
//!   torn tail (tolerated, counted in [`RecoveryReport::torn_tails`]);
//! - 12 record-header bytes present but the header CRC does not match →
//!   a corrupted length/sequence field, [`WalError::ChecksumMismatch`]
//!   (this is why the record header carries its own CRC: a bit-flipped
//!   length field must not masquerade as a torn tail and silently
//!   swallow the committed records behind it);
//! - payload present in full but its CRC does not match →
//!   [`WalError::ChecksumMismatch`];
//! - record sequence numbers that do not continue the shard's chain →
//!   [`WalError::OutOfOrder`] (catches segment splices, and truncation
//!   at an exact record boundary anywhere except the true end of the
//!   chain);
//! - a segment file missing from the middle of a chain →
//!   [`WalError::MissingSegment`].
//!
//! Recovery validates **everything before applying anything**: on any
//! error the engine is untouched, so a committed command is either
//! replayed or reported — never silently dropped.
//!
//! # Epochs and resharding
//!
//! Each [`WalWriter`] stamps its segments with an **epoch** — one more
//! than the largest epoch found in the directory at creation time — and
//! replay orders commands by `(epoch, shard, segment)`. Within one
//! epoch a session's commands live in exactly one shard's chain, and
//! across epochs (restarts) later writers always carry later epochs, so
//! replay respects arrival order even when the shard count changes
//! between runs. Release sequences are invariant under resharding by
//! construction, so recovering a 2-shard log into an 8-shard engine
//! reproduces the same bits.
//!
//! # Checkpoints and compaction
//!
//! Replaying every command since the beginning of time makes recovery
//! `O(history)`. A **checkpoint** bounds it: [`checkpoint`] (quiesced)
//! or [`EngineHandle::checkpoint`](crate::EngineHandle::checkpoint)
//! (live) writes a `PIRC` **manifest** — a `PIRS` snapshot of every live
//! session plus each shard's resume point at the cut — fsyncs it, and
//! only then deletes the covered segment files. Manifests are named
//! `checkpoint-GGGGGGGG.ckpt` with a monotonically increasing
//! generation; they are written to a temporary name and renamed into
//! place, so a crash mid-checkpoint leaves either the previous
//! generation (covered segments still present — nothing lost) or the
//! new one. Recovery reads the newest manifest first, restores its
//! sessions, and replays only the segments past the recorded resume
//! points — `O(since-checkpoint)`, bit-identical to a full-history
//! replay (the law pinned by `tests/compaction.rs`).
//!
//! # Reading the previous build's log
//!
//! Version 2 has version 1's layout; the bump only marks which build
//! wrote a segment. Recovery reads version-1 segments, with one
//! refusal: the previous build drew the `PRIVINCREG1`/`PRIVINCREG2`
//! second-moment tree noise over the full `k²` width and this build
//! draws it packed, so a version-1 `OBSERVE` or `OBSERVE_BATCH` into
//! such a session would re-noise tree nodes whose releases already went
//! out. Recovery answers it with [`WalError::PreviousBuildObserve`]
//! before applying anything. The upgrade that avoids it: checkpoint on
//! the previous build with no traffic after it, so no such command is
//! left to replay.
//!
//! # Examples
//!
//! ```
//! use pir_engine::wal::{recover, WalOptions, WalWriter};
//! use pir_engine::{Command, EngineConfig, MechanismSpec, ShardedEngine};
//! use pir_dp::PrivacyParams;
//! use pir_erm::DataPoint;
//!
//! let dir = std::env::temp_dir().join(format!("pir-wal-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
//!
//! // Log a tiny command stream, then "crash" (drop the writer).
//! let mut w = WalWriter::create(&WalOptions::new(&dir), 0).unwrap();
//! w.append(&Command::Open {
//!     session_id: 1,
//!     spec: MechanismSpec::reg1_l2(2),
//!     t_max: 8,
//!     params,
//! })
//! .unwrap();
//! w.append(&Command::Observe {
//!     session_id: 1,
//!     point: DataPoint::new(vec![0.5, 0.1], 0.2),
//! })
//! .unwrap();
//! drop(w);
//!
//! // Replay the survivors into a fresh engine.
//! let mut engine =
//!     ShardedEngine::new(EngineConfig { num_shards: 1, seed: 7, parallel: false }).unwrap();
//! let report = recover(&dir, &mut engine).unwrap();
//! assert_eq!(report.commands, 2);
//! assert_eq!(engine.total_points(), 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::engine::ShardedEngine;
use crate::ingress::{Command, Reply};
use crate::session::StreamSession;
use crate::spec::MechanismSpec;
use crate::storage::{StorageFile, StorageHandle};
use crate::wire::{self, WireError};
use pir_core::codec::{CodecError, Dec, Enc};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The four magic bytes opening every segment file.
pub const WAL_MAGIC: [u8; 4] = *b"PIRL";
/// Current log format version. Version 2 has version 1's layout; the
/// bump marks segments written by builds whose second-moment trees draw
/// packed node noise (see [`WalError::PreviousBuildObserve`]).
pub const WAL_VERSION: u8 = 2;
/// The previous build's log version, still read under the one-build
/// window.
const WAL_VERSION_PREVIOUS: u8 = 1;
/// Segment header length in bytes.
pub const SEGMENT_HEADER_LEN: usize = 28;
/// Record header length in bytes (payload length + sequence + CRC).
pub const RECORD_HEADER_LEN: usize = 12;
/// Fixed per-record overhead: the record header plus the payload CRC.
pub const RECORD_OVERHEAD: usize = RECORD_HEADER_LEN + 4;
/// Hard cap on a record's payload: a wire frame header plus the wire
/// payload cap. A corrupted length field must not OOM recovery (the
/// record-header CRC catches flips first; this is defense in depth).
pub const MAX_RECORD_PAYLOAD: u32 = wire::MAX_PAYLOAD + wire::HEADER_LEN as u32;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table built at compile time
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k][b]` folds a byte that sits `k` positions ahead
/// of the running CRC, so eight input bytes fold with eight independent
/// lookups per iteration instead of a serial chain of eight.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every segment
/// header, record header, record payload, snapshot and manifest.
/// Slicing-by-8: the hot append path checksums every payload, so the
/// byte-serial dependency chain matters.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (words, tail) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ c;
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        c = lookup(t7, lo)
            ^ lookup(t6, lo >> 8)
            ^ lookup(t5, lo >> 16)
            ^ lookup(t4, lo >> 24)
            ^ lookup(t3, hi)
            ^ lookup(t2, hi >> 8)
            ^ lookup(t1, hi >> 16)
            ^ lookup(t0, hi >> 24);
    }
    for &b in tail {
        c = lookup(t0, c ^ u32::from(b)) ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// `table[byte & 0xFF]`. The masked index is always below 256, so the
/// `get` never misses and compiles to a plain load.
#[inline(always)]
fn lookup(table: &[u32; 256], byte: u32) -> u32 {
    table.get((byte & 0xFF) as usize).copied().unwrap_or(0)
}

// ---------------------------------------------------------------------------
// The checksummed envelope shared by `PIRS` snapshots and `PIRC` manifests
// ---------------------------------------------------------------------------

/// Envelope header length: magic (4) + version (1) + reserved (3) +
/// body length (4).
pub(crate) const ENVELOPE_HEADER_LEN: usize = 12;
/// Envelope trailer length: the CRC-32 over header and body.
const ENVELOPE_TRAILER_LEN: usize = 4;

/// Why [`open`] refused an envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EnvelopeError {
    /// Shorter than the header, or than the header's declared layout.
    Truncated {
        have: usize,
        need: usize,
    },
    BadMagic([u8; 4]),
    UnsupportedVersion(u8),
    NonZeroReserved,
    /// The declared body length exceeds the format's cap.
    TooLarge {
        len: u32,
    },
    /// Bytes after the checksum.
    TrailingBytes {
        extra: usize,
    },
    ChecksumMismatch {
        computed: u32,
        stored: u32,
    },
}

/// Append one envelope to `out` — magic, `version`, three zero bytes,
/// the `u32` body length, the body `body` writes in place, and a CRC-32
/// over all of it. A body longer than `cap` fails with
/// `too_large(len)`. On error `out` is truncated back to its original
/// length.
pub(crate) fn seal<E>(
    out: &mut Vec<u8>,
    magic: [u8; 4],
    version: u8,
    cap: u32,
    body: impl FnOnce(&mut Enc<'_>) -> Result<(), E>,
    too_large: impl FnOnce(usize) -> E,
) -> Result<(), E> {
    let start = out.len();
    let mut e = Enc::new(out);
    e.bytes(&magic);
    e.u8(version);
    e.bytes(&[0u8; 3]);
    let len_slot = e.reserve::<4>();
    let result = body(&mut e).and_then(|()| {
        e.fill_len(len_slot, cap).map_err(too_large)?;
        let crc = crc32(e.written_since(start));
        e.u32(crc);
        Ok(())
    });
    if result.is_err() {
        out.truncate(start);
    }
    result
}

/// Validate one envelope that must span all of `bytes`, returning its
/// body. Checks run magic → version (must equal `version`) → reserved
/// bytes → body length against `cap` → length against the bytes present
/// → CRC, so a flipped byte anywhere is named before any body field is
/// trusted.
pub(crate) fn open(
    bytes: &[u8],
    magic: [u8; 4],
    version: u8,
    cap: u32,
) -> Result<&[u8], EnvelopeError> {
    let have = bytes.len();
    let mut d = Dec::new(bytes);
    let (Ok(got), Ok(got_version), Ok(reserved), Ok(len)) =
        (d.array::<4>(), d.u8(), d.array::<3>(), d.u32())
    else {
        return Err(EnvelopeError::Truncated { have, need: ENVELOPE_HEADER_LEN });
    };
    if got != magic {
        return Err(EnvelopeError::BadMagic(got));
    }
    if got_version != version {
        return Err(EnvelopeError::UnsupportedVersion(got_version));
    }
    if reserved != [0u8; 3] {
        return Err(EnvelopeError::NonZeroReserved);
    }
    if len > cap {
        return Err(EnvelopeError::TooLarge { len });
    }
    let need = ENVELOPE_HEADER_LEN + len as usize + ENVELOPE_TRAILER_LEN;
    if have > need {
        return Err(EnvelopeError::TrailingBytes { extra: have - need });
    }
    let (Ok(body), covered, Ok(stored)) = (d.bytes(len as usize), d.consumed(), d.u32()) else {
        return Err(EnvelopeError::Truncated { have, need });
    };
    let computed = crc32(covered);
    if stored != computed {
        return Err(EnvelopeError::ChecksumMismatch { computed, stored });
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong reading or writing a write-ahead log.
///
/// Mirrors the [`WireError`] discipline: one
/// distinct variant per failure mode, so the fault-injection suite can
/// assert *which* lie the bytes told. Cloneable so one failure can fan
/// out across a batch's indices.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// A segment did not start with [`WAL_MAGIC`].
    BadMagic {
        /// Offending file.
        file: String,
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// A log format version this implementation does not speak.
    UnsupportedVersion {
        /// Offending file.
        file: String,
        /// The version byte found.
        got: u8,
    },
    /// A structurally invalid segment header (reserved bytes set, or
    /// shard/sequence fields disagreeing with the file name).
    CorruptHeader {
        /// Offending file.
        file: String,
        /// What was wrong.
        reason: String,
    },
    /// A partial record (or partial segment header) at the end of a
    /// segment — the expected crash artifact. Only the *strict*
    /// [`decode_segment`] surfaces this as an error; the tolerant
    /// [`scan_segment`] and the recovery paths accept and count it.
    TornTail {
        /// Offending file.
        file: String,
        /// Byte offset where the partial record starts.
        offset: u64,
        /// Bytes of it actually present.
        have: usize,
        /// Bytes a complete record (or header) would need.
        need: usize,
    },
    /// A stored CRC-32 disagrees with the bytes it covers — mid-log
    /// corruption, never a crash artifact, always rejected loudly.
    ChecksumMismatch {
        /// Offending file.
        file: String,
        /// Byte offset of the stored CRC.
        offset: u64,
        /// The CRC stored on disk.
        expected: u32,
        /// The CRC computed from the bytes it covers.
        got: u32,
    },
    /// A record's length field exceeds [`MAX_RECORD_PAYLOAD`].
    RecordTooLarge {
        /// Offending file.
        file: String,
        /// Byte offset of the record.
        offset: u64,
        /// The claimed payload length.
        len: u32,
    },
    /// A record or segment-start sequence number does not continue its
    /// shard's chain — a splice, a reordered copy, or a truncation at
    /// an exact record boundary anywhere except the chain's true end.
    OutOfOrder {
        /// Offending file.
        file: String,
        /// The sequence number the chain required next.
        expected: u32,
        /// The sequence number found.
        got: u32,
    },
    /// A segment file is missing from the middle of a shard's chain.
    MissingSegment {
        /// The shard whose chain has the gap.
        shard: u32,
        /// The segment sequence the chain required next.
        expected: u32,
        /// The segment sequence found instead.
        got: u32,
    },
    /// A `.wal` file whose name does not parse as
    /// `shardSSSS-segNNNNNNNN.wal`. Non-`.wal` files are ignored;
    /// a `.wal` file we cannot place in a chain is rejected loudly.
    UnrecognizedSegment {
        /// Offending file.
        file: String,
    },
    /// A record payload failed wire-protocol validation.
    Wire {
        /// Offending file.
        file: String,
        /// Byte offset of the record.
        offset: u64,
        /// The wire-level failure.
        error: WireError,
    },
    /// A checkpoint manifest that does not decode as a valid `PIRC`
    /// file. Unlike torn segment tails this is never an expected crash
    /// artifact (manifests are written to a temporary name, fsynced, and
    /// renamed into place), so it is always rejected loudly.
    CorruptManifest {
        /// Offending file.
        file: String,
        /// What was wrong.
        reason: String,
    },
    /// A session snapshot inside a checkpoint could not be taken or
    /// restored (e.g. a live session whose mechanism keeps no exportable
    /// state, or a manifest snapshot that fails validation on reboot).
    Snapshot {
        /// What failed.
        reason: String,
    },
    /// A segment the previous build wrote (log version 1) would replay
    /// an `OBSERVE` or `OBSERVE_BATCH` into a `PRIVINCREG1`/`PRIVINCREG2`
    /// session. The previous build drew each second-moment tree node's
    /// noise over the full `k²` width, this build draws it over the
    /// packed `k(k+1)/2`, so the replay would give tree nodes whose
    /// releases already went out a second, independent noise, outside
    /// the `(ε, δ)` accounting. Nothing is applied. To upgrade, start the
    /// previous build on the directory, take a checkpoint with no traffic
    /// after it, stop it, then start this build.
    PreviousBuildObserve {
        /// The previous build's segment carrying the command.
        file: String,
        /// The session it observes into.
        session_id: u64,
    },
    /// Invalid [`WalOptions`].
    InvalidOptions {
        /// What was wrong.
        reason: String,
    },
    /// The writer refused an append because an earlier append failed
    /// mid-write: whatever bytes that failure left behind must stay a
    /// recoverable *tail*, never be buried under later records (which
    /// would turn a crash artifact into mid-log corruption).
    Poisoned {
        /// The segment the writer was on.
        file: String,
    },
    /// An I/O failure (rendered `std::io::Error`).
    Io {
        /// The file or directory involved.
        file: String,
        /// Rendered error.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::BadMagic { file, got } => write!(f, "{file}: bad segment magic {got:02x?}"),
            WalError::UnsupportedVersion { file, got } => {
                write!(f, "{file}: unsupported wal version {got}")
            }
            WalError::CorruptHeader { file, reason } => {
                write!(f, "{file}: corrupt segment header: {reason}")
            }
            WalError::TornTail { file, offset, have, need } => {
                write!(f, "{file}: torn record at offset {offset}: {have} of {need} bytes present")
            }
            WalError::ChecksumMismatch { file, offset, expected, got } => write!(
                f,
                "{file}: checksum mismatch at offset {offset}: stored {expected:#010x}, computed {got:#010x}"
            ),
            WalError::RecordTooLarge { file, offset, len } => write!(
                f,
                "{file}: record at offset {offset} claims {len} payload bytes (cap {MAX_RECORD_PAYLOAD})"
            ),
            WalError::OutOfOrder { file, expected, got } => write!(
                f,
                "{file}: record sequence {got} where the chain requires {expected}"
            ),
            WalError::MissingSegment { shard, expected, got } => write!(
                f,
                "shard {shard}: segment {expected} missing from the chain (found {got} next)"
            ),
            WalError::UnrecognizedSegment { file } => {
                write!(f, "{file}: .wal file name does not parse as shardSSSS-segNNNNNNNN.wal")
            }
            WalError::Wire { file, offset, error } => {
                write!(f, "{file}: record payload at offset {offset} invalid: {error}")
            }
            WalError::CorruptManifest { file, reason } => {
                write!(f, "{file}: corrupt checkpoint manifest: {reason}")
            }
            WalError::Snapshot { reason } => {
                write!(f, "checkpoint session snapshot failed: {reason}")
            }
            WalError::PreviousBuildObserve { file, session_id } => write!(
                f,
                "{file}: the previous build's log replays observes into tree session \
                 {session_id:#018x}, whose second-moment noise this build draws differently; \
                 start the previous build on this directory, checkpoint with no traffic after it, \
                 then start this build"
            ),
            WalError::InvalidOptions { reason } => write!(f, "invalid wal options: {reason}"),
            WalError::Poisoned { file } => write!(
                f,
                "{file}: wal writer poisoned by an earlier failed append; the segment tail must stay recoverable"
            ),
            WalError::Io { file, reason } => write!(f, "{file}: wal i/o error: {reason}"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(path: &Path, e: &std::io::Error) -> WalError {
    WalError::Io { file: path.display().to_string(), reason: e.to_string() }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// When appended records reach the disk platter, not just the kernel.
///
/// Every append issues its `write` syscall before the command executes,
/// so **all** policies survive a killed process (the kernel keeps
/// written pages). The policies differ only in *power-loss* durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record: a committed command survives
    /// power loss. The slowest option; latency is one device flush per
    /// command.
    PerRecord,
    /// `fdatasync` every `every` records (and on rotation and
    /// [`WalWriter::finish`]): bounds power-loss exposure to the last
    /// `every − 1` commands while amortizing the flush. The default
    /// ([`WalOptions::new`]), with `every = 4096`.
    Interval {
        /// Records between forced syncs; must be at least 1.
        every: usize,
    },
    /// Never `fdatasync` (except on [`WalWriter::finish`]): power-loss
    /// durability is surrendered entirely; killed processes still
    /// recover fully. For benchmarking and tests.
    Off,
}

/// What a [`WalWriter`] does when the disk says no.
///
/// Appends and syncs can fail transiently (a saturated device queue, a
/// momentary `EINTR`/`EAGAIN` from a network filesystem) or permanently
/// (a dead disk, a full volume). The policy decides how hard the writer
/// fights before giving up, and what "giving up" means. Whatever the
/// policy, the log itself is never left torn mid-chain: a failed append
/// truncates the segment back to its last good byte before any retry,
/// and exhaustion poisons the writer so later appends cannot bury the
/// failure site under new records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalFailurePolicy {
    /// First failure poisons the writer; every later append returns
    /// [`WalError::Poisoned`]. Today's behavior, and the default:
    /// loudest, simplest, never serves a command it could not log.
    #[default]
    Poison,
    /// Retry the failed append/sync up to `attempts` times with linear
    /// backoff (`backoff`, `2·backoff`, …) between tries; exhaustion
    /// poisons the writer. Rides out transient device hiccups without
    /// losing a single record.
    Retry {
        /// Extra tries after the initial failure (0 = same as `Poison`).
        attempts: u32,
        /// Base sleep between tries, scaled linearly per attempt.
        backoff: Duration,
    },
    /// Retry like [`WalFailurePolicy::Retry`], but on exhaustion the
    /// engine **drops logging and keeps serving**: the shard continues
    /// unlogged, every affected command is counted in
    /// [`WalStats`](crate::ingress::WalStats), and the command that
    /// triggered the degradation is answered with an in-band
    /// [`EngineError::Wal`](crate::EngineError::Wal) warning so clients
    /// learn durability was surrendered. For deployments that prefer
    /// availability over durability.
    DegradeToUnlogged {
        /// Extra tries after the initial failure before degrading.
        attempts: u32,
        /// Base sleep between tries, scaled linearly per attempt.
        backoff: Duration,
    },
}

impl WalFailurePolicy {
    /// The retry envelope: (extra attempts, base backoff).
    pub(crate) fn envelope(&self) -> (u32, Duration) {
        match *self {
            WalFailurePolicy::Poison => (0, Duration::ZERO),
            WalFailurePolicy::Retry { attempts, backoff }
            | WalFailurePolicy::DegradeToUnlogged { attempts, backoff } => (attempts, backoff),
        }
    }

    /// Whether exhaustion degrades to unlogged ingestion instead of
    /// poisoning the shard.
    pub fn degrades(&self) -> bool {
        matches!(self, WalFailurePolicy::DegradeToUnlogged { .. })
    }
}

/// When the engine checkpoints itself, instead of waiting for an
/// operator to call
/// [`EngineHandle::checkpoint`](crate::EngineHandle::checkpoint).
///
/// The engine tracks the log tail (bytes and commands appended since
/// the last successful checkpoint, summed across shards) and triggers a
/// live checkpoint when **either** threshold is crossed. A failed
/// auto-checkpoint backs off exponentially and never purges segments —
/// the purge step only ever runs after the manifest is durably in
/// place, so a flaky disk can delay compaction but cannot lose the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many bytes of WAL tail have accumulated
    /// since the last checkpoint. `u64::MAX` disables the byte axis.
    pub tail_bytes: u64,
    /// Checkpoint once this many commands have been logged since the
    /// last checkpoint. `u64::MAX` disables the count axis.
    pub command_count: u64,
}

impl CheckpointPolicy {
    /// A policy triggering on tail bytes alone.
    pub fn by_tail_bytes(tail_bytes: u64) -> Self {
        CheckpointPolicy { tail_bytes, command_count: u64::MAX }
    }

    /// A policy triggering on command count alone.
    pub fn by_command_count(command_count: u64) -> Self {
        CheckpointPolicy { tail_bytes: u64::MAX, command_count }
    }

    /// Whether `tail_bytes`/`commands` since the last checkpoint cross
    /// either threshold.
    pub(crate) fn due(&self, tail_bytes: u64, commands: u64) -> bool {
        tail_bytes >= self.tail_bytes || commands >= self.command_count
    }
}

/// Configuration for a write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub struct WalOptions {
    /// Directory holding the segment files (created if absent). One
    /// engine per directory: segment names embed only shard and
    /// sequence.
    pub dir: PathBuf,
    /// Durability policy; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one reaches this many
    /// bytes (checked before each append; a segment always accepts at
    /// least one record, so an oversized command cannot wedge rotation).
    pub segment_bytes: u64,
    /// The storage backend every file operation goes through. Defaults
    /// to the real filesystem ([`crate::OsStorage`]); tests swap in a
    /// [`crate::SimDisk`] to script crashes and I/O faults.
    pub storage: StorageHandle,
    /// What the writer does when an append or sync fails; see
    /// [`WalFailurePolicy`].
    pub failure_policy: WalFailurePolicy,
    /// Auto-checkpoint thresholds, honored by the pipelined engine
    /// ([`EngineHandle::with_wal`](crate::EngineHandle::with_wal));
    /// `None` (the default) keeps checkpointing operator-driven. The
    /// quiesced [`WalWriter`] path ignores this field.
    pub auto_checkpoint: Option<CheckpointPolicy>,
}

impl WalOptions {
    /// Options with the defaults: interval fsync every 4096 records,
    /// 64 MiB segments, real-filesystem storage, poison-on-failure,
    /// operator-driven checkpoints. (An `fdatasync` costs ~100–300 µs on
    /// commodity disks; at 4096 records (≈40 ms of arrivals at 100k
    /// cmd/s) the sync tax stays in single-digit
    /// percent of engine throughput while bounding *power-loss* exposure
    /// — process crashes lose nothing at any interval, because every
    /// record's `write` is issued before its command executes.)
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalOptions {
            dir: dir.into(),
            fsync: FsyncPolicy::Interval { every: 4096 },
            segment_bytes: 64 << 20,
            storage: StorageHandle::os(),
            failure_policy: WalFailurePolicy::Poison,
            auto_checkpoint: None,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), WalError> {
        if let FsyncPolicy::Interval { every: 0 } = self.fsync {
            return Err(WalError::InvalidOptions {
                reason: "fsync interval must be at least 1 record".to_string(),
            });
        }
        if self.segment_bytes == 0 {
            return Err(WalError::InvalidOptions {
                reason: "segment_bytes must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Segment naming
// ---------------------------------------------------------------------------

/// The file name of segment `seg_seq` in shard `shard`'s chain.
pub fn segment_file_name(shard: u32, seg_seq: u32) -> String {
    format!("shard{shard:04}-seg{seg_seq:08}.wal")
}

/// Parse `shardSSSS-segNNNNNNNN.wal`; `None` for anything else.
fn parse_segment_name(name: &str) -> Option<(u32, u32)> {
    let body = name.strip_prefix("shard")?.strip_suffix(".wal")?;
    let (shard_s, seg_s) = body.split_once("-seg")?;
    if shard_s.len() != 4 || seg_s.len() != 8 {
        return None;
    }
    if !shard_s.bytes().all(|b| b.is_ascii_digit()) || !seg_s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((shard_s.parse().ok()?, seg_s.parse().ok()?))
}

// ---------------------------------------------------------------------------
// Checkpoint manifests
// ---------------------------------------------------------------------------

/// The four magic bytes opening every checkpoint manifest.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"PIRC";
/// Current manifest format version.
pub const CHECKPOINT_VERSION: u8 = 1;
/// Hard cap on a manifest body (256 MiB): a corrupted length field must
/// not size an allocation.
pub const MAX_MANIFEST_BODY: u32 = 256 * 1024 * 1024;

/// The file name of checkpoint generation `generation`.
pub fn checkpoint_file_name(generation: u32) -> String {
    format!("checkpoint-{generation:08}.ckpt")
}

/// Parse `checkpoint-GGGGGGGG.ckpt`; `None` for anything else.
fn parse_checkpoint_name(name: &str) -> Option<u32> {
    let body = name.strip_prefix("checkpoint-")?.strip_suffix(".ckpt")?;
    if body.len() != 8 || !body.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    body.parse().ok()
}

/// A decoded checkpoint manifest: where each shard's log was cut, and
/// every session alive at the cut as a `PIRS` snapshot blob.
///
/// On disk it is the snapshot format's envelope ([`seal`]/[`open`]): a
/// 12-byte header (magic `PIRC`, version, 3 reserved zero bytes, body
/// length LE u32), the body, and a CRC-32 over header + body. Body:
/// generation (u32), epoch-present flag (u8) + max epoch (u32), chain
/// count (u32) then per chain `shard, next_seg_seq, next_record_seq`
/// (u32 each, sorted by shard), snapshot count (u32) then per snapshot a
/// u32 length prefix and the `PIRS` blob.
#[derive(Debug, Clone)]
struct Manifest {
    generation: u32,
    max_epoch: Option<u32>,
    chains: Vec<ShardChain>,
    snapshots: Vec<Vec<u8>>,
}

impl Manifest {
    /// The sealed `PIRC` bytes, or `Err(len)` for a body past
    /// [`MAX_MANIFEST_BODY`].
    fn encode(&self) -> Result<Vec<u8>, usize> {
        let mut chains = self.chains.clone();
        chains.sort_by_key(|c| c.shard);
        let mut out = Vec::new();
        let body = |e: &mut Enc<'_>| {
            e.u32(self.generation);
            e.u8(u8::from(self.max_epoch.is_some()));
            e.u32(self.max_epoch.unwrap_or(0));
            e.u32(chains.len() as u32);
            for c in &chains {
                e.u32(c.shard);
                e.u32(c.next_seg_seq);
                e.u32(c.next_record_seq);
            }
            e.u32(self.snapshots.len() as u32);
            for s in &self.snapshots {
                e.u32_prefixed(s);
            }
            Ok(())
        };
        seal(&mut out, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, MAX_MANIFEST_BODY, body, |len| len)?;
        Ok(out)
    }

    /// Strict decode; any lie is a `reason` string the caller wraps in
    /// [`WalError::CorruptManifest`] with the file name attached.
    fn decode(bytes: &[u8]) -> Result<Manifest, String> {
        let body = open(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, MAX_MANIFEST_BODY)
            .map_err(|e| format!("{e:?}"))?;
        let corrupt = |e: CodecError| format!("body {e}");
        let mut d = Dec::new(body);
        let generation = d.u32().map_err(corrupt)?;
        let has_epoch = d.u8().map_err(corrupt)?;
        if has_epoch > 1 {
            return Err(format!("epoch flag is {has_epoch}, want 0 or 1"));
        }
        let epoch = d.u32().map_err(corrupt)?;
        let max_epoch = (has_epoch == 1).then_some(epoch);
        let chain_count = d.u32().map_err(corrupt)? as usize;
        let mut chains: Vec<ShardChain> = Vec::with_capacity(d.capacity(chain_count, 12));
        for _ in 0..chain_count {
            let shard = d.u32().map_err(corrupt)?;
            if chains.last().is_some_and(|p| shard <= p.shard) {
                return Err(format!("chain for shard {shard} out of order or duplicated"));
            }
            let next_seg_seq = d.u32().map_err(corrupt)?;
            let next_record_seq = d.u32().map_err(corrupt)?;
            chains.push(ShardChain { shard, next_seg_seq, next_record_seq });
        }
        let snap_count = d.u32().map_err(corrupt)? as usize;
        let mut snapshots = Vec::with_capacity(d.capacity(snap_count, 4));
        for _ in 0..snap_count {
            snapshots.push(d.u32_prefixed().map_err(corrupt)?.to_vec());
        }
        d.finish().map_err(corrupt)?;
        Ok(Manifest { generation, max_epoch, chains, snapshots })
    }
}

/// Find and decode the newest checkpoint manifest under `dir`, if any.
/// Older generations are ignored (they are leftovers the next checkpoint
/// removes); a corrupt newest manifest is a loud error — segments it
/// covered may already be purged, so guessing would lose data.
fn load_manifest(storage: &StorageHandle, dir: &Path) -> Result<Option<Manifest>, WalError> {
    if !storage.exists(dir) {
        return Ok(None);
    }
    let mut newest: Option<(u32, PathBuf)> = None;
    for path in storage.read_dir(dir).map_err(|e| io_err(dir, &e))? {
        let Some(generation) =
            path.file_name().and_then(|n| n.to_str()).and_then(parse_checkpoint_name)
        else {
            continue;
        };
        if newest.as_ref().is_none_or(|(g, _)| generation > *g) {
            newest = Some((generation, path));
        }
    }
    let Some((generation, path)) = newest else {
        return Ok(None);
    };
    let bytes = storage.read(&path).map_err(|e| io_err(&path, &e))?;
    let manifest = Manifest::decode(&bytes)
        .map_err(|reason| WalError::CorruptManifest { file: path.display().to_string(), reason })?;
    if manifest.generation != generation {
        return Err(WalError::CorruptManifest {
            file: path.display().to_string(),
            reason: format!(
                "body says generation {}, file name says {generation}",
                manifest.generation
            ),
        });
    }
    Ok(Some(manifest))
}

/// Durably publish a manifest: write to a temporary name, fsync, rename
/// into place, fsync the directory. A crash at any point leaves either
/// the previous generation or the new one — never a torn manifest under
/// the final name.
fn write_manifest(
    storage: &StorageHandle,
    dir: &Path,
    manifest: &Manifest,
) -> Result<(), WalError> {
    storage.create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    let final_path = dir.join(checkpoint_file_name(manifest.generation));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_file_name(manifest.generation)));
    let bytes = manifest.encode().map_err(|len| WalError::CorruptManifest {
        file: final_path.display().to_string(),
        reason: format!("body of {len} bytes exceeds the {MAX_MANIFEST_BODY}-byte cap"),
    })?;
    let mut file = storage.create(&tmp_path).map_err(|e| io_err(&tmp_path, &e))?;
    file.append(&bytes).map_err(|e| io_err(&tmp_path, &e))?;
    // Always durable, regardless of the engine's fsync policy: segment
    // files are about to be deleted on the strength of this manifest.
    file.sync_all().map_err(|e| io_err(&tmp_path, &e))?;
    drop(file);
    storage.rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, &e))?;
    storage.sync_dir(dir).map_err(|e| io_err(dir, &e))?;
    Ok(())
}

/// Delete everything `manifest` supersedes: segment files below each
/// chain's resume point, manifests of older generations, and stale
/// temporary manifest files. Returns `(segments_purged,
/// manifests_removed)`.
fn purge_covered(
    storage: &StorageHandle,
    dir: &Path,
    manifest: &Manifest,
) -> Result<(usize, usize), WalError> {
    let mut segments_purged = 0usize;
    let mut manifests_removed = 0usize;
    if !storage.exists(dir) {
        return Ok((0, 0));
    }
    for path in storage.read_dir(dir).map_err(|e| io_err(dir, &e))? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let covered_segment = parse_segment_name(name).is_some_and(|(shard, seg_seq)| {
            manifest.chains.iter().any(|c| c.shard == shard && seg_seq < c.next_seg_seq)
        });
        let older_manifest = parse_checkpoint_name(name).is_some_and(|g| g < manifest.generation);
        let stale_tmp = name.starts_with("checkpoint-") && name.ends_with(".ckpt.tmp");
        if covered_segment {
            storage.remove_file(&path).map_err(|e| io_err(&path, &e))?;
            segments_purged += 1;
        } else if older_manifest {
            storage.remove_file(&path).map_err(|e| io_err(&path, &e))?;
            manifests_removed += 1;
        } else if stale_tmp
            && path != dir.join(format!("{}.tmp", checkpoint_file_name(manifest.generation)))
        {
            storage.remove_file(&path).map_err(|e| io_err(&path, &e))?;
        }
    }
    Ok((segments_purged, manifests_removed))
}

/// Publish the checkpoint that follows generation `previous`: write a
/// manifest of `snapshots` and the chain cut points `chains` durably,
/// then purge everything it covers. The one publisher behind the
/// quiesced [`checkpoint`] and the live
/// [`EngineHandle::checkpoint`](crate::EngineHandle::checkpoint); purge
/// only ever follows a durably written manifest.
pub(crate) fn publish_checkpoint(
    storage: &StorageHandle,
    dir: &Path,
    previous: Option<u32>,
    max_epoch: Option<u32>,
    chains: Vec<ShardChain>,
    snapshots: Vec<Vec<u8>>,
) -> Result<CheckpointReport, WalError> {
    let generation = match previous {
        None => 0,
        Some(g) => g.checked_add(1).ok_or_else(|| WalError::Io {
            file: String::new(),
            reason: "checkpoint generation overflow".to_string(),
        })?,
    };
    let manifest = Manifest { generation, max_epoch, chains, snapshots };
    write_manifest(storage, dir, &manifest)?;
    let (segments_purged, manifests_removed) = purge_covered(storage, dir, &manifest)?;
    Ok(CheckpointReport {
        generation,
        sessions: manifest.snapshots.len(),
        segments_purged,
        manifests_removed,
    })
}

/// What a checkpoint pass captured and reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The generation number of the manifest written.
    pub generation: u32,
    /// Live sessions captured as snapshots.
    pub sessions: usize,
    /// Covered segment files deleted.
    pub segments_purged: usize,
    /// Superseded manifest files deleted.
    pub manifests_removed: usize,
}

/// Checkpoint a **quiesced** engine against its log directory: snapshot
/// every live session, write a manifest covering the entire current log,
/// and purge the covered segments. The caller guarantees `engine` is
/// exactly the state a full replay of `dir` produces (e.g. the engine a
/// [`recover`] pass just filled, or one whose traffic is stopped) — for
/// a running pipelined engine use
/// [`EngineHandle::checkpoint`](crate::EngineHandle::checkpoint), which
/// cuts each shard in-band instead.
///
/// # Errors
/// Any [`WalError`] the existing log violates;
/// [`WalError::Snapshot`] if a live session cannot be snapshotted (its
/// mechanism keeps no exportable state — such sessions cannot ride a
/// checkpoint, by design `PRIVINCERM`'s full-history state stays in the
/// log); I/O failures. On error no segment is deleted.
pub fn checkpoint(
    dir: impl AsRef<Path>,
    engine: &ShardedEngine,
) -> Result<CheckpointReport, WalError> {
    checkpoint_with_storage(&StorageHandle::os(), dir.as_ref(), engine)
}

/// [`checkpoint`] against an explicit storage backend. See
/// [`checkpoint`] for semantics and errors.
pub fn checkpoint_with_storage(
    storage: &StorageHandle,
    dir: &Path,
    engine: &ShardedEngine,
) -> Result<CheckpointReport, WalError> {
    let log = load_log(storage, dir)?;
    let mut snapshots = Vec::new();
    for session in engine.sessions() {
        snapshots.push(session.snapshot().map_err(|e| WalError::Snapshot {
            reason: format!("session {:#018x}: {e}", session.id()),
        })?);
    }
    publish_checkpoint(storage, dir, log.manifest_generation, log.max_epoch, log.chains, snapshots)
}

// ---------------------------------------------------------------------------
// Scanning and strict decoding
// ---------------------------------------------------------------------------

/// A validated segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Log format version: [`WAL_VERSION`] for segments this build
    /// writes, 1 for the previous build's.
    pub version: u8,
    /// Writer generation that produced the segment.
    pub epoch: u32,
    /// Shard index (always matches the file name).
    pub shard: u32,
    /// Segment sequence within the shard's chain (matches the file name).
    pub seg_seq: u32,
    /// Sequence number of the first record in this segment — equal to
    /// the count of complete records in the chain before it.
    pub first_record_seq: u32,
}

impl SegmentHeader {
    /// Serialize to the on-disk 28-byte header.
    pub fn to_bytes(&self) -> [u8; SEGMENT_HEADER_LEN] {
        let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN);
        let mut e = Enc::new(&mut out);
        e.bytes(&WAL_MAGIC);
        e.u8(self.version);
        e.bytes(&[0u8; 3]);
        e.u32(self.epoch);
        e.u32(self.shard);
        e.u32(self.seg_seq);
        e.u32(self.first_record_seq);
        let crc = crc32(e.written_since(0));
        e.u32(crc);
        // Exactly SEGMENT_HEADER_LEN bytes were written above, so the
        // zeroed fallback (which would fail the magic check on read) is
        // never taken.
        out.first_chunk().copied().unwrap_or([0u8; SEGMENT_HEADER_LEN])
    }
}

/// A torn partial record (or torn segment header): the expected
/// artifact of a crash mid-append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornInfo {
    /// Byte offset where the partial record starts.
    pub offset: u64,
    /// Bytes of it actually present.
    pub have: usize,
    /// Bytes a complete record (or segment header) would need. For a
    /// record whose header is itself partial this is the header length;
    /// once the header is readable it is the full record length.
    pub need: usize,
}

/// The result of tolerantly scanning one segment file.
#[derive(Debug, Clone)]
pub struct ScannedSegment {
    /// The scanned file.
    pub path: PathBuf,
    /// Shard index, from the file name.
    pub shard: u32,
    /// Segment sequence, from the file name.
    pub seg_seq: u32,
    /// The validated header, or `None` if the file is shorter than a
    /// header — a crash during segment creation (tolerated; such a
    /// segment carries no records and is reported as a torn tail).
    pub header: Option<SegmentHeader>,
    /// Every complete, checksum-valid record's command, in order.
    pub commands: Vec<Command>,
    /// The torn partial record at the end, if any.
    pub torn_tail: Option<TornInfo>,
}

/// Tolerantly scan one segment: validate the header, decode every
/// complete record, accept a torn tail, and reject everything else
/// loudly. See the [module docs](self) for the artifact-vs-corruption
/// taxonomy.
///
/// # Errors
/// [`WalError::UnrecognizedSegment`] for an unparseable file name, any
/// checksum / ordering / size / wire validation failure, or I/O errors.
/// A torn tail is **not** an error here; [`decode_segment`] is the
/// strict variant.
pub fn scan_segment(path: &Path) -> Result<ScannedSegment, WalError> {
    scan_segment_on(&StorageHandle::os(), path)
}

/// [`scan_segment`] against an explicit storage backend.
pub(crate) fn scan_segment_on(
    storage: &StorageHandle,
    path: &Path,
) -> Result<ScannedSegment, WalError> {
    let file = path.display().to_string();
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| WalError::UnrecognizedSegment { file: file.clone() })?;
    let (shard, seg_seq) = parse_segment_name(name)
        .ok_or_else(|| WalError::UnrecognizedSegment { file: file.clone() })?;
    let buf = storage.read(path).map_err(|e| io_err(path, &e))?;

    // Header validation, most specific lie first. Shorter than a
    // header: the segment's creation itself was torn.
    let mut h = Dec::new(&buf);
    let fields = (|| {
        let (magic, version, reserved) = (h.array::<4>()?, h.u8()?, h.array::<3>()?);
        let (epoch, shard, seg_seq, first_record_seq) = (h.u32()?, h.u32()?, h.u32()?, h.u32()?);
        let header = SegmentHeader { version, epoch, shard, seg_seq, first_record_seq };
        Ok::<_, CodecError>((magic, version, reserved, header, h.consumed(), h.u32()?))
    })();
    let Ok((magic, version, reserved, header, covered, stored_crc)) = fields else {
        return Ok(ScannedSegment {
            path: path.to_path_buf(),
            shard,
            seg_seq,
            header: None,
            commands: Vec::new(),
            torn_tail: Some(TornInfo { offset: 0, have: buf.len(), need: SEGMENT_HEADER_LEN }),
        });
    };
    if magic != WAL_MAGIC {
        return Err(WalError::BadMagic { file, got: magic });
    }
    if version != WAL_VERSION && version != WAL_VERSION_PREVIOUS {
        return Err(WalError::UnsupportedVersion { file, got: version });
    }
    if reserved != [0u8; 3] {
        return Err(WalError::CorruptHeader {
            file,
            reason: "reserved header bytes set".to_string(),
        });
    }
    let computed = crc32(covered);
    if stored_crc != computed {
        return Err(WalError::ChecksumMismatch {
            file,
            offset: 24,
            expected: stored_crc,
            got: computed,
        });
    }
    if header.shard != shard || header.seg_seq != seg_seq {
        return Err(WalError::CorruptHeader {
            file,
            reason: format!(
                "header says shard {} segment {}, file name says shard {shard} segment {seg_seq}",
                header.shard, header.seg_seq
            ),
        });
    }

    // Records.
    let mut commands: Vec<Command> = Vec::new();
    let mut torn_tail = None;
    let mut pos = SEGMENT_HEADER_LEN;
    let mut rest = h.rest();
    while !rest.is_empty() {
        let mut r = Dec::new(rest);
        let (Ok(len), Ok(seq), head, Ok(stored_head_crc)) =
            (r.u32(), r.u32(), r.consumed(), r.u32())
        else {
            torn_tail =
                Some(TornInfo { offset: pos as u64, have: rest.len(), need: RECORD_HEADER_LEN });
            break;
        };
        // The record-header CRC comes first: a complete 12-byte header
        // was written in one piece, so a mismatch is corruption — and
        // without this check a flipped length field could fake a torn
        // tail and silently swallow every record behind it.
        let computed_head_crc = crc32(head);
        if stored_head_crc != computed_head_crc {
            return Err(WalError::ChecksumMismatch {
                file,
                offset: (pos + 8) as u64,
                expected: stored_head_crc,
                got: computed_head_crc,
            });
        }
        if len > MAX_RECORD_PAYLOAD {
            return Err(WalError::RecordTooLarge { file, offset: pos as u64, len });
        }
        let expected_seq = header.first_record_seq.wrapping_add(commands.len() as u32);
        if seq != expected_seq {
            return Err(WalError::OutOfOrder { file, expected: expected_seq, got: seq });
        }
        let need = RECORD_HEADER_LEN + len as usize + 4;
        let (Ok(payload), Ok(stored_payload_crc)) = (r.bytes(len as usize), r.u32()) else {
            torn_tail = Some(TornInfo { offset: pos as u64, have: rest.len(), need });
            break;
        };
        let computed_payload_crc = crc32(payload);
        if stored_payload_crc != computed_payload_crc {
            return Err(WalError::ChecksumMismatch {
                file,
                offset: (pos + RECORD_HEADER_LEN + len as usize) as u64,
                expected: stored_payload_crc,
                got: computed_payload_crc,
            });
        }
        let cmd = wire::decode_command(payload).map_err(|error| WalError::Wire {
            file: file.clone(),
            offset: pos as u64,
            error,
        })?;
        commands.push(cmd);
        pos += need;
        rest = r.rest();
    }

    Ok(ScannedSegment {
        path: path.to_path_buf(),
        shard,
        seg_seq,
        header: Some(header),
        commands,
        torn_tail,
    })
}

/// Strictly decode one segment: like [`scan_segment`] but a torn tail
/// (or torn header) is an error too.
///
/// # Errors
/// Everything [`scan_segment`] rejects, plus [`WalError::TornTail`].
pub fn decode_segment(path: &Path) -> Result<(SegmentHeader, Vec<Command>), WalError> {
    let s = scan_segment(path)?;
    if let Some(t) = s.torn_tail {
        return Err(WalError::TornTail {
            file: s.path.display().to_string(),
            offset: t.offset,
            have: t.have,
            need: t.need,
        });
    }
    // A headerless segment always reports a torn tail, so this branch is
    // unreachable after the check above — but strict decoding should
    // answer a missing header with the torn-header error, not a panic.
    let Some(header) = s.header else {
        return Err(WalError::TornTail {
            file: s.path.display().to_string(),
            offset: 0,
            have: 0,
            need: SEGMENT_HEADER_LEN,
        });
    };
    Ok((header, s.commands))
}

// ---------------------------------------------------------------------------
// Whole-log loading
// ---------------------------------------------------------------------------

/// Per-shard resume point for a new writer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardChain {
    pub(crate) shard: u32,
    /// Sequence the next segment file should carry (last + 1).
    pub(crate) next_seg_seq: u32,
    /// Sequence the next record should carry (complete records so far).
    pub(crate) next_record_seq: u32,
}

/// A fully validated log, decoded into replay order.
pub(crate) struct LoadedLog {
    /// Every committed command past the newest checkpoint, in replay
    /// order (`(epoch, shard, segment)`-sorted, records in file order).
    pub(crate) commands: Vec<Command>,
    pub(crate) chains: Vec<ShardChain>,
    pub(crate) max_epoch: Option<u32>,
    pub(crate) segments: usize,
    pub(crate) torn_tails: usize,
    /// `PIRS` session blobs from the newest checkpoint manifest (empty
    /// when no checkpoint exists). Restored **before** `commands` replay.
    pub(crate) snapshots: Vec<Vec<u8>>,
    /// Generation of the manifest the log was loaded against, if any.
    pub(crate) manifest_generation: Option<u32>,
    /// The spans of `commands` read from segments the previous build
    /// wrote (log version 1), each with its file.
    pub(crate) previous_build: Vec<(std::ops::Range<usize>, String)>,
}

impl LoadedLog {
    pub(crate) fn resume_for(&self, shard: u32) -> (u32, u32) {
        self.chains
            .iter()
            .find(|c| c.shard == shard)
            .map_or((0, 0), |c| (c.next_seg_seq, c.next_record_seq))
    }

    pub(crate) fn report(&self, failed: u64) -> RecoveryReport {
        RecoveryReport {
            shards: self.chains.len(),
            segments: self.segments,
            commands: self.commands.len() as u64,
            failed,
            torn_tails: self.torn_tails,
            snapshot_sessions: self.snapshots.len(),
        }
    }
}

/// Load and fully validate everything under `dir`: the newest checkpoint
/// manifest (if any) and every segment chain **past** its resume points
/// — segments the manifest covers are skipped without even being read,
/// which is what makes recovery `O(since-checkpoint)`. Nothing is
/// applied anywhere: callers get either the complete committed state
/// (snapshots + tail commands) or an error describing the first
/// corruption found.
pub(crate) fn load_log(storage: &StorageHandle, dir: &Path) -> Result<LoadedLog, WalError> {
    let manifest = load_manifest(storage, dir)?;
    let covered = |shard: u32| -> (u32, u32) {
        manifest
            .as_ref()
            .and_then(|m| m.chains.iter().find(|c| c.shard == shard))
            .map_or((0, 0), |c| (c.next_seg_seq, c.next_record_seq))
    };

    let mut per_shard: BTreeMap<u32, Vec<ScannedSegment>> = BTreeMap::new();
    let mut segments = 0usize;
    let mut torn_tails = 0usize;
    if storage.exists(dir) {
        let mut paths: Vec<PathBuf> = Vec::new();
        for path in storage.read_dir(dir).map_err(|e| io_err(dir, &e))? {
            match path.extension().and_then(|e| e.to_str()) {
                Some("wal") => {
                    // A checkpointed-but-not-yet-purged segment (the
                    // crash window between manifest publish and purge)
                    // is logically deleted: skip it unread.
                    let covered_by_manifest = path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .and_then(parse_segment_name)
                        .is_some_and(|(shard, seg_seq)| seg_seq < covered(shard).0);
                    if !covered_by_manifest {
                        paths.push(path);
                    }
                }
                // Foreign files (editor droppings, operator notes) are
                // ignored; only .wal files must parse.
                _ => continue,
            }
        }
        paths.sort();
        for path in paths {
            let s = scan_segment_on(storage, &path)?;
            segments += 1;
            if s.torn_tail.is_some() {
                torn_tails += 1;
            }
            per_shard.entry(s.shard).or_default().push(s);
        }
    }

    // Per-shard chain validation: contiguous segment sequences from the
    // manifest's resume point (0 without a checkpoint), record sequences
    // continuing across segment boundaries, epochs non-decreasing along
    // the chain.
    let mut chains = Vec::new();
    let mut max_epoch: Option<u32> = manifest.as_ref().and_then(|m| m.max_epoch);
    let mut ordered: Vec<&ScannedSegment> = Vec::new();
    for (&shard, segs) in per_shard.iter_mut() {
        segs.sort_by_key(|s| s.seg_seq);
        let (base_seg, base_record) = covered(shard);
        let mut next_record_seq = base_record;
        let mut last_epoch: Option<u32> = None;
        for (i, s) in segs.iter().enumerate() {
            let expected_seg = base_seg.wrapping_add(i as u32);
            if s.seg_seq != expected_seg {
                return Err(WalError::MissingSegment {
                    shard,
                    expected: expected_seg,
                    got: s.seg_seq,
                });
            }
            if let Some(h) = s.header {
                if h.first_record_seq != next_record_seq {
                    return Err(WalError::OutOfOrder {
                        file: s.path.display().to_string(),
                        expected: next_record_seq,
                        got: h.first_record_seq,
                    });
                }
                if last_epoch.is_some_and(|e| h.epoch < e) {
                    return Err(WalError::CorruptHeader {
                        file: s.path.display().to_string(),
                        reason: format!(
                            "epoch {} decreases along the chain (previous segment had {})",
                            h.epoch,
                            last_epoch.unwrap_or(0)
                        ),
                    });
                }
                last_epoch = Some(h.epoch);
                max_epoch = Some(max_epoch.map_or(h.epoch, |m| m.max(h.epoch)));
                next_record_seq = next_record_seq.wrapping_add(s.commands.len() as u32);
            }
            // A torn-header segment carries no records and no epoch; it
            // still occupies its slot in the segment numbering.
        }
        chains.push(ShardChain {
            shard,
            next_seg_seq: base_seg.wrapping_add(segs.len() as u32),
            next_record_seq,
        });
        ordered.extend(segs.iter());
    }

    // Shards the manifest knows but the tail has no segments for (fully
    // purged chains) still need their resume points carried forward, or
    // a new writer would restart them at segment 0.
    if let Some(m) = &manifest {
        for c in &m.chains {
            if !chains.iter().any(|have| have.shard == c.shard) {
                chains.push(*c);
            }
        }
        chains.sort_by_key(|c| c.shard);
    }

    // Replay order: (epoch, shard, segment). Within one epoch sessions
    // are disjoint across shards, and across epochs later segments were
    // written by later processes, so this respects per-session arrival
    // order even when the shard count changed between runs.
    ordered.sort_by_key(|s| (s.header.map_or(0, |h| h.epoch), s.shard, s.seg_seq));
    let mut commands: Vec<Command> = Vec::new();
    let mut previous_build = Vec::new();
    for s in &ordered {
        let start = commands.len();
        commands.extend(s.commands.iter().cloned());
        if s.header.is_some_and(|h| h.version == WAL_VERSION_PREVIOUS) && !s.commands.is_empty() {
            previous_build.push((start..commands.len(), s.path.display().to_string()));
        }
    }

    let (snapshots, manifest_generation) = match manifest {
        Some(m) => (m.snapshots, Some(m.generation)),
        None => (Vec::new(), None),
    };
    Ok(LoadedLog {
        commands,
        chains,
        max_epoch,
        segments,
        torn_tails,
        snapshots,
        manifest_generation,
        previous_build,
    })
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What a recovery pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shard chains found in the directory.
    pub shards: usize,
    /// Segment files scanned.
    pub segments: usize,
    /// Committed commands replayed.
    pub commands: u64,
    /// Replayed commands whose execution returned an error reply —
    /// deterministic re-failures of commands that failed identically in
    /// the original run (a duplicate open, an over-horizon observe).
    pub failed: u64,
    /// Torn partial records dropped as expected crash artifacts.
    pub torn_tails: usize,
    /// Sessions restored from the newest checkpoint manifest (zero when
    /// no checkpoint exists).
    pub snapshot_sessions: usize,
}

/// Replay a directory's committed command stream into `engine`.
///
/// Validates **every** segment of **every** shard before applying
/// anything: on error the engine is untouched. A missing directory is
/// an empty log. Torn tails are dropped and counted; everything else
/// suspicious is a typed error.
///
/// # Errors
/// Any [`WalError`] the log violates.
pub fn recover(
    dir: impl AsRef<Path>,
    engine: &mut ShardedEngine,
) -> Result<RecoveryReport, WalError> {
    recover_with(dir, engine, |_, _| {})
}

/// [`recover`], invoking `on_reply` with every replayed command and the
/// reply its re-execution produced — the hook the determinism receipts
/// use to compare a replay's releases bit-for-bit against the original
/// run's.
///
/// # Errors
/// Any [`WalError`] the log violates; nothing is applied on error.
pub fn recover_with(
    dir: impl AsRef<Path>,
    engine: &mut ShardedEngine,
    on_reply: impl FnMut(&Command, &Reply),
) -> Result<RecoveryReport, WalError> {
    recover_with_storage(&StorageHandle::os(), dir.as_ref(), engine, on_reply)
}

/// [`recover_with`] against an explicit storage backend — the entry
/// point the crash-consistency harness uses to recover from a
/// [`SimDisk`](crate::SimDisk) after a scripted crash.
///
/// # Errors
/// Any [`WalError`] the log violates; nothing is applied on error.
pub fn recover_with_storage(
    storage: &StorageHandle,
    dir: &Path,
    engine: &mut ShardedEngine,
    on_reply: impl FnMut(&Command, &Reply),
) -> Result<RecoveryReport, WalError> {
    replay(&load_log(storage, dir)?, engine, on_reply)
}

/// Apply a loaded log to `engine`: restore the checkpointed sessions,
/// then run every tail command through
/// [`ShardedEngine::apply`](crate::ShardedEngine::apply). The one replay
/// loop behind both [`recover_with_storage`] and
/// [`EngineHandle::with_wal`](crate::EngineHandle::with_wal).
///
/// # Errors
/// [`WalError::Snapshot`] if a checkpointed session cannot be restored
/// or is restored twice; nothing is applied on error.
pub(crate) fn replay(
    log: &LoadedLog,
    engine: &mut ShardedEngine,
    mut on_reply: impl FnMut(&Command, &Reply),
) -> Result<RecoveryReport, WalError> {
    // Checkpointed sessions come back first — they are the state every
    // tail command assumes. Restore and cross-check *all* of them before
    // adopting any, preserving the nothing-applied-on-error contract.
    let seed = engine.config().seed;
    let mut restored = Vec::with_capacity(log.snapshots.len());
    let mut ids = std::collections::HashSet::new();
    for blob in &log.snapshots {
        let session = StreamSession::restore(blob, seed)
            .map_err(|e| WalError::Snapshot { reason: e.to_string() })?;
        if engine.contains(session.id()) || !ids.insert(session.id()) {
            return Err(WalError::Snapshot {
                reason: format!("manifest restores session {:#018x} twice", session.id()),
            });
        }
        restored.push(session);
    }
    refuse_previous_build_observes(log, &restored)?;
    for session in restored {
        engine.adopt_session(session).map_err(|e| WalError::Snapshot { reason: e.to_string() })?;
    }

    let mut failed = 0u64;
    for cmd in &log.commands {
        let reply = engine.apply(cmd);
        if matches!(reply, Reply::Err(_)) {
            failed += 1;
        }
        on_reply(cmd, &reply);
    }
    Ok(log.report(failed))
}

/// Refuse a log whose previous-build segments would replay an observe
/// into a `PRIVINCREG1`/`PRIVINCREG2` session — one restored from the
/// manifest or opened earlier in the log — with
/// [`WalError::PreviousBuildObserve`].
fn refuse_previous_build_observes(
    log: &LoadedLog,
    restored: &[StreamSession],
) -> Result<(), WalError> {
    let Some(end) = log.previous_build.iter().map(|(span, _)| span.end).max() else {
        return Ok(());
    };
    let has_tree = |spec: &MechanismSpec| {
        matches!(spec, MechanismSpec::Reg1 { .. } | MechanismSpec::Reg2 { .. })
    };
    let mut tree_sessions: std::collections::HashSet<u64> =
        restored.iter().filter(|s| has_tree(s.spec())).map(StreamSession::id).collect();
    for (i, cmd) in log.commands.iter().enumerate().take(end) {
        match cmd {
            Command::Open { session_id, spec, .. } if has_tree(spec) => {
                tree_sessions.insert(*session_id);
            }
            Command::Release { session_id } => {
                tree_sessions.remove(session_id);
            }
            Command::Observe { session_id, .. } | Command::ObserveBatch { session_id, .. }
                if tree_sessions.contains(session_id) =>
            {
                if let Some((_, file)) =
                    log.previous_build.iter().find(|(span, _)| span.contains(&i))
                {
                    return Err(WalError::PreviousBuildObserve {
                        file: file.clone(),
                        session_id: *session_id,
                    });
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Delete every segment file under `dir` — log retention after a clean
/// shutdown, once the final state has been released or snapshotted
/// elsewhere. Returns the number of files removed; a missing directory
/// removes zero. Non-segment files are left alone.
///
/// # Errors
/// [`WalError::Io`] if listing or removal fails.
pub fn purge(dir: impl AsRef<Path>) -> Result<usize, WalError> {
    purge_with_storage(&StorageHandle::os(), dir.as_ref())
}

/// [`purge`] against an explicit storage backend.
///
/// # Errors
/// [`WalError::Io`] if listing or removal fails.
pub fn purge_with_storage(storage: &StorageHandle, dir: &Path) -> Result<usize, WalError> {
    if !storage.exists(dir) {
        return Ok(0);
    }
    let mut removed = 0usize;
    for path in storage.read_dir(dir).map_err(|e| io_err(dir, &e))? {
        let is_segment = path.extension().and_then(|e| e.to_str()) == Some("wal")
            && path.file_name().and_then(|n| n.to_str()).and_then(parse_segment_name).is_some();
        if is_segment {
            storage.remove_file(&path).map_err(|e| io_err(&path, &e))?;
            removed += 1;
        }
    }
    Ok(removed)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The appending side of one shard's log.
///
/// Owned by the shard's worker thread in a WAL-enabled engine; also
/// usable standalone (tests, tooling). Each writer starts a **new**
/// segment — it never appends into an existing file, so a previous
/// process's torn tail stays exactly where recovery expects it — and
/// stamps its segments with a fresh epoch.
///
/// A failed append **poisons** the writer: every later append fails
/// fast with [`WalError::Poisoned`] instead of burying the partial
/// record under new ones (which would turn a recoverable tail into
/// mid-log corruption).
pub struct WalWriter {
    options: WalOptions,
    shard: u32,
    epoch: u32,
    file: Box<dyn StorageFile>,
    path: PathBuf,
    seg_seq: u32,
    next_record_seq: u32,
    /// Bytes written to the current segment (header included).
    written: u64,
    /// Bytes *physically* accepted by the current segment's file —
    /// trails `written` inside a batch (whose counters advance before
    /// the stretch write) and is the truncation point a failed append
    /// rolls back to before a policy retry.
    file_len: u64,
    /// Record bytes appended over the writer's whole life (headers
    /// excluded) — the tail-size signal auto-checkpointing watches.
    appended_bytes: u64,
    /// Complete records in the current segment.
    records_in_segment: u64,
    appends_since_sync: usize,
    poisoned: bool,
    /// Transient failures ridden out by the failure policy, not yet
    /// drained by [`take_retries`](Self::take_retries).
    retries: u64,
    scratch: Vec<u8>,
    /// Per-record lengths of the batch in `scratch`, reused likewise.
    record_lens: Vec<usize>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("shard", &self.shard)
            .field("epoch", &self.epoch)
            .field("segment", &self.path)
            .field("next_record_seq", &self.next_record_seq)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl WalWriter {
    /// Open a writer for `shard`, continuing any existing chain in
    /// `options.dir` (validated first — a writer refuses to extend a
    /// corrupt log) and starting a fresh segment at a fresh epoch. The
    /// directory is created if absent.
    ///
    /// # Errors
    /// Invalid options, any [`WalError`] the existing log violates, or
    /// I/O failures.
    pub fn create(options: &WalOptions, shard: u32) -> Result<Self, WalError> {
        let log = load_log(&options.storage, &options.dir)?;
        let (next_seg_seq, next_record_seq) = log.resume_for(shard);
        let epoch = next_epoch(log.max_epoch)?;
        Self::resume(options, shard, epoch, next_seg_seq, next_record_seq)
    }

    /// Open a writer at an explicit resume point (the chain state a
    /// recovery pass already computed, so `create`'s validation scan is
    /// not repeated).
    pub(crate) fn resume(
        options: &WalOptions,
        shard: u32,
        epoch: u32,
        seg_seq: u32,
        next_record_seq: u32,
    ) -> Result<Self, WalError> {
        options.validate()?;
        options.storage.create_dir_all(&options.dir).map_err(|e| io_err(&options.dir, &e))?;
        let (file, path) = create_segment(options, shard, epoch, seg_seq, next_record_seq)?;
        Ok(WalWriter {
            options: options.clone(),
            shard,
            epoch,
            file,
            path,
            seg_seq,
            next_record_seq,
            written: SEGMENT_HEADER_LEN as u64,
            file_len: SEGMENT_HEADER_LEN as u64,
            appended_bytes: 0,
            records_in_segment: 0,
            appends_since_sync: 0,
            poisoned: false,
            retries: 0,
            scratch: Vec::new(),
            record_lens: Vec::new(),
        })
    }

    /// Create and header-stamp the segment file for the current
    /// `seg_seq`, replacing `self.file`.
    fn open_segment(&mut self) -> Result<(), WalError> {
        let (file, path) = create_segment(
            &self.options,
            self.shard,
            self.epoch,
            self.seg_seq,
            self.next_record_seq,
        )?;
        self.file = file;
        self.path = path;
        self.written = SEGMENT_HEADER_LEN as u64;
        self.file_len = SEGMENT_HEADER_LEN as u64;
        self.records_in_segment = 0;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// The shard this writer logs for.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The epoch stamped into this writer's segments.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The segment file currently being appended to.
    pub fn current_segment(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next appended record will carry — also
    /// the total number of complete records in the shard's chain.
    pub fn next_record_seq(&self) -> u32 {
        self.next_record_seq
    }

    /// Append one command: encode it as a wire frame, wrap it in a
    /// checksummed record, write it in one piece, and apply the fsync
    /// policy. In a WAL-enabled engine this runs **before** the command
    /// executes.
    ///
    /// # Errors
    /// [`WalError::Poisoned`] after any earlier failed append,
    /// [`WalError::Wire`] for unencodable commands (custom set
    /// factories), or I/O failures (which poison the writer).
    pub fn append(&mut self, cmd: &Command) -> Result<(), WalError> {
        self.append_batch(std::slice::from_ref(cmd))
    }

    /// Append many commands as consecutive records, coalescing the
    /// writes: records are staged in memory and hit the file with one
    /// syscall per segment stretch, rotating exactly where appending the
    /// commands one by one would. All-or-nothing on encoding — a single
    /// unencodable command leaves the log untouched. An I/O failure
    /// mid-batch poisons the writer (the staged prefix the kernel took
    /// is a recoverable tail) and the **whole batch** must be treated as
    /// not logged, hence not executed.
    ///
    /// Under [`FsyncPolicy::PerRecord`] each record is written and
    /// synced on its own (coalescing would void the policy's guarantee).
    /// Under [`FsyncPolicy::Interval`] the durability check runs once at
    /// batch end, so the sync lag can transiently exceed `every` within a
    /// batch — never across batches.
    ///
    /// # Errors
    /// As [`append`](Self::append).
    pub fn append_batch(&mut self, cmds: &[Command]) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned { file: self.path.display().to_string() });
        }
        // Pass 1 — pure staging, no I/O: every record is built straight
        // in the reusable staging buffer. Any failure here leaves both
        // the log and the writer untouched.
        if u32::try_from(cmds.len())
            .ok()
            .and_then(|n| self.next_record_seq.checked_add(n))
            .is_none()
        {
            return Err(WalError::Io {
                file: self.path.display().to_string(),
                reason: "record sequence overflow".to_string(),
            });
        }
        let mut staged = std::mem::take(&mut self.scratch);
        let mut record_lens = std::mem::take(&mut self.record_lens);
        staged.clear();
        record_lens.clear();
        let mut outcome = Ok(());
        for (seq, cmd) in (self.next_record_seq..).zip(cmds) {
            match put_record(&mut staged, seq, cmd) {
                Ok(len) => record_lens.push(len),
                Err(error) => {
                    let file = self.path.display().to_string();
                    outcome = Err(WalError::Wire { file, offset: self.written, error });
                    break;
                }
            }
        }
        // Pass 2 — emit.
        if outcome.is_ok() {
            outcome = self.emit(&staged, &record_lens);
        }
        self.scratch = staged;
        self.record_lens = record_lens;
        outcome
    }

    /// Write staged records (`record_lens` gives each one's length):
    /// one `write` per contiguous segment stretch — one per record, each
    /// followed by its fsync, under [`FsyncPolicy::PerRecord`] — rotating
    /// to a fresh segment before any record that would overflow the
    /// current one. `record_lens` partitions `staged` exactly, so every
    /// stretch range is in bounds.
    fn emit(&mut self, staged: &[u8], record_lens: &[usize]) -> Result<(), WalError> {
        let per_record = self.options.fsync == FsyncPolicy::PerRecord;
        let (mut flushed, mut cursor) = (0usize, 0usize);
        for &len in record_lens {
            let record_len = len as u64;
            if self.records_in_segment > 0 && self.written + record_len > self.options.segment_bytes
            {
                self.write_stretch(staged.get(flushed..cursor).unwrap_or_default())?;
                flushed = cursor;
                self.rotate()?;
            }
            cursor += len;
            self.next_record_seq += 1;
            self.written += record_len;
            self.appended_bytes += record_len;
            self.records_in_segment += 1;
            if per_record {
                self.write_stretch(staged.get(flushed..cursor).unwrap_or_default())?;
                flushed = cursor;
                self.sync()?;
            } else if let FsyncPolicy::Interval { .. } = self.options.fsync {
                self.appends_since_sync += 1;
            }
        }
        self.write_stretch(staged.get(flushed..cursor).unwrap_or_default())?;
        if let FsyncPolicy::Interval { every } = self.options.fsync {
            if self.appends_since_sync >= every {
                self.sync()?;
            }
        }
        Ok(())
    }

    /// Write one staged stretch to the current segment in one piece,
    /// riding out transient failures per the failure policy. Each
    /// failed attempt first truncates the segment back to its last
    /// known-good length, so a retry can never bury a partial record
    /// mid-log; exhaustion poisons the writer (the truncated — or, if
    /// truncation itself failed, torn — tail stays recoverable).
    fn write_stretch(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let (attempts, backoff) = self.options.failure_policy.envelope();
        let mut attempt = 0u32;
        loop {
            match self.file.append(bytes) {
                Ok(()) => {
                    self.file_len += bytes.len() as u64;
                    return Ok(());
                }
                Err(e) => {
                    // The backend may have taken a prefix: roll it back
                    // before deciding whether to try again.
                    if let Err(t) = self.file.truncate(self.file_len) {
                        self.poisoned = true;
                        return Err(io_err(&self.path, &t));
                    }
                    if attempt >= attempts {
                        self.poisoned = true;
                        return Err(io_err(&self.path, &e));
                    }
                    attempt += 1;
                    self.retries += 1;
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff.saturating_mul(attempt));
                    }
                }
            }
        }
    }

    /// Force the current segment to stable storage (`fdatasync`)
    /// regardless of policy, riding out transient failures per the
    /// failure policy.
    ///
    /// # Errors
    /// I/O failures outlasting the retry envelope (which poison the
    /// writer).
    pub fn sync(&mut self) -> Result<(), WalError> {
        let (attempts, backoff) = self.options.failure_policy.envelope();
        let mut attempt = 0u32;
        loop {
            match self.file.sync_data() {
                Ok(()) => {
                    self.appends_since_sync = 0;
                    return Ok(());
                }
                Err(e) => {
                    if attempt >= attempts {
                        self.poisoned = true;
                        return Err(io_err(&self.path, &e));
                    }
                    attempt += 1;
                    self.retries += 1;
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff.saturating_mul(attempt));
                    }
                }
            }
        }
    }

    /// Transient append/sync failures the failure policy rode out since
    /// the last call — drained by the engine's workers into
    /// [`WalStats`](crate::ingress::WalStats).
    pub fn take_retries(&mut self) -> u64 {
        std::mem::take(&mut self.retries)
    }

    /// Record bytes appended over the writer's whole life — the
    /// tail-size signal [`CheckpointPolicy`] watches.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Close out the current segment and start the next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        if self.options.fsync != FsyncPolicy::Off {
            self.sync()?;
        }
        self.seg_seq = self.seg_seq.checked_add(1).ok_or_else(|| WalError::Io {
            file: self.path.display().to_string(),
            reason: "segment sequence overflow".to_string(),
        })?;
        if let Err(e) = self.open_segment() {
            self.poisoned = true;
            return Err(e);
        }
        Ok(())
    }

    /// Cut the chain for a checkpoint: rotate to a fresh segment (so
    /// every record logged so far lives in a covered segment and every
    /// future record lives past the cut) and return the resume point
    /// `(epoch, next_seg_seq, next_record_seq)` a manifest should
    /// record. A current segment with no records is already a valid cut,
    /// so no empty segment is stacked on top of it.
    ///
    /// # Errors
    /// [`WalError::Poisoned`] after any earlier failed append, or I/O
    /// failures.
    pub(crate) fn cut(&mut self) -> Result<(u32, u32, u32), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned { file: self.path.display().to_string() });
        }
        if self.records_in_segment > 0 {
            self.rotate()?;
        }
        Ok((self.epoch, self.seg_seq, self.next_record_seq))
    }

    /// Clean shutdown: force everything to stable storage regardless of
    /// policy and consume the writer. (Dropping a writer without
    /// `finish` models a crash — written records survive, the fsync
    /// guarantee reverts to the policy's.)
    ///
    /// # Errors
    /// I/O failures.
    pub fn finish(mut self) -> Result<(), WalError> {
        self.sync()
    }
}

/// Append one record — payload length, sequence, header CRC, `cmd`'s
/// wire frame (encoded in place), payload CRC — to `out` and return its
/// length. The one record builder behind every append path. On error
/// `out` is left exactly as it was.
fn put_record(out: &mut Vec<u8>, seq: u32, cmd: &Command) -> Result<usize, WireError> {
    let start = out.len();
    let mut e = Enc::new(out);
    let len_slot = e.reserve::<4>();
    e.u32(seq);
    let head_crc_slot = e.reserve::<4>();
    let frame_start = e.position();
    if let Err(error) = wire::encode_command_into(e.out(), cmd) {
        out.truncate(start);
        return Err(error);
    }
    let frame_len = e.position() - frame_start;
    // A wire frame never exceeds MAX_RECORD_PAYLOAD, so this fits a u32.
    e.fill_u32(len_slot, frame_len as u32);
    let head_crc = crc32(e.written_since(start).get(..8).unwrap_or_default());
    e.fill_u32(head_crc_slot, head_crc);
    let payload_crc = crc32(e.written_since(frame_start));
    e.u32(payload_crc);
    Ok(RECORD_OVERHEAD + frame_len)
}

/// Create and header-stamp one segment file, returning the open handle
/// and its path. Used for the writer's first segment and every
/// rotation.
fn create_segment(
    options: &WalOptions,
    shard: u32,
    epoch: u32,
    seg_seq: u32,
    first_record_seq: u32,
) -> Result<(Box<dyn StorageFile>, PathBuf), WalError> {
    let path = options.dir.join(segment_file_name(shard, seg_seq));
    let mut file = options.storage.create_new(&path).map_err(|e| io_err(&path, &e))?;
    let header = SegmentHeader { version: WAL_VERSION, epoch, shard, seg_seq, first_record_seq };
    file.append(&header.to_bytes()).map_err(|e| io_err(&path, &e))?;
    if options.fsync != FsyncPolicy::Off {
        file.sync_data().map_err(|e| io_err(&path, &e))?;
        // Make the new directory entry itself durable.
        options.storage.sync_dir(&options.dir).map_err(|e| io_err(&options.dir, &e))?;
    }
    Ok((file, path))
}

pub(crate) fn next_epoch(max_epoch: Option<u32>) -> Result<u32, WalError> {
    match max_epoch {
        None => Ok(0),
        Some(e) => e.checked_add(1).ok_or_else(|| WalError::Io {
            file: String::new(),
            reason: "epoch counter overflow".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical check vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slicing_by_8_matches_the_bitwise_definition() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
            }
            c ^ 0xFFFF_FFFF
        }
        // Every length through several whole words plus each tail size.
        let bytes: Vec<u8> =
            (0..67u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        for n in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..n]), bitwise(&bytes[..n]), "length {n}");
        }
    }

    #[test]
    fn segment_names_round_trip_and_reject_noise() {
        assert_eq!(segment_file_name(3, 17), "shard0003-seg00000017.wal");
        assert_eq!(parse_segment_name("shard0003-seg00000017.wal"), Some((3, 17)));
        for bad in [
            "shard3-seg17.wal",
            "shard0003-seg00000017.log",
            "shard0003_seg00000017.wal",
            "shardAAAA-seg00000017.wal",
            "shard0003-seg00000017x.wal",
            "notes.wal",
        ] {
            assert_eq!(parse_segment_name(bad), None, "{bad} must not parse");
        }
    }

    #[test]
    fn header_bytes_are_self_checking() {
        let h = SegmentHeader {
            version: WAL_VERSION,
            epoch: 2,
            shard: 1,
            seg_seq: 5,
            first_record_seq: 40,
        };
        let bytes = h.to_bytes();
        assert_eq!(&bytes[0..4], b"PIRL");
        assert_eq!(bytes[4], WAL_VERSION);
        assert_eq!(bytes[24..28], crc32(&bytes[0..24]).to_le_bytes());
    }
}
