//! The engine's length-prefixed binary wire protocol.
//!
//! Every [`Command`] and [`Reply`] travels as one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"PIRW"
//! 4       1     version (currently 1)
//! 5       1     opcode  (command 0x01–0x05, reply 0x81–0xFF)
//! 6       2     reserved, must be 0
//! 8       4     payload length N, little-endian u32 (≤ 64 MiB)
//! 12      N     payload (opcode-specific, all integers/floats LE)
//! ```
//!
//! Integers are little-endian; floats are IEEE-754 `f64` bit patterns,
//! little-endian. Decoding is strict: wrong magic, unknown version or
//! opcode, oversized length, truncated payloads, and trailing payload
//! bytes are each a distinct [`WireError`] — a malformed frame can never
//! be half-applied. `docs/PROTOCOL.md` documents the format with a worked
//! byte-level example (which `tests/wire.rs` pins exactly).
//!
//! [`MechanismSpec`]s containing [`SetSpec::Custom`](crate::SetSpec)
//! factories are not wire-encodable (they carry arbitrary closures);
//! encoding one reports [`WireError::Unencodable`].

use crate::error::EngineError;
use crate::ingress::{Command, Reply};
use crate::spec::{LossSpec, MechanismSpec, SetSpec, SolverSpec};
use pir_core::codec::{CodecError, Dec, Enc};
use pir_core::{DescentStrategy, PrivIncReg1Config, PrivIncReg2Config, TauRule};
use pir_dp::PrivacyParams;
use pir_erm::DataPoint;
use std::io::{Read, Write};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"PIRW";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Hard cap on a frame's payload length (64 MiB): a corrupted length
/// field must not OOM the server.
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// Frame header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Frame opcodes (commands in 0x01–0x7F, replies in 0x80–0xFF).
pub mod opcode {
    /// [`Command::Open`](crate::Command::Open).
    pub const OPEN: u8 = 0x01;
    /// [`Command::Observe`](crate::Command::Observe).
    pub const OBSERVE: u8 = 0x02;
    /// [`Command::ObserveBatch`](crate::Command::ObserveBatch).
    pub const OBSERVE_BATCH: u8 = 0x03;
    /// [`Command::Release`](crate::Command::Release).
    pub const RELEASE: u8 = 0x04;
    /// [`Command::Close`](crate::Command::Close).
    pub const CLOSE: u8 = 0x05;
    /// [`Reply::Opened`](crate::Reply::Opened).
    pub const R_OPENED: u8 = 0x81;
    /// [`Reply::Releases`](crate::Reply::Releases).
    pub const R_RELEASES: u8 = 0x82;
    /// [`Reply::SessionReleased`](crate::Reply::SessionReleased).
    pub const R_SESSION_RELEASED: u8 = 0x84;
    /// [`Reply::Closed`](crate::Reply::Closed).
    pub const R_CLOSED: u8 = 0x85;
    /// [`Reply::Err`](crate::Reply::Err).
    pub const R_ERROR: u8 = 0xFF;
}

/// Decode/encode failures. Every variant is a *protocol* error — the
/// engine's own failures travel inside [`Reply::Err`] frames instead.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// A version this implementation does not speak.
    UnsupportedVersion(u8),
    /// An opcode outside the protocol (or a reply opcode where a command
    /// was expected, and vice versa).
    UnknownOpcode(u8),
    /// Reserved header bytes were not zero.
    NonZeroReserved(u16),
    /// The length field exceeds [`MAX_PAYLOAD`].
    FrameTooLarge {
        /// Claimed payload length.
        len: u32,
    },
    /// The stream or buffer ended mid-frame.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The payload was longer than its opcode's encoding consumes.
    TrailingBytes {
        /// Unconsumed payload bytes.
        extra: usize,
    },
    /// A structurally invalid payload (bad tag, bad UTF-8, invalid
    /// privacy parameters, …).
    Malformed(String),
    /// The value cannot be encoded (e.g. a custom constraint-set
    /// factory, which carries an arbitrary closure).
    Unencodable(String),
    /// An I/O failure on the underlying stream.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::NonZeroReserved(r) => write!(f, "reserved header bytes set: 0x{r:04x}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} bytes, got {got}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing payload byte(s) after decoded value")
            }
            WireError::Malformed(reason) => write!(f, "malformed payload: {reason}"),
            WireError::Unencodable(reason) => write!(f, "value not wire-encodable: {reason}"),
            WireError::Io(reason) => write!(f, "wire i/o error: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { need, have } => {
                WireError::Truncated { expected: need, got: have }
            }
            CodecError::TrailingBytes { extra } => WireError::TrailingBytes { extra },
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-only primitives (the cursor pair is `pir_core::codec`)
// ---------------------------------------------------------------------------

fn dec_usize(d: &mut Dec) -> Result<usize, WireError> {
    let v = d.u64()?;
    usize::try_from(v).map_err(|_| WireError::Malformed(format!("{v} overflows usize")))
}

fn dec_str(d: &mut Dec) -> Result<String, WireError> {
    let bytes = d.u32_prefixed()?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| WireError::Malformed("string is not UTF-8".to_string()))
}

fn dec_bool(d: &mut Dec) -> Result<bool, WireError> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(WireError::Malformed(format!("boolean byte must be 0/1, got {b}"))),
    }
}

// ---------------------------------------------------------------------------
// Domain encodings
// ---------------------------------------------------------------------------

fn enc_point(e: &mut Enc<'_>, p: &DataPoint) {
    e.u32(p.x.len() as u32);
    e.f64s(&p.x);
    e.f64(p.y);
}

fn dec_point(d: &mut Dec) -> Result<DataPoint, WireError> {
    let dim = d.u32()? as usize;
    let x = d.f64s(dim)?;
    let y = d.f64()?;
    Ok(DataPoint::new(x, y))
}

fn enc_params(e: &mut Enc<'_>, p: &PrivacyParams) {
    e.f64(p.epsilon());
    e.f64(p.delta());
}

fn dec_params(d: &mut Dec) -> Result<PrivacyParams, WireError> {
    let (eps, delta) = (d.f64()?, d.f64()?);
    PrivacyParams::new(eps, delta).map_err(|err| WireError::Malformed(err.to_string()))
}

fn enc_set(e: &mut Enc<'_>, s: &SetSpec) -> Result<(), WireError> {
    match s {
        SetSpec::L2Ball { dim, radius } => {
            e.u8(0);
            e.u64(*dim as u64);
            e.f64(*radius);
        }
        SetSpec::L1Ball { dim, radius } => {
            e.u8(1);
            e.u64(*dim as u64);
            e.f64(*radius);
        }
        SetSpec::LinfBall { dim, radius } => {
            e.u8(2);
            e.u64(*dim as u64);
            e.f64(*radius);
        }
        SetSpec::Simplex { dim, scale } => {
            e.u8(3);
            e.u64(*dim as u64);
            e.f64(*scale);
        }
        SetSpec::Custom(_) => {
            return Err(WireError::Unencodable(
                "SetSpec::Custom carries an arbitrary factory closure".to_string(),
            ));
        }
    }
    Ok(())
}

fn dec_set(d: &mut Dec) -> Result<SetSpec, WireError> {
    let tag = d.u8()?;
    let dim = dec_usize(d)?;
    let scalar = d.f64()?;
    Ok(match tag {
        0 => SetSpec::L2Ball { dim, radius: scalar },
        1 => SetSpec::L1Ball { dim, radius: scalar },
        2 => SetSpec::LinfBall { dim, radius: scalar },
        3 => SetSpec::Simplex { dim, scale: scalar },
        t => return Err(WireError::Malformed(format!("unknown SetSpec tag {t}"))),
    })
}

fn enc_loss(e: &mut Enc<'_>, l: &LossSpec) {
    match l {
        LossSpec::Squared => e.u8(0),
        LossSpec::Logistic => e.u8(1),
        LossSpec::RegularizedSquared { lambda } => {
            e.u8(2);
            e.f64(*lambda);
        }
    }
}

fn dec_loss(d: &mut Dec) -> Result<LossSpec, WireError> {
    Ok(match d.u8()? {
        0 => LossSpec::Squared,
        1 => LossSpec::Logistic,
        2 => LossSpec::RegularizedSquared { lambda: d.f64()? },
        t => return Err(WireError::Malformed(format!("unknown LossSpec tag {t}"))),
    })
}

fn enc_solver(e: &mut Enc<'_>, s: &SolverSpec) {
    match s {
        SolverSpec::NoisyGd { iters, beta } => {
            e.u8(0);
            e.u64(*iters as u64);
            e.f64(*beta);
        }
        SolverSpec::OutputPerturbation { exact_iters } => {
            e.u8(1);
            e.u64(*exact_iters as u64);
        }
        SolverSpec::FrankWolfe { iters } => {
            e.u8(2);
            e.u64(*iters as u64);
        }
    }
}

fn dec_solver(d: &mut Dec) -> Result<SolverSpec, WireError> {
    Ok(match d.u8()? {
        0 => SolverSpec::NoisyGd { iters: dec_usize(d)?, beta: d.f64()? },
        1 => SolverSpec::OutputPerturbation { exact_iters: dec_usize(d)? },
        2 => SolverSpec::FrankWolfe { iters: dec_usize(d)? },
        t => return Err(WireError::Malformed(format!("unknown SolverSpec tag {t}"))),
    })
}

fn enc_tau(e: &mut Enc<'_>, t: &TauRule) {
    match t {
        TauRule::Fixed(tau) => {
            e.u8(0);
            e.u64(*tau as u64);
        }
        TauRule::Convex => e.u8(1),
        TauRule::StronglyConvex => e.u8(2),
        TauRule::LowWidth => e.u8(3),
    }
}

fn dec_tau(d: &mut Dec) -> Result<TauRule, WireError> {
    Ok(match d.u8()? {
        0 => TauRule::Fixed(dec_usize(d)?),
        1 => TauRule::Convex,
        2 => TauRule::StronglyConvex,
        3 => TauRule::LowWidth,
        t => return Err(WireError::Malformed(format!("unknown TauRule tag {t}"))),
    })
}

fn enc_strategy(e: &mut Enc<'_>, s: &DescentStrategy) {
    e.u8(match s {
        DescentStrategy::RidgedQuadraticFista => 0,
        DescentStrategy::PaperNoisyPgd => 1,
    });
}

fn dec_strategy(d: &mut Dec) -> Result<DescentStrategy, WireError> {
    Ok(match d.u8()? {
        0 => DescentStrategy::RidgedQuadraticFista,
        1 => DescentStrategy::PaperNoisyPgd,
        t => return Err(WireError::Malformed(format!("unknown DescentStrategy tag {t}"))),
    })
}

fn enc_reg1(e: &mut Enc<'_>, c: &PrivIncReg1Config) {
    e.f64(c.beta);
    e.u64(c.max_pgd_iters as u64);
    e.u8(c.warm_start as u8);
    enc_strategy(e, &c.strategy);
}

fn dec_reg1(d: &mut Dec) -> Result<PrivIncReg1Config, WireError> {
    Ok(PrivIncReg1Config {
        beta: d.f64()?,
        max_pgd_iters: dec_usize(d)?,
        warm_start: dec_bool(d)?,
        strategy: dec_strategy(d)?,
    })
}

fn enc_reg2(e: &mut Enc<'_>, c: &PrivIncReg2Config) {
    e.f64(c.beta);
    match c.gamma {
        None => e.u8(0),
        Some(g) => {
            e.u8(1);
            e.f64(g);
        }
    }
    match c.m_override {
        None => e.u8(0),
        Some(m) => {
            e.u8(1);
            e.u64(m as u64);
        }
    }
    e.f64(c.gordon_constant);
    e.u64(c.max_pgd_iters as u64);
    e.u64(c.lift_iters as u64);
    enc_strategy(e, &c.strategy);
}

fn dec_reg2(d: &mut Dec) -> Result<PrivIncReg2Config, WireError> {
    let beta = d.f64()?;
    let gamma = if dec_bool(d)? { Some(d.f64()?) } else { None };
    let m_override = if dec_bool(d)? { Some(dec_usize(d)?) } else { None };
    Ok(PrivIncReg2Config {
        beta,
        gamma,
        m_override,
        gordon_constant: d.f64()?,
        max_pgd_iters: dec_usize(d)?,
        lift_iters: dec_usize(d)?,
        strategy: dec_strategy(d)?,
    })
}

/// Append a [`MechanismSpec`] in its wire encoding (no frame) — shared
/// with the snapshot codec, so a spec has exactly one byte layout.
///
/// # Errors
/// [`WireError::Unencodable`] for specs carrying custom set factories.
pub(crate) fn enc_spec(e: &mut Enc<'_>, spec: &MechanismSpec) -> Result<(), WireError> {
    match spec {
        MechanismSpec::Erm { set, loss, solver, tau } => {
            e.u8(0);
            enc_set(e, set)?;
            enc_loss(e, loss);
            enc_solver(e, solver);
            enc_tau(e, tau);
        }
        MechanismSpec::Reg1 { set, config } => {
            e.u8(1);
            enc_set(e, set)?;
            enc_reg1(e, config);
        }
        MechanismSpec::Reg2 { set, domain_width, config } => {
            e.u8(2);
            enc_set(e, set)?;
            e.f64(*domain_width);
            enc_reg2(e, config);
        }
        MechanismSpec::Trivial { set } => {
            e.u8(3);
            enc_set(e, set)?;
        }
        MechanismSpec::ExactOracle { set } => {
            e.u8(4);
            enc_set(e, set)?;
        }
    }
    Ok(())
}

fn dec_spec(d: &mut Dec) -> Result<MechanismSpec, WireError> {
    Ok(match d.u8()? {
        0 => MechanismSpec::Erm {
            set: dec_set(d)?,
            loss: dec_loss(d)?,
            solver: dec_solver(d)?,
            tau: dec_tau(d)?,
        },
        1 => MechanismSpec::Reg1 { set: dec_set(d)?, config: dec_reg1(d)? },
        2 => MechanismSpec::Reg2 { set: dec_set(d)?, domain_width: d.f64()?, config: dec_reg2(d)? },
        3 => MechanismSpec::Trivial { set: dec_set(d)? },
        4 => MechanismSpec::ExactOracle { set: dec_set(d)? },
        t => return Err(WireError::Malformed(format!("unknown MechanismSpec tag {t}"))),
    })
}

fn enc_engine_error(e: &mut Enc<'_>, err: &EngineError) {
    // kind, four u64 detail slots, message string.
    let (kind, a, b, c, dd, msg): (u8, u64, u64, u64, u64, &str) = match err {
        EngineError::UnknownSession { id } => (1, *id, 0, 0, 0, ""),
        EngineError::DuplicateSession { id } => (2, *id, 0, 0, 0, ""),
        EngineError::InvalidConfig { reason } => (3, 0, 0, 0, 0, reason.as_str()),
        EngineError::Mechanism { reason } => (4, 0, 0, 0, 0, reason.as_str()),
        EngineError::Budget { reason } => (5, 0, 0, 0, 0, reason.as_str()),
        EngineError::Backpressure { shard, depth, capacity, cost } => {
            (6, *shard as u64, *depth as u64, *capacity as u64, *cost as u64, "")
        }
        EngineError::Closed => (7, 0, 0, 0, 0, ""),
        EngineError::CommandTooLarge { shard, cost, capacity } => {
            (8, *shard as u64, *cost as u64, *capacity as u64, 0, "")
        }
        EngineError::Wal { reason } => (9, 0, 0, 0, 0, reason.as_str()),
    };
    e.u8(kind);
    e.u64(a);
    e.u64(b);
    e.u64(c);
    e.u64(dd);
    e.u32_prefixed(msg.as_bytes());
}

fn dec_engine_error(d: &mut Dec) -> Result<EngineError, WireError> {
    let kind = d.u8()?;
    let (a, b, c, dd) = (d.u64()?, d.u64()?, d.u64()?, d.u64()?);
    let msg = dec_str(d)?;
    Ok(match kind {
        1 => EngineError::UnknownSession { id: a },
        2 => EngineError::DuplicateSession { id: a },
        3 => EngineError::InvalidConfig { reason: msg },
        4 => EngineError::Mechanism { reason: msg },
        5 => EngineError::Budget { reason: msg },
        6 => EngineError::Backpressure {
            shard: a as usize,
            depth: b as usize,
            capacity: c as usize,
            cost: dd as usize,
        },
        7 => EngineError::Closed,
        8 => EngineError::CommandTooLarge {
            shard: a as usize,
            cost: b as usize,
            capacity: c as usize,
        },
        9 => EngineError::Wal { reason: msg },
        t => return Err(WireError::Malformed(format!("unknown EngineError kind {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Shared codec surface (crate-internal)
// ---------------------------------------------------------------------------

/// Decode a [`MechanismSpec`] from exactly `bytes` (trailing bytes are an
/// error) — the inverse of [`enc_spec`].
pub(crate) fn decode_spec_exact(bytes: &[u8]) -> Result<MechanismSpec, WireError> {
    let mut d = Dec::new(bytes);
    let spec = dec_spec(&mut d)?;
    d.finish()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Append one complete frame to `out`: the header is reserved up front,
/// `body` encodes the payload in place (returning the opcode), and the
/// opcode and length are backfilled. One pass, no intermediate payload
/// buffer. On error `out` is truncated back to its original length — a
/// rejected value never leaves a partial frame behind.
fn build_frame(
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Enc<'_>) -> Result<u8, WireError>,
) -> Result<(), WireError> {
    let start = out.len();
    let mut e = Enc::new(out);
    e.bytes(&MAGIC);
    e.u8(VERSION);
    let op_slot = e.reserve::<1>();
    e.u16(0); // reserved
    let len_slot = e.reserve::<4>();
    let result = body(&mut e).and_then(|op| {
        e.fill(op_slot, [op]);
        match e.fill_len(len_slot, MAX_PAYLOAD) {
            Ok(_) => Ok(()),
            Err(len) => {
                Err(WireError::FrameTooLarge { len: u32::try_from(len).unwrap_or(u32::MAX) })
            }
        }
    });
    if result.is_err() {
        out.truncate(start);
    }
    result
}

/// Parse a frame header, returning `(opcode, payload length)`.
fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(u8, usize), WireError> {
    // Reads within a fixed 12-byte array: none of them can fail.
    let mut d = Dec::new(h);
    let magic: [u8; 4] = d.array()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = d.u8()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let op = d.u8()?;
    let reserved = d.u16()?;
    if reserved != 0 {
        return Err(WireError::NonZeroReserved(reserved));
    }
    let len = d.u32()?;
    if len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge { len });
    }
    Ok((op, len as usize))
}

/// Encode one command as a complete frame.
///
/// # Errors
/// [`WireError::Unencodable`] for specs carrying custom set factories,
/// or [`WireError::FrameTooLarge`] past the payload cap.
pub fn encode_command(cmd: &Command) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(128);
    encode_command_into(&mut out, cmd)?;
    Ok(out)
}

/// Append one command frame to `out` — [`encode_command`] without the
/// per-frame allocation, for callers batching many frames into one
/// buffer (the write-ahead log's append path). On error `out` is left
/// exactly as it was.
///
/// # Errors
/// As [`encode_command`].
pub fn encode_command_into(out: &mut Vec<u8>, cmd: &Command) -> Result<(), WireError> {
    build_frame(out, |e| {
        Ok(match cmd {
            Command::Open { session_id, spec, t_max, params } => {
                e.u64(*session_id);
                e.u64(*t_max as u64);
                enc_params(e, params);
                enc_spec(e, spec)?;
                opcode::OPEN
            }
            Command::Observe { session_id, point } => {
                e.u64(*session_id);
                enc_point(e, point);
                opcode::OBSERVE
            }
            Command::ObserveBatch { session_id, points } => {
                e.u64(*session_id);
                e.u32(points.len() as u32);
                for p in points {
                    enc_point(e, p);
                }
                opcode::OBSERVE_BATCH
            }
            Command::Release { session_id } => {
                e.u64(*session_id);
                opcode::RELEASE
            }
            Command::Close => opcode::CLOSE,
        })
    })
}

/// Decode exactly one command frame from `bytes` (the whole slice must be
/// the frame — trailing bytes are an error; use [`read_command`] on
/// streams).
///
/// # Errors
/// Any [`WireError`] the frame or payload violates.
pub fn decode_command(bytes: &[u8]) -> Result<Command, WireError> {
    let (op, payload) = split_frame(bytes)?;
    decode_command_payload(op, payload)
}

/// Encode one reply as a complete frame.
///
/// # Errors
/// [`WireError::FrameTooLarge`] past the payload cap.
pub fn encode_reply(reply: &Reply) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(128);
    encode_reply_into(&mut out, reply)?;
    Ok(out)
}

/// Append one reply frame to `out` — [`encode_reply`] without the
/// per-frame allocation. On error `out` is left exactly as it was.
///
/// # Errors
/// As [`encode_reply`].
pub fn encode_reply_into(out: &mut Vec<u8>, reply: &Reply) -> Result<(), WireError> {
    build_frame(out, |e| {
        Ok(match reply {
            Reply::Opened { session_id } => {
                e.u64(*session_id);
                opcode::R_OPENED
            }
            Reply::Releases { session_id, thetas } => {
                e.u64(*session_id);
                e.u32(thetas.len() as u32);
                for theta in thetas {
                    e.u32(theta.len() as u32);
                    e.f64s(theta);
                }
                opcode::R_RELEASES
            }
            Reply::SessionReleased { session_id, points, epsilon_spent, delta_spent } => {
                e.u64(*session_id);
                e.u64(*points);
                e.f64(*epsilon_spent);
                e.f64(*delta_spent);
                opcode::R_SESSION_RELEASED
            }
            Reply::Closed => opcode::R_CLOSED,
            Reply::Err(err) => {
                enc_engine_error(e, err);
                opcode::R_ERROR
            }
        })
    })
}

/// Decode exactly one reply frame from `bytes`.
///
/// # Errors
/// Any [`WireError`] the frame or payload violates.
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, WireError> {
    let (op, payload) = split_frame(bytes)?;
    decode_reply_payload(op, payload)
}

/// Validate a frame's header against its buffer and return
/// `(opcode, payload)`.
fn split_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let Some((header, rest)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(WireError::Truncated { expected: HEADER_LEN, got: bytes.len() });
    };
    let (op, len) = parse_header(header)?;
    if rest.len() < len {
        return Err(WireError::Truncated { expected: HEADER_LEN + len, got: bytes.len() });
    }
    if rest.len() > len {
        return Err(WireError::TrailingBytes { extra: rest.len() - len });
    }
    Ok((op, rest))
}

fn decode_command_payload(op: u8, payload: &[u8]) -> Result<Command, WireError> {
    let mut d = Dec::new(payload);
    let cmd = match op {
        opcode::OPEN => {
            let session_id = d.u64()?;
            let t_max = dec_usize(&mut d)?;
            let params = dec_params(&mut d)?;
            let spec = dec_spec(&mut d)?;
            Command::Open { session_id, spec, t_max, params }
        }
        opcode::OBSERVE => Command::Observe { session_id: d.u64()?, point: dec_point(&mut d)? },
        opcode::OBSERVE_BATCH => {
            let session_id = d.u64()?;
            let n = d.u32()? as usize;
            // Min encoded point: u32 dim + f64 response = 12 bytes.
            let mut points = Vec::with_capacity(d.capacity(n, 12));
            for _ in 0..n {
                points.push(dec_point(&mut d)?);
            }
            Command::ObserveBatch { session_id, points }
        }
        opcode::RELEASE => Command::Release { session_id: d.u64()? },
        opcode::CLOSE => Command::Close,
        other => return Err(WireError::UnknownOpcode(other)),
    };
    d.finish()?;
    Ok(cmd)
}

fn decode_reply_payload(op: u8, payload: &[u8]) -> Result<Reply, WireError> {
    let mut d = Dec::new(payload);
    let reply = match op {
        opcode::R_OPENED => Reply::Opened { session_id: d.u64()? },
        opcode::R_RELEASES => {
            let session_id = d.u64()?;
            let n = d.u32()? as usize;
            let mut thetas = Vec::with_capacity(d.capacity(n, 4));
            for _ in 0..n {
                let dim = d.u32()? as usize;
                thetas.push(d.f64s(dim)?);
            }
            Reply::Releases { session_id, thetas }
        }
        opcode::R_SESSION_RELEASED => Reply::SessionReleased {
            session_id: d.u64()?,
            points: d.u64()?,
            epsilon_spent: d.f64()?,
            delta_spent: d.f64()?,
        },
        opcode::R_CLOSED => Reply::Closed,
        opcode::R_ERROR => Reply::Err(dec_engine_error(&mut d)?),
        other => return Err(WireError::UnknownOpcode(other)),
    };
    d.finish()?;
    Ok(reply)
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// Read exactly `buf.len()` bytes; `Ok(false)` on clean EOF at byte 0,
/// [`WireError::Truncated`] on EOF mid-buffer.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    // `get_mut(filled..)` always hits while `filled < buf.len()`; the
    // guard keeps the loop panic-free without an indexing operation.
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(WireError::Truncated { expected: buf.len(), got: filled });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Read one command frame from a stream. `Ok(None)` on clean EOF between
/// frames; mid-frame EOF is [`WireError::Truncated`].
///
/// # Errors
/// Any [`WireError`] the header, payload, or stream violates.
pub fn read_command<R: Read>(r: &mut R) -> Result<Option<Command>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((op, payload)) => decode_command_payload(op, &payload).map(Some),
    }
}

/// Read one reply frame from a stream. `Ok(None)` on clean EOF between
/// frames.
///
/// # Errors
/// Any [`WireError`] the header, payload, or stream violates.
pub fn read_reply<R: Read>(r: &mut R) -> Result<Option<Reply>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((op, payload)) => decode_reply_payload(op, &payload).map(Some),
    }
}

fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let (op, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    if len > 0 && !read_exact_or_eof(r, &mut payload)? {
        return Err(WireError::Truncated { expected: len, got: 0 });
    }
    Ok(Some((op, payload)))
}

/// Write one command frame to a stream.
///
/// # Errors
/// Encoding errors ([`WireError::Unencodable`]) or stream I/O failures.
pub fn write_command<W: Write>(w: &mut W, cmd: &Command) -> Result<(), WireError> {
    let bytes = encode_command(cmd)?;
    w.write_all(&bytes)?;
    Ok(())
}

/// Write one reply frame to a stream.
///
/// # Errors
/// Encoding errors or stream I/O failures.
pub fn write_reply<W: Write>(w: &mut W, reply: &Reply) -> Result<(), WireError> {
    let bytes = encode_reply(reply)?;
    w.write_all(&bytes)?;
    Ok(())
}
