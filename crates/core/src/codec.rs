//! The workspace's one byte codec: a little-endian [`Enc`]/[`Dec`]
//! cursor pair, plus the mechanism dynamic-state layout built on it.
//!
//! Wire frames, WAL segments and records, `PIRS` snapshots, `PIRC`
//! manifests and mechanism state blobs are all written with [`Enc`]
//! (appends to a caller-owned buffer; length fields are reserved and
//! backfilled in place) and read with [`Dec`] (a strict cursor: reads
//! are range-checked with `get`/`first_chunk`, counts are checked
//! against the bytes left before anything is allocated from them, and
//! [`Dec::finish`] rejects trailing bytes). Integers are little-endian;
//! an `f64` is its IEEE-754 bit pattern, so round-trips are bit-exact.
//!
//! # Mechanism state
//!
//! A mechanism's *dynamic* state — step counter, tree partial sums,
//! warm-start iterates, noise-generator words — is what a session
//! snapshot carries; everything static (constraint set, horizon,
//! calibration, sketch matrix) is reproduced by re-running the
//! constructor with the same seed. The blob opens with a one-byte
//! mechanism tag (`TAG_*`), so state captured from one mechanism family
//! is never absorbed by another. Vectors are a `u64` count then the
//! `f64`s; trees are written by [`put_tree`] in the live-level layout.
//!
//! Readers keep a one-build window: a build reads what it writes and
//! what the build before it wrote, and refuses everything else with a
//! typed error. Each tag is one layout. `load_state` accepts the tag
//! `save_state` writes and, for one build, the tag it replaced, which it
//! converts on load.

use crate::error::CoreError;
use pir_continual::TreeState;

// Tag values 1 and 2 (full-level Reg1/Reg2 trees) and 6 (Reg2 without
// the lift smoothness) are retired. They must never be reused, so that
// an old blob is refused rather than misread.

/// Blob tag for [`crate::TrivialMechanism`] state.
pub const TAG_TRIVIAL: u8 = 3;
/// Blob tag for [`crate::ExactIncremental`] state.
pub const TAG_EXACT: u8 = 4;
/// Read-only blob tag for [`crate::PrivIncReg1`] state with live-level
/// trees ([`put_tree`]) whose second-moment rows are full `d²` wide. The
/// previous build wrote it; this one converts it to
/// [`TAG_REG1_PACKED`] on load.
pub const TAG_REG1_LIVE: u8 = 5;
/// Read-only blob tag for [`crate::PrivIncReg2`] state with full-width
/// live-level trees followed by the lift smoothness `2‖Φ‖²` as a
/// [`put_opt_f64`] field. The previous build wrote it; this one converts
/// it to [`TAG_REG2_PACKED`] on load.
pub const TAG_REG2_SMOOTHNESS: u8 = 7;
/// Blob tag for [`crate::PrivIncReg1`] state: [`TAG_REG1_LIVE`]'s layout
/// with the second-moment tree's rows packed to `d(d+1)/2` entries.
pub const TAG_REG1_PACKED: u8 = 8;
/// Blob tag for [`crate::PrivIncReg2`] state: [`TAG_REG2_SMOOTHNESS`]'s
/// layout with the second-moment tree's rows packed to `m(m+1)/2`
/// entries.
pub const TAG_REG2_PACKED: u8 = 9;

/// Why a [`Dec`] read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the value does (or a count claims more
    /// items than the remaining bytes hold).
    Truncated {
        /// Total bytes the read needed, counted from the buffer start.
        need: usize,
        /// Bytes the buffer holds.
        have: usize,
    },
    /// Bytes were left over after a complete value.
    TrailingBytes {
        /// Unconsumed bytes.
        extra: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated: needed {need} bytes, have {have}")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete value")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::InvalidState { reason: e.to_string() }
    }
}

/// A reserved `N`-byte field of an [`Enc`] buffer, to be backfilled once
/// its value is known.
#[derive(Debug)]
#[must_use = "a reserved field must be filled"]
pub struct Slot<const N: usize> {
    at: usize,
}

/// Little-endian byte builder appending to a caller-owned buffer.
#[derive(Debug)]
pub struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    /// An encoder appending to `buf` (existing bytes are kept).
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Enc { buf }
    }

    /// Current length of the underlying buffer.
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// The underlying buffer, for writers that take a `&mut Vec<u8>`.
    pub fn out(&mut self) -> &mut Vec<u8> {
        self.buf
    }

    /// The bytes written from `start` on.
    pub fn written_since(&self, start: usize) -> &[u8] {
        self.buf.get(start..).unwrap_or_default()
    }

    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append an `f64` bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// Append `f64`s back to back, with no count.
    #[inline]
    pub fn f64s(&mut self, v: &[f64]) {
        for &x in v {
            self.f64(x);
        }
    }

    /// Append a `u64` count, then the `f64`s.
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        self.f64s(v);
    }

    /// Append a `u32` byte length, then the bytes. Every format using
    /// this caps its blobs far below 4 GiB.
    pub fn u32_prefixed(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }

    /// Reserve an `N`-byte field (zeroed) to backfill later.
    #[inline]
    pub fn reserve<const N: usize>(&mut self) -> Slot<N> {
        let at = self.buf.len();
        self.bytes(&[0u8; N]);
        Slot { at }
    }

    /// Backfill a reserved field (a slot the caller has since truncated
    /// away is skipped: the bytes it described are gone with it).
    #[inline]
    pub fn fill<const N: usize>(&mut self, slot: Slot<N>, v: [u8; N]) {
        if let Some(dst) = self.buf.get_mut(slot.at..).and_then(|rest| rest.first_chunk_mut()) {
            *dst = v;
        }
    }

    /// Backfill a reserved `u32` field.
    #[inline]
    pub fn fill_u32(&mut self, slot: Slot<4>, v: u32) {
        self.fill(slot, v.to_le_bytes());
    }

    /// Backfill a reserved `u32` field with the number of bytes written
    /// after it; a length over `cap` is returned as `Err(len)`.
    pub fn fill_len(&mut self, slot: Slot<4>, cap: u32) -> Result<u32, usize> {
        let len = self.buf.len().saturating_sub(slot.at + 4);
        let n = u32::try_from(len).ok().filter(|&n| n <= cap).ok_or(len)?;
        self.fill_u32(slot, n);
        Ok(n)
    }
}

/// Strict little-endian cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// The bytes consumed so far.
    pub fn consumed(&self) -> &'a [u8] {
        self.buf.get(..self.pos).unwrap_or_default()
    }

    /// The bytes not yet consumed.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    fn truncated(&self, n: usize) -> CodecError {
        CodecError::Truncated { need: self.pos.saturating_add(n), have: self.buf.len() }
    }

    /// Take the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let s = self.rest().get(..n).ok_or_else(|| self.truncated(n))?;
        self.pos += n;
        Ok(s)
    }

    /// Take the next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let &arr = self.rest().first_chunk().ok_or_else(|| self.truncated(N))?;
        self.pos += N;
        Ok(arr)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Read a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read an `f64` bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read `n` `f64`s stored back to back. The bytes are checked before
    /// the vector is allocated.
    #[inline]
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        let raw = self.bytes(n.checked_mul(8).ok_or_else(|| self.truncated(usize::MAX))?)?;
        Ok(raw.as_chunks().0.iter().map(|&w| f64::from_bits(u64::from_le_bytes(w))).collect())
    }

    /// Read a `u64` count, then that many `f64`s.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.count(8)?;
        self.f64s(n)
    }

    /// Read a `u32` byte length, then that many bytes.
    pub fn u32_prefixed(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// Read a `u64` count of items of at least `min_size` bytes each,
    /// refused unless that many fit in the bytes left.
    fn count(&mut self, min_size: usize) -> Result<usize, CodecError> {
        let count = self.u64()?;
        let need = usize::try_from(count).unwrap_or(usize::MAX).saturating_mul(min_size);
        if need > self.rest().len() {
            return Err(self.truncated(need));
        }
        Ok(count as usize)
    }

    /// Pre-allocation capacity for an unchecked `claimed` count: at most
    /// what the remaining bytes could hold at `min_size` bytes per item.
    #[inline]
    pub fn capacity(&self, claimed: usize, min_size: usize) -> usize {
        claimed.min(self.rest().len() / min_size.max(1))
    }

    /// Require every byte to have been consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.rest().len() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

/// Append a [`TreeState`] in the live-level layout: step counter `t`,
/// the four generator words, the row dimension `d` (`u64`), then `a_j`
/// and `b_j` (`d` `f64`s each) for every set bit `j` of `t` in
/// ascending order, then the maintained release (`d` `f64`s). No level
/// count or mask is stored: the live levels are the bits of `t`.
pub fn put_tree(e: &mut Enc<'_>, tree: &TreeState) {
    e.u64(tree.t as u64);
    for w in tree.rng {
        e.u64(w);
    }
    e.u64(tree.s.len() as u64);
    e.f64s(&tree.live);
    e.f64s(&tree.s);
}

/// Read a [`TreeState`] written by [`put_tree`]. Shape agreement with a
/// concrete mechanism is [`pir_continual::TreeMechanism::restore_state`]'s
/// job.
pub fn take_tree(d: &mut Dec<'_>) -> Result<TreeState, CodecError> {
    let t = d.u64()? as usize;
    let mut rng = [0u64; 4];
    for w in rng.iter_mut() {
        *w = d.u64()?;
    }
    let dim = usize::try_from(d.u64()?).unwrap_or(usize::MAX);
    let live = d.f64s(dim.saturating_mul(2 * t.count_ones() as usize))?;
    let s = d.f64s(dim)?;
    Ok(TreeState { t, live, s, rng })
}

/// Append an optional `f64`: a presence byte, `0` for `None` and `1` for
/// `Some`, then the bit pattern only if present.
pub fn put_opt_f64(e: &mut Enc<'_>, v: Option<f64>) {
    match v {
        None => e.u8(0),
        Some(x) => {
            e.u8(1);
            e.f64(x);
        }
    }
}

/// Read an optional `f64` written by [`put_opt_f64`].
///
/// # Errors
/// [`CoreError::InvalidState`] on truncation or a presence byte other
/// than `0` or `1`.
pub fn take_opt_f64(d: &mut Dec<'_>) -> Result<Option<f64>, CoreError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.f64()?)),
        found => Err(CoreError::InvalidState {
            reason: format!("presence byte {found} is neither 0 nor 1"),
        }),
    }
}

/// Read a state blob's leading mechanism tag and check it is one of
/// `accepted`, returning it.
///
/// # Errors
/// [`CoreError::InvalidState`] on truncation or a foreign tag.
pub fn expect_tag(d: &mut Dec<'_>, accepted: &[u8], mechanism: &str) -> Result<u8, CoreError> {
    let found = d.u8()?;
    if !accepted.contains(&found) {
        return Err(CoreError::InvalidState {
            reason: format!("state blob tag {found} is not one of {mechanism}'s tags {accepted:?}"),
        });
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_is_bit_exact() {
        let mut buf = Vec::new();
        let mut e = Enc::new(&mut buf);
        e.u8(7);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.f64(-0.0);
        e.f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        e.f64_slice(&[1.5, f64::MIN_POSITIVE]);
        e.u32_prefixed(b"abc");
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(d.f64_vec().unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        assert_eq!(d.u32_prefixed().unwrap(), b"abc");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let mut buf = Vec::new();
        Enc::new(&mut buf).u64(42);
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            assert_eq!(d.u64(), Err(CodecError::Truncated { need: 8, have: cut }));
        }
        buf.push(0);
        let mut d = Dec::new(&buf);
        d.u64().unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn forged_count_cannot_oversize_allocation() {
        let mut buf = Vec::new();
        Enc::new(&mut buf).u64(u64::MAX); // claimed element count
        let mut d = Dec::new(&buf);
        assert!(matches!(d.f64_vec(), Err(CodecError::Truncated { .. })));
        let mut d = Dec::new(&buf);
        assert!(matches!(d.f64s(usize::MAX), Err(CodecError::Truncated { .. })));
        assert_eq!(Dec::new(&buf).capacity(usize::MAX, 8), 1);
    }

    #[test]
    fn reserved_fields_backfill_in_place() {
        let mut buf = vec![0xAA];
        let mut e = Enc::new(&mut buf);
        let op = e.reserve::<1>();
        let len = e.reserve::<4>();
        e.bytes(b"payload");
        assert_eq!(e.fill_len(len, 7), Ok(7));
        e.fill(op, [0x42]);
        let slot = e.reserve::<4>();
        e.bytes(b"xy");
        assert_eq!(e.fill_len(slot, 1), Err(2), "over-cap lengths are refused");
        assert_eq!(buf, [&[0xAA, 0x42, 7, 0, 0, 0][..], b"payload", &[0, 0, 0, 0], b"xy"].concat());
    }

    /// `t = 5` (bits 0 and 2) with `d = 2`: two live levels.
    fn live_tree() -> TreeState {
        TreeState {
            t: 5,
            live: vec![1.0, 2.0, -1.0, 0.5, 3.0, 4.0, 0.0, 9.0],
            s: vec![2.0, 13.5],
            rng: [1, 2, 3, u64::MAX],
        }
    }

    #[test]
    fn tree_state_roundtrip() {
        let tree = live_tree();
        let mut buf = Vec::new();
        put_tree(&mut Enc::new(&mut buf), &tree);
        assert_eq!(buf.len(), 8 + 32 + 8 + 8 * 8 + 2 * 8, "no counts, no dead rows");
        let mut d = Dec::new(&buf);
        assert_eq!(take_tree(&mut d).unwrap(), tree);
        d.finish().unwrap();
        // Every strict prefix is a truncation, never a shorter tree.
        for cut in 0..buf.len() {
            assert!(take_tree(&mut Dec::new(&buf[..cut])).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn retired_and_foreign_tags_are_refused() {
        let accepted = [TAG_REG1_PACKED, TAG_REG1_LIVE];
        let tag = |b: u8| expect_tag(&mut Dec::new(&[b]), &accepted, "reg1");
        assert_eq!(tag(TAG_REG1_PACKED).unwrap(), TAG_REG1_PACKED);
        assert_eq!(tag(TAG_REG1_LIVE).unwrap(), TAG_REG1_LIVE);
        for other in [1, 2, 6, TAG_TRIVIAL, TAG_EXACT, TAG_REG2_SMOOTHNESS, TAG_REG2_PACKED, 0, 99]
        {
            assert!(matches!(tag(other), Err(CoreError::InvalidState { .. })), "tag {other}");
        }
        assert!(matches!(
            expect_tag(&mut Dec::new(&[]), &accepted, "reg1"),
            Err(CoreError::InvalidState { .. })
        ));
    }

    /// A single-bit flip of any tag a mechanism reads never lands on
    /// another tag it reads: the current and the read-only tag of each
    /// regression mechanism differ in more than one bit.
    #[test]
    fn tag_bit_flips_are_refused() {
        for accepted in [[TAG_REG1_PACKED, TAG_REG1_LIVE], [TAG_REG2_PACKED, TAG_REG2_SMOOTHNESS]] {
            for tag in accepted {
                for bit in 0..8 {
                    let flipped = tag ^ (1 << bit);
                    let r = expect_tag(&mut Dec::new(&[flipped]), &accepted, "reg");
                    assert!(matches!(r, Err(CoreError::InvalidState { .. })), "{tag} -> {flipped}");
                }
            }
        }
    }

    #[test]
    fn optional_f64_roundtrips_and_refuses_other_presence_bytes() {
        for v in [None, Some(2.5), Some(-0.0), Some(f64::NAN)] {
            let mut buf = Vec::new();
            put_opt_f64(&mut Enc::new(&mut buf), v);
            assert_eq!(buf.len(), if v.is_some() { 9 } else { 1 });
            let mut d = Dec::new(&buf);
            let back = take_opt_f64(&mut d).unwrap();
            assert_eq!(back.map(f64::to_bits), v.map(f64::to_bits));
            d.finish().unwrap();
            for cut in 0..buf.len() {
                let r = take_opt_f64(&mut Dec::new(&buf[..cut]));
                assert!(matches!(r, Err(CoreError::InvalidState { .. })), "cut at {cut}");
            }
        }
        for presence in [2u8, 0x80, 0xFF] {
            let r = take_opt_f64(&mut Dec::new(&[presence, 0, 0, 0, 0, 0, 0, 0, 0]));
            assert!(matches!(r, Err(CoreError::InvalidState { .. })), "presence {presence}");
        }
    }
}
