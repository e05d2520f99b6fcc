//! `PIRS` plumbing shared by the snapshot suites: read a snapshot's
//! mechanism state blob, or swap it for another and seal the envelope
//! again; and the previous build's state blobs, committed as fixtures.

use private_incremental_regression::prelude::*;

/// The mechanism state blob of a `PIRS` session snapshot: a `u32`-counted
/// field after the 12-byte header, the eight fixed body fields and the
/// `u32`-counted spec, ending at the 4-byte CRC trailer.
pub fn snapshot_state(snapshot: &[u8]) -> &[u8] {
    let spec_at = 12 + 8 * 8;
    let spec_len = u32::from_le_bytes(snapshot[spec_at..spec_at + 4].try_into().unwrap());
    &snapshot[spec_at + 4 + spec_len as usize + 4..snapshot.len() - 4]
}

/// `snapshot` with its mechanism state blob replaced by `state`, the
/// body length and the CRC sealed again.
pub fn with_snapshot_state(snapshot: &[u8], state: &[u8]) -> Vec<u8> {
    let at = snapshot.len() - 4 - snapshot_state(snapshot).len() - 4;
    let mut out = snapshot[..at].to_vec();
    out.extend_from_slice(&(state.len() as u32).to_le_bytes());
    out.extend_from_slice(state);
    let body_len = (out.len() - 12) as u32;
    out[8..12].copy_from_slice(&body_len.to_le_bytes());
    let crc = pir_engine::wal::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A committed hex fixture as bytes: two hex digits per byte, line
/// breaks ignored.
pub fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks_exact(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// State blobs the previous build wrote, with full-width second-moment
/// trees: a `PRIVINCREG1` tag-05 blob and a `PRIVINCREG2` tag-07 blob,
/// each after 5 points of the byte-pin stream. The mechanisms they load
/// into are [`pin_mechanisms`].
pub fn legacy_pin_blobs() -> [Vec<u8>; 2] {
    [
        unhex(include_str!("../fixtures/reg1_tag5_pin.hex")),
        unhex(include_str!("../fixtures/reg2_tag7_pin.hex")),
    ]
}

/// The byte-pin mechanisms, built in this order from one generator:
/// `PRIVINCREG1` over the unit `ℓ₂` ball in `R²`, then `PRIVINCREG2` over
/// the unit `ℓ₁` ball in `R⁴` with `m = 3`, both at `T = 16`,
/// `(ε, δ) = (1, 10⁻⁶)`.
pub fn pin_mechanisms() -> (PrivIncReg1, PrivIncReg2) {
    let p = PrivacyParams::approx(1.0, 1e-6).unwrap();
    let mut rng = NoiseRng::seed_from_u64(2017);
    let reg2_config =
        PrivIncReg2Config { m_override: Some(3), lift_iters: 40, ..Default::default() };
    let reg1 =
        PrivIncReg1::new(Box::new(L2Ball::unit(2)), 16, &p, &mut rng, Default::default()).unwrap();
    let reg2 =
        PrivIncReg2::new(Box::new(L1Ball::unit(4)), 2.0, 16, &p, &mut rng, reg2_config).unwrap();
    (reg1, reg2)
}
