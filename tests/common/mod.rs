//! `PIRS` plumbing shared by the snapshot suites: read a snapshot's
//! mechanism state blob, or swap it for another and seal the envelope
//! again.

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
