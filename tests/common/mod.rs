//! Test-side encoders of the mechanism state layouts that earlier builds
//! wrote: the full-level trees of blob tags 1 and 2, and the `Reg2`
//! blob without the carried lift smoothness (tag 6). The library only
//! reads those layouts now, so the suites that prove old blobs keep
//! restoring build them here; plus the `PIRS` plumbing to swap a
//! snapshot's mechanism state.

use private_incremental_regression::core::codec::{self, Dec, Enc};

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

/// Re-encode a current `Reg2` state blob (tag 7, carried smoothness
/// present or not) as earlier builds wrote it (tag 6): the same fields
/// up to the end of the second tree, and nothing after.
pub fn without_smoothness(blob: &[u8]) -> Vec<u8> {
    let mut d = Dec::new(blob);
    assert_eq!(d.u8().unwrap(), codec::TAG_REG2_SMOOTHNESS, "not a current Reg2 blob");
    d.u64().unwrap();
    d.f64_vec().unwrap();
    d.f64_vec().unwrap();
    codec::take_tree(&mut d).unwrap();
    codec::take_tree(&mut d).unwrap();
    let body = &d.consumed()[1..];
    codec::take_opt_f64(&mut d).unwrap();
    d.finish().unwrap();
    [&[codec::TAG_REG2_LIVE][..], body].concat()
}

/// `⌈log₂ T⌉ + 1`: the number of tree levels a horizon `T` implies.
pub fn tree_levels(t_max: usize) -> usize {
    if t_max <= 1 {
        1
    } else {
        (usize::BITS - (t_max - 1).leading_zeros()) as usize + 1
    }
}

/// Re-encode a live-level `Reg1`/`Reg2` state blob (tag 5 or 6) from a
/// mechanism built for horizon `t_max` in the full-level layout (tag 1
/// or 2): each tree is `t`, the generator words, then the `a` rows and
/// the `b` rows — a `u64` level count and every level as a `u64`-counted
/// vector, `+0.0` outside the bits of `t` — then the counted release.
pub fn full_level_state(live_blob: &[u8], t_max: usize) -> Vec<u8> {
    let mut d = Dec::new(live_blob);
    let (tag, vectors) = match d.u8().unwrap() {
        codec::TAG_REG1_LIVE => (codec::TAG_REG1, 1),
        codec::TAG_REG2_LIVE => (codec::TAG_REG2, 2),
        other => panic!("not a live-level tree mechanism blob: tag {other}"),
    };
    let mut out = Vec::new();
    let mut e = Enc::new(&mut out);
    e.u8(tag);
    e.u64(d.u64().unwrap());
    for _ in 0..vectors {
        e.f64_slice(&d.f64_vec().unwrap());
    }
    let levels = tree_levels(t_max);
    for _ in 0..2 {
        let tree = codec::take_tree(&mut d).unwrap();
        let dim = tree.s.len();
        let mut a = vec![vec![0.0; dim]; levels];
        let mut b = vec![vec![0.0; dim]; levels];
        let live_levels = (0..levels).filter(|j| tree.t >> j & 1 == 1);
        for (j, pair) in live_levels.zip(tree.live.chunks_exact(2 * dim)) {
            a[j].copy_from_slice(&pair[..dim]);
            b[j].copy_from_slice(&pair[dim..]);
        }
        e.u64(tree.t as u64);
        for w in tree.rng {
            e.u64(w);
        }
        for rows in [&a, &b] {
            e.u64(levels as u64);
            for row in rows {
                e.f64_slice(row);
            }
        }
        e.f64_slice(&tree.s);
    }
    d.finish().unwrap();
    out
}
