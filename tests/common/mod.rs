//! Test-side encoder of the full-level mechanism state layout that
//! `PrivIncReg1`/`PrivIncReg2` wrote before the live-level layout
//! (blob tags 1 and 2). The library only reads that layout now, so the
//! suites that prove old blobs keep restoring build them here.

use private_incremental_regression::core::codec::{self, Dec, Enc};

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
