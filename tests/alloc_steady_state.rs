//! Steady-state allocation audit for the engine observe path.
//!
//! The paper's headline systems property is per-step work independent of
//! `t` with `O(d² log T)` space (§1.1, Algorithm 2) — but that only
//! materializes as throughput if the hot loop is FLOP-bound, not
//! allocator-bound. This test installs a counting `#[global_allocator]`
//! and proves the invariant the whole `_into` refactor exists for: after
//! warmup, driving `PrivIncReg1` and `PrivIncReg2` sessions (at two
//! different ambient dimensions) through `ShardedEngine::observe_into`
//! performs **zero heap allocations per point** — tree updates, sketch
//! embedding, gradient assembly, and the full ridged-FISTA descent all
//! run on mechanism-owned scratch.
//!
//! The file holds exactly one `#[test]` so no concurrent test can touch
//! the allocator while the steady-state window is being measured.

use private_incremental_regression::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` wrapped with allocation/reallocation counters.
struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn total_heap_events() -> u64 {
    ALLOCS.load(Ordering::SeqCst) + REALLOCS.load(Ordering::SeqCst)
}

#[test]
fn engine_observe_path_is_allocation_free_in_steady_state() {
    let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
    // Single shard, inline execution: the measurement must not cross
    // thread spawns (worker threads allocate stacks, not release math).
    let mut engine =
        ShardedEngine::new(EngineConfig { num_shards: 1, seed: 7, parallel: false }).unwrap();
    let t_max = 1usize << 32; // inexhaustible horizon

    // Three sessions: both paper mechanisms, two ambient dimensions —
    // so the zero-alloc claim is not an artifact of one code path or of
    // a dimension that happens to fit some internal buffer.
    let d1 = 8;
    let d2 = 24;
    engine.spawn_session(1, &MechanismSpec::reg1_l2(d1), t_max, &params).unwrap();
    engine.spawn_session(2, &MechanismSpec::reg1_l2(d2), t_max, &params).unwrap();
    engine.spawn_session(3, &MechanismSpec::reg2_l1(d2, 1.0), t_max, &params).unwrap();

    let z1 = DataPoint::new(vec![0.4, 0.2, -0.1, 0.3, 0.0, 0.1, -0.2, 0.05], 0.3);
    let mut x2 = vec![0.0; d2];
    for (i, v) in x2.iter_mut().enumerate() {
        *v = 0.15 * (1.0 - 0.05 * i as f64);
    }
    let z2 = DataPoint::new(x2, -0.2);
    let mut release1 = vec![0.0; d1];
    let mut release2 = vec![0.0; d2];
    let mut release3 = vec![0.0; d2];

    // Sanity: the counter actually counts.
    let before_probe = total_heap_events();
    let probe = vec![0u8; 4096];
    assert!(total_heap_events() > before_probe, "counting allocator is not installed");
    drop(probe);

    // Warmup: lets one-time lazy state (allocator arenas, fmt machinery,
    // the mechanisms' first tree completions) settle.
    for _ in 0..64 {
        engine.observe_into(1, &z1, &mut release1).unwrap();
        engine.observe_into(2, &z2, &mut release2).unwrap();
        engine.observe_into(3, &z2, &mut release3).unwrap();
    }

    // Steady state: not one heap event across 256 points per session.
    for (sid, z, release, label) in [
        (1u64, &z1, &mut release1, "PrivIncReg1 d=8"),
        (2, &z2, &mut release2, "PrivIncReg1 d=24"),
        (3, &z2, &mut release3, "PrivIncReg2 d=24"),
    ] {
        let before = total_heap_events();
        for _ in 0..256 {
            engine.observe_into(sid, z, release).unwrap();
        }
        let events = total_heap_events() - before;
        assert_eq!(
            events, 0,
            "steady-state observe path for {label} performed {events} heap allocations \
             over 256 points"
        );
        assert!(release.iter().all(|v| v.is_finite()), "{label} released a non-finite value");
    }

    // Batch path: `observe_batch_into` must be zero-alloc for the whole
    // batch, not just per point — the mechanism hoists its per-batch
    // constants and writes every release into the caller's flat buffer.
    const BATCH: usize = 32;
    let batch1: Vec<DataPoint> = (0..BATCH).map(|_| z1.clone()).collect();
    let batch2: Vec<DataPoint> = (0..BATCH).map(|_| z2.clone()).collect();
    let mut flat1 = vec![0.0; BATCH * d1];
    let mut flat2 = vec![0.0; BATCH * d2];
    let mut flat3 = vec![0.0; BATCH * d2];
    // Warmup: one batch per session (first call may complete new tree
    // levels whose node buffers are allocated lazily on level growth).
    engine.observe_batch_into(1, &batch1, &mut flat1).unwrap();
    engine.observe_batch_into(2, &batch2, &mut flat2).unwrap();
    engine.observe_batch_into(3, &batch2, &mut flat3).unwrap();
    for (sid, batch, flat, label) in [
        (1u64, &batch1, &mut flat1, "PrivIncReg1 d=8"),
        (2, &batch2, &mut flat2, "PrivIncReg1 d=24"),
        (3, &batch2, &mut flat3, "PrivIncReg2 d=24"),
    ] {
        let before = total_heap_events();
        for _ in 0..8 {
            engine.observe_batch_into(sid, batch, flat).unwrap();
        }
        let events = total_heap_events() - before;
        assert_eq!(
            events, 0,
            "steady-state batch path for {label} performed {events} heap allocations \
             over 8 batches of {BATCH}"
        );
        assert!(flat.iter().all(|v| v.is_finite()), "{label} released a non-finite value");
    }

    // Contrast: the allocating observe() pays at least the release vector
    // per point — this pins that the measurement itself is meaningful.
    let before = total_heap_events();
    let theta = engine.observe(1, &z1).unwrap();
    assert!(total_heap_events() > before, "allocating path should allocate the release");
    assert_eq!(theta.len(), d1);

    first_reg2_step_allocates_nothing(&params, &z2);
    tree_rows_are_one_allocation_whatever_the_horizon();
    tree_stack_never_reallocates();
}

/// The first `PrivIncReg2` step computes the lift smoothness (a power
/// iteration over the sketch; neither construction nor a restore runs
/// it), so that step must be allocation-free too: after `new`, and after
/// loading a blob saved at `t = 0`, which carries no smoothness.
fn first_reg2_step_allocates_nothing(params: &PrivacyParams, z: &DataPoint) {
    let d = z.x.len();
    let spawn = || {
        let mut rng = NoiseRng::seed_from_u64(11);
        let config = PrivIncReg2Config { m_override: Some(10), ..Default::default() };
        PrivIncReg2::new(Box::new(L1Ball::unit(d)), 1.0, 64, params, &mut rng, config).unwrap()
    };
    let mut release = vec![0.0; d];
    let mut first_step = |mech: &mut PrivIncReg2, label: &str| {
        let before = total_heap_events();
        mech.observe_into(z, &mut release).unwrap();
        let events = total_heap_events() - before;
        assert_eq!(events, 0, "first PrivIncReg2 step {label} performed {events} heap allocations");
    };
    let mut fresh = spawn();
    let mut blob = Vec::new();
    fresh.save_state(&mut blob).unwrap();
    assert_eq!(blob.last(), Some(&0), "a t = 0 blob carries no smoothness");
    first_step(&mut fresh, "after new");

    let mut restored = spawn();
    restored.load_state(&blob).unwrap();
    first_step(&mut restored, "after loading a t = 0 blob");
}

/// A `TreeMechanism` reserves its row stack in one allocation, so
/// construction costs the same two allocations (the stack and the
/// maintained release) whether the tree has 5 levels or 41.
fn tree_rows_are_one_allocation_whatever_the_horizon() {
    let build = |t_max: usize| {
        let before = total_heap_events();
        let tree = TreeMechanism::with_sigma(16, t_max, 1.0, NoiseRng::seed_from_u64(5));
        let events = total_heap_events() - before;
        drop(tree);
        events
    };
    let (short, long) = (build(1 << 4), build(1 << 40));
    assert_eq!(short, long, "construction allocated {short} times at T = 2^4, {long} at T = 2^40");
    assert_eq!(short, 2, "construction allocated {short} times, not the stack plus the release");
}

/// Driving a `T = 2¹⁰` tree from `t = 0` to `t = T` stays inside the
/// capacity reserved at construction: through `t = 2¹⁰ − 1`, where the
/// stack is deepest, and the final step that pops it to one pair.
fn tree_stack_never_reallocates() {
    let t_max = 1 << 10;
    let mut tree = TreeMechanism::with_sigma(16, t_max, 1.0, NoiseRng::seed_from_u64(6));
    let item = [0.25; 16];
    let mut release = [0.0; 16];
    let before = total_heap_events();
    for _ in 0..t_max {
        tree.update_into(&item, &mut release).unwrap();
    }
    let events = total_heap_events() - before;
    assert_eq!(events, 0, "driving a T = 2^10 tree to its horizon made {events} heap events");
    assert_eq!(tree.len(), t_max);
}
