//! Euclidean-projection cost per constraint set — the dominant inner-loop
//! operation of `NOISYPROJGRAD` and the lifting FISTA.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pir_dp::NoiseRng;
use pir_geometry::{
    ConvexSet, GroupL1Ball, L1Ball, L2Ball, LinfBall, LpBall, PolytopeHull, ProjectionHint, Simplex,
};
use std::hint::black_box;

/// A `B₁` projection input in the regime the gauge lift serves at
/// `d = 1000`: a sparse iterate plus a dense small gradient step, so
/// `‖x‖₁` is about 2.7 and about 250 magnitudes survive the threshold.
/// (A unit Gaussian vector has `‖x‖₁ ≈ 800`, and only a handful of its
/// magnitudes survive.) Returns the input and its `ρ`.
fn served_l1_input(rng: &mut NoiseRng, d: usize) -> (Vec<f64>, usize) {
    let x: Vec<f64> = (0..d)
        .map(|_| {
            let sign = if rng.uniform_index(2) == 0 { 1.0 } else { -1.0 };
            let scale = if rng.uniform_index(1000) < 350 { 0.012 } else { 0.002 };
            sign * rng.uniform_in(0.0, scale)
        })
        .collect();
    let norm1: f64 = x.iter().map(|v| v.abs()).sum();
    assert!((2.0..=4.0).contains(&norm1), "served input has ‖x‖₁ = {norm1}");
    let mut hint = ProjectionHint::default();
    L1Ball::unit(d).project_into_hinted(&x, &mut vec![0.0; d], &mut hint);
    let rho = hint.get();
    assert!((200..=300).contains(&rho), "served input keeps {rho} of {d} magnitudes");
    (x, rho)
}

fn bench_projections(c: &mut Criterion) {
    let d = 1000usize;
    let mut rng = NoiseRng::seed_from_u64(1);
    let x: Vec<f64> = rng.gaussian_vec(d, 1.0);

    let mut group = c.benchmark_group("projection_d1000");
    // `l1` is the full magnitude sort (`project_into`, hint 0), and
    // `l1_hinted` the hinted projection the lift's FISTA runs, fed back
    // its own hint as from one iteration to the next. Both give the
    // same bits; `l1_gaussian` keeps the unit-Gaussian input.
    let (served, rho) = served_l1_input(&mut NoiseRng::seed_from_u64(2), d);
    let ball = L1Ball::unit(d);
    group.bench_with_input(BenchmarkId::from_parameter("l1"), &served, |b, x| {
        let mut out = vec![0.0; d];
        b.iter(|| {
            ball.project_into(black_box(x), &mut out);
            black_box(out[0])
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("l1_hinted"), &served, |b, x| {
        let mut out = vec![0.0; d];
        let mut hint = ProjectionHint::new(rho);
        b.iter(|| {
            ball.project_into_hinted(black_box(x), &mut out, &mut hint);
            black_box(out[0])
        });
    });

    let sets: Vec<(&str, Box<dyn ConvexSet>)> = vec![
        ("l2", Box::new(L2Ball::unit(d))),
        ("l1_gaussian", Box::new(L1Ball::unit(d))),
        ("linf", Box::new(LinfBall::new(d, 0.5))),
        ("simplex", Box::new(Simplex::standard(d))),
        ("group_l1_k10", Box::new(GroupL1Ball::new(d, 10, 1.0))),
        ("lp_1.5", Box::new(LpBall::new(d, 1.5, 1.0))),
    ];
    for (name, set) in &sets {
        group.bench_with_input(BenchmarkId::from_parameter(name), set, |b, set| {
            b.iter(|| black_box(set.project(black_box(&x))));
        });
    }
    group.finish();

    // The hull projection is iterative; bench at a smaller dimension.
    let dh = 100usize;
    let hull = PolytopeHull::cross_polytope(dh, 1.0).with_projection_iters(300);
    let xh: Vec<f64> = rng.gaussian_vec(dh, 1.0);
    c.bench_function("projection_hull_d100_fw300", |b| {
        b.iter(|| black_box(hull.project(black_box(&xh))));
    });
}

criterion_group!(benches, bench_projections);
criterion_main!(benches);
