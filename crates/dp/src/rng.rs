//! Seeded noise source.
//!
//! All privacy noise in the workspace flows through [`NoiseRng`] so that
//! experiments are exactly reproducible from a single `u64` seed and so that
//! the normal/Laplace deviate generation is self-contained (only the
//! generator's uniform bit stream is consumed). The bit stream is an
//! in-tree xoshiro256++ seeded through SplitMix64 — no external `rand`
//! dependency, which keeps the workspace buildable offline.
//!
//! Standard-normal deviates use a 256-layer ziggurat (Marsaglia & Tsang,
//! the same construction as GSL's `gsl_ran_gaussian_ziggurat` and
//! `rand_distr`): one `u64` yields both the layer index and the abscissa,
//! so ~98.8% of draws cost one table lookup, one multiply, and one compare.
//! The tail beyond the rightmost layer boundary falls back to Marsaglia's
//! exponential method (`tests/ziggurat_stats.rs` cross-validates it
//! against a polar Box–Muller oracle). Laplace uses inverse-CDF sampling.

use std::sync::OnceLock;

/// xoshiro256++ core generator (public-domain algorithm by Blackman &
/// Vigna): 256-bit state, passes BigCrush, and is cheap enough to sit on
/// the per-node noise path of the tree mechanisms.
#[derive(Debug, Clone)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expand a 64-bit seed into the 256-bit state via SplitMix64 (the
    /// seeding procedure the xoshiro authors recommend).
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256PlusPlus { s: [next(), next(), next(), next()] }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        core_next(&mut self.s)
    }
}

/// One xoshiro256++ step on a raw state. Every sampler below is written
/// against this free function so the bulk fill paths can run it on a
/// *local copy* of the state (see [`NoiseRng::fill_gaussian`]): inside a
/// fill loop the four state words then live in registers for the whole
/// slice instead of being loaded and stored through `&mut self` on every
/// draw — the per-call overhead is paid once per fill, not once per word.
#[inline]
fn core_next(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

/// Uniform deviate in `[0, 1)` from the top 53 bits of the next word.
#[inline]
fn core_f64(s: &mut [u64; 4]) -> f64 {
    (core_next(s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform deviate in the open interval `(0, 1)`.
#[inline]
fn core_uniform_open(s: &mut [u64; 4]) -> f64 {
    loop {
        let u = core_f64(s);
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// Standard normal deviate via the 256-layer ziggurat, on a raw state.
#[inline]
fn core_gaussian(s: &mut [u64; 4], tables: &ZigTables) -> f64 {
    loop {
        let bits = core_next(s);
        // Low byte → layer; bits 12.. → 52-bit mantissa mapped through
        // [2, 4) to a signed abscissa fraction u ∈ [-1, 1). The two bit
        // fields are disjoint, so layer and abscissa are independent.
        let i = (bits & 0xFF) as usize;
        let u = f64::from_bits((bits >> 12) | 0x4000_0000_0000_0000) - 3.0;
        let x = u * tables.x[i];
        if x.abs() < tables.x[i + 1] {
            // Strictly inside the next-narrower layer: accept. ~98.8%
            // of draws exit here with no transcendental evaluation.
            return x;
        }
        if i == 0 {
            return core_gaussian_tail(s, u < 0.0);
        }
        // Wedge: accept with probability proportional to the density
        // overhang between the layer's rectangle and the true pdf.
        let f_hi = tables.f[i];
        let f_lo = tables.f[i + 1];
        if f_lo + (f_hi - f_lo) * core_f64(s) < zig_pdf(x) {
            return x;
        }
    }
}

/// Tail sample `|Z| > R` by Marsaglia's exponential method: accept
/// `x = -ln(U₁)/R` against `-ln(U₂) ≥ x²/2` and return `±(R + x)`.
#[cold]
fn core_gaussian_tail(s: &mut [u64; 4], negative: bool) -> f64 {
    loop {
        let x = -core_uniform_open(s).ln() / ZIG_R;
        let y = -core_uniform_open(s).ln();
        if 2.0 * y >= x * x {
            return if negative { -(ZIG_R + x) } else { ZIG_R + x };
        }
    }
}

/// Laplace deviate with location 0 via inverse-CDF sampling, on a raw
/// state.
#[inline]
fn core_laplace(s: &mut [u64; 4], scale: f64) -> f64 {
    let u = core_uniform_open(s) - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Number of ziggurat layers. 256 lets the layer index come straight from
/// the low byte of the same `u64` that provides the abscissa bits.
const ZIG_LAYERS: usize = 256;

/// Rightmost layer boundary `R` for the 256-layer standard-normal ziggurat
/// (Marsaglia & Tsang's solution of `V = R·f(R) + ∫_R^∞ f`).
const ZIG_R: f64 = 3.654_152_885_361_009;

/// Common area `V` of each ziggurat block (tail included in layer 0).
const ZIG_V: f64 = 0.004928673233997087;

/// Unnormalized standard-normal density `exp(-x²/2)`.
#[inline]
fn zig_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Precomputed layer edges `x[i]` and densities `f[i] = exp(-x[i]²/2)`.
///
/// `x[1] = R` is the rightmost edge; `x[0] = V / f(R)` is the *virtual*
/// base-layer width that makes layer 0 absorb the tail mass, and
/// `x[256] = 0` closes the stack at the mode. Built once on first use —
/// the tables are plain fixed-size arrays inside a `OnceLock`, so
/// initialization performs no heap allocation (the steady-state
/// allocation audit in `tests/alloc_steady_state.rs` covers this path).
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

static ZIG_TABLES: OnceLock<ZigTables> = OnceLock::new();

fn zig_tables() -> &'static ZigTables {
    ZIG_TABLES.get_or_init(|| {
        let f_inv = |y: f64| (-2.0 * y.ln()).sqrt();
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / zig_pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            // Each layer has area V: x[i] solves V = x[i-1]·(f(x[i]) − f(x[i-1])).
            x[i] = f_inv(ZIG_V / x[i - 1] + zig_pdf(x[i - 1]));
        }
        x[ZIG_LAYERS] = 0.0;
        let mut f = [0.0; ZIG_LAYERS + 1];
        for i in 0..=ZIG_LAYERS {
            f[i] = zig_pdf(x[i]);
        }
        ZigTables { x, f }
    })
}

/// A seedable random source producing the deviates the DP mechanisms need.
///
/// Every deviate consumes raw xoshiro words in order — there is no
/// read-ahead buffer and no cached spare, so the `[u64; 4]` state *is*
/// the whole sampler position. (An explicit block-buffered refill was
/// tried and measured as a strict pessimization: the scrambler is a
/// serial recurrence, so buffering its output adds a store, a load, and
/// cursor bookkeeping per word on top of identical scrambler work. The
/// bulk fill paths get their speed the cheap way instead — by running
/// the core on a register-local state copy for the whole slice; see
/// `core_next`.)
#[derive(Debug)]
pub struct NoiseRng {
    inner: Xoshiro256PlusPlus,
}

impl NoiseRng {
    /// Deterministic generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        NoiseRng { inner: Xoshiro256PlusPlus::seed_from_u64(seed) }
    }

    /// Next word of the uniform stream.
    #[inline]
    fn take_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform deviate in `[0, 1)` from the top 53 bits of the next word.
    #[inline]
    fn take_f64(&mut self) -> f64 {
        (self.take_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fork an independent child stream; the child's seed is drawn from the
    /// parent so sibling forks are decorrelated but fully reproducible.
    pub fn fork(&mut self) -> NoiseRng {
        let seed = self.take_u64();
        NoiseRng::seed_from_u64(seed)
    }

    /// The full 256-bit xoshiro256++ state, for serialization. A generator
    /// rebuilt with [`from_state`](NoiseRng::from_state) continues the bit
    /// stream exactly where this one stands — the primitive that session
    /// snapshots rely on to keep a stream's noise bit-identical across
    /// evict/restore. The sampler itself carries no other persistent state
    /// (the ziggurat tables are process-global constants and no spare
    /// deviate is cached), so these four words are the whole story.
    pub fn state(&self) -> [u64; 4] {
        self.inner.s
    }

    /// Rebuild a generator from a state previously captured with
    /// [`state`](NoiseRng::state).
    ///
    /// The all-zero state is a fixed point of xoshiro256++ (it would emit
    /// zeros forever); it can never be produced by
    /// [`seed_from_u64`](NoiseRng::seed_from_u64), so encountering it
    /// means the bytes are corrupt, and it is mapped to the
    /// SplitMix64-expanded seed-0 state instead of being honored.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return NoiseRng::seed_from_u64(0);
        }
        NoiseRng { inner: Xoshiro256PlusPlus { s } }
    }

    /// Uniform deviate in the open interval `(0, 1)` (never exactly 0, so it
    /// is safe inside logs).
    #[inline]
    pub fn uniform_open(&mut self) -> f64 {
        loop {
            let u: f64 = self.take_f64();
            if u > 0.0 && u < 1.0 {
                return u;
            }
        }
    }

    /// Uniform deviate in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.take_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn uniform_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_index: empty range");
        // Modulo bias is ≤ n/2⁶⁴ — irrelevant at the index ranges used here.
        (self.take_u64() % n as u64) as usize
    }

    /// Standard normal deviate `N(0, 1)` via the 256-layer ziggurat.
    #[inline]
    pub fn standard_gaussian(&mut self) -> f64 {
        core_gaussian(&mut self.inner.s, zig_tables())
    }

    /// Gaussian deviate `N(mu, sigma²)`.
    ///
    /// # Panics
    /// Panics in debug builds if `sigma < 0`.
    #[inline]
    pub fn gaussian(&mut self, mu: f64, sigma: f64) -> f64 {
        debug_assert!(sigma >= 0.0, "gaussian: negative sigma");
        mu + sigma * self.standard_gaussian()
    }

    /// Fill `out` with i.i.d. `N(0, sigma²)` deviates in one pass — the
    /// slice-filling primitive the tree mechanisms' node perturbation and
    /// every `*_vec` convenience wrapper sit on. Draws exactly the same
    /// stream as `out.len()` successive [`standard_gaussian`] calls scaled
    /// by `sigma`.
    ///
    /// [`standard_gaussian`]: NoiseRng::standard_gaussian
    ///
    /// # Panics
    /// Panics in debug builds if `sigma < 0`.
    pub fn fill_gaussian(&mut self, out: &mut [f64], sigma: f64) {
        debug_assert!(sigma >= 0.0, "fill_gaussian: negative sigma");
        let tables = zig_tables();
        // Run the core on a local state copy so the four state words stay
        // in registers across the whole slice; write it back once.
        let mut s = self.inner.s;
        for x in out.iter_mut() {
            *x = sigma * core_gaussian(&mut s, tables);
        }
        self.inner.s = s;
    }

    /// Vector of `d` i.i.d. `N(0, sigma²)` deviates (allocating wrapper
    /// over [`fill_gaussian`](NoiseRng::fill_gaussian)).
    pub fn gaussian_vec(&mut self, d: usize, sigma: f64) -> Vec<f64> {
        let mut out = vec![0.0; d];
        self.fill_gaussian(&mut out, sigma);
        out
    }

    /// Laplace deviate with location 0 and the given `scale` parameter
    /// (variance `2·scale²`), via inverse-CDF sampling.
    ///
    /// # Panics
    /// Panics in debug builds if `scale < 0`.
    pub fn laplace(&mut self, scale: f64) -> f64 {
        debug_assert!(scale >= 0.0, "laplace: negative scale");
        core_laplace(&mut self.inner.s, scale)
    }

    /// Fill `out` with i.i.d. Laplace deviates in one pass; same stream as
    /// `out.len()` successive [`laplace`](NoiseRng::laplace) calls.
    ///
    /// # Panics
    /// Panics in debug builds if `scale < 0`.
    pub fn fill_laplace(&mut self, out: &mut [f64], scale: f64) {
        debug_assert!(scale >= 0.0, "fill_laplace: negative scale");
        // Same register-local state pattern as `fill_gaussian`.
        let mut s = self.inner.s;
        for x in out.iter_mut() {
            *x = core_laplace(&mut s, scale);
        }
        self.inner.s = s;
    }

    /// Vector of `d` i.i.d. Laplace deviates (allocating wrapper over
    /// [`fill_laplace`](NoiseRng::fill_laplace)).
    pub fn laplace_vec(&mut self, d: usize, scale: f64) -> Vec<f64> {
        let mut out = vec![0.0; d];
        self.fill_laplace(&mut out, scale);
        out
    }

    /// Uniform point on the unit sphere `S^{d-1}` (normalized Gaussian),
    /// written into a caller-provided buffer. The degenerate-norm retry
    /// refills the same buffer, so the whole draw is allocation-free.
    ///
    /// # Panics
    /// Panics if `out` is empty (there is no `S^{-1}`).
    pub fn unit_sphere_into(&mut self, out: &mut [f64]) {
        assert!(!out.is_empty(), "unit_sphere_into: empty buffer");
        loop {
            self.fill_gaussian(out, 1.0);
            let n = pir_linalg::vector::norm2(out);
            if n > 1e-12 {
                out.iter_mut().for_each(|x| *x /= n);
                return;
            }
        }
    }

    /// Uniform point on the unit sphere `S^{d-1}` (allocating wrapper over
    /// [`unit_sphere_into`](NoiseRng::unit_sphere_into)).
    pub fn unit_sphere(&mut self, d: usize) -> Vec<f64> {
        let mut out = vec![0.0; d];
        self.unit_sphere_into(&mut out);
        out
    }

    /// Random permutation indices `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.uniform_index(i + 1);
            p.swap(i, j);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = NoiseRng::seed_from_u64(7);
        let mut b = NoiseRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.standard_gaussian(), b.standard_gaussian());
            assert_eq!(a.laplace(1.0), b.laplace(1.0));
        }
    }

    #[test]
    fn forks_are_decorrelated_but_reproducible() {
        let mut parent1 = NoiseRng::seed_from_u64(1);
        let mut parent2 = NoiseRng::seed_from_u64(1);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.standard_gaussian(), c2.standard_gaussian());
        // Sibling forks differ.
        let mut c3 = parent1.fork();
        assert_ne!(c1.standard_gaussian(), c3.standard_gaussian());
    }

    #[test]
    fn state_roundtrip_continues_the_stream() {
        let mut a = NoiseRng::seed_from_u64(77);
        // Burn an odd amount of state so we are mid-stream.
        for _ in 0..123 {
            a.standard_gaussian();
        }
        let mut b = NoiseRng::from_state(a.state());
        for _ in 0..1000 {
            assert_eq!(a.standard_gaussian(), b.standard_gaussian());
            assert_eq!(a.laplace(0.3), b.laplace(0.3));
        }
    }

    #[test]
    fn stream_is_bit_identical_to_the_pr5_sampler() {
        // Golden values captured from the PR 5 implementation: no rewrite
        // of the sampler internals (the register-local fill cores
        // included) may change the logical stream for any consumer —
        // gaussian, laplace, fork, uniforms, or the state reported after
        // a long fill.
        let mut r = NoiseRng::seed_from_u64(0xDEAD_BEEF);
        let gauss: [u64; 8] = [
            13828421222867740395,
            13826330054981477070,
            4607852156724744037,
            13823430793222249643,
            4608835828437415293,
            13831064452055620384,
            4582007117665280707,
            4605232679948859960,
        ];
        for (i, &bits) in gauss.iter().enumerate() {
            assert_eq!(r.standard_gaussian().to_bits(), bits, "gaussian {i}");
        }
        let laplace: [u64; 4] = [
            13829765036741856836,
            13837296147890625375,
            13833792660060040923,
            13822364654128713556,
        ];
        for (i, &bits) in laplace.iter().enumerate() {
            assert_eq!(r.laplace(1.3).to_bits(), bits, "laplace {i}");
        }
        let mut f = r.fork();
        assert_eq!(f.standard_gaussian().to_bits(), 4604531043703559532);
        assert_eq!(r.uniform_in(-1.0, 1.0).to_bits(), 13807362007626701632);
        assert_eq!(r.uniform_index(1000), 469);
        let mut big = vec![0.0f64; 300];
        r.fill_gaussian(&mut big, 1.0);
        assert_eq!(big[299].to_bits(), 4597786636572150510);
        assert_eq!(
            r.state(),
            [5502021649887796075, 4567548101666587829, 17980768427063066239, 16170254277397279891]
        );
    }

    #[test]
    fn state_roundtrip_at_every_stream_offset() {
        // `state()` must report the exact stream position wherever the
        // generator stands — the offsets here would straddle the block
        // boundaries of any buffered rewrite that changed that contract.
        for burn in 0..(2 * 64 + 3) {
            let mut a = NoiseRng::seed_from_u64(0xB10C);
            for _ in 0..burn {
                a.uniform_index(usize::MAX);
            }
            let mut b = NoiseRng::from_state(a.state());
            for i in 0..130 {
                assert_eq!(
                    a.standard_gaussian().to_bits(),
                    b.standard_gaussian().to_bits(),
                    "burn {burn}, draw {i}"
                );
            }
        }
    }

    #[test]
    fn zero_state_is_rejected_not_honored() {
        let mut z = NoiseRng::from_state([0; 4]);
        let mut s = NoiseRng::seed_from_u64(0);
        assert_eq!(z.state(), s.state());
        assert_eq!(z.standard_gaussian(), s.standard_gaussian());
    }

    #[test]
    fn ziggurat_layers_tile_the_density() {
        // Construction invariants: edges strictly decrease from the virtual
        // base to the mode, densities strictly increase, and the recursion
        // closes — the top layer's implied area matches V.
        let t = zig_tables();
        assert!((t.x[1] - ZIG_R).abs() < 1e-15);
        assert_eq!(t.x[ZIG_LAYERS], 0.0);
        for i in 1..=ZIG_LAYERS {
            assert!(t.x[i] < t.x[i - 1], "edges must decrease at {i}");
            assert!(t.f[i] > t.f[i - 1], "densities must increase at {i}");
        }
        assert!((t.f[ZIG_LAYERS] - 1.0).abs() < 1e-15, "f(0) = 1");
        // Top-layer closure: x[255]·(1 − f(x[255])) ≈ V.
        let top = t.x[ZIG_LAYERS - 1] * (1.0 - t.f[ZIG_LAYERS - 1]);
        assert!((top - ZIG_V).abs() < 1e-6, "top layer area {top}");
    }

    #[test]
    fn gaussian_moments_are_approximately_correct() {
        let mut rng = NoiseRng::seed_from_u64(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn fill_gaussian_matches_scalar_draws() {
        let mut a = NoiseRng::seed_from_u64(9);
        let mut b = NoiseRng::seed_from_u64(9);
        let mut buf = vec![0.0; 257];
        a.fill_gaussian(&mut buf, 2.5);
        for (i, &x) in buf.iter().enumerate() {
            assert_eq!(x, 2.5 * b.standard_gaussian(), "index {i}");
        }
    }

    #[test]
    fn fill_laplace_matches_scalar_draws() {
        let mut a = NoiseRng::seed_from_u64(10);
        let mut b = NoiseRng::seed_from_u64(10);
        let mut buf = vec![0.0; 129];
        a.fill_laplace(&mut buf, 0.7);
        for (i, &x) in buf.iter().enumerate() {
            assert_eq!(x, b.laplace(0.7), "index {i}");
        }
    }

    #[test]
    fn laplace_moments_are_approximately_correct() {
        let mut rng = NoiseRng::seed_from_u64(42);
        let n = 200_000;
        let b = 1.5;
        let samples: Vec<f64> = (0..n).map(|_| rng.laplace(b)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 2.0 * b * b).abs() < 0.25, "var {var}");
    }

    #[test]
    fn unit_sphere_has_unit_norm() {
        let mut rng = NoiseRng::seed_from_u64(3);
        for d in [1usize, 2, 10, 100] {
            let v = rng.unit_sphere(d);
            assert_eq!(v.len(), d);
            assert!((pir_linalg::vector::norm2(&v) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn unit_sphere_into_matches_allocating() {
        let mut a = NoiseRng::seed_from_u64(21);
        let mut b = NoiseRng::seed_from_u64(21);
        let mut buf = vec![f64::NAN; 16];
        for _ in 0..10 {
            a.unit_sphere_into(&mut buf);
            assert_eq!(buf, b.unit_sphere(16));
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = NoiseRng::seed_from_u64(5);
        let p = rng.permutation(50);
        let mut seen = [false; 50];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn uniform_open_never_returns_endpoints() {
        let mut rng = NoiseRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let u = rng.uniform_open();
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
