//! Algorithm 3 — `PRIVINCREG2`: beyond-worst-case private incremental
//! linear regression via Gaussian sketching and gauge lifting.
//!
//! Pipeline per timestep (paper Steps 4–10):
//! 1. rescale-and-project the covariate: `Φx̃` with `‖Φx̃‖ = ‖x‖ ≤ 1`
//!    (keeps the projected streams' sensitivity at 2);
//! 2. Tree Mechanism over `Φx̃·y ∈ R^m` and `(Φx̃)(Φx̃)ᵀ ∈ R^{m²}` at
//!    `(ε/2, δ/2)` each;
//! 3. private gradient function in the *projected* space and
//!    `NOISYPROJGRAD` over a Euclidean ball `B₂^m((1+γ)‖C‖) ⊇ ΦC`.
//!    Steps 2–3 are Algorithm 2 run in `R^m`: the same private gradient
//!    function `PrivIncReg1` runs (`gradient_fn.rs`), with Lemma 4.1's `α`
//!    over the ball. The ball is an implementation choice: exact
//!    Euclidean projection onto the image set `ΦC` has no closed form; by
//!    Gordon's theorem the ball is a `(1+γ)`-tight superset, and the
//!    subsequent lifting step restores feasibility in `C` (DESIGN.md,
//!    decision 3);
//! 4. lift `ϑ_t ∈ R^m` back to `θ_t ∈ C ⊆ R^d` (Step 9) via
//!    [`crate::lift::lift_constrained_ls`].
//!
//! The sketch dimension `m` follows Gordon's rule with
//! `γ = W^{1/3}/T^{1/3}` and `W = w(X) + w(C)`, giving Theorem 5.7's
//! `≈ T^{1/3} W^{2/3}/ε` risk. Memory: `O(m² log T + d)`.

use crate::codec::{self, Dec, Enc};
use crate::descent::DescentStrategy;
use crate::error::CoreError;
use crate::gradient_fn::PrivateGradient;
use crate::lift::{
    lift_constrained_ls_into, lift_gap, sketch_smoothness_with, smoothness_bracket, LiftScratch,
};
use crate::stream::{check_arrivals, IncrementalMechanism};
use crate::Result;
use pir_dp::{NoiseRng, PrivacyParams};
use pir_erm::DataPoint;
use pir_geometry::{ConvexSet, L2Ball, WidthSet};
use pir_linalg::vector;
use pir_sketch::{gordon, GaussianSketch};

/// Tuning knobs for [`PrivIncReg2`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivIncReg2Config {
    /// Confidence parameter `β`.
    pub beta: f64,
    /// Override the distortion `γ` (default: `W^{1/3}/T^{1/3}`).
    pub gamma: Option<f64>,
    /// Override the sketch dimension `m` (default: Gordon's rule).
    pub m_override: Option<usize>,
    /// Gordon constant `C` (DESIGN.md decision on constants; default 1).
    pub gordon_constant: f64,
    /// Cap on per-step `NOISYPROJGRAD` iterations.
    pub max_pgd_iters: usize,
    /// Work budget of the lifting step: its evaluations of `Φθ`, one at
    /// the projected warm start and one per trial step, whether accepted
    /// or backtracked (so at most this many sparse products and
    /// projections, and one fewer dense products `Φᵀr`). A lift that
    /// certifies its duality gap first stops early
    /// ([`crate::lift::lift_constrained_ls_into`]).
    pub lift_iters: usize,
    /// Per-timestep minimization strategy (see [`DescentStrategy`]).
    pub strategy: DescentStrategy,
}

impl Default for PrivIncReg2Config {
    fn default() -> Self {
        PrivIncReg2Config {
            beta: 0.05,
            gamma: None,
            m_override: None,
            gordon_constant: 1.0,
            max_pgd_iters: 64,
            lift_iters: 200,
            strategy: DescentStrategy::default(),
        }
    }
}

/// The sketched private incremental regression mechanism
/// (Algorithm 3, Theorem 5.7).
///
/// # Examples
///
/// Sparse regression over the unit `ℓ₁` ball with a fixed sketch
/// dimension (use `m_override: None` to let Gordon's rule size it from
/// the combined Gaussian width):
///
/// ```
/// use pir_core::{IncrementalMechanism, PrivIncReg2, PrivIncReg2Config};
/// use pir_dp::{NoiseRng, PrivacyParams};
/// use pir_erm::DataPoint;
/// use pir_geometry::L1Ball;
///
/// let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
/// let mut rng = NoiseRng::seed_from_u64(7);
/// let d = 50;
/// let mut mech = PrivIncReg2::new(
///     Box::new(L1Ball::unit(d)),
///     2.0, // bound on the covariate-domain Gaussian width w(X)
///     32,  // stream horizon T
///     &params,
///     &mut rng,
///     PrivIncReg2Config { m_override: Some(8), ..Default::default() },
/// )
/// .unwrap();
///
/// // One release per arrival; `observe_batch` amortizes whole runs.
/// let mut x = vec![0.0; d];
/// x[0] = 0.5;
/// let theta = mech.observe(&DataPoint::new(x, 0.35)).unwrap();
/// assert_eq!(theta.len(), d);
/// assert!(theta.iter().map(|v| v.abs()).sum::<f64>() <= 1.0 + 1e-6);
/// ```
#[derive(Debug)]
pub struct PrivIncReg2 {
    set: Box<dyn ConvexSet>,
    config: PrivIncReg2Config,
    sketch: GaussianSketch,
    /// `B₂^m((1+γ)‖C‖) ⊇ ΦC` — the search region in the projected space.
    proj_ball: L2Ball,
    gamma: f64,
    combined_width: f64,
    /// The lift's `2‖Φ‖²` ([`crate::lift::sketch_smoothness`]): computed
    /// at the first step that needs it, or carried in from a state blob.
    lift_smoothness: Option<f64>,
    /// Both projected-space trees, the step buffers and Lemma 4.1's `α`
    /// over the ball `B₂^m((1+γ)‖C‖)`.
    grad: PrivateGradient,
    /// Last projected-space iterate (warm start for the per-step PGD).
    last_vartheta: Vec<f64>,
    /// Last lifted release (warm start for the lift FISTA).
    last_theta: Vec<f64>,
    /// `Φθ` evaluations the last step's lift used (a diagnostic, not
    /// part of the state blob).
    last_lift_iters: usize,
    scratch: Reg2Scratch,
}

/// Mechanism-owned step buffers around the private gradient function's
/// own, preallocated at construction and reused every timestep: the
/// embedding in `R^m` and the gauge lift back to `C ⊂ R^d`, so a whole
/// [`PrivIncReg2::observe_into`] step is allocation-free.
#[derive(Debug, Clone)]
struct Reg2Scratch {
    /// Norm-preserving embedding `Φx̃`.
    embedded: Vec<f64>,
    /// Per-step minimizer `ϑ_t` in the projected space.
    vartheta: Vec<f64>,
    /// Buffers for the gauge lift (Step 9). The Step 4 embedding
    /// borrows its column indices, and the first step's power iteration
    /// for the lift smoothness borrows its `m`- and `d`-vectors.
    lift: LiftScratch,
}

impl Reg2Scratch {
    fn new(m: usize, d: usize) -> Self {
        Reg2Scratch { embedded: vec![0.0; m], vartheta: vec![0.0; m], lift: LiftScratch::new(m, d) }
    }
}

impl PrivIncReg2 {
    /// Build the mechanism.
    ///
    /// `domain_width` is (a bound on) the Gaussian width `w(X)` of the
    /// covariate domain — analytic bounds are on the
    /// [`WidthSet`] implementations (e.g.
    /// [`pir_geometry::KSparseDomain::width_bound`]), or use the
    /// Monte-Carlo estimate from [`pir_geometry::width::monte_carlo`].
    ///
    /// # Errors
    /// Invalid configuration or privacy parameters.
    pub fn new(
        set: Box<dyn ConvexSet>,
        domain_width: f64,
        t_max: usize,
        params: &PrivacyParams,
        rng: &mut NoiseRng,
        config: PrivIncReg2Config,
    ) -> Result<Self> {
        if t_max == 0 {
            return Err(CoreError::InvalidConfig { reason: "t_max must be positive".into() });
        }
        if !(domain_width.is_finite() && domain_width >= 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("domain width must be finite and non-negative, got {domain_width}"),
            });
        }
        let d = set.dim();
        let combined_width = domain_width + set.width_bound();
        let gamma = match config.gamma {
            Some(g) if g > 0.0 && g < 1.0 => g,
            Some(g) => {
                return Err(CoreError::InvalidConfig {
                    reason: format!("gamma must lie in (0,1), got {g}"),
                })
            }
            None => gordon::gamma_for(combined_width, t_max),
        };
        let m = match config.m_override {
            Some(m) if m >= 1 && m <= d => m,
            Some(m) => {
                return Err(CoreError::InvalidConfig {
                    reason: format!("m override {m} outside [1, d={d}]"),
                })
            }
            None => {
                let gp = gordon::GordonParams::new(gamma, config.beta)
                    .with_constant(config.gordon_constant);
                gordon::dimension(combined_width, d, &gp)
            }
        };
        let sketch = GaussianSketch::sample(m, d, rng);
        let proj_ball = L2Ball::new(m, (1.0 + gamma) * set.diameter());
        // ‖Φx̃·y‖ = ‖x‖·|y| ≤ 1 and ‖(Φx̃)(Φx̃)ᵀ‖_F = ‖x‖² ≤ 1, so the
        // projected streams keep the trees' per-item norm bound 1.
        let grad = PrivateGradient::new(
            &proj_ball,
            t_max,
            params,
            config.beta,
            config.strategy,
            config.max_pgd_iters,
            rng,
        )?;
        let last_theta = set.project(&vec![0.0; d]);
        Ok(PrivIncReg2 {
            set,
            config,
            sketch,
            proj_ball,
            gamma,
            combined_width,
            lift_smoothness: None,
            grad,
            last_vartheta: vec![0.0; m],
            last_theta,
            last_lift_iters: 0,
            scratch: Reg2Scratch::new(m, d),
        })
    }

    /// The sampled sketch dimension `m`.
    pub fn m(&self) -> usize {
        self.sketch.m()
    }

    /// The distortion parameter `γ` in use.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The combined width `W = w(X) + w(C)` the mechanism was sized for.
    pub fn combined_width(&self) -> f64 {
        self.combined_width
    }

    /// The constraint set.
    pub fn set(&self) -> &dyn ConvexSet {
        self.set.as_ref()
    }

    /// The sketch (immutable — fixed for the stream's lifetime).
    pub fn sketch(&self) -> &GaussianSketch {
        &self.sketch
    }

    /// Work the gauge lift (Step 9) used at the last step, in the units
    /// of [`PrivIncReg2Config::lift_iters`]: its evaluations of `Φθ`, one
    /// at the projected warm start plus one per accepted or backtracked
    /// trial step. At most `lift_iters`, fewer once the lift certified
    /// its duality gap. Zero before the first step and after a state
    /// restore (it is not part of the state blob).
    pub fn last_lift_iters(&self) -> usize {
        self.last_lift_iters
    }

    /// The duality gap of the last release, relative to the lift
    /// objective's scale: `gap/‖ϑ_t‖²` ([`crate::lift::lift_gap`],
    /// computed exactly from dense products). The lift stops once this
    /// is at most [`crate::lift::LIFT_GAP_TOL`]. A diagnostic that
    /// allocates; `NaN` or infinite while `ϑ_t = 0`, as before the first
    /// step.
    pub fn last_lift_gap(&self) -> f64 {
        let gap = lift_gap(&self.sketch, &self.last_vartheta, self.set.as_ref(), &self.last_theta);
        gap / vector::norm2_sq(&self.last_vartheta)
    }

    /// Reserved memory in `f64` slots: `O(m² log T + m·d)` (the `m·d`
    /// term is the sketch itself). The trees write only the levels their
    /// stacks have reached, so what is resident is `O(m² · popcount + m·d)`
    /// for the largest `popcount(t)` seen so far (see
    /// [`TreeMechanism::memory_slots`](pir_continual::TreeMechanism::memory_slots)).
    pub fn memory_slots(&self) -> usize {
        self.grad.memory_slots() + self.sketch.m() * self.sketch.d()
    }

    /// Theorem 5.7 leading-term bound
    /// `≈ √m·log^{3/2}T·√log(1/δ)·‖C‖²/ε` folded through Corollary B.2
    /// (the `OPT`-dependent terms are data-dependent and reported by the
    /// evaluation harness instead).
    pub fn risk_bound_leading(&self) -> f64 {
        2.0 * self.grad.alpha() * self.proj_ball.diameter()
    }

    /// The batch contract against this mechanism's dimension and horizon
    /// (`RobustPrivIncReg2` checks its batches here too).
    pub(crate) fn check(
        &self,
        points: &[DataPoint],
        batch: bool,
        out_len: Option<usize>,
    ) -> Result<()> {
        check_arrivals(self.set.dim(), points, batch, out_len, Some(self.grad.horizon()))
    }

    /// Consume one already-validated point (Steps 4–9 of Algorithm 3) and
    /// write the lifted release into `out` — the allocation-free per-point
    /// body shared by the step and batch paths.
    pub(crate) fn consume_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<()> {
        // Step 4: norm-preserving embedding (zero covariates contribute
        // zero statistics, matching the robust-extension convention; the
        // degenerate case leaves the scratch zero-filled). The lift's
        // column-index scratch is free until Step 9, so the sparse
        // embedding borrows it.
        self.sketch
            .embed_normalized_into(
                &z.x,
                self.scratch.lift.support_mut(),
                &mut self.scratch.embedded,
            )
            .map_err(CoreError::Linalg)?;

        // Steps 5–8: the private gradient function in the projected space,
        // minimized over ΦC's ball hull (the paper's NOISYPROJGRAD or the
        // default ridged-quadratic FISTA — both post-processing; see
        // crate::descent).
        self.grad.step_into(
            &self.scratch.embedded,
            z.y,
            &self.proj_ball,
            &self.last_vartheta,
            &mut self.scratch.vartheta,
        )?;
        self.last_vartheta.copy_from_slice(&self.scratch.vartheta);

        // Step 9: lift back to C, written straight into the release
        // buffer (dimensions are fixed at construction, so the panicking
        // preconditions of the _into lift cannot trigger here).
        let smoothness = *self
            .lift_smoothness
            .get_or_insert_with(|| sketch_smoothness_with(&self.sketch, &mut self.scratch.lift));
        self.last_lift_iters = lift_constrained_ls_into(
            &self.sketch,
            &self.scratch.vartheta,
            self.set.as_ref(),
            smoothness,
            self.config.lift_iters,
            &self.last_theta,
            &mut self.scratch.lift,
            out,
        );
        self.last_theta.copy_from_slice(out);
        Ok(())
    }
}

impl IncrementalMechanism for PrivIncReg2 {
    fn name(&self) -> String {
        format!("priv-inc-reg-2 (sketched, m={})", self.sketch.m())
    }

    fn dim(&self) -> usize {
        self.set.dim()
    }

    fn t(&self) -> usize {
        self.grad.t()
    }

    fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.set.dim()];
        self.observe_into(z, &mut out)?;
        Ok(out)
    }

    /// One Algorithm-3 step, written into `out` — the primitive behind
    /// `observe`. The whole step — embedding, tree updates, descent, and
    /// the gauge lift back to `C` — runs allocation-free on
    /// mechanism-owned scratch (`tests/alloc_steady_state.rs` enforces
    /// this with a counting global allocator).
    fn observe_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<()> {
        self.check(std::slice::from_ref(z), false, Some(out.len()))?;
        self.consume_into(z, out)
    }

    /// Release-for-release identical to the sequential loop (the sketch
    /// is deterministic), with the whole batch checked (contract and
    /// horizon) before any point is consumed.
    fn observe_batch(&mut self, batch: &[DataPoint]) -> Result<Vec<Vec<f64>>> {
        self.check(batch, true, None)?;
        let d = self.set.dim();
        batch
            .iter()
            .map(|z| {
                let mut theta = vec![0.0; d];
                self.consume_into(z, &mut theta)?;
                Ok(theta)
            })
            .collect()
    }

    /// The zero-allocation batch primitive: identical consumption order
    /// and releases as [`observe_batch`](IncrementalMechanism::observe_batch),
    /// written into the caller's flat buffer.
    fn observe_batch_into(&mut self, batch: &[DataPoint], out: &mut [f64]) -> Result<()> {
        self.check(batch, true, Some(out.len()))?;
        for (z, chunk) in batch.iter().zip(out.chunks_exact_mut(self.set.dim())) {
            self.consume_into(z, chunk)?;
        }
        Ok(())
    }

    fn supports_state(&self) -> bool {
        true
    }

    /// Dynamic state: step counter, the two warm-start iterates (projected
    /// `ϑ` and lifted `θ`), the two projected-space tree states in the
    /// live-level layout, the second moment packed
    /// (`O(m² · popcount(t) + d)` bytes), then the lift
    /// smoothness `2‖Φ‖²` once a step has computed it. The sketch matrix
    /// `Φ` is *not* here — it is static, resampled bit-identically when
    /// the mechanism is respawned from its spec and seed — but the
    /// constant derived from it is, so a restore skips the power
    /// iteration. Loading reads [`codec::TAG_REG2_PACKED`] and the
    /// previous build's full-width [`codec::TAG_REG2_SMOOTHNESS`], which
    /// it packs; any other tag is `InvalidState`.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        let mut e = Enc::new(out);
        e.u8(codec::TAG_REG2_PACKED);
        e.u64(self.grad.t() as u64);
        e.f64_slice(&self.last_vartheta);
        e.f64_slice(&self.last_theta);
        self.grad.put_trees(&mut e);
        codec::put_opt_f64(&mut e, self.lift_smoothness);
        Ok(())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = Dec::new(bytes);
        let tag = codec::expect_tag(
            &mut d,
            &[codec::TAG_REG2_PACKED, codec::TAG_REG2_SMOOTHNESS],
            "priv-inc-reg-2",
        )?;
        let t = d.u64()? as usize;
        let last_vartheta = d.f64_vec()?;
        let last_theta = d.f64_vec()?;
        let trees = self.grad.take_trees(&mut d, tag == codec::TAG_REG2_SMOOTHNESS)?;
        let smoothness = codec::take_opt_f64(&mut d)?;
        d.finish()?;
        if let Some(l) = smoothness {
            let (lo, hi) = smoothness_bracket(&self.sketch);
            // Written negated so that NaN, which fails every comparison,
            // is refused too; `hi` is finite, so infinities are as well.
            if !(l > 0.0 && lo <= l && l <= hi) {
                return Err(CoreError::InvalidState {
                    reason: format!(
                        "carried lift smoothness {l:e} is outside [{lo:e}, {hi:e}] for this sketch"
                    ),
                });
            }
        }
        if last_vartheta.len() != self.sketch.m() {
            return Err(CoreError::InvalidState {
                reason: format!(
                    "projected iterate has dimension {} (expected m = {})",
                    last_vartheta.len(),
                    self.sketch.m()
                ),
            });
        }
        if last_theta.len() != self.set.dim() {
            return Err(CoreError::InvalidState {
                reason: format!(
                    "lifted iterate has dimension {} (expected {})",
                    last_theta.len(),
                    self.set.dim()
                ),
            });
        }
        if !vector::is_finite(&last_vartheta) || !vector::is_finite(&last_theta) {
            return Err(CoreError::InvalidState {
                reason: "warm-start iterate contains NaN/infinite entries".to_string(),
            });
        }
        self.grad.restore(t, &trees)?;
        self.last_vartheta.copy_from_slice(&last_vartheta);
        self.last_theta.copy_from_slice(&last_theta);
        self.lift_smoothness = smoothness;
        self.last_lift_iters = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_geometry::{KSparseDomain, L1Ball};

    fn params() -> PrivacyParams {
        PrivacyParams::approx(1.0, 1e-5).unwrap()
    }

    /// Sparse-signal Lasso stream: y = θ*ᵀx with 1-sparse θ*.
    fn sparse_stream(n: usize, d: usize, k: usize, seed: u64) -> Vec<DataPoint> {
        let mut rng = NoiseRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // k-sparse covariate with unit-bounded norm.
                let mut x = vec![0.0; d];
                for _ in 0..k {
                    let i = rng.uniform_index(d);
                    x[i] = rng.uniform_in(-1.0, 1.0);
                }
                let norm = vector::norm2(&x);
                if norm > 1.0 {
                    vector::scale_mut(&mut x, 0.95 / norm);
                }
                let y = (0.7 * x[0]).clamp(-1.0, 1.0);
                DataPoint::new(x, y)
            })
            .collect()
    }

    #[test]
    fn save_load_state_is_bit_identical() {
        let d = 20;
        let spawn = || {
            let mut rng = NoiseRng::seed_from_u64(41);
            PrivIncReg2::new(
                Box::new(L1Ball::unit(d)),
                2.0,
                16,
                &params(),
                &mut rng,
                PrivIncReg2Config { m_override: Some(6), ..Default::default() },
            )
            .unwrap()
        };
        let mut live = spawn();
        let points = sparse_stream(16, d, 3, 88);
        for z in &points[..7] {
            live.observe(z).unwrap();
        }
        let mut blob = Vec::new();
        live.save_state(&mut blob).unwrap();
        let mut restored = spawn();
        restored.load_state(&blob).unwrap();
        assert_eq!(restored.t(), 7);
        for z in &points[7..] {
            assert_eq!(live.observe(z).unwrap(), restored.observe(z).unwrap());
        }
    }

    #[test]
    fn lift_smoothness_is_computed_at_the_first_step() {
        let d = 30;
        let mut rng = NoiseRng::seed_from_u64(8);
        let config = PrivIncReg2Config { m_override: Some(7), ..Default::default() };
        let mut mech =
            PrivIncReg2::new(Box::new(L1Ball::unit(d)), 2.0, 8, &params(), &mut rng, config)
                .unwrap();
        assert_eq!(mech.lift_smoothness, None, "construction runs no power iteration");
        let mut out = vec![0.0; 2 * d];
        mech.observe_batch_into(&sparse_stream(2, d, 3, 4), &mut out).unwrap();
        let expected = crate::lift::sketch_smoothness(mech.sketch()).to_bits();
        assert_eq!(mech.lift_smoothness.map(f64::to_bits), Some(expected));
    }

    #[test]
    fn load_state_rejects_mismatched_configuration() {
        // A blob captured at m = 6 must not load into an m = 8 instance.
        let d = 20;
        let spawn = |m| {
            let mut rng = NoiseRng::seed_from_u64(42);
            PrivIncReg2::new(
                Box::new(L1Ball::unit(d)),
                2.0,
                16,
                &params(),
                &mut rng,
                PrivIncReg2Config { m_override: Some(m), ..Default::default() },
            )
            .unwrap()
        };
        let mut src = spawn(6);
        for z in sparse_stream(3, d, 3, 89) {
            src.observe(&z).unwrap();
        }
        let mut blob = Vec::new();
        src.save_state(&mut blob).unwrap();
        let err = spawn(8).load_state(&blob);
        assert!(
            matches!(err, Err(CoreError::InvalidState { .. }) | Err(CoreError::Continual(_))),
            "{err:?}"
        );
    }

    #[test]
    fn sketch_dimension_follows_gordon_rule() {
        let mut rng = NoiseRng::seed_from_u64(1);
        let d = 400;
        let set = L1Ball::unit(d);
        let domain = KSparseDomain::new(d, 4, 1.0);
        // With the conservative default constant C = 1 the Gordon rule
        // only compresses at large T/d; a realistic constant (swept in
        // experiment E9) compresses already at this scale.
        let mech = PrivIncReg2::new(
            Box::new(set),
            domain.width_bound(),
            256,
            &params(),
            &mut rng,
            PrivIncReg2Config { gordon_constant: 0.1, ..Default::default() },
        )
        .unwrap();
        assert!(mech.m() < d, "projection should compress: m={}", mech.m());
        assert!(mech.m() >= 1);
        assert!(mech.gamma() > 0.0 && mech.gamma() < 1.0);
        // m follows the (W/γ)² scaling: quadrupling the constant roughly
        // quadruples m (before clamping).
        let mut rng2 = NoiseRng::seed_from_u64(1);
        let mech4 = PrivIncReg2::new(
            Box::new(L1Ball::unit(d)),
            KSparseDomain::new(d, 4, 1.0).width_bound(),
            256,
            &params(),
            &mut rng2,
            PrivIncReg2Config { gordon_constant: 0.2, ..Default::default() },
        )
        .unwrap();
        let ratio = mech4.m() as f64 / mech.m() as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn releases_stay_in_constraint_set() {
        let mut rng = NoiseRng::seed_from_u64(2);
        let d = 50;
        let set = L1Ball::unit(d);
        let mut mech = PrivIncReg2::new(
            Box::new(set),
            KSparseDomain::new(d, 3, 1.0).width_bound(),
            16,
            &params(),
            &mut rng,
            PrivIncReg2Config { m_override: Some(10), ..Default::default() },
        )
        .unwrap();
        for z in sparse_stream(16, d, 3, 7) {
            let theta = mech.observe(&z).unwrap();
            assert!(vector::norm1(&theta) <= 1.0 + 1e-6, "L1 norm violated");
        }
    }

    #[test]
    fn zero_covariates_are_tolerated() {
        let mut rng = NoiseRng::seed_from_u64(3);
        let d = 20;
        let mut mech = PrivIncReg2::new(
            Box::new(L1Ball::unit(d)),
            2.0,
            4,
            &params(),
            &mut rng,
            PrivIncReg2Config { m_override: Some(5), ..Default::default() },
        )
        .unwrap();
        let theta = mech.observe(&DataPoint::new(vec![0.0; d], 0.5)).unwrap();
        assert_eq!(theta.len(), d);
    }

    #[test]
    fn config_validation() {
        let mut rng = NoiseRng::seed_from_u64(4);
        let bad_gamma = PrivIncReg2Config { gamma: Some(1.5), ..Default::default() };
        assert!(PrivIncReg2::new(
            Box::new(L1Ball::unit(10)),
            1.0,
            8,
            &params(),
            &mut rng,
            bad_gamma
        )
        .is_err());
        let bad_m = PrivIncReg2Config { m_override: Some(100), ..Default::default() };
        assert!(PrivIncReg2::new(Box::new(L1Ball::unit(10)), 1.0, 8, &params(), &mut rng, bad_m)
            .is_err());
        assert!(PrivIncReg2::new(
            Box::new(L1Ball::unit(10)),
            f64::NAN,
            8,
            &params(),
            &mut rng,
            PrivIncReg2Config::default()
        )
        .is_err());
    }

    #[test]
    fn tracks_sparse_signal_at_generous_epsilon() {
        let loose = PrivacyParams::approx(1e6, 1e-5).unwrap();
        let mut rng = NoiseRng::seed_from_u64(5);
        let d = 60;
        let mut mech = PrivIncReg2::new(
            Box::new(L1Ball::unit(d)),
            KSparseDomain::new(d, 2, 1.0).width_bound(),
            128,
            &loose,
            &mut rng,
            PrivIncReg2Config {
                m_override: Some(40),
                max_pgd_iters: 200,
                lift_iters: 400,
                ..Default::default()
            },
        )
        .unwrap();
        let mut last = vec![0.0; d];
        for z in sparse_stream(128, d, 2, 9) {
            last = mech.observe(&z).unwrap();
        }
        // Signal is 0.7·e₀; the sketched mechanism should find most of it.
        assert!(last[0] > 0.3, "recovered coefficient too small: {}", last[0]);
        let off_mass: f64 = last[1..].iter().map(|v| v.abs()).sum();
        assert!(off_mass < 0.7, "off-support mass {off_mass}");
    }

    #[test]
    fn memory_is_m_squared_not_d_squared() {
        let mut rng = NoiseRng::seed_from_u64(6);
        let d = 500;
        let mech = PrivIncReg2::new(
            Box::new(L1Ball::unit(d)),
            3.0,
            64,
            &params(),
            &mut rng,
            PrivIncReg2Config { m_override: Some(20), ..Default::default() },
        )
        .unwrap();
        // d² alone would be 250 000 slots per tree level; we should be
        // far below even one such level (m²·levels + m·d).
        assert!(mech.memory_slots() < d * d / 2, "memory {}", mech.memory_slots());
    }
}
