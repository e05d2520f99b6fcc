//! The §5.2 robustness extension: streams where only *some* covariates
//! come from the low-Gaussian-width domain `G ⊆ X`.
//!
//! The mechanism consults a membership oracle for `G`; points outside are
//! replaced by `(0, 0)` *before* entering the Tree Mechanisms. Crucially,
//! the substitution happens inside the private pipeline — the release
//! sequence never reveals whether any individual point was substituted
//! beyond what the `(ε, δ)` guarantee already allows (replacing `z` by
//! `z′` can flip membership, but that is exactly a neighboring-stream
//! change, which the sensitivity-2 calibration of the trees covers:
//! zeroed points are just stream items of norm 0 ≤ 1).
//!
//! Utility then holds with respect to the `G`-restricted objective
//! `Σ_{x_i ∈ G} (y_i − ⟨x_i, θ⟩)²` with `W = w(G) + w(C)` (§5.2, final
//! display).

use crate::mech2::{PrivIncReg2, PrivIncReg2Config};
use crate::stream::IncrementalMechanism;
use crate::Result;
use pir_dp::{NoiseRng, PrivacyParams};
use pir_erm::DataPoint;
use pir_geometry::ConvexSet;

/// Membership oracle for the well-behaved domain `G`.
pub type DomainOracle = Box<dyn Fn(&[f64]) -> bool + Send + Sync>;

/// [`PrivIncReg2`] with off-domain points zeroed before ingestion.
pub struct RobustPrivIncReg2 {
    inner: PrivIncReg2,
    oracle: DomainOracle,
    /// The `(0, 0)` substitute.
    zero: DataPoint,
    substituted: usize,
}

impl std::fmt::Debug for RobustPrivIncReg2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobustPrivIncReg2")
            .field("inner", &self.inner)
            .field("substituted", &self.substituted)
            .finish()
    }
}

impl RobustPrivIncReg2 {
    /// Build the robust mechanism; `domain_width` should bound `w(G)`
    /// (not `w(X)` — that is the whole point of the extension).
    ///
    /// # Errors
    /// As for [`PrivIncReg2::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        set: Box<dyn ConvexSet>,
        domain_width: f64,
        oracle: DomainOracle,
        t_max: usize,
        params: &PrivacyParams,
        rng: &mut NoiseRng,
        config: PrivIncReg2Config,
    ) -> Result<Self> {
        let inner = PrivIncReg2::new(set, domain_width, t_max, params, rng, config)?;
        let zero = DataPoint::new(vec![0.0; inner.dim()], 0.0);
        Ok(RobustPrivIncReg2 { inner, oracle, zero, substituted: 0 })
    }

    /// Number of stream points replaced by `(0, 0)` so far.
    ///
    /// **Privacy note:** this counter is internal state for diagnostics;
    /// it is *not* part of the private release sequence and must not be
    /// published alongside the estimates.
    pub fn substituted(&self) -> usize {
        self.substituted
    }

    /// The wrapped mechanism (e.g. to query `m`, `γ`).
    pub fn inner(&self) -> &PrivIncReg2 {
        &self.inner
    }

    /// Consume one already-checked point, substituting `(0, 0)` when the
    /// oracle rejects its covariate. A substituted point is counted only
    /// once the inner step accepts it.
    fn consume_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<()> {
        if (self.oracle)(&z.x) {
            return self.inner.consume_into(z, out);
        }
        self.inner.consume_into(&self.zero, out)?;
        self.substituted += 1;
        Ok(())
    }
}

impl IncrementalMechanism for RobustPrivIncReg2 {
    fn name(&self) -> String {
        format!("robust {}", self.inner.name())
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn t(&self) -> usize {
        self.inner.t()
    }

    fn observe(&mut self, z: &DataPoint) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.inner.dim()];
        self.observe_into(z, &mut out)?;
        Ok(out)
    }

    /// The point is checked against the contract and the horizon before
    /// the oracle sees it, as a one-point batch is.
    fn observe_into(&mut self, z: &DataPoint, out: &mut [f64]) -> Result<()> {
        self.inner.check(std::slice::from_ref(z), false, Some(out.len()))?;
        self.consume_into(z, out)
    }

    /// The whole batch, as it arrives, is checked against the contract and
    /// the inner horizon before any point is consumed or substituted.
    fn observe_batch(&mut self, batch: &[DataPoint]) -> Result<Vec<Vec<f64>>> {
        self.inner.check(batch, true, None)?;
        let d = self.inner.dim();
        batch
            .iter()
            .map(|z| {
                let mut theta = vec![0.0; d];
                self.consume_into(z, &mut theta)?;
                Ok(theta)
            })
            .collect()
    }

    fn observe_batch_into(&mut self, batch: &[DataPoint], out: &mut [f64]) -> Result<()> {
        self.inner.check(batch, true, Some(out.len()))?;
        for (z, chunk) in batch.iter().zip(out.chunks_exact_mut(self.inner.dim())) {
            self.consume_into(z, chunk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_geometry::{KSparseDomain, L1Ball, WidthSet};
    use pir_linalg::vector;

    fn params() -> PrivacyParams {
        PrivacyParams::approx(1.0, 1e-5).unwrap()
    }

    fn oracle_k_sparse(d: usize, k: usize) -> DomainOracle {
        let dom = KSparseDomain::new(d, k, 1.0);
        Box::new(move |x: &[f64]| dom.contains(x, 1e-9))
    }

    #[test]
    fn substitutes_off_domain_points() {
        let d = 20;
        let mut rng = NoiseRng::seed_from_u64(1);
        let mut mech = RobustPrivIncReg2::new(
            Box::new(L1Ball::unit(d)),
            KSparseDomain::new(d, 2, 1.0).width_bound(),
            oracle_k_sparse(d, 2),
            8,
            &params(),
            &mut rng,
            PrivIncReg2Config { m_override: Some(6), ..Default::default() },
        )
        .unwrap();
        // A 2-sparse (in-domain) point.
        let mut sparse = vec![0.0; d];
        sparse[0] = 0.5;
        sparse[3] = 0.4;
        mech.observe(&DataPoint::new(sparse, 0.3)).unwrap();
        assert_eq!(mech.substituted(), 0);
        // A dense (off-domain) point.
        let dense = vector::scale(&NoiseRng::seed_from_u64(2).unit_sphere(d), 0.9);
        mech.observe(&DataPoint::new(dense, 0.3)).unwrap();
        assert_eq!(mech.substituted(), 1);
        assert_eq!(mech.t(), 2);
    }

    /// A single observe checks the §2 contract before the oracle, as a
    /// one-point batch does: an off-domain point that also breaks the
    /// contract is refused, not substituted, on both paths.
    #[test]
    fn single_observe_matches_a_one_point_batch() {
        let d = 3;
        let spawn = || {
            RobustPrivIncReg2::new(
                Box::new(L1Ball::unit(d)),
                1.0,
                Box::new(|x: &[f64]| x[0] >= 0.0),
                8,
                &params(),
                &mut NoiseRng::seed_from_u64(5),
                PrivIncReg2Config { m_override: Some(2), ..Default::default() },
            )
            .unwrap()
        };
        let points = [
            DataPoint::new(vec![0.5, 0.1, 0.0], 0.2),
            DataPoint::new(vec![-0.5, 0.1, 0.0], 0.2),
            DataPoint::new(vec![-2.0, 0.0, 0.0], 0.2),
            DataPoint::new(vec![0.3, 0.0, 0.0], 1.5),
        ];
        let (mut single, mut batched) = (spawn(), spawn());
        for z in &points {
            let a = single.observe(z);
            let b = batched.observe_batch(std::slice::from_ref(z));
            match (&a, &b) {
                (Ok(theta), Ok(thetas)) => assert_eq!(thetas, &vec![theta.clone()]),
                (Err(_), Err(_)) => {}
                _ => panic!("observe {a:?} vs one-point batch {b:?} on {z:?}"),
            }
            assert_eq!(single.t(), batched.t());
            assert_eq!(single.substituted(), batched.substituted());
        }
        assert_eq!((single.t(), single.substituted()), (2, 1));
        assert!(matches!(single.observe(&points[2]), Err(crate::CoreError::InvalidPoint { .. })));
    }

    #[test]
    fn all_dense_stream_degenerates_to_trivial_statistics() {
        // If every point is off-domain the mechanism sees only zeros and
        // releases stay near P_C(0) + noise-driven wander within C.
        let d = 15;
        let mut rng = NoiseRng::seed_from_u64(3);
        let mut mech = RobustPrivIncReg2::new(
            Box::new(L1Ball::unit(d)),
            1.0,
            Box::new(|_: &[f64]| false),
            6,
            &params(),
            &mut rng,
            PrivIncReg2Config { m_override: Some(5), ..Default::default() },
        )
        .unwrap();
        let mut item_rng = NoiseRng::seed_from_u64(4);
        for _ in 0..6 {
            let x = vector::scale(&item_rng.unit_sphere(d), 0.9);
            let theta = mech.observe(&DataPoint::new(x, 0.5)).unwrap();
            assert!(vector::norm1(&theta) <= 1.0 + 1e-6);
        }
        assert_eq!(mech.substituted(), 6);
    }
}
