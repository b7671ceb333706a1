//! Vector-valued distributions: Categorical, Dirichlet, and the
//! multivariate normal.

use augur_math::special::lgamma;
use augur_math::{Cholesky, Matrix, PoolVec};

const LN_2PI: f64 = 1.837_877_066_409_345_6;

/// `ln Categorical(k | pis)` for a probability vector `pis`.
///
/// Out-of-range indices and non-positive probabilities yield `-inf`.
pub fn categorical_log_pmf(k: usize, pis: &[f64]) -> f64 {
    match pis.get(k) {
        Some(&p) if p > 0.0 => p.ln(),
        _ => f64::NEG_INFINITY,
    }
}

/// `ln Dirichlet(x | alpha)`.
pub fn dirichlet_log_pdf(x: &[f64], alpha: &[f64]) -> f64 {
    assert_eq!(x.len(), alpha.len(), "dirichlet dimension mismatch");
    let sum_alpha: f64 = alpha.iter().sum();
    let mut ll = lgamma(sum_alpha);
    for (&xi, &ai) in x.iter().zip(alpha) {
        if xi <= 0.0 || ai <= 0.0 {
            return f64::NEG_INFINITY;
        }
        ll += (ai - 1.0) * xi.ln() - lgamma(ai);
    }
    ll
}

/// `∂/∂xᵢ ln Dirichlet(x | alpha) = (alphaᵢ − 1) / xᵢ`, accumulated into
/// `out`.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn dirichlet_grad_x(x: &[f64], alpha: &[f64], out: &mut [f64]) {
    assert!(x.len() == alpha.len() && x.len() == out.len(), "dirichlet grad dims");
    for ((o, &xi), &ai) in out.iter_mut().zip(x).zip(alpha) {
        *o += (ai - 1.0) / xi;
    }
}

/// A multivariate normal with precomputed Cholesky factor — the cached form
/// used by the runtime when the covariance is a hyper-parameter.
///
/// Every MvNormal density factors into one of these: the one-shot
/// [`mv_normal_log_pdf`] into a fresh cache, the execution engine's factor
/// memo into caches it keeps and refactors in place
/// ([`MvNormalCache::refactor`]). The [`Default`] cache is empty.
#[derive(Debug, Clone, Default)]
pub struct MvNormalCache {
    dim: usize,
    chol: Cholesky,
    log_norm: f64,
}

impl MvNormalCache {
    /// Builds the cache from a covariance matrix.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`augur_math::MathError`] when the covariance
    /// is not symmetric positive definite.
    pub fn new(cov: &Matrix) -> Result<Self, augur_math::MathError> {
        let chol = Cholesky::new(cov)?;
        let dim = cov.rows();
        let log_norm = Self::log_norm(dim, &chol);
        Ok(MvNormalCache { dim, chol, log_norm })
    }

    /// Refactors the row-major `dim × dim` covariance `cov` into the
    /// storage this cache already owns (see [`Cholesky::refactor`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`augur_math::MathError`] when `cov` is not
    /// `dim × dim` or not symmetric positive definite; the cache must then
    /// be refactored before its next use.
    pub fn refactor(&mut self, cov: &[f64], dim: usize) -> Result<(), augur_math::MathError> {
        self.chol.refactor(cov, dim)?;
        self.dim = dim;
        self.log_norm = Self::log_norm(dim, &self.chol);
        Ok(())
    }

    fn log_norm(dim: usize, chol: &Cholesky) -> f64 {
        -0.5 * (dim as f64 * LN_2PI + chol.log_det())
    }

    /// The dimension of the distribution.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The Cholesky factor of the covariance.
    pub fn cholesky(&self) -> &Cholesky {
        &self.chol
    }

    /// `ln N(x | mu, Σ)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn log_pdf(&self, x: &[f64], mu: &[f64]) -> f64 {
        self.log_pdf_with(x, mu, &mut PoolVec::zeroed(self.dim))
    }

    /// [`MvNormalCache::log_pdf`] with caller scratch for `x − mu` (at
    /// least [`MvNormalCache::dim`] long): the allocation-free form.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or short scratch.
    #[inline]
    pub fn log_pdf_with(&self, x: &[f64], mu: &[f64], scratch: &mut [f64]) -> f64 {
        assert!(x.len() == self.dim && mu.len() == self.dim, "mvnormal dims");
        let diff = &mut scratch[..self.dim];
        for ((d, a), b) in diff.iter_mut().zip(x).zip(mu) {
            *d = a - b;
        }
        self.log_norm - 0.5 * self.chol.mahalanobis_sq_in_place(diff)
    }

    /// `∂/∂x ln N(x | mu, Σ) = −Σ⁻¹ (x − mu)`, accumulated into `out`.
    pub fn grad_x(&self, x: &[f64], mu: &[f64], out: &mut [f64]) {
        let diff = augur_math::vecops::sub(x, mu);
        let g = self.chol.solve(&diff);
        for (o, gi) in out.iter_mut().zip(&g) {
            *o -= gi;
        }
    }

    /// `∂/∂mu ln N(x | mu, Σ) = Σ⁻¹ (x − mu)`, accumulated into `out`.
    pub fn grad_mu(&self, x: &[f64], mu: &[f64], out: &mut [f64]) {
        let diff = augur_math::vecops::sub(x, mu);
        let g = self.chol.solve(&diff);
        for (o, gi) in out.iter_mut().zip(&g) {
            *o += gi;
        }
    }

    /// Samples `mu + L z` into `out`.
    pub fn sample(&self, mu: &[f64], rng: &mut crate::Prng, out: &mut [f64]) {
        let z = PoolVec::from_fn(self.dim, |_| rng.std_normal());
        let lz = self.chol.correlate(&z);
        for ((o, &m), l) in out.iter_mut().zip(mu).zip(&lz) {
            *o = m + l;
        }
    }
}

/// One-shot `ln N(x | mu, Σ)` without caching (factorizes Σ on every call).
///
/// Returns `-inf` when `Σ` is not `dim × dim` or not positive definite.
pub fn mv_normal_log_pdf(x: &[f64], mu: &[f64], cov_data: &[f64], dim: usize) -> f64 {
    let mut cache = MvNormalCache::default();
    match cache.refactor(cov_data, dim) {
        Ok(()) => cache.log_pdf(x, mu),
        Err(_) => f64::NEG_INFINITY,
    }
}

/// One-shot sampling from `N(mu, Σ)` into `out`.
///
/// # Panics
///
/// Panics if `Σ` is not positive definite or dimensions disagree.
pub fn mv_normal_sample(
    mu: &[f64],
    cov_data: &[f64],
    dim: usize,
    rng: &mut crate::Prng,
    out: &mut [f64],
) {
    let cov = Matrix::from_slice(dim, dim, cov_data).expect("covariance shape");
    let cache = MvNormalCache::new(&cov).expect("covariance must be SPD");
    cache.sample(mu, rng, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn categorical_basics() {
        let pis = [0.2, 0.3, 0.5];
        assert!((categorical_log_pmf(2, &pis) - 0.5f64.ln()).abs() < 1e-15);
        assert_eq!(categorical_log_pmf(3, &pis), f64::NEG_INFINITY);
    }

    #[test]
    fn dirichlet_uniform_density() {
        // Dirichlet(1,1,1) is uniform on the simplex with density Γ(3) = 2.
        let ll = dirichlet_log_pdf(&[0.2, 0.3, 0.5], &[1.0, 1.0, 1.0]);
        assert!((ll - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn dirichlet_grad_matches_finite_differences() {
        let alpha = [2.0, 3.0, 4.0];
        let x = [0.2, 0.3, 0.5];
        let mut g = vec![0.0; 3];
        dirichlet_grad_x(&x, &alpha, &mut g);
        for i in 0..3 {
            let h = 1e-7;
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (dirichlet_log_pdf(&xp, &alpha) - dirichlet_log_pdf(&xm, &alpha)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-4, "component {i}: {} vs {}", g[i], fd);
        }
    }

    #[test]
    fn mvnormal_1d_matches_scalar_normal() {
        let cov = Matrix::from_vec(1, 1, vec![2.5]).unwrap();
        let cache = MvNormalCache::new(&cov).unwrap();
        let ll = cache.log_pdf(&[0.7], &[-0.2]);
        assert!((ll - crate::scalar::normal_log_pdf(0.7, -0.2, 2.5)).abs() < 1e-13);
    }

    #[test]
    fn mvnormal_grads_match_finite_differences() {
        let cov = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap();
        let cache = MvNormalCache::new(&cov).unwrap();
        let (x, mu) = ([0.3, -0.4], [0.1, 0.2]);
        let mut gx = vec![0.0; 2];
        cache.grad_x(&x, &mu, &mut gx);
        let mut gm = vec![0.0; 2];
        cache.grad_mu(&x, &mu, &mut gm);
        let h = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (cache.log_pdf(&xp, &mu) - cache.log_pdf(&xm, &mu)) / (2.0 * h);
            assert!((gx[i] - fd).abs() < 1e-5);
            let mut mp = mu;
            mp[i] += h;
            let mut mm = mu;
            mm[i] -= h;
            let fdm = (cache.log_pdf(&x, &mp) - cache.log_pdf(&x, &mm)) / (2.0 * h);
            assert!((gm[i] - fdm).abs() < 1e-5);
        }
        // grad_x = -grad_mu for MVN
        assert!((gx[0] + gm[0]).abs() < 1e-12 && (gx[1] + gm[1]).abs() < 1e-12);
    }

    #[test]
    fn mvnormal_sampling_moments() {
        let cov = Matrix::from_rows(&[&[2.0, 0.8], &[0.8, 1.0]]).unwrap();
        let cache = MvNormalCache::new(&cov).unwrap();
        let mu = [1.0, -2.0];
        let mut rng = Prng::seed_from_u64(13);
        let n = 40_000;
        let mut sum = [0.0f64; 2];
        let mut cov01 = 0.0;
        let mut out = [0.0; 2];
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            cache.sample(&mu, &mut rng, &mut out);
            sum[0] += out[0];
            sum[1] += out[1];
            samples.push(out);
        }
        let m0 = sum[0] / n as f64;
        let m1 = sum[1] / n as f64;
        for s in &samples {
            cov01 += (s[0] - m0) * (s[1] - m1);
        }
        cov01 /= (n - 1) as f64;
        assert!((m0 - 1.0).abs() < 0.03);
        assert!((m1 + 2.0).abs() < 0.03);
        assert!((cov01 - 0.8).abs() < 0.05, "cov01 {cov01}");
    }

    #[test]
    fn one_shot_matches_cached() {
        let cov = [2.0, 0.5, 0.5, 1.0];
        let ll = mv_normal_log_pdf(&[0.3, -0.4], &[0.1, 0.2], &cov, 2);
        let cache =
            MvNormalCache::new(&Matrix::from_vec(2, 2, cov.to_vec()).unwrap()).unwrap();
        assert!((ll - cache.log_pdf(&[0.3, -0.4], &[0.1, 0.2])).abs() < 1e-14);
    }

    #[test]
    fn non_spd_covariance_gives_neg_inf() {
        let cov = [1.0, 2.0, 2.0, 1.0];
        assert_eq!(mv_normal_log_pdf(&[0.0, 0.0], &[0.0, 0.0], &cov, 2), f64::NEG_INFINITY);
    }
}
