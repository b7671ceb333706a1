//! The well-known conjugacy-relation table (paper §4.4).
//!
//! AugurV2 supports closed-form full-conditional (Gibbs) updates "via table
//! lookup" over the standard list of conjugacy relations. This module holds
//! the *runtime* half of the table: given the sufficient statistics that the
//! generated Low-- code accumulates, compute the posterior parameters to
//! sample from. The *detection* half (structural pattern matching on the
//! Density IL) lives in `augur-density::conjugacy`.

use augur_math::{Cholesky, Matrix};

/// Names a supported (prior, likelihood) conjugate pair.
///
/// The compiler attaches one of these to each Gibbs-able conditional; the
/// backend generates the sufficient-statistics loops plus a posterior
/// sampling step specialized to the relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `Dirichlet` prior on the probability vector of a `Categorical`
    /// likelihood — posterior `Dirichlet(alpha + counts)`.
    DirichletCategorical,
    /// `Beta` prior on the success probability of a `Bernoulli` likelihood.
    BetaBernoulli,
    /// Scalar `Normal` prior on the mean of a `Normal` likelihood with known
    /// variance.
    NormalNormalMean,
    /// `MvNormal` prior on the mean of an `MvNormal` likelihood with known
    /// covariance.
    MvNormalMvNormalMean,
    /// `InvGamma` prior on the variance of a `Normal` likelihood with known
    /// mean.
    InvGammaNormalVar,
    /// `InvWishart` prior on the covariance of an `MvNormal` likelihood with
    /// known mean.
    InvWishartMvNormalCov,
    /// `Gamma` prior on the rate of a `Poisson` likelihood.
    GammaPoisson,
    /// `Gamma` prior on the rate of an `Exponential` likelihood.
    GammaExponential,
}

impl std::fmt::Display for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Relation::DirichletCategorical => "Dirichlet-Categorical",
            Relation::BetaBernoulli => "Beta-Bernoulli",
            Relation::NormalNormalMean => "Normal-Normal (mean)",
            Relation::MvNormalMvNormalMean => "MvNormal-MvNormal (mean)",
            Relation::InvGammaNormalVar => "InvGamma-Normal (variance)",
            Relation::InvWishartMvNormalCov => "InvWishart-MvNormal (covariance)",
            Relation::GammaPoisson => "Gamma-Poisson",
            Relation::GammaExponential => "Gamma-Exponential",
        };
        f.write_str(s)
    }
}

/// All supported relations, for iteration in tests and documentation.
pub const ALL_RELATIONS: [Relation; 8] = [
    Relation::DirichletCategorical,
    Relation::BetaBernoulli,
    Relation::NormalNormalMean,
    Relation::MvNormalMvNormalMean,
    Relation::InvGammaNormalVar,
    Relation::InvWishartMvNormalCov,
    Relation::GammaPoisson,
    Relation::GammaExponential,
];

/// Posterior of `Dirichlet(alpha)` after categorical counts:
/// `Dirichlet(alpha + counts)`, written into `out`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dirichlet_categorical(alpha: &[f64], counts: &[f64], out: &mut [f64]) {
    assert!(alpha.len() == counts.len() && alpha.len() == out.len(), "dirichlet post dims");
    for ((o, &a), &c) in out.iter_mut().zip(alpha).zip(counts) {
        *o = a + c;
    }
}

/// Posterior of `Beta(a, b)` after observing `n1` successes and `n0`
/// failures: `Beta(a + n1, b + n0)`.
pub fn beta_bernoulli(a: f64, b: f64, n1: f64, n0: f64) -> (f64, f64) {
    (a + n1, b + n0)
}

/// Posterior of a `Normal(mu0, var0)` prior on the mean of
/// `Normal(·, like_var)` observations with sum `sum_x` over `n` points.
///
/// Returns `(mu_post, var_post)` with precision addition:
/// `1/var_post = 1/var0 + n/like_var`.
pub fn normal_normal_mean(mu0: f64, var0: f64, like_var: f64, sum_x: f64, n: f64) -> (f64, f64) {
    let prec = 1.0 / var0 + n / like_var;
    let var_post = 1.0 / prec;
    let mu_post = var_post * (mu0 / var0 + sum_x / like_var);
    (mu_post, var_post)
}

/// Posterior of an `MvNormal(mu0, Sigma0)` prior on the mean of
/// `MvNormal(·, Sigma)` observations with component-wise sum `sum_x` over
/// `n` points.
///
/// Returns `(mu_post, Sigma_post)` where
/// `Sigma_post = (Σ0⁻¹ + n Σ⁻¹)⁻¹` and
/// `mu_post = Sigma_post (Σ0⁻¹ mu0 + Σ⁻¹ sum_x)`.
///
/// # Panics
///
/// Panics when either covariance is not SPD or dimensions disagree.
pub fn mvnormal_mvnormal_mean(
    mu0: &[f64],
    sigma0: &Matrix,
    sigma: &Matrix,
    sum_x: &[f64],
    n: f64,
) -> (augur_math::PoolVec, Matrix) {
    let d = mu0.len();
    assert!(sigma0.rows() == d && sigma.rows() == d, "mvnormal post dims");
    let prec0 = Cholesky::new(sigma0).expect("Sigma0 must be SPD").inverse();
    let prec = Cholesky::new(sigma).expect("Sigma must be SPD").inverse();
    let post_prec = &prec0 + &prec.scale(n);
    let post_cov = Cholesky::new(&post_prec).expect("posterior precision SPD").inverse();
    let mut rhs = prec0.matvec(mu0);
    let like_part = prec.matvec(sum_x);
    for (r, l) in rhs.iter_mut().zip(&like_part) {
        *r += l;
    }
    let mu_post = post_cov.matvec(&rhs);
    (mu_post, post_cov)
}

/// Posterior of `InvGamma(shape, scale)` on the variance of
/// `Normal(mu, ·)` observations with `sum_sq_dev = Σ (xᵢ − mu)²` over `n`
/// points: `InvGamma(shape + n/2, scale + sum_sq_dev/2)`.
pub fn invgamma_normal_var(shape: f64, scale: f64, sum_sq_dev: f64, n: f64) -> (f64, f64) {
    (shape + 0.5 * n, scale + 0.5 * sum_sq_dev)
}

/// Posterior of `InvWishart(df, psi)` on the covariance of `MvNormal(mu, ·)`
/// observations with scatter matrix `S = Σ (xᵢ−mu)(xᵢ−mu)ᵀ` over `n`
/// points: `InvWishart(df + n, psi + S)`.
pub fn invwishart_mvnormal_cov(df: f64, psi: &Matrix, scatter: &Matrix, n: f64) -> (f64, Matrix) {
    (df + n, psi + scatter)
}

/// Posterior of `Gamma(shape, rate)` on a Poisson rate with `sum_x = Σ xᵢ`
/// over `n` points: `Gamma(shape + sum_x, rate + n)`.
pub fn gamma_poisson(shape: f64, rate: f64, sum_x: f64, n: f64) -> (f64, f64) {
    (shape + sum_x, rate + n)
}

/// Posterior of `Gamma(shape, rate)` on an Exponential rate with
/// `sum_x = Σ xᵢ` over `n` points: `Gamma(shape + n, rate + sum_x)`.
pub fn gamma_exponential(shape: f64, rate: f64, sum_x: f64, n: f64) -> (f64, f64) {
    (shape + n, rate + sum_x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::normal_log_pdf;

    /// Verifies a closed-form posterior against brute-force Bayes on a grid:
    /// posterior ∝ prior · likelihood.
    #[test]
    fn normal_normal_matches_grid_bayes() {
        let (mu0, var0, like_var) = (1.0, 2.0, 0.5);
        let data = [0.3, -0.2, 0.8, 1.5];
        let sum_x: f64 = data.iter().sum();
        let (mu_p, var_p) = normal_normal_mean(mu0, var0, like_var, sum_x, data.len() as f64);
        // Grid-compare unnormalized log posterior with N(mu_p, var_p).
        for &theta in &[-1.0, 0.0, 0.5, 1.0, 2.0] {
            let lp: f64 = normal_log_pdf(theta, mu0, var0)
                + data.iter().map(|&x| normal_log_pdf(x, theta, like_var)).sum::<f64>();
            let lq = normal_log_pdf(theta, mu_p, var_p);
            let lp0: f64 = normal_log_pdf(0.0, mu0, var0)
                + data.iter().map(|&x| normal_log_pdf(x, 0.0, like_var)).sum::<f64>();
            let lq0 = normal_log_pdf(0.0, mu_p, var_p);
            // differences of log densities must agree (same shape)
            assert!(((lp - lp0) - (lq - lq0)).abs() < 1e-10, "theta={theta}");
        }
    }

    #[test]
    fn dirichlet_categorical_adds_counts() {
        let alpha = [1.0, 2.0, 3.0];
        let counts = [5.0, 0.0, 2.0];
        let mut out = [0.0; 3];
        dirichlet_categorical(&alpha, &counts, &mut out);
        assert_eq!(out, [6.0, 2.0, 5.0]);
    }

    #[test]
    fn beta_bernoulli_counts() {
        assert_eq!(beta_bernoulli(1.0, 1.0, 7.0, 3.0), (8.0, 4.0));
    }

    #[test]
    fn invgamma_normal_shapes() {
        let (a, b) = invgamma_normal_var(2.0, 1.0, 4.0, 10.0);
        assert_eq!((a, b), (7.0, 3.0));
    }

    #[test]
    fn gamma_poisson_and_exponential() {
        assert_eq!(gamma_poisson(2.0, 1.0, 30.0, 10.0), (32.0, 11.0));
        assert_eq!(gamma_exponential(2.0, 1.0, 30.0, 10.0), (12.0, 31.0));
    }

    #[test]
    fn mvnormal_posterior_1d_matches_scalar() {
        let mu0 = [1.0];
        let sigma0 = Matrix::from_vec(1, 1, vec![2.0]).unwrap();
        let sigma = Matrix::from_vec(1, 1, vec![0.5]).unwrap();
        let data_sum = [2.4];
        let n = 4.0;
        let (mu_v, cov_v) = mvnormal_mvnormal_mean(&mu0, &sigma0, &sigma, &data_sum, n);
        let (mu_s, var_s) = normal_normal_mean(1.0, 2.0, 0.5, 2.4, 4.0);
        assert!((mu_v[0] - mu_s).abs() < 1e-12);
        assert!((cov_v[(0, 0)] - var_s).abs() < 1e-12);
    }

    #[test]
    fn mvnormal_posterior_contracts_with_data() {
        let mu0 = [0.0, 0.0];
        let sigma0 = Matrix::identity(2).scale(10.0);
        let sigma = Matrix::identity(2);
        let (_, cov_small) = mvnormal_mvnormal_mean(&mu0, &sigma0, &sigma, &[0.0, 0.0], 100.0);
        let (_, cov_big) = mvnormal_mvnormal_mean(&mu0, &sigma0, &sigma, &[0.0, 0.0], 1.0);
        assert!(cov_small[(0, 0)] < cov_big[(0, 0)]);
        assert!((cov_small[(0, 0)] - 1.0 / (0.1 + 100.0)).abs() < 1e-12);
    }

    #[test]
    fn invwishart_posterior_adds_scatter() {
        let psi = Matrix::identity(2);
        let scatter = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let (df, post) = invwishart_mvnormal_cov(4.0, &psi, &scatter, 5.0);
        assert_eq!(df, 9.0);
        assert_eq!(post[(0, 0)], 3.0);
        assert_eq!(post[(0, 1)], 1.0);
    }

    /// MC check: Gibbs via the posterior formulas leaves the joint invariant
    /// (posterior mean matches closed form after sampling).
    #[test]
    fn normal_normal_posterior_sampling_consistency() {
        use crate::Prng;
        let mut rng = Prng::seed_from_u64(31);
        let (mu0, var0, like_var) = (0.0, 1.0, 1.0);
        let data = [1.0, 1.2, 0.8, 1.1];
        let sum_x: f64 = data.iter().sum();
        let (mu_p, var_p) = normal_normal_mean(mu0, var0, like_var, sum_x, 4.0);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.normal(mu_p, var_p)).sum::<f64>() / n as f64;
        assert!((mean - mu_p).abs() < 0.01);
        assert!((mu_p - sum_x / 5.0).abs() < 1e-12); // shrinkage toward 0
    }
}
