//! The model sources used throughout the evaluation — the paper's three
//! benchmark models (§7.2) plus the Fig. 1 GMM — and the argument lists
//! that fill the HGMM and LDA signatures.

use augur::HostValue;
use augur_math::Matrix;

use crate::workloads::Corpus;

/// The Fig. 1 Gaussian Mixture Model, verbatim in our surface syntax.
pub const GMM: &str = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
  param mu[k] ~ MvNormal(mu_0, Sigma_0)
    for k <- 0 until K ;
  param z[n] ~ Categorical(pis)
    for n <- 0 until N ;
  data x[n] ~ MvNormal(mu[z[n]], Sigma)
    for n <- 0 until N ;
}"#;

/// The Hierarchical Gaussian Mixture Model of §7.2:
///
/// ```text
/// π ~ Dirichlet(α);  μ_k ~ Normal(μ₀, Σ₀);  Σ_k ~ InvWishart(ν, Ψ)
/// z_n ~ Categorical(π);  y_n ~ Normal(μ_{z_n}, Σ_{z_n})
/// ```
pub const HGMM: &str = r#"(K, N, alpha, mu_0, Sigma_0, nu, Psi) => {
  param pi ~ Dirichlet(alpha) ;
  param mu[k] ~ MvNormal(mu_0, Sigma_0)
    for k <- 0 until K ;
  param Sigma[k] ~ InvWishart(nu, Psi)
    for k <- 0 until K ;
  param z[n] ~ Categorical(pi)
    for n <- 0 until N ;
  data y[n] ~ MvNormal(mu[z[n]], Sigma[z[n]])
    for n <- 0 until N ;
}"#;

/// The [`HGMM`] arguments for `k` components in `d` dimensions over `n`
/// points: a flat Dirichlet prior on π, a broad mean prior (Σ₀ = 50·I)
/// and an inverse-Wishart prior with ν = d + 2, Ψ = I.
pub fn hgmm_args(k: usize, d: usize, n: usize) -> Vec<HostValue> {
    vec![
        HostValue::Int(k as i64),
        HostValue::Int(n as i64),
        HostValue::VecF(vec![1.0; k]),
        HostValue::VecF(vec![0.0; d]),
        HostValue::Mat(Matrix::identity(d).scale(50.0)),
        HostValue::Real((d + 2) as f64),
        HostValue::Mat(Matrix::identity(d)),
    ]
}

/// Latent Dirichlet Allocation of §7.2:
///
/// ```text
/// θ_d ~ Dirichlet(α);  φ_k ~ Dirichlet(β)
/// z_dj ~ Categorical(θ_d);  w_dj ~ Categorical(φ_{z_dj})
/// ```
pub const LDA: &str = r#"(K, D, alpha, beta, len) => {
  param theta[d] ~ Dirichlet(alpha)
    for d <- 0 until D ;
  param phi[k] ~ Dirichlet(beta)
    for k <- 0 until K ;
  param z[d][j] ~ Categorical(theta[d])
    for d <- 0 until D, j <- 0 until len[d] ;
  data w[d][j] ~ Categorical(phi[z[d][j]])
    for d <- 0 until D, j <- 0 until len[d] ;
}"#;

/// The [`LDA`] arguments for `topics` topics over `corpus`: symmetric
/// Dirichlet priors α = 0.5 (topic mixtures) and β = 0.1 (topic words).
pub fn lda_args(topics: usize, corpus: &Corpus) -> Vec<HostValue> {
    vec![
        HostValue::Int(topics as i64),
        HostValue::Int(corpus.docs.len() as i64),
        HostValue::VecF(vec![0.5; topics]),
        HostValue::VecF(vec![0.1; corpus.vocab]),
        HostValue::VecI(corpus.lens.clone()),
    ]
}

/// Hierarchical Logistic Regression of §7.2:
///
/// ```text
/// σ² ~ Exponential(λ);  b ~ Normal(0, σ²);  θ_j ~ Normal(0, σ²)
/// y_n ~ Bernoulli(sigmoid(x_n · θ + b))
/// ```
pub const HLR: &str = r#"(lambda, N, D, x) => {
  param sigma2 ~ Exponential(lambda) ;
  param b ~ Normal(0.0, sigma2) ;
  param theta[j] ~ Normal(0.0, sigma2)
    for j <- 0 until D ;
  data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta) + b))
    for n <- 0 until N ;
}"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmark_models_parse_and_typecheck() {
        for (name, src) in [("gmm", GMM), ("hgmm", HGMM), ("lda", LDA), ("hlr", HLR)] {
            let ast = augur_lang::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            augur_lang::typecheck(&ast).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
