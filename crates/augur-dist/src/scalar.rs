//! Scalar distributions: log-densities and the partial derivatives of the
//! log-density used by the AD pass and gradient-based kernels.
//!
//! Parameterizations follow the paper's models: `Normal(mu, var)` uses the
//! *variance* (the HLR model writes `Normal(0, σ²)`), `Gamma(shape, rate)`,
//! `InvGamma(shape, scale)`, `Exponential(rate)`.

use augur_math::special::{lbeta, lgamma, log1p_exp};

const LN_2PI: f64 = 1.837_877_066_409_345_6;

/// `ln N(x | mu, var)`.
pub fn normal_log_pdf(x: f64, mu: f64, var: f64) -> f64 {
    if var <= 0.0 {
        return f64::NEG_INFINITY;
    }
    let d = x - mu;
    -0.5 * (LN_2PI + var.ln()) - 0.5 * d * d / var
}

/// `∂/∂x ln N(x | mu, var)`.
pub fn normal_grad_x(x: f64, mu: f64, var: f64) -> f64 {
    -(x - mu) / var
}

/// `∂/∂mu ln N(x | mu, var)`.
pub fn normal_grad_mu(x: f64, mu: f64, var: f64) -> f64 {
    (x - mu) / var
}

/// `∂/∂var ln N(x | mu, var)`.
pub fn normal_grad_var(x: f64, mu: f64, var: f64) -> f64 {
    let d = x - mu;
    -0.5 / var + 0.5 * d * d / (var * var)
}

/// `ln Gamma(x | shape, rate)`.
pub fn gamma_log_pdf(x: f64, shape: f64, rate: f64) -> f64 {
    if x <= 0.0 || shape <= 0.0 || rate <= 0.0 {
        return f64::NEG_INFINITY;
    }
    shape * rate.ln() - lgamma(shape) + (shape - 1.0) * x.ln() - rate * x
}

/// `∂/∂x ln Gamma(x | shape, rate)`.
pub fn gamma_grad_x(x: f64, shape: f64, rate: f64) -> f64 {
    (shape - 1.0) / x - rate
}

/// `ln InvGamma(x | shape, scale)`.
pub fn inv_gamma_log_pdf(x: f64, shape: f64, scale: f64) -> f64 {
    if x <= 0.0 || shape <= 0.0 || scale <= 0.0 {
        return f64::NEG_INFINITY;
    }
    shape * scale.ln() - lgamma(shape) - (shape + 1.0) * x.ln() - scale / x
}

/// `∂/∂x ln InvGamma(x | shape, scale)`.
pub fn inv_gamma_grad_x(x: f64, shape: f64, scale: f64) -> f64 {
    -(shape + 1.0) / x + scale / (x * x)
}

/// `ln Beta(x | a, b)`.
pub fn beta_log_pdf(x: f64, a: f64, b: f64) -> f64 {
    if !(0.0..=1.0).contains(&x) || a <= 0.0 || b <= 0.0 {
        return f64::NEG_INFINITY;
    }
    (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln() - lbeta(a, b)
}

/// `∂/∂x ln Beta(x | a, b)`.
pub fn beta_grad_x(x: f64, a: f64, b: f64) -> f64 {
    (a - 1.0) / x - (b - 1.0) / (1.0 - x)
}

/// `ln Exponential(x | rate)`.
pub fn exponential_log_pdf(x: f64, rate: f64) -> f64 {
    if x < 0.0 || rate <= 0.0 {
        return f64::NEG_INFINITY;
    }
    rate.ln() - rate * x
}

/// `∂/∂x ln Exponential(x | rate)`.
pub fn exponential_grad_x(_x: f64, rate: f64) -> f64 {
    -rate
}

/// `ln Uniform(x | lo, hi)`.
pub fn uniform_log_pdf(x: f64, lo: f64, hi: f64) -> f64 {
    if hi <= lo || x < lo || x > hi {
        return f64::NEG_INFINITY;
    }
    -(hi - lo).ln()
}

/// `ln Bernoulli(x | p)` for `x ∈ {0, 1}`.
///
/// Computed in a form stable for `p` near 0 or 1.
pub fn bernoulli_log_pmf(x: u8, p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NEG_INFINITY;
    }
    match x {
        1 => p.ln(),
        0 => (-p).ln_1p(),
        _ => f64::NEG_INFINITY,
    }
}

/// `ln Bernoulli(x | sigmoid(eta))` expressed directly in the logit `eta`;
/// this is the numerically stable form the HLR likelihood lowers to.
pub fn bernoulli_logit_log_pmf(x: u8, eta: f64) -> f64 {
    match x {
        1 => -log1p_exp(-eta),
        0 => -log1p_exp(eta),
        _ => f64::NEG_INFINITY,
    }
}

/// `∂/∂eta ln Bernoulli(x | sigmoid(eta)) = x − sigmoid(eta)`.
pub fn bernoulli_logit_grad_eta(x: u8, eta: f64) -> f64 {
    f64::from(x) - augur_math::special::sigmoid(eta)
}

/// `ln Poisson(x | lambda)`.
pub fn poisson_log_pmf(x: u64, lambda: f64) -> f64 {
    if lambda < 0.0 {
        return f64::NEG_INFINITY;
    }
    if lambda == 0.0 {
        return if x == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    let xf = x as f64;
    xf * lambda.ln() - lambda - lgamma(xf + 1.0)
}

/// `ln Binomial(x | n, p)`.
pub fn binomial_log_pmf(x: u64, n: u64, p: f64) -> f64 {
    if x > n || !(0.0..=1.0).contains(&p) {
        return f64::NEG_INFINITY;
    }
    let (xf, nf) = (x as f64, n as f64);
    let log_choose = lgamma(nf + 1.0) - lgamma(xf + 1.0) - lgamma(nf - xf + 1.0);
    let term_p = if x == 0 { 0.0 } else { xf * p.ln() };
    let term_q = if x == n { 0.0 } else { (nf - xf) * (-p).ln_1p() };
    log_choose + term_p + term_q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(f64) -> f64, x: f64) -> f64 {
        let h = 1e-6 * (1.0 + x.abs());
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn normal_standard_at_zero() {
        assert!((normal_log_pdf(0.0, 0.0, 1.0) + 0.5 * LN_2PI).abs() < 1e-14);
    }

    #[test]
    fn normal_grads_match_finite_differences() {
        let (x, mu, var) = (0.7, -0.3, 2.5);
        assert!(
            (normal_grad_x(x, mu, var) - finite_diff(|t| normal_log_pdf(t, mu, var), x)).abs()
                < 1e-6
        );
        assert!(
            (normal_grad_mu(x, mu, var) - finite_diff(|t| normal_log_pdf(x, t, var), mu)).abs()
                < 1e-6
        );
        assert!(
            (normal_grad_var(x, mu, var) - finite_diff(|t| normal_log_pdf(x, mu, t), var)).abs()
                < 1e-6
        );
    }

    #[test]
    fn gamma_grad_matches_finite_differences() {
        let (x, a, b) = (1.4, 3.0, 2.0);
        assert!((gamma_grad_x(x, a, b) - finite_diff(|t| gamma_log_pdf(t, a, b), x)).abs() < 1e-6);
    }

    #[test]
    fn inv_gamma_grad_matches_finite_differences() {
        let (x, a, b) = (0.8, 2.5, 1.5);
        assert!(
            (inv_gamma_grad_x(x, a, b) - finite_diff(|t| inv_gamma_log_pdf(t, a, b), x)).abs()
                < 1e-6
        );
    }

    #[test]
    fn beta_grad_matches_finite_differences() {
        let (x, a, b) = (0.3, 2.0, 4.0);
        assert!((beta_grad_x(x, a, b) - finite_diff(|t| beta_log_pdf(t, a, b), x)).abs() < 1e-5);
    }

    #[test]
    fn beta_integrates_to_one_on_grid() {
        // crude trapezoid check of normalization
        let (a, b) = (2.5, 1.5);
        let n = 20_000;
        let mut acc = 0.0;
        for i in 1..n {
            let x = i as f64 / n as f64;
            acc += beta_log_pdf(x, a, b).exp() / n as f64;
        }
        assert!((acc - 1.0).abs() < 1e-3, "integral {acc}");
    }

    #[test]
    fn exponential_basics() {
        assert!((exponential_log_pdf(0.0, 2.0) - 2.0f64.ln()).abs() < 1e-14);
        assert_eq!(exponential_log_pdf(-1.0, 2.0), f64::NEG_INFINITY);
        assert_eq!(exponential_grad_x(3.0, 2.0), -2.0);
    }

    #[test]
    fn bernoulli_logit_matches_direct() {
        for &eta in &[-3.0, -0.2, 0.0, 1.7] {
            let p = augur_math::special::sigmoid(eta);
            assert!((bernoulli_logit_log_pmf(1, eta) - bernoulli_log_pmf(1, p)).abs() < 1e-12);
            assert!((bernoulli_logit_log_pmf(0, eta) - bernoulli_log_pmf(0, p)).abs() < 1e-12);
        }
    }

    #[test]
    fn bernoulli_logit_grad_matches_finite_differences() {
        for &eta in &[-2.0, 0.1, 3.0] {
            for x in [0u8, 1] {
                let fd = finite_diff(|t| bernoulli_logit_log_pmf(x, t), eta);
                assert!((bernoulli_logit_grad_eta(x, eta) - fd).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        let lambda = 4.2;
        let total: f64 = (0..200).map(|k| poisson_log_pmf(k, lambda).exp()).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let (n, p) = (17, 0.35);
        let total: f64 = (0..=n).map(|k| binomial_log_pmf(k, n, p).exp()).sum();
        assert!((total - 1.0).abs() < 1e-10);
        // degenerate edges (lgamma round-off keeps these from being exact)
        assert!(binomial_log_pmf(0, 5, 0.0).abs() < 1e-12);
        assert!(binomial_log_pmf(5, 5, 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_log_pdf_cases() {
        assert!((uniform_log_pdf(0.5, 0.0, 2.0) + 2.0f64.ln()).abs() < 1e-14);
        assert_eq!(uniform_log_pdf(3.0, 0.0, 2.0), f64::NEG_INFINITY);
        assert_eq!(uniform_log_pdf(0.5, 2.0, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn out_of_support_is_neg_infinity() {
        assert_eq!(gamma_log_pdf(-1.0, 2.0, 2.0), f64::NEG_INFINITY);
        assert_eq!(inv_gamma_log_pdf(0.0, 2.0, 2.0), f64::NEG_INFINITY);
        assert_eq!(beta_log_pdf(1.5, 2.0, 2.0), f64::NEG_INFINITY);
        assert_eq!(bernoulli_log_pmf(2, 0.5), f64::NEG_INFINITY);
        assert_eq!(normal_log_pdf(0.0, 0.0, -1.0), f64::NEG_INFINITY);
    }
}
