//! Special functions needed by the probability densities in `augur-dist`.
//!
//! All functions are implemented from scratch (Lanczos `lgamma`, series
//! `digamma`, numerically-stable `log_sum_exp`, `sigmoid`, …) since this
//! reproduction does not link `libm` extensions or external math crates.

/// Lanczos coefficients (g = 7, n = 9), standard double-precision set.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`. Accurate to
/// roughly 1e-13 relative error over the range used by the densities here.
///
/// # Example
///
/// ```
/// // Γ(5) = 4! = 24
/// assert!((augur_math::special::lgamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
/// ```
pub fn lgamma(x: f64) -> f64 {
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().abs().ln() - lgamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Uses upward recurrence to push the argument above 6, then the asymptotic
/// expansion. Needed for gradients of Gamma/Dirichlet/Beta log-densities
/// with respect to their shape parameters.
pub fn digamma(x: f64) -> f64 {
    let mut x = x;
    let mut acc = 0.0;
    while x < 6.0 {
        acc -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))))
}

/// `ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b)`.
pub fn lbeta(a: f64, b: f64) -> f64 {
    lgamma(a) + lgamma(b) - lgamma(a + b)
}

/// Numerically stable `ln Σ exp(xᵢ)`.
///
/// Returns negative infinity for an empty slice.
///
/// # Example
///
/// ```
/// let v = [1000.0, 1000.0];
/// let l = augur_math::special::log_sum_exp(&v);
/// assert!((l - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
/// ```
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = xs.iter().map(|x| (x - m).exp()).sum();
    m + sum.ln()
}

/// The logistic sigmoid `1 / (1 + e^{-x})`, stable for large `|x|`.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `ln(1 + e^x)` (softplus), the log of the logistic normalizer, stable for
/// large `|x|`.
pub fn log1p_exp(x: f64) -> f64 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

/// Multivariate log-gamma `ln Γ_d(x)` used by the (inverse-)Wishart
/// normalizer.
pub fn lmvgamma(d: usize, x: f64) -> f64 {
    let d_f = d as f64;
    let mut acc = d_f * (d_f - 1.0) / 4.0 * std::f64::consts::PI.ln();
    for j in 0..d {
        acc += lgamma(x - 0.5 * j as f64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lgamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            // Γ(n+1) = n!
            if n > 1 {
                fact *= n as f64;
            }
            assert!(
                (lgamma(n as f64 + 1.0) - fact.ln()).abs() < 1e-10,
                "lgamma({}) mismatch",
                n + 1
            );
        }
    }

    #[test]
    fn lgamma_half() {
        // Γ(1/2) = √π
        assert!((lgamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
    }

    #[test]
    fn lgamma_recurrence() {
        // ln Γ(x+1) = ln x + ln Γ(x)
        for &x in &[0.3, 1.7, 4.2, 11.9] {
            assert!((lgamma(x + 1.0) - (x.ln() + lgamma(x))).abs() < 1e-11);
        }
    }

    #[test]
    fn digamma_matches_finite_difference_of_lgamma() {
        for &x in &[0.7, 1.5, 3.0, 10.0, 42.0] {
            let h = 1e-6;
            let fd = (lgamma(x + h) - lgamma(x - h)) / (2.0 * h);
            assert!((digamma(x) - fd).abs() < 1e-6, "digamma({x})");
        }
    }

    #[test]
    fn digamma_recurrence() {
        // ψ(x+1) = ψ(x) + 1/x
        for &x in &[0.4, 2.3, 7.7] {
            assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-10);
        }
    }

    #[test]
    fn log_sum_exp_stability_and_empty() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert!((log_sum_exp(&[-1e5, -1e5]) - (-1e5 + 2.0f64.ln())).abs() < 1e-9);
        assert!((log_sum_exp(&[0.0]) - 0.0).abs() < 1e-15);
    }

    #[test]
    fn sigmoid_symmetry_and_saturation() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        for &x in &[-3.0, -0.5, 0.1, 8.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-14);
        }
        assert!(sigmoid(800.0) <= 1.0 && sigmoid(800.0) > 0.999);
        assert!(sigmoid(-800.0) >= 0.0 && sigmoid(-800.0) < 1e-10);
    }

    #[test]
    fn log1p_exp_consistency() {
        for &x in &[-40.0f64, -1.0, 0.0, 1.0, 40.0] {
            let direct = if x < 30.0 { (1.0 + x.exp()).ln() } else { x };
            assert!((log1p_exp(x) - direct).abs() < 1e-9, "x = {x}");
        }
    }

    #[test]
    fn lbeta_symmetric() {
        assert!((lbeta(2.5, 3.5) - lbeta(3.5, 2.5)).abs() < 1e-14);
        // B(1,1) = 1
        assert!(lbeta(1.0, 1.0).abs() < 1e-13);
    }

    #[test]
    fn lmvgamma_reduces_to_lgamma_in_1d() {
        for &x in &[0.9, 2.4, 6.0] {
            assert!((lmvgamma(1, x) - lgamma(x)).abs() < 1e-12);
        }
    }
}
