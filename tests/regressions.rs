//! Regression-family models beyond the paper's three benchmarks: the
//! modeling language and AD fragment cover GLMs generally. These tests
//! exercise `exp ∘ dot` chains through the source-to-source AD and the
//! Poisson/Normal likelihood gradients.

use augur::{HostValue, McmcConfig, Model, SessionConfig};
use augur_math::vecops::dot;
use augur_math::FlatRagged;
use augurv2::augur_dist::Prng;

#[test]
fn poisson_regression_recovers_rate_structure() {
    // y_n ~ Poisson(exp(x_n · θ)), a log-linear model.
    let src = r#"(N, D, x) => {
        param theta[j] ~ Normal(0.0, 1.0) for j <- 0 until D ;
        data y[n] ~ Poisson(exp(dot(x[n], theta))) for n <- 0 until N ;
    }"#;
    let (n, d) = (300, 3);
    let true_theta = [0.8, -0.5, 0.3];
    let mut rng = Prng::seed_from_u64(7);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let rate = dot(&row, &true_theta).exp();
        y.push(rng.poisson(rate) as f64);
        rows.push(row);
    }

    let model = Model::compile(src).unwrap();
    assert_eq!(model.kernel(), "HMC Single(theta)");
    let mut s = model
        .plan(
            vec![
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(FlatRagged::from_rows(rows)),
            ],
            vec![("y", HostValue::VecF(y))],
        )
        .unwrap()
        .session(SessionConfig {
            mcmc: McmcConfig { step_size: 0.02, leapfrog_steps: 20, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
    s.init().unwrap();
    for _ in 0..400 {
        s.sweep();
    }
    let mut post = vec![0.0; d];
    let draws = 400;
    for _ in 0..draws {
        s.sweep();
        for (p, &t) in post.iter_mut().zip(s.param("theta").unwrap()) {
            *p += t / draws as f64;
        }
    }
    assert!(s.acceptance_rate(0) > 0.5, "acceptance {}", s.acceptance_rate(0));
    for j in 0..d {
        assert!(
            (post[j] - true_theta[j]).abs() < 0.25,
            "theta[{j}]: {} vs true {}",
            post[j],
            true_theta[j]
        );
    }
}

#[test]
fn bayesian_linear_regression_with_unknown_noise() {
    // y_n ~ Normal(x_n · θ + b, σ²), σ² ~ InvGamma — the variance is
    // conjugate given the mean structure, so the heuristic mixes a Gibbs
    // update for σ² with an HMC block for (b, θ).
    let src = r#"(N, D, x, a0, b0) => {
        param sigma2 ~ InvGamma(a0, b0) ;
        param b ~ Normal(0.0, 10.0) ;
        param theta[j] ~ Normal(0.0, 10.0) for j <- 0 until D ;
        data y[n] ~ Normal(dot(x[n], theta) + b, sigma2) for n <- 0 until N ;
    }"#;
    let (n, d) = (250, 2);
    let true_theta = [1.5, -2.0];
    let (true_b, true_s2) = (0.7, 0.25);
    let mut rng = Prng::seed_from_u64(8);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        y.push(dot(&row, &true_theta) + true_b + rng.normal(0.0, true_s2));
        rows.push(row);
    }

    let model = Model::compile(src).unwrap();
    // σ² is InvGamma–Normal conjugate: detected despite the structured mean
    // (the mean expression is the likelihood's *other* argument).
    let kernel = model.kernel();
    assert_eq!(kernel, "Gibbs Single(sigma2) (*) HMC Block(b, theta)", "{kernel}");
    let mut s = model
        .plan(
            vec![
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(FlatRagged::from_rows(rows)),
                HostValue::Real(2.0),
                HostValue::Real(0.5),
            ],
            vec![("y", HostValue::VecF(y))],
        )
        .unwrap()
        .session(SessionConfig {
            mcmc: McmcConfig { step_size: 0.02, leapfrog_steps: 20, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
    s.init().unwrap();
    for _ in 0..600 {
        s.sweep();
    }
    let mut post_theta = vec![0.0; d];
    let mut post_b = 0.0;
    let mut post_s2 = 0.0;
    let draws = 400;
    for _ in 0..draws {
        s.sweep();
        for (p, &t) in post_theta.iter_mut().zip(s.param("theta").unwrap()) {
            *p += t / draws as f64;
        }
        post_b += s.param("b").unwrap()[0] / draws as f64;
        post_s2 += s.param("sigma2").unwrap()[0] / draws as f64;
    }
    for j in 0..d {
        assert!(
            (post_theta[j] - true_theta[j]).abs() < 0.15,
            "theta[{j}]: {} vs {}",
            post_theta[j],
            true_theta[j]
        );
    }
    assert!((post_b - true_b).abs() < 0.15, "b: {post_b} vs {true_b}");
    assert!((post_s2 - true_s2).abs() < 0.12, "sigma2: {post_s2} vs {true_s2}");
}
