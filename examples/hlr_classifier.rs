//! Bayesian logistic regression (the paper's HLR model) as a classifier.
//!
//! The HLR has only continuous parameters, so the heuristic schedule
//! blocks them into one HMC update; gradients come from the compiler's
//! source-to-source AD (Fig. 8) with the positive-support variance
//! sampled through a log transform. Compare with the Stan-like baseline,
//! which needs a hand-written marginal density and tape AD.
//!
//! Run with: `cargo run --release --example hlr_classifier`

use augur::prelude::*;
use augur_math::special::sigmoid;
use augur_math::vecops::dot;
use augurv2::{models, workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, d) = (400, 8);
    // one generating process, split into train/test
    let all = workloads::logistic_data(n + 200, d, 11);
    let train_rows: Vec<Vec<f64>> = (0..n).map(|i| all.x.row(i).to_vec()).collect();
    let test_rows: Vec<Vec<f64>> = (n..n + 200).map(|i| all.x.row(i).to_vec()).collect();
    let train = workloads::LogisticData {
        x: augur_math::FlatRagged::from_rows(train_rows),
        y: all.y[..n].to_vec(),
        true_theta: all.true_theta.clone(),
        true_b: all.true_b,
    };
    let test = workloads::LogisticData {
        x: augur_math::FlatRagged::from_rows(test_rows),
        y: all.y[n..].to_vec(),
        true_theta: all.true_theta.clone(),
        true_b: all.true_b,
    };

    let model = Model::compile(models::HLR)?;
    println!("kernel: {}", model.kernel());

    let plan = model.plan(
        vec![
            HostValue::Real(1.0),               // lambda
            HostValue::Int(n as i64),           // N
            HostValue::Int(d as i64),           // D
            HostValue::Ragged(train.x.clone()), // x (covariates are an argument)
        ],
        vec![("y", HostValue::VecF(train.y.clone()))],
    )?;
    let mut sampler = plan.session(SessionConfig {
        mcmc: McmcConfig { step_size: 0.08, leapfrog_steps: 30, ..Default::default() },
        ..Default::default()
    })?;
    sampler.init().unwrap();

    // warmup + posterior draws
    for _ in 0..800 {
        sampler.sweep();
    }
    let mut theta_mean = vec![0.0; d];
    let mut b_mean = 0.0;
    let draws = 300;
    for _ in 0..draws {
        sampler.sweep();
        let theta = sampler.param("theta").unwrap();
        for (m, t) in theta_mean.iter_mut().zip(theta) {
            *m += t / draws as f64;
        }
        b_mean += sampler.param("b").unwrap()[0] / draws as f64;
    }
    println!("HMC acceptance: {:.2}", sampler.acceptance_rate(0));
    println!("posterior mean intercept: {b_mean:.3} (true {:.3})", train.true_b);

    // held-out accuracy of the posterior-mean classifier
    let mut correct = 0;
    for i in 0..test.x.num_rows() {
        let p = sigmoid(dot(test.x.row(i), &theta_mean) + b_mean);
        if f64::from(p > 0.5) == test.y[i] {
            correct += 1;
        }
    }
    println!("held-out accuracy: {}/{}", correct, test.x.num_rows());

    // coefficient recovery
    let err: f64 = theta_mean
        .iter()
        .zip(&train.true_theta)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    println!("coefficient RMSE vs truth: {err:.3}");
    Ok(())
}
