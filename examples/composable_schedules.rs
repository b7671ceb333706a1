//! Composable MCMC: the same model, three different samplers.
//!
//! The Fig. 10 experiment at example scale: the compiler generates three
//! different inference algorithms for the HGMM cluster means — conjugate
//! Gibbs, elliptical slice, and HMC — by swapping one schedule entry,
//! while the rest of the model keeps its Gibbs updates. Each sampler's
//! log-joint trace and timing are printed side by side.
//!
//! Run with: `cargo run --release --example composable_schedules`

use augur::prelude::*;
use augur_math::Matrix;
use augurv2::{models, workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (k, dim, n) = (3, 2, 400);
    let data = workloads::hgmm_data(k, dim, n, 21);

    let schedules = [
        ("gibbs-mu ", "Gibbs pi (*) Gibbs mu (*) Gibbs Sigma (*) Gibbs z"),
        ("eslice-mu", "Gibbs pi (*) ESlice mu (*) Gibbs Sigma (*) Gibbs z"),
        ("hmc-mu   ", "Gibbs pi (*) HMC mu (*) Gibbs Sigma (*) Gibbs z"),
    ];

    for (label, sched) in schedules {
        let model = Model::with_schedule(models::HGMM, sched)?;
        let plan = model.plan(
            vec![
                HostValue::Int(k as i64),
                HostValue::Int(n as i64),
                HostValue::VecF(vec![1.0; k]),   // alpha
                HostValue::VecF(vec![0.0; dim]), // mu_0
                HostValue::Mat(Matrix::identity(dim).scale(100.0)), // Sigma_0
                HostValue::Real((dim + 2) as f64), // nu
                HostValue::Mat(Matrix::identity(dim)), // Psi
            ],
            vec![("y", HostValue::Ragged(data.points.clone()))],
        )?;
        let mut sampler = plan.session(SessionConfig {
            mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 10, ..Default::default() },
            ..Default::default()
        })?;
        sampler.init().unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..150 {
            sampler.sweep();
        }
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "{label}  log-joint {:10.1}   wall {wall:6.3}s   virtual {:6.3}s",
            sampler.log_joint(),
            sampler.virtual_secs()
        );
    }
    Ok(())
}
