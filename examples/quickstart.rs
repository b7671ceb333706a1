//! Quickstart: the paper's running example, end to end.
//!
//! Reproduces Fig. 1 (the GMM model) and Fig. 2 (the user workflow):
//! compile the model with a custom MCMC schedule — elliptical slice
//! sampling for the cluster means composed with Gibbs for the
//! assignments — then draw posterior samples.
//!
//! Run with: `cargo run --release --example quickstart`

use augur::prelude::*;
use augur_math::Matrix;
use augurv2::{models, workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: load data (synthetic: three well-separated 2-D clusters).
    let k = 3;
    let n = 300;
    let data = workloads::hgmm_data(k, 2, n, 42);
    println!("generated {n} points from {k} clusters; true means:");
    for m in &data.true_means {
        println!("  [{:6.2}, {:6.2}]", m[0], m[1]);
    }

    // Part 2: invoke AugurV2 (Fig. 2) via the plan lifecycle:
    // compile once, specialize to the data shape, bind a session.
    let model = Model::with_schedule(models::GMM, "ESlice mu (*) Gibbs z")?;

    let info = model.compile_info();
    println!("\ndensity factorization:\n{}", info.density);
    println!("kernel: {}\n", info.kernel);

    let plan = model.plan(
        vec![
            HostValue::Int(k as i64),                        // K
            HostValue::Int(n as i64),                        // N
            HostValue::VecF(vec![0.0, 0.0]),                 // mu_0
            HostValue::Mat(Matrix::identity(2).scale(25.0)), // Sigma_0
            HostValue::VecF(vec![1.0 / k as f64; k]),        // pis
            HostValue::Mat(Matrix::identity(2)),             // Sigma
        ],
        vec![("x", HostValue::Ragged(data.points.clone()))],
    )?;
    let mut sampler = plan.session(SessionConfig::default())?;

    sampler.init()?;
    let samples = sampler.sample(1000, &["mu"])?;

    // Mixture posteriors are invariant to component relabeling, so a
    // cross-sample average of mu is meaningless; report the final draw.
    let last = &samples.last().expect("requested 1000 samples")["mu"];
    println!("cluster means of the final posterior draw:");
    let mut est: Vec<(f64, f64)> = (0..k).map(|c| (last[2 * c], last[2 * c + 1])).collect();
    est.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (x, y) in &est {
        println!("  [{x:6.2}, {y:6.2}]");
    }
    println!("\nvirtual sampling time: {:.3}s", sampler.virtual_secs());
    Ok(())
}
