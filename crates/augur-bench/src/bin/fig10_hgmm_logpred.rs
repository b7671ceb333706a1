//! **E1 / Figure 10** — log-predictive probability vs. training time for a
//! 2-D HGMM with 1000 points and 3 clusters, under five samplers:
//! three AugurV2-compiled algorithms (Gibbs / elliptical-slice / HMC for
//! the cluster means, Gibbs for the rest), the Jags-like graph Gibbs
//! baseline, and the Stan-like marginalized-HMC baseline.
//!
//! AugurV2 and Jags draw 150 samples with no burn-in and no thinning;
//! Stan draws 100 with a 50-sample tuning period — the paper's exact
//! protocol. The output is the (time, log-predictive) series per sampler.

use augur::{McmcConfig, Target};
use augur_bench::{emit, hgmm_params, hgmm_sampler};
use augur_math::Matrix;
use augurv2::models::hgmm_args;
use augurv2::workloads;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let (k, d, n) = (3, 2, 1000);
    let train = workloads::hgmm_data(k, d, n, 1001);
    let test = workloads::hgmm_data(k, d, 300, 1002);
    let samples = 150;
    let record_at = [1usize, 5, 10, 25, 50, 100, 150];

    let mut out = String::new();
    let _ = writeln!(out, "# Figure 10 — HGMM log-predictive probability vs. time\n");
    let _ = writeln!(out, "2-D HGMM, N={n}, K={k}; test set 300 points.\n");
    let _ = writeln!(out, "| sampler | samples | time (s) | log-predictive |");
    let _ = writeln!(out, "|---|---|---|---|");

    // --- the three AugurV2 schedules ---
    let schedules = [
        ("augurv2-gibbs-mu", "Gibbs pi (*) Gibbs mu (*) Gibbs Sigma (*) Gibbs z"),
        ("augurv2-eslice-mu", "Gibbs pi (*) ESlice mu (*) Gibbs Sigma (*) Gibbs z"),
        ("augurv2-hmc-mu", "Gibbs pi (*) HMC mu (*) Gibbs Sigma (*) Gibbs z"),
    ];
    for (label, sched) in schedules {
        let mcmc = McmcConfig { step_size: 0.05, leapfrog_steps: 12, ..Default::default() };
        let mut s = hgmm_sampler(Some(sched), k, d, &train, Target::Cpu, mcmc, 7);
        s.init().unwrap();
        let t0 = Instant::now();
        for i in 1..=samples {
            s.sweep();
            if record_at.contains(&i) {
                let (pi, mus, sigs) = hgmm_params(&s, k, d);
                let lp = workloads::gmm_log_predictive(&test.points, &pi, &mus, &sigs);
                let _ = writeln!(
                    out,
                    "| {label} | {i} | {:.3} | {lp:.1} |",
                    t0.elapsed().as_secs_f64()
                );
            }
        }
    }

    // --- Jags-like baseline ---
    {
        let mut j = augur_jags::JagsModel::build(
            augurv2::models::HGMM,
            hgmm_args(k, d, n),
            vec![("y", augur::HostValue::Ragged(train.points.clone()))],
            8,
        )
        .expect("jags builds");
        j.init();
        let t0 = Instant::now();
        for i in 1..=samples {
            j.sweep();
            if record_at.contains(&i) {
                let pi = j.values("pi");
                let mu = j.values("mu");
                let sig = j.values("Sigma");
                let mus: Vec<Vec<f64>> =
                    (0..k).map(|c| mu[c * d..(c + 1) * d].to_vec()).collect();
                let sigs: Vec<Matrix> = (0..k)
                    .map(|c| {
                        Matrix::from_vec(d, d, sig[c * d * d..(c + 1) * d * d].to_vec())
                            .expect("shape")
                    })
                    .collect();
                let lp = workloads::gmm_log_predictive(&test.points, &pi, &mus, &sigs);
                let _ = writeln!(
                    out,
                    "| jags | {i} | {:.3} | {lp:.1} |",
                    t0.elapsed().as_secs_f64()
                );
            }
        }
    }

    // --- Stan-like baseline: marginalized mixture, NUTS, 50 warmup ---
    {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| train.points.row(i).to_vec()).collect();
        let model = augur_stan::MarginalGmm {
            data: rows,
            k,
            prior_var: 50.0,
            like_var: 1.0,
            alpha: 1.0,
        };
        let t0 = Instant::now();
        let sout = augur_stan::sample(
            &model,
            augur_stan::SampleOpts {
                warmup: 50,
                samples: 100,
                seed: 9,
                nuts: true,
                ..Default::default()
            },
        );
        let total = t0.elapsed().as_secs_f64();
        let per_sample = total / 150.0;
        let sigs: Vec<Matrix> = (0..k).map(|_| Matrix::identity(d)).collect();
        for &i in &[1usize, 25, 50, 100] {
            let (pis, mus) = model.unpack(&sout.draws[i.min(sout.draws.len()) - 1]);
            let lp = workloads::gmm_log_predictive(&test.points, &pis, &mus, &sigs);
            let _ = writeln!(
                out,
                "| stan | {i} | {:.3} | {lp:.1} |",
                per_sample * (50 + i) as f64
            );
        }
    }

    let _ = writeln!(
        out,
        "\nShape check (paper Fig. 10): all samplers converge to a similar\n\
         log-predictive level; the conjugate Gibbs sampler gets there in the\n\
         least time, the graph-interpreted Jags baseline and the marginalized\n\
         Stan baseline take longer."
    );
    emit("fig10_hgmm_logpred", &out);
}
