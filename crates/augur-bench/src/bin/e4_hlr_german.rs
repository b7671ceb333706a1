//! **E4 / §7.2 prose (HLR, German Credit)** — HLR on a German-Credit-shaped
//! dataset (N = 1000, D = 24):
//!
//! * AugurV2's compiled CPU HMC vs. the Stan-like HMC (the paper found
//!   AugurV2 ≈ 25% slower than Stan at equal sampler settings);
//! * the Jags-like baseline, slowest (scalar slice/ARS-style updates);
//! * AugurV2's GPU HMC, which *loses* to its CPU by roughly an order of
//!   magnitude on this small model (launch + readback latency dominate).

use augur::{DeviceConfig, McmcConfig, Target};
use augur_bench::{emit, hlr_sampler};
use augurv2::workloads;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let (n, d) = (1000, 24);
    let data = workloads::logistic_data(n, d, 1300);
    let samples = 200;
    let mcmc = McmcConfig { step_size: 0.03, leapfrog_steps: 16, ..Default::default() };

    let rmse = |theta: &[f64]| -> f64 {
        theta.iter().zip(&data.true_theta).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# E4 — HLR on German-Credit-shaped data (N={n}, D={d}, {samples} samples)\n"
    );
    let _ = writeln!(out, "| system | time (s) | coef RMSE | notes |");
    let _ = writeln!(out, "|---|---|---|---|");

    // AugurV2 CPU HMC (compiled source-to-source AD)
    let mut s = hlr_sampler(&data, d, Target::Cpu, mcmc.clone(), Default::default(), 31);
    s.init().unwrap();
    let t0 = Instant::now();
    for _ in 0..samples {
        s.sweep();
    }
    let t_augur = t0.elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "| augurv2-cpu-hmc | {t_augur:.2} | {:.2} | acceptance {:.2} |",
        rmse(s.param("theta").unwrap()),
        s.acceptance_rate(0)
    );

    // Stan-like HMC (tape AD), same leapfrog settings
    let rows: Vec<Vec<f64>> = (0..n).map(|i| data.x.row(i).to_vec()).collect();
    let stan =
        augur_stan::HlrModel { x: rows, y: data.y.iter().map(|&v| v as u8).collect(), lambda: 1.0 };
    let t0 = Instant::now();
    let sout = augur_stan::sample(
        &stan,
        augur_stan::SampleOpts {
            warmup: 0,
            samples,
            seed: 32,
            step_size: mcmc.step_size,
            leapfrog: mcmc.leapfrog_steps,
            ..Default::default()
        },
    );
    let t_stan = t0.elapsed().as_secs_f64();
    let last = sout.draws.last().expect("drew samples");
    let _ = writeln!(
        out,
        "| stan-hmc | {t_stan:.2} | {:.2} | acceptance {:.2}; augurv2/stan = {:.2}x |",
        rmse(&last[2..]),
        sout.accept_rate,
        t_augur / t_stan
    );

    // Jags-like baseline (slice sampling every scalar)
    let mut j = augur_jags::JagsModel::build(
        augurv2::models::HLR,
        vec![
            augur::HostValue::Real(1.0),
            augur::HostValue::Int(n as i64),
            augur::HostValue::Int(d as i64),
            augur::HostValue::Ragged(data.x.clone()),
        ],
        vec![("y", augur::HostValue::VecF(data.y.clone()))],
        33,
    )
    .expect("jags builds");
    j.init();
    let t0 = Instant::now();
    for _ in 0..samples {
        j.sweep();
    }
    let t_jags = t0.elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "| jags | {t_jags:.2} | {:.2} | scalar one-at-a-time updates converge slowest |",
        rmse(&j.values("theta"))
    );

    // AugurV2 GPU HMC — virtual time, compared against CPU virtual time
    let run_virtual = |target: Target| -> f64 {
        let mut s = hlr_sampler(&data, d, target, mcmc.clone(), Default::default(), 31);
        s.init().unwrap();
        for _ in 0..samples {
            s.sweep();
        }
        s.virtual_secs()
    };
    let v_cpu = run_virtual(Target::Cpu);
    let v_gpu = run_virtual(Target::Gpu(DeviceConfig::titan_black_like()));
    let _ = writeln!(
        out,
        "| augurv2-gpu-hmc | {v_gpu:.2} (virtual) | — | vs CPU virtual {v_cpu:.2}s: GPU {:.1}x *worse* |",
        v_gpu / v_cpu
    );

    let _ = writeln!(
        out,
        "\nShape check (paper §7.2): Stan and AugurV2's CPU HMC are within a\n\
         small factor of each other (paper: AugurV2 about 1.25x Stan); Jags'\n\
         per-sweep cost is competitive here but its scalar-at-a-time updates\n\
         converge worst (highest coefficient error — the paper likewise saw\n\
         the poorest performance from Jags' defaults); the GPU sampler is\n\
         several-fold worse than the CPU on this small model — launch and\n\
         read-back latency cannot amortize over 1000 points and 26\n\
         parameters."
    );
    emit("e4_hlr_german", &out);
}
