//! **E6 / §7.2 prose (compile times)** — time from model source to
//! runnable sampler for each benchmark model and target.
//!
//! The paper: "It takes roughly 35 seconds for Stan to compile the model
//! (due to the extensive use of C++ templates in its implementation of
//! AD). AugurV2 compiles almost instantaneously when generating CPU code,
//! while it takes roughly 8 seconds to generate GPU code" (the difference
//! being Clang vs Nvcc). In this reproduction both targets compile to the
//! slot-resolved interpreter form, so the CPU/GPU gap is small; the Stan
//! column is a documented substitution — our Stan-like baseline is
//! ahead-of-time Rust, so the 35 s template-instantiation cost has no
//! analogue and is reported from the paper for context.

use augur::{DeviceConfig, HostValue, Model, SessionConfig, Target};
use augur_bench::emit;
use augurv2::models::hgmm_args;
use augurv2::{models, workloads};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let mut out = String::new();
    let _ = writeln!(out, "# E6 — compile times (model source → runnable sampler)\n");
    let _ = writeln!(out, "| model | CPU target (ms) | GPU target (ms) |");
    let _ = writeln!(out, "|---|---|---|");

    let time_build = |src: &str,
                      args: Vec<HostValue>,
                      data: Vec<(&str, HostValue)>,
                      target: Target|
     -> f64 {
        let t0 = Instant::now();
        let model = Model::compile(src).expect("parses");
        let _s = model
            .plan(args, data)
            .expect("plans")
            .session(SessionConfig { target, ..Default::default() })
            .expect("builds");
        t0.elapsed().as_secs_f64() * 1e3
    };

    // HGMM
    {
        let (k, d, n) = (3, 2, 1000);
        let data = workloads::hgmm_data(k, d, n, 1501);
        let args = || hgmm_args(k, d, n);
        let cpu = time_build(models::HGMM, args(), vec![("y", HostValue::Ragged(data.points.clone()))], Target::Cpu);
        let gpu = time_build(
            models::HGMM,
            args(),
            vec![("y", HostValue::Ragged(data.points.clone()))],
            Target::Gpu(DeviceConfig::titan_black_like()),
        );
        let _ = writeln!(out, "| HGMM | {cpu:.1} | {gpu:.1} |");
    }
    // LDA
    {
        let corpus = workloads::lda_corpus(10, 100, 1000, 100, 1502);
        let args = || {
            vec![
                HostValue::Int(10),
                HostValue::Int(corpus.docs.len() as i64),
                HostValue::VecF(vec![0.5; 10]),
                HostValue::VecF(vec![0.1; corpus.vocab]),
                HostValue::VecI(corpus.lens.clone()),
            ]
        };
        let cpu = time_build(models::LDA, args(), vec![("w", HostValue::RaggedI(corpus.docs.clone()))], Target::Cpu);
        let gpu = time_build(
            models::LDA,
            args(),
            vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
            Target::Gpu(DeviceConfig::titan_black_like()),
        );
        let _ = writeln!(out, "| LDA | {cpu:.1} | {gpu:.1} |");
    }
    // HLR
    {
        let (n, d) = (1000, 24);
        let data = workloads::logistic_data(n, d, 1503);
        let args = || {
            vec![
                HostValue::Real(1.0),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x.clone()),
            ]
        };
        let cpu = time_build(models::HLR, args(), vec![("y", HostValue::VecF(data.y.clone()))], Target::Cpu);
        let gpu = time_build(
            models::HLR,
            args(),
            vec![("y", HostValue::VecF(data.y.clone()))],
            Target::Gpu(DeviceConfig::titan_black_like()),
        );
        let _ = writeln!(out, "| HLR | {cpu:.1} | {gpu:.1} |");
    }

    let _ = writeln!(
        out,
        "\nPaper reference points: AugurV2 CPU ≈ instantaneous, AugurV2 GPU\n\
         ≈ 8 s (Nvcc), Stan ≈ 35 s (C++ template AD). In this reproduction\n\
         both targets compile to the slot-resolved form in milliseconds —\n\
         there is no external C/Cuda compiler to wait for; the ordering\n\
         CPU ≤ GPU still holds because the GPU target additionally runs the\n\
         Blk-IL translation and optimizer."
    );
    emit("e6_compile_times", &out);
}
