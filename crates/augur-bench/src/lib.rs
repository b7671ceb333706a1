//! Shared harness code for the evaluation binaries (one per table/figure
//! of the paper's §7).
//!
//! See `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded results.

#![deny(missing_docs)]

use augur::{HostValue, McmcConfig, Model, Session, SessionConfig, Target};
use augur_math::Matrix;
use augurv2::models::{self, hgmm_args, lda_args};
use augurv2::workloads;

/// Builds an HGMM sampler over the given mixture data.
///
/// # Panics
///
/// Panics on pipeline errors (benchmark configurations are known-good).
pub fn hgmm_sampler(
    sched: Option<&str>,
    k: usize,
    d: usize,
    data: &workloads::MixtureData,
    target: Target,
    mcmc: McmcConfig,
    seed: u64,
) -> Session {
    let n = data.points.num_rows();
    let model = match sched {
        Some(s) => Model::with_schedule(models::HGMM, s),
        None => Model::compile(models::HGMM),
    }
    .expect("HGMM parses");
    model
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data.points.clone()))])
        .expect("HGMM plans")
        .session(SessionConfig { target, mcmc, seed, ..Default::default() })
        .expect("HGMM builds")
}

/// Builds an LDA sampler over a synthetic corpus.
///
/// # Panics
///
/// Panics on pipeline errors.
pub fn lda_sampler(
    topics: usize,
    corpus: &workloads::Corpus,
    target: Target,
    seed: u64,
) -> Session {
    Model::compile(models::LDA)
        .expect("LDA parses")
        .plan(lda_args(topics, corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .expect("LDA plans")
        .session(SessionConfig { target, seed, ..Default::default() })
        .expect("LDA builds")
}

/// Builds an HLR sampler over logistic data.
///
/// # Panics
///
/// Panics on pipeline errors.
pub fn hlr_sampler(
    data: &workloads::LogisticData,
    d: usize,
    target: Target,
    mcmc: McmcConfig,
    opt_flags: augur_blk::OptFlags,
    seed: u64,
) -> Session {
    let n = data.x.num_rows();
    Model::compile(models::HLR)
        .expect("HLR parses")
        .plan_opt(
            vec![
                HostValue::Real(1.0),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x.clone()),
            ],
            vec![("y", HostValue::VecF(data.y.clone()))],
            opt_flags,
        )
        .expect("HLR plans")
        .session(SessionConfig { target, mcmc, seed, ..Default::default() })
        .expect("HLR builds")
}

/// Extracts `(pi, mus, sigmas)` from an HGMM sampler state for
/// log-predictive evaluation.
pub fn hgmm_params(s: &Session, k: usize, d: usize) -> (Vec<f64>, Vec<Vec<f64>>, Vec<Matrix>) {
    let pi = s.param("pi").unwrap().to_vec();
    let mu = s.param("mu").unwrap().to_vec();
    let sig = s.param("Sigma").unwrap().to_vec();
    let mus = (0..k).map(|c| mu[c * d..(c + 1) * d].to_vec()).collect();
    let sigs = (0..k)
        .map(|c| Matrix::from_vec(d, d, sig[c * d * d..(c + 1) * d * d].to_vec()).expect("shape"))
        .collect();
    (pi, mus, sigs)
}

/// Writes a results block both to stdout and to `results/<name>.md`.
pub fn emit(name: &str, table: &str) {
    println!("{table}");
    let path = format!("results/{name}.md");
    if std::fs::write(&path, table).is_err() {
        // running from a different cwd — try the crate-relative location
        let alt = format!("../../results/{name}.md");
        let _ = std::fs::write(alt, table);
    } else {
        eprintln!("(written to {path})");
    }
}

/// Simple scale parsing for `--scale X` CLI arguments.
pub fn scale_arg(default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
