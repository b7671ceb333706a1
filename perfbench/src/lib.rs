//! `augur-bench`: the repository's one-command layered benchmark.
//!
//! Four seeded workloads — `lda-native`, `hlr-hmc`, `hgmm-gibbs` and
//! `serve-mixed` — each run in a child process with a private, empty
//! `TMPDIR` (so the native artifact cache starts cold and peak memory is
//! per workload). End-to-end metrics come from untraced runs; a traced
//! run adds per-layer metrics measured around the calls into each public
//! layer. Metric names and units are declared once, in the repository's
//! `BENCHMARK.json`; see `README.md` beside this file.

#![deny(missing_docs)]

pub mod batch;
pub mod calibrate;
pub mod compare;
pub mod inputs;
pub mod json;
pub mod outcome;
pub mod probes;
pub mod serve;
pub mod spec;
pub mod timing;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

use crate::inputs::{Scale, SERVE_MODELS};
use crate::outcome::Outcome;
use crate::timing::Reference;
use crate::trace::Tracer;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["lda-native", "hlr-hmc", "hgmm-gibbs", "serve-mixed"];

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs workload `name` in this process, or `None` for an unknown name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Option<Outcome> {
    let mut out = if name == "serve-mixed" {
        serve::run(opts)
    } else {
        batch::run(&batch::Batch::named(name, opts.seed, opts.scale)?, opts)
    };
    out.seconds = opts.seconds;
    Some(out)
}

/// Reference passes timed around each set-up; their median measures the
/// host speed the set-up ran at.
pub const SETUP_REF_PASSES: usize = 5;

/// Seconds from model source to the first sweep ready — compile, plan,
/// native build, session, init — or, for `serve-mixed`, registration,
/// `Service::start` and the first request per model answered; and the
/// median seconds of the reference passes run just before and just
/// after it. Input generation is not timed.
///
/// # Errors
///
/// Returns the failing step's error as text.
pub fn setup_seconds(name: &str, seed: u64, scale: Scale) -> Result<(f64, f64), String> {
    let tr = Tracer::new(false);
    let reference = Reference::new();
    let before = reference.median_pass(SETUP_REF_PASSES);
    let secs = if name == "serve-mixed" {
        let base: Vec<_> = SERVE_MODELS
            .iter()
            .map(|&k| inputs::serve_model(k, seed, 0))
            .collect();
        let t0 = Instant::now();
        let svc = serve::setup(&base, &tr, false)?;
        let secs = t0.elapsed().as_secs_f64();
        svc.shutdown();
        secs
    } else {
        let b = batch::Batch::named(name, seed, scale)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let t0 = Instant::now();
        let ready = b.setup(seed, &tr, false)?;
        let secs = t0.elapsed().as_secs_f64();
        drop(ready);
        secs
    };
    let after = reference.median_pass(SETUP_REF_PASSES);
    Ok((secs, (before + after) / 2.0))
}

/// This process's peak resident set (`VmHWM`) in KiB, or 0 where
/// `/proc` is unavailable.
pub fn vm_hwm_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The benchmark package's directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs keep their private temporary directories, traces and result files.
pub fn work_root() -> PathBuf {
    bench_dir().join("target").join("augur-bench")
}

/// Writes the traced run's spans to
/// `target/augur-bench/trace-<workload>-<seed>.jsonl`.
pub fn finish_trace(tr: &Tracer, out: &Outcome) {
    let path = work_root().join(format!("trace-{}-{}.jsonl", out.workload, out.seed));
    if let Err(e) = std::fs::create_dir_all(work_root()).and_then(|()| tr.write_jsonl(&path)) {
        eprintln!("augur-bench: could not write {}: {e}", path.display());
    }
}

/// The frozen low/mid/high offered rates of the serving steps (requests
/// per second), from `calibration.json`.
///
/// # Panics
///
/// Panics when the file is missing or malformed: the serving workload
/// has no meaning without its frozen rates.
pub fn frozen_rates() -> [f64; 3] {
    let path = bench_dir().join("calibration.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let v = json::Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let rates = v.get("serve").and_then(|s| s.get("rates_rps"));
    serve::STEPS.map(|step| {
        rates
            .and_then(|r| r.get(step))
            .and_then(json::Json::num)
            .unwrap_or_else(|| panic!("{}: serve.rates_rps.{step} missing", path.display()))
    })
}
