//! The three batch workloads: one sampler, set up from source, warmed
//! up, then swept for the run's duration.
//!
//! * `lda-native` — emitted-C Gibbs kernels (finite-sum categorical `z`,
//!   Dirichlet `theta`/`phi`); set-up is mostly the C compiler.
//! * `hlr-hmc` — the tape interpreter running reverse-mode gradients for
//!   block HMC; no native code and no Gibbs.
//! * `hgmm-gibbs` — conjugate Gibbs updates on the tape.
//!
//! Each runs one thread. On a 2-core VM, the rate and median sweep time
//! of two-thread HGMM runs spread 15–39% (IQR over median of ten runs)
//! against 5–15% at one thread, more than any admissible bound, so the
//! parallel pool is measured per layer (`par.speedup`, interleaved).

use std::time::Instant;

use augur::{Checkpoint, ExecBackend, Model, Session};

use crate::inputs::{self, Kind, ModelInputs, Scale};
use crate::outcome::Outcome;
use crate::probes::{self, ready_session, session_config};
use crate::timing::{
    self, sorted, thread_cpu_secs, throughput, windows, Op, Reference, REF_EVERY_SECS,
};
use crate::trace::{count_allocs, Tracer};
use crate::RunOpts;

/// Timed windows are this long; `sweeps_per_s` is their median rate.
pub const WINDOW_SECS: f64 = 0.5;
/// Sweeps compared bit-for-bit between engines or thread counts.
const DIFF_SWEEPS: usize = 3;

/// One batch workload's configuration.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Workload name.
    pub name: &'static str,
    /// Its seeded inputs.
    pub inputs: ModelInputs,
    /// Execution engine.
    pub backend: ExecBackend,
    /// Untimed sweeps before the timed phase.
    pub warmup: usize,
}

impl Batch {
    /// The batch workload called `name`, or `None`.
    pub fn named(name: &str, seed: u64, scale: Scale) -> Option<Batch> {
        let (name, inputs, backend, warmup) = match name {
            "lda-native" => (
                "lda-native",
                inputs::lda_native(seed, scale),
                ExecBackend::Native,
                10,
            ),
            "hlr-hmc" => (
                "hlr-hmc",
                inputs::hlr_hmc(seed, scale),
                ExecBackend::Tape,
                100,
            ),
            "hgmm-gibbs" => (
                "hgmm-gibbs",
                inputs::hgmm_gibbs(seed, scale),
                ExecBackend::Tape,
                20,
            ),
            _ => return None,
        };
        Some(Batch {
            name,
            inputs,
            backend,
            warmup: if scale == Scale::Smoke { 2 } else { warmup },
        })
    }

    fn cfg(
        &self,
        seed: u64,
        backend: ExecBackend,
        threads: usize,
        timers: bool,
    ) -> augur::SessionConfig {
        session_config(&self.inputs, seed, backend, threads, timers)
    }

    /// Source text to the first sweep ready: compile, plan, native build
    /// (native workloads), session bind, init.
    ///
    /// # Errors
    ///
    /// Returns the failing layer's error as text. A native workload whose
    /// native build fails is an error, not a silent tape fallback.
    pub fn setup(
        &self,
        seed: u64,
        tr: &Tracer,
        timers: bool,
    ) -> Result<(Model, augur::Plan, Session), String> {
        let model = tr
            .span("Model::compile", || {
                Model::compile(self.inputs.kind.source())
            })
            .map_err(|e| e.to_string())?;
        let plan = tr
            .span("Model::plan", || self.inputs.plan(&model))
            .map_err(|e| e.to_string())?;
        if self.backend == ExecBackend::Native {
            tr.span("Plan::native_module", || plan.native_module())
                .map_err(|e| format!("native build failed: {e}"))?;
        }
        let cfg = self.cfg(seed, self.backend, 1, timers);
        let mut s = tr
            .span("Plan::session", || plan.session(cfg))
            .map_err(|e| e.to_string())?;
        tr.span("Session::init", || s.init())
            .map_err(|e| e.to_string())?;
        if let Some(z) = &self.inputs.init_z {
            s.set_param("z", z);
        }
        Ok((model, plan, s))
    }
}

/// The chain state a checkpoint pins bit-for-bit: every buffer and the
/// RNG words.
fn same_state(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.buffers == b.buffers && a.rng_state == b.rng_state && a.rng_spare == b.rng_spare
}

fn state_after(
    plan: &augur::Plan,
    b: &Batch,
    seed: u64,
    backend: ExecBackend,
    threads: usize,
) -> Result<Checkpoint, String> {
    let mut s = ready_session(plan, &b.inputs, b.cfg(seed, backend, threads, false))?;
    for _ in 0..DIFF_SWEEPS {
        s.try_sweep().map_err(|e| e.to_string())?;
    }
    Ok(s.checkpoint())
}

/// Per-component posterior means over the recorded draws.
fn means(draws: &[Vec<f64>]) -> Vec<f64> {
    draws
        .iter()
        .map(|t| t.iter().sum::<f64>() / t.len().max(1) as f64)
        .collect()
}

/// Runs one batch workload for `opts.seconds` and checks its outputs.
pub fn run(b: &Batch, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::new(b.name, opts.seed, opts.trace);
    // Allocated first, as in the serving workload, so that every
    // workload's peak memory holds the same reference buffers.
    let reference = Reference::new();
    let tr = Tracer::new(opts.trace);
    let (_model, plan, mut s) = match b.setup(opts.seed, &tr, opts.trace) {
        Ok(v) => v,
        Err(e) => {
            out.check("set-up", false, e);
            return out;
        }
    };
    let lj_start = s.log_joint();
    tr.span("warmup", || {
        for _ in 0..b.warmup {
            s.sweep();
        }
    });
    // Set-up allocates every buffer up front and steady-state sweeps
    // allocate nothing, so the peak is reached by now; reading it here
    // keeps the benchmark's own recording buffers out of it.
    let peak_mib = crate::vm_hwm_kib() / 1024.0;

    // Timed phase: each sweep is timed alone, in wall time (`ops`) and in
    // CPU time (`cpu`), and a reference pass runs between sweeps every
    // REF_EVERY_SECS; the summary components are read between sweeps,
    // outside the timed region.
    let comps = &b.inputs.summary;
    let mut draws: Vec<Vec<f64>> = vec![Vec::with_capacity(4096); comps.len()];
    let mut ops: Vec<Op> = Vec::with_capacity(8192);
    let mut cpu: Vec<Op> = Vec::with_capacity(8192);
    let mut refs: Vec<Op> = Vec::with_capacity(1024);
    let mut allocs = 0u64;
    let t0 = Instant::now();
    tr.span("timed", || {
        while t0.elapsed().as_secs_f64() < opts.seconds || ops.is_empty() {
            let start = t0.elapsed().as_secs_f64();
            if refs
                .last()
                .is_none_or(|r| start - r.start >= REF_EVERY_SECS)
            {
                refs.push(Op {
                    start,
                    secs: reference.pass(),
                });
            }
            let start = t0.elapsed().as_secs_f64();
            let c = thread_cpu_secs();
            let t = Instant::now();
            let (res, n) = tr.span("Session::sweep", || {
                count_allocs(opts.trace, || s.try_sweep())
            });
            let secs = t.elapsed().as_secs_f64();
            let cpu_secs = thread_cpu_secs() - c;
            allocs += n;
            out.attempted += 1;
            if res.is_err() {
                out.failed += 1;
                continue;
            }
            ops.push(Op { start, secs });
            cpu.push(Op {
                start,
                secs: cpu_secs,
            });
            for (trace, (param, idx)) in draws.iter_mut().zip(comps) {
                trace.push(s.param(param).map_or(f64::NAN, |v| v[*idx]));
            }
        }
    });

    // The rate uses every timed sweep: the median over windows of sweeps
    // per CPU-second at reference host speed, so a slowdown of the code
    // moves it and a neighbour's load does not. Sweep-time percentiles
    // are per-layer metrics (`sweep.p50_ms`, `sweep.p95_ms`).
    let rates = timing::adjusted_rates(&cpu, &refs, WINDOW_SECS, throughput);
    let raw: Vec<f64> = windows(&ops, WINDOW_SECS)
        .iter()
        .map(|w| throughput(w))
        .collect();
    let passes: Vec<f64> = refs.iter().map(|o| o.secs).collect();
    put_rates(&mut out, &rates, &raw, &passes);
    out.put("peak_rss_mb", peak_mib, "MiB");
    let ess = mean_ess(&draws);
    out.put("mcmc.ess_per_sweep", ess, "ratio");
    out.notes.push(format!(
        "{} sweeps in {} windows of {WINDOW_SECS} s; {:.2} sweeps/s over the run, median window {:.2} per wall second, {:.2} per CPU-second at reference speed",
        ops.len(),
        rates.len(),
        throughput(&ops),
        timing::median(&raw),
        timing::median(&rates)
    ));

    checks(&mut out, b, &plan, opts.seed, &mut s, lj_start, &draws);
    if opts.trace {
        session_layers(&mut out, std::slice::from_ref(&s), &ops, allocs);
    }
    drop(s);
    drop(plan);

    if opts.trace {
        if let Err(e) = tr.span("probes", || {
            probes::probe_model(
                &mut out,
                &b.inputs,
                opts.seed,
                b.backend,
                probes::window_secs(opts.scale),
            )
        }) {
            out.check("layer probes", false, e);
        }
        if let Err(e) = tr.span("serve probe", || {
            crate::serve::probe(&mut out, b.inputs.kind, opts)
        }) {
            out.check("serve probe", false, e);
        }
        out.layers = crate::trace::self_times(&tr.spans());
        crate::finish_trace(&tr, &out);
    }
    out
}

/// Adds `sweeps_per_s` (the median of the windows' rates per CPU-second
/// at reference host speed, `rates`), `raw_sweeps_per_s` (the median of
/// the same windows' rates per wall second, `raw`) and `host.ref_ms` (the
/// median of the reference passes' CPU seconds, `passes`).
pub fn put_rates(out: &mut Outcome, rates: &[f64], raw: &[f64], passes: &[f64]) {
    let n = rates.len();
    out.put_n(
        "sweeps_per_s",
        timing::median(rates),
        "1/s",
        n,
        timing::rel_iqr(rates),
    );
    out.put_n(
        "raw_sweeps_per_s",
        timing::median(raw),
        "1/s",
        n,
        timing::rel_iqr(raw),
    );
    let ms: Vec<f64> = passes.iter().map(|s| s * 1e3).collect();
    out.put_n(
        "host.ref_ms",
        timing::median(&ms),
        "ms",
        ms.len(),
        timing::rel_iqr(&ms),
    );
}

/// Mean over components of bulk ESS per draw.
pub fn mean_ess(draws: &[Vec<f64>]) -> f64 {
    let per: Vec<f64> = draws
        .iter()
        .filter(|t| t.len() >= 4)
        .map(|t| augur::diag::ess(t) / t.len() as f64)
        .collect();
    if per.is_empty() {
        0.0
    } else {
        per.iter().sum::<f64>() / per.len() as f64
    }
}

/// A schedule step label as a metric-name segment: lowercase, each run
/// of other characters replaced by `-`.
pub fn slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_owned()
}

/// Schedule-step labels across the three models, as metric segments.
pub const STEP_SLUGS: [&str; 7] = [
    "gibbs-single-theta",
    "gibbs-single-phi",
    "gibbs-single-z",
    "gibbs-single-pi",
    "gibbs-single-mu",
    "gibbs-single-sigma",
    "hmc-block-sigma2-b-theta",
];

/// The session-level per-layer metrics of traced sweep loops, pooled
/// over `sessions`: sweep latency, per-step share of sweep time and work
/// per sweep (from `Profile`), tape ops and allocations per sweep, and
/// the HMC counters (from `RunReport`). Steps and kernels a model lacks
/// read zero, so every workload reports the same names.
pub fn session_layers(out: &mut Outcome, sessions: &[Session], ops: &[Op], allocs: u64) {
    let ms = sorted(&ops.iter().map(|o| o.secs * 1e3).collect::<Vec<_>>());
    out.put_percentile("sweep.p50_ms", &ms, 50.0, "ms");
    out.put_percentile("sweep.p95_ms", &ms, 95.0, "ms");
    out.put(
        "alloc.per_sweep",
        allocs as f64 / ops.len().max(1) as f64,
        "count",
    );
    let profiles: Vec<augur::Profile> = sessions.iter().map(Session::profile).collect();
    let per = profiles.iter().map(|p| p.sweeps).sum::<u64>().max(1) as f64;
    let wall: f64 = profiles
        .iter()
        .flat_map(|p| &p.steps)
        .map(|st| st.wall_secs)
        .sum();
    for name in STEP_SLUGS {
        let steps = profiles
            .iter()
            .flat_map(|p| &p.steps)
            .filter(|st| slug(&st.label) == name);
        let (w, work) = steps.fold((0.0, 0u64), |(w, k), st| (w + st.wall_secs, k + st.work));
        out.put(
            &format!("step.{name}.share"),
            if wall > 0.0 { w / wall } else { 0.0 },
            "ratio",
        );
        out.put(&format!("step.{name}.work"), work as f64 / per, "count");
    }
    for (i, class) in augur_backend::metrics::OP_CLASS_NAMES.iter().enumerate() {
        let n: u64 = profiles.iter().map(|p| p.op_class[i]).sum();
        out.put(&format!("tape.ops.{class}"), n as f64 / per, "count");
    }
    let (mut proposals, mut accepts, mut leapfrogs, mut divergences) = (0, 0, 0, 0);
    for s in sessions {
        for k in s
            .report()
            .kernels
            .iter()
            .filter(|k| k.kernel.starts_with("HMC"))
        {
            proposals += k.stats.proposals;
            accepts += k.stats.accepts;
            leapfrogs += k.stats.leapfrogs;
            divergences += k.stats.divergences;
        }
    }
    let p = proposals.max(1) as f64;
    out.put(
        "mcmc.accept.hmc-block-sigma2-b-theta",
        accepts as f64 / p,
        "ratio",
    );
    out.put("hmc.leapfrogs_per_sweep", leapfrogs as f64 / p, "count");
    out.put("hmc.divergences", divergences as f64, "count");
}

fn checks(
    out: &mut Outcome,
    b: &Batch,
    plan: &augur::Plan,
    seed: u64,
    s: &mut Session,
    lj_start: f64,
    draws: &[Vec<f64>],
) {
    let diff = |backend, threads| state_after(plan, b, seed, backend, threads);
    match b.inputs.kind {
        Kind::Lda => {
            let (native, tape) = (diff(ExecBackend::Native, 1), diff(ExecBackend::Tape, 1));
            match (native, tape) {
                (Ok(n), Ok(t)) => out.check(
                    "native state == tape state",
                    same_state(&n, &t),
                    format!("after {DIFF_SWEEPS} sweeps, seed {seed}"),
                ),
                (Err(e), _) | (_, Err(e)) => out.check("native state == tape state", false, e),
            }
            let lj_end = s.log_joint();
            out.check(
                "log-joint increases over the run",
                lj_end > lj_start,
                format!("{lj_start:.1} -> {lj_end:.1}"),
            );
        }
        Kind::Hlr => {
            match (diff(ExecBackend::Tape, 1), diff(ExecBackend::Tree, 1)) {
                (Ok(t), Ok(r)) => out.check(
                    "tape state == tree state",
                    same_state(&t, &r),
                    format!("after {DIFF_SWEEPS} sweeps, seed {seed}"),
                ),
                (Err(e), _) | (_, Err(e)) => out.check("tape state == tree state", false, e),
            }
            // summary = sigma2, b, theta[0..d]
            let theta = &means(draws)[2..];
            let agree = theta
                .iter()
                .zip(&b.inputs.truth)
                .filter(|(m, t)| m.signum() == t.signum())
                .count();
            let share = agree as f64 / b.inputs.truth.len().max(1) as f64;
            out.check(
                "posterior-mean theta has the sign of true theta on >= 80% of coordinates",
                share >= 0.8,
                format!("{agree}/{} coordinates", b.inputs.truth.len()),
            );
        }
        Kind::Hgmm => {
            match (diff(ExecBackend::Tape, 2), diff(ExecBackend::Tape, 1)) {
                (Ok(two), Ok(one)) => out.check(
                    "2-thread state == 1-thread state",
                    same_state(&two, &one),
                    format!("after {DIFF_SWEEPS} sweeps, seed {seed}"),
                ),
                (Err(e), _) | (_, Err(e)) => {
                    out.check("2-thread state == 1-thread state", false, e)
                }
            }
            let d = 2;
            let k = b.inputs.truth.len() / d;
            let m = means(draws);
            let rows = |v: &[f64]| -> Vec<Vec<f64>> {
                let mut r: Vec<Vec<f64>> = v.chunks(d).map(<[f64]>::to_vec).collect();
                r.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
                r
            };
            let (est, truth) = (rows(&m[..k * d]), rows(&b.inputs.truth));
            let worst = est
                .iter()
                .flatten()
                .zip(truth.iter().flatten())
                .map(|(a, t)| (a - t).abs())
                .fold(0.0, f64::max);
            out.check(
                "sorted posterior mu within 0.5 of sorted true means",
                worst <= 0.5,
                format!("largest coordinate error {worst:.3}"),
            );
        }
    }
}
