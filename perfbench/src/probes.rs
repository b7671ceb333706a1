//! Layer probes for the traced run: repeated, individually timed calls
//! into each public layer — compile, plan (cold and cache hit), native
//! build, session bind and init, checkpoint capture and restore — plus
//! the interleaved two-thread and traced-vs-untraced sweep windows.
//!
//! Each probe times the layer from outside, around its public function,
//! and reads the numbers the program already publishes (explain spans,
//! `Profile`, `RunReport`).

use std::time::Instant;

use augur::{ExecBackend, Model, Plan, Session, SessionConfig};

use crate::inputs::{ModelInputs, Scale};
use crate::outcome::Outcome;
use crate::timing::median;
use crate::trace::{count_allocs, Tracer};

/// Repetitions of each cheap probe; the median is reported.
const REPS: usize = 5;
/// Interleaved rounds per A/B comparison.
const ROUNDS: usize = 4;

/// Length of one interleaved sweep window at `scale`.
pub fn window_secs(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 0.15,
        Scale::Smoke => 0.02,
    }
}

/// A session over `plan` with the benchmark's fixed settings.
pub fn session_config(
    inputs: &ModelInputs,
    seed: u64,
    backend: ExecBackend,
    threads: usize,
    timers: bool,
) -> SessionConfig {
    SessionConfig {
        mcmc: inputs.mcmc.clone(),
        backend,
        threads,
        timers,
        ..augur_serve::hermetic_config(seed)
    }
}

/// Binds, initializes and (for HGMM) seeds the assignments of a session.
///
/// # Errors
///
/// Returns the library error as text.
pub fn ready_session(
    plan: &Plan,
    inputs: &ModelInputs,
    cfg: SessionConfig,
) -> Result<Session, String> {
    let mut s = plan.session(cfg).map_err(|e| e.to_string())?;
    s.init().map_err(|e| e.to_string())?;
    if let Some(z) = &inputs.init_z {
        s.set_param("z", z);
    }
    Ok(s)
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Wall seconds of the explain span called `name`, searched depth-first.
fn explain_secs(span: &augur::Span, name: &str) -> f64 {
    if span.name == name {
        return span.wall_secs;
    }
    span.children
        .iter()
        .map(|c| explain_secs(c, name))
        .find(|&s| s > 0.0)
        .unwrap_or(0.0)
}

/// Sweeps per second of `s` over one window.
fn window_rate(s: &mut Session, secs: f64) -> f64 {
    let t0 = Instant::now();
    let mut n = 0usize;
    while t0.elapsed().as_secs_f64() < secs || n == 0 {
        s.sweep();
        n += 1;
    }
    n as f64 / t0.elapsed().as_secs_f64()
}

/// Medians of sweeps/s for `a` and `b` over alternating windows, `a`
/// first in even rounds and `b` first in odd ones, so steady drift
/// charges both sides equally.
fn interleaved(
    a: &mut Session,
    b: &mut Session,
    window: f64,
    mut run_b: impl FnMut(&mut Session) -> f64,
) -> (f64, f64) {
    let (mut ra, mut rb) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            ra.push(window_rate(a, window));
            rb.push(run_b(b));
        } else {
            rb.push(run_b(b));
            ra.push(window_rate(a, window));
        }
    }
    (median(&ra), median(&rb))
}

/// Adds `value` to metric `name` (summing across the models a workload
/// runs), creating it at zero first.
pub fn add(out: &mut Outcome, name: &str, value: f64, unit: &str) {
    let prev = out.get(name).map_or(0.0, |m| m.value);
    out.put(name, prev + value, unit);
}

/// Runs every probe on one model's inputs and adds the results to
/// `out`. Times and sizes add up across calls (a serving workload probes
/// each of its models); ratios are averaged by the caller. `window` is
/// the length of each interleaved sweep window.
///
/// # Errors
///
/// Returns the first library error as text.
pub fn probe_model(
    out: &mut Outcome,
    inputs: &ModelInputs,
    seed: u64,
    backend: ExecBackend,
    window: f64,
) -> Result<(), String> {
    let src = inputs.kind.source();
    // Shape-generic compile and cold plan, each from a fresh model.
    let (mut compile, mut miss) = (Vec::new(), Vec::new());
    let mut spans: [Vec<f64>; 5] = Default::default();
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let model = Model::compile(src).map_err(|e| e.to_string())?;
        compile.push(ms(t0));
        let t0 = Instant::now();
        let plan = inputs.plan(&model).map_err(|e| e.to_string())?;
        miss.push(ms(t0));
        let root = &plan.explain().root;
        for (slot, name) in
            spans
                .iter_mut()
                .zip(["frontend", "density", "kernel-plan", "lowering", "codegen"])
        {
            slot.push(explain_secs(root, name) * 1e3);
        }
        last = Some((model, plan));
    }
    let (model, plan) = last.expect("REPS > 0");
    add(out, "compile.model_ms", median(&compile), "ms");
    for (slot, name) in spans.iter().zip([
        "compile.frontend_ms",
        "compile.density_ms",
        "compile.kernel_ms",
        "compile.lowering_ms",
        "plan.codegen_ms",
    ]) {
        add(out, name, median(slot), "ms");
    }
    add(out, "plan.miss_ms", median(&miss), "ms");
    let hit: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let _ = inputs.plan(&model);
            ms(t0)
        })
        .collect();
    add(out, "plan.hit_ms", median(&hit), "ms");
    add(
        out,
        "plan.bound_mb",
        plan.mem_watermark().bound_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    let opt = plan.opt_report();
    add(out, "blk.commuted", opt.commuted as f64, "count");
    add(out, "blk.inlined", opt.inlined as f64, "count");
    add(
        out,
        "blk.sum_converted",
        opt.converted_to_sum as f64,
        "count",
    );

    // Native build from a cold artifact cache.
    clear_native_cache();
    let native_model = Model::compile(src).map_err(|e| e.to_string())?;
    let native_plan = inputs.plan(&native_model).map_err(|e| e.to_string())?;
    let total_procs = ready_session(
        &plan,
        inputs,
        session_config(inputs, seed, ExecBackend::Tape, 1, false),
    )?
    .proc_names()
    .len()
    .max(1);
    match native_plan.native_module() {
        Ok(m) => {
            add(out, "native.cc_ms", m.compile_secs() * 1e3, "ms");
            add(out, "native.c_kb", m.source().len() as f64 / 1024.0, "KiB");
            add(
                out,
                "native.procs_covered",
                m.covered() as f64 / total_procs as f64,
                "ratio",
            );
        }
        Err(reason) => out
            .notes
            .push(format!("native build unavailable: {reason}")),
    }
    drop(native_plan);
    drop(native_model);

    let cfg = |threads: usize, timers: bool| session_config(inputs, seed, backend, threads, timers);
    let bind: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let _ = plan.session(cfg(1, false));
            ms(t0)
        })
        .collect();
    add(out, "session.bind_ms", median(&bind), "ms");
    let mut init = Vec::new();
    for _ in 0..REPS {
        let mut s = plan.session(cfg(1, false)).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        s.init().map_err(|e| e.to_string())?;
        init.push(ms(t0));
    }
    add(out, "session.init_ms", median(&init), "ms");

    let mut s = ready_session(&plan, inputs, cfg(1, false))?;
    for _ in 0..3 {
        s.sweep();
    }
    let mut capture = Vec::new();
    let mut ck = s.checkpoint();
    for _ in 0..REPS {
        let t0 = Instant::now();
        ck = s.checkpoint();
        capture.push(ms(t0));
    }
    let mut restore = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        s.restore(&ck).map_err(|e| e.to_string())?;
        restore.push(ms(t0));
    }
    add(out, "checkpoint.capture_ms", median(&capture), "ms");
    add(out, "checkpoint.restore_ms", median(&restore), "ms");
    add(
        out,
        "checkpoint.kb",
        ck.render().len() as f64 / 1024.0,
        "KiB",
    );

    // Two threads against one, in interleaved windows.
    let mut one = ready_session(&plan, inputs, cfg(1, false))?;
    let mut two = ready_session(&plan, inputs, cfg(2, false))?;
    let (r1, r2) = interleaved(&mut one, &mut two, window, |b| window_rate(b, window));
    add(out, "par.speedup", r2 / r1, "ratio");

    // The traced run's own cost: kernel timers, op-class profiling, the
    // allocation counter and one span per sweep, against a bare session.
    let mut bare = ready_session(&plan, inputs, cfg(1, false))?;
    let mut traced = ready_session(&plan, inputs, cfg(1, true))?;
    let tracer = Tracer::new(true);
    let (bare_rate, traced_rate) = interleaved(&mut bare, &mut traced, window, |b| {
        let t0 = Instant::now();
        let mut n = 0usize;
        while t0.elapsed().as_secs_f64() < window || n == 0 {
            tracer.span("Session::sweep", || count_allocs(true, || b.sweep()));
            n += 1;
        }
        n as f64 / t0.elapsed().as_secs_f64()
    });
    add(out, "trace_overhead", bare_rate / traced_rate, "ratio");
    Ok(())
}

/// Removes every native artifact cached under this process's `TMPDIR` —
/// only when that is a private directory under the benchmark's work root,
/// never a shared temporary directory.
pub fn clear_native_cache() {
    let tmp = std::env::temp_dir();
    if !tmp.starts_with(crate::work_root()) {
        return;
    }
    let Ok(entries) = std::fs::read_dir(tmp) else {
        return;
    };
    for e in entries.flatten() {
        if e.file_name()
            .to_string_lossy()
            .starts_with("augur-native-v")
        {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}
