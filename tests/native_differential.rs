//! Differential tests for the native (emit-C-and-`dlopen`) backend.
//!
//! `ExecBackend::Native` must reproduce the reference tree-walking
//! interpreter — and therefore the tape — *bit-for-bit* on the paper's
//! three benchmark models under every kernel flavor: the same
//! trajectories, the same run-report digest, and the same profile work
//! digest. The C is printed from the tape and charges the identical work
//! counters and draws from the identical per-thread RNG streams, so any
//! divergence (a fused multiply-add, a reordered draw, a skipped work
//! charge) surfaces as a trace mismatch on sweep one.
//!
//! When the host has no C toolchain (or `AUGUR_CC` points at a
//! nonexistent binary), every test here still passes: sessions record a
//! fallback reason and run on the tape, and the differential assertions
//! are skipped with a note.

use augur::prelude::*;
use augur::{CodegenTarget, ErrorKind};
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

/// Whether the native backend is selectable on this host: the feature
/// is on and a C toolchain answers the probe (or the probe plan's
/// artifact is already in the disk cache, which needs no compiler).
fn native_available() -> bool {
    let model = Model::compile(
        "(N) => {
            param p ~ Beta(1.0, 1.0) ;
            data y[n] ~ Bernoulli(p) for n <- 0 until N ;
        }",
    )
    .unwrap();
    let plan =
        model.plan(vec![HostValue::Int(2)], vec![("y", HostValue::VecF(vec![1.0, 0.0]))]).unwrap();
    plan.backends().iter().any(|b| b.backend == ExecBackend::Native && b.available)
}

fn config(backend: ExecBackend, threads: usize) -> SessionConfig {
    SessionConfig {
        backend,
        threads,
        mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 8, ..Default::default() },
        seed: 0xD1FF,
        ..Default::default()
    }
}

/// Runs one sampler and returns the recorded trajectories as raw bits
/// (`out[sweep][cell]`), the run-report digest, and the profile work
/// digest. Panics if a `Native` session silently fell back.
#[allow(clippy::too_many_arguments)]
fn run(
    label: &str,
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    record: &[&str],
    sweeps: usize,
    backend: ExecBackend,
    threads: usize,
) -> (Vec<Vec<u64>>, String, String) {
    let compiled = match sched {
        Some(s) => Model::with_schedule(model, s),
        None => Model::compile(model),
    }
    .expect("model parses");
    let plan = compiled.plan(args, data).expect("model plans");
    let mut s = plan.session(config(backend, threads)).expect("session binds");
    if backend == ExecBackend::Native {
        assert_eq!(
            s.backend(),
            ExecBackend::Native,
            "{label}: native session fell back: {:?}",
            s.backend_fallback()
        );
        let module = plan.native_module().expect("native session has a module");
        assert_eq!(
            module.covered(),
            s.proc_names().len(),
            "{label}: every procedure runs natively"
        );
    }
    s.init().unwrap();
    let traces: Vec<Vec<u64>> = s
        .sample(sweeps, record)
        .unwrap()
        .iter()
        .map(|snap| record.iter().flat_map(|p| snap[*p].iter().map(|x| x.to_bits())).collect())
        .collect();
    (traces, s.report().digest(), s.profile().digest())
}

/// Native vs tree trajectories, and native vs tape report/profile
/// digests, at 1 and 8 requested threads.
#[allow(clippy::too_many_arguments)]
fn assert_native_matches(
    label: &str,
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    record: &[&str],
    sweeps: usize,
) {
    if !native_available() {
        eprintln!("{label}: no C toolchain, skipping native differential");
        return;
    }
    let (tree, _, _) =
        run(label, model, sched, args.clone(), data.clone(), record, sweeps, ExecBackend::Tree, 1);
    let (_, tape_report, tape_profile) =
        run(label, model, sched, args.clone(), data.clone(), record, sweeps, ExecBackend::Tape, 1);
    for threads in [1, 8] {
        let (native, report, profile) = run(
            label,
            model,
            sched,
            args.clone(),
            data.clone(),
            record,
            sweeps,
            ExecBackend::Native,
            threads,
        );
        assert_eq!(tree.len(), native.len(), "{label}: sweep counts differ");
        for (s, (a, b)) in tree.iter().zip(&native).enumerate() {
            assert_eq!(a, b, "{label}: native ({threads} threads) diverged from tree at sweep {s}");
        }
        assert_eq!(report, tape_report, "{label}: report digest ({threads} threads)");
        assert_eq!(profile, tape_profile, "{label}: profile digest ({threads} threads)");
    }
}

/// The text of procedure `name`'s C function.
fn c_proc<'a>(c: &'a str, name: &str) -> &'a str {
    let proc = &c[c.find(&format!(": {name} */")).expect("procedure in the C")..];
    &proc[..proc.find("\n}\n").expect("end of the function")]
}

/// The text of the `nth` (from 0) loop at nesting `depth` (0 outermost)
/// of procedure `name` in emitted C.
fn c_loop<'a>(c: &'a str, name: &str, depth: usize, nth: usize) -> &'a str {
    let proc = c_proc(c, name);
    let open = proc.match_indices(&format!("{{ int64_t n{depth} ")).nth(nth).expect("loop").0;
    let mut depth = 0;
    for (k, ch) in proc[open..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' if depth == 1 => return &proc[open..=open + k],
            '}' => depth -= 1,
            _ => {}
        }
    }
    unreachable!("unbalanced loop in {name}")
}

/// The emitted C of a plan.
fn emit_c(model: &str, args: Vec<HostValue>, data: Vec<(&str, HostValue)>) -> String {
    Model::compile(model).unwrap().plan(args, data).unwrap().emit(CodegenTarget::C).unwrap()
}

/// HGMM under every kernel flavor at D = 1, 2, 3. The sufficient
/// statistics of the Gibbs `mu` and `Sigma` updates — `sum += y[n]` and
/// `scatter += outer_sub(y[n], mu[z[n]])` — run in C with no callback,
/// and so do the two `<- 0` resets of the statistics that open each
/// update: what calls back is the conjugate draw after the loop (17
/// instructions in `u1_gibbs`, 2 in `u2_gibbs`). The `z` update's
/// component loop makes one callback per component, its fused MvNormal
/// weight.
#[test]
fn hgmm_native_matches_tree_and_tape() {
    let flavors: [(&str, Option<&str>); 7] = [
        ("gibbs", None),
        ("eslice", Some("Gibbs pi (*) ESlice mu (*) Gibbs Sigma (*) Gibbs z")),
        ("hmc", Some("Gibbs pi (*) HMC mu (*) Gibbs Sigma (*) Gibbs z")),
        ("nuts", Some("Gibbs pi (*) NUTS mu (*) Gibbs Sigma (*) Gibbs z")),
        ("mh", Some("Gibbs pi (*) MH mu (*) Gibbs Sigma (*) Gibbs z")),
        ("mala", Some("Gibbs pi (*) MALA mu (*) Gibbs Sigma (*) Gibbs z")),
        ("slice", Some("Gibbs pi (*) Slice mu (*) Gibbs Sigma (*) Gibbs z")),
    ];
    // D = 2 is the benchmark's shape; D = 1 and D = 3 keep the MvNormal
    // factor arithmetic honest away from it.
    for (k, d, n) in [(2, 2, 40), (3, 1, 60), (3, 3, 60)] {
        let data = workloads::hgmm_data(k, d, n, 91);
        let y = vec![("y", HostValue::Ragged(data.points.clone()))];
        let c = emit_c(models::HGMM, hgmm_args(k, d, n), y);
        for (update, callbacks) in [("u1_gibbs", 17), ("u2_gibbs", 2)] {
            let stats = c_loop(&c, update, 0, 0);
            assert!(!stats.contains("vt->step("), "hgmm/d{d}: {update} calls back:\n{stats}");
            let proc = c_proc(&c, update);
            let n = proc.matches("vt->step(").count();
            assert_eq!(n, callbacks, "hgmm/d{d}: {update} makes {n} callbacks:\n{proc}");
        }
        let components = c_loop(&c, "u3_gibbs", 1, 0);
        let calls = components.matches("vt->step(").count();
        assert_eq!(
            calls, 1,
            "hgmm/d{d}: the component loop makes {calls} callbacks:\n{components}"
        );
        for (label, sched) in flavors {
            assert_native_matches(
                &format!("hgmm/d{d}/{label}"),
                models::HGMM,
                sched,
                hgmm_args(k, d, n),
                vec![("y", HostValue::Ragged(data.points.clone()))],
                &["pi", "mu", "Sigma", "z"],
                25,
            );
        }
    }
}

/// LDA at K=3, and at the benchmark's topic count (K=20, V=200) over 12
/// documents of uneven length, one of them a single token: the
/// optimizer's scratch vector and the inline draw's exp array are sized
/// from K. Draws and both digests match at 1 and 8 threads, and the `z`
/// update (`aug_p2`) draws every token in C, with no callback.
#[test]
fn lda_native_matches_tree_and_tape() {
    let mut uneven = workloads::lda_corpus(20, 12, 200, 24, 23);
    for (d, len) in [(3, 1), (8, 5)] {
        uneven.docs[d].truncate(len);
        uneven.lens[d] = len as i64;
    }
    let shapes = [
        ("lda/gibbs", 3, workloads::lda_corpus(3, 10, 60, 20, 5), 15),
        ("lda/k20", 20, uneven, 10),
    ];
    for (label, topics, corpus, sweeps) in shapes {
        let args = lda_args(topics, &corpus);
        let data = vec![("w", HostValue::RaggedI(corpus.docs.clone()))];
        let c = Model::compile(models::LDA)
            .unwrap()
            .plan(args.clone(), data.clone())
            .unwrap()
            .emit(CodegenTarget::C)
            .unwrap();
        let z_update = &c[c.find("static void aug_p2(").unwrap()..c.find("/* proc 3").unwrap()];
        assert!(!z_update.contains("vt->step("), "{label}: aug_p2 calls back:\n{z_update}");
        for array in [format!("double sc0[{topics}];"), format!("double e[{topics}];")] {
            assert!(z_update.contains(&array), "{label}: no `{array}`:\n{z_update}");
        }
        assert_native_matches(label, models::LDA, None, args, data, &["theta", "phi", "z"], sweeps);
    }
}

/// HLR under every kernel flavor. The gradient — the `<- 0` resets of
/// its adjoints, then the row loop's scalar gradient, `adj +=
/// vec_scale(g, x[n])` and the bias term — runs in C with no callback.
#[test]
fn hlr_native_matches_tree_and_tape() {
    let d = 4;
    let data = workloads::logistic_data(60, d, 17);
    let args = || {
        vec![
            HostValue::Real(1.0),
            HostValue::Int(60),
            HostValue::Int(d as i64),
            HostValue::Ragged(data.x.clone()),
        ]
    };
    let y = || vec![("y", HostValue::VecF(data.y.clone()))];
    let c = emit_c(models::HLR, args(), y());
    let rows = c_loop(&c, "u0_grad", 0, 1);
    assert!(rows.contains("* b"), "hlr: no inline vec_scale in the row loop:\n{rows}");
    assert!(!rows.contains("vt->step("), "hlr: the gradient's row loop calls back:\n{rows}");
    let grad = c_proc(&c, "u0_grad");
    assert!(!grad.contains("vt->step("), "hlr: the gradient calls back:\n{grad}");
    let flavors: [(&str, Option<&str>); 5] = [
        ("hmc", None), // heuristic: blocked HMC over the continuous parameters
        ("nuts", Some("NUTS sigma2 b theta")),
        ("mala", Some("MALA sigma2 b theta")),
        ("mh", Some("MH sigma2 b theta")),
        ("slice", Some("Slice sigma2 b theta")),
    ];
    for (label, sched) in flavors {
        assert_native_matches(
            &format!("hlr/{label}"),
            models::HLR,
            sched,
            args(),
            y(),
            &["sigma2", "b", "theta"],
            25,
        );
    }
}

/// Native artifacts are content-addressed: two plans that differ only in
/// GPU-only optimization flags have different fingerprints but emit the
/// same C, so the second plan loads the first one's shared object from
/// disk instead of running the compiler again.
#[test]
fn plans_emitting_identical_c_share_one_artifact() {
    if !native_available() {
        eprintln!("no C toolchain, skipping artifact sharing");
        return;
    }
    let topics = 2;
    let corpus = workloads::lda_corpus(topics, 7, 40, 11, 23);
    let model = Model::compile(models::LDA).unwrap();
    let plan = |flags: OptFlags| {
        model
            .plan_opt(
                lda_args(topics, &corpus),
                vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
                flags,
            )
            .unwrap()
    };
    let first = plan(OptFlags::default());
    let second = plan(OptFlags { sum_blk: false, commute: false, ..Default::default() });
    assert_ne!(first.fingerprint(), second.fingerprint(), "GPU flags are part of the plan key");
    let a = first.native_module().unwrap();
    let b = second.native_module().unwrap();
    assert_eq!(a.source(), b.source(), "GPU-only flags leave the CPU tape and its C alone");
    assert_eq!(a.artifact_path(), b.artifact_path());
    assert!(b.disk_hit(), "the second plan recompiled identical C");
    assert_eq!(b.compile_secs(), 0.0);
}

/// Each backend's outcome of one sweep after `init`: the typed error's
/// kind and message, or `None` when the sweep succeeds. Native runs
/// only where a toolchain answers.
fn first_sweep_errors(plan: &augur::Plan) -> Vec<(ExecBackend, Option<(ErrorKind, String)>)> {
    let mut backends = vec![ExecBackend::Tree, ExecBackend::Tape];
    if native_available() {
        backends.push(ExecBackend::Native);
    }
    backends
        .into_iter()
        .map(|backend| {
            let mut s = plan.session(config(backend, 1)).unwrap();
            assert_eq!(s.backend(), backend);
            s.init().unwrap();
            let err = s.try_sweep().err().map(augur::Error::from);
            (backend, err.map(|e| (e.kind(), e.to_string())))
        })
        .collect()
}

/// Asserts every backend fails its sweep with the tree's typed error,
/// whose message starts with `prefix`.
fn assert_same_error(label: &str, plan: &augur::Plan, prefix: &str) {
    let errors = first_sweep_errors(plan);
    let (_, tree) = &errors[0];
    let (_, msg) = tree.as_ref().unwrap_or_else(|| panic!("{label}: the sweep must fail"));
    assert!(msg.starts_with(prefix), "{label}: {msg}");
    for (backend, e) in &errors {
        assert_eq!(e, tree, "{label}: {backend:?} fails differently");
    }
}

/// A word id outside the vocabulary makes LDA's count update index past
/// a row. The interpreters raise a bounds panic that the session turns
/// into a typed error; native code must fail the same way — its inline
/// bounds check traps into the interpreter's instruction — with the same
/// message, rather than writing out of bounds.
#[test]
fn out_of_range_data_is_the_same_typed_error_on_every_backend() {
    let topics = 3;
    let mut corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    corpus.docs[2][1] = corpus.vocab as i64;
    let plan = Model::compile(models::LDA)
        .unwrap()
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap();
    assert_same_error("word id", &plan, "out-of-bounds access in");
}

/// A categorical draw from log weights that are all `-inf`, or that
/// hold `+inf` or NaN, fails with the interpreter's typed error on
/// every backend — natively drawn (`aug_cat_draw`) or not.
#[test]
fn bad_logit_draws_are_the_same_typed_error_on_every_backend() {
    // z's conditional weights: log pis[k] + log phi[k][y[n]].
    let mixture = "(K, N, pis, phi) => {
        param z[n] ~ Categorical(pis) for n <- 0 until N ;
        data y[n] ~ Categorical(phi[z[n]]) for n <- 0 until N ;
    }";
    let plan = |phi: Vec<Vec<f64>>| {
        Model::compile(mixture)
            .unwrap()
            .plan(
                vec![
                    HostValue::Int(2),
                    HostValue::Int(3),
                    HostValue::VecF(vec![0.5, 0.5]),
                    HostValue::Ragged(augur_math::FlatRagged::from_rows(phi)),
                ],
                vec![("y", HostValue::VecF(vec![0.0, 1.0, 2.0]))],
            )
            .unwrap()
    };
    // Word 1 has probability 0 under both topics: every weight is -inf.
    let zero = plan(vec![vec![0.5, 0.0, 0.5], vec![0.5, 0.0, 0.5]]);
    let c = zero.emit(CodegenTarget::C).unwrap();
    assert!(c.contains("= aug_cat_draw(b"), "the z draw runs in C:\n{c}");
    let all_zero = "`Gibbs Single(z)` panicked: categorical_log: all weights are zero";
    assert_same_error("all -inf", &zero, all_zero);
    let inf = plan(vec![vec![0.5, f64::INFINITY, 0.5], vec![0.5, 0.25, 0.25]]);
    let not_finite = "`Gibbs Single(z)` panicked: categorical weights must be non-empty with \
                      positive finite sum";
    assert_same_error("+inf", &inf, not_finite);
    // A NaN component mean makes that component's Normal weight NaN.
    let normal = "(K, N, pis, mu) => {
        param z[n] ~ Categorical(pis) for n <- 0 until N ;
        data y[n] ~ Normal(mu[z[n]], 1.0) for n <- 0 until N ;
    }";
    let nan = Model::compile(normal)
        .unwrap()
        .plan(
            vec![
                HostValue::Int(2),
                HostValue::Int(3),
                HostValue::VecF(vec![0.5, 0.5]),
                HostValue::VecF(vec![0.0, f64::NAN]),
            ],
            vec![("y", HostValue::VecF(vec![0.1, -0.2, 0.3]))],
        )
        .unwrap();
    assert_same_error("NaN", &nan, not_finite);
}

/// The optimizer hoists the invariant load `c[idx]` out of the
/// likelihood loop into its preheader, which runs only when the loop
/// does: with `idx` out of range, an empty loop raises nothing on any
/// backend, and a non-empty one raises the tree's typed error on all.
#[test]
fn hoisted_loads_fail_only_in_loops_that_run() {
    let model = "(N, idx, c) => {
        param m ~ Normal(0.0, 1.0) ;
        data y[n] ~ Normal(m + c[idx], 1.0) for n <- 0 until N ;
    }";
    let plan = |n: usize| {
        Model::compile(model)
            .unwrap()
            .plan(
                vec![HostValue::Int(n as i64), HostValue::Int(3), HostValue::VecF(vec![0.5; 3])],
                vec![("y", HostValue::VecF(vec![0.25; n]))],
            )
            .unwrap()
    };
    let hoisted = plan(2).session(config(ExecBackend::Tape, 1)).unwrap().explain().render();
    assert!(hoisted.contains("u0_ll = hoisted=3 "), "c[idx] not hoisted:\n{hoisted}");
    for (backend, e) in first_sweep_errors(&plan(0)) {
        assert_eq!(e, None, "{backend:?}: a zero-trip loop raised an error");
    }
    assert_same_error("idx", &plan(2), "out-of-bounds access in");
}

/// When this plan's `backends()` row says `Native` is available (a
/// toolchain answers the probe, or the plan's artifact is already in
/// the disk cache): a `Native` session really runs natively — no
/// fallback, procedures covered. When it says unavailable: the session
/// records the reason, runs on the tape, and stays bit-identical to a
/// tape session — the graceful-degradation contract of the redesigned
/// API. Either way, what `backends()` promises is what sessions do.
#[test]
fn native_runs_or_records_a_fallback_reason() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let model = Model::compile(models::LDA).unwrap();
    let plan = model
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap();
    let promised = plan.backends().iter().any(|b| b.backend == ExecBackend::Native && b.available);
    let mut s = plan.session(config(ExecBackend::Native, 1)).unwrap();
    s.init().unwrap();
    let draws = s.sample(5, &["theta"]).unwrap();
    if promised {
        assert_eq!(s.backend(), ExecBackend::Native);
        assert_eq!(s.backend_fallback(), None);
        let module = plan.native_module().expect("toolchain or cached artifact present");
        assert_eq!(module.covered(), s.proc_names().len(), "every procedure runs natively");
    } else {
        assert_eq!(s.backend(), ExecBackend::Tape, "fallback runs on the tape");
        let reason = s.backend_fallback().expect("fallback reason recorded");
        assert!(!reason.is_empty());
    }
    // Either way the draws are the tape's draws, bit for bit.
    let mut t = plan.session(config(ExecBackend::Tape, 1)).unwrap();
    t.init().unwrap();
    let tape_draws = t.sample(5, &["theta"]).unwrap();
    for (a, b) in draws.iter().zip(&tape_draws) {
        let (a, b) = (&a["theta"], &b["theta"]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// The emitted C for the LDA plan is part of the crate's observable
/// behavior: one translation unit printed from the tape, inlined
/// hot-path loads and densities, `step` callbacks for the rest, and the
/// exported `aug_procs` entry table. Pin it (pure emission — no
/// toolchain needed).
#[test]
fn golden_native_c_for_lda() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let model = Model::compile(models::LDA).unwrap();
    let plan = model
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap();
    let got = &plan.emit(CodegenTarget::C).unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lda_native.c");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, got).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file exists; run with UPDATE_GOLDEN=1 to regenerate");
    assert_eq!(
        got.trim(),
        expected.trim(),
        "emitted C changed; if intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}
