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
use augur::CodegenTarget;
use augur_math::Matrix;
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
    let plan = model
        .plan(vec![HostValue::Int(2)], vec![("y", HostValue::VecF(vec![1.0, 0.0]))])
        .unwrap();
    plan.backends()
        .iter()
        .any(|b| b.backend == ExecBackend::Native && b.available)
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
        .map(|snap| {
            record
                .iter()
                .flat_map(|p| snap[*p].iter().map(|x| x.to_bits()))
                .collect()
        })
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
    let (tree, _, _) = run(
        label,
        model,
        sched,
        args.clone(),
        data.clone(),
        record,
        sweeps,
        ExecBackend::Tree,
        1,
    );
    let (_, tape_report, tape_profile) = run(
        label,
        model,
        sched,
        args.clone(),
        data.clone(),
        record,
        sweeps,
        ExecBackend::Tape,
        1,
    );
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
            assert_eq!(
                a, b,
                "{label}: native ({threads} threads) diverged from tree at sweep {s}"
            );
        }
        assert_eq!(report, tape_report, "{label}: report digest ({threads} threads)");
        assert_eq!(profile, tape_profile, "{label}: profile digest ({threads} threads)");
    }
}

fn hgmm_args(k: usize, d: usize, n: usize) -> Vec<HostValue> {
    vec![
        HostValue::Int(k as i64),
        HostValue::Int(n as i64),
        HostValue::VecF(vec![1.0; k]),
        HostValue::VecF(vec![0.0; d]),
        HostValue::Mat(Matrix::identity(d).scale(50.0)),
        HostValue::Real((d + 2) as f64),
        HostValue::Mat(Matrix::identity(d)),
    ]
}

fn lda_args(topics: usize, corpus: &augurv2::workloads::Corpus) -> Vec<HostValue> {
    vec![
        HostValue::Int(topics as i64),
        HostValue::Int(corpus.docs.len() as i64),
        HostValue::VecF(vec![0.5; topics]),
        HostValue::VecF(vec![0.1; corpus.vocab]),
        HostValue::VecI(corpus.lens.clone()),
    ]
}

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

#[test]
fn lda_native_matches_tree_and_tape() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    assert_native_matches(
        "lda/gibbs",
        models::LDA,
        None,
        lda_args(topics, &corpus),
        vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        &["theta", "phi", "z"],
        15,
    );
}

#[test]
fn hlr_native_matches_tree_and_tape() {
    let d = 4;
    let data = workloads::logistic_data(60, d, 17);
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
            vec![
                HostValue::Real(1.0),
                HostValue::Int(60),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x.clone()),
            ],
            vec![("y", HostValue::VecF(data.y.clone()))],
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
    let mut backends = vec![ExecBackend::Tree, ExecBackend::Tape];
    if native_available() {
        backends.push(ExecBackend::Native);
    }
    let errors: Vec<String> = backends
        .iter()
        .map(|&backend| {
            let mut s = plan.session(config(backend, 1)).unwrap();
            assert_eq!(s.backend(), backend);
            s.init().unwrap();
            let err = s.try_sweep().expect_err("out-of-range word id must fail the sweep");
            err.to_string()
        })
        .collect();
    assert!(errors[0].starts_with("out-of-bounds access in"), "{}", errors[0]);
    for (backend, e) in backends.iter().zip(&errors) {
        assert_eq!(e, &errors[0], "{backend:?} fails differently");
    }
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
    let promised = plan
        .backends()
        .iter()
        .any(|b| b.backend == ExecBackend::Native && b.available);
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
