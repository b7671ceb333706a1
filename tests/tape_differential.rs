//! Differential tests for the two execution strategies.
//!
//! The flat instruction tape (`ExecBackend::Tape`) must reproduce the
//! reference tree-walking interpreter (`ExecBackend::Tree`)
//! *bit-for-bit*: the per-thread splitmix RNG streams are execution-order
//! independent, so any divergence — a reordered draw, a different
//! rounding, a skipped work charge that shifts a reseed — shows up as a
//! trace mismatch, not just a statistical wobble. Every kernel flavor
//! (Gibbs, ESlice, HMC, NUTS, MH, MALA, Slice) is exercised over the
//! paper's three benchmark models.

use augur::prelude::*;
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

/// Binds one sampler with the suite's fixed seed and step tuning.
fn bind(
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    exec: ExecBackend,
    threads: usize,
    timers: bool,
) -> Session {
    let compiled = match sched {
        Some(s) => Model::with_schedule(model, s),
        None => Model::compile(model),
    }
    .expect("model parses");
    compiled
        .plan(args, data)
        .expect("model plans")
        .session(SessionConfig {
            backend: exec,
            threads,
            timers,
            mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 8, ..Default::default() },
            seed: 0xD1FF,
            ..Default::default()
        })
        .expect("session binds")
}

/// Initializes `s`, runs `sweeps` sweeps and returns the recorded traces
/// as raw bits: `out[sweep][cell]`, concatenating the recorded
/// parameters in order.
fn bits(s: &mut Session, sweeps: usize, record: &[&str]) -> Vec<Vec<u64>> {
    s.init().unwrap();
    s.sample(sweeps, record)
        .unwrap()
        .iter()
        .map(|snap| record.iter().flat_map(|p| snap[*p].iter().map(|x| x.to_bits())).collect())
        .collect()
}

/// Asserts tape and tree agree exactly (localizing the first divergence),
/// then that the multi-threaded tape reproduces the single-threaded trace
/// bit-for-bit at 2 and 8 worker threads.
fn assert_tape_matches_tree(
    label: &str,
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    record: &[&str],
    sweeps: usize,
) {
    let trace = |exec, threads| {
        let mut s = bind(model, sched, args.clone(), data.clone(), exec, threads, true);
        bits(&mut s, sweeps, record)
    };
    let tree = trace(ExecBackend::Tree, 1);
    let tape = trace(ExecBackend::Tape, 1);
    for (s, (a, b)) in tree.iter().zip(&tape).enumerate() {
        assert_eq!(a, b, "{label}: tape diverged from tree at sweep {s}");
    }
    assert_eq!(tree.len(), tape.len(), "{label}: sweep counts differ");
    for threads in [2, 8] {
        let par = trace(ExecBackend::Tape, threads);
        for (s, (a, b)) in tape.iter().zip(&par).enumerate() {
            assert_eq!(
                a, b,
                "{label}: {threads}-thread tape diverged from sequential at sweep {s}"
            );
        }
    }
}

#[test]
fn hgmm_tape_matches_tree_for_every_kernel_flavor() {
    let flavors: [(&str, Option<&str>); 7] = [
        ("gibbs", None), // heuristic: conjugate Gibbs everywhere
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
            assert_tape_matches_tree(
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
fn lda_tape_matches_tree() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    assert_tape_matches_tree(
        "lda/gibbs",
        models::LDA,
        None, // heuristic: Dirichlet–Categorical Gibbs + enumeration
        lda_args(topics, &corpus),
        vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        &["theta", "phi", "z"],
        15,
    );
}

#[test]
fn hlr_tape_matches_tree_for_gradient_kernels() {
    let d = 4;
    let data = workloads::logistic_data(60, d, 17);
    let flavors: [(&str, Option<&str>); 5] = [
        ("heuristic", None), // blocked HMC over the continuous parameters
        ("nuts", Some("NUTS sigma2 b theta")),
        ("mala", Some("MALA sigma2 b theta")),
        ("mh", Some("MH sigma2 b theta")),
        ("slice", Some("Slice sigma2 b theta")),
    ];
    for (label, sched) in flavors {
        assert_tape_matches_tree(
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

/// (label, source, schedule, args, data, recorded params).
type Case = (
    &'static str,
    &'static str,
    Option<&'static str>,
    Vec<HostValue>,
    Vec<(&'static str, HostValue)>,
    &'static [&'static str],
);

/// One small configuration per benchmark model, with a gradient kernel
/// on HGMM and HLR so step-size tuning feeds the digests.
fn digest_cases() -> Vec<Case> {
    let (k, d, n) = (2, 2, 40);
    let hgmm_data = workloads::hgmm_data(k, d, n, 91);
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let hlr_d = 4;
    let hlr_data = workloads::logistic_data(60, hlr_d, 17);
    vec![
        (
            "hgmm",
            models::HGMM,
            Some("Gibbs pi (*) HMC mu (*) Gibbs Sigma (*) Gibbs z"),
            hgmm_args(k, d, n),
            vec![("y", HostValue::Ragged(hgmm_data.points))],
            &["pi", "mu", "Sigma", "z"],
        ),
        (
            "lda",
            models::LDA,
            None,
            lda_args(topics, &corpus),
            vec![("w", HostValue::RaggedI(corpus.docs))],
            &["theta", "phi", "z"],
        ),
        (
            "hlr",
            models::HLR,
            Some("NUTS sigma2 b theta"),
            vec![
                HostValue::Real(1.0),
                HostValue::Int(60),
                HostValue::Int(hlr_d as i64),
                HostValue::Ragged(hlr_data.x),
            ],
            vec![("y", HostValue::VecF(hlr_data.y))],
            &["sigma2", "b", "theta"],
        ),
    ]
}

/// Binds `case` on one lane (timers on), runs 10 sweeps, and returns
/// the session.
fn run_case(case: &Case, exec: ExecBackend, threads: usize) -> Session {
    let (_, model, sched, args, data, _) = case;
    let mut s = bind(model, *sched, args.clone(), data.clone(), exec, threads, true);
    s.init().unwrap();
    for _ in 0..10 {
        s.sweep();
    }
    s
}

/// The deterministic half of a [`RunReport`] — schedule, sweep count,
/// per-kernel counters, work — must be byte-identical across execution
/// strategies and at 1/2/8 worker threads, for all three benchmark
/// models: the same contract the traces obey, extended to observability.
#[test]
fn run_reports_are_identical_across_strategies_and_threads() {
    for case in digest_cases() {
        let label = case.0;
        let reference = run_case(&case, ExecBackend::Tree, 1).report().digest();
        assert!(reference.contains("sweeps=10"), "{label}: digest missing sweeps");
        for threads in [1, 2, 8] {
            let got = run_case(&case, ExecBackend::Tape, threads).report().digest();
            assert_eq!(reference, got, "{label}: report digest diverged (tape, {threads} threads)");
        }
    }
}

/// The work-counter portion of a phase [`augur::Profile`] — schedule,
/// sweeps, total work, per-step work — must be byte-identical across
/// execution strategies and at 1/2/8 worker threads with timers on, for
/// all three benchmark models. Wall times and tape op-class counts are
/// deliberately outside the digest (the tree interpreter retires no tape
/// instructions), so this pins exactly the deterministic half.
#[test]
fn profile_digests_are_identical_across_strategies_and_threads() {
    for case in digest_cases() {
        let label = case.0;
        let reference = run_case(&case, ExecBackend::Tree, 1).profile().digest();
        assert!(reference.contains("sweeps=10"), "{label}: digest missing sweeps");
        assert!(reference.contains(":work="), "{label}: digest missing per-step work");
        for threads in [1, 2, 8] {
            let got = run_case(&case, ExecBackend::Tape, threads).profile().digest();
            assert_eq!(
                reference, got,
                "{label}: profile digest diverged (tape, {threads} threads)"
            );
        }
    }
}

/// Timers are an observability switch, not a behavioural one: with
/// `timers: false` (no kernel wall clocks, per-step work or op-class
/// profiling) the tape must reproduce the tree's draws and run report
/// bit-for-bit on all three benchmark models.
#[test]
fn timers_off_tape_matches_the_tree() {
    for (label, model, sched, args, data, record) in digest_cases() {
        let run = |exec, timers| {
            let mut s = bind(model, sched, args.clone(), data.clone(), exec, 1, timers);
            let trace = bits(&mut s, 10, record);
            (trace, s.report().digest())
        };
        let (tree, tree_report) = run(ExecBackend::Tree, true);
        let (tape, tape_report) = run(ExecBackend::Tape, false);
        for (s, (a, b)) in tree.iter().zip(&tape).enumerate() {
            assert_eq!(a, b, "{label}: timers-off tape diverged from tree at sweep {s}");
        }
        assert_eq!(tree.len(), tape.len(), "{label}: sweep counts differ");
        assert_eq!(tree_report, tape_report, "{label}: timers-off report digest");
    }
}

/// Every kernel unit of the three benchmark models must name the
/// conditional rewrite (or the fallback reason) that produced it — the
/// explain plan may never show a unit without a per-factor rewrite line.
#[test]
fn explain_names_a_rewrite_for_every_kernel_unit() {
    let (k, d, n) = (2, 2, 40);
    let hgmm_data = workloads::hgmm_data(k, d, n, 91);
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let hlr_d = 4;
    let hlr_data = workloads::logistic_data(60, hlr_d, 17);
    type Case<'a> = (&'a str, &'a str, Vec<HostValue>, Vec<(&'a str, HostValue)>);
    let cases: Vec<Case> = vec![
        (
            "hgmm",
            models::HGMM,
            hgmm_args(k, d, n),
            vec![("y", HostValue::Ragged(hgmm_data.points.clone()))],
        ),
        (
            "lda",
            models::LDA,
            lda_args(topics, &corpus),
            vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        ),
        (
            "hlr",
            models::HLR,
            vec![
                HostValue::Real(1.0),
                HostValue::Int(60),
                HostValue::Int(hlr_d as i64),
                HostValue::Ragged(hlr_data.x.clone()),
            ],
            vec![("y", HostValue::VecF(hlr_data.y.clone()))],
        ),
    ];
    for (label, model, args, data) in cases {
        let compiled = Model::compile(model).expect("model parses");
        let s = compiled
            .plan(args, data)
            .expect("model plans")
            .session(SessionConfig::default())
            .expect("session binds");
        let plan = s.explain();
        let density = plan
            .root
            .children
            .iter()
            .find(|c| c.name == "density")
            .unwrap_or_else(|| panic!("{label}: explain plan has no density span"));
        assert!(!density.children.is_empty(), "{label}: density span has no units");
        for unit in &density.children {
            assert!(
                !unit.attrs.is_empty(),
                "{label}: {} has no factor rewrite attributes",
                unit.name
            );
            for (factor, rewrite) in &unit.attrs {
                assert!(
                    !rewrite.is_empty(),
                    "{label}: {} {factor} has an empty rewrite description",
                    unit.name
                );
            }
        }
    }
}

/// The opcodes of the body of the one `Seq` loop of a disassembly: from
/// its `body ->` target (or the next instruction) to its `exit ->`.
fn seq_loop_body(disasm: &str) -> Vec<&str> {
    let lines: Vec<&str> = disasm.lines().skip(1).collect();
    let head = lines.iter().find(|l| l.contains("loop    Seq")).expect("a Seq loop");
    let pc = |l: &str| l.split(':').next().unwrap().trim().parse::<usize>().unwrap();
    let target = |key: &str| head.split(key).nth(1).map(|t| t.split(' ').next().unwrap());
    let body = target("body -> ").map_or(pc(head) + 1, |t| t.parse().unwrap());
    let exit: usize = target("exit -> ").unwrap().parse().unwrap();
    lines[body..exit].iter().map(|l| l.split_whitespace().nth(1).unwrap()).collect()
}

/// The optimizer fuses each component of a finite-sum weight loop into
/// one instruction: HGMM's and LDA's `z` updates run `loopidx`, the fused
/// log-weight store and `endloop` per component.
#[test]
fn weight_loops_run_one_fused_store_per_component() {
    let hgmm = workloads::hgmm_data(3, 2, 40, 91);
    let corpus = workloads::lda_corpus(3, 10, 60, 20, 5);
    let sessions = [
        (
            "u3_gibbs",
            bind(
                models::HGMM,
                None,
                hgmm_args(3, 2, 40),
                vec![("y", HostValue::Ragged(hgmm.points.clone()))],
                ExecBackend::Tape,
                1,
                false,
            ),
        ),
        (
            "u2_gibbs",
            bind(
                models::LDA,
                None,
                lda_args(3, &corpus),
                vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
                ExecBackend::Tape,
                1,
                false,
            ),
        ),
    ];
    for (proc, s) in &sessions {
        let disasm = s.disasm(proc);
        let body = seq_loop_body(&disasm);
        assert_eq!(body, ["loopidx", "llweight", "endloop"], "{proc}:\n{disasm}");
    }
}

/// The untimed explain-plan render for LDA is part of the crate's
/// observable behavior: it pins which §3.3 rewrite fired for every
/// factor, the planned schedule and per-unit strategies, the
/// size-inference allocation table, and the Blk decisions.
#[test]
fn golden_explain_plan_for_lda() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let model = Model::compile(models::LDA).unwrap();
    let s = model
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    let got = s.explain().render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lda_explain.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file exists; run with UPDATE_GOLDEN=1 to regenerate");
    assert_eq!(
        got.trim(),
        expected.trim(),
        "explain plan changed; if intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// The tape compiler's output for a fixed small model is part of the
/// crate's observable behavior (it is what `Session::disasm` shows users
/// and what the fusion rules produce); pin it.
#[test]
fn golden_disassembly_of_normal_normal_gibbs() {
    let model = Model::compile(
        "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }",
    )
    .unwrap();
    let s = model
        .plan(
            vec![HostValue::Int(4), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(vec![1.2, 0.8, 1.0, 1.4]))],
        )
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    let names = s.proc_names();
    let disasm: Vec<String> = names.iter().map(|n| s.disasm(n)).collect();
    let got = names
        .iter()
        .zip(&disasm)
        .map(|(n, d)| format!("== {n} ==\n{d}"))
        .collect::<Vec<_>>()
        .join("\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/normal_normal_tape.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file exists; run with UPDATE_GOLDEN=1 to regenerate");
    assert_eq!(
        got.trim(),
        expected.trim(),
        "tape disassembly changed; if intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}
