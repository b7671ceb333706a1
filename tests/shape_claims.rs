//! The paper's headline evaluation claims, asserted at test scale. These
//! are the regression guards for the §7 shapes: if a compiler or
//! cost-model change flips who wins, these fail before the benches run.

use std::time::Instant;

use augur::{
    DeviceConfig, ExecBackend, HostValue, McmcConfig, Model, OptFlags, Plan, Session,
    SessionConfig, Target,
};
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

fn lda_virtual(topics: usize, docs: usize, target: Target) -> f64 {
    let corpus = workloads::lda_corpus(5, docs, 2000, 120, 4001);
    let model = augur::Model::compile(augurv2::models::LDA).unwrap();
    let mut s = model
        .plan(
            lda_args(topics, &corpus),
            vec![("w", augur::HostValue::RaggedI(corpus.docs.clone()))],
        )
        .unwrap()
        .session(SessionConfig { target, ..Default::default() })
        .unwrap();
    s.init().unwrap();
    for _ in 0..3 {
        s.sweep();
    }
    s.virtual_secs()
}

/// Fig. 12's first-order claim: the GPU wins on LDA.
#[test]
fn lda_gpu_beats_cpu() {
    let cpu = lda_virtual(30, 120, Target::Cpu);
    let gpu = lda_virtual(30, 120, Target::Gpu(DeviceConfig::titan_black_like()));
    assert!(
        gpu < cpu / 2.0,
        "LDA GPU ({gpu:.4}s) should beat CPU ({cpu:.4}s) clearly"
    );
}

/// Fig. 12's second-order claim: more topics ⇒ larger GPU advantage.
#[test]
fn lda_gpu_advantage_grows_with_topics() {
    let ratio = |t: usize| {
        lda_virtual(t, 60, Target::Cpu)
            / lda_virtual(t, 60, Target::Gpu(DeviceConfig::titan_black_like()))
    };
    let (small, large) = (ratio(5), ratio(30));
    assert!(
        large > small,
        "speedup should grow with topics: {small:.2} (5) vs {large:.2} (25)"
    );
}

fn hlr_virtual(n: usize, target: Target, flags: OptFlags) -> f64 {
    let data = workloads::logistic_data(n, 10, 4002);
    let model = augur::Model::compile(augurv2::models::HLR).unwrap();
    // the optimization flags participate in the plan-cache key, so they
    // are a planning argument, not a session option
    let mut s = model
        .plan_opt(
            vec![
                augur::HostValue::Real(1.0),
                augur::HostValue::Int(n as i64),
                augur::HostValue::Int(10),
                augur::HostValue::Ragged(data.x.clone()),
            ],
            vec![("y", augur::HostValue::VecF(data.y.clone()))],
            flags,
        )
        .unwrap()
        .session(SessionConfig {
            target,
            mcmc: McmcConfig { step_size: 0.02, leapfrog_steps: 4, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
    s.init().unwrap();
    for _ in 0..3 {
        s.sweep();
    }
    s.virtual_secs()
}

/// §7.2's claim: the GPU loses on the small HLR model…
#[test]
fn small_hlr_gpu_loses_to_cpu() {
    let cpu = hlr_virtual(1000, Target::Cpu, OptFlags::default());
    let gpu = hlr_virtual(
        1000,
        Target::Gpu(DeviceConfig::titan_black_like()),
        OptFlags::default(),
    );
    assert!(
        gpu > 3.0 * cpu,
        "small-model GPU ({gpu:.4}s) should lose clearly to CPU ({cpu:.4}s)"
    );
}

/// …and wins by Adult scale.
#[test]
fn large_hlr_gpu_beats_cpu() {
    let cpu = hlr_virtual(60_000, Target::Cpu, OptFlags::default());
    let gpu = hlr_virtual(
        60_000,
        Target::Gpu(DeviceConfig::titan_black_like()),
        OptFlags::default(),
    );
    assert!(
        gpu < cpu,
        "Adult-scale GPU ({gpu:.4}s) should beat CPU ({cpu:.4}s)"
    );
}

/// §5.4's claim: summation-block conversion pays on the GPU.
#[test]
fn sumblk_conversion_pays() {
    let on = hlr_virtual(
        20_000,
        Target::Gpu(DeviceConfig::titan_black_like()),
        OptFlags::default(),
    );
    let off = hlr_virtual(
        20_000,
        Target::Gpu(DeviceConfig::titan_black_like()),
        OptFlags { sum_blk: false, ..Default::default() },
    );
    assert!(
        on < off / 1.5,
        "sumBlk on ({on:.4}s) should clearly beat off ({off:.4}s)"
    );
}

/// Fig. 11's claim: the compiled Gibbs sampler beats the graph baseline
/// in wall-clock on the same algorithm.
#[test]
fn compiled_gibbs_beats_graph_gibbs_wall_clock() {
    let (k, d, n) = (3, 2, 400);
    let data = workloads::hgmm_data(k, d, n, 4003);
    let args = || hgmm_args(k, d, n);
    let model = augur::Model::compile(augurv2::models::HGMM).unwrap();
    let mut s = model
        .plan(args(), vec![("y", augur::HostValue::Ragged(data.points.clone()))])
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    s.init().unwrap();
    let t0 = std::time::Instant::now();
    for _ in 0..40 {
        s.sweep();
    }
    let t_compiled = t0.elapsed();

    let mut j = augur_jags::JagsModel::build(
        augurv2::models::HGMM,
        args(),
        vec![("y", augur::HostValue::Ragged(data.points.clone()))],
        4004,
    )
    .unwrap();
    j.init();
    let t0 = std::time::Instant::now();
    for _ in 0..40 {
        j.sweep();
    }
    let t_graph = t0.elapsed();
    assert!(
        t_compiled < t_graph,
        "compiled {t_compiled:?} should beat graph {t_graph:?}"
    );
}

/// The Fig. 10 story in diagnostic terms: the compiled Gibbs sampler
/// yields more effective samples per second than the Jags-like graph
/// interpreter on the same model.
#[test]
fn compiled_gibbs_beats_graph_gibbs_on_ess_per_sec() {
    use augur::diag::ess_per_sec;
    let (k, d, n) = (3, 2, 600);
    let data = workloads::hgmm_data(k, d, n, 5);
    let args = || hgmm_args(k, d, n);
    let model = augur::Model::compile(augurv2::models::HGMM).unwrap();
    let mut s = model
        .plan(args(), vec![("y", augur::HostValue::Ragged(data.points.clone()))])
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    s.init().unwrap();
    let t0 = std::time::Instant::now();
    let mut trace_a = Vec::new();
    for _ in 0..200 {
        s.sweep();
        trace_a.push(s.param("mu").unwrap()[0]);
    }
    let rate_a = ess_per_sec(&trace_a, t0.elapsed().as_secs_f64());

    let mut j = augur_jags::JagsModel::build(
        augurv2::models::HGMM,
        args(),
        vec![("y", augur::HostValue::Ragged(data.points.clone()))],
        6,
    )
    .unwrap();
    j.init();
    let t0 = std::time::Instant::now();
    let mut trace_b = Vec::new();
    for _ in 0..200 {
        j.sweep();
        trace_b.push(j.values("mu")[0]);
    }
    let rate_b = ess_per_sec(&trace_b, t0.elapsed().as_secs_f64());
    assert!(
        rate_a > rate_b,
        "compiled {rate_a:.0} ess/s should beat graph {rate_b:.0} ess/s"
    );
}

/// LDA for the wall-clock claims: 20 topics over 40 documents of ~50
/// tokens, V = 2000.
fn lda_wall_plan() -> Plan {
    let corpus = workloads::lda_corpus(20, 40, 2000, 50, 1200);
    Model::compile(models::LDA)
        .unwrap()
        .plan(lda_args(20, &corpus), vec![("w", HostValue::RaggedI(corpus.docs))])
        .unwrap()
}

/// HLR for the wall-clock claims: N = 300, D = 8.
fn hlr_wall_plan() -> Plan {
    let (n, d) = (300, 8);
    let data = workloads::logistic_data(n, d, 11);
    Model::compile(models::HLR)
        .unwrap()
        .plan(
            vec![
                HostValue::Real(1.0),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x),
            ],
            vec![("y", HostValue::VecF(data.y))],
        )
        .unwrap()
}

/// An initialized single-chain session of `plan` on one lane.
fn lane(plan: &Plan, backend: ExecBackend, threads: usize, mcmc: &McmcConfig) -> Session {
    let mut s = plan
        .session(SessionConfig { backend, threads, mcmc: mcmc.clone(), ..Default::default() })
        .unwrap();
    s.init().unwrap();
    s
}

/// Best-of-`reps` seconds per sweep of each session. Every rep times the
/// sessions in turn, so a slow stretch of a shared host lands on all of
/// them.
fn best_sweep_secs(sessions: &mut [Session], sweeps: usize, reps: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; sessions.len()];
    for _ in 0..reps {
        for (s, b) in sessions.iter_mut().zip(&mut best) {
            let t0 = Instant::now();
            for _ in 0..sweeps {
                s.sweep();
            }
            *b = b.min(t0.elapsed().as_secs_f64() / sweeps as f64);
        }
    }
    best
}

/// The paper's compiled-vs-interpreted claim (§1, §7) on wall clock: the
/// emitted C, built by the host toolchain, sweeps at least 3× as fast
/// as the tree-walking interpreter on LDA and 1.2× on HLR. A host
/// without a C toolchain skips with a note; a Native session that
/// silently runs on the tape fails the backend check, which a floor
/// alone would miss (the tape clears 1.2× on HLR by itself).
#[test]
fn emitted_c_outruns_the_tree_walker() {
    let hlr_mcmc = McmcConfig { step_size: 0.01, leapfrog_steps: 10, ..Default::default() };
    let cases = [
        ("lda", lda_wall_plan(), McmcConfig::default(), 2, 3.0),
        ("hlr", hlr_wall_plan(), hlr_mcmc, 10, 1.2),
    ];
    for (name, plan, mcmc, sweeps, floor) in cases {
        if !plan.backends().iter().any(|b| b.backend == ExecBackend::Native && b.available) {
            eprintln!("{name}: no C toolchain, skipping the native floor");
            continue;
        }
        let mut lanes =
            [ExecBackend::Tree, ExecBackend::Native].map(|backend| lane(&plan, backend, 1, &mcmc));
        let fallback = lanes[1].backend_fallback();
        assert_eq!(lanes[1].backend(), ExecBackend::Native, "{name}: {fallback:?}");
        let secs = best_sweep_secs(&mut lanes, sweeps, 5);
        let speedup = secs[0] / secs[1];
        assert!(
            speedup >= floor,
            "{name}: emitted C should be >= {floor}x the tree interpreter, got {speedup:.2}x"
        );
    }
}

/// The multicore claim (§7.2): at 8 workers the tape sweeps LDA (30
/// topics over 80 documents of ~200 tokens) at least twice as fast as
/// sequentially. Only a host with at least 8 cores can show it;
/// elsewhere this skips with a note, and perfbench's per-layer
/// `par.speedup` measures the parallel lanes on every host.
#[test]
fn parallel_tape_scales_on_lda() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores < 8 {
        eprintln!("{cores} cores: skipping the 8-worker LDA scaling claim");
        return;
    }
    let corpus = workloads::lda_corpus(20, 80, 2000, 200, 1200);
    let plan = Model::compile(models::LDA)
        .unwrap()
        .plan(lda_args(30, &corpus), vec![("w", HostValue::RaggedI(corpus.docs))])
        .unwrap();
    let mcmc = McmcConfig::default();
    let mut lanes = [1, 8].map(|threads| lane(&plan, ExecBackend::Tape, threads, &mcmc));
    let secs = best_sweep_secs(&mut lanes, 2, 3);
    let speedup = secs[0] / secs[1];
    assert!(speedup >= 2.0, "lda: expected >= 2x at 8 workers on {cores} cores, got {speedup:.2}x");
}
