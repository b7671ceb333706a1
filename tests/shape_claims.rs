//! The paper's headline evaluation claims, asserted at test scale. These
//! are the regression guards for the §7 shapes: if a compiler or
//! cost-model change flips who wins, these fail before the benches run.

use augur::{DeviceConfig, McmcConfig, OptFlags, SessionConfig, Target};
use augurv2::workloads;

fn lda_virtual(topics: usize, docs: usize, target: Target) -> f64 {
    let corpus = workloads::lda_corpus(5, docs, 2000, 120, 4001);
    let model = augur::Model::compile(augurv2::models::LDA).unwrap();
    let mut s = model
        .plan(
            vec![
                augur::HostValue::Int(topics as i64),
                augur::HostValue::Int(corpus.docs.len() as i64),
                augur::HostValue::VecF(vec![0.5; topics]),
                augur::HostValue::VecF(vec![0.1; corpus.vocab]),
                augur::HostValue::VecI(corpus.lens.clone()),
            ],
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
    let args = || {
        vec![
            augur::HostValue::Int(k as i64),
            augur::HostValue::Int(n as i64),
            augur::HostValue::VecF(vec![1.0; k]),
            augur::HostValue::VecF(vec![0.0; d]),
            augur::HostValue::Mat(augur_math::Matrix::identity(d).scale(50.0)),
            augur::HostValue::Real((d + 2) as f64),
            augur::HostValue::Mat(augur_math::Matrix::identity(d)),
        ]
    };
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
    let args = || {
        vec![
            augur::HostValue::Int(k as i64),
            augur::HostValue::Int(n as i64),
            augur::HostValue::VecF(vec![1.0; k]),
            augur::HostValue::VecF(vec![0.0; d]),
            augur::HostValue::Mat(augur_math::Matrix::identity(d).scale(50.0)),
            augur::HostValue::Real((d + 2) as f64),
            augur::HostValue::Mat(augur_math::Matrix::identity(d)),
        ]
    };
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
