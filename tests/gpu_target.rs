//! The simulated-GPU target on the paper's three benchmark models.
//!
//! A GPU session runs Blk IL on the reference tree-walker whatever
//! `ExecBackend` was requested, so requesting Tree, Tape or Native must
//! give one run: the same draws, report and profile digests, virtual
//! time and device counters, with `backend()` reporting `Tree`. The GPU
//! draws must also equal the CPU tape engine's draws, except where the
//! Blk optimizer's `sumBlk` conversion reassociates a sum (HLR with
//! `sum_blk` on). Digests are not compared across targets: the Blk
//! lowering does different work from the CPU procedures.

use augur::prelude::*;
use augur::DeviceConfig;
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

const SWEEPS: usize = 3;

fn gpu() -> Target {
    Target::Gpu(DeviceConfig::titan_black_like())
}

fn hgmm_plan() -> Plan {
    let (k, d, n) = (3, 2, 120);
    let data = workloads::hgmm_data(k, d, n, 61);
    Model::compile(models::HGMM)
        .unwrap()
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data.points))])
        .unwrap()
}

fn lda_plan() -> Plan {
    let topics = 4;
    let corpus = workloads::lda_corpus(topics, 16, 60, 12, 62);
    Model::compile(models::LDA)
        .unwrap()
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs))])
        .unwrap()
}

fn hlr_plan(sum_blk: bool) -> Plan {
    let (n, d) = (200, 5);
    let data = workloads::logistic_data(n, d, 63);
    Model::compile(models::HLR)
        .unwrap()
        .plan_opt(
            vec![
                HostValue::Real(1.0),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x),
            ],
            vec![("y", HostValue::VecF(data.y))],
            OptFlags { sum_blk, ..Default::default() },
        )
        .unwrap()
}

/// One seeded run: the session plus its draws as raw bits
/// (`draws[sweep]` concatenates every parameter in name order).
fn run(plan: &Plan, target: Target, backend: ExecBackend) -> (Session, Vec<Vec<u64>>) {
    let mut s = plan
        .session(SessionConfig {
            target,
            backend,
            seed: 0x69B,
            mcmc: McmcConfig { step_size: 0.02, leapfrog_steps: 4, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
    s.init().unwrap();
    let mut names: Vec<String> = s.param_names().to_vec();
    names.sort();
    let record: Vec<&str> = names.iter().map(String::as_str).collect();
    let draws = s
        .sample(SWEEPS, &record)
        .unwrap()
        .iter()
        .map(|snap| record.iter().flat_map(|p| snap[*p].iter().map(|x| x.to_bits())).collect())
        .collect();
    (s, draws)
}

/// (a): every requested backend gives the same GPU run, reported as
/// `Tree` (with the reason recorded when another backend was asked
/// for). Returns that run's draws.
fn assert_backends_agree_on_gpu(label: &str, plan: &Plan) -> Vec<Vec<u64>> {
    let (tree, tree_draws) = run(plan, gpu(), ExecBackend::Tree);
    assert_eq!((tree.backend(), tree.backend_fallback()), (ExecBackend::Tree, None), "{label}");
    assert!(tree.device_counters().launches > 0, "{label}: no kernels launched");
    for requested in [ExecBackend::Tape, ExecBackend::Native] {
        let (s, draws) = run(plan, gpu(), requested);
        let what = format!("{label}, {requested:?} requested");
        assert_eq!(s.backend(), ExecBackend::Tree, "{what}");
        assert_eq!(s.profile().strategy, "Tree", "{what}");
        let reason = s.backend_fallback().expect("a Tape/Native request records why");
        assert!(reason.contains(&format!("{requested:?}")), "{what}: {reason}");
        assert_eq!(draws, tree_draws, "{what}: draws differ");
        assert_eq!(s.report().digest(), tree.report().digest(), "{what}");
        assert_eq!(s.profile().digest(), tree.profile().digest(), "{what}");
        assert_eq!(s.virtual_secs().to_bits(), tree.virtual_secs().to_bits(), "{what}");
        assert_eq!(s.device_counters(), tree.device_counters(), "{what}");
    }
    tree_draws
}

/// (b): the GPU run draws exactly what the CPU tape engine draws.
fn assert_gpu_matches_cpu_tape(label: &str, plan: &Plan, gpu_draws: &[Vec<u64>]) {
    let (_, cpu_draws) = run(plan, Target::Cpu, ExecBackend::Tape);
    assert_eq!(cpu_draws.len(), gpu_draws.len(), "{label}");
    for (sweep, (c, g)) in cpu_draws.iter().zip(gpu_draws).enumerate() {
        assert_eq!(c, g, "{label}: GPU diverged from the CPU tape at sweep {sweep}");
    }
}

#[test]
fn hgmm_gpu_runs_one_engine_and_matches_cpu_tape() {
    let plan = hgmm_plan();
    let draws = assert_backends_agree_on_gpu("hgmm", &plan);
    assert_gpu_matches_cpu_tape("hgmm", &plan, &draws);
}

#[test]
fn lda_gpu_runs_one_engine_and_matches_cpu_tape() {
    let plan = lda_plan();
    let draws = assert_backends_agree_on_gpu("lda", &plan);
    assert_gpu_matches_cpu_tape("lda", &plan, &draws);
}

#[test]
fn hlr_gpu_runs_one_engine_and_matches_cpu_tape_without_sum_blk() {
    let plan = hlr_plan(false);
    let draws = assert_backends_agree_on_gpu("hlr, sum_blk off", &plan);
    assert_gpu_matches_cpu_tape("hlr, sum_blk off", &plan, &draws);
}

#[test]
fn hlr_gpu_runs_one_engine_with_sum_blk() {
    // `sumBlk` reassociates HLR's likelihood sum, so the draws are not
    // compared with the CPU's.
    let plan = hlr_plan(true);
    assert!(plan.opt_report().converted_to_sum > 0, "sumBlk conversion did not fire");
    assert_backends_agree_on_gpu("hlr, sum_blk on", &plan);
}
