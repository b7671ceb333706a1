//! Service-path equivalence: a `sample` request through `augur-serve`
//! must be byte-identical to a direct `ChainPlan` run over the same
//! plan and base config — draws *and* deterministic report digests —
//! including when chains are forcibly migrated between shard workers
//! mid-run via the checkpoint protocol.

use std::collections::HashMap;

use augur::chains::{chain_seed, ChainPlan};
use augur::{HostValue, McmcConfig, Model, Plan, SessionConfig};
use augur_math::Matrix;
use augur_serve::{
    hermetic_config, ExplainRequest, ModelRegistry, ModelSpec, SampleRequest, ScoreRequest,
    Service, ServiceConfig,
};
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

/// One benchmark workload: source, arguments, data, recorded params,
/// and the base session config both paths share.
struct Workload {
    name: &'static str,
    source: &'static str,
    args: Vec<HostValue>,
    data: Vec<(String, HostValue)>,
    record: Vec<String>,
    base: SessionConfig,
}

fn hgmm_workload() -> Workload {
    let (k, d, n) = (2, 2, 40);
    let data = workloads::hgmm_data(k, d, n, 7);
    Workload {
        name: "hgmm",
        source: models::HGMM,
        args: hgmm_args(k, d, n),
        data: vec![("y".into(), HostValue::Ragged(data.points))],
        record: vec!["mu".into(), "pi".into()],
        base: hermetic_config(0xBEEF),
    }
}

fn lda_workload() -> Workload {
    let topics = 2;
    let corpus = workloads::lda_corpus(topics, 8, 12, 8, 11);
    Workload {
        name: "lda",
        source: models::LDA,
        args: lda_args(topics, &corpus),
        data: vec![("w".into(), HostValue::RaggedI(corpus.docs))],
        record: vec!["theta".into()],
        base: hermetic_config(0xBEEF),
    }
}

fn hlr_workload() -> Workload {
    let (n, d) = (30, 3);
    let data = workloads::logistic_data(n, d, 13);
    Workload {
        name: "hlr",
        source: models::HLR,
        args: vec![
            HostValue::Real(1.0),
            HostValue::Int(n as i64),
            HostValue::Int(d as i64),
            HostValue::Ragged(data.x),
        ],
        data: vec![("y".into(), HostValue::VecF(data.y))],
        record: vec!["theta".into(), "b".into()],
        base: SessionConfig {
            mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 8, ..McmcConfig::default() },
            ..hermetic_config(0xBEEF)
        },
    }
}

const CHAINS: usize = 3;
const SWEEPS: usize = 12;

type Draws = Vec<Vec<HashMap<String, Vec<f64>>>>;

/// The reference: per-chain draws and report digests from direct
/// sessions over the shared plan, seeded exactly as `ChainPlan` seeds.
fn direct_runs(plan: &Plan, w: &Workload) -> (Draws, Vec<String>) {
    let record: Vec<&str> = w.record.iter().map(String::as_str).collect();
    let mut draws = Vec::new();
    let mut digests = Vec::new();
    for c in 0..CHAINS {
        let mut cfg = w.base.clone();
        cfg.seed = chain_seed(w.base.seed, c);
        let mut s = plan.session(cfg).unwrap();
        s.init().unwrap();
        draws.push(s.sample(SWEEPS, &record).unwrap());
        digests.push(s.report().digest());
    }
    (draws, digests)
}

/// Runs one workload through both paths and cross-checks everything.
fn service_path_is_byte_identical(w: Workload) {
    let data_refs: Vec<(&str, HostValue)> =
        w.data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let record: Vec<&str> = w.record.iter().map(String::as_str).collect();

    let model = Model::compile(w.source).unwrap();
    let plan = model.plan(w.args.clone(), data_refs).unwrap();
    let (direct_draws, direct_digests) = direct_runs(&plan, &w);

    // Sanity: the manual fan-out reproduces ChainPlan itself.
    let chains = ChainPlan::new(&plan)
        .config(w.base.clone())
        .chains(CHAINS)
        .sweeps(SWEEPS)
        .record(&record)
        .run()
        .unwrap();
    assert_eq!(chains.draws, direct_draws, "{}: direct fan-out != ChainPlan", w.name);

    let registry = ModelRegistry::new();
    registry.register(w.name, ModelSpec::new(w.source)).unwrap();
    let service = Service::start(registry, ServiceConfig { workers: 3, ..Default::default() });
    let request = |migrate_every: Option<u64>| SampleRequest {
        model: w.name.into(),
        version: None,
        args: w.args.clone(),
        data: w.data.clone(),
        chains: CHAINS,
        sweeps: SWEEPS,
        record: w.record.clone(),
        config: Some(w.base.clone()),
        migrate_every,
        deadline: None,
    };

    // Unmigrated service path: each chain runs start-to-finish on one
    // worker.
    let still = service.sample(request(Some(0))).wait().unwrap().into_sample().unwrap();
    assert_eq!(still.migrations, 0);
    assert_eq!(still.draws, direct_draws, "{}: unmigrated service draws diverged", w.name);
    assert_eq!(still.report_digests, direct_digests, "{}: unmigrated digests diverged", w.name);

    // Forced mid-run migration: every chain checkpoints and hops shards
    // twice (12 sweeps in slices of 5/5/2).
    let moved = service.sample(request(Some(5))).wait().unwrap().into_sample().unwrap();
    assert_eq!(moved.migrations, (CHAINS * 2) as u64, "{}: expected 2 hops per chain", w.name);
    assert_eq!(moved.draws, direct_draws, "{}: migrated service draws diverged", w.name);
    assert_eq!(moved.report_digests, direct_digests, "{}: migrated digests diverged", w.name);
    assert_eq!(still.fingerprint, moved.fingerprint);

    // Both requests hit the same registered-model plan cache: one miss
    // (the shape is planned once), then hits.
    let stats = &service.metrics().models;
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].stats.misses, 1, "{}: shape should specialize once", w.name);
    assert!(stats[0].stats.hits >= 1, "{}: second request should hit", w.name);
    service.shutdown();
}

#[test]
fn hgmm_service_path_matches_direct_with_and_without_migration() {
    service_path_is_byte_identical(hgmm_workload());
}

#[test]
fn lda_service_path_matches_direct_with_and_without_migration() {
    service_path_is_byte_identical(lda_workload());
}

#[test]
fn hlr_service_path_matches_direct_with_and_without_migration() {
    service_path_is_byte_identical(hlr_workload());
}

#[test]
fn score_and_explain_requests_work() {
    let w = hgmm_workload();
    let registry = ModelRegistry::new();
    registry.register("hgmm", ModelSpec::new(w.source)).unwrap();
    let service = Service::start(registry, ServiceConfig::default());
    let score = |seed: u64| {
        let ticket = service.score(ScoreRequest {
            model: "hgmm".into(),
            version: None,
            args: w.args.clone(),
            data: w.data.clone(),
            config: Some(hermetic_config(seed)),
            deadline: None,
        });
        match ticket.wait().unwrap() {
            augur_serve::Response::Score(s) => s.log_joint,
            other => panic!("expected score output, got {other:?}"),
        }
    };
    let a = score(1);
    assert!(a.is_finite());
    assert_eq!(a.to_bits(), score(1).to_bits(), "scoring is deterministic per seed");

    let ticket = service.explain(ExplainRequest {
        model: "hgmm".into(),
        version: None,
        args: w.args.clone(),
        data: w.data.clone(),
        deadline: None,
    });
    match ticket.wait().unwrap() {
        augur_serve::Response::Explain(e) => {
            assert!(e.kernel.contains("Gibbs"), "kernel: {}", e.kernel);
            assert!(e.explain.contains("explain"), "explain tree: {}", e.explain);
        }
        other => panic!("expected explain output, got {other:?}"),
    }
    service.shutdown();
}

#[test]
fn failures_map_to_stable_response_codes() {
    let registry = ModelRegistry::new();
    registry.register("coin", ModelSpec::new(models::HLR)).unwrap();
    let service = Service::start(registry, ServiceConfig::default());

    let missing = service.sample(SampleRequest::new("nope")).wait().unwrap_err();
    assert_eq!(missing.code(), "unknown_model");

    // Wrong arguments for the registered model: a caller-side binding
    // failure, surfaced through the stable error-kind taxonomy.
    let bad = service
        .sample(SampleRequest { sweeps: 1, chains: 1, ..SampleRequest::new("coin") })
        .wait()
        .unwrap_err();
    assert_eq!(bad.code(), "binding");
    service.shutdown();
}

/// A malformed matrix binding is a caller fault: `sample` and `score`
/// both answer `binding` and count as failed, and no shard worker dies
/// on the way (the fault plan is cleared so an inherited `AUGUR_FAULT`
/// cannot kill one either).
#[test]
fn malformed_matrix_bindings_answer_binding() {
    let w = hgmm_workload();
    let registry = ModelRegistry::new();
    registry.register("hgmm", ModelSpec::new(w.source)).unwrap();
    let service = Service::start(registry, ServiceConfig { fault: None, ..Default::default() });
    let mut args = w.args.clone();
    args[4] = HostValue::Mat(Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]).unwrap());
    let sample = service
        .sample(SampleRequest {
            args: args.clone(),
            data: w.data.clone(),
            chains: 2,
            sweeps: 2,
            ..SampleRequest::new("hgmm")
        })
        .wait()
        .unwrap_err();
    let score = service
        .score(ScoreRequest {
            model: "hgmm".into(),
            version: None,
            args,
            data: w.data.clone(),
            config: None,
            deadline: None,
        })
        .wait()
        .unwrap_err();
    assert_eq!(sample.code(), "binding", "sample: {sample}");
    assert_eq!(score.code(), "binding", "score: {score}");
    let m = service.metrics();
    assert_eq!((m.failed, m.completed), (2, 0));
    assert_eq!(m.respawns, 0, "a bad binding must not kill a worker");
    service.shutdown();
}

#[test]
fn trace_v4_records_request_lifecycle() {
    let path = std::env::temp_dir().join(format!(
        "augur_serve_trace_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let w = hlr_workload();
    let registry = ModelRegistry::new();
    registry.register("hlr", ModelSpec::new(w.source)).unwrap();
    let service = Service::start(
        registry,
        ServiceConfig { workers: 2, trace_path: Some(path.clone()), ..Default::default() },
    );
    service
        .sample(SampleRequest {
            args: w.args.clone(),
            data: w.data.clone(),
            chains: 2,
            sweeps: 10,
            record: w.record.clone(),
            config: Some(w.base.clone()),
            migrate_every: Some(4),
            ..SampleRequest::new("hlr")
        })
        .wait()
        .unwrap();
    service.shutdown();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for event in ["submitted", "planned", "slice", "migrated", "completed"] {
        assert!(
            text.lines().any(|l| l.starts_with("{\"v\":4,") && l.contains(&format!("\"event\":\"{event}\""))),
            "missing v4 `{event}` record in:\n{text}"
        );
    }
    // Every record carries the request's trace id and its own span id.
    for line in text.lines() {
        assert!(line.contains("\"trace\":\""), "record without trace id: {line}");
        assert!(line.contains("\"span\":\""), "record without span id: {line}");
    }
}
