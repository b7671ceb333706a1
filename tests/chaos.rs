//! Chaos drills: the service keeps its determinism contract under
//! injected partial failure and overload.
//!
//! Every test here drives `augur-serve` with a [`FaultPlan`] set
//! explicitly on the `ServiceConfig` (never via the environment, so the
//! suite is stable under the CI chaos matrix) and asserts the
//! survivability contract from `DESIGN.md` §5.14:
//!
//! * no ticket ever hangs — dead workers, shed load, and timeouts all
//!   resolve with typed errors;
//! * a killed shard worker costs at most one slice of recomputation and
//!   never changes the draws: results under `panic@shard` are
//!   byte-identical to a clean run;
//! * overload is bounded and observable (prompt `overloaded` errors that
//!   reconcile with the `shed` counter and v4 trace events);
//! * the native circuit breaker demotes a model Native→Tape without
//!   failing a single request, and reports why.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use augur::chains::chain_seed;
use augur::{
    ExecBackend, FaultPlan, HostValue, McmcConfig, Model, Plan, SessionConfig,
    NATIVE_BREAKER_THRESHOLD,
};
use augur_serve::{
    hermetic_config, ExplainRequest, MetricsSnapshot, ModelRegistry, ModelSpec, Response,
    SampleRequest, ScoreRequest, ServeError, Service, ServiceConfig, Ticket,
};
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

const BETA_BERN: &str = "(N) => {
    param p ~ Beta(1.0, 1.0) ;
    data y[n] ~ Bernoulli(p) for n <- 0 until N ;
}";

fn bb_args() -> Vec<HostValue> {
    vec![HostValue::Int(4)]
}

fn bb_y() -> HostValue {
    HostValue::VecF(vec![1.0, 0.0, 1.0, 1.0])
}

fn bb_data() -> Vec<(String, HostValue)> {
    vec![("y".into(), bb_y())]
}

/// A service config with an explicit fault plan (`""` = no faults),
/// immune to whatever `AUGUR_FAULT` the test process inherited.
fn chaos_config(workers: usize, fault: &str) -> ServiceConfig {
    ServiceConfig {
        workers,
        fault: (!fault.is_empty()).then(|| FaultPlan::parse(fault).unwrap()),
        ..ServiceConfig::default()
    }
}

/// Blocks on a ticket with a generous cap: a supervision bug that
/// strands the ticket fails the test with "hung" instead of wedging the
/// whole suite.
fn wait_bounded(t: Ticket, what: &str) -> Result<Response, ServeError> {
    let t0 = Instant::now();
    loop {
        if let Some(r) = t.try_wait() {
            return r;
        }
        assert!(t0.elapsed() < Duration::from_secs(120), "{what}: ticket hung");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Regression for the pre-supervision bug: a shard worker dying with a
/// task in hand dropped the reply sender without sending, so the ticket
/// hung forever. Under supervision every ticket resolves — successfully,
/// since recovered tasks rerun on a healthy shard.
#[test]
fn worker_kill_never_strands_a_ticket() {
    let registry = ModelRegistry::new();
    registry.register("bb", ModelSpec::new(BETA_BERN)).unwrap();
    let service = Service::start(registry, chaos_config(2, "panic@shard:0"));
    let mut tickets = Vec::new();
    for i in 0..6u64 {
        tickets.push(service.sample(SampleRequest {
            args: bb_args(),
            data: bb_data(),
            chains: 2,
            sweeps: 6,
            record: vec!["p".into()],
            config: Some(hermetic_config(0xC0 + i)),
            migrate_every: Some(2),
            ..SampleRequest::new("bb")
        }));
    }
    tickets.push(service.score(ScoreRequest {
        model: "bb".into(),
        version: None,
        args: bb_args(),
        data: bb_data(),
        config: Some(hermetic_config(1)),
        deadline: None,
    }));
    tickets.push(service.explain(ExplainRequest {
        model: "bb".into(),
        version: None,
        args: bb_args(),
        data: bb_data(),
        deadline: None,
    }));
    for (i, t) in tickets.into_iter().enumerate() {
        wait_bounded(t, &format!("request {i}"))
            .unwrap_or_else(|e| panic!("request {i} failed under supervision: {e}"));
    }
    let m = service.metrics();
    assert!(m.respawns > 0, "the drill must actually kill workers");
    assert!(m.retries > 0, "recovered tasks are requeued as retries");
    assert_eq!(m.completed, m.submitted, "every request completes");
    assert_eq!(m.failed, 0);
    service.shutdown();
}

/// One benchmark workload (mirrors `tests/serve.rs`).
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

/// Reference draws and digests from direct, unfaulted sessions, seeded
/// exactly as the service seeds its chains.
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

/// The chaos differential: with `panic@shard:0` killing a worker on
/// every first task delivery, a migrated multi-chain request still
/// produces draws and report digests byte-identical to an unfaulted
/// direct run — a kill costs recomputing one slice, never correctness.
fn chaos_differential(w: Workload) {
    let data_refs: Vec<(&str, HostValue)> =
        w.data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let model = Model::compile(w.source).unwrap();
    let plan = model.plan(w.args.clone(), data_refs).unwrap();
    let (direct_draws, direct_digests) = direct_runs(&plan, &w);

    let registry = ModelRegistry::new();
    registry.register(w.name, ModelSpec::new(w.source)).unwrap();
    let service = Service::start(registry, chaos_config(3, "panic@shard:0"));
    let out = wait_bounded(
        service.sample(SampleRequest {
            model: w.name.into(),
            version: None,
            args: w.args.clone(),
            data: w.data.clone(),
            chains: CHAINS,
            sweeps: SWEEPS,
            record: w.record.clone(),
            config: Some(w.base.clone()),
            migrate_every: Some(5),
            deadline: None,
        }),
        w.name,
    )
    .unwrap_or_else(|e| panic!("{}: request failed under shard kills: {e}", w.name))
    .into_sample()
    .unwrap();

    assert_eq!(out.draws, direct_draws, "{}: draws diverged under shard kills", w.name);
    assert_eq!(
        out.report_digests, direct_digests,
        "{}: digests diverged under shard kills",
        w.name
    );
    let m = service.metrics();
    assert!(m.respawns > 0, "{}: the drill must kill at least one worker", w.name);
    assert_eq!(m.failed, 0, "{}: recovery must not surface as failure", w.name);
    service.shutdown();
}

#[test]
fn hgmm_draws_survive_shard_kills_byte_identically() {
    chaos_differential(hgmm_workload());
}

#[test]
fn lda_draws_survive_shard_kills_byte_identically() {
    chaos_differential(lda_workload());
}

#[test]
fn hlr_draws_survive_shard_kills_byte_identically() {
    chaos_differential(hlr_workload());
}

/// Overload is bounded and observable: with one slow shard and a queue
/// bound of Q, a burst of 4Q requests sheds the overflow promptly with
/// typed `overloaded` errors, and the per-ticket errors, the `shed`
/// counter, and the v4 `shed` trace events all agree.
#[test]
fn overload_sheds_promptly_and_counters_reconcile() {
    let trace = std::env::temp_dir().join(format!(
        "augur_chaos_shed_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let registry = ModelRegistry::new();
    registry.register("bb", ModelSpec::new(BETA_BERN)).unwrap();
    let bound = 2usize;
    let service = Service::start(
        registry,
        ServiceConfig {
            queue_bound: bound,
            trace_path: Some(trace.clone()),
            ..chaos_config(1, "slow@shard:0:ms=40")
        },
    );
    let burst = 4 * bound;
    let t0 = Instant::now();
    let tickets: Vec<Ticket> = (0..burst)
        .map(|_| {
            service.score(ScoreRequest {
                model: "bb".into(),
                version: None,
                args: bb_args(),
                data: bb_data(),
                config: Some(hermetic_config(7)),
                deadline: None,
            })
        })
        .collect();
    // Shed tickets resolve at submit time; the burst itself never blocks
    // behind the slow worker.
    assert!(t0.elapsed() < Duration::from_secs(2), "submission blocked behind the queue");
    let mut ok = 0u64;
    let mut shed = 0u64;
    for (i, t) in tickets.into_iter().enumerate() {
        match wait_bounded(t, &format!("burst request {i}")) {
            Ok(_) => ok += 1,
            Err(ServeError::Overloaded { bound: b }) => {
                assert_eq!(b, bound);
                shed += 1;
            }
            Err(e) => panic!("burst request {i}: unexpected failure: {e}"),
        }
    }
    let m = service.metrics();
    service.shutdown();
    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_file(&trace).ok();

    assert!(shed >= 1, "a burst of {burst} over bound {bound} must shed");
    assert_eq!(ok + shed, burst as u64, "every ticket resolves");
    assert_eq!(m.shed, shed, "metrics reconcile with per-ticket errors");
    assert_eq!(m.completed, ok);
    assert_eq!(m.failed, 0, "shed is admission control, not a processing failure");
    let shed_events = text
        .lines()
        .filter(|l| l.contains("\"event\":\"shed\"") && l.contains("\"code\":\"overloaded\""))
        .count() as u64;
    assert_eq!(shed_events, m.shed, "v4 trace events reconcile with the shed counter");
}

/// Deadlines resolve late requests with the typed `timeout` code — at
/// dequeue (the score, whose deadline passed while the slow shard
/// stalled) and between migration slices (the sample, whose per-slice
/// delays are guaranteed to overrun its budget).
#[test]
fn deadlines_time_out_with_a_typed_code() {
    let registry = ModelRegistry::new();
    registry.register("bb", ModelSpec::new(BETA_BERN)).unwrap();
    let service =
        Service::start(registry, chaos_config(2, "slow@shard:0:ms=50;slow@shard:1:ms=50"));

    let e = wait_bounded(
        service.score(ScoreRequest {
            model: "bb".into(),
            version: None,
            args: bb_args(),
            data: bb_data(),
            config: Some(hermetic_config(7)),
            deadline: Some(Duration::from_millis(1)),
        }),
        "deadlined score",
    )
    .unwrap_err();
    assert_eq!(e.code(), "timeout");
    assert!(matches!(e, ServeError::Timeout { .. }), "typed variant: {e:?}");
    assert!(format!("{e}").contains("deadline"), "{e}");

    // 3 slices x 50 ms of injected delay can never fit in 130 ms, but
    // the first dequeue (~50 ms) normally can: the timeout fires on the
    // inter-slice check.
    let e = wait_bounded(
        service.sample(SampleRequest {
            args: bb_args(),
            data: bb_data(),
            chains: 1,
            sweeps: 6,
            record: vec!["p".into()],
            config: Some(hermetic_config(3)),
            migrate_every: Some(2),
            deadline: Some(Duration::from_millis(130)),
            ..SampleRequest::new("bb")
        }),
        "deadlined sample",
    )
    .unwrap_err();
    assert_eq!(e.code(), "timeout");

    let m = service.metrics();
    assert!(m.timeouts >= 2, "both requests time out (got {})", m.timeouts);
    assert_eq!(m.failed, m.timeouts, "the only failures are the timeouts");
    service.shutdown();
}

/// The soak: a mixed request stream under simultaneous shard kills and
/// shard slowdowns. Nothing hangs, nothing strands, and every completed
/// result is digest-identical to the same stream against a clean
/// service.
#[test]
fn chaos_soak_preserves_results_and_strands_nothing() {
    let run = |fault: &str| -> (Vec<Response>, MetricsSnapshot) {
        let registry = ModelRegistry::new();
        registry.register("bb", ModelSpec::new(BETA_BERN)).unwrap();
        let service = Service::start(registry, chaos_config(3, fault));
        let mut tickets = Vec::new();
        for i in 0..9u64 {
            tickets.push(service.sample(SampleRequest {
                args: bb_args(),
                data: bb_data(),
                chains: 2,
                sweeps: 8,
                record: vec!["p".into()],
                config: Some(hermetic_config(0x50AC + i)),
                migrate_every: Some(3),
                ..SampleRequest::new("bb")
            }));
            if i % 3 == 1 {
                tickets.push(service.score(ScoreRequest {
                    model: "bb".into(),
                    version: None,
                    args: bb_args(),
                    data: bb_data(),
                    config: Some(hermetic_config(i)),
                    deadline: None,
                }));
            }
            if i % 3 == 2 {
                tickets.push(service.explain(ExplainRequest {
                    model: "bb".into(),
                    version: None,
                    args: bb_args(),
                    data: bb_data(),
                    deadline: None,
                }));
            }
        }
        let results: Vec<Response> = tickets
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                wait_bounded(t, &format!("soak request {i}"))
                    .unwrap_or_else(|e| panic!("soak request {i} failed: {e}"))
            })
            .collect();
        let m = service.metrics();
        service.shutdown();
        (results, m)
    };

    let (clean, _) = run("");
    let (chaotic, m) = run("panic@shard:0;slow@shard:1:ms=2");

    assert!(m.respawns > 0, "the soak must kill workers");
    assert_eq!(m.completed, m.submitted, "zero hung tickets, zero stranded chains");
    assert_eq!(m.failed + m.shed, 0);
    assert_eq!(m.queue_depth, 0, "no task left behind");
    assert_eq!(clean.len(), chaotic.len());
    for (i, (a, b)) in clean.iter().zip(&chaotic).enumerate() {
        match (a, b) {
            (Response::Sample(x), Response::Sample(y)) => {
                assert_eq!(x.draws, y.draws, "soak request {i}: draws diverged");
                assert_eq!(x.report_digests, y.report_digests, "soak request {i}: digests");
            }
            (Response::Score(x), Response::Score(y)) => {
                assert_eq!(x.log_joint.to_bits(), y.log_joint.to_bits(), "soak request {i}");
            }
            (Response::Explain(x), Response::Explain(y)) => {
                // The explain tree ends with live plan-cache counters,
                // which depend on scheduling order; everything above
                // that span is the stable compiler output.
                let stable = |e: &str| e.split("\n  plan-cache").next().unwrap().to_owned();
                assert_eq!(stable(&x.explain), stable(&y.explain), "soak request {i}");
                assert_eq!(x.kernel, y.kernel, "soak request {i}");
            }
            _ => panic!("soak request {i}: response kinds diverged"),
        }
    }
}

/// Blocking HTTP GET against the service's telemetry exporter.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf
}

/// Reads one unlabeled counter series out of a text exposition.
fn scraped(expo: &str, name: &str) -> u64 {
    let line = expo
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap_or_else(|| panic!("`{name}` missing from exposition:\n{expo}"));
    line.split_whitespace().nth(1).unwrap().parse::<f64>().unwrap() as u64
}

/// Counts v4 trace records for one event (optionally one code).
fn events(text: &str, event: &str, code: Option<&str>) -> u64 {
    text.lines()
        .filter(|l| l.contains(&format!("\"event\":\"{event}\"")))
        .filter(|l| code.is_none_or(|c| l.contains(&format!("\"code\":\"{c}\""))))
        .count() as u64
}

/// The observability tentpole's reconciliation contract: for a chaos
/// run mixing shard kills, native-compile failures, and deadline
/// timeouts, the three surfaces an operator can read — the `/metrics`
/// scrape, the legacy [`MetricsSnapshot`], and the v4 JSONL trace —
/// all report the same counts. The counters are recorded once,
/// incrementally, at the point of the event; nothing is aggregated
/// after the fact, so there is no second bookkeeping path to drift.
#[test]
fn telemetry_scrape_snapshot_and_trace_reconcile_under_chaos() {
    let trace = std::env::temp_dir().join(format!(
        "augur_chaos_telemetry_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let registry = ModelRegistry::new();
    registry.register("bb", ModelSpec::new(BETA_BERN)).unwrap();
    registry.register("bbn", ModelSpec::new(BETA_BERN).backend(ExecBackend::Native)).unwrap();
    let service = Service::start(
        registry,
        ServiceConfig {
            telemetry_addr: Some("127.0.0.1:0".into()),
            trace_path: Some(trace.clone()),
            ..chaos_config(2, "panic@shard:0;compile@native")
        },
    );
    let addr = service.telemetry_addr().expect("exporter bound");

    let mut tickets = Vec::new();
    // Migrating sample requests across the killer shard: migrations,
    // retries, and respawns.
    for i in 0..4u64 {
        tickets.push(service.sample(SampleRequest {
            args: bb_args(),
            data: bb_data(),
            chains: 2,
            sweeps: 6,
            record: vec!["p".into()],
            config: Some(hermetic_config(0xD0 + i)),
            migrate_every: Some(2),
            ..SampleRequest::new("bb")
        }));
    }
    // Native-backed scores under compile@native: breaker demotion.
    for _ in 0..(NATIVE_BREAKER_THRESHOLD + 1) {
        tickets.push(service.score(ScoreRequest {
            model: "bbn".into(),
            version: None,
            args: bb_args(),
            data: bb_data(),
            config: None,
            deadline: None,
        }));
    }
    // An unmeetable deadline: a typed timeout failure.
    tickets.push(service.score(ScoreRequest {
        model: "bb".into(),
        version: None,
        args: bb_args(),
        data: bb_data(),
        config: Some(hermetic_config(9)),
        deadline: Some(Duration::from_nanos(1)),
    }));
    let mut ok = 0u64;
    let mut timeouts = 0u64;
    for (i, t) in tickets.into_iter().enumerate() {
        match wait_bounded(t, &format!("telemetry chaos request {i}")) {
            Ok(_) => ok += 1,
            Err(ServeError::Timeout { .. }) => timeouts += 1,
            Err(e) => panic!("telemetry chaos request {i}: unexpected failure: {e}"),
        }
    }
    assert!(ok > 0 && timeouts == 1, "ok={ok} timeouts={timeouts}");

    // Tickets resolve before a dying worker's guard finishes its
    // bookkeeping; settle until the counters stop moving.
    let m = {
        let t0 = Instant::now();
        let mut prev = service.metrics();
        loop {
            std::thread::sleep(Duration::from_millis(10));
            let cur = service.metrics();
            if (cur.retries, cur.respawns, cur.migrations, cur.completed, cur.failed)
                == (prev.retries, prev.respawns, prev.migrations, prev.completed, prev.failed)
            {
                break cur;
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "counters never settled");
            prev = cur;
        }
    };
    assert!(m.respawns > 0, "the drill must kill workers");
    assert!(m.migrations > 0, "the samples must migrate");
    assert_eq!(m.demotions, 1, "the native breaker must trip once");
    assert_eq!(m.timeouts, 1);

    // Surface 1 vs surface 2: the scrape renders the same instruments
    // the snapshot reads.
    let resp = http_get(addr, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let expo = resp.split("\r\n\r\n").nth(1).unwrap();
    for (name, want) in [
        ("augur_requests_submitted_total", m.submitted),
        ("augur_requests_completed_total", m.completed),
        ("augur_requests_failed_total", m.failed),
        ("augur_requests_shed_total", m.shed),
        ("augur_request_timeouts_total", m.timeouts),
        ("augur_retries_total", m.retries),
        ("augur_respawns_total", m.respawns),
        ("augur_migrations_total", m.migrations),
        ("augur_demotions_total", m.demotions),
        ("augur_request_latency_seconds_count", m.latency.count),
    ] {
        assert_eq!(scraped(expo, name), want, "scrape vs snapshot: {name}");
    }
    assert_eq!(m.latency.count, m.completed + m.failed);
    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "respawned service is healthy: {health}");

    service.shutdown();
    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_file(&trace).ok();

    // Surface 3: one v4 record was written per counted event.
    assert_eq!(events(&text, "submitted", None) + events(&text, "shed", None), m.submitted);
    assert_eq!(events(&text, "completed", None), m.completed);
    assert_eq!(events(&text, "failed", None), m.failed);
    assert_eq!(events(&text, "failed", Some("timeout")), m.timeouts);
    assert_eq!(events(&text, "shed", None), m.shed);
    assert_eq!(events(&text, "retried", None), m.retries);
    assert_eq!(events(&text, "respawned", None), m.respawns);
    assert_eq!(events(&text, "migrated", None), m.migrations);
    assert_eq!(events(&text, "demoted", None), m.demotions);
}

/// The transient-retry path of a failing slice: an injected panic in
/// worker chunk 0 of HGMM's parallel `z` loop (40 iterations over two
/// pool threads) fails every slice with a transient `fault`, so each
/// chain is requeued `max_retries` times and then answered with the
/// error, and no shard worker dies. Without a retry budget nothing is
/// requeued, and a caller fault (an unknown `record` name, a `binding`
/// error) is answered before any chain runs, so nothing is retried.
#[test]
fn failing_slices_retry_transient_errors_up_to_the_budget() {
    let w = hgmm_workload();
    let run = |max_retries: u32, record: &str, fault: Option<&str>| {
        let trace = std::env::temp_dir().join(format!(
            "augur_chaos_retry_{}_{:?}_{max_retries}_{record}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let registry = ModelRegistry::new();
        registry.register("hgmm", ModelSpec::new(w.source)).unwrap();
        let service = Service::start(
            registry,
            ServiceConfig {
                workers: 2,
                max_retries,
                trace_path: Some(trace.clone()),
                fault: None,
                ..ServiceConfig::default()
            },
        );
        let config = SessionConfig {
            threads: 2,
            fault: fault.map(|f| FaultPlan::parse(f).unwrap()),
            ..w.base.clone()
        };
        let err = wait_bounded(
            service.sample(SampleRequest {
                args: w.args.clone(),
                data: w.data.clone(),
                chains: CHAINS,
                sweeps: 4,
                record: vec![record.to_owned()],
                config: Some(config),
                ..SampleRequest::new("hgmm")
            }),
            "failing sample",
        )
        .expect_err("every slice fails");
        let m = service.metrics();
        service.shutdown();
        let text = std::fs::read_to_string(&trace).unwrap();
        std::fs::remove_file(&trace).ok();
        (err, m, text)
    };

    let panic = Some("panic@worker:0");
    let (err, m, text) = run(3, "mu", panic);
    assert_eq!(err.code(), "fault", "{err}");
    assert_eq!(m.retries, CHAINS as u64 * 3);
    assert_eq!(events(&text, "retried", Some("fault")), m.retries);
    assert_eq!(events(&text, "respawned", None), 0);
    assert_eq!((m.respawns, m.failed), (0, 1));

    let (err, m, _) = run(0, "mu", panic);
    assert_eq!(err.code(), "fault", "{err}");
    assert_eq!(m.retries, 0);

    // An unknown `record` name answers `binding` before any chain binds
    // a session, so the init-time worker panic never fires: no retry, no
    // slice.
    for fault in [None, panic] {
        let (err, m, text) = run(3, "nope", fault);
        assert_eq!(err.code(), "binding", "{fault:?}: {err}");
        assert_eq!(m.retries, 0, "{fault:?}");
        assert_eq!(events(&text, "retried", None), 0, "{fault:?}");
        assert_eq!(events(&text, "slice", None), 0, "{fault:?}");
    }
}

/// `/healthz` names each model with an open breaker as a JSON string, so
/// a registered name holding a quote and a backslash keeps the body
/// valid JSON.
#[test]
fn healthz_escapes_demoted_model_names() {
    let name = "q\"uo\\te";
    let registry = ModelRegistry::new();
    registry.register(name, ModelSpec::new(BETA_BERN).backend(ExecBackend::Native)).unwrap();
    let service = Service::start(
        registry,
        ServiceConfig {
            telemetry_addr: Some("127.0.0.1:0".into()),
            ..chaos_config(1, "compile@native")
        },
    );
    for i in 0..NATIVE_BREAKER_THRESHOLD {
        let score = ScoreRequest {
            model: name.into(),
            version: None,
            args: bb_args(),
            data: bb_data(),
            config: None,
            deadline: None,
        };
        wait_bounded(service.score(score), &format!("score {i}")).unwrap();
    }
    let health = http_get(service.telemetry_addr().expect("exporter bound"), "/healthz");
    assert!(health.contains(r#""breakers_open":["q\"uo\\te"]"#), "{health}");
    service.shutdown();
}

/// The native circuit breaker: K consecutive injected native-compile
/// failures demote the model Native→Tape without failing a single
/// request, and the demotion is visible everywhere an operator would
/// look — the metrics counter, the per-model cache stats, and the
/// plan's backend report.
#[test]
fn native_breaker_demotes_without_failing_requests() {
    let registry = ModelRegistry::new();
    registry.register("bb", ModelSpec::new(BETA_BERN).backend(ExecBackend::Native)).unwrap();
    let service = Service::start(registry, chaos_config(1, "compile@native"));
    for i in 0..(NATIVE_BREAKER_THRESHOLD + 1) {
        // No per-request config: the registration's Native backend and
        // the service's fault plan apply.
        let r = wait_bounded(
            service.score(ScoreRequest {
                model: "bb".into(),
                version: None,
                args: bb_args(),
                data: bb_data(),
                config: None,
                deadline: None,
            }),
            &format!("score {i}"),
        );
        assert!(
            r.is_ok(),
            "request {i} must be served from the tape fallback: {}",
            r.err().map(|e| e.to_string()).unwrap_or_default()
        );
    }
    let m = service.metrics();
    assert_eq!(m.demotions, 1, "one model demoted, however many requests saw it");
    assert_eq!(m.failed, 0);
    let demoted: Vec<String> = m.models.iter().filter_map(|ms| ms.demoted.clone()).collect();
    assert_eq!(demoted.len(), 1, "cache stats name the demoted model: {:?}", m.models);
    assert!(
        demoted[0].contains("fault injection: native compile failure"),
        "demotion reason: {demoted:?}"
    );
    let registered = service.registry().resolve("bb", None).unwrap();
    let plan = registered.plan(bb_args(), vec![("y", bb_y())]).unwrap();
    let native = plan.backends().into_iter().find(|b| b.backend == ExecBackend::Native).unwrap();
    assert!(!native.available, "the breaker makes Native unavailable");
    assert!(native.detail.contains("circuit breaker open"), "detail: {}", native.detail);
    service.shutdown();
}
