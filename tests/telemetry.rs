//! The telemetry plane, end to end: streaming convergence estimates
//! against batch `augur::diag`, the HTTP exporter's exposition format,
//! the determinism contract with telemetry on, and v4 trace
//! reconstruction of a faulted request.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use augur::diag::{ess, split_rhat};
use augur::{FaultPlan, HostValue, McmcConfig, SessionConfig};
use augur_serve::{
    hermetic_config, ModelRegistry, ModelSpec, Response, SampleOutput, SampleRequest, ServeError,
    Service, ServiceConfig, Ticket,
};
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

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

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf
}

fn body(resp: &str) -> &str {
    resp.split("\r\n\r\n").nth(1).unwrap_or("")
}

/// Per-parameter batch diagnostics computed from a finished request's
/// draws: (min over components of cross-chain summed ESS, max over
/// components of split-R̂) — the aggregation the streaming tracker
/// exports.
fn batch_diag(out: &SampleOutput, param: &str) -> (f64, f64) {
    let components = out.draws[0][0][param].len();
    let mut ess_min = f64::INFINITY;
    let mut rhat_max = f64::NAN;
    for c in 0..components {
        let chains: Vec<Vec<f64>> = out
            .draws
            .iter()
            .map(|chain| chain.iter().map(|sweep| sweep[param][c]).collect())
            .collect();
        let ess_sum: f64 = chains.iter().map(|xs| ess(xs)).sum();
        ess_min = ess_min.min(ess_sum);
        let r = split_rhat(&chains).unwrap();
        rhat_max = if rhat_max.is_nan() { r } else { rhat_max.max(r) };
    }
    (ess_min, rhat_max)
}

/// Satellite (d): the streaming per-(model, param) estimators — fed one
/// migration slice at a time — agree with batch `augur::diag` over the
/// complete returned draws to 1e-9, on all three paper workloads.
#[test]
fn streaming_convergence_matches_batch_diag_on_paper_workloads() {
    for w in [hgmm_workload(), lda_workload(), hlr_workload()] {
        let registry = ModelRegistry::new();
        registry.register(w.name, ModelSpec::new(w.source)).unwrap();
        let service = Service::start(
            registry,
            ServiceConfig { workers: 2, migrate_every: 5, ..ServiceConfig::default() },
        );
        let out = wait_bounded(
            service.sample(SampleRequest {
                model: w.name.into(),
                version: None,
                args: w.args.clone(),
                data: w.data.clone(),
                chains: 3,
                sweeps: 12,
                record: w.record.clone(),
                config: Some(w.base.clone()),
                migrate_every: None,
                deadline: None,
            }),
            w.name,
        )
        .unwrap()
        .into_sample()
        .unwrap();
        let conv = service.metrics().convergence;
        for param in &w.record {
            let stat = conv
                .iter()
                .find(|c| c.model == w.name && &c.param == param)
                .unwrap_or_else(|| panic!("{}: no streaming stat for `{param}`", w.name));
            let (ess_want, rhat_want) = batch_diag(&out, param);
            assert!(
                (stat.ess - ess_want).abs() <= 1e-9,
                "{}/{param}: streaming ess {} vs batch {ess_want}",
                w.name,
                stat.ess
            );
            assert!(
                (stat.split_rhat - rhat_want).abs() <= 1e-9,
                "{}/{param}: streaming split_rhat {} vs batch {rhat_want}",
                w.name,
                stat.split_rhat
            );
        }
        service.shutdown();
    }
}

/// The short-chain guard, through the service path: with fewer than 4
/// draws per chain, split-R̂ is NaN (and its gauge is withheld from the
/// exposition) while ESS is already defined — exactly the batch guards.
#[test]
fn short_chains_report_nan_rhat_and_defined_ess() {
    let registry = ModelRegistry::new();
    registry.register("coin", ModelSpec::new(models::HLR)).unwrap();
    let w = hlr_workload();
    let service = Service::start(
        registry,
        ServiceConfig { telemetry_addr: Some("127.0.0.1:0".into()), ..ServiceConfig::default() },
    );
    wait_bounded(
        service.sample(SampleRequest {
            model: "coin".into(),
            args: w.args.clone(),
            data: w.data.clone(),
            chains: 2,
            sweeps: 2,
            record: vec!["b".into()],
            config: Some(w.base.clone()),
            ..SampleRequest::new("coin")
        }),
        "short sample",
    )
    .unwrap();
    let conv = service.metrics().convergence;
    let stat = conv.iter().find(|c| c.param == "b").expect("streaming stat for `b`");
    assert!(stat.ess > 0.0, "ESS is defined from the first draw: {}", stat.ess);
    assert!(stat.split_rhat.is_nan(), "split-R̂ needs 4 draws: {}", stat.split_rhat);
    let expo = http_get(service.telemetry_addr().unwrap(), "/metrics");
    let expo = body(&expo);
    assert!(
        expo.lines().any(|l| l.starts_with("augur_ess{")),
        "ess gauge exported:\n{expo}"
    );
    assert!(
        !expo.lines().any(|l| l.starts_with("augur_split_rhat{")),
        "NaN split-R̂ gauge withheld:\n{expo}"
    );
    service.shutdown();
}

/// Checks one rendered sample line against the text-exposition grammar:
/// `name{label="value",...} float`.
fn assert_sample_line(line: &str) {
    let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
    assert!(
        value.parse::<f64>().is_ok() || value == "NaN" || value == "+Inf" || value == "-Inf",
        "unparseable value in: {line}"
    );
    let name = series.split('{').next().unwrap();
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit()),
        "bad metric name in: {line}"
    );
    if let Some(rest) = series.strip_prefix(name) {
        if !rest.is_empty() {
            assert!(rest.starts_with('{') && rest.ends_with('}'), "bad label block: {line}");
        }
    }
}

/// The exporter's surfaces: a well-formed `/metrics` exposition carrying
/// every family the issue names, a healthy `/healthz`, a human-readable
/// `/statusz`, 404 for unknown paths — and the windowed high-water gauge
/// resetting between scrapes.
#[test]
fn exporter_serves_well_formed_exposition_and_status_pages() {
    let w = hlr_workload();
    let registry = ModelRegistry::new();
    registry.register("hlr", ModelSpec::new(w.source)).unwrap();
    let service = Service::start(
        registry,
        ServiceConfig {
            workers: 2,
            telemetry_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        },
    );
    let addr = service.telemetry_addr().unwrap();
    wait_bounded(
        service.sample(SampleRequest {
            model: "hlr".into(),
            args: w.args.clone(),
            data: w.data.clone(),
            chains: 2,
            sweeps: 8,
            record: w.record.clone(),
            config: Some(w.base.clone()),
            migrate_every: Some(3),
            ..SampleRequest::new("hlr")
        }),
        "hlr sample",
    )
    .unwrap();

    let resp = http_get(addr, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("text/plain"), "exposition content type: {resp}");
    let expo = body(&resp).to_owned();

    // Grammar: every line is a comment or a valid sample; every family
    // has exactly one HELP and one TYPE line.
    let mut families: Vec<&str> = Vec::new();
    for line in expo.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            families.push(rest.split(' ').next().unwrap());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap();
            let kind = it.next().unwrap();
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            assert_eq!(families.last(), Some(&name), "TYPE without preceding HELP: {line}");
        } else if !line.is_empty() {
            assert_sample_line(line);
        }
    }
    let unique: std::collections::HashSet<&str> = families.iter().copied().collect();
    assert_eq!(unique.len(), families.len(), "duplicate family header");

    // Every family the issue names is present.
    for name in [
        "augur_queue_depth",
        "augur_shard_queue_depth",
        "augur_queue_high_water",
        "augur_workers_alive",
        "augur_requests_submitted_total",
        "augur_requests_completed_total",
        "augur_requests_failed_total",
        "augur_requests_shed_total",
        "augur_request_timeouts_total",
        "augur_retries_total",
        "augur_respawns_total",
        "augur_migrations_total",
        "augur_demotions_total",
        "augur_plan_cache_hits_total",
        "augur_plan_cache_misses_total",
        "augur_plan_cache_entries",
        "augur_native_breaker_open",
        "augur_request_latency_seconds",
        "augur_ess",
        "augur_split_rhat",
        "augur_telemetry_scrapes_total",
    ] {
        assert!(families.contains(&name), "`{name}` missing from exposition:\n{expo}");
    }
    // The histogram renders the full bucket/sum/count triple with a
    // closing +Inf bucket.
    assert!(expo.contains("augur_request_latency_seconds_bucket{le=\""));
    assert!(expo.contains("augur_request_latency_seconds_bucket{le=\"+Inf\"}"));
    assert!(expo.contains("augur_request_latency_seconds_sum"));
    assert!(expo.contains("augur_request_latency_seconds_count"));
    // The convergence gauges carry (model, param) labels.
    assert!(
        expo.contains("augur_ess{model=\"hlr\",param=\"b\"}"),
        "labeled ess gauge:\n{expo}"
    );
    assert!(
        expo.contains("augur_split_rhat{model=\"hlr\",param=\"b\"}"),
        "labeled split_rhat gauge:\n{expo}"
    );

    // Window semantics: the first scrape consumed the high-water mark
    // set while the request was queued; with the service now idle, the
    // next scrape's window is empty.
    let line = |e: &str| {
        e.lines()
            .find(|l| l.starts_with("augur_queue_high_water "))
            .map(|l| l.to_owned())
            .unwrap()
    };
    assert_ne!(line(&expo), "augur_queue_high_water 0", "first scrape saw the queued burst");
    let again = http_get(addr, "/metrics");
    assert_eq!(line(body(&again)), "augur_queue_high_water 0", "window resets per scrape");

    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(body(&health).contains("\"status\":\"ok\""), "{health}");

    let status = http_get(addr, "/statusz");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(body(&status).contains("augur-serve status"), "{status}");
    assert!(body(&status).contains("hlr"), "statusz lists the model: {status}");
    assert!(body(&status).contains("convergence"), "statusz lists convergence: {status}");

    assert!(http_get(addr, "/nope").starts_with("HTTP/1.1 404"), "unknown path is 404");

    service.shutdown();
}

/// The determinism contract survives the telemetry plane: the same
/// request served with the exporter on (and being scraped mid-run) and
/// with telemetry fully off produces byte-identical draws and digests.
#[test]
fn draws_are_identical_with_telemetry_on_and_off() {
    let run = |telemetry: bool| -> SampleOutput {
        let w = hlr_workload();
        let registry = ModelRegistry::new();
        registry.register("hlr", ModelSpec::new(w.source)).unwrap();
        let service = Service::start(
            registry,
            ServiceConfig {
                workers: 2,
                telemetry_addr: telemetry.then(|| "127.0.0.1:0".into()),
                ..ServiceConfig::default()
            },
        );
        let ticket = service.sample(SampleRequest {
            model: "hlr".into(),
            args: w.args.clone(),
            data: w.data.clone(),
            chains: 2,
            sweeps: 10,
            record: w.record.clone(),
            config: Some(w.base.clone()),
            migrate_every: Some(3),
            ..SampleRequest::new("hlr")
        });
        // Scrape while the request runs: collection must not perturb it.
        if let Some(addr) = service.telemetry_addr() {
            for _ in 0..5 {
                let _ = http_get(addr, "/metrics");
            }
        }
        let out = wait_bounded(ticket, "hlr sample").unwrap().into_sample().unwrap();
        service.shutdown();
        out
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on.draws, off.draws, "draws diverged with telemetry on");
    assert_eq!(on.report_digests, off.report_digests, "digests diverged with telemetry on");
}

/// Pulls one `"key":"value"` string field out of a JSONL record.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// The acceptance criterion for v4 tracing: one grep for the trace id
/// reconstructs a migrated **and** respawned request end-to-end, and
/// every record's parent link resolves within the trace, chaining back
/// to the root `submit` span.
#[test]
fn v4_trace_reconstructs_a_migrated_and_respawned_request() {
    let path = std::env::temp_dir().join(format!(
        "augur_telemetry_trace_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let w = hlr_workload();
    let registry = ModelRegistry::new();
    registry.register("hlr", ModelSpec::new(w.source)).unwrap();
    let service = Service::start(
        registry,
        ServiceConfig {
            workers: 2,
            trace_path: Some(path.clone()),
            fault: Some(FaultPlan::parse("panic@shard:0").unwrap()),
            ..ServiceConfig::default()
        },
    );
    wait_bounded(
        service.sample(SampleRequest {
            model: "hlr".into(),
            args: w.args.clone(),
            data: w.data.clone(),
            chains: 2,
            sweeps: 8,
            record: w.record.clone(),
            config: Some(w.base.clone()),
            migrate_every: Some(3),
            ..SampleRequest::new("hlr")
        }),
        "faulted sample",
    )
    .unwrap();
    service.shutdown();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // "One grep": everything about request 1 shares its trace id.
    let submitted = text
        .lines()
        .find(|l| l.contains("\"event\":\"submitted\""))
        .expect("submitted record");
    let trace = field(submitted, "trace").expect("trace id").to_owned();
    assert_eq!(trace.len(), 16, "trace ids are 16 hex chars: {trace}");
    let records: Vec<&str> =
        text.lines().filter(|l| field(l, "trace") == Some(trace.as_str())).collect();
    for event in ["submitted", "planned", "slice", "migrated", "retried", "respawned", "completed"]
    {
        assert!(
            records.iter().any(|l| l.contains(&format!("\"event\":\"{event}\""))),
            "no `{event}` record under trace {trace}:\n{text}"
        );
    }
    // Every record names the request's model, the worker-recovery
    // records (`retried`, `respawned`) included.
    for l in &records {
        assert!(l.contains("\"model\":\"hlr\""), "record without its model: {l}");
    }

    // Span graph: the root is the parentless submitted span; every
    // other record's parent resolves to a span in the same trace, and
    // walking parents terminates at the root.
    let root = field(submitted, "span").unwrap();
    let spans: HashMap<&str, Option<&str>> =
        records.iter().map(|l| (field(l, "span").unwrap(), field(l, "parent"))).collect();
    for (span, parent) in &spans {
        let mut cur = *parent;
        let mut hops = 0;
        while let Some(p) = cur {
            assert!(
                spans.contains_key(p),
                "span {span}: parent {p} not in trace {trace}:\n{text}"
            );
            cur = spans[p];
            hops += 1;
            assert!(hops <= spans.len(), "parent cycle at span {span}");
        }
        if *span != root {
            assert!(parent.is_some(), "span {span} floats free of the trace tree");
        }
    }
}
